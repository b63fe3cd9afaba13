"""Command-line pipeline: determinism, flags, error codes, file formats."""

import json

import pytest

from threadsum.cli import build_parser, main

DATA = "data/smoke_corpus.jsonl"

FAST_TRAIN = [
    "--d-model", "16", "--enc-blocks", "1", "--dec-blocks", "1", "--heads", "2",
    "--d-ff", "32", "--max-len", "64", "--dropout", "0", "--warmup-steps", "5",
    "--beam-size", "2", "--max-out-len", "8",
]


def run(argv):
    return main(argv)


class TestPreprocess:
    def test_rerun_byte_identical(self, tmp_path):
        out1 = tmp_path / "a.jsonl"
        out2 = tmp_path / "b.jsonl"
        assert run(["preprocess", "--in", DATA, "--out", str(out1), "--seed", "1"]) == 0
        assert run(["preprocess", "--in", DATA, "--out", str(out2), "--seed", "1"]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_fold_field_present(self, tmp_path):
        out = tmp_path / "clean.jsonl"
        run(["preprocess", "--in", DATA, "--out", str(out), "--seed", "1"])
        rows = [json.loads(l) for l in out.read_text().splitlines()]
        assert all(r["fold"] in ("train", "validation", "test") for r in rows)

    def test_bad_ratios_exit_1(self, tmp_path, capsys):
        code = run(
            ["preprocess", "--in", DATA, "--out", str(tmp_path / "x.jsonl"), "--ratios", "0.5,0.5,0.5"]
        )
        assert code == 1
        err = capsys.readouterr().err.strip()
        assert json.loads(err)["error"]


class TestUsageErrors:
    def test_missing_required_flag_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["evaluate", "--in", DATA])
        assert err.value.code == 2

    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2

    def test_removed_no_op_flags_exit_2(self):
        required = {
            "preprocess": ["--in", "i", "--out", "o"],
            "build-vocab": ["--in", "i", "--out", "o"],
            "train": ["--in", "i", "--vocab", "v", "--out-dir", "o"],
            "summarize": ["--in", "i", "--vocab", "v", "--checkpoint", "c", "--out", "o"],
            "evaluate": ["--in", "i", "--vocab", "v", "--checkpoint", "c", "--out-dir", "o"],
            "characterize": ["--reports", "r", "--out", "o"],
        }
        cases = [[command, *flags, "--threads", "2"] for command, flags in required.items()]
        cases.append(["summarize", *required["summarize"], "--seed", "1"])
        for argv in cases:
            build_parser().parse_args(argv[:-2])  # valid without the removed flag
            with pytest.raises(SystemExit) as err:
                main(argv)
            assert err.value.code == 2, argv

    def test_help_lists_spec_defaults(self, capsys):
        for command, expectations in {
            "preprocess": ["--min-words", "5"],
            "train": ["--eval-every", "2000", "--lr-peak", "0.0003", "--batch-size", "8"],
            "summarize": ["--beam-size", "5", "--block-ngram", "3"],
        }.items():
            with pytest.raises(SystemExit) as err:
                main([command, "--help"])
            assert err.value.code == 0
            text = capsys.readouterr().out
            for token in expectations:
                assert token in text, (command, token)


class TestConfigFile:
    def test_config_file_fills_defaults_and_flags_override(self, tmp_path):
        parser = build_parser()
        cfg = tmp_path / "run.cfg"
        cfg.write_text("min_words = 7\nseed = 3\n")
        args = parser.parse_args(
            ["preprocess", "--in", "x", "--out", "y", "--config", str(cfg), "--seed", "9"]
        )
        from threadsum.cli import _apply_config_file

        _apply_config_file(args)
        assert args.min_words == 7  # filled from file
        assert args.seed == 9  # explicit flag wins

    def test_values_are_typed(self, tmp_path):
        from threadsum.cli import _apply_config_file

        cfg = tmp_path / "run.cfg"
        cfg.write_text("beam-size = 9\nlength_penalty_alpha = 0.25\nprovide_likes = yes\nfold = all\n")
        args = build_parser().parse_args(
            ["summarize", "--in", "i", "--vocab", "v", "--checkpoint", "c", "--out", "o", "--config", str(cfg)]
        )
        _apply_config_file(args)
        assert (args.beam_size, args.length_penalty_alpha, args.provide_likes, args.fold) == (9, 0.25, True, "all")

    @pytest.mark.parametrize("text, named", [
        ("beam_sise = 9\n", "'beam_sise'"),  # names no flag
        ("seed = 3\n", "'seed'"),  # a flag of another subcommand only
        ("beam_size = five\n", "'five'"),
        ("max_out_len = 6.5\n", "'max_out_len'"),
        ("provide_likes = maybe\n", "'maybe'"),
        ("fold = everything\n", "'fold'"),
    ])
    def test_bad_key_or_value_exits_2(self, tmp_path, capsys, text, named):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        with pytest.raises(SystemExit) as err:
            main(["summarize", "--in", "i", "--vocab", "v", "--checkpoint", "c", "--out", "o",
                  "--config", str(cfg)])
        assert err.value.code == 2
        message = capsys.readouterr().err
        assert named in message and str(cfg) in message

    def test_line_without_equals_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# beam settings\n\nbeam_size 9\n")
        with pytest.raises(SystemExit) as err:
            main(["summarize", "--in", "i", "--vocab", "v", "--checkpoint", "c", "--out", "o",
                  "--config", str(cfg)])
        assert err.value.code == 2
        message = capsys.readouterr().err
        assert str(cfg) in message and "line 3" in message and "'beam_size 9'" in message

    def test_missing_file_exits_2(self, tmp_path, capsys):
        missing = tmp_path / "absent.cfg"
        with pytest.raises(SystemExit) as err:
            main(["preprocess", "--in", "i", "--out", "o", "--config", str(missing)])
        assert err.value.code == 2
        assert str(missing) in capsys.readouterr().err


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Shared tiny end-to-end run: preprocess -> vocab -> train -> artifacts."""
    root = tmp_path_factory.mktemp("pipeline")
    clean = root / "clean.jsonl"
    vocab = root / "vocab.txt"
    run_dir = root / "run"
    assert run(["preprocess", "--in", DATA, "--out", str(clean), "--seed", "1"]) == 0
    assert run(["build-vocab", "--in", str(clean), "--out", str(vocab), "--vocab-size", "300"]) == 0
    assert (
        run(
            ["train", "--in", str(clean), "--vocab", str(vocab), "--out-dir", str(run_dir),
             "--variant", "7", "--steps", "20", "--eval-every", "10", "--seed", "2"]
            + FAST_TRAIN
        )
        == 0
    )
    return root, clean, vocab, run_dir


class TestPipeline:
    def test_checkpoints_and_metrics_written(self, pipeline):
        root, clean, vocab, run_dir = pipeline
        checkpoints = sorted(p.name for p in run_dir.glob("*.tsck"))
        assert checkpoints == ["step00000010.tsck", "step00000020.tsck"]
        metrics = [json.loads(l) for l in (run_dir / "metrics.jsonl").read_text().splitlines()]
        assert [m["step"] for m in metrics] == [10, 20]
        assert all(m["val_xent"] is not None for m in metrics)
        assert all("/" not in m["checkpoint_path"] for m in metrics)

    def test_summarize_schema(self, pipeline, tmp_path):
        root, clean, vocab, run_dir = pipeline
        out = tmp_path / "sums.jsonl"
        code = run(
            ["summarize", "--in", str(clean), "--vocab", str(vocab),
             "--checkpoint", str(run_dir / "step00000020.tsck"), "--out", str(out),
             "--fold", "test", "--beam-size", "2", "--max-out-len", "8"]
        )
        assert code == 0
        rows = [json.loads(l) for l in out.read_text().splitlines()]
        assert rows
        for row in rows:
            assert set(row) == {"thread_id", "title_part", "comment_parts", "raw", "variant", "checkpoint"}
            assert row["variant"] == 7
            assert row["checkpoint"] == "step00000020.tsck"

    def test_evaluate_outputs(self, pipeline, tmp_path):
        root, clean, vocab, run_dir = pipeline
        out_dir = tmp_path / "eval"
        code = run(
            ["evaluate", "--in", str(clean), "--vocab", str(vocab),
             "--checkpoint", str(run_dir / "step00000020.tsck"), "--out-dir", str(out_dir),
             "--fold", "all", "--beam-size", "2", "--max-out-len", "8"]
        )
        assert code == 0
        reports = [json.loads(l) for l in (out_dir / "reports.jsonl").read_text().splitlines()]
        assert len(reports) == 20
        header, values = (out_dir / "aggregates.csv").read_text().splitlines()
        assert header == "variant,xent,recall_w,title_rouge"
        variant, xent, recall_w, title_r = values.split(",")
        assert variant == "7"
        assert float(xent) > 0
        assert 0.0 <= float(recall_w) <= 1.0

    def test_characterize_csv(self, pipeline, tmp_path):
        root, clean, vocab, run_dir = pipeline
        eval_dir = tmp_path / "eval"
        run(
            ["evaluate", "--in", str(clean), "--vocab", str(vocab),
             "--checkpoint", str(run_dir / "step00000020.tsck"), "--out-dir", str(eval_dir),
             "--fold", "all", "--beam-size", "2", "--max-out-len", "8"]
        )
        out = tmp_path / "quartiles.csv"
        assert run(["characterize", "--reports", str(eval_dir / "reports.jsonl"), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("quartile,")
        assert len(lines) == 5
        assert lines[1].startswith("Q1,") and lines[4].startswith("Q4,")

    def test_wrong_vocab_rejected(self, pipeline, tmp_path):
        root, clean, vocab, run_dir = pipeline
        other_vocab = tmp_path / "other.txt"
        run(["build-vocab", "--in", str(clean), "--out", str(other_vocab), "--vocab-size", "280"])
        code = run(
            ["summarize", "--in", str(clean), "--vocab", str(other_vocab),
             "--checkpoint", str(run_dir / "step00000020.tsck"), "--out", str(tmp_path / "s.jsonl")]
        )
        assert code == 1

    def test_resume_continues(self, pipeline, tmp_path):
        root, clean, vocab, run_dir = pipeline
        out_dir = tmp_path / "resumed"
        code = run(
            ["train", "--in", str(clean), "--vocab", str(vocab), "--out-dir", str(out_dir),
             "--resume", str(run_dir / "step00000020.tsck"), "--steps", "30", "--eval-every", "10",
             "--seed", "99"]
            + FAST_TRAIN
        )
        assert code == 0
        assert (out_dir / "step00000030.tsck").exists()
