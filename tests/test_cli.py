"""Command-line pipeline: determinism, flags, error codes, file formats."""

import dataclasses
import json
import math
import re
import shlex

import pytest

from threadsum import cli, evaluation
from threadsum.cli import build_parser, main
from threadsum.decoding import DecodeConfig
from threadsum.model import ModelConfig
from threadsum.training import OptimizerConfig, TrainSchedule

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

    def test_nan_ratio_exit_1(self, tmp_path, capsys):
        code = run(["preprocess", "--in", DATA, "--out", str(tmp_path / "x.jsonl"), "--ratios", "nan,0.5,0.5"])
        assert code == 1
        assert json.loads(capsys.readouterr().err.strip())["error"].startswith("CorpusError:")

    @pytest.mark.parametrize("ratios", ["a,b,c", "0.5,0.5"])
    def test_unparsable_ratios_exit_2(self, tmp_path, capsys, ratios):
        with pytest.raises(SystemExit) as err:
            run(["preprocess", "--in", DATA, "--out", str(tmp_path / "x.jsonl"), "--ratios", ratios])
        assert err.value.code == 2
        assert "--ratios" in capsys.readouterr().err


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
        cases.append(["summarize", *required["summarize"], "--config", "run.cfg"])
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


SUMMARIZE = ["summarize", "--in", "i", "--vocab", "v", "--checkpoint", "c", "--out", "o"]


class TestConfigFile:
    """An @file argument reads flags from a settings file in its place,
    written as on the command line; argparse checks them as usual."""

    def test_config_file_fills_defaults_and_flags_override(self, tmp_path):
        settings = tmp_path / "run.args"
        settings.write_text("# preprocessing\n--min-words 7\n--seed 3\n")
        args = build_parser().parse_args(["preprocess", "--in", "x", "--out", "y", f"@{settings}", "--seed", "9"])
        assert args.min_words == 7  # filled from file
        assert args.seed == 9  # explicit flag wins

    def test_later_flag_at_its_default_overrides_the_file(self, tmp_path):
        settings = tmp_path / "run.args"
        settings.write_text("--seed 3\n")
        args = build_parser().parse_args(["preprocess", "--in", "x", "--out", "y", f"@{settings}", "--seed", "0"])
        assert args.seed == 0
        settings.write_text("--beam-size 9\n")
        assert build_parser().parse_args([*SUMMARIZE, f"@{settings}", "--beam-size", "5"]).beam_size == 5
        # and a file after a flag overrides it
        assert build_parser().parse_args([*SUMMARIZE, "--beam-size", "5", f"@{settings}"]).beam_size == 9

    def test_values_are_typed(self, tmp_path):
        settings = tmp_path / "run.args"
        settings.write_text("--beam-size 9 --length-penalty-alpha 0.25  # two on a line\n--provide-likes\n--fold all\n")
        args = build_parser().parse_args([*SUMMARIZE, f"@{settings}"])
        assert (args.beam_size, args.length_penalty_alpha, args.provide_likes, args.fold) == (9, 0.25, True, "all")

    def test_file_supplies_required_flags_and_the_command(self, tmp_path):
        settings = tmp_path / "characterize.args"
        settings.write_text('characterize\n--reports "eval dir/reports.jsonl"\n--out quartiles.csv\n')
        args = build_parser().parse_args([f"@{settings}"])
        assert (args.command, args.reports, args.output) == ("characterize", "eval dir/reports.jsonl", "quartiles.csv")

    @pytest.mark.parametrize("text, named", [
        pytest.param("--beam-sise 9\n", "--beam-sise", id="unknown-flag"),
        pytest.param("--seed 3\n", "--seed", id="flag-of-another-command"),
        pytest.param("--beam-size five\n", "'five'", id="not-an-int"),
        pytest.param("--max-out-len 6.5\n", "'6.5'", id="float-for-int"),
        pytest.param("--provide-likes maybe\n", "maybe", id="value-for-switch"),
        pytest.param("--fold everything\n", "'everything'", id="not-a-choice"),
        pytest.param("beam_size = 9\n", "beam_size = 9", id="key-value-line"),  # the removed --config format
        pytest.param('--out "unclosed\n', "No closing quotation", id="unclosed-quote"),
    ])
    def test_bad_flag_or_value_exits_2(self, tmp_path, capsys, text, named):
        settings = tmp_path / "run.args"
        settings.write_text(text)
        with pytest.raises(SystemExit) as err:
            main([*SUMMARIZE, f"@{settings}"])
        assert err.value.code == 2
        assert named in capsys.readouterr().err

    def test_missing_file_exits_2(self, tmp_path, capsys):
        missing = tmp_path / "absent.args"
        with pytest.raises(SystemExit) as err:
            main(["preprocess", "--in", "i", "--out", "o", f"@{missing}"])
        assert err.value.code == 2
        assert str(missing) in capsys.readouterr().err

    def test_file_that_is_not_text_exits_2(self, tmp_path):
        settings = tmp_path / "run.args"
        settings.write_bytes(b"--seed \xff\xfe\n")
        with pytest.raises(SystemExit) as err:
            main(["preprocess", "--in", "i", "--out", "o", f"@{settings}"])
        assert err.value.code == 2


def test_readme_commands_parse(tmp_path, monkeypatch):
    """Every threadsum command in README.md parses, with the settings files
    the README shows written where it names them."""
    with open("README.md", encoding="utf-8") as fh:
        blocks = re.findall(r"```(\w*)\n(.*?)```", fh.read(), re.S)
    monkeypatch.chdir(tmp_path)
    for _, text in blocks:
        named = re.match(r"# (\S+\.args)", text)
        if named:
            (tmp_path / named.group(1)).write_text(text)
    commands = [
        shlex.split(line)
        for kind, text in blocks if kind == "bash"
        for line in text.replace("\\\n", " ").splitlines() if line.startswith("threadsum ")
    ]
    assert len(commands) >= 8
    for argv in commands:
        args = build_parser().parse_args(argv[1:])
        if any(arg.startswith("@") for arg in argv):
            assert (args.beam_size, args.max_out_len) == (5, 48)  # the README's later flag wins


def dataclass_flag_defaults(command):
    """Each dataclass-backed flag of the command and its field's default."""
    decode = {f"--{f.name.replace('_', '-')}": f.default for f in dataclasses.fields(DecodeConfig)}
    if command != "train":
        return decode
    optimizer = {f"--{f.name.replace('_', '-')}": f.default for f in dataclasses.fields(OptimizerConfig)}
    model = {f"--{dest.replace('_', '-')}": getattr(ModelConfig, field) for dest, field in cli._MODEL_FLAGS.items()}
    return decode | optimizer | model | {"--eval-every": TrainSchedule.eval_every}


@pytest.mark.parametrize("command", ["train", "summarize", "evaluate"])
def test_help_shows_the_dataclass_defaults(command, capsys):
    with pytest.raises(SystemExit):
        main([command, "--help"])
    options = " ".join(capsys.readouterr().out.split()).split("options:", 1)[1]
    for flag, default in dataclass_flag_defaults(command).items():
        shown = re.search(rf"{flag} [A-Z_]+ .*?\(default: ([^)]*)\)", options)
        assert shown and shown.group(1) == str(default), (command, flag)


class TestTrainFold:
    def test_held_out_folds_alone_are_rejected(self, tmp_path, capsys):
        """A ratio that rounds the train fold to nothing leaves only
        validation and test threads, which train must not fit."""
        clean, vocab, run_dir = tmp_path / "clean.jsonl", tmp_path / "vocab.txt", tmp_path / "run"
        assert run(["preprocess", "--in", DATA, "--out", str(clean), "--seed", "1", "--ratios", "0.01,0.49,0.5"]) == 0
        assert {json.loads(line)["fold"] for line in clean.read_text().splitlines()} == {"validation", "test"}
        assert run(["build-vocab", "--in", str(clean), "--out", str(vocab), "--vocab-size", "300", "--fold", "all"]) == 0
        capsys.readouterr()
        code = run(
            ["train", "--in", str(clean), "--vocab", str(vocab), "--out-dir", str(run_dir), "--steps", "2"]
            + FAST_TRAIN
        )
        assert code == 1
        error = json.loads(capsys.readouterr().err.strip())["error"]
        assert error.startswith("TrainingError:") and "test, validation" in error
        assert not run_dir.exists()

    def test_corpus_without_folds_trains_on_every_thread(self, tmp_path):
        clean, vocab, run_dir = tmp_path / "clean.jsonl", tmp_path / "vocab.txt", tmp_path / "run"
        assert run(["preprocess", "--in", DATA, "--out", str(clean), "--seed", "1"]) == 0
        rows = [json.loads(line) for line in clean.read_text().splitlines()]
        clean.write_text("".join(json.dumps({k: v for k, v in row.items() if k != "fold"}) + "\n" for row in rows))
        assert run(["build-vocab", "--in", str(clean), "--out", str(vocab), "--vocab-size", "300", "--fold", "all"]) == 0
        code = run(
            ["train", "--in", str(clean), "--vocab", str(vocab), "--out-dir", str(run_dir),
             "--steps", "2", "--eval-every", "2"]
            + FAST_TRAIN
        )
        assert code == 0
        assert (run_dir / "step00000002.tsck").exists()


@pytest.mark.parametrize("flag", ["--steps", "--eval-every"])
def test_negative_schedule_flag_exits_1(tmp_path, capsys, flag):
    """A negative --steps or --eval-every trains nothing and writes nothing."""
    clean, vocab, run_dir = tmp_path / "clean.jsonl", tmp_path / "vocab.txt", tmp_path / "run"
    assert run(["preprocess", "--in", DATA, "--out", str(clean), "--seed", "1"]) == 0
    assert run(["build-vocab", "--in", str(clean), "--out", str(vocab), "--vocab-size", "300"]) == 0
    capsys.readouterr()
    code = run(["train", "--in", str(clean), "--vocab", str(vocab), "--out-dir", str(run_dir), flag, "-1"] + FAST_TRAIN)
    assert code == 1
    error = json.loads(capsys.readouterr().err.strip())["error"]
    assert error.startswith("TrainingError:") and flag[2:].replace("-", "_") in error
    assert not run_dir.exists()


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
             "--resume", str(run_dir / "step00000020.tsck"), "--steps", "30", "--eval-every", "10"]
            + FAST_TRAIN
        )
        assert code == 0
        assert (out_dir / "step00000030.tsck").exists()


def fail_on_second_call(fn):
    calls = []

    def flaky(*args, **kwargs):
        calls.append(None)
        if len(calls) == 2:
            raise RuntimeError("second call fails")
        return fn(*args, **kwargs)

    return flaky


class TestAllOrNothingOutputs:
    """A command that fails part-way leaves its previous outputs byte for
    byte and no temporary file."""

    def test_summarize(self, pipeline, tmp_path, monkeypatch):
        root, clean, vocab, run_dir = pipeline
        out = tmp_path / "sums.jsonl"
        out.write_bytes(b"previous run\n")
        monkeypatch.setattr(cli, "summarize", fail_on_second_call(cli.summarize))
        code = run(
            ["summarize", "--in", str(clean), "--vocab", str(vocab),
             "--checkpoint", str(run_dir / "step00000020.tsck"), "--out", str(out),
             "--fold", "all", "--beam-size", "2", "--max-out-len", "8"]
        )
        assert code == 1
        assert out.read_bytes() == b"previous run\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["sums.jsonl"]

    def test_evaluate(self, pipeline, tmp_path, monkeypatch):
        """Writing the second report fails after the first was written."""
        root, clean, vocab, run_dir = pipeline
        out_dir = tmp_path / "eval"
        out_dir.mkdir()
        (out_dir / "reports.jsonl").write_bytes(b"previous reports\n")
        (out_dir / "aggregates.csv").write_bytes(b"previous aggregates\n")
        monkeypatch.setattr(dataclasses, "asdict", fail_on_second_call(dataclasses.asdict))
        code = run(
            ["evaluate", "--in", str(clean), "--vocab", str(vocab),
             "--checkpoint", str(run_dir / "step00000020.tsck"), "--out-dir", str(out_dir),
             "--fold", "all", "--beam-size", "2", "--max-out-len", "8"]
        )
        assert code == 1
        assert (out_dir / "reports.jsonl").read_bytes() == b"previous reports\n"
        assert (out_dir / "aggregates.csv").read_bytes() == b"previous aggregates\n"
        assert sorted(p.name for p in out_dir.iterdir()) == ["aggregates.csv", "reports.jsonl"]


class TestResumeFlags:
    """--resume keeps the checkpoint's model, variant and rng: a given flag
    that disagrees with the checkpoint, any --seed, and a --steps that is not
    past the checkpoint's step are usage errors."""

    def resume(self, pipeline, tmp_path, extra):
        root, clean, vocab, run_dir = pipeline
        return run(
            ["train", "--in", str(clean), "--vocab", str(vocab), "--out-dir", str(tmp_path / "resumed"),
             "--resume", str(run_dir / "step00000020.tsck"), "--steps", "21", "--eval-every", "0"]
            + extra
        )

    @pytest.mark.parametrize(
        "extra, flag",
        [(["--d-model", "32"], "--d-model"), (["--variant", "3"], "--variant"),
         (["--label-smoothing", "0.2"], "--label-smoothing")],
    )
    def test_conflicting_flag_exits_2(self, pipeline, tmp_path, capsys, extra, flag):
        with pytest.raises(SystemExit) as err:
            self.resume(pipeline, tmp_path, extra)
        assert err.value.code == 2
        assert flag in capsys.readouterr().err

    def test_flags_at_their_defaults_are_not_conflicts(self, pipeline, tmp_path):
        """The checkpoint's d_model is 16; the flag's default 128 is no request."""
        assert self.resume(pipeline, tmp_path, []) == 0

    @pytest.mark.parametrize("in_file", [False, True], ids=["command-line", "settings-file"])
    def test_given_flag_at_its_default_conflicts(self, pipeline, tmp_path, capsys, in_file):
        """The checkpoint's d_model is 16; an explicit --d-model 128 is a
        request, although 128 is the flag's default."""
        extra = ["--d-model", "128"]
        if in_file:
            settings = tmp_path / "model.args"
            settings.write_text("--d-model 128\n")
            extra = [f"@{settings}"]
        with pytest.raises(SystemExit) as err:
            self.resume(pipeline, tmp_path, extra)
        assert err.value.code == 2
        assert "--d-model 128" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", ["0", "99"])
    def test_seed_exits_2(self, pipeline, tmp_path, capsys, seed):
        """A resumed run continues the checkpoint's rng, so --seed, even at
        its default, would be ignored."""
        with pytest.raises(SystemExit) as err:
            self.resume(pipeline, tmp_path, ["--seed", seed])
        assert err.value.code == 2
        assert f"--seed {seed}" in capsys.readouterr().err
        assert not (tmp_path / "resumed").exists()

    @pytest.mark.parametrize("steps", ["20", "5"])
    def test_steps_not_past_the_checkpoint_exit_2(self, pipeline, tmp_path, capsys, steps):
        """The checkpoint is at step 20; --steps 20 or fewer would train nothing."""
        with pytest.raises(SystemExit) as err:
            self.resume(pipeline, tmp_path, ["--steps", steps])
        assert err.value.code == 2
        assert f"--steps {steps}" in capsys.readouterr().err
        assert not (tmp_path / "resumed").exists()


def reject_constant(name):
    raise ValueError(f"{name} is not JSON")


class TestReportsFile:
    """evaluate's reports.jsonl is strict JSON and characterize reads it back."""

    def test_zero_like_threads_round_trip(self, pipeline, tmp_path):
        root, clean, vocab, run_dir = pipeline
        threads = [json.loads(l) for l in clean.read_text().splitlines()]
        for thread in threads[:4]:
            for comment in thread["comments"]:
                comment["likes"] = 0
        corpus = tmp_path / "zero_likes.jsonl"
        corpus.write_text("".join(json.dumps(t) + "\n" for t in threads))
        eval_dir = tmp_path / "eval"
        assert run(
            ["evaluate", "--in", str(corpus), "--vocab", str(vocab),
             "--checkpoint", str(run_dir / "step00000020.tsck"), "--out-dir", str(eval_dir),
             "--fold", "all", "--beam-size", "2", "--max-out-len", "8"]
        ) == 0
        lines = (eval_dir / "reports.jsonl").read_text().splitlines()
        rows = [json.loads(line, parse_constant=reject_constant) for line in lines]
        assert {r["thread_id"] for r in rows if r["recall_w"] is None} == {t["id"] for t in threads[:4]}
        reports = evaluation.load_reports(eval_dir / "reports.jsonl")
        assert [math.isnan(r.recall_w) for r in reports] == [r["recall_w"] is None for r in rows]
        assert [evaluation.report_to_json(r) for r in reports] == lines
        out = tmp_path / "quartiles.csv"
        assert run(["characterize", "--reports", str(eval_dir / "reports.jsonl"), "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 5

    @pytest.mark.parametrize("bad", ["{not json", '{"thread_id": "t"}', "[1, 2]", '"a string"'])
    def test_malformed_line_names_its_number(self, tmp_path, capsys, bad):
        report = evaluation.EvalReport(
            thread_id="t", per_comment_rouge=[0.5], likes_dist=[1.0], rouge_dist=[1.0], xent=0.1,
            recall_w=0.5, title_rouge=0.0, features=evaluation.CharacterizationFeatures(3, 2, 1, 1.0, 1.0, 0.0),
        )
        reports = tmp_path / "reports.jsonl"
        reports.write_text(evaluation.report_to_json(report) + "\n\n" + bad + "\n")
        with pytest.raises(evaluation.MetricError, match="line 3"):
            evaluation.load_reports(reports)
        assert run(["characterize", "--reports", str(reports), "--out", str(tmp_path / "q.csv")]) == 1
        assert "line 3" in json.loads(capsys.readouterr().err)["error"]


def test_characterize_failure_keeps_previous_csv(pipeline, tmp_path, monkeypatch):
    """A row that cannot be written, after the header and a first row were,
    leaves the previous CSV byte for byte and no temporary file."""
    root, clean, vocab, run_dir = pipeline
    eval_dir = tmp_path / "eval"
    assert run(
        ["evaluate", "--in", str(clean), "--vocab", str(vocab),
         "--checkpoint", str(run_dir / "step00000020.tsck"), "--out-dir", str(eval_dir),
         "--fold", "all", "--beam-size", "2", "--max-out-len", "8"]
    ) == 0
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    out = out_dir / "quartiles.csv"
    out.write_bytes(b"previous report\n")
    real = evaluation.quartile_report

    def second_row_unwritable(reports):
        rows = real(reports)
        rows[1] = {**rows[1], "not_a_column": 1}
        return rows

    monkeypatch.setattr(evaluation, "quartile_report", second_row_unwritable)
    assert run(["characterize", "--reports", str(eval_dir / "reports.jsonl"), "--out", str(out)]) == 1
    assert out.read_bytes() == b"previous report\n"
    assert [p.name for p in out_dir.iterdir()] == ["quartiles.csv"]
