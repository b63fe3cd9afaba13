"""Command-line entry point.

Subcommands cover the full pipeline: preprocess raw threads, build the
subword vocabulary, train a task variant, summarize threads from a
checkpoint, evaluate a fold, and build the quartile characterization
report.  Every command is deterministic given its inputs; preprocess and
train, the two that draw random numbers, also take --seed.  Flags override
values read from an optional --config key-value file (all commands but
characterize).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys

from threadsum import corpus as corpus_mod
from threadsum import evaluation
from threadsum.decoding import DecodeConfig, summarize
from threadsum.model import ModelConfig
from threadsum.tokenizer import load_vocab, save_vocab, train_vocab, vocab_hash
from threadsum.training import (
    OptimizerConfig,
    TrainSchedule,
    get_variant,
    load_checkpoint,
    train,
)


def _read_config_file(path: str) -> dict[str, str]:
    """key = value lines; blank lines and # comments are skipped.  Any other
    line raises ValueError naming its line number."""
    values = {}
    with open(path, encoding="utf-8") as fh:
        for number, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"line {number}: {line!r} is not key = value")
            key, value = line.split("=", 1)
            values[key.strip().replace("-", "_")] = value.strip()
    return values


_BOOL_WORDS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def _apply_config_file(args: argparse.Namespace) -> None:
    """Config-file values fill in any flag still at its parser default.

    An unreadable file, a line that is not key = value, a key that names no
    flag of the subcommand and a value the flag would not accept are usage
    errors (exit 2).
    """
    if not getattr(args, "config", None):
        return
    subparser: argparse.ArgumentParser = args._sub
    try:
        values = _read_config_file(args.config)
    except OSError as exc:
        subparser.error(f"cannot read config file {args.config}: {exc.strerror or exc}")
    except ValueError as exc:
        subparser.error(f"config file {args.config}: {exc}")
    flags = {a.dest: a for a in subparser._actions if a.option_strings and a.dest not in ("help", "config")}
    for key, raw in values.items():
        action = flags.get(key)
        if action is None:
            subparser.error(f"config file {args.config}: {key!r} names no option of {subparser.prog}")
        if getattr(args, key) != action.default:
            continue  # explicit flag wins
        try:
            if isinstance(action.default, bool):
                value = _BOOL_WORDS[raw.lower()]
            else:
                value = action.type(raw) if action.type else raw
            if action.choices and value not in action.choices:
                raise ValueError(raw)
        except (KeyError, ValueError):
            subparser.error(f"config file {args.config}: invalid value {raw!r} for {key!r}")
        setattr(args, key, value)


def _model_config(args, vocab_size: int) -> ModelConfig:
    return ModelConfig(
        vocab_size=vocab_size,
        d_model=args.d_model,
        n_enc_blocks=args.enc_blocks,
        n_dec_blocks=args.dec_blocks,
        n_heads=args.heads,
        d_ff=args.d_ff,
        max_len=args.max_len,
        dropout=args.dropout,
        label_smoothing=args.label_smoothing,
    )


def _decode_config(args) -> DecodeConfig:
    return DecodeConfig(
        beam_size=args.beam_size,
        block_ngram=args.block_ngram,
        max_out_len=args.max_out_len,
        length_penalty_alpha=args.length_penalty_alpha,
    )


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--d-model", type=int, default=128, help="model width")
    p.add_argument("--enc-blocks", type=int, default=2, help="encoder blocks")
    p.add_argument("--dec-blocks", type=int, default=2, help="decoder blocks")
    p.add_argument("--heads", type=int, default=4, help="attention heads")
    p.add_argument("--d-ff", type=int, default=512, help="feed-forward width")
    p.add_argument("--max-len", type=int, default=512, help="maximum subtoken sequence length")
    p.add_argument("--dropout", type=float, default=0.1, help="dropout probability")
    p.add_argument("--label-smoothing", type=float, default=0.1, help="label smoothing mass")


def _add_decode_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--beam-size", type=int, default=5, help="beam width")
    p.add_argument("--block-ngram", type=int, default=3, help="repeated n-gram size to block (0 disables)")
    p.add_argument("--max-out-len", type=int, default=64, help="generation length cap")
    p.add_argument("--length-penalty-alpha", type=float, default=0.6, help="beam length-penalty exponent")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="threadsum",
        description="Abstractive summarization of news discussion threads with like-driven attention.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("preprocess", formatter_class=argparse.ArgumentDefaultsHelpFormatter, help="clean raw threads and assign folds")
    p.add_argument("--in", dest="input", required=True, help="raw JSONL corpus")
    p.add_argument("--out", dest="output", required=True, help="clean JSONL corpus")
    p.add_argument("--min-words", type=int, default=5, help="minimum words per comment")
    p.add_argument("--ratios", default="0.8,0.1,0.1", help="train,validation,test ratios")
    p.add_argument("--seed", type=int, default=0, help="random seed")
    p.add_argument("--config", default=None, help="key-value config file; flags override")

    p = sub.add_parser("build-vocab", formatter_class=argparse.ArgumentDefaultsHelpFormatter, help="train the subword vocabulary on the train fold")
    p.add_argument("--in", dest="input", required=True, help="clean JSONL corpus")
    p.add_argument("--out", dest="output", required=True, help="vocabulary file")
    p.add_argument("--vocab-size", type=int, default=8000, help="target vocabulary size")
    p.add_argument("--min-freq", type=int, default=1, help="minimum pair frequency to merge")
    p.add_argument("--no-lowercase", action="store_true", help="keep original casing")
    p.add_argument("--fold", default="train", choices=("train", "validation", "test", "all"), help="fold to read")
    p.add_argument("--config", default=None)

    p = sub.add_parser("train", formatter_class=argparse.ArgumentDefaultsHelpFormatter, help="train one task variant")
    p.add_argument("--in", dest="input", required=True, help="clean JSONL corpus")
    p.add_argument("--vocab", required=True, help="vocabulary file from build-vocab")
    p.add_argument("--out-dir", required=True, help="output directory")
    p.add_argument("--variant", type=int, default=7, help="task variant id (1..8)")
    p.add_argument("--steps", type=int, default=2000, help="total optimizer steps")
    p.add_argument("--eval-every", type=int, default=2000, help="checkpoint cadence in steps")
    p.add_argument("--seed", type=int, default=0, help="random seed")
    p.add_argument("--resume", default=None, help="checkpoint to continue from")
    p.add_argument("--lr-peak", type=float, default=3e-4, help="peak learning rate")
    p.add_argument("--warmup-steps", type=int, default=400, help="learning-rate warmup steps")
    p.add_argument("--batch-size", type=int, default=8, help="threads per optimizer step")
    p.add_argument("--clip-norm", type=float, default=1.0, help="global gradient-norm clip (0 disables)")
    p.add_argument("--log-every", type=int, default=0, help="print loss every N steps (0 silences)")
    p.add_argument("--config", default=None)
    _add_model_flags(p)
    _add_decode_flags(p)

    p = sub.add_parser("summarize", formatter_class=argparse.ArgumentDefaultsHelpFormatter, help="generate summaries for a fold")
    p.add_argument("--in", dest="input", required=True, help="clean JSONL corpus")
    p.add_argument("--vocab", required=True, help="vocabulary file from build-vocab")
    p.add_argument("--checkpoint", required=True, help="model checkpoint file")
    p.add_argument("--out", dest="output", required=True, help="summaries JSONL")
    p.add_argument("--fold", default="test", choices=("train", "validation", "test", "all"), help="fold to read")
    p.add_argument("--provide-likes", action="store_true", help="feed real likes instead of uniform weights")
    p.add_argument("--config", default=None)
    _add_decode_flags(p)

    p = sub.add_parser("evaluate", formatter_class=argparse.ArgumentDefaultsHelpFormatter, help="score generated summaries over a fold")
    p.add_argument("--in", dest="input", required=True, help="clean JSONL corpus")
    p.add_argument("--vocab", required=True, help="vocabulary file from build-vocab")
    p.add_argument("--checkpoint", required=True, help="model checkpoint file")
    p.add_argument("--out-dir", required=True, help="output directory")
    p.add_argument("--fold", default="test", choices=("train", "validation", "test", "all"), help="fold to read")
    p.add_argument("--rouge-n", type=int, default=1, help="n-gram order for all ROUGE metrics")
    p.add_argument("--config", default=None)
    _add_decode_flags(p)

    p = sub.add_parser("characterize", formatter_class=argparse.ArgumentDefaultsHelpFormatter, help="quartile report from evaluation reports")
    p.add_argument("--reports", required=True, help="EvalReport JSONL from evaluate")
    p.add_argument("--out", dest="output", required=True, help="quartile CSV")

    for sp in sub.choices.values():
        sp.set_defaults(_sub=sp)
    return parser


def _load_fold(path, fold):
    return corpus_mod.load_clean(path, fold=None if fold == "all" else fold)


def cmd_preprocess(args) -> int:
    ratios = tuple(float(x) for x in args.ratios.split(","))
    raw = corpus_mod.load_corpus(args.input)
    clean = corpus_mod.partition(corpus_mod.preprocess(raw, args.min_words), ratios, args.seed)
    corpus_mod.save_clean(clean, args.output)
    print(f"wrote {len(clean)} clean threads to {args.output}")
    return 0


def cmd_build_vocab(args) -> int:
    threads = _load_fold(args.input, args.fold)
    vocab = train_vocab(
        threads, vocab_size=args.vocab_size, min_freq=args.min_freq,
        lowercase=not args.no_lowercase,
    )
    save_vocab(vocab, args.output)
    print(f"wrote vocabulary of {len(vocab)} tokens ({vocab.n_merges} merges) to {args.output}")
    return 0


def cmd_train(args) -> int:
    threads = corpus_mod.load_clean(args.input)
    train_fold = [t for t in threads if t.fold == "train"] or threads
    val_fold = [t for t in threads if t.fold == "validation"] or None
    vocab = load_vocab(args.vocab)
    sha = vocab_hash(args.vocab)
    opt = OptimizerConfig(
        lr_peak=args.lr_peak, warmup_steps=args.warmup_steps,
        batch_size=args.batch_size, clip_norm=args.clip_norm,
    )
    schedule = TrainSchedule(max_steps=args.steps, eval_every=args.eval_every)
    if args.resume:
        state = load_checkpoint(args.resume, expected_vocab_sha=sha)
        config = state.params.config
        variant = state.variant
    else:
        state = None
        config = _model_config(args, len(vocab))
        variant = get_variant(args.variant)
    final = train(
        train_fold, vocab, variant, config, opt, schedule, seed=args.seed,
        val_corpus=val_fold, out_dir=args.out_dir, decode_config=_decode_config(args),
        vocab_sha=sha, initial_state=state, log_every=args.log_every,
    )
    print(
        f"trained variant {variant.id} to step {final.step}; "
        f"last loss {final.last_train_loss:.4f}; best checkpoint {final.best_checkpoint or 'n/a'}"
    )
    return 0


def cmd_summarize(args) -> int:
    vocab = load_vocab(args.vocab)
    state = load_checkpoint(args.checkpoint, expected_vocab_sha=vocab_hash(args.vocab))
    threads = _load_fold(args.input, args.fold)
    cfg = _decode_config(args)
    with open(args.output, "w", encoding="utf-8") as fh:
        for thread in threads:
            result = summarize(state, vocab, thread, cfg, provide_likes=args.provide_likes)
            result["checkpoint"] = args.checkpoint.rsplit("/", 1)[-1]
            fh.write(json.dumps(result, ensure_ascii=False, sort_keys=True) + "\n")
    print(f"wrote {len(threads)} summaries to {args.output}")
    return 0


def cmd_evaluate(args) -> int:
    vocab = load_vocab(args.vocab)
    state = load_checkpoint(args.checkpoint, expected_vocab_sha=vocab_hash(args.vocab))
    threads = _load_fold(args.input, args.fold)
    reports, aggregates, skipped = evaluation.evaluate_fold(
        state, threads, _decode_config(args), vocab, n=args.rouge_n
    )
    os.makedirs(args.out_dir, exist_ok=True)
    reports_path = os.path.join(args.out_dir, "reports.jsonl")
    with open(reports_path, "w", encoding="utf-8") as fh:
        for report in reports:
            row = dataclasses.asdict(report)
            fh.write(json.dumps(row, ensure_ascii=False, sort_keys=True) + "\n")
    agg_path = os.path.join(args.out_dir, "aggregates.csv")
    with open(agg_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["variant", "xent", "recall_w", "title_rouge"])
        writer.writerow(
            [state.variant.id, f"{aggregates['xent']:.6f}",
             f"{aggregates['recall_w']:.6f}", f"{aggregates['title_rouge']:.6f}"]
        )
    print(
        f"evaluated {len(reports)} threads ({skipped} skipped): "
        f"xent {aggregates['xent']:.4f}, recall_w {aggregates['recall_w']:.4f}, "
        f"title_rouge {aggregates['title_rouge']:.4f}"
    )
    return 0


def cmd_characterize(args) -> int:
    reports = []
    with open(args.reports, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            row = json.loads(line)
            reports.append(
                evaluation.EvalReport(
                    thread_id=row["thread_id"],
                    per_comment_rouge=row["per_comment_rouge"],
                    likes_dist=row["likes_dist"],
                    rouge_dist=row["rouge_dist"],
                    xent=row["xent"],
                    recall_w=row["recall_w"] if row["recall_w"] is not None else float("nan"),
                    title_rouge=row["title_rouge"],
                    features=evaluation.CharacterizationFeatures(**row["features"]),
                )
            )
    rows = evaluation.quartile_report(reports)
    with open(args.output, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        for row in rows:
            writer.writerow({k: (f"{v:.6f}" if isinstance(v, float) else v) for k, v in row.items()})
    print(f"wrote quartile report to {args.output}")
    return 0


_COMMANDS = {
    "preprocess": cmd_preprocess,
    "build-vocab": cmd_build_vocab,
    "train": cmd_train,
    "summarize": cmd_summarize,
    "evaluate": cmd_evaluate,
    "characterize": cmd_characterize,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _apply_config_file(args)
    try:
        return _COMMANDS[args.command](args)
    except Exception as exc:  # single-line machine-parsable error
        print(json.dumps({"error": f"{type(exc).__name__}: {exc}"}), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
