"""Command-line entry point.

Subcommands cover the full pipeline: preprocess raw threads, build the
subword vocabulary, train a task variant, summarize threads from a
checkpoint, evaluate a fold, and build the quartile characterization
report.  Every command is deterministic given its inputs; preprocess and
train, the two that draw random numbers, also take --seed.  An @file
argument reads flags from a settings file, one or more per line as on the
command line; a later flag wins.  Flags that set a field of ModelConfig,
DecodeConfig, OptimizerConfig or TrainSchedule take their defaults from it.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import shlex
import sys

from threadsum import corpus as corpus_mod
from threadsum import evaluation
from threadsum.checkpoint import replace_when_done
from threadsum.decoding import DecodeConfig, summarize
from threadsum.model import ModelConfig
from threadsum.tokenizer import load_vocab, save_vocab, train_vocab, vocab_hash
from threadsum.training import (
    OptimizerConfig,
    TrainingError,
    TrainSchedule,
    get_variant,
    load_checkpoint,
    train,
)


class _Parser(argparse.ArgumentParser):
    """Splits each line of an @file as a shell would, # comments included,
    and keeps the arguments it was last given: a subcommand's parser gets
    them with every @file already read."""

    def convert_arg_line_to_args(self, arg_line):
        try:
            return shlex.split(arg_line, comments=True)
        except ValueError as exc:  # an unclosed quote
            self.error(f"settings-file line {arg_line.strip()!r}: {exc}")

    def parse_known_args(self, args=None, namespace=None):
        self.given_args = args
        try:
            return super().parse_known_args(args, namespace)
        except UnicodeDecodeError as exc:  # argparse reads an @file as text
            self.error(f"a settings file is not UTF-8 text: {exc}")


def _from_flags(cls, args):
    """A DecodeConfig or OptimizerConfig from the flags named after its fields."""
    return cls(**{f.name: getattr(args, f.name) for f in dataclasses.fields(cls)})


# model flag dest -> ModelConfig field
_MODEL_FLAGS = {
    "d_model": "d_model", "enc_blocks": "n_enc_blocks", "dec_blocks": "n_dec_blocks", "heads": "n_heads",
    "d_ff": "d_ff", "max_len": "max_len", "dropout": "dropout", "label_smoothing": "label_smoothing",
}


def _model_config(args, vocab_size: int) -> ModelConfig:
    return ModelConfig(vocab_size=vocab_size, **{f: getattr(args, dest) for dest, f in _MODEL_FLAGS.items()})


def _check_resume_flags(args, state) -> None:
    """A resumed run keeps the checkpoint's model, variant and rng, so a
    model flag or --variant that was given, on the command line or in an
    @file, and disagrees with the checkpoint exits 2, whatever its value, as
    does any given --seed or a --steps that is not past the checkpoint's step.

    argparse cannot say which flags were given, so the subcommand's
    arguments are parsed again into a namespace holding a sentinel for every
    dest: parsing fills in a default only for a missing dest."""
    unset = object()
    given = vars(args._sub.parse_args(args._sub.given_args, argparse.Namespace(**dict.fromkeys(vars(args), unset))))
    fixed = {dest: getattr(state.params.config, f) for dest, f in _MODEL_FLAGS.items()}
    fixed["variant"] = state.variant.id
    for dest, kept in fixed.items():
        if given[dest] is not unset and given[dest] != kept:
            args._sub.error(
                f"--{dest.replace('_', '-')} {given[dest]} differs from the checkpoint's "
                f"{kept}; --resume keeps the checkpoint's model and variant"
            )
    if given["seed"] is not unset:
        args._sub.error(f"--seed {given['seed']} has no effect: --resume continues the checkpoint's rng")
    if args.steps <= state.step:
        args._sub.error(f"--steps {args.steps} is not past the checkpoint's step {state.step}; nothing to train")


def _ratios(text: str) -> tuple[float, float, float]:
    try:
        train_r, val_r, test_r = map(float, text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected three comma-separated numbers, got {text!r}") from None
    return train_r, val_r, test_r


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    m = ModelConfig
    p.add_argument("--d-model", type=int, default=m.d_model, help="model width")
    p.add_argument("--enc-blocks", type=int, default=m.n_enc_blocks, help="encoder blocks")
    p.add_argument("--dec-blocks", type=int, default=m.n_dec_blocks, help="decoder blocks")
    p.add_argument("--heads", type=int, default=m.n_heads, help="attention heads")
    p.add_argument("--d-ff", type=int, default=m.d_ff, help="feed-forward width")
    p.add_argument("--max-len", type=int, default=m.max_len, help="maximum subtoken sequence length")
    p.add_argument("--dropout", type=float, default=m.dropout, help="dropout probability")
    p.add_argument("--label-smoothing", type=float, default=m.label_smoothing, help="label smoothing mass")


def _add_decode_flags(p: argparse.ArgumentParser) -> None:
    d = DecodeConfig
    p.add_argument("--beam-size", type=int, default=d.beam_size, help="beam width")
    p.add_argument("--block-ngram", type=int, default=d.block_ngram, help="repeated n-gram size to block (0 disables)")
    p.add_argument("--max-out-len", type=int, default=d.max_out_len, help="generation length cap")
    p.add_argument("--length-penalty-alpha", type=float, default=d.length_penalty_alpha,
                   help="beam length-penalty exponent")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="threadsum",
        description="Abstractive summarization of news discussion threads with like-driven attention.",
        epilog="@FILE reads flags from a settings file, as on the command line; a later flag wins.",
        fromfile_prefix_chars="@",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("preprocess", formatter_class=argparse.ArgumentDefaultsHelpFormatter, help="clean raw threads and assign folds")
    p.add_argument("--in", dest="input", required=True, help="raw JSONL corpus")
    p.add_argument("--out", dest="output", required=True, help="clean JSONL corpus")
    p.add_argument("--min-words", type=int, default=5, help="minimum words per comment")
    p.add_argument("--ratios", type=_ratios, default="0.8,0.1,0.1", help="train,validation,test ratios")
    p.add_argument("--seed", type=int, default=0, help="random seed")

    p = sub.add_parser("build-vocab", formatter_class=argparse.ArgumentDefaultsHelpFormatter, help="train the subword vocabulary on the train fold")
    p.add_argument("--in", dest="input", required=True, help="clean JSONL corpus")
    p.add_argument("--out", dest="output", required=True, help="vocabulary file")
    p.add_argument("--vocab-size", type=int, default=8000, help="target vocabulary size")
    p.add_argument("--min-freq", type=int, default=1, help="minimum pair frequency to merge")
    p.add_argument("--no-lowercase", action="store_true", help="keep original casing")
    p.add_argument("--fold", default="train", choices=(*corpus_mod.FOLDS, "all"), help="fold to read")

    o = OptimizerConfig
    p = sub.add_parser("train", formatter_class=argparse.ArgumentDefaultsHelpFormatter, help="train one task variant")
    p.add_argument("--in", dest="input", required=True, help="clean JSONL corpus")
    p.add_argument("--vocab", required=True, help="vocabulary file from build-vocab")
    p.add_argument("--out-dir", required=True, help="output directory")
    p.add_argument("--variant", type=int, default=7, help="task variant id (1..8)")
    p.add_argument("--steps", type=int, default=2000, help="total optimizer steps")
    p.add_argument("--eval-every", type=int, default=TrainSchedule.eval_every, help="checkpoint cadence in steps")
    p.add_argument("--seed", type=int, default=0, help="random seed (refused with --resume, which continues the checkpoint's rng)")
    p.add_argument("--resume", default=None, help="checkpoint to continue from; its model, variant and rng are kept")
    p.add_argument("--lr-peak", type=float, default=o.lr_peak, help="peak learning rate")
    p.add_argument("--warmup-steps", type=int, default=o.warmup_steps, help="learning-rate warmup steps")
    p.add_argument("--batch-size", type=int, default=o.batch_size, help="threads per optimizer step")
    p.add_argument("--clip-norm", type=float, default=o.clip_norm, help="global gradient-norm clip (0 disables)")
    p.add_argument("--log-every", type=int, default=0, help="print loss every N steps (0 silences)")
    _add_model_flags(p)
    _add_decode_flags(p)

    p = sub.add_parser("summarize", formatter_class=argparse.ArgumentDefaultsHelpFormatter, help="generate summaries for a fold")
    p.add_argument("--in", dest="input", required=True, help="clean JSONL corpus")
    p.add_argument("--vocab", required=True, help="vocabulary file from build-vocab")
    p.add_argument("--checkpoint", required=True, help="model checkpoint file")
    p.add_argument("--out", dest="output", required=True, help="summaries JSONL")
    p.add_argument("--fold", default="test", choices=(*corpus_mod.FOLDS, "all"), help="fold to read")
    p.add_argument("--provide-likes", action="store_true", help="feed real likes instead of uniform weights")
    _add_decode_flags(p)

    p = sub.add_parser("evaluate", formatter_class=argparse.ArgumentDefaultsHelpFormatter, help="score generated summaries over a fold")
    p.add_argument("--in", dest="input", required=True, help="clean JSONL corpus")
    p.add_argument("--vocab", required=True, help="vocabulary file from build-vocab")
    p.add_argument("--checkpoint", required=True, help="model checkpoint file")
    p.add_argument("--out-dir", required=True, help="output directory")
    p.add_argument("--fold", default="test", choices=(*corpus_mod.FOLDS, "all"), help="fold to read")
    p.add_argument("--rouge-n", type=int, default=1, help="n-gram order for all ROUGE metrics")
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
    raw = corpus_mod.load_corpus(args.input)
    clean = corpus_mod.partition(corpus_mod.preprocess(raw, args.min_words), args.ratios, args.seed)
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
    train_fold = [t for t in threads if t.fold == "train"]
    if not train_fold:  # a corpus without folds trains on every thread, never on held-out ones
        folds = sorted({t.fold for t in threads if t.fold})
        if folds:
            raise TrainingError(f"{args.input} has no thread in the train fold, only in {', '.join(folds)}")
        train_fold = threads
    val_fold = [t for t in threads if t.fold == "validation"] or None
    vocab = load_vocab(args.vocab)
    sha = vocab_hash(args.vocab)
    opt = _from_flags(OptimizerConfig, args)
    schedule = TrainSchedule(max_steps=args.steps, eval_every=args.eval_every)
    if args.resume:
        state = load_checkpoint(args.resume, expected_vocab_sha=sha)
        _check_resume_flags(args, state)
        config = state.params.config
        variant = state.variant
    else:
        state = None
        config = _model_config(args, len(vocab))
        variant = get_variant(args.variant)
    final = train(
        train_fold, vocab, variant, config, opt, schedule, seed=args.seed,
        val_corpus=val_fold, out_dir=args.out_dir, decode_config=_from_flags(DecodeConfig, args),
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
    cfg = _from_flags(DecodeConfig, args)
    with replace_when_done(args.output) as fh:
        for thread in threads:
            result = summarize(state, vocab, thread, cfg, provide_likes=args.provide_likes)
            result["checkpoint"] = os.path.basename(args.checkpoint)
            fh.write(json.dumps(result, ensure_ascii=False, sort_keys=True) + "\n")
    print(f"wrote {len(threads)} summaries to {args.output}")
    return 0


def cmd_evaluate(args) -> int:
    vocab = load_vocab(args.vocab)
    state = load_checkpoint(args.checkpoint, expected_vocab_sha=vocab_hash(args.vocab))
    threads = _load_fold(args.input, args.fold)
    reports, aggregates, skipped = evaluation.evaluate_fold(
        state, threads, _from_flags(DecodeConfig, args), vocab, n=args.rouge_n
    )
    os.makedirs(args.out_dir, exist_ok=True)
    reports_path = os.path.join(args.out_dir, "reports.jsonl")
    agg_path = os.path.join(args.out_dir, "aggregates.csv")
    # both files are replaced only once both are written
    with replace_when_done(reports_path) as fh, replace_when_done(agg_path, newline="") as agg_fh:
        for report in reports:
            fh.write(evaluation.report_to_json(report) + "\n")
        writer = csv.writer(agg_fh)
        writer.writerow(["variant", *aggregates])
        writer.writerow([state.variant.id, *(f"{v:.6f}" for v in aggregates.values())])
    means = ", ".join(f"{name} {v:.4f}" for name, v in aggregates.items())
    print(f"evaluated {len(reports)} threads ({skipped} skipped): {means}")
    return 0


def cmd_characterize(args) -> int:
    rows = evaluation.quartile_report(evaluation.load_reports(args.reports))
    with replace_when_done(args.output, newline="") as fh:
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
    try:
        return _COMMANDS[args.command](args)
    except Exception as exc:  # single-line machine-parsable error
        print(json.dumps({"error": f"{type(exc).__name__}: {exc}"}), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
