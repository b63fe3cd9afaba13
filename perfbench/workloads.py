"""The benchmark's workloads: inputs built from the workload seed, and the
one closed-loop operation each workload times.

An operation is one optimizer step on the train-* workloads
(``training.train`` advanced one step at a time from the previous state,
which draws the same rng stream as one long call) and one evaluated thread
on eval-directional (``evaluation.evaluate_fold`` on a one-thread fold).
The library is reached only through its public functions.
"""

from __future__ import annotations

import contextlib
import copy
import hashlib
import math
import os

import numpy as np

from threadsum import corpus, decoding, evaluation, layers, model, synth, tokenizer, training
from threadsum.model import ModelConfig, attention_weights
from tracing import patched

HERE = os.path.dirname(os.path.abspath(__file__))
PINNED_DIR = os.path.join(HERE, "pinned")
PINNED_VOCAB = os.path.join(PINNED_DIR, "vocab.txt")
PINNED_MODEL = os.path.join(PINNED_DIR, "model.tsck")
PINNED_SUMS = os.path.join(PINNED_DIR, "SHA256SUMS")

VARIANT = training.get_variant(7)
SPLIT = (0.7, 0.05, 0.25)

# The tier-1 directional acceptance configuration.
DIRECTIONAL_VOCAB_SIZE = 420
DIRECTIONAL_MODEL = dict(
    d_model=48, n_enc_blocks=1, n_dec_blocks=1, n_heads=4, d_ff=96,
    max_len=128, dropout=0.1, label_smoothing=0.1,
)
DIRECTIONAL_OPT = training.OptimizerConfig(lr_peak=1e-3, warmup_steps=200, batch_size=8)
EVAL_DECODE = decoding.DecodeConfig(beam_size=5, block_ngram=3, max_out_len=48)
PINNED_STEPS = 2000
PINNED_SEED = 0

WIDE_VOCAB_SIZE = 8000  # the build-vocab default
WIDE_SIZES = 27  # thread i has 4 + i % 27 salient and 4 + 7i % 27 noise comments
WIDE_THREADS = 3 * WIDE_SIZES
PROBE_THREADS = 4  # train threads whose fixed examples must lose loss over a run

LAYER_FUNCS = (
    "attention_fwd", "attention_bwd", "ffn_fwd", "ffn_bwd", "linear_fwd", "linear_bwd",
    "layer_norm_fwd", "layer_norm_bwd", "gelu_fwd", "gelu_bwd", "dropout_fwd", "dropout_bwd",
    "softmax", "causal_mask",
)


def _count_generated(tracer):
    return lambda hyps: tracer.count("decoding.tokens_generated", hyps[0].n_generated())


# (module, attribute, span name[, hook]).  Each attribute is the one its
# callers look up: model.py calls layers.X through the module (and layers'
# functions call each other through the same module globals), while
# training.py and decoding.py bind the functions they use by name.
TRACEPOINTS = [(layers, f, f"layers.{f}") for f in LAYER_FUNCS] + [
    (training, "train", "training.train"),
    (training, "forward_loss", "model.forward_loss"),
    (training, "sample_target", "training.sample_target"),
    (training, "encode", "tokenizer.encode"),
    (decoding, "encode", "tokenizer.encode"),
    (decoding, "encode_thread", "model.encode_thread"),
    (decoding, "decode_step", "model.decode_step"),
    (decoding, "beam_search", "decoding.beam_search", _count_generated),
    (decoding, "blocked_tokens", "decoding.blocked_tokens"),
    (evaluation, "evaluate_thread", "evaluation.evaluate_thread"),
    (evaluation, "rouge_n", "evaluation.rouge_n"),
    (training, "write_tensors", "checkpoint.write_tensors"),
    (training, "read_tensors", "checkpoint.read_tensors"),
    (corpus, "preprocess", "corpus.preprocess"),
    (tokenizer, "train_vocab", "tokenizer.train_vocab"),
]


class PinnedInputError(RuntimeError):
    """A pinned eval input is missing or differs from its recorded hash."""


def clean_threads(dicts: list[dict]) -> list[corpus.CleanThread]:
    raw = [
        corpus.RawThread(d["id"], d["title"], [corpus.RawComment(c["text"], c["likes"]) for c in d["comments"]])
        for d in dicts
    ]
    return corpus.preprocess(raw)


def directional_train_fold(seed: int) -> list[corpus.CleanThread]:
    dicts = synth.make_corpus(200, seed=seed, style="graded")
    threads = corpus.partition(clean_threads(dicts), SPLIT, seed=seed)
    return [t for t in threads if t.fold == "train"]


def directional_config(vocab_size: int) -> ModelConfig:
    return ModelConfig(vocab_size=vocab_size, **DIRECTIONAL_MODEL)


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def verify_pinned() -> None:
    """Refuse pinned inputs whose SHA-256 differs from pinned/SHA256SUMS."""
    try:
        with open(PINNED_SUMS, encoding="utf-8") as fh:
            expected = dict(reversed(line.split()) for line in fh if line.strip())
    except OSError as exc:
        raise PinnedInputError(f"cannot read {PINNED_SUMS}: {exc}") from exc
    for name, want in sorted(expected.items()):
        path = os.path.join(PINNED_DIR, name)
        try:
            got = sha256_file(path)
        except OSError as exc:
            raise PinnedInputError(f"cannot read pinned input {name}: {exc}") from exc
        if got != want:
            raise PinnedInputError(
                f"pinned input {name} has sha256 {got}, but pinned/SHA256SUMS records {want}; "
                "the eval workload would no longer decode with the pinned model. "
                "Restore the file, or regenerate all pinned inputs with perfbench/make_pinned.py."
            )


def checkpoint_round_trip(state: training.TrainState, path, vocab_sha: str) -> tuple[bool, int]:
    """Save and reload the state; True when tensors, counters and rng state
    come back bit-equal.  Also returns the file size in bytes."""
    training.save_checkpoint(state, path, vocab_sha)
    try:
        n_bytes = os.path.getsize(path)
        back = training.load_checkpoint(path, expected_vocab_sha=vocab_sha)
    finally:
        os.remove(path)

    def same(a: dict, b: dict) -> bool:
        return a.keys() == b.keys() and all(
            a[k].dtype == b[k].dtype and np.array_equal(a[k], b[k]) for k in a
        )

    ok = (
        same(state.params.tensors, back.params.tensors)
        and same(state.adam_m, back.adam_m)
        and same(state.adam_v, back.adam_v)
        and state.step == back.step
        and state.variant == back.variant
        and state.params.config == back.params.config
        and state.rng.bit_generator.state == back.rng.bit_generator.state
    )
    return ok, n_bytes


class Record:
    """What one pass of operations produced and how its checks went."""

    def __init__(self):
        self.outputs: list = []   # per-op output compared between passes
        self.quality: list = []   # per-op quality values
        self.tokens = 0
        self.failed = 0
        self.failures: list[str] = []

    def fail(self, why: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(why)


class TrainWorkload:
    """One optimizer step per operation on variant 7."""

    vocab_size: int
    opt: training.OptimizerConfig
    quality_window: int  # first timed steps, whose losses give the quality metric

    def __init__(self, seed: int, scratch_dir: str):
        self.seed = seed
        self.scratch_dir = scratch_dir
        self.record = Record()

    def make_fold(self) -> list[corpus.CleanThread]:
        raise NotImplementedError

    def make_config(self, vocab_size: int) -> ModelConfig:
        raise NotImplementedError

    def setup(self) -> None:
        self.fold = self.make_fold()
        self.vocab = tokenizer.train_vocab(self.fold, vocab_size=self.vocab_size)
        self.config = self.make_config(len(self.vocab))
        self.state = training.new_state(self.config, VARIANT, self.seed)
        self._step()  # warm-up: the first optimizer step is not timed
        rng = np.random.default_rng(self.seed)
        self.probe_examples = [
            training.sample_target(t, attention_weights(t), VARIANT, self.vocab, rng, self.config.max_len)
            for t in self.fold[:PROBE_THREADS]
        ]
        self.start_params = self.state.params.copy()

    def _step(self) -> None:
        training.train(
            self.fold, self.vocab, VARIANT, self.config, self.opt,
            training.TrainSchedule(max_steps=self.state.step + 1, eval_every=0),
            initial_state=self.state,
        )

    def probes(self):
        """Counts input plus target tokens of every sampled example."""

        def make(sample_target):
            def counted(*args, **kwargs):
                example = sample_target(*args, **kwargs)
                self.record.tokens += len(example.input_seq.ids) + len(example.target)
                return example
            return counted

        return patched(training, "sample_target", make)

    def op(self, i: int) -> None:
        try:
            self._step()
        except training.TrainingDiverged as exc:
            self.record.fail(f"step {self.state.step}: {exc}")
            return
        loss = self.state.last_train_loss
        self.record.outputs.append(loss)
        self.record.quality.append(loss)
        if not math.isfinite(loss):
            self.record.fail(f"step {self.state.step}: non-finite loss {loss}")

    def snapshot(self):
        return copy.deepcopy(self.state)

    def restore(self, snapshot) -> None:
        self.state = snapshot

    def probe_loss(self, params) -> float:
        """Mean loss of the fixed probe examples, without dropout."""
        return float(np.mean([
            model.forward_loss(params, ex.input_seq, ex.weights, ex.target,
                               disable_attention=not VARIANT.attention_encoding)[0]
            for ex in self.probe_examples
        ]))

    def finish(self) -> dict:
        """End-of-run checks; returns information for the result.

        Training must lower the loss of fixed examples between the first and
        the last timed step.  Batch losses are too noisy for this on
        train-wide, whose default warmup keeps the learning rate tiny over
        the few steps a run makes.
        """
        losses = self.record.quality[: self.quality_window]
        tenth = max(1, len(losses) // 10)
        before, after = self.probe_loss(self.start_params), self.probe_loss(self.state.params)
        if not after < before:
            self.record.fail(f"probe loss did not decrease: {before:.6f} before, {after:.6f} after")
        path = os.path.join(self.scratch_dir, f"roundtrip-{os.getpid()}.tsck")
        ok, self.checkpoint_bytes = checkpoint_round_trip(self.state, path, "")
        if not ok:
            self.record.fail("checkpoint round trip changed the training state")
        return {
            "probe_loss_before": before,
            "probe_loss_after": after,
            "loss_first_tenth": float(np.mean(losses[:tenth])),
            "loss_last_tenth": float(np.mean(losses[-tenth:])),
            "final_step": self.state.step,
        }

    def quality(self) -> float:
        losses = self.record.quality[: self.quality_window]
        return float(np.mean(losses[-max(1, len(losses) // 10):]))


class TrainDirectional(TrainWorkload):
    """Short threads at the acceptance config: per-call interpreter overhead dominates."""

    vocab_size = DIRECTIONAL_VOCAB_SIZE
    opt = DIRECTIONAL_OPT
    quality_window = 100

    def make_fold(self):
        return directional_train_fold(self.seed)

    def make_config(self, vocab_size):
        return directional_config(vocab_size)


class TrainWide(TrainWorkload):
    """Long, uneven threads at the default model size: matmuls and Adam dominate."""

    vocab_size = WIDE_VOCAB_SIZE
    opt = training.OptimizerConfig()
    quality_window = 20

    def make_fold(self):
        """Every seed trains on the same spread of thread sizes, 4 to 30
        salient and 4 to 30 noise comments, so step cost varies less from
        seed to seed; the seed picks topics, words and likes."""
        dicts = []
        for i in range(WIDE_THREADS):
            salient, noise = 4 + i % WIDE_SIZES, 4 + 7 * i % WIDE_SIZES
            dicts += synth.make_corpus(
                1, seed=self.seed * WIDE_THREADS + i, n_salient=(salient, salient),
                n_noise=(noise, noise), id_prefix=f"wide{i:03d}",
            )
        return clean_threads(dicts)

    def make_config(self, vocab_size):
        return ModelConfig(vocab_size=vocab_size)


def likes_entropy(likes_dist) -> float:
    p = np.asarray(likes_dist, dtype=np.float64)
    return float(-(p * np.log(p)).sum())


class EvalDirectional:
    """The pinned model summarizes fresh graded threads, likes withheld."""

    pool_size = 1000  # threads generated per run; ops cycle through them
    quality_window = 100  # threads whose scores give the quality metrics

    def __init__(self, seed: int, scratch_dir: str):
        self.seed = seed
        self.scratch_dir = scratch_dir
        self.record = Record()

    def setup(self) -> None:
        verify_pinned()
        self.threads = clean_threads(
            synth.make_corpus(self.pool_size + 1, seed=self.seed, style="graded", id_prefix="eval")
        )
        self.vocab = tokenizer.load_vocab(PINNED_VOCAB)
        self.vocab_sha = tokenizer.vocab_hash(PINNED_VOCAB)
        self.state = training.load_checkpoint(PINNED_MODEL, expected_vocab_sha=self.vocab_sha)
        warm = self.threads.pop()  # warm-up on a thread the timed ops never see
        evaluation.evaluate_fold(self.state, [warm], EVAL_DECODE, self.vocab)

    @contextlib.contextmanager
    def probes(self):
        """Counts encoded thread tokens and keeps each summary."""

        def count_tokens(encode):
            def counted(*args, **kwargs):
                seq = encode(*args, **kwargs)
                self.record.tokens += len(seq.ids)
                return seq
            return counted

        def keep_summary(summarize):
            def kept(*args, **kwargs):
                result = summarize(*args, **kwargs)
                self.record.outputs.append(result["raw"])
                return result
            return kept

        with patched(decoding, "encode", count_tokens), patched(decoding, "summarize", keep_summary):
            yield

    def op(self, i: int) -> None:
        thread = self.threads[i % len(self.threads)]
        reports, _, skipped = evaluation.evaluate_fold(self.state, [thread], EVAL_DECODE, self.vocab)
        if skipped or len(reports) != 1:
            self.record.fail(f"thread {thread.id} was skipped")
            return
        report = reports[0]
        self.record.quality.append((report.xent, report.recall_w, report.title_rouge))
        if not report.xent >= likes_entropy(report.likes_dist) - 1e-12:
            self.record.fail(f"thread {thread.id}: xent {report.xent} below the entropy of the likes")
        if not 0.0 <= report.recall_w <= 1.0:
            self.record.fail(f"thread {thread.id}: recall_w {report.recall_w} outside [0, 1]")

    def snapshot(self):
        return None

    def restore(self, snapshot) -> None:
        pass

    def finish(self) -> dict:
        path = os.path.join(self.scratch_dir, f"roundtrip-{os.getpid()}.tsck")
        ok, self.checkpoint_bytes = checkpoint_round_trip(self.state, path, self.vocab_sha)
        if not ok:
            self.record.fail("checkpoint round trip changed the pinned state")
        window = self.record.outputs[: self.quality_window]
        digest = hashlib.sha256("\n".join(window).encode("utf-8")).hexdigest()
        xent, recall_w, title = self.quality_means()
        return {
            "summaries_sha256": digest,
            "eval_xent": xent,
            "eval_recall_w": recall_w,
            "eval_title_rouge": title,
        }

    def quality_means(self) -> tuple[float, float, float]:
        rows = np.asarray(self.record.quality[: self.quality_window], dtype=np.float64)
        return tuple(float(x) for x in rows.mean(axis=0))

    def quality(self) -> float:
        return self.quality_means()[0]


WORKLOADS = {
    "train-directional": TrainDirectional,
    "train-wide": TrainWide,
    "eval-directional": EvalDirectional,
}
