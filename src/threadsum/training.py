"""Training-task construction and the optimization loop.

Each step draws a batch of threads and builds fresh targets: the news title
(variants that include it), a [SEP], then one or three comments sampled
without replacement with probability proportional to their like-derived
attention weights.  The loss is teacher-forced label-smoothed KL; the
optimizer is Adam with a warmup-then-inverse-sqrt learning-rate schedule.
Checkpoints carry parameters, optimizer moments and the rng state, so a
resumed run continues bit-identically.

A step samples its examples one at a time and packs consecutive ones into
chunks of at most CHUNK_TOKENS input-plus-target tokens (an example above
the budget gets a chunk of its own).  Each chunk is one forward_loss call
that adds its gradients into the step's one gradient dict, so no chunk
holds a second full gradient set; the step scales that dict by 1/batch,
and _adam_update clips it in place and uses it as scratch.  The result is
bit for bit that of summing per-chunk dicts.

Right after sampling an example the step draws all of that example's
dropout keep masks with one rng.random(n) >= dropout (model.dropout_keep).
A Generator's random() takes one 64-bit draw per double, so these are the
masks, and the rng state after them is the state, that drawing each
layer's uniforms during the example's own forward pass would give: the rng
stream does not depend on how examples are chunked.  Keeping bool masks,
not the float64 uniforms, holds a chunk's pending draws to one byte per
entry.
"""

from __future__ import annotations

import math
import json
import os
from dataclasses import asdict, dataclass, fields

import numpy as np

from threadsum.checkpoint import CheckpointError, read_tensors, write_tensors
from threadsum.corpus import CleanThread
from threadsum.model import (
    AttentionWeights,
    ModelConfig,
    ModelParams,
    NumericsError,
    attention_weights,
    dropout_keep,
    forward_loss,
    init_params,
)
from threadsum.tokenizer import BOS, EOS, SEP, TokenSeq, Vocab, encode


class TrainingError(ValueError):
    """Raised for invalid training configuration or corrupt state."""


class TrainingDiverged(RuntimeError):
    """Loss went non-finite; carries the last good checkpoint path (or None)."""

    def __init__(self, message: str, checkpoint_path: str | None):
        super().__init__(message)
        self.checkpoint_path = checkpoint_path


@dataclass(frozen=True)
class TaskVariant:
    id: int
    attention_encoding: bool
    include_title: bool
    n_comments: int


# the eight task variants: attention encoding x title prediction x 1 or 3 comments
VARIANTS = {
    1: TaskVariant(1, attention_encoding=False, include_title=True, n_comments=1),
    2: TaskVariant(2, attention_encoding=False, include_title=False, n_comments=1),
    3: TaskVariant(3, attention_encoding=True, include_title=True, n_comments=1),
    4: TaskVariant(4, attention_encoding=True, include_title=False, n_comments=1),
    5: TaskVariant(5, attention_encoding=False, include_title=True, n_comments=3),
    6: TaskVariant(6, attention_encoding=False, include_title=False, n_comments=3),
    7: TaskVariant(7, attention_encoding=True, include_title=True, n_comments=3),
    8: TaskVariant(8, attention_encoding=True, include_title=False, n_comments=3),
}


def get_variant(variant_id: int) -> TaskVariant:
    if variant_id not in VARIANTS:
        raise TrainingError(f"variant must be 1..8, got {variant_id}")
    return VARIANTS[variant_id]


# input plus target tokens of the examples one forward_loss call packs.  It
# bounds the activations a chunk keeps alive for its backward pass, so the
# default model's peak memory does not grow with the batch.  At 1024 a
# directional batch (about 720 tokens) is one chunk and the default model's
# long threads share chunks; against 512 that took 8-9% off the steps of
# both train benchmarks and cost the default model 7% more peak RSS, with
# forward_loss freeing activations as its backward consumes them
CHUNK_TOKENS = 1024

# Adam moment decay rates and denominator epsilon
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.998
ADAM_EPS = 1e-9


@dataclass(frozen=True)
class OptimizerConfig:
    lr_peak: float = 3e-4
    warmup_steps: int = 400
    batch_size: int = 8
    clip_norm: float = 1.0  # 0 disables clipping

    def __post_init__(self):
        for name, bound, ok in (
            ("batch_size", ">= 1", self.batch_size >= 1), ("lr_peak", "> 0", self.lr_peak > 0),
            ("warmup_steps", ">= 0", self.warmup_steps >= 0), ("clip_norm", ">= 0", self.clip_norm >= 0),
        ):
            if not ok:
                raise TrainingError(f"{name} must be {bound}, got {getattr(self, name)}")


@dataclass(frozen=True)
class TrainSchedule:
    max_steps: int
    eval_every: int = 2000


@dataclass
class TrainingExample:
    input_seq: TokenSeq
    weights: AttentionWeights
    target: list[int]
    sampled_comment_indices: list[int]


@dataclass
class TrainState:
    params: ModelParams
    adam_m: dict[str, np.ndarray]
    adam_v: dict[str, np.ndarray]
    step: int
    rng: np.random.Generator
    variant: TaskVariant
    best_val_xent: float = math.inf
    best_checkpoint: str = ""
    last_train_loss: float = math.nan


def learning_rate(step: int, opt: OptimizerConfig) -> float:
    """Linear warmup to lr_peak, then inverse-square-root decay."""
    if step < 1:
        raise TrainingError("learning rate is defined for steps >= 1")
    warmup = max(opt.warmup_steps, 1)
    return opt.lr_peak * min(step / warmup, math.sqrt(warmup / step))


def sample_comment_indices(comment_weights: np.ndarray, n_comments: int, rng) -> list[int]:
    """Weighted sampling without replacement over comment indices (0-based).

    Draws proportionally to the weights while any positive-weight comment
    remains, then uniformly over the zero-weight rest.  Returns indices in
    thread order.
    """
    n = len(comment_weights)
    if n == 0:
        raise TrainingError("cannot sample from a thread with no comments")
    take = min(n_comments, n)
    pool = list(range(n))
    chosen: list[int] = []
    for _ in range(take):
        w = np.asarray([comment_weights[i] for i in pool], dtype=np.float64)
        total = w.sum()
        probs = w / total if total > 0 else np.full(len(pool), 1.0 / len(pool))
        probs = probs / probs.sum()
        # the draw rng.choice(len(pool), p=probs) makes, without its per-call checks
        cdf = np.cumsum(probs)
        cdf /= cdf[-1]
        pick = int(np.searchsorted(cdf, rng.random(), side="right"))
        chosen.append(pool.pop(pick))
    return sorted(chosen)


def sample_target(
    thread: CleanThread,
    weights: AttentionWeights,
    variant: TaskVariant,
    vocab: Vocab,
    rng,
    max_len: int = 512,
) -> TrainingExample:
    """Build one fresh training example for the thread.

    Target layout: [BOS] title [SEP] comment ([SEP] comment ...) [EOS], the
    title block omitted for variants that do not predict it.
    """
    if not thread.comments:
        raise TrainingError(f"thread {thread.id!r} has no comments")
    indices = sample_comment_indices(np.asarray(weights.weights[1:]), variant.n_comments, rng)

    parts: list[list[int]] = []
    if variant.include_title:
        parts.append(encode(vocab, [thread.title], max_len=max_len).ids)
    for i in indices:
        parts.append(encode(vocab, [thread.comments[i].text], max_len=max_len).ids)
    target: list[int] = [BOS]
    for j, part in enumerate(parts):
        if j > 0:
            target.append(SEP)
        target.extend(part)
    target.append(EOS)
    if len(target) > max_len:
        target = target[: max_len - 1] + [EOS]

    input_seq = encode(vocab, thread.texts, max_len=max_len)
    return TrainingExample(
        input_seq=input_seq,
        weights=weights,
        target=target,
        sampled_comment_indices=indices,
    )


def token_chunks(items, n_tokens):
    """Group items, in order, into lists of consecutive items whose
    n_tokens(item) sum to at most CHUNK_TOKENS; an item above the budget gets
    a list of its own.  Lazy: a list is yielded once the next item is known
    not to fit, or the items run out."""
    chunk, total = [], 0
    for item in items:
        n = n_tokens(item)
        if chunk and total + n > CHUNK_TOKENS:
            yield chunk
            chunk, total = [], 0
        chunk.append(item)
        total += n
    if chunk:
        yield chunk


def _adam_update(state: TrainState, grads: dict[str, np.ndarray], opt: OptimizerConfig) -> None:
    """One Adam step on the clipped gradient.  A non-finite gradient norm
    raises NumericsError before any parameter or moment changes.

    Consumes grads: clipping scales its arrays in place, and each one is
    then the scratch space of its tensor's update.  Every expression keeps
    the operation order of the plain form, m += (1 - b1) g, v += (1 - b2) g g,
    tensor -= lr (m / bias1) / (sqrt(v / bias2) + eps), with moments of the
    parameters' dtype, so the result is the plain form's bit for bit."""
    sq = 0.0
    for g in grads.values():
        sq += float(np.sum(g.astype(np.float64) ** 2))
    norm = math.sqrt(sq)
    if not math.isfinite(norm):
        bad = next((k for k, g in grads.items() if not np.all(np.isfinite(g))), None)
        raise NumericsError(f"non-finite gradient in tensor '{bad}'" if bad else "gradient norm overflows")
    if 0 < opt.clip_norm < norm:
        scale = opt.clip_norm / norm
        for g in grads.values():
            g *= scale
    t = state.step
    lr = learning_rate(t, opt)
    bias1 = 1.0 - ADAM_BETA1**t
    bias2 = 1.0 - ADAM_BETA2**t
    for name, tensor in state.params.tensors.items():
        g = grads[name]
        m = state.adam_m[name]
        v = state.adam_v[name]
        m *= ADAM_BETA1
        v *= ADAM_BETA2
        tmp = (1.0 - ADAM_BETA2) * g
        tmp *= g
        v += tmp
        g *= 1.0 - ADAM_BETA1
        m += g
        np.divide(v, bias2, out=tmp)
        np.sqrt(tmp, out=tmp)
        tmp += ADAM_EPS
        np.divide(m, bias1, out=g)
        g /= tmp
        g *= lr
        tensor -= g


def _zeros_like_params(params: ModelParams) -> dict[str, np.ndarray]:
    return {k: np.zeros_like(v) for k, v in params.tensors.items()}


def new_state(config: ModelConfig, variant: TaskVariant, seed: int) -> TrainState:
    params = init_params(config, seed=seed)
    return TrainState(
        params=params,
        adam_m=_zeros_like_params(params),
        adam_v=_zeros_like_params(params),
        step=0,
        rng=np.random.default_rng(seed),
        variant=variant,
    )


def save_checkpoint(state: TrainState, path, vocab_sha: str) -> None:
    header = {
        "kind": "threadsum-checkpoint",
        "config": asdict(state.params.config),
        "variant": state.variant.id,
        "step": state.step,
        "rng_state": state.rng.bit_generator.state,
        "best_val_xent": None if math.isinf(state.best_val_xent) else state.best_val_xent,
        "best_checkpoint": state.best_checkpoint,
        "last_train_loss": None if math.isnan(state.last_train_loss) else state.last_train_loss,
        "vocab_sha256": vocab_sha,
    }
    tensors = dict(state.params.tensors)
    for name, m in state.adam_m.items():
        tensors[f"adam.m.{name}"] = m
    for name, v in state.adam_v.items():
        tensors[f"adam.v.{name}"] = v
    write_tensors(path, header, tensors)


# the header keys load_checkpoint reads without a default
_HEADER_KEYS = ("config", "step", "variant", "rng_state", "vocab_sha256")


def load_checkpoint(path, expected_vocab_sha: str | None = None) -> TrainState:
    header, tensors = read_tensors(path)
    if header.get("kind") != "threadsum-checkpoint":
        raise CheckpointError("not a threadsum checkpoint")
    for key in _HEADER_KEYS:
        if key not in header:
            raise CheckpointError(f"checkpoint header has no '{key}'")
    config = header["config"]
    if not isinstance(config, dict):
        raise CheckpointError(f"checkpoint config is a {type(config).__name__}, not an object")
    names = {field.name for field in fields(ModelConfig)}
    unknown, absent = sorted(config.keys() - names), sorted(names - config.keys())
    if unknown:
        raise CheckpointError(f"checkpoint config has unknown key '{unknown[0]}'")
    if absent:  # ModelConfig would fill it with the field's default
        raise CheckpointError(f"checkpoint config has no '{absent[0]}'")
    if expected_vocab_sha is not None and header["vocab_sha256"] != expected_vocab_sha:
        raise CheckpointError(
            "vocab hash mismatch: checkpoint was trained with a different vocabulary "
            f"({header['vocab_sha256'][:12]}... != {expected_vocab_sha[:12]}...)"
        )
    config = ModelConfig(**config)
    params = {}
    adam_m = {}
    adam_v = {}
    for name, tensor in tensors.items():
        if name.startswith("adam.m."):
            adam_m[name[len("adam.m."):]] = tensor
        elif name.startswith("adam.v."):
            adam_v[name[len("adam.v."):]] = tensor
        else:
            params[name] = tensor
    rng = np.random.default_rng(0)
    rng.bit_generator.state = header["rng_state"]
    best = header.get("best_val_xent")
    last = header.get("last_train_loss")
    return TrainState(
        params=ModelParams(config=config, tensors=params),
        adam_m=adam_m,
        adam_v=adam_v,
        step=int(header["step"]),
        rng=rng,
        variant=get_variant(int(header["variant"])),
        best_val_xent=math.inf if best is None else float(best),
        best_checkpoint=header.get("best_checkpoint", ""),
        last_train_loss=math.nan if last is None else float(last),
    )


def train(
    corpus: list[CleanThread],
    vocab: Vocab,
    variant: TaskVariant,
    config: ModelConfig,
    opt: OptimizerConfig,
    schedule: TrainSchedule,
    seed: int = 0,
    val_corpus: list[CleanThread] | None = None,
    out_dir=None,
    decode_config=None,
    vocab_sha: str = "",
    initial_state: TrainState | None = None,
    log_every: int = 0,
) -> TrainState:
    """Run the optimization loop up to schedule.max_steps (absolute).

    Targets are re-sampled fresh every step; the attention encoding is
    disabled in the loss when the variant calls for it.  Every eval_every
    steps a checkpoint is written to out_dir and, when a validation fold is
    given, scored by XENT(Rouge) to track the best checkpoint.  Fully
    deterministic given the seed.  An initial_state must hold the given
    variant and config.
    """
    from threadsum.decoding import DecodeConfig

    if not corpus:
        raise TrainingError("training corpus is empty")
    if initial_state is not None:
        _check_state_matches(initial_state, variant, config)
    state = initial_state if initial_state is not None else new_state(config, variant, seed)
    decode_config = decode_config or DecodeConfig()
    metrics_path = os.path.join(out_dir, "metrics.jsonl") if out_dir else None
    last_checkpoint: str | None = None

    while state.step < schedule.max_steps:
        state.step += 1
        idxs = state.rng.integers(0, len(corpus), size=opt.batch_size)

        def sampled():
            """Each example with its dropout keep masks, drawn right after it."""
            for i in idxs:
                thread = corpus[int(i)]
                example = sample_target(
                    thread, attention_weights(thread), variant, vocab, state.rng, config.max_len
                )
                n_input, n_target = len(example.input_seq.ids), len(example.target)
                yield example, dropout_keep(config, state.rng, n_input, n_target) if config.dropout > 0 else None

        batch_loss = 0.0
        grads: dict[str, np.ndarray] = {}  # the step's one gradient buffer
        try:
            for chunk in token_chunks(sampled(), lambda pair: len(pair[0].input_seq.ids) + len(pair[0].target)):
                examples = [example for example, _ in chunk]
                loss, grads = forward_loss(
                    state.params,
                    [example.input_seq for example in examples],
                    [example.weights for example in examples],
                    [example.target for example in examples],
                    disable_attention=not variant.attention_encoding,
                    rng=[keep for _, keep in chunk] if config.dropout > 0 else None,
                    grads=grads,
                )
                batch_loss += loss
            scale = 1.0 / opt.batch_size
            for g in grads.values():
                g *= scale
            _adam_update(state, grads, opt)
            state.last_train_loss = batch_loss / opt.batch_size
        except NumericsError as exc:
            raise TrainingDiverged(
                f"training diverged at step {state.step}: {exc}", last_checkpoint
            ) from exc

        if log_every and state.step % log_every == 0:
            print(f"step {state.step}: loss {state.last_train_loss:.4f}")

        if schedule.eval_every > 0 and state.step % schedule.eval_every == 0 and out_dir:
            last_checkpoint = _checkpoint_and_eval(
                state, out_dir, vocab, vocab_sha, val_corpus, decode_config, metrics_path
            )
    return state


def _check_state_matches(state: TrainState, variant: TaskVariant, config: ModelConfig) -> None:
    """Sampling follows the variant and config arguments while checkpoints
    record the state's, so the two must agree."""
    if state.variant != variant:
        raise TrainingError(f"initial_state holds variant {state.variant.id}, but variant {variant.id} was given")
    for field in fields(ModelConfig):
        held, given = getattr(state.params.config, field.name), getattr(config, field.name)
        if held != given:
            raise TrainingError(f"initial_state's model config has {field.name}={held}, but config has {field.name}={given}")


def _checkpoint_and_eval(
    state, out_dir, vocab, vocab_sha, val_corpus, decode_config, metrics_path
) -> str:
    from threadsum.evaluation import evaluate_fold

    os.makedirs(out_dir, exist_ok=True)
    name = f"step{state.step:08d}.tsck"
    path = os.path.join(out_dir, name)
    val_xent = math.nan
    val_recall = math.nan
    if val_corpus:
        _, aggregates, _ = evaluate_fold(state, val_corpus, decode_config, vocab)
        val_xent = aggregates["xent"]
        val_recall = aggregates["recall_w"]
        if val_xent < state.best_val_xent:
            state.best_val_xent = val_xent
            state.best_checkpoint = name
    else:
        state.best_checkpoint = name  # no validation fold: latest is retained
    save_checkpoint(state, path, vocab_sha)
    if metrics_path:
        record = {
            "step": state.step,
            "train_loss": round(state.last_train_loss, 6),
            "val_xent": None if math.isnan(val_xent) else round(val_xent, 6),
            "val_recall_w": None if math.isnan(val_recall) else round(val_recall, 6),
            "checkpoint_path": name,
        }
        with open(metrics_path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    return path
