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
holds a second full gradient set; the step scales that dict by 1/batch.
The result is bit for bit that of summing per-chunk dicts.  Adam then
updates flat buffers of the parameters and moments (_adam_update).

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

import bisect
import ctypes
import functools
import itertools
import math
import json
import operator
import os
import typing
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from threadsum import layers
from threadsum.checkpoint import CheckpointError, read_tensors, write_tensors
from threadsum.corpus import CleanThread
from threadsum.model import (
    AttentionWeights,
    ModelConfig,
    ModelError,
    ModelParams,
    NumericsError,
    attention_weights,
    dropout_keep,
    forward_loss,
    init_params,
    param_layout,
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
    eval_every: int = 2000  # 0 writes no checkpoint

    def __post_init__(self):
        for name in ("max_steps", "eval_every"):
            if getattr(self, name) < 0:
                raise TrainingError(f"{name} must be >= 0, got {getattr(self, name)}")


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
    # the views of the flat buffers (_flat_buffers) that params, adam_m and adam_v held when they were made
    flat_views: tuple = field(default=(), repr=False, compare=False)


def learning_rate(step: int, opt: OptimizerConfig) -> float:
    """Linear warmup to lr_peak, then inverse-square-root decay."""
    if step < 1:
        raise TrainingError("learning rate is defined for steps >= 1")
    warmup = max(opt.warmup_steps, 1)
    return opt.lr_peak * min(step / warmup, math.sqrt(warmup / step))


def _float64_sum(values: list[float]) -> float:
    """np.add.reduce of a float64 array of the values, in Python floats:
    one running sum below 8 values, numpy's 8-lane pairwise sum above."""
    n = len(values)
    if n < 8:
        total = 0.0
        for x in values:
            total += x
        return total
    if n > 128:  # numpy splits at half the length, rounded down to a multiple of 8
        half = n // 2 - n // 2 % 8
        return _float64_sum(values[:half]) + _float64_sum(values[half:])
    lanes = values[:8]
    tail = n - n % 8
    for i in range(8, tail, 8):
        for j in range(8):
            lanes[j] += values[i + j]
    total = ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3])) + ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]))
    for x in values[tail:]:
        total += x
    return total


def sample_comment_indices(comment_weights: np.ndarray, n_comments: int, rng) -> list[int]:
    """Weighted sampling without replacement over comment indices (0-based).

    Draws proportionally to the weights while any positive-weight comment
    remains, then uniformly over the zero-weight rest.  Returns indices in
    thread order.

    Each draw is the one rng.choice(len(pool), p=probs) makes, computed in
    Python floats: the float64 sums, cumulative sum and divisions numpy
    would do, in numpy's order, and a bisection for its searchsorted.
    """
    n = len(comment_weights)
    if n == 0:
        raise TrainingError("cannot sample from a thread with no comments")
    weights = np.asarray(comment_weights, dtype=np.float64).tolist()
    pool = list(range(n))
    chosen: list[int] = []
    for _ in range(min(n_comments, n)):
        w = [weights[i] for i in pool]
        total = _float64_sum(w)
        probs = [x / total for x in w] if total > 0 else [1.0 / len(pool)] * len(pool)
        norm = _float64_sum(probs)
        cdf = list(itertools.accumulate(p / norm for p in probs))
        last = cdf[-1]
        pick = bisect.bisect_right([c / last for c in cdf], rng.random())
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


@functools.cache
def _flat_slices(config: ModelConfig) -> dict[str, slice]:
    """Each tensor's slice of a flat buffer that holds param_layout's
    tensors in its order."""
    slices, end = {}, 0
    for name, (shape, _) in param_layout(config).items():
        slices[name] = slice(end, end + math.prod(shape))
        end = slices[name].stop
    return slices


def _flat_buffers(state: TrainState) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The flat buffers of state's parameters and Adam moments, of which
    every tensor of state.params.tensors, adam_m and adam_v is a view.

    Made by new_state, and made again by the first step whose state's
    tensors are not the views made then: after copy.deepcopy (whose copies
    are views of nothing) or load_checkpoint, or once a tensor is replaced.
    Making them copies each group into a new buffer and puts views of it in
    its dict, one group at a time, so the old tensors are freed group by
    group.  The state keeps only the views, so a deep copy of it copies
    each tensor once."""
    groups = (state.params.tensors, state.adam_m, state.adam_v)
    buffers = tuple(views[0].base for views in state.flat_views)
    if len(buffers) == len(groups) and all(
        buffer is not None and len(group) == len(views) and all(map(operator.is_, group.values(), views))
        and all(view.base is buffer for view in views)
        for group, buffer, views in zip(groups, buffers, state.flat_views)
    ):
        return buffers
    slices = _flat_slices(state.params.config)
    buffers = []
    for group in groups:
        buffer = np.concatenate([group[name].reshape(-1) for name in slices])
        for name, part in slices.items():
            group[name] = buffer[part].reshape(group[name].shape)
        buffers.append(buffer)
    state.flat_views = tuple(tuple(group.values()) for group in groups)
    return tuple(buffers)


def _adam_update(state: TrainState, grads: dict[str, np.ndarray], opt: OptimizerConfig) -> None:
    """One Adam step on the clipped gradient.  A non-finite gradient norm
    raises NumericsError before any parameter or moment changes.

    Works on the flat buffers of _flat_buffers: the step's gradients are
    copied into one more flat buffer, which clipping scales in place and
    the update then uses as scratch, a tile of layers._TILE_BYTES at a time
    so that a tile's five arrays stay in cache.  The norm sums each tensor's
    float64 squares with one np.add.reduce, adding the sums in grads' order.
    Every expression keeps the operation order of the plain form,
    m += (1 - b1) g, v += (1 - b2) g g,
    tensor -= lr (m / bias1) / (sqrt(v / bias2) + eps), with moments of the
    parameters' dtype, so the result is the plain form's bit for bit."""
    slices = _flat_slices(state.params.config)
    g = np.concatenate([grads[name].reshape(-1) for name in slices])
    sq = 0.0
    for name in grads:
        sq += float(np.add.reduce(np.square(g[slices[name]], dtype=np.float64)))
    norm = math.sqrt(sq)
    if not math.isfinite(norm):
        bad = next((k for k, grad in grads.items() if not np.all(np.isfinite(grad))), None)
        raise NumericsError(f"non-finite gradient in tensor '{bad}'" if bad else "gradient norm overflows")
    if 0 < opt.clip_norm < norm:
        g *= opt.clip_norm / norm
    params, m, v = _flat_buffers(state)
    t = state.step
    lr = learning_rate(t, opt)
    bias1 = 1.0 - ADAM_BETA1**t
    bias2 = 1.0 - ADAM_BETA2**t
    tile = max(1, layers._TILE_BYTES // g.itemsize)
    scratch = np.empty(min(tile, len(g)), dtype=g.dtype)
    for start in range(0, len(g), tile):
        part = slice(start, start + tile)
        p_t, m_t, v_t, g_t = params[part], m[part], v[part], g[part]
        tmp = scratch[: len(g_t)]
        m_t *= ADAM_BETA1
        v_t *= ADAM_BETA2
        np.multiply(g_t, 1.0 - ADAM_BETA2, out=tmp)
        tmp *= g_t
        v_t += tmp
        g_t *= 1.0 - ADAM_BETA1
        m_t += g_t
        np.divide(v_t, bias2, out=tmp)
        np.sqrt(tmp, out=tmp)
        tmp += ADAM_EPS
        np.divide(m_t, bias1, out=g_t)
        g_t /= tmp
        g_t *= lr
        p_t -= g_t


def _zeros_like_params(params: ModelParams) -> dict[str, np.ndarray]:
    return {k: np.zeros_like(v) for k, v in params.tensors.items()}


def new_state(config: ModelConfig, variant: TaskVariant, seed: int) -> TrainState:
    params = init_params(config, seed=seed)
    state = TrainState(
        params=params,
        adam_m=_zeros_like_params(params),
        adam_v=_zeros_like_params(params),
        step=0,
        rng=np.random.default_rng(seed),
        variant=variant,
    )
    _flat_buffers(state)
    return state


_TENSOR_PREFIXES = ("", "adam.m.", "adam.v.")  # a checkpoint names each parameter, then its Adam moments


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
    groups = (state.params.tensors, state.adam_m, state.adam_v)
    tensors = {prefix + name: t for prefix, group in zip(_TENSOR_PREFIXES, groups) for name, t in group.items()}
    write_tensors(path, header, tensors)


# the header keys load_checkpoint reads without a default
_HEADER_KEYS = ("config", "step", "variant", "rng_state", "vocab_sha256")


def _is_int(value) -> bool:
    return type(value) is int  # a JSON true or false loads as a bool


def _is_number(value) -> bool:
    return type(value) in (int, float)


def _header_value(header: dict, key: str, ok, expected: str, default=None):
    """header[key] (default when absent), refused unless ok(value)."""
    value = header.get(key, default)
    if not ok(value):
        raise CheckpointError(f"checkpoint header '{key}' must be {expected}, got {value!r}")
    return value


def _checkpoint_config(config) -> ModelConfig:
    if not isinstance(config, dict):
        raise CheckpointError(f"checkpoint config is a {type(config).__name__}, not an object")
    types = typing.get_type_hints(ModelConfig)
    unknown, absent = sorted(config.keys() - types.keys()), sorted(types.keys() - config.keys())
    if unknown:
        raise CheckpointError(f"checkpoint config has unknown key '{unknown[0]}'")
    if absent:  # ModelConfig would fill it with the field's default
        raise CheckpointError(f"checkpoint config has no '{absent[0]}'")
    for name, value in config.items():
        if not (_is_int(value) if types[name] is int else _is_number(value)):
            raise CheckpointError(f"checkpoint config '{name}' must be {types[name].__name__}, got {value!r}")
    try:
        return ModelConfig(**config)
    except ModelError as exc:
        raise CheckpointError(f"checkpoint config: {exc}") from exc


def _checkpoint_rng(state) -> np.random.Generator:
    """A generator in the header's state, which must be exactly one that
    numpy's PCG64 reports (numpy itself accepts extra keys and floats)."""
    rng = np.random.default_rng(0)
    try:
        rng.bit_generator.state = state
    except (TypeError, ValueError, KeyError, OverflowError) as exc:
        raise CheckpointError(f"checkpoint header 'rng_state' is malformed: {exc}") from exc
    if json.dumps(rng.bit_generator.state, sort_keys=True) != json.dumps(state, sort_keys=True):
        raise CheckpointError("checkpoint header 'rng_state' is malformed: it is not a PCG64 state")
    return rng


def load_checkpoint(path, expected_vocab_sha: str | None = None) -> TrainState:
    header, tensors = read_tensors(path)
    if header.get("kind") != "threadsum-checkpoint":
        raise CheckpointError("not a threadsum checkpoint")
    for key in _HEADER_KEYS:
        if key not in header:
            raise CheckpointError(f"checkpoint header has no '{key}'")
    config = _checkpoint_config(header["config"])
    step = _header_value(header, "step", lambda v: _is_int(v) and v >= 0, "an int >= 0")
    variant = _header_value(header, "variant", lambda v: _is_int(v) and v in VARIANTS, "a variant id 1..8")
    vocab_sha = _header_value(header, "vocab_sha256", lambda v: isinstance(v, str), "a string")
    best = _header_value(header, "best_val_xent", lambda v: v is None or _is_number(v), "a number or null")
    best_checkpoint = _header_value(header, "best_checkpoint", lambda v: isinstance(v, str), "a string", default="")
    last = _header_value(header, "last_train_loss", lambda v: v is None or _is_number(v), "a number or null")
    rng = _checkpoint_rng(header["rng_state"])
    if expected_vocab_sha is not None and vocab_sha != expected_vocab_sha:
        raise CheckpointError(
            "vocab hash mismatch: checkpoint was trained with a different vocabulary "
            f"({vocab_sha[:12]}... != {expected_vocab_sha[:12]}...)"
        )
    # each parameter and its moments by name, in param_layout's order: the first tensor missing,
    # misshapen, not in tok_emb's float dtype or not finite is refused, then any left over
    dtype = tensors["tok_emb"].dtype if "tok_emb" in tensors else None
    groups = {prefix: {} for prefix in _TENSOR_PREFIXES}
    for name, (shape, _) in param_layout(config).items():
        for prefix, group in groups.items():
            key = prefix + name
            tensor = tensors.pop(key, None)
            if tensor is None:
                raise CheckpointError(f"checkpoint has no tensor '{key}'")
            if tensor.shape != shape:
                raise CheckpointError(f"checkpoint tensor '{key}' has shape {tensor.shape}, not {shape}")
            if tensor.dtype != dtype or dtype.kind != "f":
                raise CheckpointError(f"checkpoint tensor '{key}' is {tensor.dtype}; all must share tok_emb's float dtype")
            if not np.isfinite(tensor).all():
                raise CheckpointError(f"checkpoint tensor '{key}' holds a non-finite value")
            group[name] = tensor
    if tensors:
        raise CheckpointError(f"checkpoint tensor '{next(iter(tensors))}' is not in the model's layout")
    params, adam_m, adam_v = groups.values()
    return TrainState(
        params=ModelParams(config=config, tensors=params),
        adam_m=adam_m,
        adam_v=adam_v,
        step=step,
        rng=rng,
        variant=VARIANTS[variant],
        best_val_xent=math.inf if best is None else float(best),
        best_checkpoint=best_checkpoint,
        last_train_loss=math.nan if last is None else float(last),
    )


# glibc's mallopt parameters (malloc.h), and the values train() gives them:
# the largest mmap threshold glibc's dynamic policy picks on 64-bit, and
# that policy's trim threshold of twice it
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD_BYTES = 32 << 20
_TRIM_THRESHOLD_BYTES = 64 << 20


@functools.cache
def _keep_freed_memory_mapped() -> None:
    """Fix glibc's mmap and trim thresholds, once per process (see train).
    Setting either one turns glibc's dynamic policy off, so both are set."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):  # no C library to load, or not glibc
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD_BYTES)


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

    Training memory: the first call in a process sets glibc's allocator
    thresholds through mallopt, M_MMAP_THRESHOLD to 32 MiB and
    M_TRIM_THRESHOLD to 64 MiB, and they hold for the whole process from
    then on.  glibc's dynamic policy trims the heap above twice the largest
    block freed so far (about 1.7 MB on the directional config), less than
    the ~4 MB a step frees, so every step would hand its heap top back to
    the kernel and fault it in again (about 1,000 minor page faults a
    step).  With the fixed thresholds the freed memory stays mapped for the
    next step; `resource.getrusage(resource.RUSAGE_SELF).ru_minflt` read
    before and after a run of steps shows the faults per step.  Where the C
    library is not glibc the call does nothing.  Numerics do not change.
    """
    from threadsum.decoding import DecodeConfig

    _keep_freed_memory_mapped()
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
