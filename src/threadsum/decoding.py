"""Beam-search generation with repeated n-gram blocking.

Hypotheses are scored by their summed log probability normalized with the
((5 + len) / 6) ** alpha length penalty.  A candidate token that would
complete an n-gram already present in its hypothesis gets probability zero
before top-k selection, so no returned hypothesis repeats an n-gram of the
blocked size.  With beam_size 1 the search degenerates to greedy decoding.

One search loop serves both entry points and asks for the distributions of
all live hypotheses at once.  beam_search drives the model's
IncrementalDecoder, which advances every live hypothesis by one position
per step from cached keys and values; beam_search_fn calls an arbitrary
per-prefix distribution function once per live hypothesis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from threadsum.corpus import CleanThread
from threadsum.model import (  # decode_step: the full-prefix reference, importable from here
    AttentionWeights,
    IncrementalDecoder,
    ModelParams,
    attention_weights,
    decode_step,
    encode_thread,
)
from threadsum.tokenizer import BOS, EOS, SEP, Vocab, decode, encode

if TYPE_CHECKING:
    from threadsum.training import TrainState


class DecodeError(ValueError):
    """Raised for invalid decoding configuration."""


@dataclass(frozen=True)
class Hypothesis:
    ids: tuple[int, ...]
    log_prob: float
    finished: bool

    def n_generated(self) -> int:
        return len(self.ids) - 1  # everything after [BOS]


@dataclass(frozen=True)
class DecodeConfig:
    beam_size: int = 5
    block_ngram: int = 3
    max_out_len: int = 64
    length_penalty_alpha: float = 0.6

    def __post_init__(self):
        if self.beam_size < 1:
            raise DecodeError("beam_size must be >= 1")
        if self.block_ngram != 0 and self.block_ngram < 2:
            raise DecodeError("block_ngram must be 0 (disabled) or >= 2")
        if self.max_out_len < 1:
            raise DecodeError("max_out_len must be >= 1")
        if self.length_penalty_alpha < 0:
            raise DecodeError("length_penalty_alpha must be >= 0")


def length_penalty(n_generated: int, alpha: float) -> float:
    return ((5.0 + n_generated) / 6.0) ** alpha


def normalized_score(hyp: Hypothesis, alpha: float) -> float:
    return hyp.log_prob / length_penalty(hyp.n_generated(), alpha)


def blocked_tokens(ids: tuple[int, ...], k: int) -> set[int]:
    """Tokens that would complete a k-gram already occurring in ids."""
    if k == 0 or len(ids) < k - 1:
        return set()
    seen = {tuple(ids[i : i + k]) for i in range(len(ids) - k + 1)}
    tail = tuple(ids[-(k - 1):]) if k > 1 else ()
    return {gram[-1] for gram in seen if gram[:-1] == tail}


def beam_search_fn(
    step_fn: Callable[[list[int]], np.ndarray],
    cfg: DecodeConfig,
    vocab_size: int,
    trace: list | None = None,
) -> list[Hypothesis]:
    """Run beam search over an arbitrary next-token distribution function.

    Returns all finished hypotheses ranked by normalized score, best first;
    hypotheses cut off at max_out_len are marked finished without [EOS].
    """

    def step_all(prefixes):
        return np.stack([np.asarray(step_fn(list(p)), dtype=np.float64) for p in prefixes])

    return _search(step_all, cfg, vocab_size, trace)


def _search(
    step_all: Callable[[list[tuple[int, ...]]], np.ndarray],
    cfg: DecodeConfig,
    vocab_size: int,
    trace: list | None,
) -> list[Hypothesis]:
    """The search loop; step_all maps the live prefixes of one step to a
    fresh (n_live, vocab_size) array of next-token distributions."""
    alpha = cfg.length_penalty_alpha
    live = [Hypothesis(ids=(BOS,), log_prob=0.0, finished=False)]
    finished: list[Hypothesis] = []
    lp_max = length_penalty(cfg.max_out_len, alpha)
    k_top = min(vocab_size, cfg.beam_size)
    token_ids = np.arange(vocab_size)

    for _ in range(cfg.max_out_len):
        probs = step_all([hyp.ids for hyp in live])
        if cfg.block_ngram:
            for row, hyp in zip(probs, live):
                banned = blocked_tokens(hyp.ids, cfg.block_ngram)
                if banned:
                    row[list(banned)] = 0.0
        with np.errstate(divide="ignore"):
            logp = np.log(probs)
        candidates = []
        for hyp, row in zip(live, logp):
            for token in np.lexsort((token_ids, -row))[:k_top]:
                candidates.append(
                    Hypothesis(
                        ids=hyp.ids + (int(token),),
                        log_prob=hyp.log_prob + float(row[token]),
                        finished=int(token) == EOS,
                    )
                )
        candidates.sort(key=lambda h: (-normalized_score(h, alpha), h.ids))
        live = []
        for cand in candidates:
            if cand.log_prob == -np.inf:
                continue
            if cand.finished:
                finished.append(cand)
            elif len(live) < cfg.beam_size:
                live.append(cand)
        if trace is not None and finished:
            trace.append(max(normalized_score(h, alpha) for h in finished))
        if not live:
            break
        if len(finished) >= cfg.beam_size:
            kept = sorted(finished, key=lambda h: (-normalized_score(h, alpha), h.ids))
            worst_kept = normalized_score(kept[cfg.beam_size - 1], alpha)
            best_possible = max(h.log_prob / lp_max if h.log_prob < 0 else 0.0 for h in live)
            if best_possible <= worst_kept:
                break
    for hyp in live:  # ran out of length budget
        finished.append(Hypothesis(ids=hyp.ids, log_prob=hyp.log_prob, finished=True))
    finished.sort(key=lambda h: (-normalized_score(h, alpha), h.ids))
    return finished if finished else [Hypothesis(ids=(BOS,), log_prob=0.0, finished=True)]


def beam_search(params: ModelParams, enc_att: np.ndarray, cfg: DecodeConfig) -> list[Hypothesis]:
    """Beam search over the trained decoder for one encoded thread."""
    if enc_att.shape[0] == 0:
        raise DecodeError("enc_att must be non-empty")
    budget = min(cfg.max_out_len, params.config.max_len - 1)
    if budget != cfg.max_out_len:
        cfg = DecodeConfig(cfg.beam_size, cfg.block_ngram, budget, cfg.length_penalty_alpha)
    decoder = IncrementalDecoder(params, enc_att)
    return _search(decoder.step, cfg, params.config.vocab_size, trace=None)


def summarize(
    state: "TrainState",
    vocab: Vocab,
    thread: CleanThread,
    cfg: DecodeConfig,
    provide_likes: bool = False,
) -> dict:
    """Generate and split the summary for one thread.

    At test time likes are withheld: every text gets weight one unless
    provide_likes is set.  The top hypothesis is split at [SEP]; for
    title-producing variants the first segment is the title part.
    """
    params = state.params
    variant = state.variant
    texts = [thread.title] + [c.text for c in thread.comments]
    seq = encode(vocab, texts, max_len=params.config.max_len)
    if provide_likes:
        weights = attention_weights(thread)
    else:
        weights = AttentionWeights(weights=np.ones(len(thread.comments) + 1))
    encoded = encode_thread(
        params, seq, weights, disable_attention=not variant.attention_encoding
    )
    best = beam_search(params, encoded.enc_att, cfg)[0]

    body = [t for t in best.ids if t not in (BOS, EOS)]
    segments: list[list[int]] = [[]]
    for token in body:
        if token == SEP:
            segments.append([])
        else:
            segments[-1].append(token)
    decoded = [decode(vocab, seg) for seg in segments]
    if variant.include_title and len(decoded) > 1:
        title_part, comment_parts = decoded[0], decoded[1:]
    else:
        title_part, comment_parts = "", decoded
    return {
        "thread_id": thread.id,
        "title_part": title_part,
        "comment_parts": comment_parts,
        "raw": decode(vocab, body),
        "variant": variant.id,
    }
