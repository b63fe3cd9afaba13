"""Beam-search generation with repeated n-gram blocking.

Hypotheses are scored by their summed log probability normalized with the
((5 + len) / 6) ** alpha length penalty.  A candidate token that would
complete an n-gram already present in its hypothesis gets probability zero
before top-k selection, so no returned hypothesis repeats an n-gram of the
blocked size.  With beam_size 1 the search degenerates to greedy decoding.

One search loop, _search, serves both entry points.  It owns the beam
tree: the live beam is an (n_live, length) id matrix and a vector of
summed log probabilities, and each step it asks for the distributions of
all rows at once, passing the matrix and each row's parent, its row in the
previous step's matrix.  beam_search drives the model's
IncrementalDecoder, which advances every row by one position from cached
keys and values; beam_search_fn calls an arbitrary per-prefix
distribution function once per row.  blocked_pairs finds the blocked
tokens of all rows at once; blocked_tokens, its per-hypothesis reference,
is kept for the tests.  Rankings, ties included, equal those of the
list-based loop that tests/test_decoding.py keeps as reference_search.
"""

from __future__ import annotations

import dataclasses
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
    """Raised for an invalid decoding configuration or next-token distribution."""


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
        if not 0 <= self.length_penalty_alpha < np.inf:  # a NaN fails both comparisons
            raise DecodeError(f"length_penalty_alpha must be finite and >= 0, got {self.length_penalty_alpha}")


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

    def step_all(ids, parents):
        return np.stack([np.asarray(step_fn(row), dtype=np.float64) for row in ids.tolist()])

    return _search(step_all, cfg, vocab_size, trace)


def blocked_pairs(ids: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """blocked_tokens for every row of an (n, length) id matrix at once:
    returns (rows, tokens) such that tokens[i] would complete a k-gram that
    already occurs in row rows[i]."""
    length = ids.shape[1]
    windows = length - k + 1  # k-gram start positions per row
    if k == 0 or windows <= 0:
        return np.zeros(0, dtype=np.intp), np.zeros(0, dtype=ids.dtype)
    # a window matches when its first k-1 ids equal the row's last k-1 ids
    match = ids[:, :windows] == ids[:, windows, None]
    for j in range(1, k - 1):
        match &= ids[:, j : j + windows] == ids[:, windows + j, None]
    rows, starts = np.nonzero(match)
    return rows, ids[rows, starts + k - 1]


def _check_distributions(probs: np.ndarray, n_live: int, vocab_size: int) -> None:
    if probs.shape != (n_live, vocab_size):
        raise DecodeError(f"next-token distributions have shape {probs.shape}, expected ({n_live}, {vocab_size})")
    if not (probs.min() >= 0.0 and probs.max() < np.inf):
        bad = np.flatnonzero(~((probs >= 0.0) & (probs < np.inf)).all(axis=1))
        raise DecodeError(f"next-token distribution of live row {bad[0]} holds a NaN, negative or infinite entry")


def _search(
    step_all: Callable[[np.ndarray, np.ndarray], np.ndarray],
    cfg: DecodeConfig,
    vocab_size: int,
    trace: list | None,
) -> list[Hypothesis]:
    """The search loop; step_all(ids, parents) maps one step's live
    (n_live, length) int64 id matrix, whose row i extends row parents[i] of
    the previous step's ([[BOS]] and [0] on the first step), to an
    (n_live, vocab_size) array of next-token distributions.  Raises
    DecodeError for an array of another shape or a row holding a NaN,
    negative or infinite entry.

    Live rows are kept in rank order; only finished hypotheses become
    Hypothesis objects.  Each row contributes its k most likely tokens
    (k = min(beam_size, vocab_size), ties to the lower id), and candidates
    rank by (-normalized score, ids) as the sort of Hypothesis objects would.
    """
    alpha = cfg.length_penalty_alpha
    lp_max = length_penalty(cfg.max_out_len, alpha)
    k_top = min(vocab_size, cfg.beam_size)
    ids = np.full((1, 1), BOS, dtype=np.int64)
    parents = np.zeros(1, dtype=np.intp)
    live_lp = np.zeros(1)
    # each live row's rank among the live rows in lexicographic order of ids
    live_rank = np.zeros(1, dtype=np.int64)
    finished: list[Hypothesis] = []
    finished_scores: list[float] = []

    for _ in range(cfg.max_out_len):
        n_live, length = ids.shape
        probs = step_all(ids, parents)
        _check_distributions(probs, n_live, vocab_size)
        with np.errstate(divide="ignore"):
            cost = -np.log(probs)  # -log p; blocked and impossible tokens cost inf
        if cfg.block_ngram:
            cost[blocked_pairs(ids, cfg.block_ngram)] = np.inf

        # every entry at or below a row's k-th smallest cost, then the first
        # k per row in (cost, token) order
        threshold = np.partition(cost, k_top - 1, axis=1)[:, k_top - 1, None]
        rows, tokens = np.nonzero(cost <= threshold)
        row_cost = cost[rows, tokens]
        if len(rows) > n_live * k_top:  # ties at some row's threshold
            order = np.lexsort((tokens, row_cost, rows))
            rows, tokens, row_cost = rows[order], tokens[order], row_cost[order]
            first_k = (np.arange(len(rows)) - np.searchsorted(rows, rows)) < k_top
            rows, tokens, row_cost = rows[first_k], tokens[first_k], row_cost[first_k]

        cand_lp = live_lp[rows] - row_cost
        possible = cand_lp != -np.inf
        rows, tokens, cand_lp = rows[possible], tokens[possible], cand_lp[possible]
        score = cand_lp / length_penalty(length, alpha)
        # live ids are distinct and of one length, so (parent rank, token)
        # orders candidates as their id tuples do
        id_order = live_rank[rows] * vocab_size + tokens
        ranked = np.lexsort((id_order, -score))
        ends = tokens[ranked] == EOS
        for i in ranked[ends].tolist():
            finished.append(Hypothesis(tuple(ids[rows[i]].tolist()) + (EOS,), float(cand_lp[i]), True))
            finished_scores.append(float(score[i]))
        kept = ranked[~ends][: cfg.beam_size]
        parents = rows[kept]
        ids = np.concatenate((ids[parents], tokens[kept, None]), axis=1)
        live_lp = cand_lp[kept]
        live_rank = id_order[kept].argsort().argsort()  # id_order's values are distinct

        if trace is not None and finished_scores:
            trace.append(max(finished_scores))
        if not len(kept):
            break
        if len(finished_scores) >= cfg.beam_size:
            worst_kept = sorted(finished_scores, reverse=True)[cfg.beam_size - 1]
            best_lp = max(live_lp.tolist())  # dividing by lp_max > 0 keeps the order
            best_possible = best_lp / lp_max if best_lp < 0 else 0.0
            if best_possible <= worst_kept:
                break
    for row, lp in zip(ids.tolist(), live_lp.tolist()):  # ran out of length budget
        finished.append(Hypothesis(ids=tuple(row), log_prob=lp, finished=True))
    finished.sort(key=lambda h: (-normalized_score(h, alpha), h.ids))
    return finished if finished else [Hypothesis(ids=(BOS,), log_prob=0.0, finished=True)]


def beam_search(params: ModelParams, enc_att: np.ndarray, cfg: DecodeConfig) -> list[Hypothesis]:
    """Beam search over the trained decoder for one encoded thread."""
    if enc_att.shape[0] == 0:
        raise DecodeError("enc_att must be non-empty")
    budget = min(cfg.max_out_len, params.config.max_len - 1)
    if budget != cfg.max_out_len:
        cfg = dataclasses.replace(cfg, max_out_len=budget)
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
    seq = encode(vocab, thread.texts, max_len=params.config.max_len)
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
