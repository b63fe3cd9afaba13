"""Scoring generated summaries against the thread they summarize.

The headline metric is XENT(Rouge): the cross-entropy between the thread's
normalized likes distribution and the distribution of per-comment ROUGE
recall scores of the summary.  Lower is better; a summary whose lexical
overlap concentrates on the most-liked comments scores close to the
entropy of the likes distribution, which is the Gibbs lower bound.

Also here: likes-weighted average recall, title ROUGE, per-thread
characterization features with their quartile report, and the strict-JSON
line format of evaluate's reports.
"""

from __future__ import annotations

import dataclasses
import json
import math
import re
from collections import Counter
from dataclasses import dataclass

import numpy as np

from threadsum.corpus import CleanThread
from threadsum.decoding import DecodeError
from threadsum.model import ModelError
from threadsum.tokenizer import TokenizerError, Vocab

SMOOTH_EPS = 1e-3  # Laplace mass added to both distributions before normalizing

_NON_WORD = re.compile(r"[^\w\s]")


class MetricError(ValueError):
    """Raised when a metric is undefined for the given inputs."""


@dataclass(frozen=True)
class RougeScore:
    recall: float
    precision: float
    f1: float
    n: int


@dataclass(frozen=True)
class CharacterizationFeatures:
    thread_length: int
    salient_comment_length: int
    n_comments: int
    ld_thread: float
    ld_salient: float
    likes_std: float


@dataclass
class EvalReport:
    thread_id: str
    per_comment_rouge: list[float]
    likes_dist: list[float]
    rouge_dist: list[float]
    xent: float
    recall_w: float  # nan when the thread collected no likes at all
    title_rouge: float
    features: CharacterizationFeatures


def report_to_json(report: EvalReport) -> str:
    """One line of evaluate's reports.jsonl: strict JSON, with a nan
    recall_w written as null."""
    row = dataclasses.asdict(report)
    if math.isnan(row["recall_w"]):
        row["recall_w"] = None
    return json.dumps(row, ensure_ascii=False, sort_keys=True, allow_nan=False)


def load_reports(path) -> list[EvalReport]:
    """Read report_to_json lines back, a null recall_w as nan.  Blank lines
    are skipped; a malformed line raises MetricError carrying its 1-based
    line number."""
    reports = []
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                row = json.loads(line)
                row["features"] = CharacterizationFeatures(**row["features"])
                if row["recall_w"] is None:
                    row["recall_w"] = math.nan
                reports.append(EvalReport(**row))
            except (ValueError, TypeError, KeyError) as exc:
                raise MetricError(f"line {line_no}: malformed report ({exc})") from exc
    return reports


def rouge_tokens(text: str) -> list[str]:
    """ROUGE word tokenization: lowercase, punctuation stripped, whitespace split."""
    return _NON_WORD.sub(" ", text.lower()).split()


def _ngrams(tokens: list[str], n: int) -> Counter:
    """The multiset of a token list's n-grams."""
    if n < 1:
        raise MetricError("n-gram order must be >= 1")
    return Counter(zip(*(tokens[i:] for i in range(n))))


def _ngram_overlap(cand_grams: Counter, ref_grams: Counter) -> tuple[int, int, int]:
    """Clipped multiset overlap between two n-gram counts.

    Returns (overlap, candidate n-gram count, reference n-gram count).
    """
    return (cand_grams & ref_grams).total(), cand_grams.total(), ref_grams.total()


def _rouge(cand_grams: Counter, reference: str, n: int) -> RougeScore:
    """rouge_n of a candidate whose n-grams are already counted."""
    overlap, n_cand, n_ref = _ngram_overlap(cand_grams, _ngrams(rouge_tokens(reference), n))
    recall = overlap / n_ref if n_ref else 0.0
    precision = overlap / n_cand if n_cand else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return RougeScore(recall=recall, precision=precision, f1=f1, n=n)


def rouge_n(candidate: str, reference: str, n: int = 1) -> RougeScore:
    """Clipped n-gram overlap scores; an empty side zeroes the affected score."""
    return _rouge(_ngrams(rouge_tokens(candidate), n), reference, n)


def cross_entropy(p: np.ndarray, q: np.ndarray) -> float:
    """H(p, q) = -sum p ln q in nats; q must be strictly positive."""
    return float(-(np.asarray(p) * np.log(np.asarray(q))).sum())


def _normalize(raw: np.ndarray) -> np.ndarray:
    smoothed = raw + SMOOTH_EPS
    return smoothed / smoothed.sum()


def _comment_recalls(summary: str, thread: CleanThread, n: int) -> np.ndarray:
    """ROUGE-n recall of the summary against each comment, in thread order;
    the summary's n-grams are counted once."""
    summary_grams = _ngrams(rouge_tokens(summary), n)
    return np.array([_rouge(summary_grams, c.text, n).recall for c in thread.comments])


def _xent(recalls: np.ndarray, thread: CleanThread):
    if not thread.comments:
        raise MetricError(f"thread {thread.id!r} has no comments")
    likes_dist = _normalize(np.asarray(thread.likes, dtype=np.float64))
    rouge_dist = _normalize(recalls)
    return cross_entropy(likes_dist, rouge_dist), likes_dist, rouge_dist


def _weighted_recall(recalls: np.ndarray, thread: CleanThread) -> float:
    likes = np.asarray(thread.likes, dtype=np.float64)
    total = likes.sum()
    if total <= 0:
        raise MetricError("Recall_w undefined for zero total likes")
    return float((recalls * likes).sum() / total)


def xent_rouge(summary: str, thread: CleanThread, n: int = 1):
    """Cross-entropy of the smoothed likes distribution against the smoothed
    per-comment ROUGE-recall distribution.  Returns (xent, likes_dist,
    rouge_dist)."""
    return _xent(_comment_recalls(summary, thread, n), thread)


def weighted_recall(summary: str, thread: CleanThread, n: int = 1) -> float:
    """Likes-weighted average of per-comment ROUGE recall."""
    return _weighted_recall(_comment_recalls(summary, thread, n), thread)


def title_rouge(summary: str, title: str, n: int = 1) -> float:
    """Recall of the title's n-grams inside the generated summary."""
    return rouge_n(summary, title, n).recall


def _words(text: str) -> list[str]:
    return text.split()


def _lexical_diversity(words: list[str]) -> float:
    if not words:
        return 0.0
    return len({w.lower() for w in words}) / len(words)


def characterize(thread: CleanThread, salient_indices: list[int]) -> CharacterizationFeatures:
    """Per-thread features: lengths, comment count, lexical diversity of the
    whole thread and of the salient comments, and the spread of the
    max-normalized likes."""
    for i in salient_indices:
        if not 0 <= i < len(thread.comments):
            raise MetricError(f"salient comment index {i} out of range")
    thread_words = _words(thread.title)
    for comment in thread.comments:
        thread_words.extend(_words(comment.text))
    salient_words: list[str] = []
    for i in salient_indices:
        salient_words.extend(_words(thread.comments[i].text))
    likes = np.asarray(thread.likes, dtype=np.float64)
    max_likes = likes.max() if likes.size else 0.0
    likes_std = float((likes / max_likes).std()) if max_likes > 0 else 0.0
    return CharacterizationFeatures(
        thread_length=len(thread_words),
        salient_comment_length=len(salient_words),
        n_comments=len(thread.comments),
        ld_thread=_lexical_diversity(thread_words),
        ld_salient=_lexical_diversity(salient_words),
        likes_std=likes_std,
    )


def quartile_report(reports: list[EvalReport]) -> list[dict]:
    """Average the characterization features within XENT quartiles.

    Reports are sorted by ascending xent (ties broken by thread id), Q1
    holding the best-scored quartile and Q4 the worst.
    """
    if len(reports) < 4:
        raise MetricError(f"need at least 4 reports for quartiles, got {len(reports)}")
    ordered = sorted(reports, key=lambda r: (r.xent, r.thread_id))
    rows = []
    for q, chunk in enumerate(np.array_split(np.array(ordered, dtype=object), 4), start=1):
        row = {"quartile": f"Q{q}", "n_threads": len(chunk)}
        row["xent"] = float(np.mean([r.xent for r in chunk]))
        for f in dataclasses.fields(CharacterizationFeatures):
            row[f.name] = float(np.mean([getattr(r.features, f.name) for r in chunk]))
        rows.append(row)
    return rows


def _salient_indices(thread: CleanThread, n_comments: int) -> list[int]:
    """Top-liked comments (ties broken by thread order) stand in for the
    generation target when characterizing evaluation threads."""
    order = sorted(range(len(thread.comments)), key=lambda i: (-thread.comments[i].likes, i))
    return sorted(order[: min(n_comments, len(order))])


def evaluate_thread(summary_comments: str, full_summary: str, thread: CleanThread, n: int = 1,
                    n_salient: int = 1) -> EvalReport:
    """Score one generated summary against its thread; each comment's ROUGE
    is computed once and feeds XENT, its distributions and Recall_w."""
    recalls = _comment_recalls(summary_comments, thread, n)
    xent, likes_dist, rouge_dist = _xent(recalls, thread)
    try:
        recall_w = _weighted_recall(recalls, thread)
    except MetricError:
        recall_w = float("nan")
    return EvalReport(
        thread_id=thread.id,
        per_comment_rouge=[float(x) for x in recalls],
        likes_dist=[float(x) for x in likes_dist],
        rouge_dist=[float(x) for x in rouge_dist],
        xent=xent,
        recall_w=recall_w,
        title_rouge=title_rouge(full_summary, thread.title, n),
        features=characterize(thread, _salient_indices(thread, n_salient)),
    )


def evaluate_fold(state, fold: list[CleanThread], decode_config, vocab: Vocab, n: int = 1):
    """Summarize every thread in the fold (likes withheld) and score it.

    Returns (reports, aggregates, n_skipped); threads that summarization
    rejects with a model, decoding or tokenizer error are skipped and
    counted, and any other exception propagates.  Aggregate means ignore nan
    recall_w values.
    """
    # imported here, not at the top, so that a patched decoding.summarize
    # (perfbench's eval workload keeps each summary this way) is the one called
    from threadsum.decoding import summarize

    if not fold:
        raise MetricError("cannot evaluate an empty fold")
    reports = []
    skipped = 0
    for thread in fold:
        try:
            result = summarize(state, vocab, thread, decode_config, provide_likes=False)
        except (ModelError, DecodeError, TokenizerError):
            skipped += 1
            continue
        comment_text = " ".join(result["comment_parts"]) or result["raw"]
        reports.append(
            evaluate_thread(
                comment_text, result["raw"], thread, n=n, n_salient=state.variant.n_comments
            )
        )
    aggregates = {
        name: _nanmean([getattr(r, name) for r in reports]) for name in ("xent", "recall_w", "title_rouge")
    }
    return reports, aggregates, skipped


def _nanmean(values) -> float:
    finite = [v for v in values if not math.isnan(v)]
    return float(np.mean(finite)) if finite else float("nan")
