"""Thread corpus: loading, text cleaning, filtering and fold assignment.

A thread is one news item (its title) plus the user comments attached to it,
each comment carrying a like count.  Raw threads are read from JSON-lines
files, cleaned with a fixed sequence of regex rules, filtered down to
comments of at least five words, and partitioned into train/validation/test
folds.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field, replace

import numpy as np

from threadsum.checkpoint import replace_when_done

FOLDS = ("train", "validation", "test")
# The largest like count a float64 holds exactly; attention_weights divides
# like counts as float64.
MAX_LIKES = 2**53


class CorpusError(ValueError):
    """Raised for malformed corpus files or invalid corpus parameters."""


@dataclass(frozen=True)
class RawComment:
    text: str
    likes: int


@dataclass(frozen=True)
class RawThread:
    id: str
    title: str
    comments: list[RawComment] = field(default_factory=list)


@dataclass(frozen=True)
class CleanComment:
    text: str
    likes: int


@dataclass(frozen=True)
class CleanThread:
    id: str
    title: str
    comments: list[CleanComment]
    fold: str = ""

    @property
    def likes(self) -> list[int]:
        return [c.likes for c in self.comments]

    @property
    def texts(self) -> list[str]:
        return [self.title] + [c.text for c in self.comments]


# Cleaning rules, applied in this order.  Later rules assume earlier ones
# already ran (e.g. punctuation collapse must not see URLs).
_HTML_TAG = re.compile(r"<[^>]*>")
_URL = re.compile(r"(?:https?://|www\.)\S+", re.IGNORECASE)
_MENTION = re.compile(r"@\w+")
# Laughter: a maximal run of >= 4 characters alternating between the
# consonant class {j, h} and the vowel class {a, e, i}, e.g. "jajaja",
# "Hahahah", "ajaja".  Shorter runs and non-alternating runs are kept.
_LAUGHTER = re.compile(r"(?:[jh][aei]){2,}[jh]?|(?:[aei][jh]){2,}[aei]?", re.IGNORECASE)
_PUNCT_RUN = re.compile(r"([^\w\s])\1+")
_SPACES = re.compile(r"\s+")
# what errors="surrogateescape" decodes a byte that is not UTF-8 to
_UNDECODED = re.compile("[\udc80-\udcff]")


def clean_text(raw: str) -> str:
    """Normalize one text field.

    Strips HTML tags, URLs and @-mentions, removes laughter runs, collapses
    runs of one repeated punctuation character, and normalizes whitespace.
    Total on any input; idempotent.  Case and stopwords are preserved.
    """
    text = _HTML_TAG.sub(" ", raw)
    text = _URL.sub(" ", text)
    text = _MENTION.sub(" ", text)
    text = _LAUGHTER.sub(" ", text)
    text = _PUNCT_RUN.sub(r"\1", text)
    return _SPACES.sub(" ", text).strip()


def _parse_comment(obj: dict, line_no: int) -> RawComment:
    if not isinstance(obj, dict):
        raise CorpusError(f"line {line_no}: comment entries must be objects")
    if "text" not in obj:
        raise CorpusError(f"line {line_no}: comment missing required field 'text'")
    if "likes" not in obj:
        raise CorpusError(f"line {line_no}: comment missing required field 'likes'")
    likes = obj["likes"]
    if not isinstance(likes, int) or isinstance(likes, bool) or not 0 <= likes <= MAX_LIKES:
        raise CorpusError(f"line {line_no}: likes must be non-negative integers of at most 2**53")
    return RawComment(text=_string(obj, "text", line_no), likes=likes)


def _string(obj: dict, key: str, line_no: int) -> str:
    if not isinstance(obj[key], str):
        raise CorpusError(f"line {line_no}: '{key}' must be a string, got {type(obj[key]).__name__}")
    return obj[key]


def _parse_thread(obj: dict, line_no: int) -> RawThread:
    if not isinstance(obj, dict):
        raise CorpusError(f"line {line_no}: thread record must be an object")
    for key in ("id", "title", "comments"):
        if key not in obj:
            raise CorpusError(f"line {line_no}: thread missing required field '{key}'")
    if not _string(obj, "id", line_no):
        raise CorpusError(f"line {line_no}: thread id must be non-empty")
    if not isinstance(obj["comments"], list):
        raise CorpusError(f"line {line_no}: 'comments' must be a list")
    comments = [_parse_comment(c, line_no) for c in obj["comments"]]
    return RawThread(id=obj["id"], title=_string(obj, "title", line_no), comments=comments)


def _read_threads(path):
    """Yield (line number, JSON object, RawThread) per non-blank line of a
    JSON-lines file; see load_corpus for the checks."""
    seen_ids: set[str] = set()
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for line_no, line in enumerate(fh, start=1):
            bad = _UNDECODED.search(line)
            if bad:
                raise CorpusError(f"line {line_no}: byte {ord(bad.group()) - 0xDC00:#04x} is not UTF-8")
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CorpusError(f"line {line_no}: malformed JSON ({exc.msg})") from exc
            thread = _parse_thread(obj, line_no)
            if thread.id in seen_ids:
                raise CorpusError(f"line {line_no}: duplicate thread id {thread.id!r}")
            seen_ids.add(thread.id)
            yield line_no, obj, thread


def load_corpus(path) -> list[RawThread]:
    """Read one RawThread per line from a JSON-lines file, in file order.

    Thread ids must be unique within the file.  Malformed lines raise
    CorpusError carrying the 1-based line number.
    """
    return [thread for _, _, thread in _read_threads(path)]


def preprocess(threads: list[RawThread], min_words: int = 5) -> list[CleanThread]:
    """Clean every text field and keep comments with >= min_words words.

    Word counting splits the cleaned text on whitespace.  Threads left with
    no surviving comment are dropped; comment order and like counts of the
    survivors are preserved.
    """
    if min_words < 1:
        raise CorpusError("min_words must be >= 1")
    out: list[CleanThread] = []
    for thread in threads:
        kept = []
        for comment in thread.comments:
            text = clean_text(comment.text)
            if len(text.split()) >= min_words:
                kept.append(CleanComment(text=text, likes=comment.likes))
        if kept:
            out.append(CleanThread(id=thread.id, title=clean_text(thread.title), comments=kept))
    return out


def partition(
    threads: list[CleanThread],
    ratios: tuple[float, float, float] = (0.8, 0.1, 0.1),
    seed: int = 0,
) -> list[CleanThread]:
    """Assign a train/validation/test fold to every thread.

    The assignment is a seeded random shuffle; fold sizes match the ratios
    to within one thread.  Output preserves input order, only the fold field
    changes.
    """
    if len(ratios) != 3 or any(not r > 0 for r in ratios):  # not r > 0 also holds for a NaN
        raise CorpusError("ratios must be three positive numbers")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise CorpusError(f"ratios must sum to 1, got {sum(ratios)}")
    n = len(threads)
    rng = np.random.default_rng(seed)
    rank = np.empty(n, dtype=np.int64)
    rank[rng.permutation(n)] = np.arange(n)
    cuts = [round(n * ratios[0]), round(n * (ratios[0] + ratios[1]))]
    fold_index = np.searchsorted(cuts, rank, side="right")  # how many cuts each rank is at or past
    return [replace(t, fold=FOLDS[k]) for t, k in zip(threads, fold_index.tolist())]


def thread_to_json(thread: CleanThread) -> dict:
    obj = {
        "id": thread.id,
        "title": thread.title,
        "comments": [{"text": c.text, "likes": c.likes} for c in thread.comments],
    }
    if thread.fold:
        obj["fold"] = thread.fold
    return obj


def save_clean(threads: list[CleanThread], path) -> None:
    """Write clean threads as JSONL (same schema as the raw corpus + fold),
    replacing path only once every thread is written."""
    with replace_when_done(path) as fh:
        for thread in threads:
            fh.write(json.dumps(thread_to_json(thread), ensure_ascii=False) + "\n")


def load_clean(path, fold: str | None = None) -> list[CleanThread]:
    """Read a clean JSONL corpus, optionally filtering to one fold.  Lines
    are checked as by load_corpus, and a fold, when present, must be in FOLDS."""
    if fold is not None and fold not in FOLDS:
        raise CorpusError(f"unknown fold {fold!r}")
    threads = []
    for line_no, obj, raw in _read_threads(path):
        thread_fold = obj.get("fold", "")
        if thread_fold != "" and thread_fold not in FOLDS:
            raise CorpusError(f"line {line_no}: unknown fold {thread_fold!r}")
        comments = [CleanComment(text=c.text, likes=c.likes) for c in raw.comments]
        threads.append(CleanThread(id=raw.id, title=raw.title, comments=comments, fold=thread_fold))
    if fold is not None:
        threads = [t for t in threads if t.fold == fold]
    return threads
