"""Trainable subword vocabulary and thread encoding.

Training runs greedy byte-pair merges over the corpus word counts; merged
tokens are whole strings, word-final subwords carry a ``</w>`` marker so
that decoding can restore word boundaries.  Application is longest-match
first per word, falling back to [UNK] only for characters never seen in
training.

Threads are flattened to a single id sequence: the texts (title first, then
comments in order) joined by [SEP], with spans recording which text each
region came from.
"""

from __future__ import annotations

import hashlib
import itertools
from collections import Counter
from dataclasses import dataclass, field

from threadsum.checkpoint import replace_when_done

PAD, BOS, EOS, SEP, UNK = 0, 1, 2, 3, 4
SPECIAL_TOKENS = ("[PAD]", "[BOS]", "[EOS]", "[SEP]", "[UNK]")
_END = "</w>"


class TokenizerError(ValueError):
    """Raised for invalid vocabularies or tokenizer parameters."""


@dataclass(frozen=True)
class Vocab:
    id_to_token: tuple[str, ...]
    lowercase: bool = True
    n_merges: int = 0
    token_to_id: dict = field(default_factory=dict, compare=False, repr=False)
    _word_cache: dict = field(default_factory=dict, compare=False, repr=False)
    _text_cache: dict = field(default_factory=dict, compare=False, repr=False)  # text -> _text_ids(text)

    def __post_init__(self):
        self.token_to_id.clear()
        self.token_to_id.update({t: i for i, t in enumerate(self.id_to_token)})
        if len(self.token_to_id) != len(self.id_to_token):
            raise TokenizerError("vocabulary contains duplicate tokens")
        if self.id_to_token[: len(SPECIAL_TOKENS)] != SPECIAL_TOKENS:
            raise TokenizerError("special tokens must occupy the lowest ids")

    def __len__(self) -> int:
        return len(self.id_to_token)


@dataclass
class TokenSeq:
    ids: list[int]
    spans: list[tuple[int, int, int]]  # (start, end, source_index), SEPs excluded

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def n_texts(self) -> int:
        return self.spans[-1][2] + 1 if self.spans else 0


def _word_symbols(word: str) -> tuple[str, ...]:
    """Split a word into characters, marking the last one as word-final."""
    chars = list(word)
    chars[-1] = chars[-1] + _END
    return tuple(chars)


def _merge_word(symbols: tuple[str, ...], pair: tuple[str, str], merged: str) -> tuple[str, ...]:
    out = []
    i = 0
    while i < len(symbols):
        if i + 1 < len(symbols) and symbols[i] == pair[0] and symbols[i + 1] == pair[1]:
            out.append(merged)
            i += 2
        else:
            out.append(symbols[i])
            i += 1
    return tuple(out)


def _pair_counts(words: list[tuple[str, ...]], freqs: list[int]) -> dict[tuple[str, str], int]:
    """Count adjacent symbol pairs over a weighted word list."""
    counts: dict[tuple[str, str], int] = {}
    for symbols, freq in zip(words, freqs):
        for i in range(len(symbols) - 1):
            pair = (symbols[i], symbols[i + 1])
            counts[pair] = counts.get(pair, 0) + freq
    return counts


def _corpus_words(corpus, lowercase: bool) -> Counter:
    counts = Counter()
    for thread in corpus:
        for text in thread.texts:
            counts.update((text.lower() if lowercase else text).split())
    return counts


def train_vocab(corpus, vocab_size: int, min_freq: int = 1, lowercase: bool = True) -> Vocab:
    """Learn a subword vocabulary by greedy pair merging.

    Merges the most frequent adjacent symbol pair (ties broken by the
    lexicographically smallest pair) until the vocabulary is full or the
    best pair occurs fewer than min_freq times.  Deterministic given the
    corpus order.
    """
    if min_freq < 1:
        raise TokenizerError("min_freq must be >= 1")
    word_counts = _corpus_words(corpus, lowercase)
    if not word_counts:
        raise TokenizerError("cannot train a vocabulary on an empty corpus")

    alphabet: set[str] = set()
    for word in word_counts:
        for ch in word:
            alphabet.add(ch)
            alphabet.add(ch + _END)
    tokens = list(SPECIAL_TOKENS) + sorted(alphabet)
    if vocab_size < len(tokens):
        raise TokenizerError(
            f"vocab_size {vocab_size} too small: need {len(tokens)} for specials plus characters"
        )

    words = [_word_symbols(w) for w in word_counts]
    freqs = list(word_counts.values())
    known = set(tokens)
    n_merges = 0
    while len(tokens) < vocab_size:
        counts = _pair_counts(words, freqs)
        if not counts:
            break
        best_count = max(counts.values())
        if best_count < min_freq:
            break
        pair = min(p for p, c in counts.items() if c == best_count)
        merged = pair[0] + pair[1]
        words = [_merge_word(w, pair, merged) if pair[0] in w else w for w in words]
        n_merges += 1
        if merged not in known:
            known.add(merged)
            tokens.append(merged)
    return Vocab(id_to_token=tuple(tokens), lowercase=lowercase, n_merges=n_merges)


def _encode_word(vocab: Vocab, word: str) -> tuple[int, ...]:
    """Longest-match-first subword split of one word."""
    cached = vocab._word_cache.get(word)
    if cached is not None:
        return cached
    ids = []
    pos = 0
    while pos < len(word):
        match = None
        for end in range(len(word), pos, -1):
            chunk = word[pos:end]
            if end == len(word):
                chunk = chunk + _END
            tid = vocab.token_to_id.get(chunk)
            if tid is not None:
                match = (tid, end)
                break
        if match is None:
            ids.append(UNK)  # character never seen in training
            pos += 1
        else:
            ids.append(match[0])
            pos = match[1]
    vocab._word_cache[word] = cached = tuple(ids)
    return cached


def _text_ids(vocab: Vocab, text: str) -> tuple[int, ...]:
    """One text's ids before truncation, memoized in the vocabulary."""
    cached = vocab._text_cache.get(text)
    if cached is None:
        words = (text.lower() if vocab.lowercase else text).split()
        vocab._text_cache[text] = cached = tuple(itertools.chain.from_iterable(_encode_word(vocab, w) for w in words))
    return cached


def _truncate(pieces: list, max_len: int) -> list:
    """Trim token pieces to fit max_len including separators.

    Comments lose tokens round robin starting from the last comment; the
    title is only cut once every comment is exhausted.  Returns the pieces
    cut to their kept lengths.  Linear time: the rounds that leave the total
    above max_len are counted from the comments' lengths, and only the last
    round is walked comment by comment.
    """
    lengths = [len(p) for p in pieces]
    over = sum(lengths) + max(sum(1 for n in lengths if n) - 1, 0) - max_len  # ids and separators beyond max_len
    if over <= 0:
        return pieces
    # a pop takes an id, and the separator of a comment it empties; that
    # counts one separator too many for the pop that empties the last
    # piece, which leaves nothing beyond max_len either way
    comments = range(len(pieces) - 1, 0, -1)
    by_length = Counter(lengths[i] for i in comments)
    active = sum(1 for i in comments if lengths[i])  # the comments a round shortens
    rounds = 0
    while active:
        removed = active + by_length[rounds + 1]  # a whole round's ids and separators
        if removed >= over:
            break
        over -= removed
        active -= by_length[rounds + 1]
        rounds += 1
    lengths[1:] = [max(n - rounds, 0) for n in lengths[1:]]
    if active:  # the round that fits, up to the pop that fits
        for i in comments:
            if lengths[i]:
                lengths[i] -= 1
                over -= 1 if lengths[i] else 2
                if over <= 0:
                    break
    if over > 0:  # every comment is exhausted
        lengths[0] = max_len
    return [p[:n] for p, n in zip(pieces, lengths)]


def encode(vocab: Vocab, texts: list[str], max_len: int = 512) -> TokenSeq:
    """Tokenize texts and flatten them into one [SEP]-joined sequence.

    Every text gets a span, empty if truncation consumed it entirely; SEP
    positions belong to no span.  Output never exceeds max_len ids.
    """
    if not texts:
        raise TokenizerError("encode requires at least one text")
    if max_len < 2:
        raise TokenizerError("max_len must be >= 2")
    pieces = _truncate([_text_ids(vocab, text) for text in texts], max_len)

    ids: list[int] = []
    spans: list[tuple[int, int, int]] = []
    emitted_any = False
    for source, piece in enumerate(pieces):
        if piece and emitted_any:
            ids.append(SEP)
        start = len(ids)
        ids.extend(piece)
        spans.append((start, len(ids), source))
        emitted_any = emitted_any or bool(piece)
    return TokenSeq(ids=ids, spans=spans)


def decode(vocab: Vocab, ids: list[int]) -> str:
    """Inverse of encode for in-vocab text.

    Specials are dropped except [SEP], which renders as " | "; word-final
    subwords close the current word.
    """
    words: list[str] = []
    current = ""
    for tid in ids:
        if not 0 <= tid < len(vocab):
            raise TokenizerError(f"token id {tid} out of range for vocabulary of {len(vocab)}")
        if tid == SEP:
            if current:
                words.append(current)
                current = ""
            words.append("|")
            continue
        if tid in (PAD, BOS, EOS, UNK):
            continue
        token = vocab.id_to_token[tid]
        if token.endswith(_END):
            words.append(current + token[: -len(_END)])
            current = ""
        else:
            current += token
    if current:
        words.append(current)
    return " ".join(words)


def save_vocab(vocab: Vocab, path) -> None:
    """Persist tokens one per line plus a sidecar key-value header; both
    files are replaced only once both are written."""
    with replace_when_done(path) as fh, replace_when_done(str(path) + ".meta") as meta:
        fh.write("\n".join(vocab.id_to_token) + "\n")
        meta.write(f"vocab_size={len(vocab)}\n")
        meta.write(f"merges={vocab.n_merges}\n")
        meta.write(f"lowercase={str(vocab.lowercase).lower()}\n")


def _meta_int(meta: dict, key: str, default: int) -> int:
    value = meta.get(key, str(default))
    if not (value.isascii() and value.isdigit()):
        raise TokenizerError(f"vocab sidecar {key}={value!r} is not a non-negative integer")
    return int(value)


def load_vocab(path) -> Vocab:
    """Read a vocabulary saved by save_vocab.  A sidecar value that does not
    parse raises TokenizerError naming its key; a missing key takes its
    default."""
    with open(path, encoding="utf-8") as fh:
        tokens = tuple(line.rstrip("\n") for line in fh if line.rstrip("\n"))
    meta = {}
    with open(str(path) + ".meta", encoding="utf-8") as fh:
        for line in fh:
            if "=" in line:
                key, value = line.strip().split("=", 1)
                meta[key] = value
    if _meta_int(meta, "vocab_size", len(tokens)) != len(tokens):
        raise TokenizerError("vocab file does not match its sidecar header")
    lowercase = meta.get("lowercase", "true")
    if lowercase not in ("true", "false"):
        raise TokenizerError(f"vocab sidecar lowercase={lowercase!r} is not true or false")
    return Vocab(id_to_token=tokens, lowercase=lowercase == "true", n_merges=_meta_int(meta, "merges", 0))


def vocab_hash(path) -> str:
    """Content hash binding checkpoints to the exact vocabulary files."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        digest.update(fh.read())
    with open(str(path) + ".meta", "rb") as fh:
        digest.update(fh.read())
    return digest.hexdigest()
