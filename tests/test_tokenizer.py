"""Subword vocabulary training, encoding and decoding."""

import copy
import hashlib
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from threadsum.corpus import CleanComment, CleanThread, load_corpus, preprocess
from threadsum.tokenizer import (
    BOS,
    EOS,
    PAD,
    SEP,
    SPECIAL_TOKENS,
    UNK,
    TokenizerError,
    Vocab,
    _truncate,
    decode,
    encode,
    load_vocab,
    save_vocab,
    train_vocab,
    vocab_hash,
)


def char_vocab(chars: str, lowercase: bool = True) -> Vocab:
    """Character-level vocabulary over the given alphabet."""
    alphabet = sorted({c for c in chars} | {c + "</w>" for c in chars})
    return Vocab(id_to_token=SPECIAL_TOKENS + tuple(alphabet), lowercase=lowercase)


def thread_of(texts: list[str]) -> CleanThread:
    return CleanThread(
        id="t", title=texts[0], comments=[CleanComment(t, 1) for t in texts[1:]]
    )


class TestTrainVocab:
    def test_most_frequent_pair_merged_first(self):
        # hand-run: pairs over {a a a b</w>} + {a a b</w>} give (a,a)=3,
        # (a,b</w>)=2, so the first merge must create "aa"
        corpus = [thread_of(["aaab", "aab"])]
        vocab = train_vocab(corpus, vocab_size=12)
        assert "aa" in vocab.id_to_token
        assert vocab.id_to_token.index("aa") == len(SPECIAL_TOKENS) + 4

    def test_merge_budget_zero_gives_character_vocab(self):
        corpus = [thread_of(["aaab", "aab"])]
        # specials + {a, a</w>, b, b</w>}
        vocab = train_vocab(corpus, vocab_size=9)
        assert vocab.n_merges == 0
        assert len(vocab) == 9

    def test_empty_corpus_rejected(self):
        with pytest.raises(TokenizerError, match="empty corpus"):
            train_vocab([], vocab_size=100)

    def test_min_freq_stops_merging(self):
        corpus = [thread_of(["aaab", "aab"])]
        vocab = train_vocab(corpus, vocab_size=50, min_freq=3)
        # only (a,a) reaches count 3
        assert vocab.n_merges == 1
        assert vocab.id_to_token[-1] == "aa"

    def test_deterministic(self):
        corpus = [thread_of(["la casa azul", "la casa verde clara", "el cielo azul claro"])]
        a = train_vocab(corpus, vocab_size=60)
        b = train_vocab(corpus, vocab_size=60)
        assert a.id_to_token == b.id_to_token

    def test_vocab_size_too_small(self):
        with pytest.raises(TokenizerError, match="too small"):
            train_vocab([thread_of(["abcdef ghijkl"])], vocab_size=6)

    def test_smoke_corpus_vocabulary_is_pinned(self):
        """Word counting and merge tie-breaks decide every token; any
        refactor of training must reproduce this vocabulary exactly."""
        path = os.path.join(os.path.dirname(__file__), os.pardir, "data", "smoke_corpus.jsonl")
        vocab = train_vocab(preprocess(load_corpus(path)), vocab_size=300)
        assert (len(vocab), vocab.n_merges) == (300, 231)
        digest = hashlib.sha256("\n".join(vocab.id_to_token).encode()).hexdigest()
        assert digest == "4869d1432319f44c60797908c81ae4644d9cbf16ea5e33a1e7402e42d72035eb"


class TestEncode:
    def test_sep_joined_with_spans(self):
        vocab = char_vocab("ab")
        seq = encode(vocab, ["ab", "ab"])
        a = vocab.token_to_id["a"]
        b_end = vocab.token_to_id["b</w>"]
        assert seq.ids == [a, b_end, SEP, a, b_end]
        assert seq.spans == [(0, 2, 0), (3, 5, 1)]

    def test_single_long_text_truncated_to_max_len(self):
        vocab = char_vocab("x")
        seq = encode(vocab, ["x" * 100], max_len=16)
        assert len(seq.ids) == 16

    def test_roundtrip_in_vocab(self):
        vocab = char_vocab("helo wrd")
        assert decode(vocab, encode(vocab, ["hello world"]).ids) == "hello world"

    def test_unseen_character_becomes_unk(self):
        vocab = char_vocab("ab")
        seq = encode(vocab, ["aZb"])
        assert UNK in seq.ids

    def test_title_survives_round_robin_truncation(self):
        vocab = char_vocab("tc")
        # title 3 tokens + three comments of 4 tokens each + 3 SEPs = 18
        texts = ["t t t", "c c c c", "c c c c", "c c c c"]
        seq = encode(vocab, texts, max_len=9)
        title_span = seq.spans[0]
        assert title_span[1] - title_span[0] == 3
        assert len(seq.ids) <= 9
        # comments shrink; later comments lose tokens first
        lengths = [end - start for start, end, _ in seq.spans[1:]]
        assert lengths[0] >= lengths[-1]

    def test_every_text_keeps_a_span(self):
        vocab = char_vocab("tc")
        seq = encode(vocab, ["t t", "c c c c c c", "c c c c c c"], max_len=6)
        assert [s[2] for s in seq.spans] == [0, 1, 2]
        assert seq.n_texts == 3

    def test_output_never_exceeds_max_len(self):
        vocab = char_vocab("abc")
        for max_len in (2, 5, 9, 30):
            seq = encode(vocab, ["a b c", "ab ca b", "c"], max_len=max_len)
            assert len(seq.ids) <= max_len
            assert all(i < len(vocab) for i in seq.ids)

    def test_empty_text_list_rejected(self):
        with pytest.raises(TokenizerError):
            encode(char_vocab("a"), [])

    @given(st.lists(st.text(alphabet="ab ", min_size=1, max_size=30), min_size=1, max_size=4))
    @settings(max_examples=200)
    def test_ids_valid_and_bounded(self, texts):
        vocab = char_vocab("ab")
        seq = encode(vocab, texts, max_len=24)
        assert len(seq.ids) <= 24
        assert all(0 <= i < len(vocab) for i in seq.ids)
        sources = [s[2] for s in seq.spans]
        assert sources == sorted(sources)


def reference_truncate(pieces, max_len):
    """tokenizer._truncate before it was linear, kept verbatim: one pop per
    round-robin turn, and the total recounted after every pop."""

    def total() -> int:
        nonempty = sum(1 for p in pieces if p)
        return sum(len(p) for p in pieces) + max(nonempty - 1, 0)

    comment_idx = list(range(len(pieces) - 1, 0, -1))
    while total() > max_len and any(pieces[i] for i in comment_idx):
        for i in comment_idx:
            if pieces[i]:
                pieces[i].pop()
            if total() <= max_len:
                break
    if total() > max_len:
        pieces[0] = pieces[0][:max_len]
    return pieces


def bundled_corpus(name):
    return preprocess(load_corpus(os.path.join(os.path.dirname(__file__), os.pardir, "data", name)))


class TestTruncateLinear:
    @given(
        st.lists(st.lists(st.integers(5, 99), max_size=40), max_size=60),
        st.integers(2, 600),
    )
    @settings(max_examples=300, deadline=None)
    def test_equals_the_round_robin_loop(self, pieces, max_len):
        want = reference_truncate(copy.deepcopy(pieces), max_len)
        assert [list(p) for p in _truncate([tuple(p) for p in pieces], max_len)] == want

    @pytest.mark.parametrize("corpus", ["smoke_corpus.jsonl", "toy_corpus.jsonl"])
    def test_a_warm_memo_encodes_as_a_fresh_vocabulary(self, corpus):
        """Each text's ids are memoized untruncated: encoding through a
        vocabulary that has seen every text, at any max_len, equals encoding
        through a new one."""
        threads = bundled_corpus(corpus)
        vocab = train_vocab(threads, vocab_size=300)
        for thread in threads:
            encode(vocab, thread.texts, max_len=16)
        for max_len in (16, 128, 512):
            for thread in threads:
                fresh = Vocab(vocab.id_to_token, lowercase=vocab.lowercase, n_merges=vocab.n_merges)
                assert encode(vocab, thread.texts, max_len=max_len) == encode(fresh, thread.texts, max_len=max_len)


class TestDecode:
    def test_specials_dropped(self):
        vocab = char_vocab("cat")
        ids = [BOS] + encode(vocab, ["cat"]).ids + [EOS, PAD]
        assert decode(vocab, ids) == "cat"

    def test_sep_renders_as_delimiter(self):
        vocab = char_vocab("ab")
        a_end = vocab.token_to_id["a</w>"]
        b_end = vocab.token_to_id["b</w>"]
        assert decode(vocab, [a_end, SEP, b_end]) == "a | b"

    def test_empty(self):
        assert decode(char_vocab("a"), []) == ""

    def test_out_of_range_id(self):
        with pytest.raises(TokenizerError, match="out of range"):
            decode(char_vocab("a"), [999])

    @given(st.text(alphabet="abc ", max_size=60))
    @settings(max_examples=200)
    def test_roundtrip_normalizes_whitespace(self, text):
        vocab = char_vocab("abc")
        if not text.split():
            return
        seq = encode(vocab, [text], max_len=512)
        assert decode(vocab, seq.ids) == " ".join(text.split())


class TestPersistence:
    def test_save_load_identity(self, tmp_path):
        corpus = [thread_of(["la casa azul", "el cielo claro y azul"])]
        vocab = train_vocab(corpus, vocab_size=40)
        path = tmp_path / "vocab.txt"
        save_vocab(vocab, path)
        loaded = load_vocab(path)
        assert loaded.id_to_token == vocab.id_to_token
        assert loaded.lowercase == vocab.lowercase
        assert loaded.n_merges == vocab.n_merges

    def test_hash_changes_with_content(self, tmp_path):
        corpus = [thread_of(["la casa azul"])]
        v1 = train_vocab(corpus, vocab_size=30)
        v2 = train_vocab([thread_of(["el cielo rojo"])], vocab_size=30)
        save_vocab(v1, tmp_path / "a.txt")
        save_vocab(v2, tmp_path / "b.txt")
        assert vocab_hash(tmp_path / "a.txt") != vocab_hash(tmp_path / "b.txt")

    def test_failed_save_keeps_both_previous_files(self, tmp_path):
        """A write that fails in the sidecar header leaves the earlier
        vocabulary file and header, not a new file beside an old header."""
        v1 = train_vocab([thread_of(["la casa azul"])], vocab_size=30)
        v2 = train_vocab([thread_of(["el cielo rojo y claro"])], vocab_size=40)
        path = tmp_path / "vocab.txt"
        save_vocab(v1, path)
        before = path.read_bytes(), (tmp_path / "vocab.txt.meta").read_bytes()

        class Unwritable:  # v2 whose lowercase flag cannot be read
            id_to_token, n_merges = v2.id_to_token, v2.n_merges

            def __len__(self):
                return len(self.id_to_token)

            @property
            def lowercase(self):
                raise OSError("no space left on device")

        with pytest.raises(OSError, match="no space"):
            save_vocab(Unwritable(), path)
        assert (path.read_bytes(), (tmp_path / "vocab.txt.meta").read_bytes()) == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["vocab.txt", "vocab.txt.meta"]

    def test_header_mismatch_detected(self, tmp_path):
        vocab = train_vocab([thread_of(["la casa azul"])], vocab_size=30)
        path = tmp_path / "vocab.txt"
        save_vocab(vocab, path)
        with open(str(path) + ".meta", "w") as fh:
            fh.write("vocab_size=9999\n")
        with pytest.raises(TokenizerError):
            load_vocab(path)

    @pytest.mark.parametrize("line,key", [
        ("vocab_size=abc", "vocab_size"), ("vocab_size=-5", "vocab_size"), ("merges=x", "merges"),
        ("merges=", "merges"), ("lowercase=maybe", "lowercase"), ("lowercase=True", "lowercase"),
    ])
    def test_unparsable_sidecar_value_names_its_key(self, tmp_path, line, key):
        vocab = train_vocab([thread_of(["la casa azul"])], vocab_size=30)
        path = tmp_path / "vocab.txt"
        save_vocab(vocab, path)
        meta = tmp_path / "vocab.txt.meta"
        kept = [kept for kept in meta.read_text().splitlines() if not kept.startswith(key + "=")]
        meta.write_text("\n".join(kept + [line]) + "\n")
        with pytest.raises(TokenizerError, match=f"sidecar {key}="):
            load_vocab(path)

    def test_missing_sidecar_keys_take_their_defaults(self, tmp_path):
        vocab = train_vocab([thread_of(["la casa azul"])], vocab_size=30)
        path = tmp_path / "vocab.txt"
        save_vocab(vocab, path)
        (tmp_path / "vocab.txt.meta").write_text("")
        loaded = load_vocab(path)
        assert (loaded.id_to_token, loaded.lowercase, loaded.n_merges) == (vocab.id_to_token, True, 0)
