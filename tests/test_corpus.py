"""Corpus loading, cleaning and partitioning."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from threadsum.corpus import (
    CleanComment,
    CleanThread,
    CorpusError,
    RawComment,
    RawThread,
    clean_text,
    load_clean,
    load_corpus,
    partition,
    preprocess,
    save_clean,
)
from threadsum.model import attention_weights


def write_jsonl(path, objs):
    with open(path, "w", encoding="utf-8") as fh:
        for obj in objs:
            fh.write(json.dumps(obj, ensure_ascii=False) + "\n")


class TestLoadCorpus:
    def test_single_line_roundtrip(self, tmp_path):
        path = tmp_path / "raw.jsonl"
        write_jsonl(
            path,
            [{"id": "t1", "title": "A", "comments": [{"text": "hello world foo bar baz", "likes": 3}]}],
        )
        threads = load_corpus(path)
        assert len(threads) == 1
        assert threads[0].title == "A"
        assert len(threads[0].comments) == 1
        assert threads[0].comments[0].likes == 3

    def test_unknown_comment_field_is_ignored(self, tmp_path):
        path = tmp_path / "raw.jsonl"
        comment = {"text": "uno dos tres cuatro cinco", "likes": 2, "author_hash": "ab12"}
        write_jsonl(path, [{"id": "t1", "title": "A", "comments": [comment]}])
        assert load_corpus(path)[0].comments == [RawComment("uno dos tres cuatro cinco", 2)]

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert load_corpus(path) == []

    def test_negative_likes_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        write_jsonl(path, [{"id": "t1", "title": "A", "comments": [{"text": "x", "likes": -1}]}])
        with pytest.raises(CorpusError, match="likes must be non-negative"):
            load_corpus(path)

    def test_malformed_line_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": "a", "title": "A", "comments": []}\n{nope\n')
        with pytest.raises(CorpusError, match="line 2"):
            load_corpus(path)

    def test_missing_field_is_named(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        write_jsonl(path, [{"id": "a", "comments": []}])
        with pytest.raises(CorpusError, match="'title'"):
            load_corpus(path)

    def test_duplicate_ids_rejected(self, tmp_path):
        path = tmp_path / "dup.jsonl"
        write_jsonl(
            path,
            [
                {"id": "a", "title": "A", "comments": []},
                {"id": "a", "title": "B", "comments": []},
            ],
        )
        with pytest.raises(CorpusError, match="duplicate"):
            load_corpus(path)

    @pytest.mark.parametrize("field,value", [
        ("id", 3), ("id", None), ("title", 5), ("title", ["A"]), ("text", None), ("text", 7),
    ])
    def test_non_string_field_names_the_line(self, tmp_path, field, value):
        """A non-string id, title or text is refused, not turned into its str()."""
        good = {"id": "a", "title": "A", "comments": [{"text": "uno dos tres cuatro cinco", "likes": 1}]}
        bad = {"id": "b", "title": "B", "comments": [{"text": "seis siete ocho nueve diez", "likes": 1}]}
        (bad["comments"][0] if field == "text" else bad)[field] = value
        path = tmp_path / "bad.jsonl"
        write_jsonl(path, [good, bad])
        with pytest.raises(CorpusError, match=f"line 2: '{field}' must be a string"):
            load_corpus(path)

    @pytest.mark.parametrize("likes", [2**53 + 1, 10**400], ids=["2**53+1", "10**400"])
    def test_likes_beyond_float64_rejected(self, tmp_path, likes):
        """attention_weights divides likes as float64: 10**400 would overflow there."""
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": "t1", "title": "A", "comments": [{"text": "x", "likes": %s}]}\n' % json.dumps(likes))
        with pytest.raises(CorpusError, match="line 1: likes must be non-negative integers of at most 2\\*\\*53"):
            load_corpus(path)

    def test_largest_exact_likes_load_and_weigh(self, tmp_path):
        path = tmp_path / "raw.jsonl"
        write_jsonl(path, [{"id": "t1", "title": "A", "comments": [{"text": "x", "likes": 2**53}]}])
        thread = load_corpus(path)[0]
        assert thread.comments[0].likes == 2**53
        clean = CleanThread(thread.id, thread.title, [CleanComment(c.text, c.likes) for c in thread.comments])
        assert attention_weights(clean).weights.tolist() == [1.0, 1.0]

    def test_bytes_that_are_not_utf8_name_the_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        good = json.dumps({"id": "a", "title": "A", "comments": []}).encode()
        path.write_bytes(good + b"\n" + b'{"id": "b", "title": "caf\xe9", "comments": []}\n')
        with pytest.raises(CorpusError, match="line 2: byte 0xe9 is not UTF-8"):
            load_corpus(path)
        with pytest.raises(CorpusError, match="line 2: byte 0xe9 is not UTF-8"):
            load_clean(path)


class TestCleanText:
    def test_rules_in_order(self):
        # tag strip -> URL -> mention -> laughter -> punctuation run -> spaces
        assert clean_text("see <b>this</b>!!! http://x.co @sam") == "see this !"

    def test_fixed_point(self):
        assert clean_text("plain sentence") == "plain sentence"

    def test_empty(self):
        assert clean_text("") == ""

    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("jajaja that was fun", "that was fun"),
            ("HAHAHA no way", "no way"),
            ("ajajaj si", "si"),
            ("jeje ok", "jeje ok"),  # run of 4 needed; "jeje" is 4 -> removed? see below
            ("muy bueno.... si???", "muy bueno. si?"),
            ("hola   \t mundo", "hola mundo"),
            ("visit www.ejemplo.cl ya", "visit ya"),
        ],
    )
    def test_individual_rules(self, raw, expected):
        if raw == "jeje ok":
            # "jeje" is exactly four alternating characters, so it is laughter
            assert clean_text(raw) == "ok"
        else:
            assert clean_text(raw) == expected

    def test_non_alternating_runs_survive(self):
        assert clean_text("aaaa bien") == "aaaa bien"
        assert clean_text("jjjj") == "jjjj"

    @given(st.text(max_size=200))
    @settings(max_examples=300)
    def test_idempotent(self, s):
        once = clean_text(s)
        assert clean_text(once) == once

    @given(st.text(max_size=200))
    @settings(max_examples=300)
    def test_no_forbidden_residue(self, s):
        cleaned = clean_text(s)
        assert "http://" not in cleaned and "https://" not in cleaned
        assert "  " not in cleaned
        for ch in set(cleaned):
            if not ch.isalnum() and not ch.isspace() and ch != "_":
                assert ch * 2 not in cleaned


class TestPreprocess:
    def make_thread(self, comments):
        return RawThread(id="t", title="title words", comments=[RawComment(t, l) for t, l in comments])

    def test_five_word_threshold(self):
        thread = self.make_thread([("a b", 7), ("one two three four five", 2)])
        out = preprocess([thread])
        assert len(out) == 1
        assert len(out[0].comments) == 1
        assert out[0].comments[0].text == "one two three four five"
        assert out[0].comments[0].likes == 2

    def test_thread_with_no_survivors_dropped(self):
        thread = self.make_thread([("too short", 1), ("also short", 2)])
        assert preprocess([thread]) == []

    def test_corpus_counts_after_filtering(self):
        # three threads, one loses every comment -> two survive
        threads = [
            RawThread("a", "T", [RawComment("uno dos tres cuatro cinco", 1)]),
            RawThread("b", "T", [RawComment("nope", 0)]),
            RawThread("c", "T", [RawComment("seis siete ocho nueve diez once", 4)]),
        ]
        out = preprocess(threads)
        assert [t.id for t in out] == ["a", "c"]

    def test_counts_words_after_cleaning(self):
        # five words before cleaning, four after the URL is stripped
        thread = self.make_thread([("uno dos tres cuatro http://x.co", 1)])
        assert preprocess([thread]) == []

    def test_never_increases_counts_and_preserves_likes(self):
        threads = [
            self.make_thread([("uno dos tres cuatro cinco", 9), ("x", 1), ("a b c d e f", 5)])
        ]
        out = preprocess(threads)
        assert len(out[0].comments) <= 3
        assert [c.likes for c in out[0].comments] == [9, 5]

    def test_min_words_validated(self):
        with pytest.raises(CorpusError):
            preprocess([], min_words=0)


class TestPartition:
    def make_clean(self, n):
        raw = [
            RawThread(f"t{i}", "title", [RawComment("uno dos tres cuatro cinco", i)])
            for i in range(n)
        ]
        return preprocess(raw)

    def test_exact_division(self):
        threads = partition(self.make_clean(10), (0.8, 0.1, 0.1), seed=42)
        sizes = {f: sum(t.fold == f for t in threads) for f in ("train", "validation", "test")}
        assert sizes == {"train": 8, "validation": 1, "test": 1}

    def test_deterministic(self):
        a = partition(self.make_clean(30), (0.8, 0.1, 0.1), seed=42)
        b = partition(self.make_clean(30), (0.8, 0.1, 0.1), seed=42)
        assert [t.fold for t in a] == [t.fold for t in b]

    def test_bad_ratios(self):
        with pytest.raises(CorpusError):
            partition(self.make_clean(4), (0.5, 0.5, 0.5), seed=1)

    @pytest.mark.parametrize("ratios", [(math.nan, 0.5, 0.5), (0.5, math.nan, 0.5), (0.5, 0.5, math.nan)])
    def test_nan_ratio_rejected(self, ratios):
        with pytest.raises(CorpusError, match="three positive numbers"):
            partition(self.make_clean(4), ratios, seed=1)

    def test_folds_cover_and_are_disjoint(self):
        threads = partition(self.make_clean(23), (0.6, 0.2, 0.2), seed=7)
        assert all(t.fold in ("train", "validation", "test") for t in threads)
        sizes = [sum(t.fold == f for t in threads) for f in ("train", "validation", "test")]
        assert sum(sizes) == 23
        for size, ratio in zip(sizes, (0.6, 0.2, 0.2)):
            assert abs(size - 23 * ratio) <= 1

    def test_order_preserved(self):
        clean = self.make_clean(12)
        threads = partition(clean, (0.5, 0.25, 0.25), seed=3)
        assert [t.id for t in threads] == [t.id for t in clean]

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 10, 23])
    @pytest.mark.parametrize("ratios", [(0.8, 0.1, 0.1), (0.34, 0.33, 0.33), (0.01, 0.49, 0.5)])
    def test_matches_rank_reference(self, n, ratios):
        """The thread at rank r of the seeded permutation goes to train below
        the first cut, to validation below the second, to test otherwise."""
        clean = self.make_clean(n)
        for seed in range(5):
            order = np.random.default_rng(seed).permutation(n)
            cut1, cut2 = round(n * ratios[0]), round(n * (ratios[0] + ratios[1]))
            expected = [""] * n
            for rank, idx in enumerate(order):
                expected[idx] = "train" if rank < cut1 else "validation" if rank < cut2 else "test"
            assert [t.fold for t in partition(clean, ratios, seed=seed)] == expected


class _UnwritableThread:
    """Stands in for a thread whose comments cannot be read, so that a write
    fails after earlier threads went out."""

    id, title, fold = "x", "T", "train"

    @property
    def comments(self):
        raise OSError("no space left on device")


class TestRoundTrip:
    def test_save_load_clean(self, tmp_path):
        threads = partition(
            preprocess(
                [
                    RawThread("a", "Titulo uno", [RawComment("uno dos tres cuatro cinco", 3)]),
                    RawThread("b", "Titulo dos", [RawComment("seis siete ocho nueve diez", 0)]),
                ]
            ),
            (0.5, 0.25, 0.25),
            seed=1,
        )
        path = tmp_path / "clean.jsonl"
        save_clean(threads, path)
        again = load_clean(path)
        assert again == threads

    def test_fold_filter(self, tmp_path):
        threads = partition(
            preprocess(
                [
                    RawThread(f"t{i}", "T", [RawComment("uno dos tres cuatro cinco", 1)])
                    for i in range(8)
                ]
            ),
            seed=5,
        )
        path = tmp_path / "clean.jsonl"
        save_clean(threads, path)
        train = load_clean(path, fold="train")
        assert all(t.fold == "train" for t in train)
        assert len(train) == sum(t.fold == "train" for t in threads)

    def test_failed_save_keeps_the_previous_file(self, tmp_path):
        threads = preprocess([RawThread(f"t{i}", "T", [RawComment("uno dos tres cuatro cinco", i)]) for i in range(3)])
        path = tmp_path / "clean.jsonl"
        save_clean(threads, path)
        before = path.read_bytes()
        with pytest.raises(OSError, match="no space"):
            save_clean(threads[:1] + [_UnwritableThread()], path)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["clean.jsonl"]


class TestLoadCleanValidates:
    """Clean files are parsed through the same checks as raw ones."""

    def good(self, thread_id):
        return {"id": thread_id, "title": "T", "comments": [{"text": "uno dos", "likes": 1}], "fold": "train"}

    def test_missing_likes_names_the_line(self, tmp_path):
        path = tmp_path / "clean.jsonl"
        bad = self.good("b")
        del bad["comments"][0]["likes"]
        write_jsonl(path, [self.good("a"), bad])
        with pytest.raises(CorpusError, match="line 2.*'likes'"):
            load_clean(path)

    def test_unknown_fold_names_the_line(self, tmp_path):
        path = tmp_path / "clean.jsonl"
        write_jsonl(path, [self.good("a"), {**self.good("b"), "fold": "dev"}])
        with pytest.raises(CorpusError, match="line 2.*'dev'"):
            load_clean(path)

    def test_missing_fold_is_unassigned(self, tmp_path):
        path = tmp_path / "clean.jsonl"
        obj = self.good("a")
        del obj["fold"]
        write_jsonl(path, [obj])
        assert [t.fold for t in load_clean(path)] == [""]
