"""Metric correctness: ROUGE vs a brute-force counter, XENT properties,
weighted recall, characterization and quartiles."""

import math
from collections import Counter

import numpy as np
import pytest

from threadsum.corpus import CleanComment, CleanThread
from threadsum.evaluation import (
    MetricError,
    _ngram_overlap,
    _ngrams,
    characterize,
    cross_entropy,
    evaluate_thread,
    quartile_report,
    rouge_n,
    rouge_tokens,
    title_rouge,
    weighted_recall,
    xent_rouge,
)
from threadsum.evaluation import EvalReport, CharacterizationFeatures
from threadsum.model import ModelError


def brute_force_rouge(candidate: str, reference: str, n: int):
    """Independent oracle: Counter-intersection n-gram overlap."""
    ctoks, rtoks = rouge_tokens(candidate), rouge_tokens(reference)
    cgrams = Counter(tuple(ctoks[i : i + n]) for i in range(len(ctoks) - n + 1))
    rgrams = Counter(tuple(rtoks[i : i + n]) for i in range(len(rtoks) - n + 1))
    overlap = sum((cgrams & rgrams).values())
    recall = overlap / sum(rgrams.values()) if rgrams else 0.0
    precision = overlap / sum(cgrams.values()) if cgrams else 0.0
    return recall, precision


def entropy(p):
    p = np.asarray(p)
    return float(-(p * np.log(p)).sum())


def make_thread(comment_likes, thread_id="t"):
    return CleanThread(
        id=thread_id,
        title="some news title",
        comments=[CleanComment(text, likes) for text, likes in comment_likes],
    )


class TestNgramOverlap:
    def test_reference_values(self):
        assert _ngram_overlap(_ngrams(list("abcab"), 2), _ngrams(list("abd"), 2)) == (1, 4, 2)
        assert _ngram_overlap(_ngrams([], 1), _ngrams(["a"], 1)) == (0, 0, 1)
        assert _ngram_overlap(_ngrams(["a"], 2), _ngrams(["a"], 2)) == (0, 0, 0)


class TestRougeN:
    def test_identity(self):
        score = rouge_n("the cat sat", "the cat sat", 1)
        assert score.recall == 1.0 and score.precision == 1.0 and score.f1 == 1.0

    def test_hand_counted(self):
        score = rouge_n("the cat", "the cat sat", 1)
        assert score.recall == pytest.approx(2 / 3)
        assert score.precision == 1.0

    def test_disjoint(self):
        score = rouge_n("alpha beta", "gamma delta", 1)
        assert score.recall == 0.0 and score.precision == 0.0 and score.f1 == 0.0

    def test_case_and_punctuation_insensitive(self):
        assert rouge_n("The CAT!", "the cat", 1).recall == 1.0

    def test_invalid_order(self):
        with pytest.raises(MetricError):
            rouge_n("a", "a", 0)

    def test_oracle_equivalence_fuzzed(self):
        """Exact agreement with the brute-force counter on 1000 pairs."""
        rng = np.random.default_rng(13)
        vocab = ["gato", "perro", "casa", "azul", "rojo!", "Sol,", "luna"]
        for _ in range(1000):
            cand = " ".join(rng.choice(vocab, size=rng.integers(0, 15)))
            ref = " ".join(rng.choice(vocab, size=rng.integers(0, 15)))
            for n in (1, 2):
                mine = rouge_n(cand, ref, n)
                recall, precision = brute_force_rouge(cand, ref, n)
                assert mine.recall == recall
                assert mine.precision == precision

    def test_recall_precision_symmetry(self):
        rng = np.random.default_rng(14)
        vocab = ["uno", "dos", "tres", "cuatro"]
        for _ in range(200):
            a = " ".join(rng.choice(vocab, size=rng.integers(1, 10)))
            b = " ".join(rng.choice(vocab, size=rng.integers(1, 10)))
            assert rouge_n(a, b, 1).recall == rouge_n(b, a, 1).precision


class TestXentRouge:
    def test_worked_example_exact(self):
        assert cross_entropy([0.75, 0.25], [0.5, 0.5]) == pytest.approx(math.log(2), abs=1e-12)

    def test_uniform_likes_identical_scores(self):
        thread = make_thread([("el gato azul salta muy alto", 1), ("el gato azul salta muy alto", 1)])
        xent, likes_dist, rouge_dist = xent_rouge("el gato azul", thread)
        assert xent == pytest.approx(math.log(2), abs=1e-12)
        np.testing.assert_allclose(likes_dist, [0.5, 0.5])
        np.testing.assert_allclose(rouge_dist, [0.5, 0.5])

    def test_matching_distributions_reach_entropy(self):
        thread = make_thread([("palabra una dos tres", 5), ("palabra una dos tres", 5)])
        xent, likes_dist, _ = xent_rouge("palabra una", thread)
        assert xent == pytest.approx(entropy(likes_dist), abs=1e-12)

    def test_gibbs_bound_fuzzed(self):
        """xent >= entropy(likes_dist); equality only when the distributions agree."""
        rng = np.random.default_rng(15)
        words = ["uno", "dos", "tres", "cuatro", "cinco", "seis"]
        for _ in range(1000):
            n_comments = int(rng.integers(1, 6))
            thread = make_thread(
                [
                    (" ".join(rng.choice(words, size=rng.integers(1, 8))), int(rng.integers(0, 50)))
                    for _ in range(n_comments)
                ]
            )
            summary = " ".join(rng.choice(words, size=rng.integers(0, 10)))
            xent, likes_dist, rouge_dist = xent_rouge(summary, thread)
            bound = entropy(likes_dist)
            assert xent >= bound - 1e-12
            if abs(xent - bound) < 1e-9:
                np.testing.assert_allclose(likes_dist, rouge_dist, atol=1e-4)

    def test_no_comments_rejected(self):
        with pytest.raises(MetricError):
            xent_rouge("x", CleanThread(id="t", title="x", comments=[]))


class TestWeightedRecall:
    def test_equal_likes_is_arithmetic_mean(self):
        thread = make_thread([("a b c d", 3), ("a q w e", 3)])
        # recalls: 4/4 and 1/4 -> mean 0.625
        assert weighted_recall("a b c d", thread) == pytest.approx((1.0 + 0.25) / 2)

    def test_zero_weight_comment_ignored(self):
        # recalls 0.8 and 0.1, likes 10 and 0
        thread = make_thread([("a b c d x", 10), ("a q w e r t y u i o", 0)])
        assert weighted_recall("a b c d", thread) == pytest.approx(0.8)

    def test_hand_computed_weighting(self):
        # recalls 0.5 and 0.9, likes 3 and 1 -> (1.5 + 0.9) / 4 = 0.6
        thread = make_thread([("a b x y", 3), ("p q r s t u v w zz a", 1)])
        summary = "a b p q r s t u v w"
        assert rouge_n(summary, thread.comments[0].text, 1).recall == pytest.approx(0.5)
        assert rouge_n(summary, thread.comments[1].text, 1).recall == pytest.approx(0.9)
        assert weighted_recall(summary, thread) == pytest.approx(0.6)

    def test_zero_total_likes_undefined(self):
        thread = make_thread([("a b c d e", 0)])
        with pytest.raises(MetricError, match="zero total likes"):
            weighted_recall("a", thread)

    def test_bounded_by_extreme_recalls(self):
        rng = np.random.default_rng(16)
        words = ["w1", "w2", "w3", "w4", "w5"]
        for _ in range(200):
            thread = make_thread(
                [
                    (" ".join(rng.choice(words, size=rng.integers(1, 6))), int(rng.integers(0, 9)))
                    for _ in range(rng.integers(1, 5))
                ]
            )
            if sum(thread.likes) == 0:
                continue
            summary = " ".join(rng.choice(words, size=rng.integers(1, 6)))
            recalls = [rouge_n(summary, c.text, 1).recall for c in thread.comments]
            rw = weighted_recall(summary, thread)
            assert min(recalls) - 1e-12 <= rw <= max(recalls) + 1e-12
            report = evaluate_thread(summary, summary, thread)
            xent, likes_dist, rouge_dist = xent_rouge(summary, thread)
            assert report.per_comment_rouge == recalls
            assert report.xent == xent
            assert report.likes_dist == likes_dist.tolist()
            assert report.rouge_dist == rouge_dist.tolist()
            assert report.recall_w == rw
            assert report.title_rouge == title_rouge(summary, thread.title)


class TestSummaryCountedOnce:
    @pytest.mark.parametrize("n", [1, 2])
    def test_scores_equal_rouge_n_per_text(self, n):
        """evaluate_thread counts the summary's n-grams once for all its
        comments; every recall is still rouge_n's against that comment, bit
        for bit, and the title's rouge_n's against the full summary."""
        rng = np.random.default_rng(9)
        words = ["la", "casa", "azul", "Casa,", "cielo", "sol!", "luna", "mar"]
        for _ in range(100):
            thread = make_thread([
                (" ".join(rng.choice(words, size=int(rng.integers(0, 12)))), int(rng.integers(0, 9)))
                for _ in range(int(rng.integers(1, 8)))
            ])
            summary = " ".join(rng.choice(words, size=int(rng.integers(0, 15))))
            full = "some title | " + summary
            report = evaluate_thread(summary, full, thread, n=n)
            assert report.per_comment_rouge == [rouge_n(summary, c.text, n).recall for c in thread.comments]
            assert report.title_rouge == rouge_n(full, thread.title, n).recall


class TestTitleRouge:
    def test_summary_containing_title(self):
        assert title_rouge("prefix tax reform vote suffix", "tax reform vote") == 1.0

    def test_empty_summary(self):
        assert title_rouge("", "tax reform vote") == 0.0

    def test_hand_counted(self):
        assert title_rouge("the vote on tax", "tax reform vote") == pytest.approx(2 / 3)


class TestCharacterize:
    def test_lexical_diversity(self):
        thread = CleanThread(id="t", title="", comments=[CleanComment("a b c a", 1)])
        feats = characterize(thread, [0])
        assert feats.ld_thread == pytest.approx(0.75)
        assert feats.ld_salient == pytest.approx(0.75)

    def test_equal_likes_zero_std(self):
        thread = make_thread([("x y z w v", 4), ("p q r s t", 4)])
        assert characterize(thread, [0]).likes_std == 0.0

    def test_hand_computed_features(self):
        thread = CleanThread(
            id="t",
            title="dos palabras",
            comments=[
                CleanComment("uno dos tres", 8),
                CleanComment("uno uno", 2),
                CleanComment("cuatro cinco seis siete", 0),
            ],
        )
        feats = characterize(thread, [0, 2])
        assert feats.thread_length == 2 + 3 + 2 + 4
        assert feats.salient_comment_length == 7
        assert feats.n_comments == 3
        # distinct: dos palabras uno tres cuatro cinco seis siete = 8 of 11
        assert feats.ld_thread == pytest.approx(8 / 11)
        assert feats.ld_salient == pytest.approx(1.0)
        # normalized likes (1, 0.25, 0) -> population std
        expected = np.std([1.0, 0.25, 0.0])
        assert feats.likes_std == pytest.approx(expected)

    def test_bad_index(self):
        thread = make_thread([("a b c d e", 1)])
        with pytest.raises(MetricError):
            characterize(thread, [5])


def report_with(xent, thread_id="t", thread_length=10):
    feats = CharacterizationFeatures(
        thread_length=thread_length,
        salient_comment_length=3,
        n_comments=2,
        ld_thread=0.5,
        ld_salient=0.7,
        likes_std=0.2,
    )
    return EvalReport(
        thread_id=thread_id,
        per_comment_rouge=[0.1],
        likes_dist=[1.0],
        rouge_dist=[1.0],
        xent=xent,
        recall_w=0.5,
        title_rouge=0.4,
        features=feats,
    )


class TestQuartileReport:
    def test_eight_reports_give_quartiles_of_two(self):
        reports = [report_with(x / 10, thread_id=f"t{x}") for x in range(8)]
        rows = quartile_report(reports)
        assert [r["n_threads"] for r in rows] == [2, 2, 2, 2]
        assert rows[0]["xent"] < rows[3]["xent"]

    def test_identical_reports_equal_quartiles(self):
        reports = [report_with(0.3, thread_id=f"t{i}") for i in range(8)]
        rows = quartile_report(reports)
        assert rows[0]["thread_length"] == rows[3]["thread_length"]
        assert rows[0]["xent"] == rows[3]["xent"]

    def test_tie_break_deterministic(self):
        reports = [report_with(0.5, thread_id=f"t{i}", thread_length=i) for i in range(8)]
        rows1 = quartile_report(list(reversed(reports)))
        rows2 = quartile_report(reports)
        assert rows1 == rows2

    def test_sizes_differ_by_at_most_one(self):
        for count in (4, 5, 9, 11):
            reports = [report_with(i * 0.01, thread_id=f"t{i:02d}") for i in range(count)]
            sizes = [r["n_threads"] for r in quartile_report(reports)]
            assert sum(sizes) == count
            assert max(sizes) - min(sizes) <= 1

    def test_too_few_reports(self):
        with pytest.raises(MetricError):
            quartile_report([report_with(0.1)] * 3)


class TestEvaluateFold:
    """evaluate_fold with the generation step stubbed out."""

    class FakeState:
        from threadsum.training import get_variant

        variant = get_variant(5)
        params = None

    def patch_summarize(self, monkeypatch, fn):
        import threadsum.decoding as dec

        monkeypatch.setattr(dec, "summarize", fn)

    def test_single_thread_aggregates_equal_thread_metrics(self, monkeypatch):
        from threadsum.evaluation import evaluate_fold

        thread = make_thread([("uno dos tres cuatro cinco", 4), ("seis siete ocho nueve diez", 1)])
        summary = thread.comments[0].text

        self.patch_summarize(
            monkeypatch,
            lambda state, vocab, t, cfg, provide_likes=False: {
                "thread_id": t.id, "title_part": "", "comment_parts": [summary], "raw": summary,
                "variant": 5,
            },
        )
        reports, aggregates, skipped = evaluate_fold(self.FakeState(), [thread], None, None)
        assert skipped == 0
        assert len(reports) == 1
        assert aggregates["xent"] == reports[0].xent
        assert aggregates["recall_w"] == reports[0].recall_w
        # verbatim copy of the most-liked comment scores recall 1.0 on it
        assert reports[0].per_comment_rouge[0] == 1.0

    def test_failed_threads_are_skipped_and_counted(self, monkeypatch):
        from threadsum.evaluation import evaluate_fold

        good = make_thread([("uno dos tres cuatro cinco", 2)], thread_id="good")

        def flaky(state, vocab, t, cfg, provide_likes=False):
            if t.id == "bad":
                raise ModelError("cannot encode")
            return {"thread_id": t.id, "title_part": "", "comment_parts": ["uno dos"],
                    "raw": "uno dos", "variant": 5}

        self.patch_summarize(monkeypatch, flaky)
        bad = make_thread([("x y z w v", 1)], thread_id="bad")
        reports, _, skipped = evaluate_fold(self.FakeState(), [good, bad], None, None)
        assert skipped == 1
        assert [r.thread_id for r in reports] == ["good"]

    def test_unexpected_errors_propagate(self, monkeypatch):
        """Only model, decoding and tokenizer errors count as skipped threads;
        anything else is a bug and must surface."""
        from threadsum.evaluation import evaluate_fold

        def broken(state, vocab, t, cfg, provide_likes=False):
            raise RuntimeError("bug in the decoder")

        self.patch_summarize(monkeypatch, broken)
        thread = make_thread([("uno dos tres cuatro cinco", 2)])
        with pytest.raises(RuntimeError, match="bug in the decoder"):
            evaluate_fold(self.FakeState(), [thread], None, None)

    def test_zero_like_threads_excluded_from_recall_mean(self, monkeypatch):
        import math

        from threadsum.evaluation import evaluate_fold

        liked = make_thread([("uno dos tres cuatro cinco", 5)], thread_id="a")
        unliked = make_thread([("uno dos tres cuatro cinco", 0)], thread_id="b")
        self.patch_summarize(
            monkeypatch,
            lambda state, vocab, t, cfg, provide_likes=False: {
                "thread_id": t.id, "title_part": "", "comment_parts": ["uno dos tres cuatro cinco"],
                "raw": "uno dos tres cuatro cinco", "variant": 5,
            },
        )
        reports, aggregates, _ = evaluate_fold(self.FakeState(), [liked, unliked], None, None)
        assert math.isnan(reports[1].recall_w)
        assert aggregates["recall_w"] == 1.0
