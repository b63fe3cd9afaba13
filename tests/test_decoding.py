"""Beam search against exhaustive enumeration, greedy equivalence, blocking."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from threadsum.corpus import CleanComment, CleanThread
from threadsum.decoding import (
    DecodeConfig,
    DecodeError,
    Hypothesis,
    beam_search,
    beam_search_fn,
    blocked_pairs,
    blocked_tokens,
    length_penalty,
    normalized_score,
    summarize,
)
from threadsum.model import (
    IncrementalDecoder,
    ModelConfig,
    ModelParams,
    attention_weights,
    decode_step,
    encode_thread,
    init_params,
)
from threadsum.tokenizer import BOS, EOS, SEP, SPECIAL_TOKENS, Vocab, encode
from threadsum.training import get_variant, new_state

V = 5  # the specials alone form a 5-token vocabulary for table models


def table_model(seed: int):
    """Next-token distribution derived deterministically from the prefix."""

    def step(prefix):
        key = seed
        for t in prefix:
            key = (key * 31 + t + 7) % (2**63)
        rng = np.random.default_rng(key)
        logits = rng.normal(0.0, 2.0, size=V)
        logits[0] -= 6.0  # keep [PAD] unlikely but possible
        e = np.exp(logits - logits.max())
        return e / e.sum()

    return step


def oracle_blocked(ids, k):
    if k == 0 or len(ids) < k - 1:
        return set()
    grams = {tuple(ids[i : i + k]) for i in range(len(ids) - k + 1)}
    tail = tuple(ids[-(k - 1):]) if k > 1 else ()
    return {g[-1] for g in grams if g[:-1] == tail}


def enumerate_all(step, cfg):
    """Every reachable finished sequence with its normalized score."""
    results = []
    stack = [((BOS,), 0.0)]
    while stack:
        ids, logp = stack.pop()
        n_gen = len(ids) - 1
        if (ids[-1] == EOS and n_gen > 0) or n_gen == cfg.max_out_len:
            results.append((logp / length_penalty(n_gen, cfg.length_penalty_alpha), ids))
            continue
        probs = step(list(ids))
        banned = oracle_blocked(ids, cfg.block_ngram)
        for t in range(V):
            if t in banned or probs[t] <= 0.0:
                continue
            stack.append((ids + (t,), logp + math.log(probs[t])))
    return results


def greedy_decode(step, cfg):
    """Independent greedy reference: argmax after blocking until [EOS]."""
    ids = (BOS,)
    for _ in range(cfg.max_out_len):
        probs = np.array(step(list(ids)), dtype=float)
        banned = oracle_blocked(ids, cfg.block_ngram)
        if banned:
            probs[list(banned)] = 0.0
        if probs.max() <= 0.0:
            break
        order = np.lexsort((np.arange(V), -np.log(probs, where=probs > 0, out=np.full(V, -np.inf))))
        token = int(order[0])
        ids = ids + (token,)
        if token == EOS:
            break
    return ids


class TestBeamEngine:
    def test_exhaustive_oracle_equivalence(self):
        """With beam >= |V|^max_out_len the search returns the true argmax."""
        cfg = DecodeConfig(beam_size=V**4, block_ngram=3, max_out_len=4, length_penalty_alpha=0.6)
        for seed in range(10):
            step = table_model(seed)
            hyps = beam_search_fn(step, cfg, V)
            best_score, best_ids = max(enumerate_all(step, cfg))
            top = hyps[0]
            assert normalized_score(top, cfg.length_penalty_alpha) == pytest.approx(
                best_score, abs=1e-9
            )
            assert top.ids == best_ids

    def test_beam_one_equals_greedy(self):
        cfg = DecodeConfig(beam_size=1, block_ngram=3, max_out_len=12)
        for seed in range(20):
            step = table_model(seed + 100)
            top = beam_search_fn(step, cfg, V)[0]
            assert top.ids == greedy_decode(step, cfg)

    def test_no_repeated_ngram_in_any_output(self):
        for k in (2, 3):
            cfg = DecodeConfig(beam_size=4, block_ngram=k, max_out_len=16)
            for seed in range(15):
                hyps = beam_search_fn(table_model(seed + 200), cfg, V)
                for hyp in hyps:
                    grams = [hyp.ids[i : i + k] for i in range(len(hyp.ids) - k + 1)]
                    assert len(grams) == len(set(grams)), hyp.ids

    def test_blocking_disabled(self):
        cfg = DecodeConfig(beam_size=2, block_ngram=0, max_out_len=8)
        hyps = beam_search_fn(table_model(999), cfg, V)
        assert hyps  # no crash, blocking off is allowed

    def test_monotone_finished_pool(self):
        """The best finished score never decreases while the search runs."""
        cfg = DecodeConfig(beam_size=4, block_ngram=3, max_out_len=20)
        for seed in range(10):
            trace = []
            beam_search_fn(table_model(seed + 300), cfg, V, trace=trace)
            assert all(b >= a - 1e-12 for a, b in zip(trace, trace[1:]))

    def test_beam_dominates_greedy(self):
        cfg5 = DecodeConfig(beam_size=5, block_ngram=3, max_out_len=10)
        for seed in range(30):
            step = table_model(seed + 400)
            top = beam_search_fn(step, cfg5, V)[0]
            greedy_ids = greedy_decode(step, cfg5)
            greedy_logp = 0.0
            for i in range(1, len(greedy_ids)):
                greedy_logp += math.log(step(list(greedy_ids[:i]))[greedy_ids[i]])
            greedy_hyp = Hypothesis(ids=greedy_ids, log_prob=greedy_logp, finished=True)
            assert normalized_score(top, cfg5.length_penalty_alpha) >= normalized_score(
                greedy_hyp, cfg5.length_penalty_alpha
            ) - 1e-12

    def test_always_returns_a_hypothesis(self):
        def dead_step(prefix):
            p = np.zeros(V)
            p[PAD_like] = 1.0
            return p

        PAD_like = 0
        cfg = DecodeConfig(beam_size=2, block_ngram=2, max_out_len=4)
        hyps = beam_search_fn(dead_step, cfg, V)
        assert len(hyps) >= 1
        assert hyps[0].finished

    def test_truncated_hypothesis_marked_finished_without_eos(self):
        def never_eos(prefix):
            p = np.full(V, 1.0 / V)
            p[EOS] = 0.0
            return p / p.sum()

        cfg = DecodeConfig(beam_size=2, block_ngram=0, max_out_len=5)
        hyps = beam_search_fn(never_eos, cfg, V)
        assert all(h.finished for h in hyps)
        assert all(h.ids[-1] != EOS for h in hyps)
        assert all(len(h.ids) - 1 <= 5 for h in hyps)

    def test_config_validation(self):
        with pytest.raises(DecodeError):
            DecodeConfig(beam_size=0)
        with pytest.raises(DecodeError):
            DecodeConfig(block_ngram=1)

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf, -0.5])
    def test_length_penalty_alpha_must_be_finite_and_non_negative(self, alpha):
        """A NaN alpha would rank every hypothesis by a NaN score."""
        with pytest.raises(DecodeError, match="length_penalty_alpha"):
            DecodeConfig(length_penalty_alpha=alpha)


class TestBadDistributions:
    """A step whose output is not one distribution per live prefix fails
    with DecodeError instead of being ranked."""

    def test_wrong_width(self):
        def wide(prefix):
            return np.full(V + 1, 1.0 / (V + 1))

        with pytest.raises(DecodeError, match=rf"shape \(1, {V + 1}\), expected \(1, {V}\)"):
            beam_search_fn(wide, DecodeConfig(beam_size=2), V)

    @pytest.mark.parametrize("bad", [np.nan, -0.125, np.inf])
    def test_nan_negative_or_infinite_entry(self, bad):
        """The second step's live rows start with [BOS, t]; the row of the
        prefix ending in [SEP] is broken."""

        def step(prefix):
            p = np.full(V, 1.0 / V)
            if prefix[-1] == SEP:
                p[1] = bad
            return p

        with pytest.raises(DecodeError, match="NaN, negative or infinite"):
            beam_search_fn(step, DecodeConfig(beam_size=V, block_ngram=0), V)

    def test_valid_rows_still_pass(self):
        """All-zero rows and rows that do not sum to one are accepted."""

        def step(prefix):
            return np.zeros(V) if len(prefix) > 2 else np.full(V, 0.5)

        hyps = beam_search_fn(step, DecodeConfig(beam_size=2, block_ngram=0), V)
        assert hyps[0].finished


def reference_search(step_all, cfg, vocab_size, trace=None):
    """The list-based search loop, the ranking oracle for the array loop of
    decoding._search: one Hypothesis per candidate, a full lexsort per row,
    blocked_tokens per hypothesis and tuple-keyed sorts."""
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


def per_prefix(step_fn):
    """reference_search's step_all over a per-prefix function, called once
    per live prefix as beam_search_fn calls it."""
    return lambda prefixes: np.stack([np.asarray(step_fn(list(p)), dtype=np.float64) for p in prefixes])


def cached(decoder):
    """reference_search's step_all over an IncrementalDecoder: each live
    prefix's parent row is looked up among the previous step's prefixes."""
    rows = {(): 0}

    def step_all(prefixes):
        nonlocal rows
        parents = [rows[p[:-1]] for p in prefixes]
        rows = {p: row for row, p in enumerate(prefixes)}
        return decoder.step(np.array(prefixes, dtype=np.int64), np.array(parents))

    return step_all


TIE_V = 7


def _prefix_rng(kind, prefix):
    key = sum(ord(c) for c in kind)
    for t in prefix:
        key = (key * 31 + t + 7) % (2**63)
    return np.random.default_rng(key)


def tie_model(kind):
    """Deterministic next-token tables whose rankings are full of exact ties."""

    def step(prefix):
        rng = _prefix_rng(kind, prefix)
        if kind == "eighths":  # probabilities in multiples of 1/8, zeros included
            return rng.multinomial(8, np.full(TIE_V, 1.0 / TIE_V)) / 8.0
        if kind == "uniform":
            return np.full(TIE_V, 1.0 / TIE_V)
        if kind == "sparse":  # fewer nonzero tokens than most beams
            p = np.zeros(TIE_V)
            support = rng.choice(TIE_V, size=int(rng.integers(1, 3)), replace=False)
            p[support] = rng.multinomial(4, np.full(len(support), 1.0 / len(support))) / 4.0
            return p
        # "emptied": two tokens only, never [EOS], so blocking empties rows
        p = np.zeros(TIE_V)
        p[[5, 6]] = 0.5
        return p

    return step


def assert_same_ranking(got, want):
    assert [h.ids for h in got] == [h.ids for h in want]
    assert [h.log_prob for h in got] == [h.log_prob for h in want]
    assert [h.finished for h in got] == [h.finished for h in want]


class TestReferenceSearch:
    """The array search ranks exactly as the list-based loop, ties included."""

    @pytest.mark.parametrize("kind", ["eighths", "uniform", "sparse", "emptied"])
    @pytest.mark.parametrize("alpha", [0.0, 0.6, 1.0])
    @pytest.mark.parametrize("block_ngram", [0, 2, 3, 4])
    def test_tie_heavy_tables(self, kind, alpha, block_ngram):
        step = tie_model(kind)
        for beam_size in (1, 3, TIE_V + 2):
            cfg = DecodeConfig(beam_size, block_ngram, max_out_len=6, length_penalty_alpha=alpha)
            got_trace, want_trace = [], []
            got = beam_search_fn(step, cfg, TIE_V, trace=got_trace)
            want = reference_search(per_prefix(step), cfg, TIE_V, trace=want_trace)
            assert_same_ranking(got, want)
            assert got_trace == want_trace

    def test_random_tables(self):
        for seed in range(20):
            step = table_model(seed + 500)
            for beam_size, block_ngram in ((2, 2), (4, 3), (V + 1, 0)):
                cfg = DecodeConfig(beam_size, block_ngram, max_out_len=10)
                want = reference_search(per_prefix(step), cfg, V)
                assert_same_ranking(beam_search_fn(step, cfg, V), want)



@st.composite
def id_matrices(draw):
    """Small-alphabet id matrices, so k-grams repeat, with lengths below,
    at and above k - 1."""
    k = draw(st.sampled_from([2, 3, 4]))
    n_rows = draw(st.integers(1, 5))
    length = draw(st.integers(1, 12))
    alphabet = draw(st.integers(3, 5))
    row = st.lists(st.integers(0, alphabet - 1), min_size=length, max_size=length)
    rows = draw(st.lists(row, min_size=n_rows, max_size=n_rows))
    return np.array(rows, dtype=np.int64), k


@given(id_matrices())
@settings(max_examples=400, deadline=None)
def test_blocked_pairs_equal_blocked_tokens_on_every_row(case):
    ids, k = case
    rows, tokens = blocked_pairs(ids, k)
    for r, row in enumerate(ids.tolist()):
        assert set(tokens[rows == r].tolist()) == blocked_tokens(tuple(row), k)


def tiny_vocab_and_thread():
    chars = "abcdef"
    alphabet = sorted({c for c in chars} | {c + "</w>" for c in chars})
    vocab = Vocab(id_to_token=SPECIAL_TOKENS + tuple(alphabet))
    thread = CleanThread(
        id="t1",
        title="ab cd",
        comments=[CleanComment("ab cd ef ab cd", 5), CleanComment("ef ef ab cd ab", 1)],
    )
    return vocab, thread


class TestModelBeamSearch:
    def test_runs_on_model_and_is_deterministic(self):
        vocab, thread = tiny_vocab_and_thread()
        cfg_model = ModelConfig(
            vocab_size=len(vocab), d_model=16, n_enc_blocks=1, n_dec_blocks=1,
            n_heads=2, d_ff=32, max_len=32, dropout=0.0, label_smoothing=0.0,
        )
        params = init_params(cfg_model, seed=1)
        seq = encode(vocab, [thread.title] + [c.text for c in thread.comments], max_len=32)
        encoded = encode_thread(params, seq, attention_weights(thread))
        cfg = DecodeConfig(beam_size=3, block_ngram=3, max_out_len=8)
        a = beam_search(params, encoded.enc_att, cfg)
        b = beam_search(params, encoded.enc_att, cfg)
        assert [h.ids for h in a] == [h.ids for h in b]
        assert a[0].ids[0] == BOS

    def test_cached_search_equals_per_prefix_reference(self):
        """beam_search's cached decoder ranks exactly the hypotheses that the
        per-prefix search over decode_step ranks, including a budget cut by
        max_len."""
        vocab, thread = tiny_vocab_and_thread()
        cfg_model = ModelConfig(
            vocab_size=len(vocab), d_model=16, n_enc_blocks=1, n_dec_blocks=2,
            n_heads=2, d_ff=32, max_len=12, dropout=0.0, label_smoothing=0.0,
        )
        seq = encode(vocab, [thread.title] + [c.text for c in thread.comments], max_len=12)
        for seed in range(6):
            # weights far from init scale and a raised [EOS] bias give peaked
            # distributions whose hypotheses end at many lengths
            rng = np.random.default_rng(seed)
            shapes = init_params(cfg_model, seed=seed, dtype=np.float64).tensors
            params = ModelParams(cfg_model, {k: rng.normal(0.0, 0.5, v.shape) for k, v in shapes.items()})
            params.tensors["lm_b"][EOS] += 1.0
            enc_att = encode_thread(params, seq, attention_weights(thread)).enc_att
            for beam_size, max_out_len in ((1, 8), (2, 8), (3, 10), (5, 40)):
                cfg = DecodeConfig(beam_size=beam_size, block_ngram=3, max_out_len=max_out_len)
                cached = beam_search(params, enc_att, cfg)
                budget = DecodeConfig(beam_size, 3, min(max_out_len, cfg_model.max_len - 1))
                reference = beam_search_fn(
                    lambda prefix: decode_step(params, enc_att, prefix), budget, len(vocab)
                )
                assert [h.ids for h in cached] == [h.ids for h in reference]
                for a, b in zip(cached, reference):
                    assert a.log_prob == pytest.approx(b.log_prob, rel=0, abs=1e-9)
                    assert a.finished == b.finished

    def test_cached_search_equals_the_reference_loop_exactly(self):
        """Over the same cached decoder, beam_search and the list-based loop
        feed it the same live batches and rank the same hypotheses with the
        same log probabilities."""
        vocab, thread = tiny_vocab_and_thread()
        cfg_model = ModelConfig(
            vocab_size=len(vocab), d_model=16, n_enc_blocks=1, n_dec_blocks=2,
            n_heads=2, d_ff=32, max_len=24, dropout=0.0, label_smoothing=0.0,
        )
        seq = encode(vocab, [thread.title] + [c.text for c in thread.comments], max_len=24)
        for seed in range(4):
            rng = np.random.default_rng(seed)
            shapes = init_params(cfg_model, seed=seed).tensors
            params = ModelParams(
                cfg_model, {k: rng.normal(0.0, 0.5, v.shape).astype(np.float32) for k, v in shapes.items()}
            )
            params.tensors["lm_b"][EOS] += 1.0
            enc_att = encode_thread(params, seq, attention_weights(thread)).enc_att
            for beam_size, block_ngram in ((1, 3), (3, 2), (5, 3), (8, 0)):
                cfg = DecodeConfig(beam_size=beam_size, block_ngram=block_ngram, max_out_len=20)
                want = reference_search(cached(IncrementalDecoder(params, enc_att)), cfg, len(vocab))
                assert_same_ranking(beam_search(params, enc_att, cfg), want)

    def test_empty_encoding_rejected(self):
        cfg_model = ModelConfig(vocab_size=10, d_model=8, n_heads=2, d_ff=16, max_len=16)
        params = init_params(cfg_model, seed=0)
        with pytest.raises(DecodeError):
            beam_search(params, np.zeros((0, 8)), DecodeConfig())


class TestSummarize:
    def make_state(self, variant_id, vocab):
        cfg_model = ModelConfig(
            vocab_size=len(vocab), d_model=16, n_enc_blocks=1, n_dec_blocks=1,
            n_heads=2, d_ff=32, max_len=48, dropout=0.0, label_smoothing=0.0,
        )
        return new_state(cfg_model, get_variant(variant_id), seed=3)

    def test_output_structure(self):
        vocab, thread = tiny_vocab_and_thread()
        state = self.make_state(7, vocab)
        out = summarize(state, vocab, thread, DecodeConfig(beam_size=2, max_out_len=8))
        assert out["thread_id"] == "t1"
        assert isinstance(out["title_part"], str)
        assert isinstance(out["comment_parts"], list)
        assert isinstance(out["raw"], str)
        assert out["variant"] == 7

    def test_deterministic_without_likes(self):
        vocab, thread = tiny_vocab_and_thread()
        state = self.make_state(7, vocab)
        cfg = DecodeConfig(beam_size=2, max_out_len=8)
        assert summarize(state, vocab, thread, cfg) == summarize(state, vocab, thread, cfg)

    def test_title_disabled_variant_has_empty_title_part(self):
        vocab, thread = tiny_vocab_and_thread()
        state = self.make_state(2, vocab)
        out = summarize(state, vocab, thread, DecodeConfig(beam_size=2, max_out_len=8))
        assert out["title_part"] == ""
        assert out["comment_parts"]

    def test_sep_split_assigns_title_part(self):
        """A decoded sequence with a separator yields a non-empty title part
        for title-enabled variants (checked on a hand-built hypothesis)."""
        vocab, thread = tiny_vocab_and_thread()
        state = self.make_state(7, vocab)

        # drive the split logic through summarize by monkey-patching beam_search
        import threadsum.decoding as dec

        a_end = vocab.token_to_id["a</w>"]
        b_end = vocab.token_to_id["b</w>"]
        fake = [Hypothesis(ids=(BOS, a_end, SEP, b_end, EOS), log_prob=-1.0, finished=True)]
        original = dec.beam_search
        dec.beam_search = lambda *args, **kwargs: fake
        try:
            out = summarize(state, vocab, thread, DecodeConfig())
        finally:
            dec.beam_search = original
        assert out["title_part"] == "a"
        assert out["comment_parts"] == ["b"]
        assert out["raw"] == "a | b"
