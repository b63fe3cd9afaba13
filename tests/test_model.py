"""Model forward/backward: attention weighting, encoding, loss and gradients."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from threadsum import layers, model
from threadsum.corpus import CleanComment, CleanThread
from threadsum.model import (
    BLOCK_LAYOUT,
    AttentionWeights,
    IncrementalDecoder,
    ModelConfig,
    ModelError,
    ModelParams,
    NumericsError,
    attention_weights,
    decode_step,
    decoder_logits,
    dropout_draws,
    dropout_keep,
    encode_thread,
    forward_loss,
    init_params,
    param_layout,
    token_weights,
)
from threadsum.tokenizer import BOS, EOS, PAD, SEP, SPECIAL_TOKENS, TokenSeq, Vocab, encode


def thread_with_likes(likes):
    comments = [CleanComment(f"comment number {i} with words", l) for i, l in enumerate(likes)]
    return CleanThread(id="t", title="a title", comments=comments)


TINY = ModelConfig(
    vocab_size=20,
    d_model=8,
    n_enc_blocks=1,
    n_dec_blocks=1,
    n_heads=2,
    d_ff=16,
    max_len=24,
    dropout=0.0,
    label_smoothing=0.1,
)


def tiny_inputs(rng):
    """A 3-text sequence with separators plus a short decoder target."""
    ids = list(rng.integers(5, TINY.vocab_size, size=13))
    ids[4] = SEP
    ids[9] = SEP
    seq = TokenSeq(ids=ids, spans=[(0, 4, 0), (5, 9, 1), (10, 13, 2)])
    weights = AttentionWeights(weights=np.array([1.0, 0.8, 0.3]))
    target = [BOS] + list(rng.integers(5, TINY.vocab_size, size=6)) + [EOS]
    return seq, weights, target


class TestAttentionWeights:
    def test_sqrt_of_normalized_likes(self):
        aw = attention_weights(thread_with_likes([100, 25, 0]))
        np.testing.assert_allclose(aw.weights, [1.0, 1.0, 0.5, 0.0])

    def test_single_comment_is_the_max(self):
        aw = attention_weights(thread_with_likes([7]))
        np.testing.assert_allclose(aw.weights, [1.0, 1.0])

    def test_all_zero_likes(self):
        aw = attention_weights(thread_with_likes([0, 0]))
        np.testing.assert_allclose(aw.weights, [1.0, 0.0, 0.0])

    def test_no_comments_rejected(self):
        with pytest.raises(ModelError, match="no comments"):
            attention_weights(CleanThread(id="t", title="x", comments=[]))

    def test_fuzzed_law(self):
        """Bounds, title weight, max weight, monotonicity, scale invariance."""
        rng = np.random.default_rng(0)
        for _ in range(1000):
            n = int(rng.integers(1, 12))
            likes = rng.integers(0, 1000, size=n).tolist()
            w = attention_weights(thread_with_likes(likes)).weights
            assert w[0] == 1.0
            assert np.all(w >= 0.0) and np.all(w <= 1.0)
            if max(likes) > 0:
                assert w[1 + int(np.argmax(likes))] == 1.0
            order = np.argsort(likes)
            assert np.all(np.diff(np.asarray(w[1:])[order]) >= -1e-15)
            scaled = attention_weights(thread_with_likes([l * 7 for l in likes])).weights
            np.testing.assert_allclose(scaled, w, atol=1e-12)


class TestTokenWeights:
    def test_sep_takes_preceding_text_weight(self):
        seq = TokenSeq(ids=[5, 6, SEP, 7], spans=[(0, 2, 0), (3, 4, 1)])
        w = token_weights(seq, AttentionWeights(weights=np.array([1.0, 0.5])))
        np.testing.assert_allclose(w, [1.0, 1.0, 1.0, 0.5])

    def test_weight_shorter_than_texts_rejected(self):
        seq = TokenSeq(ids=[5, SEP, 6], spans=[(0, 1, 0), (2, 3, 1)])
        with pytest.raises(ModelError, match="attention weights"):
            token_weights(seq, AttentionWeights(weights=np.array([1.0])))

    def test_first_position_outside_every_span_rejected(self):
        """No text precedes position 0 to lend it a weight; it must not wrap
        around to the last position's."""
        seq = TokenSeq(ids=[SEP, 5, 6], spans=[(1, 3, 0)])
        with pytest.raises(ModelError, match="position 0"):
            token_weights(seq, AttentionWeights(weights=np.array([0.5])))

    def test_run_of_uncovered_positions_takes_the_text_before_it(self):
        seq = TokenSeq(ids=[5, SEP, SEP, 6, SEP], spans=[(0, 1, 0), (3, 4, 1)])
        w = token_weights(seq, AttentionWeights(weights=np.array([1.0, 0.25])))
        np.testing.assert_array_equal(w, [1.0, 1.0, 1.0, 0.25, 0.25])

    def test_matches_per_position_loop_on_encoded_threads(self):
        rng = np.random.default_rng(5)
        vocab = Vocab(id_to_token=SPECIAL_TOKENS + tuple(sorted({*"abcde"} | {c + "</w>" for c in "abcde"})))
        for _ in range(200):
            texts = [" ".join("".join(rng.choice(list("abcde"), size=rng.integers(1, 4)))
                              for _ in range(rng.integers(0, 4))) for _ in range(rng.integers(1, 6))]
            seq = encode(vocab, texts, max_len=int(rng.integers(2, 30)))
            w = rng.random(len(texts))
            expected = np.full(len(seq.ids), -1.0)
            for start, end, source in seq.spans:
                expected[start:end] = w[source]
            for pos in range(len(expected)):
                if expected[pos] < 0:
                    expected[pos] = expected[pos - 1]
            np.testing.assert_array_equal(token_weights(seq, AttentionWeights(weights=w)), expected)


class TestEncodeThread:
    def setup_method(self):
        self.rng = np.random.default_rng(1)
        self.params = init_params(TINY, seed=3, dtype=np.float64)
        self.seq, self.weights, _ = tiny_inputs(self.rng)

    def test_all_ones_weights_identity(self):
        ones = AttentionWeights(weights=np.ones(3))
        out = encode_thread(self.params, self.seq, ones)
        assert np.array_equal(out.enc_att, out.enc)

    def test_disable_attention_identity(self):
        out = encode_thread(self.params, self.seq, self.weights, disable_attention=True)
        assert out.enc_att is out.enc or np.array_equal(out.enc_att, out.enc)

    def test_zero_weight_comment_rows_are_zero(self):
        w = AttentionWeights(weights=np.array([1.0, 0.0, 1.0]))
        out = encode_thread(self.params, self.seq, w)
        start, end, _ = self.seq.spans[1]
        assert np.all(out.enc_att[start:end] == 0.0)
        assert not np.all(out.enc[start:end] == 0.0)

    def test_scaling_is_linear(self):
        w1 = AttentionWeights(weights=np.array([1.0, 0.25, 0.5]))
        w2 = AttentionWeights(weights=np.array([2.0, 0.5, 1.0]))
        a = encode_thread(self.params, self.seq, w1)
        b = encode_thread(self.params, self.seq, w2)
        np.testing.assert_allclose(b.enc_att, 2.0 * a.enc_att, rtol=1e-12)

    def test_too_long_sequence_rejected(self):
        ids = [5] * (TINY.max_len + 1)
        seq = TokenSeq(ids=ids, spans=[(0, len(ids), 0)])
        with pytest.raises(ModelError, match="max_len"):
            encode_thread(self.params, seq, AttentionWeights(weights=np.ones(1)))


class TestDecodeStep:
    def setup_method(self):
        self.rng = np.random.default_rng(2)
        self.params = init_params(TINY, seed=4, dtype=np.float64)
        seq, weights, _ = tiny_inputs(self.rng)
        self.enc_att = encode_thread(self.params, seq, weights).enc_att

    def test_valid_distribution(self):
        dist = decode_step(self.params, self.enc_att, [BOS, 6, 7])
        assert dist.shape == (TINY.vocab_size,)
        assert np.all(dist >= 0)
        assert abs(dist.sum() - 1.0) < 1e-5

    def test_zero_params_give_uniform(self):
        zero = ModelParams(TINY, {k: np.zeros_like(v) for k, v in self.params.tensors.items()})
        dist = decode_step(zero, np.zeros_like(self.enc_att), [BOS, 5])
        np.testing.assert_allclose(dist, 1.0 / TINY.vocab_size, atol=1e-12)

    def test_causal_masking(self):
        """Appending tokens after a position leaves its logits unchanged."""
        short = decoder_logits(self.params, self.enc_att, [BOS, 6, 7])
        long = decoder_logits(self.params, self.enc_att, [BOS, 6, 7, 9, 11])
        np.testing.assert_allclose(long[:3], short, atol=1e-12)

    def test_prefix_validation(self):
        with pytest.raises(ModelError, match="non-empty"):
            decode_step(self.params, self.enc_att, [])
        with pytest.raises(ModelError, match="too long"):
            decode_step(self.params, self.enc_att, [BOS] + [5] * TINY.max_len)
        for bad in (-1, TINY.vocab_size):  # numpy indexing would wrap -1 to the last id
            with pytest.raises(ModelError, match="must lie in"):
                decode_step(self.params, self.enc_att, [BOS, 6, bad])


class TestIncrementalDecoder:
    """The cached, batched decoder against decode_step's full-prefix pass."""

    def setup_method(self):
        rng = np.random.default_rng(12)
        self.cfg = ModelConfig(**{**TINY.__dict__, "n_dec_blocks": 2})
        self.params = init_params(self.cfg, seed=13, dtype=np.float64)
        seq, weights, _ = tiny_inputs(rng)
        self.enc_att = encode_thread(self.params, seq, weights).enc_att

    def assert_matches_reference(self, decoder, prefixes, parents):
        dists = decoder.step(np.array(prefixes, dtype=np.int64), np.asarray(parents))
        assert dists.shape == (len(prefixes), self.cfg.vocab_size)
        for prefix, dist in zip(prefixes, dists):
            reference = decode_step(self.params, self.enc_att, list(prefix))
            np.testing.assert_allclose(dist, reference, rtol=0, atol=1e-10)

    def test_shared_and_reordered_parents(self):
        decoder = IncrementalDecoder(self.params, self.enc_att)
        self.assert_matches_reference(decoder, [(BOS,)], [0])
        self.assert_matches_reference(decoder, [(BOS, 6), (BOS, 7), (BOS, 9)], [0, 0, 0])
        # (BOS, 9) is shared by three children and (BOS, 7) dies
        self.assert_matches_reference(
            decoder, [(BOS, 9, 5), (BOS, 6, 8), (BOS, 9, 11), (BOS, 9, 6)], [2, 0, 2, 2]
        )
        self.assert_matches_reference(decoder, [(BOS, 9, 6, 12), (BOS, 9, 5, 12), (BOS, 9, 6, 7)], [3, 0, 3])

    def test_random_beam_trees_up_to_max_len(self):
        rng = np.random.default_rng(14)
        for _ in range(3):
            decoder = IncrementalDecoder(self.params, self.enc_att)
            prefixes, parents = [(BOS,)], [0]
            while len(prefixes[0]) < self.cfg.max_len:
                self.assert_matches_reference(decoder, prefixes, parents)
                n_next = int(rng.integers(1, 6))
                parents = rng.integers(0, len(prefixes), size=n_next)
                prefixes = [
                    prefixes[j] + (int(rng.integers(3, self.cfg.vocab_size)),) for j in parents
                ]

    def test_prefix_validation(self):
        """Each malformed step raises ModelError and leaves the decoder as it was."""
        decoder = IncrementalDecoder(self.params, self.enc_att)
        with pytest.raises(ModelError, match="non-empty"):
            decoder.step(np.zeros((0, 1), dtype=np.int64), np.zeros(0, dtype=np.int64))
        with pytest.raises(ModelError, match="one integer parent per row"):
            decoder.step(np.array([[BOS]]), [0, 0])
        with pytest.raises(ModelError, match="adds one id"):
            decoder.step(np.zeros((1, 0), dtype=np.int64), [0])  # an empty row
        with pytest.raises(ModelError, match="BOS"):
            decoder.step(np.array([[BOS], [EOS]]), [0, 0])  # a first row without [BOS]
        with pytest.raises(ModelError, match="parent rows"):
            decoder.step(np.array([[BOS]]), [1])
        self.assert_matches_reference(decoder, [(BOS,)], [0])
        for parent in (-1, 1):  # numpy indexing would wrap -1 to the last row
            with pytest.raises(ModelError, match="parent rows"):
                decoder.step(np.array([[BOS, 5]]), [parent])
        with pytest.raises(ModelError, match="adds one id"):
            decoder.step(np.array([[BOS, 5, 6]]), [0])  # skips a step
        for bad in (-1, self.cfg.vocab_size):  # numpy indexing would wrap -1 to the last id
            with pytest.raises(ModelError, match="ids must lie in"):
                decoder.step(np.array([[BOS, 5], [BOS, bad]]), [0, 0])
        with pytest.raises(ModelError, match="integer id matrix"):
            decoder.step(np.array([[BOS, 5.0]]), [0])
        self.assert_matches_reference(decoder, [(BOS, 5), (BOS, 6)], [0, 0])

    def test_prefix_at_max_len_rejected(self):
        decoder = IncrementalDecoder(self.params, self.enc_att)
        ids = np.array([[BOS]])
        while ids.shape[1] < self.cfg.max_len:
            decoder.step(ids, [0])
            ids = np.concatenate((ids, [[5]]), axis=1)
        with pytest.raises(ModelError, match="too long"):
            decoder.step(ids, [0])


class SeparateProjectionDecoder:
    """IncrementalDecoder.step as it was before the fused projection, kept as
    the reference the fused step must equal bit for bit: self-attention
    projects q, k and v with three linear_fwd calls.  It checks nothing."""

    def __init__(self, params, enc_att):
        cfg, t = params.config, params.tensors
        self.t, self.n_heads, self.n_blocks = t, cfg.n_heads, cfg.n_dec_blocks
        self.cross_kv = []
        for i in range(cfg.n_dec_blocks):
            k, _ = layers.linear_fwd(enc_att, t[f"dec{i}.cross.Wk"], t[f"dec{i}.cross.bk"])
            v, _ = layers.linear_fwd(enc_att, t[f"dec{i}.cross.Wv"], t[f"dec{i}.cross.bv"])
            self.cross_kv.append((layers._split_heads(k, cfg.n_heads), layers._split_heads(v, cfg.n_heads)))
        empty = np.zeros((1, cfg.n_heads, 0, cfg.d_model // cfg.n_heads), dtype=params.dtype)
        self.kv = [(empty, empty)] * cfg.n_dec_blocks

    def step(self, ids, parents):
        t = self.t
        n, length = ids.shape
        y = t["tok_emb"][ids[:, -1]] + t["pos_emb"][length - 1]
        y, _ = layers.layer_norm_fwd(y, t["dec_emb_ln_g"], t["dec_emb_ln_b"])
        d = y.shape[1]
        heads = (n, self.n_heads, 1, d // self.n_heads)
        kv = []
        for i, (k_enc, v_enc), (k_past, v_past) in zip(range(self.n_blocks), self.cross_kv, self.kv):
            for sub, ln in BLOCK_LAYOUT["dec"]:
                p = {name[len(f"dec{i}.{sub}."):]: w for name, w in t.items() if name.startswith(f"dec{i}.{sub}.")}
                if sub == "ffn":
                    f, _ = layers.ffn_fwd(y, p, train=False)
                elif sub == "self":
                    q, _ = layers.linear_fwd(y, p["Wq"], p["bq"])
                    k, _ = layers.linear_fwd(y, p["Wk"], p["bk"])
                    v, _ = layers.linear_fwd(y, p["Wv"], p["bv"])
                    k = np.concatenate((k_past[parents], k.reshape(heads)), axis=2)
                    v = np.concatenate((v_past[parents], v.reshape(heads)), axis=2)
                    kv.append((k, v))
                    _, ctx = layers.attend(q.reshape(heads), k, v)
                    f, _ = layers.linear_fwd(ctx.reshape(n, d), p["Wo"], p["bo"])
                else:
                    q, _ = layers.linear_fwd(y, p["Wq"], p["bq"])
                    _, ctx = layers.attend(layers._split_heads(q, self.n_heads), k_enc, v_enc)
                    f, _ = layers.linear_fwd(layers._merge_heads(ctx), p["Wo"], p["bo"])
                y, _ = layers.layer_norm_fwd(y + f, t[f"dec{i}.{ln}_g"], t[f"dec{i}.{ln}_b"])
        self.kv = kv
        logits, _ = layers.linear_fwd(y, t["lm_W"], t["lm_b"])
        return layers.softmax(logits.astype(np.float64))


class TestFusedSelfAttentionProjection:
    """IncrementalDecoder.step projects q, k and v with one (d, 3d) matmul;
    its distributions equal those of three separate projections bit for bit."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("d_model, n_heads, n_dec_blocks", [(8, 2, 2), (48, 4, 1)])
    def test_equals_three_separate_projections(self, dtype, d_model, n_heads, n_dec_blocks):
        cfg = ModelConfig(**{**TINY.__dict__, "d_model": d_model, "n_heads": n_heads,
                             "n_dec_blocks": n_dec_blocks, "d_ff": 2 * d_model})
        params = init_params(cfg, seed=40, dtype=dtype)
        rng = np.random.default_rng(41)
        seq, weights, _ = tiny_inputs(rng)
        enc_att = encode_thread(params, seq, weights).enc_att
        fused, separate = IncrementalDecoder(params, enc_att), SeparateProjectionDecoder(params, enc_att)
        ids, parents = np.array([[BOS]]), np.zeros(1, dtype=np.intp)
        shared = reordered = False
        for _ in range(cfg.max_len - 1):
            got, want = fused.step(ids, parents), separate.step(ids, parents)
            assert got.dtype == want.dtype and np.array_equal(got, want)
            parents = rng.integers(0, len(ids), size=int(rng.integers(1, 7)))
            shared |= len(set(parents.tolist())) < len(parents)
            reordered |= bool((np.diff(parents) < 0).any())
            ids = np.concatenate((ids[parents], rng.integers(3, cfg.vocab_size, size=(len(parents), 1))), axis=1)
        assert shared and reordered


class TestLayerNorm:
    def test_equals_the_var_formula_bit_for_bit(self):
        """Taking the variance of the centred input repeats numpy's own var."""
        rng = np.random.default_rng(15)
        for dtype in (np.float32, np.float64):
            for shape in ((5, 48), (53, 48), (3, 128)):
                x = (rng.normal(1.0, 3.0, shape)).astype(dtype)
                gamma = rng.normal(size=shape[-1]).astype(dtype)
                beta = rng.normal(size=shape[-1]).astype(dtype)
                mu = x.mean(axis=-1, keepdims=True)
                var = x.var(axis=-1, keepdims=True)
                expected = gamma * ((x - mu) * (1.0 / np.sqrt(var + 1e-5))) + beta
                out, _ = layers.layer_norm_fwd(x, gamma, beta)
                assert out.dtype == dtype
                np.testing.assert_array_equal(out, expected)

    def test_backward_equals_the_mean_formula_bit_for_bit(self):
        """The backward pass's two row means, taken as sums divided by d,
        repeat ndarray.mean."""
        rng = np.random.default_rng(23)
        for dtype in (np.float32, np.float64):
            for shape in ((5, 48), (53, 48), (3, 128)):
                x = rng.normal(1.0, 3.0, shape).astype(dtype)
                dout = rng.normal(size=shape).astype(dtype)
                gamma = rng.normal(size=shape[-1]).astype(dtype)
                _, cache = layers.layer_norm_fwd(x, gamma, np.zeros_like(gamma))
                xhat, inv_std, _ = cache
                dxhat = dout * gamma
                expected = inv_std * (
                    dxhat
                    - dxhat.mean(axis=-1, keepdims=True)
                    - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
                )
                dx, dgamma, dbeta = layers.layer_norm_bwd(dout, cache)
                assert dx.dtype == dtype
                np.testing.assert_array_equal(dx, expected)
                np.testing.assert_array_equal(dgamma, (dout * xhat).sum(axis=0))
                np.testing.assert_array_equal(dbeta, dout.sum(axis=0))



class TestSoftmax:
    def test_equals_the_max_sum_formula_bit_for_bit(self):
        """Logits of an LM head and causally masked attention scores of the
        decoder step, in both dtypes."""
        rng = np.random.default_rng(18)
        for dtype in (np.float32, np.float64):
            scores = rng.normal(0.0, 3.0, (4, 4, 1, 9)).astype(dtype)
            scores[..., 5:] += layers.causal_mask(9, dtype=dtype)[4, 5:]  # -inf past position 4
            for x in (rng.normal(0.0, 4.0, (5, 420)).astype(dtype), scores):
                e = np.exp(x - np.max(x, axis=-1, keepdims=True))
                expected = e / np.sum(e, axis=-1, keepdims=True)
                out = layers.softmax(x)
                assert out.dtype == dtype
                np.testing.assert_array_equal(out, expected)
            assert (layers.softmax(scores)[..., 5:] == 0.0).all()


class TestForwardLoss:
    def setup_method(self):
        self.rng = np.random.default_rng(5)
        self.params = init_params(TINY, seed=6, dtype=np.float64)
        self.seq, self.weights, self.target = tiny_inputs(self.rng)

    def test_uniform_predictions_give_log_vocab(self):
        """Zero parameters produce uniform predictions; with smoothing off the
        cross-entropy is exactly ln(vocab_size)."""
        cfg = ModelConfig(**{**TINY.__dict__, "label_smoothing": 0.0})
        zero = ModelParams(cfg, {k: np.zeros_like(v) for k, v in self.params.tensors.items()})
        loss, _ = forward_loss(zero, self.seq, self.weights, self.target)
        assert abs(loss - math.log(TINY.vocab_size)) < 1e-9

    def test_matches_independent_formula(self):
        """Loss equals mean KL computed from decoder_logits by hand."""
        enc_att = encode_thread(self.params, self.seq, self.weights).enc_att
        logits = decoder_logits(self.params, enc_att, self.target[:-1])
        logp = logits - np.log(np.exp(logits - logits.max(-1, keepdims=True)).sum(-1, keepdims=True)) - logits.max(-1, keepdims=True)
        gold = self.target[1:]
        eps = TINY.label_smoothing
        V = TINY.vocab_size
        expected_rows = []
        for t, g in enumerate(gold):
            q = np.full(V, eps / (V - 2))
            q[PAD] = 0.0
            q[g] = 1.0 - eps
            expected_rows.append(np.sum(np.where(q > 0, q * np.log(q, where=q > 0, out=np.zeros_like(q)), 0)) - np.sum(q * logp[t]))
        loss, _ = forward_loss(self.params, self.seq, self.weights, self.target)
        assert abs(loss - np.mean(expected_rows)) < 1e-9

    def test_pad_positions_excluded(self):
        padded = self.target[:-1] + [PAD, PAD] + [EOS]
        loss_padded, _ = forward_loss(self.params, self.seq, self.weights, padded)
        assert math.isfinite(loss_padded)

    def test_target_validation(self):
        with pytest.raises(ModelError, match=r"\[BOS\]"):
            forward_loss(self.params, self.seq, self.weights, [5, 6, EOS])
        with pytest.raises(ModelError, match=r"\[BOS\]"):
            forward_loss(self.params, self.seq, self.weights, [BOS, 5, 6])

    def test_non_finite_parameters_detected(self):
        bad = self.params.copy()
        bad.tensors["lm_W"][0, 0] = np.inf
        with pytest.raises(NumericsError):
            forward_loss(bad, self.seq, self.weights, self.target)

    def test_disable_attention_equals_all_ones(self):
        ones = AttentionWeights(weights=np.ones(3))
        loss_disabled, grads_disabled = forward_loss(
            self.params, self.seq, self.weights, self.target, disable_attention=True
        )
        loss_ones, grads_ones = forward_loss(self.params, self.seq, ones, self.target)
        assert loss_disabled == loss_ones
        for name in grads_ones:
            np.testing.assert_array_equal(grads_disabled[name], grads_ones[name])


class TestGradientCheck:
    """Analytic gradients against central finite differences (step 1e-4).

    A parameter matches when |analytic - numeric| <= 1e-4 * max(|analytic|,
    |numeric|) or both are below the finite-difference noise floor of 1e-8.
    """

    def test_all_tensors_match_finite_differences(self):
        rng = np.random.default_rng(7)
        params = init_params(TINY, seed=8, dtype=np.float64)
        seq, weights, target = tiny_inputs(rng)

        _, grads = forward_loss(params, seq, weights, target)

        h = 1e-4
        failures = []
        for name, tensor in params.tensors.items():
            size = tensor.size
            n_sample = min(100, size)
            idx = rng.choice(size, size=n_sample, replace=False)
            for flat_i in idx:
                original = tensor.flat[flat_i]
                tensor.flat[flat_i] = original + h
                up, _ = forward_loss(params, seq, weights, target)
                tensor.flat[flat_i] = original - h
                down, _ = forward_loss(params, seq, weights, target)
                tensor.flat[flat_i] = original
                numeric = (up - down) / (2 * h)
                analytic = grads[name].flat[flat_i]
                err = abs(analytic - numeric)
                if err > 1e-4 * max(abs(analytic), abs(numeric)) and err > 1e-8:
                    failures.append((name, int(flat_i), analytic, numeric))
        assert not failures, f"{len(failures)} mismatches, first: {failures[:3]}"

    def test_gradient_flows_through_attention_scaling(self):
        """Encoder parameters receive gradient from the scaled path."""
        rng = np.random.default_rng(9)
        params = init_params(TINY, seed=10, dtype=np.float64)
        seq, weights, target = tiny_inputs(rng)
        _, grads = forward_loss(params, seq, weights, target)
        assert np.abs(grads["enc0.self.Wq"]).max() > 0
        assert np.abs(grads["tok_emb"]).max() > 0


class TestDeterminism:
    def test_init_reproducible(self):
        a = init_params(TINY, seed=11)
        b = init_params(TINY, seed=11)
        for name in a.tensors:
            np.testing.assert_array_equal(a.tensors[name], b.tensors[name])

    def test_tensor_names_in_init_order(self):
        """The init order fixes the rng draws of every tensor and the byte
        layout of a checkpoint, so it is pinned name by name."""
        config = ModelConfig(vocab_size=10, d_model=8, n_enc_blocks=2, n_dec_blocks=2, n_heads=2, d_ff=16)
        assert list(init_params(config).tensors) == [
            "tok_emb", "pos_emb", "enc_emb_ln_g", "enc_emb_ln_b", "dec_emb_ln_g", "dec_emb_ln_b",
            "enc0.self.Wq", "enc0.self.Wk", "enc0.self.Wv", "enc0.self.Wo",
            "enc0.self.bq", "enc0.self.bk", "enc0.self.bv", "enc0.self.bo",
            "enc0.ln1_g", "enc0.ln1_b", "enc0.ffn.W1", "enc0.ffn.b1", "enc0.ffn.W2", "enc0.ffn.b2",
            "enc0.ln2_g", "enc0.ln2_b",
            "enc1.self.Wq", "enc1.self.Wk", "enc1.self.Wv", "enc1.self.Wo",
            "enc1.self.bq", "enc1.self.bk", "enc1.self.bv", "enc1.self.bo",
            "enc1.ln1_g", "enc1.ln1_b", "enc1.ffn.W1", "enc1.ffn.b1", "enc1.ffn.W2", "enc1.ffn.b2",
            "enc1.ln2_g", "enc1.ln2_b",
            "dec0.self.Wq", "dec0.self.Wk", "dec0.self.Wv", "dec0.self.Wo",
            "dec0.self.bq", "dec0.self.bk", "dec0.self.bv", "dec0.self.bo", "dec0.ln1_g", "dec0.ln1_b",
            "dec0.cross.Wq", "dec0.cross.Wk", "dec0.cross.Wv", "dec0.cross.Wo",
            "dec0.cross.bq", "dec0.cross.bk", "dec0.cross.bv", "dec0.cross.bo", "dec0.ln2_g", "dec0.ln2_b",
            "dec0.ffn.W1", "dec0.ffn.b1", "dec0.ffn.W2", "dec0.ffn.b2", "dec0.ln3_g", "dec0.ln3_b",
            "dec1.self.Wq", "dec1.self.Wk", "dec1.self.Wv", "dec1.self.Wo",
            "dec1.self.bq", "dec1.self.bk", "dec1.self.bv", "dec1.self.bo", "dec1.ln1_g", "dec1.ln1_b",
            "dec1.cross.Wq", "dec1.cross.Wk", "dec1.cross.Wv", "dec1.cross.Wo",
            "dec1.cross.bq", "dec1.cross.bk", "dec1.cross.bv", "dec1.cross.bo", "dec1.ln2_g", "dec1.ln2_b",
            "dec1.ffn.W1", "dec1.ffn.b1", "dec1.ffn.W2", "dec1.ffn.b2", "dec1.ln3_g", "dec1.ln3_b",
            "lm_W", "lm_b",
        ]

    def test_config_validation(self):
        with pytest.raises(ModelError, match="divisible"):
            ModelConfig(vocab_size=10, d_model=10, n_heads=4)
        with pytest.raises(ModelError, match="label_smoothing"):
            ModelConfig(vocab_size=10, label_smoothing=1.0)


class TestParamLayout:
    """param_layout states what init_params allocates: the same names in the
    same order, the same shapes, and each tensor filled as its initializer
    says, the "normal" ones drawn in layout order from the seed's generator."""

    @pytest.mark.parametrize("config", [
        TINY,
        ModelConfig(vocab_size=300),
        ModelConfig(vocab_size=37, d_model=12, n_enc_blocks=2, n_dec_blocks=3, n_heads=3, d_ff=20, max_len=9),
    ], ids=["tiny", "default", "uneven"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_init_params_allocates_the_layout(self, config, dtype):
        layout = param_layout(config)
        tensors = init_params(config, seed=5, dtype=dtype).tensors
        assert list(tensors) == list(layout)
        rng = np.random.default_rng(5)
        for name, (shape, init) in layout.items():
            assert tensors[name].shape == shape and tensors[name].dtype == dtype, name
            expected = {
                "normal": lambda: rng.normal(0.0, 0.02, shape).astype(dtype),
                "zeros": lambda: np.zeros(shape, dtype),
                "ones": lambda: np.ones(shape, dtype),
            }[init]()
            np.testing.assert_array_equal(tensors[name], expected, err_msg=name)


def _arrays(item):
    """The arrays of a layer's output: nested tuples and dicts flattened."""
    if isinstance(item, dict):
        item = tuple(item.values())
    if isinstance(item, tuple):
        for part in item:
            yield from _arrays(part)
    else:
        yield item


class TestDtype:
    """Every layer keeps its input's dtype, so float32 parameters train in
    float32 and the float64 gradient checks stay in float64."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_layer_pairs_keep_dtype(self, dtype):
        rng = np.random.default_rng(12)
        T, d, ff, heads = 5, 8, 16, 2

        def rand(*shape):
            return rng.normal(size=shape).astype(dtype)

        x, dout = rand(T, d), rand(T, d)
        attn = {f"W{n}": rand(d, d) for n in "qkvo"} | {f"b{n}": rand(d) for n in "qkvo"}
        ffn = {"W1": rand(d, ff), "b1": rand(ff), "W2": rand(ff, d), "b2": rand(d)}
        mask = layers.causal_mask(T, dtype=dtype)
        pairs = {
            "linear": (layers.linear_fwd(x, rand(d, d), rand(d)), layers.linear_bwd),
            "layer_norm": (layers.layer_norm_fwd(x, rand(d), rand(d)), layers.layer_norm_bwd),
            "gelu": (layers.gelu_fwd(x), layers.gelu_bwd),
            "ffn": (layers.ffn_fwd(x, ffn), layers.ffn_bwd),
            "attention": (layers.attention_fwd(x, rand(3, d), attn, heads), layers.attention_bwd),
            "self_attention": (layers.attention_fwd(x, x, attn, heads, mask=mask), layers.attention_bwd),
            "dropout": (layers.dropout_fwd(x, 0.25, iter([rng.random(x.shape) >= 0.25])), layers.dropout_bwd),
        }
        for name, ((out, cache), bwd) in pairs.items():
            arrays = list(_arrays((out, bwd(dout, cache))))
            assert {g.dtype for g in arrays} == {np.dtype(dtype)}, name
        assert layers.softmax(x).dtype == dtype

    def test_forward_loss_with_dropout_gives_float32_gradients(self):
        config = ModelConfig(**{**TINY.__dict__, "dropout": 0.1})
        params = init_params(config, seed=13)
        seq, weights, target = tiny_inputs(np.random.default_rng(14))
        _, grads = forward_loss(params, seq, weights, target, rng=np.random.default_rng(15))
        assert {name: g.dtype for name, g in grads.items()} == {name: np.dtype(np.float32) for name in params.tensors}

    def test_float64_dropout_equals_the_float64_mask_bit_for_bit(self):
        x = np.random.default_rng(16).normal(size=(7, 11))
        for p in (0.1, 0.25, 0.5):
            out, cache = layers.dropout_fwd(x, p, iter([np.random.default_rng(17).random(x.shape) >= p]))
            expected_mask = (np.random.default_rng(17).random(x.shape) >= p) / (1.0 - p)
            np.testing.assert_array_equal(layers.dropout_bwd(np.ones_like(x), cache), expected_mask)
            np.testing.assert_array_equal(out, x * expected_mask)


class TestLossHeadWithPad:
    """The closed-form label-smoothed loss head on targets holding [PAD]
    positions, which drop out of the loss and receive no gradient."""

    @staticmethod
    def padded_inputs(seed):
        seq, weights, target = tiny_inputs(np.random.default_rng(seed))
        target[2] = PAD
        target[5] = PAD
        return seq, weights, target

    @pytest.mark.parametrize("eps", [0.0, 0.1])
    def test_gradient_matches_finite_differences(self, eps):
        config = ModelConfig(**{**TINY.__dict__, "label_smoothing": eps})
        params = init_params(config, seed=18, dtype=np.float64)
        seq, weights, target = self.padded_inputs(19)
        _, grads = forward_loss(params, seq, weights, target)
        assert set(grads) == set(params.tensors)

        rng = np.random.default_rng(20)
        h = 1e-4
        failures = []
        for name, tensor in params.tensors.items():
            for flat_i in rng.choice(tensor.size, size=min(30, tensor.size), replace=False):
                original = tensor.flat[flat_i]
                tensor.flat[flat_i] = original + h
                up, _ = forward_loss(params, seq, weights, target)
                tensor.flat[flat_i] = original - h
                down, _ = forward_loss(params, seq, weights, target)
                tensor.flat[flat_i] = original
                numeric = (up - down) / (2 * h)
                analytic = grads[name].flat[flat_i]
                err = abs(analytic - numeric)
                if err > 1e-4 * max(abs(analytic), abs(numeric)) and err > 1e-8:
                    failures.append((name, int(flat_i), analytic, numeric))
        assert not failures, f"{len(failures)} mismatches, first: {failures[:3]}"

    def test_loss_equals_per_row_formula_over_non_pad_rows(self):
        params = init_params(TINY, seed=21, dtype=np.float64)
        seq, weights, target = self.padded_inputs(22)
        enc_att = encode_thread(params, seq, weights).enc_att
        logits = decoder_logits(params, enc_att, target[:-1])
        logp = logits - logits.max(-1, keepdims=True)
        logp = logp - np.log(np.exp(logp).sum(-1, keepdims=True))
        eps, V = TINY.label_smoothing, TINY.vocab_size
        rows = []
        for t, g in enumerate(target[1:]):
            if g == PAD:
                continue
            q = np.full(V, eps / (V - 2))
            q[PAD] = 0.0
            q[g] = 1.0 - eps
            rows.append(sum(q[v] * (math.log(q[v]) - logp[t, v]) for v in range(V) if q[v] > 0))
        assert len(rows) == len(target) - 3
        loss, _ = forward_loss(params, seq, weights, target)
        assert abs(loss - np.mean(rows)) <= 1e-12 * abs(loss)


@pytest.mark.parametrize("vocab_size", [2, 4])
def test_vocab_must_cover_the_special_tokens(vocab_size):
    with pytest.raises(ModelError, match="vocab_size"):
        ModelConfig(**{**TINY.__dict__, "vocab_size": vocab_size})


def chunk_inputs(seed):
    """Parallel lists of three examples with unequal input and target
    lengths; the second target holds [PAD] positions."""
    rng = np.random.default_rng(seed)
    seqs, weights, targets = [], [], []
    for n_in, n_out in ((13, 6), (7, 4), (10, 9)):
        ids = [int(i) for i in rng.integers(5, TINY.vocab_size, size=n_in)]
        cut = n_in // 2
        ids[cut] = SEP
        seqs.append(TokenSeq(ids=ids, spans=[(0, cut, 0), (cut + 1, n_in, 1)]))
        weights.append(AttentionWeights(weights=np.array([1.0, rng.uniform(0.1, 1.0)])))
        targets.append([BOS] + [int(i) for i in rng.integers(5, TINY.vocab_size, size=n_out)] + [EOS])
    targets[1][2] = PAD
    targets[1][3] = PAD
    return seqs, weights, targets


class TestChunk:
    """forward_loss on a chunk: parallel lists of examples run as one pass
    over their stacked rows, with attention kept inside each example."""

    @pytest.mark.parametrize("disable_attention", [False, True])
    def test_gradient_matches_finite_differences(self, disable_attention):
        params = init_params(TINY, seed=24, dtype=np.float64)
        seqs, weights, targets = chunk_inputs(25)

        def loss(p):
            return forward_loss(p, seqs, weights, targets, disable_attention=disable_attention)

        _, grads = loss(params)
        assert set(grads) == set(params.tensors)
        rng = np.random.default_rng(26)
        h = 1e-4
        failures = []
        for name, tensor in params.tensors.items():
            for flat_i in rng.choice(tensor.size, size=min(30, tensor.size), replace=False):
                original = tensor.flat[flat_i]
                tensor.flat[flat_i] = original + h
                up, _ = loss(params)
                tensor.flat[flat_i] = original - h
                down, _ = loss(params)
                tensor.flat[flat_i] = original
                numeric = (up - down) / (2 * h)
                analytic = grads[name].flat[flat_i]
                err = abs(analytic - numeric)
                if err > 1e-4 * max(abs(analytic), abs(numeric)) and err > 1e-8:
                    failures.append((name, int(flat_i), analytic, numeric))
        assert not failures, f"{len(failures)} mismatches, first: {failures[:3]}"

    def test_equals_the_sum_of_its_examples_with_dropout(self):
        """With dropout drawn from one seed, the chunk's loss and gradients
        are the sums of one forward_loss per example, up to reassociation."""
        config = ModelConfig(**{**TINY.__dict__, "dropout": 0.1})
        params = init_params(config, seed=27, dtype=np.float64)
        seqs, weights, targets = chunk_inputs(28)
        chunk_rng, single_rng = np.random.default_rng(29), np.random.default_rng(29)
        loss, grads = forward_loss(params, seqs, weights, targets, rng=chunk_rng)
        total, summed = 0.0, {}
        for example in zip(seqs, weights, targets):
            l, g = forward_loss(params, *example, rng=single_rng)
            total += l
            for name, value in g.items():
                summed[name] = summed[name] + value if name in summed else value
        assert chunk_rng.bit_generator.state == single_rng.bit_generator.state
        assert abs(loss - total) <= 1e-12 * abs(total)
        largest = max(np.abs(g).max() for g in summed.values())
        for name in summed:
            np.testing.assert_allclose(grads[name], summed[name], rtol=0, atol=1e-12 * largest, err_msg=name)

    def test_adds_into_a_given_gradient_dict(self):
        """forward_loss(..., grads=d) returns d and adds into its arrays in
        place: two chunks added into one dict equal the sum of their
        separate dicts bit for bit, in the same key order, tok_emb rows that
        both chunks touch included."""
        params = init_params(TINY, seed=38)
        seqs, weights, targets = chunk_inputs(39)
        first, second = (seqs[:2], weights[:2], targets[:2]), (seqs[2:], weights[2:], targets[2:])
        ids = [{i for s in chunk[0] for i in s.ids} | {i for t in chunk[2] for i in t} for chunk in (first, second)]
        assert (ids[0] & ids[1]) - set(range(len(SPECIAL_TOKENS)))  # ordinary tokens' tok_emb rows both chunks add to
        _, a = forward_loss(params, *first)
        _, b = forward_loss(params, *second)
        d = {}
        assert forward_loss(params, *first, grads=d)[1] is d
        arrays = dict(d)
        assert forward_loss(params, *second, grads=d)[1] is d
        assert list(d) == list(a)
        for name, g in d.items():
            assert g is arrays[name], name
            assert g.dtype == np.float32 and g.tobytes() == (a[name] + b[name]).tobytes(), name

    def test_keep_masks_are_the_per_layer_draws(self):
        """dropout_keep's one draw per example gives the keep masks, and
        leaves the Generator in the state, that drawing each dropout layer's
        (rows, d_model) uniforms in forward order would: the encoder's
        layers, then the decoder's.  forward_loss draws the same from a
        Generator, example after example."""
        config = ModelConfig(**{**TINY.__dict__, "dropout": 0.1})
        params = init_params(config, seed=33)
        seqs, weights, targets = chunk_inputs(34)
        rng, at_once, per_layer = (np.random.default_rng(35) for _ in range(3))
        forward_loss(params, seqs, weights, targets, rng=rng)
        for seq, target in zip(seqs, targets):
            keep = dropout_keep(config, at_once, len(seq.ids), len(target))
            uniforms = [
                per_layer.random((rows, config.d_model)).ravel()
                for kind, rows in (("enc", len(seq.ids)), ("dec", len(target) - 1))
                for _ in range(1 + getattr(config, f"n_{kind}_blocks") * len(BLOCK_LAYOUT[kind]))
            ]
            np.testing.assert_array_equal(keep, np.concatenate(uniforms) >= config.dropout)
            assert len(keep) == dropout_draws(config, len(seq.ids), len(target))
        assert rng.bit_generator.state == at_once.bit_generator.state == per_layer.bit_generator.state

    def test_malformed_keep_masks_rejected(self):
        config = ModelConfig(**{**TINY.__dict__, "dropout": 0.1})
        params = init_params(config, seed=36)
        seqs, weights, targets = chunk_inputs(37)
        keeps = [np.ones(dropout_draws(config, len(s.ids), len(t)), dtype=bool) for s, t in zip(seqs, targets)]
        for bad in (keeps[:2], keeps[:2] + [keeps[2][:-1]], keeps[:2] + [keeps[2].astype(np.float64)]):
            with pytest.raises(ModelError, match="keep mask"):
                forward_loss(params, seqs, weights, targets, rng=bad)


class TestInferenceRunsTheForwardAlone:
    """Inference computes no GELU derivative: with layers.gelu_fwd made to
    raise, encode_thread, decoder_logits and IncrementalDecoder.step still
    run, and give the outputs they give with it in place, while training
    still reaches gelu_fwd through the layers module."""

    def test_no_gelu_derivative_at_inference(self, monkeypatch):
        params = init_params(TINY, seed=38)
        seq, weights, target = tiny_inputs(np.random.default_rng(39))

        def run():
            enc_att = encode_thread(params, seq, weights).enc_att
            decoder = IncrementalDecoder(params, enc_att)
            dists = [decoder.step(np.array([target[: i + 1]]), [0]) for i in range(len(target) - 1)]
            return enc_att, decoder_logits(params, enc_att, target[:-1]), np.concatenate(dists)

        want = run()

        def derivative(x):
            raise AssertionError("GELU's derivative computed")

        monkeypatch.setattr(layers, "gelu_fwd", derivative)
        for got, expected in zip(run(), want):
            assert got.tobytes() == expected.tobytes()
        with pytest.raises(AssertionError, match="derivative computed"):
            forward_loss(params, seq, weights, target)


def reference_attention_weights(thread):
    """model.attention_weights as float64 array expressions, kept as the
    reference that the Python-float form must equal bit for bit."""
    likes = np.asarray(thread.likes, dtype=np.float64)
    max_likes = likes.max()
    comment_w = np.sqrt(likes / max_likes) if max_likes > 0 else np.zeros_like(likes)
    return AttentionWeights(weights=np.concatenate(([1.0], comment_w)))


def reference_token_weights(seq, weights):
    """model.token_weights as array expressions, kept as the reference that
    the span-by-span form must equal bit for bit."""
    w = np.asarray(weights.weights, dtype=np.float64)
    source = np.full(len(seq.ids), -1)
    for start, end, text in seq.spans:
        source[start:end] = text
    nearest = np.maximum.accumulate(np.where(source >= 0, np.arange(len(source)), 0))
    return w[source[nearest]]


TRIM_VOCAB = Vocab(id_to_token=SPECIAL_TOKENS + tuple(sorted({*"abcde"} | {c + "</w>" for c in "abcde"})))


class TestPerExampleWeightsBitForBit:
    """attention_weights and token_weights in Python floats give the bytes
    of their float64 array forms."""

    @given(st.lists(st.one_of(st.integers(0, 9), st.integers(0, 2**53)), min_size=1, max_size=12))
    @example([0])
    @example([0, 0, 0])
    @example([2**53, 2**53 - 1, 1, 0])
    @settings(max_examples=300, derandomize=True, deadline=None)
    def test_attention_weights(self, likes):
        thread = thread_with_likes(likes)
        got = attention_weights(thread).weights
        assert got.dtype == np.float64
        assert got.tobytes() == reference_attention_weights(thread).weights.tobytes()

    @given(
        st.lists(st.text(alphabet="abcde ", max_size=12), min_size=1, max_size=6),
        st.integers(2, 30),
        st.data(),
    )
    @example(["", "ab", ""], 30, None)
    @example(["abc de", "", "a b c d e"], 4, None)
    @settings(max_examples=300, derandomize=True, deadline=None)
    def test_token_weights_on_encoded_threads(self, texts, max_len, data):
        """Threads with empty texts and texts that truncation shortens or
        consumes."""
        seq = encode(TRIM_VOCAB, texts, max_len=max_len)
        if data is None:
            w = [1.0] + [0.5 ** i for i in range(1, len(texts))]
        else:
            w = data.draw(st.lists(st.floats(0.0, 1.0), min_size=len(texts), max_size=len(texts)))
        weights = AttentionWeights(weights=np.array(w))
        if len(seq.ids) and not any(start == 0 < end for start, end, _ in seq.spans):
            with pytest.raises(ModelError, match="position 0"):
                token_weights(seq, weights)
            return
        got = token_weights(seq, weights)
        assert got.dtype == np.float64
        assert got.tobytes() == reference_token_weights(seq, weights).tobytes()

    @pytest.mark.parametrize("spans", [[(0, 2, 0), (1, 4, 1)], [(0, 2, 0), (3, 5, 1)]], ids=["overlap", "outside"])
    def test_spans_not_as_encode_makes_them_rejected(self, spans):
        seq = TokenSeq(ids=[5, 6, SEP, 7], spans=spans)
        with pytest.raises(ModelError, match=r"overlaps an earlier span or lies outside the 4 positions"):
            token_weights(seq, AttentionWeights(weights=np.array([1.0, 0.5])))


class TestEmbeddingScatterBitForBit:
    """The tok_emb gradient's scatter through the flat table equals the 2-D
    np.add.at, each id's rows added in row order."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("start", ["zeros", "random"])
    def test_equals_the_2d_add_at(self, dtype, start):
        rng = np.random.default_rng(61)
        table = np.zeros((7, 48), dtype) if start == "zeros" else rng.normal(size=(7, 48)).astype(dtype)
        ids = rng.integers(0, 7, size=60).tolist()  # every id repeats
        rows = (rng.normal(size=(60, 48)) * 10.0 ** rng.integers(-6, 6, size=(60, 1))).astype(dtype)
        rows[::5] = -0.0
        rows[3, :7] = -0.0
        expected = table.copy()
        np.add.at(expected, ids, rows)
        model._add_rows_at(table, ids, rows)
        assert table.tobytes() == expected.tobytes()


class TestSublayerTable:
    """_sub reads a per-config table of names: the same dict, in the same
    order and of the same arrays, as a scan of every tensor name."""

    @pytest.mark.parametrize("config", [
        ModelConfig(vocab_size=420, d_model=48, n_enc_blocks=1, n_dec_blocks=1, n_heads=4, d_ff=96, max_len=128),
        ModelConfig(vocab_size=8000),
        ModelConfig(vocab_size=20, d_model=8, n_enc_blocks=2, n_dec_blocks=3, n_heads=2, d_ff=16, max_len=24),
    ], ids=["directional", "default", "2+3 blocks"])
    def test_equals_the_scan(self, config):
        params = init_params(config, seed=62)
        prefixes = {f"{kind}{i}.{sub}." for kind, layout in BLOCK_LAYOUT.items()
                    for i in range(getattr(config, f"n_{kind}_blocks")) for sub, _ in layout}
        assert set(model._sublayer_names(config)) == prefixes
        for prefix in prefixes:
            scan = {k[len(prefix):]: v for k, v in params.tensors.items() if k.startswith(prefix)}
            got = model._sub(params, prefix)
            assert list(got) == list(scan)
            assert all(got[key] is scan[key] for key in scan)


def loss_head_inputs(seed, V, n_rows=400):
    """float32 logits of eight examples' rows and gold ids; three rows, one
    of them a whole example's last, are [PAD]."""
    rng = np.random.default_rng(seed)
    lengths = [n_rows // 8] * 8
    lengths[-1] += n_rows - sum(lengths)
    logits = (rng.normal(size=(n_rows, V)) * rng.uniform(0.5, 4.0, size=(n_rows, 1))).astype(np.float32)
    gold = rng.integers(len(SPECIAL_TOKENS), V, size=n_rows)
    gold[[3, 120, n_rows - 1]] = PAD
    return logits, gold, lengths


class TestFloat32LossHead:
    """_smoothed_kl computes in the logits' dtype, so a float32 chunk's loss
    head stays in float32 but for its (rows,)-long statistics."""

    @pytest.mark.parametrize("V", [420, 8000])
    @pytest.mark.parametrize("eps", [0.0, 0.1])
    def test_equals_the_float64_head(self, V, eps):
        cfg = ModelConfig(vocab_size=V, label_smoothing=eps)
        logits, gold, lengths = loss_head_inputs(63, V)
        loss64, d64 = model._smoothed_kl(logits.astype(np.float64), gold, lengths, cfg)
        loss32, d32 = model._smoothed_kl(logits.copy(), gold, lengths, cfg)
        assert d32.dtype == np.float32 and d64.dtype == np.float64
        assert abs(loss32 - loss64) <= 1e-8 * abs(loss64)
        assert np.abs(d32 - d64).max() <= 1e-7
        assert not d32[gold == PAD].any()

    def test_allocates_little_beyond_its_input(self):
        """At (400, 8000), the CLI's default vocabulary, the head allocates
        at most 1.25 times the logits' bytes beyond them, measured by
        tracemalloc: it works in the logits' own array, and keeps only
        (rows,)-long statistics of its own.  A float64 copy of the logits
        alone would be 2.0 times."""
        cfg = ModelConfig(vocab_size=8000)
        logits, gold, lengths = loss_head_inputs(64, 8000)
        tracemalloc.start()
        try:
            model._smoothed_kl(logits, gold, lengths, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * logits.nbytes, f"peak {peak / logits.nbytes:.2f} times the logits"
