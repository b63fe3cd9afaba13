"""Model forward/backward: attention weighting, encoding, loss and gradients."""

import math

import numpy as np
import pytest

from threadsum import layers
from threadsum.corpus import CleanComment, CleanThread
from threadsum.model import (
    AttentionWeights,
    IncrementalDecoder,
    ModelConfig,
    ModelError,
    ModelParams,
    NumericsError,
    attention_weights,
    decode_step,
    decoder_logits,
    encode_thread,
    forward_loss,
    init_params,
    token_weights,
)
from threadsum.tokenizer import BOS, EOS, PAD, SEP, TokenSeq


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


class TestIncrementalDecoder:
    """The cached, batched decoder against decode_step's full-prefix pass."""

    def setup_method(self):
        rng = np.random.default_rng(12)
        self.cfg = ModelConfig(**{**TINY.__dict__, "n_dec_blocks": 2})
        self.params = init_params(self.cfg, seed=13, dtype=np.float64)
        seq, weights, _ = tiny_inputs(rng)
        self.enc_att = encode_thread(self.params, seq, weights).enc_att

    def assert_matches_reference(self, decoder, prefixes):
        dists = decoder.step(prefixes)
        assert dists.shape == (len(prefixes), self.cfg.vocab_size)
        for prefix, dist in zip(prefixes, dists):
            reference = decode_step(self.params, self.enc_att, list(prefix))
            np.testing.assert_allclose(dist, reference, rtol=0, atol=1e-10)

    def test_shared_and_reordered_parents(self):
        decoder = IncrementalDecoder(self.params, self.enc_att)
        self.assert_matches_reference(decoder, [(BOS,)])
        self.assert_matches_reference(decoder, [(BOS, 6), (BOS, 7), (BOS, 9)])
        # (BOS, 9) is shared by three children and (BOS, 7) dies
        self.assert_matches_reference(
            decoder, [(BOS, 9, 5), (BOS, 6, 8), (BOS, 9, 11), (BOS, 9, 6)]
        )
        self.assert_matches_reference(decoder, [(BOS, 9, 6, 12), (BOS, 9, 5, 12), (BOS, 9, 6, 7)])

    def test_random_beam_trees_up_to_max_len(self):
        rng = np.random.default_rng(14)
        for _ in range(3):
            decoder = IncrementalDecoder(self.params, self.enc_att)
            prefixes = [(BOS,)]
            while len(prefixes[0]) < self.cfg.max_len:
                self.assert_matches_reference(decoder, prefixes)
                n_next = int(rng.integers(1, 6))
                parents = rng.integers(0, len(prefixes), size=n_next)
                prefixes = [
                    prefixes[j] + (int(rng.integers(3, self.cfg.vocab_size)),) for j in parents
                ]

    def test_prefix_validation(self):
        decoder = IncrementalDecoder(self.params, self.enc_att)
        with pytest.raises(ModelError, match="non-empty"):
            decoder.step([()])
        with pytest.raises(ModelError, match="BOS"):
            decoder.step([(EOS,)])
        decoder.step([(BOS,)])
        with pytest.raises(ModelError, match="same length"):
            decoder.step([(BOS, 5), (BOS, 5, 6)])
        with pytest.raises(KeyError):
            decoder.step([(BOS, 5, 6)])  # its parent (BOS, 5) was never advanced

    def test_prefix_at_max_len_rejected(self):
        decoder = IncrementalDecoder(self.params, self.enc_att)
        prefix = (BOS,)
        while len(prefix) < self.cfg.max_len:
            decoder.step([prefix])
            prefix = prefix + (5,)
        with pytest.raises(ModelError, match="too long"):
            decoder.step([prefix])


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
            "dropout": (layers.dropout_fwd(x, 0.25, rng), layers.dropout_bwd),
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
            out, mask = layers.dropout_fwd(x, p, np.random.default_rng(17))
            expected_mask = (np.random.default_rng(17).random(x.shape) >= p) / (1.0 - p)
            np.testing.assert_array_equal(mask, expected_mask)
            np.testing.assert_array_equal(out, x * expected_mask)
