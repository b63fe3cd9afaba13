"""Layer kernels at long lengths: the plain expressions they replace, the
rule that a layer never writes into its arguments or caches, finite
differences over block-diagonal chunks, and attention's peak allocation."""

import math
import tracemalloc

import numpy as np
import pytest

from threadsum import layers
from threadsum.layers import _GELU_A, _GELU_C, _LN_EPS


# The kernels as plain expressions, one fresh array per operation.  The
# layers compute the same operations in the same order in arrays they
# allocate themselves, so every forward, gelu_bwd and layer_norm_bwd equal
# these bit for bit; attend_bwd's row term moved to the context and matches
# to rounding.


def reference_softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    # the ufunc reductions np.max and np.sum call, without their Python
    # wrappers: the decoder step takes thousands of softmaxes of tiny arrays
    shifted = x - np.maximum.reduce(x, axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / np.add.reduce(e, axis=axis, keepdims=True)


def reference_linear_fwd(x, W, b):
    return x @ W + b, (x, W)


def reference_layer_norm_fwd(x, gamma, beta):
    # x.mean and x.var as the sums they take, without ndarray.mean's Python
    # wrapper; a float32 sum over d is divided in float32 here and in float64
    # there, and both quotients round correctly to the same float32
    d = x.shape[-1]
    xc = x - np.add.reduce(x, axis=-1, keepdims=True) / d
    var = np.add.reduce(xc * xc, axis=-1, keepdims=True) / d
    inv_std = 1.0 / np.sqrt(var + _LN_EPS)
    xhat = xc * inv_std
    return gamma * xhat + beta, (xhat, inv_std, gamma)


def reference_layer_norm_bwd(dout, cache):
    xhat, inv_std, gamma = cache
    dgamma = (dout * xhat).sum(axis=0)
    dbeta = dout.sum(axis=0)
    dxhat = dout * gamma
    d = dout.shape[-1]
    dx = inv_std * (
        dxhat
        - np.add.reduce(dxhat, axis=-1, keepdims=True) / d
        - xhat * (np.add.reduce(dxhat * xhat, axis=-1, keepdims=True) / d)
    )
    return dx, dgamma, dbeta


def reference_gelu_fwd(x):
    u = _GELU_C * (x + _GELU_A * (x * x * x))  # x**3 is numpy's slow pow path
    t = np.tanh(u)
    return 0.5 * x * (1.0 + t), (x, t)


def reference_gelu_bwd(dout, cache):
    x, t = cache
    du = _GELU_C * (1.0 + 3.0 * _GELU_A * x**2)
    return dout * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t**2) * du)


def reference_causal_mask(T: int, dtype=np.float64) -> np.ndarray:
    """Additive mask: -inf above the diagonal."""
    mask = np.zeros((T, T), dtype=dtype)
    mask[np.triu_indices(T, k=1)] = -np.inf
    return mask


def reference_attend(q, k, v, mask=None):
    s = q @ np.swapaxes(k, -1, -2) * (1.0 / math.sqrt(q.shape[-1]))
    if mask is not None:
        s = s + mask
    probs = reference_softmax(s, axis=-1)
    return probs, probs @ v


def reference_attend_bwd(dctx, q, k, v, probs):
    """Backward of attend: the gradients with respect to q, k and v, given
    the context's gradient and attend's probabilities."""
    scale = 1.0 / math.sqrt(q.shape[-1])
    dP = dctx @ np.swapaxes(v, -1, -2)
    dv = np.swapaxes(probs, -1, -2) @ dctx
    dS = probs * (dP - np.sum(dP * probs, axis=-1, keepdims=True))
    dq = dS @ k * scale
    dk = np.swapaxes(dS, -1, -2) @ q * scale
    return dq, dk, dv


def assert_bits_equal(actual, expected):
    assert actual.dtype == expected.dtype and actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


def snapshot(item):
    """A deep copy of the arrays in nested tuples, lists and dicts."""
    if isinstance(item, np.ndarray):
        return item.copy()
    if isinstance(item, dict):
        return {key: snapshot(value) for key, value in item.items()}
    if isinstance(item, (tuple, list)):
        return type(item)(snapshot(part) for part in item)
    return item


def assert_unchanged(item, before, where):
    if isinstance(item, np.ndarray):
        assert item.tobytes() == before.tobytes(), where
    elif isinstance(item, dict):
        for key in item:
            assert_unchanged(item[key], before[key], f"{where}[{key!r}]")
    elif isinstance(item, (tuple, list)):
        for i, (part, part_before) in enumerate(zip(item, before)):
            assert_unchanged(part, part_before, f"{where}[{i}]")
    else:
        assert item == before, where


def chunk_blocks(q_lengths, kv_lengths, causal, dtype):
    """attention_fwd's block-diagonal mask over segments stacked in order:
    segment i's queries attend over segment i's keys, causally within it
    when causal, through top-left views of one mask as the decoder does."""
    mask = layers.causal_mask(max(q_lengths), dtype=dtype) if causal else None
    blocks, q_end, kv_end = [], 0, 0
    for n_q, n_kv in zip(q_lengths, kv_lengths):
        block = mask[:n_q, :n_kv] if causal else None
        blocks.append((slice(q_end, q_end + n_q), slice(kv_end, kv_end + n_kv), block))
        q_end, kv_end = q_end + n_q, kv_end + n_kv
    return blocks


def attention_params(rng, d, dtype):
    return {f"W{n}": (rng.normal(size=(d, d)) / math.sqrt(d)).astype(dtype) for n in "qkvo"} | {
        f"b{n}": (0.1 * rng.normal(size=d)).astype(dtype) for n in "qkvo"
    }


DTYPES = [np.float32, np.float64]


class TestCausalMask:
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_equals_the_triu_indices_construction(self, dtype):
        for T in range(1, 65):
            assert_bits_equal(layers.causal_mask(T, dtype=dtype), reference_causal_mask(T, dtype=dtype))


class TestBitIdenticalForwards:
    """The in-place kernels against their plain expressions at the CLI
    default's widest shapes (4 heads over 490 tokens; 520 rows of d_ff 512)
    and at the decoder step's."""

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_softmax(self, dtype):
        rng = np.random.default_rng(40)
        scores = rng.normal(0.0, 3.0, (4, 490, 490)).astype(dtype)
        scores += layers.causal_mask(490, dtype=dtype)
        for x in (scores, rng.normal(0.0, 4.0, (520, 512)).astype(dtype)):
            assert_bits_equal(layers.softmax(x), reference_softmax(x))

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_attend(self, dtype):
        rng = np.random.default_rng(41)
        # a wide self-attention block, and the cached decoder's self- and cross-attention
        shapes = (((4, 490, 32), (4, 490, 32)), ((5, 4, 1, 12), (5, 4, 30, 12)), ((4, 5, 12), (4, 53, 12)))
        for q_shape, kv_shape in shapes:
            q, k, v = (rng.normal(size=s).astype(dtype) for s in (q_shape, kv_shape, kv_shape))
            # a chunk's decoder takes a top-left view of its longest segment's mask
            masks = [None, layers.causal_mask(600, dtype=dtype)[:490, :490]] if q_shape == kv_shape else [None]
            for mask in masks:
                for actual, expected in zip(layers.attend(q, k, v, mask), reference_attend(q, k, v, mask)):
                    assert_bits_equal(actual, expected)

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_row_wise_layers(self, dtype):
        rng = np.random.default_rng(42)
        for rows, d_in, d_out in ((520, 128, 512), (520, 512, 128), (7, 48, 96)):
            x = rng.normal(0.0, 2.0, (rows, d_in)).astype(dtype)
            W = (rng.normal(size=(d_in, d_out)) / math.sqrt(d_in)).astype(dtype)
            b = rng.normal(size=d_out).astype(dtype)
            out, cache = layers.linear_fwd(x, W, b)
            expected, _ = reference_linear_fwd(x, W, b)
            assert_bits_equal(out, expected)

            gamma, beta = rng.normal(1.0, 0.5, d_in).astype(dtype), rng.normal(size=d_in).astype(dtype)
            out, (xhat, inv_std, _) = layers.layer_norm_fwd(x, gamma, beta)
            expected, (xhat_ref, inv_std_ref, _) = reference_layer_norm_fwd(x, gamma, beta)
            for actual, reference in ((out, expected), (xhat, xhat_ref), (inv_std, inv_std_ref)):
                assert_bits_equal(actual, reference)

            out, cache = layers.gelu_fwd(x)
            expected, (_, t_ref) = reference_gelu_fwd(x)
            assert_bits_equal(out, expected)
            dout = rng.normal(size=x.shape).astype(dtype)
            assert_bits_equal(layers.gelu_bwd(dout, cache), reference_gelu_bwd(dout, (x, t_ref)))


@pytest.mark.parametrize("dtype", DTYPES)
def test_layer_norm_bwd_equals_its_plain_expression(dtype):
    """At a wide chunk, the longest chunk, a directional chunk and a decoder
    step: bit-equal gradients, and the upstream gradient and the cache left
    bit-unchanged."""
    rng = np.random.default_rng(45)
    for rows, d in ((520, 128), (1000, 128), (233, 48), (7, 16)):
        x = rng.normal(0.0, 2.0, (rows, d)).astype(dtype)
        gamma, beta = rng.normal(1.0, 0.5, d).astype(dtype), rng.normal(size=d).astype(dtype)
        _, cache = layers.layer_norm_fwd(x, gamma, beta)
        dout = rng.normal(size=(rows, d)).astype(dtype)
        before = snapshot((dout, cache))
        for actual, expected in zip(layers.layer_norm_bwd(dout, cache), reference_layer_norm_bwd(dout, cache)):
            assert_bits_equal(actual, expected)
        assert_unchanged((dout, cache), before, "layer_norm_bwd arguments")


class TestLayersLeaveTheirInputsAlone:
    """A layer writes only into arrays it allocated: every forward leaves
    its arguments, and every backward its upstream gradient and the cache
    it consumes, bit-unchanged."""

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_forward_backward_pairs(self, dtype):
        rng = np.random.default_rng(43)
        T, d, ff, heads = 37, 16, 32, 4

        def rand(*shape):
            return rng.normal(size=shape).astype(dtype)

        x, memory, dout = rand(T, d), rand(23, d), rand(T, d)
        attn = attention_params(rng, d, dtype)
        ffn = {"W1": rand(d, ff), "b1": rand(ff), "W2": rand(ff, d), "b2": rand(d)}
        pairs = {
            "linear": (layers.linear_fwd, (x, rand(d, d), rand(d)), layers.linear_bwd),
            "layer_norm": (layers.layer_norm_fwd, (x, rand(d), rand(d)), layers.layer_norm_bwd),
            "gelu": (layers.gelu_fwd, (x,), layers.gelu_bwd),
            "ffn": (layers.ffn_fwd, (x, ffn), layers.ffn_bwd),
            "dropout": (layers.dropout_fwd, (x, 0.25, iter([rng.random(x.shape) >= 0.25])), layers.dropout_bwd),
            "cross_attention": (
                layers.attention_fwd, (x, memory, attn, heads, chunk_blocks([25, 12], [9, 14], False, dtype)),
                layers.attention_bwd,
            ),
            "self_attention": (
                layers.attention_fwd, (x, x, attn, heads, chunk_blocks([25, 12], [25, 12], True, dtype)),
                layers.attention_bwd,
            ),
            "full_self_attention": (
                layers.attention_fwd, (x, x, attn, heads, layers.causal_mask(T, dtype=dtype)), layers.attention_bwd,
            ),
        }
        for name, (fwd, args, bwd) in pairs.items():
            args_before = snapshot(args)
            _, cache = fwd(*args)
            assert_unchanged(args, args_before, f"{name} forward arguments")
            cache_before, dout_before = snapshot(cache), dout.copy()
            bwd(dout, cache)
            assert_unchanged(dout, dout_before, f"{name} upstream gradient")
            assert_unchanged(cache, cache_before, f"{name} cache")

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_attention_core(self, dtype):
        rng = np.random.default_rng(44)
        q, k, v, dctx = (rng.normal(size=(4, 30, 8)).astype(dtype) for _ in range(4))
        mask = layers.causal_mask(30, dtype=dtype)
        probs, ctx = layers.attend(q, k, v, mask)
        calls = (
            (layers.softmax, (rng.normal(size=(30, 30)).astype(dtype),)),
            (layers.attend, (q, k, v, mask)),
            (layers.attend_bwd, (dctx, q, k, v, probs, ctx)),
        )
        for fn, args in calls:
            before = snapshot(args)
            fn(*args)
            assert_unchanged(args, before, fn.__name__)


class TestLongChunkGradients:
    """attention_fwd/attention_bwd against central finite differences in
    float64 on a chunk of two unequal segments, 150 and 40 query rows.  A
    value matches when |analytic - numeric| <= 1e-4 * max(|analytic|,
    |numeric|) or both are below the noise floor of 1e-8."""

    @pytest.mark.parametrize("causal", [True, False], ids=["causal_self", "cross"])
    def test_matches_finite_differences(self, causal):
        rng = np.random.default_rng(45 + causal)
        d, heads = 16, 2
        q_lengths = [150, 40]
        kv_lengths = q_lengths if causal else [60, 110]
        blocks = chunk_blocks(q_lengths, kv_lengths, causal, np.float64)
        inputs = {"q_in": rng.normal(size=(sum(q_lengths), d)), "kv_in": rng.normal(size=(sum(kv_lengths), d))}
        if causal:  # the same rows as queries and keys, perturbed one side at a time
            inputs["kv_in"] = inputs["q_in"].copy()
        params = attention_params(rng, d, np.float64)
        G = rng.normal(size=(sum(q_lengths), d))

        def loss():
            out, _ = layers.attention_fwd(inputs["q_in"], inputs["kv_in"], params, heads, mask=blocks)
            return float(np.sum(out * G))

        out, cache = layers.attention_fwd(inputs["q_in"], inputs["kv_in"], params, heads, mask=blocks)
        d_q_in, d_kv_in, grads = layers.attention_bwd(G, cache)
        grads |= {"q_in": d_q_in, "kv_in": d_kv_in}
        # most rows spread their weight over many keys, so long rows are exercised
        assert all(np.median(P.max(axis=-1)) < 0.25 for P in cache[-2])

        h = 1e-5
        failures = []
        for name, tensor in {**params, **inputs}.items():
            n_sample = 60 if name in inputs else 20
            for flat_i in rng.choice(tensor.size, size=min(n_sample, tensor.size), replace=False):
                original = tensor.flat[flat_i]
                tensor.flat[flat_i] = original + h
                up = loss()
                tensor.flat[flat_i] = original - h
                down = loss()
                tensor.flat[flat_i] = original
                numeric = (up - down) / (2 * h)
                analytic = grads[name].flat[flat_i]
                err = abs(analytic - numeric)
                if err > 1e-4 * max(abs(analytic), abs(numeric)) and err > 1e-8:
                    failures.append((name, int(flat_i), analytic, numeric))
        assert not failures, f"{len(failures)} mismatches, first: {failures[:3]}"

    def test_float32_backward_matches_the_reference_formula(self):
        """At T=490 in float32 the context's row term gives the gradients of
        the T^2 sum to within 1e-5 of their largest magnitude."""
        rng = np.random.default_rng(47)
        q, k, v, dctx = (rng.normal(size=(4, 490, 32)).astype(np.float32) for _ in range(4))
        for mask in (None, layers.causal_mask(490, dtype=np.float32)):
            probs, ctx = layers.attend(q, k, v, mask)
            actual = layers.attend_bwd(dctx, q, k, v, probs, ctx)
            expected = reference_attend_bwd(dctx, q, k, v, probs)
            for a, e in zip(actual, expected):
                assert a.dtype == np.float32
                np.testing.assert_allclose(a, e, rtol=0, atol=1e-5 * float(np.abs(e).max()))


def test_attention_peak_allocation():
    """One attention_fwd plus attention_bwd at T=490, 4 heads, d=128 in
    float32 allocates at its peak at most 3.0 times one (heads, T, T)
    score array, measured by tracemalloc, which sees numpy's buffers.  The
    backward pass holds two such arrays, the cached probabilities and dS,
    plus O(T d) ones: 2.80 measured, where the plain expressions of the
    kernels peaked at 4.27."""
    rng = np.random.default_rng(48)
    T, d, heads = 490, 128, 4
    x, dout = (rng.normal(size=(T, d)).astype(np.float32) for _ in range(2))
    params = attention_params(rng, d, np.float32)
    one_scores = heads * T * T * np.dtype(np.float32).itemsize
    tracemalloc.start()
    try:
        out, cache = layers.attention_fwd(x, x, params, heads)
        layers.attention_bwd(dout, cache)
        del out, cache
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3.0 * one_scores, f"peak {peak / one_scores:.2f} score arrays"
