"""Transformer layer primitives on numpy arrays.

Every layer comes as a forward/backward pair: forward returns the output
plus a cache, backward consumes the upstream gradient and the cache and
returns input gradients plus parameter gradients.  Training passes a chunk
of examples at a time: their (T_i, d_model) sequences stacked into one
(sum T_i, d_model) array, so the row-wise layers (linear, layer norm, FFN,
GELU, dropout) run once per chunk and their weight gradients sum over the
chunk inside each matmul.  Attention alone is per example: attention_fwd
takes a block-diagonal mask given by its blocks, one per example's rows,
and never lets an example's rows see another's.  The row-wise forwards
(linear, layer norm, FFN, GELU, softmax) also take the (n_live, d_model)
rows of incremental beam decoding, one row per live hypothesis.

Every pair keeps its input's dtype: float32 activations give float32
outputs, caches and gradients, float64 (the finite-difference checks)
float64.  Constants are Python scalars and dropout builds its mask in the
input's dtype, so nothing upcasts a float32 training step.

attend is the one scaled dot-product attention core and attend_bwd its
backward: attention_fwd/attention_bwd call them on each block's (heads, T,
d_head) arrays, and incremental decoding calls attend on its cached keys
and values.  attend_bwd also takes attend's context: the softmax backward's
row term sum_j dP_ij P_ij equals dctx_i . ctx_i (FlashAttention, Dao et al.
2022, arXiv:2205.14135), an O(T d) product in place of an O(T^2) one.

A layer writes only into temporaries it allocated itself: the large
kernels (softmax, attend, linear, GELU, layer norm) compute in place in
arrays they made, in the operation order of the plain expressions, so
their results are bit for bit those of the expressions, and no layer
writes into a cache it was given.  The one exception is softmax(x,
out=x), which writes into its argument at its caller's request: attend
runs the softmax in the score array it allocated.

Each forward caches only what its backward reads:
- linear: its input and weight;
- layer norm: the normalised input, the inverse deviations and gamma;
- GELU: its derivative, computed in the same row tiles as the output,
  so the FFN keeps neither its pre-activation nor the tanh;
- dropout: the bool keep mask and the scale, no float mask;
- attention: the projections' caches, the head-split Q, K and V, each
  block's probabilities, and one (Tq, d_model) context, written block by
  block through its head-split view and read as the output projection's
  input.
Inference needs no cache: ffn_fwd(..., train=False) runs gelu, GELU's
forward alone, and returns None for its cache.
"""

from __future__ import annotations

import math

import numpy as np

_LN_EPS = 1e-5
_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715
# GELU works through its rows in tiles of this many bytes of input, so that
# a tile's temporaries stay in a 2 MB L2 cache while it is computed
_TILE_BYTES = 256 * 1024


def softmax(x: np.ndarray, axis: int = -1, out=None) -> np.ndarray:
    """Softmax along axis, into out when given (out=x overwrites x)."""
    # the ufunc reductions np.max and np.sum call, without their Python
    # wrappers: the decoder step takes thousands of softmaxes of tiny arrays
    e = np.subtract(x, np.maximum.reduce(x, axis=axis, keepdims=True), out=out)
    np.exp(e, out=e)
    e /= np.add.reduce(e, axis=axis, keepdims=True)
    return e


def linear_fwd(x, W, b):
    out = x @ W
    out += b
    return out, (x, W)


def linear_bwd(dout, cache):
    x, W = cache
    dx = dout @ W.T
    dW = x.T @ dout
    db = dout.sum(axis=0)
    return dx, dW, db


def layer_norm_fwd(x, gamma, beta):
    # x.mean and x.var as the sums they take, without ndarray.mean's Python
    # wrapper; a float32 sum over d is divided in float32 here and in float64
    # there, and both quotients round correctly to the same float32
    d = x.shape[-1]
    xhat = x - np.add.reduce(x, axis=-1, keepdims=True) / d  # centred, then scaled
    out = np.multiply(xhat, xhat)  # holds the squares before the output
    var = np.add.reduce(out, axis=-1, keepdims=True) / d
    inv_std = 1.0 / np.sqrt(var + _LN_EPS)
    xhat *= inv_std
    np.multiply(xhat, gamma, out=out)
    out += beta
    return out, (xhat, inv_std, gamma)


def layer_norm_bwd(dout, cache):
    # inv_std * (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat)), dxhat = dout * gamma
    xhat, inv_std, gamma = cache
    d = dout.shape[-1]
    tmp = dout * xhat  # reused for dxhat * xhat, then for xhat * mean(dxhat * xhat)
    dgamma = tmp.sum(axis=0)
    dbeta = dout.sum(axis=0)
    dx = dout * gamma  # dxhat, turned into dx in place
    mean = np.add.reduce(dx, axis=-1, keepdims=True) / d
    np.multiply(dx, xhat, out=tmp)
    np.multiply(xhat, np.add.reduce(tmp, axis=-1, keepdims=True) / d, out=tmp)
    dx -= mean
    dx -= tmp
    dx *= inv_std
    return dx, dgamma, dbeta


def _gelu_tile(x, out, dgelu):
    """GELU of the rows x into out and, unless dgelu is None, its derivative
    into dgelu, while x's tile is still in cache."""
    # 0.5 x (1 + tanh(c (x + a x^3))), x^3 as x*x*x (x**3 is numpy's slow pow path)
    u = x * x
    u *= x
    u *= _GELU_A
    u += x
    u *= _GELU_C
    t = np.tanh(u)
    np.multiply(x, 0.5, out=u)
    if dgelu is not None:
        # 0.5 (1 + t) + 0.5 x (1 - t^2) c (1 + 3 a x^2)
        np.multiply(t, t, out=dgelu)
        np.subtract(1.0, dgelu, out=dgelu)
        dgelu *= u
    t += 1.0
    np.multiply(t, u, out=out)
    if dgelu is not None:
        np.multiply(x, x, out=u)
        u *= 3.0 * _GELU_A
        u += 1.0
        u *= _GELU_C
        dgelu *= u
        t *= 0.5
        dgelu += t


def _gelu_tiles(x, derivative: bool):
    """GELU's output and, when derivative, its derivative (else None), tile
    by tile over x's rows, _TILE_BYTES of x at a time."""
    out = np.empty_like(x)
    grad = np.empty_like(x) if derivative else None
    rows = max(1, _TILE_BYTES // max(1, x[:1].nbytes))
    for start in range(0, len(x), rows):
        tile = slice(start, start + rows)
        _gelu_tile(x[tile], out[tile], None if grad is None else grad[tile])
    return out, grad


def gelu(x):
    """GELU's forward alone, for inference."""
    return _gelu_tiles(x, derivative=False)[0]


def gelu_fwd(x):
    return _gelu_tiles(x, derivative=True)


def gelu_bwd(dout, dgelu):
    return dout * dgelu


def _masked(x, cache):
    """x times the float mask of (keep, scale): 0 where keep is False, the
    scale where it is True, in x's dtype."""
    keep, scale = cache
    out = keep.astype(x.dtype)  # the mask, built in the output's array
    out *= scale
    out *= x
    return out


def dropout_fwd(x, p: float, keeps):
    """Inverted dropout; identity when p == 0 or keeps is None.

    keeps is an iterator yielding the bool keep mask, shaped like x, of a
    float64 draw made earlier (model.dropout_keep: uniforms at or above p
    keep their positions), so the dropped positions depend only on the rng
    state at every dtype.  The output is x times the float mask holding 0
    or the scale 1 / (1 - p) in x's dtype, the sign of every zero included.
    The cache is the bool mask and the scale; the backward rebuilds the
    float mask in its output's array.
    """
    if p <= 0.0 or keeps is None:
        return x, None
    cache = next(keeps), x.dtype.type(1.0 / (1.0 - p))
    return _masked(x, cache), cache


def dropout_bwd(dout, cache):
    return dout if cache is None else _masked(dout, cache)


def _split_heads(x, n_heads):
    T, d = x.shape
    return x.reshape(T, n_heads, d // n_heads).transpose(1, 0, 2)


def _merge_heads(x):
    h, T, dh = x.shape
    return x.transpose(1, 0, 2).reshape(T, h * dh)


def causal_mask(T: int, dtype=np.float64) -> np.ndarray:
    """Additive mask: -inf above the diagonal."""
    return np.triu(np.full((T, T), -np.inf, dtype=dtype), 1)


def attend(q, k, v, mask=None):
    """Scaled dot-product attention over the last two axes, for any leading
    (head, row) axes: returns the probabilities softmax(q kᵀ / sqrt(d_head)
    + mask) and the context, probabilities @ v.  mask is additive or None."""
    s = q @ np.swapaxes(k, -1, -2)
    s *= 1.0 / math.sqrt(q.shape[-1])
    if mask is not None:
        s += mask
    softmax(s, axis=-1, out=s)  # s becomes the probabilities
    return s, s @ v


def attend_bwd(dctx, q, k, v, probs, ctx):
    """Backward of attend: the gradients with respect to q, k and v, given
    the context's gradient and attend's probabilities and context.

    The softmax backward dS = P * (dP - D) needs each row's D_i = sum_j
    dP_ij P_ij; since dP = dctx vᵀ and ctx = P v, D_i = dctx_i . ctx_i."""
    scale = 1.0 / math.sqrt(q.shape[-1])
    dS = dctx @ np.swapaxes(v, -1, -2)  # dP, made dS in place
    dv = np.swapaxes(probs, -1, -2) @ dctx
    dS -= np.add.reduce(dctx * ctx, axis=-1, keepdims=True)
    dS *= probs
    dq = dS @ k
    dq *= scale
    dk = np.swapaxes(dS, -1, -2) @ q
    dk *= scale
    return dq, dk, dv


def attention_fwd(q_in, kv_in, p: dict, n_heads: int, mask=None):
    """Multi-head attention with input and output projections.

    q_in (Tq, d) provides queries, kv_in (Tk, d) keys and values.  mask is an
    additive (Tq, Tk) array, None, or a block-diagonal mask given by its
    blocks: a list of (q_rows, kv_rows, block) triples, row slices that
    partition both inputs and an additive block mask or None.  The
    projections run once on all rows; each block's queries then attend only
    over that block's keys.
    """
    Q, c_q = linear_fwd(q_in, p["Wq"], p["bq"])
    K, c_k = linear_fwd(kv_in, p["Wk"], p["bk"])
    V, c_v = linear_fwd(kv_in, p["Wv"], p["bv"])
    Qh, Kh, Vh = (_split_heads(m, n_heads) for m in (Q, K, V))
    blocks = mask if isinstance(mask, list) else [(slice(None), slice(None), mask)]
    C = np.empty_like(Q)  # the merged context, written through its head-split view
    Ch = _split_heads(C, n_heads)
    probs = []
    for q_rows, kv_rows, block in blocks:
        P, Ch[:, q_rows] = attend(Qh[:, q_rows], Kh[:, kv_rows], Vh[:, kv_rows], block)
        probs.append(P)
    out, c_o = linear_fwd(C, p["Wo"], p["bo"])
    return out, (c_q, c_k, c_v, c_o, Qh, Kh, Vh, Ch, blocks, probs, n_heads)


def attention_bwd(dout, cache):
    """Returns (d_q_in, d_kv_in, param grads dict)."""
    c_q, c_k, c_v, c_o, Qh, Kh, Vh, Ch, blocks, probs, n_heads = cache
    dC, dWo, dbo = linear_bwd(dout, c_o)
    dCh = _split_heads(dC, n_heads)
    dQh, dKh, dVh = np.empty_like(Qh), np.empty_like(Kh), np.empty_like(Vh)
    for (q_rows, kv_rows, _), P in zip(blocks, probs):
        dQh[:, q_rows], dKh[:, kv_rows], dVh[:, kv_rows] = attend_bwd(
            dCh[:, q_rows], Qh[:, q_rows], Kh[:, kv_rows], Vh[:, kv_rows], P, Ch[:, q_rows]
        )
    d_q_in, dWq, dbq = linear_bwd(_merge_heads(dQh), c_q)
    dk_in, dWk, dbk = linear_bwd(_merge_heads(dKh), c_k)
    dv_in, dWv, dbv = linear_bwd(_merge_heads(dVh), c_v)
    grads = {
        "Wq": dWq, "bq": dbq, "Wk": dWk, "bk": dbk,
        "Wv": dWv, "bv": dbv, "Wo": dWo, "bo": dbo,
    }
    return d_q_in, dk_in + dv_in, grads


def ffn_fwd(x, p: dict, train: bool = True):
    """The GELU FFN; unless train, the forward alone, with no cache."""
    h1, c1 = linear_fwd(x, p["W1"], p["b1"])
    if not train:
        return linear_fwd(gelu(h1), p["W2"], p["b2"])[0], None
    g, cg = gelu_fwd(h1)
    out, c2 = linear_fwd(g, p["W2"], p["b2"])
    return out, (c1, cg, c2)


def ffn_bwd(dout, cache):
    c1, cg, c2 = cache
    dg, dW2, db2 = linear_bwd(dout, c2)
    dh1 = gelu_bwd(dg, cg)
    dx, dW1, db1 = linear_bwd(dh1, c1)
    return dx, {"W1": dW1, "b1": db1, "W2": dW2, "b2": db2}
