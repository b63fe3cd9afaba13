"""Transformer layer primitives on numpy arrays.

Every layer comes as a forward/backward pair: forward returns the output
plus a cache, backward consumes the upstream gradient and the cache and
returns input gradients plus parameter gradients.  Training passes one
unbatched sequence of shape (T, d_model) at a time and averages gradients
across examples instead of padding a batch.  The row-wise forwards
(linear, layer norm, FFN, GELU, softmax) also take the (n_live, d_model)
rows of incremental beam decoding, one row per live hypothesis.

Every pair keeps its input's dtype: float32 activations give float32
outputs, caches and gradients, float64 (the finite-difference checks)
float64.  Constants are Python scalars and dropout builds its mask in the
input's dtype, so nothing upcasts a float32 training step.

attend is the one scaled dot-product attention core: attention_fwd calls it
on (heads, T, d_head) arrays, and incremental decoding on its cached keys
and values.
"""

from __future__ import annotations

import math

import numpy as np

_LN_EPS = 1e-5
_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    shifted = x - np.max(x, axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=axis, keepdims=True)


def linear_fwd(x, W, b):
    return x @ W + b, (x, W)


def linear_bwd(dout, cache):
    x, W = cache
    dx = dout @ W.T
    dW = x.T @ dout
    db = dout.sum(axis=0)
    return dx, dW, db


def layer_norm_fwd(x, gamma, beta):
    xc = x - x.mean(axis=-1, keepdims=True)
    var = (xc * xc).mean(axis=-1, keepdims=True)  # the steps of x.var, reusing xc
    inv_std = 1.0 / np.sqrt(var + _LN_EPS)
    xhat = xc * inv_std
    return gamma * xhat + beta, (xhat, inv_std, gamma)


def layer_norm_bwd(dout, cache):
    xhat, inv_std, gamma = cache
    dgamma = (dout * xhat).sum(axis=0)
    dbeta = dout.sum(axis=0)
    dxhat = dout * gamma
    dx = inv_std * (
        dxhat
        - dxhat.mean(axis=-1, keepdims=True)
        - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
    )
    return dx, dgamma, dbeta


def gelu_fwd(x):
    u = _GELU_C * (x + _GELU_A * (x * x * x))  # x**3 is numpy's slow pow path
    t = np.tanh(u)
    return 0.5 * x * (1.0 + t), (x, t)


def gelu_bwd(dout, cache):
    x, t = cache
    du = _GELU_C * (1.0 + 3.0 * _GELU_A * x**2)
    return dout * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t**2) * du)


def dropout_fwd(x, p: float, rng):
    """Inverted dropout; identity (and no rng draw) when p == 0 or rng is None.

    The keep draw is float64 at every dtype, so the dropped positions depend
    only on the rng state; the mask, and so the output, is in x's dtype.
    """
    if p <= 0.0 or rng is None:
        return x, None
    keep = rng.random(x.shape) >= p
    mask = keep.astype(x.dtype) * x.dtype.type(1.0 / (1.0 - p))
    return x * mask, mask


def dropout_bwd(dout, mask):
    return dout if mask is None else dout * mask


def _split_heads(x, n_heads):
    T, d = x.shape
    return x.reshape(T, n_heads, d // n_heads).transpose(1, 0, 2)


def _merge_heads(x):
    h, T, dh = x.shape
    return x.transpose(1, 0, 2).reshape(T, h * dh)


def causal_mask(T: int, dtype=np.float64) -> np.ndarray:
    """Additive mask: -inf above the diagonal."""
    mask = np.zeros((T, T), dtype=dtype)
    mask[np.triu_indices(T, k=1)] = -np.inf
    return mask


def attend(q, k, v, mask=None):
    """Scaled dot-product attention over the last two axes, for any leading
    (head, row) axes: returns the probabilities softmax(q kᵀ / sqrt(d_head)
    + mask) and the context, probabilities @ v.  mask is additive or None."""
    s = q @ np.swapaxes(k, -1, -2) * (1.0 / math.sqrt(q.shape[-1]))
    if mask is not None:
        s = s + mask
    probs = softmax(s, axis=-1)
    return probs, probs @ v


def attention_fwd(q_in, kv_in, p: dict, n_heads: int, mask=None):
    """Multi-head attention with input and output projections.

    q_in (Tq, d) provides queries, kv_in (Tk, d) keys and values; mask is an
    additive (Tq, Tk) array or None.
    """
    Q, c_q = linear_fwd(q_in, p["Wq"], p["bq"])
    K, c_k = linear_fwd(kv_in, p["Wk"], p["bk"])
    V, c_v = linear_fwd(kv_in, p["Wv"], p["bv"])
    Qh, Kh, Vh = (_split_heads(m, n_heads) for m in (Q, K, V))
    P, Ch = attend(Qh, Kh, Vh, mask)
    out, c_o = linear_fwd(_merge_heads(Ch), p["Wo"], p["bo"])
    return out, (c_q, c_k, c_v, c_o, Qh, Kh, Vh, P, n_heads)


def attention_bwd(dout, cache):
    """Returns (d_q_in, d_kv_in, param grads dict)."""
    c_q, c_k, c_v, c_o, Qh, Kh, Vh, P, n_heads = cache
    scale = 1.0 / math.sqrt(Qh.shape[-1])
    dC, dWo, dbo = linear_bwd(dout, c_o)
    dCh = _split_heads(dC, n_heads)
    dP = dCh @ Vh.transpose(0, 2, 1)
    dVh = P.transpose(0, 2, 1) @ dCh
    dS = P * (dP - np.sum(dP * P, axis=-1, keepdims=True))
    dQh = dS @ Kh * scale
    dKh = dS.transpose(0, 2, 1) @ Qh * scale
    d_q_in, dWq, dbq = linear_bwd(_merge_heads(dQh), c_q)
    dk_in, dWk, dbk = linear_bwd(_merge_heads(dKh), c_k)
    dv_in, dWv, dbv = linear_bwd(_merge_heads(dVh), c_v)
    grads = {
        "Wq": dWq, "bq": dbq, "Wk": dWk, "bk": dbk,
        "Wv": dWv, "bv": dbv, "Wo": dWo, "bo": dbo,
    }
    return d_q_in, dk_in + dv_in, grads


def ffn_fwd(x, p: dict):
    h1, c1 = linear_fwd(x, p["W1"], p["b1"])
    g, cg = gelu_fwd(h1)
    out, c2 = linear_fwd(g, p["W2"], p["b2"])
    return out, (c1, cg, c2)


def ffn_bwd(dout, cache):
    c1, cg, c2 = cache
    dg, dW2, db2 = linear_bwd(dout, c2)
    dh1 = gelu_bwd(dg, cg)
    dx, dW1, db1 = linear_bwd(dh1, c1)
    return dx, {"W1": dW1, "b1": db1, "W2": dW2, "b2": db2}
