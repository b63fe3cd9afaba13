"""Transformer encoder-decoder with like-driven attention scaling.

The thread's token sequence is encoded by standard transformer blocks, then
every encoded token is multiplied elementwise by the attention weight of the
text it came from: 1 for the title, sqrt(likes / max likes) for a comment.
The decoder cross-attends over this scaled encoding.

All forward passes also produce caches so that forward_loss can run an
exact hand-written backward pass; gradients are validated against central
finite differences in the test suite.  IncrementalDecoder, used by beam
search, is inference only: it keeps attention keys and values instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from threadsum import layers
from threadsum.tokenizer import BOS, EOS, PAD, TokenSeq


class ModelError(ValueError):
    """Raised for invalid model configuration or inputs."""


class NumericsError(FloatingPointError):
    """Raised when a loss or gradient tensor goes non-finite."""


@dataclass(frozen=True)
class ModelConfig:
    vocab_size: int
    d_model: int = 128
    n_enc_blocks: int = 2
    n_dec_blocks: int = 2
    n_heads: int = 4
    d_ff: int = 512
    max_len: int = 512
    dropout: float = 0.1
    label_smoothing: float = 0.1

    def __post_init__(self):
        counts = {
            "vocab_size": self.vocab_size,
            "d_model": self.d_model,
            "n_enc_blocks": self.n_enc_blocks,
            "n_dec_blocks": self.n_dec_blocks,
            "n_heads": self.n_heads,
            "d_ff": self.d_ff,
            "max_len": self.max_len,
        }
        for name, value in counts.items():
            if value < 1:
                raise ModelError(f"{name} must be >= 1, got {value}")
        if self.d_model % self.n_heads != 0:
            raise ModelError("d_model must be divisible by n_heads")
        for name in ("dropout", "label_smoothing"):
            p = getattr(self, name)
            if not 0.0 <= p < 1.0:
                raise ModelError(f"{name} must be in [0, 1), got {p}")


@dataclass
class ModelParams:
    config: ModelConfig
    tensors: dict[str, np.ndarray]

    def __getitem__(self, name: str) -> np.ndarray:
        return self.tensors[name]

    @property
    def dtype(self):
        return self.tensors["tok_emb"].dtype

    def copy(self) -> "ModelParams":
        return ModelParams(self.config, {k: v.copy() for k, v in self.tensors.items()})

    def n_parameters(self) -> int:
        return sum(int(v.size) for v in self.tensors.values())


@dataclass(frozen=True)
class AttentionWeights:
    weights: np.ndarray  # (n_comments + 1,), index 0 is the title

    def __len__(self) -> int:
        return len(self.weights)


@dataclass(frozen=True)
class EncodedThread:
    enc: np.ndarray      # (seq_len, d_model)
    enc_att: np.ndarray  # attention-scaled encoding, same shape


def init_params(config: ModelConfig, seed: int = 0, dtype=np.float32) -> ModelParams:
    """Initialize all tensors: normal(0, 0.02) projections, ones/zeros norms."""
    rng = np.random.default_rng(seed)
    d, ff, V, L = config.d_model, config.d_ff, config.vocab_size, config.max_len

    tensors: dict[str, np.ndarray] = {}

    def w(name, shape):
        tensors[name] = rng.normal(0.0, 0.02, shape).astype(dtype)

    def zeros(name, shape):
        tensors[name] = np.zeros(shape, dtype=dtype)

    def ones(name, shape):
        tensors[name] = np.ones(shape, dtype=dtype)

    w("tok_emb", (V, d))
    w("pos_emb", (L, d))
    ones("enc_emb_ln_g", d)
    zeros("enc_emb_ln_b", d)
    ones("dec_emb_ln_g", d)
    zeros("dec_emb_ln_b", d)

    def attention(prefix):
        for proj in ("Wq", "Wk", "Wv", "Wo"):
            w(f"{prefix}.{proj}", (d, d))
        for bias in ("bq", "bk", "bv", "bo"):
            zeros(f"{prefix}.{bias}", d)

    def ffn(prefix):
        w(f"{prefix}.W1", (d, ff))
        zeros(f"{prefix}.b1", ff)
        w(f"{prefix}.W2", (ff, d))
        zeros(f"{prefix}.b2", d)

    def norm(name):
        ones(f"{name}_g", d)
        zeros(f"{name}_b", d)

    for i in range(config.n_enc_blocks):
        attention(f"enc{i}.self")
        norm(f"enc{i}.ln1")
        ffn(f"enc{i}.ffn")
        norm(f"enc{i}.ln2")
    for i in range(config.n_dec_blocks):
        attention(f"dec{i}.self")
        norm(f"dec{i}.ln1")
        attention(f"dec{i}.cross")
        norm(f"dec{i}.ln2")
        ffn(f"dec{i}.ffn")
        norm(f"dec{i}.ln3")
    w("lm_W", (d, V))
    zeros("lm_b", V)
    return ModelParams(config=config, tensors=tensors)


def attention_weights(thread) -> AttentionWeights:
    """Like-derived weights: 1 for the title, sqrt(likes / max likes) per comment.

    If no comment collected any like the comment weights are all zero and
    only the title keeps full weight.
    """
    likes = np.asarray(thread.likes, dtype=np.float64)
    if likes.size == 0:
        raise ModelError(f"thread {thread.id!r} has no comments")
    max_likes = likes.max()
    comment_w = np.sqrt(likes / max_likes) if max_likes > 0 else np.zeros_like(likes)
    return AttentionWeights(weights=np.concatenate(([1.0], comment_w)))


def token_weights(seq: TokenSeq, weights: AttentionWeights) -> np.ndarray:
    """Per-position weight vector; separators take the preceding text's weight."""
    w = np.asarray(weights.weights, dtype=np.float64)
    if seq.n_texts > len(w):
        raise ModelError(
            f"sequence spans {seq.n_texts} texts but only {len(w)} attention weights given"
        )
    out = np.full(len(seq.ids), -1.0)
    for start, end, source in seq.spans:
        out[start:end] = w[source]
    for pos in range(len(out)):
        if out[pos] < 0:  # a [SEP], always preceded by a text token
            out[pos] = out[pos - 1]
    return out


# ---------------------------------------------------------------------------
# forward passes (shared by inference and training; caches carry what the
# backward pass needs)
# ---------------------------------------------------------------------------


def _sub(tensors, prefix):
    return {k[len(prefix):]: v for k, v in tensors.items() if k.startswith(prefix)}


def _embed_fwd(tensors, ids, ln_prefix, p_drop, rng):
    T = len(ids)
    e = tensors["tok_emb"][ids] + tensors["pos_emb"][:T]
    x, c_ln = layers.layer_norm_fwd(e, tensors[f"{ln_prefix}_g"], tensors[f"{ln_prefix}_b"])
    x, m = layers.dropout_fwd(x, p_drop, rng)
    return x, (ids, c_ln, m)


def _embed_bwd(dx, cache, ln_prefix, grads, tensors):
    ids, c_ln, m = cache
    dx = layers.dropout_bwd(dx, m)
    de, dg, db = layers.layer_norm_bwd(dx, c_ln)
    _acc(grads, f"{ln_prefix}_g", dg)
    _acc(grads, f"{ln_prefix}_b", db)
    if "tok_emb" not in grads:
        grads["tok_emb"] = np.zeros_like(tensors["tok_emb"])
    np.add.at(grads["tok_emb"], ids, de)
    if "pos_emb" not in grads:
        grads["pos_emb"] = np.zeros_like(tensors["pos_emb"])
    grads["pos_emb"][: len(ids)] += de


def _acc(grads, name, value):
    if name in grads:
        grads[name] += value
    else:
        grads[name] = value


def _acc_prefixed(grads, prefix, sub_grads):
    for key, value in sub_grads.items():
        _acc(grads, prefix + key, value)


def _enc_block_fwd(x, tensors, pfx, n_heads, p_drop, rng):
    a, c_att = layers.attention_fwd(x, x, _sub(tensors, f"{pfx}.self."), n_heads)
    a, m1 = layers.dropout_fwd(a, p_drop, rng)
    x1, c_ln1 = layers.layer_norm_fwd(x + a, tensors[f"{pfx}.ln1_g"], tensors[f"{pfx}.ln1_b"])
    f, c_ffn = layers.ffn_fwd(x1, _sub(tensors, f"{pfx}.ffn."))
    f, m2 = layers.dropout_fwd(f, p_drop, rng)
    x2, c_ln2 = layers.layer_norm_fwd(x1 + f, tensors[f"{pfx}.ln2_g"], tensors[f"{pfx}.ln2_b"])
    return x2, (c_att, m1, c_ln1, c_ffn, m2, c_ln2)


def _enc_block_bwd(dout, cache, pfx, grads):
    c_att, m1, c_ln1, c_ffn, m2, c_ln2 = cache
    dres2, dg2, db2 = layers.layer_norm_bwd(dout, c_ln2)
    _acc(grads, f"{pfx}.ln2_g", dg2)
    _acc(grads, f"{pfx}.ln2_b", db2)
    df = layers.dropout_bwd(dres2, m2)
    dx1_ffn, ffn_grads = layers.ffn_bwd(df, c_ffn)
    _acc_prefixed(grads, f"{pfx}.ffn.", ffn_grads)
    dx1 = dres2 + dx1_ffn
    dres1, dg1, db1 = layers.layer_norm_bwd(dx1, c_ln1)
    _acc(grads, f"{pfx}.ln1_g", dg1)
    _acc(grads, f"{pfx}.ln1_b", db1)
    da = layers.dropout_bwd(dres1, m1)
    dq, dkv, att_grads = layers.attention_bwd(da, c_att)
    _acc_prefixed(grads, f"{pfx}.self.", att_grads)
    return dres1 + dq + dkv


def _dec_block_fwd(y, enc_att, tensors, pfx, n_heads, mask, p_drop, rng):
    a, c_self = layers.attention_fwd(y, y, _sub(tensors, f"{pfx}.self."), n_heads, mask=mask)
    a, m1 = layers.dropout_fwd(a, p_drop, rng)
    y1, c_ln1 = layers.layer_norm_fwd(y + a, tensors[f"{pfx}.ln1_g"], tensors[f"{pfx}.ln1_b"])
    c, c_cross = layers.attention_fwd(y1, enc_att, _sub(tensors, f"{pfx}.cross."), n_heads)
    c, m2 = layers.dropout_fwd(c, p_drop, rng)
    y2, c_ln2 = layers.layer_norm_fwd(y1 + c, tensors[f"{pfx}.ln2_g"], tensors[f"{pfx}.ln2_b"])
    f, c_ffn = layers.ffn_fwd(y2, _sub(tensors, f"{pfx}.ffn."))
    f, m3 = layers.dropout_fwd(f, p_drop, rng)
    y3, c_ln3 = layers.layer_norm_fwd(y2 + f, tensors[f"{pfx}.ln3_g"], tensors[f"{pfx}.ln3_b"])
    return y3, (c_self, m1, c_ln1, c_cross, m2, c_ln2, c_ffn, m3, c_ln3)


def _dec_block_bwd(dout, cache, pfx, grads):
    """Returns (dy, d_enc_att) for one decoder block."""
    c_self, m1, c_ln1, c_cross, m2, c_ln2, c_ffn, m3, c_ln3 = cache
    dres3, dg3, db3 = layers.layer_norm_bwd(dout, c_ln3)
    _acc(grads, f"{pfx}.ln3_g", dg3)
    _acc(grads, f"{pfx}.ln3_b", db3)
    df = layers.dropout_bwd(dres3, m3)
    dy2_ffn, ffn_grads = layers.ffn_bwd(df, c_ffn)
    _acc_prefixed(grads, f"{pfx}.ffn.", ffn_grads)
    dy2 = dres3 + dy2_ffn
    dres2, dg2, db2 = layers.layer_norm_bwd(dy2, c_ln2)
    _acc(grads, f"{pfx}.ln2_g", dg2)
    _acc(grads, f"{pfx}.ln2_b", db2)
    dc = layers.dropout_bwd(dres2, m2)
    dy1_cross, d_enc_att, cross_grads = layers.attention_bwd(dc, c_cross)
    _acc_prefixed(grads, f"{pfx}.cross.", cross_grads)
    dy1 = dres2 + dy1_cross
    dres1, dg1, db1 = layers.layer_norm_bwd(dy1, c_ln1)
    _acc(grads, f"{pfx}.ln1_g", dg1)
    _acc(grads, f"{pfx}.ln1_b", db1)
    da = layers.dropout_bwd(dres1, m1)
    dq, dkv, self_grads = layers.attention_bwd(da, c_self)
    _acc_prefixed(grads, f"{pfx}.self.", self_grads)
    return dres1 + dq + dkv, d_enc_att


def _encoder_fwd(params, ids, p_drop=0.0, rng=None):
    cfg = params.config
    x, c_emb = _embed_fwd(params.tensors, ids, "enc_emb_ln", p_drop, rng)
    caches = []
    for i in range(cfg.n_enc_blocks):
        x, cache = _enc_block_fwd(x, params.tensors, f"enc{i}", cfg.n_heads, p_drop, rng)
        caches.append(cache)
    return x, (c_emb, caches)


def _encoder_bwd(d_enc, enc_cache, params, grads):
    c_emb, caches = enc_cache
    dx = d_enc
    for i in reversed(range(params.config.n_enc_blocks)):
        dx = _enc_block_bwd(dx, caches[i], f"enc{i}", grads)
    _embed_bwd(dx, c_emb, "enc_emb_ln", grads, params.tensors)


def _decoder_fwd(params, enc_att, ids, p_drop=0.0, rng=None):
    cfg = params.config
    y, c_emb = _embed_fwd(params.tensors, ids, "dec_emb_ln", p_drop, rng)
    mask = layers.causal_mask(len(ids), dtype=y.dtype)
    caches = []
    for i in range(cfg.n_dec_blocks):
        y, cache = _dec_block_fwd(
            y, enc_att, params.tensors, f"dec{i}", cfg.n_heads, mask, p_drop, rng
        )
        caches.append(cache)
    logits, c_lm = layers.linear_fwd(y, params["lm_W"], params["lm_b"])
    return logits, (c_emb, caches, c_lm)


def _decoder_bwd(dlogits, dec_cache, params, grads):
    """Returns the gradient with respect to enc_att."""
    c_emb, caches, c_lm = dec_cache
    dy, dW, db = layers.linear_bwd(dlogits, c_lm)
    _acc(grads, "lm_W", dW)
    _acc(grads, "lm_b", db)
    d_enc_att = None
    for i in reversed(range(params.config.n_dec_blocks)):
        dy, d_enc_i = _dec_block_bwd(dy, caches[i], f"dec{i}", grads)
        d_enc_att = d_enc_i if d_enc_att is None else d_enc_att + d_enc_i
    _embed_bwd(dy, c_emb, "dec_emb_ln", grads, params.tensors)
    return d_enc_att


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------


def encode_thread(
    params: ModelParams,
    seq: TokenSeq,
    weights: AttentionWeights,
    disable_attention: bool = False,
) -> EncodedThread:
    """Encode the flattened thread and apply the like-driven scaling."""
    if len(seq.ids) == 0:
        raise ModelError("cannot encode an empty token sequence")
    if len(seq.ids) > params.config.max_len:
        raise ModelError(f"sequence of {len(seq.ids)} ids exceeds max_len {params.config.max_len}")
    enc, _ = _encoder_fwd(params, seq.ids)
    if disable_attention:
        return EncodedThread(enc=enc, enc_att=enc)
    tokw = token_weights(seq, weights).astype(enc.dtype)
    return EncodedThread(enc=enc, enc_att=enc * tokw[:, None])


def decoder_logits(params: ModelParams, enc_att: np.ndarray, prefix: list[int]) -> np.ndarray:
    """Teacher-forced logits for every prefix position, shape (len(prefix), V)."""
    logits, _ = _decoder_fwd(params, enc_att, list(prefix))
    return logits


def decode_step(params: ModelParams, enc_att: np.ndarray, prefix: list[int]) -> np.ndarray:
    """Next-token probability distribution after the given prefix."""
    if len(prefix) == 0:
        raise ModelError("prefix must be non-empty (start with [BOS])")
    if prefix[0] != BOS:
        raise ModelError("prefix must start with [BOS]")
    if len(prefix) >= params.config.max_len:
        raise ModelError(f"prefix of {len(prefix)} ids too long for max_len {params.config.max_len}")
    logits = decoder_logits(params, enc_att, prefix)
    return layers.softmax(logits[-1].astype(np.float64))


@dataclass(frozen=True)
class _CachedDecBlock:
    """One decoder block's parameter views, with its cross-attention keys
    and values already projected from the encoding and split into heads."""

    self_p: dict[str, np.ndarray]
    cross_p: dict[str, np.ndarray]
    cross_k: np.ndarray  # (heads, enc_len, d_head)
    cross_v: np.ndarray
    ffn_p: dict[str, np.ndarray]
    lns: tuple  # (gamma, beta) of ln1, ln2, ln3


class IncrementalDecoder:
    """Next-token distributions for the live prefixes of one encoded thread,
    advanced together by one position per step.

    The cross-attention keys and values of the fixed encoding are projected
    once, at construction.  Every prefix of a step has the same length, and
    its parent (the prefix minus its last token) must be one of the prefixes
    of the previous step, or empty for the one-token [BOS] prefix of the
    first step; several prefixes may share a parent.  A prefix gathers its
    parent's self-attention keys and values and appends those of its own
    last position, so a step costs one (n_live, d_model) pass whatever the
    prefix length.  Only the rows of the latest step are kept.

    The distributions equal decode_step's up to the float rounding of
    matmuls over fewer rows.
    """

    def __init__(self, params: ModelParams, enc_att: np.ndarray):
        cfg = params.config
        t = params.tensors
        self.n_heads = cfg.n_heads
        self.max_len = cfg.max_len
        self.tok_emb = t["tok_emb"]
        self.pos_emb = t["pos_emb"]
        self.emb_ln = (t["dec_emb_ln_g"], t["dec_emb_ln_b"])
        self.lm = (t["lm_W"], t["lm_b"])
        self.blocks = []
        for i in range(cfg.n_dec_blocks):
            pfx = f"dec{i}"
            cross_p = _sub(t, f"{pfx}.cross.")
            k, _ = layers.linear_fwd(enc_att, cross_p["Wk"], cross_p["bk"])
            v, _ = layers.linear_fwd(enc_att, cross_p["Wv"], cross_p["bv"])
            self.blocks.append(_CachedDecBlock(
                self_p=_sub(t, f"{pfx}.self."),
                cross_p=cross_p,
                cross_k=layers._split_heads(k, self.n_heads),
                cross_v=layers._split_heads(v, self.n_heads),
                ffn_p=_sub(t, f"{pfx}.ffn."),
                lns=tuple((t[f"{pfx}.ln{j}_g"], t[f"{pfx}.ln{j}_b"]) for j in (1, 2, 3)),
            ))
        d_head = cfg.d_model // cfg.n_heads
        empty = np.zeros((1, self.n_heads, 0, d_head), dtype=params.dtype)
        self._rows: dict[tuple[int, ...], int] = {(): 0}
        self._kv = [(empty, empty)] * cfg.n_dec_blocks  # (rows, heads, length, d_head)

    def step(self, prefixes) -> np.ndarray:
        """Next-token distributions after each prefix, shape (len(prefixes), V), float64.

        Raises ModelError for an invalid prefix and KeyError for a prefix
        whose parent was not advanced by the previous step.
        """
        prefixes = [tuple(p) for p in prefixes]
        if not prefixes:
            raise ModelError("step needs at least one prefix")
        length = len(prefixes[0])
        if any(len(p) != length for p in prefixes):
            raise ModelError("all prefixes of one step must have the same length")
        if length == 0:
            raise ModelError("prefix must be non-empty (start with [BOS])")
        if any(p[0] != BOS for p in prefixes):
            raise ModelError("prefix must start with [BOS]")
        if length >= self.max_len:
            raise ModelError(f"prefix of {length} ids too long for max_len {self.max_len}")
        parents = [self._rows[p[:-1]] for p in prefixes]

        y = self.tok_emb[[p[-1] for p in prefixes]] + self.pos_emb[length - 1]
        y, _ = layers.layer_norm_fwd(y, *self.emb_ln)
        kv = []
        for blk, (k_past, v_past) in zip(self.blocks, self._kv):
            a, k, v = self._self_attention(y, blk.self_p, k_past[parents], v_past[parents])
            kv.append((k, v))
            y, _ = layers.layer_norm_fwd(y + a, *blk.lns[0])
            c = self._cross_attention(y, blk)
            y, _ = layers.layer_norm_fwd(y + c, *blk.lns[1])
            f, _ = layers.ffn_fwd(y, blk.ffn_p)
            y, _ = layers.layer_norm_fwd(y + f, *blk.lns[2])
        self._kv = kv
        self._rows = {p: row for row, p in enumerate(prefixes)}
        logits, _ = layers.linear_fwd(y, *self.lm)
        return layers.softmax(logits.astype(np.float64))

    def _self_attention(self, y, p, k_past, v_past):
        """Attention of each row's new position over its own prefix; returns
        (output, keys, values) with the new position appended."""
        n, d = y.shape
        heads = (n, self.n_heads, 1, d // self.n_heads)
        q, _ = layers.linear_fwd(y, p["Wq"], p["bq"])
        k, _ = layers.linear_fwd(y, p["Wk"], p["bk"])
        v, _ = layers.linear_fwd(y, p["Wv"], p["bv"])
        k = np.concatenate((k_past, k.reshape(heads)), axis=2)
        v = np.concatenate((v_past, v.reshape(heads)), axis=2)
        scale = 1.0 / math.sqrt(heads[-1])
        s = q.reshape(heads) @ k.transpose(0, 1, 3, 2) * scale
        ctx = layers.softmax(s, axis=-1) @ v
        out, _ = layers.linear_fwd(ctx.reshape(n, d), p["Wo"], p["bo"])
        return out, k, v

    def _cross_attention(self, y, blk):
        p = blk.cross_p
        q, _ = layers.linear_fwd(y, p["Wq"], p["bq"])
        qh = layers._split_heads(q, self.n_heads)
        scale = 1.0 / math.sqrt(qh.shape[-1])
        s = qh @ blk.cross_k.transpose(0, 2, 1) * scale
        ctx = layers._merge_heads(layers.softmax(s, axis=-1) @ blk.cross_v)
        out, _ = layers.linear_fwd(ctx, p["Wo"], p["bo"])
        return out


def _smoothed_targets(gold: np.ndarray, mask: np.ndarray, vocab_size: int, eps: float, dtype):
    """Rows of the target distribution: 1-eps at the gold token, eps spread
    uniformly over the rest of the vocabulary except [PAD]."""
    T = len(gold)
    q = np.zeros((T, vocab_size), dtype=dtype)
    rows = np.arange(T)[mask]
    if eps > 0.0:
        q[mask] = eps / (vocab_size - 2)
        q[:, PAD] = 0.0
    q[rows, gold[mask]] = 1.0 - eps
    return q


def forward_loss(
    params: ModelParams,
    seq: TokenSeq,
    weights: AttentionWeights,
    target: list[int],
    config: ModelConfig | None = None,
    disable_attention: bool = False,
    rng=None,
):
    """Label-smoothed KL loss of the teacher-forced target plus full gradients.

    Positions whose gold token is [PAD] are excluded from the mean.  Returns
    (loss, gradient dict shaped like params.tensors).
    """
    cfg = config or params.config
    target = list(target)
    if len(target) < 2 or target[0] != BOS or target[-1] != EOS:
        raise ModelError("target must start with [BOS] and end with [EOS]")
    if len(target) > cfg.max_len:
        raise ModelError(f"target of {len(target)} ids exceeds max_len {cfg.max_len}")

    p_drop = cfg.dropout if rng is not None else 0.0
    grads: dict[str, np.ndarray] = {}

    enc, enc_cache = _encoder_fwd(params, seq.ids, p_drop, rng)
    if disable_attention:
        enc_att = enc
        tokw = None
    else:
        tokw = token_weights(seq, weights).astype(enc.dtype)
        enc_att = enc * tokw[:, None]

    dec_in = target[:-1]
    gold = np.asarray(target[1:])
    logits, dec_cache = _decoder_fwd(params, enc_att, dec_in, p_drop, rng)

    # loss: mean over non-PAD positions of KL(smoothed one-hot || softmax);
    # non-finiteness is checked explicitly, so let nan/inf propagate quietly
    mask = gold != PAD
    n_eff = int(mask.sum())
    if n_eff == 0:
        raise ModelError("target contains no non-PAD positions to predict")
    q = _smoothed_targets(gold, mask, cfg.vocab_size, cfg.label_smoothing, np.float64)
    with np.errstate(invalid="ignore", over="ignore"):
        logits64 = logits.astype(np.float64)
        logz = logits64 - np.max(logits64, axis=-1, keepdims=True)
        logp = logz - np.log(np.sum(np.exp(logz), axis=-1, keepdims=True))
        logq = np.log(q, where=q > 0, out=np.zeros_like(q))
        loss_rows = (q * logq).sum(axis=-1) - (q * logp).sum(axis=-1)
        loss = float(loss_rows[mask].mean())
    if not math.isfinite(loss):
        raise NumericsError("non-finite loss")

    dlogits = (np.exp(logp) - q) / n_eff
    dlogits[~mask] = 0.0
    dlogits = dlogits.astype(logits.dtype)

    d_enc_att = _decoder_bwd(dlogits, dec_cache, params, grads)
    d_enc = d_enc_att if disable_attention else d_enc_att * tokw[:, None]
    _encoder_bwd(d_enc, enc_cache, params, grads)

    for name in params.tensors:
        if name not in grads:
            grads[name] = np.zeros_like(params.tensors[name])
        elif not np.all(np.isfinite(grads[name])):
            raise NumericsError(f"non-finite gradient in tensor '{name}'")
    return loss, grads
