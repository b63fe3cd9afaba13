"""Transformer encoder-decoder with like-driven attention scaling.

The thread's token sequence is encoded by standard transformer blocks, then
every encoded token is multiplied elementwise by the attention weight of the
text it came from: 1 for the title, sqrt(likes / max likes) for a comment.
The decoder cross-attends over this scaled encoding.

Every block is a sequence of post-LN residual sublayers, listed once per
block kind in BLOCK_LAYOUT; init_params, the training forward and backward
passes (_block_fwd/_block_bwd under _stack_fwd/_stack_bwd) and
IncrementalDecoder all walk that table.

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
from threadsum.tokenizer import BOS, EOS, PAD, SPECIAL_TOKENS, TokenSeq


class ModelError(ValueError):
    """Raised for invalid model configuration or inputs."""


class NumericsError(FloatingPointError):
    """Raised when a loss or a training step's summed gradient goes non-finite."""


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
        for name in ("vocab_size", "d_model", "n_enc_blocks", "n_dec_blocks", "n_heads", "d_ff", "max_len"):
            least = len(SPECIAL_TOKENS) if name == "vocab_size" else 1  # the vocabulary holds every special token
            if getattr(self, name) < least:
                raise ModelError(f"{name} must be >= {least}, got {getattr(self, name)}")
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


@dataclass(frozen=True)
class AttentionWeights:
    weights: np.ndarray  # (n_comments + 1,), index 0 is the title

    def __len__(self) -> int:
        return len(self.weights)


@dataclass(frozen=True)
class EncodedThread:
    enc: np.ndarray      # (seq_len, d_model)
    enc_att: np.ndarray  # attention-scaled encoding, same shape


# Each block kind's sublayers in the order they are applied, as (parameter
# prefix, layer-norm name) pairs; each sublayer f is wrapped post-LN,
# x = LayerNorm(x + Dropout(f(x))).  "self" is self-attention (causal in the
# decoder), "cross" attends over the scaled encoding, "ffn" is the GELU FFN.
# Block i of config.n_{kind}_blocks names its tensors {kind}{i}.self.Wq etc.
BLOCK_LAYOUT = {
    "enc": (("self", "ln1"), ("ffn", "ln2")),
    "dec": (("self", "ln1"), ("cross", "ln2"), ("ffn", "ln3")),
}


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

    for kind, layout in BLOCK_LAYOUT.items():
        for i in range(getattr(config, f"n_{kind}_blocks")):
            for sub, ln in layout:
                (ffn if sub == "ffn" else attention)(f"{kind}{i}.{sub}")
                norm(f"{kind}{i}.{ln}")
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


def _block_fwd(x, params, pfx, layout, mask, memory, p_drop, rng):
    tensors, n_heads = params.tensors, params.config.n_heads
    caches = []
    for sub, ln in layout:
        p = _sub(tensors, f"{pfx}.{sub}.")
        if sub == "ffn":
            f, c_f = layers.ffn_fwd(x, p)
        elif sub == "self":
            f, c_f = layers.attention_fwd(x, x, p, n_heads, mask=mask)
        else:
            f, c_f = layers.attention_fwd(x, memory, p, n_heads)
        f, m = layers.dropout_fwd(f, p_drop, rng)
        x, c_ln = layers.layer_norm_fwd(x + f, tensors[f"{pfx}.{ln}_g"], tensors[f"{pfx}.{ln}_b"])
        caches.append((c_f, m, c_ln))
    return x, caches


def _block_bwd(dout, caches, pfx, layout, grads):
    """Returns (dx, d_memory); d_memory is None for a block without "cross"."""
    d_memory = None
    for (sub, ln), (c_f, m, c_ln) in zip(reversed(layout), reversed(caches)):
        dres, dg, db = layers.layer_norm_bwd(dout, c_ln)
        _acc(grads, f"{pfx}.{ln}_g", dg)
        _acc(grads, f"{pfx}.{ln}_b", db)
        df = layers.dropout_bwd(dres, m)
        if sub == "ffn":
            dx, sub_grads = layers.ffn_bwd(df, c_f)
            dout = dres + dx
        elif sub == "self":
            dq, dkv, sub_grads = layers.attention_bwd(df, c_f)
            dout = dres + dq + dkv
        else:
            dq, d_memory, sub_grads = layers.attention_bwd(df, c_f)
            dout = dres + dq
        for key, value in sub_grads.items():
            _acc(grads, f"{pfx}.{sub}.{key}", value)
    return dout, d_memory


def _stack_fwd(params, kind, ids, memory=None, p_drop=0.0, rng=None):
    """Embedding plus the blocks of the encoder ("enc") or of the causal
    decoder ("dec"), which cross-attends over memory."""
    x, c_emb = _embed_fwd(params.tensors, ids, f"{kind}_emb_ln", p_drop, rng)
    mask = layers.causal_mask(len(ids), dtype=x.dtype) if kind == "dec" else None
    caches = []
    for i in range(getattr(params.config, f"n_{kind}_blocks")):
        x, cache = _block_fwd(x, params, f"{kind}{i}", BLOCK_LAYOUT[kind], mask, memory, p_drop, rng)
        caches.append(cache)
    return x, (c_emb, caches)


def _stack_bwd(dx, stack_cache, params, kind, grads):
    """Returns the gradient with respect to memory (None for the encoder)."""
    c_emb, caches = stack_cache
    d_memory = None
    for i in reversed(range(len(caches))):
        dx, d_mem_i = _block_bwd(dx, caches[i], f"{kind}{i}", BLOCK_LAYOUT[kind], grads)
        d_memory = d_mem_i if d_memory is None else d_memory + d_mem_i
    _embed_bwd(dx, c_emb, f"{kind}_emb_ln", grads, params.tensors)
    return d_memory


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
    enc, _ = _stack_fwd(params, "enc", seq.ids)
    if disable_attention:
        return EncodedThread(enc=enc, enc_att=enc)
    tokw = token_weights(seq, weights).astype(enc.dtype)
    return EncodedThread(enc=enc, enc_att=enc * tokw[:, None])


def decoder_logits(params: ModelParams, enc_att: np.ndarray, prefix: list[int]) -> np.ndarray:
    """Teacher-forced logits for every prefix position, shape (len(prefix), V)."""
    y, _ = _stack_fwd(params, "dec", list(prefix), enc_att)
    logits, _ = layers.linear_fwd(y, params["lm_W"], params["lm_b"])
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
        # per block: (sublayer, parameter views, layer-norm (gamma, beta)) in
        # BLOCK_LAYOUT order, and the (heads, enc_len, d_head) cross keys, values
        self.blocks = []
        self.cross_kv = []
        for i in range(cfg.n_dec_blocks):
            pfx = f"dec{i}"
            self.blocks.append([
                (sub, _sub(t, f"{pfx}.{sub}."), (t[f"{pfx}.{ln}_g"], t[f"{pfx}.{ln}_b"]))
                for sub, ln in BLOCK_LAYOUT["dec"]
            ])
            k, _ = layers.linear_fwd(enc_att, t[f"{pfx}.cross.Wk"], t[f"{pfx}.cross.bk"])
            v, _ = layers.linear_fwd(enc_att, t[f"{pfx}.cross.Wv"], t[f"{pfx}.cross.bv"])
            self.cross_kv.append((layers._split_heads(k, self.n_heads), layers._split_heads(v, self.n_heads)))
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
        n, d = y.shape
        heads = (n, self.n_heads, 1, d // self.n_heads)  # one new position per row
        kv = []
        for block, (k_enc, v_enc), (k_past, v_past) in zip(self.blocks, self.cross_kv, self._kv):
            for sub, p, ln in block:
                if sub == "ffn":
                    f, _ = layers.ffn_fwd(y, p)
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
                y, _ = layers.layer_norm_fwd(y + f, *ln)
        self._kv = kv
        self._rows = {p: row for row, p in enumerate(prefixes)}
        logits, _ = layers.linear_fwd(y, *self.lm)
        return layers.softmax(logits.astype(np.float64))


def forward_loss(
    params: ModelParams,
    seq: TokenSeq,
    weights: AttentionWeights,
    target: list[int],
    disable_attention: bool = False,
    rng=None,
):
    """Label-smoothed KL loss of the teacher-forced target plus full gradients.

    Positions whose gold token is [PAD] are excluded from the mean.  Returns
    (loss, gradient dict shaped like params.tensors).  A non-finite loss
    raises NumericsError; training checks the summed gradient once per step.
    """
    cfg = params.config
    target = list(target)
    if len(target) < 2 or target[0] != BOS or target[-1] != EOS:
        raise ModelError("target must start with [BOS] and end with [EOS]")
    if len(target) > cfg.max_len:
        raise ModelError(f"target of {len(target)} ids exceeds max_len {cfg.max_len}")

    p_drop = cfg.dropout if rng is not None else 0.0
    enc, enc_cache = _stack_fwd(params, "enc", seq.ids, p_drop=p_drop, rng=rng)
    if disable_attention:
        enc_att = enc
        tokw = None
    else:
        tokw = token_weights(seq, weights).astype(enc.dtype)
        enc_att = enc * tokw[:, None]

    dec_in = target[:-1]
    gold = np.asarray(target[1:])
    y, dec_cache = _stack_fwd(params, "dec", dec_in, enc_att, p_drop, rng)
    logits, c_lm = layers.linear_fwd(y, params["lm_W"], params["lm_b"])

    # loss: mean over non-PAD rows of KL(q || softmax), where q puts 1-eps on
    # the gold token and u = eps/(V-2) on every other non-PAD one, so sum q log q
    # is one constant; non-finiteness is checked explicitly, so let nan/inf propagate
    mask = gold != PAD
    n_eff = int(mask.sum())
    if n_eff == 0:
        raise ModelError("target contains no non-PAD positions to predict")
    eps = cfg.label_smoothing
    u = eps / (cfg.vocab_size - 2)
    q_log_q = (1.0 - eps) * math.log(1.0 - eps) + eps * math.log(u) if eps > 0 else 0.0
    rows = np.arange(len(gold))
    with np.errstate(invalid="ignore", over="ignore"):
        logits64 = logits.astype(np.float64)
        logz = logits64 - np.max(logits64, axis=-1, keepdims=True)
        logp = logz - np.log(np.sum(np.exp(logz), axis=-1, keepdims=True))
        logp_gold = logp[rows, gold]
        loss_rows = q_log_q - (1.0 - eps) * logp_gold - u * (logp.sum(axis=-1) - logp[:, PAD] - logp_gold)
        loss = float(loss_rows[mask].mean())
    if not math.isfinite(loss):
        raise NumericsError("non-finite loss")

    # d loss / d logits = (softmax - q) / n_eff on the non-PAD rows
    probs = np.exp(logp)
    dlogits = probs - u
    dlogits[:, PAD] = probs[:, PAD]
    dlogits[rows, gold] = probs[rows, gold] - (1.0 - eps)
    dlogits /= n_eff
    dlogits[~mask] = 0.0
    dlogits = dlogits.astype(logits.dtype)

    grads: dict[str, np.ndarray] = {}
    dy, grads["lm_W"], grads["lm_b"] = layers.linear_bwd(dlogits, c_lm)
    d_enc_att = _stack_bwd(dy, dec_cache, params, "dec", grads)
    d_enc = d_enc_att if disable_attention else d_enc_att * tokw[:, None]
    _stack_bwd(d_enc, enc_cache, params, "enc", grads)

    return loss, grads
