"""Transformer encoder-decoder with like-driven attention scaling.

The thread's token sequence is encoded by standard transformer blocks, then
every encoded token is multiplied elementwise by the attention weight of the
text it came from: 1 for the title, sqrt(likes / max likes) for a comment.
The decoder cross-attends over this scaled encoding.

Every block is a sequence of post-LN residual sublayers, listed once per
block kind in BLOCK_LAYOUT; init_params, the training forward and backward
passes (_block_fwd/_block_bwd under _stack_fwd/_stack_bwd) and
IncrementalDecoder all walk that table.

forward_loss's forward passes produce caches for an exact hand-written
backward pass, checked against central finite differences in the test
suite; at inference the FFN runs its forward alone, without GELU's
derivative.  Training runs forward_loss on a chunk of examples: their rows
are stacked, the row-wise layers see all of them at once, and attention is
block-diagonal, so no example attends to another's tokens.  Its backward
adds into a gradient dict the caller may pass, and frees each block's
activations once they are consumed, so the chunk's memory falls as its
backward runs.  IncrementalDecoder is inference only: it keeps the
attention keys and values of beam search's live rows, and the search names
the parent row that each new row extends.
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
    """Per-position weight vector; a position in no span (a [SEP]) takes the
    weight of the nearest spanned position before it."""
    w = np.asarray(weights.weights, dtype=np.float64)
    if seq.n_texts > len(w):
        raise ModelError(
            f"sequence spans {seq.n_texts} texts but only {len(w)} attention weights given"
        )
    source = np.full(len(seq.ids), -1)
    for start, end, text in seq.spans:
        source[start:end] = text
    spanned = source >= 0
    if len(source) and not spanned[0]:
        raise ModelError("position 0 is in no span, so no text precedes it to lend its weight")
    nearest = np.maximum.accumulate(np.where(spanned, np.arange(len(source)), 0))
    return w[source[nearest]]


# ---------------------------------------------------------------------------
# forward passes (shared by inference and training; caches carry what the
# backward pass needs)
# ---------------------------------------------------------------------------


def _sub(tensors, prefix):
    return {k[len(prefix):]: v for k, v in tensors.items() if k.startswith(prefix)}


def _row_slices(lengths) -> list[slice]:
    """The row slices of segments of these lengths, stacked in order."""
    ends = np.cumsum(lengths).tolist()
    return [slice(end - n, end) for n, end in zip(lengths, ends)]


def _n_dropouts(config: ModelConfig, kind: str) -> int:
    """Dropout layers a stack applies to each of its rows: the embedding's
    and one per sublayer."""
    return 1 + getattr(config, f"n_{kind}_blocks") * len(BLOCK_LAYOUT[kind])


def dropout_draws(config: ModelConfig, n_input: int, n_target: int) -> int:
    """The number of uniforms one training example's dropout draws: every
    dropout layer of the encoder over its n_input rows, then every one of the
    decoder over its n_target - 1 rows, in the order forward_loss applies
    them."""
    rows = _n_dropouts(config, "enc") * n_input + _n_dropouts(config, "dec") * (n_target - 1)
    return rows * config.d_model


def dropout_keep(config: ModelConfig, rng: np.random.Generator, n_input: int, n_target: int) -> np.ndarray:
    """One training example's dropout keep masks, every layer's in the order
    forward_loss applies them, drawn as one rng.random(n) >= dropout.
    Generator.random takes one 64-bit draw per double, so this draws the
    values, and leaves the rng in the state, that drawing each layer's
    uniforms in turn would."""
    return rng.random(dropout_draws(config, n_input, n_target)) >= config.dropout


def _chunk_keeps(config, rng, seqs, targets):
    """The encoder's and the decoder's keep-mask iterators for a chunk's
    dropout: each example's keep masks, drawn by dropout_keep when rng is a
    Generator or else taken from the list rng."""
    if not isinstance(rng, np.random.Generator) and len(rng) != len(seqs):
        raise ModelError(f"{len(rng)} dropout keep masks for a chunk of {len(seqs)} examples")
    d = config.d_model
    enc_keep, dec_keep = [], []
    for i, (seq, target) in enumerate(zip(seqs, targets)):
        n_in, n_target = len(seq.ids), len(target)
        keep = dropout_keep(config, rng, n_in, n_target) if isinstance(rng, np.random.Generator) else rng[i]
        n = dropout_draws(config, n_in, n_target)
        if keep.dtype != np.bool_ or keep.shape != (n,):
            raise ModelError(f"dropout keep mask of {keep.dtype} {keep.shape} for an example that draws {n}")
        n_enc = _n_dropouts(config, "enc") * n_in * d
        enc_keep.append(keep[:n_enc].reshape(-1, n_in, d))
        dec_keep.append(keep[n_enc:].reshape(-1, n_target - 1, d))
    return iter(np.concatenate(enc_keep, axis=1)), iter(np.concatenate(dec_keep, axis=1))


def _embed_fwd(tensors, ids, rows, ln_prefix, p_drop, keeps):
    positions = np.concatenate([np.arange(r.stop - r.start) for r in rows])
    e = tensors["tok_emb"][ids] + tensors["pos_emb"][positions]
    x, c_ln = layers.layer_norm_fwd(e, tensors[f"{ln_prefix}_g"], tensors[f"{ln_prefix}_b"])
    x, m = layers.dropout_fwd(x, p_drop, keeps)
    return x, (ids, rows, c_ln, m)


def _embed_bwd(dx, cache, ln_prefix, grads, emb):
    """Scatters into emb, the chunk's own tok_emb and pos_emb zeros, which
    forward_loss adds to grads once; a grads dict without them takes emb's
    arrays here, so its keys keep the order of the backward pass."""
    ids, rows, c_ln, m = cache
    dx = layers.dropout_bwd(dx, m)
    de, dg, db = layers.layer_norm_bwd(dx, c_ln)
    _acc(grads, f"{ln_prefix}_g", dg)
    _acc(grads, f"{ln_prefix}_b", db)
    for name, g in emb.items():
        grads.setdefault(name, g)
    np.add.at(emb["tok_emb"], ids, de)
    for r in rows:  # a slice add per segment: np.add.at is ten times slower here
        emb["pos_emb"][: r.stop - r.start] += de[r]


def _acc(grads, name, value):
    if name in grads:
        grads[name] += value
    else:
        grads[name] = value


def _block_fwd(x, params, pfx, layout, masks, memory, p_drop, keeps, train):
    tensors, n_heads = params.tensors, params.config.n_heads
    caches = []
    for sub, ln in layout:
        p = _sub(tensors, f"{pfx}.{sub}.")
        if sub == "ffn":
            f, c_f = layers.ffn_fwd(x, p, train)
        elif sub == "self":
            f, c_f = layers.attention_fwd(x, x, p, n_heads, mask=masks["self"])
        else:
            f, c_f = layers.attention_fwd(x, memory, p, n_heads, mask=masks["cross"])
        f, m = layers.dropout_fwd(f, p_drop, keeps)
        x, c_ln = layers.layer_norm_fwd(x + f, tensors[f"{pfx}.{ln}_g"], tensors[f"{pfx}.{ln}_b"])
        caches.append((c_f, m, c_ln))
    return x, caches


def _block_bwd(dout, caches, pfx, layout, grads):
    """Returns (dx, d_memory); d_memory is None for a block without "cross".
    Pops each sublayer's cache off caches as its backward starts."""
    d_memory = None
    for sub, ln in reversed(layout):
        c_f, m, c_ln = caches.pop()
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


def _stack_fwd(params, kind, ids, rows, memory=None, p_drop=0.0, keeps=None, train=False):
    """Embedding plus the blocks of the encoder ("enc") or of the causal
    decoder ("dec") on a chunk: ids holds the examples' ids one after another
    and rows their row slices.  Attention stays inside an example's rows; the
    decoder's segment i cross-attends over segment i of memory, a pair of the
    stacked encoder output and its row slices.  train: ffn_fwd's switch."""
    x, c_emb = _embed_fwd(params.tensors, ids, rows, f"{kind}_emb_ln", p_drop, keeps)
    if kind == "dec":
        memory, memory_rows = memory
        causal = layers.causal_mask(max(r.stop - r.start for r in rows), dtype=x.dtype)
        masks = {
            "self": [(r, r, causal[: r.stop - r.start, : r.stop - r.start]) for r in rows],
            "cross": [(r, m, None) for r, m in zip(rows, memory_rows)],
        }
    else:
        masks = {"self": [(r, r, None) for r in rows]}
    caches = []
    for i in range(getattr(params.config, f"n_{kind}_blocks")):
        x, cache = _block_fwd(x, params, f"{kind}{i}", BLOCK_LAYOUT[kind], masks, memory, p_drop, keeps, train)
        caches.append(cache)
    return x, (c_emb, caches)


def _stack_bwd(dx, stack_cache, kind, grads, emb):
    """Returns the gradient with respect to memory (None for the encoder).
    Empties stack_cache's block list as it goes, so each block's activations
    are freed once its backward has run."""
    c_emb, caches = stack_cache
    d_memory = None
    for i in reversed(range(len(caches))):
        dx, d_mem_i = _block_bwd(dx, caches.pop(), f"{kind}{i}", BLOCK_LAYOUT[kind], grads)
        d_memory = d_mem_i if d_memory is None else d_memory + d_mem_i
    _embed_bwd(dx, c_emb, f"{kind}_emb_ln", grads, emb)
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
    enc, _ = _stack_fwd(params, "enc", seq.ids, _row_slices([len(seq.ids)]))
    if disable_attention:
        return EncodedThread(enc=enc, enc_att=enc)
    tokw = token_weights(seq, weights).astype(enc.dtype)
    return EncodedThread(enc=enc, enc_att=enc * tokw[:, None])


def decoder_logits(params: ModelParams, enc_att: np.ndarray, prefix: list[int]) -> np.ndarray:
    """Teacher-forced logits for every prefix position, shape (len(prefix), V)."""
    prefix = list(prefix)
    memory = (enc_att, _row_slices([len(enc_att)]))
    y, _ = _stack_fwd(params, "dec", prefix, _row_slices([len(prefix)]), memory)
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
    if not 0 <= min(prefix) <= max(prefix) < params.config.vocab_size:
        raise ModelError(f"prefix ids must lie in [0, {params.config.vocab_size}), got {min(prefix)} to {max(prefix)}")
    logits = decoder_logits(params, enc_att, prefix)
    return layers.softmax(logits[-1].astype(np.float64))


class IncrementalDecoder:
    """Next-token distributions for the live rows of one encoded thread's
    beam, advanced together by one position per step.

    The search loop owns the beam tree.  step(ids, parents) takes its
    (n_live, length) id matrix, one id longer than the previous step's, and
    parents[i], the row of the previous step's matrix that row i extends;
    the first step is ids [[BOS]], parents [0].  Row i gathers its parent's
    self-attention keys and values and appends those of ids[i, -1], so a
    step costs one (n_live, d_model) pass whatever the length.  The
    cross-attention keys and values of the encoding are projected once.
    Self-attention projects q, k and v with one matmul by Wq|Wk|Wv, the
    three weights concatenated by columns once per decoder: each output
    column is its row's dot product with one weight column, summed over
    the same d_model inputs in the same order whatever the number of
    columns, so the fused columns equal the three separate projections bit
    for bit (tests/test_model.py::TestFusedSelfAttentionProjection).  A
    block's keys and values sit in one (rows, 2, heads, length, d_head)
    array, so a step gathers and extends both with one index and one
    concatenate.

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
            block = []
            for sub, ln in BLOCK_LAYOUT["dec"]:
                p = _sub(t, f"{pfx}.{sub}.")
                if sub == "self":  # q, k and v from one (d_model, 3 d_model) projection
                    p["Wqkv"] = np.concatenate((p["Wq"], p["Wk"], p["Wv"]), axis=1)
                    p["bqkv"] = np.concatenate((p["bq"], p["bk"], p["bv"]))
                block.append((sub, p, (t[f"{pfx}.{ln}_g"], t[f"{pfx}.{ln}_b"])))
            self.blocks.append(block)
            k, _ = layers.linear_fwd(enc_att, t[f"{pfx}.cross.Wk"], t[f"{pfx}.cross.bk"])
            v, _ = layers.linear_fwd(enc_att, t[f"{pfx}.cross.Wv"], t[f"{pfx}.cross.bv"])
            self.cross_kv.append((layers._split_heads(k, self.n_heads), layers._split_heads(v, self.n_heads)))
        # per block, the previous step's (rows, k|v, heads, length, d_head)
        empty = np.zeros((1, 2, self.n_heads, 0, cfg.d_model // cfg.n_heads), dtype=params.dtype)
        self._kv = [empty] * cfg.n_dec_blocks

    def step(self, ids: np.ndarray, parents) -> np.ndarray:
        """Next-token distributions after each row of ids, shape (n_live, V),
        float64.  Raises ModelError for malformed ids or parents, a length
        that is not the previous step's plus one or reaches max_len, a first
        step not at [BOS], a new id outside the vocabulary, or a parent
        outside the previous step's rows."""
        parents = np.asarray(parents)
        n_prev, _, _, prev_length, _ = self._kv[0].shape
        if (ids.ndim != 2 or len(ids) == 0 or ids.dtype.kind not in "iu"
                or parents.shape != ids.shape[:1] or parents.dtype.kind not in "iu"):
            raise ModelError(f"step needs a non-empty integer id matrix and one integer parent per row, "
                             f"got ids {ids.dtype} {ids.shape} and parents {parents.dtype} {parents.shape}")
        n, length = ids.shape
        if length != prev_length + 1:
            raise ModelError(f"rows of {length} ids after rows of {prev_length}; each step adds one id")
        if length >= self.max_len:
            raise ModelError(f"prefix of {length} ids too long for max_len {self.max_len}")
        if length == 1 and (ids[:, 0] != BOS).any():
            raise ModelError("prefix must start with [BOS]")
        # range checks on Python ints: for a step's handful of rows, numpy's
        # min and max reductions cost more than the list's
        rows = parents.tolist()
        if min(rows) < 0 or max(rows) >= n_prev:
            raise ModelError(f"parent rows must lie in [0, {n_prev}), got {min(rows)} to {max(rows)}")
        new = ids[:, -1]  # earlier columns were checked when they were new
        new_ids = new.tolist()
        if min(new_ids) < 0 or max(new_ids) >= len(self.tok_emb):
            raise ModelError(f"ids must lie in [0, {len(self.tok_emb)}), got {min(new_ids)} to {max(new_ids)}")

        y = self.tok_emb[new] + self.pos_emb[length - 1]
        y, _ = layers.layer_norm_fwd(y, *self.emb_ln)
        d = y.shape[1]
        # the fused projection's (n, q|k|v, heads, 1, d_head): one new position per row
        split = (n, 3, self.n_heads, 1, d // self.n_heads)
        kv = []
        for block, (k_enc, v_enc), kv_past in zip(self.blocks, self.cross_kv, self._kv):
            for sub, p, ln in block:
                if sub == "ffn":
                    f, _ = layers.ffn_fwd(y, p, train=False)
                elif sub == "self":
                    qkv, _ = layers.linear_fwd(y, p["Wqkv"], p["bqkv"])
                    qkv = qkv.reshape(split)
                    k_v = np.concatenate((kv_past[parents], qkv[:, 1:]), axis=3)
                    kv.append(k_v)
                    _, ctx = layers.attend(qkv[:, 0], k_v[:, 0], k_v[:, 1])
                    f, _ = layers.linear_fwd(ctx.reshape(n, d), p["Wo"], p["bo"])
                else:
                    q, _ = layers.linear_fwd(y, p["Wq"], p["bq"])
                    _, ctx = layers.attend(layers._split_heads(q, self.n_heads), k_enc, v_enc)
                    f, _ = layers.linear_fwd(layers._merge_heads(ctx), p["Wo"], p["bo"])
                y, _ = layers.layer_norm_fwd(y + f, *ln)
        self._kv = kv
        logits, _ = layers.linear_fwd(y, *self.lm)
        return layers.softmax(logits.astype(np.float64))


def _smoothed_kl(logits, gold, dec_rows, cfg):
    """The summed per-example loss of a chunk's logits and d loss / d logits
    in their dtype.  The (rows, V) float64 arrays are this function's own,
    so they are freed when it returns."""
    # each example's loss: the mean over its non-PAD rows of KL(q || softmax),
    # where q puts 1-eps on the gold token and u = eps/(V-2) on every other
    # non-PAD one, so sum q log q is one constant; non-finiteness is checked
    # explicitly, so let nan/inf propagate
    mask = gold != PAD
    n_eff = [int(mask[r].sum()) for r in dec_rows]
    if 0 in n_eff:
        raise ModelError("target contains no non-PAD positions to predict")
    eps = cfg.label_smoothing
    u = eps / (cfg.vocab_size - 2)
    q_log_q = (1.0 - eps) * math.log(1.0 - eps) + eps * math.log(u) if eps > 0 else 0.0
    rows = np.arange(len(gold))
    with np.errstate(invalid="ignore", over="ignore"):
        # updated in place: a chunk's (rows, V) float64 arrays are its largest
        logp = logits.astype(np.float64)
        logp -= np.max(logp, axis=-1, keepdims=True)
        logp -= np.log(np.sum(np.exp(logp), axis=-1, keepdims=True))
        logp_gold = logp[rows, gold]
        loss_rows = q_log_q - (1.0 - eps) * logp_gold - u * (logp.sum(axis=-1) - logp[:, PAD] - logp_gold)
        loss = 0.0
        for r in dec_rows:
            loss += float(loss_rows[r][mask[r]].mean())
    if not math.isfinite(loss):
        raise NumericsError("non-finite loss")

    # d loss / d logits = (softmax - q) / n_eff on each example's non-PAD rows
    dlogits = np.exp(logp, out=logp)
    probs_pad, probs_gold = dlogits[:, PAD].copy(), dlogits[rows, gold]
    dlogits -= u
    dlogits[:, PAD] = probs_pad
    dlogits[rows, gold] = probs_gold - (1.0 - eps)
    dlogits /= np.repeat(np.asarray(n_eff, dtype=np.float64), [r.stop - r.start for r in dec_rows])[:, None]
    dlogits[~mask] = 0.0
    return loss, dlogits.astype(logits.dtype)


def forward_loss(
    params: ModelParams,
    seq: TokenSeq,
    weights: AttentionWeights,
    target: list[int],
    disable_attention: bool = False,
    rng=None,
    grads: dict[str, np.ndarray] | None = None,
):
    """Label-smoothed KL loss of the teacher-forced target plus full gradients.

    seq, weights and target are one example's, or parallel lists of a
    chunk's examples; a chunk runs as one forward and backward pass over the
    examples' stacked rows, with attention kept inside each example, and
    returns the sum of the examples' losses and of their gradients.  Each
    example's loss is the mean over its positions whose gold token is not
    [PAD].  rng is None (no dropout), a Generator or, for a chunk, each
    example's dropout_keep(...) masks already drawn; from a Generator each
    example draws its dropout_keep(...) in turn.  Returns (loss, gradient
    dict shaped like params.tensors).  A non-finite loss raises
    NumericsError; training checks the summed gradient once per step.

    grads, when given, is the dict to add the gradients into, in place, and
    the one returned: a training step passes one dict to all of its chunks.
    A parameter missing from it takes the chunk's array; one present gets
    `grads[name] += chunk's`, the sum of the chunks' separate dicts bit for
    bit.  The backward pass frees each block's activations once that
    block's backward has run, and the decoder's, with the logits, before
    the encoder's backward starts.
    """
    cfg = params.config
    if isinstance(seq, TokenSeq):
        seq, weights, target = [seq], [weights], [target]
    if not 0 < len(seq) == len(weights) == len(target):
        raise ModelError("a chunk needs non-empty parallel lists of inputs, weights and targets")
    seqs, targets = seq, [list(t) for t in target]
    for t in targets:
        if len(t) < 2 or t[0] != BOS or t[-1] != EOS:
            raise ModelError("target must start with [BOS] and end with [EOS]")
        if len(t) > cfg.max_len:
            raise ModelError(f"target of {len(t)} ids exceeds max_len {cfg.max_len}")
    enc_rows = _row_slices([len(s.ids) for s in seqs])
    dec_rows = _row_slices([len(t) - 1 for t in targets])

    p_drop = cfg.dropout if rng is not None else 0.0
    enc_keeps, dec_keeps = _chunk_keeps(cfg, rng, seqs, targets) if p_drop > 0 else (None, None)
    enc_ids = [i for s in seqs for i in s.ids]
    enc, enc_cache = _stack_fwd(params, "enc", enc_ids, enc_rows, p_drop=p_drop, keeps=enc_keeps, train=True)
    if disable_attention:
        enc_att = enc
        tokw = None
    else:
        tokw = np.concatenate([token_weights(s, w) for s, w in zip(seqs, weights)]).astype(enc.dtype)
        enc_att = enc * tokw[:, None]

    dec_in = [i for t in targets for i in t[:-1]]
    gold = np.asarray([i for t in targets for i in t[1:]])
    y, dec_cache = _stack_fwd(params, "dec", dec_in, dec_rows, (enc_att, enc_rows), p_drop, dec_keeps, train=True)
    del enc, enc_att  # freed with the decoder's cross-attention caches, which hold them
    logits, c_lm = layers.linear_fwd(y, params["lm_W"], params["lm_b"])
    loss, dlogits = _smoothed_kl(logits, gold, dec_rows, cfg)
    del y, logits

    grads = {} if grads is None else grads
    emb = {name: np.zeros_like(params[name]) for name in ("tok_emb", "pos_emb")}
    dy, d_lm_W, d_lm_b = layers.linear_bwd(dlogits, c_lm)
    del dlogits, c_lm
    _acc(grads, "lm_W", d_lm_W)
    _acc(grads, "lm_b", d_lm_b)
    d_enc_att = _stack_bwd(dy, dec_cache, "dec", grads, emb)
    del dy, dec_cache
    d_enc = d_enc_att if disable_attention else d_enc_att * tokw[:, None]
    _stack_bwd(d_enc, enc_cache, "enc", grads, emb)
    for name, g in emb.items():
        if grads[name] is not g:  # not the chunk's own array, taken by a fresh dict
            grads[name] += g
    return loss, grads
