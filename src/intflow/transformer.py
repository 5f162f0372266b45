"""Integer transformer blocks: polynomial attention, L1 layer norm, FFN.

The integer path never de-quantizes: irrational constants (1/sqrt(d_m),
the L1 norm constant, 1/n_h) are folded into scales, and divisions happen
on wide-lane payloads.  A structurally identical FP32 twin provides the
oracle for every precision measurement, and a hybrid engine runs any
subset of modules in the integer path with quantize/de-quantize
sandwiching at the boundaries.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import kernels as K
from .audit import PAYLOAD, SCALE
from .errors import ShapeError, ValidationError
from .scaling import (
    Precision,
    ScaleGranularity,
    Session,
    dequantize,
    init_scale,
    quantize,
    scale_match_dim,
)
from .tensor import IntTensor, RationalTensor, ScaledTensor, ScaleTensor

EMB = "Emb"
ATTN = "Attn"
FFN = "FFN"
LN = "LN"
RES = "Res"
PROJ = "Proj"
MODULES = (EMB, ATTN, FFN, LN, RES, PROJ)
ALL_MODULES = frozenset(MODULES)

SOFTMAX = "softmax"
POLY = "poly"

# E|N(0,1)| = sqrt(2/pi), so the L1 mean underestimates sigma by this factor.
L1_NORM_CONST = math.sqrt(math.pi / 2.0)


@dataclass(frozen=True)
class PolyParams:
    """Attention weight function [ReLU(x + bias)]^degree + |offset|."""

    bias: float = 1.0
    degree: int = 3
    offset: float = 0.1

    def __post_init__(self):
        if self.degree < 1:
            raise ValidationError("polynomial degree must be >= 1")


@dataclass(frozen=True)
class L1LNParams:
    """Layer norm replacing the standard deviation by the scaled L1 mean."""

    gain: np.ndarray
    bias: np.ndarray
    n_h: int

    def __post_init__(self):
        g = np.asarray(self.gain, dtype=np.float64)
        b = np.asarray(self.bias, dtype=np.float64)
        if g.shape != (self.n_h,) or b.shape != (self.n_h,):
            raise ShapeError("L1LN gain/bias must match the hidden width")
        object.__setattr__(self, "gain", g)
        object.__setattr__(self, "bias", b)


@dataclass(frozen=True)
class ModelConfig:
    d_m: int = 32
    heads: int = 2
    d_ff: int = 128
    n_layers: int = 2
    vocab: int = 64
    precision: int = 7
    granularity: ScaleGranularity = ScaleGranularity.PER_ROW
    degree: int = 3

    def __post_init__(self):
        if self.d_m % self.heads:
            raise ValidationError("model width must divide evenly across heads")
        if self.degree * self.precision > 60:
            raise ValidationError("degree x precision would overflow the wide lane")


@dataclass(frozen=True)
class FP32LayerParams:
    w_q: np.ndarray
    w_k: np.ndarray
    w_v: np.ndarray
    w_o: np.ndarray
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    poly: PolyParams
    ln1: L1LNParams
    ln2: L1LNParams


@dataclass(frozen=True)
class FP32ReferenceModel:
    """Rational twin of the integer model; oracle for precision loss."""

    config: ModelConfig
    embedding: np.ndarray
    layers: tuple[FP32LayerParams, ...]
    final_ln: L1LNParams
    proj: np.ndarray
    attention_flavor: str = POLY  # POLY matches the integer architecture


@dataclass(frozen=True)
class TransformerLayerParams:
    """Quantized weights; all matrices are stored (out_dim, in_dim)."""

    w_q: ScaledTensor
    w_k: ScaledTensor
    w_v: ScaledTensor
    w_o: ScaledTensor
    w1: ScaledTensor
    b1: ScaledTensor
    w2: ScaledTensor
    b2: ScaledTensor
    ln1_g: ScaledTensor
    ln1_b: ScaledTensor
    ln2_g: ScaledTensor
    ln2_b: ScaledTensor
    poly: PolyParams
    ln1: L1LNParams
    ln2: L1LNParams


@dataclass(frozen=True)
class IntegerTransformerModel:
    config: ModelConfig
    embedding: ScaledTensor
    layers: tuple[TransformerLayerParams, ...]
    final_ln: L1LNParams
    final_ln_g: ScaledTensor
    final_ln_b: ScaledTensor
    proj: ScaledTensor


# ---------------------------------------------------------------------------
# model construction


def _f32(values: np.ndarray) -> np.ndarray:
    return values.astype(np.float32).astype(np.float64)


def random_reference_model(
    config: ModelConfig, seed: int, attention_flavor: str = POLY
) -> FP32ReferenceModel:
    """Random toy model with float32-representable parameters."""
    rng = np.random.default_rng(seed)
    d, f, v = config.d_m, config.d_ff, config.vocab

    def mat(out_dim, in_dim):
        return _f32(rng.normal(0.0, 1.0 / math.sqrt(in_dim), (out_dim, in_dim)))

    def ln(n_h):
        return L1LNParams(
            gain=_f32(rng.uniform(0.8, 1.2, n_h)),
            bias=_f32(rng.normal(0.0, 0.05, n_h)),
            n_h=n_h,
        )

    layers = []
    for _ in range(config.n_layers):
        layers.append(
            FP32LayerParams(
                w_q=mat(d, d), w_k=mat(d, d), w_v=mat(d, d), w_o=mat(d, d),
                w1=mat(f, d), b1=_f32(rng.normal(0.0, 0.05, f)),
                w2=mat(d, f), b2=_f32(rng.normal(0.0, 0.05, d)),
                poly=PolyParams(
                    bias=float(np.float32(rng.uniform(0.2, 1.0))),
                    degree=config.degree,
                    offset=float(np.float32(rng.uniform(0.05, 0.2))),
                ),
                ln1=ln(d),
                ln2=ln(d),
            )
        )
    return FP32ReferenceModel(
        config=config,
        embedding=_f32(rng.normal(0.0, 1.0, (v, d))),
        layers=tuple(layers),
        final_ln=ln(d),
        proj=mat(v, d),
        attention_flavor=attention_flavor,
    )


def _quantize_param(
    values: np.ndarray, prec: Precision, session: Session | None, module: str
) -> ScaledTensor:
    r = RationalTensor(values)
    s = init_scale(r, ScaleGranularity.PER_ROW, prec)
    t = quantize(r, s, prec.p)
    if session is not None:
        session.note("quantize", SCALE, values.size, module)
    return t


def quantize_model(
    ref: FP32ReferenceModel,
    precision: int | None = None,
    session: Session | None = None,
) -> IntegerTransformerModel:
    """Quantize every weight per-row; Q() events land in the session log."""
    cfg = ref.config
    if precision is not None and precision != cfg.precision:
        cfg = replace(cfg, precision=precision)
    prec = Precision(cfg.precision)

    def q(values, module):
        return _quantize_param(values, prec, session, module)

    layers = []
    for lp in ref.layers:
        layers.append(
            TransformerLayerParams(
                w_q=q(lp.w_q, ATTN), w_k=q(lp.w_k, ATTN),
                w_v=q(lp.w_v, ATTN), w_o=q(lp.w_o, ATTN),
                w1=q(lp.w1, FFN), b1=q(lp.b1, FFN),
                w2=q(lp.w2, FFN), b2=q(lp.b2, FFN),
                ln1_g=q(lp.ln1.gain, LN), ln1_b=q(lp.ln1.bias, LN),
                ln2_g=q(lp.ln2.gain, LN), ln2_b=q(lp.ln2.bias, LN),
                poly=lp.poly,
                ln1=lp.ln1,
                ln2=lp.ln2,
            )
        )
    return IntegerTransformerModel(
        config=cfg,
        embedding=q(ref.embedding, EMB),
        layers=tuple(layers),
        final_ln=ref.final_ln,
        final_ln_g=q(ref.final_ln.gain, LN),
        final_ln_b=q(ref.final_ln.bias, LN),
        proj=q(ref.proj, PROJ),
    )


def reference_twin(model: IntegerTransformerModel, attention_flavor: str = POLY) -> FP32ReferenceModel:
    """FP32 model whose parameters equal the de-quantized integer ones."""
    def d(t: ScaledTensor) -> np.ndarray:
        return dequantize(t).values

    layers = []
    for lp in model.layers:
        layers.append(
            FP32LayerParams(
                w_q=d(lp.w_q), w_k=d(lp.w_k), w_v=d(lp.w_v), w_o=d(lp.w_o),
                w1=d(lp.w1), b1=d(lp.b1), w2=d(lp.w2), b2=d(lp.b2),
                poly=lp.poly,
                ln1=L1LNParams(d(lp.ln1_g), d(lp.ln1_b), lp.ln1.n_h),
                ln2=L1LNParams(d(lp.ln2_g), d(lp.ln2_b), lp.ln2.n_h),
            )
        )
    return FP32ReferenceModel(
        config=model.config,
        embedding=d(model.embedding),
        layers=tuple(layers),
        final_ln=L1LNParams(
            d(model.final_ln_g), d(model.final_ln_b), model.final_ln.n_h
        ),
        proj=d(model.proj),
        attention_flavor=attention_flavor,
    )


# ---------------------------------------------------------------------------
# integer-path helpers


def _broadcast_to(t: ScaledTensor, shape: tuple[int, ...]) -> ScaledTensor:
    """Broadcast a payload as a read-only view; scale dims keep their
    collapsed form, and a scale of full rank is shared as it is."""
    data = t.data.view(np.broadcast_to(t.data.values, shape), same_max=True)
    pad = (1,) * (len(shape) - len(t.scale.shape))
    scale = ScaleTensor(t.scale.values.reshape(pad + t.scale.shape)) if pad else t.scale
    return ScaledTensor(data, scale)


def _fold_scale(t: ScaledTensor, factor: float, session: Session, module: str) -> ScaledTensor:
    """Divide the de-quantized view by `factor` by growing the scale."""
    session.note("scale_fold", SCALE, t.scale.values.size, module)
    return ScaledTensor(t.data, ScaleTensor(t.scale.values * factor))


def _boost(t: ScaledTensor, session: Session, module: str) -> ScaledTensor:
    """Exact payload gain {lam*x, lam*s} to keep precision across a division."""
    m = max(t.data.max_magnitude, 1)
    lam = int(max(1, (1 << 60) // (m + 1)))
    if lam == 1:
        return t
    session.note("boost", PAYLOAD, t.data.values.size, module)
    return ScaledTensor(
        IntTensor.adopt(t.data.values * lam, t.precision),
        ScaleTensor(t.scale.values * lam),
    )


def _slice_cols(t: ScaledTensor, sl: slice) -> ScaledTensor:
    data = t.data.view(t.data.values[:, sl])
    s = t.scale
    return ScaledTensor(data, ScaleTensor(s.values[:, sl]) if s.shape[1] != 1 else s)


def _quantize_const(
    value: float, like: ScaledTensor, session: Session, module: str, min_payload: int = 0
) -> ScaledTensor:
    """Quantize a scalar constant into an existing scale regime."""
    r = RationalTensor(np.broadcast_to(np.float64(value), like.shape))
    t = session.quantize(r, like.scale, module)
    if min_payload and np.any(t.data.values < min_payload):
        x = np.maximum(t.data.values, min_payload)
        t = ScaledTensor(IntTensor.adopt(x, t.precision), t.scale)
    return t


# ---------------------------------------------------------------------------
# integer-path modules


def poly(scores: ScaledTensor, pp: PolyParams, session: Session, module: str = ATTN) -> ScaledTensor:
    """[ReLU(x + bias)]^degree + |offset| on the integer lane."""
    b_q = _quantize_const(pp.bias, scores, session, module)
    x = session.apply(K.add, [scores, b_q], module)
    x = session.apply(K.relu, [x], module)
    x = session.apply(K.pow_n, [x], module, n=pp.degree)
    # A zero offset payload would break the degenerate all-below-threshold
    # case, so a nonzero offset always contributes at least one level.
    min_payload = 1 if pp.offset != 0.0 else 0
    d_q = _quantize_const(abs(pp.offset), x, session, module, min_payload=min_payload)
    return session.apply(K.add, [x, d_q], module)


def poly_attention(
    q: ScaledTensor,
    k: ScaledTensor,
    v: ScaledTensor,
    pp: PolyParams,
    d_m: int,
    session: Session,
    module: str = ATTN,
) -> ScaledTensor:
    """Normalized polynomial attention for one head.

    The weighted value sum and the weight sum stay in the wide lane; only
    their quotient is projected back to the logical precision.
    """
    scores = session.apply(K.matmul, [q, k], module)
    scores = _fold_scale(scores, math.sqrt(d_m), session, module)
    weights = poly(scores, pp, session, module)
    # Match the T x T weights once; matmul and sum_reduce then find a scale
    # already collapsed along the contraction axis.
    weights = scale_match_dim(weights, -1)
    v_t = K.transpose(v, (1, 0))
    num = session.apply(K.matmul, [weights, v_t], module, allow_rescale=False)
    den = session.apply(
        K.sum_reduce, [weights], module, axis=1, keepdims=True, allow_rescale=False
    )
    num = _boost(num, session, module)
    return session.apply(K.int_div, [num, den], module)


def l1_layer_norm(
    x: ScaledTensor,
    lp: L1LNParams,
    g_q: ScaledTensor,
    b_q: ScaledTensor,
    session: Session,
    module: str = LN,
) -> ScaledTensor:
    """Center, divide by the scaled L1 mean, then apply gain and bias.

    The norm constant and 1/n_h are folded into the denominator scale; the
    numerator is boosted exactly before the integer division.
    """
    if x.shape[-1] != lp.n_h:
        raise ShapeError("hidden dim does not match the layer norm width")
    xm = scale_match_dim(x, -1)
    total = session.apply(K.sum_reduce, [xm], module, axis=-1, keepdims=True, allow_rescale=False)
    n = lp.n_h
    # Integer mean, rounded half away from zero, negated.  total shares xm's
    # scale object, so the add below skips matching.
    t = total.data.values
    neg_mu = -np.sign(t) * ((2 * np.abs(t) + n) // (2 * n))
    neg_mu = _broadcast_to(
        ScaledTensor(IntTensor.adopt(neg_mu, x.precision), total.scale), xm.shape
    )
    centered = session.apply(K.add, [xm, neg_mu], module, allow_rescale=False)
    l1 = session.apply(
        K.sum_reduce,
        [session.apply(K.abs_, [centered], module, allow_rescale=False)],
        module,
        axis=-1,
        keepdims=True,
        allow_rescale=False,
    )
    degenerate = l1.data.values == 0
    den = ScaledTensor(
        IntTensor.adopt(np.where(degenerate, 1, l1.data.values), x.precision),
        ScaleTensor(np.where(degenerate, 1.0, l1.scale.values * (n / L1_NORM_CONST))),
    )
    session.note("scale_fold", SCALE, den.scale.values.size, module)
    num = _boost(centered, session, module)
    y = session.apply(K.int_div, [num, den], module)
    y = session.apply(K.ew_mul, [y, g_q], module)
    return session.apply(K.add, [y, _broadcast_to(b_q, y.shape)], module)


def attn_core(x: ScaledTensor, lp: TransformerLayerParams, cfg: ModelConfig, session: Session) -> ScaledTensor:
    """Multi-head polynomial attention with input/output projections."""
    d_h = cfg.d_m // cfg.heads
    q = session.apply(K.matmul, [x, lp.w_q], ATTN)
    k = session.apply(K.matmul, [x, lp.w_k], ATTN)
    v = session.apply(K.matmul, [x, lp.w_v], ATTN)
    heads = []
    for h in range(cfg.heads):
        sl = slice(h * d_h, (h + 1) * d_h)
        heads.append(
            poly_attention(
                _slice_cols(q, sl), _slice_cols(k, sl), _slice_cols(v, sl),
                lp.poly, cfg.d_m, session,
            )
        )
    cat = session.apply(K.concat, heads, ATTN, axis=1)
    return session.apply(K.matmul, [cat, lp.w_o], ATTN)


def ffn_core(y: ScaledTensor, lp: TransformerLayerParams, session: Session) -> ScaledTensor:
    """ReLU(y W1 + b1) W2 + b2 on the integer lane."""
    h = session.apply(K.matmul, [y, lp.w1], FFN)
    h = session.apply(K.add, [h, _broadcast_to(lp.b1, h.shape)], FFN)
    h = session.apply(K.relu, [h], FFN)
    h = session.apply(K.matmul, [h, lp.w2], FFN)
    return session.apply(K.add, [h, _broadcast_to(lp.b2, h.shape)], FFN)


def residual_add(a: ScaledTensor, b: ScaledTensor, session: Session) -> ScaledTensor:
    return session.apply(K.add, [a, b], RES)


def ffn_forward(x: ScaledTensor, lp: TransformerLayerParams, session: Session) -> ScaledTensor:
    """Pre-norm FFN sublayer: x + FFN(L1LN(x)); integer path end to end."""
    y = l1_layer_norm(x, lp.ln2, lp.ln2_g, lp.ln2_b, session)
    y = ffn_core(y, lp, session)
    return residual_add(y, x, session)


def layer_forward(x: ScaledTensor, lp: TransformerLayerParams, cfg: ModelConfig, session: Session) -> ScaledTensor:
    """One encoder layer: attention sublayer then FFN sublayer, pre-norm."""
    y = l1_layer_norm(x, lp.ln1, lp.ln1_g, lp.ln1_b, session)
    y = attn_core(y, lp, cfg, session)
    x = residual_add(y, x, session)
    return ffn_forward(x, lp, session)


def gather_embedding(model: IntegerTransformerModel, tokens: np.ndarray, session: Session) -> ScaledTensor:
    tokens = np.asarray(tokens, dtype=np.int64)
    if tokens.ndim != 1 or np.any(tokens < 0) or np.any(tokens >= model.config.vocab):
        raise ValidationError("token ids out of range")
    emb = model.embedding
    session.note("gather", PAYLOAD, tokens.size * model.config.d_m, EMB)
    return ScaledTensor(
        IntTensor.adopt(emb.data.values[tokens], emb.precision),
        ScaleTensor(emb.scale.values[tokens]),
    )


# ---------------------------------------------------------------------------
# FP32 twin modules


def ref_l1ln(x: np.ndarray, lp: L1LNParams) -> np.ndarray:
    mu = np.mean(x, axis=-1, keepdims=True)
    c = x - mu
    den = L1_NORM_CONST * np.mean(np.abs(c), axis=-1, keepdims=True)
    norm = np.where(den > 0, c / np.where(den > 0, den, 1.0), 0.0)
    return lp.gain * norm + lp.bias


def ref_softmax(x: np.ndarray) -> np.ndarray:
    e = np.exp(x - np.max(x, axis=-1, keepdims=True))
    return e / np.sum(e, axis=-1, keepdims=True)


def ref_poly(x: np.ndarray, pp: PolyParams) -> np.ndarray:
    return np.maximum(x + pp.bias, 0.0) ** pp.degree + abs(pp.offset)


def ref_attn_core(x: np.ndarray, lp: FP32LayerParams, cfg: ModelConfig, flavor: str) -> np.ndarray:
    d_h = cfg.d_m // cfg.heads
    q = x @ lp.w_q.T
    k = x @ lp.w_k.T
    v = x @ lp.w_v.T
    outs = []
    for h in range(cfg.heads):
        sl = slice(h * d_h, (h + 1) * d_h)
        scores = (q[:, sl] @ k[:, sl].T) / math.sqrt(cfg.d_m)
        if flavor == SOFTMAX:
            w = ref_softmax(scores)
            outs.append(w @ v[:, sl])
        else:
            w = ref_poly(scores, lp.poly)
            outs.append((w @ v[:, sl]) / np.sum(w, axis=-1, keepdims=True))
    return np.concatenate(outs, axis=1) @ lp.w_o.T


def ref_ffn_core(y: np.ndarray, lp: FP32LayerParams) -> np.ndarray:
    return np.maximum(y @ lp.w1.T + lp.b1, 0.0) @ lp.w2.T + lp.b2


# ---------------------------------------------------------------------------
# the hybrid engine


def forward(
    model: IntegerTransformerModel | None,
    session: Session | None,
    *,
    tokens: np.ndarray | None = None,
    hidden=None,
    int_modules: frozenset[str] = ALL_MODULES,
    ref: FP32ReferenceModel | None = None,
    tap=None,
):
    """Run the stack with each module on its chosen lane.

    Modules named in `int_modules` run on the integer path; the rest run in
    FP32 on the reference twin's parameters, with quantization at entries to
    integer modules and de-quantization at exits (both audited).  Passing
    `tokens` runs embedding and output projection; passing `hidden` (a
    RationalTensor or ScaledTensor shaped T x d_m) runs the layer stack and
    the final norm only.
    """
    unknown = set(int_modules) - set(MODULES)
    if unknown:
        raise ValidationError(f"unknown module tags: {sorted(unknown)}")
    if int_modules and model is None:
        raise ValidationError("integer modules need a quantized model")
    if int_modules != ALL_MODULES and ref is None:
        if model is None:
            raise ValidationError("FP32 modules need a reference model")
        ref = reference_twin(model)
    cfg = (model or ref).config

    def to_int(state, module):
        if isinstance(state, ScaledTensor):
            return state
        s = init_scale(state, cfg.granularity, session.precision)
        return session.quantize(state, s, module)

    def to_fp(state, module) -> np.ndarray:
        if isinstance(state, ScaledTensor):
            return session.dequantize(state, module).values
        return state.values if isinstance(state, RationalTensor) else state

    def emit(tag, layer, state):
        if tap is not None:
            tap(tag, layer, state)

    if tokens is not None:
        tokens = np.asarray(tokens, dtype=np.int64)
        if EMB in int_modules:
            state = gather_embedding(model, tokens, session)
        else:
            if np.any(tokens < 0) or np.any(tokens >= cfg.vocab):
                raise ValidationError("token ids out of range")
            state = RationalTensor(ref.embedding[tokens])
        emit(EMB, 0, state)
    elif hidden is not None:
        state = hidden
    else:
        raise ValidationError("either tokens or hidden input is required")

    n_layers = cfg.n_layers
    for li in range(n_layers):
        lp = model.layers[li] if model is not None else None
        rp = ref.layers[li] if ref is not None else None
        for sub in ("attn", "ffn"):
            resid = state
            if LN in int_modules:
                if sub == "attn":
                    state = l1_layer_norm(to_int(state, LN), lp.ln1, lp.ln1_g, lp.ln1_b, session)
                else:
                    state = l1_layer_norm(to_int(state, LN), lp.ln2, lp.ln2_g, lp.ln2_b, session)
            else:
                state = RationalTensor(
                    ref_l1ln(to_fp(state, LN), rp.ln1 if sub == "attn" else rp.ln2)
                )
            emit(LN, li, state)
            if sub == "attn":
                if ATTN in int_modules:
                    state = attn_core(to_int(state, ATTN), lp, cfg, session)
                else:
                    state = RationalTensor(
                        ref_attn_core(to_fp(state, ATTN), rp, cfg, ref.attention_flavor)
                    )
                emit(ATTN, li, state)
            else:
                if FFN in int_modules:
                    state = ffn_core(to_int(state, FFN), lp, session)
                else:
                    state = RationalTensor(ref_ffn_core(to_fp(state, FFN), rp))
                emit(FFN, li, state)
            if RES in int_modules:
                state = residual_add(to_int(state, RES), to_int(resid, RES), session)
            else:
                state = RationalTensor(to_fp(state, RES) + to_fp(resid, RES))
            emit(RES, li, state)

    if LN in int_modules:
        state = l1_layer_norm(
            to_int(state, LN), model.final_ln, model.final_ln_g, model.final_ln_b, session
        )
    else:
        state = RationalTensor(ref_l1ln(to_fp(state, LN), ref.final_ln))
    emit(LN, n_layers, state)

    if tokens is not None:
        if PROJ in int_modules:
            state = session.apply(K.matmul, [to_int(state, PROJ), model.proj], PROJ)
        else:
            state = RationalTensor(to_fp(state, PROJ) @ ref.proj.T)
        emit(PROJ, n_layers, state)
    return state


def reference_forward(
    ref: FP32ReferenceModel,
    *,
    tokens: np.ndarray | None = None,
    hidden: RationalTensor | None = None,
    tap=None,
) -> RationalTensor:
    """Pure FP32 forward pass; the oracle for all precision measurements."""
    out = forward(
        None, None, tokens=tokens, hidden=hidden, int_modules=frozenset(), ref=ref, tap=tap
    )
    return out if isinstance(out, RationalTensor) else RationalTensor(out)
