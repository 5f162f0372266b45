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
import operator
from dataclasses import dataclass, replace

import numpy as np

from . import kernels as K
from .audit import PAYLOAD, SCALE
from .errors import LaneOverflowError, ShapeError, ValidationError
from .scaling import (
    Lane,
    Precision,
    ScaleGranularity,
    Session,
    _match_payload,
    dequantize,
    init_scale,
    quantize,
    quantize_into,
    scale_match_dim,
)
from .tensor import (
    LANE_MAX,
    IntTensor,
    RationalTensor,
    ScaledTensor,
    ScaleTensor,
    block_max_abs,
    max_abs,
    quiet_overflow,
    scale_bounds,
)

EMB = "Emb"
ATTN = "Attn"
FFN = "FFN"
LN = "LN"
RES = "Res"
PROJ = "Proj"
MODULES = (EMB, ATTN, FFN, LN, RES, PROJ)
ALL_MODULES = frozenset(MODULES)

# E|N(0,1)| = sqrt(2/pi), so the L1 mean underestimates sigma by this factor.
L1_NORM_CONST = math.sqrt(math.pi / 2.0)


@dataclass(frozen=True)
class PolyParams:
    """One layer's constants of the attention weight function
    [ReLU(x + bias)]^n + |offset|; the degree n is ModelConfig.degree."""

    bias: float = 1.0
    offset: float = 0.1


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
        for dim, least in (("d_m", 1), ("heads", 1), ("d_ff", 1), ("vocab", 1), ("n_layers", 0)):
            if getattr(self, dim) < least:
                raise ValidationError(f"{dim} must be >= {least}, got {getattr(self, dim)}")
        if not 2 <= self.precision <= 15:
            raise ValidationError(f"precision {self.precision} outside [2, 15]")
        if self.d_m % self.heads:
            raise ValidationError("model width must divide evenly across heads")
        if self.degree < 1:
            raise ValidationError("polynomial degree must be >= 1")
        # The polynomial raises a bias-shifted payload of up to p + 1 bits to
        # the degree, which must stay inside the 62-bit lane.
        if self.degree * (self.precision + 1) > 62:
            raise ValidationError("degree x (precision + 1) would overflow the wide lane")


# The parameter set of both models: each tensor field, in file order, with
# the module its Q() event is tagged with and its dims as ModelConfig
# attribute names.  A layer norm is its gain `*_g` and bias `*_b`.  Only the
# leaf type differs between the models: a float32 array in the FP32 twin, a
# ScaledTensor in the integer model.
LAYER_TENSORS = {
    "w_q": (ATTN, ("d_m", "d_m")), "w_k": (ATTN, ("d_m", "d_m")),
    "w_v": (ATTN, ("d_m", "d_m")), "w_o": (ATTN, ("d_m", "d_m")),
    "w1": (FFN, ("d_ff", "d_m")), "b1": (FFN, ("d_ff",)),
    "w2": (FFN, ("d_m", "d_ff")), "b2": (FFN, ("d_m",)),
    "ln1_g": (LN, ("d_m",)), "ln1_b": (LN, ("d_m",)),
    "ln2_g": (LN, ("d_m",)), "ln2_b": (LN, ("d_m",)),
}
# The layers sit between the embedding and the final layer norm.
MODEL_TENSORS = {
    "embedding": (EMB, ("vocab", "d_m")),
    "final_ln_g": (LN, ("d_m",)), "final_ln_b": (LN, ("d_m",)),
    "proj": (PROJ, ("vocab", "d_m")),
}

Leaf = ScaledTensor | np.ndarray


@dataclass(frozen=True)
class TransformerLayerParams:
    """The LAYER_TENSORS of one layer and its polynomial; all matrices are
    stored (out_dim, in_dim)."""

    w_q: Leaf
    w_k: Leaf
    w_v: Leaf
    w_o: Leaf
    w1: Leaf
    b1: Leaf
    w2: Leaf
    b2: Leaf
    ln1_g: Leaf
    ln1_b: Leaf
    ln2_g: Leaf
    ln2_b: Leaf
    poly: PolyParams


@dataclass(frozen=True)
class FP32ReferenceModel:
    """FP32 twin of the integer model, holding float32 arrays; the oracle for
    precision loss."""

    config: ModelConfig
    embedding: np.ndarray
    layers: tuple[TransformerLayerParams, ...]
    final_ln_g: np.ndarray
    final_ln_b: np.ndarray
    proj: np.ndarray


@dataclass(frozen=True)
class IntegerTransformerModel:
    config: ModelConfig
    embedding: ScaledTensor
    layers: tuple[TransformerLayerParams, ...]
    final_ln_g: ScaledTensor
    final_ln_b: ScaledTensor
    proj: ScaledTensor


# ---------------------------------------------------------------------------
# model construction


def random_reference_model(config: ModelConfig, seed: int) -> FP32ReferenceModel:
    """Random toy model with float32 parameters."""
    rng = np.random.default_rng(seed)
    d, f, v = config.d_m, config.d_ff, config.vocab

    def mat(out_dim, in_dim):
        return rng.normal(0.0, 1.0 / math.sqrt(in_dim), (out_dim, in_dim)).astype(np.float32)

    def gain(n):
        return rng.uniform(0.8, 1.2, n).astype(np.float32)

    def bias(n):
        return rng.normal(0.0, 0.05, n).astype(np.float32)

    layers = []
    for _ in range(config.n_layers):
        layers.append(
            TransformerLayerParams(
                w_q=mat(d, d), w_k=mat(d, d), w_v=mat(d, d), w_o=mat(d, d),
                w1=mat(f, d), b1=bias(f), w2=mat(d, f), b2=bias(d),
                poly=PolyParams(
                    bias=float(np.float32(rng.uniform(0.2, 1.0))),
                    offset=float(np.float32(rng.uniform(0.05, 0.2))),
                ),
                ln1_g=gain(d), ln1_b=bias(d), ln2_g=gain(d), ln2_b=bias(d),
            )
        )
    return FP32ReferenceModel(
        config=config,
        embedding=rng.normal(0.0, 1.0, (v, d)).astype(np.float32),
        layers=tuple(layers),
        final_ln_g=gain(d),
        final_ln_b=bias(d),
        proj=mat(v, d),
    )


def _convert(model, fn, model_cls, **fields):
    """A `model_cls` holding fn(tensor, module tag) for every schema tensor of
    `model`, each layer's first, then the model's; `fields` gives the rest."""

    def convert(owner, schema):
        return {name: fn(getattr(owner, name), tag) for name, (tag, _) in schema.items()}

    layers = tuple(
        TransformerLayerParams(poly=lp.poly, **convert(lp, LAYER_TENSORS)) for lp in model.layers
    )
    return model_cls(layers=layers, **convert(model, MODEL_TENSORS), **fields)


def _quantize_param(
    values: np.ndarray, prec: Precision, session: Session | None, module: str
) -> ScaledTensor:
    r = RationalTensor(values)
    s = init_scale(r, ScaleGranularity.PER_ROW, prec)
    t = quantize(r, s, prec.p).data
    if session is not None:
        session.note("quantize", SCALE, values.size, module)
    return ScaledTensor(IntTensor.param(t.values, prec.p, t.max_magnitude), s)


def quantize_model(
    ref: FP32ReferenceModel,
    precision: int | None = None,
    session: Session | None = None,
) -> IntegerTransformerModel:
    """Quantize every weight per-row, each payload held at its container
    width (IntTensor.param); Q() events land in the session log."""
    cfg = ref.config
    if precision is not None and precision != cfg.precision:
        cfg = replace(cfg, precision=precision)
    prec = Precision(cfg.precision)
    return _convert(
        ref, lambda values, module: _quantize_param(values, prec, session, module),
        IntegerTransformerModel, config=cfg,
    )


def reference_twin(model: IntegerTransformerModel) -> FP32ReferenceModel:
    """FP32 model whose parameters are the de-quantized integer ones, each
    rounded to float32."""
    return _convert(
        model, lambda t, _: dequantize(t).values.astype(np.float32),
        FP32ReferenceModel, config=model.config,
    )


# ---------------------------------------------------------------------------
# integer-path helpers


@quiet_overflow
def _grow(s: np.ndarray, factor: float, out: np.ndarray | None = None) -> np.ndarray:
    """s * factor, with float overflow left to the scale check."""
    return np.multiply(s, factor, out=out)


def _boost(lane: Lane, session: Session, module: str, groups: int = 1) -> None:
    """Exact payload gain {lam*x, lam*s} in place, to keep precision across a
    division.  Each of the lane's `groups` row blocks (one per head) gets its
    own lam, chosen by the block's exact max|x|, which grows lam times: the
    lam, and the multiplies, of a lone run of that block."""
    peaks = block_max_abs(lane.x, groups)
    lams = [max(1, (1 << 60) // (max(m, 1) + 1)) for m in peaks]
    lane.max_bound, lane.exact = max(peaks), True
    boosted = groups - lams.count(1)
    if not boosted:
        return
    session.note("boost", PAYLOAD, boosted * (lane.x.size // groups), module)
    grown = max(map(operator.mul, peaks, lams))
    lane.hold(grown)
    # The payload is int64 after hold (a boosted peak grows past 2^59), and
    # the scales' float64 multiply rounds an int64 lam as it rounds a Python
    # int.  Several blocks multiply by a column of their lams: Lane buffers
    # are C-contiguous, so each block is a row of these views.
    x, s, lam = lane.x, lane.s, lams[0]
    if groups > 1:
        x, s = x.reshape(groups, -1), s.reshape(groups, -1)
        lam = np.array(lams, np.int64).reshape(groups, 1)
    np.multiply(x, lam, out=x)
    _grow(s, lam, out=s)
    lane.max_bound = grown  # still exact
    lane.lo, lane.hi = scale_bounds(lane.s, lane.lo * min(lams), lane.hi * max(lams))


def _match_heads(lane: Lane, heads: int, axis: int) -> tuple[IntTensor, ScaleTensor]:
    """The projection in `lane` (T x heads*d_h), matched along `axis` of
    each head's column block (0 along the sequence, -1 along its own
    columns) as matmul would match it, as a payload and a scale whose row
    blocks are the heads (_head_rows cuts operands from them): head h's
    (T, d_h) block for axis -1 (Q and K), and its transpose, (d_h, T), for
    axis 0 (V, which the value product reads transposed).  Each head's
    scale, a column once matched, stacks the same way; a head's scale keeps
    one row where the lane's is collapsed along the rows, so the stacked
    scale need not fit the stacked payload.  The lane is not used again.

    The minimum along `axis` is taken on the lane's (T, heads, d_h) view for
    every head at once, and one _match_payload call moves the payload to
    it, into the lane's scratch; one copy then lays the heads out in
    blocks, and the payload is sealed once.  The match is elementwise, so
    each head's block is bit for bit its own match; a lane whose max|x|
    reaches MATCH_FLOAT_MAX is refused whole.
    """
    ws = lane.ws
    T, d = lane.shape
    d_h = d // heads
    a, b = lane.s.shape
    x = lane.x.reshape(T, heads, d_h)
    if b > 1:
        split = lane.s.reshape(a, heads, d_h)
    else:  # collapsed along the columns, and kept so: one scale for every head
        split = np.broadcast_to(lane.s.reshape(a, 1, 1), (a, heads, 1))
    s_bar = split
    if split.shape[axis] > 1:
        if axis == 0:
            minima = ws.take((1, heads, split.shape[2]))
            s_bar = np.minimum.reduce(split, axis=0, keepdims=True, out=minima)
        else:
            # A reduction along the short d_h axis is slow: the minima come
            # from an axis-first copy, one elementwise pass per column.  The
            # copy fills the first a*d elements of the scratch.
            first = lane.scratch().reshape(-1)[: a * d].reshape(d_h, a, heads)
            np.copyto(first, np.moveaxis(split, -1, 0))
            minima = np.minimum.reduce(first, axis=0, out=ws.take((a, heads)))
            s_bar = minima[..., None]
        x = _match_payload(x, split, s_bar, lane, ws, lane.scratch().reshape(x.shape))
    # Head first: (heads, T, d_h) for Q and K, (heads, d_h, T) for V; the
    # scale's blocks follow, each a column.  Fresh C-contiguous arrays: a
    # strided scale would slow matmul's broadcast product of the scales, and
    # the lane's buffers go back to ws.
    order = (1, 0, 2) if axis else (1, 2, 0)
    x, s_bar_t = x.transpose(order), s_bar.transpose(order)
    payload = np.empty((heads * x.shape[1], x.shape[2]), np.int64)
    np.copyto(payload.reshape(x.shape), x, casting="unsafe")
    scale = np.empty((heads * s_bar_t.shape[1], 1))
    np.copyto(scale.reshape(s_bar_t.shape), s_bar_t)
    # Matching never grows a magnitude, and each minimum is one of the
    # values, so the bounds carry over.
    out = (
        IntTensor.adopt(payload, lane.precision, bound=lane.max_bound),
        ScaleTensor.derived(scale, *scale_bounds(lane.s, lane.lo, lane.hi)),
    )
    if s_bar is not split:
        ws.give(minima)
    lane.release()
    return out


def _head_rows(blocks: tuple[IntTensor, ScaleTensor], heads: int, start: int, stop: int) -> ScaledTensor:
    """Heads start..stop-1 of _match_heads' head blocks, as one operand:
    views of their payload rows and of their scale rows."""
    data, s = blocks
    rows, scale_rows = data.shape[0] // heads, s.shape[0] // heads
    return ScaledTensor(
        data.view(data.values[start * rows:stop * rows]),
        ScaleTensor.derived(s.values[start * scale_rows:stop * scale_rows], s.lo, s.hi),
    )


def _refit_zero_groups(lane: Lane, value: float, c: np.ndarray, limit: int) -> int:
    """Where round(value * s) in `c` leaves the accumulator lane, move the
    scale group to (2^p - 1) / |value|, so the constant fits; returns max|c|.

    A power leaves the scales of ReLU's zeros unshrunk, as s^degree.  A zero
    payload is exact at any scale, so only all-zero groups move; any other
    raises as quantize_into does.
    """
    over = np.abs(c) >= LANE_MAX
    axes = tuple(a for a in range(c.ndim) if c.shape[a] == 1 and lane.x.shape[a] > 1)
    if np.any(lane.x, axis=axes, keepdims=True)[over].any():
        raise LaneOverflowError("quantized payload exceeds accumulator lane")
    s = limit / abs(value)
    lane.s[over] = s
    lane.lo = min(lane.lo, s)  # s < every scale it replaces, so hi holds
    c[over] = np.rint(value * s)
    return max_abs(c)


def _add_const(
    lane: Lane, value: float, session: Session, module: str, min_payload: int = 0
) -> Lane:
    """Add a constant quantized into the lane's own scale, so no payload is
    matched; the constant is held in the scale's shape and broadcast."""
    if not math.isfinite(value):
        raise ValueError("rational tensor values must be finite")
    c = lane.scratch() if lane.s.shape == lane.x.shape else np.empty(lane.s.shape)
    try:
        c_max = quantize_into(np.float64(value), lane.s, c)
    except LaneOverflowError:
        c_max = _refit_zero_groups(lane, value, c, session.precision.max_magnitude)
    session.note("quantize", SCALE, lane.x.size, module)
    if min_payload:
        # |max(c, min_payload)| <= max(|c|, min_payload): still a bound.
        np.maximum(c, min_payload, out=c)
        c_max = max(c_max, min_payload)
    return session.apply(K.lane_add, [lane], module, c=c, c_max=c_max)


def _matmul(a: ScaledTensor, b_t: ScaledTensor, session: Session, module: str) -> ScaledTensor:
    """matmul through the protocol, sealed: only the result is fresh, the
    product's buffers go back to the workspace."""
    return session.apply(K.matmul, [a, b_t], module, ws=session.workspace).seal()


def _poly_lane(lane: Lane, pp: PolyParams, degree: int, session: Session, module: str) -> Lane:
    """[ReLU(x + bias)]^degree + |offset|, in place."""
    lane = _add_const(lane, pp.bias, session, module)
    lane = session.apply(K.relu, [lane], module)
    lane = session.apply(K.pow_n, [lane], module, n=degree)
    # A zero offset payload would break the degenerate all-below-threshold
    # case, so a nonzero offset always contributes at least one level.
    return _add_const(
        lane, abs(pp.offset), session, module, min_payload=1 if pp.offset != 0.0 else 0
    )


# ---------------------------------------------------------------------------
# integer-path modules


def poly_attention(
    q: ScaledTensor,
    k: ScaledTensor,
    v_t: ScaledTensor,
    pp: PolyParams,
    degree: int,
    d_m: int,
    session: Session,
    module: str = ATTN,
    groups: int = 1,
) -> Lane:
    """Normalized polynomial attention for `groups` heads at once, as an
    unsealed Lane: row block g of q, k and v_t (V transposed) is head g,
    and so is row block g of the result.  Every step is per element or per
    row of a block, and matmul multiplies block by block, so each head's
    rows come out bit for bit as a lone run of that head gives them.

    Q.K^T matches q and k along their columns, and the value product v_t
    along the sequence, each where its scale is not yet collapsed there:
    attn_core hands in operands already matched for all heads at once, which
    those matches leave as they are, and any other operands are matched
    here.  The stacked T x T weights are built in place on one Lane, from
    Q.K^T through the polynomial; the value product matches them along the
    key axis there and reads them in float64 where they lie, then they
    become the weight sum.  The value sum is boosted, each head by its own
    lam, and divided by it in place, and only that quotient is projected
    back to the logical precision.

    A product's lane guard reads the bounds of the whole stack, so operands
    far past p bits may be refused in a group where each head alone would
    run; a forward's operands are p-bit, far below that.
    """
    lane = session.apply(K.matmul, [q, k], module, ws=session.workspace, groups=groups)
    session.note("scale_fold", SCALE, lane.s.size, module)
    fold = math.sqrt(d_m)
    _grow(lane.s, fold, out=lane.s)
    lane.lo, lane.hi = scale_bounds(lane.s, lane.lo * fold, lane.hi * fold)
    weights = _poly_lane(lane, pp, degree, session, module)
    # The value product matches the weights first, so the weight sum finds
    # their scale collapsed along the key axis.
    num = session.apply(K.matmul, [weights, v_t], module, allow_rescale=False, groups=groups)
    den = session.apply(K.sum_reduce, [weights], module, allow_rescale=False)
    _boost(num, session, module, groups)
    out = session.apply(K.int_div, [num, den], module)
    den.release()
    return out


def l1_layer_norm(
    x: ScaledTensor,
    g_q: ScaledTensor,
    b_q: ScaledTensor,
    session: Session,
    module: str = LN,
) -> ScaledTensor:
    """Center, divide by the scaled L1 mean, then apply gain and bias.

    The norm width n_h is the hidden width, which gain and bias must match.
    The rows are worked in place on one Lane from the centering on, and the
    L1 sum on a copy.  The norm constant and 1/n_h are folded into the
    denominator scale; the numerator is boosted exactly before the division.
    """
    n = x.shape[-1]
    if g_q.shape != (n,) or b_q.shape != (n,):
        raise ShapeError("layer norm gain and bias must match the hidden width")
    ws = session.workspace
    xm = scale_match_dim(x, -1)
    mu = session.apply(K.sum_reduce, [xm], module, allow_rescale=False, ws=ws)
    # The integer mean, rounded half away from zero and negated, at xm's own
    # scale: the add matches nothing.  The same rounding bounds |mu|.
    t = mu.x.astype(np.int64)
    mu.x[...] = -np.sign(t) * ((2 * np.abs(t) + n) // (2 * n))
    mu.bound((2 * mu.max_bound + n) // (2 * n))
    y = session.apply(K.add, [xm, mu], module, allow_rescale=False, ws=ws)
    mu.release()
    den = session.apply(K.abs_, [Lane.of(y, ws)], module, allow_rescale=False)
    den = session.apply(K.sum_reduce, [den], module, allow_rescale=False)
    # A zero L1 sum (a constant row) divides by 1 at scale 1.
    degenerate = den.x == 0
    fold = n / L1_NORM_CONST
    s = _grow(den.s, fold, out=ws.take(degenerate.shape))
    s[degenerate] = 1.0
    den.x[degenerate] = 1
    den.put(den.x, s, max(den.max_bound, 1), (min(den.lo * fold, 1.0), max(den.hi * fold, 1.0)))
    session.note("scale_fold", SCALE, s.size, module)
    _boost(y, session, module)
    y = session.apply(K.int_div, [y, den], module)
    den.release()
    y = session.apply(K.ew_mul, [y, g_q], module)
    y = session.apply(K.add, [y, b_q], module)
    return y.seal()


# Score elements, G heads of T x T, that one poly_attention call may hold.
# Each step's fixed cost is paid once per group, not once per head; past
# this size the stacked buffers fall out of cache and cost more than that.
ATTN_GROUP_ELEMENTS = 1 << 16


def _group_size(heads: int, q, k, v_t) -> int:
    """Heads per poly_attention call, for _match_heads' head blocks of Q, K
    and V: max(1, min(heads, N // T^2)), N = ATTN_GROUP_ELEMENTS.  1 where a
    head's scale is collapsed along its rows: a stack of heads could not
    keep such scales apart."""
    if any(data.shape[0] != s.shape[0] for data, s in (q, k, v_t)):
        return 1
    scores = (q[0].shape[0] // heads) * (k[0].shape[0] // heads)
    return max(1, min(heads, ATTN_GROUP_ELEMENTS // scores))


def attend_heads(
    q: tuple[IntTensor, ScaleTensor],
    k: tuple[IntTensor, ScaleTensor],
    v_t: tuple[IntTensor, ScaleTensor],
    heads: int,
    group: int,
    pp: PolyParams,
    degree: int,
    d_m: int,
    session: Session,
    module: str = ATTN,
) -> Lane:
    """Every head's attention, from _match_heads' head blocks of Q, K and V,
    in one (T, heads*d_h) Lane: `group` heads per poly_attention call, and
    each group's quotients written into its heads' column blocks.

    The lane's scale holds a block per head, as concatenating the heads'
    lanes along the columns gives it: every column, and every row unless
    the heads' scales are collapsed along the rows.  Its payload is float64:
    the division's shrink leaves it at most 2^p - 1.  Each group's own
    lane goes back to the workspace before the next group runs.
    """
    ws = session.workspace
    T, d_h = q[0].shape[0] // heads, q[0].shape[1]
    x = s = None
    bound, lo, hi = 0, math.inf, 0.0
    for start in range(0, heads, group):
        stop = min(start + group, heads)
        g = stop - start
        quotient = poly_attention(
            *(_head_rows(t, heads, start, stop) for t in (q, k, v_t)),
            pp, degree, d_m, session, module, groups=g,
        )
        if x is None:
            rows = quotient.s.shape[0] // g  # T, or 1 where collapsed
            x, s = ws.take((T, heads * d_h)), ws.take((rows, heads * d_h))
            x_heads, s_heads = x.reshape(T, heads, d_h), s.reshape(rows, heads, d_h)
            precision = quotient.precision
        # (g, T, d_h) blocks into columns; a scale column broadcasts along them.
        np.copyto(x_heads[:, start:stop], quotient.x.reshape(g, T, d_h).transpose(1, 0, 2), casting="unsafe")
        np.copyto(s_heads[:, start:stop], quotient.s.reshape(g, rows, -1).transpose(1, 0, 2))
        bound, lo, hi = max(bound, quotient.max_bound), min(lo, quotient.lo), max(hi, quotient.hi)
        quotient.release()
    return Lane(x, s, precision, ws, bound, (lo, hi))


def attn_core(x: ScaledTensor, lp: TransformerLayerParams, cfg: ModelConfig, session: Session) -> ScaledTensor:
    """Multi-head polynomial attention with input/output projections.

    Q and K are matched along each head's columns, and V along the
    sequence, once for all heads (_match_heads): each group's Q.K^T and
    value product then find their operands collapsed along the contraction.
    The heads run in groups (attend_heads), into one Lane that W_o reads in
    place; only the product is sealed.
    """
    q, k, v_t = (
        _match_heads(session.apply(K.matmul, [x, w], ATTN, ws=session.workspace), cfg.heads, axis)
        for w, axis in ((lp.w_q, -1), (lp.w_k, -1), (lp.w_v, 0))
    )
    group = _group_size(cfg.heads, q, k, v_t)
    heads = attend_heads(q, k, v_t, cfg.heads, group, lp.poly, cfg.degree, cfg.d_m, session)
    out = session.apply(K.matmul, [heads, lp.w_o], ATTN)
    heads.release()
    return out.seal()


def ffn_core(y: ScaledTensor, lp: TransformerLayerParams, session: Session) -> ScaledTensor:
    """ReLU(y W1 + b1) W2 + b2 on the integer lane.

    The hidden activations are worked in place on one Lane, from y W1 to the
    match along the contraction axis of W2 that the W2 product makes, and
    that product on another.
    """
    h = session.apply(K.matmul, [y, lp.w1], FFN, ws=session.workspace)
    h = session.apply(K.add, [h, lp.b1], FFN)
    h = session.apply(K.relu, [h], FFN)
    out = session.apply(K.matmul, [h, lp.w2], FFN)
    h.release()
    out = session.apply(K.add, [out, lp.b2], FFN)
    return out.seal()


def residual_add(a: ScaledTensor, b: ScaledTensor, session: Session) -> ScaledTensor:
    return session.apply(K.add, [a, b], RES, ws=session.workspace).seal()


def _token_ids(tokens, vocab: int) -> np.ndarray:
    tokens = np.asarray(tokens)
    if tokens.dtype.kind not in "iu":
        raise ValidationError(f"token ids must be integers, got {tokens.dtype}")
    if tokens.ndim != 1:
        raise ValidationError(f"token ids must be a 1-D array, got shape {tokens.shape}")
    if not tokens.size:
        raise ValidationError("token ids are empty: a forward needs at least one token")
    if np.any(tokens < 0) or np.any(tokens >= vocab):
        raise ValidationError("token ids out of range")
    return tokens.astype(np.int64, copy=False)


def _check_hidden(hidden, cfg: ModelConfig) -> None:
    shape = hidden.shape
    if len(shape) != 2 or shape[1] != cfg.d_m:
        raise ValidationError(f"hidden input must be T x {cfg.d_m}, got {shape}")
    if not shape[0]:
        raise ValidationError("hidden input is empty: a forward needs at least one row")
    if isinstance(hidden, ScaledTensor) and hidden.precision != cfg.precision:
        raise ValidationError(
            f"hidden input precision {hidden.precision} differs from the model's {cfg.precision}"
        )


def gather_embedding(model: IntegerTransformerModel, tokens: np.ndarray, session: Session) -> ScaledTensor:
    tokens = _token_ids(tokens, model.config.vocab)
    emb = model.embedding
    session.note("gather", PAYLOAD, tokens.size * model.config.d_m, EMB)
    # The scale's row axis is broadcast first: a per-tensor scale has one row.
    s = emb.scale
    rows = np.broadcast_to(s.values, (model.config.vocab, s.shape[1]))[tokens]
    return ScaledTensor(
        IntTensor.adopt(
            emb.data.values[tokens].astype(np.int64, copy=False), emb.precision,
            bound=emb.data.max_bound,
        ),
        ScaleTensor.derived(rows, s.lo, s.hi),
    )


# ---------------------------------------------------------------------------
# FP32 twin modules


def ref_l1ln(x: np.ndarray, g: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The L1 layer norm in float, worked in place on its centered copy.  A
    mean is a sum divided in place: np.mean's steps, the same bits."""
    n = x.shape[-1]
    if g.shape != (n,) or b.shape != (n,):
        raise ShapeError("layer norm gain and bias must match the hidden width")
    mu = np.add.reduce(x, axis=-1, keepdims=True)
    mu /= n
    c = x - mu
    den = np.add.reduce(np.abs(c), axis=-1, keepdims=True)
    den /= n
    den *= L1_NORM_CONST
    live = den > 0
    c /= np.where(live, den, 1.0)
    np.copyto(c, 0.0, where=~live)
    c *= g
    c += b
    return c


# Rows per block of ref_poly's power: the block's scratch stays in cache.
POWER_BLOCK_ROWS = 64


def _power(w: np.ndarray, degree: int) -> None:
    """w**degree in place, as the product w * w * ... * w taken left to right.

    A block of rows is squared into one scratch, which takes the further
    factors, and the block is multiplied by it last: w * P equals P * w.
    """
    if degree == 1:
        return
    if degree == 2:
        np.multiply(w, w, out=w)
        return
    rows = np.atleast_2d(w)
    scratch = np.empty((min(POWER_BLOCK_ROWS, len(rows)),) + rows.shape[1:], rows.dtype)
    for i in range(0, len(rows), POWER_BLOCK_ROWS):
        block = rows[i:i + POWER_BLOCK_ROWS]
        p = np.multiply(block, block, out=scratch[:len(block)])
        for _ in range(degree - 3):
            p *= block
        block *= p


def ref_poly(
    x: np.ndarray, pp: PolyParams, degree: int, out: np.ndarray | None = None
) -> np.ndarray:
    """[ReLU(x + bias)]^degree + |offset|, into `out` if given (which may be x);
    the power multiplies, as _power does."""
    out = np.add(x, pp.bias, out=out)
    np.maximum(out, 0.0, out=out)
    _power(out, degree)
    out += abs(pp.offset)
    return out


def ref_attn_core(x: np.ndarray, lp: TransformerLayerParams, cfg: ModelConfig) -> np.ndarray:
    """Polynomial attention in float.  Each head works its T x T weights in
    one score buffer and writes its quotient into its own column block of
    one output buffer, which W_o reads."""
    d_h = cfg.d_m // cfg.heads
    q = x @ lp.w_q.T
    k = x @ lp.w_k.T
    v = x @ lp.w_v.T
    T = q.shape[0]
    w = np.empty((T, T), q.dtype)
    out = np.empty_like(q)
    for h in range(cfg.heads):
        sl = slice(h * d_h, (h + 1) * d_h)
        np.matmul(q[:, sl], k[:, sl].T, out=w)
        w /= math.sqrt(cfg.d_m)
        ref_poly(w, lp.poly, cfg.degree, out=w)
        np.matmul(w, v[:, sl], out=out[:, sl])
        out[:, sl] /= np.sum(w, axis=-1, keepdims=True)
    return out @ lp.w_o.T


def ref_ffn_core(y: np.ndarray, lp: TransformerLayerParams) -> np.ndarray:
    """ReLU(y W1 + b1) W2 + b2 in float, the bias adds and ReLU in place."""
    h = y @ lp.w1.T
    h += lp.b1
    np.maximum(h, 0.0, out=h)
    out = h @ lp.w2.T
    out += lp.b2
    return out


# ---------------------------------------------------------------------------
# the hybrid engine


@np.errstate(all="ignore")
def _twin_step(step) -> np.ndarray:
    """step(), one FP32 step of a forward, refused unless every value of its
    result is finite.  A float32 overflow or an invalid operation leaves an
    inf or a NaN there, so numpy need not warn on the way."""
    out = step()
    if not np.isfinite(out).all():
        raise ValueError("rational tensor values must be finite")
    return out


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
    the final norm only.  FP32 steps compute in float32, and the tap sees
    their float32 arrays; an FP32 result is returned as a RationalTensor.
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
    # The precision is the model's: a session at another one would shrink
    # every step to it.
    if session is not None and session.precision.p != cfg.precision:
        raise ValidationError(
            f"session precision {session.precision.p} differs from the model's {cfg.precision}"
        )

    def to_int(state, module):
        """`state` quantized where it enters the integer path: a hidden
        input's float64 values, or an FP step's float32 array as it is (each
        value widens exactly; _twin_step has checked it finite)."""
        if isinstance(state, ScaledTensor):
            return state
        values = state.values if isinstance(state, RationalTensor) else state
        s = init_scale(values, cfg.granularity, session.precision)
        return session.quantize(values, s, module)

    def to_fp(state, module) -> np.ndarray:
        """`state` as the twin's float32: cast where it enters the FP path
        (a hidden input, a de-quantized exit), untouched between FP steps."""
        if isinstance(state, ScaledTensor):
            state = session.dequantize(state, module)
        if isinstance(state, RationalTensor):
            state = state.values
        return state.astype(np.float32, copy=False)

    def run(tag, layer, int_fn, fp_fn, *inputs):
        """One step on its chosen lane: the only place where states cross
        between lanes and where the tap sees them.  Inputs convert in order."""
        if tag in int_modules:
            state = int_fn(*[to_int(x, tag) for x in inputs])
        else:
            state = _twin_step(lambda: fp_fn(*[to_fp(x, tag) for x in inputs]))
        if tap is not None:
            tap(tag, layer, state)
        return state

    # The steps name the module functions inside closures, so each call finds
    # the binding the module holds when it runs (tracers wrap them there).
    if tokens is not None:
        state = run(EMB, 0, lambda: gather_embedding(model, tokens, session),
                    lambda: to_fp(ref.embedding[_token_ids(tokens, cfg.vocab)], EMB))
    elif hidden is not None:
        _check_hidden(hidden, cfg)
        # Every array state is then an FP step's result.
        state = hidden if isinstance(hidden, ScaledTensor | RationalTensor) else RationalTensor(hidden)
    else:
        raise ValidationError("either tokens or hidden input is required")

    # Each pre-norm sublayer: LN, its core, then Res onto the LN's input.  The
    # closures read lp and rp, which the layer loop below rebinds.
    sublayers = (
        (lambda x: l1_layer_norm(x, lp.ln1_g, lp.ln1_b, session),
         lambda x: ref_l1ln(x, rp.ln1_g, rp.ln1_b),
         ATTN,
         lambda x: attn_core(x, lp, cfg, session),
         lambda x: ref_attn_core(x, rp, cfg)),
        (lambda x: l1_layer_norm(x, lp.ln2_g, lp.ln2_b, session),
         lambda x: ref_l1ln(x, rp.ln2_g, rp.ln2_b),
         FFN,
         lambda x: ffn_core(x, lp, session),
         lambda x: ref_ffn_core(x, rp)),
    )
    n = cfg.n_layers
    int_layers = model.layers if model is not None else (None,) * n
    fp_layers = ref.layers if ref is not None else (None,) * n
    for li, (lp, rp) in enumerate(zip(int_layers, fp_layers, strict=True)):
        for ln_int, ln_fp, tag, core_int, core_fp in sublayers:
            resid = state
            state = run(LN, li, ln_int, ln_fp, state)
            state = run(tag, li, core_int, core_fp, state)
            state = run(RES, li, lambda a, b: residual_add(a, b, session), np.add, state, resid)

    state = run(LN, n, lambda x: l1_layer_norm(x, model.final_ln_g, model.final_ln_b, session),
                lambda x: ref_l1ln(x, ref.final_ln_g, ref.final_ln_b), state)
    if tokens is not None:
        # The T x vocab logits are shrunk in workspace buffers; only the sealed result is fresh.
        state = run(PROJ, n,
                    lambda x: _matmul(x, model.proj, session, PROJ),
                    lambda x: x @ ref.proj.T, state)
    return state if isinstance(state, ScaledTensor) else RationalTensor(state)


def reference_forward(
    ref: FP32ReferenceModel,
    *,
    tokens: np.ndarray | None = None,
    hidden: RationalTensor | None = None,
    tap=None,
) -> RationalTensor:
    """Pure FP32 forward pass; the oracle for all precision measurements."""
    return forward(
        None, None, tokens=tokens, hidden=hidden, int_modules=frozenset(), ref=ref, tap=tap
    )
