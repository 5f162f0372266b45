"""Integer arithmetic kernels acting jointly on payloads and scales.

Shape-preserving and element-wise ops (transpose, concat, ew_mul, pow_n,
abs, relu, sum over a uniform scale) are exact on the de-quantized view.
Anything that matches scales or divides payloads (add, matmul, int_div)
loses at most the stated truncation per element.  An operand may be a
parameter held narrow (int8 or int16); every kernel computes in int64 or
float64 regardless, and every result is int64.
"""
from __future__ import annotations

import enum

import numpy as np

from .errors import LaneOverflowError, ShapeError
from .scaling import (
    FLOAT64_EXACT,
    Lane,
    Workspace,
    _match_payload,
    match_max,
    scale_match,
    scale_match_dim,
    trunc_div,
)
from .tensor import (
    LANE_DTYPE,
    LANE_MAX,
    IntTensor,
    ScaledTensor,
    ScaleTensor,
    pow_bounds,
    quiet_overflow,
    scale_bounds,
)
from .tensor import concat as tensor_concat, transpose as tensor_transpose


class KernelKind(enum.Enum):
    ADD = "add"
    EW_MUL = "ew_mul"
    MATMUL = "matmul"
    POW_N = "pow_n"
    ABS = "abs"
    RELU = "relu"
    SUM_REDUCE = "sum_reduce"
    INT_DIV = "int_div"
    TRANSPOSE = "transpose"
    CONCAT = "concat"


def _kernel(kind: KernelKind, scale_arith: bool):
    def deco(fn):
        fn.kind = kind.value
        fn.scale_arith = scale_arith
        return fn
    return deco


def _check_product(a: IntTensor | Lane, b: IntTensor | Lane, terms: int = 1) -> int:
    """Bound terms * max|a| * max|b| on |sum of products|, from the
    operands' bounds; raise at the lane only when their exact maxima reach
    it too."""
    bound = a.max_bound * b.max_bound * terms
    if bound >= LANE_MAX:
        bound = a.max_magnitude * b.max_magnitude * terms
        if bound >= LANE_MAX:
            raise LaneOverflowError("product exceeds accumulator lane")
    return bound


@_kernel(KernelKind.EW_MUL, scale_arith=True)
@quiet_overflow
def ew_mul(a: ScaledTensor, b: ScaledTensor) -> ScaledTensor:
    """{x1*x2, s1*s2}: exact on the de-quantized view; operands broadcast."""
    bound = _check_product(a.data, b.data)
    x = np.multiply(a.data.values, b.data.values, dtype=LANE_DTYPE)
    s = a.scale.values * b.scale.values
    return ScaledTensor(
        IntTensor.adopt(x, a.precision, bound=bound),
        ScaleTensor.derived(s, a.scale.lo * b.scale.lo, a.scale.hi * b.scale.hi),
    )


@_kernel(KernelKind.ADD, scale_arith=True)
def add(a: ScaledTensor, b: ScaledTensor) -> ScaledTensor:
    """Match scales to their minimum, then add payloads."""
    if a.shape != b.shape:
        raise ShapeError(f"add shapes differ: {a.shape} vs {b.shape}")
    ma, mb = scale_match([a, b])
    x = np.add(ma.data.values, mb.data.values, dtype=LANE_DTYPE)
    bound = ma.data.max_bound + mb.data.max_bound
    return ScaledTensor(IntTensor.adopt(x, a.precision, bound=bound), ma.scale)


@quiet_overflow
def product(
    a: ScaledTensor | Lane, b_t: ScaledTensor, ws: Workspace | None = None
) -> tuple[np.ndarray, np.ndarray, int, tuple[float, float]]:
    """matmul's arithmetic: the payload product and the scale outer product,
    in arrays taken from `ws`, else in fresh ones, with a bound on the
    product's max|x| and bounds on the scale.

    The payload product is float64 when it is exact there (every value then
    an integer below 2^53), int64 otherwise.  `a` may be a Lane whose scale
    is already collapsed along the last axis (Lane.match_last); its payload
    is read where it lies.
    """
    if len(a.shape) != 2 or len(b_t.shape) != 2:
        raise ShapeError("matmul expects rank-2 operands")
    if a.shape[-1] != b_t.shape[-1]:
        raise ShapeError(
            f"contraction dims disagree: {a.shape[-1]} vs {b_t.shape[-1]}"
        )
    if isinstance(a, Lane):
        a_data, ax, sa, a_lo, a_hi = a, a.x, a.s, a.lo, a.hi
    else:
        am = scale_match_dim(a, -1)
        a_data, ax, sa = am.data, am.data.values, am.scale.values
        a_lo, a_hi = am.scale.lo, am.scale.hi
    bm = scale_match_dim(b_t, -1)
    bx, sb = bm.data.values, bm.scale.values
    bound = _check_product(a_data, bm.data, a.shape[-1])
    # Below 2^53 each product and partial sum, in any summation order, is an
    # integer no larger than bound, so BLAS returns the int64 result bit for
    # bit (the accumulator-width argument of gemmlowp and I-BERT).
    dtype = np.float64 if bound < FLOAT64_EXACT else np.int64
    x_out = s_out = None
    if ws is not None:
        x_out = ws.take((ax.shape[0], bx.shape[0]), dtype)
        s_out = ws.take((sa.shape[0], sb.shape[0]))
    x = np.matmul(ax.astype(dtype, copy=False), bx.astype(dtype, copy=False).T, out=x_out)
    # (m,1) x (1,n); a scale uniform over its rows stays collapsed there.
    # Each element is one rounded product, so the bounds multiply.
    s = np.matmul(sa, sb.T, out=s_out)
    return x, s, bound, (a_lo * bm.scale.lo, a_hi * bm.scale.hi)


@_kernel(KernelKind.MATMUL, scale_arith=True)
def matmul(a: ScaledTensor | Lane, b_t: ScaledTensor) -> ScaledTensor:
    """Contract the last dims of a (m x d) and b_t (n x d).

    Scales are first matched along the contraction dim, then multiplied as
    the outer product of the per-row scales.  `a` may be a Lane matched
    along its last axis (Lane.match_last): its payload goes to BLAS where
    it lies.
    """
    x, s, bound, s_range = product(a, b_t)
    return ScaledTensor(
        IntTensor.adopt(x.astype(np.int64, copy=False), a.precision, bound=bound),
        ScaleTensor.derived(s, *s_range),
    )


def _power_overflows(m: int, n: int) -> bool:
    return m > 1 and n * np.log2(m) >= 62


def _power_max(t: IntTensor | Lane, n: int) -> int:
    """max|x| as power's lane guard needs it: the bound, or the exact max
    when the bound trips the guard, so that only the exact max raises."""
    m = t.max_bound
    return t.max_magnitude if _power_overflows(m, n) or m**n >= LANE_MAX else m


def power(x: np.ndarray, n: int, m: int, out: np.ndarray | None = None) -> np.ndarray:
    """x^n by repeated multiplies, given m >= max|x| (see _power_max), into
    `out` (fresh when None, never x itself).

    Exact on int64, and on float64 holding integers while m^n is below 2^53;
    much faster than integer **.
    """
    if n < 1:
        raise ValueError("exponent must be >= 1")
    if _power_overflows(m, n):
        raise LaneOverflowError("power exceeds accumulator lane")
    if n == 1:
        return np.positive(x, out=out)  # a copy
    xn = np.multiply(x, x, out=out)
    for _ in range(n - 2):
        xn *= x
    return xn


@_kernel(KernelKind.POW_N, scale_arith=True)
@quiet_overflow
def pow_n(t: ScaledTensor, n: int) -> ScaledTensor:
    """{x^n, s^n}: exact on the de-quantized view."""
    m = _power_max(t.data, n)
    xn = power(t.data.values.astype(LANE_DTYPE, copy=False), n, m)
    # Scales keep **: in float, s*s*s can round differently from s**n.
    return ScaledTensor(
        IntTensor.adopt(xn, t.precision, bound=m**n),
        ScaleTensor.derived(t.scale.values ** n, *pow_bounds(t.scale.lo, t.scale.hi, n)),
    )


@_kernel(KernelKind.ABS, scale_arith=False)
def abs_(t: ScaledTensor) -> ScaledTensor:
    """{|x|, s}: exact since s > 0."""
    x = np.abs(t.data.values, dtype=LANE_DTYPE)
    return ScaledTensor(IntTensor.adopt(x, t.precision, bound=t.data.max_bound), t.scale)


@_kernel(KernelKind.RELU, scale_arith=False)
def relu(t: ScaledTensor) -> ScaledTensor:
    """{max(0, x), s}: exact since s > 0."""
    x = np.maximum(t.data.values, 0, dtype=LANE_DTYPE)
    return ScaledTensor(IntTensor.adopt(x, t.precision, bound=t.data.max_bound), t.scale)


@_kernel(KernelKind.SUM_REDUCE, scale_arith=False)
def sum_reduce(t: ScaledTensor, axis: int) -> ScaledTensor:
    """Sum payloads along `axis`; the scale must be uniform there.

    A scale that still varies along the axis is matched down first.
    """
    rank = len(t.shape)
    if not -rank <= axis < rank:
        raise ShapeError(f"axis {axis} out of range for rank {rank}")
    axis = axis % rank
    t = scale_match_dim(t, axis)
    x = np.sum(t.data.values, axis=axis, keepdims=True, dtype=LANE_DTYPE)
    bound = t.data.max_bound * t.shape[axis]
    # The axis stays as a unit dim, where the matched scale is the result's: share it.
    return ScaledTensor(IntTensor.adopt(x, t.precision, bound=bound), t.scale)


@_kernel(KernelKind.INT_DIV, scale_arith=True)
@quiet_overflow
def int_div(num: ScaledTensor, den: ScaledTensor) -> ScaledTensor:
    """Payload division truncating toward zero; scale s_num / s_den; operands broadcast.

    Denominator payloads must be strictly positive (trunc_div checks them).
    """
    bound = num.data.max_bound
    x = trunc_div(num.data.values, den.data.values, x_max=bound)
    s = num.scale.values / den.scale.values
    # A divisor of at least 1 never grows a magnitude.
    return ScaledTensor(
        IntTensor.adopt(x, num.precision, bound=bound),
        ScaleTensor.derived(s, num.scale.lo / den.scale.hi, num.scale.hi / den.scale.lo),
    )


# Shape ops from the tensor core, tagged so they can run through the protocol.
transpose = _kernel(KernelKind.TRANSPOSE, scale_arith=False)(tensor_transpose)


@_kernel(KernelKind.CONCAT, scale_arith=False)
def concat(*ts: ScaledTensor, axis: int) -> ScaledTensor:
    """tensor.concat with the operands passed one by one, as the protocol does."""
    return tensor_concat(ts, axis)


# In-place kernels: each works on a scaling.Lane and returns it, with the
# payload and scale arithmetic of the kernel of the same kind.  They run
# through protocol_apply like the kernels above.


@_kernel(KernelKind.MATMUL, scale_arith=True)
def lane_matmul(a: ScaledTensor, b_t: ScaledTensor, ws: Workspace) -> Lane:
    """matmul, with the product left in BLAS's float64 result when exact
    there; the lane's arrays come from `ws`."""
    x, s, bound, s_range = product(a, b_t, ws)
    return Lane(x, s, a.precision, ws, bound, s_range)


@_kernel(KernelKind.SUM_REDUCE, scale_arith=False)
def lane_sum(t: Lane) -> ScaledTensor:
    """sum_reduce(t, axis=-1) for a lane matched along its
    last axis (Lane.match_last); the sum shares the lane's collapsed scale."""
    bound = t.m * t.shape[-1]
    x = t.x if bound < FLOAT64_EXACT else t.x.astype(np.int64)
    total = np.sum(x, axis=-1, keepdims=True).astype(np.int64, copy=False)
    return ScaledTensor(
        IntTensor.adopt(total, t.precision, bound=bound), ScaleTensor.derived(t.s, t.lo, t.hi)
    )


@_kernel(KernelKind.ADD, scale_arith=True)
def lane_add(t: Lane, c: np.ndarray, c_max: int) -> Lane:
    """add(t, c) in place, for a payload c already at t's own scale, so
    matching moves nothing; c, float64 holding integers with max|c| = c_max,
    has the scale's shape and is broadcast."""
    t.hold(t.m + c_max)
    t.x += c if t.x.dtype == np.float64 else c.astype(np.int64)
    t.bound(t.m + c_max)
    t.check_fit()
    return t


@_kernel(KernelKind.ADD, scale_arith=True)
def lane_add_matched(t: Lane, b: ScaledTensor) -> Lane:
    """add(t, b) in place: both payloads matched to the elementwise minimum
    scale, then added.  b has t's shape, and its scale broadcasts to the
    lane's scale shape (a bias, say)."""
    if b.shape != t.shape:
        raise ShapeError(f"add shapes differ: {t.shape} vs {b.shape}")
    ws, sb = t.ws, b.scale.values
    # The scratch buffer goes back to serve the minimum or a ratio; b is
    # matched into a buffer taken afterwards.
    ws.give(t.work)
    s_bar = np.minimum(t.s, sb, out=ws.take(t.s.shape))
    if not np.array_equal(t.s, s_bar):
        _match_payload(t.x, t.s, s_bar, match_max(t), ws, out=t.x)
    ws.give(t.s)
    t.s = s_bar
    t.lo, t.hi = min(t.lo, b.scale.lo), min(t.hi, b.scale.hi)
    t.work = ws.take(t.x.shape)
    c, c_max = b.data.values, b.data.max_bound
    if not (sb == s_bar).all():
        # Matching never grows a magnitude, so c_max stays a bound.
        out = t.work if c_max < FLOAT64_EXACT else None
        c = _match_payload(c, sb, s_bar, match_max(b.data), ws, out)
    t.hold(t.m + c_max)
    t.x += c if t.x.dtype == np.float64 else c.astype(np.int64, copy=False)
    t.bound(t.m + c_max)
    t.check_fit()
    return t


@_kernel(KernelKind.RELU, scale_arith=False)
def lane_relu(t: Lane) -> Lane:
    """relu in place; t.m stays a bound, no longer exact."""
    np.maximum(t.x, 0, out=t.x)
    t.bound(t.m)
    return t


@_kernel(KernelKind.POW_N, scale_arith=True)
@quiet_overflow
def lane_pow_n(t: Lane, n: int) -> Lane:
    """pow_n in place: the float64 power goes to the scratch buffer, which
    then swaps roles with the payload."""
    m = _power_max(t, n)
    mn = m**n
    t.hold(mn)
    x = t.x
    in_float = x.dtype == np.float64
    t.x = power(x, n, m, out=t.work if in_float else None)
    if in_float:
        t.work = x
    # max|x^n| = max|x|^n, so an exact max stays exact.
    t.m = mn
    t.check_fit()
    t.s **= n
    t.lo, t.hi = scale_bounds(t.s, *pow_bounds(t.lo, t.hi, n))
    return t
