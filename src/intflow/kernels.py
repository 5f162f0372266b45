"""Integer arithmetic kernels acting jointly on payloads and scales.

One kernel per KernelKind, under the kind's name, except ADD (below).
Shape-preserving and element-wise ops (transpose, concat, ew_mul, pow_n,
abs, relu, sum over a uniform scale) are exact on the de-quantized view.
Anything that matches scales or divides payloads (add, matmul, int_div)
loses at most the stated truncation per element.

Most kernels take ScaledTensors and return a fresh one.  matmul returns a
scaling.Lane, a result worked in place in arrays from a workspace, which
protocol_apply shrinks there and a caller that keeps it seals; relu and
pow_n work on a Lane in place; matmul and sum_reduce also read a Lane
matched along its last axis.  ADD has three forms: `add` on two
ScaledTensors, `lane_add_matched` adding a ScaledTensor (a bias) into a
Lane, and `lane_add` adding a constant already quantized at the Lane's own
scale.  That constant cannot go through lane_add_matched: wrapping the
Lane's scale in a ScaleTensor would seal it read-only, and later steps grow
it in place.

An operand may be a parameter held narrow (int8 or int16); every kernel
computes in int64 or float64 regardless, and every result is int64 (a
Lane's payload stays float64 while that is exact).
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


def _operand(t: ScaledTensor | Lane) -> tuple[np.ndarray, np.ndarray, IntTensor | Lane, float, float]:
    """(x, s, m, lo, hi) of a ScaledTensor or a Lane: payload, scale, the
    holder of the payload's bounds (max_bound, max_magnitude) and the
    scale's bounds."""
    if isinstance(t, Lane):
        return t.x, t.s, t, t.lo, t.hi
    return t.data.values, t.scale.values, t.data, t.scale.lo, t.scale.hi


@_kernel(KernelKind.MATMUL, scale_arith=True)
@quiet_overflow
def matmul(a: ScaledTensor | Lane, b_t: ScaledTensor, ws: Workspace) -> Lane:
    """Contract the last dims of a (m x d) and b_t (n x d) into a Lane whose
    arrays come from `ws`.

    Scales are first matched along the contraction dim, then multiplied as
    the outer product of the per-row scales.  `a` may be a Lane matched
    along its last axis (Lane.match_last): its payload goes to BLAS where
    it lies.  The product stays float64 when it is exact there (every value
    then an integer below 2^53), int64 otherwise.
    """
    if len(a.shape) != 2 or len(b_t.shape) != 2:
        raise ShapeError("matmul expects rank-2 operands")
    if a.shape[-1] != b_t.shape[-1]:
        raise ShapeError(
            f"contraction dims disagree: {a.shape[-1]} vs {b_t.shape[-1]}"
        )
    ax, sa, am, a_lo, a_hi = _operand(a if isinstance(a, Lane) else scale_match_dim(a, -1))
    bx, sb, bm, b_lo, b_hi = _operand(scale_match_dim(b_t, -1))
    bound = _check_product(am, bm, a.shape[-1])
    # Below 2^53 each product and partial sum, in any summation order, is an
    # integer no larger than bound, so BLAS returns the int64 result bit for
    # bit (the accumulator-width argument of gemmlowp and I-BERT).
    dtype = np.float64 if bound < FLOAT64_EXACT else np.int64
    x = np.matmul(
        ax.astype(dtype, copy=False), bx.astype(dtype, copy=False).T,
        out=ws.take((ax.shape[0], bx.shape[0]), dtype),
    )
    # The outer product of the per-row scales, (m,1) by (1,n), broadcast; a
    # scale uniform over its rows stays collapsed there.  Each element is one
    # rounded product, as a GEMM of inner length 1 gives it, so the bounds
    # multiply.
    s = np.multiply(sa, sb.T, out=ws.take((sa.shape[0], sb.shape[0])))
    return Lane(x, s, a.precision, ws, bound, (a_lo * b_lo, a_hi * b_hi))


def _power_overflows(m: int, n: int) -> bool:
    return m > 1 and n * np.log2(m) >= 62


def _power_max(t: Lane, n: int) -> int:
    """max|x| as pow_n's lane guard needs it: the bound, or the exact max
    when the bound trips the guard, so that only the exact max raises."""
    m = t.max_bound
    return t.max_magnitude if _power_overflows(m, n) or m**n >= LANE_MAX else m


@_kernel(KernelKind.POW_N, scale_arith=True)
@quiet_overflow
def pow_n(t: Lane, n: int) -> Lane:
    """{x^n, s^n} in place: exact on the de-quantized view.

    x^n is taken by repeated multiplies, exact on int64 and on float64
    holding integers while below 2^53, and much faster than integer **.  A
    float64 power goes to the scratch buffer, which then swaps roles with
    the payload.
    """
    if n < 1:
        raise ValueError("exponent must be >= 1")
    m = _power_max(t, n)
    if _power_overflows(m, n):
        raise LaneOverflowError("power exceeds accumulator lane")
    mn = m**n
    t.hold(mn)
    x = t.x
    in_float = x.dtype == np.float64
    out = t.work if in_float else None
    xn = np.multiply(x, x, out=out) if n > 1 else np.positive(x, out=out)  # n = 1: a copy
    for _ in range(n - 2):
        xn *= x
    t.x = xn
    if in_float:
        t.work = x
    # max|x^n| = max|x|^n, so an exact max stays exact.
    t.m = mn
    t.check_fit()
    # Scales keep **: in float, s*s*s can round differently from s**n.
    t.s **= n
    t.lo, t.hi = scale_bounds(t.s, *pow_bounds(t.lo, t.hi, n))
    return t


@_kernel(KernelKind.ABS, scale_arith=False)
def abs_(t: ScaledTensor) -> ScaledTensor:
    """{|x|, s}: exact since s > 0."""
    x = np.abs(t.data.values, dtype=LANE_DTYPE)
    return ScaledTensor(IntTensor.adopt(x, t.precision, bound=t.data.max_bound), t.scale)


@_kernel(KernelKind.RELU, scale_arith=False)
def relu(t: Lane) -> Lane:
    """{max(0, x), s} in place: exact since s > 0; t.m stays a bound, no
    longer exact."""
    np.maximum(t.x, 0, out=t.x)
    t.bound(t.m)
    return t


@_kernel(KernelKind.SUM_REDUCE, scale_arith=False)
def sum_reduce(t: ScaledTensor | Lane) -> ScaledTensor:
    """Sum payloads along the last axis, where the scale is already
    collapsed (scale_match_dim(t, -1), Lane.match_last); the sum shares that
    scale.  A Lane's float64 payload is summed where it lies while the sum
    stays below 2^53."""
    x, s, m, lo, hi = _operand(t)
    if not x.ndim or s.shape[-1] != 1:
        raise ShapeError("sum_reduce needs a scale collapsed along the last axis")
    bound = m.max_bound * x.shape[-1]
    acc = np.float64 if x.dtype == np.float64 and bound < FLOAT64_EXACT else np.int64
    total = np.sum(x, axis=-1, keepdims=True, dtype=acc).astype(np.int64, copy=False)
    scale = ScaleTensor.derived(s, lo, hi) if isinstance(t, Lane) else t.scale
    return ScaledTensor(IntTensor.adopt(total, t.precision, bound=bound), scale)


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


# The in-place forms of ADD: each works on a scaling.Lane and returns it, with
# add's arithmetic, and runs through protocol_apply like the kernels above.


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
