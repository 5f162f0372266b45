"""Integer arithmetic kernels acting jointly on payloads and scales.

One kernel per kind, under the kind's name, except ADD (below); the kind
is the string that audit records and the tracer carry.
Shape-preserving and element-wise ops (transpose, concat, ew_mul, pow_n,
abs, relu, sum over a uniform scale) are exact on the de-quantized view.
Anything that matches scales or divides payloads (add, matmul, int_div)
loses at most the stated truncation per element: each match moves a
payload through scaling._match_payload, and int_div divides through
scaling.trunc_div, the two functions that truncate.

The lane rule: every kernel that runs through protocol_apply reads
ScaledTensor and Lane operands alike, by the fields both carry (x, s,
precision, max_bound, max_magnitude, lo, hi, shape), and returns a
scaling.Lane, which protocol_apply shrinks in place and a caller that
keeps it seals.  A Lane first operand becomes the result, worked in place,
except where the result takes a new shape (matmul's product, while the
operand is still needed, and concat, which writes its parts into one new
Lane and releases the Lane parts) and in abs_, the one kernel whose operand
a later step reads again: |x| goes to a new Lane, the operand left as it
is.  matmul matches a Lane first operand along its last axis in place
(Lane.match_last) where its scale is not yet collapsed there.  For a
ScaledTensor first operand the kernel's own first pass writes into buffers
from `ws` (a fresh workspace when none is given); the operand is never
copied in first.  relu and pow_n take only a Lane, as only lanes reach
them.  transpose is the one shape op outside the protocol: a read-only view
of a ScaledTensor, which callers use directly.

matmul's `groups` runs G products at once: operands stacked as G row
blocks give the block diagonal of the whole product, one batched GEMM,
each block's scale its own outer product.  The attention runs a group of
heads on such stacks, and writes the heads' quotients into one output lane
itself, so a forward calls neither concat nor transpose; both stay, for
direct use and for the benchmark's tracer, which binds every kernel name.

ADD has two forms.  `add` matches both operands to their elementwise minimum
scale, then adds them.  `lane_add` adds a constant already quantized at the
Lane's own scale, so nothing is matched; as a ScaledTensor the constant
would seal that scale read-only, and later steps grow it in place.

A kernel that multiplies, divides or raises scales derives the result's
bounds (lo, hi) from its operands' first, and runs the op through
tensor.scale_op: as it is when hi is finite, which proves that no value
overflows; otherwise with float overflow quiet, and the inf it leaves is
refused by the scale check (tensor.scale_bounds) with a ScaleRangeError,
not a numpy warning.

An operand may be a parameter held narrow (int8 or int16); no kernel
computes at that width.  Lanes hold float64 or int64: a float64 first
operand stays float64 while the result's bound on max|x| is below 2^53,
where that is exact; everything else runs in int64, and every sealed result
is int64.  matmul alone picks a GEMM type of three tiers from its bound
(scaling.gemm_dtype): float32 below 2^24, float64 below 2^53, int64 from
there up.  Below 2^24 every partial sum is an integer float32 holds, in any
summation order and with FMA, so sgemm is exact; its product is copied into
a float64 lane, and no other kernel sees float32.
"""
from __future__ import annotations

import functools
import operator

import numpy as np

from .errors import LaneOverflowError, PrecisionError, ShapeError
from .scaling import (
    Lane,
    Workspace,
    _match_payload,
    gemm_dtype,
    lane_dtype,
    scale_match_dim,
    trunc_div,
)
from .tensor import (
    LANE_MAX,
    ScaledTensor,
    _broadcast_compatible,
    pow_bounds,
    scale_bounds,
    scale_op,
)
from .tensor import transpose as tensor_transpose


def _kernel(kind: str, scale_arith: bool):
    def deco(fn):
        fn.kind = kind
        fn.scale_arith = scale_arith
        return fn
    return deco


def _check_product(a: ScaledTensor | Lane, b: ScaledTensor | Lane, terms: int = 1) -> int:
    """Bound terms * max|a| * max|b| on |sum of products|, from the
    operands' bounds; raise at the lane only when their exact maxima reach
    it too."""
    bound = a.max_bound * b.max_bound * terms
    if bound >= LANE_MAX:
        bound = a.max_magnitude * b.max_magnitude * terms
        if bound >= LANE_MAX:
            raise LaneOverflowError("product exceeds accumulator lane")
    return bound


# np.broadcast_shapes costs microseconds a call: memoized for the few shapes kernels meet.
_joint = functools.lru_cache(maxsize=1024)(np.broadcast_shapes)


def _workspace(a: ScaledTensor | Lane, ws: Workspace | None) -> Workspace:
    """A Lane's own workspace, with the lane's scratch given back to serve
    the kernel's buffers; else `ws`, else a fresh one."""
    if isinstance(a, Lane):
        if a.work is not None:
            a.spare()
        return a.ws
    return Workspace() if ws is None else ws


def _out(a: ScaledTensor | Lane, arr: np.ndarray, shape: tuple[int, ...], dtype, ws: Workspace) -> np.ndarray:
    """Where a result array of `shape` and `dtype` goes: `arr`, a Lane first
    operand's own, when it fits; else a buffer from ws."""
    if isinstance(a, Lane) and arr.shape == shape and arr.dtype == dtype:
        return arr
    return ws.take(shape, dtype)


def _result(a: ScaledTensor | Lane, x, s, bound: int, scale_range, ws: Workspace) -> Lane:
    """The Lane holding payload x and scale s: `a` itself when it is a Lane
    (Lane.put), else a new one, which gets a copy of a's own scale."""
    if isinstance(a, Lane):
        a.put(x, s, bound, scale_range)
        return a
    return Lane(x, ws.copy(s) if s is a.s else s, a.precision, ws, bound, scale_range)


@_kernel("ew_mul", scale_arith=True)
def ew_mul(a: ScaledTensor | Lane, b: ScaledTensor | Lane, ws: Workspace | None = None) -> Lane:
    """{x1*x2, s1*s2}: exact on the de-quantized view; operands broadcast."""
    ws = _workspace(a, ws)
    ax, sa, bx, sb = a.x, a.s, b.x, b.s
    bound = _check_product(a, b)
    # Operands cast to the result's dtype are exact: in float64 every
    # nonzero product is at most the bound, below 2^53.
    x = _out(a, ax, _joint(ax.shape, bx.shape), lane_dtype(bound, ax), ws)
    np.multiply(ax, bx, out=x, dtype=x.dtype, casting="unsafe")
    s = _out(a, sa, _joint(sa.shape, sb.shape), np.float64, ws)
    lo, hi = a.lo * b.lo, a.hi * b.hi
    scale_op(np.multiply, sa, sb, hi, out=s)
    return _result(a, x, s, bound, (lo, hi), ws)


@_kernel("add", scale_arith=True)
def add(a: ScaledTensor | Lane, b: ScaledTensor | Lane, ws: Workspace | None = None) -> Lane:
    """Match both payloads to the elementwise minimum scale, then add them;
    b broadcasts to a's shape (a bias, say).  Matching never grows a
    magnitude, so the operands' bounds carry over."""
    if not _broadcast_compatible((1,) * (len(a.shape) - len(b.shape)) + b.shape, a.shape):
        raise ShapeError(f"add shapes differ: {a.shape} vs {b.shape}")
    ws = _workspace(a, ws)
    ax, sa, bx, sb = a.x, a.s, b.x, b.s
    scale_range = (min(a.lo, b.lo), min(a.hi, b.hi))
    s_bar = np.minimum(sa, sb, out=ws.take(_joint(sa.shape, sb.shape)))
    bound = a.max_bound + b.max_bound
    x = _out(a, ax, ax.shape, lane_dtype(bound, ax), ws)
    if not (sa == s_bar).all():
        ax = _match_payload(ax, sa, s_bar, a, ws, out=x)
    if isinstance(a, Lane) and b is not a:  # its old scale is spent too
        ws.give(a.s)
        a.s = s_bar
    matched = not (sb == s_bar).all()
    if matched:
        bx = _match_payload(bx, sb, s_bar, b, ws, ws.take(x.shape, lane_dtype(b.max_bound)))
    np.add(ax, bx, out=x, dtype=x.dtype, casting="unsafe")
    if matched:
        ws.give(bx)
    return _result(a, x, s_bar, bound, scale_range, ws)


@_kernel("matmul", scale_arith=True)
def matmul(a: ScaledTensor | Lane, b_t: ScaledTensor, ws: Workspace | None = None, groups: int = 1) -> Lane:
    """Contract the last dims of a (G*m x d) and b_t (G*n x d) into a new
    (G*m x n) Lane, G = `groups`: row block g of the result is block g of a
    times block g of b_t, the block diagonal of the whole product.  G = 1 is
    the plain product.

    Scales are first matched along the contraction dim, then multiplied as
    each block's outer product of the per-row scales.  A Lane `a` is matched
    in place (Lane.match_last) unless its scale is already collapsed there;
    its payload then goes to BLAS where it lies, and the lane stays matched.
    For G > 1 both scales hold a row per payload row, so that no scale
    group of the result spans two blocks.

    The GEMM runs in gemm_dtype(bound), the operands cast straight to it:
    float32 below 2^24, float64 below 2^53, int64 from there up; the G
    blocks go to one batched np.matmul.  The result is a lane_dtype(bound)
    lane of G row blocks (Lane.blocks), float64 below 2^53; a float32
    product is fresh and is copied into it.
    """
    if len(a.shape) != 2 or len(b_t.shape) != 2:
        raise ShapeError("matmul expects rank-2 operands")
    if a.shape[-1] != b_t.shape[-1]:
        raise ShapeError(
            f"contraction dims disagree: {a.shape[-1]} vs {b_t.shape[-1]}"
        )
    if a.shape[0] % groups or b_t.shape[0] % groups:
        raise ShapeError(f"{a.shape[0]} and {b_t.shape[0]} rows do not split into {groups} groups")
    ws = _workspace(a, ws)
    if not isinstance(a, Lane):
        a = scale_match_dim(a, -1)
    elif a.s.shape[-1] > 1:
        a.match_last()
    b_t = scale_match_dim(b_t, -1)
    ax, sa, bx, sb = a.x, a.s, b_t.x, b_t.s
    if groups > 1 and (sa.shape[0] != ax.shape[0] or sb.shape[0] != bx.shape[0]):
        raise ShapeError("a grouped product needs a scale row per payload row")
    bound = _check_product(a, b_t, a.shape[-1])
    # Each product and partial sum, in any summation order and with FMA, is
    # an integer no larger than bound, which the GEMM type holds exactly, so
    # BLAS returns the int64 result bit for bit (the accumulator-width
    # argument of gemmlowp and I-BERT); widening float32 to float64 is exact.
    gemm, dtype = gemm_dtype(bound), lane_dtype(bound)
    m, n, d = ax.shape[0] // groups, bx.shape[0] // groups, ax.shape[1]
    x = ws.take((groups * m, n), dtype)
    blocks = x.reshape(groups, m, n)
    y = np.matmul(
        ax.astype(gemm, copy=False).reshape(groups, m, d),
        bx.astype(gemm, copy=False).reshape(groups, n, d).transpose(0, 2, 1),
        out=blocks if gemm is dtype else None,
    )
    if y is not blocks:
        np.copyto(blocks, y)
    # Each block's outer product of the per-row scales, (m,1) by (1,n),
    # broadcast; a scale uniform over its rows stays collapsed there.  Each
    # element is one rounded product, as a GEMM of inner length 1 gives it,
    # so the bounds multiply.
    ra, rb = sa.shape[0] // groups, sb.shape[0] // groups
    s = ws.take((groups * ra, rb))
    sa, sb, out = sa.reshape(groups, ra, 1), sb.reshape(groups, 1, rb), s.reshape(groups, ra, rb)
    lo, hi = a.lo * b_t.lo, a.hi * b_t.hi
    scale_op(np.multiply, sa, sb, hi, out=out)
    return Lane(x, s, a.precision, ws, bound, (lo, hi), groups)


@_kernel("pow_n", scale_arith=True)
def pow_n(t: Lane, n: int) -> Lane:
    """{x^n, s^n} in place: exact on the de-quantized view.

    The lane guard checks max|x|^n in Python ints: the bound's power, or the
    exact max's where the bound's reaches the lane.  x^n is then taken in
    place as x * (x * ... * x), by repeated multiplies: exact on int64 and
    on float64 holding integers while below 2^53, and much faster than
    integer **.  The inner product x^(n-1) goes to the lane's scratch, or
    to a fresh array when x is int64.
    """
    if n < 1:
        raise ValueError("exponent must be >= 1")
    mn = t.max_bound**n
    if mn >= LANE_MAX:
        mn = t.max_magnitude**n
        if mn >= LANE_MAX:
            raise LaneOverflowError("power exceeds accumulator lane")
    t.hold(mn)
    x = t.x
    if n > 2:
        rest = np.multiply(x, x, out=t.scratch() if x.dtype == np.float64 else None)
        for _ in range(n - 3):
            rest *= x
        x *= rest
    elif n == 2:
        x *= x
    # max|x^n| = max|x|^n, so an exact max stays exact; an even power, or
    # one of no negative payload, leaves no payload negative.
    t.max_bound = mn
    t.nonneg = t.nonneg or n % 2 == 0
    # Scales keep t.s **= n (operator.ipow, in place): in float, s*s*s can
    # round differently from s**n.
    lo, hi = pow_bounds(t.lo, t.hi, n)
    scale_op(operator.ipow, t.s, n, hi)
    t.lo, t.hi = scale_bounds(t.s, lo, hi)
    return t


@_kernel("abs", scale_arith=False)
def abs_(t: ScaledTensor | Lane, ws: Workspace | None = None) -> Lane:
    """{|x|, s} in a new lane_dtype(max|x|) Lane from t's own workspace, or
    `ws`: exact since s > 0.  t's payload, scale, bounds and scratch are
    left as they are, for the layer norm divides the rows it sums."""
    ws = t.ws if isinstance(t, Lane) else Workspace() if ws is None else ws
    x0, m = t.x, t.max_bound
    x = ws.take(x0.shape, lane_dtype(m))
    np.abs(x0, out=x, dtype=x.dtype, casting="unsafe")
    return Lane(x, ws.copy(t.s), t.precision, ws, m, (t.lo, t.hi))


@_kernel("relu", scale_arith=False)
def relu(t: Lane) -> Lane:
    """{max(0, x), s} in place: exact since s > 0; t.max_bound stays a
    bound, and no payload is negative."""
    np.maximum(t.x, 0, out=t.x)
    t.nonneg = True
    return t


@_kernel("sum_reduce", scale_arith=False)
def sum_reduce(t: ScaledTensor | Lane, ws: Workspace | None = None) -> Lane:
    """Sum payloads along the last axis, where the scale is already
    collapsed (scale_match_dim(t, -1), Lane.match_last).  The sum keeps
    that scale: a Lane operand becomes the sum, its scale untouched and
    still its own."""
    ws = _workspace(t, ws)
    x0 = t.x
    if not x0.ndim or t.s.shape[-1] != 1:
        raise ShapeError("sum_reduce needs a scale collapsed along the last axis")
    bound = t.max_bound * x0.shape[-1]
    dtype = lane_dtype(bound, x0)
    x = np.add.reduce(x0, axis=-1, dtype=dtype, out=ws.take(x0.shape[:-1] + (1,), dtype), keepdims=True)
    return _result(t, x, t.s, bound, (t.lo, t.hi), ws)


@_kernel("int_div", scale_arith=True)
def int_div(num: ScaledTensor | Lane, den: ScaledTensor | Lane, ws: Workspace | None = None) -> Lane:
    """Payload division truncating toward zero; scale s_num / s_den; operands broadcast.

    Denominator payloads must be strictly positive, checked here: trunc_div
    checks no divisor.  A non-positive one is refused with a PrecisionError:
    in a forward it is a weight sum that a shrink truncated to 0.
    """
    ws = _workspace(num, ws)
    nx, sn, dx, sd = num.x, num.s, den.x, den.s
    if dx.size and np.minimum.reduce(dx, None) <= 0:
        raise PrecisionError("divisor must be strictly positive")
    # A divisor of at least 1 never grows a magnitude.
    bound = num.max_bound
    x = _out(num, nx, _joint(nx.shape, dx.shape), lane_dtype(bound, nx), ws)
    trunc_div(nx, dx, x_max=bound, out=x)
    s = _out(num, sn, _joint(sn.shape, sd.shape), np.float64, ws)
    lo, hi = num.lo / den.hi, num.hi / den.lo
    scale_op(np.divide, sn, sd, hi, out=s)
    return _result(num, x, s, bound, (lo, hi), ws)


# The tensor core's transpose, tagged with its kind for the tracer; a view,
# it runs outside the protocol.
transpose = _kernel("transpose", scale_arith=False)(tensor_transpose)


@_kernel("concat", scale_arith=False)
def concat(*ts: ScaledTensor | Lane, axis: int, ws: Workspace | None = None) -> Lane:
    """Payloads and scales of the parts, in order along `axis`, in one new
    Lane; the Lane parts are released.

    The concat axis of the scale is materialized for each part, so that
    each part keeps its own scale block.  A side dim stays collapsed when
    every part's scale has size 1 there, and is materialized otherwise.
    """
    if not ts:
        raise ShapeError("concat of empty tensor list")
    shape, prec = ts[0].shape, ts[0].precision
    rank = len(shape)
    if not 0 <= axis < rank:
        raise ShapeError(f"axis {axis} out of range for rank {rank}")
    for t in ts:
        if t.precision != prec:
            raise ShapeError("mixed precision in concat")
        if len(t.shape) != rank:
            raise ShapeError("rank mismatch in concat")
        if any(t.shape[d] != shape[d] for d in range(rank) if d != axis):
            raise ShapeError("incompatible shapes in concat")
    ws = _workspace(ts[0], ws)
    xs, ss = [t.x for t in ts], [t.s for t in ts]
    side = tuple(1 if all(s.shape[d] == 1 for s in ss) else shape[d] for d in range(rank))

    def block(n: int) -> tuple[int, ...]:
        """A scale's shape with n along the concat axis."""
        return side[:axis] + (n,) + side[axis + 1:]

    n = sum(x.shape[axis] for x in xs)
    bound = max(t.max_bound for t in ts)
    scale_range = (min(t.lo for t in ts), max(t.hi for t in ts))
    x = ws.take(shape[:axis] + (n,) + shape[axis + 1:], lane_dtype(bound))
    np.concatenate(xs, axis=axis, out=x, casting="unsafe")
    s = ws.take(block(n))
    blocks = [np.broadcast_to(s_i, block(x_i.shape[axis])) for x_i, s_i in zip(xs, ss)]
    np.concatenate(blocks, axis=axis, out=s)
    for lane in {id(t): t for t in ts if isinstance(t, Lane)}.values():
        lane.release()
    return Lane(x, s, prec, ws, bound, scale_range)


@_kernel("add", scale_arith=True)
def lane_add(t: Lane, c: np.ndarray, c_max: int) -> Lane:
    """add(t, c) in place, for a payload c already at t's own scale, so
    matching moves nothing; c, float64 holding integers with max|c| = c_max,
    has the scale's shape and is broadcast."""
    bound = t.max_bound + c_max
    t.hold(bound)
    t.x += c if t.x.dtype == np.float64 else c.astype(np.int64)
    t.put(t.x, t.s, bound, (t.lo, t.hi))
    return t
