"""Integer arithmetic kernels acting jointly on payloads and scales.

Shape-preserving and element-wise ops (transpose, concat, ew_mul, pow_n,
abs, relu, sum over a uniform scale) are exact on the de-quantized view.
Anything that matches scales or divides payloads (add, matmul, int_div)
loses at most the stated truncation per element.
"""
from __future__ import annotations

import enum

import numpy as np

from .errors import LaneOverflowError, ShapeError
from .scaling import FLOAT64_EXACT, scale_match, scale_match_dim, trunc_div
from .tensor import LANE_MAX, IntTensor, ScaledTensor, ScaleTensor


class KernelKind(enum.Enum):
    ADD = "add"
    EW_MUL = "ew_mul"
    MATMUL = "matmul"
    POW_N = "pow_n"
    ABS = "abs"
    RELU = "relu"
    SUM_REDUCE = "sum_reduce"
    INT_DIV = "int_div"


def _kernel(kind: KernelKind, scale_arith: bool):
    def deco(fn):
        fn.kind = kind.value
        fn.scale_arith = scale_arith
        return fn
    return deco


def _check_product(a_max: int, b_max: int, terms: int = 1) -> int:
    """Bound terms * a_max * b_max on |sum of products|; raise at the lane."""
    bound = a_max * b_max * terms
    if bound >= LANE_MAX:
        raise LaneOverflowError("product exceeds accumulator lane")
    return bound


def _broadcast_pair(a: ScaledTensor, b: ScaledTensor) -> tuple[ScaledTensor, ScaledTensor]:
    shape = np.broadcast_shapes(a.shape, b.shape)
    if a.shape == b.shape:
        return a, b
    def expand(t: ScaledTensor) -> ScaledTensor:
        data = np.ascontiguousarray(np.broadcast_to(t.data.values, shape))
        # Scale dims stay collapsed where they were 1; only the rank changes.
        srank = len(t.scale.shape)
        pad = (1,) * (len(shape) - srank)
        sv = t.scale.values.reshape(pad + t.scale.shape)
        return ScaledTensor(IntTensor.adopt(data, t.precision), ScaleTensor(sv))
    return expand(a), expand(b)


@_kernel(KernelKind.EW_MUL, scale_arith=True)
def ew_mul(a: ScaledTensor, b: ScaledTensor) -> ScaledTensor:
    """{x1*x2, s1*s2}: exact on the de-quantized view."""
    a, b = _broadcast_pair(a, b)
    _check_product(a.data.max_magnitude, b.data.max_magnitude)
    x = a.data.values * b.data.values
    s = a.scale.values * b.scale.values
    return ScaledTensor(IntTensor.adopt(x, a.precision), ScaleTensor(s))


@_kernel(KernelKind.ADD, scale_arith=True)
def add(a: ScaledTensor, b: ScaledTensor) -> ScaledTensor:
    """Match scales to their minimum, then add payloads."""
    if a.shape != b.shape:
        raise ShapeError(f"add shapes differ: {a.shape} vs {b.shape}")
    ma, mb = scale_match([a, b])
    return ScaledTensor(
        IntTensor.adopt(ma.data.values + mb.data.values, a.precision), ma.scale
    )


@_kernel(KernelKind.MATMUL, scale_arith=True)
def matmul(a: ScaledTensor, b_t: ScaledTensor) -> ScaledTensor:
    """Contract the last dims of a (m x d) and b_t (n x d).

    Scales are first matched along the contraction dim, then multiplied as
    the outer product of the per-row scales.
    """
    if len(a.shape) != 2 or len(b_t.shape) != 2:
        raise ShapeError("matmul expects rank-2 operands")
    if a.shape[-1] != b_t.shape[-1]:
        raise ShapeError(
            f"contraction dims disagree: {a.shape[-1]} vs {b_t.shape[-1]}"
        )
    am = scale_match_dim(a, -1)
    bm = scale_match_dim(b_t, -1)
    bound = _check_product(am.data.max_magnitude, bm.data.max_magnitude, a.shape[-1])
    if bound < FLOAT64_EXACT:
        # Each product and partial sum, in any summation order, is an integer
        # no larger than bound, so BLAS returns the int64 result bit for bit
        # (the accumulator-width argument of gemmlowp and I-BERT).
        af = am.data.values.astype(np.float64)
        bf = bm.data.values.astype(np.float64)
        x = (af @ bf.T).astype(np.int64)
    else:
        x = am.data.values @ bm.data.values.T
    s = am.scale.values @ bm.scale.values.T  # (m,1) x (1,n)
    return ScaledTensor(IntTensor.adopt(x, a.precision), ScaleTensor(s))


@_kernel(KernelKind.POW_N, scale_arith=True)
def pow_n(t: ScaledTensor, n: int) -> ScaledTensor:
    """{x^n, s^n}: exact on the de-quantized view."""
    if n < 1:
        raise ValueError("exponent must be >= 1")
    m = t.data.max_magnitude
    if m > 1 and n * np.log2(m) >= 62:
        raise LaneOverflowError("power exceeds accumulator lane")
    # Repeated int64 multiplies: exact, and much faster than integer **.
    # Scales keep **: in float, s*s*s can round differently from s**n.
    x = t.data.values
    xn = x.copy() if n == 1 else x * x
    for _ in range(n - 2):
        xn *= x
    return ScaledTensor(
        IntTensor.adopt(xn, t.precision),
        ScaleTensor(t.scale.values ** n),
    )


@_kernel(KernelKind.ABS, scale_arith=False)
def abs_(t: ScaledTensor) -> ScaledTensor:
    """{|x|, s}: exact since s > 0."""
    return ScaledTensor(IntTensor.adopt(np.abs(t.data.values), t.precision), t.scale)


@_kernel(KernelKind.RELU, scale_arith=False)
def relu(t: ScaledTensor) -> ScaledTensor:
    """{max(0, x), s}: exact since s > 0."""
    return ScaledTensor(
        IntTensor.adopt(np.maximum(t.data.values, 0), t.precision), t.scale
    )


@_kernel(KernelKind.SUM_REDUCE, scale_arith=False)
def sum_reduce(t: ScaledTensor, axis: int, keepdims: bool = True) -> ScaledTensor:
    """Sum payloads along `axis`; the scale must be uniform there.

    A scale that still varies along the axis is matched down first.
    """
    rank = len(t.shape)
    if not -rank <= axis < rank:
        raise ShapeError(f"axis {axis} out of range for rank {rank}")
    axis = axis % rank
    t = scale_match_dim(t, axis)
    x = np.sum(t.data.values, axis=axis, keepdims=keepdims)
    s = t.scale.values
    if not keepdims:
        s = np.squeeze(s, axis=axis)
    return ScaledTensor(IntTensor.adopt(x, t.precision), ScaleTensor(s))


@_kernel(KernelKind.INT_DIV, scale_arith=True)
def int_div(num: ScaledTensor, den: ScaledTensor) -> ScaledTensor:
    """Payload division truncating toward zero; scale s_num / s_den."""
    num, den = _broadcast_pair(num, den)
    if np.any(den.data.values <= 0):
        raise ValueError("int_div denominator payloads must be strictly positive")
    x = trunc_div(num.data.values, den.data.values)
    s = num.scale.values / den.scale.values
    return ScaledTensor(IntTensor.adopt(x, num.precision), ScaleTensor(s))


# Shape ops from the tensor core, tagged so they can run through the protocol.
from .tensor import concat as _concat_raw, transpose as _transpose_raw  # noqa: E402


def transpose(t: ScaledTensor, axes) -> ScaledTensor:
    return _transpose_raw(t, axes)


transpose.kind = "transpose"
transpose.scale_arith = False


def concat(*ts: ScaledTensor, axis: int) -> ScaledTensor:
    return _concat_raw(list(ts), axis)


concat.kind = "concat"
concat.scale_arith = False
