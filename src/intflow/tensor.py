"""Dense tensor containers: integer payloads paired with positive rational scales.

A ScaledTensor is a sealed payload and scale, read by kernels under the
same names as a scaling.Lane, the buffers a kernel works in.  Activations
and kernel results live in a wide int64 lane regardless of their logical
bit-precision; the precision is metadata enforced at protocol boundaries.
A model's parameters are held at their container width instead, the
narrowest signed integer type their precision admits (int8 for p <= 7,
int16 for p <= 15), and kernels widen them before they compute.  Scales
keep collapsed dimensions as size 1 and broadcast against their payload.
Each op that makes scales runs through scale_op, which returns bounds that
hold for them, proven or scanned (check_scale, which refuses a bad scale).
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import LaneOverflowError, PrecisionError, ScaleRangeError, ShapeError, ValidationError

LANE_DTYPE = np.int64
# Headroom below int64 so products can be guarded before they wrap.
LANE_MAX = 2**62
# The logical bit widths a payload may have: int16 holds every 15-bit one.
PRECISIONS = range(2, 16)


def container_dtype(precision: int) -> type:
    """The narrowest signed integer type holding every payload of `precision`
    bits: int8 for p <= 7, int16 for p <= 15."""
    return np.int8 if precision <= 7 else np.int16


def _float_view(values) -> np.ndarray:
    """A float64 view of `values`, or a float64 copy of another dtype: freezing
    it leaves the caller's array writable (a later write to a float64 array
    still reaches the tensor)."""
    arr = np.asarray(values)
    return arr.view() if arr.dtype == np.float64 else _widen(arr)


# A signaling NaN (a corrupt float32 record, say) would warn in the cast; it
# casts to a quiet NaN, which the tensor's own check refuses.
@np.errstate(invalid="ignore")
def _widen(arr: np.ndarray) -> np.ndarray:
    return arr.astype(np.float64)


def max_abs(arr: np.ndarray) -> int:
    """max|x| of an integer array as a Python int (0 when empty)."""
    # Python ints: np.abs would wrap -2^63 back to itself.
    return max(int(np.maximum.reduce(arr, None)), -int(np.minimum.reduce(arr, None))) if arr.size else 0


def block_max_abs(arr: np.ndarray, blocks: int) -> list[int]:
    """max|x| of each of `blocks` equal runs of a C-contiguous integer
    array (each a head's row block, say), as Python ints (0 when empty)."""
    if not arr.size:
        return [0] * blocks
    runs = arr.reshape(blocks, -1)
    hi, lo = np.maximum.reduce(runs, axis=1).tolist(), np.minimum.reduce(runs, axis=1).tolist()
    return [max(int(a), -int(b)) for a, b in zip(hi, lo)]


def check_lane(m: int) -> None:
    """Raise LaneOverflowError unless a payload with max|x| = m fits the lane."""
    if m >= LANE_MAX:
        raise LaneOverflowError("payload exceeds accumulator lane")


def check_scale(arr: np.ndarray) -> tuple[float, float]:
    """Raise ScaleRangeError unless every scale value is finite and strictly
    positive; returns the scale's (min, max), or (1.0, 1.0) when it is empty."""
    if not arr.size:
        return 1.0, 1.0
    # Two scans with no temporaries: a NaN fails the first test, and once
    # every value is positive only +inf can fail the second.
    lo = float(np.minimum.reduce(arr, None))
    if not lo > 0:
        raise ScaleRangeError("scale values must be strictly positive")
    hi = float(np.maximum.reduce(arr, None))
    if not math.isfinite(hi):
        raise ScaleRangeError("scale values must be finite")
    return lo, hi


def scale_op(op, a, b, lo: float, hi: float, **out) -> tuple[float, float]:
    """Run op(a, b, **out), an op that makes scales, and return bounds
    (lo, hi) that hold for its result: the ones the caller derived, when
    they prove every value finite and strictly positive; otherwise the
    result's exact (min, max) from check_scale, which raises as it does for
    any new scale.

    A kernel derives the bounds from its operands' bounds: rounded multiply,
    divide and minimum are monotone on positive floats, so fl(lo_a * lo_b)
    <= fl(a_i * b_j) <= fl(hi_a * hi_b) for every element.  A bound that
    under- or overflows (lo = 0, hi = inf) proves nothing, and the scan
    decides.  The op runs with float overflow quiet then, so that the inf
    it leaves is a ScaleRangeError, not a numpy warning.
    """
    if lo > 0 and hi < math.inf:  # a NaN fails both tests
        op(a, b, **out)
        return lo, hi
    with np.errstate(over="ignore"):
        return check_scale(op(a, b, **out))


# numpy's float64 power is not correctly rounded, and which routine computes
# it follows the CPU: with AVX-512 numpy runs a SIMD routine of its own, off
# the correctly rounded power in about 5% of cubes, and without it the
# result is glibc's `pow`, off in about 0.1%.  Either is within a few ulp;
# this margin covers that many times over, as long as the powers stay clear
# of subnormals.
POW_MARGIN = 2.0**-40
POW_FLOOR = 2.0**-1000


def pow_bounds(lo: float, hi: float, n: int) -> tuple[float, float]:
    """Bounds on s**n for every s in [lo, hi] as numpy's float64 power
    computes it, through whichever routine the CPU dispatches to (see
    POW_MARGIN): lo**n and hi**n in Python floats, widened by the margin.
    (0, inf), which makes scale_op scan, when a power leaves the normal
    range."""
    try:
        lo_n, hi_n = lo**n * (1 - POW_MARGIN), hi**n * (1 + POW_MARGIN)
    except OverflowError:
        return 0.0, math.inf
    return (lo_n if lo_n >= POW_FLOOR else 0.0), hi_n


# Kernels build tensors of a few shapes many times over.  Bounded, so a
# long-lived process that meets many sequence lengths does not grow it.
@functools.lru_cache(maxsize=1024)
def _broadcast_compatible(scale_shape: tuple[int, ...], data_shape: tuple[int, ...]) -> bool:
    if len(scale_shape) != len(data_shape):
        return False
    return all(s == d or s == 1 for s, d in zip(scale_shape, data_shape))


@dataclass(frozen=True)
class RationalTensor:
    """The float result of `dequantize` and of an FP forward, in float64 and
    frozen: a float64 array is held as a view, any other dtype as its own
    float64 copy.  A float input is a plain array, never one of these.
    """

    values: np.ndarray

    def __post_init__(self):
        arr = _float_view(self.values)
        if not np.all(np.isfinite(arr)):
            raise ValueError("rational tensor values must be finite")
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)


@dataclass(frozen=True, eq=False, init=False)
class ScaledTensor:
    """An integer payload `x` bound to the strictly positive scale `s` that
    maps it back to rationals (x / s), both sealed read-only.

    It carries what a scaling.Lane carries, under the same names, so that a
    kernel reads a sealed operand as it reads a lane: `precision`, the
    payload's logical bit width; `max_bound`, a bound on max|x| below
    LANE_MAX; `max_magnitude`, the exact max|x|, scanned on each read;
    `lo` <= min(s) and `hi` >= max(s); and `shape`, the payload's.  The
    scale keeps collapsed dims as size 1 and broadcasts against the
    payload.

    The payload is int64, the wide lane, except for a model parameter
    (`param`), held at its container width.  A tensor is built sealed, in
    one of two ways, and both check that the scale broadcasts against the
    payload:
    - `ScaledTensor(x, s, precision, bound, scale_range)`, a result: an
      int64 payload and a float64 scale (fresh arrays, or views of a sealed
      tensor's), frozen in place;
    - `ScaledTensor.param`, a model parameter at its container width.
    """

    x: np.ndarray
    s: np.ndarray
    precision: int
    max_bound: int
    lo: float
    hi: float
    shape: tuple[int, ...]

    def __init__(
        self,
        x: np.ndarray,
        s: np.ndarray,
        precision: int,
        bound: int | None = None,
        scale_range: tuple[float, float] | None = None,
    ):
        """Seal a result: x, int64 (a parameter's container type when
        `param` calls), and s, float64, are frozen in place, so they must be
        arrays nothing else writes to (a kernel's fresh arrays, or views of
        a sealed tensor's).

        `bound`, a bound on max|x| the caller derived, spares the scan of
        max|x|; without it, or when it reaches the lane, max|x| is scanned
        and checked against the lane.  `scale_range`, bounds (lo, hi)
        derived from the operands' (or returned by scale_op), spares the
        scan of the scale unless they do not prove every value finite and
        strictly positive; then, or without it, the scale is checked
        (check_scale).
        """
        if precision not in PRECISIONS:
            raise ValidationError(f"precision {precision} outside [{PRECISIONS[0]}, {PRECISIONS[-1]}]")
        # A bound that reaches the lane proves nothing: scan, and let the
        # exact max decide.
        if bound is None or bound >= LANE_MAX:
            bound = max_abs(x)
            check_lane(bound)
        # scale_op's test, inline: a forward seals dozens of results.
        lo, hi = scale_range or (0.0, math.inf)  # no range proves nothing
        if not (lo > 0 and hi < math.inf):
            lo, hi = check_scale(s)
        if not _broadcast_compatible(s.shape, x.shape):
            raise ShapeError(f"scale shape {s.shape} does not broadcast to data shape {x.shape}")
        x.flags.writeable = False
        s.flags.writeable = False
        vars(self).update(x=x, s=s, precision=precision, max_bound=bound, lo=lo, hi=hi, shape=x.shape)

    @classmethod
    def param(
        cls,
        x: np.ndarray,
        s: np.ndarray,
        precision: int,
        m: int | None = None,
        scale_range: tuple[float, float] | None = None,
    ) -> ScaledTensor:
        """A model parameter, its payload held at container_dtype(precision),
        not in the wide lane: a weight takes one or two bytes, not eight.

        No kernel computes at the narrow width, so no sum or product wraps
        there.  matmul casts the payload straight to its GEMM type, chosen
        by the product's bound: float32 below 2^24 (every partial sum then
        an integer float32 holds), float64 below 2^53, else int64; every
        lane it lands in is float64 or int64.  A read-only integer array
        already of the container type (a record read from a file, say) is
        kept as it is; anything else is copied, and so is the scale, unless
        it is float64, which is held as a view (as RationalTensor holds it).
        `m`, max|x| when the caller has scanned it, spares the scan;
        `scale_range` is as in the constructor.
        """
        raw = np.asarray(x)
        if raw.dtype.kind not in "iu":
            raise TypeError(f"payload must be integer-typed, got {raw.dtype}")
        if m is None:
            m = max_abs(raw)
        if m > (1 << precision) - 1:
            raise PrecisionError(f"parameter payload exceeds {precision} bits")
        dtype = container_dtype(precision)
        if raw.dtype != dtype or raw.flags.writeable:
            raw = raw.astype(dtype)
        return cls(raw, _float_view(s), precision, m, scale_range)

    @property
    def max_magnitude(self) -> int:
        """max|x|, exactly: scanned on each read."""
        return max_abs(self.x)

    @property
    def data(self) -> IntTensor:
        """The payload as the benchmark reads it, a read-only IntTensor view."""
        return IntTensor(self)

    @property
    def scale(self) -> ScaleTensor:
        """The scale as the benchmark reads it, a read-only ScaleTensor view."""
        return ScaleTensor(self)


class IntTensor:
    """A read-only view of a ScaledTensor's payload (`ScaledTensor.data`):
    `values`, `precision`, `max_magnitude` and `in_range`.  Only the
    benchmark reads a tensor through it, and its tracer times its
    constructor and `max_magnitude` by name."""

    def __init__(self, t: ScaledTensor):
        self.values, self.precision, self._t = t.x, t.precision, t

    @property
    def max_magnitude(self) -> int:
        return self._t.max_magnitude

    def in_range(self) -> bool:
        """True when every payload fits the logical precision."""
        limit = (1 << self.precision) - 1
        return self._t.max_bound <= limit or self.max_magnitude <= limit


class ScaleTensor:
    """A read-only view of a ScaledTensor's scale (`ScaledTensor.scale`):
    `values`, `lo` and `hi`.  Only the benchmark reads a tensor through it,
    and its tracer times its constructor by name."""

    def __init__(self, t: ScaledTensor):
        self.values, self.lo, self.hi = t.s, t.lo, t.hi


def transpose(t: ScaledTensor, axes: Sequence[int]) -> ScaledTensor:
    """Permute payload and scale identically; exact on the de-quantized view."""
    axes = tuple(axes)
    rank = len(t.shape)
    if sorted(axes) != list(range(rank)):
        raise ShapeError(f"axes {axes} is not a permutation of rank {rank}")
    x, s = np.transpose(t.x, axes), np.transpose(t.s, axes)
    # A parameter held narrow is widened, as every kernel's result is.
    return ScaledTensor(x.astype(LANE_DTYPE, copy=False), s, t.precision, t.max_bound, (t.lo, t.hi))
