"""Dense tensor containers: integer payloads paired with positive rational scales.

Activations and kernel results live in a wide int64 lane regardless of their
logical bit-precision; the precision is metadata enforced at protocol
boundaries.  A model's parameters are held at their container width instead,
the narrowest signed integer type their precision admits (int8 for p <= 7,
int16 for p <= 15), and kernels widen them before they compute.  Scales keep
collapsed dimensions as size 1 and broadcast against their payload.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import LaneOverflowError, PrecisionError, ScaleRangeError, ShapeError, ValidationError

LANE_DTYPE = np.int64
# Headroom below int64 so products can be guarded before they wrap.
LANE_MAX = 2**62

DEFAULT_PRECISION = 7


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


# Products and quotients of scales can overflow to inf (or underflow to 0);
# check_scale rejects either with a ScaleRangeError, so numpy need not warn.
# Use it as a decorator: one errstate object cannot be entered twice at once.
quiet_overflow = np.errstate(over="ignore")


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


def scale_bounds(arr: np.ndarray, lo: float, hi: float) -> tuple[float, float]:
    """(lo, hi), derived bounds on arr's values, when they prove every value
    finite and strictly positive; otherwise arr's exact (min, max) from
    check_scale, which raises as it does for any new scale.

    A kernel derives the bounds from its operands' bounds: rounded multiply,
    divide and minimum are monotone on positive floats, so fl(lo_a * lo_b)
    <= fl(a_i * b_j) <= fl(hi_a * hi_b) for every element.  A bound that
    under- or overflows (lo = 0, hi = inf) proves nothing, and the scan
    decides.
    """
    if lo > 0 and hi < math.inf:  # a NaN fails both tests
        return lo, hi
    return check_scale(arr)


# libm pow is not guaranteed to be correctly rounded; this margin covers its
# error many times over, as long as the powers stay clear of subnormals.
POW_MARGIN = 2.0**-40
POW_FLOOR = 2.0**-1000


def pow_bounds(lo: float, hi: float, n: int) -> tuple[float, float]:
    """Bounds on s**n for every s in [lo, hi] as numpy computes it; (0, inf),
    which makes scale_bounds scan, when a power leaves the normal range."""
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
    """FP32-semantics dense tensor; used for references, scales and oracles.

    The values are held in float64 and frozen: a float64 array is held as a
    view of the caller's array, any other dtype as its own float64 copy.  The
    caller must not write to a float64 array after handing it over, since
    the write would reach the tensor past its finiteness check.
    """

    values: np.ndarray

    def __post_init__(self):
        arr = _float_view(self.values)
        if not np.all(np.isfinite(arr)):
            raise ValueError("rational tensor values must be finite")
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape


@dataclass(frozen=True)
class IntTensor:
    """Signed integer payload with a logical precision.

    Held in the wide int64 lane, except for a model parameter built by
    `param`, which is held at its container width.

    It carries a bound on max|x| (`max_bound`, a plain attribute): a
    kernel derives its result's bound from its operands' bounds.  The exact
    max|x| (`max_magnitude`) is scanned the first time it is read, unless a
    caller supplied it; payloads are read-only, so it stays valid.  `shape`
    is the payload's, set when it is sealed.
    """

    values: np.ndarray
    precision: int = DEFAULT_PRECISION
    # max|x| once known; payloads are read-only, so it stays valid.
    _max_abs: int | None = field(init=False, repr=False, compare=False)
    # A bound on max|x|, always below LANE_MAX; max|x| itself once known.
    max_bound: int = field(init=False, repr=False, compare=False)
    shape: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        raw = np.asarray(self.values)
        if raw.dtype.kind not in "iu":
            raise TypeError(f"payload must be integer-typed, got {raw.dtype}")
        # A defensive copy: the caller may still write to its array.
        self._seal(raw.astype(LANE_DTYPE))

    @classmethod
    def adopt(
        cls,
        arr: np.ndarray,
        precision: int = DEFAULT_PRECISION,
        known_max: int | None = None,
        *,
        bound: int | None = None,
    ) -> IntTensor:
        """Wrap an int64 array that a kernel has just allocated, without a copy.

        Only for arrays nothing else refers to: the array is frozen in place.
        A view, or an array of another dtype, goes through the copying
        constructor instead.  `known_max`, when the caller has already
        scanned max|x| exactly, spares the scan; `bound`, a bound on max|x|
        the caller derived, defers it until max|x| is read.
        """
        if not isinstance(arr, np.ndarray) or arr.dtype != LANE_DTYPE or arr.base is not None:
            return cls(arr, precision)
        t = cls.__new__(cls)
        object.__setattr__(t, "precision", precision)
        t._seal(arr, known_max, bound)
        return t

    @classmethod
    def param(cls, arr: np.ndarray, precision: int, known_max: int | None = None) -> IntTensor:
        """A model parameter's payload, held at container_dtype(precision),
        not in the wide lane: a weight takes one or two bytes, not eight.

        No kernel computes at the narrow width, so no sum or product wraps
        there.  matmul casts the payload straight to its GEMM type, chosen
        by the product's bound: float32 below 2^24 (every partial sum then
        an integer float32 holds), float64 below 2^53, else int64; every
        lane it lands in is float64 or int64.  A read-only array already of the
        container type (a record read from a file, say) is kept as it is;
        anything else is copied.  `known_max` is as in `adopt`.
        """
        raw = np.asarray(arr)
        if raw.dtype.kind not in "iu":
            raise TypeError(f"payload must be integer-typed, got {raw.dtype}")
        m = max_abs(raw) if known_max is None else known_max
        if m > (1 << precision) - 1:
            raise PrecisionError(f"parameter payload exceeds {precision} bits")
        dtype = container_dtype(precision)
        if raw.dtype != dtype or raw.flags.writeable:
            raw = raw.astype(dtype)
        t = cls.__new__(cls)
        object.__setattr__(t, "precision", precision)
        t._seal(raw, m)
        return t

    def view(self, arr: np.ndarray, same_max: bool = False) -> IntTensor:
        """Wrap `arr`, a view of this payload, without a copy: the payload is
        sealed, so nothing writes through the view.

        The view keeps this payload's bound.  A view holding every element
        (a transpose, a broadcast) passes `same_max` and keeps the exact
        max|x| too, when it is known; a slice scans its own when read.
        """
        t = IntTensor.__new__(IntTensor)
        object.__setattr__(t, "precision", self.precision)
        t._seal(arr, (self._max_abs if same_max else None) if arr.size else 0, self.max_bound)
        return t

    def _seal(self, arr: np.ndarray, m: int | None = None, bound: int | None = None) -> None:
        # A bound that reaches the lane proves nothing: scan, and let the
        # exact max decide, as it always has.
        if m is None and (bound is None or bound >= LANE_MAX):
            m = max_abs(arr)
        if m is not None:
            check_lane(m)
            bound = m
        if not 2 <= self.precision <= 15:
            raise ValidationError(f"precision {self.precision} outside [2, 15]")
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)
        object.__setattr__(self, "_max_abs", m)
        object.__setattr__(self, "max_bound", bound)
        object.__setattr__(self, "shape", arr.shape)

    @property
    def max_magnitude(self) -> int:
        """max|x|, exactly; scanned on the first read when only a bound is known."""
        m = self._max_abs
        if m is None:
            m = max_abs(self.values)
            object.__setattr__(self, "_max_abs", m)
            object.__setattr__(self, "max_bound", m)
        return m

    def in_range(self) -> bool:
        """True when every payload fits the logical precision."""
        limit = (1 << self.precision) - 1
        return self.max_bound <= limit or self.max_magnitude <= limit


@dataclass(frozen=True)
class ScaleTensor:
    """Strictly positive rational multipliers; collapsed dims have size 1.

    It carries bounds lo <= min and hi >= max of its values: scanned where
    a scale is built from an array, derived by `derived` where a kernel
    computes one from scales it knows the bounds of.  Like RationalTensor,
    it holds a view of a float64 array and a float64 copy of any other: the
    caller must not write to a float64 array after handing it over, since
    the write would break `lo` and `hi` unseen.
    """

    values: np.ndarray
    lo: float = field(init=False, repr=False, compare=False)
    hi: float = field(init=False, repr=False, compare=False)
    shape: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        arr = _float_view(self.values)
        self._seal(arr, *check_scale(arr))

    @classmethod
    def derived(cls, arr: np.ndarray, lo: float, hi: float) -> ScaleTensor:
        """Wrap a float64 scale a kernel computed, with bounds (lo, hi) it
        derived from its operands' bounds; the array is scanned only when
        the bounds do not prove it valid (scale_bounds)."""
        t = cls.__new__(cls)
        t._seal(arr, *scale_bounds(arr, lo, hi))
        return t

    def _seal(self, arr: np.ndarray, lo: float, hi: float) -> None:
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "shape", arr.shape)


@dataclass(frozen=True)
class ScaledTensor:
    """An integer payload bound to the scale that maps it back to rationals;
    `shape` is the payload's."""

    data: IntTensor
    scale: ScaleTensor
    shape: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        shape = self.data.shape
        if not _broadcast_compatible(self.scale.shape, shape):
            raise ShapeError(
                f"scale shape {self.scale.shape} does not broadcast to data shape {shape}"
            )
        object.__setattr__(self, "shape", shape)

    @property
    def precision(self) -> int:
        return self.data.precision


def transpose(t: ScaledTensor, axes: Sequence[int]) -> ScaledTensor:
    """Permute payload and scale identically; exact on the de-quantized view."""
    axes = tuple(axes)
    rank = len(t.shape)
    if sorted(axes) != list(range(rank)):
        raise ShapeError(f"axes {axes} is not a permutation of rank {rank}")
    x = np.transpose(t.data.values, axes)
    if x.dtype == LANE_DTYPE:
        data = t.data.view(x, same_max=True)
    else:  # a parameter held narrow: the result is widened, as every kernel's is
        data = IntTensor.adopt(x.astype(LANE_DTYPE), t.precision, t.data.max_magnitude)
    s = t.scale
    return ScaledTensor(data, ScaleTensor.derived(np.transpose(s.values, axes), s.lo, s.hi))

