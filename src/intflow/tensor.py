"""Dense tensor containers: integer payloads paired with positive rational scales.

Payloads live in a wide int64 lane regardless of their logical bit-precision;
the precision is metadata enforced at protocol boundaries.  Scales keep
collapsed dimensions as size 1 and broadcast against their payload.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import LaneOverflowError, ScaleRangeError, ShapeError

LANE_DTYPE = np.int64
# Headroom below int64 so products can be guarded before they wrap.
LANE_MAX = 2**62

DEFAULT_PRECISION = 7


def _as_float_array(values) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    return arr


def max_abs(arr: np.ndarray) -> int:
    """max|x| of an integer array as a Python int (0 when empty)."""
    # Python ints: np.abs would wrap -2^63 back to itself.
    return max(int(arr.max()), -int(arr.min())) if arr.size else 0


def _broadcast_compatible(scale_shape: tuple[int, ...], data_shape: tuple[int, ...]) -> bool:
    if len(scale_shape) != len(data_shape):
        return False
    return all(s == d or s == 1 for s, d in zip(scale_shape, data_shape))


@dataclass(frozen=True)
class RationalTensor:
    """FP32-semantics dense tensor; used for references, scales and oracles."""

    values: np.ndarray

    def __post_init__(self):
        arr = _as_float_array(self.values)
        if not np.all(np.isfinite(arr)):
            raise ValueError("rational tensor values must be finite")
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape


@dataclass(frozen=True)
class IntTensor:
    """Signed integer payload held in the wide lane, with a logical precision."""

    values: np.ndarray
    precision: int = DEFAULT_PRECISION
    # max|x|, scanned once here; payloads are read-only, so it stays valid.
    _max_abs: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        raw = np.asarray(self.values)
        if raw.dtype.kind not in "iu":
            raise TypeError(f"payload must be integer-typed, got {raw.dtype}")
        # A defensive copy: the caller may still write to its array.
        self._seal(raw.astype(LANE_DTYPE))

    @classmethod
    def adopt(
        cls, arr: np.ndarray, precision: int = DEFAULT_PRECISION, known_max: int | None = None
    ) -> IntTensor:
        """Wrap an int64 array that a kernel has just allocated, without a copy.

        Only for arrays nothing else refers to: the array is frozen in place.
        A view, or an array of another dtype, goes through the copying
        constructor instead.  `known_max`, when the caller has already
        scanned max|x| exactly, spares the second scan.
        """
        if not isinstance(arr, np.ndarray) or arr.dtype != LANE_DTYPE or arr.base is not None:
            return cls(arr, precision)
        t = cls.__new__(cls)
        object.__setattr__(t, "precision", precision)
        t._seal(arr, known_max)
        return t

    def view(self, arr: np.ndarray, same_max: bool = False) -> IntTensor:
        """Wrap `arr`, a view of this payload, without a copy: the payload is
        sealed, so nothing writes through the view.

        A view holding every element (a transpose, a broadcast) passes
        `same_max` and keeps the stored max|x|; a slice is scanned.
        """
        t = IntTensor.__new__(IntTensor)
        object.__setattr__(t, "precision", self.precision)
        t._seal(arr, (self._max_abs if arr.size else 0) if same_max else None)
        return t

    def _seal(self, arr: np.ndarray, m: int | None = None) -> None:
        if m is None:
            m = max_abs(arr)
        if m >= LANE_MAX:
            raise LaneOverflowError("payload exceeds accumulator lane")
        if not 2 <= self.precision <= 15:
            raise ValueError(f"precision {self.precision} outside [2, 15]")
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)
        object.__setattr__(self, "_max_abs", m)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    @property
    def max_magnitude(self) -> int:
        return self._max_abs

    def in_range(self) -> bool:
        """True when every payload fits the logical precision."""
        return self.max_magnitude <= (1 << self.precision) - 1


@dataclass(frozen=True)
class ScaleTensor:
    """Strictly positive rational multipliers; collapsed dims have size 1."""

    values: np.ndarray

    def __post_init__(self):
        arr = _as_float_array(self.values)
        # Two scans with no temporaries: a NaN fails the first test, and once
        # every value is positive only +inf can fail the second.
        if arr.size and not arr.min() > 0:
            raise ScaleRangeError("scale values must be strictly positive")
        if arr.size and not np.isfinite(arr.max()):
            raise ScaleRangeError("scale values must be finite")
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape


@dataclass(frozen=True)
class ScaledTensor:
    """An integer payload bound to the scale that maps it back to rationals."""

    data: IntTensor
    scale: ScaleTensor

    def __post_init__(self):
        if not _broadcast_compatible(self.scale.shape, self.data.shape):
            raise ShapeError(
                f"scale shape {self.scale.shape} does not broadcast to data shape {self.data.shape}"
            )

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def precision(self) -> int:
        return self.data.precision


def transpose(t: ScaledTensor, axes: Sequence[int]) -> ScaledTensor:
    """Permute payload and scale identically; exact on the de-quantized view."""
    axes = tuple(axes)
    rank = len(t.shape)
    if sorted(axes) != list(range(rank)):
        raise ShapeError(f"axes {axes} is not a permutation of rank {rank}")
    return ScaledTensor(
        t.data.view(np.transpose(t.data.values, axes), same_max=True),
        ScaleTensor(np.transpose(t.scale.values, axes)),
    )


def broadcast_scale(s: ScaleTensor, target_shape: Sequence[int]) -> ScaleTensor:
    """Materialize a collapsed scale to an explicit shape."""
    target_shape = tuple(target_shape)
    if not _broadcast_compatible(s.shape, target_shape):
        raise ShapeError(f"cannot broadcast scale {s.shape} to {target_shape}")
    return ScaleTensor(np.ascontiguousarray(np.broadcast_to(s.values, target_shape)))


def concat(ts: Sequence[ScaledTensor], axis: int) -> ScaledTensor:
    """Concatenate payloads and scales along `axis`.

    Scales collapsed along the concat axis (or along mismatched side dims) are
    replicated first so the parts remain individually de-quantizable.
    """
    if not ts:
        raise ShapeError("concat of empty tensor list")
    rank = len(ts[0].shape)
    if not 0 <= axis < rank:
        raise ShapeError(f"axis {axis} out of range for rank {rank}")
    prec = ts[0].precision
    for t in ts:
        if t.precision != prec:
            raise ShapeError("mixed precision in concat")
        if len(t.shape) != rank:
            raise ShapeError("rank mismatch in concat")
        for d in range(rank):
            if d != axis and t.shape[d] != ts[0].shape[d]:
                raise ShapeError("incompatible shapes in concat")
    if len(ts) == 1:
        return ts[0]
    datas = [t.data.values for t in ts]
    # Side dims stay collapsed when every input agrees; otherwise they are
    # materialized to the data extent.  The concat axis is always materialized
    # per part so each part keeps its own scale block.
    side_sizes = []
    for d in range(rank):
        if d == axis:
            side_sizes.append(None)
        else:
            sizes = {t.scale.shape[d] for t in ts}
            side_sizes.append(1 if sizes == {1} else ts[0].shape[d])
    scales = []
    for t in ts:
        target = tuple(
            t.shape[axis] if d == axis else side_sizes[d] for d in range(rank)
        )
        scales.append(np.broadcast_to(t.scale.values, target))
    return ScaledTensor(
        IntTensor(np.concatenate(datas, axis=axis), prec),
        ScaleTensor(np.concatenate(scales, axis=axis)),
    )
