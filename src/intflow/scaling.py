"""The quantization calculus: scale init, (de-)quantize, matching, re-scaling.

Every integer op runs through :func:`protocol_apply`, which executes the
kernel in the wide lane, shrinks the result back to the logical precision
when it overflows, and appends an audit record.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .audit import FP32, PAYLOAD, SCALE, AuditRecord, OpAuditLog
from .errors import LaneOverflowError, PrecisionError, ShapeError
from .tensor import (
    DEFAULT_PRECISION,
    LANE_MAX,
    IntTensor,
    RationalTensor,
    ScaledTensor,
    ScaleTensor,
    max_abs,
)


@dataclass(frozen=True)
class Precision:
    """Logical bit width of payloads; the stored lane is always wider."""

    p: int = DEFAULT_PRECISION

    def __post_init__(self):
        if not 2 <= self.p <= 15:
            raise ValueError(f"precision {self.p} outside [2, 15]")

    @property
    def max_magnitude(self) -> int:
        return (1 << self.p) - 1


class ScaleGranularity(enum.Enum):
    """Which trailing dims a scale collapses when initialized from data."""

    PER_ROW = "row"       # collapse the hidden dim only
    PER_BATCH_TIME = "bt"  # one scale per (batch, time): collapse hidden dim
    PER_BATCH = "b"        # one scale per batch element: collapse time x hidden

    def reduce_axes(self, rank: int) -> tuple[int, ...]:
        if rank == 0:
            return ()
        if self is ScaleGranularity.PER_BATCH and rank >= 2:
            return (rank - 2, rank - 1)
        return (rank - 1,)


def _round_to_f32(values: np.ndarray) -> np.ndarray:
    """Snap to the nearest float32 value (scales have FP32 semantics)."""
    return values.astype(np.float32).astype(np.float64)


# Every integer of magnitude up to 2^53 is exactly a float64.
FLOAT64_EXACT = 2**53


def trunc_div(x: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Integer division truncating toward zero; divisor strictly positive.

    Below 2^53 this is trunc(float64(x) / k), which is exact: for
    |x| < 2^53 and 0 < k <= 2^53, fl(x/k) is off from x/k by less than
    |x/k| * 2^-53 < 1/k, while x/k lies at least 1/k from every integer it
    is not equal to, so the rounded quotient never reaches the next integer.
    From 2^53 up the quotient is taken in int64.
    """
    x = np.asarray(x)
    k = np.asarray(k, dtype=np.int64)
    if k.size and k.min() <= 0:
        raise ValueError("divisor must be strictly positive")
    if max_abs(x) < FLOAT64_EXACT and (not k.size or k.max() <= FLOAT64_EXACT):
        # Written straight to int64: the cast truncates toward zero.
        out = np.empty(np.broadcast_shapes(x.shape, k.shape), np.int64)
        return np.true_divide(x, k, out=out, casting="unsafe")
    return np.sign(x) * (np.abs(x) // k)


# Largest finite float32: the ceiling of every scale init_scale returns.
SCALE_MAX = float(np.finfo(np.float32).max)


def init_scale(
    r: RationalTensor,
    g: ScaleGranularity = ScaleGranularity.PER_ROW,
    prec: Precision = Precision(),
) -> ScaleTensor:
    """Per-group scale (2^p - 1) / max(|r|); degenerate all-zero groups get 1.

    Groups so small that the scale would overflow float32 (max|r| below
    (2^p - 1) / SCALE_MAX, about 3.7e-37 at p=7) get SCALE_MAX instead; their
    payloads then quantize to 0.  Every scale below SCALE_MAX is unchanged.
    """
    axes = g.reduce_axes(len(r.shape))
    m = np.max(np.abs(r.values), axis=axes, keepdims=True) if r.values.size else np.abs(r.values)
    limit = float(prec.max_magnitude)
    with np.errstate(divide="ignore", over="ignore"):
        s = np.where(m > 0, limit / np.maximum(m, np.finfo(np.float64).tiny), 1.0)
    return ScaleTensor(_round_to_f32(np.minimum(s, SCALE_MAX)))


def quantize(r: RationalTensor, s: ScaleTensor, precision: int = DEFAULT_PRECISION) -> ScaledTensor:
    """x = round(s * r), half to even; the result carries s."""
    x = np.multiply(r.values, s.values, out=np.empty(r.shape))
    np.rint(x, out=x)
    # Every x is now a float64 integer, so this one scan is the payload's exact max|x|.
    m = int(max(x.max(), -x.min())) if x.size else 0
    if m >= LANE_MAX:
        raise LaneOverflowError("quantized payload exceeds accumulator lane")
    return ScaledTensor(IntTensor.adopt(x.astype(np.int64), precision, known_max=m), s)


def dequantize(t: ScaledTensor) -> RationalTensor:
    """r' = x / s elementwise."""
    return RationalTensor(t.data.values / t.scale.values)


def _match_payload(x: np.ndarray, s: np.ndarray, s_bar: np.ndarray) -> np.ndarray:
    """Move payload x from scale s down to s_bar <= s, truncating toward zero.

    |x'| <= |x| always holds, so matching cannot overflow; the de-quantized
    value moves by less than 1/s_bar per element.
    """
    # |x| * (s_bar / s), formed as |(s_bar / s) * x|: float rounding is
    # symmetric in sign, so the bits are the same, with one buffer.
    q = np.divide(s_bar, s, out=np.empty(x.shape))
    q *= x
    np.abs(q, out=q)
    # Guard against float noise flipping an exactly-integer quotient downward.
    q += 1e-9
    np.floor(q, out=q)
    return np.copysign(q, x, out=np.empty(x.shape, np.int64), casting="unsafe")


def scale_match(ts: list[ScaledTensor]) -> list[ScaledTensor]:
    """Unify inputs to the elementwise minimum scale.

    Each payload is divided by its scale ratio s_i / s_bar (truncating), which
    never grows a magnitude, so matching cannot overflow.
    """
    if not ts:
        raise ShapeError("scale_match of empty input list")
    shape = ts[0].shape
    prec = ts[0].precision
    for t in ts:
        if t.shape != shape:
            raise ShapeError("scale_match inputs must share shape")
    if all(t.scale is ts[0].scale for t in ts):
        # One shared scale is its own minimum: no payload moves.
        return list(ts)
    # Scales broadcast against each other, and np.minimum allocates the
    # minimum in their common shape.
    scales = [t.scale.values for t in ts]
    s_bar = np.minimum(scales[0], scales[1])
    for s in scales[2:]:
        s_bar = np.minimum(s_bar, s)
    out = []
    unified = ScaleTensor(s_bar)
    for t, s in zip(ts, scales):
        if (s == s_bar).all():
            # Already at the minimum: the payload moves by nothing, exactly.
            out.append(ScaledTensor(t.data, unified))
            continue
        x = _match_payload(t.data.values, s, s_bar)
        out.append(ScaledTensor(IntTensor.adopt(x, prec), unified))
    return out


def scale_match_dim(t: ScaledTensor, d: int) -> ScaledTensor:
    """Collapse the scale to 1 along axis d by matching slices to the min scale."""
    rank = len(t.shape)
    if not -rank <= d < rank:
        raise ShapeError(f"axis {d} out of range for rank {rank}")
    d = d % rank
    s = t.scale.values
    if s.shape[d] == 1:
        return t
    s_bar = np.min(s, axis=d, keepdims=True)
    # Every slice already equals the minimum when the maximum does.
    if np.array_equal(np.max(s, axis=d, keepdims=True), s_bar):
        return ScaledTensor(t.data, ScaleTensor(s_bar))
    x = _match_payload(t.data.values, s, s_bar)
    return ScaledTensor(IntTensor.adopt(x, t.precision), ScaleTensor(s_bar))


def rescale(x: IntTensor, s: ScaleTensor, prec: Precision) -> ScaledTensor:
    """Shrink payload back to p bits: divide payload and scale by
    ceil(max(|x|) / (2^p - 1)), computed per scale group."""
    group_axes = tuple(
        a for a in range(len(x.shape)) if s.shape[a] == 1 and x.shape[a] > 1
    )
    if x.values.size == 0:
        return ScaledTensor(IntTensor(x.values, prec.p), s)
    # The group max, and so the divisor, has the scale's shape.
    if x.max_magnitude >= FLOAT64_EXACT:
        m = np.max(np.abs(x.values), axis=group_axes, keepdims=True)
        s_hat = np.maximum(-(-m // prec.max_magnitude), 1)
        x2 = trunc_div(x.values, s_hat)
        return ScaledTensor(IntTensor.adopt(x2, prec.p), ScaleTensor(s.values / s_hat))
    # Below 2^53 every step is exact in float64 (see trunc_div; the ceiling
    # holds by the same argument), and one float buffer carries the group
    # max, the divisor and then the new scale.
    v = x.values
    if group_axes:
        m = np.maximum(
            v.max(axis=group_axes, keepdims=True), -v.min(axis=group_axes, keepdims=True)
        ).astype(np.float64)
    else:
        # One scale per element: the group max is |x| itself.
        m = np.abs(v, out=np.empty(x.shape))
    m /= prec.max_magnitude
    np.ceil(m, out=m)
    np.maximum(m, 1.0, out=m)
    # Written straight to int64: the cast truncates toward zero.
    x2 = np.divide(v, m, out=np.empty(x.shape, np.int64), casting="unsafe")
    s2 = np.divide(s.values, m, out=m)
    return ScaledTensor(IntTensor.adopt(x2, prec.p), ScaleTensor(s2))


def protocol_apply(
    kernel,
    ins: list[ScaledTensor],
    prec: Precision,
    *,
    log: OpAuditLog | None = None,
    module: str = "",
    allow_rescale: bool = True,
    **kwargs,
) -> ScaledTensor:
    """Run an integer kernel in the wide lane, re-scale on overflow, audit it."""
    out = kernel(*ins, **kwargs)
    rescaled = False
    if allow_rescale and out.data.max_magnitude > prec.max_magnitude:
        out = rescale(out.data, out.scale, prec)
        rescaled = True
        if out.data.max_magnitude > prec.max_magnitude:
            raise PrecisionError("payload exceeds logical precision after re-scaling")
    if log is not None:
        kind = kernel.kind
        elements = out.data.values.size
        if kind == "matmul" and ins:
            elements *= ins[0].shape[-1]  # multiply-add count, not output count
        log.append(AuditRecord(kind, PAYLOAD, elements, rescaled, module))
        if getattr(kernel, "scale_arith", False):
            log.append(AuditRecord(kind, SCALE, out.scale.values.size, rescaled, module))
        if rescaled:
            log.append(AuditRecord("rescale", SCALE, out.scale.values.size, True, module))
    return out


@dataclass
class Session:
    """One inference run: a precision and its single-writer audit log."""

    precision: Precision = field(default_factory=Precision)
    log: OpAuditLog = field(default_factory=OpAuditLog)

    def apply(self, kernel, ins, module: str = "", **kwargs) -> ScaledTensor:
        return protocol_apply(
            kernel, ins, self.precision, log=self.log, module=module, **kwargs
        )

    def note(self, kind: str, lane: str, elements: int, module: str = "") -> None:
        self.log.append(AuditRecord(kind, lane, elements, False, module))

    def quantize(
        self, r: RationalTensor, s: ScaleTensor, module: str = ""
    ) -> ScaledTensor:
        """Quantize through the session so the Q() shows up in the audit log."""
        out = quantize(r, s, self.precision.p)
        self.note("quantize", SCALE, r.values.size, module)
        return out

    def dequantize(self, t: ScaledTensor, module: str = "") -> RationalTensor:
        """De-quantize through the session; only the canonical baseline does this."""
        out = dequantize(t)
        self.note("dequantize", FP32, t.data.values.size, module)
        return out
