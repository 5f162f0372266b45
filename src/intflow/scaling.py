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
from .errors import LaneOverflowError, ShapeError
from .tensor import (
    DEFAULT_PRECISION,
    LANE_MAX,
    IntTensor,
    RationalTensor,
    ScaledTensor,
    ScaleTensor,
    check_lane,
    check_scale,
    max_abs,
    scale_bounds,
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

    PER_ROW = "row"  # one scale per row: collapse the hidden dim only
    PER_BATCH = "b"  # one scale per batch element: collapse time x hidden

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


def trunc_div(x: np.ndarray, k: np.ndarray, *, x_max: int | None = None) -> np.ndarray:
    """Integer division truncating toward zero; divisor strictly positive.

    Below 2^53 this is trunc(float64(x) / k), which is exact: for
    |x| < 2^53 and 0 < k <= 2^53, fl(x/k) is off from x/k by less than
    |x/k| * 2^-53 < 1/k, while x/k lies at least 1/k from every integer it
    is not equal to, so the rounded quotient never reaches the next integer.
    From 2^53 up the quotient is taken in int64.

    A caller that knows a bound on max|x| passes it as `x_max`, which
    spares a scan of the numerator: both routes are exact, so a bound
    chooses between them as well as the exact max does.
    """
    x = np.asarray(x)
    k = np.asarray(k, dtype=np.int64)
    if k.size and k.min() <= 0:
        raise ValueError("divisor must be strictly positive")
    k_max = int(k.max()) if k.size else 0
    if x_max is None:
        x_max = max_abs(x)
    if x_max < FLOAT64_EXACT and k_max <= FLOAT64_EXACT:
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
    """Per-group scale (2^p - 1) / max(|r|), at most SCALE_MAX.

    Groups so small that the scale would overflow float32 (max|r| below
    (2^p - 1) / SCALE_MAX, about 3.7e-37 at p=7) get SCALE_MAX, and so do
    all-zero groups: their payloads are 0, and the largest scale means that
    matching never lowers a partner's scale to theirs.  Every scale below
    SCALE_MAX is unchanged.
    """
    axes = g.reduce_axes(len(r.shape))
    m = np.max(np.abs(r.values), axis=axes, keepdims=True) if r.values.size else np.abs(r.values)
    limit = float(prec.max_magnitude)
    with np.errstate(over="ignore"):
        s = limit / np.maximum(m, np.finfo(np.float64).tiny)
    return ScaleTensor(_round_to_f32(np.minimum(s, SCALE_MAX)))


def quantize_into(r: np.ndarray, s: np.ndarray, out: np.ndarray) -> int:
    """round(s * r), half to even, into the float64 array `out`; returns max|x|."""
    np.multiply(r, s, out=out)
    np.rint(out, out=out)
    # Every x is now a float64 integer, so this one scan is the payload's exact max|x|.
    m = int(max(out.max(), -out.min())) if out.size else 0
    if m >= LANE_MAX:
        raise LaneOverflowError("quantized payload exceeds accumulator lane")
    return m


def quantize(r: RationalTensor, s: ScaleTensor, precision: int = DEFAULT_PRECISION) -> ScaledTensor:
    """x = round(s * r), half to even; the result carries s."""
    x = np.empty(r.shape)
    m = quantize_into(r.values, s.values, x)
    return ScaledTensor(IntTensor.adopt(x.astype(np.int64), precision, known_max=m), s)


def dequantize(t: ScaledTensor) -> RationalTensor:
    """r' = x / s elementwise."""
    return RationalTensor(t.data.values / t.scale.values)


class Workspace:
    """Scratch arrays of one Session, handed out by shape and dtype and taken back.

    Only for arrays that never leave a call: a Lane's payload, scale and
    scratch buffers, and the ratio buffers of the matches it makes.
    Payloads and scales that leave in an IntTensor or a ScaleTensor are
    always fresh.  The heads, FFNs and output projection of a forward share
    one set of large buffers: otherwise the allocator trims the heap and
    grows it again around each such temporary, at a page fault per 4 KiB.
    The arrays die with the workspace, and so with its Session.
    """

    def __init__(self):
        self._free: dict[tuple, list[np.ndarray]] = {}

    def take(self, shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
        """A writable array of that shape and dtype (np.float64 or
        np.int64), its contents undefined."""
        stack = self._free.get((shape, dtype))
        return stack.pop() if stack else np.empty(shape, dtype)

    def copy(self, a: np.ndarray, dtype=np.float64) -> np.ndarray:
        """A taken array holding a, cast to dtype."""
        out = self.take(a.shape, dtype)
        np.copyto(out, a, casting="unsafe")
        return out

    def give(self, *arrays: np.ndarray) -> None:
        """Take arrays back; the caller keeps no reference to them."""
        for a in arrays:
            self._free.setdefault((a.shape, a.dtype.type), []).append(a)


# While max|x| is below 2^22, |x| * fl(s_bar / s) rounded to float64 is off
# from the exact quotient by less than 2^22 * 2^-52 < 1e-9, so adding 1e-9
# before the floor recovers every exact integer; from 2^22 up matching runs
# in exact rational arithmetic.
MATCH_FLOAT_MAX = 2**22

# Each float scale is an exact binary fraction n / d.
_integer_ratio = np.frompyfunc(float.as_integer_ratio, 1, 2)


def _match_exact(x: np.ndarray, s: np.ndarray, s_bar: np.ndarray) -> np.ndarray:
    """x * s_bar / s truncated toward zero, exactly, as int64: with s = n / d
    and s_bar = n' / d', |x| * n' * d // (d' * n) in Python ints, with the
    sign restored.  x is int64, or float64 holding integers."""
    n_bar, d_bar = _integer_ratio(s_bar)
    n, d = _integer_ratio(s)
    q = np.abs(x).astype(np.int64, copy=False).astype(object) * (n_bar * d) // (d_bar * n)
    return np.where(x < 0, -q, q).astype(np.int64)


def _match_payload(
    x: np.ndarray,
    s: np.ndarray,
    s_bar: np.ndarray,
    x_max: int,
    ws: Workspace | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Move payload x, with max|x| = `x_max`, from scale s down to
    s_bar <= s, truncating toward zero.  `x_max` may be a bound while it is
    below MATCH_FLOAT_MAX (see match_max).

    |x'| <= |x| always holds, so matching cannot overflow; the de-quantized
    value moves by less than 1/s_bar per element.  Below MATCH_FLOAT_MAX the
    result is the exact quotient, except that one within about 2e-9 below an
    integer is rounded up to it; from there up it is exact.  x is int64, or
    float64 holding integers; the result goes to `out`, which may be x
    itself, else to a fresh int64 array.  The ratio buffer comes from `ws`
    when given.
    """
    if x_max >= MATCH_FLOAT_MAX:
        q = _match_exact(x, s, s_bar)
        if out is None:
            return q
        np.copyto(out, q)
        return out
    # |x| * (s_bar / s), formed as |(s_bar / s) * x|: float rounding is
    # symmetric in sign, so the bits are the same, with one buffer.
    q = np.divide(s_bar, s, out=np.empty(x.shape) if ws is None else ws.take(x.shape))
    q *= x
    np.abs(q, out=q)
    # Guard against float noise flipping an exactly-integer quotient downward.
    q += 1e-9
    np.floor(q, out=q)
    if out is None:
        out = np.empty(x.shape, np.int64)
    np.copysign(q, x, out=out, casting="unsafe")
    if ws is not None:
        ws.give(q)
    return out


def match_max(t: IntTensor | Lane) -> int:
    """max|x| as _match_payload's route switch needs it: the bound below
    MATCH_FLOAT_MAX, where it picks the float route as the exact max does,
    and the exact max from there up, since the routes can differ in the
    last unit."""
    bound = t.max_bound
    return bound if bound < MATCH_FLOAT_MAX else t.max_magnitude


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
    unified = ScaleTensor.derived(
        s_bar, min(t.scale.lo for t in ts), min(t.scale.hi for t in ts)
    )
    for t, s in zip(ts, scales):
        if (s == s_bar).all():
            # Already at the minimum: the payload moves by nothing, exactly.
            out.append(ScaledTensor(t.data, unified))
            continue
        x = _match_payload(t.data.values, s, s_bar, match_max(t.data))
        # Matching never grows a magnitude, so the bound carries over.
        out.append(ScaledTensor(IntTensor.adopt(x, prec, bound=t.data.max_bound), unified))
    return out


def match_axis(
    x: np.ndarray,
    s: np.ndarray,
    d: int,
    x_max: int,
    ws: Workspace | None = None,
    out: np.ndarray | None = None,
) -> tuple[np.ndarray | None, np.ndarray]:
    """scale_match_dim's arithmetic: the payload matched to the minimum scale
    along axis d (None when no payload moves), and that minimum, a fresh
    array.  max|x| is `x_max`; the matched payload goes to `out` as
    _match_payload says."""
    s_bar = np.min(s, axis=d, keepdims=True)
    # Every slice already equals the minimum when the maximum does.
    if np.array_equal(np.max(s, axis=d, keepdims=True), s_bar):
        return None, s_bar
    return _match_payload(x, s, s_bar, x_max, ws, out), s_bar


def scale_match_dim(t: ScaledTensor, d: int) -> ScaledTensor:
    """Collapse the scale to 1 along axis d by matching slices to the min scale."""
    rank = len(t.shape)
    if not -rank <= d < rank:
        raise ShapeError(f"axis {d} out of range for rank {rank}")
    d = d % rank
    if t.scale.shape[d] == 1:
        return t
    x, s_bar = match_axis(t.data.values, t.scale.values, d, match_max(t.data))
    data = t.data if x is None else IntTensor.adopt(x, t.precision, bound=t.data.max_bound)
    # Each minimum is one of the values, so the bounds carry over.
    return ScaledTensor(data, ScaleTensor.derived(s_bar, t.scale.lo, t.scale.hi))


def shrink(
    x: np.ndarray,
    s: np.ndarray,
    limit: int,
    x_max: int,
    *,
    out: np.ndarray | None = None,
    scale_out: np.ndarray | None = None,
    work: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """rescale's arithmetic: divide payload x and scale s by
    ceil(max|x| / limit), at least 1, per scale group.

    x holds integers, with max|x| <= `x_max`: int64, or float64 when
    `x_max` < 2^53.  Below 2^53 every step is exact in float64 (see
    trunc_div; the ceiling holds by the same argument).  The quotient goes
    to `out`, which may be x itself (a float64 quotient is truncated in
    place), else to a fresh int64 array; the new scale goes to `scale_out`,
    which may be s itself, else to the divisor's buffer.  `work`, float64 of
    x's shape, holds the divisor when every element has its own scale.  From
    2^53 up the quotient is a fresh int64 array from trunc_div.
    """
    # The groups are the axes the scale collapses, so the divisor has the
    # scale's shape.
    group_axes = tuple(a for a in range(x.ndim) if s.shape[a] == 1 and x.shape[a] > 1)
    if x_max >= FLOAT64_EXACT:
        m = np.max(np.abs(x), axis=group_axes, keepdims=True)
        s_hat = np.maximum(-(-m // limit), 1)
        return trunc_div(x, s_hat), np.divide(s, s_hat, out=scale_out)
    if group_axes:
        m = np.maximum(
            x.max(axis=group_axes, keepdims=True), -x.min(axis=group_axes, keepdims=True)
        ).astype(np.float64, copy=False)
    else:
        # One scale per element: the group max is |x| itself.
        m = np.abs(x, out=np.empty(x.shape) if work is None else work)
    m /= limit
    np.ceil(m, out=m)
    np.maximum(m, 1.0, out=m)
    # An int64 quotient is written straight to int64: the cast truncates
    # toward zero.
    q = np.divide(x, m, out=np.empty(x.shape, np.int64) if out is None else out, casting="unsafe")
    if q.dtype != np.int64:
        np.trunc(q, out=q)
    return q, np.divide(s, m, out=m if scale_out is None else scale_out)


def _shrunk_lo(lo: float, x_max: int, limit: int) -> float:
    """A lower bound on the scales shrink makes from scales >= lo: no group's
    divisor exceeds ceil(x_max / limit), and float division is monotone."""
    return lo / max(-(-x_max // limit), 1)


def rescale(x: IntTensor, s: ScaleTensor, prec: Precision) -> ScaledTensor:
    """Shrink payload back to p bits: divide payload and scale by
    ceil(max(|x|) / (2^p - 1)), computed per scale group.

    Every group then has max|x| <= 2^p - 1, which the result carries as
    its bound; a scale divided by at least 1 keeps its upper bound."""
    if x.values.size == 0:
        return ScaledTensor(IntTensor(x.values, prec.p), s)
    m, limit = x.max_magnitude, prec.max_magnitude
    x2, s2 = shrink(x.values, s.values, limit, m)
    return ScaledTensor(
        IntTensor.adopt(x2, prec.p, bound=limit),
        ScaleTensor.derived(s2, _shrunk_lo(s.lo, m, limit), s.hi),
    )


class Lane:
    """A kernel result worked in place: one payload buffer and one scale buffer.

    An in-place kernel takes a Lane and returns it; `protocol_apply` shrinks
    and audits it as it does a fresh ScaledTensor.  The payload x holds exact
    integers: float64 while a step's bound on max|x| is below 2^53, int64
    from 2^53 up, the rule of `matmul`, `trunc_div` and `rescale`.  `m`
    bounds max|x|, and is max|x| itself while `exact` holds; a step that
    needs the exact max reads `max_magnitude`, which scans once.  `lo` and
    `hi` bound the scale's values, and each step that makes scales checks
    them as ScaleTensor.derived does.

    Its payload, scale and scratch arrays come from the workspace `ws`, and
    go back to it when the lane is sealed or released.
    """

    def __init__(
        self,
        x: np.ndarray,
        s: np.ndarray,
        precision: int,
        ws: Workspace,
        m: int | None = None,
        scale_range: tuple[float, float] | None = None,
    ):
        """`m`, when given, is a bound on max|x|, else max|x| is scanned;
        `scale_range` likewise bounds the scale, else it is scanned."""
        self.x, self.s, self.precision, self.ws = x, s, precision, ws
        self.exact = m is None
        self.m = max_abs(x) if m is None else m
        self.check_fit()
        self.lo, self.hi = check_scale(s) if scale_range is None else scale_bounds(s, *scale_range)
        self.work = ws.take(x.shape)  # float64 scratch of the payload's shape

    @property
    def shape(self) -> tuple[int, ...]:
        return self.x.shape

    @property
    def max_bound(self) -> int:
        return self.m

    @property
    def max_magnitude(self) -> int:
        """max|x|, exactly: scanned when only a bound is known."""
        if not self.exact:
            self.m = max_abs(self.x)
            self.exact = True
        return self.m

    def bound(self, m: int) -> None:
        """Record a new bound on max|x| after a step that moved the payload."""
        self.m = m
        self.exact = False

    def check_fit(self) -> None:
        """check_lane on the bound, deciding by the exact max when the bound trips."""
        if self.m >= LANE_MAX:
            check_lane(self.max_magnitude)

    @classmethod
    def of(cls, t: ScaledTensor, ws: Workspace) -> Lane:
        """A private copy of t's payload and scale."""
        m = t.data.max_bound
        x = ws.copy(t.data.values, np.float64 if m < FLOAT64_EXACT else np.int64)
        return cls(x, ws.copy(t.scale.values), t.precision, ws, m, (t.scale.lo, t.scale.hi))

    def hold(self, bound: int) -> None:
        """Hold x in float64 while `bound` is below 2^53, in int64 from there up."""
        want = np.float64 if bound < FLOAT64_EXACT else np.int64
        if self.x.dtype != want:
            x = self.x
            self.x = self.ws.copy(x, want)
            self.ws.give(x)

    def shrink(self, prec: Precision) -> None:
        """rescale in place: payload and scale divided by the same per-group factor."""
        m, limit = self.max_magnitude, prec.max_magnitude
        self.hold(m)
        x = self.x
        q, s = shrink(
            x, self.s, limit, m,
            out=x if x.dtype == np.float64 else None,
            scale_out=self.s, work=self.work,
        )
        self.lo, self.hi = scale_bounds(s, _shrunk_lo(self.lo, m, limit), self.hi)
        if q is not x:  # from 2^53 up the quotient is a fresh int64 array
            self.x = self.ws.copy(q)
            self.ws.give(x)
        self.bound(limit)
        self.precision = prec.p

    def match_last(self) -> None:
        """Collapse the scale along the last axis, as scale_match_dim(t, -1)
        does, with the payload matched in place.

        Matching never grows a magnitude, so the bound carries over, and the
        payload is held by it.  The collapsed scale is a fresh array, which
        results computed from the lane share.  The scratch buffer goes back
        first, to serve as the match's ratio.
        """
        self.ws.give(self.work)
        self.work = None
        d = self.x.ndim - 1
        x, s_bar = match_axis(self.x, self.s, d, match_max(self), self.ws, out=self.x)
        self.ws.give(self.s)
        self.s = s_bar
        if x is not None:
            self.bound(self.m)
        self.hold(self.m)

    def release(self) -> None:
        """Give the payload back after match_last; the lane is not used again."""
        self.ws.give(self.x)

    def seal(self) -> ScaledTensor:
        """The result as a fresh int64 ScaledTensor; every buffer goes back
        and the lane is not used again."""
        out = ScaledTensor(
            IntTensor.adopt(
                self.x.astype(np.int64), self.precision,
                self.m if self.exact else None, bound=self.m,
            ),
            ScaleTensor.derived(self.s.copy(), self.lo, self.hi),
        )
        self.ws.give(self.x, self.s, self.work)
        return out


def protocol_apply(
    kernel,
    ins: list[ScaledTensor | Lane],
    prec: Precision,
    *,
    log: OpAuditLog | None = None,
    module: str = "",
    allow_rescale: bool = True,
    **kwargs,
) -> ScaledTensor | Lane:
    """Run an integer kernel in the wide lane, re-scale on overflow, audit it.

    The kernel returns a fresh ScaledTensor, or the Lane it worked in place;
    both are shrunk by the same rule and audited with the same records.  A
    bound on max|x| within the precision decides "no rescale" alone; past
    it, the exact max decides.
    """
    out = kernel(*ins, **kwargs)
    lane = out if isinstance(out, Lane) else None
    data = out.data if lane is None else lane
    limit = prec.max_magnitude
    rescaled = allow_rescale and data.max_bound > limit and data.max_magnitude > limit
    if rescaled:
        if lane is None:
            out = rescale(out.data, out.scale, prec)
        else:
            lane.shrink(prec)
    if log is not None:
        kind = kernel.kind
        x, s = (out.data.values, out.scale.values) if lane is None else (lane.x, lane.s)
        elements = x.size
        if kind == "matmul" and ins:
            elements *= ins[0].shape[-1]  # multiply-add count, not output count
        log.append(AuditRecord(kind, PAYLOAD, elements, rescaled, module))
        if getattr(kernel, "scale_arith", False):
            log.append(AuditRecord(kind, SCALE, s.size, rescaled, module))
        if rescaled:
            log.append(AuditRecord("rescale", SCALE, s.size, True, module))
    return out


@dataclass
class Session:
    """One inference run: a precision, its single-writer audit log and the
    workspace its lanes take scratch arrays from."""

    precision: Precision = field(default_factory=Precision)
    log: OpAuditLog = field(default_factory=OpAuditLog)
    _workspace: Workspace | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def workspace(self) -> Workspace:
        """Made on first use, so a run with no integer kernel makes none."""
        if self._workspace is None:
            self._workspace = Workspace()
        return self._workspace

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
