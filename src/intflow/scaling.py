"""The quantization calculus: scale init, (de-)quantize, matching, re-scaling.

Every integer op runs through :func:`protocol_apply`, which executes the
kernel in the wide lane, shrinks the Lane it returns back to the logical
precision in place when it overflows (:func:`rescale`, the one shrink), and
appends an audit record.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .audit import FP32, PAYLOAD, SCALE, AuditRecord, OpAuditLog
from .errors import LaneOverflowError, PrecisionError, ShapeError, ValidationError, WorkspaceError
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
    # 2^p - 1, the largest payload magnitude.
    max_magnitude: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 2 <= self.p <= 15:
            raise ValidationError(f"precision {self.p} outside [2, 15]")
        object.__setattr__(self, "max_magnitude", (1 << self.p) - 1)


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


# Every integer of magnitude up to 2^53 is exactly a float64, and every one
# up to 2^24 exactly a float32.
FLOAT64_EXACT = 2**53
FLOAT32_EXACT = 2**24


def lane_dtype(bound: int, x: np.ndarray | None = None) -> type:
    """The dtype of payloads with max|x| <= bound: float64 where that is exact
    (below 2^53) and x, a payload the result comes from, is float64 too;
    else int64."""
    return np.float64 if bound < FLOAT64_EXACT and (x is None or x.dtype == np.float64) else np.int64


def gemm_dtype(bound: int) -> type:
    """The arithmetic type of a GEMM whose products and partial sums are
    bounded by `bound`: float32 below 2^24, float64 below 2^53, else int64.
    Each tier is exact: every partial sum is an integer it holds.  Only the
    GEMM runs in float32; its product lands in a lane_dtype(bound) lane."""
    return np.float32 if bound < FLOAT32_EXACT else lane_dtype(bound)


def trunc_div(x: np.ndarray, k: np.ndarray, *, x_max: int | None = None, out=None) -> np.ndarray:
    """Integer division truncating toward zero, the one division of payloads;
    k, int64 or float64, holds integers of at least 1 (kernels.int_div checks).

    Below 2^53 this is trunc(float64(x) / k), which is exact: for
    |x| < 2^53 and 0 < k <= 2^53, fl(x/k) is off from x/k by less than
    |x/k| * 2^-53 < 1/k, while x/k lies at least 1/k from every integer it
    is not equal to, so the rounded quotient never reaches the next integer.
    A k above 2^53 rounds to at least 2^53 > |x|, so the quotient truncates
    to 0, exactly.  From 2^53 up the quotient is taken in int64.

    A caller that knows a bound on max|x| passes it as `x_max`, which
    spares a scan of the numerator: both routes are exact, so a bound
    chooses between them as well as the exact max does.  The quotient goes
    to `out` (int64, or float64 below 2^53), else to a fresh int64 array.
    """
    x = np.asarray(x)
    if x_max is None:
        x_max = max_abs(x)
    if x_max < FLOAT64_EXACT:
        # Written straight to int64 the cast truncates toward zero; float64 is truncated after.
        if out is None:
            out = np.empty(np.broadcast_shapes(x.shape, np.shape(k)), np.int64)
        q = np.true_divide(x, k, out=out, casting="unsafe")
        return q if q.dtype == np.int64 else np.trunc(q, out=q)
    # A float64 k, a lane's payload below 2^53, is read exactly by the int64 loop.
    floor = np.floor_divide(np.abs(x), k, dtype=np.int64, casting="unsafe")
    return np.multiply(np.sign(x), floor, out=out, casting="unsafe")


# Largest finite float32: the ceiling of every scale init_scale returns.
SCALE_MAX = float(np.finfo(np.float32).max)


def init_scale(
    r: RationalTensor | np.ndarray,
    g: ScaleGranularity = ScaleGranularity.PER_ROW,
    prec: Precision = Precision(),
) -> ScaleTensor:
    """Per-group scale (2^p - 1) / max(|r|), at most SCALE_MAX.  `r` may also
    be a float array of finite values (a float32 one, say), whose group
    maxima widen exactly to float64, so the scale is the same.

    Groups so small that the scale would overflow float32 (max|r| below
    (2^p - 1) / SCALE_MAX, about 3.7e-37 at p=7) get SCALE_MAX, and so do
    all-zero groups: their payloads are 0, and the largest scale means that
    matching never lowers a partner's scale to theirs.  A subnormal scale
    (below 2^-126) that rounding raised past the limit steps down one float32.
    """
    values = r.values if isinstance(r, RationalTensor) else r
    axes = g.reduce_axes(values.ndim)
    m = np.max(np.abs(values), axis=axes, keepdims=True) if values.size else np.abs(values)
    m = m.astype(np.float64, copy=False)
    limit = float(prec.max_magnitude)
    with np.errstate(over="ignore"):
        s = limit / np.maximum(m, np.finfo(np.float64).tiny)
    s = _round_to_f32(np.minimum(s, SCALE_MAX))
    if s.min(initial=SCALE_MAX) < 2.0**-126:
        s = np.where(np.rint(m * s) > limit, np.nextafter(s.astype(np.float32), np.float32(0)), s)
    return ScaleTensor(s)


def quantize_into(r: np.ndarray, s: np.ndarray, out: np.ndarray) -> int:
    """round(s * r), half to even, into the float64 array `out`; returns max|x|."""
    np.multiply(r, s, out=out)
    np.rint(out, out=out)
    # Every x is now a float64 integer, so these scans give the payload's exact max|x|.
    if not out.size:
        m = 0
    elif np.ndim(r) == 0:
        # One constant: with s > 0 every x has its sign, or is zero, so one reduction does.
        m = int(np.maximum.reduce(out, None)) if r >= 0 else -int(np.minimum.reduce(out, None))
    else:
        m = int(max(np.maximum.reduce(out, None), -np.minimum.reduce(out, None)))
    if m >= LANE_MAX:
        raise LaneOverflowError("quantized payload exceeds accumulator lane")
    return m


def quantize(r: RationalTensor | np.ndarray, s: ScaleTensor, precision: int = DEFAULT_PRECISION) -> ScaledTensor:
    """x = round(s * r), half to even; the result carries s.  As in
    init_scale, `r` may be a float array of finite values, widened exactly."""
    values = r.values if isinstance(r, RationalTensor) else r
    x = np.empty(values.shape)
    m = quantize_into(values, s.values, x)
    return ScaledTensor(IntTensor.adopt(x.astype(np.int64), precision, known_max=m), s)


def dequantize(t: ScaledTensor) -> RationalTensor:
    """r' = x / s elementwise."""
    return RationalTensor(t.data.values / t.scale.values)


class Workspace:
    """Scratch arrays of one Session, handed out by shape and dtype and taken back.

    Only for arrays that never leave a call: a Lane's payload, scale and
    scratch buffers, and the ratio buffers of the matches it makes.  A
    payload or scale that leaves in an IntTensor or a ScaleTensor is never
    handed out again.  The heads, FFNs and output projection of a forward share
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
        """Take arrays back, none read-only; the caller keeps no reference to them."""
        for a in arrays:
            if not a.flags.writeable:
                raise WorkspaceError("a read-only array cannot go back to the workspace")
            self._free.setdefault((a.shape, a.dtype.type), []).append(a)


# Below 2^22, |x| * fl(s_bar / s) is off from the exact quotient by less than
# 2^22 * 2^-52 < 1e-9, so adding 1e-9 before the floor recovers every exact
# integer.  Matching refuses payloads from 2^22 up: a forward's are p-bit.
MATCH_FLOAT_MAX = 2**22


def _match_payload(
    x: np.ndarray,
    s: np.ndarray,
    s_bar: np.ndarray,
    held: IntTensor | Lane,
    ws: Workspace | None = None,
    out: np.ndarray | None = None,
    nonneg: bool = False,
) -> np.ndarray:
    """Move payload x from scale s down to s_bar <= s, truncating toward
    zero: the one function that does.  `held`, an IntTensor or a Lane, holds
    the bounds of x, its payload or a view of it.

    |x'| <= |x| always holds, so matching cannot overflow; the de-quantized
    value moves by less than 1/s_bar per element.  The result is the exact
    quotient, except that one within about 2e-9 below an integer is rounded
    up to it.  A payload whose bound and exact max both reach
    MATCH_FLOAT_MAX is refused with a PrecisionError.  x is int64, or
    float64 holding integers; the result goes to `out`, which may be x
    itself or of a shape x broadcasts to, else to a fresh int64 array.  The
    ratio buffer comes from `ws` when given.

    `nonneg` says that x has no negative value, so the match takes neither
    |x| nor x's sign: the result is the same integers, bit for bit, except
    that a -0.0 in x comes out as +0.0.
    """
    if held.max_bound >= MATCH_FLOAT_MAX and held.max_magnitude >= MATCH_FLOAT_MAX:
        raise PrecisionError(f"payload max {held.max_magnitude} is not below {MATCH_FLOAT_MAX}")
    # |x| * (s_bar / s), formed as |(s_bar / s) * x|: float rounding is
    # symmetric in sign, so the bits are the same, with one buffer: `out`
    # itself when it is float64 and not x.
    shape = x.shape if out is None else out.shape
    own = out is not None and out is not x and out.dtype == np.float64
    ratio = out if own else (np.empty(shape) if ws is None else ws.take(shape))
    np.divide(s_bar, s, out=ratio)
    if nonneg and out is not None and out.dtype == np.float64:
        # No sign to restore from x, so the product may overwrite x itself.
        q = np.multiply(ratio, x, out=out)
    else:
        q = np.multiply(ratio, x, out=ratio)
        if not nonneg:
            np.abs(q, out=q)
    # Guard against float noise flipping an exactly-integer quotient downward.
    q += 1e-9
    np.floor(q, out=q)
    if out is None:
        out = np.empty(x.shape, np.int64)
    if not nonneg:
        np.copysign(q, x, out=out, casting="unsafe")
    elif q is not out:
        np.copyto(out, q, casting="unsafe")
    if ws is not None and ratio is not out:
        ws.give(ratio)
    return out


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
        x = _match_payload(t.data.values, s, s_bar, t.data)
        # Matching never grows a magnitude, so the bound carries over.
        out.append(ScaledTensor(IntTensor.adopt(x, prec, bound=t.data.max_bound), unified))
    return out


def scale_match_dim(t: ScaledTensor, d: int) -> ScaledTensor:
    """Collapse the scale to 1 along axis d by matching slices to the min scale."""
    rank = len(t.shape)
    if not -rank <= d < rank:
        raise ShapeError(f"axis {d} out of range for rank {rank}")
    d = d % rank
    if t.scale.shape[d] == 1:
        return t
    s = t.scale.values
    s_bar = np.minimum.reduce(s, axis=d, keepdims=True)
    x = _match_payload(t.data.values, s, s_bar, t.data)
    # |x'| <= |x|, and each minimum is one of the values: the bounds carry over.
    data = IntTensor.adopt(x, t.precision, bound=t.data.max_bound)
    return ScaledTensor(data, ScaleTensor.derived(s_bar, t.scale.lo, t.scale.hi))


def _shrunk_lo(lo: float, x_max: int, limit: int) -> float:
    """A lower bound on the scales rescale makes from scales >= lo: no group's
    divisor exceeds ceil(x_max / limit), and float division is monotone."""
    return lo / max(-(-x_max // limit), 1)


def _operand(t: ScaledTensor | Lane) -> tuple[np.ndarray, np.ndarray, IntTensor | Lane, float, float]:
    """(x, s, m, lo, hi) of a ScaledTensor or a Lane: payload, scale, the
    holder of the payload's bounds (max_bound, max_magnitude) and the
    scale's bounds."""
    if isinstance(t, Lane):
        return t.x, t.s, t, t.lo, t.hi
    return t.data.values, t.scale.values, t.data, t.scale.lo, t.scale.hi


class Lane:
    """A kernel result worked in place: one payload buffer and one scale buffer.

    Every kernel that runs through `protocol_apply` returns a Lane, which
    the protocol shrinks in place (`rescale`) and audits.  The payload x
    holds exact integers: in float64 only while a step's bound on max|x| is
    below 2^53 (`matmul` and `hold` choose it there, other steps keep it),
    else in int64, the rule of `trunc_div` too.  `max_bound`, a plain
    attribute, bounds max|x|, and is max|x| itself while `exact` holds; a
    step that needs the exact max reads `max_magnitude`, which scans once.
    `nonneg` holds only while no payload is known to be negative (after
    ReLU, say); each step that may make one negative clears it.  `lo` and
    `hi` bound the scale's values, and each step that makes scales checks
    them as ScaleTensor.derived does.

    `blocks` is the number of row blocks the lane stacks, each its own
    head's rows (a grouped matmul's product and what is worked from it in
    place); the audit counts a shrink per block (`shrunk_elements`).

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
        blocks: int = 1,
    ):
        """`m`, when given, is a bound on max|x| (`max_bound`), else max|x|
        is scanned; `scale_range` likewise bounds the scale, else it is
        scanned."""
        self.precision, self.ws, self.x, self.s, self.work = precision, ws, x, s, None
        self.blocks = blocks
        self.put(x, s, m, scale_range)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.x.shape

    def scratch(self) -> np.ndarray:
        """`work`, float64 scratch of the payload's shape, taken on first use."""
        if self.work is None:
            self.work = self.ws.take(self.x.shape)
        return self.work

    @property
    def max_magnitude(self) -> int:
        """max|x|, exactly: scanned when only a bound is known."""
        if not self.exact:
            self.max_bound = max_abs(self.x)
            self.exact = True
        return self.max_bound

    def bound(self, m: int, nonneg: bool = False) -> None:
        """Record a new bound on max|x| after a step that moved the payload,
        and whether that step leaves no payload negative."""
        self.max_bound = m
        self.exact = False
        self.nonneg = nonneg

    def check_fit(self) -> None:
        """check_lane on the bound, deciding by the exact max when the bound trips."""
        if self.max_bound >= LANE_MAX:
            check_lane(self.max_magnitude)

    @classmethod
    def of(cls, t: ScaledTensor | Lane, ws: Workspace) -> Lane:
        """A private copy of the payload and scale of t, a ScaledTensor or a Lane."""
        x, s, m, lo, hi = _operand(t)
        return cls(ws.copy(x, lane_dtype(m.max_bound)), ws.copy(s), t.precision, ws, m.max_bound, (lo, hi))

    def put(self, x: np.ndarray, s: np.ndarray, m: int | None, scale_range: tuple | None) -> None:
        """Hold payload x and scale s, bounded as in __init__; the buffers they
        replace go back to the workspace, and the scratch if its shape does."""
        for old, new in ((self.x, x), (self.s, s)):
            if old is not new:
                self.ws.give(old)
        if self.work is not None and self.work.shape != x.shape:
            self.spare()
        self.x, self.s, self.exact, self.nonneg = x, s, m is None, False
        self.max_bound = max_abs(x) if m is None else m
        self.check_fit()
        self.lo, self.hi = check_scale(s) if scale_range is None else scale_bounds(s, *scale_range)

    def spare(self) -> None:
        """Give the scratch back, so that a step's own buffers can reuse it."""
        if self.work is not None:
            self.ws.give(self.work)
            self.work = None

    def hold(self, bound: int) -> None:
        """Hold x in float64 while `bound` is below 2^53, in int64 from there up."""
        want = lane_dtype(bound)
        if self.x.dtype != want:
            x = self.x
            self.x = self.ws.copy(x, want)
            self.ws.give(x)

    def match_last(self) -> None:
        """Collapse the scale along the last axis, as scale_match_dim(t, -1)
        does, with the payload matched in place.

        Matching never grows a magnitude or flips a sign, so the bound and
        `nonneg` carry over, and the payload is held by the bound.  The
        scratch goes back first, to serve as the match's ratio.
        """
        self.spare()
        s_bar = np.minimum.reduce(self.s, axis=-1, keepdims=True, out=self.ws.take(self.s.shape[:-1] + (1,)))
        _match_payload(self.x, self.s, s_bar, self, self.ws, self.x, self.nonneg)
        self.ws.give(self.s)
        self.s = s_bar
        self.bound(self.max_bound, self.nonneg)
        self.hold(self.max_bound)

    def release(self) -> None:
        """Give every buffer back; the lane is not used again."""
        self.spare()
        self.ws.give(self.x, self.s)

    def seal(self) -> ScaledTensor:
        """The result as an int64 ScaledTensor, and the lane is not used
        again: an int64 payload leaves the workspace in the result, a float64
        one is copied out; every other buffer goes back."""
        x = self.x if self.x.dtype == np.int64 else self.x.astype(np.int64)
        out = ScaledTensor(
            IntTensor.adopt(x, self.precision, self.max_bound if self.exact else None, bound=self.max_bound),
            ScaleTensor.derived(self.s.copy(), self.lo, self.hi),
        )
        self.spare()
        self.ws.give(self.s)
        if x is not self.x:
            self.ws.give(self.x)
        return out


def extremes(lane: Lane) -> tuple[tuple[int, ...], np.ndarray, np.ndarray]:
    """The pass that decides a shrink: (axes, hi, lo), the payload's max and
    min over each scale group, one reduction each.

    The groups span `axes`, those the scale collapses, so hi and lo have the
    scale's shape; a per-element scale (no axes) gets the max and min of
    each of the lane's row blocks instead, the whole payload when it has
    one.  Records on the lane its exact max|x| (`max_bound`) and whether no
    payload is negative (`nonneg`).
    """
    x, s = lane.x, lane.s
    axes = tuple(a for a in range(x.ndim) if s.shape[a] == 1 and x.shape[a] > 1)
    if not x.size:
        lane.max_bound, lane.exact = 0, True
        return axes, x, x
    if axes:
        hi = np.maximum.reduce(x, axis=axes, keepdims=True)
        lo = np.minimum.reduce(x, axis=axes, keepdims=True)
        top, bottom = np.maximum.reduce(hi, None), np.minimum.reduce(lo, None)
    elif lane.blocks > 1:  # Lane buffers are C-contiguous: a block is a row of the view.
        rows = x.reshape(lane.blocks, -1)
        hi, lo = np.maximum.reduce(rows, axis=1), np.minimum.reduce(rows, axis=1)
        top, bottom = max(hi.tolist()), min(lo.tolist())
    else:
        hi = top = np.maximum.reduce(x, None)
        lo = bottom = np.minimum.reduce(x, None)
    lane.max_bound, lane.exact, lane.nonneg = max(int(top), -int(bottom)), True, bool(bottom >= 0)
    return axes, hi, lo


def rescale(lane: Lane, prec: Precision, groups: tuple | None = None) -> Lane:
    """Shrink the lane's payload to p bits in place, and return the lane:
    payload and scale divided by ceil(max|x| / (2^p - 1)), at least 1, per
    scale group, formed in float64 below 2^53 and in int64 from there up;
    the payload divides through trunc_div.  A scale divided by at least 1
    keeps its upper bound.

    `groups` is what `extremes` returned for the lane as it stands; without
    it that pass runs here.  The divisor comes from it: max(hi, -lo) per
    group, and for a per-element scale |x|, which is x itself when no
    payload is negative."""
    lane.precision = prec.p
    x, s = lane.x, lane.s
    if not x.size:
        return lane
    axes, hi, lo = extremes(lane) if groups is None else groups
    m, limit = lane.max_bound, prec.max_magnitude
    if m >= FLOAT64_EXACT:
        d = np.maximum(hi, -lo) if axes else np.abs(x)
        d = np.maximum(-(-d // limit), 1)
    else:
        if axes:
            d = np.maximum(hi, -lo).astype(np.float64, copy=False)
            d /= limit
        elif lane.nonneg:
            d = np.divide(x, limit, out=lane.scratch())
        else:
            d = np.abs(x, out=lane.scratch())
            d /= limit
        np.ceil(d, out=d)
        np.maximum(d, 1.0, out=d)
    trunc_div(x, d, x_max=m, out=x)
    np.divide(s, d, out=s)
    lane.lo, lane.hi = scale_bounds(s, _shrunk_lo(lane.lo, m, limit), lane.hi)
    # A positive divisor, truncating toward zero, makes no payload negative.
    lane.bound(limit, lane.nonneg)
    return lane


def shrunk_elements(lane: Lane, groups: tuple, limit: int) -> int:
    """The scale elements a shrink of `lane` moves, counted per row block
    (head) as that block's lone run would count them: all of a block whose
    max|x| passes `limit`, none of one that keeps its bits.  `groups` is
    what `extremes` returned for the lane before the shrink: a max and min
    per block, or per scale group, whose rows the blocks split."""
    _, hi, lo = groups
    if hi.ndim > 1:
        hi = np.maximum.reduce(hi.reshape(lane.blocks, -1), axis=1)
        lo = np.minimum.reduce(lo.reshape(lane.blocks, -1), axis=1)
    moved = sum([max(a, -b) > limit for a, b in zip(hi.tolist(), lo.tolist())])
    return lane.s.size // lane.blocks * moved


def protocol_apply(
    kernel,
    ins: list[ScaledTensor | Lane],
    prec: Precision,
    *,
    log: OpAuditLog | None = None,
    module: str = "",
    allow_rescale: bool = True,
    **kwargs,
) -> Lane:
    """Run an integer kernel in the wide lane, re-scale on overflow, audit it.

    The kernel returns the Lane it worked in; anything else is refused with
    a TypeError.  A bound on max|x| within the precision decides "no
    rescale" alone; past it, the exact max decides, read from the group
    maxima and minima of `extremes`, and `rescale` shrinks the lane in place
    with its divisor taken from those same reductions.
    """
    lane = kernel(*ins, **kwargs)
    if not isinstance(lane, Lane):
        raise TypeError(f"kernel {kernel.__name__} returned {type(lane).__name__}, not a Lane")
    limit = prec.max_magnitude
    rescaled = False
    if allow_rescale and lane.max_bound > limit:
        groups = extremes(lane)
        rescaled = lane.max_bound > limit
        if rescaled:
            shrunk = lane.s.size if lane.blocks == 1 else shrunk_elements(lane, groups, limit)
            rescale(lane, prec, groups)
    if log is not None:
        kind = kernel.kind
        elements = lane.x.size
        if kind == "matmul" and ins:
            elements *= ins[0].shape[-1]  # multiply-add count, not output count
        records = log.records
        records.append(AuditRecord(kind, PAYLOAD, elements, rescaled, module))
        if getattr(kernel, "scale_arith", False):
            records.append(AuditRecord(kind, SCALE, lane.s.size, rescaled, module))
        if rescaled:
            records.append(AuditRecord("rescale", SCALE, shrunk, True, module))
    return lane


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

    def apply(self, kernel, ins, module: str = "", **kwargs) -> Lane:
        return protocol_apply(
            kernel, ins, self.precision, log=self.log, module=module, **kwargs
        )

    def note(self, kind: str, lane: str, elements: int, module: str = "") -> None:
        self.log.records.append(AuditRecord(kind, lane, elements, False, module))

    def quantize(
        self, r: RationalTensor | np.ndarray, s: ScaleTensor, module: str = ""
    ) -> ScaledTensor:
        """Quantize through the session so the Q() shows up in the audit log."""
        out = quantize(r, s, self.precision.p)
        self.note("quantize", SCALE, out.data.values.size, module)
        return out

    def dequantize(self, t: ScaledTensor, module: str = "") -> RationalTensor:
        """De-quantize through the session, so the exit shows up in the audit
        log: the canonical baseline's, a hybrid forward's and `infer`'s."""
        out = dequantize(t)
        self.note("dequantize", FP32, t.data.values.size, module)
        return out
