"""Builders shared by the test modules, and the library code only tests run.

`scaled` builds a tensor from arrays, checked, `viewed` one over views of
another's arrays, and `lane_of` a Lane that copies one; `in_range` and
`count_records` read a tensor and an audit log as the benchmark's gate
does, and `note_setup` logs a model's set-up cost.
`poly` runs the attention polynomial alone, outside `poly_attention`,
`attention` one group of heads' attention as a forward divides it, and
`canonical_ffn_forward` is the de-quantizing FFN baseline that the purity
proof must catch; no forward calls either.
`report_mse` looks one entry up in a precision-loss report.
"""
import numpy as np

from intflow import kernels as K
from intflow.analysis import PrecisionReport
from intflow.audit import SCALE, OpAuditLog
from intflow.scaling import Lane, Session, Workspace, dequantize, init_scale, lane_dtype
from intflow.tensor import ScaledTensor
from intflow.transformer import (
    FFN,
    LAYER_TENSORS,
    MODEL_TENSORS,
    FP32ReferenceModel,
    PolyParams,
    TransformerLayerParams,
    _poly_lane,
    divide_heads,
    poly_attention,
    ref_l1ln,
)


def scaled(data, scale, precision=7):
    """A ScaledTensor of copies of payload `data`, widened to int64, and of
    scale `scale`, in float64: the checked from-arrays constructor.  The
    payload must be integer-typed (a list of ints is); the tensor's own
    constructor then scans both and checks the lane, the precision, the
    scale's values and its broadcast against the payload."""
    x = np.asarray(data)
    if x.dtype.kind not in "iu":
        raise TypeError(f"payload must be integer-typed, got {x.dtype}")
    return ScaledTensor(x.astype(np.int64), np.array(scale, dtype=np.float64), precision)


def viewed(t: ScaledTensor, x: np.ndarray, s: np.ndarray) -> ScaledTensor:
    """A tensor of x and s, views of t's payload and scale, with t's
    precision and bounds, sealed by the result constructor, which checks
    that s broadcasts against x; nothing is copied."""
    return ScaledTensor(x, s, t.precision, t.max_bound, (t.lo, t.hi))


def lane_of(t: ScaledTensor | Lane, ws: Workspace) -> Lane:
    """A Lane holding private copies of the payload and scale of t, a
    ScaledTensor or a Lane, in `ws`: the payload in lane_dtype of t's bound,
    the bounds carried over."""
    m = t.max_bound
    return Lane(ws.copy(t.x, lane_dtype(m)), ws.copy(t.s), t.precision, ws, m, (t.lo, t.hi))


def in_range(t: ScaledTensor) -> bool:
    """True when every payload of t fits its logical precision."""
    return t.max_magnitude <= (1 << t.precision) - 1


def count_records(log: OpAuditLog, kind: str | None = None, lane: str | None = None) -> int:
    """The records of `log` of that kind, or on that lane."""
    return sum(r.kind == kind or r.lane == lane for r in log.records)


def note_setup(session: Session, ref: FP32ReferenceModel) -> None:
    """Log the fixed cost of quantizing `ref` in `session`: a Q() record per
    parameter tensor, tagged with its module, each layer's first."""
    for owner, schema in [(lp, LAYER_TENSORS) for lp in ref.layers] + [(ref, MODEL_TENSORS)]:
        for name, (module, _) in schema.items():
            session.note("quantize", SCALE, getattr(owner, name).size, module)


def report_mse(report: PrecisionReport, module: str, layer: int) -> float:
    """The MSE of `module` at `layer` in `report`; KeyError when it has none."""
    for e in report.entries:
        if e.module == module and e.layer == layer:
            return e.mse
    raise KeyError((module, layer))


def poly(scores: ScaledTensor, pp: PolyParams, degree: int, session: Session) -> ScaledTensor:
    """[ReLU(x + bias)]^degree + |offset| on the integer lane, tagged Attn."""
    return _poly_lane(lane_of(scores, session.workspace), pp, degree, session).seal()


def attention(q, k, v_t, pp: PolyParams, degree: int, d_m: int, session: Session) -> ScaledTensor:
    """poly_attention's value and weight sums of q, k and v_t (V
    transposed), divided (divide_heads) and sealed."""
    return divide_heads(*poly_attention(q, k, v_t, pp, degree, d_m, session), session).seal()


def canonical_ffn_forward(
    x: ScaledTensor, lp: TransformerLayerParams, session: Session
) -> ScaledTensor:
    """The quantize/de-quantize-sandwiched FFN baseline.

    Every FP32 stage de-quantizes its input and the result is re-quantized
    before the next integer GEMM; this is the comparator the integer
    pipeline eliminates.
    """
    p = x.precision
    g, b = dequantize(lp.ln2_g).values, dequantize(lp.ln2_b).values

    def requantize(values: np.ndarray) -> ScaledTensor:
        return session.quantize(values, init_scale(values, p)[0], p, FFN)

    r = ref_l1ln(session.dequantize(x, FFN).values, g, b)
    h = session.apply(K.matmul, [requantize(r), lp.w1], FFN, ws=session.workspace).seal()
    r = session.dequantize(h, FFN).values + dequantize(lp.b1).values
    h = session.apply(
        K.matmul, [requantize(np.maximum(r, 0.0)), lp.w2], FFN, ws=session.workspace
    ).seal()
    r = session.dequantize(h, FFN).values + dequantize(lp.b2).values
    r = r + session.dequantize(x, FFN).values
    return requantize(r)
