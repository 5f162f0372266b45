"""Builders shared by the test modules, and the library code only tests run.

`poly` runs the attention polynomial alone, outside `poly_attention`, and
`canonical_ffn_forward` is the de-quantizing FFN baseline that the purity
proof must catch; no forward calls either.  `report_mse` looks one entry up
in a precision-loss report.
"""
import numpy as np

from intflow import kernels as K
from intflow.analysis import PrecisionReport
from intflow.scaling import Lane, Session, dequantize, init_scale
from intflow.tensor import IntTensor, RationalTensor, ScaledTensor, ScaleTensor
from intflow.transformer import (
    ATTN,
    FFN,
    PolyParams,
    TransformerLayerParams,
    _poly_lane,
    ref_l1ln,
)


def scaled(data, scale, precision=7):
    """A ScaledTensor of int64 payload `data` and float64 scale `scale`."""
    return ScaledTensor(
        IntTensor(np.asarray(data, dtype=np.int64), precision),
        ScaleTensor(np.asarray(scale, dtype=np.float64)),
    )


def report_mse(report: PrecisionReport, module: str, layer: int) -> float:
    """The MSE of `module` at `layer` in `report`; KeyError when it has none."""
    for e in report.entries:
        if e.module == module and e.layer == layer:
            return e.mse
    raise KeyError((module, layer))


def poly(
    scores: ScaledTensor, pp: PolyParams, degree: int, session: Session, module: str = ATTN
) -> ScaledTensor:
    """[ReLU(x + bias)]^degree + |offset| on the integer lane."""
    return _poly_lane(Lane.of(scores, session.workspace), pp, degree, session, module).seal()


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
        t = RationalTensor(values)
        return session.quantize(t, init_scale(t, p), p, FFN)

    r = ref_l1ln(session.dequantize(x, FFN).values, g, b)
    h = session.apply(K.matmul, [requantize(r), lp.w1], FFN, ws=session.workspace).seal()
    r = session.dequantize(h, FFN).values + dequantize(lp.b1).values
    h = session.apply(
        K.matmul, [requantize(np.maximum(r, 0.0)), lp.w2], FFN, ws=session.workspace
    ).seal()
    r = session.dequantize(h, FFN).values + dequantize(lp.b2).values
    r = r + session.dequantize(x, FFN).values
    return requantize(r)
