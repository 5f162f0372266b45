"""Integer-only transformer inference with propagated quantization scales."""

from .audit import FP32, PAYLOAD, SCALE, AuditRecord, OpAuditLog
from .errors import (
    IntflowError,
    LaneOverflowError,
    PrecisionError,
    ScaleRangeError,
    ShapeError,
    ValidationError,
)
from .scaling import (
    Precision,
    ScaleGranularity,
    Session,
    dequantize,
    init_scale,
    protocol_apply,
    quantize,
    rescale,
    scale_match,
    scale_match_dim,
)
from .tensor import (
    LANE_MAX,
    RationalTensor,
    ScaledTensor,
    transpose,
)
from .kernels import concat
from .transformer import (
    FP32ReferenceModel,
    IntegerTransformerModel,
    ModelConfig,
    PolyParams,
    TransformerLayerParams,
    forward,
    quantize_model,
    random_reference_model,
    reference_forward,
    reference_twin,
)

__version__ = "0.1.0"

__all__ = [
    "AuditRecord",
    "FP32",
    "FP32ReferenceModel",
    "IntegerTransformerModel",
    "IntflowError",
    "LANE_MAX",
    "LaneOverflowError",
    "ModelConfig",
    "OpAuditLog",
    "PAYLOAD",
    "PolyParams",
    "Precision",
    "PrecisionError",
    "RationalTensor",
    "SCALE",
    "ScaleGranularity",
    "ScaleRangeError",
    "ScaledTensor",
    "Session",
    "ShapeError",
    "TransformerLayerParams",
    "ValidationError",
    "concat",
    "dequantize",
    "forward",
    "init_scale",
    "protocol_apply",
    "quantize",
    "quantize_model",
    "random_reference_model",
    "reference_forward",
    "reference_twin",
    "rescale",
    "scale_match",
    "scale_match_dim",
    "transpose",
]
