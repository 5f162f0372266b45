"""Binary model container for quantized and FP32 transformer weights.

One writer, `serialize(model)`, and one reader, `deserialize(blob)`, cover
both flavours: the writer picks the records from the model's type, and the
reader picks the model class from the header's FLAG_QUANTIZED.  `save_model`
and `load_model` are their file forms.

Layout (all integers little-endian):

    magic   4 bytes  b"SPQ1"
    u16     format version (currently 1)
    u8      precision p
    u8      granularity code (0=row, 2=b; 1, the retired "bt", which
            acted as row, is read as row and never written)
    u8      attention polynomial degree
    u8      flags (bit 0: payloads are quantized int8)
    u32 x6  n_layers, d_m, heads, d_ff, vocab, n_tensors

followed by `n_tensors` records:

    u16     name length, then UTF-8 name
    u8      dtype tag (0 = int8 payload, 1 = float32)
    u8      rank, then rank x u32 dims
    raw     row-major data bytes

Records hold the tensors of transformer.LAYER_TENSORS and MODEL_TENSORS,
named after their fields (`emb`, `layers.0.w_q`, `layers.0.ln1.g`, ...),
plus one `layers.i.poly` record per layer holding (bias, degree, offset),
whose degree must equal the header's.  Every int8 payload record named
NAME is immediately followed by a float32 record NAME + ".scale" holding its
quantization scales.  Weights quantized at p > 7 do not fit an int8 payload
and are rejected.

Records are read in place: each is an array viewing the file's bytes, not a
copy of them.  An int8 payload keeps that read-only view, so a loaded model
holds the file's bytes and little else; a writable blob (a `bytearray`) is
copied record by record, so later writes to it do not reach the model.
"""
from __future__ import annotations

import math
import struct

import numpy as np

from .errors import ValidationError
from .scaling import ScaleGranularity
from .tensor import ScaledTensor, max_abs
from .transformer import (
    LAYER_TENSORS,
    LN,
    MODEL_TENSORS,
    FP32ReferenceModel,
    IntegerTransformerModel,
    ModelConfig,
    PolyParams,
    TransformerLayerParams,
)

MAGIC = b"SPQ1"
VERSION = 1
HEADER = struct.Struct("<4sHBBBB6I")
HEADER_SIZE = HEADER.size
# The header's u32 dims before `n_tensors`, as ModelConfig attribute names.
HEADER_DIMS = ("n_layers", "d_m", "heads", "d_ff", "vocab")

DTYPE_I8 = 0
DTYPE_F32 = 1

FLAG_QUANTIZED = 1

_GRAN_CODES = {
    ScaleGranularity.PER_ROW: 0,
    ScaleGranularity.PER_BATCH: 2,
}
# Code 1 was "bt", which grouped scales exactly as row does.
_GRAN_FROM_CODE = {v: k for k, v in _GRAN_CODES.items()} | {1: ScaleGranularity.PER_ROW}

SCALE_SUFFIX = ".scale"


# The dtype tag of a record and the array type of its data.
_ARRAY_DTYPE = {DTYPE_I8: np.dtype("i1"), DTYPE_F32: np.dtype("<f4")}


def _encode(name: str, dtype: int, arr: np.ndarray) -> tuple[bytes, np.ndarray]:
    """One record: its header (name length, name, dtype tag, rank, dims) and
    its data as a contiguous array of the tag's type."""
    encoded = name.encode("utf-8")
    if len(encoded) > 0xFFFF:
        raise ValidationError(f"tensor name too long: {name!r}")
    data = np.asarray(arr, dtype=_ARRAY_DTYPE[dtype], order="C")
    if dtype == DTYPE_I8 and not np.array_equal(data, arr):
        raise ValidationError("payload does not fit int8")
    head = struct.pack(f"<H{len(encoded)}sBB{arr.ndim}I", len(encoded), encoded, dtype, arr.ndim, *arr.shape)
    return head, data


def _records(blob: bytes):
    """Each record after the header of `blob`: (name, dtype tag, its data as
    an array viewing `blob`, the bytes the record spans).  The views of a
    `bytes` blob are read-only."""
    mv = memoryview(blob)
    pos = HEADER_SIZE

    def skip(n: int, what: str) -> int:
        """The offset of the next `n` bytes, which the file must hold."""
        nonlocal pos
        if pos + n > len(mv):
            raise ValidationError(f"file truncated in {what}")
        pos += n
        return pos - n

    while pos < len(mv):
        start = pos
        (name_len,) = struct.unpack_from("<H", mv, skip(2, "a record header"))
        at = skip(name_len, "a tensor name")
        try:
            name = str(mv[at:at + name_len], "utf-8")
        except UnicodeDecodeError:
            raise ValidationError(f"tensor name at byte {at} is not valid UTF-8") from None
        dtype, rank = struct.unpack_from("<BB", mv, skip(2, f"the header of {name!r}"))
        dims = struct.unpack_from(f"<{rank}I", mv, skip(4 * rank, f"the dims of {name!r}"))
        if dtype not in _ARRAY_DTYPE:
            raise ValidationError(f"unknown dtype tag {dtype} for {name!r}")
        item, count = _ARRAY_DTYPE[dtype], math.prod(dims)
        at = skip(count * item.itemsize, f"the data of {name!r}")
        yield name, dtype, np.frombuffer(mv, item, count, at).reshape(dims), pos - start


_SCHEMA = LAYER_TENSORS | MODEL_TENSORS


def _record_name(field: str) -> str:
    """The record name of a schema field: `embedding` is `emb`, and a layer
    norm's `ln1_g` is `ln1.g`."""
    if field == "embedding":
        return "emb"
    if _SCHEMA[field][0] == LN:
        stem, _, leaf = field.rpartition("_")
        return f"{stem}.{leaf}"
    return field


def _poly_from_array(arr: np.ndarray, degree: int, name: str) -> PolyParams:
    """The (bias, degree, offset) record `name` as PolyParams."""
    if arr.shape != (3,):
        raise ValidationError("polynomial parameter record must have 3 entries")
    if arr[1] != degree:
        raise ValidationError(f"polynomial degree {arr[1]} differs from the header's {degree}")
    if not np.isfinite(arr[[0, 2]]).all():
        raise ValidationError(f"polynomial record {name!r} holds a non-finite bias or offset")
    return PolyParams(bias=float(arr[0]), offset=float(arr[2]))


def serialize(model: IntegerTransformerModel | FP32ReferenceModel) -> bytes:
    """Every tensor of the schema, in file order: as int8 payload records with
    sibling `.scale` records for an IntegerTransformerModel (requires
    p <= 7), as plain float32 records for an FP32ReferenceModel."""
    quantized = isinstance(model, IntegerTransformerModel)
    if not quantized and not isinstance(model, FP32ReferenceModel):
        raise ValidationError(f"cannot serialize {type(model).__name__}: not a model")
    cfg = model.config
    if quantized and cfg.precision > 7:
        raise ValidationError("int8 container requires precision <= 7")
    records: list[tuple[str, int, np.ndarray]] = []

    def put(name: str, value) -> None:
        if quantized:
            records.append((name, DTYPE_I8, value.x))
            records.append((name + SCALE_SUFFIX, DTYPE_F32, value.s))
        else:
            records.append((name, DTYPE_F32, value))

    first, *rest = MODEL_TENSORS  # the embedding, which precedes the layers
    put(_record_name(first), getattr(model, first))
    for i, lp in enumerate(model.layers):
        pre = f"layers.{i}."
        for field in LAYER_TENSORS:
            put(pre + _record_name(field), getattr(lp, field))
        poly = (lp.poly.bias, cfg.degree, lp.poly.offset)
        records.append((pre + "poly", DTYPE_F32, np.array(poly, dtype=np.float64)))
    for field in rest:
        put(_record_name(field), getattr(model, field))

    chunks = [HEADER.pack(
        MAGIC, VERSION, cfg.precision, _GRAN_CODES[cfg.granularity], cfg.degree,
        FLAG_QUANTIZED if quantized else 0,
        *(getattr(cfg, dim) for dim in HEADER_DIMS), len(records),
    )]
    for record in records:
        chunks += _encode(*record)
    return b"".join(chunks)


def _parse(blob: bytes):
    """The header's ModelConfig and quantized flag, and each record by name
    as (dtype tag, data, bytes spanned)."""
    if len(blob) < HEADER_SIZE:
        raise ValidationError("file too short for header")
    magic, version, p, gran_code, degree, flags, *dims, n_tensors = HEADER.unpack_from(blob)
    if magic != MAGIC:
        raise ValidationError("bad magic; not a model file")
    if version != VERSION:
        raise ValidationError(f"unsupported format version {version}")
    if gran_code not in _GRAN_FROM_CODE:
        raise ValidationError(f"unknown granularity code {gran_code}")
    cfg = ModelConfig(
        precision=p,
        granularity=_GRAN_FROM_CODE[gran_code],
        degree=degree,
        **dict(zip(HEADER_DIMS, dims)),
    )
    tensors: dict[str, tuple[int, np.ndarray, int]] = {}
    for name, dtype, arr, size in _records(blob):
        if name in tensors:
            raise ValidationError(f"duplicate tensor {name!r}")
        tensors[name] = (dtype, arr, size)
    if len(tensors) != n_tensors:
        raise ValidationError(
            f"header promises {n_tensors} tensors, file holds {len(tensors)}"
        )
    return cfg, bool(flags & FLAG_QUANTIZED), tensors


def record_sizes(blob: bytes) -> tuple[int, int]:
    """(int8 payload record bytes, float32 scale record bytes) of a container,
    from the one parse that refuses what the loader refuses there."""
    payload = scale = 0
    for name, (dtype, _, size) in _parse(blob)[2].items():
        if dtype == DTYPE_F32 and name.endswith(SCALE_SUFFIX):
            scale += size
        else:
            payload += size  # FP32 side-band params travel with the payloads
    return payload, scale


def _take(tensors: dict, name: str, dtype: int) -> np.ndarray:
    if name not in tensors:
        raise ValidationError(f"missing tensor {name!r}")
    got_dtype, arr, _ = tensors.pop(name)
    if got_dtype != dtype:
        raise ValidationError(f"tensor {name!r} has the wrong dtype")
    return arr


def _take_scaled(tensors: dict, name: str, precision: int) -> ScaledTensor:
    """A payload record and its scale sibling; the payload keeps the
    record's read-only int8 array when the precision's container is int8."""
    payload = _take(tensors, name, DTYPE_I8)
    scale = _take(tensors, name + SCALE_SUFFIX, DTYPE_F32).astype(np.float64)
    # max_abs works in Python ints: np.abs of int8 -128 is -128.
    m = max_abs(payload)
    if m > (1 << precision) - 1:
        raise ValidationError(f"tensor {name!r} exceeds the declared precision")
    return ScaledTensor.param(payload, scale, precision, m)


# A corrupt float32 record can hold a signaling NaN, whose cast to float64
# would warn; the scale and polynomial checks refuse every NaN with exit 2,
# and quantizing refuses one in an FP32 weight.
@np.errstate(invalid="ignore")
def deserialize(blob: bytes) -> IntegerTransformerModel | FP32ReferenceModel:
    """The model a container holds: an IntegerTransformerModel when the
    header's FLAG_QUANTIZED is set, else an FP32ReferenceModel."""
    cfg, quantized, tensors = _parse(blob)

    def take(field: str, prefix: str = ""):
        name = prefix + _record_name(field)
        if quantized:
            value = _take_scaled(tensors, name, cfg.precision)
        else:
            # A float32 copy: aligned, and the model's own whatever the blob.
            value = _take(tensors, name, DTYPE_F32).astype(np.float32)
        shape = tuple(getattr(cfg, dim) for dim in _SCHEMA[field][1])
        if value.shape != shape:
            raise ValidationError(f"tensor {name!r} has shape {value.shape}, not {shape}")
        return value

    layers = []
    for i in range(cfg.n_layers):
        pre = f"layers.{i}."
        fields = {field: take(field, pre) for field in LAYER_TENSORS}
        name = pre + "poly"
        poly = _poly_from_array(_take(tensors, name, DTYPE_F32), cfg.degree, name)
        layers.append(TransformerLayerParams(poly=poly, **fields))
    fields = {field: take(field) for field in MODEL_TENSORS}
    if tensors:
        raise ValidationError(f"unexpected tensors: {sorted(tensors)}")
    model_cls = IntegerTransformerModel if quantized else FP32ReferenceModel
    return model_cls(config=cfg, layers=tuple(layers), **fields)


def save_model(path: str, model: IntegerTransformerModel | FP32ReferenceModel) -> None:
    """serialize(model), written to `path`."""
    blob = serialize(model)
    with open(path, "wb") as fh:
        fh.write(blob)


def load_model(path: str) -> IntegerTransformerModel | FP32ReferenceModel:
    """deserialize() of the file at `path`."""
    with open(path, "rb") as fh:
        return deserialize(fh.read())
