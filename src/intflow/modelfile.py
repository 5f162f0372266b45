"""Binary model container for quantized and FP32 transformer weights.

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

Every int8 payload record named NAME is immediately followed by a float32
record NAME + ".scale" holding its quantization scales.  Weights quantized
at p > 7 do not fit an int8 payload and are rejected.
"""
from __future__ import annotations

import io
import struct

import numpy as np

from .errors import ValidationError
from .scaling import ScaleGranularity
from .tensor import IntTensor, ScaledTensor, ScaleTensor
from .transformer import (
    FP32LayerParams,
    FP32ReferenceModel,
    IntegerTransformerModel,
    L1LNParams,
    ModelConfig,
    PolyParams,
    TransformerLayerParams,
)

MAGIC = b"SPQ1"
VERSION = 1
HEADER = struct.Struct("<4sHBBBB6I")
HEADER_SIZE = HEADER.size

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


def _write_record(buf: io.BytesIO, name: str, dtype: int, arr: np.ndarray) -> None:
    encoded = name.encode("utf-8")
    if len(encoded) > 0xFFFF:
        raise ValidationError(f"tensor name too long: {name!r}")
    buf.write(struct.pack("<H", len(encoded)))
    buf.write(encoded)
    buf.write(struct.pack("<BB", dtype, arr.ndim))
    buf.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
    if dtype == DTYPE_I8:
        out = arr.astype(np.int8)
        if not np.array_equal(out.astype(np.int64), arr):
            raise ValidationError("payload does not fit int8")
    else:
        out = arr.astype(np.float32)
    buf.write(np.ascontiguousarray(out).tobytes())


def _read_exact(buf: io.BytesIO, n: int, what: str) -> bytes:
    data = buf.read(n)
    if len(data) != n:
        raise ValidationError(f"file truncated in {what}")
    return data


def _read_record(buf: io.BytesIO) -> tuple[str, int, np.ndarray] | None:
    head = buf.read(2)
    if not head:
        return None
    if len(head) != 2:
        raise ValidationError("file truncated in a record header")
    (name_len,) = struct.unpack("<H", head)
    name = _read_exact(buf, name_len, "a tensor name").decode("utf-8")
    dtype, rank = struct.unpack("<BB", _read_exact(buf, 2, f"the header of {name!r}"))
    dims = struct.unpack(f"<{rank}I", _read_exact(buf, 4 * rank, f"the dims of {name!r}"))
    if dtype == DTYPE_I8:
        np_dtype, item = np.int8, 1
    elif dtype == DTYPE_F32:
        np_dtype, item = np.float32, 4
    else:
        raise ValidationError(f"unknown dtype tag {dtype} for {name!r}")
    count = int(np.prod(dims, dtype=np.int64)) if dims else 1
    raw = _read_exact(buf, count * item, f"the data of {name!r}")
    arr = np.frombuffer(raw, dtype=np_dtype).reshape(dims)
    return name, dtype, arr


def _record_size(name: str, dtype: int, arr: np.ndarray) -> int:
    item = 1 if dtype == DTYPE_I8 else 4
    return 2 + len(name.encode("utf-8")) + 2 + 4 * arr.ndim + arr.size * item


def _iter_named_params():
    """Name templates shared by the int and FP32 serializers."""
    return (
        ("w_q", "w_k", "w_v", "w_o", "w1", "b1", "w2", "b2"),
        ("ln1", "ln2"),
    )


def _header_bytes(cfg: ModelConfig, n_tensors: int, quantized: bool) -> bytes:
    return HEADER.pack(
        MAGIC,
        VERSION,
        cfg.precision,
        _GRAN_CODES[cfg.granularity],
        cfg.degree,
        FLAG_QUANTIZED if quantized else 0,
        cfg.n_layers,
        cfg.d_m,
        cfg.heads,
        cfg.d_ff,
        cfg.vocab,
        n_tensors,
    )


def _poly_array(pp: PolyParams) -> np.ndarray:
    return np.array([pp.bias, float(pp.degree), pp.offset], dtype=np.float64)


def _poly_from_array(arr: np.ndarray) -> PolyParams:
    if arr.shape != (3,):
        raise ValidationError("polynomial parameter record must have 3 entries")
    return PolyParams(
        bias=float(arr[0]), degree=int(round(float(arr[1]))), offset=float(arr[2])
    )


def serialize_int_model(model: IntegerTransformerModel) -> bytes:
    """Int8 payloads with sibling `.scale` records; requires p <= 7."""
    if model.config.precision > 7:
        raise ValidationError("int8 container requires precision <= 7")
    mats, lns = _iter_named_params()
    records: list[tuple[str, int, np.ndarray]] = []

    def scaled(name: str, t: ScaledTensor) -> None:
        records.append((name, DTYPE_I8, t.data.values))
        records.append((name + SCALE_SUFFIX, DTYPE_F32, t.scale.values))

    scaled("emb", model.embedding)
    for i, lp in enumerate(model.layers):
        pre = f"layers.{i}."
        for m in mats:
            scaled(pre + m, getattr(lp, m))
        for ln in lns:
            scaled(pre + ln + ".g", getattr(lp, ln + "_g"))
            scaled(pre + ln + ".b", getattr(lp, ln + "_b"))
        records.append((pre + "poly", DTYPE_F32, _poly_array(lp.poly)))
    scaled("final_ln.g", model.final_ln_g)
    scaled("final_ln.b", model.final_ln_b)
    scaled("proj", model.proj)

    buf = io.BytesIO()
    buf.write(_header_bytes(model.config, len(records), quantized=True))
    for name, dtype, arr in records:
        _write_record(buf, name, dtype, arr)
    return buf.getvalue()


def serialize_reference_model(ref: FP32ReferenceModel) -> bytes:
    """Plain float32 records, one per parameter tensor."""
    mats, lns = _iter_named_params()
    records: list[tuple[str, np.ndarray]] = [("emb", ref.embedding)]
    for i, lp in enumerate(ref.layers):
        pre = f"layers.{i}."
        for m in mats:
            records.append((pre + m, getattr(lp, m)))
        for ln in lns:
            records.append((pre + ln + ".g", getattr(lp, ln).gain))
            records.append((pre + ln + ".b", getattr(lp, ln).bias))
        records.append((pre + "poly", _poly_array(lp.poly)))
    records.append(("final_ln.g", ref.final_ln.gain))
    records.append(("final_ln.b", ref.final_ln.bias))
    records.append(("proj", ref.proj))

    buf = io.BytesIO()
    buf.write(_header_bytes(ref.config, len(records), quantized=False))
    for name, arr in records:
        _write_record(buf, name, DTYPE_F32, arr)
    return buf.getvalue()


def _parse(blob: bytes):
    if len(blob) < HEADER_SIZE:
        raise ValidationError("file too short for header")
    magic, version, p, gran_code, degree, flags, n_layers, d_m, heads, d_ff, vocab, n_tensors = HEADER.unpack(
        blob[:HEADER_SIZE]
    )
    if magic != MAGIC:
        raise ValidationError("bad magic; not a model file")
    if version != VERSION:
        raise ValidationError(f"unsupported format version {version}")
    if gran_code not in _GRAN_FROM_CODE:
        raise ValidationError(f"unknown granularity code {gran_code}")
    cfg = ModelConfig(
        d_m=d_m,
        heads=heads,
        d_ff=d_ff,
        n_layers=n_layers,
        vocab=vocab,
        precision=p,
        granularity=_GRAN_FROM_CODE[gran_code],
        degree=degree,
    )
    buf = io.BytesIO(blob[HEADER_SIZE:])
    tensors: dict[str, tuple[int, np.ndarray]] = {}
    while True:
        rec = _read_record(buf)
        if rec is None:
            break
        name, dtype, arr = rec
        if name in tensors:
            raise ValidationError(f"duplicate tensor {name!r}")
        tensors[name] = (dtype, arr)
    if len(tensors) != n_tensors:
        raise ValidationError(
            f"header promises {n_tensors} tensors, file holds {len(tensors)}"
        )
    return cfg, bool(flags & FLAG_QUANTIZED), tensors


def record_sizes(blob: bytes) -> tuple[int, int]:
    """(int8 payload record bytes, float32 scale record bytes) of a container."""
    _, _, tensors = _parse(blob)
    payload = scale = 0
    for name, (dtype, arr) in tensors.items():
        size = _record_size(name, dtype, arr)
        if dtype == DTYPE_I8:
            payload += size
        elif name.endswith(SCALE_SUFFIX):
            scale += size
        else:
            payload += size  # FP32 side-band params travel with the payloads
    return payload, scale


def _take(tensors: dict, name: str, dtype: int) -> np.ndarray:
    if name not in tensors:
        raise ValidationError(f"missing tensor {name!r}")
    got_dtype, arr = tensors.pop(name)
    if got_dtype != dtype:
        raise ValidationError(f"tensor {name!r} has the wrong dtype")
    return arr


def _take_scaled(tensors: dict, name: str, precision: int) -> ScaledTensor:
    payload = _take(tensors, name, DTYPE_I8).astype(np.int64)
    scale = _take(tensors, name + SCALE_SUFFIX, DTYPE_F32).astype(np.float64)
    limit = (1 << precision) - 1
    if payload.size and np.max(np.abs(payload)) > limit:
        raise ValidationError(f"tensor {name!r} exceeds the declared precision")
    return ScaledTensor(IntTensor(payload, precision), ScaleTensor(scale))


def _take_ln(take, prefix: str, d_m: int) -> tuple:
    """A layer norm's gain and bias, each with one entry per hidden unit."""
    pair = take(prefix + ".g"), take(prefix + ".b")
    for suffix, value in zip((".g", ".b"), pair):
        if value.shape != (d_m,):
            name = prefix + suffix
            raise ValidationError(f"tensor {name!r} has shape {value.shape}, not ({d_m},)")
    return pair


def deserialize_int_model(blob: bytes) -> IntegerTransformerModel:
    cfg, quantized, tensors = _parse(blob)
    if not quantized:
        raise ValidationError("file holds an FP32 model, not a quantized one")
    mats, lns = _iter_named_params()
    p = cfg.precision

    def take(name):
        return _take_scaled(tensors, name, p)

    emb = take("emb")
    layers = []
    for i in range(cfg.n_layers):
        pre = f"layers.{i}."
        fields = {m: take(pre + m) for m in mats}
        for ln in lns:
            fields[ln + "_g"], fields[ln + "_b"] = _take_ln(take, pre + ln, cfg.d_m)
        poly = _poly_from_array(_take(tensors, pre + "poly", DTYPE_F32).astype(np.float64))
        layers.append(TransformerLayerParams(poly=poly, **fields))
    fg, fb = _take_ln(take, "final_ln", cfg.d_m)
    proj = take("proj")
    if tensors:
        raise ValidationError(f"unexpected tensors: {sorted(tensors)}")
    return IntegerTransformerModel(
        config=cfg,
        embedding=emb,
        layers=tuple(layers),
        final_ln_g=fg,
        final_ln_b=fb,
        proj=proj,
    )


def deserialize_reference_model(blob: bytes) -> FP32ReferenceModel:
    cfg, quantized, tensors = _parse(blob)
    if quantized:
        raise ValidationError("file holds a quantized model, not an FP32 one")
    mats, lns = _iter_named_params()

    def take(name):
        return _take(tensors, name, DTYPE_F32).astype(np.float64)

    emb = take("emb")
    layers = []
    for i in range(cfg.n_layers):
        pre = f"layers.{i}."
        fields = {m: take(pre + m) for m in mats}
        ln_params = {ln: L1LNParams(*_take_ln(take, pre + ln, cfg.d_m)) for ln in lns}
        poly = _poly_from_array(take(pre + "poly"))
        layers.append(
            FP32LayerParams(
                poly=poly, ln1=ln_params["ln1"], ln2=ln_params["ln2"], **fields
            )
        )
    final_ln = L1LNParams(*_take_ln(take, "final_ln", cfg.d_m))
    proj = take("proj")
    if tensors:
        raise ValidationError(f"unexpected tensors: {sorted(tensors)}")
    return FP32ReferenceModel(
        config=cfg, embedding=emb, layers=tuple(layers), final_ln=final_ln, proj=proj
    )


def save_model(path: str, model) -> None:
    if isinstance(model, IntegerTransformerModel):
        blob = serialize_int_model(model)
    elif isinstance(model, FP32ReferenceModel):
        blob = serialize_reference_model(model)
    else:
        raise ValidationError(f"cannot serialize {type(model).__name__}")
    with open(path, "wb") as fh:
        fh.write(blob)


def load_model(path: str):
    with open(path, "rb") as fh:
        blob = fh.read()
    _, quantized, _ = _parse(blob)
    if quantized:
        return deserialize_int_model(blob)
    return deserialize_reference_model(blob)
