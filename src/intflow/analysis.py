"""Precision-loss attribution, storage accounting, and speed-up estimation."""
from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass

import numpy as np

from .audit import OpAuditLog
from .errors import ValidationError
from .modelfile import HEADER_SIZE, record_sizes, serialize
from .scaling import (
    Precision,
    Session,
    dequantize,
)
from .tensor import RationalTensor, ScaledTensor
from .transformer import (
    LAYER_TENSORS,
    MODEL_TENSORS,
    FP32ReferenceModel,
    IntegerTransformerModel,
    MODULES,
    forward,
    quantize_model,
    reference_forward,
    reference_twin,
)


@dataclass(frozen=True)
class PrecisionEntry:
    module: str
    layer: int
    mse: float
    elements: int


@dataclass(frozen=True)
class PrecisionReport:
    entries: tuple[PrecisionEntry, ...]

    def get(self, module: str, layer: int) -> float:
        for e in self.entries:
            if e.module == module and e.layer == layer:
                return e.mse
        raise KeyError((module, layer))

    def lines(self) -> list[str]:
        return [
            f"{e.module}\t{e.layer}\tmse\t{e.mse:.10e}" for e in self.entries
        ]


@dataclass(frozen=True)
class StorageReport:
    """Bytes of the model pair on disk (the serialized files) and held in
    memory (the parameter arrays of the loaded models)."""

    fp32_bytes: int
    int8_payload_bytes: int
    scale_bytes: int
    header_bytes: int
    resident_int_bytes: int
    resident_fp32_bytes: int

    @property
    def int8_total_bytes(self) -> int:
        return self.int8_payload_bytes + self.scale_bytes + self.header_bytes

    @property
    def ratio(self) -> float:
        return self.fp32_bytes / self.int8_total_bytes

    @property
    def resident_ratio(self) -> float:
        return self.resident_fp32_bytes / self.resident_int_bytes

    def lines(self) -> list[str]:
        return [
            f"storage\tfp32\tbytes\t{self.fp32_bytes}",
            f"storage\tint8_payload\tbytes\t{self.int8_payload_bytes}",
            f"storage\tscales\tbytes\t{self.scale_bytes}",
            f"storage\theader\tbytes\t{self.header_bytes}",
            f"storage\tratio\tx\t{self.ratio:.4f}",
            f"storage\tresident_int\tbytes\t{self.resident_int_bytes}",
            f"storage\tresident_fp32\tbytes\t{self.resident_fp32_bytes}",
            f"storage\tresident_ratio\tx\t{self.resident_ratio:.4f}",
        ]


@dataclass(frozen=True)
class SpeedupEstimate:
    op_shares: dict[str, float]
    accelerable_share: float
    factor: float
    estimate: float

    def lines(self) -> list[str]:
        out = [
            f"speedup\taccelerable\tshare\t{self.accelerable_share:.4f}",
            f"speedup\tfactor\tx\t{self.factor:.2f}",
            f"speedup\testimate\tx\t{self.estimate:.4f}",
        ]
        for kind in sorted(self.op_shares):
            out.append(f"speedup\t{kind}\tshare\t{self.op_shares[kind]:.4f}")
        return out


@dataclass(frozen=True)
class MeasuredTimes:
    """Median wall-clock milliseconds of whole forwards on the same tokens:
    the integer model and its FP32 twin."""

    int_ms: float
    fp32_ms: float

    def lines(self) -> list[str]:
        return [
            f"measured\tint_ms\tp50\t{self.int_ms:.3f}",
            f"measured\tfp32_ms\tp50\t{self.fp32_ms:.3f}",
            f"measured\tint_vs_fp32\tx\t{self.int_ms / self.fp32_ms:.4f}",
        ]


# Timed forwards of each model per measurement, after one warm-up.
MEASURED_FORWARDS = 5


def measure_forwards(
    model: IntegerTransformerModel, ref: FP32ReferenceModel, tokens: np.ndarray
) -> MeasuredTimes:
    """Time MEASURED_FORWARDS forwards of each model on `tokens`, alternating,
    after one untimed warm-up of each; each integer forward gets a fresh
    Session, made outside the timed call."""
    precision = Precision(model.config.precision)
    int_s, fp32_s = [], []
    for i in range(MEASURED_FORWARDS + 1):
        session = Session(precision)
        t0 = time.perf_counter()
        forward(model, session, tokens=tokens)
        t1 = time.perf_counter()
        reference_forward(ref, tokens=tokens)
        t2 = time.perf_counter()
        if i:
            int_s.append(t1 - t0)
            fp32_s.append(t2 - t1)
    return MeasuredTimes(1e3 * statistics.median(int_s), 1e3 * statistics.median(fp32_s))


def _mse(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.mean((np.asarray(a, dtype=np.float64) - b) ** 2))


def _as_float(state) -> np.ndarray:
    if isinstance(state, ScaledTensor):
        return dequantize(state).values
    if isinstance(state, RationalTensor):
        return state.values
    return np.asarray(state, dtype=np.float64)


def precision_loss(
    model: IntegerTransformerModel,
    ref: FP32ReferenceModel,
    inputs: list[np.ndarray],
) -> PrecisionReport:
    """Per-module, per-layer MSE between FP32 and de-quantized activations."""
    sums: dict[tuple[str, int], list[float]] = {}
    counts: dict[tuple[str, int], int] = {}
    for tokens in inputs:
        int_taps, ref_taps = [], []
        session = Session(Precision(model.config.precision))
        forward(model, session, tokens=tokens, tap=lambda *tap: int_taps.append(tap))
        reference_forward(ref, tokens=tokens, tap=lambda *tap: ref_taps.append(tap))
        if len(int_taps) != len(ref_taps):
            raise ValidationError("tap sequences diverged between twins")
        for (tag_i, li, state_i), (tag_r, lr, state_r) in zip(int_taps, ref_taps):
            if tag_i != tag_r or li != lr:
                raise ValidationError("tap sequences diverged between twins")
            act_i, act_r = _as_float(state_i), _as_float(state_r)
            if act_i.shape != act_r.shape:
                raise ValidationError("tap shapes diverged between twins")
            key = (tag_i, li)
            sums.setdefault(key, []).append(_mse(act_i, act_r))
            counts[key] = act_i.size
    entries = [
        PrecisionEntry(module, layer, float(np.mean(vals)), counts[(module, layer)])
        for (module, layer), vals in sorted(
            sums.items(), key=lambda kv: (kv[0][1], MODULES.index(kv[0][0]))
        )
    ]
    return PrecisionReport(tuple(entries))


def module_ablation(
    model: IntegerTransformerModel,
    inputs: list[np.ndarray],
    module_set: frozenset[str],
    ref: FP32ReferenceModel | None = None,
) -> float:
    """Output MSE vs the full-FP32 reference when only `module_set` runs INT8."""
    unknown = set(module_set) - set(MODULES)
    if unknown:
        raise ValidationError(f"unknown module tags: {sorted(unknown)}")
    ref = ref or reference_twin(model)
    losses = []
    for tokens in inputs:
        session = Session(Precision(model.config.precision))
        out = forward(
            model, session, tokens=tokens, int_modules=frozenset(module_set), ref=ref
        )
        oracle = reference_forward(ref, tokens=tokens)
        losses.append(_mse(_as_float(out), oracle.values))
    return float(np.mean(losses))


def resident_bytes(model: IntegerTransformerModel | FP32ReferenceModel) -> int:
    """Bytes the parameters of `model` hold in memory: payload and scale of
    each quantized tensor, or each FP32 array."""
    leaves = [getattr(lp, f) for lp in model.layers for f in LAYER_TENSORS]
    leaves += [getattr(model, f) for f in MODEL_TENSORS]
    return sum(
        t.data.values.nbytes + t.scale.values.nbytes if isinstance(t, ScaledTensor) else t.nbytes
        for t in leaves
    )


def storage_report(model: IntegerTransformerModel) -> StorageReport:
    """Byte accounting from the actual serializations of the model pair,
    and from the arrays the model and its FP32 twin hold."""
    twin = reference_twin(model)
    fp32_blob = serialize(twin)
    int_blob = serialize(model)
    payload_bytes, scale_bytes = record_sizes(int_blob)
    report = StorageReport(
        fp32_bytes=len(fp32_blob),
        int8_payload_bytes=payload_bytes,
        scale_bytes=scale_bytes,
        header_bytes=HEADER_SIZE,
        resident_int_bytes=resident_bytes(model),
        resident_fp32_bytes=resident_bytes(twin),
    )
    assert report.int8_total_bytes == len(int_blob)
    return report


# Modern CPUs accelerate the integer GEMM lane; everything else is taken at
# its FP32 cost.
DEFAULT_ACCELERABLE = frozenset({"matmul"})


def speedup_estimate(log: OpAuditLog, factor: float = 6.0) -> SpeedupEstimate:
    """Amdahl-style estimate with audited element counts as time proxies; the
    kinds in DEFAULT_ACCELERABLE run `factor` times faster."""
    if not 0 < factor < math.inf:
        raise ValidationError(f"acceleration factor must be finite and positive, got {factor}")
    if not log.records:
        raise ValidationError("audit log is empty")
    totals: dict[str, int] = {}
    for r in log.records:
        totals[r.kind] = totals.get(r.kind, 0) + r.elements
    grand = sum(totals.values())
    acc = sum(v for k, v in totals.items() if k in DEFAULT_ACCELERABLE)
    estimate = grand / (acc / factor + (grand - acc))
    return SpeedupEstimate(
        op_shares={k: v / grand for k, v in totals.items()},
        accelerable_share=acc / grand,
        factor=factor,
        estimate=estimate,
    )


def bit_sweep(
    ref: FP32ReferenceModel,
    inputs: list[np.ndarray],
    p_range: range,
) -> list[tuple[int, float]]:
    """Re-quantize at each precision and record output MSE vs the reference."""
    return [
        (p, module_ablation(quantize_model(ref, precision=p), inputs, frozenset(MODULES), ref))
        for p in p_range
    ]

