"""Workloads, measurement loops, correctness gate and metric reports."""
from __future__ import annotations

import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from intflow import (
    PAYLOAD,
    ModelConfig,
    Precision,
    Session,
    dequantize,
    forward,
    quantize_model,
    random_reference_model,
    reference_forward,
    reference_twin,
)
from intflow import analysis, modelfile
from intflow.transformer import LN, MODULES, RES

from calibration import Calibration
from tracer import KERNELS, Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
GOLDEN_FILE = BENCH_DIR / "golden.json"

MODEL_SEED = 0      # the model belongs to the workload; --seed draws the inputs
DEFAULT_SEED = 0    # golden digests are for input 0 of this seed
WARMUP = 3          # untimed forwards per path; the first BLAS calls run far slower
MIN_SAMPLES = 100   # so that at least ten integer forwards lie beyond p90
MIN_PAIRS = 10      # traced runs: untraced/traced forward pairs
MEASURE_SHARE = 0.9  # of --seconds; the rest covers set-up and warm-up
MAX_SHARE = 1.6     # of --seconds: a sample floor extends a run this far at most
RUN_MARGIN_S = 120  # `--workload all`: set-up and warm-up allowance per workload process
SETUP_EVERY = 8     # timed loop iterations per extra load and set-up
TRACED_SETUPS = 5
HYBRID_MODULES = frozenset({LN, RES})
HYBRID_SCALING = ("quantize", "dequantize", "init_scale")  # traced on hybrid forwards


@dataclass(frozen=True)
class Workload:
    config: ModelConfig
    seq_len: int
    mse_bound: float  # per-forward bound on the logit MSE against the FP32 twin
    pool: int         # distinct token sequences drawn per seed
    why: str

    @property
    def int8_container(self) -> bool:
        return self.config.precision <= 7


WORKLOADS = {
    "toy": Workload(
        ModelConfig(), 16, 0.03, 4096,
        "per-op Python/numpy overhead dominates; matmul is a small share of the time",
    ),
    "wide": Workload(
        ModelConfig(d_m=256, heads=4, d_ff=1024, n_layers=2, vocab=1000), 128, 0.03, 512,
        "int64 matmul dominates; GEMM products stay below 2^24 (float32-exact side)",
    ),
    "longctx": Workload(
        ModelConfig(d_m=64, heads=8, d_ff=256, n_layers=2, vocab=256, precision=12), 256,
        5e-5, 512,
        "scale calculus on T x T attention dominates; p=12 GEMMs exceed 2^24",
    ),
}

# Gated.  Each forward time is divided by the time of the calibration kernel
# (calibration.py, outside the library) around it in the same iteration, and
# the median of those ratios is reported: a shared machine slows a whole
# process by up to 50% for seconds at a time, which the ratio cancels.
END_TO_END_UNITS = {
    "int_vs_calib_x": "x",
    "fp32_vs_calib_x": "x",
    "hybrid_vs_calib_x": "x",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "int_out_mse": "sq_logit",
}
# Printed with their sample counts, not gated: absolute throughputs and
# medians move with the machine-wide slowdowns above, and the ratios to the
# FP32 twin move with any change to the forward engine both paths share.
UNGATED_UNITS = {
    "int_tok_s": "tok/s",
    "int_ms_p50": "ms",
    "int_ms_p90": "ms",
    "fp32_tok_s": "tok/s",
    "hybrid_tok_s": "tok/s",
    "load_ms": "ms",
    "calib_ms_p50": "ms",
    "int_vs_fp32_x": "x",
    "hybrid_vs_fp32_x": "x",
}


def per_layer_units() -> dict[str, str]:
    """Name -> unit of every metric a traced run reports."""
    units = {f"transformer.{tag}.ms": "ms" for tag in MODULES}
    units["transformer.poly_attention.ms"] = "ms"
    units["transformer.poly_attention.calls"] = "count"
    for layer in ("transformer", "kernels", "scaling", "tensor"):
        units[f"{layer}.self_ms"] = "ms"
    for k in KERNELS:
        units[f"kernels.{k}.ms"] = "ms"
        units[f"kernels.{k}.calls"] = "count"
    units["kernels.matmul.macs"] = "MAC"
    units["kernels.matmul.bytes"] = "bytes_computed"
    units["scaling.protocol_apply.calls"] = "count"
    units["scaling.protocol_apply.self_ms"] = "ms"
    for fn in ("rescale", "scale_match", "scale_match_dim", "trunc_div"):
        units[f"scaling.{fn}.ms"] = "ms"
        units[f"scaling.{fn}.calls"] = "count"
    units["scaling.rescale.share"] = "ratio"
    units["scaling.scale_match.noop_share"] = "ratio"
    units["scaling.scale_match_dim.noop_share"] = "ratio"
    # The int<->FP32 boundary calls, from traced hybrid forwards ...
    for fn in HYBRID_SCALING:
        units[f"scaling.{fn}.ms"] = "ms"
        units[f"scaling.{fn}.calls"] = "count"
    # ... and the constants the integer forward quantizes (poly bias, offset).
    units["scaling.quantize.int_path_ms"] = "ms"
    units["scaling.quantize.int_path_calls"] = "count"
    for cls in ("IntTensor", "ScaleTensor"):
        units[f"tensor.{cls}.constructions"] = "count"
        units[f"tensor.{cls}.ms"] = "ms"
    units["tensor.IntTensor.max_magnitude.calls"] = "count"
    units["audit.records"] = "count"
    units["audit.payload_records"] = "count"
    units["audit.payload_elements"] = "count"
    units["modelfile.save.ms"] = "ms"
    units["modelfile.load.ms"] = "ms"
    units["modelfile.bytes"] = "bytes"
    units["trace.overhead_share"] = "ratio"
    units["trace.coverage"] = "ratio"
    return units


# ---------------------------------------------------------------------------
# inputs, set-up and the correctness gate


def draw_inputs(wl: Workload, seed: int) -> list[np.ndarray]:
    rng = np.random.default_rng(seed)
    return [rng.integers(0, wl.config.vocab, wl.seq_len) for _ in range(wl.pool)]


def digest(t) -> str:
    """sha256 over the shapes, dtypes and bytes of a payload and its scales."""
    h = hashlib.sha256()
    for arr in (t.data.values, t.scale.values):
        arr = np.ascontiguousarray(arr)
        h.update(f"{arr.dtype.str}{arr.shape}".encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def set_up(wl: Workload, path: Path):
    """Everything before the first forward: build, quantize, SPQ1 round trip, twin."""
    ref = random_reference_model(wl.config, seed=MODEL_SEED)
    if wl.int8_container:
        modelfile.save_model(str(path), quantize_model(ref))
        model = modelfile.load_model(str(path))
    else:
        # SPQ1 int8 records reject p > 7: ship the FP32 weights, quantize on load.
        modelfile.save_model(str(path), ref)
        model = quantize_model(modelfile.load_model(str(path)))
    return model, reference_twin(model)


@dataclass
class Gate:
    """Counts forwards attempted and failed; keeps the first few reasons."""

    attempted: int = 0
    failed: int = 0
    reasons: list[str] = field(default_factory=list)

    def record(self, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append("; ".join(problems))
        return not problems

    def crashed(self, what: str) -> None:
        if not self.reasons:
            traceback.print_exc(file=sys.stderr)
        self.record([f"{what} raised: {traceback.format_exc(limit=1).strip().splitlines()[-1]}"])


def check_int(wl: Workload, out, log, ref_logits: np.ndarray) -> tuple[list[str], float]:
    problems = []
    if out.shape != (wl.seq_len, wl.config.vocab):
        problems.append(f"logits shape {out.shape}")
    if not log.integer_pure():
        problems.append("integer path de-quantized")
    if not out.data.in_range():
        problems.append("logits payload exceeds the precision")
    mse = float(np.mean((dequantize(out).values - ref_logits) ** 2))
    if not mse <= wl.mse_bound:
        problems.append(f"int_out_mse {mse:.3g} above {wl.mse_bound:g}")
    return problems, mse


def check_float(wl: Workload, values: np.ndarray, ref_logits: np.ndarray | None) -> list[str]:
    if values.shape != (wl.seq_len, wl.config.vocab) or not np.all(np.isfinite(values)):
        return ["FP32 logits malformed"]
    if ref_logits is not None:
        mse = float(np.mean((values - ref_logits) ** 2))
        if not mse <= wl.mse_bound:
            return [f"hybrid mse {mse:.3g} above {wl.mse_bound:g}"]
    return []


def golden_digests() -> dict[str, str]:
    return json.loads(GOLDEN_FILE.read_text())


# ---------------------------------------------------------------------------
# timed paths


def timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


def int_forward(model, toks):
    session = Session(Precision(model.config.precision))
    out, dt = timed(forward, model, session, tokens=toks)
    return out, session.log, dt


def fp32_forward(twin, toks):
    out, dt = timed(reference_forward, twin, tokens=toks)
    return out.values, dt


def hybrid_forward(model, twin, toks):
    session = Session(Precision(model.config.precision))
    out, dt = timed(forward, model, session, tokens=toks, int_modules=HYBRID_MODULES, ref=twin)
    return out.values, dt


def calibration_for(wl: Workload) -> Calibration:
    c = wl.config
    return Calibration(c.d_m, c.heads, c.d_ff, c.n_layers, c.vocab)


def warm_up(wl, name, model, twin, inputs, gate, calib=None) -> dict:
    """Untimed forwards on every path; the first one is the golden input."""
    info = {"warmup_forwards_per_path": WARMUP}
    golden_toks = draw_inputs(wl, DEFAULT_SEED)[0]
    expected = golden_digests().get(name)
    for i in range(WARMUP):
        toks = golden_toks if i == 0 else inputs[-i]
        try:
            ref_logits, _ = fp32_forward(twin, toks)
            gate.record(check_float(wl, ref_logits, None))
            out, log, _ = int_forward(model, toks)
            problems, _ = check_int(wl, out, log, ref_logits)
            if i == 0:
                info["golden_digest"] = digest(out)
                info["golden_ok"] = info["golden_digest"] == expected
                if not info["golden_ok"]:
                    problems.append(f"golden digest {info['golden_digest']} != {expected}")
                info["speedup_estimate"] = analysis.speedup_estimate(log).estimate
            gate.record(problems)
            values, _ = hybrid_forward(model, twin, toks)
            gate.record(check_float(wl, values, ref_logits))
            if calib is not None:
                calib.measure(toks)
        except Exception:
            gate.crashed("warm-up forward")
    return info


def _pct(samples: list[float], q: float) -> float:
    return float(np.percentile(samples, q)) if samples else 0.0


def _tok_s(seq_len: int, times: list[float]) -> float:
    return seq_len * len(times) / sum(times) if times else 0.0


def _keep_going(t_start: float, seconds: float, n: int, floor: int) -> bool:
    elapsed = time.perf_counter() - t_start
    return (elapsed < MEASURE_SHARE * seconds or n < floor) and elapsed < MAX_SHARE * seconds


def run_untraced(wl: Workload, name: str, seed: int, seconds: float, path: Path) -> dict:
    t_start = time.perf_counter()
    (model, twin), dt_setup = timed(set_up, wl, path)
    inputs = draw_inputs(wl, seed)
    calib = calibration_for(wl)
    gate = Gate()
    info = warm_up(wl, name, model, twin, inputs, gate, calib)

    # One iteration runs every timed path and the calibration kernel on the
    # same tokens, so each metric samples the whole run: on a shared machine,
    # other tenants slow the process for seconds at a time, and a path timed
    # only in one stretch of the run would see just that stretch's conditions.
    int_times, fp32_times, hybrid_times, load_times, mses = [], [], [], [], []
    # Per path, each forward time over the mean of the calibration times just
    # before and just after it: the two are measured within one iteration, so
    # a slow stretch of the machine moves both.  The FP32 and hybrid forwards
    # are divided by the kernel's float pass, the integer one by all of it.
    calib_times = [calib.measure(inputs[0])]
    int_cal, fp32_cal, hybrid_cal = [], [], []
    setup_times = [dt_setup]
    spare = path.with_name(path.stem + "-spare.spq")
    run_digest = None
    i = 0
    while _keep_going(t_start, seconds, len(int_times), MIN_SAMPLES):
        toks = inputs[i % len(inputs)]
        try:
            out, log, dt = int_forward(model, toks)
            ref_logits, dt_fp32 = fp32_forward(twin, toks)
            values, dt_hybrid = hybrid_forward(model, twin, toks)
        except Exception:
            gate.crashed("forward")
        else:
            problems, mse = check_int(wl, out, log, ref_logits)
            if i == 0:
                run_digest = digest(out)
            calib_times.append(calib.measure(toks))
            (float_0, all_0), (float_1, all_1) = calib_times[-2:]
            float_bracket, all_bracket = (float_0 + float_1) / 2, (all_0 + all_1) / 2
            if gate.record(problems):
                int_times.append(dt)
                int_cal.append(dt / all_bracket)
                mses.append(mse)
            if gate.record(check_float(wl, ref_logits, None)):
                fp32_times.append(dt_fp32)
                fp32_cal.append(dt_fp32 / float_bracket)
            if gate.record(check_float(wl, values, ref_logits)):
                hybrid_times.append(dt_hybrid)
                hybrid_cal.append(dt_hybrid / float_bracket)
        if i % SETUP_EVERY == SETUP_EVERY - 1:
            load_times.append(timed(modelfile.load_model, str(path))[1])
            setup_times.append(timed(set_up, wl, spare)[1])
        i += 1
    spare.unlink(missing_ok=True)

    T = wl.seq_len
    int_tok_s, fp32_tok_s = _tok_s(T, int_times), _tok_s(T, fp32_times)
    hybrid_tok_s = _tok_s(T, hybrid_times)
    metrics = {
        "int_vs_calib_x": _pct(int_cal, 50),
        "fp32_vs_calib_x": _pct(fp32_cal, 50),
        "hybrid_vs_calib_x": _pct(hybrid_cal, 50),
        "setup_s": _pct(setup_times, 50),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "int_out_mse": float(np.mean(mses)) if mses else 0.0,
    }
    ungated = {
        "int_tok_s": int_tok_s,
        "int_ms_p50": _pct(int_times, 50) * 1e3,
        "int_ms_p90": _pct(int_times, 90) * 1e3,
        "fp32_tok_s": fp32_tok_s,
        "hybrid_tok_s": hybrid_tok_s,
        "load_ms": float(np.mean(load_times)) * 1e3 if load_times else 0.0,
        "calib_ms_p50": _pct([whole for _, whole in calib_times], 50) * 1e3,
        "int_vs_fp32_x": fp32_tok_s / int_tok_s if int_tok_s else 0.0,
        "hybrid_vs_fp32_x": fp32_tok_s / hybrid_tok_s if hybrid_tok_s else 0.0,
    }
    n_int, n_fp32, n_hybrid = len(int_times), len(fp32_times), len(hybrid_times)
    samples = {
        "int_vs_calib_x": n_int, "fp32_vs_calib_x": n_fp32, "hybrid_vs_calib_x": n_hybrid,
        "calib_ms_p50": len(calib_times),
        "int_vs_fp32_x": min(n_int, n_fp32), "hybrid_vs_fp32_x": min(n_hybrid, n_fp32),
        "int_ms_p90": n_int, "setup_s": len(setup_times), "peak_rss_mb": 1,
        "int_out_mse": len(mses), "int_tok_s": n_int, "int_ms_p50": n_int,
        "fp32_tok_s": n_fp32, "hybrid_tok_s": n_hybrid, "load_ms": len(load_times),
    }
    info.update({
        "digest": run_digest,
        "ungated": {k: {"value": v, "unit": UNGATED_UNITS[k]} for k, v in ungated.items()},
        "int_beyond_p90": sum(t * 1e3 > ungated["int_ms_p90"] for t in int_times),
        "modelled_vs_measured": {
            "note": "informational, ungated; both are speed-ups of int over FP32",
            "modelled_amdahl": info.pop("speedup_estimate", None),
            "measured": 1.0 / ungated["int_vs_fp32_x"] if ungated["int_vs_fp32_x"] else None,
        },
    })
    return _result(gate, metrics, END_TO_END_UNITS, samples, info)


# ---------------------------------------------------------------------------
# traced run


def _forward_layer_metrics(w, log) -> dict[str, float]:
    m = {f"transformer.{tag}.ms": w.total_ms("transformer." + tag) for tag in MODULES}
    m["transformer.poly_attention.ms"] = w.total_ms("transformer.poly_attention")
    m["transformer.poly_attention.calls"] = w.calls["transformer.poly_attention"]
    for layer in ("transformer", "kernels", "scaling", "tensor"):
        m[f"{layer}.self_ms"] = w.layer_self_ms(layer)
    for k in KERNELS:
        m[f"kernels.{k}.ms"] = w.self_ms("kernels." + k)
        m[f"kernels.{k}.calls"] = w.calls["kernels." + k]
    m["kernels.matmul.macs"] = sum(
        r.elements for r in log.records if r.kind == "matmul" and r.lane == PAYLOAD
    )
    m["kernels.matmul.bytes"] = w.counts["kernels.matmul.bytes"]
    protocol_calls = w.calls["scaling.protocol_apply"]
    m["scaling.protocol_apply.calls"] = protocol_calls
    m["scaling.protocol_apply.self_ms"] = w.self_ms("scaling.protocol_apply")
    for fn in ("rescale", "scale_match", "scale_match_dim", "trunc_div"):
        m[f"scaling.{fn}.ms"] = w.self_ms("scaling." + fn)
        m[f"scaling.{fn}.calls"] = w.calls["scaling." + fn]
    m["scaling.quantize.int_path_ms"] = w.self_ms("scaling.quantize")
    m["scaling.quantize.int_path_calls"] = w.calls["scaling.quantize"]
    m["scaling.rescale.share"] = w.calls["scaling.rescale"] / max(protocol_calls, 1)
    for fn in ("scale_match", "scale_match_dim"):
        m[f"scaling.{fn}.noop_share"] = (
            w.counts[f"scaling.{fn}.noop"] / max(w.calls["scaling." + fn], 1)
        )
    for cls in ("IntTensor", "ScaleTensor"):
        m[f"tensor.{cls}.constructions"] = w.calls["tensor." + cls]
        m[f"tensor.{cls}.ms"] = w.self_ms("tensor." + cls)
    m["tensor.IntTensor.max_magnitude.calls"] = w.calls["tensor.IntTensor.max_magnitude"]
    payload = log.payload_records()
    m["audit.records"] = len(log)
    m["audit.payload_records"] = len(payload)
    m["audit.payload_elements"] = sum(r.elements for r in payload)
    m["trace.coverage"] = w.coverage()
    return m


def _trace_line(kind: str, index: int, w) -> str:
    return json.dumps({
        "kind": kind, "index": index, "wall_ms": w.wall_ns / 1e6,
        "module_layer_ms": {k: v / 1e6 for k, v in sorted(w.module_layer_ns.items())},
        "self_ms": {k: v / 1e6 for k, v in sorted(w.self_ns.items())},
        "total_ms": {k: v / 1e6 for k, v in sorted(w.total_ns.items())},
        "calls": dict(sorted(w.calls.items())),
        "counts": dict(sorted(w.counts.items())),
    })


def run_traced(wl: Workload, name: str, seed: int, seconds: float, path: Path,
               trace_path: Path) -> dict:
    t_start = time.perf_counter()
    tracer = Tracer(wl.config.n_layers)
    setup_windows = []
    for _ in range(TRACED_SETUPS):
        with tracer.installed(), tracer.window() as w:
            model, twin = set_up(wl, path)
        setup_windows.append(w)
    inputs = draw_inputs(wl, seed)
    gate = Gate()
    info = warm_up(wl, name, model, twin, inputs, gate)
    info.pop("speedup_estimate", None)
    lines = [_trace_line("setup", k, w) for k, w in enumerate(setup_windows)]

    per_forward: list[dict[str, float]] = []
    hybrid: list[dict[str, float]] = []
    untraced_s = traced_s = 0.0
    mismatches = 0
    i = 0
    while _keep_going(t_start, seconds, len(per_forward), MIN_PAIRS):
        toks = inputs[i % len(inputs)]
        try:
            # Alternate which side runs first so neither gets the warmer caches.
            for traced in ((False, True) if i % 2 == 0 else (True, False)):
                if traced:
                    with tracer.installed(), tracer.window() as w:
                        out_t, log_t, dt_t = int_forward(model, toks)
                else:
                    out_u, log_u, dt_u = int_forward(model, toks)
            with tracer.installed(), tracer.window() as w_hybrid:
                values, _ = hybrid_forward(model, twin, toks)
            ref_logits, _ = fp32_forward(twin, toks)
        except Exception:
            gate.crashed("traced iteration")
            i += 1
            continue
        problems, _ = check_int(wl, out_u, log_u, ref_logits)
        traced_problems, _ = check_int(wl, out_t, log_t, ref_logits)
        if digest(out_t) != digest(out_u) or log_t.records != log_u.records:
            mismatches += 1
            traced_problems.append("traced forward differs from the untraced one")
        gate.record(problems)
        if gate.record(traced_problems):
            untraced_s += dt_u
            traced_s += dt_t
            per_forward.append(_forward_layer_metrics(w, log_t))
            lines.append(_trace_line("int", i, w))
        if gate.record(check_float(wl, values, ref_logits)):
            hybrid.append({
                f"scaling.{fn}.{what}": (
                    w_hybrid.self_ms("scaling." + fn) if what == "ms"
                    else w_hybrid.calls["scaling." + fn])
                for fn in HYBRID_SCALING for what in ("ms", "calls")
            })
            lines.append(_trace_line("hybrid", i, w_hybrid))
        i += 1

    def median_of(rows: list[dict[str, float]]) -> dict[str, float]:
        return {k: float(statistics.median(r[k] for r in rows)) for k in rows[0]} if rows else {}

    metrics = median_of(per_forward)
    metrics.update(median_of(hybrid))
    metrics["modelfile.save.ms"] = statistics.median(w.total_ms("modelfile.save") for w in setup_windows)
    metrics["modelfile.load.ms"] = statistics.median(w.total_ms("modelfile.load") for w in setup_windows)
    metrics["modelfile.bytes"] = path.stat().st_size
    metrics["trace.overhead_share"] = 1.0 - untraced_s / traced_s if traced_s else 0.0
    units = per_layer_units()
    samples = {k: len(per_forward) for k in units}
    samples.update({f"scaling.{fn}.{what}": len(hybrid)
                    for fn in HYBRID_SCALING for what in ("ms", "calls")})
    samples.update({k: len(setup_windows) for k in units if k.startswith("modelfile.")})
    info.update({"traced_forwards": len(per_forward), "traced_hybrid_forwards": len(hybrid),
                 "trace_mismatches": mismatches, "trace_file": str(trace_path.relative_to(ROOT))})
    trace_path.write_text("\n".join(lines) + "\n")
    return _result(gate, metrics, units, samples, info)


# ---------------------------------------------------------------------------
# reporting


def _git_sha() -> str:
    try:
        # The ceiling keeps git from reporting an enclosing repository's HEAD.
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _blas() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # older numpy has no dict mode; the library is informational
        return "unknown"


def run_metadata(name: str, seed: int, seconds: float, trace: bool) -> dict:
    wl = WORKLOADS[name]
    threads = {v: os.environ.get(v) for v in
               ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    return {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "config": {**{k: getattr(wl.config, k) for k in
                      ("d_m", "heads", "d_ff", "n_layers", "vocab", "precision", "degree")},
                   "seq_len": wl.seq_len, "model_seed": MODEL_SEED},
        "load_model": "closed loop, one caller, no think time",
        "git_sha": _git_sha(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": _blas(),
        "blas_threads": threads,
        "nproc": len(os.sched_getaffinity(0)),
        "warmup": WARMUP,
    }


def _result(gate: Gate, metrics: dict, units: dict, samples: dict, info: dict) -> dict:
    info.update({"failed_share": gate.failed / max(gate.attempted, 1),
                 "failure_reasons": gate.reasons})
    return {
        "correct": gate.failed == 0 and bool(info.get("golden_ok")) and gate.attempted > 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {k: {"value": float(metrics.get(k, 0.0)), "unit": units[k]} for k in units},
        "samples": samples,
        "info": info,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    wl = WORKLOADS[name]
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{name}-s{seed}-t{int(trace)}"
    path = OUT_DIR / f"{stem}-{os.getpid()}.spq"
    meta = run_metadata(name, seed, seconds, trace)
    try:
        if trace:
            result = run_traced(wl, name, seed, seconds, path, OUT_DIR / f"trace-{stem}.jsonl")
        else:
            result = run_untraced(wl, name, seed, seconds, path)
    finally:
        path.unlink(missing_ok=True)
    result["info"] = {"meta": meta, **result["info"]}
    (OUT_DIR / f"result-{stem}.json").write_text(json.dumps(result, indent=1) + "\n")
    return result


def print_result(result: dict) -> None:
    """Human-readable lines, the informational record, then the result line."""
    info = result["info"]
    meta = info["meta"]
    print(f"# intflow benchmark  workload={meta['workload']} seed={meta['seed']} "
          f"trace={meta['trace']}  blas={meta['blas']} threads={meta['blas_threads']}")
    for name, m in result["metrics"].items():
        print(f"metric {name:40s} {m['value']:>16.6g} {m['unit']:<14s} n={result['samples'][name]}")
    for name, m in info.get("ungated", {}).items():
        print(f"info   {name:40s} {m['value']:>16.6g} {m['unit']:<14s} "
              f"n={result['samples'][name]} (ungated)")
    mvm = info.get("modelled_vs_measured")
    if mvm:
        print(f"informational (ungated): int over FP32 speed-up, modelled (Amdahl, audit "
              f"counts) {mvm['modelled_amdahl']:.3g}x vs measured {mvm['measured']:.3g}x")
    print(f"gate: attempted={result['attempted']} failed={result['failed']} "
          f"failed_share={info['failed_share']:.4g} golden_ok={info.get('golden_ok')}")
    print(f"digests: golden input {info.get('golden_digest')}, "
          f"input 0 of seed {meta['seed']} {info.get('digest', 'not run untraced')}")
    print("info " + json.dumps({**info, "samples": result["samples"]}))
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))


def run_all(script: Path, seed: int, seconds: float, trace: int) -> int:
    """Each workload in its own process (peak RSS is per process)."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        try:
            proc = subprocess.run(
                [sys.executable, str(script), "--workload", name, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)],
                stdout=subprocess.PIPE, text=True, timeout=MAX_SHARE * seconds + RUN_MARGIN_S,
            )
        except subprocess.TimeoutExpired:
            print(f"{name}: no result within {MAX_SHARE * seconds + RUN_MARGIN_S:.0f} s",
                  file=sys.stderr)
            status = 1
            combined["correct"] = False
            continue
        lines = proc.stdout.rstrip("\n").splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            status = 1
            combined["correct"] = False
            continue
        last = json.loads(lines[-1])
        combined["correct"] &= last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in last["metrics"].items()})
    print(json.dumps(combined))
    return status
