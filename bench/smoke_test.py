"""Smoke test of the benchmark itself: a few forwards per workload, traced and untraced.

Run from the repository root:

    python3 -m pytest -q bench/smoke_test.py
"""
from __future__ import annotations

import ast
import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH)]

import run  # noqa: E402

run.single_thread_blas()
sys.path.insert(0, str(run.SRC))

import pytest  # noqa: E402

import harness  # noqa: E402
from intflow import kernels, scaling, transformer  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", list(harness.WORKLOADS))
def test_every_metric_is_printed_with_its_unit_and_the_gate_passes(name, trace, capsys):
    result = harness.run_workload(name, seed=5, seconds=3, trace=trace)
    harness.print_result(result)
    lines = capsys.readouterr().out.splitlines()
    last = json.loads(lines[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"], result["info"]["failure_reasons"]
    assert last["failed"] == 0 and last["attempted"] > 0
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in last["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    printed = {line.split()[1]: line.split()[3] for line in lines if line.startswith("metric ")}
    assert printed == {m["name"]: m["unit"] for m in spec}
    assert result["info"]["golden_ok"]
    if trace:
        assert result["info"]["trace_mismatches"] == 0


@pytest.mark.parametrize("name", list(harness.WORKLOADS))
def test_traced_forward_matches_untraced(name):
    wl = harness.WORKLOADS[name]
    harness.OUT_DIR.mkdir(exist_ok=True)
    path = harness.OUT_DIR / f"smoke-{name}.spq"
    try:
        model, _ = harness.set_up(wl, path)
    finally:
        path.unlink(missing_ok=True)
    toks = harness.draw_inputs(wl, harness.DEFAULT_SEED)[0]
    out_u, log_u, _ = harness.int_forward(model, toks)
    originals = (kernels.matmul, scaling.protocol_apply, transformer.attn_core)
    tracer = Tracer(wl.config.n_layers)
    with tracer.installed(), tracer.window() as w:
        out_t, log_t, _ = harness.int_forward(model, toks)
    assert harness.digest(out_t) == harness.digest(out_u) == harness.golden_digests()[name]
    assert log_t.records == log_u.records
    protocol_records = [r for r in log_u.payload_records() if r.kind not in ("gather", "boost")]
    assert w.calls["scaling.protocol_apply"] == len(protocol_records)
    assert w.calls["transformer.poly_attention"] == wl.config.heads * wl.config.n_layers
    assert (kernels.matmul, scaling.protocol_apply, transformer.attn_core) == originals


def test_calibration_kernel_imports_nothing_from_the_library():
    tree = ast.parse((BENCH / "calibration.py").read_text())
    imported = {a.name.split(".")[0] for n in ast.walk(tree) if isinstance(n, ast.Import)
                for a in n.names}
    imported |= {n.module.split(".")[0] for n in ast.walk(tree)
                 if isinstance(n, ast.ImportFrom) and n.module}
    assert imported <= {"__future__", "math", "numpy", "time"}


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "toy", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
