"""The library names the benchmark imports and wraps, and its golden gate.

bench/harness.py imports names from intflow, and bench/tracer.py wraps
kernels, scaling functions and model-file functions by name.  A rename or a
removal there, or a change to the logits of a workload's golden input, would
otherwise surface only when the benchmark runs.
"""
import sys
from pathlib import Path

import numpy as np
import pytest

from intflow import kernels, modelfile, scaling
from intflow.scaling import Session
from intflow.transformer import ModelConfig, forward, quantize_model, random_reference_model

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def bench_modules():
    sys.path.insert(0, str(BENCH))
    try:
        import harness
        import tracer
    finally:
        sys.path.remove(str(BENCH))
    return harness, tracer


def test_harness_imports(bench_modules):
    harness, _ = bench_modules
    assert set(harness.WORKLOADS) == {"toy", "wide", "longctx"}


def test_tracer_wraps_every_named_function(bench_modules):
    _, tracer = bench_modules
    originals = (kernels.matmul, kernels.relu, kernels.pow_n, modelfile.load_model)
    t = tracer.Tracer(n_layers=2)
    with t.installed():
        assert kernels.matmul is not originals[0]
    assert (kernels.matmul, kernels.relu, kernels.pow_n, modelfile.load_model) == originals


# The form of ADD for a constant at a Lane's own scale, which the tracer
# does not wrap.
LANE_ADDS = ("lane_add",)


def test_tracer_kernel_names_are_the_kernels(bench_modules):
    _, tracer = bench_modules
    for name in tracer.KERNELS:
        fn = getattr(kernels, name)
        assert fn.kind == name.rstrip("_"), name


def test_one_kernel_per_kind(bench_modules):
    _, tracer = bench_modules
    tagged = {fn for fn in vars(kernels).values() if hasattr(fn, "kind")}
    assert tagged == {getattr(kernels, n) for n in (*tracer.KERNELS, *LANE_ADDS)}
    kinds = [getattr(kernels, n).kind for n in tracer.KERNELS]
    assert len(set(kinds)) == len(kinds) and set(kinds) == {fn.kind for fn in tagged}


def test_a_forward_runs_only_traced_kernels(bench_modules, monkeypatch):
    # A kernel outside tracer.KERNELS does work the benchmark cannot see.
    _, tracer = bench_modules
    known = {getattr(kernels, n): n for n in (*tracer.KERNELS, *LANE_ADDS)}
    seen, results = [], []
    apply = scaling.protocol_apply

    def recording(kernel, *args, **kwargs):
        seen.append(known.get(kernel, kernel.__name__))
        out = apply(kernel, *args, **kwargs)
        results.append(type(out))
        return out

    monkeypatch.setattr(scaling, "protocol_apply", recording)
    cfg = ModelConfig(d_m=8, heads=2, d_ff=16, n_layers=2, vocab=8)
    model = quantize_model(random_reference_model(cfg, seed=0))
    forward(model, Session(), tokens=np.arange(4))
    assert set(seen) <= set(known.values())
    assert {"matmul", "relu", "pow_n", "sum_reduce", "add", "abs_", "ew_mul", "int_div"} <= set(seen)
    # The heads write into one output lane: concat stays traced, but no
    # forward calls it.
    assert "concat" not in seen
    # Every protocol step returns a Lane, so every shrink is one rescale call.
    assert set(results) == {scaling.Lane}


def test_traced_forward_records_modules_and_kernels(bench_modules):
    _, tracer = bench_modules
    cfg = ModelConfig(d_m=8, heads=2, d_ff=16, n_layers=2, vocab=8)
    model = quantize_model(random_reference_model(cfg, seed=0))
    t = tracer.Tracer(n_layers=cfg.n_layers)
    with t.installed(), t.window() as w:
        forward(model, Session(), tokens=np.arange(4))
    assert w.calls["transformer.Attn"] == cfg.n_layers
    assert w.calls["kernels.matmul"] > 0
    assert w.calls["kernels.relu"] > 0 and w.calls["kernels.pow_n"] > 0
    assert w.counts["kernels.matmul.bytes"] > 0


def test_every_shrink_is_a_traced_rescale(bench_modules):
    # protocol_apply shrinks a lane through scaling.rescale, which the tracer
    # wraps: one call per payload record that was rescaled.
    _, tracer = bench_modules
    cfg = ModelConfig(d_m=8, heads=2, d_ff=16, n_layers=2, vocab=8)
    model = quantize_model(random_reference_model(cfg, seed=0))
    session = Session()
    t = tracer.Tracer(n_layers=cfg.n_layers)
    with t.installed(), t.window() as w:
        forward(model, session, tokens=np.arange(4))
    rescaled = sum(r.rescaled for r in session.log.payload_records())
    assert rescaled > 0
    assert w.calls["scaling.rescale"] == rescaled


@pytest.mark.parametrize("name", ["toy", "wide", "longctx"])
def test_golden_digest(bench_modules, tmp_path, name):
    # The benchmark's own set-up and forward on its golden input: the logits
    # must match bench/golden.json byte for byte.
    harness, _ = bench_modules
    wl = harness.WORKLOADS[name]
    model, _ = harness.set_up(wl, tmp_path / "model.bin")
    out, _, _ = harness.int_forward(model, harness.draw_inputs(wl, harness.DEFAULT_SEED)[0])
    assert harness.digest(out) == harness.golden_digests()[name]
