"""The library names the benchmark imports and wraps, and its golden gate.

bench/harness.py imports names from intflow, and bench/tracer.py wraps
kernels, scaling functions and model-file functions by name.  Both read a
tensor through its payload and scale views (`ScaledTensor.data` and
`.scale`), whose constructors and `max_magnitude` the tracer times.  A
rename or a removal there, or a change to the logits of a workload's golden
input, would otherwise surface only when the benchmark runs.
"""
import sys
from pathlib import Path

import numpy as np
import pytest

from intflow import kernels, modelfile, scaling, tensor
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


def test_a_traced_forward_shows_every_module_and_step(bench_modules):
    # The module spans follow the forward's structure, and every protocol
    # step runs through scaling.protocol_apply where the tracer wraps it:
    # one span per step, so a shorter call path cannot hide a step.
    _, tracer = bench_modules
    cfg = ModelConfig(d_m=8, heads=2, d_ff=16, n_layers=2, vocab=8)
    model = quantize_model(random_reference_model(cfg, seed=0))
    session = Session()
    t = tracer.Tracer(n_layers=cfg.n_layers)
    with t.installed(), t.window() as w:
        forward(model, session, tokens=np.arange(4))
    want = {"Emb": 1, "LN": 5, "Attn": 2, "FFN": 2, "Res": 4, "Proj": 1}
    assert {tag: w.calls["transformer." + tag] for tag in want} == want
    # A step makes one payload record of its kernel's kind; notes make the others.
    kinds = {fn.kind for fn in vars(kernels).values() if hasattr(fn, "kind")}
    steps = sum(r.lane == "payload" and r.kind in kinds for r in session.log.records)
    assert steps > 0 and w.calls["scaling.protocol_apply"] == steps


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


def golden_toy(harness, tmp_path):
    """The `toy` workload's model and twin, and its golden input."""
    wl = harness.WORKLOADS["toy"]
    model, twin = harness.set_up(wl, tmp_path / "model.bin")
    return wl, model, twin, harness.draw_inputs(wl, harness.DEFAULT_SEED)[0]


def test_the_gate_passes_the_golden_forward(bench_modules, tmp_path):
    # check_int reads the logits' payload through out.data.in_range().
    harness, _ = bench_modules
    wl, model, twin, toks = golden_toy(harness, tmp_path)
    out, log, _ = harness.int_forward(model, toks)
    ref_logits, _ = harness.fp32_forward(twin, toks)
    problems, mse = harness.check_int(wl, out, log, ref_logits)
    assert problems == [] and 0 < mse <= wl.mse_bound


def test_a_traced_forward_gives_the_untraced_digest(bench_modules, tmp_path):
    # With the view constructors and max_magnitude wrapped, a traced forward
    # and the benchmark's reads of its logits give the untraced bytes.  The
    # views are built only where the benchmark reads them: the digest and
    # the peak here, and the tracer's scale_match_dim probe, which reads
    # each operand's scale.
    harness, tracer = bench_modules
    wl, model, _, toks = golden_toy(harness, tmp_path)
    out_u, _, _ = harness.int_forward(model, toks)
    originals = (tensor.IntTensor.__init__, tensor.ScaleTensor.__init__, tensor.IntTensor.max_magnitude)
    t = tracer.Tracer(wl.config.n_layers)
    with t.installed(), t.window() as w:
        assert tensor.IntTensor.__init__ is not originals[0]
        assert tensor.ScaleTensor.__init__ is not originals[1]
        out_t, _, _ = harness.int_forward(model, toks)
        traced = harness.digest(out_t)
        peak = out_t.data.max_magnitude
    assert traced == harness.digest(out_u) == harness.golden_digests()["toy"]
    assert peak == int(np.abs(out_u.x).max())
    assert w.calls["tensor.IntTensor"] == 2
    assert w.calls["tensor.ScaleTensor"] == 1 + w.calls["scaling.scale_match_dim"]
    assert w.calls["tensor.IntTensor.max_magnitude"] == 1
    assert (tensor.IntTensor.__init__, tensor.ScaleTensor.__init__, tensor.IntTensor.max_magnitude) == originals
