"""Memory held by a model: parameter payloads at their container width."""
import tracemalloc

import numpy as np
import pytest

from intflow.analysis import resident_bytes
from intflow.modelfile import load_model, save_model
from intflow.tensor import container_dtype
from intflow.transformer import (
    LAYER_TENSORS,
    MODEL_TENSORS,
    ModelConfig,
    quantize_model,
    random_reference_model,
    ref_attn_core,
    reference_twin,
)

# The benchmark's `wide` workload: 2.1 MB as an int8 file.
WIDE = ModelConfig(d_m=256, heads=4, d_ff=1024, n_layers=2, vocab=1000)


def payload_dtypes(model) -> set:
    leaves = [getattr(lp, f) for lp in model.layers for f in LAYER_TENSORS]
    leaves += [getattr(model, f) for f in MODEL_TENSORS]
    return {t.x.dtype for t in leaves}


@pytest.fixture(scope="module")
def wide():
    return quantize_model(random_reference_model(WIDE, seed=0))


@pytest.mark.parametrize("precision, dtype", [(2, np.int8), (5, np.int8), (7, np.int8),
                                              (8, np.int16), (12, np.int16), (15, np.int16)])
def test_container_dtype(precision, dtype):
    assert container_dtype(precision) is dtype


@pytest.mark.parametrize("precision", [5, 7, 12, 15])
def test_quantized_payloads_have_their_container_dtype(precision):
    cfg = ModelConfig(d_m=16, heads=2, d_ff=32, vocab=24)
    model = quantize_model(random_reference_model(cfg, seed=1), precision=precision)
    assert payload_dtypes(model) == {np.dtype(container_dtype(precision))}


@pytest.mark.parametrize("precision", [5, 7])
def test_loaded_payloads_have_their_container_dtype(tmp_path, precision):
    cfg = ModelConfig(d_m=16, heads=2, d_ff=32, vocab=24)
    path = tmp_path / "m.int8"
    save_model(str(path), quantize_model(random_reference_model(cfg, seed=1), precision=precision))
    assert payload_dtypes(load_model(str(path))) == {np.dtype(np.int8)}


def test_wide_model_holds_a_quarter_of_its_fp32_twin(wide):
    # int8 payloads and float64 scales take 2.1 MB; the twin's float32 arrays 8.4 MB.
    assert resident_bytes(wide) == 2_142_960
    assert resident_bytes(reference_twin(wide)) == 8_359_936


def test_loading_the_wide_file_peaks_below_four_times_its_size(wide, tmp_path):
    # An int64 copy of each record alone would be 8x the file.
    path = tmp_path / "wide.int8"
    save_model(str(path), wide)
    size = path.stat().st_size
    tracemalloc.start()
    try:
        model = load_model(str(path))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * size
    assert payload_dtypes(model) == {np.dtype(np.int8)}


def test_loading_the_wide_file_holds_it_once(wide, tmp_path):
    # Records are read in place: the file's bytes, the float64 scales and
    # the array headers.  A copy of each record while parsing would be 2x.
    path = tmp_path / "wide.int8"
    save_model(str(path), wide)
    tracemalloc.start()
    try:
        model = load_model(str(path))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * path.stat().st_size
    assert payload_dtypes(model) == {np.dtype(np.int8)}


def test_twin_attention_peaks_below_three_score_buffers():
    # One float32 attention call on the benchmark's `longctx` shape at T=256:
    # Q, K, V and the output (T x d_m each, a quarter of T x T here), one
    # T x T score buffer, and the power's 64-row scratch or the W_o product
    # (a quarter each): 2.26 float32 T x T buffers.  A fresh T x T array for
    # each step of the score computation would take it to about five.
    cfg = ModelConfig(d_m=64, heads=8, d_ff=256, n_layers=1, vocab=256, precision=12)
    lp = random_reference_model(cfg, seed=0).layers[0]
    T = 256
    x = np.random.default_rng(0).normal(size=(T, cfg.d_m)).astype(np.float32)
    ref_attn_core(x, lp, cfg)  # the first BLAS calls may allocate for themselves
    tracemalloc.start()
    try:
        ref_attn_core(x, lp, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * T * T * np.dtype(np.float32).itemsize
