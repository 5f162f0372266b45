"""Transformer blocks: integer modules vs their FP32 twins, hybrid engine."""
import collections
import dataclasses
import functools
import hashlib
import itertools
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from intflow import cli
from intflow import scaling as scaling_module
from intflow import tensor as tensor_module
from intflow import transformer as transformer_module
from intflow.audit import FP32, PAYLOAD, SCALE, AuditRecord
from intflow.errors import (
    IntflowError,
    LaneOverflowError,
    PrecisionError,
    ScaleRangeError,
    ShapeError,
    ValidationError,
)
from intflow.modelfile import deserialize, save_model, serialize
from intflow.scaling import Precision, ScaleGranularity, Session, dequantize, init_scale, quantize
from intflow.tensor import RationalTensor, ScaledTensor, transpose
from intflow.transformer import (
    _add_const,
    _boost,
    ATTN,
    EMB,
    FFN,
    L1_NORM_CONST,
    LAYER_TENSORS,
    LN,
    MODEL_TENSORS,
    MODULES,
    PROJ,
    RES,
    ModelConfig,
    PolyParams,
    attn_core,
    ffn_core,
    forward,
    gather_embedding,
    l1_layer_norm,
    poly_attention,
    quantize_model,
    random_reference_model,
    ref_attn_core,
    ref_ffn_core,
    ref_l1ln,
    ref_poly,
    reference_forward,
    reference_twin,
)

from helpers import in_range, lane_of, poly, scaled

P = 12  # high enough that twin comparisons isolate structural errors


def q(values, p=P):
    r = np.asarray(values, dtype=np.float64)
    return quantize(r, init_scale(r, p)[0], p)


def rel_err(got, want):
    return np.linalg.norm(got - want) / max(np.linalg.norm(want), 1e-12)


# The benchmark's `longctx` shape: p=12, eight heads.
LONGCTX_SHAPED = ModelConfig(d_m=64, heads=8, d_ff=256, n_layers=2, vocab=256, precision=12)


@pytest.fixture(scope="module")
def toy():
    cfg = ModelConfig(d_m=16, heads=2, d_ff=32, n_layers=2, vocab=24, precision=P)
    ref = random_reference_model(cfg, seed=11)
    return cfg, ref, quantize_model(ref)


class TestConfig:
    def test_heads_must_divide_width(self):
        with pytest.raises(ValidationError):
            ModelConfig(d_m=10, heads=3)

    def test_degree_precision_product_guard(self):
        with pytest.raises(ValidationError):
            ModelConfig(degree=5, precision=15)

    @given(st.integers(2, 15), st.integers(1, 8), st.integers(0, 2**16), st.integers(1, 6))
    @settings(max_examples=200, deadline=None)
    # ReLU's zeros keep the unshrunk scale s^degree through the power, where
    # the offset constant once left the lane.
    @example(p=9, degree=6, seed=1024, seq_len=3)
    @example(p=9, degree=6, seed=97, seq_len=3)
    @example(p=9, degree=6, seed=180, seq_len=4)
    @example(p=9, degree=6, seed=190, seq_len=3)
    @example(p=9, degree=6, seed=263, seq_len=4)
    def test_every_admitted_config_runs(self, p, degree, seed, seq_len):
        # The check admits a (precision, degree) pair only if a token forward
        # fits the lane: x^degree of a bias-shifted payload of p + 1 bits.
        try:
            cfg = ModelConfig(d_m=4, heads=1, d_ff=8, n_layers=1, vocab=8, precision=p, degree=degree)
        except ValidationError:
            assume(False)
        model = quantize_model(random_reference_model(cfg, seed))
        tokens = np.random.default_rng(seed).integers(0, cfg.vocab, seq_len)
        out = forward(model, Session(), tokens=tokens)
        assert in_range(out)

    @pytest.mark.parametrize("field, value", [
        ("d_m", 0), ("heads", 0), ("heads", -2), ("d_ff", 0), ("vocab", 0),
        ("n_layers", -1), ("precision", 1), ("precision", 16),
    ])
    def test_every_hyper_parameter_is_checked(self, field, value):
        with pytest.raises(ValidationError, match=field):
            ModelConfig(**{field: value})

    def test_poly_degree_positive(self):
        with pytest.raises(ValidationError):
            ModelConfig(degree=0)

    def test_l1ln_shape_check(self):
        with pytest.raises(ShapeError):
            ref_l1ln(np.ones((2, 3)), np.ones(3), np.ones(4))
        with pytest.raises(ShapeError):
            ref_l1ln(np.ones((2, 3)), np.ones((1, 3)), np.ones((1, 3)))


class TestPoly:
    def test_matches_reference(self):
        rng = np.random.default_rng(0)
        pp = PolyParams(bias=0.5, offset=0.1)
        scores = rng.normal(size=(5, 5))
        sess = Session()
        out = dequantize(poly(q(scores), pp, 3, sess)).values
        assert rel_err(out, ref_poly(scores, pp, 3)) < 1e-2

    def test_all_below_threshold_keeps_offset(self):
        pp = PolyParams(bias=0.5, offset=0.1)
        scores = np.full((4, 4), -3.0)
        sess = Session()
        out = dequantize(poly(q(scores), pp, 3, sess)).values
        assert np.all(out > 0)

    def test_stays_on_integer_lane(self):
        sess = Session()
        poly(q(np.ones((3, 3))), PolyParams(), 3, sess)
        assert sess.log.integer_pure()


class TestPolyAttention:
    def test_matches_reference(self):
        rng = np.random.default_rng(1)
        T, dh, dm = 6, 8, 16
        pp = PolyParams(bias=0.5, offset=0.1)
        qv, kv, vv = (rng.normal(size=(T, dh)) for _ in range(3))
        sess = Session()
        out = dequantize(poly_attention(q(qv), q(kv), transpose(q(vv), (1, 0)), pp, 3, dm, sess).seal()).values
        scores = (qv @ kv.T) / math.sqrt(dm)
        w = ref_poly(scores, pp, 3)
        want = (w @ vv) / np.sum(w, axis=-1, keepdims=True)
        assert rel_err(out, want) < 1e-2

    def test_output_in_logical_range(self):
        rng = np.random.default_rng(2)
        sess = Session()
        out = poly_attention(
            q(rng.normal(size=(5, 4))), q(rng.normal(size=(5, 4))),
            transpose(q(rng.normal(size=(5, 4))), (1, 0)), PolyParams(), 3, 16, sess,
        ).seal()
        assert in_range(out)

    def test_degenerate_scores_give_row_average(self):
        # Every score lands far below -bias, so the polynomial part dies and
        # only the uniform offset survives: the output is the mean of V rows.
        pp = PolyParams(bias=0.5, offset=0.1)
        T, dh = 4, 3
        qv = np.tile([[3.0, 0.0, 1.0]], (T, 1))
        kv = np.tile([[-3.0, 0.0, -1.0]], (T, 1))
        rng = np.random.default_rng(3)
        vv = rng.normal(size=(T, dh))
        vv[:, 0] = 1.0  # equal row maxima -> identical per-row scales
        v_q = q(vv)
        sess = Session()
        out = poly_attention(q(qv), q(kv), transpose(v_q, (1, 0)), pp, 3, 16, sess).seal()
        got = dequantize(out).values
        want = np.tile(np.mean(dequantize(v_q).values, axis=0), (T, 1))
        bound = 2.0 / np.min(out.s)
        assert np.max(np.abs(got - want)) <= bound


class TestScaleOverflowOutsideKernels:
    """Scales grown outside the kernels (the 1/sqrt(d_m) fold, the boost
    before a division, the L1 norm constant) raise ScaleRangeError on
    overflow, with no numpy warning first."""

    @staticmethod
    def raises_quietly(fn):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ScaleRangeError, match="finite"):
                fn()

    @staticmethod
    def at(scale, data=((1,),)):
        return scaled(data, np.full((len(data), 1), scale), P)

    def test_fold_overflow(self):
        # 1e154 * 1e154 is finite; the fold by sqrt(16) is not.
        t = self.at(1e154)
        self.raises_quietly(
            lambda: poly_attention(t, t, transpose(t, (1, 0)), PolyParams(), 3, 16, Session())
        )

    def test_boost_overflow(self):
        session = Session()
        lane = lane_of(self.at(1e300), session.workspace)
        self.raises_quietly(lambda: _boost(lane, session, "Attn"))

    def test_layer_norm_constant_overflow(self):
        n = 4
        x = self.at(1e308, [[1, -2, 3, 5]])
        self.raises_quietly(
            lambda: l1_layer_norm(x, q(np.ones(n)), q(np.zeros(n)), Session())
        )


class TestPolynomialConstantOverflow:
    """A finite polynomial constant whose quantized payload passes float64
    is refused as one that only leaves the lane is, with a
    LaneOverflowError and no numpy warning; all-zero groups are refit."""

    @pytest.mark.parametrize("field", ["bias", "offset"])
    @pytest.mark.parametrize("value", [1e300, 1e306, 1e308, -1e308])
    def test_forward_refuses_it_typed_and_quietly(self, field, value):
        cfg = ModelConfig(d_m=8, heads=2, d_ff=16, n_layers=1, vocab=16)
        ref = random_reference_model(cfg, seed=0)
        ref = dataclasses.replace(ref, layers=tuple(
            dataclasses.replace(lp, poly=dataclasses.replace(lp.poly, **{field: value}))
            for lp in ref.layers))
        model = quantize_model(ref)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(LaneOverflowError, match="quantized payload exceeds accumulator lane"):
                forward(model, Session(), tokens=np.arange(6))

    def test_an_all_zero_group_is_refit(self):
        # Row 0 is all zero at a scale where 1e306 passes float64: it moves
        # to 127 / 1e306, where the constant is 127.  Row 1 keeps its scale.
        session = Session()
        lane = lane_of(scaled([[0, 0], [3, 4]], [[1e3], [1e-300]]), session.workspace)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = _add_const(lane, 1e306, session).seal()
        assert out.s[0, 0] == 127 / 1e306 and out.s[1, 0] < 1e-300
        assert out.x[0].tolist() == [127, 127]


class TestL1LayerNorm:
    def test_matches_reference(self):
        rng = np.random.default_rng(4)
        n = 16
        g, b = rng.uniform(0.8, 1.2, n), rng.normal(0, 0.05, n)
        x = rng.normal(size=(5, n))
        sess = Session()
        out = dequantize(l1_layer_norm(q(x), q(g), q(b), sess)).values
        assert rel_err(out, ref_l1ln(x, g, b)) < 1e-2

    def test_constant_rows_degenerate_to_bias(self):
        n = 8
        x = np.full((3, n), 5.0)
        sess = Session()
        out = dequantize(l1_layer_norm(q(x), q(np.ones(n)), q(np.full(n, 0.25)), sess)).values
        assert np.allclose(out, 0.25, atol=1e-3)
        # The FP32 twin maps a constant row to its bias exactly.
        assert np.array_equal(ref_l1ln(x, np.ones(n), np.full(n, 0.25)), np.full((3, n), 0.25))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_twin_row_with_a_non_finite_value_stays_non_finite(self, bad):
        # Such a row once came out as its bias, [0.5] * 4, as a constant
        # row does; only the row that holds the value is touched.
        x = np.arange(12, dtype=np.float64).reshape(3, 4)
        x[1, 2] = bad
        with np.errstate(invalid="ignore"):  # inf - inf while centering
            out = ref_l1ln(x, np.ones(4), np.full(4, 0.5))
        assert not np.isfinite(out[1]).any()
        assert np.array_equal(out[[0, 2]], ref_l1ln(x[[0, 2]], np.ones(4), np.full(4, 0.5)))

    def test_width_mismatch(self):
        g, b = np.ones(4), np.zeros(4)
        sess = Session()
        with pytest.raises(ShapeError):
            l1_layer_norm(q(np.ones((2, 6))), q(g), q(b), sess)
        # A bias of the wrong width would broadcast silently; it is refused.
        with pytest.raises(ShapeError):
            l1_layer_norm(q(np.ones((2, 4))), q(g), q(np.zeros(1)), sess)
        with pytest.raises(ShapeError):
            ref_l1ln(np.ones((2, 6)), g, b)
        with pytest.raises(ShapeError):
            ref_l1ln(np.ones((2, 4)), g, np.zeros(1))

    def test_stays_on_integer_lane(self):
        rng = np.random.default_rng(5)
        n = 8
        sess = Session()
        l1_layer_norm(q(rng.normal(size=(3, n))), q(np.ones(n)), q(np.zeros(n)), sess)
        assert sess.log.integer_pure()


class TestCores:
    def test_attn_core_matches_reference(self, toy):
        cfg, ref, model = toy
        rng = np.random.default_rng(6)
        x = rng.normal(size=(6, cfg.d_m))
        sess = Session()
        out = dequantize(attn_core(q(x), model.layers[0], cfg, sess)).values
        want = ref_attn_core(x, reference_twin(model).layers[0], cfg)
        assert rel_err(out, want) < 2e-2

    def test_ffn_core_matches_reference(self, toy):
        cfg, ref, model = toy
        rng = np.random.default_rng(7)
        x = rng.normal(size=(6, cfg.d_m))
        sess = Session()
        out = dequantize(ffn_core(q(x), model.layers[0], sess)).values
        want = ref_ffn_core(x, reference_twin(model).layers[0])
        assert rel_err(out, want) < 2e-2


def _power_product(w, degree):
    """w * w * ... * w, `degree` factors taken left to right."""
    return functools.reduce(np.multiply, [w] * degree)


class TestTwinInPlace:
    """The FP32 twin works in buffers of its own: it writes none of its
    inputs (forward reads the LN input again as the residual, and the
    parameters serve every call), and each step stays bit for bit the
    out-of-place formula."""

    @staticmethod
    def _writable_layer(lp):
        return dataclasses.replace(lp, **{f: np.array(getattr(lp, f)) for f in LAYER_TENSORS})

    @pytest.mark.parametrize("step", ["ref_l1ln", "ref_attn_core", "ref_ffn_core", "ref_poly"])
    def test_inputs_are_not_written(self, toy, step):
        cfg, ref, _ = toy
        lp = self._writable_layer(ref.layers[0])
        x = np.random.default_rng(8).normal(size=(6, cfg.d_m))
        run, arrays = {
            "ref_l1ln": (lambda: ref_l1ln(x, lp.ln1_g, lp.ln1_b), [x, lp.ln1_g, lp.ln1_b]),
            "ref_attn_core": (lambda: ref_attn_core(x, lp, cfg),
                              [x, lp.w_q, lp.w_k, lp.w_v, lp.w_o]),
            "ref_ffn_core": (lambda: ref_ffn_core(x, lp), [x, lp.w1, lp.b1, lp.w2, lp.b2]),
            "ref_poly": (lambda: ref_poly(x, lp.poly, cfg.degree), [x]),
        }[step]
        before = [a.tobytes() for a in arrays]
        out = run()
        assert not any(np.shares_memory(out, a) for a in arrays)
        assert [a.tobytes() for a in arrays] == before

    @pytest.mark.parametrize("degree", [1, 2, 3, 4, 7])
    @pytest.mark.parametrize("pp", [PolyParams(), PolyParams(bias=0.37, offset=-0.12)])
    @pytest.mark.parametrize("rows, dtype", [(33, np.float64), (33, np.float32), (130, np.float32)])
    def test_ref_poly_into_its_input_is_bit_identical(self, degree, pp, rows, dtype):
        # 33 columns: an odd length exercises the vector loops' tails; 130
        # rows are two full blocks of the power's scratch and a tail of two.
        x = np.random.default_rng(degree).normal(size=(rows, 33)).astype(dtype)
        want = ref_poly(x, pp, degree)
        assert want.dtype == dtype
        assert want.tobytes() == (_power_product(np.maximum(x + pp.bias, 0.0), degree)
                                  + abs(pp.offset)).tobytes()
        got = x.copy()
        assert ref_poly(got, pp, degree, out=got) is got
        assert got.tobytes() == want.tobytes()

    def test_attention_weights_go_through_ref_poly(self, toy, monkeypatch):
        import intflow.transformer as T

        cfg, ref, _ = toy
        x = np.random.default_rng(9).normal(size=(6, cfg.d_m))
        seen = []

        def spy(scores, pp, degree, out=None):
            seen.append(out is scores and scores.shape == (6, 6))
            return ref_poly(scores, pp, degree, out=out)

        monkeypatch.setattr(T, "ref_poly", spy)
        ref_attn_core(x, ref.layers[0], cfg)
        assert seen == [True] * cfg.heads

    @staticmethod
    def _out_of_place(step, x, lp, cfg):
        """Each twin step as plain expressions, one temporary per operation."""
        if step == "ref_l1ln":
            c = x - np.mean(x, axis=-1, keepdims=True)
            den = L1_NORM_CONST * np.mean(np.abs(c), axis=-1, keepdims=True)
            return lp.ln1_g * np.where(den > 0, c / np.where(den > 0, den, 1.0), 0.0) + lp.ln1_b
        if step == "ref_ffn_core":
            return np.maximum(x @ lp.w1.T + lp.b1, 0.0) @ lp.w2.T + lp.b2
        d_h = cfg.d_m // cfg.heads
        q, k, v = x @ lp.w_q.T, x @ lp.w_k.T, x @ lp.w_v.T
        outs = []
        for h in range(cfg.heads):
            sl = slice(h * d_h, (h + 1) * d_h)
            scores = (q[:, sl] @ k[:, sl].T) / math.sqrt(cfg.d_m)
            w = _power_product(np.maximum(scores + lp.poly.bias, 0.0), cfg.degree) + abs(lp.poly.offset)
            outs.append((w @ v[:, sl]) / np.sum(w, axis=-1, keepdims=True))
        return np.concatenate(outs, axis=1) @ lp.w_o.T

    @pytest.mark.parametrize("step", ["ref_l1ln", "ref_attn_core", "ref_ffn_core"])
    @pytest.mark.parametrize("cfg, T", [
        (ModelConfig(d_m=16, heads=2, d_ff=32, degree=2), 7),
        (ModelConfig(d_m=12, heads=1, d_ff=20, degree=5), 1),
        (LONGCTX_SHAPED, 256),
    ])
    def test_each_step_is_its_out_of_place_formula(self, step, cfg, T):
        lp = random_reference_model(cfg, seed=3).layers[0]
        x = np.random.default_rng(T).normal(size=(T, cfg.d_m)).astype(np.float32)
        x[0] = 2.5  # a constant row: the layer norm's degenerate case
        got = {
            "ref_l1ln": lambda: ref_l1ln(x, lp.ln1_g, lp.ln1_b),
            "ref_attn_core": lambda: ref_attn_core(x, lp, cfg),
            "ref_ffn_core": lambda: ref_ffn_core(x, lp),
        }[step]()
        assert got.tobytes() == self._out_of_place(step, x, lp, cfg).tobytes()


class TestEmbedding:
    def test_gather_rows(self, toy):
        cfg, ref, model = toy
        sess = Session()
        out = gather_embedding(model, np.array([0, 3, 0]), sess)
        want = dequantize(model.embedding).values[[0, 3, 0]]
        assert np.array_equal(dequantize(out).values, want)

    def test_rejects_out_of_vocab(self, toy):
        cfg, ref, model = toy
        sess = Session()
        with pytest.raises(ValidationError):
            gather_embedding(model, np.array([cfg.vocab]), sess)

    @pytest.mark.parametrize("tokens", [np.array([0.5, 1.7]), np.array([0.0, 1.0]), np.array([True])])
    def test_rejects_non_integer_ids(self, toy, tokens):
        cfg, ref, model = toy
        with pytest.raises(ValidationError, match="integers"):
            gather_embedding(model, tokens, Session())
        with pytest.raises(ValidationError, match="integers"):
            reference_forward(ref, tokens=tokens)


class TestHybridEngine:
    def test_full_integer_run_is_pure(self, toy):
        cfg, ref, model = toy
        sess = Session()
        out = forward(model, sess, tokens=np.arange(8) % cfg.vocab)
        assert out.shape == (8, cfg.vocab)
        assert sess.log.integer_pure()

    def test_empty_module_set_equals_reference_exactly(self, toy):
        cfg, ref, model = toy
        tok = np.arange(8) % cfg.vocab
        sess = Session()
        out = forward(model, sess, tokens=tok, int_modules=frozenset(), ref=ref)
        want = reference_forward(ref, tokens=tok)
        assert np.array_equal(out.values, want.values)

    @pytest.mark.parametrize("module", MODULES)
    def test_single_module_runs_close_to_reference(self, toy, module):
        cfg, ref, model = toy
        tok = np.arange(8) % cfg.vocab
        sess = Session()
        out = forward(model, sess, tokens=tok, int_modules=frozenset({module}), ref=reference_twin(model))
        got = out.values if isinstance(out, RationalTensor) else dequantize(out).values
        want = reference_forward(reference_twin(model), tokens=tok).values
        assert rel_err(got, want) < 5e-2

    def test_hidden_input_skips_embedding_and_projection(self, toy):
        cfg, ref, model = toy
        rng = np.random.default_rng(9)
        x = rng.normal(size=(5, cfg.d_m))
        sess = Session()
        h = sess.quantize(x, init_scale(x, P)[0], P)
        out = forward(model, sess, hidden=h)
        assert out.shape == (5, cfg.d_m)

    def test_tiny_hidden_row_runs(self, toy):
        # (2^p - 1) / 1e-300 overflows float32; the scale is clamped instead.
        cfg, ref, model = toy
        x = np.random.default_rng(3).normal(size=(4, cfg.d_m))
        x[1] = 1e-300
        out = forward(model, Session(), hidden=x)
        assert out.shape == (4, cfg.d_m)
        assert np.all(np.isfinite(out.s))

    def test_unknown_module_tag(self, toy):
        cfg, ref, model = toy
        with pytest.raises(ValidationError):
            forward(model, Session(), tokens=np.array([0]),
                    int_modules=frozenset({"Bogus"}))

    @pytest.mark.parametrize("int_modules", [frozenset(), frozenset({LN, RES}), frozenset({ATTN})])
    def test_fp32_modules_need_the_twin_from_the_caller(self, toy, int_modules):
        # forward builds no twin of its own: the caller passes it as `ref`.
        cfg, ref, model = toy
        session = Session()
        with pytest.raises(ValidationError, match="^FP32 modules need a reference model$"):
            forward(model, session, tokens=np.arange(4), int_modules=int_modules)
        assert not session.log.records

    @pytest.mark.parametrize("int_modules", [frozenset(), frozenset({LN, RES})])
    def test_reference_must_cover_every_layer(self, toy, int_modules):
        cfg, ref, model = toy
        short = dataclasses.replace(ref, layers=ref.layers[:-1])
        with pytest.raises(ValueError):
            forward(model, Session(), tokens=np.arange(4),
                    int_modules=int_modules, ref=short)

    def test_requires_some_input(self, toy):
        cfg, ref, model = toy
        with pytest.raises(ValidationError):
            forward(model, Session())

    @pytest.mark.parametrize("tokens, message", [
        (np.zeros(0, dtype=np.int64), "token ids are empty"),
        (np.zeros(0, dtype=np.uint8), "token ids are empty"),
        (np.zeros((2, 3), dtype=np.int64), r"1-D array, got shape \(2, 3\)"),
        (np.array(1), r"1-D array, got shape \(\)"),
    ])
    def test_refuses_empty_or_wrong_rank_tokens(self, toy, tokens, message):
        cfg, ref, model = toy
        with pytest.raises(ValidationError, match=message):
            forward(model, Session(), tokens=tokens)
        with pytest.raises(ValidationError, match=message):
            reference_forward(ref, tokens=tokens)

    @pytest.mark.parametrize("shape, message", [
        ((0, 16), "hidden input is empty"),
        ((4,), r"T x 16, got \(4,\)"),
        ((1, 4, 16), r"T x 16, got \(1, 4, 16\)"),
        ((4, 15), r"T x 16, got \(4, 15\)"),
    ])
    def test_refuses_empty_or_misshapen_hidden(self, toy, shape, message):
        cfg, ref, model = toy
        assert cfg.d_m == 16
        x = np.ones(shape)
        with pytest.raises(ValidationError, match=message):
            forward(model, Session(), hidden=x)
        with pytest.raises(ValidationError, match=message):
            reference_forward(ref, hidden=x)

    def test_session_at_another_precision_is_refused(self, toy):
        # A session that claims p=7 for a p=12 model is refused; one that
        # claims nothing runs at the model's precision, as one claiming it does.
        cfg, ref, model = toy
        for p in (7, 13):
            with pytest.raises(ValidationError, match=f"session precision {p} differs"):
                forward(model, Session(Precision(p)), tokens=np.arange(4))
            with pytest.raises(ValidationError, match="differs"):
                forward(model, Session(Precision(p)), tokens=np.arange(4),
                        int_modules=frozenset({LN, RES}), ref=ref)
        claimed = forward(model, Session(Precision(P)), tokens=np.arange(4))
        out = forward(model, Session(), tokens=np.arange(4))
        assert out.precision == claimed.precision == P
        assert out.x.tobytes() == claimed.x.tobytes()
        assert out.s.tobytes() == claimed.s.tobytes()

    def test_hidden_input_at_another_precision_is_refused(self, toy):
        cfg, ref, model = toy
        x = np.random.default_rng(4).normal(size=(3, cfg.d_m))
        for p in (7, P):
            h = quantize(x, init_scale(x, p)[0], p)
            run = functools.partial(forward, model, Session(), hidden=h)
            if p == P:
                assert run().shape == (3, cfg.d_m)
            else:
                with pytest.raises(ValidationError, match="hidden input precision 7 differs"):
                    run()

    def test_fp_states_enter_the_integer_path_without_a_float64_copy(self, toy, monkeypatch):
        # An FP step's float32 result is quantized as it is: the only
        # RationalTensor built from float32 values is the forward's result.
        cfg, ref, model = toy
        built = []
        check = RationalTensor.__post_init__

        def counting(self):
            built.append(np.asarray(self.values).dtype)
            check(self)

        monkeypatch.setattr(RationalTensor, "__post_init__", counting)
        out = forward(model, Session(), tokens=np.arange(6), int_modules=frozenset({LN, RES}),
                      ref=reference_twin(model))
        assert isinstance(out, RationalTensor)
        assert built.count(np.float32) == 1

    def test_tap_visits_every_module(self, toy):
        cfg, ref, model = toy
        seen = []
        sess = Session()
        forward(model, sess, tokens=np.arange(4), tap=lambda t, l, s: seen.append((t, l)))
        tags = {t for t, _ in seen}
        assert tags == set(MODULES)
        assert (RES, cfg.n_layers - 1) in seen

    def test_steps_are_looked_up_when_they_run(self, toy, monkeypatch):
        # Tracers wrap the module functions from outside; forward must call
        # whatever the module holds at call time.
        import intflow.transformer as T

        cfg, ref, model = toy
        calls = {}
        for name in ("gather_embedding", "l1_layer_norm", "attn_core", "ffn_core", "residual_add"):
            def counted(*args, _fn=getattr(T, name), _name=name, **kwargs):
                calls[_name] = calls.get(_name, 0) + 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(T, name, counted)
        forward(model, Session(), tokens=np.arange(4))
        n = cfg.n_layers
        assert calls == {"gather_embedding": 1, "l1_layer_norm": 2 * n + 1,
                         "attn_core": n, "ffn_core": n, "residual_add": 2 * n}



class TestZeroOperandAbsorption:
    """An all-zero scale group must not drag its partner's scale down when
    scales are matched.  On the default p=7 model against its FP32 twin the
    max |error| reads 0.17-0.24 on inputs with no zero group, 0.12-0.35 on
    the inputs below, and 1.35-3.8 where a zero group got scale 1.0."""

    BOUND = 0.5

    @staticmethod
    def _max_err(model, **inputs):
        out = forward(model, Session(), **inputs)
        want = reference_forward(reference_twin(model), **inputs).values
        return np.max(np.abs(dequantize(out).values - want))

    def test_zero_ffn_bias(self):
        ref = random_reference_model(ModelConfig(), seed=0)
        ref = dataclasses.replace(ref, layers=tuple(
            dataclasses.replace(lp, b1=np.zeros_like(lp.b1)) for lp in ref.layers))
        model = quantize_model(ref)
        assert self._max_err(model, tokens=np.arange(12) % model.config.vocab) < self.BOUND

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_zero_hidden_row(self, seed):
        model = quantize_model(random_reference_model(ModelConfig(), seed=0))
        x = np.random.default_rng(seed).normal(size=(4, model.config.d_m))
        x[1] = 0.0
        assert self._max_err(model, hidden=x) < self.BOUND

    def test_all_zero_hidden_input(self):
        model = quantize_model(random_reference_model(ModelConfig(), seed=0))
        x = np.zeros((4, model.config.d_m))
        assert self._max_err(model, hidden=x) < self.BOUND

class TestModelRoundTrips:
    def test_reference_twin_equals_dequantized_weights(self, toy):
        # Each de-quantized parameter rounded to float32: within half a
        # float32 ulp of x / s, not always equal to it.
        cfg, ref, model = toy
        twin = reference_twin(model)
        for got, t in ((twin.layers[0].w_q, model.layers[0].w_q), (twin.embedding, model.embedding)):
            exact = dequantize(t).values
            assert got.dtype == np.float32
            assert np.array_equal(got, exact.astype(np.float32))
            assert np.all(np.abs(got - exact) <= 2.0**-24 * np.abs(exact))

    def test_quantize_model_respects_requested_precision(self, toy):
        cfg, ref, model = toy
        m5 = quantize_model(ref, precision=5)
        assert m5.config.precision == 5
        assert m5.embedding.max_magnitude <= 31


def _hash_arrays(h, *arrays) -> None:
    """Feed each array's dtype, shape and bytes to the hash `h`."""
    for arr in arrays:
        arr = np.ascontiguousarray(arr)
        h.update(f"{arr.dtype.str}{arr.shape}".encode())
        h.update(arr.tobytes())


def _digest(t) -> str:
    """sha256 over the dtypes, shapes and bytes of a payload and its scales."""
    h = hashlib.sha256()
    _hash_arrays(h, t.x, t.s)
    return h.hexdigest()


class TestGoldenLogits:
    """Pinned integer logits: a speed change must leave payloads and scales
    bit-identical."""

    @pytest.mark.parametrize("precision, want", [
        (7, "5436c98b7cc2e948f21d48f3c4b01e9227af4429a1e516fea01cb54dcbf82e64"),
        (12, "2d44ce25760b044e831c0677e6b9fa38591b3e8998d4ccd94015ecc2f2667a65"),
    ])
    def test_forward_digest(self, precision, want):
        cfg = ModelConfig(precision=precision)
        model = quantize_model(random_reference_model(cfg, seed=0))
        session = Session()
        logits = forward(model, session, tokens=np.arange(12) % cfg.vocab)
        assert _digest(logits) == want

    def test_longctx_shaped_digest(self):
        # p=12, eight heads and T=64: every attention weight carries its own
        # scale, so this pins the per-element scale calculus on T x T tensors.
        cfg = LONGCTX_SHAPED
        model = quantize_model(random_reference_model(cfg, seed=0))
        session = Session()
        logits = forward(model, session, tokens=np.arange(64))
        assert _digest(logits) == (
            "4e388b3b621508b3e42852e9ca10bb9334397ef0ae015c7e6f278fb21418ad33"
        )


def test_default_session_runs_the_longctx_shaped_model():
    # Session() holds no precision: every step shrinks to its lane's, the
    # model's p=12, bit for bit as under a session that claims it; a claim
    # of p=7 is refused.
    model = quantize_model(random_reference_model(LONGCTX_SHAPED, seed=0))
    tokens = np.arange(32)

    def run(session):
        out = forward(model, session, tokens=tokens)
        return out.x.tobytes(), out.s.tobytes(), repr(session.log.records)

    assert run(Session()) == run(Session(Precision(12)))
    with pytest.raises(ValidationError, match="session precision 7 differs"):
        forward(model, Session(Precision(7)), tokens=tokens)


@pytest.mark.parametrize("precision, degree, seed", [(3, 2, 1), (2, 3, 2)])
def test_zero_weight_sum_is_a_precision_error(precision, degree, seed):
    # An integer attention inside a float hybrid, at one scale per
    # sequence: the T x T weights share one scale, the shrink after the
    # offset add divides them all by one divisor, and a row of small weights
    # truncates to a zero sum.  int_div refuses it as a PrecisionError, a
    # ValueError too, so the CLI exits 2.
    cfg = ModelConfig(d_m=16, heads=2, d_ff=32, n_layers=2, vocab=16, precision=precision,
                      degree=degree, granularity=ScaleGranularity.PER_BATCH)
    model = quantize_model(random_reference_model(cfg, seed))
    tokens = np.random.default_rng(1).integers(0, 16, 10)
    with pytest.raises(PrecisionError, match="divisor must be strictly positive"):
        forward(model, Session(), tokens=tokens, int_modules=frozenset({ATTN}), ref=reference_twin(model))


class TestEveryPrecisionDigest:
    """Payloads, scales and audit records of a small forward from tokens and
    one from a hidden input, pinned at every precision: each precision forms
    its shrink divisors with its own constants.  W_q and W_k are grown three
    times, so that the attention shrinks its T x T lanes hard.  p = 5 and
    p = 15 also run per batch, which only the hidden input's scale follows:
    it enters quantized, so that no conversion is in the records."""

    @pytest.mark.parametrize("precision, granularity, want", [
        (2, "row", "2cb28f05357cb551193d5c1dbf9d44aa403b0515d8522d8dc2f1a6209fd3a81e"),
        (3, "row", "188737c63c54ae124cddaf7a78bd6673584a8e3b2a8f53e3e518917b1594edf6"),
        (4, "row", "405c02bbef4411ed0d5b5bf992f86d82e47ff755f584f7a0bfb6d91bf848bb86"),
        (5, "b", "7be7f6eeecfd5c58ed4f72e3e1101bc3b7e41caa16c0b40ba4061a4b2ca02cf9"),
        (5, "row", "2022727a959852fd0e6910d9d31801becd863587a6b7e5f330e40462e1d9b10c"),
        (6, "row", "46cd4ef3105d52b021058586a90cd8a888893e4e480393f001baa7b33e86bb80"),
        (7, "row", "4f604c000f94b59dd457037ec44350b31446d99e557670212a01c0e3111cd5de"),
        (8, "row", "ca0659cb5df2537a0d7efb9e21967e7705d09b857c5a76ec152420c6924e49c0"),
        (9, "row", "d2ce39d1880e430a585e3cd835823e6ea33e03a583c9bfe46e7e790a0a95afa8"),
        (10, "row", "079f48ff73d529dd19f7e0e6f3c8b51d81adf9557fb4fcdd3599fdc3e824f845"),
        (11, "row", "b8aa5f5f27e555d77645c7607ff235737f57aef16f09e972ec4c1dab22be5528"),
        (12, "row", "37a138b7375540d0bfe4dc45df20e7eccccf85ff1a7c00277b155a469a3fd4ec"),
        (13, "row", "e698a69711b27f2e532cf195728c4887b970c0168f6f56c81626a1d18608a94e"),
        (14, "row", "6dbc20b77203339e1ff32b804b96ff137f581ad4c702da040ac16123b5ad2f30"),
        (15, "b", "2403b27e913dc70dc36b417cab543acdbbf82b3f94a9a2406ccc6d5b855666a5"),
        (15, "row", "57f8cebd00ebaa79c6fa86ed9ecb9b63ffb4cd4028e46c9a9eb4e53c963db6d4"),
    ])
    def test_forward_digest(self, precision, granularity, want):
        cfg = ModelConfig(d_m=16, heads=2, d_ff=32, n_layers=2, vocab=32, precision=precision,
                          granularity=ScaleGranularity(granularity))
        ref = random_reference_model(cfg, seed=precision)
        ref = dataclasses.replace(ref, layers=tuple(
            dataclasses.replace(lp, w_q=3 * lp.w_q, w_k=3 * lp.w_k) for lp in ref.layers))
        model = quantize_model(ref)
        r = np.random.default_rng(precision).normal(size=(16, cfg.d_m))
        hidden = quantize(r, init_scale(r, precision, cfg.granularity)[0], precision)
        h = hashlib.sha256()
        for inputs in ({"tokens": np.arange(16) % cfg.vocab}, {"hidden": hidden}):
            session = Session()
            out = forward(model, session, **inputs)
            _hash_arrays(h, out.x, out.s)
            h.update(repr([tuple(r) for r in session.log.records]).encode())
        assert h.hexdigest() == want


class TestPerTensorProjections:
    """Projection weights held per tensor, each with one (1, 1) scale, as an
    SPQ1 file may store them: Q and K then reach _match_heads collapsed
    along the columns, and V, collapsed along its rows once transposed,
    runs the heads one at a time (_group_size).  Pinned at b537edd."""

    CFG = ModelConfig(d_m=16, heads=4, d_ff=32, n_layers=2, vocab=32, precision=7)
    MATRICES = ("w_q", "w_k", "w_v", "w_o", "w1", "w2")

    @classmethod
    def _model(cls):
        p = cls.CFG.precision

        def per_tensor(t):
            values = dequantize(t).values
            s, scale_range = init_scale(values, p, ScaleGranularity.PER_BATCH)
            u = quantize(values, s, p, scale_range)
            return ScaledTensor.param(u.x, u.s, p, u.max_bound, (u.lo, u.hi))

        model = quantize_model(random_reference_model(cls.CFG, seed=5))
        model = dataclasses.replace(model, proj=per_tensor(model.proj), layers=tuple(
            dataclasses.replace(lp, **{name: per_tensor(getattr(lp, name)) for name in cls.MATRICES})
            for lp in model.layers))
        # Through the file: the loader keeps each (1, 1) scale record.
        return deserialize(serialize(model))

    def test_digest(self, monkeypatch):
        model = self._model()
        assert model.proj.s.shape == (1, 1)
        assert all(getattr(lp, name).s.shape == (1, 1) for lp in model.layers for name in self.MATRICES)
        calls = []
        attend = transformer_module.poly_attention
        monkeypatch.setattr(transformer_module, "poly_attention",
                            lambda *args, **kwargs: calls.append(kwargs["groups"]) or attend(*args, **kwargs))
        r = np.random.default_rng(6).normal(size=(9, self.CFG.d_m))
        h = hashlib.sha256()
        for inputs in ({"tokens": np.arange(9) % self.CFG.vocab}, {"hidden": r}):
            session = Session()
            out = forward(model, session, **inputs)
            _hash_arrays(h, out.x, out.s)
            h.update(repr(session.log.records).encode())
        assert calls == [1] * (2 * self.CFG.heads * self.CFG.n_layers)
        assert h.hexdigest() == (
            "81eb69614ae7ffbf10dc7c1ab1060a1fa0fbe5da2643ac7e26ccfb4e21e84d2a"
        )


class TestGoldenAuditAndHybrid:
    """Pinned audit log and LN+Res hybrid output: removing per-op overhead
    must leave every audited op and every hybrid logit bit-identical."""

    @staticmethod
    def _model(precision):
        cfg = ModelConfig(precision=precision)
        return cfg, quantize_model(random_reference_model(cfg, seed=0))

    @pytest.mark.parametrize("precision", [7, 12])
    def test_audit_log_digest(self, precision):
        cfg, model = self._model(precision)
        session = Session()
        forward(model, session, tokens=np.arange(12) % cfg.vocab)
        records = [(r.kind, r.lane, r.elements, r.rescaled, r.module)
                   for r in session.log.records]
        # Both heads of a layer run as one group: 240 records before, with
        # one per head and a concat per layer.
        assert len(records) == 192
        assert hashlib.sha256(repr(records).encode()).hexdigest() == (
            "c30ed7062d8742991767f81b937801ca37d98c54ce4082822d609ed827d9bfd3"
        )

    def test_longctx_shaped_audit_digest(self):
        # The config of TestGoldenLogits.test_longctx_shaped_digest: pins the
        # record order across the per-head attention loop.
        cfg = LONGCTX_SHAPED
        model = quantize_model(random_reference_model(cfg, seed=0))
        session = Session()
        forward(model, session, tokens=np.arange(64))
        records = [(r.kind, r.lane, r.elements, r.rescaled, r.module)
                   for r in session.log.records]
        # All eight heads of a layer run as one group (64 x 64 scores each):
        # 516 records before, with one per head and a concat per layer.
        assert len(records) == 192
        assert hashlib.sha256(repr(records).encode()).hexdigest() == (
            "b45352060ac2c44d7b17ad0a5c9f861334f4209ba2d5f290681881551f4347da"
        )

    @pytest.mark.parametrize("precision, want", [
        (7, "763aca442a09ac7efae9f40de68d250fe1cabb75887f428d0bf9f89e32dee0fa"),
        (12, "4cd6f46235376e904ccd5473ec9398f3abd85f81f6747bfd0412c5a4af598ae2"),
    ])
    def test_hybrid_ln_res_digest(self, precision, want):
        cfg, model = self._model(precision)
        session = Session()
        out = forward(model, session, tokens=np.arange(12) % cfg.vocab,
                      int_modules=frozenset({LN, RES}), ref=reference_twin(model))
        logits = np.ascontiguousarray(out.values)
        h = hashlib.sha256()
        h.update(f"{logits.dtype.str}{logits.shape}".encode())
        h.update(logits.tobytes())
        assert h.hexdigest() == want


class TestPinnedHybridBehaviour:
    """The FP32 oracle, every single-module hybrid and the tap sequence, pinned
    so that a refactor of the hybrid engine keeps each of them bit for bit."""

    TOKENS = np.arange(12) % ModelConfig().vocab

    @staticmethod
    def _models():
        cfg = ModelConfig(precision=7)
        ref = random_reference_model(cfg, seed=0)
        return cfg, ref, quantize_model(ref)

    def test_reference_forward_digest(self):
        _, ref, _ = self._models()
        h = hashlib.sha256()
        _hash_arrays(h, reference_forward(ref, tokens=self.TOKENS).values)
        assert h.hexdigest() == (
            "38f43cdff9bbfc50a043a1bb4a19621c58fade09d95576a7bbd0b216f727ec06"
        )

    def test_longctx_shaped_reference_forward_digest(self):
        # The config of TestGoldenLogits.test_longctx_shaped_digest: eight
        # heads over T=64 pin the twin's per-head column blocks.
        ref = random_reference_model(LONGCTX_SHAPED, seed=0)
        h = hashlib.sha256()
        _hash_arrays(h, reference_forward(ref, tokens=np.arange(64)).values)
        assert h.hexdigest() == (
            "1ad7b2e45fe415e161d88d3f4a327ba93bf59c0ef7cc3f89b3f0be75c24e72c0"
        )

    def test_longctx_shaped_ln_res_hybrid_digest(self):
        # Attention and FFN run in FP32 on the twin of the p=12 model.
        model = quantize_model(random_reference_model(LONGCTX_SHAPED, seed=0))
        session = Session()
        out = forward(model, session, tokens=np.arange(64), int_modules=frozenset({LN, RES}),
                      ref=reference_twin(model))
        records = [(r.kind, r.lane, r.elements, r.rescaled, r.module)
                   for r in session.log.records]
        # The embedding, quantized at layer 0's LN, is read as the residual
        # there: 103 records before, with a second quantize at its Res.
        assert len(records) == 102
        h = hashlib.sha256(repr(records).encode())
        _hash_arrays(h, out.values)
        assert h.hexdigest() == (
            "1401bea278d556969026f56996994d933a6d694ca6d699b1a7d4f3a2b60b3751"
        )

    @pytest.mark.parametrize("modules, want", [
        ((EMB,),  # each residual de-quantized once, not at its LN and again at its Res
         "001356f5abbce2431b0ca4b753ade42d212fa2571f661cd26396e604d3063e4e"),
        ((ATTN,),  # one attention group per layer: 122 records before, 74 now
         "6732ec22ede4f2a45c630217e025d746b7019e44a1507eaa2d22d823241ac35b"),
        ((FFN,),
         "d52fa733441c3a94e0dc007a5bea5b33045f70707c99a788e40695285b5d6bfa"),
        ((LN,),
         "d458c25d66597f354200818531963a8156624ca952cb0284cfd9b4470a4ff233"),
        ((RES,),
         "87f71b4f5779fcb222bbcecb3f1cc7ebc473c208f515cc991d1202c52bcd112c"),
        ((PROJ,),
         "e029a74e094d405b87e93cda716bb6bc1a3038cbeb28283f7b02a947ed731ad6"),
        ((LN, RES),  # the embedding quantized once, not at LN 0 and again at Res 0
         "b1a8938f51043abf8041b8cd84b973b198f2f1eb402649a3ff71139538931c98"),
    ])
    def test_hybrid_audit_and_output_digest(self, modules, want):
        cfg, _, model = self._models()
        session = Session()
        out = forward(model, session, tokens=self.TOKENS, int_modules=frozenset(modules),
                      ref=reference_twin(model))
        records = [(r.kind, r.lane, r.elements, r.rescaled, r.module)
                   for r in session.log.records]
        h = hashlib.sha256(repr(records).encode())
        if isinstance(out, ScaledTensor):
            _hash_arrays(h, out.x, out.s)
        else:
            _hash_arrays(h, out.values)
        assert h.hexdigest() == want

    @staticmethod
    def _crossings(modules, tokens: bool, n_layers: int) -> int:
        """The conversions a forward needs: one per state and per lane other
        than its own that reads it.  A hidden input is on the FP lane."""
        on = modules.__contains__
        lane, count = tokens and on(EMB), 0
        for _ in range(n_layers):
            for core in (ATTN, FFN):
                count += len({on(LN), on(RES)} - {lane})  # the LN and the Res read the state
                count += on(core) != on(LN)
                count += on(RES) != on(core)
                lane = on(RES)
        count += on(LN) != lane
        return count + (tokens and on(PROJ) != on(LN))

    def test_each_crossing_state_converts_once(self, monkeypatch):
        # A residual that crosses lanes feeds its sublayer's LN and its Res:
        # converted once, not once per step that reads it.  A forward
        # converts through the session's quantize and dequantize alone.
        calls = []

        def counted(convert):
            def counting(self, *args, **kwargs):
                calls.append(convert.__name__)
                return convert(self, *args, **kwargs)
            return counting

        for name in ("quantize", "dequantize"):
            monkeypatch.setattr(Session, name, counted(getattr(Session, name)))
        cfg = ModelConfig(d_m=8, heads=2, d_ff=16, n_layers=2, vocab=16)
        ref = random_reference_model(cfg, seed=0)
        model = quantize_model(ref)
        hidden = np.random.default_rng(0).normal(size=(5, cfg.d_m))
        for k in range(len(MODULES) + 1):
            for modules in itertools.combinations(MODULES, k):
                for inputs in ({"tokens": np.arange(5)}, {"hidden": hidden}):
                    calls.clear()
                    forward(model, Session(),
                            int_modules=frozenset(modules), ref=ref, **inputs)
                    want = self._crossings(modules, "tokens" in inputs, cfg.n_layers)
                    assert len(calls) == want, (modules, list(inputs))

    def test_each_crossing_scans_its_new_scale_once(self, monkeypatch):
        # init_scale checks the scale it makes and hands its bounds to the
        # session's quantize, which then need not scan it again: one
        # check_scale per state that enters the integer path, and one per
        # parameter when a model is quantized.
        scans, crossings, depth = [], [], [0]
        check = tensor_module.check_scale

        def counting_check(arr):
            if depth[0]:
                scans.append(arr.shape)
            return check(arr)

        def inside(fn, note=None):
            def wrapped(*args, **kwargs):
                depth[0] += 1
                try:
                    return fn(*args, **kwargs)
                finally:
                    depth[0] -= 1
                    if note is not None:
                        note.append(1)
            return wrapped

        for module in (tensor_module, scaling_module):
            monkeypatch.setattr(module, "check_scale", counting_check)
        monkeypatch.setattr(transformer_module, "init_scale", inside(transformer_module.init_scale))
        monkeypatch.setattr(Session, "quantize", inside(Session.quantize, crossings))
        cfg = ModelConfig(d_m=8, heads=2, d_ff=16, n_layers=2, vocab=16)
        ref = random_reference_model(cfg, seed=0)
        model = quantize_model(ref)
        hidden = np.random.default_rng(0).normal(size=(5, cfg.d_m))
        for k in range(len(MODULES) + 1):
            for modules in itertools.combinations(MODULES, k):
                for inputs in ({"tokens": np.arange(5)}, {"hidden": hidden}):
                    scans.clear()
                    crossings.clear()
                    forward(model, Session(), int_modules=frozenset(modules), ref=ref, **inputs)
                    assert len(scans) == len(crossings), (modules, list(inputs))
        scans.clear()
        inside(quantize_model)(ref)
        assert len(scans) == cfg.n_layers * len(LAYER_TENSORS) + len(MODEL_TENSORS)

    def test_every_record_is_an_audit_record(self):
        # protocol_apply builds its records past AuditRecord's lane check;
        # each must still be one, on a lane the log knows.
        cfg, ref, model = self._models()
        for modules in (MODULES, (LN, RES), (ATTN,)):
            hidden = np.random.default_rng(2).normal(size=(len(self.TOKENS), cfg.d_m))
            for inputs in ({"tokens": self.TOKENS}, {"hidden": hidden}):
                session = Session()
                forward(model, session, int_modules=frozenset(modules), ref=ref, **inputs)
                assert session.log.records
                for r in session.log.records:
                    assert type(r) is AuditRecord and r.lane in (PAYLOAD, SCALE, FP32), r
                    assert AuditRecord(*r) == r

    @pytest.mark.parametrize("modules", [MODULES, (), (LN, RES)])
    def test_tap_sequence(self, modules):
        cfg, ref, model = self._models()
        seen = []
        forward(model, Session(), tokens=self.TOKENS,
                int_modules=frozenset(modules), ref=ref,
                tap=lambda tag, layer, state: seen.append((tag, layer, type(state).__name__)))
        order = [(EMB, 0)]
        for li in range(cfg.n_layers):
            order += [(LN, li), (ATTN, li), (RES, li), (LN, li), (FFN, li), (RES, li)]
        order += [(LN, cfg.n_layers), (PROJ, cfg.n_layers)]
        want = [(tag, layer, "ScaledTensor" if tag in modules else "ndarray")
                for tag, layer in order]
        assert seen == want


def _leaves(model):
    return [getattr(lp, f) for lp in model.layers for f in LAYER_TENSORS] + [
        getattr(model, f) for f in MODEL_TENSORS
    ]


def _float64_chain(ref, tokens):
    """The twin's ref_* chain, as forward runs it, on float64 copies of its
    parameters: the same formulas, computed in float64."""
    def wide(a):
        return np.asarray(a, dtype=np.float64)

    cfg = ref.config
    x = wide(ref.embedding)[tokens]
    for lp in ref.layers:
        lp = dataclasses.replace(lp, **{f: wide(getattr(lp, f)) for f in LAYER_TENSORS})
        x = ref_attn_core(ref_l1ln(x, lp.ln1_g, lp.ln1_b), lp, cfg) + x
        x = ref_ffn_core(ref_l1ln(x, lp.ln2_g, lp.ln2_b), lp) + x
    return ref_l1ln(x, wide(ref.final_ln_g), wide(ref.final_ln_b)) @ wide(ref.proj).T


class TestFloat32Twin:
    """The FP32 twin holds float32 parameters and computes in float32; its
    result comes back as a RationalTensor (float64) of the float32 logits."""

    @pytest.mark.parametrize("build", ["random", "twin", "file"])
    def test_every_leaf_is_float32(self, toy, build):
        cfg, ref, model = toy
        got = {"random": lambda: ref, "twin": lambda: reference_twin(model),
               "file": lambda: deserialize(serialize(ref))}[build]()
        assert {a.dtype for a in _leaves(got)} == {np.dtype(np.float32)}

    def test_quantizing_a_float32_model_gives_the_float64_payloads(self, toy):
        # float32 -> float64 is exact, so the float32 model quantizes as its
        # float64 copy does.
        cfg, ref, model = toy
        wide = dataclasses.replace(
            ref, embedding=ref.embedding.astype(np.float64),
            layers=tuple(dataclasses.replace(lp, w_q=lp.w_q.astype(np.float64)) for lp in ref.layers),
        )
        other = quantize_model(wide)
        for a, b in zip(_leaves(model), _leaves(other)):
            assert _digest(a) == _digest(b)

    @pytest.mark.parametrize("modules", [(), (LN, RES), (ATTN, PROJ)])
    def test_every_fp_tap_state_is_float32(self, toy, modules):
        cfg, ref, model = toy
        seen = []
        out = forward(model, Session(), tokens=np.arange(9),
                      int_modules=frozenset(modules), ref=reference_twin(model),
                      tap=lambda tag, layer, state: seen.append((tag, state)))
        fp = [state for tag, state in seen if tag not in modules]
        assert fp and all(type(s) is np.ndarray and s.dtype == np.float32 for s in fp)
        if PROJ not in modules:
            assert isinstance(out, RationalTensor)
            assert out.values.tobytes() == fp[-1].astype(np.float64).tobytes()

    @pytest.mark.parametrize("cfg, T", [(ModelConfig(), 12), (LONGCTX_SHAPED, 64)])
    def test_logits_agree_with_a_float64_evaluation(self, cfg, T):
        # Measured on five model seeds, each model and its twin: relative MSE
        # 3.6e-14 to 6.9e-14 (`toy`) and 7.2e-14 to 7.8e-14 (LONGCTX_SHAPED).
        # A twin that computed in float64 would read about 1e-30.
        ref = random_reference_model(cfg, seed=0)
        tokens = np.arange(T) % cfg.vocab
        got = reference_forward(ref, tokens=tokens).values
        want = _float64_chain(ref, tokens)
        rel_mse = np.mean((got - want) ** 2) / np.mean(want**2)
        assert 1e-16 < rel_mse < 2e-13

    def test_float32_overflow_is_refused_quietly(self):
        # W_q x 1e13 takes the attention scores past 7e12, whose cube leaves
        # float32 (3.4e38) and stays well inside float64.  The attention step
        # refuses it, and no RuntimeWarning escapes on the way.
        cfg = ModelConfig()
        ref = random_reference_model(cfg, seed=0)
        big = dataclasses.replace(ref.layers[0], w_q=ref.layers[0].w_q * np.float32(1e13))
        ref = dataclasses.replace(ref, layers=(big,) + ref.layers[1:])
        tokens = np.arange(12) % cfg.vocab
        assert np.isfinite(_float64_chain(ref, tokens)).all()
        model = quantize_model(ref)
        forward(model, Session(), tokens=tokens)  # the integer path runs
        for modules in ((), (LN, RES)):
            seen = []
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match="^rational tensor values must be finite$"):
                    forward(model, Session(), tokens=tokens,
                            int_modules=frozenset(modules), ref=ref,
                            tap=lambda tag, layer, state: seen.append((tag, layer)))
            assert seen == [(EMB, 0), (LN, 0)]


def test_attention_only_hybrids_per_batch_run_or_refuse():
    # An ATTN-only hybrid at per-batch granularity quantizes the FP32 LN
    # output with one scale per sequence.  Some such forwards are refused:
    # a weight sum that divides the value product is 0 in some rows
    # (ROADMAP item 2).  Each must run or raise a typed IntflowError; the
    # refusals are pinned, so a fix re-pins them downward.
    refused = collections.Counter()
    for p, degree, w, seed in itertools.product(range(2, 8), (1, 2, 3), (1, 3), range(6)):
        cfg = ModelConfig(d_m=16, heads=2, d_ff=32, n_layers=1, vocab=32, precision=p, degree=degree,
                          granularity=ScaleGranularity.PER_BATCH)
        ref = random_reference_model(cfg, seed)
        ref = dataclasses.replace(ref, layers=tuple(
            dataclasses.replace(lp, w_q=w * lp.w_q, w_k=w * lp.w_k) for lp in ref.layers))
        tokens = np.random.default_rng(seed).integers(0, cfg.vocab, 10)
        try:
            out = forward(quantize_model(ref), Session(), tokens=tokens,
                          int_modules=frozenset({ATTN}), ref=ref)
        except IntflowError as e:
            refused[f"{type(e).__name__}: {e}"] += 1
        else:
            assert np.isfinite(out.values).all()
    assert refused == {"PrecisionError: divisor must be strictly positive": 36}


class TestHiddenInputArrays:
    """A float hidden input is a plain array of any float or integer dtype."""

    CFG = ModelConfig(d_m=16, heads=2, d_ff=32, n_layers=2, vocab=32)

    @classmethod
    def _model(cls):
        return quantize_model(random_reference_model(cls.CFG, seed=3))

    @classmethod
    def _hidden(cls, dtype):
        rng = np.random.default_rng(4)
        if dtype == "int64":
            return rng.integers(-40, 41, (7, cls.CFG.d_m))
        return rng.normal(size=(7, cls.CFG.d_m)).astype(dtype)

    # Pinned when a hidden input was wrapped in a RationalTensor, a float64
    # view or copy of it, before the forward quantized it.
    @pytest.mark.parametrize("dtype, want", [
        ("float64", "970ee609b3b05a5a6d333a07e01401da99cbedcf5ed8ccd33a2b50aa8d5bb48f"),
        ("float32", "a1da4c5fa1b9bb31e35d0d671a65173398d3d5905d0c90cd4d3aad50f07f1e63"),
        ("int64", "26a8bb7cfd6d5016c12c20c09842d1568810ebe6f27f9183141c714c10177bd4"),
    ])
    def test_digest(self, dtype, want):
        # Payloads, scales (or FP values) and audit records of the integer
        # forward, the LN+Res hybrid and the ATTN-only hybrid.  An int64
        # input is cast to float64 as `intflow infer` casts it, and runs
        # as that cast does when handed over as it is.
        model = self._model()
        twin = reference_twin(model)

        def digest(hidden):
            h = hashlib.sha256()
            for modules in (MODULES, (LN, RES), (ATTN,)):
                session = Session()
                out = forward(model, session, hidden=hidden, int_modules=frozenset(modules), ref=twin)
                _hash_arrays(h, *((out.x, out.s) if isinstance(out, ScaledTensor) else (out.values,)))
                h.update(repr(session.log.records).encode())
            return h.hexdigest()

        hidden = self._hidden(dtype)
        if dtype == "int64":
            assert digest(hidden) == digest(hidden.astype(np.float64)) == want
        else:
            assert digest(hidden) == want

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_a_read_only_caller_array_runs_and_is_never_written(self, dtype):
        model = self._model()
        hidden = self._hidden(dtype)
        hidden.flags.writeable = False
        before = hidden.tobytes()
        twin = reference_twin(model)
        for modules in (MODULES, (LN, RES), (ATTN,), ()):
            forward(model, Session(), hidden=hidden, int_modules=frozenset(modules), ref=twin)
        s, scale_range = init_scale(hidden, 7)
        quantize(hidden, s, 7, scale_range)
        assert hidden.tobytes() == before and not hidden.flags.writeable

    NON_NUMERIC = {
        "complex128": lambda h: h + 1j,
        "bool": lambda h: h > 0,
        "str": lambda h: h.astype(str),
        "object": lambda h: h.astype(object),
        "datetime64": lambda h: h.astype(np.int64).astype("datetime64[s]"),
    }

    @pytest.mark.parametrize("kind", sorted(NON_NUMERIC))
    @pytest.mark.parametrize("route", ["forward", "forward_attn", "reference_forward", "infer"])
    def test_non_numeric_input_is_refused(self, route, kind, tmp_path, capsys):
        # Cast to float64 each of these once ran: a complex input on its
        # real part alone, a bool or datetime64 one as 0/1 or seconds, a str
        # or object one parsed.  forward refuses them, before any step, on
        # every route, and `intflow infer` exits 2 (an object array is
        # refused when it is loaded, as numpy will not unpickle it).
        hidden = self.NON_NUMERIC[kind](self._hidden("float64"))
        model = self._model()
        if route == "infer":
            path, x = str(tmp_path / "m.int8"), str(tmp_path / "x.npy")
            save_model(path, model)
            np.save(x, hidden)
            capsys.readouterr()
            assert cli.main(["infer", path, x, "--out", str(tmp_path / "y.npy")]) == cli.EXIT_VALIDATION
            err = capsys.readouterr().err
            assert err.startswith("error: ") and "Traceback" not in err
            if kind != "object":
                assert err == f"error: hidden input must be integers or floats, got {hidden.dtype}\n"
            assert not (tmp_path / "y.npy").exists()
            return
        session = Session()
        message = f"^hidden input must be integers or floats, got {re.escape(str(hidden.dtype))}$"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no ComplexWarning on the way
            with pytest.raises(ValidationError, match=message):
                if route == "forward":
                    forward(model, session, hidden=hidden)
                elif route == "forward_attn":
                    forward(model, session, hidden=hidden, int_modules=frozenset({ATTN}),
                            ref=reference_twin(model))
                else:
                    reference_forward(reference_twin(model), hidden=hidden)
        assert not session.log.records

    @pytest.mark.parametrize("dtype", ["int64", "float32", "float64"])
    def test_numeric_input_runs_on_every_route(self, dtype):
        model = self._model()
        twin = reference_twin(model)
        hidden = self._hidden(dtype)
        assert forward(model, Session(), hidden=hidden).shape == hidden.shape
        assert forward(model, Session(), hidden=hidden, int_modules=frozenset({ATTN}),
                       ref=twin).values.shape == hidden.shape
        assert reference_forward(twin, hidden=hidden).values.shape == hidden.shape

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("route", [
        "init_scale", "quantize_model", "forward", "forward_fp_ln", "reference_forward",
        "reference_forward_no_layers", "infer",
    ])
    def test_non_finite_input_is_refused(self, route, bad, tmp_path, capsys):
        # One bad value in one row of several, refused as a ValueError: by
        # init_scale, which reads each group's max; by quantize_model for a
        # weight; by a forward whose LN runs on the integer path or in FP
        # (an ATTN-only hybrid), and by the FP32 twin, before any step runs;
        # and by `intflow infer`, which exits 2.
        hidden = self._hidden("float64")
        hidden[3, 5] = bad
        message = "^rational tensor values must be finite$"
        if route == "infer":
            model, x = str(tmp_path / "m.int8"), str(tmp_path / "x.npy")
            save_model(model, self._model())
            np.save(x, hidden)
            capsys.readouterr()
            assert cli.main(["infer", model, x, "--out", str(tmp_path / "y.npy")]) == cli.EXIT_VALIDATION
            assert capsys.readouterr().err == "error: rational tensor values must be finite\n"
            return
        seen, session = [], Session()

        def tap(*state):
            seen.append(state)

        with pytest.raises(ValueError, match=message):
            if route == "init_scale":
                init_scale(hidden, 7)
            elif route == "quantize_model":
                ref = random_reference_model(self.CFG, seed=3)
                w1 = ref.layers[0].w1.copy()
                w1[3, 5] = bad
                quantize_model(dataclasses.replace(
                    ref, layers=(dataclasses.replace(ref.layers[0], w1=w1),) + ref.layers[1:]))
            elif route == "forward":
                forward(self._model(), session, hidden=hidden, tap=tap)
            elif route == "forward_fp_ln":
                model = self._model()
                forward(model, session, hidden=hidden, int_modules=frozenset({ATTN}),
                        ref=reference_twin(model), tap=tap)
            else:
                cfg = dataclasses.replace(self.CFG, n_layers=0) if route.endswith("no_layers") else self.CFG
                reference_forward(random_reference_model(cfg, seed=3), hidden=hidden, tap=tap)
        assert not seen and not session.log.records
