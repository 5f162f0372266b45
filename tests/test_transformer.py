"""Transformer blocks: integer modules vs their FP32 twins, hybrid engine."""
import dataclasses
import functools
import hashlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from intflow.errors import ScaleRangeError, ShapeError, ValidationError
from intflow.modelfile import deserialize, serialize
from intflow.scaling import Lane, Precision, Session, dequantize, init_scale, quantize
from intflow.tensor import IntTensor, RationalTensor, ScaledTensor, ScaleTensor, transpose
from intflow.transformer import (
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

from helpers import poly

P = 12  # high enough that twin comparisons isolate structural errors


def q(values, p=P):
    r = RationalTensor(np.asarray(values, dtype=np.float64))
    return quantize(r, init_scale(r, prec=Precision(p)), p)


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
        out = forward(model, Session(Precision(p)), tokens=tokens)
        assert out.data.in_range()

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
        sess = Session(Precision(P))
        out = dequantize(poly(q(scores), pp, 3, sess)).values
        assert rel_err(out, ref_poly(scores, pp, 3)) < 1e-2

    def test_all_below_threshold_keeps_offset(self):
        pp = PolyParams(bias=0.5, offset=0.1)
        scores = np.full((4, 4), -3.0)
        sess = Session(Precision(P))
        out = dequantize(poly(q(scores), pp, 3, sess)).values
        assert np.all(out > 0)

    def test_stays_on_integer_lane(self):
        sess = Session(Precision(P))
        poly(q(np.ones((3, 3))), PolyParams(), 3, sess)
        assert sess.log.integer_pure()


class TestPolyAttention:
    def test_matches_reference(self):
        rng = np.random.default_rng(1)
        T, dh, dm = 6, 8, 16
        pp = PolyParams(bias=0.5, offset=0.1)
        qv, kv, vv = (rng.normal(size=(T, dh)) for _ in range(3))
        sess = Session(Precision(P))
        out = dequantize(poly_attention(q(qv), q(kv), transpose(q(vv), (1, 0)), pp, 3, dm, sess).seal()).values
        scores = (qv @ kv.T) / math.sqrt(dm)
        w = ref_poly(scores, pp, 3)
        want = (w @ vv) / np.sum(w, axis=-1, keepdims=True)
        assert rel_err(out, want) < 1e-2

    def test_output_in_logical_range(self):
        rng = np.random.default_rng(2)
        sess = Session(Precision(P))
        out = poly_attention(
            q(rng.normal(size=(5, 4))), q(rng.normal(size=(5, 4))),
            transpose(q(rng.normal(size=(5, 4))), (1, 0)), PolyParams(), 3, 16, sess,
        ).seal()
        assert out.data.in_range()

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
        sess = Session(Precision(P))
        out = poly_attention(q(qv), q(kv), transpose(v_q, (1, 0)), pp, 3, 16, sess).seal()
        got = dequantize(out).values
        want = np.tile(np.mean(dequantize(v_q).values, axis=0), (T, 1))
        bound = 2.0 / np.min(out.scale.values)
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
        return ScaledTensor(
            IntTensor(np.asarray(data, dtype=np.int64), P),
            ScaleTensor(np.full((len(data), 1), scale)),
        )

    def test_fold_overflow(self):
        # 1e154 * 1e154 is finite; the fold by sqrt(16) is not.
        t = self.at(1e154)
        self.raises_quietly(
            lambda: poly_attention(t, t, transpose(t, (1, 0)), PolyParams(), 3, 16, Session(Precision(P)))
        )

    def test_boost_overflow(self):
        session = Session(Precision(P))
        lane = Lane.of(self.at(1e300), session.workspace)
        self.raises_quietly(lambda: _boost(lane, session, "Attn"))

    def test_layer_norm_constant_overflow(self):
        n = 4
        x = self.at(1e308, [[1, -2, 3, 5]])
        self.raises_quietly(
            lambda: l1_layer_norm(x, q(np.ones(n)), q(np.zeros(n)), Session(Precision(P)))
        )


class TestL1LayerNorm:
    def test_matches_reference(self):
        rng = np.random.default_rng(4)
        n = 16
        g, b = rng.uniform(0.8, 1.2, n), rng.normal(0, 0.05, n)
        x = rng.normal(size=(5, n))
        sess = Session(Precision(P))
        out = dequantize(l1_layer_norm(q(x), q(g), q(b), sess)).values
        assert rel_err(out, ref_l1ln(x, g, b)) < 1e-2

    def test_constant_rows_degenerate_to_bias(self):
        n = 8
        x = np.full((3, n), 5.0)
        sess = Session(Precision(P))
        out = dequantize(l1_layer_norm(q(x), q(np.ones(n)), q(np.full(n, 0.25)), sess)).values
        assert np.allclose(out, 0.25, atol=1e-3)

    def test_width_mismatch(self):
        g, b = np.ones(4), np.zeros(4)
        sess = Session(Precision(P))
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
        sess = Session(Precision(P))
        l1_layer_norm(q(rng.normal(size=(3, n))), q(np.ones(n)), q(np.zeros(n)), sess)
        assert sess.log.integer_pure()


class TestCores:
    def test_attn_core_matches_reference(self, toy):
        cfg, ref, model = toy
        rng = np.random.default_rng(6)
        x = rng.normal(size=(6, cfg.d_m))
        sess = Session(Precision(P))
        out = dequantize(attn_core(q(x), model.layers[0], cfg, sess)).values
        want = ref_attn_core(x, reference_twin(model).layers[0], cfg)
        assert rel_err(out, want) < 2e-2

    def test_ffn_core_matches_reference(self, toy):
        cfg, ref, model = toy
        rng = np.random.default_rng(7)
        x = rng.normal(size=(6, cfg.d_m))
        sess = Session(Precision(P))
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
        sess = Session(Precision(P))
        out = gather_embedding(model, np.array([0, 3, 0]), sess)
        want = dequantize(model.embedding).values[[0, 3, 0]]
        assert np.array_equal(dequantize(out).values, want)

    def test_rejects_out_of_vocab(self, toy):
        cfg, ref, model = toy
        sess = Session(Precision(P))
        with pytest.raises(ValidationError):
            gather_embedding(model, np.array([cfg.vocab]), sess)

    @pytest.mark.parametrize("tokens", [np.array([0.5, 1.7]), np.array([0.0, 1.0]), np.array([True])])
    def test_rejects_non_integer_ids(self, toy, tokens):
        cfg, ref, model = toy
        with pytest.raises(ValidationError, match="integers"):
            gather_embedding(model, tokens, Session(Precision(P)))
        with pytest.raises(ValidationError, match="integers"):
            reference_forward(ref, tokens=tokens)


class TestHybridEngine:
    def test_full_integer_run_is_pure(self, toy):
        cfg, ref, model = toy
        sess = Session(Precision(P))
        out = forward(model, sess, tokens=np.arange(8) % cfg.vocab)
        assert out.shape == (8, cfg.vocab)
        assert sess.log.integer_pure()

    def test_empty_module_set_equals_reference_exactly(self, toy):
        cfg, ref, model = toy
        tok = np.arange(8) % cfg.vocab
        sess = Session(Precision(P))
        out = forward(model, sess, tokens=tok, int_modules=frozenset(), ref=ref)
        want = reference_forward(ref, tokens=tok)
        assert np.array_equal(out.values, want.values)

    @pytest.mark.parametrize("module", MODULES)
    def test_single_module_runs_close_to_reference(self, toy, module):
        cfg, ref, model = toy
        tok = np.arange(8) % cfg.vocab
        sess = Session(Precision(P))
        out = forward(model, sess, tokens=tok, int_modules=frozenset({module}))
        got = out.values if isinstance(out, RationalTensor) else dequantize(out).values
        want = reference_forward(reference_twin(model), tokens=tok).values
        assert rel_err(got, want) < 5e-2

    def test_hidden_input_skips_embedding_and_projection(self, toy):
        cfg, ref, model = toy
        rng = np.random.default_rng(9)
        x = RationalTensor(rng.normal(size=(5, cfg.d_m)))
        sess = Session(Precision(P))
        h = sess.quantize(x, init_scale(x, prec=sess.precision))
        out = forward(model, sess, hidden=h)
        assert out.shape == (5, cfg.d_m)

    def test_tiny_hidden_row_runs(self, toy):
        # (2^p - 1) / 1e-300 overflows float32; the scale is clamped instead.
        cfg, ref, model = toy
        x = np.random.default_rng(3).normal(size=(4, cfg.d_m))
        x[1] = 1e-300
        out = forward(model, Session(Precision(P)), hidden=RationalTensor(x))
        assert out.shape == (4, cfg.d_m)
        assert np.all(np.isfinite(out.scale.values))

    def test_unknown_module_tag(self, toy):
        cfg, ref, model = toy
        with pytest.raises(ValidationError):
            forward(model, Session(Precision(P)), tokens=np.array([0]),
                    int_modules=frozenset({"Bogus"}))

    @pytest.mark.parametrize("int_modules", [frozenset(), frozenset({LN, RES})])
    def test_reference_must_cover_every_layer(self, toy, int_modules):
        cfg, ref, model = toy
        short = dataclasses.replace(ref, layers=ref.layers[:-1])
        with pytest.raises(ValueError):
            forward(model, Session(Precision(P)), tokens=np.arange(4),
                    int_modules=int_modules, ref=short)

    def test_requires_some_input(self, toy):
        cfg, ref, model = toy
        with pytest.raises(ValidationError):
            forward(model, Session(Precision(P)))

    @pytest.mark.parametrize("tokens, message", [
        (np.zeros(0, dtype=np.int64), "token ids are empty"),
        (np.zeros(0, dtype=np.uint8), "token ids are empty"),
        (np.zeros((2, 3), dtype=np.int64), r"1-D array, got shape \(2, 3\)"),
        (np.array(1), r"1-D array, got shape \(\)"),
    ])
    def test_refuses_empty_or_wrong_rank_tokens(self, toy, tokens, message):
        cfg, ref, model = toy
        with pytest.raises(ValidationError, match=message):
            forward(model, Session(Precision(P)), tokens=tokens)
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
        x = RationalTensor(np.ones(shape))
        with pytest.raises(ValidationError, match=message):
            forward(model, Session(Precision(P)), hidden=x)
        with pytest.raises(ValidationError, match=message):
            reference_forward(ref, hidden=x)

    def test_session_at_another_precision_is_refused(self, toy):
        # A p=12 model under a p=7 session would shrink every step to 7 bits.
        cfg, ref, model = toy
        for p in (7, 13):
            with pytest.raises(ValidationError, match=f"session precision {p} differs"):
                forward(model, Session(Precision(p)), tokens=np.arange(4))
            with pytest.raises(ValidationError, match="differs"):
                forward(model, Session(Precision(p)), tokens=np.arange(4),
                        int_modules=frozenset({LN, RES}))
        with pytest.raises(ValidationError, match="differs"):
            forward(model, Session(), tokens=np.arange(4))
        assert forward(model, Session(Precision(P)), tokens=np.arange(4)).precision == P

    def test_hidden_input_at_another_precision_is_refused(self, toy):
        cfg, ref, model = toy
        x = RationalTensor(np.random.default_rng(4).normal(size=(3, cfg.d_m)))
        for p in (7, P):
            h = quantize(x, init_scale(x, prec=Precision(p)), p)
            run = functools.partial(forward, model, Session(Precision(P)), hidden=h)
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
        out = forward(model, Session(Precision(P)), tokens=np.arange(6), int_modules=frozenset({LN, RES}))
        assert isinstance(out, RationalTensor)
        assert built.count(np.float32) == 1

    def test_tap_visits_every_module(self, toy):
        cfg, ref, model = toy
        seen = []
        sess = Session(Precision(P))
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
        forward(model, Session(Precision(P)), tokens=np.arange(4))
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
        out = forward(model, Session(Precision(model.config.precision)), **inputs)
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
        assert self._max_err(model, hidden=RationalTensor(x)) < self.BOUND

    def test_all_zero_hidden_input(self):
        model = quantize_model(random_reference_model(ModelConfig(), seed=0))
        x = RationalTensor(np.zeros((4, model.config.d_m)))
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
        assert m5.embedding.data.max_magnitude <= 31


def _hash_arrays(h, *arrays) -> None:
    """Feed each array's dtype, shape and bytes to the hash `h`."""
    for arr in arrays:
        arr = np.ascontiguousarray(arr)
        h.update(f"{arr.dtype.str}{arr.shape}".encode())
        h.update(arr.tobytes())


def _digest(t) -> str:
    """sha256 over the dtypes, shapes and bytes of a payload and its scales."""
    h = hashlib.sha256()
    _hash_arrays(h, t.data.values, t.scale.values)
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
        session = Session(Precision(cfg.precision))
        logits = forward(model, session, tokens=np.arange(12) % cfg.vocab)
        assert _digest(logits) == want

    def test_longctx_shaped_digest(self):
        # p=12, eight heads and T=64: every attention weight carries its own
        # scale, so this pins the per-element scale calculus on T x T tensors.
        cfg = LONGCTX_SHAPED
        model = quantize_model(random_reference_model(cfg, seed=0))
        session = Session(Precision(cfg.precision))
        logits = forward(model, session, tokens=np.arange(64))
        assert _digest(logits) == (
            "4e388b3b621508b3e42852e9ca10bb9334397ef0ae015c7e6f278fb21418ad33"
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
        session = Session(Precision(cfg.precision))
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
        session = Session(Precision(cfg.precision))
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
        session = Session(Precision(cfg.precision))
        out = forward(model, session, tokens=np.arange(12) % cfg.vocab,
                      int_modules=frozenset({LN, RES}))
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
        session = Session(Precision(LONGCTX_SHAPED.precision))
        out = forward(model, session, tokens=np.arange(64), int_modules=frozenset({LN, RES}))
        records = [(r.kind, r.lane, r.elements, r.rescaled, r.module)
                   for r in session.log.records]
        assert len(records) == 103
        h = hashlib.sha256(repr(records).encode())
        _hash_arrays(h, out.values)
        assert h.hexdigest() == (
            "016adafa0801e5bb99e1966cc12742e241fa37bd7ea5ff8837ed15a8e1240e7d"
        )

    @pytest.mark.parametrize("modules, want", [
        ((EMB,),
         "de46e0ccdb6c1cd8539fea53af19a25be1f2a5c352391e57209aeb742ca80767"),
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
        ((LN, RES),
         "755f55d37de20b1612e139fb1fb0759fb7b94a4816960f328a3b3b582d3e3cdf"),
    ])
    def test_hybrid_audit_and_output_digest(self, modules, want):
        cfg, _, model = self._models()
        session = Session(Precision(cfg.precision))
        out = forward(model, session, tokens=self.TOKENS, int_modules=frozenset(modules))
        records = [(r.kind, r.lane, r.elements, r.rescaled, r.module)
                   for r in session.log.records]
        h = hashlib.sha256(repr(records).encode())
        if isinstance(out, ScaledTensor):
            _hash_arrays(h, out.data.values, out.scale.values)
        else:
            _hash_arrays(h, out.values)
        assert h.hexdigest() == want

    @pytest.mark.parametrize("modules", [MODULES, (), (LN, RES)])
    def test_tap_sequence(self, modules):
        cfg, ref, model = self._models()
        seen = []
        forward(model, Session(Precision(cfg.precision)), tokens=self.TOKENS,
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
        out = forward(model, Session(Precision(cfg.precision)), tokens=np.arange(9),
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
        forward(model, Session(Precision(cfg.precision)), tokens=tokens)  # the integer path runs
        for modules in ((), (LN, RES)):
            seen = []
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match="^rational tensor values must be finite$"):
                    forward(model, Session(Precision(cfg.precision)), tokens=tokens,
                            int_modules=frozenset(modules), ref=ref,
                            tap=lambda tag, layer, state: seen.append((tag, layer)))
            assert seen == [(EMB, 0), (LN, 0)]
