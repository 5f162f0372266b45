"""Transformer blocks: integer modules vs their FP32 twins, hybrid engine."""
import hashlib
import math

import numpy as np
import pytest

from intflow.errors import ShapeError, ValidationError
from intflow.scaling import Precision, Session, dequantize, init_scale, quantize
from intflow.tensor import RationalTensor
from intflow.transformer import (
    LN,
    MODULES,
    RES,
    SOFTMAX,
    FP32ReferenceModel,
    L1LNParams,
    ModelConfig,
    PolyParams,
    attn_core,
    ffn_core,
    forward,
    gather_embedding,
    l1_layer_norm,
    poly,
    poly_attention,
    quantize_model,
    random_reference_model,
    ref_attn_core,
    ref_ffn_core,
    ref_l1ln,
    ref_poly,
    ref_softmax,
    reference_forward,
    reference_twin,
)

P = 12  # high enough that twin comparisons isolate structural errors


def q(values, p=P):
    r = RationalTensor(np.asarray(values, dtype=np.float64))
    return quantize(r, init_scale(r, prec=Precision(p)), p)


def rel_err(got, want):
    return np.linalg.norm(got - want) / max(np.linalg.norm(want), 1e-12)


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

    def test_poly_degree_positive(self):
        with pytest.raises(ValidationError):
            PolyParams(degree=0)

    def test_l1ln_shape_check(self):
        with pytest.raises(ShapeError):
            L1LNParams(np.ones(3), np.ones(4), 3)


class TestPoly:
    def test_matches_reference(self):
        rng = np.random.default_rng(0)
        pp = PolyParams(bias=0.5, degree=3, offset=0.1)
        scores = rng.normal(size=(5, 5))
        sess = Session(Precision(P))
        out = dequantize(poly(q(scores), pp, sess)).values
        assert rel_err(out, ref_poly(scores, pp)) < 1e-2

    def test_all_below_threshold_keeps_offset(self):
        pp = PolyParams(bias=0.5, degree=3, offset=0.1)
        scores = np.full((4, 4), -3.0)
        sess = Session(Precision(P))
        out = dequantize(poly(q(scores), pp, sess)).values
        assert np.all(out > 0)

    def test_stays_on_integer_lane(self):
        sess = Session(Precision(P))
        poly(q(np.ones((3, 3))), PolyParams(), sess)
        assert sess.log.integer_pure()


class TestPolyAttention:
    def test_matches_reference(self):
        rng = np.random.default_rng(1)
        T, dh, dm = 6, 8, 16
        pp = PolyParams(bias=0.5, degree=3, offset=0.1)
        qv, kv, vv = (rng.normal(size=(T, dh)) for _ in range(3))
        sess = Session(Precision(P))
        out = dequantize(poly_attention(q(qv), q(kv), q(vv), pp, dm, sess)).values
        scores = (qv @ kv.T) / math.sqrt(dm)
        w = ref_poly(scores, pp)
        want = (w @ vv) / np.sum(w, axis=-1, keepdims=True)
        assert rel_err(out, want) < 1e-2

    def test_output_in_logical_range(self):
        rng = np.random.default_rng(2)
        sess = Session(Precision(P))
        out = poly_attention(
            q(rng.normal(size=(5, 4))), q(rng.normal(size=(5, 4))),
            q(rng.normal(size=(5, 4))), PolyParams(), 16, sess,
        )
        assert out.data.in_range()

    def test_degenerate_scores_give_row_average(self):
        # Every score lands far below -bias, so the polynomial part dies and
        # only the uniform offset survives: the output is the mean of V rows.
        pp = PolyParams(bias=0.5, degree=3, offset=0.1)
        T, dh = 4, 3
        qv = np.tile([[3.0, 0.0, 1.0]], (T, 1))
        kv = np.tile([[-3.0, 0.0, -1.0]], (T, 1))
        rng = np.random.default_rng(3)
        vv = rng.normal(size=(T, dh))
        vv[:, 0] = 1.0  # equal row maxima -> identical per-row scales
        v_q = q(vv)
        sess = Session(Precision(P))
        out = poly_attention(q(qv), q(kv), v_q, pp, 16, sess)
        got = dequantize(out).values
        want = np.tile(np.mean(dequantize(v_q).values, axis=0), (T, 1))
        bound = 2.0 / np.min(out.scale.values)
        assert np.max(np.abs(got - want)) <= bound


class TestL1LayerNorm:
    def test_matches_reference(self):
        rng = np.random.default_rng(4)
        n = 16
        lp = L1LNParams(rng.uniform(0.8, 1.2, n), rng.normal(0, 0.05, n), n)
        x = rng.normal(size=(5, n))
        sess = Session(Precision(P))
        out = dequantize(
            l1_layer_norm(q(x), lp, q(lp.gain), q(lp.bias), sess)
        ).values
        assert rel_err(out, ref_l1ln(x, lp)) < 1e-2

    def test_constant_rows_degenerate_to_bias(self):
        n = 8
        lp = L1LNParams(np.ones(n), np.full(n, 0.25), n)
        x = np.full((3, n), 5.0)
        sess = Session(Precision(P))
        out = dequantize(
            l1_layer_norm(q(x), lp, q(lp.gain), q(lp.bias), sess)
        ).values
        assert np.allclose(out, 0.25, atol=1e-3)

    def test_width_mismatch(self):
        lp = L1LNParams(np.ones(4), np.zeros(4), 4)
        sess = Session(Precision(P))
        with pytest.raises(ShapeError):
            l1_layer_norm(q(np.ones((2, 6))), lp, q(lp.gain), q(lp.bias), sess)

    def test_stays_on_integer_lane(self):
        rng = np.random.default_rng(5)
        n = 8
        lp = L1LNParams(np.ones(n), np.zeros(n), n)
        sess = Session(Precision(P))
        l1_layer_norm(q(rng.normal(size=(3, n))), lp, q(lp.gain), q(lp.bias), sess)
        assert sess.log.integer_pure()


class TestCores:
    def test_attn_core_matches_reference(self, toy):
        cfg, ref, model = toy
        rng = np.random.default_rng(6)
        x = rng.normal(size=(6, cfg.d_m))
        sess = Session(Precision(P))
        out = dequantize(attn_core(q(x), model.layers[0], cfg, sess)).values
        want = ref_attn_core(x, reference_twin(model).layers[0], cfg, "poly")
        assert rel_err(out, want) < 2e-2

    def test_ffn_core_matches_reference(self, toy):
        cfg, ref, model = toy
        rng = np.random.default_rng(7)
        x = rng.normal(size=(6, cfg.d_m))
        sess = Session(Precision(P))
        out = dequantize(ffn_core(q(x), model.layers[0], sess)).values
        want = ref_ffn_core(x, reference_twin(model).layers[0])
        assert rel_err(out, want) < 2e-2

    def test_softmax_reference_normalizes(self):
        rng = np.random.default_rng(8)
        w = ref_softmax(rng.normal(size=(4, 6)))
        assert np.allclose(np.sum(w, axis=-1), 1.0)


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

    def test_requires_some_input(self, toy):
        cfg, ref, model = toy
        with pytest.raises(ValidationError):
            forward(model, Session(Precision(P)))

    def test_tap_visits_every_module(self, toy):
        cfg, ref, model = toy
        seen = []
        sess = Session(Precision(P))
        forward(model, sess, tokens=np.arange(4), tap=lambda t, l, s: seen.append((t, l)))
        tags = {t for t, _ in seen}
        assert tags == set(MODULES)
        assert (RES, cfg.n_layers - 1) in seen


class TestModelRoundTrips:
    def test_reference_twin_equals_dequantized_weights(self, toy):
        cfg, ref, model = toy
        twin = reference_twin(model)
        assert np.array_equal(
            twin.layers[0].w_q, dequantize(model.layers[0].w_q).values
        )
        assert np.array_equal(twin.embedding, dequantize(model.embedding).values)

    def test_quantize_model_respects_requested_precision(self, toy):
        cfg, ref, model = toy
        m5 = quantize_model(ref, precision=5)
        assert m5.config.precision == 5
        assert m5.embedding.data.max_magnitude <= 31

    def test_softmax_flavor_reference_runs(self, toy):
        cfg, ref, model = toy
        soft = FP32ReferenceModel(
            config=ref.config, embedding=ref.embedding, layers=ref.layers,
            final_ln=ref.final_ln, proj=ref.proj, attention_flavor=SOFTMAX,
        )
        out = reference_forward(soft, tokens=np.arange(4))
        assert out.shape == (4, cfg.vocab)
        poly_out = reference_forward(ref, tokens=np.arange(4))
        assert not np.array_equal(out.values, poly_out.values)


def _digest(t) -> str:
    """sha256 over the dtypes, shapes and bytes of a payload and its scales."""
    h = hashlib.sha256()
    for arr in (t.data.values, t.scale.values):
        arr = np.ascontiguousarray(arr)
        h.update(f"{arr.dtype.str}{arr.shape}".encode())
        h.update(arr.tobytes())
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
        cfg = ModelConfig(d_m=64, heads=8, d_ff=256, n_layers=2, vocab=256, precision=12)
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
        assert len(records) == 240
        assert hashlib.sha256(repr(records).encode()).hexdigest() == (
            "bb92f8271db558fcabbb04f084bb817c8021eed833e9dae3423897d0518ccdac"
        )

    @pytest.mark.parametrize("precision, want", [
        (7, "ab973543a79440df4a0aa62acbeb6fe6e29635a3df27d7f1b77d1a4ace6e8601"),
        (12, "38eb432b965799963c00e992d67af880dfb902e90fcbf412771db5aa8c35775c"),
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
