"""Precision-loss reports, ablation, storage accounting, speed-up estimates."""
import dataclasses

import numpy as np
import pytest

from intflow.audit import PAYLOAD, AuditRecord, OpAuditLog
from intflow import analysis
from intflow.errors import ValidationError
from intflow.analysis import (
    bit_sweep,
    module_ablation,
    precision_loss,
    resident_bytes,
    speedup_estimate,
    storage_report,
)
from intflow.scaling import Session, dequantize, init_scale
from intflow.transformer import (
    ALL_MODULES,
    ATTN,
    LN,
    RES,
    ModelConfig,
    ffn_core,
    forward,
    l1_layer_norm,
    quantize_model,
    random_reference_model,
    reference_twin,
    residual_add,
)

from helpers import canonical_ffn_forward, count_records, note_setup, report_mse


@pytest.fixture(scope="module")
def toy():
    cfg = ModelConfig(d_m=16, heads=2, d_ff=32, n_layers=2, vocab=24)
    ref = random_reference_model(cfg, seed=2)
    model = quantize_model(ref)
    tokens = [np.arange(8) % cfg.vocab, (np.arange(8) * 3) % cfg.vocab]
    return cfg, ref, model, tokens


class TestPrecisionLoss:
    def test_report_covers_modules_and_layers(self, toy):
        cfg, ref, model, tokens = toy
        rep = precision_loss(model, reference_twin(model), tokens)
        assert report_mse(rep, ATTN, 0) >= 0
        assert report_mse(rep, RES, cfg.n_layers - 1) > 0
        assert report_mse(rep, LN, cfg.n_layers) > 0  # final norm

    def test_lines_are_tab_separated(self, toy):
        cfg, ref, model, tokens = toy
        lines = precision_loss(model, reference_twin(model), tokens).lines()
        assert all(len(line.split("\t")) == 4 for line in lines)

    def test_missing_entry_raises(self, toy):
        cfg, ref, model, tokens = toy
        rep = precision_loss(model, reference_twin(model), tokens)
        with pytest.raises(KeyError):
            report_mse(rep, ATTN, 99)

    # A twin that does not match the model is refused at the first tap that
    # tells them apart: by count, by tag and layer, or by shape.
    def test_twin_with_more_layers_is_refused(self, toy):
        cfg, ref, model, tokens = toy
        twin = random_reference_model(dataclasses.replace(cfg, n_layers=cfg.n_layers + 1), seed=2)
        with pytest.raises(ValidationError, match="tap sequences diverged between twins"):
            precision_loss(model, twin, tokens)

    def test_twin_with_another_vocab_is_refused(self, toy):
        # Every tap matches but the logits, T x vocab.
        cfg, ref, model, tokens = toy
        twin = random_reference_model(dataclasses.replace(cfg, vocab=cfg.vocab + 1), seed=2)
        with pytest.raises(ValidationError, match="tap shapes diverged between twins"):
            precision_loss(model, twin, tokens)

    @pytest.mark.parametrize("relabel", [
        lambda tag, layer: (tag, layer + 1),
        lambda tag, layer: (tag.lower(), layer),
    ], ids=["layer", "tag"])
    def test_twin_taps_out_of_step_are_refused(self, toy, monkeypatch, relabel):
        cfg, ref, model, tokens = toy
        reference_forward = analysis.reference_forward

        def relabelled(twin, *, tokens, tap):
            return reference_forward(
                twin, tokens=tokens, tap=lambda tag, layer, state: tap(*relabel(tag, layer), state))

        monkeypatch.setattr(analysis, "reference_forward", relabelled)
        with pytest.raises(ValidationError, match="tap sequences diverged between twins"):
            precision_loss(model, reference_twin(model), tokens)


class TestModuleAblation:
    def test_empty_set_is_lossless(self, toy):
        cfg, ref, model, tokens = toy
        assert module_ablation(model, tokens, frozenset(), reference_twin(model)) == 0.0

    def test_full_set_matches_pure_integer_run(self, toy):
        cfg, ref, model, tokens = toy
        full = module_ablation(model, tokens, ALL_MODULES, reference_twin(model))
        assert full > 0

    def test_larger_sets_accumulate_loss(self, toy):
        cfg, ref, model, tokens = toy
        only_attn = module_ablation(model, tokens, frozenset({ATTN}), reference_twin(model))
        assert 0 < only_attn < 1.0

    def test_unknown_tag(self, toy):
        cfg, ref, model, tokens = toy
        # forward refuses the tag, with the message it gives every caller.
        with pytest.raises(ValidationError, match=r"unknown module tags: \['Nope'\]"):
            module_ablation(model, tokens, frozenset({"Nope"}), reference_twin(model))

    def test_no_inputs_refused(self, toy):
        # An empty list has no MSE to average; it is refused, not NaN.
        cfg, ref, model, tokens = toy
        with pytest.raises(ValidationError, match="module ablation needs at least one input"):
            module_ablation(model, [], ALL_MODULES, reference_twin(model))


class TestStorage:
    def test_byte_identity(self, toy):
        cfg, ref, model, tokens = toy
        rep = storage_report(model, reference_twin(model))
        assert rep.int8_total_bytes == (
            rep.int8_payload_bytes + rep.scale_bytes + rep.header_bytes
        )
        assert rep.fp32_bytes > rep.int8_total_bytes

    def test_twin_of_another_model_refused(self, toy):
        # A twin of another config would count another model's bytes.
        cfg, ref, model, tokens = toy
        other = quantize_model(random_reference_model(dataclasses.replace(cfg, n_layers=cfg.n_layers + 1), seed=0))
        with pytest.raises(ValidationError, match="storage report needs the model's twin"):
            storage_report(model, reference_twin(other))

    def test_default_toy_hits_target_band(self):
        cfg = ModelConfig()  # d_m=32, 2 layers
        model = quantize_model(random_reference_model(cfg, seed=0))
        assert 3.4 <= storage_report(model, reference_twin(model)).ratio < 4.0

    def test_default_toy_lines(self):
        # The on-disk lines as before; the resident ones count the arrays the
        # model (int8 payloads, float64 scales) and its float32 twin hold.
        model = quantize_model(random_reference_model(ModelConfig(), seed=0))
        rep = storage_report(model, reference_twin(model))
        assert rep.lines() == [
            "storage\tfp32\tbytes\t117951",
            "storage\tint8_payload\tbytes\t29981",
            "storage\tscales\tbytes\t3643",
            "storage\theader\tbytes\t34",
            "storage\tratio\tx\t3.5044",
            "storage\tresident_int\tbytes\t35056",
            "storage\tresident_fp32\tbytes\t117248",
            "storage\tresident_ratio\tx\t3.3446",
        ]
        assert rep.resident_int_bytes == resident_bytes(model)
        assert rep.resident_fp32_bytes == resident_bytes(reference_twin(model))


class TestSpeedup:
    def _log(self, pairs):
        return OpAuditLog([AuditRecord(kind, PAYLOAD, n) for kind, n in pairs])

    def test_all_accelerable_limit(self):
        est = speedup_estimate(self._log([("matmul", 1000)]), factor=6.0)
        assert est.estimate == pytest.approx(6.0)

    def test_none_accelerable_limit(self):
        est = speedup_estimate(self._log([("add", 1000)]), factor=6.0)
        assert est.estimate == pytest.approx(1.0)

    def test_monotone_in_accelerable_share(self):
        prev = 0.0
        for mm in (0, 250, 500, 750, 1000):
            est = speedup_estimate(
                self._log([("matmul", mm), ("add", 1000 - mm)]) if mm < 1000
                else self._log([("matmul", 1000)])
            )
            assert est.estimate >= prev
            prev = est.estimate

    def test_longer_sequences_estimate_higher(self, toy):
        cfg, ref, model, tokens = toy
        ests = []
        for T in (4, 16):
            sess = Session()
            note_setup(sess, ref)  # fixed conversion cost
            forward(model, sess, tokens=np.arange(T) % cfg.vocab)
            ests.append(speedup_estimate(sess.log).estimate)
        assert ests[1] > ests[0]

    def test_empty_log(self):
        with pytest.raises(ValidationError):
            speedup_estimate(OpAuditLog())


class TestBitSweep:
    def test_broadly_decreasing(self, toy):
        cfg, ref, model, tokens = toy
        results = bit_sweep(ref, tokens[:1], range(6, 11))
        ps = [p for p, _ in results]
        mses = [m for _, m in results]
        assert ps == list(range(6, 11))
        assert mses[-1] < mses[0]


class TestCanonicalBaseline:
    def test_dequantizes_four_times_per_block(self, toy):
        cfg, ref, model, tokens = toy
        rng = np.random.default_rng(0)
        r = rng.normal(size=(5, cfg.d_m))
        sess = Session()
        x = sess.quantize(r, init_scale(r, cfg.precision)[0], cfg.precision)
        sess.log.records.clear()
        canonical_ffn_forward(x, model.layers[0], sess)
        assert count_records(sess.log, kind="dequantize") == 4
        assert not sess.log.integer_pure()

    def test_integer_block_avoids_dequantize_and_stays_close(self, toy):
        cfg, ref, model, tokens = toy
        rng = np.random.default_rng(1)
        r = rng.normal(size=(5, cfg.d_m))
        sess_a = Session()
        x = sess_a.quantize(r, init_scale(r, cfg.precision)[0], cfg.precision)
        base = dequantize(canonical_ffn_forward(x, model.layers[0], sess_a)).values
        sess_b = Session()
        lp = model.layers[0]
        y = ffn_core(l1_layer_norm(x, lp.ln2_g, lp.ln2_b, sess_b), lp, sess_b)
        pure = dequantize(residual_add(y, x, sess_b)).values
        assert sess_b.log.integer_pure()
        # Both lanes approximate the same function.
        assert np.linalg.norm(base - pure) / np.linalg.norm(base) < 0.2
