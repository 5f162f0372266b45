"""Acceptance suite: ten headline properties of the integer inference stack.

Each test prints one PASS/FAIL line (visible without -s) and asserts the
same condition, so the suite doubles as a human-readable checklist.
"""
import math
from fractions import Fraction

import numpy as np
import pytest

from intflow import kernels as K
from intflow.audit import FP32, PAYLOAD, SCALE, AuditRecord, OpAuditLog
from intflow.scaling import (
    Session,
    Workspace,
    dequantize,
    init_scale,
    protocol_apply,
    quantize,
    rescale,
    scale_match,
)
from intflow.transformer import (
    ModelConfig,
    PolyParams,
    forward,
    poly_attention,
    quantize_model,
    random_reference_model,
    reference_forward,
    reference_twin,
)
from intflow.analysis import precision_loss, speedup_estimate, storage_report

from helpers import count_records, in_range, lane_of, note_setup, report_mse, scaled

# One-sided binomial sign test at 95% confidence for n = 20 trials:
# P(X >= 15 | p = 0.5) ~ 0.021, P(X >= 14) ~ 0.058, so 15 is the threshold.
N_SEEDS = 20
SIGN_TEST_MIN = 15


def report(capsys, n, name, ok):
    with capsys.disabled():
        print(f"criterion {n:2d} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {n} ({name}) failed"


def test_01_quantization_bound(capsys):
    """|D(Q(r,s)) - r| <= 0.5/s exactly, checked with rational arithmetic.

    Inputs carry FP32-semantics values, so products r*s of two 24-bit
    mantissas are exact in float64 and the half-unit bound is sharp.
    """
    rng = np.random.default_rng(2024)
    ok = True
    for case in range(1000):
        p = 6 + case % 5
        r_vals = (rng.normal(size=(8, 8)) * rng.uniform(0.01, 100)).astype(
            np.float32
        ).astype(np.float64)
        s = init_scale(r_vals, p)[0]
        t = quantize(r_vals, s, p)
        s_full = np.broadcast_to(s, r_vals.shape)
        for x, rv, sv in zip(
            t.x.ravel(), r_vals.ravel(), s_full.ravel()
        ):
            # |x - r*s| <= 1/2  <=>  |x/s - r| <= 0.5/s
            if abs(Fraction(int(x)) - Fraction(rv) * Fraction(sv)) > Fraction(1, 2):
                ok = False
    report(capsys, 1, "quantization bound", ok)


def test_02_overflow_safety(capsys):
    """Post-protocol payloads never exceed 2^p - 1.

    Exhaustive at p=4 over all in-range payload pairs for add and ew_mul
    (plus matching and re-scaling), then 10^5 fuzz cases at p=7.
    """
    ok = True
    limit4 = (1 << 4) - 1
    vals = np.arange(-15, 16)
    xs, ys = np.meshgrid(vals, vals)
    for sa, sb in ((1.0, 1.0), (3.0, 7.0), (0.5, 12.0)):
        a = scaled(xs.ravel(), np.full(xs.size, sa), 4)
        b = scaled(ys.ravel(), np.full(ys.size, sb), 4)
        for kern in (K.add, K.ew_mul):
            out = protocol_apply(kern, [a, b], log=OpAuditLog()).seal()
            ok &= out.max_magnitude <= limit4
        for m in scale_match([a, b]):
            ok &= m.max_magnitude <= limit4
    rng = np.random.default_rng(7)
    limit7 = (1 << 7) - 1
    for _ in range(100_000 // 8):
        a = scaled(rng.integers(-127, 128, 8), rng.uniform(0.1, 99, 8))
        b = scaled(rng.integers(-127, 128, 8), rng.uniform(0.1, 99, 8))
        kern = (K.add, K.ew_mul)[rng.integers(2)]
        out = protocol_apply(kern, [a, b], log=OpAuditLog()).seal()
        ok &= out.max_magnitude <= limit7
        wide = scaled(rng.integers(-(2**31), 2**31, 8), np.full(8, 2.0))
        ok &= in_range(rescale(lane_of(wide, Workspace())).seal())
    report(capsys, 2, "overflow safety", ok)


def test_03_distribution_law(capsys):
    """pow/abs/relu act on payload and scale independently, exactly.

    Exhaustive over |x| <= 20, s in {1..10}/{1..4}, n in {1..4}.  Payloads
    are compared to the exact integer oracle; output scales to the
    correctly-rounded float of the library's own scale arithmetic.  For
    dyadic scales (where float powers are exact) the full de-quantized
    identity D(OP(t)) == OP(D(t)) is also checked with fractions.
    """
    ok = True
    xs = np.arange(-20, 21)
    for i in range(1, 11):
        for j in range(1, 5):
            s = i / j
            t = scaled(xs, np.full(xs.size, s), 7)
            for n in range(1, 5):
                out = K.pow_n(lane_of(t, Workspace()), n).seal()
                ok &= out.x.tolist() == [int(x) ** n for x in xs]
                # The scale lane is floating point: correct to the last ulps.
                want_s = float(Fraction(np.float64(s)) ** n)
                ok &= bool(
                    np.all(np.abs(out.s - want_s) <= 4 * np.spacing(want_s))
                )
                exact_s = Fraction(np.float64(s))
                if Fraction(float(out.s[0])) == exact_s**n:
                    for x, xo in zip(xs, out.x):
                        lhs = Fraction(int(xo)) / exact_s**n
                        rhs = (Fraction(int(x)) / exact_s) ** n
                        ok &= lhs == rhs
            out = K.abs_(t).seal()
            ok &= out.x.tolist() == [abs(int(x)) for x in xs]
            ok &= np.all(out.s == t.s)
            out = K.relu(lane_of(t, Workspace())).seal()
            ok &= out.x.tolist() == [max(int(x), 0) for x in xs]
            ok &= np.all(out.s == t.s)
    report(capsys, 3, "distribution-law exactness", ok)


def test_04_matmul_oracle(capsys):
    """100 random 8x8 x 8x8 products at p=7 vs an FP64 oracle.

    The only loss is scale matching along the contraction dim; the bound
    accumulates one matched unit (1/min-scale) per input element.
    """
    rng = np.random.default_rng(44)
    ok = True
    for _ in range(100):
        a = scaled(rng.integers(-127, 128, (8, 8)), rng.uniform(1, 60, (8, 8)))
        b = scaled(rng.integers(-127, 128, (8, 8)), rng.uniform(1, 60, (8, 8)))
        out = K.matmul(a, b, Workspace()).seal()
        da, db = dequantize(a).values, dequantize(b).values
        want = da @ db.T
        ea = (1.0 + 1e-9) / np.min(a.s, axis=1, keepdims=True)
        eb = (1.0 + 1e-9) / np.min(b.s, axis=1, keepdims=True)
        ones = np.ones((8, 8))
        bound = (
            np.abs(da) @ (ones * eb).T
            + (ones * ea) @ np.abs(db).T
            + 8 * (ea @ eb.T)
            + 1e-9
        )
        ok &= bool(np.all(np.abs(dequantize(out).values - want) <= bound))
    report(capsys, 4, "matmul oracle agreement", ok)


def test_05_integer_path_purity(capsys):
    """A full 2-layer forward never de-quantizes and never does FP32 value math."""
    cfg = ModelConfig()
    model = quantize_model(random_reference_model(cfg, seed=0))
    sess = Session()
    forward(model, sess, tokens=np.arange(12) % cfg.vocab)
    ok = (
        sess.log.integer_pure()
        and count_records(sess.log, kind="dequantize") == 0
        and count_records(sess.log, lane=FP32) == 0
        and all(r.lane in (PAYLOAD, SCALE) for r in sess.log.records)
    )
    report(capsys, 5, "integer-path purity", ok)


def test_06_storage_ratio(capsys):
    """Serialized FP32/INT8 byte ratio of the default toy sits in [3.4, 4.0)."""
    model = quantize_model(random_reference_model(ModelConfig(), seed=0))
    rep = storage_report(model, reference_twin(model))
    ok = 3.4 <= rep.ratio < 4.0
    report(capsys, 6, f"storage ratio {rep.ratio:.3f}", ok)


def test_07_bit_sweep_trend(capsys):
    """Output error falls as bits grow: sign test over 20 seeds for p=6..10,
    plus relative error < 1e-3 at p=15 for every seed."""
    cfg = ModelConfig()
    decreasing_counts = np.zeros(4, dtype=int)  # pairs (6,7),(7,8),(8,9),(9,10)
    p15_ok = True
    for seed in range(N_SEEDS):
        ref = random_reference_model(cfg, seed=seed)
        tok = np.random.default_rng(1000 + seed).integers(0, cfg.vocab, 12)
        oracle = reference_forward(ref, tokens=tok).values
        mses = []
        for p in (6, 7, 8, 9, 10, 15):
            model = quantize_model(ref, precision=p)
            out = forward(model, Session(), tokens=tok)
            diff = dequantize(out).values - oracle
            mses.append(float(np.mean(diff**2)))
        for k in range(4):
            decreasing_counts[k] += mses[k + 1] <= mses[k]
        rel15 = math.sqrt(mses[5] * oracle.size) / np.linalg.norm(oracle)
        p15_ok &= rel15 < 1e-3
    ok = bool(np.all(decreasing_counts >= SIGN_TEST_MIN)) and p15_ok
    report(capsys, 7, "bit-sweep trend", ok)


def test_08_degenerate_attention(capsys):
    """All scores below -bias: attention degrades to the plain mean of V rows."""
    p = 7
    pp = PolyParams(bias=0.5, offset=0.1)
    T, dh = 5, 4

    def q(vals):
        r = np.asarray(vals, dtype=np.float64)
        return quantize(r, init_scale(r, p)[0], p)

    qv = np.tile([[2.0, 0.0, 1.0, 0.5]], (T, 1))
    kv = np.tile([[-2.0, 0.0, -1.0, -0.5]], (T, 1))
    rng = np.random.default_rng(8)
    vv = rng.normal(size=(T, dh))
    vv[:, 0] = 1.0  # equal row maxima -> identical per-row scales
    v_q = q(vv)
    sess = Session()
    out = poly_attention(q(qv), q(kv), K.transpose(v_q, (1, 0)), pp, 3, 16, sess).seal()
    got = dequantize(out).values
    want = np.tile(np.mean(dequantize(v_q).values, axis=0), (T, 1))
    # One truncated integer division plus one re-scaling: two payload units.
    bound = 2.0 / np.min(out.s)
    ok = bool(np.max(np.abs(got - want)) <= bound)
    report(capsys, 8, "degenerate attention", ok)


def test_09_last_layer_loss_concentration(capsys):
    """Residual-path error grows with depth: final layer beats layer 0,
    sign test over 20 seeds."""
    cfg = ModelConfig()
    wins = 0
    for seed in range(N_SEEDS):
        ref = random_reference_model(cfg, seed=100 + seed)
        model = quantize_model(ref)
        tok = np.random.default_rng(2000 + seed).integers(0, cfg.vocab, 12)
        rep = precision_loss(model, reference_twin(model), [tok])
        wins += report_mse(rep, "Res", cfg.n_layers - 1) > report_mse(rep, "Res", 0)
    ok = wins >= SIGN_TEST_MIN
    report(capsys, 9, f"last-layer loss concentration ({wins}/{N_SEEDS})", ok)


def test_10_speedup_estimator(capsys):
    """Amdahl limits are exact, the estimate is monotone in the accelerable
    share, and longer sequences amortize the fixed conversion cost."""

    def fake_log(matmul, other):
        log = OpAuditLog()
        if matmul:
            log.records.append(AuditRecord("matmul", PAYLOAD, matmul))
        if other:
            log.records.append(AuditRecord("add", PAYLOAD, other))
        return log

    ok = speedup_estimate(fake_log(1000, 0)).estimate == pytest.approx(6.0)
    ok &= speedup_estimate(fake_log(0, 1000)).estimate == pytest.approx(1.0)
    prev = 0.0
    for mm in range(0, 1001, 100):
        est = speedup_estimate(fake_log(mm, 1000 - mm)).estimate
        ok &= est >= prev
        prev = est

    cfg = ModelConfig()
    wins = 0
    for seed in range(N_SEEDS):
        ref = random_reference_model(cfg, seed=300 + seed)
        ests = []
        for t_len in (4, 16):
            sess = Session()
            model = quantize_model(ref)
            note_setup(sess, ref)  # the fixed conversion cost
            forward(model, sess, tokens=np.arange(t_len) % cfg.vocab)
            ests.append(speedup_estimate(sess.log).estimate)
        wins += ests[1] > ests[0]
    ok &= wins >= SIGN_TEST_MIN
    report(capsys, 10, f"speedup estimator ({wins}/{N_SEEDS})", ok)
