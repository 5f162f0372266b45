"""Carried ranges: payload and scale bounds instead of re-scans.

Every ScaledTensor carries a bound on max|x| and bounds lo <= min and
hi >= max on its scale; kernels derive their results' bounds from their
operands'.  Here every bound is checked against a scan after each kernel and
lane step of random forwards, each fallback is shown to run, or to raise
exactly as a scan does, and the scans left in a forward are counted.
"""
import collections
import contextlib
import dataclasses
import math
import os
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intflow import kernels as K
from intflow import modelfile, scaling, tensor, transformer
from intflow.audit import OpAuditLog
from intflow.errors import IntflowError, LaneOverflowError, ScaleRangeError
from intflow.scaling import (
    Lane, ScaleGranularity, Session, Workspace, protocol_apply, scale_match_dim,
)
from intflow.tensor import LANE_MAX, ScaledTensor
from intflow.transformer import ModelConfig, forward, quantize_model, random_reference_model

from helpers import lane_of, scaled


def peak(x: np.ndarray) -> int:
    """max|x| by a scan of its own, independent of the library's."""
    return max(abs(int(v)) for v in x.ravel()) if x.size else 0


def assert_scale_range(values: np.ndarray, lo: float, hi: float) -> None:
    assert 0 < lo <= hi < math.inf
    if values.size:
        assert lo <= values.min() and values.max() <= hi


def assert_tensor_bounds(t: ScaledTensor) -> None:
    m = peak(t.x)
    assert m <= t.max_bound < LANE_MAX
    assert t.max_magnitude == m
    assert_scale_range(t.s, t.lo, t.hi)


def assert_lane_bounds(lane: Lane) -> None:
    m = peak(lane.x)
    assert m <= lane.max_bound
    assert lane.max_magnitude == m
    assert_scale_range(lane.s, lane.lo, lane.hi)


@contextlib.contextmanager
def checked_bounds():
    """Check the bounds of every ScaledTensor built, and of every Lane a
    kernel takes or returns, for the duration of the block."""
    seen = {"tensors": 0, "lanes": 0}
    init, view, apply = ScaledTensor.__init__, ScaledTensor.view, scaling.protocol_apply

    def checked(t):
        assert_tensor_bounds(t)
        seen["tensors"] += 1
        return t

    def checked_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        checked(self)

    def checked_view(self, *args, **kwargs):
        return checked(view(self, *args, **kwargs))

    def checked_apply(kernel, ins, **kwargs):
        for x in ins:
            if isinstance(x, Lane):
                assert_lane_bounds(x)
        out = apply(kernel, ins, **kwargs)
        if isinstance(out, Lane):
            assert_lane_bounds(out)
            seen["lanes"] += 1
        return out

    ScaledTensor.__init__, ScaledTensor.view = checked_init, checked_view
    scaling.protocol_apply = checked_apply
    try:
        yield seen
    finally:
        ScaledTensor.__init__, ScaledTensor.view, scaling.protocol_apply = init, view, apply


# -- the bounds bracket what a scan finds ------------------------------------


@given(
    st.sampled_from([5, 7, 12, 15]),
    st.integers(1, 3),
    st.integers(0, 2**16),
    st.integers(1, 6),
    st.sampled_from(["tokens", "row", "element"]),
)
@settings(max_examples=40, deadline=None)
def test_forward_bounds_bracket(p, degree, seed, t, entry):
    cfg = ModelConfig(d_m=8, heads=2, d_ff=16, n_layers=2, vocab=16, precision=p, degree=degree)
    model = quantize_model(random_reference_model(cfg, seed))
    rng = np.random.default_rng(seed)
    session = Session()
    with checked_bounds() as seen:
        if entry == "tokens":
            forward(model, session, tokens=rng.integers(0, cfg.vocab, t))
        else:
            # Rows, or single elements, at magnitudes far apart.
            x = rng.normal(size=(t, cfg.d_m)) * 10.0 ** rng.uniform(-4, 4, (t, 1))
            if entry == "element":
                x *= 10.0 ** rng.uniform(-4, 4, x.shape)
                s = ((1 << p) - 1) / np.abs(x)
            else:
                s = scaling.init_scale(x, p)[0]
            forward(model, session, hidden=session.quantize(x, s, p))
    assert seen["tensors"] and seen["lanes"]


@st.composite
def operands(draw):
    """Two T x d operands, a weight, a positive denominator and an exponent,
    at precision p, with payloads in range or (big) far past it, up to
    where the int64 routes take over, and per-row, per-tensor or
    per-element scales, some at extreme magnitudes."""
    p = draw(st.sampled_from([5, 7, 12, 15]))
    top = (1 << p) - 1 if not draw(st.booleans()) else 2**60
    t, d = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    scale_values = st.floats(2.0**-20, 2.0**20) | st.sampled_from([1e-160, 1e160, 1e-300, 1e300])

    def operand(shape, values):
        n = shape[0] * shape[1]
        x = np.reshape(draw(st.lists(values, min_size=n, max_size=n)), shape)
        scale_shape = draw(st.sampled_from([(shape[0], 1), (1, 1), shape]))
        k = scale_shape[0] * scale_shape[1]
        s = np.reshape(draw(st.lists(scale_values, min_size=k, max_size=k)), scale_shape)
        return scaled(x.astype(np.int64), s, p)

    signed = st.integers(-top, top) | st.sampled_from([top, -top, 0])
    return p, {
        "a": operand((t, d), signed),
        "b": operand((t, d), signed),
        "w": operand((draw(st.integers(1, 3)), d), signed),
        "den": operand((t, d), st.integers(1, top)),
    }, draw(st.integers(1, 3))


# Each kernel and lane step on the drawn operands; `ap` runs protocol_apply.
STEPS = {
    "add": lambda ap, o, n: ap(K.add, [o["a"], o["b"]]).seal(),
    "ew_mul": lambda ap, o, n: ap(K.ew_mul, [o["a"], o["b"]]).seal(),
    "matmul": lambda ap, o, n: ap(K.matmul, [o["a"], o["w"]], ws=Workspace()).seal(),
    "pow_n": lambda ap, o, n: ap(K.pow_n, [lane_of(o["a"], Workspace())], n=n).seal(),
    "abs_": lambda ap, o, n: ap(K.abs_, [o["a"]]).seal(),
    "relu": lambda ap, o, n: ap(K.relu, [lane_of(o["a"], Workspace())]).seal(),
    "sum_reduce": lambda ap, o, n: ap(K.sum_reduce, [scale_match_dim(o["a"], -1)]).seal(),
    "int_div": lambda ap, o, n: ap(K.int_div, [o["a"], o["den"]]).seal(),
    "concat": lambda ap, o, n: ap(K.concat, [o["a"], o["b"]], axis=1).seal(),
    "transpose": lambda ap, o, n: K.transpose(o["a"], (1, 0)),
    "scale_match_dim": lambda ap, o, n: scale_match_dim(o["a"], 0),
}


def lane_steps(ap, o, n):
    """Every lane step in turn, as attention, the FFN and the layer norm
    chain them."""
    ws = Workspace()
    lane = ap(K.matmul, [o["a"], o["w"]], ws=ws)
    lane = ap(K.relu, [lane])
    lane = ap(K.pow_n, [lane], n=n)
    lane.seal()
    lane = ap(K.add, [lane_of(o["a"], ws), o["b"]])
    lane = ap(K.lane_add, [lane], c=np.ones(lane.s.shape), c_max=1)
    ap(K.sum_reduce, [ap(K.abs_, [lane])], allow_rescale=False).release()
    lane = ap(K.int_div, [lane, o["den"]])
    lane = ap(K.ew_mul, [lane, o["b"]])
    lane.match_last()
    ap(K.matmul, [lane, o["w"]], allow_rescale=False, ws=ws).seal()
    ap(K.sum_reduce, [lane], allow_rescale=False)
    lane.release()


@given(operands())
@settings(max_examples=150, deadline=None)
def test_kernel_bounds_bracket(case):
    _, ops, n = case
    log = OpAuditLog()

    def ap(kernel, ins, **kwargs):
        return scaling.protocol_apply(kernel, ins, log=log, **kwargs)

    with checked_bounds():
        for step in (*STEPS.values(), lane_steps):
            try:
                step(ap, ops, n)
            except (IntflowError, ValueError):
                pass  # a refusal; what was built before it was checked


# -- fallbacks: a bound that proves nothing defers to the scan ---------------


class TestScaleFallback:
    def test_minima_at_different_elements_still_run(self):
        a = scaled([[1, 1]], [[1e-200, 1.0]])
        b = scaled([[1, 1]], [[1.0, 1e-200]])
        assert a.lo * b.lo == 0.0  # the derived bound underflows
        out = K.ew_mul(a, b).seal()
        assert out.s.tolist() == [[1e-200, 1e-200]]
        assert (out.lo, out.hi) == (1e-200, 1e-200)  # scanned

    @pytest.mark.parametrize("s, message", [(1e-200, "strictly positive"), (1e200, "finite")])
    def test_a_product_out_of_range_raises_as_before(self, s, message):
        a = scaled([[1, 1]], [[s, 1.0]])
        with pytest.raises(ScaleRangeError, match=f"^scale values must be {message}$"):
            K.ew_mul(a, a)
        with pytest.raises(ScaleRangeError, match=f"^scale values must be {message}$"):
            K.matmul(scaled([[1]], [[s]]), scaled([[1]], [[s]]), Workspace())

    def test_a_quotient_out_of_range_raises_as_before(self):
        with pytest.raises(ScaleRangeError, match="^scale values must be finite$"):
            K.int_div(scaled([4], [1e200]), scaled([2], [1e-200]))

    def test_powers_near_the_subnormals_are_scanned(self):
        # 1e-105^3 is subnormal, where pow's error is not relative: the
        # bound proves nothing, and the scan finds the power > 0.
        t = scaled([[2, 3]], [[1e-105, 1.0]])
        out = K.pow_n(lane_of(t, Workspace()), 3).seal()
        assert 0 < out.lo == out.s.min() < 2.0**-1000


class TestPayloadFallback:
    def loose(self, values, bound, precision=7):
        """A tensor that carries only a loose bound on max|x|."""
        x = np.array(values, dtype=np.int64)
        t = ScaledTensor(x, np.ones((1,) * x.ndim), precision, bound)
        assert t.max_bound == bound
        return t

    def test_lane_guards_fall_back_to_the_exact_max(self):
        # Each call gets a fresh tensor, whose bound alone would trip the guard.
        t = self.loose([3, -5], 2**40)
        assert K.ew_mul(t, t).seal().x.tolist() == [9, 25]
        ws = Workspace()
        lane = lane_of(self.loose([3, -5], 2**40), ws)
        assert lane.max_bound == 2**40
        assert K.pow_n(lane, 3).x.tolist() == [27, -125]
        w = self.loose([[3, -5]], 2**40)
        assert K.matmul(w, w, ws).seal().x.tolist() == [[34]]
        lane = Lane(np.array([[3.0, -5.0]]), np.ones((1, 1)), 7, ws, m=2**40, scale_range=(1.0, 1.0))
        assert K.pow_n(lane, 3).x.tolist() == [[27, -125]]

    def test_an_overflow_still_raises(self):
        t = scaled([2**31, 1], [1.0])
        with pytest.raises(LaneOverflowError, match="^product exceeds accumulator lane$"):
            K.ew_mul(t, t)
        with pytest.raises(LaneOverflowError, match="^power exceeds accumulator lane$"):
            K.pow_n(lane_of(t, Workspace()), 2)

    def test_a_bound_at_the_lane_is_scanned(self):
        t = ScaledTensor(np.array([3, -5], dtype=np.int64), np.ones(1), 7, LANE_MAX)
        assert t.max_bound == 5

    def test_bound_past_the_limit_defers_to_the_exact_max(self):
        log = OpAuditLog()
        out = protocol_apply(K.abs_, [self.loose([3, -5], 1000)], log=log).seal()
        assert out.x.tolist() == [3, 5]
        assert not any(r.rescaled for r in log.records)

    def test_the_match_switch_reads_the_exact_max(self):
        # A bound past 2^22 must not refuse a payload whose exact max is
        # below it; the match then rounds 1 * (1 - 2^-53) up to 1.
        s = [[1.0, 1.0 - 2.0**-53]]
        loose = scale_match_dim(ScaledTensor(np.array([[1, 0]], dtype=np.int64), np.array(s), 7, 2**30), 1)
        assert loose.x.tolist() == scale_match_dim(scaled([[1, 0]], s), 1).x.tolist() == [[1, 0]]

    def test_relu_leaves_the_lane_inexact(self):
        ws = Workspace()
        lane = lane_of(scaled([[-9, 4]], [[1.0]]), ws)
        lane = K.relu(Lane(lane.x, lane.s, 7, ws))
        assert lane.max_bound == 9 and lane.nonneg
        assert lane.max_magnitude == 4 and lane.max_bound == 9


# -- the scans left in a forward ---------------------------------------------


# Each full scan by the module it lives in: max|x| and the scale check, and
# the pass that decides a shrink (the payload's max and min per scale group).
SCANS = {"max_abs": tensor, "block_max_abs": tensor, "check_scale": tensor, "extremes": scaling}


@contextlib.contextmanager
def counted_scans():
    """Count calls of the full scans in SCANS, in every module that binds
    them."""
    counts = dict.fromkeys(SCANS, 0)
    patched = []
    for name, home in SCANS.items():
        original = getattr(home, name)

        def counting(*args, _original=original, _name=name):
            counts[_name] += 1
            return _original(*args)

        for module in (tensor, scaling, K, transformer, modelfile):
            if getattr(module, name, None) is original:
                patched.append((module, name, original))
                setattr(module, name, counting)
    try:
        yield counts
    finally:
        for module, name, original in patched:
            setattr(module, name, original)


LONGCTX = ModelConfig(d_m=64, heads=8, d_ff=256, n_layers=2, vocab=256, precision=12)


# Full scans per token forward; before ranges were carried they were 391 on
# `toy` (216 max|x|, 175 scale checks) and 857 on the `longctx` shape.  The
# count depends on the shape and the op sequence, not on the sequence length.
# Until the shrink decided from its own reductions, each decision was a
# max|x| scan (65 on `toy`, 137 on `longctx`), and each rescale then reduced
# the same groups again; now the decision is `extremes`, whose group maxima
# and minima the rescale reuses.  Until the heads of a layer ran as one
# group, the attention's steps ran once per head: `extremes` 56 and 116,
# `check_scale` 2 and 8.  Each boost (five layer norms, and one attention
# group per layer) takes its blocks' max|x| in one `block_max_abs` pass;
# until then it was one `max_abs` per head (9 and 21).
@pytest.mark.parametrize("cfg, t, budget", [
    (ModelConfig(), 16, {"max_abs": 0, "block_max_abs": 7, "check_scale": 1, "extremes": 46}),
    (LONGCTX, 32, {"max_abs": 0, "block_max_abs": 7, "check_scale": 1, "extremes": 46}),
])
def test_scan_budget(cfg, t, budget):
    model = quantize_model(random_reference_model(cfg, 0))
    tokens = np.random.default_rng(1).integers(0, cfg.vocab, t)
    with counted_scans() as counts:
        forward(model, Session(), tokens=tokens)
    assert counts == budget


def count_calls(run, budget: int) -> None:
    """Assert that run() makes `budget` Python calls into the intflow
    package, counted after one warm-up run has filled the lru_caches.  On a
    mismatch the message names the ten functions called most, with their
    counts, so a regression points at the function that added calls."""
    run()
    home = os.path.dirname(transformer.__file__) + os.sep
    calls = collections.Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(home):
            calls[frame.f_code.co_qualname] += 1

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    total = sum(calls.values())
    top = ", ".join(f"{name} {n}" for name, n in calls.most_common(10))
    assert total == budget, f"{total} calls, not {budget}; most called: {top}"


# Python calls into the intflow package per forward (the first forward makes
# about 28 more).  numpy's own calls are not counted, so the count follows the
# op sequence only.  Until records were built in one call and shapes and
# bounds became plain attributes, they were 4,087 and 8,211; until pow_n's
# lane guard became one check in Python ints, 2,947 and 5,969; until the
# heads of a layer ran as one group, 2,931 and 5,905; until the boost took
# its blocks' peaks in one pass, 2,520 and 2,643.  The count includes the
# session made for the run: until it was Session() it was built with a
# Precision, whose check was one more call (2,504 and 2,579); the forward's
# own calls did not change.  Until a sealed tensor was one object, read
# under the same names as a lane, they were 2,503 and 2,578.  Until audit
# records were built as tuples, shapes memoized in `extremes`, and
# `Lane.put`, `rescale` and `ScaledTensor` checked proven bounds inline,
# they were 2,258 and 2,333.  Until `max_bound` was only a bound, with no
# `exact` flag whose sealed results called check_lane, they were 1,568 and
# 1,623.  Until `Session.workspace` was a field made with the session, not a
# property read 22 times a forward, they were 1,551 and 1,610.  Until abs_
# wrote |x| into a lane of its own, so that the layer norm made no Lane copy
# of its centered rows, and the output projection called the protocol
# itself, they were 1,529 and 1,588.  Re-pin only downward.
@pytest.mark.parametrize("cfg, t, budget", [(ModelConfig(), 1, 1493), (LONGCTX, 32, 1552)])
def test_call_budget(cfg, t, budget):
    model = quantize_model(random_reference_model(cfg, 0))
    tokens = np.random.default_rng(1).integers(0, cfg.vocab, t)
    count_calls(lambda: forward(model, Session(), tokens=tokens), budget)


# The same count for the FP32 twin's forward: its steps are a few numpy
# calls each, so the Python around them is most of a `toy` forward.  Re-pin
# only downward.
def test_twin_call_budget():
    ref = transformer.reference_twin(quantize_model(random_reference_model(ModelConfig(), 0)))
    tokens = np.random.default_rng(1).integers(0, ModelConfig().vocab, 1)
    count_calls(lambda: transformer.reference_forward(ref, tokens=tokens), 113)


def test_forward_matches_only_p_bit_payloads(monkeypatch):
    # A match refuses payloads from 2^22 up; a forward never gets near it:
    # every operand it matches is sealed at 2^p - 1 or just shrunk to it.
    # The sweep runs each precision at the lowest and highest degree, both
    # granularities and W_q, W_k grown six times, from tokens and from a
    # hidden input, whose scales follow the granularity.
    seen = []
    match = scaling._match_payload

    def checking(x, s, s_bar, held, *args, **kwargs):
        seen.append(held.max_bound)
        return match(x, s, s_bar, held, *args, **kwargs)

    for module in (scaling, K, transformer):
        monkeypatch.setattr(module, "_match_payload", checking)
    rng = np.random.default_rng(0)
    for p in range(2, 16):
        for degree in (1, 62 // (p + 1)):
            for g in ScaleGranularity:
                cfg = ModelConfig(d_m=8, heads=2, d_ff=16, n_layers=2, vocab=16, precision=p,
                                  granularity=g, degree=degree)
                ref = random_reference_model(cfg, p)
                ref = dataclasses.replace(ref, layers=tuple(
                    dataclasses.replace(lp, w_q=6 * lp.w_q, w_k=6 * lp.w_k) for lp in ref.layers))
                model = quantize_model(ref)
                seen.clear()
                forward(model, Session(), tokens=rng.integers(0, cfg.vocab, 6))
                hidden = rng.normal(size=(6, cfg.d_m))
                forward(model, Session(), hidden=hidden)
                assert seen and max(seen) <= (1 << p) - 1
