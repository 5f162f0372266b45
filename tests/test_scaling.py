"""Scale initialization, (de-)quantization, matching, re-scaling, protocol."""
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intflow import kernels as K
from intflow import scaling
from intflow.audit import PAYLOAD, SCALE, AuditRecord, OpAuditLog
from intflow.errors import LaneOverflowError, PrecisionError, ScaleRangeError, ShapeError
from intflow.scaling import (
    Lane,
    Precision,
    ScaleGranularity,
    Session,
    dequantize,
    init_scale,
    protocol_apply,
    quantize,
    rescale,
    scale_match,
    scale_match_dim,
    Workspace,
    trunc_div,
)
from intflow.tensor import LANE_MAX, max_abs, scale_bounds

from helpers import count_records, in_range, lane_of, scaled


class TestPrecision:
    @pytest.mark.parametrize("p,limit", [(2, 3), (7, 127), (15, 32767)])
    def test_max_magnitude(self, p, limit):
        # 2^p - 1 is where a shrink of a lane at precision p lands.
        out = rescale(lane_of(scaled([1000 * limit], [1.0], p), Workspace())).seal()
        assert out.max_magnitude == limit and out.precision == p
        assert Precision(p) == Precision(p) and repr(Precision(p)) == f"Precision(p={p})"

    @pytest.mark.parametrize("p", [1, 16])
    def test_out_of_range(self, p):
        with pytest.raises(ValueError):
            Precision(p)


class TestTruncDiv:
    @pytest.mark.parametrize(
        "x,k,want", [(7, 2, 3), (-7, 2, -3), (6, 3, 2), (-6, 3, -2), (0, 5, 0)]
    )
    def test_rounds_toward_zero(self, x, k, want):
        assert trunc_div(np.array([x]), np.array([k]))[0] == want

    def test_rejects_nonpositive_divisor(self):
        # trunc_div checks no divisor: int_div, whose divisor is an operand, does.
        with pytest.raises(PrecisionError, match="divisor must be strictly positive"):
            K.int_div(scaled([1], [1.0]), scaled([0], [1.0]))

    @given(
        st.integers(-10**6, 10**6),
        st.integers(1, 10**4),
    )
    def test_magnitude_never_grows(self, x, k):
        out = trunc_div(np.array([x]), np.array([k]))[0]
        assert abs(out) <= abs(x)
        assert out == int(Fraction(x, k)) if x >= 0 else out == -int(Fraction(-x, k))


# Magnitudes on both sides of the float64-exact switch at 2^53, up to the lane.
BOUNDARY = [0, 1, 2**53 - 1, 2**53, 2**53 + 1, 2**62 - 1]
DIVISORS = [1, 2, 3, 127, 4095, 2**53 - 1, 2**53, 2**53 + 1, 2**62 - 1]
lane_ints = st.one_of(
    st.sampled_from(BOUNDARY + [-b for b in BOUNDARY]),
    st.integers(-(2**62 - 1), 2**62 - 1),
)
divisors = st.one_of(st.sampled_from(DIVISORS), st.integers(1, 2**62 - 1))


def int_trunc_div(x: int, k: int) -> int:
    q = abs(x) // k
    return q if x >= 0 else -q


def exact_match(x: int, s: float, s_bar: float) -> int:
    """x moved from scale s to s_bar, truncated toward zero, in rationals."""
    return int(x * Fraction(s_bar) / Fraction(s))


def assert_matched(got: int, x: int, s: float, s_bar: float) -> None:
    want = exact_match(x, s, s_bar)
    if got != want:
        # The match's guard: a quotient less than 2e-9 below an integer is
        # rounded up to it, away from zero.
        exact = abs(x) * Fraction(s_bar) / Fraction(s)
        assert abs(got) == abs(want) + 1 and abs(got) - exact < Fraction(2, 10**9)


def refuses():
    """The refusal of a match whose payload reaches MATCH_FLOAT_MAX."""
    return pytest.raises(PrecisionError, match="not below")


MATCH_BOUNDARY = BOUNDARY + [2**22 - 1, 2**22, 2**45 + 3, 2**52 + 1]
# Float32 scales; full 24-bit mantissas make most ratios inexact in float64.
match_scales = st.floats(2.0**-30, 2.0**30, width=32) | st.integers(2**23, 2**24).map(
    lambda m: m * 2.0**-12
)


class TestFloat64Boundary:
    """trunc_div, rescale and matching against Python ints across the 2^53 switch."""

    @given(st.data(), st.integers(1, 6))
    @settings(max_examples=300)
    def test_trunc_div_matches_python_ints(self, data, n):
        xs = data.draw(st.lists(lane_ints, min_size=n, max_size=n))
        ks = data.draw(st.lists(divisors, min_size=n, max_size=n))
        out = trunc_div(np.array(xs, dtype=np.int64), np.array(ks, dtype=np.int64))
        assert out.dtype == np.int64
        assert out.tolist() == [int_trunc_div(x, k) for x, k in zip(xs, ks)]

    @pytest.mark.parametrize("x", BOUNDARY)
    @pytest.mark.parametrize("k", DIVISORS)
    def test_trunc_div_boundary_grid(self, x, k):
        for v in (x, -x):
            assert trunc_div(np.array([v]), np.array([k])).tolist() == [int_trunc_div(v, k)]

    @pytest.mark.parametrize("k", [k for k in DIVISORS if k < 2**53])
    def test_trunc_div_takes_a_float64_divisor(self, k):
        # LN and attention divide an int64 numerator from 2^53 up by a float64 lane.
        for x in BOUNDARY + [-b for b in BOUNDARY]:
            assert trunc_div(np.array([x]), np.array([float(k)])).tolist() == [int_trunc_div(x, k)]

    @given(st.data(), st.integers(1, 6))
    @settings(max_examples=300)
    def test_int_div_matches_python_ints(self, data, n):
        xs = data.draw(st.lists(lane_ints, min_size=n, max_size=n))
        ks = data.draw(st.lists(divisors, min_size=n, max_size=n))
        out = K.int_div(scaled(xs, [3.0]), scaled(ks, [0.5])).seal()
        assert out.x.tolist() == [int_trunc_div(x, k) for x, k in zip(xs, ks)]
        assert out.s.tolist() == [6.0]

    @pytest.mark.parametrize("x", BOUNDARY)
    @pytest.mark.parametrize("k", DIVISORS)
    def test_int_div_boundary_grid(self, x, k):
        out = K.int_div(scaled([x, -x], [1.0]), scaled([k], [1.0])).seal()
        assert out.x.tolist() == [int_trunc_div(x, k), int_trunc_div(-x, k)]

    def test_int_div_reuses_the_stored_max(self, monkeypatch):
        # The numerator carries max|x|, so trunc_div does not scan it again.
        def no_scan(arr):
            raise AssertionError("max|x| scanned again")

        monkeypatch.setattr(scaling, "max_abs", no_scan)
        out = K.int_div(scaled([2**53 + 1, -(2**60)], [1.0]), scaled([3, 2**53], [1.0])).seal()
        assert out.x.tolist() == [int_trunc_div(2**53 + 1, 3), -(2**7)]

    @given(
        st.lists(lane_ints, min_size=6, max_size=6),
        st.sampled_from([2, 7, 12, 15]),
        st.booleans(),
        st.lists(st.floats(0.5, 1000.0), min_size=6, max_size=6),
    )
    @settings(max_examples=300)
    def test_rescale_matches_python_ints(self, xs, p, per_element, svals):
        x = np.array(xs, dtype=np.int64).reshape(2, 3)
        s = np.array(svals).reshape(2, 3) if per_element else np.array(svals[:2]).reshape(2, 1)
        out = rescale(lane_of(scaled(x, s, p), Workspace())).seal()
        limit = (1 << p) - 1
        if per_element:
            groups = [[(i, j)] for i in range(2) for j in range(3)]
        else:
            groups = [[(i, j) for j in range(3)] for i in range(2)]
        for g in groups:
            peak = max(abs(xs[3 * i + j]) for i, j in g)
            s_hat = max(-(-peak // limit), 1)
            for i, j in g:
                assert out.x[i, j] == int_trunc_div(xs[3 * i + j], s_hat)
            si, sj = g[0] if per_element else (g[0][0], 0)
            assert out.s[si, sj] == s[si, sj] / s_hat
        assert in_range(out)


    @given(st.data(), st.integers(1, 6), st.booleans())
    @settings(max_examples=300)
    def test_scale_match_matches_fractions(self, data, n, big):
        # Either side of the match's limit and of 2^53, up to the lane: a
        # payload that moves is refused from MATCH_FLOAT_MAX up.
        wide = st.sampled_from(MATCH_BOUNDARY) | st.integers(2**40, 2**53) | lane_ints
        ints = wide if big else st.integers(-(2**21), 2**21)
        xs = data.draw(st.lists(ints, min_size=n, max_size=n))
        sa = data.draw(st.lists(match_scales, min_size=n, max_size=n))
        sb = data.draw(st.lists(match_scales, min_size=n, max_size=n))
        ts = [scaled(xs, sa), scaled([0] * n, sb)]
        if max(map(abs, xs)) >= scaling.MATCH_FLOAT_MAX and any(b < a for a, b in zip(sa, sb)):
            with refuses():
                scale_match(ts)
            return
        ma, _ = scale_match(ts)
        for got, x, s, s_bar in zip(ma.x.tolist(), xs, sa, ma.s.tolist()):
            assert_matched(got, x, s, s_bar)

    @given(st.data(), st.integers(1, 6))
    @settings(max_examples=200)
    def test_scale_match_dim_wide_payloads_match_fractions(self, data, n):
        # 2^40 to 2^61 are refused wherever a match runs: a single slice
        # has its scale collapsed already, so nothing is matched.
        signed = st.integers(2**40, 2**61).flatmap(lambda v: st.sampled_from([v, -v]))
        xs = data.draw(st.lists(signed, min_size=n, max_size=n))
        ss = data.draw(st.lists(match_scales, min_size=n, max_size=n))
        if n > 1:
            with refuses():
                scale_match_dim(scaled([xs], [ss]), 1)
            return
        out = scale_match_dim(scaled([xs], [ss]), 1)
        s_bar = min(ss)
        assert out.s.tolist() == [[s_bar]]
        assert out.x.tolist() == [[exact_match(x, s, s_bar) for x, s in zip(xs, ss)]]

    @pytest.mark.parametrize("x", MATCH_BOUNDARY)
    @pytest.mark.parametrize("s, s_bar", [(3.0, 1.0), (7.0, 2.0), (2.0**20, 1.0), (1.0000001, 1.0)])
    def test_scale_match_dim_boundary_grid(self, x, s, s_bar):
        if x >= scaling.MATCH_FLOAT_MAX:
            with refuses():
                scale_match_dim(scaled([[x, -x]], [[s, s_bar]]), 1)
            return
        out = scale_match_dim(scaled([[x, -x]], [[s, s_bar]]), 1)
        assert out.x.tolist() == [[exact_match(x, s, s_bar), -x]]

    def test_lane_match_refuses_above_2_53(self):
        # The lane matches its payload in place through the same function,
        # which refuses it from MATCH_FLOAT_MAX up, past 2^53 too.
        ws = scaling.Workspace()
        x = np.array([[2**60 + 5, -(2**53 + 1)], [2**40 - 1, 3]], dtype=np.int64)
        s = np.array([[3.0, 7.0], [2.0**40, 5.0]])
        lane = scaling.Lane(x.copy(), s.copy(), 12, ws)
        with refuses():
            lane.match_last()


class TestInitScale:
    def test_worked_example(self):
        s = init_scale(np.array([1.0, -2.0, 0.5]), 7)[0]
        assert s.tolist() == [63.5]

    def test_all_zero_group_gets_largest_scale(self):
        # The largest scale keeps matching from lowering a partner's scale.
        s = init_scale(np.array([[0.0, 0.0, 0.0], [1.0, 0.5, 0.0]]), 7)[0]
        assert s.tolist() == [[float(np.finfo(np.float32).max)], [127.0]]

    def test_per_row_collapses_hidden_dim(self):
        r = np.arange(12, dtype=np.float64).reshape(3, 4) + 1
        s = init_scale(r, 7, ScaleGranularity.PER_ROW)[0]
        assert s.shape == (3, 1)

    def test_per_batch_collapses_two_dims(self):
        r = np.ones((2, 3, 4))
        assert init_scale(r, 7, ScaleGranularity.PER_BATCH)[0].shape == (2, 1, 1)

    def test_tiny_group_clamps_to_largest_float32(self):
        r = np.array([[1e-300, -1e-300], [1.0, 0.5]])
        s = init_scale(r, 7)[0]
        assert s.tolist() == [[float(np.finfo(np.float32).max)], [127.0]]

    @pytest.mark.parametrize("shrink", [1.5, 1.0 + 1e-9])
    def test_finite_scales_are_untouched_by_the_clamp(self, shrink):
        m = 127.0 / (float(np.finfo(np.float32).max) / shrink)
        s = init_scale(np.array([m]), 7)[0]
        assert s.tolist() == [float(np.float32(127.0 / m))]

    def test_scales_are_float32_representable(self):
        rng = np.random.default_rng(0)
        s = init_scale(rng.normal(size=(50, 8)), 7)[0]
        assert np.array_equal(s, s.astype(np.float32).astype(np.float64))


class TestQuantize:
    def test_worked_example(self):
        r = np.array([1.0, -2.0, 0.5])
        t = quantize(r, init_scale(r, 7)[0], 7)
        assert t.x.tolist() == [64, -127, 32]

    def test_round_half_to_even(self):
        r = np.array([0.5, 1.5, 2.5, -0.5])
        t = quantize(r, np.array([1.0]), 7)
        assert t.x.tolist() == [0, 2, 2, 0]

    def test_payloads_fit_precision_after_init_scale(self):
        rng = np.random.default_rng(1)
        for p in (2, 7, 15):
            r = rng.normal(size=(10, 6)) * 100
            t = quantize(r, init_scale(r, p)[0], p)
            assert t.max_magnitude <= (1 << p) - 1
        # Past about (2^p - 1) * 2^126 the scale is a subnormal float32, which
        # rounding could raise past the limit (128, 168 and 210 at p=7).  A
        # scale stepped down to 0 is refused.
        for p in (2, 7, 15):
            for v in (1e45, 6e46, 1.5e47):
                r = np.array([[v, -v / 3]])
                try:
                    s = init_scale(r, p)[0]
                except ScaleRangeError:
                    assert (p, v) in {(2, 6e46), (2, 1.5e47), (7, 1.5e47)}
                    continue
                assert quantize(r, s, p).max_magnitude <= (1 << p) - 1

    @pytest.mark.parametrize("r, s", [
        (1e306, [1e3]), (-1e308, [2.0]), ([1.0, -1e300], [1e10, 1e10]),
    ])
    def test_a_product_past_float64_is_a_lane_overflow(self, r, s):
        # Finite values and scales whose product overflows float64 are
        # refused as a payload past the lane is, with no numpy warning.
        r = np.float64(r) if np.ndim(r) == 0 else np.array(r)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(LaneOverflowError, match="quantized payload exceeds accumulator lane"):
                scaling.quantize_into(r, np.array(s), np.empty(np.shape(s)))

    def test_quantize_dequantize_quantize_is_idempotent(self):
        rng = np.random.default_rng(2)
        r = rng.normal(size=(20, 8))
        s = init_scale(r, 7)[0]
        t1 = quantize(r, s, 7)
        r2 = dequantize(t1).values
        s2 = init_scale(r2, 7)[0]
        t2 = quantize(r2, s2, 7)
        assert np.array_equal(t1.x, t2.x)
        assert np.array_equal(s, s2)

    def test_payload_keeps_the_exact_max_magnitude(self):
        # quantize hands its own scan to the payload; a negative extreme and
        # a value near 2^53 must both come through exactly.
        for values in ([1.0, -300.0, 2.0], [2.0**53 + 2, -3.0], [0.0, 0.0]):
            t = quantize(np.array(values), np.array([1.0]), 7)
            assert t.max_magnitude == max(abs(int(v)) for v in t.x)

    @given(st.integers(0, 2**32))
    @settings(max_examples=200)
    def test_quantization_bound_exact(self, seed):
        rng = np.random.default_rng(seed)
        r = rng.normal(size=(4, 5)) * rng.uniform(0.01, 100)
        s = init_scale(r, 7)[0]
        t = quantize(r, s, 7)
        err = np.abs(dequantize(t).values - r)
        assert np.all(err <= 0.5 / np.broadcast_to(s, r.shape))


class TestScaleMatch:
    def test_worked_example(self):
        a = scaled([100], [100.0])
        b = scaled([50], [50.0])
        ma, mb = scale_match([a, b])
        assert ma.x.tolist() == [50]
        assert mb.x.tolist() == [50]
        assert ma.s.tolist() == [50.0]

    def test_single_input_unchanged(self):
        a = scaled([7], [3.0])
        (out,) = scale_match([a])
        assert out.x.tolist() == [7]

    def test_equal_scales_leave_payloads_alone(self):
        a = scaled([11, -13], [4.0])
        b = scaled([5, 6], [4.0])
        ma, mb = scale_match([a, b])
        assert ma.x.tolist() == [11, -13]
        assert mb.x.tolist() == [5, 6]

    def test_equal_scales_are_identity_above_float_mantissa(self):
        # Payloads at or above 2^53 cannot survive a float multiply-and-floor.
        a = scaled([[2**60 + 1, -(2**55 + 3)]], [[2.0]])
        b = scaled([[1, 2]], [[2.0]])
        ma, mb = scale_match([a, b])
        assert ma.x.tolist() == [[2**60 + 1, -(2**55 + 3)]]
        assert mb.x.tolist() == [[1, 2]]
        assert ma.s.tolist() == [[2.0]]

    def test_outputs_share_identical_scale(self):
        rng = np.random.default_rng(3)
        ts = [
            scaled(rng.integers(-127, 128, (4, 3)), rng.uniform(1, 50, (4, 1)))
            for _ in range(3)
        ]
        outs = scale_match(ts)
        for o in outs[1:]:
            assert np.array_equal(o.s, outs[0].s)

    def test_magnitudes_never_grow(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            a = scaled(rng.integers(-127, 128, 6), rng.uniform(0.5, 90, 6))
            b = scaled(rng.integers(-127, 128, 6), rng.uniform(0.5, 90, 6))
            ma, mb = scale_match([a, b])
            assert np.all(np.abs(ma.x) <= np.abs(a.x))
            assert np.all(np.abs(mb.x) <= np.abs(b.x))

    def test_value_moves_less_than_one_unit(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            a = scaled(rng.integers(-127, 128, 8), rng.uniform(0.5, 90, 8))
            b = scaled(rng.integers(-127, 128, 8), rng.uniform(0.5, 90, 8))
            ma, mb = scale_match([a, b])
            s_bar = ma.s
            for t, m in ((a, ma), (b, mb)):
                err = np.abs(dequantize(m).values - dequantize(t).values)
                assert np.all(err <= (1.0 + 1e-6) / s_bar)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            scale_match([scaled([1], [1.0]), scaled([1, 2], [1.0, 1.0])])

    def test_empty_list(self):
        with pytest.raises(ShapeError):
            scale_match([])


class TestScaleMatchDim:
    def test_uniform_scale_is_noop(self):
        t = scaled([[5, 6]], [[2.0]])
        out = scale_match_dim(t, 1)
        assert np.array_equal(out.x, t.x)

    def test_equal_slices_refuse_above_float_mantissa(self):
        # Equal slices still run the match, which refuses such a payload.
        t = scaled([[2**60 + 1, -(2**55 + 3)]], [[2.0, 2.0]])
        with refuses():
            scale_match_dim(t, 1)

    def test_two_slices(self):
        t = scaled([[100, 50]], [[100.0, 50.0]])
        out = scale_match_dim(t, 1)
        assert out.s.tolist() == [[50.0]]
        assert out.x.tolist() == [[50, 50]]

    def test_value_error_bounded_by_unit(self):
        rng = np.random.default_rng(6)
        t = scaled(rng.integers(-127, 128, (5, 4)), rng.uniform(1, 60, (5, 4)))
        out = scale_match_dim(t, -1)
        err = np.abs(dequantize(out).values - dequantize(t).values)
        assert np.all(err <= (1.0 + 1e-6) / out.s)

    def test_axis_out_of_range(self):
        with pytest.raises(ShapeError):
            scale_match_dim(scaled([1], [1.0]), 3)

    @given(st.data(), st.integers(1, 4), st.integers(1, 5),
           st.sampled_from([127, 2**22 - 1, 2**22, 2**40, 2**60]), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_scale_constant_along_the_axis_moves_no_payload(self, data, t, n, cap, in_float):
        # No check skips the match of a scale that is already its own
        # minimum: the ratio is exactly 1, and the match returns every
        # payload below 2^22 as it was, bit for bit, and refuses one above.
        x = np.array(data.draw(st.lists(st.integers(-cap, cap), min_size=t * n, max_size=t * n)))
        x[0] = data.draw(st.sampled_from([cap, -cap]))  # the bound is the exact max
        x = x.reshape(t, n)
        rows = np.array(data.draw(st.lists(match_scales, min_size=t, max_size=t))).reshape(t, 1)
        s = np.repeat(rows, n, axis=1)
        dtype = scaling.lane_dtype(cap) if in_float else np.int64
        ws = Workspace()
        lane = Lane(ws.copy(x, dtype), ws.copy(s), 15, ws, cap)
        lane.nonneg = bool((x >= 0).all())
        refused = cap >= scaling.MATCH_FLOAT_MAX
        if refused:
            with refuses():
                lane.match_last()
        else:
            lane.match_last()
            assert lane.x.dtype == scaling.lane_dtype(cap)
            assert lane.x.tobytes() == x.astype(lane.x.dtype).tobytes()
            assert lane.s.tobytes() == rows.tobytes()
        for operand, d in ((scaled(x, s, 7), -1),
                           (scaled(x.T, s.T, 7), 0)):
            if refused and n > 1:
                with refuses():
                    scale_match_dim(operand, d)
                continue
            out = scale_match_dim(operand, d)
            assert out.x.tobytes() == operand.x.tobytes()
            assert out.s.tobytes() == np.min(operand.s, axis=d, keepdims=True).tobytes()


class TestRescale:
    def test_worked_example(self):
        out = rescale(lane_of(scaled([300], [6.0]), Workspace())).seal()
        assert out.x.tolist() == [100]
        assert out.s.tolist() == [2.0]

    def test_in_range_identity(self):
        out = rescale(lane_of(scaled([127, -127], [1.0]), Workspace())).seal()
        assert out.x.tolist() == [127, -127]

    def test_random_int32_tensors_land_in_range(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            x = scaled(rng.integers(-(2**31), 2**31, 12), np.full(12, 3.0), 7)
            out = rescale(lane_of(x, Workspace())).seal()
            assert in_range(out)

    def test_group_structure_follows_scale(self):
        x = scaled([[1000, 1], [1, 1]], [[2.0], [2.0]])
        out = rescale(lane_of(x, Workspace())).seal()
        # Only the first row needed shrinking; the second row is untouched.
        assert out.x[1].tolist() == [1, 1]
        assert out.s[1] == 2.0


    def test_empty_payload_takes_the_precision(self):
        # The lane's own precision: an empty one keeps it, and its scale.
        x = scaled(np.zeros((2, 0), np.int64), np.ones((1, 1)), 12)
        out = rescale(lane_of(x, Workspace())).seal()
        assert out.shape == (2, 0) and out.precision == 12
        assert out.s.tolist() == [[1.0]]


def mul_divisor(a: np.ndarray, p: int) -> np.ndarray:
    """rescale's divisor below 2^50: floor(a * r_p) + 1, a float64."""
    return np.floor(a * scaling.DIVISOR_RECIPROCAL[p]) + 1


def int_divisor(a: np.ndarray, p: int) -> np.ndarray:
    """max(1, ceil(a / (2^p - 1))) in int64, exact for every a >= 0."""
    return np.maximum(-(-a // ((1 << p) - 1)), 1)


R = scaling.DIVISOR_MUL_MAX


class TestShrinkDivisor:
    """rescale's divisor below 2^50, one multiply by r_p, against integer
    arithmetic; and the shrink across the switch to the exact floor division
    at 2^50."""

    @pytest.mark.parametrize("p", range(2, 16))
    def test_every_a_below_limit_times_2_16(self, p):
        # a * r_p is non-decreasing in a, so kL + 1 and kL + L - 1, the ends
        # of the run of a between two multiples of L, bound every a * r_p
        # inside it: with kL and those ends right for every k < 2^16, so is
        # every a below L * 2^16.  Every a below 2^16 is checked directly too.
        limit = (1 << p) - 1
        k = np.arange(1 << 16, dtype=np.int64)[:, None]
        a = np.concatenate([k * limit + np.array([0, 1, limit - 1]), np.arange(1 << 16)[:, None]], axis=None)
        assert np.array_equal(mul_divisor(a.astype(np.float64), p), int_divisor(a, p))

    @pytest.mark.parametrize("p", range(2, 16))
    def test_multiples_of_the_limit_and_their_neighbours(self, p):
        # kL is where a reciprocal rounded up, or not rounded down by enough,
        # gives k + 1.
        limit = (1 << p) - 1
        top = (R - 2) // limit
        k = np.unique(np.geomspace(1, top, 20000).astype(np.int64))
        a = (k[:, None] * limit + np.array([-1, 0, 1])).ravel()
        assert a.max() < R
        assert np.array_equal(mul_divisor(a.astype(np.float64), p), int_divisor(a, p))

    @given(st.integers(2, 15), st.lists(st.integers(0, R - 1), min_size=1, max_size=64))
    @settings(max_examples=300)
    def test_draws_below_2_50(self, p, a):
        a = np.array(a, np.int64)
        assert np.array_equal(mul_divisor(a.astype(np.float64), p), int_divisor(a, p))

    @pytest.mark.parametrize("top", [R - 1, R])
    @pytest.mark.parametrize("dtype", [np.float64, np.int64])
    @pytest.mark.parametrize("scale", ["element", "row"])
    @pytest.mark.parametrize("signed", [True, False])
    @pytest.mark.parametrize("p", [2, 7, 12, 15])
    def test_lane_at_the_switch_shrinks_as_the_float_divisor(self, top, dtype, scale, signed, p):
        # max|x| = 2^50 - 1 takes the multiply, 2^50 the floor division; both
        # give the payload and scale of the float ceil(a / L) they replace
        # (oracle_shrink).  Each row holds multiples of L and their neighbours.
        limit = (1 << p) - 1
        big = (R - 1) // limit * limit
        x = np.array([[top, big, big - 1, 3 * limit, 3 * limit + 1, 0],
                      [top - limit, limit, limit + 1, 2**40 + 1, 7, big - limit]], np.int64)
        if signed:
            x[:, 1::2] *= -1
        s = np.linspace(0.5, 600.0, 12).reshape(2, 6)
        s = s if scale == "element" else s[:, :1].copy()
        got = rescale(Lane(x.astype(dtype), s.copy(), p, Workspace()))
        want = Lane(x.astype(dtype), s.copy(), p, Workspace())
        assert oracle_shrink(want)
        assert (got.x.dtype, got.x.tobytes(), got.s.tobytes()) == (
            want.x.dtype, want.x.tobytes(), want.s.tobytes())
        assert (got.lo, got.hi) == (want.lo, want.hi)


def oracle_shrink(lane: Lane) -> bool:
    """The shrink to the lane's own precision as protocol_apply decided it
    before `extremes`: a max|x| scan first, then rescale's own reductions of
    each group, and the divisor ceil(a / L) formed by a float division below
    2^53.  Returns whether the lane was rescaled."""
    limit = (1 << lane.precision) - 1
    if lane.max_bound <= limit:
        return False
    m = lane.max_bound = lane.max_magnitude  # the scan leaves its exact max on the lane
    if m <= limit:
        return False
    x, s = lane.x, lane.s
    axes = tuple(a for a in range(x.ndim) if s.shape[a] == 1 and x.shape[a] > 1)
    if m >= scaling.FLOAT64_EXACT:
        d = np.max(np.abs(x), axis=axes, keepdims=True)
        d = np.maximum(-(-d // limit), 1)
        trunc_div(x, d, out=x)
    else:
        if axes:
            d = np.maximum(x.max(axis=axes, keepdims=True), -x.min(axis=axes, keepdims=True))
            d = d.astype(np.float64, copy=False)
        else:
            d = np.abs(x, out=lane.scratch())
        d /= limit
        np.ceil(d, out=d)
        np.maximum(d, 1.0, out=d)
        np.divide(x, d, out=x, casting="unsafe")
        if x.dtype == np.float64:
            np.trunc(x, out=x)
    np.divide(s, d, out=s)
    # No divisor exceeds ceil(m / L): lo over it bounds the new scales.
    lane.lo, lane.hi = scale_bounds(s, lane.lo / max(-(-m // limit), 1), lane.hi)
    lane.max_bound = limit
    return True


def passthrough(lane: Lane) -> Lane:
    """A kernel that leaves its Lane as it is, for the protocol's shrink alone."""
    return lane


passthrough.kind = "passthrough"

SCALE_SHAPES = {"row": lambda t, n: (t, 1), "element": lambda t, n: (t, n),
                "tensor": lambda t, n: (1, 1), "column": lambda t, n: (1, n)}


@st.composite
def shrink_cases(draw):
    """A lane's inputs: payload (signed or not, int64 or float64 below 2^53),
    a scale of each granularity, and a bound on max|x| (None: scanned, so
    exact) on either side of 2^p - 1."""
    p = draw(st.sampled_from([3, 7, 12]))
    limit = (1 << p) - 1
    t, n = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    cap = draw(st.sampled_from([limit // 2, limit, limit + 1, 2**22, 2**40, 2**53 + 5, 2**61]))
    low = 0 if draw(st.booleans()) else -cap
    x = np.array(draw(st.lists(st.integers(low, cap), min_size=t * n, max_size=t * n)), np.int64)
    x = x.reshape(t, n)
    shape = SCALE_SHAPES[draw(st.sampled_from(sorted(SCALE_SHAPES)))](t, n)
    s = np.array(draw(st.lists(st.floats(2.0**-20, 2.0**20), min_size=math.prod(shape),
                               max_size=math.prod(shape)))).reshape(shape)
    bound = None
    if draw(st.booleans()):
        bound = min(max_abs(x) + draw(st.sampled_from([0, 1, limit, 2**30])), LANE_MAX - 1)
    top = max_abs(x) if bound is None else bound
    dtype = np.float64 if top < scaling.FLOAT64_EXACT and draw(st.booleans()) else np.int64
    return p, x.astype(dtype), s, bound


class TestShrinkDecision:
    """protocol_apply decides a shrink from `extremes`, whose reductions
    rescale's divisor reuses; the oracle is the decision it replaced."""

    @given(shrink_cases())
    @settings(max_examples=400, deadline=None)
    def test_as_the_max_abs_decision(self, case):
        p, x, s, bound = case
        log = OpAuditLog()
        got = protocol_apply(passthrough, [Lane(x.copy(), s.copy(), p, Workspace(), bound)], log=log)
        want = Lane(x.copy(), s.copy(), p, Workspace(), bound)
        rescaled = oracle_shrink(want)
        assert log.records[0].rescaled == rescaled
        assert (got.x.dtype, got.x.tobytes(), got.s.tobytes()) == (
            want.x.dtype, want.x.tobytes(), want.s.tobytes())
        assert (got.lo, got.hi, got.max_bound, got.precision) == (
            want.lo, want.hi, want.max_bound, want.precision)
        if got.nonneg:
            assert (got.x >= 0).all()

    @given(st.data(), st.integers(1, 4), st.integers(1, 5),
           st.sampled_from([np.int64, np.float64]), st.sampled_from(["none", "self", "float", "int"]))
    @settings(max_examples=300, deadline=None)
    def test_nonneg_match_is_the_signed_match(self, data, t, n, dtype, out):
        # The match skips |x| and x's sign for a payload with no negative
        # value; the bits are those of the signed match, and from
        # MATCH_FLOAT_MAX up both refuse it.
        cap = data.draw(st.sampled_from([1, 127, 4095, scaling.MATCH_FLOAT_MAX - 1, 2**40]))
        x = np.array(data.draw(st.lists(st.integers(0, cap), min_size=t * n, max_size=t * n)))
        x = x.reshape(t, n).astype(dtype)
        s = np.array(data.draw(st.lists(st.floats(2.0**-20, 2.0**20), min_size=t * n,
                                        max_size=t * n))).reshape(t, n)
        s_bar = np.min(s, axis=data.draw(st.sampled_from([0, 1])), keepdims=True)

        def match(nonneg, ws):
            xc = x.copy()
            dest = {"none": None, "self": xc, "float": np.empty(x.shape),
                    "int": np.empty(x.shape, np.int64)}[out]
            return scaling._match_payload(xc, s, s_bar, scaled(x.astype(np.int64), s), ws, dest, nonneg)

        if x.max() >= scaling.MATCH_FLOAT_MAX:
            for nonneg in (True, False):
                with refuses():
                    match(nonneg, Workspace())
            return
        got, want = match(True, Workspace()), match(False, None)
        assert (got.dtype, got.tobytes()) == (want.dtype, want.tobytes())


class TestProtocolApply:
    def test_a_kernel_must_return_a_lane(self):
        # transpose is a view outside the protocol: it returns a ScaledTensor.
        with pytest.raises(TypeError, match="transpose"):
            protocol_apply(K.transpose, [scaled([[1, 2]], [[1.0]])], log=OpAuditLog(), axes=(1, 0))

    def test_in_range_result_untouched(self):
        a = scaled([3], [2.0])
        out = protocol_apply(K.ew_mul, [a, a], log=OpAuditLog()).seal()
        assert out.x.tolist() == [9]

    def test_overflow_triggers_rescale(self):
        a = scaled([64], [1.0])
        log = OpAuditLog()
        out = protocol_apply(K.ew_mul, [a, a], log=log).seal()
        assert out.x.tolist() == [124]
        assert in_range(out)
        kinds = [(r.kind, r.lane) for r in log.records]
        assert ("ew_mul", PAYLOAD) in kinds
        assert ("ew_mul", SCALE) in kinds
        assert ("rescale", SCALE) in kinds

    def test_idempotent_on_in_range(self):
        a = scaled([64], [1.0])
        log = OpAuditLog()
        out = protocol_apply(K.ew_mul, [a, a], log=log).seal()
        again = protocol_apply(K.relu, [lane_of(out, scaling.Workspace())], log=log).seal()
        assert np.array_equal(again.x, out.x)
        assert np.array_equal(again.s, out.s)

    def test_rescale_can_be_disabled(self):
        a = scaled([64], [1.0])
        out = protocol_apply(K.ew_mul, [a, a], log=OpAuditLog(), allow_rescale=False).seal()
        assert out.x.tolist() == [4096]


class TestAuditRecord:
    """A record is built in one call and is an immutable tuple of its
    fields, with the repr the records always had."""

    def test_unknown_lane_is_refused(self):
        with pytest.raises(ValueError, match="unknown lane 'int'"):
            AuditRecord("add", "int", 4)

    def test_fields_cannot_be_assigned(self):
        r = AuditRecord("add", PAYLOAD, 4)
        for name in ("kind", "lane", "elements", "rescaled", "module", "other"):
            with pytest.raises(AttributeError):
                setattr(r, name, 1)
        assert r == AuditRecord("add", PAYLOAD, 4)

    def test_repr_and_fields(self):
        r = AuditRecord("matmul", SCALE, 96, True, "Attn")
        assert repr(r) == (
            "AuditRecord(kind='matmul', lane='scale', elements=96, rescaled=True, module='Attn')"
        )
        assert (r.kind, r.lane, r.elements, r.rescaled, r.module) == ("matmul", SCALE, 96, True, "Attn")
        assert r == ("matmul", SCALE, 96, True, "Attn")  # a tuple of its fields
        d = AuditRecord("gather", PAYLOAD, 8)
        assert (d.rescaled, d.module) == (False, "")


class TestSession:
    def test_quantize_and_dequantize_are_logged(self):
        sess = Session()
        r = np.array([1.0, 2.0])
        t = sess.quantize(r, init_scale(r, 7)[0], 7)
        sess.dequantize(t)
        assert count_records(sess.log, kind="dequantize") == 1
        assert not sess.log.integer_pure()

    def test_pure_integer_session(self):
        sess = Session()
        a = scaled([3, 4], [2.0])
        sess.apply(K.add, [a, a])
        assert sess.log.integer_pure()


class TestMonotonePrecision:
    def test_mean_error_non_increasing_p6_to_p10(self):
        rng = np.random.default_rng(8)
        r = rng.normal(size=(50, 16))
        errors = []
        for p in range(6, 11):
            t = quantize(r, init_scale(r, p)[0], p)
            errors.append(float(np.mean(np.abs(dequantize(t).values - r))))
        assert all(a >= b for a, b in zip(errors, errors[1:]))
