"""Scale initialization, (de-)quantization, matching, re-scaling, protocol."""
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intflow import kernels as K
from intflow.audit import PAYLOAD, SCALE, OpAuditLog
from intflow.errors import ShapeError
from intflow.scaling import (
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
    trunc_div,
)
from intflow.tensor import IntTensor, RationalTensor, ScaledTensor, ScaleTensor


def scaled(data, scale, precision=7):
    return ScaledTensor(
        IntTensor(np.asarray(data, dtype=np.int64), precision),
        ScaleTensor(np.asarray(scale, dtype=np.float64)),
    )


class TestPrecision:
    @pytest.mark.parametrize("p,limit", [(2, 3), (7, 127), (15, 32767)])
    def test_max_magnitude(self, p, limit):
        assert Precision(p).max_magnitude == limit

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
        with pytest.raises(ValueError):
            trunc_div(np.array([1]), np.array([0]))

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


class TestFloat64Boundary:
    """trunc_div and rescale against Python ints across the 2^53 switch."""

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
        out = rescale(IntTensor(x), ScaleTensor(s), Precision(p))
        limit = (1 << p) - 1
        if per_element:
            groups = [[(i, j)] for i in range(2) for j in range(3)]
        else:
            groups = [[(i, j) for j in range(3)] for i in range(2)]
        for g in groups:
            peak = max(abs(xs[3 * i + j]) for i, j in g)
            s_hat = max(-(-peak // limit), 1)
            for i, j in g:
                assert out.data.values[i, j] == int_trunc_div(xs[3 * i + j], s_hat)
            si, sj = g[0] if per_element else (g[0][0], 0)
            assert out.scale.values[si, sj] == s[si, sj] / s_hat
        assert out.data.in_range()


class TestInitScale:
    def test_worked_example(self):
        s = init_scale(RationalTensor(np.array([1.0, -2.0, 0.5])))
        assert s.values.tolist() == [63.5]

    def test_all_zero_group_gets_unit_scale(self):
        s = init_scale(RationalTensor(np.zeros((2, 3))))
        assert s.values.tolist() == [[1.0], [1.0]]

    def test_per_row_collapses_hidden_dim(self):
        r = RationalTensor(np.arange(12, dtype=np.float64).reshape(3, 4) + 1)
        s = init_scale(r, ScaleGranularity.PER_ROW)
        assert s.shape == (3, 1)

    def test_per_batch_collapses_two_dims(self):
        r = RationalTensor(np.ones((2, 3, 4)))
        assert init_scale(r, ScaleGranularity.PER_BATCH).shape == (2, 1, 1)
        assert init_scale(r, ScaleGranularity.PER_BATCH_TIME).shape == (2, 3, 1)

    def test_tiny_group_clamps_to_largest_float32(self):
        r = RationalTensor(np.array([[1e-300, -1e-300], [1.0, 0.5]]))
        s = init_scale(r)
        assert s.values.tolist() == [[float(np.finfo(np.float32).max)], [127.0]]

    @pytest.mark.parametrize("shrink", [1.5, 1.0 + 1e-9])
    def test_finite_scales_are_untouched_by_the_clamp(self, shrink):
        m = 127.0 / (float(np.finfo(np.float32).max) / shrink)
        s = init_scale(RationalTensor(np.array([m])))
        assert s.values.tolist() == [float(np.float32(127.0 / m))]

    def test_scales_are_float32_representable(self):
        rng = np.random.default_rng(0)
        s = init_scale(RationalTensor(rng.normal(size=(50, 8))))
        assert np.array_equal(s.values, s.values.astype(np.float32).astype(np.float64))


class TestQuantize:
    def test_worked_example(self):
        r = RationalTensor(np.array([1.0, -2.0, 0.5]))
        t = quantize(r, init_scale(r))
        assert t.data.values.tolist() == [64, -127, 32]

    def test_round_half_to_even(self):
        r = RationalTensor(np.array([0.5, 1.5, 2.5, -0.5]))
        t = quantize(r, ScaleTensor(np.array([1.0])))
        assert t.data.values.tolist() == [0, 2, 2, 0]

    def test_payloads_fit_precision_after_init_scale(self):
        rng = np.random.default_rng(1)
        for p in (2, 7, 15):
            r = RationalTensor(rng.normal(size=(10, 6)) * 100)
            t = quantize(r, init_scale(r, prec=Precision(p)), p)
            assert t.data.max_magnitude <= Precision(p).max_magnitude

    def test_quantize_dequantize_quantize_is_idempotent(self):
        rng = np.random.default_rng(2)
        r = RationalTensor(rng.normal(size=(20, 8)))
        s = init_scale(r)
        t1 = quantize(r, s)
        r2 = dequantize(t1)
        s2 = init_scale(r2)
        t2 = quantize(r2, s2)
        assert np.array_equal(t1.data.values, t2.data.values)
        assert np.array_equal(s.values, s2.values)

    def test_payload_keeps_the_exact_max_magnitude(self):
        # quantize hands its own scan to the payload; a negative extreme and
        # a value near 2^53 must both come through exactly.
        for values in ([1.0, -300.0, 2.0], [2.0**53 + 2, -3.0], [0.0, 0.0]):
            t = quantize(RationalTensor(np.array(values)), ScaleTensor(np.array([1.0])))
            assert t.data.max_magnitude == max(abs(int(v)) for v in t.data.values)

    @given(st.integers(0, 2**32))
    @settings(max_examples=200)
    def test_quantization_bound_exact(self, seed):
        rng = np.random.default_rng(seed)
        r = RationalTensor(rng.normal(size=(4, 5)) * rng.uniform(0.01, 100))
        s = init_scale(r)
        t = quantize(r, s)
        err = np.abs(dequantize(t).values - r.values)
        assert np.all(err <= 0.5 / np.broadcast_to(s.values, r.shape))


class TestScaleMatch:
    def test_worked_example(self):
        a = scaled([100], [100.0])
        b = scaled([50], [50.0])
        ma, mb = scale_match([a, b])
        assert ma.data.values.tolist() == [50]
        assert mb.data.values.tolist() == [50]
        assert ma.scale.values.tolist() == [50.0]

    def test_single_input_unchanged(self):
        a = scaled([7], [3.0])
        (out,) = scale_match([a])
        assert out.data.values.tolist() == [7]

    def test_equal_scales_leave_payloads_alone(self):
        a = scaled([11, -13], [4.0])
        b = scaled([5, 6], [4.0])
        ma, mb = scale_match([a, b])
        assert ma.data.values.tolist() == [11, -13]
        assert mb.data.values.tolist() == [5, 6]

    def test_equal_scales_are_identity_above_float_mantissa(self):
        # Payloads at or above 2^53 cannot survive a float multiply-and-floor.
        a = scaled([[2**60 + 1, -(2**55 + 3)]], [[2.0]])
        b = scaled([[1, 2]], [[2.0]])
        ma, mb = scale_match([a, b])
        assert ma.data.values.tolist() == [[2**60 + 1, -(2**55 + 3)]]
        assert mb.data.values.tolist() == [[1, 2]]
        assert ma.scale.values.tolist() == [[2.0]]

    def test_outputs_share_identical_scale(self):
        rng = np.random.default_rng(3)
        ts = [
            scaled(rng.integers(-127, 128, (4, 3)), rng.uniform(1, 50, (4, 1)))
            for _ in range(3)
        ]
        outs = scale_match(ts)
        for o in outs[1:]:
            assert np.array_equal(o.scale.values, outs[0].scale.values)

    def test_magnitudes_never_grow(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            a = scaled(rng.integers(-127, 128, 6), rng.uniform(0.5, 90, 6))
            b = scaled(rng.integers(-127, 128, 6), rng.uniform(0.5, 90, 6))
            ma, mb = scale_match([a, b])
            assert np.all(np.abs(ma.data.values) <= np.abs(a.data.values))
            assert np.all(np.abs(mb.data.values) <= np.abs(b.data.values))

    def test_value_moves_less_than_one_unit(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            a = scaled(rng.integers(-127, 128, 8), rng.uniform(0.5, 90, 8))
            b = scaled(rng.integers(-127, 128, 8), rng.uniform(0.5, 90, 8))
            ma, mb = scale_match([a, b])
            s_bar = ma.scale.values
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
        assert np.array_equal(out.data.values, t.data.values)

    def test_equal_slices_are_identity_above_float_mantissa(self):
        t = scaled([[2**60 + 1, -(2**55 + 3)]], [[2.0, 2.0]])
        out = scale_match_dim(t, 1)
        assert out.data.values.tolist() == [[2**60 + 1, -(2**55 + 3)]]
        assert out.scale.values.tolist() == [[2.0]]

    def test_two_slices(self):
        t = scaled([[100, 50]], [[100.0, 50.0]])
        out = scale_match_dim(t, 1)
        assert out.scale.values.tolist() == [[50.0]]
        assert out.data.values.tolist() == [[50, 50]]

    def test_value_error_bounded_by_unit(self):
        rng = np.random.default_rng(6)
        t = scaled(rng.integers(-127, 128, (5, 4)), rng.uniform(1, 60, (5, 4)))
        out = scale_match_dim(t, -1)
        err = np.abs(dequantize(out).values - dequantize(t).values)
        assert np.all(err <= (1.0 + 1e-6) / out.scale.values)

    def test_axis_out_of_range(self):
        with pytest.raises(ShapeError):
            scale_match_dim(scaled([1], [1.0]), 3)


class TestRescale:
    def test_worked_example(self):
        out = rescale(
            IntTensor(np.array([300])), ScaleTensor(np.array([6.0])), Precision(7)
        )
        assert out.data.values.tolist() == [100]
        assert out.scale.values.tolist() == [2.0]

    def test_in_range_identity(self):
        out = rescale(
            IntTensor(np.array([127, -127])), ScaleTensor(np.array([1.0])), Precision(7)
        )
        assert out.data.values.tolist() == [127, -127]

    def test_random_int32_tensors_land_in_range(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            x = IntTensor(rng.integers(-(2**31), 2**31, 12))
            out = rescale(x, ScaleTensor(np.full(12, 3.0)), Precision(7))
            assert out.data.in_range()

    def test_group_structure_follows_scale(self):
        x = IntTensor(np.array([[1000, 1], [1, 1]]))
        s = ScaleTensor(np.array([[2.0], [2.0]]))
        out = rescale(x, s, Precision(7))
        # Only the first row needed shrinking; the second row is untouched.
        assert out.data.values[1].tolist() == [1, 1]
        assert out.scale.values[1] == 2.0


class TestProtocolApply:
    def test_in_range_result_untouched(self):
        a = scaled([3], [2.0])
        out = protocol_apply(K.ew_mul, [a, a], Precision(7))
        assert out.data.values.tolist() == [9]

    def test_overflow_triggers_rescale(self):
        a = scaled([64], [1.0])
        log = OpAuditLog()
        out = protocol_apply(K.ew_mul, [a, a], Precision(7), log=log)
        assert out.data.values.tolist() == [124]
        assert out.data.in_range()
        kinds = [(r.kind, r.lane) for r in log.records]
        assert ("ew_mul", PAYLOAD) in kinds
        assert ("ew_mul", SCALE) in kinds
        assert ("rescale", SCALE) in kinds

    def test_idempotent_on_in_range(self):
        a = scaled([64], [1.0])
        out = protocol_apply(K.ew_mul, [a, a], Precision(7))
        again = protocol_apply(K.relu, [out], Precision(7))
        assert np.array_equal(again.data.values, out.data.values)
        assert np.array_equal(again.scale.values, out.scale.values)

    def test_rescale_can_be_disabled(self):
        a = scaled([64], [1.0])
        out = protocol_apply(K.ew_mul, [a, a], Precision(7), allow_rescale=False)
        assert out.data.values.tolist() == [4096]


class TestSession:
    def test_quantize_and_dequantize_are_logged(self):
        sess = Session(Precision(7))
        r = RationalTensor(np.array([1.0, 2.0]))
        t = sess.quantize(r, init_scale(r))
        sess.dequantize(t)
        assert len(sess.log.dequantize_records()) == 1
        assert not sess.log.integer_pure()

    def test_pure_integer_session(self):
        sess = Session(Precision(7))
        a = scaled([3, 4], [2.0])
        sess.apply(K.add, [a, a])
        assert sess.log.integer_pure()


class TestMonotonePrecision:
    def test_mean_error_non_increasing_p6_to_p10(self):
        rng = np.random.default_rng(8)
        r = RationalTensor(rng.normal(size=(50, 16)))
        errors = []
        for p in range(6, 11):
            t = quantize(r, init_scale(r, prec=Precision(p)), p)
            errors.append(float(np.mean(np.abs(dequantize(t).values - r.values))))
        assert all(a >= b for a, b in zip(errors, errors[1:]))
