"""Integer kernels checked against exact-fraction and FP64 oracles."""
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intflow import kernels as K
from intflow.errors import IntflowError, LaneOverflowError, ScaleRangeError, ShapeError
from intflow.scaling import dequantize, scale_match_dim
from intflow.tensor import IntTensor, ScaledTensor, ScaleTensor


def scaled(data, scale, precision=7):
    return ScaledTensor(
        IntTensor(np.asarray(data, dtype=np.int64), precision),
        ScaleTensor(np.asarray(scale, dtype=np.float64)),
    )


def frac_view(t: ScaledTensor):
    """De-quantized view as exact fractions (scales are small rationals here)."""
    data = t.data.values
    scale = np.broadcast_to(t.scale.values, t.shape)
    return [
        Fraction(int(x)) / Fraction(s).limit_denominator(10**6)
        for x, s in zip(data.ravel(), scale.ravel())
    ]


class TestEwMul:
    def test_distribution_law_exact(self):
        a = scaled([3, -4], [2.0, 4.0])
        b = scaled([5, 6], [8.0, 2.0])
        out = K.ew_mul(a, b)
        assert frac_view(out) == [x * y for x, y in zip(frac_view(a), frac_view(b))]

    def test_multiplicative_identity(self):
        a = scaled([7, -9], [3.0])
        one = scaled([1, 1], [1.0])
        out = K.ew_mul(a, one)
        assert np.array_equal(dequantize(out).values, dequantize(a).values)

    def test_lane_guard(self):
        big = scaled(np.array([2**31]), [1.0])
        with pytest.raises(LaneOverflowError):
            K.ew_mul(big, big)


class TestAdd:
    def test_additive_identity_same_scale(self):
        a = scaled([5, -6], [4.0])
        zero = scaled([0, 0], [4.0])
        out = K.add(a, zero)
        assert np.array_equal(out.data.values, a.data.values)

    def test_worked_example(self):
        a = scaled([100], [100.0])
        b = scaled([50], [50.0])
        out = K.add(a, b)
        assert out.data.values.tolist() == [100]
        assert out.scale.values.tolist() == [50.0]
        assert dequantize(out).values.tolist() == [2.0]

    def test_error_within_two_units_of_matched_scale(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            a = scaled(rng.integers(-127, 128, 6), rng.uniform(0.5, 80, 6))
            b = scaled(rng.integers(-127, 128, 6), rng.uniform(0.5, 80, 6))
            out = K.add(a, b)
            want = dequantize(a).values + dequantize(b).values
            err = np.abs(dequantize(out).values - want)
            assert np.all(err <= (2.0 + 1e-6) / out.scale.values)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            K.add(scaled([1], [1.0]), scaled([1, 2], [1.0, 1.0]))


class TestMatMul:
    def test_two_by_two_against_oracle(self):
        a = scaled([[2, 1], [0, 3]], [[4.0], [4.0]])
        b = scaled([[1, 2], [3, 1]], [[2.0], [2.0]])
        out = K.matmul(a, b)
        # Uniform scales along the contraction dim make this exact.
        want = dequantize(a).values @ dequantize(b).values.T
        assert np.array_equal(dequantize(out).values, want)

    def test_scale_is_outer_product(self):
        a = scaled([[1, 1]], [[5.0]])
        b = scaled([[1, 1], [2, 2]], [[3.0], [7.0]])
        out = K.matmul(a, b)
        assert out.scale.values.tolist() == [[15.0, 35.0]]

    def test_contraction_mismatch(self):
        with pytest.raises(ShapeError):
            K.matmul(scaled([[1, 2]], [[1.0]]), scaled([[1, 2, 3]], [[1.0]]))

    def test_rank_check(self):
        with pytest.raises(ShapeError):
            K.matmul(scaled([1], [1.0]), scaled([1], [1.0]))

    def test_varying_contraction_scales_within_bound(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            a = scaled(rng.integers(-127, 128, (3, 4)), rng.uniform(1, 40, (3, 4)))
            b = scaled(rng.integers(-127, 128, (5, 4)), rng.uniform(1, 40, (5, 4)))
            out = K.matmul(a, b)
            da, db = dequantize(a).values, dequantize(b).values
            want = da @ db.T
            ea = (1.0 + 1e-6) / np.min(a.scale.values, axis=1, keepdims=True)
            eb = (1.0 + 1e-6) / np.min(b.scale.values, axis=1, keepdims=True)
            bound = (
                np.abs(da) @ (np.full_like(db, 1.0) * eb).T
                + (np.full_like(da, 1.0) * ea) @ np.abs(db).T
                + 4 * (ea @ eb.T)
            )
            assert np.all(np.abs(dequantize(out).values - want) <= bound)


@st.composite
def gemm_operands(draw):
    """(a, b_t) with payload widths putting k * max|a| * max|b| on either
    side of 2^53; a width of 0 bits gives an all-zero operand."""
    m, k, n = (draw(st.integers(1, 6)) for _ in range(3))

    def operand(rows):
        bits = draw(st.one_of(st.integers(0, 12), st.integers(24, 29)))
        hi = 2**bits - 1
        xs = draw(st.lists(st.integers(-hi, hi), min_size=rows * k, max_size=rows * k))
        cols = draw(st.sampled_from([1, k]))
        ss = draw(st.lists(st.sampled_from([0.5, 1.0, 3.0, 40.0]),
                           min_size=rows * cols, max_size=rows * cols))
        return scaled(np.reshape(xs, (rows, k)), np.reshape(ss, (rows, cols)))

    return operand(m), operand(n)


class TestMatMulExactness:
    @given(gemm_operands())
    @settings(max_examples=300, deadline=None)
    def test_matches_int64_oracle(self, ops):
        a, b_t = ops
        am, bm = scale_match_dim(a, -1), scale_match_dim(b_t, -1)
        out = K.matmul(a, b_t)
        assert out.data.values.dtype == np.int64
        assert np.array_equal(out.data.values, am.data.values @ bm.data.values.T)
        assert np.array_equal(out.scale.values, am.scale.values @ bm.scale.values.T)

    def test_bound_at_float_mantissa_takes_int64_path(self):
        x = 2**27 + 1
        a = scaled([[x]], [[1.0]])
        assert float(x) * float(x) != x * x  # 2^54 + 2^28 + 1 rounds in float64
        out = K.matmul(a, a)
        assert out.data.values.tolist() == [[x * x]]


class TestPowAbsRelu:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_pow_distribution_law(self, n):
        t = scaled([2, -3, 0], [2.0, 4.0, 1.0])
        out = K.pow_n(t, n)
        assert frac_view(out) == [v**n for v in frac_view(t)]

    def test_pow_rejects_zero_exponent(self):
        with pytest.raises(ValueError):
            K.pow_n(scaled([1], [1.0]), 0)

    def test_pow_lane_guard(self):
        t = scaled([10**5], [1.0])
        with pytest.raises(LaneOverflowError):
            K.pow_n(t, 5)

    @given(st.integers(1, 6), st.data())
    @settings(max_examples=200)
    def test_pow_matches_python_ints_near_lane(self, n, data):
        # The largest magnitude the lane guard admits for this exponent.
        m = int(2 ** (62 / n))
        while m > 1 and n * np.log2(m) >= 62:
            m -= 1
        xs = data.draw(st.lists(
            st.one_of(st.sampled_from([m, -m, m - 1, 0, 1, -1]), st.integers(-m, m)),
            min_size=1, max_size=5,
        ))
        t = scaled(xs, [1.5] * len(xs), precision=15)
        out = K.pow_n(t, n)
        assert out.data.values.tolist() == [x**n for x in xs]
        assert out.scale.values.tolist() == [1.5**n] * len(xs)
        with pytest.raises(LaneOverflowError):
            K.pow_n(scaled([m + 1], [1.0]), n)

    def test_abs_exact(self):
        t = scaled([-5, 3, 0], [2.0])
        out = K.abs_(t)
        assert frac_view(out) == [abs(v) for v in frac_view(t)]

    def test_relu_exact(self):
        t = scaled([-5, 3, 0], [2.0])
        out = K.relu(t)
        assert frac_view(out) == [max(v, 0) for v in frac_view(t)]

    @given(
        st.lists(st.integers(-20, 20), min_size=1, max_size=6),
        st.integers(1, 10),
        st.integers(1, 4),
        st.integers(1, 4),
    )
    @settings(max_examples=300)
    def test_elementwise_exactness_property(self, xs, s_num, s_den, n):
        s = s_num / s_den
        t = scaled(xs, [float(s)] * len(xs))
        vals = [Fraction(x) / Fraction(s_num, s_den) for x in xs]
        assert frac_view(K.pow_n(t, n)) == [v**n for v in vals]
        assert frac_view(K.abs_(t)) == [abs(v) for v in vals]
        assert frac_view(K.relu(t)) == [max(v, 0) for v in vals]


def materialized(t: ScaledTensor, shape) -> ScaledTensor:
    """t with its payload copied out to `shape`; scale dims stay collapsed,
    only the rank is padded."""
    pad = (1,) * (len(shape) - len(t.scale.shape))
    return ScaledTensor(
        IntTensor(np.broadcast_to(t.data.values, shape).copy(), t.precision),
        ScaleTensor(t.scale.values.reshape(pad + t.scale.shape)),
    )


@st.composite
def broadcast_operands(draw):
    """A (T, d) operand and a rank-1 (d,) or a (T, 1) operand that broadcasts
    against it; every scale shape a quantizer can produce."""
    T, d = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    scales = st.floats(0.25, 64.0)

    def operand(shape, scale_shape, lo):
        x = draw(st.lists(st.integers(lo, 127), min_size=int(np.prod(shape)),
                          max_size=int(np.prod(shape))))
        s = draw(st.lists(scales, min_size=int(np.prod(scale_shape)),
                          max_size=int(np.prod(scale_shape))))
        return scaled(np.reshape(x, shape), np.reshape(s, scale_shape))

    lo = draw(st.sampled_from([-127, 1]))  # 1: usable as a denominator
    full = operand((T, d), draw(st.sampled_from([(T, 1), (1, d), (T, d), (1, 1)])), lo)
    if draw(st.booleans()):
        small = operand((d,), draw(st.sampled_from([(1,), (d,)])), lo)
    else:
        small = operand((T, 1), draw(st.sampled_from([(T, 1), (1, 1)])), lo)
    return full, small


class TestNativeBroadcast:
    """ew_mul and int_div broadcast their operands: the result equals the one
    from operands materialized to the common shape, payload and scale."""

    @staticmethod
    def same(got: ScaledTensor, want: ScaledTensor) -> None:
        assert got.data.values.tolist() == want.data.values.tolist()
        assert got.scale.shape == want.scale.shape
        assert np.array_equal(got.scale.values, want.scale.values)

    @given(broadcast_operands())
    @settings(max_examples=300, deadline=None)
    def test_ew_mul_and_int_div_match_materialized(self, ops):
        full, small = ops
        shape = full.shape
        for a, b in ((full, small), (small, full)):
            self.same(K.ew_mul(a, b), K.ew_mul(materialized(a, shape), materialized(b, shape)))
            if b.data.values.min() > 0:
                self.same(K.int_div(a, b),
                          K.int_div(materialized(a, shape), materialized(b, shape)))


class TestScaleRange:
    """A scale product that leaves the float range raises a typed error
    (still a ValueError) instead of a numpy warning and a bare ValueError."""

    @pytest.mark.parametrize("scale, op, match", [
        (1e200, lambda t: K.pow_n(t, 2), "finite"),
        (1e200, lambda t: K.ew_mul(t, t), "finite"),
        (1e-200, lambda t: K.ew_mul(t, t), "positive"),
    ], ids=["pow_n-overflow", "ew_mul-overflow", "ew_mul-underflow"])
    def test_overflow_and_underflow_raise_scale_range_error(self, scale, op, match):
        t = scaled([3, -5], [scale])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ScaleRangeError, match=match) as info:
                op(t)
        assert isinstance(info.value, IntflowError)
        assert isinstance(info.value, ValueError)


class TestSumReduce:
    def test_uniform_scale_is_exact(self):
        t = scaled([[1, 2, 3]], [[2.0]])
        out = K.sum_reduce(t, axis=1)
        assert out.data.values.tolist() == [[6]]
        assert out.scale.values.tolist() == [[2.0]]

    def test_varying_scale_matched_first(self):
        t = scaled([[100, 50]], [[100.0, 50.0]])
        out = K.sum_reduce(t, axis=1)
        assert dequantize(out).values.tolist() == [[2.0]]

    def test_axis_out_of_range(self):
        with pytest.raises(ShapeError):
            K.sum_reduce(scaled([1], [1.0]), axis=2)


class TestIntDiv:
    def test_truncates_toward_zero(self):
        num = scaled([7, -7], [1.0])
        den = scaled([2, 2], [1.0])
        out = K.int_div(num, den)
        assert out.data.values.tolist() == [3, -3]

    def test_scale_ratio(self):
        num = scaled([10], [4.0])
        den = scaled([2], [8.0])
        out = K.int_div(num, den)
        assert out.scale.values.tolist() == [0.5]
        assert dequantize(out).values.tolist() == [10.0]

    def test_rejects_nonpositive_denominator(self):
        with pytest.raises(ValueError):
            K.int_div(scaled([1], [1.0]), scaled([0], [1.0]))


class TestShapeOpsThroughProtocol:
    def test_kernels_carry_kind_metadata(self):
        assert K.matmul.kind == "matmul" and K.matmul.scale_arith
        assert K.relu.kind == "relu" and not K.relu.scale_arith
        assert K.transpose.kind == "transpose"
        assert K.concat.kind == "concat"
