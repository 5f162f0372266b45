"""Integer kernels checked against exact-fraction and FP64 oracles."""
import warnings
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intflow import kernels as K
from intflow.audit import OpAuditLog
from intflow.errors import IntflowError, LaneOverflowError, PrecisionError, ScaleRangeError, ShapeError
from intflow.scaling import (
    MATCH_FLOAT_MAX, Lane, Workspace, dequantize, gemm_dtype, protocol_apply,
    scale_match_dim,
)
from intflow.tensor import LANE_MAX, ScaledTensor, container_dtype

from helpers import lane_of, scaled


def matmul(a, b_t) -> ScaledTensor:
    """matmul's Lane, sealed."""
    return K.matmul(a, b_t, Workspace()).seal()


def on_lane(kernel, t: ScaledTensor, **kwargs) -> ScaledTensor:
    """An in-place kernel on a Lane holding a copy of t, sealed."""
    return kernel(lane_of(t, Workspace()), **kwargs).seal()


def refuses():
    """The refusal of a match whose payload reaches MATCH_FLOAT_MAX."""
    return pytest.raises(PrecisionError, match="not below")


def refused(t: ScaledTensor) -> bool:
    """Whether matching t along its last axis refuses it: its scale is not
    collapsed there, and its payload reaches MATCH_FLOAT_MAX."""
    return t.s.shape[-1] > 1 and t.max_magnitude >= MATCH_FLOAT_MAX


def frac_view(t: ScaledTensor):
    """De-quantized view as exact fractions (scales are small rationals here)."""
    data = t.x
    scale = np.broadcast_to(t.s, t.shape)
    return [
        Fraction(int(x)) / Fraction(s).limit_denominator(10**6)
        for x, s in zip(data.ravel(), scale.ravel())
    ]


class TestEwMul:
    def test_distribution_law_exact(self):
        a = scaled([3, -4], [2.0, 4.0])
        b = scaled([5, 6], [8.0, 2.0])
        out = K.ew_mul(a, b).seal()
        assert frac_view(out) == [x * y for x, y in zip(frac_view(a), frac_view(b))]

    def test_multiplicative_identity(self):
        a = scaled([7, -9], [3.0])
        one = scaled([1, 1], [1.0])
        out = K.ew_mul(a, one).seal()
        assert np.array_equal(dequantize(out).values, dequantize(a).values)

    def test_lane_guard(self):
        big = scaled(np.array([2**31]), [1.0])
        with pytest.raises(LaneOverflowError):
            K.ew_mul(big, big)


class TestAdd:
    def test_additive_identity_same_scale(self):
        a = scaled([5, -6], [4.0])
        zero = scaled([0, 0], [4.0])
        out = K.add(a, zero).seal()
        assert np.array_equal(out.x, a.x)

    def test_worked_example(self):
        a = scaled([100], [100.0])
        b = scaled([50], [50.0])
        out = K.add(a, b).seal()
        assert out.x.tolist() == [100]
        assert out.s.tolist() == [50.0]
        assert dequantize(out).values.tolist() == [2.0]

    def test_error_within_two_units_of_matched_scale(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            a = scaled(rng.integers(-127, 128, 6), rng.uniform(0.5, 80, 6))
            b = scaled(rng.integers(-127, 128, 6), rng.uniform(0.5, 80, 6))
            out = K.add(a, b).seal()
            want = dequantize(a).values + dequantize(b).values
            err = np.abs(dequantize(out).values - want)
            assert np.all(err <= (2.0 + 1e-6) / out.s)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            K.add(scaled([1], [1.0]), scaled([1, 2], [1.0, 1.0]))


class TestMatMul:
    def test_two_by_two_against_oracle(self):
        a = scaled([[2, 1], [0, 3]], [[4.0], [4.0]])
        b = scaled([[1, 2], [3, 1]], [[2.0], [2.0]])
        out = matmul(a, b)
        # Uniform scales along the contraction dim make this exact.
        want = dequantize(a).values @ dequantize(b).values.T
        assert np.array_equal(dequantize(out).values, want)

    def test_scale_is_outer_product(self):
        a = scaled([[1, 1]], [[5.0]])
        b = scaled([[1, 1], [2, 2]], [[3.0], [7.0]])
        out = matmul(a, b)
        assert out.s.tolist() == [[15.0, 35.0]]

    def test_contraction_mismatch(self):
        with pytest.raises(ShapeError):
            matmul(scaled([[1, 2]], [[1.0]]), scaled([[1, 2, 3]], [[1.0]]))

    def test_rank_check(self):
        with pytest.raises(ShapeError):
            matmul(scaled([1], [1.0]), scaled([1], [1.0]))

    def test_varying_contraction_scales_within_bound(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            a = scaled(rng.integers(-127, 128, (3, 4)), rng.uniform(1, 40, (3, 4)))
            b = scaled(rng.integers(-127, 128, (5, 4)), rng.uniform(1, 40, (5, 4)))
            out = matmul(a, b)
            da, db = dequantize(a).values, dequantize(b).values
            want = da @ db.T
            ea = (1.0 + 1e-6) / np.min(a.s, axis=1, keepdims=True)
            eb = (1.0 + 1e-6) / np.min(b.s, axis=1, keepdims=True)
            bound = (
                np.abs(da) @ (np.full_like(db, 1.0) * eb).T
                + (np.full_like(da, 1.0) * ea) @ np.abs(db).T
                + 4 * (ea @ eb.T)
            )
            assert np.all(np.abs(dequantize(out).values - want) <= bound)


@st.composite
def gemm_operands(draw):
    """(a, b_t) with payload widths putting k * max|a| * max|b| on either
    side of 2^24 and of 2^53; a width of 0 bits gives an all-zero operand.
    Near-maximal payloads are drawn often, so that sums reach past 2^24,
    where float32 would round an odd one."""
    m, k, n = (draw(st.integers(1, 6)) for _ in range(3))

    def operand(rows):
        bits = draw(st.one_of(st.integers(0, 12), st.integers(11, 14), st.integers(24, 29)))
        hi = 2**bits - 1
        payload = st.one_of(st.integers(-hi, hi), st.sampled_from([hi, -hi, hi - 1, 1 - hi]))
        xs = draw(st.lists(payload, min_size=rows * k, max_size=rows * k))
        cols = draw(st.sampled_from([1, k]))
        ss = draw(st.lists(st.sampled_from([0.5, 1.0, 3.0, 40.0]),
                           min_size=rows * cols, max_size=rows * cols))
        return scaled(np.reshape(xs, (rows, k)), np.reshape(ss, (rows, cols)))

    return operand(m), operand(n)


@st.composite
def grouped_operands(draw):
    """(a, b_t, G): G row blocks each, block g of a (m x k) against block g
    of b_t (n x k), payload widths as in gemm_operands, per-row or
    per-element scales."""
    groups, m, k, n = draw(st.integers(1, 4)), *(draw(st.integers(1, 5)) for _ in range(3))

    def operand(rows):
        bits = draw(st.one_of(st.integers(0, 12), st.integers(24, 29)))
        hi = 2**bits - 1
        payload = st.one_of(st.integers(-hi, hi), st.sampled_from([hi, -hi]))
        xs = draw(st.lists(payload, min_size=rows * k, max_size=rows * k))
        cols = draw(st.sampled_from([1, k]))
        ss = draw(st.lists(st.sampled_from([0.5, 1.0, 3.0, 40.0]),
                           min_size=rows * cols, max_size=rows * cols))
        return scaled(np.reshape(xs, (rows, k)), np.reshape(ss, (rows, cols)))

    return operand(groups * m), operand(groups * n), groups


class TestMatMulExactness:
    @given(gemm_operands())
    @settings(max_examples=300, deadline=None)
    def test_matches_int64_oracle(self, ops):
        a, b_t = ops
        if refused(a) or refused(b_t):
            with refuses():
                matmul(a, b_t)
            return
        am, bm = scale_match_dim(a, -1), scale_match_dim(b_t, -1)
        out = matmul(a, b_t)
        assert out.x.dtype == np.int64
        assert np.array_equal(out.x, am.x @ bm.x.T)
        assert np.array_equal(out.s, am.s @ bm.s.T)

    @given(gemm_operands())
    @settings(max_examples=100, deadline=None)
    def test_a_matched_lane_operand_gives_the_same_product(self, ops):
        # The value product and W2 read a Lane matched along its last axis.
        a, b_t = ops
        ws = Workspace()
        lane = lane_of(a, ws)
        if a.max_magnitude >= MATCH_FLOAT_MAX or refused(b_t):
            with refuses():
                lane.match_last()
                K.matmul(lane, b_t, ws)
            return
        lane.match_last()
        got, want = K.matmul(lane, b_t, ws).seal(), matmul(a, b_t)
        assert got.x.tolist() == want.x.tolist()
        assert np.array_equal(got.s, want.s)

    @given(gemm_operands())
    @settings(max_examples=100, deadline=None)
    def test_an_unmatched_lane_operand_gives_the_same_product(self, ops):
        # matmul matches a Lane along its last axis itself, in place.
        a, b_t = ops
        ws = Workspace()
        lane = lane_of(a, ws)
        if refused(a) or refused(b_t):
            with refuses():
                K.matmul(lane, b_t, ws)
            return
        got, want = K.matmul(lane, b_t, ws).seal(), matmul(a, b_t)
        assert got.x.tolist() == want.x.tolist()
        assert np.array_equal(got.s, want.s)
        assert lane.s.shape == (a.shape[0], 1)

    @given(grouped_operands())
    @settings(max_examples=200, deadline=None)
    def test_groups_give_each_block_its_own_product(self, ops):
        # Row block g of the result is block g of a times block g of b_t,
        # payload and scale, as a plain product of the two blocks gives it.
        a, b_t, groups = ops
        if refused(a) or refused(b_t):
            with refuses():
                K.matmul(a, b_t, Workspace(), groups=groups)
            return
        got = K.matmul(a, b_t, Workspace(), groups=groups).seal()
        m, n = a.shape[0] // groups, b_t.shape[0] // groups
        blocks = [
            matmul(a.view(a.x[g * m:(g + 1) * m], a.s[g * m:(g + 1) * m]),
                   b_t.view(b_t.x[g * n:(g + 1) * n], b_t.s[g * n:(g + 1) * n]))
            for g in range(groups)
        ]
        assert got.x.tolist() == np.concatenate([b.x for b in blocks]).tolist()
        assert got.s.tobytes() == np.concatenate([b.s for b in blocks]).tobytes()

    def test_groups_must_split_the_rows_and_keep_a_scale_row_each(self):
        a = scaled(np.ones((4, 2), np.int64), np.ones((4, 1)))
        with pytest.raises(ShapeError, match="groups"):
            K.matmul(a, scaled(np.ones((3, 2), np.int64), np.ones((3, 1))), Workspace(), groups=2)
        # A scale collapsed along the rows would mix the blocks' scales.
        with pytest.raises(ShapeError, match="scale row per payload row"):
            K.matmul(a, scaled(np.ones((4, 2), np.int64), np.ones((1, 1))), Workspace(), groups=2)
        assert K.matmul(a, scaled(np.ones((4, 2), np.int64), np.ones((1, 1))), Workspace()).s.shape == (4, 1)

    @pytest.mark.parametrize("peaks", [(20, 3), (3, 20), (20, 30), (3, 4)])
    def test_a_groups_shrink_audits_only_the_blocks_it_moves(self, peaks):
        # At p = 7 a block shrinks where its peak squared passes 127; the
        # group's payload, scale and rescale elements are its blocks' alone.
        def operand(peak):
            return scaled([[peak], [1]], [[1.0], [2.0]])

        def run(peaks):
            a = operand(peaks[0]) if len(peaks) == 1 else scaled(
                np.concatenate([operand(m).x for m in peaks]),
                np.concatenate([operand(m).s for m in peaks]))
            log = OpAuditLog()
            lane = protocol_apply(K.matmul, [a, a], log=log, ws=Workspace(), groups=len(peaks))
            shrunk = sum(r.elements for r in log.records if r.kind == "rescale")
            return lane.seal(), shrunk

        got, shrunk = run(peaks)
        alone = [run((m,)) for m in peaks]
        assert got.x.tolist() == np.concatenate([t.x for t, _ in alone]).tolist()
        assert got.s.tobytes() == np.concatenate([t.s for t, _ in alone]).tobytes()
        assert shrunk == sum(n for _, n in alone) == 4 * sum(m * m > 127 for m in peaks)

    def test_a_lane_with_varying_contraction_scales_is_matched(self):
        a = scaled([[3, 5], [7, -2]], [[1.0, 2.0], [4.0, 1.0]])
        b_t = scaled([[1, 2], [3, 4]], [[1.0], [1.0]])
        got = K.matmul(lane_of(a, Workspace()), b_t).seal()
        assert got.x.tolist() == [[7, 17], [-3, -5]]
        assert got.s.tolist() == [[1.0, 1.0], [1.0, 1.0]]

    def test_bound_at_float_mantissa_takes_int64_path(self):
        x = 2**27 + 1
        a = scaled([[x]], [[1.0]])
        assert float(x) * float(x) != x * x  # 2^54 + 2^28 + 1 rounds in float64
        out = matmul(a, a)
        assert out.x.tolist() == [[x * x]]

    @pytest.mark.parametrize("x, k", [(4095, 1), (127, 1024)])
    def test_bound_just_below_float32_mantissa(self, x, k):
        # k * x^2 is 16,769,025 and 16,516,096: float32 GEMMs, exact.
        a = scaled(np.full((2, k), x), [[1.0], [1.0]])
        b_t = scaled(np.full((3, k), -x), [[1.0], [1.0], [1.0]])
        assert k * x * x < 2**24
        out = matmul(a, b_t)
        assert out.x.tolist() == (a.x @ b_t.x.T).tolist()
        assert out.x[0, 0] == -k * x * x

    def test_odd_sum_past_float32_mantissa(self):
        # The bound is 3 * 4095^2 >= 2^24, and the sum, 33,538,051, is odd:
        # float32 cannot hold it, so the GEMM must not run there.
        a = scaled([[4095, 4095, 1]], [[1.0]])
        want = 2 * 4095**2 + 1
        assert int(np.float32(want)) != want
        assert matmul(a, a).x.tolist() == [[want]]


class TestGemmRoute:
    """The bound alone picks the GEMM type; a float32 product never leaves
    matmul, whose lane stays float64."""

    @pytest.mark.parametrize("bound, dtype", [
        (2**24 - 1, np.float32), (2**24, np.float64),
        (2**53 - 1, np.float64), (2**53, np.int64),
    ])
    def test_tier_at_each_boundary(self, bound, dtype):
        assert gemm_dtype(bound) is dtype

    @pytest.fixture
    def gemm_types(self, monkeypatch):
        """The operand dtypes of every np.matmul call matmul makes."""
        seen, real = [], np.matmul

        def spy(a, b, *args, **kwargs):
            seen.append((a.dtype, b.dtype))
            return real(a, b, *args, **kwargs)

        monkeypatch.setattr(K.np, "matmul", spy)
        return seen

    def test_wide_w2_product_runs_in_float32(self, gemm_types):
        # The `wide` FFN's second GEMM: (T, d_ff) by an int8 W2 of (d_m, d_ff),
        # bound 127^2 * 1024 = 16,516,096.
        rng = np.random.default_rng(0)
        h = scaled(np.full((4, 1024), 127), [[1.0]] * 4)
        w = rng.integers(-127, 128, (256, 1024))
        w[0] = 127
        w2 = ScaledTensor.param(w, np.ones((256, 1)), 7)
        assert w2.x.dtype == np.int8
        lane = K.matmul(h, w2, Workspace())
        assert gemm_types == [(np.float32, np.float32)]
        assert lane.x.dtype == np.float64
        assert np.array_equal(lane.seal().x, h.x @ w.T)

    def test_p12_product_runs_in_float64(self, gemm_types):
        # A `longctx` (p=12) GEMM over d_m = 64: bound 4095^2 * 64, past 2^24.
        a = scaled(np.full((3, 64), 4095), [[1.0]] * 3, precision=12)
        b_t = scaled(np.full((5, 64), -4095), [[1.0]] * 5, precision=12)
        lane = K.matmul(a, b_t, Workspace())
        assert gemm_types == [(np.float64, np.float64)]
        assert lane.x.dtype == np.float64
        assert lane.seal().x.tolist() == [[-64 * 4095**2] * 5] * 3


class TestPowAbsRelu:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_pow_distribution_law(self, n):
        t = scaled([2, -3, 0], [2.0, 4.0, 1.0])
        out = on_lane(K.pow_n, t, n=n)
        assert frac_view(out) == [v**n for v in frac_view(t)]

    def test_pow_rejects_zero_exponent(self):
        with pytest.raises(ValueError):
            on_lane(K.pow_n, scaled([1], [1.0]), n=0)

    def test_pow_lane_guard(self):
        t = scaled([10**5], [1.0])
        with pytest.raises(LaneOverflowError):
            on_lane(K.pow_n, t, n=5)

    @given(st.integers(1, 6), st.data())
    @settings(max_examples=200)
    def test_pow_matches_python_ints_near_lane(self, n, data):
        # The largest magnitude the lane guard admits for this exponent, in
        # Python ints: m^n < 2^62 <= (m + 1)^n.
        m = int(2 ** (62 / n))
        while m**n >= LANE_MAX:
            m -= 1
        while (m + 1) ** n < LANE_MAX:
            m += 1
        xs = data.draw(st.lists(
            st.one_of(st.sampled_from([m, -m, m - 1, 0, 1, -1]), st.integers(-m, m)),
            min_size=1, max_size=5,
        ))
        t = scaled(xs, [1.5] * len(xs), precision=15)
        out = on_lane(K.pow_n, t, n=n)
        assert out.x.tolist() == [x**n for x in xs]
        assert out.s.tolist() == [1.5**n] * len(xs)
        # At n = 1, m + 1 = 2^62 is refused as a payload, before any power.
        refusal = ("power" if n > 1 else "payload") + " exceeds accumulator lane"
        with pytest.raises(LaneOverflowError, match=refusal):
            on_lane(K.pow_n, scaled([m + 1], [1.0]), n=n)

    def test_abs_exact(self):
        t = scaled([-5, 3, 0], [2.0])
        out = K.abs_(t).seal()
        assert frac_view(out) == [abs(v) for v in frac_view(t)]

    def test_relu_exact(self):
        t = scaled([-5, 3, 0], [2.0])
        out = on_lane(K.relu, t)
        assert frac_view(out) == [max(v, 0) for v in frac_view(t)]

    @given(st.lists(st.integers(-(2**20), 2**20) | st.integers(-(2**61), 2**61), min_size=1, max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_relu_matches_python_ints(self, xs):
        # Both lane dtypes: float64 below 2^53, int64 from there up.
        out = on_lane(K.relu, scaled(xs, [1.0]))
        assert out.x.tolist() == [max(x, 0) for x in xs]

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
        assert frac_view(on_lane(K.pow_n, t, n=n)) == [v**n for v in vals]
        assert frac_view(K.abs_(t).seal()) == [abs(v) for v in vals]
        assert frac_view(on_lane(K.relu, t)) == [max(v, 0) for v in vals]


def materialized(t: ScaledTensor, shape) -> ScaledTensor:
    """t with its payload copied out to `shape`; scale dims stay collapsed,
    only the rank is padded."""
    pad = (1,) * (len(shape) - len(t.s.shape))
    return scaled(np.broadcast_to(t.x, shape), t.s.reshape(pad + t.s.shape), t.precision)


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
        assert got.x.tolist() == want.x.tolist()
        assert got.s.shape == want.s.shape
        assert np.array_equal(got.s, want.s)

    @given(broadcast_operands())
    @settings(max_examples=300, deadline=None)
    def test_ew_mul_and_int_div_match_materialized(self, ops):
        full, small = ops
        shape = full.shape
        for a, b in ((full, small), (small, full)):
            self.same(K.ew_mul(a, b).seal(),
                      K.ew_mul(materialized(a, shape), materialized(b, shape)).seal())
            if b.x.min() > 0:
                self.same(K.int_div(a, b).seal(),
                          K.int_div(materialized(a, shape), materialized(b, shape)).seal())


class TestScaleRange:
    """A scale product or quotient that leaves the float range raises a
    typed error (still a ValueError) instead of a numpy warning and a bare
    ValueError.  Each kernel that makes scales runs its op quietly only
    where the bounds it derives do not prove the result finite; the folds
    outside the kernels are in test_transformer's
    TestScaleOverflowOutsideKernels."""

    @pytest.mark.parametrize("scale, op, match", [
        (1e200, lambda t: on_lane(K.pow_n, t, n=2), "finite"),
        (1e200, lambda t: K.ew_mul(t, t), "finite"),
        (1e-200, lambda t: K.ew_mul(t, t), "positive"),
        (1e200, lambda t: K.matmul(t, t), "finite"),
        (1e-200, lambda t: K.matmul(t, t), "positive"),
        (1e200, lambda t: K.int_div(t, scaled([[2, 7]], [[1e-200]])), "finite"),
        (1e-200, lambda t: K.int_div(t, scaled([[2, 7]], [[1e200]])), "positive"),
    ], ids=["pow_n-overflow", "ew_mul-overflow", "ew_mul-underflow", "matmul-overflow",
            "matmul-underflow", "int_div-overflow", "int_div-underflow"])
    def test_overflow_and_underflow_raise_scale_range_error(self, scale, op, match):
        t = scaled([[3, -5]], [[scale]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ScaleRangeError, match=match) as info:
                op(t)
        assert isinstance(info.value, IntflowError)
        assert isinstance(info.value, ValueError)


class TestSumReduce:
    def test_uniform_scale_is_exact(self):
        t = scaled([[1, 2, 3]], [[2.0]])
        out = K.sum_reduce(t).seal()
        assert out.x.tolist() == [[6]]
        assert np.array_equal(out.s, t.s)

    def test_varying_scale_matched_first(self):
        t = scale_match_dim(scaled([[100, 50]], [[100.0, 50.0]]), -1)
        assert dequantize(K.sum_reduce(t).seal()).values.tolist() == [[2.0]]

    def test_scale_varying_along_the_axis_is_refused(self):
        with pytest.raises(ShapeError):
            K.sum_reduce(scaled([[100, 50]], [[100.0, 50.0]]))

    @given(st.lists(st.lists(st.one_of(st.integers(-(2**20), 2**20), st.integers(2**50, 2**58)),
                             min_size=3, max_size=3), min_size=1, max_size=3))
    @settings(max_examples=100, deadline=None)
    def test_lane_sum_matches_python_ints(self, rows):
        # A Lane's payload is float64 below 2^53 and summed there while the
        # sum's bound stays below 2^53; past it the sum runs in int64.  The
        # match that collapses the scale refuses payloads from 2^22 up, so
        # those rows are summed under a scale collapsed from the start.
        t = scaled(rows, np.linspace(1.0, 2.0, 3 * len(rows)).reshape(-1, 3))
        if refused(t):
            with refuses():
                scale_match_dim(t, -1)
            t = scaled(rows, np.ones((len(rows), 1)))
        t = scale_match_dim(t, -1)
        lane = lane_of(t, Workspace())
        assert K.sum_reduce(lane) is lane
        out = lane.seal()
        assert out.x.tolist() == [[sum(r)] for r in t.x.tolist()]
        assert out.max_bound >= max(abs(sum(r)) for r in t.x.tolist())
        assert np.array_equal(out.s, t.s)


class TestIntDiv:
    def test_truncates_toward_zero(self):
        num = scaled([7, -7], [1.0])
        den = scaled([2, 2], [1.0])
        out = K.int_div(num, den).seal()
        assert out.x.tolist() == [3, -3]

    def test_scale_ratio(self):
        num = scaled([10], [4.0])
        den = scaled([2], [8.0])
        out = K.int_div(num, den).seal()
        assert out.s.tolist() == [0.5]
        assert dequantize(out).values.tolist() == [10.0]

    def test_rejects_nonpositive_denominator(self):
        # A typed refusal, still a ValueError: the CLI exits 2 on it.
        with pytest.raises(PrecisionError, match="divisor must be strictly positive") as info:
            K.int_div(scaled([1], [1.0]), scaled([0], [1.0]))
        assert isinstance(info.value, IntflowError) and isinstance(info.value, ValueError)


class TestShapeOpsThroughProtocol:
    def test_kernels_carry_kind_metadata(self):
        assert K.matmul.kind == "matmul" and K.matmul.scale_arith
        assert K.relu.kind == "relu" and not K.relu.scale_arith
        assert K.transpose.kind == "transpose"
        assert K.concat.kind == "concat"


# Each kernel a parameter can reach, as a call on the operands it takes:
# `a`, `b` (T x d), `w` (n x d), `den` (T x d, payloads >= 0) and the
# exponent `n`.  `ap` runs a kernel through protocol_apply.
CONTAINER_CALLS = {
    "add": (("a", "b"), lambda ap, o: ap(K.add, [o["a"], o["b"]]).seal()),
    "ew_mul": (("a", "b"), lambda ap, o: ap(K.ew_mul, [o["a"], o["b"]]).seal()),
    "pow_n": (("a",), lambda ap, o: ap(K.pow_n, [lane_of(o["a"], Workspace())], n=o["n"]).seal()),
    "abs_": (("a",), lambda ap, o: ap(K.abs_, [o["a"]]).seal()),
    "relu": (("a",), lambda ap, o: ap(K.relu, [lane_of(o["a"], Workspace())]).seal()),
    "sum_reduce": (("a",), lambda ap, o: ap(K.sum_reduce, [scale_match_dim(o["a"], -1)]).seal()),
    "int_div": (("a", "den"), lambda ap, o: ap(K.int_div, [o["a"], o["den"]]).seal()),
    "matmul": (("a", "w"), lambda ap, o: ap(K.matmul, [o["a"], o["w"]], ws=Workspace()).seal()),
    "concat": (("a", "b"), lambda ap, o: ap(K.concat, [o["a"], o["b"]], axis=0).seal()),
    "transpose": (("a",), lambda ap, o: K.transpose(o["a"], (1, 0))),
    "add on a lane": (
        ("a", "b"),
        lambda ap, o: ap(K.add, [lane_of(o["a"], Workspace()), o["b"]]).seal(),
    ),
}


@st.composite
def container_operands(draw):
    """Operands at a precision p whose container is int8 or int16, with
    payloads that include the extremes +-(2^p - 1)."""
    p = draw(st.sampled_from([5, 7, 12, 15]))
    top = (1 << p) - 1
    T, d, n_rows = draw(st.integers(1, 3)), draw(st.integers(1, 4)), draw(st.integers(1, 3))
    signed = st.one_of(st.sampled_from([top, -top]), st.integers(-top, top))
    positive = st.one_of(st.sampled_from([0, 1, top]), st.integers(1, top))

    def operand(shape, values):
        x = draw(st.lists(values, min_size=shape[0] * shape[1], max_size=shape[0] * shape[1]))
        scale_shape = draw(st.sampled_from([(shape[0], 1), (1, 1), shape]))
        size = scale_shape[0] * scale_shape[1]
        s = draw(st.lists(st.floats(0.25, 64.0), min_size=size, max_size=size))
        return np.reshape(np.array(x, dtype=np.int64), shape), np.reshape(s, scale_shape)

    ops = {
        "a": operand((T, d), signed),
        "b": operand((T, d), signed),
        "w": operand((n_rows, d), signed),
        "den": operand((T, d), positive),
    }
    return p, ops, draw(st.integers(1, 5))


def _outcome(call, ops: dict):
    """What a kernel call gives: payload dtype and values, scale and audit
    records, or the type of the error it raises."""
    log = OpAuditLog()

    def ap(kernel, ins, **kwargs):
        return protocol_apply(kernel, ins, log=log, module="X", **kwargs)

    try:
        out = call(ap, ops)
    except (IntflowError, ValueError) as exc:
        return type(exc)
    return out.x.dtype, out.x.tolist(), out.s.tolist(), log.records


class TestContainerWidthOperands:
    """A parameter payload held at its container width (int8 for p <= 7,
    int16 for p <= 15) gives every kernel the same int64 result, scale,
    audit records and error as the same payload held in int64."""

    @given(container_operands())
    @settings(max_examples=150, deadline=None)
    def test_narrow_operands_match_wide_ones(self, case):
        p, arrays, n = case

        def held(narrow_names):
            ops = {"n": n}
            for name, (x, s) in arrays.items():
                ops[name] = ScaledTensor.param(x, s, p) if name in narrow_names else scaled(x, s, p)
            return ops

        for kernel, (names, call) in CONTAINER_CALLS.items():
            want = _outcome(call, held(()))
            if not isinstance(want, type):
                assert want[0] == np.int64, kernel
            for k in range(1, len(names) + 1):
                for narrow in combinations(names, k):
                    ops = held(narrow)
                    assert all(ops[x].x.dtype == container_dtype(p) for x in narrow)
                    assert _outcome(call, ops) == want, (kernel, narrow)

    @pytest.mark.parametrize("p", [7, 15])
    def test_extremes_do_not_wrap(self, p):
        # At p = 7: 127 + 127, 127 * 127 and 127^3 all leave int8.
        top = (1 << p) - 1
        t = ScaledTensor.param(np.array([top, -top]), np.ones(1), p)
        assert t.x.dtype == container_dtype(p)
        assert K.add(t, t).seal().x.tolist() == [2 * top, -2 * top]
        assert K.ew_mul(t, t).seal().x.tolist() == [top * top, top * top]
        assert on_lane(K.pow_n, t, n=3).x.tolist() == [top**3, -(top**3)]
        assert K.sum_reduce(t).seal().x.tolist() == [0]


# Scales m / 2^j: exact floats whose ratios keep every non-integer matched
# quotient at least 2^-20 from an integer, so the match truncates exactly.
dyadic_scales = st.builds(lambda m, j: m / 2**j, st.integers(1, 1024), st.integers(0, 10))


@st.composite
def lane_kernel_cases(draw):
    """A kernel among add, ew_mul, int_div and abs_, with its operands: a
    T x d or broadcastable payload on either side of 2^53 where the kernel
    allows it, and a scale of every collapsed shape."""
    name = draw(st.sampled_from(["add", "ew_mul", "int_div", "abs_"]))
    T, d = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    top = {"add": 2**60, "ew_mul": 2**30, "int_div": 2**60, "abs_": 2**61}[name]
    values = st.integers(-(2**20), 2**20) | st.integers(-top, top) | st.sampled_from([top, -top, 0])

    def operand(shape, ints):
        n = shape[0] * shape[1]
        x = np.reshape(draw(st.lists(ints, min_size=n, max_size=n)), shape)
        s_shape = draw(st.sampled_from([(shape[0], 1), (1, shape[1]), shape, (1, 1)]))
        s = np.reshape(draw(st.lists(dyadic_scales, min_size=s_shape[0] * s_shape[1],
                                     max_size=s_shape[0] * s_shape[1])), s_shape)
        return scaled(x, s, precision=15)

    shapes = [(T, d), (T, 1), (1, d)]
    a_shape = (T, d) if name == "add" else draw(st.sampled_from(shapes))
    a = operand(a_shape, values)
    divisors = st.integers(1, 2**20) | st.integers(1, 2**62 - 1)
    b = operand(draw(st.sampled_from(shapes)), divisors if name == "int_div" else values)
    return name, a, b, draw(st.booleans()), draw(st.booleans())


def oracle(name, a, b):
    """Payload as Python ints and scale as floats, element by element, from
    exact fractions: matching truncates x * s_bar / s toward zero."""
    shape = np.broadcast_shapes(a.shape, b.shape)
    xa, sa = (np.broadcast_to(v, shape) for v in (a.x, a.s))
    xb, sb = (np.broadcast_to(v, shape) for v in (b.x, b.s))

    def trunc(q: Fraction) -> int:
        return int(q)  # int() of a Fraction truncates toward zero

    xs, ss = [], []
    for i in np.ndindex(shape):
        x, y, s, t = int(xa[i]), int(xb[i]), float(sa[i]), float(sb[i])
        if name == "add":
            m = min(s, t)
            xs.append(trunc(x * Fraction(m) / Fraction(s)) + trunc(y * Fraction(m) / Fraction(t)))
            ss.append(m)
        elif name == "ew_mul":
            xs.append(x * y)
            ss.append(float(Fraction(s) * Fraction(t)))
        elif name == "int_div":
            xs.append(trunc(Fraction(x, y)))
            ss.append(float(Fraction(s) / Fraction(t)))
        else:
            xs.append(abs(x))
            ss.append(s)
    return shape, xs, ss


def lane_state(lane: Lane) -> tuple:
    """What a step could change on `lane`: payload and scale bits with
    their dtypes and shapes, bounds, `nonneg` and the scratch buffer."""
    return (lane.x.dtype, lane.x.shape, lane.x.tobytes(), lane.s.shape, lane.s.tobytes(),
            lane.max_bound, lane.nonneg, lane.lo, lane.hi, id(lane.work))


class TestLaneKernels:
    """add, ew_mul, int_div and abs_ on a ScaledTensor or a Lane as first
    operand, and either as second, against exact oracles: the same payload
    and scale bits, a Lane first operand worked in place (abs_ excepted,
    which leaves it as it is), and carried bounds that hold."""

    @pytest.mark.parametrize("payload", [[[-3, 4], [0, -7]], [[-(2**60), 5], [0, 2**59]]])
    def test_abs_leaves_its_lane_operand_as_it_is(self, payload):
        # Scratch taken and `nonneg` set, so that a step that spared the
        # scratch or cleared the bit would show; a payload from 2^53 up
        # runs in int64.
        ws = Workspace()
        lane = lane_of(scaled(payload, [[2.0], [0.5]]), ws)
        lane.scratch()
        lane.nonneg = True
        before = lane_state(lane)
        out = protocol_apply(K.abs_, [lane], log=OpAuditLog(), allow_rescale=False)
        assert out is not lane and out.ws is ws
        assert lane_state(lane) == before
        assert out.x.tolist() == [[abs(v) for v in row] for row in payload]
        assert out.x.dtype == (np.float64 if out.max_bound < 2**53 else np.int64)
        assert out.s is not lane.s and out.s.tolist() == [[2.0], [0.5]]
        assert (out.max_bound, out.lo, out.hi) == (lane.max_bound, lane.lo, lane.hi)

    def test_lane_add_refuses_only_an_exact_max_at_the_lane(self):
        # A bound that reaches LANE_MAX is not refused while the exact max
        # stays below it; the step clears `nonneg`.
        ws = Workspace()
        lane = lane_of(scaled([[2**61, -5]], [[1.0]]), ws)
        lane.max_bound, lane.nonneg = LANE_MAX - 1, True
        assert K.lane_add(lane, np.array([[1.0]]), c_max=1) is lane
        assert lane.x.tolist() == [[2**61 + 1, -4]]
        assert (lane.max_bound, lane.nonneg) == (LANE_MAX, False)
        lane = lane_of(scaled([[LANE_MAX - 1, 0]], [[1.0]]), ws)
        with pytest.raises(LaneOverflowError, match="payload exceeds accumulator lane"):
            K.lane_add(lane, np.array([[1.0]]), c_max=1)

    @given(lane_kernel_cases())
    @settings(max_examples=300, deadline=None)
    def test_both_forms_match_the_oracle(self, case):
        name, a, b, a_lane, b_lane = case
        ws = Workspace()
        first = lane_of(a, ws) if a_lane else a
        ins = [first] if name == "abs_" else [first, lane_of(b, ws) if b_lane else b]
        if name == "add":
            # add matches each operand whose scale is not the minimum; a
            # payload from 2^22 up is then refused.
            s_bar = np.minimum(a.s, b.s)
            if any(t.max_magnitude >= MATCH_FLOAT_MAX and not (t.s == s_bar).all()
                   for t in (a, b)):
                with refuses():
                    K.add(*ins, ws=ws)
                return
        shape, xs, ss = oracle(name, a, b if name != "abs_" else a)
        before = lane_state(first) if a_lane else None
        out = getattr(K, name)(*ins, ws=ws)
        if name == "abs_":
            # |x| goes to a new lane; the operand stays as it was.
            assert isinstance(out, Lane) and out is not first
            if a_lane:
                assert lane_state(first) == before
        else:
            assert isinstance(out, Lane) and (out is first) == a_lane
        assert out.shape == shape
        assert [int(v) for v in out.x.ravel()] == xs
        s = np.broadcast_to(out.s, shape)
        assert s.ravel().tolist() == ss
        assert out.max_bound >= max(abs(v) for v in xs)
        assert out.lo <= s.min() and out.hi >= s.max()
        sealed = out.seal()
        assert sealed.x.ravel().tolist() == xs
        assert np.broadcast_to(sealed.s, shape).ravel().tolist() == ss
