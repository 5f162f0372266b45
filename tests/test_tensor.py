"""Tensor containers and the shape-preserving transformations."""
import dataclasses

import numpy as np
import pytest

from intflow import kernels as K
from intflow.errors import LaneOverflowError, ShapeError, ValidationError
from intflow.scaling import Precision, Workspace, dequantize, quantize
from intflow.tensor import RationalTensor, ScaledTensor, transpose
from intflow.transformer import (
    LAYER_TENSORS,
    MODEL_TENSORS,
    ModelConfig,
    quantize_model,
    random_reference_model,
)

from helpers import in_range, lane_of, scaled, viewed


class TestContainers:
    def test_max_magnitude_stored_outside_identity(self):
        a = scaled([[3, -2**40], [0, 7]], [[1.0]])
        assert a.max_magnitude == 2**40
        assert not in_range(a)
        assert scaled(np.array([], dtype=np.int64), [1.0]).max_magnitude == 0
        # A tensor equals only itself: its arrays take no part in identity.
        assert a == a and a != scaled([[3, -2**40], [0, 7]], [[1.0]])
        with pytest.raises(dataclasses.FrozenInstanceError):
            a.max_bound = 0

    def test_lane_check_sees_int64_min(self):
        # |-2^63| does not fit int64; the check must not wrap it negative.
        with pytest.raises(LaneOverflowError):
            scaled([5, -2**63], [1.0])

    def test_caller_array_is_copied(self):
        arr = np.array([[3, -5], [7, 1]], dtype=np.int64)
        t = scaled(arr, [[1.0]])
        arr[0, 0] = 10**9  # the caller's array stays writeable
        assert t.x.tolist() == [[3, -5], [7, 1]]
        assert t.max_magnitude == 7

    def test_scaled_copies_views_and_other_dtypes(self):
        base = np.array([[3, -5], [7, 1]], dtype=np.int64)
        view = base.T
        t = scaled(view, [[1.0]])
        base[0, 0] = 10**9
        assert t.x.tolist() == [[3, 7], [-5, 1]]
        assert t.max_magnitude == 7
        small = np.array([1, -2], dtype=np.int32)
        u = scaled(small, [1.0])
        small[0] = 100
        assert u.x.dtype == np.int64 and u.x.tolist() == [1, -2]

    def test_view_wraps_without_copy(self):
        t = scaled([[3, -9], [7, 1]], [[1.0], [2.0]])
        # Views of a sealed tensor's arrays are sealed by the constructor,
        # with no copy; the source's bound stays a bound.
        cols = viewed(t, t.x[:, 1:], t.s)
        assert np.shares_memory(cols.x, t.x) and cols.s is t.s
        assert cols.max_magnitude == 9 and not cols.x.flags.writeable
        right = viewed(t, t.x[:, :1], t.s)
        assert right.max_magnitude == 7  # a slice is scanned
        wide = viewed(t, np.broadcast_to(t.x, (3, 2, 2)), t.s[None])
        assert wide.max_magnitude == 9 and wide.shape == (3, 2, 2) and wide.max_bound == t.max_bound
        flat = viewed(t, np.broadcast_to(t.x[:1], (0, 2)), t.s[:1])
        assert flat.max_magnitude == 0 and flat.shape == (0, 2)
        assert viewed(t, t.x.T, t.s.T).x.tolist() == [[3, 7], [-9, 1]]
        with pytest.raises(ShapeError, match="does not broadcast"):
            viewed(t, t.x[:1], t.s)

    def test_constructor_freezes_a_fresh_array(self):
        t = ScaledTensor(np.arange(4, dtype=np.int64) - 2, np.ones(1), 7)
        assert t.max_magnitude == 2
        assert not t.x.flags.writeable and not t.s.flags.writeable

    def test_scale_rejects_nan_and_inf(self):
        with pytest.raises(ValueError, match="positive"):
            scaled([1, 1], [1.0, np.nan])
        with pytest.raises(ValueError, match="finite"):
            scaled([1, 1], [1.0, np.inf])

    def test_rejects_float_payloads(self):
        with pytest.raises(TypeError):
            scaled(np.array([1.5]), [1.0])
        with pytest.raises(TypeError):
            ScaledTensor.param(np.array([1.5]), np.ones(1), 7)

    @pytest.mark.parametrize("p", [1, 16, 0, -3])
    def test_precision_out_of_range(self, p):
        with pytest.raises(ValueError):
            scaled([1], [1.0], p)

    def test_scale_must_be_positive(self):
        with pytest.raises(ValueError):
            scaled([1, 1], [1.0, 0.0])
        with pytest.raises(ValueError):
            scaled([1], [-2.0])

    def test_rational_rejects_non_finite(self):
        with pytest.raises(ValueError):
            RationalTensor(np.array([np.inf]))

    def test_scale_shape_must_broadcast_to_payload(self):
        with pytest.raises(ShapeError):
            scaled([[1, 2], [3, 4]], [[1.0, 2.0, 3.0]])

    def test_max_magnitude_and_in_range(self):
        t = scaled([3, -127], [1.0])
        assert t.max_magnitude == 127
        assert in_range(t)
        assert not in_range(scaled([128], [1.0]))


class TestPlainAttributes:
    """`shape` and `max_bound` are attributes set when a tensor is sealed;
    `max_magnitude` scans the exact max and leaves the bound as it is."""

    @staticmethod
    def check(t: ScaledTensor) -> None:
        assert t.shape == t.x.shape
        exact = int(np.abs(t.x.astype(np.int64)).max(initial=0))
        bound = t.max_bound
        assert bound >= exact
        assert t.max_magnitude == exact and t.max_bound == bound

    def test_every_constructor(self):
        x = np.array([[3, -9, 2], [7, 1, -4]], dtype=np.int64)
        s = np.array([[2.0], [3.0]])

        def loose() -> ScaledTensor:  # bound 100, max|x| not yet scanned
            return ScaledTensor(x.copy(), s.copy(), 7, 100, (2.0, 3.0))

        t = loose()
        assert t.max_bound == 100 and t.shape == (2, 3)
        assert (t.lo, t.hi) == (2.0, 3.0)
        self.check(t)
        self.check(ScaledTensor.param(x, s, 7))
        t = loose()
        self.check(viewed(t, t.x[:, 1:], t.s))
        self.check(transpose(loose(), (1, 0)))
        self.check(transpose(ScaledTensor.param(x, s, 7), (1, 0)))
        lane = lane_of(loose(), Workspace())
        assert lane.max_bound == 100
        assert lane.max_magnitude == 9 and lane.max_bound == 100
        self.check(lane_of(loose(), Workspace()).seal())


class TestTranspose:
    def test_transpose_moves_payload_and_scale(self):
        t = scaled([[1, 2], [3, 4]], [[10.0], [20.0]])
        out = transpose(t, (1, 0))
        assert out.x.tolist() == [[1, 3], [2, 4]]
        assert out.s.tolist() == [[10.0, 20.0]]

    def test_identity_permutation(self):
        t = scaled([[1, 2]], [[4.0]])
        out = transpose(t, (0, 1))
        assert np.array_equal(out.x, t.x)
        assert np.array_equal(out.s, t.s)

    def test_rank_mismatch(self):
        with pytest.raises(ShapeError):
            transpose(scaled([[1]], [[1.0]]), (0, 1, 2))

    def test_dequantized_view_commutes_3d(self):
        rng = np.random.default_rng(0)
        data = rng.integers(-100, 100, (2, 3, 4))
        scale = rng.uniform(1.0, 9.0, (2, 3, 1))
        t = scaled(data, scale)
        axes = (2, 0, 1)
        got = dequantize(transpose(t, axes)).values
        want = np.transpose(dequantize(t).values, axes)
        assert np.array_equal(got, want)


class TestConcat:
    def test_single_input_identity(self):
        t = scaled([[1, 2]], [[5.0]])
        out = K.concat(t, axis=0).seal()
        assert np.array_equal(out.x, t.x)
        assert np.array_equal(out.s, t.s)

    def test_two_rows_stack_scales(self):
        a = scaled([[1, 2]], [[10.0]])
        b = scaled([[3, 4]], [[20.0]])
        out = K.concat(a, b, axis=0).seal()
        assert out.x.tolist() == [[1, 2], [3, 4]]
        assert out.s.tolist() == [[10.0], [20.0]]

    def test_mixed_precision_rejected(self):
        a = scaled([[1]], [[1.0]], precision=7)
        b = scaled([[1]], [[1.0]], precision=8)
        with pytest.raises(ShapeError):
            K.concat(a, b, axis=0)

    def test_dequantized_view_commutes(self):
        rng = np.random.default_rng(1)
        parts = [
            scaled(
                rng.integers(-50, 50, (n, 3)), rng.uniform(1.0, 8.0, (n, 1))
            )
            for n in (2, 1, 4)
        ]
        got = dequantize(K.concat(*parts, axis=0).seal()).values
        want = np.concatenate([dequantize(p).values for p in parts], axis=0)
        assert np.array_equal(got, want)

    def test_concat_along_hidden_axis(self):
        a = scaled([[1, 2], [3, 4]], [[10.0], [20.0]])
        b = scaled([[5], [6]], [[10.0], [20.0]])
        out = K.concat(a, b, axis=1).seal()
        assert out.x.tolist() == [[1, 2, 5], [3, 4, 6]]
        got = dequantize(out).values
        want = np.concatenate([dequantize(a).values, dequantize(b).values], axis=1)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("parts, axis", [
        ((), 0),
        ((scaled([[1]], [[1.0]]), scaled([1], [1.0])), 0),
        ((scaled([[1, 2]], [[1.0]]), scaled([[1]], [[1.0]])), 0),
        ((scaled([[1]], [[1.0]]),), 2),
    ])
    def test_empty_rank_shape_and_axis_rejected(self, parts, axis):
        with pytest.raises(ShapeError):
            K.concat(*parts, axis=axis)

    def test_lane_parts_are_released(self):
        ws = Workspace()
        a = lane_of(scaled([[1, 2], [3, 4]], [[10.0], [20.0]]), ws)
        b = scaled([[5], [6]], [[10.0], [20.0]])
        held = (a.x, a.s)
        out = K.concat(a, b, axis=1)
        assert out.ws is ws
        assert all(any(x is f for fs in ws._free.values() for f in fs) for x in held)
        sealed = out.seal()
        assert sealed.x.tolist() == [[1, 2, 5], [3, 4, 6]]
        assert sealed.s.tolist() == [[10.0, 10.0, 10.0], [20.0, 20.0, 20.0]]

    def test_a_lane_given_twice_goes_back_once(self):
        ws = Workspace()
        a = lane_of(scaled([[1, 2]], [[3.0]]), ws)
        out = K.concat(a, a, axis=0).seal()
        assert out.x.tolist() == [[1, 2], [1, 2]]
        assert out.s.tolist() == [[3.0], [3.0]]
        held = [id(f) for fs in ws._free.values() for f in fs]
        assert len(held) == len(set(held))


class TestCallerArrays:
    """The public float constructors freeze a view of a float64 array, not the
    array itself: the caller may still write to it (and must not, once the
    tensor holds it), and the tensor's values are read-only.  quantize holds
    its scale so."""

    @pytest.mark.parametrize("build, held", [
        (RationalTensor, lambda t: t.values),
        (lambda a: quantize(np.ones(a.shape), a, 7), lambda t: t.s),
    ], ids=["RationalTensor", "quantize"])
    def test_constructor_leaves_the_array_writable(self, build, held):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        values = held(build(a))
        assert a.flags.writeable
        assert not values.flags.writeable
        assert np.shares_memory(values, a)  # a view, not a copy

    def test_a_float32_array_is_held_as_a_float64_copy(self):
        # The twin's states are float32; one entering the integer path owns
        # its float64 values, so a later write to the state cannot reach them.
        a = np.array([[1.5, -2.25], [3.0, 0.1]], dtype=np.float32)
        t = RationalTensor(a)
        assert t.values.dtype == np.float64
        assert not np.shares_memory(t.values, a)
        assert np.array_equal(t.values, a)
        a[0, 0] = np.inf
        assert t.values[0, 0] == 1.5

    def test_quantize_model_leaves_the_reference_writable(self):
        ref = random_reference_model(ModelConfig(d_m=8, heads=2, d_ff=16, n_layers=1, vocab=8), seed=0)
        model = quantize_model(ref)

        def leaves(m):
            return [getattr(lp, f) for lp in m.layers for f in LAYER_TENSORS] + [
                getattr(m, f) for f in MODEL_TENSORS
            ]

        assert all(a.flags.writeable for a in leaves(ref))
        assert not any(
            t.x.flags.writeable or t.s.flags.writeable for t in leaves(model)
        )


@pytest.mark.parametrize("build", [
    lambda p: Precision(p),
    lambda p: ScaledTensor(np.zeros(2, np.int64), np.ones(1), precision=p),
    lambda p: ModelConfig(precision=p),
], ids=["Precision", "ScaledTensor", "ModelConfig"])
@pytest.mark.parametrize("p", [1, 16])
def test_precision_outside_range_is_a_validation_error(build, p):
    # A ValidationError is a ValueError too, so the CLI still exits 2.
    with pytest.raises(ValidationError, match=rf"^precision {p} outside \[2, 15\]$"):
        build(p)
