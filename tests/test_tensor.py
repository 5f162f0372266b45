"""Tensor containers and the shape-preserving transformations."""
import dataclasses

import numpy as np
import pytest

from intflow import kernels as K
from intflow.errors import LaneOverflowError, ShapeError, ValidationError
from intflow.scaling import Lane, Precision, Workspace, dequantize
from intflow.tensor import (
    IntTensor,
    RationalTensor,
    ScaledTensor,
    ScaleTensor,
    transpose,
)
from intflow.transformer import (
    LAYER_TENSORS,
    MODEL_TENSORS,
    ModelConfig,
    quantize_model,
    random_reference_model,
)

from helpers import scaled


class TestContainers:
    def test_max_magnitude_stored_outside_identity(self):
        a = IntTensor(np.array([[3, -2**40], [0, 7]]), 7)
        assert a.max_magnitude == 2**40
        assert not a.in_range()
        assert IntTensor(np.array([], dtype=np.int64), 7).max_magnitude == 0
        stored = {f.name: f for f in dataclasses.fields(IntTensor)}["_max_abs"]
        assert not stored.compare and not stored.repr and not stored.init

    def test_lane_check_sees_int64_min(self):
        # |-2^63| does not fit int64; the check must not wrap it negative.
        with pytest.raises(LaneOverflowError):
            IntTensor(np.array([5, -2**63]), 7)

    def test_caller_array_is_copied(self):
        arr = np.array([[3, -5], [7, 1]], dtype=np.int64)
        t = IntTensor(arr, 7)
        arr[0, 0] = 10**9  # the caller's array stays writeable
        assert t.values.tolist() == [[3, -5], [7, 1]]
        assert t.max_magnitude == 7

    def test_adopt_copies_views_and_other_dtypes(self):
        base = np.array([[3, -5], [7, 1]], dtype=np.int64)
        view = base.T
        t = IntTensor.adopt(view, 7)
        base[0, 0] = 10**9
        assert t.values.tolist() == [[3, 7], [-5, 1]]
        assert t.max_magnitude == 7
        small = np.array([1, -2], dtype=np.int32)
        u = IntTensor.adopt(small, 7)
        small[0] = 100
        assert u.values.dtype == np.int64 and u.values.tolist() == [1, -2]

    def test_view_wraps_without_copy(self):
        t = IntTensor(np.array([[3, -9], [7, 1]]), 7)
        cols = t.view(t.values[:, 1:])
        assert np.shares_memory(cols.values, t.values)
        assert cols.max_magnitude == 9 and not cols.values.flags.writeable
        right = t.view(t.values[:, :1])
        assert right.max_magnitude == 7  # a slice is scanned
        wide = t.view(np.broadcast_to(t.values, (3, 2, 2)), same_max=True)
        assert wide.max_magnitude == 9 and wide.shape == (3, 2, 2)
        flat = t.view(np.broadcast_to(t.values[:1], (0, 2)), same_max=True)
        assert flat.max_magnitude == 0  # an empty view holds no element
        assert t.view(t.values.T, same_max=True).values.tolist() == [[3, 7], [-9, 1]]

    def test_adopt_freezes_a_fresh_array(self):
        t = IntTensor.adopt(np.arange(4, dtype=np.int64) - 2, 7)
        assert t.max_magnitude == 2
        assert not t.values.flags.writeable

    def test_scale_rejects_nan_and_inf(self):
        with pytest.raises(ValueError, match="positive"):
            ScaleTensor(np.array([1.0, np.nan]))
        with pytest.raises(ValueError, match="finite"):
            ScaleTensor(np.array([1.0, np.inf]))

    def test_int_tensor_rejects_float_payloads(self):
        with pytest.raises(TypeError):
            IntTensor(np.array([1.5]), 7)

    @pytest.mark.parametrize("p", [1, 16, 0, -3])
    def test_precision_out_of_range(self, p):
        with pytest.raises(ValueError):
            IntTensor(np.array([1]), p)

    def test_scale_must_be_positive(self):
        with pytest.raises(ValueError):
            ScaleTensor(np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            ScaleTensor(np.array([-2.0]))

    def test_rational_rejects_non_finite(self):
        with pytest.raises(ValueError):
            RationalTensor(np.array([np.inf]))

    def test_scale_shape_must_broadcast_to_payload(self):
        with pytest.raises(ShapeError):
            scaled([[1, 2], [3, 4]], [[1.0, 2.0, 3.0]])

    def test_max_magnitude_and_in_range(self):
        t = IntTensor(np.array([3, -127]), 7)
        assert t.max_magnitude == 127
        assert t.in_range()
        assert not IntTensor(np.array([128]), 7).in_range()


class TestPlainAttributes:
    """`shape` and `max_bound` are attributes set when a tensor is sealed,
    and `max_bound` becomes the exact max once that has been scanned."""

    @staticmethod
    def check(t: ScaledTensor) -> None:
        assert t.shape == t.data.shape == t.data.values.shape
        assert t.scale.shape == t.scale.values.shape
        exact = int(np.abs(t.data.values.astype(np.int64)).max(initial=0))
        assert t.data.max_bound >= exact
        assert t.data.max_magnitude == exact == t.data.max_bound

    def test_every_constructor(self):
        x = np.array([[3, -9, 2], [7, 1, -4]], dtype=np.int64)
        s = ScaleTensor(np.array([[2.0], [3.0]]))

        def loose() -> ScaledTensor:  # bound 100, max|x| not yet scanned
            return ScaledTensor(IntTensor.adopt(x.copy(), 7, bound=100), s)

        t = loose()
        assert t.data.max_bound == 100 and t.shape == (2, 3)
        self.check(t)
        self.check(ScaledTensor(IntTensor.param(x, 7), s))
        t = loose()
        self.check(ScaledTensor(t.data.view(t.data.values[:, 1:]), s))
        self.check(transpose(loose(), (1, 0)))
        self.check(transpose(ScaledTensor(IntTensor.param(x, 7), s), (1, 0)))
        lane = Lane.of(loose(), Workspace())
        assert lane.max_bound == 100 and not lane.exact
        assert lane.max_magnitude == 9 and lane.max_bound == 9
        self.check(Lane.of(loose(), Workspace()).seal())


class TestTranspose:
    def test_transpose_moves_payload_and_scale(self):
        t = scaled([[1, 2], [3, 4]], [[10.0], [20.0]])
        out = transpose(t, (1, 0))
        assert out.data.values.tolist() == [[1, 3], [2, 4]]
        assert out.scale.values.tolist() == [[10.0, 20.0]]

    def test_identity_permutation(self):
        t = scaled([[1, 2]], [[4.0]])
        out = transpose(t, (0, 1))
        assert np.array_equal(out.data.values, t.data.values)
        assert np.array_equal(out.scale.values, t.scale.values)

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
        assert np.array_equal(out.data.values, t.data.values)
        assert np.array_equal(out.scale.values, t.scale.values)

    def test_two_rows_stack_scales(self):
        a = scaled([[1, 2]], [[10.0]])
        b = scaled([[3, 4]], [[20.0]])
        out = K.concat(a, b, axis=0).seal()
        assert out.data.values.tolist() == [[1, 2], [3, 4]]
        assert out.scale.values.tolist() == [[10.0], [20.0]]

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
        assert out.data.values.tolist() == [[1, 2, 5], [3, 4, 6]]
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
        a = Lane.of(scaled([[1, 2], [3, 4]], [[10.0], [20.0]]), ws)
        b = scaled([[5], [6]], [[10.0], [20.0]])
        held = (a.x, a.s)
        out = K.concat(a, b, axis=1)
        assert out.ws is ws
        assert all(any(x is f for fs in ws._free.values() for f in fs) for x in held)
        sealed = out.seal()
        assert sealed.data.values.tolist() == [[1, 2, 5], [3, 4, 6]]
        assert sealed.scale.values.tolist() == [[10.0, 10.0, 10.0], [20.0, 20.0, 20.0]]

    def test_a_lane_given_twice_goes_back_once(self):
        ws = Workspace()
        a = Lane.of(scaled([[1, 2]], [[3.0]]), ws)
        out = K.concat(a, a, axis=0).seal()
        assert out.data.values.tolist() == [[1, 2], [1, 2]]
        assert out.scale.values.tolist() == [[3.0], [3.0]]
        held = [id(f) for fs in ws._free.values() for f in fs]
        assert len(held) == len(set(held))


class TestCallerArrays:
    """The public float constructors freeze a view of a float64 array, not the
    array itself: the caller may still write to it (and must not, once the
    tensor holds it), and the tensor's values are read-only."""

    @pytest.mark.parametrize("cls", [RationalTensor, ScaleTensor])
    def test_constructor_leaves_the_array_writable(self, cls):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        t = cls(a)
        assert a.flags.writeable
        assert not t.values.flags.writeable
        assert np.shares_memory(t.values, a)  # a view, not a copy

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
            t.data.values.flags.writeable or t.scale.values.flags.writeable for t in leaves(model)
        )


@pytest.mark.parametrize("build", [
    lambda p: Precision(p),
    lambda p: IntTensor(np.zeros(2, np.int64), precision=p),
    lambda p: ModelConfig(precision=p),
], ids=["Precision", "IntTensor", "ModelConfig"])
@pytest.mark.parametrize("p", [1, 16])
def test_precision_outside_range_is_a_validation_error(build, p):
    # A ValidationError is a ValueError too, so the CLI still exits 2.
    with pytest.raises(ValidationError, match=rf"^precision {p} outside \[2, 15\]$"):
        build(p)
