"""The lanes against an exact kernel-by-kernel composition, and their workspace.

`poly` and `poly_attention` work their T x T weights in place on one buffer,
`ffn_core` its hidden activations, and the output projection its logits.
The oracles here build the same stages one `session.apply` per op, from
kernels that compute every payload in Python ints and every scale with the
same float operation as the library: a product, a power, a quotient, a
minimum (scale_match).  Every payload, scale, audit record and error type
must agree with them, on both sides of the float64-exact switch at 2^53.
The buffers come from the session's workspace, which must never hand out an
array that a result still holds.
"""
import functools
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intflow import kernels as K
from intflow import scaling
from intflow.audit import PAYLOAD, SCALE, OpAuditLog
from intflow.errors import (
    IntflowError, LaneOverflowError, PrecisionError, ScaleRangeError, WorkspaceError,
)
from intflow.scaling import (
    MATCH_FLOAT_MAX, Lane, Session, Workspace, scale_match, scale_match_dim,
)
from intflow.tensor import LANE_MAX, ScaledTensor
from intflow import transformer
from intflow.transformer import (
    FFN,
    PROJ,
    ModelConfig,
    PolyParams,
    _group_size,
    _head_rows,
    _match_heads,
    _stacks,
    attend_heads,
    ffn_core,
    forward,
    quantize_model,
    random_reference_model,
    reference_forward,
    reference_twin,
)

from helpers import attention, lane_of, poly, scaled, viewed


def slice_cols(t: ScaledTensor, sl: slice) -> ScaledTensor:
    """Column block `sl` of t as views, its scale sliced along unless collapsed."""
    return viewed(t, t.x[:, sl], t.s if t.s.shape[1] == 1 else t.s[:, sl])


def widened(t: ScaledTensor, shape) -> ScaledTensor:
    """t with its payload copied out to `shape`; its scale keeps its
    collapsed dims, only the rank is padded."""
    pad = (1,) * (len(shape) - len(t.s.shape))
    return scaled(np.broadcast_to(t.x, shape).copy(), t.s.reshape(pad + t.s.shape), t.precision)


# -- exact kernels: Python-int payloads, tagged for protocol_apply -------------


def exact_kernel(kind, scale_arith):
    """Tag fn for protocol_apply, which takes only a Lane: fn's ScaledTensor
    result is copied into a Lane of its own."""
    def deco(fn):
        @functools.wraps(fn)
        def kernel(*args, **kwargs):
            return lane_of(fn(*args, **kwargs), Workspace())
        kernel.kind, kernel.scale_arith = kind, scale_arith
        return kernel
    return deco


def step(session, kernel, ins, module, **kwargs) -> ScaledTensor:
    """One oracle op through the protocol, its lane sealed."""
    return session.apply(kernel, ins, module, **kwargs).seal()


def ints(t: ScaledTensor) -> np.ndarray:
    """The payload as an object array of Python ints."""
    return t.x.astype(object)


def peak(x: np.ndarray) -> int:
    return max((abs(int(v)) for v in x.ravel()), default=0)


def sealed(x: np.ndarray, s: np.ndarray, precision: int) -> ScaledTensor:
    """An exact payload, refused as the lane refuses it, and a scale checked
    as every new scale is."""
    if peak(x) >= LANE_MAX:
        raise LaneOverflowError("payload exceeds accumulator lane")
    return scaled(x.astype(np.int64), s, precision)


@exact_kernel("matmul", True)
def exact_matmul(a, b_t):
    a, b_t = scale_match_dim(a, -1), scale_match_dim(b_t, -1)
    if a.shape[-1] * peak(ints(a)) * peak(ints(b_t)) >= LANE_MAX:
        raise LaneOverflowError("product exceeds accumulator lane")
    with np.errstate(over="ignore"):
        s = a.s * b_t.s.T  # one rounded product each
    return sealed(ints(a) @ ints(b_t).T, s, a.precision)


@exact_kernel("add", True)
def exact_add(a, b):
    a, b = scale_match([a, b])
    return sealed(ints(a) + ints(b), a.s, a.precision)


@exact_kernel("relu", False)
def exact_relu(t):
    x = ints(t)
    return scaled(np.where(x > 0, x, 0).astype(np.int64), t.s, t.precision)


@exact_kernel("pow_n", True)
def exact_pow_n(t, n):
    # The guard checks max|x|^n against the lane in Python ints.
    if peak(ints(t)) ** n >= LANE_MAX:
        raise LaneOverflowError("power exceeds accumulator lane")
    with np.errstate(over="ignore", under="ignore"):
        s = t.s ** n
    return sealed(ints(t) ** n, s, t.precision)


@exact_kernel("sum_reduce", False)
def exact_sum(t):
    assert t.s.shape[-1] == 1
    x = ints(t).sum(axis=-1, keepdims=True)
    return sealed(x, t.s, t.precision)


@exact_kernel("int_div", True)
def exact_int_div(num, den):
    n, d = ints(num), ints(den)
    if (d <= 0).any():
        raise PrecisionError("divisor must be strictly positive")
    q = np.where(n < 0, -(-n // d), n // d)  # truncated toward zero
    with np.errstate(over="ignore", under="ignore"):
        s = num.s / den.s
    return sealed(q, s, num.precision)


# -- the oracle: one kernel call per op --------------------------------------


def quantize_const(value, like, session, module, min_payload=0):
    r = np.broadcast_to(np.float64(value), like.shape)
    t = session.quantize(r, like.s, like.precision, module)
    if min_payload and np.any(t.x < min_payload):
        t = scaled(np.maximum(t.x, min_payload), t.s, t.precision)
    return t


def fit_zero_groups(t, value, limit):
    """t with the scale of each all-zero group whose constant round(value * s)
    would leave the lane set to limit / |value|; zeros are exact at any scale."""
    s = t.s.copy()
    with np.errstate(over="ignore"):
        over = np.abs(np.rint(np.float64(value) * s)) >= LANE_MAX
    nonzero = np.zeros(s.shape, bool)
    for idx, x in np.ndenumerate(t.x):
        nonzero[tuple(i if n > 1 else 0 for i, n in zip(idx, s.shape))] |= x != 0
    refit = over & ~nonzero
    if not refit.any():
        return t
    s[refit] = limit / abs(value)
    return scaled(t.x, s, t.precision)


def oracle_poly(scores, pp, degree, session, module="Attn"):
    limit = (1 << scores.precision) - 1
    x = fit_zero_groups(scores, pp.bias, limit)
    x = step(session, exact_add, [x, quantize_const(pp.bias, x, session, module)], module)
    x = step(session, exact_relu, [x], module)
    x = step(session, exact_pow_n, [x], module, n=degree)
    x = fit_zero_groups(x, abs(pp.offset), limit)
    min_payload = 1 if pp.offset != 0.0 else 0
    d_q = quantize_const(abs(pp.offset), x, session, module, min_payload)
    return step(session, exact_add, [x, d_q], module)


def oracle_poly_attention(q, k, v, pp, degree, d_m, session, module="Attn"):
    scores = step(session, exact_matmul, [q, k], module)
    session.note("scale_fold", SCALE, scores.s.size, module)
    with np.errstate(over="ignore"):
        folded = scores.s * math.sqrt(d_m)
    scores = scaled(scores.x, folded, scores.precision)
    weights = scale_match_dim(oracle_poly(scores, pp, degree, session, module), -1)
    num = step(session, exact_matmul, [weights, K.transpose(v, (1, 0))], module, allow_rescale=False)
    den = step(session, exact_sum, [weights], module, allow_rescale=False)
    lam = max(1, (1 << 60) // (max(num.max_magnitude, 1) + 1))
    if lam > 1:
        session.note("boost", PAYLOAD, num.x.size, module)
        with np.errstate(over="ignore"):
            boosted = num.s * lam
        num = scaled(num.x * lam, boosted, num.precision)
    return step(session, exact_int_div, [num, den], module)


def oracle_ffn(y, lp, session):
    h = step(session, exact_matmul, [y, lp.w1], FFN)
    h = step(session, exact_add, [h, widened(lp.b1, h.shape)], FFN)
    h = step(session, exact_relu, [h], FFN)
    h = step(session, exact_matmul, [h, lp.w2], FFN)
    return step(session, exact_add, [h, widened(lp.b2, h.shape)], FFN)


def outcome(fn, session=None):
    """Everything observable about one run: the result or the error type,
    and the audit records it appended."""
    session = Session() if session is None else session
    start = len(session.log.records)
    try:
        out = fn(session)
    except (IntflowError, ValueError) as e:
        return type(e).__name__, repr(session.log.records[start:])
    return (
        out.x.dtype.str, out.x.tolist(), out.precision,
        out.s.shape, out.s.tobytes(), repr(session.log.records[start:]),
    )


# -- inputs ------------------------------------------------------------------

PRECISIONS = [5, 7, 12]
DEGREES = [1, 2, 3]


@st.composite
def operand(draw, shape, p, per_element, big, tame=False):
    """A payload in the logical range, or (big) one that forces the int64
    route or the lane guard; a per-row or per-element scale, only ordinary
    ones when `tame`."""
    limit = (1 << p) - 1
    if big:
        ints = st.integers(-limit, limit) | st.integers(2**24, 2**30) | st.integers(-(2**30), -(2**24))
    else:
        ints = st.integers(-limit, limit)
    n = shape[0] * shape[1]
    x = np.reshape(draw(st.lists(ints, min_size=n, max_size=n)), shape)
    scale_shape = shape if per_element else (shape[0], 1)
    # Mostly ordinary scales; else ones so large that a quantized constant
    # passes 2^53 (int64 route), 2^62 (lane guard) or the float range.
    ordinary = st.floats(2.0**-8, 2.0**12)
    scales = ordinary if tame else draw(st.sampled_from(
        [ordinary] * 4 + [st.floats(1e15, 1e20), st.floats(1e100, 1e160)]
    ))
    m = int(np.prod(scale_shape))
    s = np.reshape(draw(st.lists(scales, min_size=m, max_size=m)), scale_shape)
    return scaled(x, s, p)


@st.composite
def bias(draw, n, p, big):
    """A rank-1 payload with one scale, as the model's biases are stored."""
    limit = (1 << p) - 1
    ints = st.integers(-limit, limit) | st.integers(2**24, 2**30) if big else st.integers(-limit, limit)
    x = draw(st.lists(ints, min_size=n, max_size=n))
    scale = draw(draw(st.sampled_from([st.floats(2.0**-8, 2.0**12)] * 4 + [st.floats(1e15, 1e20)])))
    return scaled(x, [scale], p)


poly_params = st.builds(
    PolyParams,
    bias=st.floats(-2.0, 2.0, width=32),
    offset=st.sampled_from([0.0, 0.1, -0.2]) | st.floats(-0.5, 0.5, width=32),
)


class TestLaneMatchesKernels:
    # A shrink moves a payload to its lane's precision, the operands' p.
    @given(st.data(), st.sampled_from(PRECISIONS), st.booleans(), st.booleans(), poly_params,
           st.sampled_from(DEGREES))
    @settings(max_examples=300, deadline=None)
    def test_poly(self, data, p, per_element, big, pp, degree):
        T, n = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 5))
        scores = data.draw(operand((T, n), p, per_element, big))
        got = outcome(lambda sess: poly(scores, pp, degree, sess))
        assert got == outcome(lambda sess: oracle_poly(scores, pp, degree, sess))

    @given(st.data(), st.sampled_from(PRECISIONS), st.booleans(), st.booleans(), poly_params,
           st.sampled_from(DEGREES))
    @settings(max_examples=300, deadline=None)
    def test_poly_attention(self, data, p, per_element, big, pp, degree):
        T, d_h = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 4))
        q, k = (data.draw(operand((T, d_h), p, per_element, big)) for _ in range(2))
        v = data.draw(operand((T, d_h), p, per_element, False))
        d_m = d_h * data.draw(st.sampled_from([1, 2, 8]))
        got = outcome(lambda sess: attention(q, k, K.transpose(v, (1, 0)), pp, degree, d_m, sess))
        assert got == outcome(lambda sess: oracle_poly_attention(q, k, v, pp, degree, d_m, sess))


    @given(st.data(), st.sampled_from(PRECISIONS), st.booleans(), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_ffn_core(self, data, p, per_element, big):
        T, d, f = (data.draw(st.integers(1, 5)) for _ in range(3))
        y = data.draw(operand((T, d), p, per_element, big))
        lp = SimpleNamespace(
            w1=data.draw(operand((f, d), p, data.draw(st.booleans()), big)),
            b1=data.draw(bias(f, p, big)),
            w2=data.draw(operand((d, f), p, data.draw(st.booleans()), False)),
            b2=data.draw(bias(d, p, False)),
        )
        got = outcome(lambda sess: ffn_core(y, lp, sess))
        assert got == outcome(lambda sess: oracle_ffn(y, lp, sess))

    @given(st.data(), st.sampled_from(PRECISIONS), st.booleans(), st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_sealed_projection(self, data, p, per_element, big):
        # The output projection: a lane shrunk in place and sealed, as matmul.
        T, d, n = (data.draw(st.integers(1, 5)) for _ in range(3))
        a = data.draw(operand((T, d), p, per_element, big))
        w = data.draw(operand((n, d), p, False, big))
        got = outcome(lambda s: s.apply(K.matmul, [a, w], PROJ, ws=s.workspace).seal())
        assert got == outcome(lambda s: step(s, exact_matmul, [a, w], PROJ))


class TestLaneRoutes:
    """Pinned cases: each route and each error the property test draws."""

    @staticmethod
    def same(fn, oracle):
        got = outcome(fn)
        assert got == outcome(oracle)
        return got

    def test_per_element_weights_take_the_float_lane(self):
        rng = np.random.default_rng(0)
        q, k, v = (scaled(rng.integers(-4095, 4096, (8, 4)), rng.uniform(1, 9, (8, 4)), 12)
                   for _ in range(3))
        pp = PolyParams(bias=0.5, offset=0.1)
        got = self.same(lambda s: attention(q, k, K.transpose(v, (1, 0)), pp, 3, 16, s),
                        lambda s: oracle_poly_attention(q, k, v, pp, 3, 16, s))
        assert got[0] == "<i8"
        assert "'rescale'" in got[-1]

    def test_product_above_2_53_takes_int64(self):
        # 2^27 * 2^27 * 2 = 2^55: Q.K^T leaves the float64-exact range.
        q = scaled([[2**27, 2**27]], [[1.0]], 12)
        k = scaled([[2**27, -(2**27) + 1], [5, 7]], [[1.0], [1.0]], 12)
        v = scaled([[3], [4]], [[1.0], [1.0]], 12)
        pp = PolyParams(bias=0.5, offset=0.1)
        self.same(lambda s: attention(q, k, K.transpose(v, (1, 0)), pp, 2, 4, s),
                  lambda s: oracle_poly_attention(q, k, v, pp, 2, 4, s))

    def test_constant_above_2_53_takes_int64(self):
        # bias * s = 1e17 > 2^53: the first add runs in int64.
        scores = scaled([[100, -7], [3, 0]], [[1e17], [2e17]], 7)
        pp = PolyParams(bias=1.0, offset=0.25)
        self.same(lambda s: poly(scores, pp, 3, s), lambda s: oracle_poly(scores, pp, 3, s))

    def test_constant_sum_above_2_53_is_exact(self):
        # -1 + 2^56 = 127 * j shrinks to exactly 127 at p=7; float64 would
        # round the sum up to 2^56 and shrink it to 126.
        scores = scaled([[-1]], [[2.0**56]], 7)
        pp = PolyParams(bias=1.0, offset=0.0)
        got = self.same(lambda s: poly(scores, pp, 1, s), lambda s: oracle_poly(scores, pp, 1, s))
        assert got[1] == [[127]]

    def test_power_above_2_53_takes_int64(self):
        # 32767^4 > 2^53, and float64 would round it: x^4 runs in int64.
        scores = scaled([[32767, -32767, 32766], [12345, 0, -1]], [[1.0], [0.5]], 15)
        pp = PolyParams(bias=0.0, offset=0.1)
        self.same(lambda s: poly(scores, pp, 4, s), lambda s: oracle_poly(scores, pp, 4, s))

    def test_scores_above_2_53_take_int64(self):
        scores = scaled([[2**60, -(2**55) - 3], [2**53 + 1, 1]], [[1.0, 2.0], [3.0, 4.0]], 12)
        pp = PolyParams(bias=0.5, offset=0.0)
        self.same(lambda s: poly(scores, pp, 1, s), lambda s: oracle_poly(scores, pp, 1, s))

    def test_constant_refits_an_all_zero_group(self):
        # 1.0 * 1e19 leaves the lane, but only at a zero payload, whose scale
        # drops to 127 / 1.0; a nonzero payload there would raise.
        scores = scaled([[0, 5], [-3, 0]], [[1e19, 2.0], [3.0, 4.0]], 7)
        pp = PolyParams(bias=1.0, offset=0.25)
        got = self.same(lambda s: poly(scores, pp, 3, s), lambda s: oracle_poly(scores, pp, 3, s))
        assert got[0] == "<i8"
        weights = np.frombuffer(got[4]).reshape(2, 2) ** -1 * np.array(got[1])
        assert weights[0, 0] == pytest.approx(1.25, rel=0.02)

    def test_constant_sum_overflow_raises(self):
        # 2^61 + 1.0 * 2^61 = 2^62 leaves the accumulator lane.
        scores = scaled([[2**61]], [[2.0**61]], 7)
        pp = PolyParams(bias=1.0)
        got = self.same(lambda s: poly(scores, pp, 3, s), lambda s: oracle_poly(scores, pp, 3, s))
        assert got[0] == LaneOverflowError.__name__

    def test_shrink_underflow_raises(self):
        # The smallest subnormal scale, divided by ceil(4095 / 127) = 33, is 0.
        scores = scaled([[4095]], [[5e-324]], 7)
        got = self.same(lambda s: poly(scores, PolyParams(), 3, s),
                        lambda s: oracle_poly(scores, PolyParams(), 3, s))
        assert got[0] == ScaleRangeError.__name__

    @pytest.mark.parametrize("case, error", [
        ("product", LaneOverflowError),
        ("constant", LaneOverflowError),
        ("power", ScaleRangeError),
        ("fold", ScaleRangeError),
    ])
    def test_errors_match(self, case, error):
        pp = PolyParams(bias=0.0 if case == "power" else 1.0, offset=0.1)
        if case == "product":  # 2^31 * 2^31 * 2 = 2^63
            q = k = scaled([[2**31, 2**31]], [[1.0]], 7)
        elif case == "constant":  # bias * s = 1e19 > 2^62
            q = k = scaled([[1, 1]], [[3.2e9]], 7)
        elif case == "power":  # (1e60 * 1e60)^3 overflows
            q = k = scaled([[1, 1]], [[1e60]], 7)
        else:  # 1e154 * 1e154 * sqrt(16) overflows
            q = k = scaled([[1]], [[1e154]], 7)
        v = scaled([[1] * q.shape[1]], [[1.0]], 7)
        got = self.same(lambda s: attention(q, k, K.transpose(v, (1, 0)), pp, 3, 16, s),
                        lambda s: oracle_poly_attention(q, k, v, pp, 3, 16, s))
        assert got[0] == error.__name__


class TestHeadsMatchedOncePerLayer:
    """attn_core matches Q and K along each head's columns, and V along the
    sequence, once for all heads (_match_heads).  Each head's attention must
    be the one it computes on its own plain column block, which its Q.K^T
    and value product then match themselves."""

    @staticmethod
    def per_head(q, k, v, heads, pp, degree):
        """Each head's outcome on the per-layer matched operands, and on plain
        column blocks."""
        d_m = q.shape[1]
        d_h = d_m // heads
        ws = Workspace()
        blocks = [_match_heads(lane_of(t, ws), heads, axis) for t, axis in ((q, -1), (k, -1), (v, 0))]
        got, want = [], []
        for h in range(heads):
            qh, kh, vh_t = (_head_rows(b, h, h + 1) for b in blocks)
            assert qh.s.flags.c_contiguous and kh.s.flags.c_contiguous
            sl = slice(h * d_h, (h + 1) * d_h)
            qp, kp, vp = (slice_cols(t, sl) for t in (q, k, v))
            got.append(outcome(lambda s: attention(qh, kh, vh_t, pp, degree, d_m, s)))
            want.append(outcome(
                lambda s: attention(qp, kp, K.transpose(vp, (1, 0)), pp, degree, d_m, s)))
        return got, want

    @given(st.data(), st.sampled_from(PRECISIONS), st.sampled_from([1, 2, 8]), poly_params,
           st.sampled_from(DEGREES))
    @settings(max_examples=150, deadline=None)
    def test_each_head_as_on_its_own_block(self, data, p, heads, pp, degree):
        T, d_h = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 3))
        q, k, v = (
            data.draw(operand((T, heads * d_h), p, data.draw(st.booleans()), False))
            for _ in range(3)
        )
        got, want = self.per_head(q, k, v, heads, pp, degree)
        assert got == want

    def test_bound_from_match_float_max_is_refused(self):
        # Head 0 alone is matched, rounding 1 * (1 - 2^-53) up to 1; head
        # 1's 2^23 reaches MATCH_FLOAT_MAX, so the match of the whole
        # tensor, and of all heads at once, refuses it.
        big = 2**23
        q = scaled([[1, 1, big, 1], [1, 1, 1, 1]], [[1.0, 1 - 2.0**-53, 1.0, 2.0], [2.0] * 4], 12)
        assert q.max_bound >= MATCH_FLOAT_MAX
        with pytest.raises(PrecisionError, match="not below"):
            scale_match_dim(viewed(q, q.x.reshape(2, 2, 2), q.s.reshape(2, 2, 2)), -1)
        assert scale_match_dim(slice_cols(q, slice(0, 2)), -1).x.tolist() == [[1, 1], [1, 1]]
        for axis in (0, -1):
            with pytest.raises(PrecisionError, match="not below"):
                _match_heads(lane_of(q, Workspace()), 2, axis)

    @given(st.integers(1, 6), st.integers(1, 6), st.booleans(), st.booleans(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_matmul_scale_is_the_gemm_of_inner_length_one(self, m, n, per_row_a, per_row_b, data):
        # The scale is formed by a broadcast multiply; a GEMM of inner length
        # 1 gives the same bits, per-tensor (1, 1) scales included.  Products
        # reach down into the subnormals and up to 2^1022, never 0 or inf,
        # which the lane's scale check refuses.
        scales = st.floats(2.0**-537, 2.0**511) | st.sampled_from([2.0**-537, 1.0, 2.0**511])
        sa, sb = (
            np.reshape(data.draw(st.lists(scales, min_size=r, max_size=r)), (r, 1))
            for r in (m if per_row_a else 1, n if per_row_b else 1)
        )
        a = scaled(np.ones((m, 2), np.int64), sa, 7)
        b_t = scaled(np.ones((n, 2), np.int64), sb, 7)
        lane = K.matmul(a, b_t, Workspace())
        with np.errstate(under="ignore"):
            want = np.matmul(sa, sb.T)
        assert lane.s.shape == want.shape
        assert lane.s.tobytes() == want.tobytes()


def test_every_audited_kernel_runs_through_protocol_apply(monkeypatch):
    # One protocol_apply call per payload record of a forward (gather and
    # boost are notes): the lane's in-place steps go through it too.
    calls = []
    apply = scaling.protocol_apply

    def counting(kernel, *args, **kwargs):
        calls.append(kernel.kind)
        return apply(kernel, *args, **kwargs)

    monkeypatch.setattr(scaling, "protocol_apply", counting)
    cfg = ModelConfig(d_m=16, heads=2, d_ff=32, n_layers=1, vocab=50, precision=7)
    session = Session()
    forward(quantize_model(random_reference_model(cfg, seed=0)), session, tokens=np.arange(9))
    kinds = [r.kind for r in session.log.payload_records() if r.kind not in ("gather", "boost")]
    assert calls == kinds


@pytest.mark.parametrize("precision, degree", [(7, 3), (12, 2), (5, 1)])
def test_a_nonneg_match_sees_no_negative_payload(monkeypatch, precision, degree):
    # A lane that holds no negative payload is matched without |x| and x's
    # sign (the attention weights, the FFN hidden after ReLU): in a forward,
    # every such match must see one, or its result would be wrong.
    seen = []
    match = scaling._match_payload

    def checking(x, s, s_bar, x_max, ws=None, out=None, nonneg=False):
        if nonneg:
            seen.append(bool((x >= 0).all()))
        return match(x, s, s_bar, x_max, ws, out, nonneg)

    monkeypatch.setattr(scaling, "_match_payload", checking)
    cfg = ModelConfig(d_m=16, heads=2, d_ff=32, n_layers=2, vocab=50, precision=precision, degree=degree)
    model = quantize_model(random_reference_model(cfg, seed=1))
    forward(model, Session(), tokens=np.arange(12) % cfg.vocab)
    assert seen and all(seen)


def test_nonneg_follows_the_steps_that_keep_it():
    # ReLU and an even power set it, a shrink and a match keep it, and a
    # step that may make a payload negative clears it: the match after that
    # step must restore the sign, truncating -1.5 to -1, not flooring it to -2.
    # The lane is at 2 bits, so the shrink moves its payload.
    ws = Workspace()
    lane = Lane(ws.copy(np.array([[1, 7]])), ws.copy(np.array([[2.0, 1.0]])), 2, ws, 7)
    assert not lane.nonneg
    assert K.relu(lane).nonneg
    K.lane_add(lane, c=np.array([[-4.0, -4.0]]), c_max=4)
    assert not lane.nonneg and lane.x.tolist() == [[-3.0, 3.0]]
    lane.match_last()
    assert lane.x.tolist() == [[-1.0, 3.0]] and not lane.nonneg
    assert K.pow_n(lane, n=2).nonneg and lane.x.tolist() == [[1.0, 9.0]]
    lane.match_last()
    assert lane.nonneg
    # A nonnegative constant keeps it, as the attention's offset after the
    # power does; one negative value of the constant clears it.
    K.lane_add(lane, c=np.array([[2.0]]), c_max=2)
    assert lane.nonneg and lane.x.tolist() == [[3.0, 11.0]]
    assert scaling.rescale(lane).nonneg
    K.lane_add(lane, c=np.array([[0.0, -1.0]]), c_max=1)
    assert not lane.nonneg
    assert not K.pow_n(lane_of(scaled([[-2, 3]], [[1.0]], 7), ws), n=3).nonneg
    # A nonnegative constant on a lane that may hold a negative payload
    # leaves it cleared.
    signed = lane_of(scaled([[-2, 3]], [[1.0]], 7), ws)
    K.lane_add(signed, c=np.array([[1.0]]), c_max=1)
    assert not signed.nonneg and signed.x.tolist() == [[-1.0, 4.0]]


class TestGroupedHeads:
    """attend_heads runs `group` heads per poly_attention call, on operands
    stacked head by head along the rows, and writes each group's quotients
    into one (T, heads*d_h) lane.  Its payload and scale must be
    np.concatenate of every head's lone oracle run, bit for bit, and it must
    refuse exactly where some head's lone run is refused."""

    @staticmethod
    def stack(parts):
        """Per-head operands as _match_heads lays them out: payloads and
        scales stacked head first."""
        return scaled(np.stack([t.x for t in parts]), np.stack([t.s for t in parts]), parts[0].precision)

    @staticmethod
    def grouped(blocks, heads, group, pp, degree, d_m):
        session = Session()
        try:
            lane = attend_heads(*blocks, group, pp, degree, d_m, session)
        except (IntflowError, ValueError):
            return "refused"
        out = lane.seal()
        return out.precision, out.x.tolist(), out.s.shape, out.s.tobytes()

    @staticmethod
    def lone_heads(blocks, heads, pp, degree, d_m):
        """np.concatenate of each head's oracle run along the columns; each
        scale is broadcast over its head's block first, as concat does."""
        outs = []
        for h in range(heads):
            qh, kh, v_th = (_head_rows(b, h, h + 1) for b in blocks)
            try:
                outs.append(oracle_poly_attention(qh, kh, K.transpose(v_th, (1, 0)), pp, degree, d_m,
                                                  Session()))
            except (IntflowError, ValueError):
                return "refused"
        rows, d_h = max(o.s.shape[0] for o in outs), outs[0].shape[1]
        scale = np.concatenate([np.broadcast_to(o.s, (rows, d_h)) for o in outs], axis=1)
        payload = np.concatenate([o.x for o in outs], axis=1)
        return outs[0].precision, payload.tolist(), scale.shape, scale.tobytes()

    @given(st.data(), st.sampled_from([(1, 1), (2, 2), (3, 2), (4, 3), (5, 2), (4, 4), (3, 1)]),
           st.sampled_from(PRECISIONS), poly_params, st.sampled_from(DEGREES))
    @settings(max_examples=200, deadline=None)
    def test_output_lane_is_the_heads_concatenated(self, data, heads_group, p, pp, degree):
        heads, group = heads_group
        T = data.draw(st.sampled_from([1, 1, 2, 3, 5]))
        d_h = data.draw(st.integers(1, 3))
        q_elem, k_elem, v_elem = (data.draw(st.booleans()) for _ in range(3))
        # Mostly ordinary scales: a wild one in any head refuses the group.
        tame = data.draw(st.sampled_from([True, True, True, False]))
        q = [data.draw(operand((T, d_h), p, q_elem, False, tame)) for _ in range(heads)]
        k = [data.draw(operand((T, d_h), p, k_elem, False, tame)) for _ in range(heads)]
        v_t = [data.draw(operand((d_h, T), p, v_elem, data.draw(st.booleans()), tame)) for _ in range(heads)]
        # A head whose value sum may pass 2^59, where its lam is 1; the
        # product guard, T * (2^p - 1) * max|v|, stays below the lane.
        huge = data.draw(st.none() | st.integers(0, heads - 1))
        if huge is not None:
            top = (LANE_MAX - 1) // (T * ((1 << p) - 1))
            vs = data.draw(st.lists(st.integers(top // 2, top) | st.integers(-top, -(top // 2)),
                                    min_size=d_h * T, max_size=d_h * T))
            v_t[huge] = scaled(np.reshape(vs, (d_h, T)), v_t[huge].s, p)
        d_m = d_h * heads
        blocks = [self.stack(parts) for parts in (q, k, v_t)]
        got = self.grouped(blocks, heads, group, pp, degree, d_m)
        assert got == self.lone_heads(blocks, heads, pp, degree, d_m)

    def test_a_head_whose_lam_is_1_keeps_its_bits(self):
        # Head 0's value sum passes 2^59, so it is not boosted; head 1's is,
        # in the same group, by its own lam.
        p, T = 7, 1
        q = [scaled([[100]], [[1.0]], p), scaled([[3]], [[1.0]], p)]
        k = [scaled([[90]], [[1.0]], p), scaled([[5]], [[1.0]], p)]
        v_t = [scaled([[2**55 - 1]], [[1.0]], p), scaled([[7]], [[1.0]], p)]
        blocks = [self.stack(parts) for parts in (q, k, v_t)]
        pp = PolyParams(bias=0.5, offset=0.1)
        session = Session()
        attend_heads(*blocks, 2, pp, 3, 2, session).release()
        boosts = [r for r in session.log.records if r.kind == "boost"]
        assert [r.elements for r in boosts] == [1]  # one of the two heads
        assert self.grouped(blocks, 2, 2, pp, 3, 2) == self.lone_heads(blocks, 2, pp, 3, 2)

    def test_a_scale_collapsed_along_a_heads_rows_runs_heads_alone(self):
        # One scale row per head cannot be told apart in a stack of heads.
        T, heads, d_h = 4, 2, 2
        def blocks(rows, cols, scale_rows):
            return scaled(np.ones((heads, rows, cols), np.int64), np.ones((heads, scale_rows, 1)))

        q, v_t = blocks(T, d_h, T), blocks(d_h, T, d_h)
        assert _group_size(q, q, v_t) == heads
        assert _group_size(blocks(T, d_h, 1), q, v_t) == 1
        assert _group_size(q, q, blocks(d_h, T, 1)) == 1
        assert transformer.ATTN_GROUP_ELEMENTS // (T * T) >= heads

    # A scale layout of a (T, heads*d_h) projection: per element and per row
    # the heads stack; per column and per tensor they are collapsed along
    # their rows (Q and K) or, for V, along the sequence.
    LAYOUTS = {"element": lambda T, n: (T, n), "row": lambda T, n: (T, 1),
               "column": lambda T, n: (1, n), "tensor": lambda T, n: (1, 1)}

    @staticmethod
    def outcome_and_sums(fn):
        """fn(session)'s lane sealed, or its error type, with the audit
        elements summed per (kind, lane, module)."""
        session = Session()
        try:
            out = fn(session)
        except (IntflowError, ValueError) as e:
            return type(e).__name__, None
        if isinstance(out, list):  # lone heads: their columns side by side
            rows, d_h = max(o.s.shape[0] for o in out), out[0].shape[1]
            x = np.concatenate([o.x for o in out], axis=1)
            s = np.concatenate([np.broadcast_to(o.s, (rows, d_h)) for o in out], axis=1)
        else:
            out = out.seal()
            x, s = out.x, out.s
        sums = {}
        for r in session.log.records:
            sums[r.kind, r.lane, r.module] = sums.get((r.kind, r.lane, r.module), 0) + r.elements
        return (x.dtype.str, x.tobytes(), s.shape, s.tobytes()), sums

    @given(st.data(), st.sampled_from([2, 4, 8]), st.sampled_from(PRECISIONS), poly_params,
           st.sampled_from(DEGREES))
    @settings(max_examples=150, deadline=None)
    def test_stacked_division_is_each_head_alone(self, data, heads, p, pp, degree):
        # With the group budget cut so that G < H, each group's sums are
        # stacked and divided once; every head must come out as in the G = H
        # run and as in its own run, and every op's audited elements must
        # sum the same.  Heads collapsed along their rows divide alone.
        T, d_h = data.draw(st.integers(1, 8)), data.draw(st.integers(1, 3))
        d_m = heads * d_h
        operands = []
        for _ in range(3):
            shape = self.LAYOUTS[data.draw(st.sampled_from(sorted(self.LAYOUTS)))](T, d_m)
            x = np.reshape(data.draw(st.lists(st.integers(-(1 << p) + 1, (1 << p) - 1),
                                              min_size=T * d_m, max_size=T * d_m)), (T, d_m))
            s = np.reshape(data.draw(st.lists(st.floats(2.0**-8, 2.0**12), min_size=math.prod(shape),
                                              max_size=math.prod(shape))), shape)
            operands.append(scaled(x, s, p))
        ws = Workspace()
        blocks = [_match_heads(lane_of(t, ws), heads, axis) for t, axis in zip(operands, (-1, -1, 0))]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(transformer, "ATTN_GROUP_ELEMENTS", data.draw(st.integers(1, heads - 1)) * T * T)
            group = _group_size(*blocks)
        assert group < heads
        got = self.outcome_and_sums(lambda s: attend_heads(*blocks, group, pp, degree, d_m, s))
        lone = self.outcome_and_sums(lambda s: [
            attention(*(_head_rows(b, h, h + 1) for b in blocks), pp, degree, d_m, s) for h in range(heads)])
        assert got == lone
        if _stacks(*blocks):
            assert got == self.outcome_and_sums(lambda s: attend_heads(*blocks, heads, pp, degree, d_m, s))
        else:
            assert group == 1

    def test_a_stack_is_held_by_every_part_written(self):
        # A float64 group first, then one whose value sum passes 2^53: the
        # stack moves to int64 before the second is written, so it holds
        # 2^53 + 1 exactly; a float64 stack would round it to 2^53.
        ws = Workspace()
        small = Lane(ws.copy(np.array([[3, -4]])), ws.copy(np.array([[1.0, 2.0]])), 7, ws, 4)
        big = Lane(ws.copy(np.array([[2**53 + 1, 5]]), np.int64), ws.copy(np.array([[4.0, 8.0]])), 7, ws,
                   2**53 + 1)
        stack = transformer._stack(None, small, 0, 2)
        assert stack.x.dtype == np.float64
        stack = transformer._stack(stack, big, 1, 2)
        assert stack.x.dtype == np.int64 and stack.x.tolist() == [[3, -4], [2**53 + 1, 5]]
        assert stack.s.tolist() == [[1.0, 2.0], [4.0, 8.0]]
        assert (stack.max_bound, stack.lo, stack.hi, stack.blocks) == (2**53 + 1, 1.0, 8.0, 2)

    def test_no_division_per_group_where_the_heads_stack(self, monkeypatch):
        # longctx's shape, one head per group: 8 poly_attention calls and one
        # division per layer, whose records each cover all eight heads.
        cfg = ModelConfig(d_m=64, heads=8, d_ff=256, n_layers=1, vocab=256, precision=12)
        model = quantize_model(random_reference_model(cfg, seed=0))
        calls = []
        attend = transformer.poly_attention
        monkeypatch.setattr(transformer, "poly_attention",
                            lambda *args, **kwargs: calls.append(kwargs["groups"]) or attend(*args, **kwargs))
        session = Session()
        forward(model, session, tokens=np.arange(256) % cfg.vocab)
        assert calls == [1] * cfg.heads
        divisions = [r for r in session.log.records if r.kind == "int_div" and r.module == "Attn"]
        assert [r.elements for r in divisions] == [256 * cfg.d_m] * 2  # payload and scale

    @pytest.mark.parametrize("cfg, seq_len", [
        (ModelConfig(), 16),
        (ModelConfig(d_m=24, heads=3, d_ff=32, precision=12, degree=2), 9),
        (ModelConfig(d_m=64, heads=8, d_ff=256, n_layers=2, vocab=256, precision=12), 64),
    ])
    def test_group_size_changes_no_bit(self, monkeypatch, cfg, seq_len):
        # Every head alone (N = 0), two at a time, and the budget's own
        # grouping give the same logits, and the same audited elements per
        # op, shrinks too: a group's shrink counts only the heads it moved.
        model = quantize_model(random_reference_model(cfg, seed=4))
        tokens = np.random.default_rng(5).integers(0, cfg.vocab, seq_len)
        runs = []
        for budget in (0, 2 * seq_len * seq_len, transformer.ATTN_GROUP_ELEMENTS):
            monkeypatch.setattr(transformer, "ATTN_GROUP_ELEMENTS", budget)
            session = Session()
            out = forward(model, session, tokens=tokens)
            sums = {}
            for r in session.log.records:
                sums[r.kind, r.lane, r.module] = sums.get((r.kind, r.lane, r.module), 0) + r.elements
            runs.append((out.x.tobytes(), out.s.tobytes(), sums))
        assert runs[0] == runs[1] == runs[2]


class TestWorkspace:
    """The session's scratch arrays: reused, never shared with a result."""

    @staticmethod
    def held(session):
        return [a for stack in session.workspace._free.values() for a in stack]

    @pytest.mark.parametrize("cfg, seq_len", [
        (ModelConfig(), 16),
        (ModelConfig(precision=12), 16),
        (ModelConfig(d_m=64, heads=8, d_ff=256, n_layers=2, vocab=256, precision=12), 256),
    ])
    def test_no_result_shares_a_held_buffer(self, monkeypatch, cfg, seq_len):
        # Every sealed result, and the forwards' and poly's own.
        results = []
        seal = scaling.Lane.seal

        def collecting(lane):
            out = seal(lane)
            results.append(out)
            return out

        monkeypatch.setattr(scaling.Lane, "seal", collecting)
        model = quantize_model(random_reference_model(cfg, seed=1))
        session = Session()
        tokens = np.random.default_rng(2).integers(0, cfg.vocab, seq_len)
        for _ in range(2):
            results.append(forward(model, session, tokens=tokens))
        scores = results[0]
        results.append(poly(scores, model.layers[0].poly, cfg.degree, session))
        held = self.held(session)
        assert held
        for t in results:
            for arr in (t.x, t.s):
                assert not any(np.shares_memory(arr, buf) for buf in held)

    @pytest.mark.parametrize("seq_len", [64, 256])
    def test_no_quotient_lane_per_head_is_left(self, seq_len):
        # Each group's quotients go into the output lane and its buffers back
        # to the workspace before the next group runs, so a forward ends with
        # no (T, d_h) payload per head; it once ended with all eight.
        cfg = ModelConfig(d_m=64, heads=8, d_ff=256, n_layers=2, vocab=256, precision=12)
        model = quantize_model(random_reference_model(cfg, seed=0))
        session = Session()
        forward(model, session, tokens=np.arange(seq_len) % cfg.vocab)
        d_h = cfg.d_m // cfg.heads
        held = {dtype: len(session.workspace._free.get(((seq_len, d_h), dtype), []))
                for dtype in (np.int64, np.float64)}
        assert held[np.int64] <= 1 and held[np.float64] <= 2

    def test_held_buffers_stay_fixed_across_forwards(self):
        cfg = ModelConfig(d_m=16, heads=2, d_ff=32, n_layers=2, vocab=50, precision=12)
        model = quantize_model(random_reference_model(cfg, seed=0))
        session = Session()
        tokens = np.arange(12)

        def census():
            return sorted((str(k), len(v)) for k, v in session.workspace._free.items())

        forward(model, session, tokens=tokens)
        first = census()
        for _ in range(3):
            forward(model, session, tokens=tokens)
        assert census() == first

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_heads_back_to_back_match_fresh_sessions(self, data):
        # One session's workspace carries buffers from head to head, also
        # past a head that raised, and heads at different precisions; each
        # head must see what a fresh one sees.
        heads = []
        for _ in range(data.draw(st.integers(2, 4))):
            T, d_h = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 4))
            p_in = data.draw(st.sampled_from(PRECISIONS))
            per_element, big = data.draw(st.booleans()), data.draw(st.booleans())
            q, k = (data.draw(operand((T, d_h), p_in, per_element, big)) for _ in range(2))
            v = data.draw(operand((T, d_h), p_in, per_element, False))
            heads.append((q, k, v, data.draw(poly_params), data.draw(st.sampled_from(DEGREES)),
                          d_h * data.draw(st.sampled_from([1, 2, 8]))))
        shared = Session()
        for q, k, v, pp, degree, d_m in heads:
            fn = lambda s: attention(q, k, K.transpose(v, (1, 0)), pp, degree, d_m, s)  # noqa: E731
            assert outcome(fn, shared) == outcome(fn)

    def test_pinned_heads_back_to_back(self):
        # Every route and error of TestLaneRoutes, in turn on one session.
        rng = np.random.default_rng(0)
        big = scaled([[2**31, 2**31]], [[1.0]], 7)
        cases = [
            tuple(scaled(rng.integers(-127, 128, (8, 4)), rng.uniform(1, 9, (8, 4)), 7)
                  for _ in range(3)),
            (big, big, scaled([[1, 1]], [[1.0]], 7)),
            (scaled([[2**27, 2**27]], [[1.0]], 7), scaled([[2**27, -(2**27) + 1], [5, 7]], [[1.0], [1.0]], 7),
             scaled([[3], [4]], [[1.0], [1.0]], 7)),
            (scaled([[1]], [[1e154]], 7), scaled([[1]], [[1e154]], 7), scaled([[1]], [[1.0]], 7)),
            tuple(scaled(rng.integers(-127, 128, (8, 4)), rng.uniform(1, 9, (8, 1)), 7)
                  for _ in range(3)),
        ]
        pp = PolyParams(bias=0.5, offset=0.1)
        shared = Session()
        kinds = []
        for q, k, v in cases:
            fn = lambda s: attention(q, k, K.transpose(v, (1, 0)), pp, 2, 16, s)  # noqa: E731
            got = outcome(fn, shared)
            assert got == outcome(fn)
            kinds.append(got[0])
        assert LaneOverflowError.__name__ in kinds and ScaleRangeError.__name__ in kinds

    def test_fp32_paths_make_no_workspace(self, monkeypatch):
        # The session's workspace is made with it; an FP32 path takes no
        # buffer from it and gives none back.
        cfg = ModelConfig(d_m=16, heads=2, d_ff=32, n_layers=1, vocab=50)
        model = quantize_model(random_reference_model(cfg, seed=0))
        twin = reference_twin(model)

        def refuse(self, *args, **kwargs):
            raise AssertionError("a workspace buffer was taken")

        for method in ("take", "copy", "give"):
            monkeypatch.setattr(scaling.Workspace, method, refuse)
        tokens = np.arange(9)
        reference_forward(twin, tokens=tokens)
        session = Session()
        forward(model, session, tokens=tokens, int_modules=frozenset(), ref=twin)
        assert session.workspace._free == {}

    def test_workspace_is_made_with_its_session(self):
        # Neither the workspace nor the audit log is a constructor argument,
        # so no two sessions share either.
        with pytest.raises(TypeError):
            Session(workspace=scaling.Workspace())
        with pytest.raises(TypeError):
            Session(log=OpAuditLog())
        assert Session().workspace is not Session().workspace
        assert Session().log is not Session().log


class TestWorkspaceOwnership:
    """A Lane owns its buffers: no step seals one of them read-only while the
    lane holds it, and the workspace refuses a read-only array."""

    def test_a_read_only_array_is_refused(self):
        ws = Workspace()
        out = lane_of(scaled([[1, -2]], [[1.0, 2.0]], 7), ws).seal()
        for arr in (out.x, out.s):
            with pytest.raises(WorkspaceError):
                ws.give(arr)
        assert all(a.flags.writeable for stack in ws._free.values() for a in stack)

    def test_a_summed_lane_keeps_its_scale_and_seals(self):
        # The weight sum becomes the lane it sums, whose scale stays its own
        # and writable; sealing then hands every buffer back.
        ws = Workspace()
        lane = lane_of(scaled([[3, -4, 5], [1, 1, 1]], [[2.0, 1.0, 4.0], [1.0, 1.0, 1.0]], 7), ws)
        lane.match_last()
        assert K.sum_reduce(lane) is lane
        assert lane.s.flags.writeable
        out = lane.seal()
        assert out.x.tolist() == [[1 + -4 + 1], [3]]
        assert out.s.tolist() == [[1.0], [1.0]]
        assert all(a.flags.writeable for stack in ws._free.values() for a in stack)
