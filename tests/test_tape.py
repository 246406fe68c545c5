"""The building blocks of the hand-written gradients: the soft extrema
`stl.smax`/`smin` and their VJPs, the `params.ParamVector` layout, and the
finite-difference oracle `helpers.finite_diff_check` that every gradient
test checks against."""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stlmimic.inference import (
    InferenceParams,
    NetworkShape,
    init_inference,
    param_bounds,
    sigmoid,
    smooth_robustness,
)
from stlmimic.params import ParamVector, layout
from stlmimic.policy import PolicyParams, PolicyShape
from stlmimic.stl import EmptyInput, Eventually, Pred, TimeInterval, robustness, smax, smin

from helpers import NonFiniteValue, finite_diff_check


def smooth_max(vals, tau):
    return smax(np.asarray(vals, dtype=float), tau, axis=0)


def smooth_min(vals, tau):
    return smin(np.asarray(vals, dtype=float), tau, axis=0)


class TestPrimitives:
    def test_smooth_max_equal_values(self):
        assert smooth_max([2.0, 2.0], 1.0) == 2.0

    def test_smooth_max_low_temperature(self):
        assert smooth_max([1.0, 3.0], 0.01) == pytest.approx(3.0, abs=1e-6)

    def test_smooth_max_softmax_average(self):
        # (0*1 + 1*e) / (1 + e)
        expected = math.e / (1.0 + math.e)
        assert smooth_max([0.0, 1.0], 1.0) == pytest.approx(expected, abs=1e-12)

    def test_smooth_min_mirror(self):
        vals = [0.3, -1.2, 2.0]
        assert smooth_min(vals, 0.7) == pytest.approx(-smooth_max([-v for v in vals], 0.7), abs=1e-12)

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            smooth_max([], 0.5)
        with pytest.raises(EmptyInput):
            smooth_min([], 0.5)

    def test_nonpositive_temperature(self):
        with pytest.raises(ValueError):
            smooth_max([1.0], 0.0)

    @pytest.mark.parametrize("op", [smax, smin], ids=["smax", "smin"])
    @pytest.mark.parametrize("shape, axis", [((7,), 0), ((5, 8, 13), 2), ((5, 8, 13), 1)])
    def test_plain_path_equals_the_node_value(self, op, shape, axis):
        # the value-only path reuses one buffer; the path with a VJP keeps
        # the weights for it, and returns the same value bit for bit
        a = np.random.default_rng(4).normal(size=shape) * 3.0
        plain = op(a, 0.3, axis=axis)
        assert isinstance(plain, (np.ndarray, np.floating))
        value, grad = op(a, 0.3, axis=axis, vjp=True)
        assert np.array_equal(plain, value)
        assert grad(np.ones_like(value)).shape == a.shape

    def test_float_passthrough(self):
        # Without vjp every layer, and exact robustness, returns plain
        # arrays, and no closure that would keep its intermediates alive.
        rng = np.random.default_rng(2)
        shape = NetworkShape(n_pred=2, n_conj=1, horizon=3, dim=2)
        X = rng.uniform(-1, 1, size=(4, 4, 2))
        f = Eventually(TimeInterval(0, 2), Pred((1.0, -1.0), 0.2, ("x", "y")))
        outs = [
            smax(X, 0.5, axis=1),
            smin(X, 0.5, axis=1),
            robustness(X, f),
            smooth_robustness(X, init_inference(shape, rng), shape),
        ]
        assert all(type(o) is np.ndarray for o in outs)

    @pytest.mark.parametrize("op", [smax, smin], ids=["smax", "smin"])
    def test_vjp_matches_fd(self, op):
        rng = np.random.default_rng(8)
        weights = rng.normal(size=(3, 5))
        pv = ParamVector(a=rng.normal(size=(3, 4, 5)))
        assert finite_diff_check(
            lambda p: np.sum(op(p.a, 0.4, axis=1) * weights),
            lambda p: ParamVector(a=op(p.a, 0.4, axis=1, vjp=True)[1](weights)),
            pv,
        ) < 1e-8

    def test_sigmoid_stable(self):
        assert sigmoid(800.0) == 1.0
        assert sigmoid(-800.0) == pytest.approx(0.0, abs=1e-300)

    def test_bounds_convex_combination(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            vals = list(rng.uniform(-5, 5, size=rng.integers(1, 8)))
            for tau in (0.01, 0.1, 1.0, 10.0):
                sm = smooth_max(vals, tau)
                sn = smooth_min(vals, tau)
                assert min(vals) - 1e-12 <= sm <= max(vals) + 1e-12
                assert min(vals) - 1e-12 <= sn <= max(vals) + 1e-12
                assert sn <= sm + 1e-12

    def test_converges_monotonically_as_tau_shrinks(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            vals = list(rng.uniform(-3, 3, size=5))
            taus = (2.0, 1.0, 0.5, 0.1, 0.01, 1e-4)
            gaps = [max(vals) - smooth_max(vals, tau) for tau in taus]
            assert all(g >= -1e-12 for g in gaps)
            assert all(gaps[i] >= gaps[i + 1] - 1e-9 for i in range(len(gaps) - 1))
            assert gaps[-1] < 1e-4


class TestBackward:
    def test_unreachable_parameter_gets_zero(self):
        # A signal dimension that no predicate weighs gets a zero gradient,
        # not a missing one.
        rng = np.random.default_rng(6)
        shape = NetworkShape(n_pred=2, n_conj=1, horizon=4, dim=3)
        X = rng.uniform(-1, 1, size=(3, 5, 3))
        params = init_inference(shape, rng)
        params.pred_w[:, 1] = 0.0
        _, grad = smooth_robustness(X, params, shape, vjp=True)
        _, gX = grad(np.ones(3))
        assert gX.shape == X.shape
        assert np.all(gX[:, :, 1] == 0.0) and np.any(gX[:, :, [0, 2]] != 0.0)

    def test_deterministic_bit_identical(self):
        def build():
            rng = np.random.default_rng(42)
            shape = NetworkShape(n_pred=3, n_conj=2, horizon=6, dim=2)
            X = rng.uniform(-1, 1, size=(5, 7, 2))
            _, grad = smooth_robustness(X, init_inference(shape, rng), shape, vjp=True)
            g_params, gX = grad(rng.normal(size=5))
            return g_params.flatten().tolist(), gX.tolist()

        assert build() == build()


class TestFiniteDiff:
    def test_linear_is_exact(self):
        c = np.array([3.0, 1.0, -1.0])
        pv = ParamVector(w=np.array([1.0, -2.0, 0.5]))
        assert finite_diff_check(lambda p: p.w @ c + 2.0, lambda p: ParamVector(w=c), pv) < 1e-10

    def test_smooth_composite(self):
        # smax over rows of smin over columns, through both VJPs
        rng = np.random.default_rng(9)
        pv = ParamVector(w=rng.uniform(-1, 1, size=(3, 4)))

        def f(p):
            return smax(smin(p.w, 0.3, axis=1), 0.5, axis=0)

        def grad(p):
            rows, rows_grad = smin(p.w, 0.3, axis=1, vjp=True)
            _, top_grad = smax(rows, 0.5, axis=0, vjp=True)
            return ParamVector(w=rows_grad(top_grad(1.0)))

        assert finite_diff_check(f, grad, pv, h=1e-5) < 1e-4

    def test_relu_kink_skipped(self):
        pv = ParamVector(w=np.array([0.0, 1.0]))

        def f(p):
            return max(p.w[0], 0.0) + p.w[1] * 2.0

        # Kink coordinate is skipped; the smooth coordinate still checks out.
        assert finite_diff_check(f, lambda p: ParamVector(w=np.array([0.0, 2.0])), pv) < 1e-10

    def test_nonfinite_raises(self):
        pv = ParamVector(w=np.array([1.0]))
        with pytest.raises(NonFiniteValue):
            finite_diff_check(lambda p: p.w[0] * math.inf, lambda p: p, pv)

    def test_three_layer_matches_fd(self):
        rng = np.random.default_rng(21)
        pv = ParamVector(
            w1=rng.uniform(-1, 1, size=(3, 2)),
            w2=rng.uniform(-1, 1, size=(2, 3)),
            w3=rng.uniform(-1, 1, size=2),
        )
        x_in = rng.uniform(-1, 1, size=2)

        def f(p):
            return p.w3 @ sigmoid(p.w2 @ sigmoid(p.w1 @ x_in))

        def grad(p):
            h1 = sigmoid(p.w1 @ x_in)
            h2 = sigmoid(p.w2 @ h1)
            g2 = p.w3 * h2 * (1.0 - h2)
            g1 = (g2 @ p.w2) * h1 * (1.0 - h1)
            return ParamVector(w1=np.outer(g1, x_in), w2=np.outer(g2, h1), w3=h2)

        assert finite_diff_check(f, grad, pv, h=1e-5) < 1e-4


class TestParamVector:
    def test_flatten_roundtrip(self):
        pv = ParamVector(a=np.arange(6.0).reshape(2, 3), b=np.array([7.0]))
        flat = pv.flatten()
        assert flat.tolist() == [0, 1, 2, 3, 4, 5, 7]
        back = pv.with_flat(flat)
        for k in vars(pv):
            assert np.array_equal(getattr(back, k), getattr(pv, k))

    def test_with_flat_size_check(self):
        pv = ParamVector(a=np.zeros(3))
        with pytest.raises(ValueError):
            pv.with_flat(np.zeros(4))


NETWORK_SHAPES = st.builds(
    NetworkShape,
    n_pred=st.integers(1, 4),
    n_conj=st.integers(1, 3),
    horizon=st.integers(1, 6),
    dim=st.integers(1, 4),
)
MODEL_SHAPES = st.one_of(
    NETWORK_SHAPES,
    st.builds(PolicyShape, st.integers(1, 5), st.integers(1, 6), st.integers(1, 3)),
)
PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)


def model_params(shape, flat=None):
    """The parameter class of `shape`'s model, and parameters of that shape
    holding `flat` (zeros by default)."""
    cls = InferenceParams if isinstance(shape, NetworkShape) else PolicyParams
    zeros = cls(**{k: np.zeros(s) for k, s in cls.group_shapes(shape).items()})
    return cls, zeros if flat is None else zeros.with_flat(flat)


def flat_size(shape) -> int:
    return model_params(shape)[1].flatten().size


class TestParamLayout:
    """Each model's parameters are one type that flattens itself in field
    order, with its group shapes stated once in `group_shapes`."""

    @PROPERTY
    @given(shape=MODEL_SHAPES, seed=st.integers(0, 2**32 - 1))
    def test_with_flat_of_flatten_is_the_same_params_as_views(self, shape, seed):
        cls, p = model_params(shape)
        p = p.with_flat(np.random.default_rng(seed).normal(size=flat_size(shape)))
        shapes = cls.group_shapes(shape)
        assert list(vars(p)) == list(shapes) == [f.name for f in dataclasses.fields(cls)]
        flat = p.flatten()
        assert np.array_equal(flat, np.concatenate([getattr(p, k).ravel() for k in shapes]))
        for k, span in layout(shapes).items():
            assert np.array_equal(flat[span], getattr(p, k).ravel())
        q = p.with_flat(flat)
        assert type(q) is cls
        for k, want in shapes.items():
            assert getattr(q, k).shape == want
            assert np.array_equal(getattr(q, k), getattr(p, k))
            assert np.shares_memory(getattr(q, k), flat)
        for bad in (flat[:-1], np.append(flat, 0.0), flat[None]):
            with pytest.raises(ValueError):
                p.with_flat(bad)

    @PROPERTY
    @given(shape=MODEL_SHAPES, data=st.data())
    def test_from_jsonable_of_to_jsonable_is_the_identity(self, shape, data):
        n = flat_size(shape)
        values = data.draw(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=n, max_size=n))
        cls, p = model_params(shape, np.array(values))
        q = cls.from_jsonable(json.loads(json.dumps(p.to_jsonable())), cls.group_shapes(shape))
        assert type(q) is cls
        for k, a in vars(p).items():
            assert getattr(q, k).shape == a.shape and np.array_equal(getattr(q, k), a)

    @PROPERTY
    @given(shape=MODEL_SHAPES, data=st.data())
    def test_a_missing_misshaped_or_unknown_group_is_named(self, shape, data):
        cls, p = model_params(shape)
        shapes = cls.group_shapes(shape)
        name = data.draw(st.sampled_from(list(shapes)))
        good = p.to_jsonable()
        cases = [
            ({k: v for k, v in good.items() if k != name}, name),
            ({**good, name: np.append(getattr(p, name), 0.0).tolist()}, name),
            ({**good, name: [good[name]]}, name),
            ({**good, name: "x"}, name),
            ({**good, name: np.full(shapes[name], np.inf).tolist()}, name),
            ({**good, "bogus": [0.0]}, "bogus"),
        ]
        for doc, named in cases:
            with pytest.raises(ValueError, match=rf"\b{named}\b"):
                cls.from_jsonable(doc, shapes)
        with pytest.raises(ValueError):
            cls.from_jsonable([good], shapes)

    @PROPERTY
    @given(shape=NETWORK_SHAPES, pred_bound=st.floats(0.5, 5.0), gate_bound=st.floats(0.5, 10.0))
    def test_bounds_cover_every_parameter_in_field_order(self, shape, pred_bound, gate_bound):
        lo, hi = param_bounds(shape, pred_bound, gate_bound)
        assert lo.size == init_inference(shape, np.random.default_rng(0)).flatten().size == hi.size
        assert np.all(lo < hi)
        want = {
            "pred_w": (-pred_bound, pred_bound),
            "pred_b": (-pred_bound, pred_bound),
            "win_lo": (0.0, shape.horizon),
            "win_hi": (0.0, shape.horizon),
            "gate": (-gate_bound, gate_bound),
            "out_gate": (-gate_bound, gate_bound),
        }
        for k, span in layout(InferenceParams.group_shapes(shape)).items():
            assert np.all(lo[span] == want[k][0]) and np.all(hi[span] == want[k][1])

    @PROPERTY
    @given(shape=NETWORK_SHAPES)
    def test_atom_params_are_the_four_atom_groups(self, shape):
        shapes = InferenceParams.group_shapes(shape)
        atoms = ("pred_w", "pred_b", "win_lo", "win_hi")
        assert shape.n_atom_params == sum(math.prod(shapes[k]) for k in atoms)
        assert list(shapes)[: len(atoms)] == list(atoms)
