import math

import numpy as np
import pytest

from stlmimic import tape
from stlmimic.tape import (
    EmptyInput,
    Node,
    NonFiniteValue,
    ParamVector,
    backward,
    finite_diff_check,
    relu,
    sigmoid,
    smax,
    smin,
)


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
        # the plain path reuses one buffer; the tape path keeps w for its VJP
        a = np.random.default_rng(4).normal(size=shape) * 3.0
        plain = op(a, 0.3, axis=axis)
        assert not isinstance(plain, Node)
        assert np.array_equal(plain, op(Node(a), 0.3, axis=axis).value)

    def test_float_passthrough(self):
        # With no node operands every op returns a plain array and records nothing.
        before = next(tape._COUNTER)
        x = np.array([0.3, -0.2])
        outs = [
            sigmoid(x),
            relu(x),
            tape.sqrt(np.abs(x)),
            tape.stack([x, x], axis=1),
            tape.sum(x),
            smax(x, 0.5, axis=0),
            x @ np.array([3.0, 4.0]) + 5.0,
        ]
        assert not any(isinstance(o, Node) for o in outs)
        assert next(tape._COUNTER) == before + 1
        assert np.array([1.0, 2.0]) @ np.array([3.0, 4.0]) + 5.0 == 16.0

    def test_relu(self):
        assert relu(-1.0) == 0.0
        assert relu(2.5) == 2.5

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
    def test_square(self):
        x = Node(3.0)
        y = x * x
        backward(y)
        assert x.grad == 6.0

    def test_sigmoid_at_zero(self):
        x = Node(0.0)
        y = sigmoid(x)
        backward(y)
        assert y.value == 0.5
        assert x.grad == 0.25

    def test_unreachable_parameter_gets_zero(self):
        x = Node(3.0)
        z = Node(4.0)
        y = x * 2.0
        backward(y)
        assert z.grad == 0.0

    def test_shared_subexpression(self):
        x = Node(2.0)
        s = x * x  # 4
        y = s + s  # 8, dy/dx = 8
        backward(y)
        assert y.value == 8.0
        assert x.grad == 8.0

    def test_deterministic_bit_identical(self):
        def build():
            rng = np.random.default_rng(42)
            xs = Node(rng.uniform(-1, 1, size=20))
            h = smax(xs, 0.3, axis=0)
            g = smin(h * xs + sigmoid(xs), 0.5, axis=0)
            out = sigmoid(g) * (xs[:5] @ xs[5:10] + h)
            backward(out)
            return xs.grad.tolist()

        assert build() == build()

    def test_deep_chain_iterative(self):
        x = Node(0.1)
        y = x
        for _ in range(50_000):
            y = y + 1.0
        backward(y)
        assert x.grad == 1.0

    def test_cycle_detected(self):
        # A cycle forced past the ops cannot make the sweep loop: it sweeps
        # each node once, in reverse creation order, so the gradient sent
        # back along the late edge from x to y goes no further.
        x = Node(1.0)
        y = x + 1.0
        x._parents = (y,)  # sabotage: cycles cannot arise through the ops
        x._vjp = lambda g: (g,)
        backward(y)
        assert x.grad == 1.0

    def test_affine_mixed_partials(self):
        # Matmul and broadcasting with constant and node operands mixed;
        # each node gets the gradient summed back to its own shape.
        w = Node([2.0, 5.0])
        x = Node([3.0, 7.0])
        b = Node(1.0)
        out = tape.sum(w * x + np.zeros((3, 1)) + b) + w @ np.array([1.0, -1.0])
        assert out.value == 3 * (2.0 * 3.0 + 5.0 * 7.0) + 6 * 1.0 + (2.0 - 5.0)
        backward(out)
        assert w.grad.tolist() == [3 * 3.0 + 1.0, 3 * 7.0 - 1.0]
        assert x.grad.tolist() == [3 * 2.0, 3 * 5.0]
        assert b.grad == 6.0

    def test_matmul_and_indexing_match_fd(self):
        rng = np.random.default_rng(2)
        pv = ParamVector({"a": rng.uniform(-1, 1, size=(2, 4, 3)), "b": rng.uniform(-1, 1, size=(3, 5))})

        def f(leaves):
            a, b = leaves["a"], leaves["b"]
            prod = tape.transpose(a @ b, (0, 2, 1))  # (2, 5, 4)
            picked = prod[:, [0, 0, 3], 1:]  # repeated rows
            joined = tape.concatenate([picked, prod[:, None, 4, 1:]], axis=1)  # (2, 4, 3)
            return tape.mean(sigmoid(joined) * b[0, None, 2:] @ np.ones(3))

        assert finite_diff_check(f, pv) < 1e-8


class TestParamVector:
    def test_flatten_roundtrip(self):
        pv = ParamVector({"a": np.arange(6.0).reshape(2, 3), "b": np.array([7.0])})
        flat = pv.flatten()
        assert flat.tolist() == [0, 1, 2, 3, 4, 5, 7]
        back = pv.with_flat(flat)
        for k in pv.groups:
            assert np.array_equal(back.groups[k], pv.groups[k])

    def test_with_flat_size_check(self):
        pv = ParamVector({"a": np.zeros(3)})
        with pytest.raises(ValueError):
            pv.with_flat(np.zeros(4))

    def test_jsonable_roundtrip(self):
        pv = ParamVector({"a": np.array([[1.5, -2.25]]), "b": np.array([1e-17])})
        back = ParamVector.from_jsonable(pv.to_jsonable())
        assert np.array_equal(back.flatten(), pv.flatten())


class TestFiniteDiff:
    def test_linear_is_exact(self):
        pv = ParamVector({"w": np.array([1.0, -2.0, 0.5])})

        def f(leaves):
            return leaves["w"] @ np.array([3.0, 1.0, -1.0]) + 2.0

        assert finite_diff_check(f, pv) < 1e-10

    def test_smooth_composite(self):
        rng = np.random.default_rng(9)
        pv = ParamVector({"w": rng.uniform(-1, 1, size=6), "b": rng.uniform(-1, 1, size=2)})

        def f(leaves):
            w, b = leaves["w"], leaves["b"]
            h1 = sigmoid(w[:3] @ np.array([0.3, -0.2, 0.9]) + b[0])
            h2 = sigmoid(w[3:] @ tape.stack([h1, 0.4, -1.1]) + b[1])
            return smin(tape.stack([h1, h2, h1 * h2]), 0.3, 0) + smax(tape.stack([h1, -0.2]), 0.5, 0)

        assert finite_diff_check(f, pv, h=1e-5) < 1e-4

    def test_relu_kink_skipped(self):
        pv = ParamVector({"w": np.array([0.0, 1.0])})

        def f(leaves):
            w = leaves["w"]
            return relu(w[0]) + w[1] * 2.0

        # Kink coordinate is skipped; the smooth coordinate still checks out.
        assert finite_diff_check(f, pv) < 1e-10

    def test_nonfinite_raises(self):
        pv = ParamVector({"w": np.array([1.0])})

        def f(leaves):
            return leaves["w"][0] * math.inf

        with pytest.raises(NonFiniteValue):
            finite_diff_check(f, pv)

    def test_three_layer_matches_fd(self):
        rng = np.random.default_rng(21)
        pv = ParamVector(
            {
                "w1": rng.uniform(-1, 1, size=(3, 2)),
                "w2": rng.uniform(-1, 1, size=(2, 3)),
                "w3": rng.uniform(-1, 1, size=2),
            }
        )
        x_in = rng.uniform(-1, 1, size=2)

        def f(leaves):
            h1 = sigmoid(leaves["w1"] @ x_in)
            h2 = sigmoid(leaves["w2"] @ h1)
            return leaves["w3"] @ h2

        assert finite_diff_check(f, pv, h=1e-5) < 1e-4
