import numpy as np
import pytest

from stlmimic import stl
from stlmimic.stl import (
    Always,
    And,
    DimensionMismatch,
    Eventually,
    FormulaSyntaxError,
    HorizonExceeded,
    Not,
    Or,
    Pred,
    Signal,
    TimeInterval,
    TrueFormula,
    UnknownVariable,
    conjoin,
    horizon,
    parse,
    print_formula,
    robustness,
    satisfies,
)

import oracle_stl

CASE1_NAMES = ("dA", "dB", "dC", "dO")
EQ12_TEXT = "(F[2,14](dA < 1.5) | F[4,12](dB < 0.86)) & F[12,20](dC < 0.69)"
EQ14_TEXT = (
    "(G[45,47](vot > 2.35) & G[20,57](veg > 1.31) & G[24,46](veg < 5.55))"
    " | (F[42,55](vot < 2.94) & F[20,57](veg < 0.01) & G[24,46](veg < 5.55))"
)
SPEED_RULE_TEXT = "G[0,57]((veg <= 10) & (veg > -1))"
DRIVE_NAMES = ("peg", "veg", "pot", "vot")


def sig1(xs):
    return Signal(np.asarray(xs, dtype=float).reshape(-1, 1), ("x0",))


def pred1(c, b):
    return Pred((c,), b, ("x0",))


class TestHorizon:
    def test_pred_is_zero(self):
        assert horizon(pred1(1.0, 2.0)) == 0

    def test_eventually_adds_upper_bound(self):
        f = Eventually(TimeInterval(2, 14), pred1(1.0, 0.0))
        assert horizon(f) == 14

    def test_eq12_formula_is_20(self):
        f = parse(EQ12_TEXT, CASE1_NAMES)
        assert horizon(f) == 20

    def test_nested(self):
        f = Always(TimeInterval(1, 3), Eventually(TimeInterval(0, 4), pred1(1, 0)))
        assert horizon(f) == 7


class TestRobustness:
    def test_pred_margin(self):
        assert robustness(sig1([3.0]), pred1(1.0, 2.0), 0) == 1.0

    def test_always_min(self):
        f = Always(TimeInterval(0, 2), pred1(1.0, 0.0))
        assert robustness(sig1([1, -2, 3]), f, 0) == -2.0

    def test_eventually_always_nested(self):
        # inner mins: (-2, -2); outer max: -2
        f = Eventually(TimeInterval(0, 1), Always(TimeInterval(0, 1), pred1(1.0, 0.0)))
        assert robustness(sig1([1, -2, 3, 4]), f, 0) == -2.0

    def test_true_sentinel(self):
        assert robustness(sig1([0.0]), TrueFormula(), 0) == stl.TRUE_ROBUSTNESS

    def test_horizon_exceeded(self):
        f = Eventually(TimeInterval(0, 3), pred1(1.0, 0.0))
        with pytest.raises(HorizonExceeded):
            robustness(sig1([1, 2]), f, 0)

    def test_dimension_mismatch(self):
        s = Signal(np.zeros((3, 2)), ("a", "b"))
        with pytest.raises(DimensionMismatch):
            robustness(s, pred1(1.0, 0.0), 0)

    def test_satisfies_boundary(self):
        assert satisfies(sig1([2.0]), pred1(1.0, 2.0))
        assert satisfies(sig1([3.0]), pred1(1.0, 2.0))
        assert not satisfies(sig1([1.0]), pred1(1.0, 2.0))

    def test_matches_trace_oracle_randomized(self):
        # A batch of signals of one length, checked at every valid start step.
        rng = np.random.default_rng(7)
        names = ("x0", "x1", "x2")
        for _ in range(150):
            f = oracle_stl.random_formula(rng, names, depth=3, max_t=4)
            length = horizon(f) + int(rng.integers(1, 4))
            batch = [oracle_stl.random_signal(rng, names, length) for _ in range(3)]
            traces = stl.robustness_trace(np.stack([s.values for s in batch]), f)
            assert traces.shape == (3, length - horizon(f))
            for s, trace in zip(batch, traces):
                oracle = oracle_stl.robustness_trace(s.values, f)
                assert trace == pytest.approx(oracle, abs=1e-12)
                for t in range(len(trace)):
                    assert robustness(s, f, t) == trace[t]
                r = robustness(s, f, 0)
                assert r == pytest.approx(oracle_stl.brute_robustness(s, f, 0), abs=1e-12)
                assert satisfies(s, f) == (r >= 0)

    def test_soundness_against_boolean_semantics(self):
        # Ties to the Boolean oracle; exact-zero robustness counts as sat.
        rng = np.random.default_rng(11)
        names = ("x0", "x1")
        for _ in range(150):
            f = oracle_stl.random_formula(rng, names, depth=3, max_t=4)
            s = oracle_stl.random_signal(rng, names, horizon(f) + 1)
            r = robustness(s, f, 0)
            sat = oracle_stl.bool_sat(s.values, f, 0)
            if r > 0:
                assert sat
            elif r < 0:
                assert not sat

    def test_negation_duality(self):
        rng = np.random.default_rng(13)
        names = ("x0", "x1")
        for _ in range(60):
            f = oracle_stl.random_formula(rng, names, depth=3, max_t=3)
            s = oracle_stl.random_signal(rng, names, horizon(f) + 2)
            for t in range(s.horizon - horizon(f) + 1):
                assert robustness(s, Not(f), t) == -robustness(s, f, t)

    def test_de_morgan_exact(self):
        rng = np.random.default_rng(17)
        names = ("x0",)
        for _ in range(60):
            f1 = oracle_stl.random_formula(rng, names, depth=2, max_t=3)
            f2 = oracle_stl.random_formula(rng, names, depth=2, max_t=3)
            both = And((f1, f2))
            s = oracle_stl.random_signal(rng, names, horizon(both) + 1)
            lhs = robustness(s, Not(both), 0)
            rhs = robustness(s, Or((Not(f1), Not(f2))), 0)
            assert lhs == rhs

    def test_window_monotonicity(self):
        rng = np.random.default_rng(19)
        names = ("x0", "x1")
        for _ in range(60):
            child = oracle_stl.random_pred(rng, names)
            t1 = int(rng.integers(0, 3))
            t2 = int(rng.integers(t1, 5))
            wide = TimeInterval(max(0, t1 - 1), t2 + 1)
            s = oracle_stl.random_signal(rng, names, t2 + 3)
            r_ev = robustness(s, Eventually(TimeInterval(t1, t2), child), 0)
            r_ev_wide = robustness(s, Eventually(wide, child), 0)
            assert r_ev_wide >= r_ev
            r_al = robustness(s, Always(TimeInterval(t1, t2), child), 0)
            r_al_wide = robustness(s, Always(wide, child), 0)
            assert r_al_wide <= r_al


class TestParse:
    def test_eq12_structure(self):
        f = parse(EQ12_TEXT, CASE1_NAMES)
        assert isinstance(f, And) and len(f.children) == 2
        left, right = f.children
        assert isinstance(left, Or) and len(left.children) == 2
        fa, fb = left.children
        assert isinstance(fa, Eventually) and fa.interval == TimeInterval(2, 14)
        assert isinstance(fa.child, Not) and isinstance(fa.child.child, Pred)
        assert fa.child.child.bound == 1.5
        assert fa.child.child.coeffs == (1.0, 0.0, 0.0, 0.0)
        assert isinstance(right, Eventually) and right.interval == TimeInterval(12, 20)

    def test_speed_rule(self):
        f = parse(SPEED_RULE_TEXT, DRIVE_NAMES)
        assert isinstance(f, Always) and f.interval == TimeInterval(0, 57)
        assert isinstance(f.child, And)
        le, gt = f.child.children
        assert isinstance(le, Not) and le.child.bound == 10.0
        assert isinstance(gt, Pred) and gt.bound == -1.0

    def test_interval_order_rejected(self):
        with pytest.raises(FormulaSyntaxError):
            parse("F[2,1](x0 >= 0)", ("x0",))

    def test_unknown_variable(self):
        with pytest.raises(UnknownVariable):
            parse("y >= 0", ("x0",))

    def test_syntax_error_position(self):
        with pytest.raises(FormulaSyntaxError) as err:
            parse("x0 >= ", ("x0",))
        assert err.value.pos == 6

    def test_less_than_sugar(self):
        f = parse("x0 < 1.5", ("x0",))
        assert f == Not(Pred((1.0,), 1.5, ("x0",)))

    def test_linear_combination(self):
        f = parse("2*a - b + 0.5*c >= -1", ("a", "b", "c"))
        assert f == Pred((2.0, -1.0, 0.5), -1.0, ("a", "b", "c"))

    def test_true_literal(self):
        assert parse("TRUE", ("x0",)) == TrueFormula()

    def test_nary_flattening(self):
        f = parse("x0 >= 0 & x0 >= 1 & x0 >= 2", ("x0",))
        assert isinstance(f, And) and len(f.children) == 3


class TestPrint:
    def test_not_pred_sugar(self):
        assert print_formula(Not(pred1(1.0, 1.5))) == "x0 < 1.5"

    def test_eq12_display(self):
        f = parse(EQ12_TEXT, CASE1_NAMES)
        assert print_formula(f) == EQ12_TEXT

    def test_nested_or_in_and_parenthesized(self):
        f = And((Or((pred1(1, 0), pred1(1, 1))), pred1(1, 2)))
        text = print_formula(f)
        assert text == "(x0 >= 0 | x0 >= 1) & x0 >= 2"
        assert parse(text, ("x0",)) == f

    def test_roundtrip_paper_formulas(self):
        for text, names in (
            (EQ12_TEXT, CASE1_NAMES),
            (EQ14_TEXT, DRIVE_NAMES),
            (SPEED_RULE_TEXT, DRIVE_NAMES),
        ):
            f = parse(text, names)
            assert parse(print_formula(f), names) == f

    def test_roundtrip_randomized(self):
        rng = np.random.default_rng(23)
        names = ("x0", "x1", "y")
        for _ in range(300):
            f = oracle_stl.random_formula(rng, names, depth=4, max_t=6)
            assert parse(print_formula(f), names) == f


class TestConjoin:
    def test_structural(self):
        f = parse("x0 >= 1", ("x0",))
        g = TrueFormula()
        assert conjoin(g, f) == And((g, f))

    def test_horizon_is_max(self):
        f = Eventually(TimeInterval(0, 14), pred1(1, 0))
        g = Always(TimeInterval(0, 20), pred1(1, 0))
        assert horizon(conjoin(f, g)) == 20

    def test_dim_mismatch(self):
        f = parse("x0 >= 1", ("x0",))
        g = parse("y >= 1", ("y",))
        with pytest.raises(DimensionMismatch):
            conjoin(f, g)

    def test_eq14_with_speed_rule(self):
        f = parse(EQ14_TEXT, DRIVE_NAMES)
        rule = parse(SPEED_RULE_TEXT, DRIVE_NAMES)
        combined = conjoin(f, rule)
        assert combined == And((f, rule))
        assert horizon(combined) == 57


class TestInvariants:
    def test_interval_validation(self):
        with pytest.raises(ValueError):
            TimeInterval(3, 2)
        with pytest.raises(ValueError):
            TimeInterval(-1, 2)

    def test_pred_needs_nonzero_coeff(self):
        with pytest.raises(ValueError):
            Pred((0.0, 0.0), 1.0, ("a", "b"))

    def test_and_arity(self):
        with pytest.raises(ValueError):
            And((pred1(1, 0),))
