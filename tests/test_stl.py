import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    TimeInterval,
    TrueFormula,
    UnknownVariable,
    conjoin,
    horizon,
    operands,
    parse,
    print_formula,
    robustness,
    smooth_robustness,
    with_operands,
)
from stlmimic.inference import _deletions, exact_mcr, exact_satisfaction, simplify
from stlmimic.params import ParamVector

import oracle_stl
from helpers import finite_diff_check

CASE1_NAMES = ("dA", "dB", "dC", "dO")
EQ12_TEXT = "(F[2,14](dA < 1.5) | F[4,12](dB < 0.86)) & F[12,20](dC < 0.69)"
# how it prints: a negated atom counts robustness 0 as satisfied, so `<=`
EQ12_PRINTED = "(F[2,14](dA <= 1.5) | F[4,12](dB <= 0.86)) & F[12,20](dC <= 0.69)"
EQ14_TEXT = (
    "(G[45,47](vot > 2.35) & G[20,57](veg > 1.31) & G[24,46](veg < 5.55))"
    " | (F[42,55](vot < 2.94) & F[20,57](veg < 0.01) & G[24,46](veg < 5.55))"
)
SPEED_RULE_TEXT = "G[0,57]((veg <= 10) & (veg > -1))"
DRIVE_NAMES = ("peg", "veg", "pot", "vot")


def sig1(xs):
    return np.asarray(xs, dtype=float).reshape(-1, 1)


def rob(vals, f, t=0):
    """Exact robustness of f at step t of one signal (T+1, d): at t=0 of
    the signal from step t on, since the semantics are time invariant."""
    return robustness(vals[None, t:], f)[0]


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
        assert rob(sig1([3.0]), pred1(1.0, 2.0)) == 1.0

    def test_always_min(self):
        f = Always(TimeInterval(0, 2), pred1(1.0, 0.0))
        assert rob(sig1([1, -2, 3]), f) == -2.0

    def test_eventually_always_nested(self):
        # inner mins: (-2, -2); outer max: -2
        f = Eventually(TimeInterval(0, 1), Always(TimeInterval(0, 1), pred1(1.0, 0.0)))
        assert rob(sig1([1, -2, 3, 4]), f) == -2.0

    def test_true_sentinel(self):
        assert rob(sig1([0.0]), TrueFormula()) == stl.TRUE_ROBUSTNESS

    def test_horizon_exceeded(self):
        f = Eventually(TimeInterval(0, 3), pred1(1.0, 0.0))
        with pytest.raises(HorizonExceeded):
            robustness(sig1([1, 2])[None], f)
        with pytest.raises(HorizonExceeded):
            smooth_robustness(sig1([1, 2])[None], f, 0.5)
        with pytest.raises(HorizonExceeded):
            exact_satisfaction(f, sig1([1, 2])[None], ("x0",))

    @pytest.mark.parametrize(
        "text, h", [("G[0,58](x0 >= 0) & F[0,70](x1 >= 0)", 58), ("G[0,10](F[0,60](x0 >= 0))", 60)]
    )
    def test_horizon_exceeded_names_the_first_window_that_does_not_fit(self, text, h):
        # the first temporal subformula, in post-order, whose horizon exceeds
        # T: the one a bottom-up evaluation meets first, not the whole formula
        X, names = np.zeros((2, 58, 2)), ("x0", "x1")
        f = parse(text, names)
        assert horizon(f) == 70
        for call in (
            lambda: robustness(X, f),
            lambda: robustness(X, f, cache={}),
            lambda: exact_satisfaction(f, X, names),
            lambda: smooth_robustness(X, f, 0.5),
        ):
            with pytest.raises(HorizonExceeded, match=f"^formula horizon {h} exceeds signal horizon 57$"):
                call()

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            exact_satisfaction(pred1(1.0, 0.0), np.zeros((1, 3, 2)), ("a", "b"))

    def test_satisfies_boundary(self):
        # robustness exactly 0 counts as satisfied
        X = np.stack([sig1([2.0]), sig1([3.0]), sig1([1.0])])
        sat = exact_satisfaction(pred1(1.0, 2.0), X, ("x0",))
        assert sat.tolist() == [True, True, False]

    def test_matches_trace_oracle_randomized(self):
        # A batch of signals of one length, checked at every valid start
        # step t as the signals from step t on, and past the last one.
        rng = np.random.default_rng(7)
        names = ("x0", "x1", "x2")
        for _ in range(150):
            f = oracle_stl.random_formula(rng, names, depth=3, max_t=4)
            length = horizon(f) + int(rng.integers(1, 4))
            batch = np.stack([oracle_stl.random_signal(rng, names, length) for _ in range(3)])
            traces = [oracle_stl.robustness_trace(vals, f) for vals in batch]
            for t in range(length - horizon(f)):
                r = robustness(batch[:, t:], f)
                assert r.shape == (3,)
                assert r == pytest.approx([trace[t] for trace in traces], abs=1e-12)
                assert exact_satisfaction(f, batch[:, t:], names).tolist() == (r >= 0).tolist()
            with pytest.raises(HorizonExceeded):
                robustness(batch[:, length - horizon(f) :], f)

    def test_soundness_against_boolean_semantics(self):
        # Ties to the Boolean oracle; exact-zero robustness counts as sat.
        rng = np.random.default_rng(11)
        names = ("x0", "x1")
        for _ in range(150):
            f = oracle_stl.random_formula(rng, names, depth=3, max_t=4)
            s = oracle_stl.random_signal(rng, names, horizon(f) + 1)
            r = rob(s, f)
            sat = oracle_stl.bool_sat(s, f, 0)
            if r > 0:
                assert sat
            elif r < 0:
                assert not sat

    def test_negation_duality(self):
        # at every start step
        rng = np.random.default_rng(13)
        names = ("x0", "x1")
        for _ in range(60):
            f = oracle_stl.random_formula(rng, names, depth=3, max_t=3)
            X = oracle_stl.random_signal(rng, names, horizon(f) + 2)[None]
            for t in range(2):
                assert np.array_equal(robustness(X[:, t:], Not(f)), -robustness(X[:, t:], f))

    def test_de_morgan_exact(self):
        rng = np.random.default_rng(17)
        names = ("x0",)
        for _ in range(60):
            f1 = oracle_stl.random_formula(rng, names, depth=2, max_t=3)
            f2 = oracle_stl.random_formula(rng, names, depth=2, max_t=3)
            both = And((f1, f2))
            s = oracle_stl.random_signal(rng, names, horizon(both) + 1)
            lhs = rob(s, Not(both))
            rhs = rob(s, Or((Not(f1), Not(f2))))
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
            r_ev = rob(s, Eventually(TimeInterval(t1, t2), child))
            r_ev_wide = rob(s, Eventually(wide, child))
            assert r_ev_wide >= r_ev
            r_al = rob(s, Always(TimeInterval(t1, t2), child))
            r_al_wide = rob(s, Always(wide, child))
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

    @pytest.mark.parametrize(
        "text, message, pos",
        [
            ("x0 >= 1 $", "unexpected character '$'", 8),
            ("F[0 2](x0 >= 0)", "expected ',', got '2'", 4),
            ("(x0 >= 0", "expected ')', got 'end'", 8),
            ("x0 >= 0 )", "unexpected trailing input ')'", 8),
            ("2*3 >= 0", "expected variable, got '3'", 2),
            (">= 0", "expected term, got '>='", 0),
            ("x0 0", "expected comparator, got '0'", 3),
            ("x0 - x0 >= 1", "predicate has all-zero coefficients", 8),
            ("x0 >= -1e999", "number '1e999' is not finite", 7),
            ("2*x0 - 1E400*x0 >= 0", "number '1E400' is not finite", 7),
            ("1e308*x0 + 1e308*x0 >= 0", "the coefficient of 'x0' is not finite", 11),
            ("F[0,1.5](x0 >= 0)", "expected integer, got '1.5'", 4),
            ("x0 >= y", "expected number, got 'y'", 6),
            ("x0 >= -", "expected number, got 'end'", 7),
            ("F[2,1](x0 >= 0)", "window [2,1] has t1 > t2", 0),
            ("y >= 0", "unknown variable 'y'", 0),
            ("x0 >= ", "expected number, got 'end'", 6),
            ("G[\u0660,\u0665](x0 >= 1)", "unexpected character '\u0660'", 2),
            ("x0 >= \u0661.\u0665", "unexpected character '\u0661'", 6),
        ],
        ids=[
            "character", "expect", "expect-at-end", "trailing", "variable", "term", "comparator", "all-zero",
            "infinite-bound", "infinite-coefficient", "coefficient-sum-overflows", "integer", "number",
            "number-at-end", "window-order", "unknown-variable", "bound-missing", "non-ascii-digit-window",
            "non-ascii-digit-bound",
        ],
    )
    def test_error_message_and_position(self, text, message, pos):
        with pytest.raises(FormulaSyntaxError) as err:
            parse(text, ("x0",))
        assert str(err.value) == f"{message} (at position {pos})"
        assert err.value.pos == pos
        assert isinstance(err.value, UnknownVariable) == message.startswith("unknown variable")

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
        assert print_formula(Not(pred1(1.0, 1.5))) == "x0 <= 1.5"

    def test_eq12_display(self):
        f = parse(EQ12_TEXT, CASE1_NAMES)
        assert print_formula(f) == EQ12_PRINTED

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


# --- properties on random formulas ----------------------------------------------

NAMES2 = ("x", "y")
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)
# windows inside [0, 3]
WINDOWS = st.tuples(st.integers(0, 3), st.integers(0, 3)).map(lambda w: TimeInterval(min(w), max(w)))


def formulas(coeff, true_leaves: bool = True):
    """Random formulas over NAMES2 with windows inside [0, 3], their
    predicates' coefficients and bounds drawn from `coeff`."""
    preds = st.builds(
        lambda c, b: Pred(c, b, NAMES2),
        st.tuples(coeff, coeff).filter(lambda c: any(v != 0.0 for v in c)),
        coeff,
    )
    children = st.lists  # n-ary and/or of 2 or 3 children
    return st.recursive(
        st.one_of(preds, st.just(TrueFormula())) if true_leaves else preds,
        lambda sub: st.one_of(
            st.builds(Not, sub),
            st.builds(And, children(sub, min_size=2, max_size=3).map(tuple)),
            st.builds(Or, children(sub, min_size=2, max_size=3).map(tuple)),
            st.builds(Eventually, WINDOWS, sub),
            st.builds(Always, WINDOWS, sub),
        ),
        max_leaves=5,
    )


BOUNDED = st.floats(-3.0, 3.0, allow_subnormal=False)


def signals(f, seed: int, n: int = 3, extra: int = 2) -> np.ndarray:
    """n random signals (n, horizon(f) + 1 + extra, 2) in [-2, 2]."""
    return np.random.default_rng(seed).uniform(-2.0, 2.0, size=(n, horizon(f) + 1 + extra, 2))


# pieces of formula text, and characters no token starts with: texts joined
# from them are mostly malformed, some valid
TEXT_FRAGMENTS = (
    "G", "F", "[", ",", "]", "(", ")", "&", "|", "!", ">=", ">", "<=", "<", "*", "+", "-",
    "0", "1", "2.5", ".5", "3e2", "1e999", "x", "y", "z", "TRUE", " ", "$", "?", "\u00e9",
)


@st.composite
def formula_texts(draw):
    """Formula text over NAMES2, mostly malformed: fragments joined at random,
    or a printed formula with up to 3 characters cut at a random place and a
    fragment, or nothing, put in their place."""
    if draw(st.booleans()):
        return "".join(draw(st.lists(st.sampled_from(TEXT_FRAGMENTS), max_size=24)))
    text = print_formula(draw(formulas(BOUNDED)))
    i = draw(st.integers(0, len(text)))
    return text[:i] + draw(st.sampled_from(("",) + TEXT_FRAGMENTS)) + text[i + draw(st.integers(0, 3)) :]


def uncached_simplify(f, X, names, labels):
    """simplify's greedy deletion loop, each candidate scored without a cache."""
    best = exact_mcr(f, X, names, labels)
    improved = True
    while improved:
        improved = False
        for g in _deletions(f):
            m = exact_mcr(g, X, names, labels)
            if m <= best:
                f, best, improved = g, m, True
                break
    return f


class TestProperties:
    @PROPERTY
    @given(f=formulas(BOUNDED), seed=st.integers(0, 2**32 - 1))
    def test_smooth_tends_to_exact_as_tau_shrinks(self, f, seed):
        X = signals(f, seed)
        exact = robustness(X, f)
        for tau in (1e-7, 1e-9):
            smooth, _ = smooth_robustness(X, f, tau)
            assert smooth.shape == exact.shape
            assert np.allclose(smooth, exact, rtol=1e-12, atol=2e3 * tau)

    @PROPERTY
    @given(f=formulas(st.floats(allow_nan=False, allow_infinity=False)))
    def test_parse_of_print_is_the_identity(self, f):
        assert parse(print_formula(f), NAMES2) == f

    @settings(PROPERTY, max_examples=200)
    @given(text=formula_texts())
    def test_text_parses_to_a_printable_formula_or_names_its_position(self, text):
        try:
            f = parse(text, NAMES2)
        except FormulaSyntaxError as err:
            assert 0 <= err.pos <= len(text)
            assert str(err).endswith(f"(at position {err.pos})")
        else:
            assert parse(print_formula(f), NAMES2) == f

    @PROPERTY
    @given(f=formulas(BOUNDED), seed=st.integers(0, 2**32 - 1), n=st.integers(1, 8))
    def test_simplify_never_raises_the_exact_mcr(self, f, seed, n):
        X = signals(f, seed, n)
        labels = np.random.default_rng(seed + 1).choice([-1, 1], size=n)
        simpler = simplify(f, X, NAMES2, labels)
        assert exact_mcr(simpler, X, NAMES2, labels) <= exact_mcr(f, X, NAMES2, labels)
        assert simpler == uncached_simplify(f, X, NAMES2, labels)

    @PROPERTY
    @given(f=formulas(BOUNDED), seed=st.integers(0, 2**32 - 1), windows=st.tuples(WINDOWS, WINDOWS))
    def test_cached_trace_is_the_uncached_one_bit_for_bit(self, f, seed, windows):
        # one cache over f and its deletion candidates, twice over, as
        # simplify shares it: hits, and traces negated after they were
        # cached; and one predicate object, an operand of an or under one
        # window and of an and under another, so the cache holds it over two
        # ranges of start steps when the windows differ
        p, q = Pred((1.0, -0.5), 0.25, NAMES2), Pred((0.0, 1.0), -0.5, NAMES2)
        g = And((f, Eventually(windows[0], Or((p, q))), Always(windows[1], And((p, q)))))
        X = signals(g, seed)
        cache = {}
        for h in [g, *_deletions(g)] * 2:
            assert robustness(X, h, cache=cache).tobytes() == robustness(X, h).tobytes()
        if windows[0] != windows[1]:
            assert len({key[1:] for key in cache if key[0] == id(p)}) == 2

    @PROPERTY
    @given(f=formulas(BOUNDED), seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4), extra=st.integers(0, 4))
    def test_matches_the_oracle_at_every_start_step(self, f, seed, n, extra):
        # time invariance: f at step t of a signal is f at t=0 of the signal
        # from step t on; and satisfaction is the Boolean semantics there
        X = signals(f, seed, n, extra)
        for t in range(extra + 1):
            r = robustness(X[:, t:], f)
            assert r.shape == (n,)
            want = [oracle_stl.robustness_trace(vals, f)[t] for vals in X]
            assert r == pytest.approx(want, abs=1e-12)
            sat = [oracle_stl.bool_sat(vals, f, t) for vals in X]
            assert exact_satisfaction(f, X[:, t:], NAMES2).tolist() == sat

    @PROPERTY
    @given(
        f=formulas(BOUNDED, true_leaves=False),
        tau=st.sampled_from([0.2, 0.5, 1.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_smooth_vjp_matches_fd(self, f, tau, seed):
        # TRUE is left out: its robustness, 1e9, would swamp the differences
        pv = ParamVector(X=signals(f, seed))
        weights = np.random.default_rng(seed + 1).normal(size=len(pv.X))

        def value(p):
            return np.sum(smooth_robustness(p.X, f, tau)[0] * weights)

        def grad(p):
            _, vjp = smooth_robustness(p.X, f, tau)
            return ParamVector(X=vjp(weights))

        assert finite_diff_check(value, grad, pv, h=1e-6) < 1e-5

    def test_exact_semantics_have_no_vjp(self):
        # robustness takes no temperature and no vjp flag: the smooth
        # semantics, and their VJP, are smooth_robustness's
        X, f = np.zeros((1, 2, 1)), pred1(1.0, 0.0)
        with pytest.raises(TypeError):
            robustness(X, f, vjp=True)
        with pytest.raises(TypeError):
            robustness(X, f, 0.5)

    @PROPERTY
    @given(f=formulas(BOUNDED))
    def test_with_operands_of_operands_is_the_identity(self, f):
        assert with_operands(f, operands(f)) == f
