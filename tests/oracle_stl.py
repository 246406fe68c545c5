"""Independent semantics oracles and random generators for the test suite.

Kept deliberately separate from the package, so agreement is a meaningful
check. The package has one exact evaluator, `stl.robustness`, which reads
a formula at t=0, and `robustness_trace` here checks it: at start step t
of a signal it must give the package's robustness at t=0 of the signal
from step t on. Both compute robustness bottom-up, but differently: here
one signal (T+1, d) at a time, every subformula at every start step where
it fits, predicates as a matrix product, and each window reduced by a
Python loop over its start steps; the package computes each subformula
only over the start steps t=0 needs (a window [a,b] read at [lo, hi) asks
its operand for [lo+a, hi+b)), reduces shifted slices of the operand
traces across a whole batch (N, T+1, d), or an operand's whole row when
one start step is read, and sums each predicate term by term. `bool_sat`
stays top-down Boolean semantics with no robustness involved. Random
signals are plain (length, d) arrays.
"""

from __future__ import annotations

import numpy as np

from stlmimic import stl


def robustness_trace(vals: np.ndarray, f) -> np.ndarray:
    """Robustness of f at every start step where its window fits."""
    n = vals.shape[0]
    if isinstance(f, stl.TrueFormula):
        return np.full(n, stl.TRUE_ROBUSTNESS)
    if isinstance(f, stl.Pred):
        return vals @ np.asarray(f.coeffs) - f.bound
    if isinstance(f, stl.Not):
        return -robustness_trace(vals, f.child)
    if isinstance(f, stl.And):
        traces = [robustness_trace(vals, c) for c in f.children]
        m = min(len(tr) for tr in traces)
        return np.min([tr[:m] for tr in traces], axis=0)
    if isinstance(f, stl.Or):
        traces = [robustness_trace(vals, c) for c in f.children]
        m = min(len(tr) for tr in traces)
        return np.max([tr[:m] for tr in traces], axis=0)
    if isinstance(f, (stl.Eventually, stl.Always)):
        inner = robustness_trace(vals, f.child)
        t1, t2 = f.interval.t1, f.interval.t2
        out_len = len(inner) - t2
        assert out_len >= 1, "window does not fit the signal"
        reduce = np.max if isinstance(f, stl.Eventually) else np.min
        return np.array(
            [reduce(inner[t + t1 : t + t2 + 1]) for t in range(out_len)]
        )
    raise TypeError(f"not a formula: {f!r}")


def bool_sat(vals: np.ndarray, f, t: int = 0) -> bool:
    """Plain Boolean semantics, no robustness involved."""
    if isinstance(f, stl.TrueFormula):
        return True
    if isinstance(f, stl.Pred):
        return float(np.dot(f.coeffs, vals[t])) - f.bound >= 0.0
    if isinstance(f, stl.Not):
        return not bool_sat(vals, f.child, t)
    if isinstance(f, stl.And):
        return all(bool_sat(vals, c, t) for c in f.children)
    if isinstance(f, stl.Or):
        return any(bool_sat(vals, c, t) for c in f.children)
    if isinstance(f, stl.Eventually):
        w = range(t + f.interval.t1, t + f.interval.t2 + 1)
        return any(bool_sat(vals, f.child, tau) for tau in w)
    if isinstance(f, stl.Always):
        w = range(t + f.interval.t1, t + f.interval.t2 + 1)
        return all(bool_sat(vals, f.child, tau) for tau in w)
    raise TypeError(f"not a formula: {f!r}")


def random_pred(rng: np.random.Generator, names) -> stl.Pred:
    d = len(names)
    coeffs = np.zeros(d)
    k = int(rng.integers(1, min(d, 2) + 1))
    idx = rng.choice(d, size=k, replace=False)
    coeffs[idx] = np.round(rng.uniform(-2, 2, size=k), 3)
    if not np.any(coeffs != 0):
        coeffs[idx[0]] = 1.0
    bound = float(np.round(rng.uniform(-2, 2), 3))
    return stl.Pred(tuple(float(c) for c in coeffs), bound, tuple(names))


def random_formula(rng: np.random.Generator, names, depth: int, max_t: int = 5):
    """Random well-formed formula with horizon bounded by depth * max_t."""
    if depth <= 0 or rng.random() < 0.25:
        if rng.random() < 0.08:
            return stl.TrueFormula()
        p = random_pred(rng, names)
        return stl.Not(p) if rng.random() < 0.4 else p
    kind = rng.integers(0, 5)
    if kind == 0:
        return stl.Not(random_formula(rng, names, depth - 1, max_t))
    if kind in (1, 2):
        n = int(rng.integers(2, 4))
        children = tuple(random_formula(rng, names, depth - 1, max_t) for _ in range(n))
        return stl.And(children) if kind == 1 else stl.Or(children)
    t1 = int(rng.integers(0, max_t))
    t2 = int(rng.integers(t1, max_t + 1))
    iv = stl.TimeInterval(t1, t2)
    child = random_formula(rng, names, depth - 1, max_t)
    return stl.Eventually(iv, child) if kind == 3 else stl.Always(iv, child)


def random_signal(rng: np.random.Generator, names, length: int) -> np.ndarray:
    """Values (length, len(names)) in [-3, 3], rounded to 3 decimals."""
    return np.round(rng.uniform(-3, 3, size=(length, len(names))), 3)
