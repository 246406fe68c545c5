"""Differentiable, template-free STL classifier.

The network scores a trajectory with a smooth robustness value whose sign
classifies it. Layers: learnable linear predicate traces, soft-windowed
eventually/always atoms (one of each per predicate), gated smooth
conjunctions, and a gated smooth disjunction on top. A discrete formula
can be read back out of the gates and windows at any time.

Signals are affinely normalized per dimension to [-1, 1] before entering
the network; extraction maps predicates back to original units (an exact
change of variables, so robustness values are unchanged).

Each layer is written once over batches: it runs on plain arrays for
value-only calls and on tape nodes when a gradient is needed. Fixed
formulas are scored by `stl.robustness_trace`: an injected rule smoothly
in `combined_smooth`, extracted formulas exactly over (N, T+1, d) batches.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from . import stl, tape
from .stl import (
    Always,
    And,
    Eventually,
    Formula,
    Not,
    Or,
    Pred,
    TimeInterval,
    TrueFormula,
)
from .tape import ParamVector

log = logging.getLogger(__name__)

# Window mask sharpness (time steps) and the inert offset applied to
# gated-off terms. The half-step insets in the mask make integer window
# parameters behave as the inclusive integer window, with residual
# attenuation (1 - sigmoid(0.5 / SIGMA_W)) * GATE_L ~ 5e-3, small enough
# for the smooth value to track the exact one at low temperature.
# GATE_L comfortably dominates any trace value reachable with bounded
# parameters over normalized signals. The output layer uses a doubled
# offset: with equal scales, uniformly half-open gates at both levels
# would cancel and reproduce the ungated network, leaving nothing for
# extraction to read.
SIGMA_W = 0.05
GATE_L = 50.0
OUT_L = 2.0 * GATE_L


@dataclass(frozen=True)
class NetworkShape:
    """Architecture constants: d-dim signals of horizon T scored by
    n_pred predicates feeding 2*n_pred temporal atoms and n_conj
    conjunction slots."""

    n_pred: int
    n_conj: int
    horizon: int
    dim: int
    tau: float = 0.1

    def __post_init__(self):
        if self.n_pred < 1 or self.n_conj < 1 or self.horizon < 1:
            raise ValueError(f"bad shape {self}")
        if self.tau <= 0:
            raise ValueError("temperature must be positive")

    @property
    def n_atoms(self) -> int:
        return 2 * self.n_pred


@dataclass
class InferenceParams:
    """All learnable classifier parameters.

    Atom 2k is the eventually-atom of predicate k, atom 2k+1 the
    always-atom. Window endpoints are unconstrained reals interpreted
    through soft masks; gates are logits.
    """

    pred_w: np.ndarray  # (n_pred, dim)
    pred_b: np.ndarray  # (n_pred,)
    win_lo: np.ndarray  # (n_atoms,)
    win_hi: np.ndarray  # (n_atoms,)
    gate: np.ndarray  # (n_conj, n_atoms)
    out_gate: np.ndarray  # (n_conj,)

    def to_pv(self) -> ParamVector:
        return ParamVector(
            {
                "pred_w": self.pred_w,
                "pred_b": self.pred_b,
                "win_lo": self.win_lo,
                "win_hi": self.win_hi,
                "gate": self.gate,
                "out_gate": self.out_gate,
            }
        )

    @classmethod
    def from_pv(cls, pv: ParamVector) -> "InferenceParams":
        return cls(**{k: v for k, v in pv.groups.items()})

    @classmethod
    def from_leaves(cls, leaves: dict) -> "InferenceParams":
        return cls(**{k: v for k, v in leaves.items()})


def init_inference(shape: NetworkShape, rng: np.random.Generator) -> InferenceParams:
    """Starting point for global search; bounds are enforced by training.

    Half of the predicate rows start near signed one-hot directions so
    that axis-aligned separators are reachable by polishing alone; the
    gate and window structure stays for the global search to decide.
    """
    T = shape.horizon
    n_atoms = shape.n_atoms
    lo = rng.uniform(0, 0.6 * T, size=n_atoms)
    hi = np.minimum(lo + rng.uniform(0.25 * T, T, size=n_atoms), T)
    pred_w = rng.uniform(-1, 1, size=(shape.n_pred, shape.dim))
    for k in range(shape.n_pred // 2):
        row = np.zeros(shape.dim)
        row[int(rng.integers(shape.dim))] = rng.choice([-1.0, 1.0])
        pred_w[k] = row + rng.normal(0, 0.05, size=shape.dim)
    return InferenceParams(
        pred_w=pred_w,
        pred_b=rng.uniform(-0.5, 0.5, size=shape.n_pred),
        win_lo=lo,
        win_hi=hi,
        gate=rng.uniform(-2.0, 1.0, size=(shape.n_conj, n_atoms)),
        out_gate=rng.uniform(0.0, 1.5, size=shape.n_conj),
    )


def param_bounds(shape: NetworkShape, pred_bound: float = 3.0, gate_bound: float = 6.0):
    """(lo, hi) arrays aligned with InferenceParams.to_pv().flatten()."""
    T = float(shape.horizon)
    n_pred, n_atoms, n_conj = shape.n_pred, shape.n_atoms, shape.n_conj
    lo = np.concatenate(
        [
            np.full(n_pred * shape.dim, -pred_bound),
            np.full(n_pred, -pred_bound),
            np.zeros(n_atoms),
            np.zeros(n_atoms),
            np.full(n_conj * n_atoms, -gate_bound),
            np.full(n_conj, -gate_bound),
        ]
    )
    hi = np.concatenate(
        [
            np.full(n_pred * shape.dim, pred_bound),
            np.full(n_pred, pred_bound),
            np.full(n_atoms, T),
            np.full(n_atoms, T),
            np.full(n_conj * n_atoms, gate_bound),
            np.full(n_conj, gate_bound),
        ]
    )
    return lo, hi


# --- signal normalization ----------------------------------------------------


@dataclass(frozen=True)
class SignalNorm:
    """Per-dimension affine map x -> (x - mid) / halfrange onto ~[-1, 1]."""

    mid: tuple[float, ...]
    halfrange: tuple[float, ...]

    @classmethod
    def from_arrays(cls, arrays) -> "SignalNorm":
        stacked = np.concatenate([np.asarray(a, dtype=float) for a in arrays], axis=0)
        lo = stacked.min(axis=0)
        hi = stacked.max(axis=0)
        hr = np.maximum((hi - lo) / 2.0, 1e-6)  # guard constant dimensions
        mid = (hi + lo) / 2.0
        return cls(tuple(float(m) for m in mid), tuple(float(h) for h in hr))

    @classmethod
    def identity(cls, dim: int) -> "SignalNorm":
        return cls((0.0,) * dim, (1.0,) * dim)

    def apply(self, x):
        """Normalize the last axis of an array or tape node."""
        return (tape.asarray(x) - np.asarray(self.mid)) / np.asarray(self.halfrange)

    def to_jsonable(self) -> dict:
        return {"mid": list(self.mid), "halfrange": list(self.halfrange)}

    @classmethod
    def from_jsonable(cls, obj: dict) -> "SignalNorm":
        return cls(tuple(obj["mid"]), tuple(obj["halfrange"]))


def normalize_formula(f: Formula, norm: SignalNorm) -> Formula:
    """Rewrite predicates into normalized coordinates (values unchanged)."""
    if isinstance(f, Pred):
        hr = np.asarray(norm.halfrange)
        mid = np.asarray(norm.mid)
        c = np.asarray(f.coeffs)
        coeffs = c * hr
        bound = f.bound - float(c @ mid)
        return Pred(tuple(float(x) for x in coeffs), float(bound), f.names)
    if isinstance(f, TrueFormula):
        return f
    if isinstance(f, Not):
        return Not(normalize_formula(f.child, norm))
    if isinstance(f, (Eventually, Always)):
        return type(f)(f.interval, normalize_formula(f.child, norm))
    return type(f)(tuple(normalize_formula(c, norm) for c in f.children))


# --- smooth robustness ----------------------------------------------------------
#
# Each function below runs on plain arrays (value only) or on tape nodes
# (for gradients); see `tape`.


def smooth_robustness(X, params: InferenceParams, shape: NetworkShape, tau=None):
    """Smooth classifier scores of a batch of normalized signals.

    X is (N, >=T+1, dim); returns (N,). X and the parameter arrays may be
    tape nodes.
    """
    tau = shape.tau if tau is None else tau
    T = shape.horizon
    X = tape.asarray(X)
    if X.shape[1] < T + 1:
        raise stl.HorizonExceeded(f"need {T + 1} samples, got {X.shape[1]}")
    L = GATE_L

    traces = X[:, : T + 1, :] @ params.pred_w.T - params.pred_b  # (N, T+1, n_pred)
    traces = tape.transpose(traces, (0, 2, 1))  # (N, n_pred, T+1)
    ts = np.arange(T + 1.0)
    m1 = tape.sigmoid((ts - params.win_lo[:, None] + 0.5) / SIGMA_W)
    m2 = tape.sigmoid((params.win_hi[:, None] - ts + 0.5) / SIGMA_W)
    masks = m1 * m2  # (n_atoms, T+1)

    # atom 2k is the eventually-atom of predicate k, atom 2k+1 the always-atom
    ev_m, al_m = masks[0::2], masks[1::2]
    ev = tape.smax(traces * ev_m + (ev_m - 1.0) * L, tau, axis=2)  # (N, n_pred)
    al = tape.smin(traces * al_m + (1.0 - al_m) * L, tau, axis=2)

    gate_off = (1.0 - tape.sigmoid(params.gate)) * L  # (n_conj, n_atoms)
    conj_terms = tape.concatenate(
        [ev[:, None, :] + gate_off[:, 0::2], al[:, None, :] + gate_off[:, 1::2]], axis=2
    )
    conjs = tape.smin(conj_terms, tau, axis=2)  # (N, n_conj)

    out_off = (1.0 - tape.sigmoid(params.out_gate)) * OUT_L  # (n_conj,)
    return tape.smax(conjs - out_off, tau, axis=1)


def combined_smooth(X, params, shape, rule: Formula | None, tau=None):
    """Network scores, optionally conjoined with an injected rule (in
    normalized coordinates, smooth robustness at t=0) through a smooth minimum."""
    tau = shape.tau if tau is None else tau
    net = smooth_robustness(X, params, shape, tau)
    if rule is None:
        return net
    return tape.smin(tape.stack([net, stl.robustness_trace(X, rule, tau)[:, 0]]), tau, 0)


def classify(x_norm: np.ndarray, params: InferenceParams, shape: NetworkShape, tau=None) -> int:
    """+1 iff the smooth score is >= 0, else -1."""
    score = smooth_robustness(x_norm[None, :, :], params, shape, tau)[0]
    return 1 if score >= 0.0 else -1


# --- formula extraction -------------------------------------------------------


def _halfup(x: float) -> int:
    return int(math.floor(x + 0.5))


def _canonical_pred(coeffs: np.ndarray, bound: float, names) -> Formula:
    """Unit-scale the predicate and prefer `v < c` form for a single
    negative coefficient (an exact rewrite)."""
    scale = float(np.max(np.abs(coeffs)))
    a = coeffs / scale
    b = bound / scale
    a[np.abs(a) < 0.02] = 0.0  # drop numerical-noise coefficients
    nz = np.flatnonzero(a)
    if nz.size == 1 and a[nz[0]] < 0:
        return Not(Pred(tuple(float(v) for v in -a), float(-b), tuple(names)))
    return Pred(tuple(float(v) for v in a), float(b), tuple(names))


def _rebuild_and(children: list[Formula]) -> Formula:
    return children[0] if len(children) == 1 else And(tuple(children))


def _factor_shared(f: Formula) -> Formula:
    """Pull conjuncts shared by every disjunct out of a top-level Or:
    (A & C) | (B & C) becomes (A | B) & C. Exact for min/max semantics."""
    if not isinstance(f, Or):
        return f
    conj_lists = [list(c.children) if isinstance(c, And) else [c] for c in f.children]
    common = [a for a in conj_lists[0] if all(a in other for other in conj_lists[1:])]
    if not common:
        return f
    remainders = []
    for cl in conj_lists:
        rest = [a for a in cl if a not in common]
        if not rest:
            # Some disjunct is exactly the shared part; it absorbs the rest.
            return _rebuild_and(common)
        remainders.append(_rebuild_and(rest))
    or_part = remainders[0] if len(remainders) == 1 else Or(tuple(remainders))
    return And(tuple([or_part] + common))


def extract_formula(
    params: InferenceParams,
    shape: NetworkShape,
    norm: SignalNorm,
    dim_names,
    gate_threshold: float = 0.5,
) -> Formula:
    """Discretize gates and windows into a formula in original units."""
    if not (0.0 < gate_threshold < 1.0):
        raise ValueError("gate_threshold must be in (0, 1)")
    T = shape.horizon
    hr = np.asarray(norm.halfrange)
    mid = np.asarray(norm.mid)
    disjuncts = []
    for c in range(shape.n_conj):
        if tape.sigmoid(params.out_gate[c]) <= gate_threshold:
            continue
        atoms = []
        for j in range(shape.n_atoms):
            if tape.sigmoid(params.gate[c, j]) <= gate_threshold:
                continue
            k = j // 2
            t1 = min(max(_halfup(float(params.win_lo[j])), 0), T)
            t2 = min(max(_halfup(float(params.win_hi[j])), t1), T)
            a_raw = params.pred_w[k] / hr
            b_raw = float(params.pred_b[k] + (params.pred_w[k] * mid / hr).sum())
            pred = _canonical_pred(a_raw, b_raw, dim_names)
            iv = TimeInterval(t1, t2)
            atoms.append(Eventually(iv, pred) if j % 2 == 0 else Always(iv, pred))
        if not atoms:
            # An active conjunction with every atom gated off is vacuous.
            log.warning("conjunction %d has no active atoms; extraction is TRUE", c)
            return TrueFormula()
        disjuncts.append(_rebuild_and(atoms))
    if not disjuncts:
        log.warning("no active conjunctions; extraction is TRUE")
        return TrueFormula()
    dnf = disjuncts[0] if len(disjuncts) == 1 else Or(tuple(disjuncts))
    return _factor_shared(dnf)


# --- dataset-guided simplification --------------------------------------------


def _deletions(f: Formula):
    """All formulas reachable by removing one conjunct/disjunct anywhere."""
    if isinstance(f, (And, Or)):
        cls = type(f)
        for i in range(len(f.children)):
            rest = f.children[:i] + f.children[i + 1 :]
            yield rest[0] if len(rest) == 1 else cls(rest)
        for i, c in enumerate(f.children):
            for sub in _deletions(c):
                yield cls(f.children[:i] + (sub,) + f.children[i + 1 :])
    elif isinstance(f, Not):
        for sub in _deletions(f.child):
            yield Not(sub)
    elif isinstance(f, (Eventually, Always)):
        for sub in _deletions(f.child):
            yield type(f)(f.interval, sub)


def exact_satisfaction(f: Formula, X: np.ndarray, names) -> np.ndarray:
    """Whether each signal of the batch X (N, T+1, d), over dimensions
    `names`, satisfies f at t=0 under exact semantics (robustness exactly
    0 counts as satisfied)."""
    stl.check_names(f, names)
    return stl.robustness_trace(X, f)[:, 0] >= 0.0


def exact_mcr(f: Formula, X: np.ndarray, names, labels) -> float:
    """Misclassification rate of a formula under exact semantics."""
    if len(X) == 0:
        raise ValueError("empty dataset")
    return float(np.mean(exact_satisfaction(f, X, names) != (np.asarray(labels) > 0)))


def simplify(f: Formula, X: np.ndarray, names, labels) -> Formula:
    """Greedily delete conjuncts/disjuncts while the exact MCR over the
    batch X does not increase; repeats until no deletion is accepted."""
    best = exact_mcr(f, X, names, labels)
    improved = True
    while improved:
        improved = False
        for g in _deletions(f):
            m = exact_mcr(g, X, names, labels)
            if m <= best:
                f, best = g, m
                improved = True
                break
    return f
