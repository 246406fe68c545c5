"""Differentiable, template-free STL classifier.

The network scores a trajectory with a smooth robustness value whose sign
classifies it. Layers: learnable linear predicate traces, soft-windowed
eventually/always atoms (one of each per predicate), gated smooth
conjunctions, and a gated smooth disjunction on top. A discrete formula
can be read back out of the gates and windows at any time.

Signals are affinely normalized per dimension to [-1, 1] before entering
the network; extraction maps predicates back to original units (an exact
change of variables, so robustness values are unchanged).

The parameters are one `InferenceParams` (a `params.ParamVector`) whose
`group_shapes` is the layout annealing searches and checkpoints store;
`param_bounds` and `NetworkShape.n_atom_params` are read from it.

Each layer is written once over batches of plain arrays. Called with
vjp=True it also returns its vector-Jacobian product (VJP): a closure,
built from the same forward pass, that maps an adjoint of the output to
the gradients of the parameters and of the signal. Called with
`with_params=False`, the closure skips the parameter gradients, for a
caller that reads only the signal's, as the policy objective does; the
signal's gradient is the same bits either way. `smooth_robustness`
composes the three layers: the `predicate_traces`, their atoms through
`windowed_extrema`, and the gated and/or layer `smooth_gates`. A caller
that varies only the gates can reuse the atoms, and one that moves one
predicate or its atoms' windows can recompute that predicate's atoms
alone. Every layer reads batches of exactly T+1 samples. Fixed formulas
are scored by `stl` at t=0: an injected rule by `stl.smooth_robustness`
in `combined_smooth`, and extracted formulas by `stl.robustness`.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from . import stl
from .dataio import require_counts
from .params import ParamVector, layout
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
    smax,
    smin,
)

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


def sigmoid(z):
    """The logistic function, through tanh so that no |z| overflows."""
    return 0.5 * (1.0 + np.tanh(0.5 * z))


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
        require_counts(self, "n_pred", "n_conj", "horizon")
        if self.tau <= 0:
            raise ValueError(f"tau must be positive, got {self.tau}")

    @property
    def n_atoms(self) -> int:
        return 2 * self.n_pred

    @property
    def n_atom_params(self) -> int:
        """Leading entries of the flat parameter vector (predicates, then
        windows) that the atom layer reads: the offset of the gates."""
        return layout(InferenceParams.group_shapes(self))["gate"].start


@dataclass
class InferenceParams(ParamVector):
    """All learnable classifier parameters, in the order they flatten.

    Atom 2k is the eventually-atom of predicate k, atom 2k+1 the
    always-atom. Window endpoints are unconstrained reals interpreted
    through soft masks; gates are logits.
    """

    pred_w: np.ndarray
    pred_b: np.ndarray
    win_lo: np.ndarray
    win_hi: np.ndarray
    gate: np.ndarray
    out_gate: np.ndarray

    @staticmethod
    def group_shapes(shape: NetworkShape) -> dict[str, tuple]:
        n_pred, n_atoms, n_conj = shape.n_pred, shape.n_atoms, shape.n_conj
        return {
            "pred_w": (n_pred, shape.dim),
            "pred_b": (n_pred,),
            "win_lo": (n_atoms,),
            "win_hi": (n_atoms,),
            "gate": (n_conj, n_atoms),
            "out_gate": (n_conj,),
        }


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
        row[int(rng.integers(shape.dim))] = (-1.0, 1.0)[int(rng.integers(2))]
        pred_w[k] = row + rng.normal(0, 0.05, size=shape.dim)
    return InferenceParams(
        pred_w=pred_w,
        pred_b=rng.uniform(-0.5, 0.5, size=shape.n_pred),
        win_lo=lo,
        win_hi=hi,
        gate=rng.uniform(-2.0, 1.0, size=(shape.n_conj, n_atoms)),
        out_gate=rng.uniform(0.0, 1.5, size=shape.n_conj),
    )


def param_bounds(shape: NetworkShape, pred_bound: float, gate_bound: float):
    """(lo, hi) arrays aligned with InferenceParams.flatten(): each group's
    bounds, repeated over its entries, in field order."""
    pred, win, gate = (-pred_bound, pred_bound), (0.0, float(shape.horizon)), (-gate_bound, gate_bound)
    bounds = {"pred_w": pred, "pred_b": pred, "win_lo": win, "win_hi": win, "gate": gate, "out_gate": gate}
    shapes = InferenceParams.group_shapes(shape).items()
    lo = np.concatenate([np.full(s, bounds[k][0]).ravel() for k, s in shapes])
    hi = np.concatenate([np.full(s, bounds[k][1]).ravel() for k, s in shapes])
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

    def apply(self, x, vjp: bool = False):
        """Normalize the last axis of an array; with vjp, also the map from
        an adjoint of the result to one of x."""
        halfrange = np.asarray(self.halfrange)
        out = (np.asarray(x, dtype=float) - np.asarray(self.mid)) / halfrange
        return (out, lambda g: g / halfrange) if vjp else out

    def to_jsonable(self) -> dict:
        return {"mid": list(self.mid), "halfrange": list(self.halfrange)}

    @classmethod
    def from_jsonable(cls, obj: dict, dim: int | None = None) -> "SignalNorm":
        """Inverse of to_jsonable. Given `dim`, a ValueError names mid or
        halfrange unless obj holds exactly those, each `dim` finite numbers,
        the halfranges positive."""
        if dim is not None:
            ParamVector.from_jsonable(obj, {"mid": (dim,), "halfrange": (dim,)})
            if min(obj["halfrange"]) <= 0.0:
                raise ValueError(f"halfrange must be positive, got {obj['halfrange']}")
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
    return stl.with_operands(f, [normalize_formula(c, norm) for c in stl.operands(f)])


# --- smooth robustness ----------------------------------------------------------


def smooth_robustness(X, params: InferenceParams, shape: NetworkShape, tau=None, vjp: bool = False):
    """Smooth classifier scores (N,) of a batch X (N, T+1, dim) of
    normalized signals: the `smooth_gates` of the atoms, which are the
    `windowed_extrema` of the `predicate_traces`. With vjp, (scores, grad),
    where grad maps an adjoint of the scores to (an InferenceParams of
    parameter gradients, the gradient with respect to X); with
    `with_params=False`, grad gives None for the former."""
    tau = shape.tau if tau is None else tau
    if not vjp:
        atoms = windowed_extrema(predicate_traces(X, params, shape), params.win_lo, params.win_hi, tau)
        return smooth_gates(atoms, params, shape, tau)
    traces, traces_grad = predicate_traces(X, params, shape, vjp=True)
    atoms, atoms_grad = windowed_extrema(traces, params.win_lo, params.win_hi, tau, vjp=True)
    scores, gates_grad = smooth_gates(atoms, params, shape, tau, vjp=True)

    def grad(g, with_params=True):
        g_atoms, g_gates = gates_grad(g, with_params)
        g_traces, g_windows = atoms_grad(*g_atoms, with_params)
        g_preds, gX = traces_grad(g_traces, with_params)
        return (InferenceParams(**g_preds, **g_windows, **g_gates) if with_params else None), gX

    return scores, grad


def predicate_traces(X, params: InferenceParams, shape: NetworkShape, vjp: bool = False):
    """The linear traces (N, n_pred, T+1) of the predicates over a batch X
    (N, T+1, dim): one matrix product for all predicates. With vjp,
    (traces, grad), where grad maps an adjoint of the traces to (a dict of
    the `pred_w` and `pred_b` gradients, the gradient with respect to X);
    the dict is None without `with_params`."""
    X = np.asarray(X, dtype=float)
    if X.shape[1] != shape.horizon + 1:
        raise stl.HorizonExceeded(f"need {shape.horizon + 1} samples, got {X.shape[1]}")
    traces = params.pred_w @ X.transpose(0, 2, 1)
    traces -= params.pred_b[:, None]
    if not vjp:
        return traces

    def grad(g, with_params=True):
        g_traces = np.transpose(g, (0, 2, 1))  # (N, T+1, n_pred)
        pred = None
        if with_params:
            flat_g = g_traces.reshape(-1, shape.n_pred)
            pred = {"pred_w": flat_g.T @ X.reshape(-1, X.shape[2]), "pred_b": -flat_g.sum(axis=0)}
        return pred, g_traces @ params.pred_w

    return traces, grad


def windowed_extrema(traces, win_lo, win_hi, tau, vjp: bool = False):
    """The eventually-atoms and always-atoms (N, P) of the traces
    (N, P, T+1) of P predicates, under the windows (2P,) of their atoms:
    entry 2k of `win_lo` and `win_hi` is the eventually-atom of predicate
    k, entry 2k+1 its always-atom. Given one predicate's traces as the
    basic slice `traces[:, k:k+1]` and its two atoms' windows, the values
    are bit for bit column k of the whole layer's. With vjp, (atoms, grad),
    where grad maps adjoints of the two atom arrays to (the adjoint of the
    traces, a dict of the `win_lo` and `win_hi` gradients, None without
    `with_params`)."""
    L = GATE_L
    ts = np.arange(float(traces.shape[2]))
    m1 = sigmoid((ts - win_lo[:, None] + 0.5) / SIGMA_W)
    m2 = sigmoid((win_hi[:, None] - ts + 0.5) / SIGMA_W)
    masks = m1 * m2  # (2P, T+1)
    ev_m, al_m = masks[0::2], masks[1::2]
    ev = smax(traces * ev_m + (ev_m - 1.0) * L, tau, 2, vjp)
    al = smin(traces * al_m + (1.0 - al_m) * L, tau, 2, vjp)
    if not vjp:
        return ev, al
    (ev, ev_grad), (al, al_grad) = ev, al

    def grad(g_ev, g_al, with_params=True):
        g_ev, g_al = ev_grad(g_ev), al_grad(g_al)  # (N, P, T+1)
        g_traces = g_ev * ev_m + g_al * al_m
        if not with_params:
            return g_traces, None
        g_masks = np.empty_like(masks)
        g_masks[0::2] = (g_ev * (traces + L)).sum(axis=0)
        g_masks[1::2] = (g_al * (traces - L)).sum(axis=0)
        return g_traces, {
            "win_lo": -(g_masks * m2 * m1 * (1.0 - m1)).sum(axis=1) / SIGMA_W,
            "win_hi": (g_masks * m1 * m2 * (1.0 - m2)).sum(axis=1) / SIGMA_W,
        }

    return (ev, al), grad


def smooth_gates(atoms, params: InferenceParams, shape: NetworkShape, tau=None, vjp: bool = False):
    """Gated and/or layer: (N,) scores from the `windowed_extrema` output.
    Reads only the gates (`gate`, `out_gate`). With vjp, (scores, grad),
    where grad maps an adjoint of the scores to (the adjoints of the two
    atom arrays, a dict of the gate groups' gradients, None without
    `with_params`)."""
    tau = shape.tau if tau is None else tau
    ev, al = atoms
    s_gate = sigmoid(params.gate)
    gate_off = (1.0 - s_gate) * GATE_L  # (n_conj, n_atoms)
    conj_terms = np.concatenate(
        [ev[:, None, :] + gate_off[:, 0::2], al[:, None, :] + gate_off[:, 1::2]], axis=2
    )
    conjs = smin(conj_terms, tau, 2, vjp)  # (N, n_conj)
    s_out = sigmoid(params.out_gate)
    out_off = (1.0 - s_out) * OUT_L  # (n_conj,)
    if not vjp:
        return smax(conjs - out_off, tau, 1)
    conjs, conjs_grad = conjs
    scores, scores_grad = smax(conjs - out_off, tau, 1, True)

    def grad(g, with_params=True):
        g_conjs = scores_grad(g)
        g_terms = conjs_grad(g_conjs)  # (N, n_conj, n_atoms), eventually-atoms first
        n_pred = ev.shape[1]
        atoms_adjoint = (g_terms[:, :, :n_pred].sum(axis=1), g_terms[:, :, n_pred:].sum(axis=1))
        if not with_params:
            return atoms_adjoint, None
        g_off = np.empty_like(gate_off)
        g_off[:, 0::2], g_off[:, 1::2] = np.split(g_terms.sum(axis=0), 2, axis=1)
        return atoms_adjoint, {
            "gate": -GATE_L * g_off * s_gate * (1.0 - s_gate),
            "out_gate": OUT_L * g_conjs.sum(axis=0) * s_out * (1.0 - s_out),
        }

    return scores, grad


def combined_smooth(X, params, shape, rule: Formula | None):
    """Network scores at the shape's temperature, optionally conjoined with
    an injected rule (in normalized coordinates) through a smooth minimum,
    as (scores, grad) with grad as for `smooth_robustness`, `with_params`
    included. The rule's smooth robustness is that at t=0."""
    if rule is None:
        return smooth_robustness(X, params, shape, vjp=True)
    net, net_grad = smooth_robustness(X, params, shape, vjp=True)
    at_0, rule_grad = stl.smooth_robustness(X, rule, shape.tau)
    scores, scores_grad = smin(np.stack([net, at_0]), shape.tau, 0, True)

    def grad(g, with_params=True):
        g_net, g_rule = scores_grad(g)
        g_params, gX = net_grad(g_net, with_params)
        return g_params, gX + rule_grad(g_rule)

    return scores, grad


# --- formula extraction -------------------------------------------------------


def _halfup(x: float) -> int:
    return int(math.floor(x + 0.5))


def _canonical_pred(coeffs: np.ndarray, bound: float, names) -> Formula:
    """Unit-scale the predicate and prefer `v <= c` form for a single
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
) -> Formula:
    """Discretize gates and windows into a formula in original units; a
    gate is on where its sigmoid is above 0.5."""
    T = shape.horizon
    hr = np.asarray(norm.halfrange)
    mid = np.asarray(norm.mid)
    disjuncts = []
    for c in range(shape.n_conj):
        if sigmoid(params.out_gate[c]) <= 0.5:
            continue
        atoms = []
        for j in range(shape.n_atoms):
            if sigmoid(params.gate[c, j]) <= 0.5:
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
    """All formulas reachable by removing one conjunct/disjunct anywhere:
    first each operand of f, if f is an and/or, then the deletions within
    each operand in turn."""
    ops = stl.operands(f)
    if isinstance(f, (And, Or)):
        for i in range(len(ops)):
            rest = ops[:i] + ops[i + 1 :]
            yield rest[0] if len(rest) == 1 else stl.with_operands(f, rest)
    for i, c in enumerate(ops):
        for sub in _deletions(c):
            yield stl.with_operands(f, ops[:i] + (sub,) + ops[i + 1 :])


# the key, with a formula's id, of `simplify`'s marks in a trace cache
_CHECKED = "names checked"


def exact_satisfaction(f: Formula, X: np.ndarray, names, cache: dict | None = None) -> np.ndarray:
    """Whether f holds at t=0 on each signal of the batch X (N, T+1, d),
    over dimensions `names`, under exact semantics (robustness exactly 0
    counts as satisfied). The package's one Boolean reading of a formula:
    it computes each subformula only at the start steps that t=0 reads.
    `cache` is `stl.robustness`'s, for this X; a formula that
    `simplify` marked in it as checked is not checked against `names` again."""
    if cache is None or cache.get((_CHECKED, id(f))) is not f:
        stl.check_names(f, names)
    return stl.robustness(X, f, cache=cache) >= 0.0


def exact_mcr(f: Formula, X: np.ndarray, names, labels, cache: dict | None = None) -> float:
    """Misclassification rate of a formula under exact semantics; `cache`
    as for `exact_satisfaction`."""
    if len(X) == 0:
        raise ValueError("empty dataset")
    return float(np.mean(exact_satisfaction(f, X, names, cache) != (np.asarray(labels) > 0)))


def simplify(f: Formula, X: np.ndarray, names, labels) -> Formula:
    """Greedily delete conjuncts/disjuncts while the exact MCR over the
    batch X does not increase; repeats until no deletion is accepted. The
    candidates share their unchanged subformulas, so one trace cache scores
    each of those once for the whole call. Only f's dimension names are
    checked: a candidate drops operands of a checked formula, so its
    predicates are some of f's."""
    cache = {}
    best = exact_mcr(f, X, names, labels, cache)
    improved = True
    while improved:
        improved = False
        for g in _deletions(f):
            cache[_CHECKED, id(g)] = g
            m = exact_mcr(g, X, names, labels, cache)
            if m <= best:
                f, best = g, m
                improved = True
                break
    return f
