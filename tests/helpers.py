"""Shared test utilities: the finite-difference gradient oracle,
hand-encoding formulas into classifier params, the pinned `gen-data`
outputs, and lead-vehicle profiles for driving."""

from __future__ import annotations

import math

import numpy as np

from stlmimic.inference import InferenceParams, NetworkShape, SignalNorm
from stlmimic.params import ParamVector


class NonFiniteValue(ArithmeticError):
    """A checked evaluation produced NaN or infinity."""


def finite_diff_check(f, grad, params: ParamVector, h: float = 1e-5, kink_tol: float = 1e-3) -> float:
    """Max relative error between a hand-written gradient and central
    differences.

    `f` maps parameters of the type of `params` to a scalar, and `grad`
    maps them to the gradient of `f`, laid out like them (a ParamVector of
    the same groups). Coordinates sitting on a nondifferentiable point
    (one-sided slopes disagree, e.g. a ReLU kink) are skipped. Raises
    NonFiniteValue if any evaluation is NaN or infinite.
    """

    def value_at(p):
        v = float(f(p))
        if not math.isfinite(v):
            raise NonFiniteValue(f"objective evaluated to {v}")
        return v

    out_v = value_at(params)
    analytic = grad(params).flatten()
    base = params.flatten()
    worst = 0.0
    for i in range(base.size):
        step = np.zeros_like(base)
        step[i] = h
        fp = value_at(params.with_flat(base + step))
        fm = value_at(params.with_flat(base - step))
        central = (fp - fm) / (2.0 * h)
        fwd = (fp - out_v) / h
        bwd = (out_v - fm) / h
        if abs(fwd - bwd) > kink_tol * (1.0 + abs(fwd) + abs(bwd)):
            continue
        err = abs(analytic[i] - central) / max(1.0, abs(central))
        if err > worst:
            worst = err
    return worst


def encode_dnf(
    disjuncts,
    shape: NetworkShape,
    norm: SignalNorm,
    big: float = 30.0,
) -> InferenceParams:
    """Hand-set parameters realizing an OR of ANDs of temporal atoms.

    `disjuncts` is a list of conjunctions; each conjunction is a list of
    atoms (kind, t1, t2, coeffs, bound) with kind 'F' or 'G' and the
    predicate coeffs . x >= bound given in raw signal units. Gates are
    saturated at +-big; shared predicates reuse one slot.
    """
    hr = np.asarray(norm.halfrange)
    mid = np.asarray(norm.mid)
    pred_slots: dict = {}
    pred_w = np.zeros((shape.n_pred, shape.dim))
    pred_b = np.zeros(shape.n_pred)
    win_lo = np.zeros(shape.n_atoms)
    win_hi = np.full(shape.n_atoms, float(shape.horizon))
    gate = np.full((shape.n_conj, shape.n_atoms), -big)
    out_gate = np.full(shape.n_conj, -big)
    # park unused predicate slots on a harmless one-hot
    pred_w[:, 0] = 1.0

    if len(disjuncts) > shape.n_conj:
        raise ValueError("more conjunctions than slots")
    for c, conj in enumerate(disjuncts):
        out_gate[c] = big
        for kind, t1, t2, coeffs, bound in conj:
            key = (tuple(np.round(coeffs, 12)), round(float(bound), 12))
            if key not in pred_slots:
                k = len(pred_slots)
                if k >= shape.n_pred:
                    raise ValueError("more predicates than slots")
                pred_slots[key] = k
                c_raw = np.asarray(coeffs, dtype=float)
                pred_w[k] = c_raw * hr
                pred_b[k] = float(bound) - float(c_raw @ mid)
            k = pred_slots[key]
            j = 2 * k if kind == "F" else 2 * k + 1
            win_lo[j] = float(t1)
            win_hi[j] = float(t2)
            gate[c, j] = big
    return InferenceParams(pred_w, pred_b, win_lo, win_hi, gate, out_gate)


EQ12_DNF = [
    [
        ("F", 2, 14, (-1.0, 0.0, 0.0, 0.0), -1.5),  # dA < 1.5
        ("F", 12, 20, (0.0, 0.0, -1.0, 0.0), -0.69),  # dC < 0.69
    ],
    [
        ("F", 4, 12, (0.0, -1.0, 0.0, 0.0), -0.86),  # dB < 0.86
        ("F", 12, 20, (0.0, 0.0, -1.0, 0.0), -0.69),
    ],
]


# (env, --n, --seed, sha256 of the file) of pinned `gen-data` outputs: the
# bytes of the one-trajectory-at-a-time generators
PINNED_GEN_DATA = [
    ("driving", 8, 2, "105b720a62aed885bf795ef758124eeda199ab53d2c0f9abd11cd6120f7542eb"),
    ("driving", 40, 0, "7300dba7dd28d229586f0593a635c486f12d5d192dc95b110ecfe2c152e0c9b6"),
    ("unicycle", 6, 3, "fbae805b4abc6a0ac21951cca1b758bc454b0e36de3a22f98e89c8c11ef39c60"),
    ("unicycle", 30, 7, "4b2fcd03e64fe78207dac3c91bb5ec3f47658c6ffe767612f9f12596a321152a"),
]


def lead_profiles(env, rng, n_per_situation: int = 1) -> np.ndarray:
    """Lead-vehicle (pot, vot) profiles (4 n_per_situation, T+1, 2) of one
    driving `gen_dataset` draw, in SITUATIONS order: the lead brakes in
    the pos_ped and neg_go rows, and keeps going in the others."""
    return env.gen_dataset(n_per_situation, rng).X[:, :, env.n_agent :]
