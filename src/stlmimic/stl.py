"""Signal temporal logic over discrete-time vector signals.

Formula trees cover {TRUE, linear predicate, not, and, or, eventually,
always} with integer time windows. Quantitative semantics (robustness)
follow the usual min/max recursion; Boolean satisfaction is the sign of
robustness at t=0, with 0 counting as satisfied.

One evaluator, `robustness_trace`, maps a batch of signals to traces of
robustness per start step: and/or and each F[a,b]/G[a,b] window reduce
shifted slices of their children's traces, with the hard min/max (exact
semantics) or with `tape.smin`/`smax` at a temperature (smooth semantics,
differentiable for rule injection), as in STLCG (arXiv 1910.10309).

Everything here is a pure function over immutable values and safe to use
concurrently.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass

import numpy as np

from . import tape

# Finite stand-in for the +inf robustness of TRUE. Keeps downstream smooth
# arithmetic finite; constant, so it never enters a gradient.
TRUE_ROBUSTNESS = 1e9


class HorizonExceeded(ValueError):
    """A temporal window runs past the end of the signal."""


class DimensionMismatch(ValueError):
    """Predicate and signal disagree on dimension names or arity."""


class FormulaSyntaxError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class UnknownVariable(FormulaSyntaxError):
    pass


@dataclass(frozen=True)
class TimeInterval:
    """Inclusive window [t1, t2] in integer steps (sampling period 1)."""

    t1: int
    t2: int

    def __post_init__(self):
        if not (0 <= self.t1 <= self.t2):
            raise ValueError(f"invalid interval [{self.t1},{self.t2}]")


@dataclass(frozen=True)
class Pred:
    """Linear predicate coeffs . x(t) >= bound over named dimensions."""

    coeffs: tuple[float, ...]
    bound: float
    names: tuple[str, ...]

    def __post_init__(self):
        if len(self.coeffs) != len(self.names):
            raise DimensionMismatch(
                f"{len(self.coeffs)} coefficients for {len(self.names)} names"
            )
        if not any(c != 0.0 for c in self.coeffs):
            raise ValueError("predicate needs at least one nonzero coefficient")


@dataclass(frozen=True)
class TrueFormula:
    pass


@dataclass(frozen=True)
class Not:
    child: "Formula"


@dataclass(frozen=True)
class And:
    children: tuple["Formula", ...]

    def __post_init__(self):
        if len(self.children) < 2:
            raise ValueError("And needs at least two children")


@dataclass(frozen=True)
class Or:
    children: tuple["Formula", ...]

    def __post_init__(self):
        if len(self.children) < 2:
            raise ValueError("Or needs at least two children")


@dataclass(frozen=True)
class Eventually:
    interval: TimeInterval
    child: "Formula"


@dataclass(frozen=True)
class Always:
    interval: TimeInterval
    child: "Formula"


Formula = TrueFormula | Pred | Not | And | Or | Eventually | Always

_NODE_TYPES = (TrueFormula, Pred, Not, And, Or, Eventually, Always)


def is_formula(x) -> bool:
    return isinstance(x, _NODE_TYPES)


@dataclass(frozen=True, eq=False)
class Signal:
    """Sampled trajectory: values[t] is the state vector at step t."""

    values: np.ndarray  # (T+1, dim) float
    dim_names: tuple[str, ...]

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2 or v.shape[0] < 1:
            raise ValueError(f"signal values must be (T+1, dim), got {v.shape}")
        if v.shape[1] != len(self.dim_names):
            raise DimensionMismatch(
                f"{v.shape[1]} columns for {len(self.dim_names)} dim names"
            )
        object.__setattr__(self, "values", v)

    @property
    def horizon(self) -> int:
        return self.values.shape[0] - 1

    @property
    def dim(self) -> int:
        return self.values.shape[1]


def horizon(f: Formula) -> int:
    """Minimum signal length (in steps beyond t) needed to evaluate f."""
    if isinstance(f, (TrueFormula, Pred)):
        return 0
    if isinstance(f, Not):
        return horizon(f.child)
    if isinstance(f, (And, Or)):
        return max(horizon(c) for c in f.children)
    if isinstance(f, (Eventually, Always)):
        return f.interval.t2 + horizon(f.child)
    raise TypeError(f"not a formula: {f!r}")


def formula_names(f: Formula) -> tuple[str, ...] | None:
    """Dimension names used by f, or None if it contains no predicate."""
    if isinstance(f, Pred):
        return f.names
    if isinstance(f, TrueFormula):
        return None
    if isinstance(f, Not):
        return formula_names(f.child)
    if isinstance(f, (Eventually, Always)):
        return formula_names(f.child)
    names = None
    for c in f.children:
        n = formula_names(c)
        if n is None:
            continue
        if names is None:
            names = n
        elif names != n:
            raise DimensionMismatch(f"mixed dimension names {names} vs {n}")
    return names


def check_names(f: Formula, dim_names) -> None:
    """Raise DimensionMismatch unless f's predicates range over dim_names."""
    names = formula_names(f)
    if names is not None and names != dim_names:
        raise DimensionMismatch(f"formula over {names}, signal over {dim_names}")


def robustness_trace(X, f: Formula, tau: float | None = None):
    """Robustness of f at every start step where its windows fit.

    X is a batch (N, T+1, d) of signals in f's coordinates; returns
    (N, T+1-horizon(f)). With tau=None the semantics are exact; with a
    temperature they are smooth, and X may be a tape node.
    """
    if isinstance(f, Pred):
        # -bound, then each nonzero c_i * x_i in order: exact results keep this order.
        acc = -f.bound
        for i, c in enumerate(f.coeffs):
            if c != 0.0:
                acc = acc + c * X[:, :, i]
        return acc
    if isinstance(f, TrueFormula):
        return np.full(X.shape[:2], TRUE_ROBUSTNESS)
    if isinstance(f, Not):
        return -robustness_trace(X, f.child, tau)
    if isinstance(f, (And, Or)):
        parts = [robustness_trace(X, c, tau) for c in f.children]
        n = min(p.shape[1] for p in parts)
        return _extremum([p[:, :n] for p in parts], isinstance(f, Or), tau)
    if isinstance(f, (Eventually, Always)):
        child = robustness_trace(X, f.child, tau)
        n = child.shape[1] - f.interval.t2
        if n < 1:
            raise HorizonExceeded(
                f"formula horizon {horizon(f)} exceeds signal horizon {X.shape[1] - 1}"
            )
        parts = [child[:, u : u + n] for u in range(f.interval.t1, f.interval.t2 + 1)]
        return _extremum(parts, isinstance(f, Eventually), tau)
    raise TypeError(f"not a formula: {f!r}")


def _extremum(parts, is_max: bool, tau):
    """Elementwise max (or min) of equally shaped traces: a running hard
    fold when exact, a smooth extremum over their stack when smooth."""
    if tau is None:
        return functools.reduce(np.maximum if is_max else np.minimum, parts)
    return (tape.smax if is_max else tape.smin)(tape.stack(parts), tau, 0)


def robustness(s: Signal, f: Formula, t: int = 0) -> float:
    """Quantitative satisfaction degree of f over s, evaluated at step t."""
    check_names(f, s.dim_names)
    if t < 0 or t + horizon(f) > s.horizon:
        raise HorizonExceeded(
            f"need steps up to {t + horizon(f)}, signal ends at {s.horizon}"
        )
    return float(robustness_trace(s.values[None], f)[0, t])


def satisfies(s: Signal, f: Formula) -> bool:
    """Boolean satisfaction at t=0; robustness exactly 0 counts as satisfied."""
    return robustness(s, f, 0) >= 0.0


def conjoin(f1: Formula, f2: Formula) -> Formula:
    """Structural conjunction And(f1, f2); no algebraic simplification."""
    n1, n2 = formula_names(f1), formula_names(f2)
    if n1 is not None and n2 is not None and n1 != n2:
        raise DimensionMismatch(f"cannot conjoin formulas over {n1} and {n2}")
    return And((f1, f2))


# --- parsing ----------------------------------------------------------------
#
# formula := disj ; disj := conj ('|' conj)* ; conj := unary ('&' unary)*
# unary   := ('G'|'F') '[' INT ',' INT ']' unary | '!' unary | atom
# atom    := '(' formula ')' | pred | 'TRUE'
# pred    := linexpr CMP NUMBER ; CMP := '>=' | '>' | '<=' | '<'
# linexpr := term (('+'|'-') term)* ; term := NUMBER '*' IDENT | IDENT
#
# All four comparators canonicalize onto two forms: `>=`/`>` build a Pred,
# `<=`/`<` build Not(Pred); strictness distinctions collapse under the
# quantitative semantics.

_TOKEN_RE = re.compile(
    r"(?P<num>(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op><=|>=|[()\[\],&|!<>*+\-])"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    toks = []
    i = 0
    n = len(text)
    while i < n:
        if text[i].isspace():
            i += 1
            continue
        m = _TOKEN_RE.match(text, i)
        if m is None:
            raise FormulaSyntaxError(f"unexpected character {text[i]!r}", i)
        kind = m.lastgroup
        toks.append((kind, m.group(), i))
        i = m.end()
    toks.append(("eof", "", n))
    return toks


class _Parser:
    def __init__(self, text: str, dim_names: tuple[str, ...]):
        self.toks = _tokenize(text)
        self.pos = 0
        self.names = tuple(dim_names)

    def peek(self):
        return self.toks[self.pos]

    def next(self):
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def expect(self, value: str):
        kind, val, at = self.next()
        if val != value:
            raise FormulaSyntaxError(f"expected {value!r}, got {val or 'end'!r}", at)

    def formula(self) -> Formula:
        f = self.disj()
        kind, val, at = self.peek()
        if kind != "eof":
            raise FormulaSyntaxError(f"unexpected trailing input {val!r}", at)
        return f

    def disj(self) -> Formula:
        children = [self.conj()]
        while self.peek()[1] == "|":
            self.next()
            children.append(self.conj())
        return children[0] if len(children) == 1 else Or(tuple(children))

    def conj(self) -> Formula:
        children = [self.unary()]
        while self.peek()[1] == "&":
            self.next()
            children.append(self.unary())
        return children[0] if len(children) == 1 else And(tuple(children))

    def unary(self) -> Formula:
        kind, val, at = self.peek()
        if kind == "ident" and val in ("G", "F") and self.toks[self.pos + 1][1] == "[":
            self.next()
            self.expect("[")
            t1 = self.integer()
            self.expect(",")
            t2 = self.integer()
            self.expect("]")
            if t2 < t1:
                raise FormulaSyntaxError(f"window [{t1},{t2}] has t1 > t2", at)
            child = self.unary()
            iv = TimeInterval(t1, t2)
            return Always(iv, child) if val == "G" else Eventually(iv, child)
        if val == "!":
            self.next()
            return Not(self.unary())
        return self.atom()

    def atom(self) -> Formula:
        kind, val, at = self.peek()
        if val == "(":
            self.next()
            f = self.disj()
            self.expect(")")
            return f
        if kind == "ident" and val == "TRUE":
            self.next()
            return TrueFormula()
        return self.pred()

    def integer(self) -> int:
        kind, val, at = self.next()
        if kind != "num" or any(c in val for c in ".eE"):
            raise FormulaSyntaxError(f"expected integer, got {val or 'end'!r}", at)
        return int(val)

    def number(self) -> float:
        sign = 1.0
        if self.peek()[1] == "-":
            self.next()
            sign = -1.0
        kind, val, at = self.next()
        if kind != "num":
            raise FormulaSyntaxError(f"expected number, got {val or 'end'!r}", at)
        return sign * float(val)

    def term(self) -> tuple[float, int]:
        """One linear term; returns (coefficient, dimension index)."""
        sign = 1.0
        if self.peek()[1] == "-":
            self.next()
            sign = -1.0
        kind, val, at = self.peek()
        if kind == "num":
            self.next()
            self.expect("*")
            ikind, ident, iat = self.next()
            if ikind != "ident":
                raise FormulaSyntaxError(f"expected variable, got {ident!r}", iat)
            return sign * float(val), self._dim(ident, iat)
        if kind == "ident":
            self.next()
            return sign, self._dim(val, at)
        raise FormulaSyntaxError(f"expected term, got {val or 'end'!r}", at)

    def _dim(self, ident: str, at: int) -> int:
        try:
            return self.names.index(ident)
        except ValueError:
            raise UnknownVariable(f"unknown variable {ident!r}", at) from None

    def pred(self) -> Formula:
        coeffs = [0.0] * len(self.names)
        c, i = self.term()
        coeffs[i] += c
        while self.peek()[1] in ("+", "-"):
            op = self.next()[1]
            c, i = self.term()
            coeffs[i] += c if op == "+" else -c
        kind, cmp_op, at = self.next()
        if cmp_op not in (">=", ">", "<=", "<"):
            raise FormulaSyntaxError(f"expected comparator, got {cmp_op or 'end'!r}", at)
        bound = self.number()
        if not any(c != 0.0 for c in coeffs):
            raise FormulaSyntaxError("predicate has all-zero coefficients", at)
        p = Pred(tuple(coeffs), bound, self.names)
        return p if cmp_op in (">=", ">") else Not(p)


def parse(text: str, dim_names) -> Formula:
    """Parse formula text over the given dimension names."""
    return _Parser(text, tuple(dim_names)).formula()


# --- printing ---------------------------------------------------------------


def _fmt_num(x: float) -> str:
    r = repr(float(x))
    return r[:-2] if r.endswith(".0") else r


def _fmt_linexpr(coeffs, names) -> str:
    parts = []
    for c, name in zip(coeffs, names):
        if c == 0.0:
            continue
        mag = abs(c)
        body = name if mag == 1.0 else f"{_fmt_num(mag)}*{name}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"{'+' if c > 0 else '-'} {body}")
    return " ".join(parts)


_PREC_OR, _PREC_AND, _PREC_UNARY = 0, 1, 2


def _pf(f: Formula, level: int) -> str:
    if isinstance(f, TrueFormula):
        return "TRUE"
    if isinstance(f, Pred):
        return f"{_fmt_linexpr(f.coeffs, f.names)} >= {_fmt_num(f.bound)}"
    if isinstance(f, Not):
        if isinstance(f.child, Pred):
            p = f.child
            return f"{_fmt_linexpr(p.coeffs, p.names)} < {_fmt_num(p.bound)}"
        return f"!{_pf(f.child, _PREC_UNARY)}"
    if isinstance(f, (Eventually, Always)):
        op = "F" if isinstance(f, Eventually) else "G"
        return f"{op}[{f.interval.t1},{f.interval.t2}]({_pf(f.child, _PREC_OR)})"
    if isinstance(f, And):
        # Same-operator children keep parentheses so structure round-trips.
        body = " & ".join(
            f"({_pf(c, _PREC_OR)})" if isinstance(c, (And, Or)) else _pf(c, _PREC_AND)
            for c in f.children
        )
        return f"({body})" if level > _PREC_AND else body
    if isinstance(f, Or):
        body = " | ".join(
            f"({_pf(c, _PREC_OR)})" if isinstance(c, Or) else _pf(c, _PREC_AND + 0)
            for c in f.children
        )
        return f"({body})" if level > _PREC_OR else body
    raise TypeError(f"not a formula: {f!r}")


def print_formula(f: Formula) -> str:
    """Canonical text form; parse(print_formula(f)) is structurally f."""
    return _pf(f, _PREC_OR)
