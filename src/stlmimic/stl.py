"""STL (signal temporal logic) over discrete-time vector signals.

Formula trees cover {TRUE, linear predicate, not, and, or, eventually,
always} with integer time windows. Quantitative semantics (robustness)
follow the usual min/max recursion.

One evaluator reads a formula at t=0, the start step the paper judges a
trajectory by, over a batch (N, T+1, d) of signals. Within it each
subformula is a trace of robustness per start step, computed only over
the start steps its reader needs: and, or and not pass their range on to
every operand, a window [a,b] read at start steps [lo, hi) asks its
operand for [lo+a, hi+b), and and/or and each F[a,b]/G[a,b] window reduce
shifted slices of their operands' traces. It is the package's only STL
evaluator, with one entry per semantics. `robustness` is exact, with the
hard min/max, and takes a window read at one start step in one
reduction. It can keep traces in a cache the caller passes, so formulas
that share subformulas, such as the deletion candidates of
`inference.simplify`, compute those once. Boolean satisfaction is its
sign, with 0 counting as satisfied (`inference.exact_satisfaction`).
`smooth_robustness` is smooth, with the soft extrema `smin`/`smax` at a
temperature, as in STLCG (arXiv 1910.10309), and differentiable: it
returns the robustness with its vector-Jacobian product (VJP), a closure
from the same forward pass that maps an adjoint of it to the gradient of
the signals. The classifier in `inference` is built on the same extrema.

`operands` and `with_operands` are the one place, besides the evaluator
and the printer, that knows how each node holds its subformulas.

`parse` reads formula text and `print_formula` writes it, so that
parse(print_formula(f)) == f. One regex scan makes every token, and the
parser builds `|` and `&` with one n-ary rule, `&` binding tighter; the
printer writes both through one branch. Malformed text raises a
FormulaSyntaxError (an UnknownVariable for a name outside the dimensions),
whose `pos` is where in the text the fault is.

Everything here is a pure function over immutable values and safe to use
concurrently.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass, replace

import numpy as np

# Finite stand-in for the +inf robustness of TRUE. Keeps downstream smooth
# arithmetic finite; constant, so it never enters a gradient.
TRUE_ROBUSTNESS = 1e9


class EmptyInput(ValueError):
    """smax / smin over an axis of length zero."""


class HorizonExceeded(ValueError):
    """A temporal window runs past the end of the signal, or a signal is
    not the T+1 samples a classifier of horizon T reads."""


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


def operands(f: Formula) -> tuple[Formula, ...]:
    """The subformulas f's operator applies to, in order; none for TRUE
    and a predicate."""
    if isinstance(f, (And, Or)):
        return f.children
    return (f.child,) if isinstance(f, (Not, Eventually, Always)) else ()


def with_operands(f: Formula, ops) -> Formula:
    """f with its operands replaced by `ops`, which are as many as
    `operands(f)` gives; with_operands(f, operands(f)) == f."""
    if isinstance(f, (And, Or)):
        return type(f)(tuple(ops))
    return replace(f, child=ops[0]) if ops else f


def horizon(f: Formula) -> int:
    """Minimum signal length (in steps beyond t) needed to evaluate f."""
    own = f.interval.t2 if isinstance(f, (Eventually, Always)) else 0
    return own + max(map(horizon, operands(f)), default=0)


def formula_names(f: Formula) -> tuple[str, ...] | None:
    """Dimension names used by f, or None if it contains no predicate."""
    if isinstance(f, Pred):
        return f.names
    names = None
    for c in operands(f):
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


def _soft_extremum(a, tau, axis, sign, what, vjp):
    """Exp-weighted average of `a` along `axis`, leaning to its max (sign
    +1) or min (sign -1): sum_i w_i a_i / sum_i w_i with w = exp(sign a / tau)."""
    if tau <= 0.0:
        raise ValueError(f"temperature must be positive, got {tau}")
    a = np.asarray(a, dtype=float)
    if a.shape[axis] == 0:
        raise EmptyInput(f"{what} of no values")
    # w in one buffer: each temporary of a large batch would be a fresh mmap
    w = a - a.max(axis=axis, keepdims=True) if sign > 0 else a.min(axis=axis, keepdims=True) - a
    w /= tau
    np.exp(w, out=w)
    if not vjp:
        z = w.sum(axis=axis)
        w *= a
        return w.sum(axis=axis) / z
    # z and s keep the reduced axis, so that they broadcast against a
    z = w.sum(axis=axis, keepdims=True)
    s = (w * a).sum(axis=axis, keepdims=True) / z

    def grad(g):
        dev = (a - s) / tau
        partial = (w / z) * (1.0 + dev if sign > 0 else 1.0 - dev)
        return np.reshape(g, s.shape) * partial

    return s.squeeze(axis), grad


def smax(a, tau: float, axis: int, vjp: bool = False):
    """Softmax-weighted average along `axis`; bounded by min and max and
    tends to the max as tau -> 0. With vjp, (value, grad) where grad maps
    an adjoint of the value to one of `a`."""
    return _soft_extremum(a, tau, axis, +1, "smax", vjp)


def smin(a, tau: float, axis: int, vjp: bool = False):
    """-smax(-a): tends to the min as tau -> 0."""
    return _soft_extremum(a, tau, axis, -1, "smin", vjp)


def robustness(X, f: Formula, *, cache: dict | None = None):
    """Exact robustness of f at t=0 of each signal of the batch X (N, T+1, d)
    in f's coordinates, as an (N,) array.

    `cache`, a dict the caller makes for one X, keeps the trace of f and of
    every operand of an and/or within f, except an and/or, keyed by the
    subformula object (which it keeps alive) and the range of start steps
    computed. Formulas that share those objects, such as the deletion
    candidates of `inference.simplify`, compute each once per range; an
    and/or is recomputed from its operands. Cached traces are the same bits
    as uncached ones; the values returned may be a view of one, so they
    must not be modified.
    """
    return _at_start(X, f, None, cache)[0][:, 0]


def smooth_robustness(X, f: Formula, tau: float):
    """Smooth robustness of f at temperature tau at t=0 of each signal of X,
    as ((N,) values, grad), where grad maps an (N,) adjoint of the values to
    the gradient with respect to X."""
    at_0, back = _at_start(X, f, tau, None)

    def grad(g):
        gX = np.zeros(np.shape(X))
        back(g[:, None], gX)
        return gX

    return at_0[:, 0], grad


def _at_start(X, f: Formula, tau, cache):
    """`_kept` of f at start step 0 of the signals X. If f's windows do not
    fit, a HorizonExceeded naming the window a bottom-up evaluation meets
    first: the first subformula, in post-order, whose horizon exceeds T."""
    try:
        return _kept(X, f, tau, cache, 0, 1)
    except HorizonExceeded:
        pass
    T = np.shape(X)[1] - 1
    while over := [c for c in operands(f) if horizon(c) > T]:
        f = over[0]
    raise HorizonExceeded(f"formula horizon {horizon(f)} exceeds signal horizon {T}")


def _kept(X, f: Formula, tau, cache, lo, hi):
    """`_trace` of f over [lo, hi), taken from the cache or stored in it
    when a cache is given (exact traces only) and f is not an and/or."""
    if cache is None or isinstance(f, (And, Or)):
        return _trace(X, f, tau, cache, lo, hi)
    key = (id(f), lo, hi)
    if key not in cache:
        cache[key] = (f, _trace(X, f, tau, cache, lo, hi)[0])
    return cache[key][1], None


def _trace(X, f: Formula, tau, cache, lo, hi):
    """The trace of f at start steps [lo, hi), exact when tau is None, else
    smooth at temperature tau, and the backward step of a smooth trace
    (None for an exact one): back(g, gX) adds the gradient of the trace,
    weighted by an adjoint g of its shape, into gX. A window that does not
    fit raises a bare HorizonExceeded, which the entries name.

    Under both semantics not, and and or pass their range to every operand,
    and F/G[a,b] ask theirs for [lo+a, hi+b); so the operands of an and/or
    have its shape, and a backward step hands each operand an adjoint of
    that operand's shape. A backward step keeps the shapes of the traces it
    reduced, not the traces. The cache is passed down to the operands of
    each and/or (`_kept`); every other trace computed here is new, so an
    exact one may be changed in place."""
    if hi > X.shape[1]:
        raise HorizonExceeded
    if isinstance(f, Pred):
        # -bound, then each nonzero c_i * x_i in order: exact results keep this order.
        acc = -f.bound
        for i, c in enumerate(f.coeffs):
            if c != 0.0:
                acc = acc + c * X[:, lo:hi, i]
        if tau is None:
            return acc, None

        def back(g, gX):
            for i, c in enumerate(f.coeffs):
                if c != 0.0:
                    gX[:, lo:hi, i] += c * g

        return acc, back
    if isinstance(f, TrueFormula):
        return np.full(X[:, lo:hi].shape[:2], TRUE_ROBUSTNESS), None if tau is None else (lambda g, gX: None)
    if isinstance(f, Not):
        child, child_back = _trace(X, f.child, tau, cache, lo, hi)
        if tau is None:  # nothing else reads the child's trace
            return np.negative(child, out=child), None
        return -child, lambda g, gX: child_back(-g, gX)
    if isinstance(f, (And, Or)):
        traces, backs = zip(*(_kept(X, c, tau, cache, lo, hi) for c in f.children))
        out, ext_back = _extremum(traces, isinstance(f, Or), tau)
        if tau is None:
            return out, None

        def back(g, gX):
            for child_back, gp in zip(backs, ext_back(g)):
                child_back(gp, gX)

        return out, back
    if isinstance(f, (Eventually, Always)):
        a, b = f.interval.t1, f.interval.t2
        is_max = isinstance(f, Eventually)
        # start step lo+j reads the operand's columns j..j+b-a
        child, child_back = _trace(X, f.child, tau, cache, lo + a, hi + b)
        n = hi - lo
        if tau is None and n == 1:
            return (np.maximum if is_max else np.minimum).reduce(child, axis=1, keepdims=True), None
        shifts = range(b - a + 1)
        out, ext_back = _extremum([child[:, u : u + n] for u in shifts], is_max, tau)
        if tau is None:
            return out, None
        child_shape = child.shape

        def back(g, gX):
            gc = np.zeros(child_shape)
            for u, gp in zip(shifts, ext_back(g)):
                gc[:, u : u + n] += gp
            child_back(gc, gX)

        return out, back
    raise TypeError(f"not a formula: {f!r}")


def _extremum(parts, is_max: bool, tau):
    """Elementwise max (or min) of equally shaped traces: a running hard
    fold when exact (no VJP), a smooth extremum over their stack, with its
    VJP over the stack, when smooth."""
    if tau is None:
        return functools.reduce(np.maximum if is_max else np.minimum, parts), None
    return (smax if is_max else smin)(np.stack(parts), tau, 0, True)


def conjoin(f1: Formula, f2: Formula) -> Formula:
    """Structural conjunction And(f1, f2); no algebraic simplification."""
    n1, n2 = formula_names(f1), formula_names(f2)
    if n1 is not None and n2 is not None and n1 != n2:
        raise DimensionMismatch(f"cannot conjoin formulas over {n1} and {n2}")
    return And((f1, f2))


# --- parsing ----------------------------------------------------------------
#
# One regex scan makes every token. Whitespace separates tokens, and the
# first character that starts no token is an error, whatever follows it.
# Numbers take the ASCII digits 0-9 alone, so any other digit is such a
# character.
#
# formula := nary('|') ; nary(op) := operand (op operand)*, where an operand
#            of '|' is nary('&') and one of '&' is unary
# unary   := ('G'|'F') '[' INT ',' INT ']' unary | '!' unary
#          | '(' formula ')' | 'TRUE' | pred
# pred    := linexpr CMP number ; CMP := '>=' | '>' | '<=' | '<'
# linexpr := term (('+'|'-') term)* ; term := ['-'] NUMBER '*' IDENT | ['-'] IDENT
# number  := ['-'] NUMBER
#
# All four comparators canonicalize onto two forms: `>=`/`>` build a Pred,
# `<=`/`<` build Not(Pred); strictness distinctions collapse under the
# quantitative semantics.

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:[0-9]+\.[0-9]*|\.[0-9]+|[0-9]+)(?:[eE][+-]?[0-9]+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op><=|>=|[()\[\],&|!<>*+\-])"
    r"|(?P<bad>\S)(?s:.*))"  # a stray character takes the rest: it is the last token
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """The (kind, value, position) of each token of text, then ("eof", "", len(text))."""
    toks = [(k := m.lastgroup, m[k], m.start(k)) for m in _TOKEN_RE.finditer(text)]
    if toks and toks[-1][0] == "bad":
        raise FormulaSyntaxError(f"unexpected character {toks[-1][1]!r}", toks[-1][2])
    return toks + [("eof", "", len(text))]


class _Parser:
    def __init__(self, text: str, names: tuple[str, ...]):
        self.toks = _tokenize(text)
        self.pos = 0
        self.names = names

    def next(self):
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def expect(self, value: str):
        kind, val, at = self.next()
        if val != value:
            raise FormulaSyntaxError(f"expected {value!r}, got {val or 'end'!r}", at)

    def formula(self) -> Formula:
        f = self.nary("|")
        kind, val, at = self.toks[self.pos]
        if kind != "eof":
            raise FormulaSyntaxError(f"unexpected trailing input {val!r}", at)
        return f

    def nary(self, op: str) -> Formula:
        """Operands joined by `op`: `|` joins `&` formulas, `&` joins unary ones."""
        children = [self.nary("&") if op == "|" else self.unary()]
        while self.toks[self.pos][1] == op:
            self.pos += 1
            children.append(self.nary("&") if op == "|" else self.unary())
        return children[0] if len(children) == 1 else (Or if op == "|" else And)(tuple(children))

    def unary(self) -> Formula:
        kind, val, at = self.toks[self.pos]
        if val in ("G", "F") and self.toks[self.pos + 1][1] == "[":
            self.pos += 2
            t1 = self.integer()
            self.expect(",")
            t2 = self.integer()
            self.expect("]")
            if t2 < t1:
                raise FormulaSyntaxError(f"window [{t1},{t2}] has t1 > t2", at)
            return (Always if val == "G" else Eventually)(TimeInterval(t1, t2), self.unary())
        if val not in ("!", "(", "TRUE"):
            return self.pred()
        self.pos += 1
        if val == "!":
            return Not(self.unary())
        if val == "TRUE":
            return TrueFormula()
        f = self.nary("|")
        self.expect(")")
        return f

    def integer(self) -> int:
        kind, val, at = self.next()
        if not val.isdecimal():
            raise FormulaSyntaxError(f"expected integer, got {val or 'end'!r}", at)
        return int(val)

    def signed(self) -> tuple[float, str, str, int]:
        """The next token after an optional '-', led by the sign: (sign, kind, value, position)."""
        tok = self.next()
        return (-1.0, *self.next()) if tok[1] == "-" else (1.0, *tok)

    def number(self, sign: float, kind: str, val: str, at: int) -> float:
        """sign times the NUMBER token val, which must be finite."""
        if kind != "num":
            raise FormulaSyntaxError(f"expected number, got {val or 'end'!r}", at)
        return sign * _finite(float(val), f"number {val!r}", at)

    def term(self) -> tuple[float, int]:
        """One linear term; returns (coefficient, dimension index)."""
        sign, kind, val, at = self.signed()
        if kind == "ident":
            return sign, self._dim(val, at)
        if kind != "num":
            raise FormulaSyntaxError(f"expected term, got {val or 'end'!r}", at)
        self.expect("*")
        ikind, ident, iat = self.next()
        if ikind != "ident":
            raise FormulaSyntaxError(f"expected variable, got {ident!r}", iat)
        return self.number(sign, kind, val, at), self._dim(ident, iat)

    def _dim(self, ident: str, at: int) -> int:
        try:
            return self.names.index(ident)
        except ValueError:
            raise UnknownVariable(f"unknown variable {ident!r}", at) from None

    def pred(self) -> Formula:
        coeffs = [0.0] * len(self.names)
        op = "+"
        while op in ("+", "-"):
            at = self.toks[self.pos][2]
            c, i = self.term()
            coeffs[i] = _finite(coeffs[i] + (c if op == "+" else -c), f"the coefficient of {self.names[i]!r}", at)
            kind, op, at = self.next()
        if op not in (">=", ">", "<=", "<"):
            raise FormulaSyntaxError(f"expected comparator, got {op or 'end'!r}", at)
        bound = self.number(*self.signed())
        if not any(coeffs):
            raise FormulaSyntaxError("predicate has all-zero coefficients", at)
        p = Pred(tuple(coeffs), bound, self.names)
        return p if op in (">=", ">") else Not(p)


def _finite(x: float, what: str, at: int) -> float:
    """x, unless it overflowed to infinity: then a FormulaSyntaxError at `at`."""
    if not math.isfinite(x):
        raise FormulaSyntaxError(f"{what} is not finite", at)
    return x


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
            return f"{_fmt_linexpr(p.coeffs, p.names)} <= {_fmt_num(p.bound)}"
        return f"!{_pf(f.child, _PREC_UNARY)}"
    if isinstance(f, (Eventually, Always)):
        op = "F" if isinstance(f, Eventually) else "G"
        return f"{op}[{f.interval.t1},{f.interval.t2}]({_pf(f.child, _PREC_OR)})"
    if isinstance(f, (And, Or)):
        # Children print one level above f's own, so a same-operator child
        # keeps its parentheses and structure round-trips.
        sep, prec = (" & ", _PREC_AND) if isinstance(f, And) else (" | ", _PREC_OR)
        body = sep.join(_pf(c, prec + 1) for c in f.children)
        return f"({body})" if level > prec else body
    raise TypeError(f"not a formula: {f!r}")


def print_formula(f: Formula) -> str:
    """Canonical text form; parse(print_formula(f)) is structurally f."""
    return _pf(f, _PREC_OR)
