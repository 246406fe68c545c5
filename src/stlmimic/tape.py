"""Reverse-mode automatic differentiation over ndarrays.

A `Node` holds an array value, its parent nodes and a closure giving the
vector-Jacobian product (VJP) of the op that made it, with numpy
broadcasting undone. `backward` runs one reverse sweep in creation order,
which is topological by construction. Every op accepts plain arrays and
numbers alongside nodes: with no node among its operands it returns a
plain ndarray and records nothing, and with one it computes the same value
by the same numpy call. So each classifier and STL layer is written once
and serves both value-only evaluation and differentiation. A caller may
also record a whole computation as one node with a hand-written VJP, as
`envs.rollout` does for the closed loop of dynamics and policy.

`ParamVector` is the one parameter type: `inference.InferenceParams` and
`policy.PolicyParams` derive from it, and each states its group shapes
once, in `group_shapes`. It flattens itself for annealing and Adam, is
rebuilt from a flat vector as views, becomes tape leaves for a gradient,
and reads and writes its checkpoint groups.

Graphs are single-owner while being built and swept; independent graphs
may live on different threads.
"""

from __future__ import annotations

import builtins
import itertools
import math
from operator import attrgetter

import numpy as np


class EmptyInput(ValueError):
    """smax / smin over an axis of length zero."""


class NonFiniteValue(ArithmeticError):
    """A checked evaluation produced NaN or infinity."""


_COUNTER = itertools.count()
_BY_IDX = attrgetter("_idx")


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum g over the axes numpy broadcast to reach `shape`."""
    if g.shape == shape:
        return g
    g = g.sum(axis=tuple(range(g.ndim - len(shape)))) if g.ndim > len(shape) else g
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


class Node:
    """An array value on the tape."""

    __slots__ = ("value", "grad", "_parents", "_vjp", "_idx")
    __array_ufunc__ = None  # ndarray operators defer to the reflected methods

    def __init__(self, value, _parents=(), _vjp=None):
        self.value = np.asarray(value, dtype=float)
        self.grad = 0.0
        self._parents = _parents
        self._vjp = _vjp  # g -> one gradient per parent
        self._idx = next(_COUNTER)

    def __repr__(self):
        return f"Node({self.value!r})"

    @property
    def shape(self) -> tuple:
        return self.value.shape

    @property
    def T(self) -> "Node":
        return transpose(self)

    def __add__(self, other):
        return _binary(self, other, np.add, lambda g, a, b: (g, g))

    def __radd__(self, other):
        return _binary(other, self, np.add, lambda g, a, b: (g, g))

    def __sub__(self, other):
        return _binary(self, other, np.subtract, lambda g, a, b: (g, -g))

    def __rsub__(self, other):
        return _binary(other, self, np.subtract, lambda g, a, b: (g, -g))

    def __mul__(self, other):
        return _binary(self, other, np.multiply, lambda g, a, b: (g * b, g * a))

    def __rmul__(self, other):
        return _binary(other, self, np.multiply, lambda g, a, b: (g * b, g * a))

    def __truediv__(self, other):
        if isinstance(other, Node):
            raise TypeError("the tape divides by constants only")
        return _binary(self, other, np.true_divide, lambda g, a, b: (g / b, None))

    def __neg__(self):
        return Node(-self.value, (self,), lambda g: (-g,))

    def __matmul__(self, other):
        return _matmul(self, other)

    def __rmatmul__(self, other):
        return _matmul(other, self)

    def __getitem__(self, idx):
        shape = self.value.shape
        basic = all(_is_basic(i) for i in (idx if isinstance(idx, tuple) else (idx,)))

        def vjp(g):
            out = np.zeros(shape)
            if basic:  # a view: no element is selected twice
                out[idx] += g
            else:
                np.add.at(out, idx, g)
            return (out,)

        return Node(self.value[idx], (self,), vjp)


def _is_basic(i) -> bool:
    return i is None or i is Ellipsis or isinstance(i, (int, np.integer, slice))


def value(x):
    """The array behind a node, or x itself."""
    return x.value if isinstance(x, Node) else x


def asarray(x):
    """Nodes pass through; anything else becomes a float ndarray."""
    return x if isinstance(x, Node) else np.asarray(x, dtype=float)


def _binary(a, b, op, partials):
    """op(a, b) with at least one node operand; `partials(g, a, b)` gives
    the gradients of both operands before broadcasting is undone."""
    av, bv = value(a), value(b)
    is_node = (isinstance(a, Node), isinstance(b, Node))

    def vjp(g):
        grads = zip(partials(g, av, bv), (av, bv), is_node)
        return [_unbroadcast(gx, np.shape(xv)) for gx, xv, node in grads if node]

    return Node(op(av, bv), tuple(x for x in (a, b) if isinstance(x, Node)), vjp)


def _matmul(a, b):
    """a @ b with at least one node operand, for a of shape (..., k) or (k,)
    and b of shape (k, m) or (k,)."""
    av, bv = np.asarray(value(a), dtype=float), np.asarray(value(b), dtype=float)
    if bv.ndim > 2:
        raise NotImplementedError("the tape's matmul takes a matrix or vector on the right")
    k = av.shape[-1]

    def vjp(g):
        grads = []
        if isinstance(a, Node):
            grads.append(g[..., None] * bv if bv.ndim == 1 else g @ bv.T)
        if isinstance(b, Node):
            if bv.ndim == 1:
                grads.append(np.tensordot(g, av, axes=g.ndim))
            else:
                grads.append(av.reshape(-1, k).T @ g.reshape(-1, bv.shape[1]))
        return grads

    return Node(av @ bv, tuple(x for x in (a, b) if isinstance(x, Node)), vjp)


def _unary(x, fn, local):
    """fn(x); `local(x_value, out)` is the elementwise derivative."""
    if not isinstance(x, Node):
        return fn(np.asarray(x, dtype=float))
    xv = x.value
    out = fn(xv)
    return Node(out, (x,), lambda g: (g * local(xv, out),))


def _sigmoid_value(z):
    return 0.5 * (1.0 + np.tanh(0.5 * z))


def _sqrt_slope(x, r):
    # At 0 the slope is taken as 0, a subgradient of the norms built on it.
    return np.divide(0.5, r, out=np.zeros_like(r), where=r > 0.0)


def sigmoid(x):
    return _unary(x, _sigmoid_value, lambda x, s: s * (1.0 - s))


def sqrt(x):
    return _unary(x, np.sqrt, _sqrt_slope)


def relu(x):
    # Subgradient at the kink is taken as 0.
    return _unary(x, lambda v: np.maximum(v, 0.0), lambda x, r: (x > 0.0).astype(float))


def transpose(x, axes=None):
    if not isinstance(x, Node):
        return np.transpose(x, axes)
    inverse = None if axes is None else np.argsort(axes)
    return Node(np.transpose(x.value, axes), (x,), lambda g: (np.transpose(g, inverse),))


def sum(x, axis=None):
    if not isinstance(x, Node):
        return np.sum(x, axis=axis)
    shape = x.shape

    def vjp(g):
        g = g if axis is None else np.expand_dims(g, axis)
        return (np.broadcast_to(g, shape),)

    return Node(np.sum(x.value, axis=axis), (x,), vjp)


def mean(x, axis=None):
    v = value(x)
    return sum(x, axis) / (np.size(v) if axis is None else np.shape(v)[axis])


def _join(xs, axis, join, split):
    """join(xs) with a VJP that splits the gradient back to the node operands."""
    vals = [value(x) for x in xs]
    out = join(vals, axis=axis)
    is_node = [isinstance(x, Node) for x in xs]
    if not any(is_node):
        return out

    def vjp(g):
        return [part for part, node in zip(split(g, vals), is_node) if node]

    return Node(out, tuple(x for x in xs if isinstance(x, Node)), vjp)


def stack(xs, axis=0):
    return _join(xs, axis, np.stack, lambda g, vals: [np.take(g, i, axis=axis) for i in range(len(vals))])


def concatenate(xs, axis=0):
    def split(g, vals):
        ends = np.cumsum([v.shape[axis] for v in vals])[:-1]
        return np.split(g, ends, axis=axis)

    return _join(xs, axis, np.concatenate, split)


def _soft_extremum(a, tau, axis, sign, what):
    """Exp-weighted average of `a` along `axis`, leaning to its max (sign
    +1) or min (sign -1): sum_i w_i a_i / sum_i w_i with w = exp(sign a / tau)."""
    if tau <= 0.0:
        raise ValueError(f"temperature must be positive, got {tau}")
    av = np.asarray(value(a), dtype=float)
    if av.shape[axis] == 0:
        raise EmptyInput(f"{what} of no values")
    m = av.max(axis=axis, keepdims=True) if sign > 0 else av.min(axis=axis, keepdims=True)
    # w in one buffer: each temporary of a large batch would be a fresh mmap
    w = av - m
    if sign < 0:
        np.negative(w, out=w)
    w /= tau
    np.exp(w, out=w)
    z = w.sum(axis=axis)
    if not isinstance(a, Node):
        w *= av
        return w.sum(axis=axis) / z
    s = (w * av).sum(axis=axis) / z

    def vjp(g):
        dev = (av - np.expand_dims(s, axis)) / tau
        partial = (w / np.expand_dims(z, axis)) * (1.0 + dev if sign > 0 else 1.0 - dev)
        return (np.expand_dims(g, axis) * partial,)

    return Node(s, (a,), vjp)


def smax(a, tau: float, axis: int):
    """Softmax-weighted average along `axis`; bounded by min and max and
    tends to the max as tau -> 0."""
    return _soft_extremum(a, tau, axis, +1, "smax")


def smin(a, tau: float, axis: int):
    """-smax(-a): tends to the min as tau -> 0."""
    return _soft_extremum(a, tau, axis, -1, "smin")


def backward(out: Node) -> None:
    """Populate .grad on every node reachable from `out`.

    The sweep runs in reverse creation order (a topological order for any
    graph built through the ops above) with fixed-order accumulation, so
    identical graphs give bit-identical gradients. Expects a freshly built
    graph whose grads are still zero.
    """
    visited = {id(out)}
    stack_ = [out]
    nodes = [out]
    while stack_:
        for p in stack_.pop()._parents:
            if id(p) not in visited:
                visited.add(id(p))
                stack_.append(p)
                nodes.append(p)
    nodes.sort(key=_BY_IDX, reverse=True)
    out.grad = np.ones_like(out.value)
    for node in nodes:
        if node._vjp is None:
            continue
        for p, g in zip(node._parents, node._vjp(node.grad)):
            p.grad = p.grad + g


def layout(shapes: dict) -> dict[str, slice]:
    """Each group's slice of the flat vector of the groups `shapes` names
    (name -> array shape), raveled one after another in that order."""
    spans, i = {}, 0
    for name, shape in shapes.items():
        spans[name] = slice(i, i + math.prod(shape))
        i = spans[name].stop
    return spans


class ParamVector:
    """Named parameter arrays, flattened in the order they were set: a
    model's dataclass fields, or the ad-hoc groups of `ParamVector(w=...)`."""

    def __init__(self, **groups):
        vars(self).update(groups)

    def flatten(self) -> np.ndarray:
        """A new vector of every group, raveled, in order."""
        return np.concatenate([np.ravel(a) for a in vars(self).values()])

    def with_flat(self, flat) -> "ParamVector":
        """The same type laid out like self, each group a view of `flat`."""
        flat = np.asarray(flat, dtype=float)
        size = builtins.sum(a.size for a in vars(self).values())
        if flat.shape != (size,):
            raise ValueError(f"expected {size} entries, got shape {flat.shape}")
        groups, i = {}, 0
        for k, a in vars(self).items():
            groups[k] = flat[i : i + a.size].reshape(a.shape)
            i += a.size
        return type(self)(**groups)

    def leaves(self) -> "ParamVector":
        """The same type with one tape leaf per group."""
        return type(self)(**{k: Node(a) for k, a in vars(self).items()})

    def grads(self) -> np.ndarray:
        """The flat gradient collected from a leaves() structure after backward()."""
        return np.concatenate([np.broadcast_to(n.grad, n.shape).ravel() for n in vars(self).values()])

    def to_jsonable(self) -> dict:
        return {k: a.tolist() for k, a in vars(self).items()}

    @classmethod
    def from_jsonable(cls, obj, shapes: dict) -> "ParamVector":
        """Inverse of to_jsonable for an object holding exactly the groups
        `shapes` names, each finite numbers of its shape; any other raises
        a ValueError naming the group."""
        if not isinstance(obj, dict):
            raise ValueError(f"expected the groups {list(shapes)}, got a {type(obj).__name__}")
        unknown = set(obj) - set(shapes)
        if unknown:
            raise ValueError(f"unknown group {sorted(unknown)[0]}; expected {list(shapes)}")
        groups = {}
        for name, want in shapes.items():
            try:
                groups[name] = np.array(obj[name], dtype=float)
                ok = groups[name].shape == tuple(want) and np.isfinite(groups[name]).all()
            except (KeyError, TypeError, ValueError):
                ok = False
            if not ok:
                raise ValueError(f"group {name} must be finite numbers of shape {tuple(want)}")
        return cls(**groups)


def finite_diff_check(f, params: ParamVector, h: float = 1e-5, kink_tol: float = 1e-3) -> float:
    """Max relative error between backward() and central differences.

    `f` maps parameters of the type of `params` to a scalar (node or
    number): once with tape leaves for backward(), then with plain arrays
    for the differences. Coordinates sitting on a nondifferentiable point
    (one-sided slopes disagree, e.g. a ReLU kink) are skipped. Raises
    NonFiniteValue if any evaluation is NaN or infinite.
    """
    leaves = params.leaves()
    out = f(leaves)
    out_v = float(value(out))
    if not math.isfinite(out_v):
        raise NonFiniteValue(f"objective evaluated to {out_v}")
    base = params.flatten()
    if isinstance(out, Node):
        backward(out)
        analytic = leaves.grads()
    else:
        analytic = np.zeros(base.size)

    def value_at(vec):
        v = float(value(f(params.with_flat(vec))))
        if not math.isfinite(v):
            raise NonFiniteValue(f"objective evaluated to {v}")
        return v

    worst = 0.0
    for i in range(base.size):
        step = np.zeros_like(base)
        step[i] = h
        fp = value_at(base + step)
        fm = value_at(base - step)
        central = (fp - fm) / (2.0 * h)
        fwd = (fp - out_v) / h
        bwd = (out_v - fm) / h
        if abs(fwd - bwd) > kink_tol * (1.0 + abs(fwd) + abs(bwd)):
            continue
        err = abs(analytic[i] - central) / max(1.0, abs(central))
        if err > worst:
            worst = err
    return worst
