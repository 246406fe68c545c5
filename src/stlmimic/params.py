"""Named parameter arrays that flatten to one vector.

`ParamVector` is the one parameter type: `inference.InferenceParams` and
`policy.PolicyParams` derive from it, and each states its group shapes
once, in `group_shapes`. It flattens itself for annealing and Adam, is
rebuilt from a flat vector as views, and reads and writes its checkpoint
groups. A gradient is a `ParamVector` of the same type, so it flattens in
the same order as the parameters it belongs to.
"""

from __future__ import annotations

import math

import numpy as np


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
        size = sum(a.size for a in vars(self).values())
        if flat.shape != (size,):
            raise ValueError(f"expected {size} entries, got shape {flat.shape}")
        groups, i = {}, 0
        for k, a in vars(self).items():
            groups[k] = flat[i : i + a.size].reshape(a.shape)
            i += a.size
        return type(self)(**groups)

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
