"""Persistence: labeled trajectory datasets (JSON-Lines), training
checkpoints (single JSON documents) and rollout CSV exports.

A checkpoint names the dataset it was trained on and records its digest:
the first 16 hex digits of the sha256 of the dataset file's bytes, as
`save_dataset` returns them, so `sha256sum FILE | cut -c1-16` checks the
pairing. Config digests are FNV-1a over the canonical JSON."""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
from dataclasses import dataclass, field, fields

import numpy as np

CHECKPOINT_VERSION = 1


class ParseError(ValueError):
    """Malformed dataset or checkpoint file."""


class InconsistentHorizon(ValueError):
    """Trajectory lengths differ within one dataset."""


class VersionMismatch(ValueError):
    """Checkpoint written by an incompatible format version."""


class IoError(OSError):
    pass


@dataclass
class LabeledTrajectory:
    id: str
    label: int  # +1 expert-like, -1 incorrect behavior
    agent: np.ndarray  # (T+1, n_a)
    env: np.ndarray  # (T+1, n_e); n_e may be 0
    agent_names: tuple[str, ...]
    env_names: tuple[str, ...]
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.agent = np.asarray(self.agent, dtype=float)
        if self.env is None or np.asarray(self.env).size == 0:
            self.env = np.zeros((self.agent.shape[0], 0))
        else:
            self.env = np.asarray(self.env, dtype=float)
        if self.label not in (1, -1):
            raise ParseError(f"label must be +1 or -1, got {self.label}")
        if self.agent.ndim != 2 or self.env.ndim != 2:
            raise ParseError("state blocks must be 2-d arrays")
        if self.env.shape[0] != self.agent.shape[0]:
            raise InconsistentHorizon(
                f"agent has {self.agent.shape[0]} steps, env {self.env.shape[0]}"
            )
        if self.agent.shape[1] != len(self.agent_names):
            raise ParseError("agent_names do not match agent state width")
        if self.env.shape[1] != len(self.env_names):
            raise ParseError("env_names do not match env state width")

    @property
    def horizon(self) -> int:
        return self.agent.shape[0] - 1

    @property
    def dim_names(self) -> tuple[str, ...]:
        return tuple(self.agent_names) + tuple(self.env_names)

    def full(self) -> np.ndarray:
        return np.concatenate([self.agent, self.env], axis=1)


@dataclass
class Dataset:
    trajectories: list[LabeledTrajectory]

    def __post_init__(self):
        if self.trajectories:
            t0 = self.trajectories[0]
            for t in self.trajectories[1:]:
                if t.horizon != t0.horizon:
                    raise InconsistentHorizon(
                        f"{t.id}: horizon {t.horizon} != {t0.horizon}"
                    )
                if t.dim_names != t0.dim_names:
                    raise ParseError(f"{t.id}: dimension names differ")

    def __len__(self) -> int:
        return len(self.trajectories)

    def __iter__(self):
        return iter(self.trajectories)

    @property
    def horizon(self) -> int:
        return self.trajectories[0].horizon

    @property
    def dim_names(self) -> tuple[str, ...]:
        return self.trajectories[0].dim_names

    def labels(self) -> np.ndarray:
        return np.array([t.label for t in self.trajectories])

    def to_array(self) -> np.ndarray:
        """(N, T+1, D) stack of full state signals."""
        return np.stack([t.full() for t in self.trajectories])

    def count(self, label: int) -> int:
        return sum(1 for t in self.trajectories if t.label == label)

    def extended(self, more) -> "Dataset":
        return Dataset(self.trajectories + list(more))


def _traj_to_obj(t: LabeledTrajectory) -> dict:
    return {
        "id": t.id,
        "label": t.label,
        "agent_dims": list(t.agent_names),
        "env_dims": list(t.env_names),
        "dt": 1,
        "agent_states": t.agent.tolist(),
        "env_states": t.env.tolist(),
        "meta": t.meta,
    }


def save_dataset(ds: Dataset, path: str) -> str:
    """One JSON object per line; float round-trip precision. Returns the
    dataset digest: the first 16 hex digits of the sha256 of the bytes
    written."""
    h = hashlib.sha256()
    with open(path, "wb") as fh:
        for t in ds:
            line = (json.dumps(_traj_to_obj(t), sort_keys=True) + "\n").encode("utf-8")
            fh.write(line)
            h.update(line)
    return h.hexdigest()[:16]


def open_input(path: str, what: str):
    """Open an input file for reading bytes; any OSError (missing, a
    directory, unreadable) becomes a ParseError naming the file."""
    try:
        return open(path, "rb")
    except OSError as exc:
        raise ParseError(f"{path}: cannot read {what}: {exc.strerror}") from exc


def read_text(path: str, what: str) -> str:
    """A whole input file as text; a file that cannot be read or is not
    UTF-8 raises a ParseError naming it."""
    with open_input(path, what) as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: cannot read {what}: not UTF-8 text ({exc})") from exc


def load_dataset(path: str) -> Dataset:
    """Read a dataset line by line, so only one line's text is held at a
    time; a bad line, including one that is not UTF-8, raises a ParseError
    naming the file and the line."""
    trajectories = []
    with open_input(path, "dataset") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line.decode("utf-8"))
                traj = LabeledTrajectory(
                    id=str(obj["id"]),
                    label=int(obj["label"]),
                    agent=np.array(obj["agent_states"], dtype=float),
                    env=np.array(obj.get("env_states") or np.zeros((len(obj["agent_states"]), 0))),
                    agent_names=tuple(obj["agent_dims"]),
                    env_names=tuple(obj.get("env_dims") or ()),
                    meta=obj.get("meta") or {},
                )
                if not (np.isfinite(traj.agent).all() and np.isfinite(traj.env).all()):
                    raise ValueError("non-finite value in agent_states or env_states")
            except InconsistentHorizon:
                raise
            except (KeyError, TypeError, ValueError) as exc:
                raise ParseError(f"{path}:{lineno}: {exc}") from exc
            trajectories.append(traj)
    return Dataset(trajectories)  # Dataset validates cross-line consistency


def fnv1a_hex(data: bytes) -> str:
    h = 0xCBF29CE484222325
    for b in data:
        h ^= b
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return f"{h:016x}"


def config_digest(config: dict) -> str:
    return fnv1a_hex(json.dumps(config, sort_keys=True).encode("utf-8"))


@dataclass
class Checkpoint:
    """Everything needed to resume or evaluate a run."""

    env: dict
    shape: dict
    inference_groups: dict
    margin: float
    policy_groups: dict
    norm: dict
    rule_text: str | None
    gan_iteration: int
    rng_state: dict | None
    dataset_digest: str  # save_dataset's digest of the dataset file named in extra
    config: dict
    extra: dict = field(default_factory=dict)
    version: int = CHECKPOINT_VERSION


def save_checkpoint(ck: Checkpoint, path: str) -> None:
    # shallow: dataclasses.asdict would deep-copy every parameter list
    obj = {f.name: getattr(ck, f.name) for f in fields(Checkpoint)}
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(obj, sort_keys=True))  # json.dump never uses the C encoder
    os.replace(tmp, path)


# what each annotation of a dataclass field admits in a loaded JSON document
_FIELD_TYPES = {
    "dict": dict,
    "dict | None": (dict, type(None)),
    "str": str,
    "str | None": (str, type(None)),
    "float": (int, float),  # a JSON integer is a valid float
    "int": int,
}


def admits(annotation: str, value) -> bool:
    """Whether a loaded JSON value has the type a field annotation names;
    a JSON true or false is not a number."""
    if annotation.startswith("tuple["):
        items = annotation[len("tuple[") : -1].split(", ")
        return isinstance(value, (list, tuple)) and len(value) == len(items) and all(map(admits, items, value))
    return isinstance(value, _FIELD_TYPES[annotation]) and not isinstance(value, bool)


def field_type_error(dc_cls, values: dict) -> str | None:
    """Why the first of `values` that its field's annotation in the
    dataclass `dc_cls` does not admit is wrong, or None if all are admitted."""
    for f in fields(dc_cls):
        if f.name in values and not admits(f.type, values[f.name]):
            return f"{f.name} must be {f.type}, got {type(values[f.name]).__name__}"
    return None


def load_checkpoint(path: str) -> Checkpoint:
    text = read_text(path, "checkpoint")
    try:
        obj = json.loads(text)
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    if not isinstance(obj, dict) or "version" not in obj:
        raise ParseError(f"{path}: not a checkpoint document")
    if obj["version"] != CHECKPOINT_VERSION:
        raise VersionMismatch(
            f"{path}: version {obj['version']}, expected {CHECKPOINT_VERSION}"
        )
    try:
        values = {
            f.name: obj.get(f.name, {}) if f.name == "extra" else obj[f.name]
            for f in fields(Checkpoint)
        }
        values["margin"] = float(values["margin"])
        values["gan_iteration"] = int(values["gan_iteration"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"{path}: {exc}") from exc
    bad = field_type_error(Checkpoint, values)
    if bad:
        raise ParseError(f"{path}: {bad}")
    return Checkpoint(**values)


def _row_end(tag) -> str:
    """The comma, the tag cell and the CRLF with which csv.writer ends a
    row whose last cell is tag, quoting included."""
    buf = io.StringIO()
    csv.writer(buf).writerow(["", tag])
    return buf.getvalue()


def export_rollouts(trajectories, dim_names, path: str, tags=None, comment: str | None = None) -> None:
    """CSV rows (traj_id, t, *dims, tag) for downstream plotting. Bytes are
    those of csv.writer with each value written as repr(float(v))."""
    if len(trajectories) == 0:
        raise IoError("no trajectories to export")
    tags = tags if tags is not None else ["rollout"] * len(trajectories)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        if comment:
            fh.write(f"# {comment}\n")
        csv.writer(fh).writerow(["traj_id", "t"] + list(dim_names) + ["tag"])
        for i, (arr, tag) in enumerate(zip(trajectories, tags)):
            end = _row_end(tag)
            fh.writelines(
                ",".join([str(i), str(t), *map(repr, row)]) + end
                for t, row in enumerate(np.asarray(arr, dtype=float).tolist())
            )
