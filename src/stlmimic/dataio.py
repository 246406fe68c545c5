"""Persistence: labeled trajectory datasets (JSON-Lines), training
checkpoints (single JSON documents) and rollout CSV exports.

One writer, `RunDataset`, writes every dataset file: a training run
appends its rows to one file as its dataset grows, and `save_dataset`
writes a whole dataset as a new file. A checkpoint names the dataset it
was trained on and records its digest, the first 16 hex digits of a
sha256. A round-boundary snapshot and the final checkpoint both name the
run's file and the number of its leading lines they were trained on,
`dataset_rows`, and record the digest of those lines:
`head -n ROWS FILE | sha256sum | cut -c1-16`. `load_dataset(FILE, ROWS)`
reads those rows back with that digest, which is the whole file's only
when FILE holds exactly ROWS lines: rows or blank lines appended after
them are not read. An older final checkpoint names a file of its own and
no row count, and records the digest of the whole file, as `save_dataset`
returns it: `sha256sum FILE | cut -c1-16`. Config digests are FNV-1a over
the canonical JSON.

In memory a dataset is one `Dataset`: a single float block `X` of shape
(N, T+1, n_agent + n_env) with the agent columns first, a +-1 label array,
and per-row `ids` and `metas`. `extended` builds a new block but shares
the rows' meta dicts, so a key set on a row's meta shows in every dataset
that holds the row.

Each dataset file is parsed once. `load_dataset` keeps the `Dataset` it
parsed from a regular file in a binary sidecar next to it, `.NAME.npz` for
the file NAME, and reads it in one pass. The sidecar is a flat file (the
name is that of the NumPy archive of version 1, so reading a dataset
replaces an old sidecar instead of leaving it behind):

- 8 bytes of magic, `STLDSv` and the two-digit `SIDECAR_VERSION`;
- the length of the copy, then the length of the header, each as 8 bytes
  little-endian;
- the copy: the dataset file's bytes that were parsed, verbatim;
- the header, one UTF-8 JSON object: the shape of `X`, the labels, the
  ids, each distinct meta once (a meta holding a list or an object once per
  row), the index of each row's meta among those, the dimension names, and
  the dataset digest and the number of lines of the copy;
- `X` as little-endian float64 in C order;
- the CRC32 of the lead (the magic and the two lengths), the header and
  `X`, as 4 bytes little-endian.

The sidecar is keyed by the dataset's bytes themselves: a read compares
the file with the copy, a chunk at a time, and computes no hash. It takes
the sidecar only when its version matches, the file is byte for byte the
copy, the sidecar is as long as its lead and header say, its CRC32 matches
and its values are finite; it never trusts a sidecar otherwise. Unlike the
file's size and modification time, the comparison sees an edit that keeps
both, and unlike a hash it cannot collide. The price is disk space: the
sidecar holds the file once more besides `X`, so the sidecar of the 4.68 MB
1,000-row driving set takes 6.56 MB, 4.68 MB of it the copy, and a miss
writes all of it. Each row read back gets a meta dict of its own, and the
dataset digest of the file from the same read: the header's digest is that
of the copy, which the hit found equal to the file.

A missing, stale, short, corrupt or other-version sidecar is a miss: the
file is parsed, and its sha256 taken as it is read. The sidecar is then
written anew, to a temporary name renamed into place, with the copy read
from the file again; it is kept only when the copy's sha256 is that of the
bytes parsed, so the copy is exactly what was parsed even if the file
changed in between. A sidecar that cannot be written is skipped without
changing the result. A pipe or other non-regular input is always parsed
and gets no sidecar. Deleting a sidecar is always safe.

A rollout CSV (`export_rollouts`) is a `# comment` line, a header, then a
row (traj_id, t, *values, tag) per step. Its bytes are those of
`csv.writer` with each value written as `repr(float(v))`, but no row is
built in Python: one `%` format writes all of a trajectory's rows from a
template of `%d` ids, literal steps, `%r` values and the tag's row end, so
writing costs little more than the reprs.

`checked_options` is the one checker of option values read from outside
the program: each config section and a checkpoint's classifier shape."""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import itertools
import json
import logging
import math
import numbers
import os
import stat
import zlib
from dataclasses import dataclass, field, fields

import numpy as np

CHECKPOINT_VERSION = 1
SIDECAR_VERSION = 6
_SIDECAR_MAGIC = b"STLDSv%02d" % SIDECAR_VERSION
_LEAD_SIZE = 24  # the magic and two lengths
# the bytes a sidecar read or write moves at a time; the allocator maps a
# larger buffer afresh on each call, and faulting in its pages cost more
# than comparing a small dataset's bytes
_CHUNK = 1 << 16

log = logging.getLogger(__name__)


class ParseError(ValueError):
    """Malformed dataset or checkpoint file."""


class InconsistentHorizon(ValueError):
    """Trajectory lengths differ within one dataset."""


class VersionMismatch(ValueError):
    """Checkpoint written by an incompatible format version."""


class IoError(OSError):
    pass


@dataclass
class Dataset:
    """Labelled trajectories as one block: `X` is (N, T+1, n_agent + n_env)
    with the agent columns first, `labels` the N labels (+1 expert-like,
    -1 incorrect behavior), `ids` and `metas` one entry per row, and
    `digest` and `lines` the dataset digest and the number of lines of the
    file read, None for one built here."""

    X: np.ndarray
    labels: np.ndarray
    ids: list[str]
    metas: list[dict]
    agent_names: tuple[str, ...]
    env_names: tuple[str, ...] = ()
    digest: str | None = None
    lines: int | None = None

    def __post_init__(self):
        self.X, labels = np.asarray(self.X, dtype=float), np.asarray(self.labels).reshape(-1)
        if not np.isin(labels, (1, -1)).all():
            raise ParseError(f"labels must be +1 or -1, got {sorted(set(labels.tolist()))}")
        self.labels = labels.astype(int)
        self.agent_names, self.env_names = tuple(self.agent_names), tuple(self.env_names)
        if self.X.ndim != 3:
            raise ParseError(f"states must form one (N, T+1, D) block, got shape {self.X.shape}")
        if not len(self.X) == len(self.labels) == len(self.ids) == len(self.metas):
            raise ParseError("states, labels, ids and metas differ in length")
        if self.X.shape[2] != len(self.dim_names):
            raise ParseError(f"{len(self.dim_names)} dimension names for {self.X.shape[2]} state columns")

    def __len__(self) -> int:
        return len(self.X)

    @property
    def horizon(self) -> int:
        return self.X.shape[1] - 1

    @property
    def dim_names(self) -> tuple[str, ...]:
        return self.agent_names + self.env_names

    def check_input(self, path: str, env=None) -> None:
        """Raise a ParseError or InconsistentHorizon naming `path` unless the
        dataset read from it holds rows and, given an environment, is one of
        that environment's datasets: generated for it, if its first row says,
        over its inference signals with its own columns last, and of its
        horizon."""
        if len(self) == 0:
            raise ParseError(f"{path}: empty dataset")
        if env is None:
            return
        made_for = self.metas[0].get("env")
        if made_for is not None and made_for != env.name:
            raise ParseError(f"{path}: dataset was generated for env {made_for!r}, not {env.name!r}")
        names = tuple(env.inference_names)
        want = (names[: len(names) - env.n_env], names[len(names) - env.n_env :])
        if (self.agent_names, self.env_names) != want:
            raise ParseError(
                f"{path}: dimensions {self.agent_names} and environment dimensions {self.env_names}"
                f" are not the {env.name} environment's {want[0]} and {want[1]}"
            )
        if self.horizon != env.T:
            raise InconsistentHorizon(f"{path}: dataset horizon {self.horizon} != environment horizon {env.T}")

    def count(self, label: int) -> int:
        return int(np.count_nonzero(self.labels == label))

    def extended(self, more: "Dataset") -> "Dataset":
        """This dataset's rows, then those of `more`, sharing their meta dicts."""
        if more.dim_names != self.dim_names:
            raise ParseError(f"dimension names differ: {self.dim_names} and {more.dim_names}")
        return Dataset(
            np.concatenate([self.X, more.X]), np.concatenate([self.labels, more.labels]),
            self.ids + more.ids, self.metas + more.metas, self.agent_names, self.env_names,
        )


def encoded_rows(ds: Dataset, start: int = 0, config_digest: str | None = None):
    """The line of each row of `ds` from `start` on, as UTF-8 bytes: one
    JSON object with sorted keys and floats at round-trip precision. Given
    a config digest, a row whose meta has no `config_digest` is written as
    if it had that one; the row's meta itself is not changed. The one
    encoder of dataset rows."""
    n_a = len(ds.agent_names)
    dims = {"agent_dims": list(ds.agent_names), "env_dims": list(ds.env_names), "dt": 1}
    for id_, label, x, meta in zip(ds.ids[start:], ds.labels[start:].tolist(), ds.X[start:], ds.metas[start:]):
        if config_digest is not None and "config_digest" not in meta:
            meta = {**meta, "config_digest": config_digest}
        obj = {
            "id": id_,
            "label": label,
            **dims,
            "agent_states": x[:, :n_a].tolist(),
            "env_states": x[:, n_a:].tolist(),
            "meta": meta,
        }
        yield (json.dumps(obj, sort_keys=True) + "\n").encode("utf-8")


def save_dataset(ds: Dataset, path: str, config_digest: str | None = None) -> str:
    """One JSON object per line (`encoded_rows`), written by a new
    `RunDataset`. Returns the dataset digest."""
    return RunDataset(path, config_digest).extend(ds)


class RunDataset:
    """A training run's growing dataset as one append-only JSON-Lines file,
    the one writer of dataset files.

    `extend` encodes and appends only the rows it has not seen, one line at
    a time, so each row is encoded and written once per run; the digest of
    the file so far is kept running, and `digests` holds it for each row
    count the file has had."""

    def __init__(self, path: str, config_digest: str | None = None):
        self.path = path
        self.config_digest = config_digest
        self.ids: list[str] = []
        self.digests: dict[int, str] = {}
        self._sha = hashlib.sha256()
        open(path, "wb").close()

    def extend(self, ds: Dataset) -> str:
        """Append the rows of `ds` past those already written, which must be
        its leading rows. Returns the digest of the file so far, that is of
        its first len(self.ids) lines."""
        n = len(self.ids)
        if ds.ids[:n] != self.ids:
            raise ValueError(f"{self.path}: the dataset does not begin with the {n} rows already written")
        with open(self.path, "ab") as fh:
            for line in encoded_rows(ds, n, self.config_digest):
                fh.write(line)
                self._sha.update(line)
        self.ids += ds.ids[n:]
        digest = self.digests[len(self.ids)] = self._sha.hexdigest()[:16]
        return digest


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


def load_dataset(path: str, rows: int | None = None) -> Dataset:
    """The dataset in the JSON-Lines file at `path`, read through its
    sidecar (see the module docstring), with the digest of the bytes read.
    A regular file whose sidecar is whole, of this version and holds a copy
    equal to the file's bytes is read from the sidecar; any other file is
    parsed (`_parse_lines`), and a regular file's parse is stored as its
    sidecar. A bad line, including one that is not UTF-8 or whose horizon
    or dimension names differ from the first line's, raises a ParseError or
    InconsistentHorizon naming the file and the line.

    Given `rows`, the dataset of the file's first `rows` rows, with the
    digest of its first `rows` lines (a `RunDataset` file holds one row per
    line): the whole read's digest when the file holds exactly `rows`
    lines, else that of one sha256 pass over them, which a parse takes as
    it reads them and a sidecar hit takes from the file again. So a blank
    line after them is not read, and one among them changes the digest. A
    file of fewer rows raises a ParseError naming it and both counts."""
    prefix = []  # the sha256 of the first `rows` lines, once they have been read
    with open_input(path, "dataset") as fh:
        ds = side = None
        if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
            head, name = os.path.split(path)
            side = os.path.join(head, f".{name}.npz")
            ds = _read_sidecar(side, fh)
            fh.seek(0)
        if ds is None:
            sha = hashlib.sha256()
            ds = _parse_lines(path, _hashed(fh, sha, rows, prefix))
            ds.digest = sha.hexdigest()[:16]
            if side is not None:
                _write_sidecar(ds, side, fh, sha.digest())
        if rows is None or rows == len(ds) == ds.lines:
            return ds
        if rows > len(ds):
            raise ParseError(f"{path}: {rows} rows asked for, but the file holds {len(ds)}")
        if not prefix:  # a sidecar hit, so a regular file: hash its first lines again, to line rows + 1
            for _ in _hashed(itertools.islice(fh, rows + 1), hashlib.sha256(), rows, prefix):
                pass
            if not prefix:
                raise ParseError(f"{path}: the file lost lines while it was read")
    return Dataset(ds.X[:rows], ds.labels[:rows], ds.ids[:rows], ds.metas[:rows], ds.agent_names, ds.env_names,
                   prefix[0].hexdigest()[:16], rows)


def _hashed(lines, sha, rows=None, prefix=None):
    """The lines, each added to `sha` as it is passed on; a copy of `sha`
    as it stands after the first `rows` lines is appended to `prefix`."""
    for n, line in enumerate(lines):
        if n == rows:
            prefix.append(sha.copy())
        sha.update(line)
        yield line


def _read_sidecar(path: str, src) -> Dataset | None:
    """The dataset stored in the sidecar at `path` if the sidecar is of
    this version, its copy is byte for byte the rest of the dataset file
    open as `src`, it is as long as its lead and header say, and it passes
    its CRC32 and holds only finite values; None for any other sidecar, a
    corrupt one or none."""
    try:
        with open(path, "rb") as fh:
            lead = fh.read(_LEAD_SIZE)
            if len(lead) != _LEAD_SIZE or lead[:8] != _SIDECAR_MAGIC:
                return None
            n_copy, n_head = int.from_bytes(lead[8:16], "little"), int.from_bytes(lead[16:], "little")
            size = os.fstat(fh.fileno()).st_size
            if _LEAD_SIZE + n_copy + n_head > size:  # read() would first allocate a corrupt length
                return None
            if not _same_bytes(src, fh, n_copy):
                return None
            head_bytes = fh.read(n_head)
            head = json.loads(head_bytes)
            shape = tuple(head["shape"])
            if _LEAD_SIZE + n_copy + n_head + 8 * math.prod(shape) + 4 != size:
                return None
            X = np.empty(shape, dtype="<f8")
            if fh.readinto(X) != X.nbytes:
                return None
            crc = zlib.crc32(X, zlib.crc32(head_bytes, zlib.crc32(lead)))
            if fh.read(4) != crc.to_bytes(4, "little") or not np.isfinite(X).all():
                return None
            metas = [dict(head["metas"][i]) for i in head["meta_index"]]
            return Dataset(X, head["labels"], head["ids"], metas, *head["names"], head["digest"], head["lines"])
    except (OSError, KeyError, IndexError, TypeError, ValueError):
        return None


def _same_bytes(src, copy, n: int) -> bool:
    """Whether the rest of the file `src` is exactly the next `n` bytes of
    the file `copy`, compared a chunk at a time through two reused buffers."""
    ours, theirs = bytearray(_CHUNK), bytearray(_CHUNK)
    view = memoryview(theirs)
    while k := src.readinto(ours):
        # the buffers were equal before these reads, so they are equal past
        # the k bytes read when those are
        if k > n or copy.readinto(view[:k]) != k or ours != theirs:
            return False
        n -= k
    return n == 0


def _write_sidecar(ds: Dataset, path: str, src, sha: bytes) -> None:
    """Store `ds` as the sidecar at `path` of the dataset file open as
    `src`, whose bytes before its position were parsed into `ds` and have
    the sha256 `sha`, of which `ds.digest` is the prefix. Those bytes are
    copied from `src` a chunk at a time, and the sidecar is kept only when
    the copy has that sha256. It is written to a temporary name and renamed
    into place, so a reader finds a whole sidecar or none. A failure to write, or a copy that differs, is
    logged and leaves no file."""
    n_copy = src.tell()
    distinct, index = {}, []
    for row, meta in enumerate(ds.metas):
        # a meta holding a list or an object gets an entry of its own, so no
        # two rows read back share those values
        shared = not any(isinstance(v, (dict, list)) for v in meta.values())
        index.append(distinct.setdefault((json.dumps(meta), -1 if shared else row), len(distinct)))
    head = json.dumps({
        "shape": ds.X.shape, "labels": ds.labels.tolist(), "ids": ds.ids,
        "metas": [json.loads(text) for text, _ in distinct], "meta_index": index,
        "names": [ds.agent_names, ds.env_names], "digest": ds.digest, "lines": ds.lines,
    }).encode("utf-8")
    lead = _SIDECAR_MAGIC + n_copy.to_bytes(8, "little") + len(head).to_bytes(8, "little")
    X = np.ascontiguousarray(ds.X, dtype="<f8")
    crc = zlib.crc32(X, zlib.crc32(head, zlib.crc32(lead)))
    try:
        with _replacing(path, f"{path}.{os.getpid()}.tmp") as fh:
            fh.write(lead)
            src.seek(0)
            copied, left = hashlib.sha256(), n_copy
            while left and (chunk := src.read(min(left, _CHUNK))):
                fh.write(chunk)
                copied.update(chunk)
                left -= len(chunk)
            if left or copied.digest() != sha:
                raise IoError(f"{src.name} changed while it was read")
            fh.writelines([head, X, crc.to_bytes(4, "little")])
    except OSError as exc:
        log.debug("%s: sidecar not written: %s", path, exc)


@contextlib.contextmanager
def _replacing(path: str, tmp: str):
    """The file `tmp`, open for writing bytes, renamed to `path` once
    written. A failure to write or rename removes `tmp` and is raised."""
    try:
        with open(tmp, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def _parse_lines(path: str, lines) -> Dataset:
    """Parse a dataset's lines (bytes) one at a time, so only one line's
    text and parsed lists are held at a time: each line becomes one
    (T+1, D) array, and the arrays are stacked once at the end. Only a
    missing or null `env_states`, `env_dims` or `meta` is read as empty,
    and `[]` as no environment columns. A blank line is skipped, but
    counted in the dataset's `lines`. Errors name `path` and the line."""
    rows, labels, ids, metas, names, lineno = [], [], [], [], ((), ()), 0
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line.decode("utf-8"))
            label = obj["label"]
            if not (_finite_number(label) and label in (1, -1)):
                raise ValueError(f"label must be +1 or -1, got {label!r}")
            agent = np.array(obj["agent_states"], dtype=float)
            env = obj.get("env_states")
            env = np.array(np.zeros((len(agent), 0)) if env in (None, []) else env, dtype=float)
            if agent.ndim != 2 or env.ndim != 2:
                raise ValueError("state blocks must be 2-d arrays")
            steps = len(rows[0]) if rows else len(agent)
            if not len(agent) == len(env) == steps:
                raise InconsistentHorizon(f"{len(agent)} agent, {len(env)} env steps; first line {steps}")
            dims = obj["agent_dims"], [] if obj.get("env_dims") is None else obj["env_dims"]
            if not all(isinstance(d, list) and all(isinstance(n, str) for n in d) for d in dims):
                raise ValueError("agent_dims and env_dims must be lists of strings")
            row_names = tuple(map(tuple, dims))
            if (agent.shape[1], env.shape[1]) != tuple(map(len, row_names)):
                raise ValueError("agent_dims or env_dims do not match the state widths")
            if rows and row_names != names:
                raise ValueError(f"dimension names {row_names} differ from {names} of the first line")
            x = np.concatenate([agent, env], axis=1)
            if not np.isfinite(x).all():
                raise ValueError("non-finite value in agent_states or env_states")
            meta = {} if obj.get("meta") is None else obj["meta"]
            if not isinstance(meta, dict):
                raise ValueError(f"meta must be a JSON object, got {type(meta).__name__}")
            id_ = obj["id"]
            if not isinstance(id_, str):
                raise ValueError(f"id must be a string, got {id_!r}")
            ids.append(id_)
        except InconsistentHorizon as exc:
            raise InconsistentHorizon(f"{path}:{lineno}: {exc}") from exc
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from exc
        names = row_names
        rows.append(x)
        labels.append(int(label))
        metas.append(meta)
    return Dataset(np.stack(rows) if rows else np.zeros((0, 0, 0)), labels, ids, metas, *names, lines=lineno)


def fnv1a_hex(data: bytes) -> str:
    h = 0xCBF29CE484222325
    for b in data:
        h ^= b
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return f"{h:016x}"


def config_digest(config: dict) -> str:
    return fnv1a_hex(json.dumps(config, sort_keys=True).encode("utf-8"))


def _finite_number(value, integer: bool = False) -> bool:
    kind = numbers.Integral if integer else numbers.Real
    return isinstance(value, kind) and not isinstance(value, bool) and math.isfinite(value)


def checked_options(section: str, defaults: dict, values: dict) -> dict:
    """The options `values` of one section of a config, or of a checkpoint's
    shape, each checked against its entry in `defaults` and stored as the
    default's type; the one checker of such values. Every option is a
    number: it takes a finite number, or an integer where the default is
    one, and a JSON true or false is not a number. A wrong or unknown option
    is a ValueError naming `section.option`, or `option` alone where the
    section is ''."""
    checked = {}
    for key, value in values.items():
        name = f"{section}.{key}" if section else key
        if key not in defaults:
            raise ValueError(f"{name} is unknown; the {section} options are {sorted(defaults)}")
        integer = isinstance(defaults[key], numbers.Integral)
        if not _finite_number(value, integer):
            raise ValueError(f"{name} must be a finite {'integer' if integer else 'number'}, got {value!r}")
        checked[key] = type(defaults[key])(value)
    return checked


def require(obj, what: str, ok, *names) -> None:
    """Raise a ValueError naming the first of the fields `names` of obj whose
    value fails the test `ok`: `NAME must be WHAT, got VALUE`."""
    for name in names:
        if not ok(getattr(obj, name)):
            raise ValueError(f"{name} must be {what}, got {getattr(obj, name)}")


def require_counts(obj, *names) -> None:
    """`require` that each of the fields `names` of obj is at least 1."""
    require(obj, "at least 1", lambda v: v >= 1, *names)


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
    # the digest of the first extra["dataset_rows"] lines of the dataset
    # file named in extra, or of the whole file where there is no row count
    dataset_digest: str
    config: dict
    extra: dict = field(default_factory=dict)
    version: int = CHECKPOINT_VERSION


def save_checkpoint(ck: Checkpoint, path: str) -> None:
    """Write `ck` to `path` through `path`.tmp (`_replacing`)."""
    # shallow: dataclasses.asdict would deep-copy every parameter list
    obj = {f.name: getattr(ck, f.name) for f in fields(Checkpoint)}
    with _replacing(path, path + ".tmp") as fh:
        fh.write(json.dumps(obj, sort_keys=True).encode("utf-8"))  # json.dump never uses the C encoder


# what each annotation of a Checkpoint field admits in a loaded JSON
# document; its numbers are checked by `_finite_number`, and the values
# inside its config and shape by `checked_options`
_FIELD_TYPES = {
    "dict": dict,
    "dict | None": (dict, type(None)),
    "str": str,
    "str | None": (str, type(None)),
}


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
    except KeyError as exc:
        raise ParseError(f"{path}: missing field {exc.args[0]}") from exc
    for f in fields(Checkpoint):
        value = values[f.name]
        if f.type in ("float", "int"):  # a JSON integer is a valid float; true and false are not numbers
            if not _finite_number(value, integer=f.type == "int"):
                what = "integer" if f.type == "int" else "number"
                raise ParseError(f"{path}: {f.name} must be a finite {what}, got {value!r}")
        elif not isinstance(value, _FIELD_TYPES[f.type]):
            raise ParseError(f"{path}: {f.name} must be {f.type}, got {type(value).__name__}")
    values["margin"] = float(values["margin"])
    return Checkpoint(**values)


def export_rollouts(trajectories, dim_names, path: str, tag: str, comment: str) -> None:
    """A `# comment` line, then CSV rows (traj_id, t, *dims, tag) for plotting,
    every row ending in the one `tag`. Bytes are those of csv.writer with each
    value written as repr(float(v)).

    One `%` format writes all of a trajectory's rows. Its template, built once
    per (rows, width), holds each row's traj_id as `%d`, its step as text, each
    value as `%r` (the repr of a float) and the row end csv.writer gives the
    tag, with `%` doubled. The arguments are the trajectory's values with the
    float i in front of each row, which `%d` prints as the id i."""
    if len(trajectories) == 0:
        raise IoError("no trajectories to export")
    buf = io.StringIO()
    csv.writer(buf).writerow(["", tag])
    # the comma, the tag cell and the CRLF that end each row, as template text
    end = buf.getvalue().replace("%", "%%")
    templates = {}
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"# {comment}\n")
        csv.writer(fh).writerow(["traj_id", "t"] + list(dim_names) + ["tag"])
        for i, arr in enumerate(trajectories):
            arr = np.asarray(arr, dtype=float)
            if len(arr) == 0:
                continue  # no rows to write, and a plain [] has no width
            rows, width = arr.shape
            if (rows, width) not in templates:
                templates[rows, width] = "".join(
                    ",".join(["%d", str(t)] + ["%r"] * width) + end for t in range(rows)
                )
            args = np.empty((rows, width + 1))
            args[:, 0] = i
            args[:, 1:] = arr
            fh.write(templates[rows, width] % tuple(args.ravel().tolist()))
