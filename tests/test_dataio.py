import csv
import dataclasses
import hashlib
import io
import json
import os
import re
import tempfile
import threading
import zlib
from concurrent.futures import ProcessPoolExecutor
from dataclasses import fields
from multiprocessing import get_context
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from stlmimic import dataio
from stlmimic.dataio import (
    SIDECAR_VERSION,
    Checkpoint,
    Dataset,
    InconsistentHorizon,
    IoError,
    ParseError,
    RunDataset,
    VersionMismatch,
    config_digest,
    encoded_rows,
    export_rollouts,
    load_checkpoint,
    load_dataset,
    save_checkpoint,
    save_dataset,
)
from stlmimic.cli import main
from stlmimic.envs import UnicycleEnv

import helpers


def small_dataset(n=6, T=4, seed=0):
    rng = np.random.default_rng(seed)
    X = np.concatenate([rng.uniform(-3, 3, size=(n, T + 1, 2)), rng.uniform(-1, 1, size=(n, T + 1, 1))], axis=2)
    labels = [1 if i % 2 == 0 else -1 for i in range(n)]
    return Dataset(X, labels, [f"t{i}" for i in range(n)], [{"k": i} for i in range(n)], ("a0", "a1"), ("e0",))


class TestDatasetRoundtrip:
    def test_bit_identical_values(self, tmp_path):
        ds = small_dataset()
        path = tmp_path / "ds.jsonl"
        save_dataset(ds, str(path))
        back = load_dataset(str(path))
        assert len(back) == len(ds)
        assert back.ids == ds.ids and back.metas == ds.metas
        assert np.array_equal(back.labels, ds.labels)
        assert np.array_equal(back.X, ds.X)
        assert (back.agent_names, back.env_names) == (ds.agent_names, ds.env_names)

    def test_expert_dataset_roundtrip(self, tmp_path):
        env = UnicycleEnv()
        ds = env.gen_expert(20, np.random.default_rng(1))
        path = tmp_path / "uni.jsonl"
        save_dataset(ds, str(path))
        back = load_dataset(str(path))
        assert np.array_equal(back.X, ds.X)
        assert back.dim_names == ds.dim_names

    @pytest.mark.parametrize("env, n, seed, sha256", helpers.PINNED_GEN_DATA)
    def test_pinned_files_save_back_byte_for_byte(self, tmp_path, env, n, seed, sha256):
        whole = tmp_path / "whole.jsonl"
        assert main(["gen-data", "--env", env, "--n", str(n), "--seed", str(seed), "--out", str(whole)]) == 0
        data = whole.read_bytes()
        assert hashlib.sha256(data).hexdigest() == sha256
        again = tmp_path / "again.jsonl"
        save_dataset(load_dataset(str(whole)), str(again))
        assert again.read_bytes() == data
        # two halves, loaded apart and joined, save to the bytes of the whole
        lines = data.splitlines(keepends=True)
        halves = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        halves[0].write_bytes(b"".join(lines[: n // 2]))
        halves[1].write_bytes(b"".join(lines[n // 2 :]))
        joined = load_dataset(str(halves[0])).extended(load_dataset(str(halves[1])))
        save_dataset(joined, str(again))
        assert again.read_bytes() == data

    def test_extended_and_select_share_the_meta_dicts(self):
        """`extended`, the one builder of a dataset from others' rows, keeps
        their order and blocks and shares their meta dicts."""
        ds, more = small_dataset(), small_dataset(n=2, seed=1)
        both = ds.extended(more)
        assert both.ids == ds.ids + more.ids and both.labels.tolist() == ds.labels.tolist() + more.labels.tolist()
        assert np.array_equal(both.X, np.concatenate([ds.X, more.X]))
        assert all(a is b for a, b in zip(both.metas, ds.metas + more.metas))
        for meta in both.metas:
            meta["seen"] = True
        assert all(m["seen"] for m in ds.metas + more.metas)

    def test_constructor_checks(self):
        ds = small_dataset(n=2)
        cases = [
            ((ds.X, [1, 0], ds.ids, ds.metas, ds.agent_names, ds.env_names), "labels"),
            ((ds.X[0], ds.labels, ds.ids, ds.metas, ds.agent_names, ds.env_names), "block"),
            ((ds.X, ds.labels, ds.ids[:1], ds.metas, ds.agent_names, ds.env_names), "length"),
            ((ds.X, ds.labels, ds.ids, ds.metas, ds.agent_names, ()), "dimension names"),
        ]
        for args, what in cases:
            with pytest.raises(ParseError, match=what):
                Dataset(*args)
        with pytest.raises(ParseError, match="dimension names differ"):
            ds.extended(Dataset(ds.X, ds.labels, ds.ids, ds.metas, ("b0", "b1"), ("e0",)))

    def test_bad_label_reports_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        obj = {
            "id": "x",
            "label": 0,
            "agent_dims": ["a"],
            "env_dims": [],
            "agent_states": [[1.0]],
            "env_states": [],
        }
        path.write_text(json.dumps(obj) + "\n")
        with pytest.raises(ParseError) as err:
            load_dataset(str(path))
        assert ":1:" in str(err.value)

    @pytest.mark.parametrize("label", [True, 1.7, -1.2, "1"])
    def test_label_not_equal_to_one_or_minus_one_reports_line(self, tmp_path, label):
        """A label is a number equal to 1 or -1, and true is not a number."""
        write_with_second_row(tmp_path / "bad.jsonl", label=label)
        with pytest.raises(ParseError, match=r":2: label must be \+1 or -1, got " + re.escape(repr(label))):
            load_dataset(str(tmp_path / "bad.jsonl"))
        write_with_second_row(tmp_path / "ok.jsonl", label=1.0)
        assert load_dataset(str(tmp_path / "ok.jsonl")).labels.tolist() == [1, 1, 1, -1, 1, -1]

    @pytest.mark.parametrize("id_", [1, None, True])
    def test_id_that_is_not_a_string_reports_line(self, tmp_path, id_):
        """An id is a JSON string; nothing else is turned into one. Two rows
        may share an id."""
        write_with_second_row(tmp_path / "bad.jsonl", id=id_)
        with pytest.raises(ParseError, match=r":2: id must be a string, got " + re.escape(repr(id_))):
            load_dataset(str(tmp_path / "bad.jsonl"))
        write_with_second_row(tmp_path / "ok.jsonl", id="t0")
        assert load_dataset(str(tmp_path / "ok.jsonl")).ids[:2] == ["t0", "t0"]

    @pytest.mark.parametrize(
        "agent_names, env_names", [((1, 2), ("e0",)), (("a0", "a1"), (0.5,)), (("a0", True), ("e0",))],
        ids=["agent-ints", "env-float", "agent-bool"],
    )
    def test_dimension_name_that_is_not_a_string_reports_line(self, tmp_path, agent_names, env_names):
        ds = small_dataset()
        path = tmp_path / "bad.jsonl"
        save_dataset(Dataset(ds.X, ds.labels, ds.ids, ds.metas, agent_names, env_names), str(path))
        with pytest.raises(ParseError, match=r":1: agent_dims and env_dims must be lists of strings"):
            load_dataset(str(path))

    @pytest.mark.parametrize(
        "meta", [5, "x", [1], 0, False, pytest.param("", id="empty-string"), pytest.param([], id="empty-list")],
    )
    def test_meta_that_is_not_an_object_reports_line(self, tmp_path, meta):
        path = tmp_path / "bad.jsonl"
        write_with_second_row(path, meta=meta)
        with pytest.raises(ParseError, match=r":2: meta must be a JSON object"):
            load_dataset(str(path))

    @pytest.mark.parametrize(
        "key, value",
        [("env_states", 0), ("env_states", False), ("env_dims", 0), ("env_dims", False),
         pytest.param("env_dims", "", id="env_dims-empty-string")],
    )
    def test_falsy_environment_field_reports_line(self, tmp_path, key, value):
        """Of rows without environment columns, only a missing or null field
        or `[]` is read as empty."""
        ds = small_dataset()
        ds = Dataset(ds.X[:, :, :2], ds.labels, ds.ids, ds.metas, ds.agent_names)
        for empty in (None, []):
            write_with_second_row(tmp_path / "ok.jsonl", ds, **{key: empty})
            assert_same(load_dataset(str(tmp_path / "ok.jsonl")), ds)
        write_with_second_row(tmp_path / "bad.jsonl", ds, **{key: value})
        with pytest.raises(ParseError, match=":2: "):
            load_dataset(str(tmp_path / "bad.jsonl"))

    def test_mixed_horizons_rejected(self, tmp_path):
        rows = []
        for i, steps in enumerate((3, 5)):
            rows.append(
                json.dumps(
                    {
                        "id": f"t{i}",
                        "label": 1,
                        "agent_dims": ["a"],
                        "env_dims": [],
                        "agent_states": [[0.0]] * steps,
                        "env_states": [],
                        "meta": {},
                    }
                )
            )
        path = tmp_path / "mixed.jsonl"
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(InconsistentHorizon, match=f"^{re.escape(str(path))}:2: "):
            load_dataset(str(path))

    def test_digest_sensitive_to_content(self, tmp_path):
        a = small_dataset(seed=0)
        b = small_dataset(seed=1)
        digest = save_dataset(a, str(tmp_path / "a.jsonl"))
        assert save_dataset(a, str(tmp_path / "a2.jsonl")) == digest
        assert save_dataset(b, str(tmp_path / "b.jsonl")) != digest
        assert digest == hashlib.sha256((tmp_path / "a.jsonl").read_bytes()).hexdigest()[:16]


def write_with_second_row(path, ds=None, **fields):
    """Save `ds`, by default `small_dataset()`, to `path` with `fields` set
    in its second row."""
    lines = list(encoded_rows(small_dataset() if ds is None else ds))
    lines[1] = (json.dumps({**json.loads(lines[1]), **fields}) + "\n").encode("utf-8")
    path.write_bytes(b"".join(lines))


def sidecar(path):
    return path.parent / f".{path.name}.npz"


def assert_same(a, b):
    assert np.array_equal(a.X.view(np.uint64), b.X.view(np.uint64))  # bit for bit, -0.0 included
    assert np.array_equal(a.labels, b.labels)
    assert a.ids == b.ids and a.metas == b.metas
    assert (a.agent_names, a.env_names) == (b.agent_names, b.env_names)


def parse_fails(*args):
    raise AssertionError("parsed the file where its sidecar should have been read")


def hash_fails(*args):
    raise AssertionError("hashed the file where its sidecar should have been read")


def forge_sidecar(path, ds):
    """Store `ds` as the sidecar of the file at `path`, whatever the file holds."""
    with open(path, "rb") as fh:
        sha = hashlib.sha256(fh.read()).digest()
        dataio._write_sidecar(ds, str(sidecar(path)), fh, sha)


def sidecar_parts(data):
    """The lead, the copy, the header and the float bytes of a sidecar's bytes."""
    n_copy, n_head = int.from_bytes(data[8:16], "little"), int.from_bytes(data[16:24], "little")
    return data[:24], data[24 : 24 + n_copy], data[24 + n_copy : 24 + n_copy + n_head], data[24 + n_copy + n_head : -4]


def edit_keeping_size_and_mtime(path, at, byte):
    """Put `byte` at offset `at` of the file, then restore its mtime."""
    st = path.stat()
    data = bytearray(path.read_bytes())
    data[at] = byte
    path.write_bytes(bytes(data))
    os.utime(path, ns=(st.st_atime_ns, st.st_mtime_ns))


EXTREMES = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-309, 1e308, -1e308, 1.7976931348623157e308]


def _read_repeatedly(path, n, drop) -> bool:
    """Read the dataset n times, deleting its sidecar before every third
    read if `drop`; whether every read equals a fresh parse of the file."""
    with open(path, "rb") as fh:
        want = dataio._parse_lines(path, fh)
    for i in range(n):
        if drop and i % 3 == 0:
            sidecar(Path(path)).unlink(missing_ok=True)
        got = load_dataset(path)
        if not (np.array_equal(got.X, want.X) and got.ids == want.ids and got.metas == want.metas):
            return False
    return True


@st.composite
def datasets(draw):
    n, steps = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    n_agent, n_env = draw(st.integers(1, 2)), draw(st.integers(0, 2))
    values = st.one_of(st.sampled_from(EXTREMES), st.floats(allow_nan=False, allow_infinity=False))
    X = draw(arrays(np.float64, (n, steps, n_agent + n_env), elements=values))
    scalars = st.one_of(st.integers(), st.floats(allow_nan=False), st.text(max_size=4), st.booleans(), st.none())
    return Dataset(
        X,
        draw(st.lists(st.sampled_from([1, -1]), min_size=n, max_size=n)),
        draw(st.lists(st.text(max_size=6), min_size=n, max_size=n)),
        draw(st.lists(st.dictionaries(st.text(max_size=4), scalars, max_size=3), min_size=n, max_size=n)),
        tuple(f"a{i}" for i in range(n_agent)),
        draw(st.lists(st.text(min_size=1, max_size=4), min_size=n_env, max_size=n_env)),
    )


class TestSidecar:
    """`load_dataset` parses a regular file once and reads its sidecar after
    that; every other case parses the file and gives the same dataset."""

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(ds=datasets())
    def test_miss_then_hit_round_trip(self, ds):
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "ds.jsonl"
            save_dataset(ds, str(path))
            assert not sidecar(path).exists()
            assert_same(load_dataset(str(path)), ds)
            assert sidecar(path).exists()
            with mock.patch.object(dataio, "_parse_lines", parse_fails), mock.patch("hashlib.sha256", hash_fails):
                hit = load_dataset(str(path))
            with open(path, "rb") as fh:
                assert_same(hit, dataio._parse_lines(str(path), fh))
            assert hit.X.flags.writeable
            assert len({id(meta) for meta in hit.metas}) == len(hit)

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(ds=datasets())
    def test_digest_is_that_of_the_bytes_read(self, ds):
        """A read returns the digest `save_dataset` returned, the sha256 prefix
        of the file's bytes, whether it parses the file, reads its sidecar or
        reads a pipe; a dataset built in memory has none."""
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "ds.jsonl"
            digest = save_dataset(ds, str(path))
            assert digest == hashlib.sha256(path.read_bytes()).hexdigest()[:16]
            assert load_dataset(str(path)).digest == digest
            with mock.patch.object(dataio, "_parse_lines", parse_fails), mock.patch("hashlib.sha256", hash_fails):
                assert load_dataset(str(path)).digest == digest
            if hasattr(os, "mkfifo"):
                fifo = Path(d) / "pipe.jsonl"
                os.mkfifo(fifo)
                writer = threading.Thread(target=fifo.write_bytes, args=(path.read_bytes(),))
                writer.start()
                try:
                    assert load_dataset(str(fifo)).digest == digest
                finally:
                    writer.join(timeout=10)
        assert ds.digest is None and ds.extended(ds).digest is None

    def test_stale_sidecar_is_ignored_and_rewritten(self, tmp_path):
        path = tmp_path / "ds.jsonl"
        save_dataset(small_dataset(), str(path))
        load_dataset(str(path))
        # one digit of the first state value, so the file keeps its length, and
        # its mtime put back: the sidecar is keyed by content, not by metadata
        data = path.read_bytes()
        at = data.index(b'"agent_states": [[') + len(b'"agent_states": [[')
        at += 1 if data[at : at + 1] == b"-" else 0
        edit_keeping_size_and_mtime(path, at, ord("1") if data[at] != ord("1") else ord("2"))
        edited = load_dataset(str(path))
        assert edited.X[0, 0, 0] != small_dataset().X[0, 0, 0]
        with mock.patch.object(dataio, "_parse_lines", parse_fails):
            assert_same(load_dataset(str(path)), edited)

    @pytest.mark.parametrize("change", ["appended", "truncated"])
    def test_file_of_another_length_is_a_miss(self, tmp_path, change):
        path = tmp_path / "ds.jsonl"
        ds = small_dataset()
        save_dataset(ds, str(path))
        load_dataset(str(path))
        lines = path.read_bytes().splitlines(keepends=True)
        more = small_dataset(n=1, seed=1)
        if change == "appended":
            path.write_bytes(b"".join(lines + list(encoded_rows(more))))
            assert_same(load_dataset(str(path)), ds.extended(more))
        else:
            path.write_bytes(b"".join(lines[:-1]))
            assert load_dataset(str(path)).ids == ds.ids[:-1]

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(where=st.floats(0, 1, exclude_max=True), byte=st.integers(0, 255))
    def test_any_same_length_edit_is_read_as_a_parse(self, where, byte):
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "ds.jsonl"
            save_dataset(small_dataset(n=2, T=2), str(path))
            load_dataset(str(path))
            edit_keeping_size_and_mtime(path, int(where * path.stat().st_size), byte)
            try:
                with open(path, "rb") as fh:
                    want = dataio._parse_lines(str(path), fh)
            except (ParseError, InconsistentHorizon) as exc:
                with pytest.raises(type(exc)) as got:
                    load_dataset(str(path))
                assert str(got.value) == str(exc)
            else:
                for _ in range(2):  # the parse that writes a sidecar, then any read of it
                    assert_same(load_dataset(str(path)), want)

    def test_file_changed_before_its_copy_gets_no_sidecar(self, tmp_path):
        path = tmp_path / "ds.jsonl"
        ds = small_dataset()
        save_dataset(ds, str(path))
        parse = dataio._parse_lines
        data = path.read_bytes()
        at = data.index(b'"t0"') + 2

        def parse_then_edit(*args):
            parsed = parse(*args)
            edit_keeping_size_and_mtime(path, at, ord("9"))
            return parsed

        with mock.patch.object(dataio, "_parse_lines", parse_then_edit):
            assert_same(load_dataset(str(path)), ds)
        assert os.listdir(tmp_path) == ["ds.jsonl"]
        assert load_dataset(str(path)).ids[0] == "t9"

    @pytest.mark.parametrize(
        "spoil",
        ["truncated", "other-version", "non-finite", "float-byte", "header-byte", "copy-byte", "version-1-archive",
         "version-2", "version-3", "version-4"],
    )
    def test_bad_sidecar_is_ignored(self, tmp_path, spoil):
        path = tmp_path / "ds.jsonl"
        ds = small_dataset()
        save_dataset(ds, str(path))
        load_dataset(str(path))
        side = sidecar(path)
        sha = hashlib.sha256(path.read_bytes()).hexdigest()
        data = bytearray(side.read_bytes())
        lead, copy, head, _ = sidecar_parts(data)
        x_at = len(lead) + len(copy) + len(head)
        if spoil == "truncated":
            data = data[: len(data) // 2]
        elif spoil in ("other-version", "version-4"):  # whole and checksummed, but of another version and dataset
            forge_sidecar(path, dataclasses.replace(ds, X=ds.X + 1))
            data = bytearray(side.read_bytes())
            data[:8] = b"STLDSv%02d" % (SIDECAR_VERSION + 1 if spoil == "other-version" else 4)
            lead, _, head, floats = sidecar_parts(data)
            data[-4:] = zlib.crc32(floats, zlib.crc32(head, zlib.crc32(lead))).to_bytes(4, "little")
        elif spoil == "non-finite":  # whole and checksummed, but holding a NaN
            X = ds.X.copy()
            X[0, 0, 0] = np.nan
            forge_sidecar(path, dataclasses.replace(ds, X=X))
            data = side.read_bytes()
        elif spoil == "float-byte":  # the sign of the first state value
            data[x_at + 7] ^= 0x80
        elif spoil == "header-byte":  # an id, so the header still decodes
            at = data.index(b'"t0"', x_at - len(head), x_at)
            data[at + 1 : at + 2] = b"u"
        elif spoil == "copy-byte":  # the copy's first id: it no longer equals the file
            at = data.index(b'"t0"', len(lead), len(lead) + len(copy))
            data[at + 1 : at + 2] = b"u"
        elif spoil == "version-1-archive":  # a NumPy .npz of another dataset under the same sha256
            head = json.dumps({"ids": ds.ids, "metas": ds.metas, "names": [ds.agent_names, ds.env_names]})
            buf = io.BytesIO()
            np.savez(
                buf, version=1, sha256=sha, X=ds.X + 1, labels=ds.labels,
                head=np.frombuffer(head.encode("utf-8"), dtype=np.uint8),
            )
            data = buf.getvalue()
        elif spoil == "version-3":  # keyed by a copy of the file, of another dataset, and without a digest
            head = json.dumps({
                "shape": ds.X.shape, "labels": ds.labels.tolist(), "ids": ds.ids, "metas": ds.metas,
                "meta_index": list(range(len(ds))), "names": [ds.agent_names, ds.env_names],
            }).encode("utf-8")
            copy, floats = path.read_bytes(), (ds.X + 1).astype("<f8").tobytes()
            lead = b"STLDSv03" + len(copy).to_bytes(8, "little") + len(head).to_bytes(8, "little")
            crc = zlib.crc32(floats, zlib.crc32(head, zlib.crc32(lead)))
            data = lead + copy + head + floats + crc.to_bytes(4, "little")
        else:  # a flat file of version 2, keyed by the sha256, of another dataset
            head = json.dumps({
                "sha256": sha, "shape": ds.X.shape, "labels": ds.labels.tolist(), "ids": ds.ids,
                "metas": ds.metas, "meta_index": list(range(len(ds))), "names": [ds.agent_names, ds.env_names],
            }).encode("utf-8")
            v2 = b"STLDSv02" + len(head).to_bytes(8, "little") + head + (ds.X + 1).astype("<f8").tobytes()
            data = v2 + zlib.crc32(v2).to_bytes(4, "little")
        side.write_bytes(bytes(data))
        assert_same(load_dataset(str(path)), ds)
        assert side.read_bytes()[:8] == b"STLDSv%02d" % SIDECAR_VERSION  # replaced by a sidecar of this version
        with mock.patch.object(dataio, "_parse_lines", parse_fails):
            assert_same(load_dataset(str(path)), ds)

    def test_rows_read_back_share_no_meta_values(self, tmp_path):
        path = tmp_path / "ds.jsonl"
        ds = small_dataset(n=4)
        ds.metas[:] = [{"k": [1]}, {"k": [1]}, {"k": 1}, {"k": 1}]
        save_dataset(ds, str(path))
        load_dataset(str(path))
        with mock.patch.object(dataio, "_parse_lines", parse_fails):
            hit = load_dataset(str(path))
        assert hit.metas == ds.metas
        assert hit.metas[0]["k"] is not hit.metas[1]["k"]

    def test_failed_parse_leaves_no_sidecar(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_bytes(b"".join(encoded_rows(small_dataset())) + b"{not json\n")
        with pytest.raises(ParseError, match=":7:"):
            load_dataset(str(path))
        assert os.listdir(tmp_path) == ["bad.jsonl"]

    def test_unwritable_sidecar_still_returns_the_dataset(self, tmp_path):
        # a directory where the sidecar goes: writing it fails even as root
        path = tmp_path / "ds.jsonl"
        ds = small_dataset()
        save_dataset(ds, str(path))
        sidecar(path).mkdir()
        for _ in range(2):
            assert_same(load_dataset(str(path)), ds)
        assert sorted(os.listdir(tmp_path)) == [".ds.jsonl.npz", "ds.jsonl"]
        assert sidecar(path).is_dir()

    def test_concurrent_readers_each_get_the_dataset(self, tmp_path):
        # more processes than cores, each reading while others delete and
        # rewrite the sidecar: every read gives the dataset
        path = tmp_path / "ds.jsonl"
        save_dataset(small_dataset(n=40, T=30), str(path))
        with ProcessPoolExecutor(max_workers=3, mp_context=get_context("spawn")) as pool:
            futures = [pool.submit(_read_repeatedly, str(path), 40, drop) for drop in (True, True, False)]
            assert all(f.result(timeout=120) for f in futures)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    def test_fifo_is_parsed_and_gets_no_sidecar(self, tmp_path):
        ds = small_dataset()
        data = b"".join(encoded_rows(ds))
        fifo = tmp_path / "ds.jsonl"
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_bytes, args=(data,))
        writer.start()
        try:
            assert_same(load_dataset(str(fifo)), ds)
        finally:
            writer.join(timeout=10)
        assert not writer.is_alive()
        assert os.listdir(tmp_path) == ["ds.jsonl"]


class TestRunDataset:
    def test_grows_to_the_bytes_save_dataset_writes(self, tmp_path):
        head = small_dataset(n=2)
        ds = head.extended(small_dataset(n=4, seed=1))
        ds.metas[0]["config_digest"] = "kept"
        run = RunDataset(str(tmp_path / "run.jsonl"), config_digest="stamped")
        digests = [run.extend(head), run.extend(ds), run.extend(ds)]
        whole = (tmp_path / "run.jsonl").read_bytes()
        assert save_dataset(ds, str(tmp_path / "saved.jsonl"), config_digest="stamped") == digests[-1]
        assert (tmp_path / "saved.jsonl").read_bytes() == whole
        lines = whole.splitlines(keepends=True)
        assert digests[:2] == [hashlib.sha256(b"".join(lines[:n])).hexdigest()[:16] for n in (2, 6)]
        assert run.digests == {2: digests[0], 6: digests[1]} and run.ids == ds.ids
        assert [json.loads(line)["meta"]["config_digest"] for line in lines] == ["kept"] + ["stamped"] * 5
        assert [m.get("config_digest") for m in ds.metas] == ["kept"] + [None] * 5  # the metas are unchanged

    def test_refuses_rows_that_do_not_extend_it(self, tmp_path):
        run = RunDataset(str(tmp_path / "run.jsonl"))
        run.extend(small_dataset(n=3))
        whole = (tmp_path / "run.jsonl").read_bytes()
        with pytest.raises(ValueError, match="does not begin with the 3 rows"):
            run.extend(small_dataset(n=2))
        assert len(run.ids) == 3 and (tmp_path / "run.jsonl").read_bytes() == whole


class TestPrefixRead:
    """`load_dataset(path, rows)` gives what a read of a file holding just
    the first `rows` lines gives, digest included, whether it parses the
    file, reads its sidecar or reads a pipe."""

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(ds=datasets())
    def test_equals_a_read_of_the_leading_lines(self, ds):
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "run.jsonl"
            RunDataset(str(path), config_digest="stamped").extend(ds)
            lines = path.read_bytes().splitlines(keepends=True)
            for k in range(len(ds) + 1):
                head = Path(d) / "head" / f"{k}.jsonl"
                head.parent.mkdir(exist_ok=True)
                head.write_bytes(b"".join(lines[:k]))
                want = load_dataset(str(head))
                sidecar(path).unlink(missing_ok=True)
                assert_same_rows(load_dataset(str(path), k), want)  # a miss, which leaves the sidecar
                # a hit hashes the file only for a strict prefix
                with mock.patch.object(dataio, "_parse_lines", parse_fails), \
                        mock.patch("hashlib.sha256", hash_fails if k == len(ds) else hashlib.sha256):
                    assert_same_rows(load_dataset(str(path), k), want)

    def test_past_the_last_row_is_a_parse_error_naming_both_counts(self, tmp_path):
        path = tmp_path / "ds.jsonl"
        save_dataset(small_dataset(n=3), str(path))
        for _ in range(2):  # a parse, then a sidecar hit
            with pytest.raises(ParseError, match=re.escape(f"{path}: 4 rows asked for, but the file holds 3")):
                load_dataset(str(path), 4)

    def test_blank_lines_after_the_rows_are_not_read(self, tmp_path):
        """The whole read's digest is taken only for a file of exactly `rows`
        lines: after blank lines are appended, the rows read back have the
        digest of the file as it was, from a parse and from the sidecar."""
        path = tmp_path / "ds.jsonl"
        save_dataset(small_dataset(n=3), str(path))
        want = load_dataset(str(path))
        with open(path, "ab") as fh:
            fh.write(b"\n\n")
        sidecar(path).unlink()
        assert_same_rows(load_dataset(str(path), 3), want)
        with mock.patch.object(dataio, "_parse_lines", parse_fails):
            assert_same_rows(load_dataset(str(path), 3), want)
            assert len(load_dataset(str(path))) == 3 and load_dataset(str(path)).digest != want.digest

    def test_file_cut_after_its_sidecar_hit_is_a_parse_error(self, tmp_path):
        path = tmp_path / "ds.jsonl"
        save_dataset(small_dataset(n=3), str(path))
        load_dataset(str(path))
        read = dataio._read_sidecar

        def read_then_cut(*args):
            ds = read(*args)
            path.write_bytes(b"".join(path.read_bytes().splitlines(keepends=True)[:1]))
            return ds

        with mock.patch.object(dataio, "_read_sidecar", read_then_cut):
            with pytest.raises(ParseError, match=re.escape(f"{path}: the file lost lines while it was read")):
                load_dataset(str(path), 2)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    def test_fifo_prefix_is_read_in_one_pass(self, tmp_path):
        """A pipe cannot seek: its prefix digest is taken as it is parsed."""
        data = b"".join(encoded_rows(small_dataset()))
        head = tmp_path / "head.jsonl"
        head.write_bytes(b"".join(data.splitlines(keepends=True)[:4]))
        fifo = tmp_path / "ds.jsonl"
        os.mkfifo(fifo)
        # a daemon: a read that fails before opening the pipe leaves it blocked
        writer = threading.Thread(target=fifo.write_bytes, args=(data,), daemon=True)
        writer.start()
        try:
            assert_same_rows(load_dataset(str(fifo), 4), load_dataset(str(head)))
        finally:
            writer.join(timeout=10)
        assert not writer.is_alive()
        assert sorted(os.listdir(tmp_path)) == [".head.jsonl.npz", "ds.jsonl", "head.jsonl"]


def assert_same_rows(got, want):
    """The same rows and digest; a read of no rows has no dimensions to compare."""
    assert got.digest == want.digest and len(got) == len(want)
    if len(want):
        assert_same(got, want)
    else:
        assert got.ids == [] and got.metas == [] and got.labels.size == 0


class TestCheckpoint:
    def _ck(self):
        return Checkpoint(
            env={"name": "unicycle"},
            shape={"n_pred": 2, "n_conj": 1, "horizon": 20, "dim": 4, "tau": 0.1},
            inference_groups={"pred_w": [[0.1, -0.7]], "pred_b": [0.25]},
            margin=0.125,
            policy_groups={"w_in": [[1e-17, 2.5]]},
            norm={"mid": [0.0], "halfrange": [1.0]},
            rule_text=None,
            gan_iteration=3,
            rng_state={"bit_generator": "PCG64", "state": {"state": 123, "inc": 5}},
            dataset_digest="abc123",
            config={"seed": 7},
        )

    def test_roundtrip(self, tmp_path):
        path = tmp_path / "ck.json"
        save_checkpoint(self._ck(), str(path))
        back = load_checkpoint(str(path))
        assert back.inference_groups == self._ck().inference_groups
        assert back.policy_groups == self._ck().policy_groups
        assert back.margin == 0.125
        assert back.rng_state == self._ck().rng_state

    def test_file_is_json_dumps_of_the_fields(self, tmp_path):
        path = tmp_path / "ck.json"
        ck = self._ck()
        save_checkpoint(ck, str(path))
        want = json.dumps({f.name: getattr(ck, f.name) for f in fields(Checkpoint)}, sort_keys=True)
        assert path.read_text(encoding="utf-8") == want

    def test_failed_write_or_rename_leaves_no_temporary_file(self, tmp_path):
        # the rename fails: the path is a directory
        (tmp_path / "dir").mkdir()
        with pytest.raises(IsADirectoryError):
            save_checkpoint(self._ck(), str(tmp_path / "dir"))
        assert sorted(os.listdir(tmp_path)) == ["dir"]
        # the write fails part way: a value JSON cannot encode; the old file stays
        path = tmp_path / "ck.json"
        save_checkpoint(self._ck(), str(path))
        before = path.read_bytes()
        bad = self._ck()
        bad.extra = {"not json": object()}
        with pytest.raises(TypeError):
            save_checkpoint(bad, str(path))
        assert sorted(os.listdir(tmp_path)) == ["ck.json", "dir"] and path.read_bytes() == before

    def test_corrupted_raises_parse_error(self, tmp_path):
        path = tmp_path / "ck.json"
        path.write_text('{"version": 1, "env": ')
        with pytest.raises(ParseError):
            load_checkpoint(str(path))

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "ck.json"
        save_checkpoint(self._ck(), str(path))
        obj = json.loads(path.read_text())
        obj["version"] = 99
        path.write_text(json.dumps(obj))
        with pytest.raises(VersionMismatch):
            load_checkpoint(str(path))


class TestExport:
    def test_row_count_and_order(self, tmp_path):
        rollouts = [np.random.default_rng(i).uniform(size=(21, 3)) for i in range(3)]
        path = tmp_path / "r.csv"
        export_rollouts(rollouts, ("x", "y", "z"), str(path), "a", comment="c")
        lines = path.read_text().strip().split("\n")[1:]
        assert lines[0] == "traj_id,t,x,y,z,tag"
        assert len(lines) == 1 + 3 * 21
        first = lines[1].split(",")
        assert first[0] == "0" and first[1] == "0" and first[-1] == "a"
        assert [line.split(",")[0] for line in lines[1::21]] == ["0", "1", "2"]
        assert all(line.endswith(",a") for line in lines[1:])

    def test_deterministic_bytes(self, tmp_path):
        rollouts = [np.linspace(0, 1, 12).reshape(4, 3)]
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        export_rollouts(rollouts, ("x", "y", "z"), str(p1), "r", comment="c")
        export_rollouts(rollouts, ("x", "y", "z"), str(p2), "r", comment="c")
        assert p1.read_bytes() == p2.read_bytes()

    def test_bytes_match_csv_writer(self, tmp_path):
        rollouts = [
            np.array([[0.1, 1e-05], [1e16, -0.0]]),
            np.array([[1.0, -2.5], [np.pi, 3.0], [0.0, 1e-300]]),
            [[7.0, 8.0]],
        ]
        written = {}
        for tag in ("plain", 'a,"quoted" tag', ""):
            path = tmp_path / "r.csv"
            export_rollouts(rollouts, ("x", "y"), str(path), tag, comment="config=abc")
            buf = io.StringIO()
            writer = csv.writer(buf)
            writer.writerow(["traj_id", "t", "x", "y", "tag"])
            for i, arr in enumerate(rollouts):
                for t, row in enumerate(np.asarray(arr, dtype=float)):
                    writer.writerow([i, t] + [repr(float(v)) for v in row] + [tag])
            written[tag] = data = path.read_bytes()
            assert data == ("# config=abc\n" + buf.getvalue()).encode("utf-8")
            assert data.count(b"\r\n") == 7
        assert b"\r\n0,0,0.1,1e-05,plain\r\n0,1,1e+16,-0.0,plain\r\n" in written["plain"]
        assert written['a,"quoted" tag'].endswith(b'2,0,7.0,8.0,"a,""quoted"" tag"\r\n')
        assert written[""].endswith(b"2,0,7.0,8.0,\r\n")

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(
        width=st.integers(0, 3),
        shapes=st.lists(st.tuples(st.integers(0, 4), st.booleans()), min_size=1, max_size=4),
        data=st.data(),
        tag=st.sampled_from(["%", "{}", ",", '"', "", "%d {0} %%r", 'a,"b"{x}%s', "line\r\nend"])
        | st.text(alphabet='%{},"\r\n ab', max_size=8),
    )
    def test_bytes_match_csv_writer_property(self, width, shapes, data, tag):
        # ragged trajectories, as arrays or plain lists, of values whose repr
        # is not plain: signed zeros, subnormals, large and small exponents,
        # nan and inf; tags a `%` format or a str.format would misread
        special = [0.0, -0.0, 5e-324, -2.2e-308, 1e16, 1e-05, 1e22, np.nan, np.inf, -np.inf, 0.1, -2.5]
        value = st.sampled_from(special) | st.floats(allow_nan=True, allow_infinity=True)
        rollouts = []
        for rows, as_list in shapes:
            grid = [[data.draw(value) for _ in range(width)] for _ in range(rows)]
            rollouts.append(grid if as_list else np.array(grid, dtype=float).reshape(rows, width))
        names = tuple(f"x{k}" for k in range(width))
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["traj_id", "t", *names, "tag"])
        for i, arr in enumerate(rollouts):
            for t, row in enumerate(np.asarray(arr, dtype=float).reshape(len(arr), width)):
                writer.writerow([i, t] + [repr(float(v)) for v in row] + [tag])
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "r.csv"
            export_rollouts(rollouts, names, str(path), tag, comment="config=abc")
            assert path.read_bytes() == ("# config=abc\n" + buf.getvalue()).encode("utf-8")

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(IoError):
            export_rollouts([], ("x",), str(tmp_path / "no.csv"), "r", comment="c")

    def test_comment_line(self, tmp_path):
        path = tmp_path / "c.csv"
        export_rollouts([np.zeros((2, 1))], ("x",), str(path), "r", comment="config=deadbeef")
        assert path.read_text().startswith("# config=deadbeef\n")


class TestDigest:
    def test_config_digest_stable(self):
        a = config_digest({"b": 1, "a": [1, 2]})
        b = config_digest({"a": [1, 2], "b": 1})
        assert a == b and len(a) == 16
