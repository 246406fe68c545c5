"""The benchmark's own tests: a tiny smoke run of every workload, traced and
untraced, plus the failure accounting. Run from the repository root:

    python3 -m pytest -q perfbench
"""

import copy
import dataclasses
import json
import os
import shutil
import signal
import subprocess
import sys
import time

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

import run  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from stlmimic import cli  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCHMARK = json.load(fh)


def tiny(wl):
    """The same workload at smoke-test sizes (caps as in tests/test_cli.py)."""
    cfg = copy.deepcopy(wl.train_config)
    cfg["shape"] = {"n_pred": 2, "n_conj": 1}
    cfg["inference"] = {"max_proposals": 20, "epoch_len": 20, "n_starts": 2, "refine_steps": 1, "refine_batch": 4}
    cfg["policy"] = {"steps": 1 if wl.adjust_retrain else 0, "batch_m": 2, "hidden": 4}
    cfg["gan"] = {"n_generate": 4, "max_iterations": 2, "stop_mcr": 1.0}
    return dataclasses.replace(wl, n_train=8, n_eval=8, train_config=cfg, rollouts=2, adjust_rollouts=2)


def test_benchmark_json_matches_the_harness():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    for m in BENCHMARK["per_layer"]:
        assert m["unit"] == run.per_layer_unit(m["name"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tiny_workload_emits_every_metric(tmp_path, name, trace):
    wl = tiny(workloads.WORKLOADS[name])
    result = run.run(wl, 3, 0.01, bool(trace), cli.main, out_root=str(tmp_path))
    assert result["failed"] == 0, result
    assert result["correct"]
    listed = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in listed}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    record = json.loads((tmp_path / "results" / f"{name}-seed3-trace{trace}.json").read_text())
    assert record["sizes"]["n_eval"] == wl.n_eval and record["seeds"]["train_data"] == 3
    assert set(record["blas_pinning"]) == set(run.BLAS_PINNING)


def test_traced_run_is_reproducible_and_drv_audit_runs_no_tape(tmp_path):
    wl = tiny(workloads.WORKLOADS["drv-audit"])
    first = run.run(wl, 5, 0.01, True, cli.main, out_root=str(tmp_path))
    # the second run checks its fingerprints against the first run's
    second = run.run(wl, 5, 0.01, True, cli.main, out_root=str(tmp_path))
    assert first["failed"] == second["failed"] == 0
    m = second["metrics"]
    assert m["tape.backward_calls"]["value"] == 0
    assert m["stl.robustness_calls"]["value"] > 0
    assert m["dataio.load_dataset_s"]["value"] > 0


def test_bad_input_is_a_failed_operation(tmp_path):
    data, formula = tmp_path / "d.jsonl", tmp_path / "f.txt"
    ops = workloads.Ops(cli.main)
    ops.run("gen-data", ["gen-data", "--env", "unicycle", "--n", "2", "--seed", "0", "--out", data])
    formula.write_text("F[0,30](dA <= 1)\n")  # horizon 30 exceeds T = 20
    op = ops.run("eval", ["eval", "--formula", formula, "--data", data])
    assert op.rc == 3 and not op.ok
    assert (ops.attempted, ops.failed) == (2, 1)


def test_crash_and_bad_arguments_do_not_stop_the_benchmark():
    def broken(argv):
        raise RuntimeError("boom")

    ops = workloads.Ops(broken)
    assert not ops.run("x", ["x"]).ok
    ops.main = cli.main
    assert ops.run("y", ["no-such-command"]).rc == 2
    assert (ops.attempted, ops.failed) == (2, 2)


def test_fingerprint_mismatch_is_a_failed_operation(tmp_path):
    out = tmp_path / "a.txt"
    out.write_text("x\n")
    store = tmp_path / "prints.json"
    store.write_text(json.dumps({"k|train": "0" * 64}))
    ops = workloads.Ops(cli.main)
    op = workloads.Op(ops, "train", [])
    workloads.Fingerprints(str(store), "k").check(op, [str(out)])
    assert not op.ok and ops.failed == 1


def test_tracer_restores_the_package():
    from stlmimic import stl, train

    before = (train.backward, stl.robustness, train.policy_objective_graph)
    t = tracer.Tracer()
    t.install()
    assert train.backward is not before[0]
    t.uninstall()
    assert (train.backward, stl.robustness, train.policy_objective_graph) == before
    assert t.missing == []


def test_meter_scales_wall_time_to_the_reference_speed():
    before = signal.getsignal(signal.SIGALRM)
    meter = speed.Meter(interval_s=0.005)
    meter.start()
    try:
        a = meter.mark()
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.1:
            pass
        b = meter.mark()
    finally:
        meter.stop()
    assert signal.getsignal(signal.SIGALRM) == before
    probes = meter.probes[a[2] - 1 : b[2]]
    assert len(probes) > 2  # the timer probed between the two marks
    wall = meter.wall_seconds(a, b)
    assert 0.0 < wall < time.perf_counter() - t0
    assert meter.seconds(a, b) == pytest.approx(wall * speed.REFERENCE_S * len(probes) / sum(probes))


def test_percentile_summary():
    assert tracer.percentile_summary(range(5))["tail_pct"] == 50.0
    s = tracer.percentile_summary(range(100))
    assert (s["tail_pct"], s["tail"], s["n"]) == (90.0, 89, 100)  # ten samples above 89
    assert tracer.percentile_summary(range(1000))["tail_pct"] == 99.0


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    res = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "uni-policy", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert res.returncode != 0 and res.stdout.strip() == ""
