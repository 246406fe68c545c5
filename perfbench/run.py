"""Benchmark of the stlmimic command line, run in-process as a user would.

    python3 perfbench/run.py --workload uni-policy --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
`src/`, and the output checks use `tests/oracle_stl.py` and
`tests/helpers.py`. The workload sets the sizes; `--seed` makes every input;
`--seconds` is how long the timed repetitions run. With `--trace 0` the last
line of standard output is a JSON object holding the end-to-end metrics;
with `--trace 1` it holds the per-layer metrics of a traced run. The run
record, the log and the spans are written under `.perfbench/` in the
checkout. See perfbench/README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import logging
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

# One thread for the process and for BLAS; set before numpy is imported.
BLAS_PINNING = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REQUIRED = ("src/stlmimic/cli.py", "tests/oracle_stl.py", "tests/helpers.py")
SETUP_REPS = 5  # set-ups per end-to-end run; setup_s is their median
SAMPLE_S = 0.25  # a shorter command runs again in the same repetition

END_TO_END = {
    "setup_s": "s",
    "train_s": "s",
    "adjust_s": "s",
    "extract_s": "s",
    "eval_traj_per_s": "traj/s",
    "rollouts_per_s": "rollouts/s",
    "peak_rss_mb": "MB",
}


def per_layer_unit(name: str) -> str:
    if name.endswith(".tail_pct"):
        return "%"
    if name.endswith(("_ms", "_ms.tail")):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes_written"):
        return "bytes"
    if name.endswith(("_share", "_ratio", "_mcr")):
        return "fraction"
    return "count"


def parse_args(argv):
    # The benchmark's own modules import numpy and stlmimic, so they load
    # only after main() has pinned BLAS and put src/ and tests/ on the path.
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=list(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    missing = [p for p in REQUIRED if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        print(f"perfbench: not a stlmimic source checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    os.environ.update(BLAS_PINNING)
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]
    args = parse_args(argv)
    from stlmimic import cli
    from workloads import WORKLOADS

    result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), cli.main)
    for name, m in result["metrics"].items():
        print(f"{name:36s} {m['value']:>16.6g} {m['unit']}")
    for name, value in result["summary"].items():
        print(f"{name:36s} {value:>16.6g}")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


def run(wl, seed: int, seconds: float, trace: bool, cli_main, out_root: str | None = None) -> dict:
    """Set up, time the workload's commands for `seconds`, check every
    output and return the result line's fields plus a human summary."""
    from speed import Meter
    from tracer import Tracer, layer_metrics
    from workloads import Checker, Fingerprints, Ops, repetition, setup

    out_root = out_root or os.path.join(ROOT, ".perfbench")
    tag = f"{wl.name}-seed{seed}-trace{int(trace)}"
    work = os.path.join(out_root, "work", tag)
    results = os.path.join(out_root, "results")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    os.makedirs(results, exist_ok=True)
    handler = _log_to(os.path.join(results, f"{tag}.log"))

    # end-to-end times read at the reference speed; a traced run reads wall time
    meter = None if trace else Meter()
    ops = Ops(cli_main, meter)
    checker = Checker(wl.env)
    record = run_record(wl, seed, seconds, trace)
    prints = Fingerprints(
        os.path.join(out_root, "fingerprints.json"),
        f"{wl.name}|seed={seed}|sizes={_digest(record['sizes'])}|source={record['source_sha256'][:16]}",
    )
    try:
        if meter:
            meter.start()
        setup_times, train_times = [], []
        for i in range(1 if trace else SETUP_REPS):
            import_s = import_seconds(metered=meter is not None)
            t0, m0 = time.perf_counter(), meter.mark() if meter else None
            paths = setup(wl, seed, ops, checker, prints, os.path.join(work, f"setup{i}"))
            setup_s = meter.seconds(m0, meter.mark()) if meter else time.perf_counter() - t0
            setup_times.append(import_s + setup_s)
            train_times += paths.get("train_s", [])

        reps, traced, per_rep = [], [], []
        tracer = Tracer()

        def repeat(sample_s: float = 0.0) -> dict:
            d = os.path.join(work, f"rep{len(reps) + len(traced)}")
            return repetition(wl, seed, ops, checker, prints, paths, d, sample_s)

        def traced_pair() -> None:
            """An untraced repetition, then a traced one: both see the same
            machine, so their difference is the cost of tracing."""
            reps.append(repeat())
            tracer.install()
            ops.tracer, mark = tracer, tracer.mark()
            try:
                traced.append(repeat())
            finally:
                ops.tracer = None
                tracer.uninstall()
            per_rep.append(layer_metrics(tracer, mark, tracer.mark()))

        until(seconds, traced_pair if trace else lambda: reps.append(repeat(SAMPLE_S)))
        if not trace:
            metrics = end_to_end(wl, reps, setup_times, train_times)
        else:
            metrics = {k: statistics.median(m[k] for m in per_rep) for k in per_rep[0]}
            untraced_s = _pass_seconds(reps)
            metrics["trace.overhead_s"] = _pass_seconds(traced) - untraced_s
            metrics["trace.overhead_share"] = metrics["trace.overhead_s"] / untraced_s
            metrics["train.heldout_mcr"] = traced[-1]["heldout_mcr"] or 0.0
            record["missing_targets"] = tracer.missing
            tracer.write(os.path.join(results, f"{tag}-spans.jsonl"))
            reps += traced
        prints.save()
    finally:
        if meter:
            meter.stop()
        logging.getLogger().removeHandler(handler)
        handler.close()
        shutil.rmtree(work, ignore_errors=True)

    units = END_TO_END if not trace else {k: per_layer_unit(k) for k in metrics}
    finite = all(math.isfinite(v) for v in metrics.values())
    summary = {
        "failed_share": ops.failed / ops.attempted,
        "heldout_mcr": reps[-1]["heldout_mcr"] if reps[-1]["heldout_mcr"] is not None else math.nan,
        "timed_repetitions": len(reps),
    }
    record.update(
        setup_reps_s=setup_times,
        token_train_s=train_times,
        repetitions=[r["times"] for r in reps],
        repetitions_wall=[r["walls"] for r in reps],
        probes=len(meter.probes) if meter else 0,
        summary=summary,
        failures=ops.failures,
        metrics=metrics,
    )
    with open(os.path.join(results, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True, default=str)
    return {
        "correct": ops.failed == 0 and finite,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {k: {"value": v if math.isfinite(v) else 0.0, "unit": units[k]} for k, v in metrics.items()},
        "summary": summary,
    }


def until(budget: float, step) -> None:
    """Run `step` until the next one would likely end after `budget` seconds."""
    durations, t_start = [], time.perf_counter()
    while True:
        t0 = time.perf_counter()
        step()
        durations.append(time.perf_counter() - t0)
        if time.perf_counter() - t_start + statistics.median(durations) > budget:
            return


def end_to_end(wl, reps, setup_times, train_times) -> dict:
    """A command's time is the median of its samples in the run, each read
    at the reference speed (speed.py; perfbench/README.md, "Noise"). Set-up
    time is the median of the set-ups."""

    def median(label):
        return statistics.median(t for r in reps for t in r["times"][label])

    return {
        "setup_s": statistics.median(setup_times),
        "train_s": median("train") if wl.timed_train else statistics.median(train_times),
        "adjust_s": median("adjust"),
        "extract_s": median("extract"),
        "eval_traj_per_s": wl.n_eval / median("eval"),
        "rollouts_per_s": wl.rollouts / median("rollout"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


IMPORT_CODE = """
import sys, time
metered = sys.argv[1] == "1"
if metered:
    import speed
    probes = [speed.probe_kernel() for _ in range(PROBES)]
t = time.perf_counter()
import stlmimic.cli
seconds = time.perf_counter() - t
if metered:
    probes += [speed.probe_kernel() for _ in range(PROBES)]
    seconds *= speed.REFERENCE_S * len(probes) / sum(probes)
print(seconds)
"""


def import_seconds(metered: bool) -> float:
    """Time to import the CLI in a fresh interpreter, as each `stlmimic`
    invocation pays it. Metered, the interpreter probes its own speed just
    before and after the import and reads the time at the reference speed."""
    code = IMPORT_CODE.replace("PROBES", "10")
    env = {**os.environ, **BLAS_PINNING, "PYTHONPATH": os.pathsep.join([os.path.join(ROOT, "src"), HERE])}
    res = subprocess.run([sys.executable, "-c", code, str(int(metered))], env=env, capture_output=True, text=True,
                         timeout=120, check=True)
    return float(res.stdout.strip())


def _pass_seconds(reps) -> float:
    """One pass over the timed commands, from each command's median time."""
    return sum(statistics.median(t for r in reps for t in r["times"][label]) for label in reps[0]["times"])


def run_record(wl, seed: int, seconds: float, trace: bool) -> dict:
    """What was run, on what, at which sizes and seeds."""
    import numpy
    from workloads import seeds_for

    return {
        "workload": wl.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "commit": _git_commit(),
        "source_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "blas_pinning": {k: os.environ.get(k) for k in BLAS_PINNING},
        "setup_reps": 1 if trace else SETUP_REPS,
        "sizes": dataclasses.asdict(wl),
        "seeds": seeds_for(seed),
    }


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a git repository."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src", "stlmimic")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True, default=str).encode()).hexdigest()[:16]


def _log_to(path: str) -> logging.Handler:
    """Send stlmimic's and the benchmark's log to a file; the CLI's own
    logging.basicConfig then leaves the configured root logger alone."""
    handler = logging.FileHandler(path, mode="w", encoding="utf-8")
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    root = logging.getLogger()
    root.addHandler(handler)
    root.setLevel(logging.INFO)
    return handler


if __name__ == "__main__":
    sys.exit(main())
