"""The benchmark's workloads: sizes, caps and fixed inputs, the stlmimic
CLI commands of one set-up and one timed repetition, and the checks on
every command's outputs.

Every size and cap lives in the `Workload` records below and is copied
into the run record, so a change to any of them shows from one commit to
the next.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import logging
import math
import os
import re
import time
import traceback

import helpers  # tests/helpers.py
import numpy as np
import oracle_stl  # tests/oracle_stl.py
from stlmimic import stl
from stlmimic.inference import NetworkShape, SignalNorm

log = logging.getLogger("perfbench")

MAX_SAMPLES = 50  # runs of one command in one repetition
TOKEN_TRAINS = 3  # drv-audit's set-up train, per set-up

# The benchmark writes these formulas itself, so the work `eval` does does
# not depend on what a seed's training happened to learn. Both use nested
# windows and several atoms.
UNI_EVAL_FORMULA = (
    "(F[0,16](dA <= 1.0) | F[0,16](dB <= 0.86)) & F[8,20](dC <= 0.7)"
    " & G[0,20](dO >= 1.0) & G[0,10](F[0,10](dA <= 9 | dB <= 9))"
)
DRV_EVAL_FORMULA = (
    "G[0,40](vot <= 0.5 | F[0,3](veg >= 0.5))"
    " & G[30,45](vot >= 0.2 | F[0,6](veg <= 0.5))"
    " & F[30,57](pot - peg >= 2)"
)

# Classifiers planted into a checkpoint before `extract`, as disjunctions of
# conjunctions of (kind, t1, t2, coeffs, bound) atoms meaning
# kind[t1,t2](coeffs . x >= bound) in raw units (see tests/helpers.py).
# A fixed classifier gives `extract` and its dataset-guided `simplify` the
# same formula to reduce whatever the seed.
UNI_PLANTED_DNF = helpers.EQ12_DNF  # the paper's Eq. 12
DRV_PLANTED_DNF = [
    # the lead stops and so does the ego vehicle
    [("F", 35, 57, (0.0, 0.0, 0.0, -1.0), -0.5), ("F", 35, 57, (0.0, -1.0, 0.0, 0.0), -0.5)],
    # both keep moving
    [("G", 30, 57, (0.0, 0.0, 0.0, 1.0), 1.0), ("G", 30, 57, (0.0, 1.0, 0.0, 0.0), 1.0)],
]
ENV_SHAPES = {
    # default classifier shapes (stlmimic.cli.SHAPE_DEFAULTS) and signal sizes
    "unicycle": {"n_pred": 6, "n_conj": 2, "horizon": 20, "dim": 4, "tau": 0.1},
    "driving": {"n_pred": 8, "n_conj": 2, "horizon": 57, "dim": 4, "tau": 0.1},
}
ENV_DIMS = {"unicycle": ("dA", "dB", "dC", "dO"), "driving": ("peg", "veg", "pot", "vot")}


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    why: str
    env: str
    n_train: int  # gen-data size of the training set
    n_eval: int  # gen-data size of the evaluation set
    train_config: dict  # `train` config without its seed
    timed_train: bool  # False: `train` runs in set-up only
    eval_formula: str
    planted_dnf: list
    rollouts: int
    adjust_rule: str
    adjust_retrain: bool
    adjust_rollouts: int = 20

    @property
    def rounds(self) -> int:
        return int(self.train_config["gan"]["max_iterations"])


WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload(
            name="uni-policy",
            why="unicycle, positive-only demos: the scalar-tape policy graph and its backward dominate train and adjust --retrain",
            env="unicycle",
            n_train=20,
            n_eval=100,
            train_config={
                "env": {"name": "unicycle"},
                "inference": {"max_proposals": 50, "refine_steps": 2, "refine_batch": 8},
                "policy": {"steps": 1, "batch_m": 32, "hidden": 32},
                "gan": {"n_generate": 10, "max_iterations": 2, "stop_mcr": 1.0},
            },
            timed_train=True,
            eval_formula=UNI_EVAL_FORMULA,
            planted_dnf=UNI_PLANTED_DNF,
            rollouts=50,
            adjust_rule="G[0,20](dO >= 1.5)",
            adjust_retrain=True,
        ),
        Workload(
            name="drv-classifier",
            why="driving, T=57 with 8 predicates over 4 dims: classifier fitting (annealing and graph refine) dominates train",
            env="driving",
            n_train=40,
            n_eval=100,
            train_config={
                "env": {"name": "driving"},
                "inference": {"max_proposals": 50, "refine_steps": 4, "refine_batch": 8},
                "policy": {"steps": 1, "batch_m": 4},
                "gan": {"n_generate": 10, "max_iterations": 2, "stop_mcr": 1.0},
            },
            timed_train=True,
            eval_formula=DRV_EVAL_FORMULA,
            planted_dnf=DRV_PLANTED_DNF,
            rollouts=50,
            adjust_rule="G[0,57](veg <= 6)",
            adjust_retrain=False,
        ),
        Workload(
            name="drv-audit",
            why="a large driving set read by extract, eval and rollout: exact STL, dataset reads and numpy rollouts, no tape",
            env="driving",
            n_train=16,
            n_eval=1000,
            train_config={
                "env": {"name": "driving"},
                "shape": {"n_pred": 1, "n_conj": 1},
                "inference": {
                    "max_proposals": 10,
                    "epoch_len": 10,
                    "n_starts": 2,
                    "refine_steps": 1,
                    "refine_batch": 4,
                },
                "policy": {"steps": 0},
                "gan": {"n_generate": 4, "max_iterations": 2, "stop_mcr": 1.0},
            },
            timed_train=False,
            eval_formula=DRV_EVAL_FORMULA,
            planted_dnf=DRV_PLANTED_DNF,
            rollouts=200,
            adjust_rule="G[0,57](veg <= 6)",
            adjust_retrain=False,
        ),
    )
}


def seeds_for(seed: int) -> dict:
    """Every seed a run uses, derived from the benchmark's --seed."""
    return {"train_data": seed, "eval_data": seed + 7919, "config": seed, "rollout": seed + 104729}


# --- operations ------------------------------------------------------------------


class Op:
    """One CLI command and the verdict of its output checks."""

    def __init__(self, ops: "Ops", label: str, argv: list):
        self.ops = ops
        self.label = label
        self.argv = argv
        self.rc = None
        self.seconds = math.nan  # at the reference speed when metered
        self.wall_seconds = math.nan
        self.stdout = ""
        self.ok = True

    def fail(self, reason: str) -> None:
        if self.ok:
            self.ok = False
            self.ops.failed += 1
        self.ops.failures.append(f"{self.label}: {reason}")
        log.error("%s failed: %s", self.label, reason)

    def check(self, cond: bool, reason: str) -> bool:
        if not cond:
            self.fail(reason)
        return cond


class Ops:
    """Runs stlmimic CLI commands in-process, as `stlmimic <argv>` would, and
    counts attempted and failed operations. A command fails on a nonzero
    exit code or on a failed output check; neither stops the benchmark."""

    def __init__(self, main, meter=None):
        self.main = main
        self.meter = meter  # a speed.Meter: times read at the reference speed
        self.tracer = None  # a Tracer while a traced run is measuring
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def run(self, label: str, argv: list) -> Op:
        op = Op(self, label, [str(a) for a in argv])
        self.attempted += 1
        out = io.StringIO()
        span = self.tracer.command(label) if self.tracer else contextlib.nullcontext()
        start = self.meter.mark() if self.meter else None
        t0 = time.perf_counter()
        try:
            with span, contextlib.redirect_stdout(out):
                op.rc = self.main(op.argv)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            op.rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # an uncaught error is a failed command, not a crash
            log.error("%s raised:\n%s", label, traceback.format_exc())
            op.rc = "exception"
        op.seconds = op.wall_seconds = time.perf_counter() - t0
        if self.meter:
            end = self.meter.mark()
            op.seconds, op.wall_seconds = self.meter.seconds(start, end), self.meter.wall_seconds(start, end)
        op.stdout = out.getvalue()
        op.check(op.rc == 0, f"exit code {op.rc}")
        return op


# --- fixtures the benchmark writes -----------------------------------------------


def write_config(wl: Workload, seed: int, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({**wl.train_config, "seed": seeds_for(seed)["config"]}, fh, sort_keys=True)


def plant_classifier(ckpt_path: str, dnf, out_path: str) -> None:
    """Copy a checkpoint with its classifier replaced by `dnf`, encoded at the
    environment's default shape through the checkpoint's signal norm."""
    with open(ckpt_path, "r", encoding="utf-8") as fh:
        ck = json.load(fh)
    shape = dict(ENV_SHAPES[ck["env"]["name"]])
    params = helpers.encode_dnf(dnf, NetworkShape(**shape), SignalNorm.from_jsonable(ck["norm"]))
    ck["shape"] = shape
    ck["inference_groups"] = {k: v.tolist() for k, v in vars(params).items()}
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(ck, fh, sort_keys=True)


# --- output checks ---------------------------------------------------------------


def read_dataset(path: str):
    """(signals, labels) straight from the JSON-Lines file."""
    signals, labels = [], []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                obj = json.loads(line)
                agent = np.asarray(obj["agent_states"], dtype=float)
                env = np.asarray(obj["env_states"], dtype=float).reshape(agent.shape[0], -1)
                signals.append(np.concatenate([agent, env], axis=1))
                labels.append(int(obj["label"]))
    return signals, labels


def read_formula(path: str, env: str):
    with open(path, "r", encoding="utf-8") as fh:
        return stl.parse(fh.read().strip(), ENV_DIMS[env])


class Checker:
    """Output checks, with the expensive oracle recount cached per input."""

    def __init__(self, env: str):
        self.env = env
        self._recounts: dict = {}

    def formula_file(self, op: Op, path: str) -> None:
        if op.ok:
            try:
                read_formula(path, self.env)
            except (OSError, ValueError) as exc:
                op.fail(f"{os.path.basename(path)} does not parse: {exc}")

    def metrics_csv(self, op: Op, path: str, rounds: int) -> None:
        if not op.ok:
            return
        try:
            rows = _csv_rows(path)
        except OSError as exc:
            op.fail(f"metrics.csv unreadable: {exc}")
            return
        op.check(len(rows) - 1 == rounds, f"metrics.csv has {len(rows) - 1} rows, expected {rounds}")
        op.check(all(_finite(r) for r in rows[1:]), "metrics.csv has a non-finite value")

    def rollout_csv(self, op: Op, path: str, n: int) -> None:
        if not op.ok:
            return
        horizon = ENV_SHAPES[self.env]["horizon"]
        try:
            rows = _csv_rows(path)
        except OSError as exc:
            op.fail(f"rollout CSV unreadable: {exc}")
            return
        want = n * (horizon + 1)
        op.check(len(rows) - 1 == want, f"rollout CSV has {len(rows) - 1} rows, expected {want}")
        op.check(all(_finite(r[:-1]) for r in rows[1:]), "rollout CSV has a non-finite value")

    def eval_mcr(self, op: Op, formula_path: str, data_path: str):
        """Check the MCR `eval` printed against tests/oracle_stl; returns it."""
        if not op.ok:
            return None
        m = re.search(r"^MCR (\S+)$", op.stdout, re.MULTILINE)
        if not op.check(m is not None, "eval printed no MCR line"):
            return None
        printed = float(m.group(1))
        with open(formula_path, "r", encoding="utf-8") as fh:
            key = (fh.read(), data_path)
        if key not in self._recounts:
            self._recounts[key] = self._oracle_mcr(formula_path, data_path)
        recount = self._recounts[key]
        op.check(abs(printed - recount) <= 5e-7, f"eval printed MCR {printed}, oracle recount {recount}")
        return recount

    def _oracle_mcr(self, formula_path: str, data_path: str) -> float:
        f = read_formula(formula_path, self.env)
        signals, labels = read_dataset(data_path)
        wrong = sum(
            (oracle_stl.robustness_trace(s, f)[0] >= 0.0) != (label > 0)
            for s, label in zip(signals, labels)
        )
        return wrong / len(signals)


def _csv_rows(path: str) -> list:
    with open(path, "r", encoding="utf-8") as fh:
        return [line.rstrip("\n").split(",") for line in fh if line.strip() and not line.startswith("#")]


def _finite(cells) -> bool:
    try:
        return all(math.isfinite(float(c)) for c in cells)
    except ValueError:
        return False


# --- determinism fingerprints ---------------------------------------------------


def fingerprint(paths, drop_column: str | None = None) -> str:
    """sha256 over the files' bytes; `drop_column` removes one column from
    the CSV files (metrics.csv's wall_time_s, a measurement, not a result)."""
    h = hashlib.sha256()
    for path in paths:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        if drop_column is not None and path.endswith(".csv"):
            text = _drop_csv_column(text, drop_column)
        h.update(text.encode("utf-8"))
        h.update(b"\0")
    return h.hexdigest()


def _drop_csv_column(text: str, column: str) -> str:
    lines = text.split("\n")
    header = next(i for i, line in enumerate(lines) if line and not line.startswith("#"))
    idx = lines[header].split(",").index(column)
    out = []
    for i, line in enumerate(lines):
        if i >= header and line:
            cells = line.split(",")
            line = ",".join(cells[:idx] + cells[idx + 1 :])
        out.append(line)
    return "\n".join(out)


class Fingerprints:
    """Per-command digests of a workload's results at one seed. Every later
    repetition, in this process or in a later run of the same checkout,
    must reproduce the first digest recorded under the same key."""

    def __init__(self, store_path: str, prefix: str):
        self.store_path = store_path
        self.prefix = prefix
        self.seen: dict = {}
        try:
            with open(store_path, "r", encoding="utf-8") as fh:
                self.stored = json.load(fh)
        except (OSError, ValueError):
            self.stored = {}

    def check(self, op: Op, paths, drop_column: str | None = None) -> None:
        if not op.ok:
            return
        try:
            digest = fingerprint(paths, drop_column)
        except (OSError, StopIteration, ValueError) as exc:
            op.fail(f"cannot fingerprint outputs: {exc}")
            return
        key = f"{self.prefix}|{op.label}"
        want = self.seen.setdefault(key, self.stored.get(key, digest))
        op.check(digest == want, f"fingerprint {digest[:12]} differs from {want[:12]} at the same seed")

    def save(self) -> None:
        merged = {**self.stored, **self.seen}
        tmp = self.store_path + f".{os.getpid()}.tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(merged, fh, sort_keys=True, indent=1)
        os.replace(tmp, self.store_path)


# --- set-up and one timed repetition ------------------------------------------------


def setup(wl: Workload, seed: int, ops: Ops, checker: Checker, prints: Fingerprints, d: str) -> dict:
    """gen-data, config and fixed formula (and drv-audit's token train).
    Returns the paths the timed repetitions read, plus the train times."""
    os.makedirs(d, exist_ok=True)
    s = seeds_for(seed)
    paths = {
        "train_data": os.path.join(d, "train.jsonl"),
        "eval_data": os.path.join(d, "eval.jsonl"),
        "config": os.path.join(d, "config.json"),
        "eval_formula": os.path.join(d, "eval_formula.txt"),
    }
    for key, n in (("train_data", wl.n_train), ("eval_data", wl.n_eval)):
        ops.run("gen-data", ["gen-data", "--env", wl.env, "--n", n, "--seed", s[key], "--out", paths[key]])
    write_config(wl, seed, paths["config"])
    with open(paths["eval_formula"], "w", encoding="utf-8") as fh:
        fh.write(wl.eval_formula + "\n")
    if not wl.timed_train:
        # the token train is short, so it runs several times for train_s
        paths["ckpt"] = os.path.join(d, "run", "ckpt.json")
        paths["train_s"] = []
        for _ in range(TOKEN_TRAINS):
            op = ops.run("train", train_argv(paths, paths["ckpt"]))
            check_train(wl, op, checker, prints, paths["ckpt"])
            paths["train_s"].append(op.seconds)
    return paths


def train_argv(paths: dict, ckpt: str) -> list:
    return ["train", "--data", paths["train_data"], "--config", paths["config"], "--out", ckpt]


def check_train(wl: Workload, op: Op, checker: Checker, prints: Fingerprints, ckpt: str) -> None:
    run_dir = os.path.dirname(ckpt)
    formula, metrics = os.path.join(run_dir, "formula.txt"), os.path.join(run_dir, "metrics.csv")
    checker.formula_file(op, formula)
    checker.metrics_csv(op, metrics, wl.rounds)
    prints.check(op, [formula, metrics], drop_column="wall_time_s")


def repetition(wl: Workload, seed: int, ops: Ops, checker: Checker, prints: Fingerprints, paths: dict, d: str,
               sample_s: float = 0.0) -> dict:
    """One timed pass over the workload's commands: `train` (in the training
    workloads), then extract, eval, rollout and adjust in turn. Those four
    go round again, each until its runs add up to `sample_s` or it has run
    MAX_SAMPLES times, so a short command's samples spread over the pass
    instead of sharing one slow or fast moment of the machine. Returns every
    run's time by label, at the reference speed when metered and as wall time,
    and the held-out MCR."""
    os.makedirs(d, exist_ok=True)
    times: dict = {}
    walls: dict = {}

    def timed(label, argv, check) -> None:
        op = ops.run(label, argv)
        check(op)
        times.setdefault(label, []).append(op.seconds)
        walls.setdefault(label, []).append(op.wall_seconds)

    if wl.timed_train:
        ckpt = os.path.join(d, "run", "ckpt.json")
        timed("train", train_argv(paths, ckpt), lambda op: check_train(wl, op, checker, prints, ckpt))
    else:
        ckpt = paths["ckpt"]
    planted = os.path.join(d, "planted.json")
    try:
        plant_classifier(ckpt, wl.planted_dnf, planted)
    except (OSError, ValueError, KeyError) as exc:
        log.error("cannot plant the fixed classifier: %s", exc)

    # extract, rollout and adjust read the evaluation set: its size is fixed,
    # where the checkpoint's own dataset grows with what training generated
    extracted = os.path.join(d, "extracted.txt")
    extract = ["extract", "--ckpt", planted, "--data", paths["eval_data"], "--out", extracted]

    def check_extract(op):
        checker.formula_file(op, extracted)
        prints.check(op, [extracted])

    mcr = {}

    def check_eval(op):
        mcr["fixed"] = checker.eval_mcr(op, paths["eval_formula"], paths["eval_data"])

    rollouts = os.path.join(d, "rollouts.csv")
    rollout = ["rollout", "--ckpt", ckpt, "--n", wl.rollouts, "--seed", seeds_for(seed)["rollout"], "--out", rollouts]

    def check_rollout(op):
        checker.rollout_csv(op, rollouts, wl.rollouts)
        prints.check(op, [rollouts])

    adj_dir = os.path.join(d, "adjusted")
    adj_rollouts = os.path.join(adj_dir, "rollouts_adjusted.csv")
    adjust = ["adjust", "--ckpt", ckpt, "--conjoin", wl.adjust_rule, "--rollouts", wl.adjust_rollouts,
              "--out", os.path.join(adj_dir, "ckpt.json")]
    if wl.adjust_retrain:
        adjust.append("--retrain")
    if wl.env == "driving":
        rollout += ["--data", paths["eval_data"]]
        adjust += ["--data", paths["eval_data"]]

    def check_adjust(op):
        checker.rollout_csv(op, adj_rollouts, wl.adjust_rollouts)
        prints.check(op, [adj_rollouts])

    pending = [
        ("extract", extract, check_extract),
        ("eval", ["eval", "--formula", paths["eval_formula"], "--data", paths["eval_data"]], check_eval),
        ("rollout", rollout, check_rollout),
        ("adjust", adjust, check_adjust),
    ]
    while pending:
        for label, argv, check in pending:
            timed(label, argv, check)
        pending = [c for c in pending if sum(times[c[0]]) < sample_s and len(times[c[0]]) < MAX_SAMPLES]

    heldout = mcr["fixed"]
    if wl.timed_train:
        # the trained formula's quality on data it never saw; not timed
        formula = os.path.join(d, "run", "formula.txt")
        op = ops.run("eval-trained", ["eval", "--formula", formula, "--data", paths["eval_data"]])
        heldout = checker.eval_mcr(op, formula, paths["eval_data"])
    return {"times": times, "walls": walls, "heldout_mcr": heldout}
