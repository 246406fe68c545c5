"""Per-layer tracing from outside the package.

`Tracer.install` wraps public functions of stlmimic's modules where their
callers look them up (`stlmimic.train.backward`, not `stlmimic.tape.backward`,
because train imports it by name). A wrapper records a span (name, start,
end, parent) only while a CLI command is open; the commands are the root
spans. Spans stay in memory and are written out when the run ends.

A wrapped function that a later version of the package no longer has is
skipped and listed in `Tracer.missing`; its metrics then read 0.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import math
import os
import statistics
import time

# (module, attribute, span name, hook). The hook runs after the call with
# (tracer, args, kwargs, result).
TARGETS = [
    ("stlmimic.train", "backward", "tape.backward", "_count_nodes"),
    ("stlmimic.train", "train_policy", "train.policy_fit", None),
    ("stlmimic.cli", "train_policy", "train.policy_fit", None),
    ("stlmimic.train", "policy_objective_graph", "train.policy_graph", None),
    ("stlmimic.train", "rollout_graph", "envs.rollout_graph", None),
    ("stlmimic.policy", "PolicyCell.step", "policy.cell_step", None),
    ("stlmimic.train", "combined_smooth_graph", "inference.smooth_graph", None),
    ("stlmimic.train", "smooth_robustness_graph", "inference.smooth_graph", None),
    ("stlmimic.train", "train_inference", "train.inference_fit", None),
    ("stlmimic.train", "inference_loss_np", "inference.loss_np", None),
    ("stlmimic.train", "extract_formula", "inference.extract", None),
    ("stlmimic.cli", "extract_formula", "inference.extract", None),
    ("stlmimic.train", "simplify", "inference.simplify", None),
    ("stlmimic.cli", "simplify", "inference.simplify", None),
    ("stlmimic.inference", "exact_mcr", "inference.exact_mcr", "_count_candidate"),
    ("stlmimic.stl", "robustness", "stl.robustness", None),
    ("stlmimic.envs", "rollout_np", "envs.rollout_np", None),
    ("stlmimic.train", "rollout_np", "envs.rollout_np", None),
    ("stlmimic.dataio", "save_dataset", "dataio.save_dataset", "_count_bytes"),
    ("stlmimic.dataio", "save_checkpoint", "dataio.save_checkpoint", "_count_bytes"),
    ("stlmimic.dataio", "export_rollouts", "dataio.export_rollouts", "_count_bytes"),
    ("stlmimic.dataio", "load_dataset", "dataio.load_dataset", None),
    ("stlmimic.cli", "dataset_digest", "dataio.digest", None),
]
# output path argument of the writers, by position
_PATH_ARG = {"save_dataset": 1, "save_checkpoint": 1, "export_rollouts": 2}

NAME, START, END, PARENT = range(4)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts = {"tape.nodes": 0, "dataio.bytes_written": 0, "simplify.candidates": 0, "simplify.accepted": 0}
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._undo: list = []
        self._node_mark = 0
        self._simplify_best: dict = {}

    # -- spans -------------------------------------------------------------

    def _open(self, name: str) -> int:
        self.spans.append([name, time.perf_counter(), None, self._stack[-1] if self._stack else -1])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def command(self, label: str):
        """Root span of one CLI command."""
        self._node_mark = _tape_nodes_created()
        idx = self._open(f"cli.{label}")
        try:
            yield
        finally:
            self._close(idx)

    # -- wrappers ------------------------------------------------------------

    def install(self) -> None:
        for module_name, attr, span, hook in TARGETS:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            try:
                for part in path:
                    owner = getattr(owner, part)
                fn = getattr(owner, leaf)
            except AttributeError:
                self.missing.append(f"{module_name}.{attr}")
                continue
            setattr(owner, leaf, self._wrap(fn, span, getattr(self, hook) if hook else None, leaf))
            self._undo.append((owner, leaf, fn))

    def uninstall(self) -> None:
        while self._undo:
            owner, leaf, fn = self._undo.pop()
            setattr(owner, leaf, fn)

    def _wrap(self, fn, span: str, hook, leaf: str):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer._stack:  # outside a CLI command: not measured
                return fn(*args, **kwargs)
            idx = tracer._open(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if hook is not None:
                hook(leaf, args, kwargs, result)
            return result

        return wrapper

    # -- counters --------------------------------------------------------------

    def _count_nodes(self, leaf, args, kwargs, result) -> None:
        """Value nodes built since the previous backward (or command start)."""
        now = _tape_nodes_created()
        self.counts["tape.nodes"] += now - self._node_mark
        self._node_mark = now

    def _count_bytes(self, leaf, args, kwargs, result) -> None:
        path = args[_PATH_ARG[leaf]] if len(args) > _PATH_ARG[leaf] else kwargs.get("path")
        if path and os.path.exists(path):
            self.counts["dataio.bytes_written"] += os.path.getsize(path)

    def _count_candidate(self, leaf, args, kwargs, result) -> None:
        """simplify scores its input once, then each deletion candidate, and
        accepts a candidate whose exact MCR does not exceed the best so far."""
        parent = self._stack[-1] if self._stack else -1
        if parent < 0 or self.spans[parent][NAME] != "inference.simplify":
            return
        best = self._simplify_best.get(parent)
        if best is None:
            self._simplify_best[parent] = result
            return
        self.counts["simplify.candidates"] += 1
        if result <= best:
            self.counts["simplify.accepted"] += 1
            self._simplify_best[parent] = result

    # -- output ----------------------------------------------------------------

    def mark(self) -> tuple:
        """Position to measure from: (span index, counters)."""
        return len(self.spans), dict(self.counts)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _tape_nodes_created() -> int:
    """Value nodes created so far, read off the tape's creation counter
    without advancing it; 0 when the package has no scalar tape."""
    try:
        from stlmimic import tape

        return int(repr(tape._COUNTER)[len("count(") : -1])
    except (ImportError, AttributeError, ValueError):
        return 0


# --- per-layer metrics ------------------------------------------------------------

LAYERS = ("cli", "tape", "train", "policy", "envs", "inference", "stl", "dataio")


def percentile_summary(values) -> dict:
    """Median and the highest of p90/p99/p99.9 (nearest rank) that has at
    least ten samples above it (the median when there are too few), with
    the sample count."""
    values = sorted(values)
    n = len(values)
    median = statistics.median(values) if values else 0.0
    out = {"p50": median, "tail": median, "tail_pct": 50.0, "n": n}
    for pct in (90.0, 99.0, 99.9):
        rank = math.ceil(round(n * pct / 100.0, 6))
        if n - rank >= 10:
            out["tail"] = values[rank - 1]
            out["tail_pct"] = pct
    return out


def layer_metrics(tracer: Tracer, start: tuple, end: tuple) -> dict:
    """Per-layer metrics of the spans and counts recorded between two marks."""
    spans = tracer.spans[start[0] : end[0]]
    base = start[0]
    counts = {k: end[1][k] - start[1].get(k, 0) for k in end[1]}

    total: dict = {}  # inclusive time by span name, not double-counting recursion
    calls: dict = {}
    durations: dict = {}
    child = [0.0] * len(spans)
    for i, (name, t0, t1, parent) in enumerate(spans):
        dur = t1 - t0
        calls[name] = calls.get(name, 0) + 1
        durations.setdefault(name, []).append(dur)
        if parent >= base:
            child[parent - base] += dur
        if not _has_ancestor(spans, base, parent, name):
            total[name] = total.get(name, 0.0) + dur
    self_time = {layer: 0.0 for layer in LAYERS}
    for i, (name, t0, t1, _parent) in enumerate(spans):
        layer = name.split(".", 1)[0]
        self_time[layer] = self_time.get(layer, 0.0) + (t1 - t0) - child[i]

    def t(name):
        return total.get(name, 0.0)

    def n(name):
        return calls.get(name, 0)

    m = {
        "tape.backward_s": t("tape.backward"),
        "tape.backward_calls": n("tape.backward"),
        "tape.nodes_per_backward": counts["tape.nodes"] / n("tape.backward") if n("tape.backward") else 0.0,
        "train.policy_fit_s": t("train.policy_fit"),
        "train.policy_graph_s": t("train.policy_graph"),
        "envs.rollout_graph_s": t("envs.rollout_graph"),
        "policy.cell_step_s": t("policy.cell_step"),
        "inference.smooth_graph_s": t("inference.smooth_graph"),
        "train.inference_fit_s": t("train.inference_fit"),
        "inference.loss_np_calls": n("inference.loss_np"),
        "inference.extract_s": t("inference.extract"),
        "inference.simplify_s": t("inference.simplify"),
        "inference.simplify_candidates": counts["simplify.candidates"],
        "inference.simplify_accept_ratio": (
            counts["simplify.accepted"] / counts["simplify.candidates"] if counts["simplify.candidates"] else 0.0
        ),
        "stl.robustness_calls": n("stl.robustness"),
        "stl.robustness_s": t("stl.robustness"),
        "envs.rollout_np_calls": n("envs.rollout_np"),
        "dataio.save_dataset_s": t("dataio.save_dataset"),
        "dataio.save_checkpoint_s": t("dataio.save_checkpoint"),
        "dataio.digest_s": t("dataio.digest"),
        "dataio.bytes_written": counts["dataio.bytes_written"],
        "dataio.load_dataset_s": t("dataio.load_dataset"),
    }
    per_call = {
        "train.policy_step_ms": _policy_steps(spans, base),
        "inference.loss_np_ms": durations.get("inference.loss_np", []),
        "envs.rollout_np_ms": durations.get("envs.rollout_np", []),
    }
    for name, secs in per_call.items():
        summary = percentile_summary([s * 1e3 for s in secs])
        m[name] = summary["p50"]
        m[f"{name}.tail"] = summary["tail"]
        m[f"{name}.tail_pct"] = summary["tail_pct"]
        m[f"{name}.n"] = summary["n"]
    for layer in LAYERS:
        m[f"self.{layer}_s"] = self_time[layer]
    for label in ("train", "extract", "eval", "rollout", "adjust"):
        m[f"cli.{label}_s"] = t(f"cli.{label}")
    m.update(_splits(spans, base))
    return m


def _has_ancestor(spans, base, parent, name) -> bool:
    while parent >= base:
        if spans[parent - base][NAME] == name:
            return True
        parent = spans[parent - base][PARENT]
    return False


def _policy_steps(spans, base) -> list:
    """One policy step runs from the start of a policy objective graph to the
    start of the next one in the same fit, or to the end of the fit."""
    steps = []
    for i, span in enumerate(spans):
        if span[NAME] != "train.policy_fit":
            continue
        starts = [s[START] for s in spans if s[PARENT] == base + i and s[NAME] == "train.policy_graph"]
        steps += [b - a for a, b in zip(starts, starts[1:] + [span[END]])]
    return steps


def _splits(spans, base) -> dict:
    """Shares of a command's time spent in named layers, per command kind."""
    within: dict = {}  # (root label, span name) -> inclusive time
    root_time: dict = {}
    root_of = [0] * len(spans)
    for i, (name, t0, t1, parent) in enumerate(spans):
        if parent < base:
            root_of[i] = i
            root_time[name] = root_time.get(name, 0.0) + (t1 - t0)
            continue
        root_of[i] = root_of[parent - base]
        root = spans[root_of[i]][NAME]
        if not _has_ancestor(spans, base, parent, name):
            within[(root, name)] = within.get((root, name), 0.0) + (t1 - t0)

    def share(root, names):
        den = root_time.get(root, 0.0)
        return sum(within.get((root, n), 0.0) for n in names) / den if den else 0.0

    return {
        "split.train_tape_graph_share": share("cli.train", ("tape.backward", "train.policy_graph")),
        "split.train_inference_fit_share": share("cli.train", ("train.inference_fit",)),
        "split.eval_robustness_load_share": share("cli.eval", ("stl.robustness", "dataio.load_dataset")),
    }
