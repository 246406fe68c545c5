"""Command-line surface: dataset generation, adversarial training,
formula extraction, evaluation, policy rollouts, and rule adjustment.

Every command is reproducible from its arguments plus the config file;
outputs embed the config digest. Exit codes: 0 success, 2 config error,
3 data error, 4 training divergence.

One table, `COMMANDS`, gives each command its help line, handler and
options. `main` builds the parser of the command that its first argument
names, and no other. Any other first argument goes to `build_parser`, which
nests every command as a subparser and prints the help or usage error; it
also reports a command's leftover arguments, so every message reads as
that one parser's would.

A config is one JSON object with the sections `seed`, `env`, `shape`,
`inference`, `policy` and `gan`; `default_config` gives the defaults of
each. Every option is a number and follows one rule,
`dataio.checked_options`: it takes a finite number, an integer where the
default is one, and never true or false, and is stored as its default's
type. An unknown section or option is refused, and so is a value out of
its option's range; the error names the config file and `section.option`,
and the command exits 2. A config that cannot be read, is not JSON or is
not one object also exits 2, naming the file. A checkpoint's `shape` is
checked by the same rule, and a bad one exits 3, as does a checkpoint
whose config has a bad option.

The `env` section takes only `name`. Each environment's horizon, initial
states, region geometry and scripted experts are fixed (see `envs`), and
`gen-data` runs the experts at those values. The method's other fixed
hyperparameters, such as the loss weights, the parameter bounds and the
learning rates, are constants in `train`.

A checkpoint's `env` holds only the environment's `name`. Each round-boundary
snapshot `ckpt_iterK.json` stores the adopted classifier, the policy and the
signal normalization in the fields the final checkpoint uses; before any
round is adopted, its `inference_groups` is empty. `train` prints the final
formula's exact MCR on its dataset and records it as `extra["mcr_exact"]`;
`adjust` drops that number, which scores the formula without the new rule.
Older checkpoints, with a full `env` record or an `extra["warm_start"]`,
still load.

Each dataset FILE a command reads is parsed once, and later reads take it
from a sidecar `.FILE.npz` beside it, used only while FILE is byte for
byte what was parsed (see `dataio`). A sidecar takes about FILE's size
plus 8 bytes per state value on disk; outputs are the same either way, and
deleting a sidecar is always safe.

`train` writes each row of its growing dataset once, to `dataset.jsonl`
beside `--out`; the rows whose meta has a `round` are the policy's
rollouts. Each checkpoint it writes names that file, `extra["dataset_path"]`,
and the number of its leading rows that the checkpoint was trained on,
`extra["dataset_rows"]`: a round-boundary snapshot those at the top of its
round, and the final checkpoint those of the adopted round, with the
digest that round's snapshot recorded. Without `--data`, `extract`,
`rollout` and `adjust` read those rows of the checkpoint's own dataset and
check the digest of that read against the checkpoint's `dataset_digest`:
a file whose rows differ is a data error (exit 3) naming it and both
digests, and a file of fewer rows one naming both counts; rows appended
after them are not read. An older final checkpoint names a file of its
own, `extra["augmented_dataset"]`, and no row count, and that file is
read whole. A `--data` FILE is taken as given, without that check. A
checkpoint names its dataset relative to its own directory, so a run
directory can be moved as a whole; `adjust` names it as `dataset_path`,
and the checkpoint it adjusted (`extra["adjusted_from"]`), relative to its
`--out`. An absolute name, which older checkpoints hold, is read as it is.

`--out` must name a file. Every command that writes `--out` reads and
checks its inputs, then refuses a directory as `--out`, and a path that
names no file: one that is empty or ends in a separator, `.` or `..`.
`train` also refuses an `--out` named as a file it writes beside it:
`dataset.jsonl`, `metrics.csv`, `formula.txt` or `ckpt_iterK.json`.
`adjust` refuses those names too, so that it never overwrites a run's
files, and `rollouts_adjusted.csv`, which it writes beside its `--out`.
No command writes `--out` over one of its own inputs: an `--out` that is
the same file (`os.path.samefile`) as `train`'s `--data` or `--config`, or
as the `--ckpt`, the `--data` or the checkpoint's own dataset of
`extract`, `rollout` or `adjust`, is a data error (exit 3). Then the
command makes the file's missing parent directories, and only then does
its work.

BLAS runs on one thread by default: before numpy is imported, the module
sets `OPENBLAS_NUM_THREADS`, `OMP_NUM_THREADS` and `MKL_NUM_THREADS` to 1
where the environment does not set them already, so a value the user sets
wins. The policy's per-step matrix products are small, and a second
thread makes them no faster; outputs are the same bits either way.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import re
import sys

# BLAS on one thread unless the environment says otherwise (see above);
# numpy reads these when it is imported, so they are set first.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np

from . import dataio, stl, train
from .dataio import Checkpoint, config_digest
from .envs import ExpertFailure, make_env
from .inference import (
    InferenceParams,
    NetworkShape,
    SignalNorm,
    exact_satisfaction,
    extract_formula,
    simplify,
)
from .policy import NonFiniteState, PolicyParams, PolicyShape, rollout
from .train import (
    GanConfig,
    InferenceTrainConfig,
    PolicyTrainConfig,
    draw_samples,
    gan_loop,
    original_env_pool,
    train_policy,
)

log = logging.getLogger("stlmimic")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_DIVERGED = 4

METRIC_COLUMNS = (
    "iteration",
    "mcr_smooth",
    "mcr_exact",
    "mean_policy_robustness",
    "loss",
    "wall_time_s",
)


class ConfigError(ValueError):
    pass


SHAPE_DEFAULTS = {
    "unicycle": {"n_pred": 6, "n_conj": 2, "tau": 0.1},
    "driving": {"n_pred": 8, "n_conj": 2, "tau": 0.1},
}


def default_config(env_name: str = "unicycle") -> dict:
    if not isinstance(env_name, str) or env_name not in SHAPE_DEFAULTS:
        raise ConfigError(f"env.name must be one of {sorted(SHAPE_DEFAULTS)}, got {env_name!r}")
    return {
        "seed": 0,
        "env": {"name": env_name},
        "shape": dict(SHAPE_DEFAULTS[env_name]),
        "inference": dataclasses.asdict(InferenceTrainConfig()),
        "policy": dataclasses.asdict(PolicyTrainConfig()),
        "gan": dataclasses.asdict(GanConfig()),
    }


def _section(doc: dict, name: str) -> dict:
    obj = {} if doc.get(name) is None else doc[name]
    if not isinstance(obj, dict):
        raise ConfigError(f"{name} must be a JSON object, got {type(obj).__name__}")
    return obj


def _checked(section: str, defaults: dict, values: dict) -> dict:
    try:
        return dataio.checked_options(section, defaults, values)
    except ValueError as exc:  # the message names section.option
        raise ConfigError(str(exc)) from exc


def _build_dc(dc_cls, section: str, doc: dict, defaults: dict, **fixed):
    """dc_cls built from the `fixed` fields and the section of the config
    doc over that section of `default_config`; a wrong option is a
    ConfigError naming `section.option`."""
    default = defaults[section]
    values = {**default, **_checked(section, default, _section(doc, section))}
    try:
        return dc_cls(**values, **fixed)
    except ValueError as exc:  # a range check names the option alone
        raise ConfigError(f"{section}.{exc}") from exc


class Run:
    """Validated run configuration resolved against one environment."""

    def __init__(self, doc: dict):
        known = {"seed", "env", "shape", "inference", "policy", "gan"}
        unknown = set(doc) - known
        if unknown:
            raise ConfigError(f"unknown config section(s): {sorted(unknown)}")
        env_obj = dict(_section(doc, "env"))
        name = env_obj.pop("name", "unicycle")
        defaults = default_config(name)
        _checked("env", defaults["env"], env_obj)  # refuses any key but name
        self.env = make_env(name)
        self.seed = _checked("", defaults, {"seed": doc.get("seed", defaults["seed"])})["seed"]
        if self.seed < 0:
            raise ConfigError(f"seed must be a non-negative integer, got {self.seed}")
        dims = {"horizon": self.env.T, "dim": len(self.env.inference_names)}
        self.shape = _build_dc(NetworkShape, "shape", doc, defaults, **dims)
        self.inference = _build_dc(InferenceTrainConfig, "inference", doc, defaults)
        self.policy = _build_dc(PolicyTrainConfig, "policy", doc, defaults)
        self.gan = _build_dc(GanConfig, "gan", doc, defaults)
        self.doc = doc
        self.digest = config_digest(doc)


def load_config(path: str) -> Run:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read config: {exc.strerror}") from exc
    except ValueError as exc:  # not JSON, or not UTF-8
        raise ConfigError(f"{path}: config is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: config must be a JSON object, got {type(doc).__name__}")
    try:
        return Run(doc)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _write_metrics(rows, path: str, digest: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"# config={digest}\n")
        fh.write(",".join(METRIC_COLUMNS) + "\n")
        for row in rows:
            fh.write(
                ",".join(
                    repr(float(row[c])) if c != "iteration" else str(row[c])
                    for c in METRIC_COLUMNS
                )
                + "\n"
            )


def _checkpoint(run: Run, state: train.LoopState, data: dataio.RunDataset, rows: int, extra: dict, **fields):
    """A checkpoint of the run's environment name, shape and config, of the
    loop state's policy, signal normalization and adopted classifier (empty,
    with margin 0, before any round is adopted), and of the first `rows`
    rows of the run dataset `data`, named with their digest."""
    adopted = state.adopted
    return Checkpoint(
        env={"name": run.env.name}, shape=dataclasses.asdict(run.shape), rule_text=None, config=run.doc,
        inference_groups={} if adopted is None else adopted.inference.to_jsonable(),
        margin=0.0 if adopted is None else float(adopted.margin),
        policy_groups=state.policy.to_jsonable(), norm=state.norm.to_jsonable(), dataset_digest=data.digests[rows],
        extra={"config_digest": run.digest, "dataset_path": os.path.basename(data.path), "dataset_rows": rows,
               **extra}, **fields,
    )


def _load_ckpt_parts(path: str):
    ck = dataio.load_checkpoint(path)
    for key in ("dataset_path", "augmented_dataset"):
        if (own := ck.extra.get(key)) is not None and not isinstance(own, str):
            raise dataio.ParseError(f"{path}: extra.{key} must be a file name, got {own!r}")
    if (rows := ck.extra.get("dataset_rows")) is not None and not (type(rows) is int and rows >= 0):
        raise dataio.ParseError(f"{path}: extra.dataset_rows must be a non-negative integer, got {rows!r}")
    if ck.extra.get("boundary"):
        raise dataio.ParseError(f"{path}: a round-boundary snapshot for resuming, not a trained model")
    if not ck.inference_groups or not ck.norm:
        raise dataio.ParseError(f"{path}: no trained classifier (inference_groups or norm is empty)")
    try:
        run = Run(ck.config)
    except ConfigError as exc:
        raise dataio.ParseError(f"{path}: config: {exc}") from exc
    env = run.env
    # the config's shape gives the types; the values are ck.shape's, which
    # need not be the config's
    try:
        shape = NetworkShape(**dataio.checked_options("shape", dataclasses.asdict(run.shape), ck.shape))
    except (TypeError, ValueError) as exc:  # TypeError: a missing field
        raise dataio.ParseError(f"{path}: bad shape {ck.shape!r}: {exc}") from exc
    if (shape.horizon, shape.dim) != (env.T, len(env.inference_names)):
        raise dataio.ParseError(
            f"{path}: shape has horizon {shape.horizon} and dim {shape.dim}, but the"
            f" {env.name} environment has {env.T} and {len(env.inference_names)}"
        )
    key = "inference_groups"  # the part being read, for the error message
    try:
        inf = InferenceParams.from_jsonable(ck.inference_groups, InferenceParams.group_shapes(shape))
        key = "policy_groups"
        pol_shapes = PolicyParams.group_shapes(PolicyShape.for_env(env, run.policy.hidden))
        pol = PolicyParams.from_jsonable(ck.policy_groups, pol_shapes)
        key = "norm"
        norm = SignalNorm.from_jsonable(ck.norm, shape.dim)
    except ValueError as exc:
        raise dataio.ParseError(f"{path}: {key}: {exc}") from exc
    rule = _parse_rule(ck.rule_text, env, f"{path}: rule_text") if ck.rule_text else None
    return ck, run, env, shape, inf, pol, norm, rule


def _parse_rule(text: str, env, where: str) -> stl.Formula:
    """The rule `text` over the environment's signals; one that does not
    parse or runs past the horizon is a ParseError led by `where`."""
    try:
        rule = stl.parse(text, env.inference_names)
        if (h := stl.horizon(rule)) > env.T:
            raise stl.HorizonExceeded(f"horizon {h} is past the environment horizon {env.T}")
    except ValueError as exc:
        raise dataio.ParseError(f"{where} {text!r}: {exc}") from exc
    return rule


def _read_data(path: str, env=None) -> dataio.Dataset:
    """The dataset at `path`, checked as input (for `env`, if given)."""
    ds = dataio.load_dataset(path)
    ds.check_input(path, env)
    return ds


def _own_dataset(ck: Checkpoint, ckpt_path: str):
    """The path of the checkpoint's own dataset, `dataset_path` or, in an
    older checkpoint, `augmented_dataset`, whose name is relative to the
    checkpoint's directory (an absolute name stays as it is); None if it
    names none."""
    name = ck.extra.get("dataset_path", ck.extra.get("augmented_dataset"))
    return os.path.join(os.path.dirname(ckpt_path), name) if name else None


def _ckpt_data(ck: Checkpoint, env, data_path, ckpt_path: str):
    """The dataset file a checkpoint command reads and its dataset: `data_path`
    as given, else the first `dataset_rows` rows of the checkpoint's own,
    whose read must give its dataset_digest (a ParseError naming the file and
    both digests otherwise). The dataset is None, and the path too if none is
    named, when there is no such file."""
    if data_path is not None:
        return data_path, _read_data(data_path, env)
    path = _own_dataset(ck, ckpt_path)
    if path is None or not os.path.exists(path):
        return path, None
    ds = dataio.load_dataset(path, ck.extra.get("dataset_rows"))  # no row count: the whole file
    if ds.digest != ck.dataset_digest:
        raise dataio.ParseError(
            f"{path}: digest {ds.digest} is not the dataset_digest {ck.dataset_digest} of {ckpt_path};"
            " give --data to read it anyway"
        )
    ds.check_input(path, env)
    return path, ds


def _env_pool(ck: Checkpoint, env, data_path, ckpt_path: str):
    """Environment trajectories that rollouts of a checkpoint's policy draw
    from: the demonstration rows of the dataset `_ckpt_data` reads; a file
    without any is a ParseError naming it. Empty for an environment without
    them, though a given `data_path` is still read and checked."""
    if data_path is None and env.n_env == 0:
        return []
    path, ds = _ckpt_data(ck, env, data_path, ckpt_path)
    if ds is None:
        gone = f"; the checkpoint's dataset {path} does not exist" if path else ""
        raise dataio.ParseError(f"{env.name} rollouts need --data for environment trajectories{gone}")
    try:
        return original_env_pool(ds, env)
    except train.EmptyDataset as exc:
        raise dataio.ParseError(f"{path}: {exc}") from exc


def _out_dir(path: str, inputs: dict | None = None) -> str:
    """The directory of the output file `path`, made if missing; refuses a
    directory as --out, a path whose last component names no file, and the
    same file as one of the command's `inputs` (what names it -> its path,
    None where there is none)."""
    if os.path.isdir(path):
        raise IsADirectoryError(f"--out {path} is a directory")
    if os.path.basename(path) in ("", ".", ".."):
        raise dataio.ParseError(f"--out {path!r} names no file")
    if os.path.exists(path):
        for name, given in (inputs or {}).items():
            if given is not None and os.path.exists(given) and os.path.samefile(path, given):
                raise dataio.ParseError(f"--out {path} is the same file as {name} {given}")
    out_dir = os.path.dirname(os.path.abspath(path))
    os.makedirs(out_dir, exist_ok=True)
    return out_dir


def _out_beside(path: str, cmd: str, inputs: dict) -> str:
    """`_out_dir` of the --out `path` of train or adjust, which write files
    beside it; refuses first, as a ParseError, a path named as a file of a
    training run or, for adjust, as its rollouts."""
    names = r"dataset\.jsonl|metrics\.csv|formula\.txt|ckpt_iter[1-9][0-9]*\.json"
    if re.fullmatch(names + (r"|rollouts_adjusted\.csv" if cmd == "adjust" else ""), os.path.basename(path)):
        raise dataio.ParseError(f"--out {path} names a file that {'train' if cmd == 'train' else 'train or adjust'}"
                                " writes beside it")
    return _out_dir(path, inputs)


def _ckpt_inputs(ck: Checkpoint, args) -> dict:
    """The inputs of a command that reads a checkpoint, for `_out_dir`: its
    --ckpt, its --data and the checkpoint's own dataset."""
    return {"--ckpt": args.ckpt, "--data": args.data, "the checkpoint's dataset": _own_dataset(ck, args.ckpt)}


def _export_policy_rollouts(ck: Checkpoint, env, pol, env_pool, n: int, rng, path: str, tag: str) -> None:
    """Roll the policy out from n drawn samples and write the CSV, stamped
    with the checkpoint's config digest."""
    rows = rollout(env, pol, *draw_samples(env, env_pool, n, rng))
    dataio.export_rollouts(
        rows, tuple(env.agent_names) + tuple(env.env_names), path, tag,
        comment=f"config={ck.extra.get('config_digest', '')}",
    )


# --- commands -------------------------------------------------------------------


def cmd_gen_data(args) -> int:
    if args.n < 1:
        raise ConfigError(f"--n must be a positive count, got {args.n}")
    if args.seed < 0:
        raise ConfigError(f"--seed must be a non-negative integer, got {args.seed}")
    if args.env == "driving" and args.n % 4 != 0:
        raise ConfigError("driving dataset size must be divisible by 4 situations")
    _out_dir(args.out)
    rng = np.random.default_rng(args.seed)
    env = make_env(args.env)
    digest = config_digest({"cmd": "gen-data", "env": args.env, "n": args.n, "seed": args.seed})
    ds = env.gen_expert(args.n, rng) if args.env == "unicycle" else env.gen_dataset(args.n // 4, rng)
    dataio.save_dataset(ds, args.out, config_digest=digest)
    print(f"wrote {len(ds)} trajectories to {args.out}")
    return EXIT_OK


def cmd_train(args) -> int:
    run = load_config(args.config)
    ds = _read_data(args.data, run.env)
    if ds.count(1) == 0:
        raise dataio.ParseError(f"{args.data}: no positive rows; train learns from demonstrations")
    out_dir = _out_beside(args.out, "train", {"--data": args.data, "--config": args.config})

    run_data = dataio.RunDataset(os.path.join(out_dir, "dataset.jsonl"), config_digest=run.digest)

    def checkpoint_cb(state):
        run_data.extend(state.dataset)
        extra = {"boundary": True, "metrics": list(state.metrics)}
        ck = _checkpoint(run, state, run_data, len(state.dataset), extra, gan_iteration=state.iteration,
                         rng_state=state.rng_state)
        dataio.save_checkpoint(ck, os.path.join(out_dir, f"ckpt_iter{state.iteration}.json"))

    state = gan_loop(
        ds,
        run.env,
        run.shape,
        run.inference,
        run.policy,
        run.gan,
        np.random.default_rng(run.seed),
        checkpoint_cb=checkpoint_cb,
    )

    _write_metrics(state.metrics, os.path.join(out_dir, "metrics.csv"), run.digest)
    formula_text = stl.print_formula(state.adopted.formula)
    with open(os.path.join(out_dir, "formula.txt"), "w", encoding="utf-8") as fh:
        fh.write(formula_text + "\n")
    mcr_exact = float(state.metrics[-1]["mcr_exact"])  # the adopted round's row is the last
    # the adopted round's dataset is the run dataset's first rows, as that round's snapshot named them
    extra = {"saturated": state.saturated, "mcr_exact": mcr_exact}
    ck = _checkpoint(run, state, run_data, len(state.adopted.dataset), extra, gan_iteration=len(state.metrics),
                     rng_state=None)
    dataio.save_checkpoint(ck, args.out)
    print(f"final formula: {formula_text}")
    print(f"exact MCR: {mcr_exact!r}")
    print(f"iterations: {len(state.metrics)}  saturated: {state.saturated}")
    print(f"checkpoint: {args.out}")
    return EXIT_OK


def cmd_extract(args) -> int:
    ck, _run, env, shape, inf, _pol, norm, rule = _load_ckpt_parts(args.ckpt)
    _path, ds = _ckpt_data(ck, env, args.data, args.ckpt)
    _out_dir(args.out, _ckpt_inputs(ck, args))
    formula = extract_formula(inf, shape, norm, env.inference_names)
    if ds is None:
        log.warning("no dataset available; writing unsimplified extraction")
    else:
        formula = simplify(formula, ds.X, ds.dim_names, ds.labels)
    if rule is not None:
        formula = stl.conjoin(formula, rule)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(stl.print_formula(formula) + "\n")
    print(stl.print_formula(formula))
    return EXIT_OK


def cmd_eval(args) -> int:
    ds = _read_data(args.data)
    try:
        f = stl.parse(dataio.read_text(args.formula, "formula").strip(), ds.dim_names)
        sat = exact_satisfaction(f, ds.X, ds.dim_names)
    except (stl.FormulaSyntaxError, stl.HorizonExceeded, stl.DimensionMismatch) as exc:
        raise dataio.ParseError(f"{args.formula}: {exc}") from exc
    labels = ds.labels
    value = int(np.count_nonzero(sat != (labels > 0))) / len(ds)
    n_pos = int((labels > 0).sum())
    n_neg = int((labels < 0).sum())
    print(f"MCR {value:.6f}")
    print(f"N {len(ds)} positives {n_pos} negatives {n_neg}")
    print(f"satisfied_positives {int((sat & (labels > 0)).sum())}/{n_pos}")
    print(f"violated_negatives {int((~sat & (labels < 0)).sum())}/{n_neg}")
    return EXIT_OK


def cmd_rollout(args) -> int:
    if args.n < 1:
        raise ConfigError(f"--n must be a positive count, got {args.n}")
    if args.seed is not None and args.seed < 0:
        raise ConfigError(f"--seed must be a non-negative integer, got {args.seed}")
    ck, run, env, _shape, _inf, pol, _norm, _rule = _load_ckpt_parts(args.ckpt)
    seed = args.seed if args.seed is not None else run.seed + 10_000
    env_pool = _env_pool(ck, env, args.data, args.ckpt)
    _out_dir(args.out, _ckpt_inputs(ck, args))
    _export_policy_rollouts(ck, env, pol, env_pool, args.n, np.random.default_rng(seed), args.out, "policy")
    print(f"wrote {args.n} rollouts to {args.out}")
    return EXIT_OK


def cmd_adjust(args) -> int:
    if args.rollouts < 1:
        raise ConfigError(f"--rollouts must be a positive count, got {args.rollouts}")
    ck, run, env, shape, inf, pol, norm, existing_rule = _load_ckpt_parts(args.ckpt)
    new_rule = _parse_rule(args.conjoin, env, "--conjoin")
    rule = stl.conjoin(existing_rule, new_rule) if existing_rule else new_rule
    rule_text = stl.print_formula(rule)
    inf_before = inf.flatten()
    env_pool = _env_pool(ck, env, args.data, args.ckpt)
    out_dir = _out_beside(args.out, "adjust", _ckpt_inputs(ck, args))

    if args.retrain:
        rng = np.random.default_rng([run.seed, 777])
        pol = train_policy(pol, inf, env, env_pool, run.policy, rng, shape=shape, norm=norm, rule=rule)

    if not np.array_equal(inf.flatten(), inf_before):
        raise RuntimeError("the classifier changed while the policy retrained")
    # the source's exact MCR scores its formula before the rule was conjoined; its
    # dataset is named as dataset_path, relative to --out, even where it was not
    extra = {**ck.extra, "adjusted_from": os.path.relpath(args.ckpt, out_dir)}
    extra.pop("mcr_exact", None)
    extra.pop("augmented_dataset", None)
    own = _own_dataset(ck, args.ckpt)
    if own is not None:
        extra["dataset_path"] = os.path.relpath(own, out_dir)
    ck2 = dataclasses.replace(
        ck,
        policy_groups=pol.to_jsonable(),
        rule_text=rule_text,
        rng_state=None,
        extra=extra,
    )
    dataio.save_checkpoint(ck2, args.out)

    rng = np.random.default_rng([run.seed, 778])
    roll_path = os.path.join(out_dir, "rollouts_adjusted.csv")
    _export_policy_rollouts(ck, env, pol, env_pool, args.rollouts, rng, roll_path, "adjusted")
    print(f"rule: {rule_text}")
    print(f"checkpoint: {args.out}")
    print(f"rollouts: {roll_path}")
    return EXIT_OK


# name -> (help line, handler, options); an option is (flag, add_argument keywords)
COMMANDS = {
    "gen-data": ("synthesize an expert dataset", cmd_gen_data, (
        ("--env", {"choices": ("unicycle", "driving"), "required": True}),
        ("--n", {"type": int, "required": True}),
        ("--seed", {"type": int, "default": 0}),
        ("--out", {"required": True}),
    )),
    "train": ("run the adversarial training loop", cmd_train, (
        ("--data", {"required": True}),
        ("--config", {"required": True}),
        ("--out", {"required": True, "help": "final checkpoint path"}),
    )),
    "extract": ("read the formula out of a checkpoint", cmd_extract, (
        ("--ckpt", {"required": True}),
        ("--data", {"default": None, "help": "dataset for simplification"}),
        ("--out", {"required": True}),
    )),
    "eval": ("exact-semantics MCR of a formula file on a dataset", cmd_eval, (
        ("--formula", {"required": True}),
        ("--data", {"required": True}),
    )),
    "rollout": ("roll out the trained policy", cmd_rollout, (
        ("--ckpt", {"required": True}),
        ("--n", {"type": int, "required": True}),
        ("--seed", {"type": int, "default": None}),
        ("--data", {"default": None}),
        ("--out", {"required": True}),
    )),
    "adjust": ("conjoin a rule and optionally retrain the policy", cmd_adjust, (
        ("--ckpt", {"required": True}),
        ("--conjoin", {"required": True, "metavar": "FORMULA"}),
        ("--retrain", {"action": "store_true"}),
        ("--data", {"default": None}),
        ("--rollouts", {"type": int, "default": 20}),
        ("--out", {"required": True}),
    )),
}


def _with_options(p: argparse.ArgumentParser, name: str) -> argparse.ArgumentParser:
    for flag, kwargs in COMMANDS[name][2]:
        p.add_argument(flag, **kwargs)
    return p


def build_parser() -> argparse.ArgumentParser:
    """Every command nested as a subparser: the parser of help and of
    errors outside any one command."""
    p = argparse.ArgumentParser(
        prog="stlmimic",
        description="STL task inference + policy synthesis from demonstrations",
    )
    sub = p.add_subparsers(dest="cmd", required=True)
    for name, (help_line, _fn, _options) in COMMANDS.items():
        _with_options(sub.add_parser(name, help=help_line), name)
    return p


def _parse(argv: list) -> tuple:
    """The command argv names and its parsed options; argparse prints help
    or a usage error and exits as `build_parser` would."""
    if argv and argv[0] in COMMANDS:
        name = argv[0]
        parser = _with_options(argparse.ArgumentParser(prog=f"stlmimic {name}"), name)
        args, extra = parser.parse_known_args(argv[1:])
        if extra:
            build_parser().error(f"unrecognized arguments: {' '.join(extra)}")
        return name, args
    args = build_parser().parse_args(argv)
    return args.cmd, args


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    name, args = _parse(sys.argv[1:] if argv is None else list(argv))
    try:
        return COMMANDS[name][1](args)
    except (ConfigError,) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (
        dataio.ParseError,
        dataio.InconsistentHorizon,
        dataio.VersionMismatch,
        stl.FormulaSyntaxError,
        stl.HorizonExceeded,
        stl.DimensionMismatch,
        ExpertFailure,
        OSError,  # the message names the path
    ) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NonFiniteState as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        return EXIT_DIVERGED


if __name__ == "__main__":
    sys.exit(main())
