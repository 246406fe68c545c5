"""Command-line surface: dataset generation, adversarial training,
formula extraction, evaluation, policy rollouts, and rule adjustment.

Every command is reproducible from its arguments plus the config file;
outputs embed the config digest. Exit codes: 0 success, 2 config error,
3 data error, 4 training divergence.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys

import numpy as np

from . import dataio, stl
from .dataio import Checkpoint, Dataset, config_digest, dataset_digest
from .envs import ExpertFailure, NonFiniteState, make_env, rollout
from .inference import (
    InferenceParams,
    NetworkShape,
    SignalNorm,
    exact_satisfaction,
    extract_formula,
    simplify,
)
from .policy import PolicyParams
from .tape import NonFiniteValue, ParamVector
from .train import (
    GanConfig,
    InferenceTrainConfig,
    PolicyTrainConfig,
    _draw_samples,
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
    if env_name not in SHAPE_DEFAULTS:
        raise ConfigError(f"unknown environment {env_name!r}")
    return {
        "seed": 0,
        "env": {"name": env_name},
        "shape": dict(SHAPE_DEFAULTS[env_name]),
        "inference": dataclasses.asdict(InferenceTrainConfig()),
        "policy": dataclasses.asdict(PolicyTrainConfig()),
        "gan": dataclasses.asdict(GanConfig()),
    }


def _build_dc(dc_cls, obj: dict, what: str):
    names = {f.name for f in dataclasses.fields(dc_cls)}
    unknown = set(obj) - names
    if unknown:
        raise ConfigError(f"unknown {what} option(s): {sorted(unknown)}")
    kwargs = dict(obj)
    if "betas" in kwargs and isinstance(kwargs["betas"], list):
        kwargs["betas"] = tuple(kwargs["betas"])
    return dc_cls(**kwargs)


class Run:
    """Validated run configuration resolved against one environment."""

    def __init__(self, doc: dict):
        known = {"seed", "env", "shape", "inference", "policy", "gan"}
        unknown = set(doc) - known
        if unknown:
            raise ConfigError(f"unknown config section(s): {sorted(unknown)}")
        env_obj = dict(doc.get("env") or {"name": "unicycle"})
        name = env_obj.pop("name", "unicycle")
        defaults = default_config(name)
        try:
            self.env = make_env(name, **env_obj)
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from exc
        self.seed = int(doc.get("seed", defaults["seed"]))
        shape_obj = {**defaults["shape"], **(doc.get("shape") or {})}
        unknown = set(shape_obj) - {"n_pred", "n_conj", "tau"}
        if unknown:
            raise ConfigError(f"unknown shape option(s): {sorted(unknown)}")
        self.shape = NetworkShape(
            n_pred=int(shape_obj["n_pred"]),
            n_conj=int(shape_obj["n_conj"]),
            horizon=self.env.T,
            dim=len(self.env.inference_names),
            tau=float(shape_obj["tau"]),
        )
        self.inference = _build_dc(
            InferenceTrainConfig,
            {**defaults["inference"], **(doc.get("inference") or {})},
            "inference",
        )
        self.policy = _build_dc(
            PolicyTrainConfig, {**defaults["policy"], **(doc.get("policy") or {})}, "policy"
        )
        self.gan = _build_dc(
            GanConfig, {**defaults["gan"], **(doc.get("gan") or {})}, "gan"
        )
        self.doc = doc
        self.digest = config_digest(doc)


def load_config(path: str) -> Run:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    return Run(doc)


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


def _checkpoint_from_result(run: Run, result, dataset_path: str, rule_text=None) -> Checkpoint:
    return Checkpoint(
        env=run.env.config(),
        shape={
            "n_pred": run.shape.n_pred,
            "n_conj": run.shape.n_conj,
            "horizon": run.shape.horizon,
            "dim": run.shape.dim,
            "tau": run.shape.tau,
        },
        inference_groups=result.inference.to_pv().to_jsonable(),
        margin=float(result.margin),
        policy_groups=result.policy.to_pv().to_jsonable(),
        norm=result.norm.to_jsonable(),
        rule_text=rule_text,
        gan_iteration=len(result.metrics),
        rng_state=None,
        dataset_digest=dataset_digest(result.dataset),
        config=run.doc,
        extra={
            "config_digest": run.digest,
            "augmented_dataset": dataset_path,
            "saturated": result.saturated,
        },
    )


def _load_ckpt_parts(path: str):
    ck = dataio.load_checkpoint(path)
    run = Run(ck.config)
    env = run.env
    shape = NetworkShape(**ck.shape)
    inf = InferenceParams.from_pv(ParamVector.from_jsonable(ck.inference_groups))
    pol = PolicyParams.from_pv(ParamVector.from_jsonable(ck.policy_groups))
    norm = SignalNorm.from_jsonable(ck.norm)
    rule = (
        stl.parse(ck.rule_text, env.inference_names) if ck.rule_text else None
    )
    return ck, run, env, shape, inf, pol, norm, rule


# --- commands -------------------------------------------------------------------


def cmd_gen_data(args) -> int:
    rng = np.random.default_rng(args.seed)
    env = make_env(args.env)
    digest = config_digest({"cmd": "gen-data", "env": args.env, "n": args.n, "seed": args.seed})
    if args.env == "unicycle":
        if args.negatives:
            raise ConfigError("unicycle datasets are positive-only demonstrations")
        ds = env.gen_expert(args.n, rng)
    else:
        if args.n % 4 != 0:
            raise ConfigError("driving dataset size must be divisible by 4 situations")
        ds = env.gen_dataset(args.n // 4, rng)
    for t in ds:
        t.meta["config_digest"] = digest
    dataio.save_dataset(ds, args.out)
    print(f"wrote {len(ds)} trajectories to {args.out}")
    return EXIT_OK


def cmd_train(args) -> int:
    run = load_config(args.config)
    ds = dataio.load_dataset(args.data)
    if len(ds) == 0:
        raise dataio.ParseError(f"{args.data}: empty dataset")
    env_meta = ds.trajectories[0].meta.get("env")
    if env_meta is not None and env_meta != run.env.name:
        raise dataio.ParseError(
            f"dataset was generated for env {env_meta!r}, config says {run.env.name!r}"
        )
    if ds.horizon != run.env.T:
        raise dataio.InconsistentHorizon(
            f"{args.data}: dataset horizon {ds.horizon} != environment horizon {run.env.T}"
        )
    out_dir = os.path.dirname(os.path.abspath(args.out)) or "."
    os.makedirs(out_dir, exist_ok=True)

    def checkpoint_cb(state):
        it = state["iteration"]
        ds_path = os.path.join(out_dir, f"dataset_iter{it}.jsonl")
        dataio.save_dataset(state["dataset"], ds_path)
        warm = state["warm_start"]
        ck = Checkpoint(
            env=run.env.config(),
            shape=dataclasses.asdict(run.shape),
            inference_groups={},
            margin=0.0,
            policy_groups=state["policy"].to_jsonable(),
            norm={},
            rule_text=None,
            gan_iteration=it,
            rng_state=state["rng_state"],
            dataset_digest=dataset_digest(state["dataset"]),
            config=run.doc,
            extra={
                "config_digest": run.digest,
                "boundary": True,
                "warm_start": None if warm is None else list(map(float, warm)),
                "metrics": state["metrics"],
                "dataset_path": ds_path,
            },
        )
        dataio.save_checkpoint(ck, os.path.join(out_dir, f"ckpt_iter{it}.json"))

    result = gan_loop(
        ds,
        run.env,
        run.shape,
        run.inference,
        run.policy,
        run.gan,
        np.random.default_rng(run.seed),
        checkpoint_cb=checkpoint_cb,
    )

    aug_path = os.path.join(out_dir, "dataset_augmented.jsonl")
    for t in result.full_dataset:
        t.meta.setdefault("config_digest", run.digest)
    dataio.save_dataset(result.dataset, aug_path)
    negatives = Dataset(
        [t for t in result.full_dataset if t.meta.get("source") == "policy_rollout"]
    )
    neg_path = os.path.join(out_dir, "negatives.jsonl")
    dataio.save_dataset(negatives, neg_path)
    _write_metrics(result.metrics, os.path.join(out_dir, "metrics.csv"), run.digest)
    formula_text = stl.print_formula(result.formula)
    with open(os.path.join(out_dir, "formula.txt"), "w", encoding="utf-8") as fh:
        fh.write(formula_text + "\n")
    dataio.save_checkpoint(_checkpoint_from_result(run, result, aug_path), args.out)
    print(f"final formula: {formula_text}")
    print(f"iterations: {len(result.metrics)}  saturated: {result.saturated}")
    print(f"checkpoint: {args.out}")
    return EXIT_OK


def cmd_extract(args) -> int:
    if not (0.0 < args.threshold < 1.0):
        raise ConfigError(f"--threshold must be in (0, 1), got {args.threshold}")
    ck, _run, env, shape, inf, _pol, norm, rule = _load_ckpt_parts(args.ckpt)
    formula = extract_formula(inf, shape, norm, env.inference_names, args.threshold)
    data_path = args.data or ck.extra.get("augmented_dataset")
    if data_path and os.path.exists(data_path):
        ds = dataio.load_dataset(data_path)
        formula = simplify(formula, ds.to_array(), ds.dim_names, ds.labels())
    else:
        log.warning("no dataset available; writing unsimplified extraction")
    if rule is not None:
        formula = stl.conjoin(formula, rule)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(stl.print_formula(formula) + "\n")
    print(stl.print_formula(formula))
    return EXIT_OK


def cmd_eval(args) -> int:
    ds = dataio.load_dataset(args.data)
    if len(ds) == 0:
        raise dataio.ParseError(f"{args.data}: empty dataset")
    with open(args.formula, "r", encoding="utf-8") as fh:
        text = fh.read().strip()
    f = stl.parse(text, ds.dim_names)
    labels = ds.labels()
    sat = exact_satisfaction(f, ds.to_array(), ds.dim_names)
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
    ck, _run, env, _shape, _inf, pol, _norm, _rule = _load_ckpt_parts(args.ckpt)
    seed = args.seed if args.seed is not None else int(ck.config.get("seed", 0)) + 10_000
    rng = np.random.default_rng(seed)
    env_pool = []
    if env.n_env > 0:
        data_path = args.data or ck.extra.get("augmented_dataset")
        if not data_path or not os.path.exists(data_path):
            raise dataio.ParseError("driving rollouts need --data for environment trajectories")
        ds = dataio.load_dataset(data_path)
        env_pool = original_env_pool(ds, env)
    rows = rollout(env, pol, *_draw_samples(env, env_pool, args.n, rng))
    dim_names = tuple(env.agent_names) + tuple(env.env_names)
    dataio.export_rollouts(
        rows, dim_names, args.out, tags=["policy"] * len(rows),
        comment=f"config={ck.extra.get('config_digest', '')}",
    )
    print(f"wrote {args.n} rollouts to {args.out}")
    return EXIT_OK


def cmd_adjust(args) -> int:
    if args.rollouts < 1:
        raise ConfigError(f"--rollouts must be a positive count, got {args.rollouts}")
    ck, run, env, shape, inf, pol, norm, existing_rule = _load_ckpt_parts(args.ckpt)
    new_rule = stl.parse(args.conjoin, env.inference_names)
    if stl.horizon(new_rule) > env.T:
        raise dataio.InconsistentHorizon(
            f"rule horizon {stl.horizon(new_rule)} exceeds environment horizon {env.T}"
        )
    rule = stl.conjoin(existing_rule, new_rule) if existing_rule else new_rule
    rule_text = stl.print_formula(rule)
    inf_before = inf.to_pv().flatten().copy()

    if args.retrain:
        data_path = args.data or ck.extra.get("augmented_dataset")
        if not data_path or not os.path.exists(data_path):
            raise dataio.ParseError("adjust --retrain needs the training dataset (--data)")
        ds = dataio.load_dataset(data_path)
        env_pool = original_env_pool(ds, env)
        rng = np.random.default_rng([run.seed, 777])
        pol = train_policy(
            pol,
            inf,
            env,
            env_pool,
            run.policy,
            rng,
            shape=shape,
            norm=norm,
            rule=rule,
        )

    if not np.array_equal(inf.to_pv().flatten(), inf_before):
        raise RuntimeError("the classifier changed while the policy retrained")
    out_dir = os.path.dirname(os.path.abspath(args.out)) or "."
    os.makedirs(out_dir, exist_ok=True)
    ck2 = Checkpoint(
        env=ck.env,
        shape=ck.shape,
        inference_groups=ck.inference_groups,
        margin=ck.margin,
        policy_groups=pol.to_pv().to_jsonable(),
        norm=ck.norm,
        rule_text=rule_text,
        gan_iteration=ck.gan_iteration,
        rng_state=None,
        dataset_digest=ck.dataset_digest,
        config=ck.config,
        extra={**ck.extra, "adjusted_from": os.path.abspath(args.ckpt)},
    )
    dataio.save_checkpoint(ck2, args.out)

    rng = np.random.default_rng([int(ck.config.get("seed", 0)), 778])
    env_pool = []
    if env.n_env > 0:
        data_path = args.data or ck.extra.get("augmented_dataset")
        ds = dataio.load_dataset(data_path)
        env_pool = original_env_pool(ds, env)
    rollouts = rollout(env, pol, *_draw_samples(env, env_pool, args.rollouts, rng))
    roll_path = os.path.join(out_dir, "rollouts_adjusted.csv")
    dim_names = tuple(env.agent_names) + tuple(env.env_names)
    dataio.export_rollouts(
        rollouts, dim_names, roll_path, tags=["adjusted"] * len(rollouts),
        comment=f"config={ck.extra.get('config_digest', '')}",
    )
    print(f"rule: {rule_text}")
    print(f"checkpoint: {args.out}")
    print(f"rollouts: {roll_path}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="stlmimic",
        description="STL task inference + policy synthesis from demonstrations",
    )
    sub = p.add_subparsers(dest="cmd", required=True)

    g = sub.add_parser("gen-data", help="synthesize an expert dataset")
    g.add_argument("--env", choices=("unicycle", "driving"), required=True)
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True)
    g.add_argument("--negatives", action="store_true", help="driving includes negatives by construction")
    g.set_defaults(fn=cmd_gen_data)

    t = sub.add_parser("train", help="run the adversarial training loop")
    t.add_argument("--data", required=True)
    t.add_argument("--config", required=True)
    t.add_argument("--out", required=True, help="final checkpoint path")
    t.set_defaults(fn=cmd_train)

    e = sub.add_parser("extract", help="read the formula out of a checkpoint")
    e.add_argument("--ckpt", required=True)
    e.add_argument("--threshold", type=float, default=0.5)
    e.add_argument("--data", default=None, help="dataset for simplification")
    e.add_argument("--out", required=True)
    e.set_defaults(fn=cmd_extract)

    v = sub.add_parser("eval", help="exact-semantics MCR of a formula file on a dataset")
    v.add_argument("--formula", required=True)
    v.add_argument("--data", required=True)
    v.set_defaults(fn=cmd_eval)

    r = sub.add_parser("rollout", help="roll out the trained policy")
    r.add_argument("--ckpt", required=True)
    r.add_argument("--n", type=int, required=True)
    r.add_argument("--seed", type=int, default=None)
    r.add_argument("--data", default=None)
    r.add_argument("--out", required=True)
    r.set_defaults(fn=cmd_rollout)

    a = sub.add_parser("adjust", help="conjoin a rule and optionally retrain the policy")
    a.add_argument("--ckpt", required=True)
    a.add_argument("--conjoin", required=True, metavar="FORMULA")
    a.add_argument("--retrain", action="store_true")
    a.add_argument("--data", default=None)
    a.add_argument("--rollouts", type=int, default=20)
    a.add_argument("--out", required=True)
    a.set_defaults(fn=cmd_adjust)
    return p


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
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
        FileNotFoundError,
    ) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (NonFiniteState, NonFiniteValue) as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        return EXIT_DIVERGED


if __name__ == "__main__":
    sys.exit(main())
