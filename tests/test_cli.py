import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from stlmimic import cli, dataio, stl, train
from stlmimic.cli import EXIT_CONFIG, EXIT_DATA, EXIT_OK, ConfigError, Run, default_config, main
from stlmimic.envs import DrivingEnv, UnicycleEnv
from stlmimic.inference import InferenceParams, NetworkShape, SignalNorm, exact_mcr
from stlmimic.train import GENERATED_SOURCE, gan_loop

import helpers

TINY = {
    "seed": 3,
    "env": {"name": "unicycle"},
    "shape": {"n_pred": 2, "n_conj": 1, "tau": 0.1},
    "inference": {
        "max_proposals": 120,
        "epoch_len": 40,
        "refine_steps": 6,
        "refine_batch": 8,
    },
    "policy": {"batch_m": 4, "steps": 20, "hidden": 6},
    "gan": {"n_generate": 5, "max_iterations": 2, "stop_mcr": 1.0},
}


TINY_DRIVING = {
    "seed": 4,
    "env": {"name": "driving"},
    "shape": {"n_pred": 1, "n_conj": 1},
    "inference": {"max_proposals": 10, "epoch_len": 10, "n_starts": 2, "refine_steps": 1, "refine_batch": 4},
    "policy": {"steps": 1, "batch_m": 2, "hidden": 4},
    "gan": {"n_generate": 4, "max_iterations": 2, "stop_mcr": 1.0},
}


@pytest.fixture(scope="module")
def trained_with_result(tmp_path_factory):
    """One tiny end-to-end training run shared by the command tests, the
    final LoopState that its training loop returned, and the LoopState of
    each round boundary. What `train` printed is kept in `train.out` beside
    the run directory."""
    root = tmp_path_factory.mktemp("clirun")
    data = root / "expert.jsonl"
    config = root / "config.json"
    ckpt = root / "run" / "ckpt.json"
    config.write_text(json.dumps(TINY))
    assert main(["gen-data", "--env", "unicycle", "--n", "10", "--seed", "1", "--out", str(data)]) == EXIT_OK
    results, boundaries = [], []

    def loop(*a, checkpoint_cb, **kw):
        def cb(state):
            boundaries.append(state)
            checkpoint_cb(state)

        results.append(gan_loop(*a, checkpoint_cb=cb, **kw))
        return results[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "gan_loop", loop)
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert main(["train", "--data", str(data), "--config", str(config), "--out", str(ckpt)]) == EXIT_OK
    (root / "train.out").write_text(out.getvalue())
    return (root, data, config, ckpt), results[0], boundaries


@pytest.fixture(scope="module")
def trained(trained_with_result):
    return trained_with_result[0]


class TestGenData:
    def test_unicycle_counts(self, tmp_path):
        out = tmp_path / "u.jsonl"
        assert main(["gen-data", "--env", "unicycle", "--n", "12", "--seed", "0", "--out", str(out)]) == EXIT_OK
        ds = dataio.load_dataset(str(out))
        assert len(ds) == 12 and ds.count(1) == 12 and ds.horizon == 20

    def test_driving_counts(self, tmp_path):
        out = tmp_path / "d.jsonl"
        assert main(["gen-data", "--env", "driving", "--n", "8", "--seed", "0", "--out", str(out)]) == EXIT_OK
        ds = dataio.load_dataset(str(out))
        assert len(ds) == 8 and ds.count(1) == 4 and ds.horizon == 57
        situations = {m["situation"] for m in ds.metas}
        assert len(situations) == 4

    def test_same_seed_identical_bytes(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for out in (a, b):
            main(["gen-data", "--env", "unicycle", "--n", "5", "--seed", "9", "--out", str(out)])
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("env, n, seed, sha256", helpers.PINNED_GEN_DATA)
    def test_pinned_bytes(self, tmp_path, env, n, seed, sha256):
        out = tmp_path / "d.jsonl"
        assert main(["gen-data", "--env", env, "--n", str(n), "--seed", str(seed), "--out", str(out)]) == EXIT_OK
        assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256

    def test_driving_n_not_divisible(self, tmp_path):
        code = main(["gen-data", "--env", "driving", "--n", "7", "--seed", "0", "--out", str(tmp_path / "x.jsonl")])
        assert code == EXIT_CONFIG

    def test_non_positive_n_is_config_error(self, tmp_path, capsys):
        for env, n in (("unicycle", "0"), ("driving", "0"), ("driving", "-4")):
            out = tmp_path / "x.jsonl"
            code = main(["gen-data", "--env", env, "--n", n, "--seed", "0", "--out", str(out)])
            assert code == EXIT_CONFIG and not out.exists()
            assert "--n" in capsys.readouterr().err

    def test_negative_seed_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "x.jsonl"
        code = main(["gen-data", "--env", "unicycle", "--n", "2", "--seed", "-1", "--out", str(out)])
        assert code == EXIT_CONFIG and not out.exists()
        assert "--seed" in capsys.readouterr().err

    def test_negatives_flag_is_a_usage_error(self, tmp_path, capsys):
        # a driving dataset holds its negatives by construction; there is no flag for them
        out = tmp_path / "x.jsonl"
        with pytest.raises(SystemExit) as exc:
            main(["gen-data", "--env", "driving", "--n", "4", "--negatives", "--out", str(out)])
        assert exc.value.code == EXIT_CONFIG and not out.exists()
        assert capsys.readouterr().err.splitlines()[-1] == "stlmimic: error: unrecognized arguments: --negatives"

    def test_entrypoint_subprocess(self, tmp_path):
        out = tmp_path / "sp.jsonl"
        res = subprocess.run(
            [sys.executable, "-m", "stlmimic.cli", "gen-data", "--env", "unicycle",
             "--n", "2", "--seed", "0", "--out", str(out)],
            capture_output=True,
            text=True,
        )
        assert res.returncode == 0, res.stderr
        assert out.exists()


# a complete, valid argv of each command
VALID_ARGV = {
    "gen-data": ["--env", "unicycle", "--n", "3", "--out", "o"],
    "train": ["--data", "d", "--config", "c", "--out", "o"],
    "extract": ["--ckpt", "k", "--out", "o"],
    "eval": ["--formula", "f", "--data", "d"],
    "rollout": ["--ckpt", "k", "--n", "2", "--out", "o"],
    "adjust": ["--ckpt", "k", "--conjoin", "G[0,1](x >= 0)", "--out", "o"],
}


def _dispatch_cases():
    cases = [[], ["-h"], ["--help"], ["-h", "eval"], ["bogus"], ["--", "eval"] + VALID_ARGV["eval"]]
    cases += [["--bogus", "eval"], ["--bogus", "eval"] + VALID_ARGV["eval"]]  # an unknown option before the command
    for name, argv in VALID_ARGV.items():
        joined = [f"{flag}={value}" for flag, value in zip(argv[::2], argv[1::2])]
        cases += [
            [name, "-h"],
            [name] + argv[2:],  # a required option missing
            [name, "--n", "x"] + argv,
            [name] + argv + ["--bogus"],
            [name] + [a.replace("--data", "--dat") for a in argv],
            [name] + joined,
        ]
    return cases


class TestDispatch:
    """main parses with the named command's parser alone; what it prints and
    its exit code are those of one parser nesting every command."""

    @staticmethod
    def reference_main(argv):
        p = argparse.ArgumentParser(prog="stlmimic", description="STL task inference + policy synthesis from demonstrations")
        sub = p.add_subparsers(dest="cmd", required=True)
        for name, (help_line, _fn, options) in cli.COMMANDS.items():
            s = sub.add_parser(name, help=help_line)
            for flag, kwargs in options:
                s.add_argument(flag, **kwargs)
        args = p.parse_args(argv)
        return cli.COMMANDS[args.cmd][1](args)

    @pytest.fixture
    def echoing(self, monkeypatch):
        """Each command's handler replaced by one that prints its options."""
        for name, (help_line, _fn, options) in list(cli.COMMANDS.items()):
            def echo(args, name=name):
                print(name, sorted((k, v) for k, v in vars(args).items() if k != "cmd"))
                return EXIT_OK

            monkeypatch.setitem(cli.COMMANDS, name, (help_line, echo, options))

    @staticmethod
    def outcome(fn, capsys):
        try:
            code = fn()
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        return code, out, err

    @pytest.mark.parametrize("argv", _dispatch_cases(), ids=" ".join)
    def test_matches_one_nested_parser(self, echoing, capsys, argv):
        got = self.outcome(lambda: main(list(argv)), capsys)
        assert got == self.outcome(lambda: self.reference_main(list(argv)), capsys)

    def test_reads_sys_argv(self, echoing, capsys, monkeypatch):
        for argv in ([], ["eval"] + VALID_ARGV["eval"], ["eval", "--bogus"]):
            monkeypatch.setattr(sys, "argv", ["stlmimic"] + argv)
            got = self.outcome(main, capsys)
            assert got == self.outcome(lambda: self.reference_main(list(argv)), capsys)

    def test_builds_only_the_named_commands_options(self, echoing, capsys, monkeypatch):
        calls = []
        add_argument = argparse.ArgumentParser.add_argument

        def counting(parser, *flags, **kwargs):
            calls.append(flags)
            return add_argument(parser, *flags, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "add_argument", counting)
        assert main(["eval"] + VALID_ARGV["eval"]) == EXIT_OK
        assert calls == [("-h", "--help"), ("--formula",), ("--data",)]


@pytest.fixture(scope="module")
def trained_driving(tmp_path_factory):
    root = tmp_path_factory.mktemp("clidriving")
    data = root / "expert.jsonl"
    config = root / "config.json"
    ckpt = root / "run" / "ckpt.json"
    config.write_text(json.dumps(TINY_DRIVING))
    assert main(["gen-data", "--env", "driving", "--n", "8", "--seed", "2", "--out", str(data)]) == EXIT_OK
    assert main(["train", "--data", str(data), "--config", str(config), "--out", str(ckpt)]) == EXIT_OK
    return root, data, config, ckpt


class TestTrainOutputs:
    def test_artifacts_exist(self, trained):
        root, data, config, ckpt = trained
        run_dir = ckpt.parent
        assert ckpt.exists()
        assert (run_dir / "metrics.csv").exists()
        assert (run_dir / "formula.txt").exists()
        assert (run_dir / "dataset.jsonl").exists()
        assert (run_dir / "ckpt_iter1.json").exists()
        # the run writes each row once, to dataset.jsonl
        assert not (run_dir / "negatives.jsonl").exists()
        assert not (run_dir / "dataset_augmented.jsonl").exists()

    def test_metrics_rows_per_iteration(self, trained):
        root, data, config, ckpt = trained
        lines = (ckpt.parent / "metrics.csv").read_text().strip().split("\n")
        assert lines[0].startswith("# config=")
        assert lines[1] == "iteration,mcr_smooth,mcr_exact,mean_policy_robustness,loss,wall_time_s"
        assert len(lines) >= 3  # at least one completed iteration

    def test_bootstrap_recorded(self, trained):
        """The negatives are the rows of dataset.jsonl whose meta has a
        `round`: the bootstrapped ones first."""
        root, data, config, ckpt = trained
        metas = [m for m in dataio.load_dataset(str(ckpt.parent / "dataset.jsonl")).metas if "round" in m]
        assert [m["round"] for m in metas[: TINY["gan"]["n_generate"]]] == ["boot"] * TINY["gan"]["n_generate"]
        assert {m["source"] for m in metas} == {"policy_rollout"}

    def test_formula_parses(self, trained):
        root, data, config, ckpt = trained
        text = (ckpt.parent / "formula.txt").read_text().strip()
        f = stl.parse(text, ("dA", "dB", "dC", "dO"))
        assert stl.horizon(f) <= 20

    def test_dataset_digest_is_sha256_of_the_named_file(self, trained):
        """The final checkpoint's digest, as a boundary snapshot's, is of the
        leading `dataset_rows` lines of the run dataset that it names."""
        root, data, config, ckpt = trained
        ckpts = [ckpt] + sorted(ckpt.parent.glob("ckpt_iter*.json"))
        assert len(ckpts) == 1 + TINY["gan"]["max_iterations"]
        for path in ckpts:
            ck = dataio.load_checkpoint(str(path))
            assert ck.extra["dataset_path"] == "dataset.jsonl", path.name
            with open(path.parent / ck.extra["dataset_path"], "rb") as fh:
                lines = fh.readlines()[: ck.extra["dataset_rows"]]
            assert ck.dataset_digest == hashlib.sha256(b"".join(lines)).hexdigest()[:16], path.name

    def test_env_mismatch_is_data_error(self, trained, tmp_path):
        root, data, config, ckpt = trained
        bad_cfg = tmp_path / "bad.json"
        bad_cfg.write_text(json.dumps({**TINY, "env": {"name": "driving"}}))
        code = main(["train", "--data", str(data), "--config", str(bad_cfg), "--out", str(tmp_path / "c.json")])
        assert code == EXIT_DATA

    def test_nonfinite_state_is_data_error_naming_the_line(self, trained, tmp_path, capsys):
        root, data, config, ckpt = trained
        lines = data.read_text().splitlines()
        obj = json.loads(lines[2])
        obj["agent_states"][1][0] = float("nan")
        lines[2] = json.dumps(obj)
        bad = tmp_path / "nan.jsonl"
        bad.write_text("\n".join(lines) + "\n")
        code = main(["train", "--data", str(bad), "--config", str(config), "--out", str(tmp_path / "c.json")])
        assert code == EXIT_DATA
        assert f"{bad}:3:" in capsys.readouterr().err

    def test_horizon_mismatch_fails_before_training(self, trained, tmp_path, capsys):
        root, data, config, ckpt = trained
        ds = dataio.load_dataset(str(data))
        short = tmp_path / "t15.jsonl"
        dataio.save_dataset(dataio.Dataset(ds.X[:, :16], ds.labels, ds.ids, ds.metas, ds.agent_names), str(short))
        out = tmp_path / "run" / "c.json"
        code = main(["train", "--data", str(short), "--config", str(config), "--out", str(out)])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert f"{short}: dataset horizon 15 != environment horizon 20" in err
        assert not out.parent.exists()

    def test_unknown_config_key_is_config_error(self, trained, tmp_path):
        root, data, config, ckpt = trained
        bad_cfg = tmp_path / "bad2.json"
        bad_cfg.write_text(json.dumps({**TINY, "optimizer": "sgd"}))
        code = main(["train", "--data", str(data), "--config", str(bad_cfg), "--out", str(tmp_path / "c.json")])
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize(
        "text, what",
        [
            (b'{seed: 1}', "config is not valid JSON: Expecting property name"),
            (b'[{"seed": 1}]', "config must be a JSON object, got list"),
            (None, "cannot read config: No such file or directory"),
            (b"\xff\xfe{}", "config is not valid JSON: 'utf-8' codec can't decode"),
            (b'{"policy": {"steps": -1}}', "policy.steps must be at least 0, got -1"),
        ],
        ids=["not-json", "a-list", "missing", "not-utf8", "option-out-of-range"],
    )
    def test_unreadable_config_is_config_error_naming_the_file(self, trained, tmp_path, capsys, text, what):
        root, data, config, ckpt = trained
        cfg = tmp_path / "config.json"
        if text is not None:
            cfg.write_bytes(text)
        out = tmp_path / "run" / "ckpt.json"
        assert main(["train", "--data", str(data), "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
        assert f"config error: {cfg}: {what}" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ([] if text is None else ["config.json"])

    def test_prints_and_records_the_exact_mcr_of_its_formula(self, trained_with_result):
        """`train` prints the adopted formula's exact MCR on its dataset with
        the text of the last metrics.csv row, and the checkpoint records it."""
        (root, data, config, ckpt), state, _ = trained_with_result
        last = (ckpt.parent / "metrics.csv").read_text().splitlines()[-1].split(",")
        text = last[cli.METRIC_COLUMNS.index("mcr_exact")]
        formula = (ckpt.parent / "formula.txt").read_text().strip()
        printed = (root / "train.out").read_text().splitlines()
        assert printed[:2] == [f"final formula: {formula}", f"exact MCR: {text}"]
        assert repr(dataio.load_checkpoint(str(ckpt)).extra["mcr_exact"]) == text
        ds = state.adopted.dataset
        assert exact_mcr(state.adopted.formula, ds.X, ds.dim_names, ds.labels) == float(text)

    def test_data_without_positives_fails_before_writing(self, trained_driving, tmp_path, capsys):
        # eval and extract read negative-only files such as negatives.jsonl; train needs demonstrations
        root, data, config, ckpt = trained_driving
        neg = tmp_path / "neg.jsonl"
        neg.write_text("".join(line for line in data.read_text().splitlines(True) if json.loads(line)["label"] < 0))
        out = tmp_path / "run" / "ckpt.json"
        assert main(["train", "--data", str(neg), "--config", str(config), "--out", str(out)]) == EXIT_DATA
        assert f"{neg}: no positive rows" in capsys.readouterr().err
        assert not out.parent.exists()


BAD_CONFIGS = {
    # the option each config gets wrong, and the config; a retired option
    # (RETIRED_OPTIONS) is refused as unknown, whatever its value
    "inference.epoch_len": {"inference": {"epoch_len": 0}},
    "gan.n_generate": {"gan": {"n_generate": 0}},
    "gan.max_iterations": {"gan": {"max_iterations": 0}},
    "policy.hidden": {"policy": {"hidden": 0}},
    "policy.batch_m": {"policy": {"batch_m": 0}},
    "policy.betas": {"policy": {"betas": [0.9, 1.0]}},
    "seed": {"seed": "abc"},
    "shape.n_pred": {"shape": {"n_pred": "x"}},
    "shape.n_conj": {"shape": {"n_conj": 0}},
    "shape.tau": {"shape": {"tau": -1}},
    "env.T": {"env": {"name": "unicycle", "T": 0}},
    "env": {"env": "unicycle"},
    "env.name": {"env": {"name": ["unicycle"]}},
    "inference.max_proposals": {"inference": {"max_proposals": "10"}},
    "inference.refine_steps": {"inference": {"refine_steps": 2.0}},
    "env.init_lo": {"env": {"name": "unicycle", "init_lo": 5}},
    "env.init_hi": {"env": {"name": "unicycle", "init_hi": [2.0, 2.0]}},
    "env.control_box": {"env": {"name": "unicycle", "control_box": [[0.0, -0.5], [1.0, 0.5]]}},
    "env.region_c": {"env": {"name": "unicycle", "region_c": [9.0, 9.0, 0.7]}},
    "env.obstacle_margin": {"env": {"name": "unicycle", "obstacle_margin": "x"}},
    "env.cruise": {"env": {"name": "driving", "cruise": float("inf")}},
    "env.decel_onset": {"env": {"name": "driving", "decel_onset": 35.5}},
    "env.gap": {"env": {"name": "driving", "gap": [10.0, 6.0]}},
    "env.init_pos": {"env": {"name": "driving", "init_pos": [0.0, "5"]}},
    "policy.lr": {"policy": {"lr": float("nan")}},
    "inference.tau_eval": {"inference": {"tau_eval": float("inf")}},
    "gan.stop_mcr": {"gan": {"stop_mcr": float("nan")}},
}


class TestRunDataset:
    """`train` encodes each row once: into one append-only run dataset, from
    whose lines the boundary digests and the final files come."""

    def test_one_dataset_file_holds_every_row(self, trained_with_result):
        (root, data, config, ckpt), state, _ = trained_with_result
        lines = (ckpt.parent / "dataset.jsonl").read_bytes().splitlines()
        assert len(lines) == len(state.dataset) == 10 + TINY["gan"]["n_generate"] * 2
        assert not list(ckpt.parent.glob("dataset_iter*.jsonl"))

    def test_boundary_digests_are_of_the_leading_rows(self, trained):
        root, data, config, ckpt = trained
        lines = (ckpt.parent / "dataset.jsonl").read_bytes().splitlines(keepends=True)
        rows = []
        for it in range(1, TINY["gan"]["max_iterations"] + 1):
            ck = dataio.load_checkpoint(str(ckpt.parent / f"ckpt_iter{it}.json"))
            assert ckpt.parent / ck.extra["dataset_path"] == ckpt.parent / "dataset.jsonl"
            rows.append(ck.extra["dataset_rows"])
            assert ck.dataset_digest == hashlib.sha256(b"".join(lines[: rows[-1]])).hexdigest()[:16]
        # the bootstrapped negatives, then one round's rollouts more
        assert rows == [10 + TINY["gan"]["n_generate"], len(lines)]

    def test_final_files_are_what_save_dataset_writes(self, trained_with_result, tmp_path):
        """The run dataset ends as `save_dataset` writes the final dataset.
        The final checkpoint names its first rows, the adopted round's
        dataset, with the row count and digest of that round's snapshot; the
        rows whose meta has a `round` are the policy rollouts."""
        (root, data, config, ckpt), state, _ = trained_with_result
        final = dataio.load_checkpoint(str(ckpt))
        digest = final.extra["config_digest"]
        lines = (ckpt.parent / "dataset.jsonl").read_bytes().splitlines(keepends=True)
        for name, ds in (("full.jsonl", state.dataset), ("adopted.jsonl", state.adopted.dataset)):
            dataio.save_dataset(ds, str(tmp_path / name), config_digest=digest)
            assert b"".join(lines[: len(ds)]) == (tmp_path / name).read_bytes(), name
        assert len(lines) == len(state.dataset)
        snapshot = dataio.load_checkpoint(str(ckpt.parent / f"ckpt_iter{final.gan_iteration}.json"))
        assert final.extra["dataset_rows"] == snapshot.extra["dataset_rows"] == len(state.adopted.dataset)
        assert final.dataset_digest == snapshot.dataset_digest
        rounds = ["round" in json.loads(line)["meta"] for line in lines]
        assert rounds == [m.get("source") == GENERATED_SOURCE for m in state.dataset.metas] and any(rounds)


class TestConfigErrors:
    @pytest.mark.parametrize("option", list(BAD_CONFIGS))
    def test_names_the_option(self, option):
        with pytest.raises(ConfigError) as excinfo:
            Run(BAD_CONFIGS[option])
        message = str(excinfo.value)
        assert message.startswith(option + " "), message
        retired = {f"{section}.{key}" for _, section, key, _ in RETIRED_OPTIONS}
        assert message.startswith(option + " is unknown") == (option in retired), message

    def test_more_cases_name_the_option(self):
        for doc, option in [
            ({"shape": {"n_pred": 0}}, "shape.n_pred"),
            ({"seed": -1}, "seed"),
            ({"seed": True}, "seed"),
            ({"inference": {"refine_batch": 0}}, "inference.refine_batch"),
            ({"gan": []}, "gan"),
            ({"shape": {"tau": float("inf")}}, "shape.tau"),
            ({"shape": {"n_conj": True}}, "shape.n_conj"),
            ({"shape": {"n_pred": [2]}}, "shape.n_pred"),
            ({"inference": {"n_starts": -5}}, "inference.n_starts"),
            ({"inference": {"n_starts": 0}}, "inference.n_starts"),
            ({"inference": {"max_proposals": -10}}, "inference.max_proposals"),
            ({"inference": {"refine_steps": -1}}, "inference.refine_steps"),
            ({"policy": {"steps": -1}}, "policy.steps"),
        ]:
            with pytest.raises(ConfigError) as excinfo:
                Run(doc)
            assert str(excinfo.value).startswith(option + " "), (doc, str(excinfo.value))
        # the lowest value of each range is taken
        Run({"inference": {"max_proposals": 0, "refine_steps": 0}, "policy": {"steps": 0}})

    def test_unknown_options_are_refused_whatever_their_value(self):
        """Retired options, and one that never was (env.wobble), are refused
        before their values are read."""
        for doc, option in [
            ({"env": {"name": "driving", "T": "57"}}, "env.T"),
            ({"policy": {"betas": [0.9]}}, "policy.betas"),
            ({"inference": {"tau_eval": 0}}, "inference.tau_eval"),
            ({"env": {"name": "unicycle", "init_lo": [2.5, 0.5, 0.0]}}, "env.init_lo"),
            ({"env": {"name": "unicycle", "obstacle_margin": True}}, "env.obstacle_margin"),
            ({"env": {"name": "driving", "init_pos": [5.0, 0.0]}}, "env.init_pos"),
            ({"env": {"name": "driving", "react_delay": None}}, "env.react_delay"),
            ({"env": {"name": "driving", "wobble": 1}}, "env.wobble"),
            ({"policy": {"lr": -0.5}}, "policy.lr"),
            ({"policy": {"lr": 0}}, "policy.lr"),
            ({"inference": {"refine_lr": 0.0}}, "inference.refine_lr"),
            ({"inference": {"margin_lo": 2.0, "margin_hi": 1.0}}, "inference.margin_lo"),
            ({"inference": {"margin_lo": -0.01}}, "inference.margin_lo"),
            ({"inference": {"pred_bound": 0.0}}, "inference.pred_bound"),
            ({"inference": {"gate_bound": -1.0}}, "inference.gate_bound"),
            ({"inference": {"beta1": -10}}, "inference.beta1"),
            ({"inference": {"beta2": -0.1}}, "inference.beta2"),
        ]:
            with pytest.raises(ConfigError) as excinfo:
                Run(doc)
            assert str(excinfo.value).startswith(option + " is unknown; "), (doc, str(excinfo.value))

    def test_json_integers_are_valid_floats(self):
        run = Run({"shape": {"tau": 1}, "gan": {"stop_mcr": 1}})
        assert run.shape.tau == 1.0 and isinstance(run.shape.tau, float)
        assert run.gan.stop_mcr == 1.0 and isinstance(run.gan.stop_mcr, float)

    def test_train_exits_2_and_writes_no_checkpoint(self, trained, tmp_path, capsys):
        # a NaN is refused before any training, as a value out of range is
        root, data, config, ckpt = trained
        for option, section in (("inference.epoch_len", {"inference": {"epoch_len": 0}}),
                                ("gan.stop_mcr", {"gan": {"stop_mcr": float("nan")}})):
            bad = tmp_path / "bad.json"
            bad.write_text(json.dumps({**TINY, **section}))
            out = tmp_path / "run" / "ckpt.json"
            assert main(["train", "--data", str(data), "--config", str(bad), "--out", str(out)]) == EXIT_CONFIG
            assert option in capsys.readouterr().err
            assert not out.exists() and not out.parent.exists()


# each option that changed nothing or that no caller set, with its old default
RETIRED_OPTIONS = [
    ("unicycle", "env", "region_a", [1.0, 9.0, 1.0]),
    ("unicycle", "env", "region_b", [7.0, 2.0, 0.86]),
    ("unicycle", "env", "region_c", [9.0, 9.0, 0.7]),
    ("unicycle", "env", "obstacle", [5.0, 8.0, 1.0]),
    ("unicycle", "env", "control_box", [[0.0, -0.7853981633974483], [1.0, 0.7853981633974483]]),
    ("unicycle", "env", "obstacle_margin", 1.5),
    ("driving", "env", "cruise", 5.0),
    ("driving", "env", "accel", 0.5),
    ("driving", "env", "other_brake", 1.25),
    ("driving", "env", "ego_brake", 1.0),
    ("driving", "env", "decel_onset", 35),
    ("driving", "env", "react_delay", 2),
    ("driving", "env", "wrong_stop_onset", 28),
    ("driving", "env", "gap", [6.0, 10.0]),
    ("driving", "env", "control_box", [[-3.0], [3.0]]),
    ("unicycle", "inference", "initial_temp", 1.0),
    ("unicycle", "inference", "temp_decay", 0.95),
    ("driving", "gan", "reheat", 0.5),
    ("unicycle", "env", "T", 20),
    ("unicycle", "env", "init_lo", [0.5, 0.5, 0.0]),
    ("unicycle", "env", "init_hi", [2.0, 2.0, math.pi / 2]),
    ("driving", "env", "T", 57),
    ("driving", "env", "init_pos", [0.0, 5.0]),
    ("unicycle", "inference", "margin_lo", 0.01),
    ("unicycle", "inference", "margin_hi", 1.0),
    ("unicycle", "inference", "beta1", 0.05),
    ("unicycle", "inference", "beta2", 0.1),
    ("driving", "inference", "refine_lr", 0.05),
    ("driving", "inference", "pred_bound", 3.0),
    ("driving", "inference", "gate_bound", 6.0),
    ("driving", "inference", "tau_eval", 0.01),
    ("unicycle", "policy", "lr", 1e-3),
    ("driving", "policy", "betas", [0.9, 0.999]),
]

# where each option retired to a constant lives now
CONSTANTS = {
    ("unicycle", "env", "T"): UnicycleEnv.T,
    ("unicycle", "env", "init_lo"): UnicycleEnv.init_lo,
    ("unicycle", "env", "init_hi"): UnicycleEnv.init_hi,
    ("driving", "env", "T"): DrivingEnv.T,
    ("driving", "env", "init_pos"): DrivingEnv.init_pos,
    ("unicycle", "inference", "margin_lo"): train.MARGIN_LO,
    ("unicycle", "inference", "margin_hi"): train.MARGIN_HI,
    ("unicycle", "inference", "beta1"): train.BETA1,
    ("unicycle", "inference", "beta2"): train.BETA2,
    ("driving", "inference", "refine_lr"): train.REFINE_LR,
    ("driving", "inference", "pred_bound"): train.PRED_BOUND,
    ("driving", "inference", "gate_bound"): train.GATE_BOUND,
    ("driving", "inference", "tau_eval"): train.TAU_EVAL,
    ("unicycle", "policy", "lr"): train.POLICY_LR,
    ("driving", "policy", "betas"): train.ADAM_BETAS,
}


class TestRetiredOptions:
    def test_each_constant_keeps_the_old_default(self):
        retired = {(env, section, key): value for env, section, key, value in RETIRED_OPTIONS}
        for where, constant in CONSTANTS.items():
            assert json.loads(json.dumps(constant)) == retired[where], where
        # tuples, so that no two instances share a mutable array
        assert all(type(v) is tuple for v in (UnicycleEnv.init_lo, UnicycleEnv.init_hi, DrivingEnv.init_pos))

    def test_config_or_checkpoint_naming_one_is_refused(self, trained, trained_driving, tmp_path, capsys):
        """A config naming a retired option exits 2, and a checkpoint whose
        config names one exits 3; each error names `section.option`, and
        nothing is written."""
        runs = {"unicycle": trained, "driving": trained_driving}
        for env_name, section, key, value in RETIRED_OPTIONS:
            option = f"{section}.{key}"
            root, data, config, ckpt = runs[env_name]
            doc = json.loads(config.read_text())
            doc.setdefault(section, {})[key] = value
            bad = tmp_path / "bad.json"
            bad.write_text(json.dumps(doc))
            out = tmp_path / "run" / "ckpt.json"
            assert main(["train", "--data", str(data), "--config", str(bad), "--out", str(out)]) == EXIT_CONFIG
            assert f"config error: {bad}: {option} is unknown" in capsys.readouterr().err, option
            assert not out.parent.exists()
            ck = json.loads(ckpt.read_text())
            ck["config"] = doc
            bad.write_text(json.dumps(ck))
            out = tmp_path / "r.csv"
            assert main(["rollout", "--ckpt", str(bad), "--n", "2", "--out", str(out)]) == EXIT_DATA
            assert f"{bad}: config: {option} is unknown" in capsys.readouterr().err, option
            assert not out.exists()


class TestEval:
    def test_true_formula_on_balanced_data(self, trained, tmp_path):
        root, data, config, ckpt = trained
        aug = ckpt.parent / "dataset.jsonl"
        ds = dataio.load_dataset(str(aug))
        formula = tmp_path / "true.txt"
        formula.write_text("TRUE\n")
        code = main(["eval", "--formula", str(formula), "--data", str(aug)])
        assert code == EXIT_OK
        # separately verify the reported number by recomputing
        from stlmimic.inference import exact_mcr

        assert exact_mcr(stl.TrueFormula(), ds.X, ds.dim_names, ds.labels) == ds.count(-1) / len(ds)

    def test_extracted_formula_matches_final_exact_mcr(self, trained, tmp_path, capsys):
        root, data, config, ckpt = trained
        run_dir = ckpt.parent
        rows = (run_dir / "metrics.csv").read_text().strip().split("\n")[2:]
        final_exact = float(rows[-1].split(",")[2])
        # the adopted round's dataset: the run dataset's first dataset_rows lines
        adopted = tmp_path / "adopted.jsonl"
        n = dataio.load_checkpoint(str(ckpt)).extra["dataset_rows"]
        adopted.write_bytes(b"".join((run_dir / "dataset.jsonl").read_bytes().splitlines(keepends=True)[:n]))
        code = main(["eval", "--formula", str(run_dir / "formula.txt"), "--data", str(adopted)])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        reported = float([l for l in out.splitlines() if l.startswith("MCR")][0].split()[1])
        assert reported == pytest.approx(final_exact, abs=1e-9)

    def test_horizon_mismatch_exit_code(self, trained, tmp_path):
        root, data, config, ckpt = trained
        formula = tmp_path / "long.txt"
        formula.write_text("F[0,99](dA >= 0)\n")
        code = main(["eval", "--formula", str(formula), "--data", str(data)])
        assert code == EXIT_DATA

    def test_bad_formula_is_data_error_naming_the_formula_file(self, trained_driving, tmp_path, capsys):
        root, data, config, ckpt = trained_driving
        for text, what in (
            ("F[0,80](veg >= 1)", "exceeds signal horizon 57"),
            # named by the first window, in post-order, that does not fit
            ("G[0,58](veg >= 0) & F[0,70](vot >= 0)", "formula horizon 58 exceeds signal horizon 57"),
            ("F[0,5](dA >= 1)", "unknown variable"),
            ("F[0,5](veg >= 1", "expected ')', got 'end' (at position 15)"),
            ("F[0,5](veg >= 1e999)", "number '1e999' is not finite (at position 14)"),
        ):
            formula = tmp_path / "f.txt"
            formula.write_text(text + "\n")
            assert main(["eval", "--formula", str(formula), "--data", str(data)]) == EXIT_DATA
            err = capsys.readouterr().err
            assert f"{formula}: " in err and what in err, text

    def test_missing_file_exit_code(self, tmp_path):
        code = main(["eval", "--formula", str(tmp_path / "nope.txt"), "--data", str(tmp_path / "nope.jsonl")])
        assert code == EXIT_DATA

    def test_data_directory_is_data_error_naming_it(self, trained, tmp_path, capsys):
        # eval, extract and train all read --data; a directory there is bad input
        root, data, config, ckpt = trained
        run_dir = ckpt.parent
        for argv in (
            ["eval", "--formula", str(run_dir / "formula.txt")],
            ["extract", "--ckpt", str(ckpt), "--out", str(tmp_path / "f.txt")],
            ["train", "--config", str(config), "--out", str(tmp_path / "run" / "ckpt.json")],
        ):
            assert main(argv + ["--data", str(run_dir)]) == EXIT_DATA, argv[0]
            assert str(run_dir) in capsys.readouterr().err, argv[0]
        assert not (tmp_path / "f.txt").exists() and not (tmp_path / "run").exists()


class TestExtract:
    def test_writes_parseable_formula(self, trained, tmp_path):
        root, data, config, ckpt = trained
        out = tmp_path / "f.txt"
        code = main(["extract", "--ckpt", str(ckpt), "--out", str(out)])
        assert code == EXIT_OK
        f = stl.parse(out.read_text().strip(), ("dA", "dB", "dC", "dO"))
        assert isinstance(f, stl.Formula)

    def test_threshold_validated(self, trained, tmp_path, capsys):
        # extraction reads a gate as on above 0.5, as training does; there is no flag for it
        root, data, config, ckpt = trained
        out = tmp_path / "f.txt"
        with pytest.raises(SystemExit) as exc:
            main(["extract", "--ckpt", str(ckpt), "--threshold", "0.5", "--out", str(out)])
        assert exc.value.code == EXIT_CONFIG and not out.exists()
        assert capsys.readouterr().err.splitlines()[-1] == "stlmimic: error: unrecognized arguments: --threshold 0.5"

    def test_other_environments_data_is_data_error(self, trained, tmp_path, capsys):
        root, data, config, ckpt = trained
        driving = tmp_path / "d.jsonl"
        assert main(["gen-data", "--env", "driving", "--n", "4", "--seed", "0", "--out", str(driving)]) == EXIT_OK
        code = main(["extract", "--ckpt", str(ckpt), "--data", str(driving), "--out", str(tmp_path / "f.txt")])
        assert code == EXIT_DATA
        assert f"{driving}: dataset was generated for env 'driving', not 'unicycle'" in capsys.readouterr().err

    def test_missing_data_file_is_data_error_naming_it(self, trained, tmp_path, capsys):
        root, data, config, ckpt = trained
        missing, out = tmp_path / "missing.jsonl", tmp_path / "f.txt"
        code = main(["extract", "--ckpt", str(ckpt), "--data", str(missing), "--out", str(out)])
        assert code == EXIT_DATA and not out.exists()
        assert str(missing) in capsys.readouterr().err

    def test_checkpoint_without_its_dataset_extracts_unsimplified(self, trained, tmp_path, caplog):
        root, data, config, ckpt = trained
        doc = json.loads(ckpt.read_text())
        doc["extra"]["augmented_dataset"] = str(tmp_path / "gone.jsonl")
        moved = tmp_path / "ckpt.json"
        moved.write_text(json.dumps(doc))
        out = tmp_path / "f.txt"
        assert main(["extract", "--ckpt", str(moved), "--out", str(out)]) == EXIT_OK
        assert "no dataset available" in caplog.text
        assert isinstance(stl.parse(out.read_text().strip(), ("dA", "dB", "dC", "dO")), stl.Formula)


class TestRollout:
    def test_csv_row_count(self, trained, tmp_path):
        root, data, config, ckpt = trained
        out = tmp_path / "r.csv"
        code = main(["rollout", "--ckpt", str(ckpt), "--n", "4", "--seed", "2", "--out", str(out)])
        assert code == EXIT_OK
        lines = out.read_text().strip().split("\n")
        assert lines[0].startswith("# config=")
        assert lines[1].split(",")[:5] == ["traj_id", "t", "px", "py", "theta"]
        assert len(lines) == 2 + 4 * 21

    def test_non_positive_counts_are_config_errors(self, trained, tmp_path, capsys):
        root, data, config, ckpt = trained
        for count in ("0", "-1"):
            out = tmp_path / "r.csv"
            code = main(["rollout", "--ckpt", str(ckpt), "--n", count, "--out", str(out)])
            assert code == EXIT_CONFIG and not out.exists()
            assert "--n" in capsys.readouterr().err
            adj = tmp_path / "adj.json"
            code = main([
                "adjust", "--ckpt", str(ckpt), "--conjoin", "G[0,20](dO >= 1.0)",
                "--rollouts", count, "--out", str(adj),
            ])
            assert code == EXIT_CONFIG and not adj.exists()
            assert "--rollouts" in capsys.readouterr().err

    def test_negative_seed_is_config_error(self, trained, tmp_path, capsys):
        root, data, config, ckpt = trained
        out = tmp_path / "r.csv"
        assert main(["rollout", "--ckpt", str(ckpt), "--n", "2", "--seed", "-3", "--out", str(out)]) == EXIT_CONFIG
        assert "--seed" in capsys.readouterr().err and not out.exists()

    def test_deterministic_with_seed(self, trained, tmp_path):
        root, data, config, ckpt = trained
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            main(["rollout", "--ckpt", str(ckpt), "--n", "2", "--seed", "5", "--out", str(out)])
        assert a.read_bytes() == b.read_bytes()


class TestAdjust:
    def test_rule_stored_and_inference_frozen(self, trained, tmp_path):
        root, data, config, ckpt = trained
        out = tmp_path / "adj.json"
        code = main([
            "adjust", "--ckpt", str(ckpt),
            "--conjoin", "G[0,20](dO >= 1.0)",
            "--out", str(out), "--rollouts", "2",
        ])
        assert code == EXIT_OK
        before = dataio.load_checkpoint(str(ckpt))
        after = dataio.load_checkpoint(str(out))
        assert after.rule_text is not None
        assert "dO >= 1" in after.rule_text
        assert after.inference_groups == before.inference_groups
        assert (tmp_path / "rollouts_adjusted.csv").exists()

    def test_drops_the_exact_mcr_of_the_formula_without_the_rule(self, trained, tmp_path):
        # extra.mcr_exact scores the learned formula alone, not its
        # conjunction with the rule; the rest of extra describes the source
        # run and is kept
        root, data, config, ckpt = trained
        first, second = tmp_path / "a" / "ckpt.json", tmp_path / "b" / "ckpt.json"
        for src, out in ((ckpt, first), (first, second)):
            argv = ["adjust", "--ckpt", str(src), "--conjoin", "G[0,20](dO >= 1.0)", "--out", str(out), "--rollouts", "2"]
            assert main(argv) == EXIT_OK
        before = dataio.load_checkpoint(str(ckpt)).extra
        assert "mcr_exact" in before
        for out, src in ((first, ckpt), (second, first)):
            after = dataio.load_checkpoint(str(out)).extra
            assert "mcr_exact" not in after
            assert after["saturated"] == before["saturated"]
            assert after["config_digest"] == before["config_digest"]
            assert after["adjusted_from"] == os.path.relpath(src, out.parent)

    def test_bad_rule_syntax_exit_code(self, trained, tmp_path):
        root, data, config, ckpt = trained
        code = main([
            "adjust", "--ckpt", str(ckpt), "--conjoin", "F[2,1](dA >= 0)",
            "--out", str(tmp_path / "x.json"),
        ])
        assert code == EXIT_DATA

    def test_rule_horizon_checked(self, trained, tmp_path):
        root, data, config, ckpt = trained
        code = main([
            "adjust", "--ckpt", str(ckpt), "--conjoin", "G[0,50](dA >= 0)",
            "--out", str(tmp_path / "x.json"),
        ])
        assert code == EXIT_DATA

    def test_bad_rule_error_names_the_option(self, trained_driving, tmp_path, capsys):
        root, data, config, ckpt = trained_driving
        out = tmp_path / "adjusted" / "ckpt.json"
        assert main(["adjust", "--ckpt", str(ckpt), "--conjoin", "G[0,5](dA<=1)", "--out", str(out)]) == EXIT_DATA
        assert "--conjoin 'G[0,5](dA<=1)': unknown variable 'dA'" in capsys.readouterr().err
        assert not out.parent.exists()


    def test_non_finite_rule_is_a_syntax_error_not_a_divergence(self, trained, tmp_path, capsys):
        # an infinite bound once reached the smooth semantics as NaN, and
        # retraining ended in a false "training diverged" (exit 4)
        root, data, config, ckpt = trained
        out = tmp_path / "adjusted" / "ckpt.json"
        argv = ["adjust", "--ckpt", str(ckpt), "--conjoin", "G[0,20](dO <= 1e999)", "--retrain", "--out", str(out)]
        assert main(argv) == EXIT_DATA
        assert "--conjoin 'G[0,20](dO <= 1e999)': number '1e999' is not finite (at position 14)" in capsys.readouterr().err
        assert not out.parent.exists()


class TestCheckpointKinds:
    def test_snapshot_stores_the_classifier_as_a_checkpoint_does(self, trained_with_result):
        """Each snapshot, and the final checkpoint, names its environment
        only, and loads the classifier and the signal normalization of its
        state through the same code; the round-1 snapshot precedes any
        adopted round and has no classifier."""
        (root, data, config, ckpt), final, boundaries = trained_with_result
        shape = NetworkShape(**dataio.load_checkpoint(str(ckpt)).shape)
        assert [(s.iteration, s.adopted is None) for s in boundaries] == [(1, True), (2, False)]
        snapshots = [ckpt.parent / f"ckpt_iter{s.iteration}.json" for s in boundaries]
        for path, state in zip(snapshots + [ckpt], boundaries + [final]):
            ck = dataio.load_checkpoint(str(path))
            assert ck.env == {"name": "unicycle"} and "warm_start" not in ck.extra
            assert SignalNorm.from_jsonable(ck.norm, shape.dim) == state.norm == final.norm
            if state.adopted is None:
                assert (ck.inference_groups, ck.margin) == ({}, 0.0)
                continue
            inf = InferenceParams.from_jsonable(ck.inference_groups, InferenceParams.group_shapes(shape))
            assert np.array_equal(inf.flatten(), state.adopted.inference.flatten())
            assert ck.margin == state.adopted.margin

    def test_boundary_snapshot_is_data_error_naming_the_file(self, trained, tmp_path, capsys):
        root, data, config, ckpt = trained
        snapshot = str(ckpt.parent / "ckpt_iter1.json")
        for argv in (
            ["extract", "--ckpt", snapshot, "--out", str(tmp_path / "f.txt")],
            ["rollout", "--ckpt", snapshot, "--n", "2", "--out", str(tmp_path / "r.csv")],
            ["adjust", "--ckpt", snapshot, "--conjoin", "G[0,20](dO >= 1.0)", "--out", str(tmp_path / "a.json")],
        ):
            assert main(argv) == EXIT_DATA, argv[0]
            assert snapshot in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_checkpoint_without_classifier_is_data_error(self, trained, tmp_path, capsys):
        root, data, config, ckpt = trained
        for key in ("inference_groups", "norm"):
            doc = json.loads(ckpt.read_text())
            doc[key] = {}
            bad = tmp_path / f"no_{key}.json"
            bad.write_text(json.dumps(doc))
            code = main(["rollout", "--ckpt", str(bad), "--n", "2", "--out", str(tmp_path / "r.csv")])
            assert code == EXIT_DATA
            assert str(bad) in capsys.readouterr().err


class TestOutputPaths:
    @pytest.mark.parametrize("cmd", ["gen-data", "extract", "rollout", "train", "adjust"])
    def test_directory_as_out_is_data_error_naming_it(self, trained, tmp_path, capsys, monkeypatch, cmd):
        """Nothing is written: every command refuses the path before it does
        its work, and leaves no run files or temporary checkpoint beside it."""
        root, data, config, ckpt = trained
        for owner, name in [(cli, "train_policy"), (UnicycleEnv, "gen_expert"), (cli, "simplify"), (cli, "rollout")]:
            monkeypatch.setattr(owner, name, lambda *a, _name=name, **kw: pytest.fail(f"{_name} ran before --out was checked"))
        out = tmp_path / "out"
        out.mkdir()
        argv = {
            "gen-data": ["gen-data", "--env", "unicycle", "--n", "2"],
            "extract": ["extract", "--ckpt", str(ckpt)],
            "rollout": ["rollout", "--ckpt", str(ckpt), "--n", "2"],
            "train": ["train", "--data", str(data), "--config", str(config)],
            "adjust": ["adjust", "--ckpt", str(ckpt), "--conjoin", "G[0,20](dO >= 1.5)", "--retrain"],
        }[cmd]
        assert main(argv + ["--out", str(out)]) == EXIT_DATA
        assert str(out) in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out"] and not any(out.iterdir())

    @pytest.mark.parametrize("cmd", ["gen-data", "train"])
    @pytest.mark.parametrize("out", ["", "newdir/", "newdir/.."], ids=["empty", "separator", "dotdot"])
    def test_out_naming_no_file_is_data_error(self, trained, tmp_path, capsys, monkeypatch, cmd, out):
        """Refused before the work: nothing is written in the working directory
        or its parent, where the run's files would have gone."""
        root, data, config, ckpt = trained
        for owner, name in [(cli, "train_policy"), (UnicycleEnv, "gen_expert")]:
            monkeypatch.setattr(owner, name, lambda *a, _name=name, **kw: pytest.fail(f"{_name} ran before --out was checked"))
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        argv = {
            "gen-data": ["gen-data", "--env", "unicycle", "--n", "2"],
            "train": ["train", "--data", str(data), "--config", str(config)],
        }[cmd]
        assert main(argv + ["--out", out]) == EXIT_DATA
        assert capsys.readouterr().err == f"data error: --out {out!r} names no file\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["work"] and not any(work.iterdir())

    @pytest.mark.parametrize("name", ["dataset.jsonl", "metrics.csv", "formula.txt", "ckpt_iter1.json", "ckpt_iter12.json"])
    def test_out_naming_a_run_file_is_data_error(self, trained, tmp_path, capsys, monkeypatch, name):
        """train writes its run files beside --out, so an --out of one of their
        names is refused before the work: a run directory's files are left as
        they were, and a missing directory is not made."""
        root, data, config, ckpt = trained
        monkeypatch.setattr(cli, "train_policy", lambda *a, **kw: pytest.fail("train_policy ran before --out was checked"))
        run = tmp_path / "run"
        shutil.copytree(ckpt.parent, run)
        before = {p.name: p.read_bytes() for p in run.iterdir()}
        for out in (run / name, tmp_path / "fresh" / name):
            assert main(["train", "--data", str(data), "--config", str(config), "--out", str(out)]) == EXIT_DATA
            assert capsys.readouterr().err == f"data error: --out {out} names a file that train writes beside it\n"
        assert {p.name: p.read_bytes() for p in run.iterdir()} == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run"]

    @pytest.mark.parametrize(
        "name", ["dataset.jsonl", "metrics.csv", "formula.txt", "ckpt_iter1.json", "rollouts_adjusted.csv"]
    )
    def test_adjust_out_naming_a_run_file_or_its_rollouts_is_data_error(self, trained, tmp_path, capsys, monkeypatch,
                                                                          name):
        """adjust neither overwrites a file of the run it adjusts nor writes
        its rollouts over its own checkpoint: such an --out is refused after
        the inputs are read and before the retrain, and nothing is written."""
        root, data, config, ckpt = trained
        monkeypatch.setattr(cli, "train_policy", lambda *a, **kw: pytest.fail("train_policy ran before --out was checked"))
        run = tmp_path / "run"
        shutil.copytree(ckpt.parent, run)
        before = {p.name: p.read_bytes() for p in run.iterdir()}
        argv = ["adjust", "--ckpt", str(run / "ckpt.json"), "--conjoin", "G[0,20](dO >= 1.5)", "--retrain"]
        for out in (run / name, tmp_path / "fresh" / name):
            assert main(argv + ["--out", str(out)]) == EXIT_DATA
            assert capsys.readouterr().err == f"data error: --out {out} names a file that train or adjust writes beside it\n"
        assert {p.name: p.read_bytes() for p in run.iterdir()} == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run"]


    @pytest.mark.parametrize(
        "cmd, given",
        [("train", "--data"), ("train", "--config")]
        + [(cmd, given) for cmd in ("extract", "rollout", "adjust") for given in ("--ckpt", "--data", "dataset_path")],
    )
    def test_out_that_is_an_input_is_data_error(self, trained, tmp_path, capsys, monkeypatch, cmd, given):
        """An --out that is one of the command's own inputs, named by another
        path to the same file, is refused (exit 3) before the work, naming
        both; the input stays byte for byte, and no file or directory is made."""
        root, data, config, ckpt = trained
        for owner, name in [(cli, "train_policy"), (cli, "gan_loop"), (cli, "simplify"), (cli, "rollout")]:
            monkeypatch.setattr(owner, name, lambda *a, _name=name, **kw: pytest.fail(f"{_name} ran before --out was checked"))
        run = tmp_path / "run"
        shutil.copytree(ckpt.parent, run)
        # the run dataset under a name that no command refuses as --out, as an
        # older checkpoint's augmented_dataset may name it
        (run / "dataset.jsonl").rename(run / "rows.jsonl")
        doc = json.loads((run / "ckpt.json").read_text())
        doc["extra"]["dataset_path"] = "rows.jsonl"
        (run / "ckpt.json").write_text(json.dumps(doc))
        shutil.copy(data, tmp_path / "given.jsonl")
        shutil.copy(config, tmp_path / "given.json")
        paths = {"--ckpt": "run/ckpt.json", "--data": "given.jsonl", "--config": "given.json", "dataset_path": "run/rows.jsonl"}
        argv = {
            "train": ["train", "--data", "given.jsonl", "--config", "given.json"],
            "extract": ["extract", "--ckpt", "run/ckpt.json"],
            "rollout": ["rollout", "--ckpt", "run/ckpt.json", "--n", "2"],
            "adjust": ["adjust", "--ckpt", "run/ckpt.json", "--conjoin", "G[0,20](dO >= 1.5)", "--retrain"],
        }[cmd]
        if given == "--data" and cmd != "train":
            argv += ["--data", "given.jsonl"]
        monkeypatch.chdir(tmp_path)
        def files():
            # the inputs and what else is there, but the sidecars that reading them leaves
            return {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file() and p.suffix != ".npz"}

        before = files()
        out = os.path.join(".", "run", "..", paths[given])
        assert main(argv + ["--out", out]) == EXIT_DATA
        name = {"dataset_path": "the checkpoint's dataset"}.get(given, given)
        assert capsys.readouterr().err == f"data error: --out {out} is the same file as {name} {paths[given]}\n"
        assert files() == before


def _trim_w_in(doc):
    doc["policy_groups"]["w_in"] = [row[:-1] for row in doc["policy_groups"]["w_in"]]


NOT_UTF8 = b"\xff\xfe\x80 not utf-8\n"


class TestBadInputFiles:
    @pytest.mark.parametrize(
        "cmd, edit",
        [
            ("rollout", None),
            ("eval", None),
            ("rollout", lambda doc: doc["shape"].update(width=3)),
            ("rollout", lambda doc: doc["policy_groups"].pop("w_rec")),
            ("extract", lambda doc: doc["norm"].pop("halfrange")),
            ("extract", lambda doc: doc["norm"].update(halfrange=[1.0, 0.0, 1.0, 1.0])),
            ("extract", lambda doc: doc["inference_groups"].update(gate=[[0.0]])),
            ("rollout", _trim_w_in),
            ("rollout", lambda doc: doc.update(extra=[])),
            ("rollout", lambda doc: doc.update(rule_text=3)),
            ("rollout", lambda doc: doc["config"]["env"].update(name="nope")),
            ("rollout", lambda doc: doc["config"].update(seed="abc")),
            ("rollout", lambda doc: doc["config"].update(env=["unicycle"])),
            ("rollout", lambda doc: doc["config"]["env"].update(init_lo=5)),
            ("extract", lambda doc: doc["shape"].update(n_pred=float(doc["shape"]["n_pred"]))),
            ("rollout", lambda doc: doc["shape"].update(n_conj=True)),
            ("extract", lambda doc: doc.update(margin="0.5")),
            ("extract", lambda doc: doc.update(margin=True)),
            ("extract", lambda doc: doc.update(margin=float("nan"))),
            ("extract", lambda doc: doc.update(gan_iteration=2.7)),
            ("extract", lambda doc: doc.update(rule_text="G[0,")),
            ("rollout", lambda doc: doc.update(rule_text="G[0,50](dO >= 1.0)")),
            ("eval", NOT_UTF8),
            ("eval-data", NOT_UTF8),
        ],
        ids=[
            "ckpt-directory",
            "formula-directory",
            "shape-unknown-key",
            "policy-without-w_rec",
            "norm-without-halfrange",
            "norm-halfrange-zero",
            "gate-wrong-shape",
            "w_in-too-few-columns",
            "extra-a-list",
            "rule_text-an-int",
            "config-env-name-unknown",
            "config-seed-a-string",
            "config-env-a-list",
            "config-env-init_lo-a-number",
            "shape-n_pred-a-float",
            "shape-n_conj-a-bool",
            "margin-a-string",
            "margin-a-bool",
            "margin-nan",
            "gan_iteration-a-float",
            "rule_text-unparsable",
            "rule_text-past-the-horizon",
            "formula-not-utf8",
            "data-not-utf8",
        ],
    )
    def test_is_data_error_naming_the_file(self, trained, tmp_path, capsys, cmd, edit):
        # `edit` spoils a copy of the trained checkpoint, or is the bytes of
        # the bad file; None passes a directory
        root, data, config, ckpt = trained
        bad = tmp_path
        if isinstance(edit, bytes):
            bad = tmp_path / "bad.bin"
            bad.write_bytes(edit)
        elif edit is not None:
            doc = json.loads(ckpt.read_text())
            edit(doc)
            bad = tmp_path / "bad.json"
            bad.write_text(json.dumps(doc))
        out = tmp_path / "out.txt"
        argv = {
            "rollout": ["rollout", "--ckpt", str(bad), "--n", "2", "--out", str(out)],
            "extract": ["extract", "--ckpt", str(bad), "--out", str(out)],
            "eval": ["eval", "--formula", str(bad), "--data", str(data)],
            "eval-data": ["eval", "--formula", str(ckpt.parent / "formula.txt"), "--data", str(bad)],
        }[cmd]
        assert main(argv) == EXIT_DATA
        assert str(bad) in capsys.readouterr().err
        assert not out.exists()


def _edited_line(src, dst, lineno, **fields):
    """A copy of the dataset file src whose line `lineno` has `fields` replaced."""
    lines = src.read_text().splitlines(keepends=True)
    lines[lineno - 1] = json.dumps({**json.loads(lines[lineno - 1]), **fields}) + "\n"
    dst.write_text("".join(lines))
    return dst


class TestMalformedInputBranches:
    """A checkpoint or dataset line that is malformed in one of these ways
    is a data error (exit 3) naming the file, and the line where there is
    one, and nothing is written."""

    @pytest.mark.parametrize(
        "edit, what",
        [
            (lambda doc: [doc], "not a checkpoint document"),
            (lambda doc: {k: v for k, v in doc.items() if k != "margin"}, "missing field margin"),
            (lambda doc: {**doc, "shape": {**doc["shape"], "horizon": 15}},
             "shape has horizon 15 and dim 4, but the unicycle environment has 20 and 4"),
        ],
        ids=["a-list", "without-margin", "horizon-not-T"],
    )
    def test_checkpoint(self, trained, tmp_path, capsys, edit, what):
        root, data, config, ckpt = trained
        bad, out = tmp_path / "bad.json", tmp_path / "out" / "r.csv"
        bad.write_text(json.dumps(edit(json.loads(ckpt.read_text()))))
        assert main(["rollout", "--ckpt", str(bad), "--n", "2", "--out", str(out)]) == EXIT_DATA
        assert f"data error: {bad}: {what}" in capsys.readouterr().err
        assert not out.parent.exists()

    @pytest.mark.parametrize(
        "names, what",
        [
            (["dA", "dB", "dC"], "agent_dims or env_dims do not match the state widths"),
            (["dA", "dB", "dC", "dX"], "dimension names (('dA', 'dB', 'dC', 'dX'), ()) differ from"),
        ],
        ids=["width-not-the-states", "names-not-the-first-line"],
    )
    def test_dataset_line(self, trained, tmp_path, capsys, names, what):
        root, data, config, ckpt = trained
        bad = _edited_line(data, tmp_path / "bad.jsonl", 2, agent_dims=names)
        out = tmp_path / "out" / "f.txt"
        assert main(["extract", "--ckpt", str(ckpt), "--data", str(bad), "--out", str(out)]) == EXIT_DATA
        assert f"data error: {bad}:2: {what}" in capsys.readouterr().err
        assert not out.parent.exists()


def _renamed(src, dst, key, names):
    """A copy of the dataset file src whose `key` dimension names are `names`."""
    lines = [json.loads(line) for line in src.read_text().splitlines()]
    dst.write_text("".join(json.dumps({**obj, key: names}) + "\n" for obj in lines))
    return dst


class TestDataInput:
    """Each command that reads --data checks the dataset first: an empty
    file, or one over other dimensions than the environment's, is a data
    error naming the file, and nothing is written."""

    @pytest.mark.parametrize("cmd", ["train", "extract", "eval", "rollout", "adjust"])
    def test_empty_data_is_data_error_naming_the_file(self, trained, trained_driving, tmp_path, capsys, cmd):
        root, data, config, ckpt = trained
        driving_ckpt = trained_driving[3]
        empty, out = tmp_path / "empty.jsonl", tmp_path / "out" / "x"
        empty.write_text("")
        argv = {
            "train": ["train", "--config", str(config), "--out", str(out)],
            "extract": ["extract", "--ckpt", str(ckpt), "--out", str(out)],
            "eval": ["eval", "--formula", str(ckpt.parent / "formula.txt")],
            # a unicycle rollout reads no environment trajectories
            "rollout": ["rollout", "--ckpt", str(driving_ckpt), "--n", "2", "--out", str(out)],
            "adjust": ["adjust", "--ckpt", str(driving_ckpt), "--conjoin", "G[0,57](veg <= 6)", "--out", str(out)],
        }[cmd]
        assert main(argv + ["--data", str(empty)]) == EXIT_DATA
        assert f"{empty}: empty dataset" in capsys.readouterr().err
        assert not out.parent.exists()

    def test_renamed_dimensions_fail_before_training(self, trained, trained_driving, tmp_path, capsys):
        root, data, config, ckpt = trained
        renamed = _renamed(data, tmp_path / "renamed.jsonl", "agent_dims", ["a", "b", "c", "d"])
        lead = _renamed(trained_driving[1], tmp_path / "lead.jsonl", "env_dims", ["p_lead", "v_lead"])
        out = tmp_path / "out" / "x"
        for argv, bad in (
            (["train", "--data", str(renamed), "--config", str(config)], renamed),
            (["extract", "--ckpt", str(ckpt), "--data", str(renamed)], renamed),
            (["rollout", "--ckpt", str(trained_driving[3]), "--data", str(lead), "--n", "2"], lead),
        ):
            assert main(argv + ["--out", str(out)]) == EXIT_DATA, argv[0]
            err = capsys.readouterr().err
            assert f"{bad}: dimensions" in err and "are not the" in err, argv[0]
        assert not out.parent.exists()  # train made no run directory: it failed before its first rollouts


class TestEnvironmentPool:
    def test_adjust_and_rollout_need_environment_data(self, trained_driving, tmp_path, capsys):
        root, data, config, ckpt = trained_driving
        doc = json.loads(ckpt.read_text())
        doc["extra"]["augmented_dataset"] = str(tmp_path / "gone.jsonl")
        moved = tmp_path / "ckpt.json"
        moved.write_text(json.dumps(doc))
        adj = tmp_path / "adj" / "ckpt.json"
        for argv in (
            ["rollout", "--ckpt", str(moved), "--n", "2", "--out", str(tmp_path / "r.csv")],
            ["adjust", "--ckpt", str(moved), "--conjoin", "G[0,57](veg <= 6)", "--out", str(adj)],
        ):
            assert main(argv) == EXIT_DATA, argv[0]
            assert "need --data" in capsys.readouterr().err
        assert not adj.exists()

    def test_missing_or_directory_data_path_is_named(self, trained_driving, tmp_path, capsys):
        root, data, config, ckpt = trained_driving
        adj = tmp_path / "adj" / "ckpt.json"
        for bad in (tmp_path / "nope.jsonl", root):
            for argv in (
                ["rollout", "--ckpt", str(ckpt), "--n", "2", "--out", str(tmp_path / "r.csv")],
                ["adjust", "--ckpt", str(ckpt), "--conjoin", "G[0,57](veg <= 6)", "--out", str(adj)],
            ):
                assert main(argv + ["--data", str(bad)]) == EXIT_DATA, argv[0]
                err = capsys.readouterr().err
                assert str(bad) in err and "need --data" not in err, (argv[0], err)
        assert not adj.exists() and not (tmp_path / "r.csv").exists()

    @pytest.mark.parametrize("data", ["missing", "empty", "driving"])
    def test_unicycle_data_is_read_and_checked(self, trained, trained_driving, tmp_path, capsys, data):
        """A unicycle rollout draws no environment trajectories, yet a --data
        it is given must be one of its environment's datasets."""
        ckpt = trained[3]
        bad = trained_driving[1] if data == "driving" else tmp_path / f"{data}.jsonl"
        if data == "empty":
            bad.write_text("")
        out = tmp_path / "out" / "x"
        for argv in (
            ["rollout", "--ckpt", str(ckpt), "--n", "2", "--out", str(out)],
            ["adjust", "--ckpt", str(ckpt), "--conjoin", "G[0,20](dO >= 1.0)", "--out", str(out)],
        ):
            assert main(argv + ["--data", str(bad)]) == EXIT_DATA, argv[0]
            assert str(bad) in capsys.readouterr().err, argv[0]
        assert not out.parent.exists()

    def test_rollouts_alone_are_data_error_naming_the_file(self, trained_driving, tmp_path, capsys):
        """Policy rollouts hold no demonstration to draw a lead car from, so
        a driving rollout or retrain given only them writes nothing."""
        root, data, config, ckpt = trained_driving
        negatives = tmp_path / "negatives.jsonl"
        lines = (ckpt.parent / "dataset.jsonl").read_text().splitlines(keepends=True)
        negatives.write_text("".join(line for line in lines if json.loads(line)["meta"].get("source") == "policy_rollout"))
        assert len(dataio.load_dataset(str(negatives))) and not any(dataio.load_dataset(str(negatives)).labels > 0)
        out = tmp_path / "out"
        for argv in (
            ["rollout", "--ckpt", str(ckpt), "--n", "2", "--out", str(out / "r.csv")],
            ["adjust", "--ckpt", str(ckpt), "--conjoin", "G[0,57](veg <= 6)", "--retrain", "--out", str(out / "c.json")],
        ):
            assert main(argv + ["--data", str(negatives)]) == EXIT_DATA, argv[0]
            assert f"{negatives}: no demonstration rows" in capsys.readouterr().err, argv[0]
        assert not out.exists()

    def test_adjust_retrain_reads_the_dataset_once(self, trained_driving, tmp_path, monkeypatch):
        root, data, config, ckpt = trained_driving
        reads = []
        load = dataio.load_dataset
        monkeypatch.setattr(dataio, "load_dataset", lambda path, *a: reads.append(path) or load(path, *a))
        out = tmp_path / "adj.json"
        code = main([
            "adjust", "--ckpt", str(ckpt), "--conjoin", "G[0,57](veg <= 6)", "--retrain",
            "--rollouts", "2", "--out", str(out),
        ])
        assert code == EXIT_OK
        assert reads == [str(ckpt.parent / "dataset.jsonl")]
        assert len((tmp_path / "rollouts_adjusted.csv").read_text().strip().split("\n")) == 2 + 2 * 58


class TestOwnDatasetDigest:
    def test_edited_dataset_is_data_error_naming_both_digests(self, trained_driving, tmp_path, capsys):
        """Without --data, extract, rollout and adjust check the checkpoint's
        own dataset against its dataset_digest; a --data file is taken as given."""
        doc = json.loads(trained_driving[3].read_text())
        text = bytearray((trained_driving[3].parent / doc["extra"]["dataset_path"]).read_bytes())
        # one digit of a lead-car value, so the file keeps its length
        at = text.index(b'"env_states": [[') + len(b'"env_states": [[')
        at += 1 if text[at : at + 1] == b"-" else 0
        text[at : at + 1] = b"1" if text[at : at + 1] != b"1" else b"2"
        data = tmp_path / "dataset.jsonl"
        data.write_bytes(bytes(text))
        doc["extra"]["dataset_path"] = str(data)
        ckpt = tmp_path / "ckpt.json"
        ckpt.write_text(json.dumps(doc))
        digest = hashlib.sha256(bytes(text)).hexdigest()[:16]
        out = tmp_path / "out"
        commands = (
            ["extract", "--ckpt", str(ckpt), "--out", str(out / "f.txt")],
            ["rollout", "--ckpt", str(ckpt), "--n", "2", "--out", str(out / "r.csv")],
            ["adjust", "--ckpt", str(ckpt), "--conjoin", "G[0,57](veg <= 6)", "--rollouts", "2",
             "--out", str(out / "adj.json")],
        )
        for argv in commands:
            assert main(argv) == EXIT_DATA, argv[0]
            err = capsys.readouterr().err
            assert f"{data}: digest {digest} is not the dataset_digest {doc['dataset_digest']}" in err, argv[0]
        assert not out.exists()
        for argv in commands:
            assert main(argv + ["--data", str(data)]) == EXIT_OK, argv[0]

    def test_sidecar_hit_opens_the_dataset_once_and_hashes_nothing(self, trained_driving, tmp_path, monkeypatch):
        """The digest checked is that of the one read of the dataset, which a
        sidecar hit gives without hashing the file."""
        ckpt = trained_driving[3]
        data = str(ckpt.parent / json.loads(ckpt.read_text())["extra"]["dataset_path"])
        dataio.load_dataset(data)  # leaves its sidecar
        opened, hashed = [], []
        real_open, real_sha256 = open, hashlib.sha256
        monkeypatch.setattr("builtins.open", lambda file, *a, **kw: opened.append(file) or real_open(file, *a, **kw))
        monkeypatch.setattr(hashlib, "sha256", lambda *a: hashed.append(a) or real_sha256(*a))
        for argv in own_dataset_commands(ckpt, tmp_path / "out"):
            opened.clear()
            assert main(argv) == EXIT_OK, argv[0]
            assert opened.count(data) == 1 and not hashed, argv[0]

    @pytest.mark.parametrize("blanks", [1, 2])
    def test_blank_lines_after_the_rows_are_not_read(self, trained_driving, tmp_path, blanks):
        """Blank lines appended to the checkpoint's own dataset change no
        output, whether the dataset is parsed or read from its sidecar."""
        run = tmp_path / "run"
        shutil.copytree(trained_driving[3].parent, run)
        (run / ".dataset.jsonl.npz").unlink(missing_ok=True)
        outs = [tmp_path / name for name in ("before", "parsed", "sidecar")]
        for out in outs:
            if out.name == "parsed":
                with open(run / "dataset.jsonl", "ab") as fh:
                    fh.write(b"\n" * blanks)
                (run / ".dataset.jsonl.npz").unlink()
            with pytest.MonkeyPatch.context() as mp:
                if out.name == "sidecar":
                    mp.setattr(dataio, "_parse_lines", lambda *a: pytest.fail("parsed where the sidecar was due"))
                for argv in own_dataset_commands(run / "ckpt.json", out):
                    assert main(argv) == EXIT_OK, (out.name, argv[0])
            assert (run / ".dataset.jsonl.npz").exists()
        for name in ("f.txt", "r.csv", "rollouts_adjusted.csv"):
            assert len({(out / name).read_bytes() for out in outs}) == 1, name

    def test_blank_line_among_the_rows_is_data_error_naming_both_digests(self, trained_driving, tmp_path, capsys):
        run = tmp_path / "run"
        shutil.copytree(trained_driving[3].parent, run)
        lines = (run / "dataset.jsonl").read_bytes().splitlines(keepends=True)
        lines.insert(1, b"\n")
        (run / "dataset.jsonl").write_bytes(b"".join(lines))
        ck = dataio.load_checkpoint(str(run / "ckpt.json"))
        digest = hashlib.sha256(b"".join(lines[: ck.extra["dataset_rows"]])).hexdigest()[:16]
        out = tmp_path / "out"
        for _ in range(2):  # a parse, then a sidecar hit
            for argv in own_dataset_commands(run / "ckpt.json", out):
                assert main(argv) == EXIT_DATA, argv[0]
                want = f"{run / 'dataset.jsonl'}: digest {digest} is not the dataset_digest {ck.dataset_digest}"
                assert want in capsys.readouterr().err, argv[0]
        assert not out.exists()

    def test_malformed_dataset_is_data_error_naming_its_line(self, trained_driving, tmp_path, capsys):
        doc = json.loads(trained_driving[3].read_text())
        lines = (trained_driving[3].parent / doc["extra"]["dataset_path"]).read_bytes().splitlines(keepends=True)
        data = tmp_path / "dataset.jsonl"
        data.write_bytes(lines[0] + b"{not json\n" + b"".join(lines[2:]))
        doc["extra"]["dataset_path"] = str(data)
        ckpt = tmp_path / "ckpt.json"
        ckpt.write_text(json.dumps(doc))
        out = tmp_path / "out"
        for argv in own_dataset_commands(ckpt, out):
            assert main(argv) == EXIT_DATA, argv[0]
            assert f"{data}:2: " in capsys.readouterr().err, argv[0]
        assert not out.exists()

    @pytest.mark.parametrize(
        "key, value",
        [
            pytest.param("augmented_dataset", True, id="True"),
            pytest.param("augmented_dataset", 2, id="2"),
            pytest.param("dataset_path", True, id="path-True"),
            pytest.param("dataset_path", 2, id="path-2"),
            pytest.param("dataset_rows", True, id="rows-True"),
            pytest.param("dataset_rows", -1, id="rows-negative"),
            pytest.param("dataset_rows", 2.0, id="rows-float"),
            pytest.param("dataset_rows", "2", id="rows-string"),
        ],
    )
    def test_dataset_name_that_is_not_a_string_is_data_error(self, trained_driving, tmp_path, capsys, key, value):
        """A number or true is not read as a file descriptor, and a row count
        is a non-negative integer, not true."""
        doc = json.loads(trained_driving[3].read_text())
        doc["extra"][key] = value
        ckpt = tmp_path / "ckpt.json"
        ckpt.write_text(json.dumps(doc))
        what = "a non-negative integer" if key == "dataset_rows" else "a file name"
        out = tmp_path / "out"
        for argv in own_dataset_commands(ckpt, out):
            assert main(argv) == EXIT_DATA, argv[0]
            assert f"{ckpt}: extra.{key} must be {what}, got {value!r}" in capsys.readouterr().err, argv[0]
        assert not out.exists()

    def test_rows_past_the_file_are_data_error_naming_both_counts(self, trained_driving, tmp_path, capsys):
        doc = json.loads(trained_driving[3].read_text())
        data = trained_driving[3].parent / doc["extra"]["dataset_path"]
        doc["extra"]["dataset_path"] = str(data)
        doc["extra"]["dataset_rows"] = n = len(data.read_bytes().splitlines()) + 1
        ckpt = tmp_path / "ckpt.json"
        ckpt.write_text(json.dumps(doc))
        out = tmp_path / "out"
        for argv in own_dataset_commands(ckpt, out):
            assert main(argv) == EXIT_DATA, argv[0]
            assert f"{data}: {n} rows asked for, but the file holds {n - 1}" in capsys.readouterr().err, argv[0]
        assert not out.exists()


@pytest.fixture(scope="module")
def moved_run(tmp_path_factory):
    """A tiny driving run and a checkpoint that `adjust` wrote beside it,
    after their common directory was renamed."""
    root = tmp_path_factory.mktemp("clirelative")
    data, config = root / "first" / "expert.jsonl", root / "config.json"
    config.write_text(json.dumps(TINY_DRIVING))
    assert main(["gen-data", "--env", "driving", "--n", "8", "--seed", "2", "--out", str(data)]) == EXIT_OK
    assert main(["train", "--data", str(data), "--config", str(config), "--out", str(data.parent / "run" / "ckpt.json")]) == EXIT_OK
    argv = ["adjust", "--ckpt", str(data.parent / "run" / "ckpt.json"), "--conjoin", "G[0,57](veg <= 6)", "--rollouts", "2"]
    assert main(argv + ["--out", str(data.parent / "adj" / "ckpt.json")]) == EXIT_OK
    (root / "first").rename(root / "moved")
    return root / "moved"


class TestMovedRun:
    """A checkpoint names its dataset relative to its own directory, so a
    moved run directory still finds it."""

    def test_driving_rollout_reads_the_moved_dataset(self, moved_run, tmp_path):
        out = tmp_path / "r.csv"
        assert main(["rollout", "--ckpt", str(moved_run / "run" / "ckpt.json"), "--n", "2", "--out", str(out)]) == EXIT_OK
        assert len(out.read_text().strip().split("\n")) == 2 + 2 * 58

    def test_adjusted_checkpoint_names_its_moved_source(self, moved_run):
        adjusted = moved_run / "adj" / "ckpt.json"
        source = adjusted.parent / dataio.load_checkpoint(str(adjusted)).extra["adjusted_from"]
        assert source.resolve() == (moved_run / "run" / "ckpt.json").resolve()

    def test_boundary_snapshots_name_the_moved_run_dataset(self, moved_run):
        for path in sorted((moved_run / "run").glob("ckpt_iter*.json")):
            ck = dataio.load_checkpoint(str(path))
            lines = (path.parent / ck.extra["dataset_path"]).read_bytes().splitlines(keepends=True)
            assert ck.dataset_digest == hashlib.sha256(b"".join(lines[: ck.extra["dataset_rows"]])).hexdigest()[:16]

    @pytest.mark.parametrize("ckpt", ["run", "adj"])
    def test_extract_simplifies_on_the_moved_dataset(self, moved_run, tmp_path, caplog, ckpt):
        """The trained checkpoint, and the one `adjust` wrote into another
        directory, extract what they extract given the dataset as --data."""
        argv = ["extract", "--ckpt", str(moved_run / ckpt / "ckpt.json")]
        assert main(argv + ["--out", str(tmp_path / "own.txt")]) == EXIT_OK
        assert "no dataset available" not in caplog.text
        data = str(moved_run / "run" / "dataset.jsonl")
        assert main(argv + ["--data", data, "--out", str(tmp_path / "given.txt")]) == EXIT_OK
        assert (tmp_path / "own.txt").read_bytes() == (tmp_path / "given.txt").read_bytes()


@pytest.fixture(scope="module")
def saturated_driving(tmp_path_factory):
    """A tiny driving run whose second round saturates, so its final
    checkpoint names the first rows of its run dataset, and the file of
    just those rows."""
    root = tmp_path_factory.mktemp("clisaturated")
    data, config, ckpt = root / "expert.jsonl", root / "config.json", root / "run" / "ckpt.json"
    config.write_text(json.dumps({**TINY_DRIVING, "gan": {**TINY_DRIVING["gan"], "max_iterations": 3, "stop_mcr": -1.0}}))
    assert main(["gen-data", "--env", "driving", "--n", "8", "--seed", "2", "--out", str(data)]) == EXIT_OK
    assert main(["train", "--data", str(data), "--config", str(config), "--out", str(ckpt)]) == EXIT_OK
    rows = dataio.load_checkpoint(str(ckpt)).extra["dataset_rows"]
    head = root / "head.jsonl"
    head.write_bytes(b"".join((ckpt.parent / "dataset.jsonl").read_bytes().splitlines(keepends=True)[:rows]))
    return ckpt, head


class TestSaturatedRun:
    """A saturated run adopts a round before its last snapshot: the final
    checkpoint names the run dataset's first rows, and reads them alone."""

    def test_final_checkpoint_names_the_adopted_rounds_rows(self, saturated_driving):
        ckpt, head = saturated_driving
        final = dataio.load_checkpoint(str(ckpt))
        assert final.extra["saturated"] and final.gan_iteration == 1
        snapshot = dataio.load_checkpoint(str(ckpt.parent / "ckpt_iter1.json"))
        assert final.extra["dataset_rows"] == snapshot.extra["dataset_rows"] == 8
        assert final.dataset_digest == snapshot.dataset_digest == hashlib.sha256(head.read_bytes()).hexdigest()[:16]
        assert len((ckpt.parent / "dataset.jsonl").read_bytes().splitlines()) == 12

    def test_commands_read_the_rows_as_given_them(self, saturated_driving, tmp_path, caplog):
        """extract, rollout and adjust write what they write given those
        rows as --data, from a parse of the run dataset, from its sidecar,
        and after a valid row is appended to it."""
        ckpt, head = saturated_driving
        run = tmp_path / "run"
        shutil.copytree(ckpt.parent, run)
        (run / ".dataset.jsonl.npz").unlink(missing_ok=True)
        outs = [tmp_path / name for name in ("given", "parsed", "sidecar", "appended")]
        for out in outs:
            if out.name == "appended":
                with open(run / "dataset.jsonl", "ab") as fh:
                    fh.write((run / "dataset.jsonl").read_bytes().splitlines(keepends=True)[-1])
            given = ["--data", str(head)] if out.name == "given" else []
            with pytest.MonkeyPatch.context() as mp:
                if out.name == "sidecar":
                    mp.setattr(dataio, "_parse_lines", lambda *a: pytest.fail("parsed where the sidecar was due"))
                for argv in own_dataset_commands(run / "ckpt.json", out):
                    assert main(argv + given) == EXIT_OK, (out.name, argv[0])
            assert (run / ".dataset.jsonl.npz").exists() == (out.name != "given")
        assert "no dataset available" not in caplog.text
        for name in ("f.txt", "r.csv", "rollouts_adjusted.csv"):
            assert len({(out / name).read_bytes() for out in outs}) == 1, name

    def test_edited_leading_row_is_data_error_naming_both_digests(self, saturated_driving, tmp_path, capsys):
        ckpt, head = saturated_driving
        run = tmp_path / "run"
        shutil.copytree(ckpt.parent, run)
        lines = (run / "dataset.jsonl").read_bytes().splitlines(keepends=True)
        lines[0] = lines[0].replace(b'"id": "', b'"id": "x', 1)
        (run / "dataset.jsonl").write_bytes(b"".join(lines))
        digest = hashlib.sha256(b"".join(lines[:8])).hexdigest()[:16]
        want = dataio.load_checkpoint(str(ckpt)).dataset_digest
        out = tmp_path / "out"
        for argv in own_dataset_commands(run / "ckpt.json", out):
            assert main(argv) == EXIT_DATA, argv[0]
            assert f"{run / 'dataset.jsonl'}: digest {digest} is not the dataset_digest {want}" in capsys.readouterr().err
        assert not out.exists()


# the `env` record that older checkpoints hold: the environment's constants
OLD_ENV_RECORDS = {
    "unicycle": {
        "name": "unicycle", "T": 20,
        "regions": {"RegA": [1.0, 9.0, 1.0], "RegB": [7.0, 2.0, 0.86], "RegC": [9.0, 9.0, 0.7], "Obs": [5.0, 8.0, 1.0]},
        "control_box": [[0.0, -0.7853981633974483], [1.0, 0.7853981633974483]],
        "init_box": [[0.5, 0.5, 0.0], [2.0, 2.0, 1.5707963267948966]],
    },
    "driving": {
        "name": "driving", "T": 57, "cruise": 5.0, "accel": 0.5, "decel_onset": 35, "gap": [6.0, 10.0],
        "init_pos": [0.0, 5.0], "control_box": [[-3.0], [3.0]],
    },
}


class TestOlderCheckpoints:
    @pytest.mark.parametrize("env_name, rule", [("unicycle", "G[0,20](dO >= 1.0)"), ("driving", "G[0,57](veg <= 6)")])
    def test_full_env_record_and_warm_start_run_to_the_same_bytes(
        self, trained, trained_driving, tmp_path, env_name, rule
    ):
        """A checkpoint whose `env` lists the environment's constants and
        whose extra holds a `warm_start` still loads: extract, rollout and
        adjust --retrain write what they write from the checkpoint as it is."""
        root, data, config, ckpt = {"unicycle": trained, "driving": trained_driving}[env_name]
        run = tmp_path / "run"
        shutil.copytree(ckpt.parent, run)
        doc = json.loads(ckpt.read_text())
        doc["env"] = OLD_ENV_RECORDS[env_name]
        doc["extra"]["warm_start"] = [0.25] * 5
        (run / "old.json").write_text(json.dumps(doc))
        new, old = tmp_path / "new", tmp_path / "old"
        for out, name in ((new, "ckpt.json"), (old, "old.json")):
            for argv in (
                ["extract", "--ckpt", str(run / name), "--out", str(out / "f.txt")],
                ["rollout", "--ckpt", str(run / name), "--n", "3", "--out", str(out / "r.csv")],
                ["adjust", "--ckpt", str(run / name), "--conjoin", rule, "--retrain", "--rollouts", "2",
                 "--out", str(out / "adj.json")],
            ):
                assert main(argv) == EXIT_OK, argv
        for name in ("f.txt", "r.csv", "rollouts_adjusted.csv"):
            assert (new / name).read_bytes() == (old / name).read_bytes(), name
        adjusted = [json.loads((d / "adj.json").read_text()) for d in (new, old)]
        for ck in adjusted:
            del ck["env"], ck["extra"]["adjusted_from"]
        assert adjusted[1]["extra"].pop("warm_start") == [0.25] * 5
        assert adjusted[0] == adjusted[1]


    @pytest.mark.parametrize("env_name, rule", [("unicycle", "G[0,20](dO >= 1.0)"), ("driving", "G[0,57](veg <= 6)")])
    def test_augmented_dataset_is_read_as_before(
        self, trained, trained_driving, tmp_path, env_name, rule, capsys, caplog
    ):
        """A final checkpoint of the older form names a file of its own,
        `augmented_dataset`, and no row count, with the digest of the whole
        file: extract, rollout and adjust write what they write from the new
        form, an edited copy is a data error naming both digests, and adjust
        writes the new form."""
        root, data, config, ckpt = {"unicycle": trained, "driving": trained_driving}[env_name]
        run = tmp_path / "run"
        shutil.copytree(ckpt.parent, run)
        doc = json.loads(ckpt.read_text())
        rows = doc["extra"].pop("dataset_rows")
        doc["extra"]["augmented_dataset"] = doc["extra"].pop("dataset_path").replace("dataset", "dataset_augmented")
        old_data = run / "dataset_augmented.jsonl"
        old_data.write_bytes(b"".join((run / "dataset.jsonl").read_bytes().splitlines(keepends=True)[:rows]))
        (run / "old.json").write_text(json.dumps(doc))
        new, old = tmp_path / "new", tmp_path / "old"
        for out, name in ((new, "ckpt.json"), (old, "old.json")):
            for argv in (
                ["extract", "--ckpt", str(run / name), "--out", str(out / "f.txt")],
                ["rollout", "--ckpt", str(run / name), "--n", "3", "--out", str(out / "r.csv")],
                ["adjust", "--ckpt", str(run / name), "--conjoin", rule, "--retrain", "--rollouts", "2",
                 "--out", str(out / "adj.json")],
            ):
                assert main(argv) == EXIT_OK, argv
        for name in ("f.txt", "r.csv", "rollouts_adjusted.csv"):
            assert (new / name).read_bytes() == (old / name).read_bytes(), name
        # adjust names the dataset file in the new form, and its row count where the source had one
        adjusted = [dataio.load_checkpoint(str(d / "adj.json")).extra for d in (new, old)]
        named = [(d / a["dataset_path"]).resolve() for d, a in zip((new, old), adjusted)]
        assert named == [(run / "dataset.jsonl").resolve(), old_data.resolve()]
        assert adjusted[0]["dataset_rows"] == rows and "dataset_rows" not in adjusted[1]
        assert not any("augmented_dataset" in a for a in adjusted)
        for d in (new, old):
            assert main(["extract", "--ckpt", str(d / "adj.json"), "--out", str(d / "adj_f.txt")]) == EXIT_OK
        assert (new / "adj_f.txt").read_bytes() == (old / "adj_f.txt").read_bytes()
        assert "no dataset available" not in caplog.text
        # one digit of the first state value, so the file keeps its length
        text = bytearray(old_data.read_bytes())
        at = text.index(b'"agent_states": [[') + len(b'"agent_states": [[')
        at += 1 if text[at : at + 1] == b"-" else 0
        text[at : at + 1] = b"1" if text[at : at + 1] != b"1" else b"2"
        old_data.write_bytes(bytes(text))
        digest = hashlib.sha256(bytes(text)).hexdigest()[:16]
        assert main(["extract", "--ckpt", str(run / "old.json"), "--out", str(tmp_path / "edited.txt")]) == EXIT_DATA
        assert f"{old_data}: digest {digest} is not the dataset_digest {doc['dataset_digest']}" in capsys.readouterr().err
        assert not (tmp_path / "edited.txt").exists()


def own_dataset_commands(ckpt, out):
    """extract, rollout and adjust on the driving checkpoint `ckpt`, without
    --data, writing under `out`."""
    return (
        ["extract", "--ckpt", str(ckpt), "--out", str(out / "f.txt")],
        ["rollout", "--ckpt", str(ckpt), "--n", "2", "--out", str(out / "r.csv")],
        ["adjust", "--ckpt", str(ckpt), "--conjoin", "G[0,57](veg <= 6)", "--rollouts", "2",
         "--out", str(out / "adj.json")],
    )


class TestBlasThreads:
    """The command line puts BLAS on one thread before numpy is imported,
    unless the environment sets the thread count itself."""

    VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    PROBE = "import os, sys, stlmimic.cli; print(' '.join(os.environ[v] for v in sys.argv[1:]))"

    def _threads(self, preset: dict) -> list[str]:
        env = {k: v for k, v in os.environ.items() if k not in self.VARS}
        res = subprocess.run(
            [sys.executable, "-c", self.PROBE, *self.VARS], env={**env, **preset}, capture_output=True, text=True
        )
        assert res.returncode == 0, res.stderr
        return res.stdout.split()

    def test_one_thread_by_default(self):
        assert self._threads({}) == ["1", "1", "1"]

    def test_a_preset_value_wins(self):
        assert self._threads({"OPENBLAS_NUM_THREADS": "2", "MKL_NUM_THREADS": "3"}) == ["2", "1", "3"]


class TestDefaults:
    def test_default_config_roundtrips(self):
        for env in ("unicycle", "driving"):
            doc = default_config(env)
            json.loads(json.dumps(doc))
            assert doc["shape"]["n_pred"] >= 1
