import configparser
import dataclasses
import json
import os
import re
import sys
from pathlib import Path

import numpy as np
import pytest

import crsail.harness
from crsail.cli import OUTPUT_ROOT_ENV, main
from crsail.envs import KINDS, PendulumParams, make_env
from crsail.exceptions import ConfigurationError, InsufficientDataError
from crsail.harness import (
    ExperimentConfig,
    _convert,
    _InProcess,
    emit_plot_data,
    format_summary_text,
    load_records,
    run,
    run_basename,
    run_single,
    summarize,
    write_summary_csv,
)
from crsail.policy import TrainConfig
from crsail.strategies import StrategyConfig
from crsail.trainer import Budget, RunRecord

MINIMAL = """\
[experiment]
env = pendulum
strategy = dagger
seeds = 0
m_values = 100
output_dir = {outdir}

[train]
bc_epochs = 5
update_epochs = 2

[budget]
max_steps = 250
"""


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text(MINIMAL.format(outdir=tmp_path / "runs"))
    return str(path)


def test_convert_inference():
    assert _convert("true") is True
    assert _convert("False") is False
    assert _convert("3") == 3 and isinstance(_convert("3"), int)
    assert _convert("0.5") == 0.5
    assert _convert(" brute ") == "brute"


def test_from_file_applies_defaults(config_path):
    config = ExperimentConfig.from_file(config_path)
    assert config.env == "pendulum"
    assert config.seeds == [0]
    assert config.m_values == [100]
    assert config.max_steps == 250
    assert config.max_queries is None
    assert config.eval_episodes == 20
    assert config.strategy_params["alpha"] == 0.93
    assert config.m_cal == 30


def test_from_file_rejects_unknown_keys(tmp_path, config_path):
    bad = tmp_path / "bad.ini"
    bad.write_text("[experiment]\nenv = pendulum\nstrategy = dagger\ntypo_key = 1\n")
    with pytest.raises(ConfigurationError):
        ExperimentConfig.from_file(bad)
    worse = tmp_path / "worse.ini"
    worse.write_text(MINIMAL.format(outdir=tmp_path) + "\n[plotting]\nstyle = dark\n")
    with pytest.raises(ConfigurationError):
        ExperimentConfig.from_file(worse)


def test_from_file_missing_path():
    with pytest.raises(ConfigurationError):
        ExperimentConfig.from_file("/nonexistent/exp.ini")


def test_set_overrides(config_path):
    config = ExperimentConfig.from_file(
        config_path, overrides=["experiment.seeds=1,2", "strategy.k=9", "budget.max_steps=50"]
    )
    assert config.seeds == [1, 2]
    assert config.strategy_params["k"] == 9
    assert config.max_steps == 50
    with pytest.raises(ConfigurationError):
        ExperimentConfig.from_file(config_path, overrides=["nodots"])


def test_overrides_strip_section_and_key_and_keep_values_literal(config_path):
    config = ExperimentConfig.from_file(
        config_path, overrides=[" conformal .m_cal=5", "experiment.output_dir=runs%1"])
    assert config.m_cal == 5
    assert config.output_dir == "runs%1"


@pytest.mark.parametrize("before, after, message", [
    ("seeds = 0\n", "",
     "File contains no section headers. file: '{path}', line: 1 'seeds = 0\\n'"),
    ("", "max_steps = 5\n",
     "While reading from '{path}' [line 14]: option 'max_steps' in section 'budget' "
     "already exists"),
    ("", "[budget]\n", "While reading from '{path}' [line 14]: section 'budget' already exists"),
    ("", "[DEFAULT]\nm_cal = 5\n", "unknown config section [DEFAULT]"),
], ids=["no-section-header", "duplicate-key", "duplicate-section", "default-section"])
def test_unreadable_config_file_is_one_line_and_exit_2(config_path, capsys, before, after,
                                                       message):
    with open(config_path) as fh:
        text = fh.read()
    with open(config_path, "w") as fh:
        fh.write(before + text + after)
    assert main(["run", config_path, "--print-config"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"crsail run: {message.format(path=config_path)}\n"


def test_config_file_is_read_as_utf8(config_path, capsys):
    with open(config_path, "a", encoding="utf-8") as fh:
        fh.write("\n[env]\n# r\u00e9glage\n")
    assert ExperimentConfig.from_file(config_path).env == "pendulum"
    with open(config_path, "ab") as fh:
        fh.write(b"# \xff\n")
    assert main(["run", config_path, "--print-config"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"crsail run: config file {config_path} is not UTF-8: ")
    assert captured.err.count("\n") == 1 and "byte 0xff" in captured.err


@pytest.mark.parametrize("override, message", [
    ("experiment.workers=two", "experiment.workers: expected an integer, got 'two'"),
    ("experiment.m_values=5.5", "experiment.m_values: expected integers, got [5.5]"),
    ("budget.max_steps=lots", "budget.max_steps: expected an integer, got 'lots'"),
    ("budget.max_steps=", "budget.max_steps: expected an integer, got ''"),
    ("strategy.k=x", "strategy.k: expected an integer, got 'x'"),
    ("strategy.rate=high", "strategy.rate: expected a number, got 'high'"),
    ("train.batch_size=big", "train.batch_size: expected an integer, got 'big'"),
    ("train.learning_rate=fast", "train.learning_rate: expected a number, got 'fast'"),
    ("train.retrain_from_scratch=maybe",
     "train.retrain_from_scratch: expected true or false, got 'maybe'"),
    ("train.bc_epochs=2.5", "train.bc_epochs: expected an integer, got 2.5"),
    ("strategy.backend=1", "strategy.backend: expected a string, got 1"),
])
def test_non_integer_value_names_section_and_key(config_path, override, message):
    with pytest.raises(ConfigurationError) as err:
        ExperimentConfig.from_file(config_path, overrides=[override])
    assert str(err.value) == message


def test_valid_strategy_and_train_values_load_as_written(config_path):
    config = ExperimentConfig.from_file(config_path, overrides=[
        "strategy.tau=1", "strategy.rate=0.25", "strategy.backend=kdtree",
        "train.retrain_from_scratch=True", "train.learning_rate=1e-3",
        "experiment.output_dir=2024"])
    assert config.output_dir == "2024"  # a string field's text stays a string
    assert config.strategy_params["tau"] == 1 and type(config.strategy_params["tau"]) is int
    assert config.strategy_params["rate"] == 0.25
    assert config.strategy_params["backend"] == "kdtree"
    assert config.train_params["retrain_from_scratch"] is True
    assert config.train_params["learning_rate"] == 1e-3


@pytest.mark.parametrize("override, message", [
    ("experiment.env=foo",
     "experiment.env must be one of pendulum, pusher, double_integrator, got 'foo'"),
    ("env.bogus=1", "unknown config key env.bogus"),
    ("env.kind=pusher", "unknown config key env.kind"),
    ("env.dt=-1", "env.dt must be > 0, got -1"),
    ("env.dt=fast", "env.dt: expected a number, got 'fast'"),
    ("env.t_max=1.5", "env.t_max: expected an integer, got 1.5"),
])
def test_env_checked_at_load(config_path, override, message):
    with pytest.raises(ConfigurationError) as err:
        ExperimentConfig.from_file(config_path, overrides=[override])
    assert str(err.value) == message


@pytest.mark.parametrize("override", ["experiment.env=foo", "env.bogus=1", "env.dt=-1",
                                      "env.dt=fast", "strategy.rate=high",
                                      "train.retrain_from_scratch=maybe"])
def test_cli_run_rejects_bad_env_and_typed_values_before_any_run(config_path, capsys, override):
    assert main(["run", config_path, "--set", override]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith("crsail run: ")
    config = ExperimentConfig.from_file(config_path)
    assert not os.path.exists(config.output_dir)


@pytest.mark.parametrize("key, value, message", [
    ("speed", 1.0, "unknown config key env.speed"),
    ("dt", "fast", "env.dt: expected a number, got 'fast'"),
])
def test_make_env_config_and_cli_name_a_bad_env_param_alike(config_path, capsys, key, value,
                                                            message):
    with pytest.raises(ConfigurationError) as err:
        make_env("pendulum", **{key: value})
    assert str(err.value) == message
    with pytest.raises(ConfigurationError) as err:
        ExperimentConfig(env="pendulum", strategy="dagger", env_overrides={key: value})
    assert str(err.value) == message
    assert main(["run", config_path, "--set", f"env.{key}={value}"]) == 2
    assert capsys.readouterr().err == f"crsail run: {message}\n"


@pytest.mark.parametrize("override, message", [
    ("train.learning_rate=nan", "train.learning_rate must be finite, got nan"),
    ("train.init_scale=nan", "train.init_scale must be finite, got nan"),
    ("strategy.tau=nan", "strategy.tau must be finite, got nan"),
    ("strategy.tau_doubt=inf", "strategy.tau_doubt must be finite, got inf"),
    ("env.dt=nan", "env.dt must be finite, got nan"),
])
def test_cli_run_rejects_non_finite_values(config_path, capsys, override, message):
    assert main(["run", config_path, "--set", override]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"crsail run: {message}\n"
    assert not os.path.exists(ExperimentConfig.from_file(config_path).output_dir)


def test_strategy_k_checked_at_load(config_path):
    for strategy in ("crsail", "dagger"):
        with pytest.raises(ConfigurationError, match="k must be >= 1"):
            ExperimentConfig.from_file(
                config_path, overrides=[f"experiment.strategy={strategy}", "strategy.k=0"])


def _never(*args, **kwargs):
    raise AssertionError("ran past the K check")


@pytest.mark.parametrize("strategy", ["crsail", "fixed-threshold"])
def test_k_beyond_the_initial_dataset_fails_before_cloning(config_path, monkeypatch, strategy):
    # M=3 collects one whole 200-step pendulum episode, fewer pairs than K=500
    for name in ("evaluate_policy", "behavioral_cloning", "calibrate_radius"):
        monkeypatch.setattr(crsail.harness, name, _never)
    config = ExperimentConfig.from_file(config_path, overrides=[
        f"experiment.strategy={strategy}", "strategy.k=500", "experiment.m_values=3"])
    with pytest.raises(InsufficientDataError,
                       match=r"^strategy.k=500 exceeds the 200 pairs of the initial dataset"):
        run_single(config, 3, 0)


@pytest.mark.parametrize("command, subdir, label", [
    (["run", "--set", "strategy.k=500"], [], ""),
    (["sweep", "--K", "500"], ["k_500"], "[k=500] "),
])
def test_cli_reports_a_failed_run_and_exits_1(config_path, capsys, monkeypatch, command, subdir,
                                              label):
    monkeypatch.setattr(crsail.harness, "evaluate_policy", _never)
    argv = [command[0], config_path, *command[1:], "--set", "experiment.strategy=crsail",
            "--set", "experiment.m_values=3"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    outdir = os.path.join(ExperimentConfig.from_file(config_path).output_dir, *subdir)
    assert captured.out == f"completed 0 run(s) -> {outdir}\n"
    assert captured.err.startswith(f"FAILED {label}M=3 seed=0: strategy.k=500 exceeds the 200 "
                                   "pairs of the initial dataset (M=3)\nTraceback")
    assert captured.err.count("FAILED") == 1


@pytest.mark.parametrize("override", ["experiment.eval_episodes=0", "conformal.m_cal=0"])
def test_episode_counts_checked_at_load(config_path, override):
    with pytest.raises(ConfigurationError, match="must be >= 1"):
        ExperimentConfig.from_file(config_path, overrides=[override])


@pytest.mark.parametrize("override, message", [
    ("experiment.seeds=-1", "experiment.seeds must be >= 0, got -1"),
    ("experiment.seeds=", "seeds must not be empty"),
    ("experiment.m_values=100,0", "experiment.m_values must be >= 1, got 0"),
    ("experiment.m_values=", "m_values must not be empty"),
    ("experiment.seeds=3,3", "seeds lists 3 more than once"),
    ("experiment.m_values=100,50,100", "m_values lists 100 more than once"),
    ("strategy.alpha=1.5", "strategy.alpha must lie in (0, 1), got 1.5"),
    ("strategy.alpha=0", "strategy.alpha must lie in (0, 1), got 0"),
    ("strategy.backend=bogus", "strategy.backend must be one of brute, kdtree, got 'bogus'"),
    ("strategy.tau_doubt=-1", "strategy.tau_doubt must be >= 0, got -1"),
    ("budget.max_steps=0", "budget.max_steps must be >= 1, got 0"),
    ("budget.max_steps=-5", "budget.max_steps must be >= 1, got -5"),
    ("budget.max_queries=0", "budget.max_queries must be >= 1, got 0"),
    ("experiment.workers=0", "experiment.workers must be >= 1, got 0"),
    ("experiment.workers=-2", "experiment.workers must be >= 1, got -2"),
])
def test_grid_checked_at_load(config_path, override, message):
    with pytest.raises(ConfigurationError) as err:
        ExperimentConfig.from_file(config_path, overrides=[override])
    assert str(err.value) == message


@pytest.mark.parametrize("command", [["run"], ["sweep", "--K", "3", "--set",
                                               "experiment.strategy=fixed-threshold"]])
@pytest.mark.parametrize("override", ["experiment.workers=two", "strategy.k=0",
                                      "experiment.seeds=-1", "experiment.m_values=",
                                      "strategy.alpha=1.5", "strategy.backend=bogus",
                                      "strategy.tau_doubt=-1", "budget.max_steps=0",
                                      "budget.max_queries=0", "budget.max_steps=",
                                      "experiment.seeds=3,3",
                                      "conformal.recalibrate_every=2",
                                      "experiment.workers=0", "experiment.workers=-2",
                                      "DEFAULT.x=1", ".x=1"])
def test_cli_config_error_is_one_line_and_exit_2(config_path, capsys, command, override):
    argv = [command[0], config_path, *command[1:], "--set", override, "--print-config"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"crsail {command[0]}: ")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


def test_cli_kdtree_without_scipy_is_one_line_and_exit_2(config_path, capsys, monkeypatch):
    monkeypatch.setitem(sys.modules, "scipy", None)  # as if scipy were not installed
    assert main(["run", config_path, "--set", "strategy.backend=kdtree"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("crsail run: backend 'kdtree' needs scipy")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    assert not os.path.exists(ExperimentConfig.from_file(config_path).output_dir)


def test_invalid_strategy_fails_fast(config_path):
    with pytest.raises(ConfigurationError):
        ExperimentConfig.from_file(config_path, overrides=["experiment.strategy=oracle"])


def test_resolved_text_is_reparseable(config_path):
    config = ExperimentConfig.from_file(config_path)
    parser = configparser.ConfigParser()
    parser.read_string(config.resolved_text())
    again = ExperimentConfig.from_parser(parser)
    assert again.seeds == config.seeds
    assert again.max_steps == config.max_steps
    assert again.strategy_params == config.strategy_params


def test_run_grid_persists_records(config_path, tmp_path):
    config = ExperimentConfig.from_file(config_path)
    records, failures = run(config)
    assert failures == []
    assert len(records) == 1
    base = os.path.join(config.output_dir, run_basename("dagger", 100, 0))
    assert os.path.exists(base + ".json")
    assert os.path.exists(base + ".csv")
    loaded = load_records(config.output_dir)
    assert len(loaded) == 1
    assert loaded[0].to_dict() == records[0].to_dict()
    assert loaded[0].config["m"] == 100
    assert loaded[0].config["strategy"] == "dagger"


def test_summarize_and_plot_data(config_path, tmp_path):
    config = ExperimentConfig.from_file(config_path)
    records, _ = run(config)
    rows = summarize(records)
    assert len(rows) == 1
    row = rows[0]
    assert row["method"] == "dagger" and row["m"] == 100 and row["runs"] == 1
    assert 0.0 <= row["convergence_pct"] <= 100.0
    assert row["total_queries_mean"] == records[0].summary["total_queries"]
    assert row["total_queries_std"] == 0.0

    csv_path = tmp_path / "summary.csv"
    write_summary_csv(rows, csv_path)
    header = csv_path.read_text().splitlines()[0]
    assert header.startswith("method,m,runs,convergence_pct")
    text = format_summary_text(rows)
    assert "dagger" in text

    plotdir = tmp_path / "plots"
    written = emit_plot_data(records, plotdir)
    names = {os.path.basename(p) for p in written}
    assert names == {
        "reward_vs_queries_dagger_M100.csv",
        "queries_vs_steps_dagger_M100.csv",
        "queries_per_episode_vs_length_dagger_M100.csv",
    }
    for path in written:
        lines = open(path).read().splitlines()
        assert len(lines) >= 2  # header plus at least one row


def test_summarize_empty_rejected():
    with pytest.raises(ConfigurationError):
        summarize([])


@pytest.mark.parametrize("other, difference", [
    ({"seed": 1}, None),
    ({"alpha": 0.93}, None),  # a key only an old record holds
    ({"eval_episodes": 5}, "eval_episodes: 20 vs 5"),
    ({"strategy_params": {"alpha": 0.5, "k": 5}}, "strategy_params.alpha: 0.93 vs 0.5"),
    ({"env_overrides": {"dt": 0.1}}, "env_overrides.dt: None vs 0.1"),
], ids=["seed", "removed-key", "top-level", "strategy", "env-override"])
def test_summary_rows_hold_runs_that_differ_only_in_seed(other, difference):
    config = {"env": "pendulum", "strategy": "crsail", "eval_episodes": 20,
              "env_overrides": {}, "strategy_params": {"alpha": 0.93, "k": 5},
              "m": 200, "seed": 0}
    records = [RunRecord(config=config), RunRecord(config={**config, **other})]
    if difference is None:
        assert [row["runs"] for row in summarize(records)] == [2]
        return
    for read in (summarize, lambda recs: emit_plot_data(recs, "unused")):
        with pytest.raises(ConfigurationError) as err:
            read(records)
        assert str(err.value) == (f"runs of crsail M=200 differ in {difference}; "
                                  "read each value's directory on its own")


def test_cli_print_config(config_path, capsys):
    assert main(["run", config_path, "--print-config"]) == 0
    out = capsys.readouterr().out
    assert "[experiment]" in out and "strategy = dagger" in out


def test_cli_run_summarize_plotdata(config_path, capsys):
    assert main(["run", config_path]) == 0
    outdir = ExperimentConfig.from_file(config_path).output_dir
    capsys.readouterr()

    assert main(["summarize", outdir]) == 0
    out = capsys.readouterr().out
    assert "dagger" in out
    assert os.path.exists(os.path.join(outdir, "summary.csv"))

    assert main(["plotdata", outdir]) == 0
    out = capsys.readouterr().out
    assert "reward_vs_queries_dagger_M100.csv" in out
    assert os.path.isdir(os.path.join(outdir, "plotdata"))


@pytest.mark.parametrize("axes, message", [
    ([], "one of the arguments --alpha --K is required"),
    (["--alpha", "0.5", "--K", "3"], "argument --K: not allowed with argument --alpha"),
    (["--K", "3", "--M", "50"], "unrecognized arguments: --M 50"),  # M is the grid's axis
], ids=["neither", "both", "M"])
def test_cli_sweep_requires_one_axis(config_path, capsys, axes, message):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", config_path, *axes])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.endswith(f"error: {message}\n")
    assert not os.path.exists(ExperimentConfig.from_file(config_path).output_dir)


def test_cli_sweep_runs_each_value_into_its_subdirectory(config_path, capsys):
    fixed = ["--set", "experiment.strategy=fixed-threshold"]
    assert main(["sweep", config_path, "--K", "3,5", *fixed]) == 0
    outdir = ExperimentConfig.from_file(config_path).output_dir
    for k in (3, 5):
        assert os.path.exists(os.path.join(outdir, f"k_{k}",
                                           run_basename("fixed-threshold", 100, 0) + ".json"))
    capsys.readouterr()
    # the parent directory holds both values' runs, which share no (method, M) row
    for command in ("summarize", "plotdata"):
        assert main([command, outdir]) == 2
        assert capsys.readouterr().err == (
            f"crsail {command}: runs of fixed-threshold M=100 differ in strategy_params.k: "
            "3 vs 5; read each value's directory on its own\n")
    for k in (3, 5):  # each value's directory is one row of one run
        assert main(["summarize", os.path.join(outdir, f"k_{k}")]) == 0
        rows = capsys.readouterr().out.splitlines()[2:]
        assert [row.split()[:3] for row in rows] == [["fixed-threshold", "100", "1"]]


@pytest.mark.parametrize("axis, values, message", [
    ("--K", "3,x", "strategy.k: expected an integer, got 'x'"),
    ("--K", "3,2.0", "strategy.k: expected an integer, got 2.0"),
    ("--alpha", "0.5,high", "strategy.alpha: expected a number, got 'high'"),
    ("--alpha", "0.5,1.5", "strategy.alpha must lie in (0, 1), got 1.5"),
    ("--K", "3,5,3", "axis k lists 3 more than once"),
    ("--alpha", "0.5,0.50", "axis alpha lists 0.5 more than once"),
])
def test_cli_sweep_checks_every_value_before_running(config_path, capsys, axis, values,
                                                     message):
    crsail = ["--set", "experiment.strategy=crsail"]  # a strategy that reads every axis
    assert main(["sweep", config_path, axis, values, *crsail]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"crsail sweep: {message}\n"
    assert not os.path.exists(ExperimentConfig.from_file(config_path).output_dir)
    if message.startswith("strategy."):  # a bad value: `run --set` reads it the same way
        bad = f"strategy.{axis[2:].lower()}={values.split(',')[-1]}"
        assert main(["run", config_path, "--set", bad, *crsail]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"crsail run: {message}\n")


@pytest.mark.parametrize("strategy, axis", [
    ("dagger", "alpha"), ("random-rate", "alpha"), ("fixed-threshold", "alpha"),
    ("ensemble-variance", "alpha"), ("dagger", "K"), ("random-rate", "K"),
    ("ensemble-variance", "K"),
])
def test_cli_sweep_rejects_an_axis_the_strategy_never_reads(config_path, capsys, strategy,
                                                           axis):
    argv = ["sweep", config_path, f"--{axis}", "0.5,0.9" if axis == "alpha" else "3,5",
            "--set", f"experiment.strategy={strategy}"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    name = axis.lower()
    assert captured.out == ""
    assert captured.err == f"crsail sweep: axis {name}: strategy {strategy} does not read {name}\n"
    assert not os.path.exists(ExperimentConfig.from_file(config_path).output_dir)


@pytest.mark.parametrize("strategy", ["crsail", "fixed-threshold"])
def test_cli_sweep_k_on_novelty_strategies(config_path, capsys, strategy):
    argv = ["sweep", config_path, "--K", "3,5", "--print-config",
            "--set", f"experiment.strategy={strategy}"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "k = 3" in out and "k = 5" in out


def test_cli_sweep_alpha_print_config(config_path, capsys):
    assert main(["sweep", config_path, "--alpha", "0.5,0.9", "--print-config",
                 "--set", "experiment.strategy=crsail"]) == 0
    out = capsys.readouterr().out
    assert "alpha = 0.5" in out and "alpha = 0.9" in out


def test_output_root_env_var(tmp_path, monkeypatch, capsys):
    path = tmp_path / "rel.ini"
    path.write_text(MINIMAL.format(outdir="relative_runs"))
    monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path))
    assert main(["run", str(path)]) == 0
    assert os.path.isdir(tmp_path / "relative_runs")


def _reparse(config):
    parser = configparser.ConfigParser()
    parser.read_string(config.resolved_text())
    return ExperimentConfig.from_parser(parser)


def test_resolved_text_round_trips_every_field(tmp_path):
    config = ExperimentConfig(
        env="pusher", strategy="fixed-threshold", seeds=[3, 1], m_values=[40, 80],
        output_dir=str(tmp_path / "out"), workers=2, eval_episodes=7,
        env_overrides={"dt": 0.05}, m_cal=11,
        max_steps=700, max_queries=900,
        strategy_params={"alpha": 0.8, "k": 3, "rate": 0.25, "tau": 0.4, "tau_doubt": 0.2,
                         "ensemble_size": 4, "backend": "kdtree"},
        train_params={"learning_rate": 0.02, "batch_size": 16, "bc_epochs": 9,
                      "update_epochs": 3, "init_scale": 0.2, "retrain_from_scratch": True},
    )
    again = _reparse(config)
    for f in dataclasses.fields(ExperimentConfig):
        assert getattr(again, f.name) == getattr(config, f.name), f.name
    assert again == config
    # a config that sets nothing optional resolves to the dataclass defaults
    bare = ExperimentConfig(env="pendulum", strategy="dagger")
    assert _reparse(bare) == bare
    _, strategy, train, budget = bare.parts()
    assert (strategy, train, budget) == (StrategyConfig("dagger"), TrainConfig(),
                                         Budget(max_steps=10000))


def _settable(cls):
    return [f for f in dataclasses.fields(cls) if f.name != "kind"]


def _a_value(f):
    """A valid value for field `f`: its default (a bool's flipped), or 7 if it has none."""
    if isinstance(f.default, bool):
        return not f.default
    return 7 if f.default in (None, dataclasses.MISSING) else f.default


# (INI section, experiment.env, the class the section builds, where `parts` holds it)
SECTIONS = [("strategy", "pendulum", StrategyConfig, lambda parts: parts[1]),
            ("train", "pendulum", TrainConfig, lambda parts: parts[2]),
            ("budget", "pendulum", Budget, lambda parts: parts[3]),
            *[("env", kind, KINDS[kind].Params, lambda parts: parts[0].params)
              for kind in KINDS]]


@pytest.mark.parametrize("section, env, cls, built", SECTIONS,
                         ids=[f"{section}-{env}" for section, env, _, _ in SECTIONS])
def test_every_dataclass_field_is_a_config_key(config_path, section, env, cls, built):
    for f in _settable(cls):
        value = _a_value(f)
        config = ExperimentConfig.from_file(config_path, overrides=[
            f"experiment.env={env}", f"{section}.{f.name}={value}"])
        assert getattr(built(config.parts()), f.name) == value, f.name


@pytest.mark.parametrize("key", ["strategy.kind=dagger", "strategy.radius=1.0",
                                 "train.seed=3", "train.hidden=32",
                                 "strategy.standardize=false",
                                 "conformal.recalibrate_every=2", "env.fixed_init=0.1,0.2"])
def test_harness_owned_and_removed_keys_are_rejected(config_path, key):
    with pytest.raises(ConfigurationError, match="unknown config key"):
        ExperimentConfig.from_file(config_path, overrides=[key])


def test_ini_and_direct_configs_resolve_alike(config_path):
    ini = ExperimentConfig.from_file(config_path, overrides=["experiment.strategy=fixed-threshold"])
    direct = ExperimentConfig(env="pendulum", strategy="fixed-threshold",
                              train_params={"bc_epochs": 5, "update_epochs": 2})
    assert ini.parts()[1] == direct.parts()[1]
    assert ini.parts()[1].tau == 0.1
    assert ini.snapshot(100, 0)["strategy_params"] == direct.snapshot(100, 0)["strategy_params"]
    assert direct.snapshot(100, 0)["train_params"] == {
        f.name: getattr(direct.parts()[2], f.name) for f in _settable(TrainConfig)}


def test_env_section_is_stored_and_printed_resolved(config_path, capsys):
    given = ExperimentConfig.from_file(config_path, overrides=["env.dt=0.05"])
    bare = ExperimentConfig.from_file(config_path)
    assert given.snapshot(100, 0) == bare.snapshot(100, 0)
    records = [RunRecord(config=given.snapshot(100, 0)), RunRecord(config=bare.snapshot(100, 1))]
    assert [row["runs"] for row in summarize(records)] == [2]
    assert main(["run", config_path, "--print-config"]) == 0
    parser = configparser.ConfigParser()
    parser.read_string(capsys.readouterr().out)
    assert list(parser["env"]) == [f.name for f in dataclasses.fields(PendulumParams)]
    assert ExperimentConfig.from_parser(parser) == bare


def test_one_bad_value_gives_one_message_from_a_file_an_override_and_direct(config_path):
    message = "strategy.k must be >= 1, got 0"
    with pytest.raises(ConfigurationError) as from_set:
        ExperimentConfig.from_file(config_path, overrides=["strategy.k=0"])
    with open(config_path, "a") as fh:
        fh.write("\n[strategy]\nk = 0\n")
    with pytest.raises(ConfigurationError) as from_file:
        ExperimentConfig.from_file(config_path)
    with pytest.raises(ConfigurationError) as direct:
        ExperimentConfig(env="pendulum", strategy="dagger", strategy_params={"k": 0})
    assert [str(err.value) for err in (from_file, from_set, direct)] == [message] * 3


@pytest.mark.parametrize("workers, seeds, pools", [(3, [0, 1], [2]), (2, [0], [])])
def test_pool_never_outnumbers_the_runs(tmp_path, monkeypatch, workers, seeds, pools):
    made = []

    class RecordingPool(_InProcess):  # runs each job in this process, so nothing forks
        def __init__(self, max_workers):
            made.append(max_workers)

    monkeypatch.setattr("crsail.harness.ProcessPoolExecutor", RecordingPool)
    config = ExperimentConfig(env="pendulum", strategy="dagger", seeds=seeds, m_values=[50],
                              output_dir=str(tmp_path), workers=workers, eval_episodes=2,
                              max_steps=50, env_overrides={"t_max": 10},
                              train_params={"bc_epochs": 2, "update_epochs": 1})
    records, failures = run(config)
    assert failures == [] and len(records) == len(seeds)
    assert made == pools  # one run needs no pool at all


@pytest.mark.parametrize("workers", [1, 2])
def test_failing_grid_notes_carry_traceback(tmp_path, workers):
    # one-step episodes give one calibration score, too few for the quantile at alpha 0.01
    config = ExperimentConfig(env="pendulum", strategy="crsail", seeds=[0, 1], m_values=[50],
                              output_dir=str(tmp_path), workers=workers, max_steps=50,
                              env_overrides={"t_max": 1}, m_cal=1,
                              strategy_params={"alpha": 0.01})
    records, failures = run(config)
    assert records == []
    assert len(failures) == 2
    for note, seed in zip(failures, [0, 1]):
        assert note.startswith(f"M=50 seed={seed}: quantile index m=2 exceeds N_cal=1")
        assert "Traceback (most recent call last)" in note
        assert "calibrate_radius" in note


def test_load_records_reads_top_level_then_sweep_subdirectories(config_path):
    fixed = ["--set", "experiment.strategy=fixed-threshold"]
    assert main(["sweep", config_path, "--K", "7,3", *fixed]) == 0
    assert main(["run", config_path, *fixed]) == 0
    outdir = ExperimentConfig.from_file(config_path).output_dir
    records = load_records(outdir)
    # the top-level record (the default K=5), then k_3/ and k_7/ in name order
    assert [r.config["strategy_params"]["k"] for r in records] == [5, 3, 7]


@pytest.mark.parametrize("command", ["summarize", "plotdata"])
def test_cli_missing_run_directory_is_one_line_and_exit_2(tmp_path, capsys, command):
    missing = tmp_path / "nowhere"
    assert main([command, str(missing)]) == 2
    assert capsys.readouterr().err == f"crsail {command}: run directory {missing} does not exist\n"
    a_file = tmp_path / "exp.ini"
    a_file.write_text("")
    assert main([command, str(a_file)]) == 2
    assert capsys.readouterr().err == \
        f"crsail {command}: run directory {a_file} is not a directory\n"


def test_bad_record_files_are_skipped_and_named(config_path, capsys):
    assert main(["run", config_path]) == 0
    outdir = ExperimentConfig.from_file(config_path).output_dir
    text = open(os.path.join(outdir, run_basename("dagger", 100, 0) + ".json")).read()
    tampered = json.loads(text)
    tampered["summary"]["total_queries"] += 1
    bad = {"truncated.json": text[:len(text) // 2], "tampered.json": json.dumps(tampered),
           "notes.json": json.dumps(["not", "a", "record"])}
    for name, body in bad.items():
        with open(os.path.join(outdir, name), "w") as fh:
            fh.write(body)

    with pytest.warns(UserWarning) as caught:
        records = load_records(outdir)
    assert [r.config["m"] for r in records] == [100]
    assert len(caught) == 3

    capsys.readouterr()
    assert main(["summarize", outdir]) == 0
    captured = capsys.readouterr()
    assert "dagger" in captured.out
    lines = captured.err.splitlines()
    causes = {"notes.json": "TypeError", "tampered.json": "stored summary does not match",
              "truncated.json": "JSONDecodeError"}
    assert len(lines) == len(causes)
    for line, (name, cause) in zip(lines, sorted(causes.items())):
        assert line.startswith(f"crsail summarize: skipped {os.path.join(outdir, name)}: ")
        assert cause in line


def _small_run_record(tmp_path, name, **kwargs):
    config = ExperimentConfig(**{
        "env": "pendulum", "strategy": "dagger", "seeds": [0], "m_values": [30],
        "output_dir": str(tmp_path / name), "eval_episodes": 2, "max_steps": 40,
        "train_params": {"bc_epochs": 2, "update_epochs": 1}, **kwargs})
    records, failures = run(config)
    assert failures == []
    with open(os.path.join(config.output_dir, run_basename("dagger", 30, 0) + ".json")) as fh:
        saved = json.load(fh)
    for episode in saved["episodes"]:
        del episode["wall_time"]
    return saved


@pytest.mark.parametrize("numpy_kwargs, plain_kwargs", [
    ({"seeds": [np.int64(0)]}, {"seeds": [0]}),
    ({"env_overrides": {"t_max": np.int64(20)}}, {"env_overrides": {"t_max": 20}}),
    ({"strategy_params": {"alpha": np.float64(0.5)}, "m_cal": np.int64(4)},
     {"strategy_params": {"alpha": 0.5}, "m_cal": 4}),
], ids=["seeds", "t_max", "alpha-m_cal"])
def test_numpy_config_values_save_the_record_of_plain_ones(tmp_path, numpy_kwargs,
                                                           plain_kwargs):
    saved = _small_run_record(tmp_path, "numpy", **numpy_kwargs)
    assert saved == _small_run_record(tmp_path, "plain", **plain_kwargs)


@pytest.mark.parametrize("edit", [
    lambda record: record.update(summary={}),
    lambda record: record.pop("summary"),
    lambda record: record.update(config=None),
    lambda record: record.update(config=["not", "a", "dict"]),
    # the flag alone says whether an episode reached expert level
    lambda record: record["episodes"][0].update(
        converged_flag=1 - record["episodes"][0]["converged_flag"]),
], ids=["empty-summary", "no-summary", "null-config", "list-config", "flipped-flag"])
def test_record_without_summary_or_dict_config_is_skipped(config_path, capsys, edit):
    assert main(["run", config_path]) == 0
    outdir = ExperimentConfig.from_file(config_path).output_dir
    with open(os.path.join(outdir, run_basename("dagger", 100, 0) + ".json")) as fh:
        record = json.load(fh)
    edit(record)
    bad = os.path.join(outdir, "edited.json")
    with open(bad, "w") as fh:
        json.dump(record, fh)
    capsys.readouterr()
    assert main(["summarize", outdir]) == 0
    captured = capsys.readouterr()
    assert re.fullmatch(rf"crsail summarize: skipped {re.escape(bad)}: ConfigurationError: "
                        r"(stored summary does not match the episode series"
                        r"|config must be a dict, got (NoneType|list))\n", captured.err)
    assert re.search(r"^dagger +100 +1 ", captured.out, re.M)  # the one good record


@pytest.mark.parametrize("key, value, expected", [
    ("m", "200", "an integer"),
    ("strategy", 3, "a string"),
    ("strategy", ["crsail"], "a string"),
], ids=["m-str", "strategy-int", "strategy-list"])
def test_record_with_a_bad_group_key_is_skipped(tmp_path, capsys, key, value, expected):
    # summaries group and sort the records by (config.strategy, config.m)
    golden = json.loads((Path(__file__).parent / "goldens" / "records.json").read_text())
    record = golden["pendulum-crsail"]["record"]
    for episode in record["episodes"]:
        episode["wall_time"] = 0.0
    (tmp_path / "crsail_M200_seed0.json").write_text(json.dumps(record))
    bad = tmp_path / "crsail_M200_seed1.json"
    bad.write_text(json.dumps({**record, "config": {**record["config"], key: value}}))
    assert main(["summarize", str(tmp_path)]) == 0
    captured = capsys.readouterr()
    assert captured.err == (f"crsail summarize: skipped {bad}: FieldError: config.{key}: "
                            f"expected {expected}, got {value!r}\n")
    assert re.search(r"^crsail +200 +1 ", captured.out, re.M)
