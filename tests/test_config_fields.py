"""The one field check: every field of every config dataclass, walked.

Each int, float, bool, list and dict field must reject a wrong-typed value on
direct construction, with a message that names the field (`section.key` for
an `ExperimentConfig` field); a field added later is covered here without a
new test.
"""

import dataclasses
import math
import re

import numpy as np
import pytest

from crsail.envs import DoubleIntegratorParams, EnvParams, PendulumParams, PusherParams
from crsail.exceptions import FIELD_TYPES, ConfigurationError
from crsail.harness import ExperimentConfig
from crsail.policy import TrainConfig
from crsail.strategies import StrategyConfig
from crsail.trainer import Budget

# each config dataclass -> the keywords that make a valid one
CONFIGS = {
    StrategyConfig: {"kind": "crsail"},
    TrainConfig: {},
    PendulumParams: {},
    PusherParams: {},
    DoubleIntegratorParams: {},
    Budget: {"max_steps": 10},
    ExperimentConfig: {"env": "pendulum", "strategy": "crsail"},
}

# field types the field check leaves to their owners: a str is checked where
# it is read
UNCHECKED = {"str"}


def _wrong_values(kind: str) -> list:
    """Values of the wrong type for a field of type `kind` (without `| None`)."""
    if kind == "list[int]":
        return ["x", 3, [1, "x"], [True], [2.5], (1, 2)]
    if kind == "dict":
        return ["x", None, [("k", 3)], 3]
    wrong = {"int": [True, 2.5, math.nan], "float": [True, math.nan, math.inf, -math.inf],
             "bool": [1, 0.0, None]}[kind]
    return ["x", *wrong]


def _label(f) -> str:
    """How a message names field `f`: `section.key` if it declares its section."""
    return f"{f.metadata['section']}.{f.name}" if "section" in f.metadata else f.name


CASES = [(cls, f.name, _label(f), value) for cls in CONFIGS for f in dataclasses.fields(cls)
         if f.type not in UNCHECKED
         for value in _wrong_values(f.type.removesuffix(" | None"))]


def test_every_field_type_is_checked_or_left_to_its_owner():
    for cls in CONFIGS:
        for f in dataclasses.fields(cls):
            assert f.type.removesuffix(" | None") in FIELD_TYPES or f.type in UNCHECKED, \
                f"{cls.__name__}.{f.name}: {f.type}"


@pytest.mark.parametrize("cls, name, label, value", CASES,
                         ids=[f"{c.__name__}.{n}={v!r}" for c, n, _, v in CASES])
def test_wrong_typed_value_is_rejected_naming_the_field(cls, name, label, value):
    with pytest.raises(ConfigurationError) as err:
        cls(**{**CONFIGS[cls], name: value})
    message = str(err.value)
    assert re.fullmatch(rf"{re.escape(label)}(: expected .+| must be finite), got .+", message), \
        message
    assert "\n" not in message


@pytest.mark.parametrize("cls", CONFIGS)
def test_defaults_pass_and_numpy_numbers_count_as_numbers(cls):
    built = cls(**CONFIGS[cls])
    for f in dataclasses.fields(cls):
        kind, value = f.type.removesuffix(" | None"), getattr(built, f.name)
        if kind == "int" and value is not None:
            cls(**{**CONFIGS[cls], f.name: np.int64(value)})
        elif kind == "float":
            cls(**{**CONFIGS[cls], f.name: np.float64(value)})
        elif kind == "list[int]":
            cls(**{**CONFIGS[cls], f.name: [np.int64(v) for v in value]})


@pytest.mark.parametrize("cls", [PendulumParams, PusherParams, DoubleIntegratorParams])
def test_env_params_keep_the_bounds_of_the_fields_they_redeclare(cls):
    shared = {f.name: f.metadata.get("bound") for f in dataclasses.fields(EnvParams)}
    for f in dataclasses.fields(cls):
        if f.name in shared:
            assert f.metadata.get("bound") == shared[f.name], f.name


@pytest.mark.parametrize("build, message", [
    (lambda: ExperimentConfig(env="pendulum", strategy="crsail", strategy_params={"k": True}),
     "strategy.k: expected an integer, got True"),
    (lambda: ExperimentConfig(env="pendulum", strategy="crsail", strategy_params={"k": 5.0}),
     "strategy.k: expected an integer, got 5.0"),
    (lambda: ExperimentConfig(env="pendulum", strategy="crsail", eval_episodes=2.0),
     "experiment.eval_episodes: expected an integer, got 2.0"),
    (lambda: ExperimentConfig(env="pendulum", strategy="crsail", m_cal=3.0),
     "conformal.m_cal: expected an integer, got 3.0"),
    (lambda: ExperimentConfig(env="pendulum", strategy="crsail",
                              train_params={"batch_size": 64.0}),
     "train.batch_size: expected an integer, got 64.0"),
    (lambda: ExperimentConfig(env="pusher", strategy="crsail", env_overrides={"t_max": 1.5}),
     "env.t_max: expected an integer, got 1.5"),
    (lambda: ExperimentConfig(env="pendulum", strategy="crsail", max_queries=2.5),
     "budget.max_queries: expected an integer, got 2.5"),
    (lambda: ExperimentConfig(env="pendulum", strategy="crsail", env_overrides=None),
     "env.env_overrides: expected a dict of section keys, got None"),
    (lambda: ExperimentConfig(env="pendulum", strategy="crsail", strategy_params=[("k", 3)]),
     "strategy.strategy_params: expected a dict of section keys, got [('k', 3)]"),
    (lambda: StrategyConfig(kind="crsail", k=2.5), "k: expected an integer, got 2.5"),
    (lambda: TrainConfig(bc_epochs=1.5), "bc_epochs: expected an integer, got 1.5"),
    (lambda: Budget(max_steps=2.5), "max_steps: expected an integer, got 2.5"),
], ids=["strategy-k-bool", "strategy-k-float", "eval_episodes-float", "m_cal-float",
        "train-batch_size-float", "env-t_max-float", "budget-max_queries-float",
        "env_overrides-none", "strategy_params-pairs",
        "StrategyConfig-k-float", "TrainConfig-bc_epochs-float",
        "Budget-max_steps-float"])
def test_direct_construction_rejects_wrong_types(build, message):
    with pytest.raises(ConfigurationError) as err:
        build()
    assert str(err.value) == message


@pytest.mark.parametrize("build, message", [
    (lambda: StrategyConfig("dagger", k=0), "k must be >= 1, got 0"),
    (lambda: StrategyConfig("dagger", rate=1.5), "rate must lie in [0, 1], got 1.5"),
    (lambda: StrategyConfig("dagger", ensemble_size=1), "ensemble_size must be >= 2, got 1"),
    (lambda: TrainConfig(learning_rate=0.0), "learning_rate must be > 0, got 0.0"),
    (lambda: PendulumParams(dt=0.0), "dt must be > 0, got 0.0"),
    (lambda: PendulumParams(u_max=-1.0), "u_max must be > 0, got -1.0"),
    (lambda: PendulumParams(theta_fail=4.0),
     f"theta_fail must lie in (0, {math.pi}], got 4.0"),
    (lambda: PusherParams(push_gain=1.5), "push_gain must lie in (0, 1], got 1.5"),
    (lambda: DoubleIntegratorParams(t_max=0), "t_max must be >= 1, got 0"),
    (lambda: Budget(max_steps=5, max_queries=0), "max_queries must be >= 1, got 0"),
], ids=["k", "rate", "ensemble_size", "learning_rate", "dt", "u_max", "theta_fail",
        "push_gain", "t_max", "max_queries"])
def test_direct_construction_names_each_field_out_of_its_bound(build, message):
    with pytest.raises(ConfigurationError) as err:
        build()
    assert str(err.value) == message
    PendulumParams(theta_fail=math.pi)  # the closed end of a bound is in it
