import dataclasses
import sys

import numpy as np
import pytest

from crsail.core import Trajectory, rollout
from crsail.dataset import ExpertDataset
from crsail.envs import make_env, make_expert
from crsail.exceptions import ConfigurationError, FieldError
from crsail.policy import MLPPolicy, TrainConfig, behavioral_cloning
from crsail.strategies import READS, QuerySet, StrategyConfig, label_queries, select_queries
from crsail.trainer import build_initial_dataset
from helpers import identity_standardizer, same_bits


def make_trajectory(states_1d):
    """A straight-line 1D trajectory through the given state values."""
    states = np.asarray(states_1d, dtype=np.float64)[:, None]
    n = len(states) - 1
    return Trajectory(states=states, actions=np.zeros((n, 1)), rewards=np.ones(n))


def dataset_1d(values):
    values = np.asarray(values, dtype=np.float64)
    return ExpertDataset(values[:, None], np.zeros((len(values), 1)), identity_standardizer(1))


class ConstantExpert:
    def __init__(self, value):
        self.value = np.atleast_1d(np.asarray(value, dtype=np.float64))

    def act(self, state):
        return np.full(np.shape(state)[:-1] + self.value.shape, self.value)


class EchoExpert:
    """Labels each state with its own first coordinate."""

    def act(self, state):
        return state[..., :1]


def test_dagger_queries_every_step():
    traj = make_trajectory([0.0, 1.0, 2.0, 3.0])
    qs = select_queries(StrategyConfig("dagger"), traj, dataset_1d([0.0]))
    assert np.array_equal(qs.indices, [0, 1, 2])


def test_random_rate_extremes():
    traj = make_trajectory(np.arange(11.0))
    ds = dataset_1d([0.0])
    rng = np.random.default_rng(0)
    none = select_queries(StrategyConfig("random-rate", rate=0.0), traj, ds, rng=rng)
    full = select_queries(StrategyConfig("random-rate", rate=1.0), traj, ds, rng=rng)
    assert len(none) == 0
    assert np.array_equal(full.indices, np.arange(10))


def test_random_rate_requires_rng():
    traj = make_trajectory([0.0, 1.0])
    with pytest.raises(ConfigurationError):
        select_queries(StrategyConfig("random-rate"), traj, dataset_1d([0.0]))


def test_random_rate_matches_nominal_rate():
    traj = make_trajectory(np.arange(2001.0))
    rng = np.random.default_rng(1)
    qs = select_queries(StrategyConfig("random-rate", rate=0.3), traj,
                        dataset_1d([0.0]), rng=rng)
    assert abs(len(qs) / 2000 - 0.3) < 0.05


def test_fixed_threshold_hand_example():
    # dataset {0, 1}; k=1 distances of visited states 0.0, 0.5, 2.0
    ds = dataset_1d([0.0, 1.0])
    traj = make_trajectory([0.0, 1.5, 3.0, 0.0])
    cfg = StrategyConfig("fixed-threshold", k=1, tau=0.75)
    qs = select_queries(cfg, traj, ds)
    assert np.array_equal(qs.indices, [2])
    assert np.array_equal(qs.scores, [0.0, 0.5, 2.0])


def test_crsail_requires_radius():
    traj = make_trajectory([0.0, 1.0])
    with pytest.raises(ConfigurationError, match="crsail strategy requires a calibrated radius"):
        select_queries(StrategyConfig("crsail"), traj, dataset_1d([0.0]))


def test_crsail_equals_fixed_threshold_at_same_cutoff():
    rng = np.random.default_rng(2)
    ds = ExpertDataset(rng.normal(size=(50, 2)), np.zeros((50, 1)), identity_standardizer(2))
    states = rng.normal(size=(31, 2))
    traj = Trajectory(states=states, actions=np.zeros((30, 1)), rewards=np.ones(30))
    a = select_queries(StrategyConfig("crsail", k=3), traj, ds, radius=0.4)
    b = select_queries(StrategyConfig("fixed-threshold", k=3, tau=0.4), traj, ds)
    assert np.array_equal(a.indices, b.indices)
    assert np.array_equal(a.scores, b.scores)


def test_crsail_strict_inequality_at_threshold():
    # a state exactly at the radius is NOT queried (score > R, not >=)
    ds = dataset_1d([0.0])
    traj = make_trajectory([1.0, 2.0, 0.0])
    qs = select_queries(StrategyConfig("crsail", k=1), traj, ds, radius=1.0)
    assert np.array_equal(qs.indices, [1])


def test_query_count_never_exceeds_length():
    rng = np.random.default_rng(3)
    ds = ExpertDataset(rng.normal(size=(20, 1)), np.zeros((20, 1)), identity_standardizer(1))
    traj = make_trajectory(rng.normal(size=15))
    for cfg in (StrategyConfig("dagger"), StrategyConfig("crsail", k=1),
                StrategyConfig("fixed-threshold", k=1)):
        qs = select_queries(cfg, traj, ds, radius=0.0)
        assert len(qs) <= traj.length
        assert qs.indices.dtype == np.int64


def test_ensemble_variance_zero_for_identical_members():
    policy = MLPPolicy(np.ones((4, 1)), np.zeros(4), np.ones((1, 4)), np.zeros(1),
                       identity_standardizer(1))
    ensemble = [policy.copy() for _ in range(5)]
    traj = make_trajectory([0.0, 0.5, 1.0])
    cfg = StrategyConfig("ensemble-variance", tau_doubt=0.0)
    qs = select_queries(cfg, traj, dataset_1d([0.0]), ensemble=ensemble)
    assert len(qs) == 0  # zero doubt is not strictly above tau_doubt=0


def test_ensemble_variance_queries_where_members_disagree():
    agree = MLPPolicy(np.zeros((2, 1)), np.zeros(2), np.zeros((1, 2)), np.zeros(1),
                      identity_standardizer(1))
    disagree = MLPPolicy(np.zeros((2, 1)), np.zeros(2), np.zeros((1, 2)), np.ones(1),
                         identity_standardizer(1))
    traj = make_trajectory([0.0, 1.0, 2.0])
    cfg = StrategyConfig("ensemble-variance", tau_doubt=0.1)
    qs = select_queries(cfg, traj, dataset_1d([0.0]), ensemble=[agree, disagree])
    assert np.array_equal(qs.indices, [0, 1])


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_ensemble_variance_scores_are_row_exact(seed):
    # each state's doubt has the bits of that state scored alone, as a row of
    # a rollout gets the bits of its one-row step
    env = make_env("pusher")
    dataset = build_initial_dataset(env, make_expert(env), 200, seed)
    ensemble = behavioral_cloning(dataset, TrainConfig(bc_epochs=5), np.random.default_rng(seed),
                                  members=3)
    traj = rollout(env, ensemble[0], seed)
    cfg = StrategyConfig("ensemble-variance")
    scores = select_queries(cfg, traj, dataset, ensemble=ensemble).scores
    assert scores.shape == (traj.length,)
    for i in range(traj.length):
        alone = Trajectory(traj.states[i:i + 2], traj.actions[i:i + 1], traj.rewards[i:i + 1])
        assert same_bits(scores[i:i + 1], select_queries(cfg, alone, dataset,
                                                         ensemble=ensemble).scores), i


def test_ensemble_variance_requires_ensemble():
    traj = make_trajectory([0.0, 1.0])
    with pytest.raises(ConfigurationError):
        select_queries(StrategyConfig("ensemble-variance"), traj, dataset_1d([0.0]))


def test_alpha_is_a_checked_strategy_field():
    assert StrategyConfig("crsail").alpha == 0.93
    for alpha in (0, 1, 1.5, -0.1):
        with pytest.raises(ConfigurationError) as err:
            StrategyConfig("dagger", alpha=alpha)
        assert str(err.value) == f"alpha must lie in (0, 1), got {alpha}"


def test_backend_and_tau_doubt_checked_for_every_kind():
    for kind in READS:
        with pytest.raises(FieldError) as err:
            StrategyConfig(kind, backend="bogus")
        assert str(err.value) == "backend must be one of brute, kdtree, got 'bogus'"
        with pytest.raises(ConfigurationError, match="tau_doubt must be >= 0"):
            StrategyConfig(kind, tau_doubt=-1.0)
    assert StrategyConfig("dagger", backend="kdtree").backend == "kdtree"


def test_kdtree_without_scipy_rejected_at_construction(monkeypatch):
    monkeypatch.setitem(sys.modules, "scipy", None)  # as if scipy were not installed
    for kind in READS:
        with pytest.raises(ConfigurationError) as err:
            StrategyConfig(kind, backend="kdtree")
        assert str(err.value).startswith("backend 'kdtree' needs scipy")
        assert "\n" not in str(err.value)
        assert StrategyConfig(kind).backend == "brute"


def test_reads_names_strategy_fields_of_every_kind():
    names = {f.name for f in dataclasses.fields(StrategyConfig)} - {"kind"}
    for kind, read in READS.items():
        StrategyConfig(kind)
        assert set(read) <= names, kind
    assert READS["crsail"] == ("alpha", "k", "backend")
    assert "alpha" not in READS["fixed-threshold"]


def test_unknown_kind_rejected():
    with pytest.raises(ConfigurationError):
        StrategyConfig("active-learning")
    with pytest.raises(ConfigurationError):
        StrategyConfig("random-rate", rate=1.5)


def test_label_queries_reads_stored_states():
    traj = make_trajectory([3.0, 1.0, 4.0, 1.5])
    states, actions = label_queries(EchoExpert(), traj, QuerySet(np.array([0, 2])))
    assert np.array_equal(states, [[3.0], [4.0]])
    assert np.array_equal(actions, [[3.0], [4.0]])


def test_label_queries_multiset_semantics():
    traj = make_trajectory([0.0, 0.0, 0.0])
    states, actions = label_queries(ConstantExpert(2.0), traj, QuerySet(np.array([0, 1])))
    assert states.shape == (2, 1)
    assert np.array_equal(actions, [[2.0], [2.0]])


def test_query_set_rejects_indices_that_are_not_integers():
    # They were truncated: [0.5, 1.9] became [0, 1].
    for indices in ([0.5, 1.9], np.array([True, False])):
        with pytest.raises(ConfigurationError) as err:
            QuerySet(indices=indices)
        assert str(err.value) == \
            f"query indices must be integers, got dtype {np.asarray(indices).dtype}"
    assert QuerySet(indices=[]).indices.dtype == np.int64  # no query is legal
    assert same_bits(QuerySet(indices=np.array([3, 1], dtype=np.int32)).indices, [3, 1])


def test_label_queries_empty_and_out_of_range():
    traj = make_trajectory([0.0, 1.0, 2.0])
    states, actions = label_queries(ConstantExpert(0.0), traj, QuerySet(np.array([], dtype=int)))
    assert states.shape == (0, 1) and actions.shape == (0, 1)
    with pytest.raises(ConfigurationError):
        label_queries(ConstantExpert(0.0), traj, QuerySet(np.array([2])))  # length is 2


class RecordingExpert(EchoExpert):
    """Records the argument of each `act` call."""

    def __init__(self):
        self.calls = []

    def act(self, state):
        self.calls.append(np.array(state))
        return super().act(state)


def test_label_queries_asks_the_expert_once_for_the_queried_stack():
    traj = make_trajectory([3.0, 1.0, 4.0, 1.5, 9.0])
    expert = RecordingExpert()
    states, actions = label_queries(expert, traj, QuerySet(np.array([0, 2, 3])))
    assert np.array_equal(actions, [[3.0], [4.0], [1.5]])
    assert len(expert.calls) == 1 and np.array_equal(expert.calls[0], states)


@pytest.mark.parametrize("name", ["alpha", "rate", "tau", "tau_doubt"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_non_finite_strategy_values_rejected(name, value):
    with pytest.raises(ConfigurationError, match=f"{name} must be finite"):
        StrategyConfig("fixed-threshold", **{name: value})
