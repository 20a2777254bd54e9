import csv
import signal
from dataclasses import asdict

import numpy as np
import pytest

import crsail.trainer
from crsail.conformal import calibrate_radius
from crsail.core import rollout
from crsail.envs import Pendulum, Pusher, make_env, make_expert
from crsail.exceptions import ConfigurationError, InvariantError, NumericalFailureError
from crsail.policy import TrainConfig, behavioral_cloning
from crsail.strategies import StrategyConfig
from crsail.trainer import (
    CSV_COLUMNS,
    Budget,
    EpisodeMetrics,
    RunRecord,
    build_initial_dataset,
    is_expert_level,
    train,
)
from helpers import NoisyExpert, ZeroPolicy, params_equal, same_bits

FAST = TrainConfig(bc_epochs=5, update_epochs=2)


def clone(dataset):
    """The policy behavior-cloned on the dataset with FAST, on generator seed 0."""
    return behavioral_cloning(dataset, FAST, np.random.default_rng(0))


def small_run(strategy, budget=None, seed=0, env_kind="pendulum", **kwargs):
    env = make_env(env_kind)
    expert = make_expert(env)
    dataset = build_initial_dataset(env, expert, 200, seed)
    policy = clone(dataset)
    threshold = None
    if strategy.kind == "crsail":
        threshold = calibrate_radius(env, policy, dataset, strategy, m_cal=3, seed=seed + 50)
    budget = budget or Budget(max_steps=600)
    return train(env, expert, dataset, policy, strategy, budget, FAST, seed,
                 threshold=threshold, expert_mean=200.0, **kwargs)


def test_budget_validation_and_exhaustion():
    with pytest.raises(TypeError):  # the step cap is required
        Budget(max_queries=10)
    with pytest.raises(ConfigurationError, match=r"^max_steps: expected an integer, got None$"):
        Budget(max_steps=None, max_queries=10)
    b = Budget(max_queries=10, max_steps=100)
    assert not b.exhausted(9, 99)
    assert b.exhausted(10, 0)
    assert b.exhausted(0, 100)
    assert Budget(max_steps=100).exhausted(10**9, 99) is False  # no query cap
    assert Budget(max_steps=100).exhausted(0, 100) is True


@pytest.mark.parametrize("caps, message", [
    ({"max_steps": 0}, "max_steps must be >= 1, got 0"),
    ({"max_steps": -5}, "max_steps must be >= 1, got -5"),
    ({"max_queries": 0, "max_steps": 100}, "max_queries must be >= 1, got 0"),
])
def test_budget_caps_must_be_at_least_one(caps, message):
    with pytest.raises(ConfigurationError) as err:
        Budget(**caps)
    assert str(err.value) == message
    assert not Budget(max_queries=1, max_steps=1).exhausted(0, 0)


def test_run_that_never_queries_ends_on_its_step_cap():
    def timed_out(signum, frame):
        raise TimeoutError("train did not stop on its step cap")

    previous = signal.signal(signal.SIGALRM, timed_out)
    signal.alarm(60)
    try:  # tau = 1e9: no state is ever novel enough to query
        _, record = small_run(StrategyConfig("fixed-threshold", tau=1e9),
                              budget=Budget(max_steps=600, max_queries=3), eval_episodes=2)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert record.summary["total_queries"] == 0
    assert record.episodes[-2].steps_cum < 600 <= record.episodes[-1].steps_cum


def test_is_expert_level_hand_cases():
    assert is_expert_level(190.0, 200.0)
    assert not is_expert_level(189.9, 200.0)
    # negative returns: within 5% of |expert| below the mean still counts
    assert is_expert_level(-10.4, -10.0)
    assert not is_expert_level(-10.6, -10.0)


def test_build_initial_dataset_whole_episodes():
    env = make_env("pusher")  # fixed 100-step horizon
    ds = build_initial_dataset(env, make_expert(env), 150, 0)
    assert len(ds) == 200
    assert ds.states.shape == (200, 6)
    assert ds.actions.shape == (200, 2)


def test_build_initial_dataset_deterministic():
    env = make_env("pendulum")
    a = build_initial_dataset(env, make_expert(env), 300, 7)
    b = build_initial_dataset(env, make_expert(env), 300, 7)
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.actions, b.actions)
    with pytest.raises(ConfigurationError):
        build_initial_dataset(env, make_expert(env), 0, 0)


def test_build_initial_dataset_episode_i_runs_on_child_i_of_the_seed():
    env = make_env("pendulum")
    expert = make_expert(env)
    ds = build_initial_dataset(env, expert, 450, 5)  # three 200-step episodes
    trajs = [rollout(env, expert, child) for child in np.random.SeedSequence(5).spawn(3)]
    assert np.array_equal(ds.states, np.concatenate([t.states[:-1] for t in trajs]))
    assert np.array_equal(ds.actions, np.concatenate([t.actions for t in trajs]))


def test_build_initial_dataset_rolls_out_no_extra_episode():
    env = make_env("pendulum")
    calls = []

    class CountingExpert:
        def __init__(self, inner):
            self.inner = inner

        def act(self, state):
            calls.append(len(state))
            return self.inner.act(state)

    # a noisy expert's generator advances once per label, so extra labels would shift it
    ds = build_initial_dataset(env, CountingExpert(NoisyExpert(make_expert(env), 0.1)), 450, 5)
    assert sum(calls) == len(ds) == 600


def _one_episode_stream(env, policy, m, seed):
    """The dataset of `rollout` on child i of the seed, i = 0, 1, ..., until m pairs."""
    trajs, total = [], 0
    for child in np.random.SeedSequence(seed).spawn(m):
        trajs.append(rollout(env, policy, child))
        total += trajs[-1].length
        if total >= m:
            break
    return trajs


@pytest.mark.parametrize("kind", ["pendulum", "pusher", "double_integrator"])
@pytest.mark.parametrize("who", ["zero", "expert"])
def test_build_initial_dataset_equals_the_one_episode_stream(kind, who):
    env = make_env(kind)
    policy = ZeroPolicy(env.action_dim) if who == "zero" else make_expert(env)
    for m in (1, env.t_max - 1, env.t_max, env.t_max + 1, 450):
        calls = []

        class Counting:
            def act(self, state):
                calls.append(len(state))
                return policy.act(state)

        ds = build_initial_dataset(env, Counting(), m, 9)
        trajs = _one_episode_stream(env, policy, m, 9)
        assert same_bits(ds.states, np.concatenate([t.states[:-1] for t in trajs]))
        assert same_bits(ds.actions, np.concatenate([t.actions for t in trajs]))
        assert sum(calls) == len(ds)  # no episode past the one that reaches m
    if kind == "pendulum" and who == "zero":
        assert len({t.length for t in _one_episode_stream(env, policy, 450, 9)}) >= 2


def test_dagger_queries_equal_steps():
    _, record = small_run(StrategyConfig("dagger"))
    for e in record.episodes:
        assert e.n_queries == e.length
    last = record.episodes[-1]
    assert last.queries_cum == last.steps_cum


def test_budget_entry_check_allows_final_overshoot():
    _, record = small_run(StrategyConfig("dagger"), budget=Budget(max_steps=10**6,
                                                                  max_queries=150))
    totals = [e.queries_cum for e in record.episodes]
    # every episode before the last started under budget; the last may overshoot
    assert all(t < 150 for t in totals[:-1])
    assert totals[-1] >= 150
    assert record.summary["total_queries"] == totals[-1]


def test_query_counts_bounded_by_episode_length():
    _, record = small_run(StrategyConfig("crsail", alpha=0.9, k=5))
    for e in record.episodes:
        assert 0 <= e.n_queries <= e.length


def test_crsail_without_threshold_rejected():
    env = make_env("pendulum")
    dataset = build_initial_dataset(env, make_expert(env), 50, 0)
    policy = clone(dataset)
    with pytest.raises(ConfigurationError, match="crsail strategy requires a calibrated radius"):
        train(env, make_expert(env), dataset, policy, StrategyConfig("crsail"),
              Budget(max_steps=10), FAST, 0)


def test_train_is_deterministic():
    _, r1 = small_run(StrategyConfig("dagger"), seed=3)
    _, r2 = small_run(StrategyConfig("dagger"), seed=3)
    assert [asdict(e) for e in r1.episodes] == [
        {**asdict(e), "wall_time": r1.episodes[i].wall_time}
        for i, e in enumerate(r2.episodes)
    ]


def test_train_does_not_mutate_inputs():
    env = make_env("pendulum")
    expert = make_expert(env)
    dataset = build_initial_dataset(env, expert, 100, 1)
    policy = clone(dataset)
    before_states = dataset.states.copy()
    params_before = policy.copy()
    train(env, expert, dataset, policy, StrategyConfig("dagger"),
          Budget(max_steps=300), FAST, 1)
    assert np.array_equal(dataset.states, before_states)
    assert params_equal(policy, params_before)


def test_random_rate_and_ensemble_strategies_run():
    _, r1 = small_run(StrategyConfig("random-rate", rate=0.2),
                      budget=Budget(max_steps=300))
    assert r1.summary["total_queries"] <= r1.summary["total_steps"]
    _, r2 = small_run(StrategyConfig("ensemble-variance", ensemble_size=2),
                      budget=Budget(max_steps=300))
    assert r2.summary["episodes"] >= 1


def test_fixed_threshold_strategy_runs():
    _, record = small_run(StrategyConfig("fixed-threshold", tau=0.5),
                          budget=Budget(max_steps=300))
    assert record.summary["total_steps"] >= 300


def test_run_record_summary_and_queries_to_expert():
    eps = [
        EpisodeMetrics(0, 200, 150, 200, 150, 120.0, 3.0, 0.1, 0),
        EpisodeMetrics(1, 200, 80, 400, 230, 195.0, 2.0, 0.1, 1),
        EpisodeMetrics(2, 200, 10, 600, 240, 199.0, 1.0, 0.1, 1),
    ]
    record = RunRecord(config={}, episodes=eps, expert_mean=200.0)
    assert record.summary["converged"] is True
    assert record.summary["queries_to_expert"] == 230
    assert record.summary["total_queries"] == 240
    assert record.summary["best_eval_mean"] == 199.0


def test_run_record_json_round_trip(tmp_path):
    _, record = small_run(StrategyConfig("dagger"), budget=Budget(max_steps=300))
    path = tmp_path / "run.json"
    record.save_json(path)
    loaded = RunRecord.load_json(path)
    assert loaded.to_dict() == record.to_dict()


def test_run_record_detects_tampered_summary(tmp_path):
    _, record = small_run(StrategyConfig("dagger"), budget=Budget(max_steps=300))
    data = record.to_dict()
    data["summary"]["total_queries"] += 1
    with pytest.raises(ConfigurationError):
        RunRecord.from_dict(data)


def test_run_record_csv_columns(tmp_path):
    _, record = small_run(StrategyConfig("dagger"), budget=Budget(max_steps=300))
    path = tmp_path / "run.csv"
    record.save_csv(path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == list(CSV_COLUMNS)
    assert len(rows) == 1 + len(record.episodes)
    first = rows[1]
    assert int(first[0]) == 0
    assert int(first[1]) == record.episodes[0].steps_cum
    assert float(first[4]) == record.episodes[0].eval_mean


def test_failure_messages_carry_iteration_index():
    class ExplodingExpert:
        def act(self, state):
            raise ValueError("expert unavailable")

    env = make_env("pendulum")
    expert = make_expert(env)
    dataset = build_initial_dataset(env, expert, 100, 0)
    policy = clone(dataset)
    with pytest.raises(ValueError, match="iteration 0"):
        train(env, ExplodingExpert(), dataset, policy, StrategyConfig("dagger"),
              Budget(max_steps=300), FAST, 0)


def test_eval_uses_separate_stream_from_training():
    # changing eval_episodes must not change the query/step series
    _, r20 = small_run(StrategyConfig("dagger"), budget=Budget(max_steps=400))
    _, r5 = small_run(StrategyConfig("dagger"), budget=Budget(max_steps=400),
                      eval_episodes=5)
    assert [e.queries_cum for e in r20.episodes] == [e.queries_cum for e in r5.episodes]
    assert [e.length for e in r20.episodes] == [e.length for e in r5.episodes]


class LabelingError(Exception):
    """An exception whose constructor needs more than a message."""

    def __init__(self, state, reason):
        super().__init__(f"{reason} at {state}")
        self.state = state
        self.reason = reason


def _initial(env_kind="pendulum", m=100):
    env = make_env(env_kind)
    expert = make_expert(env)
    dataset = build_initial_dataset(env, expert, m, 0)
    return env, expert, dataset, clone(dataset)


def test_failure_keeps_step_index_of_numerical_error():
    env, expert, dataset, policy = _initial()
    policy.w2[:] = np.nan
    with pytest.raises(NumericalFailureError, match="iteration 0") as info:
        train(env, expert, dataset, policy, StrategyConfig("dagger"),
              Budget(max_steps=300), FAST, 0)
    assert info.value.step_index == 0
    assert "non-finite action at step 0" in str(info.value)


def _training_seed(seed, iteration):
    """The seed `train(..., seed)` rolls out training episode `iteration` on."""
    return np.random.SeedSequence(seed).spawn(5)[0].spawn(iteration + 1)[iteration]


class PoisonedPusher(Pusher):
    """Steps the state of the episode with goal x-coordinate `goal_x` to NaN at
    that episode's step `at`."""

    def __init__(self, goal_x, at):
        super().__init__()
        self.goal_x, self.at, self.seen = goal_x, at, 0

    def step(self, state, action):
        x, reward, terminal = super().step(state, action)
        mine = state[..., 4] == self.goal_x
        if mine.any():
            self.seen += 1
            if self.seen == self.at + 1:
                x = np.where(mine[..., None], np.nan, x)
        return x, reward, terminal


@pytest.mark.parametrize("seed, episode, note", [
    # training episode 1 is the last row of iteration 0's evaluation block
    (_training_seed(0, 1), 3, "in training iteration 1"),
    # evaluation row 1 of iteration 0's block: child 1 of the block's seed, child 0 of eval_ss
    (np.random.SeedSequence(0).spawn(5)[1].spawn(1)[0].spawn(3)[1], 1,
     "in the evaluation after training iteration 0"),
], ids=["training-row", "evaluation-row"])
def test_failure_in_an_evaluation_block_notes_whose_row_failed(seed, episode, note):
    _, expert, dataset, policy = _initial("pusher")
    env = PoisonedPusher(goal_x=make_env("pusher").reset(np.random.default_rng(seed))[4], at=4)
    with pytest.raises(NumericalFailureError) as info:
        train(env, expert, dataset, policy, StrategyConfig("dagger"),
              Budget(max_steps=300), FAST, 0, eval_episodes=3)
    assert str(info.value) == f"non-finite state at step 4 of episode {episode}"
    assert (info.value.step_index, info.value.episode) == (4, episode)
    assert info.value.__notes__ == [note]


@pytest.mark.parametrize("strategy, budget", [
    (StrategyConfig("dagger"), Budget(max_steps=450)),
    (StrategyConfig("dagger"), Budget(max_steps=10**6, max_queries=450)),  # on the query cap
    (StrategyConfig("fixed-threshold", tau=1e9), Budget(max_steps=450, max_queries=3)),  # no query
])
def test_each_training_episode_is_rolled_out_once_with_its_own_bits(monkeypatch, strategy,
                                                                   budget):
    class CountingPendulum(Pendulum):
        resets = 0

        def reset(self, rng):
            self.resets += 1
            return super().reset(rng)

    env = CountingPendulum()
    _, expert, dataset, policy = _initial()
    trajectories, policies = [], [policy]
    real_select, real_update = crsail.trainer.select_queries, crsail.trainer.update

    def select(strategy, trajectory, *args, **kwargs):
        trajectories.append(trajectory)
        return real_select(strategy, trajectory, *args, **kwargs)

    def update(*args, **kwargs):
        policies.append(real_update(*args, **kwargs))
        return policies[-1]

    monkeypatch.setattr(crsail.trainer, "select_queries", select)
    monkeypatch.setattr(crsail.trainer, "update", update)
    _, record = train(env, expert, dataset, policy, strategy, budget, FAST, 0, eval_episodes=3)
    n = len(record.episodes)
    assert n >= 2 and len(trajectories) == n
    assert env.resets == 3 * n + n  # each block's evaluation rows, and one episode each
    for i, trajectory in enumerate(trajectories):
        alone = rollout(env, policies[i], _training_seed(0, i))
        assert same_bits(trajectory.states, alone.states)
        assert same_bits(trajectory.actions, alone.actions)
        assert same_bits(trajectory.rewards, alone.rewards)


def test_failure_keeps_type_and_attributes_of_any_exception():
    class PickyExpert:
        def act(self, state):
            raise LabelingError(state, "expert refused")

    env, _, dataset, policy = _initial()
    with pytest.raises(LabelingError, match="iteration 0") as info:
        train(env, PickyExpert(), dataset, policy, StrategyConfig("dagger"),
              Budget(max_steps=300), FAST, 0)
    assert info.value.reason == "expert refused"
    assert info.value.state.shape[-1] == 2
    assert info.value.__traceback__ is not None


def test_non_finite_expert_label_is_blamed_on_the_expert():
    class NaNExpert:
        def act(self, state):
            return np.full(np.shape(state)[:-1] + (1,), np.nan)

    env, _, dataset, policy = _initial()
    with pytest.raises(NumericalFailureError, match="non-finite expert label") as info:
        train(env, NaNExpert(), dataset, policy, StrategyConfig("dagger"),
              Budget(max_steps=300), FAST, 0)
    assert "non-finite action" not in str(info.value)
    assert f"row {len(dataset)} " in str(info.value)


def test_dataset_size_invariant_is_a_real_check(monkeypatch):
    real = crsail.trainer.label_queries

    def drops_one_label(expert, trajectory, queries):
        states, actions = real(expert, trajectory, queries)
        return states[1:], actions[1:]

    monkeypatch.setattr(crsail.trainer, "label_queries", drops_one_label)
    env, expert, dataset, policy = _initial()
    with pytest.raises(InvariantError, match="dataset holds"):
        train(env, expert, dataset, policy, StrategyConfig("dagger"),
              Budget(max_steps=300), FAST, 0)
