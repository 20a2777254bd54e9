import numpy as np
import pytest

from crsail.core import Trajectory, evaluate_policy, rollout
from crsail.envs import (
    DoubleIntegratorParams,
    DoubleIntegrator,
    Pendulum,
    PendulumParams,
    make_env,
    make_expert,
)
from crsail.exceptions import ConfigurationError, NumericalFailureError
from helpers import ZeroPolicy


class NanPolicy:
    def act(self, state):
        return np.array([np.nan])


class DummyZeroRewardEnv:
    state_dim = 1
    action_dim = 1
    t_max = 5

    def reset(self, rng):
        return np.zeros(1)

    def step(self, state, action):
        return state, 0.0, False


def test_zero_action_double_integrator_follows_closed_form():
    env = DoubleIntegrator(DoubleIntegratorParams(t_max=3, fixed_init=np.array([1.0, 0.0, 0.0, 0.0])))
    traj = rollout(env, ZeroPolicy(2), 0)
    assert traj.length == 3
    # zero velocity and zero action: position never moves
    for s in traj.states:
        assert np.array_equal(s, np.array([1.0, 0.0, 0.0, 0.0]))


def test_pendulum_beyond_failure_bound_terminates_immediately():
    env = Pendulum(PendulumParams(fixed_init=np.array([1.6, 0.0])))
    traj = rollout(env, ZeroPolicy(1), 0)
    assert traj.length == 1


def test_rollout_is_deterministic_bitwise():
    env = make_env("pendulum")
    expert = make_expert(env)
    t1 = rollout(env, expert, 42)
    t2 = rollout(env, expert, 42)
    assert np.array_equal(t1.states, t2.states)
    assert np.array_equal(t1.actions, t2.actions)


def test_rollout_length_bounds():
    env = make_env("pendulum")
    expert = make_expert(env)
    for seed in range(20):
        traj = rollout(env, ZeroPolicy(1), seed)
        assert 1 <= traj.length <= env.t_max
        assert len(traj.states) == traj.length + 1
    assert rollout(env, expert, 0).length == env.t_max


def test_non_finite_action_raises_with_step_index():
    env = make_env("pendulum")
    with pytest.raises(NumericalFailureError) as err:
        rollout(env, NanPolicy(), 0)
    assert err.value.step_index == 0


def test_evaluate_zero_reward_env():
    mean, std = evaluate_policy(DummyZeroRewardEnv(), ZeroPolicy(1), 10, 0)
    assert mean == 0.0 and std == 0.0


def test_evaluate_expert_monte_carlo_stability():
    env = make_env("pendulum")
    expert = make_expert(env)
    m1, _ = evaluate_policy(env, expert, 20, 1)
    m2, _ = evaluate_policy(env, expert, 20, 2)
    assert abs(m1 - m2) <= 0.1 * max(abs(m1), abs(m2))


def test_surviving_policy_returns_exactly_t_max():
    env = make_env("pendulum")
    expert = make_expert(env)
    mean, std = evaluate_policy(env, expert, 20, 3)
    assert mean == 200.0 and std == 0.0


def test_evaluate_episode_i_runs_on_child_i_of_the_seed():
    env = make_env("pendulum")
    policy = ZeroPolicy(1)
    returns = [rollout(env, policy, child).episode_return
               for child in np.random.SeedSequence(4).spawn(6)]
    assert evaluate_policy(env, policy, 6, 4) == (np.mean(returns), np.std(returns))


def test_evaluate_requires_positive_episodes():
    with pytest.raises(ConfigurationError):
        evaluate_policy(DummyZeroRewardEnv(), ZeroPolicy(1), 0, 0)


def test_trajectory_shape_invariant_enforced():
    with pytest.raises(ConfigurationError):
        Trajectory(states=np.zeros((3, 2)), actions=np.zeros((3, 1)), rewards=np.zeros(3))
