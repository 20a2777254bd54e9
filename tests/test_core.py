import numpy as np
import pytest

from crsail.core import Trajectory, episode_seeds, evaluate_policy, rollout, rollouts
from crsail.envs import (
    DoubleIntegratorParams,
    DoubleIntegrator,
    Pendulum,
    make_env,
    make_expert,
)
from crsail.dataset import Standardizer
from crsail.exceptions import ConfigurationError, NumericalFailureError
from crsail.policy import MLPPolicy, TrainConfig
from helpers import FixedStart, ZeroPolicy, same_bits


class NanPolicy:
    def act(self, state):
        return np.full(np.shape(state)[:-1] + (1,), np.nan)


class DummyZeroRewardEnv:
    state_dim = 1
    action_dim = 1
    t_max = 5

    def reset(self, rng):
        return np.zeros(1)

    def step(self, state, action):
        return state, 0.0, False


def test_zero_action_double_integrator_follows_closed_form():
    env = FixedStart(DoubleIntegrator(DoubleIntegratorParams(t_max=3)), [1.0, 0.0, 0.0, 0.0])
    traj = rollout(env, ZeroPolicy(2), 0)
    assert traj.length == 3
    # zero velocity and zero action: position never moves
    for s in traj.states:
        assert np.array_equal(s, np.array([1.0, 0.0, 0.0, 0.0]))


def test_pendulum_beyond_failure_bound_terminates_immediately():
    env = FixedStart(Pendulum(), [1.6, 0.0])
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


def test_actor_must_give_one_action_row_per_state():
    class NumberPerState:  # one number, not one action row, per state
        def act(self, state):
            return -state[..., 0]

    with pytest.raises(ConfigurationError,
                       match=r"^NumberPerState\.act gave shape \(3,\) for 3 states"):
        rollouts(make_env("pendulum"), NumberPerState(), episode_seeds(0, 3))


def test_evaluate_zero_reward_env():
    assert evaluate_policy(DummyZeroRewardEnv(), ZeroPolicy(1), 10, 0) == (0.0, 0.0, None)


def test_evaluate_expert_monte_carlo_stability():
    env = make_env("pendulum")
    expert = make_expert(env)
    m1, _, _ = evaluate_policy(env, expert, 20, 1)
    m2, _, _ = evaluate_policy(env, expert, 20, 2)
    assert abs(m1 - m2) <= 0.1 * max(abs(m1), abs(m2))


def test_surviving_policy_returns_exactly_t_max():
    env = make_env("pendulum")
    expert = make_expert(env)
    assert evaluate_policy(env, expert, 20, 3) == (200.0, 0.0, None)


def test_evaluate_episode_i_runs_on_child_i_of_the_seed():
    env = make_env("pendulum")
    policy = ZeroPolicy(1)
    returns = [rollout(env, policy, child).episode_return
               for child in np.random.SeedSequence(4).spawn(6)]
    assert evaluate_policy(env, policy, 6, 4) == (np.mean(returns), np.std(returns), None)


@pytest.mark.parametrize("kind", ["pendulum", "pusher"])
def test_evaluate_carries_one_more_episode_with_its_own_bits(kind):
    env = make_env(kind)
    policy = _wild_policy(env, 5)
    carry = np.random.SeedSequence(12)
    mean, std, carried = evaluate_policy(env, policy, 7, 4, carry)
    assert (mean, std, None) == evaluate_policy(env, policy, 7, 4)  # not in the statistics
    alone = rollout(env, policy, carry)
    assert same_bits(carried.states, alone.states)
    assert same_bits(carried.actions, alone.actions)
    assert same_bits(carried.rewards, alone.rewards)


def test_failure_in_the_carried_episode_names_it():
    env = make_env("pusher")
    carry = np.random.SeedSequence(3)
    start = rollout(env, ZeroPolicy(2), carry).states[0]
    policy = GoesNaNInOneEpisode(goal_x=start[4], start_x=start[0])
    with pytest.raises(NumericalFailureError,
                       match=r"^non-finite action at step 3 of episode 5$") as err:
        evaluate_policy(env, policy, 5, 8, carry)
    assert (err.value.step_index, err.value.episode) == (3, 5)


def test_evaluate_requires_positive_episodes():
    with pytest.raises(ConfigurationError):
        evaluate_policy(DummyZeroRewardEnv(), ZeroPolicy(1), 0, 0)


def test_trajectory_shape_invariant_enforced():
    with pytest.raises(ConfigurationError):
        Trajectory(states=np.zeros((3, 2)), actions=np.zeros((3, 1)), rewards=np.zeros(3))


def _wild_policy(env, seed):
    """An untrained MLP with large weights: pendulum episodes fail at many different steps."""
    scale = Standardizer(mean=np.zeros(env.state_dim), std=np.full(env.state_dim, 0.3))
    return MLPPolicy.initialize(env.state_dim, env.action_dim, TrainConfig(init_scale=1.0),
                                np.random.default_rng(seed), scale)


def _reference_rollout(env, policy, seed) -> Trajectory:
    """One episode, one state at a time: the loop the lockstep one replaced."""
    x = env.reset(np.random.default_rng(seed))
    states, actions, rewards = [x], [], []
    for _ in range(env.t_max):
        u = np.atleast_1d(np.asarray(policy.act(x), dtype=np.float64))
        x, r, terminal = env.step(x, u)
        states.append(x)
        actions.append(u)
        rewards.append(float(r))
        if terminal:
            break
    return Trajectory(np.array(states), np.array(actions), np.array(rewards))


@pytest.mark.parametrize("kind", ["pendulum", "pusher", "double_integrator"])
@pytest.mark.parametrize("who", ["mlp", "expert"])
def test_lockstep_episodes_equal_one_episode_rollouts_bit_for_bit(kind, who):
    env = make_env(kind)
    policy = _wild_policy(env, 3) if who == "mlp" else make_expert(env)
    batch = rollouts(env, policy, episode_seeds(11, 12))
    children = np.random.SeedSequence(11).spawn(12)
    for b, child in zip(batch, children, strict=True):
        for alone in (rollout(env, policy, child), _reference_rollout(env, policy, child)):
            assert same_bits(b.states, alone.states)
            assert same_bits(b.actions, alone.actions)
            assert same_bits(b.rewards, alone.rewards)
    if kind == "pendulum" and who == "mlp":
        assert len({t.length for t in batch}) >= 4  # episodes leave the block at different steps


class GoesNaNInOneEpisode:
    """Pushes right at full speed; the action turns NaN once the agent of the episode
    with goal x-coordinate `goal_x` is more than 0.25 right of where it started."""

    def __init__(self, goal_x, start_x):
        self.goal_x, self.start_x = goal_x, start_x

    def act(self, state):
        action = np.zeros(np.shape(state)[:-1] + (2,))
        action[..., 0] = 1.0
        action[(state[..., 4] == self.goal_x) & (state[..., 0] > self.start_x + 0.25)] = np.nan
        return action


def test_non_finite_action_in_one_episode_names_the_episode_and_step():
    env = make_env("pusher")
    start = rollout(env, ZeroPolicy(2), np.random.SeedSequence(8).spawn(5)[2]).states[0]
    policy = GoesNaNInOneEpisode(goal_x=start[4], start_x=start[0])
    for call in (lambda: rollouts(env, policy, episode_seeds(8, 5)),
                 lambda: evaluate_policy(env, policy, 5, 8)):
        with pytest.raises(NumericalFailureError,
                           match=r"^non-finite action at step 3 of episode 2$") as err:
            call()
        assert (err.value.step_index, err.value.episode) == (3, 2)
    assert rollouts(env, policy, episode_seeds(8, 2))[1].length == env.t_max  # the others run on


def test_non_finite_state_names_the_first_episode_to_fail():
    class Drifts(DummyZeroRewardEnv):
        """Drifts up by 0.5 a step from a random start; a state above 1 steps to inf."""

        def reset(self, rng):
            return np.array([rng.uniform()])

        def step(self, state, action):
            return np.where(state > 1.0, np.inf, state + 0.5), 0.0, False

    env, policy = Drifts(), ZeroPolicy(1)
    failures = []
    for i, child in enumerate(np.random.SeedSequence(1).spawn(4)):
        with pytest.raises(NumericalFailureError) as err:
            rollout(env, policy, child)
        failures.append((err.value.step_index, i))
    step, episode = min(failures)  # the earliest step; on a tie, the first episode
    with pytest.raises(NumericalFailureError,
                       match=f"^non-finite state at step {step} of episode {episode}$"):
        rollouts(env, policy, episode_seeds(1, 4))
