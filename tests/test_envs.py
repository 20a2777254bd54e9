import math

import numpy as np
import pytest
from scipy.linalg import solve_discrete_are

from crsail.core import episode_seeds, evaluate_policy, rollout, rollouts
from crsail.envs import (
    DoubleIntegrator,
    DoubleIntegratorExpert,
    Pendulum,
    PendulumExpert,
    PendulumParams,
    Pusher,
    PusherExpert,
    PusherParams,
    _cap_norm,
    _discrete_lqr_gain,
    make_env,
    make_expert,
)
from crsail.exceptions import ConfigurationError
from helpers import FixedStart, ZeroPolicy, same_bits


def test_pendulum_equilibrium_is_fixed_point():
    env = Pendulum()
    nxt, reward, terminal = env.step(np.zeros(2), np.zeros(1))
    assert np.array_equal(nxt, np.zeros(2))
    assert reward == 1.0 and not terminal


def test_pendulum_step_matches_hand_evaluation():
    env = Pendulum()
    p = env.params
    nxt, _, _ = env.step(np.array([0.1, 0.0]), np.zeros(1))
    theta_dot = p.dt * (p.g / p.length) * math.sin(0.1)
    assert nxt[1] == pytest.approx(theta_dot, rel=1e-15)
    assert nxt[0] == pytest.approx(0.1 + p.dt * theta_dot, rel=1e-15)


def test_pendulum_fast_spin_crosses_failure_bound():
    env = Pendulum()
    nxt, reward, terminal = env.step(np.array([1.55, 5.0]), np.array([env.params.u_max]))
    assert terminal and nxt[0] > math.pi / 2
    assert reward == 0.0


def test_pusher_no_contact_leaves_object():
    env = Pusher()
    state = np.array([-1.0, -1.0, 0.5, 0.5, 0.0, 0.0])
    nxt, _, _ = env.step(state, np.array([1.0, 0.0]))
    assert np.array_equal(nxt[2:4], state[2:4])


def test_pusher_contact_moves_object_by_gain_times_displacement():
    env = Pusher()
    state = np.array([0.3, 0.3, 0.3, 0.3, 1.0, 1.0])
    nxt, _, _ = env.step(state, np.array([1.0, 0.0]))
    assert nxt[2] == pytest.approx(0.3 + 0.08, abs=1e-15)
    assert nxt[3] == pytest.approx(0.3, abs=1e-15)


def test_pusher_object_at_goal_zero_reward():
    env = Pusher()
    state = np.array([-1.0, -1.0, 0.2, 0.2, 0.2, 0.2])
    _, reward, _ = env.step(state, np.zeros(2))
    assert reward == 0.0


def test_pusher_action_speed_is_capped():
    env = Pusher()
    state = np.zeros(6)
    state[0:2] = [-1.0, -1.0]
    nxt, _, _ = env.step(state, np.array([100.0, 0.0]))
    assert nxt[0] - state[0] == pytest.approx(env.params.dt * env.params.speed_cap)


def test_experts_idle_at_their_equilibria():
    assert np.array_equal(PendulumExpert().act(np.zeros(2)), np.zeros(1))
    assert np.array_equal(DoubleIntegratorExpert().act(np.zeros(4)), np.zeros(2))


@pytest.mark.parametrize("theta,theta_dot", [(0.3, 0.5), (0.3, -0.5), (-0.3, 0.5), (-0.3, -0.5)])
def test_pendulum_expert_survives_worst_case_inits(theta, theta_dot):
    env = FixedStart(Pendulum(), [theta, theta_dot])
    traj = rollout(env, PendulumExpert(env.params), 0)
    assert traj.length == env.t_max


def test_pendulum_expert_certification():
    # certifies the expert before any imitation experiment
    env = make_env("pendulum")
    expert = make_expert(env)
    successes = sum(rollout(env, expert, s).episode_return == 200.0 for s in range(1000))
    assert successes >= 990


def test_pusher_expert_beats_zero_policy_3x():
    env = make_env("pusher")
    expert = make_expert(env)
    expert_mean, _, _ = evaluate_policy(env, expert, 200, 7)
    zero_mean, _, _ = evaluate_policy(env, ZeroPolicy(2), 200, 7)
    assert expert_mean > zero_mean
    assert expert_mean >= zero_mean / 3.0


def test_step_functions_finite_on_random_inputs():
    rng = np.random.default_rng(0)
    for env in (make_env("pendulum"), make_env("pusher"), make_env("double_integrator")):
        for _ in range(50):
            state = rng.normal(scale=2.0, size=env.state_dim)
            action = rng.normal(scale=5.0, size=env.action_dim)
            nxt, reward, _ = env.step(state, action)
            assert np.all(np.isfinite(nxt)) and np.isfinite(reward)


def test_lqr_gain_matches_riccati_solver():
    dt = 0.1
    a = np.eye(4)
    a[0, 2] = dt
    a[1, 3] = dt
    b = np.zeros((4, 2))
    b[2, 0] = dt
    b[3, 1] = dt
    q, r = np.eye(4), np.eye(2)
    p = solve_discrete_are(a, b, q, r)
    k_ref = np.linalg.solve(r + b.T @ p @ b, b.T @ p @ a)
    np.testing.assert_allclose(_discrete_lqr_gain(a, b, q, r), k_ref, atol=1e-8)


def test_double_integrator_expert_stabilizes():
    env = make_env("double_integrator")
    expert = make_expert(env)
    traj = rollout(env, expert, 3)
    assert np.linalg.norm(traj.states[-1]) < 0.05


def test_invalid_params_rejected():
    with pytest.raises(ConfigurationError):
        PendulumParams(dt=-1.0)
    with pytest.raises(ConfigurationError):
        PusherParams(push_gain=1.5)
    with pytest.raises(ConfigurationError):
        make_env("mujoco")
    for kind, overrides in [
        ("pendulum", {"length": 0.0}),
        ("pendulum", {"mass": -1.0}),
        ("pendulum", {"t_max": 0}),
        ("pusher", {"dt": 0.0}),
        ("pusher", {"dt": -0.1}),
        ("pusher", {"speed_cap": 0.0}),
        ("pusher", {"speed_cap": -1.0}),
        ("pusher", {"t_max": 0}),
        ("double_integrator", {"accel_cap": 0.0}),
        ("double_integrator", {"accel_cap": -1.0}),
        ("double_integrator", {"t_max": 0}),
    ]:
        with pytest.raises(ConfigurationError):
            make_env(kind, **overrides)


@pytest.mark.parametrize("kind, draws", [
    ("pendulum", [("theta_init", None), ("theta_dot_init", None)]),
    ("pusher", [("agent_range", 2), ("object_range", 2), ("goal_range", 2)]),
    ("double_integrator", [("pos_range", 2), ("vel_range", 2)]),
])
def test_reset_matches_per_coordinate_draws(kind, draws):
    env = make_env(kind)
    for seed in range(20):
        rng, oracle = np.random.default_rng(seed), np.random.default_rng(seed)
        expected = np.hstack([oracle.uniform(-getattr(env.params, name), getattr(env.params, name),
                                             size=size) for name, size in draws])
        assert np.array_equal(env.reset(rng), expected)
        assert rng.random() == oracle.random()  # the stream continues in step


def test_env_subclass_gets_parent_expert():
    class TallPendulum(Pendulum):
        pass

    env = TallPendulum(PendulumParams(length=2.0))
    expert = make_expert(env)
    assert type(expert) is PendulumExpert and expert.params is env.params
    assert type(make_expert(make_env("pusher"))) is PusherExpert
    with pytest.raises(ConfigurationError):
        make_expert(object())


def test_make_env_names_unknown_and_non_numeric_params():
    with pytest.raises(ConfigurationError, match="^unknown config key env.speed$"):
        make_env("pusher", speed=1.0)
    with pytest.raises(ConfigurationError, match="^env.dt: expected a number, got 'fast'$"):
        make_env("pendulum", dt="fast")
    with pytest.raises(ConfigurationError, match="^env.t_max: expected an integer, got True$"):
        make_env("double_integrator", t_max=True)
    assert make_env("pendulum", dt=np.float64(0.01), t_max=np.int64(5)).t_max == 5


def _stack(env, rng, n=400):
    """Random states and actions, with zero actions, oversized ones and (pusher) contacts."""
    states = rng.normal(scale=1.0, size=(n, env.state_dim))
    actions = rng.normal(scale=2.0, size=(n, env.action_dim))
    actions[::7] = 0.0
    actions[1::7] *= 100.0
    if env.state_dim == 6:  # agent next to the object in every other row
        states[::2, 2:4] = states[::2, 0:2] + rng.uniform(-0.2, 0.2, size=(n // 2, 2))
    return states, actions


@pytest.mark.parametrize("kind", ["pendulum", "pusher", "double_integrator"])
def test_step_on_a_stack_equals_step_row_by_row(kind):
    env = make_env(kind)
    states, actions = _stack(env, np.random.default_rng(4))
    with np.errstate(all="raise"):  # a zero-norm row must not divide by zero
        nxt, reward, terminal = env.step(states, actions)
        rows = [env.step(x, u) for x, u in zip(states, actions)]
    terminal = np.broadcast_to(terminal, reward.shape)
    assert same_bits(nxt, np.array([r[0] for r in rows]))
    assert same_bits(reward, np.array([r[1] for r in rows]))
    assert np.array_equal(terminal, [r[2] for r in rows])
    if kind == "pendulum":
        assert 0 < terminal.sum() < len(terminal)


@pytest.mark.parametrize("kind, name", [("pendulum", "dt"), ("pendulum", "g"),
                                        ("pusher", "contact_radius"), ("pusher", "dt"),
                                        ("double_integrator", "vel_range")])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_non_finite_params_rejected(kind, name, value):
    with pytest.raises(ConfigurationError):
        make_env(kind, **{name: value})


# The one-state `act` bodies the stack versions replaced, kept as their oracles.
class OneStatePendulumExpert(PendulumExpert):
    def act(self, state):
        u = -self.KP * state[0] - self.KD * state[1]
        u_max = self.params.u_max
        return np.array([np.clip(u, -u_max, u_max)])


class OneStatePusherExpert(PusherExpert):
    def act(self, state):
        p = self.params
        agent, obj, goal = state[0:2], state[2:4], state[4:6]
        to_goal = goal - obj
        dist = np.linalg.norm(to_goal)
        if dist < self.GOAL_TOL:
            return np.zeros(2)
        direction = to_goal / dist
        rel = agent - obj
        proj = rel @ direction
        perp_vec = rel - proj * direction
        perp = np.linalg.norm(perp_vec)
        in_contact = np.linalg.norm(rel) <= p.contact_radius
        behind_aligned = proj < 0 and perp < self.ALIGN_TOL

        if in_contact or behind_aligned:
            v = direction * p.speed_cap
        elif proj <= 0:
            v = (obj - self.STANDOFF * direction - agent) / p.dt
        else:
            clearance = p.contact_radius + self.STANDOFF * 0.5
            if perp < clearance:
                side = perp_vec / perp if perp > 1e-12 else np.array([-direction[1], direction[0]])
                v = side * p.speed_cap
            else:
                v = (obj - self.STANDOFF * direction + clearance * (perp_vec / perp) - agent) / p.dt
        return _cap_norm(v, p.speed_cap)


class OneStateDoubleIntegratorExpert(DoubleIntegratorExpert):
    def act(self, state):
        u = -self.gain @ np.asarray(state, dtype=np.float64)
        return _cap_norm(u, self.params.accel_cap)


ONE_STATE = {PendulumExpert: OneStatePendulumExpert, PusherExpert: OneStatePusherExpert,
             DoubleIntegratorExpert: OneStateDoubleIntegratorExpert}


def _degenerate_pusher_states():
    """Rows where a move the expert does not pick divides by zero: the object at
    the goal, the agent on the object-goal line (before, in contact with and
    behind the object, on both axes) and the agent on the object."""
    rows = []
    for obj, goal in [((0.2, -0.3), (0.2, -0.3)), ((0.0, 0.0), (1.0, 0.0)),
                      ((0.3, 0.1), (0.3, -0.9)), ((-0.4, 0.5), (-0.4, 0.51))]:
        obj, goal = np.array(obj), np.array(goal)
        for t in (-1.0, -0.5, -0.2, -0.1, 0.0, 0.1, 0.5, 1.0, 2.0):
            rows.append(np.concatenate([obj + t * (goal - obj), obj, goal]))
        rows.append(np.concatenate([(0.9, 0.9), obj, goal]))
    return np.array(rows)


@pytest.mark.parametrize("kind", ["pendulum", "pusher", "double_integrator"])
def test_expert_on_a_stack_equals_the_one_state_expert(kind):
    env = make_env(kind)
    expert = make_expert(env)
    oracle = ONE_STATE[type(expert)](env.params)
    visited = [t.states for t in rollouts(env, expert, episode_seeds(5, 20))]
    drawn = np.random.default_rng(6).uniform(-2.0, 2.0, size=(2000, env.state_dim))
    states = np.concatenate(visited + [drawn])
    if kind == "pusher":
        states = np.concatenate([states, _degenerate_pusher_states()])
    with np.errstate(all="raise"):  # a move that is not picked must not divide by zero
        stacked = expert.act(states)
        assert same_bits(stacked, np.array([oracle.act(x) for x in states]))
        assert same_bits(stacked, np.array([expert.act(x) for x in states]))


def test_one_state_expert_given_a_stack_is_rejected():
    env = make_env("pendulum")
    with pytest.raises(ConfigurationError,
                       match=r"^OneStatePendulumExpert\.act gave shape \(1, 2\) for 5 states"):
        rollouts(env, OneStatePendulumExpert(env.params), episode_seeds(0, 5))
