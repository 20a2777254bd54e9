"""Analytic continuous-control environments with scripted expert controllers.

Three desk-scale tasks: an unstable inverted pendulum with early termination,
a planar pushing task with randomized goals and a fixed horizon, and a double
integrator with an LQR expert used as a sanity environment. Dynamics use
fixed-step Euler integration so episodes replay exactly.

Each `step` and each expert's `act` works over the last axis, so it takes one
state (d,) or a stack (n, d), and each row of a stack gets the same bits as a
call on that row alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from crsail.exceptions import (ConfigurationError, bounded, build_section, check_fields,
                               check_value)


def _norm(v: np.ndarray) -> np.ndarray:
    """Euclidean norm over the last axis; unlike `np.linalg.norm(v, axis=-1)`,
    a row of a stack gets the same bits as the row alone."""
    return np.sqrt(np.vecdot(v, v))


def _cap_norm(v: np.ndarray, cap: float) -> np.ndarray:
    """`v` (or each row of it), scaled down to norm `cap` if it is longer."""
    return v * (cap / np.maximum(_norm(v), cap))[..., None]  # a shorter row is times 1.0


@dataclass(kw_only=True)
class EnvParams:
    """What every environment's params hold: Euler step and horizon; a subclass
    that gives `dt` or `t_max` a default repeats its bound."""

    dt: float = bounded(gt=0)
    t_max: int = bounded(ge=1)

    def __post_init__(self):
        check_fields(self)


class Env:
    """What every environment shares: default params, horizon and reset.

    A subclass names its `Params` and `Expert` classes and, in `init_ranges`,
    the params field that bounds each initial-state coordinate: `reset` draws
    coordinate j uniformly from [-w_j, w_j].
    """

    def __init__(self, params: EnvParams | None = None):
        self.params = params or self.Params()

    @property
    def t_max(self) -> int:
        return self.params.t_max

    def reset(self, rng: np.random.Generator) -> np.ndarray:
        w = np.array([getattr(self.params, name) for name in self.init_ranges])
        return rng.uniform(-w, w)


@dataclass(kw_only=True)
class PendulumParams(EnvParams):
    dt: float = bounded(default=0.05, gt=0)
    t_max: int = bounded(default=200, ge=1)
    g: float = 9.81
    length: float = bounded(default=1.0, gt=0)
    mass: float = bounded(default=1.0, gt=0)
    damping: float = 0.1
    # 5.0 N*m rather than 3.0: at 3.0 the gravity torque outruns the actuator
    # before worst-case initial velocity can be dumped, so no gains can meet
    # the 99% expert success certification.
    u_max: float = bounded(default=5.0, gt=0)
    theta_fail: float = bounded(default=math.pi / 2, gt=0, le=math.pi)
    theta_init: float = 0.3
    theta_dot_init: float = 0.5


class PendulumExpert:
    """PD stabilizer; gains certified by the expert success-rate test."""

    KP = 12.0
    KD = 3.0

    def __init__(self, params: PendulumParams | None = None):
        self.params = params or PendulumParams()

    def act(self, state) -> np.ndarray:
        u = -self.KP * state[..., 0] - self.KD * state[..., 1]
        u_max = self.params.u_max
        return np.clip(u, -u_max, u_max)[..., None]


class Pendulum(Env):
    """Inverted pendulum: state (theta, theta_dot), scalar torque action.

    Reward is 1 per non-terminal step; the episode ends when |theta| exceeds
    the failure bound. Semi-implicit Euler: the velocity is advanced first and
    the new velocity moves the angle.
    """

    state_dim = 2
    action_dim = 1
    Params = PendulumParams
    Expert = PendulumExpert
    init_ranges = ("theta_init", "theta_dot_init")

    def step(self, state, action):
        p = self.params
        theta, theta_dot = state[..., 0], state[..., 1]
        u = np.asarray(action)[..., 0].clip(-p.u_max, p.u_max)
        theta_dot = theta_dot + p.dt * (
            (p.g / p.length) * np.sin(theta)
            + u / (p.mass * p.length**2)
            - p.damping * theta_dot
        )
        theta = theta + p.dt * theta_dot
        terminal = np.abs(theta) > p.theta_fail
        next_state = np.concatenate([theta[..., None], theta_dot[..., None]], axis=-1)
        return next_state, np.where(terminal, 0.0, 1.0), terminal


@dataclass(kw_only=True)
class PusherParams(EnvParams):
    dt: float = bounded(default=0.1, gt=0)
    t_max: int = bounded(default=100, ge=1)
    speed_cap: float = bounded(default=1.0, gt=0)
    contact_radius: float = bounded(default=0.15, gt=0)
    push_gain: float = bounded(default=0.8, gt=0, le=1)
    goal_range: float = 1.0
    object_range: float = 0.6
    agent_range: float = 1.0


class PusherExpert:
    """Two-phase scripted pusher.

    Phase 1: move to the standoff point behind the object on the object-goal
    line, detouring sideways when the agent sits between object and goal so
    the repositioning move does not drag the object backwards. Phase 2: drive
    through the object toward the goal; since the object follows the agent's
    displacement while in contact, holding full speed carries it along. Stops
    once the object is close enough to the goal.
    """

    STANDOFF = 0.2
    ALIGN_TOL = 0.06
    GOAL_TOL = 0.03

    def __init__(self, params: PusherParams | None = None):
        self.params = params or PusherParams()

    def act(self, state) -> np.ndarray:
        p = self.params
        agent, obj, goal = state[..., 0:2], state[..., 2:4], state[..., 4:6]
        to_goal = goal - obj
        dist = _norm(to_goal)
        at_goal = dist < self.GOAL_TOL
        # Every move is computed for every row and `np.where` picks one; a
        # divisor that is 0 only where its move is not picked is replaced by 1.
        direction = to_goal / np.where(at_goal, 1.0, dist)[..., None]
        rel = agent - obj
        proj = np.vecdot(rel, direction)
        perp_vec = rel - proj[..., None] * direction
        perp = _norm(perp_vec)
        unit_perp = perp_vec / np.where(perp > 1e-12, perp, 1.0)[..., None]
        in_contact = _norm(rel) <= p.contact_radius
        behind_aligned = (proj < 0) & (perp < self.ALIGN_TOL)

        standoff = obj - self.STANDOFF * direction
        # agent between object and goal: swing wide before coming back
        clearance = p.contact_radius + self.STANDOFF * 0.5
        side = np.where((perp > 1e-12)[..., None], unit_perp,
                        np.stack([-direction[..., 1], direction[..., 0]], axis=-1))
        swing = np.where((perp < clearance)[..., None], side * p.speed_cap,
                         (standoff + clearance * unit_perp - agent) / p.dt)
        v = np.where((in_contact | behind_aligned)[..., None], direction * p.speed_cap,
                     np.where((proj <= 0)[..., None], (standoff - agent) / p.dt, swing))
        return np.where(at_goal[..., None], 0.0, _cap_norm(v, p.speed_cap))


class Pusher(Env):
    """Kinematic pushing: state (agent xy, object xy, goal xy), velocity action.

    The goal is part of the state so novelty scoring sees target
    randomization. The object moves by push_gain times the agent displacement
    while in contact. Fixed horizon, no early termination; reward is the
    negative object-goal distance.
    """

    state_dim = 6
    action_dim = 2
    Params = PusherParams
    Expert = PusherExpert
    init_ranges = ("agent_range",) * 2 + ("object_range",) * 2 + ("goal_range",) * 2

    def step(self, state, action):
        p = self.params
        agent, obj, goal = state[..., 0:2], state[..., 2:4], state[..., 4:6]
        move = p.dt * _cap_norm(np.asarray(action, dtype=np.float64), p.speed_cap)
        agent_next = agent + move
        contact = _norm(agent_next - obj) <= p.contact_radius
        obj_next = np.where(contact[..., None], obj + p.push_gain * move, obj)
        reward = -_norm(obj_next - goal)
        return np.concatenate([agent_next, obj_next, goal], axis=-1), reward, False


@dataclass(kw_only=True)
class DoubleIntegratorParams(EnvParams):
    dt: float = bounded(default=0.1, gt=0)
    t_max: int = bounded(default=150, ge=1)
    accel_cap: float = bounded(default=1.0, gt=0)
    pos_range: float = 1.0
    vel_range: float = 0.3


def _discrete_lqr_gain(a, b, q, r, iters: int = 500, tol: float = 1e-12) -> np.ndarray:
    """Discrete-time LQR gain via Riccati fixed-point iteration."""
    p = q.copy()
    for _ in range(iters):
        btp = b.T @ p
        k = np.linalg.solve(r + btp @ b, btp @ a)
        p_next = q + a.T @ p @ (a - b @ k)
        if np.max(np.abs(p_next - p)) < tol:
            p = p_next
            break
        p = p_next
    btp = b.T @ p
    return np.linalg.solve(r + btp @ b, btp @ a)


class DoubleIntegratorExpert:
    """LQR controller for the double integrator; gain computed once."""

    def __init__(self, params: DoubleIntegratorParams | None = None):
        self.params = params or DoubleIntegratorParams()
        dt = self.params.dt
        a = np.eye(4)
        a[0, 2] = dt
        a[1, 3] = dt
        b = np.zeros((4, 2))
        b[2, 0] = dt
        b[3, 1] = dt
        self.gain = _discrete_lqr_gain(a, b, np.eye(4), np.eye(2))

    def act(self, state) -> np.ndarray:
        # one matrix-vector product per row: a single stack-wide product may round differently
        u = (-self.gain @ np.asarray(state, dtype=np.float64)[..., :, None])[..., 0]
        return _cap_norm(u, self.params.accel_cap)


class DoubleIntegrator(Env):
    """Planar double integrator: state (p, v) in R^4, acceleration action.

    Explicit Euler with the old velocity moving the position. Fixed horizon;
    reward penalizes distance from the origin (evaluation only).
    """

    state_dim = 4
    action_dim = 2
    Params = DoubleIntegratorParams
    Expert = DoubleIntegratorExpert
    init_ranges = ("pos_range",) * 2 + ("vel_range",) * 2

    def step(self, state, action):
        p = self.params
        pos, vel = state[..., 0:2], state[..., 2:4]
        a = _cap_norm(np.asarray(action, dtype=np.float64), p.accel_cap)
        pos_next = pos + p.dt * vel
        vel_next = vel + p.dt * a
        reward = -(np.vecdot(pos_next, pos_next) + np.vecdot(vel_next, vel_next))
        return np.concatenate([pos_next, vel_next], axis=-1), reward, False


KINDS = {"pendulum": Pendulum, "pusher": Pusher, "double_integrator": DoubleIntegrator}


def make_env(kind: str, /, **params) -> Env:
    """The `kind` environment, its params built as a config's [env] section is:
    a bad key or value is named `env.key`, a bad kind `experiment.env`."""
    check_value("experiment.env", "str", kind, {"one_of": KINDS})
    return KINDS[kind](build_section("env", KINDS[kind].Params, params))


def make_expert(env):
    """The scripted expert of the env's kind; a subclass keeps its parent's."""
    expert_cls = getattr(env, "Expert", None)
    if expert_cls is None:
        raise ConfigurationError(f"no expert available for {type(env).__name__}")
    return expert_cls(env.params)
