"""Episode rollout and policy evaluation.

Environments expose `state_dim`, `action_dim`, `t_max`, `reset(rng)` and
`step(state, action) -> (next_state, reward, terminal)`. Policies expose
`act(state) -> action`. Rollouts are pure functions of (environment
parameters, policy parameters, seed).
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from crsail.exceptions import ConfigurationError, NumericalFailureError


@dataclass
class Trajectory:
    """One episode: visited states (length L+1), actions and rewards (length L)."""

    states: np.ndarray
    actions: np.ndarray
    rewards: np.ndarray

    @property
    def length(self) -> int:
        return len(self.actions)

    @property
    def episode_return(self) -> float:
        return float(self.rewards.sum())

    def __post_init__(self):
        if len(self.states) != len(self.actions) + 1:
            raise ConfigurationError("trajectory must satisfy len(states) == len(actions) + 1")


def rollout(env, policy, seed) -> Trajectory:
    """Roll the policy out for one episode.

    Stops at the first terminal state or at t_max, whichever comes first, so
    the episode length L satisfies 1 <= L <= t_max. `seed` may be an int, a
    tuple of ints or a numpy SeedSequence; all stochasticity (the initial
    state draw) comes from the resulting generator.
    """
    rng = np.random.default_rng(seed)
    x = np.asarray(env.reset(rng), dtype=np.float64)
    if not np.all(np.isfinite(x)):
        raise NumericalFailureError("non-finite initial state", step_index=0)
    states = [x]
    actions = []
    rewards = []
    for t in range(env.t_max):
        u = np.atleast_1d(np.asarray(policy.act(x), dtype=np.float64))
        if not np.all(np.isfinite(u)):
            raise NumericalFailureError(f"non-finite action at step {t}", step_index=t)
        x, r, terminal = env.step(x, u)
        x = np.asarray(x, dtype=np.float64)
        if not np.all(np.isfinite(x)):
            raise NumericalFailureError(f"non-finite state at step {t}", step_index=t)
        states.append(x)
        actions.append(u)
        rewards.append(float(r))
        if terminal:
            break
    return Trajectory(
        states=np.array(states), actions=np.array(actions), rewards=np.array(rewards)
    )


def seed_sequence(seed) -> np.random.SeedSequence:
    """`seed` as a SeedSequence; one that already is one is returned as is."""
    return seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)


def rollouts(env, policy, seed, n_episodes: int) -> Iterator[Trajectory]:
    """`n_episodes` seeded episodes, each rolled out when it is drawn.

    Episode i runs on child i of `seed`, so a caller that stops drawing early
    sees the same episodes as one that draws them all.
    """
    if n_episodes < 1:
        raise ConfigurationError("n_episodes must be >= 1")
    seed = seed_sequence(seed)
    return (rollout(env, policy, seed.spawn(1)[0]) for _ in range(n_episodes))


def evaluate_policy(env, policy, n_episodes: int, seed) -> tuple[float, float]:
    """Mean and standard deviation of episode returns over seeded rollouts.

    Evaluation rollouts never touch training budgets or the expert dataset.
    """
    returns = np.array([t.episode_return for t in rollouts(env, policy, seed, n_episodes)])
    return float(returns.mean()), float(returns.std())
