"""Episode rollout and policy evaluation.

Environments expose `state_dim`, `action_dim`, `t_max`, `reset(rng)` and
`step(state, action) -> (next_state, reward, terminal)`, where `step` also
takes a stack of states and actions, one row per episode, and gives each row
the bits a one-row step would (a single reward or terminal flag stands for
every row). Policies and experts expose `act(states) -> actions` over the
same kind of stack: an (n, d) stack gets an (n, a) block, one action row per
state, each row with the bits of a one-state call.

`rollouts(env, policy, seeds)` runs every episode: one per seed, stepped
together. `episode_seeds(seed, n)` gives the seeds of n episodes, so episode
i of any multi-episode call runs on child i of its seed, and `rollout` is
the one-episode case. Rollouts are pure functions of (environment
parameters, policy parameters, seed).
"""

from __future__ import annotations

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


def act(policy, states: np.ndarray) -> np.ndarray:
    """`policy.act` on an (n, d) stack of states, checked to give one action row
    per state."""
    actions = np.asarray(policy.act(states), dtype=np.float64)
    if actions.ndim != 2 or len(actions) != len(states):
        raise ConfigurationError(
            f"{type(policy).__name__}.act gave shape {actions.shape} for {len(states)} "
            "states; expected one action row per state")
    return actions


def _check_finite(values: np.ndarray, live: np.ndarray, what: str, t: int) -> None:
    """Raise for the first episode whose row of `values` is not all finite."""
    finite = np.isfinite(values)
    if not finite.all():
        episode = live[np.argmin(finite.all(axis=1))]
        raise NumericalFailureError(f"non-finite {what} of episode {episode}", step_index=t,
                                    episode=int(episode))


def rollouts(env, policy, seeds) -> list[Trajectory]:
    """One episode per seed (an int, a tuple of ints or a SeedSequence; the
    initial state is drawn from its generator), all stepped together on an
    (n, d) state block, each episode with the bits it gets alone.

    Row j of the block is episode `live[j]`. Each episode stops at its first
    terminal state or at t_max, so its length L satisfies 1 <= L <= t_max,
    and then leaves the block. A non-finite state or action raises
    `NumericalFailureError` with its step index and episode index.
    """
    x0 = np.array([env.reset(np.random.default_rng(s)) for s in seeds], dtype=np.float64)
    live = np.arange(len(seeds))
    _check_finite(x0, live, "initial state", 0)
    x, steps = x0, []  # per step: (live, next states, actions, rewards)
    for t in range(env.t_max):
        u = act(policy, x)
        _check_finite(u, live, f"action at step {t}", t)
        x, r, terminal = env.step(x, u)
        x = np.asarray(x, dtype=np.float64)
        _check_finite(x, live, f"state at step {t}", t)
        r, terminal = np.asarray(r, dtype=np.float64), np.asarray(terminal)
        if r.ndim == 0:  # one reward for every row
            r = np.full(live.shape, r)
        steps.append((live, x, u, r))
        if terminal.any():
            going = ~np.broadcast_to(terminal, live.shape)
            if not going.any():
                break
            live, x = live[going], x[going]

    # Regroup the step-major rows by episode, each episode's rows in step order.
    owner = np.concatenate([step[0] for step in steps])
    order = np.argsort(owner, kind="stable")
    states, actions, rewards = (np.concatenate([step[k] for step in steps])[order]
                                for k in (1, 2, 3))
    lengths = np.bincount(owner, minlength=len(seeds))
    ends = np.cumsum(lengths)
    return [Trajectory(states=np.concatenate([x0[i:i + 1], states[end - n:end]]),
                       actions=actions[end - n:end], rewards=rewards[end - n:end])
            for i, (n, end) in enumerate(zip(lengths, ends))]


def rollout(env, policy, seed) -> Trajectory:
    """The one-episode case of `rollouts`."""
    return rollouts(env, policy, [seed])[0]


def seed_sequence(seed) -> np.random.SeedSequence:
    """`seed` as a SeedSequence; one that already is one is returned as is."""
    return seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)


def episode_seeds(seed, n_episodes: int) -> list[np.random.SeedSequence]:
    """The seeds of `n_episodes` episodes: episode i runs on child i of `seed`."""
    if n_episodes < 1:
        raise ConfigurationError("n_episodes must be >= 1")
    return seed_sequence(seed).spawn(n_episodes)


def evaluate_policy(env, policy, n_episodes: int, seed,
                    carry=None) -> tuple[float, float, Trajectory | None]:
    """Mean and standard deviation of episode returns over seeded rollouts, and
    the episode on seed `carry` (None without one).

    The carried episode is one more row of the same block, after the
    `n_episodes` evaluation rows, so it gets the bits it gets alone and
    counts in neither statistic; a failure in it names episode `n_episodes`.
    Evaluation rollouts never touch training budgets or the expert dataset.
    """
    seeds = episode_seeds(seed, n_episodes)
    trajectories = rollouts(env, policy, seeds if carry is None else [*seeds, carry])
    returns = np.array([t.episode_return for t in trajectories[:n_episodes]])
    carried = None if carry is None else trajectories[-1]
    return float(returns.mean()), float(returns.std()), carried
