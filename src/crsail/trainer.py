"""The training loop: rollout, post hoc querying, aggregation, update.

Budgets are checked only at loop entry, so the episode that crosses a budget
runs to completion and its queries are counted. Evaluation rollouts are
seeded separately and never touch the step or query counters.
"""

from __future__ import annotations

import csv
import json
import os
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from crsail.conformal import CalibratedThreshold, calibrate_radius
from crsail.core import episode_seeds, evaluate_policy, rollout, rollouts, seed_sequence
from crsail.dataset import ExpertDataset
from crsail.exceptions import ConfigurationError, InvariantError
from crsail.policy import MLPPolicy, TrainConfig, behavioral_cloning, update
from crsail.strategies import StrategyConfig, label_queries, select_queries

CSV_COLUMNS = (
    "episode", "steps_cum", "queries_episode", "queries_cum",
    "eval_mean", "eval_std", "converged_flag",
)


def _atomic_write(path, write) -> None:
    """Write through a temporary file and rename it, so no reader sees a partial file."""
    tmp = f"{path}.tmp"
    with open(tmp, "w", newline="") as fh:
        write(fh)
    os.replace(tmp, path)


def write_csv(path, header, rows) -> None:
    """Atomic CSV; floats get 17 significant digits, so they read back exactly."""
    def write(fh):
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([f"{v:.17g}" if isinstance(v, float) else v for v in row]
                         for row in rows)
    _atomic_write(path, write)


@dataclass
class Budget:
    """Caps on expert labels and environment steps; None means unbounded.

    A queries-only budget also ends after `max_queries` episodes, so a run
    whose query rate falls to 0 still stops.
    """

    max_queries: int | None = None
    max_steps: int | None = None

    def __post_init__(self):
        if self.max_queries is None and self.max_steps is None:
            raise ConfigurationError("at least one of max_queries/max_steps must be finite")
        for name in ("max_queries", "max_steps"):
            cap = getattr(self, name)
            if cap is not None and cap < 1:
                raise ConfigurationError(f"{name} must be >= 1, got {cap}")

    def exhausted(self, queries: int, steps: int, episodes: int) -> bool:
        if self.max_queries is not None and queries >= self.max_queries:
            return True
        if self.max_steps is None:
            return episodes >= self.max_queries
        return steps >= self.max_steps


@dataclass
class EpisodeMetrics:
    episode: int
    length: int
    n_queries: int
    steps_cum: int
    queries_cum: int
    eval_mean: float
    eval_std: float
    wall_time: float
    converged_flag: int


def is_expert_level(eval_mean: float, expert_mean: float) -> bool:
    """Convergence rule: within 5% of the expert's mean return.

    Written as eval >= expert - 0.05 |expert| so it also behaves sensibly for
    negative returns; for positive expert returns it reduces to the usual
    95%-of-expert rule.
    """
    return eval_mean >= expert_mean - 0.05 * abs(expert_mean)


@dataclass
class RunRecord:
    """Everything one training run produced, serializable to JSON + CSV."""

    config: dict
    threshold: dict | None = None
    expert_mean: float | None = None
    episodes: list[EpisodeMetrics] = field(default_factory=list)
    summary: dict = field(default_factory=dict)

    def compute_summary(self) -> dict:
        total_queries = sum(e.n_queries for e in self.episodes)
        total_steps = sum(e.length for e in self.episodes)
        best = max((e.eval_mean for e in self.episodes), default=None)
        qte = None if self.expert_mean is None else queries_to_expert(self, self.expert_mean)
        return {
            "episodes": len(self.episodes),
            "total_queries": total_queries,
            "total_steps": total_steps,
            "best_eval_mean": best,
            "converged": qte is not None,
            "queries_to_expert": qte,
            "expert_mean": self.expert_mean,
        }

    def finalize(self) -> "RunRecord":
        self.summary = self.compute_summary()
        return self

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "RunRecord":
        rec = cls(**{**data, "episodes": [EpisodeMetrics(**e) for e in data["episodes"]]})
        if rec.summary and rec.summary != rec.compute_summary():
            raise ConfigurationError("stored summary does not match the episode series")
        return rec

    def save_json(self, path) -> None:
        _atomic_write(path, lambda fh: fh.write(json.dumps(self.to_dict(), indent=2) + "\n"))

    @classmethod
    def load_json(cls, path) -> "RunRecord":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))

    def save_csv(self, path) -> None:
        write_csv(path, CSV_COLUMNS, [
            (e.episode, e.steps_cum, e.n_queries, e.queries_cum, e.eval_mean, e.eval_std,
             e.converged_flag) for e in self.episodes])


def build_initial_dataset(env, expert, m: int, seed) -> ExpertDataset:
    """Concatenate whole expert episodes, episode i on child i of the seed,
    until at least m pairs are collected.

    The episodes are stepped in batches of the next ceil((m - total) / t_max):
    an episode adds at most t_max pairs, so only the last of a batch can reach
    m, and no episode past the one that does is rolled out.
    """
    if m < 1:
        raise ConfigurationError("m must be >= 1")
    seeds, trajectories, total = episode_seeds(seed, m), [], 0  # each episode adds >= 1 pair
    while total < m:
        start = len(trajectories)  # then ceil((m - total) / t_max) more episodes
        batch = rollouts(env, expert, seeds[start:start - (total - m) // env.t_max])
        trajectories += batch
        total += sum(t.length for t in batch)
    return ExpertDataset(np.concatenate([t.states[:-1] for t in trajectories]),
                         np.concatenate([t.actions for t in trajectories]))


def train(env, expert, dataset: ExpertDataset, policy: MLPPolicy,
          strategy: StrategyConfig, budget: Budget, train_config: TrainConfig,
          seed, threshold: CalibratedThreshold | None = None,
          expert_mean: float | None = None, eval_episodes: int = 20,
          recalibrate_every: int = 0, m_cal: int = 30,
          run_config: dict | None = None) -> tuple[MLPPolicy, RunRecord]:
    """Iterate episodes until a budget is exhausted; returns the final policy.

    `dataset` and `policy` are the initial expert dataset and the policy
    behavior-cloned on it. For the crsail strategy a calibrated threshold is
    required. `recalibrate_every` > 0 re-runs calibration with the current
    policy and dataset every that many episodes (off by default; it is known
    to flatten the query-rate decay).
    """
    if strategy.kind == "crsail" and threshold is None:
        raise ConfigurationError("crsail strategy requires a calibrated threshold")
    rollout_ss, eval_ss, update_ss, strat_ss, recal_ss = seed_sequence(seed).spawn(5)
    update_rng = np.random.default_rng(update_ss)
    strat_rng = np.random.default_rng(strat_ss)
    radius = threshold.radius if threshold is not None else None

    dataset = dataset.copy()
    policy = policy.copy()
    initial_size = len(dataset)
    record = RunRecord(
        config=run_config or {},
        threshold=asdict(threshold) if threshold is not None else None,
        expert_mean=expert_mean,
    )

    i, steps, queries = 0, 0, 0
    while not budget.exhausted(queries, steps, i):
        t0 = time.perf_counter()
        try:
            traj = rollout(env, policy, rollout_ss.spawn(1)[0])
            ensemble = None
            if strategy.kind == "ensemble-variance":  # bootstrap members, for the doubt score
                ensemble = behavioral_cloning(dataset, train_config, update_rng,
                                              members=strategy.ensemble_size)
            qs = select_queries(strategy, traj, dataset, radius=radius, rng=strat_rng,
                                ensemble=ensemble)
            q_states, q_actions = label_queries(expert, traj, qs)
            dataset.append(q_states, q_actions)
            policy = update(policy, dataset, train_config, update_rng)
        except Exception as exc:
            exc.add_note(f"in training iteration {i}")
            raise
        steps += traj.length
        queries += len(qs)
        eval_mean, eval_std = evaluate_policy(env, policy, eval_episodes, eval_ss.spawn(1)[0])
        flag = int(expert_mean is not None and is_expert_level(eval_mean, expert_mean))
        record.episodes.append(EpisodeMetrics(
            episode=i, length=traj.length, n_queries=len(qs), steps_cum=steps,
            queries_cum=queries, eval_mean=eval_mean, eval_std=eval_std,
            wall_time=time.perf_counter() - t0, converged_flag=flag,
        ))
        i += 1
        if recalibrate_every > 0 and i % recalibrate_every == 0 and strategy.kind == "crsail":
            radius = calibrate_radius(env, policy, dataset, strategy, m_cal,
                                      recal_ss.spawn(1)[0]).radius

    if len(dataset) != initial_size + queries:
        raise InvariantError(f"dataset holds {len(dataset)} pairs, expected "
                             f"{initial_size} initial + {queries} queried")
    return policy, record.finalize()


def queries_to_expert(record: RunRecord, expert_mean: float) -> int | None:
    """Cumulative queries when the eval mean first reaches expert level."""
    for e in record.episodes:
        if is_expert_level(e.eval_mean, expert_mean):
            return e.queries_cum
    return None
