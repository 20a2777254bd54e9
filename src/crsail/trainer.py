"""The training loop: rollout, post hoc querying, aggregation, update.

Budgets are checked once per iteration, after its update and just before its
evaluation block, so the episode that crosses a budget runs to completion and
its queries are counted, and no episode is rolled out past a budget. While
the budget holds, the evaluation block also rolls out the next iteration's
training episode as one more row: it uses the policy just evaluated, and the
block gives it the bits it gets alone. Evaluation rollouts are seeded
separately and never touch the step or query counters.
"""

from __future__ import annotations

import csv
import json
import os
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from crsail.conformal import CalibratedThreshold
from crsail.core import evaluate_policy, rollout, rollouts, seed_sequence
from crsail.dataset import ExpertDataset, Standardizer
from crsail.exceptions import (ConfigurationError, InvariantError, NumericalFailureError, bounded,
                               check_fields)
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
    """Caps on environment steps and, optionally, on expert labels; a run
    ends when it reaches either. Every run has a step cap, so every run ends."""

    max_steps: int = bounded(ge=1)
    max_queries: int | None = bounded(default=None, ge=1)

    def __post_init__(self):
        check_fields(self)

    def exhausted(self, queries: int, steps: int) -> bool:
        return steps >= self.max_steps or (self.max_queries is not None
                                           and queries >= self.max_queries)


@dataclass
class EpisodeMetrics:
    """One training iteration's counts, evaluation and time.

    `wall_time` runs from the end of the previous episode's (episode 0's from
    the start of the loop, so it covers its own rollout). It covers the
    selection, labelling and update, and the evaluation block that carries the
    next training episode; the episodes' times add up to the training loop's.
    """

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

    @property
    def summary(self) -> dict:
        """The run's totals, derived from its episodes. Queries to expert are
        those of the first episode whose `converged_flag` is set."""
        qte = next((e.queries_cum for e in self.episodes if e.converged_flag), None)
        return {
            "episodes": len(self.episodes),
            "total_queries": sum(e.n_queries for e in self.episodes),
            "total_steps": sum(e.length for e in self.episodes),
            "best_eval_mean": max((e.eval_mean for e in self.episodes), default=None),
            "converged": qte is not None,
            "queries_to_expert": qte,
            "expert_mean": self.expert_mean,
        }

    def to_dict(self) -> dict:
        return {**asdict(self), "summary": self.summary}

    @classmethod
    def from_dict(cls, data: dict) -> "RunRecord":
        data = {**data}  # a TypeError unless `data` is a mapping
        stored = data.pop("summary", None)
        rec = cls(**{**data, "episodes": [EpisodeMetrics(**e) for e in data["episodes"]]})
        if not isinstance(rec.config, dict):
            raise ConfigurationError(f"config must be a dict, got {type(rec.config).__name__}")
        if stored != rec.summary:
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
    until at least m pairs are collected, with the standardizer fitted on
    these initial states: it stays frozen as the dataset grows.

    The episodes are stepped in batches of the next ceil((m - total) / t_max):
    an episode adds at most t_max pairs, so only the last of a batch can reach
    m, and no episode past the one that does is rolled out. A SeedSequence
    passed as `seed` is advanced by the episodes rolled out, not by m.
    """
    if m < 1:
        raise ConfigurationError("m must be >= 1")
    seed, trajectories, total = seed_sequence(seed), [], 0
    while total < m:  # spawn ceil((m - total) / t_max) more episodes' seeds
        batch = rollouts(env, expert, seed.spawn(-((total - m) // env.t_max)))
        trajectories += batch
        total += sum(t.length for t in batch)
    states = np.concatenate([t.states[:-1] for t in trajectories])
    return ExpertDataset(states, np.concatenate([t.actions for t in trajectories]),
                         Standardizer.fit(states))


def train(env, expert, dataset: ExpertDataset, policy: MLPPolicy,
          strategy: StrategyConfig, budget: Budget, train_config: TrainConfig,
          seed, threshold: CalibratedThreshold | None = None,
          expert_mean: float | None = None, eval_episodes: int = 20,
          run_config: dict | None = None) -> tuple[MLPPolicy, RunRecord]:
    """Iterate episodes until a step or query cap is reached; returns the final policy.

    `dataset` and `policy` are the initial expert dataset and the policy
    behavior-cloned on it. For the crsail strategy a calibrated threshold is
    required, and its radius gates every episode of the run.

    Iteration 0 rolls out its own training episode; every later one is the
    carried last row of the previous iteration's evaluation block, which is
    rolled out only if the budget is not yet exhausted. A failure notes the
    training iteration it belongs to; a failing evaluation row notes the
    iteration whose policy it evaluated.
    """
    rollout_ss, eval_ss, update_ss, strat_ss = seed_sequence(seed).spawn(4)
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

    i, steps, queries, traj, more = 0, 0, 0, None, True
    t0 = time.perf_counter()
    while more:
        try:
            if traj is None:  # iteration 0; later episodes come from the evaluation block
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
        more = not budget.exhausted(queries, steps)
        try:  # with `more`, episode i + 1 is the block's last row
            eval_mean, eval_std, carried = evaluate_policy(
                env, policy, eval_episodes, eval_ss.spawn(1)[0],
                rollout_ss.spawn(1)[0] if more else None)
        except NumericalFailureError as exc:
            exc.add_note(f"in training iteration {i + 1}" if exc.episode == eval_episodes
                         else f"in the evaluation after training iteration {i}")
            raise
        flag = int(expert_mean is not None and is_expert_level(eval_mean, expert_mean))
        t1 = time.perf_counter()
        record.episodes.append(EpisodeMetrics(
            episode=i, length=traj.length, n_queries=len(qs), steps_cum=steps,
            queries_cum=queries, eval_mean=eval_mean, eval_std=eval_std,
            wall_time=t1 - t0, converged_flag=flag,
        ))
        i, t0, traj = i + 1, t1, carried

    if len(dataset) != initial_size + queries:
        raise InvariantError(f"dataset holds {len(dataset)} pairs, expected "
                             f"{initial_size} initial + {queries} queried")
    return policy, record
