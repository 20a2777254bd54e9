"""Query strategies: which visited states get sent to the expert.

All strategies are evaluated post hoc on a completed trajectory and read only
the trajectory and the dataset snapshot from the start of the episode, so
they stay within the admissible (non-anticipating, episode-level) class.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from crsail.dataset import ExpertDataset
from crsail.core import Trajectory
from crsail.exceptions import ConfigurationError
from crsail.novelty import NoveltyConfig, score_batch

KINDS = ("crsail", "dagger", "random-rate", "fixed-threshold", "ensemble-variance")


@dataclass
class QuerySet:
    """Sorted query indices into [0, L-1], with optional per-step scores."""

    indices: np.ndarray
    scores: np.ndarray | None = None

    def __post_init__(self):
        self.indices = np.asarray(self.indices, dtype=np.int64)

    def __len__(self) -> int:
        return len(self.indices)


@dataclass
class StrategyConfig:
    kind: str
    k: int = 5
    rate: float = 0.5  # random-rate inclusion probability
    tau: float = 0.1  # fixed-threshold novelty cutoff
    tau_doubt: float = 0.01
    ensemble_size: int = 5
    backend: str = "brute"
    standardize: bool = True
    radius: float | None = None  # calibrated threshold for crsail

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigurationError(f"unknown strategy kind {self.kind!r}")
        if self.k < 1:
            raise ConfigurationError("k must be >= 1")
        if not 0.0 <= self.rate <= 1.0:
            raise ConfigurationError("rate must lie in [0, 1]")
        if self.tau < 0.0:
            raise ConfigurationError("tau must be >= 0")
        if self.ensemble_size < 2:
            raise ConfigurationError("ensemble_size must be >= 2")

    def novelty_config(self) -> NoveltyConfig:
        return NoveltyConfig(k=self.k, standardize=self.standardize, backend=self.backend)


def select_queries(strategy: StrategyConfig, trajectory: Trajectory,
                   dataset: ExpertDataset, aux: dict | None = None) -> QuerySet:
    """Pick the query index set for one completed episode.

    aux carries strategy-specific context: a 'rng' generator for random-rate
    and a list of 'ensemble' policies for ensemble-variance.
    """
    aux = aux or {}
    length = trajectory.length
    visited = trajectory.states[:length]
    all_idx = np.arange(length)

    if strategy.kind == "dagger":
        return QuerySet(indices=all_idx)

    if strategy.kind == "random-rate":
        rng = aux.get("rng")
        if rng is None:
            raise ConfigurationError("random-rate strategy requires aux['rng']")
        mask = rng.random(length) < strategy.rate
        return QuerySet(indices=all_idx[mask])

    if strategy.kind == "ensemble-variance":
        ensemble = aux.get("ensemble")
        if not ensemble:
            raise ConfigurationError("ensemble-variance strategy requires aux['ensemble']")
        preds = np.stack([p.forward(visited) for p in ensemble])
        doubt = preds.std(axis=0).mean(axis=1)
        return QuerySet(indices=all_idx[doubt > strategy.tau_doubt], scores=doubt)

    # crsail and fixed-threshold both gate on the K-NN novelty score; they
    # differ only in where the threshold comes from.
    if strategy.kind == "crsail":
        if strategy.radius is None:
            raise ConfigurationError("crsail strategy requires a calibrated radius")
        threshold = strategy.radius
    else:
        threshold = strategy.tau
    scores = score_batch(visited, dataset, strategy.novelty_config())
    return QuerySet(indices=all_idx[scores > threshold], scores=scores)


def label_queries(expert, trajectory: Trajectory, queries: QuerySet):
    """One expert label per queried index, from the stored states.

    Returns (states, actions) arrays; repeated states yield repeated entries
    (multiset semantics).
    """
    if len(queries) == 0:
        d = trajectory.states.shape[1]
        return np.zeros((0, d)), np.zeros((0, 0))
    if queries.indices.min() < 0 or queries.indices.max() >= trajectory.length:
        raise ConfigurationError("query indices out of range")
    states = trajectory.states[queries.indices]
    actions = np.array([np.atleast_1d(expert.act(x)) for x in states])
    return states, actions
