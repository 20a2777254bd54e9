"""Query strategies: which visited states get sent to the expert.

All strategies are evaluated post hoc on a completed trajectory and read only
the trajectory and the dataset snapshot from the start of the episode, so
they stay within the admissible (non-anticipating, episode-level) class.
"""

from __future__ import annotations

import importlib.util
from dataclasses import dataclass

import numpy as np

from crsail.dataset import ExpertDataset
from crsail.core import Trajectory, act
from crsail.exceptions import ConfigurationError, bounded, check_fields
from crsail.novelty import score_batch

# The StrategyConfig fields each kind's query rule reads, besides its kind.
READS = {
    "crsail": ("alpha", "k", "backend"),
    "dagger": (),
    "random-rate": ("rate",),
    "fixed-threshold": ("k", "tau", "backend"),
    "ensemble-variance": ("tau_doubt", "ensemble_size"),
}


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
    alpha: float = bounded(default=0.93, gt=0, lt=1)  # the nominal query rate crsail calibrates at
    k: int = bounded(default=5, ge=1)
    rate: float = bounded(default=0.5, ge=0, le=1)  # random-rate inclusion probability
    tau: float = bounded(default=0.1, ge=0)  # fixed-threshold novelty cutoff
    tau_doubt: float = bounded(default=0.01, ge=0)
    ensemble_size: int = bounded(default=5, ge=2)
    backend: str = "brute"  # K-NN backend: "brute" or "kdtree" (needs scipy), bit-equal

    def __post_init__(self):
        if self.kind not in READS:
            raise ConfigurationError(f"unknown strategy kind {self.kind!r}")
        check_fields(self)
        if self.backend not in ("brute", "kdtree"):
            raise ConfigurationError(f"unknown backend {self.backend!r}")
        # Looked up, not imported: scipy loads only when the KD-tree is first used.
        if self.backend == "kdtree" and importlib.util.find_spec("scipy") is None:
            raise ConfigurationError("backend 'kdtree' needs scipy, which is not installed "
                                     "(pip install crsail[kdtree]); use backend 'brute'")


def select_queries(strategy: StrategyConfig, trajectory: Trajectory, dataset: ExpertDataset,
                   *, radius: float | None = None, rng: np.random.Generator | None = None,
                   ensemble: list | None = None) -> QuerySet:
    """Pick the query index set for one completed episode.

    Each kind reads its own per-run input: crsail the calibrated `radius`,
    random-rate the generator `rng`, ensemble-variance the `ensemble` policies.
    """
    length = trajectory.length
    visited = trajectory.states[:length]
    all_idx = np.arange(length)

    if strategy.kind == "dagger":
        return QuerySet(indices=all_idx)

    if strategy.kind == "random-rate":
        if rng is None:
            raise ConfigurationError("random-rate strategy requires a generator")
        mask = rng.random(length) < strategy.rate
        return QuerySet(indices=all_idx[mask])

    if strategy.kind == "ensemble-variance":
        if not ensemble:
            raise ConfigurationError("ensemble-variance strategy requires an ensemble")
        preds = np.stack([act(p, visited) for p in ensemble])
        doubt = preds.std(axis=0).mean(axis=1)
        return QuerySet(indices=all_idx[doubt > strategy.tau_doubt], scores=doubt)

    # crsail and fixed-threshold both gate on the K-NN novelty score; they
    # differ only in where the threshold comes from.
    if strategy.kind == "crsail":
        if radius is None:
            raise ConfigurationError("crsail strategy requires a calibrated radius")
        threshold = radius
    else:
        threshold = strategy.tau
    scores = score_batch(visited, dataset, strategy)
    return QuerySet(indices=all_idx[scores > threshold], scores=scores)


def label_queries(expert, trajectory: Trajectory, queries: QuerySet):
    """One expert label per queried index, from the stored states, asked for
    in one `core.act` call.

    Returns (states, actions) arrays; repeated states yield repeated entries
    (multiset semantics).
    """
    if len(queries) == 0:
        return (np.zeros((0, trajectory.states.shape[1])),
                np.zeros((0, trajectory.actions.shape[1])))
    if queries.indices.min() < 0 or queries.indices.max() >= trajectory.length:
        raise ConfigurationError("query indices out of range")
    states = trajectory.states[queries.indices]
    return states, act(expert, states)
