"""Distance to the K-th nearest expert state as a novelty score.

Scores are Euclidean distances on standardized coordinates whenever the
dataset carries a standardizer, as the policy's inputs are. Duplicates count
with multiplicity. K and the backend are the `k` and `backend` fields of the
query rule's `StrategyConfig`, which checks them. Two backends: exact brute
force (default) and a KD-tree, which must agree with brute force to the bit.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np
from scipy.spatial import cKDTree

from crsail.dataset import ExpertDataset
from crsail.exceptions import InsufficientDataError

if TYPE_CHECKING:
    from crsail.strategies import StrategyConfig

_BATCH = 256  # query chunk size for the brute-force pairwise block


def score_batch(states, dataset: ExpertDataset, config: StrategyConfig) -> np.ndarray:
    """Distance from each state to its K-th nearest neighbor in the dataset.

    An empty batch gives an empty result. The dataset's points are projected
    afresh on every call, so the scores always reflect its current contents.
    """
    states = np.asarray(states, dtype=np.float64)
    if states.size == 0:
        return np.zeros(0)
    k = config.k
    if k > len(dataset):
        raise InsufficientDataError(f"K={k} exceeds dataset size {len(dataset)}")
    points = np.asarray(dataset.states, dtype=np.float64)
    q = np.atleast_2d(states)
    if dataset.standardizer is not None:
        points = dataset.standardizer.transform(points)
        q = dataset.standardizer.transform(q)
    if config.backend == "kdtree":
        return cKDTree(points).query(q, k=[k])[0][:, 0]
    out = np.empty(len(q))
    for start in range(0, len(q), _BATCH):
        block = q[start:start + _BATCH]
        sq = ((block[:, None, :] - points[None, :, :]) ** 2).sum(axis=-1)
        out[start:start + len(block)] = np.sqrt(np.partition(sq, k - 1, axis=1)[:, k - 1])
    return out


def score_sK(state, dataset: ExpertDataset, config: StrategyConfig) -> float:
    """The paper's s_K: distance from one state to its K-th nearest neighbor."""
    return float(score_batch(np.asarray(state)[None, :], dataset, config)[0])
