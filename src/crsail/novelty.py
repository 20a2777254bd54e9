"""Distance to the K-th nearest expert state as a novelty score: the paper's
s_K, computed for a batch of states by `score_batch`, the one entry point.

Scores are Euclidean distances in the coordinates of the dataset's
standardizer, the map the policy applies to its inputs. Duplicates count with
multiplicity. K and the backend are the `k` and `backend` fields of the query
rule's `StrategyConfig`, which checks them. Two backends: exact brute
force (default) and a KD-tree, which agree to the bit for up to 7 dimensions
and to rounding beyond. The KD-tree is scipy's, imported on its first use, so
a process that never asks for it never loads scipy.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from crsail.dataset import ExpertDataset
from crsail.exceptions import InsufficientDataError

if TYPE_CHECKING:
    from crsail.strategies import StrategyConfig

_BATCH = 32  # query rows per brute-force block; two (_BATCH, N) buffers stay in cache


def score_batch(states, dataset: ExpertDataset, config: StrategyConfig) -> np.ndarray:
    """Distance from each state to its K-th nearest neighbor in the dataset.

    `states` is one state per row, each as wide as the dataset's states (a
    flat array is one state; the dataset's standardizer rejects any other
    shape). An empty batch gives an empty result. The dataset's points are
    projected afresh on every call, so the scores always reflect its current
    contents.
    """
    states = np.asarray(states, dtype=np.float64)
    if states.size == 0:
        return np.zeros(0)
    k = config.k
    if k > len(dataset):
        raise InsufficientDataError(f"K={k} exceeds dataset size {len(dataset)}")
    q = np.atleast_2d(dataset.standardizer.transform(states))
    points = dataset.standardizer.transform(dataset.states)
    if config.backend == "kdtree":
        from scipy.spatial import cKDTree

        return cKDTree(points).query(q, k=[k])[0][:, 0]
    # Add up the squared differences one dimension at a time, left to right:
    # the order numpy's sum takes over a last axis shorter than 8, so these
    # are the bits of ((q - p) ** 2).sum(axis=-1), without a (B, N, d) block.
    columns = np.ascontiguousarray(points.T)
    sq_buf = np.empty((min(_BATCH, len(q)), len(points)))
    diff_buf = np.empty_like(sq_buf)
    out = np.empty(len(q))
    for start in range(0, len(q), _BATCH):
        block = q[start:start + _BATCH]
        sq, diff = sq_buf[:len(block)], diff_buf[:len(block)]
        np.subtract(block[:, :1], columns[0], out=sq)
        sq *= sq
        for j in range(1, columns.shape[0]):
            np.subtract(block[:, j:j + 1], columns[j], out=diff)
            diff *= diff
            sq += diff
        sq.partition(k - 1, axis=1)
        np.sqrt(sq[:, k - 1], out=out[start:start + len(block)])
    return out

