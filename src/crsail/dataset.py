"""Expert dataset (multiset of state-action pairs) and input standardization."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from crsail.exceptions import ConfigurationError, NumericalFailureError

STD_FLOOR = 1e-8  # a dimension whose spread is below this is left unscaled


@dataclass
class Standardizer:
    """Per-dimension affine map x -> (x - mean) / std, frozen after fitting."""

    mean: np.ndarray
    std: np.ndarray

    @classmethod
    def fit(cls, states: np.ndarray) -> "Standardizer":
        states = np.asarray(states, dtype=np.float64)
        mean = states.mean(axis=0)
        std = states.std(axis=0)
        std = np.where(std < STD_FLOOR, 1.0, std)
        return cls(mean=mean, std=std)

    def transform(self, x: np.ndarray) -> np.ndarray:
        return (np.asarray(x, dtype=np.float64) - self.mean) / self.std


def _checked_pairs(states, actions, first_row: int, dims=None):
    """`states` and `actions` as 2-D float arrays, checked as they enter a dataset.

    The counts must match, each array must have one row per pair and, when
    `dims` (state_dim, action_dim) is given, those widths, and every label
    must be finite; a bad label's message names its row, the pairs starting
    at dataset row `first_row`.
    """
    states = np.atleast_2d(np.asarray(states, dtype=np.float64))
    actions = np.atleast_2d(np.asarray(actions, dtype=np.float64))
    if len(states) != len(actions):
        raise ConfigurationError(f"state/action count mismatch: {len(states)} vs {len(actions)}")
    if states.ndim != 2 or actions.ndim != 2 or (
            dims is not None and (states.shape[1], actions.shape[1]) != dims):
        raise ConfigurationError(
            f"pairs have mismatched dimensions: states {states.shape}, actions {actions.shape}"
            + ("" if dims is None else f", expected widths {dims}"))
    bad = np.flatnonzero(~np.isfinite(actions).all(axis=1))
    if len(bad):
        j = bad[0]
        raise NumericalFailureError(
            f"non-finite expert label {actions[j]} for state {states[j]} "
            f"(row {first_row + j} of the dataset)")
    return states, actions


class ExpertDataset:
    """Growable multiset of (state, expert action) pairs.

    Duplicates are kept with multiplicity. The standardizer, when set, is the
    one fitted on the initial dataset and stays frozen as the dataset grows;
    it is shared between policy training and novelty scoring.
    """

    def __init__(self, states, actions, standardizer: Standardizer | None = None):
        self.states, self.actions = _checked_pairs(states, actions, 0)
        self.standardizer = standardizer

    @property
    def state_dim(self) -> int:
        return self.states.shape[1]

    @property
    def action_dim(self) -> int:
        return self.actions.shape[1]

    def __len__(self) -> int:
        return len(self.states)

    def append(self, states, actions) -> None:
        """Multiset union with a batch of labeled pairs (in place).

        Non-finite labels are rejected here, where they enter, so a bad
        expert is not later mistaken for a failing policy.
        """
        states, actions = _checked_pairs(states, actions, len(self),
                                         (self.state_dim, self.action_dim))
        if len(states):
            self.states = np.concatenate([self.states, states])
            self.actions = np.concatenate([self.actions, actions])

    def freeze_standardizer(self) -> Standardizer:
        """Fit the standardizer on the current contents and freeze it."""
        self.standardizer = Standardizer.fit(self.states)
        return self.standardizer

    def copy(self) -> "ExpertDataset":
        return ExpertDataset(self.states.copy(), self.actions.copy(), self.standardizer)
