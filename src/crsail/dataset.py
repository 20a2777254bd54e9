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

    def transform(self, x) -> np.ndarray:
        """`x`, one state (d,) or a stack (n, d), in standardized coordinates.

        Every policy input and novelty query passes through here, so this is
        where a state of the wrong width or rank is rejected.
        """
        x = np.asarray(x, dtype=np.float64)
        width = len(self.mean)
        if x.ndim not in (1, 2) or x.shape[-1] != width:
            raise ConfigurationError(f"states have shape {x.shape}, but the standardizer takes "
                                     f"one state ({width},) or a stack (n, {width})")
        return (x - self.mean) / self.std

    def check_width(self, width: int, owner: str) -> None:
        """Raise a ConfigurationError naming both widths unless the map is `width` wide."""
        if np.shape(self.mean) != (width,) or np.shape(self.std) != (width,):
            raise ConfigurationError(f"the standardizer has width {np.size(self.mean)}, "
                                     f"but {owner} states have width {width}")


def _checked_pairs(states, actions, first_row: int, dims=None, whose: str = "the dataset"):
    """`states` and `actions` as 2-D float arrays, checked as they enter a dataset.

    The counts must match, each array must have one row per pair and, when
    `dims` (state_dim, action_dim) is given, those widths, and every label
    must be finite; a bad label's message names its row in `whose`, the pairs
    starting at row `first_row`.
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
            f"(row {first_row + j} of {whose})")
    return states, actions


class ExpertDataset:
    """Growable multiset of (state, expert action) pairs.

    Duplicates are kept with multiplicity. A dataset starts with at least one
    pair. The standardizer is the one fitted on the initial states (see
    `trainer.build_initial_dataset`) and stays frozen as the dataset grows;
    novelty scoring and every policy cloned from the dataset share it.
    """

    def __init__(self, states, actions, standardizer: Standardizer):
        self.states, self.actions = _checked_pairs(states, actions, 0)
        if not len(self.states):
            raise ConfigurationError("an expert dataset needs at least one initial pair")
        standardizer.check_width(self.state_dim, "the dataset's")
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

    def copy(self) -> "ExpertDataset":
        return ExpertDataset(self.states.copy(), self.actions.copy(), self.standardizer)
