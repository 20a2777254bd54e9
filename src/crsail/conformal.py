"""Conformal calibration of the novelty threshold.

Rolls out the frozen initial policy, scores the visited states against the
initial expert dataset, and sets the threshold R as the finite-sample
(1 - alpha) quantile: the m-th order statistic with
m = ceil((N_cal + 1)(1 - alpha)). K, the backend and alpha all come from the
crsail `StrategyConfig`. Calibration happens once per run; the threshold is
never recomputed during training.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from crsail.core import episode_seeds, rollouts
from crsail.dataset import ExpertDataset
from crsail.exceptions import ConfigurationError, InfeasibleCalibrationError
from crsail.novelty import score_batch
from crsail.strategies import StrategyConfig


@dataclass
class CalibratedThreshold:
    radius: float
    alpha: float
    m: int
    n_cal: int


def collect_calibration(env, policy, m_cal: int, seed) -> np.ndarray:
    """The multiset of non-final states that m_cal seeded rollouts of the frozen
    policy visit, as one array; no expert labels."""
    trajectories = rollouts(env, policy, episode_seeds(seed, m_cal))
    return np.concatenate([t.states[:-1] for t in trajectories])


def quantile_index(n: int, alpha: float) -> int:
    """m = ceil((n + 1)(1 - alpha)), computed in exact decimal arithmetic."""
    if not 0.0 < alpha < 1.0:
        raise ConfigurationError("alpha must lie in (0, 1)")
    return math.ceil((n + 1) * (1 - Fraction(str(alpha))))


def conformal_quantile(scores, alpha: float) -> CalibratedThreshold:
    """The m-th smallest calibration score; always an element of the list."""
    scores = np.asarray(scores, dtype=np.float64)
    n = len(scores)
    if n == 0:
        raise ConfigurationError("score list must be non-empty")
    m = quantile_index(n, alpha)
    if m > n:
        raise InfeasibleCalibrationError(
            f"quantile index m={m} exceeds N_cal={n}; collect more calibration "
            f"episodes or raise alpha"
        )
    radius = float(np.sort(scores)[m - 1])
    return CalibratedThreshold(radius=radius, alpha=alpha, m=m, n_cal=n)


def calibrate_radius(env, policy, dataset: ExpertDataset, strategy: StrategyConfig,
                     m_cal: int, seed) -> CalibratedThreshold:
    """End-to-end radius calibration against the initial expert dataset, at
    the strategy's K, backend and alpha."""
    if len(dataset) < strategy.k:
        raise ConfigurationError(
            f"initial dataset of size {len(dataset)} is smaller than K={strategy.k}"
        )
    scores = score_batch(collect_calibration(env, policy, m_cal, seed), dataset, strategy)
    return conformal_quantile(scores, strategy.alpha)
