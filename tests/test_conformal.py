import numpy as np
import pytest

from crsail.conformal import (
    calibrate_radius,
    collect_calibration,
    conformal_quantile,
    quantile_index,
)
from crsail.core import evaluate_policy, rollout
from crsail.envs import make_env, make_expert
from crsail.exceptions import ConfigurationError, InfeasibleCalibrationError
from crsail.novelty import score_batch
from crsail.policy import TrainConfig, behavioral_cloning
from crsail.strategies import StrategyConfig
from crsail.trainer import build_initial_dataset
from helpers import ZeroPolicy


def crsail(k=5, alpha=0.93):
    """A crsail query rule: the K and alpha that calibration reads."""
    return StrategyConfig("crsail", alpha=alpha, k=k)


def test_quantile_99_scores():
    thr = conformal_quantile(np.arange(1.0, 100.0), alpha=0.05)
    assert thr.m == 95
    assert thr.radius == 95.0
    assert thr.n_cal == 99


def test_quantile_boundary_m_equals_n():
    scores = np.array([3.0, 1.0, 9.0, 4.0, 5.0, 2.0, 8.0, 7.0, 6.0])
    thr = conformal_quantile(scores, alpha=0.1)
    assert thr.m == 9
    assert thr.radius == 9.0


def test_quantile_constant_scores():
    thr = conformal_quantile(np.full(25, 3.25), alpha=0.4)
    assert thr.radius == 3.25


def test_quantile_infeasible_alpha():
    with pytest.raises(InfeasibleCalibrationError):
        conformal_quantile(np.arange(10.0), alpha=0.001)


def test_quantile_alpha_domain():
    with pytest.raises(ConfigurationError):
        conformal_quantile(np.arange(10.0), alpha=0.0)
    with pytest.raises(ConfigurationError):
        conformal_quantile(np.arange(10.0), alpha=1.0)


def test_quantile_index_exact_at_float_hostile_alphas():
    # ceil must not be thrown off by binary rounding of (n+1)(1-alpha)
    assert quantile_index(99, 0.05) == 95
    assert quantile_index(9, 0.1) == 9
    assert quantile_index(999, 0.93) == 70
    assert quantile_index(199, 0.9) == 20


def test_radius_non_increasing_in_alpha():
    rng = np.random.default_rng(0)
    scores = rng.exponential(size=400)
    radii = []
    for alpha in np.linspace(0.02, 0.98, 50):
        radii.append(conformal_quantile(scores, float(alpha)).radius)
    assert all(b <= a for a, b in zip(radii, radii[1:]))


def test_radius_is_an_element_of_scores():
    rng = np.random.default_rng(1)
    scores = rng.normal(size=57)
    for alpha in (0.1, 0.5, 0.9):
        assert conformal_quantile(scores, alpha).radius in scores


def test_collect_calibration_fixed_horizon_counts():
    env = make_env("pusher")
    states = collect_calibration(env, ZeroPolicy(2), m_cal=1, seed=0)
    assert states.shape == (100, 6)


def test_collect_calibration_requires_an_episode():
    with pytest.raises(ConfigurationError):
        collect_calibration(make_env("pendulum"), ZeroPolicy(1), m_cal=0, seed=0)


def test_collect_calibration_deterministic():
    env = make_env("pendulum")
    c1 = collect_calibration(env, ZeroPolicy(1), m_cal=3, seed=5)
    c2 = collect_calibration(env, ZeroPolicy(1), m_cal=3, seed=5)
    assert np.array_equal(c1, c2)


def test_collect_calibration_length_accounting():
    env = make_env("pendulum")
    dataset = build_initial_dataset(env, make_expert(env), 200, 1)
    policy = behavioral_cloning(dataset, TrainConfig(bc_epochs=2), np.random.default_rng(0))
    states = collect_calibration(env, policy, m_cal=5, seed=9)
    # the non-final states of fresh rollouts of the same seeds, in order
    seeds = np.random.SeedSequence(9).spawn(5)
    assert np.array_equal(
        states, np.concatenate([rollout(env, policy, s).states[:-1] for s in seeds]))


def test_calibrate_radius_deterministic_and_composed():
    env = make_env("pendulum")
    dataset = build_initial_dataset(env, make_expert(env), 300, 2)
    policy = behavioral_cloning(dataset, TrainConfig(), np.random.default_rng(0))
    cfg = crsail(k=5, alpha=0.93)
    t1 = calibrate_radius(env, policy, dataset, cfg, m_cal=5, seed=3)
    t2 = calibrate_radius(env, policy, dataset, cfg, m_cal=5, seed=3)
    assert t1 == t2
    scores = score_batch(collect_calibration(env, policy, 5, 3), dataset, cfg)
    assert t1.radius == conformal_quantile(scores, 0.93).radius


def test_calibrate_radius_boundary_alpha_returns_max_score():
    env = make_env("pendulum")
    dataset = build_initial_dataset(env, make_expert(env), 300, 2)
    policy = behavioral_cloning(dataset, TrainConfig(), np.random.default_rng(0))
    cfg = crsail(k=5)
    scores = score_batch(collect_calibration(env, policy, 2, 4), dataset, cfg)
    n = len(scores)
    alpha = 1.5 / (n + 1)  # (n+1)(1-alpha) = n - 0.5, so m = n exactly
    thr = conformal_quantile(scores, alpha)
    assert thr.m == n
    assert thr.radius == scores.max()


def test_calibrate_radius_requires_dataset_at_least_k():
    env = make_env("pendulum")
    dataset = build_initial_dataset(env, make_expert(env), 3, 2)
    policy = ZeroPolicy(1)
    with pytest.raises(ConfigurationError):
        calibrate_radius(env, policy, dataset, crsail(k=1000, alpha=0.9), 1, 0)


def test_synthetic_exchangeable_coverage():
    rng = np.random.default_rng(7)
    n, alpha, trials = 99, 0.1, 1000
    coverage = []
    for _ in range(trials):
        cal = rng.uniform(size=n)
        thr = conformal_quantile(cal, alpha)
        # uniform scores: P(test <= R) equals R itself
        coverage.append(thr.radius)
    mean = float(np.mean(coverage))
    assert 1 - alpha - 0.02 <= mean <= 1 - alpha + 1 / (n + 1) + 0.02


def test_on_policy_coverage_diagnostic():
    # tolerance-based diagnostic, not a guarantee: temporally correlated
    # rollout states are not exchangeable
    env = make_env("pendulum")
    dataset = build_initial_dataset(env, make_expert(env), 500, 11)
    policy = behavioral_cloning(dataset, TrainConfig(), np.random.default_rng(1))
    alpha = 0.93
    cfg = crsail(k=5, alpha=alpha)
    thr = calibrate_radius(env, policy, dataset, cfg, m_cal=30, seed=21)
    fractions = []
    for seed in np.random.SeedSequence(22).spawn(50):
        traj = rollout(env, policy, seed)
        scores = score_batch(traj.states[:-1], dataset, cfg)
        fractions.append(float(np.mean(scores <= thr.radius)))
    mean = float(np.mean(fractions))
    assert 1 - alpha - 0.1 <= mean <= 1.0
