"""Query-efficient active imitation learning with conformal KNN novelty gating.

The package bundles analytic control environments with scripted experts, a
small MLP learner trained by behavioral cloning, a K-th-nearest-neighbor
novelty score with a conformally calibrated query threshold, several query
strategies (novelty-gated, DAgger, random-rate, fixed-threshold,
ensemble-variance), and an experiment harness that runs seeded sweeps and
emits CSV summaries.
"""

from crsail.exceptions import (
    ConfigurationError,
    InfeasibleCalibrationError,
    InsufficientDataError,
    InvariantError,
    NumericalFailureError,
)
from crsail.dataset import ExpertDataset, Standardizer
from crsail.core import Trajectory, episode_seeds, evaluate_policy, rollout, rollouts
from crsail.envs import (
    DoubleIntegrator,
    DoubleIntegratorParams,
    Pendulum,
    PendulumParams,
    Pusher,
    PusherParams,
    make_env,
    make_expert,
)
from crsail.policy import MLPPolicy, TrainConfig, behavioral_cloning, loss_and_grad, update
from crsail.novelty import score_batch
from crsail.conformal import (
    CalibratedThreshold,
    calibrate_radius,
    collect_calibration,
    conformal_quantile,
)
from crsail.strategies import QuerySet, StrategyConfig, label_queries, select_queries
from crsail.trainer import (
    Budget,
    EpisodeMetrics,
    RunRecord,
    build_initial_dataset,
    train,
)

__version__ = "0.1.0"
