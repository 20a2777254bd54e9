"""One-hidden-layer MLP learner, behavioral cloning, and warm-start updates.

Squared-error imitation loss; gradients are exact analytic backpropagation
(checked against finite differences in the test suite). Plain minibatch SGD;
runs are deterministic given the generator they draw from.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from crsail.dataset import ExpertDataset, Standardizer
from crsail.exceptions import ConfigurationError, require_finite

HIDDEN = 64  # hidden-layer width


@dataclass
class TrainConfig:
    learning_rate: float = 1e-2
    batch_size: int = 64
    bc_epochs: int = 50
    update_epochs: int = 10
    init_scale: float = 0.1
    retrain_from_scratch: bool = False

    def __post_init__(self):
        require_finite(self)
        if self.learning_rate <= 0:
            raise ConfigurationError("learning_rate must be positive")
        if self.batch_size < 1:
            raise ConfigurationError("batch_size must be >= 1")
        if self.bc_epochs < 1 or self.update_epochs < 1:
            raise ConfigurationError("epoch counts must be >= 1")


class MLPPolicy:
    """Deterministic policy u = W2 tanh(W1 z + b1) + b2 on standardized input z."""

    acts_on_stacks = True  # `act` takes an (n, d) stack as well as one state

    def __init__(self, w1, b1, w2, b2, standardizer: Standardizer | None = None):
        self.w1 = np.asarray(w1, dtype=np.float64)
        self.b1 = np.asarray(b1, dtype=np.float64)
        self.w2 = np.asarray(w2, dtype=np.float64)
        self.b2 = np.asarray(b2, dtype=np.float64)
        self.standardizer = standardizer

    @classmethod
    def initialize(cls, state_dim: int, action_dim: int, config: TrainConfig,
                   rng: np.random.Generator,
                   standardizer: Standardizer | None = None) -> "MLPPolicy":
        h = HIDDEN
        s = config.init_scale
        return cls(
            w1=s * rng.standard_normal((h, state_dim)),
            b1=s * rng.standard_normal(h),
            w2=s * rng.standard_normal((action_dim, h)),
            b2=s * rng.standard_normal(action_dim),
            standardizer=standardizer,
        )

    @property
    def state_dim(self) -> int:
        return self.w1.shape[1]

    def _standardize(self, x: np.ndarray) -> np.ndarray:
        if self.standardizer is None:
            return x
        return self.standardizer.transform(x)

    def forward(self, states: np.ndarray) -> np.ndarray:
        """Batched forward pass; states shape (n, d) -> actions (n, a)."""
        states = np.atleast_2d(np.asarray(states, dtype=np.float64))
        if states.shape[1] != self.state_dim:
            raise ConfigurationError(
                f"state dim {states.shape[1]} does not match policy dim {self.state_dim}"
            )
        z = self._standardize(states)
        hidden = np.tanh(z @ self.w1.T + self.b1)
        return hidden @ self.w2.T + self.b2

    def act(self, state) -> np.ndarray:
        """The action for one state (d,), or one per row of a stack (n, d).

        Each row is its own (1, d) product, so a row of a stack gets the same
        bits as the row alone; `forward`'s one matmul over the batch does not
        promise that.
        """
        z = self._standardize(np.asarray(state, dtype=np.float64))
        if z.shape[-1] != self.state_dim:
            raise ConfigurationError(
                f"state dim {z.shape[-1]} does not match policy dim {self.state_dim}"
            )
        hidden = np.tanh(z[..., None, :] @ self.w1.T + self.b1)
        return (hidden @ self.w2.T + self.b2)[..., 0, :]

    def copy(self) -> "MLPPolicy":
        return MLPPolicy(self.w1.copy(), self.b1.copy(), self.w2.copy(), self.b2.copy(),
                         self.standardizer)


def loss_and_grad(policy: MLPPolicy, states: np.ndarray, labels: np.ndarray):
    """Mean squared imitation loss over the batch and its exact gradient.

    Returns (loss, grads) with grads keyed 'w1', 'b1', 'w2', 'b2'.
    """
    states = np.atleast_2d(np.asarray(states, dtype=np.float64))
    labels = np.atleast_2d(np.asarray(labels, dtype=np.float64))
    if len(states) == 0:
        raise ConfigurationError("batch must be non-empty")
    n = len(states)
    z = policy._standardize(states)
    pre = z @ policy.w1.T + policy.b1
    hidden = np.tanh(pre)
    out = hidden @ policy.w2.T + policy.b2
    err = out - labels
    loss = float((err**2).sum() / n)
    d_out = 2.0 * err / n
    d_hidden = d_out @ policy.w2
    d_pre = d_hidden * (1.0 - hidden**2)
    grads = {
        "w1": d_pre.T @ z,
        "b1": d_pre.sum(axis=0),
        "w2": d_out.T @ hidden,
        "b2": d_out.sum(axis=0),
    }
    return loss, grads


def _sgd_epochs(policy: MLPPolicy, dataset: ExpertDataset, config: TrainConfig,
                epochs: int, rng: np.random.Generator) -> MLPPolicy:
    n = len(dataset)
    lr = config.learning_rate
    for _ in range(epochs):
        perm = rng.permutation(n)
        for start in range(0, n, config.batch_size):
            idx = perm[start:start + config.batch_size]
            _, grads = loss_and_grad(policy, dataset.states[idx], dataset.actions[idx])
            policy.w1 -= lr * grads["w1"]
            policy.b1 -= lr * grads["b1"]
            policy.w2 -= lr * grads["w2"]
            policy.b2 -= lr * grads["b2"]
    return policy


def behavioral_cloning(dataset: ExpertDataset, config: TrainConfig,
                       rng: np.random.Generator) -> MLPPolicy:
    """Train a fresh policy on the dataset by minibatch SGD, drawing from `rng`.

    Freezes the dataset standardizer (fitting it if not already set) and
    shares it with the returned policy.
    """
    if len(dataset) == 0:
        raise ConfigurationError("behavioral cloning requires a non-empty dataset")
    if dataset.standardizer is None:
        dataset.freeze_standardizer()
    policy = MLPPolicy.initialize(
        dataset.state_dim, dataset.action_dim, config, rng, dataset.standardizer
    )
    return _sgd_epochs(policy, dataset, config, config.bc_epochs, rng)


def update(policy: MLPPolicy, dataset: ExpertDataset, config: TrainConfig,
           rng: np.random.Generator, epochs: int | None = None) -> MLPPolicy:
    """Advance the learner on the aggregated dataset.

    Warm-starts from the given parameters by default; set
    config.retrain_from_scratch to re-run behavioral cloning instead.
    """
    if len(dataset) == 0:
        raise ConfigurationError("update requires a non-empty dataset")
    if epochs is None:
        epochs = config.update_epochs
    if epochs < 1:
        raise ConfigurationError("epochs must be >= 1")
    if config.retrain_from_scratch:
        return behavioral_cloning(dataset, config, rng)
    return _sgd_epochs(policy.copy(), dataset, config, epochs, rng)
