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
PARAMS = ("w1", "b1", "w2", "b2")


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
    def params(self) -> list[np.ndarray]:
        """The parameter arrays themselves, in `PARAMS` order; SGD updates them in place."""
        return [self.w1, self.b1, self.w2, self.b2]

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


def _gradient(params, z, labels):
    """The residual and the exact gradient of the mean squared imitation loss.

    `params` is (w1, b1, w2, b2) and `z` holds standardized states, one per
    row of `labels`. Written over the last two axes, so every array may carry
    a leading member axis: member e's slice gets the bits of its own call.
    Returns (err, g_w1, g_b1, g_w2, g_b2).
    """
    w1, b1, w2, b2 = params
    n = z.shape[-2]
    hidden = np.tanh(z @ np.swapaxes(w1, -1, -2) + b1[..., None, :])
    err = hidden @ np.swapaxes(w2, -1, -2) + b2[..., None, :] - labels
    d_out = 2.0 * err / n
    d_pre = (d_out @ w2) * (1.0 - hidden**2)
    return (err, np.swapaxes(d_pre, -1, -2) @ z, d_pre.sum(axis=-2),
            np.swapaxes(d_out, -1, -2) @ hidden, d_out.sum(axis=-2))


def loss_and_grad(policy: MLPPolicy, states: np.ndarray, labels: np.ndarray):
    """Mean squared imitation loss over the batch and its exact gradient.

    Returns (loss, grads) with grads keyed 'w1', 'b1', 'w2', 'b2'.
    """
    states = np.atleast_2d(np.asarray(states, dtype=np.float64))
    labels = np.atleast_2d(np.asarray(labels, dtype=np.float64))
    if len(states) == 0:
        raise ConfigurationError("batch must be non-empty")
    err, *grads = _gradient(policy.params, policy._standardize(states), labels)
    return float((err**2).sum() / len(states)), dict(zip(PARAMS, grads))


def _sgd_epochs(params, z, labels, perms, config: TrainConfig) -> None:
    """The one minibatch SGD loop; updates `params` (w1, b1, w2, b2) in place.

    `z` and `labels` are the standardized states and actions, one training
    pair per row, and `perms` holds one permutation of row indices per epoch,
    shape (epochs, n). With shape (epochs, members, n) and a leading member
    axis on every parameter, the members train in lockstep, each on its own
    rows of the stack.
    """
    lr = config.learning_rate
    for perm in perms:
        for start in range(0, perm.shape[-1], config.batch_size):
            idx = perm[..., start:start + config.batch_size]
            for param, grad in zip(params, _gradient(params, z[idx], labels[idx])[1:]):
                param -= lr * grad


def _shuffle_into(rows, rng: np.random.Generator) -> None:
    """Fill each row of `rows` in place with a permutation of 0..n-1 (n the
    row length), drawn as `rng.permutation(n)` draws it."""
    order = np.arange(rows.shape[-1])
    for row in rows:
        row[:] = order
        rng.shuffle(row)


def behavioral_cloning(dataset: ExpertDataset, config: TrainConfig,
                       rng: np.random.Generator,
                       members: int | None = None) -> MLPPolicy | list[MLPPolicy]:
    """Train a fresh policy on the dataset by minibatch SGD, drawing from `rng`.

    Freezes the dataset standardizer (fitting it if not already set) and
    shares it with the returned policy. With `members` set, returns that many
    policies, each trained on its own bootstrap resample of the dataset: the
    generator gives each member, in turn, its resample, its initial weights
    and its epochs' permutations, and the members then train in lockstep.
    Each member gets the bits of a one-member call on its resample.
    """
    if len(dataset) == 0:
        raise ConfigurationError("behavioral cloning requires a non-empty dataset")
    if members is not None and members < 1:
        raise ConfigurationError(f"members must be >= 1, got {members}")
    if dataset.standardizer is None:
        dataset.freeze_standardizer()
    n = len(dataset)
    count = 1 if members is None else members
    perms = np.empty((config.bc_epochs, count, n), dtype=np.intp)
    rows, policies = [], []
    for e in range(count):
        if members is not None:
            rows.append(rng.integers(0, n, size=n))
        policies.append(MLPPolicy.initialize(dataset.state_dim, dataset.action_dim, config,
                                             rng, dataset.standardizer))
        _shuffle_into(perms[:, e], rng)
        perms[:, e] += e * n  # member e's rows of the stack
    stack = np.concatenate(rows) if rows else slice(None)  # member-major training rows
    z, labels = dataset.standardizer.transform(dataset.states[stack]), dataset.actions[stack]
    if members is None:
        _sgd_epochs(policies[0].params, z, labels, perms[:, 0], config)
        return policies[0]
    params = [np.stack(p) for p in zip(*(policy.params for policy in policies))]
    _sgd_epochs(params, z, labels, perms, config)
    return [MLPPolicy(*(p[e] for p in params), dataset.standardizer) for e in range(count)]


def update(policy: MLPPolicy, dataset: ExpertDataset, config: TrainConfig,
           rng: np.random.Generator, epochs: int | None = None) -> MLPPolicy:
    """Advance the learner on the aggregated dataset.

    Warm-starts from the given parameters by default; set
    config.retrain_from_scratch to re-run behavioral cloning instead.
    `epochs` overrides config.update_epochs; it stays a parameter because
    the benchmark's tracer reads it to count the rows each update trains on.
    """
    if len(dataset) == 0:
        raise ConfigurationError("update requires a non-empty dataset")
    if epochs is None:
        epochs = config.update_epochs
    if epochs < 1:
        raise ConfigurationError("epochs must be >= 1")
    if config.retrain_from_scratch:
        return behavioral_cloning(dataset, config, rng)
    policy = policy.copy()
    perms = np.empty((epochs, len(dataset)), dtype=np.intp)
    _shuffle_into(perms, rng)
    _sgd_epochs(policy.params, policy._standardize(dataset.states), dataset.actions, perms,
                config)
    return policy
