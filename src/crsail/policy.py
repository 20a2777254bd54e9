"""One-hidden-layer MLP learner, behavioral cloning, and warm-start updates.

Squared-error imitation loss; gradients are exact analytic backpropagation
(checked against finite differences in the test suite). Plain minibatch SGD;
runs are deterministic given the generator they draw from.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from crsail.dataset import ExpertDataset, Standardizer, _checked_pairs
from crsail.exceptions import ConfigurationError, bounded, check_fields

HIDDEN = 64  # hidden-layer width
PARAMS = ("w1", "b1", "w2", "b2")


@dataclass
class TrainConfig:
    learning_rate: float = bounded(default=1e-2, gt=0)
    batch_size: int = bounded(default=64, ge=1)
    bc_epochs: int = bounded(default=50, ge=1)
    # warm-start passes over as many rows as the initial dataset holds, not over
    # the whole aggregate; retraining from scratch and ensemble cloning run
    # bc_epochs passes over all of it
    update_epochs: int = bounded(default=10, ge=1)
    init_scale: float = 0.1
    retrain_from_scratch: bool = False

    def __post_init__(self):
        check_fields(self)


class MLPPolicy:
    """Deterministic policy u = W2 tanh(W1 z + b1) + b2 on standardized input
    z = standardizer.transform(state), the map of the dataset it learns from."""

    def __init__(self, w1, b1, w2, b2, standardizer: Standardizer):
        self.w1 = np.asarray(w1, dtype=np.float64)
        self.b1 = np.asarray(b1, dtype=np.float64)
        self.w2 = np.asarray(w2, dtype=np.float64)
        self.b2 = np.asarray(b2, dtype=np.float64)
        standardizer.check_width(self.state_dim, "the policy's")
        self.standardizer = standardizer

    @classmethod
    def initialize(cls, state_dim: int, action_dim: int, config: TrainConfig,
                   rng: np.random.Generator, standardizer: Standardizer) -> "MLPPolicy":
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

    def act(self, state) -> np.ndarray:
        """The action for one state (d,), or one per row of a stack (n, d).

        The one forward pass: each row is its own (1, d) product, so a row of
        a stack gets the same bits as the row alone, which one (n, d) matmul
        over the batch does not promise.
        """
        z = self.standardizer.transform(state)
        hidden = np.tanh(z[..., None, :] @ self.w1.T + self.b1)
        return (hidden @ self.w2.T + self.b2)[..., 0, :]

    def copy(self) -> "MLPPolicy":
        return MLPPolicy(self.w1.copy(), self.b1.copy(), self.w2.copy(), self.b2.copy(),
                         self.standardizer)


def _backprop(params, z, labels, grads, work):
    """Write the exact gradient of the mean squared imitation loss into `grads`
    and return the residual.

    `params` and `grads` are (w1, b1, w2, b2), and `z` holds standardized
    states, one per row of `labels`. Written over the last two axes, so every
    array may carry a leading member axis: member e's slice gets the bits of
    its own call. `work` holds five buffers of at least z's row count, shaped
    as `_workspace` makes them; their first rows hold the intermediates.
    """
    w1, b1, w2, b2 = params
    g_w1, g_b1, g_w2, g_b2 = grads
    m = z.shape[-2]
    if m < work[0].shape[-2]:  # a short minibatch uses the buffers' first rows
        work = [buf[..., :m, :] for buf in work]
    hidden, err, d_out, d_pre, slope = work
    np.matmul(z, w1.mT, out=hidden)
    hidden += b1[..., None, :]
    np.tanh(hidden, out=hidden)
    np.matmul(hidden, w2.mT, out=err)
    err += b2[..., None, :]
    err -= labels
    np.multiply(err, 2.0, out=d_out)
    d_out /= m
    if w2.shape[-2] == 1:  # one action dim: d_out @ w2 is an outer product
        np.multiply(d_out, w2, out=d_pre)
    else:
        np.matmul(d_out, w2, out=d_pre)
    np.square(hidden, out=slope)
    np.subtract(1.0, slope, out=slope)
    d_pre *= slope
    np.matmul(d_pre.mT, z, out=g_w1)
    np.add.reduce(d_pre, axis=-2, out=g_b1)
    np.matmul(d_out.mT, hidden, out=g_w2)
    np.add.reduce(d_out, axis=-2, out=g_b2)
    return err


def _workspace(params, rows: int) -> list[np.ndarray]:
    """`_backprop`'s buffers for up to `rows` rows: hidden, err, d_out, d_pre, slope."""
    w1, _, w2, _ = params
    lead, hidden, action = w1.shape[:-2], w1.shape[-2], w2.shape[-2]
    return [np.empty(lead + (rows, width)) for width in (hidden, action, action, hidden, hidden)]


def _views(flat: np.ndarray, like) -> list[np.ndarray]:
    """`flat` cut into consecutive views shaped like the arrays of `like`."""
    ends = np.cumsum([p.size for p in like])
    return [flat[end - p.size:end].reshape(p.shape) for p, end in zip(like, ends)]


def _gradient(params, z, labels):
    """`_backprop` into fresh arrays; returns (err, g_w1, g_b1, g_w2, g_b2)."""
    grads = [np.empty(p.shape) for p in params]
    return (_backprop(params, z, labels, grads, _workspace(params, z.shape[-2])), *grads)


def loss_and_grad(policy: MLPPolicy, states: np.ndarray, labels: np.ndarray):
    """Mean squared imitation loss over the batch and its exact gradient.

    Returns (loss, grads) with grads keyed 'w1', 'b1', 'w2', 'b2'.
    """
    states, labels = _checked_pairs(states, labels, 0, (policy.state_dim, len(policy.b2)),
                                    "the batch")
    if len(states) == 0:
        raise ConfigurationError("batch must be non-empty")
    err, *grads = _gradient(policy.params, policy.standardizer.transform(states), labels)
    return float((err**2).sum() / len(states)), dict(zip(PARAMS, grads))


def _sgd_epochs(params, z, labels, perms, config: TrainConfig) -> None:
    """The one minibatch SGD loop; updates `params` (w1, b1, w2, b2) in place.

    `z` and `labels` are the standardized states and actions, one training
    pair per row, and `perms` holds each epoch's row indices, shape
    (epochs, rows); the minibatches restart with each epoch. With shape
    (epochs, members, rows) and a leading member axis on every parameter, the
    members train in lockstep, each on its own rows of the stack.

    Each epoch gathers its permuted rows once; the parameters and gradients
    are views of one flat vector each, so a step is `grad *= lr; flat -= grad`,
    and every intermediate lives in buffers allocated once per call. The
    operations are those of `lr * grad` and a fresh array per intermediate,
    in the same order, so the bits are too.
    """
    lr, size = config.learning_rate, config.batch_size
    flat = np.concatenate([p.ravel() for p in params])
    grad = np.empty_like(flat)
    weights, grads = _views(flat, params), _views(grad, params)
    work = _workspace(params, min(size, perms.shape[-1]))
    z_perm = np.empty(perms.shape[1:] + z.shape[-1:])
    labels_perm = np.empty(perms.shape[1:] + labels.shape[-1:])
    for perm in perms:
        np.take(z, perm, axis=0, out=z_perm)
        np.take(labels, perm, axis=0, out=labels_perm)
        for start in range(0, perm.shape[-1], size):
            rows = slice(start, start + size)
            _backprop(weights, z_perm[..., rows, :], labels_perm[..., rows, :], grads, work)
            grad *= lr
            flat -= grad
    for param, weight in zip(params, weights):
        param[...] = weight


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

    The returned policy shares the dataset's standardizer, and the dataset is
    left as it is. With `members` set, returns that many policies, each
    trained on its own bootstrap resample of the dataset: the generator gives
    each member, in turn, its resample, its initial weights and its epochs'
    permutations, and the members then train in lockstep. Each member gets
    the bits of a one-member call on its resample.
    """
    if members is not None and members < 1:
        raise ConfigurationError(f"members must be >= 1, got {members}")
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
           rng: np.random.Generator, epochs: int | None = None,
           epoch_rows: int | None = None) -> MLPPolicy:
    """Advance the learner on the aggregated dataset.

    Warm-starts from the given parameters by default and trains on
    `epochs * epoch_rows` rows: consecutive permutations of the whole dataset,
    cut at that count, with the minibatches restarting every `epoch_rows`
    rows, so every row is trained on while the count reaches the dataset's
    size. `epoch_rows` defaults to the dataset's size, one permutation per
    epoch; `train` passes the initial dataset's size, so an update costs the
    same however large the dataset grows. `epochs` overrides
    config.update_epochs (the benchmark's tracer reads it). Set
    config.retrain_from_scratch to re-run behavioral cloning for
    config.bc_epochs on the whole dataset instead, in which case `epochs`
    must not be given.
    """
    if config.retrain_from_scratch:
        if epochs is not None:
            raise ConfigurationError(
                f"epochs={epochs} has no effect with retrain_from_scratch, which trains "
                f"for bc_epochs={config.bc_epochs}")
        return behavioral_cloning(dataset, config, rng)
    if epochs is None:
        epochs = config.update_epochs
    n = len(dataset)
    if epoch_rows is None:
        epoch_rows = n
    if epochs < 1 or epoch_rows < 1:
        raise ConfigurationError(f"epochs and epoch_rows must be >= 1, got {epochs} and "
                                 f"{epoch_rows}")
    policy = policy.copy()
    total = epochs * epoch_rows
    perms = np.empty((-(-total // n), n), dtype=np.intp)
    _shuffle_into(perms, rng)
    _sgd_epochs(policy.params, policy.standardizer.transform(dataset.states), dataset.actions,
                perms.reshape(-1)[:total].reshape(epochs, epoch_rows), config)
    return policy
