import math

import numpy as np
import pytest

from crsail.core import rollout
from crsail.dataset import ExpertDataset, Standardizer
from crsail.envs import make_env, make_expert
from crsail.exceptions import ConfigurationError, NumericalFailureError
from crsail.policy import (
    HIDDEN,
    PARAMS,
    MLPPolicy,
    TrainConfig,
    _gradient,
    _sgd_epochs,
    behavioral_cloning,
    loss_and_grad,
    update,
)
from crsail.trainer import build_initial_dataset
from crsail.novelty import score_batch
from crsail.strategies import StrategyConfig
from helpers import identity_standardizer, params_equal, same_bits


def random_policy(rng, d=3, a=2, hidden=8):
    return MLPPolicy(
        w1=rng.standard_normal((hidden, d)),
        b1=rng.standard_normal(hidden),
        w2=rng.standard_normal((a, hidden)),
        b2=rng.standard_normal(a),
        standardizer=identity_standardizer(d),
    )


def reference_forward(policy, x):
    """Straight-line re-evaluation of the two-layer map, no vectorization."""
    hidden = [
        math.tanh(sum(policy.w1[i, j] * x[j] for j in range(len(x))) + policy.b1[i])
        for i in range(policy.w1.shape[0])
    ]
    return np.array([
        sum(policy.w2[i, j] * hidden[j] for j in range(len(hidden))) + policy.b2[i]
        for i in range(policy.w2.shape[0])
    ])


def numerical_grad(policy, states, labels, h=1e-5):
    grads = {}
    for name in ("w1", "b1", "w2", "b2"):
        param = getattr(policy, name)
        g = np.zeros_like(param)
        it = np.nditer(param, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            orig = param[idx]
            param[idx] = orig + h
            lp, _ = loss_and_grad(policy, states, labels)
            param[idx] = orig - h
            lm, _ = loss_and_grad(policy, states, labels)
            param[idx] = orig
            g[idx] = (lp - lm) / (2 * h)
            it.iternext()
        grads[name] = g
    return grads


def assert_grads_close(analytic, numeric, rel=1e-4, tiny=1e-8):
    for name in analytic:
        a, n = analytic[name], numeric[name]
        small = np.abs(a) < tiny
        np.testing.assert_allclose(a[~small], n[~small], rtol=rel)
        np.testing.assert_allclose(a[small], n[small], atol=1e-6)


def test_zero_params_give_zero_action():
    policy = MLPPolicy(np.zeros((4, 3)), np.zeros(4), np.zeros((2, 4)), np.zeros(2),
                       identity_standardizer(3))
    assert np.array_equal(policy.act(np.array([1.0, -2.0, 3.0])), np.zeros(2))


def test_identity_like_1d_case():
    policy = MLPPolicy(np.array([[1.0]]), np.zeros(1), np.array([[1.0]]), np.zeros(1),
                       identity_standardizer(1))
    assert policy.act(np.zeros(1))[0] == 0.0


def test_forward_matches_independent_reevaluation():
    rng = np.random.default_rng(1)
    for _ in range(10):
        policy = random_policy(rng)
        x = rng.standard_normal(3)
        np.testing.assert_allclose(policy.act(x), reference_forward(policy, x), rtol=1e-12)


def test_loss_zero_at_minimum():
    rng = np.random.default_rng(2)
    policy = random_policy(rng)
    for state in rng.standard_normal((5, 3)):  # one-row batches: act's bits are the loss's
        loss, grads = loss_and_grad(policy, state, policy.act(state))
        assert loss == 0.0
        assert all(np.all(g == 0.0) for g in grads.values())


def test_loss_and_grad_hand_case():
    policy = MLPPolicy(np.zeros((1, 1)), np.zeros(1), np.zeros((1, 1)), np.zeros(1),
                       identity_standardizer(1))
    loss, grads = loss_and_grad(policy, np.array([[0.0]]), np.array([[2.0]]))
    assert loss == 4.0
    assert grads["b2"][0] == -4.0


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(3)
    for _ in range(5):
        policy = random_policy(rng, d=2, a=2, hidden=5)
        states = rng.standard_normal((4, 2))
        labels = rng.standard_normal((4, 2))
        _, grads = loss_and_grad(policy, states, labels)
        assert_grads_close(grads, numerical_grad(policy, states, labels))


def test_stacked_gradient_is_each_members_gradient():
    rng = np.random.default_rng(4)
    policies = [random_policy(rng, d=2, a=2, hidden=5) for _ in range(3)]
    states = rng.standard_normal((3, 4, 2))
    labels = rng.standard_normal((3, 4, 2))
    stacked = _gradient([np.stack(p) for p in zip(*(q.params for q in policies))],
                        states, labels)
    for e, policy in enumerate(policies):
        own = _gradient(policy.params, states[e], labels[e])
        assert all(same_bits(s[e], g) for s, g in zip(stacked, own))
        slice_grads = dict(zip(PARAMS, (s[e] for s in stacked[1:])))
        assert_grads_close(slice_grads, numerical_grad(policy, states[e], labels[e]))


def _reference_gradient(params, z, labels):
    """The gradient written with a fresh array for every intermediate: the
    arithmetic `_backprop` must reproduce in its buffers."""
    w1, b1, w2, b2 = params
    n = z.shape[-2]
    hidden = np.tanh(z @ np.swapaxes(w1, -1, -2) + b1[..., None, :])
    err = hidden @ np.swapaxes(w2, -1, -2) + b2[..., None, :] - labels
    d_out = 2.0 * err / n
    d_pre = (d_out @ w2) * (1.0 - hidden**2)
    return (err, np.swapaxes(d_pre, -1, -2) @ z, d_pre.sum(axis=-2),
            np.swapaxes(d_out, -1, -2) @ hidden, d_out.sum(axis=-2))


def _reference_sgd_epochs(params, z, labels, perms, config):
    """The SGD loop that gathers each minibatch's rows anew and allocates every
    step: the oracle for `_sgd_epochs`."""
    for perm in perms:
        for start in range(0, perm.shape[-1], config.batch_size):
            idx = perm[..., start:start + config.batch_size]
            for param, grad in zip(params, _reference_gradient(params, z[idx], labels[idx])[1:]):
                param -= config.learning_rate * grad


@pytest.mark.parametrize("members", [None, 3])
@pytest.mark.parametrize("n, batch_size", [
    (150, 64),  # the last minibatch of each epoch is short
    (40, 64),   # batch_size > n: one short minibatch per epoch
    (128, 64),
    (37, 1),
])
def test_sgd_loop_equals_the_reference_loop(members, n, batch_size):
    rng = np.random.default_rng(n + batch_size)
    count, lead = members or 1, () if members is None else (members,)
    params = [0.5 * rng.standard_normal(lead + shape)
              for shape in ((HIDDEN, 6), (HIDDEN,), (2, HIDDEN), (2,))]
    z, labels = rng.standard_normal((count * n, 6)), rng.standard_normal((count * n, 2))
    perms = np.array([[rng.permutation(n) + e * n for e in range(count)] for _ in range(4)])
    if members is None:
        perms = perms[:, 0]
    config = TrainConfig(learning_rate=0.05, batch_size=batch_size)
    first = perms[0][..., :batch_size]
    for got, want in zip(_gradient(params, z[first], labels[first]),
                         _reference_gradient(params, z[first], labels[first])):
        assert same_bits(got, want)
    initial, expected = params[0].copy(), [p.copy() for p in params]
    _reference_sgd_epochs(expected, z, labels, perms, config)
    _sgd_epochs(params, z, labels, perms, config)
    assert all(same_bits(p, e) for p, e in zip(params, expected))
    assert not same_bits(params[0], initial)  # the loop updated the caller's arrays


@pytest.mark.parametrize("members", [None, 3])
def test_one_wide_action_gradient_equals_the_reference(members):
    # With one action dim (pendulum), `_backprop` forms d_out @ w2 as a
    # broadcast product; it must keep the matmul's bits.
    rng = np.random.default_rng(9)
    lead = () if members is None else (members,)
    params = [0.5 * rng.standard_normal(lead + shape)
              for shape in ((HIDDEN, 3), (HIDDEN,), (1, HIDDEN), (1,))]
    z, labels = rng.standard_normal(lead + (50, 3)), rng.standard_normal(lead + (50, 1))
    for got, want in zip(_gradient(params, z, labels), _reference_gradient(params, z, labels)):
        assert same_bits(got, want)
    policy = random_policy(rng, d=2, a=1, hidden=5)
    states, targets = rng.standard_normal((4, 2)), rng.standard_normal((4, 1))
    assert_grads_close(loss_and_grad(policy, states, targets)[1],
                       numerical_grad(policy, states, targets))


def test_dimension_mismatch_rejected():
    policy = MLPPolicy(np.zeros((4, 3)), np.zeros(4), np.zeros((2, 4)), np.zeros(2),
                       identity_standardizer(3))
    with pytest.raises(ConfigurationError):
        policy.act(np.zeros(5))


def test_bc_fits_single_pair():
    dataset = ExpertDataset(np.array([[0.5, -0.5]]), np.array([[1.0]]), identity_standardizer(2))
    policy = behavioral_cloning(dataset, TrainConfig(bc_epochs=500, batch_size=1),
                                np.random.default_rng(0))
    assert abs(policy.act(np.array([0.5, -0.5]))[0] - 1.0) < 1e-2


def test_bc_learns_linear_expert_on_double_integrator():
    env = make_env("double_integrator")
    expert = make_expert(env)
    dataset = build_initial_dataset(env, expert, 2000, 9)
    policy = behavioral_cloning(dataset, TrainConfig(), np.random.default_rng(0))
    held_out = build_initial_dataset(env, expert, 300, 10)
    err = policy.act(held_out.states) - held_out.actions
    assert float((err**2).sum(axis=1).mean()) < 1e-2


def test_bc_is_deterministic():
    env = make_env("double_integrator")
    dataset = build_initial_dataset(env, make_expert(env), 200, 4)
    p1 = behavioral_cloning(dataset.copy(), TrainConfig(), np.random.default_rng(5))
    p2 = behavioral_cloning(dataset.copy(), TrainConfig(), np.random.default_rng(5))
    assert params_equal(p1, p2)


def test_empty_dataset_rejected():
    with pytest.raises(ConfigurationError, match="at least one initial pair"):
        ExpertDataset(np.zeros((0, 2)), np.zeros((0, 1)), identity_standardizer(2))
    dataset = ExpertDataset(np.zeros((1, 2)), np.zeros((1, 1)), identity_standardizer(2))
    dataset.append(np.zeros((0, 2)), np.zeros((0, 1)))  # appending no pairs stays legal
    assert len(dataset) == 1


def test_update_does_not_blow_up_converged_loss():
    env = make_env("double_integrator")
    dataset = build_initial_dataset(env, make_expert(env), 500, 6)
    config = TrainConfig()
    policy = behavioral_cloning(dataset, config, np.random.default_rng(1))
    before, _ = loss_and_grad(policy, dataset.states, dataset.actions)
    after_policy = update(policy, dataset, config, np.random.default_rng(1))
    after, _ = loss_and_grad(after_policy, dataset.states, dataset.actions)
    assert after <= before * 1.10


def test_zero_epochs_disallowed():
    dataset = ExpertDataset(np.array([[0.0]]), np.array([[0.0]]), identity_standardizer(1))
    policy = MLPPolicy(np.zeros((1, 1)), np.zeros(1), np.zeros((1, 1)), np.zeros(1),
                       identity_standardizer(1))
    with pytest.raises(ConfigurationError):
        update(policy, dataset, TrainConfig(), np.random.default_rng(0), epochs=0)
    with pytest.raises(ConfigurationError):
        TrainConfig(update_epochs=0)


def test_update_replays_identically_with_shared_stream():
    env = make_env("double_integrator")
    dataset = build_initial_dataset(env, make_expert(env), 300, 8)
    config = TrainConfig()
    base = behavioral_cloning(dataset, config, np.random.default_rng(2))

    rng_a = np.random.default_rng(77)
    twice = update(update(base, dataset, config, epochs=1, rng=rng_a),
                   dataset, config, epochs=1, rng=rng_a)
    rng_b = np.random.default_rng(77)
    once = update(base, dataset, config, epochs=2, rng=rng_b)
    la, _ = loss_and_grad(twice, dataset.states, dataset.actions)
    lb, _ = loss_and_grad(once, dataset.states, dataset.actions)
    assert abs(la - lb) < 1e-6


def test_training_loss_mostly_non_increasing():
    env = make_env("double_integrator")
    dataset = build_initial_dataset(env, make_expert(env), 500, 12)
    config = TrainConfig()
    policy = behavioral_cloning(dataset, config, np.random.default_rng(3))
    rng = np.random.default_rng(13)
    losses = [loss_and_grad(policy, dataset.states, dataset.actions)[0]]
    for _ in range(30):
        policy = update(policy, dataset, config, epochs=1, rng=rng)
        losses.append(loss_and_grad(policy, dataset.states, dataset.actions)[0])
    decreases = sum(b <= a for a, b in zip(losses, losses[1:]))
    assert decreases >= 0.95 * (len(losses) - 1)


def test_retrain_from_scratch_flag():
    env = make_env("double_integrator")
    dataset = build_initial_dataset(env, make_expert(env), 200, 4)
    config = TrainConfig(retrain_from_scratch=True)
    warm = behavioral_cloning(dataset, TrainConfig(), np.random.default_rng(5))
    fresh = update(warm, dataset, config, np.random.default_rng(5))
    # retraining ignores the incoming parameters entirely
    assert params_equal(fresh, behavioral_cloning(dataset, TrainConfig(), np.random.default_rng(5)))


def test_retrain_from_scratch_rejects_epochs():
    # retraining runs bc_epochs, so an explicit epoch count would be ignored
    dataset = ExpertDataset(np.random.default_rng(6).normal(size=(50, 2)), np.zeros((50, 1)),
                            identity_standardizer(2))
    config = TrainConfig(retrain_from_scratch=True)
    warm = behavioral_cloning(dataset, TrainConfig(), np.random.default_rng(6))
    for epochs in (1, 7):
        with pytest.raises(ConfigurationError, match="retrain_from_scratch"):
            update(warm, dataset, config, np.random.default_rng(6), epochs=epochs)


def members_one_by_one(dataset, config, rng, members):
    """Each member cloned alone on its bootstrap resample, both drawn from `rng`
    in turn: the reference that lockstep ensemble training must reproduce."""
    ensemble = []
    for _ in range(members):
        idx = rng.integers(0, len(dataset), size=len(dataset))
        boot = ExpertDataset(dataset.states[idx], dataset.actions[idx], dataset.standardizer)
        ensemble.append(behavioral_cloning(boot, config, rng))
    return ensemble


@pytest.mark.parametrize("members", [2, 5])
@pytest.mark.parametrize("n, batch_size", [
    (150, 64),  # n not a multiple of the batch size: each epoch ends on a short batch
    (40, 64),   # n < batch_size: one short batch per epoch
    (37, 1),    # one row per step
])
def test_ensemble_equals_members_trained_one_by_one(members, n, batch_size):
    env = make_env("pusher")
    full = build_initial_dataset(env, make_expert(env), n, 5)
    dataset = ExpertDataset(full.states[:n], full.actions[:n], Standardizer.fit(full.states[:n]))
    config = TrainConfig(batch_size=batch_size, bc_epochs=8)
    ref_rng, rng = np.random.default_rng(9), np.random.default_rng(9)
    expected = members_one_by_one(dataset, config, ref_rng, members)
    ensemble = behavioral_cloning(dataset, config, rng, members=members)
    assert len(ensemble) == members
    for policy, reference in zip(ensemble, expected):
        assert all(same_bits(getattr(policy, k), getattr(reference, k)) for k in PARAMS)
        assert policy.standardizer is dataset.standardizer
    assert rng.random() == ref_rng.random()


def test_zero_members_rejected():
    dataset = ExpertDataset(np.array([[0.0]]), np.array([[0.0]]), identity_standardizer(1))
    with pytest.raises(ConfigurationError, match="members must be >= 1"):
        behavioral_cloning(dataset, TrainConfig(), np.random.default_rng(0), members=0)


def test_standardizer_shared_between_dataset_and_policy():
    env = make_env("pendulum")
    dataset = build_initial_dataset(env, make_expert(env), 100, 3)
    policy = behavioral_cloning(dataset, TrainConfig(bc_epochs=1), np.random.default_rng(0))
    assert policy.standardizer is dataset.standardizer


def test_cloning_and_updating_leave_novelty_scores_unchanged():
    # Scores must not depend on whether a policy was cloned from the dataset:
    # cloning that fitted a standardizer into it moved every score.
    env = make_env("pendulum")
    dataset = build_initial_dataset(env, make_expert(env), 50, 3)
    queries = np.random.default_rng(4).normal(scale=2.0, size=(20, 2))
    strategy = StrategyConfig("crsail")
    before = score_batch(queries, dataset, strategy)
    config = TrainConfig(bc_epochs=2, update_epochs=1)
    policy = behavioral_cloning(dataset, config, np.random.default_rng(0))
    assert policy.standardizer is dataset.standardizer
    assert same_bits(score_batch(queries, dataset, strategy), before)
    policy = update(policy, dataset, config, np.random.default_rng(1))
    assert policy.standardizer is dataset.standardizer
    assert same_bits(score_batch(queries, dataset, strategy), before)
    fitted = Standardizer.fit(dataset.states)  # on the initial states, which were all of them
    assert same_bits(dataset.standardizer.mean, fitted.mean)
    assert same_bits(dataset.standardizer.std, fitted.std)


@pytest.fixture(scope="module")
def pendulum_policy():
    """A policy cloned on pendulum states, which are 2 wide."""
    env = make_env("pendulum")
    dataset = build_initial_dataset(env, make_expert(env), 100, 3)
    return behavioral_cloning(dataset, TrainConfig(bc_epochs=5), np.random.default_rng(0))


@pytest.mark.parametrize("shape", [(1,), (3,), (4, 1), (4, 3), (2, 4, 2), ()], ids=str)
def test_states_of_another_width_rejected_before_standardizing(pendulum_policy, shape):
    # A 1-wide state was broadcast against the 2-wide standardizer and got an
    # action; a 3-wide one failed in numpy's broadcasting.
    with pytest.raises(ConfigurationError) as err:
        pendulum_policy.act(np.zeros(shape))
    assert str(err.value) == (f"states have shape {shape}, but the standardizer takes "
                              "one state (2,) or a stack (n, 2)")
    if len(shape) > 1:
        with pytest.raises(ConfigurationError) as err:
            loss_and_grad(pendulum_policy, np.zeros(shape), np.zeros((shape[0], 1)))
        assert str(err.value).startswith(f"pairs have mismatched dimensions: states {shape}")


def test_labels_of_another_shape_rejected():
    # (4, 1) labels were broadcast against a 2-action output into a loss;
    # 3 labels for 4 states failed in numpy's broadcasting.
    policy = MLPPolicy(np.ones((4, 2)), np.ones(4), np.ones((2, 4)), np.ones(2),
                       identity_standardizer(2))
    with pytest.raises(ConfigurationError) as err:
        loss_and_grad(policy, np.ones((4, 2)), np.ones((4, 1)))
    assert str(err.value) == ("pairs have mismatched dimensions: states (4, 2), actions (4, 1), "
                              "expected widths (2, 2)")
    with pytest.raises(ConfigurationError) as err:
        loss_and_grad(policy, np.ones((4, 2)), np.ones((3, 2)))
    assert str(err.value) == "state/action count mismatch: 4 vs 3"
    # a bad label names its row of the batch; no dataset is involved
    with pytest.raises(NumericalFailureError) as err:
        loss_and_grad(policy, np.ones((3, 2)), [[0.0, 0.0], [np.nan, 0.0], [1.0, 1.0]])
    assert str(err.value) == \
        "non-finite expert label [nan  0.] for state [1. 1.] (row 1 of the batch)"


@pytest.mark.parametrize("width", [1, 3])
def test_standardizer_of_another_width_rejected(width):
    scale = identity_standardizer(width)
    with pytest.raises(ConfigurationError) as err:
        ExpertDataset(np.zeros((3, 2)), np.zeros((3, 1)), scale)
    assert str(err.value) == \
        f"the standardizer has width {width}, but the dataset's states have width 2"
    message = f"the standardizer has width {width}, but the policy's states have width 2"
    with pytest.raises(ConfigurationError) as err:
        MLPPolicy(np.zeros((4, 2)), np.zeros(4), np.zeros((1, 4)), np.zeros(1), scale)
    assert str(err.value) == message
    with pytest.raises(ConfigurationError) as err:
        MLPPolicy.initialize(2, 1, TrainConfig(), np.random.default_rng(0), scale)
    assert str(err.value) == message


@pytest.mark.parametrize("d, a", [(2, 1), (4, 2), (6, 2)])
def test_act_on_a_stack_equals_act_row_by_row(d, a):
    rng = np.random.default_rng(d)
    scale = Standardizer(mean=rng.normal(size=d), std=rng.uniform(0.5, 2.0, size=d))
    policy = MLPPolicy.initialize(d, a, TrainConfig(init_scale=0.5), rng, scale)
    states = rng.normal(scale=2.0, size=(2000, d))
    stacked = policy.act(states)
    assert stacked.shape == (2000, a)
    assert same_bits(stacked, np.array([policy.act(x) for x in states]))
    np.testing.assert_allclose(stacked[0], reference_forward(policy, scale.transform(states[0])),
                               rtol=1e-12)


@pytest.mark.parametrize("name", ["learning_rate", "init_scale"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_train_values_rejected(name, value):
    with pytest.raises(ConfigurationError, match=f"{name} must be finite"):
        TrainConfig(**{name: value})
