import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crsail.dataset import ExpertDataset, Standardizer
from crsail.exceptions import InsufficientDataError, NumericalFailureError
from crsail.novelty import score_batch, score_sK
from crsail.strategies import StrategyConfig


def knn(k, backend="brute"):
    """The K-NN novelty parameters of a crsail query rule."""
    return StrategyConfig("crsail", k=k, backend=backend)


def dataset_1d(values):
    values = np.asarray(values, dtype=np.float64)
    return ExpertDataset(values[:, None], np.zeros((len(values), 1)))


def brute_force_kth(x, points, k):
    dists = sorted(float(np.sqrt(((p - x) ** 2).sum())) for p in points)
    return dists[k - 1]


def test_hand_example_k2():
    ds = dataset_1d([0.0, 1.0, 3.0])
    assert score_sK(np.array([2.0]), ds, knn(2)) == 1.0


def test_hand_example_k3_monotonicity():
    ds = dataset_1d([0.0, 1.0, 3.0])
    assert score_sK(np.array([2.0]), ds, knn(3)) == 2.0


def test_duplicate_membership_gives_zero():
    ds = dataset_1d([0.7] * 5 + [2.0, 3.0])
    assert score_sK(np.array([0.7]), ds, knn(5)) == 0.0


def test_insufficient_data_raises():
    ds = dataset_1d([0.0, 1.0])
    with pytest.raises(InsufficientDataError):
        score_sK(np.array([0.5]), ds, knn(3))


def test_batch_empty_and_singleton():
    ds = dataset_1d([0.0, 1.0, 3.0])
    cfg = knn(2)
    assert len(score_batch([], ds, cfg)) == 0
    single = score_batch(np.array([[2.0]]), ds, cfg)
    assert single[0] == score_sK(np.array([2.0]), ds, cfg)


def test_batch_matches_per_state_brute_force():
    rng = np.random.default_rng(0)
    states = rng.normal(size=(50, 3))
    ds = ExpertDataset(states, np.zeros((50, 1)))
    queries = rng.normal(size=(200, 3))
    cfg = knn(4)
    batch = score_batch(queries, ds, cfg)
    for q, s in zip(queries, batch):
        assert s == score_sK(q, ds, cfg)
        assert s == brute_force_kth(q, states, 4)


def test_backend_equivalence_exact():
    rng = np.random.default_rng(1)
    points = rng.normal(size=(500, 4))
    points = np.vstack([points, points[:20]])  # duplicates
    ds = ExpertDataset(points, np.zeros((len(points), 1)))
    queries = rng.normal(size=(300, 4))
    for k in (1, 5, 9):
        brute = score_batch(queries, ds, knn(k, "brute"))
        tree = score_batch(queries, ds, knn(k, "kdtree"))
        assert np.array_equal(brute, tree)


def test_scores_reflect_appends():
    rng = np.random.default_rng(2)
    ds = ExpertDataset(rng.normal(size=(20, 2)), np.zeros((20, 1)))
    cfg = knn(1)
    new_states = rng.normal(size=(5, 2))
    assert np.all(score_batch(new_states, ds, cfg) > 0.0)
    ds.append(new_states, np.zeros((5, 1)))
    assert np.all(score_batch(new_states, ds, cfg) == 0.0)


def test_standardized_mode_uses_frozen_standardizer():
    states = np.array([[0.0, 0.0], [2.0, 200.0]])
    ds = ExpertDataset(states, np.zeros((2, 1)))
    ds.standardizer = Standardizer(mean=np.array([0.0, 0.0]), std=np.array([1.0, 100.0]))
    cfg = knn(1)
    # second coordinate is shrunk by 100x under the standardizer
    assert score_sK(np.array([0.0, 100.0]), ds, cfg) == 1.0


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_monotone_in_k(data):
    rng = np.random.default_rng(data.draw(st.integers(0, 10_000)))
    n = data.draw(st.integers(3, 30))
    points = rng.normal(size=(n, 2))
    ds = ExpertDataset(points, np.zeros((n, 1)))
    x = rng.normal(size=2)
    scores = [score_sK(x, ds, knn(k)) for k in range(1, n + 1)]
    assert all(a <= b for a, b in zip(scores, scores[1:]))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_antitone_in_data(data):
    rng = np.random.default_rng(data.draw(st.integers(0, 10_000)))
    n = data.draw(st.integers(3, 30))
    k = data.draw(st.integers(1, 3))
    points = rng.normal(size=(n, 2))
    ds = ExpertDataset(points, np.zeros((n, 1)))
    x = rng.normal(size=2)
    before = score_sK(x, ds, knn(k))
    ds.append(rng.normal(size=(1, 2)), np.zeros((1, 1)))
    after = score_sK(x, ds, knn(k))
    assert after <= before


def test_permutation_invariance():
    rng = np.random.default_rng(3)
    points = rng.normal(size=(15, 3))
    perm = rng.permutation(15)
    ds1 = ExpertDataset(points, np.zeros((15, 1)))
    ds2 = ExpertDataset(points[perm], np.zeros((15, 1)))
    x = rng.normal(size=3)
    cfg = knn(4)
    assert score_sK(x, ds1, cfg) == score_sK(x, ds2, cfg)


def test_translation_invariance_unstandardized():
    rng = np.random.default_rng(4)
    points = rng.normal(size=(10, 2))
    shift = np.array([3.5, -1.25])
    x = rng.normal(size=2)
    cfg = knn(3)
    ds1 = ExpertDataset(points, np.zeros((10, 1)))
    ds2 = ExpertDataset(points + shift, np.zeros((10, 1)))
    # exact equality is too strict: the shift perturbs the rounding of the
    # squared differences
    assert score_sK(x, ds1, cfg) == pytest.approx(score_sK(x + shift, ds2, cfg), rel=1e-12)


def test_append_rejects_non_finite_labels_naming_label_and_row():
    ds = ExpertDataset(np.zeros((3, 2)), np.zeros((3, 1)))
    states = np.array([[1.0, 1.0], [2.0, 2.0]])
    with pytest.raises(NumericalFailureError, match=r"label \[inf\].*row 4"):
        ds.append(states, np.array([[0.5], [np.inf]]))
    assert len(ds) == 3  # nothing was appended
