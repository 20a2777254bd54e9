import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crsail.dataset import ExpertDataset, Standardizer
from crsail.exceptions import ConfigurationError, InsufficientDataError, NumericalFailureError
from crsail.novelty import score_batch
from crsail.strategies import StrategyConfig
from helpers import identity_standardizer


def knn(k, backend="brute"):
    """The K-NN novelty parameters of a crsail query rule."""
    return StrategyConfig("crsail", k=k, backend=backend)


def dataset_1d(values):
    values = np.asarray(values, dtype=np.float64)
    return ExpertDataset(values[:, None], np.zeros((len(values), 1)), identity_standardizer(1))


def _pairwise_block_scan(states, dataset, k):
    """The brute-force scan as first written: one (B, N, d) block of squared
    differences summed over its last axis, then partitioned. It pins the bits
    that the streaming scan in `score_batch` must keep."""
    points, q = dataset.states, np.atleast_2d(np.asarray(states, dtype=np.float64))
    points, q = dataset.standardizer.transform(points), dataset.standardizer.transform(q)
    sq = ((q[:, None, :] - points[None, :, :]) ** 2).sum(axis=-1)
    return np.sqrt(np.partition(sq, k - 1, axis=1)[:, k - 1])


def brute_force_kth(x, points, k):
    dists = sorted(float(np.sqrt(((p - x) ** 2).sum())) for p in points)
    return dists[k - 1]


def test_hand_example_k2():
    ds = dataset_1d([0.0, 1.0, 3.0])
    assert score_batch([[2.0]], ds, knn(2))[0] == 1.0


def test_hand_example_k3_monotonicity():
    ds = dataset_1d([0.0, 1.0, 3.0])
    assert score_batch([[2.0]], ds, knn(3))[0] == 2.0


def test_duplicate_membership_gives_zero():
    ds = dataset_1d([0.7] * 5 + [2.0, 3.0])
    assert score_batch([[0.7]], ds, knn(5))[0] == 0.0


def test_insufficient_data_raises():
    ds = dataset_1d([0.0, 1.0])
    with pytest.raises(InsufficientDataError):
        score_batch([[0.5]], ds, knn(3))


@pytest.mark.parametrize("backend", ["brute", "kdtree"])
def test_states_of_another_width_rejected(backend):
    # Without the check the scan read the first column of a 2-wide state, and
    # took a flat pair of 1-d states for one state.
    ds = dataset_1d([0.0, 1.0, 3.0])
    for states in ([[2.0, 100.0]], np.array([2.0, 3.0]), np.zeros((2, 1, 1))):
        with pytest.raises(ConfigurationError) as err:
            score_batch(states, ds, knn(1, backend))
        assert str(err.value) == (f"states have shape {np.shape(states)}, but the standardizer "
                                  "takes one state (1,) or a stack (n, 1)")
    assert score_batch(np.array([2.0]), ds, knn(1, backend))[0] == 1.0  # one flat state


def test_batch_empty_and_singleton():
    ds = dataset_1d([0.0, 1.0, 3.0])
    cfg = knn(2)
    assert len(score_batch([], ds, cfg)) == 0
    single = score_batch(np.array([[2.0]]), ds, cfg)
    assert single.shape == (1,) and single[0] == 1.0


def test_batch_matches_per_state_brute_force():
    rng = np.random.default_rng(0)
    states = rng.normal(size=(50, 3))
    ds = ExpertDataset(states, np.zeros((50, 1)), identity_standardizer(3))
    queries = rng.normal(size=(200, 3))
    cfg = knn(4)
    batch = score_batch(queries, ds, cfg)
    for q, s in zip(queries, batch):
        assert s == score_batch([q], ds, cfg)[0]
        assert s == brute_force_kth(q, states, 4)


def test_backend_equivalence_exact():
    # bit-equal up to 7 dimensions; see the next test for 8 and more
    rng = np.random.default_rng(1)
    for d in range(1, 8):
        points = rng.normal(size=(500, d))
        points = np.vstack([points, points[:20]])  # duplicates
        ds = ExpertDataset(points, np.zeros((len(points), 1)), identity_standardizer(d))
        queries = rng.normal(size=(300, d))
        for k in (1, 5, 9):
            brute = score_batch(queries, ds, knn(k, "brute"))
            tree = score_batch(queries, ds, knn(k, "kdtree"))
            assert np.array_equal(brute, tree)


def test_only_the_kdtree_backend_loads_scipy():
    # A fresh interpreter, so no other test's import of scipy counts.
    script = textwrap.dedent("""
        import sys
        import numpy as np
        from crsail import ExpertDataset, Standardizer, StrategyConfig, score_batch
        from crsail.harness import ExperimentConfig, run_single

        for strategy, params in (("crsail", {}), ("dagger", {}),
                                 ("ensemble-variance", {"ensemble_size": 2})):
            config = ExperimentConfig(
                env="pendulum", strategy=strategy, seeds=[0], m_values=[100],
                eval_episodes=1, m_cal=2, max_steps=1, strategy_params=params,
                train_params={"bc_epochs": 2, "update_epochs": 1})
            assert len(run_single(config, 100, 0).episodes) == 1
        tree = StrategyConfig("crsail", backend="kdtree")  # checked, not loaded
        assert "scipy" not in sys.modules, "scipy loaded without the kdtree backend"

        rng = np.random.default_rng(5)
        for d in (1, 3, 6, 7):
            points = rng.normal(size=(400, d)) * rng.uniform(0.1, 10.0, size=d)
            ds = ExpertDataset(points, np.zeros((400, 1)), Standardizer.fit(points))
            queries = rng.normal(size=(90, d)) * 3.0
            brute = score_batch(queries, ds, StrategyConfig("crsail"))
            assert score_batch(queries, ds, tree).tobytes() == brute.tobytes(), d
        assert "scipy.spatial" in sys.modules
        print("ok")
    """)
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, timeout=120)
    assert proc.returncode == 0 and proc.stdout == "ok\n", proc.stdout + proc.stderr


@pytest.mark.parametrize("d", [8, 12])
def test_backends_agree_to_rounding_from_8_dims(d):
    # From 8 dims numpy sums a last axis pairwise, so the block scan, the
    # streaming scan and the tree may each round the sum differently.
    rng = np.random.default_rng(20 + d)
    points = rng.normal(size=(300, d))
    ds = ExpertDataset(points, np.zeros((300, 1)), identity_standardizer(d))
    queries = rng.normal(size=(70, d))
    brute = score_batch(queries, ds, knn(5, "brute"))
    np.testing.assert_allclose(brute, score_batch(queries, ds, knn(5, "kdtree")), rtol=1e-12)
    np.testing.assert_allclose(brute, _pairwise_block_scan(queries, ds, 5), rtol=1e-12)


@pytest.mark.parametrize("d", [1, 2, 3, 6, 7])
@pytest.mark.parametrize("standardized", [False, True])
def test_brute_scan_matches_pairwise_block_bits(d, standardized):
    rng = np.random.default_rng(d)
    points = rng.normal(size=(40, d)) * rng.uniform(0.1, 10.0, size=d)
    points = np.vstack([points, points[:9]])  # duplicated rows
    scale = Standardizer.fit(points) if standardized else identity_standardizer(d)
    ds = ExpertDataset(points, np.zeros((len(points), 1)), scale)
    # query counts below, at, just above and well past one 32-row block
    for n_queries in (1, 31, 32, 33, 97):
        queries = rng.normal(size=(n_queries, d)) * 3.0
        for k in (1, 7, len(ds)):
            got = score_batch(queries, ds, knn(k, "brute"))
            assert np.array_equal(got, _pairwise_block_scan(queries, ds, k))


def test_brute_scan_memory_is_bounded():
    # A calibration-sized call: a (B, N, d) block of differences would take
    # B * 6500 * 6 floats; two (32, N) buffers take about 3.3 MB.
    rng = np.random.default_rng(7)
    ds = ExpertDataset(rng.normal(size=(6500, 6)), np.zeros((6500, 1)), identity_standardizer(6))
    queries = rng.normal(size=(3000, 6))
    tracemalloc.start()
    try:
        score_batch(queries, ds, knn(5, "brute"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6


def test_scores_reflect_appends():
    rng = np.random.default_rng(2)
    ds = ExpertDataset(rng.normal(size=(20, 2)), np.zeros((20, 1)), identity_standardizer(2))
    cfg = knn(1)
    new_states = rng.normal(size=(5, 2))
    assert np.all(score_batch(new_states, ds, cfg) > 0.0)
    ds.append(new_states, np.zeros((5, 1)))
    assert np.all(score_batch(new_states, ds, cfg) == 0.0)


def test_standardized_mode_uses_frozen_standardizer():
    states = np.array([[0.0, 0.0], [2.0, 200.0]])
    scale = Standardizer(mean=np.array([0.0, 0.0]), std=np.array([1.0, 100.0]))
    ds = ExpertDataset(states, np.zeros((2, 1)), scale)
    cfg = knn(1)
    # second coordinate is shrunk by 100x under the standardizer
    assert score_batch([[0.0, 100.0]], ds, cfg)[0] == 1.0


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_monotone_in_k(data):
    rng = np.random.default_rng(data.draw(st.integers(0, 10_000)))
    n = data.draw(st.integers(3, 30))
    points = rng.normal(size=(n, 2))
    ds = ExpertDataset(points, np.zeros((n, 1)), identity_standardizer(2))
    x = rng.normal(size=2)
    scores = [score_batch([x], ds, knn(k))[0] for k in range(1, n + 1)]
    assert all(a <= b for a, b in zip(scores, scores[1:]))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_antitone_in_data(data):
    rng = np.random.default_rng(data.draw(st.integers(0, 10_000)))
    n = data.draw(st.integers(3, 30))
    k = data.draw(st.integers(1, 3))
    points = rng.normal(size=(n, 2))
    ds = ExpertDataset(points, np.zeros((n, 1)), identity_standardizer(2))
    x = rng.normal(size=2)
    before = score_batch([x], ds, knn(k))[0]
    ds.append(rng.normal(size=(1, 2)), np.zeros((1, 1)))
    after = score_batch([x], ds, knn(k))[0]
    assert after <= before


def test_permutation_invariance():
    rng = np.random.default_rng(3)
    points = rng.normal(size=(15, 3))
    perm = rng.permutation(15)
    ds1 = ExpertDataset(points, np.zeros((15, 1)), identity_standardizer(3))
    ds2 = ExpertDataset(points[perm], np.zeros((15, 1)), identity_standardizer(3))
    x = rng.normal(size=3)
    cfg = knn(4)
    assert score_batch([x], ds1, cfg)[0] == score_batch([x], ds2, cfg)[0]


def test_translation_invariance_unstandardized():
    rng = np.random.default_rng(4)
    points = rng.normal(size=(10, 2))
    shift = np.array([3.5, -1.25])
    x = rng.normal(size=2)
    cfg = knn(3)
    ds1 = ExpertDataset(points, np.zeros((10, 1)), identity_standardizer(2))
    ds2 = ExpertDataset(points + shift, np.zeros((10, 1)), identity_standardizer(2))
    # exact equality is too strict: the shift perturbs the rounding of the
    # squared differences
    assert score_batch([x], ds1, cfg)[0] == pytest.approx(score_batch([x + shift], ds2, cfg)[0],
                                                          rel=1e-12)


def test_append_rejects_non_finite_labels_naming_label_and_row():
    ds = ExpertDataset(np.zeros((3, 2)), np.zeros((3, 1)), identity_standardizer(2))
    states = np.array([[1.0, 1.0], [2.0, 2.0]])
    with pytest.raises(NumericalFailureError, match=r"label \[inf\].*row 4"):
        ds.append(states, np.array([[0.5], [np.inf]]))
    assert len(ds) == 3  # nothing was appended


def test_initial_pairs_are_checked_as_appended_ones_are():
    states = np.zeros((3, 2))
    with pytest.raises(NumericalFailureError, match=r"label \[nan\].*\(row 2 of the dataset\)"):
        ExpertDataset(states, np.array([[0.5], [1.0], [np.nan]]), identity_standardizer(2))
    with pytest.raises(ConfigurationError, match="count mismatch: 3 vs 2"):
        ExpertDataset(states, np.zeros((2, 1)), identity_standardizer(2))
    with pytest.raises(ConfigurationError, match="mismatched dimensions"):
        ExpertDataset(np.zeros((3, 2, 1)), np.zeros((3, 1)), identity_standardizer(1))
    ds = ExpertDataset(states, np.zeros((3, 1)), identity_standardizer(2))
    with pytest.raises(ConfigurationError, match="mismatched dimensions"):
        ds.append(np.zeros((0, 2)), np.zeros((0, 2)))  # an empty block of the wrong width
    assert len(ds) == 3


def test_append_rejects_mismatched_row_counts():
    ds = ExpertDataset(np.zeros((4, 2)), np.zeros((4, 1)), identity_standardizer(2))
    with pytest.raises(ConfigurationError, match="count mismatch: 3 vs 1"):
        ds.append(np.ones((3, 2)), np.ones((1, 1)))
    with pytest.raises(ConfigurationError, match="count mismatch: 0 vs 2"):
        ds.append(np.zeros((0, 2)), np.ones((2, 1)))
    assert len(ds) == len(ds.actions) == 4  # nothing was appended
