"""Acceptance suite: one test per release criterion, one printed verdict each.

The desk-scale criteria (6-9) share a single 30-run pendulum session fixture
(6 strategy variants x 5 seeds, M=500, 10k training steps) so the whole suite
stays in the minutes range.
"""

import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from crsail.conformal import conformal_quantile
from crsail.core import rollout
from crsail.dataset import ExpertDataset
from crsail.envs import make_env, make_expert
from crsail.harness import ExperimentConfig, run_single
from crsail.novelty import score_batch
from crsail.policy import MLPPolicy, TrainConfig, behavioral_cloning, loss_and_grad
from crsail.strategies import StrategyConfig
from crsail.trainer import Budget, build_initial_dataset, train
from crsail.conformal import calibrate_radius
from helpers import identity_standardizer

SEEDS = [0, 1, 2, 3, 4]
M_INIT = 500
MAX_STEPS = 10_000

# pinned tolerances
COVERAGE_SLACK = 0.02          # criterion 1: two-sided slack on mean coverage
GRAD_RTOL = 1e-4               # criterion 4: relative gradient agreement
GRAD_TINY = 1e-8               # criterion 4: absolute floor for near-zero entries
QUERY_RATIO_MAX = 0.5          # criterion 6: crsail vs dagger total queries
CONVERGE_MIN = 4               # criteria 6/8/9: out of 5 seeds
K_SPREAD_MAX = 2.0             # criterion 8: max/min mean total queries
BACKEND_TIME_LIMIT = 60.0      # criterion 3 wall-clock bound, seconds
GRAD_TIME_LIMIT = 30.0         # criterion 4 wall-clock bound, seconds


def knn(k, backend="brute"):
    """The K-NN novelty parameters of a crsail query rule."""
    return StrategyConfig("crsail", k=k, backend=backend)


def verdict(capsys, number, ok, detail):
    status = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"[{status}] criterion {number}: {detail}")
    assert ok, f"criterion {number}: {detail}"


# ----------------------------------------------------------------- fixture

VARIANTS = {
    "dagger": {},
    "crsail_base": {"alpha": 0.93, "k": 5},
    "crsail_a50": {"alpha": 0.5, "k": 5},
    "crsail_a99": {"alpha": 0.99, "k": 5},
    "crsail_k1": {"alpha": 0.93, "k": 1},
    "crsail_k9": {"alpha": 0.93, "k": 9},
}


def _variant_config(name):
    strategy = "dagger" if name == "dagger" else "crsail"
    return ExperimentConfig(
        env="pendulum", strategy=strategy, seeds=SEEDS, m_values=[M_INIT],
        output_dir="unused", max_steps=MAX_STEPS,
        strategy_params=dict(VARIANTS[name]),
    )


def _one_run(job):
    name, seed = job
    return name, seed, run_single(_variant_config(name), M_INIT, seed)


@pytest.fixture(scope="session")
def pendulum_runs():
    jobs = [(name, seed) for name in VARIANTS for seed in SEEDS]
    results = {name: {} for name in VARIANTS}
    with ProcessPoolExecutor() as pool:
        for name, seed, record in pool.map(_one_run, jobs):
            results[name][seed] = record
    return {name: [by_seed[s] for s in SEEDS] for name, by_seed in results.items()}


def _conv_count(records):
    return sum(bool(r.summary["converged"]) for r in records)


def _mean_total_queries(records):
    return float(np.mean([r.summary["total_queries"] for r in records]))


# ---------------------------------------------------------------- criteria


def test_criterion_1_synthetic_coverage(capsys):
    # i.i.d. uniform scores: P(test <= R) equals R itself, so the Monte Carlo
    # mean of R estimates the marginal coverage exactly
    rng = np.random.default_rng(2024)
    trials = 1000
    worst = ""
    ok = True
    for n in (99, 499):
        for alpha in (0.5, 0.9, 0.95):
            radii = [conformal_quantile(rng.uniform(size=n), alpha).radius
                     for _ in range(trials)]
            mean = float(np.mean(radii))
            lo = 1 - alpha - COVERAGE_SLACK
            hi = 1 - alpha + 1 / (n + 1) + COVERAGE_SLACK
            if not lo <= mean <= hi:
                ok = False
                worst = f" out of range at N={n} alpha={alpha}: {mean:.4f}"
    verdict(capsys, 1, ok, f"mean coverage within +/-{COVERAGE_SLACK} of target "
                           f"for all (N, alpha) pairs{worst}")


def test_criterion_2_radius_monotone_in_alpha(capsys):
    rng = np.random.default_rng(7)
    scores = rng.lognormal(size=300)
    alphas = np.linspace(0.02, 0.98, 50)
    radii = [conformal_quantile(scores, float(a)).radius for a in alphas]
    ok = all(b <= a for a, b in zip(radii, radii[1:]))
    verdict(capsys, 2, ok, "R(alpha) non-increasing across a 50-point grid (exact)")


def test_criterion_3_backend_equivalence(capsys):
    start = time.perf_counter()
    rng = np.random.default_rng(11)
    exact = True
    for n_data in (10, 1_000, 10_000):
        points = rng.normal(size=(n_data, 4))
        points[n_data // 2:n_data // 2 + n_data // 10 + 1] = points[0]  # duplicates
        ds = ExpertDataset(points, np.zeros((n_data, 1)), identity_standardizer(4))
        queries = rng.normal(size=(1000, 4))
        for k in (1, 5, 9):
            brute = score_batch(queries, ds, knn(k, "brute"))
            tree = score_batch(queries, ds, knn(k, "kdtree"))
            exact = exact and np.array_equal(brute, tree)
    # invariants on random instances
    invariants = True
    for trial in range(100):
        n = int(rng.integers(4, 40))
        pts = rng.normal(size=(n, 3))
        ds = ExpertDataset(pts, np.zeros((n, 1)), identity_standardizer(3))
        x = rng.normal(size=3)
        s = [score_batch([x], ds, knn(k))[0] for k in range(1, n + 1)]
        invariants = invariants and all(a <= b for a, b in zip(s, s[1:]))
        before = s[0]
        ds.append(rng.normal(size=(1, 3)), np.zeros((1, 1)))
        after = score_batch([x], ds, knn(1))[0]
        invariants = invariants and after <= before
    elapsed = time.perf_counter() - start
    ok = exact and invariants and elapsed < BACKEND_TIME_LIMIT
    verdict(capsys, 3, ok, f"kdtree == brute bit-exactly, monotone/antitone invariants "
                           f"hold, {elapsed:.1f}s < {BACKEND_TIME_LIMIT:.0f}s")


def _numerical_grad(policy, states, labels, h=1e-5):
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


def test_criterion_4_gradient_check(capsys):
    start = time.perf_counter()
    rng = np.random.default_rng(13)
    ok = True
    for trial in range(100):
        d = int(rng.integers(1, 7))
        a = int(rng.integers(1, 5))
        hidden = int(rng.integers(2, 11))
        batch = int(rng.integers(1, 9))
        policy = MLPPolicy(
            w1=rng.standard_normal((hidden, d)),
            b1=rng.standard_normal(hidden),
            w2=rng.standard_normal((a, hidden)),
            b2=rng.standard_normal(a),
            standardizer=identity_standardizer(d),
        )
        states = rng.standard_normal((batch, d))
        labels = rng.standard_normal((batch, a))
        _, analytic = loss_and_grad(policy, states, labels)
        numeric = _numerical_grad(policy, states, labels)
        for name in analytic:
            # rtol governs entries of meaningful magnitude; the atol floor
            # absorbs the central-difference oracle's own roundoff on entries
            # near zero
            if not np.allclose(analytic[name], numeric[name],
                               rtol=GRAD_RTOL, atol=GRAD_TINY):
                ok = False
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < GRAD_TIME_LIMIT
    verdict(capsys, 4, ok, f"100 random gradient instances match central differences "
                           f"(rtol {GRAD_RTOL:g}), {elapsed:.1f}s < {GRAD_TIME_LIMIT:.0f}s")


def test_criterion_5_training_loop_invariants(capsys):
    rng = np.random.default_rng(17)
    fast = TrainConfig(bc_epochs=3, update_epochs=1)
    kinds = ("dagger", "crsail", "random-rate", "fixed-threshold")
    ok = True
    notes = []
    for trial in range(20):
        env_kind = ("pendulum", "double_integrator", "pusher")[trial % 3]
        kind = kinds[int(rng.integers(len(kinds)))]
        env = make_env(env_kind)
        expert = make_expert(env)
        dataset = build_initial_dataset(env, expert, int(rng.integers(50, 200)), trial)
        policy = behavioral_cloning(dataset, fast, np.random.default_rng(0))
        strategy = StrategyConfig(kind, alpha=0.9, k=int(rng.integers(1, 6)),
                                  rate=float(rng.uniform(0.1, 0.9)),
                                  tau=float(rng.uniform(0.0, 0.5)))
        threshold = None
        if kind == "crsail":
            threshold = calibrate_radius(env, policy, dataset, strategy, 2, trial + 77)
        # every budget caps steps; half the trials add a query cap
        max_queries = int(rng.integers(50, 300)) if rng.random() < 0.5 else None
        budget = Budget(max_steps=int(rng.integers(150, 500)), max_queries=max_queries)
        _, record = train(env, expert, dataset, policy, strategy, budget, fast,
                          trial, threshold=threshold, eval_episodes=2)
        eps = record.episodes
        queries = [e.n_queries for e in eps]
        lengths = [e.length for e in eps]
        # per-episode query sets stay within the episode
        if any(q > ln or q < 0 for q, ln in zip(queries, lengths)):
            ok = False
            notes.append(f"trial {trial}: |S_i| > L_i")
        # cumulative counters are exact partial sums
        if [e.queries_cum for e in eps] != list(np.cumsum(queries)):
            ok = False
            notes.append(f"trial {trial}: queries_cum mismatch")
        if [e.steps_cum for e in eps] != list(np.cumsum(lengths)):
            ok = False
            notes.append(f"trial {trial}: steps_cum mismatch")
        # entry-checked budget: exhausted at exit, not before the last episode
        if not budget.exhausted(eps[-1].queries_cum, eps[-1].steps_cum):
            ok = False
            notes.append(f"trial {trial}: exited with budget left")
        if len(eps) > 1 and budget.exhausted(eps[-2].queries_cum, eps[-2].steps_cum):
            ok = False
            notes.append(f"trial {trial}: ran past an exhausted budget")
        if kind == "dagger" and queries != lengths:
            ok = False
            notes.append(f"trial {trial}: dagger queried less than every step")
    verdict(capsys, 5, ok, "20 randomized runs keep budget/counter/query-set "
                           "invariants" + ("; ".join([""] + notes)))


def test_criterion_6_query_efficiency_vs_dagger(capsys, pendulum_runs):
    crsail = pendulum_runs["crsail_base"]
    dagger = pendulum_runs["dagger"]
    conv = _conv_count(crsail)
    ratio = _mean_total_queries(crsail) / _mean_total_queries(dagger)
    ok = conv >= CONVERGE_MIN and ratio <= QUERY_RATIO_MAX
    verdict(capsys, 6, ok, f"crsail converged {conv}/5 seeds with "
                           f"{ratio:.2f}x dagger's mean total queries "
                           f"(need >= {CONVERGE_MIN}/5 and <= {QUERY_RATIO_MAX})")


def test_criterion_7_alpha_controls_query_rate(capsys, pendulum_runs):
    means = {a: _mean_total_queries(pendulum_runs[n])
             for a, n in ((0.5, "crsail_a50"), (0.93, "crsail_base"), (0.99, "crsail_a99"))}
    increasing = means[0.5] < means[0.93] < means[0.99]
    conv_ok = _conv_count(pendulum_runs["crsail_base"]) >= _conv_count(pendulum_runs["crsail_a50"])
    ok = increasing and conv_ok
    verdict(capsys, 7, ok, "mean total queries strictly increasing in alpha "
                           f"({means[0.5]:.0f} < {means[0.93]:.0f} < {means[0.99]:.0f}) "
                           "and convergence(0.93) >= convergence(0.5)")


def test_criterion_8_robust_to_k(capsys, pendulum_runs):
    names = {1: "crsail_k1", 5: "crsail_base", 9: "crsail_k9"}
    convs = {k: _conv_count(pendulum_runs[n]) for k, n in names.items()}
    means = {k: _mean_total_queries(pendulum_runs[n]) for k, n in names.items()}
    spread = max(means.values()) / min(means.values())
    ok = all(c >= CONVERGE_MIN for c in convs.values()) and spread <= K_SPREAD_MAX
    verdict(capsys, 8, ok, f"K in {{1,5,9}} all converge >= {CONVERGE_MIN}/5 "
                           f"(got {list(convs.values())}) and mean-query spread "
                           f"{spread:.2f}x <= {K_SPREAD_MAX}x")


def test_criterion_9_query_rate_decays(capsys, pendulum_runs):
    crsail = pendulum_runs["crsail_base"]
    decay_seeds = 0
    negative_corr_seeds = 0
    for record in crsail:
        q = np.array([e.n_queries for e in record.episodes], dtype=np.float64)
        third = len(q) // 3
        if third >= 1 and q[-third:].mean() < q[:third].mean():
            decay_seeds += 1
        t_max = record.config["env_overrides"]["t_max"]  # the env's full episode length
        full = [(e.episode, e.n_queries) for e in record.episodes if e.length == t_max]
        if len(full) >= 3:
            idx, nq = map(np.array, zip(*full))
            if np.std(nq) > 0 and np.corrcoef(idx, nq)[0, 1] < 0:
                negative_corr_seeds += 1
    ok = decay_seeds >= CONVERGE_MIN and negative_corr_seeds >= CONVERGE_MIN
    verdict(capsys, 9, ok, f"queries/episode decayed (last vs first third) in "
                           f"{decay_seeds}/5 seeds and correlated negatively with "
                           f"progress on full-length episodes in {negative_corr_seeds}/5")
