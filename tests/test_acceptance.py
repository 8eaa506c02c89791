"""Acceptance suite: ten criteria, one printed PASS/FAIL line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live;
without ``-s`` they appear in pytest's captured-output section on failure.
"""

import math
import time

import numpy as np
import pytest
from scipy.integrate import quad

from countcp import (
    ExperimentSpec,
    FitConfig,
    Hyperparameters,
    NtfConfig,
    SparseCountTensor,
    VariationalState,
    fit,
    fit_ntf,
    generalized_kl,
    gini,
    load_state,
    point_estimate,
    poisson_log_likelihood,
    run_table,
    sample_count_tensor,
    save_tensor,
    update_delta,
)
from countcp.cli import main
from conftest import (
    fresh_kl_step,
    fresh_update_shape,
    ntf_step,
    random_factors,
    random_tensor,
    state_from_point_estimate,
)
from test_bptf import aux_variable_gamma_oracle


def _criterion(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"\n[criterion {number:2d}] {status}  {name}{detail}")
    assert ok, f"criterion {number} failed: {name}{detail}"


def _suite_tensors():
    """20 generative tensors, shape 20x20x5x30, K cycling over {2, 5, 10}."""
    instances = []
    for seed in range(20):
        k = (2, 5, 10)[seed % 3]
        hyper = Hyperparameters(alpha=0.1, beta=(2.0,) * 4)
        t, _ = sample_count_tensor((20, 20, 5, 30), k, hyper, seed=seed)
        if t.nnz == 0:
            t = SparseCountTensor(
                t.shape, [[0, 0, 0, 0]], [1], t.mode_labels
            )
        instances.append((t, k))
    return instances


SUITE = _suite_tensors()


def test_criterion_01_elbo_monotonicity():
    start = time.perf_counter()
    worst = 0.0
    ok = True
    for seed, (t, k) in enumerate(SUITE):
        config = FitConfig(
            k=k, max_iterations=40, tolerance=1e-8, seed=seed
        )
        _, _, trace = fit(t, config, Hyperparameters.default(4, alpha=0.1))
        elbos = np.asarray(trace.values)
        slack = np.abs(elbos[:-1]) * 1e-10
        drops = (np.diff(elbos) + slack) < 0
        worst = min(worst, float(np.diff(elbos).min(initial=0.0)))
        if drops.any():
            ok = False
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 120.0
    _criterion(
        1, "ELBO non-decreasing on 20 synthetic fits", ok,
        f" (worst sweep delta {worst:.3e}, {elapsed:.1f}s)",
    )


def test_criterion_02_baseline_descent():
    ok = True
    for seed, (t, k) in enumerate(SUITE):
        for cost, objective in (("kl", generalized_kl), ("ls", None)):
            config = NtfConfig(
                k=k, max_iterations=30, tolerance=1e-9,
                seed=seed, cost=cost,
            )
            _, trace = fit_ntf(t, config)
            values = np.asarray(trace.values)
            slack = np.abs(values[:-1]) * 1e-10
            if ((np.diff(values) - slack) > 0).any():
                ok = False
    _criterion(2, "NTF-KL and NTF-LS objectives never increase", ok)


def test_criterion_03_objective_equivalence():
    rng = np.random.default_rng(303)
    shape = (3, 3, 2, 4)
    worst = 0.0
    ok = True
    for _ in range(100):
        t = random_tensor(shape, rng, nnz=int(rng.integers(5, 40)))
        f1 = random_factors(shape, 3, rng)
        f2 = random_factors(shape, 3, rng)
        kl_diff = generalized_kl(t, f1) - generalized_kl(t, f2)
        ll_diff = poisson_log_likelihood(f2, t) - poisson_log_likelihood(f1, t)
        scale = max(abs(kl_diff), abs(ll_diff), 1e-30)
        rel = abs(kl_diff - ll_diff) / scale
        worst = max(worst, rel)
        if rel > 1e-9:
            ok = False
    _criterion(3, "KL and Poisson likelihood differences agree", ok,
               f" (worst relative gap {worst:.2e})")


def test_criterion_04_update_oracles():
    rng = np.random.default_rng(404)
    shape = (3, 3, 2, 4)
    hyper = Hyperparameters(alpha=0.1, beta=(1.3, 0.8, 2.0, 1.0))
    worst = 0.0
    ok = True
    for _ in range(5):
        t = random_tensor(shape, rng, nnz=int(rng.integers(10, 40)))
        gamma = [rng.uniform(0.2, 5.0, size=(s, 2)) for s in shape]
        delta = [rng.uniform(0.2, 5.0, size=(s, 2)) for s in shape]
        for mode in range(4):
            state = VariationalState(
                [g.copy() for g in gamma], [d.copy() for d in delta]
            )
            expected_gamma = aux_variable_gamma_oracle(state, t, mode, hyper.alpha)
            fresh_update_shape(state, t, mode, hyper)
            gap = float(np.abs(state.gamma[mode] - expected_gamma).max())
            worst = max(worst, gap)

            state = VariationalState(
                [g.copy() for g in gamma], [d.copy() for d in delta]
            )
            other_modes = [m for m in range(4) if m != mode]
            expected_delta = np.full((shape[mode], 2), hyper.rate(mode))
            for coord in np.ndindex(*[shape[m] for m in other_modes]):
                prod = np.ones(2)
                for m, c in zip(other_modes, coord):
                    prod *= state.expect[m][c]
                expected_delta += prod
            update_delta(state, mode, hyper)
            gap = float(np.abs(state.delta[mode] - expected_delta).max())
            worst = max(worst, gap)
    ok = worst <= 1e-12
    _criterion(4, "shape/rate updates match independent oracles", ok,
               f" (worst absolute gap {worst:.2e})")


def _binet_digamma(x):
    """Quadrature oracle: Binet's second formula for the digamma function.

    The integrand decays like exp(-2*pi*u), so cutting at u = 60 leaves an
    error far below the comparison tolerance.
    """
    upper = 60.0
    points = sorted(p for p in (x, 10.0 * x) if p < upper) or None
    tail = quad(
        lambda u: u / ((u * u + x * x) * math.expm1(2.0 * math.pi * u)),
        0.0, upper, limit=400, points=points,
    )[0]
    return math.log(x) - 1.0 / (2.0 * x) - 2.0 * tail


def test_criterion_05_geometric_below_arithmetic():
    rng = np.random.default_rng(505)
    gam = 10.0 ** rng.uniform(-3, 3, size=1_000_000)
    dlt = 10.0 ** rng.uniform(-2, 2, size=1_000_000)
    state = VariationalState([gam.reshape(-1, 1)], [dlt.reshape(-1, 1)])
    geo = point_estimate(state, "geometric").factors[0].ravel()
    ari = point_estimate(state, "arithmetic").factors[0].ravel()
    strictly_below = bool(np.all(geo < ari))

    # ratio of the two estimates depends only on the shape parameter
    grid = np.logspace(0, -3, 60)
    ratio_state = VariationalState(
        [grid.reshape(-1, 1)], [np.ones((grid.size, 1))]
    )
    ratio = (
        point_estimate(ratio_state, "geometric").factors[0]
        / point_estimate(ratio_state, "arithmetic").factors[0]
    ).ravel()
    at_one = ratio[0]
    decreasing = bool(np.all(np.diff(ratio) <= 0.0))

    quad_grid = np.logspace(-2, 3, 16)
    quad_gap = max(
        abs(_binet_digamma(x) - math.log(float(
            point_estimate(
                VariationalState([np.array([[x]])], [np.array([[1.0]])]),
                "geometric",
            ).factors[0][0, 0]
        )))
        for x in quad_grid
    )
    ok = strictly_below and at_one < 0.61 and decreasing and quad_gap < 1e-8
    _criterion(
        5, "geometric expectation strictly below arithmetic", ok,
        f" (ratio at shape 1: {at_one:.4f}, digamma quadrature gap {quad_gap:.1e})",
    )


def test_criterion_06_vanishing_prior_matches_multiplicative_update():
    rng = np.random.default_rng(606)
    shape = (3, 3, 2, 4)
    hyper = Hyperparameters(alpha=1e-8, beta=(1e-8,) * 4)
    worst = 0.0
    ok = True
    for _ in range(10):
        factors = random_factors(shape, 2, rng, low=0.8, high=1.25)
        counts = rng.integers(500_000, 2_000_000, size=int(np.prod(shape)))
        coords = np.stack(
            np.unravel_index(np.arange(int(np.prod(shape))), shape), axis=1
        )
        t = SparseCountTensor(
            shape, coords, counts, [[str(i) for i in range(s)] for s in shape]
        )
        state = state_from_point_estimate(factors)
        ntf = factors
        for mode in range(4):
            fresh_update_shape(state, t, mode, hyper)
            update_delta(state, mode, hyper)
            ntf = ntf_step(fresh_kl_step, ntf, t, mode)
        for mode in range(4):
            rel = float(
                (np.abs(state.expect[mode] - ntf.factors[mode]) / ntf.factors[mode]).max()
            )
            worst = max(worst, rel)
            if rel > 1e-4:
                ok = False
    _criterion(6, "vanishing-prior sweep reproduces the multiplicative update",
               ok, f" (worst relative gap {worst:.2e})")


HARNESS_SPEC = ExperimentSpec(
    n_primes=(10,),
    scenario="block",
    test_fraction=0.2,
    seeds=(0, 1, 2),
    k=10,
    models=("ntf-ls", "ntf-kl", "bptf-geo", "bptf-ari"),
    alpha=0.1,
    max_iterations=150,
    tolerance=1e-5,
)


@pytest.fixture(scope="module")
def harness_report():
    hyper = Hyperparameters(alpha=0.1, beta=(2.0,) * 4)
    t, _ = sample_count_tensor((30, 30, 5, 40), 5, hyper, seed=42)
    start = time.perf_counter()
    report = run_table(HARNESS_SPEC, {"": t})
    return report, time.perf_counter() - start


def test_criterion_07_qualitative_table_ordering(harness_report):
    report, elapsed = harness_report
    scenario = report.scenarios[0]
    mae_hits = ham_hits = 0
    for sp in scenario.splits:
        mm = sp.models
        if mm["bptf-geo"]["mae"] <= mm["ntf-kl"]["mae"] <= mm["ntf-ls"]["mae"]:
            mae_hits += 1
        if mm["bptf-geo"]["ham_z"] <= mm["ntf-kl"]["ham_z"]:
            ham_hits += 1
    ok = mae_hits >= 2 and ham_hits >= 2 and elapsed < 300.0 and not scenario.failures

    # a full table-shaped report: two sources x two block sizes x both sides
    hyper = Hyperparameters(alpha=0.1, beta=(2.0,) * 4)
    sources = {
        "one": sample_count_tensor((20, 20, 4, 24), 3, hyper, seed=1)[0],
        "two": sample_count_tensor((20, 20, 4, 24), 3, hyper, seed=2)[0],
    }
    base = ExperimentSpec(
        n_primes=(5, 10), scenario="both", seeds=(0,), k=3, models=("bptf-geo",),
        alpha=0.1, max_iterations=20, tolerance=1e-3,
    )
    table = run_table(base, sources)
    labels = [sc.label for sc in table.scenarios]
    ok = ok and len(labels) == 8 and len(set(labels)) == 8
    _criterion(
        7, "dense-block orderings reproduced at desk scale", ok,
        f" (MAE ordering {mae_hits}/3, HAM-Z ordering {ham_hits}/3, "
        f"{elapsed:.1f}s, table rows {len(labels)})",
    )


def test_criterion_08_geometric_beats_arithmetic(harness_report):
    report, _ = harness_report
    scores = report.scenarios[0].models
    geo, ari = scores["bptf-geo"], scores["bptf-ari"]
    ok = geo["mae"] <= ari["mae"] and geo["ham_z"] <= ari["ham_z"]
    _criterion(
        8, "geometric point estimates match or beat arithmetic", ok,
        f" (MAE {geo['mae']:.4f} vs {ari['mae']:.4f}, "
        f"HAM-Z {geo['ham_z']:.4f} vs {ari['ham_z']:.4f})",
    )


def test_criterion_09_gini_against_pairwise_oracle():
    rng = np.random.default_rng(909)
    worst = 0.0
    ok = True
    for _ in range(1000):
        n = int(rng.integers(2, 40))
        v = rng.gamma(0.4, 2.0, size=n)
        if v.sum() == 0.0:
            continue
        oracle = float(
            np.abs(v[:, None] - v[None, :]).sum() / (2.0 * n * n * v.mean())
        )
        gap = abs(gini(v) - oracle)
        worst = max(worst, gap)
        if gap > 1e-12:
            ok = False
    for n in (2, 3, 10, 57, 500):
        one_hot = np.zeros(n)
        one_hot[n // 3] = 2.5
        if gini(one_hot) != (n - 1) / n:
            ok = False
    _criterion(9, "gini matches the pairwise oracle and one-hot closed form",
               ok, f" (worst gap {worst:.2e})")


def _tensor_with_nnz(shape, nnz, seed):
    rng = np.random.default_rng(seed)
    total = int(np.prod(shape))
    flat = rng.choice(total, size=nnz, replace=False)
    coords = np.stack(np.unravel_index(flat, shape), axis=1)
    values = rng.integers(1, 6, size=nnz)
    return SparseCountTensor(
        shape, coords, values, [[str(i) for i in range(s)] for s in shape]
    )


def _sweep_seconds(t, k=8, sweeps=5):
    config = FitConfig(
        k=k, max_iterations=sweeps, tolerance=1e-300, seed=0
    )
    start = time.perf_counter()
    fit(t, config)
    return (time.perf_counter() - start) / sweeps


def test_criterion_10_sweep_time_linear_in_nnz():
    shape = (50, 50, 8, 50)
    small = _tensor_with_nnz(shape, 150_000, seed=1)
    large = _tensor_with_nnz(shape, 300_000, seed=2)
    for t in (small, large):
        _sweep_seconds(t, sweeps=1)  # warm-up
    # the repeats alternate, so that a drift in machine speed meets both tensors
    t_small = t_large = float("inf")
    for _ in range(7):
        t_small = min(t_small, _sweep_seconds(small))
        t_large = min(t_large, _sweep_seconds(large))
    ratio = t_large / t_small
    ok = 1.4 <= ratio <= 2.6
    _criterion(
        10, "per-sweep time scales linearly in stored entries", ok,
        f" (ratio {ratio:.2f}: {t_small * 1e3:.0f}ms vs {t_large * 1e3:.0f}ms)",
    )


def test_small_alpha_fit_converges(tmp_path):
    # the bench's small-alpha fit: at alpha = 1e-3 exp(digamma(alpha)) underflows,
    # so the allocation must run in log space
    t, _ = sample_count_tensor((20, 20, 5, 30), 5, Hyperparameters.default(4), seed=0)
    save_tensor(t, tmp_path / "tensor.txt")
    code = main([
        "fit", "--tensor", str(tmp_path / "tensor.txt"), "--model", "bptf", "--k", "10",
        "--alpha", "1e-3", "--max-iterations", "100", "--seed", "0",
        "--output-dir", str(tmp_path / "out"),
    ])
    assert code == 0
    elbos = np.loadtxt(tmp_path / "out" / "trace.txt", ndmin=2)[:, 1]
    assert len(elbos) > 3 and np.all(np.diff(elbos) >= 0.0)
    state, _ = load_state(tmp_path / "out" / "state")
    for factors in point_estimate(state, "geometric").factors:
        assert np.all(np.isfinite(factors)) and factors.min() >= 0.0
