"""Heldout inference over frozen-mode prefixes, and the BPTF fit whose ELBO
pass also allocates the next shape update, against the paths they replaced
(``conftest``'s oracles), byte for byte."""

from contextlib import nullcontext
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import countcp.bptf
from countcp import (
    FactorSet,
    FitConfig,
    Hyperparameters,
    InadmissibleZeroError,
    NtfConfig,
    NumericalDegeneracyError,
    Region,
    VariationalState,
    fit,
    fit_ntf,
    infer_heldout_time_factors,
    infer_heldout_time_factors_ntf,
)
from countcp import cp
from conftest import (
    oracle_bptf_fit,
    oracle_infer_heldout_bptf,
    oracle_infer_heldout_ntf,
    random_factors,
    random_tensor,
    top_block,
)


def outcome(fn, *args):
    """``fn(*args)``, or the type and message of what it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # compared, not swallowed
        return type(exc), str(exc)


def assert_same_trace(got, want):
    assert got.values == want.values
    assert got.converged == want.converged
    assert got.betas == want.betas


def assert_same_state(got, want):
    for name in ("gamma", "delta", "expect", "elog"):
        for a, b in zip(getattr(got, name), getattr(want, name)):
            assert np.array_equal(a, b), name


def assert_same_bptf(got, want):
    if isinstance(want, tuple) and isinstance(want[0], type):
        assert got == want
        return
    assert_same_state(got[0], want[0])
    assert_same_trace(got[1], want[1])


def assert_same_ntf(got, want):
    if isinstance(want, tuple) and isinstance(want[0], type):
        assert got == want
        return
    for a, b in zip(got[0].factors, want[0].factors):
        assert np.array_equal(a, b)
    assert_same_trace(got[1], want[1])


def random_state(shape, k, rng):
    """A trained-looking variational state with consistent caches."""
    gamma = [rng.uniform(0.05, 3.0, size=(s, k)) for s in shape]
    delta = [rng.uniform(0.2, 4.0, size=(s, k)) for s in shape]
    return VariationalState(gamma, delta)


def block_entries(step, k):
    """Patch the kernel's block size to ``step`` entries (None: leave it)."""
    return nullcontext() if step is None else mock.patch.object(cp, "_BLOCK_CELLS", step * k)


def check_heldout(family, trained, test, region, k, seed, iterations, tolerance,
                  alpha=0.1, floor=1e-12):
    if family == "bptf":
        hyper = Hyperparameters(alpha=alpha, beta=(1.0, 0.5, 2.0, 1.5)[:test.ndim])
        config = FitConfig(k=k, max_iterations=iterations, relative_elbo_tolerance=tolerance,
                           seed=seed)
        assert_same_bptf(outcome(infer_heldout_time_factors, trained, hyper, test, region, config),
                         outcome(oracle_infer_heldout_bptf, trained, hyper, test, region, config))
    else:
        config = NtfConfig(k=k, max_iterations=iterations, relative_objective_tolerance=tolerance,
                           seed=seed, cost=family, epsilon_floor=floor)
        assert_same_ntf(outcome(infer_heldout_time_factors_ntf, trained, test, region, config),
                        outcome(oracle_infer_heldout_ntf, trained, test, region, config))


@st.composite
def heldout_cases(draw):
    n = draw(st.integers(2, 6))
    shape = (n, n, draw(st.integers(1, 3)), draw(st.integers(1, 4)))
    cells = int(np.prod(shape))
    if draw(st.booleans()):
        n_prime = draw(st.sampled_from([1, n]) | st.integers(1, n))
        region = top_block(shape, n_prime, complement=draw(st.booleans()))
    else:
        actors = st.sets(st.integers(0, n - 1))
        region = Region(shape, draw(actors), draw(actors), draw(st.booleans()))
    return dict(
        family=draw(st.sampled_from(["bptf", "kl", "ls"])),
        shape=shape,
        nnz=draw(st.integers(1, cells)),
        region=region,
        k=draw(st.integers(1, 4)),
        seed=draw(st.integers(0, 2**16)),
        iterations=draw(st.integers(1, 6)),
        tolerance=draw(st.sampled_from([1e-12, 1e-3, 0.5])),
        step=draw(st.sampled_from([None, 1, 3, 7])),
    )


class TestHeldoutMatchesOracle:
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(case=heldout_cases())
    def test_drawn_masks_families_and_block_sizes(self, case):
        rng = np.random.default_rng(case["seed"])
        test = random_tensor(case["shape"], rng, nnz=case["nnz"])
        trained_shape = case["shape"][:3] + (3,)
        if case["family"] == "bptf":
            trained = random_state(trained_shape, case["k"], rng)
        else:
            trained = random_factors(trained_shape, case["k"], rng)
        with block_entries(case["step"], case["k"]):
            check_heldout(case["family"], trained, test, case["region"], case["k"], case["seed"],
                          case["iterations"], case["tolerance"])

    @pytest.mark.parametrize("family", ["bptf", "kl", "ls"])
    @pytest.mark.parametrize("k", [1, 5])
    def test_several_blocks_with_a_ragged_last_one(self, rng, family, k):
        train = random_tensor((6, 6, 3, 8), rng, nnz=200)
        test = random_tensor((6, 6, 3, 5), rng, nnz=120)
        region = top_block(test.shape, 4, complement=True)
        if family == "bptf":
            trained, _, _ = fit(train, FitConfig(k=k, max_iterations=10, seed=1))
        else:
            trained, _ = fit_ntf(train, NtfConfig(k=k, max_iterations=10, seed=1, cost=family))
        observed = region.restrict(test)
        assert observed.nnz % 7 and observed.nnz > 3 * 7
        with block_entries(7, k):
            assert len(observed._block_rows(cp._block_step(k))) > 3
            check_heldout(family, trained, test, region, k, seed=2, iterations=8,
                          tolerance=1e-12)

    def test_bptf_at_small_alpha(self, rng):
        hyper = Hyperparameters.default(4, alpha=1e-3)
        train = random_tensor((5, 5, 2, 8), rng, nnz=60)
        test = random_tensor((5, 5, 2, 3), rng, nnz=30)
        trained, learned, _ = fit(train, FitConfig(k=4, max_iterations=30, seed=0), hyper)
        assert np.any(np.exp(trained.elog[0]) == 0.0)  # geometric expectations underflow
        for region in (top_block(test.shape, 2), top_block(test.shape, 3, complement=True)):
            check_heldout("bptf", trained, test, region, 4, seed=1, iterations=10,
                          tolerance=1e-12, alpha=learned.alpha)

    def test_kl_zero_floor_with_a_zero_factor_column(self, rng):
        trained = random_factors((5, 5, 2, 3), 3, rng)
        mats = [m.copy() for m in trained.factors]
        mats[1][:, 2] = 0.0
        trained = FactorSet(mats)
        test = random_tensor((5, 5, 2, 4), rng, nnz=50)
        region = top_block(test.shape, 3, complement=True)
        observed = region.restrict(test)
        with np.errstate(divide="ignore"):
            frozen = cp._FrozenModes(observed, mats[:3], [np.log(m) for m in mats[:3]])
        assert np.isneginf(frozen.logs[:, 2]).all()
        check_heldout("kl", trained, test, region, 3, seed=4, iterations=6, tolerance=1e-12,
                      floor=0.0)


class TestHeldoutErrors:
    """Failures keep their types and messages, entry coordinate included."""

    def test_vanished_geometric_mass_names_the_entry(self, rng):
        trained = random_state((4, 4, 2, 3), 2, rng)
        elog = [e.copy() for e in trained.elog]
        elog[0][2] = -np.inf
        trained = VariationalState(trained.gamma, trained.delta, trained.expect, elog)
        test = random_tensor((4, 4, 2, 3), rng, nnz=30)
        hit = test.coords[test.coords[:, 0] == 2][0]
        region = top_block(test.shape, 4)
        hyper = Hyperparameters.default(4)
        config = FitConfig(k=2, max_iterations=3)
        want = (NumericalDegeneracyError,
                f"all-component geometric mass vanished at entry {tuple(int(c) for c in hit)}")
        assert outcome(oracle_infer_heldout_bptf, trained, hyper, test, region, config) == want
        assert outcome(infer_heldout_time_factors, trained, hyper, test, region, config) == want

    def test_inadmissible_zero_names_the_entry(self, rng):
        mats = [m.copy() for m in random_factors((4, 4, 2, 3), 2, rng).factors]
        mats[1][3] = 0.0
        trained = FactorSet(mats)
        test = random_tensor((4, 4, 2, 3), rng, nnz=30)
        hit = test.coords[test.coords[:, 1] == 3][0]
        region = top_block(test.shape, 4)
        config = NtfConfig(k=2, max_iterations=3, cost="kl", epsilon_floor=0.0)
        want = (InadmissibleZeroError,
                f"zero reconstruction under count at entry {tuple(int(c) for c in hit)}")
        assert outcome(oracle_infer_heldout_ntf, trained, test, region, config) == want
        assert outcome(infer_heldout_time_factors_ntf, trained, test, region, config) == want


class TestFusedFit:
    @pytest.mark.parametrize("learn_beta", [True, False])
    @pytest.mark.parametrize("alpha", [0.1, 1e-3])
    def test_matches_unfused_sweeps(self, rng, learn_beta, alpha):
        t = random_tensor((6, 5, 3, 7), rng, nnz=90)
        hyper = Hyperparameters(alpha=alpha, beta=(1.0, 2.0, 0.5, 1.5))
        config = FitConfig(k=4, max_iterations=6, relative_elbo_tolerance=1e-15, seed=3,
                           learn_beta=learn_beta)
        got_state, got_hyper, got_trace = fit(t, config, hyper)
        want_state, want_hyper, want_trace = oracle_bptf_fit(t, config, hyper)
        assert got_trace.n_iterations == 6
        assert_same_state(got_state, want_state)
        assert_same_trace(got_trace, want_trace)
        assert got_hyper == want_hyper

    def test_matches_unfused_sweeps_over_several_blocks(self, rng, monkeypatch):
        t = random_tensor((6, 5, 3, 7), rng, nnz=100)
        monkeypatch.setattr(cp, "_BLOCK_CELLS", 9 * 3)
        config = FitConfig(k=3, max_iterations=5, relative_elbo_tolerance=1e-15, seed=1)
        got = fit(t, config)
        want = oracle_bptf_fit(t, config)
        assert_same_state(got[0], want[0])
        assert_same_trace(got[2], want[2])

    def test_converged_fit_matches_unfused_sweeps(self, rng):
        t = random_tensor((5, 5, 2, 6), rng, nnz=50)
        config = FitConfig(k=3, max_iterations=200, relative_elbo_tolerance=1e-4, seed=2)
        got, want = fit(t, config), oracle_bptf_fit(t, config)
        assert got[2].converged and 4 <= got[2].n_iterations < 200
        assert_same_state(got[0], want[0])
        assert_same_trace(got[2], want[2])


class TestKernelPasses:
    """A fit makes M passes per sweep after its first, heldout inference one."""

    @staticmethod
    def count_passes(monkeypatch):
        calls = []
        inner = cp._count_shares

        def counted(*args, **kwargs):
            calls.append(args[3] if len(args) > 3 else kwargs.get("frozen"))
            return inner(*args, **kwargs)

        monkeypatch.setattr(cp, "_count_shares", counted)
        monkeypatch.setattr(countcp.bptf, "_count_shares", counted)
        return calls

    def test_fit(self, rng, monkeypatch):
        t = random_tensor((5, 5, 2, 6), rng, nnz=50)
        calls = self.count_passes(monkeypatch)
        fit(t, FitConfig(k=3, max_iterations=5, relative_elbo_tolerance=1e-15))
        assert len(calls) == 5 * 4 + 1
        assert all(frozen is None for frozen in calls)  # training builds no prefix

    def test_heldout_inference_builds_only_the_time_incidence(self, rng, monkeypatch):
        trained = random_state((5, 5, 2, 3), 3, rng)
        test = random_tensor((5, 5, 2, 4), rng, nnz=40)
        calls = self.count_passes(monkeypatch)
        config = FitConfig(k=3, max_iterations=5, relative_elbo_tolerance=1e-15)
        # a region of every cell hands inference the test tensor itself
        infer_heldout_time_factors(trained, Hyperparameters.default(4), test,
                                   top_block(test.shape, 5), config)
        assert len(calls) == 1 + 5 and all(frozen is not None for frozen in calls)
        assert set(test._plans) == {("incidence", cp._block_step(3), 3)}

    @pytest.mark.parametrize("cost", ["kl", "ls"])
    def test_ntf_heldout_builds_only_the_time_incidence(self, rng, cost):
        trained = random_factors((5, 5, 2, 3), 3, rng)
        test = random_tensor((5, 5, 2, 4), rng, nnz=40)
        config = NtfConfig(k=3, max_iterations=4, cost=cost)
        infer_heldout_time_factors_ntf(trained, test, top_block(test.shape, 5), config)
        assert set(test._plans) == {("incidence", cp._block_step(3), 3)}
