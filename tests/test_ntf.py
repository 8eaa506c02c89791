"""Multiplicative-update baselines: descent, fixed points, degeneracies."""

import numpy as np
import pytest

from countcp import (
    DegenerateUpdateError,
    FactorSet,
    InadmissibleZeroError,
    NtfConfig,
    Region,
    SparseCountTensor,
    fit_ntf,
    generalized_kl,
    infer_heldout_time_factors_ntf,
    ntf_kl_sweep,
    ntf_ls_sweep,
    poisson_log_likelihood,
    squared_error,
)
from conftest import random_factors, random_tensor, reconstruct_dense, todense, top_block


def perfect_instance():
    """A rank-one tensor together with factors reconstructing it exactly."""
    mats = [
        np.array([[2.0], [1.0]]),
        np.array([[1.0], [3.0]]),
        np.array([[1.0]]),
        np.array([[1.0]]),
    ]
    f = FactorSet(mats)
    dense = reconstruct_dense(f)
    entries = [
        (coord, int(dense[coord])) for coord in np.ndindex(*dense.shape)
    ]
    t = SparseCountTensor.from_entries(dense.shape, entries)
    return t, f


def kl_update_oracle(f, t, mode, region, epsilon_floor):
    """The KL multiplicative update as the factors times the scattered
    other-mode products times y/yhat, over the other-mode sums, floored."""
    keep = region.contains(t.coords)
    coords, y = t.coords[keep], t.values[keep].astype(np.float64)
    other = np.ones((coords.shape[0], f.k))
    for m in range(f.ndim):
        if m != mode:
            other *= f.factors[m][coords[:, m]]
    yhat = (other * f.factors[mode][coords[:, mode]]).sum(axis=1)
    numer = np.zeros_like(f.factors[mode])
    np.add.at(numer, coords[:, mode], other * (y / yhat)[:, None])
    denom = region.other_mode_sums(f.factors, mode)
    ratio = np.divide(numer, denom, out=np.zeros_like(numer), where=denom > 0.0)
    return np.maximum(f.factors[mode] * ratio, epsilon_floor)


KL_SHAPES = {"3-mode": (5, 4, 6), "4-mode": (4, 5, 3, 4), "5-mode": (4, 4, 2, 3, 3)}
KL_REGIONS = {
    "whole": lambda shape: Region.whole(shape),
    "block": lambda shape: Region(shape, [0, 2, 3], [1, 2]),
    "complement": lambda shape: Region(shape, [0, 2, 3], [1, 2], complement=True),
}


class TestKlSweep:
    @pytest.mark.parametrize("region_kind", list(KL_REGIONS))
    @pytest.mark.parametrize("shape_kind", list(KL_SHAPES))
    def test_matches_scatter_oracle(self, rng, shape_kind, region_kind):
        shape = KL_SHAPES[shape_kind]
        t = random_tensor(shape, rng, nnz=60)
        f = random_factors(shape, 3, rng)
        region = KL_REGIONS[region_kind](shape)
        for mode in range(len(shape)):
            updated = ntf_kl_sweep(f, t, mode, region, epsilon_floor=1e-12)
            expected = kl_update_oracle(f, t, mode, region, 1e-12)
            np.testing.assert_allclose(updated.factors[mode], expected, rtol=1e-12, atol=0)
            f = updated

    def test_exact_zero_factors_stay_exactly_zero(self, rng):
        shape = KL_SHAPES["4-mode"]
        t = random_tensor(shape, rng, nnz=60)
        mats = [m.copy() for m in random_factors(shape, 3, rng).factors]
        for m, row in [(0, 1), (0, 3), (1, 2), (2, 0), (3, 1)]:
            mats[m][row, 0] = 0.0
        f = FactorSet(mats)
        for mode in range(len(shape)):
            updated = ntf_kl_sweep(f, t, mode, epsilon_floor=0.0)
            expected = kl_update_oracle(f, t, mode, Region.whole(shape), 0.0)
            np.testing.assert_allclose(updated.factors[mode], expected, rtol=1e-12, atol=0)
            assert np.all(updated.factors[mode][f.factors[mode] == 0.0] == 0.0)
            f = updated

    def test_perfect_reconstruction_is_a_fixed_point(self):
        t, f = perfect_instance()
        for mode in range(4):
            updated = ntf_kl_sweep(f, t, mode)
            assert np.allclose(updated.factors[mode], f.factors[mode], rtol=1e-12)

    def test_rows_without_entries_drop_to_the_floor(self, rng):
        t = SparseCountTensor.from_entries((3, 2, 1, 1), [((0, 0, 0, 0), 5)])
        f = random_factors(t.shape, 2, rng)
        updated = ntf_kl_sweep(f, t, 0, epsilon_floor=1e-12)
        assert np.all(updated.factors[0][1] == 1e-12)
        assert np.all(updated.factors[0][2] == 1e-12)

    def test_objective_never_increases_over_sweeps(self, rng):
        t = random_tensor((3, 3, 2, 4), rng, nnz=30)
        f = random_factors(t.shape, 2, rng)
        value = generalized_kl(t, f)
        for _ in range(15):
            for mode in range(4):
                f = ntf_kl_sweep(f, t, mode)
                assert all(m.min() >= 1e-12 for m in f.factors)
            new_value = generalized_kl(t, f)
            assert new_value <= value + 1e-10 * abs(value)
            value = new_value

    def test_zero_reconstruction_under_count_raises(self):
        t = SparseCountTensor.from_entries((2, 1, 1, 1), [((0, 0, 0, 0), 3)])
        mats = [
            np.array([[0.0], [1.0]]),
            np.ones((1, 1)),
            np.ones((1, 1)),
            np.ones((1, 1)),
        ]
        with pytest.raises(InadmissibleZeroError, match=r"\(0, 0, 0, 0\)"):
            ntf_kl_sweep(FactorSet(mats), t, 1, epsilon_floor=0.0)

    def test_hard_zero_floor_preserves_inadmissible_zeros(self, rng):
        # with epsilon_floor=0, a dead row stays dead through further sweeps
        t = SparseCountTensor.from_entries((3, 2, 1, 1), [((0, 0, 0, 0), 5)])
        f = random_factors(t.shape, 2, rng)
        f = ntf_kl_sweep(f, t, 0, epsilon_floor=0.0)
        assert np.all(f.factors[0][1] == 0.0)
        f = ntf_kl_sweep(f, t, 0, epsilon_floor=0.0)
        assert np.all(f.factors[0][1] == 0.0)


class TestLsSweep:
    def test_perfect_reconstruction_is_a_fixed_point(self):
        t, f = perfect_instance()
        for mode in range(4):
            updated = ntf_ls_sweep(f, t, mode)
            assert np.allclose(updated.factors[mode], f.factors[mode], rtol=1e-12)

    def test_all_zero_tensor_collapses_to_the_floor(self, rng):
        t = SparseCountTensor.from_entries((3, 3, 2, 2), [])
        f = random_factors(t.shape, 2, rng)
        for _ in range(3):
            for mode in range(4):
                f = ntf_ls_sweep(f, t, mode, epsilon_floor=1e-12)
        assert np.all(f.factors[0] == 1e-12)

    def test_objective_never_increases_and_matches_dense_oracle(self, rng):
        t = random_tensor((3, 3, 2, 4), rng, nnz=30)
        f = random_factors(t.shape, 2, rng)
        dense = todense(t).astype(float)
        value = squared_error(t, f)
        assert value == pytest.approx(
            ((dense - reconstruct_dense(f)) ** 2).sum(), rel=1e-12
        )
        for _ in range(15):
            for mode in range(4):
                f = ntf_ls_sweep(f, t, mode)
            new_value = squared_error(t, f)
            assert new_value == pytest.approx(
                ((dense - reconstruct_dense(f)) ** 2).sum(), rel=1e-10
            )
            assert new_value <= value + 1e-10 * abs(value)
            value = new_value

    def test_zero_denominator_under_positive_numerator_raises(self):
        # the whole mode is dead, so yhat = 0 everywhere while y > 0
        t = SparseCountTensor.from_entries((2, 2, 1, 1), [((0, 0, 0, 0), 3)])
        mats = [
            np.array([[0.0], [0.0]]),
            np.array([[1.0], [1.0]]),
            np.ones((1, 1)),
            np.ones((1, 1)),
        ]
        with pytest.raises(DegenerateUpdateError):
            ntf_ls_sweep(FactorSet(mats), t, 0, epsilon_floor=0.0)


class TestFitNtf:
    def test_one_full_sweep(self, rng):
        t = random_tensor((3, 3, 2, 4), rng, nnz=20)
        _, trace = fit_ntf(t, NtfConfig(k=2, max_iterations=1, seed=0))
        assert trace.n_iterations == 1

    def test_deterministic_per_seed(self, rng):
        t = random_tensor((3, 3, 2, 4), rng, nnz=20)
        f1, _ = fit_ntf(t, NtfConfig(k=2, max_iterations=10, seed=4))
        f2, _ = fit_ntf(t, NtfConfig(k=2, max_iterations=10, seed=4))
        for a, b in zip(f1.factors, f2.factors):
            assert np.array_equal(a, b)

    def test_initial_mass_matches_total_count(self, rng):
        from countcp.ntf import init_factors
        from countcp import total_recon_mass

        t = random_tensor((4, 4, 3, 5), rng, nnz=40)
        f = init_factors(t, NtfConfig(k=3, seed=1))
        assert total_recon_mass(f) == pytest.approx(t.total_count, rel=1e-10)

    def test_kl_fit_reduces_objective_on_generative_data(self):
        from countcp import Hyperparameters, sample_count_tensor
        from countcp.ntf import init_factors

        hyper = Hyperparameters.default(4, alpha=0.3)
        t, _ = sample_count_tensor((6, 6, 3, 8), 3, hyper, seed=2)
        config = NtfConfig(k=3, max_iterations=40, seed=0)
        start = generalized_kl(t, init_factors(t, config))
        f, trace = fit_ntf(t, config)
        assert trace.values[-1] < start

    def test_kl_and_log_likelihood_rank_factor_sets_identically(self, rng):
        shape = (3, 3, 2, 4)
        for _ in range(25):
            t = random_tensor(shape, rng, nnz=int(rng.integers(6, 30)))
            f1 = random_factors(shape, 2, rng)
            f2 = random_factors(shape, 2, rng)
            kl_order = generalized_kl(t, f1) < generalized_kl(t, f2)
            ll_order = poisson_log_likelihood(f1, t) > poisson_log_likelihood(f2, t)
            assert kl_order == ll_order


class TestHeldoutInferenceNtf:
    def fit_trained(self, rng, cost="kl"):
        t = random_tensor((5, 5, 2, 8), rng, nnz=60)
        config = NtfConfig(k=2, max_iterations=30, seed=1, cost=cost)
        trained, _ = fit_ntf(t, config)
        test = random_tensor((5, 5, 2, 2), rng, nnz=14)
        return trained, test, config

    def test_full_mask_matches_unmasked_updates(self, rng):
        trained, test, config = self.fit_trained(rng)
        full = top_block(test.shape, 5)
        inferred, _ = infer_heldout_time_factors_ntf(trained, test, full, config)

        rng2 = np.random.default_rng(config.seed)
        time0 = rng2.uniform(0.0, 1.0, size=(2, config.k))
        f = FactorSet(list(trained.factors[:3]) + [time0])
        region = Region(test.shape, range(5), range(5))
        mass = region.sum_recon(f.factors)
        f = f.replace_mode(3, time0 * (test.total_count / mass))
        previous = None
        for _ in range(config.max_iterations):
            f = ntf_kl_sweep(f, test, 3, epsilon_floor=config.epsilon_floor)
            value = generalized_kl(test, f)
            if previous is not None and abs(value - previous) <= (
                config.relative_objective_tolerance * abs(previous)
            ):
                break
            previous = value
        assert np.allclose(inferred.factors[3], f.factors[3], rtol=1e-10)

    def test_frozen_modes_unchanged(self, rng):
        trained, test, config = self.fit_trained(rng, cost="ls")
        region = top_block(test.shape, 3)
        inferred, _ = infer_heldout_time_factors_ntf(trained, test, region, config)
        for m in range(3):
            assert np.array_equal(inferred.factors[m], trained.factors[m])

    def test_no_observed_counts_collapses_time_to_floor(self, rng):
        trained, test, config = self.fit_trained(rng)
        entries = [((4, 4, 0, 0), 2)]
        test = SparseCountTensor.from_entries(test.shape, entries, test.mode_labels)
        region = top_block(test.shape, 2)
        inferred, _ = infer_heldout_time_factors_ntf(trained, test, region, config)
        assert np.all(inferred.factors[3] == config.epsilon_floor)

    def test_heldout_mae_is_finite(self, rng):
        from countcp import region_metrics

        trained, test, config = self.fit_trained(rng)
        observed = top_block(test.shape, 3, complement=True)
        inferred, _ = infer_heldout_time_factors_ntf(trained, test, observed, config)
        heldout = observed.invert()
        scores = region_metrics(inferred, test, heldout)
        assert np.isfinite(scores["mae"]) and scores["mae"] >= 0.0

    @pytest.mark.parametrize("cost", ["kl", "ls"])
    def test_region_of_another_shape_is_an_error(self, rng, cost):
        trained, test, config = self.fit_trained(rng, cost=cost)
        other = top_block(test.shape[:3] + (test.shape[3] + 1,), 3)
        with pytest.raises(ValueError, match="observed region is bound to shape"):
            infer_heldout_time_factors_ntf(trained, test, other, config)
