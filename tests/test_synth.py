"""Generative sampling: determinism, sparsity, and the analytic mean."""

import numpy as np

import countcp.synth
from countcp import (
    Hyperparameters,
    density,
    sample_count_tensor,
)
from conftest import reconstruct_dense, todense


class TestSampleCountTensor:
    def test_deterministic_per_seed(self):
        hyper = Hyperparameters.default(4, alpha=0.2)
        a, fa = sample_count_tensor((6, 6, 3, 5), 2, hyper, seed=3)
        b, fb = sample_count_tensor((6, 6, 3, 5), 2, hyper, seed=3)
        assert a == b
        for x, y in zip(fa.factors, fb.factors):
            assert np.array_equal(x, y)

    def test_row_chunking_does_not_change_the_draw(self, monkeypatch):
        hyper = Hyperparameters.default(4, alpha=0.2)
        a, _ = sample_count_tensor((7, 5, 2, 4), 2, hyper, seed=9)
        monkeypatch.setattr(countcp.synth, "_ROW_CHUNK", 2)
        b, _ = sample_count_tensor((7, 5, 2, 4), 2, hyper, seed=9)
        assert a == b

    def test_sparsity_inducing_prior_yields_sparse_tensors(self):
        hyper = Hyperparameters.default(4, alpha=0.1)
        densities = []
        for seed in range(5):
            t, _ = sample_count_tensor((12, 12, 5, 10), 4, hyper, seed=seed)
            densities.append(density(t))
        assert max(densities) < 0.5
        assert np.mean(densities) < 0.3

    def test_total_count_matches_analytic_expectation(self):
        shape, k = (6, 6, 3, 5), 2
        hyper = Hyperparameters(alpha=0.5, beta=(1.0, 2.0, 1.0, 0.5))
        # each cell's expected reconstruction is k times the prior means' product
        expected = k * 6 * (6 / 2.0) * 3 * (5 / 0.5)
        totals = []
        for seed in range(100):
            t, _ = sample_count_tensor(shape, k, hyper, seed=seed)
            totals.append(t.values.sum())
        totals = np.asarray(totals, dtype=float)
        se = totals.std(ddof=1) / np.sqrt(len(totals))
        assert abs(totals.mean() - expected) <= 3.0 * se

    def test_true_factors_reproduce_poisson_means(self):
        # with huge counts the empirical cell mean tracks the reconstruction
        hyper = Hyperparameters(alpha=20.0, beta=(0.05, 0.05, 0.05, 0.05))
        t, f = sample_count_tensor((3, 3, 2, 2), 1, hyper, seed=0)
        dense = todense(t).astype(float)
        recon = reconstruct_dense(f)
        ratio = dense[recon > 1000] / recon[recon > 1000]
        assert np.all(np.abs(ratio - 1.0) < 0.2)
