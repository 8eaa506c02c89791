"""Generative sampling: determinism, sparsity, and the analytic mean."""

import tracemalloc

import numpy as np
import pytest

import countcp.synth
from countcp import (
    ConfigError,
    Hyperparameters,
    density,
    sample_count_tensor,
)
from conftest import oracle_sample_count_tensor, reconstruct_dense, todense

# (shape, k, alpha, beta): the bench's fit, eval and io tensors; one to three
# modes; a mode-0 size that leaves a short last chunk; a mode-0 row wider than
# one chunk; and a sparse tensor of mostly zero cells
ORACLE_CASES = [
    ((100, 100, 10, 15), 20, 100.0, 4.9),
    ((100, 100, 6, 20), 20, 100.0, 7.2),
    ((20, 20, 10, 365), 20, 300.0, 4.9),
    ((7,), 3, 1.0, 1.0),
    ((130, 9), 1, 0.5, 0.2),
    ((5, 6, 7), 4, 1.0, 1.0),
    ((150, 40, 30), 2, 1.0, 1.0),
    ((3, 20, 10, 400), 5, 1.0, 1.0),
    ((30, 30, 4, 12), 4, 0.1, 0.2),
]


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
        monkeypatch.setattr(countcp.synth, "_CHUNK_CELLS", 80)  # two 40-cell rows a chunk
        b, _ = sample_count_tensor((7, 5, 2, 4), 2, hyper, seed=9)
        assert a == b

    @pytest.mark.parametrize("seed", [0, 3])
    @pytest.mark.parametrize("shape, k, alpha, beta", ORACLE_CASES,
                             ids=["x".join(map(str, case[0])) for case in ORACLE_CASES])
    def test_matches_the_row_chunk_oracle_bit_for_bit(self, shape, k, alpha, beta, seed):
        hyper = Hyperparameters.default(len(shape), alpha=alpha, beta=beta)
        tensor, factors = sample_count_tensor(shape, k, hyper, seed)
        want, want_factors = oracle_sample_count_tensor(shape, k, hyper, seed)
        assert tensor == want
        for got, expected in zip(factors.factors, want_factors.factors, strict=True):
            assert np.array_equal(got, expected)

    def test_peak_memory_is_one_chunk_plus_the_output(self):
        # 1.46M cells, 11.7 MB per dense float array
        hyper = Hyperparameters.default(4, alpha=300.0, beta=4.9)
        tracemalloc.start()
        try:
            sample_count_tensor((20, 20, 10, 365), 20, hyper, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_shape_of_2_pow_63_cells_is_refused_before_any_draw(self, monkeypatch):
        def no_draw(*args, **kwargs):
            raise AssertionError("factors were drawn")

        monkeypatch.setattr(countcp.synth, "sample_factors", no_draw)
        hyper = Hyperparameters.default(3)
        with pytest.raises(ConfigError, match=r"multiply to 2\*\*63 or more"):
            sample_count_tensor((2**21, 2**21, 2**21), 1, hyper, seed=0)
        with pytest.raises(ConfigError, match=r"multiply to 2\*\*63 or more"):
            sample_count_tensor((2**63,), 1, Hyperparameters.default(1), seed=0)

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
