"""Variational updates and the ELBO against independently coded oracles."""

import math

import mpmath
import numpy as np
import pytest
from scipy import stats
from scipy.special import betaln, digamma, gammaln, logsumexp, roots_genlaguerre

from countcp import (
    FitConfig,
    Hyperparameters,
    NumericalDegeneracyError,
    Region,
    SparseCountTensor,
    VariationalState,
    fit,
    infer_heldout_time_factors,
    init_state,
    load_state,
    point_estimate,
    sample_count_tensor,
    save_state,
    update_beta,
    update_delta,
    write_trace,
)
from countcp.bptf import _gamma_prior_terms
from conftest import (
    compute_elbo,
    fresh_kl_step,
    fresh_update_shape,
    ntf_step,
    prior_state,
    random_factors,
    random_tensor,
    reconstruct_dense,
    state_from_point_estimate,
    todense,
    top_block,
)

EULER_MASCHERONI = 0.5772156649015328606


def make_state(shape, k, hyper, seed):
    return init_state(shape, FitConfig(k=k, seed=seed), hyper)


def randomized_state(shape, k, rng):
    gamma = [rng.uniform(0.2, 5.0, size=(s, k)) for s in shape]
    delta = [rng.uniform(0.2, 5.0, size=(s, k)) for s in shape]
    return VariationalState(gamma, delta)


class TestInitState:
    def test_deterministic_per_seed(self):
        hyper = Hyperparameters.default(4)
        a = make_state((3, 3, 2, 4), 2, hyper, seed=9)
        b = make_state((3, 3, 2, 4), 2, hyper, seed=9)
        for m in range(4):
            assert np.array_equal(a.gamma[m], b.gamma[m])
            assert np.array_equal(a.delta[m], b.delta[m])

    def test_a_state_at_the_prior_expects_the_prior_mean(self):
        hyper = Hyperparameters(alpha=0.1, beta=(2.0, 4.0, 1.0, 0.5))
        state = prior_state((3, 3, 2, 4), 2, hyper)
        for m in range(4):
            assert np.all(state.gamma[m] == 0.1)
            assert np.allclose(state.expect[m], 1.0 / hyper.beta[m], rtol=1e-14)

    def test_invariants_hold_after_init(self):
        hyper = Hyperparameters.default(4)
        state = make_state((3, 3, 2, 4), 3, hyper, seed=4)
        for m in range(4):
            assert np.all(state.gamma[m] > 0) and np.all(state.delta[m] > 0)
            assert np.all(state.gamma[m] < 0.2)  # alpha + jitter < 2*alpha
            assert np.all(np.exp(state.elog[m]) <= state.expect[m])
            assert np.allclose(
                state.expect[m], state.gamma[m] / state.delta[m], rtol=1e-15
            )


    def test_a_mode_without_both_caches_is_refreshed(self):
        hyper = Hyperparameters.default(4)
        state = make_state((3, 3, 2, 4), 2, hyper, seed=5)
        expect = [e * 2.0 for e in state.expect]  # given caches are trusted
        built = VariationalState(state.gamma, state.delta, expect[:3] + [None], state.elog)
        for m in range(3):
            assert built.expect[m] is expect[m] and built.elog[m] is state.elog[m]
        assert np.array_equal(built.expect[3], state.expect[3])
        assert np.array_equal(built.elog[3], state.elog[3])


def aux_variable_gamma_oracle(state, t, mode, alpha):
    """Latent-source oracle: per-entry multinomial allocations in log space."""
    n, k = state.gamma[mode].shape
    expected = np.full((n, k), alpha)
    for coord, y in zip(t.coords, t.values):
        log_phi = np.zeros(k)
        for m in range(state.n_modes):
            g = state.gamma[m][coord[m]]
            d = state.delta[m][coord[m]]
            log_phi = log_phi + digamma(g) - np.log(d)
        phi = np.exp(log_phi - logsumexp(log_phi))
        expected[coord[mode]] += y * (phi / phi.sum())
    return expected


class TestUpdateGamma:
    def test_rows_without_entries_fall_back_to_alpha(self, rng):
        t = SparseCountTensor.from_entries((3, 2, 2, 2), [((0, 0, 0, 0), 4)])
        hyper = Hyperparameters.default(4, alpha=0.3)
        state = make_state(t.shape, 2, hyper, seed=1)
        fresh_update_shape(state, t, 0, hyper)
        assert np.all(state.gamma[0][1] == 0.3)
        assert np.all(state.gamma[0][2] == 0.3)

    def test_single_cell_single_component_allocates_everything(self):
        t = SparseCountTensor.from_entries((1, 1, 1, 1), [((0, 0, 0, 0), 7)])
        hyper = Hyperparameters.default(4, alpha=0.2)
        state = make_state(t.shape, 1, hyper, seed=0)
        fresh_update_shape(state, t, 0, hyper)
        assert state.gamma[0][0, 0] == pytest.approx(0.2 + 7.0, rel=1e-15)

    @pytest.mark.parametrize("mode", [0, 1, 2, 3])
    def test_matches_auxiliary_variable_oracle(self, rng, mode):
        t = random_tensor((3, 3, 2, 4), rng, nnz=30)
        hyper = Hyperparameters.default(4, alpha=0.1)
        state = randomized_state(t.shape, 2, rng)
        expected = aux_variable_gamma_oracle(state, t, mode, hyper.alpha)
        fresh_update_shape(state, t, mode, hyper)
        assert np.allclose(state.gamma[mode], expected, atol=1e-12, rtol=0)

    def test_gamma_never_drops_below_alpha(self, rng):
        t = random_tensor((4, 4, 2, 3), rng, nnz=20)
        hyper = Hyperparameters.default(4, alpha=0.05)
        state = randomized_state(t.shape, 3, rng)
        for mode in range(4):
            fresh_update_shape(state, t, mode, hyper)
            assert np.all(state.gamma[mode] >= 0.05)

    def test_allocations_conserve_each_count(self, rng):
        t = random_tensor((3, 3, 2, 4), rng, nnz=25)
        state = randomized_state(t.shape, 3, rng)
        parts = np.ones((t.nnz, 3))
        for m in range(4):
            parts *= np.exp(state.elog[m])[t.coords[:, m]]
        alloc = t.values[:, None] * parts / parts.sum(axis=1, keepdims=True)
        assert np.allclose(alloc.sum(axis=1), t.values, rtol=1e-12)

    def test_vanished_geometric_mass_is_reported(self):
        t = SparseCountTensor.from_entries((1, 1, 1, 1), [((0, 0, 0, 0), 2)])
        hyper = Hyperparameters.default(4)
        state = make_state(t.shape, 1, hyper, seed=0)
        state.elog[0][:] = -np.inf
        with pytest.raises(NumericalDegeneracyError, match=r"\(0, 0, 0, 0\)"):
            fresh_update_shape(state, t, 1, hyper)


class TestUpdateDelta:
    def test_closed_form_product_of_column_sums(self):
        hyper = Hyperparameters(alpha=0.5, beta=(2.0,) * 4)
        state = make_state((5, 2, 3, 4), 1, hyper, seed=0)
        for m in range(4):
            state.expect[m][:] = 1.0
        t = SparseCountTensor.from_entries((5, 2, 3, 4), [])
        update_delta(state, 0, hyper)
        assert np.allclose(state.delta[0], 0.5 * 2.0 + 2 * 3 * 4, rtol=1e-14)

    def test_single_cell_sum_is_product_of_other_expectations(self, rng):
        hyper = Hyperparameters(alpha=0.2, beta=(1.0,) * 4)
        state = randomized_state((1, 1, 1, 1), 1, rng)
        t = SparseCountTensor.from_entries((1, 1, 1, 1), [])
        expected = hyper.rate(0) + (
            state.expect[1][0, 0] * state.expect[2][0, 0] * state.expect[3][0, 0]
        )
        update_delta(state, 0, hyper)
        assert state.delta[0][0, 0] == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("mode", [0, 1, 2, 3])
    def test_matches_dense_loop_oracle(self, rng, mode):
        shape = (3, 3, 2, 4)
        hyper = Hyperparameters(alpha=0.1, beta=(1.5, 0.7, 2.0, 1.0))
        state = randomized_state(shape, 2, rng)
        t = SparseCountTensor.from_entries(shape, [])
        other_shapes = [shape[m] for m in range(4) if m != mode]
        other_modes = [m for m in range(4) if m != mode]
        expected = np.full((shape[mode], 2), hyper.rate(mode))
        for other_coord in np.ndindex(*other_shapes):
            prod = np.ones(2)
            for m, c in zip(other_modes, other_coord):
                prod *= state.expect[m][c]
            expected += prod
        update_delta(state, mode, hyper)
        assert np.allclose(state.delta[mode], expected, atol=1e-12)

    @pytest.mark.parametrize("complement", [False, True])
    def test_masked_update_restricts_to_observed_cells(self, rng, complement):
        shape = (4, 4, 2, 3)
        hyper = Hyperparameters.default(4, alpha=0.1)
        region = Region(shape, rows=[0, 1], cols=[0, 2], complement=complement)
        state = randomized_state(shape, 2, rng)
        t = SparseCountTensor.from_entries(shape, [])
        expected = np.full((shape[3], 2), hyper.rate(3))
        for coord in np.ndindex(shape[0], shape[1], shape[2]):
            inside = (coord[0] in (0, 1)) and (coord[1] in (0, 2))
            if complement:
                inside = not inside
            if inside:
                expected += (
                    state.expect[0][coord[0]]
                    * state.expect[1][coord[1]]
                    * state.expect[2][coord[2]]
                )
        update_delta(state, 3, hyper, region=region)
        assert np.allclose(state.delta[3], expected, atol=1e-12)


class TestUpdateBeta:
    def test_all_ones_expectations(self, rng):
        hyper = Hyperparameters.default(4)
        state = make_state((5, 2, 2, 2), 2, hyper, seed=0)
        state.expect[0][:] = 1.0
        new = update_beta(state, 0, hyper)
        assert new.beta[0] == pytest.approx(1.0, rel=1e-15)

    def test_single_expectation(self, rng):
        hyper = Hyperparameters.default(4)
        state = make_state((1, 1, 1, 1), 1, hyper, seed=0)
        state.expect[2][:] = 4.0
        new = update_beta(state, 2, hyper)
        assert new.beta[2] == pytest.approx(0.25, rel=1e-15)

    def test_matches_direct_summation_oracle(self, rng):
        hyper = Hyperparameters.default(4)
        state = randomized_state((4, 3, 2, 5), 3, rng)
        total, count = 0.0, 0
        for row in state.expect[1]:
            for value in row:
                total += value
                count += 1
        new = update_beta(state, 1, hyper)
        assert new.beta[1] == pytest.approx(count / total, rel=1e-12)


def prior_only_elbo_oracle(state, hyper):
    """Independent per-factor summation: scipy entropies plus cross terms."""
    total = 0.0
    for m in range(state.n_modes):
        rate = hyper.alpha * hyper.beta[m]
        for g, d in zip(state.gamma[m].ravel(), state.delta[m].ravel()):
            elog = digamma(g) - math.log(d)
            cross = (
                hyper.alpha * math.log(rate)
                - gammaln(hyper.alpha)
                + (hyper.alpha - 1.0) * elog
                - rate * (g / d)
            )
            total += cross + stats.gamma.entropy(g, scale=1.0 / d)
    mass = np.ones(state.k)
    for m in range(state.n_modes):
        mass = mass * state.expect[m].sum(axis=0)
    return total - float(mass.sum())


def evidence_by_quadrature(y, alpha, rates, nodes=90):
    """log P(Y) for a 2x2x1x1, K=1 instance by analytic reduction plus
    per-dimension generalized Gauss-Laguerre quadrature.

    The two actor modes integrate out through Beta moments and a Gamma
    Laplace-type identity, leaving a smooth three-dimensional expectation
    over the receiver total and the two scalar factors.
    """
    y = np.asarray(y, dtype=np.float64)
    b1, b2, b3, b4 = rates
    row = y.sum(axis=1)
    col = y.sum(axis=0)
    total = y.sum()

    log_c = -gammaln(y + 1.0).sum()
    log_mu = betaln(alpha + row[0], alpha + row[1]) - betaln(alpha, alpha)
    log_mv = betaln(alpha + col[0], alpha + col[1]) - betaln(alpha, alpha)
    log_u_part = gammaln(2 * alpha + total) - gammaln(2 * alpha) + 2 * alpha * math.log(b1)

    xv, wv = roots_genlaguerre(nodes, 2 * alpha - 1.0)
    xw, ww = roots_genlaguerre(nodes, alpha - 1.0)
    xx, wx = roots_genlaguerre(nodes, alpha - 1.0)
    v = (xv / b2)[:, None, None]
    w = (xw / b3)[None, :, None]
    x = (xx / b4)[None, None, :]
    log_f = total * (np.log(v) + np.log(w) + np.log(x)) - (
        2 * alpha + total
    ) * np.log(b1 + w * x * v)
    log_weights = (
        np.log(wv)[:, None, None] + np.log(ww)[None, :, None] + np.log(wx)[None, None, :]
    )
    log_norm = gammaln(2 * alpha) + 2 * gammaln(alpha)
    log_expect = logsumexp(log_f + log_weights) - log_norm
    return log_c + log_mu + log_mv + log_u_part + log_expect


def evidence_by_monte_carlo(y, alpha, rates, samples=400_000, seed=77):
    rng = np.random.default_rng(seed)
    u = rng.gamma(alpha, 1.0 / rates[0], size=(samples, 2))
    v = rng.gamma(alpha, 1.0 / rates[1], size=(samples, 2))
    w = rng.gamma(alpha, 1.0 / rates[2], size=samples)
    x = rng.gamma(alpha, 1.0 / rates[3], size=samples)
    lam = u[:, :, None] * v[:, None, :] * (w * x)[:, None, None]
    logp = stats.poisson.logpmf(np.asarray(y)[None, :, :], lam).sum(axis=(1, 2))
    p = np.exp(logp)
    return float(p.mean()), float(p.std(ddof=1) / math.sqrt(samples))


class TestComputeElbo:
    def test_empty_tensor_matches_prior_oracle(self, rng):
        shape = (3, 2, 2, 3)
        hyper = Hyperparameters(alpha=0.4, beta=(1.0, 2.0, 0.5, 1.5))
        t = SparseCountTensor.from_entries(shape, [])
        state = randomized_state(shape, 2, rng)
        assert compute_elbo(state, t, hyper) == pytest.approx(
            prior_only_elbo_oracle(state, hyper), rel=1e-10
        )

    def test_prior_state_on_empty_tensor_has_zero_kl(self):
        shape = (3, 2, 2, 3)
        hyper = Hyperparameters(alpha=0.4, beta=(1.0, 2.0, 0.5, 1.5))
        t = SparseCountTensor.from_entries(shape, [])
        state = prior_state(shape, 2, hyper)
        mass = 2.0
        for m, s in enumerate(shape):
            mass *= s / hyper.beta[m]
        assert compute_elbo(state, t, hyper) == pytest.approx(-mass, rel=1e-12)

    def test_entries_outside_the_region_are_left_out(self, rng):
        shape = (5, 5, 2, 4)
        t = random_tensor(shape, rng, nnz=60)
        region = top_block(shape, 2)
        inside = region.restrict(t)
        assert 0 < inside.nnz < t.nnz
        state = randomized_state(shape, 2, rng)
        hyper = Hyperparameters.default(4)
        assert compute_elbo(state, t, hyper, region) == compute_elbo(state, inside, hyper, region)

    def test_bounded_by_quadrature_evidence(self, rng):
        alpha = 0.5
        hyper = Hyperparameters(alpha=alpha, beta=(1.0, 1.0, 1.0, 1.0))
        rates = [hyper.rate(m) for m in range(4)]
        y = np.array([[1, 0], [2, 1]])
        entries = [
            ((i, j, 0, 0), int(y[i, j])) for i in range(2) for j in range(2) if y[i, j]
        ]
        t = SparseCountTensor.from_entries((2, 2, 1, 1), entries)

        log_evidence = evidence_by_quadrature(y, alpha, rates)
        p_mc, se_mc = evidence_by_monte_carlo(y, alpha, rates)
        assert math.exp(log_evidence) == pytest.approx(p_mc, abs=5 * se_mc)

        for seed in range(5):
            state = make_state(t.shape, 1, hyper, seed=seed)
            assert compute_elbo(state, t, hyper) <= log_evidence + 1e-9
        state, _, _ = fit(t, FitConfig(k=1, max_iterations=60, seed=0, learn_beta=False), hyper)
        fitted = compute_elbo(state, t, hyper)
        assert fitted <= log_evidence + 1e-9
        assert fitted >= log_evidence - 5.0  # a usable, not vacuous, bound

    def test_monotone_over_sweeps(self, rng):
        for seed in range(5):
            t = random_tensor((5, 5, 3, 6), rng, nnz=40)
            _, _, trace = fit(
                t, FitConfig(k=3, max_iterations=25, seed=seed), Hyperparameters.default(4)
            )
            elbos = np.array(trace.values)
            drops = np.diff(elbos) < -np.abs(elbos[:-1]) * 1e-10
            assert not drops.any()

    @pytest.mark.parametrize("alpha", [1e-9, 1e-12, 1e-300])
    def test_never_falls_at_a_tiny_alpha(self, alpha):
        """The sparse synthetic tensor of the CI small-alpha fit: summing the
        expected log prior and the entropy apart, the trace fell in 1, 14
        and 42 of these 99 steps."""
        t, _ = sample_count_tensor((30, 30, 4, 12), 4, Hyperparameters(0.1, (0.2,) * 4), 2)
        config = FitConfig(k=10, max_iterations=100, tolerance=1e-12)
        _, _, trace = fit(t, config, Hyperparameters.default(4, alpha=alpha))
        steps = np.diff(trace.values)
        assert steps.size == 99 and np.all(steps >= 0.0), np.flatnonzero(steps < 0.0)


def prior_kl_by_mpmath(alpha, rate, gamma, delta):
    """-KL(Gamma(gamma, delta) || Gamma(alpha, rate)) as the expected log
    prior plus the entropy, at 80 digits."""
    with mpmath.workdps(80):
        a, r, g, d = (mpmath.mpf(x) for x in (alpha, rate, gamma, delta))
        elog = mpmath.digamma(g) - mpmath.log(d)
        cross = a * mpmath.log(r) - mpmath.loggamma(a) + (a - 1) * elog - r * g / d
        entropy = g - mpmath.log(d) + mpmath.loggamma(g) + (1 - g) * mpmath.digamma(g)
        return float(cross + entropy)


class TestPriorKL:
    @pytest.mark.parametrize("alpha, beta, gamma, delta", [
        (1e-9, 1.0, 1e-9, 3.0),  # gamma = alpha
        (1e-9, 1.0, 1e-9, 0.97e-9),
        (1e-300, 1.0, 1e-300 + 1e-20, 2.5),  # gamma - alpha = 1e-20
        (1e-300, 1.0, 1e-300 + 1e-20, 1e-300),
        (1e-12, 1.0, 1e-12, 1e-12),  # the prior itself
        (0.1, 1.0, 0.1 + 1e-9, 0.1),
        (0.1, 0.5, 3.7, 2.5),
        (1e-3, 2.0, 50.0, 12.0),
        (2.0, 0.3, 0.05, 7.0),
    ])
    def test_one_factor_matches_high_precision(self, alpha, beta, gamma, delta):
        state = VariationalState([[[gamma]]], [[[delta]]])
        got = _gamma_prior_terms(state, Hyperparameters(alpha, (beta,)), 0)
        want = prior_kl_by_mpmath(alpha, alpha * beta, gamma, delta)
        assert got == pytest.approx(want, rel=1e-11, abs=1e-15)

    def test_sums_the_factors_of_one_mode(self, rng):
        state = randomized_state((4, 3), 2, rng)
        hyper = Hyperparameters(0.3, (1.0, 2.5))
        want = sum(
            prior_kl_by_mpmath(0.3, 0.75, g, d)
            for g, d in zip(state.gamma[1].ravel(), state.delta[1].ravel())
        )
        assert _gamma_prior_terms(state, hyper, 1) == pytest.approx(want, rel=1e-12)


class TestFit:
    def test_single_iteration_gives_single_trace_row(self, rng):
        t = random_tensor((3, 3, 2, 4), rng, nnz=15)
        _, _, trace = fit(t, FitConfig(k=2, max_iterations=1, seed=0))
        assert trace.n_iterations == 1
        assert not trace.converged

    def test_huge_tolerance_converges_at_second_sweep(self, rng):
        t = random_tensor((3, 3, 2, 4), rng, nnz=15)
        _, _, trace = fit(
            t, FitConfig(k=2, max_iterations=50, tolerance=1e6, seed=0)
        )
        assert trace.converged
        assert trace.n_iterations == 2

    def test_learned_fit_beats_prior_mean_reconstruction(self, rng):
        from countcp import sample_count_tensor

        hyper = Hyperparameters.default(4, alpha=0.3)
        t, _ = sample_count_tensor((6, 6, 3, 8), 3, hyper, seed=11)
        config = FitConfig(k=3, max_iterations=60, seed=0)
        state, _, _ = fit(t, config, hyper)
        dense = todense(t).astype(float)
        fitted = reconstruct_dense(point_estimate(state, "arithmetic"))
        prior = reconstruct_dense(
            point_estimate(prior_state(t.shape, config.k, hyper), "arithmetic")
        )
        assert np.abs(fitted - dense).mean() < np.abs(prior - dense).mean()


class TestPointEstimate:
    def test_digamma_oracle_at_one(self):
        state = VariationalState(
            [np.ones((1, 1))] * 4, [np.ones((1, 1))] * 4
        )
        geo = point_estimate(state, "geometric")
        ari = point_estimate(state, "arithmetic")
        assert ari.factors[0][0, 0] == pytest.approx(1.0, rel=1e-15)
        assert geo.factors[0][0, 0] == pytest.approx(
            math.exp(-EULER_MASCHERONI), rel=1e-12
        )

    def test_digamma_oracle_via_harmonic_series(self):
        # digamma(10) = H_9 - Euler-Mascheroni
        state = VariationalState(
            [np.full((1, 1), 10.0)] * 4, [np.full((1, 1), 0.5)] * 4
        )
        geo = point_estimate(state, "geometric")
        ari = point_estimate(state, "arithmetic")
        h9 = sum(1.0 / n for n in range(1, 10))
        assert ari.factors[0][0, 0] == pytest.approx(20.0, rel=1e-15)
        assert geo.factors[0][0, 0] == pytest.approx(
            math.exp(h9 - EULER_MASCHERONI) / 0.5, rel=1e-12
        )

    def test_geometric_never_exceeds_arithmetic(self, rng):
        state = randomized_state((6, 5, 3, 7), 4, rng)
        geo = point_estimate(state, "geometric")
        ari = point_estimate(state, "arithmetic")
        for g, a in zip(geo.factors, ari.factors):
            assert np.all(g <= a)


class TestLimitCorrespondence:
    def test_vanishing_prior_reduces_to_multiplicative_update(self, rng):
        shape = (3, 3, 2, 4)
        hyper = Hyperparameters(alpha=1e-8, beta=(1e-8,) * 4)
        for trial in range(3):
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
                rel = np.abs(state.expect[mode] - ntf.factors[mode]) / ntf.factors[mode]
                assert rel.max() < 1e-4


class TestHeldoutInference:
    def build_split(self, rng, shape=(5, 5, 2, 6), k=2):
        hyper = Hyperparameters.default(4, alpha=0.3)
        train = random_tensor(shape, rng, nnz=40)
        test = random_tensor(shape[:3] + (2,), rng, nnz=16)
        config = FitConfig(k=k, max_iterations=25, seed=3)
        state, learned, _ = fit(train, config, hyper)
        return state, learned, test, config

    def test_empty_observed_counts_leave_time_at_prior(self, rng):
        state, hyper, test, config = self.build_split(rng)
        # observe a block holding no entries at all
        entries_outside = [
            ((4, 4, a, s), 3) for a in range(2) for s in range(2)
        ]
        test = SparseCountTensor.from_entries(test.shape, entries_outside, test.mode_labels)
        region = top_block(test.shape, 2)
        heldout, _ = infer_heldout_time_factors(state, hyper, test, region, config)
        assert np.all(heldout.gamma[3] == hyper.alpha)

    def test_full_mask_equals_unmasked_fit(self, rng):
        state, hyper, test, config = self.build_split(rng)
        full = top_block(test.shape, 5)
        heldout, trace = infer_heldout_time_factors(state, hyper, test, full, config)

        manual = init_state(test.shape, config, hyper)
        for m in range(3):
            manual.gamma[m] = state.gamma[m].copy()
            manual.delta[m] = state.delta[m].copy()
            manual.refresh(m)
        for _ in range(trace.n_iterations):
            fresh_update_shape(manual, test, 3, hyper)
            update_delta(manual, 3, hyper)
        assert np.allclose(heldout.gamma[3], manual.gamma[3], rtol=1e-12)
        assert np.allclose(heldout.delta[3], manual.delta[3], rtol=1e-12)

    def test_frozen_modes_stay_bit_identical(self, rng):
        state, hyper, test, config = self.build_split(rng)
        region = top_block(test.shape, 3)
        heldout, _ = infer_heldout_time_factors(state, hyper, test, region, config)
        for m in range(3):
            assert np.array_equal(heldout.gamma[m], state.gamma[m])
            assert np.array_equal(heldout.delta[m], state.delta[m])
            assert np.array_equal(heldout.expect[m], state.expect[m])
            assert np.array_equal(heldout.elog[m], state.elog[m])

    def test_frozen_modes_share_the_trained_arrays_and_time_starts_at_init_state(self, rng):
        state, hyper, test, config = self.build_split(rng)
        names = ("gamma", "delta", "expect", "elog")
        trained = {name: [a.copy() for a in getattr(state, name)] for name in names}
        config = FitConfig(k=2, max_iterations=1, seed=7)
        heldout, _ = infer_heldout_time_factors(state, hyper, test, top_block(test.shape, 3), config)
        for name in names:
            for m in range(3):
                assert getattr(heldout, name)[m] is getattr(state, name)[m]
            for got, want in zip(getattr(state, name), trained[name]):
                assert np.array_equal(got, want)  # the trained state is unchanged
        # one sweep's shape update from init_state's time mode, as a fresh state would run it
        fresh = init_state(test.shape, config, hyper)
        for m in range(3):
            fresh.gamma[m], fresh.delta[m] = state.gamma[m], state.delta[m]
            fresh.expect[m], fresh.elog[m] = state.expect[m], state.elog[m]
        fresh_update_shape(fresh, top_block(test.shape, 3).restrict(test), 3, hyper)
        assert np.array_equal(heldout.gamma[3], fresh.gamma[3])

    def test_beats_prior_mean_baseline_on_generative_data(self, rng):
        from countcp import sample_count_tensor, split_time

        hyper = Hyperparameters.default(4, alpha=0.3)
        t, _ = sample_count_tensor((8, 8, 3, 10), 3, hyper, seed=5)
        ts = split_time(t, 0.2, seed=1)
        config = FitConfig(k=3, max_iterations=50, seed=2)
        state, learned, _ = fit(ts.train, config, hyper)
        observed = top_block(ts.test.shape, 4, complement=True)
        heldout_state, _ = infer_heldout_time_factors(
            state, learned, ts.test, observed, config
        )
        region = observed.invert()
        dense = todense(ts.test).astype(float)
        grid = np.zeros(ts.test.shape, dtype=bool)
        pair = np.zeros(ts.test.shape[:2], dtype=bool)
        pair[np.ix_(region.rows, region.cols)] = True
        if region.complement:
            pair = ~pair
        grid[...] = pair.reshape(pair.shape + (1, 1))

        fitted = reconstruct_dense(point_estimate(heldout_state, "geometric"))
        baseline = prior_state(ts.test.shape, config.k, learned)
        for m in range(3):
            baseline.gamma[m] = state.gamma[m].copy()
            baseline.delta[m] = state.delta[m].copy()
            baseline.refresh(m)
        prior = reconstruct_dense(point_estimate(baseline, "geometric"))
        assert np.abs(fitted - dense)[grid].mean() < np.abs(prior - dense)[grid].mean()

    def test_empty_observed_region_is_an_error(self, rng):
        from countcp import EmptyRegionError

        state, hyper, test, config = self.build_split(rng)
        empty = Region(test.shape, rows=[], cols=[])
        with pytest.raises(EmptyRegionError):
            infer_heldout_time_factors(state, hyper, test, empty, config)

    def test_region_of_another_shape_is_an_error(self, rng):
        state, hyper, test, config = self.build_split(rng)
        other = top_block(test.shape[:3] + (test.shape[3] + 1,), 3)
        with pytest.raises(ValueError, match="observed region is bound to shape"):
            infer_heldout_time_factors(state, hyper, test, other, config)


class TestStateFiles:
    def test_round_trip_is_exact(self, rng, tmp_path):
        t = random_tensor((3, 3, 2, 4), rng, nnz=15)
        state, hyper, trace = fit(t, FitConfig(k=2, max_iterations=5, seed=0))
        save_state(state, hyper, tmp_path / "state")
        back, back_hyper = load_state(tmp_path / "state")
        assert back_hyper == hyper
        for m in range(4):
            assert np.array_equal(back.gamma[m], state.gamma[m])
            assert np.array_equal(back.delta[m], state.delta[m])

    def test_trace_file_has_one_row_per_sweep(self, rng, tmp_path):
        t = random_tensor((3, 3, 2, 4), rng, nnz=15)
        _, _, trace = fit(t, FitConfig(k=2, max_iterations=4, seed=0))
        write_trace(trace, tmp_path / "trace.txt")
        lines = (tmp_path / "trace.txt").read_text().strip().splitlines()
        assert len(lines) == trace.n_iterations
        assert len(lines[0].split()) == 2 + 4  # iteration, elbo, four betas
