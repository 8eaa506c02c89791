"""Reconstruction and objective functions against brute-force oracles."""

import math
from unittest import mock

import numpy as np
import pytest
from scipy.special import digamma, gammaln, logsumexp

from countcp import (
    FactorSet,
    FitConfig,
    Hyperparameters,
    Region,
    SparseCountTensor,
    VariationalState,
    fit,
    generalized_kl,
    infer_heldout_time_factors,
    init_state,
    load_factors,
    poisson_log_likelihood,
    reconstruct_entries,
    save_factors,
    save_state,
)
from countcp import cp
from countcp.ntf import _ls_step
from conftest import (
    allocate,
    compute_elbo,
    linear_allocate,
    ntf_step,
    random_factors,
    random_tensor,
    reconstruct_dense,
    todense,
)


def loop_reconstruct(f, coord):
    """Quadruple-loop oracle: explicit sum over components."""
    total = 0.0
    for k in range(f.k):
        term = 1.0
        for m, c in enumerate(coord):
            term *= f.factors[m][c, k]
        total += term
    return total


def dense_poisson_ll(t, f):
    dense_y = todense(t).astype(float)
    dense_yhat = reconstruct_dense(f)
    total = 0.0
    for y, yhat in zip(dense_y.ravel(), dense_yhat.ravel()):
        if y > 0 and yhat == 0.0:
            return -math.inf
        term = -yhat - math.lgamma(y + 1.0)
        if y > 0:
            term += y * math.log(yhat)
        total += term
    return total


def dense_kl(t, f):
    dense_y = todense(t).astype(float)
    dense_yhat = reconstruct_dense(f)
    total = 0.0
    for y, yhat in zip(dense_y.ravel(), dense_yhat.ravel()):
        if y > 0:
            if yhat == 0.0:
                return math.inf
            total += y * math.log(y / yhat) - y + yhat
        else:
            total += yhat
    return total


def reconstruct(f, coord):
    """Reconstruction at one coordinate, through the vectorized path."""
    return float(reconstruct_entries(f, [coord])[0])


class TestReconstruct:
    def test_single_component_of_ones(self):
        f = FactorSet([np.ones((2, 1)) for _ in range(4)])
        assert reconstruct(f, (0, 1, 0, 1)) == 1.0

    def test_two_component_hand_arithmetic(self):
        mats = [np.array([[2.0, 3.0]]), np.ones((1, 2)), np.ones((1, 2)), np.ones((1, 2))]
        f = FactorSet(mats)
        assert reconstruct(f, (0, 0, 0, 0)) == 5.0

    def test_matches_loop_oracle_everywhere(self, rng):
        f = random_factors((3, 3, 2, 4), 3, rng)
        for coord in np.ndindex(3, 3, 2, 4):
            assert reconstruct(f, coord) == pytest.approx(
                loop_reconstruct(f, coord), rel=1e-12
            )

    def test_out_of_range_coordinate_raises(self, rng):
        f = random_factors((3, 3, 2, 4), 2, rng)
        with pytest.raises(IndexError):
            reconstruct(f, (3, 0, 0, 0))

    def test_multilinear_in_each_column(self, rng):
        f = random_factors((3, 3, 2, 4), 2, rng)
        scaled = f.replace_mode(1, f.factors[1] * np.array([3.0, 1.0]))
        for coord in [(0, 1, 0, 2), (2, 2, 1, 3)]:
            base = [np.prod([f.factors[m][coord[m], k] for m in range(4)]) for k in range(2)]
            got = reconstruct(scaled, coord)
            assert got == pytest.approx(3.0 * base[0] + base[1], rel=1e-12)


class TestPoissonLogLikelihood:
    def test_zero_count_contributes_minus_recon(self):
        t = SparseCountTensor.from_entries((1, 1, 1, 1), [])
        f = FactorSet([np.full((1, 1), v) for v in (2.0, 1.0, 1.0, 1.0)])
        assert poisson_log_likelihood(f, t) == pytest.approx(-2.0)

    def test_count_one_recon_one(self):
        t = SparseCountTensor.from_entries((1, 1, 1, 1), [((0, 0, 0, 0), 1)])
        f = FactorSet([np.ones((1, 1)) for _ in range(4)])
        assert poisson_log_likelihood(f, t) == pytest.approx(-1.0)

    def test_matches_dense_oracle(self, rng):
        t = random_tensor((3, 3, 2, 4), rng, nnz=20)
        f = random_factors((3, 3, 2, 4), 3, rng)
        assert poisson_log_likelihood(f, t) == pytest.approx(
            dense_poisson_ll(t, f), rel=1e-12
        )

    def test_zero_recon_under_count_is_minus_inf(self):
        t = SparseCountTensor.from_entries((2, 1, 1, 1), [((0, 0, 0, 0), 2)])
        mats = [np.array([[0.0], [1.0]]), np.ones((1, 1)), np.ones((1, 1)), np.ones((1, 1))]
        f = FactorSet(mats)
        assert poisson_log_likelihood(f, t) == -math.inf

    def test_underflowing_products_stay_finite(self):
        # every product is 1e-360, below the smallest double, but its log is not
        entries = [(coord, 1 + sum(coord)) for coord in np.ndindex(2, 2, 2)]
        t = SparseCountTensor.from_entries((2, 2, 2), entries)
        f = FactorSet([np.full((2, 2), 1e-120) for _ in range(3)])
        y = t.values.astype(np.float64)
        log_yhat = math.log(2.0) + 3.0 * math.log(1e-120)
        want = float((y * log_yhat).sum() - gammaln(y + 1.0).sum())
        assert poisson_log_likelihood(f, t) == pytest.approx(want, rel=1e-12)
        constant = float((y * np.log(y) - y - gammaln(y + 1.0)).sum())
        total = generalized_kl(t, f) + poisson_log_likelihood(f, t)
        assert total == pytest.approx(constant, rel=1e-9)


class TestGeneralizedKl:
    def test_zero_at_perfect_reconstruction(self):
        entries = [((i, j, 0, 0), 2) for i in range(2) for j in range(2)]
        t = SparseCountTensor.from_entries((2, 2, 1, 1), entries)
        f = FactorSet(
            [np.full((2, 1), 2.0), np.ones((2, 1)), np.ones((1, 1)), np.ones((1, 1))]
        )
        assert generalized_kl(t, f) == pytest.approx(0.0, abs=1e-12)

    def test_all_zero_counts_leaves_recon_mass(self):
        t = SparseCountTensor.from_entries((2, 2, 1, 1), [])
        f = FactorSet([np.ones((2, 1)), np.ones((2, 1)), np.ones((1, 1)), np.ones((1, 1))])
        assert generalized_kl(t, f) == pytest.approx(4.0)

    def test_matches_dense_oracle(self, rng):
        t = random_tensor((3, 3, 2, 4), rng, nnz=18)
        f = random_factors((3, 3, 2, 4), 3, rng)
        assert generalized_kl(t, f) == pytest.approx(dense_kl(t, f), rel=1e-12)

    def test_zero_recon_under_count_is_plus_inf(self):
        t = SparseCountTensor.from_entries((2, 1, 1, 1), [((0, 0, 0, 0), 2)])
        mats = [np.array([[0.0], [1.0]]), np.ones((1, 1)), np.ones((1, 1)), np.ones((1, 1))]
        assert generalized_kl(t, FactorSet(mats)) == math.inf

    def test_non_negative_on_random_instances(self, rng):
        for _ in range(20):
            t = random_tensor((3, 2, 2, 3), rng, nnz=12)
            f = random_factors((3, 2, 2, 3), 2, rng)
            assert generalized_kl(t, f) >= 0.0


class TestObjectiveEquivalence:
    def test_kl_difference_equals_negated_ll_difference(self, rng):
        shape = (3, 3, 2, 4)
        for _ in range(100):
            t = random_tensor(shape, rng, nnz=int(rng.integers(5, 40)))
            f1 = random_factors(shape, 3, rng)
            f2 = random_factors(shape, 3, rng)
            kl_diff = generalized_kl(t, f1) - generalized_kl(t, f2)
            ll_diff = poisson_log_likelihood(f2, t) - poisson_log_likelihood(f1, t)
            assert kl_diff == pytest.approx(ll_diff, rel=1e-9, abs=1e-9)


class TestMaskedObjectives:
    @pytest.mark.parametrize("complement", [False, True])
    def test_masked_sums_match_explicit_enumeration(self, rng, complement):
        shape = (4, 4, 2, 3)
        t = random_tensor(shape, rng, nnz=25)
        f = random_factors(shape, 2, rng)
        region = Region(shape, rows=[0, 1], cols=[0, 1, 2], complement=complement)
        dense_y = todense(t).astype(float)
        dense_yhat = reconstruct_dense(f)
        ll = kl = 0.0
        for coord in np.ndindex(*shape):
            inside = (coord[0] in (0, 1)) and (coord[1] in (0, 1, 2))
            if complement:
                inside = not inside
            if not inside:
                continue
            y, yhat = dense_y[coord], dense_yhat[coord]
            ll += (y * math.log(yhat) if y > 0 else 0.0) - yhat - math.lgamma(y + 1)
            kl += (y * math.log(y / yhat) - y if y > 0 else 0.0) + yhat
        assert poisson_log_likelihood(f, t, region) == pytest.approx(ll, rel=1e-12)
        assert generalized_kl(t, f, region) == pytest.approx(kl, rel=1e-12)


def geometric(gamma, delta):
    """Linear-space geometric expectations exp(digamma(gamma)) / delta."""
    return [np.exp(digamma(g)) / d for g, d in zip(gamma, delta)]


class TestAllocate:
    """The log-space allocation against the linear ``np.add.at`` oracle."""

    @pytest.mark.parametrize("mode", range(4))
    @pytest.mark.parametrize("model", ["bptf", "ntf-kl"])
    def test_matches_linear_oracle(self, rng, model, mode):
        # the last index of every mode has no entries
        inner = random_tensor((5, 4, 3, 6), rng, nnz=60)
        shape = (6, 5, 4, 7)
        t = SparseCountTensor.from_entries(shape, zip(inner.coords, inner.values))
        if model == "bptf":
            hyper = Hyperparameters.default(4, alpha=0.1)
            state = init_state(shape, FitConfig(k=3, seed=4), hyper)
            logs, mats, start = state.elog, geometric(state.gamma, state.delta), 0.1
        else:
            mats = random_factors(shape, 3, rng).factors
            logs, start = [np.log(m) for m in mats], 0.0
        got = np.full((shape[mode], 3), start)
        want = got.copy()
        assert allocate(logs, t, mode, got) is None
        assert linear_allocate(mats, t.coords, t.values, mode, want) is None
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
        assert np.all(got[-1] == start)

    def test_heldout_inference_allocates_the_observed_entries(self, rng):
        train = random_tensor((6, 6, 3, 5), rng, nnz=80)
        test = random_tensor((6, 6, 3, 4), rng, nnz=60)
        state, hyper, _ = fit(train, FitConfig(k=3, max_iterations=5, seed=1))
        region = Region(test.shape, rows=range(3), cols=range(4))
        config = FitConfig(k=3, max_iterations=1, seed=2)
        heldout, _ = infer_heldout_time_factors(state, hyper, test, region, config)
        fresh = init_state(test.shape, config, hyper)
        mats = geometric(state.gamma[:3] + fresh.gamma[3:], state.delta[:3] + fresh.delta[3:])
        keep = region.contains(test.coords)
        assert 0 < keep.sum() < test.nnz
        want = np.full((4, 3), hyper.alpha)
        assert linear_allocate(mats, test.coords[keep], test.values[keep], 3, want) is None
        np.testing.assert_allclose(heldout.gamma[3], want, rtol=1e-12, atol=0)


class TestMultiBlock:
    """The kernel over a tensor of 61 entries in blocks of 20: three full
    blocks and a ragged last one of a single entry."""

    STEP = 20

    @pytest.fixture
    def tensor(self, rng):
        # the extra entry sorts last and is alone in mode 0's last index
        inner = random_tensor((5, 4, 3, 6), rng, nnz=60)
        entries = [*zip(inner.coords, inner.values), ((5, 0, 0, 0), 4)]
        return SparseCountTensor.from_entries((6, 4, 3, 6), entries)

    def small_blocks(self, monkeypatch, k):
        monkeypatch.setattr(cp, "_BLOCK_CELLS", self.STEP * k)

    @pytest.mark.parametrize("k", [1, 6, 50])
    def test_allocation_matches_linear_oracle(self, rng, monkeypatch, tensor, k):
        self.small_blocks(monkeypatch, k)
        assert len(tensor._block_rows(self.STEP)) == 4
        mats = random_factors(tensor.shape, k, rng).factors
        logs = [np.log(m) for m in mats]
        for mode in range(4):
            got, want = np.zeros((tensor.shape[mode], k)), np.zeros((tensor.shape[mode], k))
            assert allocate(logs, tensor, mode, got) is None
            assert linear_allocate(mats, tensor.coords, tensor.values, mode, want) is None
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    def test_no_mass_in_last_block_leaves_out_untouched(self, rng, monkeypatch, tensor):
        self.small_blocks(monkeypatch, 6)
        mats = [m.copy() for m in random_factors(tensor.shape, 6, rng).factors]
        mats[0][5] = 0.0
        with np.errstate(divide="ignore"):
            logs = [np.log(m) for m in mats]
        for mode in range(4):
            out = rng.uniform(size=(tensor.shape[mode], 6))
            before = out.copy()
            assert allocate(logs, tensor, mode, out) == (5, 0, 0, 0)
            assert np.array_equal(out, before)

    def test_elbo_agrees_across_block_sizes(self, monkeypatch, tensor):
        hyper = Hyperparameters.default(4, alpha=0.1)
        state = init_state(tensor.shape, FitConfig(k=6, seed=3), hyper)
        whole = compute_elbo(state, tensor, hyper)
        self.small_blocks(monkeypatch, 6)
        assert compute_elbo(state, tensor, hyper) == pytest.approx(whole, rel=1e-12, abs=0)

    def test_ls_sweep_agrees_across_block_sizes(self, rng, monkeypatch, tensor):
        f = random_factors(tensor.shape, 6, rng)
        whole = [ntf_step(_ls_step, f, tensor, mode).factors[mode] for mode in range(4)]
        self.small_blocks(monkeypatch, 6)
        for mode in range(4):
            got = ntf_step(_ls_step, f, tensor, mode).factors[mode]
            np.testing.assert_allclose(got, whole[mode], rtol=1e-12, atol=0)

    def test_sparse_gather_equals_ascending_mode_sum(self, rng, tensor):
        # wide exponents make the sum's rounding depend on its order
        logs = [rng.normal(scale=300.0, size=(s, 6)) for s in tensor.shape]
        logs[1][2, :3] = -np.inf
        logs[3][rng.integers(6, size=4), rng.integers(6, size=4)] = -np.inf
        table = np.concatenate(logs)
        blocks = tensor._block_rows(self.STEP)
        assert [rows.stop - rows.start for rows in blocks] == [20, 20, 20, 1]
        sums = []
        for rows, gather in zip(blocks, tensor._block_gather(self.STEP)):
            c = tensor.coords[rows]
            want = logs[0][c[:, 0]] + logs[1][c[:, 1]] + logs[2][c[:, 2]] + logs[3][c[:, 3]]
            assert np.array_equal(gather @ table, want)
            sums.append(want)
        assert np.isneginf(np.concatenate(sums)).any()

    def test_log_mass_is_the_log_sum_exp(self, rng, monkeypatch, tensor):
        # each column is some entry's top weight, thousands above the rest:
        # a shift by anything but each entry's exact maximum overflows exp
        logs = [rng.normal(scale=300.0, size=(s, 6)) for s in tensor.shape]
        logs[3][np.arange(6), np.arange(6)] += 5000.0
        self.small_blocks(monkeypatch, 6)
        log_mass, _ = cp._count_shares(logs, tensor)
        c = tensor.coords
        sums = logs[0][c[:, 0]] + logs[1][c[:, 1]] + logs[2][c[:, 2]] + logs[3][c[:, 3]]
        top_two = np.sort(sums, axis=1)[:, -2:]
        far_ahead = top_two[:, 1] - top_two[:, 0] > 710.0
        assert set(np.argmax(sums[far_ahead], axis=1)) == set(range(6))
        np.testing.assert_allclose(log_mass, logsumexp(sums, axis=1), rtol=1e-12, atol=0)


def fancy_products(mats, coords, skip=None):
    """``cp._entry_products`` with fancy-index row gathers."""
    modes = [m for m in range(len(mats)) if m != skip]
    parts = mats[modes[0]][coords[:, modes[0]]]
    for m in modes[1:]:
        parts *= mats[m][coords[:, m]]
    return parts


def same_bits(got, want):
    return got.shape == want.shape and got.dtype == want.dtype and got.tobytes() == want.tobytes()


class TestRowGathers:
    """Row gathers by ``np.take`` copy the rows that fancy indexing does."""

    @pytest.mark.parametrize("nnz", [0, 1, 157])
    def test_take_gathers_match_fancy_indexing(self, rng, nnz):
        shape = (5, 6, 3, 9)
        mats = random_factors(shape, 4, rng).factors
        t = random_tensor(shape, rng, nnz=nnz)
        assert t.nnz == nnz
        for skip in (None, 0, 1, 3):
            assert same_bits(cp._entry_products(mats, t.coords, skip), fancy_products(mats, t.coords, skip))
        logs = [np.log(m) for m in mats]
        shifted = [log - log.max(axis=1, keepdims=True) for log in logs]
        tops = [log.max(axis=1) for log in logs]
        frozen = cp._FrozenModes(t, mats[:3], logs[:3])
        assert same_bits(frozen.products, fancy_products(mats[:3], t.coords))
        assert same_bits(frozen.logs, sum((s[t.coords[:, m]] for m, s in enumerate(shifted[:3])),
                                          np.zeros((nnz, 4))))
        assert same_bits(frozen.shift, sum((top[t.coords[:, m]] for m, top in enumerate(tops[:3])),
                                           np.zeros(nnz)))
        want = np.empty(nnz)
        summed = []
        for rows in t._block_rows(7):
            last = t.coords[rows, 3]
            want[rows] = (frozen.products[rows] * mats[3][last]).sum(axis=1)
            summed.append((frozen.logs[rows] + shifted[3][last], frozen.shift[rows] + tops[3][last]))
        with mock.patch.object(cp, "_BLOCK_CELLS", 7 * 4):
            assert same_bits(frozen.recon(mats[3]), want)
        got = list(frozen.summed_logs(*cp._row_shifted(logs[3]), 7))
        assert len(got) == len(summed)
        assert all(same_bits(g, w) for pair, wanted in zip(got, summed)
                   for g, w in zip(pair, wanted))


class TestFactorFiles:
    def test_round_trip_preserves_all_digits(self, rng, tmp_path):
        f = random_factors((3, 4, 2, 5), 3, rng)
        labels = [[f"{m}_{i}" for i in range(s)] for m, s in enumerate((3, 4, 2, 5))]
        save_factors(f, tmp_path / "bundle", labels)
        back, back_labels = load_factors(tmp_path / "bundle")
        assert back_labels == labels
        for a, b in zip(f.factors, back.factors):
            assert np.array_equal(a, b)

    def test_bundle_bytes(self, tmp_path):
        mats = [np.array([[0.1, 2.0], [3.0, 0.0]]), np.array([[1.5, 0.25]]),
                np.array([[1e-300, 7.0], [0.5, 1.0], [2.0, 1 / 3]])]
        save_factors(FactorSet(mats), tmp_path / "factors", [["a", "b"], ["c"], ["d", "e", "f"]])
        gamma = [m + 1.0 for m in mats]
        save_state(VariationalState(gamma, [g * 2.0 for g in gamma]),
                   Hyperparameters(0.1, (1.0, 2.0, 0.5)), tmp_path / "state")
        factors, state = tmp_path / "factors", tmp_path / "state"
        assert sorted(p.name for p in factors.iterdir()) == [
            "factors_mode0.txt", "factors_mode1.txt", "factors_mode2.txt", "labels.txt",
            "manifest.txt"]
        assert (factors / "manifest.txt").read_text() == (
            "modes = 3\nk = 2\nshape = 2 1 3\n"
            "matrix_0 = factors_mode0.txt\nmatrix_1 = factors_mode1.txt\n"
            "matrix_2 = factors_mode2.txt\nlabels = labels.txt\n")
        assert (factors / "factors_mode2.txt").read_text() == (
            "1e-300 7\n0.5 1\n2 0.33333333333333331\n")
        assert (factors / "labels.txt").read_text() == (
            "0\t0\ta\n0\t1\tb\n1\t0\tc\n2\t0\td\n2\t1\te\n2\t2\tf\n")
        assert sorted(p.name for p in state.iterdir()) == [
            "delta_mode0.txt", "delta_mode1.txt", "delta_mode2.txt", "gamma_mode0.txt",
            "gamma_mode1.txt", "gamma_mode2.txt", "manifest.txt"]
        assert (state / "manifest.txt").read_text() == (
            "modes = 3\nk = 2\nshape = 2 1 3\nalpha = 0.10000000000000001\nbeta = 1 2 0.5\n"
            "gamma_0 = gamma_mode0.txt\ndelta_0 = delta_mode0.txt\n"
            "gamma_1 = gamma_mode1.txt\ndelta_1 = delta_mode1.txt\n"
            "gamma_2 = gamma_mode2.txt\ndelta_2 = delta_mode2.txt\n")

    def test_negative_factors_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            FactorSet([np.array([[-0.1]]), np.ones((1, 1))])
