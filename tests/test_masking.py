"""Cell masks and region sums, checked against dense enumeration."""

import numpy as np
import pytest

from countcp import (
    CellMask,
    FactorSet,
    Region,
    reconstruct_entries,
    top_block_mask,
)
from conftest import iter_cell_blocks, random_factors, random_tensor


# a third ``complement`` input: the whole tensor, as the complement of nothing
WHOLE = pytest.param("whole", id="whole")


def make_region(shape, rows, cols, complement):
    if complement == "whole":
        return Region.whole(shape)
    return Region(shape, rows, cols, complement=complement)


def dense_region_mask(region):
    """Boolean array over the full shape marking the region's cells."""
    shape = region.shape
    grid = np.zeros(shape, dtype=bool)
    pair = np.zeros(shape[:2], dtype=bool)
    pair[np.ix_(region.rows, region.cols)] = True
    if region.complement:
        pair = ~pair
    grid[...] = pair.reshape(shape[:2] + (1,) * (len(shape) - 2))
    return grid


def partition(t, mask):
    """The stored entries of ``t`` that ``mask`` observes, and the heldout region."""
    observed = Region.from_mask(t.shape, mask)
    return observed.restrict(t), observed.invert()


class TestApplyMask:
    """A mask's observed entries (``Region.restrict``) and heldout region (``invert``)."""

    def test_full_mask_observes_everything(self, rng):
        t = random_tensor((4, 4, 2, 1), rng, nnz=10)
        observed, heldout = partition(t, CellMask(range(4), range(4)))
        assert observed == t
        assert heldout.n_cells == 0

    def test_block_heldout_pair_count(self, rng):
        t = random_tensor((4, 4, 3, 1), rng, nnz=10)
        _, heldout = partition(t, top_block_mask(2))
        assert heldout.n_pairs == 4 * 4 - 2 * 2
        assert heldout.n_cells == 12 * 3

    def test_complement_flag_swaps_the_partition(self, rng):
        t = random_tensor((4, 4, 3, 1), rng, nnz=12)
        obs_a, held_a = partition(t, top_block_mask(2, complement=False))
        obs_b, held_b = partition(t, top_block_mask(2, complement=True))
        assert held_a.n_cells + held_b.n_cells == 4 * 4 * 3
        assert obs_a.nnz + obs_b.nnz == t.nnz
        # the two observed sets partition the entries
        flat_a = {tuple(c) for c in obs_a.coords}
        flat_b = {tuple(c) for c in obs_b.coords}
        assert not flat_a & flat_b

    def test_partition_covers_all_cells_disjointly(self, rng):
        t = random_tensor((5, 5, 2, 2), rng, nnz=20)
        mask = CellMask(rows=(0, 2, 3), cols=(1, 2), complement=False)
        observed, heldout = partition(t, mask)
        obs_region = Region.from_mask(t.shape, mask)
        dense_obs = dense_region_mask(obs_region)
        dense_held = dense_region_mask(heldout)
        assert np.all(dense_obs ^ dense_held)
        inside = obs_region.contains(t.coords)
        assert observed.nnz == int(inside.sum())


class TestRegionSums:
    @pytest.mark.parametrize("complement", [False, True])
    def test_counts_and_sums_match_dense(self, rng, complement):
        shape = (5, 4, 3, 2)
        region = Region(shape, rows=[0, 1, 3], cols=[1, 2], complement=complement)
        mats = random_factors(shape, 3, rng).factors
        dense = np.zeros(shape)
        for k in range(3):
            term = np.multiply.outer(
                np.multiply.outer(mats[0][:, k], mats[1][:, k]),
                np.multiply.outer(mats[2][:, k], mats[3][:, k]),
            ).reshape(shape)
            dense += term
        grid = dense_region_mask(region)
        assert region.n_cells == int(grid.sum())
        assert region.sum_recon(mats) == pytest.approx(dense[grid].sum(), rel=1e-12)
        assert region.sum_sq_recon(mats) == pytest.approx(
            (dense[grid] ** 2).sum(), rel=1e-12
        )

    @pytest.mark.parametrize("complement", [False, True, WHOLE])
    @pytest.mark.parametrize("mode", [0, 1, 2, 3])
    def test_other_mode_sums_match_loop(self, rng, complement, mode):
        shape = (4, 3, 2, 3)
        region = make_region(shape, [1, 2], [0, 2], complement)
        mats = random_factors(shape, 2, rng).factors
        grid = dense_region_mask(region)
        expected = np.zeros((shape[mode], 2))
        for coord in np.argwhere(grid):
            prod = np.ones(2)
            for m in range(4):
                if m != mode:
                    prod *= mats[m][coord[m]]
            expected[coord[mode]] += prod
        got = region.other_mode_sums(mats, mode)
        assert np.allclose(got, expected, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("complement", [False, True, WHOLE])
    @pytest.mark.parametrize("mode", [0, 1, 2, 3])
    def test_gram_denominator_matches_loop(self, rng, complement, mode):
        shape = (4, 3, 2, 3)
        region = make_region(shape, [0, 3], [1], complement)
        mats = random_factors(shape, 2, rng).factors
        grid = dense_region_mask(region)
        dense = np.zeros(shape)
        for k in range(2):
            dense += np.multiply.outer(
                np.multiply.outer(mats[0][:, k], mats[1][:, k]),
                np.multiply.outer(mats[2][:, k], mats[3][:, k]),
            ).reshape(shape)
        expected = np.zeros((shape[mode], 2))
        for coord in np.argwhere(grid):
            prod = np.ones(2)
            for m in range(4):
                if m != mode:
                    prod *= mats[m][coord[m]]
            expected[coord[mode]] += prod * dense[tuple(coord)]
        got = region.gram_denominator(mats, mode)
        assert np.allclose(got, expected, rtol=1e-12, atol=1e-12)

    def test_full_region_matches_unmasked_formulas(self, rng):
        # the whole-tensor sums must equal the products of per-mode column
        # sums and Grams taken in ascending mode order, bit for bit: this is
        # what keeps unmasked BPTF fits and NTF factor updates byte-identical
        shape = (3, 3, 2, 4)
        mats = random_factors(shape, 3, rng).factors
        colsums = [m.sum(axis=0) for m in mats]
        grams = [m.T @ m for m in mats]
        t = random_tensor(shape, rng, nnz=10)
        for region in (Region.whole(shape), Region(shape, range(3), range(3))):
            assert region.n_cells == 3 * 3 * 2 * 4
            assert region.restrict(t) is t  # no mask, no copy
            mass, sq = np.ones(3), np.ones((3, 3))
            for m in range(4):
                mass, sq = mass * colsums[m], sq * grams[m]
            assert region.sum_recon(mats) == float(mass.sum())
            assert region.sum_sq_recon(mats) == float(sq.sum())
            for mode in range(4):
                other, gram = np.ones(3), np.ones((3, 3))
                for m in range(4):
                    if m != mode:
                        other, gram = other * colsums[m], gram * grams[m]
                got = region.other_mode_sums(mats, mode)
                assert np.array_equal(got, np.broadcast_to(other, got.shape))
                assert np.array_equal(region.gram_denominator(mats, mode), mats[mode] @ gram)

    def test_iter_cell_blocks_enumerates_exactly_once(self, rng):
        shape = (5, 4, 2, 3)
        region = Region(shape, rows=[0, 2, 4], cols=[1, 3], complement=True)
        grid = dense_region_mask(region)
        seen = np.zeros(shape, dtype=np.int64)
        for block in iter_cell_blocks(region, max_cells=7):
            seen[tuple(block.T)] += 1
        assert np.array_equal(seen.astype(bool), grid)
        assert seen.max(initial=0) <= 1

    def test_empty_region_yields_nothing(self):
        region = Region((3, 3, 2), rows=[], cols=[1], complement=False)
        assert region.n_cells == 0
        assert list(iter_cell_blocks(region)) == []


def enumerated_count_above(region, mats, threshold):
    """Cell-by-cell oracle for Region.count_recon_above."""
    f = FactorSet(mats)
    return sum(
        int((reconstruct_entries(f, block) > threshold).sum())
        for block in iter_cell_blocks(region, max_cells=50)
    )


class TestCountReconAbove:
    @pytest.mark.parametrize("shape", [(6, 5, 4), (5, 6, 3, 2), (4, 5, 2, 3, 2)])
    @pytest.mark.parametrize("complement", [False, True, WHOLE])
    def test_matches_cell_enumeration(self, shape, complement):
        rng = np.random.default_rng(len(shape) * 2 + (complement is True))
        for _ in range(5):
            rows = rng.choice(shape[0], size=rng.integers(0, shape[0] + 1), replace=False)
            cols = rng.choice(shape[1], size=rng.integers(0, shape[1] + 1), replace=False)
            region = make_region(shape, rows, cols, complement)
            mats = random_factors(shape, 3, rng, low=0.0, high=1.0).factors
            # thresholds across the reconstructions' range, for 3 to 5 modes
            for threshold in (0.1, 0.5, 1.0):
                assert region.count_recon_above(mats, threshold) == enumerated_count_above(
                    region, mats, threshold
                )

    def test_exact_ties_are_not_counted(self):
        # every reconstruction is exactly 0.5 or 0.75 in binary arithmetic
        shape = (3, 3, 2, 2)
        mats = [np.full((s, 1), 1.0) for s in shape]
        mats[0] = np.array([[0.5], [0.5], [0.75]])
        region = Region(shape, rows=[0, 2], cols=[1], complement=True)
        assert region.count_recon_above(mats, 0.5) == 2 * 4  # row 2's two pairs
        assert enumerated_count_above(region, mats, 0.5) == 2 * 4
