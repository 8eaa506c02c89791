"""Shared builders for randomized test instances."""

from math import prod

import numpy as np
import pytest

from countcp import FactorSet, SparseCountTensor, VariationalState


def random_tensor(shape, rng, nnz=None, max_count=9, labels=None):
    """A random sparse count tensor with distinct coordinates."""
    total = int(np.prod(shape))
    if nnz is None:
        nnz = max(1, total // 4)
    flat = rng.choice(total, size=min(nnz, total), replace=False)
    coords = np.stack(np.unravel_index(flat, shape), axis=1)
    values = rng.integers(1, max_count + 1, size=coords.shape[0])
    return SparseCountTensor(shape, coords, values, labels or _labels(shape))


def _labels(shape):
    return [[str(i) for i in range(s)] for s in shape]


def random_factors(shape, k, rng, low=0.1, high=2.0):
    return FactorSet([rng.uniform(low, high, size=(s, k)) for s in shape])


def state_from_point_estimate(factors):
    """A variational state whose two expectation caches both equal ``factors``.

    The caches deliberately coincide (arithmetic == geometric), which no
    exact Gamma satisfies; the next refresh restores consistency.  This is
    how a multiplicative-update solution warm-starts a Bayesian sweep.
    """
    gamma = [np.maximum(f, 1e-300) for f in factors.factors]
    delta = [np.ones_like(f) for f in factors.factors]
    caches = [f.copy() for f in factors.factors]
    with np.errstate(divide="ignore"):
        elog = [np.log(c) for c in caches]
    return VariationalState(gamma, delta, expect=caches, elog=elog)


def linear_allocate(mats, coords, values, mode, out):
    """The count allocation in linear space with an ``np.add.at`` scatter:
    the oracle for ``cp._allocate``, which takes the logs of ``mats``.

    Splits each count across components in proportion to the product of the
    factor rows its coordinate selects and adds it into ``out``; returns the
    coordinate of the first entry whose products sum to zero or a non-finite
    value, leaving ``out`` untouched, or None.
    """
    parts = np.ones((coords.shape[0], mats[0].shape[1]))
    for m, mat in enumerate(mats):
        parts *= mat[coords[:, m]]
    totals = parts.sum(axis=1)
    bad = ~np.isfinite(totals) | (totals <= 0.0)
    if bad.any():
        return tuple(int(c) for c in coords[np.argmax(bad)])
    np.add.at(out, coords[:, mode], parts * (values / totals)[:, None])
    return None


def iter_cell_blocks(region, max_cells=262144):
    """Yield (n, M) coordinate blocks covering a region's cells exactly once.

    The slow enumeration oracle for the closed-form region counts: streams
    the region in chunks of whole actor pairs of about ``max_cells`` cells.
    """
    if region.complement:
        grid = np.ones(region.shape[:2], dtype=bool)
        grid[np.ix_(region.rows, region.cols)] = False
        ii, jj = (a.astype(np.int64) for a in np.nonzero(grid))
    else:
        ii = np.repeat(region.rows, region.cols.size)
        jj = np.tile(region.cols, region.rows.size)
    tail_sizes = region.shape[2:]
    tail_cells = prod(tail_sizes)
    tail_grid = np.array(list(np.ndindex(*tail_sizes)), dtype=np.int64)
    tail_grid = tail_grid.reshape(tail_cells, len(tail_sizes))
    pairs_per_block = max(1, max_cells // tail_cells)
    for lo in range(0, ii.size, pairs_per_block):
        hi = min(lo + pairs_per_block, ii.size)
        block = np.empty(((hi - lo) * tail_cells, len(region.shape)), dtype=np.int64)
        block[:, 0] = np.repeat(ii[lo:hi], tail_cells)
        block[:, 1] = np.repeat(jj[lo:hi], tail_cells)
        block[:, 2:] = np.tile(tail_grid, (hi - lo, 1))
        yield block


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
