"""Actor-block cell regions and the closed-form sums taken over them.

A ``Region`` names index sets on the two actor modes of a tensor shape; it
selects either their block product or everything outside it, across all
remaining modes.  The heldout harness observes one region of each test
slice and scores the other, and the model code takes its sums over a
region in closed form, so the (usually enormous) zero part of a region is
never materialized.
"""

from __future__ import annotations

from math import prod

import numpy as np

from .errors import DataError, EmptyRegionError
from .tensors import SparseCountTensor


class Region:
    """A set of cells of one tensor shape, with fast summations.

    The cell set is {(i, j, ...) : (i, j) in P} where P is either the block
    rows x cols or its complement over the actor modes, crossed with the
    full range of every remaining mode.  ``Region.whole`` covers every cell;
    the model code uses it wherever no narrower region is given.
    """

    def __init__(self, shape, rows, cols, complement=False):
        self.shape = tuple(int(s) for s in shape)
        if len(self.shape) < 2:
            raise DataError(f"a tensor needs at least two modes, got shape {self.shape}")
        self.rows = np.asarray(sorted(set(int(r) for r in rows)), dtype=np.int64)
        self.cols = np.asarray(sorted(set(int(c) for c in cols)), dtype=np.int64)
        if self.rows.size and (self.rows[0] < 0 or self.rows[-1] >= self.shape[0]):
            raise ValueError("row index out of range")
        if self.cols.size and (self.cols[0] < 0 or self.cols[-1] >= self.shape[1]):
            raise ValueError("col index out of range")
        self.complement = bool(complement)
        self._in_rows = np.zeros(self.shape[0], dtype=bool)
        self._in_rows[self.rows] = True
        self._in_cols = np.zeros(self.shape[1], dtype=bool)
        self._in_cols[self.cols] = True

    @classmethod
    def whole(cls, shape) -> "Region":
        """Every cell of the tensor: the complement of the empty block."""
        return cls(shape, (), (), complement=True)

    def invert(self) -> "Region":
        return Region(self.shape, self.rows, self.cols, not self.complement)

    # -- counting and membership ------------------------------------------

    @property
    def n_pairs(self) -> int:
        block = self.rows.size * self.cols.size
        if self.complement:
            return self.shape[0] * self.shape[1] - block
        return block

    @property
    def n_cells(self) -> int:
        return self.n_pairs * prod(self.shape[2:])

    def contains(self, coords) -> np.ndarray:
        """Boolean membership for an (n, M) coordinate array."""
        coords = np.asarray(coords)
        if coords.size == 0:
            return np.zeros(0, dtype=bool)
        inside = self._in_rows[coords[:, 0]] & self._in_cols[coords[:, 1]]
        return ~inside if self.complement else inside

    def restrict(self, t: SparseCountTensor) -> SparseCountTensor:
        """The stored entries of ``t`` inside the region, as a tensor.

        Returns ``t`` itself, with its cached block plans, when no
        entry lies outside the region.
        """
        if self.n_pairs == self.shape[0] * self.shape[1]:
            return t
        keep = self.contains(t.coords)
        if keep.all():
            return t
        return t._subset(keep)

    def density(self, t: SparseCountTensor) -> float:
        """Fraction of the region's cells that are non-zero in ``t``."""
        if self.n_cells == 0:
            raise EmptyRegionError("region has no cells")
        return int(self.contains(t.coords).sum()) / self.n_cells

    # -- closed-form sums over the region ---------------------------------
    #
    # Every sum below multiplies per-mode factors in ascending mode order:
    # the actor-pair part of modes 0 and 1 first, then each remaining mode.
    # Floating-point products depend on that order, and this one makes the
    # whole tensor's sums the plain product of every mode's column sums
    # (or Grams) taken mode by mode, so fits do not depend on the grouping.

    def _pair_part(self, mats, reduce):
        """``reduce`` of the actor-pair product, summed over region pairs."""
        block = reduce(mats[0][self.rows]) * reduce(mats[1][self.cols])
        if not self.complement:
            return block
        return reduce(mats[0]) * reduce(mats[1]) - block

    def _times_tail(self, part, mats, reduce, skip=None):
        """``part`` times ``reduce`` of every mode from 2 on except ``skip``."""
        for m in range(2, len(self.shape)):
            if m != skip:
                part = part * reduce(mats[m])
        return part

    def _row_parts(self, mats, mode, reduce):
        """``reduce`` of the other modes' factor product over one row's cells.

        Returns (member, inside, outside): rows of ``mode`` flagged in
        ``member`` take ``inside``, every other row ``outside``.  Only the
        actor modes have two kinds of row.
        """
        if mode >= 2:
            part = self._times_tail(self._pair_part(mats, reduce), mats, reduce, mode)
            return np.zeros(self.shape[mode], dtype=bool), part, part
        other = mats[1 - mode]
        sub = reduce(other[self.cols if mode == 0 else self.rows])
        if self.complement:
            full = reduce(other)
            inside, outside = full - sub, full
        else:
            inside, outside = sub, np.zeros_like(sub)
        member = self._in_rows if mode == 0 else self._in_cols
        return (
            member,
            self._times_tail(inside, mats, reduce),
            self._times_tail(outside, mats, reduce),
        )

    def component_sums(self, mats) -> np.ndarray:
        """(K,) vector: sum over region cells of the rank-one term per component."""
        return self._times_tail(self._pair_part(mats, _colsum), mats, _colsum)

    def sum_recon(self, mats) -> float:
        """Sum of the CP reconstruction over every cell of the region."""
        return float(self.component_sums(mats).sum())

    def other_mode_sums(self, mats, mode: int) -> np.ndarray:
        """Row-wise sums of the product over the other modes' factors.

        Returns an (shape[mode], K) array whose (r, k) element is the sum,
        over region cells whose ``mode`` coordinate equals r, of the product
        of mats[m'][coord, k] over every mode m' != mode.  Rows outside the
        region get zero.
        """
        member, inside, outside = self._row_parts(mats, mode, _colsum)
        return np.where(member[:, None], inside, outside)

    def sum_sq_recon(self, mats) -> float:
        """Sum of the squared CP reconstruction over the region."""
        return float(self._times_tail(self._pair_part(mats, _gram), mats, _gram).sum())

    def gram_denominator(self, mats, mode: int) -> np.ndarray:
        """Row-wise sums of (other-mode factor product) * reconstruction.

        The Euclidean multiplicative update's denominator for ``mode``,
        restricted to the region; cost is independent of the number of
        zero cells.
        """
        member, inside, outside = self._row_parts(mats, mode, _gram)
        this = mats[mode]
        out = this @ outside
        out[member] = this[member] @ inside
        return out

    def count_recon_above(self, mats, threshold: float) -> int:
        """Number of region cells whose CP reconstruction exceeds ``threshold``,
        for non-negative factors.

        A cell's reconstruction sums, over components, its actor pair's
        product ``mats[0][i] * mats[1][j]`` times its row of the Khatri-Rao
        product of modes 2.. (the tail).  Every cell of pair (i, j) is at
        most the pair's bound, entry (i, j) of ``(mats[0] * top) @
        mats[1].T`` with ``top`` the product of every later mode's column
        maxima: one (n0 x K) @ (K x n1) matrix product.  An actor row none
        of whose region pairs has a bound above the threshold, after a
        rounding margin, is skipped; every other row reconstructs its
        region cells in one matrix product against the tail.  Cost:
        O(n0 * n1 * K) for the bounds plus the cells of the surviving rows,
        not O(cells * K).  The count is exact: no cell of a skipped row
        exceeds the threshold.
        """
        if self.n_cells == 0:
            return 0
        k = mats[0].shape[1]
        top = np.ones(k)  # multiplied in the tail's order
        for mat in mats[2:]:
            top = top * mat.max(axis=0)
        # Rounding is monotone, so each tail row is at most ``top`` term by
        # term in floating point too.  Rounding moves a result by at most a
        # relative u = eps / 2, or by 2**-1075 where it is subnormal.  A cell
        # (its products grouped as (a * b) * tail) and its pair bound
        # ((a * top) * b) take K + 1 roundings each, in any summation order,
        # so the cell is at most (1 + 2 (K + 1) u) times the bound plus
        # 2**-1075 (2 K + sum(top) + K max(mats[1])).  ``rel`` and ``floor``
        # allow four times that, which also covers the two roundings of
        # ``cut``.  The bound's bits, which BLAS may sum in an order that
        # moves with the thread count, thus decide only which rows are
        # reconstructed, never the count.
        rel = 1.0 + 4.0 * (k + 1) * np.finfo(np.float64).eps
        floor = 2.0 ** -1073 * (2 * k + float(top.sum()) + k * float(mats[1].max(initial=0.0)))
        cut = (threshold - floor) / rel
        rows = np.arange(self.shape[0]) if self.complement else self.rows
        first = mats[0] * top
        live = []
        step = max(1, _CHUNK_PAIRS // self.shape[1])
        for lo in range(0, rows.size, step):
            chunk = rows[lo:lo + step]
            in_region = (self._in_rows[chunk, None] & self._in_cols) != self.complement
            # not ``> cut``: a bound that overflows to NaN keeps its pair
            survive = ~(np.take(first, chunk, axis=0) @ mats[1].T <= cut) & in_region
            live.append(chunk[survive.any(axis=1)])
        live = np.concatenate(live)
        if not live.size:
            return 0
        tail = _khatri_rao_tail(mats)
        if self.complement:
            block_row_cols, other_row_cols = np.flatnonzero(~self._in_cols), np.arange(self.shape[1])
        else:
            block_row_cols, other_row_cols = self.cols, self.cols[:0]
        inside, outside = (np.take(mats[1], cols, axis=0) for cols in (block_row_cols, other_row_cols))
        count = 0
        for i in live.tolist():
            recon = (mats[0][i] * (inside if self._in_rows[i] else outside)) @ tail.T
            count += int(np.count_nonzero(recon > threshold))
        return count


# ``count_recon_above`` bounds a chunk of actor rows of at most about this
# many pairs at a time.
_CHUNK_PAIRS = 1 << 16


def _khatri_rao_tail(mats):
    """The Khatri-Rao product of modes 2.., the first one's index slowest,
    multiplied in mode order onto ones."""
    k = mats[0].shape[1]
    tail = np.ones((1, k))
    for mat in mats[2:]:
        tail = (tail[:, None, :] * mat[None, :, :]).reshape(-1, k)
    return tail


def _colsum(mat):
    return mat.sum(axis=0)


def _gram(mat):
    return mat.T @ mat


def _observed_part(trained_shape, test_slice: SparseCountTensor, observed: Region):
    """The stored entries of a test slice inside its ``observed`` region, for
    heldout time inference; ``observed`` must be bound to the slice's shape."""
    if test_slice.ndim != len(trained_shape) or test_slice.shape[:-1] != trained_shape[:-1]:
        raise ValueError("test slice shape disagrees with the trained model")
    if test_slice.ndim < 3:
        raise ValueError("heldout inference needs two actor modes and a time mode")
    if observed.shape != test_slice.shape:
        raise ValueError(f"observed region is bound to shape {observed.shape}, not {test_slice.shape}")
    if observed.n_cells == 0:
        raise EmptyRegionError("mask leaves no observed cells")
    return observed.restrict(test_slice)
