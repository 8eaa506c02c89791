"""Actor-pair cell masks and the region arithmetic behind masked sums.

A mask names index sets on the two actor modes; it selects either their
block product or everything outside it, across all remaining modes.  The
``Region`` class realizes a mask against a concrete tensor shape and knows
how to take the sums that fitting and evaluation need in closed form, so
the (usually enormous) zero part of a region is never materialized.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

import numpy as np

from .errors import DataError, EmptyRegionError
from .tensors import SparseCountTensor


@dataclass(frozen=True)
class CellMask:
    """Index sets over the two actor modes plus a complement flag.

    With ``complement`` False the mask selects the block product
    rows x cols; with True it selects every actor pair outside that block.
    """

    rows: tuple
    cols: tuple
    complement: bool = False

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(sorted(set(int(r) for r in self.rows))))
        object.__setattr__(self, "cols", tuple(sorted(set(int(c) for c in self.cols))))


def top_block_mask(n_prime: int, complement: bool = False) -> CellMask:
    """Mask for the upper-left n' x n' actor block (tensor sorted by activity)."""
    idx = tuple(range(n_prime))
    return CellMask(rows=idx, cols=idx, complement=complement)


class Region:
    """A mask bound to a tensor shape: a set of cells with fast summations.

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
    def from_mask(cls, shape, mask: CellMask) -> "Region":
        return cls(shape, mask.rows, mask.cols, mask.complement)

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
        return SparseCountTensor(t.shape, t.coords[keep], t.values[keep], t.mode_labels)

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
        """Number of region cells whose CP reconstruction exceeds ``threshold``.

        The Khatri-Rao product of modes 2.. is built once; each mode-0 row
        then reconstructs its region columns against it with one matrix
        product, so no coordinate list is ever gathered.
        """
        k = mats[0].shape[1]
        tail = np.ones((1, k))
        for m in range(2, len(self.shape)):
            tail = (tail[:, None, :] * mats[m][None, :, :]).reshape(-1, k)
        if self.complement:
            block_row_cols = np.flatnonzero(~self._in_cols)
            other_row_cols = np.arange(self.shape[1])
        else:
            block_row_cols, other_row_cols = self.cols, self.cols[:0]
        count = 0
        for i in range(self.shape[0]):
            cols = block_row_cols if self._in_rows[i] else other_row_cols
            if cols.size:
                recon = (mats[0][i] * mats[1][cols]) @ tail.T
                count += int(np.count_nonzero(recon > threshold))
        return count


def _colsum(mat):
    return mat.sum(axis=0)


def _gram(mat):
    return mat.T @ mat


def _observed_part(trained_shape, test_slice: SparseCountTensor, mask: CellMask):
    """Observed entries and region of a test slice, for heldout time inference."""
    if test_slice.ndim != len(trained_shape) or test_slice.shape[:-1] != trained_shape[:-1]:
        raise ValueError("test slice shape disagrees with the trained model")
    region = Region.from_mask(test_slice.shape, mask)
    if region.n_cells == 0:
        raise EmptyRegionError("mask leaves no observed cells")
    return region.restrict(test_slice), region
