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

from .errors import EmptyRegionError
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
    full range of every remaining mode.
    """

    def __init__(self, shape, rows, cols, complement=False):
        self.shape = tuple(int(s) for s in shape)
        if len(self.shape) < 2:
            raise ValueError("a pair region needs at least two modes")
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

    def filter_entries(self, t: SparseCountTensor):
        """Stored entries of ``t`` that fall inside the region."""
        keep = self.contains(t.coords)
        return t.coords[keep], t.values[keep]

    def density(self, t: SparseCountTensor) -> float:
        """Fraction of the region's cells that are non-zero in ``t``."""
        if self.n_cells == 0:
            raise EmptyRegionError("region has no cells")
        return int(self.contains(t.coords).sum()) / self.n_cells

    # -- closed-form sums over the region ---------------------------------

    def _pair_component_sums(self, mats):
        """Per-component sums of mats[0][i,k]*mats[1][j,k] over region pairs."""
        rsum = mats[0][self.rows].sum(axis=0)
        csum = mats[1][self.cols].sum(axis=0)
        block = rsum * csum
        if not self.complement:
            return block
        return mats[0].sum(axis=0) * mats[1].sum(axis=0) - block

    def component_sums(self, mats) -> np.ndarray:
        """(K,) vector: sum over region cells of the rank-one term per component."""
        out = self._pair_component_sums(mats)
        for m in range(2, len(self.shape)):
            out = out * mats[m].sum(axis=0)
        return out

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
        k = mats[0].shape[1]
        tail = np.ones(k)
        for m in range(2, len(self.shape)):
            if m != mode:
                tail = tail * mats[m].sum(axis=0)
        if mode >= 2:
            row = self._pair_component_sums(mats) * tail
            return np.broadcast_to(row, (self.shape[mode], k)).copy()
        other = mats[1] if mode == 0 else mats[0]
        member = self._in_rows if mode == 0 else self._in_cols
        other_member = self.cols if mode == 0 else self.rows
        sub = other[other_member].sum(axis=0)
        full = other.sum(axis=0)
        out = np.zeros((self.shape[mode], k))
        if not self.complement:
            out[member] = sub * tail
        else:
            out[member] = (full - sub) * tail
            out[~member] = full * tail
        return out

    def _pair_gram(self, mats):
        """(K, K) Gram of the actor-pair part restricted to the region."""
        g_rows = mats[0][self.rows].T @ mats[0][self.rows]
        g_cols = mats[1][self.cols].T @ mats[1][self.cols]
        block = g_rows * g_cols
        if not self.complement:
            return block
        return (mats[0].T @ mats[0]) * (mats[1].T @ mats[1]) - block

    def sum_sq_recon(self, mats) -> float:
        """Sum of the squared CP reconstruction over the region."""
        gram = self._pair_gram(mats)
        for m in range(2, len(self.shape)):
            gram = gram * (mats[m].T @ mats[m])
        return float(gram.sum())

    def gram_denominator(self, mats, mode: int) -> np.ndarray:
        """Row-wise sums of (other-mode factor product) * reconstruction.

        The Euclidean multiplicative update's denominator for ``mode``,
        restricted to the region; cost is independent of the number of
        zero cells.
        """
        tail = np.ones((mats[0].shape[1],) * 2)
        for m in range(2, len(self.shape)):
            if m != mode:
                tail = tail * (mats[m].T @ mats[m])
        if mode >= 2:
            gram = self._pair_gram(mats) * tail
            return mats[mode] @ gram
        other = mats[1] if mode == 0 else mats[0]
        member = self._in_rows if mode == 0 else self._in_cols
        other_idx = self.cols if mode == 0 else self.rows
        g_sub = other[other_idx].T @ other[other_idx]
        g_full = other.T @ other
        this = mats[mode]
        out = np.zeros_like(this)
        if not self.complement:
            out[member] = this[member] @ (g_sub * tail)
        else:
            out[member] = this[member] @ ((g_full - g_sub) * tail)
            out[~member] = this[~member] @ (g_full * tail)
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


def apply_mask(slice_tensor: SparseCountTensor, mask: CellMask):
    """Partition a slice's cells into observed entries and a heldout region.

    Returns a tensor holding only the stored entries of the observed region
    (same shape and labels as the input) plus the heldout region object;
    heldout zero cells are described by the region, never materialized.
    """
    observed_region = Region.from_mask(slice_tensor.shape, mask)
    keep = observed_region.contains(slice_tensor.coords)
    observed = SparseCountTensor(
        slice_tensor.shape,
        slice_tensor.coords[keep],
        slice_tensor.values[keep],
        slice_tensor.mode_labels,
    )
    return observed, observed_region.invert()
