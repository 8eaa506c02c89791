"""Synthetic count tensors drawn from the Gamma-Poisson generative model.

Factors are sampled from per-mode Gamma priors (shape alpha, rate
alpha * beta[m]) and each cell's count from a Poisson at its CP
reconstruction.  Small alpha produces sparse tensors with highly
dispersed non-zero counts, mimicking real dyadic event data.
"""

from __future__ import annotations

from math import prod

import numpy as np

from .bptf import Hyperparameters
from .cp import FactorSet
from .errors import ConfigError
from .tensors import SparseCountTensor, default_labels

# cells of the dense reconstruction materialized at a time (at least one mode-0 row)
_CHUNK_CELLS = 2**16


def sample_factors(shape, k: int, hyper: Hyperparameters, rng) -> FactorSet:
    """Draw one factor matrix per mode from its Gamma prior."""
    mats = []
    for m, size in enumerate(shape):
        mats.append(rng.gamma(hyper.alpha, 1.0 / hyper.rate(m), size=(size, k)))
    return FactorSet(mats)


def sample_count_tensor(shape, k: int, hyper: Hyperparameters, seed: int):
    """Sample (tensor, true factors) from the generative model.

    Costs O(cells * K) time.  The dense reconstruction is materialized
    about ``_CHUNK_CELLS`` cells (whole mode-0 rows, at least one) at a
    time, so memory is one such chunk plus the output.  Only non-zero cells
    are stored.  Deterministic per seed: the chunk size and layout change no
    draw.
    """
    shape = tuple(int(s) for s in shape)
    if not shape or min(shape) < 1:
        raise ConfigError(f"shape needs one or more mode sizes of at least 1, got {shape}")
    if prod(shape) >= 2**63:
        raise ConfigError(f"shape {shape}: mode sizes multiply to 2**63 or more")
    if k < 1:
        raise ConfigError("k must be a positive integer")
    if seed < 0:
        raise ConfigError("seed must be non-negative")
    try:
        return _sample(shape, k, hyper, seed)
    except MemoryError as exc:  # a shape under 2**63 cells may still not fit
        raise ConfigError(f"shape {shape}: too large to hold in memory") from exc


def _sample(shape, k: int, hyper: Hyperparameters, seed: int):
    rng = np.random.default_rng(seed)
    factors = sample_factors(shape, k, hyper, rng)

    coords_parts, values_parts = [], []
    mats = factors.factors
    rows = max(1, _CHUNK_CELLS // prod(shape[1:]))
    for lo in range(0, shape[0], rows):
        hi = min(lo + rows, shape[0])
        # modes reversed (the chunk's rows innermost), so each product and add
        # runs over one contiguous run; a cell's f3*(f2*(f1*f0)) has the bits
        # of ((f0*f1)*f2)*f3, as IEEE multiplication commutes
        block = np.zeros(shape[:0:-1] + (hi - lo,))
        for comp in range(k):
            term = mats[0][lo:hi, comp]
            for mat in mats[1:]:
                term = np.multiply.outer(mat[:, comp], term)
            block += term
        counts = rng.poisson(block.transpose())  # one draw a cell, in the tensor's C order
        nz = np.nonzero(counts)
        if nz[0].size:
            cc = np.stack(nz, axis=1)
            cc[:, 0] += lo
            coords_parts.append(cc)
            values_parts.append(counts[nz])
    if coords_parts:
        coords = np.vstack(coords_parts)
        values = np.concatenate(values_parts)
    else:
        coords = np.zeros((0, len(shape)), dtype=np.int64)
        values = np.zeros(0, dtype=np.int64)
    tensor = SparseCountTensor(shape, coords, values, default_labels(shape))
    return tensor, factors
