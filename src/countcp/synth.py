"""Synthetic count tensors drawn from the Gamma-Poisson generative model.

Factors are sampled from per-mode Gamma priors (shape alpha, rate
alpha * beta[m]) and each cell's count from a Poisson at its CP
reconstruction.  Small alpha produces sparse tensors with highly
dispersed non-zero counts, mimicking real dyadic event data.
"""

from __future__ import annotations

import numpy as np

from .bptf import Hyperparameters
from .cp import FactorSet
from .errors import ConfigError
from .tensors import SparseCountTensor, default_labels

# mode-0 rows of the dense reconstruction materialized at a time
_ROW_CHUNK = 64


def sample_factors(shape, k: int, hyper: Hyperparameters, rng) -> FactorSet:
    """Draw one factor matrix per mode from its Gamma prior."""
    mats = []
    for m, size in enumerate(shape):
        mats.append(rng.gamma(hyper.alpha, 1.0 / hyper.rate(m), size=(size, k)))
    return FactorSet(mats)


def sample_count_tensor(shape, k: int, hyper: Hyperparameters, seed: int):
    """Sample (tensor, true factors) from the generative model.

    The dense reconstruction is materialized ``_ROW_CHUNK`` mode-0 rows at a
    time, so memory stays bounded for moderately large shapes.  Only
    non-zero cells are stored.  Deterministic per seed.
    """
    shape = tuple(int(s) for s in shape)
    if not shape or min(shape) < 1:
        raise ConfigError(f"shape needs one or more mode sizes of at least 1, got {shape}")
    if k < 1:
        raise ConfigError("k must be a positive integer")
    if seed < 0:
        raise ConfigError("seed must be non-negative")
    rng = np.random.default_rng(seed)
    factors = sample_factors(shape, k, hyper, rng)

    coords_parts, values_parts = [], []
    tail_mats = factors.factors[1:]
    for lo in range(0, shape[0], _ROW_CHUNK):
        hi = min(lo + _ROW_CHUNK, shape[0])
        block = np.zeros((hi - lo,) + shape[1:])
        for comp in range(k):
            term = factors.factors[0][lo:hi, comp]
            for mat in tail_mats:
                term = np.multiply.outer(term, mat[:, comp])
            block += term
        counts = rng.poisson(block)
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
