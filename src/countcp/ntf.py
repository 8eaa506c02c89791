"""Non-negative CP baselines via multiplicative updates.

Two costs are supported: generalized KL divergence (the maximum-likelihood
Poisson fit) and squared Euclidean distance.  Both updates take a ratio
whose numerator touches only stored entries; the denominators are a
``masking.Region``'s column-sum or Gram products, so the zero cells never
cost anything.  The KL numerator times the factors is ``cp._allocate``'s
count allocation over the log factors, which the shape update in ``bptf``
makes over the expected log factors.  A call without a region means the
whole tensor (``Region.whole``).  Factors are floored at a small epsilon
after every sweep so that a zero that the multiplicative rule cannot escape
(an inadmissible zero) only occurs when the floor is explicitly set to 0.
Heldout inference does its frozen modes' work once per call, so a sweep
costs O(nnz_obs * K) for the time mode alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cp import (
    FactorSet,
    _allocate,
    _ascend,
    _block_step,
    _entry_products,
    _FrozenModes,
    _kl_from_recon,
    generalized_kl,
    reconstruct_entries,
    total_recon_mass,
)
from .errors import ConfigError, DegenerateUpdateError, InadmissibleZeroError
from .masking import Region, _observed_part
from .tensors import SparseCountTensor

COSTS = ("kl", "ls")


@dataclass(frozen=True)
class NtfConfig:
    """Controls for a multiplicative-update fit."""

    k: int
    max_iterations: int = 200
    relative_objective_tolerance: float = 1e-5
    seed: int = 0
    cost: str = "kl"
    epsilon_floor: float = 1e-12

    def __post_init__(self):
        if self.k < 1:
            raise ConfigError("k must be a positive integer")
        if self.max_iterations < 1:
            raise ConfigError("max_iterations must be positive")
        if not self.relative_objective_tolerance > 0:
            raise ConfigError("relative_objective_tolerance must be positive")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        if self.cost not in COSTS:
            raise ConfigError(f"cost must be one of {COSTS}, got {self.cost!r}")
        if self.epsilon_floor < 0:
            raise ConfigError("epsilon_floor must be non-negative")


def squared_error(
    t: SparseCountTensor, f: FactorSet, region: Region | None = None
) -> float:
    """Squared Euclidean cost over all cells (or a region), zeros included.

    Expands to sum(y^2) - 2*sum(y*yhat) + sum(yhat^2); the first two terms
    run over stored entries and the last is a Gram-product identity, so the
    cost is independent of the number of zero cells.
    """
    if f.shape != t.shape:
        raise ValueError(f"factor shape {f.shape} != tensor shape {t.shape}")
    region = region or Region.whole(t.shape)
    part = region.restrict(t)
    y = part.values.astype(np.float64)
    yhat = reconstruct_entries(f, part.coords)
    return _squared_error_from_recon(y, yhat, region.sum_sq_recon(f.factors))


def _squared_error_from_recon(y, yhat, sq_mass) -> float:
    """Squared error from the stored counts, their reconstructions and the
    region's summed squared reconstruction."""
    return float((y * y).sum() - 2.0 * (y * yhat).sum()) + sq_mass


def _ratio(numer, denom) -> np.ndarray:
    """numer / denom where the denominator is positive, else 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(denom > 0.0, numer / np.where(denom > 0.0, denom, 1.0), 0.0)


def ntf_kl_sweep(
    f: FactorSet,
    t: SparseCountTensor,
    mode: int,
    region: Region | None = None,
    epsilon_floor: float = 1e-12,
) -> FactorSet:
    """One generalized-KL multiplicative update of one mode's factors.

    The new factors are the stored counts allocated to this mode's rows, in
    proportion to each entry's factor products (the old factors times the
    other modes' product times y/yhat), divided by the other modes' product
    summed over every cell (column-sum products).  A zero reconstruction
    under a stored count is an inadmissible zero and raises.
    """
    region = region or Region.whole(t.shape)
    allocated = _kl_allocation(_logs(f.factors), region.restrict(t), mode)
    ratio = _ratio(allocated, region.other_mode_sums(f.factors, mode))
    return f.replace_mode(mode, np.maximum(ratio, epsilon_floor))


def _logs(mats):
    with np.errstate(divide="ignore"):  # a zero factor is a weight of exactly 0
        return [np.log(m) for m in mats]


def _kl_allocation(logs, t, mode, frozen=None):
    """The KL numerator times the factors: ``cp._allocate`` of the counts."""
    allocated = np.zeros((t.shape[mode], logs[-1].shape[1]))
    dead = _allocate(logs, t, mode, allocated, frozen)
    if dead is not None:
        raise InadmissibleZeroError(f"zero reconstruction under count at entry {dead}")
    return allocated


def ntf_ls_sweep(
    f: FactorSet,
    t: SparseCountTensor,
    mode: int,
    region: Region | None = None,
    epsilon_floor: float = 1e-12,
) -> FactorSet:
    """One Euclidean multiplicative update of one mode's factors.

    Numerator: other-mode factor products times y over stored entries.
    Denominator: the same products times the reconstruction, computed with
    the Gram-product identity.
    """
    region = region or Region.whole(t.shape)
    part = region.restrict(t)
    numer = _ls_numerator(
        part, mode, f.k, lambda rows: _entry_products(f.factors, part.coords[rows], skip=mode)
    )
    denom = region.gram_denominator(f.factors, mode)
    return f.replace_mode(mode, _ls_update(f.factors[mode], numer, denom, mode, epsilon_floor))


def _ls_numerator(part, mode, k, other):
    """Each stored count times ``other(rows)``, the other modes' factor
    products over a block of entries, summed per ``mode`` index."""
    step = _block_step(k)
    numer = np.zeros((part.shape[mode], k))
    for rows, incidence in zip(part._block_rows(step), part._block_incidence(step, mode)):
        numer += incidence @ (other(rows) * part.values[rows, None])
    return numer


def _ls_update(current, numer, denom, mode, epsilon_floor):
    if np.any((denom == 0.0) & (numer > 0.0)):
        raise DegenerateUpdateError(f"zero Euclidean denominator in mode {mode}")
    return np.maximum(current * _ratio(numer, denom), epsilon_floor)


def _objective(t, f, cost, region=None):
    return generalized_kl(t, f, region) if cost == "kl" else squared_error(t, f, region)


def init_factors(t: SparseCountTensor, config: NtfConfig) -> FactorSet:
    """Uniform factors rescaled so the initial reconstruction mass matches
    the total observed count."""
    rng = np.random.default_rng(config.seed)
    mats = [rng.uniform(0.0, 1.0, size=(s, config.k)) for s in t.shape]
    f = FactorSet(mats)
    mass = total_recon_mass(f)
    total = float(t.values.sum())
    if mass > 0.0 and total > 0.0:
        scale = (total / mass) ** (1.0 / t.ndim)
        f = FactorSet([m * scale for m in mats])
    return f


def fit_ntf(t: SparseCountTensor, config: NtfConfig):
    """Multiplicative-update fit; returns (FactorSet, Trace).

    Sweeps the modes in ascending order and stops when the relative change
    of the cost drops below the tolerance or max_iterations is reached.
    """
    update = ntf_kl_sweep if config.cost == "kl" else ntf_ls_sweep
    region = Region.whole(t.shape)
    f = init_factors(t, config)

    def sweep():
        nonlocal f
        for mode in range(t.ndim):
            f = update(f, t, mode, region, config.epsilon_floor)
        return _objective(t, f, config.cost, region)

    trace = _ascend(sweep, config.max_iterations, config.relative_objective_tolerance)
    return f, trace


def infer_heldout_time_factors_ntf(
    trained: FactorSet,
    test_slice: SparseCountTensor,
    region: Region,
    config: NtfConfig,
):
    """Point-estimate time factors for unseen slices from the observed region.

    All non-time modes stay frozen at the trained factors; only the time
    mode is updated, with both the numerator and denominator restricted to
    the observed ``region``, a ``Region`` bound to the slices' shape (else
    ValueError).  Returns (FactorSet, Trace) where the factor set's time
    matrix holds one row per test step.

    The frozen modes' work is done once per call: each observed entry's
    frozen factor product (``cp._FrozenModes``, nnz_obs * K * 8 bytes; KL
    adds its frozen log sum, as much again), the update's denominator part
    (column-sum or Gram products) and the objective's frozen mass; the
    Euclidean numerator does not change, so it is taken once too.  A sweep
    then costs O(nnz_obs * K) for the time mode alone.
    """
    observed = _observed_part(trained.shape, test_slice, region)
    time_mode = trained.ndim - 1
    rng = np.random.default_rng(config.seed)
    time0 = rng.uniform(0.0, 1.0, size=(test_slice.shape[time_mode], config.k))
    f = FactorSet(list(trained.factors[:time_mode]) + [time0])
    mass = region.sum_recon(f.factors)
    total = float(observed.values.sum())
    if mass > 0.0 and total > 0.0:
        f = f.replace_mode(time_mode, time0 * (total / mass))

    heldout = _heldout_kl if config.cost == "kl" else _heldout_ls
    update = heldout(f.factors, observed, region, config.epsilon_floor)

    def sweep():
        nonlocal f
        f, objective = update(f)
        return objective

    trace = _ascend(sweep, config.max_iterations, config.relative_objective_tolerance)
    return f, trace


def _heldout_kl(mats, observed, region, epsilon_floor):
    """``update(f) -> (f, objective)``: the KL update of the last mode and
    its objective, with the work of the other modes of ``mats`` taken once."""
    time_mode = len(mats) - 1
    frozen = _FrozenModes(observed, mats[:time_mode], _logs(mats[:time_mode]))
    denom = region.other_mode_sums(mats, time_mode)
    column_sums = region._frozen_part(mats)
    y = observed.values.astype(np.float64)

    def update(f):
        allocated = _kl_allocation(_logs(f.factors[time_mode:]), observed, time_mode, frozen)
        f = f.replace_mode(time_mode, np.maximum(_ratio(allocated, denom), epsilon_floor))
        time = f.factors[time_mode]
        mass = float((column_sums * time.sum(axis=0)).sum())
        return f, _kl_from_recon(y, frozen.recon(time), mass)

    return update


def _heldout_ls(mats, observed, region, epsilon_floor):
    """``update(f) -> (f, objective)``: the Euclidean update of the last
    mode and its objective, with the work of the other modes of ``mats``
    taken once; the numerator reads only those modes."""
    time_mode = len(mats) - 1
    frozen = _FrozenModes(observed, mats[:time_mode])
    numer = _ls_numerator(observed, time_mode, mats[0].shape[1],
                          lambda rows: frozen.products[rows])
    grams = region._frozen_part(mats, squared=True)
    y = observed.values.astype(np.float64)

    def update(f):
        time = f.factors[time_mode]
        time = _ls_update(time, numer, time @ grams, time_mode, epsilon_floor)
        f = f.replace_mode(time_mode, time)
        time = f.factors[time_mode]
        sq_mass = float((grams * (time.T @ time)).sum())
        return f, _squared_error_from_recon(y, frozen.recon(time), sq_mass)

    return update
