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
One driver runs the sweeps: over every mode for a fit, over the time mode
alone, with the other modes frozen, for heldout inference, whose frozen
per-entry prefix costs O(nnz_obs * K) once per call.  The KL cost reads
each entry's log reconstruction from the kernel pass that also allocates
the next sweep's first mode.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cp import (
    FactorSet,
    _allocate,
    _ascend,
    _block_step,
    _count_shares,
    _entry_products,
    _FrozenModes,
    _kl_from_log_mass,
    _logs,
    _scatter,
    reconstruct_entries,
    total_recon_mass,
)
from .errors import (
    ConfigError,
    DegenerateUpdateError,
    EmptyTensorError,
    InadmissibleZeroError,
    NumericalDegeneracyError,
)
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
        if not 0 <= self.epsilon_floor < np.inf:
            raise ConfigError("epsilon_floor must be non-negative and finite")


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


def _kl_step(f, part, mode, region, epsilon_floor, frozen=None, allocated=None):
    """One generalized-KL multiplicative update of one mode's factors over
    ``part``, whose stored entries all lie inside ``region``.

    The new factors are the stored counts allocated to this mode's rows, in
    proportion to each entry's factor products (the old factors times the
    other modes' product times y/yhat, that is ``cp._allocate`` of the
    counts), divided by the other modes' product summed over the region's
    cells (column-sum products), then floored at ``epsilon_floor``.  The
    counts ``allocated`` to ``mode`` by an earlier kernel pass over the same
    factors are used when given; ``frozen`` is passed on to
    ``cp._count_shares``.  A zero reconstruction under a stored count is an
    inadmissible zero and raises.
    """
    if allocated is None:
        allocated = np.zeros((part.shape[mode], f.k))
        dead = _allocate(_logs(f.factors), part, mode, allocated, frozen)
        if dead is not None:
            raise InadmissibleZeroError(f"zero reconstruction under count at entry {dead}")
    ratio = _ratio(allocated, region.other_mode_sums(f.factors, mode))
    return f.replace_mode(mode, np.maximum(ratio, epsilon_floor))


def _ls_step(f, part, mode, region, epsilon_floor, frozen=None):
    """One Euclidean multiplicative update of one mode's factors over
    ``part``, whose stored entries all lie inside ``region``.

    Numerator: other-mode factor products times y over stored entries; with
    ``frozen`` (a ``cp._FrozenModes``, ``mode`` the last) it reads their
    entry products.  Denominator: the same products times the
    reconstruction over the region's cells, by the Gram-product identity.
    Overflow on the way raises ``NumericalDegeneracyError`` once the new
    factors are not finite, so numpy's warnings about it are silenced.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        numer = _ls_numerator(part, f.factors, mode, frozen)
        denom = region.gram_denominator(f.factors, mode)
        if np.any((denom == 0.0) & (numer > 0.0)):
            raise DegenerateUpdateError(f"zero Euclidean denominator in mode {mode}")
        new = np.maximum(f.factors[mode] * _ratio(numer, denom), epsilon_floor)
    if not np.all(np.isfinite(new)):
        raise NumericalDegeneracyError(f"Euclidean update overflowed in mode {mode}")
    return f.replace_mode(mode, new)


def _ls_numerator(part, mats, mode, frozen=None):
    """Each stored count times the other modes' factor product, summed per
    ``mode`` index; each count scales its product inside the scatter."""
    k = mats[0].shape[1]
    step = _block_step(k)
    numer = np.zeros((part.shape[mode], k))
    values = part.values.astype(np.float64)
    for rows, incidence in zip(part._block_rows(step), part._block_incidence(step, mode)):
        if frozen is None:
            other = _entry_products(mats, part.coords[rows], skip=mode)
        else:
            other = frozen.products[rows]
        numer += _scatter(incidence, values[rows], other)
    return numer


def _ls_objective(t, f, region, frozen=None):
    """The squared error; with ``frozen`` (a ``cp._FrozenModes`` of ``t``,
    whose entries all lie in ``region``) each entry's reconstruction is its
    frozen product times its last-mode row, the same bits.  Factors large
    enough to overflow it make the cost non-finite, a value the trace
    records, so numpy's warnings about it are silenced."""
    with np.errstate(over="ignore", invalid="ignore"):
        if frozen is None:
            return squared_error(t, f, region)
        y = t.values.astype(np.float64)
        recon = frozen.recon(f.factors[-1])
        return _squared_error_from_recon(y, recon, region.sum_sq_recon(f.factors))


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
    A tensor with no stored entries raises EmptyTensorError.
    """
    if t.nnz == 0:
        raise EmptyTensorError(f"cannot fit a tensor with no stored entries (shape {t.shape})")
    return _descend(init_factors(t, config), t, Region.whole(t.shape), config, range(t.ndim))


def _descend(f, t, region, config, modes, frozen=None):
    """Multiplicative updates of ``modes`` (ascending) of ``f`` over the
    stored entries of ``t``, all inside ``region``, then the cost, sweep
    after sweep (``cp._ascend``).  ``frozen``, a ``cp._FrozenModes`` of
    ``t`` over every mode but the last, serves the updates and the cost;
    ``modes`` must then be the last mode alone.  Returns (FactorSet, Trace).

    The KL cost takes each entry's log reconstruction from a kernel pass
    (``cp.generalized_kl``'s bits) that also allocates the next sweep's
    first-mode counts: one kernel pass per mode a sweep, after the first
    sweep's extra one.  A zero reconstruction makes the cost +inf and
    leaves the next update to name the entry.
    """
    y = t.values.astype(np.float64)
    allocated = None

    def sweep():
        nonlocal f, allocated
        for mode in modes:
            if config.cost == "kl":
                f = _kl_step(f, t, mode, region, config.epsilon_floor, frozen, allocated)
                allocated = None
            else:
                f = _ls_step(f, t, mode, region, config.epsilon_floor, frozen)
        if config.cost == "ls":
            return _ls_objective(t, f, region, frozen)
        log_mass, allocated = _count_shares(_logs(f.factors), t, modes[0], frozen)
        if not np.all(np.isfinite(log_mass)):
            allocated = None
        return _kl_from_log_mass(y, log_mass, region.sum_recon(f.factors))

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

    A sweep is ``fit_ntf``'s own sweep over the time mode alone.  Each
    observed entry's frozen prefix is taken once per call
    (``cp._FrozenModes``): for KL its row-shifted frozen log sum and shift,
    nnz_obs * (K + 1) * 8 bytes; for LS its frozen factor product,
    nnz_obs * K * 8 bytes.  A sweep then costs O(nnz_obs * K) for the time
    mode alone.
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
    mats = f.factors[:time_mode]
    if config.cost == "kl":
        frozen = _FrozenModes(observed, logs=_logs(mats))
    else:
        frozen = _FrozenModes(observed, mats)
    return _descend(f, observed, region, config, [time_mode], frozen)
