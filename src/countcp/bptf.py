"""Mean-field variational inference for Bayesian Poisson CP factorization.

Every latent factor gets an independent Gamma variational distribution with
shape ``gamma`` and rate ``delta``.  Coordinate ascent cycles through the
modes updating shapes from allocated counts and rates from the other modes'
arithmetic expectations; hyperparameter rate multipliers can be re-fit by
empirical Bayes between sweeps.  The shape update is ``cp._allocate``'s
count allocation, in log space over the log geometric expectations where the
KL update in ``ntf`` allocates over log factors, so it holds for any shape
``alpha`` > 0 however small.  The evidence lower bound uses the standard
auxiliary-count tightening, so the count term needs only the stored entries
and the reconstruction mass has a closed form.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
from scipy.special import digamma, gammaln

from .cp import (
    FactorSet,
    _allocate,
    _ascend,
    _count_shares,
    _mode_matrices,
    _reading_bundle,
    save_matrix,
    write_manifest,
)
from .errors import ConfigError, IngestionError, NumericalDegeneracyError, NumericalError
from .masking import CellMask, Region, _observed_part
from .tensors import SparseCountTensor


@dataclass(frozen=True)
class Hyperparameters:
    """Shared Gamma shape ``alpha`` plus per-mode rate multipliers ``beta``.

    Each factor's prior is Gamma(alpha, alpha * beta[m]), so the prior mean
    is 1 / beta[m] and small alpha (default 0.1) induces sparsity.
    """

    alpha: float
    beta: tuple

    def __post_init__(self):
        object.__setattr__(self, "beta", tuple(float(b) for b in self.beta))
        if not self.alpha > 0:
            raise ConfigError("alpha must be positive")
        if any(b <= 0 for b in self.beta):
            raise ConfigError("every beta must be positive")

    @classmethod
    def default(cls, n_modes: int, alpha: float = 0.1, beta: float = 1.0):
        return cls(alpha=alpha, beta=(beta,) * n_modes)

    def rate(self, mode: int) -> float:
        return self.alpha * self.beta[mode]


@dataclass(frozen=True)
class FitConfig:
    """Controls for a variational fit."""

    k: int
    max_iterations: int = 500
    relative_elbo_tolerance: float = 1e-5
    seed: int = 0
    learn_beta: bool = True

    def __post_init__(self):
        if self.k < 1:
            raise ConfigError("k must be a positive integer")
        if self.max_iterations < 1:
            raise ConfigError("max_iterations must be positive")
        if not self.relative_elbo_tolerance > 0:
            raise ConfigError("relative_elbo_tolerance must be positive")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")


class VariationalState:
    """Per-mode Gamma variational parameters with cached expectations.

    ``expect`` holds the arithmetic expectations gamma / delta and ``elog``
    the expected log factors digamma(gamma) - log(delta), the logs of the
    geometric expectations; at a small shape the geometric expectation
    itself underflows, its log does not.  Callers that pass caches
    explicitly are trusted (the warm-start path seeds both caches from a
    point estimate); ``refresh`` restores cache consistency for one mode
    after its parameters change.
    """

    __slots__ = ("gamma", "delta", "expect", "elog")

    def __init__(self, gamma, delta, expect=None, elog=None):
        gamma = [np.ascontiguousarray(g, dtype=np.float64) for g in gamma]
        delta = [np.ascontiguousarray(d, dtype=np.float64) for d in delta]
        if len(gamma) != len(delta):
            raise ValueError("need one gamma and one delta matrix per mode")
        for m, (g, d) in enumerate(zip(gamma, delta)):
            if g.shape != d.shape or g.ndim != 2:
                raise ValueError(f"mode {m}: gamma/delta shape mismatch")
            if not (np.all(np.isfinite(g)) and np.all(np.isfinite(d))):
                raise ValueError(f"mode {m}: non-finite variational parameters")
            if g.min() <= 0 or d.min() <= 0:
                raise ValueError(f"mode {m}: variational parameters must be positive")
        self.gamma = gamma
        self.delta = delta
        if expect is None or elog is None:
            self.expect = [None] * len(gamma)
            self.elog = [None] * len(gamma)
            for m in range(len(gamma)):
                self.refresh(m)
        else:
            self.expect = [np.ascontiguousarray(e, dtype=np.float64) for e in expect]
            self.elog = [np.ascontiguousarray(e, dtype=np.float64) for e in elog]

    @property
    def n_modes(self) -> int:
        return len(self.gamma)

    @property
    def k(self) -> int:
        return self.gamma[0].shape[1]

    @property
    def shape(self) -> tuple:
        return tuple(g.shape[0] for g in self.gamma)

    def refresh(self, mode: int) -> None:
        g, d = self.gamma[mode], self.delta[mode]
        self.expect[mode] = g / d
        self.elog[mode] = digamma(g) - np.log(d)

    def copy(self) -> "VariationalState":
        return VariationalState(
            [g.copy() for g in self.gamma],
            [d.copy() for d in self.delta],
            [e.copy() for e in self.expect],
            [e.copy() for e in self.elog],
        )


def init_state(shape, config: FitConfig, hyper: Hyperparameters, jitter: float = 1.0):
    """Fresh state: gamma = alpha plus uniform jitter in (0, jitter * alpha).

    The jitter breaks component symmetry (a symmetric start never separates
    components); delta starts at the prior rate alpha * beta[m].  With
    ``jitter=0`` the state sits exactly at the prior, where the arithmetic
    expectation is the prior mean 1 / beta[m].  Deterministic per seed.
    """
    rng = np.random.default_rng(config.seed)
    gamma, delta = [], []
    for m, size in enumerate(shape):
        gamma.append(
            hyper.alpha + rng.uniform(0.0, hyper.alpha * jitter, size=(size, config.k))
        )
        delta.append(np.full((size, config.k), hyper.rate(m)))
    return VariationalState(gamma, delta)


def update_gamma(
    state: VariationalState, t: SparseCountTensor, mode: int, hyper: Hyperparameters
):
    """Shape update for one mode: alpha plus this mode's allocated counts.

    Each stored entry splits its count across components proportionally to
    the geometric-expectation products, taken in log space; zero cells
    allocate nothing, so the sweep touches only stored entries.  Refreshes
    the mode's caches.
    """
    new = np.full(state.gamma[mode].shape, hyper.alpha)
    bad = _allocate(state.elog, t, mode, new)
    if bad is not None:
        raise NumericalDegeneracyError(
            f"all-component geometric mass vanished at entry {bad}"
        )
    state.gamma[mode] = new
    state.refresh(mode)
    return state


def update_delta(
    state: VariationalState,
    t: SparseCountTensor,
    mode: int,
    hyper: Hyperparameters,
    region: Region | None = None,
):
    """Rate update for one mode: prior rate plus the other modes' mass.

    The mass of a row is the sum, over the region's cells in that row
    (default: the whole tensor), of the other modes' arithmetic
    expectations; the region takes it in closed form from column sums.
    Refreshes the mode's caches.
    """
    region = region or Region.whole(state.shape)
    new = hyper.rate(mode) + region.other_mode_sums(state.expect, mode)
    if not np.all(np.isfinite(new)):
        raise NumericalDegeneracyError(f"rate update overflowed in mode {mode}")
    state.delta[mode] = new
    state.refresh(mode)
    return state


def update_beta(
    state: VariationalState, mode: int, hyper: Hyperparameters
) -> Hyperparameters:
    """Empirical-Bayes update of one rate multiplier.

    Sets beta[m] to the inverse mean of the mode's arithmetic expectations,
    the exact ELBO maximizer in beta[m].
    """
    total = float(state.expect[mode].sum())
    if total <= 0.0:
        raise NumericalDegeneracyError(f"expectation sum vanished in mode {mode}")
    value = state.expect[mode].size / total
    beta = list(hyper.beta)
    beta[mode] = value
    return Hyperparameters(alpha=hyper.alpha, beta=tuple(beta))


def _gamma_prior_terms(state: VariationalState, hyper: Hyperparameters, mode: int):
    """Expected log prior plus entropy, summed over one mode's factors."""
    g, d = state.gamma[mode], state.delta[mode]
    rate = hyper.rate(mode)
    alpha = hyper.alpha
    elog = digamma(g) - np.log(d)
    cross = (
        alpha * np.log(rate)
        - gammaln(alpha)
        + (alpha - 1.0) * elog
        - rate * (g / d)
    )
    entropy = g - np.log(d) + gammaln(g) + (1.0 - g) * digamma(g)
    return float(cross.sum()), float(entropy.sum())


def compute_elbo(
    state: VariationalState,
    t: SparseCountTensor,
    hyper: Hyperparameters,
    region: Region | None = None,
) -> float:
    """Evidence lower bound of the current state.

    Uses the auxiliary-count tightening: the count term is the stored
    entries' counts times the log of their summed geometric-expectation
    products (a log-sum-exp of the summed expected log factors), the
    reconstruction mass is the closed-form sum of arithmetic expectation
    products, and each factor adds its Gamma prior cross-entropy and
    entropy.  Raises if any named term goes non-finite.
    """
    log_mass, _ = _count_shares(state.elog, t)
    if not np.all(np.isfinite(log_mass)):
        raise NumericalError("ELBO count term is non-finite (zero geometric mass)")
    y = t.values.astype(np.float64)
    count_term = float((y * log_mass).sum() - gammaln(y + 1.0).sum())
    mass = (region or Region.whole(state.shape)).sum_recon(state.expect)
    prior = 0.0
    for m in range(state.n_modes):
        cross, entropy = _gamma_prior_terms(state, hyper, m)
        for name, value in (("prior cross-entropy", cross), ("entropy", entropy)):
            if not np.isfinite(value):
                raise NumericalError(f"ELBO {name} term is non-finite in mode {m}")
        prior += cross + entropy
    elbo = count_term - mass + prior
    if not np.isfinite(elbo):
        raise NumericalError("ELBO reconstruction-mass term is non-finite")
    return elbo


def fit(t: SparseCountTensor, config: FitConfig, hyper: Hyperparameters | None = None):
    """Coordinate-ascent variational fit from ``init_state``.

    Each sweep updates, for every mode in ascending order, the shape then
    the rate parameters; with ``learn_beta`` the rate multipliers
    are then re-fit.  Stops when the relative ELBO change drops below the
    tolerance or after ``max_iterations`` sweeps; non-convergence is
    reported in the trace, not raised.  Returns (state, hyper, trace).
    """
    if hyper is None:
        hyper = Hyperparameters.default(t.ndim)
    state = init_state(t.shape, config, hyper)
    region = Region.whole(t.shape)
    betas = []

    def sweep():
        nonlocal hyper
        for mode in range(t.ndim):
            update_gamma(state, t, mode, hyper)
            update_delta(state, t, mode, hyper, region=region)
        if config.learn_beta:
            for mode in range(t.ndim):
                hyper = update_beta(state, mode, hyper)
        betas.append(hyper.beta)
        return compute_elbo(state, t, hyper, region=region)

    trace = _ascend(sweep, config.max_iterations, config.relative_elbo_tolerance)
    trace.betas = betas
    return state, hyper, trace


def point_estimate(state: VariationalState, kind: str) -> FactorSet:
    """Factor point estimates from the variational distribution.

    ``kind`` selects the arithmetic expectations gamma/delta or the
    geometric expectations exp(digamma(gamma))/delta; the geometric ones
    are never larger and are the recommended choice for prediction.  At a
    small shape a geometric expectation can underflow to exactly 0.
    """
    if kind == "arithmetic":
        return FactorSet([e.copy() for e in state.expect])
    if kind == "geometric":
        return FactorSet([np.exp(e) for e in state.elog])
    raise ValueError(f"kind must be 'arithmetic' or 'geometric', got {kind!r}")


def infer_heldout_time_factors(
    trained: VariationalState,
    hyper: Hyperparameters,
    test_slice: SparseCountTensor,
    mask: CellMask,
    config: FitConfig,
):
    """Infer time-mode variational parameters for unseen slices.

    All non-time modes stay frozen at the trained parameters (bit for bit);
    only the observed region of the test slices feeds the time-mode shape
    and rate sums.  Returns the fitted state (its last-mode gamma/delta are
    the per-test-step parameters) and the trace of its ELBO on that region.
    """
    observed, region = _observed_part(trained.shape, test_slice, mask)
    time_mode = trained.n_modes - 1
    state = init_state(test_slice.shape, replace(config, k=trained.k), hyper)
    for m in range(time_mode):
        state.gamma[m] = trained.gamma[m].copy()
        state.delta[m] = trained.delta[m].copy()
        state.expect[m] = trained.expect[m].copy()
        state.elog[m] = trained.elog[m].copy()

    def sweep():
        update_gamma(state, observed, time_mode, hyper)
        update_delta(state, observed, time_mode, hyper, region=region)
        return compute_elbo(state, observed, hyper, region=region)

    trace = _ascend(sweep, config.max_iterations, config.relative_elbo_tolerance)
    return state, trace


# ---------------------------------------------------------------------------
# State files
# ---------------------------------------------------------------------------


def save_state(state: VariationalState, hyper: Hyperparameters, directory) -> Path:
    """Write a state bundle: manifest, per-mode gamma and delta matrices."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    pairs = [
        ("modes", state.n_modes),
        ("k", state.k),
        ("shape", " ".join(str(s) for s in state.shape)),
        ("alpha", f"{hyper.alpha:.17g}"),
        ("beta", " ".join(f"{b:.17g}" for b in hyper.beta)),
    ]
    for m in range(state.n_modes):
        gname, dname = f"gamma_mode{m}.txt", f"delta_mode{m}.txt"
        save_matrix(state.gamma[m], directory / gname)
        save_matrix(state.delta[m], directory / dname)
        pairs.append((f"gamma_{m}", gname))
        pairs.append((f"delta_{m}", dname))
    write_manifest(directory / "manifest.txt", pairs)
    return directory


def load_state(directory):
    """Read a state bundle; caches are recomputed from gamma and delta."""
    directory = Path(directory)
    with _reading_bundle(directory) as manifest:
        state = VariationalState(
            _mode_matrices(directory, manifest, "gamma"),
            _mode_matrices(directory, manifest, "delta"),
        )
        hyper = Hyperparameters(
            alpha=float(manifest["alpha"]),
            beta=tuple(float(b) for b in manifest["beta"].split()),
        )
    if len(hyper.beta) != state.n_modes:
        raise IngestionError(f"{directory}: manifest needs one beta per mode")
    return state, hyper
