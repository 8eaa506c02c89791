"""Mean-field variational inference for Bayesian Poisson CP factorization.

Every latent factor gets an independent Gamma variational distribution with
shape ``gamma`` and rate ``delta``.  Coordinate ascent cycles through the
modes updating shapes from allocated counts and rates from the other modes'
arithmetic expectations; hyperparameter rate multipliers can be re-fit by
empirical Bayes between sweeps.  The shape update is ``cp._count_shares``'
count allocation, in log space over the log geometric expectations where the
KL update in ``ntf`` allocates over log factors, so it holds for any shape
``alpha`` > 0 however small.  The evidence lower bound uses the standard
auxiliary-count tightening, so the count term needs only the stored entries
and the reconstruction mass has a closed form.  The kernel pass behind the
count term also allocates the next shape update's counts.  One driver runs
the sweeps: over every mode for a fit, over the time mode alone, with the
other modes frozen, for heldout inference.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
from scipy.special import digamma, gammaln

from .cp import (
    FactorSet, _ascend, _FrozenModes, _SweepConfig, _mode_matrices, _reading_bundle, _save_bundle,
)
from .errors import (
    ConfigError, EmptyTensorError, IngestionError, NumericalDegeneracyError, NumericalError,
)
from .masking import Region, _observed_part
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
        if not 0 < self.alpha < np.inf:
            raise ConfigError("alpha must be positive and finite")
        if not all(0 < b < np.inf for b in self.beta):
            raise ConfigError("every beta must be positive and finite")

    @classmethod
    def default(cls, n_modes: int, alpha: float = 0.1, beta: float = 1.0):
        return cls(alpha=alpha, beta=(beta,) * n_modes)

    def rate(self, mode: int) -> float:
        return self.alpha * self.beta[mode]


@dataclass(frozen=True)
class FitConfig(_SweepConfig):
    """Controls for a variational fit."""

    max_iterations: int = 500
    learn_beta: bool = True


class VariationalState:
    """Per-mode Gamma variational parameters with cached expectations.

    ``expect`` holds the arithmetic expectations gamma / delta and ``elog``
    the expected log factors digamma(gamma) - log(delta), the logs of the
    geometric expectations; at a small shape the geometric expectation
    itself underflows, its log does not.  Callers that pass caches
    explicitly are trusted (heldout inference passes the trained modes'
    caches, so its frozen modes share the trained arrays), and a mode whose
    two caches are not both given is refreshed; ``refresh`` restores cache
    consistency for one mode after its parameters change.  The updates and
    the ELBO's count and mass terms read the caches, not gamma and delta, so
    an ELBO is only that of gamma and delta when the caches are consistent.
    """

    __slots__ = ("gamma", "delta", "expect", "elog")

    def __init__(self, gamma, delta, expect=None, elog=None):
        gamma = [np.ascontiguousarray(g, dtype=np.float64) for g in gamma]
        delta = [np.ascontiguousarray(d, dtype=np.float64) for d in delta]
        if not gamma:
            raise ValueError("variational state needs at least one mode")
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
            expect = elog = [None] * len(gamma)
        self.expect = [None if e is None else np.ascontiguousarray(e, dtype=np.float64) for e in expect]
        self.elog = [None if e is None else np.ascontiguousarray(e, dtype=np.float64) for e in elog]
        for m in range(len(gamma)):
            if self.expect[m] is None or self.elog[m] is None:
                self.refresh(m)

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


def init_state(shape, config: FitConfig, hyper: Hyperparameters):
    """Fresh state: gamma = alpha plus uniform jitter in (0, alpha).

    The jitter breaks component symmetry (a symmetric start never separates
    components); delta starts at the prior rate alpha * beta[m].
    Deterministic per seed.
    """
    gamma = list(_initial_shapes(shape, config, hyper))
    delta = [np.full(g.shape, hyper.rate(m)) for m, g in enumerate(gamma)]
    return VariationalState(gamma, delta)


def _initial_shapes(shape, config, hyper):
    """``init_state``'s gamma matrices, drawn mode by mode in mode order."""
    rng = np.random.default_rng(config.seed)
    for size in shape:
        yield hyper.alpha + rng.uniform(0.0, hyper.alpha, size=(size, config.k))


def update_delta(
    state: VariationalState, mode: int, hyper: Hyperparameters, region: Region | None = None
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


def _gamma_prior_terms(state: VariationalState, hyper: Hyperparameters, mode: int) -> float:
    """Each factor's -KL(q || prior) summed over one mode's factors.

    For q = Gamma(gamma, delta) and the prior Gamma(alpha, rate) it is
    alpha (log rate - log delta) + (lnGamma(gamma) - lnGamma(alpha))
    + (alpha - gamma) psi(gamma) + gamma (1 - rate / delta), each term 0 at
    gamma = alpha and delta = rate.  Summed apart, the expected log prior
    and the entropy would each hold a term near -psi(gamma) ~ 1 / gamma,
    whose cancellation at a small shape loses every digit of the KL.
    """
    g, d = state.gamma[mode], state.delta[mode]
    alpha, rate = hyper.alpha, hyper.rate(mode)
    neg_kl = (
        alpha * (np.log(rate) - np.log(d))
        + (gammaln(g) - gammaln(alpha))
        + (alpha - g) * digamma(g)
        + g * (1.0 - rate / d)
    )
    return float(neg_kl.sum())


def _elbo(log_mass, y, log_y_factorials, mass, priors) -> float:
    """The ELBO from its terms: each stored entry's log geometric mass, the
    counts and the sum of their log factorials, the reconstruction mass, and
    each mode's prior KL term (``_gamma_prior_terms``).  Raises if any named
    term goes non-finite, checking them in that order."""
    if not np.all(np.isfinite(log_mass)):
        raise NumericalError("ELBO count term is non-finite (zero geometric mass)")
    count_term = float((y * log_mass).sum() - log_y_factorials)
    for m, prior in enumerate(priors):
        if not np.isfinite(prior):
            raise NumericalError(f"ELBO prior KL term is non-finite in mode {m}")
    elbo = count_term - mass + sum(priors)
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
    A tensor with no stored entries raises EmptyTensorError.
    """
    if t.nnz == 0:
        raise EmptyTensorError(f"cannot fit a tensor with no stored entries (shape {t.shape})")
    if hyper is None:
        hyper = Hyperparameters.default(t.ndim)
    state = init_state(t.shape, config, hyper)
    hyper, trace, betas = _ascend_modes(
        state, t, hyper, Region.whole(t.shape), config, range(t.ndim), learn_beta=config.learn_beta
    )
    trace.betas = betas
    return state, hyper, trace


def _ascend_modes(state, t, hyper, region, config, modes, frozen=None, learn_beta=False):
    """Coordinate ascent of ``modes`` (ascending) of ``state`` over the
    stored entries of ``t``, all inside ``region``: per sweep each mode's
    shape then rate update, then with ``learn_beta`` those modes' rate
    multipliers, then the ELBO.  Returns (hyper, trace, the betas in force
    per sweep).

    ``frozen``, a ``cp._FrozenModes`` of ``t`` over every mode but the last,
    is passed on to the kernel passes; ``modes`` must then be the last mode
    alone.  The other modes' prior terms and the counts' log factorials are
    taken once.  ``cp._ascend`` makes the kernel passes: the ELBO's pass
    also allocates the next sweep's first-mode counts, as re-fitting beta
    leaves ``elog`` alone.
    """
    priors = [
        None if m in modes else _gamma_prior_terms(state, hyper, m) for m in range(state.n_modes)
    ]
    y = t.values.astype(np.float64)
    log_y_factorials = gammaln(y + 1.0).sum()
    betas = []

    def update(mode, counts):
        # the rate update reads only the other modes' caches, then refreshes this mode's
        state.gamma[mode] = hyper.alpha + counts
        update_delta(state, mode, hyper, region=region)

    def objective(log_mass):
        nonlocal hyper
        if learn_beta:
            for mode in modes:
                hyper = update_beta(state, mode, hyper)
        betas.append(hyper.beta)
        for mode in modes:
            priors[mode] = _gamma_prior_terms(state, hyper, mode)
        return _elbo(log_mass, y, log_y_factorials, region.sum_recon(state.expect), priors)

    trace = _ascend(t, modes, update, objective, config.max_iterations,
                    config.tolerance, state.elog, frozen,
                    (NumericalDegeneracyError, "all-component geometric mass vanished"))
    return hyper, trace, betas


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
    region: Region,
    config: FitConfig,
):
    """Infer time-mode variational parameters for unseen slices.

    All non-time modes stay frozen at the trained parameters (bit for bit);
    only the test slices' observed ``region``, a ``Region`` bound to their
    shape (else ValueError), feeds the time-mode shape and rate sums.
    Returns the fitted state (its last-mode gamma/delta are the per-test-step
    parameters) and the trace of its ELBO on that region.

    The state's frozen modes share the trained state's arrays and caches;
    its time mode starts where ``init_state`` would start it for the test
    shape (the frozen modes' draws are made, in order, and dropped).  A
    sweep is ``fit``'s own sweep over the time mode alone, without beta
    re-fits; what never changes is taken once per call: each observed
    entry's summed row-shifted frozen log rows and their summed row maxima
    (``cp._FrozenModes``, nnz_obs * (K + 1) * 8 bytes) and the frozen modes'
    prior terms.  A sweep then costs one kernel pass over the observed
    entries, O(nnz_obs * K), whose ELBO also allocates the next sweep's
    shape update.
    """
    observed = _observed_part(trained.shape, test_slice, region)
    time_mode = trained.n_modes - 1
    *_, time_gamma = _initial_shapes(test_slice.shape, replace(config, k=trained.k), hyper)
    state = VariationalState(
        trained.gamma[:time_mode] + [time_gamma],
        trained.delta[:time_mode] + [np.full(time_gamma.shape, hyper.rate(time_mode))],
        trained.expect[:time_mode] + [None],
        trained.elog[:time_mode] + [None],
    )
    frozen = _FrozenModes(observed, logs=state.elog[:time_mode])
    _, trace, _ = _ascend_modes(state, observed, hyper, region, config, [time_mode], frozen)
    return state, trace


# ---------------------------------------------------------------------------
# State files
# ---------------------------------------------------------------------------


def save_state(state: VariationalState, hyper: Hyperparameters, directory) -> Path:
    """Write a state bundle: manifest, per-mode gamma and delta matrices."""
    alpha = f"{hyper.alpha:.17g}"
    beta = " ".join(f"{b:.17g}" for b in hyper.beta)
    return _save_bundle(directory, state.shape, state.k, [("alpha", alpha), ("beta", beta)],
                        [("gamma", "gamma", state.gamma), ("delta", "delta", state.delta)])


def load_state(directory):
    """Read a state bundle; caches are recomputed from gamma and delta, and
    must be finite (a geometric expectation is at most its arithmetic one)."""
    directory = Path(directory)
    with _reading_bundle(directory) as manifest, np.errstate(over="ignore"):
        state = VariationalState(
            _mode_matrices(directory, manifest, "gamma"),
            _mode_matrices(directory, manifest, "delta"),
        )
        for m, expect in enumerate(state.expect):
            if not np.all(np.isfinite(expect)):
                raise ValueError(f"mode {m}: expectations gamma / delta overflow")
        hyper = Hyperparameters(
            alpha=float(manifest["alpha"]),
            beta=tuple(float(b) for b in manifest["beta"].split()),
        )
    if len(hyper.beta) != state.n_modes:
        raise IngestionError(f"{directory}: manifest needs one beta per mode")
    return state, hyper
