"""Strong-generalization heldout evaluation for count-tensor factorizations.

The protocol: sort actors by overall activity, split time steps into train
and test, fit each model on the training tensor, infer time factors for
each test slice from its observed region (the top-n' actor block or its
complement, a ``masking.Region``), then score the reconstruction over the
other region, the heldout one.  Scores are averaged over several random
splits.  An ``ExperimentSpec`` describes a whole table (block sizes, sides,
seeds, models and fit settings); ``run_table(spec, tensors)`` scores one row
per source tensor, block size and side.  Each split is fitted once per
model and shared by every region scored on it.  Heldout inference runs each model's fit loop over the
time mode alone, with a per-entry prefix of the frozen modes (nnz_obs *
K * 8 bytes, plus nnz_obs * 8 for a log prefix's shift) taken once per
call: O(nnz_obs * K) per sweep.  Zero cells of the heldout region are
never materialized: the absolute-error mass over zeros has a closed form,
and the thresholded count (``Region.count_recon_above``) costs
O(n0 * n1 * K) for its actor-pair bounds plus the cells of the actor rows
that survive them.
"""

from __future__ import annotations

import json
import math
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from functools import partial
from pathlib import Path

import numpy as np

from . import bptf as _bptf
from . import ntf as _ntf
from .cp import FactorSet, Trace, reconstruct_entries, save_factors
from .errors import ConfigError, CountCPError, SpecValidationError, UndefinedStatisticError
from .masking import Region
from .tensors import SparseCountTensor, sort_by_activity, split_time, vmr_of_counts

MODEL_NAMES = ("ntf-ls", "ntf-kl", "bptf-geo", "bptf-ari")
METRIC_NAMES = ("mae", "mae_nz", "ham_z")


# ---------------------------------------------------------------------------
# Region metrics
# ---------------------------------------------------------------------------


def region_metrics(f: FactorSet, truth: SparseCountTensor, region: Region) -> dict:
    """MAE, MAE-NZ and HAM-Z of a factor set's reconstruction over a region.

    The absolute error over zero cells is the region's reconstruction mass
    minus the mass on non-zero cells; the 0.5-threshold count over the
    region reconstructs only the actor rows that its pair bounds leave,
    O(n0 * n1 * K) plus those rows' cells, so nothing dense is built.
    """
    n_cells = region.n_cells
    if n_cells == 0:
        raise SpecValidationError("metrics over an empty region are undefined")
    part = region.restrict(truth)
    coords, y = part.coords, part.values.astype(np.float64)
    yhat_nz = reconstruct_entries(f, coords)
    nz_err = float(np.abs(yhat_nz - y).sum())
    # closed form, clamped against rounding when the region is all non-zero
    zero_mass = max(0.0, region.sum_recon(f.factors) - float(yhat_nz.sum()))
    n_zero = n_cells - coords.shape[0]
    over_zero = region.count_recon_above(f.factors, 0.5) - int((yhat_nz > 0.5).sum())

    return {
        "mae": (nz_err + zero_mass) / n_cells,
        "mae_nz": nz_err / coords.shape[0] if coords.shape[0] else math.nan,
        "ham_z": over_zero / n_zero if n_zero else math.nan,
    }


# ---------------------------------------------------------------------------
# Experiment specification and report
# ---------------------------------------------------------------------------


# ``--scenario`` value -> the sides its rows predict, in row order; a side
# is True when the block's complement is predicted
_SIDES = {"block": (False,), "complement": (True,), "both": (False, True)}


@dataclass(frozen=True)
class ExperimentSpec:
    """One heldout-prediction table.

    Each block size in ``n_primes`` sizes an upper-left actor block after
    activity sorting.  ``scenario`` "block" predicts the block itself and
    observes its complement; "complement" swaps the roles, so the (sparser)
    complement is predicted; "both" gives each size both rows, block first.
    Making a spec checks every option, the configs of the model families
    ``models`` asks for included, so no tensor need be read first.
    """

    n_primes: tuple
    scenario: str = "both"
    test_fraction: float = 0.2
    seeds: tuple = (0, 1, 2)
    k: int = 50
    models: tuple = MODEL_NAMES
    alpha: float = 0.1
    max_iterations: int = 200
    tolerance: float = 1e-4
    epsilon_floor: float = _ntf.NtfConfig.epsilon_floor

    def __post_init__(self):
        object.__setattr__(self, "n_primes", tuple(int(n) for n in self.n_primes))
        object.__setattr__(self, "seeds", tuple(int(s) for s in self.seeds))
        object.__setattr__(self, "models", tuple(self.models))
        if not self.n_primes:
            raise SpecValidationError("at least one block size is required")
        if self.scenario not in _SIDES:
            raise SpecValidationError(f"unknown scenario {self.scenario!r}")
        if not self.seeds:
            raise SpecValidationError("at least one split seed is required")
        if min(self.seeds) < 0:
            raise SpecValidationError("split seeds must be non-negative")
        if not 0.0 < self.test_fraction < 1.0:
            raise SpecValidationError(f"test_fraction must be in (0, 1), got {self.test_fraction}")
        unknown = [m for m in self.models if m not in MODEL_NAMES]
        if unknown:
            raise SpecValidationError(f"unknown models {unknown}")
        if not self.models:
            raise SpecValidationError("at least one model is required")
        _trainers(self)  # every model option is checked here, before any tensor is read


@dataclass
class SplitScores:
    seed: int
    density: float
    vmr: float
    models: dict = field(default_factory=dict)
    failures: dict = field(default_factory=dict)


@dataclass
class ScenarioResult:
    label: str
    density: float
    vmr: float
    models: dict
    splits: list
    failures: dict = field(default_factory=dict)


@dataclass
class EvalReport:
    scenarios: list


# ---------------------------------------------------------------------------
# Running experiments
# ---------------------------------------------------------------------------


def _observed_region(n_prime: int, complement: bool, shape) -> Region:
    """The cells of a tensor of ``shape`` observed when the top n' x n' actor
    block is predicted (its complement observed) or, with ``complement``,
    when its complement is predicted (the block observed)."""
    top = range(n_prime)
    return Region(shape, top, top, complement=not complement)


def _validate_rows(rows, t: SparseCountTensor) -> None:
    """Reject a tensor without two equal actor modes and a time mode, and
    any (n', complement) row that leaves no observed or no heldout cell."""
    if t.ndim < 3:
        raise SpecValidationError("the harness needs actor, actor and time modes")
    n = t.shape[0]
    if t.shape[1] != n:
        raise SpecValidationError("actor modes must have equal size")
    for n_prime, complement in rows:
        if not 1 <= n_prime <= n:
            raise SpecValidationError(f"n_prime must be in [1, {n}], got {n_prime}")
        observed = _observed_region(n_prime, complement, t.shape)
        if observed.n_cells == 0:
            raise SpecValidationError("mask leaves no observed cells")
        if observed.invert().n_cells == 0:
            raise SpecValidationError("mask leaves an empty heldout region")


@dataclass
class _Fitted:
    """One model family fitted to one tensor: the trace of its ``objective``
    ("elbo" or "objective"), ``save(directory)``, which writes its bundle in
    ``directory`` and returns the bundle's path, and ``predict(test, observed)``,
    which maps each scored model name to its FactorSet inferred from the
    ``observed`` region of ``test``."""

    trace: Trace
    objective: str
    save: Callable
    predict: Callable


def _hyperparameters(alpha, beta, n_modes=None):
    """BPTF hyperparameters from ``--alpha`` and 1 or ``n_modes`` ``--beta``
    values; without ``n_modes``, every check but the count of values."""
    if not beta:
        raise ConfigError("--beta needs at least one value")
    beta = tuple(beta)
    if n_modes is not None:
        beta = beta * n_modes if len(beta) == 1 else beta
        if len(beta) != n_modes:
            raise ConfigError(f"--beta needs 1 or {n_modes} values")
    return _bptf.Hyperparameters(alpha=alpha, beta=beta)


def _bptf_trainer(names, k, max_iterations, tolerance, alpha, beta=(1.0,),
                  learn_beta=True, seed=0, **_):
    config = _bptf.FitConfig(k, max_iterations, tolerance, seed, learn_beta)
    _hyperparameters(alpha, beta)  # the count of beta values waits for the tensor
    kinds = {"bptf-geo": "geometric", "bptf-ari": "arithmetic"}

    def train(tensor, seed):
        seeded = replace(config, seed=seed)
        hyper = _hyperparameters(alpha, beta, tensor.ndim)
        state, learned, trace = _bptf.fit(tensor, seeded, hyper)

        def predict(test, observed):
            heldout, _ = _bptf.infer_heldout_time_factors(state, learned, test, observed, seeded)
            return {name: _bptf.point_estimate(heldout, kinds[name]) for name in names}

        def save(out):
            return _bptf.save_state(state, learned, out / "state")

        return _Fitted(trace, "elbo", save, predict)

    return train


def _ntf_trainer(names, k, max_iterations, tolerance, epsilon_floor, cost, seed=0, **_):
    config = _ntf.NtfConfig(k, max_iterations, tolerance, seed, cost, epsilon_floor)

    def train(tensor, seed):
        seeded = replace(config, seed=seed)
        factors, trace = _ntf.fit_ntf(tensor, seeded)

        def predict(test, observed):
            heldout, _ = _ntf.infer_heldout_time_factors_ntf(factors, test, observed, seeded)
            return dict.fromkeys(names, heldout)

        def save(out):
            return save_factors(factors, out / "factors", tensor.mode_labels)

        return _Fitted(trace, "objective", save, predict)

    return train


# ``fit --model`` name -> (the model names its heldout predictions are scored
# as, its trainer builder); the harness fits the families in this order
_MODELS = {
    "bptf": (("bptf-geo", "bptf-ari"), _bptf_trainer),
    "ntf-kl": (("ntf-kl",), partial(_ntf_trainer, cost="kl")),
    "ntf-ls": (("ntf-ls",), partial(_ntf_trainer, cost="ls")),
}


def _trainer(model, wanted=MODEL_NAMES, **options):
    """(names, train) for one ``fit --model`` family: the model names in
    ``wanted`` that it is scored as, and ``train(tensor, seed) -> _Fitted``.
    ``options`` are named as ``countcp fit``'s flags or ExperimentSpec's
    fields; the config is built here from those the family uses, so an
    invalid value raises ConfigError before any tensor is read (a count of
    beta values that does not fit the tensor's modes, in ``train``)."""
    scored, build = _MODELS[model]
    names = tuple(name for name in scored if name in wanted)
    return names, build(names, **options)


def _trainers(spec) -> list:
    """(names, train) of each model family that ``spec.models`` asks for,
    in ``_MODELS`` order, built from the spec's options."""
    return [
        _trainer(model, spec.models, **vars(spec))
        for model, (scored, _) in _MODELS.items()
        if set(scored) & set(spec.models)
    ]


def _failure(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def _run_seed(rows, test_fraction, trainers, sorted_t, seed: int) -> list:
    """One split seed: split once, fit each model once, then infer from
    every (n', complement) row's observed region and score its heldout
    region.  Returns one SplitScores per row."""
    ts = split_time(sorted_t, test_fraction, seed)
    observed = [_observed_region(n_prime, side, ts.test.shape) for n_prime, side in rows]
    regions = [region.invert() for region in observed]
    splits = []
    for region in regions:
        try:
            vmr = vmr_of_counts(region.restrict(ts.test).values)
        except UndefinedStatisticError:
            vmr = math.nan
        splits.append(SplitScores(seed, region.density(ts.test), vmr))

    for names, train in trainers:
        try:
            predict = train(ts.train, seed).predict
        except (CountCPError, FloatingPointError) as exc:  # recorded in every row
            for split in splits:
                split.failures.update(dict.fromkeys(names, _failure(exc)))
            continue
        for split, seen, region in zip(splits, observed, regions):
            try:
                for name, f in predict(ts.test, seen).items():
                    split.models[name] = region_metrics(f, ts.test, region)
            except (CountCPError, FloatingPointError) as exc:
                split.failures.update(dict.fromkeys(names, _failure(exc)))
    return splits


def _scenario(label: str, models, splits: list) -> ScenarioResult:
    """Average one row's split scores; keep each model's first failure."""
    averaged = {}
    failures = {}
    for name in models:
        rows = [sp.models[name] for sp in splits if name in sp.models]
        if rows:
            averaged[name] = {
                metric: float(np.mean([row[metric] for row in rows]))
                for metric in METRIC_NAMES
            }
        messages = [sp.failures[name] for sp in splits if name in sp.failures]
        if messages:
            failures[name] = messages[0]
    return ScenarioResult(
        label=label,
        density=float(np.mean([sp.density for sp in splits])),
        vmr=float(np.mean([sp.vmr for sp in splits])),
        models=averaged,
        splits=splits,
        failures=failures,
    )


def _label(source: str, n_prime: int, complement: bool) -> str:
    base = f"top-{n_prime}" + ("c" if complement else "")
    return f"{source}-{base}" if source else base


def run_table(spec: ExperimentSpec, tensors: dict, max_workers: int = 1) -> EvalReport:
    """Build a multi-row report: one row per source, block size and side.

    ``tensors`` maps a source label to its tensor.  Rows run source by
    source, then by ``spec.n_primes`` in order, the block row before the
    complement row as ``spec.scenario`` selects them.  Every row is
    validated before the first fit; the spec checked the config of every
    model family it asks for when it was made.  Per source and split seed, the tensor
    is split once and each model fitted once; the fits serve every block
    size and side, which differ only in heldout inference and scoring.  A
    model's library error is recorded per model and per split; the
    remaining models are still reported.  Seeds are independent and may
    run on worker threads; results are assembled in seed order, so
    identical inputs give a bit-identical report either way.
    """
    rows = [(n, side) for n in spec.n_primes for side in _SIDES[spec.scenario]]
    for tensor in tensors.values():
        _validate_rows(rows, tensor)
    trainers = _trainers(spec)

    results = []
    for source, tensor in tensors.items():
        sorted_t, _ = sort_by_activity(tensor)

        def run_seed(seed):
            return _run_seed(rows, spec.test_fraction, trainers, sorted_t, seed)

        if max_workers > 1 and len(spec.seeds) > 1:
            with ThreadPoolExecutor(max_workers=max_workers) as pool:
                per_seed = list(pool.map(run_seed, spec.seeds))
        else:
            per_seed = [run_seed(seed) for seed in spec.seeds]
        results += [
            _scenario(_label(source, *row), spec.models, [splits[j] for splits in per_seed])
            for j, row in enumerate(rows)
        ]
    return EvalReport(scenarios=results)


# ---------------------------------------------------------------------------
# Report files
# ---------------------------------------------------------------------------


def write_report_text(report: EvalReport, path, models=MODEL_NAMES) -> None:
    """Delimited report, one row per scenario: density, VMR, then the
    MAE / MAE-NZ / HAM-Z triple for each model column group."""
    path = Path(path)
    present = [
        m for m in models if any(m in sc.models for sc in report.scenarios)
    ]
    header = ["scenario", "density", "vmr"]
    for m in present:
        header += [f"{m}:mae", f"{m}:mae_nz", f"{m}:ham_z"]
    lines = ["\t".join(header)]
    for sc in report.scenarios:
        row = [sc.label, f"{sc.density:.6g}", f"{sc.vmr:.6g}"]
        for m in present:
            scores = sc.models.get(m)
            if scores is None:
                row += ["failed"] * 3
            else:
                row += [f"{scores[k]:.6g}" for k in METRIC_NAMES]
        lines.append("\t".join(row))
    path.write_text("\n".join(lines) + "\n")


def write_report_json(report: EvalReport, path) -> None:
    """Every field of the report, its scenarios and their splits, as JSON
    with sorted keys; NaN is written as ``NaN``."""
    Path(path).write_text(json.dumps(asdict(report), indent=2, sort_keys=True) + "\n")
