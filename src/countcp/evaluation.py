"""Strong-generalization heldout evaluation for count-tensor factorizations.

The protocol: sort actors by overall activity, split time steps into train
and test, fit each model on the training tensor, infer time factors for
each test slice from its observed region (the top-n' actor block or its
complement, a ``masking.Region``), then score the reconstruction over the
other region, the heldout one.  Scores are averaged over several random
splits.  Each split is fitted once per model and shared by every region
scored on it.  Heldout inference does its frozen modes' work once per
call (per-entry prefixes of nnz_obs * K * 8 bytes, twice for NTF-KL, and
the frozen column-sum, Gram and prior terms), then O(nnz_obs * K) per
sweep for the time mode.  Zero cells of the heldout region are never
materialized: the absolute-error mass over zeros has a closed form, and
the thresholded count takes one matrix product per actor row against the
Khatri-Rao product of the remaining modes.
"""

from __future__ import annotations

import json
import math
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path

import numpy as np

from . import bptf as _bptf
from . import ntf as _ntf
from .cp import FactorSet, Trace, reconstruct_entries, save_factors
from .errors import ConfigError, SpecValidationError, UndefinedStatisticError
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
    region comes from row-wise matrix products, so nothing dense is built.
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


@dataclass(frozen=True)
class ExperimentSpec:
    """One heldout-prediction scenario.

    ``n_prime`` sizes the upper-left actor block after activity sorting.
    With ``predict_complement`` False the block itself is predicted and its
    complement observed; with True the roles swap and the (sparser)
    complement is predicted.
    """

    n_prime: int
    predict_complement: bool = False
    test_fraction: float = 0.2
    seeds: tuple = (0, 1, 2)
    k: int = 50
    models: tuple = MODEL_NAMES
    alpha: float = 0.1
    max_iterations: int = 200
    tolerance: float = 1e-4
    epsilon_floor: float = 1e-12
    source: str = ""
    date_range: str = ""
    bin_width: str = ""

    def __post_init__(self):
        object.__setattr__(self, "seeds", tuple(int(s) for s in self.seeds))
        object.__setattr__(self, "models", tuple(self.models))
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

    def scenario_label(self) -> str:
        base = f"top-{self.n_prime}"
        if self.predict_complement:
            base += "c"
        return f"{self.source}-{base}" if self.source else base


@dataclass
class SplitScores:
    seed: int
    density: float
    vmr: float
    model_metrics: dict = field(default_factory=dict)
    failures: dict = field(default_factory=dict)


@dataclass
class ScenarioResult:
    label: str
    density: float
    vmr: float
    model_metrics: dict
    splits: list
    failures: dict = field(default_factory=dict)


@dataclass
class EvalReport:
    scenarios: list

    def to_dict(self) -> dict:
        out = {"scenarios": []}
        for sc in self.scenarios:
            out["scenarios"].append(
                {
                    "label": sc.label,
                    "density": sc.density,
                    "vmr": sc.vmr,
                    "models": {m: dict(v) for m, v in sc.model_metrics.items()},
                    "failures": dict(sc.failures),
                    "splits": [
                        {
                            "seed": sp.seed,
                            "density": sp.density,
                            "vmr": sp.vmr,
                            "models": {m: dict(v) for m, v in sp.model_metrics.items()},
                            "failures": dict(sp.failures),
                        }
                        for sp in sc.splits
                    ],
                }
            )
        return out


# ---------------------------------------------------------------------------
# Running experiments
# ---------------------------------------------------------------------------


def _observed_region(spec: ExperimentSpec, shape) -> Region:
    """The cells of a tensor of ``shape`` that ``spec`` observes: the top
    n' x n' actor block, or, when the block is predicted, its complement."""
    top = range(spec.n_prime)
    return Region(shape, top, top, complement=not spec.predict_complement)


def _validate_spec(spec: ExperimentSpec, t: SparseCountTensor) -> None:
    if t.ndim < 3:
        raise SpecValidationError("the harness needs actor, actor and time modes")
    n = t.shape[0]
    if t.shape[1] != n:
        raise SpecValidationError("actor modes must have equal size")
    if not 1 <= spec.n_prime <= n:
        raise SpecValidationError(f"n_prime must be in [1, {n}], got {spec.n_prime}")
    observed = _observed_region(spec, t.shape)
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


def _hyperparameters(alpha, beta, n_modes):
    """BPTF hyperparameters from ``--alpha`` and 1 or ``n_modes`` ``--beta`` values."""
    beta = tuple(beta) * n_modes if len(beta) == 1 else tuple(beta)
    if len(beta) != n_modes:
        raise ConfigError(f"--beta needs 1 or {n_modes} values")
    return _bptf.Hyperparameters(alpha=alpha, beta=beta)


def _bptf_trainer(names, n_modes, k, max_iterations, tolerance, alpha, beta=(1.0,),
                  learn_beta=True, **_):
    config = _bptf.FitConfig(k, max_iterations, tolerance, learn_beta=learn_beta)
    hyper = _hyperparameters(alpha, beta, n_modes)
    kinds = {"bptf-geo": "geometric", "bptf-ari": "arithmetic"}

    def train(tensor, seed):
        seeded = replace(config, seed=seed)
        state, learned, trace = _bptf.fit(tensor, seeded, hyper)

        def predict(test, observed):
            heldout, _ = _bptf.infer_heldout_time_factors(state, learned, test, observed, seeded)
            return {name: _bptf.point_estimate(heldout, kinds[name]) for name in names}

        def save(out):
            return _bptf.save_state(state, learned, out / "state")

        return _Fitted(trace, "elbo", save, predict)

    return train


def _ntf_trainer(names, n_modes, k, max_iterations, tolerance, epsilon_floor, cost, **_):
    config = _ntf.NtfConfig(k, max_iterations, tolerance, cost=cost, epsilon_floor=epsilon_floor)

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


def _trainer(model, n_modes, wanted=MODEL_NAMES, **options):
    """(names, train) for one ``fit --model`` family: the model names in
    ``wanted`` that it is scored as, and ``train(tensor, seed) -> _Fitted``.
    ``options`` are ``countcp fit``'s k, max_iterations, tolerance, alpha,
    beta, learn_beta and epsilon_floor; the config is built here, so an
    invalid value raises ConfigError before any fit."""
    if model not in _MODELS:
        raise ConfigError(f"unknown model {model!r}; use bptf, ntf-kl or ntf-ls")
    scored, build = _MODELS[model]
    names = tuple(name for name in scored if name in wanted)
    return names, build(names, n_modes, **options)


def _failure(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def _run_seed(specs, trainers, sorted_t, seed: int) -> list:
    """One split seed: split once, fit each model once, then infer from
    every spec's observed region and score its heldout region.  Returns one
    SplitScores per spec."""
    ts = split_time(sorted_t, specs[0].test_fraction, seed)
    observed = [_observed_region(spec, ts.test.shape) for spec in specs]
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
        except Exception as exc:  # recorded in every row, not fatal for other models
            for split in splits:
                split.failures.update(dict.fromkeys(names, _failure(exc)))
            continue
        for split, seen, region in zip(splits, observed, regions):
            try:
                for name, f in predict(ts.test, seen).items():
                    split.model_metrics[name] = region_metrics(f, ts.test, region)
            except Exception as exc:
                split.failures.update(dict.fromkeys(names, _failure(exc)))
    return splits


def _scenario(spec: ExperimentSpec, splits: list) -> ScenarioResult:
    """Average one scenario's split scores; keep each model's first failure."""
    averaged = {}
    failures = {}
    for name in spec.models:
        rows = [sp.model_metrics[name] for sp in splits if name in sp.model_metrics]
        if rows:
            averaged[name] = {
                metric: float(np.mean([row[metric] for row in rows]))
                for metric in METRIC_NAMES
            }
        messages = [sp.failures[name] for sp in splits if name in sp.failures]
        if messages:
            failures[name] = messages[0]
    return ScenarioResult(
        label=spec.scenario_label(),
        density=float(np.mean([sp.density for sp in splits])),
        vmr=float(np.mean([sp.vmr for sp in splits])),
        model_metrics=averaged,
        splits=splits,
        failures=failures,
    )


def run_experiment(
    spec: ExperimentSpec, t: SparseCountTensor, max_workers: int = 1
) -> EvalReport:
    """Run one scenario: the one-row case of ``run_table``."""
    side = "complement" if spec.predict_complement else "block"
    return run_table(spec, {spec.source: t}, [spec.n_prime], (side,), max_workers)


def run_table(
    base_spec: ExperimentSpec,
    tensors: dict,
    n_primes,
    scenarios=("block", "complement"),
    max_workers: int = 1,
) -> EvalReport:
    """Build a multi-row report: one row per source, block size and side.

    ``tensors`` maps a source label to its tensor; ``scenarios`` selects
    whether the dense block, its complement, or both are predicted.  Every
    spec, and the config of every model family that ``models`` asks for, is
    validated before the first fit.  Per source
    and split seed, the tensor is split once and each model fitted once;
    the fits serve every block size and side, which differ only in heldout
    inference and scoring.  A model failure is recorded per model and per
    split; the remaining models are still reported.  Seeds are independent
    and may run on worker threads; results are assembled in seed order, so
    identical inputs give a bit-identical report either way.
    """
    keys = ("k", "max_iterations", "tolerance", "alpha", "epsilon_floor")
    options = {key: getattr(base_spec, key) for key in keys}
    sources = []
    for source, tensor in tensors.items():
        specs = [
            replace(
                base_spec,
                source=source,
                n_prime=n_prime,
                predict_complement=(side == "complement"),
            )
            for n_prime in n_primes
            for side in scenarios
        ]
        for spec in specs:
            _validate_spec(spec, tensor)
        trainers = [
            _trainer(model, tensor.ndim, base_spec.models, **options)
            for model, (scored, _) in _MODELS.items()
            if set(scored) & set(base_spec.models)
        ]
        sources.append((specs, tensor, trainers))

    rows = []
    for specs, tensor, trainers in sources:
        if not specs:
            continue
        sorted_t, _ = sort_by_activity(tensor)

        def run_seed(seed):
            return _run_seed(specs, trainers, sorted_t, seed)

        if max_workers > 1 and len(base_spec.seeds) > 1:
            with ThreadPoolExecutor(max_workers=max_workers) as pool:
                per_seed = list(pool.map(run_seed, base_spec.seeds))
        else:
            per_seed = [run_seed(seed) for seed in base_spec.seeds]
        rows += [
            _scenario(spec, [splits[j] for splits in per_seed])
            for j, spec in enumerate(specs)
        ]
    return EvalReport(scenarios=rows)


# ---------------------------------------------------------------------------
# Report files
# ---------------------------------------------------------------------------


def _fmt(value: float) -> str:
    if isinstance(value, float) and math.isnan(value):
        return "nan"
    return f"{value:.6g}"


def write_report_text(report: EvalReport, path, models=MODEL_NAMES) -> None:
    """Delimited report, one row per scenario: density, VMR, then the
    MAE / MAE-NZ / HAM-Z triple for each model column group."""
    path = Path(path)
    present = [
        m for m in models if any(m in sc.model_metrics for sc in report.scenarios)
    ]
    header = ["scenario", "density", "vmr"]
    for m in present:
        header += [f"{m}:mae", f"{m}:mae_nz", f"{m}:ham_z"]
    lines = ["\t".join(header)]
    for sc in report.scenarios:
        row = [sc.label, _fmt(sc.density), _fmt(sc.vmr)]
        for m in present:
            scores = sc.model_metrics.get(m)
            if scores is None:
                row += ["failed"] * 3
            else:
                row += [_fmt(scores[k]) for k in METRIC_NAMES]
        lines.append("\t".join(row))
    path.write_text("\n".join(lines) + "\n")


def write_report_json(report: EvalReport, path) -> None:
    Path(path).write_text(json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n")
