"""Heldout metrics and the strong-generalization harness."""

import json
import math
from dataclasses import asdict

import numpy as np
import pytest

import countcp.bptf
import countcp.evaluation
import countcp.ntf
from countcp import (
    ConfigError,
    EvalReport,
    ExperimentSpec,
    FitConfig,
    Hyperparameters,
    NtfConfig,
    NumericalDegeneracyError,
    Region,
    SparseCountTensor,
    SpecValidationError,
    UndefinedStatisticError,
    fit,
    fit_ntf,
    infer_heldout_time_factors,
    infer_heldout_time_factors_ntf,
    point_estimate,
    region_metrics,
    run_table,
    sample_count_tensor,
    sort_by_activity,
    split_time,
    write_report_json,
    write_report_text,
)
from countcp.evaluation import ScenarioResult, SplitScores
from countcp.tensors import vmr_of_counts
from conftest import (
    ham_z,
    mae,
    mae_nz,
    random_factors,
    random_tensor,
    reconstruct_dense,
    todense,
    top_block,
)


class TestPointMetrics:
    def test_mae_trivials(self):
        assert mae([1.0, 2.0], [1.0, 2.0]) == 0.0
        assert mae([1.0, 1.0], [0.0, 2.0]) == 1.0

    def test_mae_matches_loop_oracle(self, rng):
        pred = rng.uniform(0, 5, size=40)
        truth = rng.integers(0, 5, size=40)
        expected = sum(abs(p - t) for p, t in zip(pred, truth)) / 40
        assert mae(pred, truth) == pytest.approx(expected, rel=1e-12)

    def test_mae_empty_region_rejected(self):
        with pytest.raises(SpecValidationError):
            mae([], [])

    def test_mae_nz_excludes_zero_cells(self):
        assert mae_nz([9.0, 3.0], [0.0, 3.0]) == 0.0
        assert mae_nz([2.5], [1.0]) == 1.5

    def test_mae_nz_marker_when_no_nonzero_cells(self):
        assert math.isnan(mae_nz([1.0, 2.0], [0.0, 0.0]))

    def test_mae_nz_matches_loop_oracle(self, rng):
        pred = rng.uniform(0, 5, size=60)
        truth = rng.integers(0, 3, size=60)
        pairs = [(p, t) for p, t in zip(pred, truth) if t > 0]
        expected = sum(abs(p - t) for p, t in pairs) / len(pairs)
        assert mae_nz(pred, truth) == pytest.approx(expected, rel=1e-12)

    def test_ham_z_counts_only_zero_cells(self):
        assert ham_z([0.4, 0.4], [0.0, 0.0]) == 0.0
        assert ham_z([0.6, 0.2], [0.0, 0.0]) == 0.5

    def test_ham_z_threshold_is_strict(self):
        assert ham_z([0.5], [0.0]) == 0.0

    def test_ham_z_marker_when_no_zero_cells(self):
        assert math.isnan(ham_z([1.0], [2.0]))

    def test_decomposition_identity(self, rng):
        # MAE equals the count-weighted mix of MAE-NZ and the zero-cell mean
        pred = rng.uniform(0, 4, size=100)
        truth = rng.integers(0, 3, size=100)
        nz = truth > 0
        lhs = mae(pred, truth) * 100
        rhs = mae_nz(pred, truth) * nz.sum() + pred[~nz].sum()
        assert lhs == pytest.approx(rhs, rel=1e-12)


class TestRegionMetrics:
    @pytest.mark.parametrize("complement", [False, True])
    def test_matches_dense_evaluation(self, rng, complement):
        shape = (6, 6, 2, 3)
        t = random_tensor(shape, rng, nnz=40)
        f = random_factors(shape, 2, rng)
        region = Region(shape, rows=[0, 1, 2], cols=[0, 1, 2], complement=complement)
        scores = region_metrics(f, t, region)

        grid = np.zeros(shape, dtype=bool)
        pair = np.zeros(shape[:2], dtype=bool)
        pair[np.ix_(region.rows, region.cols)] = True
        if complement:
            pair = ~pair
        grid[...] = pair.reshape(pair.shape + (1, 1))
        dense_pred = reconstruct_dense(f)[grid]
        dense_truth = todense(t).astype(float)[grid]
        assert scores["mae"] == pytest.approx(mae(dense_pred, dense_truth), rel=1e-12)
        assert scores["mae_nz"] == pytest.approx(
            mae_nz(dense_pred, dense_truth), rel=1e-12
        )
        assert scores["ham_z"] == pytest.approx(
            ham_z(dense_pred, dense_truth), rel=1e-12
        )


def small_generative_tensor(seed=0):
    hyper = Hyperparameters(alpha=0.3, beta=(1.0, 1.0, 1.0, 1.0))
    t, _ = sample_count_tensor((8, 8, 2, 10), 2, hyper, seed=seed)
    return t


class TestRunExperiment:
    def spec(self, **kw):
        base = dict(
            n_primes=(3,),
            scenario="block",
            test_fraction=0.2,
            seeds=(0,),
            k=2,
            models=("bptf-geo",),
            max_iterations=15,
            tolerance=1e-3,
        )
        base.update(kw)
        return ExperimentSpec(**base)

    def run(self, spec, t, max_workers=1):
        """The table of ``spec`` for one unlabelled source."""
        return run_table(spec, {"": t}, max_workers)

    def test_single_model_single_seed_report_shape(self):
        t = small_generative_tensor()
        report = self.run(self.spec(), t)
        assert len(report.scenarios) == 1
        sc = report.scenarios[0]
        assert set(sc.models) == {"bptf-geo"}
        assert sc.label == "top-3"
        assert len(sc.splits) == 1
        assert 0.0 <= sc.density <= 1.0

    def test_degenerate_mask_rejected(self):
        t = small_generative_tensor()
        # n_prime = N with the block predicted leaves nothing observed
        with pytest.raises(SpecValidationError):
            self.run(self.spec(n_primes=(8,)), t)

    def test_all_models_reported(self):
        t = small_generative_tensor()
        spec = self.spec(models=("ntf-ls", "ntf-kl", "bptf-geo", "bptf-ari"))
        report = self.run(spec, t)
        sc = report.scenarios[0]
        assert set(sc.models) == set(spec.models)
        for scores in sc.models.values():
            assert scores["mae"] >= 0.0
            assert 0.0 <= scores["ham_z"] <= 1.0

    def test_reports_are_deterministic(self):
        t = small_generative_tensor()
        spec = self.spec(models=("bptf-geo", "ntf-kl"), seeds=(0, 1))
        a = json.dumps(asdict(self.run(spec, t)), sort_keys=True)
        b = json.dumps(asdict(self.run(spec, t)), sort_keys=True)
        assert a == b

    def test_worker_threads_do_not_change_the_report(self):
        t = small_generative_tensor()
        spec = self.spec(models=("bptf-geo",), seeds=(0, 1, 2))
        serial = json.dumps(asdict(self.run(spec, t, max_workers=1)), sort_keys=True)
        threaded = json.dumps(asdict(self.run(spec, t, max_workers=3)), sort_keys=True)
        assert serial == threaded

    def test_seeds_must_be_non_empty(self):
        with pytest.raises(SpecValidationError):
            self.spec(seeds=())

    def test_unknown_model_rejected(self):
        with pytest.raises(SpecValidationError):
            self.spec(models=("bptf-geo", "svd"))

    @pytest.mark.parametrize("field", [{"n_primes": ()}, {"scenario": "sideways"}])
    def test_empty_sizes_or_unknown_scenario_rejected(self, field):
        with pytest.raises(SpecValidationError):
            self.spec(**field)

    @pytest.mark.parametrize(
        "field, models",
        [({"k": 0}, ("bptf-geo",)), ({"alpha": math.inf}, ("bptf-geo",)),
         ({"max_iterations": 0}, ("ntf-kl",)), ({"tolerance": 0.0}, ("ntf-ls",)),
         ({"epsilon_floor": math.nan}, ("ntf-kl",))],
    )
    def test_model_options_are_checked_when_the_spec_is_made(self, field, models):
        with pytest.raises(ConfigError):
            self.spec(models=models, **field)

    def test_options_of_families_not_asked_for_are_not_checked(self):
        assert math.isnan(self.spec(models=("bptf-geo",), epsilon_floor=math.nan).epsilon_floor)

    def test_run_table_emits_one_row_per_scenario(self, tmp_path):
        t1 = small_generative_tensor(seed=0)
        t2 = small_generative_tensor(seed=1)
        base = self.spec(n_primes=(2, 3), scenario="both")
        report = run_table(base, {"one": t1, "two": t2})
        labels = [sc.label for sc in report.scenarios]
        assert labels == [
            "one-top-2", "one-top-2c", "one-top-3", "one-top-3c",
            "two-top-2", "two-top-2c", "two-top-3", "two-top-3c",
        ]
        write_report_text(report, tmp_path / "report.txt")
        write_report_json(report, tmp_path / "report.json")
        lines = (tmp_path / "report.txt").read_text().strip().splitlines()
        assert len(lines) == 1 + 8
        header = lines[0].split("\t")
        assert header[:3] == ["scenario", "density", "vmr"]
        assert "bptf-geo:mae" in header

    def test_model_failure_is_recorded_not_fatal(self, monkeypatch):
        t = small_generative_tensor()

        def boom(*args, **kwargs):
            raise NumericalDegeneracyError("synthetic failure")

        monkeypatch.setattr(countcp.ntf, "fit_ntf", boom)
        spec = self.spec(models=("bptf-geo", "ntf-kl"))
        report = self.run(spec, t)
        sc = report.scenarios[0]
        assert "bptf-geo" in sc.models
        assert "ntf-kl" in sc.failures
        assert "synthetic failure" in sc.failures["ntf-kl"]


def reference_split(spec, sorted_t, n_prime, complement, seed):
    """One split as the per-scenario harness scored it: every model refitted."""
    ts = split_time(sorted_t, spec.test_fraction, seed)
    observed = top_block(ts.test.shape, n_prime, complement)
    region = observed.invert()
    try:
        vmr = vmr_of_counts(region.restrict(ts.test).values)
    except UndefinedStatisticError:
        vmr = math.nan
    models = {}
    config = FitConfig(
        k=spec.k, max_iterations=spec.max_iterations,
        tolerance=spec.tolerance, seed=seed,
    )
    hyper = Hyperparameters.default(ts.train.ndim, alpha=spec.alpha)
    state, hyper, _ = fit(ts.train, config, hyper)
    heldout, _ = infer_heldout_time_factors(state, hyper, ts.test, observed, config)
    for name, kind in (("bptf-geo", "geometric"), ("bptf-ari", "arithmetic")):
        if name in spec.models:
            models[name] = region_metrics(point_estimate(heldout, kind), ts.test, region)
    for cost in ("kl", "ls"):
        if f"ntf-{cost}" in spec.models:
            ntf_config = NtfConfig(
                k=spec.k, max_iterations=spec.max_iterations,
                tolerance=spec.tolerance, seed=seed, cost=cost,
                epsilon_floor=spec.epsilon_floor,
            )
            factors, _ = fit_ntf(ts.train, ntf_config)
            inferred, _ = infer_heldout_time_factors_ntf(factors, ts.test, observed, ntf_config)
            models[f"ntf-{cost}"] = region_metrics(inferred, ts.test, region)
    return {
        "seed": seed, "density": region.density(ts.test), "vmr": vmr,
        "models": models, "failures": {},
    }


def reference_table(base, tensors, n_primes, scenarios):
    """Report dict of the per-scenario loop: (source, size, side) rows in
    order, each refitting every model for every seed."""
    rows = []
    for source, t in tensors.items():
        sorted_t, _ = sort_by_activity(t)
        for n_prime in n_primes:
            for side in scenarios:
                complement = side == "block"
                splits = [
                    reference_split(base, sorted_t, n_prime, complement, s) for s in base.seeds
                ]
                label = f"top-{n_prime}" + ("c" if side == "complement" else "")
                rows.append({
                    "label": f"{source}-{label}" if source else label,
                    "density": float(np.mean([sp["density"] for sp in splits])),
                    "vmr": float(np.mean([sp["vmr"] for sp in splits])),
                    "models": {
                        name: {
                            metric: float(np.mean([sp["models"][name][metric] for sp in splits]))
                            for metric in ("mae", "mae_nz", "ham_z")
                        }
                        for name in base.models
                    },
                    "failures": {},
                    "splits": splits,
                })
    return {"scenarios": rows}


class TestRunTable:
    base = ExperimentSpec(
        n_primes=(2, 3), seeds=(0, 1), k=2, max_iterations=8, tolerance=1e-3,
        models=("ntf-ls", "ntf-kl", "bptf-geo", "bptf-ari"),
    )

    @pytest.mark.parametrize("max_workers", [1, 3])
    def test_matches_the_per_scenario_loop(self, max_workers):
        tensors = {"one": small_generative_tensor(0), "two": small_generative_tensor(1)}
        report = run_table(self.base, tensors, max_workers=max_workers)
        expected = reference_table(self.base, tensors, (2, 3), ("block", "complement"))
        assert json.dumps(asdict(report), sort_keys=True) == json.dumps(
            expected, sort_keys=True
        )

    def test_one_training_fit_per_split_seed_and_model(self, monkeypatch):
        calls = {"bptf": 0, "ntf": 0}

        def counted(module, attr, key):
            inner = getattr(module, attr)

            def wrapper(*args, **kwargs):
                calls[key] += 1
                return inner(*args, **kwargs)

            monkeypatch.setattr(module, attr, wrapper)

        # heldout inference runs its own time-mode loop, never a fit
        counted(countcp.bptf, "fit", "bptf")
        counted(countcp.ntf, "fit_ntf", "ntf")
        report = run_table(self.base, {"gen": small_generative_tensor()})
        assert len(report.scenarios) == 4
        assert calls == {"bptf": 2, "ntf": 4}

    def test_training_failure_is_recorded_in_every_row_of_its_seed(self, monkeypatch):
        real = countcp.ntf.fit_ntf

        def fail_on_seed_one(train, config):
            if config.seed == 1:
                raise NumericalDegeneracyError(f"synthetic {config.cost} failure")
            return real(train, config)

        monkeypatch.setattr(countcp.ntf, "fit_ntf", fail_on_seed_one)
        report = run_table(self.base, {"gen": small_generative_tensor()})
        for sc in report.scenarios:
            first, second = sc.splits
            assert set(first.models) == set(self.base.models)
            assert first.failures == {}
            assert set(second.models) == {"bptf-geo", "bptf-ari"}
            assert second.failures == {
                "ntf-kl": "NumericalDegeneracyError: synthetic kl failure",
                "ntf-ls": "NumericalDegeneracyError: synthetic ls failure",
            }
            assert sc.failures == second.failures

    @pytest.mark.parametrize("name", ["fit_ntf", "infer_heldout_time_factors_ntf"])
    def test_a_programming_error_propagates(self, monkeypatch, name):
        def bug(*args, **kwargs):
            raise RuntimeError("not a library error")

        monkeypatch.setattr(countcp.ntf, name, bug)
        with pytest.raises(RuntimeError, match="not a library error"):
            run_table(self.base, {"gen": small_generative_tensor()})

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_an_overflowing_ls_update_is_a_numerical_failure(self):
        # the heldout Euclidean update drives this table's time factors to inf
        t = SparseCountTensor(
            (3, 3, 1, 5),
            [[0, 0, 0, 3], [1, 0, 0, 4], [1, 2, 0, 1]],
            [1115254482146, 514725, 1879678898833],
            [[str(i) for i in range(n)] for n in (3, 3, 1, 5)],
        )
        spec = ExperimentSpec(
            n_primes=(1,), scenario="block", seeds=(0,), k=2, models=("ntf-ls",),
            max_iterations=15, tolerance=1e-12,
        )
        (sc,) = run_table(spec, {"tiny": t}).scenarios
        assert sc.models == {}
        assert sc.failures == {
            "ntf-ls": "NumericalDegeneracyError: Euclidean update overflowed in mode 3"
        }


PINNED_REPORT_JSON = """{
  "scenarios": [
    {
      "density": 0.1875,
      "failures": {
        "bptf-geo": "RuntimeError: boom"
      },
      "label": "gen-top-2c",
      "models": {
        "ntf-kl": {
          "ham_z": 0.25,
          "mae": 0.75,
          "mae_nz": NaN
        }
      },
      "splits": [
        {
          "density": 0.25,
          "failures": {
            "bptf-geo": "RuntimeError: boom"
          },
          "models": {
            "ntf-kl": {
              "ham_z": 0.5,
              "mae": 0.5,
              "mae_nz": NaN
            }
          },
          "seed": 0,
          "vmr": NaN
        },
        {
          "density": 0.125,
          "failures": {},
          "models": {
            "bptf-geo": {
              "ham_z": 0.0,
              "mae": 2.0,
              "mae_nz": 3.5
            },
            "ntf-kl": {
              "ham_z": 0.0,
              "mae": 1.0,
              "mae_nz": 1.25
            }
          },
          "seed": 1,
          "vmr": 2.0
        }
      ],
      "vmr": NaN
    }
  ]
}
"""


def test_report_json_matches_literal_text(tmp_path):
    nan = math.nan
    first = SplitScores(0, 0.25, nan, {"ntf-kl": {"mae": 0.5, "mae_nz": nan, "ham_z": 0.5}},
                        {"bptf-geo": "RuntimeError: boom"})
    second = SplitScores(1, 0.125, 2.0, {"ntf-kl": {"mae": 1.0, "mae_nz": 1.25, "ham_z": 0.0},
                                         "bptf-geo": {"mae": 2.0, "mae_nz": 3.5, "ham_z": 0.0}})
    scenario = ScenarioResult("gen-top-2c", 0.1875, nan,
                              {"ntf-kl": {"mae": 0.75, "mae_nz": nan, "ham_z": 0.25}},
                              [first, second], {"bptf-geo": "RuntimeError: boom"})
    write_report_json(EvalReport([scenario]), tmp_path / "report.json")
    assert (tmp_path / "report.json").read_text() == PINNED_REPORT_JSON
