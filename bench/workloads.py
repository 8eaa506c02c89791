"""The three benchmark workloads: fit, eval and io.

Each workload writes its inputs from the run seed (``setup``), then runs
whole rounds of the same operations (``round``) through the countcp command
line or the library, and checks each round's outputs (``check``): the first
round against the oracles in ``oracles.py``, later rounds for byte-identical
outputs, since every operation is deterministic for fixed inputs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from countcp import bptf, cli, evaluation, tensors

import inputs
import oracles
from oracles import require
from probe import SpeedProbe
from spans import replace_everywhere, restore


@dataclass
class Op:
    name: str
    seconds: float
    ok: bool
    detail: str = ""


def run_cli(argv) -> tuple[int | None, str]:
    """Run ``countcp`` in process; returns (exit code or None, message)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main([str(a) for a in argv])
        except Exception as exc:  # an escaped exception is the outcome under test
            return None, "".join(traceback.format_exception_only(exc)).strip()
    return code, err.getvalue().strip()


def digest_tree(root: Path) -> dict:
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def tensor_makeup(tensor) -> dict:
    cells = float(np.prod(tensor.shape))
    values = tensor.values.astype(np.float64)
    return {
        "shape": "x".join(str(s) for s in tensor.shape),
        "nnz": tensor.nnz,
        "density": round(tensor.nnz / cells, 6),
        "vmr_nonzero": round(float(values.var() / values.mean()), 4),
    }


class Workload:
    name = ""
    # training fits that one fit per (split, fitted model) would need, per round
    fits_needed = 0

    def __init__(self, work: Path, seed: int):
        self.seed = seed
        self.inputs = work / "inputs"
        self.out = work / "out"
        self._first: dict | None = None

    def setup(self) -> None:
        shutil.rmtree(self.inputs, ignore_errors=True)
        self.inputs.mkdir(parents=True)
        self.make_inputs()

    def round(self, probe: SpeedProbe) -> list[Op]:
        """Run each operation once, probing the machine's speed after each."""
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)
        ops = []
        for name, action in self.operations():
            start = time.perf_counter()
            try:
                ok, detail = action()
            except Exception as exc:  # recorded as a failed operation
                ok, detail = False, "".join(traceback.format_exception_only(exc)).strip()
            ops.append(Op(name, time.perf_counter() - start, ok, detail))
            probe.after(ops[-1].seconds)
        return ops

    def check(self, ops: list[Op]) -> None:
        """Oracles on the first round; byte-identical outputs afterwards."""
        ok = {op.name for op in ops if op.ok}
        fingerprint = self.fingerprint()
        if self._first is None:
            self.check_first(ok)
            self._first = fingerprint
        else:
            require(fingerprint == self._first, f"{self.name}: outputs differ from round 1")

    def fingerprint(self) -> dict:
        return digest_tree(self.out)

    # per-workload parts
    def make_inputs(self) -> None:
        raise NotImplementedError

    def operations(self):
        raise NotImplementedError

    def check_first(self, ok: set) -> None:
        raise NotImplementedError

    def describe(self) -> dict:
        raise NotImplementedError

    def named_seconds(self, rounds) -> dict:
        raise NotImplementedError


def _per_round(rounds, *names) -> list[float]:
    return [sum(op.seconds for op in ops if op.name in names) for ops in rounds]


# ---------------------------------------------------------------------------


class FitWorkload(Workload):
    """``countcp fit`` with bptf then ntf-kl at K 50 for a fixed sweep count,
    plus the small-alpha BPTF fit that fails today."""

    name = "fit"
    K = 50
    SWEEPS = 2
    SMALL_ALPHA = 1e-3

    def make_inputs(self):
        self.tensor, _ = inputs.sample_tensor(inputs.FIT_TENSOR, self.seed)
        inputs.write_tensor_file(self.inputs / "tensor.txt", self.tensor)
        small_spec = inputs.SMALL_ALPHA_TENSOR
        small, _ = inputs.sample_tensor(small_spec, small_spec["seed"])
        inputs.write_tensor_file(self.inputs / "small.txt", small)

    def _fit(self, model, tensor, out, k, sweeps, alpha):
        code, message = run_cli([
            "fit", "--tensor", tensor, "--model", model, "--k", k,
            "--max-iterations", sweeps, "--tolerance", "1e-15", "--alpha", alpha,
            "--seed", self.seed, "--output-dir", out,
        ])
        return code == 0, message

    def operations(self):
        tensor = self.inputs / "tensor.txt"
        yield "fit_bptf", lambda: self._fit(
            "bptf", tensor, self.out / "bptf", self.K, self.SWEEPS, 0.1)
        yield "fit_ntf_kl", lambda: self._fit(
            "ntf-kl", tensor, self.out / "ntf", self.K, self.SWEEPS, 0.1)
        # fails today: exp(digamma(alpha)) underflows in bptf.update_gamma
        yield "fit_small_alpha", lambda: self._fit(
            "bptf", self.inputs / "small.txt", self.out / "small", 10, 3, self.SMALL_ALPHA)

    def check_first(self, ok):
        t = self.tensor
        if "fit_bptf" in ok:
            run = self.out / "bptf"
            elbos = oracles.read_trace(run / "trace.txt")
            require(len(elbos) == self.SWEEPS, f"bptf ran {len(elbos)} of {self.SWEEPS} sweeps")
            oracles.check_monotone(elbos, increasing=True, what="BPTF ELBO")
            gamma, delta, alpha, beta = oracles.read_state(run / "state")
            elbo = oracles.bptf_elbo(gamma, delta, alpha, beta, t.coords, t.values)
            require(oracles.close(elbo, elbos[-1]), f"final ELBO {elbos[-1]!r} != oracle {elbo!r}")
            require(oracles.geometric_below_arithmetic(gamma, delta),
                    "geometric estimate exceeds the arithmetic one")
            self._check_state_round_trip(run / "state")
            self._check_tensor_round_trip()
        if "fit_ntf_kl" in ok:
            run = self.out / "ntf"
            values = oracles.read_trace(run / "trace.txt")
            require(len(values) == self.SWEEPS, f"ntf-kl ran {len(values)} of {self.SWEEPS} sweeps")
            oracles.check_monotone(values, increasing=False, what="NTF-KL objective")
            kl = oracles.generalized_kl(oracles.read_factors(run / "factors"), t.coords, t.values)
            require(oracles.close(kl, values[-1]), f"final KL {values[-1]!r} != oracle {kl!r}")
        if "fit_small_alpha" in ok:
            elbos = oracles.read_trace(self.out / "small" / "trace.txt")
            oracles.check_monotone(elbos, increasing=True, what="small-alpha ELBO")

    def _check_state_round_trip(self, state_dir: Path):
        copy = self.out / "state_round_trip"
        bptf.save_state(*bptf.load_state(state_dir), copy)
        require(digest_tree(copy) == digest_tree(state_dir), "state bundle does not round-trip")
        shutil.rmtree(copy)

    def _check_tensor_round_trip(self):
        source = self.inputs / "tensor.txt"
        copy = self.out / "tensor_round_trip.txt"
        tensors.save_tensor(tensors.load_tensor(source), copy)
        require(copy.read_bytes() == source.read_bytes(), "tensor file does not round-trip")
        copy.unlink()

    def describe(self):
        return {
            "tensor": tensor_makeup(self.tensor),
            "k": self.K,
            "sweeps": self.SWEEPS,
            "small_alpha_fit": {**inputs.SMALL_ALPHA_TENSOR, "fit_alpha": self.SMALL_ALPHA},
        }

    def named_seconds(self, rounds):
        return {
            "fit_bptf_s": _per_round(rounds, "fit_bptf"),
            "fit_ntf_kl_s": _per_round(rounds, "fit_ntf_kl"),
        }


# ---------------------------------------------------------------------------


class EvalWorkload(Workload):
    """One ``countcp eval`` table: 2 block sizes x both sides x 2 split seeds
    x all four models at small K, on a sparse tensor with many actors."""

    name = "eval"
    K = 6
    ITERATIONS = 5
    N_PRIMES = (10, 40)
    FITTED_MODELS = 3  # bptf (serves bptf-geo and bptf-ari), ntf-kl, ntf-ls

    def __init__(self, work, seed):
        super().__init__(work, seed)
        self.split_seeds = (seed, 1000 + seed)
        self.fits_needed = len(self.split_seeds) * self.FITTED_MODELS
        self.captured = []

    def make_inputs(self):
        self.tensor, _ = inputs.sample_tensor(inputs.EVAL_TENSOR, self.seed)
        inputs.write_tensor_file(self.inputs / "tensor.txt", self.tensor)

    def _capture(self, inner):
        def capture(f, truth, region, *args, **kwargs):
            scores = inner(f, truth, region, *args, **kwargs)
            self.captured.append((f, truth, region, scores))
            return scores
        return capture

    def _eval(self):
        self.captured = []
        undo = replace_everywhere(evaluation.region_metrics, self._capture(evaluation.region_metrics))
        try:
            code, message = run_cli([
                "eval", "--tensor", f"gen={self.inputs / 'tensor.txt'}",
                "--n-primes", ",".join(map(str, self.N_PRIMES)), "--scenario", "both",
                "--seeds", ",".join(map(str, self.split_seeds)), "--k", self.K,
                "--max-iterations", self.ITERATIONS, "--tolerance", "1e-12",
                "--threads", 1, "--output-dir", self.out / "eval",
            ])
        finally:
            restore(undo)
        if code != 0:
            return False, message
        report = json.loads((self.out / "eval" / "report.json").read_text())
        failures = [sc["failures"] for sc in report["scenarios"] if sc["failures"]]
        return not failures, json.dumps(failures)

    def operations(self):
        yield "eval_table", self._eval

    def check_first(self, ok):
        if "eval_table" not in ok:
            return
        for f, truth, region, scores in self.captured:
            oracles.check_region_scores(scores, f.factors, truth, region)
        report = json.loads((self.out / "eval" / "report.json").read_text())
        reported = [
            model
            for sc in report["scenarios"]
            for split in sc["splits"]
            for model in split["models"].values()
        ]
        captured = sorted(json.dumps(s, sort_keys=True) for _, _, _, s in self.captured)
        reported = sorted(json.dumps(s, sort_keys=True) for s in reported)
        require(reported == captured, "report scores differ from the scored regions")

    def fingerprint(self):
        scores = [scores for _, _, _, scores in self.captured]
        return {"files": digest_tree(self.out), "scores": json.dumps(scores)}

    def describe(self):
        return {
            "tensor": tensor_makeup(self.tensor),
            "k": self.K,
            "iterations": self.ITERATIONS,
            "n_primes": list(self.N_PRIMES),
            "split_seeds": list(self.split_seeds),
            "scored_regions": len(self.captured),
            "scored_cells": sum(region.n_cells for _, _, region, _ in self.captured),
        }

    def named_seconds(self, rounds):
        return {"eval_table_s": _per_round(rounds, "eval_table")}


# ---------------------------------------------------------------------------


class IoWorkload(Workload):
    """``countcp ingest`` at day and month bins, ``load_tensor`` of both
    results, ``countcp explore`` of a state bundle, and ``countcp fit`` on
    two malformed tensor files, which fail today."""

    name = "io"
    BINS = ("day", "month")

    def make_inputs(self):
        tensor, _ = inputs.sample_tensor(inputs.IO_TENSOR, self.seed)
        self.source_makeup = tensor_makeup(tensor)
        self.events = inputs.make_events(tensor, self.seed)
        inputs.write_event_file(self.inputs / "events.csv", self.events)
        shape = tensor.shape
        labels = [
            [inputs.actor_label(i) for i in range(shape[0])],
            [inputs.actor_label(i) for i in range(shape[1])],
            [inputs.action_label(a) for a in range(shape[2])],
            oracles.time_labels(inputs.IO_START, shape[3], "day"),
        ]
        inputs.write_labels_file(self.inputs / "labels.txt", labels)
        inputs.write_explore_state(self.inputs / "state", shape, self.seed)
        self.malformed = inputs.write_malformed(self.inputs)

    def _ingest(self, bin_width):
        code, message = run_cli([
            "ingest", "--events", self.inputs / "events.csv", "--bin-width", bin_width,
            "--start", inputs.IO_START.isoformat(), "--end", inputs.IO_END.isoformat(),
            "--output-dir", self.out / bin_width,
        ])
        return code == 0, message

    def _load(self, bin_width):
        run = self.out / bin_width
        self.loaded[bin_width] = tensors.load_tensor(run / "tensor.txt", run / "labels.txt")
        return True, ""

    def _explore(self):
        code, message = run_cli([
            "explore", "--state", self.inputs / "state", "--labels", self.inputs / "labels.txt",
            "--top-n", 10, "--output-dir", self.out / "explore",
        ])
        return code == 0, message

    def _fit_malformed(self, name):
        # the README promises exit code 2 for a data error
        code, message = run_cli([
            "fit", "--tensor", self.malformed[name], "--model", "bptf", "--k", 2,
            "--max-iterations", 1, "--output-dir", self.out / name,
        ])
        return code == 2, message

    def operations(self):
        self.loaded = {}
        for bin_width in self.BINS:
            yield f"ingest_{bin_width}", lambda b=bin_width: self._ingest(b)
        for bin_width in self.BINS:
            yield f"load_{bin_width}", lambda b=bin_width: self._load(b)
        yield "explore", self._explore
        for name in self.malformed:
            yield f"fit_{Path(name).stem}", lambda n=name: self._fit_malformed(n)

    def check_first(self, ok):
        for bin_width in self.BINS:
            run = self.out / bin_width
            if f"ingest_{bin_width}" in ok:
                oracles.check_ingested(
                    run / "tensor.txt", run / "labels.txt", self.events,
                    inputs.IO_START, inputs.IO_END, bin_width,
                )
            if f"load_{bin_width}" in ok:
                shape, coords, values = oracles.read_tensor_file(run / "tensor.txt")
                t = self.loaded[bin_width]
                require(
                    t.shape == shape and np.array_equal(t.coords, coords)
                    and np.array_equal(t.values, values)
                    and t.mode_labels == oracles.read_labels_file(run / "labels.txt", len(shape)),
                    f"load_tensor of the {bin_width} tensor differs from the file",
                )
                copy = self.out / f"{bin_width}_round_trip.txt"
                tensors.save_tensor(t, copy)
                require(copy.read_bytes() == (run / "tensor.txt").read_bytes(),
                        f"{bin_width} tensor file does not round-trip")
                copy.unlink()
        if "explore" in ok:
            oracles.check_ranking(self.out / "explore" / "index.txt", self.inputs / "state")

    def fingerprint(self):
        loaded = {
            b: hashlib.sha256(t.coords.tobytes() + t.values.tobytes()).hexdigest()
            for b, t in self.loaded.items()
        }
        return {"files": digest_tree(self.out), "loaded": loaded}

    def describe(self):
        out = {"source_tensor": self.source_makeup, "events": len(self.events)}
        for b, t in self.loaded.items():
            out[f"{b}_tensor"] = tensor_makeup(t)
        out["explore_state"] = inputs.EXPLORE_STATE
        return out

    def named_seconds(self, rounds):
        return {
            "ingest_s": _per_round(rounds, "ingest_day", "ingest_month"),
            "load_tensor_s": _per_round(rounds, "load_day", "load_month"),
        }


WORKLOADS = {w.name: w for w in (FitWorkload, EvalWorkload, IoWorkload)}
