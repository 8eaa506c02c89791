"""countcp benchmark: one workload per run, or all of them.

    python3 bench/run_bench.py --workload fit --seed 0 --seconds 30 --trace 0

Builds its inputs from ``--seed`` (the set-up), then runs whole rounds of the
workload's operations, each after a fresh set-up, until ``--seconds`` would
be exceeded.  The first round is a warm-up: it is checked against the
oracles but not timed.  ``setup_s`` and ``round_s`` are the medians of the
set-up and round times over the other untraced rounds, in seconds scaled to
a reference machine speed (see ``probe.py``).  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` the run alternates untraced and traced rounds and reports
per-layer figures (span wall times and counts) from the traced ones plus the
tracing overhead.  ``--workload all`` runs
every workload untraced and traced, each in its own process.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread, set before numpy loads: load comes from this one
# process, and thread scheduling on a shared machine would add noise.
THREAD_VARIABLES = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
for _name in THREAD_VARIABLES:
    os.environ[_name] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

from spans import MODULES, Tracer, ancestors, self_seconds  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("fit", "eval", "io")


def _import_library() -> None:
    """Put the checkout's ``src`` first on the path and import countcp from it."""
    package = ROOT / "src" / "countcp" / "__init__.py"
    if not package.is_file():
        raise SystemExit(f"error: {package.relative_to(ROOT)} not found; run from a countcp checkout")
    sys.path.insert(0, str(ROOT / "src"))
    import countcp

    if Path(countcp.__file__).resolve() != package.resolve():
        raise SystemExit(f"error: imported countcp from {countcp.__file__}, not from the checkout")


def machine_facts() -> dict:
    import numpy
    import scipy

    deps = numpy.show_config(mode="dicts")["Build Dependencies"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: deps.get(k, {}) for k in ("blas", "lapack")},
        "threads": {k: os.environ.get(k) for k in THREAD_VARIABLES},
        "platform": platform.platform(),
    }


# ---------------------------------------------------------------------------
# Per-layer metrics from one traced round
# ---------------------------------------------------------------------------


def layer_metrics(spans, fits_needed: int) -> dict:
    def spans_named(*names):
        return [s for s in spans if s.name in names]

    def seconds(*names):
        return sum(s.seconds for s in spans_named(*names))

    def calls(*names):
        return len(spans_named(*names))

    objective = [
        s for s in spans_named("cp.generalized_kl", "ntf.squared_error")
        if s.parent >= 0 and spans[s.parent].name
        in ("ntf.fit_ntf", "ntf.infer_heldout_time_factors_ntf")
    ]
    train = []
    for i, s in enumerate(spans):
        if s.name in ("bptf.fit", "ntf.fit_ntf"):
            above = set(ancestors(spans, i))
            if "evaluation.run_experiment" in above and "bptf.infer_heldout_time_factors" not in above:
                train.append(s)
    scored = spans_named("evaluation.region_metrics")
    region_nnz = sum(s.attrs["nnz"] for s in scored)
    scoring_rows = sum(
        s.attrs["rows"]
        for i, s in enumerate(spans)
        if s.name == "cp.reconstruct_entries" and "evaluation.region_metrics" in ancestors(spans, i)
    )
    out = {
        "bptf.update_gamma_s": seconds("bptf.update_gamma"),
        "bptf.update_gamma_calls": calls("bptf.update_gamma"),
        "bptf.compute_elbo_s": seconds("bptf.compute_elbo"),
        "bptf.update_delta_s": seconds("bptf.update_delta"),
        "bptf.sweeps": calls("bptf.compute_elbo"),
        "ntf.sweep_s": seconds("ntf.ntf_kl_sweep", "ntf.ntf_ls_sweep"),
        "ntf.sweep_calls": calls("ntf.ntf_kl_sweep", "ntf.ntf_ls_sweep"),
        "ntf.objective_s": sum(s.seconds for s in objective),
        "evaluation.train_fits": len(train),
        "evaluation.train_fit_s": sum(s.seconds for s in train),
        "evaluation.fits_per_split_model": len(train) / fits_needed if fits_needed else 0.0,
        "bptf.infer_heldout_s": seconds("bptf.infer_heldout_time_factors"),
        "ntf.infer_heldout_s": seconds("ntf.infer_heldout_time_factors_ntf"),
        "evaluation.region_metrics_s": seconds("evaluation.region_metrics"),
        "evaluation.region_cells": sum(s.attrs["cells"] for s in scored),
        "cp.reconstruct_entries_rows": sum(s.attrs["rows"] for s in spans_named("cp.reconstruct_entries")),
        "evaluation.recon_rows_per_region_nnz": scoring_rows / region_nnz if region_nnz else 0.0,
        "tensors.split_time_s": seconds("tensors.split_time"),
        "tensors.sort_by_activity_s": seconds("tensors.sort_by_activity"),
        "tensors.read_event_file_s": seconds("tensors.read_event_file"),
        "tensors.ingest_events_s": seconds("tensors.ingest_events"),
        "tensors.save_tensor_s": seconds("tensors.save_tensor"),
        "tensors.load_tensor_s": seconds("tensors.load_tensor"),
        "tensors.events_read": sum(s.attrs["events"] for s in spans_named("tensors.read_event_file")),
        "bptf.save_state_s": seconds("bptf.save_state"),
        "bptf.load_state_s": seconds("bptf.load_state"),
        "components.write_component_reports_s": seconds("components.write_component_reports"),
        "cli.main_s": seconds("cli.main"),
    }
    own = self_seconds(spans)
    for module in MODULES:
        if module == "synth":  # runs only in set-up; see synth.sample_count_tensor_s
            continue
        out[f"self.{module}_s"] = sum(
            t for s, t in zip(spans, own) if s.name.split(".")[0] == module
        )
    out["trace.spans"] = len(spans)
    return out


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_per_split_model", "_per_region_nnz")):
        return "ratio"
    return "count"


# ---------------------------------------------------------------------------
# One workload run
# ---------------------------------------------------------------------------


@dataclass
class Round:
    traced: bool
    setup_seconds: float
    ops: list
    spans: list
    synth_seconds: float
    elapsed: float  # the whole round: set-up, operations and probes

    @property
    def seconds(self) -> float:
        return sum(op.seconds for op in self.ops)


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    _import_library()
    from oracles import CheckFailed
    from probe import SpeedProbe
    from workloads import WORKLOADS

    work = ROOT / ".bench_work" / f"{name}-{seed}-{os.getpid()}"
    tracer = Tracer() if trace else None
    workload = WORKLOADS[name](work, seed)
    correct, message = True, ""
    rounds: list[Round] = []
    try:
        begin = time.perf_counter()
        probe = SpeedProbe()
        while True:
            traced = trace and len(rounds) % 2 == 1
            start = time.perf_counter()
            with tracer if traced else contextlib.nullcontext():
                workload.setup()
                setup_seconds = time.perf_counter() - start
                setup_spans = tracer.take() if traced else []
                probe.after(setup_seconds)
                ops = workload.round(probe)
            spans = tracer.take() if traced else []
            elapsed = time.perf_counter() - start
            for op in ops:
                if not op.ok:
                    print(f"failed: {op.name}: {op.detail.splitlines()[-1] if op.detail else ''}",
                          file=sys.stderr)
            synth = sum(s.seconds for s in setup_spans if s.name == "synth.sample_count_tensor")
            rounds.append(Round(traced, setup_seconds, ops, spans, synth, elapsed))
            try:
                workload.check(ops)
            except CheckFailed as exc:
                correct, message = False, str(exc)
                print(f"check failed: {exc}", file=sys.stderr)
                break
            typical = statistics.median(r.elapsed for r in rounds)
            # the warm-up round, then at least one timed untraced round (and a traced one)
            enough = len(rounds) >= (3 if trace else 2)
            if enough and time.perf_counter() - begin + typical > seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()

    attempted = sum(len(r.ops) for r in rounds)
    failed = sum(not op.ok for r in rounds for op in r.ops)
    # rounds[0] is the warm-up; it is all there is when its check failed
    untraced = [r for r in rounds[1:] if not r.traced] or rounds[:1]
    speed = probe.speed()
    print("machine " + json.dumps(machine_facts(), sort_keys=True, default=str))
    print("inputs " + json.dumps(workload.describe(), sort_keys=True))
    print(f"rounds {len(rounds)} (1 warm-up, {len(untraced)} timed untraced; t = traced)")
    print("setup wall seconds " + " ".join(
        f"{r.setup_seconds:.3f}{'t' if r.traced else ''}" for r in rounds))
    print("round wall seconds " + " ".join(
        f"{r.seconds:.3f}{'t' if r.traced else ''}" for r in rounds))
    print(f"speed {speed:.4f} (reference chunk time over the mean of {probe.chunks} probe chunks)")
    round_wall = statistics.median(r.seconds for r in untraced)
    setup_wall = statistics.median(r.setup_seconds for r in untraced)
    print(f"round_wall_s {round_wall:.6f} s, setup_wall_s {setup_wall:.6f} s "
          f"(medians of {len(untraced)} rounds, not scaled)")
    if trace:
        traced = [r for r in rounds if r.traced]
        metrics = {}
        if traced:  # none only when the first round failed its check
            per_round = [layer_metrics(r.spans, workload.fits_needed) for r in traced]
            metrics = {k: statistics.median(m[k] for m in per_round) for k in per_round[0]}
            metrics["synth.sample_count_tensor_s"] = statistics.median(
                r.synth_seconds for r in traced)
            metrics["trace.overhead_s"] = speed * (
                statistics.median(r.seconds for r in traced) - round_wall
            )
    else:
        for key, values in workload.named_seconds([r.ops for r in untraced]).items():
            print(f"{key} {speed * statistics.median(values):.6f} s "
                  f"(median of {len(untraced)} rounds, scaled)")
        metrics = {
            "round_s": speed * round_wall,
            "setup_s": speed * setup_wall,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    units = {"peak_rss_mb": "MB"}
    for key, value in sorted(metrics.items()):
        print(f"{key} {value:.6g} {units.get(key, _unit(key))}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            k: {"value": float(v), "unit": units.get(k, _unit(k))} for k, v in metrics.items()
        },
    }
    if message:
        print(f"error: {message}")
    print(json.dumps(result))
    return 0


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, each run in a child process."""
    status = 0
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            print(f"== {name} trace {trace}", flush=True)
            done = subprocess.run([
                sys.executable, __file__, "--workload", name, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(trace),
            ])
            status = status or done.returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
