"""Command-line entry point: ingest, fit, eval, explore, synth.

Every run is driven by explicit flags, an optional flat key=value config
file, or both; command-line flags override file values.  Each command
writes the fully resolved configuration beside its outputs so runs can be
reproduced exactly.  Exit codes: 0 success, 1 usage or configuration
error (an unreadable config file included), 2 data error (an output that
cannot be written included), 3 numerical failure.
"""

from __future__ import annotations

import argparse
import datetime as _dt
import sys
from pathlib import Path

from . import bptf as _bptf
from .components import write_component_reports
from .cp import _key_values, load_factors, save_factors, write_manifest, write_trace
from .errors import ConfigError, CountCPError, DataError, NumericalError
from .evaluation import (
    ExperimentSpec,
    MODEL_NAMES,
    _SIDES,
    _hyperparameters,
    _trainer,
    run_table,
    write_report_json,
    write_report_text,
)
from .synth import sample_count_tensor
from .tensors import (
    density,
    ingest_events,
    load_labels,
    load_tensor,
    read_event_file,
    save_labels,
    save_tensor,
    vmr_nonzero,
)


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as ConfigError (exit code 1) and
    reads no abbreviated flag, so ``eval --seed`` is not taken for ``--seeds``."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        raise ConfigError(message)


def _parse_bool(text: str) -> bool:
    lowered = str(text).strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {text!r}")


def _parse_ints(text: str) -> list[int]:
    try:
        return [int(tok) for tok in str(text).replace(",", " ").split()]
    except ValueError as exc:
        raise ConfigError(f"expected integers, got {text!r}") from exc


def _parse_floats(text: str) -> list[float]:
    try:
        return [float(tok) for tok in str(text).replace(",", " ").split()]
    except ValueError as exc:
        raise ConfigError(f"expected numbers, got {text!r}") from exc


def _parse_date(text: str) -> _dt.date:
    try:
        return _dt.date.fromisoformat(str(text).strip())
    except ValueError as exc:
        raise ConfigError(f"expected an ISO date, got {text!r}") from exc


def read_config_file(path) -> dict:
    """Flat key=value run configuration; '#' starts a comment line."""
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise ConfigError(f"config file {path}: {exc.strerror or exc}") from exc
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ConfigError(f"{path}: line {line}: not utf-8 text") from exc
    return _key_values(text.splitlines(), path, ConfigError)


def _apply_config_defaults(subparser, config: dict) -> None:
    """Config-file values become parser defaults, so explicit flags win.

    Unknown keys are rejected before any work happens.
    """
    actions = {
        a.dest: a
        for a in subparser._actions
        if a.dest not in ("help", "config") and a.option_strings
    }
    updates = {}
    for key, value in config.items():
        dest = key.replace("-", "_")
        action = actions.get(dest)
        if action is None:
            raise ConfigError(f"unknown config key {key!r}")
        if isinstance(action, argparse.BooleanOptionalAction) or action.nargs == 0:
            updates[dest] = _parse_bool(value)
        elif action.type is not None:
            try:
                updates[dest] = action.type(value)
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"config key {key!r}: {exc}") from exc
        elif isinstance(action, argparse._AppendAction):
            updates[dest] = [value]
        else:
            updates[dest] = value
        if action.choices is not None and updates[dest] not in action.choices:
            raise ConfigError(
                f"config key {key!r}: must be one of {sorted(action.choices)}"
            )
    subparser.set_defaults(**updates)


def _require(args, name: str):
    value = getattr(args, name.replace("-", "_"))
    if value is None:
        raise ConfigError(f"missing required option --{name}")
    return value


def _out_dir(args) -> Path:
    out = Path(args.output_dir or f"countcp_{args.command}")
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise DataError(f"{out}: cannot make output directory: {exc.strerror or exc}") from exc
    return out


def _echo_config(args, out: Path) -> None:
    resolved = [(k, v) for k, v in sorted(vars(args).items()) if k not in ("command", "func")]
    write_manifest(out / f"{args.command}_config.txt", resolved)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_ingest(args) -> int:
    events = _require(args, "events")
    start = _parse_date(_require(args, "start"))
    end = _parse_date(_require(args, "end"))
    if start > end:  # checked before the event file is read
        raise ConfigError(f"empty date range {start}..{end}")
    tensor = ingest_events(
        read_event_file(events),
        bin_width=args.bin_width,
        date_range=(start, end),
        drop_self_actions=args.drop_self_actions,
    )
    out = _out_dir(args)
    save_tensor(tensor, out / "tensor.txt")
    save_labels(tensor.mode_labels, out / "labels.txt")
    _echo_config(args, out)
    shape_text = "x".join(str(s) for s in tensor.shape)
    try:
        vmr_text = f"{vmr_nonzero(tensor):.6g}"
    except CountCPError:
        vmr_text = "nan"
    print(f"shape {shape_text}")
    print(f"entries {tensor.nnz}")
    print(f"density {density(tensor):.6g}")
    print(f"vmr {vmr_text}")
    print(f"wrote {out / 'tensor.txt'} and {out / 'labels.txt'}")
    return 0


def cmd_fit(args) -> int:
    tensor = load_tensor(_require(args, "tensor"), args.labels)
    _, train = _trainer(
        _require(args, "model"), tensor.ndim, k=args.k, max_iterations=args.max_iterations,
        tolerance=args.tolerance, alpha=args.alpha, beta=_parse_floats(args.beta),
        learn_beta=args.learn_beta, epsilon_floor=args.epsilon_floor,
    )
    fitted = train(tensor, args.seed)
    out = _out_dir(args)  # made only once the fit has succeeded
    write_trace(fitted.trace, out / "trace.txt")
    _echo_config(args, out)
    bundle = fitted.save(out)  # last, so an unwritable trace leaves no bundle
    print(f"{fitted.objective} {fitted.trace.values[-1]:.10g}")
    print(f"iterations {fitted.trace.n_iterations} converged {fitted.trace.converged}")
    print(f"wrote {bundle} and {out / 'trace.txt'}")
    return 0


def _parse_tensor_specs(specs) -> dict:
    paths = {}
    for item in specs:
        label, _, path = item.partition("=")
        if not path:
            path, label = label, Path(label).stem
        if label in paths:
            raise ConfigError(f"--tensor label {label!r} is given twice")
        paths[label] = path
    return {label: load_tensor(path) for label, path in paths.items()}


def cmd_eval(args) -> int:
    if not args.tensor:
        raise ConfigError("at least one --tensor is required")
    if args.threads < 1:
        raise ConfigError("--threads must be a positive integer")
    tensors = _parse_tensor_specs(args.tensor)
    models = tuple(str(args.models).replace(",", " ").split())
    spec = ExperimentSpec(
        n_primes=tuple(_parse_ints(_require(args, "n-primes"))),
        scenario=args.scenario,
        test_fraction=args.test_fraction,
        seeds=tuple(_parse_ints(args.seeds)),
        k=args.k,
        models=models,
        alpha=args.alpha,
        max_iterations=args.max_iterations,
        tolerance=args.tolerance,
        epsilon_floor=args.epsilon_floor,
    )
    report = run_table(spec, tensors, max_workers=args.threads)
    out = _out_dir(args)
    write_report_text(report, out / "report.txt", models=models)
    write_report_json(report, out / "report.json")
    _echo_config(args, out)
    failed = sum(len(sc.failures) for sc in report.scenarios)
    scored = sum(len(sc.models) for sc in report.scenarios)
    print((out / "report.txt").read_text(), end="")
    print(f"wrote {out / 'report.txt'} and {out / 'report.json'}")
    if scored == 0 and failed > 0:
        raise NumericalError("every model failed in every scenario")
    return 0


def cmd_explore(args) -> int:
    if args.state and args.factors:
        raise ConfigError("give either --state or --factors, not both")
    labels = None
    if args.state:
        state, _ = _bptf.load_state(args.state)
        factors = _bptf.point_estimate(state, args.estimate)
        shape = state.shape
    elif args.factors:
        factors, labels = load_factors(args.factors)
        shape = factors.shape
    else:
        raise ConfigError("one of --state or --factors is required")
    if args.labels:
        labels = load_labels(args.labels, shape)
    if labels is None:
        raise ConfigError("a labels file is required (none found in the bundle)")
    out = _out_dir(args)
    write_component_reports(factors, labels, out, top_n=args.top_n)
    _echo_config(args, out)
    print(f"wrote ranked component reports to {out}")
    return 0


def cmd_synth(args) -> int:
    shape = tuple(_parse_ints(_require(args, "shape")))
    hyper = _hyperparameters(args.alpha, _parse_floats(args.beta), len(shape))
    tensor, factors = sample_count_tensor(shape, args.k, hyper, args.seed)
    out = _out_dir(args)
    save_tensor(tensor, out / "tensor.txt")
    save_labels(tensor.mode_labels, out / "labels.txt")
    save_factors(factors, out / "true_factors", tensor.mode_labels)
    _echo_config(args, out)
    print(f"shape {'x'.join(str(s) for s in shape)}")
    print(f"entries {tensor.nnz}")
    print(f"density {density(tensor):.6g}")
    print(f"wrote {out / 'tensor.txt'}, {out / 'labels.txt'}, {out / 'true_factors'}")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="flat key=value config file")
    common.add_argument("--output-dir", default=None, help="directory for outputs")

    parser = _Parser(prog="countcp", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", parents=[common],
                       help="aggregate an event file into a count tensor")
    p.add_argument("--events", help="delimited event file with a header row")
    p.add_argument("--bin-width", choices=("day", "week", "month"), default="month")
    p.add_argument("--start", help="inclusive ISO start date")
    p.add_argument("--end", help="inclusive ISO end date")
    p.add_argument("--drop-self-actions", action=argparse.BooleanOptionalAction,
                   default=True, help="drop records whose sender equals receiver")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("fit", parents=[common], help="fit a factorization model")
    p.add_argument("--tensor", help="coordinate-list tensor file")
    p.add_argument("--labels", help="labels file for the tensor")
    p.add_argument("--model", help="bptf, ntf-kl or ntf-ls")
    p.add_argument("--k", type=int, default=50, help="number of components")
    p.add_argument("--max-iterations", type=int, default=500)
    p.add_argument("--tolerance", type=float, default=1e-5,
                   help="relative objective/ELBO convergence tolerance")
    p.add_argument("--alpha", type=float, default=0.1, help="Gamma shape")
    p.add_argument("--beta", default="1.0",
                   help="per-mode rate multipliers (one value or a comma list)")
    p.add_argument("--learn-beta", action=argparse.BooleanOptionalAction, default=True)
    p.add_argument("--epsilon-floor", type=float, default=1e-12)
    p.add_argument("--seed", type=int, default=0, help="random seed")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("eval", parents=[common],
                       help="heldout strong-generalization evaluation")
    p.add_argument("--tensor", action="append", default=[],
                   help="tensor file, optionally LABEL=PATH; repeatable")
    p.add_argument("--n-primes", help="comma list of actor block sizes")
    p.add_argument("--scenario", choices=tuple(_SIDES),
                   default="both", help="which side of the block to predict")
    p.add_argument("--test-fraction", type=float, default=0.2)
    p.add_argument("--seeds", default="0,1,2", help="comma list of split seeds")
    p.add_argument("--k", type=int, default=50)
    p.add_argument("--models", default=",".join(MODEL_NAMES))
    p.add_argument("--alpha", type=float, default=0.1)
    p.add_argument("--max-iterations", type=int, default=200)
    p.add_argument("--tolerance", type=float, default=1e-4)
    p.add_argument("--epsilon-floor", type=float, default=1e-12)
    p.add_argument("--threads", type=int, default=1,
                   help="max worker threads for independent split seeds")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("explore", parents=[common],
                       help="rank components and write summaries")
    p.add_argument("--state", help="variational state bundle directory")
    p.add_argument("--factors", help="factor bundle directory")
    p.add_argument("--labels", help="labels file")
    p.add_argument("--estimate", choices=("geometric", "arithmetic"),
                   default="geometric", help="point estimate for state bundles")
    p.add_argument("--top-n", type=int, default=10)
    p.set_defaults(func=cmd_explore)

    p = sub.add_parser("synth", parents=[common],
                       help="sample a tensor from the generative model")
    p.add_argument("--shape", help="comma list of mode sizes")
    p.add_argument("--k", type=int, default=5, help="number of components")
    p.add_argument("--alpha", type=float, default=0.1)
    p.add_argument("--beta", default="1.0",
                   help="per-mode rate multipliers (one value or a comma list)")
    p.add_argument("--seed", type=int, default=0, help="random seed")
    p.set_defaults(func=cmd_synth)

    return parser, {name: sp for name, sp in sub.choices.items()}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        parser, subparsers = build_parser()
        peek, _ = parser.parse_known_args(argv)
        if peek.config:
            _apply_config_defaults(subparsers[peek.command], read_config_file(peek.config))
        args = parser.parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # an output path the system refuses to write
        where = f"{exc.filename}: " if exc.filename else ""
        print(f"data error: {where}{exc.strerror or exc}", file=sys.stderr)
        return 2
    except (NumericalError, FloatingPointError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(main())
