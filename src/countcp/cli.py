"""Command-line entry point: ingest, fit, eval, explore, synth.

Every run is driven by explicit flags, an optional flat key=value config
file, or both; a file key is read as the flag of the same name, and
command-line flags override file values.  argparse converts every value,
so a malformed one (a list or date that does not parse, an unknown
``fit --model`` or ``eval --models`` name) exits 1 before any input is
read.  A list flag's items are separated by commas or spaces.  Each
command writes the fully resolved configuration beside its outputs, list
values joined by commas, so runs can be reproduced exactly.  Exit codes:
0 success, 1 usage or configuration error (an unreadable config file
included), 2 data error (an output that cannot be written included),
3 numerical failure.
"""

from __future__ import annotations

import argparse
import datetime as _dt
import sys
from dataclasses import fields
from pathlib import Path

from . import bptf as _bptf
from .components import write_component_reports
from .cp import _key_values, load_factors, save_factors, write_manifest, write_trace
from .errors import ConfigError, CountCPError, DataError, NumericalError
from .evaluation import (
    ExperimentSpec,
    _SIDES,
    _MODELS,
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


def _parse_bool(text: str, flag: str) -> bool:
    lowered = text.lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"argument {flag}: expected a boolean, got {text!r}")


def _typed(convert, what):
    """An argparse type: ``convert`` of the flag's text, whose ValueError is
    reported as ``argument --flag: expected <what>, got '<text>'``."""

    def parse(text):
        try:
            return convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}") from None

    return parse


def _items(item):
    """A list value: ``item`` of each comma- or space-separated token, as a tuple."""
    return lambda text: tuple(item(tok) for tok in text.replace(",", " ").split())


_INTS = _typed(_items(int), "integers")
_NUMBERS = _typed(_items(float), "numbers")
_NAMES = _items(str)
_DATE = _typed(lambda text: _dt.date.fromisoformat(text.strip()), "an ISO date")


def read_config_file(path) -> dict:
    """Flat key=value run configuration; '#' starts a comment line."""
    if not str(path):
        raise ConfigError("config file path is empty")
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


def _config_flags(subparser, path) -> list[str]:
    """The pairs of a config file as flags of ``subparser``, in file order.

    A key is read as the flag of the same name (``max_iterations`` as
    ``--max-iterations``), so argparse converts, checks and requires file
    values as it does flags; a boolean becomes ``--flag`` or ``--no-flag``.
    Unknown keys are rejected before any work happens.
    """
    actions = {
        a.dest: a
        for a in subparser._actions
        if a.dest not in ("help", "config") and a.option_strings
    }
    flags = []
    for key, value in read_config_file(path).items():
        action = actions.get(key.replace("-", "_"))
        if action is None:
            raise ConfigError(f"unknown config key {key!r}")
        flag = action.option_strings[0]
        if isinstance(action, argparse.BooleanOptionalAction):
            flags.append(flag if _parse_bool(value, flag) else action.option_strings[1])
        else:
            flags.append(f"{flag}={value}")
    return flags


def _out_dir(args) -> Path:
    out = Path(args.output_dir or f"countcp_{args.command}")
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise DataError(f"{out}: cannot make output directory: {exc.strerror or exc}") from exc
    return out


def _echo_config(args, out: Path) -> None:
    # a list flag's tuple is echoed comma-joined; a repeated --tensor's list keeps its repr
    resolved = [(k, ",".join(map(str, v)) if isinstance(v, tuple) else v)
                for k, v in sorted(vars(args).items()) if k not in ("command", "func")]
    write_manifest(out / f"{args.command}_config.txt", resolved)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_ingest(args) -> int:
    if args.start > args.end:  # checked before the event file is read
        raise ConfigError(f"empty date range {args.start}..{args.end}")
    tensor = ingest_events(
        read_event_file(args.events),
        bin_width=args.bin_width,
        date_range=(args.start, args.end),
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
    _, train = _trainer(**vars(args))  # the config is built, and checked, before the read
    fitted = train(load_tensor(args.tensor, args.labels), args.seed)
    out = _out_dir(args)  # made only once the fit has succeeded
    trace, echoed = out / "trace.txt", out / "fit_config.txt"
    try:
        write_trace(fitted.trace, trace)
        _echo_config(args, out)
        bundle = fitted.save(out)  # last, so an unwritable trace leaves no bundle
    except OSError:  # leave no trace or config that reads like a finished fit
        for path in (trace, echoed):
            if path.is_file():
                path.unlink()
        raise
    print(f"{fitted.objective} {fitted.trace.values[-1]:.10g}")
    print(f"iterations {fitted.trace.n_iterations} converged {fitted.trace.converged}")
    print(f"wrote {bundle} and {trace}")
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
    if args.threads < 1:
        raise ConfigError("--threads must be a positive integer")
    spec = ExperimentSpec(**{f.name: getattr(args, f.name) for f in fields(ExperimentSpec)})
    report = run_table(spec, _parse_tensor_specs(args.tensor), max_workers=args.threads)
    out = _out_dir(args)
    write_report_text(report, out / "report.txt", models=spec.models)
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
    labels = None
    if args.state is not None:
        state, _ = _bptf.load_state(args.state)
        factors = _bptf.point_estimate(state, args.estimate)
        shape = state.shape
    else:
        factors, labels = load_factors(args.factors)
        shape = factors.shape
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
    hyper = _hyperparameters(args.alpha, args.beta, len(args.shape))
    tensor, factors = sample_count_tensor(args.shape, args.k, hyper, args.seed)
    out = _out_dir(args)
    save_tensor(tensor, out / "tensor.txt")
    save_labels(tensor.mode_labels, out / "labels.txt")
    save_factors(factors, out / "true_factors", tensor.mode_labels)
    _echo_config(args, out)
    print(f"shape {'x'.join(str(s) for s in args.shape)}")
    print(f"entries {tensor.nnz}")
    print(f"density {density(tensor):.6g}")
    print(f"wrote {out / 'tensor.txt'}, {out / 'labels.txt'}, {out / 'true_factors'}")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _model_flags(sweep):
    """A parent parser of the model flags ``fit`` and ``eval`` share, one per
    command: ``max_iterations`` and ``tolerance`` default to those of the
    config class ``sweep``, the others to ExperimentSpec's."""
    flags = argparse.ArgumentParser(add_help=False)
    flags.add_argument("--k", type=int, default=ExperimentSpec.k, help="number of components")
    flags.add_argument("--alpha", type=float, default=ExperimentSpec.alpha, help="Gamma shape")
    flags.add_argument("--max-iterations", type=int, default=sweep.max_iterations)
    flags.add_argument("--tolerance", type=float, default=sweep.tolerance,
                       help="relative objective/ELBO convergence tolerance")
    flags.add_argument("--epsilon-floor", type=float, default=ExperimentSpec.epsilon_floor)
    return flags


def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="flat key=value config file")
    common.add_argument("--output-dir", default=None, help="directory for outputs")

    parser = _Parser(prog="countcp", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", parents=[common],
                       help="aggregate an event file into a count tensor")
    p.add_argument("--events", required=True, help="delimited event file with a header row")
    p.add_argument("--bin-width", choices=("day", "week", "month"), default="month")
    p.add_argument("--start", type=_DATE, required=True, help="inclusive ISO start date")
    p.add_argument("--end", type=_DATE, required=True, help="inclusive ISO end date")
    p.add_argument("--drop-self-actions", action=argparse.BooleanOptionalAction,
                   default=True, help="drop records whose sender equals receiver")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("fit", parents=[common, _model_flags(_bptf.FitConfig)],
                       help="fit a factorization model")
    p.add_argument("--tensor", required=True, help="coordinate-list tensor file")
    p.add_argument("--labels", help="labels file for the tensor")
    p.add_argument("--model", choices=tuple(_MODELS), required=True)
    p.add_argument("--beta", type=_NUMBERS, default="1.0",
                   help="per-mode rate multipliers (one value or a comma list)")
    p.add_argument("--learn-beta", action=argparse.BooleanOptionalAction, default=True)
    p.add_argument("--seed", type=int, default=0, help="random seed")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("eval", parents=[common, _model_flags(ExperimentSpec)],
                       help="heldout strong-generalization evaluation")
    p.add_argument("--tensor", action="append", required=True,
                   help="tensor file, optionally LABEL=PATH; repeatable")
    p.add_argument("--n-primes", type=_INTS, required=True, help="comma list of actor block sizes")
    p.add_argument("--scenario", choices=tuple(_SIDES), default=ExperimentSpec.scenario,
                   help="which side of the block to predict")
    p.add_argument("--test-fraction", type=float, default=ExperimentSpec.test_fraction)
    p.add_argument("--seeds", type=_INTS, default=ExperimentSpec.seeds,
                   help="comma list of split seeds")
    p.add_argument("--models", type=_NAMES, default=ExperimentSpec.models)
    p.add_argument("--threads", type=int, default=1,
                   help="max worker threads for independent split seeds")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("explore", parents=[common],
                       help="rank components and write summaries")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--state", help="variational state bundle directory")
    source.add_argument("--factors", help="factor bundle directory")
    p.add_argument("--labels", help="labels file")
    p.add_argument("--estimate", choices=("geometric", "arithmetic"),
                   default="geometric", help="point estimate for state bundles")
    p.add_argument("--top-n", type=int, default=10)
    p.set_defaults(func=cmd_explore)

    p = sub.add_parser("synth", parents=[common],
                       help="sample a tensor from the generative model")
    p.add_argument("--shape", type=_INTS, required=True, help="comma list of mode sizes")
    p.add_argument("--k", type=int, default=5, help="number of components")
    p.add_argument("--alpha", type=float, default=0.1)
    p.add_argument("--beta", type=_NUMBERS, default="1.0",
                   help="per-mode rate multipliers (one value or a comma list)")
    p.add_argument("--seed", type=int, default=0, help="random seed")
    p.set_defaults(func=cmd_synth)

    return parser, {name: sp for name, sp in sub.choices.items()}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        parser, subparsers = build_parser()
        if argv and argv[0] in subparsers:
            peek = _Parser(add_help=False)
            peek.add_argument("--config")
            config = peek.parse_known_args(argv[1:])[0].config
            if config is not None:
                # right after the command name, so flags given later win
                argv[1:1] = _config_flags(subparsers[argv[0]], config)
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


if __name__ == "__main__":
    entry()
