"""End-to-end command-line runs, exit codes, and config precedence."""

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import countcp
import countcp.bptf
import countcp.ntf
import countcp.synth
from countcp import (
    FitConfig,
    Hyperparameters,
    NtfConfig,
    NumericalDegeneracyError,
    VariationalState,
    load_tensor,
    save_factors,
    save_state,
    write_trace,
)
from countcp.cli import build_parser, main

EVENTS = """sender,receiver,action,timestamp
Abaria,Bedoria,Consult,2001-01-10T09:00:00
Abaria,Bedoria,Consult,2001-01-22T10:00:00
Bedoria,Abaria,Fight,2001-02-03T12:00:00
Cedonia,Abaria,Consult,2001-03-15T08:30:00
"""

# Heldout NTF-LS inference on this table drives its time factors to inf.
OVERFLOWING_LS_TENSOR = """3 3 1 5
0 0 0 3 1115254482146
1 0 0 4 514725
1 2 0 1 1879678898833
"""

# numpy warns on an empty matrix file; that warning must never reach stderr
NO_WARNING = pytest.mark.filterwarnings("error::UserWarning")


# every flag each command reads, bar --output-dir and explore's --factors
# (the alternative to --state), as config-file pairs; {synth}, {events} and
# {state} name the test's inputs
EVERY_FLAG = {
    "synth": {"shape": "6,6,2,5", "k": "2", "alpha": "0.3", "beta": "1.0,2.0,1.0,0.5",
              "seed": "3"},
    "ingest": {"events": "{events}", "bin_width": "week", "start": "2001-01-01",
               "end": "2001-03-31", "drop_self_actions": "off"},
    "fit": {"tensor": "{synth}/tensor.txt", "labels": "{synth}/labels.txt", "model": "bptf",
            "k": "2", "max_iterations": "3", "tolerance": "1e-6", "alpha": "0.2",
            "beta": "1.0,2.0,1.0,0.5", "learn_beta": "off", "epsilon_floor": "1e-10",
            "seed": "1"},
    "eval": {"tensor": "one={synth}/tensor.txt", "n_primes": "3", "scenario": "block",
             "test_fraction": "0.25", "seeds": "0", "k": "2", "models": "bptf-geo,ntf-kl",
             "alpha": "0.2", "max_iterations": "3", "tolerance": "1e-3",
             "epsilon_floor": "1e-10", "threads": "1"},
    "explore": {"state": "{state}", "labels": "{synth}/labels.txt", "estimate": "arithmetic",
                "top_n": "3"},
}

# <command>_config.txt of the runs of TestConfigFile.test_canonical_run_echoes_these_bytes
CANONICAL_ECHO = {
    "synth": """alpha = 0.3
beta = 1.0,2.0,1.0,0.5
config = None
k = 2
output_dir = synth
seed = 5
shape = 8,8,2,10
""",
    "fit": """alpha = 0.1
beta = 1.0
config = None
epsilon_floor = 1e-12
k = 2
labels = synth/labels.txt
learn_beta = True
max_iterations = 3
model = ntf-kl
output_dir = fit
seed = 1
tensor = synth/tensor.txt
tolerance = 1e-05
""",
    "eval": """alpha = 0.1
config = None
epsilon_floor = 1e-12
k = 2
max_iterations = 3
models = ntf-ls,ntf-kl,bptf-geo,bptf-ari
n_primes = 3,5
output_dir = eval
scenario = block
seeds = 0,1,2
tensor = ['synth/tensor.txt']
test_fraction = 0.2
threads = 1
tolerance = 0.0001
""",
    "ingest": """bin_width = week
config = None
drop_self_actions = True
end = 2001-03-31
events = events.csv
output_dir = ingest
start = 2001-01-01
""",
}


def sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def tree(root):
    return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def run_ingest(tmp_path, extra=()):
    events = tmp_path / "events.csv"
    if not events.exists():
        events.write_text(EVENTS)
    out = tmp_path / "ingested"
    code = main(
        [
            "ingest",
            "--events", str(events),
            "--start", "2001-01-01",
            "--end", "2001-03-31",
            "--bin-width", "month",
            "--output-dir", str(out),
            *extra,
        ]
    )
    return code, out


class TestIngestCommand:
    def test_label_with_a_tab_exits_2_naming_the_line(self, tmp_path, capsys):
        (tmp_path / "events.csv").write_text(EVENTS.replace("Abaria,Bedoria,Consult,2001-01-10",
                                                            '"A\tX",Bedoria,Consult,2001-01-10'))
        code, out = run_ingest(tmp_path)
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"data error: {tmp_path / 'events.csv'}: line 2: "
                       "event record 'sender' field holds a tab or line break"]
        assert not (out / "labels.txt").exists()

    def test_toy_events_echo_shape(self, tmp_path, capsys):
        code, out = run_ingest(tmp_path)
        assert code == 0
        stdout = capsys.readouterr().out
        assert "shape 3x3x2x3" in stdout
        assert (out / "tensor.txt").exists()
        assert (out / "labels.txt").exists()
        assert (out / "ingest_config.txt").exists()

    def test_malformed_timestamp_exits_2_with_line_number(self, tmp_path, capsys):
        events = tmp_path / "events.csv"
        events.write_text(
            "sender,receiver,action,timestamp\na,b,x,2001-01-10\na,b,x,garbage\n"
        )
        code, _ = run_ingest(tmp_path)
        assert code == 2
        assert "line 3" in capsys.readouterr().err

    def test_rerun_is_byte_identical(self, tmp_path):
        code, out = run_ingest(tmp_path)
        assert code == 0
        first = sha(out / "tensor.txt")
        code, out = run_ingest(tmp_path)
        assert code == 0
        assert sha(out / "tensor.txt") == first


class TestFitCommand:
    def fit(self, tmp_path, model, extra=()):
        _, ingested = run_ingest(tmp_path)
        out = tmp_path / f"fit_{model}"
        code = main(
            [
                "fit",
                "--tensor", str(ingested / "tensor.txt"),
                "--labels", str(ingested / "labels.txt"),
                "--model", model,
                "--k", "2",
                "--max-iterations", "2",
                "--seed", "1",
                "--output-dir", str(out),
            *extra,
            ]
        )
        return code, out

    def test_bptf_trace_has_requested_rows(self, tmp_path):
        code, out = self.fit(tmp_path, "bptf")
        assert code == 0
        lines = (out / "trace.txt").read_text().strip().splitlines()
        assert len(lines) == 2
        assert (out / "state" / "manifest.txt").exists()

    def test_unknown_model_is_a_usage_error(self, tmp_path, capsys):
        code, _ = self.fit(tmp_path, "pca")
        assert code == 1
        assert "argument --model: invalid choice: 'pca'" in capsys.readouterr().err

    def test_fixed_seed_reproduces_output_files(self, tmp_path):
        code, out1 = self.fit(tmp_path, "ntf-kl")
        assert code == 0
        checksum = sha(out1 / "factors" / "factors_mode0.txt")
        out2 = tmp_path / "again"
        _, ingested = run_ingest(tmp_path)
        code = main(
            [
                "fit",
                "--tensor", str(ingested / "tensor.txt"),
                "--model", "ntf-kl",
                "--k", "2",
                "--max-iterations", "2",
                "--seed", "1",
                "--output-dir", str(out2),
            ]
        )
        assert code == 0
        assert sha(out2 / "factors" / "factors_mode0.txt") == checksum


def labels_text(shape):
    return "".join(f"{m}\t{i}\tL{m}.{i}\n" for m, s in enumerate(shape) for i in range(s))


def fit_files(directory, tensor_text, labels):
    directory = Path(directory)
    (directory / "tensor.txt").write_text(tensor_text)
    (directory / "labels.txt").write_text(labels)
    return main(
        [
            "fit",
            "--tensor", str(directory / "tensor.txt"),
            "--labels", str(directory / "labels.txt"),
            "--model", "bptf",
            "--k", "1",
            "--max-iterations", "1",
            "--output-dir", str(directory / "out"),
        ]
    )


GOOD_LABELS = labels_text((3, 3, 2))
TOKENS = st.one_of(st.integers(-3, 9).map(str), st.sampled_from(["", "x", "1.5"]))
FUZZ = settings(max_examples=60, deadline=None, database=None, derandomize=True)


class TestFitMatchesLibrary:
    @pytest.mark.parametrize("model", ["bptf", "ntf-kl", "ntf-ls"])
    def test_bundle_and_trace_bytes_equal_the_library_path(self, synth_tensor, tmp_path, model):
        cli_out, lib_out = tmp_path / "cli", tmp_path / "lib"
        code = main(["fit", "--tensor", str(synth_tensor / "tensor.txt"),
                     "--labels", str(synth_tensor / "labels.txt"), "--model", model,
                     "--k", "3", "--max-iterations", "6", "--tolerance", "1e-6",
                     "--seed", "4", "--alpha", "0.4", "--beta", "1,2,0.5,3",
                     "--no-learn-beta", "--epsilon-floor", "1e-3",
                     "--output-dir", str(cli_out)])
        assert code == 0
        tensor = load_tensor(synth_tensor / "tensor.txt", synth_tensor / "labels.txt")
        if model == "bptf":
            config = FitConfig(k=3, max_iterations=6, tolerance=1e-6, seed=4,
                               learn_beta=False)
            hyper = Hyperparameters(alpha=0.4, beta=(1.0, 2.0, 0.5, 3.0))
            state, hyper, trace = countcp.bptf.fit(tensor, config, hyper)
            save_state(state, hyper, lib_out / "state")
        else:
            config = NtfConfig(k=3, max_iterations=6, tolerance=1e-6, seed=4,
                               cost=model[len("ntf-"):], epsilon_floor=1e-3)
            factors, trace = countcp.ntf.fit_ntf(tensor, config)
            save_factors(factors, lib_out / "factors", tensor.mode_labels)
        write_trace(trace, lib_out / "trace.txt")
        (cli_out / "fit_config.txt").unlink()
        assert tree_bytes(cli_out) == tree_bytes(lib_out)


def tree_bytes(root):
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*"))
            if p.is_file()}


class TestMalformedFitInput:
    @pytest.mark.parametrize(
        "tensor_text, labels, bad_line",
        [
            ("3 3 2\n0 1 0 2\n2 3 1 1\n", GOOD_LABELS, 3),
            ("3 3 2\n0 -1 0 2\n", GOOD_LABELS, 2),
            ("3 3 2\n0 1 0 2\n\n1 1 1 0\n", GOOD_LABELS, 4),
            ("3 3 2\n0 1 0 -2\n", GOOD_LABELS, 2),
            ("3 0 2\n0 1 0 2\n", GOOD_LABELS, 1),
            ("3 3 2\n0 1 0 2\n", GOOD_LABELS.replace("0\t1\t", "x\t1\t"), 2),
            ("3 3 2\n0 1 0 2\n", GOOD_LABELS.replace("1\t0\t", "1\t0.5\t"), 4),
        ],
        ids=[
            "coordinate-past-mode-size",
            "negative-coordinate",
            "zero-count-after-blank-line",
            "negative-count",
            "zero-mode-size",
            "labels-non-integer-mode",
            "labels-non-integer-index",
        ],
    )
    def test_exits_2_naming_the_line(self, tmp_path, capsys, tensor_text, labels, bad_line):
        assert fit_files(tmp_path, tensor_text, labels) == 2
        assert f"line {bad_line}:" in capsys.readouterr().err

    @FUZZ
    @given(data=st.data())
    def test_one_corrupted_token_never_raises(self, data):
        shape = data.draw(st.lists(st.integers(1, 5), min_size=2, max_size=4))
        entries = data.draw(
            st.lists(
                st.tuples(*(st.integers(0, s - 1) for s in shape), st.integers(1, 5)),
                min_size=1,
                max_size=4,
            )
        )
        files = {
            " ": [list(map(str, shape))] + [list(map(str, e)) for e in entries],
            "\t": [line.split("\t") for line in labels_text(shape).splitlines()],
        }
        sep = data.draw(st.sampled_from(sorted(files)))
        lines = files[sep]
        row = data.draw(st.integers(0, len(lines) - 1))
        col = data.draw(st.integers(0, len(lines[row]) - 1))
        lines[row][col] = data.draw(TOKENS)
        tensor_text, labels = (
            "\n".join(sep.join(t for t in line if t) for line in files[s]) + "\n"
            for s in (" ", "\t")
        )
        with tempfile.TemporaryDirectory() as directory:
            assert fit_files(directory, tensor_text, labels) in (0, 1, 2)


class TestMalformedInputFiles:
    def test_missing_tensor_file_exits_2(self, tmp_path, capsys):
        missing = tmp_path / "nope.txt"
        code = main(["fit", "--tensor", str(missing), "--model", "bptf",
                     "--output-dir", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("data error:")
        assert str(missing) in err[0]

    @pytest.mark.parametrize("option", ["--labels", "--events", "--state", "--factors"])
    def test_missing_labels_or_event_file_exits_2(self, tmp_path, capsys, option):
        (tmp_path / "tensor.txt").write_text("3 3 2\n0 1 0 2\n")
        command = {
            "--labels": ["fit", "--tensor", str(tmp_path / "tensor.txt"), "--model", "bptf"],
            "--events": ["ingest", "--start", "2001-01-01", "--end", "2001-03-31"],
            "--state": ["explore"],  # a bundle directory with no manifest.txt
            "--factors": ["explore"],
        }[option]
        code = main([*command, option, str(tmp_path / "nope"),
                     "--output-dir", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("data error:")
        assert str(tmp_path / "nope") in err[0] and "cannot open" in err[0]

    @pytest.mark.parametrize(
        "command, name, text, bad_line",
        [
            ("fit", "tensor.txt", "3 3 2\n0 1 0 2\n@ 1 0 1\n", 3),
            ("fit", "tensor.txt", "3 3 2\n" + "0 1 0 2\n" * 10_000 + "@ 1 0 1\n", 10_002),
            ("fit", "labels.txt", GOOD_LABELS.replace("0\t1\tL0.1", "0\t1\tL0.@"), 2),
            ("ingest", "events.csv", EVENTS.replace("Cedonia", "C@donia"), 5),
            ("explore", "manifest.txt", "modes = 4\nk = @\n", 2),
        ],
        ids=["tensor", "tensor-past-first-chunk", "labels", "events", "manifest"],
    )
    def test_non_utf8_input_exits_2(self, tmp_path, capsys, command, name, text, bad_line):
        (tmp_path / "tensor.txt").write_text("3 3 2\n0 1 0 2\n")
        (tmp_path / "labels.txt").write_text(GOOD_LABELS)
        (tmp_path / "events.csv").write_text(EVENTS)
        (tmp_path / "state").mkdir()
        bad = tmp_path / ("state" if name == "manifest.txt" else "") / name
        bad.write_bytes(text.encode().replace(b"@", b"\xff\xfe"))
        argv = {
            "fit": ["fit", "--tensor", str(tmp_path / "tensor.txt"),
                    "--labels", str(tmp_path / "labels.txt"), "--model", "bptf", "--k", "1"],
            "ingest": ["ingest", "--events", str(tmp_path / "events.csv"),
                       "--start", "2001-01-01", "--end", "2001-03-31"],
            "explore": ["explore", "--state", str(tmp_path / "state")],
        }[command]
        code = main([*argv, "--output-dir", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"data error: {bad}: line {bad_line}: not utf-8 text"]

    def test_oversized_event_field_exits_2(self, tmp_path, capsys):
        # the csv module refuses fields over 131,072 characters
        events = tmp_path / "events.csv"
        events.write_text(f"sender,receiver,action,timestamp\nA,B,{'x' * 200_000},2001-01-10\n")
        code = main(["ingest", "--events", str(events), "--start", "2001-01-01",
                     "--end", "2001-03-31", "--output-dir", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"data error: {events}: line 2: field larger than field limit (131072)"]

    @pytest.mark.parametrize("model", ["bptf", "ntf-kl", "ntf-ls"])
    def test_one_mode_tensor_exits_2(self, tmp_path, capsys, model):
        (tmp_path / "tensor.txt").write_text("3\n0 2\n2 1\n")
        code = main(["fit", "--tensor", str(tmp_path / "tensor.txt"), "--model", model,
                     "--k", "2", "--output-dir", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["data error: a tensor needs at least two modes, got shape (3,)"]

    @pytest.mark.parametrize("model", ["bptf", "ntf-kl", "ntf-ls"])
    def test_empty_tensor_exits_2(self, tmp_path, capsys, model):
        (tmp_path / "tensor.txt").write_text("3 3 2\n")
        code = main(["fit", "--tensor", str(tmp_path / "tensor.txt"), "--model", model,
                     "--k", "2", "--output-dir", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["data error: cannot fit a tensor with no stored entries (shape (3, 3, 2))"]

    @pytest.mark.parametrize("model", ["bptf", "ntf-kl", "ntf-ls"])
    @pytest.mark.parametrize("failure", ["empty", "numerical"])
    def test_failed_fit_leaves_no_output_dir(self, synth_tensor, tmp_path, capsys,
                                             monkeypatch, model, failure):
        tensor = synth_tensor / "tensor.txt"
        if failure == "empty":
            tensor = tmp_path / "header-only.txt"
            tensor.write_text("3 3 2\n")
        else:
            def degenerate(*args, **kwargs):
                raise NumericalDegeneracyError("synthetic failure")

            monkeypatch.setattr(countcp.bptf, "fit", degenerate)
            monkeypatch.setattr(countcp.ntf, "fit_ntf", degenerate)
        code = main(["fit", "--tensor", str(tensor), "--model", model, "--k", "2",
                     "--output-dir", str(tmp_path / "new" / "sub")])
        assert code == {"empty": 2, "numerical": 3}[failure]
        assert len(capsys.readouterr().err.strip().splitlines()) == 1
        assert not (tmp_path / "new").exists()

    @pytest.mark.parametrize(
        "option, name, corrupt, names_file",
        [
            ("--state", "gamma_mode1.txt", None, False),
            ("--state", "gamma_mode0.txt", lambda text: text + "1 2 x\n", True),
            ("--state", "manifest.txt", lambda text: drop_line(text, "beta"), False),
            ("--state", "gamma_mode0.txt", lambda text: "-" + text, False),
            ("--state", "manifest.txt",
             lambda text: text.replace("\nbeta = ", "\nbeta = 1 "), False),
            ("--factors", "factors_mode2.txt", None, False),
            ("--factors", "manifest.txt", lambda text: drop_line(text, "matrix_1"), False),
            ("--factors", "factors_mode0.txt", lambda text: "-" + text, False),
            ("--factors", "manifest.txt",
             lambda text: text.replace("modes = 4", "modes = x"), False),
            pytest.param("--state", "gamma_mode1.txt", lambda text: "", True, marks=NO_WARNING),
            pytest.param("--state", "delta_mode0.txt", lambda text: "x y\n", True,
                         marks=NO_WARNING),
            pytest.param("--factors", "factors_mode0.txt", lambda text: "", True,
                         marks=NO_WARNING),
            pytest.param("--factors", "factors_mode1.txt", lambda text: "x y\n", True,
                         marks=NO_WARNING),
        ],
        ids=["state-missing-matrix", "state-bad-row", "state-no-beta",
             "state-negative-gamma", "state-extra-beta", "factors-missing-matrix",
             "factors-no-matrix-key", "factors-negative", "factors-bad-modes",
             "state-empty-matrix", "state-bad-value", "factors-empty-matrix",
             "factors-bad-value"],
    )
    def test_broken_bundle_exits_2(self, synth_tensor, tmp_path, capsys,
                                   option, name, corrupt, names_file):
        model = "bptf" if option == "--state" else "ntf-kl"
        fit_out = tmp_path / "fit"
        assert main(["fit", "--tensor", str(synth_tensor / "tensor.txt"), "--model", model,
                     "--k", "3", "--max-iterations", "2",
                     "--output-dir", str(fit_out)]) == 0
        bundle = fit_out / option.lstrip("-")
        path = bundle / name
        if corrupt is None:
            path.unlink()
        else:
            path.write_text(corrupt(path.read_text()))
        capsys.readouterr()
        code = main(["explore", option, str(bundle),
                     "--labels", str(synth_tensor / "labels.txt"),
                     "--output-dir", str(tmp_path / "explore")])
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()
        # what numpy says after the file name varies across its versions
        head = f"data error: {bundle}: {name}: " if names_file else f"data error: {bundle}: "
        assert len(err) == 1 and err[0].startswith(head)

    @FUZZ
    @given(data=st.data())
    def test_one_corrupted_event_token_never_raises(self, data):
        lines = [line.split(",") for line in EVENTS.splitlines()]
        row = data.draw(st.integers(0, len(lines) - 1))
        col = data.draw(st.integers(0, len(lines[row]) - 1))
        lines[row][col] = data.draw(TOKENS)
        with tempfile.TemporaryDirectory() as directory:
            events = Path(directory) / "events.csv"
            events.write_text("\n".join(",".join(line) for line in lines) + "\n")
            code = main(["ingest", "--events", str(events), "--start", "2001-01-01",
                         "--end", "2001-03-31", "--output-dir", str(Path(directory) / "out")])
        assert code in (0, 1, 2)

    @FUZZ
    @given(data=st.data())
    def test_one_corrupted_config_token_never_raises(self, data):
        model = data.draw(st.sampled_from(["bptf", "ntf-kl", "ntf-ls"]))
        with tempfile.TemporaryDirectory() as directory:
            directory = Path(directory)
            (directory / "tensor.txt").write_text("3 3 2\n0 1 0 2\n2 2 1 1\n")
            (directory / "labels.txt").write_text(GOOD_LABELS)
            pairs = [
                ["tensor", str(directory / "tensor.txt")],
                ["labels", str(directory / "labels.txt")],
                ["model", model], ["k", "2"], ["max_iterations", "3"],
                ["tolerance", "1e-4"], ["alpha", "0.5"], ["beta", "1.0"],
                ["learn_beta", "true"], ["epsilon_floor", "1e-12"], ["seed", "1"],
            ]
            row = data.draw(st.integers(0, len(pairs) - 1))
            pairs[row][data.draw(st.integers(0, 1))] = data.draw(TOKENS)
            config = directory / "run.cfg"
            config.write_text("".join(f"{key} = {value}\n" for key, value in pairs))
            code = main(["fit", "--config", str(config),
                         "--output-dir", str(directory / "out")])
        assert code in (0, 1, 2)


class TestInvalidOptionValues:
    @pytest.mark.parametrize(
        "extra",
        [
            ["--model", "bptf", "--k", "0"],
            ["--model", "bptf", "--alpha", "-1"],
            ["--model", "bptf", "--tolerance", "0"],
            ["--model", "bptf", "--seed", "-1"],
            ["--model", "ntf-kl", "--max-iterations", "0"],
            ["--model", "ntf-ls", "--epsilon-floor", "-1"],
            ["--model", "bptf", "--beta", "1,2"],
        ],
        ids=["k-0", "alpha-negative", "tolerance-0", "seed-negative",
             "ntf-max-iterations-0", "epsilon-floor-negative", "beta-count"],
    )
    def test_fit_exits_1(self, synth_tensor, tmp_path, capsys, extra):
        code = main(["fit", "--tensor", str(synth_tensor / "tensor.txt"), *extra,
                     "--output-dir", str(tmp_path / "out")])
        assert code == 1
        assert one_error_line(capsys)

    @pytest.mark.parametrize(
        "argv",
        [
            ["ingest", "--events", "EVENTS", "--start", "2001-03-01", "--end", "2001-01-01"],
            ["synth", "--shape", "3,3,2", "--seed", "-1"],
            ["synth", "--shape", ""],
            ["synth", "--shape", "3,3,2", "--k", "-1"],
        ],
        ids=["ingest-empty-date-range", "synth-seed-negative", "synth-shape-empty",
             "synth-k-negative"],
    )
    def test_ingest_and_synth_exit_1(self, tmp_path, capsys, argv):
        (tmp_path / "events.csv").write_text(EVENTS)
        argv = [str(tmp_path / "events.csv") if a == "EVENTS" else a for a in argv]
        assert main([*argv, "--output-dir", str(tmp_path / "out")]) == 1
        assert one_error_line(capsys)

    @pytest.mark.parametrize(
        "argv, config",
        [
            (["eval", "--tensor", "{synth}/tensor.txt", "--n-primes", "3", "--seeds", "0",
              "--models", "ntf-ls", "--k", "2", "--max-iterations", "2", "--seed", "1"], ""),
            (["ingest", "--events", "{events}", "--start", "2001-01-01", "--end", "2001-03-31",
              "--threads", "2"], ""),
            (["explore", "--factors", "{synth}/true_factors"], "seed = 1\n"),
            (["synth", "--shape", "3,3,2"], "config = other.cfg\n"),
        ],
        ids=["eval-seed", "ingest-threads", "explore-config-seed", "synth-config-config"],
    )
    def test_flag_or_key_the_command_does_not_read_exits_1(self, synth_tensor, tmp_path,
                                                           capsys, argv, config):
        (tmp_path / "events.csv").write_text(EVENTS)
        argv = [a.format(synth=synth_tensor, events=tmp_path / "events.csv") for a in argv]
        if config:
            (tmp_path / "run.cfg").write_text(config)
            argv += ["--config", str(tmp_path / "run.cfg")]
        assert main([*argv, "--output-dir", str(tmp_path / "out")]) == 1
        assert one_error_line(capsys)

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["eval", "--tensor", "{synth}/tensor.txt", "--n-primes", "a"],
             "argument --n-primes: expected integers, got 'a'"),
            (["eval", "--tensor", "{synth}/tensor.txt", "--n-primes", "3", "--seeds", "0,x"],
             "argument --seeds: expected integers, got '0,x'"),
            (["synth", "--shape", "3,3,2.5"], "argument --shape: expected integers, got '3,3,2.5'"),
            (["fit", "--tensor", "{synth}/tensor.txt", "--model", "bptf", "--beta", "1,b"],
             "argument --beta: expected numbers, got '1,b'"),
            (["ingest", "--events", "{events}", "--start", "2001-13-01", "--end", "2001-03-31"],
             "argument --start: expected an ISO date, got '2001-13-01'"),
            (["ingest", "--events", "{events}", "--start", "2001-01-01", "--end", "March"],
             "argument --end: expected an ISO date, got 'March'"),
        ],
        ids=["n-primes", "seeds", "shape", "beta", "start", "end"],
    )
    def test_a_value_parsed_in_the_command_names_its_flag(self, synth_tensor, tmp_path, capsys,
                                                          argv, message):
        (tmp_path / "events.csv").write_text(EVENTS)
        argv = [a.format(synth=synth_tensor, events=tmp_path / "events.csv") for a in argv]
        capsys.readouterr()
        assert main([*argv, "--output-dir", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("via", ["flags", "config"])
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["eval", "--n-primes", "a"], "argument --n-primes: expected integers, got 'a'"),
            (["eval", "--n-primes", "3", "--models", "nope"], "unknown models ['nope']"),
            (["fit", "--model", "bptf", "--beta", "1,b"],
             "argument --beta: expected numbers, got '1,b'"),
            (["fit", "--model", "pca"], "argument --model: invalid choice: 'pca'"),
            (["fit", "--model", "bptf", "--k", "0"], "k must be a positive integer"),
            (["fit", "--model", "bptf", "--alpha", "inf"], "alpha must be positive and finite"),
            (["fit", "--model", "bptf", "--beta", "nan"],
             "every beta must be positive and finite"),
            (["fit", "--model", "bptf", "--beta", ""], "--beta needs at least one value"),
            (["fit", "--model", "ntf-kl", "--seed", "-1"], "seed must be non-negative"),
            (["fit", "--model", "bptf", "--tolerance", "0"], "tolerance must be positive"),
            (["fit", "--model", "ntf-kl", "--tolerance", "0"], "tolerance must be positive"),
            (["eval", "--n-primes", "3", "--k", "0"], "k must be a positive integer"),
            (["eval", "--n-primes", "3", "--alpha", "inf"], "alpha must be positive and finite"),
            (["eval", "--n-primes", "3", "--epsilon-floor", "nan"],
             "epsilon_floor must be non-negative and finite"),
            (["eval", "--n-primes", "3", "--max-iterations", "0"],
             "max_iterations must be positive"),
            (["eval", "--n-primes", "3", "--tolerance", "0"],
             "tolerance must be positive"),
        ],
        ids=["n-primes", "models", "beta", "model", "fit-k-0", "fit-alpha-inf",
             "fit-beta-nan", "fit-beta-empty", "fit-seed-negative", "fit-bptf-tolerance-0",
             "fit-ntf-kl-tolerance-0", "eval-k-0",
             "eval-alpha-inf", "eval-epsilon-floor-nan", "eval-max-iterations-0",
             "eval-tolerance-0"],
    )
    def test_malformed_value_exits_1_before_any_input_is_read(self, tmp_path, capsys,
                                                             monkeypatch, argv, message, via):
        monkeypatch.chdir(tmp_path)  # missing.txt does not exist: reading it would exit 2
        command, flags = argv[0], argv[1:]
        if via == "config":
            (tmp_path / "run.cfg").write_text("".join(
                f"{flag[2:].replace('-', '_')} = {value}\n"
                for flag, value in zip(flags[::2], flags[1::2])))
            flags = ["--config", "run.cfg"]
        assert main([command, "--tensor", "missing.txt", *flags, "--output-dir", "out"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {message}")
        assert not (tmp_path / "out").exists()

    def test_ingest_empty_date_range_exits_1_before_reading_events(self, tmp_path, capsys):
        (tmp_path / "events.csv").write_bytes(b"sender,receiver\n\xff\xfe,x,,garbage\n")
        argv = ["ingest", "--events", str(tmp_path / "events.csv"),
                "--start", "2001-03-01", "--end", "2001-01-01", "--output-dir", str(tmp_path / "out")]
        assert main(argv) == 1
        assert one_error_line(capsys)

    @pytest.mark.parametrize(
        "extra",
        [["--k", "0"], ["--max-iterations", "0"], ["--alpha", "-1"], ["--seeds", "-1"],
         ["--n-primes", ""], ["--test-fraction", "1.5"], ["--threads", "0"],
         ["--threads", "-4"]],
        ids=["k-0", "max-iterations-0", "alpha-negative", "seed-negative", "n-primes-empty",
             "test-fraction-1.5", "threads-0", "threads-negative"],
    )
    def test_eval_exits_1_before_any_fit(self, synth_tensor, tmp_path, capsys,
                                         monkeypatch, extra):
        def no_fit(*args, **kwargs):
            raise AssertionError("a model was fitted")

        monkeypatch.setattr(countcp.bptf, "fit", no_fit)
        monkeypatch.setattr(countcp.ntf, "fit_ntf", no_fit)
        code = main(["eval", "--tensor", str(synth_tensor / "tensor.txt"),
                     "--n-primes", "3", *extra, "--output-dir", str(tmp_path / "out")])
        assert code == 1
        assert one_error_line(capsys)

    @pytest.mark.parametrize(
        "command, extra, message",
        [
            ("fit", ["--model", "bptf", "--alpha", "inf"], "alpha must be positive and finite"),
            ("fit", ["--model", "bptf", "--beta", "nan"], "every beta must be positive and finite"),
            ("fit", ["--model", "bptf", "--beta", "inf"], "every beta must be positive and finite"),
            ("fit", ["--model", "ntf-kl", "--epsilon-floor", "nan"],
             "epsilon_floor must be non-negative and finite"),
            ("fit", ["--model", "ntf-kl", "--epsilon-floor", "inf"],
             "epsilon_floor must be non-negative and finite"),
            ("synth", ["--alpha", "inf"], "alpha must be positive and finite"),
            ("synth", ["--beta", "nan"], "every beta must be positive and finite"),
            ("eval", ["--n-primes", "3", "--alpha", "inf"], "alpha must be positive and finite"),
            ("eval", ["--n-primes", "3", "--epsilon-floor", "nan"],
             "epsilon_floor must be non-negative and finite"),
        ],
        ids=["fit-alpha-inf", "fit-beta-nan", "fit-beta-inf", "fit-epsilon-floor-nan",
             "fit-epsilon-floor-inf", "synth-alpha-inf", "synth-beta-nan", "eval-alpha-inf",
             "eval-epsilon-floor-nan"],
    )
    def test_non_finite_hyperparameter_exits_1(self, synth_tensor, tmp_path, capsys,
                                               monkeypatch, command, extra, message):
        def no_fit(*args, **kwargs):
            raise AssertionError("a model was fitted")

        monkeypatch.setattr(countcp.bptf, "fit", no_fit)
        monkeypatch.setattr(countcp.ntf, "fit_ntf", no_fit)
        source = (["--shape", "3,3,2"] if command == "synth"
                  else ["--tensor", str(synth_tensor / "tensor.txt")])
        capsys.readouterr()
        code = main([command, *source, *extra, "--output-dir", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "specs, label",
        [(["a/tensor.txt", "b/tensor.txt"], "tensor"), (["x=a/tensor.txt", "x=b/tensor.txt"], "x")],
        ids=["path-stems", "explicit-labels"],
    )
    def test_eval_repeated_source_label_exits_1_before_any_load(self, tmp_path, capsys,
                                                                 monkeypatch, specs, label):
        monkeypatch.chdir(tmp_path)
        for sub in "ab":  # a tensor that loads would exit 2
            (tmp_path / sub).mkdir()
            (tmp_path / sub / "tensor.txt").write_text("not a tensor\n")
        argv = ["eval", "--n-primes", "2", "--output-dir", "out"]
        assert main(argv + [arg for spec in specs for arg in ("--tensor", spec)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert repr(label) in err

    @pytest.mark.parametrize(
        "extra, message",
        [(["--tolerance", "0"], "tolerance must be positive"),
         (["--max-iterations", "0"], "max_iterations must be positive")],
        ids=["tolerance-0", "max-iterations-0"],
    )
    def test_eval_ntf_only_reports_its_own_config_error(self, synth_tensor, tmp_path, capsys,
                                                        monkeypatch, extra, message):
        def no_fit(*args, **kwargs):
            raise AssertionError("a model was fitted")

        class NoBptfConfig(FitConfig):  # both families word a sweep check alike
            def __post_init__(self):
                raise AssertionError("a BPTF config was built")

        monkeypatch.setattr(countcp.bptf, "fit", no_fit)
        monkeypatch.setattr(countcp.ntf, "fit_ntf", no_fit)
        monkeypatch.setattr(countcp.bptf, "FitConfig", NoBptfConfig)
        code = main(["eval", "--tensor", str(synth_tensor / "tensor.txt"), "--n-primes", "3",
                     "--models", "ntf-kl", *extra, "--output-dir", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_eval_bptf_config_error_is_unchanged(self, synth_tensor, tmp_path, capsys):
        # values each family alone rejects: the BPTF trainer, built first, reports
        argv = ["eval", "--tensor", str(synth_tensor / "tensor.txt"), "--n-primes", "3",
                "--models", "ntf-kl,bptf-geo", "--output-dir", str(tmp_path / "out")]
        assert main(argv + ["--alpha", "inf", "--epsilon-floor", "nan"]) == 1
        assert capsys.readouterr().err == "error: alpha must be positive and finite\n"
        assert main(argv + ["--tolerance", "0"]) == 1
        assert capsys.readouterr().err == "error: tolerance must be positive\n"

    def test_eval_ntf_only_ignores_alpha(self, synth_tensor, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["eval", "--tensor", str(synth_tensor / "tensor.txt"), "--n-primes", "3",
                     "--seeds", "0", "--models", "ntf-kl", "--alpha", "-1", "--k", "2",
                     "--max-iterations", "3", "--output-dir", str(out)])
        assert code == 0
        assert capsys.readouterr().err == ""
        assert "ntf-kl:mae" in (out / "report.txt").read_text()

    @pytest.mark.parametrize("command", ["synth", "fit", "eval"])
    def test_unmakeable_output_dir_exits_2(self, synth_tensor, tmp_path, capsys, command):
        (tmp_path / "afile").write_text("")
        argv = {
            "synth": ["synth", "--shape", "4,4,2"],
            "fit": ["fit", "--tensor", str(synth_tensor / "tensor.txt"), "--model", "ntf-kl",
                    "--k", "2", "--max-iterations", "2"],
            "eval": ["eval", "--tensor", str(synth_tensor / "tensor.txt"), "--n-primes", "3",
                     "--seeds", "0", "--k", "2", "--max-iterations", "2", "--models", "ntf-ls"],
        }[command]
        assert main([*argv, "--output-dir", str(tmp_path / "afile" / "sub")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("data error:") and "cannot make output directory" in err[0]

    @pytest.mark.parametrize(
        "command, blocked",
        [("fit", "trace.txt"), ("fit-bptf", "state"), ("eval", "report.txt"),
         ("explore", "component_000.txt"), ("synth", "tensor.txt"), ("ingest", "tensor.txt")],
    )
    def test_unwritable_output_file_exits_2(self, synth_tensor, tmp_path, capsys, command,
                                            blocked):
        out = tmp_path / "out"
        out.mkdir()
        if blocked == "state":
            (out / blocked).write_text("")  # a file where the bundle directory goes
        else:
            (out / blocked).mkdir()  # a directory where a file goes
        (tmp_path / "events.csv").write_text(EVENTS)
        tensor = str(synth_tensor / "tensor.txt")
        argv = {
            "fit": ["fit", "--tensor", tensor, "--model", "ntf-kl", "--k", "2",
                    "--max-iterations", "2"],
            "fit-bptf": ["fit", "--tensor", tensor, "--model", "bptf", "--k", "2",
                         "--max-iterations", "2"],
            "eval": ["eval", "--tensor", tensor, "--n-primes", "3", "--seeds", "0", "--k", "2",
                     "--max-iterations", "2", "--models", "ntf-ls"],
            "explore": ["explore", "--factors", str(synth_tensor / "true_factors")],
            "synth": ["synth", "--shape", "4,4,2"],
            "ingest": ["ingest", "--events", str(tmp_path / "events.csv"),
                       "--start", "2001-01-01", "--end", "2001-03-31"],
        }[command]
        assert main([*argv, "--output-dir", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("data error:") and str(out / blocked) in err[0]

    @pytest.mark.parametrize("model, bundle", [("ntf-kl", "factors"), ("bptf", "state")])
    def test_unwritable_trace_leaves_no_bundle(self, synth_tensor, tmp_path, capsys, model,
                                               bundle):
        out = tmp_path / "out"
        (out / "trace.txt").mkdir(parents=True)
        code = main(["fit", "--tensor", str(synth_tensor / "tensor.txt"), "--model", model,
                     "--k", "2", "--max-iterations", "2", "--output-dir", str(out)])
        assert code == 2
        assert capsys.readouterr().err.startswith("data error:")
        assert not (out / "factors").exists() and not (out / "state").exists()

    @pytest.mark.parametrize("model, blocked", [("bptf", "state"), ("ntf-kl", "factors"),
                                                ("bptf", "fit_config.txt")])
    def test_unwritable_output_leaves_no_trace_or_config(self, synth_tensor, tmp_path, capsys,
                                                         model, blocked):
        out = tmp_path / "out"
        out.mkdir()
        if blocked == "fit_config.txt":
            (out / blocked).mkdir()  # a directory where the config echo goes
        else:
            (out / blocked).write_text("")  # a file where the bundle directory goes
        code = main(["fit", "--tensor", str(synth_tensor / "tensor.txt"), "--model", model,
                     "--k", "2", "--max-iterations", "2", "--output-dir", str(out)])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"data error: {out / blocked}: ")
        assert [p.name for p in out.iterdir()] == [blocked]

    def test_explore_negative_top_n_exits_1_before_any_report(self, synth_tensor, tmp_path,
                                                              capsys):
        fit_out, explore_out = tmp_path / "fit", tmp_path / "explore"
        assert main(["fit", "--tensor", str(synth_tensor / "tensor.txt"), "--model", "bptf",
                     "--k", "2", "--max-iterations", "2", "--output-dir", str(fit_out)]) == 0
        code = main(["explore", "--state", str(fit_out / "state"),
                     "--labels", str(synth_tensor / "labels.txt"), "--top-n", "-1",
                     "--output-dir", str(explore_out)])
        assert code == 1
        assert one_error_line(capsys)
        assert not any(p.is_file() for p in explore_out.rglob("*"))


def drop_line(text, key):
    return "".join(line for line in text.splitlines(keepends=True)
                   if not line.startswith(f"{key} "))


def one_error_line(capsys):
    err = capsys.readouterr().err.strip().splitlines()
    return len(err) == 1 and err[0].startswith("error:")


@pytest.fixture
def synth_tensor(tmp_path):
    out = tmp_path / "synth"
    code = main(
        [
            "synth",
            "--shape", "8,8,2,10",
            "--k", "2",
            "--alpha", "0.3",
            "--beta", "1.0",
            "--seed", "5",
            "--output-dir", str(out),
        ]
    )
    assert code == 0
    return out


class TestSynthCommand:
    def test_writes_tensor_and_truth(self, synth_tensor):
        assert (synth_tensor / "tensor.txt").exists()
        assert (synth_tensor / "labels.txt").exists()
        assert (synth_tensor / "true_factors" / "manifest.txt").exists()

    def test_fixed_seed_is_byte_identical(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            code = main(
                ["synth", "--shape", "6,6,2,5", "--k", "2", "--seed", "9",
                 "--output-dir", str(out)]
            )
            assert code == 0
            outs.append(sha(out / "tensor.txt"))
        assert outs[0] == outs[1]

    def test_alpha_point_one_is_sparse(self, tmp_path, capsys):
        out = tmp_path / "sparse"
        code = main(
            ["synth", "--shape", "12,12,5,10", "--k", "4", "--alpha", "0.1",
             "--seed", "2", "--output-dir", str(out)]
        )
        assert code == 0
        stdout = capsys.readouterr().out
        density_line = [l for l in stdout.splitlines() if l.startswith("density")][0]
        assert float(density_line.split()[1]) < 0.5

    def test_shape_of_2_pow_63_cells_exits_1_before_any_draw(self, tmp_path, capsys,
                                                            monkeypatch):
        def no_draw(*args, **kwargs):
            raise AssertionError("factors were drawn")

        monkeypatch.setattr(countcp.synth, "sample_factors", no_draw)
        code = main(["synth", "--shape", "2097152,2097152,2097152", "--k", "1",
                     "--output-dir", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].endswith("mode sizes multiply to 2**63 or more")
        assert not (tmp_path / "out").exists()


    def test_shape_that_cannot_be_held_exits_1(self, tmp_path):
        # the child caps its own address space, so the draw fails without allocating
        pytest.importorskip("resource")
        child = (
            "import resource, sys\n"
            "from countcp.cli import main\n"
            "hard = resource.getrlimit(resource.RLIMIT_AS)[1]\n"
            "soft = 3 * 2**30 if hard == resource.RLIM_INFINITY else min(3 * 2**30, hard)\n"
            "resource.setrlimit(resource.RLIMIT_AS, (soft, hard))\n"
            "sys.exit(main(sys.argv[1:]))\n"
        )
        src = str(Path(countcp.__file__).resolve().parent.parent)
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run(
            [sys.executable, "-c", child, "synth", "--shape", "2,1099511627776", "--k", "1",
             "--output-dir", str(tmp_path / "out")],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert (done.returncode, done.stderr) == (
            1, "error: shape (2, 1099511627776): too large to hold in memory\n")
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("module", ["countcp", "countcp.cli"])
def test_python_m_runs_the_command_line(tmp_path, module):
    src = str(Path(countcp.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONWARNINGS="default",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))

    def run(*argv):
        return subprocess.run([sys.executable, "-m", module, "synth", *argv], cwd=tmp_path,
                              env=env, capture_output=True, text=True, timeout=120)

    done = run("--shape", "3,3,2", "--output-dir", "out")
    assert (done.returncode, done.stderr) == (0, "")
    assert (tmp_path / "out" / "tensor.txt").is_file()
    done = run("--output-dir", "missing")
    assert done.returncode == 1
    assert done.stderr.splitlines() == ["error: the following arguments are required: --shape"]


class TestEvalCommand:
    def test_report_files_with_all_scenario_rows(self, synth_tensor, tmp_path):
        out = tmp_path / "eval"
        code = main(
            [
                "eval",
                "--tensor", f"one={synth_tensor / 'tensor.txt'}",
                "--tensor", f"two={synth_tensor / 'tensor.txt'}",
                "--n-primes", "2,3",
                "--scenario", "both",
                "--seeds", "0",
                "--k", "2",
                "--models", "bptf-geo",
                "--max-iterations", "10",
                "--output-dir", str(out),
            ]
        )
        assert code == 0
        lines = (out / "report.txt").read_text().strip().splitlines()
        assert len(lines) == 1 + 8  # header plus 2 sources x 2 sizes x 2 sides
        payload = json.loads((out / "report.json").read_text())
        assert len(payload["scenarios"]) == 8

    def test_degenerate_spec_is_a_config_error(self, synth_tensor, tmp_path, capsys):
        out = tmp_path / "eval_bad"
        code = main(
            [
                "eval",
                "--tensor", str(synth_tensor / "tensor.txt"),
                "--n-primes", "8",
                "--scenario", "block",
                "--seeds", "0",
                "--k", "2",
                "--output-dir", str(out),
            ]
        )
        assert code == 1

    def test_every_model_failing_exits_3(self, synth_tensor, tmp_path, monkeypatch, capsys):
        def boom(*args, **kwargs):
            raise NumericalDegeneracyError("synthetic failure")

        monkeypatch.setattr(countcp.bptf, "fit", boom)
        monkeypatch.setattr(countcp.ntf, "fit_ntf", boom)
        code = main(
            [
                "eval",
                "--tensor", str(synth_tensor / "tensor.txt"),
                "--n-primes", "3",
                "--scenario", "block",
                "--seeds", "0",
                "--k", "2",
                "--models", "bptf-geo,ntf-kl",
                "--output-dir", str(tmp_path / "eval_fail"),
            ]
        )
        assert code == 3
        assert "every model failed" in capsys.readouterr().err


    def test_overflowing_ls_eval_prints_one_stderr_line(self, tmp_path):
        # a fresh interpreter with warnings shown, so any numpy warning
        # reaches stderr as it would from the installed command
        (tmp_path / "tiny.txt").write_text(OVERFLOWING_LS_TENSOR)
        src = str(Path(countcp.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONWARNINGS="default",
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run(
            [sys.executable, "-c", "from countcp.cli import entry; entry()",
             "eval", "--tensor", "tiny.txt", "--n-primes", "1", "--scenario", "block",
             "--seeds", "0", "--k", "2", "--max-iterations", "15", "--tolerance", "1e-12",
             "--models", "ntf-ls", "--output-dir", "out"],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 3
        assert done.stderr.splitlines() == ["numerical error: every model failed in every scenario"]


class TestExploreCommand:
    def test_reports_from_fitted_state(self, synth_tensor, tmp_path):
        fit_out = tmp_path / "fit"
        code = main(
            ["fit", "--tensor", str(synth_tensor / "tensor.txt"),
             "--model", "bptf", "--k", "3", "--max-iterations", "5",
             "--output-dir", str(fit_out)]
        )
        assert code == 0
        explore_out = tmp_path / "explore"
        code = main(
            ["explore", "--state", str(fit_out / "state"),
             "--labels", str(synth_tensor / "labels.txt"),
             "--top-n", "4", "--output-dir", str(explore_out)]
        )
        assert code == 0
        assert (explore_out / "index.txt").exists()
        assert (explore_out / "component_000_time.txt").exists()

    @pytest.mark.parametrize("modes", ["0", "-1"])
    def test_state_of_no_modes_exits_2(self, synth_tensor, tmp_path, capsys, modes):
        bundle = tmp_path / "state"
        bundle.mkdir()
        (bundle / "manifest.txt").write_text(
            f"modes = {modes}\nk = 2\nshape = \nalpha = 0.1\nbeta = \n"
        )
        code = main(["explore", "--state", str(bundle),
                     "--labels", str(synth_tensor / "labels.txt"),
                     "--output-dir", str(tmp_path / "explore")])
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"data error: {bundle}: variational state needs at least one mode"]

    @pytest.mark.parametrize("option, model", [("--state", "bptf"), ("--factors", "ntf-kl")])
    def test_one_time_step_exits_2_before_any_report(self, tmp_path, capsys, option, model):
        code, ingested = run_ingest(tmp_path, ["--end", "2001-01-31"])
        assert code == 0
        assert load_tensor(ingested / "tensor.txt").shape[-1] == 1
        fit_out, explore_out = tmp_path / "fit", tmp_path / "explore"
        assert main(["fit", "--tensor", str(ingested / "tensor.txt"),
                     "--labels", str(ingested / "labels.txt"), "--model", model,
                     "--k", "2", "--max-iterations", "3", "--output-dir", str(fit_out)]) == 0
        capsys.readouterr()
        code = main(["explore", option, str(fit_out / option.lstrip("-")),
                     "--labels", str(ingested / "labels.txt"),
                     "--output-dir", str(explore_out)])
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["data error: ranking components by time-factor gini needs at least "
                       "2 time steps, got 1"]
        assert not any(p.is_file() for p in explore_out.rglob("*"))

    @pytest.mark.parametrize("estimate", ["geometric", "arithmetic"])
    def test_overflowing_state_exits_2_without_a_warning(self, synth_tensor, tmp_path, capsys,
                                                         estimate):
        # gamma / delta = 1e600 in one cell; the caches passed here are never read
        gamma = [np.ones((8, 2)), np.ones((8, 2)), np.ones((2, 2)), np.ones((10, 2))]
        delta = [g.copy() for g in gamma]
        gamma[0][0, 0], delta[0][0, 0] = 1e300, 1e-300
        bundle = save_state(VariationalState(gamma, delta, gamma, gamma),
                            Hyperparameters.default(4), tmp_path / "state")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["explore", "--state", str(bundle), "--estimate", estimate,
                         "--labels", str(synth_tensor / "labels.txt"),
                         "--output-dir", str(tmp_path / "explore")])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            f"data error: {bundle}: mode 0: expectations gamma / delta overflow"]
        assert [str(w.message) for w in caught] == []
        assert not (tmp_path / "explore").exists()

    def test_missing_labels_is_an_error(self, synth_tensor, tmp_path, capsys):
        fit_out = tmp_path / "fit"
        main(["fit", "--tensor", str(synth_tensor / "tensor.txt"), "--model", "bptf",
              "--k", "2", "--max-iterations", "2", "--output-dir", str(fit_out)])
        code = main(
            ["explore", "--state", str(fit_out / "state"),
             "--output-dir", str(tmp_path / "x")]
        )
        assert code == 1
        assert "labels" in capsys.readouterr().err


class TestConfigFile:
    def test_flags_override_file_values(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("shape = 6,6,2,5\nk = 2\nseed = 3\nalpha = 0.3\n")
        out = tmp_path / "o1"
        code = main(["synth", "--config", str(config), "--output-dir", str(out)])
        assert code == 0
        echoed = (out / "synth_config.txt").read_text()
        assert "seed = 3" in echoed

        out2 = tmp_path / "o2"
        code = main(["synth", "--config", str(config), "--seed", "7",
                     "--output-dir", str(out2)])
        assert code == 0
        echoed = (out2 / "synth_config.txt").read_text()
        assert "seed = 7" in echoed

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("shape = 6,6,2,5\nwarp_speed = 9\n")
        code = main(["synth", "--config", str(config)])
        assert code == 1
        assert "warp_speed" in capsys.readouterr().err

    def test_non_utf8_config_is_a_config_error(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_bytes(b"shape = 6,6,2,5\n\xff\xfek = 2\n")
        code = main(["synth", "--config", str(config), "--output-dir", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: {config}: line 2: not utf-8 text"]

    @pytest.mark.parametrize("name", ["missing.cfg", "."])
    def test_unreadable_config_is_a_config_error(self, tmp_path, capsys, name):
        config = tmp_path / name
        code = main(["synth", "--config", str(config), "--output-dir", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: config file {config}:")

    def test_empty_config_path_is_a_config_error(self, synth_tensor, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["fit", "--tensor", str(synth_tensor / "tensor.txt"), "--model", "bptf",
                     "--config", "", "--output-dir", str(out)])
        assert code == 1
        assert capsys.readouterr().err.strip().splitlines() == ["error: config file path is empty"]
        assert not out.exists()

    def test_missing_required_option_is_a_usage_error(self, capsys):
        code = main(["ingest"])
        assert code == 1
        assert "events" in capsys.readouterr().err

    def test_missing_required_option_exits_1_before_any_input_is_read(self, tmp_path, capsys):
        (tmp_path / "bad.txt").write_text("not a tensor\n")  # reading it would exit 2
        code = main(["fit", "--tensor", str(tmp_path / "bad.txt"),
                     "--output-dir", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err == "error: the following arguments are required: --model\n"

    @pytest.mark.parametrize("command", sorted(EVERY_FLAG))
    def test_a_config_file_runs_as_its_flags(self, synth_tensor, tmp_path, capsys, command):
        (tmp_path / "events.csv").write_text(EVENTS)
        state = tmp_path / "fit" / "state"
        if command == "explore":
            assert main(["fit", "--tensor", str(synth_tensor / "tensor.txt"), "--model", "bptf",
                         "--k", "2", "--max-iterations", "2",
                         "--output-dir", str(tmp_path / "fit")]) == 0
        out = tmp_path / "out"
        pairs = {key: value.format(synth=synth_tensor, events=tmp_path / "events.csv",
                                   state=state)
                 for key, value in EVERY_FLAG[command].items()}
        pairs["output_dir"] = str(out)
        _, subparsers = build_parser()
        assert set(pairs) == {a.dest for a in subparsers[command]._actions
                              if a.option_strings} - {"help", "config", "factors"}
        flags = []
        for key, value in pairs.items():
            flag = "--" + key.replace("_", "-")
            flags += [f"--no-{flag[2:]}"] if value == "off" else [flag, value]
        # a --tensor flag adds a source to the config file's
        extra = ["--tensor", f"two={synth_tensor / 'tensor.txt'}"] if command == "eval" else []
        capsys.readouterr()
        assert main([command, *flags, *extra]) == 0
        stdout = capsys.readouterr().out
        out.rename(tmp_path / "from_flags")

        config = tmp_path / "run.cfg"
        config.write_text("".join(f"{key} = {value}\n" for key, value in pairs.items()))
        assert main([command, "--config", str(config), *extra]) == 0
        assert capsys.readouterr().out == stdout
        from_flags, from_config = tree(tmp_path / "from_flags"), tree(out)
        echo = f"{command}_config.txt"
        assert (from_flags.pop(echo).replace(b"config = None\n", f"config = {config}\n".encode())
                == from_config.pop(echo))
        assert from_flags == from_config

    @pytest.mark.parametrize(
        "argv, config",
        [
            ([], ""),
            (["explore", "--state", "S", "--factors", "F"], ""),
            (["explore", "--factors", "F"], "state = S\n"),
            (["explore", "--labels", "L"], ""),
        ],
        ids=["no-command", "explore-both", "explore-both-from-config", "explore-neither"],
    )
    def test_no_command_or_bundle_exits_1(self, tmp_path, capsys, argv, config):
        if config:
            (tmp_path / "run.cfg").write_text(config)
            argv = [*argv, "--config", str(tmp_path / "run.cfg")]
        assert main([*argv, "--output-dir", str(tmp_path / "out")] if argv else argv) == 1
        assert one_error_line(capsys)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["synth", "fit", "eval", "ingest"])
    def test_canonical_run_echoes_these_bytes(self, tmp_path, monkeypatch, command):
        monkeypatch.chdir(tmp_path)
        Path("events.csv").write_text(EVENTS)
        synth = ["synth", "--shape", "8,8,2,10", "--k", "2", "--alpha", "0.3",
                 "--beta", "1.0,2.0,1.0,0.5", "--seed", "5", "--output-dir", "synth"]
        argv = {
            "synth": synth,
            "fit": ["fit", "--tensor", "synth/tensor.txt", "--labels", "synth/labels.txt",
                    "--model", "ntf-kl", "--k", "2", "--max-iterations", "3", "--seed", "1",
                    "--output-dir", "fit"],
            "eval": ["eval", "--tensor", "synth/tensor.txt", "--n-primes", "3,5",
                     "--scenario", "block", "--k", "2", "--max-iterations", "3",
                     "--output-dir", "eval"],
            "ingest": ["ingest", "--events", "events.csv", "--start", "2001-01-01",
                       "--end", "2001-03-31", "--bin-width", "week", "--output-dir", "ingest"],
        }[command]
        if command in ("fit", "eval"):
            assert main(synth) == 0
        assert main(argv) == 0
        assert Path(command, f"{command}_config.txt").read_text() == CANONICAL_ECHO[command]

    def test_list_values_echo_comma_joined(self, tmp_path):
        out = tmp_path / "out"
        assert main(["synth", "--shape", "12 12 3 10", "--beta", "1,2,0.5,3",
                     "--output-dir", str(out)]) == 0
        echoed = (out / "synth_config.txt").read_text().splitlines()
        assert "shape = 12,12,3,10" in echoed
        assert "beta = 1.0,2.0,0.5,3.0" in echoed

    def test_every_spec_field_is_an_eval_flag(self):
        _, subparsers = build_parser()
        dests = {a.dest for a in subparsers["eval"]._actions if a.option_strings}
        assert {f.name for f in dataclasses.fields(countcp.ExperimentSpec)} <= dests

    def test_boolean_config_values(self, tmp_path):
        events = tmp_path / "events.csv"
        events.write_text(
            "sender,receiver,action,timestamp\na,a,x,2001-01-10\na,b,x,2001-01-11\n"
        )
        config = tmp_path / "run.cfg"
        config.write_text("drop_self_actions = false\n")
        out = tmp_path / "keep"
        code = main(
            ["ingest", "--config", str(config), "--events", str(events),
             "--start", "2001-01-01", "--end", "2001-01-31",
             "--output-dir", str(out)]
        )
        assert code == 0
        tensor_lines = (out / "tensor.txt").read_text().strip().splitlines()
        assert len(tensor_lines) == 1 + 2  # self-action kept
