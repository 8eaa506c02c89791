"""Every output file is the same whatever the BLAS thread count.

OpenBLAS splits long dot products across its threads, so a reduction left
to it changes in the last digits with the thread count; the fitters and the
harness must use fixed-order reductions instead.  Each run is a fresh
interpreter, because OpenBLAS reads its thread count once, at load time.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import countcp
from countcp import SparseCountTensor, save_tensor

SRC = str(Path(countcp.__file__).resolve().parent.parent)

RUNS = """
import sys
from countcp.cli import main

tensor, out = sys.argv[1:]
for model in ("bptf", "ntf-kl", "ntf-ls"):
    code = main(["fit", "--tensor", tensor, "--model", model, "--k", "10",
                 "--max-iterations", "15", "--tolerance", "1e-15", "--seed", "3",
                 "--output-dir", f"{out}/{model}"])
    assert code == 0, (model, code)
code = main(["eval", "--tensor", f"gen={tensor}", "--n-primes", "20",
             "--scenario", "both", "--seeds", "0", "--k", "4",
             "--max-iterations", "5", "--tolerance", "1e-12",
             "--output-dir", f"{out}/eval"])
assert code == 0, ("eval", code)
"""


def _tensor(path):
    """A 60x60x8x30 tensor with 56,000 stored entries."""
    rng = np.random.default_rng(7)
    shape = (60, 60, 8, 30)
    flat = rng.choice(int(np.prod(shape)), size=56_000, replace=False)
    coords = np.stack(np.unravel_index(flat, shape), axis=1)
    values = rng.integers(1, 6, size=flat.size)
    labels = [[str(i) for i in range(s)] for s in shape]
    save_tensor(SparseCountTensor(shape, coords, values, labels), path)


def _outputs(tensor, out, threads):
    env = dict(
        os.environ,
        OPENBLAS_NUM_THREADS=str(threads),
        OMP_NUM_THREADS=str(threads),
        PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])),
    )
    out.mkdir()
    subprocess.run(
        [sys.executable, "-c", RUNS, str(tensor), "runs"],
        cwd=out, env=env, check=True, capture_output=True, timeout=600,
    )
    return {
        str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()
    }


def test_outputs_are_byte_identical_at_one_and_two_blas_threads(tmp_path):
    tensor = tmp_path / "tensor.txt"
    _tensor(tensor)
    one = _outputs(tensor, tmp_path / "one", 1)
    two = _outputs(tensor, tmp_path / "two", 2)
    assert sorted(one) == sorted(two)
    assert len(one) > 10
    differing = [name for name in one if one[name] != two[name]]
    assert not differing, f"differ between 1 and 2 BLAS threads: {differing}"
