"""Seeded benchmark inputs, written in the formats the countcp README documents.

Count tensors come from the library's own generative sampler
(``synth.sample_count_tensor``); everything else here (file writers, the
event expansion, the malformed files) is the benchmark's own code.  The
same seed always gives byte-identical files.
"""

from __future__ import annotations

import datetime as dt
from pathlib import Path

import numpy as np

from countcp import synth
from countcp.bptf import Hyperparameters, VariationalState, save_state

# Make-up of each generated input.  Generation alpha is large so that the
# number of stored entries, and with it the work per round, varies by only
# about 1% between seeds; beta then sets the density.
FIT_TENSOR = dict(shape=(100, 100, 10, 15), k=20, alpha=100.0, beta=4.9)
SMALL_ALPHA_TENSOR = dict(shape=(20, 20, 5, 30), k=5, alpha=0.1, beta=1.0, seed=0)
EVAL_TENSOR = dict(shape=(100, 100, 6, 20), k=20, alpha=100.0, beta=7.2)
IO_TENSOR = dict(shape=(20, 20, 10, 365), k=20, alpha=300.0, beta=4.9)
IO_START = dt.date(2001, 1, 1)
IO_END = dt.date(2001, 12, 31)
IO_OUT_OF_RANGE_SHARE = 0.01
EXPLORE_STATE = dict(k=20, alpha=0.2)

# Two files that violate the tensor format; neither depends on the seed.
MALFORMED_TENSORS = {
    "bad_coordinate.txt": "4 4 2 3\n0 1 0 0 2\n4 1 1 2 1\n",
    "zero_count.txt": "4 4 2 3\n0 1 0 0 2\n1 2 1 2 0\n",
}


def sample_tensor(spec: dict, seed: int):
    hyper = Hyperparameters.default(len(spec["shape"]), alpha=spec["alpha"], beta=spec["beta"])
    return synth.sample_count_tensor(spec["shape"], spec["k"], hyper, seed)


def write_tensor_file(path: Path, tensor) -> None:
    """Coordinate-list format: mode sizes, then one ``i j a t count`` line per entry."""
    with path.open("w") as fh:
        fh.write(" ".join(str(s) for s in tensor.shape) + "\n")
        if tensor.nnz:
            np.savetxt(fh, np.column_stack([tensor.coords, tensor.values]), fmt="%d")


def write_labels_file(path: Path, mode_labels) -> None:
    with path.open("w") as fh:
        for m, labels in enumerate(mode_labels):
            for i, label in enumerate(labels):
                fh.write(f"{m}\t{i}\t{label}\n")


def actor_label(i: int) -> str:
    return f"actor{i:03d}"


def action_label(a: int) -> str:
    return f"type{a:02d}"


def make_events(tensor, seed: int):
    """Expand a sender x receiver x action x day tensor into dated events.

    Each stored count becomes that many events on its day, at seeded random
    times; a further ``IO_OUT_OF_RANGE_SHARE`` of events falls in the year
    before the date range.  Diagonal cells give self-actions.  Returns
    ``(sender, receiver, action, datetime)`` tuples in shuffled order.
    """
    rng = np.random.default_rng([seed, 1])
    coords = np.repeat(tensor.coords, tensor.values, axis=0)
    n_late = int(IO_OUT_OF_RANGE_SHARE * len(coords))
    extra = coords[rng.choice(len(coords), size=n_late, replace=False)].copy()
    extra[:, 3] -= 365
    coords = np.vstack([coords, extra])
    coords = coords[rng.permutation(len(coords))]
    seconds = rng.integers(0, 86400, size=len(coords))
    base = dt.datetime.combine(IO_START, dt.time())
    actors = [actor_label(i) for i in range(tensor.shape[0])]
    actions = [action_label(a) for a in range(tensor.shape[2])]
    return [
        (actors[i], actors[j], actions[a], base + dt.timedelta(days=t, seconds=s))
        for (i, j, a, t), s in zip(coords.tolist(), seconds.tolist())
    ]


def write_event_file(path: Path, events) -> None:
    with path.open("w") as fh:
        fh.write("sender,receiver,action,timestamp\n")
        fh.writelines(f"{s},{r},{a},{ts.isoformat()}\n" for s, r, a, ts in events)


def write_explore_state(directory: Path, shape, seed: int) -> None:
    """A state bundle whose factors are drawn from a sparse Gamma prior."""
    rng = np.random.default_rng([seed, 2])
    k, alpha = EXPLORE_STATE["k"], EXPLORE_STATE["alpha"]
    gamma = [alpha + rng.gamma(alpha, 10.0, size=(n, k)) for n in shape]
    delta = [np.full((n, k), 10.0) for n in shape]
    save_state(VariationalState(gamma, delta), Hyperparameters.default(len(shape), alpha), directory)


def write_malformed(directory: Path) -> dict:
    paths = {}
    for name, text in MALFORMED_TENSORS.items():
        paths[name] = directory / name
        paths[name].write_text(text)
    return paths
