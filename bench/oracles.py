"""Correctness oracles kept apart from the library.

Nothing here imports countcp.  The oracles read the documented file formats
with their own parsers and recompute each result from its definition with
numpy and scipy: the BPTF evidence lower bound and the generalized KL
objective from saved bundles, dense MAE / MAE-NZ / HAM-Z over a scored
region, a Counter rebuild of an ingested tensor, and the pairwise-difference
Gini coefficient.
"""

from __future__ import annotations

import datetime as dt
from collections import Counter
from pathlib import Path

import numpy as np
from scipy.special import digamma, gammaln, kl_div


class CheckFailed(Exception):
    """A program output disagreed with an oracle or a required property."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def close(a: float, b: float, rel: float = 1e-9) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


# ---------------------------------------------------------------------------
# File readers
# ---------------------------------------------------------------------------


def read_manifest(path: Path) -> dict:
    out = {}
    for line in path.read_text().splitlines():
        if line.strip():
            key, _, value = line.partition("=")
            out[key.strip()] = value.strip()
    return out


def read_tensor_file(path: Path):
    """(shape, coords, values) of a coordinate-list tensor file."""
    with path.open() as fh:
        shape = tuple(int(tok) for tok in fh.readline().split())
        rows = np.loadtxt(fh, dtype=np.int64, ndmin=2)
    if rows.size == 0:
        rows = np.zeros((0, len(shape) + 1), dtype=np.int64)
    return shape, rows[:, :-1], rows[:, -1]


def read_labels_file(path: Path, n_modes: int) -> list[list[str]]:
    labels = [dict() for _ in range(n_modes)]
    for line in path.read_text().splitlines():
        m, i, label = line.split("\t")
        labels[int(m)][int(i)] = label
    return [[mode[i] for i in range(len(mode))] for mode in labels]


def read_state(directory: Path):
    """(gamma, delta, alpha, beta) of a variational state bundle."""
    manifest = read_manifest(directory / "manifest.txt")
    modes = range(int(manifest["modes"]))
    gamma = [np.loadtxt(directory / manifest[f"gamma_{m}"], ndmin=2) for m in modes]
    delta = [np.loadtxt(directory / manifest[f"delta_{m}"], ndmin=2) for m in modes]
    beta = [float(b) for b in manifest["beta"].split()]
    return gamma, delta, float(manifest["alpha"]), beta


def read_factors(directory: Path) -> list[np.ndarray]:
    manifest = read_manifest(directory / "manifest.txt")
    return [
        np.loadtxt(directory / manifest[f"matrix_{m}"], ndmin=2)
        for m in range(int(manifest["modes"]))
    ]


def read_trace(path: Path) -> np.ndarray:
    """Second column (ELBO or objective) of a fit trace, one value per sweep."""
    return np.array([float(line.split()[1]) for line in path.read_text().splitlines()])


# ---------------------------------------------------------------------------
# Fit objectives
# ---------------------------------------------------------------------------


def _entry_sums(mats, coords, chunk: int = 32768) -> np.ndarray:
    """sum_k prod_m mats[m][coords[:, m], k] for every stored entry."""
    out = np.empty(len(coords))
    for lo in range(0, len(coords), chunk):
        block = coords[lo:lo + chunk]
        prod = np.ones((len(block), mats[0].shape[1]))
        for m, mat in enumerate(mats):
            prod *= mat[block[:, m]]
        out[lo:lo + chunk] = prod.sum(axis=1)
    return out


def _total_mass(mats) -> float:
    mass = np.ones(mats[0].shape[1])
    for mat in mats:
        mass *= mat.sum(axis=0)
    return float(mass.sum())


def bptf_elbo(gamma, delta, alpha, beta, coords, values) -> float:
    """Evidence lower bound of a Gamma variational state for Poisson CP.

    Count term over stored entries with the geometric expectations,
    reconstruction mass from the arithmetic ones, and for every factor the
    expected log Gamma(alpha, alpha * beta[m]) prior plus the entropy.
    """
    y = values.astype(np.float64)
    geometric = [np.exp(digamma(g)) / d for g, d in zip(gamma, delta)]
    arithmetic = [g / d for g, d in zip(gamma, delta)]
    count = float(y @ np.log(_entry_sums(geometric, coords)) - gammaln(y + 1.0).sum())
    prior = 0.0
    for m, (g, d) in enumerate(zip(gamma, delta)):
        rate = alpha * beta[m]
        elog = digamma(g) - np.log(d)
        prior += float(
            (alpha * np.log(rate) - gammaln(alpha) + (alpha - 1.0) * elog - rate * g / d).sum()
        )
        prior += float((g - np.log(d) + gammaln(g) + (1.0 - g) * digamma(g)).sum())
    return count - _total_mass(arithmetic) + prior


def geometric_below_arithmetic(gamma, delta) -> bool:
    return all(
        bool(np.all(np.exp(digamma(g)) / d <= g / d)) for g, d in zip(gamma, delta)
    )


def generalized_kl(mats, coords, values) -> float:
    """sum over all cells of y log(y / yhat) - y + yhat."""
    y = values.astype(np.float64)
    yhat = _entry_sums(mats, coords)
    return float(kl_div(y, yhat).sum()) + _total_mass(mats) - float(yhat.sum())


def check_monotone(values: np.ndarray, increasing: bool, what: str) -> None:
    steps = np.diff(values) if increasing else -np.diff(values)
    slack = np.abs(values[:-1]) * 1e-10
    require(bool(np.all(steps + slack >= 0)), f"{what} is not monotone: {values.tolist()}")


# ---------------------------------------------------------------------------
# Heldout scores
# ---------------------------------------------------------------------------


def dense_region_scores(mats, shape, coords, values, rows, cols, complement):
    """Dense MAE, MAE-NZ and the HAM-Z count band over an actor-pair region.

    Returns (mae, mae_nz, n_zero, over_low, over_high): the zero cells
    predicted above 0.5 + 1e-9 and above 0.5 - 1e-9, which bracket the
    strict > 0.5 count against last-digit rounding of the reconstruction.
    """
    letters = "ijklmnop"[: len(shape)]
    spec = ",".join(f"{c}z" for c in letters) + "->" + letters
    yhat = np.einsum(spec, *mats, optimize=True)
    truth = np.zeros(shape)
    truth[tuple(coords.T)] = values
    pairs = np.zeros(shape[:2], dtype=bool)
    pairs[np.ix_(rows, cols)] = True
    if complement:
        pairs = ~pairs
    yhat, truth = yhat[pairs].ravel(), truth[pairs].ravel()
    err = np.abs(yhat - truth)
    nonzero = truth > 0
    zero_hat = yhat[~nonzero]
    return (
        float(err.mean()),
        float(err[nonzero].mean()) if nonzero.any() else float("nan"),
        int(zero_hat.size),
        int((zero_hat > 0.5 + 1e-9).sum()),
        int((zero_hat > 0.5 - 1e-9).sum()),
    )


def check_region_scores(scores: dict, mats, truth, region) -> None:
    mae, mae_nz, n_zero, low, high = dense_region_scores(
        mats, truth.shape, truth.coords, truth.values,
        region.rows, region.cols, region.complement,
    )
    require(close(scores["mae"], mae), f"MAE {scores['mae']!r} != dense {mae!r}")
    require(
        close(scores["mae_nz"], mae_nz) or (np.isnan(mae_nz) and np.isnan(scores["mae_nz"])),
        f"MAE-NZ {scores['mae_nz']!r} != dense {mae_nz!r}",
    )
    over = round(scores["ham_z"] * n_zero)
    require(
        low <= over <= high and close(over / n_zero, scores["ham_z"]),
        f"HAM-Z {scores['ham_z']!r} outside dense [{low}, {high}] / {n_zero}",
    )


# ---------------------------------------------------------------------------
# Ingestion and component ranking
# ---------------------------------------------------------------------------


def bin_index(day: dt.date, start: dt.date, bin_width: str) -> int:
    if bin_width == "day":
        return (day - start).days
    if bin_width == "month":
        return (day.year - start.year) * 12 + day.month - start.month
    raise ValueError(bin_width)


def time_labels(start: dt.date, n_bins: int, bin_width: str) -> list[str]:
    if bin_width == "day":
        return [(start + dt.timedelta(days=t)).isoformat() for t in range(n_bins)]
    first = start.year * 12 + start.month - 1
    return [f"{(first + t) // 12:04d}-{(first + t) % 12 + 1:02d}" for t in range(n_bins)]


def counter_rebuild(events, start: dt.date, end: dt.date, bin_width: str):
    """Counts per (sender, receiver, action, bin) of the in-range, non-self events."""
    counts = Counter(
        (s, r, a, bin_index(ts.date(), start, bin_width))
        for s, r, a, ts in events
        if s != r and start <= ts.date() <= end
    )
    actors = sorted({k[0] for k in counts} | {k[1] for k in counts})
    actions = sorted({k[2] for k in counts})
    n_bins = bin_index(end, start, bin_width) + 1
    return counts, [actors, actors, actions, time_labels(start, n_bins, bin_width)]


def check_ingested(tensor_path: Path, labels_path: Path, events, start, end, bin_width):
    shape, coords, values = read_tensor_file(tensor_path)
    labels = read_labels_file(labels_path, len(shape))
    counts, expected_labels = counter_rebuild(events, start, end, bin_width)
    require(labels == expected_labels, f"{bin_width} ingest: labels differ from the rebuild")
    require(
        shape == tuple(len(lab) for lab in expected_labels),
        f"{bin_width} ingest: shape {shape} differs from the rebuild",
    )
    got = Counter()
    for (i, j, a, t), v in zip(coords.tolist(), values.tolist()):
        got[(labels[0][i], labels[1][j], labels[2][a], t)] += v
    require(got == counts, f"{bin_width} ingest: counts differ from the Counter rebuild")


def pairwise_gini(v: np.ndarray) -> float:
    """Mean absolute pairwise difference over twice the mean (divide by n^2)."""
    v = np.asarray(v, dtype=np.float64)
    total = np.abs(v[:, None] - v[None, :]).sum()
    return float(total / (2.0 * v.size * v.sum()))


def check_ranking(index_path: Path, state_dir: Path) -> None:
    """The explore index lists components by descending oracle Gini."""
    gamma, delta, _, _ = read_state(state_dir)
    time_factors = np.exp(digamma(gamma[-1])) / delta[-1]
    oracle = [pairwise_gini(time_factors[:, k]) for k in range(time_factors.shape[1])]
    rows = [line.split("\t") for line in index_path.read_text().splitlines()[1:]]
    order = [int(row[1]) for row in rows]
    require(sorted(order) == list(range(len(oracle))), "explore index is not a permutation")
    for rank, (k, printed) in enumerate(zip(order, (float(r[2]) for r in rows))):
        require(
            abs(printed - oracle[k]) <= 5e-4 * oracle[k] + 1e-12,
            f"component {k}: printed Gini {printed} != oracle {oracle[k]:.6g}",
        )
        if rank:
            prev = order[rank - 1]
            require(
                oracle[prev] >= oracle[k] - 1e-12,
                f"explore ranks component {prev} above {k} against the oracle Gini",
            )
