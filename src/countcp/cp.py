"""CP reconstruction, count-tensor objectives and the ascent loop shared by all fitters.

The reconstruction of cell c is sum_k prod_m factors[m][c_m, k].  Both
objectives run over the cells of a ``masking.Region``; a call without one
means the whole tensor (``Region.whole``).  They cost only
O(nnz * K + sum_m shape[m] * K): the region's sum of the reconstruction
factorizes into per-mode column sums.  ``_allocate`` is the Poisson count
allocation behind both the BPTF shape update and the KL update: a
per-entry softmax over summed log factors, run block by block over the
tensor's cached block plan (``SparseCountTensor._block_plan``).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.special import gammaln

from .errors import ConfigError, IngestionError
from .masking import Region
from .tensors import SparseCountTensor, _open_input, load_labels, save_labels


class FactorSet:
    """Non-negative CP factors: one (mode size x K) matrix per mode."""

    __slots__ = ("factors", "k")

    def __init__(self, factors):
        factors = [np.ascontiguousarray(f, dtype=np.float64) for f in factors]
        if not factors:
            raise ValueError("factor set needs at least one mode")
        k = factors[0].shape[1] if factors[0].ndim == 2 else -1
        for m, f in enumerate(factors):
            if f.ndim != 2 or f.shape[1] != k:
                raise ValueError(f"mode {m}: every factor matrix needs K columns")
            if not np.all(np.isfinite(f)):
                raise ValueError(f"mode {m}: factors must be finite")
            if f.min(initial=0.0) < 0.0:
                raise ValueError(f"mode {m}: factors must be non-negative")
            f.setflags(write=False)
        object.__setattr__(self, "factors", factors)
        object.__setattr__(self, "k", k)

    def __setattr__(self, name, value):
        raise AttributeError("FactorSet is immutable; build a new one")

    @property
    def shape(self) -> tuple:
        return tuple(f.shape[0] for f in self.factors)

    @property
    def ndim(self) -> int:
        return len(self.factors)

    def replace_mode(self, mode: int, matrix) -> "FactorSet":
        mats = [f for f in self.factors]
        mats[mode] = matrix
        return FactorSet(mats)


def _entry_products(mats, coords, skip=None) -> np.ndarray:
    """(n, K) product, in ascending mode order, of the factor rows each
    coordinate selects, leaving out mode ``skip``."""
    modes = [m for m in range(len(mats)) if m != skip]
    parts = mats[modes[0]][coords[:, modes[0]]]
    for m in modes[1:]:
        parts *= mats[m][coords[:, m]]
    return parts


# A component whose summed log factor lies more than 700 below its entry's
# largest gets a share of exactly 0: clamping there keeps ``exp`` clear of
# subnormals, which slow it several-fold, and subtracting the clamp's own
# weight zeroes it while leaving every weight above exp(-664) unchanged.
_LOG_FLOOR = -700.0
_FLOOR_WEIGHT = float(np.exp(_LOG_FLOOR))
# Per-entry (n, K) work runs in blocks of about this many (entry, component)
# cells, so that its several elementwise passes over a block run in cache.
_BLOCK_CELLS = 1 << 16


def _count_shares(logs, t: SparseCountTensor, mode=None):
    """Each stored count of ``t`` split across components by a softmax of
    the entry's summed log factors (per-mode rows, summed in ascending mode
    order; each entry is max-shifted), over the tensor's block plan.

    Returns (log_mass, allocated): each entry's log of its summed exp log
    factors and, given a ``mode``, the split counts summed per ``mode``
    index (else None).  If some entry has no mass or a non-finite log
    factor, ``log_mass`` ends in the block holding the first such entry.
    """
    k, table, log_mass = logs[0].shape[1], np.concatenate(logs), np.empty(t.nnz)
    allocated = None if mode is None else np.zeros((t.shape[mode], k))
    for rows, gather, incidence in t._block_plan(max(1, _BLOCK_CELLS // k)):
        parts, top = gather @ table, log_mass[rows]
        # a loop over columns: numpy's row-wise max is slow on short rows
        top[...] = parts[:, 0]
        for j in range(1, k):
            np.maximum(top, parts[:, j], out=top)
        if not np.all(np.isfinite(top)):
            return log_mass[:rows.stop], allocated
        parts -= top[:, None]
        np.maximum(parts, _LOG_FLOOR, out=parts)
        np.exp(parts, out=parts)
        parts -= _FLOOR_WEIGHT
        total = parts.sum(axis=1)
        if mode is not None:
            parts *= (t.values[rows] / total)[:, None]
            allocated += incidence[mode] @ parts
        top += np.log(total)
    return log_mass, allocated


def _allocate(logs, t: SparseCountTensor, mode, out):
    """Poisson count allocation: add each stored count of ``t``, split by
    ``_count_shares``, into ``out`` at its ``mode`` index.

    Returns the coordinate of the first entry with no mass or a non-finite
    log factor, leaving ``out`` untouched, or None.
    """
    log_mass, allocated = _count_shares(logs, t, mode)
    bad = ~np.isfinite(log_mass)
    if bad.any():
        return tuple(int(c) for c in t.coords[np.argmax(bad)])
    out += allocated
    return None


def reconstruct_entries(f: FactorSet, coords) -> np.ndarray:
    """Vectorized reconstruction at an (n, M) array of coordinates."""
    coords = np.asarray(coords, dtype=np.int64)
    out = np.empty(coords.shape[0])
    step = max(1, _BLOCK_CELLS // f.k)
    for lo in range(0, coords.shape[0], step):
        out[lo:lo + step] = _entry_products(f.factors, coords[lo:lo + step]).sum(axis=1)
    return out


def reconstruct_dense(f: FactorSet) -> np.ndarray:
    """Materialize the full reconstruction; only for small shapes."""
    out = np.zeros(f.shape)
    for k in range(f.k):
        term = f.factors[0][:, k]
        for m in range(1, f.ndim):
            term = np.multiply.outer(term, f.factors[m][:, k])
        out += term
    return out


def total_recon_mass(f: FactorSet, region: Region | None = None) -> float:
    """Sum of the reconstruction over a region's cells (default: every cell).

    A Region's block structure gives the sum in closed form.
    """
    return (region or Region.whole(f.shape)).sum_recon(f.factors)


def _entry_recon_and_values(f: FactorSet, t: SparseCountTensor, region: Region):
    part = region.restrict(t)
    return reconstruct_entries(f, part.coords), part.values.astype(np.float64)


def poisson_log_likelihood(f: FactorSet, t: SparseCountTensor, region=None) -> float:
    """Poisson log likelihood of the counts under the reconstruction.

    Every cell contributes y*log(yhat) - yhat - log(y!); zero cells reduce
    to -yhat, so their total is the closed-form reconstruction mass.  A zero
    reconstruction under a positive count makes the result -inf (reported
    as a value, not an exception).  ``region`` restricts the sum to a cell
    region, keeping the closed-form mass.
    """
    if f.shape != t.shape:
        raise ValueError(f"factor shape {f.shape} != tensor shape {t.shape}")
    region = region or Region.whole(t.shape)
    yhat, y = _entry_recon_and_values(f, t, region)
    if np.any(yhat == 0.0):
        return float("-inf")
    ll = float((y * np.log(yhat)).sum() - gammaln(y + 1.0).sum())
    return ll - total_recon_mass(f, region)


def generalized_kl(t: SparseCountTensor, f: FactorSet, region=None) -> float:
    """Generalized KL divergence of the reconstruction from the counts.

    D = sum over cells of y*log(y/yhat) - y + yhat, with 0*log 0 taken as 0.
    Non-negative, zero only for a perfect reconstruction; +inf if some
    positive count sits on a zero reconstruction.  ``region`` is handled
    as in poisson_log_likelihood.
    """
    if f.shape != t.shape:
        raise ValueError(f"factor shape {f.shape} != tensor shape {t.shape}")
    region = region or Region.whole(t.shape)
    yhat, y = _entry_recon_and_values(f, t, region)
    if np.any(yhat == 0.0):
        return float("inf")
    entry_part = float((y * (np.log(y) - np.log(yhat))).sum() - y.sum())
    return entry_part + total_recon_mass(f, region)


# ---------------------------------------------------------------------------
# Coordinate ascent
# ---------------------------------------------------------------------------


@dataclass
class Trace:
    """Per-sweep objective of a fit, plus the rate multipliers of a BPTF fit.

    For BPTF ``values`` holds the ELBOs and ``betas`` the rate multipliers in
    force at each sweep; the multiplicative-update fits leave ``betas`` empty.
    """

    values: list = field(default_factory=list)
    betas: list = field(default_factory=list)
    converged: bool = False

    @property
    def n_iterations(self) -> int:
        return len(self.values)


def _ascend(sweep, max_iterations: int, tolerance: float) -> Trace:
    """Run ``sweep`` (one full update, returning the objective) to convergence.

    Stops when the objective changes by at most ``tolerance`` relative to the
    previous sweep's, or after ``max_iterations`` sweeps; non-convergence is
    reported in the trace, not raised.
    """
    trace = Trace()
    previous = None
    for _ in range(max_iterations):
        value = sweep()
        trace.values.append(value)
        if previous is not None and abs(value - previous) <= tolerance * abs(previous):
            trace.converged = True
            break
        previous = value
    return trace


# ---------------------------------------------------------------------------
# Factor files: per-mode delimited matrices plus a small manifest
# ---------------------------------------------------------------------------

_FLOAT_FMT = "%.17g"


def save_matrix(matrix, path) -> None:
    np.savetxt(path, np.asarray(matrix, dtype=np.float64), fmt=_FLOAT_FMT)


def load_matrix(path) -> np.ndarray:
    return np.loadtxt(path, dtype=np.float64, ndmin=2)


def write_trace(trace: Trace, path) -> None:
    """Delimited trace: iteration, objective, then any rate multipliers."""
    betas = trace.betas or [()] * len(trace.values)
    with Path(path).open("w") as fh:
        for i, (value, beta) in enumerate(zip(trace.values, betas), start=1):
            fields = [str(i), f"{value:.17g}", *(f"{b:.17g}" for b in beta)]
            fh.write(" ".join(fields) + "\n")


def write_manifest(path, pairs) -> None:
    with Path(path).open("w") as fh:
        for key, value in pairs:
            fh.write(f"{key} = {value}\n")


def read_manifest(path) -> dict:
    out = {}
    with _open_input(Path(path)) as fh:
        for ln, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise IngestionError(f"{path}: line {ln}: expected 'key = value'")
            key, _, value = line.partition("=")
            out[key.strip()] = value.strip()
    return out


def save_factors(f: FactorSet, directory, mode_labels=None) -> Path:
    """Write a factor set as a directory bundle: manifest + one matrix per mode."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    pairs = [
        ("modes", f.ndim),
        ("k", f.k),
        ("shape", " ".join(str(s) for s in f.shape)),
    ]
    for m, mat in enumerate(f.factors):
        name = f"factors_mode{m}.txt"
        save_matrix(mat, directory / name)
        pairs.append((f"matrix_{m}", name))
    if mode_labels is not None:
        save_labels(mode_labels, directory / "labels.txt")
        pairs.append(("labels", "labels.txt"))
    write_manifest(directory / "manifest.txt", pairs)
    return directory


@contextmanager
def _reading_bundle(directory):
    """The manifest of a bundle, to read the bundle with inside the block.

    A missing file or manifest key, an unparsable value or an invalid matrix
    met inside the block becomes one IngestionError naming the bundle.
    """
    manifest = read_manifest(directory / "manifest.txt")
    try:
        yield manifest
    except KeyError as exc:
        raise IngestionError(f"{directory}: manifest has no {exc} entry") from exc
    except (OSError, ValueError, ConfigError) as exc:
        raise IngestionError(f"{directory}: {exc}") from exc


def _mode_matrices(directory, manifest, key):
    """The matrices a manifest lists as ``key_0``, ``key_1``, ..., checked
    against its ``shape`` and ``k``."""
    n_modes, k = int(manifest["modes"]), int(manifest["k"])
    mats = [load_matrix(directory / manifest[f"{key}_{m}"]) for m in range(n_modes)]
    if [m.shape for m in mats] != [(int(s), k) for s in manifest["shape"].split()]:
        raise IngestionError(f"{directory}: manifest disagrees with matrix files")
    return mats


def load_factors(directory):
    """Read a factor bundle; returns (FactorSet, mode_labels or None)."""
    directory = Path(directory)
    with _reading_bundle(directory) as manifest:
        f = FactorSet(_mode_matrices(directory, manifest, "matrix"))
    labels = None
    if "labels" in manifest:
        labels = load_labels(directory / manifest["labels"], f.shape)
    return f, labels
