"""CP reconstruction, count-tensor objectives and the ascent loop shared by all fitters.

The reconstruction of cell c is sum_k prod_m factors[m][c_m, k].  Both
objectives run over the cells of a ``masking.Region``; a call without one
means the whole tensor (``Region.whole``).  They cost only
O(nnz * K + sum_m shape[m] * K): the region's sum of the reconstruction
factorizes into per-mode column sums.  ``_allocate`` is the Poisson count
allocation behind both the BPTF shape update and the KL update: a
per-entry softmax over summed log factors, run block by block.  In training
the tensor's cached gather matrices sum the log rows
(``SparseCountTensor._block_gather``); in heldout inference, which runs
each fitter's own sweeps over the time mode alone, a per-entry prefix of
the frozen modes (``_FrozenModes``) plus the time row does, and the NTF
objective reads its reconstructions from the same prefix.  ``_ascend``
runs every fitter's sweeps to convergence.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import repeat
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
            _check_factor(m, f, k)
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
        """A copy with one mode's matrix replaced.  Only that matrix is
        checked: the others were when this set was built, and are read-only."""
        mats = list(self.factors)
        mats[mode] = np.ascontiguousarray(matrix, dtype=np.float64)
        _check_factor(mode, mats[mode], self.k)
        out = object.__new__(FactorSet)
        object.__setattr__(out, "factors", mats)
        object.__setattr__(out, "k", self.k)
        return out


def _check_factor(m, f, k):
    """Raise unless ``f`` is a finite non-negative matrix of ``k`` columns;
    then make it read-only."""
    if f.ndim != 2 or f.shape[1] != k:
        raise ValueError(f"mode {m}: every factor matrix needs K columns")
    if not np.all(np.isfinite(f)):
        raise ValueError(f"mode {m}: factors must be finite")
    if f.min(initial=0.0) < 0.0:
        raise ValueError(f"mode {m}: factors must be non-negative")
    f.setflags(write=False)


def _entry_products(mats, coords, skip=None) -> np.ndarray:
    """(n, K) product, in ascending mode order, of the factor rows each
    coordinate selects, leaving out mode ``skip``."""
    modes = [m for m in range(len(mats)) if m != skip]
    parts = np.take(mats[modes[0]], coords[:, modes[0]], axis=0)
    for m in modes[1:]:
        parts *= np.take(mats[m], coords[:, m], axis=0)
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


def _block_step(k: int) -> int:
    """Stored entries per block of per-entry (n, K) work."""
    return max(1, _BLOCK_CELLS // k)


class _FrozenModes:
    """The stored entries of ``t`` with every mode but the last frozen.

    Heldout inference updates only the last (time) mode, so the frozen
    modes' per-entry work is done once here: ``logs`` sums each entry's
    frozen log rows onto 0.0 in ascending mode order, as the block plan's
    gather does, and ``products`` multiplies its frozen factor rows as
    ``_entry_products`` does.  Adding, or multiplying by, the entry's
    last-mode row then gives the bits of the whole sum or product.  Each
    prefix, built only when its inputs are given, takes nnz * K * 8 bytes;
    at small K that is less than the gather and non-last incidence
    matrices the tensor then never builds.
    """

    def __init__(self, t: SparseCountTensor, mats=None, logs=None):
        self.t, self.last = t, t.coords[:, -1]
        self.products = None if mats is None else _entry_products(mats, t.coords)
        self.logs = None
        if logs is not None:
            self.logs = np.zeros((t.nnz, logs[0].shape[1]))
            for m, log in enumerate(logs):
                self.logs += np.take(log, t.coords[:, m], axis=0)

    def summed_logs(self, last_logs, step):
        """Each block's summed log rows, given the last mode's log rows."""
        return (
            self.logs[rows] + np.take(last_logs, self.last[rows], axis=0)
            for rows in self.t._block_rows(step)
        )

    def recon(self, last) -> np.ndarray:
        """Each entry's reconstruction (``reconstruct_entries``' bits), given
        the last mode's factors."""
        out = np.empty(self.t.nnz)
        for rows in self.t._block_rows(_block_step(last.shape[1])):
            out[rows] = (self.products[rows] * np.take(last, self.last[rows], axis=0)).sum(axis=1)
        return out


def _count_shares(logs, t: SparseCountTensor, mode=None, frozen=None):
    """Each stored count of ``t`` split across components by a softmax of
    the entry's summed log factors (per-mode rows, summed in ascending mode
    order; each entry is max-shifted), block by block.

    The block plan's gather sums the rows; with ``frozen`` (a
    ``_FrozenModes`` of ``t``) each entry's frozen log prefix plus its row
    of ``logs[-1]``, the only table then read, gives the same bits.
    Returns (log_mass, allocated): each entry's log of its summed exp log
    factors and, given a ``mode``, the split counts summed per ``mode``
    index (else None).  If some entry has no mass or a non-finite log
    factor, ``log_mass`` ends in the block holding the first such entry.
    """
    k = logs[-1].shape[1]
    step = _block_step(k)
    if frozen is None:
        table = np.concatenate(logs)
        summed = (gather @ table for gather in t._block_gather(step))
    else:
        summed = frozen.summed_logs(logs[-1], step)
    log_mass = np.empty(t.nnz)
    allocated = None if mode is None else np.zeros((t.shape[mode], k))
    scatter = repeat(None) if mode is None else t._block_incidence(step, mode)
    for rows, parts, incidence in zip(t._block_rows(step), summed, scatter):
        top = log_mass[rows]
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
        if incidence is not None:
            parts *= (t.values[rows] / total)[:, None]
            allocated += incidence @ parts
        top += np.log(total)
    return log_mass, allocated


def _allocate(logs, t: SparseCountTensor, mode, out, frozen=None):
    """Poisson count allocation: add each stored count of ``t``, split by
    ``_count_shares``, into ``out`` at its ``mode`` index.

    Returns the coordinate of the first entry with no mass or a non-finite
    log factor, leaving ``out`` untouched, or None.
    """
    log_mass, allocated = _count_shares(logs, t, mode, frozen)
    bad = ~np.isfinite(log_mass)
    if bad.any():
        return tuple(int(c) for c in t.coords[np.argmax(bad)])
    out += allocated
    return None


def reconstruct_entries(f: FactorSet, coords) -> np.ndarray:
    """Vectorized reconstruction at an (n, M) array of coordinates."""
    coords = np.asarray(coords, dtype=np.int64)
    out = np.empty(coords.shape[0])
    step = _block_step(f.k)
    for lo in range(0, coords.shape[0], step):
        out[lo:lo + step] = _entry_products(f.factors, coords[lo:lo + step]).sum(axis=1)
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
    return _kl_from_recon(y, yhat, total_recon_mass(f, region))


def _kl_from_recon(y, yhat, mass) -> float:
    """Generalized KL from the stored counts, their reconstructions and the
    region's reconstruction mass."""
    if np.any(yhat == 0.0):
        return float("inf")
    return float((y * (np.log(y) - np.log(yhat))).sum() - y.sum()) + mass


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
    """Write (key, value) pairs as a flat file of ``key = value`` lines."""
    with Path(path).open("w") as fh:
        for key, value in pairs:
            fh.write(f"{key} = {value}\n")


def _key_values(lines, path, error) -> dict:
    """The pairs of a flat ``key = value`` file read as ``lines``, numbered
    from 1.  Blank and '#' lines are skipped; any other line without '='
    raises ``error`` naming ``path`` and the line."""
    out = {}
    for ln, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise error(f"{path}: line {ln}: expected 'key = value'")
        key, _, value = line.partition("=")
        out[key.strip()] = value.strip()
    return out


def read_manifest(path) -> dict:
    with _open_input(Path(path)) as fh:
        return _key_values(fh, path, IngestionError)


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
