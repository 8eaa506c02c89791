"""CP reconstruction, count-tensor objectives and the ascent loop shared by all fitters.

The reconstruction of cell c is sum_k prod_m factors[m][c_m, k].  Both
objectives run over the cells of a ``masking.Region``; a call without one
means the whole tensor (``Region.whole``).  They cost only
O(nnz * K + sum_m shape[m] * K): the region's sum of the reconstruction
factorizes into per-mode column sums.  ``_count_shares`` is the Poisson
count allocation behind both the BPTF shape update and the KL update: a
per-entry softmax over summed log factors, run block by block over log
tables whose rows are shifted by their maxima, so no entry needs a maximum
of its own.  A pass whose tables cannot sum below -660 skips the floor
that keeps ``exp`` clear of subnormals, and each block's counts are scaled
inside its incidence scatter.  At K up to ``_ROW_SUM_COLUMNS`` (24) the
row sums of the kernel and of the reconstructions are column adds in
numpy's pairwise order, with the bits of ``sum(axis=1)``; above it they
call ``sum(axis=1)`` itself (``_row_sums``).  The same kernel pass gives
each entry's log-sum-exp, the count term of the BPTF ELBO and the log
reconstruction of both objectives.  In training the tensor's cached gather
matrices sum the log rows (``SparseCountTensor._block_gather``); in heldout
inference, which runs each fitter's own sweeps over the time mode alone, a
per-entry prefix of the frozen modes (``_FrozenModes``) plus the time row
does, and the NTF-LS objective reads its reconstructions from a product
prefix.
``_ascend`` runs every fitter's sweeps to convergence and makes their
kernel passes: the objective's pass also allocates the next sweep's
first-mode counts.
"""

from __future__ import annotations

import warnings
from contextlib import contextmanager
from copy import copy
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


# A summed log part (at or below 0 after the row shift) more than 700 below
# 0 gets a share of exactly 0: clamping there keeps ``exp`` clear of
# subnormals, which slow it several-fold, and subtracting the clamp's own
# weight zeroes it while leaving every weight above exp(-664) unchanged.
_LOG_FLOOR = -700.0
_FLOOR_WEIGHT = float(np.exp(_LOG_FLOOR))
# When no summed part of a pass can lie below this, the floor changes no
# bit and is skipped: no part is clamped, and exp(x) >= exp(-660) >
# 2**54 * exp(-700) rounds back to itself once the floor weight is taken off.
_SHALLOW = -660.0
# An entry whose weights sum below this is redone with its exact maximum
# (``_count_shares`` states the bound this gives).
_RESCUE_TOTAL = 1e-250
# Per-entry (n, K) work runs in blocks of about this many (entry, component)
# cells, so that its several elementwise passes over a block run in cache.
_BLOCK_CELLS = 1 << 16


def _block_step(k: int) -> int:
    """Stored entries per block of per-entry (n, K) work."""
    return max(1, _BLOCK_CELLS // k)


# ``sum(axis=1)`` pays a fixed cost on every row, so on short rows whole-column
# adds are faster.  Per block of 2**16 cells on a 2-core x86 VM (numpy 2.4.6),
# sum(axis=1) against column adds: K 6 208 vs 67 us, K 12 150 vs 75, K 17 86
# vs 63, K 24 69 vs 66, K 32 52 vs 90, K 50 43 vs 86.  Above this K the row
# sums are numpy's own.
_ROW_SUM_COLUMNS = 24


def _row_sums(x) -> np.ndarray:
    """``x.sum(axis=1)`` of a C-contiguous (n, K) float64 array, bit for bit.

    numpy adds each row's pairwise sum onto 0.0.  Below 8 terms that sum
    runs left to right; from 8 it keeps 8 partial sums, the jth adding
    terms j, j + 8, ... of the whole groups of 8, combines them as
    ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)) and adds the leftover
    terms left to right.  Up to ``_ROW_SUM_COLUMNS`` terms the same adds run
    on whole columns.  The 0.0 is added to the first column: it only turns
    a -0.0 into 0.0, and a sum is -0.0 only if all its terms are.
    """
    k = x.shape[1]
    if not 0 < k <= _ROW_SUM_COLUMNS:
        return x.sum(axis=1)
    cols = [x[:, j] for j in range(k)]
    cols[0] = cols[0] + 0.0
    if k < 8:
        out, rest = cols[0], cols[1:]
    else:
        whole = k - k % 8
        r = cols[:8]
        for lo in range(8, whole, 8):
            r = [a + b for a, b in zip(r, cols[lo:lo + 8])]
        out = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        rest = cols[whole:]
    for col in rest:
        out += col
    return out


def _logs(mats):
    """The logs of non-negative factor matrices."""
    with np.errstate(divide="ignore"):  # a zero factor is a weight of exactly 0
        return [np.log(m) for m in mats]


def _lowest_sum(table, sizes) -> float:
    """The lowest sum, in ascending mode order, of one entry from each of the
    consecutive row blocks of ``sizes`` rows that make up ``table``; as
    rounding is monotone, no sum of one entry per block, taken in the same
    order, lies below it.  nan if some entry is."""
    lowest, lo = 0.0, 0
    for size in sizes:
        lowest += table[lo:lo + size].min()
        lo += size
    return lowest


def _row_shifted(log):
    """A log table with each row shifted by its maximum, and the maxima.

    A row whose maximum is not finite (all -inf, or holding nan or +inf)
    leaves a non-finite maximum, which marks every entry on the row.
    """
    top = np.ascontiguousarray(log.T).max(axis=0)  # log.max(axis=1) is slow on short rows
    with np.errstate(invalid="ignore"):
        return log - top[:, None], top


class _FrozenModes:
    """The stored entries of ``t`` with every mode but the last frozen.

    Heldout inference updates only the last (time) mode, so the frozen
    modes' per-entry work is done once here: ``logs`` sums each entry's
    frozen row-shifted log rows (``_row_shifted``) onto 0.0 in ascending
    mode order, as the block plan's gather does, ``shift`` their row maxima
    and ``lowest`` the least of ``logs``; ``products`` multiplies its frozen
    factor rows as ``_entry_products`` does.  Adding the entry's shifted
    last-mode row and its maximum, or multiplying by its last-mode row, then
    gives the bits of the whole sum or product.  Each prefix, built only when its
    inputs are given, takes nnz * K * 8 bytes (the log one nnz * 8 more, for
    ``shift``); at small K that is less than the gather and non-last
    incidence matrices the tensor then never builds.
    """

    def __init__(self, t: SparseCountTensor, mats=None, logs=None):
        self.t, self.last = t, t.coords[:, -1]
        self.products = None if mats is None else _entry_products(mats, t.coords)
        self.logs = self.shift = self.lowest = None
        if logs is not None:
            self.logs, self.shift = np.zeros((t.nnz, logs[0].shape[1])), np.zeros(t.nnz)
            for m, log in enumerate(logs):
                shifted, top = _row_shifted(log)
                self.logs += np.take(shifted, t.coords[:, m], axis=0)
                self.shift += np.take(top, t.coords[:, m])
            self.lowest = self.logs.min(initial=0.0)

    def summed_logs(self, shifted, top, step):
        """Each block's summed shifted log rows and summed row maxima, given
        the last mode's shifted log rows and their maxima (``_row_shifted``)."""
        for rows in self.t._block_rows(step):
            last = self.last[rows]
            yield self.logs[rows] + np.take(shifted, last, axis=0), self.shift[rows] + top[last]

    def recon(self, last) -> np.ndarray:
        """Each entry's reconstruction (``reconstruct_entries``' bits), given
        the last mode's factors."""
        out = np.empty(self.t.nnz)
        for rows in self.t._block_rows(_block_step(last.shape[1])):
            out[rows] = _row_sums(self.products[rows] * np.take(last, self.last[rows], axis=0))
        return out


def _weights(parts, out, shallow=False):
    """exp of log parts at or below 0 into ``out``; a part below
    ``_LOG_FLOOR`` gets exactly 0.  ``shallow`` says no part lies below
    ``_SHALLOW``, where the floor changes no bit, so it is skipped."""
    if shallow:
        return np.exp(parts, out=out)
    np.maximum(parts, _LOG_FLOOR, out=out)
    np.exp(out, out=out)
    out -= _FLOOR_WEIGHT
    return out


def _scatter(incidence, data, x):
    """``incidence`` (a block's cached ``_block_incidence`` matrix) with its
    one entry per stored entry replaced by ``data``, times ``x``: each row of
    ``x`` times its entry's datum, added into the row of its ``mode`` index.
    The product multiplies each datum into its row as it adds it, so scaling
    the rows first would give the same bits.  A shallow copy takes the new
    data, so the cached plan, which threads share, is never written."""
    scaled = copy(incidence)
    scaled.data = data
    return scaled @ x


def _count_shares(logs, t: SparseCountTensor, mode=None, frozen=None):
    """Each stored count of ``t`` split across components by a softmax of
    the entry's summed log factors, block by block.

    Each mode's log table has its rows shifted by their maxima
    (``_row_shifted``), and each entry's shifted rows and maxima are summed
    in ascending mode order: by the block plan's gather, or with ``frozen``
    (a ``_FrozenModes`` of ``t``) by the frozen prefixes plus the entry's
    row of ``logs[-1]``, the only table then read, which gives the same
    bits.  The summed parts are at or below 0, so the softmax needs no
    per-entry maximum: the maxima's sum is the entry's shift.  An entry
    whose weights sum below ``_RESCUE_TOTAL`` (1e-250) is redone from its
    gathered parts shifted by their exact maximum, which joins the shift.
    Otherwise the parts floored under the row shift but not under the
    exact maximum lose at most K * exp(-700) / 1e-250 = exp(-(124.35 -
    ln K)) of the entry's total, below 1e-50 at K 50.

    Depth guard: once per pass, the least summed part is bounded from the
    shifted tables (the sum over modes of each mode's least shifted entry;
    with ``frozen``, the least frozen prefix plus the last mode's least
    entry).  At or above ``_SHALLOW`` (-660) the weights are a plain exp,
    the floor's bits; a nan or -inf bound keeps the floor, as does the
    rescue's redo.  The split counts reach ``allocated`` through the
    incidence scatter with each entry's count over its total as the
    matrix data (``_scatter``), so the weights are never scaled in place.

    Returns (log_mass, allocated): each entry's log of its summed exp log
    factors (shift + log of the summed weights) and, given a ``mode``, the
    split counts summed per ``mode`` index (else None).  If some entry has
    no mass or a non-finite log factor (a non-finite shift), ``log_mass``
    ends in the block holding the first such entry, non-finite there.
    """
    k = logs[-1].shape[1]
    step = _block_step(k)
    if frozen is None:
        table, top = _row_shifted(np.concatenate(logs))
        lowest = _lowest_sum(table, [log.shape[0] for log in logs])
        blocks = ((gather @ table, gather @ top) for gather in t._block_gather(step))
    else:
        shifted, top = _row_shifted(logs[-1])
        lowest = frozen.lowest + shifted.min()
        blocks = frozen.summed_logs(shifted, top, step)
    shallow = lowest >= _SHALLOW
    log_mass = np.empty(t.nnz)
    allocated = None if mode is None else np.zeros((t.shape[mode], k))
    scatter = repeat(None) if mode is None else t._block_incidence(step, mode)
    work = np.empty((min(step, t.nnz), k))
    for rows, (parts, shift), incidence in zip(t._block_rows(step), blocks, scatter):
        weights = _weights(parts, work[:rows.stop - rows.start], shallow)
        total = _row_sums(weights)
        low = np.flatnonzero(total < _RESCUE_TOTAL)
        if low.size:
            exact = parts[low].max(axis=1)
            shift[low] += exact
        if not np.all(np.isfinite(shift)):
            log_mass[rows] = shift
            return log_mass[:rows.stop], allocated
        if low.size:
            redone = parts[low] - exact[:, None]
            weights[low] = _weights(redone, redone)
            total[low] = _row_sums(redone)
        if incidence is not None:
            allocated += _scatter(incidence, t.values[rows] / total, weights)
        log_mass[rows] = shift + np.log(total)
    return log_mass, allocated


def reconstruct_entries(f: FactorSet, coords) -> np.ndarray:
    """Vectorized reconstruction at an (n, M) array of coordinates."""
    coords = np.asarray(coords, dtype=np.int64)
    out = np.empty(coords.shape[0])
    step = _block_step(f.k)
    for lo in range(0, coords.shape[0], step):
        out[lo:lo + step] = _row_sums(_entry_products(f.factors, coords[lo:lo + step]))
    return out


def total_recon_mass(f: FactorSet, region: Region | None = None) -> float:
    """Sum of the reconstruction over a region's cells (default: every cell).

    A Region's block structure gives the sum in closed form.
    """
    return (region or Region.whole(f.shape)).sum_recon(f.factors)


def poisson_log_likelihood(f: FactorSet, t: SparseCountTensor, region=None) -> float:
    """Poisson log likelihood of the counts under the reconstruction.

    Every cell contributes y*log(yhat) - yhat - log(y!); zero cells reduce
    to -yhat, so their total is the closed-form reconstruction mass.  Each
    log(yhat) is the log-sum-exp of ``_count_shares``, as in
    ``generalized_kl``, so the two sum to the same constant for any
    factors.  A zero reconstruction under a positive count makes the result
    -inf (reported as a value, not an exception).  ``region`` restricts the
    sum to a cell region, keeping the closed-form mass.
    """
    y, log_mass, mass = _objective_terms(f, t, region)
    if not np.all(np.isfinite(log_mass)):
        return float("-inf")
    return float((y * log_mass).sum() - gammaln(y + 1.0).sum()) - mass


def generalized_kl(t: SparseCountTensor, f: FactorSet, region=None) -> float:
    """Generalized KL divergence of the reconstruction from the counts.

    D = sum over cells of y*log(y/yhat) - y + yhat, with 0*log 0 taken as 0.
    Non-negative, zero only for a perfect reconstruction; +inf if some
    positive count sits on a zero reconstruction.  Each log(yhat) is the
    log-sum-exp of ``_count_shares``, the pass that NTF-KL's update makes.
    ``region`` is handled as in poisson_log_likelihood.
    """
    return _kl_from_log_mass(*_objective_terms(f, t, region))


def _objective_terms(f: FactorSet, t: SparseCountTensor, region):
    """The stored counts of ``t`` inside ``region`` (default: the whole
    tensor), the logs of their reconstructions from one ``_count_shares``
    pass, and the region's reconstruction mass.  The logs end early,
    non-finite, if some entry has a zero reconstruction."""
    if f.shape != t.shape:
        raise ValueError(f"factor shape {f.shape} != tensor shape {t.shape}")
    region = region or Region.whole(t.shape)
    part = region.restrict(t)
    log_mass, _ = _count_shares(_logs(f.factors), part)
    return part.values.astype(np.float64), log_mass, total_recon_mass(f, region)


def _kl_from_log_mass(y, log_mass, mass) -> float:
    """Generalized KL from the stored counts, the logs of their
    reconstructions (``_count_shares``' log_mass) and the region's
    reconstruction mass."""
    if not np.all(np.isfinite(log_mass)):
        return float("inf")
    return float((y * (np.log(y) - log_mass)).sum() - y.sum()) + mass


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


@dataclass(frozen=True)
class _SweepConfig:
    """Every fitter's config: ``k`` components, at most ``max_iterations``
    sweeps of ``_ascend``, the relative ``tolerance`` that stops them, a ``seed``."""

    k: int
    max_iterations: int
    tolerance: float = 1e-5
    seed: int = 0

    def __post_init__(self):
        if self.k < 1:
            raise ConfigError("k must be a positive integer")
        if self.max_iterations < 1:
            raise ConfigError("max_iterations must be positive")
        if not self.tolerance > 0:
            raise ConfigError("tolerance must be positive")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")


def _ascend(t, modes, update, objective, max_iterations: int, tolerance: float,
            logs, frozen, dead) -> Trace:
    """Coordinate-ascent sweeps of ``modes`` over the stored entries of ``t``.

    A sweep calls ``update(mode, counts)`` for each of ``modes`` in turn,
    then returns ``objective(log_mass)``.  With ``logs``, per-mode log
    tables that the updates keep current, ``counts`` are the split counts
    of a ``_count_shares`` pass summed per ``mode`` index, and ``log_mass``
    comes from one pass over ``modes[0]`` after the updates, whose counts
    serve the next sweep's first update if every entry's log mass is
    finite.  Any other pass that meets an entry with no mass or a
    non-finite log factor raises ``dead``, an (error type, message) pair,
    naming the entry.  ``frozen`` is passed on to every pass.  Without
    ``logs`` both are None and ``dead`` goes unused.

    Stops when the objective changes by at most ``tolerance`` relative to the
    previous sweep's, or after ``max_iterations`` sweeps; non-convergence is
    reported in the trace, not raised.
    """
    trace = Trace()
    previous = carried = log_mass = None
    for _ in range(max_iterations):
        for mode in modes:
            counts, carried = carried, None
            if counts is None and logs is not None:
                mass, counts = _count_shares(logs, t, mode, frozen)
                bad = ~np.isfinite(mass)
                if bad.any():
                    error, message = dead
                    entry = tuple(int(c) for c in t.coords[np.argmax(bad)])
                    raise error(f"{message} at entry {entry}")
            update(mode, counts)
        if logs is not None:
            log_mass, carried = _count_shares(logs, t, modes[0], frozen)
            if not np.all(np.isfinite(log_mass)):
                carried = None
        value = objective(log_mass)
        trace.values.append(value)
        if previous is not None and abs(value - previous) <= tolerance * abs(previous):
            trace.converged = True
            break
        previous = value
    return trace


# ---------------------------------------------------------------------------
# Bundles: per-mode delimited matrices plus a small manifest
# ---------------------------------------------------------------------------


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


def _save_bundle(directory, shape, k, pairs, groups, mode_labels=None) -> Path:
    """Write a bundle: a manifest of ``modes``, ``k`` and ``shape``, then
    the bundle kind's own ``pairs``, then for each mode one ``%.17g`` matrix
    (bit-exact for doubles) per ``(key, stem, matrices)`` group, listed as
    ``<key>_<m> = <stem>_mode<m>.txt``, then any labels."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    manifest = [("modes", len(shape)), ("k", k), ("shape", " ".join(str(s) for s in shape)),
                *pairs]
    for m in range(len(shape)):
        for key, stem, matrices in groups:
            name = f"{stem}_mode{m}.txt"
            np.savetxt(directory / name, matrices[m], fmt="%.17g")
            manifest.append((f"{key}_{m}", name))
    if mode_labels is not None:
        save_labels(mode_labels, directory / "labels.txt")
        manifest.append(("labels", "labels.txt"))
    write_manifest(directory / "manifest.txt", manifest)
    return directory


def save_factors(f: FactorSet, directory, mode_labels=None) -> Path:
    """Write a factor set as a directory bundle: manifest + one matrix per mode."""
    return _save_bundle(directory, f.shape, f.k, [], [("matrix", "factors", f.factors)],
                        mode_labels)


@contextmanager
def _reading_bundle(directory):
    """The manifest of a bundle, to read the bundle with inside the block.

    A missing file or manifest key, an unparsable value or an invalid matrix
    met inside the block becomes one IngestionError naming the bundle.
    """
    path = directory / "manifest.txt"
    with _open_input(path) as fh:
        manifest = _key_values(fh, path, IngestionError)
    try:
        yield manifest
    except KeyError as exc:
        raise IngestionError(f"{directory}: manifest has no {exc} entry") from exc
    except (OSError, ValueError, ConfigError) as exc:
        raise IngestionError(f"{directory}: {exc}") from exc


def _mode_matrices(directory, manifest, key):
    """The matrices a manifest lists as ``key_0``, ``key_1``, ..., checked
    against its ``shape`` and ``k``.  A matrix file with no rows or a value
    that does not parse is an IngestionError naming the bundle and the file."""
    n_modes, k = int(manifest["modes"]), int(manifest["k"])
    mats = []
    for m in range(n_modes):
        name = manifest[f"{key}_{m}"]
        try:
            with warnings.catch_warnings():  # an empty file is reported below
                warnings.simplefilter("ignore", UserWarning)
                mats.append(np.loadtxt(directory / name, dtype=np.float64, ndmin=2))
        except ValueError as exc:
            raise IngestionError(f"{directory}: {name}: {exc}") from exc
        if not mats[-1].size:
            raise IngestionError(f"{directory}: {name}: no rows")
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
