"""Shared builders for randomized test instances, and the slow reference
paths that the faster library paths are checked against."""

import csv
import datetime as dt
import io
import math
from dataclasses import dataclass, replace
from itertools import repeat
from math import prod
from pathlib import Path

import numpy as np
import pytest
from scipy.special import gammaln

from countcp import (
    ConfigError,
    EmptyRegionError,
    EmptyTensorError,
    FactorSet,
    Hyperparameters,
    InadmissibleZeroError,
    IngestionError,
    NumericalDegeneracyError,
    Region,
    SparseCountTensor,
    SpecValidationError,
    VariationalState,
    generalized_kl,
    init_state,
    reconstruct_entries,
    squared_error,
    update_beta,
    update_delta,
)
from countcp import cp, ntf
from countcp.bptf import _elbo, _gamma_prior_terms, _update_shape
from countcp.cp import Trace, _count_shares
from countcp.tensors import BIN_WIDTHS, EVENT_COLUMNS


def random_tensor(shape, rng, nnz=None, max_count=9, labels=None):
    """A random sparse count tensor with distinct coordinates."""
    total = int(np.prod(shape))
    if nnz is None:
        nnz = max(1, total // 4)
    flat = rng.choice(total, size=min(nnz, total), replace=False)
    coords = np.stack(np.unravel_index(flat, shape), axis=1)
    values = rng.integers(1, max_count + 1, size=coords.shape[0])
    return SparseCountTensor(shape, coords, values, labels or _labels(shape))


def _labels(shape):
    return [[str(i) for i in range(s)] for s in shape]


# ---------------------------------------------------------------------------
# Dense oracles: the full tensor, the full reconstruction and the point
# metrics over materialized cells, for small shapes only
# ---------------------------------------------------------------------------


def todense(t):
    """Materialize the full tensor; only sensible for small shapes."""
    dense = np.zeros(t.shape, dtype=np.int64)
    if t.nnz:
        dense[tuple(t.coords.T)] = t.values
    return dense


def reconstruct_dense(f):
    """Materialize the full reconstruction; only for small shapes."""
    out = np.zeros(f.shape)
    for k in range(f.k):
        term = f.factors[0][:, k]
        for m in range(1, f.ndim):
            term = np.multiply.outer(term, f.factors[m][:, k])
        out += term
    return out


def mae(predictions, truth) -> float:
    """Mean absolute error over every cell of a region, zeros included."""
    predictions = np.asarray(predictions, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if predictions.size == 0:
        raise SpecValidationError("MAE over an empty region is undefined")
    return float(np.abs(predictions - truth).mean())


def mae_nz(predictions, truth) -> float:
    """Mean absolute error restricted to cells with a non-zero true count.

    Returns NaN (an undefined-metric marker, not an error) when the region
    holds no non-zero cells.
    """
    predictions = np.asarray(predictions, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    keep = truth > 0
    if not keep.any():
        return math.nan
    return float(np.abs(predictions[keep] - truth[keep]).mean())


def ham_z(predictions, truth) -> float:
    """Fraction of truly zero cells predicted strictly above 0.5.

    Returns NaN when the region holds no zero cells.
    """
    predictions = np.asarray(predictions, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    zero = truth == 0
    if not zero.any():
        return math.nan
    return float((predictions[zero] > 0.5).mean())


def top_block(shape, n_prime, complement=False):
    """The upper-left n' x n' actor block of ``shape``, or its complement."""
    return Region(shape, range(n_prime), range(n_prime), complement)


def random_factors(shape, k, rng, low=0.1, high=2.0):
    return FactorSet([rng.uniform(low, high, size=(s, k)) for s in shape])


def state_from_point_estimate(factors):
    """A variational state whose two expectation caches both equal ``factors``.

    The caches deliberately coincide (arithmetic == geometric), which no
    exact Gamma satisfies; the next refresh restores consistency.  This is
    how a multiplicative-update solution warm-starts a Bayesian sweep.
    """
    gamma = [np.maximum(f, 1e-300) for f in factors.factors]
    delta = [np.ones_like(f) for f in factors.factors]
    caches = [f.copy() for f in factors.factors]
    with np.errstate(divide="ignore"):
        elog = [np.log(c) for c in caches]
    return VariationalState(gamma, delta, expect=caches, elog=elog)


def prior_state(shape, k, hyper):
    """A variational state exactly at the prior: gamma = alpha and delta =
    alpha * beta[m], so each arithmetic expectation is the prior mean."""
    gamma = [np.full((s, k), hyper.alpha) for s in shape]
    delta = [np.full((s, k), hyper.rate(m)) for m, s in enumerate(shape)]
    return VariationalState(gamma, delta)


def linear_allocate(mats, coords, values, mode, out):
    """The count allocation in linear space with an ``np.add.at`` scatter:
    the oracle for ``allocate``, which takes the logs of ``mats``.

    Splits each count across components in proportion to the product of the
    factor rows its coordinate selects and adds it into ``out``; returns the
    coordinate of the first entry whose products sum to zero or a non-finite
    value, leaving ``out`` untouched, or None.
    """
    parts = np.ones((coords.shape[0], mats[0].shape[1]))
    for m, mat in enumerate(mats):
        parts *= mat[coords[:, m]]
    totals = parts.sum(axis=1)
    bad = ~np.isfinite(totals) | (totals <= 0.0)
    if bad.any():
        return tuple(int(c) for c in coords[np.argmax(bad)])
    np.add.at(out, coords[:, mode], parts * (values / totals)[:, None])
    return None


def allocate(logs, t, mode, out):
    """Poisson count allocation: add each stored count of ``t``, split by
    one fresh ``cp._count_shares`` pass, into ``out`` at its ``mode`` index.

    Returns the coordinate of the first entry with no mass or a non-finite
    log factor, leaving ``out`` untouched, or None.
    """
    log_mass, allocated = _count_shares(logs, t, mode)
    bad = ~np.isfinite(log_mass)
    if bad.any():
        return tuple(int(c) for c in t.coords[np.argmax(bad)])
    out += allocated
    return None


def oracle_count_shares(logs, t, mode=None):
    """``cp._count_shares`` as it ran before its row-shifted tables: the
    oracle of the training path.

    Each block's summed log rows come from the block plan's gather of the
    unshifted tables; each entry is shifted by its exact maximum, taken one
    column at a time, and a non-finite maximum ends ``log_mass`` in that
    entry's block.
    """
    k = logs[-1].shape[1]
    step = cp._block_step(k)
    table = np.concatenate(logs)
    summed = (gather @ table for gather in t._block_gather(step))
    log_mass = np.empty(t.nnz)
    allocated = None if mode is None else np.zeros((t.shape[mode], k))
    scatter = repeat(None) if mode is None else t._block_incidence(step, mode)
    for rows, parts, incidence in zip(t._block_rows(step), summed, scatter):
        top = log_mass[rows]
        top[...] = parts[:, 0]
        for j in range(1, k):
            np.maximum(top, parts[:, j], out=top)
        if not np.all(np.isfinite(top)):
            return log_mass[:rows.stop], allocated
        parts -= top[:, None]
        np.maximum(parts, cp._LOG_FLOOR, out=parts)
        np.exp(parts, out=parts)
        parts -= cp._FLOOR_WEIGHT
        total = parts.sum(axis=1)
        if incidence is not None:
            parts *= (t.values[rows] / total)[:, None]
            allocated += incidence @ parts
        top += np.log(total)
    return log_mass, allocated


def _floored_weights(parts, out):
    np.maximum(parts, cp._LOG_FLOOR, out=out)
    np.exp(out, out=out)
    out -= cp._FLOOR_WEIGHT
    return out


def oracle_floored_count_shares(logs, t, mode=None, frozen=None):
    """``cp._count_shares`` as it ran before its depth guard and scaled
    scatter: the oracle of both, which must give the same bits.

    Every block's weights are clamped at ``cp._LOG_FLOOR`` and have the
    floor weight taken off, and each entry's weights are scaled by its count
    over its total before a plain incidence scatter.  With ``frozen`` (a
    ``cp._FrozenModes`` of ``t``) each block's summed parts and shift are its
    frozen prefixes plus its row of the shifted ``logs[-1]``.
    """
    k = logs[-1].shape[1]
    step = cp._block_step(k)
    if frozen is None:
        table, top = cp._row_shifted(np.concatenate(logs))
        blocks = ((gather @ table, gather @ top) for gather in t._block_gather(step))
    else:
        shifted, top = cp._row_shifted(logs[-1])
        blocks = ((frozen.logs[rows] + np.take(shifted, frozen.last[rows], axis=0),
                   frozen.shift[rows] + top[frozen.last[rows]]) for rows in t._block_rows(step))
    log_mass = np.empty(t.nnz)
    allocated = None if mode is None else np.zeros((t.shape[mode], k))
    scatter = repeat(None) if mode is None else t._block_incidence(step, mode)
    for rows, (parts, shift), incidence in zip(t._block_rows(step), blocks, scatter):
        weights = _floored_weights(parts, np.empty_like(parts))
        total = weights.sum(axis=1)
        low = np.flatnonzero(total < cp._RESCUE_TOTAL)
        if low.size:
            exact = parts[low].max(axis=1)
            shift[low] += exact
        if not np.all(np.isfinite(shift)):
            log_mass[rows] = shift
            return log_mass[:rows.stop], allocated
        if low.size:
            redone = parts[low] - exact[:, None]
            weights[low] = _floored_weights(redone, redone)
            total[low] = redone.sum(axis=1)
        if incidence is not None:
            weights *= (t.values[rows] / total)[:, None]
            allocated += incidence @ weights
        log_mass[rows] = shift + np.log(total)
    return log_mass, allocated


def oracle_ls_numerator(part, mats, mode, frozen=None):
    """``ntf._ls_numerator`` as it ran before its scaled scatter: each block's
    other-mode products times its counts, then a plain incidence scatter."""
    k = mats[0].shape[1]
    step = cp._block_step(k)
    numer = np.zeros((part.shape[mode], k))
    for rows, incidence in zip(part._block_rows(step), part._block_incidence(step, mode)):
        if frozen is None:
            other = cp._entry_products(mats, part.coords[rows], skip=mode)
        else:
            other = frozen.products[rows]
        numer += incidence @ (other * part.values[rows, None])
    return numer


# ---------------------------------------------------------------------------
# Heldout inference and the fits as they ran before the frozen-prefix and
# fused-objective paths: every sweep through the per-mode updates, each from a
# fresh kernel pass, and a standalone objective, each over the block plan's
# gather, kept as the oracles of those paths
# ---------------------------------------------------------------------------


def oracle_ascend(sweep, max_iterations, tolerance) -> Trace:
    """``cp._ascend`` as it ran before it made the kernel passes: ``sweep``
    (one full update, returning the objective) run to convergence."""
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


def fresh_update_shape(state, t, mode, hyper):
    """``bptf._update_shape`` of ``mode`` from a fresh allocation over the
    stored entries of ``t``; a dead entry raises as the fit does."""
    counts = np.zeros(state.gamma[mode].shape)
    bad = allocate(state.elog, t, mode, counts)
    if bad is not None:
        raise NumericalDegeneracyError(f"all-component geometric mass vanished at entry {bad}")
    _update_shape(state, mode, hyper, counts)


def fresh_kl_step(f, part, mode, region, epsilon_floor):
    """``ntf._kl_step`` of ``mode`` from a fresh allocation over the stored
    entries of ``part``, all inside ``region``; a dead entry raises as the
    fit does."""
    counts = np.zeros((part.shape[mode], f.k))
    dead = allocate(cp._logs(f.factors), part, mode, counts)
    if dead is not None:
        raise InadmissibleZeroError(f"zero reconstruction under count at entry {dead}")
    return ntf._kl_step(f, mode, region, epsilon_floor, counts)


def ntf_step(step, f, t, mode, region=None, epsilon_floor=1e-12):
    """``step`` (``fresh_kl_step`` or ``ntf._ls_step``) of ``mode`` over the
    stored entries of ``t`` inside ``region`` (default: the whole tensor)."""
    region = region or Region.whole(t.shape)
    return step(f, region.restrict(t), mode, region, epsilon_floor)


def compute_elbo(
    state: VariationalState,
    t: SparseCountTensor,
    hyper: Hyperparameters,
    region: Region | None = None,
) -> float:
    """Evidence lower bound of the current state.

    Uses the auxiliary-count tightening: the count term is the stored
    entries' counts times the log of their summed geometric-expectation
    products (a log-sum-exp of the summed expected log factors), the
    reconstruction mass is the closed-form sum of arithmetic expectation
    products, and each factor adds its Gamma prior cross-entropy and
    entropy.  Both terms cover the cells of ``region`` (default: the whole
    tensor) alone; stored entries outside it are left out.  Raises if any
    named term goes non-finite.
    """
    region = region or Region.whole(state.shape)
    t = region.restrict(t)
    log_mass, _ = _count_shares(state.elog, t)
    y = t.values.astype(np.float64)
    priors = [_gamma_prior_terms(state, hyper, m) for m in range(state.n_modes)]
    return _elbo(log_mass, y, gammaln(y + 1.0).sum(), region.sum_recon(state.expect), priors)


def oracle_bptf_fit(t, config, hyper=None):
    """``bptf.fit`` with a separate kernel pass for every shape update and
    for every ELBO."""
    if hyper is None:
        hyper = Hyperparameters.default(t.ndim)
    state = init_state(t.shape, config, hyper)
    region = Region.whole(t.shape)
    betas = []

    def sweep():
        nonlocal hyper
        for mode in range(t.ndim):
            fresh_update_shape(state, t, mode, hyper)
            update_delta(state, mode, hyper, region=region)
        if config.learn_beta:
            for mode in range(t.ndim):
                hyper = update_beta(state, mode, hyper)
        betas.append(hyper.beta)
        return compute_elbo(state, t, hyper, region=region)

    trace = oracle_ascend(sweep, config.max_iterations, config.tolerance)
    trace.betas = betas
    return state, hyper, trace


def _oracle_observed(test_slice, region):
    if region.n_cells == 0:
        raise EmptyRegionError("mask leaves no observed cells")
    return region.restrict(test_slice)


def oracle_infer_heldout_bptf(trained, hyper, test_slice, region, config):
    """``bptf.infer_heldout_time_factors`` redoing the frozen modes' work,
    and running two kernel passes, every sweep."""
    observed = _oracle_observed(test_slice, region)
    time_mode = trained.n_modes - 1
    state = init_state(test_slice.shape, replace(config, k=trained.k), hyper)
    for m in range(time_mode):
        state.gamma[m] = trained.gamma[m].copy()
        state.delta[m] = trained.delta[m].copy()
        state.expect[m] = trained.expect[m].copy()
        state.elog[m] = trained.elog[m].copy()

    def sweep():
        fresh_update_shape(state, observed, time_mode, hyper)
        update_delta(state, time_mode, hyper, region=region)
        return compute_elbo(state, observed, hyper, region=region)

    trace = oracle_ascend(sweep, config.max_iterations, config.tolerance)
    return state, trace


def oracle_infer_heldout_ntf(trained, test_slice, observed_region, config):
    """``ntf.infer_heldout_time_factors_ntf`` through the per-mode steps and
    the public objectives, redoing the frozen modes' work every sweep."""
    observed = _oracle_observed(test_slice, observed_region)
    time_mode = trained.ndim - 1
    rng = np.random.default_rng(config.seed)
    time0 = rng.uniform(0.0, 1.0, size=(test_slice.shape[time_mode], config.k))
    f = FactorSet(list(trained.factors[:time_mode]) + [time0])
    mass = observed_region.sum_recon(f.factors)
    total = float(observed.values.sum())
    if mass > 0.0 and total > 0.0:
        f = f.replace_mode(time_mode, time0 * (total / mass))
    return _oracle_descend(f, observed, observed_region, config, [time_mode])


def oracle_fit_ntf(t, config):
    """``ntf.fit_ntf`` through the per-mode steps, each from a fresh kernel
    pass, and the public objectives."""
    return _oracle_descend(ntf.init_factors(t, config), t, Region.whole(t.shape), config,
                           range(t.ndim))


def _oracle_descend(f, t, region, config, modes):
    step, objective = (
        (fresh_kl_step, generalized_kl) if config.cost == "kl" else (ntf._ls_step, squared_error)
    )

    def sweep():
        nonlocal f
        for mode in modes:
            f = ntf_step(step, f, t, mode, region, config.epsilon_floor)
        return objective(t, f, region=region)

    trace = oracle_ascend(sweep, config.max_iterations, config.tolerance)
    return f, trace


def iter_cell_blocks(region, max_cells=262144):
    """Yield (n, M) coordinate blocks covering a region's cells exactly once.

    The slow enumeration oracle for the closed-form region counts: streams
    the region in chunks of whole actor pairs of about ``max_cells`` cells.
    """
    if region.complement:
        grid = np.ones(region.shape[:2], dtype=bool)
        grid[np.ix_(region.rows, region.cols)] = False
        ii, jj = (a.astype(np.int64) for a in np.nonzero(grid))
    else:
        ii = np.repeat(region.rows, region.cols.size)
        jj = np.tile(region.cols, region.rows.size)
    tail_sizes = region.shape[2:]
    tail_cells = prod(tail_sizes)
    tail_grid = np.array(list(np.ndindex(*tail_sizes)), dtype=np.int64)
    tail_grid = tail_grid.reshape(tail_cells, len(tail_sizes))
    pairs_per_block = max(1, max_cells // tail_cells)
    for lo in range(0, ii.size, pairs_per_block):
        hi = min(lo + pairs_per_block, ii.size)
        block = np.empty(((hi - lo) * tail_cells, len(region.shape)), dtype=np.int64)
        block[:, 0] = np.repeat(ii[lo:hi], tail_cells)
        block[:, 1] = np.repeat(jj[lo:hi], tail_cells)
        block[:, 2:] = np.tile(tail_grid, (hi - lo, 1))
        yield block


def enumerated_count_above(region, mats, threshold):
    """Cell-by-cell oracle for Region.count_recon_above."""
    f = FactorSet(mats)
    return sum(
        int((reconstruct_entries(f, block) > threshold).sum())
        for block in iter_cell_blocks(region, max_cells=50)
    )


def oracle_count_recon_above(region, mats, threshold):
    """``Region.count_recon_above`` as it ran before its bounds: every cell
    of the region reconstructed, one matrix product per actor row against
    the Khatri-Rao product of modes 2..; the oracle of the pruned count."""
    k = mats[0].shape[1]
    tail = np.ones((1, k))
    for m in range(2, len(region.shape)):
        tail = (tail[:, None, :] * mats[m][None, :, :]).reshape(-1, k)
    in_rows = np.zeros(region.shape[0], dtype=bool)
    in_rows[region.rows] = True
    in_cols = np.zeros(region.shape[1], dtype=bool)
    in_cols[region.cols] = True
    if region.complement:
        block_row_cols = np.flatnonzero(~in_cols)
        other_row_cols = np.arange(region.shape[1])
    else:
        block_row_cols, other_row_cols = region.cols, region.cols[:0]
    count = 0
    for i in range(region.shape[0]):
        cols = block_row_cols if in_rows[i] else other_row_cols
        if cols.size:
            recon = (mats[0][i] * mats[1][cols]) @ tail.T
            count += int(np.count_nonzero(recon > threshold))
    return count


def oracle_sample_count_tensor(shape, k, hyper, seed):
    """``synth.sample_count_tensor`` as it ran before its cell chunks: 64
    mode-0 rows of the dense reconstruction at a time, each product ending
    on the last mode; the oracle of the draws the sampler must keep."""
    shape = tuple(int(s) for s in shape)
    rng = np.random.default_rng(seed)
    factors = FactorSet([rng.gamma(hyper.alpha, 1.0 / hyper.rate(m), size=(size, k))
                         for m, size in enumerate(shape)])

    coords_parts, values_parts = [], []
    tail_mats = factors.factors[1:]
    for lo in range(0, shape[0], 64):
        hi = min(lo + 64, shape[0])
        block = np.zeros((hi - lo,) + shape[1:])
        for comp in range(k):
            term = factors.factors[0][lo:hi, comp]
            for mat in tail_mats:
                term = np.multiply.outer(term, mat[:, comp])
            block += term
        counts = rng.poisson(block)
        nz = np.nonzero(counts)
        if nz[0].size:
            cc = np.stack(nz, axis=1)
            cc[:, 0] += lo
            coords_parts.append(cc)
            values_parts.append(counts[nz])
    if coords_parts:
        coords = np.vstack(coords_parts)
        values = np.concatenate(values_parts)
    else:
        coords = np.zeros((0, len(shape)), dtype=np.int64)
        values = np.zeros(0, dtype=np.int64)
    return SparseCountTensor(shape, coords, values, _labels(shape)), factors


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


# ---------------------------------------------------------------------------
# Event files: the per-record reader, ingestion and writer that the
# columnar path in countcp.tensors replaced, kept as its oracle
# ---------------------------------------------------------------------------


def write_event_file(events, path) -> None:
    """Write (sender, receiver, action, datetime) tuples as an event file."""
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(EVENT_COLUMNS)
        for sender, receiver, action, timestamp in events:
            writer.writerow([sender, receiver, action, timestamp.isoformat()])


@dataclass(frozen=True)
class EventRecord:
    """One dyadic event: non-empty labels without a tab or line break, and a
    datetime (naive means UTC)."""

    sender: str
    receiver: str
    action: str
    timestamp: dt.datetime

    def __post_init__(self):
        for name in ("sender", "receiver", "action"):
            label = getattr(self, name)
            if not label:
                raise IngestionError(f"event record has empty {name!r} field")
            if any(c in label for c in "\t\n\r"):
                raise IngestionError(f"event record {name!r} field holds a tab or line break")
        if not isinstance(self.timestamp, dt.datetime):
            raise IngestionError("event record timestamp must be a datetime")

    def utc_date(self) -> dt.date:
        ts = self.timestamp
        if ts.tzinfo is not None:
            ts = ts.astimezone(dt.timezone.utc)
        return ts.date()


def _oracle_timestamp(text: str) -> dt.datetime:
    text = text.strip()
    iso = text[:-1] + "+00:00" if text.endswith("Z") else text
    try:
        return dt.datetime.fromisoformat(iso)
    except ValueError as exc:
        raise IngestionError(f"unparseable timestamp {text!r}") from exc


def oracle_read_event_file(path) -> list:
    """A ``csv.DictReader`` pass building one EventRecord per row, over the
    file decoded as UTF-8 as a whole.  Bytes that do not decode, and a row
    the csv module cannot split, are errors naming their line."""
    path = Path(path)
    data = path.read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise IngestionError(f"{path}: line {line}: not utf-8 text") from exc
    records = []
    reader = csv.DictReader(io.StringIO(text, newline=""))
    try:
        if reader.fieldnames is None:
            raise IngestionError(f"{path}: empty event file")
        missing = [c for c in EVENT_COLUMNS if c not in reader.fieldnames]
        if missing:
            raise IngestionError(f"{path}: header is missing columns {missing}")
        for row in reader:
            line = reader.line_num
            try:
                records.append(
                    EventRecord(
                        sender=(row["sender"] or "").strip(),
                        receiver=(row["receiver"] or "").strip(),
                        action=(row["action"] or "").strip(),
                        timestamp=_oracle_timestamp(row["timestamp"] or ""),
                    )
                )
            except IngestionError as exc:
                raise IngestionError(f"{path}: line {line}: {exc}") from exc
    except csv.Error as exc:  # DictReader counts only the lines of rows it returned
        raise IngestionError(f"{path}: line {reader.reader.line_num}: {exc}") from exc
    return records


def _oracle_bin(day: dt.date, start: dt.date, bin_width: str) -> int:
    if bin_width == "day":
        return (day - start).days
    if bin_width == "week":
        return (day - start).days // 7
    return (day.year - start.year) * 12 + (day.month - start.month)


def _oracle_time_labels(start: dt.date, n_bins: int, bin_width: str) -> list:
    if bin_width == "month":
        out = []
        for t in range(n_bins):
            y, m = divmod(start.year * 12 + (start.month - 1) + t, 12)
            out.append(f"{y:04d}-{m + 1:02d}")
        return out
    step = 1 if bin_width == "day" else 7
    return [(start + dt.timedelta(days=step * t)).isoformat() for t in range(n_bins)]


def oracle_ingest_events(records, bin_width, date_range, drop_self_actions=True):
    """Aggregate EventRecords one at a time into a four-way count tensor."""
    if bin_width not in BIN_WIDTHS:
        raise ConfigError(f"bin_width must be one of {BIN_WIDTHS}, got {bin_width!r}")
    start, end = date_range
    if start > end:
        raise ConfigError(f"empty date range {start}..{end}")
    if not records:
        raise EmptyTensorError("no event records supplied")
    kept = []
    for rec in records:
        day = rec.utc_date()
        if day < start or day > end:
            continue
        if drop_self_actions and rec.sender == rec.receiver:
            continue
        kept.append((rec, day))
    if not kept:
        raise EmptyTensorError("no event records remain after filtering")
    actors = sorted({r.sender for r, _ in kept} | {r.receiver for r, _ in kept})
    actions = sorted({r.action for r, _ in kept})
    actor_ix = {a: i for i, a in enumerate(actors)}
    action_ix = {a: i for i, a in enumerate(actions)}
    n_bins = _oracle_bin(end, start, bin_width) + 1
    raw = np.empty((len(kept), 4), dtype=np.int64)
    for row, (rec, day) in enumerate(kept):
        raw[row, 0] = actor_ix[rec.sender]
        raw[row, 1] = actor_ix[rec.receiver]
        raw[row, 2] = action_ix[rec.action]
        raw[row, 3] = _oracle_bin(day, start, bin_width)
    shape = (len(actors), len(actors), len(actions), n_bins)
    coords, counts = np.unique(raw, axis=0, return_counts=True)
    labels = [actors, list(actors), actions, _oracle_time_labels(start, n_bins, bin_width)]
    return SparseCountTensor(shape, coords, counts, labels)


def oracle_save_tensor(t, path) -> None:
    """Write the coordinate-list text format one row at a time."""
    with Path(path).open("w") as fh:
        fh.write(" ".join(str(s) for s in t.shape) + "\n")
        for row, v in zip(t.coords, t.values):
            fh.write(" ".join(str(c) for c in row) + f" {v}\n")
