"""Shared builders for randomized test instances, and the slow reference
paths that the faster library paths are checked against."""

import csv
import datetime as dt
from dataclasses import dataclass
from math import prod
from pathlib import Path

import numpy as np
import pytest

from countcp import (
    ConfigError,
    EmptyTensorError,
    FactorSet,
    IngestionError,
    SparseCountTensor,
    VariationalState,
)
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


def linear_allocate(mats, coords, values, mode, out):
    """The count allocation in linear space with an ``np.add.at`` scatter:
    the oracle for ``cp._allocate``, which takes the logs of ``mats``.

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
    """One dyadic event: non-empty labels and a datetime (naive means UTC)."""

    sender: str
    receiver: str
    action: str
    timestamp: dt.datetime

    def __post_init__(self):
        for name in ("sender", "receiver", "action"):
            if not getattr(self, name):
                raise IngestionError(f"event record has empty {name!r} field")
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
    """A ``csv.DictReader`` pass building one EventRecord per row."""
    path = Path(path)
    records = []
    with path.open(newline="") as fh:
        reader = csv.DictReader(fh)
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
