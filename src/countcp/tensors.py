"""Sparse M-way count tensors built from dyadic event tables.

A tensor is stored in coordinate form: an (nnz, M) integer coordinate array
plus an (nnz,) array of positive counts; zero cells are implicit.  The
canonical four-way layout is sender x receiver x action x time, with the
time mode last, but all operations here work for any M >= 1 unless they
explicitly involve the actor or time modes.

Events are held in columns (``EventTable``); ``read_event_file`` fills
one in a single CSV pass that keeps two ints per row (a day ordinal and the
index of its distinct label triple), and ``ingest_events`` aggregates it with
array operations only.
"""

from __future__ import annotations

import csv
import datetime as _dt
import operator
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from math import prod
from pathlib import Path

import numpy as np
from scipy.sparse import csr_array

from .errors import (
    ConfigError,
    EmptyTensorError,
    IngestionError,
    LabelMismatchError,
    SplitError,
    UndefinedStatisticError,
)

BIN_WIDTHS = ("day", "week", "month")


class SparseCountTensor:
    """Immutable M-way tensor of positive integer counts in coordinate form.

    Parameters
    ----------
    shape : sequence of int
        Per-mode sizes, all positive.
    coords : array-like, (nnz, M)
        Integer coordinates of the stored (non-zero) cells.
    values : array-like, (nnz,)
        Positive integer counts, one per coordinate row.
    mode_labels : list of list of str
        One label per index per mode; lengths must match ``shape``.

    Entries are kept sorted in lexicographic coordinate order so that two
    tensors with the same content compare and serialize identically.
    """

    __slots__ = ("shape", "coords", "values", "mode_labels", "_plans")

    def __init__(self, shape, coords, values, mode_labels):
        shape = tuple(int(s) for s in shape)
        if len(shape) < 1 or any(s <= 0 for s in shape):
            raise ValueError(f"invalid tensor shape {shape}")
        coords = np.asarray(coords, dtype=np.int64).reshape(-1, len(shape))
        values = np.asarray(values, dtype=np.int64).reshape(-1)
        if coords.shape[0] != values.shape[0]:
            raise ValueError("coords and values disagree on entry count")
        if values.size:
            if values.min() < 1:
                raise ValueError("stored counts must be >= 1 (zeros are implicit)")
            if coords.min() < 0 or np.any(coords >= np.asarray(shape)):
                raise ValueError("coordinate out of range for shape")
            flat = np.ravel_multi_index(coords.T, shape)
            order = np.argsort(flat, kind="stable")
            flat = flat[order]
            if flat.size > 1 and np.any(flat[1:] == flat[:-1]):
                dup = coords[order][np.nonzero(flat[1:] == flat[:-1])[0][0]]
                raise ValueError(f"duplicate coordinate {tuple(int(i) for i in dup)}")
            coords = coords[order]
            values = values[order]
        if len(mode_labels) != len(shape):
            raise ValueError("need one label list per mode")
        mode_labels = [list(map(str, lab)) for lab in mode_labels]
        for m, lab in enumerate(mode_labels):
            if len(lab) != shape[m]:
                raise ValueError(f"mode {m}: {len(lab)} labels for size {shape[m]}")
        coords.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "mode_labels", mode_labels)
        object.__setattr__(self, "_plans", {})

    def __setattr__(self, name, value):
        raise AttributeError("SparseCountTensor is immutable")

    @property
    def ndim(self) -> int:
        return len(self.shape)

    @property
    def nnz(self) -> int:
        return int(self.values.shape[0])

    def __eq__(self, other):
        return (
            isinstance(other, SparseCountTensor)
            and self.shape == other.shape
            and np.array_equal(self.coords, other.coords)
            and np.array_equal(self.values, other.values)
            and self.mode_labels == other.mode_labels
        )

    def __repr__(self):
        return f"SparseCountTensor(shape={self.shape}, nnz={self.nnz})"

    def _subset(self, keep) -> "SparseCountTensor":
        """The stored entries a boolean ``keep`` selects, with this tensor's
        shape and labels.  A selection of sorted, distinct, valid entries
        stays so, so ``__init__``'s checks and sort are not repeated."""
        coords, values = self.coords[keep], self.values[keep]
        coords.setflags(write=False)
        values.setflags(write=False)
        out = object.__new__(SparseCountTensor)
        for name, value in (("shape", self.shape), ("coords", coords), ("values", values),
                            ("mode_labels", self.mode_labels), ("_plans", {})):
            object.__setattr__(out, name, value)
        return out

    def _block_rows(self, step: int) -> list:
        """The stored entries in blocks of ``step``, as slices in entry order."""
        return [slice(lo, min(lo + step, self.nnz)) for lo in range(0, self.nnz, step)]

    def _block_gather(self, step: int) -> list:
        """One gather matrix per block of ``_block_rows(step)``.

        It has one 1.0 per mode in each row, at the entry's index offset by
        the sizes of the modes before it: its product with the per-mode
        tables stacked in mode order sums each entry's rows in ascending
        mode order.  Built on first use and kept, since the tensor never
        changes; so is ``_block_incidence``.
        """
        key = ("gather", step)
        if key not in self._plans:
            offsets, width, plan = np.cumsum((0,) + self.shape[:-1]), sum(self.shape), []
            for rows in self._block_rows(step):
                c = self.coords[rows]
                starts = np.arange(0, c.size + 1, self.ndim)
                plan.append(csr_array((np.ones(c.size), (c + offsets).ravel(), starts),
                                      (c.shape[0], width)))
            self._plans[key] = plan
        return self._plans[key]

    def _block_incidence(self, step: int, mode: int) -> list:
        """One incidence matrix of ``mode`` per block of ``_block_rows(step)``:
        ``incidence @ x`` adds each row of ``x`` into the row of its entry's
        ``mode`` index, in entry order."""
        key = ("incidence", step, mode)
        if key not in self._plans:
            plan = []
            for rows in self._block_rows(step):
                n = rows.stop - rows.start
                plan.append(csr_array((np.ones(n), self.coords[rows, mode], np.arange(n + 1)),
                                      (n, self.shape[mode])).T)
            self._plans[key] = plan
        return self._plans[key]

    @classmethod
    def from_entries(cls, shape, entries, mode_labels=None):
        """Build from an iterable of (coordinate, count) pairs."""
        entries = list(entries)
        coords = np.asarray([e[0] for e in entries], dtype=np.int64).reshape(
            -1, len(shape)
        )
        values = np.asarray([e[1] for e in entries], dtype=np.int64)
        if mode_labels is None:
            mode_labels = default_labels(shape)
        return cls(shape, coords, values, mode_labels)


def default_labels(shape) -> list[list[str]]:
    """Index-number labels, shared between the two actor modes."""
    return [[str(i) for i in range(s)] for s in shape]


# ---------------------------------------------------------------------------
# Event ingestion
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class EventTable:
    """Dyadic events in columns: sender took an action toward receiver.

    ``sender`` and ``receiver`` are int64 codes into the one label list
    ``actors``, and ``action`` into ``actions``, each in order of first
    appearance; ``days`` holds each event's UTC date as an int64 day ordinal
    (``date.toordinal``).  ``len(table)`` is the number of events.
    """

    sender: np.ndarray
    receiver: np.ndarray
    action: np.ndarray
    days: np.ndarray
    actors: list
    actions: list

    def __len__(self) -> int:
        return len(self.days)

    @classmethod
    def from_records(cls, records) -> EventTable:
        """Build from an iterable of (sender, receiver, action, datetime).

        Every label must be non-empty and hold no tab or line break.  A naive
        datetime is taken as UTC.
        """
        label_codes, codes, days = _label_codes(), [], []
        for sender, receiver, action, timestamp in records:
            labels = (sender, receiver, action)
            codes.append(tuple(map(_code, labels, label_codes, EVENT_COLUMNS[:3])))
            if not isinstance(timestamp, _dt.datetime):
                raise IngestionError("event record timestamp must be a datetime")
            days.append(_utc_ordinal(timestamp))
        return _event_table(label_codes, codes, days)


def _label_codes():
    """Label-to-code dicts for the sender, receiver and action fields; the
    two actor fields share one."""
    actors = {}
    return actors, actors, {}


def _event_table(label_codes, codes, days) -> EventTable:
    """The table of the label-to-code dicts, each event's code triple and
    each event's day ordinal."""
    codes = np.asarray(codes, dtype=np.int64).reshape(-1, 3)
    actors, _, actions = label_codes
    return EventTable(*codes.T, np.array(days, dtype=np.int64), list(actors), list(actions))


def _code(label, codes: dict, name: str) -> int:
    """The label's code in a label-to-code dict, added if new.  An empty
    label is an error, and so is one holding a tab or line break, which the
    tab-separated labels file could not hold."""
    if not label:
        raise IngestionError(f"event record has empty {name!r} field")
    if "\t" in label or "\n" in label or "\r" in label:
        raise IngestionError(f"event record {name!r} field holds a tab or line break")
    return codes.setdefault(label, len(codes))


def _utc_ordinal(timestamp: _dt.datetime) -> int:
    """The day ordinal of a datetime's UTC date; naive means UTC."""
    if timestamp.tzinfo is not None:
        try:
            timestamp = timestamp.astimezone(_dt.timezone.utc)
        except OverflowError as exc:
            raise IngestionError(f"timestamp {timestamp} has no UTC date") from exc
    return timestamp.toordinal()


def _parse_utc_day(text: str) -> int:
    """The UTC day ordinal of an ISO-8601 timestamp, read with surrounding
    whitespace stripped; a trailing Z means UTC.  An error quotes the
    stripped text as the file holds it."""
    text = text.strip()
    iso = text[:-1] + "+00:00" if text.endswith("Z") else text
    try:
        timestamp = _dt.datetime.fromisoformat(iso)
    except ValueError as exc:
        raise IngestionError(f"unparseable timestamp {text!r}") from exc
    return _utc_ordinal(timestamp)


def _bin_index(day: _dt.date, start: _dt.date, bin_width: str) -> int:
    if bin_width == "day":
        return (day - start).days
    if bin_width == "week":
        return (day - start).days // 7
    return (day.year - start.year) * 12 + (day.month - start.month)


def _time_labels(start: _dt.date, n_bins: int, bin_width: str) -> list[str]:
    if bin_width == "month":
        months = start.year * 12 + (start.month - 1)
        out = []
        for t in range(n_bins):
            y, m = divmod(months + t, 12)
            out.append(f"{y:04d}-{m + 1:02d}")
        return out
    step = 1 if bin_width == "day" else 7
    return [(start + _dt.timedelta(days=step * t)).isoformat() for t in range(n_bins)]


def _recode(labels, codes):
    """The sorted labels that ``codes`` use, and the codes mapped onto them."""
    used = sorted(np.unique(codes).tolist(), key=labels.__getitem__)
    remap = np.empty(len(labels), dtype=np.int64)
    remap[used] = np.arange(len(used))
    return [labels[c] for c in used], remap[codes]


def ingest_events(table, bin_width, date_range, drop_self_actions=True):
    """Aggregate an event table into a four-way count tensor.

    Parameters
    ----------
    table : EventTable
    bin_width : {"day", "week", "month"}
        Time-step granularity.  Bins are anchored at the first day of
        ``date_range``; "month" means calendar month.
    date_range : (date, date)
        Inclusive start and end dates, compared with each event's UTC date;
        events outside are dropped.
    drop_self_actions : bool
        Drop events whose sender equals their receiver, leaving the
        diagonal of every sender-receiver slice empty.

    Returns
    -------
    SparseCountTensor
        Shape (actors, actors, actions, time steps).  The actor modes share
        one label set: the union of senders and receivers of the retained
        events, in sorted order; so do the actions.  Counts are exact
        multiplicities, found by one ``np.unique`` on raveled indices.
    """
    if bin_width not in BIN_WIDTHS:
        raise ConfigError(f"bin_width must be one of {BIN_WIDTHS}, got {bin_width!r}")
    start, end = date_range
    if isinstance(start, _dt.datetime):
        start = start.date()
    if isinstance(end, _dt.datetime):
        end = end.date()
    if start > end:
        raise ConfigError(f"empty date range {start}..{end}")
    if not len(table):
        raise EmptyTensorError("no event records supplied")

    keep = (table.days >= start.toordinal()) & (table.days <= end.toordinal())
    if drop_self_actions:
        keep &= table.sender != table.receiver
    if not keep.any():
        raise EmptyTensorError("no event records remain after filtering")

    actors, (sender, receiver) = _recode(
        table.actors, np.stack([table.sender[keep], table.receiver[keep]])
    )
    actions, action = _recode(table.actions, table.action[keep])
    days, inverse = np.unique(table.days[keep], return_inverse=True)
    bins = [_bin_index(_dt.date.fromordinal(d), start, bin_width) for d in days.tolist()]
    n_bins = _bin_index(end, start, bin_width) + 1

    shape = (len(actors), len(actors), len(actions), n_bins)
    flat = np.ravel_multi_index(
        (sender, receiver, action, np.array(bins, dtype=np.int64)[inverse]), shape
    )
    cells, counts = np.unique(flat, return_counts=True)
    coords = np.stack(np.unravel_index(cells, shape), axis=1)
    labels = [actors, list(actors), actions, _time_labels(start, n_bins, bin_width)]
    return SparseCountTensor(shape, coords, counts, labels)


# ---------------------------------------------------------------------------
# Summary statistics
# ---------------------------------------------------------------------------


def density(t: SparseCountTensor) -> float:
    """Fraction of cells that are non-zero."""
    return t.nnz / float(np.prod([float(s) for s in t.shape]))


def vmr_of_counts(values) -> float:
    """Population variance-to-mean ratio of a vector of counts."""
    values = np.asarray(values, dtype=np.float64)
    if values.size < 2:
        raise UndefinedStatisticError("VMR needs at least two counts")
    return float(values.var() / values.mean())


def vmr_nonzero(t: SparseCountTensor) -> float:
    """Variance-to-mean ratio of the stored (non-zero) counts.

    Values well above 1 indicate overdispersion relative to a Poisson.
    """
    return vmr_of_counts(t.values)


# ---------------------------------------------------------------------------
# Actor sorting, time splitting, concatenation
# ---------------------------------------------------------------------------


def sort_by_activity(t: SparseCountTensor):
    """Jointly permute the actor modes by descending overall activity.

    Activity of an actor is its total count summed over both the sender and
    receiver roles; ties break by lexicographic label order.  Returns the
    permuted tensor and the permutation ``perm`` where ``perm[new] = old``.
    """
    if t.ndim < 2 or t.mode_labels[0] != t.mode_labels[1]:
        raise LabelMismatchError("modes 0 and 1 must share one actor label set")
    n = t.shape[0]
    totals = np.zeros(n, dtype=np.float64)
    if t.nnz:
        totals += np.bincount(t.coords[:, 0], weights=t.values, minlength=n)
        totals += np.bincount(t.coords[:, 1], weights=t.values, minlength=n)
    labels = t.mode_labels[0]
    perm = np.array(
        sorted(range(n), key=lambda i: (-totals[i], labels[i])), dtype=np.int64
    )
    inverse = np.empty(n, dtype=np.int64)
    inverse[perm] = np.arange(n)

    coords = t.coords.copy()
    if t.nnz:
        coords[:, 0] = inverse[coords[:, 0]]
        coords[:, 1] = inverse[coords[:, 1]]
    new_labels = [labels[i] for i in perm]
    mode_labels = [new_labels, list(new_labels)] + [
        list(lab) for lab in t.mode_labels[2:]
    ]
    return SparseCountTensor(t.shape, coords, t.values, mode_labels), perm


@dataclass(frozen=True)
class TimeSplit:
    """A train/test partition of the time steps of one tensor."""

    train: SparseCountTensor
    test: SparseCountTensor
    train_steps: np.ndarray
    test_steps: np.ndarray


def _take_time_steps(t: SparseCountTensor, steps: np.ndarray) -> SparseCountTensor:
    """Restrict to the given (sorted) time steps, reindexed chronologically."""
    time_mode = t.ndim - 1
    remap = -np.ones(t.shape[time_mode], dtype=np.int64)
    remap[steps] = np.arange(len(steps))
    keep = remap[t.coords[:, time_mode]] >= 0
    coords = t.coords[keep].copy()
    coords[:, time_mode] = remap[coords[:, time_mode]]
    shape = t.shape[:time_mode] + (len(steps),)
    labels = [list(lab) for lab in t.mode_labels[:time_mode]]
    labels.append([t.mode_labels[time_mode][s] for s in steps])
    return SparseCountTensor(shape, coords, t.values[keep], labels)


def split_time(t: SparseCountTensor, test_fraction: float, seed: int) -> TimeSplit:
    """Randomly partition the time steps into train and test sets.

    The test set holds ``round(test_fraction * T)`` steps (at least one);
    both sides keep their slices in original chronological order and record
    which original steps they map to.  Reproducible for a given seed.
    """
    if not 0.0 < test_fraction < 1.0:
        raise SplitError(f"test_fraction must be in (0, 1), got {test_fraction}")
    n_time = t.shape[-1]
    n_test = max(1, int(np.floor(test_fraction * n_time + 0.5)))
    if n_test >= n_time:
        raise SplitError(
            f"test_fraction {test_fraction} leaves no training steps (T={n_time})"
        )
    rng = np.random.default_rng(seed)
    test_steps = np.sort(rng.choice(n_time, size=n_test, replace=False))
    mask = np.ones(n_time, dtype=bool)
    mask[test_steps] = False
    train_steps = np.nonzero(mask)[0]
    return TimeSplit(
        train=_take_time_steps(t, train_steps),
        test=_take_time_steps(t, test_steps),
        train_steps=train_steps,
        test_steps=test_steps,
    )


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------

EVENT_COLUMNS = ("sender", "receiver", "action", "timestamp")
_SAVE_BLOCK = 2**16  # rows formatted per write in save_tensor


@contextmanager
def _open_input(path: Path, **kwargs):
    """Open an input file to read inside the block.  A file that cannot be
    opened, or whose bytes do not decode, is a data error naming it."""
    try:
        fh = path.open(**kwargs)
    except OSError as exc:
        raise IngestionError(f"{path}: cannot open: {exc.strerror or exc}") from exc
    with fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            # a streaming decoder knows only the offset in its chunk
            data = path.read_bytes()
            try:
                data.decode(exc.encoding)
            except UnicodeDecodeError as whole:
                exc = whole
            line = data.count(b"\n", 0, exc.start) + 1
            raise IngestionError(f"{path}: line {line}: not {exc.encoding} text") from exc


def read_event_file(path) -> EventTable:
    """Read a CSV event file into an EventTable in one ``csv.reader`` pass.

    The header names sender, receiver, action and timestamp columns in any
    order, among others; a repeated name means its last column, and a short
    row reads missing fields as empty.  Blank lines are skipped, labels are
    stripped and must neither be empty nor hold a tab or line break (a
    quoted field can), and each ISO-8601 timestamp is kept as its UTC day
    ordinal.  Errors name the line of the first bad row; within
    a row a bad timestamp is reported before an empty label.

    Each timestamp goes to ``datetime.fromisoformat`` as read; only one it
    rejects is stripped, has a trailing Z read as UTC (which Python 3.11+
    reads itself) and is tried again by ``_parse_utc_day``.  Each distinct
    label triple is stripped, checked and encoded once; a row keeps the
    index of its triple, and one gather builds the code columns.
    """
    path = Path(path)
    label_codes, days, which = _label_codes(), [], []
    triples, index_of = [], {}  # distinct code triples; their indices keyed by the labels as read
    fromisoformat = _dt.datetime.fromisoformat
    with _open_input(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise IngestionError(f"{path}: empty event file")
            missing = [c for c in EVENT_COLUMNS if c not in header]
            if missing:
                raise IngestionError(f"{path}: header is missing columns {missing}")
            *where, at = [len(header) - 1 - header[::-1].index(c) for c in EVENT_COLUMNS]
            pick, width = operator.itemgetter(*where), max(*where, at) + 1
            for row in reader:
                if len(row) < width:
                    if not row:
                        continue
                    row += [""] * (width - len(row))
                labels, stamp = pick(row), row[at]
                try:
                    # fromisoformat rejects surrounding whitespace, so a stamp
                    # it reads as is reads the same stripped
                    try:
                        timestamp = fromisoformat(stamp)
                    except ValueError:
                        day = _parse_utc_day(stamp)
                    else:
                        day = (timestamp.toordinal() if timestamp.tzinfo is None
                               else _utc_ordinal(timestamp))
                    index = index_of.get(labels)
                    if index is None:
                        stripped = [label.strip() for label in labels]
                        triples.append(tuple(map(_code, stripped, label_codes, EVENT_COLUMNS[:3])))
                        index = index_of[labels] = len(triples) - 1
                except IngestionError as exc:
                    raise IngestionError(f"{path}: line {reader.line_num}: {exc}") from exc
                days.append(day)
                which.append(index)
        except csv.Error as exc:  # a row the reader cannot split, such as an oversized field
            raise IngestionError(f"{path}: line {reader.line_num}: {exc}") from exc
    codes = np.array(triples, dtype=np.int64).reshape(-1, 3)[np.array(which, dtype=np.int64)]
    return _event_table(label_codes, codes, days)


def save_tensor(t: SparseCountTensor, path) -> None:
    """Write the coordinate-list text format.

    First line holds the mode sizes; each further line is one entry as
    0-based coordinates followed by its count.  Round-trips exactly.  Rows
    are written in blocks, each formatted by one ``%`` over a repeated row
    template.
    """
    path = Path(path)
    rows = np.column_stack([t.coords, t.values])
    template = " ".join(["%d"] * rows.shape[1]) + "\n"
    with path.open("w") as fh:
        fh.write(" ".join(str(s) for s in t.shape) + "\n")
        for block in np.split(rows, range(_SAVE_BLOCK, len(rows), _SAVE_BLOCK)):
            fh.write((template * len(block)) % tuple(block.ravel().tolist()))


def load_tensor(path, labels_path=None) -> SparseCountTensor:
    """Read the coordinate-list format; duplicate coordinates are summed.

    The body is parsed in one ``np.loadtxt`` pass and checked as an array.
    Errors name the offending line: a non-integer field or one outside the
    64-bit range, a wrong field count, a mode size below 1, a coordinate
    outside the shape, or a count below 1.
    """
    path = Path(path)
    with _open_input(path) as fh:
        filled = ((n, ln) for n, ln in enumerate(fh, start=1) if ln.strip())
        head, text = next(filled, (0, None))
        has_body = next(filled, None) is not None
    if text is None:
        raise IngestionError(f"{path}: empty tensor file")
    try:
        shape = tuple(int(tok) for tok in text.split())
        if min(shape) < 1:
            raise ValueError("mode sizes must be positive")
        if prod(shape) >= 2**63:
            raise ValueError("mode sizes multiply to 2**63 or more")
    except ValueError as exc:
        raise IngestionError(f"{path}: line {head}: {exc}") from exc
    rows = np.empty((0, len(shape) + 1), dtype=np.int64)
    if has_body:
        try:
            rows = _parse_int_rows(path, skiprows=head)
        except ValueError:
            rows = None
    if rows is not None:
        row, problem = _first_invalid(rows, shape)
    if rows is None or problem is not None:
        with _open_input(path) as fh:
            body = fh.read().split("\n")[head:]
        filled = [n for n, ln in enumerate(body) if ln.strip()]
        if rows is None:
            row, problem = _first_unparsable([body[n] for n in filled], shape)
        raise IngestionError(f"{path}: line {head + 1 + filled[row]}: {problem}")
    coords, counts = rows[:, :-1], rows[:, -1]
    cells, inverse = np.unique(np.ravel_multi_index(coords.T, shape), return_inverse=True)
    if cells.size < counts.size:
        if _sums_past_int64(inverse, counts, cells.size):
            raise IngestionError(f"{path}: repeated coordinates sum past 2**63 - 1")
        summed = np.zeros(cells.size, dtype=np.int64)
        np.add.at(summed, inverse, counts)
        coords, counts = np.stack(np.unravel_index(cells, shape), axis=1), summed
    labels = load_labels(labels_path, shape) if labels_path else default_labels(shape)
    return SparseCountTensor(shape, coords, counts, labels)


def _parse_int_rows(source, skiprows=0):
    """One ``np.loadtxt`` pass reading every field as an int64.

    Older NumPy parses a field such as ``2.7`` or ``1e3`` through a float
    and truncates it, warning only with a DeprecationWarning; raising that
    warning makes such a field a ValueError like any other bad one.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        return np.loadtxt(source, dtype=np.int64, comments=None, ndmin=2, skiprows=skiprows)


def _sums_past_int64(inverse, counts, n_cells) -> bool:
    """Whether the positive ``counts`` summed per cell (``inverse`` maps
    each count to its cell) exceed 2**63 - 1 in some cell.

    A float64 sum of positive terms is within a factor 1 + nnz * 2**-52 of
    the exact one, so only a cell it puts at 2**62 or more can overflow;
    those cells are summed exactly as Python ints.
    """
    near = np.bincount(inverse, weights=counts, minlength=n_cells) >= 2.0**62
    if not near.any():
        return False
    pick = near[inverse]
    exact = np.zeros(n_cells, dtype=object)
    np.add.at(exact, inverse[pick], counts[pick].astype(object))
    return max(exact[near]) > 2**63 - 1


def _first_invalid(rows, shape):
    """(row, message) for the first parsed row with the wrong field count,
    a coordinate outside ``shape`` or a count below 1; (None, None) if every
    row is valid."""
    if rows.shape[1] != len(shape) + 1:
        return 0, f"expected {len(shape) + 1} fields, got {rows.shape[1]}"
    coords, counts = rows[:, :-1], rows[:, -1]
    outside = ((coords < 0) | (coords >= np.asarray(shape))).any(axis=1)
    bad = outside | (counts < 1)
    if not bad.any():
        return None, None
    row = int(np.argmax(bad))
    if outside[row]:
        return row, f"coordinate {tuple(int(c) for c in coords[row])} outside shape {shape}"
    return row, f"count {counts[row]} is not in 1 .. 2**63 - 1"


def _first_unparsable(lines, shape):
    """(row, message) for the first invalid one of non-blank ``lines`` that
    np.loadtxt rejects as a whole.

    Bisects on the number of leading rows that parse, so each probe parses
    a prefix in one pass; the parsed prefix is then checked as an array, so
    an invalid row before the unparsable one is still the one reported.
    """
    width = len(shape) + 1
    if len(lines[0].split()) != width:
        return 0, f"expected {width} fields, got {len(lines[0].split())}"
    good, bad = 0, len(lines)  # lines[:good] parse, lines[:bad] do not
    parsed = np.empty((0, width), dtype=np.int64)
    while bad - good > 1:
        mid = (good + bad) // 2
        try:
            parsed = _parse_int_rows(lines[:mid])
            good = mid
        except ValueError:
            bad = mid
    row, problem = _first_invalid(parsed, shape)
    if problem is not None:
        return row, problem
    fields = lines[good].split()
    if len(fields) != width:
        return good, f"expected {width} fields, got {len(fields)}"
    return good, f"expected {width} integers in -2**63 .. 2**63 - 1, got {' '.join(fields)}"


def save_labels(mode_labels, path) -> None:
    """Write per-mode labels as tab-delimited (mode, index, label) lines."""
    path = Path(path)
    with path.open("w") as fh:
        for m, labels in enumerate(mode_labels):
            for i, lab in enumerate(labels):
                fh.write(f"{m}\t{i}\t{lab}\n")


def load_labels(path, shape) -> list[list[str]]:
    path = Path(path)
    labels = [[""] * s for s in shape]
    seen = [np.zeros(s, dtype=bool) for s in shape]
    with _open_input(path) as fh:
        for ln, raw in enumerate(fh, start=1):
            if not raw.strip():
                continue
            parts = raw.rstrip("\n").split("\t")
            if len(parts) != 3:
                raise IngestionError(f"{path}: line {ln}: expected 3 tab-separated fields")
            try:
                m, i, lab = int(parts[0]), int(parts[1]), parts[2]
            except ValueError as exc:
                raise IngestionError(f"{path}: line {ln}: {exc}") from exc
            if not (0 <= m < len(shape)) or not (0 <= i < shape[m]):
                raise IngestionError(f"{path}: line {ln}: index out of range")
            labels[m][i] = lab
            seen[m][i] = True
    for m, s in enumerate(seen):
        if not s.all():
            raise IngestionError(f"{path}: mode {m} is missing labels")
    return labels
