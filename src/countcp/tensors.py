"""Sparse M-way count tensors built from dyadic event tables.

A tensor is stored in coordinate form: an (nnz, M) integer coordinate array
plus an (nnz,) array of positive counts; zero cells are implicit.  The
canonical four-way layout is sender x receiver x action x time, with the
time mode last, but all operations here work for any M >= 1 unless they
explicitly involve the actor or time modes.

Events are held in columns (``EventTable``); ``read_event_file`` fills
one, parsing a quote-free file in blocks of whole lines with array
operations and any other file in a single CSV pass, and ``ingest_events``
aggregates it with array operations only.
"""

from __future__ import annotations

import codecs
import csv
import datetime as _dt
import operator
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from math import prod
from pathlib import Path

import numpy as np
from scipy.sparse import csc_array, csr_array

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
        ``mode`` index, in entry order.  Each column holds its entry's one
        1.0, so ``data`` lines up with the block's entries."""
        key = ("incidence", step, mode)
        if key not in self._plans:
            plan = []
            for rows in self._block_rows(step):
                n = rows.stop - rows.start
                plan.append(csc_array((np.ones(n), self.coords[rows, mode], np.arange(n + 1)),
                                      (self.shape[mode], n)))
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


def _stamp_day(stamp: str) -> int:
    """The UTC day ordinal of a timestamp field as read.

    It goes to ``datetime.fromisoformat`` as is; only one it rejects is
    stripped, has a trailing Z read as UTC (which Python 3.11+ reads itself)
    and is tried again by ``_parse_utc_day``.  fromisoformat rejects
    surrounding whitespace, so a stamp it reads as is reads the same stripped.
    """
    try:
        timestamp = _dt.datetime.fromisoformat(stamp)
    except ValueError:
        return _parse_utc_day(stamp)
    return timestamp.toordinal() if timestamp.tzinfo is None else _utc_ordinal(timestamp)


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
_READ_BLOCK = 2**18  # bytes of whole lines parsed at a time by the block event reader


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
    """Read a CSV event file into an EventTable.

    The header names sender, receiver, action and timestamp columns in any
    order, among others; a repeated name means its last column, and a short
    row reads missing fields as empty.  Blank lines are skipped, labels are
    stripped and must neither be empty nor hold a tab or line break (a
    quoted field can), and each ISO-8601 timestamp is kept as its UTC day
    ordinal (``_stamp_day``).  Errors name the line of the first bad row;
    within a row a bad timestamp is reported before an empty label.

    A file with no ``"``, CR, NUL or tab byte, read under a UTF-8 locale
    encoding, is parsed in blocks of whole lines with array operations
    (``_read_event_blocks``).  Any other file, and one in which the block
    reader meets anything to report, is read row by row in one
    ``csv.reader`` pass (``_read_event_rows``), which reports it.  Both
    give the same table.
    """
    path = Path(path)
    table = _read_event_blocks(path)
    return _read_event_rows(path) if table is None else table


def _event_columns(header):
    """The index of each of ``EVENT_COLUMNS`` in a header row, a repeated
    name's last; None if one is missing."""
    if any(c not in header for c in EVENT_COLUMNS):
        return None
    return [len(header) - 1 - header[::-1].index(c) for c in EVENT_COLUMNS]


def _read_event_rows(path: Path) -> EventTable:
    """``read_event_file`` in one ``csv.reader`` pass, which takes any file
    and reports every fault.

    Each distinct label triple is stripped, checked and encoded once; a row
    keeps the index of its triple, and one gather builds the code columns.
    """
    label_codes, days, which = _label_codes(), [], []
    triples, index_of = [], {}  # distinct code triples; their indices keyed by the labels as read
    with _open_input(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise IngestionError(f"{path}: empty event file")
            columns = _event_columns(header)
            if columns is None:
                missing = [c for c in EVENT_COLUMNS if c not in header]
                raise IngestionError(f"{path}: header is missing columns {missing}")
            *where, at = columns
            pick, width = operator.itemgetter(*where), max(columns) + 1
            for row in reader:
                if len(row) < width:
                    if not row:
                        continue
                    row += [""] * (width - len(row))
                labels = pick(row)
                try:
                    day = _stamp_day(row[at])
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


def _read_event_blocks(path: Path):
    """``read_event_file`` of a quote-free UTF-8 file, about ``_READ_BLOCK``
    bytes of whole lines at a time; None for any other file, and for one
    holding anything ``_read_event_rows`` would report, which then reads it.

    The first line is the header.  Label codes keep first appearance, the
    sender and receiver of each row in turn, through dicts kept across
    blocks (``_parse_event_block``).
    """
    try:
        fh = path.open(newline="")  # as _read_event_rows opens it
    except OSError:
        return None
    limit, label_codes, parts = csv.field_size_limit(), _label_codes(), []
    with fh:
        if codecs.lookup(fh.encoding).name != "utf-8":
            return None
        line = fh.buffer.readline()
        if len(line) > limit or not _block_text(line):
            return None
        columns = _event_columns(line.decode().removesuffix("\n").split(","))
        if columns is None:
            return None
        for block in _line_blocks(fh.buffer):
            part = _parse_event_block(block, columns, limit, label_codes)
            if part is None:
                return None
            parts.append(part)
    sender, receiver, action, days = np.concatenate([np.empty((4, 0), np.int64), *parts], axis=1)
    actors, _, actions = label_codes
    return EventTable(sender, receiver, action, days, list(actors), list(actions))


def _block_text(data: bytes) -> bool:
    """Whether bytes decode as UTF-8 and hold no ``"``, CR, NUL or tab, so
    that commas and newlines alone split them as ``csv.reader`` would."""
    if any(byte in data for byte in (b'"', b"\r", b"\0", b"\t")):
        return False
    try:
        data.isascii() or data.decode()
    except UnicodeDecodeError:
        return False
    return True


def _line_blocks(fh):
    """The rest of a binary file in blocks of whole lines, each about
    ``_READ_BLOCK`` bytes or one line if longer; a last line without a
    line end is given one."""
    pending = []
    while chunk := fh.read(_READ_BLOCK):
        cut = chunk.rfind(b"\n") + 1
        if cut:
            yield b"".join([*pending, chunk[:cut]])
            pending = [chunk[cut:]]
        else:
            pending.append(chunk)
    rest = b"".join(pending)
    if rest:
        yield rest + b"\n"


def _parse_event_block(data: bytes, columns, limit: int, label_codes):
    """The (4, rows) sender, receiver, action and day columns of a block of
    whole lines; None if ``_block_text`` fails it, a field is longer than
    ``limit`` bytes, a non-blank row is too short to reach a column, or a
    label or timestamp is bad.

    Comma and newline positions give the field spans.  Each label column is
    told apart by ``_distinct_fields``, so only each distinct raw label is
    decoded, stripped, checked and coded.
    """
    if not _block_text(data):
        return None
    padded = np.frombuffer(data + bytes(_STAMP_WIDTH), dtype=np.uint8)
    buf = padded[:len(data)]
    ends = np.flatnonzero((buf == ord(",")) | (buf == ord("\n")))  # each field's end
    starts = np.concatenate(([0], ends[:-1] + 1))
    if (ends - starts).max() > limit:
        return None
    last = np.flatnonzero(buf[ends] == ord("\n"))  # each line's last field
    first = np.concatenate(([0], last[:-1] + 1))
    filled = ends[last] > starts[first]
    if (last - first + 1 < max(columns) + 1)[filled].any():
        return None
    sender, receiver, action, stamp = (first[filled] + c for c in columns)
    actor = np.stack([sender, receiver], axis=1).ravel()  # each row's sender, then its receiver
    codes = [_code_fields(data, padded, starts[f], ends[f], label_codes[m])
             for f, m in ((actor, 0), (action, 2))]
    days = _stamp_days(data, padded, starts[stamp], ends[stamp])
    if codes[0] is None or codes[1] is None or days is None:
        return None
    return np.stack([codes[0][0::2], codes[0][1::2], codes[1], days])


def _code_fields(data: bytes, padded, starts, ends, codes: dict):
    """Each field's code in a label-to-code dict, a new label added in order
    of first appearance; None if a field strips to empty."""
    ids, first = _distinct_fields(padded, starts, ends - starts)
    lookup = np.empty(len(first), dtype=np.int64)
    at = np.argsort(first)
    for i, lo, hi in zip(at.tolist(), starts[first[at]].tolist(), ends[first[at]].tolist()):
        label = data[lo:hi].decode().strip()
        if not label:
            return None
        lookup[i] = codes.setdefault(label, len(codes))
    return lookup[ids]


def _distinct_fields(padded, starts, lengths):
    """(ids, first): dense ids of the byte strings
    ``padded[starts:starts + lengths]``, equal exactly where the strings
    are, and the index of the first string with each id.

    The strings are packed 8 bytes at a time into uint64 words, zeroed past
    their end, which no NUL byte in a field can mimic.  The first word's
    ``np.unique`` gives the ids of strings of up to 8 bytes; each further
    word's splits the ids of the strings that reach it.  An id and a key
    each stay below the block's byte count, so ``ids * keys`` fits in
    int64 for any block under 3 GB.
    """
    windows = np.lib.stride_tricks.sliding_window_view(padded, 8)

    def words(rows, offset):
        tail = np.minimum(lengths[rows] - offset, 8)
        return windows[starts[rows] + offset].view(np.uint64).ravel() & _WORD_MASKS[tail]

    rows = np.arange(len(starts))
    _, ids = np.unique(words(rows, 0), return_inverse=True)
    top, longest = int(ids.max(initial=-1)) + 1, int(lengths.max(initial=0))
    for offset in range(8, longest, 8):
        rows = rows[lengths[rows] > offset]
        _, key = np.unique(words(rows, offset), return_inverse=True)
        _, key = np.unique(ids[rows] * (key.max() + 1) + key, return_inverse=True)
        ids[rows] = top + key
        top += int(key.max()) + 1
    if longest > 8:  # the split ids made dense again
        _, ids = np.unique(ids, return_inverse=True)
    first = np.full(int(ids.max(initial=-1)) + 1, len(ids))
    np.minimum.at(first, ids, np.arange(len(ids)))
    return ids, first


_STAMP_WIDTH = 19
# the lowest and highest byte at each offset of YYYY-MM-DDTHH:MM:SS
_STAMP_LOW = np.frombuffer(b"0000-00-00T00:00:00", dtype=np.uint8)
_STAMP_HIGH = np.frombuffer(b"9999-99-99T99:99:99", dtype=np.uint8)
_MONTH_DAYS = np.array([0, 31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31])
_DAYS_BEFORE_MONTH = np.concatenate(([0], np.cumsum(_MONTH_DAYS[:-1])))
# by n, the uint64 mask that keeps the first n of a word's 8 bytes
_WORD_MASKS = np.where(np.arange(8) < np.arange(9)[:, None], 255, 0).astype(np.uint8)
_WORD_MASKS = _WORD_MASKS.view(np.uint64).ravel()


def _stamp_days(data: bytes, padded, starts, ends):
    """Each timestamp field's UTC day ordinal; None if one has none.

    A field of the form YYYY-MM-DD or YYYY-MM-DD[T ]HH:MM:SS is checked
    field by field and turned into its ordinal with array operations; any
    other goes to ``_stamp_day``, row by row.
    """
    text = np.lib.stride_tricks.sliding_window_view(padded, _STAMP_WIDTH)[starts]
    clock = ends - starts == _STAMP_WIDTH
    shaped = (text >= _STAMP_LOW) & (text <= _STAMP_HIGH)
    shaped[:, 10] |= text[:, 10] == ord(" ")
    fast = np.where(clock, shaped.all(axis=1), (ends - starts == 10) & shaped[:, :10].all(axis=1))
    digit = text.astype(np.int32) - ord("0")
    year = ((digit[:, 0] * 10 + digit[:, 1]) * 10 + digit[:, 2]) * 10 + digit[:, 3]
    month, day, hour, minute, second = (
        digit[:, i] * 10 + digit[:, i + 1] for i in (5, 8, 11, 14, 17))
    fast &= (year >= 1) & (month >= 1) & (month <= 12) & (day >= 1)
    month = np.clip(month, 1, 12)
    fast &= day <= _MONTH_DAYS[month] + ((month == 2) & _leap(year))
    fast &= ~clock | ((hour < 24) & (minute < 60) & (second < 60))
    days = _day_ordinals(year, month, day).astype(np.int64)
    for i in np.flatnonzero(~fast).tolist():
        try:
            days[i] = _stamp_day(data[starts[i]:ends[i]].decode())
        except IngestionError:
            return None
    return days


def _leap(year):
    """Whether each year is a Gregorian leap year."""
    return (year % 4 == 0) & ((year % 100 != 0) | (year % 400 == 0))


def _day_ordinals(year, month, day):
    """``date(year, month, day).toordinal()`` of valid dates, as arrays."""
    before = year - 1
    return (before * 365 + before // 4 - before // 100 + before // 400
            + _DAYS_BEFORE_MONTH[month] + ((month > 2) & _leap(year)) + day)


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
