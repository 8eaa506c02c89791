"""The columnar event path (EventTable, read_event_file, ingest_events) and
the block writer of save_tensor, against the per-record oracles they
replaced: same tensors, same file bytes, and the same error for every
malformed event file.  The block reader of quote-free files is pinned to
the csv.reader pass and to the oracle in the same way."""

import csv
import datetime as dt
import io
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from countcp import (
    CountCPError,
    EventTable,
    IngestionError,
    SparseCountTensor,
    ingest_events,
    read_event_file,
    save_tensor,
)
import countcp
from countcp import tensors
from countcp.tensors import BIN_WIDTHS, EVENT_COLUMNS
from conftest import (
    oracle_ingest_events,
    oracle_read_event_file,
    oracle_save_tensor,
    random_tensor,
)

RANGE = (dt.date(2001, 1, 31), dt.date(2001, 3, 1))


def outcomes(path, bin_width, date_range, drop_self_actions=True):
    """(new, oracle): each the tensor and its saved bytes, or the error's
    class name and message."""
    results = []
    for read, ingest, save in (
        (read_event_file, ingest_events, save_tensor),
        (oracle_read_event_file, oracle_ingest_events, oracle_save_tensor),
    ):
        out = path.with_name(f"tensor_{len(results)}.txt")
        try:
            tensor = ingest(read(path), bin_width, date_range, drop_self_actions)
        except CountCPError as exc:
            results.append((type(exc).__name__, str(exc)))
            continue
        save(tensor, out)
        results.append((tensor, out.read_bytes()))
    return results


HEADER = "sender,receiver,action,timestamp\n"


class TestAgainstOracle:
    @pytest.mark.parametrize(
        "text",
        [
            HEADER + '"A,1",B,"x",2001-02-05\n"B",A,"y ""q""",2001-02-06T10:00:00\n',
            "timestamp,id,action,receiver,sender\n2001-02-05,7,x,B,A\n2001-02-07,8,x,A,C,9\n",
            "sender,receiver,action,timestamp,sender\nA,B,x,2001-02-05,C\n",
            "sender,receiver,action,timestamp,sender\nA,B,x,2001-02-05\n",
            HEADER + "\n  A ,B,x,2001-02-05\n\n\nA,A ,x,2001-02-06\nB , A, x ,2001-02-06\n",
            HEADER + "A,B,x,2001-01-30T23:30:00-05:00\nA,B,x,2001-03-01T22:00:00-03:00\n"
            "A,B,x,2001-03-02T01:00:00+02:00\nA,B,x,2001-01-31T00:10:00Z\n"
            "A,B,x, 2001-01-31 \n",
            HEADER + "A,B,x,2001-02-05\nA,A,x,2001-02-05\nA,B,x,2000-12-31\n",
            HEADER + "A,B,x,2001-02-05\n,B,x,garbage\n",
            HEADER + "A,B,x,2001-02-05\nA, ,x,2001-02-05\nA,B,x,garbage\n",
            HEADER + "A,B,x,2001-02-05\n\n\nA,B,,2001-02-05\n",
            HEADER + 'A,B,x,2001-02-05\n"A\nB",B,x,bad\n',
            HEADER + "A,B\n",
            HEADER + "A,B,x,2001-02-05Z\n",
            HEADER + "A,A,x,2001-02-05\n",
            HEADER + "A,B,x,2000-02-05\n",
            HEADER,
            HEADER + "\n\n",
            "",
            "\nsender,receiver,action,timestamp\nA,B,x,2001-02-05\n",
            "sender,receiver,action\nA,B,x\n",
            HEADER + "A,B,x,2001-02-05T10:00:00Z\nA,B,x, 2001-01-30T23:30:00-05:00 \n"
            "A,B,x,2001-02-05 \nA,B,x,2001-01-31T00:00:00.5Z\nA,B,x,2001-W06-1\n"
            "A,B,x,20010205T1000\nA,B,x,2001-03-01T23:00:00Z\t\n",
        ],
        ids=[
            "quoted-fields", "reordered-and-extra-columns", "duplicated-name-last-wins",
            "duplicated-name-short-row", "padded-labels-and-blank-lines",
            "offsets-across-range-edges", "self-action-and-out-of-range",
            "bad-timestamp-before-empty-label", "first-bad-line-wins",
            "blank-lines-before-bad-row", "multi-line-quoted-field", "short-row",
            "date-with-z", "only-self-actions", "only-out-of-range", "header-only",
            "header-and-blank-lines", "empty-file", "blank-first-line", "missing-column",
            "stamps-read-as-is-or-stripped",
        ],
    )
    @pytest.mark.parametrize("bin_width", BIN_WIDTHS)
    def test_hand_written_files(self, tmp_path, text, bin_width):
        (tmp_path / "events.csv").write_text(text)
        new, oracle = outcomes(tmp_path / "events.csv", bin_width, RANGE)
        assert new == oracle

    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(data=st.data())
    def test_generated_files(self, data):
        text, bin_width, date_range, drop = data.draw(event_files())
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "events.csv"
            path.write_bytes(text.encode())
            new, oracle = outcomes(path, bin_width, date_range, drop)
        assert new == oracle


LABELS = st.sampled_from(["AA", "BB", "CC", " AA", "BB  ", "C,C", 'D"D'])
BAD_LABELS = st.sampled_from(["", "  "])
BAD_STAMPS = st.sampled_from(["garbage", "", "2001-02-30", "2001-13-01T00:00", "2001-13-01Z"])


@st.composite
def event_files(draw):
    """(text, bin_width, date_range, drop_self_actions) for a generated event
    file: required columns in any order among extra and repeated ones,
    quoted and padded labels, blank lines, and timestamps near the range
    edges with and without offsets.  Flawed files also hold empty labels,
    bad timestamps, short rows and missing columns."""
    flaw = draw(st.sampled_from([0, 0, 4]))  # percent chance of each flaw

    def flawed():
        return draw(st.integers(0, 99)) < flaw

    start = dt.date(2001, 1, 1) + dt.timedelta(days=draw(st.integers(0, 60)))
    span = draw(st.integers(0, 70))
    names = list(EVENT_COLUMNS) + draw(
        st.lists(st.sampled_from(["note", *EVENT_COLUMNS]), max_size=2)
    )
    if flawed():
        names.remove(draw(st.sampled_from(EVENT_COLUMNS)))
    names = draw(st.permutations(names))

    def timestamp():
        """Extended, compact or week-date forms, some with a clock, fractional
        seconds and an offset, with surrounding whitespace.  Flawed files
        also get hour 24, a lowercase z and an offset followed by Z."""
        if flawed():
            return draw(BAD_STAMPS)
        day = start + dt.timedelta(days=draw(st.integers(-2, span + 2)))
        form = draw(st.sampled_from(["extended"] * 4 + ["compact", "week"]))
        if form == "week":
            text = "%04d-W%02d-%d" % tuple(day.isocalendar())
        else:
            text = day.strftime("%Y%m%d") if form == "compact" else day.isoformat()
        sep = draw(st.sampled_from(["", "T", " "]))
        if sep:
            hour = 24 if flawed() else draw(st.sampled_from([0, 1, 12, 22, 23]))
            minute = draw(st.integers(0, 59))
            clock = f"{hour:02d}{minute:02d}" if form == "compact" else f"{hour:02d}:{minute:02d}:00"
            text += sep + clock + draw(st.sampled_from(["", "", ".5", ".123456"]))
            offset = draw(st.sampled_from(["", "Z", "+", "-"]))
            if offset == "Z":
                text += "z" if flawed() else "Z"
            elif offset:
                hours, minutes = draw(st.integers(0, 14)), draw(st.sampled_from([0, 30]))
                text += f"{offset}{hours:02d}:{minutes:02d}" + ("Z" if flawed() else "")
        return draw(st.sampled_from(["", " "])) + text + draw(st.sampled_from(["", "", " ", "\t"]))

    def value(name):
        if name == "timestamp":
            return timestamp()
        if name == "note":
            return draw(st.sampled_from(["", "n", "a,b"]))
        return draw(BAD_LABELS) if flawed() else draw(LABELS)

    terminator = draw(st.sampled_from(["\n", "\r\n"]))
    quoting = draw(st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL]))
    buf = io.StringIO()
    writer = csv.writer(buf, quoting=quoting, lineterminator=terminator)
    writer.writerow(names)
    for _ in range(draw(st.integers(1, 12))):
        row = [value(name) for name in names]
        if flawed():
            row = row[: draw(st.integers(0, len(row) - 1))]
        if draw(st.integers(0, 9)) == 0:
            row.append("extra")
        buf.write(terminator * draw(st.sampled_from([0, 0, 0, 1, 2])))
        writer.writerow(row)
    date_range = (start, start + dt.timedelta(days=span))
    return buf.getvalue(), draw(st.sampled_from(BIN_WIDTHS)), date_range, draw(st.booleans())


class TestEventTable:
    def test_len_counts_every_row_read(self, tmp_path):
        (tmp_path / "events.csv").write_text(
            HEADER + "A,B,x,2001-02-05\nA,A,x,2001-02-05\n\nA,B,x,1999-02-05\n"
        )
        table = read_event_file(tmp_path / "events.csv")
        assert len(table) == 3
        assert ingest_events(table, "day", RANGE).values.sum() == 1

    def test_codes_follow_first_appearance(self):
        when = dt.datetime(2001, 2, 5, 23, 30, tzinfo=dt.timezone(dt.timedelta(hours=-2)))
        table = EventTable.from_records(
            [("B", "A", "x", when), ("A", "C", "y", dt.datetime(2001, 2, 5))]
        )
        assert (table.actors, table.actions) == (["B", "A", "C"], ["x", "y"])
        assert table.sender.tolist() == [0, 1] and table.receiver.tolist() == [1, 2]
        assert table.days.tolist() == [dt.date(2001, 2, 6).toordinal(),
                                       dt.date(2001, 2, 5).toordinal()]

    @pytest.mark.parametrize(
        "record, message",
        [
            (("", "B", "x", dt.datetime(2001, 1, 1)), "empty 'sender'"),
            (("A", "", "x", dt.datetime(2001, 1, 1)), "empty 'receiver'"),
            (("A", "B", None, "2001-01-01"), "empty 'action'"),
            (("A", "B", "x", dt.date(2001, 1, 1)), "must be a datetime"),
        ],
    )
    def test_from_records_checks_each_record(self, record, message):
        with pytest.raises(IngestionError, match=message):
            EventTable.from_records([("A", "B", "x", dt.datetime(2001, 1, 1)), record])

    @pytest.mark.parametrize("field", range(3))
    @pytest.mark.parametrize("inner", ["\t", "\n", "\r", "\r\n"])
    def test_from_records_rejects_a_label_the_labels_file_cannot_hold(self, field, inner):
        record = ["A", "B", "x", dt.datetime(2001, 1, 1)]
        record[field] = f"Q{inner}R"
        with pytest.raises(IngestionError,
                           match=f"'{EVENT_COLUMNS[field]}' field holds a tab or line break"):
            EventTable.from_records([("A", "B", "x", dt.datetime(2001, 1, 1)), tuple(record)])

    @pytest.mark.parametrize("field", range(3))
    @pytest.mark.parametrize("inner, line", [("\t", 3), ("\n", 4), ("\r", 4), ("\r\n", 4)])
    def test_quoted_label_with_a_tab_or_line_break_names_its_line(self, tmp_path, field,
                                                                   inner, line):
        row = ["A", "B", "x", "2001-02-05"]
        row[field] = f'"Q{inner}R"'
        (tmp_path / "events.csv").write_bytes(
            (HEADER + "A,B,x,2001-02-05\n" + ",".join(row) + "\n").encode()
        )
        with pytest.raises(IngestionError) as caught:
            read_event_file(tmp_path / "events.csv")
        assert str(caught.value) == (
            f"{tmp_path / 'events.csv'}: line {line}: "
            f"event record '{EVENT_COLUMNS[field]}' field holds a tab or line break"
        )

    @pytest.mark.parametrize("stamp", ["2001-13-01T00:00:00Z", " 2001-13-01T00:00:00Z\t"])
    def test_bad_z_stamp_is_quoted_as_the_file_holds_it(self, tmp_path, stamp):
        (tmp_path / "events.csv").write_text(HEADER + f"A,B,x,2001-02-05\nA,B,x,{stamp}\n")
        with pytest.raises(IngestionError) as caught:
            read_event_file(tmp_path / "events.csv")
        assert str(caught.value).endswith("line 3: unparseable timestamp '2001-13-01T00:00:00Z'")

    def test_offset_leaving_the_calendar_is_a_data_error(self, tmp_path):
        (tmp_path / "events.csv").write_text(HEADER + "A,B,x,9999-12-31T23:00:00-02:00\n")
        with pytest.raises(IngestionError, match="line 2: .*no UTC date"):
            read_event_file(tmp_path / "events.csv")


class TestSaveTensor:
    @pytest.mark.parametrize("nnz", [0, 1, 2**16, 2**16 + 3])
    def test_bytes_match_the_row_by_row_writer(self, tmp_path, nnz):
        rng = np.random.default_rng(nnz)
        if nnz:
            t = random_tensor((60, 60, 20, 4), rng, nnz=nnz, max_count=10**12)
        else:
            t = SparseCountTensor((2, 3), np.empty((0, 2)), [], [["a", "b"], list("xyz")])
        save_tensor(t, tmp_path / "new.txt")
        oracle_save_tensor(t, tmp_path / "old.txt")
        assert (tmp_path / "new.txt").read_bytes() == (tmp_path / "old.txt").read_bytes()


# ---------------------------------------------------------------------------
# The block reader of quote-free files against the csv.reader pass
# ---------------------------------------------------------------------------


def table_fields(table):
    """An EventTable's columns (with their dtypes) and label lists."""
    columns = [getattr(table, name) for name in ("sender", "receiver", "action", "days")]
    return [(c.dtype.str, c.tolist()) for c in columns], table.actors, table.actions


def oracle_table(path):
    records = oracle_read_event_file(path)
    return EventTable.from_records((r.sender, r.receiver, r.action, r.timestamp) for r in records)


def read_outcome(read, path):
    """``table_fields`` of ``read(path)``, or its error's class name and message."""
    try:
        return table_fields(read(path))
    except CountCPError as exc:
        return type(exc).__name__, str(exc)


def block_path_only():
    """A patch under which ``read_event_file`` cannot fall back to the
    csv.reader pass."""
    return mock.patch.object(tensors, "_read_event_rows",
                             side_effect=AssertionError("the csv.reader pass ran"))


FIELD_LIMIT = 64  # csv.field_size_limit() while quote-free files are generated
QUOTE_FREE_LABELS = st.sampled_from([
    "AA", "BB", " AA", "BB  ", "\u00a0AA", "Zürich", "北京", " Ωmega", "actor000", "actor0000",
    "actor000x", "Republic of Abaria", "Republic of Bedoria", "Republic of Abaria North ",
])
FLAWS = ("short-row", "empty-label", "bad-timestamp", "long-field", "not-utf-8", "tab",
         "missing-column")


@st.composite
def quote_free_files(draw, flaw):
    """A generated event file without quotes or CRs, as bytes.

    Columns come in any order among extra and repeated ones, with blank
    lines, padded, non-ASCII and long labels, and timestamps in the fast
    forms, with offsets, Z, fractions, padding or the compact form.  A
    ``flaw`` (one of ``FLAWS``) puts one thing in the file that the block
    reader must hand to the csv.reader pass: a short row, an empty label, a
    bad timestamp, a field over ``FIELD_LIMIT`` characters, bytes that are
    not UTF-8, a tab or a header without one of the event columns.
    """
    names = list(EVENT_COLUMNS) + draw(st.lists(st.sampled_from(["note", *EVENT_COLUMNS]),
                                                max_size=2))
    if flaw == "missing-column":
        gone = draw(st.sampled_from(EVENT_COLUMNS))
        names = [name for name in names if name != gone]
    names = draw(st.permutations(names))

    def timestamp():
        day = dt.date(2001, 1, 1) + dt.timedelta(days=draw(st.integers(0, 364)))
        clock = "%02d:%02d:%02d" % (draw(st.sampled_from([0, 9, 23])), draw(st.integers(0, 59)),
                                     draw(st.integers(0, 59)))
        return draw(st.sampled_from([
            day.isoformat(), f"{day}T{clock}", f"{day} {clock}", f"{day}T{clock}",
            f"{day}T{clock}Z", f"{day}T{clock}+05:30", f"{day} {clock}-03:00",
            f"{day}T{clock}.25", f"{day}T{clock[:5]}", day.strftime("%Y%m%d"),
            day.strftime("%Y%m%dT") + clock[:5].replace(":", ""), f" {day}", f"{day}T{clock} ",
        ]))

    def value(name):
        if name == "timestamp":
            return timestamp()
        if name == "note":
            return draw(st.sampled_from(["", "n", "x" * FIELD_LIMIT]))
        return draw(QUOTE_FREE_LABELS)

    rows = [[value(name) for name in names] for _ in range(draw(st.integers(0, 10)))]
    if flaw not in (None, "missing-column"):
        if not rows:
            rows.append([value(name) for name in names])
        row = rows[draw(st.integers(0, len(rows) - 1))]
        where = draw(st.integers(0, len(names) - 1))
        column = {name: i for i, name in enumerate(names)}  # a repeated name's last
        if flaw == "short-row":
            del row[draw(st.integers(1, max(column.values()))):]
            row[0] = row[0] or "x"  # not a blank line
        elif flaw == "empty-label":
            row[column[draw(st.sampled_from(EVENT_COLUMNS[:3]))]] = draw(
                st.sampled_from(["", "  "]))
        elif flaw == "bad-timestamp":
            row[column["timestamp"]] = draw(st.sampled_from(
                ["garbage", "", "2001-02-30", "2001-13-01T00:00:00", "0000-01-01"]))
        elif flaw == "long-field":
            row[where] = "y" * (FIELD_LIMIT + 1)
        elif flaw == "not-utf-8":
            row[where] += "@@"
        else:
            cut = draw(st.integers(0, len(row[where])))
            row[where] = row[where][:cut] + "\t" + row[where][cut:]
    lines = [",".join(names)]
    for row in rows:
        lines += [""] * draw(st.sampled_from([0, 0, 0, 1, 2]))
        lines.append(",".join(row))
    text = "\n".join(lines) + draw(st.sampled_from(["\n", "\n", ""]))
    return text.encode().replace(b"@@", b"\xff\xfe")


class TestBlockReader:
    @pytest.mark.parametrize("flaw", [None, *FLAWS])
    @settings(max_examples=100, deadline=None, database=None, derandomize=True)
    @given(data=st.data())
    def test_generated_quote_free_files(self, flaw, data):
        body = data.draw(quote_free_files(flaw))
        previous = csv.field_size_limit(FIELD_LIMIT)
        try:
            with tempfile.TemporaryDirectory() as directory:
                path = Path(directory) / "events.csv"
                path.write_bytes(body)
                new = read_outcome(read_event_file, path)
                rows = read_outcome(tensors._read_event_rows, path)
                assert new == rows == read_outcome(oracle_table, path)
                if flaw is not None:
                    assert tensors._read_event_blocks(path) is None
                elif new[0] != "IngestionError":  # an eligible file
                    with block_path_only():
                        assert read_outcome(read_event_file, path) == rows
        finally:
            csv.field_size_limit(previous)

    @pytest.mark.parametrize(
        "text",
        [
            HEADER,
            HEADER[:-1],
            HEADER + "A,B,x,2001-02-05",
            HEADER + "\n\nA,B,x,2001-02-05\n\n",
            "note,timestamp,action,receiver,sender,action\nn,2001-02-05 10:00:00,p,B,A,x,9\n",
            HEADER + "  A ,B,x,2001-02-05T23:00:00-05:00\nB, A ,y,2001-02-05Z\n",
            HEADER + "Republic of Abaria,Republic of Abaria North,x,2001-02-05\n"
            "Republic of Bedoria,Republic of Abaria,x,20010205T1030\n",
        ],
        ids=["header-only", "header-without-line-end", "last-line-without-line-end",
             "blank-lines", "reordered-extra-and-repeated", "padded-with-offsets",
             "labels-sharing-a-first-word"],
    )
    def test_hand_written_files_take_the_block_path(self, tmp_path, text):
        (tmp_path / "events.csv").write_text(text)
        rows = read_outcome(tensors._read_event_rows, tmp_path / "events.csv")
        assert rows == read_outcome(oracle_table, tmp_path / "events.csv")
        with block_path_only():
            assert read_outcome(read_event_file, tmp_path / "events.csv") == rows

    def test_blocks_of_whole_lines_keep_first_appearance(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(5)
        lines = [
            f"a{rng.integers(40)},{'Republic of ' * int(rng.integers(2))}b{rng.integers(40)},"
            f"t{rng.integers(7)},2001-{rng.integers(1, 13):02d}-{rng.integers(1, 29):02d}"
            for _ in range(3000)
        ]
        lines[1500] = "a1,b2," + "v" * 5000 + ",2001-02-05"  # a line longer than a block
        (tmp_path / "events.csv").write_text(HEADER + "\n".join(lines) + "\n")
        rows = read_outcome(tensors._read_event_rows, tmp_path / "events.csv")
        monkeypatch.setattr(tensors, "_READ_BLOCK", 1000)
        with block_path_only():
            assert read_outcome(read_event_file, tmp_path / "events.csv") == rows

    def test_a_file_opened_under_another_encoding_takes_the_row_reader(self, tmp_path):
        # under the C locale with UTF-8 mode off, open() decodes as ASCII
        (tmp_path / "events.csv").write_text(HEADER + "A,B,x,2001-02-05\nZürich,B,x,2001-02-05\n",
                                             encoding="utf-8")
        child = (
            "import codecs, sys\n"
            "from countcp import IngestionError, read_event_file\n"
            "print(codecs.lookup(open(sys.argv[1]).encoding).name)\n"
            "try:\n"
            "    read_event_file(sys.argv[1])\n"
            "except IngestionError as exc:\n"
            "    print(exc)\n"
        )
        src = str(Path(countcp.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONUTF8="0", LC_ALL="C", PYTHONIOENCODING="utf-8",
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-c", child, str(tmp_path / "events.csv")],
                              env=env, capture_output=True, text=True, timeout=120, check=True)
        encoding, *error = done.stdout.splitlines()
        if encoding == "utf-8":
            pytest.skip("the C locale decodes as UTF-8 here")
        assert error == [f"{tmp_path / 'events.csv'}: line 3: not {encoding} text"]

    def test_distinct_fields_are_equal_exactly_where_the_bytes_are(self):
        # prefixes, and lengths on each side of the 8-byte words, ended by either separator
        texts = [b"", b"a", b"ab", b"abcdefg", b"abcdefgh", b"abcdefghi", b"abcdefghabcdefgh",
                 b"abcdefghabcdefghi", b"abcdefghabcdefgx", b"Z\xc3\xbcrich"]
        rng = np.random.default_rng(3)
        fields = [texts[i] for i in rng.integers(len(texts), size=300)]
        data = b"".join(f + (b"," if s else b"\n") for f, s in zip(fields, rng.integers(2, size=300)))
        lengths = np.array([len(f) for f in fields])
        ends = np.cumsum(lengths + 1) - 1
        padded = np.frombuffer(data + bytes(tensors._STAMP_WIDTH), dtype=np.uint8)
        ids, first = tensors._distinct_fields(padded, ends - lengths, lengths)
        assert len(first) == len(set(fields))
        assert [first[i] for i in ids] == [fields.index(f) for f in fields]

    def test_day_ordinals_match_date_toordinal_on_every_day(self):
        last = dt.date.max.toordinal()
        for lo in range(1, last + 1, 146_097):  # 400 years at a time
            dates = [dt.date.fromordinal(o) for o in range(lo, min(lo + 146_097, last + 1))]
            year, month, day = (np.array([getattr(d, name) for d in dates], dtype=np.int32)
                                for name in ("year", "month", "day"))
            expected = np.array([d.toordinal() for d in dates])
            assert np.array_equal(tensors._day_ordinals(year, month, day), expected)

    @staticmethod
    def stamp_days(stamps, monkeypatch):
        """(days, stamps read row by row) of ``_stamp_days`` over one block."""
        slow = []
        monkeypatch.setattr(tensors, "_stamp_day", lambda stamp: slow.append(stamp) or -1)
        data = "".join(f"{s}\n" for s in stamps).encode()
        ends = np.cumsum([len(s) + 1 for s in stamps]) - 1
        padded = np.frombuffer(data + bytes(tensors._STAMP_WIDTH), dtype=np.uint8)
        return tensors._stamp_days(data, padded, ends - [len(s) for s in stamps], ends), slow

    def test_every_day_of_a_400_year_cycle_takes_the_fast_forms(self, monkeypatch):
        dates = [dt.date(1601, 1, 1) + dt.timedelta(days=i) for i in range(146_097)]
        dates += [dt.date.min, dt.date.max]
        stamps = [d.isoformat() + ("T12:34:56" if d.day % 2 else "") for d in dates]
        days, slow = self.stamp_days(stamps, monkeypatch)
        assert slow == []
        assert days.tolist() == [d.toordinal() for d in dates]

    @pytest.mark.parametrize(
        "stamp",
        ["0000-01-01", "1900-02-29", "2001-02-29", "2001-13-01", "2001-02-00",
         "2001-02-05T24:00:00", "2001-02-05T23:60:00", "2001-02-05T23:59:60",
         "2001-02-05t10:00:00", "2001-02-05T10:00", "2001-2-05", "+001-02-05", " 2001-02-05",
         "2001-02-05T10:00:00Z", "20010205"],
    )
    def test_near_misses_are_read_row_by_row(self, tmp_path, monkeypatch, stamp):
        (tmp_path / "events.csv").write_text(HEADER + f"A,B,x,2001-02-05\nA,B,x,{stamp}\n")
        rows = read_outcome(tensors._read_event_rows, tmp_path / "events.csv")
        assert read_outcome(read_event_file, tmp_path / "events.csv") == rows
        days, slow = self.stamp_days(["2001-02-05", stamp], monkeypatch)
        assert slow == [stamp]

    @pytest.mark.parametrize("stamp", ["2000-02-29", "2000-02-29T23:59:59", "2000-02-29 00:00:00"])
    def test_feb_29_of_2000_takes_the_fast_form(self, monkeypatch, stamp):
        days, slow = self.stamp_days([stamp], monkeypatch)
        assert slow == [] and days.tolist() == [dt.date(2000, 2, 29).toordinal()]

    def test_bench_sized_file_reads_in_little_memory(self, tmp_path):
        rng = np.random.default_rng(0)
        n = 51_280
        sender, receiver = rng.integers(20, size=(2, n))
        action, second = rng.integers(10, size=n), rng.integers(365 * 86_400, size=n)
        start = dt.datetime(2001, 1, 1)
        (tmp_path / "events.csv").write_text(HEADER + "".join(
            f"actor{s:03d},actor{r:03d},type{a:02d},{(start + dt.timedelta(seconds=t)).isoformat()}\n"
            for s, r, a, t in zip(sender.tolist(), receiver.tolist(), action.tolist(),
                                  second.tolist())))
        rows = table_fields(tensors._read_event_rows(tmp_path / "events.csv"))
        with block_path_only():
            tracemalloc.start()
            try:
                table = read_event_file(tmp_path / "events.csv")
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert table_fields(table) == rows
        assert peak < 6 * 2**20
