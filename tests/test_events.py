"""The columnar event path (EventTable, read_event_file, ingest_events) and
the block writer of save_tensor, against the per-record oracles they
replaced: same tensors, same file bytes, and the same error for every
malformed event file."""

import csv
import datetime as dt
import io
import tempfile
from pathlib import Path

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
