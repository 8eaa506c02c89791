"""Tensor construction, statistics, splitting, and file round-trips."""

import datetime as dt
import re

import numpy as np
import pytest

from countcp import (
    EmptyTensorError,
    EventTable,
    IngestionError,
    LabelMismatchError,
    SparseCountTensor,
    SplitError,
    UndefinedStatisticError,
    density,
    ingest_events,
    load_labels,
    load_tensor,
    read_event_file,
    save_labels,
    save_tensor,
    sort_by_activity,
    split_time,
    vmr_nonzero,
)
from conftest import random_tensor, todense, write_event_file


def ev(sender, receiver, action, when):
    return (sender, receiver, action, dt.datetime.fromisoformat(when))


def ingest(events, *args, **kwargs):
    return ingest_events(EventTable.from_records(events), *args, **kwargs)


def assert_tables_equal(a, b):
    for name in ("sender", "receiver", "action", "days"):
        assert getattr(a, name).tolist() == getattr(b, name).tolist(), name
    assert (a.actors, a.actions) == (b.actors, b.actions)


JAN = (dt.date(2001, 1, 1), dt.date(2001, 3, 31))


class TestIngest:
    def test_multiplicity_counts_repeat_events(self):
        records = [ev("a", "b", "talk", "2001-01-05")] * 3
        t = ingest(records, "month", JAN)
        assert t.shape == (2, 2, 1, 3)
        assert t.nnz == 1
        assert t.values[0] == 3

    def test_self_actions_dropped_leaves_diagonal_empty(self):
        records = [
            ev("a", "a", "talk", "2001-01-05"),
            ev("a", "b", "talk", "2001-01-06"),
        ]
        t = ingest(records, "month", JAN, drop_self_actions=True)
        assert t.nnz == 1
        assert not np.any(t.coords[:, 0] == t.coords[:, 1])

    def test_self_actions_kept_when_requested(self):
        records = [ev("a", "a", "talk", "2001-01-05")]
        t = ingest(records, "month", JAN, drop_self_actions=False)
        assert t.nnz == 1
        assert t.coords[0, 0] == t.coords[0, 1]

    def test_eighteen_year_monthly_range_gives_216_steps(self):
        records = [
            ev("a", "b", "talk", "1995-01-02"),
            ev("b", "a", "talk", "2012-12-30"),
        ]
        t = ingest(
            records, "month", (dt.date(1995, 1, 1), dt.date(2012, 12, 31))
        )
        assert t.shape[3] == 216
        assert t.coords[0, 3] == 0
        assert t.coords[1, 3] == 215

    def test_actor_set_is_union_of_senders_and_receivers(self):
        records = [
            ev("c", "a", "x", "2001-01-05"),
            ev("b", "c", "y", "2001-02-05"),
        ]
        t = ingest(records, "month", JAN)
        assert t.mode_labels[0] == ["a", "b", "c"]
        assert t.mode_labels[0] == t.mode_labels[1]

    def test_records_outside_range_dropped(self):
        records = [
            ev("a", "b", "x", "2000-12-31"),
            ev("a", "b", "x", "2001-02-01"),
            ev("a", "b", "x", "2001-04-01"),
        ]
        t = ingest(records, "month", JAN)
        assert t.total_count == 1
        assert t.coords[0, 3] == 1

    def test_week_and_day_binning(self):
        rng_dates = (dt.date(2001, 1, 1), dt.date(2001, 1, 15))
        records = [ev("a", "b", "x", "2001-01-01"), ev("a", "b", "x", "2001-01-08")]
        by_week = ingest(records, "week", rng_dates)
        assert by_week.shape[3] == 3
        assert sorted(by_week.coords[:, 3]) == [0, 1]
        by_day = ingest(records, "day", rng_dates)
        assert by_day.shape[3] == 15
        assert sorted(by_day.coords[:, 3]) == [0, 7]

    def test_record_order_is_irrelevant(self, rng):
        records = [
            ev("a", "b", "x", "2001-01-05"),
            ev("b", "c", "y", "2001-02-05"),
            ev("a", "b", "x", "2001-03-05"),
            ev("c", "a", "x", "2001-01-07"),
        ]
        t1 = ingest(records, "month", JAN)
        shuffled = list(records)
        rng.shuffle(shuffled)
        t2 = ingest(shuffled, "month", JAN)
        assert t1 == t2

    def test_everything_filtered_is_an_error(self):
        records = [ev("a", "a", "x", "2001-01-05")]
        with pytest.raises(EmptyTensorError):
            ingest(records, "month", JAN, drop_self_actions=True)

    def test_timezone_aware_timestamps_fold_to_utc(self):
        records = [ev("a", "b", "x", "2001-01-31T23:30:00-05:00")]
        t = ingest(records, "month", JAN)
        assert t.coords[0, 3] == 1  # 04:30 UTC on Feb 1


class TestInvariants:
    def test_duplicate_coordinates_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            SparseCountTensor((2, 2), [[0, 1], [0, 1]], [1, 2], [["a", "b"]] * 2)

    def test_duplicate_error_names_the_coordinate(self):
        with pytest.raises(ValueError, match=re.escape("duplicate coordinate (1, 0)")):
            SparseCountTensor((2, 2), [[1, 0], [0, 1], [1, 0]], [1, 2, 3], [["a", "b"]] * 2)

    def test_any_entry_order_gives_one_tensor_that_shares_no_memory(self, rng):
        t = random_tensor((5, 6, 3, 4), rng, nnz=40)
        shuffle = rng.permutation(t.nnz)
        coords, values = t.coords.copy(), t.values.copy()
        for c, v in ((coords, values), (coords[shuffle], values[shuffle])):
            built = SparseCountTensor(t.shape, c, v, t.mode_labels)
            assert built == t
            assert not np.shares_memory(built.coords, c)
            assert not np.shares_memory(built.values, v)
        assert coords.flags.writeable and values.flags.writeable

    def test_zero_counts_rejected(self):
        with pytest.raises(ValueError, match="counts"):
            SparseCountTensor((2, 2), [[0, 1]], [0], [["a", "b"]] * 2)

    def test_out_of_range_coordinates_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            SparseCountTensor((2, 2), [[0, 2]], [1], [["a", "b"]] * 2)

    def test_label_length_must_match_shape(self):
        with pytest.raises(ValueError, match="labels"):
            SparseCountTensor((2, 2), [[0, 1]], [1], [["a"], ["a", "b"]])


class TestDensity:
    def test_empty_tensor_density_zero(self):
        t = SparseCountTensor.from_entries((2, 2, 2, 2), [])
        assert density(t) == 0.0

    def test_four_of_sixteen(self):
        entries = [((i, i % 2, 0, 0), 1) for i in range(2)]
        entries += [((i, (i + 1) % 2, 1, 1), 2) for i in range(2)]
        t = SparseCountTensor.from_entries((2, 2, 2, 2), entries)
        assert density(t) == 4 / 16


class TestVmr:
    def test_constant_counts_have_zero_vmr(self):
        t = SparseCountTensor.from_entries((4, 1), [((i, 0), 5) for i in range(4)])
        assert vmr_nonzero(t) == 0.0

    def test_two_counts_hand_arithmetic(self):
        t = SparseCountTensor.from_entries((2, 1), [((0, 0), 1), ((1, 0), 3)])
        assert vmr_nonzero(t) == pytest.approx(0.5)

    def test_matches_two_pass_oracle(self):
        t = SparseCountTensor.from_entries(
            (3, 1), [((0, 0), 1), ((1, 0), 1), ((2, 0), 10)]
        )
        values = [1.0, 1.0, 10.0]
        mean = sum(values) / len(values)
        var = sum((v - mean) ** 2 for v in values) / len(values)
        assert var / mean == pytest.approx(4.5)
        assert vmr_nonzero(t) == pytest.approx(var / mean, rel=1e-12)

    def test_single_entry_is_undefined(self):
        t = SparseCountTensor.from_entries((2, 1), [((0, 0), 1)])
        with pytest.raises(UndefinedStatisticError):
            vmr_nonzero(t)


class TestSortByActivity:
    def build(self, totals):
        # one send per unit of activity toward a dummy second actor column
        entries = []
        labels = sorted(totals)
        n = len(labels)
        for i, name in enumerate(labels):
            entries.append(((i, (i + 1) % n, 0, 0), totals[name]))
        shape = (n, n, 1, 1)
        t = SparseCountTensor.from_entries(shape, entries, [labels, list(labels), ["x"], ["t0"]])
        return t

    def test_orders_by_descending_total(self):
        t = self.build({"A": 5, "B": 1, "C": 3})
        _, perm = sort_by_activity(t)
        # totals count both the sender and receiver roles
        totals = np.zeros(3)
        for (i, j, _, _), v in zip(t.coords, t.values):
            totals[i] += v
            totals[j] += v
        assert list(perm) == sorted(range(3), key=lambda i: (-totals[i], t.mode_labels[0][i]))

    def test_tie_breaks_lexicographically(self):
        entries = [((0, 1, 0, 0), 5), ((1, 0, 0, 0), 5)]
        t = SparseCountTensor.from_entries(
            (2, 2, 1, 1), entries, [["B", "A"], ["B", "A"], ["x"], ["t0"]]
        )
        sorted_t, perm = sort_by_activity(t)
        assert sorted_t.mode_labels[0] == ["A", "B"]
        assert list(perm) == [1, 0]

    def test_matches_brute_force_oracle_and_preserves_entries(self, rng):
        t = random_tensor((10, 10, 3, 4), rng, nnz=60)
        sorted_t, perm = sort_by_activity(t)
        totals = np.zeros(10)
        for (i, j, _, _), v in zip(t.coords, t.values):
            totals[i] += v
            totals[j] += v
        expected = sorted(range(10), key=lambda i: (-totals[i], t.mode_labels[0][i]))
        assert list(perm) == expected
        assert sorted_t.total_count == t.total_count
        assert sorted_t.nnz == t.nnz
        # entry multiset preserved under the relabeling
        dense_old = todense(t)
        dense_new = todense(sorted_t)
        assert np.array_equal(dense_new, dense_old[np.ix_(perm, perm)])

    def test_mismatched_actor_labels_rejected(self):
        t = SparseCountTensor.from_entries(
            (2, 2, 1, 1), [((0, 1, 0, 0), 1)], [["a", "b"], ["x", "y"], ["w"], ["t"]]
        )
        with pytest.raises(LabelMismatchError):
            sort_by_activity(t)


class TestSplitTime:
    def test_cardinality(self, rng):
        t = random_tensor((3, 3, 2, 10), rng, nnz=30)
        ts = split_time(t, 0.2, seed=7)
        assert len(ts.test_steps) == 2
        assert len(ts.train_steps) == 8

    def test_deterministic_per_seed(self, rng):
        t = random_tensor((3, 3, 2, 12), rng, nnz=40)
        a = split_time(t, 0.25, seed=3)
        b = split_time(t, 0.25, seed=3)
        assert np.array_equal(a.test_steps, b.test_steps)
        assert a.train == b.train and a.test == b.test

    def test_216_steps_at_20_percent_gives_43(self, rng):
        t = random_tensor((4, 4, 2, 216), rng, nnz=300)
        ts = split_time(t, 0.2, seed=0)
        assert len(ts.test_steps) == 43

    def test_partition_and_count_conservation(self, rng):
        t = random_tensor((4, 4, 2, 9), rng, nnz=60)
        ts = split_time(t, 0.3, seed=1)
        merged = sorted(ts.train_steps) + sorted(ts.test_steps)
        assert sorted(merged) == list(range(9))
        assert ts.train.total_count + ts.test.total_count == t.total_count
        # chronological order and label map preserved
        assert ts.train.mode_labels[3] == [t.mode_labels[3][s] for s in ts.train_steps]

    def test_degenerate_fractions_rejected(self, rng):
        t = random_tensor((2, 2, 1, 3), rng, nnz=4)
        with pytest.raises(SplitError):
            split_time(t, 0.99, seed=0)
        with pytest.raises(SplitError):
            split_time(t, 0.0, seed=0)


class TestFiles:
    def test_tensor_round_trip_is_exact(self, rng, tmp_path):
        t = random_tensor((5, 5, 3, 4), rng, nnz=25)
        save_tensor(t, tmp_path / "t.txt")
        save_labels(t.mode_labels, tmp_path / "labels.txt")
        back = load_tensor(tmp_path / "t.txt", tmp_path / "labels.txt")
        assert back == t

    def test_duplicate_lines_are_summed(self, tmp_path):
        (tmp_path / "t.txt").write_text("2 2\n0 1 3\n0 1 4\n")
        t = load_tensor(tmp_path / "t.txt")
        assert t.nnz == 1
        assert t.values[0] == 7

    @pytest.mark.parametrize(
        "text, line, message",
        [
            ("3 3 2\n\n0 1 0 2\n\n\n0 1 x 1\n", 6, "integers"),
            ("3 3 2\n" + "0 1 0 2\n" * 10_000 + "\n0 3 1 1\n", 10_003, "outside shape"),
            ("3 3 2\n" + "0 1 0 2\n" * 10_000 + "0 1 0 2 5\n", 10_002, "fields"),
            ("3 3 2\n0 1 0 2\n1 1 1 9223372036854775808\n", 3, "integers"),
            ("3 3 2\n0 1 0 2\n#0 1 0 2\n", 3, "integers"),
            ("\n3 3 2\n0 1 0 2\n1 1 1\n", 4, "expected 4 fields, got 3"),
            ("3 3 2\n\n1 1 1\n0 1 0 2\n", 3, "expected 4 fields, got 3"),
            ("3 3 2\n0 1 0 0\n1 1 1 x\n", 2, "count 0"),
            ("3 3 2\n0 1 0 1_0\n", 2, "integers"),
            ("3 3 2\n0 1 0 2\n0 1 0 1.5\n", 3, "integers"),
            ("3 3 2\n0 1 0 2\n0 1 0 1e3\n", 3, "integers"),
            ("3 3 2\n0 1 0 2\n0.9 1 0 2\n", 3, "integers"),
            ("\n4294967296 2147483648 1\n0 0 0 1\n", 2, "2\\*\\*63"),
        ],
        ids=[
            "after-blank-lines",
            "after-10k-good-lines",
            "field-count-after-10k-good-lines",
            "count-2**63",
            "hash-line",
            "too-few-fields",
            "first-row-too-few-fields",
            "invalid-row-before-unparsable-row",
            "digit-grouping",
            "fractional-count",
            "exponent-count",
            "fractional-coordinate",
            "cells-past-int64",
        ],
    )
    def test_malformed_line_is_named(self, tmp_path, text, line, message):
        (tmp_path / "t.txt").write_text(text)
        with pytest.raises(IngestionError, match=rf"line {line}: .*{message}"):
            load_tensor(tmp_path / "t.txt")

    def test_counts_up_to_2_63_minus_1_load_exactly(self, tmp_path):
        (tmp_path / "t.txt").write_text("2 2\n0 1 9223372036854775807\n1 1 9007199254740993\n")
        assert load_tensor(tmp_path / "t.txt").values.tolist() == [2**63 - 1, 2**53 + 1]

    @pytest.mark.parametrize(
        "repeats",
        [
            (2**62, 2**62),
            (2**62 + 500, 2**62 - 499),
            # sums to 2**63 + 62, but to 2**63 - 1024 in float64
            (4857954895381391758, 4279854239067877888, 85562902405506224),
        ],
    )
    def test_repeated_lines_summing_past_int64_are_rejected(self, tmp_path, repeats):
        body = "".join(f"0 1 {c}\n" for c in repeats)
        (tmp_path / "t.txt").write_text("2 2\n1 1 5\n" + body)
        with pytest.raises(IngestionError, match="sum past"):
            load_tensor(tmp_path / "t.txt")

    @pytest.mark.parametrize("repeats", [(2**62, 2**62 - 1), (2**62 - 1, 2**61, 2**61)])
    def test_repeated_lines_summing_to_int64_max_load_exactly(self, tmp_path, repeats):
        body = "".join(f"0 1 {c}\n" for c in repeats)
        (tmp_path / "t.txt").write_text("2 2\n1 1 5\n" + body)
        t = load_tensor(tmp_path / "t.txt")
        assert t.values.tolist() == [2**63 - 1, 5]

    def test_labels_round_trip_preserves_spaces(self, tmp_path):
        labels = [["North Korea", "South Korea"], ["x"]]
        save_labels(labels, tmp_path / "labels.txt")
        assert load_labels(tmp_path / "labels.txt", (2, 1)) == labels

    def test_event_file_round_trip(self, tmp_path):
        records = [
            ev("a", "b", "Consult", "2001-01-05T10:00:00"),
            ev("b", "a", "Fight", "2001-02-05T11:30:00"),
        ]
        write_event_file(records, tmp_path / "events.csv")
        back = read_event_file(tmp_path / "events.csv")
        assert len(back) == 2
        assert_tables_equal(back, EventTable.from_records(records))

    def test_bad_timestamp_reports_line(self, tmp_path):
        (tmp_path / "events.csv").write_text(
            "sender,receiver,action,timestamp\na,b,x,2001-01-05\na,b,x,not-a-date\n"
        )
        with pytest.raises(IngestionError, match="line 3"):
            read_event_file(tmp_path / "events.csv")

    def test_missing_header_rejected(self, tmp_path):
        (tmp_path / "events.csv").write_text("from,to,what,when\na,b,x,2001-01-05\n")
        with pytest.raises(IngestionError, match="missing columns"):
            read_event_file(tmp_path / "events.csv")
