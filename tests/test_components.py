"""Gini coefficient, anomaly ranking, and component summaries."""

import json
import math

import numpy as np
import pytest

from countcp import FactorSet, gini, rank_components, summarize, write_component_reports
from conftest import random_factors


def pairwise_gini_oracle(v):
    """O(n^2) definition: mean absolute difference over twice the mean."""
    v = np.asarray(v, dtype=float)
    n = v.size
    total = 0.0
    for a in v:
        for b in v:
            total += abs(a - b)
    return total / (2.0 * n * n * v.mean())


class TestGini:
    def test_uniform_vector_is_zero(self):
        assert gini([3.0, 3.0, 3.0, 3.0]) == 0.0

    @pytest.mark.parametrize("n", [2, 3, 7, 50, 1000])
    def test_one_hot_is_exactly_n_minus_one_over_n(self, n):
        v = np.zeros(n)
        v[n // 2] = 5.0
        assert gini(v) == (n - 1) / n

    def test_matches_pairwise_oracle(self, rng):
        for _ in range(50):
            v = rng.uniform(0.0, 3.0, size=7)
            assert gini(v) == pytest.approx(pairwise_gini_oracle(v), abs=1e-12)

    def test_scale_invariant(self, rng):
        v = rng.uniform(0.0, 2.0, size=11)
        for c in (1e-6, 0.5, 3.0, 1e7):
            assert gini(c * v) == pytest.approx(gini(v), abs=1e-12)

    def test_permutation_invariant(self, rng):
        v = rng.uniform(0.0, 2.0, size=13)
        shuffled = v.copy()
        rng.shuffle(shuffled)
        assert gini(shuffled) == pytest.approx(gini(v), abs=1e-14)

    def test_all_zero_marker_and_errors(self):
        assert math.isnan(gini([0.0, 0.0, 0.0]))
        with pytest.raises(ValueError):
            gini([1.0, -0.5])
        with pytest.raises(ValueError):
            gini([1.0])


class TestRankComponents:
    def factors_with_time(self, time_matrix, rng):
        t = np.asarray(time_matrix, dtype=float)
        k = t.shape[1]
        mats = [rng.uniform(0.1, 1.0, size=(4, k)) for _ in range(3)] + [t]
        return FactorSet(mats)

    def test_one_hot_outranks_uniform(self, rng):
        time = np.stack([np.full(6, 0.5), np.eye(6)[0]], axis=1)
        f = self.factors_with_time(time, rng)
        assert rank_components(f) == [1, 0]

    def test_identical_columns_tie_break_by_index(self, rng):
        column = rng.uniform(0.1, 1.0, size=6)
        time = np.stack([column] * 3, axis=1)
        f = self.factors_with_time(time, rng)
        assert rank_components(f) == [0, 1, 2]

    def test_matches_gini_oracle_order(self, rng):
        f = random_factors((5, 5, 3, 9), 4, rng)
        scores = [pairwise_gini_oracle(f.factors[3][:, k]) for k in range(4)]
        expected = sorted(range(4), key=lambda k: (-scores[k], k))
        assert rank_components(f) == expected

    def test_rescaling_a_time_column_does_not_change_the_order(self, rng):
        f = random_factors((4, 4, 2, 8), 3, rng)
        scaled = f.factors[3].copy()
        scaled[:, 1] *= 100.0
        g = f.replace_mode(3, scaled)
        assert rank_components(f) == rank_components(g)


class TestSummarize:
    def labels_for(self, shape):
        return [
            [f"s{i}" for i in range(shape[0])],
            [f"r{i}" for i in range(shape[1])],
            [f"a{i}" for i in range(shape[2])],
            [f"t{i}" for i in range(shape[3])],
        ]

    def test_top_n_equals_mode_size_returns_whole_sorted_column(self, rng):
        shape = (4, 4, 3, 5)
        f = random_factors(shape, 2, rng)
        labels = self.labels_for(shape)
        summary = summarize(f, labels, k=0, top_n=4)
        values = [v for _, v in summary.top["sender"]]
        assert values == sorted(values, reverse=True)
        assert len(values) == 4

    def test_unique_maximum_comes_first(self, rng):
        shape = (4, 4, 2, 5)
        f = random_factors(shape, 2, rng)
        boosted = f.factors[0].copy()
        boosted[2, 0] = 50.0
        f = f.replace_mode(0, boosted)
        labels = self.labels_for(shape)
        summary = summarize(f, labels, k=0, top_n=2)
        assert summary.top["sender"][0][0] == "s2"

    def test_matches_sort_oracle_and_never_fabricates_labels(self, rng):
        shape = (5, 6, 3, 4)
        f = random_factors(shape, 3, rng)
        labels = self.labels_for(shape)
        summary = summarize(f, labels, k=1, top_n=3)
        for mode, panel in enumerate(("sender", "receiver", "action")):
            column = f.factors[mode][:, 1]
            expected = sorted(
                zip(labels[mode], column), key=lambda lv: -lv[1]
            )[:3]
            got = summary.top[panel]
            assert [lab for lab, _ in got] == [lab for lab, _ in expected]
            for lab, _ in got:
                assert lab in labels[mode]
        assert np.array_equal(summary.time_values, f.factors[3][:, 1])
        assert summary.time_labels == labels[3]


class TestReports:
    def test_report_files_and_ranked_index(self, rng, tmp_path):
        shape = (4, 4, 2, 6)
        f = random_factors(shape, 3, rng)
        labels = [
            [f"s{i}" for i in range(4)],
            [f"r{i}" for i in range(4)],
            ["talk", "fight"],
            [f"2001-{m:02d}" for m in range(1, 7)],
        ]
        out = write_component_reports(f, labels, tmp_path / "components", top_n=3)
        index = (out / "index.txt").read_text().strip().splitlines()
        assert index[0] == "rank\tcomponent\tgini"
        assert len(index) == 1 + 3
        ranked = [int(line.split("\t")[1]) for line in index[1:]]
        assert ranked == rank_components(f)
        for k in range(3):
            stem = f"component_{k:03d}"
            assert (out / f"{stem}.txt").exists()
            payload = json.loads((out / f"{stem}.json").read_text())
            assert payload["component"] == k
            panel = (out / f"{stem}_sender.txt").read_text().splitlines()
            assert panel[0] == "rank\tlabel\tvalue"
            assert len(panel) == 1 + 3
            time_panel = (out / f"{stem}_time.txt").read_text().splitlines()
            assert len(time_panel) == 1 + 6


def oracle_json_report(summary) -> str:
    """The JSON report, its payload built here from the summary apart from
    the writer's own code."""
    def sig4(value):
        return float(f"{value:.4g}")

    payload = {
        "component": summary.component,
        "gini": sig4(summary.gini),
        "top": {p: [[lab, sig4(val)] for lab, val in rows] for p, rows in summary.top.items()},
        "time": [[lab, sig4(val)] for lab, val in zip(summary.time_labels, summary.time_values)],
    }
    return json.dumps(payload, indent=2) + "\n"


class TestJsonReports:
    LABELS = ['say "hi"', "back\\slash", "tab\tnew\nline\x01\x1f", "Côte d’Ivoire", "北京",
              "emoji \U0001f600", "", "/"]

    @pytest.mark.parametrize("top_n", [0, 3, 100])
    @pytest.mark.parametrize("shape", [(8, 8, 3, 6), (8, 3, 2, 5, 4), (8,)], ids=["4-way", "5-way", "time-only"])
    def test_bytes_match_json_dumps(self, rng, tmp_path, shape, top_n):
        special = [1.7976931348623157e308, 0.0, 1e-05, 1e20, 1.23456789, 5e-324, 2.5e-7, 123456.0, 0.5]
        factors = []
        for m, size in enumerate(shape):
            f = rng.uniform(0.0, 3.0, size=(size, 3))
            f[:, 1] = special[:size] if m < len(shape) - 1 else special[1:size + 1]  # no inf gini
            f[m % size, 2] = 0.0
            factors.append(f)
        labels = [[self.LABELS[(i + m) % len(self.LABELS)] + str(i) * (m % 2) for i in range(size)]
                  for m, size in enumerate(shape)]
        f = FactorSet(factors)
        out = write_component_reports(f, labels, tmp_path, top_n=top_n)
        for k in range(f.k):
            expected = oracle_json_report(summarize(f, labels, k, top_n=top_n))
            assert (out / f"component_{k:03d}.json").read_text() == expected



class TestPinnedReportText:
    """The summary and the plot-ready tables of a small fixed factor set,
    byte for byte."""

    FACTORS = [
        [[0.5, 2.0], [1.25, 0.0], [3.0, 0.125]],
        [[1.0, 1 / 3], [0.25, 4.0]],
        [[0.1, 0.2], [0.7, 123456.0]],
        [[1.0, 0.0], [1.0, 5e-5], [1.0, 2.5]],
    ]
    LABELS = [["A", "B", "C"], ["x", "y"], ["talk", "fight"], ["2001-01", "2001-02", "2001-03"]]
    EXPECTED = {
        "index.txt": "rank\tcomponent\tgini\n1\t1\t0.6667\n2\t0\t0\n",
        "component_000.txt": (
            "component 0\ntime-factor gini 0\n"
            "\ntop sender factors:\n  C\t3\n  B\t1.25\n"
            "\ntop receiver factors:\n  x\t1\n  y\t0.25\n"
            "\ntop action factors:\n  fight\t0.7\n  talk\t0.1\n"
            "\ntime profile:\n  2001-01\t1\n  2001-02\t1\n  2001-03\t1\n"
        ),
        "component_000_sender.txt": "rank\tlabel\tvalue\n1\tC\t3\n2\tB\t1.25\n",
        "component_000_receiver.txt": "rank\tlabel\tvalue\n1\tx\t1\n2\ty\t0.25\n",
        "component_000_action.txt": "rank\tlabel\tvalue\n1\tfight\t0.7\n2\ttalk\t0.1\n",
        "component_000_time.txt": "rank\tlabel\tvalue\n1\t2001-01\t1\n2\t2001-02\t1\n3\t2001-03\t1\n",
        "component_001.txt": (
            "component 1\ntime-factor gini 0.6667\n"
            "\ntop sender factors:\n  A\t2\n  C\t0.125\n"
            "\ntop receiver factors:\n  y\t4\n  x\t0.3333\n"
            "\ntop action factors:\n  fight\t1.235e+05\n  talk\t0.2\n"
            "\ntime profile:\n  2001-01\t0\n  2001-02\t5e-05\n  2001-03\t2.5\n"
        ),
        "component_001_sender.txt": "rank\tlabel\tvalue\n1\tA\t2\n2\tC\t0.125\n",
        "component_001_receiver.txt": "rank\tlabel\tvalue\n1\ty\t4\n2\tx\t0.333333\n",
        "component_001_action.txt": "rank\tlabel\tvalue\n1\tfight\t123456\n2\ttalk\t0.2\n",
        "component_001_time.txt": "rank\tlabel\tvalue\n1\t2001-01\t0\n2\t2001-02\t5e-05\n3\t2001-03\t2.5\n",
    }

    def test_text_files_match_literal_text(self, tmp_path):
        f = FactorSet([np.array(m) for m in self.FACTORS])
        out = write_component_reports(f, self.LABELS, tmp_path, top_n=2)
        texts = {p.name: p.read_text() for p in out.glob("*.txt")}
        assert texts == self.EXPECTED
        assert sorted(p.name for p in out.glob("*.json")) == ["component_000.json", "component_001.json"]
