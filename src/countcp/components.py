"""Component summaries and sparsity-based anomaly ranking.

A component is the k-th column of every factor matrix read jointly.  Components
whose time factors concentrate on a few steps mark anomalous bursts; ranking
by the Gini coefficient of the time column surfaces them first.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .cp import FactorSet
from .errors import ConfigError, CountCPError, UndefinedStatisticError

MODE_PANELS = ("sender", "receiver", "action")


def gini(v) -> float:
    """Gini coefficient of a non-negative vector.

    Defined as the mean absolute pairwise difference over twice the mean,
    with the population (divide by n^2) convention; computed via the
    sorted cumulative-sum identity in O(n log n).  A uniform vector gives
    exactly 0 and a one-hot vector of length n exactly (n - 1) / n.
    Returns NaN for an all-zero vector.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 1 or v.size < 2:
        raise ValueError("gini needs a 1-D vector of length >= 2")
    if np.any(v < 0):
        raise ValueError("gini is undefined for negative values")
    total = v.sum()
    if total == 0.0:
        return float("nan")
    n = v.size
    ranked = np.sort(v)
    weighted = float(np.dot(np.arange(1, n + 1, dtype=np.float64), ranked))
    # rounding can push a near-uniform vector a few ulp below zero
    return max(0.0, (2.0 * weighted - (n + 1) * total) / (n * total))


def rank_components(f: FactorSet) -> list[int]:
    """Component indices by descending Gini of their time (last-mode) columns.

    Ties (and all-zero columns, which score 0) break by component index.
    Fewer than two time steps give no Gini: UndefinedStatisticError.
    """
    time = f.factors[-1]
    if time.shape[0] < 2:
        raise UndefinedStatisticError(
            f"ranking components by time-factor gini needs at least 2 time steps, "
            f"got {time.shape[0]}"
        )
    scores = np.zeros(f.k)
    for k in range(f.k):
        value = gini(time[:, k])
        scores[k] = 0.0 if np.isnan(value) else value
    order = np.argsort(-scores, kind="stable")
    return [int(k) for k in order]


@dataclass(frozen=True)
class ComponentSummary:
    """Top factors per mode plus the full time profile of one component."""

    component: int
    gini: float
    top: dict            # panel name -> list of (label, value), descending
    time_labels: list
    time_values: np.ndarray


def summarize(f: FactorSet, mode_labels, k: int, top_n: int = 10) -> ComponentSummary:
    """Extract the top-n labeled factors per non-time mode and the full
    chronological time (last-mode) vector for component ``k``."""
    if not 0 <= k < f.k:
        raise ValueError(f"component {k} out of range for K={f.k}")
    if top_n < 0:
        raise ConfigError(f"top_n must be non-negative, got {top_n}")
    top = {}
    for m in range(f.ndim - 1):
        column = f.factors[m][:, k]
        order = np.argsort(-column, kind="stable")[:top_n]
        panel = MODE_PANELS[m] if m < len(MODE_PANELS) else f"mode{m}"
        top[panel] = [(mode_labels[m][i], float(column[i])) for i in order]
    time_column = f.factors[-1][:, k]
    score = gini(time_column)
    return ComponentSummary(
        component=k,
        gini=0.0 if np.isnan(score) else float(score),
        top=top,
        time_labels=list(mode_labels[-1]),
        time_values=time_column.copy(),
    )


# ---------------------------------------------------------------------------
# Report files
# ---------------------------------------------------------------------------


def _write_lines(path: Path, lines) -> None:
    path.write_text("\n".join(lines) + "\n")


def write_component_reports(
    f: FactorSet, mode_labels, directory, top_n: int = 10
) -> Path:
    """One plain-text and one JSON report per component, plot-ready panel
    tables (rank, label, value), and a gini-ranked index file.

    Each section of a component, its top-n panels then ``time``, adds its
    lines to the text report, its entry to the JSON report (values to the
    4 significant digits the text shows) and writes its own table.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    if mode_labels is None:
        raise CountCPError("component reports need mode labels")
    index_lines = ["rank\tcomponent\tgini"]
    for rank, k in enumerate(rank_components(f), start=1):
        summary = summarize(f, mode_labels, k, top_n=top_n)
        stem, gini_text = f"component_{k:03d}", f"{summary.gini:.4g}"
        index_lines.append(f"{rank}\t{k}\t{gini_text}")
        lines = [f"component {k}", f"time-factor gini {gini_text}"]
        payload = {"component": k, "gini": float(gini_text), "top": {}}
        # (heading, name, the JSON object that holds the section, (label, value) rows)
        sections = [(f"top {p} factors:", p, payload["top"], r) for p, r in summary.top.items()]
        time_rows = list(zip(summary.time_labels, summary.time_values))
        sections.append(("time profile:", "time", payload, time_rows))
        for heading, name, holder, rows in sections:
            shown = [(label, f"{value:.4g}") for label, value in rows]
            lines += ["", heading, *(f"  {label}\t{text}" for label, text in shown)]
            holder[name] = [[label, float(text)] for label, text in shown]
            table = [f"{i}\t{label}\t{value:.6g}" for i, (label, value) in enumerate(rows, 1)]
            _write_lines(directory / f"{stem}_{name}.txt", ["rank\tlabel\tvalue", *table])
        _write_lines(directory / f"{stem}.txt", lines)
        (directory / f"{stem}.json").write_text(json.dumps(payload, indent=2) + "\n")
    _write_lines(directory / "index.txt", index_lines)
    return directory
