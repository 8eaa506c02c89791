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


def rank_components(f: FactorSet, time_mode: int | None = None) -> list[int]:
    """Component indices by descending Gini of their time columns.

    Ties (and all-zero columns, which score 0) break by component index.
    Fewer than two time steps give no Gini: UndefinedStatisticError.
    """
    if time_mode is None:
        time_mode = f.ndim - 1
    if not 0 <= time_mode < f.ndim:
        raise ValueError(f"invalid time mode {time_mode}")
    if f.shape[time_mode] < 2:
        raise UndefinedStatisticError(
            f"ranking components by time-factor gini needs at least 2 time steps, "
            f"got {f.shape[time_mode]}"
        )
    scores = np.zeros(f.k)
    for k in range(f.k):
        value = gini(f.factors[time_mode][:, k])
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


def summarize(
    f: FactorSet, mode_labels, k: int, top_n: int = 10, time_mode: int | None = None
) -> ComponentSummary:
    """Extract the top-n labeled factors per non-time mode and the full
    chronological time vector for component ``k``."""
    if not 0 <= k < f.k:
        raise ValueError(f"component {k} out of range for K={f.k}")
    if top_n < 0:
        raise ConfigError(f"top_n must be non-negative, got {top_n}")
    if time_mode is None:
        time_mode = f.ndim - 1
    top = {}
    for m in range(f.ndim):
        if m == time_mode:
            continue
        column = f.factors[m][:, k]
        n = min(top_n, column.size)
        order = np.argsort(-column, kind="stable")[:n]
        panel = MODE_PANELS[m] if m < len(MODE_PANELS) else f"mode{m}"
        top[panel] = [(mode_labels[m][i], float(column[i])) for i in order]
    time_column = f.factors[time_mode][:, k]
    score = gini(time_column)
    return ComponentSummary(
        component=k,
        gini=0.0 if np.isnan(score) else float(score),
        top=top,
        time_labels=list(mode_labels[time_mode]),
        time_values=time_column.copy(),
    )


# ---------------------------------------------------------------------------
# Report files
# ---------------------------------------------------------------------------


def _sig4(value: float) -> float:
    """Round to the 4 significant digits the report files carry."""
    return float(f"{value:.4g}")


def _format_summary(summary: ComponentSummary) -> str:
    lines = [
        f"component {summary.component}",
        f"time-factor gini {summary.gini:.4g}",
    ]
    for panel, pairs in summary.top.items():
        lines.append("")
        lines.append(f"top {panel} factors:")
        for label, value in pairs:
            lines.append(f"  {label}\t{value:.4g}")
    lines.append("")
    lines.append("time profile:")
    for label, value in zip(summary.time_labels, summary.time_values):
        lines.append(f"  {label}\t{value:.4g}")
    return "\n".join(lines) + "\n"


def write_component_reports(
    f: FactorSet, mode_labels, directory, top_n: int = 10
) -> Path:
    """One plain-text and one JSON report per component, plot-ready panel
    tables (rank, label, value), and a gini-ranked index file."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    if mode_labels is None:
        raise CountCPError("component reports need mode labels")
    order = rank_components(f)
    index_lines = ["rank\tcomponent\tgini"]
    for rank, k in enumerate(order, start=1):
        summary = summarize(f, mode_labels, k, top_n=top_n)
        index_lines.append(f"{rank}\t{k}\t{summary.gini:.4g}")
        stem = f"component_{k:03d}"
        (directory / f"{stem}.txt").write_text(_format_summary(summary))
        payload = {
            "component": summary.component,
            "gini": _sig4(summary.gini),
            "top": {p: [[lab, _sig4(val)] for lab, val in rows] for p, rows in summary.top.items()},
            "time": [[lab, _sig4(val)] for lab, val in zip(summary.time_labels, summary.time_values)],
        }
        (directory / f"{stem}.json").write_text(json.dumps(payload, indent=2) + "\n")
        for panel, rows in summary.top.items():
            lines = ["rank\tlabel\tvalue"]
            lines += [f"{i}\t{lab}\t{val:.6g}" for i, (lab, val) in enumerate(rows, 1)]
            (directory / f"{stem}_{panel}.txt").write_text("\n".join(lines) + "\n")
        lines = ["rank\tlabel\tvalue"]
        lines += [
            f"{i}\t{lab}\t{val:.6g}"
            for i, (lab, val) in enumerate(zip(summary.time_labels, summary.time_values), 1)
        ]
        (directory / f"{stem}_time.txt").write_text("\n".join(lines) + "\n")
    (directory / "index.txt").write_text("\n".join(index_lines) + "\n")
    return directory
