"""Rank inferred components by time-factor sparsity and summarize the top one.

A component whose time factors concentrate on a few steps marks a
temporally localized burst of activity.  This demo plants one such burst
in otherwise steady synthetic data, fits the Bayesian model, and shows
that Gini-coefficient ranking surfaces the planted anomaly first.
"""

import numpy as np

from countcp import (
    FitConfig,
    Hyperparameters,
    SparseCountTensor,
    fit,
    gini,
    point_estimate,
    rank_components,
    summarize,
)

rng = np.random.default_rng(1)
n, actions, steps = 20, 4, 30
labels = [
    [f"country_{i:02d}" for i in range(n)],
    [f"country_{i:02d}" for i in range(n)],
    ["Consult", "Aid", "Threaten", "Fight"],
    [f"2011-w{w:02d}" for w in range(steps)],
]

# steady background chatter plus a three-week burst among three actors
cells = {}
for _ in range(2500):
    i, j = rng.integers(0, n, size=2)
    if i == j:
        continue
    coord = (i, j, int(rng.integers(0, 2)), int(rng.integers(0, steps)))
    cells[coord] = cells.get(coord, 0) + 1
burst_actors = (3, 7, 11)
for week in (14, 15, 16):
    for i in burst_actors:
        for j in burst_actors:
            if i == j:
                continue
            coord = (i, j, 3, week)  # Fight
            cells[coord] = cells.get(coord, 0) + int(rng.integers(8, 15))

tensor = SparseCountTensor.from_entries(
    (n, n, actions, steps), list(cells.items()), labels
)

state, _, _ = fit(
    tensor,
    FitConfig(k=6, max_iterations=150, tolerance=1e-6, seed=0),
    Hyperparameters.default(4, alpha=0.1),
)
factors = point_estimate(state, "geometric")

order = rank_components(factors)
ginis = [float(gini(factors.factors[3][:, k])) for k in range(factors.k)]
print("components by time-factor gini:",
      [(k, round(ginis[k], 3)) for k in order])

top = summarize(factors, labels, order[0], top_n=4)
print(f"\nmost anomalous component: {top.component} (gini {top.gini:.3f})")
for panel in ("sender", "receiver", "action"):
    print(f"  top {panel}s:", [(lab, round(v, 2)) for lab, v in top.top[panel]])
peak = int(np.argmax(top.time_values))
print("  peak time step:", top.time_labels[peak])
print("  planted burst was country_03/07/11, Fight, weeks 14-16")
