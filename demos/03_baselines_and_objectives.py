"""Multiplicative-update baselines and the two equivalent objectives.

Fits the generalized-KL and Euclidean baselines, shows that minimizing the
generalized KL divergence is the same problem as maximizing the Poisson
log likelihood, and demonstrates the inadmissible-zero pathology that the
epsilon floor exists to prevent.
"""

import numpy as np

from countcp import (
    FactorSet,
    Hyperparameters,
    NtfConfig,
    SparseCountTensor,
    fit_ntf,
    generalized_kl,
    poisson_log_likelihood,
    sample_count_tensor,
    squared_error,
)

hyper = Hyperparameters(alpha=0.1, beta=(2.0,) * 4)
tensor, _ = sample_count_tensor((20, 20, 4, 20), k=4, hyper=hyper, seed=3)

for cost in ("kl", "ls"):
    config = NtfConfig(k=4, max_iterations=150, seed=0, cost=cost)
    factors, trace = fit_ntf(tensor, config)
    objective = generalized_kl if cost == "kl" else squared_error
    monotone = bool(np.all(np.diff(trace.values) <= 1e-9))
    print(
        f"ntf-{cost}: {trace.n_iterations} sweeps, objective "
        f"{trace.values[0]:.1f} -> {trace.values[-1]:.1f}, non-increasing: {monotone}"
    )

# the two objectives rank any pair of factor sets identically
rng = np.random.default_rng(0)
f1 = FactorSet([rng.uniform(0.1, 2.0, size=(s, 3)) for s in tensor.shape])
f2 = FactorSet([rng.uniform(0.1, 2.0, size=(s, 3)) for s in tensor.shape])
kl_diff = generalized_kl(tensor, f1) - generalized_kl(tensor, f2)
ll_diff = poisson_log_likelihood(f2, tensor) - poisson_log_likelihood(f1, tensor)
print(f"KL difference {kl_diff:.6f} equals negated likelihood difference {ll_diff:.6f}")

# a factor row that never touches a stored entry is multiplied by zero;
# with a hard zero floor the multiplicative update can never revive it
toy = SparseCountTensor.from_entries((3, 2, 1, 1), [((0, 0, 0, 0), 5)])
dead, _ = fit_ntf(toy, NtfConfig(k=2, max_iterations=1, epsilon_floor=0.0))
print("rows driven to exact zero with floor 0:", int((dead.factors[0] == 0).sum()))
dead_again, _ = fit_ntf(toy, NtfConfig(k=2, max_iterations=2, epsilon_floor=0.0))
print("still zero after another sweep:", int((dead_again.factors[0] == 0).sum()))
floored, _ = fit_ntf(toy, NtfConfig(k=2, max_iterations=1, epsilon_floor=1e-12))
print("with the default floor they bottom out at:", floored.factors[0].min())
