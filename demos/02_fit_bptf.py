"""Fit the Bayesian Poisson model to a synthetic tensor and read the trace.

Samples a sparse tensor from the Gamma-Poisson generative model, runs the
coordinate-ascent variational fit, and compares the geometric and
arithmetic point estimates of the latent factors.
"""

import numpy as np

from countcp import (
    FitConfig,
    Hyperparameters,
    density,
    fit,
    point_estimate,
    reconstruct_entries,
    sample_count_tensor,
)

hyper = Hyperparameters(alpha=0.1, beta=(2.0, 2.0, 2.0, 2.0))
tensor, truth = sample_count_tensor((25, 25, 5, 30), k=5, hyper=hyper, seed=7)
print(f"synthetic tensor: shape {tensor.shape}, density {density(tensor):.4f}")

config = FitConfig(k=5, max_iterations=300, tolerance=1e-5, seed=0)
state, learned_hyper, trace = fit(tensor, config, hyper)
print(f"converged: {trace.converged} after {trace.n_iterations} sweeps")
print("first ELBO values:", [round(v, 1) for v in trace.values[:4]])
print("final ELBO:", round(trace.values[-1], 1))
print("ELBO never decreases:", bool(np.all(np.diff(trace.values) >= -1e-9)))
print("learned rate multipliers:", [round(b, 3) for b in learned_hyper.beta])

geo = point_estimate(state, "geometric")
ari = point_estimate(state, "arithmetic")
below = all(np.all(g <= a) for g, a in zip(geo.factors, ari.factors))
print("geometric factors never exceed arithmetic:", below)

# geometric estimates are sparser: most of their mass sits near zero
flat_geo = np.concatenate([m.ravel() for m in geo.factors])
flat_ari = np.concatenate([m.ravel() for m in ari.factors])
cut = 0.01
print(
    f"fraction of factors below {cut}: geometric "
    f"{np.mean(flat_geo < cut):.3f} vs arithmetic {np.mean(flat_ari < cut):.3f}"
)

observed = reconstruct_entries(geo, tensor.coords)
print(
    "mean reconstruction on stored entries:",
    round(float(observed.mean()), 3),
    "vs mean count",
    round(float(tensor.values.mean()), 3),
)
