"""Strong-generalization heldout evaluation on synthetic data.

Splits the time steps, fits every model on the training slices, infers
time factors for the test slices from the sparse observed complement, and
predicts the dense upper-left actor block.  Prints the per-model table
row that the evaluation harness writes to its report files.
"""

import time

from countcp import (
    ExperimentSpec,
    Hyperparameters,
    run_table,
    sample_count_tensor,
)

hyper = Hyperparameters(alpha=0.1, beta=(2.0,) * 4)
tensor, _ = sample_count_tensor((30, 30, 5, 40), k=5, hyper=hyper, seed=42)

spec = ExperimentSpec(
    n_prime=10,               # upper-left 10 x 10 actor block
    predict_complement=False,  # predict the dense block, observe the rest
    test_fraction=0.2,
    seeds=(0, 1, 2),
    k=10,
    models=("ntf-ls", "ntf-kl", "bptf-geo", "bptf-ari"),
    alpha=0.1,
    max_iterations=150,
    tolerance=1e-5,
)

start = time.perf_counter()
report = run_table(spec, {spec.source: tensor}, [spec.n_prime], ("block",))
elapsed = time.perf_counter() - start

scenario = report.scenarios[0]
print(f"scenario {scenario.label}: heldout density {scenario.density:.4f}, "
      f"VMR {scenario.vmr:.1f} ({elapsed:.1f}s)")
print(f"{'model':10s} {'MAE':>8s} {'MAE-NZ':>8s} {'HAM-Z':>8s}")
for model in spec.models:
    scores = scenario.models[model]
    print(f"{model:10s} {scores['mae']:8.4f} {scores['mae_nz']:8.3f} "
          f"{scores['ham_z']:8.4f}")

geo = scenario.models["bptf-geo"]
kl = scenario.models["ntf-kl"]
ls = scenario.models["ntf-ls"]
print("\nBayesian fit predicts the dense block best:",
      geo["mae"] <= kl["mae"] <= ls["mae"])
