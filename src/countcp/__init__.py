"""CP factorization toolkit for sparse count tensors.

Builds four-way (sender, receiver, action, time) count tensors from dyadic
event tables, factorizes them with Bayesian Poisson CP factorization or
multiplicative-update baselines, evaluates heldout prediction under the
strong-generalization protocol, and ranks inferred components by the
sparsity of their time profiles.
"""

from .bptf import (
    FitConfig,
    Hyperparameters,
    VariationalState,
    compute_elbo,
    fit,
    infer_heldout_time_factors,
    init_state,
    load_state,
    point_estimate,
    save_state,
    update_beta,
    update_delta,
    update_gamma,
)
from .components import (
    ComponentSummary,
    gini,
    rank_components,
    summarize,
    write_component_reports,
)
from .cp import (
    FactorSet,
    Trace,
    generalized_kl,
    load_factors,
    poisson_log_likelihood,
    reconstruct_entries,
    save_factors,
    total_recon_mass,
    write_trace,
)
from .errors import (
    ConfigError,
    CountCPError,
    DataError,
    DegenerateUpdateError,
    EmptyRegionError,
    EmptyTensorError,
    InadmissibleZeroError,
    IngestionError,
    LabelMismatchError,
    NumericalDegeneracyError,
    NumericalError,
    SpecValidationError,
    SplitError,
    UndefinedStatisticError,
)
from .evaluation import (
    EvalReport,
    ExperimentSpec,
    region_metrics,
    run_experiment,
    run_table,
    write_report_json,
    write_report_text,
)
from .masking import Region
from .ntf import (
    NtfConfig,
    fit_ntf,
    infer_heldout_time_factors_ntf,
    ntf_kl_sweep,
    ntf_ls_sweep,
    squared_error,
)
from .synth import expected_total_count, sample_count_tensor, sample_factors
from .tensors import (
    EventTable,
    SparseCountTensor,
    TimeSplit,
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

__version__ = "0.1.0"
