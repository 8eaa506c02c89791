"""The complexity contract in bytes: at a fixed number of stored entries, the
peak memory of a fit, of heldout inference, of scoring and of ingestion
does not grow with the number of cells.

Each test grows the cells 16x at 5,000 stored entries and K 4: along the
time mode (``BASE`` 40x40x5x20 to 40x40x5x320) and along the actor modes
(to 160x160x5x20), or, for ``ingest_events``, at 20,000 events over a 16x
wider date range.  The tracemalloc peak at the grown shape may be at most
``RATIO`` (1.25) times the base peak, plus, for the tensor paths, a float
per actor pair and per factor entry of the grown shape
(``allowed_growth``).  Measured on x86-64 with numpy 2.4, the grown peak
over the base peak read 1.01-1.03 for the fits, 1.01-1.08 for heldout
inference, 0.95 (time) and 1.88 (actors, the pair bounds over a 46 kB
base) for ``region_metrics``, and 1.05 for ``ingest_events``; no tensor
path's peak came above 0.85 of its bound.  A ``Region.restrict`` that
builds a boolean mask of the cells takes heldout inference to 1.75-1.97
of its bound and ``region_metrics`` to 5.8-10.
"""

import datetime as dt
import tracemalloc

import numpy as np
import pytest

from countcp import (
    EventTable,
    FactorSet,
    FitConfig,
    NtfConfig,
    Region,
    SparseCountTensor,
    fit,
    fit_ntf,
    infer_heldout_time_factors,
    infer_heldout_time_factors_ntf,
    ingest_events,
    region_metrics,
)

NNZ, K = 5_000, 4
BASE = (40, 40, 5, 20)
GROWN = {"time": (40, 40, 5, 320), "actors": (160, 160, 5, 20)}
RATIO = 1.25
SWEEPS = dict(max_iterations=3, tolerance=1e-15)


def tensor_with_nnz(shape, nnz=NNZ, seed=0):
    rng = np.random.default_rng(seed)
    flat = rng.choice(int(np.prod(shape)), size=nnz, replace=False)
    coords = np.stack(np.unravel_index(flat, shape), axis=1)
    return SparseCountTensor(shape, coords, rng.integers(1, 6, size=nnz),
                             [[str(i) for i in range(s)] for s in shape])


def peak_bytes(call) -> int:
    """The tracemalloc peak of ``call()`` above what was traced before it."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()


def allowed_growth(shape) -> int:
    """Bytes by which the contract lets a peak grow with ``shape``: one float
    per actor pair (HAM-Z's pair bounds) and one per factor entry."""
    return 8 * (shape[0] * shape[1] + K * sum(shape))


def heldout_region(shape) -> Region:
    """The top quarter actor block: the region a heldout test predicts."""
    top = range(shape[0] // 4)
    return Region(shape, top, top)


def fit_call(model):
    def setup(shape):
        t = tensor_with_nnz(shape)
        if model == "bptf":
            return lambda: fit(t, FitConfig(K, **SWEEPS))
        return lambda: fit_ntf(t, NtfConfig(K, **SWEEPS, cost=model[4:]))

    return setup


def heldout_call(family):
    """Inference over a test slice of the grown shape, observed outside the
    heldout block, from a model trained on 4 time steps."""

    def setup(shape):
        trained = tensor_with_nnz(shape[:-1] + (4,), seed=1)
        test, observed = tensor_with_nnz(shape, seed=2), heldout_region(shape).invert()
        if family == "bptf":
            config = FitConfig(K, **SWEEPS)
            state, hyper, _ = fit(trained, config)
            return lambda: infer_heldout_time_factors(state, hyper, test, observed, config)
        config = NtfConfig(K, **SWEEPS)
        factors, _ = fit_ntf(trained, config)
        return lambda: infer_heldout_time_factors_ntf(factors, test, observed, config)

    return setup


def small_factors(shape) -> FactorSet:
    """Factors whose every cell reconstructs below HAM-Z's threshold of 0.5,
    so no actor row survives the pair bounds."""
    return FactorSet([np.full((s, K), 0.01) for s in shape])


def metrics_call(shape):
    truth, region, f = tensor_with_nnz(shape, seed=2), heldout_region(shape), small_factors(shape)
    return lambda: region_metrics(f, truth, region)


PATHS = {
    "fit-bptf": fit_call("bptf"),
    "fit-ntf-kl": fit_call("ntf-kl"),
    "fit-ntf-ls": fit_call("ntf-ls"),
    "heldout-bptf": heldout_call("bptf"),
    "heldout-ntf": heldout_call("ntf"),
    "region-metrics": metrics_call,
}


@pytest.mark.parametrize("grow", sorted(GROWN))
@pytest.mark.parametrize("path", list(PATHS))
def test_peak_memory_does_not_grow_with_cells(path, grow):
    setup = PATHS[path]
    base, grown = peak_bytes(setup(BASE)), peak_bytes(setup(GROWN[grow]))
    assert grown <= RATIO * base + allowed_growth(GROWN[grow]), f"peak {base} -> {grown} bytes"


@pytest.mark.parametrize("grow", sorted(GROWN))
def test_region_metrics_reconstructs_only_the_surviving_row(grow):
    # One actor row survives HAM-Z's pair bounds; its reconstruction may
    # cost the cells of that row, its row of the tail (modes 2.. as a
    # Khatri-Rao product) and their copies, never the region's cells.
    shape = GROWN[grow]
    truth, region = tensor_with_nnz(shape, seed=2), heldout_region(shape)
    mats = [np.full((s, K), 0.01) for s in shape]
    mats[0][0] = 1e9
    alive, dead = FactorSet(mats), small_factors(shape)
    none = peak_bytes(lambda: region_metrics(dead, truth, region))
    one = peak_bytes(lambda: region_metrics(alive, truth, region))
    assert region_metrics(alive, truth, region)["ham_z"] > 0
    tail_cells = int(np.prod(shape[2:]))
    row_cells = region.cols.size * tail_cells
    assert one - none <= 4 * 8 * (row_cells + tail_cells * K)


def test_ingest_peak_does_not_grow_with_the_date_range():
    rng = np.random.default_rng(3)
    start = dt.date(2001, 1, 1)

    def setup(days):
        records = [
            (f"a{rng.integers(40)}", f"a{rng.integers(40)}", f"x{rng.integers(5)}",
             dt.datetime(2001, 1, 1, 12) + dt.timedelta(days=int(rng.integers(days))))
            for _ in range(20_000)
        ]
        table = EventTable.from_records(records)
        date_range = (start, start + dt.timedelta(days=days - 1))
        return lambda: ingest_events(table, "day", date_range)

    base, grown = peak_bytes(setup(64)), peak_bytes(setup(1024))
    assert grown / base <= RATIO, f"peak {base} -> {grown} bytes"
