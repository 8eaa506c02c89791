"""The row-shifted allocation kernel (``cp._count_shares``) against the
per-entry-maximum kernel it replaced (``conftest.oracle_count_shares``),
and its depth guard and scaled scatter against the floored kernel they
replaced (``conftest.oracle_floored_count_shares``), bit for bit.

The two differ only in rounding and in the parts floored under the row
shift but not under the exact maximum.  So each entry's log mass, and each
count's share, must agree within

    tol_e = 8 * M * eps * (S_e + 1) + K * exp(-700) / 1e-250,

where S_e sums the largest finite |log factor| of each of the entry's M
rows: the first term bounds the rounding of M shifted sums, the second the
floored parts' share of a total that was not redone.  Entries with no mass
or a non-finite log factor must be reported at the same first coordinate.
"""

import re
from contextlib import contextmanager, nullcontext
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from scipy.sparse import csr_array

from countcp import (
    FactorSet,
    FitConfig,
    Hyperparameters,
    InadmissibleZeroError,
    NtfConfig,
    SparseCountTensor,
    fit,
    fit_ntf,
    generalized_kl,
)
from countcp import cp, ntf, synth
from conftest import (
    allocate,
    fresh_kl_step,
    ntf_step,
    oracle_count_shares,
    oracle_floored_count_shares,
    oracle_ls_numerator,
    random_factors,
    random_tensor,
)

EPS = np.finfo(np.float64).eps


def floored_share(k):
    return k * cp._FLOOR_WEIGHT / cp._RESCUE_TOTAL


def entry_tolerance(logs, t):
    """``tol_e`` of every stored entry of ``t``."""
    scale = np.ones(t.nnz)
    for m, log in enumerate(logs):
        finite = np.where(np.isfinite(log), np.abs(log), 0.0)
        scale += finite.max(axis=1)[t.coords[:, m]]
    return 8 * len(logs) * EPS * scale + floored_share(logs[0].shape[1])


def first_bad(t, log_mass):
    bad = ~np.isfinite(log_mass)
    return tuple(int(c) for c in t.coords[np.argmax(bad)]) if bad.any() else None


def assert_kernel_matches_oracle(logs, t, mode):
    """Same first bad coordinate; else log mass and allocation within tol_e."""
    with np.errstate(invalid="ignore"):
        want_mass, want = oracle_count_shares(logs, t, mode)
    got_mass, got = cp._count_shares(logs, t, mode)
    assert first_bad(t, got_mass) == first_bad(t, want_mass)
    if first_bad(t, want_mass) is not None:
        return
    tol = entry_tolerance(logs, t)
    assert np.all(np.abs(got_mass - want_mass) <= tol)
    # a share moves by at most tol_e of its entry's count
    row_tol = np.zeros(t.shape[mode])
    np.add.at(row_tol, t.coords[:, mode], tol * t.values)
    assert np.all(np.abs(got - want) <= row_tol[:, None])


def block_cells(step, k):
    """Blocks of ``step`` entries at ``k`` components, or the default blocks."""
    return nullcontext() if step is None else mock.patch.object(cp, "_BLOCK_CELLS", step * k)


def poison(logs, kind, rng):
    """Write non-finite log factors of ``kind`` (None for none) into ``logs``."""
    m = rng.integers(len(logs))
    row, k = rng.integers(logs[m].shape[0]), logs[m].shape[1]
    if kind == "-inf cells":
        for log in logs:
            log[rng.random(log.shape) < 0.3] = -np.inf
    elif kind == "-inf row":
        logs[m][row] = -np.inf
    elif kind == "nan":
        logs[m][row, rng.integers(k)] = np.nan
    elif kind == "+inf":
        logs[m][row, rng.integers(k)] = np.inf


@st.composite
def kernel_cases(draw):
    shape = tuple(draw(st.lists(st.integers(1, 5), min_size=2, max_size=5)))
    return dict(
        shape=shape,
        nnz=draw(st.integers(1, int(np.prod(shape)))),
        k=draw(st.sampled_from([1, 2, 3, 6, 50])),
        spread=draw(st.sampled_from([1.0, 30.0, 300.0, 3000.0])),
        poison=draw(st.sampled_from([None, "-inf cells", "-inf row", "nan", "+inf"])),
        mode=draw(st.integers(0, len(shape) - 1)),
        step=draw(st.sampled_from([None, 1, 3, 7])),
        seed=draw(st.integers(0, 2**16)),
    )


class TestAgainstOracle:
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(case=kernel_cases())
    def test_drawn_tables(self, case):
        rng = np.random.default_rng(case["seed"])
        t = random_tensor(case["shape"], rng, nnz=case["nnz"])
        k = case["k"]
        logs = [rng.normal(scale=case["spread"], size=(s, k)) for s in case["shape"]]
        poison(logs, case["poison"], rng)
        with block_cells(case["step"], k):
            assert_kernel_matches_oracle(logs, t, case["mode"])

    def test_wide_tables_take_the_rescue(self, rng, monkeypatch):
        shape = (6, 5, 4, 7)
        t = random_tensor(shape, rng, nnz=120)
        logs = [rng.normal(scale=300.0, size=(s, 6)) for s in shape]
        assert_kernel_matches_oracle(logs, t, 2)
        monkeypatch.setattr(cp, "_RESCUE_TOTAL", 0.0)
        with np.errstate(divide="ignore"):
            log_mass, _ = cp._count_shares(logs, t)
        assert not np.all(np.isfinite(log_mass))  # some entries need the rescue


def two_mode_tensor(count=3):
    return SparseCountTensor.from_entries((1, 1), [((0, 0), count)])


class TestRescue:
    """Each mode's maximum sits on another component, so every summed part
    lies far below the entry's shift, the sum of the row maxima."""

    @pytest.mark.parametrize("logs, log_mass", [
        ([[[0.0, -600.0]], [[-600.0, 0.0]]], -600.0 + np.log(2.0)),
        ([[[0.0, -800.0]], [[-800.0, 0.0]]], -800.0 + np.log(2.0)),
        ([[[0.0, -400.0, -900.0]], [[-900.0, -400.0, 0.0]]],
         -800.0 + np.log1p(2 * np.exp(-100.0))),
    ])
    def test_matches_the_oracle(self, logs, log_mass):
        logs = [np.array(log) for log in logs]
        t = two_mode_tensor()
        assert_kernel_matches_oracle(logs, t, 0)
        got_mass, got = cp._count_shares(logs, t, 1)
        assert got_mass[0] == pytest.approx(log_mass, rel=1e-15)
        weights = np.exp(logs[0][0] + logs[1][0] - log_mass)
        np.testing.assert_allclose(got[0], 3 * weights, rtol=1e-13, atol=0)

    def test_without_it_the_entry_has_no_mass(self, monkeypatch):
        logs = [np.array([[0.0, -800.0]]), np.array([[-800.0, 0.0]])]
        monkeypatch.setattr(cp, "_RESCUE_TOTAL", 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            assert allocate(logs, two_mode_tensor(), 0, np.zeros((1, 2))) == (0, 0)


class TestBadEntries:
    """A table row whose maximum is not finite, or an entry whose summed
    parts are all -inf, is reported at the oracle's first coordinate, and
    the allocation is left untouched."""

    @pytest.fixture
    def tensor(self, rng, monkeypatch):
        monkeypatch.setattr(cp, "_BLOCK_CELLS", 7 * 3)  # blocks of 7 entries
        return random_tensor((5, 6, 3, 8), rng, nnz=150)

    @pytest.mark.parametrize("poison", ["-inf row", "nan", "+inf"])
    def test_non_finite_row_maximum(self, rng, tensor, poison):
        logs = [rng.normal(size=(s, 3)) for s in tensor.shape]
        logs[3][5] = {"-inf row": -np.inf, "nan": [0.0, np.nan, 1.0], "+inf": [0.0, 1.0, np.inf]}[poison]
        with np.errstate(invalid="ignore"):
            want_mass, _ = oracle_count_shares(logs, tensor)
        want = first_bad(tensor, want_mass)
        assert want is not None and want[3] == 5
        assert want != tuple(tensor.coords[0])  # not in the first block
        for mode in range(4):
            out = rng.uniform(size=(tensor.shape[mode], 3))
            before = out.copy()
            assert allocate(logs, tensor, mode, out) == want
            assert np.array_equal(out, before)

    def test_zero_ntf_factor_column(self, rng, tensor):
        mats = [m.copy() for m in random_factors(tensor.shape, 3, rng).factors]
        mats[1][:, 0] = 0.0  # a dead component
        mats[2][1, 1:] = 0.0  # and action 1 loads only on it
        f = FactorSet(mats)
        with np.errstate(divide="ignore"):
            want_mass, _ = oracle_count_shares([np.log(m) for m in mats], tensor)
        want = first_bad(tensor, want_mass)
        assert want is not None and want[2] == 1
        for mode in range(4):
            with pytest.raises(InadmissibleZeroError, match=re.escape(f"at entry {want}")):
                ntf_step(fresh_kl_step, f, tensor, mode, epsilon_floor=0.0)
        assert generalized_kl(tensor, f) == np.inf


# ---------------------------------------------------------------------------
# The depth guard and the scaled scatter change no bit
# ---------------------------------------------------------------------------


@contextmanager
def shallow_flags():
    """A list that, once the block ends, holds whether each block weighed
    inside it (rescue redos aside) skipped the floor; checks that every
    redo kept it."""
    flags = []
    with mock.patch.object(cp, "_weights", wraps=cp._weights) as spy:
        yield flags
    for call in spy.call_args_list:
        parts, out, *shallow = call.args
        if parts is out:  # a rescue redo
            assert shallow == []
        else:
            flags.append(shallow == [True])


def assert_bits_match_floored_kernel(logs, t, mode, frozen=None):
    """``cp._count_shares`` gives the floored kernel's log mass and
    allocation bit for bit; returns whether it skipped the floor, which it
    does for all of a pass's blocks or none."""
    with np.errstate(invalid="ignore", divide="ignore"):
        want_mass, want = oracle_floored_count_shares(logs, t, mode, frozen)
        with shallow_flags() as flags:
            got_mass, got = cp._count_shares(logs, t, mode, frozen)
    assert np.array_equal(got_mass, want_mass, equal_nan=True)
    assert (got is None) == (want is None)
    if want is not None:
        assert np.array_equal(got, want, equal_nan=True)
    assert len(set(flags)) == 1
    return flags[0]


def depth_tables(rng, shape, k, depth, rotate):
    """Log tables whose shifted entries reach about ``depth / M`` in every
    mode, each row offset by a random shift.

    Each row holds a 0 and a ``depth / M``; the rest lie between.  Aligned,
    every row has them on components 0 and 1, so every entry has a part at
    about ``depth``; rotated, row i of mode m has its 0 on component
    (i + m) % k, so entries whose rows disagree have no part near 0, and
    deep tables need the rescue."""
    logs = []
    for m, size in enumerate(shape):
        log = rng.uniform(depth / len(shape), 0.0, size=(size, k))
        for i in range(size):
            top = (i + m) % k if rotate else 0
            log[i, top], log[i, (top + 1) % k] = 0.0, depth / len(shape)
        logs.append(log + rng.normal(size=(size, 1)))
    return logs


@st.composite
def depth_cases(draw):
    shape = tuple(draw(st.lists(st.integers(1, 5), min_size=3, max_size=5)))
    return dict(
        shape=shape,
        nnz=draw(st.integers(1, int(np.prod(shape)))),
        k=draw(st.sampled_from([1, 6, 50])),
        depth=draw(st.sampled_from([-30.0, -600.0, -659.5, -660.5, -690.0, -700.0, -710.0,
                                    -2000.0, -5000.0])),
        rotate=draw(st.booleans()),
        poison=draw(st.sampled_from([None, None, "-inf cells", "-inf row", "nan", "+inf"])),
        frozen=draw(st.booleans()),
        mode=draw(st.integers(0, len(shape) - 1)),
        step=draw(st.sampled_from([None, 1, 3, 7])),
        seed=draw(st.integers(0, 2**16)),
    )


class TestBitIdentical:
    @settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(case=depth_cases())
    def test_drawn_tables(self, case):
        rng = np.random.default_rng(case["seed"])
        shape, k, depth = case["shape"], case["k"], case["depth"]
        t = random_tensor(shape, rng, nnz=case["nnz"])
        logs = depth_tables(rng, shape, k, depth, case["rotate"])
        poison(logs, case["poison"], rng)
        frozen, mode = None, case["mode"]
        if case["frozen"]:
            with np.errstate(invalid="ignore"):
                frozen = cp._FrozenModes(t, logs=logs[:-1])
            mode = len(shape) - 1
        with block_cells(case["step"], k):
            shallow = assert_bits_match_floored_kernel(logs, t, mode, frozen)
        if not all(np.all(np.isfinite(log)) for log in logs):
            if frozen is None:
                assert not shallow  # a nan or -inf bound keeps the floor
        elif k == 1 or depth >= cp._SHALLOW:
            assert shallow
        elif frozen is None:
            assert not shallow  # every mode's table reaches its depth

    @pytest.mark.parametrize("frozen", [False, True])
    @pytest.mark.parametrize("logs", [
        [[[0.0, -600.0]], [[-600.0, 0.0]]],
        [[[0.0, -800.0]], [[-800.0, 0.0]]],
        [[[0.0, -400.0, -900.0]], [[-900.0, -400.0, 0.0]]],
    ])
    def test_rescued_entries(self, logs, frozen):
        logs = [np.array(log) for log in logs]
        t = two_mode_tensor()
        kept = cp._FrozenModes(t, logs=logs[:-1]) if frozen else None
        assert np.exp(logs[0][0] + logs[1][0]).sum() < cp._RESCUE_TOTAL  # rows are shifted
        assert_bits_match_floored_kernel(logs, t, 1, kept)

    @pytest.mark.parametrize("frozen", [False, True])
    def test_depth_straddling_the_guard(self, rng, frozen):
        t = random_tensor((4, 5, 3, 6), rng, nnz=90)
        for depth in np.linspace(cp._SHALLOW - 2.0, cp._SHALLOW + 2.0, 41):
            logs = depth_tables(rng, t.shape, 6, depth, rotate=False)
            kept = cp._FrozenModes(t, logs=logs[:-1]) if frozen else None
            shallow = assert_bits_match_floored_kernel(logs, t, 3 if frozen else 2, kept)
            lowest = cp._lowest_sum(cp._row_shifted(np.concatenate(logs))[0], t.shape)
            assert shallow == (lowest >= cp._SHALLOW)
            assert abs(lowest - depth) < 1e-9

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(case=depth_cases())
    def test_ls_numerator(self, case):
        rng = np.random.default_rng(case["seed"])
        shape, k = case["shape"], case["k"]
        t = random_tensor(shape, rng, nnz=case["nnz"], max_count=10**6)
        mats = random_factors(shape, k, rng).factors
        frozen, mode = None, case["mode"]
        if case["frozen"]:
            frozen, mode = cp._FrozenModes(t, mats[:-1]), len(shape) - 1
        with block_cells(case["step"], k):
            got = ntf._ls_numerator(t, mats, mode, frozen)
            want = oracle_ls_numerator(t, mats, mode, frozen)
        assert np.array_equal(got, want)

    def test_scatter_leaves_the_cached_plan_alone(self, rng):
        t = random_tensor((4, 5, 3, 6), rng, nnz=90)
        logs = [rng.normal(size=(s, 6)) for s in t.shape]
        plan = t._block_incidence(cp._block_step(6), 1)
        cp._count_shares(logs, t, 1)
        assert all(np.array_equal(block.data, np.ones(block.shape[1])) for block in plan)

    def test_incidence_is_the_transposed_csr_plan(self, rng):
        t = random_tensor((4, 5, 3, 6), rng, nnz=90)
        for mode in range(t.ndim):
            for rows, got in zip(t._block_rows(7), t._block_incidence(7, mode)):
                n = rows.stop - rows.start
                want = csr_array((np.ones(n), t.coords[rows, mode], np.arange(n + 1)),
                                 (n, t.shape[mode])).T
                assert got.format == want.format == "csc" and got.shape == want.shape
                for name in ("data", "indices", "indptr"):
                    assert np.array_equal(getattr(got, name), getattr(want, name))


class TestWeightPaths:
    def test_the_floor_changes_no_bit_above_the_guard(self):
        x = np.linspace(cp._SHALLOW, 0.0, 2_000_001)
        assert np.array_equal(np.exp(x) - cp._FLOOR_WEIGHT, np.exp(x))
        floored = cp._weights(x, np.empty_like(x))
        assert np.array_equal(cp._weights(x, np.empty_like(x), shallow=True), floored)

    def test_a_bench_shaped_k50_fit_never_floors(self):
        hyper = Hyperparameters.default(4, alpha=100.0, beta=4.9)
        t, _ = synth.sample_count_tensor((100, 100, 10, 15), 20, hyper, seed=0)
        assert t.nnz > 50_000
        with shallow_flags() as flags:
            fit(t, FitConfig(k=50, max_iterations=2, tolerance=1e-15))
            fit_ntf(t, NtfConfig(k=50, max_iterations=2, tolerance=1e-15))
        assert flags and all(flags)

    def test_the_small_alpha_fit_floors(self):
        t, _ = synth.sample_count_tensor((20, 20, 5, 30), 5, Hyperparameters.default(4, 0.1), 0)
        config = FitConfig(k=10, max_iterations=3, tolerance=1e-15)
        with shallow_flags() as flags:
            fit(t, config, Hyperparameters.default(4, 1e-3))
        assert not all(flags)


# ---------------------------------------------------------------------------
# Row sums by column adds are numpy's own row sums
# ---------------------------------------------------------------------------


def row_sum_table(k, rng):
    """1,003 rows (not a multiple of 8) of ``k`` terms spread over 1e+-8, with
    zeros, -0.0 and subnormals strewn in, and rows of zeros, of -0.0, and
    with inf, -inf and nan.  No row mixes nan payloads: which of two nan
    operands an add returns is left open by IEEE 754, and by numpy."""
    x = rng.normal(size=(1003, k)) * 10.0 ** rng.uniform(-8, 8, size=(1003, k))
    x[rng.random(x.shape) < 0.1] = 0.0
    x[rng.random(x.shape) < 0.1] = -0.0
    x[rng.random(x.shape) < 0.05] = 5e-324
    x[0], x[1] = 0.0, -0.0
    x[2] = rng.choice([0.0, -0.0, 5e-324, -5e-324], size=k)
    x[3, ::2] = np.inf
    x[4, 1::2] = -np.inf
    x[5, ::2], x[5, 1::2] = np.inf, -np.inf  # inf - inf makes the nan
    x[6, k // 2] = np.nan
    x[7:20][rng.random((13, k)) < 0.3] = np.nan
    return x


class TestRowSums:
    @pytest.mark.parametrize("k", range(1, cp._ROW_SUM_COLUMNS + 2))
    def test_bits_of_numpys_row_sums(self, rng, k):
        for x in (row_sum_table(k, rng), np.empty((0, k))):
            with np.errstate(invalid="ignore"):
                got, want = cp._row_sums(x), x.sum(axis=1)
            assert np.array_equal(got.view(np.int64), want.view(np.int64)), (
                f"numpy {np.__version__} sums rows of {k} terms in another order "
                "than cp._row_sums"
            )
