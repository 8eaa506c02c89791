"""The row-shifted allocation kernel (``cp._count_shares``) against the
per-entry-maximum kernel it replaced (``conftest.oracle_count_shares``).

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
from contextlib import nullcontext
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from countcp import FactorSet, InadmissibleZeroError, SparseCountTensor, generalized_kl
from countcp import cp
from countcp.cp import _allocate
from countcp.ntf import _kl_step
from conftest import ntf_step, oracle_count_shares, random_factors, random_tensor

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
        m = rng.integers(len(logs))
        row = rng.integers(case["shape"][m])
        if case["poison"] == "-inf cells":
            for log in logs:
                log[rng.random(log.shape) < 0.3] = -np.inf
        elif case["poison"] == "-inf row":
            logs[m][row] = -np.inf
        elif case["poison"] == "nan":
            logs[m][row, rng.integers(k)] = np.nan
        elif case["poison"] == "+inf":
            logs[m][row, rng.integers(k)] = np.inf
        step = case["step"]
        with nullcontext() if step is None else mock.patch.object(cp, "_BLOCK_CELLS", step * k):
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
            assert _allocate(logs, two_mode_tensor(), 0, np.zeros((1, 2))) == (0, 0)


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
            assert _allocate(logs, tensor, mode, out) == want
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
                ntf_step(_kl_step, f, tensor, mode, epsilon_floor=0.0)
        assert generalized_kl(tensor, f) == np.inf
