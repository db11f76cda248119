"""Circle-model closed forms in exact arithmetic."""

from fractions import Fraction

import numpy as np
import pytest

from qfocklab.errors import WindowOverflow
from qfocklab.torus import (
    generic_psi_coefficient,
    heat_psi_coefficient,
    heat_symbol,
    poisson_psi_coefficient,
    poisson_rank_bound,
    poisson_s_gram,
    poisson_symbol,
    poisson_t_block_norm,
    poisson_t_decay,
    poisson_t_image,
    poisson_zero_mode_unit,
    psi_table,
)


def support(l, m, window):
    return [k for k, c in psi_table("poisson", l, m, window) if c != 0]


def test_heat_coefficient_closed_form():
    assert heat_psi_coefficient(2, 3, 7) == -6
    for l in range(-5, 6):
        for m in range(-5, 6):
            for k in range(-10, 11):
                got = generic_psi_coefficient(heat_symbol, l, m, k)
                assert got == -l * m
                assert isinstance(heat_psi_coefficient(l, m, k), int)


def test_heat_zero_when_one_mode_trivial():
    for k in range(-6, 7):
        assert heat_psi_coefficient(0, 4, k) == 0
        assert heat_psi_coefficient(3, 0, k) == 0


def test_heat_non_compact_witness():
    # constant unit coefficients across all modes: no decay at all
    coeffs = [abs(heat_psi_coefficient(1, 1, k)) for k in range(-20, 21)]
    assert coeffs == [1] * 41


def test_poisson_examples_and_vanishing():
    assert poisson_psi_coefficient(1, 1, 0) == 0
    assert poisson_psi_coefficient(1, 1, -1) == -1
    for l in range(-5, 6):
        for m in range(-5, 6):
            for k in range(-32, 33):
                c = poisson_psi_coefficient(l, m, k)
                assert isinstance(c, Fraction)
                if abs(k) >= abs(l) + abs(m):
                    assert c == 0


def test_poisson_rank_bound_and_support():
    for l, m in [(1, 1), (2, 1), (-2, 3), (1, -4)]:
        got = support(l, m, 32)
        assert len(got) <= poisson_rank_bound(l, m)
        assert all(abs(k) < abs(l) + abs(m) for k in got)
    # the (1, 1) map has exactly one nonzero coefficient, at k = -1
    assert support(1, 1, 8) == [-1]


def test_window_policy():
    # input mode 7 would map to output mode 9, outside the window
    assert [k for k, _ in psi_table("heat", 1, 1, 8)] == list(range(-8, 7))


def test_table_is_exact():
    table = dict(psi_table("poisson", 2, 1, 16))
    assert table[0] == Fraction(0)
    assert all(isinstance(v, Fraction) for v in table.values())


def test_s_gram_is_identity_exactly():
    g = poisson_s_gram(20)
    assert np.max(np.abs(g - np.eye(g.shape[0]))) < 1e-10


def test_zero_mode_unit():
    unit = poisson_zero_mode_unit()
    assert unit.norm() == pytest.approx(1.0, abs=1e-12)


def test_t_image_structure():
    img = poisson_t_image(1, 1, 5)
    # all carriers share the shifted output mode
    freqs = {a + u for _, a, u in img.terms}
    assert freqs == {7}
    assert img.norm() > 0


def test_t_decay_rate_and_monotonicity():
    rows = poisson_t_decay(1, 1, 64)
    vals = {j: v for j, _, v in rows}
    assert all(vals[j] >= vals[j + 1] for j in range(2, 64))
    # closed-form magnitude: the negative-mode branch dominates with
    # norm^2 = 2 (1 - sqrt(1 - 2/k))
    for k in (16, 32, 64):
        expect = np.sqrt(2 * (1 - np.sqrt(1 - 2 / k)))
        assert vals[k] == pytest.approx(expect, rel=1e-12)
    stat = lambda lo, hi: max(j * vals[j] for j in range(lo, hi + 1))
    assert stat(32, 64) <= 2 * stat(8, 16)


def test_t_decay_zero_words():
    assert poisson_t_block_norm(0, 0, 7) == pytest.approx(0.0, abs=1e-12)


def test_t_decay_window_guard():
    with pytest.raises(WindowOverflow):
        poisson_t_decay(1, 1, 4)
