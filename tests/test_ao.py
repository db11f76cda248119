"""Filtered-model witnesses: isometry, filtration bands, defect decay."""

import numpy as np
import pytest

from qfocklab.errors import TruncationLoss
from qfocklab.qfock import FockParams
from qfocklab.wick import Element, wick
from qfocklab.gradient import nabla_gram, nabla_norm, nabla_pairing_value
from qfocklab.ao import (
    build_ou_model,
    decay_verdict,
    filtration_check,
    ou_t_decay_table,
    s_basis_image,
    s_isometry_report,
    s_of_element,
    t_block_norm,
    t_images,
)


def subexponential_ratios(model):
    """Ratios of consecutive positive generator eigenvalues."""
    lams = [l for l in model.eigenvalues if l > 0]
    return [b / a for a, b in zip(lams, lams[1:])]


@pytest.fixture(scope="module")
def model():
    return build_ou_model(FockParams(q=0.5, dim=2, max_level=6))


def test_model_structure(model):
    assert model.eigenvalues == [float(n) for n in range(7)]
    for n, basis in enumerate(model.bases):
        assert len(basis) == 2**n
        for el in basis:
            assert set(el.levels) <= {n} or (n == 0 and set(el.levels) == {0})
    ratios = subexponential_ratios(model)
    assert all(a >= b for a, b in zip(ratios, ratios[1:]))
    assert ratios[-1] == pytest.approx((len(ratios) + 1) / len(ratios))


def test_eigenbasis_is_orthonormal(model):
    for basis in model.bases:
        n = len(basis)
        gram = np.array([[u.q_inner(v) for v in basis] for u in basis])
        assert np.allclose(gram, np.eye(n), atol=1e-10)


def test_s_isometry(model):
    rep = s_isometry_report(model)
    assert rep.max_deviation < 1e-8
    assert rep.labels[0] == (0, 0)


def test_s_vacuum_convention_is_unit_and_orthogonal(model):
    unit = model.vacuum_unit
    assert nabla_norm(unit) == pytest.approx(1.0, abs=1e-10)
    for n in range(1, 5):
        for i in range(len(model.bases[n])):
            overlap = nabla_pairing_value(unit, s_basis_image(model, n, i))
            assert abs(overlap) < 1e-10


def test_s_independent_of_orthonormalization(model):
    # the normalized derivation is basis-free: rotating an eigenspace by
    # a unitary rotates its image Gram covariantly, so it stays identity
    rng = np.random.default_rng(0)
    n = 2
    basis = model.bases[n]
    a = rng.standard_normal((len(basis), len(basis)))
    u, _ = np.linalg.qr(a)
    rotated = []
    for j in range(len(basis)):
        acc = Element.zero(model.params)
        for i in range(len(basis)):
            acc = acc + basis[i].scaled(u[i, j])
        rotated.append(acc)
    images = [
        s_of_element(model, el) for el in rotated
    ]
    gram = nabla_gram(images)
    assert np.max(np.abs(gram - np.eye(len(basis)))) < 1e-9


def test_filtration_bands(model):
    for m in range(3):
        for n in range(3):
            if m + n <= 4:
                assert filtration_check(model, m, n) < 1e-9
    with pytest.raises(TruncationLoss):
        filtration_check(model, 4, 4)


def test_filtration_scalar_level(model):
    # products against the vacuum level stay in a single level
    assert filtration_check(model, 0, 3) == pytest.approx(0.0, abs=1e-12)


def test_t_vanishes_for_scalars(model):
    one = Element.one(model.params)
    for n in (1, 2, 3):
        assert t_block_norm(model, one, one, n) == pytest.approx(0.0, abs=1e-10)


def test_t_block_budget_guard(model):
    x = wick(model.params, [1])
    with pytest.raises(TruncationLoss):
        t_block_norm(model, x, x, model.params.max_level - 1)


def test_t_images_are_orthogonal_for_distant_blocks():
    p = FockParams(q=0.4, dim=2, max_level=8)
    model = build_ou_model(p)
    x = wick(p, [1])
    near = t_images(model, x, x, 1)
    far = t_images(model, x, x, 6)
    for u in near:
        for v in far:
            assert abs(nabla_pairing_value(u, v)) < 1e-9


def test_t_decay_trend():
    p = FockParams(q=0.3, dim=2, max_level=6)
    model = build_ou_model(p)
    x = wick(p, [1])
    rows = ou_t_decay_table(model, x, x)
    assert [n for n, *_ in rows] == [1, 2, 3, 4]
    values = [v for *_, v in rows]
    assert all(a > b for a, b in zip(values[1:], values[2:]))  # decreasing beyond 2
    verdict = decay_verdict(values, factor=1.0)
    assert verdict.trend_pass  # tail strictly below head


def test_decay_verdict_requires_two_points():
    with pytest.raises(TruncationLoss):
        decay_verdict([1.0], 0.5)
