"""Bar-differential and cocycle identities on sampled tuples."""

import numpy as np
import pytest

from qfocklab.qfock import FockParams
from qfocklab.wick import Element, wick
from qfocklab.gradient import nabla_norm
from qfocklab.cohomology import (
    ALL_IDENTITY_CHECKS,
    Cochain,
    bar_differential,
    derivation_cocycle,
    gradient_prefix_map,
    product_cochain,
    verify_bar_square,
    verify_derivation_norm,
    verify_leibniz,
    verify_multilinearity,
    verify_prefix_anticommutes,
    verify_second_cocycle,
)


def params(q=0.4, dim=2, max_level=6):
    return FockParams(q=q, dim=dim, max_level=max_level)


def test_zeroth_differential_is_commutator():
    p = params()
    one = Element.one(p)
    xi = wick(p, [1])
    d0 = bar_differential(Cochain(p, 0, lambda: xi))
    a = wick(p, [2])
    out = d0(a)
    expect = a * xi - xi * a
    assert (out - expect).q_norm() < 1e-12
    # the vacuum class is central, so its commutator cochain vanishes
    d0_vac = bar_differential(Cochain(p, 0, lambda: one))
    assert d0_vac(a).q_norm() < 1e-12


def test_prefix_map_definition_unfolds():
    p = params()
    ident = Cochain(p, 1, lambda a: a)
    g = gradient_prefix_map(ident)
    a1 = wick(p, [1])
    a2 = wick(p, [2])
    out = g(a1, a2)
    assert len(out.terms) == 1
    ga, gxi = out.terms[0]
    assert (ga - a1).is_zero() and (gxi - a2).is_zero()
    zero = Cochain(p, 1, lambda a: Element.zero(p))
    gzero = gradient_prefix_map(zero)
    assert nabla_norm(gzero(a1, a2)) == 0.0


def test_derivation_cocycle_values():
    p = params()
    d1 = derivation_cocycle(p, 1)
    one = Element.one(p)
    assert nabla_norm(d1(one)) == pytest.approx(0.0, abs=1e-12)
    a = wick(p, [1])
    assert nabla_norm(d1(a)) ** 2 == pytest.approx(
        a.number_applied().q_inner(a).real, rel=1e-10
    )


def test_second_cocycle_lives_in_the_gradient_module():
    p = params()
    d2 = derivation_cocycle(p, 2)
    a1, a2 = wick(p, [1]), wick(p, [2])
    ((coeff, carrier),) = d2(a1, a2).terms
    assert coeff is a1
    ((inner, vac),) = carrier.terms
    assert inner is a2 and (vac - Element.one(p)).is_zero()


@pytest.mark.parametrize(
    "checker",
    [
        verify_bar_square,
        verify_prefix_anticommutes,
        verify_leibniz,
        verify_derivation_norm,
        verify_second_cocycle,
        verify_multilinearity,
    ],
)
def test_identity_checks_pass(checker):
    rows = checker(params(), samples=8)
    assert rows, "checker produced no rows"
    for row in rows:
        assert row.passed, (row.identity, row.tuple_id, row.residual)


def test_identity_checks_are_seeded_deterministic():
    p = params()
    first = verify_leibniz(p, seed=123, samples=4)
    second = verify_leibniz(p, seed=123, samples=4)
    assert [(r.identity, r.tuple_id, r.residual) for r in first] == [
        (r.identity, r.tuple_id, r.residual) for r in second
    ]


def test_checks_detect_broken_differential():
    # a wrong sign in the alternating sum must blow the residual up
    p = params()
    rng = np.random.default_rng(0)
    frames = [
        Element(p, {1: rng.standard_normal(2)}),
        Element(p, {1: rng.standard_normal(2)}),
    ]
    f = product_cochain(p, frames)

    def broken(*args):
        # drop the final boundary term of the honest differential
        return f(args[1]).left(args[0]) + f(args[0] * args[1]).scaled(-1.0)

    d_broken = Cochain(p, 2, broken)
    dd = bar_differential(d_broken)
    a = wick(p, [1])
    b = wick(p, [2])
    c = wick(p, [1])
    assert dd(a, b, c).q_norm() > 1e-4


def test_check_registry_complete():
    assert set(ALL_IDENTITY_CHECKS) == {
        "d_squared",
        "prefix_anticommutator",
        "leibniz",
        "derivation_norm",
        "second_cocycle",
        "multilinearity",
    }
