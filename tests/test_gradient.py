"""Gradient maps by three routes, gradient-form module, Schatten decay."""

import importlib
import itertools

import numpy as np
import pytest

from qfocklab.errors import (
    BadExponent,
    NotPositiveSemidefinite,
    ParamMismatch,
    ShapeMismatch,
    TruncationLoss,
    UnknownRoute,
)
from qfocklab import qfock
from qfocklab.qfock import FockParams, annihilation, creation
from qfocklab.wick import (
    Element,
    partition_weighted_sum,
    triple_contraction_sum,
    wick,
)
from qfocklab.gradient import (
    GradientVector,
    fit_log_slope,
    gamma,
    gradient_map,
    level_norm,
    nabla_gram,
    nabla_norm,
    nabla_pairing_two_ways,
    nabla_pairing_value,
    psi_element,
    schatten_diagnostic,
    truncated_schatten_norm,
)
from oracles import iterated_pairing_two_ways, number_applied

ROUTES = ("direct", "partition", "rstar")


def params(q=0.5, dim=2, max_level=6):
    return FockParams(q=q, dim=dim, max_level=max_level)


def random_element(rng, p, levels):
    return Element(p, {m: rng.standard_normal((p.dim,) * m) for m in levels})


def map_deviation(pm_a, pm_b):
    worst = 0.0
    keys = set(pm_a.blocks) | set(pm_b.blocks)
    for key in keys:
        if key[0] in pm_a.lossy_sources | pm_b.lossy_sources:
            continue
        left = np.asarray(pm_a.blocks.get(key, 0.0))
        right = np.asarray(pm_b.blocks.get(key, 0.0))
        worst = max(worst, float(np.max(np.abs(left - right))))
    return worst


def test_number_operator_and_semigroup_laws():
    p = params()
    s, t = 0.3, 0.9
    # column by column: every basis vector of every level
    for m in range(p.max_level + 1):
        for word in itertools.product(range(1, p.dim + 1), repeat=m):
            x = Element.word(p, word)
            num = number_applied(x)
            if m == 0:
                assert num.is_zero()  # kernel is the vacuum level
            else:
                assert set(num.levels) == {m}
                assert np.allclose(num.component(m), m * x.component(m))
            left, right = x.semigroup_applied(t).semigroup_applied(s), x.semigroup_applied(s + t)
            assert set(left.levels) == set(right.levels) == {m}
            assert np.allclose(left.component(m), right.component(m), atol=1e-12)
            assert np.array_equal(x.semigroup_applied(0.0).component(m), x.component(m))


def test_negative_time_is_bad_exponent():
    p = params()
    a = wick(p, [1])
    # a non-finite time is refused like a negative one
    for t in (-1.0, float("nan"), float("inf")):
        with pytest.raises(BadExponent):
            gradient_map(a, a, t, "rstar")
        with pytest.raises(BadExponent):
            psi_element(a, a, Element.one(p), t)


def test_semigroup_is_trace_preserving_on_elements():
    p = params()
    rng = np.random.default_rng(0)
    el = random_element(rng, p, [0, 1, 2, 3])
    assert el.semigroup_applied(1.3).trace() == pytest.approx(el.trace())


def test_delta_examples():
    p = params()
    assert number_applied(Element.one(p)).is_zero()
    w1 = wick(p, [1])
    d = number_applied(w1)
    assert np.allclose(d.component(1), w1.component(1))
    square = w1 * w1
    d2 = number_applied(square)
    # the vacuum part of the square is killed, the level-2 word doubled
    assert d2.component(0) == 0
    assert np.allclose(d2.component(2), 2 * square.component(2))


def test_gamma_examples_and_positivity():
    p = params(q=0.41)
    one = Element.one(p)
    assert gamma(one, one).is_zero()
    w1 = wick(p, [1])
    g = gamma(w1, w1)
    assert set(g.levels) == {0}
    assert g.trace() == pytest.approx(1.0)
    rng = np.random.default_rng(1)
    for _ in range(5):
        x = random_element(rng, p, [1, 2])
        gx = gamma(x, x)
        assert gx.trace() == pytest.approx(
            number_applied(x).q_inner(x).real, rel=1e-9
        )
        xi = random_element(rng, p, [0, 1, 2])
        val = gx.mul(xi).q_inner(xi)
        assert val.real >= -1e-9 * max(xi.q_norm() ** 2, 1.0)


def gamma_by_definition(x, y, max_out=None):
    """Gamma(x, y) = 1/2 ((D y)* x + y* D x - D(y* x)), three products."""
    y_adj = y.adjoint()
    t1 = number_applied(y).adjoint().mul(x, max_out)
    t2 = y_adj.mul(number_applied(x), max_out)
    t3 = number_applied(y_adj.mul(x, max_out))
    return (t1 + t2 - t3).scaled(0.5)


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("q", [-0.4, 0.0, 0.3, 0.7])
def test_gamma_matches_definition(q, dim):
    p = FockParams(q=q, dim=dim, max_level=4)
    rng = np.random.default_rng(round(10 * q) + 10 * dim)

    def complex_element(levels):
        return Element(
            p,
            {
                m: rng.standard_normal((dim,) * m) + 1j * rng.standard_normal((dim,) * m)
                for m in levels
            },
        )

    for x_levels, y_levels in [((0, 1, 2, 3, 4), (0, 1, 2, 3, 4)), ((0, 2, 3), (1, 4))]:
        x, y = complex_element(x_levels), complex_element(y_levels)
        for max_out in (None, 2, 4):
            got = gamma(x, y, max_out)
            want = gamma_by_definition(x, y, max_out)
            # the definition leaves rounding residue on j = 0 levels, which
            # the weighted contraction never forms
            assert set(got.levels) <= set(want.levels)
            gap = (got - want).q_norm() / max(want.q_norm(), 1.0)
            assert gap < 1e-13, (max_out, gap)


def test_psi_element_zero_cases():
    p = params()
    one = Element.one(p)
    rng = np.random.default_rng(2)
    x = random_element(rng, p, [0, 1, 2])
    b = random_element(rng, p, [2])
    for psi in (psi_element(one, b, x), psi_element(b, one, x)):
        assert all(np.max(np.abs(t)) <= 1e-12 for t in psi.levels.values())


def test_psi_scalar_example():
    p = FockParams(q=0.3, dim=1, max_level=4)
    w = wick(p, [1])
    out = psi_element(w, w, Element.one(p))
    assert set(out.levels) == {0}
    assert out.trace() == pytest.approx(1.0)
    # same value through the partition-expansion route
    word = wick(p, [1])
    pm = gradient_map(word, word, 0.0, "partition")
    assert pm.blocks[(0, 0)][0, 0] == pytest.approx(1.0)


@pytest.mark.parametrize("route", ROUTES[1:])
@pytest.mark.parametrize("levels", [(1, 1), (1, 2), (2, 1), (2, 2)])
def test_route_triangle_against_direct(route, levels):
    p = params(q=0.5, max_level=8)
    rng = np.random.default_rng(sum(levels))
    a = wick(p, rng.standard_normal((p.dim,) * levels[0]))
    b = wick(p, rng.standard_normal((p.dim,) * levels[1]))
    base = gradient_map(a, b, 0.0, "direct")
    other = gradient_map(a, b, 0.0, route)
    assert map_deviation(base, other) < 1e-8


def test_route_triangle_with_damping_and_unknown_route():
    p = params()
    a = wick(p, [1])
    base = gradient_map(a, a, 0.8, "direct")
    for route in ROUTES[1:]:
        assert map_deviation(base, gradient_map(a, a, 0.8, route)) < 1e-10
    with pytest.raises(UnknownRoute):
        gradient_map(a, a, 0.0, "magic")


@pytest.mark.parametrize("route", ROUTES)
def test_gradient_map_shares_the_word_contract(route):
    p = params(q=0.4, max_level=5)
    word = wick(p, [1, 2])
    two_levels = word + wick(p, [1])
    with pytest.raises(ShapeMismatch):
        gradient_map(two_levels, word, 0.0, route)
    with pytest.raises(ShapeMismatch):
        gradient_map(word, two_levels, 0.0, route)
    zero = gradient_map(wick(p, np.zeros((2, 2))), word, 0.0, route)
    assert not zero.blocks
    # the zero word is level 0: only sources m with 0 + m + 2 > 5 are cut
    assert zero.lossy_sources == {4, 5}


@pytest.mark.parametrize("route", ROUTES)
def test_gradient_map_over_different_params_is_a_param_mismatch(route):
    p, o = params(q=0.5), params(q=0.3)
    with pytest.raises(ParamMismatch):
        gradient_map(wick(p, [1]), wick(o, [1]), 0.0, route)


@pytest.mark.parametrize("route", ROUTES)
def test_gradient_map_builds_only_its_lossless_sources(route):
    p = params(q=0.4, max_level=5)
    psi = gradient_map(wick(p, [1]), wick(p, [2, 1]), 0.0, route)
    # source m reaches level 1 + m + 2, so only m <= 2 is lossless
    assert psi.blocks
    assert all(src <= 2 for src, _ in psi.blocks)
    assert psi.lossy_sources == {3, 4, 5}
    assert not psi.apply(Element.word(p, [1, 2])).is_zero()
    with pytest.raises(TruncationLoss):
        psi.apply(Element.word(p, [1, 2, 1]))
    with pytest.raises(TruncationLoss):
        level_norm(psi, 3)
    # words of levels 3 and 3 fit no source under level 5
    none = gradient_map(wick(p, [1, 2, 1]), wick(p, [2, 1, 2]), 0.0, route)
    assert not none.blocks
    assert none.lossy_sources == set(range(6))


def test_psi_block_band_and_parity():
    p = params(q=0.4, max_level=6)
    rng = np.random.default_rng(3)
    a = wick(p, rng.standard_normal((2, 2)))
    b = wick(p, rng.standard_normal((2,)))
    pm = gradient_map(a, b, 0.0, "rstar")
    n, k = a.top_level(), b.top_level()
    for (src, dst), blk in pm.blocks.items():
        assert src - n - k <= dst <= src + n + k
        assert (dst - src - n - k) % 2 == 0


def test_level_norm_examples():
    p0 = params(q=0.0, max_level=6)
    a = wick(p0, [1])
    pm = gradient_map(a, a, 0.0, "rstar")
    for m in (2, 3, 4):
        assert level_norm(pm, m) == pytest.approx(0.0, abs=1e-14)
    p = params(q=0.5, max_level=8)
    a = wick(p, [1])
    pm = gradient_map(a, a, 0.0, "rstar")
    norms = [level_norm(pm, m) for m in range(2, 7)]
    assert all(x > y for x, y in zip(norms, norms[1:]))
    slope, _ = fit_log_slope(range(2, 7), norms)
    assert slope <= np.log(0.5) + 0.1
    # smoothing by the semigroup damps by the minimal output level
    pm_t = gradient_map(a, a, 0.6, "rstar")
    for m in range(2, 7):
        assert level_norm(pm_t, m) <= np.exp(-0.6 * (m - 2)) * level_norm(pm, m) * ((1) + 1e-12)


@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize("q", [-0.4, 0.3, 0.5, 0.7])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_level_norm_of_psi_one_one_is_a_power_of_q(route, q, dim):
    # Closed form at t = 0: the restriction of psi(e1, e1) to source
    # level m has q-metric norm |q|^m, on every lossless source.
    p = FockParams(q=q, dim=dim, max_level=6 if dim < 3 else 5)
    a = wick(p, [1])
    pm = gradient_map(a, a, 0.0, route)
    for m in range(p.max_level - 1):
        assert level_norm(pm, m) == pytest.approx(abs(q) ** m, rel=1e-12)


def test_level_norm_of_psi_one_one_at_the_top_of_a_deep_truncation():
    # Source level 8 is the top lossless source at M 10, where the Grams
    # are large enough (256 rows and up) for the whitener to be halved down
    # to its bordered leaves.
    p = FockParams(q=-0.9, dim=2, max_level=10)
    a = wick(p, [1])
    pm = gradient_map(a, a, 0.0, "rstar")
    assert level_norm(pm, 8) == pytest.approx(0.9**8, rel=1e-12)


@pytest.mark.parametrize("q", [-0.7, 0.3, 0.5, 0.9])
def test_fit_log_slope_of_a_geometric_sequence(q):
    levels = range(1, 9)
    slope, intercept = fit_log_slope(levels, [abs(q) ** m for m in levels])
    assert abs(slope - np.log(abs(q))) <= 1e-15
    assert abs(intercept) <= 1e-14


def test_fit_log_slope_matches_polyfit_on_noisy_data():
    rng = np.random.default_rng(5)
    levels = np.arange(2, 12)
    values = np.exp(-0.6 * levels + 0.4 + 0.2 * rng.standard_normal(levels.size))
    want = np.polyfit(levels, np.log(values), 1)
    assert np.abs(np.array(fit_log_slope(levels, values)) - want).max() <= 1e-12


def test_level_norm_raises_not_psd_for_an_indefinite_gram(monkeypatch):
    p = params(q=0.5, max_level=6)
    a = wick(p, [1])
    pm = gradient_map(a, a, 0.0, "rstar")
    real = qfock.symmetrizer

    def indefinite_at_three(params, m):
        if m != 3:
            return real(params, m)
        g = np.eye(params.level_dim(m), dtype=complex)
        g[-1, -1] = -1.0
        return g

    monkeypatch.setattr(qfock, "symmetrizer", indefinite_at_three)
    with pytest.raises(NotPositiveSemidefinite, match=r"level 3 .*q=0\.5, dim=2") as err:
        level_norm(pm, 3)
    assert err.value.code == "NOT_PSD"
    assert level_norm(pm, 2) == pytest.approx(0.25, rel=1e-12)


def test_level_norm_refuses_truncated_source():
    p = params(q=0.5, max_level=4)
    a = wick(p, [1])
    pm = gradient_map(a, a, 0.0, "rstar")
    with pytest.raises(TruncationLoss):
        level_norm(pm, 4)


def test_schatten_diagnostic_threshold_flip():
    for q, verdict in [(0.4, "CONVERGENT"), (0.6, "DIVERGENT")]:
        p = FockParams(q=q, dim=4, max_level=6)
        a = wick(p, [1])
        rep = schatten_diagnostic(gradient_map(a, a, 0.0, "rstar"), 2)
        assert rep.verdict == verdict
        assert rep.ratio_estimate == pytest.approx(q * 2.0, abs=0.1)
    with pytest.raises(BadExponent):
        p = params()
        a = wick(p, [1])
        schatten_diagnostic(gradient_map(a, a, 0.0, "rstar"), 0.3)


@pytest.mark.parametrize(
    "dim,p,q,verdict",
    [
        (2, 2, 0.657, "CONVERGENT"),
        (2, 2, 0.757, "DIVERGENT"),
        (4, 2, 0.45, "CONVERGENT"),
        (4, 2, 0.55, "DIVERGENT"),
        (2, 4, 0.79, "CONVERGENT"),
        (2, 4, 0.89, "DIVERGENT"),
    ],
)
def test_threshold_flip_brackets_dim_power(dim, p, q, verdict):
    par = FockParams(q=q, dim=dim, max_level=6 if dim == 4 else 8)
    a = wick(par, [1])
    rep = schatten_diagnostic(gradient_map(a, a, 0.0, "rstar"), p)
    assert rep.verdict == verdict
    assert abs(q) * dim ** (1 / p) == pytest.approx(rep.ratio_estimate, abs=0.1)


def test_schatten_reference_norm_matches_block_structure():
    # for the level-one pair the map is q^m times the identity on level m,
    # so the truncated Schatten-2 norm is computable in closed form
    p = params(q=0.5, max_level=6)
    a = wick(p, [1])
    norm = truncated_schatten_norm(gradient_map(a, a, 0.0, "rstar"), 2)
    expect = np.sqrt(sum((0.5**m) ** 2 * 2**m for m in range(0, 5)))
    assert norm == pytest.approx(expect, rel=1e-9)


def test_gradient_vector_rejects_terms_over_other_params():
    p, other = params(q=0.5), params(q=0.3)
    with pytest.raises(ParamMismatch):
        GradientVector(p, [(Element.one(other), Element.one(p))])
    with pytest.raises(ParamMismatch):
        GradientVector(p, [(wick(p, [1]), wick(other, [1]))])


def test_gradient_vector_norms():
    p = params(q=0.5, max_level=8)
    rng = np.random.default_rng(4)
    one = Element.one(p)
    assert nabla_norm(GradientVector(p, [(one, one)])) == pytest.approx(0.0, abs=1e-12)
    for _ in range(5):
        a = random_element(rng, p, [1, 2])
        v = GradientVector(p, [(a, one)])
        assert nabla_norm(v) ** 2 == pytest.approx(
            number_applied(a).q_inner(a).real, rel=1e-9
        )


def test_gradient_gram_psd_on_random_families():
    p = params(q=0.5, max_level=8)
    rng = np.random.default_rng(5)
    vectors = []
    for _ in range(6):
        a = random_element(rng, p, [1, 2])
        xi = random_element(rng, p, [0, 1])
        vectors.append(GradientVector(p, [(a, xi)]))
    g = nabla_gram(vectors)
    w = np.linalg.eigvalsh(g)
    assert w[0] >= -1e-9 * max(w[-1], 1.0)


def test_nabla_norm_raises_on_corrupt_gram():
    p = params()
    rng = np.random.default_rng(6)
    a = random_element(rng, p, [1])
    v = GradientVector(p, [(a, Element.one(p))])
    bad = GradientVector(p, v.terms + [(a.scaled(-1.0), Element.one(p))])
    # duplicate-with-flip makes a singular Gram (fine), but a hand-built
    # indefinite Gram must raise
    assert nabla_norm(bad) == pytest.approx(0.0, abs=1e-8)
    from qfocklab.numerics import _psd_eig

    with pytest.raises(NotPositiveSemidefinite):
        _psd_eig(np.diag([1.0, -0.5]), 1e-8)


def test_bimodule_axioms():
    p = params(q=0.3, max_level=8)
    rng = np.random.default_rng(7)
    x = random_element(rng, p, [1])
    y = random_element(rng, p, [1])
    a = random_element(rng, p, [1, 2])
    xi = random_element(rng, p, [0, 1])
    v = GradientVector(p, [(a, xi)])
    lhs = v.left(y).left(x)  # x.(y.v)
    rhs = v.left(x * y)  # (xy).v
    diff = lhs.add(rhs.scaled(-1.0))
    assert nabla_norm(diff) < 1e-8
    lhs = v.right(x).right(y)
    rhs = v.right(x * y)
    assert nabla_norm(lhs.add(rhs.scaled(-1.0))) < 1e-8
    lhs = v.left(x).right(y)
    rhs = v.right(y).left(x)
    assert nabla_norm(lhs.add(rhs.scaled(-1.0))) < 1e-8


def test_left_action_is_bounded_by_operator_norm():
    p = params(q=0.3, max_level=8)
    rng = np.random.default_rng(8)
    for _ in range(4):
        x = random_element(rng, p, [1])
        a = random_element(rng, p, [1])
        xi = random_element(rng, p, [0, 1])
        v = GradientVector(p, [(a, xi)])
        # W(x) = a*(x) + a(x) for a real level-one x
        sym = x.component(1)
        xnorm = creation(p, sym).add(annihilation(p, sym)).q_norm()
        assert nabla_norm(v.left(x)) <= xnorm * nabla_norm(v) + 1e-8


def test_pairing_identity_single_and_trivial():
    p = params(q=0.3, max_level=8)
    rng = np.random.default_rng(9)
    one = Element.one(p)
    for _ in range(5):
        x = random_element(rng, p, [1])
        y = random_element(rng, p, [1])
        a = random_element(rng, p, [1, 2])
        b = random_element(rng, p, [1])
        xi = random_element(rng, p, [0, 1])
        eta = random_element(rng, p, [0, 1, 2])
        lhs, rhs = nabla_pairing_two_ways(x, y, (a, xi), (b, eta), p)
        assert lhs == pytest.approx(rhs, abs=1e-8)
    w2 = wick(p, [2])
    w1 = wick(p, [1])
    lhs, rhs = nabla_pairing_two_ways(w1, w1, (w2, one), (w2, one), p)
    assert lhs == pytest.approx(rhs, abs=1e-10)
    lhs, rhs = nabla_pairing_two_ways(one, one, (w2, one), (w2, one), p)
    assert lhs == pytest.approx(rhs, abs=1e-12)
    direct = gamma(w2, w2).trace()
    assert lhs == pytest.approx(direct, abs=1e-12)


def test_pairing_identity_iterated():
    p = params(q=0.3, max_level=8)
    rng = np.random.default_rng(10)
    for _ in range(4):
        x = random_element(rng, p, [1])
        y = random_element(rng, p, [1])
        chain_a = tuple(random_element(rng, p, [1]) for _ in range(3))
        chain_b = tuple(random_element(rng, p, [1]) for _ in range(3))
        lhs, rhs = iterated_pairing_two_ways(x, y, chain_a, chain_b, p)
        assert lhs == pytest.approx(rhs, abs=1e-8)


def test_pairing_identity_iterated_complex():
    # complex coefficients tell Gamma(a, b) from Gamma(b, a)
    p = params(q=0.4, max_level=6)
    rng = np.random.default_rng(20)

    def rand(level):
        shape = (p.dim,) * level
        return Element(p, {level: rng.standard_normal(shape) + 1j * rng.standard_normal(shape)})

    for _ in range(3):
        chain_a = (rand(1), rand(1), rand(int(rng.integers(0, 2))))
        chain_b = (rand(1), rand(1), rand(int(rng.integers(0, 2))))
        lhs, rhs = iterated_pairing_two_ways(rand(1), rand(1), chain_a, chain_b, p)
        assert lhs == pytest.approx(rhs, abs=1e-8)


def test_nested_terms_with_carriers_opposite_in_sign_merge():
    p = params(q=0.3, max_level=6)
    rng = np.random.default_rng(21)
    one = Element.one(p)
    a0, b0, a1 = (random_element(rng, p, [1]) for _ in range(3))
    inner = GradientVector(p, [(a1, one)])
    u = GradientVector(p, [(a0, inner), (b0, inner.scaled(-1.0))])
    assert len(u.terms) == 1
    coeff, carrier = u.terms[0]
    assert carrier is inner
    assert np.array_equal(coeff.component(1), (a0 - b0).component(1))


def test_nested_terms_sharing_a_coefficient_sum_their_carriers():
    from qfocklab.gradient import _byte_key

    p = params(q=0.3, max_level=6)
    rng = np.random.default_rng(22)
    one = Element.one(p)
    a0, a1, a2, xi = (random_element(rng, p, [1]) for _ in range(4))
    v1 = GradientVector(p, [(a1, one)])
    v2 = GradientVector(p, [(a2, xi)])
    u = GradientVector(p, [(a0, v1), (a0, v2)])
    assert len(u.terms) == 1
    coeff, carrier = u.terms[0]
    assert coeff is a0
    assert len(carrier.terms) == 2
    assert _byte_key(carrier) == _byte_key(v1 + v2)


def test_negated_byte_key_is_the_key_of_the_negation():
    from qfocklab.gradient import _byte_key, _negated_byte_key

    p = params(q=0.3, max_level=6)
    rng = np.random.default_rng(27)
    anchors = [random_element(rng, p, levels) for levels in ([1], [2, 1], [3, 1, 2])]
    anchors.append(random_element(rng, p, [0, 2]))
    anchors.append(Element(p, {0: np.array(2.0 - 1.5j), 1: [0.0, 1j]}))
    anchors.append(
        GradientVector(p, [(anchors[0], Element.one(p)), (anchors[1], anchors[3])])
    )
    for anchor in anchors:
        assert _negated_byte_key(anchor) == _byte_key(anchor.scaled(-1.0))
        assert _negated_byte_key(anchor) != _byte_key(anchor)


def test_nested_term_with_zero_coefficient_or_carrier_is_dropped():
    p = params(q=0.3, max_level=6)
    rng = np.random.default_rng(23)
    one = Element.one(p)
    a0, a1, a2 = (random_element(rng, p, [1]) for _ in range(3))
    inner = GradientVector(p, [(a1, one)])
    other = GradientVector(p, [(a2, one)])
    u = GradientVector(
        p,
        [(Element.zero(p), inner), (a0, GradientVector(p, [])), (a0.scaled(2.0), other)],
    )
    assert len(u.terms) == 1
    assert u.terms[0][1] is other
    assert GradientVector(p, [(Element.zero(p), inner)]).is_zero()


def test_nested_carrier_over_other_params_is_rejected():
    p, other = params(q=0.5), params(q=0.3)
    inner = GradientVector(other, [(wick(other, [1]), Element.one(other))])
    with pytest.raises(ParamMismatch):
        GradientVector(p, [(wick(p, [1]), inner)])


def test_depth_two_norm_is_the_clipped_term_gram_form():
    from qfocklab.gradient import NABLA_GRAM_RTOL
    from qfocklab.numerics import _psd_eig

    p = params(q=0.3, max_level=6)
    rng = np.random.default_rng(24)
    one = Element.one(p)
    terms = [
        (
            random_element(rng, p, [1]),
            GradientVector(p, [(random_element(rng, p, [1]), random_element(rng, p, [0, 1]))]),
        )
        for _ in range(3)
    ]
    u = GradientVector(p, terms)
    assert len(u.terms) == 3
    # <a (x) v, b (x) w> = <Gamma(a, b) . v, w> in the inner module
    g = np.array(
        [[nabla_pairing_value(v.left(gamma(a, b)), w) for b, w in u.terms] for a, v in u.terms]
    )
    ones = np.ones(3)
    w, v = _psd_eig(0.5 * (g + g.conj().T), NABLA_GRAM_RTOL)
    expect = np.sqrt(max((ones @ ((v * w) @ v.conj().T) @ ones).real, 0.0))
    assert nabla_norm(u) == pytest.approx(expect, rel=1e-12)
    assert nabla_norm(u) ** 2 == pytest.approx(nabla_pairing_value(u, u).real, rel=1e-8)
    assert nabla_norm(GradientVector(p, [(one, terms[0][1])])) == pytest.approx(0.0, abs=1e-12)


def test_nabla_gram_is_the_pairing_matrix_on_complex_vectors():
    # complex pairings tell the conjugated lower triangle from a copy
    p = params(q=0.44, max_level=6)
    rng = np.random.default_rng(26)

    def rand(levels):
        return Element(
            p,
            {
                m: rng.standard_normal((p.dim,) * m) + 1j * rng.standard_normal((p.dim,) * m)
                for m in levels
            },
        )

    vectors = [GradientVector(p, [(rand([1, 2]), rand([0, 1]))]) for _ in range(3)]
    g = nabla_gram(vectors)
    for i, u in enumerate(vectors):
        for j, v in enumerate(vectors):
            assert g[i, j] == pytest.approx(nabla_pairing_value(u, v), rel=1e-10)


def test_nabla_pairing_conjugate_symmetry():
    p = params(q=0.44, max_level=6)
    rng = np.random.default_rng(11)
    u = GradientVector(p, [(random_element(rng, p, [1, 2]), random_element(rng, p, [0, 1]))])
    v = GradientVector(p, [(random_element(rng, p, [2]), random_element(rng, p, [1]))])
    assert nabla_pairing_value(u, v) == pytest.approx(
        np.conj(nabla_pairing_value(v, u))
    )


def columns_to_blocks(p, n, k, column_fn):
    """Column-by-column assembly: each basis tensor of each lossless
    source level (n + m + k <= max_level) is pushed through
    ``column_fn`` on its own.  The oracle for the batched blocks of
    ``gradient_map``."""
    blocks, lossy = {}, set()
    for m in range(p.max_level + 1):
        if n + m + k > p.max_level:
            lossy.add(m)
            continue
        dim_src = p.level_dim(m)
        for col in range(dim_src):
            idx = np.unravel_index(col, (p.dim,) * m) if m else ()
            basis = np.zeros((p.dim,) * m, dtype=complex)
            basis[idx] = 1.0
            for lvl, tensor in column_fn(m, basis).items():
                if not np.any(tensor):
                    continue
                if (m, lvl) not in blocks:
                    blocks[(m, lvl)] = np.zeros((p.level_dim(lvl), dim_src), dtype=complex)
                blocks[(m, lvl)][:, col] = np.asarray(tensor).reshape(-1)
    return blocks, frozenset(lossy)


def column_oracle(route, a, b, t):
    """One source column of the gradient map by ``route``, unbatched."""
    p, n, k = a.params, a.top_level(), b.top_level()
    a_sym, b_sym = a.component(n), b.component(k)

    def finish(raw):
        return {lvl: np.exp(-t * lvl) * (-0.5 * arr) for lvl, arr in raw.items()}

    if route == "direct":
        return lambda m, basis: psi_element(a, b, Element(p, {m: basis}), t).levels
    if route == "partition":
        if n == 0 or k == 0:
            return lambda m, basis: {}

        def joins(part):
            right_start = n + (part.shape.total - n - k)
            return sum(1 for l, r in part.pairs if l <= n and r > right_start)

        return lambda m, basis: finish(
            partition_weighted_sum(
                p, [a_sym, basis, b_sym], weight=lambda part: -2.0 * joins(part)
            )
        )
    return lambda m, basis: finish(
        triple_contraction_sum(
            p, a_sym, basis, b_sym, weight=lambda j, r, s: -2.0 * r
        )
    )


BATCH_CASES = [
    # word a, word b, time
    ([1], [1], 0.0),
    ([1], [2, 1], 0.4),
    ([1, 2], [2], 0.0),
    ([], [1], 0.0),
    ([2, 2], [1, 2], 0.0),
    ("random", "random", 0.7),
]


@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize("q", [-0.4, 0.0, 0.3, 0.7])
def test_batched_blocks_match_column_oracle(route, q):
    rng = np.random.default_rng(13)
    for dim, max_level in [(1, 6), (2, 5), (3, 3)]:
        p = FockParams(q=q, dim=dim, max_level=max_level)
        for word_a, word_b, t in BATCH_CASES:
            if word_a == "random":
                a = wick(p, rng.standard_normal((dim,) * 2))
                b = wick(p, rng.standard_normal((dim,)))
            else:
                a = wick(p, [min(i, dim) for i in word_a])
                b = wick(p, [min(i, dim) for i in word_b])
            got = gradient_map(a, b, t, route)
            want, lossy = columns_to_blocks(
                p, a.top_level(), b.top_level(), column_oracle(route, a, b, t)
            )
            assert got.lossy_sources == lossy
            assert set(got.blocks) == set(want)
            for key, blk in want.items():
                scale = np.max(np.abs(blk))
                gap = np.max(np.abs(got.blocks[key] - blk))
                assert gap <= 1e-13 * scale, (dim, word_a, word_b, key, gap / scale)


@pytest.mark.parametrize("route", ROUTES)
def test_batched_blocks_in_chunks_match_one_batch(route, monkeypatch):
    # 7 columns per chunk: the lossless sources are 0..5, and the 32
    # columns of source 5 go in chunks of 7, 7, 7, 7 and 4
    grad = importlib.import_module("qfocklab.gradient")
    p = FockParams(q=0.3, dim=2, max_level=7)
    a, b = wick(p, [1]), wick(p, [1])
    whole = gradient_map(a, b, 0.4, route)
    monkeypatch.setattr(grad, "BATCH_COLUMNS", 7)
    # the direct route sizes chunks by its widest level m + 2: 7 * 2^7
    # entries give 7 columns at source level 5 (of 32) and 14 at level 4
    # (of 16); levels up to 3 fit in one chunk
    monkeypatch.setattr(grad, "BATCH_ENTRIES", 7 * 2**7)
    chunked = gradient_map(a, b, 0.4, route)
    assert chunked.lossy_sources == whole.lossy_sources
    assert set(chunked.blocks) == set(whole.blocks)
    for key, blk in whole.blocks.items():
        gap = np.max(np.abs(chunked.blocks[key] - blk))
        assert gap <= 1e-13 * np.max(np.abs(blk)), (key, gap)


def test_schatten_diagnostic_judges_the_zero_map_only_over_two_levels():
    # a level-0 word gives the zero map: no finite ratio, yet nothing to sum
    p = FockParams(q=0.5, dim=2, max_level=4)
    zero_map = gradient_map(wick(p, []), wick(p, [1]), 0.0, "rstar")
    rep = schatten_diagnostic(zero_map, 2)
    assert (rep.ratio_estimate, rep.verdict) == (0.0, "CONVERGENT")
    shallow = FockParams(q=0.5, dim=2, max_level=1)
    with pytest.raises(TruncationLoss):
        schatten_diagnostic(gradient_map(wick(shallow, []), wick(shallow, [1]), 0.0, "rstar"), 2)


def test_nabla_norm_builds_no_gradient_vector(monkeypatch):
    p = params(q=0.3, max_level=6)
    rng = np.random.default_rng(25)
    v = GradientVector(
        p, [(random_element(rng, p, [1, 2]), random_element(rng, p, [0, 1])) for _ in range(4)]
    )
    assert len(v.terms) == 4
    built = []
    original = GradientVector.__post_init__

    def counting(self):
        built.append(self)
        original(self)

    monkeypatch.setattr(GradientVector, "__post_init__", counting)
    norm = nabla_norm(v)
    assert not built
    assert norm == pytest.approx(np.sqrt(nabla_pairing_value(v, v).real), rel=1e-8)
