"""Bar-differential and cocycle identities on sampled tuples."""

import random
from types import SimpleNamespace

import numpy as np
import pytest

from qfocklab import checks
from qfocklab import cohomology as coh
from qfocklab import wick as wick_mod
from qfocklab.qfock import VECTOR_DIM_CAP, FockParams
from qfocklab.wick import Element, _as_element, wick
from qfocklab.gradient import GradientVector, nabla_norm
from qfocklab.cohomology import (
    SAMPLE_TOLERANCE,
    TOP_SAMPLED_LEVEL,
    CheckRow,
    Cochain,
    _random_element,
    _sample_tuple,
    bar_differential,
    derivation_cocycle,
    gradient_prefix_map,
    product_cochain,
    random_symbol,
    verify_bar_square,
    verify_leibniz,
    verify_prefix_anticommutes,
)
from oracles import number_applied, verify_derivation_norm


def params(q=0.4, dim=2, max_level=6):
    return FockParams(q=q, dim=dim, max_level=max_level)


def verify_second_cocycle(
    params: FockParams,
    seed: int = 46,
    samples: int = 20,
    tol: float = SAMPLE_TOLERANCE,
    max_word_level: int = 1,
) -> list[CheckRow]:
    """The twice-iterated cocycle is closed: d applied to it vanishes.
    The only check besides the iterated pairing that builds depth-2
    gradient vectors."""
    rng = random.Random(seed)
    d2 = derivation_cocycle(params, 2)
    closed = bar_differential(d2)
    rows = []
    for i in range(samples):
        args = _sample_tuple(rng, params, 3, max_word_level)
        rows.append(CheckRow("second_cocycle", i, nabla_norm(closed(*args)), tol))
    return rows


def verify_multilinearity(
    params: FockParams,
    seed: int = 47,
    samples: int = 10,
    tol: float = 1e-9,
) -> list[CheckRow]:
    """Slot-wise linearity of a sampled constructed cochain."""
    rng = random.Random(seed)
    frames = [_random_element(rng, params, 1) for _ in range(3)]
    f = bar_differential(product_cochain(params, frames))
    rows = []
    for i in range(samples):
        slot = rng.randrange(f.arity)
        args = list(_sample_tuple(rng, params, f.arity, 1))
        u, v = _random_element(rng, params, 1), _random_element(rng, params, 1)
        c = complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0))
        args_mixed = list(args)
        args_mixed[slot] = u.scaled(c) + v
        args_u, args_v = list(args), list(args)
        args_u[slot] = u
        args_v[slot] = v
        lhs = f(*args_mixed)
        rhs = f(*args_u).scaled(c) + f(*args_v)
        residual = (lhs + rhs.scaled(-1.0)).q_norm()
        rows.append(CheckRow("multilinearity", i, residual, tol))
    return rows


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
        number_applied(a).q_inner(a).real, rel=1e-10, abs=0
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


def test_sampled_checks_reach_the_top_sampled_level(monkeypatch):
    # verify refuses a dim by TOP_SAMPLED_LEVEL, so no seed may pass it
    seen = []
    real = FockParams.check_level_budget

    def recording(self, m, cap=VECTOR_DIM_CAP):
        seen.append(m)
        return real(self, m, cap)

    monkeypatch.setattr(FockParams, "check_level_budget", recording)
    tops = []
    for seed in range(4):
        seen.clear()
        for check in (verify_bar_square, verify_prefix_anticommutes, verify_leibniz):
            check(params(), seed=seed, samples=5)
        tops.append(max(seen))
    assert max(tops) == TOP_SAMPLED_LEVEL, tops


def test_identity_checks_are_seeded_deterministic():
    p = params()
    first = verify_leibniz(p, seed=123, samples=4)
    second = verify_leibniz(p, seed=123, samples=4)
    assert [(r.identity, r.tuple_id, r.residual) for r in first] == [
        (r.identity, r.tuple_id, r.residual) for r in second
    ]


@pytest.mark.parametrize("dim, level", [(2, 0), (2, 1), (3, 2), (2, 3)])
def test_random_symbol_is_seeded_and_shaped(dim, level):
    first = random_symbol(random.Random(5), dim, level)
    assert first.shape == (dim,) * level and first.dtype == np.float64
    assert first.tobytes() == random_symbol(random.Random(5), dim, level).tobytes()
    assert first.tobytes() != random_symbol(random.Random(6), dim, level).tobytes()


@pytest.mark.parametrize("max_word_level", [1, 2, 3])
def test_random_element_levels_stay_in_range(max_word_level):
    p = params(dim=3)
    draws = _sample_tuple(random.Random(0), p, 40, max_word_level)
    again = _sample_tuple(random.Random(0), p, 40, max_word_level)
    for el, el_again in zip(draws, again):
        ((level, t),) = el.levels.items()
        assert 1 <= level <= max_word_level and t.shape == (3,) * level
        assert el.q_norm() == pytest.approx(1.0)
        assert el_again.levels[level].tobytes() == t.tobytes()
    assert {next(iter(el.levels)) for el in draws} == set(range(1, max_word_level + 1))


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


# ---------------------------------------------------------------------------
# memo-free oracles of the d_squared and prefix_anticommutator checks
# ---------------------------------------------------------------------------


def _oracle_bar_differential(f):
    """The bar differential with every inner value computed afresh."""
    n = f.arity

    def df(*args):
        out = f(*args[1:]).left(args[0])
        for k in range(1, n + 1):
            merged = args[: k - 1] + (args[k - 1] * args[k],) + args[k + 1 :]
            out = out + f(*merged).scaled((-1.0) ** k)
        return out + f(*args[:n]).right(args[n]).scaled((-1.0) ** (n + 1))

    return Cochain(f.params, n + 1, df)


def _oracle_prefix_map(f):
    return Cochain(
        f.params, f.arity + 1, lambda *args: GradientVector(f.params, [(args[0], f(*args[1:]))])
    )


def _oracle_bar_square(p, seed, samples):
    """verify_bar_square's sampling, evaluated without a memo."""
    rng = random.Random(seed)
    f1 = product_cochain(p, [_random_element(rng, p, 1) for _ in range(2)])
    dd1 = _oracle_bar_differential(_oracle_bar_differential(f1))
    f2 = product_cochain(p, [_random_element(rng, p, 1) for _ in range(3)])
    dd2 = _oracle_bar_differential(_oracle_bar_differential(f2))
    rows = []
    for i in range(samples):
        args = _sample_tuple(rng, p, 3, 2)
        rows.append(CheckRow("d_squared_arity1", i, dd1(*args).q_norm(), SAMPLE_TOLERANCE))
    for i in range(samples):
        args = _sample_tuple(rng, p, 4, 1)
        rows.append(CheckRow("d_squared_arity2", i, dd2(*args).q_norm(), SAMPLE_TOLERANCE))
    return rows


def _oracle_prefix_anticommutes(p, seed, samples):
    """verify_prefix_anticommutes' sampling, evaluated without a memo."""
    rng = random.Random(seed)
    f = product_cochain(p, [_random_element(rng, p, 1) for _ in range(2)])
    gd = _oracle_prefix_map(_oracle_bar_differential(f))
    dg = _oracle_bar_differential(_oracle_prefix_map(f))
    rows = []
    for i in range(samples):
        args = _sample_tuple(rng, p, gd.arity, 2)
        combo = gd(*args) + dg(*args)
        rows.append(CheckRow("prefix_anticommutator", i, nabla_norm(combo), SAMPLE_TOLERANCE))
    return rows


def _counting_products(monkeypatch):
    calls = []
    real = wick_mod.graded_mul

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(wick_mod, "graded_mul", counting)
    return calls


@pytest.mark.parametrize(
    "check, oracle",
    [
        (verify_bar_square, _oracle_bar_square),
        (verify_prefix_anticommutes, _oracle_prefix_anticommutes),
    ],
    ids=["d_squared", "prefix_anticommutator"],
)
@pytest.mark.parametrize("seed", [0, 3, 11])
def test_memoized_checks_match_the_memo_free_oracle_bit_for_bit(
    check, oracle, seed, monkeypatch
):
    p = params(q=0.5, max_level=6)
    calls = _counting_products(monkeypatch)
    got = check(p, seed=seed, samples=4)
    memo_products = len(calls)
    calls.clear()
    want = oracle(p, seed, 4)
    assert [(r.identity, r.tuple_id, r.residual.hex()) for r in got] == [
        (r.identity, r.tuple_id, r.residual.hex()) for r in want
    ]
    assert memo_products < len(calls)


def test_memo_is_keyed_by_cochain_and_argument_bytes():
    p = params()
    seen = []

    def fn(a):
        seen.append(a)
        return a

    f = Cochain(p, 1, fn)
    a = wick(p, [1])
    copy = Element(p, {1: a.levels[1].copy()})
    memo = {}
    assert f(a, memo=memo) is f(copy, memo=memo)
    assert len(seen) == 1
    g = Cochain(p, 1, fn)
    g(a, memo=memo)
    f(wick(p, [2]), memo=memo)
    assert len(seen) == 3
    f(a)  # without a memo every call evaluates
    assert len(seen) == 4


def _left_with_second_term_flipped(self, x):
    """x . (a (x) xi) = xa (x) xi + x (x) a.xi, in place of the minus."""
    x = _as_element(self.params, x)
    out = []
    for a, xi in self.terms:
        out.append((x * a, xi))
        out.append((x, xi.left(a)))
    return GradientVector(self.params, out)


def _derivation_dropping_the_top_level(params, n):
    """a -> a' (x) vacuum, a' the argument without its top level."""
    assert n == 1

    def fn(a):
        levels = {m: t for m, t in a.levels.items() if m != a.top_level()}
        return GradientVector(params, [(Element(params, levels), Element.one(params))])

    return Cochain(params, 1, fn)


@pytest.mark.parametrize("q, dim, m, seed", [(0.5, 2, 5, 3), (-0.37, 3, 4, 0)])
def test_leibniz_and_prefix_checks_are_exact_and_catch_mutants(q, dim, m, seed, monkeypatch):
    # On correct algebra both residual vectors cancel term by term when they
    # are built, so the residual is 0 exactly.  A wrong sign in the left
    # action breaks both; a derivation that drops a term of its argument
    # breaks the product rule (prefix_anticommutator uses no derivation).
    p = FockParams(q=q, dim=dim, max_level=m)
    cfg = SimpleNamespace(seed=seed)
    both = (checks._check_leibniz, checks._check_prefix)
    for check in both:
        assert check(cfg, p) == (0.0, SAMPLE_TOLERANCE)
    with monkeypatch.context() as mp:
        mp.setattr(GradientVector, "left", _left_with_second_term_flipped)
        for check in both:
            residual, tol = check(cfg, p)
            assert residual >= tol, check.__name__
    monkeypatch.setattr(coh, "derivation_cocycle", _derivation_dropping_the_top_level)
    residual, tol = checks._check_leibniz(cfg, p)
    assert residual >= tol
