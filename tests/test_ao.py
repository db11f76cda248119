"""Filtered-model witnesses: isometry, filtration bands, defect decay."""

import tracemalloc

import numpy as np
import pytest

from qfocklab import ao, gradient
from qfocklab.errors import FiltrationViolation, TruncationLoss
from qfocklab.qfock import FockParams
from qfocklab.wick import Element, wick
from qfocklab.gradient import GradientVector, nabla_gram, nabla_norm, nabla_pairing_value
from qfocklab.ao import (
    FILTRATION_TOL,
    FilteredModel,
    build_ou_model,
    check_eigenspaces,
    decay_verdict,
    filtration_check,
    ou_t_decay_table,
    s_isometry_report,
    t_block_norm,
)


# ---------------------------------------------------------------------------
# per-pair oracles: the normalized derivation and the commutation defect as
# explicit gradient vectors, paired term by term through nabla_gram; the
# convention vector by sequential projection; the band check pair by pair
# ---------------------------------------------------------------------------


def basis_element(model, n, i):
    """Element i of the level-n eigenbasis: column i of its batch."""
    return Element(model.params, {m: t[..., i] for m, t in model.bases[n].items()})


def basis_elements(model, n):
    return [basis_element(model, n, i) for i in range(model.params.level_dim(n))]


def with_column_added(batch, i, el):
    """A copy of a basis batch with ``el`` added to its column i."""
    out = {m: t.copy() for m, t in batch.items()}
    width = next(iter(batch.values())).shape[-1]
    for m, t in el.levels.items():
        out.setdefault(m, np.zeros(t.shape + (width,), dtype=complex))[..., i] += t
    return out


def _derivation_class(params, el):
    return GradientVector(params, [(el, Element.one(params))])


def s_of_element(model, el):
    """Normalized derivation applied to an algebra element, eigenspace
    by eigenspace; the eigenvalue-0 component rides on the convention
    vector."""
    params = model.params
    if el.top_level() > params.max_level:
        raise TruncationLoss("element leaves the modeled eigenspace window")
    out = GradientVector(params, [])
    for m, t in el.levels.items():
        if m == 0:
            out = out.add(model.vacuum_unit.scaled(complex(t)))
            continue
        piece = _derivation_class(params, Element(params, {m: t}))
        out = out.add(piece.scaled(m**-0.5))
    return out


def flat_basis(model):
    """(eigenspace, index, element) over every eigenbasis element, in order."""
    return [
        (n, i, el) for n in range(len(model.bases)) for i, el in enumerate(basis_elements(model, n))
    ]


def s_basis_image(model, n, i):
    if n == 0:
        return model.vacuum_unit
    return _derivation_class(model.params, basis_element(model, n, i)).scaled(n**-0.5)


def sequential_vacuum_unit(model):
    """The eigenvalue-0 convention vector by projecting each candidate
    off the normalized-derivation images one image at a time."""
    params = model.params
    one = Element.one(params)
    e1 = Element.word(params, [1])
    images = [s_basis_image(model, n, i) for n, i, _ in flat_basis(model) if n]
    for cand in (GradientVector(params, [(e1, e1)]), GradientVector(params, [(e1 * e1, one)])):
        reduced = cand
        for s in images:
            coeff = nabla_pairing_value(s, reduced)
            reduced = reduced.add(s.scaled(-coeff))
        norm = nabla_norm(reduced)
        if norm > 1e-6:
            return reduced.scaled(1.0 / norm)
    raise FiltrationViolation("no unit vector orthogonal to the derivation range")


def out_of_band_mass(prod, low, high, parity):
    """Euclidean mass of the components outside [low, high] or with the
    wrong parity."""
    bad = 0.0
    for m, t in prod.levels.items():
        if low <= m <= high and (m - parity) % 2 == 0:
            continue
        bad += float(np.sum(np.abs(t) ** 2))
    return float(np.sqrt(bad))


def pairwise_filtration_check(model, m, n):
    worst = 0.0
    for e in basis_elements(model, m):
        for f in basis_elements(model, n):
            worst = max(worst, out_of_band_mass(e * f, abs(m - n), m + n, (m + n) % 2))
    return worst


def t_images(model, x, y, n):
    """Commutation defect x S(.) y - S(x . y) on the level-n eigenbasis."""
    params = model.params
    if n + x.top_level() + y.top_level() > params.max_level:
        raise TruncationLoss(
            f"products from level {n} with the given words leave the window"
        )
    out = []
    for el in basis_elements(model, n):
        se = s_of_element(model, el)
        moved = se.left(x).right(y)
        prod = (x * el) * y
        out.append(moved.add(s_of_element(model, prod).scaled(-1.0)))
    return out


def subexponential_ratios(model):
    """Ratios of consecutive positive generator eigenvalues."""
    lams = list(range(1, model.params.max_level + 1))
    return [b / a for a, b in zip(lams, lams[1:])]


@pytest.fixture(scope="module")
def model():
    return build_ou_model(FockParams(q=0.5, dim=2, max_level=6))


def test_model_structure(model):
    assert len(model.bases) == 7
    for n, batch in enumerate(model.bases):
        assert set(batch) == {n}
        assert batch[n].shape == (2,) * n + (2**n,)
    ratios = subexponential_ratios(model)
    assert all(a >= b for a, b in zip(ratios, ratios[1:]))
    assert ratios[-1] == pytest.approx((len(ratios) + 1) / len(ratios))


def test_eigenbasis_is_orthonormal(model):
    for level in range(len(model.bases)):
        basis = basis_elements(model, level)
        n = len(basis)
        gram = np.array([[u.q_inner(v) for v in basis] for u in basis])
        assert np.allclose(gram, np.eye(n), atol=1e-10)


def test_s_isometry(model):
    assert s_isometry_report(model) < 1e-8


def test_s_vacuum_convention_is_unit_and_orthogonal(model):
    unit = model.vacuum_unit
    assert nabla_norm(unit) == pytest.approx(1.0, abs=1e-10)
    for n in range(1, 5):
        for i in range(model.params.level_dim(n)):
            overlap = nabla_pairing_value(unit, s_basis_image(model, n, i))
            assert abs(overlap) < 1e-10


def test_s_independent_of_orthonormalization(model):
    # the normalized derivation is basis-free: rotating an eigenspace by
    # a unitary rotates its image Gram covariantly, so it stays identity
    rng = np.random.default_rng(0)
    n = 2
    basis = basis_elements(model, n)
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


# ---------------------------------------------------------------------------
# batched Grams against the per-pair oracles
# ---------------------------------------------------------------------------

GRAM_RTOL = 1e-12
# (dim, max_level) of each oracle model: the per-pair Gram costs one gamma
# call per pair of terms of every pair of images
ORACLE_SIZES = [(1, 6), (2, 5), (3, 4)]


def _complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _oracle_words(p, rng):
    """The words ``1``, ``2`` and ``2,1`` (those that fit the dimension),
    the level-0 word and random complex level-1 and level-2 elements."""
    words = {"1": wick(p, [1]), "0": Element.one(p)}
    if p.dim >= 2:
        words["2"] = wick(p, [2])
        words["2,1"] = wick(p, [2, 1])
    words["r1"] = Element(p, {1: _complex(rng, p.dim)})
    words["r2"] = Element(p, {2: _complex(rng, p.dim, p.dim)})
    return words


def _assert_gram_close(batched, oracle):
    gap = np.max(np.abs(batched - oracle))
    assert gap <= GRAM_RTOL * np.max(np.abs(oracle))


# word pairs (x, y): x = y, x != y, level-0 words and complex elements
T_PAIRS = [
    ("1", "1"), ("2,1", "2"), ("2", "2,1"), ("0", "r2"), ("r1", "r2"), ("r2", "0"), ("0", "0"),
]


@pytest.mark.parametrize("q", [-0.4, 0.0, 0.3, 0.7])
@pytest.mark.parametrize("dim,max_level", ORACLE_SIZES)
def test_batched_t_gram_matches_pairwise_oracle(q, dim, max_level):
    p = FockParams(q=q, dim=dim, max_level=max_level)
    model = build_ou_model(p, check=False)
    words = _oracle_words(p, np.random.default_rng(int(10 * q) + 7 * dim))
    for xs, ys in T_PAIRS:
        if xs not in words or ys not in words:
            continue
        x, y = words[xs], words[ys]
        for n in range(1, min(2, max_level - x.top_level() - y.top_level()) + 1):
            oracle = nabla_gram(t_images(model, x, y, n))
            _assert_gram_close(ao._t_block_gram(model, x, y, n), oracle)
            top = np.sqrt(max(np.linalg.eigvalsh(oracle)[-1], 0.0))
            assert t_block_norm(model, x, y, n) == pytest.approx(top, rel=1e-10, abs=1e-12)


def test_batched_t_gram_with_vacuum_unit_terms():
    # x = y = e1 on the level-2 block: x e y has a level-0 part, which
    # brings in the convention-vector terms
    for q in (-0.4, 0.7):
        p = FockParams(q=q, dim=2, max_level=4)
        model = build_ou_model(p, check=False)
        x = wick(p, [1])
        assert any(((x * el) * x).trace() != 0 for el in basis_elements(model, 2))
        oracle = nabla_gram(t_images(model, x, x, 2))
        _assert_gram_close(ao._t_block_gram(model, x, x, 2), oracle)


def assembled_s_gram(model):
    """The streamed Gram blocks of the s-images, in ``flat_basis`` order,
    as one dense matrix with the conjugate transpose below the diagonal."""
    blocks = [ao._vacuum_unit_terms(model, np.ones(1))]
    blocks += [[ao._s_image_terms(model, n)] for n in range(1, len(model.bases))]
    got = {(r, c): g for r, c, g in gradient.nabla_gram_blocks(model.params, blocks)}
    edges = np.cumsum([0] + [len(got[r, r]) for r in range(len(blocks))])
    span = [slice(lo, hi) for lo, hi in zip(edges, edges[1:])]
    gram = np.zeros((edges[-1], edges[-1]), dtype=complex)
    for (r, c), g in got.items():
        gram[span[r], span[c]] = g
        gram[span[c], span[r]] = np.conj(g).T
    return gram


@pytest.mark.parametrize("q", [-0.4, 0.3, 0.7])
@pytest.mark.parametrize("dim,max_level", [(1, 6), (2, 4), (3, 3)])
def test_batched_s_gram_matches_pairwise_oracle(q, dim, max_level):
    model = build_ou_model(FockParams(q=q, dim=dim, max_level=max_level), check=False)
    gram = assembled_s_gram(model)
    oracle = nabla_gram([s_basis_image(model, n, i) for n, i, _ in flat_basis(model)])
    _assert_gram_close(gram, oracle)
    assert s_isometry_report(model) == np.max(np.abs(gram - np.eye(len(gram))))


def test_unit_carrier_families_are_their_own_products(monkeypatch):
    # a family a (x) 1 pairs a and D(a) as its products a 1 and D(a) 1;
    # graded_mul runs only in the pairings, two per pair of families
    model = build_ou_model(FockParams(q=0.3, dim=2, max_level=4), check=False)
    families = [ao._s_image_terms(model, n) for n in range(1, len(model.bases))]
    calls = []
    real = gradient.graded_mul

    def counting(params, left, right, *args, **kwargs):
        calls.append(right)
        return real(params, left, right, *args, **kwargs)

    monkeypatch.setattr(gradient, "graded_mul", counting)
    got = list(gradient.nabla_gram_blocks(model.params, [[t] for t in families]))
    k = len(families)
    assert len(got) == k * (k + 1) // 2
    assert len(calls) == k * (k + 1)
    assert not any(right is t.xi for right in calls for t in families)


def test_s_isometry_holds_one_gram_block_at_a_time():
    # The Gram at dim 2, M 9 has 1023^2 complex entries, 16.0 MiB.  Held
    # whole, with its conjugate transpose and |G - 1| beside it, the
    # check peaked at 68.1 MiB under tracemalloc; one block at a time it
    # peaks at about 34 MiB.
    model = build_ou_model(FockParams(q=0.5, dim=2, max_level=9), check=False)
    s_isometry_report(model)  # warm the level Gram caches
    tracemalloc.start()
    try:
        s_isometry_report(model)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 48 * 2**20


def test_t_block_norm_of_the_zero_element_is_zero(model):
    # every term family of the defect is empty, so the Gram is the scalar 0.0
    zero = Element(model.params, {})
    assert t_block_norm(model, zero, wick(model.params, [1]), 2) == 0.0


def _record_pairwise_calls(monkeypatch):
    """Record every call of ``gamma`` and ``nabla_pairing_value``."""
    calls = []
    for name in ("gamma", "nabla_pairing_value"):
        original = getattr(gradient, name)

        def counted(*args, _original=original, _name=name, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        for mod in (gradient, ao):
            if getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, counted)
    return calls


def test_batched_grams_make_no_pairwise_calls(model, monkeypatch):
    calls = _record_pairwise_calls(monkeypatch)
    x = wick(model.params, [1])
    for n in (1, 2, 3, 4):
        t_block_norm(model, x, x, n)
    s_isometry_report(model)
    assert calls == []


# ---------------------------------------------------------------------------
# the batched model build against its oracles
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("q", [-0.4, 0.3, 0.7, 0.95])
@pytest.mark.parametrize("dim,max_level", [(1, 6), (2, 4), (3, 3), (2, 1), (4, 3)])
def test_batched_build_matches_sequential_oracles(q, dim, max_level):
    model = build_ou_model(FockParams(q=q, dim=dim, max_level=max_level), check=False)
    oracle = sequential_vacuum_unit(model)
    assert nabla_norm(model.vacuum_unit.add(oracle.scaled(-1.0))) < 1e-12
    for m in range(max_level + 1):
        for n in range(max_level + 1 - m):
            oracle = pairwise_filtration_check(model, m, n)
            assert filtration_check(model, m, n) == pytest.approx(oracle, abs=1e-12)


def test_batched_filtration_detects_a_two_level_element():
    # a basis element with a component one level up leaks out of every
    # band it meets, whether it is the looped or the batched factor
    p = FockParams(q=0.3, dim=2, max_level=5)
    ou = build_ou_model(p, check=False)
    bases = list(ou.bases)
    bases[1] = with_column_added(bases[1], 0, Element.word(p, [1, 2]))
    bases[2] = with_column_added(bases[2], 1, Element.word(p, [2, 1, 2]).scaled(0.5j))
    model = FilteredModel(p, bases, ou.vacuum_unit)
    for m, n in [(1, 1), (1, 2), (2, 1), (0, 2), (2, 2), (1, 3), (3, 1)]:
        oracle = pairwise_filtration_check(model, m, n)
        assert oracle > FILTRATION_TOL
        assert filtration_check(model, m, n) == pytest.approx(oracle, rel=1e-12)


def test_eigen_check_rejects_a_two_level_basis(monkeypatch):
    # the level-2 batch gains a level-1 component as the builder hands it on
    def mixed(params, bases, vacuum_unit):
        bases[2] = with_column_added(bases[2], 0, Element.word(params, [1]))
        return FilteredModel(params, bases, vacuum_unit)

    monkeypatch.setattr(ao, "FilteredModel", mixed)
    with pytest.raises(FiltrationViolation, match="eigenvalue 2.0 deviates"):
        build_ou_model(FockParams(q=0.3, dim=2, max_level=4))


def test_eigen_check_pairs_only_the_mass_off_each_level(monkeypatch):
    # a clean model has no mass off any level, so it forms no Gram
    p = FockParams(q=0.3, dim=2, max_level=4)
    ou = build_ou_model(p, check=False)
    calls = []

    def counted(*args):
        calls.append(args)
        return gradient._batched_q_inner(*args)

    monkeypatch.setattr(ao, "_batched_q_inner", counted)
    check_eigenspaces(ou)
    assert calls == []
    bases = list(ou.bases)
    bases[3] = with_column_added(bases[3], 5, Element.word(p, [2, 1]).scaled(1e-3))
    with pytest.raises(FiltrationViolation, match="eigenvalue 3.0 deviates"):
        check_eigenspaces(FilteredModel(p, bases, ou.vacuum_unit))
    assert len(calls) == 1


def test_band_check_names_the_first_leaking_band(monkeypatch):
    monkeypatch.setattr(ao, "filtration_check", lambda model, m, n: float(m + n == 3))
    with pytest.raises(FiltrationViolation, match=r"band leak at levels \(0, 3\)"):
        build_ou_model(FockParams(q=0.3, dim=2, max_level=4))


def test_model_build_pairwise_calls_do_not_grow_with_the_window(monkeypatch):
    # the convention vector is in closed form, so a build pairs nothing
    calls = _record_pairwise_calls(monkeypatch)
    counts = []
    for max_level in (4, 6):
        calls.clear()
        build_ou_model(FockParams(q=0.3, dim=2, max_level=max_level))
        counts.append((calls.count("gamma"), calls.count("nabla_pairing_value")))
    assert counts == [(0, 0), (0, 0)]
