"""Truncated q-Fock kernel: Grams, splittings, ladder operators."""

import itertools
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qfocklab import ao, checks, qfock
from qfocklab.errors import (
    LevelTooLarge,
    NotHermitianError,
    NotPositiveSemidefinite,
    ParamMismatch,
    ShapeMismatch,
    TruncationLoss,
)
from qfocklab.numerics import hermitian_eig, psd_inv_sqrt
from qfocklab.qfock import (
    LEVEL_CAP,
    MATRIX_DIM_CAP,
    MEMO_PARAM_PAIRS,
    FockOperator,
    FockParams,
    _pair_memo,
    _split_rows,
    _split_terms,
    _split_weights,
    annihilation,
    basis_tensor,
    conjugate_tensor,
    creation,
    pairing_form,
    r_star,
    r_star3,
    split_tensor,
    splitter_matrix,
    symmetrizer,
    symmetrizer_apply,
    symmetrizer_inv_sqrt,
)
from qfocklab.wick import Element, product_direct
from oracles import gram_adjoint, pairing_norm


def params(q=0.5, dim=2, max_level=4):
    return FockParams(q=q, dim=dim, max_level=max_level)


def random_matrix(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def random_vector(rng, p, levels, real=False):
    data = {}
    for m in levels:
        t = rng.standard_normal((p.dim,) * m)
        if not real:
            t = t + 1j * rng.standard_normal((p.dim,) * m)
        data[m] = t
    return Element(p, data)


def psd_inv_sqrt_by_eig(g):
    """Pseudo-inverse square root by eigendecomposition, zeroing directions
    below the rank tolerance: an oracle independent of the Cholesky factor
    the library inverts every Gram with."""
    w, v = hermitian_eig(g)
    cut = g.shape[0] * np.finfo(float).eps * max(float(w[-1]), 0.0)
    inv = np.where(w > cut, 1.0 / np.sqrt(np.where(w > cut, w, 1.0)), 0.0)
    return (v * inv) @ v.conj().T


def symmetrizer_by_definition(p, m):
    """Sum over the symmetric group of q^inversions times the
    permutation action, independent of the library's recursion."""
    n = p.dim**m
    out = np.zeros((n, n))
    cols = np.arange(n)
    window = cols.reshape((p.dim,) * m)
    for perm in itertools.permutations(range(m)):
        inv = sum(1 for a, b in itertools.combinations(range(m), 2) if perm[a] > perm[b])
        # Row r receives the coefficient of the permuted basis vector;
        # scattered, the gather rows of perm^-1 act as perm.
        rows = np.transpose(window, np.argsort(perm)).reshape(-1)
        out[rows, cols] += p.q**inv
    return out.astype(complex)


def split_tensor_by_definition(q, t, n, k, offset=0):
    """Permutation sum over the (n, k) shuffles of the window
    [offset, offset+n+k), independent of the cached split tables."""
    total = n + k
    out = np.zeros(t.shape, dtype=complex)
    for comb in itertools.combinations(range(total), n):
        cost = sum(a - pos for pos, a in enumerate(comb))
        rest = [i for i in range(total) if i not in comb]
        axes = (
            list(range(offset))
            + [offset + a for a in list(comb) + rest]
            + list(range(offset + total, t.ndim))
        )
        out += q**cost * np.transpose(t, axes)
    return out


def q_factorial(q, m):
    return float(np.prod([sum(q**i for i in range(j)) for j in range(1, m + 1)]))


@pytest.mark.parametrize("q", [0.0, 0.5, -0.7])
@pytest.mark.parametrize("dim,m", [(1, 2), (2, 1), (2, 2), (2, 3), (3, 2), (3, 3)])
def test_symmetrizer_matches_definition(q, dim, m):
    p = FockParams(q=q, dim=dim, max_level=max(m, 1))
    assert np.allclose(symmetrizer(p, m), symmetrizer_by_definition(p, m), atol=1e-13)


def test_symmetrizer_trivials():
    p = params()
    assert np.allclose(symmetrizer(p, 1), np.eye(2))
    p0 = params(q=0.0)
    for m in range(4):
        assert np.allclose(symmetrizer(p0, m), np.eye(2**m))
    p1 = FockParams(q=0.3, dim=1, max_level=2)
    assert np.allclose(symmetrizer(p1, 2), np.array([[1.3]]))


# Levels where the group-sum oracle stays cheap: m <= 8 and dim^m <= 1024.
GROUP_SUM_LEVELS = [(d, m) for d in (2, 3, 4) for m in range(2, 9) if d**m <= 1024]


@pytest.mark.parametrize(
    "dim,m,q",
    [
        (dim, m, q)
        for dim, m in GROUP_SUM_LEVELS
        for q in (-0.7, 0.3, 0.95)
        # The dim-2, m-8 group sum takes about a second; one q is enough.
        if m < 8 or q == 0.3
    ],
)
def test_symmetrizer_matches_group_sum(dim, m, q):
    p = FockParams(q=q, dim=dim, max_level=m)
    want = symmetrizer_by_definition(p, m)
    assert np.max(np.abs(symmetrizer(p, m) - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("q", [-0.95, -0.7, 0.3, 0.95])
def test_symmetrizer_at_dim_one_is_exact_q_factorial(q):
    # At dim 1, P_m is the number [m]_q! = prod_{j<=m} (1 + q + ... + q^(j-1)),
    # here in exact rational arithmetic on the binary value of q.
    p = FockParams(q=q, dim=1, max_level=12)
    exact = Fraction(1)
    for m in range(1, 13):
        exact *= sum(Fraction(q) ** i for i in range(m))
        got = symmetrizer(p, m)
        assert got.shape == (1, 1)
        assert abs(got[0, 0] - float(exact)) <= 1e-14 * abs(float(exact)), m


def test_dense_splitter_agrees_with_symmetrizer():
    # The Gram is built without the dense (m-1, 1) splitter; the split
    # identity P_m = (P_{m-1} (x) 1) R* ties the two together.
    p = FockParams(q=0.6, dim=2, max_level=8)
    for m in range(2, 9):
        expl = symmetrizer(p, m)
        rec = np.kron(symmetrizer(p, m - 1), np.eye(2)) @ splitter_matrix(p, (m - 1, 1))
        assert np.allclose(expl, rec, atol=1e-12)


def test_rstar_identities_see_a_split_kernel_fault(monkeypatch):
    # the dense splitters are the split kernel run on the identity, so a
    # kernel fault reaches verify's check; q is one no other test uses,
    # so no splitter of its pair is cached, and its entries are dropped
    kernel = qfock.split_tensor

    def faulty(q, t, n, k, offset=0):
        out = kernel(q, t, n, k, offset)
        return out - 0.01 * t if n and k else out

    monkeypatch.setattr(qfock, "split_tensor", faulty)
    p = FockParams(q=0.2468, dim=2, max_level=4)
    try:
        residual, tol = checks._check_rstar(None, p)
    finally:
        _pair_memo(p.q, p.dim).clear()
    assert residual > tol


def test_symmetrizer_positive_definite():
    for dim in (1, 2, 3):
        for q in (-0.8, -0.4, 0.0, 0.4, 0.8):
            p = FockParams(q=q, dim=dim, max_level=5 if dim < 3 else 5)
            for m in range(6):
                if dim**m > 4096:
                    continue
                w, _ = hermitian_eig(symmetrizer(p, m))
                assert w[0] > 0.0


@pytest.mark.parametrize(
    "max_level,dim,q", list(itertools.product([0, 1, 3, 6], [1, 2, 3], [-0.7, 0.4, 0.8]))
)
def test_symmetrizer_apply_matches_matrix(max_level, dim, q):
    # the dense Gram up to max_level and the split recursion above it,
    # on tensors alone and with a trailing batch axis
    p = FockParams(q=q, dim=dim, max_level=max_level)
    rng = np.random.default_rng(0)
    for m in range(8):
        if dim**m > MATRIX_DIM_CAP:
            continue
        for batch in ((), (3,)):
            shape = (dim,) * m + batch
            t = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            want = (symmetrizer(p, m) @ t.reshape(dim**m, -1)).reshape(shape)
            got = [qfock._sym_apply_front(p, t, m)] + ([] if batch else [symmetrizer_apply(p, t)])
            for g in got:
                assert np.linalg.norm(g - want) <= 1e-12 * np.linalg.norm(want)


def _top_cached_gram(p):
    return max(key for name, key in _pair_memo(p.q, p.dim) if name == "symmetrizer")


def test_no_gram_is_built_above_the_truncation_level():
    # values of q no other test uses, so the memo starts empty
    p = FockParams(q=0.2713, dim=2, max_level=3)
    rng = np.random.default_rng(4)
    top = Element(p, {6: rng.standard_normal((2,) * 6) + 1j * rng.standard_normal((2,) * 6)})
    try:
        assert top.q_norm() > 0
        assert _top_cached_gram(p) <= p.max_level
    finally:
        _pair_memo(p.q, p.dim).clear()
    # d_squared's products reach level 8; its Grams stay at level 4, the
    # pairing form of the j <= 4 contractions in graded_mul
    p = FockParams(q=0.3187, dim=3, max_level=3)
    try:
        residual, tol = checks._check_d_squared(SimpleNamespace(seed=3), p)
        assert residual <= tol
        assert _top_cached_gram(p) <= 4
    finally:
        _pair_memo(p.q, p.dim).clear()


def test_level_cache_is_shared_across_max_level():
    small, large = params(q=0.35, max_level=3), params(q=0.35, max_level=6)
    assert symmetrizer(small, 3) is symmetrizer(large, 3)
    assert symmetrizer(small, 3).dtype == np.complex128
    assert splitter_matrix(small, (2, 1)) is splitter_matrix(large, (2, 1))
    assert pairing_form(small, 2) is pairing_form(large, 2)
    assert symmetrizer(small, 3) is not symmetrizer(params(q=0.36, max_level=3), 3)


@pytest.mark.parametrize(
    "build",
    [
        lambda p: symmetrizer(p, 3),
        lambda p: splitter_matrix(p, (2, 1)),
        lambda p: splitter_matrix(p, (1, 1, 1)),
        lambda p: pairing_form(p, 2),
    ],
)
def test_cached_level_arrays_are_read_only(build):
    p = params(q=0.45)
    got = build(p)
    with pytest.raises(ValueError):
        got[0, 0] = 7.0
    assert build(p)[0, 0] != 7.0


def test_concurrent_builds_of_one_level_agree():
    # A (q, dim) no other test uses, so the four threads race on a cold cache.
    p = FockParams(q=0.2468, dim=2, max_level=7)

    def build():
        return symmetrizer(p, 7), pairing_form(p, 6)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(build) for _ in range(4)]
            results = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(switch)
    for gram, form in results:
        assert np.array_equal(gram, results[0][0])
        assert np.array_equal(form, results[0][1])
    # B[b, c] = Gram_6[reverse(b), c]: reverse the six row axes.
    by_definition = symmetrizer_by_definition(p, 6).reshape((2,) * 6 + (64,))
    want = by_definition.transpose(*reversed(range(6)), 6).reshape(64, 64)
    assert np.allclose(results[0][1], want, atol=1e-12)


def test_q_singular_values_on_a_source_subset():
    # Creation from level m is one block; its q-metric singular values are
    # those of G_{m+1}^{1/2} B G_m^{-1/2}.
    p = params(q=0.4, max_level=4)
    op = creation(p, [1.0, 0.5j])
    for m in range(4):
        blk = op.blocks[(m, m + 1)]
        half_dst = np.linalg.inv(psd_inv_sqrt_by_eig(symmetrizer(p, m + 1)))
        half_src = psd_inv_sqrt_by_eig(symmetrizer(p, m))
        want = np.linalg.svd(half_dst @ blk @ half_src, compute_uv=False)
        got = op.q_singular_values([m])
        assert np.allclose(got, want, atol=1e-10)
    assert op.q_singular_values([]).size == 0
    assert op.q_norm() == pytest.approx(max(op.q_singular_values([m])[0] for m in range(4)))


@pytest.mark.parametrize("q", [-0.7, 0.4])
def test_symmetrizer_inv_sqrt_is_a_triangular_whitener(q):
    p = params(q=q, max_level=6)
    for m in range(7):
        g = symmetrizer(p, m)
        w = symmetrizer_inv_sqrt(p, m)
        half = psd_inv_sqrt_by_eig(g)
        assert np.array_equal(np.triu(w), w)
        assert np.allclose(w.conj().T @ g @ w, np.eye(len(g)), atol=1e-10)
        assert np.allclose(w @ w.conj().T, half @ half, atol=1e-10)


@pytest.mark.parametrize("q", [-0.7, -0.3, 0.0, 0.5, 0.8])
@pytest.mark.parametrize("dim,m", [(1, 6), (2, 6), (3, 4), (4, 3)])
def test_gram_and_whitener_vanish_between_letter_contents(dim, m, q):
    """A permutation of tensor slots keeps a word's letters, so the level
    Gram and its whitener are exactly zero between basis words whose
    letter multisets differ.  At (2, 6) and (4, 3) the whitener's 64 rows
    are halved into two bordered leaves, at (3, 4) its 81 rows into
    leaves of 40 and 41."""
    p = FockParams(q=q, dim=dim, max_level=m)
    letters = np.sort(np.indices((dim,) * m).reshape(m, -1), axis=0)
    _, content = np.unique(letters.T, axis=0, return_inverse=True)
    apart = content.reshape(-1, 1) != content.reshape(1, -1)
    for mat in (symmetrizer(p, m), symmetrizer_inv_sqrt(p, m)):
        assert np.all(mat[apart] == 0.0)


@pytest.mark.parametrize("j", [1, 2, 3])
def test_pairing_norm_matches_the_eig_oracle(j):
    p = params(q=-0.35, dim=3, max_level=3)
    half = psd_inv_sqrt_by_eig(symmetrizer(p, j))
    want = np.linalg.norm((half.T @ pairing_form(p, j) @ half).reshape(-1))
    assert pairing_norm(p, j) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize(
    "consumer",
    [
        lambda p: pairing_norm(p, 3),
        lambda p: ao.build_ou_model(p, check=False),
        lambda p: creation(p, [1.0, 0.0]).q_singular_values([3]),
    ],
    ids=["pairing_norm", "build_ou_model", "q_singular_values"],
)
def test_every_gram_inverse_raises_not_psd_for_an_indefinite_gram(consumer, monkeypatch):
    p = params(q=0.5, max_level=4)
    # Cache the level-3 pairing form first: it must not be built from the
    # patched Gram.
    pairing_form(p, 3)
    real = qfock.symmetrizer

    def indefinite_at_three(params, m):
        if m != 3:
            return real(params, m)
        g = np.eye(params.level_dim(m), dtype=complex)
        g[-1, -1] = -1.0
        return g

    monkeypatch.setattr(qfock, "symmetrizer", indefinite_at_three)
    with pytest.raises(NotPositiveSemidefinite, match=r"level 3 .*q=0\.5, dim=2") as err:
        consumer(p)
    assert err.value.code == "NOT_PSD"


@pytest.mark.parametrize("q", [-0.6, 0.0, 0.3, 0.8])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_q_singular_values_match_the_generalized_pencil(q, dim):
    # Several sources with rectangular blocks into shared targets, and a
    # source (level 3) with no block, against scipy's solver of the
    # pencil (B^H P B, (+)_m P_m).
    import scipy.linalg

    p = FockParams(q=q, dim=dim, max_level=3)
    rng = np.random.default_rng(dim)
    pairs = [(0, 1), (1, 1), (1, 3), (2, 0), (2, 3)]
    blocks = {
        (src, dst): random_matrix(rng, p.level_dim(dst), p.level_dim(src))
        for src, dst in pairs
    }
    sources = [0, 1, 2, 3]
    offs = np.cumsum([0] + [p.level_dim(m) for m in sources])
    quad = np.zeros((offs[-1], offs[-1]), dtype=complex)
    gram = np.zeros_like(quad)
    for i, m in enumerate(sources):
        gram[offs[i] : offs[i + 1], offs[i] : offs[i + 1]] = symmetrizer(p, m)
    for dst in range(p.max_level + 1):
        stacked = np.zeros((p.level_dim(dst), offs[-1]), dtype=complex)
        for (src, d), mat in blocks.items():
            if d == dst:
                stacked[:, offs[src] : offs[src + 1]] = mat
        quad += stacked.conj().T @ symmetrizer(p, dst) @ stacked
    vals = scipy.linalg.eigh(quad, gram, eigvals_only=True)
    want = np.sqrt(np.clip(vals[::-1], 0.0, None))
    got = FockOperator(p, blocks).q_singular_values(sources)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-12 * want[0]


def test_q_inner_examples():
    p = params(q=0.37)
    assert Element.one(p).q_inner(Element.one(p)) == pytest.approx(1.0)
    e12 = Element.word(p, [1, 2])
    e21 = Element.word(p, [2, 1])
    assert e12.q_inner(e21) == pytest.approx(p.q)
    assert e12.q_inner(e12) == pytest.approx(1.0)


def test_q_inner_conjugate_symmetry_and_positivity():
    p = params(q=-0.55, max_level=4)
    rng = np.random.default_rng(1)
    u = random_vector(rng, p, [0, 1, 2, 3])
    v = random_vector(rng, p, [1, 2, 4])
    assert u.q_inner(v) == pytest.approx(np.conj(v.q_inner(u)))
    plain = sum(np.linalg.norm(t) ** 2 for t in u.levels.values())
    assert u.q_inner(u).real >= -1e-10 * plain


def test_q_inner_param_mismatch():
    with pytest.raises(ParamMismatch):
        Element.one(params(q=0.5)).q_inner(Element.one(params(q=0.4)))


def test_creation_on_vacuum_and_annihilation_shift_rule():
    p = params(q=0.6)
    create = creation(p, [1.0, 0.0])
    out = create.apply(Element.one(p))
    assert np.allclose(out.component(1), [1.0, 0.0])
    kill = annihilation(p, [1.0, 0.0])
    out = kill.apply(Element.word(p, [1, 2]))
    assert np.allclose(out.component(1), [0.0, 1.0])
    out = kill.apply(Element.word(p, [2, 1]))
    assert np.allclose(out.component(1), [0.0, p.q])


def test_annihilation_equals_gram_adjoint_of_creation():
    for dim in (1, 2, 3):
        for q in (-0.5, 0.0, 0.3, 0.7):
            p = FockParams(q=q, dim=dim, max_level=4)
            for i in range(dim):
                xi = np.zeros(dim)
                xi[i] = 1.0
                lhs = annihilation(p, xi)
                rhs = gram_adjoint(creation(p, xi))
                for key in set(lhs.blocks) | set(rhs.blocks):
                    l = lhs.blocks.get(key, np.zeros(1))
                    r = rhs.blocks.get(key, np.zeros(1))
                    assert np.allclose(l, r, atol=1e-10), (dim, q, key)


def test_annihilation_complex_antilinear():
    p = params(q=0.3)
    xi = np.array([0.5 + 0.5j, -0.25j])
    lhs = annihilation(p, xi)
    rhs = gram_adjoint(creation(p, xi))
    for key in set(lhs.blocks) | set(rhs.blocks):
        assert np.allclose(lhs.blocks.get(key, 0), rhs.blocks.get(key, 0), atol=1e-10)


def _top_block_scaled(real, p, xi):
    """The top annihilation block scaled by 1 + 1e-9."""
    blocks = dict(real(p, xi).blocks)
    top = (p.max_level, p.max_level - 1)
    blocks[top] = blocks[top] * (1 + 1e-9)
    return FockOperator(p, blocks)


def _one_more_q_past_the_front(real, p, xi):
    """Weight q^(k+1) in place of q^k on every slot k >= 1: the slot-0
    term is annihilation at q = 0, and the rest gains a factor q."""
    full = real(p, xi).blocks
    front = real(FockParams(q=0.0, dim=p.dim, max_level=p.max_level), xi).blocks
    blocks = {key: front[key] + p.q * (full[key] - front[key]) for key in full}
    return FockOperator(p, blocks)


@pytest.mark.parametrize("q,dim,m", [(-0.37, 3, 5), (0.5, 2, 6), (0.95, 3, 5), (0.5, 1, 51)])
def test_annihilation_check_is_tight_and_catches_mutants(q, dim, m, monkeypatch):
    # At dim 1, M 51 the Gram entries reach [51]_q!, so only a residual
    # relative to max |P_m| stays near rounding.
    p = FockParams(q=q, dim=dim, max_level=m)
    residual, tol = checks._check_annihilation(None, p)
    assert tol == 1e-10
    assert residual < 1e-13
    real = checks.annihilation
    for mutant in (_top_block_scaled, _one_more_q_past_the_front):
        monkeypatch.setattr(checks, "annihilation", lambda p, xi: mutant(real, p, xi))
        assert checks._check_annihilation(None, p)[0] >= tol, mutant.__name__


def test_annihilation_check_forms_no_whitener(monkeypatch):
    def no_whitener(params, m):
        raise AssertionError(f"whitener of level {m} formed")

    monkeypatch.setattr(qfock, "symmetrizer_inv_sqrt", no_whitener)
    residual, tol = checks._check_annihilation(None, FockParams(q=0.5, dim=3, max_level=4))
    assert residual < tol


def test_creation_truncation_is_flagged():
    """Mass at the dropped top level is refused, not cut silently."""
    p = params(max_level=2)
    create = creation(p, [1.0, 0.0])
    top = Element.word(p, [1, 2])
    with pytest.raises(TruncationLoss):
        create.apply(top)
    with pytest.raises(TruncationLoss):
        create.apply(top + Element.word(p, [1]))
    assert np.array_equal(create.apply(Element.one(p)).component(1), [1.0, 0.0])


def test_apply_refuses_mass_above_max_level():
    p = params(max_level=2)
    ident = FockOperator.identity(p)
    with pytest.raises(LevelTooLarge):
        ident.apply(Element.word(p, [1, 2, 1]))
    with pytest.raises(LevelTooLarge):
        ident.apply(Element.word(p, [2]) + Element.word(p, [1, 2, 1]))
    # an element may hold such a level; only the operator refuses it
    assert Element.word(p, [1, 2, 1]).top_level() == 3


def test_apply_returns_an_element_that_products_take():
    p = FockParams(q=0.3, dim=2, max_level=2)
    out = creation(p, [1.0, 0.0]).apply(Element.word(p, [2]) + Element.one(p))
    assert type(out) is Element
    assert np.array_equal(out.component(2), basis_tensor(p, [1, 2]))
    assert np.array_equal(out.component(1), basis_tensor(p, [1]))
    alone = product_direct(p, [out])
    assert alone.levels.keys() == out.levels.keys()
    for m, t in out.levels.items():
        assert np.array_equal(alone.component(m), t)
    word = Element.word(p, [2])
    both = product_direct(p, [out, word])
    want = out * word
    assert both.levels.keys() == want.levels.keys()
    for m, t in want.levels.items():
        assert np.array_equal(both.component(m), t)


def test_conjugation_examples():
    p = params()
    v = Element.word(p, [1, 2]).adjoint()
    assert np.allclose(v.component(2), basis_tensor(p, [2, 1]))
    w = Element(p, {1: 1j * basis_tensor(p, [1])}).adjoint()
    assert np.allclose(w.component(1), -1j * basis_tensor(p, [1]))


def test_conjugation_is_q_antiunitary_involution():
    p = params(q=0.44, max_level=4)
    rng = np.random.default_rng(2)
    u = random_vector(rng, p, [0, 1, 2, 3, 4])
    v = random_vector(rng, p, [1, 2, 3])
    again = u.adjoint().adjoint()
    for m in u.levels:
        assert np.allclose(again.component(m), u.component(m))
    assert u.adjoint().q_inner(v.adjoint()) == pytest.approx(np.conj(u.q_inner(v)))


@pytest.mark.parametrize("n,k", [(0, 2), (2, 0), (1, 1), (1, 2), (2, 1), (2, 2)])
def test_r_star_factorization(n, k):
    for dim in (1, 2, 3):
        p = FockParams(q=0.5, dim=dim, max_level=4)
        lhs = symmetrizer(p, n + k)
        rhs = np.kron(symmetrizer(p, n), symmetrizer(p, k)) @ r_star(p, n, k)
        denom = max(np.linalg.norm(lhs), 1.0)
        assert np.linalg.norm(lhs - rhs) <= 1e-11 * denom


def test_r_star_scalar_case():
    p = FockParams(q=0.25, dim=1, max_level=2)
    assert np.allclose(r_star(p, 1, 1), [[1 + p.q]])


def test_r_star_identity_when_one_sided():
    p = params()
    assert np.allclose(r_star(p, 0, 3), np.eye(8))
    assert np.allclose(r_star(p, 3, 0), np.eye(8))


@pytest.mark.parametrize("nkl", [(1, 1, 1), (2, 1, 1), (1, 2, 1), (1, 1, 2)])
def test_r_star3_two_split_orders_agree(nkl):
    n, k, l = nkl
    p = FockParams(q=0.3, dim=2, max_level=4)
    total = n + k + l
    left = np.kron(r_star(p, n, k), np.eye(p.dim**l)) @ r_star(p, n + k, l)
    right = np.kron(np.eye(p.dim**n), r_star(p, k, l)) @ r_star(p, n, k + l)
    got = r_star3(p, n, k, l)
    assert np.allclose(got, left, atol=1e-12)
    assert np.allclose(got, right, atol=1e-12)
    lhs = symmetrizer(p, total)
    kron3 = np.kron(
        np.kron(symmetrizer(p, n), symmetrizer(p, k)), symmetrizer(p, l)
    )
    assert np.linalg.norm(lhs - kron3 @ got) <= 1e-11 * np.linalg.norm(lhs)


def test_r_star3_reduces_to_two_part():
    p = params()
    assert np.allclose(r_star3(p, 0, 2, 1), r_star(p, 2, 1))
    assert np.allclose(r_star3(p, 1, 0, 2), r_star(p, 1, 2))
    assert np.allclose(r_star3(p, 1, 2, 0), r_star(p, 1, 2))


def test_r_star_level_budget():
    p = params(max_level=2)
    with pytest.raises(LevelTooLarge):
        r_star(p, 2, 1)


def test_params_materialization_budget():
    FockParams(q=0.5, dim=2, max_level=12)  # 4096, at the cap
    with pytest.raises(LevelTooLarge):
        FockParams(q=0.5, dim=2, max_level=13)
    with pytest.raises(LevelTooLarge):
        FockParams(q=0.5, dim=3, max_level=8)
    with pytest.raises(ParamMismatch):
        FockParams(q=1.0, dim=2, max_level=2)


def test_params_budgets_compare_the_exponent_without_forming_the_power():
    # dim^max_level with max_level 1e20 is never formed, so these return
    for make in (
        lambda: FockParams(q=0.5, dim=2, max_level=10**20),
        lambda: FockParams(q=0.5, dim=10**9, max_level=10**20),
        lambda: params().check_level_budget(10**20),
    ):
        with pytest.raises(LevelTooLarge):
            make()
    for dim, m, cap in itertools.product(range(1, 6), range(0, 20), (1, 2, 4096, 65536)):
        assert qfock._power_exceeds(dim, m, cap) == (dim**m > cap), (dim, m, cap)


def test_params_level_cap_binds_at_dim_one():
    FockParams(q=0.5, dim=1, max_level=LEVEL_CAP)
    with pytest.raises(LevelTooLarge, match="level cap"):
        FockParams(q=0.5, dim=1, max_level=LEVEL_CAP + 1)


def test_basis_tensor_checks_the_budget_before_allocating():
    # a dim-long level-1 tensor at this dim is 16 PB: refused at once if
    # the check came after the allocation
    p = FockParams(q=0.3, dim=10**15, max_level=0)
    with pytest.raises(LevelTooLarge):
        basis_tensor(p, [1])


def q_number(q, n):
    """[n]_q = 1 + q + ... + q^(n-1)."""
    return sum(q**i for i in range(n))


def distinct_letter_gram_block(p, n):
    """The level-n Gram at dim n on the n! words with distinct letters,
    with their flat indices.  Column w is P_n e_w = (P_(n-1) (x) 1)
    R*(n-1, 1) e_w, which keeps the dense level-5 Gram (156 MiB) out of
    memory."""
    rows = [
        sum(letter * n ** (n - 1 - slot) for slot, letter in enumerate(word))
        for word in itertools.permutations(range(n))
    ]
    words = np.zeros((len(rows), p.dim**n), dtype=complex)
    words[np.arange(len(rows)), rows] = 1.0
    split = split_tensor(p.q, words.reshape((len(rows),) + (p.dim,) * n), n - 1, 1, offset=1)
    columns = symmetrizer(p, n - 1) @ split.reshape(len(rows), p.dim ** (n - 1), p.dim)
    return rows, columns.reshape(len(rows), -1)[:, rows].T


@pytest.mark.parametrize("q", [0.3, 0.5, 0.8, -0.6])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_distinct_letter_gram_block_has_zagiers_determinant(n, q):
    # On the n! words with distinct letters the level-n Gram is the regular
    # representation of sum_sigma q^inv(sigma) sigma, whose determinant is
    # prod_k (1 - q^(k^2+k))^((n-k) n! / (k^2+k)) (D. Zagier, Comm. Math.
    # Phys. 147, 1992).
    p = FockParams(q=q, dim=n, max_level=n)
    rows, block = distinct_letter_gram_block(p, n)
    blocks = [block]
    if n <= 4:  # the dense Gram too, where it is small
        blocks.append(symmetrizer(p, n)[np.ix_(rows, rows)])
    want = sum(
        (n - k) * len(rows) // (k * k + k) * np.log(1 - q ** (k * k + k)) for k in range(1, n)
    )
    for block in blocks:
        sign, logdet = np.linalg.slogdet(block)
        assert sign == pytest.approx(1.0)
        assert logdet == pytest.approx(want, rel=1e-10, abs=1e-10)
        # the same number from the inverse Cholesky factor W = L^-H
        via_factor = -2.0 * np.sum(np.log(np.diag(psd_inv_sqrt(block)).real))
        assert via_factor == pytest.approx(want, rel=1e-10, abs=1e-10)


@pytest.mark.parametrize("q", [0.5, -0.5, 0.9])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_creation_norm_on_each_level_has_its_closed_form(dim, q):
    # ||a*(e1)||^2 on level m is [m+1]_q for q >= 0 at every dim; for q < 0
    # it is [m+1]_q at dim 1 and 1 at dim >= 2 (Bozejko-Kummerer-Speicher,
    # Comm. Math. Phys. 185, 1997).
    p = FockParams(q=q, dim=dim, max_level=5)
    create = creation(p, np.eye(dim)[0])
    for m in range(5):
        got = create.q_singular_values([m])[0] ** 2
        want = q_number(q, m + 1) if q >= 0 or dim == 1 else 1.0
        assert got == pytest.approx(want, rel=1e-11), m


def test_split_tensor_matches_matrix():
    p = FockParams(q=0.7, dim=2, max_level=4)
    rng = np.random.default_rng(3)
    t = rng.standard_normal((2,) * 4) + 1j * rng.standard_normal((2,) * 4)
    for n, k in [(1, 3), (2, 2), (3, 1)]:
        mat = splitter_matrix(p, (n, k))
        want = split_tensor_by_definition(p.q, t, n, k)
        assert np.allclose((mat @ t.reshape(-1)).reshape(t.shape), want, atol=1e-12)
        assert np.allclose(split_tensor(p.q, t, n, k), want, atol=1e-12)


@settings(max_examples=150, deadline=None)
@given(
    dim=st.integers(1, 3),
    n=st.integers(0, 6),
    k=st.integers(0, 6),
    offset=st.integers(0, 2),
    trailing=st.integers(0, 2),
    q=st.one_of(st.sampled_from([0.0, -0.5, 0.5]), st.floats(-0.99, 0.99)),
    seed=st.integers(0, 2**32 - 1),
)
def test_split_tensor_matches_permutation_sum(dim, n, k, offset, trailing, q, seed):
    assume(n + k <= 6)
    rng = np.random.default_rng(seed)
    shape = (dim,) * (offset + n + k + trailing)
    t = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    got = split_tensor(q, t, n, k, offset=offset)
    want = split_tensor_by_definition(q, t, n, k, offset=offset)
    assert got.shape == t.shape
    assert np.max(np.abs(got - want), initial=0.0) <= 1e-13


def test_split_tensor_above_table_cap_keeps_term_loop():
    # A window above MATRIX_DIM_CAP is served without building a table.
    n, k = 11, 2
    assert 2 ** (n + k) > MATRIX_DIM_CAP
    rng = np.random.default_rng(5)
    t = rng.standard_normal((2,) * (n + k)) + 1j * rng.standard_normal((2,) * (n + k))
    tables = _split_rows.cache_info().currsize
    got = split_tensor(-0.4, t, n, k)
    assert np.allclose(got, split_tensor_by_definition(-0.4, t, n, k), atol=1e-12)
    assert _split_rows.cache_info().currsize == tables


def test_split_weights_stay_bounded_over_a_q_sweep():
    # the weights live in the memo of their (q, dim) pair, and only
    # MEMO_PARAM_PAIRS pairs are kept
    rng = np.random.default_rng(9)
    qs = [-0.9 + 0.11 * i + 1e-3 for i in range(16)]
    splits = [(n, k) for n, k in itertools.product(range(1, 8), repeat=2) if n + k <= 8]
    for q in qs:
        for n, k in splits:
            t = rng.standard_normal((2,) * (n + k))
            split_tensor(q, t, n, k)
        assert _pair_memo.cache_info().currsize <= MEMO_PARAM_PAIRS
    # the kept pairs are the last values of q, each with one table per split
    misses = _pair_memo.cache_info().misses
    for q in qs[-MEMO_PARAM_PAIRS:]:
        held = [key for name, key in _pair_memo(q, 2) if name == "split_weights"]
        assert sorted(held) == splits
    assert _pair_memo.cache_info().misses == misses
    # evicted and rebuilt weights are byte-identical to their definition
    for q in (qs[0], qs[-1]):
        for n, k in [(1, 1), (3, 5), (6, 6)]:
            want = np.array([q**cost for _, cost in _split_terms(n, k)])
            assert _split_weights(q, 2, n, k).tobytes() == want.tobytes()


def test_evicting_a_param_pair_drops_all_its_arrays_together():
    # values of q no other test uses
    p = FockParams(q=0.1357, dim=2, max_level=4)
    symmetrizer(p, 3)
    pairing_form(p, 2)
    splitter_matrix(p, (2, 1))
    split_tensor(p.q, np.ones((2,) * 3), 1, 2)
    names = {name for name, _ in _pair_memo(p.q, p.dim)}
    assert names == {"symmetrizer", "pairing_form", "splitter_matrix", "split_weights"}
    # every memoized call looks its pair up once: a kept pair is a hit
    before = _pair_memo.cache_info()
    assert symmetrizer(p, 3) is symmetrizer(p, 3)
    after = _pair_memo.cache_info()
    assert (after.hits, after.misses) == (before.hits + 2, before.misses)
    # MEMO_PARAM_PAIRS new pairs push it out, each a miss
    for i in range(1, MEMO_PARAM_PAIRS + 1):
        symmetrizer(FockParams(q=p.q + 1e-4 * i, dim=2, max_level=4), 1)
    after = _pair_memo.cache_info()
    assert (after.misses, after.currsize) == (before.misses + MEMO_PARAM_PAIRS, MEMO_PARAM_PAIRS)
    # looked up again, the pair comes back empty: its arrays went together
    assert _pair_memo(p.q, p.dim) == {}
    assert _pair_memo.cache_info().misses == before.misses + MEMO_PARAM_PAIRS + 1


@pytest.mark.parametrize("q", [0.0, 0.5, 0.8])
def test_symmetrizer_norm_is_q_factorial(q):
    # For q >= 0, ||P_m|| = [m]_q!, attained on e_1^(x)m.
    p = FockParams(q=q, dim=2, max_level=8)
    for m in range(1, 9):
        g = symmetrizer(p, m)
        w, _ = hermitian_eig(g)
        assert w[-1] == pytest.approx(q_factorial(q, m), rel=1e-10)
        e1 = basis_tensor(p, [1] * m).reshape(-1)
        assert np.allclose(g @ e1, q_factorial(q, m) * e1, atol=1e-10)


def pairing_value(p, v, w):
    """Contract two same-level tensors through the bilinear pairing form."""
    assert v.shape == w.shape
    return complex(v.reshape(-1) @ pairing_form(p, v.ndim) @ w.reshape(-1))


def test_pairing_values_and_norm():
    p = params(q=0.41)
    e1 = basis_tensor(p, [1])
    assert pairing_value(p, e1, e1) == pytest.approx(1.0)
    # Level-2 pairing evaluated two independent ways.
    v = basis_tensor(p, [1, 2])
    w = basis_tensor(p, [2, 1])
    direct = pairing_value(p, v, w)
    gram = symmetrizer(p, 2)
    via_gram = np.vdot(conjugate_tensor(v).reshape(-1), gram @ w.reshape(-1))
    assert direct == pytest.approx(complex(via_gram))
    for dim in range(1, 6):
        pp = FockParams(q=0.41, dim=dim, max_level=2)
        assert pairing_norm(pp, 1) == pytest.approx(np.sqrt(dim), abs=1e-9)


def test_r_star_q_metric_norm_bounded_by_plain_norm():
    # The q-metric norm of the splitting squared never exceeds its plain
    # operator norm (the boundedness mechanism used for level bounds).
    for q in (0.3, -0.6):
        p = FockParams(q=q, dim=2, max_level=5)
        for n, k in [(1, 1), (1, 2), (2, 2), (3, 2)]:
            mat = r_star(p, n, k)
            plain = np.linalg.norm(mat, 2)
            g_total = symmetrizer(p, n + k)
            g_parts = np.kron(symmetrizer(p, n), symmetrizer(p, k))
            quad = mat.conj().T @ g_parts @ mat
            import scipy.linalg

            vals = scipy.linalg.eigh(quad, g_total, eigvals_only=True)
            qnorm = np.sqrt(max(vals[-1], 0.0))
            assert qnorm**2 <= plain * (1 + 1e-10)


def test_operator_algebra_and_q_norm():
    p = params(q=0.2, max_level=3)
    ident = FockOperator.identity(p)
    assert ident.q_norm() == pytest.approx(1.0)
    create = creation(p, [1.0, 0.0])
    kill = annihilation(p, [1.0, 0.0])
    # On the vacuum: annihilate(create(vacuum)) = vacuum.
    out = kill.apply(create.apply(Element.one(p)))
    assert out.component(0) == pytest.approx(1.0)


def test_hermitian_guard_on_symmetrizer():
    p = params(q=0.5)
    g = symmetrizer(p, 3)
    assert np.allclose(g, g.conj().T)
    with pytest.raises(NotHermitianError):
        hermitian_eig(g + np.triu(np.ones_like(g), 1) * 0.1)
