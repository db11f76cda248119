"""Wick operators and the three mutually-validating product routes."""

from fractions import Fraction
from math import comb

import numpy as np
import pytest

from qfocklab.errors import ShapeMismatch, TruncationLoss
from qfocklab import wick as wick_mod
from qfocklab.partitions import SegmentShape, crossing_number, enumerate_pair_partitions
from qfocklab.qfock import (
    LEVEL_CAP,
    FockOperator,
    FockParams,
    annihilation,
    basis_tensor,
    conjugate_tensor,
    creation,
    pairing_form,
    split_tensor,
    splitter_matrix,
)
from qfocklab.gradient import gradient_map
from qfocklab.wick import (
    Element,
    graded_mul,
    partition_weighted_sum,
    product_direct,
    product_partition,
    product_triple,
    wick,
)
from oracles import gram_adjoint


def params(q=0.5, dim=2, max_level=6):
    return FockParams(q=q, dim=dim, max_level=max_level)


def random_symbol(rng, p, level):
    return rng.standard_normal((p.dim,) * level)


def wick_operator(params, symbol) -> FockOperator:
    """Oracle: the block matrix of the Wick word of ``symbol`` (a tensor or
    basis indices) on the truncated space.  Each (source, target) block
    sums the two-word contraction formula over the contraction size, with
    dense splitters; sources whose image leaves the space are lossy."""
    word = wick(params, symbol)
    n = word.top_level()
    symbol = word.component(n)
    d = params.dim
    blocks: dict[tuple[int, int], np.ndarray] = {}
    lossy = set()
    for m in range(params.max_level + 1):
        if n + m > params.max_level and np.any(symbol):
            lossy.add(m)
        for j in range(min(n, m) + 1):
            dst = n + m - 2 * j
            if dst > params.max_level:
                continue
            if j == 0:
                top = np.kron(symbol.reshape(-1, 1), np.eye(d**m, dtype=complex))
                blocks[(m, dst)] = blocks.get((m, dst), 0) + top
                continue
            t1 = split_tensor(params.q, symbol, n - j, j)
            b = pairing_form(params, j).reshape((d,) * (2 * j))
            step = np.tensordot(t1, b, axes=(list(range(n - j, n)), list(range(j))))
            r3 = splitter_matrix(params, (j, m - j)).reshape((d,) * j + (d ** (m - j), d**m))
            term = np.tensordot(step, r3, axes=(list(range(n - j, n)), list(range(j))))
            blocks[(m, dst)] = blocks.get((m, dst), 0) + term.reshape(d**dst, d**m)
    return FockOperator(params, blocks, frozenset(lossy))


def test_wick_of_vacuum_symbol_is_identity():
    p = params()
    w = wick_operator(p, np.array(1.0))
    for m in range(p.max_level + 1):
        blk = w.blocks.get((m, m))
        assert blk is not None and np.allclose(blk, np.eye(p.dim**m))


def test_wick_level_one_is_creation_plus_annihilation():
    p = params(q=0.37, max_level=4)
    w = wick_operator(p, [1])
    direct = creation(p, [1.0, 0.0]).add(annihilation(p, [1.0, 0.0]))
    for key in set(w.blocks) | set(direct.blocks):
        assert np.allclose(
            w.blocks.get(key, 0.0), direct.blocks.get(key, 0.0), atol=1e-12
        ), key


def test_wick_reproduces_symbol_on_vacuum():
    p = params(q=-0.6, dim=3, max_level=4)
    rng = np.random.default_rng(0)
    for level in range(4):
        sym = random_symbol(rng, p, level)
        assert np.array_equal(wick(p, sym).component(level), np.asarray(sym, dtype=complex))
        out = wick_operator(p, sym).apply(Element.one(p))
        assert np.array_equal(out.component(level), np.asarray(sym, dtype=complex))


def test_wick_block_band_and_parity():
    p = params(q=0.3, dim=2, max_level=6)
    rng = np.random.default_rng(1)
    for n in (1, 2, 3):
        w = wick_operator(p, random_symbol(rng, p, n))
        for (src, dst), blk in w.blocks.items():
            assert abs(dst - src) <= n
            assert (dst - src - n) % 2 == 0
            assert np.any(blk)


def test_element_product_n1_example():
    p = FockParams(q=0.8, dim=1, max_level=4)
    e = Element.word(p, [1])
    prod = e * e
    assert prod.component(0) == pytest.approx(1.0)
    assert np.allclose(prod.component(2), np.ones((1, 1)))


def test_element_product_matches_matrix_action():
    p = params(q=0.45, dim=2, max_level=5)
    rng = np.random.default_rng(2)
    for na, nb in [(1, 1), (2, 1), (1, 3), (2, 2)]:
        a, b = random_symbol(rng, p, na), random_symbol(rng, p, nb)
        via_matrix = wick_operator(p, a).apply(wick_operator(p, b).apply(Element.one(p)))
        via_mul = Element.from_symbol(p, a) * Element.from_symbol(p, b)
        for m in set(via_mul.levels) | set(via_matrix.levels):
            assert np.allclose(
                via_matrix.component(m), via_mul.component(m), atol=1e-11
            )


def test_product_partition_single_word_and_two_words():
    p = params()
    w = wick(p, [1])
    one = product_partition(p, [w])
    assert np.allclose(one.component(1), [1.0, 0.0])
    two = product_partition(p, [w, w])
    assert two.component(0) == pytest.approx(1.0)
    assert np.allclose(two.component(2), basis_tensor(p, [1, 1]))


def test_product_partition_matches_direct_three_words():
    p = params(q=0.6, dim=2, max_level=6)
    rng = np.random.default_rng(3)
    syms = [random_symbol(rng, p, n) for n in (2, 1, 2)]
    via_part = product_partition(p, syms)
    via_direct = product_direct(p, syms)
    num = (via_part - via_direct).q_norm()
    assert num <= 1e-9 * max(via_direct.q_norm(), 1.0)


def test_product_triple_reduces_with_scalar_operand():
    p = params(q=0.5)
    rng = np.random.default_rng(4)
    a, b = random_symbol(rng, p, 2), random_symbol(rng, p, 1)
    with_scalar = product_triple(p, a, np.array(1.0), b)
    two = product_direct(p, [a, b])
    assert (with_scalar - two).q_norm() <= 1e-10


@pytest.mark.parametrize("qval", [0.4, -0.5])
@pytest.mark.parametrize("levels", [(1, 1, 1), (2, 2, 2), (2, 1, 2), (1, 3, 2)])
def test_route_triangle(qval, levels):
    p = params(q=qval, dim=2, max_level=6)
    rng = np.random.default_rng(hash(levels) % 2**32)
    syms = [random_symbol(rng, p, n) for n in levels]
    direct = product_direct(p, syms)
    part = product_partition(p, syms)
    trip = product_triple(p, *syms)
    scale = max(direct.q_norm(), 1.0)
    assert (part - direct).q_norm() <= 1e-9 * scale
    assert (trip - direct).q_norm() <= 1e-9 * scale


def test_route_triangle_dim3():
    p = FockParams(q=-0.3, dim=3, max_level=6)
    rng = np.random.default_rng(7)
    syms = [random_symbol(rng, p, n) for n in (2, 2, 2)]
    direct = product_direct(p, syms)
    part = product_partition(p, syms)
    trip = product_triple(p, *syms)
    scale = max(direct.q_norm(), 1.0)
    assert (part - direct).q_norm() <= 1e-9 * scale
    assert (trip - direct).q_norm() <= 1e-9 * scale


def test_product_partition_rejects_overflow():
    p = params(max_level=3)
    rng = np.random.default_rng(8)
    syms = [random_symbol(rng, p, 2), random_symbol(rng, p, 2)]
    with pytest.raises(TruncationLoss):
        product_partition(p, syms)
    with pytest.raises(TruncationLoss):
        product_triple(p, syms[0], np.array(1.0), syms[1])


def test_trace_examples():
    p = params(q=0.73)
    assert wick(p, np.array(1.0)).trace() == pytest.approx(1.0)
    w = wick(p, [1])
    assert w.trace() == 0.0
    assert (w * w).trace() == pytest.approx(1.0)


def test_trace_is_tracial():
    p = params(q=0.5, max_level=6)
    rng = np.random.default_rng(9)
    for na, nb in [(1, 2), (2, 3), (3, 2)]:
        a = Element.from_symbol(p, random_symbol(rng, p, na))
        b = Element.from_symbol(p, random_symbol(rng, p, nb))
        assert (a * b).trace() == pytest.approx((b * a).trace(), abs=1e-9)


def test_wick_adjoint_is_conjugated_symbol():
    p = params(q=0.35, dim=2, max_level=5)
    rng = np.random.default_rng(10)
    for n in (1, 2, 3):
        sym = random_symbol(rng, p, n)
        adj = gram_adjoint(wick_operator(p, sym))
        flipped = wick_operator(p, conjugate_tensor(np.asarray(sym, dtype=complex)))
        for key, blk in flipped.blocks.items():
            src, dst = key
            if src + n > p.max_level or dst + n > p.max_level:
                continue  # adjoint only matches away from the truncation cut
            assert np.allclose(adj.blocks.get(key, 0.0), blk, atol=1e-9), key


def test_wick_expansion_level_band():
    # A product of level-n and level-k words expands in levels
    # [|n-k|, n+k] with the parity of n+k only.
    p = params(q=0.52, max_level=6)
    rng = np.random.default_rng(11)
    for n, k in [(1, 2), (2, 2), (3, 2)]:
        prod = product_direct(
            p, [random_symbol(rng, p, n), random_symbol(rng, p, k)]
        )
        for m in prod.levels:
            assert abs(n - k) <= m <= n + k
            assert (m - n - k) % 2 == 0


def test_graded_mul_max_out_truncates_exactly():
    p = params(q=0.3)
    rng = np.random.default_rng(12)
    a = {2: random_symbol(rng, p, 2).astype(complex)}
    b = {3: random_symbol(rng, p, 3).astype(complex)}
    full = graded_mul(p, a, b)
    cut = graded_mul(p, a, b, max_out=3)
    assert set(cut) == {m for m in full if m <= 3}
    for m in cut:
        assert np.allclose(cut[m], full[m])


def graded_mul_by_tensordot(p, left, right, weight=None):
    """The two-word product contracted with tensordot, one j at a time,
    with the j-contraction term multiplied by ``weight(j)``."""
    out = {}
    for la, ta in left.items():
        for lb, tb in right.items():
            for j in range(min(la, lb) + 1):
                w = 1 if weight is None else weight(j)
                if w == 0:
                    continue
                t1 = split_tensor(p.q, ta, la - j, j)
                t2 = split_tensor(p.q, tb, j, lb - j)
                b = pairing_form(p, j).reshape((p.dim,) * (2 * j))
                step = np.tensordot(t1, b, axes=(list(range(la - j, la)), list(range(j))))
                term = np.tensordot(step, t2, axes=(list(range(la - j, la)), list(range(j))))
                out[la + lb - 2 * j] = out.get(la + lb - 2 * j, 0) + w * term
    return out


def random_graded(rng, dim, levels):
    return {
        m: rng.standard_normal((dim,) * m) + 1j * rng.standard_normal((dim,) * m)
        for m in levels
    }


@pytest.mark.parametrize("q,dim", [(0.0, 2), (0.45, 2), (-0.6, 3), (0.3, 1)])
def test_graded_mul_matches_tensordot_contraction(q, dim):
    p = FockParams(q=q, dim=dim, max_level=4)
    rng = np.random.default_rng(13)
    left, right = random_graded(rng, dim, [0, 1, 2, 3]), random_graded(rng, dim, [0, 2, 3])
    got = graded_mul(p, left, right)
    want = graded_mul_by_tensordot(p, left, right)
    assert set(got) == set(want)
    for m in want:
        assert np.allclose(got[m], want[m], rtol=0, atol=1e-12)


@pytest.mark.parametrize("q,dim", [(0.0, 2), (-0.6, 3), (0.3, 1)])
def test_graded_mul_weight_scales_each_contraction_term(q, dim):
    p = FockParams(q=q, dim=dim, max_level=4)
    rng = np.random.default_rng(15)
    left, right = random_graded(rng, dim, [0, 1, 2, 3]), random_graded(rng, dim, [0, 2, 3])
    # distinct per j, so a dropped or re-weighted j-term shows; zero at j = 0
    weights = (0.0, 2.0, -0.5j, 3.0)
    got = graded_mul(p, left, right, weight=weights.__getitem__)
    want = graded_mul_by_tensordot(p, left, right, weights.__getitem__)
    assert set(got) == set(want)
    assert 6 not in got  # only j = 0 reaches level 3 + 3
    for m in want:
        assert np.allclose(got[m], want[m], rtol=0, atol=1e-12)


def test_graded_mul_unit_weight_is_bit_identical():
    p = FockParams(q=0.37, dim=2, max_level=4)
    rng = np.random.default_rng(14)
    left, right = random_graded(rng, 2, [0, 1, 2, 3]), random_graded(rng, 2, [0, 2, 3])
    for max_out in (None, 3):
        plain = graded_mul(p, left, right, max_out)
        unit = graded_mul(p, left, right, max_out, weight=lambda j: 1)
        assert set(unit) == set(plain)
        for m in plain:
            assert unit[m].tobytes() == plain[m].tobytes()


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("q,dim", [(0.0, 2), (0.45, 2), (-0.6, 3), (0.3, 1)])
def test_graded_mul_batch_axis_matches_per_slice_loop(side, q, dim):
    p = FockParams(q=q, dim=dim, max_level=4)
    rng = np.random.default_rng(17)
    width = 5
    left, right = random_graded(rng, dim, [0, 1, 2, 3]), random_graded(rng, dim, [0, 2, 3])
    batched = left if side == "left" else right
    for m in batched:
        extra = [random_graded(rng, dim, [m])[m] for _ in range(width - 1)]
        batched[m] = np.stack([batched[m], *extra], -1)
    weights = (0.0, 2.0, -0.5j, 3.0)
    for max_out in (None, 3):
        for weight in (None, weights.__getitem__):
            got = graded_mul(p, left, right, max_out, weight, batched=side)
            slices = []
            for i in range(width):
                cut = {m: t[..., i] for m, t in batched.items()}
                pair = (cut, right) if side == "left" else (left, cut)
                slices.append(graded_mul(p, *pair, max_out, weight))
            assert set(got) == set().union(*slices)
            for m, t in got.items():
                want = np.stack([s.get(m, np.zeros(t.shape[:-1])) for s in slices], -1)
                assert t.shape == want.shape
                assert np.max(np.abs(t - want)) <= 1e-13 * np.max(np.abs(want)), (m, max_out)
                # slices take the unbatched products, so they agree bit for bit
                assert np.array_equal(t, want), (m, max_out)


def test_graded_mul_zero_weight_skips_the_term(monkeypatch):
    
    seen = []
    real = wick_mod.split_tensor

    def recording(q, t, n, k, offset=0):
        seen.append((n, k))
        return real(q, t, n, k, offset)

    monkeypatch.setattr(wick_mod, "split_tensor", recording)
    p = params(q=0.3)
    rng = np.random.default_rng(16)
    left, right = random_graded(rng, 2, [2]), random_graded(rng, 2, [1, 2])
    graded_mul(p, left, right, weight=lambda j: float(j != 1))
    # only the j = 2 term splits; the j = 1 terms would add (1, 0) and (1, 1) twice
    assert seen == [(0, 2), (2, 0)]


def test_partition_products_need_pure_levels():
    p = params()
    mixed = Element(p, {1: basis_tensor(p, [1]), 2: basis_tensor(p, [1, 1])})
    with pytest.raises(ShapeMismatch):
        product_partition(p, [mixed])
    with pytest.raises(ShapeMismatch):
        product_triple(p, mixed, Element.word(p, [1]), Element.word(p, [2]))


def test_zero_word_is_level_0_and_gives_the_zero_product():
    p = params(q=0.4, max_level=5)
    word = wick(p, [1, 2])
    zero = wick(p, np.zeros((2, 2)))
    assert zero.levels == {}
    # at level 0 the level sum 2 + 0 + 2 fits in the truncation
    assert product_direct(p, [word, zero, word]).is_zero()
    assert not product_partition(p, [word, zero, word]).levels
    assert not product_triple(p, word, zero, word).levels


SPLITTER_FREE = {
    "product_direct": lambda p, a, b: product_direct(p, [a, b, a]),
    "product_partition": lambda p, a, b: product_partition(p, [a, b, a]),
    "product_triple": lambda p, a, b: product_triple(p, a, b, a),
    "gradient_map-direct": lambda p, a, b: gradient_map(a, b, 0.0, "direct"),
    "gradient_map-partition": lambda p, a, b: gradient_map(a, b, 0.0, "partition"),
    "gradient_map-rstar": lambda p, a, b: gradient_map(a, b, 0.0, "rstar"),
}


@pytest.mark.parametrize("route", SPLITTER_FREE)
def test_no_product_or_gradient_map_route_builds_a_dense_splitter(route):
    from qfocklab.qfock import _pair_memo

    # a q no other test or route uses, so any splitter it built would be new
    p = params(q=0.3719 + 1e-4 * list(SPLITTER_FREE).index(route), dim=2, max_level=5)
    # the routes read the symbols only
    SPLITTER_FREE[route](p, wick(p, [1, 2]), wick(p, [1]))
    assert "splitter_matrix" not in {name for name, _ in _pair_memo(p.q, p.dim)}


def test_package_attributes_named_after_submodules_are_the_submodules():
    import importlib
    import inspect
    import pkgutil

    import qfocklab

    names = [info.name for info in pkgutil.iter_modules(qfocklab.__path__)]
    assert "wick" in names
    for name in names:
        mod = importlib.import_module(f"qfocklab.{name}")
        assert getattr(qfocklab, name) is mod, name
    assert inspect.ismodule(qfocklab.wick)
    assert qfocklab.wick.wick is wick


def test_importing_the_package_loads_no_submodule_and_no_numpy():
    import os
    import subprocess
    import sys

    import qfocklab

    script = (
        "import sys\n"
        "import qfocklab\n"
        "print(sorted(m for m in sys.modules if m.startswith(('qfocklab.', 'numpy'))))\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(qfocklab.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"



def touchard_riordan(q: Fraction, k: int) -> Fraction:
    """<vacuum, s(e1)^2k vacuum>, the sum over pair partitions of 2k points
    of q^crossings, in closed form (J. Riordan, Math. Comp. 29, 1975)."""
    ballots = [comb(2 * k, k - j) - comb(2 * k, k - j - 1) for j in range(k)] + [1]
    total = sum((-1) ** j * q ** (j * (j + 1) // 2) * b for j, b in enumerate(ballots))
    return total / (1 - q) ** k


def _moment_by_three_word_route(p, route, k):
    """<vacuum, s(e1)^2k vacuum>, applying s(e1) s(e1) k times: each step
    is one three-word product per level of the vector so far."""
    e1 = wick(p, [1])
    x = Element.one(p)
    for _ in range(k):
        steps = (route(p, e1, e1, Element(p, {m: t})) for m, t in x.levels.items())
        x = sum(steps, Element.zero(p))
    return x.trace()


@pytest.mark.parametrize("q", [Fraction(3, 10), Fraction(-7, 10)], ids=["0.3", "-0.7"])
def test_vacuum_moments_match_touchard_riordan_by_every_route(q):
    p = FockParams(q=float(q), dim=1, max_level=12)
    e1 = wick(p, [1])
    for k in range(1, 7):
        want = touchard_riordan(q, k)
        if k <= 5:
            pairings = [
                part
                for part in enumerate_pair_partitions(SegmentShape((1,) * (2 * k)))
                if not part.singletons
            ]
            assert sum(q ** crossing_number(part).regular for part in pairings) == want
        moments = {
            "direct": product_direct(p, [e1] * (2 * k)).trace(),
            "partition": _moment_by_three_word_route(
                p, lambda p, *words: product_partition(p, words), k
            ),
            "rstar": _moment_by_three_word_route(p, product_triple, k),
        }
        for route, got in moments.items():
            assert got.imag == 0.0, route
            assert got.real == pytest.approx(float(want), rel=1e-12, abs=0), (route, k)


def test_level_cap_keeps_every_einsum_spec_in_the_alphabet():
    # the product routes label each einsum axis by an integer; numpy takes
    # LEVEL_CAP + 1 labels, and its path search needs the last one for
    # the batch axis
    fits = np.ones((1,) * (LEVEL_CAP + 1) + (2,))
    assert np.einsum(fits, list(range(LEVEL_CAP + 1)) + [...], [...]).shape == (2,)
    with pytest.raises(ValueError):
        np.einsum(np.ones((1,) * (LEVEL_CAP + 2)), list(range(LEVEL_CAP + 2)), [])
    p = FockParams(q=0.3, dim=1, max_level=LEVEL_CAP)
    a = wick(p, [1])
    psi = gradient_map(a, a, 0.0, "rstar")
    assert psi.blocks[LEVEL_CAP - 2, LEVEL_CAP - 2].shape == (1, 1)


def test_partition_route_reaches_the_level_cap():
    # at dim 1, the word of level 1 times the word of level 50: the pair
    # that skips k singletons weighs q^k, so level 49 carries [50]_q
    q = 0.3
    p = FockParams(q=q, dim=1, max_level=LEVEL_CAP)
    out = partition_weighted_sum(p, [basis_tensor(p, [1]), basis_tensor(p, [1] * 50)])
    assert sorted(out) == [49, 51]
    assert out[51].reshape(-1)[0] == 1.0
    assert out[49].reshape(-1)[0] == pytest.approx((1 - q**50) / (1 - q), rel=1e-12, abs=0)
