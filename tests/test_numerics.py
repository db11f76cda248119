"""Linear-algebra kernel checks against closed forms and round trips."""

import ast
import pathlib
import re

import numpy as np
import pytest

import qfocklab
from qfocklab import numerics
from qfocklab.errors import EigenFailure, NotHermitianError, NotPositiveSemidefinite
from qfocklab.numerics import (
    TOP_SQUARINGS,
    WHITEN_LEAF,
    hermitian_eig,
    hermitian_top,
    psd_inv_sqrt,
)

EPS = np.finfo(float).eps


def random_matrix(rng, n, m=None):
    m = n if m is None else m
    return rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))


def test_hermitian_eig_trivials():
    w, _ = hermitian_eig(np.eye(3))
    assert np.allclose(w, [1, 1, 1])
    w, _ = hermitian_eig(np.diag([2.0, -1.0]))
    assert np.allclose(w, [-1, 2])
    w, _ = hermitian_eig(np.array([[0, 1], [1, 0]], dtype=float))
    assert np.allclose(w, [-1, 1])


def test_hermitian_eig_reconstructs():
    rng = np.random.default_rng(7)
    for n in (2, 5, 17):
        a = random_matrix(rng, n)
        h = a + a.conj().T
        w, v = hermitian_eig(h)
        assert np.all(np.diff(w) >= -1e-12)
        recon = (v * w) @ v.conj().T
        assert np.linalg.norm(recon - h) <= 1e-9 * np.linalg.norm(h)
        assert np.linalg.norm(v @ v.conj().T - np.eye(n)) <= 1e-9


def test_hermitian_eig_rejects_non_hermitian():
    with pytest.raises(NotHermitianError):
        hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(NotHermitianError):
        hermitian_eig(np.ones((2, 3)))


def test_psd_inv_sqrt_whitens():
    assert np.allclose(psd_inv_sqrt(np.eye(4)), np.eye(4))
    assert np.allclose(psd_inv_sqrt(np.diag([4.0, 1.0])), np.diag([0.5, 1.0]))
    rng = np.random.default_rng(11)
    for n in (2, 5, 17, WHITEN_LEAF + 3):
        a = random_matrix(rng, n)
        g = a @ a.conj().T + np.eye(n)
        w = psd_inv_sqrt(g)
        assert np.array_equal(np.triu(w), w)
        assert np.linalg.norm(w.conj().T @ g @ w - np.eye(n)) <= 1e-10 * n
        g_inv = np.linalg.inv(g)
        assert np.linalg.norm(w @ w.conj().T - g_inv) <= 1e-10 * np.linalg.norm(g_inv)


def test_psd_inv_sqrt_rejects_indefinite():
    # diag(4, 0) is semidefinite but singular: it has no Cholesky factor.
    # [[1, 1], [1, 1]] has a positive diagonal; its Schur complement is 0.
    for g in (np.diag([1.0, -0.5]), np.diag([4.0, 0.0]), np.ones((2, 2))):
        with pytest.raises(NotPositiveSemidefinite) as err:
            psd_inv_sqrt(g)
        assert err.value.code == "NOT_PSD"


def test_psd_inv_sqrt_of_empty_and_scalar_matrices():
    assert psd_inv_sqrt(np.zeros((0, 0))).shape == (0, 0)
    assert psd_inv_sqrt([[4.0]]).tolist() == [[0.5]]
    for pivot in (0.0, -1.0):
        with pytest.raises(NotPositiveSemidefinite):
            psd_inv_sqrt([[pivot]])


def test_psd_inv_sqrt_refuses_a_non_square_matrix():
    for shape in ((2, 3), (WHITEN_LEAF + 1, WHITEN_LEAF)):
        with pytest.raises(NotPositiveSemidefinite) as err:
            psd_inv_sqrt(np.ones(shape))
        assert err.value.code == "NOT_PSD"


@pytest.mark.parametrize("n", [WHITEN_LEAF + 1, 2 * WHITEN_LEAF])
def test_psd_inv_sqrt_rejects_a_pivot_failing_in_a_schur_complement(n):
    # The diagonal is positive and the leading block positive definite; only
    # the last pivot, the Schur complement c - b A^-1 b^H = -c, fails.  Past
    # the leaf it fails in the whitening of the second half.
    rng = np.random.default_rng(n)
    a = random_matrix(rng, n - 1)
    g = np.zeros((n, n), dtype=complex)
    g[:-1, :-1] = a @ a.conj().T + np.eye(n - 1)
    g[-1, :-1] = random_matrix(rng, 1, n - 1)
    g[:-1, -1] = g[-1, :-1].conj()
    g[-1, -1] = (g[-1, :-1] @ np.linalg.inv(g[:-1, :-1]) @ g[:-1, -1]).real / 2
    psd_inv_sqrt(g[:-1, :-1])
    with pytest.raises(NotPositiveSemidefinite) as err:
        psd_inv_sqrt(g)
    assert err.value.code == "NOT_PSD"


@pytest.mark.parametrize("n", [WHITEN_LEAF - 1, WHITEN_LEAF, WHITEN_LEAF + 1, 127, 1024])
def test_psd_inv_sqrt_whitens_and_inverts(n):
    # Sizes on each side of the leaf, where the halving starts, an uneven
    # split (127) and a deep one (1024).  The strict upper triangle is
    # never read: garbage there leaves W bit-identical.
    rng = np.random.default_rng(n)
    a = random_matrix(rng, n)
    g = a @ a.conj().T + n * np.eye(n)
    w = psd_inv_sqrt(g)
    assert not np.any(np.tril(w, -1))
    assert np.linalg.norm(w.conj().T @ g @ w - np.eye(n)) <= 1e-10 * n
    g_inv = np.linalg.inv(g)
    assert np.linalg.norm(w @ w.conj().T - g_inv) <= 1e-10 * np.linalg.norm(g_inv)
    garbage = np.tril(g) + np.triu(random_matrix(rng, n), 1)
    assert np.array_equal(psd_inv_sqrt(garbage), w)


def test_only_numerics_inverts_or_factors_a_matrix():
    # Every inverse of a level Gram goes through ``psd_inv_sqrt``, which
    # factors with matmuls alone: the library's LAPACK use is the Hermitian
    # eigensolvers, so no run loads the code of another LAPACK family.
    call = re.compile(
        r"linalg\.(inv|cholesky|pinv|solve|lstsq|svd|qr)\b|polyfit|from\s+numpy\.linalg\s+import"
    )
    src = pathlib.Path(qfocklab.__file__).parent
    offenders = [
        f"{path.name}:{n}"
        for path in sorted(src.glob("*.py"))
        for n, line in enumerate(path.read_text().splitlines(), 1)
        if call.search(line)
    ]
    assert offenders == []


def test_only_full_spectra_reach_a_lapack_eigensolver():
    # Operator norms need only the top eigenvalue, which hermitian_top finds
    # by matmuls; LAPACK's eigensolvers run where a whole spectrum is read.
    allowed = {("numerics.py", "hermitian_eig"), ("qfock.py", "FockOperator.q_singular_values")}
    src = pathlib.Path(qfocklab.__file__).parent
    found = set()
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())

        def visit(node, scope):
            for child in ast.iter_child_nodes(node):
                inner = scope
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    inner = f"{scope}.{child.name}" if scope else child.name
                name = getattr(child, "attr", None) or getattr(child, "id", None)
                if name in ("eigh", "eigvalsh"):
                    found.add((path.name, scope))
                visit(child, inner)

        visit(tree, "")
    assert found == allowed


def unitary(rng, n):
    q, r = np.linalg.qr(random_matrix(rng, n))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def with_spectrum(rng, lam):
    u = unitary(rng, len(lam))
    return (u * lam) @ u.conj().T


def spectrum(rng, n, top):
    """Eigenvalues uniform in [0, 0.9), the last ones replaced by ``top``."""
    lam = rng.uniform(0.0, 0.9, n)
    lam[n - len(top) :] = top[::-1]
    return lam


# Tops of a spectrum with every other eigenvalue below 0.9, top eigenvalue 1:
# degenerate, separated (relative gap 1e-6) and close pairs 1 - delta.
TOPS = {
    "simple": [1.0],
    "double": [1.0, 1.0],
    "triple": [1.0, 1.0, 1.0],
    "gap-1e-6": [1.0, 1.0 - 1e-6],
    **{f"pair-{d:.0e}": [1.0, 1.0 - d] for d in (1e-8, 1e-9, 1e-10, 1e-11, 1e-12, 1e-13)},
}


@pytest.mark.parametrize(
    "n, top",
    [
        pytest.param(n, top, id=f"{n}-{name}")
        for n in (1, 2, 63, 64, 65, 256)
        for name, top in TOPS.items()
        if len(top) <= n
    ],
)
def test_hermitian_top_matches_eigvalsh(n, top, monkeypatch):
    # A top cluster of at most two distinct values is resolved to within a
    # few n eps, as eigvalsh resolves it; garbage in the strict upper
    # triangle is never read, and no input takes more than TOP_SQUARINGS.
    rng = np.random.default_rng(n * 100 + len(top))
    a = with_spectrum(rng, spectrum(rng, n, top))
    squarings = count_squarings(monkeypatch)
    got = hermitian_top(a)
    assert len(squarings) <= TOP_SQUARINGS
    assert abs(got - np.linalg.eigvalsh(a)[-1]) <= 4 * n * EPS
    assert abs(got - 1.0) <= 4 * n * EPS
    garbage = np.tril(a) + np.triu(random_matrix(rng, n), 1)
    assert hermitian_top(garbage) == got


def test_hermitian_top_of_a_rank_one_matrix():
    rng = np.random.default_rng(3)
    for n in (1, 2, 64, 65):
        v = random_matrix(rng, n, 1)
        norm2 = float(np.vdot(v, v).real)
        assert abs(hermitian_top(v @ v.conj().T) - norm2) <= 4 * n * EPS * norm2


@pytest.mark.parametrize("delta", [1e-8, 1e-10, 1e-12])
def test_hermitian_top_of_a_wider_cluster_lies_within_it(delta):
    # Three distinct values within 2 delta of the top: the bound is the
    # cluster's width, and the result does not pass the top.
    rng = np.random.default_rng(5)
    a = with_spectrum(rng, spectrum(rng, 64, [1.0, 1.0 - delta, 1.0 - 2 * delta]))
    got = hermitian_top(a)
    assert 1.0 - 2 * delta < got <= 1.0 + 4 * 64 * EPS


def test_hermitian_top_of_zero_empty_and_scalar_matrices():
    assert hermitian_top(np.zeros((0, 0))) == 0.0
    assert hermitian_top(np.zeros((5, 5))) == 0.0
    assert hermitian_top([[3.0]]) == 3.0
    assert hermitian_top(np.diag([1e-300, 2e-300])) == 2e-300
    assert hermitian_top(np.diag([1e300, 2e300])) == 2e300


def test_hermitian_top_refuses_non_square_and_non_finite_matrices():
    with pytest.raises(NotHermitianError):
        hermitian_top(np.ones((2, 3)))
    with pytest.raises(EigenFailure):
        hermitian_top(np.array([[1.0, 0.0], [np.nan, 1.0]]))


def count_squarings(monkeypatch) -> list:
    squarings = []
    real = numerics._squared
    monkeypatch.setattr(numerics, "_squared", lambda b: squarings.append(1) or real(b))
    return squarings


def test_hermitian_top_hands_unsettled_squarings_to_lanczos(monkeypatch):
    # The column of largest diagonal, e_0, is an eigenvector with the
    # eigenvalue tr(A^2) / tr(A) = 1, so the spectrum looks settled to the
    # one-product check, but 1.2, 1 and 0.4 keep the Rayleigh quotient
    # rising: after TOP_SQUARINGS the matrix goes to Lanczos.
    squarings = count_squarings(monkeypatch)
    a = np.zeros((3, 3))
    a[0, 0] = 1.0
    a[1:, 1:] = [[0.8, 0.4], [0.4, 0.8]]
    got = hermitian_top(a)
    assert len(squarings) == TOP_SQUARINGS
    assert abs(got - 1.2) <= 4 * 3 * EPS * 1.2


@pytest.mark.parametrize("n", [2, 17, 64, 256])
def test_hermitian_top_of_a_spread_spectrum_takes_no_squaring(n, monkeypatch):
    # A Wishart matrix, whose top eigenvalues are apart by a relative
    # 1e-3 to 1e-1: squaring would take some twelve matmuls, Lanczos takes
    # none, and the result is as close to eigvalsh's as eigvalsh's error.
    squarings = count_squarings(monkeypatch)
    rng = np.random.default_rng(n)
    g = random_matrix(rng, n)
    a = g @ g.conj().T
    top = np.linalg.eigvalsh(a)[-1]
    got = hermitian_top(a)
    assert squarings == []
    assert abs(got - top) <= 4 * n * EPS * top
    assert hermitian_top(a) == got


def test_hermitian_top_of_a_low_rank_spread_matrix_takes_one_lanczos_run(monkeypatch):
    # Three distinct nonzero eigenvalues: the first Krylov space, the start
    # vector's null-space part and the range, closes after four steps, so
    # its value is exact and no second run is made.
    runs = []
    real = numerics._tridiagonal_vector
    monkeypatch.setattr(
        numerics, "_tridiagonal_vector", lambda *args: runs.append(len(args[0])) or real(*args)
    )
    rng = np.random.default_rng(3)
    n = 100
    a = with_spectrum(rng, np.r_[np.zeros(n - 3), 0.25, 0.5, 1.0])
    assert abs(hermitian_top(a) - 1.0) <= 4 * n * EPS
    assert runs == [4]


@pytest.mark.parametrize("n", [3, 64, 129])
def test_hermitian_top_is_not_hidden_by_a_symmetry(n):
    # 2 - J / n, J the all-ones matrix, is invariant under every permutation
    # of the basis: its top 2 lives on the vectors that sum to zero, so a
    # symmetric start vector would find only the eigenvalue 1 of the ones.
    a = 2.0 * np.eye(n) - np.ones((n, n)) / n
    assert abs(hermitian_top(a) - 2.0) <= 4 * n * EPS * 2.0


@pytest.mark.parametrize("k", [1, 2, 5, 40])
def test_tridiagonal_top_matches_eigh(k):
    rng = np.random.default_rng(k)
    alpha = rng.uniform(0.0, 1.0, k).tolist()
    beta = rng.uniform(0.1, 1.0, k - 1).tolist()
    t = np.diag(alpha) + np.diag(beta, 1) + np.diag(beta, -1)
    w, v = np.linalg.eigh(t)
    theta = numerics._tridiagonal_top(alpha, beta)
    s = numerics._tridiagonal_vector(alpha, beta, theta)
    assert w[-1] <= theta <= w[-1] + 4 * k * EPS * w[-1]
    assert abs(abs(s @ v[:, -1]) - 1.0) <= 1e-12
