"""Linear-algebra kernel checks against closed forms and round trips."""

import pathlib
import re

import numpy as np
import pytest

import qfocklab
from qfocklab.errors import NotHermitianError, NotPositiveSemidefinite
from qfocklab.numerics import WHITEN_LEAF, hermitian_eig, psd_inv_sqrt


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
