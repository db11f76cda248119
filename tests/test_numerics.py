"""Linear-algebra kernel checks against closed forms and round trips."""

import pathlib
import re

import numpy as np
import pytest

import qfocklab
from qfocklab.errors import NotHermitianError, NotPositiveSemidefinite
from qfocklab.numerics import TRIL_INV_LEAF, hermitian_eig, psd_inv_sqrt, tril_inv


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
    for n in (2, 5, 17, TRIL_INV_LEAF + 3):
        a = random_matrix(rng, n)
        g = a @ a.conj().T + np.eye(n)
        w = psd_inv_sqrt(g)
        assert np.array_equal(np.triu(w), w)
        assert np.linalg.norm(w.conj().T @ g @ w - np.eye(n)) <= 1e-10 * n
        g_inv = np.linalg.inv(g)
        assert np.linalg.norm(w @ w.conj().T - g_inv) <= 1e-10 * np.linalg.norm(g_inv)


def test_psd_inv_sqrt_rejects_indefinite():
    # diag(4, 0) is semidefinite but singular: it has no Cholesky factor.
    for g in (np.diag([1.0, -0.5]), np.diag([4.0, 0.0])):
        with pytest.raises(NotPositiveSemidefinite) as err:
            psd_inv_sqrt(g)
        assert err.value.code == "NOT_PSD"


@pytest.mark.parametrize("n", [TRIL_INV_LEAF - 1, TRIL_INV_LEAF, TRIL_INV_LEAF + 1, 127, 1024])
def test_tril_inv_matches_general_inverse(n):
    # Sizes on each side of the leaf, where the halving starts, and an
    # uneven split (127) and a deep one (1024).
    rng = np.random.default_rng(n)
    a = random_matrix(rng, n)
    low = np.linalg.cholesky(a @ a.conj().T + n * np.eye(n))
    got = tril_inv(low)
    want = np.linalg.inv(low)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    assert not np.any(np.triu(got, 1))


def test_tril_inv_is_triangular_where_lu_pivots():
    # Entries below the diagonal larger than it make the LU inside a general
    # inverse swap rows, which fills the upper triangle with rounding.
    rng = np.random.default_rng(0)
    low = np.tril(random_matrix(rng, 17), -1) + 2.0 * np.eye(17)
    got = tril_inv(low)
    assert not np.any(np.triu(got, 1))
    assert np.linalg.norm(got @ low - np.eye(17)) <= 1e-12


def test_only_numerics_inverts_or_factors_a_matrix():
    # Every inverse of a level Gram goes through ``psd_inv_sqrt``.
    call = re.compile(r"linalg\.(inv|cholesky|pinv)\b|from\s+numpy\.linalg\s+import")
    src = pathlib.Path(qfocklab.__file__).parent
    offenders = [
        f"{path.name}:{n}"
        for path in sorted(src.glob("*.py"))
        if path.name != "numerics.py"
        for n, line in enumerate(path.read_text().splitlines(), 1)
        if call.search(line)
    ]
    assert offenders == []
