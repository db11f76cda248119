"""Linear-algebra kernel checks against closed forms and round trips."""

import numpy as np
import pytest

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
    assert np.allclose(psd_inv_sqrt(np.diag([4.0, 0.0])), np.diag([0.5, 0.0]))
    g = np.array([[2.0, 1.0], [1.0, 2.0]])
    inv_half = psd_inv_sqrt(g)
    w, _ = hermitian_eig(inv_half)
    assert np.allclose(w, [1.0 / np.sqrt(3.0), 1.0])
    assert np.allclose(inv_half @ g @ inv_half, np.eye(2), atol=1e-12)


def test_psd_inv_sqrt_rejects_indefinite():
    with pytest.raises(NotPositiveSemidefinite):
        psd_inv_sqrt(np.diag([1.0, -0.5]))


def test_psd_inv_sqrt_rank_tolerance():
    g = np.diag([1.0, 1e-20])
    out = psd_inv_sqrt(g)
    assert out[1, 1] == 0.0
    out = psd_inv_sqrt(g, tol=1e-30)
    assert out[1, 1] == pytest.approx(1e10, rel=1e-6)


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
