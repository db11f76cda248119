"""Dense complex linear-algebra kernel.

Thin, defensively-checked wrappers around LAPACK via numpy: Hermitian
eigendecomposition, and the inverse Cholesky square root of a positive
definite matrix through the inverse of its lower-triangular factor.
The latter is the one factorization by which the library inverts a
level Gram, and by which ``verify`` certifies that the level Grams are
positive definite.  The eigendecomposition's one library caller is
``gradient.nabla_norm``, through ``_psd_eig``, which clips the rounding
of a term Gram that is only positive semidefinite.  ``hermitian_gram``
fills a Gram matrix from a pairing, for the gradient module and the
circle model alike.  Everything is deterministic (fixed LAPACK drivers,
no randomized algorithms), so downstream golden values are stable.
"""

from __future__ import annotations

import numpy as np

from .errors import EigenFailure, NotHermitianError, NotPositiveSemidefinite

HERMITIAN_RTOL = 1e-10
# Lower-triangular matrices smaller than this are inverted by LAPACK,
# larger ones by halves (``tril_inv``).
TRIL_INV_LEAF = 64


def _as_matrix(a) -> np.ndarray:
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise EigenFailure(f"expected a matrix, got ndim={m.ndim}")
    if not np.all(np.isfinite(m)):
        raise EigenFailure("matrix has non-finite entries")
    return m


def hermitian_eig(a):
    """Eigendecomposition of a Hermitian matrix.

    Returns (eigenvalues ascending, eigenvectors as columns) with
    a = V diag(w) V*.  Raises NOT_HERMITIAN if the input deviates from
    its adjoint by more than ``HERMITIAN_RTOL`` relative to its norm.
    """
    m = _as_matrix(a)
    if m.shape[0] != m.shape[1]:
        raise NotHermitianError(f"matrix is {m.shape}, not square")
    scale = max(np.linalg.norm(m), 1.0)
    if np.linalg.norm(m - m.conj().T) > HERMITIAN_RTOL * scale:
        raise NotHermitianError("matrix is not Hermitian within tolerance")
    try:
        w, v = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise EigenFailure(str(exc)) from exc
    return w, v


def hermitian_gram(items: list, pairing) -> np.ndarray:
    """Gram matrix of ``pairing`` over ``items``, filled on i <= j and
    mirrored by conjugation."""
    n = len(items)
    g = np.zeros((n, n), dtype=complex)
    for i in range(n):
        for j in range(i, n):
            val = pairing(items[i], items[j])
            g[i, j] = val
            g[j, i] = np.conj(val)
    return g


def _psd_eig(g, tol: float):
    """Eigendecomposition of a Hermitian g with its eigenvalues clipped
    at 0; raises NOT_PSD for an eigenvalue below -tol times the largest
    magnitude."""
    w, v = hermitian_eig(g)
    cut = tol * max(abs(float(w[-1])) if w.size else 0.0, 1e-300)
    if w.size and float(w[0]) < -cut:
        raise NotPositiveSemidefinite(
            f"matrix has eigenvalue {w[0]:.3e} below -{cut:.3e}"
        )
    return np.clip(w, 0.0, None), v


def psd_inv_sqrt(g) -> np.ndarray:
    """Inverse Cholesky square root: the upper-triangular W = L^-H,
    where g = L L^H, so W^H g W = 1 and W W^H = g^-1.  Only the lower
    triangle of the Hermitian g is read.  Raises NOT_PSD when g has no
    Cholesky factor."""
    try:
        low = np.linalg.cholesky(_as_matrix(g))
    except np.linalg.LinAlgError as exc:
        raise NotPositiveSemidefinite(f"matrix has no Cholesky factor: {exc}") from exc
    return tril_inv(low).conj().T


def tril_inv(low: np.ndarray) -> np.ndarray:
    """Inverse of a nonsingular lower-triangular matrix, by halves:
    [[A, 0], [C, D]]^-1 = [[A^-1, 0], [-D^-1 C A^-1, D^-1]].  The work
    is dense matmuls on the nonzero halves: at 1024 rows about three
    times faster than a general ``np.linalg.inv`` (2 vCPU, OpenBLAS)."""
    n = low.shape[0]
    if n < TRIL_INV_LEAF:
        # inv's LU pivots, and a pivot can leave rounding above the diagonal.
        return np.tril(np.linalg.inv(low))
    h = n // 2
    a_inv = tril_inv(low[:h, :h])
    d_inv = tril_inv(low[h:, h:])
    out = np.zeros_like(low)
    out[:h, :h] = a_inv
    out[h:, h:] = d_inv
    out[h:, :h] = -(d_inv @ low[h:, :h]) @ a_inv
    return out
