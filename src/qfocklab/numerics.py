"""Dense complex linear-algebra kernel.

Thin, defensively-checked wrappers over numpy: Hermitian
eigendecomposition through LAPACK, and the inverse Cholesky square root
W = L^-H of a positive definite matrix, built directly by halves from
matmuls alone (no LAPACK factorization).  The latter is the one
factorization by which the library inverts a level Gram, and by which
``verify`` certifies that the level Grams are positive definite: a
pivot that is not positive raises ``NOT_PSD``.  The eigendecomposition's
one library caller is ``gradient.nabla_norm``, through ``_psd_eig``,
which clips the rounding of a term Gram that is only positive
semidefinite.  ``hermitian_gram`` fills a Gram matrix from a pairing,
for the gradient module and the circle model alike.  Everything is
deterministic (fixed LAPACK drivers and matmul orders, no randomized
algorithms), so downstream golden values are stable.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import EigenFailure, NotHermitianError, NotPositiveSemidefinite

HERMITIAN_RTOL = 1e-10
# Whiteners of fewer rows than this are built a column at a time, larger
# ones by halves: the halving's matmuls only pay off above it.
WHITEN_LEAF = 64


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
    Cholesky factor, that is when a pivot is not positive."""
    m = _as_matrix(g)
    if m.shape[0] != m.shape[1]:
        raise NotPositiveSemidefinite(f"matrix is {m.shape}, not square")
    out = np.zeros_like(m)
    _inv_chol(m, out)
    return out


def _inv_chol(g: np.ndarray, out: np.ndarray) -> None:
    """Write W = L^-H of g into the zeroed ``out``, by halves: for
    g = [[A, .], [B, C]] with A whitened by W1 and X = B W1, the Schur
    complement C - X X^H is whitened by W2 and
    W = [[W1, -W1 X^H W2], [0, W2]].  The work is dense matmuls: at
    1024 rows faster than LAPACK's Cholesky factor and triangular
    inverse (2 vCPU, OpenBLAS)."""
    n = g.shape[0]
    if n < WHITEN_LEAF:
        _inv_chol_bordered(g, out)
        return
    h = n // 2
    w1 = out[:h, :h]
    _inv_chol(g[:h, :h], w1)
    x = g[h:, :h] @ w1
    xh = x.conj().T
    schur = x @ xh
    del x
    np.subtract(g[h:, h:], schur, out=schur)
    w2 = out[h:, h:]
    _inv_chol(schur, w2)
    del schur
    top = w1 @ xh
    del xh
    top *= -1.0
    np.matmul(top, w2, out=out[:h, h:])


def _inv_chol_bordered(g: np.ndarray, out: np.ndarray) -> None:
    """The same recursion with a first block of k rows and a second of
    one, for k = 0, 1, ...: W gains one column per row of g."""
    for k in range(g.shape[0]):
        w = out[:k, :k]
        x = g[k, :k] @ w
        pivot = g[k, k].real - np.vdot(x, x).real
        if not pivot > 0.0:
            raise NotPositiveSemidefinite(
                f"matrix has no Cholesky factor: pivot {pivot:.3e} at row {k}"
            )
        r = 1.0 / math.sqrt(pivot)
        x *= -r
        out[:k, k] = w @ x.conj()
        out[k, k] = r
