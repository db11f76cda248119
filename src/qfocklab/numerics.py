"""Dense complex linear-algebra kernel.

Thin, defensively-checked wrappers over numpy; these three call no
LAPACK routine:

- ``psd_inv_sqrt``, the inverse Cholesky square root W = L^-H of a
  positive definite matrix, built directly by halves from matmuls.  It
  is the one factorization by which the library inverts a level Gram,
  and by which ``verify`` certifies that the level Grams are positive
  definite: a pivot that is not positive raises ``NOT_PSD``.
- ``hermitian_top``, the largest eigenvalue of a Hermitian positive
  semidefinite matrix, by Lanczos with a Rayleigh-Ritz closing step (a
  closed form for two rows or fewer).  Every operator norm goes
  through it: the level norms of ``threshold`` and ``decay``, the
  p = inf Schatten norm, and the commutation-defect norms of
  ``ao-decay`` in both models.
- ``hermitian_gram``, which fills a Gram matrix from a pairing, for the
  gradient module and the circle model alike.

LAPACK's Hermitian eigensolver runs only where a whole spectrum is used:
``eigvalsh`` in ``FockOperator.q_singular_values`` (finite-p Schatten
norms).  LAPACK faults its own code pages into a process, so a run that
needs no such spectrum loads none.  ``hermitian_eig`` (``eigh``) has no
library caller.  Everything is deterministic (fixed LAPACK routines and
matmul orders, fixed Lanczos start vectors, no randomized algorithms),
so downstream golden values are stable.
"""

from __future__ import annotations

import math
import sys

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
    No library code calls it; the tests and the benchmark tracer use it.
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


def hermitian_top(a) -> float:
    """Largest eigenvalue of a Hermitian positive semidefinite matrix,
    read from its lower triangle (as ``eigvalsh`` reads it), by
    matrix-vector products, with no LAPACK call.

    A matrix of one or two rows has the closed form of a 2 x 2 top.  A
    larger one goes to ``_lanczos_top``: O(n^2) work a step, tens of
    steps on a spread spectrum, and at most two where the spectrum's
    weight sits at one value (a multiple of a projector, as every level
    pencil of psi(e_i, e_i) is up to rounding), whose Krylov space then
    closes.  The working set is A's copy and a Lanczos basis of one row
    a step.  A is scaled by a power of two first, exactly, so that the
    squares that the tridiagonal solves form neither overflow nor
    underflow.

    Bound.  The result is a Rayleigh-Ritz value, which does not pass l1
    by more than rounding.  If the eigenvalues that the Krylov spaces
    have not separated from l1 take at most two distinct values (a
    separated top, a degenerate one, or a close pair), the result is
    within a few n eps l1 of l1, as ``eigvalsh`` is: the two vectors of
    the closing step span such a cluster.  Otherwise its error is below
    the width of that cluster.  A matrix whose trace is not positive
    (for a positive semidefinite input, the zero matrix) gives 0.0.
    """
    m = _as_matrix(a)
    n = m.shape[0]
    if m.shape != (n, n):
        raise NotHermitianError(f"matrix is {m.shape}, not square")
    h = np.tril(m, -1)
    h += h.conj().T
    h[np.diag_indices(n)] = m.diagonal().real
    trace = h.trace().real
    if not trace > 0.0:
        return 0.0
    scale = math.frexp(trace)[1]
    h *= math.ldexp(1.0, -scale)
    if n <= 2:
        couple = abs(complex(h[1, 0])) if n == 2 else 0.0
        top = _top2(float(h[0, 0].real), float(h[-1, -1].real), couple)
    else:
        top = _lanczos_top(h, 2 * n * sys.float_info.epsilon)
    return math.ldexp(top, scale)


def _top2(a: float, d: float, b: float) -> float:
    """Top eigenvalue of the Hermitian [[a, b*], [b, d]], given |b|."""
    return (a + d) / 2 + math.hypot((a - d) / 2, b)


def _ritz_top(h: np.ndarray, shift: float, v, dv, x) -> float:
    """Top Ritz value of h - shift on the span of the unit vector v and
    x, where dv = (h - shift) v."""
    top = np.vdot(v, dv).real
    x -= np.vdot(v, x) * v
    norm = math.sqrt(np.vdot(x, x).real)
    if norm > 0.0:
        x /= norm
        dx = h @ x
        dx -= shift * x
        top = _top2(top, np.vdot(x, dx).real, abs(np.vdot(dv, x)))
    return top


def _lanczos_top(h: np.ndarray, tol: float) -> float:
    """Top eigenvalue of the Hermitian positive semidefinite h by
    Lanczos (see ``hermitian_top``).  A first run from a fixed start
    vector finds the top Ritz pair (t1, y1); if its Krylov space closed,
    t1 is exact to rounding.  Otherwise a second run finds the top Ritz
    vector y2 of h on the complement of y1, and one Rayleigh-Ritz step
    of h on y1 and y2 resolves a top cluster of two distinct values,
    which a single Krylov space separates only slowly.  The start
    vectors take their real and imaginary parts from Weyl sequences
    j sqrt(p) mod 1, fixed and far from any symmetry of h, so that
    neither misses its top and the result is deterministic."""
    n = h.shape[0]
    # float indices: an integer array times a float would fault in numpy's
    # casting loops, code that nothing else on the norm paths uses
    j = np.arange(n, dtype=float)
    start = [
        1.0 + j * math.sqrt(a) % 1.0 + 1j * (j * math.sqrt(b) % 1.0)
        for a, b in ((2.0, 3.0), (5.0, 7.0))
    ]
    t1, y1, closed = _lanczos(h, start[0], np.empty((0, n), dtype=complex), tol)
    if closed:
        return t1
    _, y2, _ = _lanczos(h, start[1], y1[None, :], tol)
    dv = h @ y1
    dv -= t1 * y1
    return t1 + _ritz_top(h, t1, y1, dv, y2)


def _lanczos(h: np.ndarray, v: np.ndarray, locked: np.ndarray, tol: float):
    """Top Ritz value of h on the complement of the orthonormal rows of
    ``locked``, by a Lanczos run from v, its unit Ritz vector, and
    whether the Krylov space closed (became invariant or the whole
    complement), where the value, the Rayleigh quotient of the vector,
    is exact to rounding.  Every new vector is reorthogonalized in full
    (classical Gram-Schmidt, twice) against the locked rows and the
    run's basis.  The top eigenvalue of the tridiagonal T is read at
    steps 4, 8, 12, 16, 20, 25, ... (a quarter more each time) below half
    the dimension of the space, and the run stops once it rises by no
    more than tol of itself; past half, finishing the run costs less than
    a second run would, and is exact."""
    n, m = h.shape[0], len(locked)
    dim = n - m
    basis = np.empty((m + min(dim, 16), n), dtype=complex)
    basis[:m] = locked
    w = v.astype(complex)
    alpha: list[float] = []
    beta: list[float] = []
    theta, top_alpha = 0.0, 0.0
    check = 4 if 8 < dim else dim
    for k in range(dim + 1):
        if k:
            q = basis[m + k - 1]
            w = h @ q
            alpha.append(float(np.vdot(q, w).real))
            top_alpha = max(top_alpha, alpha[-1])
        for _ in range(2):
            # <b_i, w> = conj(b_i . conj(w)), with no conjugate copy of the basis
            w -= (basis[: m + k] @ w.conj()).conj() @ basis[: m + k]
        b = math.sqrt(np.vdot(w, w).real)
        closed = k == dim or (k and b <= tol * top_alpha)
        if closed or k == check:
            last, theta = theta, _tridiagonal_top(alpha, beta)
            if closed or theta - last <= tol * theta:
                y = _tridiagonal_vector(alpha, beta, theta) @ basis[m : m + k]
                y /= math.sqrt(np.vdot(y, y).real)
                if closed:
                    # the Rayleigh quotient, as a correction to theta
                    dy = h @ y
                    dy -= theta * y
                    theta += np.vdot(y, dy).real
                return theta, y, closed
            check += max(4, check // 4)
            if 2 * check >= dim:
                check = dim
        if k:
            beta.append(b)
        if m + k == len(basis):
            basis = np.concatenate([basis, np.empty_like(basis)])[:n]
        basis[m + k] = w / b
    raise AssertionError("a Lanczos run closes by the dimension of its space")


def _tridiagonal_top(alpha: list[float], beta: list[float]) -> float:
    """Largest eigenvalue of the real symmetric tridiagonal matrix T with
    diagonal ``alpha`` and off-diagonal ``beta``, from above.  The pivots
    d_i of the LDL^T factorization of x - T are all positive exactly
    when x lies above the spectrum, and with their first two derivatives
    in x give G = sum 1 / (x - l) and H = sum 1 / (x - l)^2 over the
    eigenvalues l.  Laguerre's method, x <- x - k / (G + sqrt((k - 1)
    (k H - G^2))), falls monotonically and cubically from the Gershgorin
    bound onto the top eigenvalue of a real-rooted characteristic
    polynomial; after a step that rounding takes below the top (a pivot
    not positive) the iterate climbs back by factors 1 + 2^j eps.  The
    result is the upper end of the final bracket, within 4 eps of the
    top."""
    k = len(alpha)
    off = [0.0, *beta, 0.0]
    lo = max(alpha)
    hi = max(alpha[i] + off[i] + off[i + 1] for i in range(k))
    eps = sys.float_info.epsilon
    x, rise = hi, 2 * eps
    for _ in range(200):
        d, d1, d2 = x - alpha[0], 1.0, 0.0
        g = h = 0.0
        for i in range(k):
            if i:
                c = beta[i - 1] ** 2 / d
                d, d1, d2 = x - alpha[i] - c, 1.0 + c * d1 / d, c * (d2 - 2.0 * d1 * d1 / d) / d
            if d <= 0.0:
                break
            r1, r2 = d1 / d, d2 / d
            g += r1
            h += r1 * r1 - r2
        if d <= 0.0:
            # Laguerre's steps are accurate to rounding, so the top lies a
            # few ulps above: step up by a growing factor.
            lo = x
            x = min(x * (1.0 + rise), (lo + hi) / 2)
            rise *= 2
        else:
            hi = x
            step = k / (g + math.sqrt(max((k - 1) * (k * h - g * g), 0.0)))
            if step <= eps * x or hi - lo <= 4 * eps * hi:
                break
            x -= step
            if not x > lo:
                x = (lo + hi) / 2
        if not lo < x < hi:
            break
    return hi


def _tridiagonal_vector(alpha: list[float], beta: list[float], theta: float) -> np.ndarray:
    """Unit eigenvector of the tridiagonal T = (alpha, beta) for its top
    eigenvalue, from two steps of inverse iteration with theta at or just
    above it, where theta - T is positive semidefinite and its LDL^T
    factorization stable."""
    k = len(alpha)
    # A pivot that rounding leaves at or below eps theta (theta an
    # eigenvalue of T to working precision) is raised to it, which only
    # scales the solution.
    floor = sys.float_info.epsilon * theta or sys.float_info.min
    d = [max(theta - alpha[0], floor)]
    for i in range(1, k):
        d.append(max(theta - alpha[i] - beta[i - 1] ** 2 / d[-1], floor))
    # Python floats throughout: numpy's scalar arithmetic would fault in
    # code pages that nothing else on the norm paths uses.
    s = [1.0] * k
    for _ in range(2):
        # solve (theta - T) s' = s: L z = s, D L^T s' = z, L unit lower
        # bidiagonal with subdiagonal -beta[i-1] / d[i-1]
        for i in range(1, k):
            s[i] += beta[i - 1] / d[i - 1] * s[i - 1]
        s[k - 1] /= d[k - 1]
        for i in range(k - 2, -1, -1):
            s[i] = s[i] / d[i] + beta[i] / d[i] * s[i + 1]
        top = max(map(abs, s))
        s = [x / top for x in s]
    return np.array(s) / math.sqrt(math.fsum(x * x for x in s))


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
