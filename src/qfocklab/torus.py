"""Closed-form circle model: frequency modes under the heat and Poisson
semigroups.

Every coefficient here is exact (integers or rationals); floats appear
only in the norm layer.  The heat generator squares the frequency, the
Poisson generator takes its absolute value; their gradient maps come
out in closed form, which makes this model the bit-exact oracle for the
generic machinery on diagonal multipliers.  ``psi_table`` lists a
gradient map's coefficients over a symmetric frequency window.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import WindowOverflow
from .numerics import hermitian_gram, hermitian_top


def heat_symbol(k: int) -> int:
    return k * k


def poisson_symbol(k: int) -> int:
    return abs(k)


def generic_psi_coefficient(symbol, l: int, m: int, k: int) -> Fraction:
    """Gradient-map coefficient of a diagonal multiplier generator:
    -(1/2) (s(l+k+m) + s(k) - s(l+k) - s(k+m)); the output mode is
    always l+k+m."""
    total = symbol(l + k + m) + symbol(k) - symbol(l + k) - symbol(k + m)
    return Fraction(-total, 2)


def heat_psi_coefficient(l: int, m: int, k: int) -> int:
    """Closed form for the squared-frequency generator: -l*m for all k.

    Pure integer arithmetic; the four-term generator combination is
    evaluated and compared exactly before the closed form is returned.
    """
    total = heat_symbol(l + k + m) + heat_symbol(k) - heat_symbol(l + k) - heat_symbol(k + m)
    if total != 2 * l * m:
        raise ArithmeticError(f"heat coefficient identity broke at {(l, m, k)}")
    return -l * m


def poisson_psi_coefficient(l: int, m: int, k: int) -> Fraction:
    """Closed form for the absolute-frequency generator; vanishes once
    |k| >= |l| + |m|."""
    return generic_psi_coefficient(poisson_symbol, l, m, k)


def psi_table(semigroup: str, l: int, m: int, window: int) -> list[tuple[int, int | Fraction]]:
    """Rows (k, coefficient) of the gradient map of the mode pair (l, m)
    under the "heat" or "poisson" semigroup, over the input modes k of
    the window [-window, window] whose output mode l+k+m stays inside it.
    """
    coefficient = heat_psi_coefficient if semigroup == "heat" else poisson_psi_coefficient
    shift = l + m
    lo = max(-window, -window - shift)
    hi = min(window, window - shift)
    return [(k, coefficient(l, m, k)) for k in range(lo, hi + 1)]


def poisson_rank_bound(l: int, m: int) -> int:
    """The support of the Poisson gradient map sits inside
    |k| < |l| + |m|, so its rank is at most 2(|l|+|m|) - 1."""
    return max(2 * (abs(l) + abs(m)) - 1, 0)


# ---------------------------------------------------------------------------
# gradient-module model over the integer modes (Poisson generator)
# ---------------------------------------------------------------------------


def poisson_gradient_pairing(a: int, u: int, b: int, v: int) -> Fraction:
    """<e_a (x) e_u, e_b (x) e_v> for the absolute-frequency generator:
    (|a| + |b| - |a-b|)/2 when the output modes a+u and b+v agree."""
    if a + u != b + v:
        return Fraction(0)
    return Fraction(abs(a) + abs(b) - abs(a - b), 2)


@dataclass(frozen=True)
class ModeGradientVector:
    """Exact formal sum of mode tensors c * (e_a (x) e_u)."""

    terms: tuple[tuple[complex, int, int], ...]

    def pairing(self, other: "ModeGradientVector") -> complex:
        total = 0.0 + 0.0j
        for ca, a, u in self.terms:
            for cb, b, v in other.terms:
                w = poisson_gradient_pairing(a, u, b, v)
                if w:
                    total += np.conj(ca) * cb * float(w)
        return complex(total)

    def norm(self) -> float:
        return float(np.sqrt(max(self.pairing(self).real, 0.0)))


def poisson_s_image(k: int) -> ModeGradientVector:
    """Normalized derivation on the eigenvalue-|k| eigenspace; the
    zero mode maps to the fixed unit vector orthogonal to the range."""
    if k == 0:
        return poisson_zero_mode_unit()
    lam = float(abs(k))
    return ModeGradientVector(((lam**-0.5, k, 0),))


def poisson_zero_mode_unit() -> ModeGradientVector:
    """Deterministic unit vector orthogonal to every normalized
    derivation image: e_1 (x) e_1 minus its overlap with the mode-2
    image, normalized.  Orthogonality is exact by frequency matching."""
    # <e_1 (x) e_1, e_2 (x) e_0> = 1, ||e_1 (x) e_1||^2 = 1, ||S(e_2)|| = 1
    # so the reduced vector is e_1 (x) e_1 - (1/sqrt(2)) S(e_2), norm 1/sqrt(2).
    raw = (
        (1.0, 1, 1),
        (-0.5, 2, 0),
    )
    vec = ModeGradientVector(raw)
    return ModeGradientVector(tuple((c / vec.norm(), a, u) for c, a, u in raw))


def poisson_s_gram(window: int) -> np.ndarray:
    """Gram of the normalized-derivation images over the window's
    eigenbasis (zero mode first)."""
    images = [poisson_s_image(0)]
    for j in range(1, window + 1):
        images.append(poisson_s_image(j))
        images.append(poisson_s_image(-j))
    return hermitian_gram(images, ModeGradientVector.pairing)


def poisson_t_image(l: int, m: int, k: int) -> ModeGradientVector:
    """Commutation defect of the normalized derivation on mode k:
    e_l . S(e_k) . e_m - S(e_{l+k+m}), expanded in exact mode tensors."""
    out: list[tuple[complex, int, int]] = []
    shifted = l + k + m
    if k == 0:
        # moving the zero-mode convention vector: e_l . (c, a, u) . e_m
        for c, a, u in poisson_zero_mode_unit().terms:
            out.append((c, l + a, u + m))
            out.append((-c, l, a + u + m))
    else:
        lam = float(abs(k)) ** -0.5
        out.append((lam, l + k, m))
        out.append((-lam, l, k + m))
    if shifted == 0:
        for c, a, u in poisson_zero_mode_unit().terms:
            out.append((-c, a, u))
    else:
        out.append((-(float(abs(shifted)) ** -0.5), shifted, 0))
    return ModeGradientVector(tuple(out))


def poisson_t_block_norm(l: int, m: int, j: int) -> float:
    """Operator norm of the commutation defect on the eigenvalue-j
    eigenspace (spanned by the modes +-j)."""
    if j == 0:
        return poisson_t_image(l, m, 0).norm()
    images = [poisson_t_image(l, m, j), poisson_t_image(l, m, -j)]
    gram = hermitian_gram(images, ModeGradientVector.pairing)
    return float(np.sqrt(max(hermitian_top(gram), 0.0)))


def poisson_t_decay(l: int, m: int, window: int):
    """Rows (j, eigenvalue, block norm) over the eigenvalue window."""
    if window < 4 * (abs(l) + abs(m)):
        raise WindowOverflow(
            f"window {window} too small; need at least {4 * (abs(l) + abs(m))}"
        )
    return [(j, float(j), poisson_t_block_norm(l, m, j)) for j in range(1, window + 1)]


def poisson_t_trend(table) -> tuple[float, float]:
    """Head and tail of a ``poisson_t_decay`` table of K rows: the
    largest mode-weighted block norm j * ||T_j|| over the modes
    [K/8, K/4] and over [K/2, K]."""
    values = [j * v for j, _, v in table]
    window = len(values)
    return max(values[window // 8 - 1 : window // 4]), max(values[window // 2 - 1 :])
