"""Reference implementations that more than one test module compares
against.  No command uses them, so they live with the tests."""

import random

import numpy as np

from qfocklab.cohomology import SAMPLE_TOLERANCE, CheckRow, _random_element, derivation_cocycle
from qfocklab.gradient import (
    GradientVector,
    _number_levels,
    nabla_norm,
    nabla_pairing_value,
    psi_element,
)
from qfocklab.qfock import (
    FockOperator,
    FockParams,
    pairing_form,
    symmetrizer,
    symmetrizer_inv_sqrt,
)
from qfocklab.wick import Element, _as_element


def number_applied(el: Element) -> Element:
    """The number operator D: level m scaled by m."""
    return Element(el.params, _number_levels(el.levels))


def pairing_norm(params: FockParams, j: int) -> float:
    """Norm of the j-fold contraction as a functional on the q-metric
    tensor square of level j: the Frobenius norm of W^T B W, which a
    unitary relating W to P^-1/2 leaves unchanged."""
    w = symmetrizer_inv_sqrt(params, j)
    return float(np.linalg.norm(w.T @ pairing_form(params, j) @ w))


def gram_adjoint(op: FockOperator) -> FockOperator:
    """Adjoint with respect to the q-inner product:
    block(dst -> src) = Gram_src^{-1} block(src -> dst)^H Gram_dst,
    with Gram_src^{-1} = W W^H from ``symmetrizer_inv_sqrt``."""
    blocks = {}
    for (src, dst), mat in op.blocks.items():
        g_dst = symmetrizer(op.params, dst)
        w = symmetrizer_inv_sqrt(op.params, src)
        blocks[(dst, src)] = w @ (w.conj().T @ (mat.conj().T @ g_dst))
    # Dropped blocks above the cut make the adjoint lossy from those
    # (high) source levels; conservatively flag everything at the top.
    lossy = set()
    if op.lossy_sources:
        lossy = {op.params.max_level}
    return FockOperator(op.params, blocks, frozenset(lossy))


def verify_derivation_norm(params: FockParams, seed: int = 45, samples: int = 10) -> list[CheckRow]:
    """||d1(a)||^2 equals the generator quadratic form of a."""
    rng = random.Random(seed)
    d1 = derivation_cocycle(params, 1)
    rows = []
    for i in range(samples):
        a = _random_element(rng, params, 2)
        lhs = nabla_norm(d1(a)) ** 2
        rhs = number_applied(a).q_inner(a).real
        scale = max(abs(rhs), 1.0)
        rows.append(CheckRow("derivation_norm", i, abs(lhs - rhs) / scale, SAMPLE_TOLERANCE))
    return rows


def iterated_pairing_two_ways(x, y, chain_a, chain_b, params: FockParams):
    """Two-fold version of the pairing identity.

    ``chain_a`` = (a0, a1, a2) encodes a0 (x) (a1 (x) a2.vacuum) in the
    twice-iterated gradient module, likewise ``chain_b``.  Returns the
    value of <x . alpha . y, beta> computed through the nested module
    Grams and through the composed gradient maps.
    """
    a0, a1, a2 = (_as_element(params, s) for s in chain_a)
    b0, b1, b2 = (_as_element(params, s) for s in chain_b)
    x = _as_element(params, x)
    y = _as_element(params, y)
    alpha = GradientVector(params, [(a0, GradientVector(params, [(a1, a2)]))])
    beta = GradientVector(params, [(b0, GradientVector(params, [(b1, b2)]))])
    lhs = nabla_pairing_value(alpha.left(x).right(y), beta)
    inner = psi_element(b0.adjoint(), a0, x)
    outer = psi_element(b1.adjoint(), a1, inner)
    rhs = (b2.adjoint() * (outer.mul(a2))).q_inner(y.adjoint())
    return lhs, rhs
