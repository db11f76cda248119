"""Bar-complex differentials, the gradient-tensoring chain map, and
numerical cocycle verification at truncation.

Cochains are evaluated pointwise on sampled tuples of algebra elements;
no global differential matrix is ever assembled.  Values live in the
trivial bimodule (vacuum vectors, ``Element``) or in the gradient module
(``GradientVector``, whose carriers may themselves be gradient vectors:
its iterates).  Each value carries its own ``+``, ``scaled``, ``left``
and ``right``, and each check measures it by its own norm.  The
identities checked here - the differential squaring to zero, the
prefix map anticommuting with it, the Leibniz rule and the
derivation-norm identity - are exact algebra, so their numerical
residuals sit at rounding level and any larger value indicates an
upstream bug.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .qfock import FockParams
from .wick import Element
from .gradient import GradientVector, nabla_norm

SAMPLE_TOLERANCE = 1e-8


# ---------------------------------------------------------------------------
# cochains and differentials
# ---------------------------------------------------------------------------


@dataclass
class Cochain:
    """A pointwise-evaluable multilinear map from element tuples into a
    coefficient bimodule."""

    params: FockParams
    arity: int
    fn: Callable

    def __call__(self, *args: Element):
        if len(args) != self.arity:
            raise TypeError(f"cochain of arity {self.arity} got {len(args)} slots")
        return self.fn(*args)


def bar_differential(f: Cochain) -> Cochain:
    """Alternating-sum differential of the bar complex.

    Arity 0 cochains are constants xi, with (d xi)(a) = a.xi - xi.a.
    """
    n = f.arity

    def df(*args):
        out = f(*args[1:]).left(args[0])
        for k in range(1, n + 1):
            merged = args[: k - 1] + (args[k - 1] * args[k],) + args[k + 1 :]
            out = out + f(*merged).scaled((-1.0) ** k)
        return out + f(*args[:n]).right(args[n]).scaled((-1.0) ** (n + 1))

    return Cochain(f.params, n + 1, df)


def gradient_prefix_map(f: Cochain) -> Cochain:
    """Send f to (a1, ..., an) -> a1 (x)_grad f(a2, ..., an); raises the
    coefficient module by one gradient tensoring."""

    def gf(*args):
        return GradientVector(f.params, [(args[0], f(*args[1:]))])

    return Cochain(f.params, f.arity + 1, gf)


def derivation_cocycle(params: FockParams, n: int) -> Cochain:
    """The canonical n-cocycle a1 (x) ... (x) an (x) vacuum."""
    if n not in (1, 2):
        raise NotImplementedError("desk scale covers n in {1, 2}")

    def fn(*args):
        value = Element.one(params)
        for a in reversed(args):
            value = GradientVector(params, [(a, value)])
        return value

    return Cochain(params, n, fn)


def product_cochain(params: FockParams, frames: list[Element]) -> Cochain:
    """Interleaving cochain (a1, ..., an) -> r0 a1 r1 ... an rn, a
    convenient multilinear sample with value in the trivial module."""
    n = len(frames) - 1
    if n < 0:
        raise ValueError("need at least one frame element")

    def fn(*args):
        acc = frames[0]
        for a, r in zip(args, frames[1:]):
            acc = acc * a * r
        return acc

    return Cochain(params, n, fn)


# ---------------------------------------------------------------------------
# sampled verification
# ---------------------------------------------------------------------------


@dataclass
class CheckRow:
    identity: str
    tuple_id: int
    residual: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.residual < self.tolerance


def _random_element(rng, params: FockParams, max_word_level: int) -> Element:
    level = int(rng.integers(1, max_word_level + 1))
    el = Element(params, {level: rng.standard_normal((params.dim,) * level)})
    return el.scaled(1.0 / el.q_norm())


def _sample_tuple(rng, params, size, max_word_level):
    return tuple(_random_element(rng, params, max_word_level) for _ in range(size))


def verify_bar_square(
    params: FockParams,
    seed: int = 42,
    samples: int = 20,
    tol: float = SAMPLE_TOLERANCE,
    max_word_level: int = 2,
) -> list[CheckRow]:
    """d(d f) = 0 on sampled tuples for cochains of arity 1 and 2."""
    rng = np.random.default_rng(seed)
    rows = []
    f1 = product_cochain(params, [_random_element(rng, params, 1) for _ in range(2)])
    dd1 = bar_differential(bar_differential(f1))
    f2 = product_cochain(params, [_random_element(rng, params, 1) for _ in range(3)])
    dd2 = bar_differential(bar_differential(f2))
    for i in range(samples):
        args = _sample_tuple(rng, params, 3, max_word_level)
        rows.append(CheckRow("d_squared_arity1", i, dd1(*args).q_norm(), tol))
    for i in range(samples):
        args = _sample_tuple(rng, params, 4, 1)
        rows.append(CheckRow("d_squared_arity2", i, dd2(*args).q_norm(), tol))
    return rows


def verify_prefix_anticommutes(
    params: FockParams,
    seed: int = 43,
    samples: int = 20,
    tol: float = SAMPLE_TOLERANCE,
    max_word_level: int = 2,
) -> list[CheckRow]:
    """(Gd + dG) f = 0 on sampled tuples for a 1-cochain into the
    trivial module."""
    rng = np.random.default_rng(seed)
    frames = [_random_element(rng, params, 1) for _ in range(2)]
    f = product_cochain(params, frames)
    gd = gradient_prefix_map(bar_differential(f))
    dg = bar_differential(gradient_prefix_map(f))
    rows = []
    for i in range(samples):
        args = _sample_tuple(rng, params, gd.arity, max_word_level)
        combo = gd(*args) + dg(*args)
        rows.append(CheckRow("prefix_anticommutator", i, nabla_norm(combo), tol))
    return rows


def verify_leibniz(
    params: FockParams,
    seed: int = 44,
    samples: int = 20,
    tol: float = SAMPLE_TOLERANCE,
    max_word_level: int = 2,
) -> list[CheckRow]:
    """The arity-1 cocycle obeys the product rule."""
    rng = np.random.default_rng(seed)
    d1 = derivation_cocycle(params, 1)
    rows = []
    for i in range(samples):
        a, b = _sample_tuple(rng, params, 2, max_word_level)
        residual = d1(a * b) + (d1(b).left(a) + d1(a).right(b)).scaled(-1.0)
        rows.append(CheckRow("leibniz", i, nabla_norm(residual), tol))
    return rows


def verify_derivation_norm(
    params: FockParams,
    seed: int = 45,
    samples: int = 10,
    tol: float = SAMPLE_TOLERANCE,
    max_word_level: int = 2,
) -> list[CheckRow]:
    """||d1(a)||^2 equals the generator quadratic form of a."""
    rng = np.random.default_rng(seed)
    d1 = derivation_cocycle(params, 1)
    rows = []
    for i in range(samples):
        a = _random_element(rng, params, max_word_level)
        lhs = nabla_norm(d1(a)) ** 2
        rhs = a.number_applied().q_inner(a).real
        scale = max(abs(rhs), 1.0)
        rows.append(CheckRow("derivation_norm", i, abs(lhs - rhs) / scale, tol))
    return rows


def verify_second_cocycle(
    params: FockParams,
    seed: int = 46,
    samples: int = 20,
    tol: float = SAMPLE_TOLERANCE,
    max_word_level: int = 1,
) -> list[CheckRow]:
    """The twice-iterated cocycle is closed: d applied to it vanishes."""
    rng = np.random.default_rng(seed)
    d2 = derivation_cocycle(params, 2)
    closed = bar_differential(d2)
    rows = []
    for i in range(samples):
        args = _sample_tuple(rng, params, 3, max_word_level)
        rows.append(CheckRow("second_cocycle", i, nabla_norm(closed(*args)), tol))
    return rows


def verify_multilinearity(
    params: FockParams,
    seed: int = 47,
    samples: int = 10,
    tol: float = 1e-9,
) -> list[CheckRow]:
    """Slot-wise linearity of a sampled constructed cochain."""
    rng = np.random.default_rng(seed)
    frames = [_random_element(rng, params, 1) for _ in range(3)]
    f = bar_differential(product_cochain(params, frames))
    rows = []
    for i in range(samples):
        slot = int(rng.integers(0, f.arity))
        args = list(_sample_tuple(rng, params, f.arity, 1))
        u, v = _random_element(rng, params, 1), _random_element(rng, params, 1)
        c = complex(rng.standard_normal(), rng.standard_normal())
        args_mixed = list(args)
        args_mixed[slot] = u.scaled(c) + v
        args_u, args_v = list(args), list(args)
        args_u[slot] = u
        args_v[slot] = v
        lhs = f(*args_mixed)
        rhs = f(*args_u).scaled(c) + f(*args_v)
        residual = (lhs + rhs.scaled(-1.0)).q_norm()
        rows.append(CheckRow("multilinearity", i, residual, tol))
    return rows


ALL_IDENTITY_CHECKS = {
    "d_squared": verify_bar_square,
    "prefix_anticommutator": verify_prefix_anticommutes,
    "leibniz": verify_leibniz,
    "derivation_norm": verify_derivation_norm,
    "second_cocycle": verify_second_cocycle,
    "multilinearity": verify_multilinearity,
}
