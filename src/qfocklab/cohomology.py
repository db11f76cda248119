"""Bar-complex differentials, the gradient-tensoring chain map, and
numerical cocycle verification at truncation.

Cochains are evaluated pointwise on sampled tuples of algebra elements;
no global differential matrix is ever assembled.  Values live in the
trivial bimodule (vacuum vectors, ``Element``) or in the gradient module
(``GradientVector``, whose carriers may themselves be gradient vectors:
its iterates).  Each value carries its own ``+``, ``scaled``, ``left``
and ``right``, and each check measures it by its own norm.  The
identities checked here - the differential squaring to zero, the
prefix map anticommuting with it and the Leibniz rule - are exact
algebra, so their numerical residuals sit at rounding level and any
larger value indicates an upstream bug.

Evaluating a differential on one sampled tuple calls the inner cochain
on argument tuples that repeat: d(d f)(a, b, c) needs f(c) and f(ab)
twice each.  So a cochain call may take a ``memo`` dict, keyed by the
cochain and the bytes of its arguments, that the derived cochains
(``bar_differential``, ``gradient_prefix_map``) pass on to the cochains
they evaluate.  The checks give each sampled tuple a fresh memo and
drop it afterwards; a repeated call returns the value it returned the
first time, which is the value it would compute again bit for bit.

The sampled checks draw from Python's ``random.Random`` seeded by the
check's seed, so a verify run never loads ``numpy.random``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .qfock import FockParams
from .wick import Element
from .gradient import GradientVector, _byte_key, nabla_norm

SAMPLE_TOLERANCE = 1e-8
# Top level of the sampled elements.
SAMPLE_LEVEL = 2
# The level the sampled checks reach at any max_level: d(d f) of the
# arity-1 product cochain multiplies three sampled elements and two
# level-1 frames.
TOP_SAMPLED_LEVEL = 3 * SAMPLE_LEVEL + 2


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
    # fn takes the memo as keyword ``memo`` and passes it on to the
    # cochains it evaluates
    threads_memo: bool = False

    def __call__(self, *args: Element, memo: dict | None = None):
        if len(args) != self.arity:
            raise TypeError(f"cochain of arity {self.arity} got {len(args)} slots")
        if memo is None:
            return self._evaluate(args, None)
        key = (id(self),) + tuple(_byte_key(a) for a in args)
        value = memo.get(key)
        if value is None:
            value = memo[key] = self._evaluate(args, memo)
        return value

    def _evaluate(self, args: tuple, memo: dict | None):
        return self.fn(*args, memo=memo) if self.threads_memo else self.fn(*args)


def bar_differential(f: Cochain) -> Cochain:
    """Alternating-sum differential of the bar complex.

    Arity 0 cochains are constants xi, with (d xi)(a) = a.xi - xi.a.
    """
    n = f.arity

    def df(*args, memo):
        out = f(*args[1:], memo=memo).left(args[0])
        for k in range(1, n + 1):
            merged = args[: k - 1] + (args[k - 1] * args[k],) + args[k + 1 :]
            out = out + f(*merged, memo=memo).scaled((-1.0) ** k)
        return out + f(*args[:n], memo=memo).right(args[n]).scaled((-1.0) ** (n + 1))

    return Cochain(f.params, n + 1, df, threads_memo=True)


def gradient_prefix_map(f: Cochain) -> Cochain:
    """Send f to (a1, ..., an) -> a1 (x)_grad f(a2, ..., an); raises the
    coefficient module by one gradient tensoring."""

    def gf(*args, memo):
        return GradientVector(f.params, [(args[0], f(*args[1:], memo=memo))])

    return Cochain(f.params, f.arity + 1, gf, threads_memo=True)


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


def random_symbol(rng: random.Random, dim: int, level: int) -> np.ndarray:
    """A float64 (dim,)*level tensor of standard-normal draws, taken from
    ``rng.gauss`` in row-major order; level 0 gives a 0-d array."""
    draws = [rng.gauss(0.0, 1.0) for _ in range(dim**level)]
    return np.array(draws, dtype=np.float64).reshape((dim,) * level)


def _random_element(rng: random.Random, params: FockParams, max_word_level: int) -> Element:
    level = rng.randint(1, max_word_level)
    el = Element(params, {level: random_symbol(rng, params.dim, level)})
    return el.scaled(1.0 / el.q_norm())


def _sample_tuple(rng, params, size, max_word_level):
    return tuple(_random_element(rng, params, max_word_level) for _ in range(size))


def verify_bar_square(params: FockParams, seed: int = 42, samples: int = 20) -> list[CheckRow]:
    """d(d f) = 0 on sampled tuples for cochains of arity 1 and 2."""
    rng = random.Random(seed)
    rows = []
    f1 = product_cochain(params, [_random_element(rng, params, 1) for _ in range(2)])
    dd1 = bar_differential(bar_differential(f1))
    f2 = product_cochain(params, [_random_element(rng, params, 1) for _ in range(3)])
    dd2 = bar_differential(bar_differential(f2))
    for i in range(samples):
        args = _sample_tuple(rng, params, 3, SAMPLE_LEVEL)
        residual = dd1(*args, memo={}).q_norm()
        rows.append(CheckRow("d_squared_arity1", i, residual, SAMPLE_TOLERANCE))
    for i in range(samples):
        args = _sample_tuple(rng, params, 4, 1)
        residual = dd2(*args, memo={}).q_norm()
        rows.append(CheckRow("d_squared_arity2", i, residual, SAMPLE_TOLERANCE))
    return rows


def verify_prefix_anticommutes(
    params: FockParams, seed: int = 43, samples: int = 20
) -> list[CheckRow]:
    """(Gd + dG) f = 0 on sampled tuples for a 1-cochain into the
    trivial module."""
    rng = random.Random(seed)
    frames = [_random_element(rng, params, 1) for _ in range(2)]
    f = product_cochain(params, frames)
    gd = gradient_prefix_map(bar_differential(f))
    dg = bar_differential(gradient_prefix_map(f))
    rows = []
    for i in range(samples):
        args = _sample_tuple(rng, params, gd.arity, SAMPLE_LEVEL)
        memo: dict = {}
        combo = gd(*args, memo=memo) + dg(*args, memo=memo)
        rows.append(CheckRow("prefix_anticommutator", i, nabla_norm(combo), SAMPLE_TOLERANCE))
    return rows


def verify_leibniz(params: FockParams, seed: int = 44, samples: int = 20) -> list[CheckRow]:
    """The arity-1 cocycle obeys the product rule."""
    rng = random.Random(seed)
    d1 = derivation_cocycle(params, 1)
    rows = []
    for i in range(samples):
        a, b = _sample_tuple(rng, params, 2, SAMPLE_LEVEL)
        residual = d1(a * b) + (d1(b).left(a) + d1(a).right(b)).scaled(-1.0)
        rows.append(CheckRow("leibniz", i, nabla_norm(residual), SAMPLE_TOLERANCE))
    return rows

