"""The verification checks behind ``qfocklab verify``.

Each check takes the resolved configuration (it reads ``seed`` and
``time_t``) and the Fock parameters, and returns a residual with its
default tolerance.  ``run_checks`` runs them in ``VERIFY_CHECKS`` order.
"""

from __future__ import annotations

import functools
import random
import time
from dataclasses import dataclass

import numpy as np

from . import ao as ao_mod
from . import cohomology as coh
from . import torus as torus_mod
from .errors import QFockError
from .gradient import gamma, gradient_map, nabla_pairing_two_ways
from .partitions import PairPartition, SegmentShape, crossing_number, enumerate_pair_partitions
from .qfock import FockParams, annihilation, r_star, r_star3, symmetrizer, symmetrizer_inv_sqrt
from .wick import Element, product_direct, product_partition, product_triple, wick


@dataclass
class CheckResult:
    name: str
    residual: float | None
    tolerance: float | None
    seconds: float
    # "<CODE>: message" of a library error that stopped the check
    error: str | None = None

    @property
    def passed(self) -> bool:
        return self.error is None and self.residual < self.tolerance


def _relative_gap(left: Element, right: Element) -> float:
    scale = max(left.q_norm(), right.q_norm(), 1.0)
    return (left - right).q_norm() / scale


def _check_partitions(cfg, params):
    shapes = [(1, 1), (2, 1), (1, 1, 1), (2, 2), (3, 2)]
    mismatches = 0
    for sizes in shapes:
        shape = SegmentShape(sizes)
        seen = set()
        for part in enumerate_pair_partitions(shape):
            if (part.pairs, part.singletons) in seen:
                mismatches += 1
            seen.add((part.pairs, part.singletons))
            cr = crossing_number(part)
            slow_c = sum(
                1
                for a in part.pairs
                for b in part.pairs
                if a != b and a[0] < b[0] < a[1] < b[1]
            )
            slow_d = sum(
                1 for l, r in part.pairs for s in part.singletons if l < s < r
            )
            if (cr.regular, cr.degenerate) != (slow_c, slow_d):
                mismatches += 1
    # The figure partition, built directly: its constructor checks the
    # exact cover and that no pair lies inside a segment.
    fig = crossing_number(
        PairPartition(((2, 7), (4, 9), (8, 10)), (1, 3, 5, 6, 11), SegmentShape((4, 4, 3)))
    )
    if (fig.regular, fig.degenerate, fig.total) != (2, 5, 7):
        mismatches += 1
    return float(mismatches), 0.5


def _check_gram_positivity(cfg, params):
    """Level Grams P_m, m <= 5, at q and at +-0.8 are positive definite:
    each is factored by the Cholesky whitener the library's norms use,
    and a Gram without a factor stops the check with ``NOT_PSD``.  The
    residual is the worst max |W^H P_m W - 1|, which reads the whole
    P_m, while the factor W reads only its lower triangle."""
    worst = 0.0
    for q in sorted({params.q, 0.8, -0.8}):
        pp = FockParams(q=q, dim=params.dim, max_level=params.max_level)
        for m in range(min(params.max_level, 5) + 1):
            w = symmetrizer_inv_sqrt(pp, m)
            gap = w.conj().T @ symmetrizer(pp, m) @ w - np.eye(w.shape[0])
            worst = max(worst, float(np.max(np.abs(gap))))
    return worst, 1e-12


def _gram_gap(params, parts, splitter):
    """Relative residual of P_total = (P_p1 (x) ... (x) P_pj) @ splitter."""
    lhs = symmetrizer(params, sum(parts))
    rhs = functools.reduce(np.kron, [symmetrizer(params, p) for p in parts]) @ splitter
    return float(np.linalg.norm(lhs - rhs) / max(np.linalg.norm(lhs), 1.0))


def _check_rstar(cfg, params):
    worst = 0.0
    combos = [(1, 1), (1, 2), (2, 1), (2, 2)]
    for n, k in combos:
        if n + k > params.max_level:
            continue
        worst = max(worst, _gram_gap(params, (n, k), r_star(params, n, k)))
    for n, k, l in [(1, 1, 1), (2, 1, 1), (1, 2, 1)]:
        if n + k + l > params.max_level:
            continue
        # r_star3 is built as the (n+k | l) split followed by (n | k), so
        # it is checked against the other order and the Gram identity
        got = r_star3(params, n, k, l)
        right = np.kron(np.eye(params.dim**n), r_star(params, k, l)) @ r_star(params, n, k + l)
        scale = max(np.linalg.norm(got), 1.0)
        worst = max(worst, float(np.linalg.norm(got - right) / scale))
        worst = max(worst, _gram_gap(params, (n, k, l), got))
    return worst, 1e-11


def _block_gap(lhs, rhs) -> float:
    """Largest entry of |lhs - rhs| over the union of the two operators'
    blocks, a missing block counting as zero."""
    worst = 0.0
    for key in set(lhs.blocks) | set(rhs.blocks):
        gap = np.abs(np.asarray(lhs.blocks.get(key, 0.0)) - np.asarray(rhs.blocks.get(key, 0.0)))
        worst = max(worst, float(np.max(gap)))
    return worst


def _check_annihilation(cfg, params):
    """Annihilation by e_i is the q-adjoint of creation C = e_i (x) 1:
    <C x, y>_q = <x, A y>_q for all x, y says P_{m-1} A_m = C^H P_m on
    each level m, where C^H P_m is the rows of P_m whose first letter is
    i.  So the check reads Grams and inverts none.  The entries of P_m
    grow like [m]_q!, and so does the rounding of either side, so each
    level's gap is taken relative to max |P_m|."""
    d = params.dim
    levels = range(1, params.max_level + 1)
    scale = {m: np.max(np.abs(symmetrizer(params, m))) for m in levels}
    worst = 0.0
    for i, xi in enumerate(np.eye(d)):
        blocks = annihilation(params, xi).blocks
        for m in levels:
            adjoint_rows = symmetrizer(params, m).reshape(d, d ** (m - 1), -1)[i]
            gap = symmetrizer(params, m - 1) @ blocks[(m, m - 1)] - adjoint_rows
            worst = max(worst, float(np.max(np.abs(gap)) / scale[m]))
    return worst, 1e-10


def _check_wick_triangle(cfg, params):
    rng = random.Random(cfg.seed)
    worst = 0.0
    for _ in range(10):
        levels = [rng.randint(1, 2) for _ in range(3)]
        while sum(levels) > params.max_level:
            levels = [rng.randint(1, 2) for _ in range(3)]
        syms = [coh.random_symbol(rng, params.dim, n) for n in levels]
        direct = product_direct(params, syms)
        part = product_partition(params, syms)
        trip = product_triple(params, *syms)
        worst = max(worst, _relative_gap(part, direct), _relative_gap(trip, direct))
    return worst, 1e-9


def _check_psi_triangle(cfg, params):
    rng = random.Random(cfg.seed + 1)
    worst = 0.0
    for n, k in [(1, 1), (2, 1)]:
        a = wick(params, coh.random_symbol(rng, params.dim, n))
        b = wick(params, coh.random_symbol(rng, params.dim, k))
        base = gradient_map(a, b, cfg.time_t, "direct")
        for route in ("partition", "rstar"):
            worst = max(worst, _block_gap(base, gradient_map(a, b, cfg.time_t, route)))
    return worst, 1e-8


def _check_gamma_positivity(cfg, params):
    rng = random.Random(cfg.seed + 2)

    def rand(*levels):
        return Element(params, {m: coh.random_symbol(rng, params.dim, m) for m in levels})

    worst = 0.0
    for _ in range(6):
        x = rand(1, 2)
        xi = rand(0, 1)
        val = gamma(x, x).mul(xi).q_inner(xi).real
        scale = max(xi.q_norm() ** 2, 1.0)
        worst = max(worst, -val / scale)
    return max(worst, 0.0), 1e-9


def _check_nabla_pairing(cfg, params):
    rng = random.Random(cfg.seed + 3)
    worst = 0.0
    for _ in range(6):
        def rand(level):
            return Element(params, {level: coh.random_symbol(rng, params.dim, level)})

        lhs, rhs = nabla_pairing_two_ways(
            rand(1), rand(1), (rand(2), rand(1)), (rand(1), rand(2)), params
        )
        scale = max(abs(lhs), abs(rhs), 1.0)
        worst = max(worst, abs(lhs - rhs) / scale)
    return worst, 1e-8


def _rows_to_residual(rows):
    return max(r.residual for r in rows)


def _check_leibniz(cfg, params):
    return _rows_to_residual(coh.verify_leibniz(params, seed=cfg.seed, samples=20)), 1e-8


def _check_d_squared(cfg, params):
    return _rows_to_residual(coh.verify_bar_square(params, seed=cfg.seed, samples=10)), 1e-8


def _check_prefix(cfg, params):
    return (
        _rows_to_residual(coh.verify_prefix_anticommutes(params, seed=cfg.seed, samples=20)),
        1e-8,
    )


@functools.lru_cache(maxsize=1)
def _verify_ou_model(params: FockParams):
    """The OU model that s_isometry and filtration share: one build per
    verify run."""
    return ao_mod.build_ou_model(params)


def _check_s_isometry(cfg, params):
    torus_gram = torus_mod.poisson_s_gram(12)
    torus_dev = float(np.max(np.abs(torus_gram - np.eye(torus_gram.shape[0]))))
    return max(ao_mod.s_isometry_report(_verify_ou_model(params)), torus_dev), 1e-8


def _check_filtration(cfg, params):
    return max(ao_mod.band_leaks(_verify_ou_model(params)).values()), 1e-9


VERIFY_CHECKS = [
    ("partition_bruteforce", _check_partitions),
    ("gram_positivity", _check_gram_positivity),
    ("rstar_identities", _check_rstar),
    ("annihilation_adjoint", _check_annihilation),
    ("wick_triangle", _check_wick_triangle),
    ("psi_triangle", _check_psi_triangle),
    ("gamma_positivity", _check_gamma_positivity),
    ("nabla_pairing", _check_nabla_pairing),
    ("leibniz", _check_leibniz),
    ("d_squared", _check_d_squared),
    ("prefix_anticommutator", _check_prefix),
    ("s_isometry", _check_s_isometry),
    ("filtration", _check_filtration),
]


def run_checks(cfg, params: FockParams):
    """Yield a ``CheckResult`` per check as each finishes.  ``cfg.tol``,
    if set, replaces every default tolerance.  A library error fails
    its check only; the others still run."""
    _verify_ou_model.cache_clear()
    for name, fn in VERIFY_CHECKS:
        start = time.perf_counter()
        try:
            residual, tol = fn(cfg, params)
        except QFockError as exc:
            error = f"{exc.code}: {Exception.__str__(exc)}"
            yield CheckResult(name, None, cfg.tol, time.perf_counter() - start, error)
            continue
        tol = tol if cfg.tol is None else cfg.tol
        yield CheckResult(name, float(residual), float(tol), time.perf_counter() - start)
