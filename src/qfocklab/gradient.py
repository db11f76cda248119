"""Number-operator semigroup, gradient form, gradient maps and the
gradient-bimodule model with its Schatten diagnostics.

The gradient map of a pair of Wick words is assembled by three routes
that must agree on their common lossless region:

* ``direct``   - the defining four-term generator expression, evaluated
                 with two-word products only;
* ``partition`` - the segmented pair-partition expansion, where each
                 term is weighted by -2 times the number of pairs
                 joining the left word to the right word;
* ``rstar``    - the one-shot three-word contraction sum with each
                 summand reweighted by -2 times its left-right
                 contraction size.

All three are composed with -(1/2) times the semigroup and are linear
in the middle word, so each source level goes through one evaluation
whose middle word is the level's whole basis, the identity, in chunks
of columns (``_batched_blocks``).  ``gradient_map`` returns the map as
a level-block ``FockOperator``, which ``level_norm`` and the Schatten
diagnostics read.

Gradient-module Grams come two ways.  ``nabla_gram`` pairs explicit
gradient vectors term by term, one gradient form per pair of terms.
``nabla_gram_blocks`` pairs families of terms whose columns ride on a
batch axis, through the trace form of the pairing, so a Gram block
costs a few products per pair of families instead of one gradient form
per pair of entries and terms, and hands out one block at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadExponent, TruncationLoss, UnknownRoute
from .numerics import _psd_eig, hermitian_gram
from .qfock import (
    FockOperator,
    FockParams,
    _require_same_params,
    _sym_apply_front,
    conjugate_tensor,
)
from .wick import (
    Element,
    _as_element,
    _word_symbol,
    graded_mul,
    partition_weighted_sum,
    triple_contraction_sum,
)

NABLA_GRAM_RTOL = 1e-8
# Source columns per batched contraction.  Every level up to dim 4, M 5
# is one contraction; at MATRIX_DIM_CAP the identity slice and each
# output slice of a chunk take 64 MiB, a quarter of a full block.
BATCH_COLUMNS = 1024
# Entries of the widest intermediate level in one chunk of the direct
# route (128 KiB).  Split tables gather up to C(L, j) copies of a level,
# and wider chunks were no faster at dim 2, M 8 but raised peak RSS.
BATCH_ENTRIES = 2**13
# schatten_diagnostic judges CONVERGENT only when the ratio estimate sits
# below 1 by at least this much.
VERDICT_MARGIN = 0.02


# ---------------------------------------------------------------------------
# generator and semigroup
# ---------------------------------------------------------------------------


def _check_time(t: float) -> None:
    if not 0 <= t < np.inf:
        raise BadExponent(f"semigroup time must be finite and >= 0, got {t}")


def gamma(x: Element, y: Element, max_out: int | None = None) -> Element:
    """Gradient form (carre du champ) 1/2 ((D y)* x + y* D x - D(y* x))
    as an algebra element, D the number operator.

    The j-contraction term of words y* x sits at level l_x + l_y - 2j, so
    the bracket weights it by 1/2 (l_y + l_x - (l_x + l_y - 2j)) = j, and
    by bilinearity Gamma(x, y) = sum over j >= 1 of j (y* ._j x) for any
    elements: one product pass that never forms the j = 0 outer product.

    ``max_out`` truncates the output levels; components up to the cut
    are exact, which suffices whenever the result is paired against
    vectors whose levels sum below the cut.
    """
    _require_same_params(x.params, y.params)
    levels = graded_mul(x.params, y.adjoint().levels, x.levels, max_out, weight=lambda j: j)
    return Element(x.params, levels)


def _number_levels(levels: dict[int, np.ndarray]) -> dict[int, np.ndarray]:
    return {m: m * t for m, t in levels.items() if m}


def _generator_bracket(params: FockParams, a: dict, b: dict, x: dict, cap: int, batched=False):
    """D(axb) + a D(x) b - D(ax) b - a D(xb) on level dicts, D the number
    operator, from two-word products only, up to output level ``cap``.

    A product with a word of top level k lowers a level L to no less
    than L - k, so ax and a D(x) are cut at cap + k and xb at cap + n
    (n the top level of a): every kept level is exact.  With ``batched``,
    the last axis of every level of ``x`` is a batch axis that rides
    along as the last axis of every output level.
    """
    n, k = max(a, default=0), max(b, default=0)
    xl, xr = ("left", "right") if batched else (None, None)
    ax = graded_mul(params, a, x, cap + k, batched=xr)
    adx = graded_mul(params, a, _number_levels(x), cap + k, batched=xr)
    xb = graded_mul(params, x, b, cap + n, batched=xl)
    total: dict[int, np.ndarray] = {}
    for sign, levels in (
        (1, _number_levels(graded_mul(params, ax, b, cap, batched=xl))),
        (1, graded_mul(params, adx, b, cap, batched=xl)),
        (-1, graded_mul(params, _number_levels(ax), b, cap, batched=xl)),
        (-1, graded_mul(params, a, _number_levels(xb), cap, batched=xr)),
    ):
        for m, t in levels.items():
            total[m] = total.get(m, 0) + sign * t
    return {m: t for m, t in total.items() if t.any()}


def psi_element(a: Element, b: Element, x: Element, t: float = 0.0) -> Element:
    """Gradient map applied to an element by the defining expression:
    -(1/2) Phi_t( D(axb) + a D(x) b - D(ax) b - a D(xb) )."""
    _check_time(t)
    for el in (a, b):
        _require_same_params(el.params, x.params)
    top = a.top_level() + x.top_level() + b.top_level()  # no level is cut
    out = Element(x.params, _generator_bracket(x.params, a.levels, b.levels, x.levels, top))
    out = out.scaled(-0.5)
    return out.semigroup_applied(t) if t else out


# ---------------------------------------------------------------------------
# gradient maps as block operators
# ---------------------------------------------------------------------------


def _batched_blocks(params: FockParams, m: int, t: float, contract, columns: int):
    """The blocks of source level m from a route that is linear in its
    middle word, composed with -(1/2) times the semigroup.

    ``contract(batch)`` takes identity columns with their row index
    unfolded into m tensor axes, so ``batch[..., j]`` is one basis
    tensor, and returns output levels whose trailing batch axis becomes
    block columns.  At most ``columns`` columns go through at once.
    """
    size = params.level_dim(m)
    blocks: dict[int, np.ndarray] = {}
    for start in range(0, size, columns):
        width = min(columns, size - start)
        # unnamed, so the identity slice is freed when the contraction returns
        levels = contract(
            np.eye(size, width, -start, dtype=complex).reshape((params.dim,) * m + (width,))
        )
        for lvl, arr in levels.items():
            if lvl not in blocks:
                blocks[lvl] = np.zeros((params.level_dim(lvl), size), dtype=complex)
            np.multiply(
                arr.reshape(params.level_dim(lvl), width),
                -0.5 * np.exp(-t * lvl),
                out=blocks[lvl][:, start : start + width],
            )
    return blocks


def gradient_map(
    a: Element,
    b: Element,
    t: float = 0.0,
    route: str = "direct",
) -> FockOperator:
    """Assemble the gradient map of the word pair on the truncated space.

    Only the lossless sources are assembled: a source level m maps into
    levels up to n + m + k (n, k the levels of the words), so blocks are
    built for m <= max_level - n - k, and the sources above count as
    truncated and carry no blocks.
    """
    _check_time(t)
    params = a.params
    _require_same_params(params, b.params)
    a_sym, b_sym = _word_symbol(params, a), _word_symbol(params, b)
    n, k = a_sym.ndim, b_sym.ndim

    if route == "direct":

        def contract(m, batch):
            return _generator_bracket(
                params, a.levels, b.levels, {m: batch}, params.max_level, True
            )

    elif route == "partition":

        def pair_count(part):
            # pairs joining the left-word segment to the right-word
            # segment of the (n, m, k) shape
            right_start = n + (part.shape.total - n - k)
            return sum(1 for l, r in part.pairs if l <= n and r > right_start)

        def contract(m, batch):
            if n == 0 or k == 0:
                return {}
            weight = lambda part: -2.0 * pair_count(part)
            return partition_weighted_sum(params, [a_sym, batch, b_sym], weight, batched=True)

    elif route == "rstar":

        def contract(m, batch):
            weight = lambda j, r, s: -2.0 * r
            return triple_contraction_sum(params, a_sym, batch, b_sym, weight, batched=True)

    else:
        raise UnknownRoute(f"route must be direct/partition/rstar, got {route!r}")

    top = params.max_level
    cap = top - n - k
    blocks: dict[tuple[int, int], np.ndarray] = {}
    for m in range(cap + 1):
        columns = BATCH_COLUMNS
        if route == "direct":
            # the bracket's products reach level m + n + k
            columns = max(1, BATCH_ENTRIES // params.level_dim(m + n + k))
        level = _batched_blocks(params, m, t, lambda batch: contract(m, batch), columns)
        blocks.update(((m, lvl), blk) for lvl, blk in level.items())
    lossy = frozenset(range(max(cap + 1, 0), top + 1))
    return FockOperator(params, blocks, lossy)


def level_norm(op: FockOperator, m: int) -> float:
    """Operator norm of the restriction of the map to source level m,
    measured between the q-metric source and the graded q-metric target.

    Computed from the Cholesky standard form of the Gram pencil, which
    gives the same number as conjugating by the Gram square roots.
    """
    if m in op.lossy_sources:
        raise TruncationLoss(f"source level {m} was truncated during assembly")
    return float(op.q_singular_values([m])[0])


def fit_log_slope(levels, values):
    """Least-squares slope and intercept of log(values) against levels,
    in closed form over the centred sums."""
    xs = np.asarray(levels, dtype=float)
    ys = np.log(np.asarray(values, dtype=float))
    x_mean, y_mean = xs.mean(), ys.mean()
    dx = xs - x_mean
    slope = float(dx @ (ys - y_mean) / (dx @ dx))
    return slope, float(y_mean - slope * x_mean)


@dataclass
class DecayRow:
    level: int
    level_norm: float
    sp_bound: float
    partial_sum: float
    ratio: float  # ratio of this bound term to the previous one (nan first)


@dataclass
class SchattenReport:
    """Per-level bound table with a geometric-tail verdict."""

    p: float
    rows: list[DecayRow]
    ratio_estimate: float
    verdict: str
    threshold_ratio: float


def _check_exponent(p: float) -> None:
    if p != np.inf and not p >= 1:
        raise BadExponent(f"Schatten exponent must be >= 1, got {p}")


def _lossless_sources(op: FockOperator) -> list[int]:
    return [m for m in range(op.params.max_level + 1) if m not in op.lossy_sources]


def schatten_diagnostic(op: FockOperator, p: float) -> SchattenReport:
    """Bound the Schatten-p norm level by level and judge summability.

    Each source level m contributes at most dim^(m/p) times the
    restricted operator norm; the tail ratio of that bound sequence
    estimates the geometric rate, and the verdict is CONVERGENT when
    the estimate sits below 1 by at least ``VERDICT_MARGIN``.  Without
    a finite ratio there is no estimate, and the diagnostic raises
    ``TruncationLoss`` instead of judging; the one exception is a map
    whose bounds are all zero over two or more lossless levels, judged
    CONVERGENT with estimate 0.  Only one-level pencils are solved; the
    Schatten norm of the whole truncation is ``truncated_schatten_norm``.
    """
    _check_exponent(p)
    params = op.params
    rows: list[DecayRow] = []
    partial = 0.0
    prev_bound = None
    for m in _lossless_sources(op):
        ln = level_norm(op, m)
        bound = params.dim ** (m / p) * ln if p != np.inf else ln
        partial += bound
        ratio = float("nan") if prev_bound in (None, 0.0) else bound / prev_bound
        rows.append(DecayRow(m, ln, bound, partial, ratio))
        prev_bound = bound
    finite = [r.ratio for r in rows if np.isfinite(r.ratio)]
    if not finite and (len(rows) < 2 or partial > 0):
        raise TruncationLoss(
            f"no finite ratio between the bounds of {len(rows)} lossless source "
            "level(s); a verdict needs two consecutive levels, the first nonzero"
        )
    ratios = [r for r in finite if r > 0]
    if ratios:
        tail = ratios[-2:]
        estimate = float(np.exp(np.mean(np.log(tail))))
    else:
        # the bounds fell to zero, or vanish on every lossless level
        estimate = 0.0
    verdict = "CONVERGENT" if estimate < 1.0 - VERDICT_MARGIN else "DIVERGENT"
    return SchattenReport(
        p=float(p),
        rows=rows,
        ratio_estimate=estimate,
        verdict=verdict,
        threshold_ratio=abs(params.q) * params.dim ** (1 / p),
    )


def truncated_schatten_norm(op: FockOperator, p: float) -> float:
    """Schatten-p norm of the assembled truncation on its lossless
    sources, from one joint pencil over all of them (a reference value
    beside the level-by-level bounds of ``schatten_diagnostic``)."""
    _check_exponent(p)
    svals = op.q_singular_values(_lossless_sources(op))
    if svals.size == 0:
        return 0.0
    top = float(svals[0])
    if p == np.inf:
        return top
    return 0.0 if top == 0 else float(top * np.sum((svals / top) ** p) ** (1 / p))


# ---------------------------------------------------------------------------
# gradient bimodule model
# ---------------------------------------------------------------------------


def _byte_key(x) -> tuple:
    """Byte key of an element, or of a gradient vector's merged terms."""
    if isinstance(x, GradientVector):
        return tuple(sorted((_byte_key(a), _byte_key(xi)) for a, xi in x.terms))
    return tuple(sorted((m, t.tobytes()) for m, t in x.levels.items()))


def _negated_byte_key(x) -> tuple:
    """``_byte_key(x.scaled(-1.0))``.  An element's levels are clean
    (complex, shaped, nonzero), so negating them keeps them clean and
    needs no throwaway ``Element``."""
    if isinstance(x, GradientVector):
        return _byte_key(x.scaled(-1.0))
    return tuple(sorted((m, (-1.0 * t).tobytes()) for m, t in x.levels.items()))


def _merge_bilinear(terms, key_side, other_side, rebuild):
    """Group terms whose ``key_side`` factor matches up to sign and sum
    the other side (with the sign folded in)."""
    slots: dict[tuple, list] = {}
    for term in terms:
        anchor = key_side(term)
        key = _byte_key(anchor)
        neg_key = _negated_byte_key(anchor)
        if key in slots:
            slots[key][1] = slots[key][1] + other_side(term)
        elif neg_key in slots:
            slots[neg_key][1] = slots[neg_key][1] + other_side(term).scaled(-1.0)
        else:
            slots[key] = [anchor, other_side(term)]
    return [rebuild(anchor, summed) for anchor, summed in slots.values()]


def _consolidate_terms(terms):
    """Merge structurally equal carriers and coefficients (up to sign).

    Alternating sums (differentials, commutator defects) cancel term by
    term through byte-identical factors; merging them before any Gram is
    taken lets the cancellation happen at coefficient level instead of
    being amplified by the square root of the quadratic form.
    """
    merged = _merge_bilinear(
        terms,
        key_side=lambda t: t[1],
        other_side=lambda t: t[0],
        rebuild=lambda xi, a: (a, xi),
    )
    merged = [(a, xi) for a, xi in merged if not a.is_zero()]
    merged = _merge_bilinear(
        merged,
        key_side=lambda t: t[0],
        other_side=lambda t: t[1],
        rebuild=lambda a, xi: (a, xi),
    )
    return [(a, xi) for a, xi in merged if not a.is_zero() and not xi.is_zero()]


def _as_carrier(params: FockParams, xi):
    if isinstance(xi, GradientVector):
        _require_same_params(params, xi.params)
        return xi
    return _as_element(params, xi)


@dataclass
class GradientVector:
    """Formal sum of terms a (x)_grad xi with the gradient-form Gram.

    ``terms`` hold (algebra element, carrier) pairs.  The carrier is a
    vacuum vector (an ``Element`` of the trivial module) or, in the
    iterated module, another ``GradientVector``: a0 (x) (a1 (x) xi) is
    the depth-2 vector ``[(a0, GradientVector(params, [(a1, xi)]))]``.
    Carriers act through their own ``left`` and ``right``.
    """

    params: FockParams
    terms: list[tuple[Element, Element | GradientVector]]

    def __post_init__(self) -> None:
        coerced = [
            (_as_element(self.params, a), _as_carrier(self.params, xi))
            for a, xi in self.terms
        ]
        self.terms = _consolidate_terms(coerced)

    def left(self, x) -> "GradientVector":
        """Module action x . (a (x) xi) = xa (x) xi - x (x) a.xi."""
        x = _as_element(self.params, x)
        out = []
        for a, xi in self.terms:
            out.append((x * a, xi))
            out.append((x.scaled(-1.0), xi.left(a)))
        return GradientVector(self.params, out)

    def right(self, y) -> "GradientVector":
        """Module action (a (x) xi) . y = a (x) (xi . y)."""
        y = _as_element(self.params, y)
        return GradientVector(self.params, [(a, xi.right(y)) for a, xi in self.terms])

    def add(self, other: "GradientVector") -> "GradientVector":
        return GradientVector(self.params, self.terms + other.terms)

    __add__ = add

    def scaled(self, c: complex) -> "GradientVector":
        return GradientVector(self.params, [(a.scaled(c), xi) for a, xi in self.terms])

    def is_zero(self) -> bool:
        return not self.terms


def _term_pairing(a: Element, xi, b: Element, eta) -> complex:
    """<a (x) xi, b (x) eta> = <Gamma(a, b) . xi, eta>.

    On vacuum carriers the pairing is the q-inner product, and the
    gradient form is truncated at the level band that can meet eta.  On
    gradient-vector carriers it is the carriers' own pairing, with the
    full gradient form pushed through their left action.
    """
    if isinstance(xi, GradientVector):
        return nabla_pairing_value(xi.left(gamma(a, b)), eta)
    cut = xi.top_level() + eta.top_level()
    applied = gamma(a, b, max_out=cut).mul(xi, max_out=eta.top_level())
    return applied.q_inner(eta)


def nabla_pairing_value(u: GradientVector, v: GradientVector) -> complex:
    total = 0.0 + 0.0j
    for a, xi in u.terms:
        for b, eta in v.terms:
            total += _term_pairing(a, xi, b, eta)
    return complex(total)


def nabla_gram(vectors: list[GradientVector]) -> np.ndarray:
    return hermitian_gram(vectors, nabla_pairing_value)


def nabla_norm(v: GradientVector) -> float:
    """Quotient norm: clip the slightly-negative part of the term Gram
    and evaluate the quadratic form on the all-ones coefficient vector."""
    if not v.terms:
        return 0.0
    g = hermitian_gram(v.terms, lambda s, t: _term_pairing(*s, *t))
    w, u = _psd_eig(0.5 * (g + g.conj().T), NABLA_GRAM_RTOL)
    ones = np.ones(len(v.terms))
    return float(np.sqrt(max((ones @ ((u * w) @ u.conj().T) @ ones).real, 0.0)))


# ---------------------------------------------------------------------------
# batched gradient-module Grams (trace form of the pairing)
# ---------------------------------------------------------------------------


class BatchedTerm:
    """A family of terms a (x) xi on vacuum carriers, one per column.

    The levels of ``a`` (``side`` "a") or of ``xi`` (``side`` "xi")
    carry a trailing batch axis whose slices are the columns; the other
    factor is shared by every column.
    """

    __slots__ = ("a", "xi", "side")

    def __init__(self, a: dict[int, np.ndarray], xi: dict[int, np.ndarray], side: str) -> None:
        self.a, self.xi, self.side = a, xi, side


def _top(levels: dict) -> int:
    return max(levels, default=0)


def _adjoint_levels(levels: dict) -> dict[int, np.ndarray]:
    return {m: conjugate_tensor(t) for m, t in levels.items()}


def _batched_q_inner(params: FockParams, left: dict, right: dict):
    """q-inner products of every left column with every right column,
    sum over the common levels m of U_m^H P_m V_m (both operands carry
    trailing batch axes)."""
    total = 0
    for m, u in left.items():
        v = right.get(m)
        if v is None:
            continue
        size = params.level_dim(m)
        pv = _sym_apply_front(params, v, m).reshape(size, -1)
        total = total + u.reshape(size, -1).conj().T @ pv
    return total


def _pair_batched_terms(params: FockParams, s: BatchedTerm, t: BatchedTerm, s_prods, t_prods):
    """Matrix of <a_i (x) xi_i, b_j (x) eta_j> over the columns i of ``s``
    and j of ``t``, by the trace form of the pairing (D the number
    operator, tau the vacuum state, which is a trace, and D tau-symmetric):

        <Gamma(a, b) xi, eta> = 1/2 [<a xi, D(b) eta> + <D(a) xi, b eta> - X],
        X = <D(b* a) xi, eta> = <a, b D(eta xi*)> = <xi, D(a* b) eta>.

    The first two brackets pair the families' own products a xi and
    D(a) xi (``s_prods`` and ``t_prods``).  X takes the form in which
    every product has at most one batched operand, and each product is
    cut at the top level of the factor it is paired against.
    """
    a, xi, b, eta = s.a, s.xi, t.a, t.xi
    head = _batched_q_inner(params, s_prods[0], t_prods[1])
    head = head + _batched_q_inner(params, s_prods[1], t_prods[0])
    if s.side == "a" and t.side == "a":
        z = graded_mul(params, eta, _adjoint_levels(xi), _top(a) + _top(b))
        u, v = a, graded_mul(params, b, _number_levels(z), _top(a), batched="left")
    elif s.side == "a":
        z = graded_mul(params, _adjoint_levels(b), a, _top(xi) + _top(eta), batched="right")
        u, v = graded_mul(params, _number_levels(z), xi, _top(eta), batched="left"), eta
    else:
        b_flag = "right" if t.side == "a" else None
        z = graded_mul(params, _adjoint_levels(a), b, _top(xi) + _top(eta), batched=b_flag)
        z_flag = "left" if t.side == "a" else "right"
        u, v = xi, graded_mul(params, _number_levels(z), eta, _top(xi), batched=z_flag)
    return 0.5 * (head - _batched_q_inner(params, u, v))


def nabla_gram_blocks(params: FockParams, blocks):
    """Blocks (r, c, G_rc), r <= c, of the Gram of gradient vectors
    given by column blocks, one pair of blocks at a time.

    ``blocks`` lists each column block's term families; a column is the
    sum over its block's families of that column's term.  Each family's
    products a xi and D(a) xi are formed once, and every two families
    are paired once by ``_pair_batched_terms``.  A family of side "a" on
    the unit carrier xi = 1 takes a and D(a) themselves as its products.
    A diagonal block adds each reversed pair as its conjugate transpose
    and is symmetrized as 1/2 (G + G^H); below the diagonal the Gram
    reads G_rc^H.  Blocks that share no product level pair to the
    scalar 0.0.
    """
    flat = []
    for terms in blocks:
        flat.append([])
        for term in terms:
            if not (term.a and term.xi):
                continue
            if term.side == "a" and term.xi.keys() == {0} and term.xi[0] == 1:
                # a 1 = a and D(a) 1 = D(a): nothing to multiply
                prods = (term.a, _number_levels(term.a))
            else:
                flag = "left" if term.side == "a" else "right"
                prods = tuple(
                    graded_mul(params, a, term.xi, batched=flag)
                    for a in (term.a, _number_levels(term.a))
                )
            flat[-1].append((term, prods))
    for r, row in enumerate(flat):
        for c in range(r, len(flat)):
            g = 0
            for i, (s, s_prods) in enumerate(row):
                for j, (t, t_prods) in enumerate(flat[c][i if c == r else 0 :]):
                    val = _pair_batched_terms(params, s, t, s_prods, t_prods)
                    g = g + val
                    if c == r and j:
                        g = g + np.conj(val).T
            yield r, c, 0.5 * (g + np.conj(g).T) if c == r else g


# ---------------------------------------------------------------------------
# pairing identity of the gradient module
# ---------------------------------------------------------------------------


def nabla_pairing_two_ways(x, y, alpha: tuple, beta: tuple, params: FockParams):
    """Evaluate <x . (a (x) xi) . y, b (x) eta> by the module Gram and by
    the gradient-map reduction; returns (module_value, reduced_value)."""
    x = _as_element(params, x)
    y = _as_element(params, y)
    a, xi = (_as_element(params, s) for s in alpha)
    b, eta = (_as_element(params, s) for s in beta)
    lhs_vec = GradientVector(params, [(a, xi)]).left(x).right(y)
    lhs = nabla_pairing_value(lhs_vec, GradientVector(params, [(b, eta)]))
    mapped = psi_element(b.adjoint(), a, x)
    rhs = (mapped.mul(xi) * y).q_inner(eta)
    return lhs, rhs

