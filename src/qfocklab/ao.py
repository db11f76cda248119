"""Numerical compactness witnesses for the number-operator semigroup.

At finite truncation the model keeps, per eigenvalue n, an orthonormal
basis of the level-n eigenspace as one batch: the columns of W_n with
W_n^H P_n W_n = 1, on a trailing batch axis.  The normalized
derivation sends an eigenvector to its gradient-module class divided by
the square root of its eigenvalue; the commutation-defect maps measure
how far that normalization is from being bimodular.  Compactness cannot
be certified at truncation, so the artifact only reports block-norm
decay tables and head/tail trend verdicts.

Both witnesses are gradient-module Grams.  On vacuum carriers, with D
the number operator and tau the vacuum state (a trace, for which D is
symmetric), the pairing has the trace form

    <a (x) xi, b (x) eta> = <Gamma(a, b) xi, eta>
        = 1/2 [<a xi, D(b) eta> + <D(a) xi, b eta> - <D(b* a) xi, eta>],

the inner product of the Cipriani-Sauvageot gradient bimodule written
as three q-inner products.  Every image is a sum of terms in which one
factor is linear in the basis element, so the level's whole basis goes
on a batch axis and ``gradient.nabla_gram_blocks`` forms a block with
one U^H P_m V per level and bracket.  The isometry check holds one such
block at a time and keeps only the largest entry of |G - 1|.

The model is built on the same batches: the eigenspace check is one
U^H P U diagonal per level over the mass off that level, and the band
check multiplies each element of the smaller basis by the whole larger
one.  The convention vector at eigenvalue 0 has a closed form, which
``_build_vacuum_unit`` derives from the trace form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FiltrationViolation, TruncationLoss
from .numerics import hermitian_top
from .qfock import FockParams, symmetrizer_inv_sqrt
from .wick import Element, graded_mul
from .gradient import BatchedTerm, GradientVector, _batched_q_inner, nabla_gram_blocks

FILTRATION_TOL = 1e-9


@dataclass
class FilteredModel:
    """Orthonormal eigenbases of the number operator and the unit vector
    that stands in for the normalized derivation at eigenvalue 0.
    ``bases[n]``, the basis at eigenvalue n, holds level tensors whose
    trailing axis runs over its elements: {n: W_n as (dim,)*n + (dim^n,)}.
    """

    params: FockParams
    bases: list[dict[int, np.ndarray]]
    vacuum_unit: GradientVector


def _scaled(levels: dict, c: float) -> dict:
    return {m: c * t for m, t in levels.items()}


def _s_image_terms(model: FilteredModel, n: int) -> BatchedTerm:
    """The normalized-derivation images n^(-1/2) (e (x) 1) of the level-n
    eigenbasis, one column per basis element."""
    one = Element.one(model.params).levels
    return BatchedTerm(_scaled(model.bases[n], n**-0.5), one, "a")


def filtration_check(model: FilteredModel, m: int, n: int):
    """Products of eigenbasis elements must stay inside the level band
    [|m-n|, m+n] with the parity of m+n; returns the worst leakage, the
    Euclidean mass of a product's components outside the band.

    Each element of the smaller basis multiplies the whole larger basis
    at once, on a batch axis, and the mass is taken per column.
    """
    params = model.params
    if m + n > params.max_level:
        raise TruncationLoss(f"band {m}+{n} exceeds max_level {params.max_level}")

    def columns(k):
        batch = model.bases[k]
        return ({l: t[..., j] for l, t in batch.items()} for j in range(params.level_dim(k)))

    if params.level_dim(m) <= params.level_dim(n):
        prods = (graded_mul(params, e, model.bases[n], batched="right") for e in columns(m))
    else:
        prods = (graded_mul(params, model.bases[m], f, batched="left") for f in columns(n))
    low, high = abs(m - n), m + n
    worst = 0.0
    for prod in prods:
        mass = 0.0
        for lvl, t in prod.items():
            if not (low <= lvl <= high and (lvl - high) % 2 == 0):
                mass = mass + np.sum(np.abs(t) ** 2, axis=tuple(range(lvl)))
        worst = max(worst, float(np.sqrt(np.max(mass))))
    return worst


def _build_vacuum_unit(params: FockParams) -> GradientVector:
    """Unit vector of the gradient module orthogonal to the
    normalized-derivation images (the eigenvalue-0 convention), in closed
    form: s (e1 (x) e1 - 1/2 W(e1 (x) e1) (x) 1) with s = (2 / (1 - q))^(1/2),
    where the Wick word W(e1 (x) e1) has vacuum vector w = e1 (x) e1.

    Pair an image n^(-1/2) (e (x) 1) of a level-n basis element e with
    e1 (x) e1 through the trace form of the pairing (module docstring).
    Every bracket pairs vectors of different levels unless n = 2, and
    there the pairing is 2^(-1/2) <e, w>.  The images are orthonormal
    and W_2 W_2^H P_2 = 1, so the projection on them is 1/2 w (x) 1,
    whatever q, dim and the basis W_2.  The word 11 spans its own
    letter-content block of P_2, on which P_2 = 1 + q, so the projection
    has squared norm (1 + q)/2 and the remainder 1 - (1 + q)/2 =
    (1 - q)/2 > 0 for |q| < 1.  Below level 2 there are no level-2
    images, and e1 (x) e1 is already a unit vector orthogonal to the
    images.
    """
    e1 = Element.word(params, [1])
    if params.max_level < 2:
        return GradientVector(params, [(e1, e1)])
    s = (2.0 / (1.0 - params.q)) ** 0.5
    w = Element.word(params, [1, 1]).scaled(-0.5 * s)
    return GradientVector(params, [(e1.scaled(s), e1), (w, Element.one(params))])


def build_ou_model(params: FockParams, check: bool = True) -> FilteredModel:
    """Number-operator model: eigenvalue n carries the level-n words.

    The convention vector is in closed form (``_build_vacuum_unit``).
    With ``check``, the model must pass
    ``check_eigenspaces`` and ``require_bands(band_leaks(model))``.
    """
    bases = [{0: np.ones(1, dtype=complex)}] + [
        {n: symmetrizer_inv_sqrt(params, n).reshape((params.dim,) * n + (-1,))}
        for n in range(1, params.max_level + 1)
    ]
    model = FilteredModel(params, bases, _build_vacuum_unit(params))
    if check:
        check_eigenspaces(model)
        require_bands(band_leaks(model))
    return model


def check_eigenspaces(model: FilteredModel) -> None:
    """Each level's basis must be an eigenspace of the number operator D:
    one batched U^H P U diagonal of (D - n) U per level n, which only
    the mass off level n enters, so a clean level pairs nothing."""
    params = model.params
    for n, batch in enumerate(model.bases):
        defect = {m: (m - n) * t for m, t in batch.items() if m != n}
        if not defect:
            continue
        gram = _batched_q_inner(params, defect, defect)
        dev = float(np.sqrt(max(np.max(gram.diagonal().real), 0.0)))
        if dev > 1e-10:
            raise FiltrationViolation(f"basis element at eigenvalue {n:.1f} deviates by {dev:.2e}")


def band_leaks(model: FilteredModel) -> dict[tuple[int, int], float]:
    """``filtration_check`` of every band m + n <= min(max_level, 5), by (m, n)."""
    cap = min(model.params.max_level, 5)
    return {
        (m, n): filtration_check(model, m, n) for m in range(cap + 1) for n in range(cap + 1 - m)
    }


def require_bands(leaks: dict[tuple[int, int], float]) -> None:
    """Raise on the first band whose leakage exceeds FILTRATION_TOL."""
    for (m, n), leak in leaks.items():
        if leak > FILTRATION_TOL:
            raise FiltrationViolation(f"band leak at levels ({m}, {n})")


def _vacuum_unit_terms(model: FilteredModel, coeffs: np.ndarray) -> list[BatchedTerm]:
    """The eigenvalue-0 convention vector times one coefficient per column."""
    terms = []
    for a, xi in model.vacuum_unit.terms:
        scaled = {m: np.multiply.outer(t, coeffs) for m, t in xi.levels.items()}
        terms.append(BatchedTerm(a.levels, scaled, "xi"))
    return terms


def s_isometry_report(model: FilteredModel) -> float:
    """Largest entry of |G - 1|, G the Gram of the normalized-derivation
    images of the orthonormal eigenbasis (including the eigenvalue-0
    convention vector).

    The images are n^(-1/2) (e (x) 1) for the level-n basis elements e
    and the convention vector at level 0.  Each level is one column
    block with its basis on a batch axis, and ``nabla_gram_blocks``
    pairs the blocks through the trace form of the pairing,
    <a (x) xi, b (x) eta> = 1/2 [<a xi, D(b) eta> + <D(a) xi, b eta>
    - <D(b* a) xi, eta>], one U^H P_m V per level and bracket.  Only
    one block of G is held at a time, with a running maximum.
    """
    blocks = [_vacuum_unit_terms(model, np.ones(1))]
    blocks += [[_s_image_terms(model, n)] for n in range(1, len(model.bases))]
    dev = 0.0
    for r, c, g in nabla_gram_blocks(model.params, blocks):
        if r == c:
            g = g - np.eye(len(g))
        dev = max(dev, float(np.max(np.abs(g))))
    return dev


def _t_terms(model: FilteredModel, x: Element, y: Element, n: int) -> list[BatchedTerm]:
    """Term families of the commutation defect x S(e) y - S(x e y) with
    the level-n basis e on a batch axis:
    n^(-1/2) (xe, y), -n^(-1/2) (x, ey), -m^(-1/2) ((xey)_m, 1) for every
    level m >= 1, and the convention vector times -(xey)_0."""
    params = model.params
    one = Element.one(params).levels
    c = n**-0.5
    e = model.bases[n]
    xe = graded_mul(params, x.levels, e, batched="right")
    ey = graded_mul(params, e, y.levels, batched="left")
    xey = graded_mul(params, xe, y.levels, batched="left")
    terms = [
        BatchedTerm(_scaled(xe, c), y.levels, "a"),
        BatchedTerm(x.levels, _scaled(ey, -c), "xi"),
    ]
    for m, t in sorted(xey.items()):
        if m:
            terms.append(BatchedTerm({m: -(m**-0.5) * t}, one, "a"))
    if 0 in xey:
        terms.extend(_vacuum_unit_terms(model, -xey[0]))
    return terms


def _t_block_gram(model: FilteredModel, x: Element, y: Element, n: int) -> np.ndarray:
    params = model.params
    if n + x.top_level() + y.top_level() > params.max_level:
        raise TruncationLoss(
            f"products from level {n} with the given words leave the window"
        )
    ((_, _, gram),) = nabla_gram_blocks(params, [_t_terms(model, x, y, n)])
    return gram


def t_block_norm(model: FilteredModel, x: Element, y: Element, n: int) -> float:
    """Operator norm of the commutation defect T = x S(.) y - S(x . y)
    on the eigenvalue-n block, through the gradient-module Gram of the
    images.

    The Gram is the one block of ``nabla_gram_blocks`` over the term
    families of ``_t_terms``, each with the level-n basis on a batch
    axis, paired through the trace form of the pairing,
    <a (x) xi, b (x) eta> = 1/2 [<a xi, D(b) eta> + <D(a) xi, b eta>
    - <D(b* a) xi, eta>], one U^H P_m V per level and bracket.
    """
    # a defect with no terms pairs to the scalar 0.0
    top = hermitian_top(np.atleast_2d(_t_block_gram(model, x, y, n)))
    return float(np.sqrt(max(top, 0.0)))


@dataclass
class DecayVerdict:
    head: float
    tail: float
    factor: float

    @property
    def trend_pass(self) -> bool:
        return self.tail < self.factor * self.head


def decay_verdict(values: list[float], factor: float = 1.0) -> DecayVerdict:
    """Head max over the first two entries against tail max over the
    last two; the factor is the caller's strictness knob."""
    if len(values) < 2:
        raise TruncationLoss("need at least two block norms for a trend")
    head = max(values[:2])
    tail = max(values[-2:])
    return DecayVerdict(head, tail, factor)


def ou_t_decay_table(model: FilteredModel, x: Element, y: Element):
    """Rows (n, eigenvalue, block norm) over every level whose products
    stay inside the window."""
    budget = model.params.max_level - x.top_level() - y.top_level()
    rows = []
    for n in range(1, budget + 1):
        rows.append((n, float(n), t_block_norm(model, x, y, n)))
    return rows
