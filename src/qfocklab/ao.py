"""Numerical compactness witnesses for the number-operator semigroup.

At finite truncation the model keeps, per eigenvalue, an orthonormal
family of Wick words spanning the eigenspace.  The normalized
derivation sends an eigenvector to its gradient-module class divided by
the square root of its eigenvalue; the commutation-defect maps measure
how far that normalization is from being bimodular.  Compactness cannot
be certified at truncation, so the artifact only reports block-norm
decay tables and head/tail trend verdicts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FiltrationViolation, TruncationLoss
from .qfock import FockParams, symmetrizer_inv_sqrt
from .wick import Element
from .gradient import GradientVector, nabla_gram, nabla_pairing_value, nabla_norm

FILTRATION_TOL = 1e-9


@dataclass
class FilteredModel:
    """Eigenvalues with orthonormalized eigenspace bases and the unit
    vector that stands in for the normalized derivation at eigenvalue 0.
    """

    params: FockParams
    kind: str
    eigenvalues: list[float]
    bases: list[list[Element]]
    vacuum_unit: GradientVector

    def eigenspace_count(self) -> int:
        return len(self.eigenvalues)

    def flat_basis(self):
        for n, basis in enumerate(self.bases):
            for i, el in enumerate(basis):
                yield n, i, el


def _orthonormal_words(params: FockParams, level: int) -> list[Element]:
    if level == 0:
        return [Element.one(params)]
    half_inv = symmetrizer_inv_sqrt(params, level)
    shape = (params.dim,) * level
    return [
        Element(params, {level: half_inv[:, j].reshape(shape)})
        for j in range(half_inv.shape[1])
    ]


def out_of_band_mass(params: FockParams, prod: Element, low: int, high: int, parity: int) -> float:
    """Euclidean mass of the components outside [low, high] or with the
    wrong parity."""
    bad = 0.0
    for m, t in prod.levels.items():
        if low <= m <= high and (m - parity) % 2 == 0:
            continue
        bad += float(np.sum(np.abs(t) ** 2))
    return float(np.sqrt(bad))


def filtration_check(model: FilteredModel, m: int, n: int):
    """Products of eigenbasis elements must stay inside the level band
    [|m-n|, m+n] with the parity of m+n; returns the worst leakage."""
    params = model.params
    if m + n > params.max_level:
        raise TruncationLoss(f"band {m}+{n} exceeds max_level {params.max_level}")
    worst = 0.0
    for e in model.bases[m]:
        for f in model.bases[n]:
            prod = e * f
            worst = max(worst, out_of_band_mass(params, prod, abs(m - n), m + n, (m + n) % 2))
    return worst


def _build_vacuum_unit(params: FockParams, s_images: list[GradientVector]) -> GradientVector:
    """Deterministic unit vector of the gradient module orthogonal to
    the normalized derivation images (the eigenvalue-0 convention)."""
    one = Element.one(params)
    candidates = [
        GradientVector(params, [(Element.word(params, [1]), Element.word(params, [1]))]),
        GradientVector(params, [(Element.word(params, [1]) * Element.word(params, [1]), one)]),
    ]
    for cand in candidates:
        reduced = cand
        for s in s_images:
            coeff = nabla_pairing_value(s, reduced)
            reduced = reduced.add(s.scaled(-coeff))
        norm = nabla_norm(reduced)
        if norm > 1e-6:
            return reduced.scaled(1.0 / norm)
    raise FiltrationViolation("no unit vector orthogonal to the derivation range")


def build_ou_model(params: FockParams, check: bool = True) -> FilteredModel:
    """Number-operator model: eigenvalue n carries the level-n words."""
    eigenvalues = [float(n) for n in range(params.max_level + 1)]
    bases = [_orthonormal_words(params, n) for n in range(params.max_level + 1)]
    model = FilteredModel(params, "ou-qfock", eigenvalues, bases, None)
    s_images = []
    for n in range(1, params.max_level + 1):
        for el in bases[n]:
            s_images.append(_derivation_class(params, el).scaled(eigenvalues[n] ** -0.5))
    model.vacuum_unit = _build_vacuum_unit(params, s_images)
    if check:
        for n, lam in enumerate(eigenvalues):
            for el in bases[n]:
                dev = (el.number_applied() - el.scaled(lam)).q_norm()
                if dev > 1e-10:
                    raise FiltrationViolation(
                        f"basis element at eigenvalue {lam} deviates by {dev:.2e}"
                    )
        cap = min(params.max_level, 5)
        for m in range(cap + 1):
            for n in range(cap + 1 - m):
                if filtration_check(model, m, n) > FILTRATION_TOL:
                    raise FiltrationViolation(f"band leak at levels ({m}, {n})")
    return model


def _derivation_class(params: FockParams, el: Element) -> GradientVector:
    return GradientVector(params, [(el, Element.one(params))])


def s_of_element(model: FilteredModel, el: Element) -> GradientVector:
    """Normalized derivation applied to an algebra element, eigenspace
    by eigenspace; the eigenvalue-0 component rides on the convention
    vector."""
    params = model.params
    if el.top_level() > params.max_level:
        raise TruncationLoss("element leaves the modeled eigenspace window")
    out = GradientVector(params, [])
    for m, t in el.levels.items():
        if m == 0:
            out = out.add(model.vacuum_unit.scaled(complex(t)))
            continue
        lam = model.eigenvalues[m]
        piece = _derivation_class(params, Element(params, {m: t}))
        out = out.add(piece.scaled(lam**-0.5))
    return out


def s_basis_image(model: FilteredModel, n: int, i: int) -> GradientVector:
    if n == 0:
        return model.vacuum_unit
    return _derivation_class(model.params, model.bases[n][i]).scaled(
        model.eigenvalues[n] ** -0.5
    )


@dataclass
class IsometryReport:
    gram: np.ndarray
    max_deviation: float
    labels: list[tuple[int, int]]


def s_isometry_report(model: FilteredModel, max_eigenvalue: int | None = None) -> IsometryReport:
    """Gram of the normalized-derivation images of the orthonormal
    eigenbasis (including the eigenvalue-0 convention vector)."""
    cap = model.eigenspace_count() - 1 if max_eigenvalue is None else max_eigenvalue
    images, labels = [], []
    for n, i, _ in model.flat_basis():
        if n > cap:
            continue
        images.append(s_basis_image(model, n, i))
        labels.append((n, i))
    gram = nabla_gram(images)
    dev = float(np.max(np.abs(gram - np.eye(len(images)))))
    return IsometryReport(gram, dev, labels)


def t_images(model: FilteredModel, x: Element, y: Element, n: int) -> list[GradientVector]:
    """Commutation defect x S(.) y - S(x . y) on the level-n eigenbasis."""
    params = model.params
    if n + x.top_level() + y.top_level() > params.max_level:
        raise TruncationLoss(
            f"products from level {n} with the given words leave the window"
        )
    out = []
    for el in model.bases[n]:
        se = s_of_element(model, el)
        moved = se.left(x).right(y)
        prod = (x * el) * y
        out.append(moved.add(s_of_element(model, prod).scaled(-1.0)))
    return out


def t_block_norm(model: FilteredModel, x: Element, y: Element, n: int) -> float:
    """Operator norm of the commutation defect on the eigenvalue-n
    block, through the gradient-module Gram of the images."""
    images = t_images(model, x, y, n)
    gram = nabla_gram(images)
    vals = np.linalg.eigvalsh(gram)
    return float(np.sqrt(max(float(vals[-1]), 0.0)))


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
        rows.append((n, model.eigenvalues[n], t_block_norm(model, x, y, n)))
    return rows
