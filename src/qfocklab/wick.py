"""Wick operators on the truncated q-Fock space.

Three independent realizations of products are kept side by side and
cross-validated:

* ``Element`` multiplication / ``product_direct``: iterated two-word
  contraction formula (split operators plus level pairings);
* ``product_partition``: the segmented pair-partition sum with
  crossing-number q-weights and plain single-factor pair weights;
* ``product_triple``: the one-shot three-word contraction formula.

The partition sum is never used to build matrices, so agreement of the
three routes is a genuine consistency check rather than a tautology.

A Wick word W(xi) is the unique operator sending the vacuum to xi, so
it is identified with its vacuum vector: ``wick`` returns a one-level
``Element``.
"""

from __future__ import annotations

from functools import cache, reduce

import numpy as np

from .errors import LevelTooLarge, ShapeMismatch, TruncationLoss
from .partitions import (
    PairPartition,
    SegmentShape,
    crossing_number,
    enumerate_pair_partitions,
)
from .qfock import (
    FockParams,
    VECTOR_DIM_CAP,
    as_level_tensor,
    basis_tensor,
    conjugate_tensor,
    pairing_form,
    split_tensor,
    split_tensor3,
    symmetrizer_apply,
    _require_same_params,
)


# ---------------------------------------------------------------------------
# two-word contraction: the workhorse product
# ---------------------------------------------------------------------------


def _pair_tensor(params: FockParams, j: int) -> np.ndarray:
    return pairing_form(params, j).reshape((params.dim,) * (2 * j))


def _split_matrix(params: FockParams, t: np.ndarray, n: int, k: int, b: int) -> np.ndarray:
    """The split (n | k) of the window after ``b`` leading batch axes, as
    a contiguous (batch..., dim^n, dim^k) matrix."""
    s = split_tensor(params.q, t, n, k, b)
    return np.ascontiguousarray(s.reshape(t.shape[:b] + (params.level_dim(n), params.level_dim(k))))


def graded_mul(
    params: FockParams,
    left: dict[int, np.ndarray],
    right: dict[int, np.ndarray],
    max_out: int | None = None,
    weight=None,
    batched: str | None = None,
) -> dict[int, np.ndarray]:
    """Exact product of two level-graded vacuum vectors.

    Each retained output level is exact; ``max_out`` drops higher output
    levels deliberately (callers use it only when a band argument shows
    the dropped part cannot contribute downstream).

    ``weight(j)`` multiplies the j-contraction term (default 1); zero
    weights are skipped before the term is formed.

    With ``batched`` "left" or "right", the last axis of every level of that
    operand (never both) is a batch axis that rides along to every output.
    It is moved first once per level, so each term is formed batch-first
    from contiguous factors and each slice goes through the same BLAS
    kernels as unbatched, bit for bit.

    The j-contraction term is (split(left) @ P_j) @ split(right), or the
    outer product of the operands at j = 0.  An unbatched product keeps
    its j >= 1 factors for the other operand's levels: a left factor,
    keyed by j, for the rest of its left level, and a right factor, keyed
    by (right level, j), for the whole product.  A batched operand
    carries a whole basis on its batch axis, so a batched product keeps
    no factor and forms them per term.
    """
    bl, br = int(batched == "left"), int(batched == "right")
    left = {la: np.moveaxis(t, -1, 0) if bl else t for la, t in left.items()}
    right = {lb: np.moveaxis(t, -1, 0) if br else t for lb, t in right.items()}
    out: dict[int, np.ndarray] = {}
    right_factors: dict = {}
    for la, ta in left.items():
        params.check_level_budget(la)
        left_factors: dict = {}
        for lb, tb in right.items():
            params.check_level_budget(lb)
            batch = ta.shape[:bl] + tb.shape[:br]
            for j in range(min(la, lb) + 1):
                lo = la + lb - 2 * j
                if max_out is not None and lo > max_out:
                    continue
                w = 1 if weight is None else weight(j)
                if w == 0:
                    continue
                params.check_level_budget(lo)
                if j == 0:
                    col = np.ascontiguousarray(ta.reshape(ta.shape[:bl] + (-1, 1)), dtype=complex)
                    row = np.ascontiguousarray(tb.reshape(tb.shape[:br] + (1, -1)), dtype=complex)
                    prod = col * row
                else:
                    t1 = left_factors.get(j)
                    if t1 is None:
                        t1 = _split_matrix(params, ta, la - j, j, bl) @ pairing_form(params, j)
                    t2 = right_factors.get((lb, j))
                    if t2 is None:
                        t2 = _split_matrix(params, tb, j, lb - j, br)
                    if not batched:
                        left_factors[j], right_factors[lb, j] = t1, t2
                    prod = t1 @ t2
                term = prod.reshape(batch + (params.dim,) * lo)
                term = np.moveaxis(term, 0, -1) if batch else term
                out[lo] = out.get(lo, 0) + (term if w == 1 else w * term)
    return {m: t for m, t in out.items() if t.any()}


# ---------------------------------------------------------------------------
# algebra elements (finite Wick-word sums, stored as vacuum vectors)
# ---------------------------------------------------------------------------


class Element:
    """Element of the truncated *-algebra, identified with its vacuum
    vector.  It may occupy levels above the operator truncation, because
    exact products of retained words legitimately do."""

    __slots__ = ("params", "levels")

    def __init__(self, params: FockParams, levels: dict[int, np.ndarray]) -> None:
        clean = {}
        for m, t in levels.items():
            arr = as_level_tensor(params, int(m), t)
            if arr.any():
                clean[int(m)] = arr
        self.params, self.levels = params, clean

    @classmethod
    def _of_clean_levels(cls, params: FockParams, levels: dict[int, np.ndarray]) -> "Element":
        """Wrap levels that are already clean, skipping the coercion."""
        el = cls.__new__(cls)
        el.params, el.levels = params, levels
        return el

    # -- constructors -------------------------------------------------
    @classmethod
    def one(cls, params: FockParams) -> "Element":
        return cls(params, {0: np.array(1.0 + 0.0j)})

    @classmethod
    def zero(cls, params: FockParams) -> "Element":
        return cls(params, {})

    @classmethod
    def from_symbol(cls, params: FockParams, symbol) -> "Element":
        t = np.asarray(symbol, dtype=complex)
        return cls(params, {t.ndim: t})

    @classmethod
    def word(cls, params: FockParams, indices) -> "Element":
        t = basis_tensor(params, indices)
        return cls(params, {t.ndim: t})

    # -- linear structure ----------------------------------------------
    def scaled(self, c: complex) -> "Element":
        return Element(self.params, {m: c * t for m, t in self.levels.items()})

    def __add__(self, other: "Element") -> "Element":
        _require_same_params(self.params, other.params)
        levels = {m: t.copy() for m, t in self.levels.items()}
        for m, t in other.levels.items():
            levels[m] = levels.get(m, 0) + t
        return Element(self.params, levels)

    def __sub__(self, other: "Element") -> "Element":
        return self + other.scaled(-1.0)

    def __neg__(self) -> "Element":
        return self.scaled(-1.0)

    # -- algebra --------------------------------------------------------
    def mul(self, other: "Element", max_out: int | None = None) -> "Element":
        _require_same_params(self.params, other.params)
        # graded_mul's levels are complex, (dim,)*m shaped and nonzero already
        return Element._of_clean_levels(
            self.params, graded_mul(self.params, self.levels, other.levels, max_out)
        )

    def __mul__(self, other: "Element") -> "Element":
        return self.mul(other)

    # trivial-bimodule actions: the value protocol that cochains and
    # gradient vectors share
    def left(self, x: "Element") -> "Element":
        return x.mul(self)

    def right(self, y: "Element") -> "Element":
        return self.mul(y)

    def adjoint(self) -> "Element":
        """Conjugate-reverse the symbol of every level."""
        return Element(self.params, {m: conjugate_tensor(t) for m, t in self.levels.items()})

    def semigroup_applied(self, t: float) -> "Element":
        return Element(self.params, {m: np.exp(-t * m) * arr for m, arr in self.levels.items()})

    def trace(self) -> complex:
        got = self.levels.get(0)
        return complex(got) if got is not None else 0.0 + 0.0j

    def q_inner(self, other: "Element") -> complex:
        """q-deformed inner product, conjugate-linear in the first slot."""
        _require_same_params(self.params, other.params)
        total = 0.0 + 0.0j
        for m, t in self.levels.items():
            got = other.levels.get(m)
            if got is not None:
                total += np.vdot(t, symmetrizer_apply(self.params, got))
        return complex(total)

    def q_norm(self) -> float:
        return float(np.sqrt(max(self.q_inner(self).real, 0.0)))

    def top_level(self) -> int:
        return max(self.levels, default=0)

    def component(self, m: int) -> np.ndarray:
        got = self.levels.get(m)
        if got is not None:
            return got
        return np.zeros((self.params.dim,) * m, dtype=complex)

    def is_zero(self) -> bool:
        return not any(t.any() for t in self.levels.values())


# ---------------------------------------------------------------------------
# elementary Wick operators
# ---------------------------------------------------------------------------


def wick(params: FockParams, symbol) -> Element:
    """The Wick word of a symbol, or of 1-based basis indices: the unique
    operator sending the vacuum to it, as its one-level vacuum vector."""
    if isinstance(symbol, (list, tuple)) and all(isinstance(i, (int, np.integer)) for i in symbol):
        t = basis_tensor(params, symbol)
    else:
        t = np.asarray(symbol, dtype=complex)
    if t.ndim > params.max_level:
        raise LevelTooLarge(
            f"symbol level {t.ndim} exceeds max_level {params.max_level}"
        )
    return Element.from_symbol(params, t)


def _as_element(params: FockParams, w) -> Element:
    if isinstance(w, Element):
        _require_same_params(params, w.params)
        return w
    return Element.from_symbol(params, np.asarray(w, dtype=complex))


def _word_symbol(params: FockParams, w) -> np.ndarray:
    """The symbol of a pure-level word; the zero word is level 0."""
    levels = _as_element(params, w).levels
    if len(levels) > 1:
        raise ShapeMismatch(f"a word has one level, got levels {sorted(levels)}")
    return next(iter(levels.values()), np.zeros((), dtype=complex))


def product_direct(params: FockParams, words) -> Element:
    """Iterated two-word products, applied right-to-left to the vacuum."""
    elements = [_as_element(params, w) for w in words]
    if not elements:
        return Element.one(params)
    return reduce(lambda acc, el: el.mul(acc), reversed(elements), Element.one(params))


# ---------------------------------------------------------------------------
# pair-partition route
# ---------------------------------------------------------------------------


@cache
def _partitions_with_crossings(sizes: tuple[int, ...]) -> tuple[tuple[PairPartition, int], ...]:
    shape = SegmentShape(sizes)
    return tuple((p, crossing_number(p).total) for p in enumerate_pair_partitions(shape))


def partition_weighted_sum(
    params: FockParams,
    symbols: list[np.ndarray],
    weight=None,
    batched: bool = False,
) -> dict[int, np.ndarray]:
    """Sum over segmented pair partitions of q^crossings times the
    delta-contraction of the concatenated symbols over the pairs.

    ``weight`` maps a PairPartition to an extra scalar factor (default
    1); zero weights are skipped.  Output levels above ``max_level``
    are skipped too: the truncated space has no room for them.  Pair
    weights are the plain bilinear single-factor contractions, exactly
    as in the multiplication formula for Wick words.

    With ``batched``, the last axis of the middle word ``symbols[1]`` is
    a batch axis.  The sum is linear in each symbol, so every slice
    along that axis is a separate middle word; the axis rides along as
    the last axis of every output level.

    Level-0 factors act as scalars; they are folded out before the
    enumeration (segments must be non-empty), so ``weight`` sees the
    shape of the non-scalar factors only.

    Each einsum axis is labelled by its slot; a pair's two slots share
    the left one's label.  numpy sums contracted labels in label order.
    """
    if batched and symbols[1].ndim == 1:
        # A batch of level-0 words is a batch of scalars.
        out = partition_weighted_sum(params, symbols[:1] + symbols[2:], weight)
        out = {m: np.multiply.outer(t, symbols[1]) for m, t in out.items()}
        return {m: t for m, t in out.items() if t.any()}
    scalar = 1.0 + 0.0j
    live: list[np.ndarray] = []
    batch_axes: list[int] = []
    for i, t in enumerate(symbols):
        if t.ndim == 0:
            scalar *= complex(t)
        else:
            live.append(t)
            batch_axes.append(int(batched and i == 1))
    if not live:
        return {0: np.array(scalar)} if scalar != 0 else {}
    symbols = live
    sizes = tuple(t.ndim - b for t, b in zip(symbols, batch_axes))
    total = sum(sizes)
    params.check_level_budget(total, VECTOR_DIM_CAP)
    offsets = np.cumsum((0,) + sizes[:-1])
    out: dict[int, np.ndarray] = {}
    for part, cross in _partitions_with_crossings(sizes):
        lvl = len(part.singletons)
        if lvl > params.max_level:
            continue
        w = 1.0 if weight is None else weight(part)
        if w == 0:
            continue
        coeff = w * params.q**cross
        label = list(range(total))
        for l, r in part.pairs:
            label[r - 1] = l - 1
        args = []
        for t, size, off, b in zip(symbols, sizes, offsets, batch_axes):
            args += [t, label[off : off + size] + [...] * b]
        out_labels = [s - 1 for s in part.singletons] + [...]
        term = (scalar * coeff) * np.einsum(*args, out_labels)
        out[lvl] = out.get(lvl, 0) + term
    return {m: t for m, t in out.items() if t.any()}


def product_partition(params: FockParams, words) -> Element:
    """Product of elementary Wick words applied to the vacuum, evaluated
    by the pair-partition formula."""
    symbols = [_word_symbol(params, w) for w in words]
    total = sum(t.ndim for t in symbols)
    if total > params.max_level:
        raise TruncationLoss(
            f"total level {total} exceeds max_level {params.max_level}"
        )
    return Element(params, partition_weighted_sum(params, symbols))


# ---------------------------------------------------------------------------
# one-shot triple-product route
# ---------------------------------------------------------------------------

def triple_contraction_sum(
    params: FockParams,
    t_left: np.ndarray,
    t_mid: np.ndarray,
    t_right: np.ndarray,
    weight=None,
    batched: bool = False,
) -> dict[int, np.ndarray]:
    """Three-word contraction sum over split sizes (j, r, s).

    ``weight(j, r, s)`` multiplies the built-in q^(r*(mid-j-s)) factor;
    default 1 gives the triple product applied to the vacuum.  Zero
    weights are skipped.  Output levels above ``max_level`` are skipped
    too: the truncated space has no room for them.

    With ``batched``, the last axis of ``t_mid`` is a batch axis.  The
    sum is linear in the middle word, so every slice along that axis is
    a separate middle word; the axis rides along as the last axis of
    every output level.

    Einsum labels are axis positions in the concatenated words; a pair
    tensor carries the labels of the two axes it joins, and only an
    einsum with a pair tensor searches a contraction path.
    """
    n, m, k = t_left.ndim, t_mid.ndim - batched, t_right.ndim
    la, lb, lc = list(range(n)), list(range(n, n + m)), list(range(n + m, n + m + k))
    out: dict[int, np.ndarray] = {}
    for s in range(min(n, m) + 1):
        for r in range(min(n - s, k) + 1):
            for j in range(min(m - s, k - r) + 1):
                lvl = n + m + k - 2 * (j + r + s)
                if lvl > params.max_level:
                    continue
                w = 1.0 if weight is None else weight(j, r, s)
                if w == 0:
                    continue
                coeff = w * params.q ** (r * (m - j - s))
                a = split_tensor3(params.q, t_left, n - r - s, r, s)
                bm = split_tensor3(params.q, t_mid, s, m - s - j, j)
                c = split_tensor3(params.q, t_right, j, r, k - j - r)
                args = [a, la]
                if s:
                    args += [_pair_tensor(params, s), la[n - s :] + lb[:s]]
                args += [bm, lb + [...]]
                if j:
                    args += [_pair_tensor(params, j), lb[m - j :] + lc[:j]]
                args += [c, lc]
                if r:
                    args += [_pair_tensor(params, r), la[n - r - s : n - s] + lc[j : j + r]]
                out_labels = la[: n - r - s] + lb[s : m - j] + lc[j + r :] + [...]
                term = coeff * np.einsum(*args, out_labels, optimize=bool(s or j or r))
                out[lvl] = out.get(lvl, 0) + term
    return {lvl: t for lvl, t in out.items() if t.any()}


def product_triple(params: FockParams, left, mid, right) -> Element:
    """Triple product of Wick words on the vacuum via the one-shot
    contraction formula."""
    tensors = [_word_symbol(params, w) for w in (left, mid, right)]
    total = sum(t.ndim for t in tensors)
    if total > params.max_level:
        raise TruncationLoss(
            f"total level {total} exceeds max_level {params.max_level}"
        )
    return Element(params, triple_contraction_sum(params, *tensors))
