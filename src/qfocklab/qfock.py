"""Truncated q-deformed Fock space over C^N.

Level-m tensors are numpy arrays of shape (N,)*m in the standard
(non-orthonormal for q != 0) tensor basis; level 0 is a ()-shaped
scalar.  The q-inner product is <u, v>_q = vdot(u, P_m v) with P_m the
q-symmetrizer, so all inner products here are conjugate-linear in the
FIRST argument.  Norm computations change basis with the inverse
Cholesky factor of the Gram (``symmetrizer_inv_sqrt``), never the raw
coordinates.  Dense Grams live on the truncated space: a tensor above
the truncation level (the top level of an exact product) meets its Gram
through the split recursion, which materializes no Gram above max_level.

Truncation contract: vector-level arithmetic is exact; block operators
record which source levels had output dropped at the max-level
boundary, and ``FockOperator.apply`` refuses a vector with mass at such
a level (``TRUNCATION_LOSS``) or above the truncation level
(``LEVEL_TOO_LARGE``).  Identity tests refuse lossy data the same way.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    LevelTooLarge,
    NotPositiveSemidefinite,
    ParamMismatch,
    ShapeMismatch,
    TruncationLoss,
)
from .numerics import hermitian_top, psd_inv_sqrt

# Largest N^m for materialized level matrices (Grams, operator blocks).
MATRIX_DIM_CAP = 4096
# Largest N^m for coefficient tensors in vector arithmetic.
VECTOR_DIM_CAP = 65536
# Largest max_level.  The product routes label every einsum axis by an
# integer, numpy accepts the 52 labels 0..51, and its contraction path
# search needs one label more for the batch axis of a gradient map.
LEVEL_CAP = 51
# (q, dim) pairs whose Grams, pairing forms, splitters and split weights
# stay cached, so a long q sweep holds a bounded amount; verify touches
# three values of q.
MEMO_PARAM_PAIRS = 4


@dataclass(frozen=True)
class FockParams:
    """Deformation q in (-1, 1), one-particle dimension, truncation level."""

    q: float
    dim: int
    max_level: int

    def __post_init__(self) -> None:
        if not -1.0 < self.q < 1.0:
            raise ParamMismatch(f"q must lie in (-1, 1), got {self.q}")
        if self.dim < 1:
            raise ParamMismatch(f"dim must be >= 1, got {self.dim}")
        if self.max_level < 0:
            raise ParamMismatch(f"max_level must be >= 0, got {self.max_level}")
        if _power_exceeds(self.dim, self.max_level, MATRIX_DIM_CAP):
            raise LevelTooLarge(
                f"dim^max_level = {self.dim}^{self.max_level} exceeds the "
                f"materializable budget {MATRIX_DIM_CAP}"
            )
        if self.max_level > LEVEL_CAP:
            raise LevelTooLarge(f"max_level {self.max_level} exceeds the level cap {LEVEL_CAP}")

    def level_dim(self, m: int) -> int:
        return self.dim**m

    def check_level_budget(self, m: int, cap: int = VECTOR_DIM_CAP) -> None:
        if m < 0:
            raise LevelTooLarge(f"negative level {m}")
        if _power_exceeds(self.dim, m, cap):
            raise LevelTooLarge(f"level {m} with dim {self.dim} exceeds budget {cap}")


def _power_exceeds(dim: int, m: int, cap: int) -> bool:
    """Whether dim**m > cap for a level m >= 0.  At dim >= 2 every level
    above cap.bit_length() exceeds, so no larger power is formed."""
    return dim > 1 and (m > cap.bit_length() or dim**m > cap)


def _require_same_params(a: FockParams, b: FockParams) -> None:
    if a != b:
        raise ParamMismatch(f"parameter mismatch: {a} vs {b}")


# ---------------------------------------------------------------------------
# raw tensor helpers
# ---------------------------------------------------------------------------


def as_level_tensor(params: FockParams, level: int, data) -> np.ndarray:
    """Coerce data to a complex (N,)*level tensor."""
    t = np.asarray(data, dtype=complex)
    want = (params.dim,) * level
    if t.shape != want:
        if t.size == params.level_dim(level):
            t = t.reshape(want)
        else:
            raise ShapeMismatch(f"level-{level} tensor must have shape {want}")
    return t


def basis_tensor(params: FockParams, indices) -> np.ndarray:
    """Elementary tensor e_{i1} (x) ... (x) e_{im} from 1-based indices."""
    idx = tuple(int(i) - 1 for i in indices)
    if any(not 0 <= i < params.dim for i in idx):
        raise ShapeMismatch(f"basis indices {indices} outside 1..{params.dim}")
    params.check_level_budget(len(idx))
    t = np.zeros((params.dim,) * len(idx), dtype=complex)
    t[idx] = 1.0
    return t


def conjugate_tensor(t: np.ndarray) -> np.ndarray:
    """Antilinear conjugation: reverse the tensor factors and conjugate
    the coordinates (the basis is real)."""
    return np.conj(np.transpose(t, axes=tuple(reversed(range(t.ndim)))))


def _split_terms(n: int, k: int):
    """Subsets A of {0..n+k-1} with |A| = n, each with its left-moving
    cost sum(a - position)."""
    total = n + k
    for comb in itertools.combinations(range(total), n):
        weight = sum(a - pos for pos, a in enumerate(comb))
        rest = [i for i in range(total) if i not in comb]
        yield list(comb) + rest, weight


def _permutation_rows(dim: int, axes) -> np.ndarray:
    """Flat gather rows of an axis permutation of a (dim,)*m tensor:
    ``t.reshape(-1)[rows]`` is the flattened ``np.transpose(t, axes)``.
    Rows are int32; every caller keeps dim^m <= MATRIX_DIM_CAP."""
    m = len(axes)
    window = np.arange(dim**m, dtype=np.int32).reshape((dim,) * m)
    return np.transpose(window, axes).reshape(-1)


def _read_only(a: np.ndarray) -> np.ndarray:
    """Mark a cached array read-only, so an in-place edit by a caller
    raises instead of corrupting every later result."""
    a.setflags(write=False)
    return a


@functools.cache
def _split_rows(dim: int, n: int, k: int) -> np.ndarray:
    """Flat gather rows of the two-part split of a (dim,)*(n+k) window,
    one row per term of ``_split_terms``: ``t.reshape(-1)[rows[c]]`` is
    the flattened ``np.transpose(t, order_c)``.  Callers keep
    dim^(n+k) <= MATRIX_DIM_CAP.

    The rows stay cached for the life of the process.  All the (n, k)
    tables of one level L = n + k together hold fewer than 2^L * dim^L
    int32 entries.  Under the cap that is largest at dim 2: 4^L entries,
    64 MiB at L = 12 and about 85 MiB summed over every level up to 12.
    Only tables some split has asked for are built."""
    rows = [_permutation_rows(dim, order) for order, _ in _split_terms(n, k)]
    return _read_only(np.stack(rows))


def split_tensor(q: float, t: np.ndarray, n: int, k: int, offset: int = 0) -> np.ndarray:
    """Apply the two-part splitting operator to axes [offset, offset+n+k).

    Output axis order puts the chosen n axes first (inside the window),
    weighted by q^cost; the remaining axes of ``t`` are untouched.
    When the window is the tail of the tensor and has at most
    MATRIX_DIM_CAP entries, the cached split table applies it to each
    leading slice as one gather and a sum weighted by the split weights
    of the (q, dim) memo; otherwise the permuted tensors are summed one
    term at a time, which needs neither.
    """
    if n < 0 or k < 0 or offset < 0 or offset + n + k > t.ndim:
        raise ShapeMismatch(f"split ({n},{k}) at offset {offset} does not fit ndim {t.ndim}")
    if n == 0 or k == 0:
        return t.astype(complex, copy=True)
    dim = t.shape[offset]
    size = dim ** (n + k)
    if t.shape[offset:] == (dim,) * (n + k) and size <= MATRIX_DIM_CAP:
        rows = t.reshape(-1, size).take(_split_rows(dim, n, k), axis=1)
        out = _split_weights(float(q), dim, n, k) @ rows
        return out.astype(complex, copy=False).reshape(t.shape)
    prefix = list(range(offset))
    suffix = list(range(offset + n + k, t.ndim))
    out = np.zeros_like(t, dtype=complex)
    for order, weight in _split_terms(n, k):
        axes = prefix + [offset + a for a in order] + suffix
        out += (q**weight) * np.transpose(t, axes=axes)
    return out


def split_tensor3(q: float, t: np.ndarray, p1: int, p2: int, p3: int) -> np.ndarray:
    """Three-part splitting of the leading axes via the two-part identity
    applied twice: split (p1+p2 | p3), then (p1 | p2) inside the first
    window."""
    return split_tensor(q, split_tensor(q, t, p1 + p2, p3), p1, p2)


# ---------------------------------------------------------------------------
# per-(q, dim) memo (Grams, pairing forms, splitters, split weights)
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=MEMO_PARAM_PAIRS)
def _pair_memo(q: float, dim: int) -> dict:
    """The read-only arrays kept for one (q, dim) pair, keyed by
    (builder name, key): its level Grams, pairing forms, splitters and
    split weights.  Only the MEMO_PARAM_PAIRS most recently used pairs
    are kept, so a q sweep drops each pair's arrays together.
    ``cache_info()`` counts the pairs kept (``currsize``) and the hits
    and misses of pair lookups, one per memoized call.  Racing threads
    may build one array twice; each stores a correct value."""
    return {}


def _memo_per_pair(build):
    """Memoize ``build(params, key)`` in the ``_pair_memo`` of
    ``(params.q, params.dim)``.  ``max_level`` is not part of the key, so
    every truncation of one (q, dim) shares the entries.  A build that
    raises stores nothing.  Builders run at max_level 0, where applying
    a Gram would recurse down to level 1, so a builder must not apply
    one (``symmetrizer_apply``, ``_sym_apply_front``)."""

    @functools.wraps(build)
    def lookup(params: FockParams, key) -> np.ndarray:
        q, dim = float(params.q), params.dim
        entries = _pair_memo(q, dim)
        got = entries.get((build.__name__, key))
        if got is None:
            got = _read_only(build(FockParams(q, dim, max_level=0), key))
            entries[build.__name__, key] = got
        return got

    return lookup


def _split_weights(q: float, dim: int, n: int, k: int) -> np.ndarray:
    """q^cost of each term of ``_split_terms``, in the order of
    ``_split_rows``, kept in the ``_pair_memo`` of (q, dim)."""
    entries = _pair_memo(q, dim)
    got = entries.get(("split_weights", (n, k)))
    if got is None:
        got = _read_only(np.array([q**cost for _, cost in _split_terms(n, k)]))
        entries["split_weights", (n, k)] = got
    return got


@_memo_per_pair
def symmetrizer(params: FockParams, m: int) -> np.ndarray:
    """q-symmetrizer (level Gram) on level m as a dense dim^m x dim^m
    matrix, by the Bozejko-Speicher recursion P_m = R_m* (P_{m-1} (x) 1),
    where R_m* is the sum over c of q^c times moving the last factor c
    places to the left."""
    params.check_level_budget(m, MATRIX_DIM_CAP)
    n, d = params.level_dim(m), params.dim
    if m <= 1:
        return np.eye(n, dtype=complex)
    lower = symmetrizer(params, m - 1).real
    # Complex, filled through its real part: numpy's float64 @ complex128
    # matmul is slower than complex @ complex, and every consumer is complex.
    out = np.zeros((n, n), dtype=complex)
    for c in range(m):
        # Term c: a row with factor x in slot m-1-c receives the row of
        # P_{m-1} without that slot, on the columns whose last factor is x.
        # The reshape only splits axes, so it is a view into out.
        pre, post = d ** (m - 1 - c), d**c
        rows = out.real.reshape(pre, d, post, n // d, d)
        scaled = (params.q**c * lower).reshape(pre, post, n // d)
        for x in range(d):
            rows[:, x, :, :, x] += scaled
    return out


def symmetrizer_inv_sqrt(params: FockParams, m: int) -> np.ndarray:
    """Upper-triangular W with W^H P_m W = 1 and W W^H = P_m^-1, P_m the
    level Gram; raises ``NOT_PSD`` when P_m has no Cholesky factor."""
    try:
        return psd_inv_sqrt(symmetrizer(params, m))
    except NotPositiveSemidefinite as exc:
        raise NotPositiveSemidefinite(
            f"level {m} Gram at q={params.q}, dim={params.dim} has no Cholesky factor"
        ) from exc


def _sym_apply_front(params: FockParams, t: np.ndarray, m: int) -> np.ndarray:
    """Apply the level-m Gram to the first m axes of t (trailing axes
    ride along).  Above the truncation level it recurses through the
    split identity P_m = (P_{m-1} (x) 1) R*_{m-1,1}, so only the Grams
    of levels up to max_level are materialized and cached."""
    if m <= max(1, params.max_level):
        g = symmetrizer(params, m)
        flat = t.reshape(params.level_dim(m), -1)
        return (g @ flat).reshape(t.shape)
    split = split_tensor(params.q, t, m - 1, 1)
    return _sym_apply_front(params, split, m - 1)


def symmetrizer_apply(params: FockParams, t: np.ndarray) -> np.ndarray:
    """Apply the level Gram to a tensor, by the dense Gram up to the
    truncation level and by the split recursion above the truncation
    level."""
    params.check_level_budget(t.ndim, VECTOR_DIM_CAP)
    return _sym_apply_front(params, t, t.ndim)


@_memo_per_pair
def splitter_matrix(params: FockParams, parts: tuple[int, ...]) -> np.ndarray:
    """Dense matrix of the splitting operator for the given part sizes.

    Satisfies Gram(total) = (Gram(p1) (x) ... (x) Gram(pj)) @ splitter.
    It is the split kernel run on the identity, so the Gram identities
    check the kernel that the products run: two parts by
    ``split_tensor``'s gather table (the one ``graded_mul`` runs) on
    the identity's rows, transposed, in blocks of rows that gather at
    most dim^(2L) entries each; three parts by ``split_tensor3``'s term
    loop (the one the triple route runs) on the identity's columns.
    """
    if any(p < 0 for p in parts):
        raise ShapeMismatch(f"negative part in {parts}")
    total = sum(parts)
    params.check_level_budget(total, MATRIX_DIM_CAP)
    n, window = params.level_dim(total), (params.dim,) * total
    live = [p for p in parts if p > 0]
    if len(live) <= 1:
        return np.eye(n, dtype=complex)
    if len(live) == 2:
        out = np.empty((n, n), dtype=complex)
        step = max(1, n // math.comb(total, live[0]))
        for i in range(0, n, step):
            rows = np.eye(min(step, n - i), n, i, dtype=complex).reshape((-1,) + window)
            out[:, i : i + step] = split_tensor(params.q, rows, *live, offset=1).reshape(-1, n).T
        return out
    if len(live) == 3:
        eye = np.eye(n, dtype=complex).reshape(window + (n,))
        return split_tensor3(params.q, eye, *live).reshape(n, n)
    raise ShapeMismatch(f"splitting into {len(live)} parts is not supported")


def r_star(params: FockParams, n: int, k: int) -> np.ndarray:
    """Two-part splitting operator on level n + k."""
    if n + k > params.max_level:
        raise LevelTooLarge(f"level {n + k} exceeds max_level {params.max_level}")
    return splitter_matrix(params, (n, k))


def r_star3(params: FockParams, n: int, k: int, l: int) -> np.ndarray:
    """Three-part splitting operator on level n + k + l."""
    if n + k + l > params.max_level:
        raise LevelTooLarge(f"level {n + k + l} exceeds max_level {params.max_level}")
    return splitter_matrix(params, (n, k, l))


@_memo_per_pair
def pairing_form(params: FockParams, j: int) -> np.ndarray:
    """Bilinear matrix B of the j-fold contraction: the contraction of
    v (x) w equals v^T B w, i.e. B[b, c] = Gram_j[reverse(b), c]."""
    params.check_level_budget(j, MATRIX_DIM_CAP)
    # Factor reversal is an involution: its gather rows scatter it too.
    return symmetrizer(params, j)[_permutation_rows(params.dim, tuple(reversed(range(j))))]


# ---------------------------------------------------------------------------
# block operators
# ---------------------------------------------------------------------------


@dataclass
class FockOperator:
    """Level-block matrix on the truncated Fock space.

    ``blocks`` maps (source level, target level) -> dense matrix of
    shape (N^target, N^source).  ``lossy_sources`` lists source levels
    whose image was cut at the truncation boundary; ``creation`` and
    ``gradient_map`` build no blocks from them, and ``apply`` refuses
    mass at those levels.
    """

    params: FockParams
    blocks: dict[tuple[int, int], np.ndarray] = field(default_factory=dict)
    lossy_sources: frozenset[int] = frozenset()

    def __post_init__(self) -> None:
        clean = {}
        for (src, dst), mat in self.blocks.items():
            arr = np.asarray(mat, dtype=complex)
            want = (self.params.level_dim(dst), self.params.level_dim(src))
            if arr.shape != want:
                raise ShapeMismatch(f"block {(src, dst)} must have shape {want}")
            if src > self.params.max_level or dst > self.params.max_level:
                raise LevelTooLarge(f"block {(src, dst)} beyond max_level")
            if arr.any():
                clean[(src, dst)] = arr
        self.blocks = clean
        self.lossy_sources = frozenset(self.lossy_sources)

    @classmethod
    def identity(cls, params: FockParams) -> "FockOperator":
        blocks = {
            (m, m): np.eye(params.level_dim(m), dtype=complex)
            for m in range(params.max_level + 1)
        }
        return cls(params, blocks)

    def apply(self, vec):
        """The image of an ``Element``, as an ``Element``.  Raises
        ``TRUNCATION_LOSS`` on mass at a lossy source and
        ``LEVEL_TOO_LARGE`` on mass above ``max_level``."""
        # wick imports this module, so Element is imported here.
        from .wick import Element

        _require_same_params(self.params, vec.params)
        out: dict[int, np.ndarray] = {}
        for m, t in vec.levels.items():
            if m > self.params.max_level:
                raise LevelTooLarge(
                    f"vector occupies level {m} above max_level {self.params.max_level}"
                )
            if m in self.lossy_sources:
                raise TruncationLoss(f"source level {m} was truncated during assembly")
            flat = t.reshape(-1)
            for (src, dst), mat in self.blocks.items():
                if src != m:
                    continue
                contrib = (mat @ flat).reshape((self.params.dim,) * dst)
                out[dst] = out.get(dst, 0) + contrib
        return Element(self.params, out)

    def add(self, other: "FockOperator") -> "FockOperator":
        _require_same_params(self.params, other.params)
        blocks = {k: v.copy() for k, v in self.blocks.items()}
        for k, v in other.blocks.items():
            blocks[k] = blocks.get(k, 0) + v
        return FockOperator(self.params, blocks, self.lossy_sources | other.lossy_sources)

    def source_levels(self) -> list[int]:
        return sorted({src for src, _ in self.blocks})

    def standard_form(self, sources) -> np.ndarray:
        """The Hermitian matrix whose eigenvalues are the squared
        singular values of the operator restricted to the given source
        levels, between the q-metric spaces.

        These are the eigenvalues of the pencil (B^H P B, (+)_m P_m),
        with B the stacked blocks and P the target Gram.  Each source
        Gram P_m is positive definite for |q| < 1, so with P_m = L_m L_m^H
        the pencil has the eigenvalues of the standard Hermitian matrix
        W^H (B^H P B) W, W = (+)_m L_m^-H, applied block by block.
        Raises ``NOT_PSD`` when a source Gram has no Cholesky factor."""
        offs, total = {}, 0
        for m in sources:
            offs[m] = total
            total += self.params.level_dim(m)
        quad = np.zeros((total, total), dtype=complex)
        targets = sorted({dst for src, dst in self.blocks if src in offs})
        for dst in targets:
            stacked = np.zeros((self.params.level_dim(dst), total), dtype=complex)
            for (src, d), mat in self.blocks.items():
                if d == dst and src in offs:
                    stacked[:, offs[src] : offs[src] + mat.shape[1]] = mat
            quad += stacked.conj().T @ symmetrizer(self.params, dst) @ stacked
        # Reduce the pencil in place to its standard form W^H quad W.
        for m, lo in offs.items():
            hi = lo + self.params.level_dim(m)
            w = symmetrizer_inv_sqrt(self.params, m)
            quad[lo:hi, :] = w.conj().T @ quad[lo:hi, :]
            quad[:, lo:hi] = quad[:, lo:hi] @ w
        return quad

    def q_singular_values(self, sources) -> np.ndarray:
        """Every singular value, largest first, of the operator restricted
        to the given source levels, from the whole spectrum of its
        ``standard_form`` (LAPACK ``eigvalsh``): for the finite-p Schatten
        norms, which read them all.  ``q_norm`` gives the largest alone,
        by matmuls."""
        quad = self.standard_form(sources)
        if quad.size == 0:
            return np.zeros(0)
        vals = np.linalg.eigvalsh(quad)
        return np.sqrt(np.clip(vals[::-1], 0.0, None))

    def q_norm(self, sources=None) -> float:
        """Operator norm between q-metric spaces, restricted to the given
        source levels (all of them by default): the square root of the
        top eigenvalue of the ``standard_form``, by ``hermitian_top``."""
        levels = self.source_levels() if sources is None else sources
        return math.sqrt(max(hermitian_top(self.standard_form(levels)), 0.0))


def creation(params: FockParams, xi) -> FockOperator:
    """Left creation by a one-particle vector; the block out of the top
    level is dropped and recorded as lossy."""
    vec = as_level_tensor(params, 1, xi)
    blocks = {}
    lossy = set()
    for m in range(params.max_level + 1):
        if m + 1 > params.max_level:
            if vec.any():
                lossy.add(m)
            continue
        n_src = params.level_dim(m)
        mat = np.kron(vec.reshape(-1, 1), np.eye(n_src, dtype=complex))
        blocks[(m, m + 1)] = mat
    return FockOperator(params, blocks, frozenset(lossy))


def annihilation(params: FockParams, xi) -> FockOperator:
    """Annihilation by the explicit shift rule: remove the k-th factor
    with weight q^(k-1) <xi, factor_k>."""
    vec = as_level_tensor(params, 1, xi)
    coeff = np.conj(vec.reshape(-1))
    d = params.dim
    blocks = {}
    for m in range(1, params.max_level + 1):
        n_src, n_dst = params.level_dim(m), params.level_dim(m - 1)
        mat = np.zeros((n_dst, n_src), dtype=complex)
        for k in range(m):
            # Source index splits as (front, hit, back) around slot k.
            back = d ** (m - 1 - k)
            src = np.arange(n_src)
            hit = (src // back) % d
            dst = (src // (back * d)) * back + (src % back)
            np.add.at(mat, (dst, src), (params.q**k) * coeff[hit])
        blocks[(m, m - 1)] = mat
    return FockOperator(params, blocks)
