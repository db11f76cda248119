"""Segmented partial pair partitions and their crossing statistics.

The index set [n] (1-based) is cut into consecutive segments of sizes
(n1, ..., nk).  A partition splits [n] into blocks of size at most two
such that no pair has both endpoints inside the same segment.  These
partitions index the terms of the Wick multiplication formula; the
crossing number supplies the q-exponent of each term.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from operator import attrgetter

from .errors import ShapeMismatch


@dataclass(frozen=True)
class SegmentShape:
    """Ordered segment sizes; ``total`` is the size of the ground set.

    Equality and hashing use ``sizes`` only; the index -> segment table
    is built once, at construction.
    """

    sizes: tuple[int, ...]
    _segments: tuple[int, ...] = field(compare=False, repr=False)

    def __init__(self, sizes) -> None:
        object.__setattr__(self, "sizes", tuple(int(s) for s in sizes))
        if not self.sizes:
            raise ShapeMismatch("shape needs at least one segment")
        if any(s < 1 for s in self.sizes):
            raise ShapeMismatch(f"segment sizes must be >= 1, got {self.sizes}")
        segments = tuple(seg for seg, size in enumerate(self.sizes) for _ in range(size))
        object.__setattr__(self, "_segments", segments)

    @property
    def total(self) -> int:
        return len(self._segments)


@dataclass(frozen=True, slots=True)
class PairPartition:
    """Blocks of size <= 2 over a segmented ground set.

    ``pairs`` are (l, r) with l < r, both 1-based; ``singletons`` is
    sorted.  Construction validates the exact cover of [1, n] (naming
    an index outside it or a degenerate pair (l, l) when one breaks the
    cover) and the no-pair-inside-a-segment constraint.
    """

    pairs: tuple[tuple[int, int], ...]
    singletons: tuple[int, ...]
    shape: SegmentShape

    def __init__(self, pairs, singletons, shape: SegmentShape) -> None:
        pairs = [(l, r) if l < r else (r, l) for l, r in pairs]
        pairs.sort()
        pairs = tuple(pairs)
        singletons = tuple(sorted(map(int, singletons)))
        object.__setattr__(self, "pairs", pairs)
        object.__setattr__(self, "singletons", singletons)
        object.__setattr__(self, "shape", shape)
        segments = shape._segments
        n = len(segments)
        covered = [i for pair in pairs for i in pair]
        covered += singletons
        covered.sort()
        if covered != list(range(1, n + 1)):
            if covered and not (1 <= covered[0] and covered[-1] <= n):
                raise ShapeMismatch(f"an index of {covered} lies outside [1, {n}]")
            for l, r in pairs:
                if l == r:
                    raise ShapeMismatch(f"degenerate pair ({l},{r})")
            raise ShapeMismatch("blocks do not cover the ground set exactly once")
        for l, r in pairs:
            if segments[l - 1] == segments[r - 1]:
                raise ShapeMismatch(f"pair ({l},{r}) lies inside one segment")


@dataclass(frozen=True, slots=True)
class CrossingCount:
    """Regular pair/pair crossings c, degenerate pair-over-singleton
    crossings d, and their sum."""

    regular: int
    degenerate: int

    @property
    def total(self) -> int:
        return self.regular + self.degenerate


def enumerate_pair_partitions(shape: SegmentShape) -> list[PairPartition]:
    """All partitions of the segmented set into blocks of size <= 2 with
    no intra-segment pair.

    The result is materialized and sorted lexicographically on the
    sorted pair list, so the order is reproducible across runs.
    """
    seg = shape._segments
    out: list[PairPartition] = []

    def extend(unassigned: tuple[int, ...], pairs: tuple, singles: tuple) -> None:
        if not unassigned:
            out.append(PairPartition(pairs, singles, shape))
            return
        first, rest = unassigned[0], unassigned[1:]
        extend(rest, pairs, singles + (first,))
        home = seg[first - 1]
        for i, j in enumerate(rest):
            if seg[j - 1] != home:
                extend(rest[:i] + rest[i + 1 :], pairs + ((first, j),), singles)

    extend(tuple(range(1, shape.total + 1)), (), ())
    out.sort(key=attrgetter("pairs", "singletons"))
    return out


def crossing_number(partition: PairPartition) -> CrossingCount:
    """Count c = #{l_i < l_j < r_i < r_j} and d = #{x < y < z : (x, z)
    paired, y a singleton}."""
    pairs = partition.pairs
    regular = 0
    for (li, ri), (lj, rj) in itertools.combinations(pairs, 2):
        if li < lj < ri < rj or lj < li < rj < ri:
            regular += 1
    singles = partition.singletons
    degenerate = sum(1 for (l, r) in pairs for s in singles if l < s < r)
    return CrossingCount(regular, degenerate)
