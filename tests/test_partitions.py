"""Partition enumeration and crossing statistics against brute force."""

import itertools
import random

import pytest

from qfocklab.errors import ShapeMismatch
from qfocklab.partitions import (
    CrossingCount,
    PairPartition,
    SegmentShape,
    crossing_number,
    enumerate_pair_partitions,
)


def segment_of(shape: SegmentShape, index: int) -> int:
    """0-based segment number containing the 1-based index, read from
    the shape's index -> segment table."""
    if not 1 <= index <= shape.total:
        raise ShapeMismatch(f"index {index} outside [1, {shape.total}]")
    return shape._segments[index - 1]


def brute_force_partitions(shape: SegmentShape):
    """All covers of [n] by blocks of size <= 2 with no intra-segment
    pair, found by checking every candidate pair set."""
    n = shape.total
    found = set()

    def walk(remaining, pairs):
        if not remaining:
            singles = tuple(sorted(set(range(1, n + 1)) - {i for p in pairs for i in p}))
            found.add((tuple(sorted(pairs)), singles))
            return
        first = remaining[0]
        walk(remaining[1:], pairs)
        for other in remaining[1:]:
            if segment_of(shape, first) != segment_of(shape, other):
                rest = tuple(x for x in remaining[1:] if x != other)
                walk(rest, pairs + [(first, other)])

    walk(tuple(range(1, n + 1)), [])
    return found


def crossings_brute(p: PairPartition) -> CrossingCount:
    c = 0
    for (li, ri), (lj, rj) in itertools.permutations(p.pairs, 2):
        if li < lj < ri < rj:
            c += 1
    d = 0
    for x in range(1, p.shape.total + 1):
        for y in range(x + 1, p.shape.total + 1):
            for z in range(y + 1, p.shape.total + 1):
                if (x, z) in p.pairs and y in p.singletons:
                    d += 1
    return CrossingCount(c, d)


def test_single_segment_has_no_pairs():
    out = enumerate_pair_partitions(SegmentShape((2,)))
    assert len(out) == 1
    assert out[0].pairs == ()
    assert out[0].singletons == (1, 2)


def test_two_singleton_segments():
    out = enumerate_pair_partitions(SegmentShape((1, 1)))
    keys = {(p.pairs, p.singletons) for p in out}
    assert keys == {((), (1, 2)), (((1, 2),), ())}
    assert len(out) == 2


def test_three_singleton_segments():
    out = enumerate_pair_partitions(SegmentShape((1, 1, 1)))
    assert len(out) == 4
    assert out[0].pairs == ()  # all-singletons sorts first


@pytest.mark.parametrize(
    "sizes",
    [(1,), (3,), (1, 1), (2, 1), (1, 2, 1), (2, 2), (3, 2), (2, 2, 2), (4, 4, 3)],
)
def test_enumeration_matches_brute_force(sizes):
    shape = SegmentShape(sizes)
    got = {(p.pairs, p.singletons) for p in enumerate_pair_partitions(shape)}
    assert got == brute_force_partitions(shape)


def test_enumeration_is_sorted_and_duplicate_free():
    out = enumerate_pair_partitions(SegmentShape((2, 2, 1)))
    keys = [(p.pairs, p.singletons) for p in out]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)


def test_figure_partition_crossings():
    shape = SegmentShape((4, 4, 3))
    part = PairPartition([(2, 7), (4, 9), (8, 10)], [1, 3, 5, 6, 11], shape)
    cr = crossing_number(part)
    assert (cr.regular, cr.degenerate, cr.total) == (2, 5, 7)


def test_crossing_trivials():
    p = PairPartition([(1, 2)], [], SegmentShape((1, 1)))
    assert crossing_number(p).total == 0
    p = PairPartition([(1, 3)], [2], SegmentShape((1, 1, 1)))
    cr = crossing_number(p)
    assert (cr.regular, cr.degenerate, cr.total) == (0, 1, 1)


@pytest.mark.parametrize("sizes", [(2, 2), (3, 2, 1), (1, 1, 1, 1, 1), (4, 4)])
def test_crossings_match_triple_scan(sizes):
    for p in enumerate_pair_partitions(SegmentShape(sizes)):
        assert crossing_number(p) == crossings_brute(p)


def test_involution_counts_for_unit_segments():
    # With every segment of size one there is no pairing restriction, so
    # the enumeration counts partial matchings of k points.
    expect = {1: 1, 2: 2, 3: 4, 4: 10, 5: 26, 6: 76, 7: 232, 8: 764}
    for k, count in expect.items():
        assert len(enumerate_pair_partitions(SegmentShape((1,) * k))) == count


def test_intra_segment_rule_enforced():
    with pytest.raises(ShapeMismatch):
        PairPartition([(1, 2)], [3], SegmentShape((2, 1)))
    for p in enumerate_pair_partitions(SegmentShape((3, 3))):
        for l, r in p.pairs:
            assert segment_of(p.shape, l) != segment_of(p.shape, r)


@pytest.mark.parametrize(
    "pairs,singletons,message",
    [
        ([(1, 3)], [], "cover"),  # index 2 missing
        ([(1, 3)], [2, 2], "cover"),  # index 2 repeated
        ([(1, 3)], [1, 2], "cover"),  # index 1 in a pair and a singleton
        ([(2, 2)], [1, 3], "degenerate pair"),
        ([(1, 3)], [2, 4], "outside"),
        ([(0, 3)], [1, 2], "outside"),
        ([(1, 2)], [3], "inside one segment"),
    ],
)
def test_partition_validation_branches(pairs, singletons, message):
    with pytest.raises(ShapeMismatch, match=message):
        PairPartition(pairs, singletons, SegmentShape((2, 1)))


def test_partition_records_are_slotted():
    p = PairPartition([(3, 1)], [2], SegmentShape((1, 1, 1)))
    assert p.pairs == ((1, 3),) and p.singletons == (2,)
    for record in (p, crossing_number(p)):
        assert not hasattr(record, "__dict__")
    assert p == PairPartition([(1, 3)], [2], SegmentShape((1, 1, 1)))
    assert hash(p) == hash(PairPartition([(1, 3)], [2], SegmentShape([1, 1, 1])))


def test_segment_of_matches_cumulative_sizes():
    rng = random.Random(3)
    for _ in range(50):
        sizes = [rng.randint(1, 5) for _ in range(rng.randint(1, 6))]
        shape = SegmentShape(sizes)
        bounds = list(itertools.accumulate(sizes))
        assert shape.total == bounds[-1]
        for index in range(1, shape.total + 1):
            # the first segment whose cumulative size reaches the index
            expect = next(seg for seg, upper in enumerate(bounds) if index <= upper)
            assert segment_of(shape, index) == expect
        for index in (0, -1, shape.total + 1):
            with pytest.raises(ShapeMismatch):
                segment_of(shape, index)


def test_segment_shape_equality_and_hash_use_sizes_only():
    a, b = SegmentShape((2, 1)), SegmentShape([2, 1])
    assert a == b and hash(a) == hash(b)
    assert a != SegmentShape((1, 2))
    assert repr(a) == "SegmentShape(sizes=(2, 1))"


def format_partition(partition: PairPartition) -> str:
    """One-line debug dump: pairs, singletons and crossing statistics."""
    cr = crossing_number(partition)
    pairs = ",".join(f"({l},{r})" for l, r in partition.pairs)
    singles = ",".join(str(s) for s in partition.singletons)
    return (
        f"pairs=[{pairs}] singles=[{singles}] "
        f"c={cr.regular} d={cr.degenerate} cr={cr.total}"
    )


def test_format_partition_round():
    shape = SegmentShape((1, 1, 1))
    p = PairPartition([(1, 3)], [2], shape)
    line = format_partition(p)
    assert line == "pairs=[(1,3)] singles=[2] c=0 d=1 cr=1"
