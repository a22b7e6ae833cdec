"""Tests for the partition combinatorics.

The dominance and dual tests are checked against independent brute-force
oracles (dominance via explicit prefix sums over padded lists, duals via
Young-diagram cell counting) so the implementations are never compared
only against themselves.
"""

import itertools
import json

import pytest

from nilvar.partitions import (
    Partition,
    dominates,
    enumerate_partitions,
    reduced_length,
    reduced_pair,
)
from nilvar.words import AlgebraParams

P33 = AlgebraParams(3, 3)


# -- oracles ---------------------------------------------------------------

def brute_partitions(n, amax):
    """All partitions of n with parts <= amax, by filtering weakly
    decreasing compositions."""
    out = set()

    def rec(rem, bound, acc):
        if rem == 0:
            out.add(tuple(acc))
            return
        for v in range(1, min(bound, rem) + 1):
            rec(rem - v, v, acc + [v])

    rec(n, amax, [])
    return out


def brute_dual(p):
    """Dual by counting cells of the transposed Young diagram."""
    cells = {(i, j) for i, v in enumerate(p) for j in range(v)}
    cols = sorted((sum(1 for (i, j) in cells if j == c) for c in range(p[0])), reverse=True) if p else []
    return tuple(cols)


def brute_dominates(p, q):
    k = max(len(p), len(q))
    pp = list(p) + [0] * (k - len(p))
    qq = list(q) + [0] * (k - len(q))
    return all(sum(pp[: i + 1]) <= sum(qq[: i + 1]) for i in range(k))


# -- construction ----------------------------------------------------------

def test_valid_construction():
    assert Partition([3, 2, 2, 1]) == (3, 2, 2, 1)
    assert Partition() == ()
    assert Partition([5]) == (5,)


def test_rejects_increasing():
    with pytest.raises(ValueError):
        Partition([2, 3])


def test_rejects_nonpositive():
    with pytest.raises(ValueError):
        Partition([3, 0])
    with pytest.raises(ValueError):
        Partition([-1])


def test_rejects_non_integer_parts():
    with pytest.raises(ValueError):
        Partition([2.5, 1])
    with pytest.raises(ValueError):
        Partition(["2", 1])
    with pytest.raises(ValueError, match="must be integers"):
        Partition([True, 1])


def test_partition_of_a_partition_is_itself():
    p = Partition([3, 2, 1])
    assert Partition(p) is p
    q = Partition((3, 2, 1))
    assert q is not p and type(q) is Partition and q == p
    # anything else is still checked
    with pytest.raises(ValueError, match="weakly decreasing"):
        Partition(tuple(reversed(p)))
    with pytest.raises(ValueError, match="must be integers"):
        Partition([True])
    with pytest.raises(ValueError, match="positive"):
        Partition(v - 1 for v in p)


def test_tuple_interop():
    p = Partition([2, 1])
    assert p == (2, 1)
    assert hash(p) == hash((2, 1))
    assert {p: "v"}[(2, 1)] == "v"


# -- statistics ------------------------------------------------------------

def test_size_length_multiplicity():
    p = Partition([3, 2, 2, 1])
    assert p.count(2) == 2
    assert p.count(5) == 0


# -- dual ------------------------------------------------------------------

def test_dual_worked_example():
    # the transpose of (3,2,2,1) has columns of heights 4,3,1
    assert Partition([3, 2, 2, 1]).dual() == (4, 3, 1)


def test_dual_empty():
    assert Partition().dual() == ()


def test_dual_against_oracle_and_involution():
    for n in range(9):
        for p in enumerate_partitions(n):
            assert p.dual() == brute_dual(p)
            assert p.dual().dual() == p


# -- minus_one -------------------------------------------------------------

def test_minus_one_worked_example():
    assert Partition([3, 2, 2, 1]).minus_one() == (2, 1, 1)


def test_minus_one_of_empty_and_all_ones_is_empty():
    assert Partition().minus_one() == ()
    assert Partition([1, 1, 1]).minus_one() == ()


def test_minus_one_size_drop():
    # |p - 1| = |p| - length(p)
    for n in range(1, 9):
        for p in enumerate_partitions(n):
            q = p.minus_one()
            assert sum(q) == sum(p) - len(p)


def test_reduced_length():
    assert reduced_length(Partition([3, 2, 2, 1])) == 3
    assert reduced_length(Partition([1, 1])) == 0
    assert reduced_length(Partition()) == 0
    for n in range(1, 9):
        for p in enumerate_partitions(n):
            assert reduced_length(p) == len(p.minus_one())


def test_reduced_pair_pairs_largest_x_run_with_smallest_y_run():
    n, c, d, pairs = reduced_pair((3, 3, 3, 2, 1), [3, 2, 2, 2, 1, 1, 1], P33, 0)
    assert (n, c, d) == (12, (2, 2, 2, 1), (2, 1, 1, 1))
    assert isinstance(c, Partition) and isinstance(d, Partition)
    assert pairs == [(2, 1), (2, 1), (2, 1), (1, 2)]
    assert reduced_pair((), (), P33, 0) == (0, (), (), [])


def test_reduced_pair_rejects_what_is_not_a_pair():
    with pytest.raises(ValueError, match=r"\|\[3,1\]\| = 4 and \|\[2\]\| = 2"):
        reduced_pair((3, 1), (2,), P33, 0)
    with pytest.raises(ValueError, match=r"got 1 vs 2"):
        reduced_pair((3, 1), (2, 2), P33, 0)
    with pytest.raises(ValueError, match="weakly decreasing"):
        reduced_pair((1, 2), (2, 1), P33, 0)


def test_reduced_pair_checks_the_rules_of_each_stratum_kind():
    # regular: l(a) + l(b) = n and parts within a, b
    assert reduced_pair((2,), (2,), P33, 0)[0] == 2
    assert reduced_pair((3, 1), (3, 1), P33, 0)[0] == 4
    with pytest.raises(ValueError, match=r"n \+ 0, got 4 vs 3"):
        reduced_pair((2, 1), (2, 1), P33, 0)
    with pytest.raises(ValueError, match="partitions of one n"):
        reduced_pair((2, 2), (3, 1, 1), P33, 0)
    with pytest.raises(ValueError, match="nilpotency bounds"):
        reduced_pair((4, 1), (3, 1, 1), P33, 0)
    with pytest.raises(ValueError, match="nilpotency bounds"):
        reduced_pair((3, 1, 1), (4, 1), P33, 0)
    # semi-projective: l(a) + l(b) = n + 1 and first parts a, b
    assert reduced_pair((3, 1, 1), (3, 1, 1), P33, 1)[3] == [(2, 2)]
    with pytest.raises(ValueError, match=r"n \+ 1, got 4 vs 5"):
        reduced_pair((3, 1), (3, 1), P33, 1)
    with pytest.raises(ValueError, match="full part"):
        reduced_pair((2, 2, 1), (2, 2, 1), P33, 1)
    with pytest.raises(ValueError, match="full part"):
        reduced_pair((3, 1, 1), (3, 1, 1), AlgebraParams(3, 4), 1)
    # no third kind: parts 9 > a = 3 would pass both bound checks unseen
    with pytest.raises(ValueError, match="need extra 0 or 1, got -7"):
        reduced_pair((9,), (9,), P33, -7)


@pytest.mark.parametrize("extra", [True, False, 1.0, 0.0])
def test_reduced_pair_refuses_extras_equal_to_but_not_0_or_1(extra):
    # True and 1.0 would read (3, 1, 1), (3, 1, 1) as a semi-projective
    # pair of n = 5, False and 0.0 would read (2, 1), (3) as a regular one
    for pair in (((3, 1, 1), (3, 1, 1)), ((2, 1), (3,))):
        with pytest.raises(ValueError, match=f"need extra 0 or 1, got {extra!r}$"):
            reduced_pair(*pair, P33, extra)


# -- dominance -------------------------------------------------------------

def test_dominance_requires_equal_size():
    with pytest.raises(ValueError):
        dominates((2, 1), (2, 2))


def test_dominance_examples():
    assert dominates((1, 1, 1, 1), (4,))
    assert not dominates((4,), (1, 1, 1, 1))
    assert dominates((2, 2), (3, 1))
    assert not dominates((3, 1), (2, 2))
    assert dominates((3, 1), (3, 1))


def test_dominance_against_oracle():
    parts = [p for n in range(8) for p in enumerate_partitions(n)]
    for p, q in itertools.product(parts, repeat=2):
        if sum(p) != sum(q):
            continue
        assert dominates(p, q) == brute_dominates(p, q)


def test_dominance_reverses_under_dual():
    for n in range(2, 8):
        for p, q in itertools.combinations(list(enumerate_partitions(n)), 2):
            assert dominates(p, q) == dominates(q.dual(), p.dual())


# -- enumeration -----------------------------------------------------------

def test_enumerate_counts():
    # partition numbers p(0..10)
    expected = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
    for n, cnt in enumerate(expected):
        assert len(list(enumerate_partitions(n))) == cnt


def test_enumerate_bounded_matches_oracle():
    for n in range(9):
        for amax in range(1, n + 2):
            got = list(enumerate_partitions(n, amax))
            assert set(map(tuple, got)) == brute_partitions(n, amax)
            # lexicographically decreasing, no repeats
            assert got == sorted(got, reverse=True)
            assert len(got) == len(set(got))


def recursive_partitions(n, amax=None):
    """The recursive walk that enumerate_partitions replaced: each part
    from the largest allowed down to 1, then the partitions of the rest
    with parts no larger."""
    if amax is None:
        amax = n
    if n == 0:
        yield ()
        return
    if amax <= 0:
        return

    def rec(remaining, bound, prefix):
        if remaining == 0:
            yield tuple(prefix)
            return
        for v in range(min(bound, remaining), 0, -1):
            yield from rec(remaining - v, v, prefix + [v])

    yield from rec(n, amax, [])


def test_enumerate_matches_the_recursive_walk():
    # the same list, order included, for every bound that matters; each
    # entry a Partition although none is validated again
    for n in range(21):
        for amax in [None, *range(n + 2)]:
            got = list(enumerate_partitions(n, amax))
            assert got == list(recursive_partitions(n, amax)), (n, amax)
            assert {type(p) for p in got} <= {Partition}


def test_enumerate_edge_cases():
    assert list(enumerate_partitions(0)) == [()]
    assert list(enumerate_partitions(0, 3)) == [()]
    assert list(enumerate_partitions(3, 0)) == []
    assert list(enumerate_partitions(4, 2)) == [(2, 2), (2, 1, 1), (1, 1, 1, 1)]
    with pytest.raises(ValueError):
        list(enumerate_partitions(-1))


# -- serialization ---------------------------------------------------------

def test_str_roundtrip():
    for n in range(8):
        for p in enumerate_partitions(n):
            # the bracketed form is a JSON list
            assert Partition(json.loads(str(p))) == p
    assert str(Partition([3, 2, 2, 1])) == "[3,2,2,1]"
    assert str(Partition()) == "[]"
