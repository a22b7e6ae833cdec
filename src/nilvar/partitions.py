"""Integer partitions: enumeration, duality, dominance.

Partitions are weakly decreasing tuples of positive integers; the empty
tuple is the unique partition of 0.  Throughout, p(A) denotes the Jordan
type of a nilpotent matrix A, so the combinatorics here (duals, dominance
order, the "subtract one from every part" operation) is exactly what the
rank and classification formulas elsewhere consume.
"""

from __future__ import annotations


class Partition(tuple):
    """A partition, stored as a weakly decreasing tuple of positive ints.

    Subclasses tuple, so equality, hashing and lexicographic comparison
    come for free and instances can be used interchangeably with plain
    tuples in dict keys and sets.
    """

    def __new__(cls, parts=()):
        if type(parts) is cls:
            return parts  # immutable and already checked
        parts = tuple(parts)
        # type, not isinstance, to refuse bools; map keeps this check of
        # every enumerated partition out of a per-part Python loop
        if not set(map(type, parts)) <= {int}:
            raise ValueError(f"partition parts must be integers, got {parts}")
        for v in parts:
            if v <= 0:
                raise ValueError(f"partition parts must be positive, got {parts}")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError(f"partition parts must be weakly decreasing, got {parts}")
        return super().__new__(cls, parts)

    # -- the operations the classification needs --------------------------

    def dual(self) -> "Partition":
        """Returns the dual (conjugate) partition: transpose of the Young diagram."""
        if not self:
            return Partition()
        return Partition(sum(1 for v in self if v > i) for i in range(self[0]))

    def minus_one(self) -> "Partition":
        """Subtract 1 from every part and drop the resulting zeros; the
        empty and the all-ones partitions give the empty partition."""
        return Partition(v - 1 for v in self if v >= 2)

    # -- serialization ----------------------------------------------------

    def __str__(self) -> str:
        return "[" + ",".join(str(v) for v in self) + "]"

    def __repr__(self) -> str:
        return f"Partition({list(self)})"


def dominates(p, q) -> bool:
    """True iff p <= q in the dominance order (prefix sums of p bounded by
    those of q).  Both arguments must be partitions of the same number;
    raises otherwise.
    """
    p, q = Partition(p), Partition(q)
    if sum(p) != sum(q):
        raise ValueError(
            f"dominance needs equal sizes, got |{p}| = {sum(p)} and |{q}| = {sum(q)}")
    acc_p = acc_q = 0
    for k in range(max(len(p), len(q))):
        acc_p += p[k] if k < len(p) else 0
        acc_q += q[k] if k < len(q) else 0
        if acc_p > acc_q:
            return False
    return True


def reduced_length(p) -> int:
    """Returns the length of p minus-one, i.e. the number of parts >= 2,
    without building the partition."""
    return sum(1 for v in p if v >= 2)


def reduced_pair(a_part, b_part, params, extra):
    """The one check that a pair of partitions of n indexes a stratum, and
    the data every stratum formula reads off it: (n, c, d, pairs) with
    c = a_part - 1, d = b_part - 1 of common length t and
    pairs = [(c_i, d_{t+1-i})], the diamond pairing of the largest
    leftover x-run with the smallest leftover y-run.

    extra = 0 asks for a regular pair: l(a_part) + l(b_part) = n with
    parts <= a in a_part and <= b in b_part.  extra = 1 asks for a
    semi-projective stratum: l(a_part) + l(b_part) = n + 1 with first
    parts a and b; no other extra, not even True or 1.0, is accepted.
    Raises ValueError unless the sizes, the reduced lengths, the lengths
    and the bounds all hold."""
    if type(extra) is not int or extra not in (0, 1):
        raise ValueError(f"need extra 0 or 1, got {extra!r}")
    a_part, b_part = Partition(a_part), Partition(b_part)
    n = sum(a_part)
    if sum(b_part) != n:
        raise ValueError(f"need partitions of one n, got |{a_part}| = {n} "
                         f"and |{b_part}| = {sum(b_part)}")
    c, d = a_part.minus_one(), b_part.minus_one()
    if len(c) != len(d):
        raise ValueError(f"need l(a-1) = l(b-1), got {len(c)} vs {len(d)}")
    if len(a_part) + len(b_part) != n + extra:
        raise ValueError(f"need l(a) + l(b) = n + {extra}, got "
                         f"{len(a_part) + len(b_part)} vs {n + extra}")
    if extra == 0 and (max(a_part, default=0) > params.a
                       or max(b_part, default=0) > params.b):
        raise ValueError("partition parts exceed the nilpotency bounds")
    if extra == 1 and (a_part[0] != params.a or b_part[0] != params.b):
        raise ValueError("need a full part a in a_part and b in b_part")
    return n, c, d, list(zip(c, reversed(d)))


def enumerate_partitions(n: int, amax: int | None = None):
    """Yields all partitions of n with parts <= amax, lexicographically
    decreasing.  amax=None means no bound on the parts.

    enumerate_partitions(0) yields just the empty partition.  Each next
    one lowers the last part v + 1 >= 2 to v and fills in v + 1 and the
    trailing ones greedily by parts <= v: valid, so not checked again.
    """
    if n < 0:
        raise ValueError(f"cannot partition {n}")
    amax = n if amax is None else amax
    if amax <= 0 < n:
        return
    big, ones = [], n  # the parts >= 2, and the number of ones
    if amax > 1:
        q, r = divmod(n, amax)
        big, ones = [amax] * q + [r] * (r > 1), int(r == 1)
    while True:
        yield tuple.__new__(Partition, big + [1] * ones)
        if not big:
            return
        v = big.pop() - 1
        if v == 1:
            ones += 2
        else:
            q, r = divmod(v + 1 + ones, v)
            big += [v] * q + [r] * (r > 1)
            ones = int(r == 1)
