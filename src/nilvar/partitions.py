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
        parts = tuple(parts)
        if not all(isinstance(v, int) for v in parts):
            raise ValueError(f"partition parts must be integers, got {parts}")
        for v in parts:
            if v <= 0:
                raise ValueError(f"partition parts must be positive, got {parts}")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError(f"partition parts must be weakly decreasing, got {parts}")
        return super().__new__(cls, parts)

    # -- basic statistics -------------------------------------------------

    def size(self) -> int:
        """Returns the sum of the parts."""
        return sum(self)

    def length(self) -> int:
        """Returns the number of parts."""
        return len(self)

    def multiplicity(self, i: int) -> int:
        """Returns the number of parts equal to i."""
        return sum(1 for v in self if v == i)

    # -- the operations the classification needs --------------------------

    def dual(self) -> "Partition":
        """Returns the dual (conjugate) partition: transpose of the Young diagram."""
        if not self:
            return Partition()
        return Partition(sum(1 for v in self if v > i) for i in range(self[0]))

    def minus_one(self) -> "Partition":
        """Subtract 1 from every part and drop the resulting zeros.

        Raises ValueError on the empty partition and on all-ones partitions
        (callers that only need the length of the result should count parts
        >= 2 instead, see reduced_length).
        """
        if not self:
            raise ValueError("minus_one of the empty partition")
        if self[0] == 1:
            raise ValueError(f"minus_one of the all-ones partition {self}")
        return Partition(v - 1 for v in self if v >= 2)

    def dominates(self, other) -> bool:
        """True iff self is dominated by other (self <= other): every prefix
        sum of self is at most the corresponding prefix sum of other.

        Only defined for partitions of the same number; raises otherwise.
        """
        other = Partition(other)
        if self.size() != other.size():
            raise ValueError(
                f"dominance needs equal sizes, got |{self}| = {self.size()} "
                f"and |{other}| = {other.size()}"
            )
        acc_s = acc_o = 0
        for k in range(max(len(self), len(other))):
            acc_s += self[k] if k < len(self) else 0
            acc_o += other[k] if k < len(other) else 0
            if acc_s > acc_o:
                return False
        return True

    # -- serialization ----------------------------------------------------

    def __str__(self) -> str:
        return "[" + ",".join(str(v) for v in self) + "]"

    def __repr__(self) -> str:
        return f"Partition({list(self)})"

    @classmethod
    def parse(cls, text: str) -> "Partition":
        """Parses the bracketed form produced by str(), e.g. "[3,2,2,1]"."""
        text = text.strip()
        if not (text.startswith("[") and text.endswith("]")):
            raise ValueError(f"not a partition literal: {text!r}")
        inner = text[1:-1].strip()
        if not inner:
            return cls()
        return cls(int(v) for v in inner.split(","))


def dominates(p, q) -> bool:
    """True iff p <= q in the dominance order (prefix sums of p bounded by
    those of q).  Both arguments must be partitions of the same number.
    """
    return Partition(p).dominates(q)


def reduced_length(p) -> int:
    """Returns the length of p minus-one, i.e. the number of parts >= 2.

    Safe on all-ones and empty partitions, unlike Partition.minus_one.
    """
    return sum(1 for v in p if v >= 2)


def enumerate_partitions(n: int, amax: int | None = None):
    """Yields all partitions of n with parts <= amax, lexicographically
    decreasing.  amax=None means no bound on the parts.

    enumerate_partitions(0) yields just the empty partition.
    """
    if n < 0:
        raise ValueError(f"cannot partition {n}")
    if amax is None:
        amax = n
    if n == 0:
        yield Partition()
        return
    if amax <= 0:
        return

    def rec(remaining, bound, prefix):
        if remaining == 0:
            yield Partition(prefix)
            return
        for v in range(min(bound, remaining), 0, -1):
            yield from rec(remaining - v, v, prefix + [v])

    yield from rec(n, amax, [])
