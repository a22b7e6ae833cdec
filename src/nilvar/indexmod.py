"""Index modules of irreducible strata and their dimensions.

The variety decomposes into strata on which the isomorphism type of
M/soc(M) -- equivalently a well-chosen "index" direct sum of short
strings -- is constant.  An index module for dimension n is a direct sum

    S^{m_s}  +  M(x^i)^{m_x[i]}  +  M(y^j)^{m_y[j]}  +  M(x^i y^j)^{m_xy[i,j]}

of total dimension n(d-1) whose multiplicities satisfy a short list of
inequalities; each one pins down an irreducible stratum of the variety,
of dimension  n * dim Hom(L, Lambda) - dim End(L).

We store an index module as a multiset of exponent pairs (i, j) >= (0,0):
(0,0) is the simple module, (i,0) is M(x^i), (0,j) is M(y^j).
"""

from __future__ import annotations

from collections import Counter

# loaded on demand: functions of other modules are looked up at call
# time, as in verify
from . import homalg
from .partitions import reduced_pair
from .words import AlgebraParams, Word


class BiserialIndexModule:
    """A formal direct sum of the modules S, M(x^i), M(y^j), M(x^i y^j),
    kept as a multiset of exponent pairs.  Immutable and hashable."""

    __slots__ = ("_items",)

    def __init__(self, counts):
        items = []
        for (i, j), mult in sorted(Counter(dict(counts)).items(), reverse=True):
            if not all(type(v) is int for v in (i, j, mult)):
                raise ValueError(f"need integer exponents and multiplicity, "
                                 f"got {(i, j)!r}: {mult!r}")
            if mult < 0:
                raise ValueError(f"negative multiplicity for {(i, j)}")
            if i < 0 or j < 0:
                raise ValueError(f"negative exponents {(i, j)}")
            if mult:
                items.append(((i, j), mult))
        self._items = tuple(items)

    # -- views -------------------------------------------------------------

    @property
    def m_s(self) -> int:
        return dict(self._items).get((0, 0), 0)

    @property
    def m_x(self) -> dict:
        return {i: m for (i, j), m in self._items if i > 0 and j == 0}

    @property
    def m_y(self) -> dict:
        return {j: m for (i, j), m in self._items if i == 0 and j > 0}

    @property
    def m_xy(self) -> dict:
        return {(i, j): m for (i, j), m in self._items if i > 0 and j > 0}

    def total_summands(self) -> int:
        return sum(m for _, m in self._items)

    def dim(self) -> int:
        """Dimension of the realization: a summand (i, j) contributes
        i + j + 1."""
        return sum(m * (i + j + 1) for (i, j), m in self._items)

    def __eq__(self, other):
        return isinstance(other, BiserialIndexModule) and self._items == other._items

    def __hash__(self):
        return hash(self._items)

    def __repr__(self):
        return f"BiserialIndexModule({dict(self._items)!r})"

    def summand_words(self, params: AlgebraParams) -> list[Word]:
        """The summands as words, largest first, with multiplicity."""
        out = []
        for (i, j), mult in self._items:
            w = Word("x" * i + "y" * j, params)
            out.extend([w] * mult)
        return out


# ---------------------------------------------------------------------------
# recognition and dimension formulas
# ---------------------------------------------------------------------------

def is_index_module(idx: BiserialIndexModule, n: int, params: AlgebraParams) -> bool:
    """Whether idx is the index module of a stratum of the n-dimensional
    variety: the multiplicity inequalities plus total dimension n(d-1).
    """
    a, b = params.a, params.b
    mx, my, mxy = idx.m_x, idx.m_y, idx.m_xy
    if any(i > a - 2 for i in mx):
        return False
    if any(j > b - 2 for j in my):
        return False
    # mixed summands touching a boundary must be the full algebra
    if any(j == b - 1 and i != a - 1 for (i, j) in mxy):
        return False
    if any(i == a - 1 and j != b - 1 for (i, j) in mxy):
        return False
    if any(i > a - 1 or j > b - 1 for (i, j) in mxy):
        return False
    sx, sy, sxy = sum(mx.values()), sum(my.values()), sum(mxy.values())
    if sx + sxy > n or sy + sxy > n:
        return False
    if idx.m_s + sx + sy + 2 * sxy > 2 * n:
        return False
    return idx.dim() == n * (params.d - 1)


def hom_to_proj_dim(idx: BiserialIndexModule, n: int, params: AlgebraParams) -> int:
    """dim Hom(L, Lambda) for an index module L: every non-projective
    summand contributes its dimension plus one, each Lambda exactly its
    dimension -- so n(d-1) + (#summands) - (#Lambda summands)."""
    p = idx.m_xy.get((params.a - 1, params.b - 1), 0)
    return n * (params.d - 1) + idx.total_summands() - p


def stratum_dim(idx: BiserialIndexModule, n: int, params: AlgebraParams) -> int:
    """Dimension of the stratum indexed by idx inside the n-dimensional
    variety:  n * dim Hom(L, Lambda) - dim End(L)."""
    return (n * hom_to_proj_dim(idx, n, params)
            - homalg.end_dim(idx.summand_words(params)))


# ---------------------------------------------------------------------------
# the index modules of the classification
# ---------------------------------------------------------------------------

def _index_module(m, pairs, params: AlgebraParams) -> BiserialIndexModule:
    """Lambda^m  +  sum over (i, j) in pairs of M(x^{a-1-i} y^{b-1-j})."""
    counts = Counter({(params.a - 1, params.b - 1): m})
    counts.update((params.a - 1 - i, params.b - 1 - j) for i, j in pairs)
    return BiserialIndexModule(counts)


def index_of_regular_stratum(a_part, b_part, params: AlgebraParams) -> BiserialIndexModule:
    """The index module of the regular stratum C(a_part, b_part):

        L = Lambda^{n-t}  +  sum_{i=1}^t M(x^{a-c_i-1} y^{b-d_{t-i+1}-1})

    with c = a_part - 1, d = b_part - 1 (both length t): each summand
    takes one pair of the diamond pairing of reduced_pair.  Raises unless
    reduced_pair accepts the pair as regular.
    """
    n, _, _, pairs = reduced_pair(a_part, b_part, params, 0)
    return _index_module(n - len(pairs), pairs, params)


def semiproj_index(a_part, b_part, params: AlgebraParams):
    """The open string P and index module L of a semi-projective stratum.

    Raises unless reduced_pair accepts the pair as semi-projective: first
    parts a and b, l(a_part) + l(b_part) = n + 1 and
    l(a_part - 1) = l(b_part - 1) = t.  With c = a_part - 1, d = b_part - 1:

        P = x^{c_1} y^{d_t} x^{c_2} y^{d_{t-1}} .. x^{c_t} y^{d_1}
        L = Lambda^{n-t}  +  sum_{i=2}^t M(x^{a-c_i-1} y^{b-d_{t-i+2}-1})

    so P joins the pairs of reduced_pair, and L pairs each inner x-run of
    P with the y-run just before it.  Returns (P, L); the orbit of M(P)
    is dense in the stratum of L.
    """
    n, _, _, pairs = reduced_pair(a_part, b_part, params, 1)
    word = Word("".join("x" * i + "y" * j for i, j in pairs), params)
    inner = [(i, j) for (_, j), (i, _) in zip(pairs, pairs[1:])]
    return word, _index_module(n - len(pairs), inner, params)
