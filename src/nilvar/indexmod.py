"""Index modules of irreducible strata and their dimensions.

The variety decomposes into strata on which the isomorphism type of
M/soc(M) -- equivalently a well-chosen "index" direct sum of short
strings -- is constant.  An index module for dimension n is a direct sum

    S^{m_s}  +  M(x^i)^{m_x[i]}  +  M(y^j)^{m_y[j]}  +  M(x^i y^j)^{m_xy[i,j]}

of total dimension n(d-1) whose multiplicities satisfy a short list of
inequalities; each one pins down an irreducible stratum of the variety,
of dimension  n * dim Hom(L, Lambda) - dim End(L).

An index module is the tuple of its summand words, one Word x^i y^j per
summand and with multiplicity, largest exponent pair (i, j) first: the
empty word is the simple module S, x^i is M(x^i) and y^j is M(y^j).  It
is the form in which homalg.end_dim and orbit_dim take any direct sum of
strings.
"""

from __future__ import annotations

# loaded on demand: functions of other modules are looked up at call
# time, as in verify
from . import homalg
from .partitions import reduced_pair
from .words import AlgebraParams, Word


# ---------------------------------------------------------------------------
# recognition and dimension formulas
# ---------------------------------------------------------------------------

def is_index_module(words, n: int, params: AlgebraParams) -> bool:
    """Whether the direct sum of words is the index module of a stratum of
    the n-dimensional variety: every summand x^i y^j, the multiplicity
    inequalities, and total dimension n(d-1).
    """
    a, b = params.a, params.b
    pairs = [(w.count("x"), w.count("y")) for w in words]
    if any(w != "x" * i + "y" * j for w, (i, j) in zip(words, pairs)):
        return False
    mx = [i for i, j in pairs if i and not j]
    my = [j for i, j in pairs if j and not i]
    mxy = [(i, j) for i, j in pairs if i and j]
    if any(i > a - 2 for i in mx) or any(j > b - 2 for j in my):
        return False
    # mixed summands touching a boundary must be the full algebra
    if any((i == a - 1) != (j == b - 1) for i, j in mxy):
        return False
    # the last is m_s + m_x + m_y + 2 m_xy <= 2n, with m_s the simples
    if (len(mx) + len(mxy) > n or len(my) + len(mxy) > n
            or len(pairs) + len(mxy) > 2 * n):
        return False
    return sum(len(w) + 1 for w in words) == n * (params.d - 1)


def hom_to_proj_dim(words, n: int, params: AlgebraParams) -> int:
    """dim Hom(L, Lambda) for an index module L: every non-projective
    summand contributes its dimension plus one, each Lambda exactly its
    dimension -- so n(d-1) + (#summands) - (#Lambda summands)."""
    lam = "x" * (params.a - 1) + "y" * (params.b - 1)
    return n * (params.d - 1) + len(words) - words.count(lam)


def stratum_dim(words, n: int, params: AlgebraParams) -> int:
    """Dimension of the stratum indexed by the direct sum of words inside
    the n-dimensional variety:  n * dim Hom(L, Lambda) - dim End(L)."""
    return n * hom_to_proj_dim(words, n, params) - homalg.end_dim(words)


# ---------------------------------------------------------------------------
# the index modules of the classification
# ---------------------------------------------------------------------------

def _index_module(m, pairs, params: AlgebraParams) -> tuple:
    """Lambda^m  +  sum over (i, j) in pairs of M(x^{a-1-i} y^{b-1-j}), as
    its summand words, largest exponent pair first."""
    a, b = params.a, params.b
    exps = sorted([(a - 1, b - 1)] * m + [(a - 1 - i, b - 1 - j) for i, j in pairs],
                  reverse=True)
    return tuple(Word("x" * i + "y" * j, params) for i, j in exps)


def index_of_regular_stratum(a_part, b_part, params: AlgebraParams) -> tuple:
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
