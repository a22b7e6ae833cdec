"""Hom and Ext dimensions for string and band modules.

Two independent routes to Hom, kept separate on purpose so each can
audit the other:

  * hom_dim_graph counts graph maps, the basis of Hom that
    words.admissible_pairs lists: one per factor window (s, E) of the
    source and substring window (q, E) of the target with the same middle
    word E.  A graph map is the triple (s, q, L), L = |E|: it sends
    e_{s+i} to e_{q+i} for i = 0..L and every other basis vector to
    zero, and this is the one form in which graph maps, the projective
    cover and the compositions below are handled.  The count builds no
    map: it reads both words' windows grouped by middle off the index
    that admissible_pairs uses too (words._middles, built once per word)
    and multiplies, per middle word, the source's factor windows by the
    target's substring windows.

  * hom_dim_oracle knows nothing about words: it computes the dimension
    of the solution space of F A_1 = A_2 F, F B_1 = B_2 F by linear
    algebra.  For partial-permutation matrices (every string module, a
    band module with one layer and lambda = 1, and any direct sum or
    permutation conjugate of them) each scalar equation mentions at most
    two entries of F with coefficient 1, so the system collapses to
    union-find on the entries.  The oracle reads each module's ones and
    a 4-bit letter mask per basis vertex once
    (MatrixPairModule.permutation_maps) and reuses them for every pair:
    it merges entries only over pairs of ones of the same letter, and
    reads the entries forced to zero off a 16 x 16 table of mask pairs.
    Otherwise a dense exact nullity is computed.

Ext^1(M(C), M(D)) vanishing is decided through the Auslander-Reiten
formula  Ext^1(X, Y) = D Hombar(tau^{-1} Y, X):  maps from tau^{-1} M(D)
to M(C) are computed by graph maps, the ones factoring through a
projective are exactly those factoring through the projective cover of
M(C), and Ext^1 vanishes iff the cover compositions span Hom.  The cover
is read off the word C, one Lambda per peak, each summand itself a graph
map Lambda -> M(C), and each composition of a graph map into Lambda with
a cover summand is the identity on the overlap of two windows: zero or
itself a graph map M(tau^{-1} D) -> M(C), found in O(1) by _compose.
Graph maps are a basis of Hom (Crawley-Boevey 1989), so the span has
dimension the number of distinct nonzero compositions, and the Ext route
is a count with no linear algebra.  This is the one Ext route; the tests
audit it from outside by the cocycle dimension dim Z^1 - (n_M n_N - dim
Hom), which needs only the module matrices.
"""

from __future__ import annotations

from functools import lru_cache

from .words import (MEMO_SIZE, AlgebraParams, Word, _middles, admissible_pairs,
                    factor_windows, substring_windows, tau_inverse)


# ---------------------------------------------------------------------------
# graph maps
# ---------------------------------------------------------------------------

@lru_cache(maxsize=MEMO_SIZE)
def _hom_count(src_text: str, tgt_text: str, a: int, b: int) -> int:
    # len(admissible_pairs(..)) without the maps: pairs of windows with
    # equal middles, counted per middle.  a and b stay in the key although
    # the count reads the texts alone: hom-agreement runs one text over
    # several algebras, and the benchmark's test expects that workload
    # never to hit this memo
    fac = _middles(src_text, factor_windows)
    sub = _middles(tgt_text, substring_windows)
    return sum(len(offsets) * len(sub.get(m, ())) for m, offsets in fac.items())


def hom_dim_graph(src: Word, tgt: Word) -> int:
    """dim Hom(M(src), M(tgt)) by counting admissible pairs (memoized on
    the word texts and parameters)."""
    if src.params != tgt.params:
        raise ValueError("hom_dim_graph needs words over the same algebra")
    return _hom_count(str(src), str(tgt), src.params.a, src.params.b)


# ---------------------------------------------------------------------------
# the linear-algebra oracle
# ---------------------------------------------------------------------------

# _FORCED[m2][m1]: 1 iff the entry F[i, s] of a map M1 -> M2 is forced to
# zero when vertex s of M1 has letter mask m1 and vertex i of M2 has mask
# m2 (bits 1, 2: an x-, y-arrow into the vertex; 4, 8: out of it).  F
# commutes with a letter, so an arrow into s must meet one into i, and an
# arrow out of i one out of s.  Each row is padded to 256 bytes so that
# bytes.translate reads a whole row of F off M1's masks at once.
_FORCED = [bytes(m1 < 16 and bool(m1 & ~m2 & 3 | m2 & ~m1 & 12)
                 for m1 in range(256)) for m2 in range(16)]


def _hom_dim_unionfind(maps1, maps2) -> int:
    """Solution dimension of F A1 = A2 F, F B1 = B2 F for n2 x n1 F when
    every matrix is a partial permutation, given by the two modules'
    permutation_maps: each equation says F_p = F_q or F_p = 0, so the
    free entries are the union-find classes that no entry forced to zero
    lies in.  For each letter, a one (s, j) of x1 and a one (i, t) of x2
    give (F x1)[i, j] = F[i, s] = F[t, j] = (x2 F)[i, j], the only
    merges; every other equation reads 0 = 0 or zeroes one entry, and
    those entries are the ones _FORCED marks.  The free classes are
    counted as the merges go: a merge loses one unless both classes
    were forced to zero already."""
    (ones1, masks1), (ones2, masks2) = maps1, maps2
    n1 = len(masks1)
    zero = bytearray(b"".join([masks1.translate(_FORCED[m]) for m in masks2]))
    free = len(zero) - zero.count(1)
    parent = list(range(len(zero)))
    for letter1, letter2 in zip(ones1, ones2):
        for i, t in letter2:
            row_p, row_q = i * n1, t * n1
            for s, j in letter1:
                p, q = row_p + s, row_q + j
                while parent[p] != p:
                    parent[p] = p = parent[parent[p]]
                while parent[q] != q:
                    parent[q] = q = parent[parent[q]]
                if p != q:
                    parent[p] = q
                    if zero[p]:
                        if zero[q]:
                            continue
                        zero[q] = 1
                    free -= 1
    return free


def _hom_dim_dense(m1, m2) -> int:
    from .exactla import RationalMatrix  # here only: classify never loads it
    n1, n2 = m1.n, m2.n
    total = n1 * n2
    rows = []
    for x1, x2 in ((m1.A, m2.A), (m1.B, m2.B)):
        cols1 = x1.transpose().rows
        for i, row2 in enumerate(x2.rows):
            for j, col1 in enumerate(cols1):
                # (F x1)[i,j] - (x2 F)[i,j] over the entries of F, row-major
                row = {i * n1 + s: v for s, v in col1.items()}
                for t, v in row2.items():
                    k = t * n1 + j
                    w = row.get(k, 0) - v
                    if w:
                        row[k] = w
                    else:
                        del row[k]
                if row:
                    rows.append(row)
    if not rows:
        return total
    return total - RationalMatrix(rows, total).rank()


def hom_dim_oracle(m1, m2, method=None) -> int:
    """dim Hom(m1, m2) = dim {F : F A1 = A2 F, F B1 = B2 F} for matrix-pair
    modules, by linear algebra, independent of any word combinatorics.

    method: None picks union-find when all four matrices are partial
    permutations (exact; one merge per pair of ones of a letter, one table
    lookup per entry of F) and exact elimination otherwise; pass
    "unionfind" or "dense" to force a route.  Each module's ones and
    letter masks are read once, on its first call, and kept on the module
    (permutation_maps), so a module met again -- or found not to be a
    partial permutation -- costs no further scan.
    """
    if m1.params != m2.params:
        raise ValueError("hom_dim_oracle needs equal algebra parameters")
    if method in (None, "unionfind"):
        maps1, maps2 = m1.permutation_maps(), m2.permutation_maps()
        if maps1 is not None and maps2 is not None:
            return _hom_dim_unionfind(maps1, maps2)
        if method == "unionfind":
            raise ValueError("union-find route needs partial-permutation matrices")
    elif method != "dense":
        raise ValueError(f"unknown method {method!r}")
    return _hom_dim_dense(m1, m2)


# ---------------------------------------------------------------------------
# End and orbit dimension
# ---------------------------------------------------------------------------

def end_dim(words) -> int:
    """dim End of the direct sum of the string modules M(w), w in words:
    the sum of the pairwise graph counts (memoized, so repeated summand
    types across a classification run cost nothing).  A band module m
    has End of dimension hom_dim_oracle(m, m)."""
    params = {w.params for w in words}
    if len(params) != 1:
        raise ValueError("end_dim needs one or more words over one algebra")
    a, b = params.pop()
    texts = [str(w) for w in words]
    return sum(_hom_count(t1, t2, a, b) for t1 in texts for t2 in texts)


def orbit_dim(words) -> int:
    """Dimension of the conjugation orbit of the direct sum of the string
    modules M(w), w in words: n^2 - dim End with n = sum of |w| + 1, since
    the stabilizer of the point in GL_n is the unit group of End."""
    n = sum(len(w) + 1 for w in words)
    return n * n - end_dim(words)


# ---------------------------------------------------------------------------
# projective covers and Ext^1
# ---------------------------------------------------------------------------

def projective_cover(c: Word) -> list[tuple]:
    """The projective cover P -> M(c), read off the word.

    The peaks of c -- positions i with no x at c[i] and no y at c[i-1],
    which neither A nor B reaches -- span the top of M(c), and P has one
    Lambda = M(x^{a-1}y^{b-1}) per peak.  With z_1..z_d the string basis
    of Lambda (z_a generates), peak i's summand runs down the x-run to its
    left and up the y-run to its right, and to zero past their ends:

        z_j      |-> A^{a-j} e_i = e_{i-(a-j)}   (j = 1..a)
        z_{a+l}  |-> B^l e_i     = e_{i+l}       (l = 1..b-1)

    Returns, per peak in increasing order, that summand as the graph map
    Lambda -> M(c) (a-1-l, i-l, l+r), with l the length of the x-run just
    left of the peak and r that of the y-run just right of it.
    """
    a, _ = c.params
    cover = []
    for i in range(len(c) + 1):
        if c[i:i + 1] == "x" or c[i - 1:i] == "y":
            continue
        left = i - len(c[:i].rstrip("x"))
        right = len(c) - i - len(c[i:].lstrip("y"))
        cover.append((a - 1 - left, i - left, left + right))
    # the target windows [q, q+L] cover 0..|c|
    reach = 0
    for _, q, length in cover:
        assert q <= reach, "cover fails to surject"
        reach = max(reach, q + length + 1)
    assert reach == len(c) + 1, "cover fails to surject"
    return cover


@lru_cache(maxsize=MEMO_SIZE)
def _ext1_vanishes(c_text: str, d_text: str, a: int, b: int) -> bool:
    p = AlgebraParams(a, b)
    c = Word(c_text, p)
    w = tau_inverse(Word(d_text, p))
    return len(_cover_compositions(c, w)) == hom_dim_graph(w, c)


def _compose(f: tuple, g: tuple):
    """The graph map g after f, or None when it is zero: the identity on
    the overlap of f's target window and g's source window."""
    (s1, q1, l1), (s2, q2, l2) = f, g
    lo, hi = max(q1, s2), min(q1 + l1, s2 + l2)
    if lo > hi:
        return None
    return (lo - q1 + s1, lo - s2 + q2, hi - lo)


def _cover_compositions(c: Word, w: Word) -> set:
    """The distinct nonzero maps M(w) -> M(c) that factor through the
    projective cover P -> M(c) via one graph map M(w) -> Lambda and one
    Lambda summand of P.  Each is a graph map M(w) -> M(c); graph maps are
    a basis of Hom, so the maps returned are linearly independent and
    their number is the rank of the span."""
    p = c.params
    cover = projective_cover(c)
    lam = Word("x" * (p.a - 1) + "y" * (p.b - 1), p)
    return {_compose(f, g) for f in admissible_pairs(w, lam) for g in cover} - {None}


def ext1_vanishes(c: Word, d: Word) -> bool:
    """True iff Ext^1(M(c), M(d)) = 0, for semi-projective d (so that
    tau^{-1} d is a word; semi-projective strings are never injective).

    Auslander-Reiten route: Hom(M(tau^{-1}d), M(c)) modulo maps through
    projectives is dual to Ext^1(M(c), M(d)), and a map factors through a
    projective iff it factors through the projective cover of M(c); so
    Ext^1 = 0 iff the distinct nonzero compositions with the cover
    surjection number dim Hom(M(tau^{-1}d), M(c)).
    """
    if c.params != d.params:
        raise ValueError("ext1_vanishes needs words over the same algebra")
    return _ext1_vanishes(str(c), str(d), c.params.a, c.params.b)

