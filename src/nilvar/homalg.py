"""Hom and Ext dimensions for string and band modules.

Two independent routes to Hom, kept separate on purpose so each can
audit the other:

  * hom_dim_graph counts graph maps, the basis of Hom that
    words.admissible_pairs lists: one per factor window (s, E) of the
    source and substring window (q, E) of the target with the same middle
    word E.  A graph map is the triple (s, q, L), L = |E|: it sends
    e_{s+i} to e_{q+i} for i = 0..L and every other basis vector to
    zero, and this is the one form in which graph maps and the projective
    cover are handled.  The count builds no map: this window join is the
    basis count.  Each word's windows are counted by middle once
    (words._middles, an index admissible_pairs does not read), and
    hom_table joins a whole list of words against another on middle
    words: the targets' counts become postings middle -> (target, window
    count), and each source's counts multiply those they meet.  A single
    pair is the one-by-one table, memoized.

  * hom_dim_oracle knows nothing about words: it computes the dimension
    of the solution space of F A_1 = A_2 F, F B_1 = B_2 F by linear
    algebra.  For partial-permutation matrices (every string module, a
    band module with one layer and lambda = 1, and any direct sum or
    permutation conjugate of them) each scalar equation mentions at most
    two entries of F with coefficient 1, so the free entries fall into
    classes, one per dimension.  When the source's arrow graph is a
    forest (every string module and every sum of strings, in any basis
    order) modmatrix.forest_hom_counter counts them with bit operations
    on F as one int, laid out at one stride for every row of a table:
    the entries forced to zero and the top entries are seeded per source
    vertex from two 16-entry tables of target rows keyed by letter mask
    (MatrixPairModule.permutation_maps, read once per pass), the dead set
    is closed under one shift per pair of offset groups of ones of a
    letter, and each live class is counted once at its top entry.
    hom_oracle_table counts a row, one source against all targets, in
    one pass against their direct sum: it is block diagonal, so no
    equation joins two blocks and the live classes are counted per
    block.  Otherwise (a band with lambda = 1 as source, or no partial
    permutation) a dense exact nullity is computed.

Ext^1(M(C), M(D)) is read off the syzygy of the projective cover, and
needs nothing but graph counts.  The algebra is local, so the cover of
M(C) is Lambda^p, one Lambda = M(x^{a-1}y^{b-1}) per peak of C, and its
kernel Omega M(C) is a direct sum of short strings read off the peaks
(syzygy).  Applying Hom(-, Y) to 0 -> Omega M(C) -> Lambda^p -> M(C) -> 0
gives the long exact sequence (Auslander, Reiten and Smalo 1995)

    0 -> Hom(M(C), Y) -> Hom(Lambda^p, Y) -> Hom(Omega M(C), Y)
      -> Ext^1(M(C), Y) -> Ext^1(Lambda^p, Y) = 0,

and Hom(Lambda, Y) = Y, so

    dim Ext^1(M(C), Y) = dim Hom(Omega M(C), Y) - p dim Y + dim Hom(M(C), Y)

for every module Y.  With Y = M(D) each term is a graph count, and graph
maps are a basis of Hom (Crawley-Boevey 1989), so the Ext route is a
count with no linear algebra.  This is the one Ext route; the tests audit
it from outside by the cocycle dimension dim Z^1 - (n_M n_N - dim Hom),
which needs only the module matrices.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate

from .words import MEMO_SIZE, Word, _middles, factor_windows, runs, substring_windows


# ---------------------------------------------------------------------------
# graph maps
# ---------------------------------------------------------------------------

def _hom_rows(sources, targets) -> list[list[int]]:
    """dim Hom(M(s), M(t)) for the texts s of sources, one row each, and
    t of targets, one column each: the number of pairs of a factor window
    of s and a substring window of t with equal middles.  The targets'
    middles become postings middle -> [(column, window count)], and each
    middle of a source adds its window count times each posting's."""
    postings = {}
    for col, text in enumerate(targets):
        for middle, count in _middles(text, substring_windows).items():
            postings.setdefault(middle, []).append((col, count))
    rows = []
    for text in sources:
        row = [0] * len(targets)
        for middle, count in _middles(text, factor_windows).items():
            for col, tgt_count in postings.get(middle, ()):
                row[col] += count * tgt_count
        rows.append(row)
    return rows


@lru_cache(maxsize=MEMO_SIZE)
def _hom_count(src_text: str, tgt_text: str) -> int:
    # the count reads the texts alone, so one key serves every algebra
    # the two words are valid over
    return _hom_rows((src_text,), (tgt_text,))[0][0]


def hom_dim_graph(src: Word, tgt: Word) -> int:
    """dim Hom(M(src), M(tgt)) by counting admissible pairs (memoized on
    the word texts)."""
    if src.params != tgt.params:
        raise ValueError("hom_dim_graph needs words over the same algebra")
    return _hom_count(src, tgt)


def hom_table(sources, targets) -> list[list[int]]:
    """dim Hom(M(u), M(v)) for every word u of sources and v of targets,
    as rows by source: entry [i][j] is hom_dim_graph(sources[i],
    targets[j]), counted by one join on middle words and not memoized.
    All the words must be over one algebra."""
    if len({w.params for w in (*sources, *targets)}) > 1:
        raise ValueError("hom_table needs words over one algebra")
    return _hom_rows(sources, targets)


# ---------------------------------------------------------------------------
# the linear-algebra oracle
# ---------------------------------------------------------------------------

def _hom_dim_dense(m1, m2) -> int:
    """dim Hom(m1, m2) by exact elimination of the equations F x1 = x2 F,
    one per entry and letter: hom_dim_oracle's route where the entry-class
    count does not hold, and the tests' reference for that count."""
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

    The bit-parallel count of free entry classes
    (modmatrix.forest_hom_counter: exact; one mask and one shift per pair
    of offset groups of ones of a letter, at most n1 rounds) when all four
    matrices are partial permutations and m1's arrow graph is a forest,
    and exact elimination (_hom_dim_dense) otherwise.  method="unionfind"
    forces the count, which then raises where it does not hold; None is
    the automatic route, and any other method raises.  Each module's ones
    and letter masks, or None, are read at most once per call
    (permutation_maps): the target's first, and the source's only when
    the target is a partial permutation.
    """
    from .modmatrix import forest_hom_counter  # here only: classify never loads it
    if m1.params != m2.params:
        raise ValueError("hom_dim_oracle needs equal algebra parameters")
    if method not in (None, "unionfind"):
        raise ValueError(f"unknown method {method!r}")
    count = forest_hom_counter(m2, (0, m2.n), m1.n)
    dims = count and count(m1)
    if dims is not None:
        return dims[0]
    if method == "unionfind":
        raise ValueError("the entry-class count needs partial-permutation "
                         "matrices and a source whose arrow graph is a forest")
    return _hom_dim_dense(m1, m2)


def hom_oracle_table(sources, targets) -> list[list[int]]:
    """[[hom_dim_oracle(u, v) for v in targets] for u in sources]; all
    must be over one algebra.  When the targets are partial permutations,
    each row whose source is a partial permutation with a forest arrow
    graph is one pass of the entry-class count against the targets'
    direct sum, laid out at the widest source's stride: the sum is block
    diagonal, so no equation joins two blocks and the free classes are
    counted per block.  Any other row is filled pair by pair."""
    from .modmatrix import direct_sum, forest_hom_counter
    if len({m.params for m in (*sources, *targets)}) > 1:
        raise ValueError("hom_oracle_table needs modules over one algebra")
    if not targets:
        return [[] for _ in sources]
    count = forest_hom_counter(direct_sum(targets),
                               list(accumulate((v.n for v in targets), initial=0)),
                               max((u.n for u in sources), default=0))
    rows = [count and count(u) for u in sources]
    return [[hom_dim_oracle(u, v) for v in targets] if row is None else row
            for u, row in zip(sources, rows)]


# ---------------------------------------------------------------------------
# End and orbit dimension
# ---------------------------------------------------------------------------

def end_dim(words) -> int:
    """dim End of the direct sum of the string modules M(w), w in words:
    the sum of the pairwise graph counts (memoized, so repeated summand
    types across a classification run cost nothing).  A band module m
    has End of dimension hom_dim_oracle(m, m)."""
    if len({w.params for w in words}) != 1:
        raise ValueError("end_dim needs one or more words over one algebra")
    return sum(_hom_count(w1, w2) for w1 in words for w2 in words)


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
    """The projective cover P -> M(c), read off the runs of the word.

    Pad the runs of c to alternate x, y: an empty x-run before a leading
    y (or the empty word), an empty y-run after a trailing x.  Each pair
    of an x-run of length l starting at q and the y-run of length r after
    it is one peak, at i = q + l, which neither A nor B reaches: the peaks
    span the top of M(c), and P has one Lambda = M(x^{a-1}y^{b-1}) per
    peak.  With z_1..z_d the string basis of Lambda (z_a generates), peak
    i's summand runs down its x-run and up its y-run, and to zero past
    their ends:

        z_j      |-> A^{a-j} e_i = e_{i-(a-j)}   (j = 1..a)
        z_{a+l}  |-> B^l e_i     = e_{i+l}       (l = 1..b-1)

    Returns, per peak in increasing order, that summand as the graph map
    Lambda -> M(c) (a-1-l, q, l+r).  The next x-run starts at q + l + r,
    so the target windows [q, q+l+r] meet end to end, the last ends at
    |c|, and the cover surjects.
    """
    a, _ = c.params
    lengths = [0] * (not c.startswith("x")) + [k for _, k in runs(c)]
    lengths += [0] * (len(lengths) % 2)
    cover, q = [], 0
    for l, r in zip(lengths[::2], lengths[1::2]):
        cover.append((a - 1 - l, q, l + r))
        q += l + r
    return cover


def syzygy(c: Word) -> list[Word]:
    """Omega M(c), the kernel of the projective cover Lambda^p -> M(c), as
    the words of its string summands.  With l_k and r_k the x-run left and
    the y-run right of peak k (cover summand (s, q, L): l = a-1-s, r = L-l),
    the arms of the Lambdas that the cover leaves unused give, in order,
    M(x^{a-2-l_1}) when l_1 <= a-2; per pair of adjacent peaks the valley
    string M(x^{a-1-l_{k+1}} y^{b-1-r_k}), on top of the difference of the
    two cover vectors that hit the shared valley; M(y^{b-2-r_p}) when
    r_p <= b-2.  Their dimensions add up to p (a+b-1) - (|c|+1)."""
    a, b = c.params
    arms = [(a - 1 - s, length - (a - 1 - s)) for s, _, length in projective_cover(c)]
    (first, _), (_, last) = arms[0], arms[-1]
    texts = ["x" * (a - 2 - first)] if first <= a - 2 else []
    texts += ["x" * (a - 1 - l) + "y" * (b - 1 - r)
              for (_, r), (l, _) in zip(arms, arms[1:])]
    texts += ["y" * (b - 2 - last)] if last <= b - 2 else []
    return [Word(t, c.params) for t in texts]


@lru_cache(maxsize=MEMO_SIZE)
def _ext1_vanishes(c: Word, d: Word, a: int, b: int) -> bool:
    # (a, b) keys the memo beside the words, whose equality ignores params
    omega = syzygy(c)
    # 0 -> Omega -> Lambda^p -> M(c) -> 0 is exact: p (a+b-1) = dim Omega + |c|+1
    p = (sum(len(w) + 1 for w in omega) + len(c) + 1) // (a + b - 1)
    return (sum(_hom_count(w, d) for w in omega) + _hom_count(c, d)
            == p * (len(d) + 1))


def ext1_vanishes(c: Word, d: Word) -> bool:
    """True iff Ext^1(M(c), M(d)) = 0, for any two strings over one
    algebra: dim Hom(Omega M(c), M(d)) - p dim M(d) + dim Hom(M(c), M(d))
    is 0, with Omega M(c) = syzygy(c) and p the number of peaks of c."""
    if c.params != d.params:
        raise ValueError("ext1_vanishes needs words over the same algebra")
    return _ext1_vanishes(c, d, *c.params)
