"""Matrix-pair realizations of modules over K[x,y]/(xy, x^a, y^b).

A point of the nilpotent-pair variety is a pair (A, B) of n x n matrices
with AB = BA = A^a = B^b = 0; equivalently, an n-dimensional module with
x acting through A and y through B on coordinate vectors.  This file
builds the two families that generate everything we classify:

String modules M(C), C a valid word c_1 .. c_L, have basis e_0, .., e_L
and the letter c_i couples e_{i-1} to e_i:

    c_i = x:   e_i . x = e_{i-1}        (A e_i = e_{i-1})
    c_i = y:   e_{i-1} . y = e_i        (B e_{i-1} = e_i)

So arrows point "leftward along x, rightward along y"; M("") is the
simple module, and M(x^{a-1}y^{b-1}) is the regular representation.
`_write_layer` writes these ones straight from the letters, for a
string at offset 0 and for each layer of a band below.

Band modules M(w, lambda_1..lambda_k) over a primitive band w (taken in
canonical rotation, so w ends in y) have basis z_{i,j}, i = 1..|w| along
the word and j = 1..k layers, flattened layer-major.  Letters act within
a layer as for strings; the final y wraps around and couples the layers
into one indecomposable:

    z_{m,j} . y = lambda_j z_{1,j} + z_{1,j-1}   (z_{1,0} := 0)

All lambdas must be nonzero -- lambda = 0 would degenerate the band into
a string.  With k = 1 and distinct lambdas this realizes the familiar
one-parameter families; equal lambdas stack Jordan layers.
"""

from __future__ import annotations

from functools import lru_cache

from .exactla import RationalMatrix, _entry
from .words import Word, band_class


class MatrixPairModule:
    """A pair (A, B) of n x n rational matrices together with the algebra
    parameters.

    A and B are never modified, nor is the module: the builders below
    fill plain row lists and wrap each in a RationalMatrix once, and
    nothing is written after it is built.  So band modules over one band
    frame share A and the lambda-free rows of B, direct_sum shares rows
    (and returns a lone part itself), and verify memoizes string modules.
    """

    __slots__ = ("n", "A", "B", "params")

    def __init__(self, n, A, B, params):
        if A.nrows != n or A.ncols != n or B.nrows != n or B.ncols != n:
            raise ValueError(f"matrices must be {n}x{n}")
        self.n = n
        self.A = A
        self.B = B
        self.params = params

    def __repr__(self):
        return f"MatrixPairModule(n={self.n}, a={self.params.a}, b={self.params.b})"

    # -- the defining relations -------------------------------------------

    def verify_relations(self) -> bool:
        """True iff AB = BA = A^a = B^b = 0, each decided by _kills: A^a as
        A A^{a-1}, B^b as B B^{b-1}.  The column set of A starts the
        support walks of AB and A^a, that of B the walks of BA and B^b;
        each is read off its matrix once.  A product is built only where a
        walk survives, which with entries >= 0 means the relation fails;
        no module that `verify` samples reaches it."""
        A, B, a, b = self.A, self.B, self.params.a, self.params.b
        cols_a, cols_b = set().union(*A.rows), set().union(*B.rows)
        return (_kills(A, B, 1, cols_a) and _kills(B, A, 1, cols_b)
                and _kills(A, A, a - 1, cols_a) and _kills(B, B, b - 1, cols_b))

    # -- the ones of A and B, for the Hom oracle of forest_hom_counter -----

    def permutation_maps(self):
        """((ones of A, ones of B), masks) when A and B are partial
        permutations (entries 0/1, at most one 1 per row and per column),
        None otherwise.  The ones of a letter are its (row, col)
        positions, by row; masks holds one byte per basis vertex v, with
        bit 1 (x) or 2 (y) set when row v of that letter's matrix has a
        one, an arrow into e_v, and bit 4 (x) or 8 (y) when column v has
        one, an arrow out of e_v.  One pass over the rows of A and then B
        reads both, a column already used by a letter being one whose
        mask has that letter's out bit.  Read on each call and kept
        nowhere: building a module costs no scan, and a Hom pass reads
        each module once."""
        masks, letters = bytearray(self.n), []
        for k, mat in enumerate((self.A, self.B)):
            into, out, ones = 1 << k, 4 << k, []
            for i, row in enumerate(mat.rows):
                if row:
                    if len(row) > 1:
                        return None
                    (j, v), = row.items()
                    if v != 1 or masks[j] & out:
                        return None
                    masks[i] |= into
                    masks[j] |= out
                    ones.append((i, j))
            letters.append(ones)
        return tuple(letters), bytes(masks)

    # -- invariants --------------------------------------------------------

    def jordan_pair(self):
        """The pair (p(A), p(B)) of Jordan types, as partitions of n."""
        return (_jordan_type(self.A), _jordan_type(self.B))

    def stats(self) -> dict:
        """Basic module invariants for `nilvar module`: ranks, top and
        socle dimension, and regularity (rk A + rk B = n, i.e. exactly n
        independent arrows).
        """
        rka, rkb = self.A.rank(), self.B.rank()
        # the top is the cokernel of [A B], read off its transpose [A^T; B^T]
        # the socle is the kernel of [A; B]
        top = self.n - RationalMatrix(self.A.transpose().rows
                                      + self.B.transpose().rows, self.n).rank()
        soc = self.n - RationalMatrix(self.A.rows + self.B.rows, self.n).rank()
        return {
            "rkA": rka,
            "rkB": rkb,
            "top_dim": top,
            "soc_dim": soc,
            "regular": rka + rkb == self.n,
        }

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        """Plain-dict form with entries as exact "p/q" strings."""
        return {
            "n": self.n,
            "a": self.params.a,
            "b": self.params.b,
            "A": [[str(v) for v in row] for row in self.A.dense()],
            "B": [[str(v) for v in row] for row in self.B.dense()],
        }


def _parent_bits(ones, n):
    """For the arrow graph on n vertices with one edge c - r per one
    (r, c) of letter k of ones: per vertex, the bit of its end of the edge
    to its parent in a depth-first spanning forest, 1 << k at the row r
    (an arrow into it), 4 << k at the column c, 0 at a root; None when
    the graph has a cycle, that is when it has more edges than the n
    minus the number of trees of the forest."""
    nbrs = [[] for _ in range(n)]
    for k, letter in enumerate(ones):
        for r, c in letter:
            nbrs[r].append((c, 4 << k))
            nbrs[c].append((r, 1 << k))
    bits, seen, trees = bytearray(n), bytearray(n), 0
    for root in range(n):
        if seen[root]:
            continue
        trees += 1
        seen[root] = 1
        stack = [root]
        while stack:
            for v, bit in nbrs[stack.pop()]:
                if not seen[v]:
                    seen[v], bits[v] = 1, bit
                    stack.append(v)
    return bytes(bits) if sum(map(len, ones)) == n - trees else None


def forest_hom_counter(target, starts, width):
    """A function of a source module giving dim Hom(source, target) per
    block k of target (vertices starts[k] to starts[k + 1] - 1, no one of
    its A or B joining two blocks), or None for a source that is wider
    than width, no partial permutation, or whose arrow graph (one edge per
    one of A or B) has a cycle; None itself when target is no partial
    permutation.  So it holds for any string module and any direct sum of
    strings, in any basis order, as source, and a one-layer band with
    lambda = 1 as target too.

    The maps F, n2 x n1, solve F x1 = x2 F for both letters.  A one
    (s, j) of x1 and a one (i, t) of x2 say F[i, s] = F[t, j].  Every
    other equation reads 0 = 0 or zeroes an entry (i, s): one where an
    arrow goes into s and none into i, or one goes out of i and none out
    of s (bits 1, 2 and 4, 8 of the letter masks).  So the free entries
    fall into classes, one per dimension, and the classes that hold a
    forced zero are dead.  A path within a class projects to a walk of
    the source's arrow graph that never goes back along the edge it came
    by, since the ones of x2 are a partial injection; in a forest that
    walk is a path.  So a class meets each source vertex at most once, at
    most n1 entries, and maps its edges one to one onto the edges of a
    subtree.  It has exactly one top entry: the one at the subtree's
    vertex nearest the root, whose edge to its parent (found by
    _parent_bits) the class does not hold, that is where vertex i of the
    target has none of the bits of that edge's end at s.

    All of it is bit operations on F as one int, entry (i, s) at bit
    i * width + s: one stride for every source of a table.  Per target,
    the target rows of each letter mask and of each offset group (column
    - row of a letter's ones) are ints at that stride; dead_rows[m1]
    holds the rows forced to zero against a source vertex of mask m1 and
    top_rows[p] those with none of the bits of parent bit p, and source
    vertex s seeds both shifted by s.  Per pair of offset groups of a
    letter, the target rows times the source rows are one mask of entries,
    and d2 * width + d1 is one shift from (i, s) to (t, j).  Each round
    sends the dead set both ways along every shift; a class has at most
    n1 entries, so at most n1 rounds close it.  A block's dimension is the
    bit count of its live top entries, one shift and mask each."""
    maps = target.permutation_maps()
    if maps is None:
        return None
    ones2, masks2 = maps
    by_mask = [0] * 16
    for i, m in enumerate(masks2):
        by_mask[m] |= 1 << i * width
    dead_rows = [sum(rows for m2, rows in enumerate(by_mask)
                     if m1 & ~m2 & 3 | m2 & ~m1 & 12) for m1 in range(16)]
    top_rows = [sum(rows for m2, rows in enumerate(by_mask) if not p & m2)
                for p in range(16)]
    by_offset = [_offset_groups(letter, width).items() for letter in ones2]
    blocks = [(lo * width, (1 << (hi - lo) * width) - 1)
              for lo, hi in zip(starts, starts[1:])]

    def count(source):
        if source.n > width:
            return None
        maps = source.permutation_maps()
        parents = maps and _parent_bits(maps[0], source.n)
        if parents is None:
            return None
        ones1, masks1 = maps
        shifts = []
        for letter, groups in zip(ones1, by_offset):
            for d1, c in _offset_groups(letter, 1).items():
                for d2, rows in groups:
                    shift, mask = d2 * width + d1, rows * c
                    if shift < 0:
                        shift, mask = -shift, mask >> -shift
                    shifts.append((shift, mask))
        dead = top = 0
        for s, (m, p) in enumerate(zip(masks1, parents)):
            dead |= dead_rows[m] << s
            top |= top_rows[p] << s
        for _ in range(source.n):
            before = dead
            for shift, mask in shifts:
                dead |= (dead & mask) << shift | dead >> shift & mask
            if dead == before:
                break
        live = top & ~dead
        return [(live >> lo & block).bit_count() for lo, block in blocks]

    return count


def _offset_groups(ones, stride):
    """{column - row: the rows as an int, row r at bit r * stride} for the
    ones (row, column) of a letter."""
    groups = {}
    for r, c in ones:
        groups[c - r] = groups.get(c - r, 0) | 1 << r * stride
    return groups


def _kills(left: RationalMatrix, right: RationalMatrix, times=1,
           cols=None) -> bool:
    """True iff left @ right^times = 0, first by a walk over the supports:
    cols, the set of columns of left (read off left unless given), is
    replaced `times` times by the set of columns of right's rows at those
    indices.  It holds the columns where the product so far may be
    nonzero.  Before each step a membership test asks whether any index
    in cols holds a nonempty row of right; if none does, the next set is
    empty, every entry is an empty sum and the product is 0 exactly.
    Only a walk that survives its full length builds the product, by
    `times` calls of RationalMatrix.mul, which drops the terms that
    cancel."""
    rows = right.rows
    if cols is None:
        cols = set().union(*left.rows)
    for _ in range(times):
        if not any(map(rows.__getitem__, cols)):
            return True
        cols = {j for k in cols for j in rows[k]}
    for _ in range(times):
        left = left.mul(right)
    return not any(left.rows)


def _jordan_type(m: RationalMatrix):
    """Jordan type of a nilpotent matrix from the ranks of its powers:
    the sequence (rk m^{k-1} - rk m^k) is the dual partition."""
    from .partitions import Partition  # here only: loading modmatrix skips it
    diffs = []
    prev = m.nrows
    power = m
    while prev > 0:
        r = power.rank()
        diffs.append(prev - r)
        if r == 0:
            break
        prev = r
        power = power.mul(m)
    return Partition(diffs).dual()


# ---------------------------------------------------------------------------
# constructions
# ---------------------------------------------------------------------------

def _write_layer(a_rows, b_rows, text, off):
    """Write the ones that the letters of text put on e_off, ..,
    e_{off+|text|} into the rows of A and B: letter i is x at
    (off+i, off+i+1) in A or y at (off+i+1, off+i) in B."""
    for i, letter in enumerate(text, off):
        if letter == "x":
            a_rows[i][i + 1] = 1
        else:
            b_rows[i + 1][i] = 1


def string_module(word: Word) -> MatrixPairModule:
    """The string module M(word) of dimension |word| + 1."""
    n = len(word) + 1
    a_rows = [{} for _ in range(n)]
    b_rows = [{} for _ in range(n)]
    _write_layer(a_rows, b_rows, word, 0)
    return MatrixPairModule(n, RationalMatrix(a_rows, n), RationalMatrix(b_rows, n),
                            word.params)


@lru_cache(maxsize=1024)
def _band_frame(word: Word, params, layers: int):
    """The lambda-free part of the band modules over the band word with
    `layers` layers: (canonical, A, B rows), the canonical rotation, A as
    one RationalMatrix, and the rows of B holding the ones of each
    layer's string canonical[:-1] and the layer couplings (z_{m,j} . y
    has z_{1,j-1}) but no lambda.  Rows are never written once built, so
    every module over the frame shares A and the lambda-free rows of B.
    Keyed on the validated word itself and on its params, since Word
    equality ignores them; the sampler of `verify` can meet 356 keys
    (351 in a full pass at seed 1), so the bound never evicts there.
    Raises unless word is a primitive band, and then unless layers is
    positive; lru_cache stores nothing for a call that raises, so no
    rejected word and no empty frame is cached."""
    kind, canonical = band_class(word)
    if kind != "primitive":
        raise ValueError(f"band_module needs a primitive band, got {kind} for {str(word)!r}")
    if not layers:
        raise ValueError("need at least one lambda layer")
    m = len(canonical)
    n = m * layers
    a_rows = [{} for _ in range(n)]
    b_rows = [{} for _ in range(n)]
    layer = canonical[:-1]
    for off in range(0, n, m):  # position i in layer j is j*m + i, layer-major
        _write_layer(a_rows, b_rows, layer, off)
        if off:
            b_rows[off - m][off + m - 1] = 1
    return canonical, RationalMatrix(a_rows, n), tuple(b_rows)


def band_module(word: Word, lambdas) -> MatrixPairModule:
    """The band module M(word; lambda_1, .., lambda_k), dimension |word|*k.

    word must be a primitive band (any rotation; the canonical one is
    used).  lambdas is a sequence of nonzero scalars.  A and the
    lambda-free rows of B come from the _band_frame memo of (word, k)
    and are shared; each call builds only the k rows that carry a
    lambda afresh, the wrap-around y of each layer (canonical form ends
    with y): z_{m,j} . y = lambda_j z_{1,j} + z_{1,j-1}.  The word is
    checked before the lambdas, and empty lambdas are refused by
    _band_frame, leaving no memo entry.
    """
    lambdas = tuple(lambdas)
    canonical, A, frame = _band_frame(word, word.params, len(lambdas))
    lambdas = tuple(map(_entry, lambdas))
    if any(v == 0 for v in lambdas):
        raise ValueError("band lambdas must be nonzero")

    m = len(canonical)
    b_rows = list(frame)
    for off, lam in zip(range(0, A.nrows, m), lambdas):
        b_rows[off] = {off + m - 1: lam, **frame[off]}
    return MatrixPairModule(A.nrows, A, RationalMatrix(b_rows, A.nrows), word.params)


def direct_sum(modules) -> MatrixPairModule:
    """Block-diagonal direct sum; all summands must share parameters.
    Modules are never modified once built, so the sum of one part is
    that part itself.  Otherwise one pass: the first summand's row lists
    are copied, sharing its row dicts (offset 0), and extended by each
    later summand's rows re-keyed by the rows placed so far, each empty
    row shared as it is."""
    modules = tuple(modules)
    if not modules:
        raise ValueError("direct_sum of nothing")
    first = modules[0]
    if len(modules) == 1:
        return first
    params, a_rows, b_rows = first.params, list(first.A.rows), list(first.B.rows)
    for mod in modules[1:]:
        if mod.params != params:
            raise ValueError("direct_sum needs equal algebra parameters")
        off = len(a_rows)
        for rows, part in ((a_rows, mod.A), (b_rows, mod.B)):
            for row in part.rows:
                if len(row) == 1:  # most rows: shifted with no comprehension
                    (j, v), = row.items()
                    row = {off + j: v}
                elif row:
                    row = {off + j: v for j, v in row.items()}
                rows.append(row)
    n = len(a_rows)
    return MatrixPairModule(n, RationalMatrix(a_rows, n),
                            RationalMatrix(b_rows, n), params)
