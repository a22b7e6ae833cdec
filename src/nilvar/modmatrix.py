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

from .exactla import RationalMatrix, _entry, _row_times
from .partitions import Partition
from .words import Word, band_class


class MatrixPairModule:
    """A pair (A, B) of n x n rational matrices together with the algebra
    parameters, optionally remembering the string/band summands it was
    assembled from (the random-modules check of verify keys on that).

    summands is a tuple of ("string", word) and ("band", word, lambdas)
    entries in block order, or None when the origin is unknown (e.g. a
    pair of matrices built directly).

    A and B are never modified: the builders below fill plain row lists
    and wrap each in a RationalMatrix once, and no matrix is written
    after it is built.  So permutation_maps reads its ones and letter
    masks off them once, direct_sum shares their rows, and verify
    memoizes string modules.
    """

    __slots__ = ("n", "A", "B", "params", "summands", "_maps")

    def __init__(self, n, A, B, params, summands=None):
        if A.nrows != n or A.ncols != n or B.nrows != n or B.ncols != n:
            raise ValueError(f"matrices must be {n}x{n}")
        self.n = n
        self.A = A
        self.B = B
        self.params = params
        self.summands = tuple(summands) if summands is not None else None

    def __repr__(self):
        return f"MatrixPairModule(n={self.n}, a={self.params.a}, b={self.params.b})"

    # -- the defining relations -------------------------------------------

    def verify_relations(self) -> bool:
        """True iff AB = BA = A^a = B^b = 0, tested by _kills without
        building any product or power: A^a as A A^{a-1}, B^b as B B^{b-1}."""
        A, B, a, b = self.A, self.B, self.params.a, self.params.b
        return (_kills(A, B) and _kills(B, A)
                and _kills(A, A, a - 1) and _kills(B, B, b - 1))

    # -- the ones of A and B, for the union-find Hom oracle ----------------

    def permutation_maps(self):
        """((ones of A, ones of B), masks) when A and B are partial
        permutations, None otherwise.  The ones of a letter are its (row,
        col) positions (see _partial_permutation_ones); masks holds one
        byte per basis vertex v, with bit 1 (x) or 2 (y) set when row v of
        that letter's matrix has a one, an arrow into e_v, and bit 4 (x)
        or 8 (y) when column v has one, an arrow out of e_v.  Read off the
        matrices on the first call and kept, so that building a module
        costs no scan."""
        try:
            return self._maps
        except AttributeError:
            pass
        a = _partial_permutation_ones(self.A)
        b = None if a is None else _partial_permutation_ones(self.B)
        self._maps = None
        if b is not None:
            masks = bytearray(self.n)
            for k, ones in enumerate((a, b)):
                for r, c in ones:
                    masks[r] |= 1 << k
                    masks[c] |= 4 << k
            self._maps = ((a, b), bytes(masks))
        return self._maps

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


def _partial_permutation_ones(mat: RationalMatrix):
    """The (row, col) positions of the ones of mat, by row, when its
    entries are all 0/1 with at most one 1 per row and per column; None
    when mat is not such a matrix."""
    ones, cols = [], set()
    for i, row in enumerate(mat.rows):
        if row:
            if len(row) > 1:
                return None
            (j, v), = row.items()
            if v != 1 or j in cols:
                return None
            cols.add(j)
            ones.append((i, j))
    return ones


def _kills(left: RationalMatrix, right: RationalMatrix, times=1) -> bool:
    """True iff left @ right^times = 0: at once when no column of left
    meets a nonempty row of right, else by pushing each row of left
    through `times` products with right by the row product of
    RationalMatrix.mul (cancelled terms count as zero), up to the first
    row that survives."""
    rows = right.rows
    if not any(rows[k] for row in left.rows for k in row):
        return True
    for row in filter(None, left.rows):
        for _ in range(times):
            row = {j: v for j, v in _row_times(row, rows).items() if v}
            if not row:
                break
        else:
            return False
    return True


def _jordan_type(m: RationalMatrix) -> Partition:
    """Jordan type of a nilpotent matrix from the ranks of its powers:
    the sequence (rk m^{k-1} - rk m^k) is the dual partition."""
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

def _layer_ones(text: str):
    """The (row, col) offsets of the ones of A and B that the letters of
    text put on e_0, .., e_{|text|}: letter i is x at (i, i+1) in A or y
    at (i+1, i) in B."""
    return (tuple((i, i + 1) for i, letter in enumerate(text) if letter == "x"),
            tuple((i + 1, i) for i, letter in enumerate(text) if letter == "y"))


def _write_layer(a_rows, b_rows, layer, off):
    """Write the ones of a layer, as _layer_ones gives them, into the rows
    of A and B with its e_0 at basis position off."""
    for rows, ones in zip((a_rows, b_rows), layer):
        for r, c in ones:
            rows[off + r][off + c] = 1


def string_module(word: Word) -> MatrixPairModule:
    """The string module M(word) of dimension |word| + 1."""
    n = len(word) + 1
    a_rows = [{} for _ in range(n)]
    b_rows = [{} for _ in range(n)]
    _write_layer(a_rows, b_rows, _layer_ones(word), 0)
    return MatrixPairModule(n, RationalMatrix(a_rows, n), RationalMatrix(b_rows, n),
                            word.params, [("string", word)])


@lru_cache(maxsize=1024)
def _band_layer(text: str, params):
    """One layer of the band modules over the band text: (canonical,
    layer), the canonical rotation and the ones of its string
    canonical[:-1] as _layer_ones gives them, the wrap-around letter left
    out.  Keyed on the params too, since Word equality ignores them;
    the sampler of `verify` draws under 200 distinct keys, so the bound
    never evicts there.  Raises unless text is a primitive band."""
    word = Word(text, params)
    kind, canonical = band_class(word)
    if kind != "primitive":
        raise ValueError(f"band_module needs a primitive band, got {kind} for {text!r}")
    return canonical, _layer_ones(canonical[:-1])


def band_module(word: Word, lambdas) -> MatrixPairModule:
    """The band module M(word; lambda_1, .., lambda_k), dimension |word|*k.

    word must be a primitive band (any rotation; the canonical one is
    used).  lambdas is a sequence of nonzero scalars.  The layer comes
    from the _band_layer memo; each call writes it into fresh rows k
    times and adds the lambdas and the layer couplings.
    """
    canonical, layer = _band_layer(str(word), word.params)
    lambdas = tuple(_entry(v) for v in lambdas)
    if not lambdas:
        raise ValueError("need at least one lambda layer")
    if any(v == 0 for v in lambdas):
        raise ValueError("band lambdas must be nonzero")

    m, k = len(canonical), len(lambdas)
    n = m * k
    a_rows = [{} for _ in range(n)]
    b_rows = [{} for _ in range(n)]
    for j in range(k):
        off = j * m  # position i in layer j is off + i, layer-major
        _write_layer(a_rows, b_rows, layer, off)
        # canonical form ends with y: the wrap-around letter couples the
        # end of the word back to the start, and adjacent layers to each
        # other (z_{m,j} . y = lambda_j z_{1,j} + z_{1,j-1})
        b_rows[off][off + m - 1] = lambdas[j]
        if j > 0:
            b_rows[off - m][off + m - 1] = 1
    return MatrixPairModule(n, RationalMatrix(a_rows, n), RationalMatrix(b_rows, n),
                            word.params, [("band", canonical, lambdas)])


def direct_sum(modules) -> MatrixPairModule:
    """Block-diagonal direct sum; all summands must share parameters.
    Summand metadata is concatenated when every part carries it.  One
    pass over the parts: the first summand's row dicts are shared
    (offset 0; modules are never modified once built), later ones
    re-keyed by the rows placed so far."""
    params, a_rows, b_rows, summands = None, [], [], ()
    for mod in modules:
        if params is None:
            params = mod.params
        elif mod.params != params:
            raise ValueError("direct_sum needs equal algebra parameters")
        off = len(a_rows)
        if off:
            for rows, part in ((a_rows, mod.A), (b_rows, mod.B)):
                rows += [{off + j: v for j, v in row.items()} if row else {}
                         for row in part.rows]
        else:
            a_rows += mod.A.rows
            b_rows += mod.B.rows
        if summands is not None:
            summands = None if mod.summands is None else summands + mod.summands
    if params is None:
        raise ValueError("direct_sum of nothing")
    n = len(a_rows)
    return MatrixPairModule(n, RationalMatrix(a_rows, n),
                            RationalMatrix(b_rows, n), params, summands)
