"""Words in the letters x, y over the algebra K[x,y]/(xy, x^a, y^b).

A word is *valid* when no run of x is longer than a-1 and no run of y is
longer than b-1; longer runs vanish in the algebra.  Valid words index the
string modules (see modmatrix), cyclic-valid words index the bands, and a
handful of word-combinatorial notions -- the open strings, the windows
whose admissible pairs count homomorphisms -- drive everything
downstream.  Homomorphisms leave this module as graph maps, each the
triple (s, q, L) sending e_{s+i} to e_{q+i} for i = 0..L and every other
basis vector to zero.

Conventions, fixed once and for all:

  * the empty word is valid and indexes the simple module;
  * reverse(w) is literal reversal, no letter swap; on modules it is
    vector-space duality (transpose both matrices);
  * bands use both letters, and the canonical representative of a
    primitive band is its lexicographically least rotation (x < y).  It
    always starts with a longest x-run of the band and ends with y.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from itertools import chain, groupby

# entries kept by each memo table (words._middles, homalg._hom_count,
# homalg._ext1_vanishes): bounded at any n, and above what a run uses
# (`verify --level full --seed 0` leaves 334 window indexes, 256 Hom
# keys and 34 Ext keys, hom-agreement counting through homalg.hom_table
# and so adding no Hom key; classify at (24, 3, 3) leaves 204 Hom keys
# and 115 Ext keys, at (48, 3, 3) 10,160 and 9,602)
MEMO_SIZE = 2 ** 16


class AlgebraParams(namedtuple("AlgebraParams", "a b")):
    """The pair (a, b), both >= 2, defining K[x,y]/(xy, x^a, y^b).

    d = a + b - 1 is the K-dimension of the algebra, with monomial basis
    1, x, .., x^{a-1}, y, .., y^{b-1}.
    """

    __slots__ = ()

    def __new__(cls, a, b):
        if not (isinstance(a, int) and isinstance(b, int)):
            raise ValueError(f"need integer a, b, got ({a!r}, {b!r})")
        if a < 2 or b < 2:
            raise ValueError(f"need a, b >= 2, got ({a}, {b})")
        return super().__new__(cls, a, b)

    @property
    def d(self) -> int:
        return self.a + self.b - 1


def runs(text):
    """Run-length encoding of a word: "xxyxy" -> [(x,2),(y,1),(x,1),(y,1)]."""
    return [(letter, sum(1 for _ in grp)) for letter, grp in groupby(text)]


class Word(str):
    """A valid word.  Subclasses str, so slicing, comparison and hashing
    are plain string ones; the algebra parameters ride along as .params
    but do not enter equality -- when words from different algebras could
    meet, key on (word, params) explicitly.

    A text is valid iff it holds only x and y and contains neither x^a nor
    y^b as a substring; the run-length walk runs only on a rejected text,
    to name its first offence.
    """

    __slots__ = ("params",)

    def __new__(cls, text, params: AlgebraParams):
        text = str(text)
        # a run longer than the text is in no text: the probes stay its size
        cap = len(text) + 1
        if (text.strip("xy") or "x" * min(params.a, cap) in text
                or "y" * min(params.b, cap) in text):
            bad = set(text) - {"x", "y"}
            if bad:
                raise ValueError(f"letters must be x or y, got {sorted(bad)!r}")
            for letter, k in runs(text):
                bound = params.a - 1 if letter == "x" else params.b - 1
                if k > bound:
                    raise ValueError(
                        f"run {letter}^{k} exceeds {bound}, not a word over "
                        f"(a,b)=({params.a},{params.b})"
                    )
        w = super().__new__(cls, text)
        w.params = params
        return w

    def reverse(self) -> "Word":
        """The reversed word; duality on string modules."""
        return Word(self[::-1], self.params)

    def caret(self) -> str:
        """Caret shorthand: xxy -> "x^2y"; the empty word gives ""."""
        return "".join(f"{l}^{k}" if k > 1 else l for l, k in runs(self))

    def __repr__(self):
        return f"Word({str(self)!r}, a={self.params.a}, b={self.params.b})"


# ---------------------------------------------------------------------------
# bands
# ---------------------------------------------------------------------------

def band_class(w: Word):
    """Classifies w as a band word.

    Returns one of
        ("not-band", None)
        ("periodic", (root, k))   w is a rotation of root^k, k >= 2,
                                  root a primitive band in canonical form
        ("primitive", canonical)  canonical = lex-least rotation of w

    A band must use both letters and have all rotations valid; for a
    mixed-letter word that is equivalent to validity of ww.  Powers of a
    single letter are never bands (all their rotations are valid, but both
    arrows must act around the cycle), hence the separate check.
    """
    p = w.params
    if len(set(w)) < 2:
        return ("not-band", None)
    try:
        Word(str(w) + str(w), p)
    except ValueError:
        return ("not-band", None)
    canonical = min(w[i:] + w[:i] for i in range(len(w)))
    n = len(w)
    for per in range(1, n + 1):
        if n % per == 0 and canonical[:per] * (n // per) == canonical:
            break
    if per < n:
        return ("periodic", (Word(canonical[:per], p), n // per))
    return ("primitive", Word(canonical, p))


# ---------------------------------------------------------------------------
# open strings
# ---------------------------------------------------------------------------

# Open strings, projective side.  Every one is a block word
#
#     (x^{a-1}y)^r  core  (xy^{b-1})^t
#
# and the paper's three types differ only in the core:
#
#   type 1:  (x^{a-1}y^{b-1})^s
#   type 2:  [x^{a-1}y^i] (x^{a-1}y^{b-1})^s [x^j y^{b-1}]
#              a head, a tail or both, 2 <= i <= b-2, 2 <= j <= a-2
#   type 3:  x^i y^j
#              1 <= i <= a-2, 1 <= j <= b-2, no (x^{a-1}y^{b-1})^s run
#
# under the side conditions r + [head] + s >= 1 and s + [tail] + t >= 1,
# which for type 3 read r >= 1 and t >= 1.  Every block boundary glues a
# y to an x, so runs never merge and each instance is a valid word.  When
# a = 2 or b = 2 two blocks coincide and a text can arise more than once.
# Injective-side open strings are the reversals of these.

def _open_strings(params, L):
    """Yields (type, text) for the projective-side open strings of length
    L, types in order; a text may come more than once."""
    a, b = params.a, params.b
    A, M, B = "x" * (a - 1) + "y", "x" * (a - 1) + "y" * (b - 1), "x" + "y" * (b - 1)
    heads = [""] + ["x" * (a - 1) + "y" * i for i in range(2, b - 1)]
    tails = [""] + ["x" * j + "y" * (b - 1) for j in range(2, a - 1)]
    # (type, head, fixed middle, tail); only types 1 and 2 run M^s
    cores = [(1, "", "", "")]
    cores += [(2, head, "", tail) for head in heads for tail in tails if head or tail]
    cores += [(3, "", "x" * i + "y" * j, "")
              for i in range(1, a - 1) for j in range(1, b - 1)]
    for kind, head, mid, tail in cores:
        fixed = L - len(head) - len(mid) - len(tail)
        for r in range(fixed // a + 1):
            for s in range((fixed - r * a) // len(M) + 1 if kind < 3 else 1):
                t, rest = divmod(fixed - r * a - s * len(M), b)
                if not rest and r + bool(head) + s and s + bool(tail) + t:
                    yield kind, A * r + head + mid + M * s + tail + B * t


def open_type(w: Word):
    """Decides whether w is an open string -- one whose string module has
    open orbit inside its irreducible stratum.

    Returns (side, t) with side in {"semi-projective", "semi-injective"}
    and t in {1, 2, 3} the pattern type, trying the projective side first
    and within a side the types in order; None if w matches no pattern.
    """
    for side, text in (("semi-projective", str(w)), ("semi-injective", str(w)[::-1])):
        for t, s in _open_strings(w.params, len(w)):
            if s == text:
                return (side, t)
    return None


def enumerate_open_strings(dim: int, params: AlgebraParams) -> list[Word]:
    """All projective-side open strings whose string module has dimension
    dim (word length dim - 1), deduplicated and lexicographically sorted.
    Injective-side open strings are the reversals of these.
    """
    texts = {s for _, s in _open_strings(params, dim - 1)}
    return [Word(s, params) for s in sorted(texts)]


# ---------------------------------------------------------------------------
# admissible pairs
# ---------------------------------------------------------------------------

def _windows(w, before, after):
    """All windows (|D|, E) of splittings w = D E F, in order of |D| then
    |E|, where D is empty or ends in `before` and F is empty or starts
    with `after`."""
    n = len(w)
    return [(i, w[i:j])
            for i in range(n + 1) if i == 0 or w[i - 1] == before
            for j in range(i, n + 1) if j == n or w[j] == after]


def factor_windows(w):
    """All windows (|D|, E) of splittings w = D E F where D is empty or
    ends in x and F is empty or starts with y.  The basis vectors over E
    then span a quotient of the string module of w.
    """
    return _windows(w, "x", "y")


def substring_windows(w):
    """All windows (|D|, E) of splittings w = D E F where D is empty or
    ends in y and F is empty or starts with x.  The basis vectors over E
    then span a submodule of the string module of w.
    """
    return _windows(w, "y", "x")


@lru_cache(maxsize=MEMO_SIZE)
def _middles(text: str, windows) -> dict:
    """The windows of text grouped by middle, for windows one of
    factor_windows and substring_windows: each middle word E maps to the
    offsets of its windows, in window order.  Built once per text and
    shared, so never modified."""
    out = {}
    for q, e in windows(text):
        out.setdefault(e, []).append(q)
    return out


def admissible_pairs(w1, w2):
    """The graph-map basis of Hom(M(w1), M(w2)): one graph map (s, q, |E|)
    per factor window (s, E) of w1 and substring window (q, E) of w2 with
    the same middle E, in order of the factor windows.  It sends e_{s+i}
    to e_{q+i} for i = 0..|E| and every other basis vector to zero.
    """
    if getattr(w1, "params", None) != getattr(w2, "params", None):
        raise ValueError("admissible_pairs needs words over the same algebra")
    by_middle = _middles(str(w2), substring_windows)
    return [(s, q, len(e))
            for s, e in factor_windows(w1) for q in by_middle.get(e, ())]


def letter_steps(params: AlgebraParams, max_len: int) -> dict:
    """Maps each valid text shorter than max_len to the valid texts one
    letter longer, x before y: a letter may follow unless the text ends in
    a full run of it.  Keys, and the values chained, go by length then lex."""
    steps, texts = {}, [""]
    for _ in range(max_len):
        for text in texts:
            steps[text] = tuple(text + letter for letter, bound in zip("xy", params)
                                if not text.endswith(letter * (bound - 1)))
        texts = [longer for text in texts for longer in steps[text]]
    return steps


def enumerate_words(max_len: int, params: AlgebraParams) -> list[Word]:
    """All valid words of length <= max_len, by length then lexicographic.
    Includes the empty word; none below max_len 0."""
    if max_len < 0:
        return []
    return [Word(t, params) for t in chain([""], *letter_steps(params, max_len).values())]
