"""Irreducible components of the variety of commuting nilpotent pairs.

V(n, a, b) is the set of pairs (A, B) of n x n matrices with
AB = BA = 0, A^a = 0, B^b = 0.  Its irreducible components come in two
kinds:

* regular components -- closures of strata C(a_part, b_part) indexed by
  "regular" pairs of partitions of n (the generic Jordan types of A and
  B on the stratum).  The generic modules form a family of direct sums
  of band modules, the diamond of the pair; the stratum dimension has
  the closed form delta_dim.

* orbit components -- closures of single GL_n-orbits of exceptional
  string modules: direct sums of Ext-orthogonal semi-projective open
  strings, together with their reflections (the semi-injective side).

Everything here is arithmetic on partitions and words: the orbit
dimensions come from graph-map counts of the summand words and the Ext^1
tests from counting the distinct graph maps that factor through the
words' projective covers, so no matrix module is built and no
elimination runs.
"""

from __future__ import annotations

from collections import Counter, namedtuple

from .homalg import ext1_vanishes, orbit_dim
from .partitions import Partition, enumerate_partitions, reduced_length, reduced_pair
from .words import AlgebraParams, Word, enumerate_open_strings


# ---------------------------------------------------------------------------
# regular pairs and their strata
# ---------------------------------------------------------------------------

def regular_pairs(n, params: AlgebraParams, extra=0):
    """All pairs of partitions of n that reduced_pair accepts with the
    same extra: the regular pairs at extra = 0 (parts bounded by a, b,
    equal reduced lengths, l(a_part) + l(b_part) = n), the
    semi-projective strata at extra = 1 (lengths adding up to n + 1 and
    first parts a and b)."""
    full = (params.a, params.b)
    for a_part in enumerate_partitions(n, params.a):
        for b_part in enumerate_partitions(n, params.b):
            if (len(a_part) + len(b_part) == n + extra
                    and reduced_length(a_part) == reduced_length(b_part)
                    and (extra == 0 or (a_part[0], b_part[0]) == full)):
                yield a_part, b_part


def _regular_stratum(a_part, b_part, params):
    """(criterion, dimension, family) of the stratum of a regular pair, all
    read off one reduced_pair: whether its closure is a component, its
    delta dimension and its diamond band family.  Raises unless
    reduced_pair accepts the pair as regular."""
    n, c, d, pairs = reduced_pair(a_part, b_part, params, 0)
    a, b = params.a, params.b
    full = sum(1 for v in a_part if v == a) + sum(1 for v in b_part if v == b)
    criterion = (sum(1 for v in a_part if v not in (1, 2, a)) <= 1
                 and sum(1 for v in b_part if v not in (1, 2, b)) <= 1
                 and len(c) <= full + 1)
    dim = (n * n - sum(m * m for m in c.dual()) - sum(m * m for m in d.dual())
           + len(c) ** 2)
    mults = Counter("x" * i + "y" * j for i, j in pairs)
    ordered = sorted(mults, key=lambda s: (-len(s), s))
    return criterion, dim, [(Word(s, params), mults[s]) for s in ordered]


def diamond_family(a_part, b_part, params: AlgebraParams):
    """The bands of the generic module on the stratum of a regular pair:
    one band x^i y^j for each pair (i, j) of the diamond pairing of
    reduced_pair, i.e. x^{c_i} y^{d_{t-i+1}} with c = a_part - 1 and
    d = b_part - 1.

    Returns [(band word, multiplicity)], longest bands first.
    """
    return _regular_stratum(a_part, b_part, params)[2]


def delta_dim(a_part, b_part, params: AlgebraParams) -> int:
    """Dimension of the regular stratum C(a_part, b_part):

        n^2 - sum_i m_i^2 - sum_i n_i^2 + t^2

    where (m_i), (n_i) are the duals of a_part - 1, b_part - 1 and t is
    their common length.  Raises unless reduced_pair accepts the pair as
    regular."""
    return _regular_stratum(a_part, b_part, params)[1]


def _front_loaded(total, parts, cap):
    """The dominance-largest partition with the given number of parts,
    each in [2, cap], of the given total; None if there is none."""
    if not 2 * parts <= total <= cap * parts:
        return None
    out, left = [], total
    for k in range(parts):
        v = min(cap, left - 2 * (parts - k - 1))
        out.append(v)
        left -= v
    return out


def ip_maximal(n: int, params: AlgebraParams, i: int, p: int):
    """The dominance-largest regular pair in the cell with l(a_part) = i
    and l(a_part - 1) = l(b_part - 1) = p, or None when the cell is
    empty.  Feasibility: p <= min(i, n-i), n-i <= p(a-1), i <= p(b-1).
    """
    if not 1 <= p <= min(i, n - i):
        return None
    big_a = _front_loaded(n - (i - p), p, params.a)
    big_b = _front_loaded(n - (n - i - p), p, params.b)
    if big_a is None or big_b is None:
        return None
    return (Partition(big_a + [1] * (i - p)),
            Partition(big_b + [1] * (n - i - p)))


def is_regular_component(a_part, b_part, params: AlgebraParams) -> bool:
    """Whether the closure of the regular stratum C(a_part, b_part) is an
    irreducible component: at most one part of a_part outside {1, 2, a},
    likewise for b_part with b, and the reduced length is at most
    #(parts = a) + #(parts = b) + 1.  Raises unless reduced_pair accepts
    the pair as regular."""
    return _regular_stratum(a_part, b_part, params)[0]


# ---------------------------------------------------------------------------
# components
# ---------------------------------------------------------------------------

class Component(namedtuple("Component",
                             "kind dim a_part b_part family side strings",
                             defaults=(None,) * 5)):
    """One irreducible component, printable and JSON-serializable.

    kind "regular": carries the partition pair and the band family.
    kind "orbit":   carries the side and the open strings of the sum.
    kind "zero":    the point variety at n = 1.
    """

    __slots__ = ()

    def label(self) -> str:
        if self.kind == "regular":
            items = [str(w) if m == 1 else f"({w},{m})" for w, m in self.family]
            body = ",".join(items)
            return body if len(items) == 1 else "{" + body + "}"
        if self.kind == "orbit":
            return " ⊕ ".join(str(w) for w in self.strings)
        return "0"

    def sort_key(self):
        return (-self.dim, self.label())

    def as_dict(self) -> dict:
        if self.kind == "regular":
            return {
                "kind": "regular",
                "a": [int(v) for v in self.a_part],
                "b": [int(v) for v in self.b_part],
                "family": [{"band": w.caret(), "mult": m} for w, m in self.family],
                "dim": self.dim,
            }
        if self.kind == "orbit":
            return {
                "kind": "orbit",
                "side": self.side,
                "strings": [str(w) for w in self.strings],
                "dim": self.dim,
            }
        return {"kind": "zero", "dim": self.dim}


def regular_components(n: int, params: AlgebraParams) -> list:
    """The regular components of V(n, a, b): the dominance-largest pair
    of each feasible (length, reduced length) cell, kept when the
    maximality criterion holds."""
    out = []
    for i in range(1, n):
        for p in range(1, min(i, n - i) + 1):
            pair = ip_maximal(n, params, i, p)
            if pair is None:
                continue
            criterion, dim, family = _regular_stratum(*pair, params)
            if criterion:
                out.append(Component(kind="regular", dim=dim, a_part=tuple(pair[0]),
                                     b_part=tuple(pair[1]), family=tuple(family)))
    out.sort(key=Component.sort_key)
    return out


def _ext_orthogonal(words) -> bool:
    distinct = sorted(set(words), key=str)
    for u in distinct:
        if words.count(u) >= 2 and not ext1_vanishes(u, u):
            return False
    for idx, u in enumerate(distinct):
        for v in distinct[idx + 1:]:
            if not (ext1_vanishes(u, v) and ext1_vanishes(v, u)):
                return False
    return True


def nonregular_components(n: int, params: AlgebraParams) -> list:
    """The orbit components of V(n, a, b): multisets of semi-projective
    open strings of total dimension n with no Ext^1 between distinct
    members and none on a repeated member (a string used once may have
    self-extensions), plus the reflected semi-injective versions."""
    opens = []
    for k in range(2, n + 1):
        opens.extend(enumerate_open_strings(k, params))

    found = []

    def extend(start, left, chosen):
        if left == 0:
            if _ext_orthogonal(chosen):
                found.append(list(chosen))
            return
        for j in range(start, len(opens)):
            need = len(opens[j]) + 1
            if need > left:
                break
            chosen.append(opens[j])
            extend(j, left - need, chosen)
            chosen.pop()

    extend(0, n, [])

    def key(w):
        return (len(w), str(w))

    out = []
    for words in found:
        dim = orbit_dim(words)
        out.append(Component(kind="orbit", dim=dim, side="semi-projective",
                             strings=tuple(sorted(words, key=key))))
        mirrored = [w.reverse() for w in words]
        out.append(Component(kind="orbit", dim=dim, side="semi-injective",
                             strings=tuple(sorted(mirrored, key=key))))
    out.sort(key=Component.sort_key)
    return out


def normalize_params(n: int, a: int, b: int) -> AlgebraParams:
    """x^a = 0 on an n-dimensional nilpotent pair is no condition once
    a > n, so the bounds cap at n.  At n = 1 a cap would fall below 2 and
    the bounds stay as given."""
    if type(n) is not int:
        raise ValueError(f"need an integer n, got {n!r}")
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    params = AlgebraParams(a, b)
    return params if n == 1 else AlgebraParams(min(a, n), min(b, n))


def components(n: int, a: int, b: int) -> list:
    """All irreducible components of V(n, a, b), regular ones first,
    each group ordered by descending dimension then label."""
    params = normalize_params(n, a, b)
    if n == 1:
        # A = B = 0 is the only point
        return [Component(kind="zero", dim=0)]
    return regular_components(n, params) + nonregular_components(n, params)


def regular_dense(n: int, a: int, b: int) -> bool:
    """Whether the union of the regular strata is dense, i.e. every
    component is regular: exactly when 2 <= n <= a + b - 2 or n = a + b
    (after capping the bounds at n; the point n = 1 is no regular stratum)."""
    params = normalize_params(n, a, b)
    a, b = params.a, params.b
    return 2 <= n <= a + b - 2 or n == a + b


# ---------------------------------------------------------------------------
# the unconstrained case a, b >= n
# ---------------------------------------------------------------------------

def nnn_components(n: int) -> list:
    """The components of V(n, n, n) (equivalently a, b >= n): for each
    i = 1..n-1 the regular pair ((n-i+1, 1^{i-1}), (i+1, 1^{n-i-1})),
    whose diamond is the single band x^{n-i} y^i; all have dimension
    n^2 - n + 1."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    params = AlgebraParams(n, n)
    out = []
    for i in range(1, n):
        a_part = Partition((n - i + 1,) + (1,) * (i - 1))
        b_part = Partition((i + 1,) + (1,) * (n - i - 1))
        out.append(Component(
            kind="regular",
            dim=n * n - n + 1,
            a_part=tuple(a_part),
            b_part=tuple(b_part),
            family=((Word("x" * (n - i) + "y" * i, params), 1),),
        ))
    out.sort(key=Component.sort_key)
    return out


# ---------------------------------------------------------------------------
# closed form for the dimension of certain open orbits
# ---------------------------------------------------------------------------

def open_orbit_dim_formula(a_part, b_part, params: AlgebraParams) -> int:
    """Dimension of the open orbit of the semi-projective stratum of
    (a_part, b_part), when the reduced partitions have the staircase
    shape

        a_part - 1 = ((a-1)^{p-r-1}, a-v-1, 1^r),  0 <= v <= a-2,
        b_part - 1 = ((b-1)^{p-s-1}, b-w-1, 1^s),  0 <= w <= b-2,

    with 0 <= r, s <= p-1 and r = 0 when v = 0, s = 0 when w = 0:

        n^2 - p^2 - p - 1 - (a-v-2)(p-r)^2 - (b-w-2)(p-s)^2
            - v(p-r-1)^2 - w(p-s-1)^2

    Raises unless reduced_pair accepts the pair as semi-projective, and
    when the shapes do not match.
    """
    n, c, d, _ = reduced_pair(a_part, b_part, params, 1)
    p = len(c)
    v, r = _staircase_match(c, params.a)
    w, s = _staircase_match(d, params.b)
    a, b = params.a, params.b
    return (n * n - p * p - p - 1
            - (a - v - 2) * (p - r) ** 2 - (b - w - 2) * (p - s) ** 2
            - v * (p - r - 1) ** 2 - w * (p - s - 1) ** 2)


def _staircase_match(c: Partition, cap: int):
    """Return (v, r) with c = ((cap-1)^{p-r-1}, cap-v-1, 1^r), under
    0 <= v <= cap-2 and r = 0 when v = 0; the constraints make the match
    unique.  Raises when there is none."""
    p = len(c)
    for r in range(p):
        head, mid, tail = c[:p - r - 1], c[p - r - 1], c[p - r:]
        if any(x != cap - 1 for x in head) or any(x != 1 for x in tail):
            continue
        v = cap - 1 - mid
        if 0 <= v <= cap - 2 and (v != 0 or r == 0):
            return v, r
    raise ValueError(
        f"{list(c)} does not match ((cap-1)^*, cap-v-1, 1^r) for bound {cap}")
