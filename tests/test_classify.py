"""Classification tests, frozen against the component tables for
a = b = 3 (n = 2..12) and the unconstrained case a, b >= n."""

import collections
import hashlib
import itertools

import pytest

from nilvar import classify, homalg, words
from nilvar.classify import (
    Component,
    components,
    delta_dim,
    diamond_family,
    ip_maximal,
    is_regular_component,
    nnn_components,
    nonregular_components,
    normalize_params,
    open_orbit_dim_formula,
    regular_components,
    regular_dense,
    regular_pairs,
)
from nilvar.cli import main
from nilvar.exactla import RationalMatrix
from nilvar.indexmod import index_of_regular_stratum, semiproj_index, stratum_dim
from nilvar.modmatrix import MatrixPairModule
from nilvar.partitions import (
    Partition,
    dominates,
    enumerate_partitions,
    reduced_length,
    reduced_pair,
)
from nilvar.words import AlgebraParams, enumerate_open_strings, open_type

P33 = AlgebraParams(3, 3)
P43 = AlgebraParams(4, 3)

# the regular component table for a = b = 3: family multiset -> dimension
FIG_REGULAR_33 = {
    2: {(("xy", 1),): 3},
    3: {(("xxy", 1),): 7, (("xyy", 1),): 7},
    4: {(("xxyy", 1),): 13},
    5: {(("xxy", 1), ("xy", 1)): 20, (("xyy", 1), ("xy", 1)): 20},
    6: {(("xxy", 2),): 28, (("xyy", 2),): 28, (("xxy", 1), ("xyy", 1)): 30},
    7: {(("xxyy", 1), ("xxy", 1)): 40, (("xxyy", 1), ("xyy", 1)): 40},
    8: {(("xxy", 2), ("xy", 1)): 51, (("xyy", 2), ("xy", 1)): 51,
        (("xxyy", 2),): 52, (("xxy", 1), ("xyy", 1), ("xy", 1)): 53},
    9: {(("xxy", 3),): 63, (("xyy", 3),): 63,
        (("xxy", 2), ("xyy", 1)): 67, (("xxy", 1), ("xyy", 2)): 67},
    10: {(("xxyy", 1), ("xxy", 2)): 81, (("xxyy", 1), ("xyy", 2)): 81,
         (("xxyy", 1), ("xxy", 1), ("xyy", 1)): 83},
    11: {(("xxy", 3), ("xy", 1)): 96, (("xyy", 3), ("xy", 1)): 96,
         (("xxyy", 2), ("xxy", 1)): 99, (("xxyy", 2), ("xyy", 1)): 99,
         (("xxy", 2), ("xyy", 1), ("xy", 1)): 100,
         (("xxy", 1), ("xyy", 2), ("xy", 1)): 100},
    12: {(("xxy", 4),): 112, (("xyy", 4),): 112, (("xxyy", 3),): 117,
         (("xxy", 3), ("xyy", 1)): 118, (("xxy", 1), ("xyy", 3)): 118,
         (("xxy", 2), ("xyy", 2)): 120},
}

# the semi-projective orbit components for a = b = 3: strings -> dimension
FIG_ORBIT_33 = {
    5: {("xxyy",): 20},
    7: {("xxyxyy",): 40},
    8: {("xxyxxyy",): 52, ("xxyyxyy",): 52},
    9: {("xxyyxxyy",): 66, ("xxyxyxyy",): 66},
    10: {("xxyy", "xxyy"): 80, ("xxyxxyxyy",): 82, ("xxyxyyxyy",): 82},
    11: {("xxyxxyxxyy",): 98, ("xxyyxyyxyy",): 98, ("xxyxxyyxyy",): 100},
    12: {("xxyy", "xxyxyy"): 117, ("xxyyxxyyxyy",): 118,
         ("xxyxxyyxxyy",): 118, ("xxyxxyxyxyy",): 118,
         ("xxyxyxyyxyy",): 118},
}


def family_key(comp):
    return tuple((str(w), m) for w, m in comp.family)


# ---------------------------------------------------------------------------
# regular pairs
# ---------------------------------------------------------------------------

def test_regular_pairs_enumeration_small():
    pairs = list(regular_pairs(4, P33))
    assert (Partition((3, 1)), Partition((3, 1))) in pairs
    assert (Partition((2, 2)), Partition((2, 2))) in pairs
    for a_part, b_part in pairs:
        reduced_pair(a_part, b_part, P33, 0)
    assert len(pairs) == len(set(pairs))


def filtered_pairs(n, params, extra=0):
    """regular_pairs as the filter of the whole product P(n, a) x P(n, b)
    that it replaced: the reference for its sequence."""
    full = (params.a, params.b)
    for a_part in enumerate_partitions(n, params.a):
        for b_part in enumerate_partitions(n, params.b):
            if (len(a_part) + len(b_part) == n + extra
                    and reduced_length(a_part) == reduced_length(b_part)
                    and (extra == 0 or (a_part[0], b_part[0]) == full)):
                yield a_part, b_part


def test_regular_pairs_match_the_product_filter_in_order():
    for a, b in itertools.product(range(2, 6), repeat=2):
        params = AlgebraParams(a, b)
        for n in range(0, 13):
            for extra in (0, 1):
                got = list(regular_pairs(n, params, extra))
                assert got == list(filtered_pairs(n, params, extra)), \
                    (a, b, n, extra)
                assert all(type(p) is Partition for pair in got for p in pair)


@pytest.mark.parametrize("extra", [2, -1, True, False, 1.0, 0.0])
def test_regular_pairs_refuse_other_extras_at_the_call(extra):
    # extra = 2 would yield ((3,1,1,1), (3,1,1,1)) at (6, 3, 3), extra = -1
    # pairs whose lengths sum to n - 1: none that reduced_pair accepts;
    # True and 1.0 equal 1, False and 0.0 equal 0, but only the ints are
    # accepted
    with pytest.raises(ValueError, match=f"need extra 0 or 1, got {extra!r}$"):
        regular_pairs(6, P33, extra)


@pytest.mark.parametrize("a, b", [(3, 3), (4, 4), (3, 5)])
@pytest.mark.parametrize("extra", [0, 1])
def test_regular_pairs_read_each_partition_once(monkeypatch, a, b, extra):
    # one join on shape: each partition of each side has its reduced
    # length taken at most once, where the product filter takes it per
    # pair (676 calls at (30, 3, 3), extra 0)
    n, calls = 30, []

    def counted(p):
        calls.append(p)
        return reduced_length(p)

    monkeypatch.setattr(classify, "reduced_length", counted)
    assert list(regular_pairs(n, AlgebraParams(a, b), extra))
    bound = (sum(1 for _ in enumerate_partitions(n, a))
             + sum(1 for _ in enumerate_partitions(n, b)))
    assert len(calls) <= bound, (len(calls), bound)


def test_diamond_family_pairs_large_x_with_small_y():
    fam = diamond_family((3, 3, 3, 2, 1), (3, 2, 2, 2, 1, 1, 1), P33)
    # c = (2,2,2,1), d = (2,1,1,1): three x^2y and one xy^2
    assert [(str(w), m) for w, m in fam] == [("xxy", 3), ("xyy", 1)]
    fam = diamond_family((3, 2, 1), (3, 2, 1), P33)
    assert [(str(w), m) for w, m in fam] == [("xxy", 1), ("xyy", 1)]


def test_delta_dim_matches_stratum_dim_of_index_module():
    for n in range(2, 8):
        for params in (P33, AlgebraParams(2, 3)):
            for a_part, b_part in regular_pairs(n, params):
                idx = index_of_regular_stratum(a_part, b_part, params)
                assert (delta_dim(a_part, b_part, params)
                        == stratum_dim(idx, n, params)), \
                    (a_part, b_part, params)


def old_index_repr(words):
    """An index module in the text of the multiset class it once was,
    BiserialIndexModule({(i, j): m, ...}) with the largest pair first, so
    the frozen digest below pins each multiset of exponent pairs; the
    words themselves must come largest pair first."""
    pairs = [(w.count("x"), w.count("y")) for w in words]
    assert pairs == sorted(pairs, reverse=True), words
    counts = collections.Counter(pairs)
    return f"BiserialIndexModule({dict(sorted(counts.items(), reverse=True))!r})"


def test_stratum_formulas_frozen():
    # for (a, b) in {2..5}^2 and n = 2..12, one line per regular pair
    # (band family, delta_dim, component test, index module) and per
    # semi-projective stratum (open string, index module, closed-form
    # orbit dimension or None where the staircase shape does not match):
    # 1,407 regular and 167 semi-projective pairs
    digest, counts = hashlib.sha256(), collections.Counter()
    for a, b in itertools.product(range(2, 6), repeat=2):
        params = AlgebraParams(a, b)
        for n in range(2, 13):
            for pair in regular_pairs(n, params):
                counts["regular"] += 1
                fam = [(str(w), m) for w, m in diamond_family(*pair, params)]
                idx = index_of_regular_stratum(*pair, params)
                digest.update(f"{a} {b} {pair} {fam} {delta_dim(*pair, params)} "
                              f"{is_regular_component(*pair, params)} "
                              f"{old_index_repr(idx)}\n".encode())
            for pair in regular_pairs(n, params, extra=1):
                counts["semi-projective"] += 1
                word, idx = semiproj_index(*pair, params)
                try:
                    closed = open_orbit_dim_formula(*pair, params)
                except ValueError:
                    closed = None
                digest.update(f"{a} {b} {pair} {word} {old_index_repr(idx)} "
                              f"{closed}\n".encode())
    assert counts == {"regular": 1407, "semi-projective": 167}
    assert digest.hexdigest() == (
        "517b896bb1d28600e4f1c1ca127c2bb75ce4f1287e0a19d6a6e5ef6e8d269b24")


# ---------------------------------------------------------------------------
# cell maxima and the component criterion
# ---------------------------------------------------------------------------

def test_ip_maximal_worked_example():
    assert ip_maximal(7, P33, 3, 2) == (Partition((3, 3, 1)),
                                        Partition((3, 2, 1, 1)))


def test_ip_maximal_infeasible_cells():
    assert ip_maximal(12, P33, 3, 3) is None   # n - i = 9 > p(a-1) = 6
    assert ip_maximal(5, P33, 1, 1) is None    # n - i = 4 > 2
    assert ip_maximal(6, P33, 3, 4) is None    # p > min(i, n-i)


def test_ip_maximal_dominates_its_cell():
    # the (i, p) = (4, 3) cell at (4, 3), n = 9 contains two a-partitions
    pair = ip_maximal(9, P43, 4, 3)
    assert pair == (Partition((4, 2, 2, 1)), Partition((3, 2, 2, 1, 1)))
    other = (Partition((3, 3, 2, 1)), pair[1])
    reduced_pair(*other, P43, 0)
    assert (len(other[0]), reduced_length(other[0])) == (4, 3)
    assert dominates(other[0], pair[0]) and dominates(other[1], pair[1])
    assert not dominates(pair[0], other[0])
    assert delta_dim(*other, P43) <= delta_dim(*pair, P43)


def test_ip_maximal_is_the_largest_pair_of_every_cell():
    # the regular pairs grouped by cell (l(a_part), l(a_part - 1)), at
    # every (a, b) in {2..5}^2 and n <= 16: ip_maximal lies in its cell
    # and dominates every pair there on both sides, and is None exactly
    # for the cells that hold no pair (1,699 cells, 3,804 pairs)
    seen = collections.Counter()
    for a, b in itertools.product(range(2, 6), repeat=2):
        params = AlgebraParams(a, b)
        for n in range(1, 17):
            cells = collections.defaultdict(list)
            for a_part, b_part in regular_pairs(n, params):
                cells[len(a_part), reduced_length(a_part)].append((a_part, b_part))
            for i, p in itertools.product(range(n + 1), repeat=2):
                top, pairs = ip_maximal(n, params, i, p), cells.get((i, p), [])
                assert (top is None) == (not pairs), (a, b, n, i, p)
                if top is not None:
                    assert top in pairs, (a, b, n, i, p)
                    assert all(dominates(a_part, top[0]) and dominates(b_part, top[1])
                               for a_part, b_part in pairs), (a, b, n, i, p)
            seen["cells"] += len(cells)
            seen["pairs"] += sum(map(len, cells.values()))
    assert seen == {"cells": 1699, "pairs": 3804}


def test_every_open_string_is_the_word_of_a_semi_projective_pair():
    # at every (a, b) in {2..5}^2 and n <= 16, each open string of
    # dimension n is semiproj_index's word for a semi-projective pair of n
    # (415 open strings)
    count = 0
    for a, b in itertools.product(range(2, 6), repeat=2):
        params = AlgebraParams(a, b)
        for n in range(1, 17):
            pair_words = {semiproj_index(*pair, params)[0]
                          for pair in regular_pairs(n, params, extra=1)}
            open_strings = enumerate_open_strings(n, params)
            assert set(open_strings) <= pair_words, (a, b, n)
            count += len(open_strings)
    assert count == 415
    # not conversely: this pair's word has an orbit as large as its
    # stratum, and is no open string
    params = AlgebraParams(2, 4)
    word, index = semiproj_index((2, 2, 2, 1, 1, 1, 1, 1), (4, 3, 3, 1), params)
    assert word == "xyyxyyxyyy"
    assert homalg.orbit_dim([word]) == stratum_dim(index, 11, params) == 98
    assert open_type(word) is None


def test_delta_dim_rejects_what_is_not_a_pair():
    # sizes 4 and 2, then 3 and 6: no stratum, so no dimension
    with pytest.raises(ValueError, match="partitions of one n"):
        delta_dim((3, 1), (2,), P33)
    with pytest.raises(ValueError, match="partitions of one n"):
        delta_dim((2, 1), (2, 2, 2), P33)
    with pytest.raises(ValueError, match=r"l\(a-1\) = l\(b-1\)"):
        delta_dim((3, 1), (2, 2), P33)


REGULAR_FORMULAS = [delta_dim, diamond_family, is_regular_component,
                    index_of_regular_stratum]
SEMIPROJ_FORMULAS = [semiproj_index, open_orbit_dim_formula]
# pairs of partitions of n with equal reduced lengths, at (a, b) = (3, 3)
REGULAR_33 = ((3, 1), (3, 1))
OUTSIDE_33 = [
    ((2, 1), (2, 1)),          # l(a) + l(b) = n + 1, but no full part
    REGULAR_33,                # l(a) + l(b) = n
    ((2, 1, 1), (2, 1, 1)),    # l(a) + l(b) = n + 2
    ((2, 2, 1), (2, 2, 1)),    # l(a) + l(b) = n + 1, but no full part
    ((4, 1), (3, 1, 1)),       # l(a) + l(b) = n, but a part 4 > a
]


@pytest.mark.parametrize("formula, pair", [
    (f, pair) for f in REGULAR_FORMULAS + SEMIPROJ_FORMULAS for pair in OUTSIDE_33
    if not (f in REGULAR_FORMULAS and pair == REGULAR_33)],
    ids=lambda v: getattr(v, "__name__", str(v)))
def test_stratum_formulas_reject_pairs_outside_their_kind(formula, pair):
    with pytest.raises(ValueError, match=r"l\(a\) \+ l\(b\)|full part|bounds"):
        formula(*pair, P33)


def test_regular_pairs_are_the_pairs_reduced_pair_accepts():
    # the validator sees every pair of partitions of n, with parts above
    # a or b too, so its bound checks are exercised
    for a, b in itertools.product(range(2, 6), repeat=2):
        params = AlgebraParams(a, b)
        for n in range(2, 11):
            parts = list(enumerate_partitions(n))
            for extra in (0, 1):
                accepted = set()
                for pair in itertools.product(parts, repeat=2):
                    try:
                        reduced_pair(*pair, params, extra)
                    except ValueError:
                        continue
                    accepted.add(pair)
                assert set(regular_pairs(n, params, extra)) == accepted, \
                    (a, b, n, extra)


def test_regular_components_pass_the_benchmark_dimension_check():
    # the benchmark's output check recomputes each regular component's
    # dimension from its index module, with unnormalized parameters
    for n, (a, b) in itertools.product((16, 20, 24),
                                       [(3, 3), (4, 4), (3, 5), (5, 3)]):
        params = AlgebraParams(a, b)
        regular = [c.as_dict() for c in components(n, a, b) if c.kind == "regular"]
        assert regular
        for comp in regular:
            idx = index_of_regular_stratum(Partition(comp["a"]),
                                           Partition(comp["b"]), params)
            assert stratum_dim(idx, n, params) == comp["dim"], (n, a, b, comp)


def test_is_regular_component_criterion():
    assert is_regular_component((3, 3, 3, 3), (2, 2, 2, 2, 1, 1, 1, 1), P33)
    # reduced length 5 exceeds #full parts + 1 = 3
    assert not is_regular_component((3, 3, 2, 2, 2), (2, 2, 2, 2, 2, 1, 1), P33)
    # two parts outside {1, 2, a} at a = 4
    assert not is_regular_component((3, 3, 2, 1, 1), (4, 2, 2, 1, 1),
                                    AlgebraParams(4, 4))
    assert is_regular_component((4, 2, 2, 1, 1), (4, 2, 2, 1, 1),
                                AlgebraParams(4, 4))
    with pytest.raises(ValueError):
        is_regular_component((2, 1), (2, 1), P33)


def test_regular_components_agree_with_the_per_pair_formulas():
    # the components keep the cell maxima that pass is_regular_component,
    # with delta_dim and diamond_family read off one reduced_pair each
    for n, (a, b) in itertools.product(range(2, 17), [(3, 3), (4, 4), (3, 5)]):
        params = normalize_params(n, a, b)
        cells = [ip_maximal(n, params, i, p)
                 for i in range(1, n) for p in range(1, min(i, n - i) + 1)]
        want = sorted(((delta_dim(*pair, params), tuple(pair[0]), tuple(pair[1]),
                        tuple(diamond_family(*pair, params)))
                       for pair in cells
                       if pair is not None and is_regular_component(*pair, params)),
                      key=repr)
        got = sorted(((c.dim, c.a_part, c.b_part, c.family)
                      for c in regular_components(n, params)), key=repr)
        assert got == want, (n, a, b)


def test_regular_components_check_each_cell_once(monkeypatch):
    # 31 candidate cells and 15 components at (24, 3, 3): each cell's pair
    # passes reduced_pair once, not once per formula read off it
    calls = []

    def counted(*args):
        calls.append(args)
        return reduced_pair(*args)

    monkeypatch.setattr(classify, "reduced_pair", counted)
    comps = regular_components(24, P33)
    assert (len(calls), len(comps)) == (31, 15)


# ---------------------------------------------------------------------------
# closure criteria
# ---------------------------------------------------------------------------

def test_nnn_closure_is_componentwise_dominance():
    # the maximal pairs are pairwise incomparable
    comps = nnn_components(5)
    for c1 in comps:
        for c2 in comps:
            if c1 is not c2:
                assert not (dominates(c1.a_part, c2.a_part)
                            and dominates(c1.b_part, c2.b_part))


# ---------------------------------------------------------------------------
# the component tables
# ---------------------------------------------------------------------------

def test_regular_components_reproduce_the_table():
    for n, expected in FIG_REGULAR_33.items():
        got = {family_key(c): c.dim
               for c in regular_components(n, normalize_params(n, 3, 3))}
        assert got == expected, f"n = {n}"


def test_orbit_components_reproduce_the_table():
    for n in range(2, 13):
        comps = nonregular_components(n, normalize_params(n, 3, 3))
        proj = {tuple(str(w) for w in c.strings): c.dim
                for c in comps if c.side == "semi-projective"}
        assert proj == FIG_ORBIT_33.get(n, {}), f"n = {n}"
        # every projective-side component has a reflected twin of equal dim
        inj = {tuple(str(w) for w in c.strings): c.dim
               for c in comps if c.side == "semi-injective"}
        expected_inj = {
            tuple(sorted((s[::-1] for s in key), key=lambda t: (len(t), t))): d
            for key, d in proj.items()}
        assert inj == expected_inj, f"n = {n}"


def ext_orthogonal(summands):
    """The orbit search's leaf rule in its earlier two-case form: no
    self-extension on a repeated string, and no Ext^1 either way between
    two distinct strings."""
    distinct = sorted(set(summands), key=str)
    for u in distinct:
        if summands.count(u) >= 2 and not homalg.ext1_vanishes(u, u):
            return False
    for i, u in enumerate(distinct):
        for v in distinct[i + 1:]:
            if not (homalg.ext1_vanishes(u, v) and homalg.ext1_vanishes(v, u)):
                return False
    return True


def open_string_multisets(n, params):
    """Every multiset of open strings of total dimension n, built apart
    from the search: a partition of n into dimensions >= 2, then for each
    dimension d used m times, a multiset of m open strings of dimension d."""
    def dims(left, top):
        if left == 0:
            yield []
        for d in range(min(left, top), 1, -1):
            for rest in dims(left - d, d):
                yield [d] + rest
    for parts in dims(n, n):
        counts = collections.Counter(parts)
        yield from (sum(choice, ()) for choice in itertools.product(*(
            itertools.combinations_with_replacement(
                words.enumerate_open_strings(d, params), m)
            for d, m in sorted(counts.items()))))


def by_length_then_text(strings):
    return tuple(sorted(map(str, strings), key=lambda t: (len(t), t)))


@pytest.mark.parametrize("a, b", list(itertools.product(range(2, 6), repeat=2)))
def test_orbit_search_matches_the_two_case_rule_over_every_multiset(a, b):
    for n in range(2, 25):
        params = normalize_params(n, a, b)
        expected = {}
        for summands in open_string_multisets(n, params):
            if ext_orthogonal(summands):
                key = by_length_then_text(summands)
                assert key not in expected
                expected[key] = homalg.orbit_dim(summands)
        comps = nonregular_components(n, params)
        assert len(comps) == 2 * len(expected), (n, a, b)
        proj = {tuple(map(str, c.strings)): c.dim
                for c in comps if c.side == "semi-projective"}
        inj = {tuple(map(str, c.strings)): c.dim
               for c in comps if c.side == "semi-injective"}
        assert proj == expected, (n, a, b)
        assert inj == {by_length_then_text(s[::-1] for s in key): dim
                       for key, dim in expected.items()}, (n, a, b)


def test_a_string_used_once_may_extend_itself():
    # Ext^1(M(xxyxyxyy), M(xxyxyxyy)) != 0: alone it is a component at
    # n = 9, but two copies of it are none at n = 18
    w = words.Word("xxyxyxyy", P33)
    assert not homalg.ext1_vanishes(w, w)

    def proj(n):
        return {c.strings: c.dim for c in nonregular_components(n, P33)
                if c.side == "semi-projective"}
    assert proj(9)[(w,)] == 66
    assert (w, w) not in proj(18)


def test_components_concatenates_both_kinds():
    comps = components(12, 3, 3)
    kinds = [c.kind for c in comps]
    assert kinds == ["regular"] * 6 + ["orbit"] * 10
    dims = [c.dim for c in comps if c.kind == "regular"]
    assert dims == sorted(dims, reverse=True)


def test_components_applies_the_nilpotency_cap():
    # a = 9 > n acts like a = n
    left = [(c.kind, c.dim, c.label()) for c in components(4, 9, 9)]
    right = [(c.kind, c.dim, c.label()) for c in components(4, 4, 4)]
    assert left == right


def test_components_n1_is_a_point():
    comps = components(1, 3, 3)
    assert len(comps) == 1
    assert comps[0].kind == "zero"
    assert comps[0].dim == 0
    assert comps[0].as_dict() == {"kind": "zero", "dim": 0}


SWAP = str.maketrans("xy", "yx")
MIRROR = {"semi-projective": "semi-injective", "semi-injective": "semi-projective"}


def shape(comp):
    """A component as plain data, its bands or strings sorted."""
    if comp.kind == "regular":
        return ("regular", comp.dim, comp.a_part, comp.b_part,
                tuple(sorted((str(w), m) for w, m in comp.family)))
    return ("orbit", comp.dim, comp.side, tuple(sorted(map(str, comp.strings))))


def swapped_shape(comp):
    """shape(comp) after x <-> y: the partitions trade places, each band
    turns to its lex-least rotation again, and the strings change side."""
    if comp.kind == "regular":
        bands = []
        for w, m in comp.family:
            t = str(w).translate(SWAP)
            bands.append((min(t[i:] + t[:i] for i in range(len(t))), m))
        return ("regular", comp.dim, comp.b_part, comp.a_part, tuple(sorted(bands)))
    return ("orbit", comp.dim, MIRROR[comp.side],
            tuple(sorted(str(w).translate(SWAP) for w in comp.strings)))


@pytest.mark.parametrize("a, b", [(2, 3), (2, 4), (3, 4), (3, 5), (2, 5), (4, 5)])
def test_letter_swap_maps_components_onto_swapped_bounds(a, b):
    for n in range(2, 21):
        assert sorted(map(shape, components(n, b, a))) == sorted(
            map(swapped_shape, components(n, a, b))), n


def test_component_is_an_immutable_value():
    c = Component(kind="zero", dim=0)
    assert (c.a_part, c.b_part, c.family, c.side, c.strings) == (None,) * 5
    assert c == Component("zero", 0)
    assert len({c, Component(kind="zero", dim=0)}) == 1
    with pytest.raises(AttributeError):
        c.dim = 1


def test_normalize_params_caps_the_bounds_at_n():
    assert normalize_params(4, 9, 3) == (4, 3)
    # at n = 1 a cap would fall below 2: the bounds stay as given
    assert normalize_params(1, 7, 2) == (7, 2)
    with pytest.raises(ValueError, match="need n >= 1"):
        normalize_params(0, 3, 3)
    # the bounds are checked before the cap, and reported as given
    with pytest.raises(ValueError, match=r"need a, b >= 2, got \(1, 9\)"):
        normalize_params(5, 1, 9)


def test_components_rejects_non_integer_parameters():
    # each fails with a message naming the value, not as a TypeError
    # from range or a complaint about partition parts
    with pytest.raises(ValueError, match=r"need an integer n, got 4\.0"):
        components(4.0, 3, 3)
    with pytest.raises(ValueError, match=r"need an integer n, got '4'"):
        normalize_params("4", 3, 3)
    with pytest.raises(ValueError, match=r"need integer a, b, got \(3\.0, 3\)"):
        components(4, 3.0, 3)
    with pytest.raises(ValueError, match=r"need integer a, b, got \(3, 2\.5\)"):
        components(1, 3, 2.5)
    # a bool is an int to isinstance, but True is no dimension
    with pytest.raises(ValueError, match=r"need an integer n, got True"):
        components(True, 3, 3)


# sha256 of `nilvar classify --format json` stdout: the n = 16 and 24
# values are those of perfbench/expected_digests.json, recorded while
# classify still built matrix modules; (40, 3, 3) was added when Ext^1
# came to be decided by counting graph maps, and (40, 3, 5), (40, 4, 4)
# and (48, 3, 3) while the orbit search still tested its leaves with a
# self-Ext case and a both-ways case
CLASSIFY_JSON_SHA256 = {
    (16, 3, 3): "ec362809dfededf7d58486b8076b5e408758bc190af4f4a5f34cd12bafd76703",
    (16, 4, 4): "cca17f15f09e3efa4f2cf82a20e304881f1455e522b28ef9dbbfd2f9465a9064",
    (16, 3, 5): "5d0f1cd3fab2ea6caadf6fbf66ac0e5331326095787a8560c24ce7e75b0cd602",
    (24, 3, 3): "507aa328c12619860fed04bb5423fe04e9641c8c11cf863cf9e9956cded64a68",
    (40, 3, 3): "d28dfb084cdacf1a77272734f0aed5314b02086f86815b10e56fdba33f137f4d",
    (40, 3, 5): "701ec9eacb63f5fcc9bc19f7fb9cbbeb4b4995c5ea8d328ba509f895df357a6d",
    (40, 4, 4): "95505eb21cb439087e96603330e1ed3b9906b46943e446ad1bfa1e9510b0562a",
    (48, 3, 3): "30485933dc6f36e14a1739fc6edc9b46ca96e866377fe8aa45561e0e2ce8ac9c",
}


@pytest.mark.parametrize("n, a, b", sorted(CLASSIFY_JSON_SHA256))
def test_classification_builds_no_matrix_module(capsys, monkeypatch, n, a, b):
    # orbit dimensions and Ext^1 tests come from counting words alone:
    # no matrix module is built and no elimination runs
    def refuse(what):
        def refused(self, *args, **kwargs):
            raise AssertionError(f"the classification {what}")
        return refused

    monkeypatch.setattr(MatrixPairModule, "__init__", refuse("built a matrix module"))
    monkeypatch.setattr(RationalMatrix, "rank", refuse("computed a rank"))
    homalg._ext1_vanishes.cache_clear()  # so that every Ext^1 test runs
    assert main(["classify", "--n", str(n), "--a", str(a), "--b", str(b),
                 "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == CLASSIFY_JSON_SHA256[n, a, b]


def test_window_indexes_are_built_once(monkeypatch):
    # a cold classification indexes each (text, window kind) by middle on
    # its first Hom count and reads that index afterwards
    built = []

    def counted(w, before, after):
        built.append((str(w), before, after))
        return windows(w, before, after)

    windows = words._windows
    monkeypatch.setattr(words, "_windows", counted)
    for memo in (words._middles, homalg._hom_count, homalg._ext1_vanishes):
        memo.cache_clear()
    components(24, 3, 3)
    assert built and len(built) == len(set(built))


def test_components_validates_bounds_at_n1():
    with pytest.raises(ValueError):
        components(1, 0, -5)
    with pytest.raises(ValueError):
        components(1, 3, 1)


def test_remark_two_smallest_wild_case():
    # V(3, 2, 2) has exactly two components, the open orbits of M(xy)
    # and M(yx), both of dimension 6
    comps = components(3, 2, 2)
    assert len(comps) == 2
    assert all(c.kind == "orbit" and c.dim == 6 for c in comps)
    strings = sorted(str(w) for c in comps for w in c.strings)
    assert strings == ["xy", "yx"]


def test_nnn_components_match_general_machinery():
    for n in range(2, 8):
        ref = [(c.a_part, c.b_part, family_key(c), c.dim)
               for c in nnn_components(n)]
        got = [(c.a_part, c.b_part, family_key(c), c.dim)
               for c in components(n, n, n)]
        assert got == ref
        assert len(ref) == n - 1
        assert all(dim == n * n - n + 1 for *_, dim in ref)


def test_nnn_components_refuses_n1():
    with pytest.raises(ValueError, match="need n >= 2, got 1"):
        nnn_components(1)


def test_nnn_components_frozen_n4():
    rows = [(c.a_part, c.b_part, family_key(c)) for c in nnn_components(4)]
    assert rows == [
        ((4,), (2, 1, 1), (("xxxy", 1),)),
        ((3, 1), (3, 1), (("xxyy", 1),)),
        ((2, 1, 1), (4,), (("xyyy", 1),)),
    ]


# ---------------------------------------------------------------------------
# density of the regular locus
# ---------------------------------------------------------------------------

def test_regular_dense_closed_form():
    assert regular_dense(1, 3, 3) is False  # the point is no regular stratum
    assert regular_dense(2, 3, 3) and regular_dense(4, 3, 3)
    assert not regular_dense(5, 3, 3)
    assert regular_dense(6, 3, 3)
    assert not regular_dense(7, 3, 3)
    assert regular_dense(3, 2, 2)is False
    assert regular_dense(4, 2, 2)
    assert regular_dense(7, 2, 7)   # caps: a + b - 2 = 7
    assert not regular_dense(8, 2, 7)
    assert regular_dense(9, 2, 7)


def test_regular_dense_agrees_with_enumeration_smallish():
    for n in range(2, 9):
        for a, b in [(3, 3), (2, 2), (2, 3)]:
            empty = not nonregular_components(n, normalize_params(n, a, b))
            assert empty == regular_dense(n, a, b), (n, a, b)


# ---------------------------------------------------------------------------
# closed-form open orbit dimensions
# ---------------------------------------------------------------------------

def test_open_orbit_dim_formula_frozen_values():
    assert open_orbit_dim_formula((3, 1, 1), (3, 1, 1), P33) == 20
    assert open_orbit_dim_formula((3, 2, 1, 1), (3, 2, 1, 1), P33) == 40
    assert open_orbit_dim_formula((3, 3, 2, 1, 1, 1), (3, 3, 2, 1, 1, 1),
                                  P33) == 100
    # a semi-projective pair at (4, 3): a_part - 1 = (3, 2) matches with
    # (v, r) = (1, 0), b_part - 1 = (2, 2) with (w, s) = (0, 0), and the
    # value agrees with the orbit dimension of M(xxxyyxxyy) = 84
    assert open_orbit_dim_formula((4, 3, 1, 1, 1), (3, 3, 1, 1, 1, 1),
                                  P43) == 84
    # but a_part - 1 = (3, 2, 2) does not match the staircase for bound 4
    with pytest.raises(ValueError, match="does not match"):
        open_orbit_dim_formula((4, 3, 3, 1, 1), (3, 2, 2, 1, 1, 1, 1, 1), P43)


# ---------------------------------------------------------------------------
# descriptors
# ---------------------------------------------------------------------------

def test_component_json_shapes():
    reg = [c for c in components(12, 3, 3)
           if c.kind == "regular" and c.dim == 112 and "xxy" == str(c.family[0][0])]
    assert len(reg) == 1
    assert reg[0].as_dict() == {
        "kind": "regular",
        "a": [3, 3, 3, 3],
        "b": [2, 2, 2, 2, 1, 1, 1, 1],
        "family": [{"band": "x^2y", "mult": 4}],
        "dim": 112,
    }
    orb = [c for c in components(12, 3, 3)
           if c.kind == "orbit" and c.dim == 117
           and c.side == "semi-projective"]
    assert len(orb) == 1
    assert orb[0].as_dict() == {
        "kind": "orbit",
        "side": "semi-projective",
        "strings": ["xxyy", "xxyxyy"],
        "dim": 117,
    }


def test_component_labels():
    by_label = {c.label(): c.dim for c in components(12, 3, 3)}
    assert by_label["(xxy,4)"] == 112
    assert by_label["{(xxy,2),(xyy,2)}"] == 120
    assert by_label["xxyy ⊕ xxyxyy"] == 117
    assert {c.label() for c in components(2, 3, 3)} == {"xy"}
