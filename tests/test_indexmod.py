"""Index modules: recognition, stratum dimensions, moves.

The frozen stratum dimensions below were computed by hand from
n * dim Hom(L, Lambda) - dim End(L) and agree with the component tables
they feed into.
"""

import itertools

import pytest

from nilvar.homalg import end_dim, hom_dim_graph
from nilvar.indexmod import (
    hom_to_proj_dim,
    index_of_regular_stratum,
    is_index_module,
    semiproj_index,
    stratum_dim,
)
from nilvar.words import AlgebraParams, Word, enumerate_words

P33 = AlgebraParams(3, 3)
P43 = AlgebraParams(4, 3)


def idx_of(counts, params):
    """The index module with counts[(i, j)] summands x^i y^j, as its tuple
    of summand words, largest exponent pair first."""
    return tuple(Word("x" * i + "y" * j, params)
                 for (i, j), m in sorted(counts.items(), reverse=True)
                 for _ in range(m))


def test_realize_matches_summand_dims():
    idx = idx_of({(2, 2): 1, (1, 1): 1, (0, 0): 0}, P33)
    assert [str(w) for w in idx] == ["xxyy", "xy"]
    # a summand word w stands for M(w), of dimension |w| + 1
    assert sum(len(w) + 1 for w in idx) == 8
    assert idx_of({(0, 1): 1, (2, 2): 1, (1, 0): 2}, P33) == (
        Word("xxyy", P33), Word("x", P33), Word("x", P33), Word("y", P33))


# ---------------------------------------------------------------------------
# recognition
# ---------------------------------------------------------------------------

def brute_index_modules(n, params):
    """All multiplicity vectors over the allowed exponent pairs with total
    dimension n(d-1), filtered by the inequalities -- independent of
    is_index_module's short-circuit order."""
    a, b = params.a, params.b
    keys = [(0, 0)]
    keys += [(i, 0) for i in range(1, a - 1)]
    keys += [(0, j) for j in range(1, b - 1)]
    keys += [(i, j) for i in range(1, a - 1) for j in range(1, b - 1)]
    keys.append((a - 1, b - 1))
    target = n * (params.d - 1)
    out = []

    def rec(pos, left, counts):
        if pos == len(keys):
            if left == 0:
                s = counts.get((0, 0), 0)
                sx = sum(m for (i, j), m in counts.items() if i and not j)
                sy = sum(m for (i, j), m in counts.items() if j and not i)
                sxy = sum(m for (i, j), m in counts.items() if i and j)
                if (sx + sxy <= n and sy + sxy <= n
                        and s + sx + sy + 2 * sxy <= 2 * n):
                    out.append(idx_of(counts, params))
            return
        i, j = keys[pos]
        unit = i + j + 1
        for m in range(left // unit + 1):
            counts[keys[pos]] = m
            rec(pos + 1, left - m * unit, counts)
        counts.pop(keys[pos], None)

    rec(0, target, {})
    return out


def test_index_modules_for_n2_are_exactly_four():
    found = brute_index_modules(2, P33)
    assert len(found) == 4
    assert idx_of({(2, 2): 1, (1, 1): 1}, P33) in found
    assert idx_of({(1, 0): 2, (0, 1): 2}, P33) in found
    for idx in found:
        assert is_index_module(idx, 2, P33)


def test_is_index_module_agrees_with_brute_enumeration():
    for n, params in [(2, P33), (3, P33), (2, P43)]:
        found = set(brute_index_modules(n, params))
        # sample the raw space: multisets over a wider key range
        a, b = params.a, params.b
        keys = [(i, j) for i in range(a) for j in range(b)]
        target = n * (params.d - 1)
        seen = set()
        for combo in itertools.combinations_with_replacement(keys, n):
            total = sum(i + j + 1 for i, j in combo)
            if total > target:
                continue
            # pad with simples to reach the target dimension
            counts = {}
            for key in combo:
                counts[key] = counts.get(key, 0) + 1
            counts[(0, 0)] = counts.get((0, 0), 0) + (target - total)
            idx = idx_of(counts, params)
            if idx in seen:
                continue
            seen.add(idx)
            assert is_index_module(idx, n, params) == (idx in found), idx


def test_boundary_mixed_summands_must_be_projective():
    # M(x y^2) has j = b-1 but i != a-1 at (3,3): not allowed as index summand
    bad = idx_of({(1, 2): 1, (2, 2): 1}, P33)
    assert not is_index_module(bad, 2, P33)
    # same dimension count (3 + 5 = 8) with the legal key is fine
    assert is_index_module(idx_of({(1, 1): 1, (2, 2): 1}, P33), 2, P33)


def test_wrong_total_dimension_is_rejected():
    assert not is_index_module(idx_of({(2, 2): 2}, P33), 2, P33)  # dim 10 != 8


def test_every_summand_must_be_x_then_y():
    # yx has the exponents of xy but is not x^i y^j: padded with simples
    # to n(d-1) = 6 at (a, b) = (2, 2) it is refused, and the same tuple
    # with xy, the algebra itself, is accepted
    p22 = AlgebraParams(2, 2)
    simples = (Word("", p22),) * 3
    assert not is_index_module((Word("yx", p22),) + simples, 3, p22)
    assert is_index_module((Word("xy", p22),) + simples, 3, p22)


# ---------------------------------------------------------------------------
# dimension formulas
# ---------------------------------------------------------------------------

def hom_to_proj_by_pairing(idx, params):
    lam = Word("x" * (params.a - 1) + "y" * (params.b - 1), params)
    return sum(hom_dim_graph(w, lam) for w in idx)


def test_hom_to_proj_formula_matches_pairwise_route():
    for idx in brute_index_modules(2, P33) + brute_index_modules(3, P33):
        n = sum(len(w) + 1 for w in idx) // (P33.d - 1)
        assert hom_to_proj_dim(idx, n, P33) == hom_to_proj_by_pairing(idx, P33)
    for idx in brute_index_modules(2, P43):
        assert hom_to_proj_dim(idx, 2, P43) == hom_to_proj_by_pairing(idx, P43)


def test_stratum_dims_frozen_small_cases():
    # n = 2: the dense regular stratum Lambda + M(xy) has dimension 3
    assert stratum_dim(idx_of({(2, 2): 1, (1, 1): 1}, P33), 2, P33) == 3
    # n = 4: Lambda^3 + S, the stratum of the band x^2y^2, dimension 13
    assert stratum_dim(idx_of({(2, 2): 3, (0, 0): 1}, P33), 4, P33) == 13
    # n = 6: Lambda^4 + M(x) + M(y), the {x^2y, xy^2} stratum, dimension 30
    idx = idx_of({(2, 2): 4, (1, 0): 1, (0, 1): 1}, P33)
    assert stratum_dim(idx, 6, P33) == 30


def test_stratum_dim_n12_diamond_corner():
    # the (x^2y, 4) family at n = 12 has dimension 112
    idx = index_of_regular_stratum((3, 3, 3, 3), (2, 2, 2, 2, 1, 1, 1, 1), P33)
    assert idx == idx_of({(2, 2): 8, (0, 1): 4}, P33)
    assert stratum_dim(idx, 12, P33) == 112


# ---------------------------------------------------------------------------
# index modules of regular strata
# ---------------------------------------------------------------------------

def test_index_of_regular_stratum_smallest_cases():
    assert index_of_regular_stratum((2,), (2,), P33) == idx_of(
        {(2, 2): 1, (1, 1): 1}, P33)
    assert index_of_regular_stratum((3, 1), (3, 1), P33) == idx_of(
        {(2, 2): 3, (0, 0): 1}, P33)


def test_index_of_regular_stratum_antitone_pairing():
    # c = (2, 1), d = (2, 1): the leftover exponents pair large-x/small-y
    idx = index_of_regular_stratum((3, 2, 1), (3, 2, 1), P33)
    assert idx == idx_of({(2, 2): 4, (1, 0): 1, (0, 1): 1}, P33)


def test_index_of_regular_stratum_is_index_module():
    cases = [
        ((2,), (2,), 2, P33),
        ((3, 1), (3, 1), 4, P33),
        ((3, 2, 1), (3, 2, 1), 6, P33),
        ((3, 3, 3, 3), (2, 2, 2, 2, 1, 1, 1, 1), 12, P33),
        ((2, 2), (2, 2), 4, P43),
    ]
    for a_part, b_part, n, params in cases:
        idx = index_of_regular_stratum(a_part, b_part, params)
        assert is_index_module(idx, n, params)


def test_index_of_regular_stratum_rejects_irregular_pairs():
    with pytest.raises(ValueError):
        index_of_regular_stratum((2, 1), (2, 1), P33)  # lengths sum to 4 != 3
    with pytest.raises(ValueError):
        index_of_regular_stratum((3, 1), (2, 2), P33)  # l(a-1) = 1 != 2


# ---------------------------------------------------------------------------
# semi-projective strata
# ---------------------------------------------------------------------------

def test_semiproj_index_frozen_examples():
    word, idx = semiproj_index((3, 1, 1), (3, 1, 1), P33)
    assert str(word) == "xxyy"
    assert idx == idx_of({(2, 2): 4}, P33)
    word, idx = semiproj_index((3, 2, 1, 1), (3, 2, 1, 1), P33)
    assert str(word) == "xxyxyy"
    assert idx == idx_of({(2, 2): 5, (1, 1): 1}, P33)


def test_semiproj_stratum_dims_match_orbit_dims():
    # the open orbit of M(P) is dense in the stratum of L,
    # so both dimension computations must agree
    cases = [
        ((3, 1, 1), (3, 1, 1), 5, 20),
        ((3, 2, 1, 1), (3, 2, 1, 1), 7, 40),
        ((3, 3, 1, 1), (3, 2, 1, 1, 1), 8, 52),
        ((3, 2, 1, 1, 1), (3, 3, 1, 1), 8, 52),
    ]
    for a_part, b_part, n, expected in cases:
        word, idx = semiproj_index(a_part, b_part, P33)
        assert n * n - end_dim([word]) == expected
        assert stratum_dim(idx, n, P33) == expected


def test_semiproj_words_for_n8():
    word, idx = semiproj_index((3, 3, 1, 1), (3, 2, 1, 1, 1), P33)
    assert str(word) == "xxyxxyy"
    assert idx == idx_of({(2, 2): 6, (0, 1): 1}, P33)
    word, idx = semiproj_index((3, 2, 1, 1, 1), (3, 3, 1, 1), P33)
    assert str(word) == "xxyyxyy"
    assert idx == idx_of({(2, 2): 6, (1, 0): 1}, P33)


def test_semiproj_index_requires_full_parts():
    with pytest.raises(ValueError):
        semiproj_index((2, 2, 1), (3, 1, 1), P33)  # no part equal to a = 3
    with pytest.raises(ValueError):
        semiproj_index((3, 1, 1), (3, 2), P33)  # lengths sum to 5 != 6


# ---------------------------------------------------------------------------
# moves
# ---------------------------------------------------------------------------

def hom_profile(words, params, max_len=5):
    """dim Hom(sum of words, M(t)) for every test word t up to max_len.
    Hom dimensions only grow under degeneration, so the profile of a
    module is pointwise below the profile of each of its degenerations."""
    return [sum(hom_dim_graph(w, t) for w in words)
            for t in enumerate_words(max_len, params)]


def below(p, q):
    return all(u <= v for u, v in zip(p, q))


def test_flip_moves_toward_the_less_degenerate_side():
    # flip: {x^2y^2, xy} exchanges tails into {x^2y, xy^2}
    before = hom_profile([Word("xxyy", P33), Word("xy", P33)], P33)
    after = hom_profile([Word("xxy", P33), Word("xyy", P33)], P33)
    assert below(after, before)
    assert not below(before, after)


def test_box_move_hom_order():
    # box move: {xy, xy} moves one x into {x^2y, y}
    before = hom_profile([Word("xy", P33), Word("xy", P33)], P33)
    after = hom_profile([Word("xxy", P33), Word("y", P33)], P33)
    assert below(after, before)
    assert not below(before, after)


def test_end_dim_drops_along_moves():
    # flip: End {x^2y^2, xy} = 15 > 14 = End {x^2y, xy^2}
    assert end_dim([Word("xxyy", P33), Word("xy", P33)]) == 15
    assert end_dim([Word("xxy", P33), Word("xyy", P33)]) == 14
    # box move: End {xy, xy} = 12 > 10 = End {x^2y, y}
    assert end_dim([Word("xy", P33)] * 2) == 12
    assert end_dim([Word("xxy", P33), Word("y", P33)]) == 10
