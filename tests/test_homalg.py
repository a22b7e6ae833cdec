"""Tests for the homological layer.

The two Hom routes (admissible-pair counting vs linear-algebra solution
spaces) are swept against each other; graph maps, triples (s, q, L)
expanded here into matrices, are verified to be module homomorphisms
spanning Hom; Hom(Lambda, M) = dim M pins the conventions against
free-module theory; the word-level End is checked against the oracle on
explicit direct sums, and the projective cover read off the word against
a generic cover computed by linear algebra, kept here as the reference;
the syzygy's Ext^1 dimension is checked against the cocycle dimension,
also kept here as the reference, with the self-extension dichotomy for
open strings as a frozen expectation; and the former Auslander-Reiten
count (cover compositions of graph maps from the inverse translate) is
kept here as the large-n reference, itself checked against the former
position-based encoding of graph maps.
"""

import itertools
import random
import time

import pytest

from nilvar import homalg, modmatrix, verify, words
from nilvar.classify import components
from nilvar.homalg import (
    end_dim,
    ext1_vanishes,
    hom_dim_graph,
    hom_dim_oracle,
    hom_table,
    orbit_dim,
    projective_cover,
    syzygy,
)
from nilvar.exactla import RationalMatrix, pivot_columns
from nilvar.modmatrix import MatrixPairModule, band_module, direct_sum, string_module
from nilvar.words import (AlgebraParams, Word, admissible_pairs, band_class,
                          enumerate_open_strings, enumerate_words, open_type)

P33 = AlgebraParams(3, 3)
P23 = AlgebraParams(2, 3)
P22 = AlgebraParams(2, 2)
P43 = AlgebraParams(4, 3)


def is_module_map(f, m1, m2):
    return f.mul(m1.A) == m2.A.mul(f) and f.mul(m1.B) == m2.B.mul(f)


# -- graph maps ------------------------------------------------------------

def graph_map_matrix(f, src, tgt):
    """The (|tgt|+1) x (|src|+1) 0/1 matrix of the graph map f = (s, q, L):
    ones at (q+i, s+i) for i = 0..L."""
    s, q, length = f
    rows = [{} for _ in range(len(tgt) + 1)]
    for i in range(length + 1):
        rows[q + i][s + i] = 1
    return RationalMatrix(rows, len(src) + 1)


def flat_ones(m):
    """The flattened row-major positions of the nonzero entries of m."""
    return frozenset(t * m.ncols + s for t, row in enumerate(m.rows) for s in row)


def test_graph_map_matrix_shape():
    src, tgt = Word("xxy", P33), Word("xyxx", P33)
    basis = admissible_pairs(src, tgt)
    # factor window (1, "x") of xxy against substring window (2, "x") of xyxx
    assert (1, 2, 1) in basis
    # factor window (2, "") against substring window (0, ""): the top of
    # M(xxy) onto e_0
    assert (2, 0, 0) in basis
    m = graph_map_matrix((1, 2, 1), src, tgt)
    assert (m.nrows, m.ncols) == (5, 4)
    assert m.dense()[2][1] == 1 and m.dense()[3][2] == 1
    assert sum(1 for row in m.dense() for v in row if v) == 2


def test_graph_map_matrices_store_ints():
    for src in enumerate_words(4, P33):
        for tgt in enumerate_words(4, P33):
            for f in admissible_pairs(src, tgt):
                m = graph_map_matrix(f, src, tgt)
                assert all(type(v) is int for row in m.dense() for v in row)


def test_graph_maps_are_module_maps():
    words = enumerate_words(4, P33)
    for w1, w2 in itertools.product(words, repeat=2):
        m1, m2 = string_module(w1), string_module(w2)
        for f in admissible_pairs(w1, w2):
            assert is_module_map(graph_map_matrix(f, w1, w2), m1, m2)


def test_graph_maps_linearly_independent():
    # the flattened basis maps span a space of dimension dim Hom by the
    # oracle: independent module maps, as many as Hom has dimensions
    for params in (P33, P23, P43):
        words = enumerate_words(4, params)
        for w1, w2 in itertools.product(words, repeat=2):
            dim_w1 = len(w1) + 1
            flat = [dict.fromkeys(flat_ones(graph_map_matrix(f, w1, w2)), 1)
                    for f in admissible_pairs(w1, w2)]
            rank = RationalMatrix(flat, (len(w2) + 1) * dim_w1).rank()
            assert rank == hom_dim_oracle(string_module(w1), string_module(w2)), (w1, w2)


# -- the two hom routes agree ----------------------------------------------

def test_hom_routes_agree_33():
    words = enumerate_words(4, P33)
    for w1, w2 in itertools.product(words, repeat=2):
        g = hom_dim_graph(w1, w2)
        assert g == hom_dim_oracle(string_module(w1), string_module(w2))


def test_hom_routes_agree_other_params():
    for params in (P23, AlgebraParams(4, 3)):
        words = enumerate_words(3, params)
        for w1, w2 in itertools.product(words, repeat=2):
            m1, m2 = string_module(w1), string_module(w2)
            g = hom_dim_graph(w1, w2)
            assert g == hom_dim_oracle(m1, m2, method="unionfind")
            assert g == hom_dim_oracle(m1, m2, method="dense")


def test_hom_count_matches_pair_list():
    # the memoized count, the table's join on middle words and the
    # graph-map list that the tests expand must not drift apart: every
    # ordered pair of the full hom-agreement range, so each pair in both
    # argument orders
    pairs = 0
    for params in (P33, P23, P43):
        words = enumerate_words(6, params)
        table = hom_table(words, words)
        for (i, s), (j, t) in itertools.product(enumerate(words), repeat=2):
            count = len(admissible_pairs(s, t))
            assert homalg._hom_count(str(s), str(t)) == count, (str(s), str(t))
            assert table[i][j] == count, (str(s), str(t))
            pairs += 1
    assert pairs == 12_075


def test_hom_table_rows_by_source():
    # a non-square table: one row per source, one column per target, the
    # values those of the oracle on the string modules
    sources = [Word(t, P33) for t in ("", "xxy", "yx")]
    targets = [Word(t, P33) for t in ("xy", "xxyy")]
    assert hom_table(sources, targets) == [[2, 2], [3, 4], [4, 4]]
    assert [[hom_dim_oracle(string_module(s), string_module(t)) for t in targets]
            for s in sources] == [[2, 2], [3, 4], [4, 4]]
    assert hom_table(sources, []) == [[], [], []]
    assert hom_table([], targets) == []
    # the count would read the texts alone; words of two algebras are
    # refused as hom_dim_graph refuses them
    with pytest.raises(ValueError, match="one algebra"):
        hom_table(sources, [Word("xy", P23)])
    with pytest.raises(ValueError, match="one algebra"):
        hom_table([Word("xy", P33), Word("xy", P23)], targets)


def conjugate(mod, perm):
    """P M P^-1 for the permutation matrix P sending e_i to e_perm[i]."""
    def move(mat):
        rows = [{} for _ in range(mod.n)]
        for i, row in enumerate(mat.rows):
            rows[perm[i]] = {perm[j]: v for j, v in row.items()}
        return RationalMatrix(rows, mod.n)
    return MatrixPairModule(mod.n, move(mod.A), move(mod.B), mod.params)


def random_words(rng, params):
    words = enumerate_words(6, params)
    return [rng.choice(words) for _ in range(rng.randint(1, 4))]


def test_unionfind_equals_dense_on_string_sums():
    m1 = direct_sum([string_module(Word("xxy", P33)), string_module(Word("xy", P33))])
    m2 = direct_sum([string_module(Word("xxyy", P33)), string_module(Word("y", P33))])
    assert hom_dim_oracle(m1, m2, method="unionfind") == hom_dim_oracle(
        m1, m2, method="dense"
    )
    # and the pairwise graph counts give the same number
    total = sum(
        hom_dim_graph(u, v)
        for u in (Word("xxy", P33), Word("xy", P33))
        for v in (Word("xxyy", P33), Word("y", P33))
    )
    assert total == hom_dim_oracle(m1, m2)
    # a seeded sample of sums, n1 != n2 included, one side conjugated by
    # a permutation so that its ones leave the diagonal blocks
    rng = random.Random(7)
    sizes = set()
    for _ in range(40):
        params = rng.choice([P33, P23, AlgebraParams(4, 3)])
        u, v = random_words(rng, params), random_words(rng, params)
        m1 = direct_sum([string_module(w) for w in u])
        m2 = direct_sum([string_module(w) for w in v])
        m2 = conjugate(m2, rng.sample(range(m2.n), m2.n))
        total = sum(hom_dim_graph(s, t) for s in u for t in v)
        assert hom_dim_oracle(m1, m2, method="unionfind") == total, (u, v)
        assert hom_dim_oracle(m2, m1, method="unionfind") == sum(
            hom_dim_graph(t, s) for s in u for t in v), (u, v)
        assert hom_dim_oracle(m1, m2, method="dense") == total, (u, v)
        sizes.add(m1.n == m2.n)
    assert sizes == {True, False}


def band_words(params, max_len):
    """The primitive bands of length <= max_len in canonical rotation."""
    return sorted({band_class(w)[1] for w in enumerate_words(max_len, params)
                   if band_class(w)[0] == "primitive"})


def test_unionfind_equals_dense_with_bands():
    # a one-layer band with lambda = 1 is a partial permutation whose
    # arrow graph has a cycle: seeded sums mixing such bands with strings,
    # n1 != n2 included, one side conjugated by a permutation, both
    # argument orders.  As sources they take the automatic route, which
    # must equal elimination, and the forced entry-class count refuses
    # them; as targets of a conjugated string sum (a forest source) the
    # forced count must equal elimination
    rng, strings_rng = random.Random(11), random.Random(12)
    sizes = set()
    for _ in range(40):
        params = rng.choice([P33, P23, P43])
        bands = band_words(params, 5)
        sides = []
        for _ in range(2):
            parts = [band_module(rng.choice(bands), [1])
                     for _ in range(rng.randint(1, 2))]
            parts += [string_module(w) for w in random_words(rng, params)[:2]]
            rng.shuffle(parts)
            sides.append(direct_sum(parts))
        m1, m2 = sides
        m2 = conjugate(m2, rng.sample(range(m2.n), m2.n))
        for u, v in ((m1, m2), (m2, m1), (m1, m1), (m2, m2)):
            assert hom_dim_oracle(u, v) == hom_dim_oracle(
                u, v, method="dense"), (u.to_json(), v.to_json())
            with pytest.raises(ValueError, match="forest"):
                hom_dim_oracle(u, v, method="unionfind")
        src = shuffled(strings_rng, direct_sum(
            [string_module(w) for w in random_words(strings_rng, params)]))
        for v in (m1, m2, src):
            assert hom_dim_oracle(src, v, method="unionfind") == hom_dim_oracle(
                src, v, method="dense"), (src.to_json(), v.to_json())
        sizes.add(m1.n == m2.n)
    assert sizes == {True, False}


def test_oracle_table_equals_the_pairwise_oracle():
    # sources and targets of mixed sizes, not the same list: strings,
    # one-layer bands with lambda = 1, a direct sum and a permutation
    # conjugate; each row with a string source is one pass of the
    # entry-class count against the targets' direct sum, each row with a
    # band (a cycle) is filled pair by pair, and every row must be the
    # row of the per-pair oracle by either route, and sum to the oracle
    # against that direct sum
    strings = [string_module(Word(t, P33)) for t in ("", "xxy", "yx", "xxyxyy")]
    bands = [band_module(Word(t, P33), [1]) for t in ("xy", "xxyy")]
    mixed = direct_sum([strings[1], bands[0]])
    conj = direct_sum([strings[2], bands[1]])
    conj = conjugate(conj, random.Random(3).sample(range(conj.n), conj.n))
    sources = [strings[0], bands[1], mixed, conj, strings[3]]
    targets = [strings[1], bands[0], conj, strings[2], mixed, strings[0]]
    table = homalg.hom_oracle_table(sources, targets)
    for method in (None, "dense"):
        assert table == [[hom_dim_oracle(u, v, method=method) for v in targets]
                         for u in sources]
    assert [table[0], table[4]] == [[hom_dim_oracle(u, v, method="unionfind")
                                     for v in targets] for u in (strings[0], strings[3])]
    assert [sum(row) for row in table] == [
        hom_dim_oracle(u, direct_sum(targets), method="dense") for u in sources]
    # a band with lambda = 2 is no partial permutation: the table falls
    # back to the per-pair oracle, dense on that band's column
    targets.append(band_module(Word("xxy", P33), [2]))
    assert homalg.hom_oracle_table(sources, targets) == [
        [hom_dim_oracle(u, v, method="dense") for v in targets] for u in sources]
    assert homalg.hom_oracle_table(targets[-1:], sources) == [
        [hom_dim_oracle(targets[-1], v, method="dense") for v in sources]]
    # the shapes of hom_table, and one algebra only
    assert homalg.hom_oracle_table(sources, []) == [[]] * len(sources)
    assert homalg.hom_oracle_table([], targets) == []
    with pytest.raises(ValueError, match="one algebra"):
        homalg.hom_oracle_table(sources, [string_module(Word("xy", P23))])


def shuffled(rng, mod):
    """mod conjugated by a random permutation: its ones leave the diagonal
    blocks and the offsets column - row of one letter scatter."""
    return conjugate(mod, rng.sample(range(mod.n), mod.n))


def test_entry_class_count_equals_elimination_on_seeded_pairs(monkeypatch):
    # sources: conjugated sums of 1-3 strings, whose arrow graph is a
    # forest in any basis order; targets: conjugated sums mixing strings
    # and one-layer bands with lambda = 1.  Every pair by the forced
    # entry-class count against elimination, and every row of
    # hom_oracle_table; its last source, a conjugated band, has a cycle,
    # and that row alone is filled pair by pair
    per_pair = []
    monkeypatch.setattr(homalg, "hom_dim_oracle", lambda u, v, method=None: (
        per_pair.append((u, v)) or hom_dim_oracle(u, v, method)))
    rng = random.Random(2031)
    pairs = 0
    for params in (P22, P23, P33, P43):
        strings = enumerate_words(3, params)
        bands = band_words(params, 4)
        for _ in range(42):
            sources = [shuffled(rng, direct_sum([string_module(rng.choice(strings))
                                                 for _ in range(rng.randint(1, 3))]))
                       for _ in range(3)]
            targets = []
            for _ in range(4):
                parts = [string_module(rng.choice(strings))
                         for _ in range(rng.randint(0, 2))]
                parts += [band_module(rng.choice(bands), [1])
                          for _ in range(rng.randint(0 if parts else 1, 1))]
                rng.shuffle(parts)
                targets.append(shuffled(rng, direct_sum(parts)))
            dense = [[hom_dim_oracle(u, v, method="dense") for v in targets]
                     for u in sources]
            assert [[hom_dim_oracle(u, v, method="unionfind") for v in targets]
                    for u in sources] == dense, [u.to_json() for u in sources]
            band = shuffled(rng, band_module(rng.choice(bands), [1]))
            per_pair.clear()
            assert homalg.hom_oracle_table(sources + [band], targets) == dense + [
                [hom_dim_oracle(band, v, method="dense") for v in targets]]
            assert per_pair == [(band, v) for v in targets]
            pairs += len(sources) * len(targets)
    assert pairs == 2016


def test_entry_class_count_on_long_words():
    # strings of 200 to 400 letters, where a class runs along a diagonal
    # of about n1 entries, so the closure needs about n1 / 2 rounds (a
    # cap below that fails the first pair).  The ones of a letter of a
    # string share one offset, so each round is four big-int shifts; one
    # shift per one of the source costs the oracle side about 40 times
    # as much, and the CPU bound below lies between the two
    pairs = [("xy" * 100, "xy" * 100), ("xxy" * 100, "xyy" * 100),
             ("xyy" * 100, "xxy" * 100), ("xy" * 200, "xxyy" * 60),
             ("yx" * 150 + "y", "x" + "yx" * 150)]
    spent = 0
    for s, t in pairs:
        u, v = Word(s, P33), Word(t, P33)
        m1, m2 = string_module(u), string_module(v)
        start = time.process_time()
        oracle = hom_dim_oracle(m1, m2)
        spent += time.process_time() - start
        assert oracle == hom_dim_graph(u, v), (s, t)
    assert spent < 0.5


def test_parent_bits_span_a_forest_or_refuse_a_cycle():
    # M(xxy): e_0 <-x- e_1 <-x- e_2 -y-> e_3, one tree rooted at e_0; e_1
    # is the column of the x-one (0, 1) to its parent (bit 4), e_2 the
    # column of (1, 2) (bit 4), e_3 the row of the y-one (3, 2) (bit 2)
    parent_bits = modmatrix._parent_bits
    maps = string_module(Word("xxy", P33)).permutation_maps()
    assert parent_bits(maps[0], 4) == bytes([0, 4, 4, 2])
    # two simples: two roots; the band xy with lambda = 1: two edges on
    # two vertices, a cycle
    assert parent_bits(([], []), 2) == bytes(2)
    band = band_module(Word("xy", P33), [1])
    assert parent_bits(band.permutation_maps()[0], 2) is None
    # a cycle beside a tree is refused too
    both = direct_sum([string_module(Word("xy", P33)), band])
    assert parent_bits(both.permutation_maps()[0], 5) is None


def test_unionfind_forced_zeros_and_merges():
    # each rule of the route changes one of these: Hom(S, M(x)) is the
    # socle, a map into e_1 would leave it by x (an arrow out of the
    # target vertex, none out of the source); Hom(M(x), S) is the top,
    # e_0 is reached by x in M(x) and not in S (an arrow into the source
    # vertex, none into the target); End M(x) = K[x]/x^2 needs the merge
    # F[0, 0] = F[1, 1] from the two x-arrows
    simple, mx = string_module(Word("", P33)), string_module(Word("x", P33))
    my = string_module(Word("y", P33))
    assert hom_dim_oracle(simple, mx, method="unionfind") == 1
    assert hom_dim_oracle(mx, simple, method="unionfind") == 1
    assert hom_dim_oracle(mx, mx, method="unionfind") == 2
    assert hom_dim_oracle(my, my, method="unionfind") == 2
    # letters stay apart: M(x) -> M(y) only through the top onto the socle
    assert hom_dim_oracle(mx, my, method="unionfind") == 1
    # the one-layer band on xy with lambda = 1: x and y both send e_1 to
    # e_0, a cycle in its arrow graph; End is spanned by the identity and
    # e_1 -> e_0.  The count refuses it as a source, and the automatic
    # route eliminates; as a target it is counted
    band = band_module(Word("xy", P33), [1])
    assert band.permutation_maps()[1] == bytes([1 | 2, 4 | 8])
    assert hom_dim_oracle(band, band) == 2
    with pytest.raises(ValueError, match="forest"):
        hom_dim_oracle(band, band, method="unionfind")
    assert hom_dim_oracle(mx, band, method="unionfind") == 1
    assert hom_dim_oracle(string_module(Word("xy", P33)), band,
                          method="unionfind") == 2


def test_partial_permutation_ones_edge_cases():
    ones = modmatrix._partial_permutation_ones

    def as_letters(mat):
        # permutation_maps of the module with mat as x, then as y, the
        # other letter zero
        zero = RationalMatrix([{} for _ in range(mat.nrows)], mat.ncols)
        return tuple(MatrixPairModule(mat.nrows, a, b, P33).permutation_maps()
                     for a, b in ((mat, zero), (zero, mat)))

    # (row, col) of the ones, by row; masks: 1/2 an x/y-arrow into the
    # vertex (its row has a one), 4/8 one out of it (its column has one)
    swap = RationalMatrix([{2: 1}, {}, {0: 1}], 3)
    assert ones(swap) == [(0, 2), (2, 0)]
    assert as_letters(swap) == ((([(0, 2), (2, 0)], []), bytes([5, 0, 5])),
                           (([], [(0, 2), (2, 0)]), bytes([10, 0, 10])))
    shift = RationalMatrix([{1: 1}, {2: 1}, {}], 3)
    assert ones(shift) == [(0, 1), (1, 2)]
    assert as_letters(shift) == ((([(0, 1), (1, 2)], []), bytes([1, 5, 4])),
                            (([], [(0, 1), (1, 2)]), bytes([2, 10, 8])))
    for bad in ([{1: 2}, {}],          # an entry 2
                [{1: 1}, {1: 1}],      # a repeated column
                [{0: 1, 1: 1}, {}]):   # two ones in a row
        assert ones(RationalMatrix(bad, 2)) is None
        assert as_letters(RationalMatrix(bad, 2)) == (None, None)
    zero = RationalMatrix([{}, {}, {}], 3)
    assert ones(zero) == []
    assert as_letters(zero) == ((([], []), bytes(3)),) * 2
    # a string module: M(xxy) has A e_1 = e_0, A e_2 = e_1, B e_2 = e_3
    assert string_module(Word("xxy", P33)).permutation_maps() == (
        ([(0, 1), (1, 2)], [(3, 2)]), bytes([1, 5, 4 | 8, 2]))
    # all-zero modules: every F is a homomorphism
    m1 = direct_sum([string_module(Word("", P33))] * 2)
    m2 = direct_sum([string_module(Word("", P33))] * 3)
    assert hom_dim_oracle(m1, m2, method="unionfind") == 6


def test_unionfind_refuses_nonpermutation():
    band = band_module(Word("xxy", P33), [2])
    with pytest.raises(ValueError):
        hom_dim_oracle(band, band, method="unionfind")
    with pytest.raises(ValueError):
        hom_dim_oracle(band, band, method="gauss")


def test_oracle_checks_the_route_once(monkeypatch):
    calls = []
    real = modmatrix._partial_permutation_ones
    monkeypatch.setattr(modmatrix, "_partial_permutation_ones",
                        lambda mat: calls.append(mat) or real(mat))
    m1, m2 = string_module(Word("xxy", P33)), string_module(Word("xyy", P33))
    assert calls == []  # building a module scans nothing
    for _ in range(3):
        assert hom_dim_oracle(m1, m2) == hom_dim_graph(
            Word("xxy", P33), Word("xyy", P33))
        assert hom_dim_oracle(m2, m1) == hom_dim_graph(
            Word("xyy", P33), Word("xxy", P33))
        assert hom_dim_oracle(m1, m1, method="unionfind") == end_dim(
            [Word("xxy", P33)])
    # each module's A and B read once in all, not four scans per call
    assert len(calls) == 4
    assert {id(mat) for mat in calls} == {id(m1.A), id(m1.B), id(m2.A), id(m2.B)}
    # a band is no partial permutation: the cached None sends every later
    # automatic call to elimination and every forced entry-class count to
    # the error, with no further scan
    calls.clear()
    band = band_module(Word("xxy", P33), [2])
    dense = hom_dim_oracle(band, band, method="dense")
    assert calls == []
    for _ in range(2):
        assert hom_dim_oracle(band, band) == dense
        with pytest.raises(ValueError):
            hom_dim_oracle(band, band, method="unionfind")
    assert 1 <= len(calls) <= 2
    assert band.permutation_maps() is None


def test_hom_from_free_module_is_dimension():
    # Hom(Lambda, M) = M for any module M
    lam = Word("xxyy", P33)
    for w in enumerate_words(5, P33):
        assert hom_dim_graph(lam, w) == len(w) + 1
    lam22 = Word("xy", P22)
    for w in enumerate_words(5, P22):
        assert hom_dim_graph(lam22, w) == len(w) + 1


def test_hom_duality():
    # Hom(M(C), M(D)) = Hom(M(rev D), M(rev C))
    words = enumerate_words(4, P33)
    for w1, w2 in itertools.product(words, repeat=2):
        assert hom_dim_graph(w1, w2) == hom_dim_graph(w2.reverse(), w1.reverse())


# -- End and orbit dimensions ----------------------------------------------

def words_of(*texts, params=P33):
    return [Word(t, params) for t in texts]


def test_end_dims_strings():
    assert end_dim(words_of("xxy")) == 4
    assert end_dim(words_of("")) == 1
    assert end_dim(words_of("xxyy")) == 5  # End(Lambda) = Lambda


def test_end_dim_needs_words_over_one_algebra():
    with pytest.raises(ValueError):
        end_dim([])
    with pytest.raises(ValueError):
        end_dim([Word("xy", P33), Word("xy", P23)])


def test_end_dim_matches_oracle_on_string_sums():
    # the graph-count End of a string sum against the linear-algebra End
    # of its explicit block-diagonal realization
    for params in (P33, P23):
        words = enumerate_words(4, params)
        for k in (1, 2):
            for summands in itertools.combinations_with_replacement(words, k):
                m = direct_sum([string_module(w) for w in summands])
                assert end_dim(list(summands)) == hom_dim_oracle(m, m), summands


def test_end_dim_band_values():
    # one-layer band on x^c y^d is cyclic, so End = Lambda/ann has
    # dimension c + d; across distinct lambdas the homs drop by one
    band = band_module(Word("xxy", P33), [2])
    assert hom_dim_oracle(band, band) == 3
    band = band_module(Word("xxyy", P33), [5])
    assert hom_dim_oracle(band, band) == 4
    one, two = band_module(Word("xxy", P33), [1]), band_module(Word("xxy", P33), [2])
    assert hom_dim_oracle(one, two) == 2
    assert hom_dim_oracle(two, one) == 2
    both = direct_sum([one, two])
    assert hom_dim_oracle(both, both) == 3 + 3 + 2 + 2


def test_band_layering_vs_split_end():
    # M(w; l, l') with distinct lambdas is isomorphic to the direct sum,
    # so End agrees; the layered realization is not block diagonal, which
    # also exercises the dense route
    layered = band_module(Word("xxyy", P33), [1, 2])
    split = direct_sum([band_module(Word("xxyy", P33), [1]), band_module(Word("xxyy", P33), [2])])
    assert hom_dim_oracle(layered, layered) == hom_dim_oracle(split, split)


def test_orbit_dim_examples():
    # M(xy) at (2,2): End = Lambda has dim 3, so the orbit in the n = 3
    # variety has dimension 9 - 3 = 6; its reversal matches it
    assert end_dim(words_of("xy", params=P22)) == 3
    assert orbit_dim(words_of("xy", params=P22)) == 6
    assert orbit_dim(words_of("yx", params=P22)) == 6
    # the zero point (n = 1 simple) has a point orbit
    assert orbit_dim(words_of("")) == 0
    # n counts every summand: End {xy, xy} = 12 in dimension 6
    assert orbit_dim(words_of("xy", "xy")) == 36 - 12


def test_orbit_dim_figure_row():
    # frozen from the n = 5 component table: the open orbit of
    # M(xxyy) + M(xy)-family support etc. -- here just the plain string
    assert orbit_dim(words_of("xxyy")) == 20


# -- projective covers -----------------------------------------------------

COVER_PARAMS = [AlgebraParams(a, b) for a, b in
                ((2, 2), (2, 3), (3, 2), (3, 3), (4, 3), (3, 4), (4, 4))]


def _position(col):
    """The one row of a column holding 1, or None for a zero column."""
    support = [r for r, row in enumerate(col.rows) if row]
    if not support:
        return None
    assert len(support) == 1 and col.rows[support[0]] == {0: 1}
    return support[0]


def beside(mats):
    """The matrix [M_1 | M_2 | ...] of matrices with equal row counts."""
    rows = [{} for _ in range(mats[0].nrows)]
    off = 0
    for mat in mats:
        for row, part in zip(rows, mat.rows):
            row.update((off + j, v) for j, v in part.items())
        off += mat.ncols
    return RationalMatrix(rows, off)


def generic_cover(mod):
    """The projective cover by linear algebra alone, as the reference:
    the top is the greedy complement of im A + im B by standard vectors
    v (the identity columns that are pivots of [A | B | I]), and the
    Lambda summand of v sends z_j to A^{a-j} v (j = 1..a) and z_{a+l} to
    B^l v (l = 1..b-1).  Returns each summand's columns as positions."""
    n, (a, b) = mod.n, mod.params
    identity = RationalMatrix([{i: 1} for i in range(n)], n)
    aug = beside([mod.A, mod.B, identity])
    out = []
    for c in pivot_columns(aug):
        if c < 2 * n:
            continue
        v = RationalMatrix([{0: 1} if r == c - 2 * n else {}
                            for r in range(n)], 1)
        xs = [v]
        for _ in range(a - 1):
            xs.append(mod.A.mul(xs[-1]))
        ys = [v]
        for _ in range(b - 1):
            ys.append(mod.B.mul(ys[-1]))
        out.append([_position(col) for col in xs[::-1] + ys[1:]])
    return out


def lambda_word(params):
    return Word("x" * (params.a - 1) + "y" * (params.b - 1), params)


def cover_matrices(c):
    """Each summand of projective_cover(c) as its (|c|+1) x d matrix."""
    lam = lambda_word(c.params)
    return [graph_map_matrix(g, lam, c) for g in projective_cover(c)]


def cover_images(c):
    """projective_cover(c) in generic_cover's form: per summand, the
    images of z_1..z_d as positions of M(c), None for zero."""
    return [[next((r for r, row in enumerate(m.rows) if t in row), None)
             for t in range(m.ncols)] for m in cover_matrices(c)]


def test_projective_cover_matches_generic_cover():
    for params in COVER_PARAMS:
        for c in enumerate_words(8, params):
            generic = generic_cover(string_module(c))
            assert cover_images(c) == generic, str(c)
            assert positional_cover(c) == generic, str(c)


def test_projective_cover_properties():
    # a surjective module map Lambda^t -> M(c), t = dim top
    for params in COVER_PARAMS:
        lam = string_module(lambda_word(params))
        for c in enumerate_words(8, params):
            m = string_module(c)
            t = m.stats()["top_dim"]
            assert len(projective_cover(c)) == t
            # each summand is a graph map Lambda -> M(c)
            assert set(projective_cover(c)) <= set(
                admissible_pairs(lambda_word(params), c)), str(c)
            phi = beside(cover_matrices(c))
            assert phi.rank() == m.n
            assert is_module_map(phi, direct_sum([lam] * t), m), str(c)


def test_projective_cover_of_projective_is_identity_like():
    assert projective_cover(Word("xxyy", P33)) == [(0, 0, 4)]
    assert cover_images(Word("xxyy", P33)) == [[0, 1, 2, 3, 4]]
    assert projective_cover(Word("xy", P22)) == [(0, 0, 2)]
    assert cover_images(Word("xy", P22)) == [[0, 1, 2]]
    # peaks 1 and 3 of xyx: each reaches one x to its left, and the
    # first one y to its right
    assert projective_cover(Word("xyx", P33)) == [(1, 0, 2), (1, 2, 1)]
    assert cover_images(Word("xyx", P33)) == [[None, 0, 1, 2, None],
                                              [None, 2, 3, None, None]]


# -- syzygies --------------------------------------------------------------

def test_syzygy_frozen_cases():
    for params in COVER_PARAMS:
        a, b = params
        # Lambda is projective; the simple module's syzygy is rad Lambda
        assert syzygy(lambda_word(params)) == []
        assert syzygy(Word("", params)) == ["x" * (a - 2), "y" * (b - 2)]
    # peaks 1 and 3 of xyx, each with one x to its left: the first arm's
    # unused end (the simple), the valley string between the peaks and
    # the last arm's unused end
    assert syzygy(Word("xyx", P33)) == ["", "xy", "y"]
    assert all(w.params == P33 for w in syzygy(Word("xyx", P33)))


def test_syzygy_dimension():
    # 0 -> Omega M(c) -> Lambda^p -> M(c) -> 0 is exact, p = dim top
    for params in COVER_PARAMS:
        for c in enumerate_words(8, params):
            p = len(projective_cover(c))
            assert sum(len(w) + 1 for w in syzygy(c)) == p * params.d - (len(c) + 1), str(c)


def syzygy_ext1_dim(c, d):
    """dim Ext^1(M(c), M(d)) = dim Hom(Omega M(c), M(d)) - p dim M(d)
    + dim Hom(M(c), M(d)), by graph counts."""
    p = len(projective_cover(c))
    return (sum(hom_dim_graph(w, d) for w in syzygy(c)) - p * (len(d) + 1)
            + hom_dim_graph(c, d))


# -- Ext^1 -----------------------------------------------------------------

def test_ext1_frozen_cases():
    xxyy = Word("xxyy", P33)
    assert ext1_vanishes(xxyy, xxyy)
    # the type-3 open string with self-extensions
    w = Word("xxyxyxyy", P33)
    assert not ext1_vanishes(w, w)
    # the n = 12 two-string component: both directions vanish
    c1, c2 = Word("xxyy", P33), Word("xxyxyy", P33)
    assert ext1_vanishes(c1, c2)
    assert ext1_vanishes(c2, c1)


def test_ext1_self_dichotomy_for_open_strings():
    # self-extensions of an open string vanish exactly for type 1
    for dim in range(2, 13):
        for w in enumerate_open_strings(dim, P33):
            side, t = open_type(w)
            assert ext1_vanishes(w, w) == (t == 1), str(w)


def test_ext1_from_projective_vanishes():
    lam = Word("xxyy", P33)
    for d_text in ("xxyy", "xxyxyy", "xxyxyxyy"):
        assert ext1_vanishes(lam, Word(d_text, P33))


def ext1_dim_cocycle(m, n):
    """dim Ext^1(m, n) from the extensions of m by n, as the reference.

    An extension 0 -> n -> E -> m -> 0 puts the blocks X (for A) and Y
    (for B) above the diagonal of E's matrices; it is a module iff

        A_n Y + X B_m = 0,                  B_n X + Y A_m = 0,
        sum_k A_n^k X A_m^{a-1-k} = 0,      sum_k B_n^k Y B_m^{b-1-k} = 0.

    Those (X, Y) are the cocycles Z^1.  The coboundaries are the images
    of F -> (A_n F - F A_m, B_n F - F B_m), whose kernel is Hom(m, n); so
    dim Ext^1 = dim Z^1 - (n_m n_n - dim Hom(m, n)).  No word, graph map
    or projective cover enters.
    """
    a, b = m.params
    cells = m.n * n.n  # X, Y are n.n x m.n, flattened row-major

    def power(mat, k):
        out = RationalMatrix([{i: 1} for i in range(mat.nrows)], mat.nrows)
        for _ in range(k):
            out = out.mul(mat)
        return out

    one_m, one_n = power(m.A, 0), power(n.A, 0)
    # each equation as its terms (P, Q, block): P X Q for block 0, P Y Q for 1
    equations = [
        [(one_n, m.B, 0), (n.A, one_m, 1)],
        [(n.B, one_m, 0), (one_n, m.A, 1)],
        [(power(n.A, k), power(m.A, a - 1 - k), 0) for k in range(a)],
        [(power(n.B, k), power(m.B, b - 1 - k), 1) for k in range(b)],
    ]
    rows = []
    for terms in equations:
        eq = [{} for _ in range(cells)]
        for p, q, block in terms:
            for i, prow in enumerate(p.rows):
                for s, u in prow.items():
                    for t, qrow in enumerate(q.rows):
                        for j, v in qrow.items():
                            # (P X Q)[i, j] gains P[i, s] X[s, t] Q[t, j]
                            cell, var = eq[i * m.n + j], block * cells + s * m.n + t
                            cell[var] = cell.get(var, 0) + u * v
        rows.extend({k: v for k, v in cell.items() if v} for cell in eq)
    cocycles = 2 * cells - RationalMatrix(rows, 2 * cells).rank()
    return cocycles - (cells - hom_dim_oracle(m, n))


def test_ext1_dim_cocycle_known_values():
    lam, simple = string_module(Word("xxyy", P33)), string_module(Word("", P33))
    # Lambda is projective: nothing extends it
    for w in ("", "xy", "xxyxyy"):
        assert ext1_dim_cocycle(lam, string_module(Word(w, P33))) == 0
    # 0 -> S -> M(x) -> S -> 0 and its y twin span Ext^1(S, S)
    assert ext1_dim_cocycle(simple, simple) == 2
    # from 0 -> rad -> Lambda -> S -> 0 with rad = M(x) + M(y):
    # Ext^1(S, Lambda) = Hom(rad, Lambda) / Lambda|rad = (3 + 3) - (5 - 2)
    assert ext1_dim_cocycle(simple, lam) == 3


# every ordered pair of words up to a length per algebra, the empty word
# included, as (a, b) -> length: 6,430 pairs
EXT_GRID = {(3, 3): 5, (4, 3): 5, (2, 3): 6, (2, 2): 6, (3, 5): 4, (4, 4): 4}


def test_ext1_matches_cocycle_dimension():
    # the syzygy count as a dimension, not only as a verdict; where the
    # target is semi-projective the Auslander-Reiten reference below must
    # give the same dimension
    pairs = vanishing = semi = 0
    for (a, b), max_len in EXT_GRID.items():
        words = enumerate_words(max_len, AlgebraParams(a, b))
        modules = [string_module(w) for w in words]
        for (c, mc), (d, md) in itertools.product(zip(words, modules), repeat=2):
            dim = ext1_dim_cocycle(mc, md)
            assert syzygy_ext1_dim(c, d) == dim, (str(c), str(d), c.params)
            assert ext1_vanishes(c, d) == (dim == 0), (str(c), str(d), c.params)
            if semi_kind(d) == "semi-projective":
                assert ar_ext1_dim(c, d) == dim, (str(c), str(d), c.params)
                semi += 1
            pairs += 1
            vanishing += dim == 0
    assert (pairs, vanishing, semi) == (6430, 520, 218)


def test_ext1_answers_any_target():
    # targets that are not semi-projective, where tau^{-1} is no word
    for c_text, d_text in (("xxyy", "xy"), ("xy", "yx"), ("yx", "xy"), ("", ""),
                           ("xyx", "yxy")):
        c, d = Word(c_text, P33), Word(d_text, P33)
        assert semi_kind(d) != "semi-projective"
        dim = ext1_dim_cocycle(string_module(c), string_module(d))
        assert ext1_vanishes(c, d) == (dim == 0), (c_text, d_text)
    # Lambda is projective; M(xy) -> M(yx) extends non-trivially
    assert ext1_vanishes(Word("xxyy", P33), Word("xy", P33))
    assert not ext1_vanishes(Word("xy", P33), Word("yx", P33))


def test_ext1_rejects_mixed_params():
    with pytest.raises(ValueError, match="same algebra"):
        ext1_vanishes(Word("xy", P33), Word("xy", P23))


# -- the Auslander-Reiten reference ----------------------------------------
#
# The former Ext route, kept as the reference at large n: Ext^1(M(c), M(d))
# is dual to Hom(M(tau^{-1} d), M(c)) modulo the maps that factor through
# a projective, which are those through the projective cover of M(c).
# These are spanned by the compositions of the graph maps tau^{-1} d ->
# Lambda with the cover summands, each zero or itself a graph map
# tau^{-1} d -> c; graph maps are a basis of Hom, so the distinct nonzero
# compositions are independent and Hom minus their number is dim Ext^1.
# It needs tau^{-1} d to be a word, so d semi-projective.

def semi_kind(w):
    """"semi-projective" (|w| >= a+b-2, w starts with x^{a-1} and ends
    with y^{b-1}), "semi-injective" (the mirror), or None.  The two
    exclude each other -- the first letter already differs -- and the
    empty word is neither."""
    a, b = w.params
    if len(w) >= a + b - 2:
        if w[: a - 1] == "x" * (a - 1) and w[len(w) - (b - 1):] == "y" * (b - 1):
            return "semi-projective"
        if w[: b - 1] == "y" * (b - 1) and w[len(w) - (a - 1):] == "x" * (a - 1):
            return "semi-injective"
    return None


def tau_inverse(w):
    """The inverse Auslander-Reiten translate of a semi-projective word
    (such string modules are never injective), by wrapping:
    tau^{-1} w = x^{a-1} y w x y^{b-1}."""
    if semi_kind(w) != "semi-projective":
        raise ValueError(f"tau_inverse needs a semi-projective word, got {str(w)!r}")
    a, b = w.params
    return Word("x" * (a - 1) + "y" + w + "x" + "y" * (b - 1), w.params)


def compose(f, g):
    """The graph map g after f, or None when it is zero: the identity on
    the overlap of f's target window and g's source window."""
    (s1, q1, l1), (s2, q2, l2) = f, g
    lo, hi = max(q1, s2), min(q1 + l1, s2 + l2)
    if lo > hi:
        return None
    return (lo - q1 + s1, lo - s2 + q2, hi - lo)


def cover_compositions(c, w):
    """The distinct nonzero maps M(w) -> M(c) through one graph map
    M(w) -> Lambda and one Lambda summand of the projective cover of M(c),
    as graph maps M(w) -> M(c)."""
    lam = lambda_word(c.params)
    return {compose(f, g) for f in admissible_pairs(w, lam)
            for g in projective_cover(c)} - {None}


def ar_ext1_dim(c, d):
    """dim Ext^1(M(c), M(d)) for semi-projective d, by the reference."""
    w = tau_inverse(d)
    return hom_dim_graph(w, c) - len(cover_compositions(c, w))


def test_semi_kind():
    assert semi_kind(Word("xxyy", P33)) == "semi-projective"
    assert semi_kind(Word("yyxx", P33)) == "semi-injective"
    assert semi_kind(Word("xxyxyy", P33)) == "semi-projective"
    assert semi_kind(Word("xy", P33)) is None  # too short for (3,3)
    assert semi_kind(Word("", P33)) is None
    assert semi_kind(Word("xyxy", P33)) is None  # ends in one y only
    assert semi_kind(Word("xy", P22)) == "semi-projective"
    assert semi_kind(Word("yx", P22)) == "semi-injective"


def test_semi_kinds_mutually_exclusive_and_mirror():
    for w in enumerate_words(7, P33):
        k = semi_kind(w)
        kr = semi_kind(w.reverse())
        if k == "semi-projective":
            assert kr == "semi-injective"
        elif k == "semi-injective":
            assert kr == "semi-projective"
        else:
            assert kr is None


def test_tau_inverse():
    assert tau_inverse(Word("xxyy", P33)) == "xxyxxyyxyy"
    assert tau_inverse(Word("xy", P22)) == "xyxyxy"
    with pytest.raises(ValueError):
        tau_inverse(Word("xy", P33))
    with pytest.raises(ValueError):
        tau_inverse(Word("yyxx", P33))
    # tau-inverse of a semi-projective word is again semi-projective
    for w in enumerate_open_strings(5, P33) + enumerate_open_strings(8, P33):
        assert semi_kind(tau_inverse(w)) == "semi-projective"


def test_reference_matches_syzygy_dimension():
    # every word up to length 7 against every semi-projective one over
    # three algebras, and the open strings of dimension <= 10 at (3, 3)
    # both ways: the premise of the count (every cover composition is a
    # graph map tau^{-1} d -> c), its dimension against the syzygy's, and
    # the compositions against the positional encoding
    pairs = []
    for params in (P33, P23, P43):
        words = enumerate_words(7, params)
        semi = [d for d in words if semi_kind(d) == "semi-projective"]
        pairs.extend(itertools.product(words, semi))
    opens = [w for dim in range(2, 11) for w in enumerate_open_strings(dim, P33)]
    pairs.extend(itertools.product(opens, repeat=2))
    for c, d in pairs:
        w = tau_inverse(d)
        compositions = cover_compositions(c, w)
        assert compositions <= set(admissible_pairs(w, c)), (str(c), str(d), c.params)
        assert ar_ext1_dim(c, d) == syzygy_ext1_dim(c, d), (str(c), str(d), c.params)
        assert_compositions_match_positions(c, w)


def test_compose_cases():
    # f's target window [0, 1] misses g's source window [3, 4]
    assert compose((0, 0, 1), (3, 0, 1)) is None
    # windows [0, 2] and [2, 3] touch at 2: one vector survives
    assert compose((0, 0, 2), (2, 5, 1)) == (2, 5, 0)
    # g's window [2, 3] inside f's [1, 4], and f's [2, 3] inside g's [0, 4]
    assert compose((1, 1, 3), (2, 0, 1)) == (2, 0, 1)
    assert compose((0, 2, 1), (0, 1, 4)) == (0, 3, 1)


def test_compose_with_the_identity_of_lambda():
    for params in COVER_PARAMS:
        lam = lambda_word(params)
        identity = (0, 0, params.d - 1)
        assert identity in admissible_pairs(lam, lam)
        for w in enumerate_words(5, params):
            for f in admissible_pairs(w, lam):
                assert compose(f, identity) == f
            for g in projective_cover(w):
                assert compose(identity, g) == g


def test_compose_is_the_matrix_product():
    for params in (P33, P23, P43):
        lam = lambda_word(params)
        for w, c in itertools.product(enumerate_words(4, params), repeat=2):
            for f, g in itertools.product(admissible_pairs(w, lam), projective_cover(c)):
                product = graph_map_matrix(g, lam, c).mul(graph_map_matrix(f, w, lam))
                h = compose(f, g)
                if h is None:
                    assert not any(product.rows), (f, g)
                else:
                    assert product == graph_map_matrix(h, w, c), (f, g)


# the former encoding, kept as the reference for the cover compositions:
# a graph map as the (row, col) positions of its ones, a cover summand as
# the images of z_1..z_d with None for zero, a composition as the
# frozenset of its flattened row-major positions

def positional_hom_basis(src, tgt):
    return [[(q + i, s + i) for i in range(length + 1)]
            for s, q, length in admissible_pairs(src, tgt)]


def positional_cover(c):
    a, b = c.params
    cover = []
    for i in range(len(c) + 1):
        if c[i:i + 1] == "x" or c[i - 1:i] == "y":
            continue
        left = i - len(c[:i].rstrip("x"))
        right = len(c) - i - len(c[i:].lstrip("y"))
        cover.append([i - k if k <= left else None for k in range(a - 1, 0, -1)]
                     + [i] + [i + l if l <= right else None for l in range(1, b)])
    return cover


def positional_compositions(c, w):
    dim_w = len(w) + 1
    cover = positional_cover(c)
    maps = set()
    for ones in positional_hom_basis(w, lambda_word(c.params)):
        for images in cover:
            # a map's column s picks z_{t+1}; the cover sends it to images[t]
            composed = frozenset(images[t] * dim_w + s for t, s in ones
                                 if images[t] is not None)
            if composed:
                maps.add(composed)
    return maps


def assert_compositions_match_positions(c, w):
    expanded = {flat_ones(graph_map_matrix(h, w, c)) for h in cover_compositions(c, w)}
    assert expanded == positional_compositions(c, w), (str(c), str(w), c.params)


@pytest.mark.parametrize("n, a, b", [(24, 3, 3), (24, 4, 4), (24, 3, 5)])
def test_compositions_match_positions_on_classify_keys(monkeypatch, n, a, b):
    # every Ext key a cold classification reaches, with the verdict the
    # syzygy gave it: the reference must give the same verdict, and its
    # compositions must match the positional encoding
    verdicts = {}
    real = homalg._ext1_vanishes

    def recorded(*key):
        verdicts[key] = real(*key)
        return verdicts[key]

    monkeypatch.setattr(homalg, "_ext1_vanishes", recorded)
    real.cache_clear()
    components(n, a, b)
    monkeypatch.undo()
    real.cache_clear()
    assert verdicts
    params = AlgebraParams(a, b)
    for (c_text, d_text, *_), vanishes in verdicts.items():
        c, d = Word(c_text, params), Word(d_text, params)
        assert (ar_ext1_dim(c, d) == 0) == vanishes, (c_text, d_text)
        assert_compositions_match_positions(c, tau_inverse(d))


# -- hom order -------------------------------------------------------------

def test_hom_order_flip_example():
    # M(xxyy) + M(xy) degenerates from M(xxy) + M(xyy), so its Hom
    # dimensions into every test module are at least as large
    ys = [Word("xxy", P33), Word("xyy", P33)]
    xs = [Word("xxyy", P33), Word("xy", P33)]
    gaps = [sum(hom_dim_graph(x, t) for x in xs)
            - sum(hom_dim_graph(y, t) for y in ys)
            for t in enumerate_words(4, P33)]
    assert min(gaps) >= 0
    # and strictly so on some test word
    assert max(gaps) > 0


def test_memo_tables_are_bounded():
    # finite at any n, and no verify or classify run evicts: a full verify
    # makes 256 distinct Hom keys and 34 Ext keys, classify at (24, 3, 3)
    # 204 and 115, and the per-word window indexes number two per word
    # (334 in a full verify); the bound held stays at 12 374, room for
    # every one of hom-agreement's 12 075 pairs should a run key them all
    for memo in (words._middles, homalg._hom_count, homalg._ext1_vanishes):
        maxsize = memo.cache_info().maxsize
        assert maxsize is not None and maxsize >= 12_374
    # the random-modules sampler draws x^i y^j and x^i y^j x^k y^l, never
    # periodic, over seven algebras, with one or two layers: 178 band
    # texts, 356 band frame keys, and 243 string texts of length <= 5
    blocks = [(["x" * i + "y" * j for i in range(1, p.a) for j in range(1, p.b)], p)
              for p in verify._PARAMS]
    texts = ([(u, p) for us, p in blocks for u in us]
             + [(u + v, p) for us, p in blocks for u in us for v in us if u != v])
    bands = [(u, p, layers) for u, p in texts for layers in (1, 2)]
    strings = [(w, p) for p in verify._PARAMS for w in enumerate_words(5, p)]
    assert (len(texts), len(bands), len(strings)) == (178, 356, 243)
    for memo, keys in ((modmatrix._band_frame, bands),
                       (verify._string_summand, strings)):
        maxsize = memo.cache_info().maxsize
        assert maxsize is not None and maxsize >= len(keys)
