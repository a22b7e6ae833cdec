"""Tests for string/band matrix realizations.

Jordan types are cross-checked against the run-combinatorial description
(an x-run of length r contributes a Jordan block of size r+1 to p(A),
and every vertex not on an x-arrow contributes a 1; dually for y), which
is computed here directly from the words -- independent of the rank-based
computation in modmatrix.
"""

import copy
import itertools
import json
import random
from fractions import Fraction

import pytest

from nilvar import modmatrix
from nilvar.exactla import RationalMatrix, _entry, pivot_columns
from nilvar.homalg import hom_dim_oracle
from nilvar.modmatrix import (
    MatrixPairModule,
    _kills,
    band_module,
    direct_sum,
    string_module,
)
from nilvar.verify import _PARAMS, random_module
from nilvar.words import AlgebraParams, Word, band_class, enumerate_words, runs

P33 = AlgebraParams(3, 3)
P22 = AlgebraParams(2, 2)
P43 = AlgebraParams(4, 3)


def assert_sparse(mat):
    """No stored zeros and no column outside the matrix."""
    assert len(mat.rows) == mat.nrows
    for row in mat.rows:
        assert all(0 <= j < mat.ncols and v != 0 for j, v in row.items())


def string_jordan_oracle(word):
    """Jordan pair of M(word) straight from the run structure."""
    n = len(word) + 1
    xs = [k for l, k in runs(word) if l == "x"]
    ys = [k for l, k in runs(word) if l == "y"]
    pa = sorted((k + 1 for k in xs), reverse=True) + [1] * (n - sum(k + 1 for k in xs))
    pb = sorted((k + 1 for k in ys), reverse=True) + [1] * (n - sum(k + 1 for k in ys))
    return tuple(pa), tuple(pb)


def band_jordan_oracle(canonical, k):
    """Jordan pair of a band with k layers: each x-run of length c gives k
    blocks of size c+1; remaining vertices are singletons."""
    m = len(canonical)
    xs = [c for l, c in runs(canonical) if l == "x"]
    ys = [c for l, c in runs(canonical) if l == "y"]
    pa = sorted([c + 1 for c in xs] * k, reverse=True)
    pa += [1] * (m * k - sum(pa))
    pb = sorted([c + 1 for c in ys] * k, reverse=True)
    pb += [1] * (m * k - sum(pb))
    return tuple(pa), tuple(pb)


# -- string modules --------------------------------------------------------

def test_orientation_convention():
    # these two entries pin the action convention for everything else
    mx = string_module(Word("x", P33))
    assert mx.A.dense()[0][1] == 1 and mx.A.rank() == 1 and mx.B.rank() == 0
    my = string_module(Word("y", P33))
    assert my.B.dense()[1][0] == 1 and my.B.rank() == 1 and my.A.rank() == 0


def test_simple_module():
    s = string_module(Word("", P33))
    assert s.n == 1
    assert s.verify_relations()
    assert s.stats() == {"rkA": 0, "rkB": 0, "top_dim": 1, "soc_dim": 1, "regular": False}


def test_regular_representation():
    lam = string_module(Word("xxyy", P33))
    assert lam.n == 5
    st = lam.stats()
    # simple top; the socle is 2-dimensional, spanned by x^{a-1} and y^{b-1}
    assert st["top_dim"] == 1 and st["soc_dim"] == 2
    assert st["rkA"] == 2 and st["rkB"] == 2 and not st["regular"]
    assert lam.jordan_pair() == ((3, 1, 1), (3, 1, 1))


def test_string_relations_and_jordan_all_short_words():
    for params in (P33, P22, P43):
        for w in enumerate_words(6, params):
            m = string_module(w)
            assert m.n == len(w) + 1
            assert m.verify_relations()
            pa, pb = m.jordan_pair()
            assert (tuple(pa), tuple(pb)) == string_jordan_oracle(w)
            st = m.stats()
            # a string module has exactly one string summand: Lemma-style
            # count n - 1 = rk A + rk B
            assert st["rkA"] + st["rkB"] == m.n - 1
            # tops sit at "peaks" (y followed by x) plus one free end;
            # socles at "valleys" (x followed by y) plus one
            assert st["top_dim"] == 1 + sum(
                1 for i in range(len(w) - 1) if w[i] == "y" and w[i + 1] == "x"
            )
            assert st["soc_dim"] == 1 + sum(
                1 for i in range(len(w) - 1) if w[i] == "x" and w[i + 1] == "y"
            )


# -- band modules ----------------------------------------------------------

def test_band_xxy_single_layer():
    m = band_module(Word("xxy", P33), [2])
    assert m.n == 3
    assert m.verify_relations()
    assert m.jordan_pair() == ((3,), (2, 1))
    assert m.stats() == {"rkA": 2, "rkB": 1, "top_dim": 1, "soc_dim": 1, "regular": True}
    # wrap-around entry carries the lambda
    assert m.B.dense()[0][2] == 2


def test_band_xxyy_single_layer():
    m = band_module(Word("xxyy", P33), [1])
    assert m.n == 4
    assert m.verify_relations()
    assert m.jordan_pair() == ((3, 1), (3, 1))
    assert m.stats() == {"rkA": 2, "rkB": 2, "top_dim": 1, "soc_dim": 1, "regular": True}


def test_band_layers_and_defaults():
    m = band_module(Word("xxy", P33), [1, 2, 3])
    assert m.n == 9
    assert m.verify_relations()
    # one wrap-around y per layer carries its lambda, in layer order
    assert [m.B.rows[off][off + 2] for off in (0, 3, 6)] == [1, 2, 3]
    assert m.jordan_pair() == ((3, 3, 3), (2, 2, 2, 1, 1, 1))
    st = m.stats()
    assert st["regular"] and st["top_dim"] == 3 and st["soc_dim"] == 3


def test_band_jordan_oracle_sweep():
    rng = random.Random(5)
    bands = []
    for params in (P33, P43):
        for w in enumerate_words(6, params):
            kind, canon = band_class(w)
            if kind == "primitive":
                bands.append(canon)
    for canon in bands:
        k = rng.randint(1, 3)
        lambdas = [Fraction(rng.randint(1, 6), rng.randint(1, 3)) for _ in range(k)]
        m = band_module(canon, lambdas)
        assert m.verify_relations()
        pa, pb = m.jordan_pair()
        assert (tuple(pa), tuple(pb)) == band_jordan_oracle(canon, k)
        st = m.stats()
        assert st["regular"]  # bands have rk A + rk B = n
        assert st["top_dim"] == st["soc_dim"] == k * sum(
            1 for l, _ in runs(canon) if l == "x"
        )


def test_band_canonicalizes_rotation():
    assert band_module(Word("yxx", P33), [1]).A == band_module(Word("xxy", P33), [1]).A
    assert band_module(Word("yxx", P33), [1]).B == band_module(Word("xxy", P33), [1]).B


def test_band_rejections():
    with pytest.raises(ValueError):
        band_module(Word("xyxy", P33), [1])  # periodic
    with pytest.raises(ValueError):
        band_module(Word("xx", P33), [1])  # single letter
    with pytest.raises(ValueError):
        band_module(Word("xxy", P33), [0])  # lambda must be nonzero
    with pytest.raises(TypeError):
        band_module(Word("xy", P33), [0.5])  # lambdas are exact
    with pytest.raises(ValueError):
        band_module(Word("xxy", P33), [])
    with pytest.raises(ValueError):
        band_module(Word("xxyxx", P33), [1])  # square not valid


def reference_band_module(word, lambdas):
    """band_module as built before its layer was memoized: band_class on
    every call and the layer written letter by letter into each of the
    k layers."""
    kind, canonical = band_class(word)
    if kind != "primitive":
        raise ValueError(f"band_module needs a primitive band, got {kind} for {str(word)!r}")
    lambdas = tuple(_entry(v) for v in lambdas)
    if not lambdas:
        raise ValueError("need at least one lambda layer")
    if any(v == 0 for v in lambdas):
        raise ValueError("band lambdas must be nonzero")
    m, k = len(canonical), len(lambdas)
    n = m * k
    a_rows = [{} for _ in range(n)]
    b_rows = [{} for _ in range(n)]
    idx = lambda i, j: j * m + i
    for j in range(k):
        for i in range(m - 1):
            if canonical[i] == "x":
                a_rows[idx(i, j)][idx(i + 1, j)] = 1
            else:
                b_rows[idx(i + 1, j)][idx(i, j)] = 1
        b_rows[idx(0, j)][idx(m - 1, j)] = lambdas[j]
        if j > 0:
            b_rows[idx(0, j - 1)][idx(m - 1, j)] = 1
    return MatrixPairModule(n, RationalMatrix(a_rows, n), RationalMatrix(b_rows, n),
                            word.params)


def built_as(mod):
    """Everything a module carries, entry types and row order included
    (Fraction(2) == 2, but their reprs differ)."""
    return (mod.n, mod.params, repr(mod.A.rows), repr(mod.B.rows))


def primitive_bands(max_len, params):
    """Every primitive band text of length <= max_len, in every rotation."""
    for k in range(2, max_len + 1):
        for t in itertools.product("xy", repeat=k):
            try:
                w = Word("".join(t), params)
            except ValueError:
                continue
            if band_class(w)[0] == "primitive":
                yield w


LAMBDAS = [[3], [1, 1], [2, -1, 2], [Fraction(1, 2)], [Fraction(4, 2), 5],
           [Fraction(-3, 4), 1, Fraction(7, 3)]]


@pytest.mark.parametrize("params", _PARAMS, ids=lambda p: f"{p.a}{p.b}")
def test_band_layer_memo_matches_the_reference(params):
    bands = list(primitive_bands(8, params))
    assert bands
    for w in bands:
        for lambdas in LAMBDAS:
            assert built_as(band_module(w, lambdas)) == built_as(
                reference_band_module(w, lambdas)), (str(w), lambdas)
        # a second call reads the frame and builds its lambda rows afresh
        m = len(band_class(w)[1])
        one, two = band_module(w, [1, 1]), band_module(w, [1, 1])
        frame = modmatrix._band_frame(str(w), params, 2)[2]
        assert all(one.B.rows[off] is not two.B.rows[off]
                   and one.B.rows[off] is not frame[off] for off in (0, m))
        # the rows it shares stay as built: a later module over the frame
        # leaves the earlier one equal to its reference
        band_module(w, [2, 3])
        assert built_as(one) == built_as(reference_band_module(w, [1, 1]))


@pytest.mark.parametrize("params", _PARAMS, ids=lambda p: f"{p.a}{p.b}")
def test_band_layer_is_its_string_closed_by_lambda(params):
    # one layer of M(w; lambda) is the string module of the canonical
    # rotation less its last letter, a y that closes e_{m-1} to lambda e_0
    for w in primitive_bands(8, params):
        canonical = band_class(w)[1]
        m = len(canonical)
        string = string_module(Word(canonical[:-1], params))
        for lam in (1, 2, Fraction(1, 2)):
            band = band_module(w, [lam])
            b_rows = [dict(row) for row in string.B.rows]
            b_rows[0][m - 1] = lam
            assert repr(band.A.rows) == repr(string.A.rows), str(w)
            assert repr(band.B.rows) == repr(b_rows), (str(w), lam)


def test_band_layer_memo_is_bounded_and_keyed_on_params():
    memo = modmatrix._band_frame
    assert memo.cache_info().maxsize is not None
    memo.cache_clear()
    texts = ["xy", "yx", "xxy", "xyy", "xxyxy", "yxyxx"]
    keys = set()
    calls = 0
    for params in (P22, P33, P43):
        for text in texts:
            try:
                w = Word(text, params)
            except ValueError:
                continue
            for lambdas in ([1], [2, 3], [4], [5, 6]):
                band_module(w, lambdas)
                calls += 1
                keys.add((text, params, len(lambdas)))
    info = memo.cache_info()
    # one entry and one miss per distinct (text, params, layers), hits for
    # the rest
    assert (info.currsize, info.misses, info.hits) == (len(keys), len(keys),
                                                       calls - len(keys))
    # equal texts over two algebras are two entries, each with its params
    m22, m33 = band_module(Word("xy", P22), [1]), band_module(Word("xy", P33), [1])
    assert (m22.params, m33.params) == (P22, P33)
    assert modmatrix._band_frame("xy", P22, 1) is not modmatrix._band_frame("xy", P33, 1)


@pytest.mark.parametrize("text, lambdas", [
    ("xyxy", [1]),       # periodic
    ("xx", [1]),         # a single letter
    ("", [1]),           # empty
    ("xxyxx", [1]),      # its square is not a word
    ("xxy", [0]),        # a zero lambda
    ("xxy", [1, 0]),
    ("xy", [0.5]),       # a float lambda
    ("xxy", []),         # no layer
    ("xxyy", []),
    ("xyxy", []),        # no layer and periodic: the word is refused first
])
def test_band_rejections_match_the_reference(text, lambdas):
    def outcome(build):
        try:
            build(Word(text, P33), lambdas)
        except (TypeError, ValueError) as exc:
            return type(exc), str(exc)
        return None

    held = modmatrix._band_frame.cache_info().currsize
    for _ in range(2):
        got = outcome(band_module)
        assert got is not None and got == outcome(reference_band_module)
    # a rejected word or an empty lambda list leaves no entry behind
    if band_class(Word(text, P33))[0] != "primitive" or not lambdas:
        assert modmatrix._band_frame.cache_info().currsize == held


def test_distinct_lambdas_split_after_base_change():
    # M(w; l1, l2) with l1 != l2 has the same Jordan pair and stats as
    # M(w; l1) + M(w; l2) -- the layered matrix is conjugate to the sum
    two = band_module(Word("xxyy", P33), [1, 2])
    split = direct_sum([band_module(Word("xxyy", P33), [1]), band_module(Word("xxyy", P33), [2])])
    assert two.jordan_pair() == split.jordan_pair()
    assert two.stats() == split.stats()


# -- direct sums -----------------------------------------------------------

def test_direct_sum_blocks_and_metadata():
    m = direct_sum([string_module(Word("xxy", P33)), string_module(Word("xy", P33))])
    assert m.n == 7
    assert m.verify_relations()
    # the blocks of M(xxy) and M(xy) in order, on 4 + 3 basis vectors
    assert m.A.rows == [{1: 1}, {2: 1}, {}, {}, {5: 1}, {}, {}]
    assert m.B.rows == [{}, {}, {}, {2: 1}, {}, {}, {5: 1}]
    st = m.stats()
    assert st == {"rkA": 3, "rkB": 2, "top_dim": 2, "soc_dim": 4, "regular": False}
    # modules are never modified, so the sum of one part is that part
    assert direct_sum(iter([m])) is m


def test_direct_sum_stats_additive():
    rng = random.Random(9)
    words = [w for w in enumerate_words(5, P33)]
    for _ in range(20):
        parts = [string_module(rng.choice(words)) for _ in range(rng.randint(1, 3))]
        strings = len(parts)
        if rng.random() < 0.5:
            parts.append(band_module(Word("xxy", P33), [rng.randint(1, 5)]))
        total = direct_sum(parts)
        assert total.verify_relations()
        st = total.stats()
        for key in ("rkA", "rkB", "top_dim", "soc_dim"):
            assert st[key] == sum(p.stats()[key] for p in parts)
        # Lemma-style count: n - #string summands = rk A + rk B
        assert total.n - strings == st["rkA"] + st["rkB"]


def test_direct_sum_shares_rows_but_never_changes_them():
    m1 = band_module(Word("xxyxy", P33), [Fraction(1, 2), 3])
    m2 = string_module(Word("xyy", P33))
    before = [(m.A.dense(), m.B.dense()) for m in (m1, m2)]
    parts = [m1, m2, m1]
    total = direct_sum(parts)
    # the first summand sits at offset 0: its row dicts are taken as they are
    assert all(r is s for r, s in zip(total.A.rows, m1.A.rows))
    assert all(r is s for r, s in zip(total.B.rows, m1.B.rows))
    # each empty row of a later summand is that summand's own row dict
    for part, off in ((m2, m1.n), (m1, m1.n + m2.n)):
        for name in ("A", "B"):
            rows, placed = getattr(part, name).rows, getattr(total, name).rows
            empty = [i for i, row in enumerate(rows) if not row]
            assert empty and all(placed[off + i] is rows[i] for i in empty)
    assert total.verify_relations()
    # reading the sum must not write through to the rows it shares
    total.stats(), total.jordan_pair(), total.to_json()
    assert [(m.A.dense(), m.B.dense()) for m in (m1, m2)] == before
    cuts = [0, m1.n, m1.n + m2.n, total.n]
    blocks = list(zip(cuts, cuts[1:]))
    for name in ("A", "B"):
        dense = getattr(total, name).dense()
        for p, (top, bottom) in enumerate(blocks):
            for q, (left, right) in enumerate(blocks):
                block = [row[left:right] for row in dense[top:bottom]]
                if p == q:
                    assert block == getattr(parts[p], name).dense()
                else:
                    assert not any(map(any, block))


def test_operations_never_modify_their_operands():
    # direct_sum shares rows and verify memoizes string modules, so no
    # read of a matrix may write to the rows it is given
    strings = [string_module(Word(w, P33)) for w in ("", "xxyxy", "yxxy")]
    bands = [band_module(Word("xxyxy", P33), [Fraction(1, 2), Fraction(-3, 4)]),
             band_module(Word("xyy", P33), [2])]
    sums = [direct_sum([strings[1], bands[0], strings[2]]),
            direct_sum([strings[2], strings[1]])]
    mods = strings + bands + sums
    before = [copy.deepcopy((m.A.rows, m.B.rows)) for m in mods]
    for m in mods:
        for mat in (m.A, m.B):
            mat.rank(), pivot_columns(mat), mat.transpose(), mat.dense()
        m.A.mul(m.B), m.B.mul(m.A), m.A.mul(m.A)
        m.stats(), m.jordan_pair(), m.verify_relations(), m.permutation_maps()
        for other in mods:
            hom_dim_oracle(m, other, method="dense")
            if m.permutation_maps() and other.permutation_maps():
                hom_dim_oracle(m, other, method="unionfind")
    for parts in ([strings[1], bands[0]], [bands[1], strings[2], strings[1]]):
        assert direct_sum(parts).A == direct_sum(parts).A
    assert [(m.A.rows, m.B.rows) for m in mods] == before


def test_direct_sum_param_mismatch():
    with pytest.raises(ValueError):
        direct_sum([string_module(Word("x", P33)), string_module(Word("x", P43))])
    with pytest.raises(ValueError):
        direct_sum([])
    # the last part is checked too, and a generator of parts is read once
    parts = [string_module(Word("x", P33)), string_module(Word("xy", P33)),
             string_module(Word("x", P43))]
    with pytest.raises(ValueError, match="equal algebra parameters"):
        direct_sum(iter(parts))


def test_direct_sum_of_three_parts():
    parts = [string_module(Word("xy", P33)),
             band_module(Word("xyy", P33), [2]),
             string_module(Word("yx", P33))]
    total = direct_sum(iter(parts))
    assert total.n == 3 + 3 + 3
    assert total.params == P33 and total.verify_relations()
    # each part's block sits on the diagonal at the sum of the sizes before it
    for name in ("A", "B"):
        want = [[0] * total.n for _ in range(total.n)]
        off = 0
        for part in parts:
            for i, row in enumerate(getattr(part, name).dense()):
                want[off + i][off:off + part.n] = row
            off += part.n
        assert getattr(total, name).dense() == want
        assert_sparse(getattr(total, name))


# -- the relations, failing ------------------------------------------------

def pair(n, a_ones, b_ones, params=P33):
    """The module whose A and B hold the given {(row, col): entry}."""
    mats = []
    for entries in (a_ones, b_ones):
        rows = [{} for _ in range(n)]
        for (i, j), v in entries.items():
            rows[i][j] = v
        mats.append(RationalMatrix(rows, n))
    return MatrixPairModule(n, *mats, params)


SHIFT4 = {(0, 1): 1, (1, 2): 1, (2, 3): 1}  # one Jordan block of size 4

BROKEN = {
    "AB": pair(3, {(0, 1): 1}, {(1, 2): 1}),
    "BA": pair(3, {(1, 2): 1}, {(0, 1): 1}),
    "A^a": pair(4, SHIFT4, {}),
    "B^b": pair(4, {}, SHIFT4),
}


@pytest.mark.parametrize("relation", list(BROKEN))
def test_each_relation_can_fail_alone(relation):
    # the broken pair itself, and as the later summand of a sum, whose
    # rows direct_sum re-keys
    broken = BROKEN[relation]
    for m in (broken, direct_sum([string_module(Word("xxy", P33)), broken])):
        assert not m.verify_relations()
        A, B = m.A, m.B
        products = {"AB": A.mul(B), "BA": B.mul(A),
                    "A^a": A.mul(A).mul(A), "B^b": B.mul(B).mul(B)}
        assert [k for k, p in products.items() if any(p.rows)] == [relation]


def test_power_relations_read_the_exponent():
    # the 4-block has A^2 != 0 and A^3 != 0: it breaks a = 3, meets a = 4
    assert any(BROKEN["A^a"].A.mul(BROKEN["A^a"].A).rows)
    assert pair(4, SHIFT4, {}, AlgebraParams(4, 3)).verify_relations()
    assert pair(4, {}, SHIFT4, AlgebraParams(3, 4)).verify_relations()


def test_cancelling_terms_count_as_zero():
    # (AB)[0][3] = 1 * 1 + 1 * (-1), and with Fractions 1/2 * 2/3 - 1/3
    assert pair(4, {(0, 1): 1, (0, 2): 1}, {(1, 3): 1, (2, 3): -1}).verify_relations()
    half, third = Fraction(1, 2), Fraction(1, 3)
    assert pair(4, {(0, 1): half, (0, 2): third},
                {(1, 3): Fraction(2, 3), (2, 3): -1}).verify_relations()
    assert not pair(4, {(0, 1): 1, (0, 2): 1}, {(1, 3): 1, (2, 3): 1}).verify_relations()
    assert not pair(4, {(0, 1): half, (0, 2): third},
                    {(1, 3): 1, (2, 3): -1}).verify_relations()


def test_kills_cancelling_terms_and_powers():
    # the supports meet (column 1 of left, row 1 of right) but 1 - 1 = 0
    ones = RationalMatrix([{0: 1, 1: 1}], 2)
    assert _kills(ones, RationalMatrix([{0: 1}, {0: -1}], 1))
    assert not _kills(ones, RationalMatrix([{0: 1}, {0: 1}], 1))
    # the 4-block N: N^k != 0 below its nilpotency index 4, N^4 = 0
    shift, e0 = pair(4, SHIFT4, {}).A, RationalMatrix([{0: 1}], 4)
    for times in range(1, 6):
        assert _kills(shift, shift, times) == (times + 1 >= 4)
        assert _kills(e0, shift, times) == (times >= 4)


def test_kills_ignores_stored_zeros():
    # a stored {j: 0} breaks the constructor's precondition, but must not
    # change the answer
    shift = pair(4, SHIFT4, {}).A
    zeroed = RationalMatrix([{0: 0, **row} for row in shift.rows], 4)
    for times in range(1, 6):
        assert (_kills(zeroed, shift, times) == _kills(shift, zeroed, times)
                == _kills(zeroed, zeroed, times) == _kills(shift, shift, times))
    # supports that meet only through a stored zero
    right = RationalMatrix([{1: 5}, {}], 2)
    assert _kills(RationalMatrix([{0: 0}], 2), right)
    assert _kills(RationalMatrix([{0: 1}], 2), RationalMatrix([{1: 0}, {}], 2))
    assert not _kills(RationalMatrix([{0: 0, 1: 1}], 2),
                      RationalMatrix([{}, {1: 3}], 2))


def random_sparse(rng, nrows, ncols, entries):
    """An nrows x ncols matrix, each entry drawn from entries with
    probability 0.4 and 0 otherwise."""
    return RationalMatrix([{j: rng.choice(entries) for j in range(ncols)
                            if rng.random() < 0.4} for _ in range(nrows)], ncols)


@pytest.mark.parametrize("entries", [
    (1, -1, 2, -2),
    (Fraction(1, 2), Fraction(-1, 2), Fraction(2, 3), -1),
], ids=["int", "fraction"])
def test_kills_matches_the_built_power(monkeypatch, entries):
    # _kills against left @ right^times built with mul; a walk that empties
    # decides without a row push, one that survives its full length pushes
    # rows, and the push finds a zero product (cancellation) or not
    pushes = []
    row_times = modmatrix._row_times
    monkeypatch.setattr(modmatrix, "_row_times",
                        lambda row, rows: pushes.append(1) or row_times(row, rows))
    rng, branches = random.Random(24), set()
    for _ in range(500):
        n = rng.randint(2, 4)
        left = random_sparse(rng, rng.randint(1, 3), n, entries)
        right = random_sparse(rng, n, n, entries)
        for times in range(1, 5):
            power = right
            for _ in range(times - 1):
                power = power.mul(right)
            zero = not any(left.mul(power).rows)
            pushes.clear()
            assert _kills(left, right, times) == zero
            branches.add(("walk empties" if not pushes
                          else "push cancels" if zero else "push survives"))
    assert branches == {"walk empties", "push cancels", "push survives"}


def relations_by_products(mod):
    """AB = BA = A^a = B^b = 0 read off the built products and powers."""
    A, B, (a, b) = mod.A, mod.B, mod.params
    powers = []
    for mat, k in ((A, a), (B, b)):
        power = mat
        for _ in range(k - 1):
            power = power.mul(mat)
        powers.append(power)
    return not any(row for p in (A.mul(B), B.mul(A), *powers) for row in p.rows)


def perturbed(mod, rng):
    """mod with one entry of A or B set to 1, -1, 2 or 1/2."""
    mats = [[dict(row) for row in mat.rows] for mat in (mod.A, mod.B)]
    row = rng.choice(rng.choice(mats))
    row[rng.randrange(mod.n)] = rng.choice((1, -1, 2, Fraction(1, 2)))
    return MatrixPairModule(mod.n, *(RationalMatrix(r, mod.n) for r in mats),
                            mod.params)


def test_relations_match_built_products():
    rng, outcomes = random.Random(12), []
    for _ in range(2000):
        mod, _ = random_module(rng)
        for m in (mod, perturbed(mod, rng)):
            outcomes.append(relations_by_products(m))
            assert m.verify_relations() == outcomes[-1]
    assert outcomes.count(True) > 2000 and outcomes.count(False) > 0


def test_band_with_fraction_lambdas():
    m = band_module(Word("xxyxy", P33), [Fraction(1, 2), Fraction(-3, 4), 5])
    assert m.verify_relations()
    # an x arrow out of the end of the first layer: B carries it back to
    # the start with lambda_1 = 1/2, so BA holds 1/2 and nothing else fails
    rows = [dict(row) for row in m.A.rows]
    rows[4][2] = 1
    A = RationalMatrix(rows, m.n)
    assert not MatrixPairModule(m.n, A, m.B, P33).verify_relations()
    assert [row for row in m.B.mul(A).rows if row] == [{2: Fraction(1, 2)}]
    assert not any(A.mul(m.B).rows) and not any(A.mul(A).mul(A).rows)


# -- duality ---------------------------------------------------------------

def test_dual_point_is_reversed_string():
    for w in enumerate_words(5, P33):
        m = string_module(w)
        d = MatrixPairModule(m.n, m.A.transpose(), m.B.transpose(), P33)
        assert d.verify_relations()
        # reversing the coordinate order turns the transposed matrices
        # into the string matrices of the reversed word on the nose
        n = m.n
        rev = string_module(w.reverse())
        perm = list(reversed(range(n)))
        for mat_d, mat_r in ((d.A.dense(), rev.A.dense()), (d.B.dense(), rev.B.dense())):
            for i in range(n):
                for j in range(n):
                    assert mat_d[perm[i]][perm[j]] == mat_r[i][j]
        st, std = m.stats(), d.stats()
        assert std["top_dim"] == st["soc_dim"] and std["soc_dim"] == st["top_dim"]
        assert (std["rkA"], std["rkB"]) == (st["rkA"], st["rkB"])


# -- serialization ---------------------------------------------------------

def test_json_round_trip_bit_exact():
    mods = [
        string_module(Word("xxyy", P33)),
        band_module(Word("xxy", P33), [Fraction(1, 2), 3]),
        direct_sum([string_module(Word("xy", P22))] * 2),
    ]
    for m in mods:
        back = json.loads(json.dumps(m.to_json(), sort_keys=True))
        assert (back["n"], back["a"], back["b"]) == (m.n, *m.params)
        # each "p/q" string reads back as the exact entry it came from
        for key, mat in (("A", m.A), ("B", m.B)):
            assert [[Fraction(v) for v in row] for row in back[key]] == mat.dense()


def test_fraction_entries_serialize_as_ratios():
    m = band_module(Word("xxy", P33), [Fraction(1, 2)])
    assert m.to_json()["B"][0][2] == "1/2"


# -- exact entries ---------------------------------------------------------

def test_constructions_store_ints():
    # integral entries are ints; a Fraction appears only for a lambda that
    # is not an integer
    half = Fraction(1, 2)
    mods = [
        string_module(Word("xxyxyy", P33)),
        band_module(Word("xxy", P33), [1, 2]),
        band_module(Word("xxy", P33), [Fraction(6, 3), half, "-4/2"]),
        direct_sum([string_module(Word("xy", P33)), band_module(Word("xyy", P33), [half, 3])]),
    ]
    for mod in mods:
        for v in [v for m in (mod.A, mod.B) for row in m.dense() for v in row]:
            assert type(v) is int or (type(v) is Fraction and v == half)


# -- sparse storage ----------------------------------------------------------

def test_constructions_store_no_zeros():
    mods = [
        string_module(Word("", P33)),
        string_module(Word("xxyxyy", P33)),
        band_module(Word("xxy", P33), [1, "1/2", -3]),
        band_module(Word("xyxyy", P33), [1, 2]),
        direct_sum([string_module(Word("xy", P33)), band_module(Word("xyy", P33), ["1/2", 3]),
                    string_module(Word("xxy", P33))]),
    ]
    for mod in mods:
        for mat in (mod.A, mod.B):
            assert_sparse(mat)
        for mat in (mod.A.mul(mod.B), mod.B.mul(mod.A)):
            assert mat.rows == [{}] * mod.n


# `nilvar module ... --format json` stdout, as it was printed while the
# matrices were stored dense: to_json must give the same bytes
MODULE_JSON = {
    ("--word", "xxyy"): {
        "A": [["0", "1", "0", "0", "0"], ["0", "0", "1", "0", "0"],
              ["0", "0", "0", "0", "0"], ["0", "0", "0", "0", "0"],
              ["0", "0", "0", "0", "0"]],
        "B": [["0", "0", "0", "0", "0"], ["0", "0", "0", "0", "0"],
              ["0", "0", "0", "0", "0"], ["0", "0", "1", "0", "0"],
              ["0", "0", "0", "1", "0"]],
        "a": 3, "b": 3, "jordan": {"A": [3, 1, 1], "B": [3, 1, 1]}, "n": 5,
        "stats": {"regular": False, "rkA": 2, "rkB": 2, "soc_dim": 2, "top_dim": 1},
    },
    ("--word", "xy", "--lambdas", "1,1/2"): {
        "A": [["0", "1", "0", "0"], ["0", "0", "0", "0"],
              ["0", "0", "0", "1"], ["0", "0", "0", "0"]],
        "B": [["0", "1", "0", "1"], ["0", "0", "0", "0"],
              ["0", "0", "0", "1/2"], ["0", "0", "0", "0"]],
        "a": 3, "b": 3, "jordan": {"A": [2, 2], "B": [2, 2]}, "n": 4,
        "stats": {"regular": True, "rkA": 2, "rkB": 2, "soc_dim": 2, "top_dim": 2},
    },
}


@pytest.mark.parametrize("args", list(MODULE_JSON), ids=" ".join)
def test_module_json_bytes_pinned(capsys, args):
    from nilvar.cli import main

    assert main(["module", *args, "--format", "json"]) == 0
    expected = json.dumps(MODULE_JSON[args], indent=2, sort_keys=True) + "\n"
    assert capsys.readouterr().out == expected
