"""Tests for the exact linear algebra kernel.

rank() and pivot_columns() share one elimination (the sparse integer
echelon), so both are checked against a reference kept here: dense
Fraction Gauss-Jordan without column swaps, a different algorithm over a
different number representation.  rank() is also checked against
matrices of known rank built as products of random full-rank factors.
"""

import random
from fractions import Fraction

import pytest

from nilvar import exactla
from nilvar.exactla import RationalMatrix, _entry, _int_row, pivot_columns
from nilvar.modmatrix import band_module
from nilvar.words import AlgebraParams, Word


def matrix(dense):
    """The RationalMatrix of nonempty dense rows of values that `_entry`
    takes."""
    rows = [{j: e for j, v in enumerate(row) if (e := _entry(v))} for row in dense]
    return RationalMatrix(rows, len(dense[0]))


def rand_matrix(rng, nrows, ncols, span=5, denom=False):
    rows = [
        [
            Fraction(rng.randint(-span, span), rng.randint(1, 4) if denom else 1)
            for _ in range(ncols)
        ]
        for _ in range(nrows)
    ]
    return matrix(rows)


def rand_with_rank(rng, nrows, ncols, r):
    """A random nrows x ncols matrix of rank exactly r, as a product of a
    full-column-rank and a full-row-rank factor (retry until both are)."""
    while True:
        left = rand_matrix(rng, nrows, r)
        right = rand_matrix(rng, r, ncols)
        if left.rank() == r and right.rank() == r:
            return left.mul(right)


def gauss_jordan_pivots(mat):
    """Reference pivot columns: dense Fraction Gauss-Jordan, left to
    right, no column swaps."""
    work = [[Fraction(v) for v in row] for row in mat.dense()]
    pivots = []
    r = 0
    for c in range(mat.ncols):
        pr = next((i for i in range(r, mat.nrows) if work[i][c]), None)
        if pr is None:
            continue
        work[r], work[pr] = work[pr], work[r]
        inv = 1 / work[r][c]
        work[r] = [v * inv for v in work[r]]
        for i in range(mat.nrows):
            if i != r and work[i][c]:
                f = work[i][c]
                work[i] = [v - f * w for v, w in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
        if r == mat.nrows:
            break
    return pivots


def entries(mat):
    return [v for row in mat.dense() for v in row]


def assert_sparse(mat):
    """The storage invariant: one {col: entry} dict per row, keys inside
    the matrix, no stored zeros, an int for every integral entry."""
    assert len(mat.rows) == mat.nrows
    for row in mat.rows:
        for j, v in row.items():
            assert 0 <= j < mat.ncols
            assert v != 0
            assert type(v) is int or (type(v) is Fraction and v.denominator != 1)


def naive_mul(a, b):
    da, db = a.dense(), b.dense()
    return matrix(
        [
            [sum(da[i][k] * db[k][j] for k in range(a.ncols)) for j in range(b.ncols)]
            for i in range(a.nrows)
        ]
    )


# -- construction ----------------------------------------------------------

def test_entry_coercion():
    assert _entry("1/2") == Fraction(1, 2) and _entry(Fraction(3, 4)) == Fraction(3, 4)
    # integral values become plain ints, whatever their input type
    ints = [_entry(v) for v in (Fraction(4, 2), "3", "-6/3", True)]
    assert ints == [2, 3, -2, 1]
    assert all(type(v) is int for v in ints)
    with pytest.raises(TypeError):
        _entry(0.5)


def identity(n):
    return RationalMatrix([{i: 1} for i in range(n)], n)


def test_identity_zeros():
    assert identity(3).rank() == 3
    assert RationalMatrix([{}, {}], 5).rank() == 0


def test_empty_shapes():
    m = RationalMatrix([], 4)
    assert (m.nrows, m.ncols) == (0, 4)
    assert m.rank() == 0
    t = m.transpose()
    assert (t.nrows, t.ncols) == (4, 0)
    assert t.rank() == 0


# -- products and transposes ----------------------------------------------

def test_mul_matches_naive():
    rng = random.Random(7)
    pairs = []
    for _ in range(30):
        a = rand_matrix(rng, rng.randint(1, 5), rng.randint(1, 5), denom=True)
        b = rand_matrix(rng, a.ncols, rng.randint(1, 5), denom=True)
        pairs.append((a, b))
    for _ in range(30):
        a = rand_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        pairs.append((a, rand_matrix(rng, a.ncols, rng.randint(1, 5))))
    # mostly zeros, where products cancel, with and without a Fraction
    for pool in ((0, 0, 0, 1, -1), (0, 0, 1, Fraction(1, 2), -3)):
        for _ in range(30):
            nrows, inner, ncols = (rng.randint(1, 7) for _ in range(3))
            a, b = (matrix([[rng.choice(pool) for _ in range(c)] for _ in range(r)])
                    for r, c in ((nrows, inner), (inner, ncols)))
            pairs.append((a, b))
    for a, b in pairs:
        prod = a.mul(b)
        assert prod == naive_mul(a, b)
        assert_sparse(prod)


def test_mul_drops_cancelled_entries():
    prod = matrix([[1, 1]]).mul(matrix([[1], [-1]]))
    assert prod.rows == [{}] and not any(prod.rows)
    half = matrix([["1/2", "1/2"], [1, 0]])
    prod = half.mul(matrix([[2, 1], [2, -1]]))
    # 1/2 * 2 + 1/2 * 2 = 2 is stored as an int, 1/2 - 1/2 is not stored
    assert prod.rows == [{0: 2}, {0: 2, 1: 1}]
    assert_sparse(prod)


def test_operations_store_no_zeros():
    rng = random.Random(37)
    for _ in range(30):
        a = rand_matrix(rng, rng.randint(1, 5), rng.randint(1, 5), span=1,
                        denom=rng.random() < 0.5)
        assert_sparse(a)
        for mat in (a.transpose(), a.mul(a.transpose())):
            assert_sparse(mat)
    assert_sparse(identity(4))


def with_stored_zeros(rng, mat):
    """The same matrix with zeros (int or Fraction) written into its rows."""
    rows = []
    for row in mat.rows:
        row = dict(row)
        for j in rng.sample(range(mat.ncols), rng.randint(0, mat.ncols)):
            row.setdefault(j, rng.choice((0, Fraction(0))))
        rows.append(row)
    return RationalMatrix(rows, mat.ncols)


def test_stored_zeros_do_not_change_results():
    # a stored zero breaks the constructor's precondition, but every route
    # to `echelon` drops it anyway
    mat = RationalMatrix([{0: 0, 1: 1}, {1: 1}], 2)
    assert mat.rank() == 1 and pivot_columns(mat) == [1]
    mat = RationalMatrix([{0: 0, 1: 1}, {0: 0, 1: 2}], 2)
    assert mat.rank() == 1
    rng = random.Random(41)
    for _ in range(60):
        a = rand_matrix(rng, rng.randint(1, 5), rng.randint(1, 5), span=2,
                        denom=rng.random() < 0.5)
        za = with_stored_zeros(rng, a)
        assert za.rank() == a.rank()
        assert pivot_columns(za) == pivot_columns(a)
    # rows that are empty or hold only stored zeros, as a direct sum of
    # string modules has them: rank and pivots still match the reference
    for _ in range(60):
        nrows, ncols = rng.randint(1, 9), rng.randint(1, 9)
        a = matrix([[rng.choice((0, 0, 0, 0, 1, -1, Fraction(1, 2)))
                             for _ in range(ncols)] if rng.random() < 0.5
                            else [0] * ncols for _ in range(nrows)])
        za = with_stored_zeros(rng, a)
        assert za.rank() == a.rank() == len(gauss_jordan_pivots(a))
        assert pivot_columns(za) == pivot_columns(a) == gauss_jordan_pivots(a)
    # an all-int row of nonzeros goes to `echelon` as it is, uncopied
    row = {0: 2, 3: -1}
    assert _int_row(row) is row


def counting_int_row(monkeypatch):
    """Patch exactla._int_row to record the rows it is called on; returns
    that list."""
    calls, original = [], exactla._int_row

    def counted(row):
        calls.append(row)
        return original(row)

    monkeypatch.setattr(exactla, "_int_row", counted)
    return calls


def test_rows_no_pivot_meets_are_never_cleaned(monkeypatch):
    # B of this band module holds a lambda of 1/2, and no two of its rows
    # share a leading column: no row is reduced, so none is cleaned
    band = band_module(Word("xxyxy", AlgebraParams(3, 3)), [Fraction(1, 2), 3])
    assert any(type(v) is Fraction for row in band.B.rows for v in row.values())
    calls = counting_int_row(monkeypatch)
    for mat in (band.A, band.B):
        ref = gauss_jordan_pivots(mat)
        assert mat.rank() == len(ref) and pivot_columns(mat) == ref
    assert calls == []
    # its transpose has two entries in column 9: the later row and the
    # pivot row it meets are cleaned once each
    ref = gauss_jordan_pivots(band.B.transpose())
    assert band.B.transpose().rank() == len(ref) == 4
    assert len(calls) == 2


def test_fraction_pivot_rows_are_cleaned_when_used():
    half = Fraction(1, 2)
    cases = [
        # the pivot row {0: 1/2, 1: 1} is met by twice itself
        [{0: half, 1: 1}, {0: 1, 1: 2}],
        [{0: half, 1: 1}, {0: 1, 2: 1}],
        # the third row, cleaned at column 0, then meets the pivot row
        # {1: 1/2} that no row met before
        [{0: 1, 1: 1}, {1: half}, {0: 1}],
        [{0: 1, 1: 1}, {1: half, 2: Fraction(-3, 4)}, {0: 2, 2: 1}, {1: 3}],
    ]
    for rows in cases:
        mat = RationalMatrix(rows, 3)
        ref = gauss_jordan_pivots(mat)
        assert mat.rank() == len(ref)
        assert pivot_columns(mat) == ref


def test_stored_zero_leading_a_new_column():
    # {0: 0, 2: 1} leads at column 0, which has no pivot yet: it must
    # not become the pivot of column 0 that {0: 5} then meets
    mat = RationalMatrix([{0: 0, 2: 1}, {0: 5}], 3)
    ref = gauss_jordan_pivots(mat)
    assert ref == [0, 2]
    assert mat.rank() == 2 and pivot_columns(mat) == ref


def test_mul_shape_check():
    with pytest.raises(ValueError):
        identity(2).mul(identity(3))


def test_transpose_involution():
    rng = random.Random(3)
    m = rand_matrix(rng, 4, 6, denom=True)
    assert m.transpose().transpose() == m
    assert m.transpose().dense()[2][1] == m.dense()[1][2]


# -- rank ------------------------------------------------------------------

def test_rank_hand_examples():
    assert matrix([[1, 2], [2, 4]]).rank() == 1
    assert matrix([[1, 2], [2, 5]]).rank() == 2
    assert matrix([[0, 0], [0, 0]]).rank() == 0
    # needs a column swap to find its first pivot
    assert matrix([[0, 1], [0, 0]]).rank() == 1
    # denominators: rows scale to ints without changing the rank
    assert matrix([["1/2", "1/3"], ["3/2", "1"]]).rank() == 1  # det = 0
    assert matrix([["1/2", "1/3"], ["3/2", "2"]]).rank() == 2  # det = 1/2


def test_rank_against_gauss_random():
    rng = random.Random(11)
    mats = [
        rand_matrix(rng, rng.randint(1, 7), rng.randint(1, 7), denom=rng.random() < 0.5)
        for _ in range(60)
    ]
    # mostly-zero 0/+-1 matrices, the shape of the Ext^1 compositions
    for _ in range(40):
        nrows, ncols = rng.randint(1, 12), rng.randint(1, 12)
        mats.append(matrix(
            [[rng.choice((0, 0, 0, 0, 1, -1)) for _ in range(ncols)] for _ in range(nrows)]
        ))
    for m in mats:
        ref = gauss_jordan_pivots(m)
        assert m.rank() == len(ref)
        assert pivot_columns(m) == ref


def test_rank_known_values():
    rng = random.Random(13)
    for _ in range(40):
        nrows, ncols = rng.randint(2, 7), rng.randint(2, 7)
        r = rng.randint(0, min(nrows, ncols))
        if r == 0:
            assert RationalMatrix([{} for _ in range(nrows)], ncols).rank() == 0
        else:
            assert rand_with_rank(rng, nrows, ncols, r).rank() == r


def test_rank_transpose_invariant():
    rng = random.Random(17)
    for _ in range(25):
        m = rand_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        assert m.rank() == m.transpose().rank()


def test_rank_large_entries_exact():
    # a matrix floating point gets wrong: nearly dependent rows with huge
    # entries; exact arithmetic must see rank 2
    big = 10**30
    m = matrix([[big, big + 1], [big - 1, big]])
    # determinant = big^2 - (big+1)(big-1) = 1
    assert m.rank() == 2


# -- no floats -------------------------------------------------------------

def test_int_matrices_never_produce_floats():
    # 1 / int is a float, and a float elimination of [[3, 7], [9, 21]]
    # leaves 21 - 9 * (7 / 3) != 0 behind: a second pivot
    m = matrix([[3, 7], [9, 21]])
    assert pivot_columns(m) == [0]
    rng = random.Random(31)
    for _ in range(40):
        ncols = rng.randint(1, 5)
        a = matrix(
            [[rng.randint(-3, 3) for _ in range(ncols)] for _ in range(rng.randint(1, 5))]
        )
        x_true = matrix([[rng.randint(-3, 3)] for _ in range(a.ncols)])
        b = a.mul(x_true)
        for mat in (a.mul(a.transpose()), b, x_true):
            assert all(type(v) is int for v in entries(mat))
        ref = gauss_jordan_pivots(a)
        assert pivot_columns(a) == ref

