"""Exact linear algebra over the rationals, integer first and sparse.

Every dimension this package reports is ultimately the rank of a matrix,
and ranks computed in floating point lie silently.  So entries are exact:
an integral value is stored as a plain int, and a Fraction is kept only
for a value that is not an integer (rational band parameters).  Values
from outside the package -- band lambdas -- pass `_entry`, which refuses
floats, and so does each entry of a product that is not an int.

The module matrices downstream are mostly zeros and mostly 0/1, so a
matrix is built once, from sparse {col: entry} rows of its nonzero
entries, and stays in that form through products and elimination;
`dense()` gives the zeros back for output only.  Every product goes
through one routine, `RationalMatrix.mul`, and every elimination -- rank
and pivot columns -- through one, `echelon`, which takes the rows as
they are and reduces each against an incremental echelon keyed by
leading column, with the fraction-free step row * piv - f * pivot_row
followed by division by the row's content gcd (Bareiss 1968).  A row is
scaled to ints only when it is reduced, so a pivot row may hold
Fractions; the integers stay small.
"""

from __future__ import annotations

from math import gcd, lcm


def _entry(v):
    """v as an exact entry: an int when integral, else a Fraction."""
    if type(v) is int:
        return v
    if isinstance(v, float):
        raise TypeError(f"refusing float entry {v!r}; use Fraction or int")
    # imported on the first entry that is not an int: matrices of int
    # entries, all that `verify` builds, never load fractions
    from fractions import Fraction
    v = Fraction(v)
    return v.numerator if v.denominator == 1 else v


class RationalMatrix:
    """A matrix of exact entries, stored as a list of sparse rows.

    rows[i] is the {col: entry} dict of the nonzero entries of row i.
    The constructor wraps the rows as they are, with no copy and no
    check, so the caller guarantees that every stored entry is nonzero
    and exact (an int when integral, else a Fraction, as `_entry`
    gives) and every column is below ncols.  Rows are never written
    after construction: neither the methods nor their callers modify a
    matrix, so matrices may share row dicts.
    """

    __slots__ = ("nrows", "ncols", "rows")

    def __init__(self, rows: list, ncols: int):
        self.rows = rows
        self.nrows, self.ncols = len(rows), ncols

    def dense(self) -> list:
        """The entries as a list of row lists, zeros included."""
        return [[row.get(j, 0) for j in range(self.ncols)] for row in self.rows]

    def __eq__(self, other):
        return (
            isinstance(other, RationalMatrix)
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.rows == other.rows
        )

    def __repr__(self):
        return f"RationalMatrix({self.nrows}x{self.ncols})"

    def transpose(self) -> "RationalMatrix":
        cols = [{} for _ in range(self.ncols)]
        for i, row in enumerate(self.rows):
            for j, v in row.items():
                cols[j][i] = v
        return RationalMatrix(cols, self.nrows)

    def mul(self, other: "RationalMatrix") -> "RationalMatrix":
        """Matrix product self @ other over the nonzero entries only;
        entries that cancel to 0 are dropped."""
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch {self.ncols} vs {other.nrows}")
        right, rows = other.rows, []
        for row in self.rows:
            acc = {}
            for k, v in row.items():
                for j, w in right[k].items():
                    acc[j] = acc.get(j, 0) + v * w
            rows.append({j: _entry(v) for j, v in acc.items() if v})
        return RationalMatrix(rows, other.ncols)

    def rank(self) -> int:
        """Rank: the pivots of `echelon` on the nonempty rows as they are."""
        return len(echelon(filter(None, self.rows)))


# ---------------------------------------------------------------------------
# the elimination
# ---------------------------------------------------------------------------

def _int_row(row: dict) -> dict:
    """A sparse row as a {col: int} row of nonzeros spanning the same
    line: the row itself when its entries are nonzero ints, else scaled
    by the lcm of its denominators with stored zeros dropped.  `echelon`
    calls it on a row only to reduce it, or when a stored zero leads."""
    for v in row.values():
        if type(v) is not int or not v:
            break
    else:
        return row
    m = lcm(*(v.denominator for v in row.values()))
    return {j: v.numerator * (m // v.denominator) for j, v in row.items() if v}


def echelon(rows) -> dict:
    """Fraction-free echelon form of sparse rows of exact entries.

    Returns {leading column: row}, one row per pivot; it spans the same
    row space as the input.  Each incoming row is reduced by the pivot
    row of its current leading column until its leading column is new
    (it becomes a pivot) or it vanishes.  `_int_row` cleans a row when
    it is first reduced or led by a stored zero, and a pivot row when it
    is first used, so a pivot row that nothing met may hold Fractions.
    """
    pivots, cleaned = {}, set()
    for row in rows:
        raw = True
        while row:
            c = min(row)
            prow = pivots.get(c)
            if raw and (prow is not None or not row[c]):
                row, raw = _int_row(row), False
                continue
            if prow is None:
                pivots[c] = row
                break
            if c not in cleaned:
                cleaned.add(c)
                prow = pivots[c] = _int_row(prow)
            row = _eliminate(row, prow, c)
    return pivots


def _eliminate(row: dict, prow: dict, c: int) -> dict:
    """row * piv - f * prow, reduced by its content gcd, where piv and f
    are the entries at c of prow and row divided by their gcd; the result
    vanishes at c."""
    piv, f = prow[c], row[c]
    g = gcd(piv, f)
    piv, f = piv // g, f // g
    out = dict(row) if piv == 1 else {j: v * piv for j, v in row.items()}
    for j, w in prow.items():
        v = out.get(j, 0) - f * w
        if v:
            out[j] = v
        else:
            del out[j]
    g = gcd(*out.values())
    if g > 1:
        out = {j: v // g for j, v in out.items()}
    return out


def pivot_columns(mat: RationalMatrix) -> list[int]:
    """Indices of a left-to-right greedy maximal independent set of
    columns: the pivot columns of the reduced echelon form, which are the
    leading columns of any echelon form of the rows."""
    return sorted(echelon(filter(None, mat.rows)))

