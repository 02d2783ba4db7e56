"""Exact linear algebra for small integer matrices.

One elimination serves every question: a fraction-free Gauss-Jordan
elimination in integers (E. H. Bareiss, "Sylvester's identity and multistep
integer-preserving Gaussian elimination", Math. Comp. 22, 1968).
Solutions and Sylvester's criterion are both read off its pivots and
reduced rows.  `Fraction` appears only in the coefficients a solve
returns, and no floating point is used anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence


def _eliminate(matrix: Sequence[Sequence[int]],
               ncols: int) -> tuple[list[list[int]], list[tuple[int, int, int]]]:
    """Fraction-free Gauss-Jordan elimination, pivoting only in the first `ncols` columns.

    Each step takes the first row at or below the next pivot row with a
    nonzero entry in the next column that has one, swaps it up, and sets
    every other row to (pivot * row - head * pivot row) / previous pivot,
    head being the row's entry in the pivot column.  Every entry is then a
    minor of the input, so each division is exact.  Returns the reduced rows
    and one (row, column, value) per pivot: the row it was found in before
    the swap, its column and its value when chosen.  After the last step
    every pivot row holds the last pivot in its pivot column.
    """
    rows = [list(row) for row in matrix]
    pivots: list[tuple[int, int, int]] = []
    prev = 1
    for col in range(ncols):
        top = len(pivots)
        found = next((r for r in range(top, len(rows)) if rows[r][col]), None)
        if found is None:
            continue
        rows[top], rows[found] = rows[found], rows[top]
        lead = rows[top]
        pivot = lead[col]
        for r, row in enumerate(rows):
            if r != top:
                head = row[col]
                rows[r] = [(pivot * a - head * b) // prev for a, b in zip(row, lead)]
        pivots.append((found, col, pivot))
        prev = pivot
    return rows, pivots


def solve_columns(columns: Sequence[Sequence[int]], target: Sequence[int]) -> list[Fraction] | None:
    """Coefficients a with sum_j a_j * columns[j] = target, or None.

    Requires the columns to be linearly independent, so a solution is unique
    when it exists.  An empty column list solves only the zero target.  Each
    coefficient is a reduced right-hand side over the last pivot, the
    determinant of the pivot block.
    """
    ncols = len(columns)
    aug = [[column[i] for column in columns] + [target[i]] for i in range(len(target))]
    rows, pivots = _eliminate(aug, ncols)
    if len(pivots) < ncols or any(row[ncols] for row in rows[ncols:]):
        return None
    det = pivots[-1][2] if pivots else 1
    return [Fraction(rows[k][ncols], det) for k in range(ncols)]


def nonneg_int_combination(columns: Sequence[Sequence[int]], target: Sequence[int]) -> list[int] | None:
    """Non-negative integer coefficients expressing target in the columns, or None."""
    coeffs = solve_columns(columns, target)
    if coeffs is None:
        return None
    if any(c.denominator != 1 or c < 0 for c in coeffs):
        return None
    return [int(c) for c in coeffs]


def is_positive_definite(sym: Sequence[Sequence[int]]) -> bool:
    """Sylvester criterion: all leading principal minors positive.

    Without a row swap the k-th pivot of the elimination is the k-th leading
    minor; a zero leading minor forces a row swap or a skipped column.  So
    the criterion holds exactly when every pivot is the diagonal entry of
    its own row and was positive when it was chosen.
    """
    n = len(sym)
    _, pivots = _eliminate(sym, n)
    return len(pivots) == n and all(
        row == k and col == k and value > 0 for k, (row, col, value) in enumerate(pivots))
