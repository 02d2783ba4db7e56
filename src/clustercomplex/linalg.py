"""Exact rational linear algebra for small integer matrices.

Everything here is exact: eliminations work over Fractions, and the
positive-definiteness test over integers alone.  No floating point is used
anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence


def gauss_jordan(matrix: Sequence[Sequence[int]],
                 ncols: int | None = None) -> tuple[list[list[Fraction]], list[int], int]:
    """Exact Gauss-Jordan elimination, pivoting only in the first `ncols` columns.

    Returns the reduced rows, the pivot columns and the sign of the row swaps.
    The k-th row holds the k-th pivot, which is cleared from every other row;
    rows are never scaled, so the determinant of a square matrix is the swap
    sign times the product of its pivots.
    """
    rows = [[Fraction(x) for x in row] for row in matrix]
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    pivots: list[int] = []
    sign = 1
    for col in range(ncols):
        if len(pivots) == len(rows):
            break
        top = len(pivots)
        pivot = next((r for r in range(top, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        if pivot != top:
            rows[top], rows[pivot] = rows[pivot], rows[top]
            sign = -sign
        pv = rows[top][col]
        for r in range(len(rows)):
            if r != top and rows[r][col]:
                factor = rows[r][col] / pv
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[top])]
        pivots.append(col)
    return rows, pivots, sign


def det(matrix: Sequence[Sequence[int]]) -> Fraction:
    """Determinant of a square matrix."""
    rows, pivots, sign = gauss_jordan(matrix)
    if len(pivots) < len(matrix):
        return Fraction(0)
    result = Fraction(sign)
    for k in range(len(rows)):
        result *= rows[k][k]
    return result


def rank(vectors: Sequence[Sequence[int]]) -> int:
    """Rank of the span of the given vectors over the rationals."""
    return len(gauss_jordan(vectors)[1])


def solve_square(matrix: Sequence[Sequence[int]], rhs: Sequence[int]) -> list[Fraction] | None:
    """Solve M x = rhs for square M; None when M is singular."""
    return solve_columns(list(zip(*matrix)), rhs)


def solve_columns(columns: Sequence[Sequence[int]], target: Sequence[int]) -> list[Fraction] | None:
    """Coefficients a with sum_j a_j * columns[j] = target, or None.

    Requires the columns to be linearly independent, so a solution is unique
    when it exists.  An empty column list solves only the zero target.
    """
    ncols = len(columns)
    aug = [[column[i] for column in columns] + [target[i]] for i in range(len(target))]
    rows, pivots, _ = gauss_jordan(aug, ncols)
    if len(pivots) < ncols or any(row[ncols] for row in rows[ncols:]):
        return None
    return [rows[k][ncols] / rows[k][k] for k in range(ncols)]


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

    One fraction-free elimination in integers, without row swaps (E. H.
    Bareiss, "Sylvester's identity and multistep integer-preserving Gaussian
    elimination", Math. Comp. 22, 1968): after step k every entry below and
    right of the pivot is a (k + 1)-by-(k + 1) minor bordering the leading
    block, so the k-th pivot is the k-th leading minor, and each division by
    the previous pivot is exact.  The walk stops at the first pivot <= 0.
    """
    rows = [list(row) for row in sym]
    n = len(rows)
    prev = 1
    for k in range(n):
        pivot = rows[k][k]
        if pivot <= 0:
            return False
        top = rows[k]
        for row in rows[k + 1:]:
            head = row[k]
            for j in range(k + 1, n):
                row[j] = (row[j] * pivot - head * top[j]) // prev
        prev = pivot
    return True
