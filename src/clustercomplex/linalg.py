"""Exact linear algebra for small integer matrices.

One question is asked: is a symmetric integer matrix positive definite?
Sylvester's criterion answers it, read off a fraction-free forward
elimination in integers (E. H. Bareiss, "Sylvester's identity and multistep
integer-preserving Gaussian elimination", Math. Comp. 22, 1968).  No
floating point is used anywhere.
"""

from __future__ import annotations

from typing import Sequence


def is_positive_definite(sym: Sequence[Sequence[int]]) -> bool:
    """Sylvester criterion: all leading principal minors positive.

    Bareiss forward elimination with no row swaps: each step sets every row
    below the pivot row to (pivot * row - head * pivot row) / previous pivot,
    head being the row's entry in the pivot column.  Every entry is then a
    minor of the input, so each division is exact, and the k-th pivot is the
    k-th leading minor.  The criterion fails at the first pivot <= 0, before
    a zero pivot could be divided by.
    """
    rows = [list(row) for row in sym]
    prev = 1
    for k in range(len(rows)):
        lead = rows[k]
        pivot = lead[k]
        if pivot <= 0:
            return False
        for r in range(k + 1, len(rows)):
            head = rows[r][k]
            rows[r] = [(pivot * a - head * b) // prev for a, b in zip(rows[r], lead)]
        prev = pivot
    return True
