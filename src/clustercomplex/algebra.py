"""Symmetrizable Cartan data with an acyclic orientation, and its Euler form.

An algebra is described entirely by three pieces of integer data: a
symmetrizable generalized Cartan matrix C, a symmetrizer u of positive
integers, and an acyclic arrow set.  The Euler matrix E is derived from
them: E[i][i] = u[i], E[i][j] = c_ij * u_i for an arrow (i, j), and 0
elsewhere.  Dimension vectors are plain tuples of ints; the bilinear form
<x, y> = x^T E y plays the role of hom-length minus ext-length.

Vertices are 0-based everywhere in this package; JSON input and output use
1-based labels.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import (
    ArrowWithoutEntry,
    CyclicOrientation,
    DimensionMismatch,
    InvalidAlgebra,
    NegativeCoordinate,
    NotSymmetrizable,
    ParseError,
)

DimVector = tuple[int, ...]


@dataclass(frozen=True)
class AlgebraData:
    """Validated Cartan data.  Immutable; all operations on it are pure."""

    n: int
    cartan: tuple[tuple[int, ...], ...]
    symmetrizer: tuple[int, ...]
    arrows: frozenset[tuple[int, int]]
    euler: tuple[tuple[int, ...], ...]


def build_algebra(cartan: Sequence[Sequence[int]],
                  symmetrizer: Sequence[int],
                  arrows: Iterable[tuple[int, int]]) -> AlgebraData:
    """Validate Cartan matrix, symmetrizer and orientation; compute the Euler matrix.

    The arrows are 0-based vertex pairs, but an error names every vertex
    by its 1-based label, the one JSON input uses."""
    try:
        c = tuple(tuple(_integer(x, "Cartan entry") for x in row) for row in cartan)
        u = tuple(_integer(x, "symmetrizer entry") for x in symmetrizer)
        arrow_set = frozenset((_integer(a, "arrow end"), _integer(b, "arrow end"))
                              for a, b in arrows)
    except (TypeError, ValueError) as exc:
        raise InvalidAlgebra(str(exc)) from exc
    n = len(c)
    if len(u) != n or any(len(row) != n for row in c):
        raise DimensionMismatch(f"inconsistent shapes: C is {len(c)} rows, u has {len(u)} entries")
    for i in range(n):
        if c[i][i] != 2:
            raise InvalidAlgebra(f"c[{i + 1}][{i + 1}] = {c[i][i]}, diagonal entries must be 2")
        for j in range(n):
            if i != j and c[i][j] > 0:
                raise InvalidAlgebra(f"c[{i + 1}][{j + 1}] = {c[i][j]}, "
                                     "off-diagonal entries must be <= 0")
        if u[i] < 1:
            raise InvalidAlgebra(f"symmetrizer entry u[{i + 1}] = {u[i]} must be positive")
    for i in range(n):
        for j in range(i + 1, n):
            if u[i] * c[i][j] != u[j] * c[j][i]:
                raise NotSymmetrizable(f"u[{i + 1}]*c[{i + 1}][{j + 1}] = {u[i] * c[i][j]} != "
                                       f"{u[j] * c[j][i]} = u[{j + 1}]*c[{j + 1}][{i + 1}]")

    for (i, j) in arrow_set:
        arrow = f"arrow [{i + 1}, {j + 1}]"
        if not (0 <= i < n and 0 <= j < n):
            raise InvalidAlgebra(f"{arrow} has an end outside the labels 1..{n}")
        if i == j:
            raise InvalidAlgebra(f"{arrow} is a loop")
        if c[i][j] == 0:
            raise ArrowWithoutEntry(f"{arrow} joins vertices {i + 1} and {j + 1}, "
                                    "whose Cartan entry is 0")
    for i in range(n):
        for j in range(i + 1, n):
            if c[i][j] < 0 and (i, j) not in arrow_set and (j, i) not in arrow_set:
                raise InvalidAlgebra(f"vertices {i + 1} and {j + 1} are coupled in the Cartan "
                                     "matrix but no arrow joins them")

    _check_acyclic(n, arrow_set)

    euler = tuple(
        tuple(u[i] if i == j else (c[i][j] * u[i] if (i, j) in arrow_set else 0)
              for j in range(n))
        for i in range(n))
    return AlgebraData(n=n, cartan=c, symmetrizer=u, arrows=arrow_set, euler=euler)


def _integer(x, what: str) -> int:
    """x as an int; bools, non-integral numbers and non-numbers raise TypeError."""
    if isinstance(x, float) and x.is_integer():
        return int(x)
    if not isinstance(x, int) or isinstance(x, bool):
        raise TypeError(f"{what} {x!r} is not an integer")
    return x


def _check_acyclic(n: int, arrows: frozenset[tuple[int, int]]) -> None:
    indeg = [0] * n
    out: list[list[int]] = [[] for _ in range(n)]
    for (i, j) in arrows:
        out[i].append(j)
        indeg[j] += 1
    queue = [v for v in range(n) if indeg[v] == 0]
    seen = 0
    while queue:
        v = queue.pop()
        seen += 1
        for w in out[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                queue.append(w)
    if seen != n:
        raise CyclicOrientation("orientation contains an oriented cycle")


def euler_form(algebra: AlgebraData, x: Sequence[int], y: Sequence[int]) -> int:
    """The bilinear form x^T E y."""
    if len(x) != algebra.n or len(y) != algebra.n:
        raise DimensionMismatch(f"expected {algebra.n} coordinates")
    e = algebra.euler
    return sum(x[i] * e[i][j] * y[j]
               for i in range(algebra.n) for j in range(algebra.n) if e[i][j])


def length(algebra: AlgebraData, x: Sequence[int]) -> int:
    """Total length sum_i u_i * x_i of a non-negative dimension vector."""
    if len(x) != algebra.n:
        raise DimensionMismatch(f"expected {algebra.n} coordinates")
    if any(c < 0 for c in x):
        raise NegativeCoordinate(f"negative coordinate in {tuple(x)}")
    return sum(u * c for u, c in zip(algebra.symmetrizer, x))


def unit_vector(n: int, i: int) -> DimVector:
    return tuple(1 if k == i else 0 for k in range(n))


def format_dimv(dimv: Sequence[int]) -> str:
    return "(" + ",".join(str(c) for c in dimv) + ")"


# -- JSON interchange --------------------------------------------------------
#
# {"n": 2, "cartan": [[2,-1],[-3,2]], "symmetrizer": [3,1], "arrows": [[1,2]]}
# with 1-based vertex labels.

def algebra_to_dict(algebra: AlgebraData) -> dict:
    return {
        "n": algebra.n,
        "cartan": [list(row) for row in algebra.cartan],
        "symmetrizer": list(algebra.symmetrizer),
        "arrows": sorted([a + 1, b + 1] for (a, b) in algebra.arrows),
    }


def algebra_from_dict(data: dict) -> AlgebraData:
    """The algebra of a JSON object with 1-based labels; `build_algebra`
    validates it and names every vertex, arrow ends too, as written."""
    try:
        cartan = data["cartan"]
        symmetrizer = data["symmetrizer"]
        arrows = [(_integer(a, "arrow end"), _integer(b, "arrow end"))
                  for a, b in data.get("arrows", [])]
        declared = _integer(data["n"], "declared n") if "n" in data else None
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed algebra data: {exc}") from exc
    algebra = build_algebra(cartan, symmetrizer, [(a - 1, b - 1) for a, b in arrows])
    if declared is not None and declared != algebra.n:
        raise ParseError(f"declared n = {declared} but cartan has {algebra.n} rows")
    return algebra


def load_algebra(path: str) -> AlgebraData:
    """The algebra in a JSON file.  A file that cannot be opened, is not
    UTF-8 (ValueError, as is a JSON error) or nests too deeply to decode
    (RecursionError) raises ParseError."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except (OSError, ValueError, RecursionError) as exc:
        raise ParseError(f"cannot read algebra from {path}: {exc}") from exc
    return algebra_from_dict(data)
