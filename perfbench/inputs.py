"""Seeded inputs: Cartan data with a drawn orientation, written as algebra JSON.

Everything here is built from classical tables, not from the package, so the
same seed gives byte-identical inputs on every commit.  Vertices are 0-based
in this module and 1-based in the JSON files, as `verify --input` reads them.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class DynkinType:
    """A connected Dynkin diagram of finite type with its Coxeter data.

    `edges` are the diagram's edges (i, j); `cartan_entries` overrides
    c_ij = c_ji = -1 for the valued edges.  `h` is the Coxeter number and
    `exponents` the exponents, which give the expected root and facet counts.
    """

    n: int
    edges: tuple[tuple[int, int], ...]
    symmetrizer: tuple[int, ...]
    h: int
    exponents: tuple[int, ...]
    cartan_entries: tuple[tuple[int, int, int], ...] = ()

    def cartan(self) -> list[list[int]]:
        c = [[2 if i == j else 0 for j in range(self.n)] for i in range(self.n)]
        for i, j in self.edges:
            c[i][j] = c[j][i] = -1
        for i, j, value in self.cartan_entries:
            c[i][j] = value
        return c


def _chain(n: int) -> tuple[tuple[int, int], ...]:
    return tuple((i, i + 1) for i in range(n - 1))


FINITE_TYPES = {
    "A6": DynkinType(6, _chain(6), (1,) * 6, 7, (1, 2, 3, 4, 5, 6)),
    "D6": DynkinType(6, _chain(5) + ((3, 5),), (1,) * 6, 10, (1, 3, 5, 5, 7, 9)),
    "E6": DynkinType(6, _chain(5) + ((2, 5),), (1,) * 6, 12, (1, 4, 5, 7, 8, 11)),
    # The short root sits at the end of the chain: u = (2, ..., 2, 1), so the
    # measure divides by sqrt(q) with q = 2 on most members.
    "B6": DynkinType(6, _chain(6), (2,) * 5 + (1,), 12, (1, 3, 5, 7, 9, 11),
                     cartan_entries=((5, 4, -2),)),
    "E7": DynkinType(7, _chain(6) + ((2, 6),), (1,) * 7, 18, (1, 5, 7, 9, 11, 13, 17)),
}

# Representation-infinite rank-2 algebras: (cartan, symmetrizer).
RANK2_TYPES = {
    "kronecker": ([[2, -2], [-2, 2]], (1, 1)),
    "valued15": ([[2, -1], [-5, 2]], (5, 1)),
}


def orient(edges, rng: random.Random) -> list[tuple[int, int]]:
    """Give each edge a random direction.

    The diagrams used here are trees, so every orientation is acyclic.
    """
    return [(i, j) if rng.random() < 0.5 else (j, i) for i, j in edges]


def finite_algebra(name: str, rng: random.Random) -> dict:
    kind = FINITE_TYPES[name]
    return algebra_dict(kind.cartan(), kind.symmetrizer, orient(kind.edges, rng))


def rank2_algebra(name: str, rng: random.Random) -> dict:
    cartan, symmetrizer = RANK2_TYPES[name]
    return algebra_dict(cartan, symmetrizer, orient([(0, 1)], rng))


def algebra_dict(cartan, symmetrizer, arrows) -> dict:
    return {
        "n": len(cartan),
        "cartan": [list(row) for row in cartan],
        "symmetrizer": list(symmetrizer),
        "arrows": [[i + 1, j + 1] for i, j in arrows],
    }


def arrows_of(data: dict) -> list[tuple[int, int]]:
    """0-based arrows of an algebra dict."""
    return [(i - 1, j - 1) for i, j in data["arrows"]]


def write_algebra(path: Path, data: dict) -> str:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(data) + "\n", encoding="utf-8")
    return str(path)
