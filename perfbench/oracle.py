"""Expected answers, computed without calling the package.

Counts come from the classical formulas: a finite type with Coxeter number h
and exponents e_1..e_n has nh/2 positive roots and
prod (h + e_i + 1) / (e_i + 1) clusters (Fomin-Zelevinsky, "Y-systems and
generalized associahedra", 2003); a rank-2 window at t_max has 4 t_max + 4
members and 4 t_max + 5 facets.  Hom and ext lengths between exceptional
members of a finite type are read off the sign of the raw Euler pairing.
"""

from __future__ import annotations

import random
from collections import deque
from fractions import Fraction

from inputs import DynkinType


def catalan(kind: DynkinType) -> int:
    value = Fraction(1)
    for e in kind.exponents:
        value *= Fraction(kind.h + e + 1, e + 1)
    assert value.denominator == 1
    return int(value)


def root_count(kind: DynkinType) -> int:
    return kind.n * kind.h // 2


def window_facets(t_max: int) -> int:
    return 4 * t_max + 5


def window_members(t_max: int) -> int:
    return 4 * t_max + 4


def euler_matrix(cartan, symmetrizer, arrows) -> list[list[int]]:
    """E[i][i] = u_i, E[i][j] = c_ij u_i for an arrow i -> j, 0 elsewhere."""
    n = len(cartan)
    e = [[0] * n for _ in range(n)]
    for i in range(n):
        e[i][i] = symmetrizer[i]
    for i, j in arrows:
        e[i][j] = cartan[i][j] * symmetrizer[i]
    return e


def positive_roots(cartan) -> set[tuple[int, ...]]:
    """Reflection closure of the unit vectors inside the positive cone."""
    n = len(cartan)
    units = [tuple(int(k == i) for k in range(n)) for i in range(n)]
    seen = set(units)
    queue = deque(units)
    while queue:
        x = queue.popleft()
        for i in range(n):
            shift = sum(cartan[i][j] * x[j] for j in range(n))
            y = x[:i] + (x[i] - shift,) + x[i + 1:]
            if y not in seen and min(y) >= 0:
                seen.add(y)
                queue.append(y)
    return seen


class FiniteOracle:
    """Pairings, rigid sets and answer checks over the roots of one algebra."""

    def __init__(self, cartan, symmetrizer, arrows):
        self.n = len(cartan)
        self.size = self.n  # members of a tilting set
        self.euler = euler_matrix(cartan, symmetrizer, arrows)
        self.roots = sorted(positive_roots(cartan))
        # <x, y> = x . (E y) for every ordered pair of roots
        e_times = {y: [sum(row[j] * y[j] for j in range(self.n)) for row in self.euler]
                   for y in self.roots}
        self._form = {(x, y): sum(a * b for a, b in zip(x, ey))
                      for x in self.roots for y, ey in e_times.items()}

    def ext(self, x, y) -> int:
        return max(-self._form[x, y], 0)

    def hom_ext(self, x, y) -> tuple[int, int]:
        b = self._form[x, y]
        return (b, 0) if x == y else (max(b, 0), max(-b, 0))

    def compatible(self, x, y) -> bool:
        return self.ext(x, y) == 0 and self.ext(y, x) == 0

    def draw_rigid(self, rng: random.Random, size: int) -> list[tuple[int, ...]]:
        """A random rigid set of `size` roots, drawn greedily.

        In finite type every rigid set extends to a tilting set of n members,
        so the greedy scan never stops short of `size` <= n.
        """
        order = list(self.roots)
        rng.shuffle(order)
        chosen: list[tuple[int, ...]] = []
        for x in order:
            if len(chosen) == size:
                break
            if all(self.compatible(x, y) for y in chosen):
                chosen.append(x)
        assert len(chosen) == size
        return chosen

    def sincere(self, dimvs) -> bool:
        return all(any(d[v] for d in dimvs) for v in range(self.n))

    def completion_error(self, t, b, dual: bool) -> str | None:
        """Why B is not the canonical (dual if `dual`) completion of T, or None."""
        if len(t) + len(b) != self.size or set(t) & set(b):
            return f"|T| + |B| = {len(t)} + {len(b)}, expected {self.size} disjoint"
        members = list(t) + list(b)
        for k, x in enumerate(members):
            for y in members[k + 1:]:
                if not self.compatible(x, y):
                    return f"{x} and {y} have ext"
        if dual:
            orth = [m for m in self.roots if all(self.ext(m, x) == 0 for x in t)]
            bad = [(m, c) for c in b for m in orth if self.ext(m, c)]
        else:
            orth = [m for m in self.roots if all(self.ext(x, m) == 0 for x in t)]
            bad = [(c, m) for c in b for m in orth if self.ext(c, m)]
        if bad:
            return f"ext-vanishing test fails at {bad[0]}"
        return None

    def complements_error(self, t, found) -> str | None:
        want = 2 if self.sincere(t) else 1
        if len(set(found)) != len(found) or len(found) != want:
            return f"{len(found)} complements, expected {want}"
        for x in found:
            if x in t or not all(self.compatible(x, y) for y in t):
                return f"complement {x} is not compatible with T"
        return None
