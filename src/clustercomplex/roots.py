"""Catalogs of exceptional dimension vectors.

Two regimes are supported: representation-finite algebras of any rank, where
the catalog is the full set of positive roots, and representation-infinite
rank-2 algebras, where the catalog is a window of the two one-parameter
families obtained by repeatedly shifting the projectives forward and the
injectives backward.  In rank 2 the projectives and injectives have closed
forms (`shift_families`), so no linear system is solved; `linalg` only
decides finiteness.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Sequence

from . import linalg
from .algebra import (
    AlgebraData,
    DimVector,
    euler_form,
    format_dimv,
    length,
    unit_vector,
)
from .errors import (
    NotFiniteType,
    NotRankTwo,
    OracleViolation,
    SearchLimitExceeded,
    UnsupportedAlgebra,
)

FINITE = "finite"
RANK2_INFINITE = "rank2-infinite"
UNSUPPORTED = "unsupported"

PREPROJ = "preproj"
PREINJ = "preinj"

ROOT_LIMIT = 10 ** 6


@dataclass(frozen=True)
class Indec:
    """Numerical stand-in for an exceptional indecomposable.

    q is the self-pairing <dimv, dimv>, the length of the endomorphism
    skew-field.  component/t/vertex tag the twist orbit: ("preproj", t, i)
    stands for the t-th forward shift of the i-th projective, ("preinj", t, i)
    for the t-th backward shift of the i-th injective.
    """

    id: int
    dimv: DimVector
    q: int
    component: str | None = None
    t: int | None = None
    vertex: int | None = None


@dataclass(frozen=True)
class RootCatalog:
    """Ordered, immutable list of Indec entries."""

    kind: str
    algebra: AlgebraData
    entries: tuple[Indec, ...]

    def __len__(self) -> int:
        return len(self.entries)

    @functools.cached_property
    def by_dimv(self) -> dict[DimVector, Indec]:
        return {e.dimv: e for e in self.entries}

    @functools.cached_property
    def labels(self) -> tuple[str, ...]:
        """Each member's dimension vector as printed, "(a,b,...)", by id."""
        return tuple(format_dimv(e.dimv) for e in self.entries)

    @functools.cached_property
    def lengths(self) -> tuple[int, ...]:
        """Total length of each member, by id."""
        return tuple(length(self.algebra, e.dimv) for e in self.entries)

    @functools.cached_property
    def mu_squares(self) -> tuple[Fraction, ...]:
        """Each member's exact squared measure length^2 / q, by id."""
        return tuple(Fraction(ell * ell, e.q) for ell, e in zip(self.lengths, self.entries))

    @functools.cached_property
    def mu_ranks(self) -> tuple[int, ...]:
        """Each member's rank in `mu_squares` (equal measures share a rank), by
        id, taken on the integers ell^2 * (P // q), P the product of the
        distinct q values: P times ell^2 / q, so ranked alike."""
        product = functools.reduce(mul, {e.q for e in self.entries}, 1)
        scaled = [ell * ell * (product // e.q) for ell, e in zip(self.lengths, self.entries)]
        rank = {value: r for r, value in enumerate(sorted(set(scaled)))}
        return tuple(map(rank.__getitem__, scaled))

    @functools.cached_property
    def measure_order(self) -> tuple[int, ...]:
        """Each member's bit 1 << id, by measure rank and then id (the sort
        is stable)."""
        return tuple(1 << i for i in sorted(range(len(self)), key=self.mu_ranks.__getitem__))

    @functools.cached_property
    def endo_classes(self) -> tuple[tuple[int, int], ...]:
        """One (class mask, count) per symmetrizer value c, ascending: the
        mask has, as face bits, every vertex v with u_v = c and every member
        with q = c (bit n + id); count is the number of vertices with u_v = c."""
        n, u = self.algebra.n, self.algebra.symmetrizer
        return tuple((sum(1 << v for v in range(n) if u[v] == c)
                      | sum(1 << (n + e.id) for e in self.entries if e.q == c), u.count(c))
                     for c in sorted(set(u)))

    @functools.cached_property
    def kernel(self):
        """Ext-compatibility bitmasks (`homext.ExtKernel`), built on first use."""
        from .homext import build_kernel

        return build_kernel(self)

    @functools.cached_property
    def lifts(self) -> tuple[int, ...]:
        """lift[x] for each x of the vertex pool, by position, as face bits:
        for a coordinate vertex v, every vertex but v and the members whose
        support misses v; for member i (position n + i), the vertices
        outside supp i and the members compatible with i, but not i
        itself.  A face gaining x keeps at most these bits of its up (the
        lift lemma in `tilting`)."""
        n, kernel = self.algebra.n, self.kernel
        everything = (1 << n) - 1
        return tuple([(kernel.within(everything ^ (1 << v)) << n) | (everything ^ (1 << v))
                      for v in range(n)]
                     + [((mask & ~(1 << i)) << n) | (everything & ~supp)
                        for i, (mask, supp) in enumerate(zip(kernel.compat, kernel.support))])

    @functools.cached_property
    def cluster_complex(self):
        """The complex of the catalog (`polytope.walk_complex`): one walk over
        its rigid sets, built on first use, whose record every command reads."""
        from .polytope import walk_complex

        return walk_complex(self)

    @property
    def facets(self) -> tuple:
        """The faces with n vertices, by ascending vertex tuple, as the
        catalog's complex counts them."""
        return self.cluster_complex.facets

    @functools.cached_property
    def descent_moves(self) -> tuple:
        """Each member's descent move (`measure.member_moves`), by id, found once."""
        from .measure import member_moves

        return member_moves(self)

    def dimvs(self) -> list[DimVector]:
        return [e.dimv for e in self.entries]


def simple_reflection(algebra: AlgebraData, i: int, x: Sequence[int]) -> DimVector:
    """Reflect x in the i-th coordinate: only x_i changes, by sum_j c_ij x_j."""
    shift = sum(algebra.cartan[i][j] * x[j] for j in range(algebra.n))
    return tuple(c - shift if k == i else c for k, c in enumerate(x))


def classify_type(algebra: AlgebraData) -> str:
    """FINITE, RANK2_INFINITE, or UNSUPPORTED.

    Finiteness is detected by positive definiteness of diag(u) * C, which is
    orientation-independent.
    """
    sym = [[algebra.symmetrizer[i] * algebra.cartan[i][j] for j in range(algebra.n)]
           for i in range(algebra.n)]
    if linalg.is_positive_definite(sym):
        return FINITE
    if algebra.n == 2 and algebra.cartan[0][1] * algebra.cartan[1][0] >= 4:
        return RANK2_INFINITE
    return UNSUPPORTED


def positive_roots(algebra: AlgebraData) -> RootCatalog:
    """All positive roots, as the closure of the unit vectors under the
    reflections that raise a root.

    Height lemma: for a positive root x, the reflection at i changes only
    x_i, to x_i - p_i with p_i = sum_j c_ij x_j.  It raises x exactly when
    p_i < 0, and the result is then again a root, with x_i grown and every
    other coordinate kept, so nonnegative.  Conversely every positive root
    x that is not simple has a vertex i with x_i > 0 and p_i > 0 (the
    symmetrized form sum_i u_i x_i p_i is positive on a nonzero x), and
    its reflection there is a positive root of lower height, since x has
    another nonzero coordinate, whose reflection at i raises back to x
    (J. E. Humphreys, "Introduction to Lie Algebras and Representation
    Theory", 10.2).  So by induction on height the raising reflections
    reach every positive root from the simple ones, and only they can give
    a root not yet found.  Each root keeps the simple root it was reached
    from, whose symmetrizer entry its q must equal.

    Entries are sorted by (length, coordinates) and get ids in that order.
    """
    if classify_type(algebra) != FINITE:
        raise NotFiniteType("positive_roots requires a representation-finite algebra")
    n, cartan, u = algebra.n, algebra.cartan, algebra.symmetrizer
    orbit = {unit_vector(n, i): i for i in range(n)}
    queue = list(orbit)
    for x in queue:
        for i, row in enumerate(cartan):
            pairing = sum(map(mul, row, x))
            if pairing < 0:
                y = x[:i] + (x[i] - pairing,) + x[i + 1:]
                if y not in orbit:
                    orbit[y] = orbit[x]
                    queue.append(y)
                    if len(orbit) > ROOT_LIMIT:
                        raise SearchLimitExceeded(f"more than {ROOT_LIMIT} root candidates")
    roots = sorted(orbit, key=lambda v: (sum(map(mul, u, v)), v))
    entries = []
    for idx, dimv in enumerate(roots):
        # x^T E x as sum_i x_i (E x)_i
        q = sum(c * sum(map(mul, row, dimv)) for c, row in zip(dimv, algebra.euler) if c)
        expected = u[orbit[dimv]]
        if q != expected:
            raise OracleViolation(f"root {dimv} has q = {q}, expected {expected}")
        entries.append(Indec(id=idx, dimv=dimv, q=q))
    return RootCatalog(kind=FINITE, algebra=algebra, entries=tuple(entries))


def rank2_roles(algebra: AlgebraData) -> tuple[int, int]:
    """(source, sink) of the unique arrow; (0, 1) when there is no arrow."""
    if algebra.arrows:
        ((src, snk),) = algebra.arrows
        return src, snk
    return 0, 1


def two_term_chain(seed0: DimVector, seed1: DimVector, mult0: int, mult1: int,
                   steps: int) -> list[DimVector]:
    """Alternating two-term recurrence next = m * last - second_last.

    The multiplier alternates: terms at even positions (like seed0) use mult0,
    terms at odd positions use mult1.  Stops at the first vector with a
    negative or all-zero coordinate pattern, or after `steps` terms.
    """
    out = [seed0, seed1]
    while len(out) < steps:
        mult = mult0 if len(out) % 2 == 0 else mult1
        nxt = tuple(mult * a - b for a, b in zip(out[-1], out[-2]))
        if any(c < 0 for c in nxt) or all(c == 0 for c in nxt):
            break
        out.append(nxt)
    return out[:steps]


def shift_families(r: int, s: int, steps: int) -> tuple[list[DimVector], list[DimVector]]:
    """The forward and backward shift families, in (src, snk) coordinates.

    The forward family starts at the projectives P(snk) = (0, 1) and
    P(src) = (1, s), the backward one at the injectives I(src) = (1, 0) and
    I(snk) = (r, 1) (Dlab-Ringel, Mem. AMS 173, 1976); each runs on by
    `two_term_chain`, the forward one with multipliers r, s and the backward
    one with s, r.  The seeds hold because E[src][snk] = -r * u_src is the
    only off-diagonal entry of the Euler matrix and u_src * r = u_snk * s:
    so E^T p = u_i e_i for p = P(i) and E q = u_i e_i for q = I(i).
    """
    return (two_term_chain((0, 1), (1, s), r, s, steps),
            two_term_chain((1, 0), (r, 1), s, r, steps))


def rank2_sequences(algebra: AlgebraData, t_max: int) -> RootCatalog:
    """Shift orbits of the projectives and injectives of a rank-2 algebra.

    Writing src -> snk for the arrow, the forward family starts at
    P(snk), P(src) and satisfies

        next snk-term = r * (last src-term) - (previous snk-term)
        next src-term = s * (last snk-term) - (previous src-term)

    with r = -c[src][snk] and s = -c[snk][src]; the backward family starts at
    I(src), I(snk) with the roles of r, s and of the two vertices swapped.
    Both come from `shift_families`, whose seeds are the closed forms of the
    projectives and injectives.  In the finite case the two families exhaust
    each other and the merged catalog is the set of positive roots, kept
    here in quiver order: there t_max cuts nothing, and each chain runs
    until it leaves the positive cone.  It holds distinct positive roots, at
    most G2's six, so it is cut at 6 terms, a bound of its own.  In the
    infinite case the families stay disjoint, each is cut at 2(t_max + 1)
    terms and each term is tagged with its family.
    """
    if algebra.n != 2:
        raise NotRankTwo("rank2_sequences requires exactly two vertices")
    if t_max < 0:
        raise ValueError("t_max must be non-negative")
    kind = classify_type(algebra)
    src, snk = rank2_roles(algebra)
    r = -algebra.cartan[src][snk]
    s = -algebra.cartan[snk][src]
    steps = 6 if kind == FINITE else 2 * (t_max + 1)
    # (src, snk) coordinates are vertex order unless the arrow runs 1 -> 0
    prep, prei = (chain if src == 0 else [x[::-1] for x in chain]
                  for chain in shift_families(r, s, steps))

    def make(idx: int, dimv: DimVector, comp: str, pos: int, even_vertex: int, odd_vertex: int) -> Indec:
        vertex = even_vertex if pos % 2 == 0 else odd_vertex
        q = euler_form(algebra, dimv, dimv)
        if q != algebra.symmetrizer[vertex]:
            raise OracleViolation(f"{comp} term {dimv} has q = {q}, "
                                  f"expected u[{vertex}] = {algebra.symmetrizer[vertex]}")
        return Indec(id=idx, dimv=dimv, q=q, component=comp, t=pos // 2, vertex=vertex)

    entries = [make(pos, dimv, PREPROJ, pos, snk, src) for pos, dimv in enumerate(prep)]
    forward = set(prep)
    for pos in range(len(prei) - 1, -1, -1):
        if prei[pos] in forward:
            if kind == FINITE:
                continue
            raise OracleViolation(f"families intersect at {prei[pos]} although rs >= 4")
        entries.append(make(len(entries), prei[pos], PREINJ, pos, src, snk))
    return RootCatalog(kind=kind, algebra=algebra, entries=tuple(entries))


def catalog_for(algebra: AlgebraData, t_max: int = 10) -> RootCatalog:
    """`positive_roots` or the `rank2_sequences` window at t_max, by `classify_type`
    (which each builder repeats); raises UnsupportedAlgebra outside scope."""
    kind = classify_type(algebra)
    if kind == FINITE:
        return positive_roots(algebra)
    if kind == RANK2_INFINITE:
        return rank2_sequences(algebra, t_max)
    raise UnsupportedAlgebra("representation-infinite of rank >= 3")
