"""The square-root-normalized size measure and the descent it drives.

A catalog member X gets the measure ell(X) / sqrt(q(X)), where ell is the
total length and q the endomorphism length.  The measure is never evaluated
numerically: since sqrt is monotone it is compared by its exact square
ell^2 / q, a `Fraction` each catalog keeps once (`RootCatalog.mu_squares`).
A facet (an int face, as in `tilting`) is ordered by its lambda vector,
its members' squared measures ascending, padded in front with one zero per
unsupported vertex and compared lexicographically.  The rank key
`lambda_key` is that order in ints: -1 per unsupported vertex, then the
members' ranks by measure (`RootCatalog.mu_ranks`), ascending.  Replacing a
measure-minimal member by its canonical in-support completion (or the dual
one) strictly drops the key, which drives every facet down to the zero
module.

Step rule: a step picks the facet's member of least measure, the smallest
id among equal measures.  That is the first bit of
`RootCatalog.measure_order`, every member's bit ordered by (rank, id), that
the facet's member mask holds; `filter` finds it in C.  The member is the
whole facet when the member mask equals its bit.

Drop rule: a walk asks at each step whether key(g) < key(f), g the facet a
step moves f to, and it decides on the counts of unsupported vertices, the
keys' runs of -1, before it builds a key.  Ranks are >= 0.  If g has more
unsupported vertices, g has a -1 where f has a rank, so the key drops,
unless f has no members and its key is a proper prefix of g's.  If g has
fewer, the key rises, unless g has no members and its key is a proper
prefix of f's.  Only on a tie are the keys compared: the keys of the descent
moves and the zero facet come from one table per `verify_descent` call,
and any other facet's key is computed (a lone `descent_path` builds no
table).  The rule holds for facets of any size, as a patched step may
return.

The endomorphism check asks that a facet's member endo lengths and
unsupported symmetrizer entries form the symmetrizer multiset.  It counts
instead of sorting: per symmetrizer value, a popcount of the facet against
one class mask kept per catalog (`RootCatalog.endo_classes`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .errors import (
    Disconnected,
    NotFiniteType,
    NotRankTwo,
    NotRepresentationInfinite,
    NotSymmetrizable,
    OracleViolation,
    ZeroModule,
)
from .homext import ids_of
from .roots import FINITE, Indec, RootCatalog, two_term_chain
from .tilting import (
    bongartz,
    canonical_completion,
    dual_bongartz,
    enumerate_support_tilting,
    zero_facet,
)


def mu(catalog: RootCatalog, x: Indec) -> Fraction:
    """The square of x's measure ell / sqrt(q), exact: `RootCatalog.mu_squares`."""
    return catalog.mu_squares[x.id]


def lambda_key(catalog: RootCatalog, facet: int) -> tuple[int, ...]:
    """-1 for each unsupported vertex, then the members' measure ranks
    ascending; compares as the lambda vectors compare."""
    n, ranks = catalog.algebra.n, catalog.mu_ranks
    return ((-1,) * (facet & ((1 << n) - 1)).bit_count()
            + tuple(sorted(map(ranks.__getitem__, ids_of(facet >> n)))))


def member_moves(catalog: RootCatalog) -> tuple[int, ...]:
    """Each member's descent move, by id: the better of its two canonical
    in-support completions (`tilting.canonical_completion` of its member
    bit in its support), as a facet (the smaller lambda key; ties keep the
    forward one).  A completion lies in the member's support, so the facet's
    unsupported vertices are those of the member.  `RootCatalog.descent_moves`
    keeps them."""
    if catalog.kind != FINITE:
        raise NotFiniteType("canonical completion requires a finite catalog")
    kernel, n, everything = catalog.kernel, catalog.algebra.n, zero_facet(catalog)
    moves = []
    for m, supp in enumerate(kernel.support):
        free, bit = everything & ~supp, 1 << m
        moves.append(min((free | (bit | canonical_completion(kernel, bit, supp, dual)) << n
                          for dual in (False, True)), key=lambda f: lambda_key(catalog, f)))
    return tuple(moves)


def descent_step(catalog: RootCatalog, facet: int) -> int:
    """The descent move away from a nonzero facet.

    Pick the member M with minimal measure (ties: smallest id), the first
    of `RootCatalog.measure_order` in the facet.  When M is the whole facet
    and lives on a single vertex, drop it for the zero facet.  Otherwise
    return M's descent move: whichever of the two canonical in-support
    completions of M has the smaller lambda key.  The walk (`_descend`)
    checks that the move drops the facet's lambda key.
    """
    members = facet >> catalog.algebra.n
    if not members:
        raise ZeroModule("the zero facet has no descent step")
    bit = next(filter(members.__and__, catalog.measure_order))
    chosen = bit.bit_length() - 1
    if members == bit and catalog.kernel.support[chosen].bit_count() == 1:
        return zero_facet(catalog)
    return catalog.descent_moves[chosen]


def _drops(catalog: RootCatalog, nxt: int, facet: int, keys: dict[int, tuple[int, ...]]) -> bool:
    """lambda_key(nxt) < lambda_key(facet), by the drop rule of the module
    docstring: on the counts of unsupported vertices first, and on the keys
    only when the counts tie, each read from `keys` or computed when absent."""
    n = catalog.algebra.n
    low = (1 << n) - 1
    ahead, behind = (nxt & low).bit_count(), (facet & low).bit_count()
    if ahead != behind:
        return facet >> n != 0 if ahead > behind else nxt >> n == 0
    return (keys.get(nxt) or lambda_key(catalog, nxt)) < (keys.get(facet) or lambda_key(catalog, facet))


def _descend(catalog: RootCatalog, facet: int, keys: dict[int, tuple[int, ...]]) -> int | None:
    """The next facet of the descent, or None where the walk stops: at the
    zero facet, and before a step that fails to drop the lambda key."""
    if facet == zero_facet(catalog):
        return None
    nxt = descent_step(catalog, facet)
    return nxt if _drops(catalog, nxt, facet, keys) else None


def descent_path(catalog: RootCatalog, facet: int) -> list[int]:
    """The descent from `facet` towards the zero facet, `facet` first.

    The walk stops where `_descend` stops it, at the zero facet or where
    the descent stalled, which is then the last facet of the path.  Each
    step drops the lambda key, and the keys of a finite catalog cannot drop
    forever, so no step bound is needed and no facet list is built.
    """
    path = [facet]
    while (nxt := _descend(catalog, path[-1], {})) is not None:
        path.append(nxt)
    return path


@dataclass
class DescentReport:
    """`stalled` lists, by ascending vertex tuple, the facets other than the
    zero facet where a walk stops: the witnesses of a failed descent."""

    ok: bool
    steps: dict[int, int]
    max_steps: int
    stalled: list[int]


def verify_descent(catalog: RootCatalog) -> DescentReport:
    """Iterate descent from every facet; the vector must drop each step and
    the zero facet must be reached.

    `_descend` stops a walk before any step that fails to drop the lambda
    key, so a walk never revisits a facet and takes fewer than len(facets)
    steps; no step bound is needed.  Walks share their tails: each facet's
    (steps, end) is recorded once, and a walk stops at the first recorded
    facet.  `steps[f]` is what `descent_path(catalog, f)` gives.
    A walk starts only from a facet not yet recorded, and every facet takes
    one `descent_step`; the drop rule builds a key only on a tie.
    """
    facets = enumerate_support_tilting(catalog)
    zero = zero_facet(catalog)
    # the keys of the facets an unpatched step can reach
    keys = {f: lambda_key(catalog, f) for f in (*catalog.descent_moves, zero)}
    walks: dict[int, tuple[int, int]] = {}
    for start in facets:
        if start in walks:
            continue
        path = [start]
        while path[-1] not in walks:
            nxt = _descend(catalog, path[-1], keys)
            if nxt is None:
                walks[path[-1]] = (0, path[-1])
            else:
                path.append(nxt)
        count, end = walks[path.pop()]
        for facet in reversed(path):
            count += 1
            walks[facet] = (count, end)
    steps = {f: walks[f][0] for f in facets}
    ok = all(walks[f][1] == zero for f in facets)
    stalled = [f for f in facets if f != zero and walks[f] == (0, f)]
    return DescentReport(ok=ok, steps=steps, max_steps=max(steps.values(), default=0),
                         stalled=stalled)


@dataclass
class TotalOrderReport:
    ok: bool
    first_violation: tuple | None
    checked: int


def verify_total_order(r: int, s: int, u: int, v: int, t_max: int = 30,
                       weights: Iterable[tuple[int, int]] | None = None) -> TotalOrderReport:
    """Strict interleaving of weighted sizes along both one-parameter families.

    For every additive positive weighting d and every t <= t_max this checks

        d(2,t) * sqrt(s) < d(1,t) * sqrt(r) < d(2,t+1) * sqrt(s)

    on the forward family seeded with (0,1) and (1,s), and the mirrored chain
    on the backward family seeded with (1,0) and (r,1); all comparisons are
    by squares.  The weights default to (u, v); an empty list is a ValueError.
    """
    if r < 0 or s < 0 or u < 1 or v < 1:
        raise ValueError("need r, s >= 0 and u, v >= 1")
    if r * u != s * v:
        raise NotSymmetrizable(f"r*u = {r * u} != {s * v} = s*v")
    if r * s < 4:
        raise NotRepresentationInfinite(f"r*s = {r * s} < 4")
    weight_list = [(u, v)] if weights is None else [tuple(w) for w in weights]
    if not weight_list:
        raise ValueError("weights must not be empty")
    if any(w1 < 1 or w2 < 1 for w1, w2 in weight_list):
        raise ValueError("weights must be positive")

    steps = 2 * (t_max + 2)
    forward = two_term_chain((0, 1), (1, s), r, s, steps)
    backward = two_term_chain((1, 0), (r, 1), s, r, steps)
    if len(forward) < steps or len(backward) < steps:
        # with rs >= 4 both chains are positive roots and never stop early
        raise OracleViolation(f"a chain for r = {r}, s = {s} left the positive cone")
    checked = 0
    for w in weight_list:
        fwd = [w[0] * x + w[1] * y for x, y in forward]
        bwd = [w[0] * x + w[1] * y for x, y in backward]
        for t in range(t_max + 1):
            d2, d1, d2next = fwd[2 * t], fwd[2 * t + 1], fwd[2 * t + 2]
            if not (s * d2 * d2 < r * d1 * d1 < s * d2next * d2next):
                return TotalOrderReport(ok=False, first_violation=("preproj", w, t),
                                        checked=checked)
            e1, e2, e1next = bwd[2 * t], bwd[2 * t + 1], bwd[2 * t + 2]
            if not (r * e1 * e1 < s * e2 * e2 < r * e1next * e1next):
                return TotalOrderReport(ok=False, first_violation=("preinj", w, t),
                                        checked=checked)
            checked += 1
    return TotalOrderReport(ok=True, first_violation=None, checked=checked)


@dataclass
class Rank2Report:
    ok: bool
    checked: int
    failures: list[tuple]


def verify_rank2_inequality(catalog: RootCatalog) -> Rank2Report:
    """Every sincere member has a strictly smaller canonical neighbour.

    For each sincere member T of a rank-2 catalog, its canonical completion B
    and the dual one C are read off, and min(mu(B), mu(C)) < mu(T) is
    asserted exactly.  A finite catalog finds them by the direct `bongartz`
    and `dual_bongartz` rules.  In a window they are T's neighbours k - 1 and
    k + 1 in its own family: the forward family is stored first and the
    backward one after it, both in quiver order, so the completion sits to
    the left and its dual to the right.  A member with a neighbour outside
    its family or the window is skipped.
    """
    algebra = catalog.algebra
    if algebra.n != 2:
        raise NotRankTwo("rank-2 check requires two vertices")
    if algebra.cartan[0][1] == 0:
        raise Disconnected("rank-2 check requires a connected algebra")
    entries, squares = catalog.entries, catalog.mu_squares
    failures = []
    checked = 0
    for k, entry in enumerate(entries):
        if any(c == 0 for c in entry.dimv):
            continue
        if catalog.kind == FINITE:
            (b,), (c,) = bongartz(catalog, (k,)), dual_bongartz(catalog, (k,))
        else:
            b, c = k - 1, k + 1
            if b < 0 or c >= len(entries) or not (
                    entries[b].component == entry.component == entries[c].component):
                continue
        checked += 1
        if not min(squares[b], squares[c]) < squares[k]:
            failures.append((entry.dimv, entries[b].dimv, entries[c].dimv))
    return Rank2Report(ok=not failures, checked=checked, failures=failures)


@dataclass
class EndoReport:
    ok: bool
    checked: int
    failures: list[int]


def verify_endos(catalog: RootCatalog, facet: int) -> bool:
    """Member endo lengths plus dropped-vertex symmetrizer entries must give
    back the full symmetrizer multiset.

    Counted per class, not sorted: for every symmetrizer value c, the facet
    must hold as many vertices and members of value c as there are vertices
    with u_v = c (`RootCatalog.endo_classes`), and it must have n vertices,
    so that none lies outside the classes.
    """
    return facet.bit_count() == catalog.algebra.n and all(
        (facet & mask).bit_count() == count for mask, count in catalog.endo_classes)


def verify_endos_all(catalog: RootCatalog) -> EndoReport:
    facets = enumerate_support_tilting(catalog)
    failures = [f for f in facets if not verify_endos(catalog, f)]
    return EndoReport(ok=not failures, checked=len(facets), failures=failures)
