"""The square-root-normalized size measure and the descent it drives.

A catalog member X gets the measure ell(X) / sqrt(q(X)), where ell is the
total length and q the endomorphism length.  The measure is never evaluated
numerically: since sqrt is monotone it is compared by its exact square
ell^2 / q, a `Fraction` each catalog keeps once (`RootCatalog.mu_squares`)
for `mu` and the rank-2 inequality.  The descent compares ranks instead,
and those are taken in integers: with P the product of the catalog's
distinct q values, ell^2 * (P // q) is P times ell^2 / q, so the two
order the members alike, and no `Fraction` is built
(`RootCatalog.mu_ranks`).
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
prefix of f's.  Only on a tie are the two keys built and compared.  The
rule holds for facets of any size, as a patched step may return.  It is
stated once, for one step (`_drops`).

The descent is one memo walk, by `verify_descent`: from each facet not yet
walked it steps until a step fails to drop the key or reaches a walked
facet, so each walked facet takes one `descent_step`, and every facet on
the path gets the length of its walk.  A walk ends at the zero facet or at
a stall, a facet whose step does not drop; so the descent holds exactly
when no walked facet stalls (the no-stall lemma), and no walk's end is
kept.  The report keeps the step map `after`, each walked facet to the
facet its step moves it to where that step drops the key, and
`DescentReport.path` follows it, so the `descent` command prints the walks
that the check decided on.  A step target off the facet list, which only a
patched step or a wrong kernel gives, is walked the same way.

`verify_endos_all` does its per-facet work in one pass over the whole
facet list (`filterfalse`), with one Python call per facet to
`verify_endos`.

The endomorphism check asks that a facet's member endo lengths and
unsupported symmetrizer entries form the symmetrizer multiset.  It counts
instead of sorting: per symmetrizer value, a popcount of the facet against
one class mask kept per catalog (`RootCatalog.endo_classes`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import filterfalse
from typing import Iterable

from .errors import (
    Disconnected,
    NotFiniteType,
    NotRankTwo,
    NotRepresentationInfinite,
    NotSymmetrizable,
    OracleViolation,
    SearchLimitExceeded,
    ZeroModule,
)
from .homext import ids_of
from .roots import FINITE, T_MAX_LIMIT, Indec, RootCatalog, shift_families
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
        move = free | (bit | canonical_completion(kernel, bit, supp, False)) << n
        dual = free | (bit | canonical_completion(kernel, bit, supp, True)) << n
        if dual != move and lambda_key(catalog, dual) < lambda_key(catalog, move):
            move = dual
        moves.append(move)
    return tuple(moves)


def descent_step(catalog: RootCatalog, facet: int) -> int:
    """The descent move away from a nonzero facet.

    Pick the member M with minimal measure (ties: smallest id), the first
    of `RootCatalog.measure_order` in the facet.  When M is the whole facet
    and lives on a single vertex, drop it for the zero facet.  Otherwise
    return M's descent move: whichever of the two canonical in-support
    completions of M has the smaller lambda key.  The walk
    (`verify_descent`) checks that the move drops the facet's lambda key.
    """
    members = facet >> catalog.algebra.n
    if not members:
        raise ZeroModule("the zero facet has no descent step")
    bit = next(filter(members.__and__, catalog.measure_order))
    chosen = bit.bit_length() - 1
    if members == bit and catalog.kernel.support[chosen].bit_count() == 1:
        return zero_facet(catalog)
    return catalog.descent_moves[chosen]


def _drops(catalog: RootCatalog, nxt: int, facet: int) -> bool:
    """lambda_key(nxt) < lambda_key(facet), by the drop rule of the module
    docstring: the counts of unsupported vertices decide, and only when
    they tie are the keys built and compared."""
    low = (1 << catalog.algebra.n) - 1
    ahead, behind = (nxt & low).bit_count(), (facet & low).bit_count()
    if ahead != behind:
        # more unsupported vertices ahead: the key drops when the facet has
        # a member; fewer: only when the next facet has none
        return facet > low if ahead > behind else nxt <= low
    return lambda_key(catalog, nxt) < lambda_key(catalog, facet)


@dataclass
class DescentReport:
    """`stalled` lists, by ascending vertex tuple, the facets other than the
    zero facet where a walk stops: the witnesses of a failed descent.
    `after` maps each walked facet whose step drops the lambda key to the
    facet that step moves it to."""

    ok: bool
    steps: dict[int, int]
    max_steps: int
    stalled: list[int]
    after: dict[int, int]

    def path(self, facet: int) -> list[int]:
        """The walk from `facet`, `facet` first, by `after`: it ends at the
        zero facet, or where the descent stalled."""
        path = [facet]
        while (nxt := self.after.get(path[-1])) is not None:
            path.append(nxt)
        return path


def verify_descent(catalog: RootCatalog) -> DescentReport:
    """Iterate descent from every facet; the vector must drop each step and
    the zero facet must be reached.

    The memo walk of the module docstring.  A step that does not drop
    stops its walk there, so a walk never revisits a facet and no step
    bound is needed.  By the no-stall lemma the descent holds exactly when
    every walked facet but the zero facet has its step in `after`.
    `steps[f]` is the length of `path(f)` less one.
    """
    facets = enumerate_support_tilting(catalog)
    zero = zero_facet(catalog)
    after: dict[int, int] = {}
    lengths = {zero: 0}  # each walked facet's number of steps
    for start in facets:
        facet, path = start, []  # the path's facets that step
        while facet not in lengths:
            nxt = descent_step(catalog, facet)
            if _drops(catalog, nxt, facet):
                after[facet] = nxt
                path.append(facet)
                facet = nxt
            else:
                lengths[facet] = 0
        count = lengths[facet]
        for facet in reversed(path):
            count += 1
            lengths[facet] = count
    steps = dict(zip(facets, map(lengths.__getitem__, facets)))
    ok = len(after) == len(lengths) - 1
    return DescentReport(ok=ok, steps=steps, max_steps=max(steps.values(), default=0),
                         stalled=[] if ok else [f for f in facets
                                                if f != zero and f not in after],
                         after=after)


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

    on the forward family of `shift_families` (seeded with (0,1) and (1,s)),
    and the mirrored chain on its backward family (seeded with (1,0) and
    (r,1)); all comparisons are by squares.  The weights default to (u, v);
    an empty list is a ValueError, and so is a negative t_max.  A t_max
    above T_MAX_LIMIT raises SearchLimitExceeded before any chain is built.
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

    if t_max < 0:
        raise ValueError("t_max must be non-negative")
    if t_max > T_MAX_LIMIT:
        raise SearchLimitExceeded(f"t_max {t_max} is above the limit {T_MAX_LIMIT}")
    steps = 2 * (t_max + 2)
    forward, backward = shift_families(r, s, steps)
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
    if facet.bit_count() != catalog.algebra.n:
        return False
    for mask, count in catalog.endo_classes:
        if (facet & mask).bit_count() != count:
            return False
    return True


def verify_endos_all(catalog: RootCatalog) -> EndoReport:
    """`verify_endos` on every facet, in one pass over the facet list."""
    facets = enumerate_support_tilting(catalog)
    failures = list(filterfalse(partial(verify_endos, catalog), facets))
    return EndoReport(ok=not failures, checked=len(facets), failures=failures)
