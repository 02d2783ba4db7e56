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
prefix of f's.  Only on a tie are the keys compared: the keys of the descent
moves and the zero facet come from one table per `verify_descent` call,
and any other facet's key is computed.  The rule holds for facets of any
size, as a patched step may return.  It is stated once, over lists of
steps (`_drops`), counts and member tests in C.

The descent is walked once, by `verify_descent`: its report keeps the
step map `after`, each walked facet to the facet its step moves it to
where that step drops the key, and `DescentReport.path` follows it, so the
`descent` command prints the walks that the check decided on.  A step
target off the facet list, which only a patched step or a wrong kernel
gives, takes its own step the same way, through `_drops`.

`verify_descent` and `verify_endos_all` do their per-facet work in passes
over the whole facet list (`map`, `filterfalse`, `compress`), with one
Python call per facet to `descent_step` or `verify_endos`.

The endomorphism check asks that a facet's member endo lengths and
unsupported symmetrizer entries form the symmetrizer multiset.  It counts
instead of sorting: per symmetrizer value, a popcount of the facet against
one class mask kept per catalog (`RootCatalog.endo_classes`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import compress, filterfalse
from operator import eq, getitem, gt, itemgetter, mul, not_
from typing import Iterable, Sequence

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
from .roots import FINITE, Indec, RootCatalog, shift_families
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


def _drops(catalog: RootCatalog, nexts: Sequence[int], facets: Sequence[int],
           keys: dict[int, tuple[int, ...]]) -> list[bool]:
    """For each pair, lambda_key(nexts[i]) < lambda_key(facets[i]), by the
    drop rule of the module docstring, over the whole lists: the counts of
    unsupported vertices are taken in C, and a pair whose counts differ is
    decided by the member bits of one side, also in C.  Only a pair whose
    counts tie has its keys compared, each read from `keys` or computed
    when absent."""
    n = catalog.algebra.n
    low = (1 << n) - 1
    ahead = list(map(int.bit_count, map(low.__and__, nexts)))
    behind = list(map(int.bit_count, map(low.__and__, facets)))
    # more unsupported vertices ahead: the key drops when the facet has a
    # member; fewer: only when the next facet has none
    drops = list(map(getitem, zip(map(low.__ge__, nexts), map(low.__lt__, facets)),
                     map(gt, ahead, behind)))
    for i in compress(range(len(drops)), map(eq, ahead, behind)):
        nxt, facet = nexts[i], facets[i]
        drops[i] = ((keys.get(nxt) or lambda_key(catalog, nxt))
                    < (keys.get(facet) or lambda_key(catalog, facet)))
    return drops


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

    A step that fails to drop the lambda key stops its walk there, so a
    walk never revisits a facet and takes fewer than len(facets) steps; no
    step bound is needed.  The work goes in whole-list passes: every facet
    but the zero facet takes one `descent_step` and the drop rule decides
    all of those steps at once (`_drops`).  Off-list rule: a target outside
    the facet list, which only a patched step or a wrong kernel gives,
    takes its step in the same form, one layer of such targets at a time.
    Walks share their tails, and every walk of more than one step runs
    through a step target, so only the targets are walked, each (steps,
    end) recorded once.  A facet whose step drops then has one step more
    than its target and the same end, and any other facet ends where it
    is.  `steps[f]` is the length of `path(f)` less one.
    """
    facets = enumerate_support_tilting(catalog)
    zero = zero_facet(catalog)
    step = partial(descent_step, catalog)
    # the keys of the facets an unpatched step can reach
    keys = {f: lambda_key(catalog, f) for f in (*catalog.descent_moves, zero)}
    movers = list(filter(zero.__ne__, facets))
    targets = list(map(step, movers))
    drops = _drops(catalog, targets, movers, keys)
    steps = dict.fromkeys(facets, 0)
    after = dict(compress(zip(movers, targets), drops))  # the steps that drop
    fresh = list(filterfalse(steps.__contains__, dict.fromkeys(after.values())))
    seen = set(fresh)  # the walked facets off the list
    while fresh:
        nexts = list(map(step, fresh))
        moved = dict(compress(zip(fresh, nexts), _drops(catalog, nexts, fresh, keys)))
        after.update(moved)
        fresh = [t for t in dict.fromkeys(moved.values()) if t not in steps and t not in seen]
        seen.update(fresh)
    walks: dict[int, tuple[int, int]] = {}
    for start in dict.fromkeys(targets):
        path = [start]
        while path[-1] not in walks:
            facet = path[-1]
            if (nxt := after.get(facet)) is None:
                walks[facet] = (0, facet)
            else:
                path.append(nxt)
        count, end = walks[path.pop()]
        for facet in reversed(path):
            count += 1
            walks[facet] = (count, end)
    counts = map(itemgetter(0), map(walks.__getitem__, targets))
    steps.update(zip(movers, map(mul, map((1).__add__, counts), drops)))
    stalled = list(compress(movers, map(not_, drops)))
    # a facet that does not stall ends where the walk of its target ends
    ok = not stalled and all(end == zero for _, end in walks.values())
    return DescentReport(ok=ok, steps=steps, max_steps=max(steps.values(), default=0),
                         stalled=stalled, after=after)


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
    an empty list is a ValueError.
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
