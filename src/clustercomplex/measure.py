"""The square-root-normalized size measure and the descent it drives.

A catalog member X gets the measure ell(X) / sqrt(q(X)), where ell is the
total length and q the endomorphism length.  The measure is never evaluated
numerically: comparisons cross-multiply the squared values, so everything
stays in exact integers.  A facet gets the vector of its members' measures,
padded in front with one zero per unsupported vertex and compared
lexicographically.  Replacing a measure-minimal member by its canonical
in-support completion (or the dual one) strictly drops the vector, which
drives every facet down to the zero module.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .algebra import AlgebraData, length
from .errors import (
    Disconnected,
    LengthMismatch,
    NoDescent,
    NotRankTwo,
    NotRepresentationInfinite,
    OracleViolation,
    SymmetrizabilityViolation,
    ZeroModule,
)
from .homext import support
from .roots import (
    FINITE,
    PREINJ,
    PREPROJ,
    Indec,
    RootCatalog,
    classify_type,
    positive_roots,
    rank2_sequences,
    two_term_chain,
)
from .tilting import (
    SupportTilting,
    as_facet,
    bongartz,
    dual_bongartz,
    enumerate_support_tilting,
    zero_facet,
)


@functools.total_ordering
class Mu:
    """Exact measure value ell / sqrt(q); ordered by cross-multiplied squares."""

    __slots__ = ("ell", "q")

    def __init__(self, ell: int, q: int):
        if ell < 0 or q < 1:
            raise ValueError(f"invalid measure ({ell}, {q})")
        self.ell = ell
        self.q = q

    @property
    def squared(self) -> Fraction:
        return Fraction(self.ell * self.ell, self.q)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Mu):
            return NotImplemented
        return self.ell * self.ell * other.q == other.ell * other.ell * self.q

    def __lt__(self, other) -> bool:
        if not isinstance(other, Mu):
            return NotImplemented
        return self.ell * self.ell * other.q < other.ell * other.ell * self.q

    def __hash__(self) -> int:
        return hash(self.squared)

    def __repr__(self) -> str:
        return f"Mu({self.ell}, {self.q})"


MU_ZERO = Mu(0, 1)


def mu(catalog: RootCatalog, x: Indec) -> Mu:
    return Mu(catalog.lengths[x.id], x.q)


def mu_compare(a: Mu, b: Mu) -> int:
    """-1, 0, or 1; exact."""
    lhs = a.ell * a.ell * b.q
    rhs = b.ell * b.ell * a.q
    return (lhs > rhs) - (lhs < rhs)


def lambda_vector(catalog: RootCatalog, facet: SupportTilting) -> tuple[Mu, ...]:
    """Zeros for the unsupported vertices, then the member measures ascending."""
    mus = sorted(mu(catalog, catalog.entries[i]) for i in facet.ids)
    return tuple([MU_ZERO] * len(facet.sigma) + mus)


def lambda_compare(x: Sequence[Mu], y: Sequence[Mu]) -> int:
    """Lexicographic comparison; -1, 0, or 1."""
    if len(x) != len(y):
        raise LengthMismatch(f"cannot compare lengths {len(x)} and {len(y)}")
    for a, b in zip(x, y):
        c = mu_compare(a, b)
        if c:
            return c
    return 0


def member_moves(catalog: RootCatalog) -> tuple[SupportTilting, ...]:
    """Each member's descent move, by id: the better of its two canonical
    in-support completions, as a facet (the smaller lambda vector; ties keep
    the forward one).  `RootCatalog.descent_moves` keeps them."""
    moves = []
    for m in range(len(catalog)):
        supp_m, _ = support(catalog, (m,))
        forward = bongartz(catalog, (m,), within=supp_m)
        backward = dual_bongartz(catalog, (m,), within=supp_m)
        # tuples of Mu compare lexicographically, as lambda_compare does
        moves.append(min((as_facet(catalog, {m} | part) for part in (forward, backward)),
                         key=lambda f: lambda_vector(catalog, f)))
    return tuple(moves)


def descent_step(catalog: RootCatalog, facet: SupportTilting) -> SupportTilting:
    """One measure-decreasing move away from a nonzero facet.

    Pick the member M with minimal measure (ties: smallest id).  When M is
    the whole facet and lives on a single vertex, drop it for the zero facet.
    Otherwise return M's descent move: whichever of the two canonical
    in-support completions of M has the smaller lambda vector, which must be
    strictly smaller than the facet's.
    """
    if not facet.ids:
        raise ZeroModule("the zero facet has no descent step")
    chosen = min(facet.ids, key=lambda i: (mu(catalog, catalog.entries[i]), i))
    if len(facet.ids) == 1 and catalog.kernel.support[chosen].bit_count() == 1:
        return zero_facet(catalog)
    best = catalog.descent_moves[chosen]
    if not lambda_vector(catalog, best) < lambda_vector(catalog, facet):
        raise NoDescent(f"no candidate improves on facet {facet}")
    return best


def _descend(catalog: RootCatalog, facet: SupportTilting) -> SupportTilting | None:
    """The next facet of the descent, or None where the walk stops: at the
    zero facet, and before a step that fails to drop the lambda vector."""
    if facet == zero_facet(catalog):
        return None
    nxt = descent_step(catalog, facet)
    if lambda_compare(lambda_vector(catalog, nxt), lambda_vector(catalog, facet)) >= 0:
        return None
    return nxt


def descent_path(catalog: RootCatalog, facet: SupportTilting,
                 max_steps: int) -> list[SupportTilting]:
    """The descent from `facet` towards the zero facet, `facet` first.

    The walk stops where `_descend` stops it, or once it has taken more than
    `max_steps` steps; the last facet of the path is then where the descent
    stalled.
    """
    path = [facet]
    while len(path) <= max_steps + 1:
        nxt = _descend(catalog, path[-1])
        if nxt is None:
            break
        path.append(nxt)
    return path


@dataclass
class DescentReport:
    """`stalled` lists, in facet order, the facets other than the zero facet
    where a walk stops: the witnesses of a failed descent."""

    ok: bool
    steps: dict[SupportTilting, int]
    max_steps: int
    stalled: list[SupportTilting]


def verify_descent(catalog: RootCatalog) -> DescentReport:
    """Iterate descent from every facet; the vector must drop each step and
    the zero facet must be reached within (number of facets) steps.

    Walks share their tails: each facet's (steps, end) is recorded once, and
    a walk stops at the first recorded facet.  `steps[f]` is what
    `descent_path(catalog, f, len(facets))` gives, which cuts a walk after
    len(facets) + 1 steps.
    """
    facets = enumerate_support_tilting(catalog)
    zero = zero_facet(catalog)
    bound = len(facets) + 1
    walks: dict[SupportTilting, tuple[int, SupportTilting]] = {}
    for start in facets:
        path = [start]
        while path[-1] not in walks:
            nxt = _descend(catalog, path[-1])
            if nxt is None:
                walks[path[-1]] = (0, path[-1])
            else:
                path.append(nxt)
        count, end = walks[path.pop()]
        for facet in reversed(path):
            count += 1
            walks[facet] = (count, end)
    steps = {f: min(walks[f][0], bound) for f in facets}
    ok = all(walks[f][1] == zero and walks[f][0] <= bound for f in facets)
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
    by squares.
    """
    if r < 0 or s < 0 or u < 1 or v < 1:
        raise ValueError("need r, s >= 0 and u, v >= 1")
    if r * u != s * v:
        raise SymmetrizabilityViolation(f"r*u = {r * u} != {s * v} = s*v")
    if r * s < 4:
        raise NotRepresentationInfinite(f"r*s = {r * s} < 4")
    weight_list = [(u, v)] if weights is None else [tuple(w) for w in weights]
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


def verify_rank2_inequality(algebra: AlgebraData, t_max: int = 10,
                           unit_endo_lengths: bool = False) -> Rank2Report:
    """Every sincere member has a strictly smaller canonical neighbour.

    For each sincere catalog member T the canonical completion B and its dual
    C are computed (brute force in the finite case, family neighbours in the
    infinite one) and min(mu(B), mu(C)) < mu(T) is asserted exactly.  With
    unit_endo_lengths the denominators are forced to 1, i.e. the measure
    degenerates to plain length; the check is then expected to fail in
    general.
    """
    if algebra.n != 2:
        raise NotRankTwo("rank-2 check requires two vertices")
    if algebra.cartan[0][1] == 0:
        raise Disconnected("rank-2 check requires a connected algebra")

    def measure(x: Indec) -> Mu:
        return Mu(length(algebra, x.dimv), 1 if unit_endo_lengths else x.q)

    failures = []
    checked = 0
    if classify_type(algebra) == FINITE:
        catalog = positive_roots(algebra)
        for entry in catalog.entries:
            if any(c == 0 for c in entry.dimv):
                continue
            b = bongartz(catalog, (entry.id,))
            c = dual_bongartz(catalog, (entry.id,))
            (b_id,) = b
            (c_id,) = c
            checked += 1
            best = min(measure(catalog.entries[b_id]), measure(catalog.entries[c_id]))
            if not best < measure(entry):
                failures.append((entry.dimv, catalog.entries[b_id].dimv,
                                 catalog.entries[c_id].dimv))
    else:
        catalog = rank2_sequences(algebra, t_max)
        entries = catalog.entries
        for k, entry in enumerate(entries):
            if any(c == 0 for c in entry.dimv):
                continue
            if entry.component == PREPROJ:
                b_idx, c_idx = k - 1, k + 1
                if c_idx >= len(entries) or entries[c_idx].component != PREPROJ:
                    continue
            else:
                # backward family is stored in quiver order, so the canonical
                # completion sits to the left and its dual to the right
                b_idx, c_idx = k - 1, k + 1
                if b_idx < 0 or entries[b_idx].component != PREINJ:
                    continue
                if c_idx >= len(entries):
                    continue
            checked += 1
            best = min(measure(entries[b_idx]), measure(entries[c_idx]))
            if not best < measure(entry):
                failures.append((entry.dimv, entries[b_idx].dimv, entries[c_idx].dimv))
    return Rank2Report(ok=not failures, checked=checked, failures=failures)


@dataclass
class EndoReport:
    ok: bool
    checked: int
    failures: list[SupportTilting]


def verify_endos(catalog: RootCatalog, facet: SupportTilting) -> bool:
    """Member endo lengths plus dropped-vertex symmetrizer entries must give
    back the full symmetrizer multiset."""
    algebra = catalog.algebra
    got = sorted([catalog.entries[i].q for i in facet.ids]
                 + [algebra.symmetrizer[v] for v in facet.sigma])
    return got == sorted(algebra.symmetrizer)


def verify_endos_all(catalog: RootCatalog) -> EndoReport:
    facets = enumerate_support_tilting(catalog)
    failures = [f for f in facets if not verify_endos(catalog, f)]
    return EndoReport(ok=not failures, checked=len(facets), failures=failures)
