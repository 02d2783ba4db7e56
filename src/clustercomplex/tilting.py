"""Support-tilting sets, exchange complements, and canonical completions.

A rigid id set is support-tilting when it has as many members as supported
vertices; it is then a basis of the lattice restricted to its support.  The
canonical completion of a rigid set T inside a vertex window W is read off
directly (K. Bongartz, "Tilted algebras", LNM 903, 1981): it is the set G of
members B outside T, compatible with T, with ext(B, M) = 0 for every
in-window M that is ext-orthogonal to T.  The mirror test (swap the pairing
order) gives the dual completion.  That G completes T is checked, not
assumed: |T| + |G| must equal |W|.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from . import linalg
from .algebra import injective_dimv, projective_dimv
from .errors import (
    MatchingFailed,
    NoCompletion,
    NotAlmostComplete,
    NotFiniteType,
    OracleViolation,
)
from .homext import ids_of, is_rigid, iter_rigid_sets, mask_of, support, validate_ids
from .roots import FINITE, RootCatalog


@dataclass(frozen=True, order=True)
class SupportTilting:
    """A facet: sorted member ids together with the unsupported vertices."""

    ids: tuple[int, ...]
    sigma: tuple[int, ...]

    @property
    def rank(self) -> int:
        return len(self.ids) + len(self.sigma) - 1


def as_facet(catalog: RootCatalog, ids: Iterable[int]) -> SupportTilting:
    members = tuple(sorted(set(ids)))
    _, sigma = support(catalog, members)
    return SupportTilting(ids=members, sigma=tuple(sorted(sigma)))


def zero_facet(catalog: RootCatalog) -> SupportTilting:
    return SupportTilting(ids=(), sigma=tuple(range(catalog.algebra.n)))


def support_tilting_sets(catalog: RootCatalog) -> list[SupportTilting]:
    """Rigid sets with as many members as supported vertices, of any catalog kind."""
    n = catalog.algebra.n
    out = []
    for ids in iter_rigid_sets(catalog):
        supp = catalog.kernel.support_of(ids)
        if len(ids) == supp.bit_count():
            out.append(SupportTilting(ids=ids, sigma=tuple(v for v in range(n) if not supp >> v & 1)))
    out.sort(key=lambda st: (len(st.ids), st.ids))
    return out


def enumerate_support_tilting(catalog: RootCatalog) -> list[SupportTilting]:
    """All facets, the zero module included, in a deterministic order.

    The catalog searches its rigid sets once and keeps the facets
    (`RootCatalog.facets`); each call returns a fresh list of them.
    """
    if catalog.kind != FINITE:
        raise NotFiniteType("facet enumeration requires a finite catalog")
    return list(catalog.facets)


def _window(catalog: RootCatalog, within: Iterable[int] | None) -> frozenset[int]:
    if within is None:
        return frozenset(range(catalog.algebra.n))
    return frozenset(within)


def complements(catalog: RootCatalog, t_ids: Iterable[int],
                within: Iterable[int] | None = None) -> list[int]:
    """All members X making T + X tilting inside the window `within`.

    T must be almost complete for the window: one member short of the window
    size.  There are exactly two complements when T is sincere in the window
    and exactly one otherwise.
    """
    members = validate_ids(catalog, t_ids)
    window = _window(catalog, within)
    supp, _ = support(catalog, members)
    if not supp <= window or len(members) + 1 != len(window):
        raise NotAlmostComplete(
            f"{len(members)} members cannot be almost complete in window of size {len(window)}")
    if not is_rigid(catalog, members):
        raise ValueError("T must be rigid")
    return list(ids_of(_pool(catalog, members, window)))


def _pool(catalog: RootCatalog, members: tuple[int, ...], window: frozenset[int]) -> int:
    """Members outside T, supported in the window, compatible with all of T."""
    kernel = catalog.kernel
    return kernel.within(window) & kernel.meet(kernel.compat, members) & ~mask_of(members)


def _canonical_complement(catalog: RootCatalog, t_ids: Iterable[int],
                          within: Iterable[int] | None, dual: bool) -> frozenset[int]:
    if catalog.kind != FINITE:
        raise NotFiniteType("canonical completion requires a finite catalog")
    members = validate_ids(catalog, t_ids)
    if not is_rigid(catalog, members):
        raise ValueError("T must be rigid")
    window = _window(catalog, within)
    supp, _ = support(catalog, members)
    if not supp <= window:
        raise ValueError(f"support {sorted(supp)} escapes window {sorted(window)}")
    # ext(i, m) = 0 puts m in ext_free_out[i]; the dual test ext(m, i) = 0
    # puts m in ext_free_in[i].
    kernel = catalog.kernel
    free = kernel.ext_free_in if dual else kernel.ext_free_out
    orthogonal = kernel.within(window) & kernel.meet(free, members)
    good = [c for c in ids_of(_pool(catalog, members, window))
            if free[c] & orthogonal == orthogonal]
    if len(members) + len(good) != len(window):
        raise NoCompletion(f"no canonical completion of {members} in window {sorted(window)}: "
                           f"{len(good)} candidates for {len(window) - len(members)} places")
    return frozenset(good)


def bongartz(catalog: RootCatalog, t_ids: Iterable[int],
             within: Iterable[int] | None = None) -> frozenset[int]:
    """The canonical completion: ext-orthogonality to T propagates to it.

    Direct rule: the completion is G, the members c compatible with T with
    ext(c, m) = 0 for every in-window m ext-orthogonal to T.  G lies inside
    that orthogonal set, so T + G is rigid and has at most |window| members;
    any completion passing the test lies inside G, so it is G.  The one
    check left is |T| + |G| = |window|; NoCompletion names T and the window
    when it fails.
    """
    return _canonical_complement(catalog, t_ids, within, dual=False)


def dual_bongartz(catalog: RootCatalog, t_ids: Iterable[int],
                  within: Iterable[int] | None = None) -> frozenset[int]:
    """Mirror of `bongartz` with the pairing order swapped."""
    return _canonical_complement(catalog, t_ids, within, dual=True)


def relative_bongartz(catalog: RootCatalog, t_ids: Iterable[int]) -> frozenset[int]:
    """Canonical completion computed inside the support of T."""
    members = validate_ids(catalog, t_ids)
    supp, _ = support(catalog, members)
    return bongartz(catalog, members, within=supp)


def relative_dual_bongartz(catalog: RootCatalog, t_ids: Iterable[int]) -> frozenset[int]:
    members = validate_ids(catalog, t_ids)
    supp, _ = support(catalog, members)
    return dual_bongartz(catalog, members, within=supp)


def bongartz_split(catalog: RootCatalog, t_ids: Iterable[int]) -> tuple[frozenset[int], frozenset[int]]:
    """(B1, B2): the in-support part and the rest of the full completion.

    B1 is always contained in the full completion; violation signals an
    oracle bug.
    """
    full = bongartz(catalog, t_ids)
    b1 = relative_bongartz(catalog, t_ids)
    if not b1 <= full:
        raise OracleViolation(f"relative completion {sorted(b1)} not inside full {sorted(full)}")
    return b1, full - b1


def dual_bongartz_split(catalog: RootCatalog, t_ids: Iterable[int]) -> tuple[frozenset[int], frozenset[int]]:
    full = dual_bongartz(catalog, t_ids)
    c1 = relative_dual_bongartz(catalog, t_ids)
    if not c1 <= full:
        raise OracleViolation(f"relative dual completion {sorted(c1)} not inside full {sorted(full)}")
    return c1, full - c1


@dataclass
class SplitReport:
    """Structure of the out-of-support completion parts B2 and C2."""

    ok: bool
    sigma: tuple[int, ...]
    b2_matching: dict[int, int]
    c2_matching: dict[int, int]


def _match(catalog: RootCatalog, part: Sequence[int], sigma: Sequence[int],
           base_dimv, t_dimvs) -> dict[int, int]:
    """Perfect matching vertex -> member with dimv(member) - base(vertex) in the T-cone."""
    fits = {
        v: [b for b in part
            if linalg.nonneg_int_combination(
                t_dimvs, tuple(catalog.entries[b].dimv[k] - base_dimv(v)[k]
                               for k in range(catalog.algebra.n))) is not None]
        for v in sigma
    }

    def assign(vs: list[int], used: frozenset[int]) -> dict[int, int] | None:
        if not vs:
            return {}
        v, rest = vs[0], vs[1:]
        for b in fits[v]:
            if b not in used:
                sub = assign(rest, used | {b})
                if sub is not None:
                    return {v: b, **sub}
        return None

    matching = assign(list(sigma), frozenset())
    if matching is None:
        raise MatchingFailed(f"no perfect matching for vertices {list(sigma)}")
    return matching


def verify_b2_structure(catalog: RootCatalog, t_ids: Iterable[int]) -> SplitReport:
    """Check B2 and C2 against the dropped vertices of T.

    Both out-of-support parts must biject with the unsupported vertices, each
    member exceeding the matching projective (resp. injective) dimension
    vector by a non-negative integer combination of T's dimension vectors.
    """
    if catalog.kind != FINITE:
        raise NotFiniteType("split verification requires a finite catalog")
    members = validate_ids(catalog, t_ids)
    _, sigma = support(catalog, members)
    sigma_sorted = tuple(sorted(sigma))
    _, b2 = bongartz_split(catalog, members)
    _, c2 = dual_bongartz_split(catalog, members)
    if len(b2) != len(sigma_sorted) or len(c2) != len(sigma_sorted):
        raise MatchingFailed(
            f"|B2| = {len(b2)}, |C2| = {len(c2)}, expected {len(sigma_sorted)}")
    t_dimvs = [catalog.entries[i].dimv for i in members]
    algebra = catalog.algebra
    b_matching = _match(catalog, sorted(b2), sigma_sorted,
                        lambda v: projective_dimv(algebra, v), t_dimvs)
    c_matching = _match(catalog, sorted(c2), sigma_sorted,
                        lambda v: injective_dimv(algebra, v), t_dimvs)
    return SplitReport(ok=True, sigma=sigma_sorted, b2_matching=b_matching, c2_matching=c_matching)
