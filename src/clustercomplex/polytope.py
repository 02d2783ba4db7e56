"""The face poset of the support-tilting complex, and its polytope axioms.

A face is the int bitmask of its vertices over a combined vertex pool:
coordinate vertex v is bit v and the catalog member with id k is bit n + k.
The poset order is containment (`a & b == a`), with one sentinel top face
above all facets; the sentinel is never materialized as a mask.  Ranks: a
face with v vertices has rank v - 1, the top has rank n.  The faces are the
pairs of the rigid-set walk (`RootCatalog.faces`), as they come, so a wrong
pair shows up as a failed axiom.  The facets are the faces with n vertices,
kept in the order of their ascending vertex tuples.

Axioms checked here, for a poset with bottom and top:
  AP1  unique minimal and maximal face,
  AP2  every maximal chain has the same length (purity),
  AP4  every rank-1 section contains exactly four elements (diamonds),
plus simpliciality (each proper face's lower interval is boolean) and strong
flag connectivity (the facet adjacency graph of every co-face is connected).

A complex is its faces filed by size, levels[k] a dict from each face
with k vertices to its up mask, and its facets, the level n in order.
`up[F]` is the mask of the vertices v such that F + v is a face; it is the
vertex set of the link of F, and it decides every check.  Every check asks
about one size at a time, so each reads whole levels: the scan counts a
level's faces by up popcount in C, AP4 reads the level n - 1 and a link
of a face with k vertices is flooded through the level k + 1.  The walk
reads each face's up off its rigid set's masks (the up lemma in
`tilting`), and its faces are down-closed, so no face loses a subface.  A
face set that a test builds gets its up from the sweep over every face
minus one vertex in `tests/oracles.py`.  The scan (`ClusterComplex.scan`)
passes once over the levels.  A face with an empty up is maximal, and AP2
asks that it have n vertices; a face with more than n vertices, which a
wrong kernel or a test can give, sits in a level above n, and its maximal
faces fail AP2 too.  Every subset of a face is a face once no face loses
a subface, by induction on size (simpliciality), and the scan tells
whether one did from the up masks alone (`_scan`).  The middle of the
interval from U - {a, b} up to U is U - a and U - b, so the inner diamonds
exist when no face of size >= 2 loses one.  A ridge (a face with n - 1 vertices) is thin
when its up has two bits, v and w; AP4 at the top asks that every ridge be
thin, and the facets R + v and R + w are then exchange neighbours.

Strong flag connectivity comes from links.  In a pure complex every
co-face is strongly connected exactly when every link of dimension >= 1 is
connected, the whole complex included as the link of the empty face.  The
proof is an induction on dimension: the link of a vertex connects the
facets through it, and a path of vertices joins any two facets.  The link
of F has the vertices up[F], and v and w are joined when w is in up[F + v],
so one flood decides each link; it stops once every link vertex is seen,
or sooner by the small-link lemma below.
The lemma needs purity, so a complex that is not pure fails `strong-flag`
as well as AP2.  With every ridge thin, this also decides the literal walk
on flags, which `tests/oracles.py` keeps.

Most links are too small to split, and are not flooded.  Small-link lemma:
let m be the fewest up bits of any face with k + 1 vertices, and let no
face lose a subface.  Then every link of a face F with k vertices that has
fewer than 2 (1 + m) vertices is connected.  Proof: take v in up[F] and w
in up[F + v].  F + w is F + v + w minus v, a face, so w is in up[F], and v
and w are joined since F + v + w is a face.  So the component of v holds v
and the at least m vertices of up[F + v]; two components need 2 (1 + m)
vertices.  The same count cuts a flood short: the component of the
first vertex holds every vertex the flood has seen, so a second component
lies among the unseen ones and holds at least 1 + m of them; once at most
m link vertices are unseen, the link is connected.  The floor is this
rule applied before the first lookup, with the 1 + m vertices of the
first component counted as seen.  When a face lost a subface, every link
is flooded to the end.  The scan keeps the widest up of each level next
to the fewest (`AxiomReport.widest`), and a level whose widest link is
below its floor is not read at all.

A rank-2 window, the infinite rank-2 complex cut down to a line, is a
`ClusterComplex` like the others, built from the same walk.  Its checks
differ: `rank2_window_complex` checks that its facets are the expected
ones, that every vertex but the two window ends lies in two of them, and
that they form a path.  It does not ask for the polytope axioms, which the
cut breaks at the two ends.
"""

from __future__ import annotations

from collections import ChainMap, Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import compress
from operator import not_
from typing import Mapping, Sequence

from .errors import NotRankTwoInfinite
from .homext import ids_of, mask_of
from .roots import PREINJ, PREPROJ, RANK2_INFINITE, RootCatalog
from .tilting import decode_face

Face = int


def _face_key(face: Face) -> tuple[int, tuple[int, ...]]:
    """Faces by size, then by ascending vertex tuple: the order of witnesses."""
    return face.bit_count(), ids_of(face)


def face_label(catalog: RootCatalog, face: Face) -> str:
    """The members' dimension vectors, then the unsupported vertices, 1-based."""
    ids, sigma = decode_face(catalog.algebra.n, face)
    dimvs = ",".join(catalog.labels[i] for i in ids)
    return dimvs + "|" + ",".join(str(v + 1) for v in sigma)


def _unreached(up: Mapping[int, int], within: int, base: Face = 0, spare: int = 0) -> int:
    """The bits of `within` that a flood from its lowest bit misses, or 0
    once at most `spare` of them are left unseen.

    A depth-first flood: each bit taken off the stack adds the unseen bits
    of `up[base | bit]` inside `within`.  It stops with 0 as soon as every
    bit of `within` is seen, or after a lookup that leaves at most `spare`
    bits unseen, so a connected `within` costs no more lookups than it
    needs; otherwise it runs out and returns what the component of the
    lowest bit left unseen.  A nonzero `spare` is for a caller that knows
    every other component has more bits than that (the small-link lemma).
    """
    seen = stack = within & -within
    while seen != within:
        if not stack:
            return within ^ seen
        low = stack & -stack
        stack ^= low
        new = up[base | low] & within & ~seen
        seen |= new
        stack |= new
        if spare and (within ^ seen).bit_count() <= spare:
            return 0
    return 0


@dataclass
class ClusterComplex:
    """A complex, a finite one or a rank-2 window: its faces filed by size,
    levels[k] mapping each face with k vertices to its up mask, and the
    facets, the faces with n vertices by ascending vertex tuple.
    `build_complex` takes both from the catalog's walk, `complex_of` in
    `tests/oracles.py` from a face set built in a test."""

    catalog: RootCatalog
    levels: Sequence[Mapping[Face, int]]
    facets: Sequence[Face]

    @property
    def n(self) -> int:
        return self.catalog.algebra.n

    @cached_property
    def faces(self) -> Mapping[Face, int]:
        """Every face mapped to its up mask, one flat view over the levels."""
        return ChainMap(*self.levels)

    @cached_property
    def scan(self) -> AxiomReport:
        """The axioms, from the one pass over the levels' up masks (`_scan`)."""
        return _scan(self)


@dataclass
class AxiomReport:
    """`bad_ridges` are the faces of size n - 1 whose up does not have two
    bits, and `lost_faces` the faces minus one vertex that are not faces,
    each by size and then vertex tuple.  `short_face`, the witness of AP2,
    is the first maximal face without n vertices in that order, or None.
    `least[k]`, for the flood floors, is the fewest up bits of a face with
    k vertices, and `widest[k]`, which tells the floods which levels they
    can skip, the most."""

    ap1: bool
    ap2: bool
    ap4: bool
    simplicial: bool
    bad_ridges: list[Face]
    short_face: Face | None
    lost_faces: list[Face]
    least: dict[int, int]
    widest: dict[int, int]

    @property
    def ok(self) -> bool:
        return self.ap1 and self.ap2 and self.ap4 and self.simplicial


def _scan(cx: ClusterComplex) -> AxiomReport:
    """One pass over each level's up masks: how many faces have each
    number of up bits, counted in C.

    Double count: the sum of |F| over the faces counts every pair (H, v)
    with v in the face H, and the sum of |up[F]| counts the pairs where
    H - v is a face too (F = H - v and v in up[F]).  So the sums are equal
    exactly when no face lost a subface, and only when they differ are the
    faces minus one vertex looked up, to name the lost ones.

    AP2 holds when no maximal face is short.  AP4 at the top asks that
    every ridge, every face of the level n - 1, be thin; inside the proper
    part, a diamond is missing below every face of size >= 2 that lost a
    subface, and that subface is not empty."""
    n, levels = cx.n, cx.levels
    least: dict[int, int] = {}
    widest: dict[int, int] = {}
    short, thick = [], []
    held = linked = 0
    for k, level in enumerate(levels):
        if not level:
            continue
        links = Counter(map(int.bit_count, level.values()))
        held += k * len(level)
        linked += sum(bits * count for bits, count in links.items())
        least[k], widest[k] = min(links), max(links)
        if k != n and not least[k]:
            short += compress(level, map(not_, level.values()))
        if k == n - 1 and links.keys() - {2}:
            thick += compress(level, map((2).__ne__, map(int.bit_count, level.values())))
    lost = [] if held == linked else sorted(
        {sub for k, level in enumerate(levels) for face in level
         for v in ids_of(face) if (sub := face ^ 1 << v) not in levels[k - 1]},
        key=_face_key)
    return AxiomReport(ap1=0 in levels[0] and len(cx.facets) > 0,
                       ap2=not short,
                       ap4=not thick and not any(lost),
                       simplicial=not lost,
                       bad_ridges=sorted(thick, key=_face_key),
                       short_face=min(short, key=_face_key, default=None),
                       lost_faces=lost,
                       least=least,
                       widest=widest)


def build_complex(catalog: RootCatalog) -> ClusterComplex:
    """The walk's levels of faces with their up masks, as they are, and the
    facets, for a finite catalog or a rank-2 window alike."""
    return ClusterComplex(catalog=catalog, levels=catalog.faces, facets=catalog.facets)


def verify_ap_axioms(cx: ClusterComplex) -> AxiomReport:
    """The axioms as the one scan of `cx` found them."""
    return cx.scan


def exchange_graph(facets: Sequence[Face]) -> dict[int, tuple[int, ...]]:
    """Facet adjacency, as indices into `facets`: two facets are joined
    when they are the only holders of a ridge F - v.  On a complex these
    are its thin ridges; a face set that lacks such a ridge keeps the
    edge, though the ridge is not a face."""
    holders: dict[Face, list[int]] = {}
    for i, facet in enumerate(facets):
        for v in ids_of(facet):
            holders.setdefault(facet ^ 1 << v, []).append(i)
    adj: dict[int, list[int]] = {i: [] for i in range(len(facets))}
    for pair in holders.values():
        if len(pair) == 2:
            i, j = pair
            adj[i].append(j)
            adj[j].append(i)
    return {i: tuple(sorted(js)) for i, js in adj.items()}


def is_path(adj: dict[int, tuple[int, ...]]) -> bool:
    """One node without edges, or two ends of degree 1, every other node of
    degree 2, and one flood from the lowest node reaching them all."""
    degrees = [len(ws) for ws in adj.values()]
    if degrees == [0]:
        return True
    if degrees.count(1) != 2 or not all(d in (1, 2) for d in degrees):
        return False
    masks = {1 << v: mask_of(ws) for v, ws in adj.items()}
    return not _unreached(masks, mask_of(adj))


@dataclass
class FlagReport:
    """Strong flag connectivity, from purity, thin ridges and links.

    The witnesses, each the first by size and then vertex tuple, are the
    ridge that is not thin and the face whose link is disconnected (its
    co-face is then disconnected too).
    """

    pure: bool
    thin: bool
    cofaces_connected: bool
    coface_witness: Face | None
    ridge_witness: Face | None

    @property
    def ok(self) -> bool:
        return self.pure and self.thin and self.cofaces_connected


def _flood_floor(cx: ClusterComplex) -> list[int]:
    """floor[k], for k < n - 1: the fewest link vertices that a face with k
    vertices needs before its link can be disconnected, 2 (1 + m) with m the
    fewest up bits of a face with k + 1 vertices (the small-link lemma); all
    0 when a face lost a subface, so that every link is flooded."""
    n, scan = cx.n, cx.scan
    if scan.lost_faces:
        return [0] * (n - 1)
    # with no face of k + 1 vertices every face of k vertices has an empty up
    return [2 * (1 + scan.least.get(k + 1, 0)) for k in range(n - 1)]


def _split_links(cx: ClusterComplex) -> list[Face]:
    """The faces with at most n - 2 vertices whose link is disconnected; a
    link below its `_flood_floor` is connected and is not flooded, and a
    level whose widest link (`AxiomReport.widest`) is below its floor is not
    read at all.  A face with k vertices floods through the level k + 1,
    and the flood stops once at most m = floor / 2 - 1 link vertices are
    unseen, as a second component would hold 1 + m of them; with floor 0
    every flood runs to the end."""
    levels, floor, widest = cx.levels, _flood_floor(cx), cx.scan.widest
    split = []
    for k, need in enumerate(floor):
        if widest.get(k, 0) < need:
            continue
        level, above, spare = levels[k], levels[k + 1], max(need // 2 - 1, 0)
        wide = compress(level.items(), map(need.__le__, map(int.bit_count, level.values())))
        split += [f for f, link in wide if _unreached(above, link, f, spare)]
    return split


def verify_flag_connected(cx: ClusterComplex) -> FlagReport:
    split = _split_links(cx)
    thick = cx.scan.bad_ridges
    return FlagReport(pure=cx.scan.ap2,
                      thin=not thick,
                      cofaces_connected=not split,
                      coface_witness=min(split, key=_face_key, default=None),
                      ridge_witness=thick[0] if thick else None)


@dataclass
class WindowReport:
    """The line shape of a rank-2 window's complex, one verdict per check.

    The witnesses, each None when its check holds, are the first facet by
    size and then vertex tuple that is found but not expected or expected
    but not found, and the first vertex, as a one-vertex face, in the wrong
    number of facets.
    """

    facets_expected: bool
    interior_ridges_ok: bool
    path_ok: bool
    facet_witness: Face | None
    vertex_witness: Face | None

    @property
    def ok(self) -> bool:
        return self.facets_expected and self.interior_ridges_ok and self.path_ok


def rank2_window_complex(cx: ClusterComplex) -> WindowReport:
    """Check the facets of a rank-2 window's complex against the line shape.

    Facets must be exactly: the zero module, the two single-vertex members,
    and the neighbouring pairs inside each family.  Every vertex other than
    the two window-boundary members must lie in exactly two facets, and the
    facet adjacency graph must be a path.  In rank 2 the faces with two
    vertices are the facets, so both read the up masks of the vertices.
    """
    catalog, n = cx.catalog, cx.n
    if catalog.kind != RANK2_INFINITE:
        raise NotRankTwoInfinite("window complex requires an infinite rank-2 catalog")

    zero = (1 << n) - 1
    expected: set[Face] = {zero}
    for e, supp in zip(catalog.entries, catalog.kernel.support):
        if supp.bit_count() == 1:
            expected.add((zero ^ supp) | (1 << (n + e.id)))
    for a, b in zip(catalog.entries, catalog.entries[1:]):
        if a.component == b.component:
            expected.add((1 << (n + a.id)) | (1 << (n + b.id)))

    # Boundary members: last of the forward family, first of the backward one.
    preproj = [e.id for e in catalog.entries if e.component == PREPROJ]
    preinj = [e.id for e in catalog.entries if e.component == PREINJ]
    boundary = {n + preproj[-1], n + preinj[0]}
    bad = next((v for v in range(n + len(catalog))
                if cx.levels[1].get(1 << v, 0).bit_count() != (1 if v in boundary else 2)), None)
    wrong = set(cx.facets) ^ expected
    return WindowReport(facets_expected=not wrong,
                        interior_ridges_ok=bad is None,
                        path_ok=is_path(exchange_graph(cx.facets)),
                        facet_witness=min(wrong, key=_face_key) if wrong else None,
                        vertex_witness=None if bad is None else 1 << bad)
