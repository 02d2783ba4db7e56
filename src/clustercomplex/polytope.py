"""The face poset built from support-tilting sets, and its polytope axioms.

A face is the int bitmask of its vertices over a combined vertex pool:
coordinate vertex v is bit v and the catalog member with id k is bit n + k.
The poset order is containment (`a & b == a`), with one sentinel top face
above all facets; the sentinel is never materialized as a mask.  Ranks: a
face with v vertices has rank v - 1, the top has rank n.  Faces are the
submasks of the facets; facets are kept in the order of their ascending
vertex tuples.

Axioms checked here, for a poset with bottom and top:
  AP1  unique minimal and maximal face,
  AP2  every maximal chain has the same length (purity),
  AP4  every rank-1 section contains exactly four elements (diamonds),
plus simpliciality (each proper face's lower interval is boolean) and strong
flag connectivity (the facet adjacency graph of every co-face is connected).

AP2, simpliciality and the inner diamonds all ask whether a face minus one
vertex (`face ^ bit`) is a face, so one sweep over these codimension-1
subfaces decides them.  The subfaces found are the non-maximal faces (AP2).
Every subset of a face is a face once every face minus one vertex is, by
induction on size (simpliciality).  The middle of the interval from
U - {a, b} up to U is U - a and U - b, so the diamonds below U exist when U
loses none (AP4).

Every question about the facets above a face is answered by one incidence
index, built once per complex (`ClusterComplex.index`): each vertex has a
row, the bitmask of the indices of the facets holding it; each facet has
the bitmask of its exchange neighbours; and each ridge has the number of
facets holding it.  A face's holders are the AND of its vertices' rows.  A
ridge is thin when two facets hold it; two facets are exchange neighbours
when they share a ridge.  A co-face is connected when a flood from one of
its facets (OR the neighbour masks of the frontier, AND with the holders)
reaches all of them.  On a pure, downward-closed complex the literal walk
on flags is connected exactly when every ridge is thin and the exchange
graph is connected, so strong flag connectivity is decided from the same
index at any size.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from functools import cached_property, reduce
from operator import or_
from typing import Iterable, Mapping, NamedTuple, Sequence

from .algebra import format_dimv
from .errors import NotFiniteType, NotProperFace, NotRankTwoInfinite
from .homext import ids_of, mask_of
from .roots import FINITE, PREINJ, PREPROJ, RANK2_INFINITE, RootCatalog
from .tilting import (
    SupportTilting,
    enumerate_support_tilting,
    support_tilting_sets,
)

Face = int

POLYGONS = {4: "square", 5: "pentagon", 6: "hexagon", 8: "octagon"}


def encode_face(n: int, st: SupportTilting) -> Face:
    return mask_of(st.sigma) | mask_of(n + i for i in st.ids)


def decode_face(n: int, face: Face) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(member ids, sigma vertices) of an encoded face."""
    vertices = ids_of(face)
    return tuple(v - n for v in vertices if v >= n), tuple(v for v in vertices if v < n)


def _face_key(face: Face) -> tuple[int, tuple[int, ...]]:
    """Faces by size, then by ascending vertex tuple: the order of witnesses."""
    return face.bit_count(), ids_of(face)


def _sorted_facets(n: int, support_tiltings: Iterable[SupportTilting]) -> tuple[Face, ...]:
    return tuple(sorted((encode_face(n, st) for st in support_tiltings), key=ids_of))


class Incidence(NamedTuple):
    """The facets of a complex, indexed once.

    `rows` maps each vertex to the bitmask of the facets holding it,
    `exchange[i]` is the bitmask of facet i's exchange neighbours, and
    `ridges` maps each ridge (a facet minus one vertex) to its holder count.
    """

    rows: dict[int, int]
    exchange: tuple[int, ...]
    ridges: dict[Face, int]


def incidence(facets: Sequence[Face]) -> Incidence:
    """Index the facets in one pass over their ridges."""
    rows: dict[int, int] = defaultdict(int)
    holding: dict[Face, list[int]] = defaultdict(list)
    for i, facet in enumerate(facets):
        bit = 1 << i
        for v in ids_of(facet):
            rows[v] |= bit
            holding[facet ^ (1 << v)].append(i)
    exchange = [0] * len(facets)
    for held in holding.values():
        if len(held) > 1:
            mask = mask_of(held)
            for i in held:
                exchange[i] |= mask ^ (1 << i)
    return Incidence(rows=dict(rows), exchange=tuple(exchange),
                     ridges={ridge: len(held) for ridge, held in holding.items()})


def holders(rows: Mapping[int, int], face: Face) -> int:
    """Bitmask of the facets holding `face`: the AND of its vertices' rows.

    The empty face lies in every facet.
    """
    if not face:
        return reduce(or_, rows.values(), 0)
    held = -1
    while face:
        low = face & -face
        held &= rows.get(low.bit_length() - 1, 0)
        face ^= low
    return held


def _unreached(neighbours: Sequence[int] | Mapping[int, int], within: int) -> int:
    """The members of `within` that a flood from its lowest member misses.

    Each round ORs the `neighbours` masks of the frontier and ANDs the result
    with what is left unreached; `within` is connected when nothing is left.
    """
    frontier = within & -within
    rest = within ^ frontier
    while frontier:
        reach = 0
        while frontier:
            i = frontier.bit_length() - 1
            reach |= neighbours[i]
            frontier ^= 1 << i
        frontier = reach & rest
        rest ^= frontier
    return rest


def _face_label(catalog: RootCatalog, face: Face) -> str:
    n = catalog.algebra.n
    ids, sigma = decode_face(n, face)
    dimvs = ",".join(format_dimv(catalog.entries[i].dimv) for i in ids)
    return dimvs + "|" + ",".join(str(v + 1) for v in sigma)


@dataclass
class ClusterComplex:
    """Face data; facets are kept in a deterministic order."""

    catalog: RootCatalog
    support_tiltings: tuple[SupportTilting, ...]
    facets: tuple[Face, ...]
    faces: frozenset[Face]

    @property
    def n(self) -> int:
        return self.catalog.algebra.n

    @cached_property
    def index(self) -> Incidence:
        """The incidence index of the facets, built on first use."""
        return incidence(self.facets)

    def face_label(self, face: Face) -> str:
        return _face_label(self.catalog, face)


def complex_from_facets(catalog: RootCatalog,
                        support_tiltings: list[SupportTilting]) -> ClusterComplex:
    """Faces are the facets and, level by level, every face minus one vertex."""
    facets = _sorted_facets(catalog.algebra.n, support_tiltings)
    faces = set(facets)
    level = faces
    while level:
        below = set()
        for face in level:
            rest = face
            while rest:
                low = rest & -rest
                below.add(face ^ low)
                rest ^= low
        faces |= below
        level = below
    ordered = tuple(sorted(support_tiltings, key=lambda st: (len(st.ids), st.ids, st.sigma)))
    return ClusterComplex(catalog=catalog, support_tiltings=ordered,
                          facets=facets, faces=frozenset(faces))


def build_complex(catalog: RootCatalog) -> ClusterComplex:
    """Faces are the subsets of the facets; downward closure holds by construction."""
    if catalog.kind != FINITE:
        raise NotFiniteType("complex construction requires a finite catalog")
    return complex_from_facets(catalog, enumerate_support_tilting(catalog))


@dataclass
class AxiomReport:
    """`bad_ridges` are the faces of size n - 1 not held by exactly two
    facets, by size and then vertex tuple."""

    ap1: bool
    ap2: bool
    ap4: bool
    simplicial: bool
    bad_ridges: list[Face]

    @property
    def ok(self) -> bool:
        return self.ap1 and self.ap2 and self.ap4 and self.simplicial


def _is_bad_ridge(ridges: Mapping[Face, int], n: int, face: Face) -> bool:
    return face.bit_count() == n - 1 and ridges.get(face, 0) != 2


def verify_ap_axioms(cx: ClusterComplex) -> AxiomReport:
    n = cx.n
    faces = cx.faces

    ap1 = 0 in faces and len(cx.facets) > 0

    non_maximal: set[Face] = set()
    broken: set[Face] = set()
    for face in faces:
        rest = face
        while rest:
            low = rest & -rest
            rest ^= low
            sub = face ^ low
            if sub in faces:
                non_maximal.add(sub)
            else:
                broken.add(face)
    # AP2 via purity: a face maximal under containment must be a facet.
    ap2 = all(f.bit_count() == n for f in faces if f not in non_maximal)
    simplicial = not broken

    # AP4 at the top: each ridge lies in exactly two facets; inside the
    # proper part, a diamond is missing below every broken face of size >= 2.
    ridges = cx.index.ridges
    bad_ridges = sorted((f for f in faces if _is_bad_ridge(ridges, n, f)), key=_face_key)
    ap4 = not bad_ridges and all(f.bit_count() < 2 for f in broken)

    return AxiomReport(ap1=ap1, ap2=ap2, ap4=ap4, simplicial=simplicial,
                       bad_ridges=bad_ridges)


def exchange_graph(cx: ClusterComplex | WindowComplex) -> dict[int, tuple[int, ...]]:
    """Facet adjacency: indices into cx.facets, edge iff the faces share a ridge."""
    return _adjacency(cx.index)


def _adjacency(index: Incidence) -> dict[int, tuple[int, ...]]:
    return {i: ids_of(mask) for i, mask in enumerate(index.exchange)}


def _connected(adj: Mapping[int, Iterable[int]]) -> bool:
    masks = {v: mask_of(ws) for v, ws in adj.items()}
    return not _unreached(masks, mask_of(adj))


def is_single_cycle(adj: dict[int, tuple[int, ...]]) -> bool:
    return (len(adj) >= 3
            and all(len(ws) == 2 for ws in adj.values())
            and _connected(adj))


def is_path(adj: dict[int, tuple[int, ...]]) -> bool:
    nodes = list(adj)
    if len(nodes) == 1:
        return adj[nodes[0]] == ()
    degrees = sorted(len(adj[v]) for v in nodes)
    return (degrees.count(1) == 2
            and all(d in (1, 2) for d in degrees)
            and _connected(adj))


@dataclass
class FlagReport:
    """Strong flag connectivity, from the incidence index.

    `thin` holds when every ridge lies in exactly two facets.  Given
    thinness, the flags are connected exactly when the exchange graph is.
    The witnesses, each the first by size and then vertex tuple, are the
    face whose co-face is disconnected and the ridge that is not thin.
    """

    exchange_connected: bool
    zero_reachable: bool
    cofaces_connected: bool
    thin: bool
    coface_witness: Face | None
    ridge_witness: Face | None

    @property
    def ok(self) -> bool:
        return (self.exchange_connected and self.zero_reachable
                and self.cofaces_connected and self.thin)


def verify_flag_connected(cx: ClusterComplex) -> FlagReport:
    n = cx.n
    index = cx.index
    everything = (1 << len(cx.facets)) - 1
    exchange_connected = not _unreached(index.exchange, everything)

    zero_reachable = (1 << n) - 1 in cx.facets and exchange_connected

    disconnected, thick = [], []
    for face in cx.faces:
        if face.bit_count() == n:
            continue
        if _is_bad_ridge(index.ridges, n, face):
            thick.append(face)
        if _unreached(index.exchange, holders(index.rows, face)):
            disconnected.append(face)

    return FlagReport(exchange_connected=exchange_connected,
                      zero_reachable=zero_reachable,
                      cofaces_connected=not disconnected,
                      thin=not thick,
                      coface_witness=min(disconnected, key=_face_key, default=None),
                      ridge_witness=min(thick, key=_face_key, default=None))


@dataclass
class CofaceProfile:
    rank: int
    facet_count: int
    polygon: str | None
    ok: bool


def coface_profile(cx: ClusterComplex, face: Face) -> CofaceProfile:
    """Shape of the interval from `face` up to the top sentinel.

    Its rank as a polytope is n - rank(face) - 1; for rank 2 the co-face must
    be one of the four polygons, and the facet cycle is verified.
    """
    if face not in cx.faces:
        raise NotProperFace(f"{list(ids_of(face))} is not a proper face")
    rank = cx.n - face.bit_count()
    index = cx.index
    holding = holders(index.rows, face)
    count = holding.bit_count()
    polygon = None
    ok = True
    if rank == 2:
        polygon = POLYGONS.get(count)
        sub = {i: ids_of(index.exchange[i] & holding) for i in ids_of(holding)}
        ok = polygon is not None and is_single_cycle(sub)
    return CofaceProfile(rank=rank, facet_count=count, polygon=polygon, ok=ok)


@dataclass
class WindowComplex:
    """Truncation of the infinite rank-2 complex to a catalog window."""

    catalog: RootCatalog
    support_tiltings: tuple[SupportTilting, ...]
    facets: tuple[Face, ...]
    facets_expected: bool
    interior_ridges_ok: bool
    path_ok: bool
    index: Incidence = field(repr=False)

    @property
    def ok(self) -> bool:
        return self.facets_expected and self.interior_ridges_ok and self.path_ok

    @property
    def n(self) -> int:
        return self.catalog.algebra.n

    def face_label(self, face: Face) -> str:
        return _face_label(self.catalog, face)


def rank2_window_complex(catalog: RootCatalog) -> WindowComplex:
    """Brute-force facets of a rank-2 window and check the expected line shape."""
    if catalog.kind != RANK2_INFINITE:
        raise NotRankTwoInfinite("window complex requires an infinite rank-2 catalog")
    return window_complex_from_facets(catalog, support_tilting_sets(catalog))


def window_complex_from_facets(catalog: RootCatalog,
                               support_tiltings: list[SupportTilting]) -> WindowComplex:
    """Check given window facets against the expected line shape.

    Facets must be exactly: the zero module, the two single-vertex members,
    and the neighbouring pairs inside each family.  Every vertex other than
    the two window-boundary members must lie in exactly two facets, and the
    facet adjacency graph must be a path.  Both come from the incidence index.
    """
    n = catalog.algebra.n
    facets = _sorted_facets(n, support_tiltings)

    zero = (1 << n) - 1
    expected: set[Face] = {zero}
    for e, supp in zip(catalog.entries, catalog.kernel.support):
        if supp.bit_count() == 1:
            expected.add((zero ^ supp) | (1 << (n + e.id)))
    for a, b in zip(catalog.entries, catalog.entries[1:]):
        if a.component == b.component:
            expected.add((1 << (n + a.id)) | (1 << (n + b.id)))
    facets_expected = set(facets) == expected

    # Boundary members: last of the forward family, first of the backward one.
    preproj = [e.id for e in catalog.entries if e.component == PREPROJ]
    preinj = [e.id for e in catalog.entries if e.component == PREINJ]
    boundary = {n + preproj[-1], n + preinj[0]}
    index = incidence(facets)
    vertices = set(range(n)) | {n + e.id for e in catalog.entries}
    interior_ridges_ok = all(index.rows.get(v, 0).bit_count() == (1 if v in boundary else 2)
                             for v in vertices)
    path_ok = is_path(_adjacency(index))

    return WindowComplex(catalog=catalog,
                         support_tiltings=tuple(support_tiltings),
                         facets=facets,
                         facets_expected=facets_expected,
                         interior_ridges_ok=interior_ridges_ok,
                         path_ok=path_ok,
                         index=index)
