"""The face poset built from support-tilting sets, and its polytope axioms.

Faces are frozensets over a combined vertex pool: coordinate vertices are
0..n-1 and the catalog member with id k becomes vertex n + k.  The poset
order is containment, with one sentinel top face above all facets; the
sentinel is never materialized as a vertex set.  Ranks: a face with v
vertices has rank v - 1, the top has rank n.

Axioms checked here, for a poset with bottom and top:
  AP1  unique minimal and maximal face,
  AP2  every maximal chain has the same length (purity),
  AP4  every rank-1 section contains exactly four elements (diamonds),
plus simpliciality (each proper face's lower interval is boolean) and strong
flag connectivity (the facet adjacency graph of every co-face is connected).

AP2, simpliciality and the inner diamonds all ask whether a face minus one
vertex is a face, so one sweep over these codimension-1 subfaces decides
them.  The subfaces found are the non-maximal faces (AP2).  Every subset of
a face is a face once every face minus one vertex is, by induction on size
(simpliciality).  The middle of the interval from U - {a, b} up to U is
U - a and U - b, so the diamonds below U exist when U loses none (AP4).

Every question about the facets above a face is answered by one incidence
index: `incidence(facets)` maps each vertex to the bitmask of the indices of
the facets holding it, and `holders(rows, face)` ANDs the rows of the face's
vertices.  A ridge is thin when its holder mask has popcount 2; two facets
are exchange neighbours when one holds a ridge of the other.  On a pure,
downward-closed complex the literal walk on flags is connected exactly when
every ridge is thin and the exchange graph is connected, so strong flag
connectivity is decided from the same rows at any size.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import reduce
from itertools import combinations
from operator import and_, or_
from typing import Sequence

from .algebra import format_dimv
from .errors import NotFiniteType, NotProperFace, NotRankTwoInfinite
from .homext import ids_of
from .roots import FINITE, PREINJ, PREPROJ, RANK2_INFINITE, RootCatalog
from .tilting import (
    SupportTilting,
    enumerate_support_tilting,
    support_tilting_sets,
)

Face = frozenset

POLYGONS = {4: "square", 5: "pentagon", 6: "hexagon", 8: "octagon"}


def encode_face(n: int, st: SupportTilting) -> Face:
    return frozenset(st.sigma) | frozenset(n + i for i in st.ids)


def decode_face(n: int, face: Face) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(member ids, sigma vertices) of an encoded face."""
    ids = tuple(sorted(v - n for v in face if v >= n))
    sigma = tuple(sorted(v for v in face if v < n))
    return ids, sigma


def incidence(facets: Sequence[Face]) -> dict[int, int]:
    """Vertex -> bitmask of the indices of the facets that hold it."""
    rows: dict[int, int] = defaultdict(int)
    for i, facet in enumerate(facets):
        for v in facet:
            rows[v] |= 1 << i
    return dict(rows)


def holders(rows: dict[int, int], face: Face) -> int:
    """Bitmask of the facets holding `face`: the AND of its vertices' rows.

    The empty face lies in every facet.
    """
    if not face:
        return reduce(or_, rows.values(), 0)
    return reduce(and_, (rows.get(v, 0) for v in face))


def _face_label(catalog: RootCatalog, face: Face) -> str:
    n = catalog.algebra.n
    ids, sigma = decode_face(n, face)
    dimvs = ",".join(format_dimv(catalog.entries[i].dimv) for i in ids)
    return dimvs + "|" + ",".join(str(v + 1) for v in sigma)


@dataclass
class ClusterComplex:
    """Immutable face data; facets are kept in a deterministic order."""

    catalog: RootCatalog
    support_tiltings: tuple[SupportTilting, ...]
    facets: tuple[Face, ...]
    faces: frozenset[Face]

    @property
    def n(self) -> int:
        return self.catalog.algebra.n

    def face_label(self, face: Face) -> str:
        return _face_label(self.catalog, face)


def complex_from_facets(catalog: RootCatalog,
                        support_tiltings: list[SupportTilting]) -> ClusterComplex:
    n = catalog.algebra.n
    facets = tuple(sorted((encode_face(n, st) for st in support_tiltings),
                          key=lambda f: tuple(sorted(f))))
    faces: set[Face] = set()
    for facet in facets:
        verts = sorted(facet)
        for size in range(len(verts) + 1):
            for sub in combinations(verts, size):
                faces.add(frozenset(sub))
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
    ap1: bool
    ap2: bool
    ap4: bool
    simplicial: bool
    bad_ridges: list[Face]

    @property
    def ok(self) -> bool:
        return self.ap1 and self.ap2 and self.ap4 and self.simplicial


def verify_ap_axioms(cx: ClusterComplex) -> AxiomReport:
    n = cx.n
    faces = cx.faces

    ap1 = frozenset() in faces and len(cx.facets) > 0

    non_maximal: set[Face] = set()
    broken: set[Face] = set()
    for face in faces:
        for v in face:
            sub = face - {v}
            if sub in faces:
                non_maximal.add(sub)
            else:
                broken.add(face)
    # AP2 via purity: a face maximal under containment must be a facet.
    ap2 = all(len(f) == n for f in faces if f not in non_maximal)
    simplicial = not broken

    # AP4 at the top: each ridge lies in exactly two facets; inside the
    # proper part, a diamond is missing below every broken face of size >= 2.
    rows = incidence(cx.facets)
    bad_ridges = [face for face in faces
                  if len(face) == n - 1 and holders(rows, face).bit_count() != 2]
    ap4 = not bad_ridges and all(len(f) < 2 for f in broken)

    return AxiomReport(ap1=ap1, ap2=ap2, ap4=ap4, simplicial=simplicial,
                       bad_ridges=bad_ridges)


def _exchange(facets: Sequence[Face], rows: dict[int, int]) -> dict[int, tuple[int, ...]]:
    """Facet adjacency from the incidence rows: a facet's neighbours are the
    holders of its ridges, less the facet itself."""
    adj = {}
    for i, facet in enumerate(facets):
        mask = reduce(or_, (holders(rows, facet - {v}) for v in facet), 0)
        adj[i] = ids_of(mask & ~(1 << i))
    return adj


def exchange_graph(cx: ClusterComplex | WindowComplex) -> dict[int, tuple[int, ...]]:
    """Facet adjacency: indices into cx.facets, edge iff the faces share a ridge.

    Reads only `cx.facets`, so finite and window complexes share it.
    """
    return _exchange(cx.facets, incidence(cx.facets))


def _connected(nodes: Sequence[int], adj: dict[int, tuple[int, ...]]) -> bool:
    if not nodes:
        return True
    allowed = set(nodes)
    seen = {nodes[0]}
    stack = [nodes[0]]
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if w in allowed and w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(allowed)


def is_single_cycle(adj: dict[int, tuple[int, ...]]) -> bool:
    nodes = list(adj)
    return (len(nodes) >= 3
            and all(len(adj[v]) == 2 for v in nodes)
            and _connected(nodes, adj))


def is_path(adj: dict[int, tuple[int, ...]]) -> bool:
    nodes = list(adj)
    if len(nodes) == 1:
        return adj[nodes[0]] == ()
    degrees = sorted(len(adj[v]) for v in nodes)
    return (degrees.count(1) == 2
            and all(d in (1, 2) for d in degrees)
            and _connected(nodes, adj))


@dataclass
class FlagReport:
    """Strong flag connectivity, from the incidence rows.

    `thin` holds when every ridge lies in exactly two facets.  Given
    thinness, the flags are connected exactly when the exchange graph is.
    """

    exchange_connected: bool
    zero_reachable: bool
    cofaces_connected: bool
    thin: bool

    @property
    def ok(self) -> bool:
        return (self.exchange_connected and self.zero_reachable
                and self.cofaces_connected and self.thin)


def verify_flag_connected(cx: ClusterComplex) -> FlagReport:
    n = cx.n
    rows = incidence(cx.facets)
    adj = _exchange(cx.facets, rows)
    exchange_connected = _connected(list(adj), adj)

    zero_face = frozenset(range(n))
    zero_reachable = zero_face in cx.facets and exchange_connected

    cofaces_connected = thin = True
    for face in cx.faces:
        if len(face) == n:
            continue
        holding = holders(rows, face)
        if len(face) == n - 1:
            thin = thin and holding.bit_count() == 2
        cofaces_connected = cofaces_connected and _connected(ids_of(holding), adj)

    return FlagReport(exchange_connected=exchange_connected,
                      zero_reachable=zero_reachable,
                      cofaces_connected=cofaces_connected,
                      thin=thin)


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
        raise NotProperFace(f"{sorted(face)} is not a proper face")
    rank = cx.n - len(face)
    rows = incidence(cx.facets)
    holding = holders(rows, face)
    count = holding.bit_count()
    polygon = None
    ok = True
    if rank == 2:
        polygon = POLYGONS.get(count)
        adj = _exchange(cx.facets, rows)
        sub = {i: tuple(j for j in adj[i] if holding >> j & 1) for i in ids_of(holding)}
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
    facet adjacency graph must be a path.  Both come from the incidence rows.
    """
    n = catalog.algebra.n
    facets = tuple(sorted((encode_face(n, st) for st in support_tiltings),
                          key=lambda f: tuple(sorted(f))))

    expected: set[Face] = {frozenset(range(n))}
    for e in catalog.entries:
        supp = [v for v, c in enumerate(e.dimv) if c > 0]
        if len(supp) == 1:
            sigma = [v for v in range(n) if v != supp[0]]
            expected.add(frozenset(sigma) | {n + e.id})
    for a, b in zip(catalog.entries, catalog.entries[1:]):
        if a.component == b.component:
            expected.add(frozenset({n + a.id, n + b.id}))
    facets_expected = set(facets) == expected

    # Boundary members: last of the forward family, first of the backward one.
    preproj = [e.id for e in catalog.entries if e.component == PREPROJ]
    preinj = [e.id for e in catalog.entries if e.component == PREINJ]
    boundary = {n + preproj[-1], n + preinj[0]}
    rows = incidence(facets)
    vertices = set(range(n)) | {n + e.id for e in catalog.entries}
    interior_ridges_ok = all(rows.get(v, 0).bit_count() == (1 if v in boundary else 2)
                             for v in vertices)
    path_ok = is_path(_exchange(facets, rows))

    return WindowComplex(catalog=catalog,
                         support_tiltings=tuple(support_tiltings),
                         facets=facets,
                         facets_expected=facets_expected,
                         interior_ridges_ok=interior_ridges_ok,
                         path_ok=path_ok)
