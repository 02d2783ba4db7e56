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
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import dataclass
from itertools import combinations, permutations

from .algebra import format_dimv
from .errors import NotFiniteType, NotProperFace, NotRankTwoInfinite
from .roots import FINITE, PREINJ, PREPROJ, RANK2_INFINITE, RootCatalog
from .tilting import (
    SupportTilting,
    enumerate_support_tilting,
    support_tilting_sets,
)

Face = frozenset

POLYGONS = {4: "square", 5: "pentagon", 6: "hexagon", 8: "octagon"}

FLAG_ENUMERATION_LIMIT = 20_000


def encode_face(n: int, st: SupportTilting) -> Face:
    return frozenset(st.sigma) | frozenset(n + i for i in st.ids)


def decode_face(n: int, face: Face) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(member ids, sigma vertices) of an encoded face."""
    ids = tuple(sorted(v - n for v in face if v >= n))
    sigma = tuple(sorted(v for v in face if v < n))
    return ids, sigma


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

    # AP2 via purity: a proper face maximal under containment must be a facet.
    non_maximal: set[Face] = set()
    for face in faces:
        for v in face:
            non_maximal.add(face - {v})
    maximal = [f for f in faces if f not in non_maximal]
    ap2 = all(len(f) == n for f in maximal)

    simplicial = True
    for face in faces:
        subsets = sum(1 for size in range(len(face) + 1)
                      for sub in combinations(sorted(face), size)
                      if frozenset(sub) in faces)
        if subsets != 2 ** len(face):
            simplicial = False
            break

    # AP4 at the top: each ridge lies in exactly two facets.
    bad_ridges = []
    for face in faces:
        if len(face) == n - 1:
            count = sum(1 for facet in cx.facets if face <= facet)
            if count != 2:
                bad_ridges.append(face)
    ap4 = not bad_ridges
    # AP4 inside the proper part: two-step intervals are diamonds.
    if ap4:
        for upper in faces:
            if len(upper) < 2:
                continue
            for pair in combinations(sorted(upper), 2):
                lower = upper - frozenset(pair)
                middle = sum(1 for v in pair if lower | {v} in faces)
                if middle != 2:
                    ap4 = False
                    break
            if not ap4:
                break

    return AxiomReport(ap1=ap1, ap2=ap2, ap4=ap4, simplicial=simplicial,
                       bad_ridges=bad_ridges)


def exchange_graph(cx: ClusterComplex) -> dict[int, tuple[int, ...]]:
    """Facet adjacency: indices into cx.facets, edge iff the faces share a ridge."""
    adj: dict[int, list[int]] = {i: [] for i in range(len(cx.facets))}
    for i, j in combinations(range(len(cx.facets)), 2):
        if len(cx.facets[i] ^ cx.facets[j]) == 2:
            adj[i].append(j)
            adj[j].append(i)
    return {i: tuple(sorted(v)) for i, v in adj.items()}


def _connected(nodes: list[int], adj: dict[int, tuple[int, ...]]) -> bool:
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


def _all_flags(cx: ClusterComplex) -> list[tuple[Face, ...]]:
    flags = []
    for facet in cx.facets:
        for order in permutations(sorted(facet)):
            chain = []
            current: set = set()
            for v in order:
                current.add(v)
                chain.append(frozenset(current))
            flags.append(tuple(chain))
    return flags


def _flags_connected(cx: ClusterComplex) -> bool:
    """Literal adjacency walk on flags: adjacent iff they differ in one chain entry."""
    flags = _all_flags(cx)
    index = {f: i for i, f in enumerate(flags)}
    adj: dict[int, list[int]] = {i: [] for i in range(len(flags))}
    groups: dict[tuple, list[int]] = {}
    for f, i in index.items():
        for pos in range(len(f)):
            key = (pos, f[:pos], f[pos + 1:])
            groups.setdefault(key, []).append(i)
    for members in groups.values():
        if len(members) != 2:
            return False
        a, b = members
        adj[a].append(b)
        adj[b].append(a)
    return _connected(list(range(len(flags))), {k: tuple(v) for k, v in adj.items()})


@dataclass
class FlagReport:
    exchange_connected: bool
    zero_reachable: bool
    cofaces_connected: bool
    literal_flags_connected: bool | None

    @property
    def ok(self) -> bool:
        literal = self.literal_flags_connected in (None, True)
        return self.exchange_connected and self.zero_reachable and self.cofaces_connected and literal


def verify_flag_connected(cx: ClusterComplex) -> FlagReport:
    n = cx.n
    adj = exchange_graph(cx)
    nodes = list(range(len(cx.facets)))
    exchange_connected = _connected(nodes, adj)

    zero_face = frozenset(range(n))
    zero_reachable = zero_face in cx.facets and exchange_connected

    cofaces_connected = True
    for face in cx.faces:
        if len(face) == n:
            continue
        holding = [i for i in nodes if face <= cx.facets[i]]
        if not _connected(holding, adj):
            cofaces_connected = False
            break

    literal = None
    if len(cx.facets) * math.factorial(n) <= FLAG_ENUMERATION_LIMIT:
        literal = _flags_connected(cx)

    return FlagReport(exchange_connected=exchange_connected,
                      zero_reachable=zero_reachable,
                      cofaces_connected=cofaces_connected,
                      literal_flags_connected=literal)


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
    n = cx.n
    rank = n - len(face)
    holding = [i for i in range(len(cx.facets)) if face <= cx.facets[i]]
    polygon = None
    ok = True
    if rank == 2:
        polygon = POLYGONS.get(len(holding))
        adj = exchange_graph(cx)
        sub = {i: tuple(j for j in adj[i] if face <= cx.facets[j]) for i in holding}
        ok = polygon is not None and is_single_cycle(sub)
    return CofaceProfile(rank=rank, facet_count=len(holding), polygon=polygon, ok=ok)


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
    facet adjacency graph must be a path.  Incidences are counted in one
    pass over the facets, and adjacency comes from a ridge -> facets map
    filled by emitting each facet's ridges.
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
    incidence = Counter(v for facet in facets for v in facet)
    vertices = set(range(n)) | {n + e.id for e in catalog.entries}
    interior_ridges_ok = all(incidence[v] == (1 if v in boundary else 2) for v in vertices)

    by_ridge: dict[Face, list[int]] = defaultdict(list)
    for i, facet in enumerate(facets):
        for v in facet:
            by_ridge[facet - {v}].append(i)
    adj: dict[int, list[int]] = {i: [] for i in range(len(facets))}
    for holders in by_ridge.values():
        for i, j in combinations(holders, 2):
            adj[i].append(j)
            adj[j].append(i)
    path_ok = is_path({i: tuple(v) for i, v in adj.items()})

    return WindowComplex(catalog=catalog,
                         support_tiltings=tuple(support_tiltings),
                         facets=facets,
                         facets_expected=facets_expected,
                         interior_ridges_ok=interior_ridges_ok,
                         path_ok=path_ok)
