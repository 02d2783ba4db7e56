"""The face poset of the support-tilting complex, and its polytope axioms.

A face is the int bitmask of its vertices over a combined vertex pool:
coordinate vertex v is bit v and the catalog member with id k is bit n + k.
The poset order is containment (`a & b == a`), with one sentinel top face
above all facets; the sentinel is never materialized as a mask.  Ranks: a
face with v vertices has rank v - 1, the top has rank n.  The faces are the
pairs of the rigid-set walk (`RootCatalog.faces`), and nothing closes them
downwards, so a wrong pair shows up as a failed axiom.  The facets are the
faces with n vertices, kept in the order of their ascending vertex tuples.

Axioms checked here, for a poset with bottom and top:
  AP1  unique minimal and maximal face,
  AP2  every maximal chain has the same length (purity),
  AP4  every rank-1 section contains exactly four elements (diamonds),
plus simpliciality (each proper face's lower interval is boolean) and strong
flag connectivity (the facet adjacency graph of every co-face is connected).

One sweep fills `up`, one scan reads it.  The sweep over every face minus
one vertex (`face ^ bit`) fills `up[F]`, the mask of the vertices v such
that F + v is a face; it is the vertex set of the link of F, and it decides
every check.  The scan (`ClusterComplex.scan`) passes once over the faces'
up masks.  A face with an empty up is maximal, and AP2 asks that it have n
vertices.  Every subset of a face is a face once no face loses a subface,
by induction on size (simpliciality).  The keys of up are every face and
every lost subface, so equal lengths of up and the face set mean that no
face lost a subface.  The middle of the interval from U - {a, b} up to U is
U - a and U - b, so the inner diamonds exist when no face of size >= 2
loses one.  A ridge (a face with n - 1 vertices) is thin when its up has
two bits, v and w; AP4 at the top asks that every ridge be thin, and the
facets R + v and R + w are then exchange neighbours.

Strong flag connectivity comes from links.  In a pure complex every
co-face is strongly connected exactly when every link of dimension >= 1 is
connected, the whole complex included as the link of the empty face.  The
proof is an induction on dimension: the link of a vertex connects the
facets through it, and a path of vertices joins any two facets.  The link
of F has the vertices up[F], and v and w are joined when w is in up[F + v],
so one flood decides each link; it stops once every link vertex is seen.
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
vertices.  When a face lost a subface, every link is flooded.

A rank-2 window, the infinite rank-2 complex cut down to a line, is a
`ClusterComplex` like the others, built from the same walk.  Its checks
differ: `rank2_window_complex` checks that its facets are the expected
ones, that every vertex but the two window ends lies in two of them, and
that they form a path.  It does not ask for the polytope axioms, which the
cut breaks at the two ends.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from typing import Mapping

from .algebra import format_dimv
from .errors import NotProperFace, NotRankTwoInfinite
from .homext import ids_of, mask_of
from .roots import PREINJ, PREPROJ, RANK2_INFINITE, RootCatalog
from .tilting import decode_face, facets_among

Face = int

POLYGONS = {4: "square", 5: "pentagon", 6: "hexagon", 8: "octagon"}


def _face_key(face: Face) -> tuple[int, tuple[int, ...]]:
    """Faces by size, then by ascending vertex tuple: the order of witnesses."""
    return face.bit_count(), ids_of(face)


def face_label(catalog: RootCatalog, face: Face) -> str:
    """The members' dimension vectors, then the unsupported vertices, 1-based."""
    ids, sigma = decode_face(catalog.algebra.n, face)
    dimvs = ",".join(format_dimv(catalog.entries[i].dimv) for i in ids)
    return dimvs + "|" + ",".join(str(v + 1) for v in sigma)


def _unreached(up: Mapping[int, int], within: int, base: Face = 0) -> int:
    """The bits of `within` that a flood from its lowest bit misses.

    A depth-first flood: each bit taken off the stack adds the unseen bits
    of `up[base | bit]` inside `within`.  It stops with 0 as soon as every
    bit of `within` is seen, so a connected `within` costs no more lookups
    than it needs; otherwise it runs out and returns what the component of
    the lowest bit left unseen.
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
    return 0


@dataclass
class ClusterComplex:
    """The faces of a complex, a finite one or a rank-2 window; the rest is
    found on first use."""

    catalog: RootCatalog
    faces: frozenset[Face]

    @property
    def n(self) -> int:
        return self.catalog.algebra.n

    @cached_property
    def facets(self) -> tuple[Face, ...]:
        """The faces with n vertices, by ascending vertex tuple: the
        catalog's own list when these are the faces its walk found."""
        if self.faces is vars(self.catalog).get("faces"):
            return self.catalog.facets
        return tuple(facets_among(self.n, self.faces))

    @cached_property
    def up(self) -> dict[Face, int]:
        """up[F], the mask of the vertices v with F + v a face, for every
        face F and every face minus one vertex; a key outside `faces` is a
        subface that a face lost.  The faces are the first len(faces) keys:
        up starts as `dict.fromkeys(faces, 0)`, and the sweep appends only
        the lost subfaces after them."""
        up = dict.fromkeys(self.faces, 0)
        get = up.get
        for face in self.faces:
            rest = face
            while rest:
                low = rest & -rest
                rest ^= low
                sub = face ^ low
                up[sub] = get(sub, 0) | low
        return up

    @cached_property
    def scan(self) -> FaceScan:
        """What the one pass over the faces' up masks finds (`_scan`)."""
        return _scan(self)

    @property
    def pure(self) -> bool:
        """Every face with an empty up, a maximal face, has n vertices."""
        return self.scan.short_face is None


@dataclass
class FaceScan:
    """`least[k]` is the fewest up bits of a face with k vertices.
    `short_face` is the first maximal face without n vertices, or None;
    `bad_ridges` are the faces with n - 1 vertices whose up does not have
    two bits, and `lost_faces` the keys of up that are not faces.  Each is
    by size and then vertex tuple."""

    least: dict[int, int]
    short_face: Face | None
    bad_ridges: list[Face]
    lost_faces: list[Face]


def _scan(cx: ClusterComplex) -> FaceScan:
    """One pass over the (face, up) entries of the faces, the first
    len(faces) of up; the keys after them are the lost subfaces."""
    n, up, count = cx.n, cx.up, len(cx.faces)
    least: dict[int, int] = {}
    get = least.get
    short, thick = [], []
    for face, above in islice(up.items(), count):
        k, links = face.bit_count(), above.bit_count()
        if links < get(k, links + 1):
            least[k] = links
        if not above and k != n:
            short.append(face)
        if k == n - 1 and links != 2:
            thick.append(face)
    lost = list(islice(up, count, None)) if len(up) != count else []
    return FaceScan(least=least,
                    short_face=min(short, key=_face_key, default=None),
                    bad_ridges=sorted(thick, key=_face_key),
                    lost_faces=sorted(lost, key=_face_key))


def build_complex(catalog: RootCatalog) -> ClusterComplex:
    """The faces of the rigid-set walk, as they are, for a finite catalog or
    a rank-2 window alike."""
    return ClusterComplex(catalog=catalog, faces=catalog.faces)


@dataclass
class AxiomReport:
    """`bad_ridges` are the faces of size n - 1 not held by exactly two
    facets, and `lost_faces` the subfaces that a face lost, each by size and
    then vertex tuple.  `short_face`, the witness of AP2, is the first
    maximal face without n vertices in that order, or None."""

    ap1: bool
    ap2: bool
    ap4: bool
    simplicial: bool
    bad_ridges: list[Face]
    short_face: Face | None
    lost_faces: list[Face]

    @property
    def ok(self) -> bool:
        return self.ap1 and self.ap2 and self.ap4 and self.simplicial


def verify_ap_axioms(cx: ClusterComplex) -> AxiomReport:
    faces, scan = cx.faces, cx.scan
    lost = scan.lost_faces
    # AP4 at the top: every ridge is thin; inside the proper part, a diamond
    # is missing below every face of size >= 2 that lost a subface, and that
    # subface is not empty.
    return AxiomReport(ap1=0 in faces and len(cx.facets) > 0,
                       ap2=cx.pure,
                       ap4=not scan.bad_ridges and not any(lost),
                       simplicial=not lost,
                       bad_ridges=scan.bad_ridges,
                       short_face=scan.short_face,
                       lost_faces=lost)


def exchange_graph(cx: ClusterComplex) -> dict[int, tuple[int, ...]]:
    """Facet adjacency, as indices into cx.facets: each ridge R whose up is
    {v, w} joins the facets R + v and R + w."""
    ridge_size = cx.n - 1
    index = {facet: i for i, facet in enumerate(cx.facets)}
    adj: dict[int, list[int]] = {i: [] for i in index.values()}
    for ridge, above in cx.up.items():
        if ridge.bit_count() == ridge_size and above.bit_count() == 2:
            low = above & -above
            i, j = index[ridge | low], index[ridge | (above ^ low)]
            adj[i].append(j)
            adj[j].append(i)
    return {i: tuple(sorted(js)) for i, js in adj.items()}


def _connected(adj: Mapping[int, tuple[int, ...]]) -> bool:
    masks = {1 << v: mask_of(ws) for v, ws in adj.items()}
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
    link below its `_flood_floor` is connected and is not flooded."""
    n, up, floor = cx.n, cx.up, _flood_floor(cx)
    return [f for f, above in islice(up.items(), len(cx.faces))
            if (k := f.bit_count()) < n - 1 and above.bit_count() >= floor[k]
            and _unreached(up, above, f)]


def verify_flag_connected(cx: ClusterComplex) -> FlagReport:
    split = _split_links(cx)
    thick = cx.scan.bad_ridges
    return FlagReport(pure=cx.pure,
                      thin=not thick,
                      cofaces_connected=not split,
                      coface_witness=min(split, key=_face_key, default=None),
                      ridge_witness=thick[0] if thick else None)


@dataclass
class CofaceProfile:
    rank: int
    facet_count: int
    polygon: str | None
    ok: bool


def coface_profile(cx: ClusterComplex, face: Face) -> CofaceProfile:
    """Shape of the interval from `face` up to the top sentinel.

    Its rank as a polytope is n - rank(face) - 1; for rank 2 the co-face must
    be one of the four polygons.  Its facets are then the edges of the link
    of `face`, so the facet cycle is verified as the link's cycle.
    """
    if face not in cx.faces:
        raise NotProperFace(f"{list(ids_of(face))} is not a proper face")
    rank = cx.n - face.bit_count()
    count = sum(1 for f in cx.facets if f & face == face)
    polygon = None
    ok = True
    if rank == 2:
        polygon = POLYGONS.get(count)
        link = cx.up[face]
        cycle = {v: ids_of(cx.up[face | 1 << v] & link) for v in ids_of(link)}
        ok = polygon is not None and is_single_cycle(cycle)
    return CofaceProfile(rank=rank, facet_count=count, polygon=polygon, ok=ok)


@dataclass
class WindowReport:
    """The line shape of a rank-2 window's complex, one verdict per check."""

    facets_expected: bool
    interior_ridges_ok: bool
    path_ok: bool

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
    vertices = set(range(n)) | {n + e.id for e in catalog.entries}
    interior_ridges_ok = all(cx.up.get(1 << v, 0).bit_count() == (1 if v in boundary else 2)
                             for v in vertices)
    return WindowReport(facets_expected=set(cx.facets) == expected,
                        interior_ridges_ok=interior_ridges_ok,
                        path_ok=is_path(exchange_graph(cx)))
