"""The face poset of the support-tilting complex, and its polytope axioms.

A face is the int bitmask of its vertices over a combined vertex pool:
coordinate vertex v is bit v and the catalog member with id k is bit n + k.
The poset order is containment (`a & b == a`), with one sentinel top face
above all facets; the sentinel is never materialized as a mask.  Ranks: a
face with v vertices has rank v - 1, the top has rank n.  The faces are the
pairs of the rigid-set walk, as they come, so a wrong pair shows up as a
failed axiom.  The facets are the faces with n vertices, listed by
ascending vertex tuple: the walk yields them in that order, once they are
filed by vertex part (the order lemma of `walk_complex`), so none is sorted.

Axioms checked here, for a poset with bottom and top:
  AP1  unique minimal and maximal face,
  AP2  every maximal chain has the same length (purity),
  AP4  every rank-1 section contains exactly four elements (diamonds),
plus simpliciality (each proper face's lower interval is boolean) and strong
flag connectivity (the facet adjacency graph of every co-face is connected).

`up[F]` is the mask of the vertices v such that F + v is a face; it is the
vertex set of the link of F, and it decides every check.  One loop over
the rigid-set walk (`walk_complex`) visits each face (T, sigma) once and
reads its up off the rigid set's masks (the up lemma in `tilting`), so no
face is kept: the loop keeps the facets, the up popcount of every face
filed by its number of vertices (the fewest of each size is taken in C at
the end), the thick ridges, the short maximal faces and the split links.
The walk's faces are down-closed, so no face loses a subface and every
subset of a face is a face (simpliciality), and the middle of
the interval from U - {a, b} up to U, U - a and U - b, exists (the inner
diamonds).  A face with an empty up is maximal, and AP2 asks that it have
n vertices; only (T, free) can be maximal among the faces of T, so it is
the one AP2 candidate of each rigid set.  A ridge (a face with n - 1
vertices) is thin when its up has two bits, v and w; AP4 at the top asks
that every ridge be thin, and the facets R + v and R + w are then
exchange neighbours.  A face set that a test builds gets the same record
from the oracles in `tests/oracles.py` (`complex_of`), which is how a face
set that loses a subface reaches these checks: `simplicial` and the
lost-face half of AP4 can fail only there.

Strong flag connectivity comes from links.  In a pure complex every
co-face is strongly connected exactly when every link of dimension >= 1 is
connected, the whole complex included as the link of the empty face.  The
proof is an induction on dimension: the link of a vertex connects the
facets through it, and a path of vertices joins any two facets.  The link
of F has the vertices up[F], and v and w are joined when w is in up[F + v],
which is up[F] & lift[v] by the lift lemma of `tilting`; so one flood
through the lifts decides each link, as the loop reaches its face.  It
stops once every link vertex is seen, or sooner by the small-link lemma
below.  The lemma needs purity, so a complex that is not pure fails
`strong-flag` as well as AP2.  With every ridge thin, this also decides
the literal walk on flags, which `tests/oracles.py` keeps.

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
first component counted as seen.

The floors are needed while the loop runs, before the fewest up bits of a
size are known, so the loop takes them from the faces whose up it knows
before it starts: those of the first rigid set, the empty one, which are
the 2^n sets of coordinate vertices, and the one-vertex faces, whose up
masks are the lifts.  A cost rule, not a lemma: on every real catalog
tried those floors were exact, and when a final fewest count comes out
below the one the floors came from, the loop runs once more with the
final floors (a floor too high can skip a split link or cut its flood
short), so the answer is exact either way.

A rank-2 window, the infinite rank-2 complex cut down to a line, is a
`ClusterComplex` like the others, built from the same loop.  Its checks
differ: `rank2_window_complex` checks that its facets are the expected
ones, that every vertex but the two window ends lies in two of them, and
that they form a path.  It does not ask for the polytope axioms, which the
cut breaks at the two ends.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Mapping, Sequence

from . import tilting
from .errors import NotRankTwoInfinite
from .homext import ids_of, mask_of
from .roots import PREINJ, PREPROJ, RANK2_INFINITE, RootCatalog

Face = int


def _face_key(face: Face) -> tuple[int, tuple[int, ...]]:
    """Faces by size, then by ascending vertex tuple: the order of witnesses."""
    return face.bit_count(), ids_of(face)


def face_label(catalog: RootCatalog, face: Face) -> str:
    """The members' dimension vectors, then the unsupported vertices, 1-based."""
    ids, sigma = tilting.decode_face(catalog.algebra.n, face)
    dimvs = ",".join(catalog.labels[i] for i in ids)
    return dimvs + "|" + ",".join(str(v + 1) for v in sigma)


def _unreached(links: Sequence[int] | Mapping[int, int], within: int, spare: int = 0) -> int:
    """The bits of `within` that a flood from its lowest bit misses, or 0
    once at most `spare` of them are left unseen.

    A depth-first flood: each bit v taken off the stack adds the unseen
    bits of `links[v]` inside `within`.  It stops with 0 as soon as every bit
    of `within` is seen, or after a lookup that leaves at most `spare` bits
    unseen, so a connected `within` costs no more lookups than it needs;
    otherwise it runs out and returns what the component of the lowest bit
    left unseen.  A nonzero `spare` is for a caller that knows every other
    component has more bits than that (the small-link lemma).
    """
    seen = stack = within & -within
    while seen != within:
        if not stack:
            return within ^ seen
        low = stack & -stack
        stack ^= low
        new = links[low.bit_length() - 1] & within & ~seen
        seen |= new
        stack |= new
        if spare and (within ^ seen).bit_count() <= spare:
            return 0
    return 0


@dataclass
class AxiomReport:
    """`bad_ridges` are the faces of size n - 1 whose up does not have two
    bits, and `lost_faces` the faces minus one vertex that are not faces,
    each by size and then vertex tuple.  `short_face`, the witness of AP2,
    is the first maximal face without n vertices in that order, or None.
    `least[k]`, for the flood floors, is the fewest up bits of a face with
    k vertices."""

    ap1: bool
    ap2: bool
    ap4: bool
    simplicial: bool
    bad_ridges: list[Face]
    short_face: Face | None
    lost_faces: list[Face]
    least: dict[int, int]

    @property
    def ok(self) -> bool:
        return self.ap1 and self.ap2 and self.ap4 and self.simplicial


@dataclass
class ClusterComplex:
    """A complex, a finite one or a rank-2 window, as the one record its
    checks read: the facets, the faces with n vertices by ascending vertex
    tuple; `faces`, the up popcount of every face, by number of vertices;
    the axioms; `split`, the faces with at most n - 2 vertices whose link
    is disconnected, by size and then vertex tuple; and `vertex_up`, the up
    of each one-vertex face by position in the vertex pool (0 when the
    vertex is not a face).  `walk_complex` builds it from the catalog's
    walk, `complex_of` in `tests/oracles.py` from a face set built in a
    test."""

    catalog: RootCatalog
    facets: Sequence[Face]
    faces: Sequence[int]
    scan: AxiomReport
    split: list[Face]
    vertex_up: Sequence[int]

    @property
    def n(self) -> int:
        return self.catalog.algebra.n


def _flood_floor(least: Mapping[int, int], n: int) -> list[int]:
    """floor[k], for k < n - 1: the fewest link vertices that a face with k
    vertices needs before its link can be disconnected, 2 (1 + m) with m =
    least[k + 1] the fewest up bits of a face with k + 1 vertices (the
    small-link lemma)."""
    return [2 * (1 + least[k + 1]) for k in range(n - 1)]


def walk_complex(catalog: RootCatalog, least: Mapping[int, int] | None = None) -> ClusterComplex:
    """The complex of the catalog from one loop over its rigid sets
    (`tilting.iter_rigid_sets`), a finite catalog or a rank-2 window alike.

    Each rigid set T visits its faces (T, sigma) for sigma from its free
    vertices down to 0, and each face's up is reach & bounds[sigma] (the up
    lemma).  Its popcount b is filed under the face's size k; a face with k
    = n is a facet, one with k = n - 1 a ridge, thick when b != 2, and one
    with k < n - 1 and b at least its floor has its link flooded at once
    through the lifts.  (T, free) is the one face of T that can be maximal,
    and it is short when it has not n vertices and an empty up.

    Each facet is filed under its vertex part sigma, and the files are
    joined in the order of ids_of(sigma) + (n,); that lists the facets by
    ascending vertex tuple, with no sort.  Order lemma: the walk yields the
    rigid sets in lexicographic order of their id tuples (a child adds only
    ids above its parent's), and a facet's vertex tuple is sigma followed
    by its members at n + id, above every vertex; so within one file the
    walk order is the vertex-tuple order.  Two facets of different files
    first differ inside both sigmas, where their keys differ alike, unless
    one sigma is a proper prefix of the other.  Then the facet with the
    shorter one has n - |sigma| > 0 members, so a member stands where the
    longer sigma has its next vertex, and the longer comes first, as its
    key does, the n that ends the shorter key being above every vertex.
    Nothing here reads the kernel, so the order holds for any kernel.

    `least` gives the flood floors (`_flood_floor`); None takes them from
    the faces whose up is known before the loop: the faces of the empty
    rigid set, the sets of coordinate vertices, and the one-vertex faces.
    When the fewest up bits the loop finds at a size come out below that,
    the loop runs once more with what it found (the cost rule of the
    module docstring).
    """
    n = catalog.algebra.n
    everything = (1 << n) - 1
    width = n + len(catalog)
    lift = catalog.lifts
    bounds = [(1 << width) - 1]
    for mask in lift[:n]:
        bounds += [bound & mask for bound in bounds]
    if least is None:
        # the faces whose up is known before the loop: those of the empty
        # rigid set, with up bounds[sigma], and every one-vertex face {x},
        # with up lift[x]
        least = {}
        for sigma, bound in enumerate(bounds):
            k, b = sigma.bit_count(), bound.bit_count()
            least[k] = min(b, least.get(k, b))
        if lift:
            least[1] = min(map(int.bit_count, lift))
    floor = _flood_floor(least, n)
    # a flood from k vertices stops once at most least[k + 1] are unseen
    spare = [least[k + 1] for k in range(n - 1)]
    # the smallest type code that holds an up popcount, at most `width`
    code = next(c for c in "BHLQ" if width < 1 << 8 * array(c).itemsize)
    # a wrong kernel can pair up to n members with n - 1 free vertices
    counts = [array(code) for _ in range(2 * n + 1)]
    files = [[] for _ in range(1 << n)]  # the facets, by vertex part sigma
    thick, short, split = [], [], []
    ridge = n - 1
    for size, top, reach in tilting.iter_rigid_sets(catalog):
        sigma = free = reach & everything
        up = reach & bounds[free]
        if not up and size + free.bit_count() != n:
            short.append(top | free)
        while True:
            k, b = size + sigma.bit_count(), up.bit_count()
            counts[k].append(b)
            if k < ridge:
                if b >= floor[k] and _unreached(lift, up, spare[k]):
                    split.append(top | sigma)
            elif k == ridge:
                if b != 2:
                    thick.append(top | sigma)
            elif k == n:
                files[sigma].append(top | sigma)
            if not sigma:
                break
            sigma = (sigma - 1) & free
            up = reach & bounds[sigma]
    found = {k: min(level) for k, level in enumerate(counts) if level}
    if any(found[k + 1] < least[k + 1] for k in range(n - 1)):
        return walk_complex(catalog, found)
    faces = array(code)
    for level in counts:
        faces += level
    facets = tuple(face for sigma in sorted(range(1 << n), key=lambda s: ids_of(s) + (n,))
                   for face in files[sigma])
    thick.sort(key=_face_key)
    scan = AxiomReport(ap1=bool(facets),  # the walk starts at the empty face
                       ap2=not short,
                       ap4=not thick,
                       simplicial=True,  # the walk's faces are down-closed
                       bad_ridges=thick,
                       short_face=min(short, key=_face_key, default=None),
                       lost_faces=[],
                       least=found)
    return ClusterComplex(catalog=catalog, facets=facets, faces=faces, scan=scan,
                          split=sorted(split, key=_face_key), vertex_up=lift)


def build_complex(catalog: RootCatalog) -> ClusterComplex:
    """The catalog's complex (`RootCatalog.cluster_complex`), built by one
    `walk_complex` on first use."""
    return catalog.cluster_complex


def verify_ap_axioms(cx: ClusterComplex) -> AxiomReport:
    """The axioms as the one loop of `cx` found them."""
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
    return not _unreached({v: mask_of(ws) for v, ws in adj.items()}, mask_of(adj))


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


def verify_flag_connected(cx: ClusterComplex) -> FlagReport:
    thick = cx.scan.bad_ridges
    return FlagReport(pure=cx.scan.ap2,
                      thin=not thick,
                      cofaces_connected=not cx.split,
                      coface_witness=cx.split[0] if cx.split else None,
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
    vertices are the facets, so both read the up masks of the vertices
    (`ClusterComplex.vertex_up`).
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
                if cx.vertex_up[v].bit_count() != (1 if v in boundary else 2)), None)
    wrong = set(cx.facets) ^ expected
    return WindowReport(facets_expected=not wrong,
                        interior_ridges_ok=bad is None,
                        path_ok=is_path(exchange_graph(cx.facets)),
                        facet_witness=min(wrong, key=_face_key) if wrong else None,
                        vertex_witness=None if bad is None else 1 << bad)
