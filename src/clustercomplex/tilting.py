"""Faces, facets, exchange complements, canonical completions.

A face is an int bitmask over a combined vertex pool: coordinate vertex v
is bit v and the catalog member with id k is bit n + k.  The faces of the
complex are the rigid sets T, each with every set of vertices outside its
support; one walk over the rigid sets emits them all, each with its up
mask.  A rigid id set is support-tilting when it has as many members as
supported vertices; it is then a basis of the lattice restricted to its
support, and with all its unsupported vertices it is a face with n
vertices, a facet.  Facets are int faces like the others, kept in the order
of their ascending vertex tuples; `decode_face` splits one into member ids
and unsupported vertices.  The canonical completion of a rigid set T inside
a vertex window W is read off directly (K. Bongartz, "Tilted algebras",
LNM 903, 1981): it is the set G of members B outside T, compatible with T,
with ext(B, M) = 0 for every in-window M that is ext-orthogonal to T.  The
mirror test (swap the pairing order) gives the dual completion.  That G
completes T is checked, not assumed: |T| + |G| must equal |W|.

The faces are down-closed: a subset of the face (T, sigma) is (T', sigma')
with T' in T and sigma' in sigma.  T' is a smaller clique of compat, so the
walk yields it, and supp T' lies in supp T, so it misses sigma'.

Up lemma: the vertices x with (T, sigma) + x a face, its up mask, are the
vertex bits F - sigma and the member bits cand & avoid[sigma], where F is
the set of vertices outside supp T, cand the members m outside T that are
compatible with every member of T (0 when T has n members; the walk's
third mask) and avoid[sigma] the members whose support misses sigma.
Proof: one vertex is added as a coordinate vertex v or as a member m.
(T, sigma + v) is a face exactly when v is outside supp T, that is v in
F - sigma.  compat is symmetric, so T + m is a rigid set of the walk
exactly when m is in cand, and then (T + m, sigma) is a face exactly when
supp m misses sigma, as supp T does already.  So the up masks are what a
sweep over every face minus one vertex finds, and by down-closure that
sweep finds no subface outside the faces (`tests/oracles.py` keeps it).
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .errors import NoCompletion, NotAlmostComplete, NotFiniteType
from .homext import ids_of, is_rigid, iter_rigid_sets, mask_of, validate_ids
from .roots import FINITE, RootCatalog


def as_facet(catalog: RootCatalog, ids: Iterable[int]) -> int:
    """The face of the members `ids` with every vertex outside their support."""
    members = validate_ids(catalog, ids)
    free = zero_facet(catalog) & ~catalog.kernel.support_of(members)
    return free | (mask_of(members) << catalog.algebra.n)


def zero_facet(catalog: RootCatalog) -> int:
    """The facet of the zero module: every vertex and no member."""
    return (1 << catalog.algebra.n) - 1


def decode_face(n: int, face: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(member ids, sigma vertices) of a face."""
    vertices = ids_of(face)
    return tuple(v - n for v in vertices if v >= n), tuple(v for v in vertices if v < n)


def rigid_faces(catalog: RootCatalog) -> Iterator[tuple[int, int]]:
    """Every face of the complex, each once with its up mask, from one walk
    over the rigid sets.

    A face is a pair (T, sigma): a rigid set T and a set sigma of vertices
    outside the support of T (T. Adachi, O. Iyama, I. Reiten, "tau-tilting
    theory", 2014).  The walk hands over each rigid T as its member,
    support and cand masks, and T is emitted with every such sigma.  By
    the up lemma, the up mask of (T, sigma) is the AND of (cand << n) | F
    and bounds[sigma], the vertices outside sigma with, as member bits, the
    members whose support misses sigma.  `RootCatalog.faces` keeps them.
    """
    n = catalog.algebra.n
    everything = (1 << n) - 1
    within = catalog.kernel.within
    bounds = [(within(everything ^ sigma) << n) | (everything ^ sigma) for sigma in range(1 << n)]
    for members, supp, cand in iter_rigid_sets(catalog):
        members <<= n
        free = everything & ~supp
        reach = (cand << n) | free
        sigma = free
        while True:
            yield members | sigma, reach & bounds[sigma]
            if not sigma:
                break
            sigma = (sigma - 1) & free


def _reversed_bytes() -> bytes:
    """Byte b maps to b with its eight bits in reverse order: reversing b
    is reversing b >> 1, shifted down one place, with b's low bit on top."""
    rev = [0] * 256
    for b in range(1, 256):
        rev[b] = rev[b >> 1] >> 1 | (b & 1) << 7
    return bytes(rev)


REV8 = _reversed_bytes()


def facets_among(n: int, faces: Iterable[int]) -> list[int]:
    """The faces with n vertices, by ascending vertex tuple.

    Among masks with equal popcount, ascending vertex tuples are descending
    bit reversals: at the first vertex where two tuples differ, the smaller
    one has a lower bit that the other lacks, above the bits they share once
    reversed.  Each mask is reversed over one common byte width, byte by
    byte through REV8, so the per-byte work is done in C.
    """
    facets = [face for face in faces if face.bit_count() == n]
    width = (max(facets, default=0).bit_length() + 7) // 8
    facets.sort(key=lambda face: int.from_bytes(face.to_bytes(width, "little").translate(REV8),
                                                 "big"), reverse=True)
    return facets


def enumerate_support_tilting(catalog: RootCatalog) -> list[int]:
    """All facets, the zero facet included, by ascending vertex tuple.

    The catalog walks its rigid sets once for its faces and keeps the facets
    among them (`RootCatalog.facets`); each call returns a fresh list.
    """
    if catalog.kind != FINITE:
        raise NotFiniteType("facet enumeration requires a finite catalog")
    return list(catalog.facets)


def _window(catalog: RootCatalog, within: Iterable[int] | None) -> int:
    """The window's vertex mask; every vertex when `within` is None.

    A vertex outside 0..n-1 raises ValueError naming it.
    """
    n = catalog.algebra.n
    vertices = range(n) if within is None else sorted(set(within))
    for v in vertices:
        if not 0 <= v < n:
            raise ValueError(f"window vertex {v} is not a vertex 0..{n - 1} of the algebra")
    return mask_of(vertices)


def complements(catalog: RootCatalog, t_ids: Iterable[int],
                within: Iterable[int] | None = None) -> list[int]:
    """All members X making T + X tilting inside the window `within`.

    T must be almost complete for the window: one member short of the window
    size.  There are exactly two complements when T is sincere in the window
    and exactly one otherwise.  A window vertex outside the algebra raises
    ValueError.
    """
    members = validate_ids(catalog, t_ids)
    window = _window(catalog, within)
    if catalog.kernel.support_of(members) & ~window or len(members) + 1 != window.bit_count():
        raise NotAlmostComplete(
            f"{len(members)} members cannot be almost complete in window of size {window.bit_count()}")
    if not is_rigid(catalog, members):
        raise ValueError("T must be rigid")
    return list(ids_of(_pool(catalog, members, catalog.kernel.within(window))))


def _pool(catalog: RootCatalog, members: tuple[int, ...], inside: int) -> int:
    """Members of `inside` outside T and compatible with all of T."""
    kernel = catalog.kernel
    return inside & kernel.meet(kernel.compat, members) & ~mask_of(members)


def _canonical_complement(catalog: RootCatalog, t_ids: Iterable[int],
                          within: Iterable[int] | None, dual: bool) -> frozenset[int]:
    """The completion of T inside the window `within` (every vertex when None)."""
    if catalog.kind != FINITE:
        raise NotFiniteType("canonical completion requires a finite catalog")
    members = validate_ids(catalog, t_ids)
    if not is_rigid(catalog, members):
        raise ValueError("T must be rigid")
    window = _window(catalog, within)
    kernel = catalog.kernel
    supp = kernel.support_of(members)
    if supp & ~window:
        raise ValueError(f"support {list(ids_of(supp))} escapes window {list(ids_of(window))}")
    # ext(i, m) = 0 puts m in ext_free_out[i]; the dual test ext(m, i) = 0
    # puts m in ext_free_in[i].
    free = kernel.ext_free_in if dual else kernel.ext_free_out
    inside = kernel.within(window)
    orthogonal = inside & kernel.meet(free, members)
    good = [c for c in ids_of(_pool(catalog, members, inside))
            if free[c] & orthogonal == orthogonal]
    if len(members) + len(good) != window.bit_count():
        raise NoCompletion(f"no canonical completion of {members} in window {list(ids_of(window))}: "
                           f"{len(good)} candidates for {window.bit_count() - len(members)} places")
    return frozenset(good)


def bongartz(catalog: RootCatalog, t_ids: Iterable[int],
             within: Iterable[int] | None = None) -> frozenset[int]:
    """The canonical completion: ext-orthogonality to T propagates to it.

    Direct rule: the completion is G, the members c compatible with T with
    ext(c, m) = 0 for every in-window m ext-orthogonal to T.  G lies inside
    that orthogonal set, so T + G is rigid and has at most |window| members;
    any completion passing the test lies inside G, so it is G.  The one
    check left is |T| + |G| = |window|; NoCompletion names T and the window
    when it fails.  A window vertex outside the algebra raises ValueError.
    """
    return _canonical_complement(catalog, t_ids, within, dual=False)


def dual_bongartz(catalog: RootCatalog, t_ids: Iterable[int],
                  within: Iterable[int] | None = None) -> frozenset[int]:
    """Mirror of `bongartz` with the pairing order swapped."""
    return _canonical_complement(catalog, t_ids, within, dual=True)
