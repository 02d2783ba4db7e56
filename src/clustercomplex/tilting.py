"""Faces, facets, exchange complements, canonical completions.

A face is an int bitmask over a combined vertex pool: coordinate vertex v
is bit v and the catalog member with id k is bit n + k.  The faces of the
complex are the rigid sets T, each with every set of vertices outside its
support; one walk over the rigid sets emits them all.  A rigid id set is
support-tilting when it has as many members as supported vertices; it is
then a basis of the lattice restricted to its support, and with all its
unsupported vertices it is a face with n vertices, a facet.  Facets are int
faces like the others, kept in the order of their ascending vertex tuples;
`decode_face` splits one into member ids and unsupported vertices.  The
canonical completion of a rigid set T inside a vertex window W is read off
directly (K. Bongartz, "Tilted algebras", LNM 903, 1981): it is the set G of
members B outside T, compatible with T, with ext(B, M) = 0 for every
in-window M that is ext-orthogonal to T.  The mirror test (swap the pairing
order) gives the dual completion.  That G completes T is checked, not
assumed: |T| + |G| must equal |W|.  The part B2 of the full completion
outside T's support pairs each vertex v in sigma, the vertices T leaves
unsupported, with one member exceeding the projective P(v) by a non-negative
combination of T (the dual part C2 likewise with the injectives).  T has no
support on sigma and the sigma x sigma block of the projectives is
unitriangular in a topological order, so only the v whose P(v) agrees with
a member on sigma can take it: the pairing is read off sigma, not searched for.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

from . import linalg
from .errors import (
    MatchingFailed,
    NoCompletion,
    NotAlmostComplete,
    NotFiniteType,
    OracleViolation,
)
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


def rigid_faces(catalog: RootCatalog) -> Iterator[int]:
    """Every face of the complex, each once, from one walk over the rigid sets.

    A face is a pair (T, sigma): a rigid set T and a set sigma of vertices
    outside the support of T (T. Adachi, O. Iyama, I. Reiten, "tau-tilting
    theory", 2014).  The walk hands over each rigid T as its member and
    support masks, and T is emitted with every such sigma.
    `RootCatalog.faces` keeps them.
    """
    n = catalog.algebra.n
    everything = (1 << n) - 1
    for members, supp in iter_rigid_sets(catalog):
        members <<= n
        free = everything & ~supp
        sigma = free
        while True:
            yield members | sigma
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
                          window_of: Callable[[tuple[int, ...]], int], dual: bool) -> frozenset[int]:
    """The completion of T inside the vertex mask window_of(T's sorted ids)."""
    if catalog.kind != FINITE:
        raise NotFiniteType("canonical completion requires a finite catalog")
    members = validate_ids(catalog, t_ids)
    if not is_rigid(catalog, members):
        raise ValueError("T must be rigid")
    window = window_of(members)
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
    return _canonical_complement(catalog, t_ids, lambda _: _window(catalog, within), dual=False)


def dual_bongartz(catalog: RootCatalog, t_ids: Iterable[int],
                  within: Iterable[int] | None = None) -> frozenset[int]:
    """Mirror of `bongartz` with the pairing order swapped."""
    return _canonical_complement(catalog, t_ids, lambda _: _window(catalog, within), dual=True)


def relative_bongartz(catalog: RootCatalog, t_ids: Iterable[int]) -> frozenset[int]:
    """Canonical completion computed inside the support of T."""
    return _canonical_complement(catalog, t_ids, catalog.kernel.support_of, dual=False)


def relative_dual_bongartz(catalog: RootCatalog, t_ids: Iterable[int]) -> frozenset[int]:
    return _canonical_complement(catalog, t_ids, catalog.kernel.support_of, dual=True)


def _split(catalog: RootCatalog, t_ids: Iterable[int], dual: bool) -> tuple[frozenset[int], frozenset[int]]:
    full = _canonical_complement(catalog, t_ids, lambda _: _window(catalog, None), dual)
    part = _canonical_complement(catalog, t_ids, catalog.kernel.support_of, dual)
    if not part <= full:
        raise OracleViolation(f"relative {'dual ' if dual else ''}completion {sorted(part)} "
                              f"not inside full {sorted(full)}")
    return part, full - part


def bongartz_split(catalog: RootCatalog, t_ids: Iterable[int]) -> tuple[frozenset[int], frozenset[int]]:
    """(B1, B2): the in-support part and the rest of the full completion.

    B1 is always contained in the full completion; violation signals an
    oracle bug.
    """
    return _split(catalog, t_ids, dual=False)


def dual_bongartz_split(catalog: RootCatalog, t_ids: Iterable[int]) -> tuple[frozenset[int], frozenset[int]]:
    return _split(catalog, t_ids, dual=True)


@dataclass
class SplitReport:
    """Structure of the out-of-support completion parts B2 and C2."""

    ok: bool
    sigma: tuple[int, ...]
    b2_matching: dict[int, int]
    c2_matching: dict[int, int]


def _match(catalog: RootCatalog, part: Sequence[int], sigma: Sequence[int],
           bases, t_dimvs) -> dict[int, int]:
    """The matching vertex -> member with dimv(member) - bases[vertex] in the T-cone.

    T has no support on sigma, so member b can only go to the vertex v whose
    base (projective or injective) agrees with b on sigma; their sigma x sigma
    block is unitriangular in a topological order, so that v is unique.  One
    cone solve per member checks the forced pair.
    """
    vertex_of = {tuple(bases[v][w] for w in sigma): v for v in sigma}
    matching: dict[int, int] = {}
    for b in part:
        dimv = catalog.entries[b].dimv
        v = vertex_of.get(tuple(dimv[w] for w in sigma))
        if v is None or v in matching or linalg.nonneg_int_combination(
                t_dimvs, tuple(x - y for x, y in zip(dimv, bases[v]))) is None:
            raise MatchingFailed(f"no perfect matching for vertices {list(sigma)}")
        matching[v] = b
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
    sigma = ids_of(_window(catalog, None) & ~catalog.kernel.support_of(members))
    _, b2 = bongartz_split(catalog, members)
    _, c2 = dual_bongartz_split(catalog, members)
    if len(b2) != len(sigma) or len(c2) != len(sigma):
        raise MatchingFailed(
            f"|B2| = {len(b2)}, |C2| = {len(c2)}, expected {len(sigma)}")
    t_dimvs = [catalog.entries[i].dimv for i in members]
    b_matching = _match(catalog, sorted(b2), sigma, catalog.projectives, t_dimvs)
    c_matching = _match(catalog, sorted(c2), sigma, catalog.injectives, t_dimvs)
    return SplitReport(ok=True, sigma=sigma, b2_matching=b_matching, c2_matching=c_matching)
