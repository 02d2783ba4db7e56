"""Faces, facets, exchange complements, canonical completions.

A face is an int bitmask over a combined vertex pool: coordinate vertex v
is bit v and the catalog member with id k is bit n + k.  The faces of the
complex are the rigid sets T, each with every set of vertices outside its
support.  One walk reaches every rigid set (`iter_rigid_sets`), and one
loop over it (`polytope.walk_complex`) reads every face check off each
rigid set's masks, keeping no face.  A rigid id set is support-tilting
when it has as many members as supported vertices; it is then a basis of
the lattice restricted to its support, and with all its unsupported
vertices it is a face with n vertices, a facet.  Facets are int faces like
the others, kept in the order of their ascending vertex tuples, which is
the walk's own once they are filed by vertex part (`walk_complex`);
`decode_face` splits one into member ids and unsupported vertices.  The
canonical completion of a rigid set T inside a vertex window W is read off
directly (K. Bongartz, "Tilted algebras", LNM 903, 1981): it is the set G
of members B outside T, compatible with T, with ext(B, M) = 0 for every
in-window M that is ext-orthogonal to T.  The mirror test (swap the
pairing order) gives the dual completion.  That G completes T is
checked, not assumed: |T| + |G| must equal |W|.  One mask-level rule,
`canonical_completion`, reads G off for `bongartz`, `dual_bongartz` and
the descent moves of `measure`.

The walk: the rigid sets are the cliques of compat with at most n members.
One explicit stack holds a frame per open clique T, in face coordinates:
its size, top (its members as face bits n + id), reach ((cand << n) |
free, with free the vertices outside the support of every member and
cand the members outside T compatible with every member of T) and left
(the members of cand above the last one chosen, still to try).
Candidates are taken by lowest set bit, in depth-first pre-order from the
empty set; member i of left extends T to T + i, whose top gains bit n + i,
whose reach is reach AND the lift of i and whose left is what is left, AND
compat[i].  The lift of member i, ((compat[i] - i) << n) | (every vertex
outside supp i), is built once per catalog (`RootCatalog.lifts`), so one
AND takes i out of cand, keeps cand's members compatible with i and drops
supp i from free.  A clique with n members is not extended and its reach
keeps only its free bits: its cand is 0.  No mask is rebuilt from ids, and
no face mask is shifted into place per rigid set.

The faces of T are the pairs (T, sigma), sigma a submask of free (T.
Adachi, O. Iyama, I. Reiten, "tau-tilting theory", 2014); the loop visits
them by running sigma down from free to 0, with no call per face.

The faces are down-closed: a subset of the face (T, sigma) is (T', sigma')
with T' in T and sigma' in sigma.  T' is a smaller clique of compat, so the
walk yields it, and supp T' lies in supp T, so it misses sigma'.  So no
face of the walk loses a subface, whatever the kernel.

Up lemma: the vertices x with (T, sigma) + x a face, its up mask, are the
vertex bits F - sigma and the member bits cand & avoid[sigma], where F is
the set of vertices outside supp T, cand the members m outside T that are
compatible with every member of T (0 when T has n members) and
avoid[sigma] the members whose support misses sigma.  In the walk's
terms, up is reach AND bounds[sigma], bounds[sigma] having the vertex
bits outside sigma and avoid[sigma] as member bits; bounds[0] keeps every
bit, so the up of (T, 0) is reach itself.
Proof: one vertex is added as a coordinate vertex v or as a member m.
(T, sigma + v) is a face exactly when v is outside supp T, that is v in
F - sigma.  compat is symmetric, so T + m is a rigid set of the walk
exactly when m is in cand, and then (T + m, sigma) is a face exactly when
supp m misses sigma, as supp T does already.  So the up masks are what a
sweep over every face minus one vertex finds, and by down-closure that
sweep finds no subface outside the faces (`tests/oracles.py` keeps it).

The bounds: a support misses sigma exactly when it misses sigma - v and
{v}, for any vertex v of sigma, so avoid[sigma] = avoid[sigma - v] &
avoid[{v}], with avoid[0] every member.  The lift of vertex v is
bounds[{v}], every vertex but v with avoid[{v}] as member bits, so
bounds[sigma] = bounds[sigma - v] & lift[v].  Taking v the highest vertex
of sigma, the table for the vertices 0..v is the one for 0..v-1 followed
by its copy ANDed with lift[v]: n `within` scans fill all 2^n entries.

Lift lemma: when F = (T, sigma) has at most n - 2 vertices, the up of
F + x, for x in up[F], is up[F] & lift[x].  Proof: a vertex v gives
(T, sigma + v), whose up is reach & bounds[sigma] & lift[v]; a member m
gives (T + m, sigma), whose reach is reach & lift[m], kept whole since
|T| + 1 < n.  At F the empty face, up[F] is every bit of the pool, so the
up of the one-vertex face {x} is lift[x]; this holds for n = 1 too, where
the one member of the catalog has no other member to be compatible with.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from .errors import NoCompletion, NotAlmostComplete, NotFiniteType
from .homext import ExtKernel, ids_of, is_rigid, mask_of, validate_ids
from .roots import FINITE, RootCatalog


def zero_facet(catalog: RootCatalog) -> int:
    """The facet of the zero module: every vertex and no member."""
    return (1 << catalog.algebra.n) - 1


def decode_face(n: int, face: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(member ids, sigma vertices) of a face."""
    vertices = ids_of(face)
    return tuple(v - n for v in vertices if v >= n), tuple(v for v in vertices if v < n)


def iter_rigid_sets(catalog: RootCatalog) -> Iterator[tuple[int, int, int]]:
    """Every rigid set T once, as (|T|, top, reach), in the walk's pre-order
    from the empty set: top holds the members of T as face bits and reach
    the face bits of the vertices outside supp T and of the members that
    extend T to a rigid set (the walk of the module docstring)."""
    n = catalog.algebra.n
    everything = (1 << n) - 1
    kernel = catalog.kernel
    compat, everyone = kernel.compat, kernel.everyone
    step = catalog.lifts[n:]
    size, top, reach, left = 0, 0, (everyone << n) | everything, everyone
    stack = []
    while True:
        yield size, top, reach
        if not left:
            if not stack:
                return
            size, top, reach, left = stack.pop()
        low = left & -left
        left ^= low
        if left:
            stack.append((size, top, reach, left))
        i = low.bit_length() - 1
        size += 1
        top |= low << n
        if size < n:
            reach &= step[i]
            left &= compat[i]
        else:
            reach &= step[i] & everything
            left = 0


def enumerate_support_tilting(catalog: RootCatalog) -> list[int]:
    """All facets, the zero facet included, by ascending vertex tuple.

    The catalog keeps the facets of its one walk (`RootCatalog.facets`);
    each call returns a fresh list.
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
    kernel = catalog.kernel
    return list(ids_of(_pool(kernel, mask_of(members), members, kernel.within(window))))


def _pool(kernel: ExtKernel, members: int, t_ids: Sequence[int], inside: int) -> int:
    """Members of `inside` outside the member mask T (whose ids are t_ids)
    and compatible with all of T."""
    return inside & kernel.meet(kernel.compat, t_ids) & ~members


def canonical_completion(kernel: ExtKernel, members: int, window: int, dual: bool) -> int:
    """The completion G of the member mask T inside the vertex mask `window`,
    as a member mask: the members c outside T, compatible with T, whose ext
    into (dual: from) every in-window member ext-orthogonal to T vanishes.

    ValueError when T is not rigid or its support escapes the window;
    NoCompletion, naming T and the window, when |T| + |G| != |window|.
    """
    t_ids = ids_of(members)
    if not kernel.rigid(members, t_ids):
        raise ValueError("T must be rigid")
    supp = kernel.support_of(t_ids)
    if supp & ~window:
        raise ValueError(f"support {list(ids_of(supp))} escapes window {list(ids_of(window))}")
    # ext(i, m) = 0 puts m in ext_free_out[i]; the dual test ext(m, i) = 0
    # puts m in ext_free_in[i].
    free = kernel.ext_free_in if dual else kernel.ext_free_out
    inside = kernel.within(window)
    orthogonal = inside & kernel.meet(free, t_ids)
    good = 0
    for c in ids_of(_pool(kernel, members, t_ids, inside)):
        if free[c] & orthogonal == orthogonal:
            good |= 1 << c
    places = window.bit_count() - len(t_ids)
    if good.bit_count() != places:
        raise NoCompletion(f"no canonical completion of {t_ids} in window {list(ids_of(window))}: "
                           f"{good.bit_count()} candidates for {places} places")
    return good


def _canonical_complement(catalog: RootCatalog, t_ids: Iterable[int],
                          within: Iterable[int] | None, dual: bool) -> frozenset[int]:
    """The completion of T inside the window `within` (every vertex when None)."""
    if catalog.kind != FINITE:
        raise NotFiniteType("canonical completion requires a finite catalog")
    members = mask_of(validate_ids(catalog, t_ids))
    window = _window(catalog, within)
    return frozenset(ids_of(canonical_completion(catalog.kernel, members, window, dual)))


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
