"""Independent brute-force oracles and hand-frozen reference data.

Apart from the two references named at the end, nothing here calls into
the package's enumeration or pairing machinery: ext
lengths are recomputed from the raw Euler matrix, facets and canonical
completions by exhaustive subset search, root lists are classical tables
written out by hand, flag connectivity is the literal walk on every flag of
every facet, the face-poset axioms enumerate every subset and every two-step
interval of every face, the pairing of a completion's out-of-support part
with the unsupported vertices tries every ordering, links are searched
breadth-first on the face set, a single cycle is a graph of degree two
everywhere that one breadth-first search covers, the face-poset scan's
findings are one comprehension each over the faces and their up masks, the
up masks of a face set come from one sweep over every face minus one vertex
(`oracle_up`), the exchange graph joins the two facets above each ridge
whose up mask has two bits (`oracle_exchange_graph`), the descent step's
member is the minimum by measure rank over the facet's ids,
the lambda order compares tuples of `Fraction` measures, determinants are
Leibniz expansions, rank and solves are a Gauss-Jordan elimination over
`Fraction`s, endomorphism multisets are compared sorted, and rigid
combinations with equal total dimension vectors are found by expanding every
multiplicity.  Rigid sets are grown one root at a time, which finds every
one since rigidity is pairwise, and a member set's support is read off
its dimension vectors (`support`).  The package stores a face as the int
bitmask of its vertices; `vertex_sets` turns such faces into the frozensets
these oracles read, `downward_closure` gives the faces that a list of
such facets spans, and `oracle_faces` the faces of a catalog, each set of
`oracle_cliques` with every set of vertices outside its support.  The
package keeps no face: its complex is one record of checks that one loop
over the rigid-set walk reads off masks.  `complex_of` builds that record
for a face set built in a test, from the oracles alone: `oracle_up` for
the up masks, `oracle_short_face`, `oracle_bad_ridges`, `oracle_lost` and
`oracle_least_up` for the axioms, and `oracle_link_unreached` on every
face with at most n - 2 vertices for the split links; `oracle_widest_up`
gives the most up bits per level, which tells the levels the floods skip.
Four oracles keep the package's earlier, layered code as references for
the code that replaced it: `oracle_cliques` is the rigid-set walk as its
own generator of (member, support, cand) masks, `oracle_member_moves`
reads each descent move through the public, validated completions,
`oracle_verify_descent` is the descent check as one memo walk per facet,
a step at a time, that keeps every facet's walk, and `oracle_root_closure`
finds the positive roots by reflecting every root at every vertex.
"""

from fractions import Fraction
from itertools import combinations, permutations, product

from clustercomplex.homext import ids_of
from clustercomplex.measure import DescentReport, lambda_key
from clustercomplex.polytope import AxiomReport, ClusterComplex
from clustercomplex.roots import simple_reflection
from clustercomplex.tilting import bongartz, dual_bongartz

# Positive roots in simple-root coordinates, straight from the tables.
KNOWN_ROOTS = {
    "a1": [(1,)],
    "a1xa1": [(1, 0), (0, 1)],
    "a2": [(1, 0), (0, 1), (1, 1)],
    "a3": [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (0, 1, 1), (1, 1, 1)],
    "b2": [(1, 0), (0, 1), (1, 1), (1, 2)],
    "b3": [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (0, 1, 1), (1, 1, 1),
           (0, 1, 2), (1, 1, 2), (1, 2, 2)],
    "c3": [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (0, 1, 1), (1, 1, 1),
           (0, 2, 1), (1, 2, 1), (2, 2, 1)],
    "d4": [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
           (1, 1, 0, 0), (0, 1, 1, 0), (0, 1, 0, 1),
           (1, 1, 1, 0), (1, 1, 0, 1), (0, 1, 1, 1),
           (1, 1, 1, 1), (1, 2, 1, 1)],
    "g2": [(1, 0), (0, 1), (1, 1), (1, 2), (1, 3), (2, 3)],
}

# Facet counts by exhaustive search, pinned after cross-checking the counts
# below against oracle_facets on the same fixtures.
KNOWN_FACET_COUNTS = {
    "a1": 2, "a1xa1": 4, "a2": 5, "a3": 14, "b2": 6,
    "b3": 20, "c3": 20, "d4": 50, "g2": 8,
}


def vertex_sets(masks):
    """Int-bitmask faces as frozensets of their vertices (bit v is vertex v)."""
    return frozenset(frozenset(v for v in range(m.bit_length()) if m >> v & 1) for m in masks)


def as_facet(catalog, ids):
    """The facet of the members `ids` with every vertex outside their
    support, read off their dimension vectors: bit v is vertex v and bit
    n + i is member i."""
    n = catalog.algebra.n
    supported = oracle_support([catalog.entries[i].dimv for i in ids], n)
    return (sum(1 << v for v in range(n) if v not in supported)
            | sum(1 << (n + i) for i in set(ids)))


def _submasks(mask):
    """Every submask of `mask`, from `mask` itself down to 0."""
    sub = mask
    while True:
        yield sub
        if not sub:
            return
        sub = (sub - 1) & mask


def downward_closure(facets):
    """Every submask of the given int-bitmask facets."""
    return frozenset(sub for facet in facets for sub in _submasks(facet))


def oracle_faces(catalog):
    """Every face (T, sigma) of the catalog as an int face: each set T of
    `oracle_cliques`, its members as bits n + id, with every set sigma of
    vertices outside its support."""
    n = catalog.algebra.n
    everything = (1 << n) - 1
    return frozenset(members << n | sigma for members, supp, _ in oracle_cliques(catalog)
                     for sigma in _submasks(everything & ~supp))


def oracle_up(faces):
    """up[F], the mask of the vertices v such that F + v is a face, for every
    face F and every face minus one vertex, from one sweep over every face
    minus one vertex (`face ^ bit`); a key outside `faces` is a subface that
    a face lost."""
    up = dict.fromkeys(faces, 0)
    get = up.get
    for face in faces:
        rest = face
        while rest:
            low = rest & -rest
            rest ^= low
            sub = face ^ low
            up[sub] = get(sub, 0) | low
    return up


def link_ups(up, face):
    """Each link vertex v of `face` mapped to the up mask of `face` plus v,
    from the up masks `up` of a face set: the lookups a flood of the link
    makes."""
    return {v: up[face | 1 << v] for v in range(up[face].bit_length()) if up[face] >> v & 1}


def complex_of(catalog, faces):
    """The record of a face set built in a test, from the oracles: the
    faces with n vertices as its facets, by ascending vertex tuple; the up
    popcount of every face, by size; the axioms; the faces with at most
    n - 2 vertices whose link a breadth-first search does not cover, by
    size and then vertex tuple; and the up of each one-vertex face, 0 for
    a vertex that is not a face."""
    faces = frozenset(faces)
    up = oracle_up(faces)
    n = catalog.algebra.n
    width = max([n + len(catalog)] + [face.bit_length() for face in faces])
    facets = tuple(sorted((face for face in faces if face.bit_count() == n), key=ids_of))
    bad, lost = oracle_bad_ridges(faces, up, n), oracle_lost(faces, up)
    short = oracle_short_face(faces, up, n)
    scan = AxiomReport(ap1=0 in faces and bool(facets), ap2=short is None,
                       ap4=not bad and not any(lost), simplicial=not lost,
                       bad_ridges=bad, short_face=short, lost_faces=lost,
                       least=oracle_least_up(faces, up))
    split = sorted((face for face in faces if face.bit_count() <= n - 2
                    and oracle_link_unreached(faces, face, width)), key=_by_size_then_vertices)
    return ClusterComplex(catalog=catalog, facets=facets,
                          faces=[up[face].bit_count() for face in sorted(faces, key=int.bit_count)],
                          scan=scan, split=split,
                          vertex_up=tuple(up[1 << x] if 1 << x in faces else 0
                                          for x in range(n + len(catalog))))


def oracle_exchange_graph(faces, n):
    """Facet adjacency, as indices into the faces with n vertices by
    ascending vertex tuple: each ridge R among the faces, a face with n - 1
    vertices, whose up mask (`oracle_up`) is {v, w} joins the facets R + v
    and R + w.  A ridge that is not a face joins nothing."""
    up = oracle_up(faces)
    facets = sorted((face for face in faces if face.bit_count() == n),
                    key=lambda face: [v for v in range(face.bit_length()) if face >> v & 1])
    index = {facet: i for i, facet in enumerate(facets)}
    adj = {i: [] for i in index.values()}
    for ridge in faces:
        above = up[ridge]
        if ridge.bit_count() == n - 1 and above.bit_count() == 2:
            low = above & -above
            i, j = index[ridge | low], index[ridge | (above ^ low)]
            adj[i].append(j)
            adj[j].append(i)
    return {i: tuple(sorted(js)) for i, js in adj.items()}


def oracle_form(euler, x, y):
    n = len(euler)
    return sum(x[i] * euler[i][j] * y[j] for i in range(n) for j in range(n))


def oracle_ext(euler, x, y):
    """Ext length of an ordered pair of distinct exceptionals in finite type."""
    return max(-oracle_form(euler, x, y), 0)


def oracle_is_rigid(euler, dimvs):
    return all(oracle_ext(euler, x, y) == 0
               for x in dimvs for y in dimvs if x != y)


def oracle_rigid_sets(euler, roots):
    """All rigid subsets of at most n roots, by size and then index tuple.

    Rigidity is pairwise, so every subset of a rigid set is rigid: the sets
    of size k + 1 are those of size k, each extended by every later root
    with no ext either way against each of its roots (a table from
    `oracle_ext` on the raw Euler matrix).
    """
    free = [[x == y or oracle_ext(euler, x, y) == oracle_ext(euler, y, x) == 0 for y in roots]
            for x in roots]
    level = [()]
    found = [frozenset()]
    for _ in range(len(euler)):
        level = [t + (j,) for t in level for j in range(t[-1] + 1 if t else 0, len(roots))
                 if all(free[i][j] for i in t)]
        found += [frozenset(roots[i] for i in t) for t in level]
    return found


def oracle_cliques(catalog):
    """Every set T of pairwise compatible members with at most n members,
    as a (member mask, support mask, cand mask) triple, in depth-first
    pre-order starting with the empty set (0, 0, everyone).  cand holds
    the members outside T that are compatible with every member of T,
    so T + m is one of the sets exactly when m is in cand; it is 0 when
    T has n members.  The catalog's kernel is built on the first item.

    One explicit stack holds a frame per open set: its member mask, its
    support mask, its cand, and the candidates left to try, the members
    of cand above the last one chosen.  Candidates are taken by lowest
    set bit, and a set with n members is not extended.  Member i of
    cand extends T to T + i, whose cand is cand minus i, AND compat[i].
    This is the package's earlier walk, kept as the reference for
    `tilting.iter_rigid_sets`, which works in face coordinates: it yields
    (|T|, top, reach) with the members in top >> n, the free vertices
    (those outside the support) in reach & (2^n - 1) and cand in
    reach >> n.
    """
    kernel = catalog.kernel
    compat, support, n = kernel.compat, kernel.support, catalog.algebra.n
    yield 0, 0, kernel.everyone
    members, supports, cands, lefts = [0], [0], [kernel.everyone], [kernel.everyone]
    while lefts:
        left = lefts[-1]
        if not left:
            members.pop()
            supports.pop()
            cands.pop()
            lefts.pop()
            continue
        low = left & -left
        left ^= low
        lefts[-1] = left
        i = low.bit_length() - 1
        mask, supp = members[-1] | low, supports[-1] | support[i]
        if len(lefts) < n:
            cand = (cands[-1] ^ low) & compat[i]
            yield mask, supp, cand
            members.append(mask)
            supports.append(supp)
            cands.append(cand)
            lefts.append(left & compat[i])
        else:
            yield mask, supp, 0


def oracle_member_moves(catalog):
    """Each member's descent move, by id, through the public completions:
    the better of `bongartz` and `dual_bongartz` of the member inside its
    support, as an `as_facet` facet, by `lambda_key` (ties keep the forward
    one).  This is the package's earlier `measure.member_moves`."""
    moves = []
    for m in range(len(catalog)):
        supp_m = ids_of(catalog.kernel.support[m])
        forward = bongartz(catalog, (m,), within=supp_m)
        backward = dual_bongartz(catalog, (m,), within=supp_m)
        moves.append(min((as_facet(catalog, {m} | part) for part in (forward, backward)),
                         key=lambda f: lambda_key(catalog, f)))
    return tuple(moves)


def oracle_root_closure(algebra):
    """The positive roots as (dimv, q) pairs, in id order, as the package's
    earlier `roots.positive_roots` found them: the closure of the unit
    vectors under the reflection at every vertex (`simple_reflection`),
    breadth-first, keeping each nonnegative vector, sorted by (length,
    coordinates), with q the vector's Euler self-pairing."""
    n = algebra.n
    found = [tuple(int(k == i) for k in range(n)) for i in range(n)]
    seen = set(found)
    for x in found:
        for i in range(n):
            y = simple_reflection(algebra, i, x)
            if y not in seen and all(c >= 0 for c in y):
                seen.add(y)
                found.append(y)
    found.sort(key=lambda v: (sum(u * c for u, c in zip(algebra.symmetrizer, v)), v))
    return [(v, oracle_form(algebra.euler, v, v)) for v in found]


def oracle_support(dimvs, n):
    return {v for d in dimvs for v in range(n) if d[v] > 0}


def support(catalog, ids):
    """(supported vertices, complementary vertices) of the members `ids`,
    read off their dimension vectors."""
    n = catalog.algebra.n
    supp = frozenset(oracle_support([catalog.entries[i].dimv for i in ids], n))
    return supp, frozenset(range(n)) - supp


def oracle_facets(euler, roots):
    """All support-tilting subsets by exhaustive enumeration."""
    n = len(euler)
    found = []
    for size in range(n + 1):
        for subset in combinations(roots, size):
            if len(oracle_support(subset, n)) == size and oracle_is_rigid(euler, subset):
                found.append(frozenset(subset))
    return found


def oracle_flags_connected(facets):
    """Literal walk on flags: two flags are adjacent when their chains differ
    in exactly one entry, and every such group must hold exactly two flags.

    A flag of a facet is one ordering of its vertices, read as the chain of
    its growing prefixes; there are n! flags per facet.
    """
    flags = []
    for facet in facets:
        for order in permutations(sorted(facet)):
            flags.append(tuple(frozenset(order[:k]) for k in range(1, len(order) + 1)))
    groups = {}
    for i, flag in enumerate(flags):
        for pos in range(len(flag)):
            groups.setdefault((pos, flag[:pos], flag[pos + 1:]), []).append(i)
    adj = {i: [] for i in range(len(flags))}
    for members in groups.values():
        if len(members) != 2:
            return False
        a, b = members
        adj[a].append(b)
        adj[b].append(a)
    seen = {0} if flags else set()
    stack = list(seen)
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(flags)


def is_single_cycle(adj):
    """At least three nodes, each with two neighbours, all reached by one
    breadth-first search: the adjacency lists `adj` form one cycle."""
    if len(adj) < 3 or any(len(ws) != 2 for ws in adj.values()):
        return False
    start = next(iter(adj))
    seen, queue = {start}, [start]
    for v in queue:
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return len(seen) == len(adj)


def oracle_canonical_completions(euler, roots, t, window, dual=False):
    """Every tilting completion of the rigid root set `t` inside the vertex
    set `window`, by exhaustive search, filtered by the ext test: each added
    root c has ext(c, m) = 0 (dual: ext(m, c) = 0) for every in-window root m
    with ext(x, m) = 0 (dual: ext(m, x) = 0) for all x in t.  The canonical
    completion is the only one left, so the list has one entry.
    """
    n = len(euler)

    def ext(x, y):
        return oracle_ext(euler, y, x) if dual else oracle_ext(euler, x, y)

    inside = [r for r in roots if oracle_support([r], n) <= set(window)]
    orthogonal = [m for m in inside if all(ext(x, m) == 0 for x in t)]
    candidates = [r for r in inside if r not in t and oracle_is_rigid(euler, list(t) + [r])]
    return [frozenset(extra)
            for extra in combinations(candidates, len(window) - len(t))
            if oracle_is_rigid(euler, extra)
            and all(ext(c, m) == 0 for c in extra for m in orthogonal)]


def oracle_bases(euler, roots, dual=False):
    """The projective dimension vector of every vertex v, by search over the
    roots: the one root p with <p, e_j> = 0 for every j != v and <p, e_v> =
    <e_v, e_v>.  With dual, the injective one, the pairing order swapped."""
    n = len(euler)
    units = [tuple(int(k == j) for k in range(n)) for j in range(n)]

    def pairing(r, j):
        return oracle_form(euler, units[j], r) if dual else oracle_form(euler, r, units[j])

    return [next(r for r in roots
                 if all(pairing(r, j) == (euler[v][v] if j == v else 0) for j in range(n)))
            for v in range(n)]


def oracle_in_cone(vectors, x):
    """x is a non-negative integer combination of the non-negative nonzero
    `vectors`: every coefficient tuple is tried, each coefficient up to the
    largest multiple of its vector that still fits under x."""
    if any(c < 0 for c in x):
        return False
    bounds = [min(a // b for a, b in zip(x, y) if b) for y in vectors]
    return any(all(a == sum(c * y[k] for c, y in zip(coeffs, vectors)) for k, a in enumerate(x))
               for coeffs in product(*(range(top + 1) for top in bounds)))


def oracle_matchings(bases, t, part, sigma):
    """Every bijection from the vertices `sigma` to the roots in `part` that
    sends v to a root r with r - bases[v] in the non-negative integer cone of
    the roots in t, by trying every ordering of `part`."""
    if len(part) != len(sigma):
        return []
    fits = {(v, r): oracle_in_cone(t, tuple(a - b for a, b in zip(r, bases[v])))
            for v in sigma for r in part}
    return [dict(zip(sigma, order)) for order in permutations(part)
            if all(fits[v, r] for v, r in zip(sigma, order))]


def oracle_rigid_dimv_collisions(dimvs, rigid_sets, bound=2):
    """Every rigid combination whose total dimension vector an earlier one
    already has: each id set of `rigid_sets` is expanded with every
    multiplicity 1..bound per member, in order.  A collision is (first key,
    later key, total), a key being the ((id, multiplicity), ...) pairs."""
    first, collisions = {}, []
    for ids in rigid_sets:
        for mults in product(range(1, bound + 1), repeat=len(ids)):
            total = tuple(sum(m * dimvs[i][k] for m, i in zip(mults, ids))
                          for k in range(len(dimvs[0])))
            key = tuple(zip(ids, mults))
            if first.setdefault(total, key) != key:
                collisions.append((first[total], key, total))
    return collisions


def oracle_pure(faces, n):
    """AP2 as purity: every face contained in no other face has n vertices."""
    return all(len(f) == n for f in faces if not any(f < g for g in faces))


def oracle_simplicial(faces):
    """Every one of the 2^|F| subsets of every face F is a face."""
    return all(frozenset(sub) in faces
               for face in faces
               for size in range(len(face) + 1)
               for sub in combinations(sorted(face), size))


def oracle_diamonds(faces):
    """Every two-step interval from U - {a, b} up to a face U has both middle
    elements U - a and U - b, for every pair {a, b} of U's vertices."""
    return all(sum(1 for v in pair if upper - frozenset(pair) | {v} in faces) == 2
               for upper in faces if len(upper) >= 2
               for pair in combinations(sorted(upper), 2))


def oracle_link_unreached(faces, face, width=None):
    """The link vertices of `face` that a breadth-first search from the
    lowest one leaves unreached, as a mask.  The faces are int bitmasks; v is
    a link vertex when face + v is a face, and two link vertices v, w are
    joined when face + v + w is a face.  The vertices are tried below
    `width`, by default the widest face's bit length."""
    if width is None:
        width = max(f.bit_length() for f in faces)
    link = [v for v in range(width) if not face >> v & 1 and face | 1 << v in faces]
    seen, queue = set(link[:1]), link[:1]
    for v in queue:
        for w in link:
            if w not in seen and face | 1 << v | 1 << w in faces:
                seen.add(w)
                queue.append(w)
    return sum(1 << w for w in link if w not in seen)


def _by_size_then_vertices(face):
    return face.bit_count(), [v for v in range(face.bit_length()) if face >> v & 1]


def oracle_short_face(faces, up, n):
    """The first face with an empty up and without n vertices, by size and
    then vertex tuple, or None."""
    return min((f for f in faces if not up[f] and f.bit_count() != n),
               key=_by_size_then_vertices, default=None)


def oracle_bad_ridges(faces, up, n):
    """The faces with n - 1 vertices whose up does not have two bits, by size
    and then vertex tuple."""
    return sorted((f for f in faces if f.bit_count() == n - 1 and up[f].bit_count() != 2),
                  key=_by_size_then_vertices)


def oracle_least_up(faces, up):
    """The fewest up bits of a face with k vertices, for every size k a face has."""
    least = {}
    for face in faces:
        k, links = face.bit_count(), up[face].bit_count()
        least[k] = min(links, least.get(k, links))
    return least


def oracle_widest_up(faces, up):
    """The most up bits of a face with k vertices, for every size k a face has."""
    widest = {}
    for face in faces:
        k, links = face.bit_count(), up[face].bit_count()
        widest[k] = max(links, widest.get(k, links))
    return widest


def oracle_lost(faces, up):
    """The keys of up that are not faces, by size and then vertex tuple."""
    return sorted(up.keys() - faces, key=_by_size_then_vertices)


def oracle_descent_step(n, ranks, supports, moves, facet):
    """The facet's member of least measure rank, the smallest id among
    equals; the zero facet when it is the only member and has one support
    vertex, else its move."""
    members = [i for i in range(len(ranks)) if facet >> (n + i) & 1]
    chosen = min(members, key=ranks.__getitem__)
    if len(members) == 1 and supports[chosen].bit_count() == 1:
        return (1 << n) - 1
    return moves[chosen]


def oracle_lambda_vector(n, squares, facet):
    """The facet's lambda vector: a Fraction 0 per unsupported vertex, then
    its members' squared measures ascending; facets are ordered by these
    vectors, lexicographically."""
    vertices = [v for v in range(facet.bit_length()) if facet >> v & 1]
    zeros = [Fraction(0) for v in vertices if v < n]
    return tuple(zeros + sorted(Fraction(squares[v - n]) for v in vertices if v >= n))


def oracle_verify_descent(catalog, step):
    """The descent report of the package's earlier `verify_descent`, and
    the walk of every facet it reaches as a tuple, that facet first: a walk
    from each facet not yet recorded, one `step(catalog, facet)` per facet
    it reaches but the zero facet, stopping before a step whose lambda
    vector does not drop (`oracle_lambda_vector`), and each facet's walk
    recorded once, so that walks share their tails.  The report's step map
    `after` is each walk's second facet."""
    n, squares = catalog.algebra.n, catalog.mu_squares
    zero = (1 << n) - 1
    facets = list(catalog.facets)
    walks = {}
    for start in facets:
        path = [start]
        while path[-1] not in walks:
            facet = path[-1]
            nxt = None if facet == zero else step(catalog, facet)
            if nxt is None or not (oracle_lambda_vector(n, squares, nxt)
                                   < oracle_lambda_vector(n, squares, facet)):
                walks[facet] = (facet,)
            else:
                path.append(nxt)
        walk = walks[path.pop()]
        for facet in reversed(path):
            walk = (facet,) + walk
            walks[facet] = walk
    steps = {f: len(walks[f]) - 1 for f in facets}
    report = DescentReport(ok=all(walks[f][-1] == zero for f in facets), steps=steps,
                           max_steps=max(steps.values(), default=0),
                           stalled=[f for f in facets if f != zero and walks[f] == (f,)],
                           after={f: walk[1] for f, walk in walks.items() if len(walk) > 1})
    return report, walks


def oracle_det(matrix):
    """Determinant by the Leibniz expansion over every permutation."""
    total = 0
    for perm in permutations(range(len(matrix))):
        inversions = sum(1 for i, j in combinations(range(len(perm)), 2) if perm[i] > perm[j])
        term = (-1) ** inversions
        for row, col in enumerate(perm):
            term *= matrix[row][col]
        total += term
    return total


def oracle_gauss_jordan(matrix, ncols):
    """Gauss-Jordan elimination over `Fraction`s, pivoting only in the first
    `ncols` columns: the reduced rows and the pivot columns.  The k-th row
    holds the k-th pivot, which is cleared from every other row."""
    rows = [[Fraction(x) for x in row] for row in matrix]
    pivots = []
    for col in range(ncols):
        top = len(pivots)
        pivot = next((r for r in range(top, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[top], rows[pivot] = rows[pivot], rows[top]
        for r in range(len(rows)):
            if r != top and rows[r][col]:
                factor = rows[r][col] / rows[top][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[top])]
        pivots.append(col)
    return rows, pivots


def oracle_rank(vectors):
    return len(oracle_gauss_jordan(vectors, len(vectors[0]) if vectors else 0)[1])


def oracle_solve_columns(columns, target):
    """The unique coefficients a with sum_j a_j * columns[j] = target, or
    None when the columns are dependent or miss the target."""
    ncols = len(columns)
    aug = [[column[i] for column in columns] + [target[i]] for i in range(len(target))]
    rows, pivots = oracle_gauss_jordan(aug, ncols)
    if len(pivots) < ncols or any(row[ncols] for row in rows[ncols:]):
        return None
    return [rows[k][ncols] / rows[k][k] for k in range(ncols)]


def oracle_positive_definite(matrix):
    """Sylvester's criterion: every leading principal minor, each its own
    determinant, is positive."""
    return all(oracle_det([row[:k] for row in matrix[:k]]) > 0 for k in range(1, len(matrix) + 1))


def oracle_endos(symmetrizer, qs, face):
    """The symmetrizer entries of a face's vertices and the endo lengths q of
    its members, sorted, are the sorted symmetrizer: vertex v < n carries
    symmetrizer[v] and vertex n + i carries qs[i]."""
    n = len(symmetrizer)
    got = [symmetrizer[v] if v < n else qs[v - n] for v in range(face.bit_length()) if face >> v & 1]
    return sorted(got) == sorted(symmetrizer)
