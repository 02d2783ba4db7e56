"""Independent brute-force oracles and hand-frozen reference data.

Nothing here calls into the package's enumeration or pairing machinery: ext
lengths are recomputed from the raw Euler matrix, facets by exhaustive
subset search, root lists are classical tables written out by hand, and
flag connectivity is the literal walk on every flag of every facet.
"""

from itertools import combinations, permutations

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
    """All rigid subsets of at most n roots by exhaustive enumeration."""
    return [frozenset(subset)
            for size in range(len(euler) + 1)
            for subset in combinations(roots, size)
            if oracle_is_rigid(euler, subset)]


def oracle_support(dimvs, n):
    return {v for d in dimvs for v in range(n) if d[v] > 0}


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
