"""Hom/ext lengths between catalog members, rigidity, and support.

Between distinct members of a finite catalog at most one of hom and ext is
nonzero, so the pair is recovered from the sign of b = <x, y>.  In the
infinite rank-2 case the same rule applies within each family; across
families there are no maps backward (forward member to backward member has
ext 0, the reverse has hom 0).

Everything after the catalog asks only whether ext(x, y) vanishes, and by
the rules above that is the sign test <x, y> >= 0 for every ordered pair,
self-pairs included (<x, x> = q > 0).  `ExtKernel` holds this relation as
Python-int bitmasks over member ids: ext_free_out[x] has bit y and
ext_free_in[y] has bit x when ext(x, y) = 0, and compat[x] is their AND,
the members that can share a rigid set with x.  It also holds each
member's vertex support as a mask.  A catalog builds its kernel once, on
the first rigidity query (`RootCatalog.kernel`), with one dot product per
ordered pair against the precomputed row x^T E; in an infinite catalog the
build asserts the cross-family sign on every pair.  Hom and ext lengths
themselves are computed on demand, one pair per `hom_ext` call.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product, repeat
from operator import add, ge, gt, mul
from typing import Iterable, Iterator, Sequence

from . import linalg
from .algebra import euler_form
from .errors import MixedCatalogs, NotFiniteType, OracleViolation, UnknownId
from .roots import FINITE, PREINJ, PREPROJ, Indec, RootCatalog

MULTIPLICITY_BOUND = 2
# bytes of 0/1 flags -> ASCII digits, for int(..., 2)
_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def _pair(catalog: RootCatalog, x: Indec, y: Indec) -> tuple[int, int]:
    b = euler_form(catalog.algebra, x.dimv, y.dimv)
    if x.id == y.id:
        result = (x.q, 0)
    elif catalog.kind == FINITE or x.component == y.component:
        result = (max(b, 0), max(-b, 0))
    elif x.component == PREPROJ and y.component == PREINJ:
        if b < 0:
            raise OracleViolation(f"forward-to-backward pairing {x.dimv} -> {y.dimv} is {b} < 0")
        result = (b, 0)
    elif x.component == PREINJ and y.component == PREPROJ:
        if b > 0:
            raise OracleViolation(f"backward-to-forward pairing {x.dimv} -> {y.dimv} is {b} > 0")
        result = (0, -b)
    else:
        raise OracleViolation(f"untagged members {x.dimv}, {y.dimv} in infinite catalog")
    assert result[0] - result[1] == b
    return result


def mask_of(ids: Iterable[int]) -> int:
    """Bitmask with bit i set for every i in ids."""
    mask = 0
    for i in ids:
        mask |= 1 << i
    return mask


def ids_of(mask: int) -> tuple[int, ...]:
    """The set bits of a mask, ascending, found by repeatedly taking the lowest."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def _flags_mask(flags: Iterable[bool]) -> int:
    """Bitmask with bit j set when the j-th flag is true."""
    return int(b"0" + bytes(flags)[::-1].translate(_DIGITS), 2)


@dataclass(frozen=True)
class ExtKernel:
    """Ext-vanishing and support of a catalog as per-member bitmasks."""

    ext_free_out: tuple[int, ...]
    ext_free_in: tuple[int, ...]
    compat: tuple[int, ...]
    support: tuple[int, ...]
    n: int

    @property
    def everyone(self) -> int:
        return (1 << len(self.compat)) - 1

    def meet(self, masks: Sequence[int], ids: Iterable[int]) -> int:
        """AND of masks[i] over ids; every member when ids is empty."""
        out = self.everyone
        for i in ids:
            out &= masks[i]
        return out

    def support_of(self, ids: Iterable[int]) -> int:
        """Vertex mask of the union of the members' supports."""
        out = 0
        for i in ids:
            out |= self.support[i]
        return out

    def within(self, vertices: int) -> int:
        """Members supported inside the vertex mask."""
        return mask_of(i for i, s in enumerate(self.support) if not s & ~vertices)

    def cliques(self) -> Iterator[tuple[int, ...]]:
        """Every set of pairwise compatible members with at most n members,
        as an ascending id tuple, in depth-first pre-order starting with the
        empty set.  Candidates are the AND of the chosen members' compat
        masks, walked by lowest set bit."""
        stack: list[int] = []

        def extend(cands: int) -> Iterator[tuple[int, ...]]:
            yield tuple(stack)
            if len(stack) >= self.n:
                return
            while cands:
                low = cands & -cands
                cands ^= low
                i = low.bit_length() - 1
                stack.append(i)
                yield from extend(cands & self.compat[i])
                stack.pop()

        return extend(self.everyone)


def build_kernel(catalog: RootCatalog) -> ExtKernel:
    """All ext-vanishing bits of a catalog, one dot product per ordered pair.

    Row x holds the pairings <x, y> = (x^T E) . y for every member y,
    computed coordinate by coordinate over the whole catalog at once.  In an
    infinite catalog every forward-to-backward pairing must be >= 0 and every
    backward-to-forward pairing <= 0; the first pair that breaks this is
    reported by `_pair`.
    """
    algebra = catalog.algebra
    n = algebra.n
    entries = catalog.entries
    columns = list(zip(*(e.dimv for e in entries)))  # columns[k][j] = entries[j].dimv[k]
    infinite = catalog.kind != FINITE
    family = {c: mask_of(e.id for e in entries if e.component == c) for c in (PREPROJ, PREINJ)}
    rows, out = [], []
    for x in entries:
        xe = [sum(x.dimv[i] * algebra.euler[i][k] for i in range(n)) for k in range(n)]
        pairing = map(mul, columns[0], repeat(xe[0]))
        for k in range(1, n):
            pairing = map(add, pairing, map(mul, columns[k], repeat(xe[k])))
        pairing = list(pairing)
        row = bytes(map(ge, pairing, repeat(0)))
        free = _flags_mask(row)
        if infinite:
            if x.component == PREPROJ:
                bad = family[PREINJ] & ~free
            elif x.component == PREINJ:
                bad = family[PREPROJ] & _flags_mask(map(gt, pairing, repeat(0)))
            else:
                raise OracleViolation(f"untagged member {x.dimv} in infinite catalog")
            if bad:
                _pair(catalog, x, entries[(bad & -bad).bit_length() - 1])  # raises, naming the pair
        rows.append(row)
        out.append(free)
    into = [_flags_mask(column) for column in zip(*rows)]
    return ExtKernel(
        ext_free_out=tuple(out),
        ext_free_in=tuple(into),
        compat=tuple(a & b for a, b in zip(out, into)),
        support=tuple(mask_of(v for v, c in enumerate(e.dimv) if c > 0) for e in entries),
        n=n,
    )


def _check_member(catalog: RootCatalog, x: Indec) -> None:
    if not (0 <= x.id < len(catalog.entries)) or catalog.entries[x.id] is not x:
        raise MixedCatalogs(f"{x} does not belong to this catalog")


def hom_ext(catalog: RootCatalog, x: Indec, y: Indec) -> tuple[int, int]:
    """(hom length, ext length) for the ordered pair (x, y), computed on demand."""
    _check_member(catalog, x)
    _check_member(catalog, y)
    return _pair(catalog, x, y)


def validate_ids(catalog: RootCatalog, ids: Iterable[int]) -> tuple[int, ...]:
    """Sorted distinct ids; UnknownId when one names no catalog member."""
    out = tuple(sorted(set(ids)))
    for i in out:
        if not (0 <= i < len(catalog.entries)):
            raise UnknownId(f"no catalog member with id {i}")
    return out


def is_rigid(catalog: RootCatalog, ids: Iterable[int]) -> bool:
    """True when ext vanishes for every ordered pair (self-pairs are free)."""
    members = validate_ids(catalog, ids)
    mask = mask_of(members)
    free = catalog.kernel.ext_free_out
    return all(free[i] & mask == mask for i in members)


def support(catalog: RootCatalog, ids: Iterable[int]) -> tuple[frozenset[int], frozenset[int]]:
    """(supported vertices, complementary vertices) of a set of members."""
    members = validate_ids(catalog, ids)
    supp = frozenset(ids_of(catalog.kernel.support_of(members)))
    sigma = frozenset(range(catalog.algebra.n)) - supp
    return supp, sigma


def iter_rigid_sets(catalog: RootCatalog) -> Iterator[tuple[int, ...]]:
    """Yield every rigid subset (as a sorted id tuple), the empty set included.

    Sets larger than the algebra rank cannot be rigid and are never produced.
    The catalog's kernel is built on the first item if it does not exist yet.
    """
    yield from catalog.kernel.cliques()


@dataclass
class UniquenessReport:
    """Result of the dimension-vector uniqueness sweep."""

    ok: bool
    checked: int
    collisions: list[tuple]


def rigid_dimv_unique(catalog: RootCatalog) -> UniquenessReport:
    """No two distinct rigid multiplicity combinations share a total dimension vector.

    Every rigid id set is expanded with all multiplicities in
    1..MULTIPLICITY_BOUND per member; the total dimension vectors must be
    pairwise distinct.
    """
    if catalog.kind != FINITE:
        raise NotFiniteType("uniqueness sweep requires a finite catalog")
    n = catalog.algebra.n
    totals: dict[tuple, tuple] = {}
    collisions = []
    checked = 0
    for ids in iter_rigid_sets(catalog):
        if not ids:
            continue
        for mults in product(range(1, MULTIPLICITY_BOUND + 1), repeat=len(ids)):
            total = tuple(sum(m * catalog.entries[i].dimv[k] for m, i in zip(mults, ids))
                          for k in range(n))
            key = tuple(zip(ids, mults))
            if total in totals and totals[total] != key:
                collisions.append((totals[total], key, total))
            else:
                totals[total] = key
            checked += 1
    return UniquenessReport(ok=not collisions, checked=checked, collisions=collisions)


def independent_dimvs(catalog: RootCatalog, ids: Sequence[int]) -> bool:
    """Exact rank check: the members' dimension vectors are linearly independent."""
    members = validate_ids(catalog, ids)
    if not members:
        return True
    vectors = [catalog.entries[i].dimv for i in members]
    return linalg.rank(vectors) == len(vectors)
