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
the first rigidity query (`RootCatalog.kernel`).  The rigid sets are the
cliques of compat with at most n members (`tilting.iter_rigid_sets` walks
them).

A finite catalog pairs each member against the whole catalog.  The rows
x^T E of all members are formed at once, coordinate by coordinate over
the catalog from the nonzero Euler entries (`_rows`), and each row is then
applied to the whole catalog in one pass (`_pairings`).  A rank-2 window
uses the Coxeter shift instead (Dlab-Ringel, "Indecomposable
representations of graphs and algebras", Mem. AMS 173, 1976): with src ->
snk the arrow, M = s_snk s_src moves every stored member two places along
its run of equal family tags, in the forward family and in the stored
(reversed) backward family alike, and preserves the Euler form.  The build
checks three things exactly, on every window:

- M^T E M = E, once;
- X_j = M X_{j-2} for every member j whose j - 2 is in the same run;
- the cross-family sign (forward-to-backward pairings >= 0,
  backward-to-forward <= 0) on every directly computed row and column.

Lemma: given the first two, <X_i, X_j> = <X_{i-2}, X_{j-2}> whenever i - 2
and j - 2 lie in the runs of i and j, and the tags, hence the sign rule,
are the same for both pairs.  So only the first two members of each run
(the heads) are paired directly, as rows and as columns; every other row
is the row two places before it moved up by 2, with its head bits read off
the head columns, and the columns likewise.  Every pair, and its sign
check, reduces to a direct one, in O(N) pairings instead of N^2.  Hom and
ext lengths themselves are computed on demand, one pair per `hom_ext`
call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat
from operator import add, ge, gt, mul
from typing import Iterable, Iterator, Sequence

from .algebra import DimVector, euler_form, unit_vector
from .errors import MixedCatalogs, OracleViolation, UnknownId
from .roots import (
    FINITE,
    PREINJ,
    PREPROJ,
    Indec,
    RootCatalog,
    rank2_roles,
    simple_reflection,
)

# bytes of 0/1 flags -> ASCII digits, for int(..., 2)
_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def _pair(catalog: RootCatalog, x: Indec, y: Indec) -> tuple[int, int]:
    """(max(b, 0), max(-b, 0)) for b = <x, y>; a window pair across families is sign-checked."""
    b = euler_form(catalog.algebra, x.dimv, y.dimv)
    if catalog.kind != FINITE and x.component != y.component:
        tags = (x.component, y.component)
        if tags not in ((PREPROJ, PREINJ), (PREINJ, PREPROJ)):
            raise OracleViolation(f"untagged members {x.dimv}, {y.dimv} in infinite catalog")
        if tags == (PREPROJ, PREINJ) and b < 0:
            raise OracleViolation(f"forward-to-backward pairing {x.dimv} -> {y.dimv} is {b} < 0")
        if tags == (PREINJ, PREPROJ) and b > 0:
            raise OracleViolation(f"backward-to-forward pairing {x.dimv} -> {y.dimv} is {b} > 0")
    return max(b, 0), max(-b, 0)


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
    _within: dict[int, int] = field(default_factory=dict, init=False, repr=False, compare=False)

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

    def rigid(self, members: int, ids: Iterable[int]) -> bool:
        """True when ext vanishes for every ordered pair of the member mask,
        whose set bits are ids: every member's ext-free row holds the mask."""
        return self.meet(self.ext_free_out, ids) & members == members

    def within(self, vertices: int) -> int:
        """Members supported inside the vertex mask, found by one scan of the
        supports the first time the kernel is asked for that mask."""
        members = self._within.get(vertices)
        if members is None:
            members = self._within[vertices] = mask_of(
                i for i, s in enumerate(self.support) if not s & ~vertices)
        return members


def _combination(coeffs: Sequence[int], columns: Sequence[Sequence[int]]) -> Iterator[int]:
    """sum_k coeffs[k] columns[k], entry by entry, lazily: a zero coefficient
    is skipped and a coefficient 1 takes its column as it is."""
    terms = [column if coeff == 1 else map(mul, column, repeat(coeff))
             for coeff, column in zip(coeffs, columns) if coeff]
    total = iter(terms.pop()) if terms else repeat(0, len(columns[0]))
    for term in terms:
        total = map(add, total, term)
    return total


def _rows(form: Sequence[Sequence[int]], columns: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    """The row x^T form of every vector x, where columns[i] holds coordinate i
    of every vector: coordinate k of the rows is formed over all the vectors
    at once, from the nonzero entries of column k of form."""
    return list(zip(*(_combination(column, columns) for column in zip(*form))))


def _pairings(row: Sequence[int], columns: Sequence[Sequence[int]]) -> list[int]:
    """row . y for every member y, where columns[k] holds coordinate k of
    every member: the row is applied coordinate by coordinate over the whole
    catalog at once."""
    return list(_combination(row, columns))


def _dense_masks(catalog: RootCatalog, columns: list) -> tuple[list[int], list[int]]:
    """(ext_free_out, ext_free_in) from one `_pairings` call per member, on
    the rows x^T E that `_rows` forms for the whole catalog at once."""
    rows = [bytes(map(ge, _pairings(row, columns), repeat(0)))
            for row in _rows(catalog.algebra.euler, columns)]
    return [_flags_mask(row) for row in rows], [_flags_mask(column) for column in zip(*rows)]


def _direct_mask(catalog: RootCatalog, x: Indec, columns: list, family: dict[str, int],
                 as_row: bool) -> int:
    """Ext-free mask of x's row (pairs (x, y)) or column (pairs (y, x)),
    from one `_pairings` call, with the cross-family sign asserted on it:
    forward-to-backward pairings are >= 0 and backward-to-forward <= 0."""
    euler = catalog.algebra.euler
    form = euler if as_row else tuple(zip(*euler))
    (row,) = _rows(form, [(c,) for c in x.dimv])
    pairing = _pairings(row, columns)
    free = _flags_mask(map(ge, pairing, repeat(0)))
    other = family[PREINJ if x.component == PREPROJ else PREPROJ]
    if as_row == (x.component == PREPROJ):
        bad = other & ~free
    else:
        bad = other & _flags_mask(map(gt, pairing, repeat(0)))
    if bad:
        y = catalog.entries[(bad & -bad).bit_length() - 1]
        _pair(catalog, *((x, y) if as_row else (y, x)))  # raises, naming the pair
    return free


def _shifted_masks(direct: dict[int, int], across: dict[int, int], size: int) -> list[int]:
    """Every member's mask from the direct ones: a non-head's mask is the
    mask two places before it moved up by 2 on the non-head bits, plus its
    head bits, read off the direct masks of the other side."""
    tails = ((1 << size) - 1) & ~mask_of(direct)
    masks: list[int] = []
    for i in range(size):
        if i in direct:
            masks.append(direct[i])
            continue
        mask = (masks[i - 2] << 2) & tails
        for h, other in across.items():
            mask |= (other >> i & 1) << h
        masks.append(mask)
    return masks


def _window_masks(catalog: RootCatalog, columns: list) -> tuple[list[int], list[int]]:
    """(ext_free_out, ext_free_in) of a rank-2 window by the Coxeter shift,
    after the three checks of the module docstring: M^T E M = E on the unit
    vectors, then every shift in id order, then the sign on the head rows
    and the head columns."""
    algebra = catalog.algebra
    entries = catalog.entries
    for x in entries:
        if x.component not in (PREPROJ, PREINJ):
            raise OracleViolation(f"untagged member {x.dimv} in infinite catalog")
    src, snk = rank2_roles(algebra)

    def shift(x: Sequence[int]) -> DimVector:
        return simple_reflection(algebra, snk, simple_reflection(algebra, src, x))

    units = [unit_vector(algebra.n, k) for k in range(algebra.n)]
    for a in units:
        for b in units:
            if euler_form(algebra, shift(a), shift(b)) != euler_form(algebra, a, b):
                raise OracleViolation(f"the Coxeter shift does not preserve <{a}, {b}>")
    tags = [x.component for x in entries]
    tails = [j for j in range(2, len(entries)) if tags[j - 2] == tags[j - 1] == tags[j]]
    for j in tails:
        moved = shift(entries[j - 2].dimv)
        if moved != entries[j].dimv:
            raise OracleViolation(f"member {j} is {entries[j].dimv}, but the shift of "
                                  f"member {j - 2} {entries[j - 2].dimv} is {moved}")
    family = {c: mask_of(j for j, tag in enumerate(tags) if tag == c) for c in (PREPROJ, PREINJ)}
    heads = sorted(set(range(len(entries))).difference(tails))
    rows = {j: _direct_mask(catalog, entries[j], columns, family, True) for j in heads}
    cols = {j: _direct_mask(catalog, entries[j], columns, family, False) for j in heads}
    return _shifted_masks(rows, cols, len(entries)), _shifted_masks(cols, rows, len(entries))


def build_kernel(catalog: RootCatalog) -> ExtKernel:
    """All ext-vanishing bits of a catalog, and each member's support.

    A finite catalog pairs every member against the whole catalog, one
    `_pairings` call per member on the rows that `_rows` forms at once.  A
    rank-2 window pairs only the first two members of each family run
    directly, as rows and as columns, and reads every other bit off them
    by the Coxeter shift (`_window_masks`), so it makes at most eight
    `_pairings` calls at any `t_max`.  Every direct row and column of a
    window asserts the cross-family sign; the first pair that breaks it is
    reported by `_pair`.
    """
    entries = catalog.entries
    columns = list(zip(*(e.dimv for e in entries)))  # columns[k][j] = entries[j].dimv[k]
    if catalog.kind == FINITE:
        out, into = _dense_masks(catalog, columns)
    else:
        out, into = _window_masks(catalog, columns)
    return ExtKernel(
        ext_free_out=tuple(out),
        ext_free_in=tuple(into),
        compat=tuple(a & b for a, b in zip(out, into)),
        support=tuple(mask_of(v for v, c in enumerate(e.dimv) if c > 0) for e in entries),
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
    return catalog.kernel.rigid(mask_of(members), members)


def support(catalog: RootCatalog, ids: Iterable[int]) -> tuple[frozenset[int], frozenset[int]]:
    """(supported vertices, complementary vertices) of a set of members."""
    members = validate_ids(catalog, ids)
    supp = frozenset(ids_of(catalog.kernel.support_of(members)))
    sigma = frozenset(range(catalog.algebra.n)) - supp
    return supp, sigma
