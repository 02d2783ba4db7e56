"""The ext-compatibility kernel against the raw-Euler oracle, and each check
of the rank-2 shift build failing on a mutant."""

import dataclasses
import random

import pytest

from clustercomplex import (
    FINITE_FIXTURES,
    PREINJ,
    PREPROJ,
    RANK2_INFINITE_FIXTURES,
    build_algebra,
    catalog_for,
    fixture,
    hom_ext,
    positive_roots,
    rank2_sequences,
)
from clustercomplex import homext
from clustercomplex.homext import ids_of
from clustercomplex.errors import OracleViolation

from oracles import oracle_cliques, oracle_ext, oracle_form, oracle_rigid_sets
from test_scale import DYNKIN, _algebra, _orientations


def reversed_arrow(alg):
    return build_algebra(alg.cartan, alg.symmetrizer, [(b, a) for a, b in alg.arrows])


# the benchmark's types: a row x^T E skips the zero entries of E, and B6
# adds a valued edge, with arrows drawn in both directions on each
BENCHMARK_TYPES = ("A6", "D6", "E6", "B6")


def grid(name):
    """The fixture's catalog, two drawn orientations of a benchmark type,
    or for a rank-2 window every arrow direction at `t_max` 0-12 and 40."""
    if name in BENCHMARK_TYPES:
        return [positive_roots(_algebra(name, directions)) for directions in _orientations(name, 2)]
    alg = fixture(name)
    if name not in RANK2_INFINITE_FIXTURES:
        return [catalog_for(alg, t_max=10)]
    return [rank2_sequences(a, t) for a in (alg, reversed_arrow(alg)) for t in [*range(13), 40]]


@pytest.mark.parametrize("name", FINITE_FIXTURES + RANK2_INFINITE_FIXTURES + BENCHMARK_TYPES)
def test_masks_match_oracle_ext(name):
    for cat in grid(name):
        euler = cat.algebra.euler
        kernel = cat.kernel
        for x in cat.entries:
            for y in cat.entries:
                free = oracle_ext(euler, x.dimv, y.dimv) == 0
                assert bool(kernel.ext_free_out[x.id] >> y.id & 1) == free, (name, x.dimv, y.dimv)
                assert bool(kernel.ext_free_in[y.id] >> x.id & 1) == free, (name, x.dimv, y.dimv)
            assert kernel.compat[x.id] == kernel.ext_free_out[x.id] & kernel.ext_free_in[x.id]
            assert kernel.support[x.id] == sum(1 << v for v, c in enumerate(x.dimv) if c > 0)
        assert all(mask < 1 << len(cat) for mask in kernel.ext_free_out + kernel.ext_free_in)


def _transpose(masks, size):
    """The masks with bit j of mask i moved to bit i of mask j."""
    return tuple(sum(1 << i for i, mask in enumerate(masks) if mask >> j & 1) for j in range(size))


def test_compat_is_symmetric_and_ext_free_in_is_the_transpose():
    # the up lemma of `tilting` reads the members that extend a rigid set
    # off compat rows, which needs compat symmetric; on every fixture, two
    # drawn orientations of each Dynkin type, and rank-2 windows whose
    # masks the Coxeter shift builds
    catalogs = [catalog_for(fixture(name)) for name in FINITE_FIXTURES + RANK2_INFINITE_FIXTURES]
    catalogs += [positive_roots(_algebra(name, directions))
                 for name in sorted(DYNKIN) for directions in _orientations(name, 2)]
    catalogs += [rank2_sequences(fixture(name), t_max)
                 for name in RANK2_INFINITE_FIXTURES for t_max in (0, 1, 10, 40)]
    assert len(catalogs) == 31
    for cat in catalogs:
        kernel = cat.kernel
        assert kernel.compat == _transpose(kernel.compat, len(cat)), cat.algebra
        assert kernel.ext_free_in == _transpose(kernel.ext_free_out, len(cat)), cat.algebra


def test_window_masks_match_oracle_form_at_scale():
    cat = rank2_sequences(fixture("valued15"), 1000)
    euler = cat.algebra.euler
    kernel = cat.kernel
    rng = random.Random(1000)
    for _ in range(2000):
        x, y = rng.choice(cat.entries), rng.choice(cat.entries)
        free = oracle_form(euler, x.dimv, y.dimv) >= 0
        assert bool(kernel.ext_free_out[x.id] >> y.id & 1) == free, (x.id, y.id)
        assert bool(kernel.ext_free_in[y.id] >> x.id & 1) == free, (x.id, y.id)


def test_pairings_per_build(monkeypatch):
    # a window pairs two rows and two columns per family at any size; a
    # finite catalog pairs one row per member
    calls = []
    original = homext._pairings

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(homext, "_pairings", counting)
    for name in RANK2_INFINITE_FIXTURES:
        for t_max in (0, 1, 5, 40, 300):
            calls.clear()
            cat = rank2_sequences(fixture(name), t_max)
            cat.kernel
            assert len(calls) <= 8, (name, t_max)
    for name in FINITE_FIXTURES:
        calls.clear()
        cat = catalog_for(fixture(name))
        cat.kernel
        assert len(calls) == len(cat), name


def test_wrong_interior_member_breaks_the_shift():
    cat = rank2_sequences(fixture("kronecker"), 4)
    entries = list(cat.entries)
    middle = entries[4]
    assert middle.component == PREPROJ and middle.dimv == (4, 5)
    entries[4] = dataclasses.replace(middle, dimv=(5, 4))
    broken = dataclasses.replace(cat, entries=tuple(entries))
    with pytest.raises(OracleViolation, match=r"member 4 is \(5, 4\), but the shift of member 2"):
        broken.kernel


def test_euler_form_not_preserved_by_the_shift():
    cat = rank2_sequences(fixture("kronecker"), 4)
    assert cat.algebra.euler == ((1, -2), (0, 1))
    algebra = dataclasses.replace(cat.algebra, euler=((1, -3), (0, 1)))
    broken = dataclasses.replace(cat, algebra=algebra)
    with pytest.raises(OracleViolation, match="Coxeter shift does not preserve"):
        broken.kernel


def test_sign_violation_seen_only_by_the_head_columns():
    # -E - 2E^T is preserved by the shift like E, and its only cross-family
    # sign violations pair a backward non-head with a forward head, so only
    # the direct columns of the window see them
    cat = rank2_sequences(fixture("kronecker"), 3)
    e = cat.algebra.euler
    form = tuple(tuple(-e[i][j] - 2 * e[j][i] for j in range(2)) for i in range(2))
    broken = dataclasses.replace(cat, algebra=dataclasses.replace(cat.algebra, euler=form))
    with pytest.raises(OracleViolation, match=r"backward-to-forward pairing \(2, 1\) -> \(0, 1\)"):
        broken.kernel


@pytest.mark.parametrize("name", FINITE_FIXTURES)
def test_rigid_sets_match_oracle(name):
    alg = fixture(name)
    cat = positive_roots(alg)
    found = [frozenset(cat.entries[i].dimv for i in ids_of(members))
             for members, _, _ in oracle_cliques(cat)]
    assert len(found) == len(set(found))
    assert set(found) == set(oracle_rigid_sets(alg.euler, cat.dimvs()))


def test_kernel_is_built_on_first_rigid_set():
    cat = rank2_sequences(fixture("kronecker"), 10)
    sets = oracle_cliques(cat)
    assert "kernel" not in vars(cat)
    assert next(sets) == (0, 0, (1 << len(cat)) - 1)
    assert "kernel" in vars(cat)
    # every member, and the neighbour pairs inside each of the two families
    assert sum(1 for _ in sets) == len(cat) + (len(cat) - 2)


@pytest.mark.parametrize("name", RANK2_INFINITE_FIXTURES)
def test_flipped_family_tag_is_an_oracle_violation(name):
    cat = rank2_sequences(fixture(name), 10)
    entries = list(cat.entries)
    first = entries[0]
    assert first.component == PREPROJ
    entries[0] = dataclasses.replace(first, component=PREINJ)
    broken = dataclasses.replace(cat, entries=tuple(entries))
    with pytest.raises(OracleViolation, match="pairing"):
        list(oracle_cliques(broken))


def test_backward_member_tagged_forward_is_an_oracle_violation():
    # (1, 0) tagged forward pairs negatively with the backward (6, 5):
    # `hom_ext` names both; the kernel build meets (6, 5) first and reports
    # the same pair from the other side
    cat = rank2_sequences(fixture("kronecker"), 2)
    entries = list(cat.entries)
    last = entries[-1]
    assert (last.dimv, last.component) == ((1, 0), PREINJ)
    entries[-1] = dataclasses.replace(last, component=PREPROJ)
    broken = dataclasses.replace(cat, entries=tuple(entries))
    with pytest.raises(OracleViolation, match=r"forward-to-backward pairing \(1, 0\) -> \(6, 5\)"):
        hom_ext(broken, broken.entries[-1], broken.by_dimv[(6, 5)])
    with pytest.raises(OracleViolation, match=r"\(6, 5\) -> \(1, 0\)"):
        broken.kernel
