"""The ext-compatibility kernel against the raw-Euler oracle."""

import dataclasses

import pytest

from clustercomplex import (
    FINITE_FIXTURES,
    PREINJ,
    PREPROJ,
    RANK2_INFINITE_FIXTURES,
    catalog_for,
    fixture,
    hom_ext,
    iter_rigid_sets,
    positive_roots,
    rank2_sequences,
)
from clustercomplex.errors import OracleViolation

from oracles import oracle_ext, oracle_rigid_sets


@pytest.mark.parametrize("name", FINITE_FIXTURES + RANK2_INFINITE_FIXTURES)
def test_masks_match_oracle_ext(name):
    cat = catalog_for(fixture(name), t_max=10)
    euler = cat.algebra.euler
    kernel = cat.kernel
    for x in cat.entries:
        for y in cat.entries:
            free = oracle_ext(euler, x.dimv, y.dimv) == 0
            assert bool(kernel.ext_free_out[x.id] >> y.id & 1) == free, (name, x.dimv, y.dimv)
            assert bool(kernel.ext_free_in[y.id] >> x.id & 1) == free, (name, x.dimv, y.dimv)
        assert kernel.compat[x.id] == kernel.ext_free_out[x.id] & kernel.ext_free_in[x.id]
        assert kernel.support[x.id] == sum(1 << v for v, c in enumerate(x.dimv) if c > 0)


@pytest.mark.parametrize("name", FINITE_FIXTURES)
def test_rigid_sets_match_oracle(name):
    alg = fixture(name)
    cat = positive_roots(alg)
    found = [frozenset(cat.entries[i].dimv for i in ids) for ids in iter_rigid_sets(cat)]
    assert len(found) == len(set(found))
    assert set(found) == set(oracle_rigid_sets(alg.euler, cat.dimvs()))


def test_kernel_is_built_on_first_rigid_set():
    cat = rank2_sequences(fixture("kronecker"), 10)
    sets = iter_rigid_sets(cat)
    assert "kernel" not in vars(cat)
    assert next(sets) == ()
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
        list(iter_rigid_sets(broken))


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
