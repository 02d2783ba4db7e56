"""Work done once per verdict, and the classical counts at scale.

A finite `verify` searches the rigid sets once and computes each member's
descent move once; both are counted through wrappers patched into the
namespaces that call them.  Over drawn orientations of larger Dynkin types,
the facet count is the generalized Catalan number prod (h + e_i + 1)/(e_i + 1)
and the root count is nh/2 (Fomin-Zelevinsky, "Y-systems and generalized
associahedra", 2003).  A rank-2 window of 4,004 members, whose dimension
vectors run to about 1,390 bits, verifies in full.
"""

import json
from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clustercomplex import build_algebra, enumerate_support_tilting, fixture, positive_roots
from clustercomplex import measure, tilting
from clustercomplex.cli import main


def _counting(monkeypatch, module, name, counts):
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        counts[name] = counts.get(name, 0) + 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)


def test_verify_valued15_window_at_t_max_1000(capsys):
    assert main(["verify", "--fixture", "valued15", "--t-max", "1000", "--format", "json"]) == 0
    verdict = json.loads(capsys.readouterr().out)
    assert verdict.pop("facets") == 4005
    assert verdict and all(value is True for value in verdict.values())


@pytest.mark.parametrize("name", ["a3", "b3", "d4"])
def test_verify_searches_once_and_moves_each_member_once(monkeypatch, capsys, name):
    counts = {}
    _counting(monkeypatch, tilting, "iter_rigid_sets", counts)
    _counting(monkeypatch, measure, "bongartz", counts)
    _counting(monkeypatch, measure, "dual_bongartz", counts)
    assert main(["verify", "--fixture", name]) == 0
    assert "✗" not in capsys.readouterr().out
    members = len(positive_roots(fixture(name)))
    assert counts["iter_rigid_sets"] == 1
    assert 0 < counts["bongartz"] + counts["dual_bongartz"] <= 2 * members


def _chain(n):
    return [(i, i + 1) for i in range(n - 1)]


# name: (n, diagram edges, {(i, j): c_ij other than -1}, symmetrizer, h, exponents)
DYNKIN = {
    "A6": (6, _chain(6), {}, (1,) * 6, 7, (1, 2, 3, 4, 5, 6)),
    "D6": (6, _chain(5) + [(3, 5)], {}, (1,) * 6, 10, (1, 3, 5, 5, 7, 9)),
    "E6": (6, _chain(5) + [(2, 5)], {}, (1,) * 6, 12, (1, 4, 5, 7, 8, 11)),
    "B6": (6, _chain(6), {(5, 4): -2}, (2,) * 5 + (1,), 12, (1, 3, 5, 7, 9, 11)),
    "F4": (4, _chain(4), {(1, 2): -2}, (1, 1, 2, 2), 12, (1, 5, 7, 11)),
    "E7": (7, _chain(6) + [(2, 6)], {}, (1,) * 7, 18, (1, 5, 7, 9, 11, 13, 17)),
}


def _algebra(name, directions):
    n, edges, entries, symmetrizer, _, _ = DYNKIN[name]
    cartan = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i, j in edges:
        cartan[i][j] = cartan[j][i] = -1
    for (i, j), value in entries.items():
        cartan[i][j] = value
    # a tree: any direction on each edge is an acyclic orientation
    arrows = [(i, j) if forward else (j, i) for (i, j), forward in zip(edges, directions)]
    return build_algebra(cartan, list(symmetrizer), arrows)


@pytest.mark.parametrize("name", sorted(DYNKIN))
@settings(max_examples=5, deadline=None, database=None, derandomize=True)
@given(directions=st.lists(st.booleans(), min_size=6, max_size=6))
def test_counts_match_the_classical_formulas(name, directions):
    n, _, _, _, h, exponents = DYNKIN[name]
    catalog = positive_roots(_algebra(name, directions))
    assert len(catalog) == n * h // 2
    assert len(enumerate_support_tilting(catalog)) == prod(
        Fraction(h + e + 1, e + 1) for e in exponents)
