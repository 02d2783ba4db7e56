"""Work done once per verdict, and the classical counts at scale.

A finite `verify` walks the rigid sets once and computes each member's
descent move once, from two calls of the completion rule at most; both
are counted through wrappers patched into the namespaces that call them.
Over drawn orientations of larger Dynkin types, the facet count is the
generalized Catalan number prod (h + e_i + 1)/(e_i + 1) and the root count
is nh/2 (Fomin-Zelevinsky, "Y-systems and generalized associahedra", 2003);
the faces with k vertices number f_k = sum_i h_i C(n - i, k - i), with h
the W-Narayana numbers.  Every rank-2 co-face is a square, pentagon,
hexagon or octagon (types A1xA1, A2, B2, G2, same paper), and how many of
each a type has does not depend on its orientation.  A rank-2 window of
4,004 members, whose dimension vectors run to about 1,390 bits, verifies
in full.  On linear E7 the complex is built in a small, fixed amount of
memory, as it keeps no face, and the output of the four facet commands is
pinned byte for byte.
"""

import hashlib
import json
import random
import tracemalloc
from collections import Counter
from fractions import Fraction
from math import comb, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clustercomplex import FINITE_FIXTURES, algebra_from_dict, build_algebra, build_complex
from clustercomplex import enumerate_support_tilting, fixture
from clustercomplex import measure, polytope, positive_roots, tilting
from clustercomplex.cli import main
from clustercomplex.homext import ids_of
from oracles import is_single_cycle, oracle_faces, oracle_up


def _counting(monkeypatch, module, name, counts):
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        counts[name] = counts.get(name, 0) + 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)


def _linear_e7():
    """E7 as algebra JSON, arrows i -> i+1 along the chain 1..6 and 3 -> 7."""
    n = 7
    cartan = [[2 if i == j else -1 if abs(i - j) == 1 else 0 for j in range(n)]
              for i in range(n)]
    cartan[5][6] = cartan[6][5] = 0
    cartan[2][6] = cartan[6][2] = -1
    return {"cartan": cartan, "symmetrizer": [1] * n,
            "arrows": [[i, i + 1] for i in range(1, 6)] + [[3, 7]]}


def test_the_complex_keeps_no_face():
    # the tracemalloc peak of building linear E7's complex, its kernel built
    # first: 0.51 MB, against 5.8 MB when every face was filed in a dict
    # with its up mask (Python 3.11); a face store that creeps back fails
    catalog = positive_roots(algebra_from_dict(_linear_e7()))
    assert catalog.kernel
    tracemalloc.start()
    try:
        cx = build_complex(catalog)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(cx.facets) == 4160 and len(cx.faces) == 59223
    assert peak < 2 * 2 ** 20


# SHA-256 of the stdout of each command on linear E7
LINEAR_E7_DIGESTS = {
    "verify": "46ff1b0b0820707286347189da145cd3766862d4dcf0c94d6380a7c05affa860",
    "graph": "452a2ce6019ad8ef8478370a6c44f827661f26752e1694ea1c7860ba3ab2b1bc",
    "facets": "d988f348fd269456be95d6a91d3f577b23fd523d60e768408083e233c2838792",
    "descent": "0b9af8ccd42d2d5a4d8f0e4ba1e10b2206c18ca3d8311ee76eaa76c7a796fb3a",
}


@pytest.mark.parametrize("command", sorted(LINEAR_E7_DIGESTS))
def test_linear_e7_output_is_pinned(command, tmp_path, capsys):
    path = tmp_path / "e7.json"
    path.write_text(json.dumps(_linear_e7()), encoding="utf-8")
    assert main([command, "--input", str(path)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == LINEAR_E7_DIGESTS[command]


def test_verify_valued15_window_at_t_max_1000(capsys):
    assert main(["verify", "--fixture", "valued15", "--t-max", "1000", "--format", "json"]) == 0
    verdict = json.loads(capsys.readouterr().out)
    assert verdict.pop("facets") == 4005
    assert verdict and all(value is True for value in verdict.values())


@pytest.mark.parametrize("name", ["a3", "b3", "d4"])
def test_verify_searches_once_and_moves_each_member_once(monkeypatch, capsys, name):
    counts = {}
    _counting(monkeypatch, polytope, "walk_complex", counts)
    _counting(monkeypatch, tilting, "iter_rigid_sets", counts)
    _counting(monkeypatch, measure, "canonical_completion", counts)
    assert main(["verify", "--fixture", name]) == 0
    assert "✗" not in capsys.readouterr().out
    members = len(positive_roots(fixture(name)))
    assert counts["walk_complex"] == counts["iter_rigid_sets"] == 1
    assert 0 < counts["canonical_completion"] <= 2 * members


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


# The W-Narayana numbers h_0..h_n of the exceptional types, from the tables
# (Fomin-Reading, "Root systems and generalized associahedra", 2005).
NARAYANA = {
    "E6": (1, 36, 204, 351, 204, 36, 1),
    "E7": (1, 63, 546, 1470, 1470, 546, 63, 1),
    "F4": (1, 24, 55, 24, 1),
    "G2": (1, 6, 1),
}


def _narayana(kind):
    """The h-vector of one irreducible type such as "A3" or "D6"."""
    letter, n = kind[0], int(kind[1:])
    if kind in NARAYANA:
        return NARAYANA[kind]
    if letter == "A":
        return tuple(Fraction(comb(n + 1, k) * comb(n + 1, k + 1), n + 1) for k in range(n + 1))
    if letter in "BC":
        return tuple(comb(n, k) ** 2 for k in range(n + 1))
    assert letter == "D"
    return (1,) + tuple(comb(n, k) ** 2 - Fraction(n, n - 1) * comb(n - 1, k) * comb(n - 1, k - 1)
                        for k in range(1, n + 1))


def _f_vector(name):
    """f_k, the number of faces with k vertices, for k = 0..n: the h-vector
    of each factor of the type `name` ("a1xa1" has two), multiplied out as
    polynomials, then f_k = sum_i h_i C(n - i, k - i)."""
    h = (1,)
    for kind in name.upper().split("X"):
        factor = _narayana(kind)
        h = tuple(sum(h[i] * factor[k - i] for i in range(len(h)) if 0 <= k - i < len(factor))
                  for k in range(len(h) + len(factor) - 1))
    n = len(h) - 1
    return [sum(h[i] * comb(n - i, k - i) for i in range(k + 1)) for k in range(n + 1)]


@pytest.mark.parametrize("name", FINITE_FIXTURES + tuple(sorted(DYNKIN)))
def test_face_levels_have_the_narayana_f_vector(name):
    # the faces with k vertices number f_k, from the W-Narayana h-vector,
    # and the walk's loop visits them all
    if name in DYNKIN:
        catalogs = [positive_roots(_algebra(name, directions))
                    for directions in _orientations(name, 2)]
    else:
        catalogs = [positive_roots(fixture(name))]
    want = _f_vector(name)
    for catalog in catalogs:
        sizes = Counter(face.bit_count() for face in oracle_faces(catalog))
        assert [sizes[k] for k in range(len(want))] == want
        assert len(build_complex(catalog).faces) == sum(want)


POLYGON_SIZES = (4, 5, 6, 8)

# faces with n - 2 vertices whose link is a square, pentagon, hexagon, octagon
CENSUS = {
    "a1xa1": (1, 0, 0, 0),
    "a2": (0, 1, 0, 0),
    "b2": (0, 0, 1, 0),
    "g2": (0, 0, 0, 1),
    "a3": (3, 6, 0, 0),
    "b3": (4, 4, 4, 0),
    "c3": (4, 4, 4, 0),
    "d4": (30, 36, 0, 0),
    "A6": (990, 495, 0, 0),
    "D6": (1470, 840, 0, 0),
    "E6": (1785, 1071, 0, 0),
    "B6": (2100, 840, 210, 0),
    "F4": (63, 42, 28, 0),
    "E7": (13650, 6552, 0, 0),
}


def _polygon_census(catalog):
    """The faces F with n - 2 vertices, counted by link length.  The link of
    F has the vertices up[F], and v, w are joined when w is in up[F + v]; it
    must be one cycle of 4, 5, 6 or 8 vertices."""
    n, faces = catalog.algebra.n, oracle_faces(catalog)
    up, lengths = oracle_up(faces), Counter()
    assert len(build_complex(catalog).faces) == len(faces)
    for face in faces:
        if face.bit_count() == n - 2:
            link = up[face]
            cycle = {v: ids_of(up[face | 1 << v] & link) for v in ids_of(link)}
            assert is_single_cycle(cycle), face
            lengths[len(cycle)] += 1
    assert set(lengths) <= set(POLYGON_SIZES), lengths
    return tuple(lengths[size] for size in POLYGON_SIZES)


def _orientations(name, count):
    """`count` distinct edge directions for DYNKIN[name], drawn from a fixed seed."""
    edges, rng, drawn = DYNKIN[name][1], random.Random(name), []
    while len(drawn) < count:
        directions = [rng.random() < 0.5 for _ in edges]
        if directions not in drawn:
            drawn.append(directions)
    return drawn


def test_rank2_coface_census():
    found = {name: _polygon_census(positive_roots(fixture(name)))
             for name in CENSUS if name not in DYNKIN}
    for name in DYNKIN:
        first, *rest = (_polygon_census(positive_roots(_algebra(name, directions)))
                        for directions in _orientations(name, 1 if name == "E7" else 2))
        assert all(census == first for census in rest), name
        found[name] = first
    assert found == CENSUS
    # type A_n: the Kirkman-Cayley count of faces with k = n - 2 vertices
    for name, n in (("a3", 3), ("A6", 6)):
        k = n - 2
        assert sum(found[name]) == comb(n, k) * comb(n + k + 2, k) // (k + 1)
