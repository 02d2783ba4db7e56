import argparse
import contextlib
import io
import json
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clustercomplex import (
    algebra_to_dict,
    build_complex,
    face_label,
    fixture,
    positive_roots,
)
from clustercomplex import cli, measure, roots
from clustercomplex.cli import main
from clustercomplex.homext import ids_of
from clustercomplex.polytope import _unreached
from oracles import (
    complex_of,
    downward_closure,
    link_ups,
    oracle_faces,
    oracle_link_unreached,
    oracle_up,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_g2_demo(capsys):
    code, out, _ = run(capsys, "g2-demo")
    assert code == 0
    lines = dict(line.split(":", 1) for line in out.strip().splitlines())
    assert lines["dimv"].split() == ["(0,1)", "(1,3)", "(1,2)", "(2,3)", "(1,1)", "(1,0)"]
    assert lines["length"].split() == ["1", "6", "5", "9", "4", "3"]
    assert lines["mu2"].split() == ["1", "12", "25", "27", "16", "3"]
    assert lines["facets"].strip() == "8"


def test_verify_g2(capsys):
    code, out, _ = run(capsys, "verify", "--fixture", "g2")
    assert code == 0
    assert out.startswith("facets=8")
    assert "✗" not in out


def test_verify_json_format(capsys):
    code, out, _ = run(capsys, "verify", "--fixture", "a3", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["facets"] == 14
    assert all(data[k] for k in ("ap1", "ap2", "ap4", "simplicial", "strong-flag",
                                 "endos", "descent"))


def test_verify_kronecker(capsys):
    code, out, _ = run(capsys, "verify", "--fixture", "kronecker", "--t-max", "6")
    assert code == 0
    assert "path ✓" in out and "total-order ✓" in out


@pytest.mark.parametrize("t_max", range(41))
@pytest.mark.parametrize("reverse", [False, True], ids=["arrow", "reversed"])
@pytest.mark.parametrize("name", ["kronecker", "valued15"])
def test_verify_window_both_arrow_directions(capsys, tmp_path, name, reverse, t_max):
    data = algebra_to_dict(fixture(name))
    if reverse:
        data["arrows"] = [[b, a] for a, b in data["arrows"]]
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(data))
    code, out, _ = run(capsys, "verify", "--input", str(path), "--t-max", str(t_max),
                       "--format", "json")
    assert code == 0
    # 2 (2 t_max + 1) neighbour pairs and 3 coordinate facets
    assert json.loads(out) == {"facets": 4 * t_max + 5, "window-facets": True,
                               "interior-ridges": True, "path": True, "total-order": True,
                               "rank2-descent": True}


def test_verify_unsupported(capsys):
    code, _, err = run(capsys, "verify", "--fixture", "affine_a2")
    assert code == 4
    assert "rank" in err


def test_search_limit_is_out_of_range(monkeypatch, capsys):
    demo = run(capsys, "g2-demo")
    monkeypatch.setattr(roots, "ROOT_LIMIT", 5)
    code, out, err = run(capsys, "verify", "--fixture", "a3")
    assert code == 4 and out == ""
    assert err == "error: more than 5 root candidates\n"
    # the limit bounds the root search alone: a finite rank-2 chain has a
    # bound of its own, so G2 keeps its six roots in quiver order
    monkeypatch.setattr(roots, "ROOT_LIMIT", 2)
    assert roots.rank2_sequences(fixture("g2"), 10).dimvs() == [
        (0, 1), (1, 3), (1, 2), (2, 3), (1, 1), (1, 0)]
    assert run(capsys, "g2-demo") == demo
    # a rank-2 window or total-order chains at t_max above its limit would
    # take seconds and hundreds of MB; the bound stops them before anything
    # is built
    over = roots.T_MAX_LIMIT + 1
    for argv in (("verify", "--fixture", "kronecker"),
                 ("total-order", "--r", "5", "--s", "1", "--u", "1", "--v", "5")):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv, "--t-max", str(over))
        assert time.perf_counter() - start < 0.5
        assert code == 4 and out == ""
        assert err == f"error: t_max {over} is above the limit {roots.T_MAX_LIMIT}\n"


def test_failed_checks_print_witnesses(monkeypatch, capsys):
    # a3 with its first facet missing from the faces, and the endomorphism
    # check failing on the zero facet
    cat = positive_roots(fixture("a3"))
    whole = build_complex(cat)
    victim = whole.facets[0]
    monkeypatch.setattr(cli, "build_complex", lambda catalog: complex_of(
        catalog, oracle_faces(catalog) - {victim}))
    monkeypatch.setattr(measure, "verify_endos",
                        lambda catalog, facet: bool(facet >> catalog.algebra.n))
    code, out, err = run(capsys, "verify", "--fixture", "a3")
    assert code == 1
    assert out == "facets=13 ap1 ✓ ap2 ✓ ap4 ✗ simplicial ✓ strong-flag ✗ endos ✗ descent ✓\n"
    ridge = min((victim ^ (1 << v) for v in ids_of(victim)), key=ids_of)  # each is held once
    assert err.splitlines() == [f"witness: ap4 {face_label(cat, ridge)}",
                                f"witness: strong-flag {face_label(cat, ridge)}",
                                "witness: endos |1,2,3"]


def test_the_first_maximal_short_face_is_the_ap2_witness(monkeypatch, capsys):
    # a3 without the facets through its first and its last ridge: those two
    # ridges are then the maximal faces with two vertices, and the first one
    # by vertex tuple is the witness
    cat = positive_roots(fixture("a3"))
    whole = build_complex(cat)
    ridges = sorted((f for f in oracle_faces(cat) if f.bit_count() == 2), key=ids_of)
    first, last = ridges[0], ridges[-1]
    dropped = {f for f in whole.facets if f & first == first or f & last == last}
    faces = oracle_faces(cat) - dropped
    assert sorted((f for f in faces if f.bit_count() < 3
                   and not any(g != f and g & f == f for g in faces)), key=ids_of) == [first, last]
    monkeypatch.setattr(cli, "build_complex", lambda catalog: complex_of(
        catalog, oracle_faces(catalog) - dropped))
    code, out, err = run(capsys, "verify", "--fixture", "a3")
    assert code == 1
    assert out == "facets=10 ap1 ✓ ap2 ✗ ap4 ✗ simplicial ✓ strong-flag ✗ endos ✓ descent ✓\n"
    lines = err.splitlines()
    assert lines[0] == f"witness: ap2 {face_label(cat, first)}"
    assert [line.split()[1] for line in lines] == ["ap2", "ap4", "strong-flag"]


def test_the_first_lost_subface_is_the_simplicial_witness(monkeypatch, capsys):
    # a3 without one of its edges and one vertex outside it: both are lost
    # subfaces, and the vertex comes first by size; with every ridge thin it
    # is the AP4 witness too
    cat = positive_roots(fixture("a3"))
    faces = oracle_faces(cat)
    edge = min((f for f in faces if f.bit_count() == 2), key=ids_of)
    vertex = max((f for f in faces if f.bit_count() == 1 and not f & edge), key=ids_of)
    monkeypatch.setattr(cli, "build_complex", lambda catalog: complex_of(
        catalog, oracle_faces(catalog) - {edge, vertex}))
    code, out, err = run(capsys, "verify", "--fixture", "a3")
    assert code == 1
    assert out == "facets=14 ap1 ✓ ap2 ✓ ap4 ✗ simplicial ✗ strong-flag ✓ endos ✓ descent ✓\n"
    assert err == (f"witness: ap4 {face_label(cat, vertex)}\n"
                   f"witness: simplicial {face_label(cat, vertex)}\n")


def test_the_ap4_witness_is_a_lost_subface_with_a_vertex(monkeypatch, capsys):
    # a3 without its empty face and one vertex: the empty face comes first
    # and is the simplicial witness, but AP4 names the vertex
    cat = positive_roots(fixture("a3"))
    vertex = max((f for f in oracle_faces(cat) if f.bit_count() == 1), key=ids_of)
    monkeypatch.setattr(cli, "build_complex", lambda catalog: complex_of(
        catalog, oracle_faces(catalog) - {0, vertex}))
    code, out, err = run(capsys, "verify", "--fixture", "a3")
    assert code == 1
    assert out == "facets=14 ap1 ✗ ap2 ✓ ap4 ✗ simplicial ✗ strong-flag ✓ endos ✓ descent ✓\n"
    assert err == (f"witness: ap4 {face_label(cat, vertex)}\n"
                   f"witness: simplicial {face_label(cat, 0)}\n")


def test_split_link_flood_matches_a_breadth_first_search():
    # two tetrahedron boundaries sharing vertex 3: the flood stops early on
    # the connected links and, on the split link of vertex 3, returns what a
    # search from its lowest vertex misses
    spheres = [sum(1 << v for v in block) - (1 << v) for block in ((0, 1, 2, 3), (3, 4, 5, 6))
               for v in block]
    faces = downward_closure(spheres)
    up = oracle_up(faces)
    for face in faces:
        if face.bit_count() <= 1:
            assert _unreached(link_ups(up, face), up[face]) == oracle_link_unreached(faces, face)
    assert _unreached(link_ups(up, 1 << 3), up[1 << 3]) == 0b1110000
    assert complex_of(positive_roots(fixture("a3")), faces).split == [1 << 3]


def test_thin_complex_with_a_split_link_prints_the_link(monkeypatch, capsys):
    # two tetrahedron boundaries sharing vertex 3: every ridge is thin, but
    # the link of vertex 3 is two disjoint triangles
    cat = positive_roots(fixture("a3"))
    spheres = [sum(1 << v for v in block) - (1 << v) for block in ((0, 1, 2, 3), (3, 4, 5, 6))
               for v in block]
    monkeypatch.setattr(cli, "build_complex", lambda catalog: complex_of(
        catalog, downward_closure(spheres)))
    code, out, err = run(capsys, "verify", "--fixture", "a3")
    assert code == 1
    assert out == "facets=8 ap1 ✓ ap2 ✓ ap4 ✓ simplicial ✓ strong-flag ✗ endos ✓ descent ✓\n"
    assert err == f"witness: strong-flag {face_label(cat, 1 << 3)}\n"


@pytest.mark.parametrize("content", [b"\xff\xfe{}", b"[" * 100000],
                         ids=["not-utf8", "deeply-nested"])
def test_unreadable_input_is_a_parse_error(capsys, tmp_path, content):
    # a file that is not UTF-8 and one too deeply nested to decode: exit 3
    # with one error line, not a traceback
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    code, out, err = run(capsys, "verify", "--input", str(path))
    assert code == 3 and out == ""
    assert err.startswith("error: cannot read algebra from ") and err.count("\n") == 1


# the lookup's message as written: no quotes around it from the KeyError
UNKNOWN_FIXTURE = ("error: unknown fixture 'nope'; choose from a1, a1xa1, a2, a3, affine_a2, "
                   "b2, b3, c3, d4, g2, kronecker, valued15\n")


def test_parse_error_exit(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "verify", "--input", str(bad))
    assert code == 3 and "error" in err
    code, out, err = run(capsys, "verify", "--fixture", "nope")
    assert (code, out, err) == (3, "", UNKNOWN_FIXTURE)
    invalid = tmp_path / "invalid.json"
    invalid.write_text(json.dumps({"cartan": [[2, -1], [-2, 2]],
                                   "symmetrizer": [1, 1], "arrows": [[1, 2]]}))
    code, _, _ = run(capsys, "verify", "--input", str(invalid))
    assert code == 3


A2 = {"n": 2, "cartan": [[2, -1], [-1, 2]], "symmetrizer": [1, 1], "arrows": [[1, 2]]}


@pytest.mark.parametrize("change", [
    {"cartan": [[3, -1], [-1, 2]]},
    {"n": "two"},
    {"arrows": [[1, 5]]},
    {"arrows": [[0, 1]]},
    {"cartan": [[2, -1.5], [-1, 2]]},
], ids=["c00=3", "n=two", "arrow-1-5", "arrow-0-1", "entry-1.5"])
def test_bad_algebra_exits_3(capsys, tmp_path, change):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({**A2, **change}))
    code, out, err = run(capsys, "verify", "--input", str(path))
    assert code == 3 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("arrow", [[0, 1], [1, 5]])
def test_arrow_outside_the_labels_is_named_as_written(capsys, tmp_path, arrow):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({**A2, "arrows": [arrow]}))
    code, out, err = run(capsys, "verify", "--input", str(path))
    assert (code, out) == (3, "")
    assert err == (f"error: invalid algebra data: arrow [{arrow[0]}, {arrow[1]}] "
                   "has an end outside the labels 1..2\n")


@pytest.mark.parametrize("change, message", [
    ({"arrows": [[1, 1]]}, "arrow [1, 1] is a loop"),
    ({"cartan": [[2, 0], [0, 2]]}, "arrow [1, 2] joins vertices 1 and 2, whose Cartan entry is 0"),
    ({"arrows": []}, "vertices 1 and 2 are coupled in the Cartan matrix but no arrow joins them"),
], ids=["loop", "arrow-without-entry", "coupling-without-arrow"])
def test_arrow_errors_name_1_based_labels(capsys, tmp_path, change, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({**A2, **change}))
    assert run(capsys, "verify", "--input", str(path)) == (
        3, "", f"error: invalid algebra data: {message}\n")


@pytest.mark.parametrize("change, message", [
    ({"cartan": [[3, -1], [-1, 2]]}, "c[1][1] = 3, diagonal entries must be 2"),
    ({"cartan": [[2, 1], [-1, 2]]}, "c[1][2] = 1, off-diagonal entries must be <= 0"),
    ({"symmetrizer": [0, 1]}, "symmetrizer entry u[1] = 0 must be positive"),
    ({"cartan": [[2, -1], [-2, 2]]}, "u[1]*c[1][2] = -1 != -2 = u[2]*c[2][1]"),
], ids=["diagonal", "off-diagonal", "symmetrizer", "not-symmetrizable"])
def test_matrix_errors_name_1_based_labels(capsys, tmp_path, change, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({**A2, **change}))
    assert run(capsys, "verify", "--input", str(path)) == (
        3, "", f"error: invalid algebra data: {message}\n")


# mostly plausible values, so that valid algebras of every kind come up too
_junk = st.one_of(st.integers(-4, 3), st.floats(allow_nan=True), st.text(max_size=3))


def _entry(usual):
    return st.one_of(usual, usual, usual, _junk)


@st.composite
def _algebra_dicts(draw):
    n = draw(st.integers(0, 3))
    data = {
        "cartan": [[draw(_entry(st.just(2) if i == j else st.integers(-3, 0)))
                    for j in range(n)] for i in range(n)],
        "symmetrizer": [draw(_entry(st.integers(1, 3))) for _ in range(n)],
        "arrows": draw(st.lists(st.lists(_entry(st.integers(1, n + 1)), min_size=2, max_size=2),
                                max_size=3)),
    }
    if draw(st.booleans()):
        data["n"] = draw(_entry(st.just(n)))
    return data


def _exits_cleanly(command, data):
    # exit codes only: 0 verified, 1 a check failed, 3 bad input, 4 unsupported
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "algebra.json"
        path.write_text(json.dumps(data))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, "--input", str(path)])
    assert code in (0, 1, 3, 4)
    assert "Traceback" not in err.getvalue()


@settings(max_examples=150, deadline=2000, database=None, derandomize=True)
@given(_algebra_dicts())
def test_verify_any_algebra_dict_exits_cleanly(data):
    _exits_cleanly("verify", data)


@pytest.mark.parametrize("command", ["roots", "table", "facets", "graph", "descent"])
@settings(max_examples=150, deadline=2000, database=None, derandomize=True)
@given(data=_algebra_dicts())
def test_other_commands_on_any_algebra_dict_exit_cleanly(command, data):
    _exits_cleanly(command, data)


def test_roots_jsonl(capsys):
    code, out, _ = run(capsys, "roots", "--fixture", "kronecker", "--t-max", "1")
    assert code == 0
    rows = [json.loads(line) for line in out.strip().splitlines()]
    assert {"dimv": [0, 1], "q": 1, "component": "preproj", "t": 0, "i": 2} in rows
    assert all(row["component"] in ("preproj", "preinj") for row in rows)
    assert len(rows) == 8


def test_facets_jsonl(capsys):
    code, out, _ = run(capsys, "facets", "--fixture", "a2")
    assert code == 0
    rows = [json.loads(line) for line in out.strip().splitlines()]
    assert len(rows) == 5
    assert {"T": [], "sigma": [1, 2]} in rows


# Rank 0: the empty face is the one facet, with no ridge and no link to
# flood, and every check holds.
RANK_ZERO = {
    "verify": "facets=1 ap1 ✓ ap2 ✓ ap4 ✓ simplicial ✓ strong-flag ✓ endos ✓ descent ✓\n",
    "verify --format json": '{"facets": 1, "ap1": true, "ap2": true, "ap4": true, '
                            '"simplicial": true, "strong-flag": true, "endos": true, '
                            '"descent": true}\n',
    "facets": '{"T": [], "sigma": []}\n',
    "graph": 'graph exchange {\n  f0 [label="|"];\n}\n',
    "graph --format json": '{"nodes": ["|"], "edges": []}\n',
    "descent": "ok  steps=0  |\n",
}


@pytest.mark.parametrize("command", sorted(RANK_ZERO))
def test_rank_zero_output(tmp_path, capsys, command):
    path = tmp_path / "rank0.json"
    path.write_text(json.dumps({"n": 0, "cartan": [], "symmetrizer": [], "arrows": []}))
    assert run(capsys, *command.split(), "--input", str(path)) == (0, RANK_ZERO[command], "")


def test_table_csv(capsys):
    import csv as csvmod
    import io

    code, out, _ = run(capsys, "table", "--fixture", "g2")
    assert code == 0
    rows = list(csvmod.reader(io.StringIO(out)))
    assert len(rows) == 7
    assert rows[0][1:] == ["(0,1)", "(1,0)", "(1,1)", "(1,2)", "(1,3)", "(2,3)"]
    # row of (1,0): hom/ext against (0,1) is 0/3
    assert rows[2][0] == "(1,0)" and rows[2][1] == "0/3"


def test_graph_dot(capsys):
    code, out, _ = run(capsys, "graph", "--fixture", "a2")
    assert code == 0
    assert out.startswith("graph exchange {")
    assert out.count(" -- ") == 5
    assert '"|1,2"' in out


def test_graph_json_path_for_window(capsys):
    code, out, _ = run(capsys, "graph", "--fixture", "kronecker", "--t-max", "4",
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert len(data["nodes"]) == 21
    assert len(data["edges"]) == 20


def test_descent_cli(capsys):
    code, out, _ = run(capsys, "descent", "--fixture", "g2")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 8
    assert all(line.startswith("ok") for line in lines)


@pytest.mark.parametrize("name", ["kronecker", "valued15"])
def test_descent_on_infinite_rank2_is_unsupported(capsys, name):
    code, out, err = run(capsys, "descent", "--fixture", name)
    assert code == 4 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_total_order_cli(capsys):
    code, out, _ = run(capsys, "total-order", "--r", "2", "--s", "2", "--u", "1",
                       "--v", "1", "--t-max", "20", "--random-weights", "3", "--seed", "5")
    assert code == 0 and out.startswith("ok")
    # r*s < 4 is the finite case, outside what total-order covers
    code, out, err = run(capsys, "total-order", "--r", "1", "--s", "3", "--u", "3",
                         "--v", "1")
    assert code == 4 and "r*s" in err
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    # r*u != s*v breaks the symmetrizer rule, and a negative r breaks the input rules
    for argv, why in ((["--r", "2", "--s", "2", "--u", "1", "--v", "2"], "r*u"),
                      (["--r", "-1", "--s", "2", "--u", "1", "--v", "1"], "r, s >= 0")):
        code, out, err = run(capsys, "total-order", *argv)
        assert code == 3 and out == "" and why in err
        assert err.startswith("error: ") and err.count("\n") == 1


def test_fixture_dump_and_roundtrip(capsys, tmp_path):
    code, out, _ = run(capsys, "fixture", "g2")
    assert code == 0
    data = json.loads(out)
    assert data == {"n": 2, "cartan": [[2, -1], [-3, 2]], "symmetrizer": [3, 1],
                    "arrows": [[1, 2]]}
    path = tmp_path / "g2.json"
    path.write_text(out)
    code, out2, _ = run(capsys, "verify", "--input", str(path))
    assert code == 0 and out2.startswith("facets=8")

    code, out, _ = run(capsys, "fixture")
    assert code == 0 and "kronecker" in out.split()


def test_unknown_fixture_dump_exits_3(capsys):
    code, out, err = run(capsys, "fixture", "nope")
    assert (code, out, err) == (3, "", UNKNOWN_FIXTURE)


def test_deterministic_output(capsys):
    _, first, _ = run(capsys, "facets", "--fixture", "d4")
    _, second, _ = run(capsys, "facets", "--fixture", "d4")
    assert first == second


@pytest.mark.parametrize("command, name, option", [
    ("verify", "g2", "json"), ("verify", "kronecker", "json"), ("graph", "b2", "json")])
def test_a_reused_parser_prints_what_a_fresh_one_prints(capsys, command, name, option):
    # one process parses twice with the parser built once; an option given
    # to the first call must not carry over into the second
    argvs = [[command, "--fixture", name, "--format", option], [command, "--fixture", name]]
    fresh = []
    for argv in argvs:
        cli.build_parser.cache_clear()
        fresh.append(run(capsys, *argv))
    assert fresh[0] != fresh[1]
    assert [run(capsys, *argv) for argv in argvs] == fresh
    assert cli.build_parser() is cli.build_parser()


def test_negative_t_max_is_misuse(capsys):
    order = ["total-order", "--r", "2", "--s", "2", "--u", "1", "--v", "1"]
    for argv in (["verify", "--fixture", "kronecker", "--t-max", "-1"],
                 ["roots", "--fixture", "g2", "--t-max", "-3"],
                 order + ["--t-max", "-1"],
                 order + ["--random-weights", "-3"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"{argv[-2]}: must be non-negative, got {argv[-1]}" in err
        assert "Traceback" not in err


def test_non_integer_t_max_is_misuse(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--fixture", "a2", "--t-max", "abc"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--t-max: invalid int value: 'abc'" in err and "Traceback" not in err


def _action_rows(parser):
    """Each action of a parser as (option strings or dest, default, type
    name, choices, required, help); a subparsers action lists its command
    names with each one's help."""
    rows = []
    for action in parser._actions:
        choices = action.choices
        if isinstance(action, argparse._SubParsersAction):
            choices = [(a.dest, a.help) for a in action._choices_actions]
        rows.append((action.option_strings or action.dest, action.default,
                     getattr(action.type, "__name__", action.type), choices,
                     action.required, action.help))
    return rows


_HELP = (["-h", "--help"], argparse.SUPPRESS, None, None, False, "show this help message and exit")
_INPUT = [(["--input"], None, None, None, False, "path to an algebra JSON file"),
          (["--fixture"], None, None, None, False, "name of a bundled fixture")]
_T_MAX = (["--t-max"], 10, "_non_negative", None, False, None)
PARSER = {
    "": [_HELP, ("command", None, None, [
        ("roots", "emit the catalog as JSON lines"),
        ("table", "hom/ext lengths as CSV"),
        ("facets", "support-tilting facets as JSON lines"),
        ("verify", "run the full verification battery"),
        ("graph", "exchange graph export"),
        ("descent", "print the descent path of every facet"),
        ("total-order", "check the rank-2 interleaving chain"),
        ("g2-demo", "walk the worked G2 example end to end"),
        ("fixture", "print a bundled fixture as JSON")], True, None)],
    "roots": [_HELP, *_INPUT, _T_MAX],
    "table": [_HELP, *_INPUT, _T_MAX],
    "facets": [_HELP, *_INPUT, _T_MAX],
    "verify": [_HELP, *_INPUT, _T_MAX,
               (["--format"], "text", None, ("text", "json"), False, None)],
    "graph": [_HELP, *_INPUT, _T_MAX,
              (["--format"], "dot", None, ("dot", "json"), False, None)],
    "descent": [_HELP, *_INPUT],
    "total-order": [_HELP,
                    *[([f"--{p}"], None, "int", None, True, None) for p in "rsuv"],
                    (["--t-max"], 30, "_non_negative", None, False, None),
                    (["--random-weights"], 0, "_non_negative", None, False, None),
                    (["--seed"], 0, "int", None, False, None)],
    "g2-demo": [_HELP],
    "fixture": [_HELP, ("name", None, None, None, False, "fixture name; omit to list")],
}
INPUT_COMMANDS = ["roots", "table", "facets", "verify", "graph", "descent"]


def test_parser_options_are_pinned(capsys):
    # read off the parser objects rather than `--help`, whose wrapping moves
    # with COLUMNS and the Python version
    top = cli.build_parser()
    (sub,) = [a for a in top._actions if isinstance(a, argparse._SubParsersAction)]
    found = {"": _action_rows(top), **{name: _action_rows(p) for name, p in sub.choices.items()}}
    assert found == PARSER
    groups = {name: [(g.required, [a.option_strings for a in g._group_actions])
                     for g in p._mutually_exclusive_groups] for name, p in sub.choices.items()}
    assert groups == {name: [(True, [["--input"], ["--fixture"]])] if name in INPUT_COMMANDS
                      else [] for name in PARSER if name}
    with pytest.raises(SystemExit) as exc:
        main(["descent", "--fixture", "a2", "--t-max", "3"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --t-max 3" in capsys.readouterr().err
