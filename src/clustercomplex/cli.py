"""Command-line front end.

Exit codes: 0 all good, 1 a verification failed, 2 command-line misuse,
3 input could not be parsed or breaks a rule, 4 the algebra is out of the
supported range (including one whose root search passes the search limit).
A failed `verify` check that can name a witness prints the first one on
stderr as `witness: <check> <face label>`.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import random
import sys

from .algebra import AlgebraData, algebra_to_dict, load_algebra
from .errors import (
    ClusterComplexError,
    NotRepresentationInfinite,
    NotSymmetrizable,
    ParseError,
    SearchLimitExceeded,
    UnsupportedAlgebra,
)
from .fixtures import fixture, fixture_names
from .homext import hom_ext, ids_of
from .measure import (
    mu,
    verify_descent,
    verify_endos_all,
    verify_rank2_inequality,
    verify_total_order,
)
from .polytope import (
    build_complex,
    exchange_graph,
    face_label,
    rank2_window_complex,
    verify_ap_axioms,
    verify_flag_connected,
)
from .roots import FINITE, catalog_for, rank2_roles, rank2_sequences
from .tilting import decode_face, enumerate_support_tilting, zero_facet

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_PARSE = 3
EXIT_UNSUPPORTED = 4

CHECK = "✓"
CROSS = "✗"


def _mark(ok: bool) -> str:
    return CHECK if ok else CROSS


def _fixture(name: str) -> AlgebraData:
    """The bundled fixture; an unknown name raises ParseError with the
    lookup's message as written (`str` of a KeyError would quote it)."""
    try:
        return fixture(name)
    except KeyError as exc:
        raise ParseError(exc.args[0]) from exc


def _load(args: argparse.Namespace) -> AlgebraData:
    if args.fixture:
        return _fixture(args.fixture)
    try:
        return load_algebra(args.input)
    except ParseError:
        raise
    except ClusterComplexError as exc:
        raise ParseError(f"invalid algebra data: {exc}") from exc


def _non_negative(text: str) -> int:
    """argparse type for --t-max and --random-weights: a non-negative
    integer, else exit 2."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


def _catalog(args: argparse.Namespace):
    """The catalog of a windowed command: its algebra cut at --t-max."""
    return catalog_for(_load(args), t_max=args.t_max)


def _cmd_roots(args) -> int:
    catalog = _catalog(args)
    for entry in catalog.entries:
        print(json.dumps({
            "dimv": list(entry.dimv),
            "q": entry.q,
            "component": entry.component,
            "t": entry.t,
            "i": None if entry.vertex is None else entry.vertex + 1,
        }))
    return EXIT_OK


def _cmd_table(args) -> int:
    catalog = _catalog(args)
    writer = csv.writer(sys.stdout)
    writer.writerow(["", *catalog.labels])
    for x in catalog.entries:
        cells = []
        for y in catalog.entries:
            h, e = hom_ext(catalog, x, y)
            cells.append(f"{h}/{e}")
        writer.writerow([catalog.labels[x.id]] + cells)
    return EXIT_OK


def _by_members(n: int, facets) -> list[int]:
    """Facets by number of members, then member ids: the order of `facets` and `descent`."""
    return sorted(facets, key=lambda face: ((face >> n).bit_count(), ids_of(face >> n)))


def _cmd_facets(args) -> int:
    catalog = _catalog(args)
    for face in _by_members(catalog.algebra.n, catalog.facets):
        ids, sigma = decode_face(catalog.algebra.n, face)
        print(json.dumps({
            "T": [list(catalog.entries[i].dimv) for i in ids],
            "sigma": [v + 1 for v in sigma],
        }))
    return EXIT_OK


def _verdict(catalog, facets: int, checks: dict[str, bool],
             witnesses: dict[str, list], fmt: str) -> int:
    """Print the facet count and every check on one line, then on stderr
    the first witness of each failed check that names one; the exit code."""
    if fmt == "json":
        print(json.dumps({"facets": facets, **{k: bool(v) for k, v in checks.items()}}))
    else:
        print(" ".join([f"facets={facets}"] + [f"{k} {_mark(ok)}" for k, ok in checks.items()]))
    for name, faces in witnesses.items():
        faces = [f for f in faces if f is not None]
        if faces and not checks[name]:
            print(f"witness: {name} {face_label(catalog, faces[0])}", file=sys.stderr)
    return EXIT_OK if all(checks.values()) else EXIT_VERIFY_FAILED


def _verify_finite(catalog, fmt: str) -> int:
    cx = build_complex(catalog)
    axioms = verify_ap_axioms(cx)
    flags = verify_flag_connected(cx)
    endos = verify_endos_all(catalog)
    descent = verify_descent(catalog)
    checks = {
        "ap1": axioms.ap1,
        "ap2": axioms.ap2,
        "ap4": axioms.ap4,
        "simplicial": axioms.simplicial,
        "strong-flag": flags.ok,
        "endos": endos.ok,
        "descent": descent.ok,
    }
    # the first witness of each check that can name one; AP4 names its
    # first bad ridge, else the first lost subface with a vertex
    witnesses = {
        "ap2": [axioms.short_face],
        "ap4": (axioms.bad_ridges or [f for f in axioms.lost_faces if f])[:1],
        "simplicial": axioms.lost_faces[:1],
        "strong-flag": [flags.ridge_witness, flags.coface_witness],
        "endos": endos.failures[:1],
        "descent": descent.stalled[:1],
    }
    return _verdict(catalog, len(cx.facets), checks, witnesses, fmt)


def _verify_rank2_infinite(catalog, t_max: int, fmt: str) -> int:
    cx = build_complex(catalog)
    window = rank2_window_complex(cx)
    inequality = verify_rank2_inequality(catalog)
    algebra = catalog.algebra
    src, snk = rank2_roles(algebra)
    r, s = -algebra.cartan[src][snk], -algebra.cartan[snk][src]
    u, v = algebra.symmetrizer[src], algebra.symmetrizer[snk]
    order = verify_total_order(r, s, u, v, t_max=t_max)
    checks = {
        "window-facets": window.facets_expected,
        "interior-ridges": window.interior_ridges_ok,
        "path": window.path_ok,
        "total-order": order.ok,
        "rank2-descent": inequality.ok,
    }
    # the first member that fails the descent inequality, as a one-member face
    witnesses = {
        "window-facets": [window.facet_witness],
        "interior-ridges": [window.vertex_witness],
        "rank2-descent": [1 << (algebra.n + catalog.by_dimv[dimv].id)
                          for dimv, _, _ in inequality.failures[:1]],
    }
    return _verdict(catalog, len(cx.facets), checks, witnesses, fmt)


def _cmd_verify(args) -> int:
    catalog = _catalog(args)
    if catalog.kind == FINITE:
        return _verify_finite(catalog, args.format)
    return _verify_rank2_infinite(catalog, args.t_max, args.format)


def _cmd_graph(args) -> int:
    catalog = _catalog(args)
    labels = [face_label(catalog, f) for f in catalog.facets]
    edges = [(i, j) for i, nbrs in exchange_graph(catalog.facets).items() for j in nbrs if i < j]
    if args.format == "json":
        print(json.dumps({"nodes": labels, "edges": edges}))
    else:
        print("graph exchange {")
        for i, label in enumerate(labels):
            print(f'  f{i} [label="{label}"];')
        for i, j in edges:
            print(f"  f{i} -- f{j};")
        print("}")
    return EXIT_OK


def _cmd_descent(args) -> int:
    catalog = catalog_for(_load(args))
    if catalog.kind != FINITE:
        raise UnsupportedAlgebra("descent requires a representation-finite algebra")
    zero = zero_facet(catalog)
    report = verify_descent(catalog)
    # paths share their tails, so each facet is labelled once for the run
    label = functools.cache(functools.partial(face_label, catalog))
    for start in _by_members(catalog.algebra.n, report.steps):
        path = report.path(start)
        ok = path[-1] == zero
        print(f"{'ok ' if ok else 'FAIL'} steps={len(path) - 1}  " + " -> ".join(map(label, path)))
    return EXIT_OK if report.ok else EXIT_VERIFY_FAILED


def _cmd_total_order(args) -> int:
    weights = [(args.u, args.v)]
    rng = random.Random(args.seed)
    for _ in range(args.random_weights):
        weights.append((rng.randint(1, 50), rng.randint(1, 50)))
    try:
        report = verify_total_order(args.r, args.s, args.u, args.v,
                                    t_max=args.t_max, weights=weights)
    except NotRepresentationInfinite as exc:
        raise UnsupportedAlgebra(str(exc)) from exc
    except (NotSymmetrizable, ValueError) as exc:
        raise ParseError(f"invalid parameters: {exc}") from exc
    if report.ok:
        print(f"ok checked={report.checked}")
        return EXIT_OK
    print(f"FAIL at {report.first_violation}")
    return EXIT_VERIFY_FAILED


def _cmd_g2_demo(args) -> int:
    algebra = fixture("g2")
    catalog = rank2_sequences(algebra, t_max=10)
    mus = [mu(catalog, entry) for entry in catalog.entries]
    print("dimv:   " + " ".join(catalog.labels))
    print("length: " + " ".join(str(x) for x in catalog.lengths))
    print("mu2:    " + " ".join(str(x) for x in mus))
    facets = enumerate_support_tilting(catalog)
    print(f"facets: {len(facets)}")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and kept for the process."""
    parser = argparse.ArgumentParser(
        prog="clustercomplex",
        description="Exact verification of tilting-exchange polytopes from Cartan data.")
    sub = parser.add_subparsers(dest="command", required=True)
    algebra_input = argparse.ArgumentParser(add_help=False)
    group = algebra_input.add_mutually_exclusive_group(required=True)
    group.add_argument("--input", help="path to an algebra JSON file")
    group.add_argument("--fixture", help="name of a bundled fixture")
    window = argparse.ArgumentParser(add_help=False)
    window.add_argument("--t-max", type=_non_negative, default=10)
    windowed = [algebra_input, window]

    sub.add_parser("roots", parents=windowed,
                   help="emit the catalog as JSON lines").set_defaults(func=_cmd_roots)
    sub.add_parser("table", parents=windowed,
                   help="hom/ext lengths as CSV").set_defaults(func=_cmd_table)
    sub.add_parser("facets", parents=windowed,
                   help="support-tilting facets as JSON lines").set_defaults(func=_cmd_facets)

    p_verify = sub.add_parser("verify", parents=windowed, help="run the full verification battery")
    p_verify.add_argument("--format", choices=("text", "json"), default="text")
    p_verify.set_defaults(func=_cmd_verify)

    p_graph = sub.add_parser("graph", parents=windowed, help="exchange graph export")
    p_graph.add_argument("--format", choices=("dot", "json"), default="dot")
    p_graph.set_defaults(func=_cmd_graph)

    sub.add_parser("descent", parents=[algebra_input],
                   help="print the descent path of every facet").set_defaults(func=_cmd_descent)

    p_order = sub.add_parser("total-order", help="check the rank-2 interleaving chain")
    for name in ("--r", "--s", "--u", "--v"):
        p_order.add_argument(name, type=int, required=True)
    p_order.add_argument("--t-max", type=_non_negative, default=30)
    p_order.add_argument("--random-weights", type=_non_negative, default=0)
    p_order.add_argument("--seed", type=int, default=0)
    p_order.set_defaults(func=_cmd_total_order)

    sub.add_parser("g2-demo",
                   help="walk the worked G2 example end to end").set_defaults(func=_cmd_g2_demo)

    p_fixture = sub.add_parser("fixture", help="print a bundled fixture as JSON")
    p_fixture.add_argument("name", nargs="?", help="fixture name; omit to list")
    p_fixture.set_defaults(func=_cmd_fixture)

    return parser


def _cmd_fixture(args) -> int:
    if not args.name:
        for name in fixture_names():
            print(name)
        return EXIT_OK
    print(json.dumps(algebra_to_dict(_fixture(args.name))))
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ClusterComplexError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, ParseError):
            return EXIT_PARSE
        if isinstance(exc, (UnsupportedAlgebra, SearchLimitExceeded)):
            return EXIT_UNSUPPORTED
        return EXIT_VERIFY_FAILED


if __name__ == "__main__":
    sys.exit(main())
