"""The three workloads: generated inputs, the operations to time, their checks.

Each function in `WORKLOADS` fills a `Workload`: it imports the package,
generates every input from the seed and lists the operations one pass
makes.  Each operation's `check` judges an answer against `oracle`, never
against the layer that produced it; checks run after the timed passes.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import inputs
import oracle
from tracer import CLI_SPAN

FINITE_LADDER = ("A6", "D6", "E6", "B6")
# Orientations drawn for each type.  The cost of a verdict depends on the
# orientation; with one orientation per type the seed alone spread the
# pass time by 7% (interquartile range over the median, 15 seeds).
FINITE_ORIENTATIONS = 2
RANK2_LADDER = ("kronecker", "valued15")
T_MAX = 200
E7_ORIENTATIONS = 10
QUERIES_PER_CATALOG = 200


@dataclass
class Operation:
    """One call into the package: `run()` returns the answer to check."""

    label: str
    span: str  # root span of the call in a traced pass
    run: Callable[[], object]
    check: Callable[[object], str | None]


@dataclass
class Workload:
    seed: int
    workdir: Path
    perturb: bool = False  # expect a wrong answer, to show the checks can fail
    # Collect the heap before each timed call, as a fresh CLI process starts.
    collect_each: bool = True
    ops: list[Operation] = field(default_factory=list)
    warm: list[Callable[[], object]] = field(default_factory=list)  # untimed warm-up calls
    # Checks on the package's catalogs, made once after the timed passes.
    catalog_checks: list[Callable[[], str | None]] = field(default_factory=list)


def _cli_verdict(cli, argv: list[str]) -> Callable[[], tuple[int, str]]:
    """In-process `clustercomplex <argv>`; the answer is (exit code, stdout)."""

    def run() -> tuple[int, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue() + err.getvalue()

    return run


def _verdict_error(answer, facets: int) -> str | None:
    code, text = answer
    try:
        report = json.loads(text.strip().splitlines()[-1])
    except (ValueError, IndexError):
        return f"exit {code}, unreadable output {text[-200:]!r}"
    if report.get("facets") != facets:
        return f"facets = {report.get('facets')}, expected {facets}"
    failed = sorted(k for k, v in report.items() if k != "facets" and v is not True)
    if failed:
        return f"checks failed: {failed}"
    if code != 0:
        return f"exit code {code}"
    return None


def _catalog_check(algebra_mod, roots_mod, data: dict, want_dimvs, t_max: int = 10) -> Callable:
    """The package's catalog for `data` has exactly the expected dimension vectors."""

    def check() -> str | None:
        catalog = roots_mod.catalog_for(algebra_mod.algebra_from_dict(data), t_max=t_max)
        dimvs = [e.dimv for e in catalog.entries]
        if isinstance(want_dimvs, int):
            ok = len(dimvs) == want_dimvs
        else:
            ok = sorted(dimvs) == sorted(want_dimvs)
        return None if ok else f"catalog of {len(dimvs)} members is not the expected one"

    return check


def finite_verify(w: Workload) -> None:
    """`verify` on A6, D6, E6 and B6: face poset, its checks and the descent."""
    from clustercomplex import algebra, cli, roots

    rng = random.Random(w.seed)
    for name in FINITE_LADDER:
        kind = inputs.FINITE_TYPES[name]
        facets = oracle.catalan(kind) + (1 if w.perturb else 0)
        for k in range(FINITE_ORIENTATIONS):
            data = inputs.finite_algebra(name, rng)
            path = inputs.write_algebra(w.workdir / f"{name}-{k}.json", data)
            w.ops.append(Operation(
                label=f"{name}/{k}", span=CLI_SPAN,
                run=_cli_verdict(cli, ["verify", "--input", path, "--format", "json"]),
                check=lambda answer, facets=facets: _verdict_error(answer, facets)))
            want = oracle.positive_roots(data["cartan"])
            if len(want) != oracle.root_count(kind):
                raise RuntimeError(f"{name}: {len(want)} roots, expected {oracle.root_count(kind)}")
            w.catalog_checks.append(_catalog_check(algebra, roots, data, want))
    w.warm = [w.ops[0].run]


def rank2_window(w: Workload) -> None:
    """`verify --t-max 200` on kronecker and valued15: 804-member catalogs."""
    from clustercomplex import algebra, cli, roots

    rng = random.Random(w.seed)
    facets = oracle.window_facets(T_MAX) + (1 if w.perturb else 0)
    for name in RANK2_LADDER:
        data = inputs.rank2_algebra(name, rng)
        path = inputs.write_algebra(w.workdir / f"{name}.json", data)
        w.ops.append(Operation(
            label=name, span=CLI_SPAN,
            run=_cli_verdict(cli, ["verify", "--input", path, "--t-max", str(T_MAX),
                                   "--format", "json"]),
            check=lambda answer: _verdict_error(answer, facets)))
        w.warm.append(
            _cli_verdict(cli, ["verify", "--input", path, "--t-max", "10", "--format", "json"]))
        w.catalog_checks.append(
            _catalog_check(algebra, roots, data, oracle.window_members(T_MAX), T_MAX))


def completion_queries(w: Workload) -> None:
    """Library queries on E7 catalogs: mostly canonical completions.

    The cost of a completion depends strongly on the orientation and on
    which size-1 sets are drawn, so the queries are spread evenly over
    several seed-drawn orientations of E7, 200 on each; with one orientation
    and 1,000 queries the seed alone moved the pass time by about 20%.
    """
    from clustercomplex import algebra, homext, roots, tilting

    w.collect_each = False
    rng = random.Random(w.seed)
    for k in range(E7_ORIENTATIONS):
        data = inputs.finite_algebra("E7", rng)
        inputs.write_algebra(w.workdir / f"E7-{k}.json", data)
        catalog = roots.catalog_for(algebra.algebra_from_dict(data))
        first = catalog.entries[0]
        homext.hom_ext(catalog, first, first)  # fills the lazy pairing table
        orc = oracle.FiniteOracle(data["cartan"], data["symmetrizer"], inputs.arrows_of(data))
        if sorted(e.dimv for e in catalog.entries) != orc.roots:
            raise RuntimeError("E7 catalog differs from the positive roots")
        if len(orc.roots) != oracle.root_count(inputs.FINITE_TYPES["E7"]):
            raise RuntimeError("E7 root count differs from nh/2")
        if w.perturb:
            orc.size += 1
        w.ops += _queries(rng, orc, catalog, tilting, homext)
    rng.shuffle(w.ops)
    w.warm = [op.run for op in w.ops[:50]]


def _queries(rng: random.Random, orc: oracle.FiniteOracle, catalog, tilting, homext):
    """The queries on one catalog, in a fixed mix shuffled by the seed.

    80% `bongartz`/`dual_bongartz` on rigid sets of every size 1..n equally
    often, 10% `complements` on almost-complete sets and 10% `hom_ext` on
    random pairs.  Fixing the mix keeps the heavy size-1 completions at the
    same share on every seed.
    """
    ids = {e.dimv: e.id for e in catalog.entries}
    dimv = [e.dimv for e in catalog.entries]
    tenth = QUERIES_PER_CATALOG // 10
    kinds = (["bongartz", "dual_bongartz"] * (4 * tenth)
             + ["complements"] * tenth + ["hom_ext"] * tenth)
    sizes = [1 + k % orc.n for k in range(8 * tenth)]
    rng.shuffle(kinds)
    rng.shuffle(sizes)
    ops = []
    for kind in kinds:
        if kind in ("bongartz", "dual_bongartz"):
            t = orc.draw_rigid(rng, sizes.pop())
            fn = getattr(tilting, kind)
            dual = kind == "dual_bongartz"
            ops.append(Operation(
                label=f"{kind}/{len(t)}", span="tilting.completion",
                run=lambda fn=fn, t=tuple(ids[x] for x in t): fn(catalog, t),
                check=lambda b, t=t, dual=dual: orc.completion_error(
                    t, [dimv[i] for i in b], dual)))
        elif kind == "complements":
            t = orc.draw_rigid(rng, orc.n - 1)
            ops.append(Operation(
                label="complements", span="tilting.complements",
                run=lambda t=tuple(ids[x] for x in t): tilting.complements(catalog, t),
                check=lambda found, t=t: orc.complements_error(t, [dimv[i] for i in found])))
        else:
            x, y = rng.choice(catalog.entries), rng.choice(catalog.entries)
            want = orc.hom_ext(x.dimv, y.dimv)
            ops.append(Operation(
                label="hom_ext", span="homext.hom_ext",
                run=lambda x=x, y=y: homext.hom_ext(catalog, x, y),
                check=lambda got, want=want: None if tuple(got) == want
                else f"hom_ext = {got}, expected {want}"))
    return ops


WORKLOADS = {
    "finite-verify": finite_verify,
    "rank2-window": rank2_window,
    "completion-queries": completion_queries,
}
