"""Frozen CLI output of every bundled fixture: `verify --format json`,
`descent`, `graph` (DOT and JSON) and `facets`, and of `g2-demo`, with their
exit codes and standard error.

A change that means to alter this output regenerates the file with
`PYTHONPATH=src python tests/test_golden.py`.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from clustercomplex import cli
from clustercomplex.cli import main
from clustercomplex.fixtures import fixture_names

GOLDEN = Path(__file__).with_name("golden_cli.json")
COMMANDS = {
    "verify": ["verify", "--format", "json"],
    "descent": ["descent"],
    "graph": ["graph"],
    "graph-json": ["graph", "--format", "json"],
    "facets": ["facets"],
}
CASES = [f"{command} {name}" for name in fixture_names() for command in COMMANDS] + ["g2-demo"]


def _run(case):
    command, *name = case.split()
    argv = COMMANDS[command] + ["--fixture", *name] if name else [command]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", CASES)
def test_cli_output_is_frozen(golden, case):
    assert _run(case) == golden[case]


@pytest.mark.parametrize("case", [case for case in CASES if case.startswith("graph")])
def test_graph_builds_no_complex(golden, case, monkeypatch):
    # `graph` reads the catalog's facets alone: it builds no complex, and
    # the catalog keeps no face dict
    def no_complex(catalog):
        raise AssertionError("graph built a complex")

    catalogs, catalog_for = [], cli.catalog_for

    def kept(algebra, t_max):
        catalogs.append(catalog_for(algebra, t_max=t_max))
        return catalogs[-1]

    monkeypatch.setattr(cli, "build_complex", no_complex)
    monkeypatch.setattr(cli, "catalog_for", kept)
    assert _run(case) == golden[case]
    assert len(catalogs) == (golden[case]["exit"] == 0)
    assert all("faces" not in vars(catalog) for catalog in catalogs)


if __name__ == "__main__":
    frozen = {case: _run(case) for case in CASES}
    GOLDEN.write_text(json.dumps(frozen, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
