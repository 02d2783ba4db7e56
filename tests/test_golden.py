"""Frozen CLI output of every bundled fixture: `verify --format json`,
`descent` and `graph` (DOT and JSON), with their exit codes and standard
error.

A change that means to alter this output regenerates the file with
`PYTHONPATH=src python tests/test_golden.py`.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from clustercomplex.cli import main
from clustercomplex.fixtures import fixture_names

GOLDEN = Path(__file__).with_name("golden_cli.json")
COMMANDS = {
    "verify": ["verify", "--format", "json"],
    "descent": ["descent"],
    "graph": ["graph"],
    "graph-json": ["graph", "--format", "json"],
}
CASES = [f"{command} {name}" for name in fixture_names() for command in COMMANDS]


def _run(case):
    command, name = case.split()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(COMMANDS[command] + ["--fixture", name])
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", CASES)
def test_cli_output_is_frozen(golden, case):
    assert _run(case) == golden[case]


if __name__ == "__main__":
    frozen = {case: _run(case) for case in CASES}
    GOLDEN.write_text(json.dumps(frozen, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
