"""Import hygiene of the package: standard library only, no private names
taken from sibling modules."""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = "clustercomplex"
SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / PACKAGE).glob("*.py"))


def imports(path):
    """(module, names) for every import statement; module is None for a sibling."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, ()
        elif isinstance(node, ast.ImportFrom):
            module = None if node.level else node.module
            yield module, tuple(alias.name for alias in node.names)


def test_sources_found():
    assert len(SOURCES) > 5


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_private_names_from_siblings(path):
    for module, names in imports(path):
        if module is None or module.split(".")[0] == PACKAGE:
            private = [n for n in names if n.startswith("_")]
            assert not private, f"{path.name} imports {private} from {module or 'a sibling'}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_stdlib_only(path):
    for module, _ in imports(path):
        if module is None:
            continue
        top = module.split(".")[0]
        assert top == PACKAGE or top in sys.stdlib_module_names, \
            f"{path.name} imports {module}, which is outside the standard library"
