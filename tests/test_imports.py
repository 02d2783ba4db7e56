"""Import hygiene of the package: standard library only, no private names
taken from sibling modules, no imported name left unused outside
`__init__`, no function-level import besides the catalog's three lazy ones,
no `vars(` in `src/`, no floating point, no public top-level name
that nothing uses, no error class that nothing raises, the `cli`, `measure`
and `tilting` names that the benchmark's tracer patches still there, and
no public function that neither the CLI nor the benchmark's completion
queries reach but the one that tests use as a helper."""

import ast
import contextlib
import importlib
import inspect
import io
import json
import runpy
import sys
from pathlib import Path

import pytest

from clustercomplex import algebra_to_dict, bongartz, catalog_for, complements, dual_bongartz, fixture
from clustercomplex import fixture_names, hom_ext
from clustercomplex.cli import main
from test_golden import CASES, _run

PACKAGE = "clustercomplex"
ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / PACKAGE).glob("*.py"))
FLOAT_MODULES = {"math", "cmath", "decimal", "statistics"}


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


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_imported_names_are_used(path):
    # `__init__` imports to re-export; every other module imports to use
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used) == [], f"{path.name} imports names it never uses"


def test_function_level_imports_are_the_catalog_edges():
    # `roots` sits below the layers it imports lazily: RootCatalog builds its
    # kernel, complex and descent moves on first use.  Any other import
    # inside a function is a new upward edge, which can close an import cycle.
    found = set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        for function in ast.walk(tree):
            if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(function):
                    if isinstance(node, ast.ImportFrom):
                        found.update((path.name, node.module, a.name) for a in node.names)
                    elif isinstance(node, ast.Import):
                        found.update((path.name, a.name, None) for a in node.names)
    assert sorted(found) == [
        ("roots.py", "homext", "build_kernel"),
        ("roots.py", "measure", "member_moves"),
        ("roots.py", "polytope", "walk_complex"),
    ]


def test_only_the_catalog_reads_its_cache():
    # `vars(catalog)` tells whether a cached property was built; no module
    # asks, so no code path depends on what the catalog happens to hold
    found = {path.name for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id == "vars"}
    assert found == set()


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_stdlib_only(path):
    for module, _ in imports(path):
        if module is None:
            continue
        top = module.split(".")[0]
        assert top == PACKAGE or top in sys.stdlib_module_names, \
            f"{path.name} imports {module}, which is outside the standard library"


def test_exact_arithmetic_only():
    # no floats in `src/`: no float or complex literal, no floating-point
    # module, and the name `float` only where JSON input is checked for
    # integral values
    found = set()
    for path in SOURCES:
        for module, _ in imports(path):
            assert (module or "").split(".")[0] not in FLOAT_MODULES, f"{path.name} imports {module}"
        tree = ast.parse(path.read_text(), filename=str(path))
        literals = [node.value for node in ast.walk(tree) if isinstance(node, ast.Constant)
                    and isinstance(node.value, (float, complex))]
        assert literals == [], f"{path.name} has inexact literals {literals}"
        function_of = {}
        for function in ast.walk(tree):
            if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                function_of.update((node, function.name) for node in ast.walk(function))
        found.update((path.name, function_of.get(node)) for node in ast.walk(tree)
                     if isinstance(node, ast.Name) and node.id == "float")
    assert found == {("algebra.py", "_integer")}


def test_public_names_are_used_or_exported():
    # a public top-level function or class must be referenced outside its
    # own definition, in any module, or be re-exported by `__init__`
    referenced = set()
    defined = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        for statement in tree.body:
            own = None
            if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                own = statement.name
                if path.name not in ("__init__.py", "__main__.py") and not own.startswith("_"):
                    defined.append((path.name, own))
            for node in ast.walk(statement):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                elif isinstance(node, ast.alias):
                    name = node.asname or node.name
                else:
                    continue
                if name != own:
                    referenced.add(name)
    assert [(module, name) for module, name in defined if name not in referenced] == []


def test_error_classes_are_raised_or_caught():
    # every class of `errors` is raised or caught somewhere in `src/`, or is
    # a base of one that is; an error nothing raises is dead code
    used = set()
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                target = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            elif isinstance(node, ast.ExceptHandler) and node.type is not None:
                target = node.type
            else:
                continue
            used.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
    tree = ast.parse((ROOT / "src" / PACKAGE / "errors.py").read_text())
    bases = {c.name: {b.id for b in c.bases if isinstance(b, ast.Name)}
             for c in tree.body if isinstance(c, ast.ClassDef)}
    live, todo = set(), [name for name in bases if name in used]
    while todo:
        name = todo.pop()
        if name in bases and name not in live:
            live.add(name)
            todo.extend(bases[name])
    assert sorted(bases.keys() - live) == []


def test_tracer_boundaries_name_cli_attributes():
    # the tracer skips a boundary whose name is gone, and its layer then
    # reads zero; run_path compiles the file without writing bytecode
    boundaries = runpy.run_path(str(ROOT / "perfbench" / "tracer.py"))["BOUNDARIES"]
    gone = []
    for module in ("cli", "measure", "tilting"):
        namespace = importlib.import_module(f"{PACKAGE}.{module}")
        names = [name for path, name, _, _ in boundaries if path == f"{PACKAGE}.{module}"]
        assert names, module
        gone += [(module, name) for name in names if not hasattr(namespace, name)]
    assert gone == []


def test_public_functions_are_reached(tmp_path):
    # every public module-level function of `src/` is reached by the CLI or
    # by the library calls that `completion-queries` makes
    path = tmp_path / "b2.json"
    path.write_text(json.dumps(algebra_to_dict(fixture("b2"))), encoding="utf-8")
    called = set()

    def profile(frame, event, _):
        if event == "call":
            called.add(frame.f_code)

    sys.setprofile(profile)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            for case in CASES:
                _run(case)
            for name in fixture_names():
                main(["roots", "--fixture", name])
                main(["table", "--fixture", name])
            main(["verify", "--input", str(path)])
            main(["total-order", "--r", "2", "--s", "2", "--u", "1", "--v", "1"])
            main(["fixture", "a3"])
        catalog = catalog_for(fixture("a3"))
        x, y = catalog.entries[:2]
        facet = sorted({x.id} | bongartz(catalog, (x.id,)))
        dual_bongartz(catalog, (x.id,))
        complements(catalog, facet[1:])
        hom_ext(catalog, x, y)
    finally:
        sys.setprofile(None)
    unreached = []
    for path in SOURCES:
        if path.stem == "__main__":  # importing it runs the CLI
            continue
        module = importlib.import_module(f"{PACKAGE}.{path.stem}")
        unreached += [name for name, value in vars(module).items()
                      if inspect.isfunction(value) and value.__module__ == module.__name__
                      and not name.startswith("_") and value.__code__ not in called]
    assert unreached == []
