"""The README's library quick start runs as written, and each expression in
it gives the value that its comment starts with, so the docs cannot name a
function the package no longer has."""

import ast
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _quick_start():
    section = README.read_text(encoding="utf-8").split("## Library quick start", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_quick_start_gives_its_commented_results():
    source = _quick_start()
    lines = source.splitlines()
    namespace, results = {}, []
    for statement in ast.parse(source).body:
        if isinstance(statement, ast.Expr):
            value = eval(compile(ast.Expression(statement.value), "README.md", "eval"), namespace)
            comment = lines[statement.lineno - 1][statement.end_col_offset:].strip()
            assert comment.startswith("# " + repr(value)), (statement.lineno, value, comment)
            results.append((ast.unparse(statement.value), value))
        else:
            exec(compile(ast.Module(body=[statement], type_ignores=[]), "README.md", "exec"),
                 namespace)
    assert len(namespace["cat"]) == 6
    assert len(namespace["cx"].facets) == 8
    assert len(namespace["wx"].facets) == 21
    oks = [value for text, value in results if text.endswith(".ok")]
    assert oks == [True] * 5
    assert [repr(value) for text, value in results if not text.endswith(".ok")] == [
        "[4, 5]", "frozenset({4})", "Fraction(25, 1)"]
