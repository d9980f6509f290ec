"""The package makes all of its imports at module level.

``bench/run.py`` imports ``speechscale`` afresh for each timed set-up, while
its calls keep using the first copy. An import made inside a function would
reach the newest copy and mix the two: an ``except CorpusError`` of the first
copy would not catch a ``CorpusError`` raised by the second.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "speechscale"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_no_import_inside_a_function(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    inside = [
        f"{path.name}:{node.lineno}"
        for function in ast.walk(tree)
        if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(function)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert not inside, f"imports inside functions: {inside}"
