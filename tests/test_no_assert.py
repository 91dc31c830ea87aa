"""Every check in the library is a raised error, never an `assert`, so each
one still runs under `python -O`."""

import ast
import pathlib

import polypierce

SOURCES = sorted(pathlib.Path(polypierce.__file__).parent.glob("*.py"))


def test_library_has_no_assert_statement():
    assert len(SOURCES) > 1
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []
