"""The package imports nothing but itself and a fixed set of stdlib modules,
so `import polypierce` (the whole set-up of the CLI chain) costs no more
than these: every `import` in the package is relative or names one of
`ALLOWED`.  Adding a module to the set is a decision about start-up time,
to be made here."""

import ast
import pathlib

import polypierce

SOURCES = sorted(pathlib.Path(polypierce.__file__).parent.glob("*.py"))
ALLOWED = {"__future__", "argparse", "csv", "dataclasses", "fractions", "functools",
           "itertools", "json", "math", "random", "sys", "time", "typing"}


def _imports():
    """(file name, line, top-level module) of every absolute import."""
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            yield from ((path.name, node.lineno, name.split(".")[0]) for name in names)


def test_only_relative_and_allowed_stdlib_imports():
    assert len(SOURCES) > 1
    found = [f"{name}:{line} import {module}" for name, line, module in _imports()
             if module not in ALLOWED]
    assert found == []


def test_each_allowed_module_is_imported():
    # The allow-list names modules the package still imports.
    assert {module for _, _, module in _imports()} == ALLOWED
