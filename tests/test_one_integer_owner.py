"""Each value builds its integer form once: a `Halfplane` its row and a
`Point` its homogeneous coordinates, in their constructors.  So only those
two constructors read a Fraction's `.numerator` or `.denominator`, and
`geometry._check_certificate`, which checks every "empty" answer on the
offsets' Fractions and so shares nothing with the search it checks."""

import ast
import pathlib

import polypierce

PACKAGE = pathlib.Path(polypierce.__file__).parent
SOURCES = sorted(PACKAGE.glob("*.py"))
READERS = {"geometry.py": {"Point.__init__", "Halfplane.__init__", "_check_certificate"}}


def _reads(node, scope=""):
    """(enclosing function's qualified name, line) of every `.numerator` or
    `.denominator` read under `node`."""
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = f"{scope}.{child.name}" if scope else child.name
        elif isinstance(child, ast.Attribute) and child.attr in ("numerator", "denominator"):
            yield scope, child.lineno
        yield from _reads(child, inner)


def test_only_geometry_reads_numerators_and_denominators():
    assert any(path.name == "geometry.py" for path in SOURCES)
    found = [f"{path.name}:{line} ({scope or 'module'})"
             for path in SOURCES
             for scope, line in _reads(ast.parse(path.read_text(), filename=str(path)))
             if scope not in READERS.get(path.name, set())]
    assert found == []


def test_each_allowed_reader_reads_them():
    # The allow-list names functions that still exist and still read them.
    tree = ast.parse((PACKAGE / "geometry.py").read_text())
    assert {scope for scope, _ in _reads(tree)} == READERS["geometry.py"]
