"""Only `geometry` reads a Fraction's `.numerator` or `.denominator`, so the
integer form of an offset or a coordinate has one owner."""

import ast
import pathlib

import polypierce

SOURCES = sorted(pathlib.Path(polypierce.__file__).parent.glob("*.py"))


def test_only_geometry_reads_numerators_and_denominators():
    assert any(path.name == "geometry.py" for path in SOURCES)
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES if path.name != "geometry.py"
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Attribute) and node.attr in ("numerator", "denominator")]
    assert found == []
