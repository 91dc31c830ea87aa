"""No geometric decision in the library uses a float: `float(...)` is
called only in `render.py`, for the SVG's pixel coordinates, and `math` is
used only for its integer functions `gcd` and `lcm`."""

import ast
import pathlib

import polypierce

SOURCES = sorted(pathlib.Path(polypierce.__file__).parent.glob("*.py"))
INTEGER_MATH = {"gcd", "lcm"}


def _nodes(path):
    return ast.walk(ast.parse(path.read_text(), filename=str(path)))


def test_only_render_calls_float():
    assert len(SOURCES) > 1
    callers = {path.name
               for path in SOURCES
               for node in _nodes(path)
               if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
               and node.func.id == "float"}
    assert callers == {"render.py"}


def test_math_is_used_only_for_integer_functions():
    found = []
    for path in SOURCES:
        for node in _nodes(path):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id == "math" and node.attr not in INTEGER_MATH):
                found.append(f"{path.name}:{node.lineno} math.{node.attr}")
            elif isinstance(node, ast.ImportFrom) and node.module == "math":
                found += [f"{path.name}:{node.lineno} from math import {a.name}"
                          for a in node.names if a.name not in INTEGER_MATH]
    assert found == []
