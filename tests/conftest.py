import importlib
import os
import sys
from fractions import Fraction as F

import pytest
from hypothesis import strategies as st

from polypierce import (Direction, Family, GenConfig, Point, RelatedPolygon, Template,
                        feasible, random_template)

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")

# One line per acceptance criterion, echoed after the run summary so the
# pass/fail report is visible without -s.
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def translate_of(template: Template, v: Point) -> RelatedPolygon:
    """The member that is the template shifted by v (all directions kept)."""
    return RelatedPolygon(
        {
            j: template.reference_offsets[j] + template.normals[j].dot(v)
            for j in range(template.n)
        }
    )


def planted_family(seed: int, class_mode: str, n: int, members: int) -> Family:
    """The benchmark's planted family (perfbench/planted.py), whose piercing
    recursion does real work: most have empty triangles."""
    if PERFBENCH not in sys.path:
        sys.path.append(PERFBENCH)
    from planted import planted_family as build

    return build(seed, seed, class_mode, n, members)


def count_calls(monkeypatch, module: str, name: str) -> list:
    """Rebind `name` in the module `polypierce.<module>` to a wrapper that
    records one entry per call.  (The package namespace binds some module
    names to functions, so the module is looked up by its full name.)"""
    return count_calls_on(monkeypatch, importlib.import_module(f"polypierce.{module}"), name)


def count_calls_on(monkeypatch, owner, name: str) -> list:
    """Rebind attribute `name` of `owner` (a module or a class) to a wrapper
    that records one entry per call."""
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


# Generated templates of both classes, n = 3-6.
TEMPLATES = [random_template(GenConfig(seed=seed, n=n, class_mode=class_mode))
             for seed, n, class_mode in [(0, 3, "general"), (1, 4, "general"),
                                         (2, 5, "general"), (0, 4, "theorem2"),
                                         (1, 6, "theorem2")]]


@st.composite
def families(draw) -> Family:
    """1-4 members on one of `TEMPLATES`, each with a random nonempty set of
    directions and small rational offsets; members may be empty or unbounded."""
    t = draw(st.sampled_from(TEMPLATES))
    offsets = st.dictionaries(st.integers(0, t.n - 1),
                              st.fractions(min_value=-4, max_value=4, max_denominator=5),
                              min_size=1)
    return Family(t, [RelatedPolygon(o) for o in draw(st.lists(offsets, min_size=1,
                                                                 max_size=4))])


# Templates with antiparallel normals: the axis box, and a hexagon with three
# antiparallel pairs.
ANTIPARALLEL_TEMPLATES = [
    Template([Direction(1, 0), Direction(0, 1), Direction(-1, 0), Direction(0, -1)],
             [1, 1, 1, 1]),
    Template([Direction(1, 0), Direction(1, 1), Direction(0, 1), Direction(-1, 0),
              Direction(-1, -1), Direction(0, -1)], [1, 1, 1, 1, 1, 1]),
]


@st.composite
def antiparallel_families(draw) -> Family:
    """1-4 members on one of `ANTIPARALLEL_TEMPLATES`, drawn as in `families()`
    but nonempty, as `load_family` requires.  Two members' opposite halfplanes
    can be disjoint, so `minimal_system` can fail its pairwise check."""
    t = draw(st.sampled_from(ANTIPARALLEL_TEMPLATES))
    offsets = st.dictionaries(st.integers(0, t.n - 1),
                              st.fractions(min_value=-4, max_value=4, max_denominator=5),
                              min_size=1)
    members = st.builds(RelatedPolygon, offsets).filter(
        lambda m: feasible(m.halfplanes(t)) is not None)
    return Family(t, draw(st.lists(members, min_size=1, max_size=4)))


@pytest.fixture
def unit_triangle() -> Template:
    """y >= 0, x >= 0, x + y <= 1, normals in cyclic angular order."""
    return Template([Direction(1, 1), Direction(-1, 0), Direction(0, -1)], [1, 0, 0])


@pytest.fixture
def three_translate_family(unit_triangle) -> Family:
    """Pairwise intersecting, empty total intersection; piercing number 2."""
    return Family(
        unit_triangle,
        [
            translate_of(unit_triangle, Point(0, 0)),
            translate_of(unit_triangle, Point(F(3, 5), 0)),
            translate_of(unit_triangle, Point(0, F(3, 5))),
        ],
    )


@pytest.fixture
def special_triangle() -> Template:
    """Special class, n=3: y >= 0, x <= 0, -x + y <= 1."""
    return Template([Direction(1, 0), Direction(-1, 1), Direction(0, -1)], [0, 1, 0])


@pytest.fixture
def special_three_translate(special_triangle) -> Family:
    return Family(
        special_triangle,
        [
            translate_of(special_triangle, Point(0, 0)),
            translate_of(special_triangle, Point(F(-3, 5), 0)),
            translate_of(special_triangle, Point(0, F(3, 5))),
        ],
    )
