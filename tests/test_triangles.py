from fractions import Fraction as F

import pytest

from polypierce import (
    ClaimViolation,
    DegenerateTriple,
    Direction,
    Family,
    Halfplane,
    MinimalSystem,
    Point,
    RelatedPolygon,
    enumerate_empty_triangles,
    line_intersect,
    minimal_system,
)
from polypierce import triangles
from polypierce.triangles import empty_types
from conftest import planted_family, translate_of


class TestEnumerate:
    def test_three_translate_triangle(self, three_translate_family):
        ms = minimal_system(three_translate_family)
        tris = enumerate_empty_triangles(ms)
        assert len(tris) == 1
        tri = tris[0]
        assert tri.dirs == (0, 1, 2)
        assert set(tri.vertices) == {
            Point(F(2, 5), F(3, 5)),
            Point(F(3, 5), F(2, 5)),
            Point(F(3, 5), F(3, 5)),
        }

    def test_single_member_no_triangles(self, unit_triangle):
        fam = Family(unit_triangle, [translate_of(unit_triangle, Point(0, 0))])
        assert enumerate_empty_triangles(minimal_system(fam)) == []

    def test_two_directions_no_triples(self, unit_triangle):
        fam = Family(unit_triangle, [RelatedPolygon({0: 1, 1: 0})])
        assert enumerate_empty_triangles(minimal_system(fam)) == []

    def test_vertices_lie_on_their_lines(self, three_translate_family):
        ms = minimal_system(three_translate_family)
        for tri in enumerate_empty_triangles(ms):
            for t in range(3):
                # vertex t is opposite side t; the other two sides pass through it
                for u in range(3):
                    if u != t:
                        assert ms.entries[tri.dirs[u]].side(tri.vertices[t]) == 0

    def test_degenerate_parallel_pair(self):
        # Hand-built minimal system with an empty triple containing two
        # parallel disjoint halfplanes (x <= 0 and x >= 1).
        ms = MinimalSystem(
            entries={
                0: Halfplane(Direction(1, 0), 0),
                1: Halfplane(Direction(-1, 0), -1),
                2: Halfplane(Direction(0, 1), 1),
            },
        )
        with pytest.raises(DegenerateTriple):
            enumerate_empty_triangles(ms)

    @pytest.mark.parametrize("class_mode, n", [("general", 5), ("theorem2", 6)])
    def test_triangles_follow_the_empty_triples(self, class_mode, n):
        # Both functions read one triple loop: same triples, same order.
        nonempty = 0
        for seed in range(6):
            ms = minimal_system(planted_family(seed, class_mode, n, 12))
            dirs = [tri.dirs for tri in enumerate_empty_triangles(ms)]
            assert dirs == sorted(empty_types(ms))
            nonempty += bool(dirs)
        assert nonempty >= 3

    def test_concurrent_lines_violate_triangle_area(self, three_translate_family,
                                                    monkeypatch):
        # Make all three boundary lines meet in one point: the meet of the
        # first and last, which lies on the third line.  Plus-emptiness rules
        # this out, so only a patched construction reaches the claim.
        ms = minimal_system(three_translate_family)
        e1, _, e3 = (ms.entries[j] for j in (0, 1, 2))
        meet = line_intersect(e1, e3)
        monkeypatch.setattr(triangles, "line_intersect", lambda h1, h2: meet)
        with pytest.raises(ClaimViolation) as info:
            enumerate_empty_triangles(ms)
        assert info.value.claim == "triangle-area"

    def test_midpoint_off_its_side_violates_triangle_midpoint(
            self, three_translate_family, monkeypatch):
        # The origin lies on none of the lines y = 3/5, x = 3/5, x + y = 1.
        ms = minimal_system(three_translate_family)
        monkeypatch.setattr(triangles, "midpoint", lambda p, q: Point(0, 0))
        with pytest.raises(ClaimViolation) as info:
            enumerate_empty_triangles(ms)
        assert info.value.claim == "triangle-midpoint"

    def test_count_bounded_by_triples(self, three_translate_family):
        ms = minimal_system(three_translate_family)
        n = three_translate_family.template.n
        assert len(empty_types(ms)) <= n * (n - 1) * (n - 2) // 6


class TestMidpointStructure:
    def test_three_translate_midpoints(self, three_translate_family):
        ms = minimal_system(three_translate_family)
        tri = enumerate_empty_triangles(ms)[0]
        by_line = {}
        for t in range(3):
            side = ms.entries[tri.dirs[t]]
            assert side.side(tri.midpoints[t]) == 0
            by_line[side.normal] = tri.midpoints[t]
        assert by_line[Direction(0, -1)] == Point(F(1, 2), F(3, 5))  # on y = 3/5
        assert by_line[Direction(-1, 0)] == Point(F(3, 5), F(1, 2))  # on x = 3/5
        assert by_line[Direction(1, 1)] == Point(F(1, 2), F(1, 2))   # on x + y = 1

    def test_midpoints_strictly_inside_other_minus_sides(self, three_translate_family):
        ms = minimal_system(three_translate_family)
        tri = enumerate_empty_triangles(ms)[0]
        for t in range(3):
            for u in range(3):
                if u != t:
                    assert ms.entries[tri.dirs[u]].side(tri.midpoints[t]) == 1
