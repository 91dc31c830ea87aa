import os
import random
import subprocess
import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

import polypierce
from polypierce import (
    ClaimViolation,
    Direction,
    Family,
    Halfplane,
    Point,
    RelatedPolygon,
    Template,
    contains,
    enumerate_empty_triangles,
    feasible,
    minimal_system,
    pairwise_check,
    pierce_general,
    validate_template,
    verify_piercing,
)
from polypierce.pierce_general import partition_by_midpoints
from conftest import (antiparallel_families, count_calls, families, planted_family,
                      translate_of)

SQUARE = Template([Direction(1, 0), Direction(0, 1), Direction(-1, 0), Direction(0, -1)],
                  [1, 1, 1, 1])


class TestValidateTemplate:
    def test_too_few_directions(self):
        t = Template([Direction(0, -1), Direction(1, 0)], [0, 0])
        assert any("n >= 3" in v for v in validate_template(t))

    def test_valid_unit_triangle(self, unit_triangle):
        assert validate_template(unit_triangle) == []

    def test_cyclic_rotation_is_valid(self):
        t = Template([Direction(0, -1), Direction(1, 1), Direction(-1, 0)], [0, 1, 0])
        assert validate_template(t) == []

    def test_unbounded_gap(self):
        t = Template([Direction(0, 1), Direction(0, -1), Direction(1, 0)], [1, 1, 1])
        assert any("gap" in v for v in validate_template(t))

    def test_duplicate_directions(self):
        t = Template([Direction(1, 0), Direction(2, 0), Direction(0, 1)], [1, 1, 1])
        assert any("distinct" in v for v in validate_template(t))

    def test_redundant_halfplane(self):
        # square plus a loose diagonal constraint that supports no edge
        t = Template(
            [Direction(1, 0), Direction(1, 1), Direction(0, 1),
             Direction(-1, 0), Direction(0, -1)],
            [1, 5, 1, 1, 1],
        )
        assert any("positive length" in v for v in validate_template(t))

    def test_wrong_cyclic_order(self):
        t = Template([Direction(1, 1), Direction(0, -1), Direction(-1, 0)], [1, 0, 0])
        assert any("cyclic" in v for v in validate_template(t))

    @pytest.mark.parametrize(
        "normals, offsets, reported",
        [
            # square plus x + y <= 2, which touches only the corner (1, 1)
            ([(1, 0), (1, 1), (0, 1), (-1, 0), (0, -1)], [1, 2, 1, 1, 1], [1]),
            # x + y <= -1, x >= 0, y >= 0: gaps below pi, empty region
            ([(1, 1), (-1, 0), (0, -1)], [-1, 0, 0], [0, 1, 2]),
            # the segment -1 <= x <= 1, y = 0: the x-edges have zero length
            ([(1, 0), (0, 1), (-1, 0), (0, -1)], [1, 0, 1, 0], [0, 2]),
        ],
        ids=["corner-touch", "empty-region", "segment"],
    )
    def test_edges_without_positive_length(self, normals, offsets, reported):
        t = Template([Direction(a, b) for a, b in normals], offsets)
        assert validate_template(t) == [
            f"halfplane {i} does not support an edge of positive length" for i in reported
        ]


class TestRelatedPolygon:
    def test_needs_an_entry(self):
        with pytest.raises(ValueError):
            RelatedPolygon({})

    def test_unbounded_member_allowed(self, unit_triangle):
        m = RelatedPolygon({2: F(0)})  # only y >= 0
        assert m.contains(unit_triangle, Point(100, 5))
        assert not m.contains(unit_triangle, Point(0, -1))


class TestMemberHalfplanes:
    @settings(max_examples=200, deadline=None)
    @given(families())
    def test_stored_halfplanes_are_the_members_as_tuples(self, fam):
        for i, member in enumerate(fam.members):
            stored = fam.member_halfplanes(i)
            assert isinstance(stored, tuple)
            assert stored == tuple(member.halfplanes(fam.template))
            assert fam.member_halfplanes(i) is stored

    def test_member_questions_build_no_halfplane_after_first_read(self, monkeypatch):
        fam = planted_family(3, "general", 5, 8)
        # Points and a triangle come from a copy, which leaves `fam` unread.
        copy = Family(fam.template, fam.members)
        points = pierce_general(copy).points
        triangle = enumerate_empty_triangles(minimal_system(copy))[0]
        fam.member_halfplanes(0)
        built = []
        init = Halfplane.__init__

        def counted(self, *args):
            built.append(args)
            init(self, *args)

        monkeypatch.setattr(Halfplane, "__init__", counted)
        assert verify_piercing(fam, points).ok
        assert pairwise_check(fam) == []
        partition_by_midpoints(fam, triangle)
        assert built == []


class TestPairwiseCheck:
    def test_single_member(self, unit_triangle):
        fam = Family(unit_triangle, [translate_of(unit_triangle, Point(0, 0))])
        assert pairwise_check(fam) == []

    def test_disjoint_translates(self, unit_triangle):
        fam = Family(
            unit_triangle,
            [
                translate_of(unit_triangle, Point(0, 0)),
                translate_of(unit_triangle, Point(F(3, 5), F(3, 5))),
            ],
        )
        assert pairwise_check(fam) == [(0, 1)]

    def test_three_translate_family(self, three_translate_family):
        assert pairwise_check(three_translate_family) == []

    @pytest.mark.parametrize("template,offsets,claim", [
        # x <= 0 and x >= 1: an antiparallel pair of one member misses.
        (SQUARE, {0: 0, 2: -1}, "pairwise-minimal"),
        # x <= 0, y <= 0 and x + y >= 1: three halfplanes of one member miss.
        (Template([Direction(1, 0), Direction(0, 1), Direction(-1, -1)], [1, 1, 1]),
         {0: 0, 1: 0, 2: -1}, "midpoint-partition"),
    ])
    def test_empty_member_is_a_precondition_the_algorithms_fail_closed_on(
            self, template, offsets, claim):
        # `pairwise_check` answers for pairs of distinct members only; the
        # piercing algorithm raises instead of returning points.
        fam = Family(template, [RelatedPolygon(offsets)])
        assert pairwise_check(fam) == []
        with pytest.raises(ClaimViolation) as info:
            pierce_general(fam)
        assert info.value.claim == claim


class TestMinimalSystem:
    def test_single_member_is_its_own_minimum(self, unit_triangle):
        fam = Family(unit_triangle, [translate_of(unit_triangle, Point(0, 0))])
        ms = minimal_system(fam)
        assert {j: h.offset for j, h in ms.entries.items()} == {0: 1, 1: 0, 2: 0}

    def test_three_translate_offsets(self, three_translate_family):
        ms = minimal_system(three_translate_family)
        # dir 0 = (1,1): x+y <= 1; dir 1 = (-1,0): x >= 3/5; dir 2 = (0,-1): y >= 3/5
        assert ms.entries[0].offset == 1
        assert ms.entries[1].offset == F(-3, 5)
        assert ms.entries[2].offset == F(-3, 5)

    def test_same_direction_two_members(self, unit_triangle):
        fam = Family(unit_triangle, [RelatedPolygon({0: 1}), RelatedPolygon({0: 2})])
        ms = minimal_system(fam)
        assert list(ms.entries) == [0] and ms.entries[0].offset == 1

    def test_asks_the_kernel_only_about_antiparallel_pairs(self, monkeypatch):
        # One halfplane per direction: of the square's 6 direction pairs only
        # the 2 antiparallel ones can be disjoint.
        calls = count_calls(monkeypatch, "family", "plus_empty")
        ms = minimal_system(Family(SQUARE, [RelatedPolygon({0: 1, 1: 1, 2: 1, 3: 1})]))
        assert ms.dirs() == [0, 1, 2, 3]
        assert [[h.normal for h in system] for system in (c[0] for c in calls)] == [
            [Direction(1, 0), Direction(-1, 0)], [Direction(0, 1), Direction(0, -1)]]

    def test_disjoint_pair_raises_under_python_O(self):
        # Checks must be raised errors, not asserts that -O strips.
        code = (
            "from polypierce import *\n"
            "t = Template([Direction(1, 0), Direction(0, 1), Direction(-1, 0),"
            " Direction(0, -1)], [1, 1, 1, 1])\n"
            "f = Family(t, [RelatedPolygon({0: 0}), RelatedPolygon({2: -1})])\n"
            "try:\n"
            "    minimal_system(f)\n"
            "except ClaimViolation as exc:\n"
            "    print(exc.claim, __debug__)\n"
        )
        src = os.path.dirname(os.path.dirname(polypierce.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["pairwise-minimal", "False"]

    def test_disjoint_pair_detail_carries_certificate(self):
        t = Template([Direction(1, 0), Direction(0, 1), Direction(-1, 0),
                      Direction(0, -1)], [1, 1, 1, 1])
        f = Family(t, [RelatedPolygon({0: 0}), RelatedPolygon({2: -1}),
                       RelatedPolygon({1: 3})])
        with pytest.raises(ClaimViolation) as info:
            minimal_system(f)
        assert info.value.claim == "pairwise-minimal" and info.value.family is f
        # x <= 0 and -x <= -1: weights 1 and 1 sum the normals to 0 and the
        # offsets to -1.
        assert info.value.detail == (
            "minimal halfplanes 0 and 2 are disjoint (Farkas weights [1, 1] on "
            "[Halfplane(Direction(1, 0), 0), Halfplane(Direction(-1, 0), -1)]); "
            "family is not pairwise intersecting")

    @settings(max_examples=300, deadline=None)
    @given(families(), st.data())
    def test_member_indices_match_subfamily(self, fam, data):
        # A node's minimal system, read from the family's stored halfplanes,
        # is the one its subfamily would build, in the same key order.  (No
        # template here has antiparallel normals, so none can raise.)
        ids = data.draw(st.lists(st.integers(0, len(fam.members) - 1), unique=True))
        assert (list(minimal_system(fam, ids).entries.items())
                == list(minimal_system(fam.subfamily(ids)).entries.items()))

    def test_disjoint_minimal_pair_means_a_disjoint_member_pair(self):
        # Counted over a derandomized draw, so the count is fixed: 43 of the
        # 200 families raise.
        raised = []

        @settings(max_examples=200, deadline=None, derandomize=True, database=None)
        @given(antiparallel_families())
        def draw(fam):
            try:
                minimal_system(fam)
            except ClaimViolation as exc:
                assert exc.claim == "pairwise-minimal" and pairwise_check(fam)
                raised.append(fam)

        draw()
        assert len(raised) >= 20

    def test_disjoint_pair_of_a_node_carries_its_subfamily(self):
        t = Template([Direction(1, 0), Direction(0, 1), Direction(-1, 0),
                      Direction(0, -1)], [1, 1, 1, 1])
        f = Family(t, [RelatedPolygon({1: 3}), RelatedPolygon({2: -1}),
                       RelatedPolygon({0: 0})])
        assert minimal_system(f, [0, 1]).dirs() == [1, 2]
        with pytest.raises(ClaimViolation) as info:
            minimal_system(f, [2, 1])
        assert info.value.claim == "pairwise-minimal"
        assert info.value.family == f.subfamily([2, 1])

    def test_member_order_irrelevant(self, three_translate_family):
        fam = three_translate_family
        rev = Family(fam.template, list(reversed(fam.members)))
        a = {j: h.offset for j, h in minimal_system(fam).entries.items()}
        b = {j: h.offset for j, h in minimal_system(rev).entries.items()}
        assert a == b

    def test_removing_member_never_decreases_offsets(self, three_translate_family):
        fam = three_translate_family
        full = minimal_system(fam).entries
        for drop in range(3):
            sub = fam.subfamily([i for i in range(3) if i != drop])
            for j, h in minimal_system(sub).entries.items():
                assert h.offset >= full[j].offset

    def test_intersection_equals_minimal_intersection(self, three_translate_family):
        fam = three_translate_family
        ms = minimal_system(fam)
        systems = [fam.member_halfplanes(i) for i in range(len(fam.members))]
        rng = random.Random(3)
        samples = [
            Point(F(rng.randint(-40, 40), 16), F(rng.randint(-40, 40), 16))
            for _ in range(300)
        ]
        for p in samples:
            in_members = all(contains(s, p) for s in systems)
            in_minimal = contains(ms.halfplanes(), p)
            assert in_members == in_minimal


class TestFamilyIntersectionWitness:
    def test_single_member(self, unit_triangle):
        fam = Family(unit_triangle, [translate_of(unit_triangle, Point(0, 0))])
        assert feasible(minimal_system(fam).halfplanes()) == Point(0, 0)

    def test_three_translate_absent(self, three_translate_family):
        assert feasible(minimal_system(three_translate_family).halfplanes()) is None

    def test_nested_translates(self, unit_triangle):
        small = RelatedPolygon({0: F(1, 2), 1: 0, 2: 0})
        big = translate_of(unit_triangle, Point(0, 0))
        fam = Family(unit_triangle, [big, small])
        w = feasible(minimal_system(fam).halfplanes())
        assert w is not None and small.contains(unit_triangle, w)
