import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from polypierce import (
    ClaimViolation,
    Family,
    GenConfig,
    Point,
    RelatedPolygon,
    contains,
    enumerate_empty_triangles,
    generate,
    minimal_system,
    pierce_general,
    pierce_special,
    verify_piercing,
)
from polypierce.pierce_general import partition_by_midpoints, restricted_hull
from conftest import count_calls, count_calls_on, families, planted_family, translate_of


def _template_built_hull(f, member, dirs):
    """The restricted hull rebuilt from the template, as before the family
    stored its members' halfplanes: the reference."""
    return [f.template.halfplane(j, c) for j, c in member.offsets.items() if j in dirs]


class TestRestrictedHull:
    def test_full_triangle_equals_member(self, three_translate_family):
        fam = three_translate_family
        t = (0, 1, 2)
        assert contains(restricted_hull(fam, 0, t), Point(F(1, 2), F(1, 2)))
        assert not contains(restricted_hull(fam, 0, t), Point(1, 1))

    def test_single_constraint_member(self, unit_triangle):
        fam = Family(unit_triangle, [RelatedPolygon({2: 0})])  # y >= 0 only
        t = (0, 1, 2)
        assert contains(restricted_hull(fam, 0, t), Point(100, 5))

    def test_vacuous_when_member_uses_no_dirs(self, unit_triangle):
        fam = Family(unit_triangle, [RelatedPolygon({0: 1})])
        t = (1, 2, 3)  # indices the member does not use
        assert contains(restricted_hull(fam, 0, t), Point(999, 999))

    def test_shifted_member_derived_points(self, three_translate_family):
        # member translated by (3/5, 0): x >= 3/5, y >= 0, x+y <= 8/5
        fam = three_translate_family
        t = (0, 1, 2)
        assert contains(restricted_hull(fam, 1, t), Point(F(3, 5), F(1, 2)))
        assert not contains(restricted_hull(fam, 1, t), Point(F(1, 2), F(3, 5)))

    @settings(max_examples=300, deadline=None)
    @given(families(), st.data())
    def test_equals_template_built_hull(self, fam, data):
        i = data.draw(st.integers(0, len(fam.members) - 1))
        # Triples may name a direction the template lacks, as in the test above.
        dirs = tuple(sorted(data.draw(st.lists(st.integers(0, fam.template.n),
                                               min_size=3, max_size=3, unique=True))))
        assert restricted_hull(fam, i, dirs) == _template_built_hull(fam, fam.members[i], dirs)


class TestPartition:
    def test_three_translate_buckets_are_singletons(self, three_translate_family):
        fam = three_translate_family
        tri = enumerate_empty_triangles(minimal_system(fam))[0]
        buckets = partition_by_midpoints(fam, tri)
        assert sorted(len(b) for b in buckets) == [1, 1, 1]
        assert sorted(i for b in buckets for i in b) == [0, 1, 2]

    def test_all_containing_first_midpoint(self, unit_triangle):
        # triangle taken from the three-translate minimal system
        shifted = Family(
            unit_triangle,
            [
                translate_of(unit_triangle, Point(0, 0)),
                translate_of(unit_triangle, Point(F(3, 5), 0)),
                translate_of(unit_triangle, Point(0, F(3, 5))),
            ],
        )
        tri = enumerate_empty_triangles(minimal_system(shifted))[0]
        big = Family(unit_triangle, [RelatedPolygon({2: F(-1, 2)})] * 4)  # y >= 1/2
        buckets = partition_by_midpoints(big, tri)
        assert len(buckets[0]) == 4 and not buckets[1] and not buckets[2]

    def test_singleton_family_single_bucket(self, three_translate_family):
        fam = three_translate_family
        tri = enumerate_empty_triangles(minimal_system(fam))[0]
        buckets = partition_by_midpoints(fam, tri, [1])
        assert sum(len(b) for b in buckets) == 1


class TestPierceGeneral:
    def test_common_point_family_one_point(self, unit_triangle):
        fam = Family(
            unit_triangle,
            [
                translate_of(unit_triangle, Point(0, 0)),
                translate_of(unit_triangle, Point(F(1, 8), 0)),
                translate_of(unit_triangle, Point(0, F(1, 8))),
            ],
        )
        res = pierce_general(fam)
        assert len(res.points) == 1
        assert res.initial_type_count == 0 and res.bound == 1
        assert verify_piercing(fam, res.points).ok

    def test_three_translate_three_points(self, three_translate_family):
        res = pierce_general(three_translate_family)
        assert len(res.points) == 3
        assert res.initial_type_count == 1 and res.bound == 3
        assert verify_piercing(three_translate_family, res.points).ok
        for i, k in res.assignment.items():
            member = three_translate_family.members[i]
            assert member.contains(three_translate_family.template, res.points[k])

    def test_deterministic(self, three_translate_family):
        a = pierce_general(three_translate_family)
        b = pierce_general(three_translate_family)
        assert a.points == b.points and a.assignment == b.assignment

    def test_bound_within_template_limit(self, three_translate_family):
        res = pierce_general(three_translate_family)
        n = three_translate_family.template.n
        assert len(res.points) <= 3 ** (n * (n - 1) * (n - 2) // 6)

    @pytest.mark.parametrize("seed", range(25))
    def test_seeded_families_sound_and_bounded(self, seed):
        cfg = GenConfig(seed=seed, n=3 + seed % 3, members=3 + seed % 6,
                        spread=F(3), class_mode="general",
                        repair="translate_repair")
        fam = generate(cfg)
        res = pierce_general(fam)
        assert verify_piercing(fam, res.points).ok
        assert len(res.points) <= res.bound == 3 ** res.initial_type_count

    def test_progress_types_shrink_along_edges(self, three_translate_family):
        res = pierce_general(three_translate_family)
        # root chose the only type; children must all be leaves
        assert res.trace.chosen_type == (0, 1, 2)
        assert all(c.leaf_witness is not None for c in res.trace.children)

    @pytest.mark.parametrize("seed", range(1, 9))
    def test_one_minimal_system_per_trace_node(self, seed, monkeypatch):
        # Each node derives its members' minimal system once, and N0 is read
        # from the root node's empty triples.
        fam = planted_family(seed, "theorem2", 6, 12)
        calls = count_calls(monkeypatch, "pierce_general", "minimal_system")
        res = pierce_general(fam)
        nodes = [res.trace]
        for node in nodes:
            nodes.extend(node.children)
        assert res.initial_type_count >= 1 and len(nodes) > 1
        assert len(calls) == len(nodes)

    def test_type_elimination_carries_the_node(self, monkeypatch):
        # The root splits as usual; its first non-leaf child (8 of 12 members)
        # hands all its members to one bucket, whose types are then the
        # child's own.  The claim carries that grandchild's members.
        fam = planted_family(2, "general", 5, 12)
        module = sys.modules["polypierce.pierce_general"]
        original = module.partition_by_midpoints
        seen = []

        def partition(f, e, member_ids):
            seen.append(member_ids)
            if len(seen) == 1:
                return original(f, e, member_ids)
            return list(member_ids), [], []

        monkeypatch.setattr(module, "partition_by_midpoints", partition)
        with pytest.raises(ClaimViolation) as info:
            pierce_general(fam)
        assert info.value.claim == "type-elimination"
        assert len(seen) == 2 and len(seen[1]) == 8
        assert info.value.family == fam.subfamily(seen[1])


# Planted theorem2 n = 6 families on which pierce_special takes two rounds.
@pytest.mark.parametrize("pierce", [pierce_general, pierce_special])
@pytest.mark.parametrize("seed", [1, 6, 9, 11, 12, 13])
def test_nodes_are_member_indices(pierce, seed, monkeypatch):
    # Every node reads the halfplanes of the one family passed in: no
    # subfamily is built, and each member's halfplanes are built once.
    fam = planted_family(seed, "theorem2", 6, 12)
    subfamilies = count_calls_on(monkeypatch, Family, "subfamily")
    halfplanes = count_calls_on(monkeypatch, RelatedPolygon, "halfplanes")
    res = pierce(fam)
    assert subfamilies == [] and len(halfplanes) == len(fam.members)
    assert len(res.trace.children) >= 2


@pytest.mark.parametrize("class_mode, n", [("general", 5), ("theorem2", 6)])
@pytest.mark.parametrize("seed", range(1, 7))
def test_one_triangle_per_split(class_mode, n, seed, monkeypatch):
    # The recursion builds only the triangle each node splits on.
    fam = planted_family(seed, class_mode, n, 12)
    triangles = count_calls(monkeypatch, "pierce_general", "_build_triangle")
    nodes = [pierce_general(fam).trace]
    for node in nodes:
        nodes.extend(node.children)
    assert len(triangles) == sum(1 for node in nodes if node.chosen_type) >= 1
