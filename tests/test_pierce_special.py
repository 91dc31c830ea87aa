import sys
from fractions import Fraction as F

import pytest

from polypierce import (
    ClaimViolation,
    Direction,
    Family,
    GenConfig,
    NotSpecialClass,
    Point,
    RelatedPolygon,
    Template,
    classify_special,
    generate,
    pairwise_check,
    pierce_special,
    verify_piercing,
)
from polypierce.pierce_special import edge_slope, teo_check
from conftest import count_calls, planted_family, translate_of
from case2_cases import CASE2_LEFTMOST


class TestClassify:
    def test_special_triangle(self, special_triangle):
        sf = classify_special(special_triangle)
        assert sf is not None
        assert sf.h_index == 2 and sf.v_index == 0
        assert sf.slope_indices == ((1, F(1)),)

    def test_general_unit_triangle_rejected(self, unit_triangle):
        assert classify_special(unit_triangle) is None

    def test_slopes_sorted_ascending(self):
        t = Template(
            [Direction(1, 0), Direction(-2, 1), Direction(-1, 3), Direction(0, -1)],
            [0, 1, 1, 0],
        )
        sf = classify_special(t)
        assert sf.slope_indices == ((2, F(1, 3)), (1, F(2)))

    def test_missing_vertical_rejected(self):
        t = Template([Direction(-1, 2), Direction(-2, 1), Direction(0, -1)], [1, 1, 0])
        assert classify_special(t) is None

    def test_edge_slope_values(self):
        assert edge_slope(Direction(-2, 3)) == F(2, 3)
        assert edge_slope(Direction(1, 1)) is None
        assert edge_slope(Direction(0, -1)) is None


class TestTeoCheck:
    def test_member_far_away_no_hits(self, special_three_translate):
        f = special_three_translate
        verts = (Point(F(-1, 2), F(3, 5)), Point(F(-3, 5), F(1, 2)),
                 Point(F(-1, 2), F(1, 2)))
        for i in range(len(f.members)):
            assert teo_check(f, i, verts, (0, 1, 2))

    def test_lines_along_medial_edges_cut_nothing(self):
        # Four members of a planted theorem2 n = 4 family.  Member 3's x- and
        # y-lines run along two edges of the medial triangle of the empty
        # triple (0, 2, 3), with the triangle on their plus sides, so the
        # member holds all three midpoints: neither line cuts the triangle.
        t = Template([Direction(1, 0), Direction(-4, 3), Direction(-7, 5), Direction(0, -1)],
                     [0, 15, F(205, 8), 0])
        f = Family(t, [
            RelatedPolygon({0: F(-205, 112), 1: F(415, 28), 2: F(415, 16), 3: F(5, 2)}),
            RelatedPolygon({0: F(65, 56), 2: F(205, 16), 3: F(15, 16)}),
            RelatedPolygon({0: F(1025, 896), 1: F(4015, 224), 2: F(3855, 128), 3: F(-5, 2)}),
            RelatedPolygon({0: F(-15, 16), 1: F(45, 2), 2: F(615, 16), 3: F(-5, 4)}),
        ])
        assert pairwise_check(f) == []
        midpoints = [Point(F(-205, 112), F(5, 4)), Point(F(-15, 16), F(5, 4)),
                     Point(F(-15, 16), F(5, 2))]
        assert all(f.members[3].contains(t, p) for p in midpoints)
        assert teo_check(f, 3, midpoints, (0, 2, 3))
        cutting = RelatedPolygon({0: -1, 3: -2})  # x <= -1, y >= 2: no midpoint
        assert not teo_check(Family(t, [cutting]), 0, midpoints, (0, 2, 3))
        res = pierce_special(f)
        assert sorted(res.points, key=lambda p: (p.x, p.y)) == midpoints
        assert verify_piercing(f, res.points).ok


class TestPierceSpecialN3:
    def test_three_translate_exact_midpoints(self, special_three_translate):
        res = pierce_special(special_three_translate)
        assert res.points == [
            Point(F(-1, 2), F(3, 5)),
            Point(F(-3, 5), F(1, 2)),
            Point(F(-1, 2), F(1, 2)),
        ]
        assert res.bound == 3 and res.initial_type_count == 1
        assert verify_piercing(special_three_translate, res.points).ok
        # One round, reported as a flat trace.
        assert res.trace.chosen_type == (0, 1, 2) and res.trace.children == []

    def test_round_checks_run_for_n3(self, special_three_translate, monkeypatch):
        # n = 3 is the loop's single round, so its per-member check runs.
        calls = count_calls(monkeypatch, "pierce_special", "teo_check")
        pierce_special(special_three_translate)
        assert len(calls) == len(special_three_translate.members)

    def test_unpierced_member_raises_with_whole_family(self, special_three_translate,
                                                        monkeypatch):
        module = sys.modules["polypierce.pierce_special"]
        original = module._assign_and_remove

        def leave_member_0(f, remaining, points, new_idxs, assignment):
            still = original(f, remaining, points, new_idxs, assignment)
            assignment.pop(0, None)
            return sorted({0, *still})

        monkeypatch.setattr(module, "_assign_and_remove", leave_member_0)
        with pytest.raises(ClaimViolation) as info:
            pierce_special(special_three_translate)
        assert info.value.claim == "n3-midpoint-piercing"
        assert info.value.detail == "member 0 contains none of the emitted points"
        assert info.value.family is special_three_translate

    def test_common_point_one_point(self, special_triangle):
        fam = Family(
            special_triangle,
            [
                translate_of(special_triangle, Point(0, 0)),
                translate_of(special_triangle, Point(F(-1, 8), 0)),
            ],
        )
        res = pierce_special(fam)
        assert len(res.points) == 1
        assert verify_piercing(fam, res.points).ok

    def test_not_special_raises(self, three_translate_family):
        with pytest.raises(NotSpecialClass):
            pierce_special(three_translate_family)


class TestPierceSpecialLarger:
    @pytest.mark.parametrize("seed", range(30))
    def test_seeded_sound_and_bounded(self, seed):
        cfg = GenConfig(seed=1000 + seed, n=4 + seed % 3, members=3 + seed % 8,
                        spread=F(2), class_mode="theorem2",
                        repair="translate_repair")
        fam = generate(cfg)
        res = pierce_special(fam)
        assert verify_piercing(fam, res.points).ok
        assert len(res.points) <= 4 * (fam.template.n - 2) == res.bound
        for i, k in res.assignment.items():
            assert fam.members[i].contains(fam.template, res.points[k])

    def test_deterministic(self):
        cfg = GenConfig(seed=77, n=5, members=7, spread=F(2),
                        class_mode="theorem2", repair="translate_repair")
        fam = generate(cfg)
        a, b = pierce_special(fam), pierce_special(fam)
        assert a.points == b.points and a.assignment == b.assignment

    def test_points_lie_in_some_member(self):
        cfg = GenConfig(seed=5, n=4, members=6, spread=F(2),
                        class_mode="theorem2", repair="translate_repair")
        fam = generate(cfg)
        res = pierce_special(fam)
        used = set(res.assignment.values())
        assert used == set(range(len(res.points)))

    @pytest.mark.parametrize("n,seed,m,normals,offsets,members,points", CASE2_LEFTMOST,
                             ids=[f"n{c[0]}-seed{c[1]}-m{c[2]}" for c in CASE2_LEFTMOST])
    def test_case2_takes_the_leftmost_p_i(self, n, seed, m, normals, offsets, members,
                                          points):
        # Frozen families on which a rightmost P_i would give other points.
        fam = Family(Template([Direction(a, b) for a, b in normals], [F(c) for c in offsets]),
                     [RelatedPolygon({j: F(c) for j, c in o.items()}) for o in members])
        assert (fam.template.n, len(fam.members)) == (n, m)
        res = pierce_special(fam)
        assert any("case2" in node.notes for node in res.trace.children)
        assert res.points == [Point(F(x), F(y)) for x, y in points]

    # Planted theorem2 n=6 families on which the loop takes two rounds.
    @pytest.mark.parametrize("seed", [1, 6, 9, 11, 12, 13, 14, 15])
    def test_one_minimal_system_per_round(self, seed, monkeypatch):
        # A round's minimal system feeds its elimination and progress checks
        # and the next round, so it is derived once.
        fam = planted_family(seed, "theorem2", 6, 12)
        calls = count_calls(monkeypatch, "pierce_special", "minimal_system")
        res = pierce_special(fam)
        assert len(res.trace.children) >= 2
        assert len(calls) == len(res.trace.children)

    @pytest.mark.parametrize("claim", ["triangle-elimination", "triangle-count-progress"])
    def test_round_checks_name_the_unpierced_rest(self, claim, monkeypatch):
        # Make the empty triples after round 1 still hold round 1's triple
        # (elimination fails), or only grow (progress fails); either claim
        # carries the members round 1 left unpierced.
        fam = planted_family(1, "theorem2", 6, 12)
        first, second = pierce_special(fam).trace.children
        module = sys.modules["polypierce.pierce_special"]
        original = module.empty_types
        extra = {first.chosen_type} if claim == "triangle-elimination" else {
            (90 + k, 91 + k, 92 + k) for k in range(0, 15, 3)}
        calls = []

        def empty_types(ms):
            calls.append(ms)
            return original(ms) | (extra if len(calls) > 1 else set())

        monkeypatch.setattr(module, "empty_types", empty_types)
        with pytest.raises(ClaimViolation) as info:
            pierce_special(fam)
        assert info.value.claim == claim
        assert info.value.family == fam.subfamily(second.members)


def _wrap(monkeypatch, name: str, make):
    """Rebind `name` in pierce_special to `make(original)`."""
    module = sys.modules["polypierce.pierce_special"]
    monkeypatch.setattr(module, name, make(getattr(module, name)))


class TestRoundClaimsCarryTheRound:
    """Each claim a round checks carries the members that round started with,
    as a family.  A planted theorem2 n = 6 family whose first round pierces
    5 of its 12 members and whose second is the common-point leaf; each test
    forces one claim to fail."""

    @pytest.fixture
    def rounds(self):
        fam = planted_family(1, "theorem2", 6, 12)
        first, second = pierce_special(fam).trace.children
        assert 1 < len(second.members) < len(first.members) == 12
        assert first.notes["case2"] and second.leaf_witness is not None
        return fam, first, second

    def _raises(self, fam, claim, members):
        with pytest.raises(ClaimViolation) as info:
            pierce_special(fam)
        assert info.value.claim == claim
        assert info.value.family == fam.subfamily(members)

    def test_helly_leaf(self, rounds, monkeypatch):
        # The leaf's point pierces only the first of its members: the claim
        # carries the round's members, not the ones it left.
        fam, _, second = rounds

        def make(original):
            def leave_rest(f, remaining, points, new_idxs, assignment):
                still = original(f, remaining, points, new_idxs, assignment)
                return remaining[1:] if len(new_idxs) == 1 else still
            return leave_rest

        _wrap(monkeypatch, "_assign_and_remove", make)
        self._raises(fam, "helly-leaf", second.members)

    def _second_round_candidates(self, monkeypatch, candidates):
        """The second round's slope candidates become `candidates(first)`,
        where `first` is the first round's list."""
        def make(original):
            seen = []

            def check_triples(*args):
                seen.append(original(*args))
                return candidates(seen[0]) if len(seen) == 2 else seen[-1]
            return check_triples

        _wrap(monkeypatch, "_check_triples", make)

    def test_slope_progress(self, rounds, monkeypatch):
        fam, _, second = rounds
        self._second_round_candidates(monkeypatch, lambda first: first)
        self._raises(fam, "slope-progress", second.members)

    def test_two_edges_outside(self, rounds, monkeypatch):
        # The second round targets the next slope, and a member there fails
        # the two-edges check on its triangle.
        fam, first, second = rounds
        self._second_round_candidates(monkeypatch, lambda first: first[1:])

        def make(original):
            def teo_check(f, i, verts, dirs):
                return dirs == first.chosen_type and original(f, i, verts, dirs)
            return teo_check

        _wrap(monkeypatch, "teo_check", make)
        self._raises(fam, "two-edges-outside", second.members)

    def test_hv_triple_shape(self, rounds, monkeypatch):
        # After the first round, one empty triple of three slope directions.
        fam, _, second = rounds
        slopes = [j for j, _ in classify_special(fam.template).slope_indices]
        bad = tuple(sorted(slopes[:3]))

        def make(original):
            calls = []

            def empty_types(ms):
                calls.append(ms)
                return {bad} if len(calls) == 2 else original(ms)
            return empty_types

        _wrap(monkeypatch, "empty_types", make)
        self._raises(fam, "hv-triple-shape", second.members)

    def test_case2_x_on_line(self, rounds, monkeypatch):
        # The first round's X is the meet of a vertical line with line s;
        # moving it up takes it off that line.
        fam, first, _ = rounds
        right = Direction(1, 0)

        def make(original):
            def line_intersect(a, b):
                p = original(a, b)
                return Point(p.x, p.y + 1) if a.normal == right else p
            return line_intersect

        _wrap(monkeypatch, "line_intersect", make)
        self._raises(fam, "case2-x-on-line", first.members)
