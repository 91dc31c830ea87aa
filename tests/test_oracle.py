from fractions import Fraction as F
from itertools import combinations
from math import comb

import pytest

from polypierce import (
    AuditFailure,
    Family,
    GenConfig,
    Point,
    TooLarge,
    bound_audit,
    feasible,
    generate,
    optimal_piercing,
    pierce_general,
    verify_piercing,
)
from conftest import count_calls, planted_family, translate_of


class TestVerifyPiercing:
    def test_all_pierced(self, three_translate_family):
        pts = [Point(0, 0), Point(F(3, 5), 0), Point(0, F(3, 5))]
        report = verify_piercing(three_translate_family, pts)
        assert report.ok and report.unpierced == []

    def test_missing_member_reported(self, three_translate_family):
        report = verify_piercing(three_translate_family, [Point(0, 0)])
        assert not report.ok
        assert report.unpierced == [1, 2]

    def test_no_points(self, three_translate_family):
        report = verify_piercing(three_translate_family, [])
        assert report.unpierced == [0, 1, 2]


class TestOptimalPiercing:
    def test_single_member(self, unit_triangle):
        fam = Family(unit_triangle, [translate_of(unit_triangle, Point(0, 0))])
        res = optimal_piercing(fam)
        assert res.optimum == 1 and res.witness_groups == [[0]]

    def test_three_translate_optimum_two(self, three_translate_family):
        res = optimal_piercing(three_translate_family)
        assert res.optimum == 2
        assert verify_piercing(three_translate_family, res.witness_points).ok
        assert sorted(i for g in res.witness_groups for i in g) == [0, 1, 2]

    def test_witness_points_pierce_their_groups(self, three_translate_family):
        fam = three_translate_family
        res = optimal_piercing(fam)
        for g, p in zip(res.witness_groups, res.witness_points):
            for i in g:
                assert fam.members[i].contains(fam.template, p)

    def test_member_order_invariance(self, three_translate_family):
        fam = three_translate_family
        rev = Family(fam.template, list(reversed(fam.members)))
        assert optimal_piercing(fam).optimum == optimal_piercing(rev).optimum

    def test_translation_invariance(self, unit_triangle):
        base = [Point(0, 0), Point(F(3, 5), 0), Point(0, F(3, 5))]
        shift = Point(F(7, 3), F(-5, 2))
        fam = Family(unit_triangle, [translate_of(unit_triangle, v) for v in base])
        moved = Family(
            unit_triangle,
            [translate_of(unit_triangle, v + shift) for v in base],
        )
        assert optimal_piercing(fam).optimum == optimal_piercing(moved).optimum

    def test_member_limit(self, unit_triangle):
        fam = Family(unit_triangle,
                     [translate_of(unit_triangle, Point(0, 0))] * 5)
        with pytest.raises(TooLarge):
            optimal_piercing(fam, member_limit=4)

    @pytest.mark.parametrize("seed", range(12))
    def test_helly_mask_feasibility_matches_direct_lp(self, seed):
        # The oracle decides subset feasibility from sub-triples only; check
        # that against solving the joint system directly.
        cfg = GenConfig(seed=4000 + seed, n=3 + seed % 3, members=3 + seed % 4,
                        spread=F(3), class_mode="general",
                        repair="translate_repair")
        fam = generate(cfg)
        m = len(fam.members)
        for size in range(1, m + 1):
            for combo in combinations(range(m), size):
                system = []
                for i in combo:
                    system.extend(fam.member_halfplanes(i))
                direct = feasible(system) is not None
                by_triples = all(
                    feasible([h for i in sub for h in fam.member_halfplanes(i)])
                    is not None
                    for k in (1, 2, 3)
                    for sub in combinations(combo, min(k, size))
                )
                assert direct == by_triples

    @pytest.mark.parametrize("seed", range(10))
    def test_oracle_never_beats_itself(self, seed):
        cfg = GenConfig(seed=4100 + seed, n=3 + seed % 3, members=3 + seed % 5,
                        spread=F(3), class_mode="general",
                        repair="translate_repair")
        fam = generate(cfg)
        res = optimal_piercing(fam)
        assert verify_piercing(fam, res.witness_points).ok
        assert len(res.witness_points) == res.optimum <= len(fam.members)


def _min_partition(m: int, feasible_set) -> int:
    """Fewest blocks in a partition of range(m) whose every block passes
    `feasible_set`, by trying every set partition."""
    def partitions(items):
        if not items:
            yield []
            return
        first, rest = items[0], items[1:]
        for part in partitions(rest):
            yield [[first]] + part
            for k in range(len(part)):
                yield part[:k] + [[first] + part[k]] + part[k + 1:]

    return min(len(p) for p in partitions(list(range(m)))
               if all(feasible_set(block) for block in p))


@pytest.mark.parametrize("class_mode,n", [("general", 3), ("general", 4), ("theorem2", 4)])
@pytest.mark.parametrize("seed", range(1, 9))
def test_optimum_matches_brute_force_cover(seed, class_mode, n, monkeypatch):
    # Feasibility is hereditary, so a minimum cover by 1-pierceable subsets
    # is a minimum partition.  Here every block is decided on its whole
    # joint system, with no Helly step.
    fam = planted_family(seed, class_mode, n, 4 + seed % 3)
    m = len(fam.members)
    direct = lambda block: feasible(
        [h for i in block for h in fam.member_halfplanes(i)]) is not None
    expected = _min_partition(m, direct)
    calls = count_calls(monkeypatch, "oracle", "feasible")
    assert optimal_piercing(fam).optimum == expected
    # The oracle asks the kernel once per subset of at most 3 members.
    assert len(calls) == sum(comb(m, k) for k in (1, 2, 3))


class TestBoundAudit:
    def test_clean_result_passes(self, three_translate_family):
        fam = three_translate_family
        res = pierce_general(fam)
        oracle = optimal_piercing(fam)
        assert oracle.optimum == 2 and len(res.points) == 3 == res.bound
        bound_audit(fam, res, oracle)  # returns without raising

    def test_unsound_result_fails(self, three_translate_family):
        fam = three_translate_family
        res = pierce_general(fam)
        res.points = [Point(100, 100)] * len(res.points)
        with pytest.raises(AuditFailure):
            bound_audit(fam, res)

    def test_bound_overflow_fails(self, three_translate_family):
        fam = three_translate_family
        res = pierce_general(fam)
        res.bound = len(res.points) - 1
        with pytest.raises(AuditFailure):
            bound_audit(fam, res)
