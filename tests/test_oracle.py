from fractions import Fraction as F
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from polypierce import (
    AuditFailure,
    Direction,
    Family,
    GenConfig,
    Halfplane,
    Point,
    RelatedPolygon,
    Template,
    TooLarge,
    bound_audit,
    feasible,
    generate,
    optimal_piercing,
    pierce_general,
    verify_piercing,
)
from polypierce.geometry import _check_certificate
from polypierce.oracle import _cover
from conftest import count_calls, planted_family, shifted, translate_of


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

    def test_empty_member_is_unpierceable(self):
        square = Template([Direction(1, 0), Direction(0, 1), Direction(-1, 0),
                           Direction(0, -1)], [1, 1, 1, 1])
        fam = Family(square, [RelatedPolygon({0: 1}), RelatedPolygon({0: -1, 2: -1})])
        with pytest.raises(AuditFailure,
                           match="^some single member is empty; family is unpierceable$"):
            optimal_piercing(fam)

    def test_empty_family(self, unit_triangle):
        res = optimal_piercing(Family(unit_triangle, []))
        assert (res.optimum, res.witness_groups, res.witness_points) == (0, [], [])

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
    calls = count_calls(monkeypatch, "oracle", "joint_empty")
    assert optimal_piercing(fam).optimum == expected
    # The oracle asks `joint_empty` once per subset of at most 3 members.
    assert len(calls) == sum(comb(m, k) for k in (1, 2, 3))


def _reference_cover(feas: list[bool], m: int) -> tuple[int, list[list[int]]]:
    """The slow reference: the oracle's cover DP before `_cover`, with its
    loop and walk verbatim.  It fills dp and choice over all masks in 3^m
    steps and walks choice back from the full mask; the groups come in walk
    order."""
    full = (1 << m) - 1
    INF = m + 1
    dp = [INF] * (full + 1)
    choice = [0] * (full + 1)
    dp[0] = 0
    for mask in range(1, full + 1):
        low = mask & -mask
        sub = mask
        while sub:
            if sub & low and feas[sub] and dp[mask ^ sub] + 1 < dp[mask]:
                dp[mask] = dp[mask ^ sub] + 1
                choice[mask] = sub
            sub = (sub - 1) & mask
    assert dp[full] < INF

    groups = []
    mask = full
    while mask:
        sub = choice[mask]
        groups.append([i for i in range(m) if sub >> i & 1])
        mask ^= sub
    return dp[full], groups


@st.composite
def feasibility_tables(draw):
    """(m, feas) for 1-10 members: a mask is feasible unless it is empty or
    holds a forbidden pair or triple, so feas is downward closed and every
    single member is feasible.  Each pair is forbidden with even odds, so
    optima well above 2 occur."""
    m = draw(st.integers(1, 10))
    pairs = list(combinations(range(m), 2))
    forbidden = [e for e, bad in zip(pairs, draw(st.lists(
        st.booleans(), min_size=len(pairs), max_size=len(pairs)))) if bad]
    if m >= 3:
        forbidden += draw(st.lists(st.sets(st.integers(0, m - 1), min_size=3, max_size=3),
                                   max_size=2 * m))
    bad = [sum(1 << i for i in e) for e in forbidden]
    return m, [mask != 0 and all(mask & b != b for b in bad) for mask in range(1 << m)]


@settings(max_examples=200, deadline=None)
@given(feasibility_tables())
def test_cover_matches_reference_dp(table):
    m, feas = table
    groups = [[i for i in range(m) if sub >> i & 1] for sub in _cover(feas, (1 << m) - 1, {})]
    assert (len(groups), groups) == _reference_cover(feas, m)


def _drop_every_member_sweep(m: int, small_feasible) -> list[bool]:
    """The slow reference: the oracle's Helly sweep before the four-lookup
    rule, verbatim apart from its kernel call.  A mask of at most 3 members
    asks `small_feasible`; a larger one is feasible iff every mask that drops
    one of its members is."""
    full = (1 << m) - 1
    feas = [False] * (full + 1)
    for mask in range(1, full + 1):
        bits = [i for i in range(m) if mask >> i & 1]
        if len(bits) <= 3:
            feas[mask] = small_feasible(bits)
        else:
            feas[mask] = all(feas[mask ^ (1 << i)] for i in bits)
    return feas


@st.composite
def bad_subsets(draw):
    """(m, bad) for 1-14 members: random pairs and triples of member indices
    whose joint systems are to read as empty."""
    m = draw(st.integers(1, 14))
    bad = []
    for k, most in ((2, m), (3, 2 * m)):
        if m >= k:
            subsets = st.sets(st.integers(0, m - 1), min_size=k, max_size=k)
            bad += draw(st.lists(subsets, max_size=most))
    return m, bad


@settings(max_examples=150, deadline=None)
@given(bad_subsets())
def test_four_lookup_table_matches_drop_every_member_sweep(case):
    # Member i is the halfplane x + y <= i.  `joint_empty` is patched to call
    # a member set empty iff it holds a bad pair or triple, with a certificate
    # of the kind the real one returns; the table the oracle hands `_cover`
    # must equal the sweep's on every mask.
    m, bad = case
    t = Template([Direction(1, 1), Direction(-1, 0), Direction(0, -1)], [1, 0, 0])
    fam = Family(t, [RelatedPolygon({0: i}) for i in range(m)])
    small_feasible = lambda combo: not any(b <= set(combo) for b in bad)
    calls, tables = [], []
    # x + y <= -1, -x <= 0 and -y <= 0 meet nowhere (weights 1, 1, 1).
    empty = ((Halfplane(Direction(1, 1), -1), Halfplane(Direction(-1, 0), 0),
              Halfplane(Direction(0, -1), 0)), (1, 1, 1))

    def fake_joint_empty(f, ids):
        calls.append(ids)
        return None if small_feasible(ids) else _check_certificate(empty)

    def recording_cover(feas, mask, memo):  # also reached by _cover's recursion
        tables.append(feas)
        return _cover(feas, mask, memo)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("polypierce.oracle.joint_empty", fake_joint_empty)
        mp.setattr("polypierce.oracle._cover", recording_cover)
        res = optimal_piercing(fam)
    reference = _drop_every_member_sweep(m, small_feasible)
    assert tables[0] == reference
    assert len(calls) == sum(comb(m, k) for k in (1, 2, 3))
    if m <= 10:  # the reference DP takes 3^m steps
        optimum, groups = _reference_cover(reference, m)
        assert (res.optimum, res.witness_groups) == (optimum, sorted(groups))


@pytest.mark.parametrize("class_mode,n", [("general", 4), ("theorem2", 5)])
def test_optimum_and_groups_match_reference_dp(class_mode, n):
    # Members shifted apart stop meeting, so optima of 3 or more occur.  The
    # reference decides every mask on its whole joint system, with no Helly step.
    optima = []
    for seed in range(1, 7):
        for step in (F(1, 2), F(1), F(2)):
            fam = shifted(planted_family(seed, class_mode, n, 8), step)
            m = len(fam.members)
            feas = [mask != 0 and feasible(
                [h for i in range(m) if mask >> i & 1 for h in fam.member_halfplanes(i)])
                is not None for mask in range(1 << m)]
            optimum, groups = _reference_cover(feas, m)
            res = optimal_piercing(fam)
            assert (res.optimum, res.witness_groups) == (optimum, sorted(groups))
            optima.append(optimum)
    assert max(optima) >= 3


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
