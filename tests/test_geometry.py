import itertools
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
    EmptySystem,
    Halfplane,
    Point,
    canonical_witness,
    contains,
    feasible,
    line_intersect,
    minimal_system,
    triple_plus_empty,
)
from polypierce.family import joint_system
from polypierce.geometry import (
    _farkas,
    _foot_of_perpendicular,
    _plus_vertices,
    _search_certificate,
    cross,
    plus_empty,
    region_vertices,
    tightest,
)
from conftest import count_calls, planted_family
from exactness_cases import FEASIBILITY_WITNESSES, TRIPLE_EMPTINESS

X_GE = lambda c: Halfplane(Direction(-1, 0), -F(c))   # x >= c
X_LE = lambda c: Halfplane(Direction(1, 0), F(c))     # x <= c
Y_GE = lambda c: Halfplane(Direction(0, -1), -F(c))   # y >= c
Y_LE = lambda c: Halfplane(Direction(0, 1), F(c))     # y <= c
SUM_LE = lambda c: Halfplane(Direction(1, 1), F(c))   # x + y <= c

UNIT_TRIANGLE = [Y_GE(0), X_GE(0), SUM_LE(1)]

RATIONALS = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**6)


DIRECTIONS = st.tuples(st.integers(-9, 9), st.integers(-9, 9)).filter(any).map(
    lambda ab: Direction(*ab))


@st.composite
def halfplanes(draw) -> Halfplane:
    """Any primitive normal with entries in [-9, 9] and a rational offset."""
    return Halfplane(draw(DIRECTIONS), draw(RATIONALS))


@st.composite
def concurrent_systems(draw):
    """3-8 halfplanes with offsets over denominators up to 10^6: three lines
    through one point v, up to two lines antiparallel to those, and up to
    three more.  Each line but the three is shifted from v by a rational
    that is mostly nonnegative, so v is often a vertex of a nonempty region
    and more often a meet of two lines outside it."""
    x, y = draw(RATIONALS), draw(RATIONALS)
    shift = st.fractions(min_value=-1, max_value=10**6, max_denominator=10**6)
    through = draw(st.lists(DIRECTIONS, min_size=3, max_size=3))
    normals = [d.neg() for d in draw(st.lists(st.sampled_from(through), max_size=2))]
    normals += draw(st.lists(DIRECTIONS, max_size=3))
    system = [Halfplane(d, d.a * x + d.b * y) for d in through]
    system += [Halfplane(d, d.a * x + d.b * y + draw(shift)) for d in normals]
    return draw(st.permutations(system))


def _fraction_sign(h: Halfplane, p: Point) -> int:
    """The Fraction reference for `Halfplane.side`."""
    v = h.normal.dot(p) - h.offset
    return (v > 0) - (v < 0)


def _fraction_cramer(h1: Halfplane, h2: Halfplane):
    """Cramer's rule in Fraction arithmetic: the reference for `line_intersect`."""
    d = cross(h1.normal, h2.normal)
    if d == 0:
        return None
    a1, b1, c1 = h1.normal.a, h1.normal.b, h1.offset
    a2, b2, c2 = h2.normal.a, h2.normal.b, h2.offset
    return Point(F(c1 * b2 - c2 * b1, d), F(a1 * c2 - a2 * c1, d))


def test_direction_primitive_and_nonzero():
    assert Direction(2, 4) == Direction(1, 2)
    assert Direction(-6, -9) == Direction(-2, -3)
    with pytest.raises(ValueError):
        Direction(0, 0)


def test_halfplane_sides_share_boundary():
    h = SUM_LE(1)
    assert h.side(Point(F(1, 2), F(1, 2))) == 0
    assert h.side(Point(0, 0)) == -1
    assert h.side(Point(1, 1)) == 1


def test_smaller_offset_nests_plus_side():
    tight, loose = X_LE(F(1, 3)), X_LE(2)
    for p in [Point(0, 0), Point(F(1, 3), 5), Point(-7, F(2, 9))]:
        if tight.side(p) <= 0:
            assert loose.side(p) <= 0
    assert loose.side(Point(1, 0)) == -1 and tight.side(Point(1, 0)) == 1


class TestLineIntersect:
    def test_axis_crossing(self):
        p = line_intersect(X_GE(0), Y_GE(0))
        assert p == Point(0, 0)

    def test_substitution(self):
        assert line_intersect(SUM_LE(1), Y_GE(0)) == Point(1, 0)

    def test_parallel_absent(self):
        assert line_intersect(Y_GE(0), Y_GE(1)) is None
        assert line_intersect(Y_GE(0), Y_LE(1)) is None

    def test_result_on_both_lines(self):
        rng = random.Random(7)
        for _ in range(200):
            h1 = Halfplane(
                Direction(rng.randint(-5, 5) or 1, rng.randint(-5, 5)),
                F(rng.randint(-99, 99), rng.randint(1, 40)),
            )
            h2 = Halfplane(
                Direction(rng.randint(-5, 5), rng.randint(-5, 5) or 1),
                F(rng.randint(-99, 99), rng.randint(1, 40)),
            )
            p = line_intersect(h1, h2)
            if p is not None:
                assert h1.side(p) == 0 and h2.side(p) == 0

    @settings(max_examples=400, deadline=None)
    @given(halfplanes(), halfplanes())
    def test_matches_fraction_cramer(self, h1, h2):
        assert line_intersect(h1, h2) == _fraction_cramer(h1, h2)


class TestTriplePlusEmpty:
    def test_contradictory_sum(self):
        assert triple_plus_empty(X_GE(1), Y_GE(1), SUM_LE(1))

    def test_contains_origin(self):
        assert not triple_plus_empty(X_GE(0), Y_GE(0), SUM_LE(1))

    def test_three_fifths(self):
        assert triple_plus_empty(Y_GE(F(3, 5)), X_GE(F(3, 5)), SUM_LE(1))

    def test_permutation_invariant(self):
        triples = [
            (X_GE(1), Y_GE(1), SUM_LE(1)),
            (X_GE(0), Y_GE(0), SUM_LE(1)),
            (Y_GE(F(3, 5)), X_GE(F(3, 5)), SUM_LE(1)),
            (X_GE(0), X_LE(-1), Y_GE(0)),
        ]
        for t in triples:
            vals = {triple_plus_empty(*perm) for perm in itertools.permutations(t)}
            assert len(vals) == 1

    def test_single_point_intersection_is_not_empty(self):
        # plus sides meeting in exactly one point: x>=0, y>=0, x+y<=0
        assert not triple_plus_empty(X_GE(0), Y_GE(0), SUM_LE(0))


class TestFeasible:
    def test_nonempty_triangle(self):
        p = feasible(UNIT_TRIANGLE)
        assert p is not None and contains(UNIT_TRIANGLE, p)

    def test_contradictory_bounds(self):
        assert feasible([X_GE(1), X_LE(0)]) is None

    def test_derived_infeasible_strip(self):
        sys = [Y_GE(F(3, 5)), X_LE(F(-3, 5)),
               Halfplane(Direction(-1, 1), 1)]  # -x + y <= 1
        assert feasible(sys) is None

    def test_witness_deterministic(self):
        sys = [Y_GE(0), X_GE(0), SUM_LE(1), X_LE(7)]
        assert feasible(sys) == feasible(list(sys))

    def test_infeasibility_has_small_certificate(self):
        # infeasible <=> some triple empty or some pair contradictory
        rng = random.Random(11)
        for _ in range(120):
            sys = []
            for _ in range(rng.randint(2, 8)):
                d = Direction(rng.randint(-3, 3) or 1, rng.randint(-3, 3))
                sys.append(Halfplane(d, F(rng.randint(-6, 6), rng.randint(1, 4))))
            w = feasible(sys)
            if w is not None:
                assert contains(sys, w)
            else:
                pair_bad = any(
                    h1.normal == h2.normal.neg() and h1.offset + h2.offset < 0
                    for h1, h2 in itertools.combinations(sys, 2)
                )
                triple_bad = any(
                    triple_plus_empty(*t) for t in itertools.combinations(sys, 3)
                )
                assert pair_bad or triple_bad


class TestCanonicalWitness:
    def test_lexmin_vertex(self):
        assert canonical_witness(UNIT_TRIANGLE) == Point(0, 0)

    def test_whole_plane(self):
        assert canonical_witness([]) == Point(0, 0)

    def test_corner_vertex(self):
        sys = [X_GE(F(1, 2)), Y_GE(F(1, 2)), SUM_LE(2)]
        assert canonical_witness(sys) == Point(F(1, 2), F(1, 2))

    def test_empty_raises(self):
        with pytest.raises(EmptySystem):
            canonical_witness([X_GE(1), X_LE(0)])

    def test_single_halfplane_foot_of_perpendicular(self):
        h = Halfplane(Direction(3, 4), 5)  # 3x + 4y <= 5
        assert canonical_witness([h]) == Point(F(3, 5), F(4, 5))

    def test_strip_uses_lower_index_line(self):
        a, b = X_LE(2), X_GE(-3)
        assert canonical_witness([a, b]) == Point(2, 0)
        assert canonical_witness([b, a]) == Point(-3, 0)
        # Repeated directions: the tightest line of each side, at its first
        # index, and of the two the one with the lower index.
        assert canonical_witness([X_LE(5), X_GE(-1), X_LE(2), X_LE(2)]) == Point(-1, 0)
        assert canonical_witness([X_LE(5), X_LE(2), X_GE(-1), X_LE(2)]) == Point(2, 0)
        assert canonical_witness([X_GE(-1), X_LE(2), X_GE(-1), X_LE(2)]) == Point(-1, 0)
        assert canonical_witness([X_LE(2), X_GE(-3), X_GE(-1), X_GE(-1)]) == Point(2, 0)
        # Bounds on one side only: the tightest of them, whichever side.
        assert canonical_witness([X_LE(5), X_LE(2), X_LE(2)]) == Point(2, 0)
        assert canonical_witness([X_GE(-3), X_GE(1), X_GE(1)]) == Point(1, 0)
        assert canonical_witness([SUM_LE(3), SUM_LE(1)]) == Point(F(1, 2), F(1, 2))
        assert feasible([X_GE(-1), X_LE(5), X_LE(-2), X_GE(-1)]) is None

    def test_degenerate_strip_is_line(self):
        assert canonical_witness([X_LE(2), X_GE(2)]) == Point(2, 0)

    def test_deterministic(self):
        sys = [Y_GE(0), SUM_LE(3), X_GE(-1)]
        assert canonical_witness(sys) == canonical_witness(sys)


class TestRegionVertices:
    def test_each_vertex_once(self):
        # Three boundary lines meet at the origin, inside a bounding triangle
        # (x + y >= -2, x <= 5, y <= 5): the region is the triangle with
        # vertices (0, 0), (-2, 0), (0, -2).
        system = [X_LE(0), Y_LE(0), SUM_LE(0),
                  Halfplane(Direction(-1, -1), 2), X_LE(5), Y_LE(5)]
        assert _plus_vertices(system).count(Point(0, 0)) == 3  # once per pair
        verts = region_vertices(system)
        assert len(verts) == 3
        assert set(verts) == {Point(0, 0), Point(-2, 0), Point(0, -2)}


class TestContains:
    def test_boundary_point(self):
        assert contains(UNIT_TRIANGLE, Point(F(1, 2), F(1, 2)))

    def test_outside_hypotenuse(self):
        assert not contains(UNIT_TRIANGLE, Point(1, 1))

    def test_vertex(self):
        assert contains(UNIT_TRIANGLE, Point(0, 0))

    @settings(max_examples=400, deadline=None)
    @given(halfplanes(), RATIONALS, RATIONALS, RATIONALS)
    def test_side_matches_fraction_sign(self, h, x, y, t):
        # An arbitrary point, the foot of the perpendicular and a point t
        # along the line from it: the last two lie on the line.  `side`
        # reads only the integer forms built in the constructors.
        assert h.row == (h.normal.a, h.normal.b, h.offset.numerator, h.offset.denominator)
        foot = _foot_of_perpendicular(h)
        along = Point(foot.x - t * h.normal.b, foot.y + t * h.normal.a)
        assert _fraction_sign(h, foot) == _fraction_sign(h, along) == 0
        for p in (Point(x, y), foot, along):
            X, Y, W = p.xyw
            assert W > 0 and F(X, W) == p.x and F(Y, W) == p.y
            assert h.side(p) == _fraction_sign(h, p)


def _fraction_vertices(system):
    """`_plus_vertices` before `_farkas` placed the meets: a `Point` for every
    pair's meet, kept if `contains` it.  The slow reference for the vertices."""
    out = []
    for i in range(len(system)):
        for j in range(i + 1, len(system)):
            p = line_intersect(system[i], system[j])
            if p is not None and contains(system, p):
                out.append(p)
    return out


def _unmerged_solve(system):
    """The kernel before it reduced by `tightest`: the slow reference."""
    if not system:
        return Point(0, 0)
    d = system[0].normal
    if all(cross(d, h.normal) == 0 for h in system):
        hi = min((h.offset, i) for i, h in enumerate(system) if h.normal == d)
        lo = min(((h.offset, i) for i, h in enumerate(system) if h.normal != d),
                 default=None)
        if lo is None:
            return _foot_of_perpendicular(system[hi[1]])
        if -lo[0] > hi[0]:
            return None
        return _foot_of_perpendicular(system[min(lo[1], hi[1])])
    return min(_fraction_vertices(system), key=lambda p: (p.x, p.y), default=None)


# Antiparallel pairs, so that strips and repeated directions are common.
NORMALS = [Direction(a, b) for a, b in
           [(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1), (2, -1), (-2, 1)]]


@st.composite
def systems(draw):
    """0-8 halfplanes on 1-4 normals with small offsets: repeated, parallel
    and antiparallel normals, one-sided systems, strips and empty input."""
    pool = draw(st.lists(st.sampled_from(NORMALS), min_size=1, max_size=4, unique=True))
    offsets = st.fractions(min_value=-4, max_value=4, max_denominator=3)
    return draw(st.lists(st.builds(Halfplane, st.sampled_from(pool), offsets), max_size=8))


class TestPlusVertices:
    @settings(max_examples=400, deadline=None)
    @given(systems())
    def test_matches_fraction_vertices(self, system):
        assert _plus_vertices(system) == _fraction_vertices(system)

    @settings(max_examples=400, deadline=None)
    @given(concurrent_systems())
    def test_matches_fraction_vertices_on_concurrent_lines(self, system):
        assert _plus_vertices(system) == _fraction_vertices(system)

    @settings(max_examples=200, deadline=None)
    @given(concurrent_systems())
    def test_farkas_places_each_meet(self, system):
        # At the meet v of lines 1 and 2, sign(S w3) is the sign of
        # c3 - n3 . v, and the weights make the three normals sum to 0.
        rows = [h.row for h in system]
        for i, j in itertools.combinations(range(len(system)), 2):
            v = _fraction_cramer(system[i], system[j])
            if v is None:
                continue
            n1, n2 = system[i].normal, system[j].normal
            for k, h in enumerate(system):
                w1, w2, w3, s = _farkas(rows[i], rows[j], rows[k])
                assert w3 == cross(n1, n2)
                assert w1 * n1.a + w2 * n2.a + w3 * h.normal.a == 0
                assert w1 * n1.b + w2 * n2.b + w3 * h.normal.b == 0
                assert (s * w3 > 0) - (s * w3 < 0) == -_fraction_sign(h, v)


def _fraction_tightest(system):
    """`tightest` before its integer comparison: Direction keys and
    `Fraction.__lt__`.  The slow reference."""
    best = {}
    for h in system:
        kept = best.get(h.normal)
        if kept is None:
            best[h.normal] = h
        elif h.offset < kept.offset:
            del best[h.normal]
            best[h.normal] = h
    return list(best.values())


class TestTightest:
    @settings(max_examples=400, deadline=None)
    @given(systems())
    def test_witness_matches_unmerged_kernel(self, system):
        reference = _unmerged_solve(system)
        assert feasible(system) == reference
        if reference is None:
            with pytest.raises(EmptySystem):
                canonical_witness(system)
        else:
            assert canonical_witness(system) == reference

    @settings(max_examples=100, deadline=None)
    @given(systems())
    def test_one_tightest_per_normal_in_input_order(self, system):
        kept = tightest(system)
        assert len({h.normal for h in kept}) == len(kept)
        for h in kept:
            same = [g for g in system if g.normal == h.normal]
            assert h.offset == min(g.offset for g in same)
        positions = [next(i for i, g in enumerate(system)
                          if g.normal == h.normal and g.offset == h.offset) for h in kept]
        assert positions == sorted(positions)

    def test_later_winner_moves_behind(self):
        assert tightest([X_LE(5), X_GE(-1), X_LE(2)]) == [X_GE(-1), X_LE(2)]

    def test_equal_offsets_keep_the_first(self):
        # The offsets are one number written over 2, 4, 6 and as a float;
        # the integer comparison must see a tie and keep the first object.
        first, *rest = [X_LE(F(1, 2)), X_LE(F(2, 4)), X_LE("3/6"), X_LE(0.5)]
        y_first, y_second = Y_GE(F(-2, 6)), Y_GE(F(-1, 3))
        kept = tightest([first, *rest, y_first, y_second])
        assert kept[0] is first and kept[1] is y_first
        assert tightest([*rest, first])[0] is rest[0]
        # A smaller offset over a larger denominator still wins.
        assert tightest([X_LE(F(1, 2)), X_LE(F(1, 3))]) == [X_LE(F(1, 3))]
        assert tightest([Y_GE(F(1, 2)), Y_GE(F(2, 3))]) == [Y_GE(F(2, 3))]

    @settings(max_examples=200, deadline=None)
    @given(systems())
    def test_matches_fraction_comparison(self, system):
        kept, reference = tightest(system), _fraction_tightest(system)
        assert len(kept) == len(reference)
        assert all(h is g for h, g in zip(kept, reference))

    @pytest.mark.parametrize("class_mode, n", [("general", 5), ("theorem2", 6)])
    def test_minimal_system_matches_per_member_loop(self, class_mode, n):
        for seed in range(6):
            f = planted_family(seed, class_mode, n, 12)
            entries = {}
            for member in f.members:
                for j, c in member.offsets.items():
                    if j not in entries or c < entries[j].offset:
                        entries[j] = f.template.halfplane(j, c)
            assert minimal_system(f).entries == entries

    def test_kernel_meets_distinct_normals_only(self, monkeypatch):
        # The oracle's shape: the joint system of 3 planted members, k
        # halfplanes on u distinct normals, costs at most C(u, 2) meets.
        f = planted_family(0, "general", 5, 12)
        meets = count_calls(monkeypatch, "geometry", "line_intersect")
        for triple in itertools.combinations(range(6), 3):
            system = joint_system(f, triple)
            u = len({h.normal for h in system})
            assert len(system) > u
            meets.clear()
            feasible(system)
            assert len(meets) <= u * (u - 1) // 2

    def test_witness_reduces_once(self, monkeypatch):
        calls = count_calls(monkeypatch, "geometry", "tightest")
        for system in ([], [X_LE(2), X_GE(-3)], [X_GE(1), X_LE(0)], UNIT_TRIANGLE):
            calls.clear()
            feasible(system)
            assert len(calls) == 1


def _enumerating_solve(system):
    """The kernel before `plus_empty`: it decided emptiness by enumerating
    vertices.  The slow reference for the certificate search."""
    system = tightest(system)
    if not system:
        return Point(0, 0)
    first = system[0]
    if len(system) == 1:
        return _foot_of_perpendicular(first)
    if len(system) == 2 and cross(first.normal, system[1].normal) == 0:
        if first.offset + system[1].offset < 0:
            return None
        return _foot_of_perpendicular(first)
    return min(_fraction_vertices(system), key=lambda p: (p.x, p.y), default=None)


def _matrix_search_certificate(system):
    """`_search_certificate` before its inline crosses: a u x u matrix of
    `cross` calls.  The slow reference for the certificates."""
    normals = [h.normal for h in system]
    nums = [h.offset.numerator for h in system]
    dens = [h.offset.denominator for h in system]
    for i, j in itertools.combinations(range(len(system)), 2):
        if (normals[i].a == -normals[j].a and normals[i].b == -normals[j].b
                and nums[i] * dens[j] + nums[j] * dens[i] < 0):
            return (system[i], system[j]), (1, 1)
    crosses = [[cross(d1, d2) for d2 in normals] for d1 in normals]
    for i, j in itertools.combinations(range(len(system)), 2):
        wk = crosses[i][j]
        if wk == 0:
            continue
        for k in range(j + 1, len(system)):
            wi, wj = crosses[j][k], crosses[k][i]
            if wi * wk > 0 and wj * wk > 0:
                weights = (abs(wi), abs(wj), abs(wk))
                if (weights[0] * nums[i] * dens[j] * dens[k]
                        + weights[1] * nums[j] * dens[i] * dens[k]
                        + weights[2] * nums[k] * dens[i] * dens[j]) < 0:
                    return (system[i], system[j], system[k]), weights
    return None


def _certifies(system, certificate) -> bool:
    """Farkas' identity in Fractions: the certificate's halfplanes come from
    `system`, its weights are positive integers, the weighted normals sum to
    0 and the weighted offsets to a negative number."""
    halfplanes, weights = certificate
    return (len(halfplanes) == len(weights) > 0
            and all(h in system for h in halfplanes)
            and all(type(w) is int and w > 0 for w in weights)
            and sum(w * h.normal.a for w, h in zip(weights, halfplanes)) == 0
            and sum(w * h.normal.b for w, h in zip(weights, halfplanes)) == 0
            and sum(w * h.offset for w, h in zip(weights, halfplanes)) < 0)


def _hp(case) -> Halfplane:
    (a, b), c = case
    return Halfplane(Direction(a, b), F(c))


class TestPlusEmpty:
    @settings(max_examples=400, deadline=None)
    @given(systems())
    def test_matches_enumerating_kernel(self, system):
        certificate = plus_empty(system)
        assert (certificate is None) == (_enumerating_solve(system) is not None)
        assert certificate is None or _certifies(system, certificate)

    @settings(max_examples=400, deadline=None)
    @given(systems())
    def test_search_matches_cross_matrix_search(self, system):
        reduced = tightest(system)
        certificate = _search_certificate(reduced)
        reference = _matrix_search_certificate(reduced)
        assert certificate == reference
        if reference is not None:
            assert all(h is g for h, g in zip(certificate[0], reference[0]))
            assert all(type(w) is int for w in certificate[1])

    def test_matches_frozen_exactness_cases(self):
        for triple, empty in TRIPLE_EMPTINESS:
            hs = [_hp(c) for c in triple]
            certificate = plus_empty(hs)
            assert (certificate is not None) is empty
            assert certificate is None or _certifies(hs, certificate)
        for system, witness in FEASIBILITY_WITNESSES:
            hs = [_hp(c) for c in system]
            certificate = plus_empty(hs)
            assert (certificate is None) == (witness is not None)
            assert certificate is None or _certifies(hs, certificate)

    def test_certificates(self):
        assert plus_empty([X_GE(1), X_LE(0)]) == ((X_GE(1), X_LE(0)), (1, 1))
        assert plus_empty([X_GE(1), Y_GE(1), SUM_LE(1)]) == (
            (X_GE(1), Y_GE(1), SUM_LE(1)), (1, 1, 1))
        # The tightest halfplane per normal carries the certificate.
        assert plus_empty([X_LE(3), X_GE(1), X_LE(0)]) == ((X_GE(1), X_LE(0)), (1, 1))
        # x <= 0 and y <= 0 meet two empty triples; the first in search
        # order certifies.
        two_triples = [X_LE(0), Y_LE(0), Halfplane(Direction(-1, -1), -1),
                       Halfplane(Direction(-1, -2), -1)]
        assert plus_empty(two_triples) == (tuple(two_triples[:3]), (1, 1, 1))
        assert plus_empty(two_triples[:2] + two_triples[3:]) == (
            (X_LE(0), Y_LE(0), Halfplane(Direction(-1, -2), -1)), (1, 2, 1))
        assert plus_empty([]) is None
        assert plus_empty(UNIT_TRIANGLE) is None
        assert plus_empty([X_GE(0), Y_GE(0), SUM_LE(0)]) is None  # one point

    def test_forged_certificate_raises_under_python_O(self):
        # The certificate check is a raised error, not an assert that -O strips.
        code = (
            "from polypierce import *\n"
            "from polypierce import geometry\n"
            "geometry._search_certificate = lambda system: (tuple(system[:2]), (1, 1))\n"
            "try:\n"
            "    geometry.plus_empty([Halfplane(Direction(1, 0), 0),"
            " Halfplane(Direction(-1, 0), 1)])\n"
            "except ClaimViolation as exc:\n"
            "    print(exc.claim, __debug__)\n"
        )
        src = os.path.dirname(os.path.dirname(polypierce.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["farkas-certificate", "False"]

    def test_square_witness_meets_each_vertex_once(self, monkeypatch):
        # Only the four vertices of the unit square get a `Point`; its two
        # parallel pairs are skipped.
        meets = count_calls(monkeypatch, "geometry", "line_intersect")
        assert canonical_witness([X_GE(0), Y_GE(0), X_LE(1), Y_LE(1)]) == Point(0, 0)
        assert len(meets) == 4

    def test_polygon_witness_skips_search(self, monkeypatch):
        searches = count_calls(monkeypatch, "geometry", "_search_certificate")
        assert canonical_witness(UNIT_TRIANGLE) == Point(0, 0)
        assert canonical_witness([X_GE(0), Y_GE(0), X_LE(1), Y_LE(1)]) == Point(0, 0)
        assert searches == []
        assert feasible([X_GE(1), Y_GE(1), SUM_LE(1)]) is None
        assert len(searches) == 1

    def test_witness_outside_region_raises(self, monkeypatch):
        monkeypatch.setattr("polypierce.geometry._plus_vertices",
                            lambda system: [Point(1, 1)])
        with pytest.raises(ClaimViolation, match="^kernel-agreement"):
            feasible(UNIT_TRIANGLE)

    def test_witness_without_vertex_raises(self, monkeypatch):
        monkeypatch.setattr("polypierce.geometry._plus_vertices", lambda system: [])
        with pytest.raises(ClaimViolation, match="^kernel-agreement"):
            feasible(UNIT_TRIANGLE)
        # A line or a strip has no vertex, and its witness needs none.
        assert feasible([X_LE(2)]) == Point(2, 0)
        assert feasible([X_LE(2), X_GE(-3)]) == Point(2, 0)
        assert feasible([X_GE(1), X_LE(0)]) is None
