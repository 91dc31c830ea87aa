"""`geometry.angle_key` is the one angular order.  These tests compare it
with the references it replaced: a cmp function over directions, the float
order of `math.atan2`, and the float-sorted template draw."""

import functools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from polypierce.errors import GenerationExhausted
from polypierce.generate import COORD_RANGE, RETRY_LIMIT, GenConfig, random_template
from polypierce.geometry import Direction, Point, angle_key
from polypierce.render import _display_order


def reference_angle_cmp(v, w):
    """Polar order on [0, 2pi) from the +x axis: half-turn, then cross product."""
    h1, h2 = (0 if (y > 0 or (y == 0 and x > 0)) else 1 for x, y in (v, w))
    if h1 != h2:
        return -1 if h1 < h2 else 1
    c = v[0] * w[1] - v[1] * w[0]
    return (c < 0) - (c > 0)


def key_cmp(v, w):
    k1, k2 = angle_key(*v), angle_key(*w)
    return (k1 > k2) - (k1 < k2)


COMPONENT = st.integers(-10**6, 10**6)
NONZERO = st.tuples(COMPONENT, COMPONENT).filter(lambda v: v != (0, 0))
AXES = [(1, 0), (0, 1), (-1, 0), (0, -1), (7, 0), (0, 7), (-7, 0), (0, -7)]


class TestAngleKey:
    @settings(max_examples=500, deadline=None)
    @given(NONZERO, NONZERO)
    def test_matches_the_cmp_reference(self, v, w):
        assert key_cmp(v, w) == reference_angle_cmp(v, w)

    @settings(max_examples=200, deadline=None)
    @given(NONZERO, st.integers(1, 5))
    def test_antiparallel_and_parallel_pairs(self, v, k):
        for w in ((-v[0], -v[1]), (k * v[0], k * v[1]), (-k * v[0], -k * v[1])):
            assert key_cmp(v, w) == reference_angle_cmp(v, w)
            assert key_cmp(w, v) == reference_angle_cmp(w, v)

    def test_axes(self):
        for v in AXES:
            for w in AXES:
                assert key_cmp(v, w) == reference_angle_cmp(v, w)

    def test_rational_parts_and_zero_vector(self):
        assert angle_key(Fraction(1, 3), Fraction(2, 3)) == angle_key(1, 2)
        assert angle_key(Fraction(-1, 2), 0) == angle_key(-5, 0)
        assert angle_key(0, 0) == angle_key(3, 0) < angle_key(1, 1)

    def test_sorts_template_normals_from_angle_0(self):
        square = [Direction(0, -1), Direction(-1, 0), Direction(0, 1), Direction(1, 0)]
        assert sorted(square, key=lambda d: angle_key(d.a, d.b)) == square[::-1]


class TestRenderOrder:
    @pytest.mark.parametrize("r", [1, 3, 6])
    def test_matches_atan2_on_small_integer_vectors(self, r):
        # A grid symmetric about 0 has centroid 0, so the display order sorts
        # the vectors themselves, the zero vector included.  On parts this
        # small the floats of math.atan2 order exactly, ties included.
        grid = [Point(x, y) for x in range(-r, r + 1) for y in range(-r, r + 1)]
        random.Random(r).shuffle(grid)
        by_atan2 = sorted(grid, key=lambda p: math.atan2(p.y, p.x))
        assert _display_order(grid) == by_atan2


def reference_general_template(rng, n):
    """The float algorithm the exact draw replaced: sort around the centroid
    by `math.atan2`, check strict convexity on the points, sort the normals
    with a cmp function."""
    for _ in range(RETRY_LIMIT):
        pts = [(rng.randint(-COORD_RANGE, COORD_RANGE), rng.randint(-COORD_RANGE, COORD_RANGE))
               for _ in range(n)]
        cx, cy = sum(p[0] for p in pts) / n, sum(p[1] for p in pts) / n
        ordered = sorted(pts, key=lambda p: math.atan2(p[1] - cy, p[0] - cx))
        if len(set(ordered)) != n:
            continue
        if any((bx - ax) * (cy_ - ay) - (by - ay) * (cx_ - ax) <= 0
               for (ax, ay), (bx, by), (cx_, cy_)
               in ((ordered[i], ordered[(i + 1) % n], ordered[(i + 2) % n])
                   for i in range(n))):
            continue
        pairs = []
        for i in range(n):
            (ax, ay), (bx, by) = ordered[i], ordered[(i + 1) % n]
            normal = Direction(by - ay, -(bx - ax))
            pairs.append(((normal.a, normal.b), Fraction(normal.a * ax + normal.b * ay)))
        pairs.sort(key=functools.cmp_to_key(lambda p, q: reference_angle_cmp(p[0], q[0])))
        return pairs
    return "exhausted"


@pytest.mark.parametrize("n", range(3, 10))
def test_random_template_matches_the_float_reference(n):
    for seed in range(200):
        cfg = GenConfig(seed=seed, n=n)
        want = reference_general_template(random.Random(f"{seed}|template|{n}|general"), n)
        try:
            t = random_template(cfg)
        except GenerationExhausted:
            got = "exhausted"
        else:
            got = [((d.a, d.b), c) for d, c in zip(t.normals, t.reference_offsets)]
        assert got == want, (n, seed)
