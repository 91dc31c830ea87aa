"""Exact rational 2D kernel: points, directions, halfplanes, predicates.

All coordinates are `fractions.Fraction`; every predicate is decided exactly.
A halfplane is stored as an outward normal plus an offset.  Its plus side is
{p : normal . p <= offset}, the minus side is {p : normal . p >= offset}, and
the two sides share the boundary line.

`plus_empty` is the one routine that decides whether a plus-intersection is
empty.  By Helly's theorem in the plane the intersection is empty iff that of
some pair or triple of its halfplanes is, and Farkas' lemma gives each empty
one a certificate: positive integer weights under which the normals sum to 0
and the offsets to a negative number.  `plus_empty` checks that identity
before it answers "empty".  `tightest` is the one owner of the rule that a
plus-intersection depends only on the tightest halfplane per normal:
`plus_empty` searches its output, the witness (`_solve`) searches and
enumerates on it, and `family.minimal_system` reads its entries from it.
`_plus_vertices` is the one place that enumerates meets of boundary lines, and
it is reached only for points: the witness of a nonempty system, the region's
vertices (`region_vertices`) and, through them, template validation and SVG
clipping.
`Halfplane.side` is the one sign predicate, decided in integers: `contains`
(the one plus-side containment predicate) and every on-line or minus-side
check ask it.  `Fraction`s are built only for coordinates a caller keeps.

The witness depends only on the region, except in a strip (all normals
parallel), where the tie goes to the earlier of the two tightest lines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Optional, Sequence

from .errors import ClaimViolation, EmptySystem


def _frac(v) -> Fraction:
    if isinstance(v, Fraction):
        return v
    return Fraction(v)


@dataclass(frozen=True)
class Point:
    x: Fraction
    y: Fraction

    def __init__(self, x, y):
        object.__setattr__(self, "x", _frac(x))
        object.__setattr__(self, "y", _frac(y))

    def __add__(self, other: "Point") -> "Point":
        return Point(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Point") -> "Point":
        return Point(self.x - other.x, self.y - other.y)

    def scale(self, s) -> "Point":
        s = _frac(s)
        return Point(self.x * s, self.y * s)

    def __repr__(self):
        return f"Point({self.x}, {self.y})"


def midpoint(p: Point, q: Point) -> Point:
    return Point((p.x + q.x) / 2, (p.y + q.y) / 2)


@dataclass(frozen=True)
class Direction:
    """Primitive integer outward-normal vector; equality is field equality."""

    a: int
    b: int

    def __init__(self, a: int, b: int):
        if a == 0 and b == 0:
            raise ValueError("zero direction")
        g = math.gcd(abs(a), abs(b))
        object.__setattr__(self, "a", a // g)
        object.__setattr__(self, "b", b // g)

    def dot(self, p: Point) -> Fraction:
        return self.a * p.x + self.b * p.y

    def neg(self) -> "Direction":
        return Direction(-self.a, -self.b)

    def __repr__(self):
        return f"Direction({self.a}, {self.b})"


def cross(d1: Direction, d2: Direction) -> int:
    return d1.a * d2.b - d1.b * d2.a


def angle_cmp(d1: Direction, d2: Direction) -> int:
    """Exact polar order on [0, 2pi) from the +x axis, as a cmp function.

    Directions in different half-turns compare by half-turn; within one, a
    cross product decides.
    """
    h1, h2 = (0 if (d.b > 0 or (d.b == 0 and d.a > 0)) else 1 for d in (d1, d2))
    if h1 != h2:
        return -1 if h1 < h2 else 1
    c = cross(d1, d2)
    if c > 0:
        return -1
    if c < 0:
        return 1
    return 0


@dataclass(frozen=True)
class Halfplane:
    normal: Direction
    offset: Fraction

    def __init__(self, normal: Direction, offset):
        object.__setattr__(self, "normal", normal)
        object.__setattr__(self, "offset", _frac(offset))

    def side(self, p: Point) -> int:
        """Sign of normal . p - offset: -1 strictly on the plus side, 0 on the
        line, 1 strictly on the minus side.  Integer work only, the positive
        denominators cleared: this is the innermost test of every kernel call."""
        n, x, y, c = self.normal, p.x, p.y, self.offset
        lhs = n.a * x.numerator * y.denominator + n.b * y.numerator * x.denominator
        diff = lhs * c.denominator - c.numerator * x.denominator * y.denominator
        return (diff > 0) - (diff < 0)

    def __repr__(self):
        return f"Halfplane({self.normal!r}, {self.offset})"


def line_intersect(h1: Halfplane, h2: Halfplane) -> Optional[Point]:
    """Intersection point of the two boundary lines; None when parallel."""
    d = cross(h1.normal, h2.normal)
    if d == 0:
        return None
    # Cramer's rule on the offsets' integer numerators and denominators.
    a1, b1, p1, q1 = h1.normal.a, h1.normal.b, h1.offset.numerator, h1.offset.denominator
    a2, b2, p2, q2 = h2.normal.a, h2.normal.b, h2.offset.numerator, h2.offset.denominator
    den = d * q1 * q2
    return Point(Fraction(p1 * q2 * b2 - p2 * q1 * b1, den),
                 Fraction(a1 * p2 * q1 - a2 * p1 * q2, den))


def contains(halfplanes: Iterable[Halfplane], p: Point) -> bool:
    """Closed containment in the intersection of the plus sides."""
    return all(h.side(p) <= 0 for h in halfplanes)


def _foot_of_perpendicular(h: Halfplane) -> Point:
    """Point of h's boundary line nearest the origin (always rational)."""
    a, b, c = h.normal.a, h.normal.b, h.offset
    n2 = a * a + b * b
    return Point(Fraction(a * c.numerator, n2 * c.denominator),
                 Fraction(b * c.numerator, n2 * c.denominator))


def _plus_vertices(system: Sequence[Halfplane]) -> list[Point]:
    """Every meet of two boundary lines that lies in all plus sides.

    Pairs are taken in index order (i < j); a point where more than two
    boundary lines meet appears once per pair.
    """
    out = []
    for i in range(len(system)):
        for j in range(i + 1, len(system)):
            p = line_intersect(system[i], system[j])
            if p is not None and contains(system, p):
                out.append(p)
    return out


def tightest(system: Sequence[Halfplane]) -> list[Halfplane]:
    """For each normal, the first halfplane with the smallest offset.

    The plus-intersection is unchanged: every dropped halfplane's plus side
    contains the kept one's.  Winners stay in the order they appear in the
    input, so a later winner is popped and re-inserted.  Normals are keyed by
    their (a, b) pair and offsets compared by integer cross-multiplication
    (denominators are positive), since this runs on every kernel call.
    """
    best: dict[tuple[int, int], Halfplane] = {}
    for h in system:
        key = (h.normal.a, h.normal.b)
        kept = best.get(key)
        if kept is None:
            best[key] = h
        elif (h.offset.numerator * kept.offset.denominator
              < kept.offset.numerator * h.offset.denominator):
            del best[key]
            best[key] = h
    return list(best.values())


# A Farkas certificate of an empty plus-intersection: some of the system's
# halfplanes and one positive integer weight per halfplane.
Certificate = tuple[tuple[Halfplane, ...], tuple[int, ...]]


def _check_certificate(certificate: Optional[Certificate]) -> Optional[Certificate]:
    """The search's answer, once a certificate in it passes Farkas' identity
    for an empty plus-intersection: every weight is a positive integer, the
    weighted normals sum to 0 and the weighted offsets to a negative number.
    A plain check, so it runs under `python -O`."""
    if certificate is None:
        return None
    halfplanes, weights = certificate
    lcm = math.lcm(*(h.offset.denominator for h in halfplanes))
    if not (len(weights) == len(halfplanes) > 0
            and all(isinstance(w, int) and w > 0 for w in weights)
            and sum(w * h.normal.a for w, h in zip(weights, halfplanes)) == 0
            and sum(w * h.normal.b for w, h in zip(weights, halfplanes)) == 0
            and sum(w * h.offset.numerator * (lcm // h.offset.denominator)
                    for w, h in zip(weights, halfplanes)) < 0):
        raise ClaimViolation(
            "farkas-certificate",
            f"weights {list(weights)} do not certify {list(halfplanes)} empty")
    return certificate


def _search_certificate(system: Sequence[Halfplane]) -> Optional[Certificate]:
    """The first empty antiparallel pair, else the first empty triple of
    pairwise non-parallel normals, with its Farkas weights; None if neither.

    `system` has one halfplane per normal.  A pair d, -d is empty iff its
    offsets sum below 0.  Three pairwise non-parallel normals satisfy
    cross(n2, n3) n1 + cross(n3, n1) n2 + cross(n1, n2) n3 = 0, and these are
    their only weights with zero sum up to scale; the triple is empty iff the
    three weights share a sign and, made positive, weight the offsets to a
    negative sum.  A triple holding a parallel pair is empty iff that pair is.
    Offset sums are signed in integers, with the denominators multiplied out.
    """
    normals = [(h.normal.a, h.normal.b) for h in system]
    nums = [h.offset.numerator for h in system]
    dens = [h.offset.denominator for h in system]
    for i, j in combinations(range(len(system)), 2):
        if (normals[i][0] == -normals[j][0] and normals[i][1] == -normals[j][1]
                and nums[i] * dens[j] + nums[j] * dens[i] < 0):
            return (system[i], system[j]), (1, 1)
    for i, j in combinations(range(len(system)), 2):
        (ai, bi), (aj, bj) = normals[i], normals[j]
        wk = ai * bj - bi * aj
        if wk == 0:
            continue
        for k in range(j + 1, len(system)):
            ak, bk = normals[k]
            wi, wj = aj * bk - bj * ak, ak * bi - bk * ai
            if wi * wk > 0 and wj * wk > 0:
                weights = (abs(wi), abs(wj), abs(wk))
                if (weights[0] * nums[i] * dens[j] * dens[k]
                        + weights[1] * nums[j] * dens[i] * dens[k]
                        + weights[2] * nums[k] * dens[i] * dens[j]) < 0:
                    return (system[i], system[j], system[k]), weights
    return None


def plus_empty(system: Sequence[Halfplane]) -> Optional[Certificate]:
    """None iff the plus-intersection is nonempty; otherwise a checked Farkas
    certificate (halfplanes, positive integer weights) of its emptiness.

    By Helly's theorem in the plane the intersection is empty iff that of
    some pair or triple is, so after `tightest` only antiparallel pairs and
    triples of pairwise non-parallel normals are searched.
    """
    return _check_certificate(_search_certificate(tightest(system)))


def _solve(system: Sequence[Halfplane]) -> Optional[Point]:
    """Deterministic witness of the plus-side intersection, or None if empty.

    The system is reduced by `tightest` once, which leaves the region and
    its vertices unchanged, and `plus_empty`'s checked search decides on it
    whether it is empty.
    When the region has a vertex the witness is its lexicographically
    smallest one (min x, then min y).  Vertex-free nonempty regions only
    occur when all normals are parallel; those fall back to the point
    nearest the origin on the first remaining line, so in a strip the tie
    goes to the earlier of the two tightest lines.
    """
    system = tightest(system)
    if _check_certificate(_search_certificate(system)) is not None:
        return None
    if not system:
        return Point(0, 0)
    first = system[0]
    if len(system) == 1 or (len(system) == 2 and cross(first.normal, system[1].normal) == 0):
        return _foot_of_perpendicular(first)
    # At most two of the distinct normals are parallel, so some pair is
    # independent: a nonempty region has a vertex, and every vertex is the
    # meet of two boundary lines.
    witness = min(_plus_vertices(system), key=lambda p: (p.x, p.y), default=None)
    if witness is None:
        raise ClaimViolation(
            "kernel-agreement",
            f"no vertex in the plus-intersection of {system}, "
            "which plus_empty found nonempty")
    return witness


def feasible(system: Sequence[Halfplane]) -> Optional[Point]:
    """A point of the intersection of all plus sides, or None iff empty."""
    return _solve(system)


def canonical_witness(system: Sequence[Halfplane]) -> Point:
    """Deterministic point of a feasible system; raises EmptySystem otherwise."""
    p = _solve(system)
    if p is None:
        raise EmptySystem("halfplane system has empty plus-intersection")
    return p


def triple_plus_empty(h1: Halfplane, h2: Halfplane, h3: Halfplane) -> bool:
    """True iff the three plus sides have empty common intersection."""
    return plus_empty((h1, h2, h3)) is not None


def region_vertices(system: Sequence[Halfplane]) -> list[Point]:
    """The distinct vertices of the plus-intersection, in no particular order.

    Intended for bounded regions (rendering, template validation); for
    unbounded regions it returns whatever vertices exist.
    """
    return list(dict.fromkeys(_plus_vertices(system)))
