"""Exact rational 2D kernel: points, directions, halfplanes, predicates.

All coordinates are `fractions.Fraction`; every predicate is decided exactly.
`angle_key` is the one angular order, and no geometric decision uses a
float: only the SVG's pixel coordinates are floats.
A halfplane is stored as an outward normal plus an offset.  Its plus side is
{p : normal . p <= offset}, the minus side is {p : normal . p >= offset}, and
the two sides share the boundary line.  Each value builds its integers once:
a `Halfplane` its row (a, b, p, q), a x + b y <= p / q with q > 0, and a
`Point` its homogeneous (X, Y, W), W > 0.  The kernel computes on these only.

`plus_empty` decides whether a plus-intersection is empty; on the members of
a `Family`, `family.joint_empty` decides it by the same test from the
family's integer Farkas table.  By Helly's theorem in the plane the
intersection is empty iff that of some pair or triple of its halfplanes is,
and Farkas' lemma gives each empty one a certificate: positive integer
weights under which the normals sum to 0 and the offsets to a negative
number.  `_check_certificate` checks it on the offsets' `Fraction`s, apart
from the search's rows and the family's table.  `tightest` is the one
owner of the rule that a plus-intersection depends only on the tightest
halfplane per normal: `plus_empty` searches its output, the witness
(`_solve`) enumerates on it, and `family.minimal_system` reads its entries.
`Halfplane.side` is the one sign predicate on points: `contains` (the one
plus-side containment predicate), every on-line or minus-side check and the
check of every witness ask it.  `_farkas` is the one sign on line triples: it
decides both a triple's emptiness and whether the meet of two lines is on a
third's plus side, so `_plus_vertices` (witnesses, `region_vertices`) builds
a `Point` only for a vertex.

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
        x, y = _frac(x), _frac(y)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "xyw", (x.numerator * y.denominator,
                                         y.numerator * x.denominator,
                                         x.denominator * y.denominator))

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


def angle_key(x, y) -> tuple:
    """Sort key of the vector's angle on [0, 2pi) from the +x axis, exact on
    integer or rational parts; the zero vector sorts with angle 0.

    Quarter-turn buckets: angle 0, (0, pi), pi, (pi, 2pi); within each open
    half the angle grows with -x / y.
    """
    if y:
        return (1 if y > 0 else 3), Fraction(-x, y)
    return (0 if x >= 0 else 2), 0


@dataclass(frozen=True)
class Halfplane:
    normal: Direction
    offset: Fraction

    def __init__(self, normal: Direction, offset):
        offset = _frac(offset)
        object.__setattr__(self, "normal", normal)
        object.__setattr__(self, "offset", offset)
        object.__setattr__(self, "row", (normal.a, normal.b,
                                         offset.numerator, offset.denominator))

    def side(self, p: Point) -> int:
        """Sign of normal . p - offset: -1 strictly on the plus side, 0 on the
        line, 1 strictly on the minus side.  Integer work only, on the row and
        the point's (X, Y, W): the innermost test of every kernel call."""
        (a, b, c, q), (x, y, w) = self.row, p.xyw
        diff = (a * x + b * y) * q - c * w
        return (diff > 0) - (diff < 0)

    def __repr__(self):
        return f"Halfplane({self.normal!r}, {self.offset})"


def line_intersect(h1: Halfplane, h2: Halfplane) -> Optional[Point]:
    """Intersection point of the two boundary lines; None when parallel."""
    d = cross(h1.normal, h2.normal)
    if d == 0:
        return None
    # Cramer's rule on the two rows.
    (a1, b1, p1, q1), (a2, b2, p2, q2) = h1.row, h2.row
    den = d * q1 * q2
    return Point(Fraction(p1 * q2 * b2 - p2 * q1 * b1, den),
                 Fraction(a1 * p2 * q1 - a2 * p1 * q2, den))


def contains(halfplanes: Iterable[Halfplane], p: Point) -> bool:
    """Closed containment in the intersection of the plus sides."""
    return all(h.side(p) <= 0 for h in halfplanes)


def _foot_of_perpendicular(h: Halfplane) -> Point:
    """Point of h's boundary line nearest the origin: its meet with the
    perpendicular line through the origin."""
    return line_intersect(h, Halfplane(Direction(-h.normal.b, h.normal.a), 0))


def _farkas(r1, r2, r3) -> tuple[int, int, int, int]:
    """Farkas' sum over three lines given as rows (`Halfplane.row`): the weights
    w1 = cross(n2, n3), w2 = cross(n3, n1), w3 = cross(n1, n2), under which
    the normals sum to 0 (if no two are parallel, the only such weights up to
    scale), and S, the weighted offsets' sum times q1 q2 q3.

    So three pairwise non-parallel plus sides meet nowhere iff the weights
    share a sign s and s S < 0.  Where w3 != 0 the meet v of lines 1 and 2
    has n3 . v - c3 = -S / (w3 q1 q2 q3): v is in plus side 3 iff S w3 >= 0.
    """
    (a1, b1, p1, q1), (a2, b2, p2, q2), (a3, b3, p3, q3) = r1, r2, r3
    w1, w2, w3 = a2 * b3 - b2 * a3, a3 * b1 - b3 * a1, a1 * b2 - b1 * a2
    return w1, w2, w3, w1 * p1 * q2 * q3 + w2 * p2 * q1 * q3 + w3 * p3 * q1 * q2


def _plus_vertices(system: Sequence[Halfplane]) -> list[Point]:
    """Every meet of two boundary lines that lies in all plus sides.

    Pairs are taken in index order (i < j); a point where more than two
    boundary lines meet appears once per pair.  Each meet is placed by
    `_farkas` against every line, and a `Point` is built only for a vertex.
    """
    rows = [h.row for h in system]
    out = []
    for i, j in combinations(range(len(rows)), 2):
        if cross(system[i].normal, system[j].normal) != 0 and all(
                s * w3 >= 0 for _, _, w3, s in (_farkas(rows[i], rows[j], r) for r in rows)):
            out.append(line_intersect(system[i], system[j]))
    return out


def tightest(system: Sequence[Halfplane]) -> list[Halfplane]:
    """For each normal, the first halfplane with the smallest offset.

    The plus-intersection is unchanged: every dropped halfplane's plus side
    contains the kept one's.  Winners stay in the order they appear in the
    input, so a later winner is popped and re-inserted.  Normals are keyed by
    their rows' (a, b) and offsets p / q compared by cross-multiplication
    (q > 0), since this runs on every kernel call.
    """
    best: dict[tuple[int, int], Halfplane] = {}
    for h in system:
        a, b, p, q = h.row
        kept = best.get((a, b))
        if kept is None:
            best[a, b] = h
        elif p * kept.row[3] < kept.row[2] * q:
            del best[a, b]
            best[a, b] = h
    return list(best.values())


# A Farkas certificate of an empty plus-intersection: some of the system's
# halfplanes and one positive integer weight per halfplane.
Certificate = tuple[tuple[Halfplane, ...], tuple[int, ...]]


def _check_certificate(certificate: Optional[Certificate]) -> Optional[Certificate]:
    """The search's answer, once a certificate in it passes Farkas' identity
    for an empty plus-intersection: every weight is a positive integer, the
    weighted normals sum to 0 and the weighted offsets to a negative number.
    A plain check, so it runs under `python -O`.  It reads the offsets'
    `Fraction`s, not the search's rows."""
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
    offsets sum below 0; `_farkas` tests a triple, and one holding a
    parallel pair is empty iff that pair is.
    """
    rows = [h.row for h in system]
    for i, j in combinations(range(len(rows)), 2):
        (ai, bi, pi, qi), (aj, bj, pj, qj) = rows[i], rows[j]
        if ai == -aj and bi == -bj and pi * qj + pj * qi < 0:
            return (system[i], system[j]), (1, 1)
    for i, j, k in combinations(range(len(rows)), 3):
        w1, w2, w3, s = _farkas(rows[i], rows[j], rows[k])
        if w1 * w3 > 0 and w2 * w3 > 0 and s * w3 < 0:
            return (system[i], system[j], system[k]), (abs(w1), abs(w2), abs(w3))
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

    On the system reduced once by `tightest` (same region, same vertices)
    the witness is the lexicographically smallest vertex (min x, then min
    y).  Only a region with no vertex asks `plus_empty`'s checked search; if
    it is nonempty all its normals are parallel, and the witness is the point
    nearest the origin on the first line, so in a strip the tie goes to the
    earlier of the two tightest lines.  `contains` checks every witness.
    """
    system = tightest(system)
    witness = min(_plus_vertices(system), key=lambda p: (p.x, p.y), default=None)
    if witness is None:
        if _check_certificate(_search_certificate(system)) is not None:
            return None
        # Two non-parallel normals in a nonempty region make a vertex.
        if any(cross(system[0].normal, h.normal) != 0 for h in system):
            raise ClaimViolation(
                "kernel-agreement",
                f"no vertex in the plus-intersection of {system}, "
                "which plus_empty found nonempty")
        witness = _foot_of_perpendicular(system[0]) if system else Point(0, 0)
    if not contains(system, witness):
        raise ClaimViolation(
            "kernel-agreement",
            f"witness {witness} is outside the plus-intersection of {system}")
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
