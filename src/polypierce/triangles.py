"""Negative (empty) triangles of a minimal system and their edge midpoints.

A direction triple is empty when the three minimal plus sides have empty
common intersection; the minus sides then bound a positive-area triangle.
The midpoints of its edges span the medial triangle that drives the piercing
recursions.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import ClaimViolation, DegenerateTriple
from .family import MinimalSystem
from .geometry import Point, line_intersect, midpoint, triple_plus_empty


@dataclass(frozen=True)
class EmptyTriangle:
    dirs: tuple[int, int, int]
    vertices: tuple[Point, Point, Point]
    midpoints: tuple[Point, Point, Point]


def _build_triangle(ms: MinimalSystem, dirs: tuple[int, int, int]) -> EmptyTriangle:
    sides = tuple(ms.entries[j] for j in dirs)
    e1, e2, e3 = sides
    v12 = line_intersect(e1, e2)
    v13 = line_intersect(e1, e3)
    v23 = line_intersect(e2, e3)
    if v12 is None or v13 is None or v23 is None:
        raise DegenerateTriple(
            f"direction triple {dirs} has parallel minimal boundary lines"
        )
    # Plus-emptiness rules out concurrent lines (a shared point would be in
    # every closed plus side), so the triangle has positive area: for three
    # pairwise non-parallel lines, zero area means e3 passes through v12.
    if e3.side(v12) == 0:
        raise ClaimViolation(
            "triangle-area", f"direction triple {dirs} has concurrent minimal boundary lines"
        )
    # Vertex t is opposite side t; midpoint t is the midpoint of the edge on
    # boundary line t (the two vertices lying on that line).
    vertices = (v23, v13, v12)
    midpoints = (midpoint(v12, v13), midpoint(v12, v23), midpoint(v13, v23))
    for t in range(3):
        if sides[t].side(midpoints[t]) != 0:
            raise ClaimViolation(
                "triangle-midpoint", f"midpoint {t} of triple {dirs} is off its side"
            )
    return EmptyTriangle(dirs=dirs, vertices=vertices, midpoints=midpoints)


def _empty_dirs(ms: MinimalSystem):
    """The empty direction triples of `ms`, in sorted order.  Both public
    functions read this loop; neither calls the other, whose span would nest."""
    for dirs in combinations(ms.dirs(), 3):
        if triple_plus_empty(*(ms.entries[j] for j in dirs)):
            yield dirs


def enumerate_empty_triangles(ms: MinimalSystem) -> list[EmptyTriangle]:
    """One triangle per empty direction triple, sorted by the triple."""
    return [_build_triangle(ms, dirs) for dirs in _empty_dirs(ms)]


def empty_types(ms: MinimalSystem) -> set[tuple[int, int, int]]:
    """The set of empty direction triples, without building the triangles."""
    return set(_empty_dirs(ms))
