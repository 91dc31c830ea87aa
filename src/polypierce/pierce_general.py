"""Recursive piercing of a general related family, 3^N bound.

The recursion picks an empty triangle, splits the family by which edge
midpoint each member's restricted hull contains, and recurses per bucket;
a bucket with no empty triangles is one-pierceable and yields its canonical
Helly witness.  A node is a list of member indices of the one family passed
in.  Every step the argument relies on is a runtime guard that raises
ClaimViolation with the offending family attached.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .errors import ClaimViolation
from .family import Family, minimal_system
from .geometry import Halfplane, Point, canonical_witness, contains
from .triangles import EmptyTriangle, _build_triangle, empty_types


@dataclass
class TraceNode:
    """One node of the recursion tree."""

    members: list[int]
    chosen_type: Optional[tuple[int, int, int]] = None
    bucket_sizes: Optional[tuple[int, int, int]] = None
    leaf_witness: Optional[Point] = None
    children: list["TraceNode"] = field(default_factory=list)
    notes: dict = field(default_factory=dict)


@dataclass
class PiercingResult:
    points: list[Point]
    assignment: dict[int, int]
    trace: TraceNode
    initial_type_count: int
    bound: int


def restricted_hull(f: Family, i: int, dirs) -> list[Halfplane]:
    """Member i's hull restricted to `dirs`: its halfplanes with those
    directions.  Directions the member does not use impose no constraint, so
    a member using none of them has the whole plane as its hull."""
    return [h for j, h in zip(f.members[i].offsets, f.member_halfplanes(i)) if j in dirs]


def _point_indices(points: list[Point], new_points) -> list[int]:
    """Index of each new point in `points`, appending the ones not yet there."""
    idxs = []
    for p in new_points:
        if p not in points:
            points.append(p)
        idxs.append(points.index(p))
    return idxs


def _finish(f: Family, points, assignment, trace: TraceNode, n0: int, bound: int,
            bound_text: str) -> PiercingResult:
    """The final claims of both algorithms, then their result: at most
    `bound` points, and every member contains its assigned point."""
    if len(points) > bound:
        raise ClaimViolation(
            "point-bound", f"emitted {len(points)} points, above {bound_text}", family=f
        )
    for i in range(len(f.members)):
        if not contains(f.member_halfplanes(i), points[assignment[i]]):
            raise ClaimViolation(
                "soundness", f"member {i} does not contain its assigned point", family=f
            )
    return PiercingResult(points=points, assignment=assignment, trace=trace,
                          initial_type_count=n0, bound=bound)


def partition_by_midpoints(
    f: Family, e: EmptyTriangle, member_ids: Optional[list[int]] = None
) -> tuple[list[int], list[int], list[int]]:
    """Split member indices into the three midpoint buckets.

    Bucket t holds members whose restricted hull contains midpoint t and no
    earlier midpoint (first-match priority).  A member whose restricted hull
    misses all three midpoints violates the partition claim.
    """
    if member_ids is None:
        member_ids = list(range(len(f.members)))
    buckets: tuple[list[int], list[int], list[int]] = ([], [], [])
    for i in member_ids:
        hull = restricted_hull(f, i, e.dirs)
        for t in range(3):
            if contains(hull, e.midpoints[t]):
                buckets[t].append(i)
                break
        else:
            raise ClaimViolation(
                "midpoint-partition",
                f"member {i}: restricted hull to dirs {e.dirs} contains "
                "none of the three edge midpoints",
                family=f,
            )
    return buckets


def _recurse(f: Family, member_ids: list[int], parent_types, points, assignment):
    """The trace node of `member_ids`, member indices of `f`, and the empty
    triples of its minimal system, after piercing its members into `points`
    and `assignment`.  Only the triangle the node splits on is built."""
    node = TraceNode(members=list(member_ids))
    ms = minimal_system(f, member_ids)
    types_here = empty_types(ms)
    if parent_types is not None and not types_here < parent_types:
        raise ClaimViolation(
            "type-elimination",
            f"child empty-triangle types {sorted(types_here)} are not a strict "
            f"subset of the parent's {sorted(parent_types)}",
            family=f.subfamily(member_ids),
        )
    if not types_here:
        w = canonical_witness(ms.halfplanes())
        (idx,) = _point_indices(points, [w])
        for i in member_ids:
            assignment[i] = idx
        node.leaf_witness = w
        return node, types_here
    chosen = _build_triangle(ms, min(types_here))  # lexicographically smallest triple
    node.chosen_type = chosen.dirs
    buckets = partition_by_midpoints(f, chosen, member_ids)
    node.bucket_sizes = tuple(len(b) for b in buckets)
    for b in buckets:
        if b:
            node.children.append(_recurse(f, b, types_here, points, assignment)[0])
    return node, types_here


def pierce_general(f: Family) -> PiercingResult:
    """Pierce a pairwise-intersecting related family; at most 3^N0 points."""
    points: list[Point] = []
    assignment: dict[int, int] = {}
    trace, root_types = _recurse(f, list(range(len(f.members))), None, points, assignment)
    n0 = len(root_types)
    return _finish(f, points, assignment, trace, n0, 3 ** n0, f"3^{n0}")
