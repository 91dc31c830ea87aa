"""Templates, related polygons, families, and minimal halfplane systems.

A template is a convex n-gon given by angularly ordered outward normals plus
reference offsets (the concrete instance used for validation and rendering).
A related polygon is a member built from translates of some of the template's
halfplanes, stored as a map from direction index to offset.  Members may omit
directions, so they can be unbounded.

A `Family` owns its members' halfplanes, built once on first use.  A node of
either piercing recursion is a list of member indices of one family.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations

from .errors import ClaimViolation
from .geometry import (
    Direction,
    Halfplane,
    Point,
    angle_key,
    contains,
    cross,
    feasible,  # noqa: F401 (perfbench/test_perfbench.py looks for this binding)
    plus_empty,
    region_vertices,
    tightest,
)


@dataclass(frozen=True)
class Template:
    normals: tuple[Direction, ...]
    reference_offsets: tuple[Fraction, ...]

    def __init__(self, normals, reference_offsets):
        object.__setattr__(self, "normals", tuple(normals))
        object.__setattr__(
            self, "reference_offsets", tuple(Fraction(c) for c in reference_offsets)
        )

    @property
    def n(self) -> int:
        return len(self.normals)

    def halfplane(self, j: int, offset=None) -> Halfplane:
        c = self.reference_offsets[j] if offset is None else offset
        return Halfplane(self.normals[j], c)

    def reference_halfplanes(self) -> list[Halfplane]:
        return [self.halfplane(j) for j in range(self.n)]


@dataclass(frozen=True)
class RelatedPolygon:
    """One family member: direction index -> offset of its translate."""

    offsets: dict[int, Fraction]

    def __init__(self, offsets):
        if not offsets:
            raise ValueError("member must use at least one direction")
        object.__setattr__(
            self, "offsets", {int(j): Fraction(c) for j, c in sorted(offsets.items())}
        )

    def halfplanes(self, template: Template) -> list[Halfplane]:
        return [template.halfplane(j, c) for j, c in self.offsets.items()]

    def contains(self, template: Template, p: Point) -> bool:
        return contains(self.halfplanes(template), p)


@dataclass(frozen=True)
class Family:
    template: Template
    members: tuple[RelatedPolygon, ...]

    def __init__(self, template, members):
        object.__setattr__(self, "template", template)
        object.__setattr__(self, "members", tuple(members))

    @cached_property
    def _halfplanes(self) -> tuple[tuple[Halfplane, ...], ...]:
        # Tuples, which no caller can change.  The outer one is made from a list:
        # from a generator CPython resizes it, and its tuple free lists then keep
        # the resized objects (peak RSS grew 2 MB over 6,000 planted_pierce ops).
        return tuple([tuple(m.halfplanes(self.template)) for m in self.members])

    def member_halfplanes(self, i: int) -> tuple[Halfplane, ...]:
        return self._halfplanes[i]

    def subfamily(self, indices) -> "Family":
        return Family(self.template, [self.members[i] for i in indices])


@dataclass(frozen=True)
class MinimalSystem:
    """Per-direction tightest halfplane of a family."""

    entries: dict[int, Halfplane]

    def halfplanes(self) -> list[Halfplane]:
        return [self.entries[j] for j in sorted(self.entries)]

    def dirs(self) -> list[int]:
        return sorted(self.entries)


def validate_template(t: Template) -> list[str]:
    """Report every violated template invariant; empty list iff valid."""
    report: list[str] = []
    if t.n < 3:
        report.append(f"n >= 3 required, got n={t.n}")
    if len(set(t.normals)) != t.n:
        report.append("directions must be pairwise distinct")
    if len(t.reference_offsets) != t.n:
        report.append(
            f"reference_offsets length {len(t.reference_offsets)} != n={t.n}"
        )
    if not report:
        # Cyclic angular order: strictly increasing once rotated to start at
        # the smallest angle (exactly one wrap-around descent).
        keys = [angle_key(d.a, d.b) for d in t.normals]
        descents = sum(keys[i] >= keys[(i + 1) % t.n] for i in range(t.n))
        if descents != 1:
            report.append("normals are not in strictly increasing cyclic angular order")
    if report:
        return report
    for i in range(t.n):
        j = (i + 1) % t.n
        if cross(t.normals[i], t.normals[j]) <= 0:
            report.append(f"angular gap between normals {i} and {j} is >= pi")
    if report:
        return report
    # Every gap is below pi, so the reference region is bounded: a halfplane
    # supports an edge of positive length iff two distinct vertices lie on
    # its boundary line.
    system = t.reference_halfplanes()
    verts = region_vertices(system)
    for i, h in enumerate(system):
        if sum(1 for v in verts if h.side(v) == 0) < 2:
            report.append(f"halfplane {i} does not support an edge of positive length")
    return report


def joint_system(f: Family, indices) -> list[Halfplane]:
    """The members' halfplanes, concatenated in index order: their common region."""
    return [h for i in indices for h in f.member_halfplanes(i)]


def pairwise_check(f: Family) -> list[tuple[int, int]]:
    """Pairs of distinct members with empty (closed) intersection; empty list
    iff the family is pairwise intersecting.  Nonempty members are a
    precondition, checked where families enter (`load_family`, `generate`, the
    oracle); on an empty member the piercing algorithms raise ClaimViolation."""
    return [pair for pair in combinations(range(len(f.members)), 2)
            if plus_empty(joint_system(f, pair)) is not None]


def minimal_system(f: Family, ids=None) -> MinimalSystem:
    """The minimal system of the members `ids` of `f`, all when omitted."""
    index = {d: j for j, d in enumerate(f.template.normals)}
    joint = joint_system(f, range(len(f.members)) if ids is None else ids)
    entries = {index[h.normal]: h for h in tightest(joint)}
    # Consequence of pairwise intersection: any two minimal plus sides meet.
    # One halfplane per direction, so only an antiparallel pair can miss.
    for a, b in combinations(sorted(entries), 2):
        if cross(entries[a].normal, entries[b].normal) != 0:
            continue
        certificate = plus_empty([entries[a], entries[b]])
        if certificate is not None:
            halfplanes, weights = certificate
            raise ClaimViolation(
                "pairwise-minimal",
                f"minimal halfplanes {a} and {b} are disjoint "
                f"(Farkas weights {list(weights)} on {list(halfplanes)}); "
                "family is not pairwise intersecting",
                family=f if ids is None else f.subfamily(ids),
            )
    return MinimalSystem(entries=entries)

