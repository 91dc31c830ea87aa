"""Templates, related polygons, families, and minimal halfplane systems.

A template is a convex n-gon given by angularly ordered outward normals plus
reference offsets (the concrete instance used for validation and rendering).
A related polygon is a member built from translates of some of the template's
halfplanes, stored as a map from direction index to offset.  Members may omit
directions, so they can be unbounded.

A `Family` owns its members' halfplanes, built once on first use.  A node of
either piercing recursion is a list of member indices of one family.

A family's Farkas table, also built once on first use, owns every question
whether some of its members have a common point (`joint_empty`).  By Helly
and Farkas the plus-intersection of a family's halfplanes is empty iff, on
the per-direction minimum offsets, an antiparallel pair sums below 0 or a
positively spanning direction triple does under its Farkas weights |w|.  Those
pairs and triples depend only on the normals, so the `Template` holds them,
shared by a pool and every subfamily of it; the `Family` holds its offsets as
integers over one denominator per direction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import lcm

from .errors import ClaimViolation
from .geometry import (
    Certificate,
    Direction,
    Halfplane,
    Point,
    _check_certificate,
    _farkas,
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

    @cached_property
    def _farkas_table(self) -> tuple[tuple, tuple]:
        """The antiparallel index pairs (i, j), and the positively spanning
        index triples (i, j, k, weights): `geometry._farkas`'s weights
        cross(n_j, n_k), cross(n_k, n_i), cross(n_i, n_j) are nonzero and share
        a sign, and their sizes |w| weight the normals to a sum of 0."""
        rows = [(d.a, d.b, 0, 1) for d in self.normals]
        pairs = tuple([(i, j) for i, j in combinations(range(self.n), 2)
                       if rows[i][:2] == (-rows[j][0], -rows[j][1])])
        triples = []
        for i, j, k in combinations(range(self.n), 3):
            w1, w2, w3, _ = _farkas(rows[i], rows[j], rows[k])
            if w1 * w3 > 0 and w2 * w3 > 0:
                triples.append((i, j, k, (abs(w1), abs(w2), abs(w3))))
        return pairs, tuple(triples)


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

    @cached_property
    def _farkas_table(self) -> tuple[tuple, tuple, tuple]:
        """The template's pairs and triples over this family's offsets:
        (rows, pairs, triples).

        Direction j's offsets become integers N over L_j, the lcm of their
        denominators, and rows[r][j] is member r's N.  A pair is kept as
        (i, j, L_j, L_i), empty iff N_i L_j + N_j L_i < 0, and a triple as
        (i, j, k, k_i, k_j, k_k, weights) with k_t = |w_t| L / L_t (L the lcm
        of the three L_t), empty iff the sum of the k_t N_t is below 0.  A
        missing direction reads as N = 2 K M + 1, with K the largest
        coefficient and M the largest |N|: every coefficient is at least 1, so
        a sum that holds it is positive.
        """
        n, (pairs, triples) = self.template.n, self.template._farkas_table
        by_dir = [dict(zip(m.offsets, hs)) for m, hs in zip(self.members, self._halfplanes)]
        # Lists, not generators, feed every tuple made here (see `_halfplanes`):
        # lcm(*generator) alone grew peak RSS 1 MB over 3,000 oracle_audit ops.
        den = [lcm(*[hs[j].row[3] for hs in by_dir if j in hs]) for j in range(n)]
        nums = [{j: h.row[2] * (den[j] // h.row[3]) for j, h in hs.items()} for hs in by_dir]
        pairs = tuple([(i, j, den[j], den[i]) for i, j in pairs])
        coefs = []
        for i, j, k, weights in triples:
            total = lcm(den[i], den[j], den[k])
            coefs.append((i, j, k, *[w * total // den[t] for w, t in zip(weights, (i, j, k))],
                          weights))
        most = max([1, *(c for p in pairs for c in p[2:]),
                    *(c for t in coefs for c in t[3:6])])
        missing = 2 * most * max([0, *(abs(v) for row in nums for v in row.values())]) + 1
        return (tuple([tuple([row.get(j, missing) for j in range(n)]) for row in nums]),
                pairs, tuple(coefs))

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


def _certificate(f: Family, ids, mins, dirs, weights) -> Certificate:
    """One halfplane per direction d in `dirs`, of the first member of `ids`
    whose offset is the minimum `mins[d]`, with `weights`; checked on the
    offsets' Fractions."""
    rows, halfplanes = f._farkas_table[0], []
    for d in dirs:
        r = next(r for r in ids if rows[r][d] == mins[d])
        halfplanes.append(f.member_halfplanes(r)[list(f.members[r].offsets).index(d)])
    return _check_certificate((tuple(halfplanes), weights))


def joint_empty(f: Family, ids) -> Certificate | None:
    """None iff the members `ids` of `f` have a common point; otherwise a
    checked Farkas certificate of `f.member_halfplanes` objects with weights
    (1, 1) for an antiparallel pair or |w| for a spanning triple.  It reads
    the family's Farkas table on the members' per-direction minimum offsets:
    the one answer to every member-set emptiness question on a `Family`."""
    rows, pairs, triples = f._farkas_table
    mins = rows[ids[0]]
    for r in ids[1:]:
        mins = [x if x < y else y for x, y in zip(mins, rows[r])]
    for i, j, ci, cj in pairs:
        if mins[i] * ci + mins[j] * cj < 0:
            return _certificate(f, ids, mins, (i, j), (1, 1))
    for i, j, k, ci, cj, ck, weights in triples:
        if mins[i] * ci + mins[j] * cj + mins[k] * ck < 0:
            return _certificate(f, ids, mins, (i, j, k), weights)
    return None


def pairwise_check(f: Family) -> list[tuple[int, int]]:
    """Pairs of distinct members with empty (closed) intersection, read from
    the family's Farkas table (`joint_empty`); empty list iff the family is
    pairwise intersecting.  Nonempty members are a precondition, checked where
    families enter (`load_family`, `generate`, the oracle); on an empty member
    the piercing algorithms raise ClaimViolation."""
    return [pair for pair in combinations(range(len(f.members)), 2)
            if joint_empty(f, pair) is not None]


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

