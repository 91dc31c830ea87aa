"""Seeded generation of templates and pairwise-intersecting families.

Everything is deterministic in (seed, config).  General templates come from
integer point sets in strictly convex position; special-class templates are
built by an explicit vertex walk (horizontal bottom edge, vertical right
edge, positive-slope edges), so every emitted template is valid without
rejection.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import GenerationExhausted, GenerationInvariant
from .family import Family, RelatedPolygon, Template, pairwise_check
from .geometry import Direction, Point, angle_cmp, canonical_witness, plus_empty
from .pierce_special import classify_special

RETRY_LIMIT = 64
COORD_RANGE = 5
SLOPE_COMPONENT_MAX = 9
DENOM_LIMIT = 64


@dataclass(frozen=True)
class GenConfig:
    seed: int
    n: int = 3
    members: int = 3
    spread: Fraction = Fraction(1)
    class_mode: str = "general"  # general | theorem2
    repair: str = "reject"  # reject | translate_repair

    def __post_init__(self):
        if self.n < 3:
            raise ValueError("n >= 3 required")
        if self.members < 1:
            raise ValueError("members >= 1 required")
        if self.spread < 0:
            raise ValueError("spread must be nonnegative")
        if self.class_mode not in ("general", "theorem2"):
            raise ValueError(f"unknown class_mode {self.class_mode!r}")
        if self.repair not in ("reject", "translate_repair"):
            raise ValueError(f"unknown repair mode {self.repair!r}")
        object.__setattr__(self, "spread", Fraction(self.spread))


def _strictly_convex_ccw(points) -> bool:
    n = len(points)
    if len(set(points)) != n:
        return False
    for i in range(n):
        ax, ay = points[i]
        bx, by = points[(i + 1) % n]
        cx, cy = points[(i + 2) % n]
        if (bx - ax) * (cy - ay) - (by - ay) * (cx - ax) <= 0:
            return False
    return True


def _ccw_order(points):
    cx = sum(p[0] for p in points) / len(points)
    cy = sum(p[1] for p in points) / len(points)
    return sorted(points, key=lambda p: math.atan2(p[1] - cy, p[0] - cx))


def _general_template(rng: random.Random, n: int) -> Template:
    for _ in range(RETRY_LIMIT):
        pts = [
            (rng.randint(-COORD_RANGE, COORD_RANGE), rng.randint(-COORD_RANGE, COORD_RANGE))
            for _ in range(n)
        ]
        ordered = _ccw_order(pts)
        if not _strictly_convex_ccw(ordered):
            continue
        pairs = []
        for i in range(n):
            ax, ay = ordered[i]
            bx, by = ordered[(i + 1) % n]
            normal = Direction(by - ay, -(bx - ax))
            offset = Fraction(normal.a * ax + normal.b * ay)
            pairs.append((normal, offset))
        pairs.sort(key=functools.cmp_to_key(lambda p, q: angle_cmp(p[0], q[0])))
        return Template([p[0] for p in pairs], [p[1] for p in pairs])
    raise GenerationExhausted(f"no strictly convex {n}-point set after {RETRY_LIMIT} tries")


def _theorem2_template(rng: random.Random, n: int) -> Template:
    slopes: dict[Fraction, Direction] = {}
    guard = 0
    while len(slopes) < n - 2:
        guard += 1
        if guard > RETRY_LIMIT * n:
            raise GenerationExhausted("could not draw distinct slopes")
        a = rng.randint(1, SLOPE_COMPONENT_MAX)
        b = rng.randint(1, SLOPE_COMPONENT_MAX)
        d = Direction(-a, b)
        slopes.setdefault(Fraction(-d.a, d.b), d)
    ascending = sorted(slopes.items())  # (slope, normal), slope ascending
    top = Fraction(rng.randint(1, 6))
    weights = [rng.randint(1, 9) for _ in ascending]
    total = sum(weights)
    # Walk counterclockwise from (0, top) down-left; edge with normal (-a, b)
    # advances by lam * (-b, -a).  Weights fix where the walk meets y = 0.
    vertex = Point(0, top)
    offsets: list[tuple[Direction, Fraction]] = [
        (Direction(1, 0), Fraction(0)),
    ]
    for (slope, d), w in zip(ascending, weights):
        a, b = -d.a, d.b
        lam = top * Fraction(w, total) / a
        offsets.append((d, d.a * vertex.x + d.b * vertex.y))
        vertex = Point(vertex.x - lam * b, vertex.y - lam * a)
    if not (vertex.y == 0 and vertex.x < 0):
        raise GenerationInvariant(f"vertex walk ended at {vertex}, not on y = 0 left of x = 0")
    offsets.append((Direction(0, -1), Fraction(0)))
    return Template([d for d, _ in offsets], [c for _, c in offsets])


def random_template(cfg: GenConfig) -> Template:
    rng = random.Random(f"{cfg.seed}|template|{cfg.n}|{cfg.class_mode}")
    if cfg.class_mode == "theorem2":
        return _theorem2_template(rng, cfg.n)
    return _general_template(rng, cfg.n)


def _rand_rational(rng: random.Random, spread: Fraction) -> Fraction:
    return spread * Fraction(rng.randint(-DENOM_LIMIT, DENOM_LIMIT), DENOM_LIMIT)


def _droppable_dirs(t: Template, cfg: GenConfig) -> list[int]:
    if cfg.class_mode != "theorem2":
        return list(range(t.n))
    # Special-class algorithms assume every member keeps its horizontal and
    # vertical edges; only slope directions may be dropped.
    return [j for j, _ in classify_special(t).slope_indices]


def _draw_member(rng: random.Random, t: Template, cfg: GenConfig) -> RelatedPolygon:
    for _ in range(RETRY_LIMIT):
        offsets = {
            j: t.reference_offsets[j] + _rand_rational(rng, cfg.spread)
            for j in range(t.n)
        }
        droppable = _droppable_dirs(t, cfg)
        if droppable and rng.random() < 1 / 3:
            k = rng.randint(1, min(len(droppable), t.n - 1))
            for j in rng.sample(sorted(droppable), k):
                del offsets[j]
        member = RelatedPolygon(offsets)
        if plus_empty(member.halfplanes(t)) is None:
            return member
    raise GenerationExhausted("member redraw limit hit (spread too large?)")


def _translate_member(t: Template, member: RelatedPolygon, v: Point) -> RelatedPolygon:
    return RelatedPolygon(
        {j: c + t.normals[j].dot(v) for j, c in member.offsets.items()}
    )


def _repair(t: Template, members: list[RelatedPolygon]) -> Family:
    """Translate members of disjoint pairs toward a fixed anchor witness, and
    return the pairwise-intersecting family the last round checked.

    Step fractions grow to 1, so every still-offending member eventually
    lands on the anchor point; two members containing the anchor intersect,
    which forces termination.  Pure pairwise-segment repair can oscillate.
    """
    anchor = canonical_witness(members[0].halfplanes(t))
    members = list(members)
    for round_no in range(1, RETRY_LIMIT + 1):
        f = Family(t, members)
        bad = pairwise_check(f)
        if not bad:
            return f
        frac = Fraction(min(round_no, 8), 8)
        moved = {k for pair in bad for k in pair if k != 0}
        for k in sorted(moved):
            wk = canonical_witness(f.member_halfplanes(k))
            members[k] = _translate_member(t, members[k], (anchor - wk).scale(frac))
    raise GenerationExhausted("translate repair did not converge")


def random_family(t: Template, cfg: GenConfig) -> Family:
    rng = random.Random(f"{cfg.seed}|family|{cfg.members}|{cfg.spread}|{cfg.repair}")
    for _ in range(RETRY_LIMIT):
        members = [_draw_member(rng, t, cfg) for _ in range(cfg.members)]
        if cfg.repair == "translate_repair":
            return _repair(t, members)
        fam = Family(t, members)
        if not pairwise_check(fam):
            return fam
    raise GenerationExhausted(f"no pairwise-intersecting family after {RETRY_LIMIT} tries")


def generate(cfg: GenConfig) -> Family:
    return random_family(random_template(cfg), cfg)
