"""Planted pairwise-intersecting families whose recursion does real work.

A planted member is the template polygon K translated by v = (u - w)/2 for
rational points u, w of K, with some directions dropped.  Any two full
translates meet, because the difference of their vectors is
((u1 + w2)/2) - ((u2 + w1)/2), a point of K - K; dropping directions only
enlarges a member.

Generated families (translate repair) are almost always Helly-trivial.  To
make empty direction triples (N0 >= 1) the rule, every direction j gets
`PER_DIRECTION` members that are extreme in j: u is a vertex of K minimising
n_j . x and w a point of edge j, so the member's offset in direction j is the
midline of K, the smallest any planted member can have.  The other members
take u at a random vertex and w at a random edge point.  A third of all
members drop a random set of directions, never the one they are extreme in,
nor the horizontal and vertical edges of a special-class template.
"""

from __future__ import annotations

import random
from fractions import Fraction

from polypierce import Direction, Family, GenConfig, RelatedPolygon, random_template
from polypierce.geometry import line_intersect

DROP_PROBABILITY = 1 / 3
PER_DIRECTION = 2
EDGE_STEPS = 8
HALF = Fraction(1, 2)
# Special-class algorithms assume every member keeps these two edges.
SPECIAL_KEEP = (Direction(0, -1), Direction(1, 0))


def template_vertices(t):
    """Vertices of the template polygon; vertex j joins edges j and j+1."""
    hs = t.reference_halfplanes()
    return [line_intersect(hs[j], hs[(j + 1) % t.n]) for j in range(t.n)]


def _edge_point(rng: random.Random, verts, j: int):
    """A rational point of edge j, which runs from vertex j-1 to vertex j."""
    lam = Fraction(rng.randint(0, EDGE_STEPS), EDGE_STEPS)
    return verts[j - 1].scale(1 - lam) + verts[j].scale(lam)


def planted_family(template_seed: int, member_seed: int, class_mode: str, n: int,
                   members: int) -> Family:
    """A pairwise-intersecting family of `members` planted translates of the
    template `random_template` draws for (template_seed, n, class_mode)."""
    t = random_template(GenConfig(seed=template_seed, n=n, class_mode=class_mode))
    rng = random.Random(f"planted|{template_seed}|{member_seed}|{class_mode}|{n}|{members}")
    verts = template_vertices(t)
    keep = SPECIAL_KEEP if class_mode == "theorem2" else ()
    droppable = [j for j, d in enumerate(t.normals) if d not in keep]
    extreme_in = [j for j in range(n) for _ in range(PER_DIRECTION)][:members]
    extreme_in += [None] * (members - len(extreme_in))
    out = []
    for j in extreme_in:
        if j is None:
            u = rng.choice(verts)
            w = _edge_point(rng, verts, rng.randrange(n))
        else:
            u = min(verts, key=t.normals[j].dot)
            w = _edge_point(rng, verts, j)
        v = (u - w).scale(HALF)
        offsets = {i: t.reference_offsets[i] + t.normals[i].dot(v) for i in range(n)}
        if rng.random() < DROP_PROBABILITY:
            options = [i for i in droppable if i != j]
            for i in rng.sample(options, rng.randint(1, min(len(options), n - 1))):
                del offsets[i]
        out.append(RelatedPolygon(offsets))
    return Family(t, out)
