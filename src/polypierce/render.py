"""Deterministic SVG rendering of instances, minimal systems, empty
triangles, and piercing points.

Coordinates are converted to decimal (9 significant digits) at the very last
step; nothing rendered here is ever parsed back into a computation.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from .family import Family, minimal_system
from .geometry import Direction, Halfplane, Point, region_vertices
from .triangles import enumerate_empty_triangles

_FILLS = ["#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
          "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf"]

_SIZE = 640


def _fmt(v: float) -> str:
    s = f"{v:.9g}"
    return "0" if s == "-0" else s


def _box_halfplanes(xmin, ymin, xmax, ymax) -> list[Halfplane]:
    return [
        Halfplane(Direction(1, 0), xmax),
        Halfplane(Direction(-1, 0), -xmin),
        Halfplane(Direction(0, 1), ymax),
        Halfplane(Direction(0, -1), -ymin),
    ]


def _display_order(verts: list[Point]) -> list[Point]:
    """Vertices sorted counterclockwise around their centroid, by the angle
    in (-pi, pi] that `math.atan2` would give, but exactly; two or fewer come
    back in lexicographic order."""
    if len(verts) <= 2:
        return sorted(verts, key=lambda q: (q.x, q.y))
    cx = sum(v.x for v in verts) / len(verts)
    cy = sum(v.y for v in verts) / len(verts)

    def polar(v: Point):
        # Below the centroid (-pi, 0), then angle 0, above it (0, pi), then pi;
        # within each open half the angle grows with -dx / dy.
        dx, dy = v.x - cx, v.y - cy
        if dy:
            return (0 if dy < 0 else 2), -dx / dy
        return (1 if dx >= 0 else 3), 0

    return sorted(verts, key=polar)


def _viewport(f: Family, points) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    pts = [v for i in range(len(f.members)) for v in region_vertices(f.member_halfplanes(i))]
    pts += points
    if not pts:
        pts = region_vertices(f.template.reference_halfplanes())
    if not pts:
        pts = [Point(-1, -1), Point(1, 1)]
    xs, ys = [p.x for p in pts], [p.y for p in pts]
    xmin, xmax, ymin, ymax = min(xs), max(xs), min(ys), max(ys)
    w = max(xmax - xmin, ymax - ymin, Fraction(1))
    pad = w / 5
    return xmin - pad, ymin - pad, xmax + pad, ymax + pad


class _Canvas:
    def __init__(self, xmin, ymin, xmax, ymax):
        self.xmin, self.ymin, self.xmax, self.ymax = xmin, ymin, xmax, ymax
        span = max(xmax - xmin, ymax - ymin)
        self.scale = Fraction(_SIZE) / span
        self.parts: list[str] = []

    def to_px(self, p: Point) -> tuple[float, float]:
        # y axis flipped so larger y is up.
        return (
            float((p.x - self.xmin) * self.scale),
            float((self.ymax - p.y) * self.scale),
        )

    def polygon(self, verts, fill, opacity, stroke, dash=None, width=1.5):
        if len(verts) < 3:
            return
        pts = " ".join(
            f"{_fmt(x)},{_fmt(y)}" for x, y in (self.to_px(v) for v in verts)
        )
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        self.parts.append(
            f'<polygon points="{pts}" fill="{fill}" fill-opacity="{opacity}" '
            f'stroke="{stroke}" stroke-width="{width}"{dash_attr}/>'
        )

    def segment(self, a, b, stroke, dash=None, width=1.0):
        (x1, y1), (x2, y2) = self.to_px(a), self.to_px(b)
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        self.parts.append(
            f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
            f'stroke="{stroke}" stroke-width="{width}"{dash_attr}/>'
        )

    def marker(self, p, label):
        x, y = self.to_px(p)
        self.parts.append(
            f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="5" fill="#d62728" '
            f'stroke="#000000" stroke-width="1"/>'
        )
        self.parts.append(
            f'<text x="{_fmt(x + 8)}" y="{_fmt(y - 8)}" font-size="14" '
            f'font-family="monospace">{label}</text>'
        )

    def svg(self) -> str:
        body = "\n".join(self.parts)
        return (
            f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'width="{_SIZE}" height="{_SIZE}" '
            f'viewBox="0 0 {_SIZE} {_SIZE}">\n{body}\n</svg>\n'
        )


def _clip_line_to_box(h: Halfplane, box: list[Halfplane]) -> Optional[tuple[Point, Point]]:
    """The part of h's boundary line inside the box, as its two end points in
    lexicographic order; None when the line misses the box or only touches it."""
    ends = _display_order(region_vertices(box + [h, Halfplane(h.normal.neg(), -h.offset)]))
    return (ends[0], ends[1]) if len(ends) == 2 else None


def render_svg(f: Family, points: Optional[list[Point]] = None) -> str:
    points = points or []
    xmin, ymin, xmax, ymax = _viewport(f, points)
    box = _box_halfplanes(xmin, ymin, xmax, ymax)
    canvas = _Canvas(xmin, ymin, xmax, ymax)

    for i in range(len(f.members)):
        verts = _display_order(region_vertices([*f.member_halfplanes(i), *box]))
        fill = _FILLS[i % len(_FILLS)]
        canvas.polygon(verts, fill, "0.25", fill)

    ms = minimal_system(f)
    for j in ms.dirs():
        seg = _clip_line_to_box(ms.entries[j], box)
        if seg is not None:
            canvas.segment(seg[0], seg[1], "#333333", dash="6,4")

    for tri in enumerate_empty_triangles(ms):
        canvas.polygon(tri.vertices, "none", "0", "#d62728", width=2.0)

    for k, p in enumerate(points):
        canvas.marker(p, f"p{k}")

    return canvas.svg()
