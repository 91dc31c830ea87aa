"""JSON file formats: instances, results, counterexample artifacts.

Rationals travel as "p/q" (or "p") strings so files stay exact; the only
decimal output anywhere is the display-only SVG layer.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import Optional

from .errors import TooLarge
from .family import Family, RelatedPolygon, Template, validate_template
from .geometry import Direction, Point, plus_empty

FORMAT_VERSION = 1


class InvalidInstance(ValueError):
    pass


def parse_rational(s) -> Fraction:
    """`s` as a Fraction.  A string in exponent notation is refused, since
    `Fraction` would expand its power of ten in full."""
    try:
        if isinstance(s, str) and "e" in s.lower():
            raise ValueError("exponent notation is not accepted")
        return Fraction(str(s))
    except (ValueError, ZeroDivisionError) as exc:
        raise InvalidInstance(f"bad rational {s!r}: {exc}") from None


def _text(c: Fraction) -> str:
    """`c` as a "p/q" (or "p") string: the one place a rational is written.
    TooLarge when a part has more digits than Python writes out
    (`sys.get_int_max_str_digits`)."""
    try:
        return str(c)
    except ValueError as exc:
        raise TooLarge(f"a rational is too long to write: {exc}") from None


def _array(value, what: str, length: Optional[int] = None) -> list:
    """`value` if it is a JSON array (of `length` entries, if given)."""
    if not isinstance(value, list) or length is not None and len(value) != length:
        size = "" if length is None else f" of {length} entries"
        raise InvalidInstance(f"{what} must be an array{size}, got {value!r}")
    return value


def family_to_dict(f: Family) -> dict:
    return {
        "version": FORMAT_VERSION,
        "template": {
            "normals": [[d.a, d.b] for d in f.template.normals],
            "reference_offsets": [_text(c) for c in f.template.reference_offsets],
        },
        "members": [
            {"offsets": {str(j): _text(c) for j, c in m.offsets.items()}}
            for m in f.members
        ],
    }


def family_from_dict(data: dict) -> Family:
    try:
        version = data.get("version")
        if type(version) is not int or version != FORMAT_VERSION:
            raise InvalidInstance(f"unsupported version {version!r}")
        tmpl = data["template"]
        pairs = [_array(d, "normal", 2) for d in _array(tmpl["normals"], "normals")]
        # type() rules out bool, float and str, which int() would truncate.
        if any(type(v) is not int for pair in pairs for v in pair):
            raise InvalidInstance(f"normals must hold JSON integers, got {pairs!r}")
        # Direction divides by the gcd but the offsets stay: 2x <= 2 is not x <= 2.
        if any(math.gcd(a, b) > 1 for a, b in pairs):
            raise InvalidInstance(f"normals must be primitive (gcd 1), got {pairs!r}")
        normals = [Direction(a, b) for a, b in pairs]
        offsets = [parse_rational(c) for c in
                   _array(tmpl["reference_offsets"], "reference_offsets")]
        template = Template(normals, offsets)
        members = []
        for m in data["members"]:
            raw = m["offsets"]
            parsed: dict[int, Fraction] = {}
            for j, c in raw.items():
                j = int(j)
                if not 0 <= j < template.n:
                    raise InvalidInstance(f"direction index {j} out of range")
                c = parse_rational(c)
                # Duplicate translates collapse to the tightest offset.
                if j not in parsed or c < parsed[j]:
                    parsed[j] = c
            members.append(RelatedPolygon(parsed))
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, InvalidInstance):
            raise
        raise InvalidInstance(f"malformed instance: {exc}") from None
    report = validate_template(template)
    if report:
        raise InvalidInstance("invalid template: " + "; ".join(report))
    f = Family(template, members)
    for i in range(len(members)):
        if plus_empty(f.member_halfplanes(i)) is not None:
            raise InvalidInstance(f"member {i} is empty")
    if not members:
        raise InvalidInstance("family needs at least one member")
    return f


def read_json_object(path: str) -> dict:
    """The JSON object stored at `path`; InvalidInstance when the file cannot
    be read, is not JSON, or holds something other than an object."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise InvalidInstance(f"cannot read {path}: {exc}") from None
    if not isinstance(data, dict):
        raise InvalidInstance(f"{path}: expected a JSON object, got {type(data).__name__}")
    return data


def load_family(path: str) -> Family:
    return family_from_dict(read_json_object(path))


def load_points(path: str) -> list[Point]:
    """The "points" list of a result or points file (empty when absent)."""
    return points_from_list(read_json_object(path).get("points", []))


def points_to_list(points) -> list[list[str]]:
    return [[_text(p.x), _text(p.y)] for p in points]


def points_from_list(data) -> list[Point]:
    try:
        pairs = [_array(p, "point", 2) for p in _array(data, "points")]
        return [Point(parse_rational(x), parse_rational(y)) for x, y in pairs]
    except InvalidInstance:
        raise
    except (TypeError, ValueError) as exc:
        raise InvalidInstance(f"malformed points: {exc}") from None


def _trace_summary(node) -> dict:
    out = {"members": len(node.members)}
    if node.chosen_type is not None:
        out["chosen_type"] = list(node.chosen_type)
    if node.bucket_sizes is not None:
        out["bucket_sizes"] = list(node.bucket_sizes)
    if node.leaf_witness is not None:
        out["leaf_witness"] = [_text(node.leaf_witness.x), _text(node.leaf_witness.y)]
    if node.notes.get("case2") is not None:
        c2 = node.notes["case2"]
        out["case2"] = {
            "chosen_i": c2["chosen_i"],
            "X": [_text(c2["X"].x), _text(c2["X"].y)],
        }
    if node.children:
        out["children"] = [_trace_summary(c) for c in node.children]
    return out


def result_to_dict(algorithm: str, result, verified: bool,
                   timings: Optional[dict] = None) -> dict:
    return {
        "algorithm": algorithm,
        "points": points_to_list(result.points),
        "assignment": {str(i): k for i, k in sorted(result.assignment.items())},
        "bound": result.bound,
        "initial_type_count": result.initial_type_count,
        "trace": _trace_summary(result.trace),
        "verified": verified,
        "timings": timings or {},
    }


def oracle_result_to_dict(res, timings: Optional[dict] = None) -> dict:
    return {
        "algorithm": "oracle",
        "points": points_to_list(res.witness_points),
        "optimum": res.optimum,
        "groups": res.witness_groups,
        "verified": True,
        "timings": timings or {},
    }


def write_text(text: str, path: str) -> None:
    """Write `text` to `path`; InvalidInstance when the file cannot be written."""
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise InvalidInstance(f"cannot write {path}: {exc}") from None


def save_json(data: dict, path: str) -> None:
    write_text(json.dumps(data, indent=2, sort_keys=True) + "\n", path)


def counterexample_to_dict(exc) -> dict:
    out = {"claim": exc.claim, "detail": exc.detail}
    if exc.family is not None:
        out["instance"] = family_to_dict(exc.family)
    return out
