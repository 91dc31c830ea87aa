"""Exact piercing point sets for families of pairwise-intersecting convex
polygons related to a template n-gon."""

from .errors import (
    AuditFailure,
    ClaimViolation,
    DegenerateTriple,
    EmptySystem,
    GenerationExhausted,
    NotSpecialClass,
    PolypierceError,
    TooLarge,
)
from .family import (
    Family,
    MinimalSystem,
    RelatedPolygon,
    Template,
    minimal_system,
    pairwise_check,
    validate_template,
)
from .generate import GenConfig, generate, random_template
from .geometry import (
    Direction,
    Halfplane,
    Point,
    canonical_witness,
    contains,
    feasible,
    line_intersect,
    triple_plus_empty,
)
from .oracle import bound_audit, optimal_piercing, verify_piercing
from .pierce_general import pierce_general
from .pierce_special import classify_special, pierce_special
from .triangles import enumerate_empty_triangles

__version__ = "0.1.0"

__all__ = [
    "AuditFailure", "ClaimViolation", "DegenerateTriple", "EmptySystem",
    "GenerationExhausted", "NotSpecialClass", "PolypierceError", "TooLarge",
    "Family", "MinimalSystem", "RelatedPolygon", "Template",
    "minimal_system", "pairwise_check", "validate_template",
    "GenConfig", "generate", "random_template",
    "Direction", "Halfplane", "Point", "canonical_witness", "contains",
    "feasible", "line_intersect", "triple_plus_empty",
    "bound_audit", "optimal_piercing", "verify_piercing",
    "pierce_general", "classify_special", "pierce_special",
    "enumerate_empty_triangles",
]
