"""Exception types shared across the library."""


class PolypierceError(Exception):
    """Base class for all library errors."""


class EmptySystem(PolypierceError):
    """Asked for a witness of an infeasible halfplane system."""


class DegenerateTriple(PolypierceError):
    """A direction triple with empty plus-intersection but no positive-area
    negative triangle (two of its boundary lines are parallel).  Signals a
    violated family precondition."""


class ClaimViolation(PolypierceError):
    """A step the piercing algorithms rely on failed at runtime.

    The algorithms treat every unproved step as a checked hypothesis; when a
    check fails the offending family is attached so it can be serialized as a
    replayable counterexample instead of producing wrong output.
    """

    def __init__(self, claim: str, detail: str = "", family=None):
        self.claim = claim
        self.detail = detail
        self.family = family
        msg = claim if not detail else f"{claim}: {detail}"
        super().__init__(msg)


class NotSpecialClass(PolypierceError):
    """Template is outside the horizontal/vertical/positive-slope class."""


class TooLarge(PolypierceError):
    """Instance over the exact oracle's member limit, or a rational too long to write."""


class AuditFailure(PolypierceError):
    """A piercing result failed its bound/soundness audit."""


class GenerationExhausted(PolypierceError):
    """Random instance generation hit its retry limit."""


class GenerationInvariant(PolypierceError):
    """A generated template broke a property its construction guarantees."""
