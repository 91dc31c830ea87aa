"""Ground truth: piercing verification and exact optimal piercing numbers.

A set of members is 1-pierceable iff their joint halfplane system is
feasible, so the minimum piercing number is a minimum partition of the
member set into feasible subsets (feasibility is hereditary).  A mask of at
most 3 members asks `plus_empty` about their joint system.  A larger mask is
feasible iff the four masks that drop one of its four lowest members are, and
the increasing sweep over masks has decided those: by Helly's theorem in the
plane an infeasible mask holds an infeasible set of at most 3 members, and one
of any four members lies outside that set, so dropping it leaves an infeasible
mask.  The partition of a feasible mask is the mask.  That of an infeasible
one is the first feasible submask in decreasing order that holds its lowest
member and leaves a rest with the fewest groups, then the rest's partition
(what a cover table over all masks that keeps strict improvements only
picks).  An infeasible mask needs two groups or more, so the first submask
whose rest is feasible wins.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import AuditFailure, TooLarge
from .family import Family, joint_system
from .geometry import Point, canonical_witness, contains, plus_empty


@dataclass
class VerificationReport:
    ok: bool
    unpierced: list[int]


@dataclass
class OracleResult:
    optimum: int
    witness_points: list[Point]
    witness_groups: list[list[int]]


def verify_piercing(f: Family, points: list[Point]) -> VerificationReport:
    unpierced = [i for i in range(len(f.members))
                 if not any(contains(f.member_halfplanes(i), p) for p in points)]
    return VerificationReport(ok=not unpierced, unpierced=unpierced)


def _cover(feas: list[bool], mask: int, memo: dict[int, tuple[int, ...]]) -> tuple[int, ...]:
    """The partition of `mask` as the module docstring defines it, memoised."""
    if feas[mask]:
        return (mask,)
    if mask not in memo:
        low, sub, candidates = mask & -mask, mask, []
        while sub := (sub - 1) & mask:
            if sub & low and feas[sub]:
                if feas[mask ^ sub]:
                    memo[mask] = (sub, mask ^ sub)
                    return memo[mask]
                candidates.append(sub)
        memo[mask] = min(((s,) + _cover(feas, mask ^ s, memo) for s in candidates), key=len)
    return memo[mask]


def optimal_piercing(f: Family, member_limit: int = 16) -> OracleResult:
    m = len(f.members)
    if m > member_limit:
        raise TooLarge(f"{m} members exceeds oracle limit {member_limit}")

    full = (1 << m) - 1
    feas = [False] * (full + 1)
    for k in (1, 2, 3):
        for combo in combinations(range(m), k):
            feas[sum(1 << i for i in combo)] = plus_empty(joint_system(f, combo)) is None
    for mask in range(1, full + 1):
        if mask.bit_count() > 3:
            # a, b, c, d: the bits of the mask's four lowest members.
            a = mask & -mask
            rest = mask ^ a
            b = rest & -rest
            rest ^= b
            c = rest & -rest
            rest ^= c
            d = rest & -rest
            feas[mask] = (feas[mask ^ a] and feas[mask ^ b]
                          and feas[mask ^ c] and feas[mask ^ d])
    if not all(feas[1 << i] for i in range(m)):
        raise AuditFailure("some single member is empty; family is unpierceable")

    cover = _cover(feas, full, {}) if m else ()
    groups = sorted([i for i in range(m) if sub >> i & 1] for sub in cover)
    witness_points = [canonical_witness(joint_system(f, g)) for g in groups]
    return OracleResult(optimum=len(groups), witness_points=witness_points,
                        witness_groups=groups)


def bound_audit(f: Family, result, oracle: OracleResult | None = None) -> None:
    """Hard check of a piercing result: bound conformance, soundness, and
    oracle dominance when an oracle result is supplied."""
    k = len(result.points)
    if k > result.bound:
        raise AuditFailure(f"{k} points exceed the bound {result.bound}")
    report = verify_piercing(f, result.points)
    if not report.ok:
        raise AuditFailure(f"members {report.unpierced} are unpierced")
    if oracle is not None and oracle.optimum > k:
        raise AuditFailure(f"oracle optimum {oracle.optimum} exceeds output size {k}")
