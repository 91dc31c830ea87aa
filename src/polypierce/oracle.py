"""Ground truth: piercing verification and exact optimal piercing numbers.

A set of members is 1-pierceable iff their joint halfplane system is
feasible, so the minimum piercing number is a minimum cover of the member
set by feasible subsets.  Subset feasibility is decided exactly: a mask of
at most 3 members asks the kernel about its joint system, and by Helly's
theorem in the plane a larger mask is feasible iff every mask that drops one
of its members is.  Masks are swept in increasing order, so those sub-masks
are already decided, and the kernel sees only the subsets of size <= 3.  The
cover is computed by dynamic programming over subset masks and pruned to a
partition.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import AuditFailure, TooLarge
from .family import Family, joint_system
from .geometry import Point, canonical_witness, feasible


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
    unpierced = [i for i, member in enumerate(f.members)
                 if not any(member.contains(f.template, p) for p in points)]
    return VerificationReport(ok=not unpierced, unpierced=unpierced)


def optimal_piercing(f: Family, member_limit: int = 16) -> OracleResult:
    m = len(f.members)
    if m > member_limit:
        raise TooLarge(f"{m} members exceeds oracle limit {member_limit}")

    full = (1 << m) - 1
    feas = [False] * (full + 1)
    for mask in range(1, full + 1):
        bits = [i for i in range(m) if mask >> i & 1]
        if len(bits) <= 3:
            feas[mask] = feasible(joint_system(f, bits)) is not None
        else:
            feas[mask] = all(feas[mask ^ (1 << i)] for i in bits)

    INF = m + 1
    dp = [INF] * (full + 1)
    choice = [0] * (full + 1)
    dp[0] = 0
    for mask in range(1, full + 1):
        low = mask & -mask
        sub = mask
        while sub:
            if sub & low and feas[sub] and dp[mask ^ sub] + 1 < dp[mask]:
                dp[mask] = dp[mask ^ sub] + 1
                choice[mask] = sub
            sub = (sub - 1) & mask
    if dp[full] >= INF:
        raise AuditFailure("some single member is empty; family is unpierceable")

    groups = []
    mask = full
    while mask:
        sub = choice[mask]
        groups.append([i for i in range(m) if sub >> i & 1])
        mask ^= sub
    groups.sort()
    witness_points = [canonical_witness(joint_system(f, g)) for g in groups]
    return OracleResult(optimum=dp[full], witness_points=witness_points,
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
