"""The benchmark's workloads.

Each workload builds its inputs from the seed in its constructor (the timed
set-up), hands out the input of operation i with `prepare(i)` (untimed), runs
one operation on it with `run` (timed) and checks the outputs with `check`
(untimed).  One operation takes one family through the workload's whole path.
The library is reached through module attributes at call time, so a `Tracer`
installed around `run` sees every call.

Why these three (see also DESIGN.md):
- cli_chain is the documented user path, and it is kernel-bound through
  `pairwise_check`, which `check`, `pierce` and every repair round call.
- planted_pierce is the only workload where the piercing recursions do real
  work (N0 >= 1); its timed path makes no `pairwise_check` call.
- oracle_audit runs the exact oracle: the kernel on 1-3 member subsets and the
  3^m cover DP.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass

import polypierce as pp
import polypierce.cli
from polypierce import formats
from planted import planted_family

WRONG_OUTPUT_ERRORS = (pp.ClaimViolation, pp.AuditFailure)
# The library workloads use one fixed template per (class, n), so that a seed
# draws the members and subfamilies and the spread between seeds measures
# timing, not which polygon shapes a seed happened to get.
TEMPLATE_SEED = 2012


class SetupError(RuntimeError):
    """The workload's inputs are not what the benchmark requires."""


@dataclass
class Outcome:
    """What `check` found in one operation's outputs."""

    points: list[int]  # emitted point count of each algorithm run
    n0: int | None  # empty direction triples of the whole family
    failed: str | None  # why the operation failed, None if it did not
    wrong: bool  # an output failed a correctness check
    serial: bytes  # exact serialised outputs, for the digest


def _failure(exc: Exception) -> Outcome:
    return Outcome([], None, f"{type(exc).__name__}: {exc}",
                   isinstance(exc, WRONG_OUTPUT_ERRORS), b"")


def _dumps(data: dict) -> bytes:
    return json.dumps(data, sort_keys=True).encode() + b"\n"


def _pierces(f, points) -> bool:
    """Every member contains one of the points; the benchmark's own check,
    independent of `verify_piercing` and invisible to the tracer."""
    return all(any(m.contains(f.template, p) for p in points) for m in f.members)


def _instance_family(data: dict):
    """The family of an instance file.  `formats.family_from_dict` is not
    used because its validation calls traced layers (`validate_template`,
    `feasible`), which would count the check's work as the operation's."""
    t = data["template"]
    template = pp.Template([pp.Direction(int(a), int(b)) for a, b in t["normals"]],
                           t["reference_offsets"])
    return pp.Family(template, [pp.RelatedPolygon(m["offsets"]) for m in data["members"]])


def _subfamily(pool, seed: int, i: int, members: int):
    rng = random.Random(f"{seed}|op|{i}")
    return pool.subfamily(sorted(rng.sample(range(len(pool.members)), members)))


class _PlantedPools:
    """Set-up shared by the library workloads: `POOLS_PER_CONFIG` planted
    pools per (class, n), each checked with `pairwise_check`.  Operations take
    random subfamilies of a pool, which are pairwise intersecting because the
    pool is; validating every operation's family instead would cost far more
    than the operation.  A pool's structure shows in every subfamily of it, so
    the spread between seeds falls with the number of pools, not of
    operations: several small pools per configuration rather than one large
    one.
    """

    POOLS: tuple[tuple[str, int], ...] = ()
    POOLS_PER_CONFIG = 1
    POOL_SIZE = 14

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        # Configurations interleave, so every prefix of the schedule is balanced.
        configs = [cn for _ in range(self.POOLS_PER_CONFIG) for cn in self.POOLS]
        self.pools = []
        for k, (c, n) in enumerate(configs):
            f = planted_family(TEMPLATE_SEED, seed * 100 + k, c, n, self.POOL_SIZE)
            bad = pp.pairwise_check(f)
            if bad:
                raise SetupError(f"planted {c} n={n} pool has disjoint pairs {bad[:3]}")
            self.pools.append(f)

    @staticmethod
    def _pierce(f) -> list:
        """(algorithm, result) for t1, and for t2 on special-class templates."""
        results = [("t1", pp.pierce_general(f))]
        if pp.classify_special(f.template) is not None:
            results.append(("t2", pp.pierce_special(f)))
        return results


class PlantedPierce(_PlantedPools):
    name = "planted_pierce"
    POOLS = (("general", 4), ("general", 5), ("general", 6),
             ("theorem2", 5), ("theorem2", 6), ("theorem2", 7))
    POOLS_PER_CONFIG = 6
    MIN_MEMBERS = 10
    prefix_ops = 72  # two cycles of the pools

    def prepare(self, i: int):
        pool = self.pools[i % len(self.pools)]
        m = random.Random(f"{self.seed}|size|{i}").randint(
            self.MIN_MEMBERS, len(pool.members))
        return _subfamily(pool, self.seed, i, m)

    def run(self, f):
        try:
            results = self._pierce(f)
            reports = [pp.verify_piercing(f, r.points) for _, r in results]
        except pp.PolypierceError as exc:
            return exc
        return results, reports

    def check(self, f, raw) -> Outcome:
        if isinstance(raw, Exception):
            return _failure(raw)
        results, reports = raw
        wrong = any(not rep.ok or not _pierces(f, r.points) or len(r.points) > r.bound
                    for (_, r), rep in zip(results, reports))
        serial = b"".join(_dumps(formats.result_to_dict(algo, r, rep.ok))
                          for (algo, r), rep in zip(results, reports))
        return Outcome([len(r.points) for _, r in results],
                       results[0][1].initial_type_count,
                       "output failed its check" if wrong else None, wrong, serial)


class OracleAudit(_PlantedPools):
    """Every family has 12 members.  With sizes mixed (10, 12, 14 or 11, 12,
    13) the median operation fell between the size clusters, and its spread
    between seeds was three times that of a single size."""

    name = "oracle_audit"
    POOLS = (("general", 4), ("general", 5), ("theorem2", 4), ("theorem2", 5))
    POOLS_PER_CONFIG = 4
    MEMBERS = 12
    prefix_ops = 32  # two cycles of the pools

    def prepare(self, i: int):
        return _subfamily(self.pools[i % len(self.pools)], self.seed, i, self.MEMBERS)

    def run(self, f):
        try:
            results = self._pierce(f)
            opt = pp.optimal_piercing(f)
            for _, r in results:
                pp.bound_audit(f, r, opt)
        except pp.PolypierceError as exc:
            return exc
        return results, opt

    def check(self, f, raw) -> Outcome:
        if isinstance(raw, Exception):
            return _failure(raw)
        results, opt = raw
        wrong = not _pierces(f, opt.witness_points)
        serial = [_dumps(formats.oracle_result_to_dict(opt))]
        for algo, r in results:
            ok = _pierces(f, r.points)
            wrong |= not ok or len(r.points) > r.bound or opt.optimum > len(r.points)
            serial.append(_dumps(formats.result_to_dict(algo, r, ok)))
        return Outcome([len(r.points) for _, r in results],
                       results[0][1].initial_type_count,
                       "output failed its check" if wrong else None, wrong,
                       b"".join(serial))


class CliChain:
    """`generate -> check -> pierce --algo t1 (+ t2) -> verify` through the
    in-process CLI, on distinct generated families.

    Operation i alternates the class (general, theorem2) and cycles n through
    4..5 (general) or 4..6 (theorem2), so every run sees the same mix.  The
    family size is 8: at spread 2 the number of translate-repair rounds, and
    so the cost of a family, varies several-fold from seed to seed, and at
    m = 12 or 16 too few families fit in a run for a steady mean.  General
    n=6 is left out: its template draw fails on about 1 seed in 180, and
    every workload must run failure-free.
    """

    name = "cli_chain"
    SPREAD = "2"
    MEMBERS = 8
    N_RANGE = {"general": (4, 5), "theorem2": (4, 5, 6)}
    # Ten periods of the schedule.  Most generated families are Helly-trivial
    # (one point per run), so the mean points follow the few others a seed
    # draws: over 12 operations it spread 21% between seeds, over 120 about 6%.
    prefix_ops = 120

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir

    def config(self, i: int) -> tuple[str, int]:
        class_mode = ("general", "theorem2")[i % 2]
        ns = self.N_RANGE[class_mode]
        return class_mode, ns[(i // 2) % len(ns)]

    def prepare(self, i: int):
        class_mode, n = self.config(i)
        inst = os.path.join(self.workdir, f"op{i}.json")
        algos = ["t1", "t2"] if class_mode == "theorem2" else ["t1"]
        outs = {a: os.path.join(self.workdir, f"op{i}.{a}.json") for a in algos}
        chain = [
            ["generate", "--seed", str(self.seed * 1_000_000 + i), "--n", str(n),
             "--members", str(self.MEMBERS), "--spread", self.SPREAD, "--class", class_mode,
             "--out", inst],
            ["check", inst],
        ]
        chain += [["pierce", inst, "--algo", a, "--out", p] for a, p in outs.items()]
        chain += [["verify", inst, "--points", p] for p in outs.values()]
        return inst, outs, chain

    def run(self, inp):
        _, _, chain = inp
        log = io.StringIO()
        codes = []
        with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
            for argv in chain:
                codes.append(polypierce.cli.main(argv))
                if codes[-1] != 0:
                    break
        return codes, log.getvalue()

    def check(self, inp, raw) -> Outcome:
        inst, outs, chain = inp
        codes, log = raw
        try:
            if codes[-1] != 0:
                cmd = chain[len(codes) - 1][0]
                # Exit 2 from `generate` is an exhausted generation, an input
                # the benchmark could not make.  Any other nonzero exit
                # rejects a family `generate` produced or fails a result.
                return Outcome([], None, f"{cmd} exited {codes[-1]}: {log.strip()[-200:]}",
                               not (cmd == "generate" and codes[-1] == 2), b"")
            with open(inst, "rb") as fh:
                serial = [fh.read()]
            f = _instance_family(json.loads(serial[0]))
            points, wrong, n0 = [], False, None
            for algo, path in outs.items():
                with open(path) as fh:
                    data = json.load(fh)
                data.pop("timings")
                points.append(len(data["points"]))
                wrong |= (data["verified"] is not True or len(data["points"]) > data["bound"]
                          or not _pierces(f, formats.points_from_list(data["points"])))
                if algo == "t1":
                    n0 = data["initial_type_count"]
                serial.append(_dumps(data))
            return Outcome(points, n0, "output failed its check" if wrong else None,
                           wrong, b"".join(serial))
        finally:
            # A claim violation also leaves a counterexample next to the output.
            for path in [inst, *outs.values(), *(p + ".cex.json" for p in outs.values())]:
                if os.path.exists(path):
                    os.remove(path)


WORKLOADS = {w.name: w for w in (CliChain, PlantedPierce, OracleAudit)}
