"""Command-line surface.

Exit codes: 0 success, 1 verification/audit failure, 2 invalid input,
3 claim violation (a counterexample artifact is written next to the output).
Files are read and written through `formats`, which raises InvalidInstance
for a bad input file or an unwritable output; `main` maps it and the other
errors in `_EXIT_INVALID_PREFIX` to exit 2.
"""

from __future__ import annotations

import argparse
import csv
import functools
import sys
import time

from .errors import ClaimViolation, GenerationExhausted, NotSpecialClass, TooLarge
from .family import minimal_system, pairwise_check
from .formats import (
    InvalidInstance,
    counterexample_to_dict,
    family_to_dict,
    load_family,
    load_points,
    oracle_result_to_dict,
    parse_rational,
    result_to_dict,
    save_json,
    write_text,
)
from .generate import GenConfig, generate
from .oracle import optimal_piercing, verify_piercing
from .pierce_general import pierce_general
from .pierce_special import pierce_special
from .render import render_svg
from .triangles import empty_types

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_INVALID = 2
EXIT_CLAIM = 3

# The errors that `main` maps to exit 2, with the prefix of their message.
_EXIT_INVALID_PREFIX = {
    InvalidInstance: "invalid input",
    NotSpecialClass: "invalid input for t2",
    TooLarge: "instance too large",
    GenerationExhausted: "generation failed",
}


def _pierce(f, algo):
    return pierce_general(f) if algo == "t1" else pierce_special(f)


def _write_cex(exc: ClaimViolation, anchor: str) -> None:
    """Report a claim violation and write its artifact next to `anchor`.

    An artifact that cannot be written is reported, not raised: the caller
    still exits 3, and `bench` still writes its row and goes on."""
    print(f"claim violation [{exc.claim}]: {exc.detail}", file=sys.stderr)
    path = anchor + ".cex.json"
    try:
        save_json(counterexample_to_dict(exc), path)
    except InvalidInstance as write_error:
        print(f"counterexample not written: {write_error}", file=sys.stderr)
    else:
        print(f"counterexample written to {path}", file=sys.stderr)


def _gen_config(args, seed: int) -> GenConfig:
    try:
        return GenConfig(seed=seed, n=args.n, members=args.members,
                         spread=parse_rational(args.spread),
                         class_mode=getattr(args, "class"), repair=args.repair)
    except (ValueError, ZeroDivisionError) as exc:
        raise InvalidInstance(f"bad generation flags: {exc}") from None


def cmd_generate(args) -> int:
    fam = generate(_gen_config(args, args.seed))
    save_json(family_to_dict(fam), args.out)
    print(f"wrote {args.out}: n={fam.template.n} members={len(fam.members)}")
    return EXIT_OK


def cmd_check(args) -> int:
    fam = load_family(args.file)  # also validates the template
    bad = pairwise_check(fam)
    for i, j in bad:
        print(f"disjoint members: {i} {j}")
    if bad:
        return EXIT_INVALID
    n0 = len(empty_types(minimal_system(fam)))
    print(f"ok: n={fam.template.n} members={len(fam.members)} empty_triangles={n0}")
    return EXIT_OK


def cmd_pierce(args) -> int:
    fam = load_family(args.file)
    if pairwise_check(fam):
        print("family is not pairwise intersecting", file=sys.stderr)
        return EXIT_INVALID
    t0 = time.perf_counter()
    try:
        result = _pierce(fam, args.algo)
    except ClaimViolation as exc:
        _write_cex(exc, args.out or args.file)
        return EXIT_CLAIM
    elapsed = time.perf_counter() - t0
    report = verify_piercing(fam, result.points)
    data = result_to_dict(args.algo, result, report.ok,
                          timings={"pierce_seconds": round(elapsed, 6)})
    if args.out:
        save_json(data, args.out)
    print(f"{len(result.points)} points (bound {result.bound}), "
          f"verified={report.ok}")
    if not report.ok:
        print(f"unpierced members: {report.unpierced}", file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


def cmd_exact(args) -> int:
    fam = load_family(args.file)
    t0 = time.perf_counter()
    res = optimal_piercing(fam, member_limit=args.limit)
    elapsed = time.perf_counter() - t0
    report = verify_piercing(fam, res.witness_points)
    if not report.ok:
        print("oracle witness failed verification", file=sys.stderr)
        return EXIT_VERIFY
    if args.out:
        save_json(oracle_result_to_dict(
            res, timings={"oracle_seconds": round(elapsed, 6)}), args.out)
    print(f"optimum {res.optimum}")
    return EXIT_OK


def cmd_verify(args) -> int:
    fam = load_family(args.file)
    report = verify_piercing(fam, load_points(args.points))
    if report.ok:
        print(f"ok: all {len(fam.members)} members pierced")
        return EXIT_OK
    print(f"unpierced members: {report.unpierced}")
    return EXIT_VERIFY


def cmd_render(args) -> int:
    fam = load_family(args.file)
    points = load_points(args.points) if args.points else []
    if pairwise_check(fam):
        print("family is not pairwise intersecting", file=sys.stderr)
        return EXIT_INVALID
    write_text(render_svg(fam, points), args.svg)
    print(f"wrote {args.svg}")
    return EXIT_OK


def cmd_bench(args) -> int:
    try:
        lo, hi = args.seeds.split("..")
        seeds = range(int(lo), int(hi) + 1)
    except ValueError:
        print("bad --seeds range, expected A..B", file=sys.stderr)
        return EXIT_INVALID
    configs = {seed: _gen_config(args, seed) for seed in seeds}  # bad flags: no rows
    algos = ["t1", "t2"] if args.algo == "both" else [args.algo]
    writer = csv.writer(sys.stdout)
    writer.writerow(["seed", "algo", "n", "members", "N0", "points", "bound",
                     "oracle_opt", "verified"])
    rc = EXIT_OK
    for seed, cfg in configs.items():
        try:
            fam = generate(cfg)
        except GenerationExhausted:
            writer.writerow([seed, "-", args.n, args.members, "", "", "", "", "gen_failed"])
            continue
        opt = ""
        if len(fam.members) <= args.limit:
            opt = optimal_piercing(fam, member_limit=args.limit).optimum
        for algo in algos:
            try:
                result = _pierce(fam, algo)
            except NotSpecialClass:
                writer.writerow([seed, algo, args.n, args.members, "", "", "",
                                 opt, "not_special"])
                continue
            except ClaimViolation as exc:
                _write_cex(exc, f"bench-seed{seed}-{algo}")
                writer.writerow([seed, algo, args.n, args.members, "", "", "",
                                 opt, "claim_violation"])
                rc = EXIT_CLAIM
                continue
            ok = verify_piercing(fam, result.points).ok
            if not ok:
                rc = max(rc, EXIT_VERIFY)
            writer.writerow([seed, algo, fam.template.n, len(fam.members),
                             result.initial_type_count, len(result.points),
                             result.bound, opt, ok])
    return rc


def _add_gen_flags(p, with_seed=True):
    if with_seed:
        p.add_argument("--seed", type=int, required=True)
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--members", type=int, default=3)
    p.add_argument("--spread", type=str, default="1")
    p.add_argument("--class", choices=["general", "theorem2"], default="general")
    p.add_argument("--repair", choices=["reject", "translate_repair"],
                   default="translate_repair")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared after it
    (parsing leaves no state in the parser)."""
    parser = argparse.ArgumentParser(
        prog="polypierce",
        description="Piercing point sets for families of pairwise-intersecting "
                    "convex polygons related to a template n-gon.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a seeded random instance")
    _add_gen_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("check", help="validate an instance file")
    p.add_argument("file")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("pierce", help="run a piercing algorithm")
    p.add_argument("file")
    p.add_argument("--algo", choices=["t1", "t2"], required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_pierce)

    p = sub.add_parser("exact", help="exact optimal piercing (oracle)")
    p.add_argument("file")
    p.add_argument("--limit", type=int, default=16)
    p.add_argument("--out")
    p.set_defaults(func=cmd_exact)

    p = sub.add_parser("verify", help="verify a piercing point set")
    p.add_argument("file")
    p.add_argument("--points", required=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("render", help="render an instance to SVG")
    p.add_argument("file")
    p.add_argument("--points")
    p.add_argument("--svg", required=True)
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("bench", help="batch statistics as CSV on stdout")
    p.add_argument("--seeds", required=True, help="seed range A..B")
    _add_gen_flags(p, with_seed=False)
    p.add_argument("--algo", choices=["t1", "t2", "both"], default="both")
    p.add_argument("--limit", type=int, default=12)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except tuple(_EXIT_INVALID_PREFIX) as exc:
        prefix = next(p for cls, p in _EXIT_INVALID_PREFIX.items() if isinstance(exc, cls))
        print(f"{prefix}: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
