"""Byte-identity check for refactors: one sha256 over a fixed corpus of outputs.

The corpus runs in-process, in a temporary directory:

- 84 CLI chains (general n = 3-5 and theorem2 n = 3-6, seeds 0-11, 6 members,
  spread 3): `generate -> check -> pierce t1 and t2 -> render -> verify ->
  exact --limit 5 -> exact`, with each command's exit code, stdout and
  stderr and the bytes of every file the chain leaves behind (t2 on a
  general family and the oracle's member limit exit 2);
- 42 planted families (`perfbench/planted.py`, general n = 4-6 and theorem2
  n = 4-7, seeds 0-5, 8-10 members) with their t1 and t2 results, and the
  oracle result of every second one (21);
- one `generate` that exhausts its retries (exit 2);
- one hand-written family on a square template whose members bound x only,
  `{0: 5, 2: 1}` and `{0: 2}`, through `pierce --algo t1` and `exact`: its
  joint system has both x-normals and a repeated one, so the kernel's strip
  branch must break the tie between the two tightest lines;
- one hand-written family of 7 unit boxes `[x, x + 1] x [0, 1]` on the square
  template, x = 0, 3/4, ..., 9/2, through `exact`: its optimum is 4 and many
  partitions reach it, so the oracle's tie-break decides the witness groups;
- two `bench` CSVs (theorem2 t2, and the defaults with both algorithms).

The temporary directory's path, which shows in `wrote ...` lines, is replaced
by a placeholder, and `timings` are dropped from result files: everything else
is hashed byte for byte.  The script prints the counts and the digest.

Usage, from the root of a checkout (about 2.5 s on a 2-core host with
Python 3.11):

    PYTHONPATH=src python tools/corpus_digest.py

To show that a change leaves every output byte-identical, run it once with
`PYTHONPATH` pointed at the parent commit's `src/` and once at the change's;
the digests must be equal.  `tests/test_corpus_digest.py` runs `build` in the
test suite and pins the digest.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from fractions import Fraction

import polypierce
from polypierce import classify_special, optimal_piercing, pierce_general, pierce_special
from polypierce import Direction, Family, RelatedPolygon, Template, verify_piercing
from polypierce.cli import main
from polypierce.errors import PolypierceError
from polypierce.formats import family_to_dict, oracle_result_to_dict, result_to_dict, save_json

sys.path.append(os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                             "perfbench"))
from planted import planted_family  # noqa: E402  (the benchmark's planted families, read only)

CHAIN_CASES = [("general", n) for n in (3, 4, 5)] + [("theorem2", n) for n in (3, 4, 5, 6)]
CHAIN_SEEDS = range(12)
PLANTED_CASES = [("general", n) for n in (4, 5, 6)] + [("theorem2", n) for n in (4, 5, 6, 7)]
PLANTED_SEEDS = range(6)
BENCH_FLAGS = [
    ["--n", "4", "--members", "5", "--spread", "2", "--class", "theorem2", "--algo", "t2"],
    ["--n", "4", "--members", "5"],
]
PLACEHOLDER = "<tmp>"


class Corpus:
    def __init__(self, root: str):
        self.root = root
        self.hash = hashlib.sha256()
        self.counts = dict.fromkeys(
            ["chains", "commands", "files", "planted", "results", "oracle", "bench_rows"], 0)
        self.exits: dict[int, int] = {}

    def add(self, label: str, text: str) -> None:
        text = text.replace(self.root, PLACEHOLDER)
        self.hash.update(label.encode() + b"\0" + text.encode() + b"\0")

    def run(self, label: str, argv: list[str]) -> int:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
        self.add(label, f"{rc}\n{out.getvalue()}\n{err.getvalue()}")
        self.counts["commands"] += 1
        self.exits[rc] = self.exits.get(rc, 0) + 1
        return rc

    def add_file(self, label: str, path: str) -> None:
        with open(path) as fh:
            raw = fh.read()
        if path.endswith(".json"):
            data = json.loads(raw)
            canonical = json.dumps(data, indent=2, sort_keys=True) + "\n" == raw
            data.pop("timings", None)
            raw = f"{canonical}\n" + json.dumps(data, indent=2, sort_keys=True)
        self.add(label, raw)
        self.counts["files"] += 1


def run_chain(corpus: Corpus, class_mode: str, n: int, seed: int) -> None:
    label = f"chain/{class_mode}/{n}/{seed}"
    d = os.path.join(corpus.root, label.replace("/", "-"))
    os.mkdir(d)
    inst = os.path.join(d, "inst.json")
    corpus.counts["chains"] += 1
    if corpus.run(f"{label}/generate", [
            "generate", "--seed", str(seed), "--n", str(n), "--members", "6",
            "--spread", "3", "--class", class_mode, "--out", inst]) == 0:
        corpus.run(f"{label}/check", ["check", inst])
        for algo in ["t1", "t2"]:  # t2 on a general family: exit 2
            res = os.path.join(d, f"{algo}.json")
            corpus.run(f"{label}/pierce-{algo}",
                       ["pierce", inst, "--algo", algo, "--out", res])
            if os.path.exists(res):
                corpus.run(f"{label}/render-{algo}", [
                    "render", inst, "--points", res, "--svg", os.path.join(d, f"{algo}.svg")])
                corpus.run(f"{label}/verify-{algo}", ["verify", inst, "--points", res])
        corpus.run(f"{label}/exact-limit", ["exact", inst, "--limit", "5"])  # exit 2
        corpus.run(f"{label}/exact", ["exact", inst, "--out", os.path.join(d, "opt.json")])
    for name in sorted(os.listdir(d)):
        corpus.add_file(f"{label}/{name}", os.path.join(d, name))


SQUARE = Template([Direction(1, 0), Direction(0, 1), Direction(-1, 0), Direction(0, -1)],
                  [1, 1, 1, 1])


def run_square(corpus: Corpus, label: str, members: list[RelatedPolygon],
               pierce: bool) -> None:
    """A hand-written family on the square template through `pierce --algo
    t1` (if `pierce`) and `exact`."""
    d = os.path.join(corpus.root, label)
    os.mkdir(d)
    inst = os.path.join(d, "inst.json")
    save_json(family_to_dict(Family(SQUARE, members)), inst)
    if pierce:
        corpus.run(f"{label}/pierce-t1", ["pierce", inst, "--algo", "t1", "--out",
                                          os.path.join(d, "t1.json")])
    corpus.run(f"{label}/exact", ["exact", inst, "--out", os.path.join(d, "opt.json")])
    for name in sorted(os.listdir(d)):
        corpus.add_file(f"{label}/{name}", os.path.join(d, name))


def _dumps(data: dict) -> str:
    return json.dumps(data, indent=2, sort_keys=True)


def run_planted(corpus: Corpus, class_mode: str, n: int, seed: int, oracle: bool) -> None:
    label = f"planted/{class_mode}/{n}/{seed}"
    f = planted_family(seed, seed, class_mode, n, 8 + seed % 3)
    corpus.counts["planted"] += 1
    algos = [("t1", pierce_general)]
    if classify_special(f.template) is not None:
        algos.append(("t2", pierce_special))
    for algo, pierce in algos:
        try:
            r = pierce(f)
            text = _dumps(result_to_dict(algo, r, verify_piercing(f, r.points).ok))
        except PolypierceError as exc:
            text = f"{type(exc).__name__}: {exc}"
        corpus.add(f"{label}/{algo}", text)
        corpus.counts["results"] += 1
    if oracle:
        corpus.add(f"{label}/oracle", _dumps(oracle_result_to_dict(optimal_piercing(f))))
        corpus.counts["oracle"] += 1


def build(root: str) -> Corpus:
    corpus = Corpus(root)
    for class_mode, n in CHAIN_CASES:
        for seed in CHAIN_SEEDS:
            run_chain(corpus, class_mode, n, seed)
    # No strictly convex general 8-gon fits the coordinate range: exit 2.
    corpus.run("generate-exhausted", ["generate", "--seed", "0", "--n", "8",
                                      "--out", os.path.join(root, "exhausted.json")])
    run_square(corpus, "strip", [RelatedPolygon({0: 5, 2: 1}), RelatedPolygon({0: 2})],
               pierce=True)
    # Unit boxes [x, x + 1] x [0, 1], 3/4 apart: each meets only its neighbours.
    run_square(corpus, "boxes", [RelatedPolygon({0: x + 1, 1: 1, 2: -x, 3: 0})
                                 for x in (Fraction(3 * i, 4) for i in range(7))],
               pierce=False)
    k = 0
    for class_mode, n in PLANTED_CASES:
        for seed in PLANTED_SEEDS:
            run_planted(corpus, class_mode, n, seed, oracle=k % 2 == 0)
            k += 1
    for i, flags in enumerate(BENCH_FLAGS):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = main(["bench", "--seeds", "0..5", *flags])
        corpus.add(f"bench/{i}", f"{rc}\n{out.getvalue()}")
        corpus.counts["bench_rows"] += len(out.getvalue().splitlines()) - 1
    return corpus


def main_digest() -> None:
    print(f"polypierce from {os.path.dirname(polypierce.__file__)}")
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as root:
        os.chdir(root)  # `bench` writes counterexample artifacts to the working directory
        try:
            corpus = build(os.path.realpath(root))
        finally:
            os.chdir(cwd)
    print(" ".join(f"{k}={v}" for k, v in corpus.counts.items()))
    print("exit codes: " + " ".join(f"{rc}:{k}" for rc, k in sorted(corpus.exits.items())))
    print(f"sha256 {corpus.hash.hexdigest()}")


if __name__ == "__main__":
    main_digest()
