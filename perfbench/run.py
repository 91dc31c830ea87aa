"""polypierce benchmark: end-to-end metrics, or per-layer metrics from a traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from `src/`.
One process, one thread.  The workload's inputs are built from the seed;
`setup_s` times that, imports included, once per run in the fresh process.
Then operations run back to back (a closed loop with one client) until S
seconds have passed and at least the workload's fixed prefix of operations is
done.  Every output is checked.  The last line of standard output is one JSON
object: the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1.  The line before it is a JSON report with the machine, the failure
counts, the N0 histogram and the output digest.

With --trace 1 the loop runs untraced for S/2 seconds and then replays the
same families under the tracer; the tracing overhead is the difference of the
two wall times.  Spans are written to .perfbench_out/ when the run ends.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time

import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
P90_MIN_SAMPLES = 100


def machine() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cpu_model": model,
        "loadavg_start": os.getloadavg(),
    }


def setup(name: str, seed: int, workdir: str):
    """Import the library and build the workload's inputs: (workload, seconds)."""
    t0 = time.perf_counter()
    import workloads

    w = workloads.WORKLOADS[name](seed, workdir)
    elapsed = time.perf_counter() - t0
    if not os.path.dirname(os.path.abspath(workloads.pp.__file__)).startswith(SRC):
        raise SystemExit(f"polypierce was imported from {workloads.pp.__file__}, not {SRC}")
    return w, elapsed


class Loop:
    """Runs operations in order and accumulates what their checks found.

    Emitted points and the digest cover only the workload's first
    `prefix_ops` operations, which every run completes, so both are the same
    for a seed however fast the program or the host is."""

    def __init__(self, w):
        self.w = w
        self.times: list[float] = []
        self.points: list[int] = []
        self.n0: dict[int, int] = {}
        self.failures: list[str] = []
        self.wrong = 0
        self.digest = hashlib.sha256()

    def step(self, i: int) -> None:
        inp = self.w.prepare(i)
        t0 = time.perf_counter()
        raw = self.w.run(inp)
        self.times.append(time.perf_counter() - t0)
        out = self.w.check(inp, raw)
        if out.n0 is not None:
            self.n0[out.n0] = self.n0.get(out.n0, 0) + 1
        if out.failed is not None:
            self.failures.append(f"op {i}: {out.failed}")
        self.wrong += out.wrong
        if i < self.w.prefix_ops:
            self.points += out.points
            self.digest.update(out.serial)

    def for_seconds(self, seconds: float) -> "Loop":
        start = time.perf_counter()
        i = 0
        while i < self.w.prefix_ops or time.perf_counter() - start < seconds:
            self.step(i)
            i += 1
        return self

    def replay(self, count: int) -> "Loop":
        for i in range(count):
            self.step(i)
        return self


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def e2e_metrics(loop: Loop, setup_s: float) -> dict[str, float]:
    k = len(loop.times)
    return {
        "families_per_s": k / sum(loop.times),
        "family_ms_p50": statistics.median(loop.times) * 1000,
        "points_per_family": sum(loop.points) / len(loop.points) if loop.points else 0.0,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def traced_run(w, seconds: float, spans_path: str) -> tuple[dict[str, float], list[Loop]]:
    """Untraced for `seconds`/2, then the same families again under the tracer."""
    plain = Loop(w).for_seconds(seconds / 2)
    k = len(plain.times)
    with tracer.Tracer() as tr:
        traced = Loop(w).replay(k)
    tr.write_spans(spans_path)
    metrics = tr.layer_metrics(k)
    metrics["trace.overhead_s"] = (sum(traced.times) - sum(plain.times)) / k
    return metrics, [plain, traced]


def report(name: str, seed: int, loops: list[Loop]) -> dict:
    """Everything besides the metrics; with two loops (a traced run) the
    counts cover both and the second loop's digest must match the first's."""
    first = loops[0]
    attempted = sum(len(lp.times) for lp in loops)
    failures = [f for lp in loops for f in lp.failures]
    rep = {
        "workload": name,
        "seed": seed,
        "families": len(first.times),
        "attempted": attempted,
        "failed": len(failures),
        "failed_frac": len(failures) / attempted,
        "failures": failures[:5],
        "wrong_outputs": sum(lp.wrong for lp in loops),
        "n0_histogram": {str(n): c for n, c in sorted(first.n0.items())},
        "n0_ge1_share": (sum(c for n, c in first.n0.items() if n >= 1)
                         / max(1, sum(first.n0.values()))),
        "digest": first.digest.hexdigest(),
        "prefix_ops": first.w.prefix_ops,
        "digests_agree": len({lp.digest.hexdigest() for lp in loops}) == 1,
    }
    if len(first.times) >= P90_MIN_SAMPLES:
        rep["family_ms_p90"] = statistics.quantiles(first.times, n=10)[-1] * 1000
    return rep


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "polypierce", "__init__.py")):
        print(f"polypierce sources not found under {SRC}", file=sys.stderr)
        return 2
    spec = load_spec()
    names = [wl["name"] for wl in spec["workloads"]]
    if args.workload not in names:
        print(f"unknown workload {args.workload!r}; choose from {', '.join(names)}",
              file=sys.stderr)
        return 2
    machine_info = machine()
    sys.path.insert(0, SRC)

    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(workdir)
    try:
        w, setup_s = setup(args.workload, args.seed, workdir)
        if args.trace:
            spans = os.path.join(OUT_DIR, f"spans-{args.workload}-{args.seed}.csv")
            metrics, loops = traced_run(w, args.seconds, spans)
        else:
            loops = [Loop(w).for_seconds(args.seconds)]
            metrics = e2e_metrics(loops[0], setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    rep = report(args.workload, args.seed, loops)
    rep["machine"] = machine_info
    correct = rep["wrong_outputs"] == 0 and rep["digests_agree"]
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    print(json.dumps({"report": rep}, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": rep["attempted"],
        "failed": rep["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
