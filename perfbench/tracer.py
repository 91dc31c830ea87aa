"""Span tracing of polypierce's layer functions, installed from outside `src/`.

`Tracer` replaces each function in `LAYERS` at every module binding that
refers to it (the defining module, every module that imported it by name and
the package namespace), records one span per call and restores the original
bindings when the `with` block ends.  Spans are kept in memory as parallel
lists (name, start, end, parent) and written out once, after the run.
Probes add per-call counters read from arguments and return values; they run
after the span's end time is taken, so their cost lands in the caller's self
time and in the reported tracing overhead, never in the traced layer.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from math import comb

# (module, public function) pairs that form the layer boundaries.
LAYERS = (
    ("geometry", "feasible"),
    ("geometry", "canonical_witness"),
    ("geometry", "triple_plus_empty"),
    ("family", "pairwise_check"),
    ("family", "minimal_system"),
    ("family", "validate_template"),
    ("triangles", "enumerate_empty_triangles"),
    ("triangles", "empty_types"),
    ("pierce_general", "pierce_general"),
    ("pierce_general", "partition_by_midpoints"),
    ("pierce_special", "pierce_special"),
    ("oracle", "optimal_piercing"),
    ("oracle", "verify_piercing"),
    ("oracle", "bound_audit"),
    ("generate", "generate"),
    ("formats", "load_family"),
    ("formats", "save_json"),
    ("cli", "main"),
)

KERNEL = ("geometry.feasible", "geometry.canonical_witness", "geometry.triple_plus_empty")

_RAISED = object()


def _offset_bits(halfplanes) -> int:
    return max(
        (max(h.offset.numerator.bit_length(), h.offset.denominator.bit_length())
         for h in halfplanes),
        default=0,
    )


def _kernel_probe(counts, args, empty):
    system = args[0] if len(args) == 1 else args
    k = len(system)
    counts["geometry.halfplanes"] += k
    counts["geometry.candidate_vertices"] += comb(k, 2)
    counts["geometry.empty"] += empty
    bits = _offset_bits(system)
    if bits > counts["geometry.offset_bits_max"]:
        counts["geometry.offset_bits_max"] = bits


def _probe_feasible(counts, args, result):
    _kernel_probe(counts, args, result is None)


def _probe_canonical_witness(counts, args, result):
    _kernel_probe(counts, args, result is _RAISED)


def _probe_triple_plus_empty(counts, args, result):
    _kernel_probe(counts, args, result is True)


def _probe_pairwise_check(counts, args, result):
    counts["family.pairwise_check.pairs"] += comb(len(args[0].members), 2)


def _probe_triangles(counts, args, result):
    counts["triangles.triples_tested"] += comb(len(args[0].entries), 3)
    if result is not _RAISED:
        counts["triangles.empty_found"] += len(result)


def _tree_size_depth(node, depth=1):
    nodes, deepest = 1, depth
    for child in node.children:
        n, d = _tree_size_depth(child, depth + 1)
        nodes += n
        deepest = max(deepest, d)
    return nodes, deepest


def _probe_pierce_general(counts, args, result):
    if result is _RAISED:
        return
    nodes, depth = _tree_size_depth(result.trace)
    counts["pierce_general.nodes"] += nodes
    counts["pierce_general.depth"] += depth


def _probe_pierce_special(counts, args, result):
    if result is _RAISED:
        return
    rounds = result.trace.children
    counts["pierce_special.rounds"] += len(rounds)
    counts["pierce_special.case2"] += sum(1 for r in rounds if r.notes.get("case2"))


def _probe_optimal_piercing(counts, args, result):
    counts["oracle.masks"] += (1 << len(args[0].members)) - 1


def _probe_verify_piercing(counts, args, result):
    counts["oracle.containment_tests"] += len(args[0].members) * len(args[1])


def _probe_save_json(counts, args, result):
    if result is not _RAISED:
        counts["formats.bytes_written"] += os.path.getsize(args[1])


PROBES = {
    "geometry.feasible": _probe_feasible,
    "geometry.canonical_witness": _probe_canonical_witness,
    "geometry.triple_plus_empty": _probe_triple_plus_empty,
    "family.pairwise_check": _probe_pairwise_check,
    "triangles.enumerate_empty_triangles": _probe_triangles,
    "triangles.empty_types": _probe_triangles,
    "pierce_general.pierce_general": _probe_pierce_general,
    "pierce_special.pierce_special": _probe_pierce_special,
    "oracle.optimal_piercing": _probe_optimal_piercing,
    "oracle.verify_piercing": _probe_verify_piercing,
    "formats.save_json": _probe_save_json,
}


def self_times(starts, ends, parents) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Spans of one thread nest, so the children of a span are disjoint
    sub-intervals of it and their durations sum to the part they cover.
    """
    own = [e - s for s, e in zip(starts, ends)]
    for i, p in enumerate(parents):
        if p >= 0:
            own[p] -= ends[i] - starts[i]
    return own


class Tracer:
    """Context manager that traces `LAYERS` while active."""

    def __init__(self):
        self.layer_names: list[str] = []
        self.names: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counts: dict[str, int] = _zero_counts()
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        name_id = len(self.layer_names)
        self.layer_names.append(name)
        probe = PROBES.get(name)
        names, starts, ends, parents = self.names, self.starts, self.ends, self.parents
        stack, counts, clock = self._stack, self.counts, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(starts)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(span)
            result = _RAISED
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                ends[span] = clock()
                stack.pop()
                if probe is not None:
                    probe(counts, args, result)

        return traced

    def __enter__(self):
        modules = [m for key, m in list(sys.modules.items())
                   if key == "polypierce" or key.startswith("polypierce.")]
        for mod_name, fn_name in LAYERS:
            original = getattr(sys.modules[f"polypierce.{mod_name}"], fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._saved.append((module, attr, original))
                        setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()
        return False

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write("name,start,end,parent\n")
            for n, s, e, p in zip(self.names, self.starts, self.ends, self.parents):
                fh.write(f"{self.layer_names[n]},{s!r},{e!r},{p}\n")

    def layer_metrics(self, families: int) -> dict[str, float]:
        """Per-layer metrics per family traced: `<layer>.calls` and
        `<layer>.self_s` for every traced function, the probes' counters, and
        the kernel's ratios (see DESIGN.md)."""
        own = self_times(self.starts, self.ends, self.parents)
        calls = [0] * len(self.layer_names)
        self_s = [0.0] * len(self.layer_names)
        gen_id = self.layer_names.index("generate.generate")
        pc_id = self.layer_names.index("family.pairwise_check")
        in_generate: list[bool] = []
        pairwise_rounds = 0
        for i, n in enumerate(self.names):
            calls[n] += 1
            self_s[n] += own[i]
            p = self.parents[i]
            in_generate.append(n == gen_id or (p >= 0 and in_generate[p]))
            pairwise_rounds += n == pc_id and in_generate[i]
        per = 1 / families
        out = {}
        for n, name in enumerate(self.layer_names):
            out[f"{name}.calls"] = calls[n] * per
            out[f"{name}.self_s"] = self_s[n] * per
        c = self.counts
        out.update({key: c[key] * per for key in PER_FAMILY_COUNTS})
        kernel_calls = sum(calls[self.layer_names.index(k)] for k in KERNEL)
        out["geometry.halfplanes_mean"] = c["geometry.halfplanes"] / max(1, kernel_calls)
        out["geometry.empty_frac"] = c["geometry.empty"] / max(1, kernel_calls)
        out["geometry.offset_bits_max"] = c["geometry.offset_bits_max"]
        out["generate.pairwise_rounds"] = pairwise_rounds * per
        out["trace.spans"] = len(self.names) * per
        return out


PER_FAMILY_COUNTS = (
    "geometry.candidate_vertices", "family.pairwise_check.pairs",
    "triangles.triples_tested", "triangles.empty_found",
    "pierce_general.nodes", "pierce_general.depth",
    "pierce_special.rounds", "pierce_special.case2",
    "oracle.masks", "oracle.containment_tests", "formats.bytes_written",
)


def _zero_counts() -> dict[str, int]:
    return dict.fromkeys(PER_FAMILY_COUNTS + (
        "geometry.halfplanes", "geometry.empty", "geometry.offset_bits_max"), 0)
