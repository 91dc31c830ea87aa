"""Tests of the benchmark itself: span arithmetic, planted families, tracer
bindings, metric names against BENCHMARK.json and the bare-directory refusal.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import polypierce  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from planted import planted_family  # noqa: E402
from polypierce import formats  # noqa: E402


def spec_names(section):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return [m["name"] for m in json.load(fh)[section]]


def test_self_times_on_synthetic_span_tree():
    # root [0, 10] has children a [1, 4] and b [5, 9]; b has child c [6, 8].
    starts = [0.0, 1.0, 5.0, 6.0]
    ends = [10.0, 4.0, 9.0, 8.0]
    parents = [-1, 0, 0, 2]
    assert tracer.self_times(starts, ends, parents) == [3.0, 3.0, 2.0, 2.0]


@pytest.mark.parametrize("class_mode,n", [("general", 4), ("general", 6),
                                           ("theorem2", 5), ("theorem2", 7)])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_planted_families_are_pairwise_intersecting(seed, class_mode, n):
    f = planted_family(seed, seed, class_mode, n, 10)
    assert len(f.members) == 10
    assert polypierce.pairwise_check(f) == []
    if class_mode == "theorem2":
        assert polypierce.classify_special(f.template) is not None


def test_planted_families_have_empty_triangles():
    n0 = [polypierce.pierce_general(planted_family(seed, seed, class_mode, 5, 12)).initial_type_count
          for seed in range(1, 6) for class_mode in ("general", "theorem2")]
    assert sum(1 for k in n0 if k >= 1) >= 8, n0


def _bindings():
    """Every polypierce module attribute bound to a traced function."""
    originals = {id(getattr(sys.modules[f"polypierce.{m}"], f)) for m, f in tracer.LAYERS}
    return {(key, attr): value
            for key, module in list(sys.modules.items())
            if key == "polypierce" or key.startswith("polypierce.")
            for attr, value in vars(module).items() if id(value) in originals}


def test_tracer_wraps_every_binding_and_restores_them(tmp_path):
    before = _bindings()
    assert ("polypierce.family", "feasible") in before
    assert ("polypierce.triangles", "triple_plus_empty") in before
    f = planted_family(4, 4, "theorem2", 5, 12)
    plain = formats.result_to_dict("t2", polypierce.pierce_special(f), True)
    with tracer.Tracer() as tr:
        assert all(getattr(sys.modules[key], attr) is not value
                   for (key, attr), value in before.items())
        traced = formats.result_to_dict("t2", polypierce.pierce_special(f), True)
    assert _bindings() == before
    assert all(getattr(sys.modules[key], attr) is value for (key, attr), value in before.items())
    assert traced == plain
    names = {tr.layer_names[n] for n in tr.names}
    assert {"pierce_special.pierce_special", "family.minimal_system",
            "triangles.empty_types", "geometry.triple_plus_empty"} <= names
    root = tr.layer_names.index("pierce_special.pierce_special")
    assert tr.parents[tr.names.index(root)] == -1
    path = tmp_path / "spans.csv"
    tr.write_spans(str(path))
    assert len(path.read_text().splitlines()) == len(tr.names) + 1


def test_metric_names_match_benchmark_json(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads.PlantedPierce, "POOL_SIZE", 8)
    monkeypatch.setattr(workloads.PlantedPierce, "MIN_MEMBERS", 6)
    monkeypatch.setattr(workloads.PlantedPierce, "prefix_ops", 2)
    w = workloads.PlantedPierce(1, str(tmp_path))
    loop = run.Loop(w).for_seconds(0)
    assert len(loop.times) == 2 and loop.wrong == 0
    assert sorted(run.e2e_metrics(loop, 1.0)) == sorted(spec_names("end_to_end"))
    metrics, loops = run.traced_run(w, 0, str(tmp_path / "spans.csv"))
    assert set(spec_names("per_layer")) <= set(metrics)
    assert loops[0].digest.hexdigest() == loops[1].digest.hexdigest()


@pytest.mark.parametrize("codes,wrong", [([2], False), ([0, 2], True), ([0, 0, 1], True)])
def test_cli_chain_counts_only_exhausted_generation_as_benign(tmp_path, codes, wrong):
    w = workloads.CliChain(1, str(tmp_path))
    out = w.check(w.prepare(0), (codes, "log"))
    assert out.failed is not None
    assert out.wrong is wrong


def test_cli_chain_reads_instance_families_exactly():
    f = planted_family(5, 5, "theorem2", 6, 8)
    assert workloads._instance_family(formats.family_to_dict(f)) == f


def test_workload_names_match_benchmark_json():
    assert sorted(workloads.WORKLOADS) == sorted(spec_names("workloads"))


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli_chain", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
