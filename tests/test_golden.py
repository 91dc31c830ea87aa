"""Golden files: the CLI chain's output bytes for fixed seeds.

For each case the chain `generate -> pierce --algo t1 [and t2] -> render ->
exact` runs in-process, and the sha256 over every file it writes must equal
the committed digest.  Wall-clock timings are the only non-deterministic
bytes, so they are blanked before hashing; everything else (instance,
points, assignment, trace, SVG, oracle groups) is compared byte for byte
across commits, not only between two runs of one process.
"""

import hashlib
import json

import pytest

from polypierce.cli import main

# (class, n, seed) -> sha256 of the chain's files; members 6, spread 3.
GOLDEN = {
    ("general", 3, 2):
        "4d2bf528c74e75c3cbd06bd88100b4b6100f240aae23ceef7d779b47c49a7aa0",
    ("general", 4, 22):
        "1b25345036215873065cb49bc080fc367f0f4600a9a383c19b6f34b3ad4d0ca0",
    ("general", 5, 1):
        "bc04be2fe9edbfe1561da3a670eb37488422b3deb257e9398944de6746fa5462",
    ("theorem2", 3, 1):
        "a3fe630aa57ac07e0284979f9f75731620e9ee7fc88c9551e16b7640da06cf48",
    ("theorem2", 3, 7):
        "825b6747e1a39f5eb5b762eef16be90f8badec9d1c4d8cdb003130a05bef84ff",
    ("theorem2", 3, 13):
        "eb4a41663afee1f0404b685e774f78f76ddb3106a924483932beec8cf2bdc384",
    ("theorem2", 4, 13):
        "fcee1a038e9168b57d42e1020038e4d3ea8f406a0402baa0c39e48a47bed1039",
    ("theorem2", 5, 27):
        "4e9dac2102b29a61c1119b79e25c4684118953654eb85412f1c2e7e4c44a9bed",
    ("theorem2", 6, 22):
        "b54b2b73c264ec933ed5f44659a40f5d9ee3150242917b2793ec6beb8910d854",
}


def _blank_timings(raw: str) -> str:
    data = json.loads(raw)
    # The CLI's own serialisation, so any other byte change still shows.
    assert json.dumps(data, indent=2, sort_keys=True) + "\n" == raw
    data["timings"] = {}
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def _run_chain(tmp_path, class_mode, n, seed):
    """Run the chain and return ({file name: bytes}, {algo: result dict})."""
    inst = str(tmp_path / "inst.json")
    assert main(["generate", "--seed", str(seed), "--n", str(n), "--members", "6",
                 "--spread", "3", "--class", class_mode, "--out", inst]) == 0
    files = {"inst.json": open(inst).read()}
    results = {}
    algos = ["t1", "t2"] if class_mode == "theorem2" else ["t1"]
    for algo in algos:
        res, svg = str(tmp_path / f"{algo}.json"), str(tmp_path / f"{algo}.svg")
        assert main(["pierce", inst, "--algo", algo, "--out", res]) == 0
        assert main(["render", inst, "--points", res, "--svg", svg]) == 0
        files[f"{algo}.json"] = _blank_timings(open(res).read())
        files[f"{algo}.svg"] = open(svg).read()
        results[algo] = json.loads(files[f"{algo}.json"])
    opt = str(tmp_path / "opt.json")
    assert main(["exact", inst, "--out", opt]) == 0
    files["opt.json"] = _blank_timings(open(opt).read())
    return files, results


def _digest(files: dict) -> str:
    h = hashlib.sha256()
    for name in sorted(files):
        h.update(name.encode() + b"\0" + files[name].encode() + b"\0")
    return h.hexdigest()


@pytest.fixture(scope="module")
def chains(tmp_path_factory):
    out = {}
    for key in GOLDEN:
        out[key] = _run_chain(tmp_path_factory.mktemp("golden"), *key)
    return out


@pytest.mark.parametrize("key", sorted(GOLDEN), ids=lambda k: "-".join(map(str, k)))
def test_chain_bytes_match_golden(chains, key):
    files, _ = chains[key]
    assert _digest(files) == GOLDEN[key]


def test_golden_cases_reach_case2_and_the_n3_path(chains):
    t2 = [results["t2"] for _, results in chains.values() if "t2" in results]
    assert any("case2" in node for r in t2 for node in r["trace"].get("children", []))
    assert any(r["bound"] == 3 and "chosen_type" in r["trace"] for r in t2)
    assert any(r["bound"] == 3 and "leaf_witness" in r["trace"] for r in t2)
