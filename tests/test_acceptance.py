"""Acceptance gate: eight criteria, one printed pass/fail line each.

Each test runs a seeded batch, checks every hard property, and records a
single summary line (echoed after the pytest summary).  Criterion 6 is a
report, not a gate.
"""

import json
import time
from fractions import Fraction as F

import pytest

from polypierce import (
    ClaimViolation,
    GenConfig,
    GenerationExhausted,
    Point,
    canonical_witness,
    contains,
    feasible,
    generate,
    line_intersect,
    minimal_system,
    optimal_piercing,
    pierce_general,
    pierce_special,
    triple_plus_empty,
    verify_piercing,
)
from polypierce.formats import (
    counterexample_to_dict,
    family_to_dict,
    result_to_dict,
    save_json,
)
from polypierce.geometry import Direction, Halfplane
from polypierce.render import render_svg
import conftest
import exactness_cases


def _report(num: int, ok: bool, detail: str) -> None:
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} — {detail}"
    conftest.ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


def _archive(exc: ClaimViolation, tag: str, tmp_path) -> str:
    path = str(tmp_path / f"{tag}.cex.json")
    save_json(counterexample_to_dict(exc), path)
    return path


def _collect(count, make_cfg):
    """Scan seeds deterministically until `count` families are generated."""
    out = []
    seed = 0
    while len(out) < count:
        cfg = make_cfg(seed, len(out))
        seed += 1
        try:
            out.append((cfg, generate(cfg)))
        except GenerationExhausted:
            continue
    return out


@pytest.fixture(scope="module")
def general_batch():
    def make(seed, i):
        return GenConfig(seed=20000 + seed, n=3 + i % 3, members=3 + i % 8,
                         spread=F(3), class_mode="general",
                         repair="translate_repair")
    return _collect(500, make)


@pytest.fixture(scope="module")
def theorem2_batch():
    def make(seed, i):
        return GenConfig(seed=30000 + seed, n=4 + i % 3, members=3 + i % 8,
                         spread=F(2), class_mode="theorem2",
                         repair="translate_repair")
    return _collect(500, make)


@pytest.fixture(scope="module")
def theorem2_n3_batch():
    def make(seed, i):
        return GenConfig(seed=40000 + seed, n=3, members=3 + i % 8,
                         spread=F(2), class_mode="theorem2",
                         repair="translate_repair")
    return _collect(500, make)


@pytest.fixture(scope="module")
def special_results(theorem2_batch):
    return [(cfg, fam, pierce_special(fam)) for cfg, fam in theorem2_batch]


def test_criterion_1_helly_base_case():
    t0 = time.perf_counter()
    families = []
    seed = 0
    while len(families) < 200:
        cfg = GenConfig(seed=10000 + seed, n=3 + len(families) % 3,
                        members=3 + len(families) % 4, spread=F(1, 4),
                        class_mode="theorem2", repair="translate_repair")
        seed += 1
        try:
            fam = generate(cfg)
        except GenerationExhausted:
            continue
        if feasible(minimal_system(fam).halfplanes()) is not None:  # generator audit
            families.append(fam)
    singles = 0
    for fam in families:
        for algo in (pierce_general, pierce_special):
            res = algo(fam)
            assert len(res.points) == 1
            assert verify_piercing(fam, res.points).ok
        singles += 1
    elapsed = time.perf_counter() - t0
    _report(1, singles == 200 and elapsed < 5.0,
            f"{singles}/200 common-point families, both algorithms emit 1 "
            f"verified point each ({elapsed:.2f}s < 5s)")


def test_criterion_2_general_bound(general_batch, tmp_path):
    sound = 0
    violations = 0
    for cfg, fam in general_batch:
        try:
            res = pierce_general(fam)
        except ClaimViolation as exc:
            violations += 1
            _archive(exc, f"c2-seed{cfg.seed}", tmp_path)
            continue
        n = fam.template.n
        assert verify_piercing(fam, res.points).ok
        assert len(res.points) <= 3 ** res.initial_type_count
        assert len(res.points) <= 3 ** (n * (n - 1) * (n - 2) // 6)
        sound += 1
    _report(2, sound == 500 and violations == 0,
            f"{sound}/500 general families sound, points <= 3^N0 and "
            f"3^C(n,3), {violations} claim violations")


def test_criterion_3_special_bound(special_results, tmp_path):
    t0 = time.perf_counter()
    sound = 0
    for cfg, fam, _ in special_results:
        try:
            res = pierce_special(fam)
        except ClaimViolation as exc:
            _archive(exc, f"c3-seed{cfg.seed}", tmp_path)
            continue
        assert verify_piercing(fam, res.points).ok
        assert len(res.points) <= 4 * (fam.template.n - 2)
        sound += 1
    elapsed = time.perf_counter() - t0
    _report(3, sound == 500 and elapsed < 60.0,
            f"{sound}/500 special-class families sound, points <= 4(n-2) "
            f"({elapsed:.2f}s < 60s)")


def test_criterion_4_n3_sharpened(theorem2_n3_batch, special_three_translate,
                                  tmp_path):
    sound = 0
    for cfg, fam in theorem2_n3_batch:
        try:
            res = pierce_special(fam)
        except ClaimViolation as exc:
            _archive(exc, f"c4-seed{cfg.seed}", tmp_path)
            continue
        assert len(res.points) <= 3
        assert verify_piercing(fam, res.points).ok
        sound += 1
    hand = pierce_special(special_three_translate)
    exact = hand.points == [Point(F(-1, 2), F(3, 5)), Point(F(-3, 5), F(1, 2)),
                            Point(F(-1, 2), F(1, 2))]
    _report(4, sound == 500 and exact,
            f"{sound}/500 n=3 families pierced by <= 3 points; hand-built "
            f"three-translate yields exactly its three midpoints")


def test_criterion_5_oracle_dominance(general_batch, special_results,
                                      theorem2_n3_batch, three_translate_family):
    checked = 0
    runs = (
        [(fam, pierce_general(fam)) for _, fam in general_batch]
        + [(fam, res) for _, fam, res in special_results]
        + [(fam, pierce_special(fam)) for _, fam in theorem2_n3_batch]
    )
    for fam, res in runs:
        if len(fam.members) > 12:
            continue
        opt = optimal_piercing(fam).optimum
        assert opt <= len(res.points)
        checked += 1
    tt_opt = optimal_piercing(three_translate_family).optimum
    tt_alg = len(pierce_general(three_translate_family).points)
    _report(5, tt_opt == 2 and tt_alg == 3,
            f"oracle <= algorithm on {checked} instances with <= 12 members; "
            f"three-translate: oracle {tt_opt}, general algorithm {tt_alg}")


def test_criterion_6_n4_report(special_results):
    slice4 = [(fam, res) for _, fam, res in special_results
              if fam.template.n == 4]
    within = sum(1 for _, res in slice4 if len(res.points) <= 6)
    frac = within / len(slice4)
    _report(6, True,
            f"report only: {within}/{len(slice4)} n=4 special families "
            f"pierced by <= 6 points ({frac:.1%}); not a gate")


def test_criterion_7_determinism(tmp_path):
    seeds = (
        [(20000 + s, "general", 3 + s % 3, F(3)) for s in range(10)]
        + [(30000 + s, "theorem2", 4 + s % 3, F(2)) for s in range(10)]
    )
    identical = 0
    for seed, mode, n, spread in seeds:
        cfg = GenConfig(seed=seed, n=n, members=5, spread=spread,
                        class_mode=mode, repair="translate_repair")
        blobs = []
        for _ in range(2):
            fam = generate(cfg)
            res = pierce_general(fam)
            data = result_to_dict("t1", res, verify_piercing(fam, res.points).ok)
            blobs.append((
                json.dumps(family_to_dict(fam), indent=2, sort_keys=True).encode(),
                json.dumps(data, indent=2, sort_keys=True).encode(),
                render_svg(fam, res.points).encode(),
            ))
        assert blobs[0] == blobs[1]
        identical += 1
    _report(7, identical == len(seeds),
            f"{identical}/{len(seeds)} repeated runs gave byte-identical "
            f"instance, result, and SVG bytes")


def test_criterion_8_exactness_regression():
    def hp(case):
        (a, b), c = case
        return Halfplane(Direction(a, b), F(c))

    passed = 0
    for h1, h2, expected in exactness_cases.LINE_INTERSECTIONS:
        got = line_intersect(hp(h1), hp(h2))
        want = None if expected is None else Point(F(expected[0]), F(expected[1]))
        assert got == want
        passed += 1
    for triple, expected in exactness_cases.TRIPLE_EMPTINESS:
        assert triple_plus_empty(*[hp(c) for c in triple]) is expected
        passed += 1
    for system, expected in exactness_cases.FEASIBILITY_WITNESSES:
        hs = [hp(c) for c in system]
        if expected is None:
            assert feasible(hs) is None
        else:
            w = canonical_witness(hs)
            assert w == Point(F(expected[0]), F(expected[1])) and contains(hs, w)
        passed += 1
    _report(8, passed == 50,
            f"{passed}/50 frozen exact predicate cases matched independent "
            f"derivations with zero tolerance")
