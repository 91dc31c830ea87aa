import json
import os
import subprocess
import sys
from fractions import Fraction as F

import pytest

import polypierce
from polypierce import ClaimViolation, Family, GenConfig, Point, generate
from polypierce.cli import build_parser, main
from polypierce.render import render_svg
from polypierce.formats import (
    InvalidInstance,
    family_from_dict,
    family_to_dict,
    load_family,
    points_from_list,
    points_to_list,
    save_json,
)
from conftest import translate_of


class TestFormats:
    def test_round_trip_identity(self, three_translate_family):
        fam = three_translate_family
        back = family_from_dict(family_to_dict(fam))
        assert back.template == fam.template
        assert [m.offsets for m in back.members] == [m.offsets for m in fam.members]

    def test_round_trip_generated(self):
        cfg = GenConfig(seed=12, n=5, members=6, spread=F(2),
                        class_mode="theorem2", repair="translate_repair")
        fam = generate(cfg)
        back = family_from_dict(family_to_dict(fam))
        assert family_to_dict(back) == family_to_dict(fam)

    def test_file_round_trip(self, three_translate_family, tmp_path):
        path = str(tmp_path / "fam.json")
        save_json(family_to_dict(three_translate_family), path)
        back = load_family(path)
        assert family_to_dict(back) == family_to_dict(three_translate_family)

    def test_points_round_trip(self):
        pts = [Point(F(1, 3), F(-7, 2)), Point(0, 5)]
        assert points_from_list(points_to_list(pts)) == pts

    def test_rejects_bad_version(self, three_translate_family):
        data = family_to_dict(three_translate_family)
        data["version"] = 99
        with pytest.raises(InvalidInstance):
            family_from_dict(data)

    def test_rejects_bad_rational(self, three_translate_family):
        data = family_to_dict(three_translate_family)
        data["members"][0]["offsets"]["0"] = "0.5x"
        with pytest.raises(InvalidInstance):
            family_from_dict(data)

    def test_rejects_out_of_range_index(self, three_translate_family):
        data = family_to_dict(three_translate_family)
        data["members"][0]["offsets"]["7"] = "0"
        with pytest.raises(InvalidInstance):
            family_from_dict(data)

    def test_rejects_empty_member(self, unit_triangle):
        fam = Family(unit_triangle, [translate_of(unit_triangle, Point(0, 0))])
        data = family_to_dict(fam)
        data["members"][0]["offsets"]["0"] = "-5"  # x + y <= -5 kills it
        with pytest.raises(InvalidInstance):
            family_from_dict(data)

    def test_duplicate_direction_collapses_to_tightest(self, unit_triangle):
        fam = Family(unit_triangle, [translate_of(unit_triangle, Point(0, 0))])
        data = family_to_dict(fam)
        # JSON keys are unique, so simulate the min() rule with the parser's
        # own path: larger offset stays only if no smaller one is present.
        data["members"][0]["offsets"]["0"] = "2"
        back = family_from_dict(data)
        assert back.members[0].offsets[0] == 2


def _unit_instance(normal0=(1, 1), offsets=("1", "0", "0"), member=None, version=1) -> str:
    """The unit-triangle instance file's text, with one part replaced."""
    return json.dumps({
        "version": version,
        "template": {"normals": [normal0, [-1, 0], [0, -1]], "reference_offsets": offsets},
        "members": [{"offsets": member or {"0": "1", "1": "0", "2": "0"}}],
    })


@pytest.fixture
def instance_file(three_translate_family, tmp_path):
    path = str(tmp_path / "inst.json")
    save_json(family_to_dict(three_translate_family), path)
    return path


@pytest.fixture
def default_digit_limit():
    """Python's default limit (3.11+) on the digits it writes of an integer."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(old)


# The documented chain, then an argparse error (--algo is required).
CHAIN = [
    "generate --seed 5 --n 4 --members 5 --spread 2 --class theorem2 --out {d}/gen.json",
    "check {d}/gen.json",
    "pierce {d}/gen.json --algo t2 --out {d}/res.json",
    "verify {d}/gen.json --points {d}/res.json",
    "pierce {d}/gen.json",
]


def _chain_outcome(d, run) -> list:
    """(exit code, stdout, stderr, files so far) after each CHAIN command, with
    the directory replaced by "{d}" and the result file's timings dropped."""
    outcome = []
    for command in CHAIN:
        code, out, err = run(command.format(d=d).split())
        files = {}
        for name in sorted(os.listdir(d)):
            data = json.loads((d / name).read_text())
            data.pop("timings", None)
            files[name] = data
        outcome.append((code, out.replace(str(d), "{d}"), err.replace(str(d), "{d}"), files))
    return outcome


def test_cli_shares_its_parser_and_matches_fresh_runs(tmp_path, capsys):
    def in_process(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    src = os.path.dirname(os.path.dirname(polypierce.__file__))
    env = {**os.environ, "PYTHONPATH": src}

    def fresh(argv):
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from polypierce.cli import main; "
             "sys.exit(main(sys.argv[1:]))", *argv],
            env=env, capture_output=True, text=True, timeout=60)
        return proc.returncode, proc.stdout, proc.stderr

    (tmp_path / "one").mkdir()
    (tmp_path / "fresh").mkdir()
    shared = _chain_outcome(tmp_path / "one", in_process)
    assert build_parser() is build_parser()
    assert [code for code, *_ in shared] == [0, 0, 0, 0, 2]
    assert _chain_outcome(tmp_path / "fresh", fresh) == shared


class TestCli:
    def test_generate_then_check(self, tmp_path):
        out = str(tmp_path / "gen.json")
        rc = main(["generate", "--seed", "5", "--n", "4", "--members", "5",
                   "--spread", "2", "--class", "theorem2", "--out", out])
        assert rc == 0
        assert main(["check", out]) == 0

    def test_check_reports_disjoint_pair(self, unit_triangle, tmp_path, capsys):
        fam = Family(
            unit_triangle,
            [
                translate_of(unit_triangle, Point(0, 0)),
                translate_of(unit_triangle, Point(5, 5)),
            ],
        )
        path = str(tmp_path / "bad.json")
        save_json(family_to_dict(fam), path)
        assert main(["check", path]) == 2
        # render draws only pairwise-intersecting families, and says so.
        main(["pierce", path, "--algo", "t1"])
        pierce_err = capsys.readouterr().err
        assert main(["render", path, "--svg", str(tmp_path / "bad.svg")]) == 2
        assert capsys.readouterr().err == pierce_err == "family is not pairwise intersecting\n"
        assert not (tmp_path / "bad.svg").exists()

    def test_check_rejects_malformed_json(self, tmp_path):
        path = str(tmp_path / "junk.json")
        with open(path, "w") as fh:
            json.dump({"version": 1, "template": {}}, fh)
        assert main(["check", path]) == 2

    def test_pierce_t1(self, instance_file, tmp_path):
        out = str(tmp_path / "res.json")
        rc = main(["pierce", instance_file, "--algo", "t1", "--out", out])
        assert rc == 0
        with open(out) as fh:
            data = json.load(fh)
        assert data["algorithm"] == "t1" and data["verified"] is True
        assert len(data["points"]) == 3 and data["bound"] == 3

    def test_pierce_t2_wrong_class(self, instance_file):
        assert main(["pierce", instance_file, "--algo", "t2"]) == 2

    def test_pierce_t2_special(self, special_three_translate, tmp_path):
        path = str(tmp_path / "sp.json")
        save_json(family_to_dict(special_three_translate), path)
        out = str(tmp_path / "res.json")
        assert main(["pierce", path, "--algo", "t2", "--out", out]) == 0
        with open(out) as fh:
            assert json.load(fh)["points"] == [
                ["-1/2", "3/5"], ["-3/5", "1/2"], ["-1/2", "1/2"]
            ]

    def test_exact(self, instance_file, tmp_path):
        out = str(tmp_path / "opt.json")
        assert main(["exact", instance_file, "--out", out]) == 0
        with open(out) as fh:
            assert json.load(fh)["optimum"] == 2

    def test_exact_too_large(self, instance_file):
        assert main(["exact", instance_file, "--limit", "2"]) == 2

    def test_verify_good_and_bad(self, instance_file, tmp_path):
        good = str(tmp_path / "good.json")
        bad = str(tmp_path / "bad.json")
        with open(good, "w") as fh:
            json.dump({"points": [["0", "0"], ["3/5", "0"], ["0", "3/5"]]}, fh)
        with open(bad, "w") as fh:
            json.dump({"points": [["0", "0"]]}, fh)
        assert main(["verify", instance_file, "--points", good]) == 0
        assert main(["verify", instance_file, "--points", bad]) == 1

    @pytest.mark.parametrize(
        "command, content",
        [
            ("check {missing}", None),
            ("check {bad}", "[1, 2]"),
            ("check {bad}", "{bad"),
            # Nesting deeper than the parser's recursion limit.
            ("check {bad}", "[" * 100_000),
            ("verify {bad} --points {inst}", "[" * 100_000),
            ("verify {inst} --points {bad}", "[" * 100_000),
            ("verify {inst} --points {bad}", '{"points": [["1/0", "0"]]}'),
            ("verify {inst} --points {bad}", '{"points": [["0", "0", "0"]]}'),
            ("verify {inst} --points {missing}", None),
            ("render {inst} --points {bad} --svg {svg}", '{"points": [["1/0", "0"]]}'),
            # Strings unpack like arrays: "11" must not read as (1, 1).
            ("check {bad}", _unit_instance(normal0="11")),
            ("check {bad}", _unit_instance(offsets="100")),
            ("verify {inst} --points {bad}", '{"points": ["12"]}'),
            ("check {bad}", _unit_instance(member=["1"])),
            # Exponent notation: Fraction would expand 1e5000000000 in full.
            ("check {bad}", _unit_instance(member={"0": "1e1000", "1": "0", "2": "0"})),
            ("verify {inst} --points {bad}", '{"points": [["1e1000", "0"]]}'),
            ("generate --seed 1 --spread 1e1000 --out {bad}", None),
            ("generate --seed 1 --spread abc --out {bad}", None),
            ("generate --seed 1 --spread 1/0 --out {bad}", None),
            ("generate --seed 1 --spread -1 --out {bad}", None),
            ("generate --seed 1 --n 2 --out {bad}", None),
            ("generate --seed 1 --members 0 --out {bad}", None),
            ("bench --seeds 1..2 --n 2", None),
            ("bench --seeds 1..2 --spread 1/0", None),
            # Normals and the version are JSON integers, not truncated.
            ("check {bad}", _unit_instance(normal0=[1.5, 1])),
            ("check {bad}", _unit_instance(normal0=[True, 1])),
            ("check {bad}", _unit_instance(normal0=["1", "1"])),
            ("check {bad}", _unit_instance(version=True)),
            # 2x + 2y <= 2 would read as x + y <= 2: normals must be primitive.
            ("check {bad}", _unit_instance(normal0=(2, 2), offsets=("2", "0", "0"),
                                           member={"0": "2", "1": "0", "2": "0"})),
            # An output file that cannot be written.
            ("generate --seed 1 --out {nodir}.json", None),
            ("pierce {inst} --algo t1 --out {nodir}.json", None),
            ("exact {inst} --out {nodir}.json", None),
            ("render {inst} --svg {nodir}.svg", None),
        ],
        ids=["missing-file", "not-an-object", "bad-json", "deep-json", "verify-deep-json",
             "points-deep-json", "points-bad-rational",
             "points-three-coordinates", "points-missing-file", "render-points-bad-rational",
             "normal-string", "reference-offsets-string", "point-string",
             "member-offsets-array", "offset-exponent", "points-exponent",
             "generate-spread-exponent", "generate-spread-not-rational",
             "generate-spread-zero-denominator", "generate-spread-negative", "generate-n-2",
             "generate-members-0", "bench-n-2", "bench-spread-zero-denominator",
             "normal-float", "normal-bool", "normal-strings", "version-bool",
             "normal-not-primitive",
             "generate-unwritable", "pierce-unwritable", "exact-unwritable",
             "render-unwritable"],
    )
    def test_malformed_input_exits_2(self, instance_file, tmp_path, capsys, command,
                                     content):
        bad = tmp_path / "bad.json"
        if content is not None:
            bad.write_text(content)
        names = {"inst": instance_file, "bad": bad, "missing": tmp_path / "missing.json",
                 "svg": tmp_path / "out.svg", "nodir": tmp_path / "no" / "x"}
        assert main([tok.format(**names) for tok in command.split()]) == 2
        expected = "cannot write " if "{nodir}" in command else ""
        assert capsys.readouterr().err.startswith("invalid input: " + expected)

    def test_claim_violation_without_artifact_exits_3(self, instance_file, tmp_path,
                                                     monkeypatch, capsys):
        def violate(f):
            raise ClaimViolation("soundness", "planted for the test", family=f)

        monkeypatch.setattr("polypierce.cli.pierce_general", violate)
        out = str(tmp_path / "no" / "x.json")
        assert main(["pierce", instance_file, "--algo", "t1", "--out", out]) == 3
        err = capsys.readouterr().err
        assert err.startswith("claim violation [soundness]: planted for the test\n")
        assert "counterexample not written: cannot write " in err

    def test_bench_claim_violation_without_artifact_goes_on(self, tmp_path, monkeypatch,
                                                            capsys):
        def violate(f):
            raise ClaimViolation("soundness", "planted for the test", family=f)

        monkeypatch.setattr("polypierce.cli.pierce_general", violate)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "bench-seed1-t1.cex.json").mkdir()  # seed 1's artifact cannot be written
        rc = main(["bench", "--seeds", "1..2", "--n", "4", "--members", "4", "--algo", "t1"])
        assert rc == 3
        captured = capsys.readouterr()
        rows = [line.split(",") for line in captured.out.strip().splitlines()[1:]]
        assert [(r[0], r[-1]) for r in rows] == [("1", "claim_violation"),
                                                 ("2", "claim_violation")]
        assert "counterexample not written: cannot write bench-seed1-t1.cex.json" in captured.err
        assert "counterexample written to bench-seed2-t1.cex.json" in captured.err
        assert (tmp_path / "bench-seed2-t1.cex.json").is_file()

    def test_render(self, instance_file, tmp_path):
        svg = str(tmp_path / "out.svg")
        assert main(["render", instance_file, "--svg", svg]) == 0
        with open(svg) as fh:
            body = fh.read()
        assert body.startswith("<svg") and body.count("<polygon") >= 3

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                        reason="Python writes integers of any length before 3.11")
    @pytest.mark.parametrize("command", [
        "pierce {inst} --algo t1", "pierce {inst} --algo t1 --out {d}/res.json",
        "exact {inst} --out {d}/opt.json"])
    def test_rational_too_long_to_write_exits_2(self, tmp_path, capsys,
                                               default_digit_limit, command):
        # Offsets over denominators near 10^2500 are valid input, but the
        # piercing points' parts have more digits than Python writes by default.
        q1, q2, q3 = (10**2500 + k for k in (7, 9, 11))
        members = [(f"{q1 + 1}/{q1}", f"{q2 + 3}/{q2}", f"{q3 + 5}/{q3}"),
                   (f"{2 * q1 + 1}/{q1}", f"{q2 + 1}/{q2}", f"{q3 + 1}/{q3}")]
        inst = tmp_path / "big.json"
        inst.write_text(json.dumps({
            "version": 1,
            "template": {"normals": [[1, 0], [0, 1], [-1, -1]],
                         "reference_offsets": ["1", "1", "1"]},
            "members": [{"offsets": dict(zip("012", m))} for m in members]}))
        assert main(["check", str(inst)]) == 0
        capsys.readouterr()
        assert main(command.format(inst=inst, d=tmp_path).split()) == 2
        assert capsys.readouterr().err.startswith("instance too large: ")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["big.json"]

    def test_render_huge_coordinates(self, tmp_path):
        # The display order is exact: no coordinate of 10^400 becomes a float.
        inst, svg = tmp_path / "big.json", tmp_path / "out.svg"
        inst.write_text(json.dumps({
            "version": 1,
            "template": {"normals": [[1, 0], [0, 1], [-1, 0], [0, -1]],
                         "reference_offsets": ["1", "1", "1", "1"]},
            "members": [{"offsets": {"0": str(10**400), "1": str(10**400)}},
                        {"offsets": {"0": "1", "1": "1"}}]}))
        assert main(["render", str(inst), "--svg", str(svg)]) == 0
        body = svg.read_text()
        assert body.startswith("<svg") and body.count("<polygon") == 2

    def test_render_deterministic(self, three_translate_family):
        pts = [Point(F(1, 2), F(1, 2))]
        assert render_svg(three_translate_family, pts) == render_svg(
            three_translate_family, pts
        )

    @pytest.mark.parametrize(
        "flags, rows, verified",
        [
            (["--spread", "2", "--class", "theorem2", "--algo", "t2"], 3, {"True"}),
            # The defaults (general class, both algorithms): t2 rejects the
            # template, which makes a not_special row, not a crash.
            ([], 6, {"True", "not_special"}),
        ],
        ids=["theorem2-t2", "defaults"],
    )
    def test_bench_csv(self, capsys, flags, rows, verified):
        rc = main(["bench", "--seeds", "1..3", "--n", "4", "--members", "4"] + flags)
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].split(",")[:3] == ["seed", "algo", "n"]
        assert len(lines) == rows + 1
        assert {line.split(",")[-1] for line in lines[1:]} == verified
