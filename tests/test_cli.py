import argparse
import json
import re
from pathlib import Path

import pytest

from gitstab.cli import build_parser, main

README = Path(__file__).resolve().parent.parent / "README.md"


def run_cli(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def stable_triple(tmp_path):
    return write(
        tmp_path,
        "stable.json",
        {
            "n": 2,
            "d": 1,
            "items": [
                {"weight": "1", "basis": [["1", "0"]]},
                {"weight": "1", "basis": [["0", "1"]]},
                {"weight": "1", "basis": [["1", "1"]]},
            ],
        },
    )


def heavy_pair(tmp_path):
    return write(
        tmp_path,
        "heavy.json",
        {
            "n": 2,
            "d": 1,
            "items": [
                {"weight": "5", "basis": [["1", "0"]]},
                {"weight": "1", "basis": [["0", "1"]]},
            ],
        },
    )


def transverse_planes(tmp_path):
    items = []
    for t in range(3):
        items.append(
            {
                "weight": "1",
                "basis": [["1", str(t), "0", "0"], ["0", "0", "1", str(t)]],
            }
        )
    return write(tmp_path, "planes.json", {"n": 4, "d": 1, "items": items})


def fixed_plane_extras(tmp_path):
    return write(
        tmp_path,
        "extras.json",
        {"subspaces": [[["1", "0", "0", "0"], ["0", "1", "0", "0"]]]},
    )


class TestCheck:
    def test_stable_verdict(self, tmp_path, capsys):
        code, out = run_cli(
            capsys, ["check", stable_triple(tmp_path), "--no-timestamp"]
        )
        assert code == 0
        report = json.loads(out)
        assert report["command"] == "check"
        assert report["result"]["status"] == "Stable"
        assert report["result"]["confidence"] == "ExactWithinDepth"
        assert len(report["inputs"]) == 1
        assert len(report["inputs"][0]["sha256"]) == 64

    def test_timestamp_toggle(self, tmp_path, capsys):
        path = stable_triple(tmp_path)
        _, with_ts = run_cli(capsys, ["check", path])
        _, without = run_cli(capsys, ["check", path, "--no-timestamp"])
        r1, r2 = json.loads(with_ts), json.loads(without)
        assert "timestamp" in r1 and "elapsed_seconds" in r1
        assert "timestamp" not in r2 and "elapsed_seconds" not in r2

    def test_byte_determinism(self, tmp_path, capsys):
        path = stable_triple(tmp_path)
        _, a = run_cli(capsys, ["check", path, "--no-timestamp"])
        _, b = run_cli(capsys, ["check", path, "--no-timestamp"])
        assert a == b

    def test_expect_pass_and_fail(self, tmp_path, capsys):
        path = stable_triple(tmp_path)
        code, _ = run_cli(
            capsys, ["check", path, "--expect", "Stable", "--no-timestamp"]
        )
        assert code == 0
        code, out = run_cli(
            capsys, ["check", path, "--expect", "Unstable", "--no-timestamp"]
        )
        assert code == 1
        expect = json.loads(out)["result"]["expect"]
        assert expect == {"wanted": "Unstable", "got": "Stable", "matched": False}

    def test_extra_candidate_changes_verdict(self, tmp_path, capsys):
        planes = transverse_planes(tmp_path)
        extras = fixed_plane_extras(tmp_path)
        _, plain = run_cli(capsys, ["check", planes, "--no-timestamp"])
        assert json.loads(plain)["result"]["status"] == "Stable"
        _, with_f = run_cli(
            capsys, ["check", planes, "--extra-h", extras, "--no-timestamp"]
        )
        got = json.loads(with_f)["result"]
        assert got["status"] == "StrictlySemistable"
        assert got["certificate"] == [
            ["1", "0", "0", "0"],
            ["0", "1", "0", "0"],
        ]

    def test_missing_file(self, capsys):
        code, out = run_cli(capsys, ["check", "/nonexistent/c.json"])
        assert code == 2
        assert "error" in json.loads(out)

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _ = run_cli(capsys, ["check", str(path)])
        assert code == 2

    def test_schema_error_names_field(self, tmp_path, capsys):
        path = write(
            tmp_path,
            "neg.json",
            {"n": 2, "d": 1, "items": [{"weight": "-1", "basis": [["1", "0"]]}]},
        )
        code, out = run_cli(capsys, ["check", str(path)])
        assert code == 2
        assert "items[0]" in json.loads(out)["error"]

    def test_unknown_flag_exits_two(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["check", stable_triple(tmp_path), "--bogus"])
        assert err.value.code == 2

    def test_version_flag(self):
        with pytest.raises(SystemExit) as err:
            main(["--version"])
        assert err.value.code == 0

    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "CONFIG", "--depth", "0"],
            ["check", "CONFIG", "--depth", "-1"],
            ["hn", "CONFIG", "--depth", "0"],
            ["jh", "CONFIG", "--depth", "0"],
            ["balance", "CONFIG", "--tol", "0"],
            ["probe", "--n", "2", "--k", "1,1,1", "--weights", "1,1,1", "--trials", "-2"],
        ],
    )
    def test_bad_numeric_flag_exits_two(self, tmp_path, capsys, argv):
        path = stable_triple(tmp_path)
        with pytest.raises(SystemExit) as err:
            main([path if a == "CONFIG" else a for a in argv] + ["--no-timestamp"])
        assert err.value.code == 2
        assert capsys.readouterr().out == ""


def _readme_usage() -> dict:
    """Flags listed per subcommand in the README's CLI usage block."""
    text = README.read_text(encoding="utf-8")
    section = text.split("## CLI", 1)[1]
    block = section.split("```", 2)[1]
    usage = {}
    for line in block.splitlines():
        words = line.split()
        if words[:1] == ["gitstab"]:
            usage[words[1]] = set(re.findall(r"--[a-z][a-z-]*", line))
    return usage


def _parser_flags() -> dict:
    (subparsers,) = [
        a for a in build_parser()._actions
        if isinstance(a, argparse._SubParsersAction)
    ]
    flags = {}
    for name, sub in subparsers.choices.items():
        opts = {o for a in sub._actions for o in a.option_strings}
        flags[name] = opts - {"--no-timestamp", "-h", "--help"}
    return flags


def test_readme_usage_matches_parser():
    assert _readme_usage() == _parser_flags()


class TestFiltrationCommands:
    def test_hn_slopes(self, tmp_path, capsys):
        code, out = run_cli(capsys, ["hn", heavy_pair(tmp_path), "--no-timestamp"])
        assert code == 0
        result = json.loads(out)["result"]
        assert result["slopes"] == ["5", "1"]
        assert len(result["flag"]) == 3
        assert result["flag"][1] == [["1", "0"]]

    def test_jh_on_unstable_fails(self, tmp_path, capsys):
        code, out = run_cli(capsys, ["jh", heavy_pair(tmp_path), "--no-timestamp"])
        assert code == 1
        assert "Unstable" in json.loads(out)["result"]["error"]

    def test_jh_refines(self, tmp_path, capsys):
        path = write(
            tmp_path,
            "pair.json",
            {
                "n": 2,
                "d": 1,
                "items": [
                    {"weight": "1", "basis": [["1", "0"]]},
                    {"weight": "1", "basis": [["0", "1"]]},
                ],
            },
        )
        code, out = run_cli(capsys, ["jh", path, "--no-timestamp"])
        assert code == 0
        result = json.loads(out)["result"]
        assert result["slopes"] == ["1", "1"]
        assert [g["status"] for g in result["graded"]] == ["Stable", "Stable"]


class TestBalanceCommands:
    def test_balanced(self, tmp_path, capsys):
        code, out = run_cli(
            capsys, ["balance", stable_triple(tmp_path), "--no-timestamp"]
        )
        assert code == 0
        result = json.loads(out)["result"]
        assert result["status"] == "Balanced"
        assert result["certificates"] == []
        assert result["residual"] <= 1e-10
        assert "seed" not in json.loads(out)

    def test_seed_flag_removed(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["balance", stable_triple(tmp_path), "--seed", "1"])
        assert err.value.code == 2

    def test_diverged_with_certificate(self, tmp_path, capsys):
        code, out = run_cli(
            capsys,
            ["balance", heavy_pair(tmp_path), "--expect", "Diverged", "--no-timestamp"],
        )
        assert code == 0
        result = json.loads(out)["result"]
        assert result["status"] == "Diverged"
        assert result["certificates"]
        cert = result["certificates"][0]
        assert cert["basis"] == [["1", "0"]]
        assert not cert["mu"].startswith("-")

    def test_bundle_balance(self, tmp_path, capsys):
        s = 0.7071067811865476
        path = write(
            tmp_path,
            "bundle.json",
            {
                "N": 2,
                "weights": [1, 1],
                "ranks": [1, 1],
                "points": [
                    {"volume": 0.5, "frames": [[[1], [0]], [[0], [1]]]},
                    {"volume": 0.5, "frames": [[[s], [s]], [[s], [-s]]]},
                ],
            },
        )
        code, out = run_cli(capsys, ["bundle-balance", path, "--no-timestamp"])
        assert code == 0
        result = json.loads(out)["result"]
        assert result["status"] == "Balanced"
        assert result["metric_agreement"] is not None
        assert result["metric_agreement"] < 1e-6

    def test_bundle_requires_bundle_file(self, tmp_path, capsys):
        code, _ = run_cli(
            capsys, ["bundle-balance", stable_triple(tmp_path), "--no-timestamp"]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "field, change",
        [
            ("N", {"N": "3"}),
            ("N", {"N": True}),
            ("ranks[0]", {"ranks": [True]}),
            ("ranks", {"ranks": 1}),
            ("weights[0]", {"weights": [None]}),
            ("points", {"points": 5}),
            ("points[0].frames", {"points": [{"volume": 1.0, "frames": 5}]}),
            ("points[0].volume", {"points": [{"volume": "1", "frames": [[[1]]]}]}),
            ("points[0].frames[0]", {"points": [{"volume": 1.0, "frames": [[[True]]]}]}),
            ("points[0].frames[0]", {"points": [{"volume": 1.0, "frames": [[[[None, 0]]]]}]}),
        ],
    )
    def test_malformed_bundle_names_field(self, tmp_path, capsys, field, change):
        data = {
            "N": 1,
            "weights": ["1"],
            "ranks": [1],
            "points": [{"volume": 1.0, "frames": [[[1]]]}],
        }
        data.update(change)
        path = write(tmp_path, "bundle.json", data)
        code, out = run_cli(capsys, ["bundle-balance", path, "--no-timestamp"])
        assert code == 2
        assert json.loads(out)["error"].startswith(f"{path}: {field}:")

    @pytest.mark.parametrize(
        "field, change",
        [
            ("points[0].volume", {"points": [{"volume": 10**400, "frames": [[[1]]]}]}),
            ("points[0].frames[0]", {"points": [{"volume": 1.0, "frames": [[[10**400]]]}]}),
            ("points[0].frames[0]", {"points": [{"volume": 1.0, "frames": [[[[0, -(10**400)]]]]}]}),
            ("weights[0]", {"weights": [10**400]}),
        ],
    )
    def test_huge_integers_name_field(self, tmp_path, capsys, field, change):
        data = {
            "N": 1,
            "weights": ["1"],
            "ranks": [1],
            "points": [{"volume": 1.0, "frames": [[[1]]]}],
        }
        data.update(change)
        path = write(tmp_path, "bundle.json", data)
        code, out = run_cli(capsys, ["bundle-balance", path, "--no-timestamp"])
        assert code == 2
        assert json.loads(out)["error"].startswith(f"{path}: {field}:")


class TestCorrespondenceCommands:
    def test_gm(self, tmp_path, capsys):
        code, out = run_cli(capsys, ["gm", stable_triple(tmp_path), "--no-timestamp"])
        assert code == 0
        result = json.loads(out)["result"]
        assert result["matrix"] == [["1", "0", "1"], ["0", "1", "1"]]
        assert result["blocks"] == [1, 1, 1]
        assert result["conditions"]["n_less_than_total"] is True
        assert result["conditions"]["square_bound"] is False

    def test_gm_needs_columns(self, tmp_path, capsys):
        path = write(
            tmp_path,
            "single.json",
            {"n": 2, "d": 1, "items": [{"weight": "1", "basis": [["1", "0"]]}]},
        )
        code, _ = run_cli(capsys, ["gm", path, "--no-timestamp"])
        assert code == 2

    def test_gale(self, tmp_path, capsys):
        code, out = run_cli(capsys, ["gale", stable_triple(tmp_path), "--no-timestamp"])
        assert code == 0
        cfg = json.loads(out)["result"]["config"]
        assert cfg["n"] == 1
        assert len(cfg["items"]) == 3
        assert [item["weight"] for item in cfg["items"]] == ["1", "1", "1"]

    def test_orbit_eq_yes(self, tmp_path, capsys):
        path = stable_triple(tmp_path)
        code, out = run_cli(capsys, ["orbit-eq", path, path, "--no-timestamp"])
        assert code == 0
        result = json.loads(out)["result"]
        assert result["status"] == "Yes"
        assert result["witness"] is not None

    def test_orbit_eq_expect_mismatch(self, tmp_path, capsys):
        path = stable_triple(tmp_path)
        code, _ = run_cli(
            capsys, ["orbit-eq", path, path, "--expect", "No", "--no-timestamp"]
        )
        assert code == 1

    def test_orbit_eq_shape_mismatch(self, tmp_path, capsys):
        a = stable_triple(tmp_path)
        b = heavy_pair(tmp_path)
        code, _ = run_cli(capsys, ["orbit-eq", a, b, "--no-timestamp"])
        assert code == 2


def filtration_file(tmp_path, name="filt.json"):
    return write(
        tmp_path,
        name,
        {"n": 2, "filtrations": [[{"weight": "1", "basis": [["1", "0"]]}]]},
    )


class TestTensorCommand:
    def test_product(self, tmp_path, capsys):
        path = filtration_file(tmp_path)
        code, out = run_cli(capsys, ["tensor", path, path, "--no-timestamp"])
        assert code == 0
        result = json.loads(out)["result"]
        assert result["filtration"]["n"] == 4
        chain = result["filtration"]["filtrations"][0]
        assert [len(step["basis"]) for step in chain] == [3, 1]
        flattened = result["flattened_config"]
        assert flattened["n"] == 4
        assert len(flattened["items"]) == 2

    def test_trivial_product_has_no_flattening(self, tmp_path, capsys):
        path = write(tmp_path, "trivial.json", {"n": 2, "filtrations": [[]]})
        code, out = run_cli(capsys, ["tensor", path, path, "--no-timestamp"])
        assert code == 0
        assert json.loads(out)["result"]["flattened_config"] is None

    def test_rejects_config_files(self, tmp_path, capsys):
        a = filtration_file(tmp_path)
        b = stable_triple(tmp_path)
        code, _ = run_cli(capsys, ["tensor", a, b, "--no-timestamp"])
        assert code == 2

    @pytest.mark.parametrize(
        "field, data",
        [
            ("n", {"n": True, "filtrations": [[{"weight": "1", "basis": [["1"]]}]]}),
            ("weight", {"n": 1, "filtrations": [[{"weight": True, "basis": [["1"]]}]]}),
            ("weight", {"n": 1, "filtrations": [[{"weight": "1e200000", "basis": [["1"]]}]]}),
            ("basis", {"n": 1, "filtrations": [[{"weight": "1", "basis": [[True]]}]]}),
        ],
    )
    def test_rejects_booleans_and_exponents(self, tmp_path, capsys, field, data):
        path = write(tmp_path, "bad.json", data)
        code, out = run_cli(capsys, ["tensor", path, path, "--no-timestamp"])
        assert code == 2
        assert field in json.loads(out)["error"]

    @pytest.mark.parametrize(
        "field, data",
        [
            ("filtrations", {"n": 2, "filtrations": 5}),
            ("filtrations[0]", {"n": 2, "filtrations": [5]}),
            ("n", {"n": 0, "filtrations": [[]]}),
            ("missing field", {"filtrations": [[]]}),
        ],
    )
    def test_malformed_family_names_field(self, tmp_path, capsys, field, data):
        path = write(tmp_path, "bad.json", data)
        code, out = run_cli(capsys, ["tensor", path, path, "--no-timestamp"])
        assert code == 2
        assert json.loads(out)["error"].startswith(f"{path}: {field}:")


class TestConeCommand:
    def test_interior(self, capsys):
        code, out = run_cli(
            capsys,
            ["cone", "--n", "4", "--k", "2,2,2", "--weights", "1,1,1", "--no-timestamp"],
        )
        assert code == 0
        result = json.loads(out)["result"]
        assert result["region"] == "Interior"
        assert result["x"] == ["2/3", "2/3", "2/3"]

    def test_outside_with_expect(self, capsys):
        code, out = run_cli(
            capsys,
            [
                "cone",
                "--n", "4",
                "--k", "2,2,2",
                "--weights", "3,1,1",
                "--expect", "Interior",
                "--no-timestamp",
            ],
        )
        assert code == 1
        assert json.loads(out)["result"]["region"] == "Outside"

    def test_bad_k(self, capsys):
        code, _ = run_cli(
            capsys, ["cone", "--n", "4", "--k", "2,x", "--weights", "1,1"]
        )
        assert code == 2


class TestProbeCommand:
    def test_deterministic_runs(self, capsys):
        argv = [
            "probe",
            "--n", "2",
            "--k", "1,1,1",
            "--weights", "1,1,1",
            "--trials", "5",
            "--seed", "9",
            "--no-timestamp",
        ]
        code, a = run_cli(capsys, argv)
        assert code == 0
        _, b = run_cli(capsys, argv)
        assert a == b
        result = json.loads(a)["result"]
        assert sum(result["counts"].values()) == 5
        assert result["region"] == "Interior"


class TestCorpusCommand:
    def test_all_cases_pass(self, capsys):
        code, out = run_cli(capsys, ["corpus", "--no-timestamp"])
        assert code == 0
        result = json.loads(out)["result"]
        assert result["passed"] == result["total"]
        assert result["failed"] == []
