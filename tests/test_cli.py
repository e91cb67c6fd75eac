import json
from pathlib import Path

from qcliff.cli import main
from qcliff.serialize import bundle_to_dict
from qcliff import complete

FIXTURES = Path(__file__).parent / "fixtures"


def write_json(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def quaternion_file(tmp_path):
    return write_json(
        tmp_path, "quat.json", {"m": 2, "kappa": [-1, -1], "delta": [[1, 2, 1]]}
    )


class TestClassify:
    def test_quaternions_json(self, tmp_path, capsys):
        rc = main(["classify", quaternion_file(tmp_path), "--format", "json"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["label"] == "^1 H(1)"
        assert out["irrep_order"] == 4

    def test_single_plus_generator(self, tmp_path, capsys):
        path = write_json(tmp_path, "c1.json", {"m": 1, "kappa": [1]})
        rc = main(["classify", path, "--format", "json"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["num_irreps"] == 2 and out["irrep_order"] == 1

    def test_malformed_kappa_fails_with_code_1(self, tmp_path, capsys):
        path = write_json(tmp_path, "bad.json", {"m": 1, "kappa": [2]})
        assert main(["classify", path]) == 1

    def test_boolean_numbers_fail_with_code_1(self, tmp_path, capsys):
        path = write_json(tmp_path, "bool.json", {"m": True, "kappa": [True]})
        assert main(["classify", path]) == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["classify", "/nonexistent.json"]) == 1

    def test_text_format(self, tmp_path, capsys):
        rc = main(["classify", quaternion_file(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "case: quaternion" in out


class TestDecomposeAndRepresent:
    def test_decompose_json(self, tmp_path, capsys):
        rc = main(["decompose", quaternion_file(tmp_path), "--format", "json"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["r"] == 0 and out["s"] == 1

    def test_represent_default_character(self, tmp_path, capsys):
        rc = main(["represent", quaternion_file(tmp_path), "--format", "json"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["order"] == 4
        assert len(out["images"]) == 2

    def test_represent_character_flag(self, tmp_path, capsys):
        path = write_json(tmp_path, "c1.json", {"m": 1, "kappa": [1]})
        rc = main(["represent", path, "--character", "1", "--format", "json"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["images"][0]["signs"] == [-1]

    def test_represent_bad_character(self, tmp_path, capsys):
        rc = main(["represent", quaternion_file(tmp_path), "--character", "01"])
        assert rc == 1

    def test_represent_order_cap_exits_2_before_building(self, tmp_path, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("build_irrep called above the order cap")

        monkeypatch.setattr("qcliff.cli.build_irrep", refuse)
        path = quaternion_file(tmp_path)
        assert main(["represent", path, "--max-order", "2"]) == 2
        assert "exceeds the cap 2" in capsys.readouterr().err
        monkeypatch.setenv("QCLIFF_MAX_ORDER", "3")
        assert main(["represent", path, "--format", "json"]) == 2
        assert "irreducible order 4" in capsys.readouterr().err


class TestSolve:
    def test_all_anti_n8(self, tmp_path, capsys):
        lam = {
            "n": 8,
            "entries": [[j + 1, k + 1, -1] for j in range(8) for k in range(j + 1, 8)],
        }
        path = write_json(tmp_path, "lam.json", lam)
        rc = main(["solve", path, "--format", "json"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["b"] == 8
        assert len(out["D"]) == 8

    def test_cap_exit_code(self, tmp_path, capsys):
        lam = {
            "n": 6,
            "entries": [[j + 1, k + 1, -1] for j in range(6) for k in range(j + 1, 6)],
        }
        path = write_json(tmp_path, "lam.json", lam)
        assert main(["solve", path, "--max-n", "4"]) == 2

    def test_missing_pair_rejected(self, tmp_path, capsys):
        path = write_json(tmp_path, "lam.json", {"n": 3, "entries": [[1, 2, -1]]})
        assert main(["solve", path]) == 1


class TestRho:
    def test_text(self, capsys):
        assert main(["rho", "16"]) == 0
        assert capsys.readouterr().out == "9\n"

    def test_json(self, capsys):
        assert main(["rho", "128", "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out) == {"N": 128, "rho": 16}

    def test_invalid(self, capsys):
        assert main(["rho", "0"]) == 1


class TestTables:
    def test_grid_matches_fixture_byte_exactly(self, capsys):
        assert main(["tables", "--section", "grid"]) == 0
        out = capsys.readouterr().out
        assert out == (FIXTURES / "classification_grid.txt").read_text(encoding="utf-8")

    def test_dims_match_fixture_byte_exactly(self, capsys):
        assert main(["tables", "--section", "dims"]) == 0
        out = capsys.readouterr().out
        assert out == (FIXTURES / "irrep_dimensions.txt").read_text(encoding="utf-8")

    def test_all_sections(self, capsys):
        assert main(["tables"]) == 0
        out = capsys.readouterr().out
        grid = (FIXTURES / "classification_grid.txt").read_text(encoding="utf-8")
        dims = (FIXTURES / "irrep_dimensions.txt").read_text(encoding="utf-8")
        assert out == grid + "\n" + dims

    def test_cap(self, capsys):
        assert main(["tables", "--max-pq", "18"]) == 2

    def test_deterministic(self, capsys):
        main(["tables"])
        first = capsys.readouterr().out
        main(["tables"])
        assert capsys.readouterr().out == first


class TestHadamard:
    def test_depth_one_text_report(self, capsys):
        rc = main(["hadamard", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "verification: pass" in out

    def test_bundle_output_and_verify(self, tmp_path, capsys):
        out_path = tmp_path / "bundle.json"
        rc = main(["hadamard", "2", "--output", str(out_path), "--format", "json"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["passed"] is True
        rc = main(["verify", str(out_path), "--format", "json"])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["passed"] is True

    def test_verify_only_flag(self, tmp_path, capsys):
        out_path = tmp_path / "bundle.json"
        main(["hadamard", "1", "--output", str(out_path)])
        capsys.readouterr()
        rc = main(["hadamard", "--verify-only", str(out_path)])
        assert rc == 0

    def test_corrupted_bundle_fails_with_code_3(self, tmp_path, capsys):
        bundle = complete(1)
        d = bundle_to_dict(bundle)
        row = d["H"][0]
        d["H"][0] = ("-" if row[0] == "+" else "+") + row[1:]
        path = write_json(tmp_path, "broken.json", d)
        assert main(["verify", str(path)]) == 3

    def test_flipped_d_sign_fails_with_code_3(self, tmp_path, capsys):
        d = bundle_to_dict(complete(1))
        d["D"][1]["signs"][0] *= -1
        path = write_json(tmp_path, "flipped.json", d)
        assert main(["verify", path]) == 3
        assert "B_1 differs from D_1" in capsys.readouterr().err

    def test_edited_stored_report_fails(self, tmp_path, capsys):
        d = bundle_to_dict(complete(1))
        report = d["report"]
        failed = {**report, "checks": {**report["checks"], "hadamard": False}, "passed": False}
        path = write_json(tmp_path, "failed.json", {**d, "report": failed})
        assert main(["verify", path]) == 3
        assert "at hadamard" in capsys.readouterr().err
        # passed: false beside all-true checks contradicts itself: a format error
        path = write_json(tmp_path, "passed.json", {**d, "report": {**report, "passed": False}})
        assert main(["verify", path]) == 1
        assert "contradicts" in capsys.readouterr().err

    def test_malformed_bundle_header_fails_with_code_1(self, tmp_path, capsys):
        d = bundle_to_dict(complete(1))
        for name, bad in (
            ("n", {**d, "n": float(d["n"])}),
            ("check", {**d, "report": {
                **d["report"], "checks": {**d["report"]["checks"], "hadamard": "no"},
            }}),
            ("passed", {**d, "report": {**d["report"], "passed": "yes"}}),
        ):
            path = write_json(tmp_path, f"{name}.json", bad)
            assert main(["verify", path]) == 1
            assert "error:" in capsys.readouterr().err

    def test_text_output_file(self, tmp_path, capsys):
        text_path = tmp_path / "h.txt"
        rc = main(["hadamard", "1", "--text-output", str(text_path)])
        assert rc == 0
        lines = text_path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 4 and all(len(line) == 4 for line in lines)
        assert set("".join(lines)) <= {"+", "-"}

    def test_spec_strings(self, capsys):
        rc = main(["hadamard", "2", "--diag", "IZ", "--offdiag", "XY"])
        assert rc == 0

    def test_depth_cap(self, capsys):
        assert main(["hadamard", "9"]) == 2

    def test_usage_error_exit_code(self, capsys):
        assert main(["hadamard", "--diag"]) == 1

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 1


class TestDeterminism:
    def test_solve_output_bytes_stable(self, tmp_path, capsys):
        lam = {
            "n": 4,
            "entries": [[j + 1, k + 1, -1] for j in range(4) for k in range(j + 1, 4)],
        }
        path = write_json(tmp_path, "lam.json", lam)
        main(["solve", path, "--format", "json"])
        first = capsys.readouterr().out
        main(["solve", path, "--format", "json"])
        assert capsys.readouterr().out == first

    def test_json_outputs_round_trip(self, tmp_path, capsys):
        main(["classify", quaternion_file(tmp_path), "--format", "json"])
        payload = capsys.readouterr().out
        assert json.loads(payload)  # valid JSON document
