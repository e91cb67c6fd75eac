import json
from pathlib import Path

import pytest

from qcliff import cli
from qcliff.cli import build_parser, main
from qcliff.decompose import MAX_M
from qcliff.serialize import bundle_to_dict
from qcliff import complete

FIXTURES = Path(__file__).parent / "fixtures"


# Presentations whose ``decompose`` output is pinned byte for byte, in both
# formats, by the fixtures ``decompose_<name>.json`` / ``.txt``.
PINNED_DECOMPOSITIONS = [
    ("quaternion", {"m": 2, "kappa": [-1, -1], "delta": [[1, 2, 1]]}),
    # helpers.random_presentation(np.random.default_rng(2), 5): r = 1,
    # s = 2, three new generators that are not original generators
    ("random5", {"m": 5, "kappa": [1, -1, -1, -1, -1], "delta": [
        [1, 2, 1], [2, 3, 1], [2, 4, 1], [2, 5, 1], [3, 4, 1], [4, 5, 1],
    ]}),
    ("clifford_2_3", {"m": 5, "kappa": [1, 1, -1, -1, -1], "delta": [
        [i, j, 1] for i in range(1, 6) for j in range(i + 1, 6)
    ]}),
]


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

    @pytest.mark.parametrize("command", ["classify", "decompose", "represent"])
    def test_more_than_max_m_generators_exit_2_at_once(self, tmp_path, capsys, command):
        m = MAX_M + 1
        # a delta that a reader would refuse shows that the cap comes first
        path = write_json(tmp_path, "big.json", {"m": m, "kappa": [1] * m, "delta": [[2, 1, 1]]})
        assert main([command, path]) == 2
        assert f"m = {m} generators exceeds the cap {MAX_M}" in capsys.readouterr().err

    @pytest.mark.parametrize("n", [MAX_M + 1, 10**9])
    def test_more_than_max_m_matrices_exit_2_at_once(self, tmp_path, capsys, n):
        # one entry cannot cover the pairs: a reader would refuse it, so
        # the cap comes first
        path = write_json(tmp_path, "big.json", {"n": n, "entries": [[2, 1, 1]]})
        assert main(["solve", path]) == 2
        assert f"n = {n} matrices exceeds the cap {MAX_M}" in capsys.readouterr().err

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

    @pytest.mark.parametrize("name, presentation", PINNED_DECOMPOSITIONS)
    def test_decompose_json_bytes_are_pinned(self, tmp_path, capsys, name, presentation):
        path = write_json(tmp_path, f"{name}.json", presentation)
        assert main(["decompose", path, "--format", "json"]) == 0
        want = (FIXTURES / f"decompose_{name}.json").read_text(encoding="utf-8")
        assert capsys.readouterr().out == want

    @pytest.mark.parametrize("name, presentation", PINNED_DECOMPOSITIONS)
    def test_decompose_text_bytes_are_pinned(self, tmp_path, capsys, name, presentation):
        path = write_json(tmp_path, f"{name}.json", presentation)
        assert main(["decompose", path]) == 0
        want = (FIXTURES / f"decompose_{name}.txt").read_text(encoding="utf-8")
        assert capsys.readouterr().out == want

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
            raise AssertionError("minimal_images called above the order cap")

        monkeypatch.setattr("qcliff.cli.minimal_images", refuse)
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
        assert main(["solve", path, "--max-order", "4"]) == 2

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

    def test_negative_bound_is_a_usage_error(self, capsys):
        assert main(["tables", "--max-pq", "-3"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "--max-pq must be >= 0" in captured.err
        assert main(["tables", "--max-pq", "0"]) == 0
        assert capsys.readouterr().out.startswith("R\n")

    @pytest.mark.parametrize("argv, out", [
        (["--max-pq", "0"], "R\n"),
        (["--max-pq", "1"], "R\n"),
        (["--section", "dims", "--max-pq", "0"], ""),
        (["--section", "dims", "--max-pq", "1"], ""),
        (["--section", "grid", "--max-pq", "1"], "R\n"),
        (["--section", "dims", "--max-pq", "2"], "2 0 R(2) 2\n1 1 \u00b2C 2\n0 2 H 4\n"),
    ], ids=["all-0", "all-1", "dims-0", "dims-1", "grid-1", "dims-2"])
    def test_sections_without_rows_are_left_out(self, capsys, argv, out):
        assert main(["tables", *argv]) == 0
        assert capsys.readouterr().out == out

    def test_format_is_a_usage_error(self, capsys):
        # the text is the fixed format; there is no JSON rendering to ask for
        assert main(["tables", "--format", "json"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "--format" in captured.err

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

    def test_outer_member_of_wrong_order_fails_with_code_1(self, tmp_path, capsys):
        d = bundle_to_dict(complete(1))
        identity3 = {"order": 3, "perm": [0, 1, 2], "signs": [1, 1, 1]}
        path = write_json(tmp_path, "outer.json", {**d, "A": [identity3, identity3]})
        assert main(["verify", path]) == 1
        assert "A_0 order must be 2, got 3" in capsys.readouterr().err

    def test_inner_member_of_wrong_order_fails_with_code_1(self, tmp_path, capsys):
        d = bundle_to_dict(complete(1))
        identity3 = {"order": 3, "perm": [0, 1, 2], "signs": [1, 1, 1]}
        path = write_json(tmp_path, "inner.json", {**d, "D": [d["D"][0], identity3]})
        assert main(["verify", path]) == 1
        assert "D_1 order must be 2, got 3" in capsys.readouterr().err

    def test_lambda_of_another_size_fails_with_code_1(self, tmp_path, capsys):
        d = bundle_to_dict(complete(1))
        lam3 = {"n": 3, "entries": [[1, 2, 1], [1, 3, 1], [2, 3, 1]]}
        path = write_json(tmp_path, "lam3.json", {**d, "lambda": lam3})
        assert main(["verify", path]) == 1
        assert "lambda has n = 3, the bundle n = 2" in capsys.readouterr().err

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

    @pytest.mark.parametrize("flag", ["--output", "--text-output"])
    def test_unwritable_output_path_fails_with_code_1(self, tmp_path, capsys, flag):
        for path in (tmp_path / "missing" / "out", tmp_path):
            assert main(["hadamard", "1", flag, str(path)]) == 1
            captured = capsys.readouterr()
            assert captured.err.startswith(f"error: cannot write {path}: ")
            assert "Traceback" not in captured.err
        assert not (tmp_path / "missing").exists()

    def test_spec_strings(self, capsys):
        rc = main(["hadamard", "2", "--diag", "IZ", "--offdiag", "XY"])
        assert rc == 0

    def test_depth_cap(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("transversal built above the cap")

        monkeypatch.setattr("qcliff.hadamard.transversal", refuse)
        for depth in ("9", "5"):
            assert main(["hadamard", depth]) == 2
            assert f"2^{depth} matrices, above the cap 16" in capsys.readouterr().err

    def test_dense_order_cap_exits_2(self, capsys, monkeypatch):
        # m = 5 needs b = 2^15, so the dense H would have order 2^20; the
        # cap is decided from the minimal order, before any image is built
        def refuse(*args, **kwargs):
            raise AssertionError("images built above the dense order cap")

        monkeypatch.setattr("qcliff.hadamard._realize", refuse)
        assert main(["hadamard", "5", "--max-n", "32"]) == 2
        assert "assembled order 1048576 exceeds the cap 4096" in capsys.readouterr().err

    def test_usage_error_exit_code(self, capsys):
        assert main(["hadamard", "--diag"]) == 1

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 1


class TestNegativeCapFlags:
    # refused as the flags are parsed, before the (missing) file is read
    @pytest.mark.parametrize("argv", [
        ["represent", "x.json", "--max-order", "-5"],
        ["solve", "x.json", "--max-order", "-5"],
        ["hadamard", "1", "--max-n", "-3"],
        ["hadamard", "1", "--max-order", "-1"],
    ])
    def test_negative_cap_is_a_usage_error(self, capsys, argv):
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {argv[-2]} must be >= 0, got {argv[-1]}\n"

    def test_zero_is_a_cap(self, capsys, monkeypatch):
        assert main(["hadamard", "1", "--max-n", "0"]) == 2
        assert main(["hadamard", "1", "--max-order", "0"]) == 2
        monkeypatch.setenv("QCLIFF_MAX_N", "0")
        assert main(["hadamard", "1"]) == 2


class TestCapEnvironment:
    # the parser reads both caps when it is built, for every subcommand
    @pytest.mark.parametrize("name, value, argv", [
        ("QCLIFF_MAX_ORDER", "abc", ["rho", "4"]),
        ("QCLIFF_MAX_N", "1.5", ["classify", "x.json"]),
        ("QCLIFF_MAX_ORDER", "-5", ["represent", "x.json"]),
        ("QCLIFF_MAX_ORDER", "-5", ["solve", "x.json"]),
        ("QCLIFF_MAX_N", "-3", ["hadamard", "1"]),
    ])
    def test_malformed_cap_variable_exits_1(self, capsys, monkeypatch, name, value, argv):
        monkeypatch.setenv(name, value)
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and name in err

    def test_parser_is_rebuilt_only_when_a_cap_variable_changes(self, capsys, monkeypatch):
        built = []

        def counting():
            built.append(1)
            return build_parser()

        monkeypatch.setattr(cli, "build_parser", counting)
        monkeypatch.delenv("QCLIFF_MAX_N", raising=False)
        monkeypatch.delenv("QCLIFF_MAX_ORDER", raising=False)
        cli._parser.cache_clear()
        assert main(["rho", "4"]) == main(["rho", "8"]) == 0
        assert len(built) == 1
        monkeypatch.setenv("QCLIFF_MAX_ORDER", "3")
        assert main(["rho", "4"]) == 0
        assert len(built) == 2


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
