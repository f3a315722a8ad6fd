"""Command-line interface: formats, exit codes, determinism, golden files."""

import json
import subprocess
import sys

import pytest

from bethe_gl2.cli import main


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_operator_json(tmp_path, capsys):
    out = tmp_path / "op.json"
    code, _, _ = run_cli(["operator", "--points", "0,1",
                          "--k-matrix", "nilpotent",
                          "--output", str(out)], capsys)
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["W"] == ["0", "-1", "1"]
    assert len(payload["U"]) == 2
    assert payload["module"] == {"n": 2, "points": ["0", "1"]}


def test_operator_points_file(tmp_path, capsys):
    points = tmp_path / "points.json"
    points.write_text(json.dumps({"n": 2, "points": ["0", "1/2"]}))
    code, out, _ = run_cli(["operator", "--points", str(points)], capsys)
    assert code == 0
    assert json.loads(out)["module"]["points"] == ["0", "1/2"]


def test_decompose_output(tmp_path, capsys):
    out = tmp_path / "dec.json"
    code, _, _ = run_cli(["decompose", "--points", "0,1",
                          "--output", str(out)], capsys)
    assert code == 0
    payload = json.loads(out.read_text())
    dims = {tuple(b["weight"]): b["dimension"] for b in payload["blocks"]}
    assert dims == {(2, 0): 3, (1, 1): 1}
    leaf = payload["blocks"][1]["leaves"][0]
    assert leaf["coefficients"] == [["0"], ["2"]]


def test_decompose_wide_points_escalate(tmp_path, capsys):
    # At 128 bits the nilpotent of block (3,1) looks like it vanishes
    # before its index at these points; the split must escalate instead
    # of reporting a theorem violation.
    out = tmp_path / "dec.json"
    code, _, _ = run_cli(["decompose", "--points", "20,60,77,90",
                          "--output", str(out)], capsys)
    assert code == 0
    payload = json.loads(out.read_text())
    leaf_counts = {tuple(b["weight"]): len(b["leaves"])
                   for b in payload["blocks"]}
    assert leaf_counts == {(4, 0): 1, (3, 1): 3, (2, 2): 2}
    for block in payload["blocks"]:
        for leaf in block["leaves"]:
            dim = leaf["dimension"]
            expected_u1 = ["0", "1"] + ["0"] * (dim - 2) if dim > 1 else ["0"]
            assert leaf["coefficients"][0] == expected_u1
            assert leaf["coefficients"][1][0] == block["eigenvalue"]


def test_eliminate_golden_values(capsys):
    code, out, _ = run_cli(["eliminate", "--k", "0", "--d", "1"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["phi"]["1"] == ["0", {"terms": [
        {"coeff": "1", "exps": [0]}], "vars": ["g1"]}]
    assert payload["psi"]["1"] == ["0", {"terms": [
        {"coeff": "-1/3", "exps": [0]}], "vars": ["g1"]}]


def test_character_command(capsys):
    code, out, _ = run_cli(["character", "--n", "2", "--order", "4"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["isotypic"]["1"]["match"] is True
    assert payload["isotypic"]["1"]["closed"]["coeffs"][:3] == ["1", "1", "2"]


def test_verify_core_passes(tmp_path, capsys):
    out = tmp_path / "cert.json"
    code, _, _ = run_cli(["verify", "--suite", "core", "--n", "2",
                          "--seed", "3", "--output", str(out)], capsys)
    assert code == 0
    cert = json.loads(out.read_text())
    assert cert["overall"] == "pass"
    names = {c["name"] for r in cert["instances"] for c in r["checks"]}
    assert any(n.startswith("commutativity") for n in names)
    assert "nilp_formula" in names


def test_verify_determinism(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        code, _, _ = run_cli(["verify", "--suite", "spectral", "--n", "2",
                              "--seed", "5", "--output", str(path)], capsys)
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_verify_parallel_jobs_match_sequential(tmp_path, capsys):
    seq, par = tmp_path / "seq.json", tmp_path / "par.json"
    code, _, _ = run_cli(["verify", "--suite", "core", "--n", "2",
                          "--seed", "4", "--output", str(seq)], capsys)
    assert code == 0
    code, _, _ = run_cli(["verify", "--suite", "core", "--n", "2",
                          "--seed", "4", "--jobs", "2",
                          "--output", str(par)], capsys)
    assert code == 0
    assert seq.read_bytes() == par.read_bytes()


def test_verify_max_n_cap(capsys):
    with pytest.raises(SystemExit) as info:
        main(["verify", "--suite", "core", "--n", "9"])
    assert info.value.code == 2


def test_verify_unknown_suite_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["verify", "--suite", "bogus"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["verify", "--suite", ""])
    assert info.value.code == 2


def test_verify_invalid_precision(capsys):
    with pytest.raises(SystemExit) as info:
        main(["verify", "--suite", "core", "--precision", "16"])
    assert info.value.code == 2


def test_missing_points_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["operator"])
    assert info.value.code == 2


def test_repeated_points_error(capsys):
    code, _, err = run_cli(["operator", "--points", "1,1"], capsys)
    assert code == 1
    assert "distinct" in err


def test_env_precision_override(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("BETHE_GL2_PRECISION", "96")
    out = tmp_path / "dec.json"
    code, _, _ = run_cli(["decompose", "--points", "0,1",
                          "--output", str(out)], capsys)
    assert code == 0
    assert json.loads(out.read_text())["precision"] == 96


def test_config_file(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"suite": "core", "max_n": 1, "seed": 9}))
    out = tmp_path / "cert.json"
    code, _, _ = run_cli(["verify", "--config", str(cfg),
                          "--output", str(out)], capsys)
    assert code == 0
    cert = json.loads(out.read_text())
    assert cert["config"]["max_n"] == 1
    assert cert["config"]["seed"] == 9


def test_golden_compare_and_bless(tmp_path, capsys):
    golden_dir = tmp_path / "golden"
    code, out, _ = run_cli(["golden", "--k", "0", "--d", "1",
                            "--dir", str(golden_dir)], capsys)
    assert code == 1  # missing golden without --bless
    code, out, _ = run_cli(["golden", "--k", "0", "--d", "1", "--bless",
                            "--dir", str(golden_dir)], capsys)
    assert code == 0
    code, out, _ = run_cli(["golden", "--k", "0", "--d", "1",
                            "--dir", str(golden_dir)], capsys)
    assert code == 0
    assert "golden match" in out
    # a corrupted coefficient is reported with its JSON path
    path = golden_dir / "elimination" / "k0_d1.json"
    payload = json.loads(path.read_text())
    payload["phi"]["1"][1]["terms"][0]["coeff"] = "2"
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    code, out, _ = run_cli(["golden", "--k", "0", "--d", "1",
                            "--dir", str(golden_dir)], capsys)
    assert code == 1
    assert "diff at" in out


def test_repo_golden_files_match(capsys):
    # the blessed files shipped with the repository stay reproducible
    for (k, d) in ((0, 1), (1, 1), (0, 2), (2, 1), (1, 2)):
        code, out, _ = run_cli(["golden", "--k", str(k), "--d", str(d)],
                               capsys)
        assert code == 0, out


def test_internal_consistency_exit_code(tmp_path, capsys, monkeypatch):
    from bethe_gl2 import suites
    from bethe_gl2.errors import InternalConsistencyError

    def explode(params):
        raise InternalConsistencyError("synthetic identity failure")

    monkeypatch.setitem(suites.TASKS, "core", explode)
    out = tmp_path / "cert.json"
    code, _, _ = run_cli(["verify", "--suite", "core", "--n", "1",
                          "--jobs", "1", "--output", str(out)], capsys)
    assert code == 3
    cert = json.loads(out.read_text())
    assert cert["overall"] == "internal-error"


def test_console_script_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "bethe_gl2.cli", "eliminate",
         "--k", "0", "--d", "1"],
        capture_output=True, text=True)
    assert result.returncode == 0
    assert json.loads(result.stdout)["k"] == 0
