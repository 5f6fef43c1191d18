import dataclasses
import json
import math

import numpy as np
import pytest

from unambig import linalg, optimizer, povm, simulate, states, strategies as st
from unambig.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_b4(capsys):
    code, out, _ = run_cli(capsys, "solve", "--case", "b4", "--dim", "2", "--beta", "0.5")
    assert code == 0
    record = json.loads(out)
    assert list(record.keys()) == [
        "case", "dim", "inputs", "lambda", "branch", "p_analytic", "p_numeric", "min_eig",
    ]
    assert record["lambda"] == pytest.approx([2 / 3, 2 / 3])
    assert record["p_analytic"] == pytest.approx(0.5)
    assert record["p_numeric"] == pytest.approx(0.5, abs=1e-9)
    assert min(record["min_eig"]) >= -1e-9


def test_solve_a1_first_branch(capsys):
    code, out, _ = run_cli(capsys, "solve", "--case", "a1", "--dim", "2", "--eta1", "0.1")
    assert code == 0
    record = json.loads(out)
    assert record["lambda"] == [0.0, 1.0]
    assert record["branch"] == "eta1<=1/5"


def test_solve_rejects_forbidden_input(capsys):
    code, _, err = run_cli(capsys, "solve", "--case", "a1", "--dim", "2", "--beta", "0.3")
    assert code == 2
    assert "beta" in err


def test_solve_b2_reports_worst_case_reference(capsys):
    code, out, _ = run_cli(capsys, "solve", "--case", "b2", "--dim", "2")
    assert code == 0
    record = json.loads(out)
    assert record["p_analytic"] == pytest.approx((3 - math.sqrt(5)) / 2)
    assert record["p_numeric"] == pytest.approx((3 - math.sqrt(5)) / 2, abs=1e-9)


def test_verify_single_case(capsys):
    code, out, _ = run_cli(capsys, "verify", "--case", "b1", "--dim", "2", "--grid", "0.2")
    assert code == 0
    assert "ok" in out


def test_verify_negative_control(capsys):
    code, out, _ = run_cli(capsys, "verify", "--case", "b4", "--dim", "2", "--grid", "0.25", "--perturb", "0.05")
    assert code == 1
    assert "FAIL" in out


def test_sweep_csv_contract(tmp_path, capsys):
    out_file = tmp_path / "sweep.csv"
    code, _, _ = run_cli(capsys, "sweep", "--surface", "p2_opt", "--grid", "0.05", "--out", str(out_file))
    assert code == 0
    raw = out_file.read_bytes()
    assert b"\r" not in raw
    lines = raw.decode().splitlines()
    assert lines[0] == "beta,eta1,value"
    assert len(lines) == 1 + 21 * 21
    # row order is eta1-major, beta fastest
    first = [line.split(",") for line in lines[1:23]]
    assert float(first[0][1]) == 0.0 and float(first[20][0]) == 1.0
    assert float(first[21][1]) == pytest.approx(0.05)
    # value at (0.5, 0.5)
    for parts in (line.split(",") for line in lines[1:]):
        if parts[0] == "0.5" and parts[1] == "0.5":
            assert float(parts[2]) == pytest.approx(0.5, abs=1e-12)
            break
    else:
        pytest.fail("grid point (0.5, 0.5) missing")


def test_sweep_csv_roundtrip(tmp_path, capsys):
    out_file = tmp_path / "sweep.csv"
    run_cli(capsys, "sweep", "--surface", "p1plus_opt", "--grid", "0.1", "--out", str(out_file))
    for line in out_file.read_text().splitlines()[1:]:
        b, e, v = (float(x) for x in line.split(","))
        assert abs(st.p1plus_opt(b, e) - v) <= 1e-12


def test_sweep_constant_in_prior(tmp_path, capsys):
    out_file = tmp_path / "sweep.csv"
    run_cli(capsys, "sweep", "--surface", "p0_weta", "--grid", "0.25", "--out", str(out_file))
    rows = [line.split(",") for line in out_file.read_text().splitlines()[1:]]
    by_beta = {}
    for b, e, v in rows:
        by_beta.setdefault(b, set()).add(v)
    assert all(len(vals) == 1 for vals in by_beta.values())


def test_sweep_difference_nonnegative_exit(capsys):
    code, out, err = run_cli(capsys, "sweep", "--surface", "p_1plus_to_2", "--grid", "0.1")
    assert code == 0 and err == ""
    parts = [line.split(",") for line in out.splitlines()[1:]]
    assert all(float(p[2]) >= -1e-9 for p in parts)
    assert len(parts[0]) == 5  # value, minuend, subtrahend columns


def test_sweep_flags_genuine_ordering_violation(capsys):
    # the prior-gain surface for the one-state-known regime is negative on a
    # region: the sweep must exit nonzero and name a violating cell
    code, out, err = run_cli(capsys, "sweep", "--surface", "p1_prior_gain", "--grid", "0.05")
    assert code == 1
    assert "ordering violated" in err and "beta=" in err


def test_sweep_unknown_surface(capsys):
    code, _, err = run_cli(capsys, "sweep", "--surface", "nonsense")
    assert code == 2
    assert "unknown surface" in err


def test_sweep_json_format(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--surface", "p2_weta", "--grid", "0.5", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["surface"] == "p2_weta"
    assert len(payload["rows"]) == 9
    assert payload["rows"][0] == {"beta": 0.0, "eta1": 0.0, "value": 1.0}


def test_sweep_byte_determinism(tmp_path, capsys):
    files = []
    for name in ("a.csv", "b.csv"):
        out_file = tmp_path / name
        run_cli(capsys, "sweep", "--surface", "p1_wbetaeta", "--grid", "0.05", "--out", str(out_file))
        files.append(out_file.read_bytes())
    assert files[0] == files[1]


def test_simulate_json_and_determinism(tmp_path, capsys):
    args = ["simulate", "--case", "b2", "--dim", "3", "--beta", "0.4", "--eta1", "0.3",
            "--shots", "200000", "--seed", "21"]
    outputs = []
    for name in ("x.json", "y.json"):
        out_file = tmp_path / name
        code, _, _ = run_cli(capsys, *args, "--out", str(out_file))
        assert code == 0
        outputs.append(out_file.read_bytes())
    assert outputs[0] == outputs[1]
    record = json.loads(outputs[0])
    assert record["counts"]["n_error"] == 0
    sigma = max(record["stderr"], 1e-9)
    assert abs(record["estimated_success"] - record["p_analytic"]) <= 4 * sigma


def test_simulate_requires_world_parameters(capsys):
    code, _, err = run_cli(capsys, "simulate", "--case", "b2", "--dim", "2", "--beta", "0.4")
    assert code == 2
    assert "eta1" in err


def test_unknown_case(capsys):
    code, _, err = run_cli(capsys, "solve", "--case", "c9", "--dim", "2")
    assert code == 2
    assert "unknown case" in err


def test_internal_check_failure_exits_3(monkeypatch, capsys):
    def broken_check(*_args):
        raise AssertionError("oracle solution is not a measurement")

    monkeypatch.setattr(optimizer, "_check_solution_psd", broken_check)
    code, out, err = run_cli(capsys, "verify", "--case", "b1", "--dim", "2", "--grid", "0.5")
    assert code == 3 and out == ""
    assert err == "internal error: oracle solution is not a measurement\n"


def test_simulate_measurement_failure_exits_3(monkeypatch, capsys):
    real = simulate.validate

    def negative_eigenvalue(povm):
        report = real(povm)
        return dataclasses.replace(report, psd_ok=(False,) + report.psd_ok[1:],
                                   min_eigenvalues=(-0.25,) + report.min_eigenvalues[1:])

    monkeypatch.setattr(simulate, "validate", negative_eigenvalue)
    code, out, err = run_cli(capsys, "simulate", "--case", "a4", "--dim", "2", "--beta", "0.3", "--eta1", "0.5",
                             "--shots", "1000")
    assert code == 3 and out == ""
    assert err.startswith("internal error: POVM is not positive semidefinite")


def _non_hermitian(monkeypatch):
    monkeypatch.setattr(linalg, "hermiticity_defect", lambda m: 1.0)


def _imaginary_expectation(monkeypatch):
    real = povm.build_for_case

    def skewed(*args):
        built = real(*args)
        return povm.PovmSet(built.pi1 + 0.1j * np.eye(built.dim), built.pi2, built.pi0)

    monkeypatch.setattr(povm, "build_for_case", skewed)


def _overlap_mismatch(monkeypatch):
    real = states.overlap
    monkeypatch.setattr(states, "overlap", lambda a, b: real(a, b) + 1e-6)


@pytest.mark.parametrize("defect,message", (
    (_non_hermitian, "matrix is not Hermitian"),
    (_imaginary_expectation, "expectation has imaginary part"),
    (_overlap_mismatch, "stored beta"),
))
def test_numerical_failures_exit_3(defect, message, monkeypatch, capsys):
    defect(monkeypatch)
    code, out, err = run_cli(capsys, "solve", "--case", "a4", "--dim", "2", "--beta", "0.3", "--eta1", "0.5")
    assert code == 3 and out == ""
    assert err.startswith(f"internal error: {message}")


@pytest.mark.parametrize("argv", (
    ("--beta", "0.3", "--eta1", "0.5", "--shots", "0"),
    ("--beta", "1.5", "--eta1", "0.5"),
))
def test_simulate_bad_arguments_stay_usage_errors(argv, capsys):
    code, out, err = run_cli(capsys, "simulate", "--case", "a4", "--dim", "2", *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ")
