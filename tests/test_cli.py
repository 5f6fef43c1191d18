import dataclasses
import hashlib
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


# (exit code, sha256 of stdout) of every sweep: CSV at grid 0.01 and JSON at grid 0.05,
# recorded when each cell was evaluated and formatted one at a time
_SWEEP_GOLDEN = {
    ("p0_opt", "csv"): (0, "feac932f3e6d4b13f2a97d86e28ea7cfd714222f17de396f019437c310146445"),
    ("p0_opt", "json"): (0, "68ec8ca05738eb991194126c144a0eaee7110b0ff4fd77c4712f9376a485f8e1"),
    ("p0_prior_gain", "csv"): (0, "978289b5c882716ca4c6800e85a73737d5861988d072a3954a31a2d88695337d"),
    ("p0_prior_gain", "json"): (0, "c8795e446d8acee65e634fc799097bd1359a0cc015a6e01511b53d356627d7ee"),
    ("p0_weta", "csv"): (0, "25f079d552952c43ce135f0947726ab680faec2920d79ac13bde9a942307d259"),
    ("p0_weta", "json"): (0, "b4c8bb90eb9eeb4cd02aa1a78169dbd1c229c872ebd020c55304160c31078362"),
    ("p1_prior_gain", "csv"): (1, "09833a524eb6e8d320b11bb2f74e17d3da6948b649a1fd110b7161ba14327efc"),
    ("p1_prior_gain", "json"): (1, "630dc92213b04059b855d6c71b4b8ba60f4f878c3a4cae5514122530e3167571"),
    ("p1_wbeta", "csv"): (0, "e855943233b885bcab60c0fa9b3dc09dad673c62c5142db9cf40679a23dcf1a1"),
    ("p1_wbeta", "json"): (0, "6d67b374d4b8ea9894446287145f52aa446ce8094a81967356fa22f1b25b67c1"),
    ("p1_wbetaeta", "csv"): (0, "432b7e56691cb40b6abc676062d6f4ec3db7766f9d25319c093b51fbfd92db98"),
    ("p1_wbetaeta", "json"): (0, "15b1e3d1d294d8e8e4b28cca06fc535802ae577b58c6562478ae077a23c8cc06"),
    ("p1plus_actual", "csv"): (0, "394afd340e466a037f9472f20b2aaf5d8ca8e0678dabf416840c207219d12383"),
    ("p1plus_actual", "json"): (0, "647aee5a1f3c8e37664998c016d546a8eefb2412f7c92cadeef1c7e1e89bea6d"),
    ("p1plus_opt", "csv"): (0, "ae992059c59d45701e66d5d5c2ae62b03e892120408ebd2b4694053d3af1e977"),
    ("p1plus_opt", "json"): (0, "01f08c8f276dbda9500d4ba05d8d3a2fb495f44049d51207359df288c7bd11a6"),
    ("p1plus_prior_gain", "csv"): (0, "341f3e4ee17cd4fb59bf5e2b3ba45797781ab52d774d0deaae1252b39c382568"),
    ("p1plus_prior_gain", "json"): (0, "84772a3a802628a9af39f532d16388c7b059c51f22245589fa2536c99331a6a9"),
    ("p1plus_weta", "csv"): (0, "a89c41ca234b5380b8094b488e008c61431cb9557bed451ea4d9d387c01be266"),
    ("p1plus_weta", "json"): (0, "1315ae9406fb1cc1410adde69d444612049216ead9856744fb75117fba507419"),
    ("p2_opt", "csv"): (0, "9e588cbe02ce0ff0621642dad4bffb5ddf4fdb4d356c39e1186f95c405ab9479"),
    ("p2_opt", "json"): (0, "99c7286e893b86911f8c890303f2a6fe71c52ba9b50806f31db48166641148d5"),
    ("p2_prior_gain", "csv"): (0, "22e45c35aa4f51c79f271f1179b1ed6e6a68494357f7353221c05e657d33c1ec"),
    ("p2_prior_gain", "json"): (0, "d27dfde448e34c1d4e29a8239d712bd7345910b1d772a05d09b717cc559ce762"),
    ("p2_weta", "csv"): (0, "13e559f6cb85de691c6aa8db14b13494547634eb873cbf37f32cc8890f3c468b"),
    ("p2_weta", "json"): (0, "8317ca4cb192d0786eb738853d28ab17a754c6fbb9f4441739a8cd3710ace142"),
    ("p_0_to_1", "csv"): (0, "94f3726b9bf92cbd48ca3d5ef993add38a139489b296cb8333346ec5db081db1"),
    ("p_0_to_1", "json"): (0, "c9626a2c3c0de3e62ed0cdd8466555c3b19a2677da5889238e15cb1899c7027d"),
    ("p_1_to_1plus", "csv"): (0, "e8445efc66b8f3db2ca16aeb6e14892e92a70e376ebe3028c9dcfd85e27178d0"),
    ("p_1_to_1plus", "json"): (0, "577e964e6c76cbd27370f6ae5de8fa78c00368f8d3d50d2027ba1be79d63a4c0"),
    ("p_1plus_to_2", "csv"): (0, "698b3e0d2d1e02cd234160120da84022c6ccfdfd7586c59db12cc80cf636ff51"),
    ("p_1plus_to_2", "json"): (0, "5f8503e69a347a1d6007c27e7451bcb3d7323e22da95b50c44a7b554f67cdb79"),
}
_SWEEP_GRID = {"csv": "0.01", "json": "0.05"}


@pytest.mark.parametrize("name,fmt", sorted(_SWEEP_GOLDEN), ids="-".join)
def test_sweep_output_golden(name, fmt, capsys):
    code, out, err = run_cli(capsys, "sweep", "--surface", name, "--grid", _SWEEP_GRID[fmt], "--format", fmt)
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == _SWEEP_GOLDEN[name, fmt]
    if name == "p1_prior_gain":  # the first violating cell in row order
        eta1 = "0.01" if fmt == "csv" else "0.05"
        gap = "-0.00381966" if fmt == "csv" else "-0.0190983"
        assert err == f"ordering violated: p1_prior_gain = {gap} < 0 at beta=0, eta1={eta1}\n"
    else:
        assert err == ""


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
