import dataclasses
import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from unambig import cli, linalg, optimizer, povm, simulate, states, strategies as st
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


def test_verify_nan_deviation_fails(capsys):
    code, out, _ = run_cli(capsys, "verify", "--case", "b1", "--dim", "2", "--grid", "0.5", "--perturb", "nan")
    assert code == 1
    assert out == "b1/dim2: max |closed - oracle| = nan at (beta, eta1) = (0.0, 0.0) -> FAIL\nEXCEEDS tolerance 0.002\n"


def test_verify_case_all_is_case_insensitive(capsys):
    lower = run_cli(capsys, "verify", "--case", "all", "--dim", "2", "--grid", "0.5")
    assert lower[0] == 0
    assert run_cli(capsys, "verify", "--case", "ALL", "--dim", "2", "--grid", "0.5") == lower


@pytest.mark.parametrize("dim,grid,digest", [
    ("2", "0.05", "dc7197b9c0f1b0b89bd037917b6e76384d766d6a46e1adbc347fd80349c9d808"),
    ("3", "0.1", "c24af015cbbcb8b9ae1433f52a3765c2e9dcd2bf4a87e8500212071be94a4d82"),
])
def test_verify_all_stdout_is_pinned(dim, grid, digest, capsys):
    # the oracle workload's two commands: every case's deviation line and verdict, byte for byte
    code, out, _ = run_cli(capsys, "verify", "--case", "all", "--dim", dim, "--grid", grid)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


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


def test_simulate_stdout_is_pinned(capsys):
    # 16 batches summed as ints: the sha256 of stdout recorded when run summed numpy int64 counts
    code, out, _ = run_cli(capsys, "simulate", "--case", "b2", "--dim", "3", "--beta", "0.4", "--eta1", "0.3",
                           "--shots", "1000000", "--seed", "5")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == "2f7f005f4856b394b9757a9a7dcdde3cda1fcdae8366d73cdf9f48fe1b50ca69"


@pytest.mark.parametrize("seed,digest", [
    (1, "9da1f6a18363f340a1b60e63ba089521a7980ac3c2e8f0b9fff40c3c87386514"),
    (2**128 - 1, "ebb2ff35418237d6ebc0abd45d645e5d17e3df9641794a19e167e11c7fd83ded"),
])
def test_simulate_1e8_shots_stdout_is_pinned(seed, digest, capsys):
    # 1526 batches, each on its own jumped stream: the sha256 of stdout recorded when run read each jump's state back
    code, out, _ = run_cli(capsys, "simulate", "--case", "b2", "--dim", "3", "--beta", "0.4", "--eta1", "0.3",
                           "--shots", "100000000", "--seed", str(seed))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of stdout for every case at one point, beta = 0.4 and eta1 = 0.3: solve takes the inputs its
# regime may use, simulate takes both and runs 10^5 shots at seed 7; recorded when run built its own POVM
_CASE_STDOUT = {
    ("solve", "a1", 2): "74ce4bc50177ae4e148fe6e8dad1d8b8ac6c28a96f076ac9794e8f6fa140e26e",
    ("simulate", "a1", 2): "8688752a8441930f388992eac2c38cf3a46bf957793a7f0411ec676901cce6c8",
    ("solve", "a2", 2): "21fd46469a1e8bcaca4b284cabec4aed2f18ac4d6ee8cb591e5cdd8c26b84eb3",
    ("simulate", "a2", 2): "26d09121e9c1697dad7d346ea0db7fa174093c55999483260ec1a40c3f13e7c3",
    ("solve", "a3", 2): "2df89b60d1bf957cfda1c7cd9d3c466c6121487e9e34c5c627928601755c025e",
    ("simulate", "a3", 2): "f19b68ea616e62a431834d83991eccd86c0c204116c46324ee2bda27fe4e4cfc",
    ("solve", "a4", 2): "6aaab6fe3c1c1b80eebc1a99541be1d1201a02da1f2428b7dbd99767e4bae796",
    ("simulate", "a4", 2): "e7dd6dc24e1381aa4cd9655045bb5784e3aaa2c960324fe0b8a1786552cb50c4",
    ("solve", "b1", 2): "348d97b6adb5cc0ddda4a411dfb3b4070b5ddb9a0d50660c9bc1574c29fc7910",
    ("simulate", "b1", 2): "bec1a6595105d9e5b9e83eaa2f4cff1b1c8d05d1cce70ae50053e1daa0c31b19",
    ("solve", "b2", 2): "3410f61f0f68cfca3b0212f8e7ee2e5974548e797a2e94aab5fca3d21a9787c9",
    ("simulate", "b2", 2): "20de5248d52ffcf1a161be9b40559c2657863da290c474c21e06a8464fab53e3",
    ("solve", "b3", 2): "676deb70a57d78c045e17fbb1e7d7fb2e8d54afd6285f2d6b8c1901b435713aa",
    ("simulate", "b3", 2): "469aa5c8e6fb5d3762521eed0f4b0f583984616b4c8ee95bf78fa67fbdf2df4e",
    ("solve", "b4", 2): "f9900f067801b7a1d5a6cdb4f5403b4f2d346ac7a12579f877540b92582bdfb0",
    ("simulate", "b4", 2): "e9414576ed80859bf1ba9d4580ec2ed40af5c44419858766e7491bc5db22eddb",
    ("solve", "a1", 3): "1c932c4d4ae407f7494f5b544ff56328b2ab8bf35fea189f1ad2dce791ea9397",
    ("simulate", "a1", 3): "07b66d4c03d048fa013e48664d03692670b2cceadb2ccf8295cdae2b96fb904f",
    ("solve", "a2", 3): "6528b2fa43f3834f2e90e85e1d58b57757ba1f8e94602c3ee09e17f28bce15d3",
    ("simulate", "a2", 3): "933971be51a4a149e47bb96a6b0decaabdcc631c283a7f1a5245acb051564eb5",
    ("solve", "a3", 3): "c0b92d7dc39c48868e2388c354de79f19cf79ef969acfefb6c02a4f35026733f",
    ("simulate", "a3", 3): "ef04a7dd2f6ca157c640adc57e5f4d68921187a978a21bb8e3b5e102dc620143",
    ("solve", "a4", 3): "a4395adacb5a4f214f8a2a7a2d72a7f87eca065ca55817504af5dbb0fe429769",
    ("simulate", "a4", 3): "f388a8c9f80b4bd80547659c3d1b6b056a6977b21c1e27b99b2fdcdfb8a362ec",
    ("solve", "b1", 3): "48a0a4ff310420db924473ee31c693c76e4aaa729afdf5e702385d44f4b86bb1",
    ("simulate", "b1", 3): "4ca0d0bc7584d1c70f8fd202bf192616a3bad3391cb52dc511bc3c84c531f2a3",
    ("solve", "b2", 3): "6adb92c249243769baccea5d76a362c1a0ad370929306c54e5de4289e95a5f3f",
    ("simulate", "b2", 3): "85671e0d6d4fa81c99727ce83500f4098eb0a96663348253e7135a081f52afa3",
    ("solve", "b3", 3): "a976cb3810e76340dbc5d5ae82e0740680dba61bc98bf6b463b56da4f5676c0b",
    ("simulate", "b3", 3): "7cf99ede23e82929d108afb7175b131a14fea6f26b524571685b86fb7fc6e365",
    ("solve", "b4", 3): "e721804f8864b4e4bf90d22876d8cbdad260c968b4f3fec4ae60834eece67761",
    ("simulate", "b4", 3): "f0f3fb1d8edc4390879d16c8745e1c656179892c7dc86d4a47cd379b5573cc56",
}


@pytest.mark.parametrize("command,regime,dim", sorted(_CASE_STDOUT, key=lambda k: (k[2], k[1], k[0])),
                         ids=lambda v: str(v))
def test_solve_and_simulate_stdout_are_pinned(command, regime, dim, capsys):
    argv = [command, "--case", regime, "--dim", str(dim)]
    if command == "simulate" or regime[1] in "34":
        argv += ["--beta", "0.4"]
    if command == "simulate" or regime[0] == "a":
        argv += ["--eta1", "0.3"]
    if command == "simulate":
        argv += ["--shots", "100000", "--seed", "7"]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == _CASE_STDOUT[command, regime, dim]


def test_simulate_requires_world_parameters(capsys):
    code, _, err = run_cli(capsys, "simulate", "--case", "b2", "--dim", "2", "--beta", "0.4")
    assert code == 2
    assert "eta1" in err


def test_unknown_case(capsys):
    for command in ("solve", "verify"):
        code, out, err = run_cli(capsys, command, "--case", "c9", "--dim", "2")
        assert code == 2 and out == ""
        assert err.startswith("error: unknown case 'c9' (expected one of ['a1', ")


@pytest.mark.parametrize("argv, missing, reason", (
    (("sweep", "--surface", "p2_opt", "--grid", "0.5"), "missing/x.csv", "No such file or directory"),
    (("solve", "--case", "a1", "--eta1", "0.3"), "", "Is a directory"),
))
def test_unwritable_out_is_a_usage_error(argv, missing, reason, tmp_path, capsys):
    # a missing directory or a directory as the file: one error line naming the path, no traceback
    out = str(tmp_path / missing) if missing else str(tmp_path)
    code, stdout, err = run_cli(capsys, *argv, "--out", out)
    assert code == 2 and stdout == ""
    assert err == f"error: cannot write --out {out}: {reason}\n"


REGIME_CHOICES = "['a1', 'a2', 'a3', 'a4', 'b1', 'b2', 'b3', 'b4']"


@pytest.mark.parametrize("command, case, choices", (
    ("solve", "c9", REGIME_CHOICES),
    ("solve", "all", REGIME_CHOICES),
    ("simulate", "c9", REGIME_CHOICES),
    ("simulate", "ALL", REGIME_CHOICES),
    ("verify", "c9", REGIME_CHOICES[:-1] + ", 'all']"),
))
def test_unknown_case_lists_the_commands_own_choices(command, case, choices, capsys):
    # verify also takes 'all'; solve and simulate take one regime
    code, out, err = run_cli(capsys, command, "--case", case, "--dim", "2")
    assert code == 2 and out == ""
    assert err == f"error: unknown case '{case}' (expected one of {choices})\n"


@pytest.mark.parametrize("grid", ("0", "-0.5", "2", "nan"))
@pytest.mark.parametrize("command", (("verify", "--case", "a1"), ("sweep", "--surface", "p2_opt")))
def test_bad_grid_is_a_usage_error(command, grid, capsys):
    # unchecked, a zero step divides by zero in verify and a negative or too coarse
    # one verifies only the four corners of the box
    code, out, err = run_cli(capsys, *command, "--grid", grid)
    assert code == 2 and out == ""
    assert err == f"error: --grid step must lie in (0, 0.5], got {float(grid)}\n"


@pytest.mark.parametrize("grid", ("0.3", "0.4", "0.15"))
@pytest.mark.parametrize("command", (("verify", "--case", "a1"), ("sweep", "--surface", "p2_opt")))
def test_grid_step_that_does_not_divide_the_box_is_a_usage_error(command, grid, capsys):
    # the axes hold round(1/step) + 1 points, so such a step would be replaced by 1/round(1/step) unannounced
    code, out, err = run_cli(capsys, *command, "--grid", grid)
    assert code == 2 and out == ""
    assert err == f"error: grid step must divide [0, 1] into whole steps, got {float(grid)}\n"


def test_internal_check_failure_exits_3(monkeypatch, capsys):
    def broken_check(*_args):
        raise AssertionError("oracle solution is not a measurement")

    monkeypatch.setattr(optimizer, "_check_solutions_psd", broken_check)
    code, out, err = run_cli(capsys, "verify", "--case", "b1", "--dim", "2", "--grid", "0.5")
    assert code == 3 and out == ""
    assert err == "internal error: oracle solution is not a measurement\n"


def _negative_pi0_eigenvalue(real):
    """``real`` (a ``validate``) with pi0's least eigenvalue reported as -0.25."""
    def validate(povm_set):
        report = real(povm_set)
        return dataclasses.replace(report, psd_ok=report.psd_ok[:2] + (False,),
                                   min_eigenvalues=report.min_eigenvalues[:2] + (-0.25,))

    return validate


def test_failed_measurement_check_exits_3(monkeypatch, capsys):
    monkeypatch.setattr(povm, "validate", _negative_pi0_eigenvalue(povm.validate))
    code, out, err = run_cli(capsys, "verify", "--case", "a4", "--dim", "3", "--grid", "0.5")
    assert code == 3 and out == ""
    assert err.startswith("internal error: oracle solution for a4/dim3: POVM is not positive semidefinite: min eigenvalues (")
    assert err.endswith(", -0.25)\n")


def test_verify_completeness_failure_exits_3(monkeypatch, capsys):
    real = povm.validate
    monkeypatch.setattr(povm, "validate", lambda povm_set: dataclasses.replace(real(povm_set), completeness_residual=1e-3))
    code, out, err = run_cli(capsys, "verify", "--case", "a4", "--dim", "3", "--grid", "0.5")
    assert code == 3 and out == ""
    assert err == "internal error: oracle solution for a4/dim3: POVM completeness residual 1.000e-03\n"


def test_solve_measurement_failure_exits_3(monkeypatch, capsys):
    monkeypatch.setattr(cli, "validate", _negative_pi0_eigenvalue(cli.validate))
    code, out, err = run_cli(capsys, "solve", "--case", "a4", "--dim", "2", "--beta", "0.3", "--eta1", "0.4")
    assert code == 3 and out == ""
    assert err.startswith("internal error: POVM is not positive semidefinite: min eigenvalues (")
    assert err.endswith(", -0.25)\n")


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


def test_simulate_nan_probabilities_exit_3(monkeypatch, capsys):
    # NaN probabilities must not reach the sampler, whose ValueError would read as a usage error
    nan_values = lambda state, op: np.full(np.broadcast_shapes(state.shape[:-1], op.shape[:-2]), np.nan)
    monkeypatch.setattr(simulate, "expectation", nan_values)
    code, out, err = run_cli(capsys, "simulate", "--case", "a4", "--dim", "2", "--beta", "0.3", "--eta1", "0.5",
                             "--shots", "1000")
    assert code == 3 and out == ""
    assert err.startswith("internal error: outcome probabilities sum to")


@pytest.mark.parametrize("argv", (
    ("--beta", "0.3", "--eta1", "0.5", "--shots", "0"),
    ("--beta", "1.5", "--eta1", "0.5"),
    ("--beta", "0.3", "--eta1", "0.5", "--seed", "-1"),
    ("--beta", "0.3", "--eta1", "0.5", "--seed", str(2**128)),
))
def test_simulate_bad_arguments_stay_usage_errors(argv, capsys):
    code, out, err = run_cli(capsys, "simulate", "--case", "a4", "--dim", "2", *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize("case,dim", (("a4", 2), ("b4", 3)))
@pytest.mark.parametrize("beta", ("0.9999999999999", "1"))
def test_simulate_near_parallel_states_name_the_overlap_and_the_threshold(case, dim, beta, capsys):
    # an overlap below 1 but above 1 - 1e-12 is rejected as parallel, and the message says which overlap
    code, out, err = run_cli(capsys, "simulate", "--case", case, "--dim", str(dim), "--beta", beta, "--eta1", "0.5",
                             "--shots", "10")
    assert code == 2 and out == ""
    overlap = r"0\.99999999999\d*" if beta != "1" else r"(1\.0|0\.99999999999\d*)"
    assert re.fullmatch(rf"error: states are parallel to within 1e-12: overlap {overlap} > 1 - 1e-12; "
                        r"no unambiguous measurement exists\n", err), err
    assert "beta = 1" not in err


@pytest.mark.parametrize("seed", (-1, 2**128))
def test_simulate_seed_outside_the_key_range_is_named(seed, capsys):
    code, out, err = run_cli(capsys, "simulate", "--case", "a4", "--dim", "2", "--beta", "0.3", "--eta1", "0.5",
                             "--seed", str(seed))
    assert (code, out, err) == (2, "", f"error: seed must lie in [0, 2**128), got {seed}\n")


def test_cli_import_leaves_numpy_random_unloaded():
    # numpy.random costs about 14 ms to import; the CLI loads it only when it draws
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", "import sys, unambig.cli; print('numpy.random' in sys.modules)"],
                          env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


_RUNTIME_PROBE = """
import contextlib, io, json, sys
before = set(sys.modules)
from unambig.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(argv.split()) for argv in (
        "solve --case b4 --dim 2 --beta 0.5",
        "verify --case all --dim 2 --grid 0.5",
        "sweep --surface p2_opt --grid 0.5 --format json",
        "simulate --case b2 --dim 3 --beta 0.4 --eta1 0.3 --shots 10",
    )]

def is_foreign(name):
    if name in sys.stdlib_module_names or name in ("numpy", "unambig"):
        return False
    module = sys.modules.get(name)
    return module is None or any(getattr(module, attr, None) is not None for attr in ("__file__", "__spec__"))

loaded = {name.partition(".")[0] for name in set(sys.modules) - before}
print(json.dumps({"codes": codes, "foreign": sorted(filter(is_foreign, loaded))}))
"""


def test_runtime_loads_only_numpy_and_the_standard_library():
    # numpy is the one runtime dependency; modules without a file or a spec are shims that numpy.random
    # registers (_cython_3_2_4, cython_runtime), not packages
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", _RUNTIME_PROBE], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"codes": [0, 0, 0, 0], "foreign": []}
