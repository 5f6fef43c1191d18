"""Tests of the benchmark itself, at tiny sizes: run with ``python3 -m pytest perfbench/tests``.

The negative controls show that each workload's check registers a wrong
output as a failure, next to a positive control on the same small input.
"""

import hashlib
import json
import shutil
import subprocess
import sys

import pytest

import tracing
import worker
from conftest import BENCH
from unambig import linalg, optimizer, povm, simulate, strategies


def test_verify_perturbed_closed_form_is_a_failure():
    argv = ["verify", "--case", "a4", "--dim", "2", "--grid", "0.5"]
    good = worker.Checks()
    code, out, _ = worker.run_cli(argv)
    worker.check_verify(good, code, out, "2", cases=("a4",))
    assert good.attempted == 2 and good.failures == []

    bad = worker.Checks()
    code, out, _ = worker.run_cli([*argv, "--perturb", "0.01"])
    worker.check_verify(bad, code, out, "2", cases=("a4",))
    assert len(bad.failures) == 2  # exit code 1 and the FAIL line


def test_verify_missing_case_is_a_failure():
    checks = worker.Checks()
    code, out, _ = worker.run_cli(["verify", "--case", "b4", "--dim", "2", "--grid", "0.5"])
    worker.check_verify(checks, code, out, "2", cases=("b4", "b1"))
    assert checks.failures == ["verify b1/dim2: missing"]


def test_sweep_csv_with_one_corrupted_byte_is_a_failure():
    code, out, _ = worker.run_cli(["sweep", "--surface", "p2_prior_gain", "--grid", "0.5"])
    expected = hashlib.sha256(out.encode()).hexdigest()
    good = worker.Checks()
    worker.check_sweep(good, code, out, expected)
    assert good.failures == []

    middle = len(out) // 2
    corrupted = out[:middle] + chr(ord(out[middle]) ^ 0x01) + out[middle + 1:]
    bad = worker.Checks()
    worker.check_sweep(bad, code, corrupted, expected)
    assert len(bad.failures) == 1 and "sha256" in bad.failures[0]


def test_simulate_report_with_an_error_outcome_is_a_failure():
    shots = 20_000
    code, out, _ = worker.run_cli(worker.mc_shots_argv(seed=3, shots=shots))
    good = worker.Checks()
    worker.check_simulate(good, code, out, shots)
    assert good.attempted == 4 and good.failures == []

    record = json.loads(out)
    record["counts"]["n_error"] += 1
    record["counts"]["n0"] -= 1  # every shot is still counted once
    bad = worker.Checks()
    worker.check_simulate(bad, code, json.dumps(record), shots)
    assert bad.failures == ["simulate n_error = 1"]


def test_surface_points_with_errors_or_far_estimates_are_failures():
    res = worker.mc_grid_pass(seed=1, betas=(0.3, 0.6), etas=(0.5,), shots=2000)
    assert res.checks.attempted == 8 * (1 + 2) and res.checks.failures == []

    row = simulate.SurfaceRow(beta=0.3, eta1=0.5, p_hat=0.5, p_analytic=0.5, stderr=0.005)
    far = simulate.SurfaceRow(beta=0.3, eta1=0.5, p_hat=0.5 + 8 * 0.5 / 100, p_analytic=0.5, stderr=0.005)
    checks = worker.Checks()
    worker.check_surface(checks, "x", [row, row, far], [0, 1, 0], shots=10_000)
    assert checks.attempted == 4 and len(checks.failures) == 2


def test_install_patches_every_binding_and_restore_undoes_it():
    originals = {
        "linalg.kron": linalg.kron,
        "povm.validate": povm.validate,
        "surface": strategies.p2_opt,
        "case_problem": optimizer.case_problem,
    }
    patches = tracing.install(tracing.Tracer())
    try:
        assert linalg.kron is not originals["linalg.kron"] and povm.kron is linalg.kron
        assert povm.validate is not originals["povm.validate"] and simulate.validate is povm.validate
        assert strategies.SURFACES["p2_opt"] is strategies.p2_opt is not originals["surface"]
        assert optimizer.case_problem is not originals["case_problem"]
    finally:
        patches.restore()
    assert linalg.kron is povm.kron is originals["linalg.kron"]
    assert povm.validate is simulate.validate is originals["povm.validate"]
    assert strategies.SURFACES["p2_opt"] is strategies.p2_opt is originals["surface"]
    assert optimizer.case_problem is originals["case_problem"]


def _traced_verify(tracer, pass_id):
    tracer.pass_id = pass_id
    patches = tracing.install(tracer)
    try:
        code, out, _ = worker.run_cli(["verify", "--case", "all", "--dim", "3", "--grid", "0.5"])
    finally:
        patches.restore()
    assert code == 0, out
    return tracing.layer_metrics(tracer, pass_id)


def test_traced_counts_repeat_exactly_and_self_times_are_consistent():
    tracer = tracing.Tracer()
    first, second = _traced_verify(tracer, 0), _traced_verify(tracer, 1)
    for name in ("optimizer.solve.calls", "optimizer.candidates", "optimizer.objective_cells",
                 "strategies.surface.calls", "povm.validate.calls", "linalg.kron.calls",
                 "linalg.eigvalsh.n27.calls", "states.pair_with_overlap.calls"):
        assert first[name] == second[name] > 0, name
    assert 0 < first["optimizer.feasible_ratio"] <= 1
    assert first["optimizer.verify_case.b2_d3.busy_s"] > 0
    assert all(first[f"{layer}.errors"] == 0 for layer in tracing.LAYERS)

    busy = {}
    for rec in tracer.spans:
        busy.setdefault(rec[tracing.PARENT], 0.0)
        busy[rec[tracing.PARENT]] += rec[tracing.BUSY]
    for i, rec in enumerate(tracer.spans):
        assert busy.get(i, 0.0) <= rec[tracing.BUSY] + 1e-6  # children fit inside their parent


def test_error_is_counted_once_in_the_layer_it_escaped_from():
    tracer = tracing.Tracer()
    patches = tracing.install(tracer)
    try:
        with pytest.raises(ValueError):
            simulate.pair_with_overlap(2, 1.5, 0.5, seed=0)
    finally:
        patches.restore()
    assert tracing.layer_metrics(tracer, 0)["states.errors"] == 1


def test_per_layer_catalog_matches_benchmark_json_and_the_computed_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    listed = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    assert listed == tracing.PER_LAYER
    computed = set(tracing.layer_metrics(tracing.Tracer(), 0))
    added_by_worker = {"trace.untraced_wall_s", "trace.traced_wall_s", "trace.overhead_ratio",
                       "cli.bytes_out", "optimizer.max_dev"}
    assert computed | added_by_worker == set(listed) and not computed & added_by_worker


def test_run_exits_nonzero_without_a_result_when_the_program_is_absent(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
