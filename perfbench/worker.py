"""Run passes of one benchmark workload in this process and check every output.

Started by ``run.py`` in a fresh interpreter whose environment pins one
thread (``UNAMBIG_THREADS=1`` and one BLAS thread) and puts the checkout's
``src`` first on ``PYTHONPATH``.  The program is driven only through its
public entry points: ``unambig.cli.main`` (in-process, output captured)
and ``unambig.simulate.estimate_surface``.

A pass is one complete run of the workload, checks included; its wall time
is the time to the checked result.  Passes repeat until ``--seconds`` is
used up, at least one.  With ``--trace 1`` passes alternate untraced and
traced, so the tracing overhead is measured within the run.

Prints one JSON object on its last line of standard output.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import re
import resource
import statistics
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import tracing

ORACLE_COMMANDS = (("2", "0.05"), ("3", "0.1"))  # (--dim, --grid); default resolution 1e-3
CASES = ("a1", "a2", "a3", "a4", "b1", "b2", "b3", "b4")
VERIFY_LINE = re.compile(r"^(\w+)/dim(\d): max \|closed - oracle\| = (\S+) at .* -> (ok|FAIL)$", re.M)

SWEEP_ARGS = ("sweep", "--surface", "p2_prior_gain", "--grid", "0.001")
# sha256 of that sweep's CSV at the seed commit; the sweep output must stay byte-identical
SWEEP_SHA256 = "cf36394717714a6030e088428b4ef7d8f775b2e528a247de7d6ea896d1b72257"

SETUP_BLOCK = 10  # fresh-interpreter imports timed before the passes, and again after them

MC_SHOTS = 100_000_000
MC_SHOTS_Z = 5.0

MC_GRID_BETAS = tuple(i / 20 for i in range(20))  # 0, 0.05, ..., 0.95
MC_GRID_ETAS = tuple(i / 20 for i in range(21))  # 0, 0.05, ..., 1
MC_GRID_SHOTS = 10_000
MC_GRID_POINTS = 8 * len(MC_GRID_BETAS) * len(MC_GRID_ETAS)
# two-sided bound with a family-wise false-alarm rate of 1e-6 over all points (Bonferroni)
MC_GRID_Z = statistics.NormalDist().inv_cdf(1.0 - 1e-6 / (2 * MC_GRID_POINTS))


@dataclass
class Checks:
    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def expect(self, ok: bool, message: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(message)
        return ok


@dataclass
class PassResult:
    checks: Checks
    bytes_out: int = 0
    max_dev: float = 0.0  # oracle only: largest |closed - oracle|
    max_z: float = 0.0  # Monte Carlo only: largest |estimate - analytic| / sigma


def run_cli(argv) -> tuple[int | None, str, str]:
    """``unambig.cli.main`` in-process; returns (exit code, stdout, stderr).

    An exception or argparse exit escaping the program becomes exit code
    None with the traceback as stderr, so the run reports a failed check
    instead of dying.
    """
    from unambig import cli

    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(list(argv))
    except (Exception, SystemExit):
        return None, out.getvalue(), err.getvalue() + traceback.format_exc()
    return code, out.getvalue(), err.getvalue()


def check_verify(checks: Checks, code, text: str, dim: str, cases=CASES) -> list[float]:
    """Exit 0 and an ``ok`` line for every case; returns the deviations read."""
    checks.expect(code == 0, f"verify --dim {dim} exited {code}")
    found = {m[1]: (float(m[3]), m[4]) for m in VERIFY_LINE.finditer(text) if m[2] == dim}
    for case in cases:
        verdict = found.get(case, (None, "missing"))[1]
        checks.expect(verdict == "ok", f"verify {case}/dim{dim}: {verdict}")
    return [dev for dev, _ in found.values()]


def check_sweep(checks: Checks, code, text: str, expected_sha256: str) -> None:
    checks.expect(code == 0, f"sweep exited {code}")
    got = hashlib.sha256(text.encode()).hexdigest()
    checks.expect(got == expected_sha256, f"sweep CSV sha256 {got} != {expected_sha256}")


def check_simulate(checks: Checks, code, text: str, shots: int) -> float:
    """No error outcomes, all shots counted, estimate within 5 stderr; returns |z|."""
    checks.expect(code == 0, f"simulate exited {code}")
    try:
        record = json.loads(text)
        counts, est, err, p = record["counts"], record["estimated_success"], record["stderr"], record["p_analytic"]
        n_error, counted = counts["n_error"], sum(counts.values())
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        checks.expect(False, f"simulate output unreadable: {exc!r}")
        return math.inf
    checks.expect(n_error == 0, f"simulate n_error = {n_error}")
    checks.expect(counted == shots, f"simulate counted {counted} of {shots} shots")
    z = abs(est - p) / err if err > 0 else (0.0 if est == p else math.inf)
    checks.expect(z <= MC_SHOTS_Z, f"simulate estimate {est} is {z:.2f} stderr from {p}")
    return z


def check_surface(checks: Checks, label: str, rows, n_errors, shots: int) -> float:
    """One check per point: zero error outcomes and |z| within the corrected bound.

    sigma is the binomial standard deviation at the analytic probability,
    so a point whose analytic value is exactly 0 or 1 must be hit exactly.
    """
    checks.expect(len(rows) == len(n_errors), f"{label}: {len(rows)} rows but {len(n_errors)} simulations")
    worst = 0.0
    for row, n_error in zip(rows, n_errors):
        p = row.p_analytic
        sigma = math.sqrt(max(p * (1.0 - p), 0.0) / shots)
        dev = abs(row.p_hat - p)
        z = dev / sigma if sigma > 0 else (0.0 if dev == 0 else math.inf)
        worst = max(worst, z)
        checks.expect(
            n_error == 0 and z <= MC_GRID_Z,
            f"{label} (beta, eta1) = ({row.beta}, {row.eta1}): n_error {n_error}, |z| {z:.2f}",
        )
    return worst


def oracle_pass(seed: int) -> PassResult:
    res = PassResult(Checks())
    devs: list[float] = []
    for dim, grid in ORACLE_COMMANDS:
        code, out, _ = run_cli(["verify", "--case", "all", "--dim", dim, "--grid", grid])
        res.bytes_out += len(out.encode())
        devs += check_verify(res.checks, code, out, dim)
    res.max_dev = max(devs, default=math.inf)
    return res


def sweep_pass(seed: int) -> PassResult:
    # the CSV is captured from stdout, so no pass writes 45 MB into the checkout
    res = PassResult(Checks())
    code, out, _ = run_cli(SWEEP_ARGS)
    check_sweep(res.checks, code, out, SWEEP_SHA256)
    res.bytes_out = len(out.encode())
    return res


def mc_shots_argv(seed: int, shots: int = MC_SHOTS) -> list[str]:
    return ["simulate", "--case", "b2", "--dim", "3", "--beta", "0.4", "--eta1", "0.3",
            "--shots", str(shots), "--seed", str(seed)]


def mc_shots_pass(seed: int) -> PassResult:
    res = PassResult(Checks())
    code, out, _ = run_cli(mc_shots_argv(seed))
    res.bytes_out = len(out.encode())
    res.max_z = check_simulate(res.checks, code, out, MC_SHOTS)
    return res


def mc_grid_pass(seed: int, betas=MC_GRID_BETAS, etas=MC_GRID_ETAS,
                 shots: int = MC_GRID_SHOTS) -> PassResult:
    from unambig import cases, simulate

    res = PassResult(Checks())
    # SurfaceRow carries no error count: read it from each SimReport that
    # estimate_surface's own lookup of ``run`` returns
    n_errors: list[int] = []
    run = simulate.run

    def observed_run(config):
        report = run(config)
        n_errors.append(report.n_error)
        return report

    patches = tracing.Patches()
    patches.set_attr(simulate, "run", observed_run)
    try:
        for regime in cases.ALL_REGIMES:
            case = cases.KnowledgeCase(regime, 3)
            start = len(n_errors)
            try:
                rows = simulate.estimate_surface(case, betas, etas, shots, seed)
            except Exception:
                res.checks.expect(False, f"estimate_surface {case}: {traceback.format_exc()}")
                continue
            z = check_surface(res.checks, str(case), rows, n_errors[start:], shots)
            res.max_z = max(res.max_z, z)
    finally:
        patches.restore()
    return res


PASSES = {"oracle": oracle_pass, "sweep": sweep_pass, "mc-shots": mc_shots_pass, "mc-grid": mc_grid_pass}


def timed_pass(workload: str, seed: int, tracer: tracing.Tracer | None, pass_id: int) -> dict:
    patches = None
    if tracer is not None:
        tracer.pass_id = pass_id
        patches = tracing.install(tracer)
    try:
        start = perf_counter()
        res = PASSES[workload](seed)
        wall = perf_counter() - start
    finally:
        if patches is not None:
            patches.restore()
    return {
        "id": pass_id,
        "traced": tracer is not None,
        "wall_s": wall,
        "attempted": res.checks.attempted,
        "failed": len(res.checks.failures),
        "failures": res.checks.failures[:10],
        "bytes_out": res.bytes_out,
        "max_dev": res.max_dev,
        "max_z": res.max_z,
    }


def time_import() -> float:
    """Wall time of a fresh interpreter, in this environment, importing ``unambig.cli``."""
    start = perf_counter()
    # no timeout: with one, Popen.wait polls in steps of up to 50 ms, which would quantize the time
    subprocess.run([sys.executable, "-c", "import unambig.cli"], check=True)
    return perf_counter() - start


def run_passes(workload: str, seed: int, seconds: float, trace: bool, setup: bool):
    """Passes until ``seconds`` would be exceeded by one more round, at least one round.

    With ``setup``, a block of fresh-interpreter imports is timed before
    the passes and another after them, outside the measuring time, so the
    median samples the machine at both ends of the run.
    """
    tracer = tracing.Tracer() if trace else None
    modes = (None, tracer) if trace else (None,)
    passes: list[dict] = []
    setup_s: list[float] = []
    if setup:
        time_import()  # fills __pycache__, which every later import reuses
        setup_s += [time_import() for _ in range(SETUP_BLOCK)]
    t0 = perf_counter()
    while True:
        t_round = perf_counter()
        for mode in modes:
            passes.append(timed_pass(workload, seed, mode, len(passes)))
        round_s = perf_counter() - t_round
        if perf_counter() - t0 + round_s > seconds:
            break
    if setup:
        setup_s += [time_import() for _ in range(SETUP_BLOCK)]
    return passes, tracer, setup_s


def _median(values: list) -> float:
    # counts repeat exactly from pass to pass; keep them whole numbers
    return statistics.median_low(values) if all(type(v) is int for v in values) else statistics.median(values)


def per_layer(passes: list[dict], tracer: tracing.Tracer) -> dict[str, float]:
    """Every per-layer metric: the median over traced passes of each pass's value."""
    traced = [p for p in passes if p["traced"]]
    untraced = [p for p in passes if not p["traced"]]
    per_pass = []
    for p in traced:
        m = tracing.layer_metrics(tracer, p["id"])
        m["cli.bytes_out"] = p["bytes_out"]
        m["optimizer.max_dev"] = p["max_dev"]
        per_pass.append(m)
    out = {name: _median([m[name] for m in per_pass]) for name in per_pass[0]}
    out["trace.untraced_wall_s"] = statistics.median(p["wall_s"] for p in untraced)
    out["trace.traced_wall_s"] = statistics.median(p["wall_s"] for p in traced)
    out["trace.overhead_ratio"] = out["trace.traced_wall_s"] / out["trace.untraced_wall_s"]
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(PASSES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--src", type=Path, required=True, help="the checkout's src directory")
    parser.add_argument("--spans-out", type=Path, help="write the traced spans here")
    args = parser.parse_args(argv)

    import unambig

    if not Path(unambig.__file__).resolve().is_relative_to(args.src.resolve()):
        print(f"error: imported unambig from {unambig.__file__}, not from {args.src}", file=sys.stderr)
        return 2
    passes, tracer, setup_s = run_passes(args.workload, args.seed, args.seconds, bool(args.trace),
                                         setup=not args.trace)
    summary = {
        "passes": passes,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        summary["per_layer"] = per_layer(passes, tracer)
        if args.spans_out is not None:
            args.spans_out.parent.mkdir(parents=True, exist_ok=True)
            with open(args.spans_out, "w") as fh:
                json.dump({"workload": args.workload, "seed": args.seed, "spans": tracer.records()}, fh)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
