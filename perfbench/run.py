"""Benchmark of unambig's four routes: oracle, closed-form sweep and Monte Carlo.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload oracle --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1     # all four workloads, one table

Workloads (all single-process and single-threaded):

* ``oracle``   -- ``verify --case all --dim 2 --grid 0.05`` then
  ``verify --case all --dim 3 --grid 0.1``: the maximin oracle in
  ``optimizer``, plus 27x27 PSD checks in dim 3.  Checked: exit 0 and
  every case ``ok``.
* ``sweep``    -- ``sweep --surface p2_prior_gain --grid 0.001``, stdout
  captured: 1,002,001 rows of closed-form ``strategies`` surfaces and
  ``cli`` formatting.  Checked: exit 0 and the CSV's sha256 equals the seed's.
* ``mc-shots`` -- ``simulate --case b2 --dim 3 --beta 0.4 --eta1 0.3
  --shots 100000000 --seed <seed>``: one POVM setup, then ``simulate``'s
  sampler.  Checked: ``n_error == 0``, every shot counted, estimate
  within 5 stderr of ``p_analytic``.
* ``mc-grid``  -- ``estimate_surface`` for all eight regimes in dim 3 on
  beta in {0, .05, ..., .95} x eta1 in {0, .05, ..., 1}, 10^4 shots per
  point (3360 points): per-point setup in ``povm``, ``linalg`` and
  ``states`` dominates.  Checked: zero error outcomes at every point and
  every point within a Bonferroni bound for 3360 comparisons.

``sweep`` is not among the workloads of ``BENCHMARK.json``: it is pure
Python, and on the 2-vCPU reference VM its run-to-run spread (quartile
distance over median, ten seeds) read 0.31 in three of five sets, beyond
the largest bound allowed (0.25).  ``--workload sweep`` and
``--workload all`` still run and check it.

A run repeats passes of its workload until one more would overrun
``--seconds`` (at least one pass); an oracle pass takes about 21 s on the
reference VM, so an oracle run makes one.  The seed is handed to the
Monte Carlo workloads as their simulation seed;
the oracle and sweep inputs are fixed (the sweep's output hash is its
check), so the seed does not change them.

With ``--trace 0`` the run prints the end-to-end metrics:

* ``setup_s``     -- median time of a fresh interpreter importing ``unambig.cli``,
  timed ten times in a row before the passes and ten times after them;
* ``wall_s``      -- median time of a pass to its checked result;
* ``peak_rss_mb`` -- peak resident memory of the process running the passes.

Each is printed with a verdict against the seed's median in
``baseline.json`` (a 2-vCPU VM; elsewhere the comparison is only a guide)
and the workload's check verdict.  Failed checks over attempted checks
(the fail ratio) is carried by ``attempted`` and ``failed`` in the result
line rather than as a metric, since it is 0 on a correct program; the
oracle's largest |closed - oracle| is the per-layer ``optimizer.max_dev``.

With ``--trace 1`` a separate run alternates untraced and traced passes
and prints the per-layer metrics (see ``tracing.py``), including the
tracing overhead as traced over untraced pass time; the spans are written
to ``.perfbench/spans-<workload>-<seed>.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
0 when every check passed, 1 when a check failed, 2 when the program
cannot be run at all (for example, no ``src/unambig`` in the checkout).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("oracle", "sweep", "mc-shots", "mc-grid")
PINNED_ENV = {
    "UNAMBIG_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


def workload_env() -> dict[str, str]:
    env = dict(os.environ, **PINNED_ENV)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_worker(workload: str, seed: int, seconds: float, trace: int, env: dict[str, str],
               deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--src", str(ROOT / "src")]
    if trace:
        cmd += ["--spans-out", str(ROOT / ".perfbench" / f"spans-{workload}-{seed}.json")]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=deadline - perf_counter())
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{workload} worker exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def verdict(name: str, value: float, spec: dict, baseline: dict | None) -> str:
    """Compare with the seed's median on the reference machine, within the metric's bound."""
    if baseline is None or name not in baseline:
        return ""
    base = baseline[name]
    bound = spec["bound"]
    worse = value > base * (1 + bound) if spec["better"] == "lower" else value < base * (1 - bound)
    return f"seed {base:.4g}: {'WORSE than' if worse else 'within'} {bound:.0%}"


def run_workload(workload: str, seed: int, seconds: float, trace: int, spec: dict,
                 baseline: dict) -> tuple[dict, dict[str, tuple[float, str]], list[str]]:
    """One worker run; returns check counts, metrics by name as (value, unit), report lines."""
    # passes overrun ``seconds`` by at most one round; an oracle round with tracing takes about 45 s
    deadline = perf_counter() + seconds + 2 * max(seconds, 60)
    summary = run_worker(workload, seed, seconds, trace, workload_env(), deadline)
    passes = summary["passes"]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    untraced = [p["wall_s"] for p in passes if not p["traced"]]
    tag = f"[{workload}]"
    lines = [f"{tag} seed {seed}, env " + " ".join(f"{k}={v}" for k, v in PINNED_ENV.items()),
             f"{tag} checks: {attempted - failed}/{attempted} passed, "
             f"fail_ratio {failed / attempted:.3g} -> {'ok' if failed == 0 else 'FAIL'}"]
    lines += [f"{tag}   failed: {message}" for p in passes for message in p["failures"]]
    if workload == "oracle":
        lines.append(f"{tag} max |closed - oracle| = {max(p['max_dev'] for p in passes):.3e}")
    elif workload.startswith("mc-"):
        lines.append(f"{tag} largest |z| over checked estimates = {max(p['max_z'] for p in passes):.2f}")

    metrics: dict[str, tuple[float, str]] = {}
    if trace:
        lines.append(f"{tag} {len(passes) - len(untraced)} traced and {len(untraced)} untraced passes; "
                     "waiting time is 0 by construction (one thread, no queue or lock)")
        for m in spec["per_layer"]:
            value = summary["per_layer"][m["name"]]
            metrics[m["name"]] = (value, m["unit"])
            lines.append(f"{tag} {m['name']:<44} {value:>14.6g} {m['unit']}")
    else:
        values = {
            "setup_s": (statistics.median(summary["setup_s"]), f"median of {len(summary['setup_s'])} imports"),
            "wall_s": (statistics.median(untraced),
                       f"median of {len(untraced)} passes: " + ", ".join(f"{t:.3f}" for t in untraced)),
            "peak_rss_mb": (summary["peak_rss_mb"], "worker process"),
        }
        base = baseline.get("workloads", {}).get(workload)
        for m in spec["end_to_end"]:
            value, note = values[m["name"]]
            metrics[m["name"]] = (value, m["unit"])
            lines.append(f"{tag} {m['name']:<12} {value:>10.4f} {m['unit']:<3} ({note}) "
                         + verdict(m["name"], value, m, base))
    return {"attempted": attempted, "failed": failed}, metrics, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="unambig benchmark")
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "unambig" / "cli.py").is_file():
        print(f"error: no program to benchmark: {ROOT / 'src' / 'unambig'} is missing", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    baseline = json.loads((HERE / "baseline.json").read_text())
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    metrics: dict[str, dict] = {}
    for workload in workloads:
        try:
            counts, values, lines = run_workload(workload, args.seed, seconds, args.trace, spec, baseline)
        except (RuntimeError, subprocess.SubprocessError, OSError, ValueError, KeyError) as exc:
            print(f"error: {workload}: {exc!r}", file=sys.stderr)
            return 2
        print("\n".join(lines), flush=True)
        attempted += counts["attempted"]
        failed += counts["failed"]
        prefix = "" if len(workloads) == 1 else f"{workload}."
        metrics.update({prefix + name: {"value": v, "unit": u} for name, (v, u) in values.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
