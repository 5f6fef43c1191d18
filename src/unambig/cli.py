"""Command-line front end: solve, verify, sweep, simulate.

Exit codes: 0 success, 1 verification/ordering failure, 2 usage error
(bad arguments, or an unwritable ``--out``), 3 internal error (a
numerical self-check of the program failed: a POVM of the oracle,
``solve`` or ``simulate`` that is not a measurement, a non-Hermitian
operator, an expectation value with an imaginary part, or a state pair
whose overlap differs from its stored beta).
All outputs are deterministic: JSON uses a fixed field order and CSV is
emitted with '.' decimals, ',' separators, LF line endings, and 12
significant digits, so identical invocations are byte-identical.

For regimes that never learn the overlap (A1, A2, B1, B2) the solve
record reports the strategy's success probability at the orthogonal-pair
reference (beta = 0); for regimes that never learn the prior it reports
the worst-case prior.  Regimes knowing beta therefore report their
standard surface value.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .cases import ALL_REGIMES, KnowledgeCase, Regime
from .linalg import NumericalError
from .povm import build_for_case, success_probabilities, validate
from .states import canonical_pair, grid_points
from . import optimizer, simulate, strategies

VERIFY_TOL_FACTOR = 2.0  # pass iff |closed - oracle| <= factor * resolution
REGIMES = [r.value for r in ALL_REGIMES]  # the --case choices of solve and simulate


_fmt = "{:.12g}".format


def _cases_from_args(args, choices: list[str]) -> list[KnowledgeCase]:
    """The cases ``--case`` names among the command's ``choices`` ('all' is every regime)."""
    name = args.case.lower()
    if name not in choices:
        raise UsageError(f"unknown case '{args.case}' (expected one of {choices})")
    return [KnowledgeCase(r, args.dim) for r in (ALL_REGIMES if name == "all" else [Regime(name)])]


def _check_grid(args) -> None:
    if not 0.0 < args.grid <= 0.5:
        raise UsageError(f"--grid step must lie in (0, 0.5], got {args.grid}")


class UsageError(Exception):
    pass


def _eval_point(case: KnowledgeCase, beta, eta1) -> tuple[float, float]:
    """(beta_eval, eta_eval): the known values, or reference/worst-case stand-ins."""
    beta_eval = float(beta) if beta is not None else 0.0
    if eta1 is not None:
        return beta_eval, float(eta1)
    p0, p1 = strategies.success_probability(case, [beta_eval] * 2, [0.0, 1.0]).p_analytic
    if p0 < p1 - 1e-15:
        return beta_eval, 0.0
    if p1 < p0 - 1e-15:
        return beta_eval, 1.0
    return beta_eval, 0.5


def cmd_solve(args) -> int:
    (case,) = _cases_from_args(args, REGIMES)
    lam = strategies.optimal_lambda(case, beta=args.beta, eta1=args.eta1)
    beta_eval, eta_eval = _eval_point(case, args.beta, args.eta1)
    result = strategies.success_probability(case, beta_eval, eta_eval)
    pair = canonical_pair(case.dim, beta_eval, eta_eval)
    p1, p2 = success_probabilities(case, pair, lam)
    p_numeric = eta_eval * p1 + (1.0 - eta_eval) * p2
    report = validate(build_for_case(case, pair, lam)).check()
    record = {
        "case": case.regime.value,
        "dim": case.dim,
        "inputs": {"beta": args.beta, "eta1": args.eta1},
        "lambda": [float(x) for x in lam.flat],
        "branch": result.branch,
        "p_analytic": result.p_analytic,
        "p_numeric": p_numeric,
        "min_eig": [float(x) for x in report.min_eigenvalues],
    }
    _emit(args, json.dumps(record, indent=2) + "\n")
    return 0


def cmd_verify(args) -> int:
    _check_grid(args)
    cases = _cases_from_args(args, REGIMES + ["all"])
    tol = VERIFY_TOL_FACTOR * args.resolution
    status = 0
    lines = []
    for case in cases:
        rep = optimizer.verify_case(case, grid_step=args.grid, resolution=args.resolution,
                                    perturb=args.perturb)
        ok = rep.within(tol)
        lines.append(
            f"{case}: max |closed - oracle| = {rep.max_deviation:.3e} "
            f"at (beta, eta1) = {rep.worst_point} -> {'ok' if ok else 'FAIL'}"
        )
        if not ok:
            status = 1
    _emit(args, "\n".join(lines) + f"\n{'all within' if status == 0 else 'EXCEEDS'} tolerance {tol:g}\n")
    return status


def cmd_sweep(args) -> int:
    _check_grid(args)
    name = args.surface
    header = ["beta", "eta1", "value"]
    if name in strategies.DIFFERENCE_SURFACES:
        parts = strategies.DIFFERENCE_SURFACES[name]
        header += ["value_minuend", "value_subtrahend"]
    elif name in strategies.SURFACES:
        parts = (name,)
    else:
        raise UsageError(
            f"unknown surface '{name}' (surfaces: {sorted(strategies.SURFACES)}; "
            f"differences: {sorted(strategies.DIFFERENCE_SURFACES)})"
        )
    axis = optimizer._axis_grid(0.0, 1.0, args.grid)
    betas, etas = grid_points(axis, axis)
    values = [strategies.SURFACES[part](betas, etas) for part in parts]
    labels = list(map(_fmt, axis.tolist()))
    status = 0
    if len(parts) == 2:
        gap = values[0] - values[1]
        values.insert(0, gap)
        violated = gap < -1e-9
        if violated.any():
            status = 1
            k = int(np.argmax(violated))  # the first violating cell in row order
            print(
                f"ordering violated: {name} = {gap[k]:.6g} < 0 "
                f"at beta={labels[k % len(labels)]}, eta1={labels[k // len(labels)]}",
                file=sys.stderr,
            )
    cells = zip(
        labels * len(labels),  # beta
        np.repeat(np.array(labels, dtype=object), len(labels)),  # eta1
        *(map(_fmt, v.tolist()) for v in values),
    )
    if args.format == "csv":
        _emit(args, "\n".join([",".join(header), *map(",".join, cells), ""]))
    else:
        payload = {
            "surface": args.surface,
            "step": args.grid,
            "rows": [dict(zip(header, map(float, cell))) for cell in cells],
        }
        _emit(args, json.dumps(payload, indent=2) + "\n")
    return status


def cmd_simulate(args) -> int:
    (case,) = _cases_from_args(args, REGIMES)
    if args.beta is None or args.eta1 is None:
        raise UsageError("simulate requires --beta and --eta1: the world needs them even when the decision ignores them")
    result = strategies.success_probability(case, args.beta, args.eta1)
    pair = canonical_pair(case.dim, args.beta, args.eta1)
    probs = simulate.outcome_probabilities(case, pair, result.lam)
    report = simulate.run(simulate.SimConfig(probs, args.eta1, args.shots, args.seed))
    record = {
        "case": case.regime.value,
        "dim": case.dim,
        "inputs": {"beta": args.beta, "eta1": args.eta1},
        "lambda": [float(x) for x in result.lam.flat],
        "shots": args.shots,
        "seed": args.seed,
        "counts": {
            "n1": report.counts[0],
            "n2": report.counts[1],
            "n0": report.counts[2],
            "n_error": report.counts[3],
        },
        "estimated_success": report.estimated_success,
        "stderr": report.stderr,
        "p_analytic": result.p_analytic,
    }
    _emit(args, json.dumps(record, indent=2) + "\n")
    return 0


def _emit(args, text: str) -> None:
    if getattr(args, "out", None):
        try:
            fh = open(args.out, "w", newline="\n")
        except OSError as exc:
            raise UsageError(f"cannot write --out {args.out}: {exc.strerror}") from None
        with fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="unambig",
        description="Unambiguous two-state discrimination: strategies, verification, sweeps, simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_case=True):
        if with_case:
            p.add_argument("--case", required=True, help="a1..a4, b1..b4 (or 'all' for verify)")
            p.add_argument("--dim", type=int, default=2, choices=(2, 3))
        p.add_argument("--out", help="write output to this file instead of stdout")

    p = sub.add_parser("solve", help="optimal coefficients and success probability for one case")
    common(p)
    p.add_argument("--beta", type=float)
    p.add_argument("--eta1", type=float)
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("verify", help="compare closed forms against the numerical maximin oracle")
    common(p)
    p.add_argument("--grid", type=float, default=0.05, help="beta/eta1 grid step (default 0.05)")
    p.add_argument("--resolution", type=float, default=1e-3, help="oracle search resolution (default 1e-3)")
    p.add_argument("--perturb", type=float, default=0.0, help=argparse.SUPPRESS)  # negative-control hook
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("sweep", help="emit a success-probability or difference surface over a grid")
    common(p, with_case=False)
    p.add_argument("--surface", required=True)
    p.add_argument("--grid", type=float, default=0.01, help="grid step for both axes (default 0.01)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("simulate", help="Monte Carlo run of the discrimination experiment")
    common(p)
    p.add_argument("--beta", type=float)
    p.add_argument("--eta1", type=float)
    p.add_argument("--shots", type=int, default=100000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_simulate)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (AssertionError, NumericalError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
