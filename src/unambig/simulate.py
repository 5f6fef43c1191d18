"""Monte Carlo simulation of the full discrimination experiment.

Each shot draws the preparation (state 1 with probability eta1), forms
the case's register input, and samples one of the three outcomes by
inverse CDF on the Born probabilities.  Unambiguity is structural: for
feasible coefficients the wrong-identification probability is zero to
machine precision, so error counts are exactly zero, not just small.

Randomness comes from the Philox counter-based generator.  Shots are
processed in fixed-size batches, each owning the stream
``Philox(key=seed).jumped(batch_index)``, so results are bit-identical
no matter how batches are scheduled; ``UNAMBIG_THREADS`` caps how many
run concurrently (default 1; never more than there are batches).
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .cases import KnowledgeCase
from .linalg import expectation
from .povm import LambdaParams, build_for_case, input_states, validate
from .states import StatePair, pair_with_overlap
from . import strategies

BATCH_SHOTS = 1 << 16
_PROB_SUM_TOL = 1e-9


class MeasurementError(ValueError):
    """The assembled POVM is not a measurement: a numerical failure, not bad input."""


def thread_count() -> int:
    """Parallelism cap from UNAMBIG_THREADS (default 1); anything but an integer >= 1 is a ValueError."""
    raw = os.environ.get("UNAMBIG_THREADS", "1")
    try:
        n = int(raw)
    except ValueError:
        n = 0
    if n < 1:
        raise ValueError(f"UNAMBIG_THREADS must be an integer >= 1, got {raw!r}")
    return n


@dataclass(frozen=True)
class SimConfig:
    case: KnowledgeCase
    pair: StatePair
    lam: LambdaParams
    shots: int
    seed: int

    def __post_init__(self) -> None:
        if self.shots < 1:
            raise ValueError("shots must be >= 1")


@dataclass(frozen=True)
class SimReport:
    counts: tuple[int, int, int, int]  # identified-1, identified-2, inconclusive, error
    estimated_success: float
    stderr: float

    @property
    def n_error(self) -> int:
        return self.counts[3]


def outcome_probabilities(case: KnowledgeCase, pair: StatePair, lam: LambdaParams) -> np.ndarray:
    """(2, 3) Born probabilities: rows = prepared state, cols = outcome (1, 2, inconclusive)."""
    povm = build_for_case(case, pair, lam)
    report = validate(povm)
    if not all(report.psd_ok):
        raise MeasurementError(f"POVM is not positive semidefinite: min eigenvalues {report.min_eigenvalues}")
    if report.completeness_residual > _PROB_SUM_TOL:
        raise MeasurementError(f"POVM completeness residual {report.completeness_residual:.3e}")
    ins = input_states(case, pair)
    probs = np.array([[expectation(v, el) for el in povm.elements] for v in ins])
    probs = np.clip(probs, 0.0, None)
    sums = probs.sum(axis=1)
    if np.max(np.abs(sums - 1.0)) > _PROB_SUM_TOL:
        raise MeasurementError(f"outcome probabilities sum to {sums}, expected 1")
    return probs / sums[:, None]


def _run_batch(seed: int, batch_index: int, n: int, eta1: float, probs: np.ndarray) -> np.ndarray:
    rng = np.random.Generator(np.random.Philox(key=seed).jumped(batch_index))
    u = rng.random((n, 2))
    prep2 = u[:, 0] >= eta1  # True: state 2 prepared
    counts = np.zeros(4, dtype=np.int64)
    for is2, row in ((False, probs[0]), (True, probs[1])):
        sel = u[prep2 == is2, 1]
        t1, t2 = row[0], row[0] + row[1]
        n1 = int(np.count_nonzero(sel < t1))
        n2 = int(np.count_nonzero((sel >= t1) & (sel < t2)))
        n0 = sel.size - n1 - n2
        if is2:
            counts += np.array([0, n2, n0, n1])  # outcome 1 on prep 2 is an error
        else:
            counts += np.array([n1, 0, n0, n2])
    return counts


def run(config: SimConfig) -> SimReport:
    """Simulate the experiment; deterministic for a fixed seed."""
    probs = outcome_probabilities(config.case, config.pair, config.lam)
    eta1 = config.pair.eta1
    spans = [
        (b, min(BATCH_SHOTS, config.shots - b * BATCH_SHOTS))
        for b in range((config.shots + BATCH_SHOTS - 1) // BATCH_SHOTS)
    ]
    workers = min(thread_count(), len(spans))
    if workers == 1:
        parts = [_run_batch(config.seed, b, n, eta1, probs) for b, n in spans]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(lambda bn: _run_batch(config.seed, bn[0], bn[1], eta1, probs), spans))
    counts = np.sum(parts, axis=0)
    n1, n2, n0, nerr = (int(x) for x in counts)
    p_hat = (n1 + n2) / config.shots
    stderr = math.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / config.shots)
    return SimReport(counts=(n1, n2, n0, nerr), estimated_success=p_hat, stderr=stderr)


def _point_seed(seed: int, index: int) -> int:
    return (seed * 1_000_003 + index) & 0xFFFFFFFFFFFFFFFF


@dataclass(frozen=True)
class SurfaceRow:
    beta: float
    eta1: float
    p_hat: float
    p_analytic: float
    stderr: float


def estimate_surface(case: KnowledgeCase, beta_grid, eta_grid, shots_per_point: int,
                     seed: int) -> list[SurfaceRow]:
    """Empirical success-probability surface under the case-optimal strategy.

    The decision sees only what the case allows; the simulated world uses
    the full (beta, eta1) point.  Pairs are generated deterministically
    from the seed, one independent stream per grid point.
    """
    rows = []
    for i, eta1 in enumerate(eta_grid):
        for j, beta in enumerate(beta_grid):
            idx = i * len(beta_grid) + j
            res = strategies.success_probability(case, float(beta), float(eta1))
            pair = pair_with_overlap(case.dim, float(beta), float(eta1), seed=_point_seed(seed, 2 * idx))
            report = run(SimConfig(case, pair, res.lam, shots_per_point, _point_seed(seed, 2 * idx + 1)))
            rows.append(
                SurfaceRow(float(beta), float(eta1), report.estimated_success, res.p_analytic, report.stderr)
            )
    return rows
