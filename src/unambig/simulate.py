"""Monte Carlo simulation of the full discrimination experiment.

Shots are exchangeable, so a batch of ``n`` shots is drawn as counts:
the preparation split ``n1 ~ Binomial(n, eta1)`` (state 1 prepared),
then one ``Multinomial`` draw of the three outcomes per preparation on
the Born probabilities of its register input.  A batch costs the same
whatever its size.  Unambiguity is structural: for feasible
coefficients the wrong-identification probability is zero to machine
precision, so error counts are exactly zero, not just small.

Randomness comes from the Philox counter-based generator.  Shots are
processed in fixed-size batches of ``BATCH_SHOTS``, batch ``b`` owning
the stream ``Philox(key=seed).jumped(b)`` with a fixed draw order, so a
run of ``k * BATCH_SHOTS`` shots is exactly the first ``k`` batches of
any longer run with the same seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cases import KnowledgeCase
from .linalg import NumericalError, expectation
from .povm import LambdaParams, build_for_case, input_states, validate
from .states import StatePair, pair_with_overlap
from . import strategies

BATCH_SHOTS = 1 << 16
_PROB_SUM_TOL = 1e-9


class MeasurementError(NumericalError):
    """The assembled POVM is not a measurement: a numerical failure, not bad input."""


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
    """Counts (identified-1, identified-2, inconclusive, error) of one batch of ``n`` shots."""
    # counter = batch_index * 2^128 is the state of Philox(key=seed).jumped(batch_index), built in one step
    rng = np.random.Generator(np.random.Philox(key=seed, counter=batch_index << 128))
    n_prep1 = rng.binomial(n, eta1)
    id1, wrong2, inc1 = rng.multinomial(n_prep1, probs[0])  # state 1 prepared: outcome 2 is an error
    wrong1, id2, inc2 = rng.multinomial(n - n_prep1, probs[1])  # state 2 prepared: outcome 1 is an error
    return np.array([id1, id2, inc1 + inc2, wrong1 + wrong2], dtype=np.int64)


def run(config: SimConfig) -> SimReport:
    """Simulate the experiment; deterministic for a fixed seed."""
    probs = outcome_probabilities(config.case, config.pair, config.lam)
    counts = np.zeros(4, dtype=np.int64)
    for b in range((config.shots + BATCH_SHOTS - 1) // BATCH_SHOTS):
        n = min(BATCH_SHOTS, config.shots - b * BATCH_SHOTS)
        counts += _run_batch(config.seed, b, n, config.pair.eta1, probs)
    n1, n2, n0, nerr = (int(x) for x in counts)
    p_hat = (n1 + n2) / config.shots
    stderr = math.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / config.shots)
    return SimReport(counts=(n1, n2, n0, nerr), estimated_success=p_hat, stderr=stderr)


def _point_seeds(seed: int, index: int) -> tuple[np.random.SeedSequence, int]:
    """Grid point ``index``'s pair seed and sampler key.

    Both come from ``SeedSequence(seed).spawn(...)[index]``, built directly
    in O(1): its first child seeds the state pair, its second gives the
    Philox key, so no two (seed, index) share a stream.
    """
    pair_seq, sampler_seq = np.random.SeedSequence(seed, spawn_key=(index,)).spawn(2)
    return pair_seq, int(sampler_seq.generate_state(1, np.uint64)[0])


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
            pair_seed, sampler_key = _point_seeds(seed, idx)
            pair = pair_with_overlap(case.dim, float(beta), float(eta1), seed=pair_seed)
            report = run(SimConfig(case, pair, res.lam, shots_per_point, sampler_key))
            rows.append(
                SurfaceRow(float(beta), float(eta1), report.estimated_success, res.p_analytic, report.stderr)
            )
    return rows
