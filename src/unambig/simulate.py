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

``estimate_surface`` walks its grid in row order, in chunks of at most
``STACK_POINTS`` points and ``STACK_CELLS`` complex cells per stacked
POVM element, which bounds the chunk's memory.  For a chunk it takes
all decisions in one ``success_probability`` call and draws every pair
in one ``pair_with_overlap`` call (each point on its own
``SeedSequence`` child), then makes one stacked
``outcome_probabilities`` call: one POVM build, one validation and one
Born-rule pass for all its points.  Each point is then sampled by its
own ``run`` call, which is handed the point's probabilities.  The rows
are bitwise those of building and sampling one point at a time.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .cases import KnowledgeCase
from .linalg import NumericalError, expectation
from .povm import LambdaParams, build_for_case, input_states, validate
from .states import StatePair, pair_with_overlap
from . import strategies

BATCH_SHOTS = 1 << 16
STACK_POINTS = 64  # estimate_surface's chunks: at most this many points
STACK_CELLS = 1 << 12  # and at most this many complex cells per stacked POVM element
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
    # the (2, 3) outcome_probabilities of (case, pair, lam), if already computed; run trusts them
    probs: np.ndarray | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.shots < 1:
            raise ValueError("shots must be >= 1")
        if self.probs is not None and np.shape(self.probs) != (2, 3):
            raise ValueError(f"probs must have shape (2, 3), got {np.shape(self.probs)}")


@dataclass(frozen=True)
class SimReport:
    counts: tuple[int, int, int, int]  # identified-1, identified-2, inconclusive, error
    estimated_success: float
    stderr: float

    @property
    def n_error(self) -> int:
        return self.counts[3]


def outcome_probabilities(case: KnowledgeCase, pair: StatePair | Sequence[StatePair],
                          lam: LambdaParams | Sequence[LambdaParams]) -> np.ndarray:
    """(2, 3) Born probabilities: rows = prepared state, cols = outcome (1, 2, inconclusive).

    For a stack of P pairs with one ``LambdaParams`` each the result is
    ``(P, 2, 3)``, from one stacked build, validation and Born-rule pass.
    A failed check names the first failing point's (beta, eta1) in stack
    order.
    """
    lone = isinstance(pair, StatePair)
    pairs = [pair] if lone else list(pair)

    def at(k: int) -> str:
        return f"at (beta, eta1) = ({pairs[k].beta}, {pairs[k].eta1})"

    povm = build_for_case(case, pair, lam)
    try:
        report = validate(povm)
        ins = np.stack(input_states(case, pair), axis=-2)  # (..., 2, n)
        # (..., 2, 3): one Born-rule pass per element over both inputs of every point
        probs = np.stack([expectation(ins, el[..., None, :, :]) for el in povm.elements], axis=-1)
    except NumericalError as exc:
        if not (lone or exc.index):
            raise
        raise type(exc)(f"{exc} {at(0 if lone else exc.index[0])}", exc.index) from exc
    mins = np.reshape(report.min_eigenvalues, (3, -1))  # (element, point)
    bad = ~np.reshape(report.psd_ok, (3, -1)).all(axis=0)
    if bad.any():
        k = int(np.argmax(bad))
        raise MeasurementError(
            f"POVM is not positive semidefinite {at(k)}: min eigenvalues {tuple(mins[:, k].tolist())}"
        )
    residual = np.reshape(report.completeness_residual, -1)
    bad = ~(residual <= _PROB_SUM_TOL)  # NaN fails
    if bad.any():
        k = int(np.argmax(bad))
        raise MeasurementError(f"POVM completeness residual {residual[k]:.3e} {at(k)}")
    probs = np.clip(probs, 0.0, None)
    sums = probs.sum(axis=-1)
    bad = ~(np.abs(sums - 1.0) <= _PROB_SUM_TOL).reshape(-1, 2).all(axis=1)
    if bad.any():
        k = int(np.argmax(bad))
        raise MeasurementError(f"outcome probabilities sum to {sums.reshape(-1, 2)[k]} {at(k)}, expected 1")
    return probs / sums[..., None]


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
    probs = config.probs
    if probs is None:
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

    Both are children of ``SeedSequence(seed).spawn(...)[index]``, built
    directly in O(1) as ``spawn`` defines them: its first child seeds the
    state pair, its second gives the Philox key, so no two (seed, index)
    share a stream.
    """
    pair_seq = np.random.SeedSequence(seed, spawn_key=(index, 0))
    sampler_seq = np.random.SeedSequence(seed, spawn_key=(index, 1))
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
    from the seed, one independent stream per grid point.  Points are set
    up in chunks (see the module docstring) and sampled one ``run`` call
    each.
    """
    points = [(float(beta), float(eta1)) for eta1 in eta_grid for beta in beta_grid]
    size = max(1, min(STACK_POINTS, STACK_CELLS // case.register_dim**2))
    rows = []
    for start in range(0, len(points), size):
        chunk = points[start : start + size]
        betas, etas = np.array(chunk).T
        decisions = strategies.success_probability(case, betas, etas)
        seeds = [_point_seeds(seed, start + k) for k in range(len(chunk))]
        pairs = pair_with_overlap(case.dim, betas, etas, [pair_seed for pair_seed, _ in seeds])
        probs = outcome_probabilities(case, pairs, [res.lam for res in decisions])
        for (beta, eta1), res, pair, (_, key), p in zip(chunk, decisions, pairs, seeds, probs):
            report = run(SimConfig(case, pair, res.lam, shots_per_point, key, probs=p))
            rows.append(SurfaceRow(beta, eta1, report.estimated_success, res.p_analytic, report.stderr))
    return rows
