"""Monte Carlo simulation of the full discrimination experiment.

Shots are exchangeable, so a batch of ``n`` shots is drawn as counts:
the preparation split ``n1 ~ Binomial(n, eta1)`` (state 1 prepared),
then one ``Multinomial`` draw of the three outcomes per preparation on
the Born probabilities of its register input.  A batch costs the same
whatever its size.  Unambiguity is structural: for feasible
coefficients the wrong-identification probability is zero to machine
precision, so error counts are exactly zero, not just small.

``run`` takes a ``SimConfig``: the ``(2, 3)`` table of
``outcome_probabilities``, which the knowledge of the states fixes
through the measurement, and the prior ``eta1``, which fixes how often
each row of the table is drawn.  It builds no measurement.

Randomness comes from the Philox counter-based generator.  Shots are
processed in fixed-size batches of ``BATCH_SHOTS``, drawn in order from
the one stream of ``Philox(key=seed)`` with a fixed draw order per
batch, so a run of ``k * BATCH_SHOTS`` shots is exactly the first ``k``
batches of any longer run with the same seed.  Each thread holds one
generator, made on its first run; a written Philox state defines the
generator in full, so ``run`` writes the state of ``Philox(key=seed)``,
built in Python ints, once before its first batch; no state is read
back, and nothing a run leaves in the generator reaches the next.  It
sums the batches' counts as built-in ints.

``estimate_surface`` draws everything a surface needs from one
``np.random.default_rng(seed)``, in a fixed order: first one Philox key
per grid point, in one ``integers`` call, so point ``k``'s key depends
only on ``(seed, k)``; then the state pairs of all the points, in one
``pair_with_overlap`` call on the same generator, so a point's pair
depends on the grid it sits in.

``estimate_surface`` decides the whole grid in one
``success_probability`` call, which gives the ``(P, n)`` coefficient
stack, and walks the grid in row order, in chunks of consecutive points:
at most ``STACK_POINTS`` points, and at most ``povm.stack_rows``
measurements, the stacked-build cell cap that bounds the chunk's
memory.  The cap counts the chunk's distinct measurements
(``povm.distinct_measurements``): an unknown/unknown POVM reads only its
coefficients, so points with equal coefficients share one, and every
other point has its own.  A chunk ends before the first measurement over
the cap.  A chunk takes its rows of the surface's stacked pair, then
makes one stacked ``outcome_probabilities`` call on them and the chunk's
rows of the coefficient stack: one build and one validation per distinct
measurement, and one Born-rule pass that runs each distinct element
against the inputs of all the points that use it (zero inputs pad the
shorter lists).  Each point is then sampled by its own ``run`` call,
which is handed the point's row of the chunk's probabilities, its
``eta1`` and its key.  Every draw is made before the first chunk, so
the rows do not depend on where the chunks end.
"""

from __future__ import annotations

import math
import operator
import threading
from dataclasses import dataclass

import numpy as np

from .cases import KnowledgeCase
from .linalg import NumericalError, _first_failure, expectation
from .povm import (LambdaParams, MeasurementError, _lone, build_for_case, distinct_measurements, input_states,
                   stack_rows, validate)
from .states import ParallelStatesError, StatePair, grid_points, pair_with_overlap
from . import strategies

BATCH_SHOTS = 1 << 16
STACK_POINTS = 64  # estimate_surface's chunks: at most this many points
_PROB_SUM_TOL = 1e-9
_thread = threading.local()  # holds each thread's sampler (see _sampler)


@dataclass(frozen=True, eq=False)  # holds an array: compared by identity
class SimConfig:
    """What ``run`` samples.  Each row of ``probs`` must be a distribution, which ``run`` does not check: numpy's
    ``multinomial`` gives what a row leaves short of 1 to the inconclusive outcome.  Tables from
    ``outcome_probabilities`` are checked and normalized."""

    probs: np.ndarray  # rows = prepared state, cols = outcome (1, 2, inconclusive)
    eta1: float  # the prior of state 1
    shots: int
    seed: int  # the Philox key

    def __post_init__(self) -> None:
        if operator.index(self.shots) < 1:
            raise ValueError("shots must be >= 1")
        if not 0.0 <= self.eta1 <= 1.0:  # NaN fails
            raise ValueError(f"eta1 must lie in [0, 1], got {self.eta1}")
        if np.shape(self.probs) != (2, 3):
            raise ValueError(f"probs must have shape (2, 3), got {np.shape(self.probs)}")
        if not 0 <= operator.index(self.seed) < 1 << 128:
            raise ValueError(f"seed must lie in [0, 2**128), got {self.seed}")


@dataclass(frozen=True)
class SimReport:
    counts: tuple[int, int, int, int]  # identified-1, identified-2, inconclusive, error
    estimated_success: float
    stderr: float

    @property
    def n_error(self) -> int:
        return self.counts[3]


def outcome_probabilities(case: KnowledgeCase, pair: StatePair, lam: LambdaParams | np.ndarray) -> np.ndarray:
    """(2, 3) Born probabilities: rows = prepared state, cols = outcome (1, 2, inconclusive).

    For a stacked pair of P rows and a ``(P, n)`` coefficient stack the
    result is ``(P, 2, 3)``, from one stacked build and validation of the
    stack's distinct measurements (``povm.distinct_measurements``) and one
    Born-rule pass.  A failed check, ``PovmReport.check`` among them, names
    the first point, in stack order, that uses a failing measurement.
    """
    lone = _lone(lam, pair.psi1)
    inverse = np.zeros(1, dtype=int) if lone else distinct_measurements(case, lam)
    counts = np.bincount(inverse)
    # (measurement, slot) -> point: each measurement's points in stack order, its first use in slot 0
    order = np.argsort(inverse, kind="stable")
    slot = np.empty_like(inverse)
    slot[order] = np.arange(len(inverse)) - np.repeat(np.cumsum(counts) - counts, counts)
    point = np.zeros((len(counts), counts.max()), dtype=int)
    point[inverse, slot] = np.arange(len(inverse))
    betas, etas = np.atleast_1d(pair.beta), np.atleast_1d(pair.eta1)

    def at(k: int) -> str:
        return f"at (beta, eta1) = ({betas[k]}, {etas[k]})"

    try:  # a lone POVM stays 2-D, as its own validate call reports it
        povm = build_for_case(case, pair, lam) if lone else build_for_case(case, pair[point[:, 0]], lam[point[:, 0]])
        validate(povm).check()
        ins = np.stack(input_states(case, pair), axis=-2)  # (P, 2, n), or (2, n) for a lone pair
        grouped = np.zeros(point.shape + ins.shape[-2:], dtype=complex)  # zero states pad the slots
        grouped[inverse, slot] = ins
        # one Born-rule pass per element: each distinct element against the inputs of all its points
        probs = np.stack([expectation(grouped, el.reshape((-1, 1, 1) + el.shape[-2:])) for el in povm.elements],
                         axis=-1)
    except (NumericalError, ParallelStatesError) as exc:
        # raised as is: a stacked failure with no index, and a lone pair's parallel error, which its overlap names
        if not (lone or exc.index) or lone and isinstance(exc, ParallelStatesError):
            raise
        where = tuple(exc.index or ())
        # the build, validate and check name a measurement (first point in slot 0); the Born rule, a
        # (measurement, slot, input)
        k = int(point[where[0], where[1] if len(where) > 2 else 0]) if where else 0
        index = (k,) + where[2:]
        raise type(exc)(f"{exc} {at(k)}", index[1:] if lone else index) from exc
    probs = np.clip(probs[inverse, slot], 0.0, None)
    sums = probs.sum(axis=-1)
    index = _first_failure(~(np.abs(sums - 1.0) <= _PROB_SUM_TOL).all(axis=1))
    if index is not None:
        raise MeasurementError(f"outcome probabilities sum to {sums[index]} {at(*index)}, expected 1")
    probs = probs / sums[..., None]
    return probs[0] if lone else probs


def _philox_state(key: int) -> dict:
    """The state of ``Philox(key=key)`` in Python ints: the key's two 64-bit words low first, counter zero, buffer
    empty, no held uint32."""
    high, low = divmod(operator.index(key), 1 << 64)
    return {"bit_generator": "Philox", "state": {"counter": [0, 0, 0, 0], "key": [low, high]},
            "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}


def _sampler() -> np.random.Generator:
    """This thread's one sampling generator, on one Philox, made on first use.

    Its seed is never read: ``run`` writes its state before drawing.
    Made lazily, so ``import unambig.cli`` leaves ``numpy.random``
    unloaded.
    """
    rng = getattr(_thread, "rng", None)
    if rng is None:
        rng = _thread.rng = np.random.Generator(np.random.Philox(0))
    return rng


def run(config: SimConfig) -> SimReport:
    """Simulate the experiment; deterministic for a fixed seed.

    The seed is the Philox key: the run first writes ``_philox_state`` of
    its key into this thread's generator, then draws every batch in order
    from that one stream: the preparation split ``n1 = binomial(n, eta1)``,
    then ``multinomial(n1, probs[0])``, then ``multinomial(n - n1, probs[1])``.
    """
    rng = _sampler()
    rng.bit_generator.state = _philox_state(config.seed)
    binomial, multinomial = rng.binomial, rng.multinomial
    row1, row2 = config.probs
    eta1, shots = config.eta1, config.shots
    id1 = id2 = inc = err = 0  # built-in ints, summed batch by batch
    left = shots
    while left > 0:
        n = BATCH_SHOTS if left > BATCH_SHOTS else left
        n1 = binomial(n, eta1)
        hit1, wrong2, inc1 = multinomial(n1, row1).tolist()  # state 1 prepared: outcome 2 is an error
        wrong1, hit2, inc2 = multinomial(n - n1, row2).tolist()  # state 2 prepared: outcome 1 is an error
        id1 += hit1
        id2 += hit2
        inc += inc1 + inc2
        err += wrong1 + wrong2
        left -= BATCH_SHOTS
    p_hat = (id1 + id2) / shots
    stderr = math.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / shots)
    return SimReport(counts=(id1, id2, inc, err), estimated_success=p_hat, stderr=stderr)


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
    the full (beta, eta1) point of ``states.grid_points(beta_grid, eta_grid)``.
    ``seed``, a non-negative int, seeds the one generator that draws every
    point's sampler key and then every point's pair (see the module
    docstring).  ``shots_per_point`` must be an int of at least 1; both are
    checked before any work.  Points are set up in chunks and sampled one
    ``run`` call each.
    """
    seed, shots_per_point = operator.index(seed), operator.index(shots_per_point)
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    if shots_per_point < 1:
        raise ValueError(f"shots_per_point must be a positive integer, got {shots_per_point}")
    betas, etas = grid_points(beta_grid, eta_grid)
    points = list(zip(betas.tolist(), etas.tolist()))
    decided = strategies.success_probability(case, betas, etas)
    p_analytic = decided.p_analytic.tolist()
    cap = stack_rows(case)  # distinct measurements per chunk
    rng = np.random.default_rng(seed)
    keys = rng.integers(2**64, size=len(points), dtype=np.uint64).tolist()  # drawn first: key k is (seed, k)'s
    pairs = pair_with_overlap(case.dim, betas, etas, rng)
    rows = []
    while len(rows) < len(points):
        start = len(rows)
        # numbered in order of first use, so the chunk ends before the first measurement over the cap
        ahead = decided.lam[start : start + STACK_POINTS]
        over = np.flatnonzero(distinct_measurements(case, ahead) >= cap)
        chunk = slice(start, start + (int(over[0]) if over.size else len(ahead)))
        probs = outcome_probabilities(case, pairs[chunk], decided.lam[chunk])
        for (beta, eta1), p_exact, key, p in zip(points[chunk], p_analytic[chunk], keys[chunk], probs):
            report = run(SimConfig(p, eta1, shots_per_point, key))
            rows.append(SurfaceRow(beta, eta1, report.estimated_success, p_exact, report.stderr))
    return rows
