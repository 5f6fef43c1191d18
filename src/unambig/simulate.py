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
any longer run with the same seed.  ``run`` builds one generator, on
the key's two uint64 words and a zero counter array rather than an
entropy-drawing ``SeedSequence``.  A run of more than one batch also
builds one state dict, ``Philox(key=seed).jumped(0).state`` in Python
ints, and moves the generator to each later batch's stream by writing
that dict with the batch's counter; no state is read back.  It sums the
batches' counts as built-in ints.

``estimate_surface`` hashes every grid point's streams once, before its
first chunk: point ``k``'s pair seed and sampler key are the words of
the two children of ``SeedSequence(seed).spawn(...)[k]``, computed by
numpy's ``SeedSequence`` hash over arrays of all the point indices
(``_spawn_states``), so bitwise those of building each child.  The pair
generators are built on those words.

``estimate_surface`` decides the whole grid in one
``success_probability`` call, which gives the ``(P, n)`` coefficient
stack, and walks the grid in row order, in chunks of consecutive points:
at most ``STACK_POINTS`` points, and at most ``STACK_CELLS`` complex
cells per stacked POVM element, which bounds the chunk's memory.  The
cell cap counts the chunk's distinct measurements
(``povm.distinct_measurements``): an unknown/unknown POVM reads only its
coefficients, so points with equal coefficients share one, and every
other point has its own.  A chunk ends before the first measurement over
the cap.  For a chunk it draws one stacked ``StatePair`` in one
``pair_with_overlap`` call (each point on its own generator), then makes
one stacked ``outcome_probabilities`` call on it and the chunk's rows of
the coefficient stack: one build and one validation per distinct
measurement, and one Born-rule pass that runs each distinct element
against the inputs of all the points that use it (zero inputs pad the
shorter lists).  Each point is then sampled by its own ``run`` call,
which is handed the point's lone pair, a row of the stacked one, and its
probabilities; its config's ``LambdaParams`` is shared by all the points
with the same coefficient row (bytewise), as ``run`` reads only the
probabilities.  The rows are bitwise those of building and sampling one
point at a time.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .cases import KnowledgeCase
from .linalg import NumericalError, expectation
from .povm import LambdaParams, _lambda_of, _lone, build_for_case, distinct_measurements, input_states, validate
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
        if isinstance(self.pair.eta1, np.ndarray):
            raise ValueError("a simulation takes a lone pair, not a stack")
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


def outcome_probabilities(case: KnowledgeCase, pair: StatePair, lam: LambdaParams | np.ndarray) -> np.ndarray:
    """(2, 3) Born probabilities: rows = prepared state, cols = outcome (1, 2, inconclusive).

    For a stacked pair of P rows and a ``(P, n)`` coefficient stack the
    result is ``(P, 2, 3)``, from one stacked build and validation of the
    stack's distinct measurements (``povm.distinct_measurements``) and one
    Born-rule pass.  A failed check names the first point, in stack
    order, that uses a failing measurement.
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

    if lone:  # a lone POVM stays 2-D, as its own validate call reports it
        povm = build_for_case(case, pair, lam)
    else:
        povm = build_for_case(case, pair[point[:, 0]], lam[point[:, 0]])
    try:
        report = validate(povm)
        ins = np.stack(input_states(case, pair), axis=-2)  # (P, 2, n), or (2, n) for a lone pair
        grouped = np.zeros(point.shape + ins.shape[-2:], dtype=complex)  # zero states pad the slots
        grouped[inverse, slot] = ins
        # one Born-rule pass per element: each distinct element against the inputs of all its points
        probs = np.stack([expectation(grouped, el.reshape((-1, 1, 1) + el.shape[-2:])) for el in povm.elements],
                         axis=-1)
    except NumericalError as exc:
        if not (lone or exc.index):
            raise
        where = tuple(exc.index or ())
        # validate locates a measurement (its first point is in slot 0); the Born rule, a (measurement, slot, input)
        k = int(point[where[0], where[1] if len(where) > 2 else 0]) if where else 0
        index = (k,) + where[2:]
        raise type(exc)(f"{exc} {at(k)}", index[1:] if lone else index) from exc
    probs = probs[inverse, slot]
    mins = np.reshape(report.min_eigenvalues, (3, -1))[:, inverse]  # (element, point)
    bad = ~np.reshape(report.psd_ok, (3, -1))[:, inverse].all(axis=0)
    if bad.any():
        k = int(np.argmax(bad))
        raise MeasurementError(
            f"POVM is not positive semidefinite {at(k)}: min eigenvalues {tuple(mins[:, k].tolist())}"
        )
    residual = np.reshape(report.completeness_residual, -1)[inverse]
    bad = ~(residual <= _PROB_SUM_TOL)  # NaN fails
    if bad.any():
        k = int(np.argmax(bad))
        raise MeasurementError(f"POVM completeness residual {residual[k]:.3e} {at(k)}")
    probs = np.clip(probs, 0.0, None)
    sums = probs.sum(axis=-1)
    bad = ~(np.abs(sums - 1.0) <= _PROB_SUM_TOL).all(axis=1)
    if bad.any():
        k = int(np.argmax(bad))
        raise MeasurementError(f"outcome probabilities sum to {sums[k]} {at(k)}, expected 1")
    probs = probs / sums[..., None]
    return probs[0] if lone else probs


def _run_batch(rng: np.random.Generator, n: int, eta1: float, probs: np.ndarray) -> tuple[int, int, int, int]:
    """Counts (identified-1, identified-2, inconclusive, error), as ints, of one batch of ``n`` shots from ``rng``."""
    n_prep1 = rng.binomial(n, eta1)
    id1, wrong2, inc1 = rng.multinomial(n_prep1, probs[0]).tolist()  # state 1 prepared: outcome 2 is an error
    wrong1, id2, inc2 = rng.multinomial(n - n_prep1, probs[1]).tolist()  # state 2 prepared: outcome 1 is an error
    return id1, id2, inc1 + inc2, wrong1 + wrong2


def _jump_state(words: tuple[int, int]) -> dict:
    """The state of ``Philox(key=<words>).jumped(b)`` in Python ints, while its counter list reads ``[0, 0, b, 0]``.

    ``jumped`` empties the buffer and zeroes ``uinteger`` and ``has_uint32``, as here.
    """
    return {"bit_generator": "Philox", "state": {"counter": [0, 0, 0, 0], "key": list(words)},
            "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}


def _jump_to(bits: np.random.Philox, state: dict, batch_index: int) -> None:
    """Write ``state`` (from ``_jump_state``) into ``bits`` at counter ``batch_index * 2^128``.

    ``bits`` is then ``Philox(key=<the state's key>).jumped(batch_index)``,
    whatever it drew before.
    """
    state["state"]["counter"][2] = batch_index
    bits.state = state


# numpy's SeedSequence: its pool of 32-bit words and its hash constants (numpy/random/bit_generator.pyx)
_MASK32 = (1 << 32) - 1
_POOL_SIZE = 4
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _hash_consts(init: int, mult: int):
    """SeedSequence's hash constants in turn, each with the next: ``(init, init * mult), ...`` mod 2^32."""
    while True:
        yield init, (init := init * mult & _MASK32)


def _hashmix(value: np.ndarray, consts) -> np.ndarray:
    """SeedSequence's hash of a uint32 array on the next pair of constants (arrays wrap without a warning)."""
    xor, mult = next(consts)
    value = (value ^ xor) * mult
    return value ^ value >> 16


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SeedSequence's mix of two uint32 arrays."""
    value = x * _MIX_MULT_L - y * _MIX_MULT_R
    return value ^ value >> 16


def _spawn_states(seed: int, indices: np.ndarray, child: int, n_words: int) -> np.ndarray:
    """``SeedSequence(seed, spawn_key=(i, child)).generate_state(n_words, np.uint64)`` for each ``i``: ``(P, n_words)``.

    numpy's SeedSequence hash, run over uint32 arrays: the seed's words
    (zero-padded to the pool, as a spawn key requires) are mixed once,
    and only the spawn key's words ``(i, child)`` vary by point.  Each
    index is one 32-bit word, so an index of 2^32 or more is rejected.
    """
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    indices = np.asarray(indices, dtype=np.int64)
    if indices.size and not (indices.min() >= 0 and indices.max() <= _MASK32):
        raise ValueError("point indices must lie in [0, 2**32)")
    n_seed = max(_POOL_SIZE, (seed.bit_length() + 31) // 32)
    entropy = np.array([(seed >> 32 * k) & _MASK32 for k in range(n_seed)], dtype=np.uint32)[:, None]
    consts = _hash_consts(_INIT_A, _MULT_A)
    pool = [_hashmix(word, consts) for word in entropy[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], consts))
    spawn_key = [indices.astype(np.uint32), np.full(indices.shape, child, dtype=np.uint32)]
    for word in [*entropy[_POOL_SIZE:], *spawn_key]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], _hashmix(word, consts))
    consts = _hash_consts(_INIT_B, _MULT_B)
    state = np.stack([_hashmix(pool[k % _POOL_SIZE], consts) for k in range(2 * n_words)], axis=-1)
    return state[:, 0::2].astype(np.uint64) | state[:, 1::2].astype(np.uint64) << np.uint64(32)


@functools.cache
def _given_state() -> type:
    """``GivenState(words)``: a seed sequence whose ``generate_state`` returns its uint64 ``words``.

    A generator built on it is bitwise the one built on the sequence
    whose words these are.  Made on first use: importing
    ``numpy.random.bit_generator`` loads ``numpy.random``, which
    ``import unambig.cli`` leaves out.
    """
    from numpy.random.bit_generator import ISeedSequence

    class GivenState(ISeedSequence):
        def __init__(self, words: np.ndarray) -> None:
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if np.dtype(dtype) != np.uint64 or n_words != len(self.words):
                raise ValueError(f"holds {len(self.words)} uint64 words, not {n_words} {np.dtype(dtype)}")
            return self.words

    return GivenState


_ZERO_COUNTER = np.zeros(4, dtype=np.uint64)  # Philox's default counter; an array skips numpy's int-to-words loop


def _key_words(key: int) -> tuple[int, int]:
    """The Philox key's two 64-bit words, low first, as Python ints; the key must lie in [0, 2^128)."""
    key = operator.index(key)
    if not 0 <= key < 1 << 128:
        raise ValueError(f"seed must lie in [0, 2**128), got {key}")
    return key & (1 << 64) - 1, key >> 64


def _philox(words: tuple[int, int]) -> np.random.Philox:
    """``Philox(key=key)`` for the key's ``_key_words``: bitwise the same, but it draws no OS entropy."""
    return np.random.Philox(_given_state()(np.array(words, dtype=np.uint64)), counter=_ZERO_COUNTER)


def run(config: SimConfig) -> SimReport:
    """Simulate the experiment; deterministic for a fixed seed.

    The seed is the Philox key, in [0, 2^128): batch ``b`` draws from
    ``Philox(key=seed).jumped(b)``, in the order ``_run_batch`` fixes.
    Batch 0 draws from the generator as built; each later batch first
    writes the run's one ``_jump_state`` dict into it with counter ``b``.
    """
    probs = config.probs
    if probs is None:
        probs = outcome_probabilities(config.case, config.pair, config.lam)
    words = _key_words(config.seed)
    bits = _philox(words)
    rng = np.random.Generator(bits)
    n_batches = (config.shots + BATCH_SHOTS - 1) // BATCH_SHOTS
    state = _jump_state(words) if n_batches > 1 else None
    counts = (0, 0, 0, 0)  # built-in ints, summed batch by batch
    for b in range(n_batches):
        if b:
            _jump_to(bits, state, b)
        n = min(BATCH_SHOTS, config.shots - b * BATCH_SHOTS)
        counts = tuple(map(operator.add, counts, _run_batch(rng, n, config.pair.eta1, probs)))
    p_hat = (counts[0] + counts[1]) / config.shots
    stderr = math.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / config.shots)
    return SimReport(counts=counts, estimated_success=p_hat, stderr=stderr)


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
    from the seed, one independent stream per grid point, all hashed in
    one pass.  Points are set up in chunks (see the module docstring)
    and sampled one ``run`` call each.
    """
    points = [(float(beta), float(eta1)) for eta1 in eta_grid for beta in beta_grid]
    betas, etas = np.array(points, dtype=float).reshape(-1, 2).T
    decided = strategies.success_probability(case, betas, etas)
    p_analytic = decided.p_analytic.tolist()
    cap = max(1, STACK_CELLS // case.register_dim**2)  # distinct measurements per chunk
    # point k's children of SeedSequence(seed).spawn(...)[k]: the first seeds its pair, the second is its key
    pair_words = _spawn_states(seed, np.arange(len(points)), 0, 4)
    keys = _spawn_states(seed, np.arange(len(points)), 1, 1)[:, 0].tolist()
    GivenState = _given_state()
    shared = {}  # one LambdaParams per distinct coefficient row, keyed on the row's bytes
    rows = []
    while len(rows) < len(points):
        start = len(rows)
        # numbered in order of first use, so the chunk ends before the first measurement over the cap
        ahead = decided.lam[start : start + STACK_POINTS]
        over = np.flatnonzero(distinct_measurements(case, ahead) >= cap)
        chunk = slice(start, start + (int(over[0]) if over.size else len(ahead)))
        pairs = pair_with_overlap(case.dim, betas[chunk], etas[chunk], [GivenState(w) for w in pair_words[chunk]])
        probs = outcome_probabilities(case, pairs, decided.lam[chunk])
        for (beta, eta1), lam, p_exact, pair, key, p in zip(points[chunk], decided.lam[chunk], p_analytic[chunk],
                                                             pairs, keys[chunk], probs):
            lam_key = lam.tobytes()
            if lam_key not in shared:
                shared[lam_key] = _lambda_of(case, lam)
            report = run(SimConfig(case, pair, shared[lam_key], shots_per_point, key, probs=p))
            rows.append(SurfaceRow(beta, eta1, report.estimated_success, p_exact, report.stderr))
    return rows
