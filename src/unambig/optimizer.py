"""Independent numerical maximin oracle for the closed-form strategies.

One rule poses every case: the coefficients may use only the a priori
knowledge of the case's regime, and what the problem does not take it
must survive in the worst case.  ``_problem_inputs`` names the inputs
the problem is posed at; each other input of ``(beta, eta1)`` is hidden
and left to the adversary.  So each case is: maximize, over feasible
coefficient vectors, the minimum of the family's objective over the
hidden inputs.  Cases with nothing hidden degenerate to plain
maximization (no adversary).

Every case objective is multi-affine in the adversary coordinates
``(1 - beta^2, eta1)``, so its minimum over the unit box is reached at a
vertex (Boyd & Vandenberghe, *Convex Optimization*, 2004): the adversary
is the box vertices of the hidden inputs, each in ``{0, 1}``, and the
worst case equals the minimum over any product grid that contains them.

Search is derivative-free by design: the objectives are concave
(pointwise minima of affine functions of the coefficients) but the
optima sit on constraint boundaries, so a feasibility-filtered grid with
local refinement is robust.  Passes start at step 0.1 over the unit box
and shrink tenfold around the incumbent until the requested resolution
is reached (two refinement passes at the default 1e-3).

Ties in the worst-case value are broken by the higher mean over the
``ADVERSARY_STEP`` grid of the box (a dominance refinement: it is what
recovers the free coefficient that the worst case alone leaves
undetermined), then by the lexicographically smallest coefficient
vector.  The mean of a multi-affine function over a product grid is its
value at the grid's mean point, so that mean is one evaluation at the
problem's ``tie_point``.

One solve handles a batch: a problem carries a leading axis of P
independent parameter points (``case_problem`` takes arrays of ``beta``
and ``eta1``; a scalar call is P = 1), and candidates are never
materialized as rows.  Each pass splits the points into chunks of
consecutive rows, as many as fit ``_BLOCK_CELLS`` cells (a memory cap)
of the grid and boundary blocks padded to the chunk's longest axes, and
at least one; per chunk it evaluates three broadcast ``Block``s, with
coordinate i along axis 1 + i and a trailing adversary axis:

* the product grid of the per-coefficient axes;
* the boundary block: the second coordinate set to the boundary
  projection of the first, an ``(n0, 1, n2)`` grid;
* the incumbent and its projection.

Refinement windows clipped at the box edges differ in length from point
to point; shorter axes are padded by repeating their last value, and a
duplicate cell changes neither the maximum, the tie filters nor the
lexicographically smallest pick.  Infeasible cells score ``-inf``.
Every feasibility predicate, the case's ``strategies.REGIONS`` entry,
reads only the first two coefficients, so it is evaluated on the
``(l0, l1)`` axes and broadcast.

Coordinates from index 2 on (the known/unknown ``l3``) are free: neither
the feasibility predicate nor the boundary projection reads them, and
every case objective is nondecreasing in them at each adversary row and
at the tie point.  The coefficient of ``l3`` is ``f^2 (1 - eta1)`` in
``_known_unknown_p`` and ``f (1 - eta1)`` in ``_bracket``, with
``f = 1 - beta^2``, both nonnegative on the unit box; rounded ``+`` and
``*`` by a nonnegative number are monotone, so the computed values are
nondecreasing too.  Along a free axis the top worst case and the top
mean therefore sit at its upper end (the same vertex argument as the
adversary's), and each pass scores only the two ends of a free axis,
in the grid and the boundary block alike.  The pick keeps the same
leading coordinates; along the free axis it is the lower end when the
whole axis ties within ``_TIE_TOL``, otherwise the upper end.  A full
axis would pick its smallest tied value instead, which differs only
where the axis moves the objective by less than ``_TIE_TOL``.

With a boundary projection, coordinate 1 is scored the same way.  Every
family's feasible values of coordinate 1 at each ``l0`` form a down-set
(each constraint's left side is nonincreasing in it) topped by
``boundary(l0)`` up to the predicate's slack, and every case objective
is nondecreasing in it: its coefficient is ``(1 - eta1) f`` up to a
positive factor, or ``(1 - eta1) beta^2`` (times ``f`` outside the
bracket), where computed ``_bracket`` values may dip by an ulp.  So the
boundary block's cell of each ``l0`` column scores at least every
feasible grid cell of that column, within ``_TIE_TOL``, and the grid
block scores only the two ends of the coordinate-1 window.  The lower
end keeps the lexicographic pick where the objective is flat in
coordinate 1 (``eta1 = 1``, ``beta = 1``, or A3 at ``beta = 0``); the
upper end keeps ``(1, 1)`` where the slack lets coordinate 1 rise above
the computed projection.  A full axis would pick a lower grid cell that
ties the top within ``_TIE_TOL``, such as one an ulp below the
projection.

``verify_case`` keys its solves by the problem's inputs
(``_problem_inputs``) and stacks the distinct keys of a case in one
solve, and the measurement checks of its distinct solutions in one
build.

For qutrits the per-index symmetry of the closed-form strategies is
exploited: all index-1 coefficients equal, all index-2 coefficients
equal, the extra known/unknown block equal.  Under that reduction the
known/unknown objectives coincide with the qubit ones; the
unknown/unknown family uses the corrected simplex constraint (see
``strategies.REGIONS``).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .cases import Family, KnowledgeCase, Regime
from .linalg import _first_rows
from .states import StatePair, as_points, grid_points, pair_with_overlap
from . import strategies

ADVERSARY_STEP = 0.01
_TIE_TOL = 1e-12
_BLOCK_CELLS = 1 << 16


class Block:
    """A broadcast block of candidate coefficient vectors.

    ``coords[i]`` is coordinate i; together they broadcast to ``shape``,
    ``(P, n_0, ..., n_{k-1}, 1)``, whose cells are the candidates, so
    ``len`` is the number of candidates (padded duplicates included).
    ``rows`` selects the problem's points that the block's leading axis
    covers, in order; a problem reads its per-point inputs through it.
    """

    __slots__ = ("coords", "shape", "rows")

    def __init__(self, coords: tuple[np.ndarray, ...], rows: slice):
        self.coords = coords
        self.shape = np.broadcast_shapes(*(np.shape(c) for c in coords))
        self.rows = rows

    def __len__(self) -> int:
        return math.prod(self.shape)


@dataclass(frozen=True)
class MaximinProblem:
    """Vectorized maximin problem over coefficients in the unit box.

    ``objective(block, adversary)`` receives a ``Block`` (coordinate i
    varies along axis 1 + i, or along axis 1 in a boundary block) and
    adversary rows (M, a); it returns values broadcasting to the
    block's shape with M in its last axis, or 1 with ``adversary`` None.
    ``feasible(block)`` returns a boolean mask of the block's shape.  Both
    read the inputs of the points ``block.rows``.  The worst case is the
    minimum over ``adversary`` (the box vertices for the case problems,
    or any grid).

    Coordinates from index 2 on must be free: ``feasible`` and
    ``boundary`` do not read them, and the objective is nondecreasing in
    each of them at every adversary row and at ``tie_point``.  With a
    ``boundary``, coordinate 1 must be bounded by it: at each value of
    coordinate 0 its feasible values form a down-set topped by
    ``boundary`` (up to the predicate's slack), and the objective is
    nondecreasing in it in the same way.  ``solve_maximin`` scores only
    the two ends of those coordinates' windows.
    """

    n_params: int
    objective: Callable[[Block, np.ndarray | None], np.ndarray]
    feasible: Callable[[Block], np.ndarray]
    adversary: np.ndarray | None = None
    tie_point: np.ndarray | None = None
    """One adversary row whose objective value breaks worst-case ties; the
    case problems put it at the mean point of the ``ADVERSARY_STEP`` grid,
    where a multi-affine objective equals its grid mean.  None breaks ties
    by the mean over ``adversary``."""
    boundary: Callable[[Block], np.ndarray] | None = None
    """Optional projection of a block's first coordinate to the second one's
    exact feasibility boundary, at the block's points.  The optima sit on curved
    boundaries that axis-aligned grids straddle; projected candidates remove the
    misalignment noise so the located coefficients are grid-step accurate."""
    points: int = 1
    """Number P of stacked parameter points."""


@dataclass(frozen=True)
class SolveResult:
    lambda_star: tuple[float, ...]
    value: float
    certificate: np.ndarray | None
    """Objective at ``lambda_star`` over the problem's adversary rows (the
    box vertices for the case problems); None without an adversary."""


def _axis_grid(lo: float, hi: float, step: float) -> np.ndarray:
    n = round((hi - lo) / step)
    if abs(n * step - (hi - lo)) > 1e-9:
        raise ValueError(f"grid step must divide [{lo:g}, {hi:g}] into whole steps, got {step}")
    return np.linspace(lo, hi, max(1, n) + 1)


def _axes(lo: np.ndarray, hi: np.ndarray, n: np.ndarray) -> np.ndarray:
    """``_axis_grid`` per point, of ``n`` values each, as the rows of a (P, max n) array, bit for bit.

    ``np.linspace`` computes ``i * ((hi - lo) / (n - 1)) + lo`` and ends
    exactly at ``hi``; rows shorter than the longest repeat ``hi``.
    """
    i = np.arange(n.max(), dtype=float)
    rows = i * ((hi - lo) / (n - 1))[:, None] + lo[:, None]
    return np.where(i >= (n - 1)[:, None], hi[:, None], rows)


def _block(cols: list[np.ndarray], rows: slice) -> Block:
    """The product of per-point axes (P, n_i), axis i at block axis 1 + i."""
    k = len(cols)
    return Block(tuple(c.reshape(c.shape[:1] + (1,) * i + c.shape[1:] + (1,) * (k - i)) for i, c in enumerate(cols)), rows)


def _chunks(n: np.ndarray) -> list[slice]:
    """Runs of consecutive rows of axis lengths (P, k), as many as fit ``_BLOCK_CELLS`` padded cells and at least one.

    A run of ``r`` rows pads to ``r`` times the product of its running axis
    maxima, at least ``r`` times its first row's cells, so one
    ``np.maximum.accumulate`` over that many rows ahead finds where it ends.
    """
    chunks, start = [], 0
    while start < len(n):
        ahead = n[start : start + _BLOCK_CELLS // int(np.prod(n[start])) + 1]
        padded = np.arange(1, len(ahead) + 1) * np.maximum.accumulate(ahead).prod(axis=1)
        over = np.flatnonzero(padded[1:] > _BLOCK_CELLS)
        stop = start + (int(over[0]) + 1 if over.size else len(ahead))
        chunks.append(slice(start, stop))
        start = stop
    return chunks


def _evaluate(problem: MaximinProblem, block: Block) -> tuple[np.ndarray, np.ndarray]:
    """Worst-case and tie-break (mean) objective over a block, adversary axis kept as 1.

    A long adversary is taken in slices of at most ``_BLOCK_CELLS`` cells.
    """
    adversary = problem.adversary
    if adversary is None:
        vals = np.asarray(problem.objective(block, None), dtype=float)
        return vals, vals
    rows = max(1, _BLOCK_CELLS // len(block))
    worst, total = None, 0.0
    for start in range(0, len(adversary), rows):
        vals = np.asarray(problem.objective(block, adversary[start : start + rows]), dtype=float)
        low = vals.min(axis=-1, keepdims=True)
        worst = low if worst is None else np.minimum(worst, low)
        if problem.tie_point is None:
            total = total + vals.sum(axis=-1, keepdims=True)
    if problem.tie_point is None:
        return worst, total / len(adversary)
    return worst, np.asarray(problem.objective(block, problem.tie_point), dtype=float)


def _select(problem: MaximinProblem, blocks: list[Block], n: int):
    """The best feasible cell of each point over all blocks.

    Best is the highest worst case, then within ``_TIE_TOL`` the highest
    mean, then the lexicographically smallest coordinates: one masked
    minimum per coordinate over the cells still tied.  Returns (any
    feasible cell, (n, k) coordinates, worst case, mean) per point.
    """
    found = np.zeros(n, dtype=bool)
    scored = []
    for block in blocks:
        shape = block.shape
        mask = np.asarray(problem.feasible(block), dtype=bool)
        found |= mask.any(axis=tuple(range(1, len(shape))))
        worst, mean = _evaluate(problem, block)
        scored.append((block, np.where(mask, np.broadcast_to(worst, shape), -np.inf), mean))
    top = functools.reduce(np.maximum, [w.max(axis=tuple(range(1, w.ndim))) for _, w, _ in scored])
    # gather the cells within _TIE_TOL of their point's top worst case (usually a few)
    pid, worst, mean, coords = [], [], [], []
    for block, w, m in scored:
        flat = np.flatnonzero(w >= (top - _TIE_TOL).reshape((-1,) + (1,) * (w.ndim - 1)))
        cells = np.unravel_index(flat, w.shape)
        pid.append(cells[0])
        worst.append(w.ravel()[flat])
        mean.append(np.broadcast_to(m, block.shape)[cells])
        coords.append([np.broadcast_to(c, block.shape)[cells] for c in block.coords])
    pid, worst, mean = np.concatenate(pid), np.concatenate(worst), np.concatenate(mean)
    coords = [np.concatenate(c) for c in zip(*coords)]

    def per_point(reduce: np.ufunc, fill: float, values: np.ndarray) -> np.ndarray:
        out = np.full(n, fill)
        reduce.at(out, pid, values)
        return out[pid]

    tied = mean >= per_point(np.maximum, -np.inf, mean) - _TIE_TOL
    for c in coords:
        tied &= c == per_point(np.minimum, np.inf, np.where(tied, c, np.inf))
    pick = np.zeros(n, dtype=int)
    pick[pid[tied]] = np.flatnonzero(tied)  # tied cells of a point are the same coefficients
    return found, np.stack([c[pick] for c in coords], axis=1), worst[pick], mean[pick]


def solve_maximin(problem: MaximinProblem, resolution: float = 1e-3) -> list[SolveResult]:
    """Grid search with tenfold local refinement down to ``resolution``, by ``_chunks``; one result per stacked point.

    A free coordinate (index 2 on), and coordinate 1 when the problem has a ``boundary`` (see
    ``MaximinProblem``), is scored at the two ends of its window only.
    """
    if not 0 < resolution <= 1e-2:
        raise ValueError(f"resolution must lie in (0, 1e-2], got {resolution}")
    k, n = problem.n_params, problem.points
    lo, hi = np.zeros((n, k)), np.ones((n, k))
    step = 0.1
    incumbent: np.ndarray | None = None
    best_worst, best_mean = np.full(n, -np.inf), np.full(n, -np.inf)
    while True:
        found, lam, worst, mean = np.zeros(n, dtype=bool), np.zeros((n, k)), np.zeros(n), np.zeros(n)
        lengths = np.maximum(1, np.rint((hi - lo) / step).astype(int)) + 1
        # a free coordinate's best is at an end of its axis; coordinate 1's, at the boundary block
        free = 1 if problem.boundary is not None else 2
        lengths[:, free:] = np.minimum(lengths[:, free:], 2)
        cells = lengths.copy()  # per point, the axes of the cells a chunk scores: the grid block's,
        if problem.boundary is not None:
            cells[:, 1] += 1  # plus the boundary block's one value of coordinate 1 per column
        for rows in _chunks(cells):
            grid = _block([_axes(lo[rows, i], hi[rows, i], lengths[rows, i]) for i in range(k)], rows)
            blocks = [grid]
            if problem.boundary is not None:
                blocks.append(Block(grid.coords[:1] + (problem.boundary(grid),) + grid.coords[2:], rows))
            if incumbent is not None:
                inc = _block([c[:, None] for c in incumbent[rows].T], rows).coords
                if problem.boundary is not None:
                    inc = inc[:1] + (np.concatenate([inc[1], problem.boundary(Block(inc, rows))], axis=2),) + inc[2:]
                blocks.append(Block(inc, rows))
            found[rows], lam[rows], worst[rows], mean[rows] = _select(problem, blocks, rows.stop - rows.start)
        if incumbent is None:
            if not found.all():
                raise ValueError("empty feasible set")
            incumbent = lam
        better = found & ((worst > best_worst) | ((worst == best_worst) & (mean >= best_mean)))
        incumbent = np.where(better[:, None], lam, incumbent)
        best_worst = np.where(better, worst, best_worst)
        best_mean = np.where(better, mean, best_mean)
        if step <= resolution * (1 + 1e-9):
            break
        window = 1.6 * step
        step = max(step / 10.0, resolution)
        lo, hi = np.maximum(0.0, incumbent - window), np.minimum(1.0, incumbent + window)
    cert = None
    if problem.adversary is not None:
        vals = problem.objective(_block([c[:, None] for c in incumbent.T], slice(0, n)), problem.adversary)
        cert = np.broadcast_to(vals, (n,) + (1,) * k + (len(problem.adversary),)).reshape(n, len(problem.adversary))
    return [
        SolveResult(tuple(float(x) for x in incumbent[p]), float(best_worst[p]), None if cert is None else cert[p])
        for p in range(n)
    ]


# ---------------------------------------------------------------------------
# case objectives
# ---------------------------------------------------------------------------

def _grid_mean_point() -> tuple[float, float]:
    """(beta_c, eta_c): mean point of the ``ADVERSARY_STEP`` grid of the box.

    The objectives are affine in ``1 - beta^2`` and ``eta1``, so the mean
    point has ``beta_c^2 = mean(beta_i^2)`` and ``eta_c = mean(eta_i)``.
    """
    axis = _axis_grid(0.0, 1.0, ADVERSARY_STEP)
    return float(np.sqrt(np.mean(axis * axis))), float(np.mean(axis))


def _unknown_unknown_p(l1, l2, beta, eta1):
    return 0.5 * (l1 * eta1 + l2 * (1.0 - eta1)) * (1.0 - beta * beta)


def _bracket(l1, l2, l3, beta, eta1):
    """Overlap-normalized known/unknown objective: P / (1 - beta^2).

    The unnormalized average success probability is trivially minimized
    to zero by beta -> 1, so the worst case is taken of this bracket.
    """
    f = 1.0 - beta * beta
    return 0.5 * l1 * eta1 + l2 * (1.0 - eta1) + (l3 - l2) * f * (1.0 - eta1)


def _known_unknown_p(l1, l2, l3, beta, eta1):
    b2 = beta * beta
    f = 1.0 - b2
    return (0.5 * l1 * eta1 + l2 * b2 * (1.0 - eta1) + l3 * f * (1.0 - eta1)) * f


def _known_known_p(l1, l2, beta, eta1):
    return (l1 * eta1 + l2 * (1.0 - eta1)) * (1.0 - beta * beta)


def _n_params(case: KnowledgeCase) -> int:
    return 3 if case.family is Family.KNOWN_UNKNOWN else 2


def _problem_inputs(case: KnowledgeCase) -> tuple[str, ...]:
    """Names of the parameters a case's problem is posed at, in ``(beta, eta1)`` order.

    The decision's inputs, plus ``beta`` except for the beta-free A2/B2 brackets: every other
    objective carries ``beta`` as a fixed scale, so its solved value is the surface value there.
    """
    needs = case.decision_inputs if case.regime in (Regime.A2, Regime.B2) else case.decision_inputs | {"beta"}
    return tuple(name for name in ("beta", "eta1") if name in needs)


def case_problem(case: KnowledgeCase, beta=None, eta1=None) -> MaximinProblem:
    """Maximin problem for a case at the values of the inputs it is posed at.

    The regime enters only through ``_problem_inputs``: the problem takes
    those inputs (scalars, or equal-length 1-d arrays that stack one
    independent problem per entry, ``MaximinProblem.points``); of any other
    given one it uses only the length, and ``states.as_points`` checks that
    every given input lies in [0, 1].  Each hidden input, one it does not
    take, is left to the adversary: the adversary is the box vertices of the
    hidden inputs as ``(M, a)`` rows, the tie point the ``ADVERSARY_STEP``
    grid's mean point over them, and with nothing hidden there is neither.
    The family chooses only the objective (its success probability, or the
    ``_bracket`` for known/unknown with ``beta`` hidden); the feasibility
    predicate and the boundary projection are the case's
    ``strategies.REGIONS`` entry, the one ``feasible`` reads.
    ``verify_case`` compares the solved value with the closed form, except
    for the brackets, whose actual success probability it re-evaluates at
    the solved coefficients.
    """
    inputs = _problem_inputs(case)
    hidden = tuple(name for name in ("beta", "eta1") if name not in inputs)
    given = {"beta": beta, "eta1": eta1}
    if any(given[name] is None for name in inputs):
        raise ValueError(f"{case}: problem requires {list(inputs)}")
    betas, etas, _ = as_points(beta, eta1)
    k = _n_params(case)
    # one value per point, shaped to broadcast against a (P, n_0, ..., n_{k-1}, M) block
    fixed = {name: v.reshape((-1,) + (1,) * (k + 1)) for name, v in (("beta", betas), ("eta1", etas)) if name in inputs}
    at = lambda block: {name: v[block.rows] for name, v in fixed.items()}  # the block's points
    p = _bracket if "beta" in hidden else {  # beta is hidden only from the known/unknown A2/B2 brackets
        Family.UNKNOWN_UNKNOWN: _unknown_unknown_p, Family.KNOWN_UNKNOWN: _known_unknown_p, Family.KNOWN_KNOWN: _known_known_p,
    }[case.family]
    ok, boundary = strategies.REGIONS[case.family, case.dim]
    mean = dict(zip(("beta", "eta1"), _grid_mean_point()))
    return MaximinProblem(
        k,
        # the objective fills each hidden input from its adversary column
        lambda block, adv: p(*block.coords, **at(block), **{name: adv[:, i] for i, name in enumerate(hidden)}),
        # the predicate reads the (l0, l1) axes, broadcast to the block
        lambda block: np.broadcast_to(ok(*block.coords[:2], at(block).get("beta")), block.shape),
        adversary=np.array(list(itertools.product((0.0, 1.0), repeat=len(hidden)))) if hidden else None,
        tie_point=np.array([[mean[name] for name in hidden]]) if hidden else None,
        boundary=lambda block: boundary(block.coords[0], at(block).get("beta")),
        points=len(betas),
    )


@dataclass(frozen=True)
class VerifyReport:
    case: KnowledgeCase
    rows: tuple[tuple[float, float, float, float], ...]  # beta, eta1, closed, oracle
    max_deviation: float
    worst_point: tuple[float, float]

    def within(self, tol: float) -> bool:
        return self.max_deviation <= tol


def _check_solutions_psd(case: KnowledgeCase, pairs: StatePair, lambda_stars: np.ndarray) -> None:
    """Cross-module check: each row of the ``(P, k)`` solved coefficients assembles into PSD elements on its pair.

    ``pairs`` is a stacked pair, one row per solution.  The P measurements
    are built in stacks of consecutive rows (slices of both), as many as
    ``povm.stack_rows`` allows, and validated one by one, in row order;
    each stacked element is bitwise its lone build.  A stacked ``validate``
    would name the first failing row just as well (``PovmReport.check``),
    but ``perfbench/tracing._eigvalsh_name`` names a stacked eigensolve by
    its stack length, so it waits on that benchmark change (ROADMAP items
    1 and 2).  An empty stack builds nothing.
    """
    from .povm import MeasurementError, PovmSet, build_for_case, stack_rows, validate

    lams = strategies.symmetric_lambda(case, lambda_stars)
    rows = stack_rows(case)
    for start in range(0, len(lams), rows):
        stack = build_for_case(case, pairs[start : start + rows], lams[start : start + rows])
        for elements in zip(*stack.elements):
            try:
                validate(PovmSet(*elements)).check()
            except MeasurementError as exc:
                raise MeasurementError(f"oracle solution for {case}: {exc}") from exc


def verify_case(case: KnowledgeCase, grid_step: float = 0.05, resolution: float = 1e-3,
                perturb: float = 0.0, betas=None, etas=None) -> VerifyReport:
    """Compare the closed-form surface against the oracle over a (beta, eta1) grid.

    The problem is solved once per distinct value of its inputs
    (``_problem_inputs``), at the first grid point with that value, in one
    stacked solve.  Each distinct solution is checked to assemble into a
    measurement: a case's checks are built in stacked ``build_for_case``
    calls of consecutive rows under a cell cap (one call on the oracle
    workload's grids) and validated one measurement at a time, in order
    (``_check_solutions_psd`` says why); a failure names the first failing
    solution, and an empty grid builds nothing.  ``betas``/``etas``
    override the axes of the default square grid, laid out by
    ``states.grid_points``, which rejects a value outside [0, 1];
    ``perturb`` shifts the closed form (negative-control hook for the
    CLI's verify command).
    """
    axis = _axis_grid(0.0, 1.0, grid_step)
    beta_col, eta_col = grid_points(axis if betas is None else betas, axis if etas is None else etas)
    points = np.stack([beta_col, eta_col], axis=1)
    inputs = _problem_inputs(case)
    # distinct keys in row order: fewer padded cells per stacked solve than sorted keys
    first, solution = _first_rows(points[:, [("beta", "eta1").index(name) for name in inputs]])
    solved = points[first]
    results = solve_maximin(case_problem(case, beta=solved[:, 0], eta1=solved[:, 1]), resolution=resolution)
    lam = np.array([r.lambda_star for r in results]).reshape(-1, _n_params(case))
    if "beta" in inputs:
        oracle = np.array([r.value for r in results])[solution]
    else:  # the A2/B2 brackets are judged on the actual success probability of their decision
        oracle = _known_unknown_p(*lam[solution].T, points[:, 0], points[:, 1])
    # the check depends only on the pair's overlap and the solution; the distinct pairs are drawn in one call
    pair_beta = np.minimum(solved[:, 0], 0.99) if case.family is Family.KNOWN_KNOWN else np.zeros(len(solved))
    checks = np.column_stack([pair_beta, lam])
    checks = checks[_first_rows(checks)[0]]
    distinct, pair_of = _first_rows(checks[:, :1])
    overlaps = checks[distinct, 0]
    pairs = pair_with_overlap(case.dim, overlaps, np.full(len(overlaps), 0.5), seed=0)
    _check_solutions_psd(case, pairs[pair_of], checks[:, 1:])
    closed = strategies.case_surface(case)(beta_col, eta_col) + perturb
    dev = np.abs(closed - oracle)
    worst = (0.0, (0.0, 0.0))  # the first largest deviation, or the first NaN; none when all are 0
    if dev.size and dev.max() != 0.0:  # != rather than >: a NaN deviation must fail
        k = int(np.argmax(dev))
        worst = (float(dev[k]), tuple(points[k].tolist()))
    rows = tuple(zip(*points.T.tolist(), closed.tolist(), oracle.tolist()))
    return VerifyReport(case=case, rows=rows, max_deviation=worst[0], worst_point=worst[1])
