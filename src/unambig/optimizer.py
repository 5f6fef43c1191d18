"""Independent numerical maximin oracle for the closed-form strategies.

Each case is posed as: maximize, over feasible coefficient vectors, the
minimum of its objective over the adversary parameters (the unknown
overlap and/or prior).  Cases where everything relevant is known
degenerate to plain maximization (empty adversary).

Every case objective is multi-affine in the adversary coordinates
``(1 - beta^2, eta1)``, so its minimum over the unit box is reached at a
vertex (Boyd & Vandenberghe, *Convex Optimization*, 2004): the adversary
is the box's vertices, ``beta`` or ``eta1`` in ``{0, 1}`` (four corners
for B2), and the worst case equals the minimum over any product grid
that contains them.

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
materialized as rows.  Each pass evaluates three broadcast ``Block``s
per point, with coordinate i along axis 1 + i and a trailing adversary
axis:

* the product grid of the per-coefficient axes;
* the boundary block: the second coordinate set to the boundary
  projection of the first, an ``(n0, 1, n2)`` grid;
* the incumbent and its projection.

Refinement windows clipped at the box edges differ in length from point
to point; shorter axes are padded by repeating their last value, and a
duplicate cell changes neither the maximum, the tie filters nor the
lexicographically smallest pick.  Infeasible cells score ``-inf``.
Every family's feasibility predicate reads only the first two
coefficients, so it is evaluated on the ``(l0, l1)`` axes and broadcast.
``verify_case`` stacks all distinct decision inputs of a case, in
solves of at most ``_BLOCK_CELLS`` cells per block (a memory cap).

For qutrits the per-index symmetry of the closed-form strategies is
exploited: all index-1 coefficients equal, all index-2 coefficients
equal, the extra known/unknown block equal.  Under that reduction the
known/unknown objectives coincide with the qubit ones; the
unknown/unknown family uses the corrected simplex constraint (see
``strategies``).  ``full_dimension_value`` releases the symmetry on a
coarse grid as a cross-check.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .cases import Family, KnowledgeCase, Regime
from .states import StatePair, pair_with_overlap
from . import strategies

ADVERSARY_STEP = 0.01
_TIE_TOL = 1e-12
_AXIS_MAX = 33  # longest axis of a pass: a window of +-1.6 old steps at a tenth of the step
_BLOCK_CELLS = 1 << 17


class Block:
    """A broadcast block of candidate coefficient vectors.

    ``coords[i]`` is coordinate i; together they broadcast to ``shape``,
    ``(P, n_0, ..., n_{k-1}, 1)``, whose cells are the candidates, so
    ``len`` is the number of candidates (padded duplicates included).
    """

    __slots__ = ("coords", "shape")

    def __init__(self, coords: tuple[np.ndarray, ...]):
        self.coords = coords
        self.shape = np.broadcast_shapes(*(np.shape(c) for c in coords))

    def __len__(self) -> int:
        return math.prod(self.shape)


@dataclass(frozen=True)
class MaximinProblem:
    """Vectorized maximin problem over coefficients in the unit box.

    ``objective(block, adversary)`` receives a ``Block`` (coordinate i
    varies along axis 1 + i, or along axis 1 in a boundary block) and
    adversary rows (M,) or (M, a); it returns values broadcasting to the
    block's shape with M in its last axis, or 1 with ``adversary`` None.
    ``feasible(block)`` returns a boolean mask of the block's shape.  The
    worst case is the minimum over ``adversary`` (the box vertices for
    the case problems, or any grid).
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
    boundary: Callable[[np.ndarray], np.ndarray] | None = None
    """Optional projection from the first coordinate to the second one's
    exact feasibility boundary.  The optima sit on curved boundaries that
    axis-aligned grids straddle; projected candidates remove the resulting
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
    n = max(1, int(round((hi - lo) / step))) + 1
    return np.linspace(lo, hi, n)


def _axes(lo: np.ndarray, hi: np.ndarray, step: float) -> np.ndarray:
    """``_axis_grid`` per point as the rows of a (P, n) array, bit for bit.

    ``np.linspace`` computes ``i * ((hi - lo) / (n - 1)) + lo`` and ends
    exactly at ``hi``; rows shorter than the longest repeat ``hi``.
    """
    n = np.maximum(1, np.rint((hi - lo) / step).astype(int)) + 1
    i = np.arange(n.max(), dtype=float)
    rows = i * ((hi - lo) / (n - 1))[:, None] + lo[:, None]
    return np.where(i >= (n - 1)[:, None], hi[:, None], rows)


def _block(cols: list[np.ndarray]) -> Block:
    """The product of per-point axes (P, n_i), axis i at block axis 1 + i."""
    k = len(cols)
    return Block(tuple(c.reshape(c.shape[:1] + (1,) * i + c.shape[1:] + (1,) * (k - i)) for i, c in enumerate(cols)))


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
        cells = np.nonzero(w >= (top - _TIE_TOL).reshape((-1,) + (1,) * (w.ndim - 1)))
        pid.append(cells[0])
        worst.append(w[cells])
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
    """Grid search with tenfold local refinement down to ``resolution``; one result per stacked point."""
    if not 0 < resolution <= 1e-2:
        raise ValueError(f"resolution must lie in (0, 1e-2], got {resolution}")
    k, n = problem.n_params, problem.points
    lo, hi = np.zeros((n, k)), np.ones((n, k))
    step = 0.1
    incumbent: np.ndarray | None = None
    best_worst, best_mean = np.full(n, -np.inf), np.full(n, -np.inf)
    while True:
        grid = _block([_axes(lo[:, i], hi[:, i], step) for i in range(k)])
        blocks = [grid]
        if problem.boundary is not None:
            blocks.append(Block(grid.coords[:1] + (problem.boundary(grid.coords[0]),) + grid.coords[2:]))
        if incumbent is not None:
            inc = _block([c[:, None] for c in incumbent.T]).coords
            if problem.boundary is not None:
                inc = inc[:1] + (np.concatenate([inc[1], problem.boundary(inc[0])], axis=2),) + inc[2:]
            blocks.append(Block(inc))
        found, lam, worst, mean = _select(problem, blocks, n)
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
        vals = problem.objective(_block([c[:, None] for c in incumbent.T]), problem.adversary)
        cert = np.broadcast_to(vals, (n,) + (1,) * k + (len(problem.adversary),)).reshape(n, -1)
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


def _n_params(case: KnowledgeCase) -> int:
    return 3 if case.family is Family.KNOWN_UNKNOWN else 2


def case_problem(case: KnowledgeCase, beta=None, eta1=None) -> MaximinProblem:
    """Maximin problem for a case at its known parameter values.

    ``beta`` and ``eta1`` are scalars, or equal-length 1-d arrays that
    stack one independent problem per entry (``MaximinProblem.points``).
    Point cases (A1, A3, A4) fix all relevant parameters; the others
    take as adversary the box vertices of whatever the decision cannot
    see, and as tie point the mean point of the ``ADVERSARY_STEP`` grid.
    For the value comparison against a closed-form surface, point and
    worst-case-valued cases use the solved value directly, while A2/B2
    re-evaluate the actual success probability at the solved coefficients
    (see ``oracle_value``).
    """
    r = case.regime
    needs = set(case.decision_inputs)
    if r not in (Regime.A2, Regime.B2):
        needs.add("beta")  # fixed objective scale even when the decision ignores it
    given = {
        name: np.asarray(value, dtype=float) for name, value in (("beta", beta), ("eta1", eta1)) if value is not None
    }
    if not needs <= set(given):
        raise ValueError(f"{case}: problem requires {sorted(needs)}")
    shape = np.broadcast_shapes(*(v.shape for v in given.values()))
    k = _n_params(case)
    # one value per point, shaped to broadcast against a (P, n_0, ..., n_{k-1}, M) block
    beta, eta1 = (np.broadcast_to(given[name], shape).reshape((-1,) + (1,) * (k + 1)) if name in given else None
                  for name in ("beta", "eta1"))
    vertices = np.array([0.0, 1.0])
    beta_c, eta_c = _grid_mean_point()

    def problem(objective, predicate, boundary, **adversarial) -> MaximinProblem:
        # the objective sees the coordinates; the predicate reads the (l0, l1) axes, broadcast to the block
        return MaximinProblem(
            k,
            lambda block, adv: objective(*block.coords, adv),
            lambda block: np.broadcast_to(predicate(*block.coords[:2]), block.shape),
            boundary=boundary,
            points=math.prod(shape),
            **adversarial,
        )

    if case.family is Family.UNKNOWN_UNKNOWN:
        if case.dim == 2:
            feas = strategies.pair_program_ok
        else:  # corrected region, equal per-index coefficients
            feas = lambda l1, l2: strategies.totally_antisymmetric_ok(3.0 * l1, 3.0 * l2)
        bound = strategies.pair_program_boundary if case.dim == 2 else strategies.pair_program_boundary_qutrit
        f = 1.0 - beta * beta
        if r is Regime.A1:
            return problem(lambda l1, l2, _adv: 0.5 * (l1 * eta1 + l2 * (1.0 - eta1)) * f, feas, bound)
        return problem(
            lambda l1, l2, adv: 0.5 * (l1 * adv + l2 * (1.0 - adv)) * f, feas, bound,
            adversary=vertices, tie_point=np.array([eta_c]),
        )

    if case.family is Family.KNOWN_UNKNOWN:
        feas, bound = strategies.single_program_ok, strategies.single_program_boundary
        if r is Regime.A2:
            return problem(
                lambda l1, l2, l3, adv: _bracket(l1, l2, l3, adv, eta1), feas, bound,
                adversary=vertices, tie_point=np.array([beta_c]),
            )
        if r is Regime.A3:
            return problem(lambda l1, l2, l3, _adv: _known_unknown_p(l1, l2, l3, beta, eta1), feas, bound)
        if r is Regime.B2:
            return problem(
                lambda l1, l2, l3, adv: _bracket(l1, l2, l3, adv[:, 0], adv[:, 1]), feas, bound,
                adversary=np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]]),
                tie_point=np.array([[beta_c, eta_c]]),
            )
        # B3: overlap known, prior adversarial; full objective
        return problem(
            lambda l1, l2, l3, adv: _known_unknown_p(l1, l2, l3, beta, adv), feas, bound,
            adversary=vertices, tie_point=np.array([eta_c]),
        )

    # known/known
    f = 1.0 - beta * beta
    feas = lambda l1, l2: strategies.direct_ok(l1, l2, beta)
    bound = lambda l1: strategies.direct_boundary(l1, beta)
    if r is Regime.A4:
        return problem(lambda l1, l2, _adv: (l1 * eta1 + l2 * (1.0 - eta1)) * f, feas, bound)
    return problem(
        lambda l1, l2, adv: (l1 * adv + l2 * (1.0 - adv)) * f, feas, bound,
        adversary=vertices, tie_point=np.array([eta_c]),
    )


def _decision_key(case: KnowledgeCase, beta: float, eta1: float) -> tuple:
    """Distinct problems to solve per grid point; cache key for verify_case.

    A2/B2 solve beta-free normalized problems (their actual probability is
    re-evaluated per point); all other problems carry beta in the
    objective, so their solved value is specific to it.
    """
    r = case.regime
    if r is Regime.A2:
        return (eta1,)
    if r is Regime.B2:
        return ()
    if r in (Regime.A1, Regime.A3, Regime.A4):
        return (beta, eta1)
    return (beta,)


def oracle_value(case: KnowledgeCase, result: SolveResult, beta: float, eta1: float) -> float:
    """Map a solved problem to the value comparable with the case's surface.

    A2 and B2 optimize a worst-case bracket but are judged on the actual
    success probability of their fixed decision, so the solved
    coefficients are re-substituted; every other case's solved value is
    already the surface value.
    """
    if case.regime in (Regime.A2, Regime.B2):
        return float(_known_unknown_p(*result.lambda_star, beta, eta1))
    return result.value


@dataclass(frozen=True)
class VerifyReport:
    case: KnowledgeCase
    rows: tuple[tuple[float, float, float, float], ...]  # beta, eta1, closed, oracle
    max_deviation: float
    worst_point: tuple[float, float]

    def within(self, tol: float) -> bool:
        return self.max_deviation <= tol


def _check_solution_psd(case: KnowledgeCase, pair: StatePair, lambda_star: tuple[float, ...]) -> None:
    """Cross-module check: the solved coefficients assemble into PSD elements."""
    from .povm import build_for_case, validate

    report = validate(build_for_case(case, pair, strategies.symmetric_lambda(case, lambda_star)))
    if not all(report.psd_ok):
        raise AssertionError(
            f"oracle solution for {case} is not a measurement: min eigenvalues {report.min_eigenvalues}"
        )


def _solve_stacked(case: KnowledgeCase, points: np.ndarray, resolution: float) -> list[SolveResult]:
    """One result per (beta, eta1) row, stacked so that no grid block exceeds ``_BLOCK_CELLS`` cells.

    ``_evaluate`` slices the adversary to the same cap.
    """
    size = max(1, _BLOCK_CELLS // _AXIS_MAX ** _n_params(case))
    results = []
    for start in range(0, len(points), size):
        part = points[start : start + size]
        results += solve_maximin(case_problem(case, beta=part[:, 0], eta1=part[:, 1]), resolution=resolution)
    return results


def verify_case(case: KnowledgeCase, grid_step: float = 0.05, resolution: float = 1e-3,
                perturb: float = 0.0, betas=None, etas=None) -> VerifyReport:
    """Compare the closed-form surface against the oracle over a (beta, eta1) grid.

    Decisions are solved once per distinct decision input, in stacked
    solves, then evaluated across the grid; each distinct solution is
    checked to assemble into a measurement.  ``betas``/``etas`` override
    the default square grid; ``perturb`` shifts the closed form
    (negative-control hook for the CLI's verify command).
    """
    betas = _axis_grid(0.0, 1.0, grid_step) if betas is None else np.asarray(betas, dtype=float)
    etas = _axis_grid(0.0, 1.0, grid_step) if etas is None else np.asarray(etas, dtype=float)
    eta_grid, beta_grid = np.meshgrid(etas, betas, indexing="ij")  # row order: eta1-major, beta fastest
    grid = list(zip(beta_grid.ravel().tolist(), eta_grid.ravel().tolist()))
    first = {}  # decision key -> the grid point it is first solved at
    for beta, eta1 in grid:
        first.setdefault(_decision_key(case, beta, eta1), (beta, eta1))
    solved = dict(zip(first, _solve_stacked(case, np.array(list(first.values())), resolution)))
    # the check depends only on the pair's overlap and the solution; each pair is drawn once
    pairs: dict[float, StatePair] = {}
    checked = set()
    for key, (beta, _) in first.items():
        pair_beta = min(beta if case.family is Family.KNOWN_KNOWN else 0.0, 0.99)
        lambda_star = solved[key].lambda_star
        if (pair_beta, lambda_star) not in checked:
            checked.add((pair_beta, lambda_star))
            if pair_beta not in pairs:
                pairs[pair_beta] = pair_with_overlap(case.dim, pair_beta, 0.5, seed=0)
            _check_solution_psd(case, pairs[pair_beta], lambda_star)
    closed = (strategies.case_surface(case)(beta_grid, eta_grid) + perturb).ravel()
    oracle = np.array([oracle_value(case, solved[_decision_key(case, beta, eta1)], beta, eta1) for beta, eta1 in grid])
    dev = np.abs(closed - oracle)
    worst = (0.0, (0.0, 0.0))  # the first largest deviation; none when all are 0
    if dev.size and dev.max() > 0.0:
        k = int(np.argmax(dev))
        worst = (float(dev[k]), grid[k])
    rows = tuple((beta, eta1, c, o) for (beta, eta1), c, o in zip(grid, closed.tolist(), oracle.tolist()))
    return VerifyReport(case=case, rows=rows, max_deviation=worst[0], worst_point=worst[1])


# ---------------------------------------------------------------------------
# symmetry-released cross-checks
# ---------------------------------------------------------------------------

def full_dimension_value_known_unknown(pair: StatePair, eta1: float, step: float = 0.01) -> float:
    """Best average success probability over all 8 per-index qutrit coefficients.

    Exact weights |<b_i|psi2>|^2 are computed for the concrete pair; the
    objective is evaluated in closed form (no operator assembly).  The
    per-index blocks have independent constraints and separable
    objectives, so each 2-coefficient block is searched on its own
    boundary-projected grid.  Serves to confirm the symmetric optimum is
    not beaten when the weights are generic.
    """
    if pair.dim != 3:
        raise ValueError("full-dimension check is for qutrits")
    from .linalg import orthonormal_completion

    basis = orthonormal_completion(pair.psi1.vec)
    c = np.array([abs(np.vdot(basis[:, i], pair.psi2.vec)) ** 2 for i in (1, 2)])
    beta2 = abs(np.vdot(basis[:, 0], pair.psi2.vec)) ** 2
    axis = _axis_grid(0.0, 1.0, step)
    grid = np.stack([m.reshape(-1) for m in np.meshgrid(axis, axis, indexing="ij")], axis=1)
    grid = np.vstack([grid, np.stack([grid[:, 0], strategies.single_program_boundary(grid[:, 0])], axis=1)])
    grid = grid[strategies.single_program_ok(grid[:, 0], grid[:, 1])]
    best_pairs = []
    for ci in c:
        vals = eta1 * 0.5 * grid[:, 0] * ci + (1.0 - eta1) * beta2 * grid[:, 1] * ci
        best_pairs.append(vals.max())
    lam3_part = (1.0 - eta1) * (c[0] + c[1]) ** 2  # all lam3 = 1
    return float(sum(best_pairs) + lam3_part)


def full_dimension_value_unknown_unknown(pair: StatePair, eta1: float, step: float = 0.2,
                                         chunk: int = 2048) -> float:
    """Best average success probability over all 6 per-index qutrit coefficients.

    Feasibility is certified by eigenvalue checks of the assembled
    inconclusive element (the per-index constraints alone are not
    sufficient for this family).
    """
    if pair.dim != 3:
        raise ValueError("full-dimension check is for qutrits")
    from .povm import UNKNOWN_UNKNOWN_BLOCKS, input_states

    case = KnowledgeCase(Regime.A1, 3)
    in1, in2 = input_states(case, pair)
    stack1, stack2 = UNKNOWN_UNKNOWN_BLOCKS[3]
    w1 = [float(np.vdot(in1, b1 @ in1).real) for b1 in stack1]
    w2 = [float(np.vdot(in2, b2 @ in2).real) for b2 in stack2]
    axis = _axis_grid(0.0, 1.0, step)
    mesh = np.meshgrid(*([axis] * 6), indexing="ij")
    cand = np.stack([m.reshape(-1) for m in mesh], axis=1)
    ok = np.all([strategies.pair_program_ok(cand[:, i], cand[:, 3 + i]) for i in range(3)], axis=0)
    ok &= strategies.totally_antisymmetric_ok(cand[:, :3].sum(axis=1), cand[:, 3:].sum(axis=1))
    cand = cand[ok]
    best = -np.inf
    eye27 = np.eye(27)
    for start in range(0, cand.shape[0], chunk):
        block = cand[start : start + chunk]
        pi = np.tensordot(block[:, :3], stack1, axes=(1, 0)) + np.tensordot(block[:, 3:], stack2, axes=(1, 0))
        min_eig = np.linalg.eigvalsh(eye27[None, :, :] - pi)[:, 0]
        feas = min_eig >= -1e-9
        if not feas.any():
            continue
        vals = eta1 * block[feas, :3] @ np.array(w1) + (1.0 - eta1) * block[feas, 3:] @ np.array(w2)
        best = max(best, float(vals.max()))
    return best
