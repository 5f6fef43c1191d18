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

For qutrits the per-index symmetry of the closed-form strategies is
exploited: all index-1 coefficients equal, all index-2 coefficients
equal, the extra known/unknown block equal.  Under that reduction the
known/unknown objectives coincide with the qubit ones; the
unknown/unknown family uses the corrected simplex constraint (see
``strategies``).  ``full_dimension_value`` releases the symmetry on a
coarse grid as a cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .cases import Family, KnowledgeCase, Regime
from .states import StatePair
from . import strategies

ADVERSARY_STEP = 0.01
_TIE_TOL = 1e-12


@dataclass(frozen=True)
class MaximinProblem:
    """Vectorized maximin problem over coefficients in the unit box.

    ``objective(lams, adversary)`` receives an (N, k) coefficient block
    and (M,) or (M, a) adversary rows and returns (N, M); with
    ``adversary`` None it returns (N,).  ``feasible`` maps (N, k) to a
    boolean mask.  The worst case is the minimum over ``adversary``
    (the box vertices for the case problems, or any grid).
    """

    n_params: int
    objective: Callable[[np.ndarray, np.ndarray | None], np.ndarray]
    feasible: Callable[[np.ndarray], np.ndarray]
    adversary: np.ndarray | None = None
    tie_point: np.ndarray | None = None
    """One adversary row whose objective value breaks worst-case ties; the
    case problems put it at the mean point of the ``ADVERSARY_STEP`` grid,
    where a multi-affine objective equals its grid mean.  None breaks ties
    by the mean over ``adversary``."""
    boundary: Callable[[np.ndarray], np.ndarray] | None = None
    """Optional projection raising one coordinate to its exact feasibility
    boundary given the others.  The optima sit on curved boundaries that
    axis-aligned grids straddle; projected candidates remove the resulting
    misalignment noise so the located coefficients are grid-step accurate."""


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


def _evaluate(problem: MaximinProblem, cand: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Worst-case and tie-break (mean) objective per candidate row, chunked for memory."""
    if problem.adversary is None:
        vals = np.asarray(problem.objective(cand, None), dtype=float)
        return vals, vals
    m = problem.adversary.shape[0]
    chunk = max(1, (1 << 22) // max(m, 1))
    worst = np.empty(cand.shape[0])
    mean = np.empty(cand.shape[0])
    for start in range(0, cand.shape[0], chunk):
        rows = cand[start : start + chunk]
        block = np.asarray(problem.objective(rows, problem.adversary), dtype=float)
        worst[start : start + chunk] = block.min(axis=1)
        if problem.tie_point is None:
            mean[start : start + chunk] = block.mean(axis=1)
        else:
            mean[start : start + chunk] = np.asarray(problem.objective(rows, problem.tie_point), dtype=float)[:, 0]
    return worst, mean


def solve_maximin(problem: MaximinProblem, resolution: float = 1e-3) -> SolveResult:
    """Grid search with tenfold local refinement down to ``resolution``."""
    if not 0 < resolution <= 1e-2:
        raise ValueError(f"resolution must lie in (0, 1e-2], got {resolution}")
    k = problem.n_params
    step = 0.1
    incumbent: np.ndarray | None = None
    best = (-np.inf, -np.inf)
    while True:
        if incumbent is None:
            axes = [_axis_grid(0.0, 1.0, step) for _ in range(k)]
        else:
            window = 1.6 * prev_step
            axes = [
                _axis_grid(max(0.0, c - window), min(1.0, c + window), step)
                for c in incumbent
            ]
        mesh = np.meshgrid(*axes, indexing="ij")
        cand = np.stack([m.reshape(-1) for m in mesh], axis=1)
        if incumbent is not None:
            cand = np.vstack([cand, incumbent[None, :]])
        if problem.boundary is not None:
            cand = np.vstack([cand, problem.boundary(cand)])
        mask = np.asarray(problem.feasible(cand), dtype=bool)
        if not mask.any():
            if incumbent is None:
                raise ValueError("empty feasible set")
        else:
            cand = cand[mask]
            worst, mean = _evaluate(problem, cand)
            ties = np.flatnonzero(worst >= worst.max() - _TIE_TOL)
            ties = ties[mean[ties] >= mean[ties].max() - _TIE_TOL]
            pick = ties[np.lexsort(cand[ties].T[::-1])[0]]  # lexicographically smallest row
            cand_best = (float(worst[pick]), float(mean[pick]))
            if cand_best >= best:
                best = cand_best
                incumbent = cand[pick].copy()
        if step <= resolution * (1 + 1e-9):
            break
        prev_step = step
        step = max(step / 10.0, resolution)
    cert = None
    if problem.adversary is not None:
        cert = np.asarray(problem.objective(incumbent[None, :], problem.adversary), dtype=float)[0]
    return SolveResult(tuple(float(x) for x in incumbent), best[0], cert)


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


def _pair_program_boundary(l: np.ndarray) -> np.ndarray:
    out = l.copy()
    out[:, 1] = np.clip((1.0 - l[:, 0]) / (1.0 - 0.75 * l[:, 0]), 0.0, 1.0)
    return out


def _pair_program_boundary_qutrit(l: np.ndarray) -> np.ndarray:
    out = l.copy()
    out[:, 1] = np.clip(1.0 - l[:, 0], 0.0, 1.0)
    return out


def _single_program_boundary(l: np.ndarray) -> np.ndarray:
    out = l.copy()
    out[:, 1] = np.clip((1.0 - l[:, 0]) / (1.0 - 0.5 * l[:, 0]), 0.0, 1.0)
    return out


def _direct_boundary(beta: float) -> Callable[[np.ndarray], np.ndarray]:
    b2 = beta * beta

    def project(l: np.ndarray) -> np.ndarray:
        out = l.copy()
        l1 = l[:, 0]
        with np.errstate(divide="ignore"):
            from_sum = np.where(b2 > 0.0, (1.0 - l1) / max(b2, 1e-300), np.inf)
        from_det = (1.0 - l1) / np.maximum(1.0 - (1.0 - b2) * l1, 1e-15)
        out[:, 1] = np.clip(np.minimum(from_sum, from_det), 0.0, 1.0)
        return out

    return project


def _bracket(l: np.ndarray, beta: np.ndarray, eta1: np.ndarray) -> np.ndarray:
    """Overlap-normalized known/unknown objective: P / (1 - beta^2).

    The unnormalized average success probability is trivially minimized
    to zero by beta -> 1, so the worst case is taken of this bracket.
    """
    l1, l2, l3 = l[:, 0:1], l[:, 1:2], l[:, 2:3]
    f = 1.0 - beta * beta
    return 0.5 * l1 * eta1 + l2 * (1.0 - eta1) + (l3 - l2) * f * (1.0 - eta1)


def _known_unknown_p(l: np.ndarray, beta: np.ndarray, eta1: np.ndarray) -> np.ndarray:
    l1, l2, l3 = l[:, 0:1], l[:, 1:2], l[:, 2:3]
    b2 = beta * beta
    f = 1.0 - b2
    return (0.5 * l1 * eta1 + l2 * b2 * (1.0 - eta1) + l3 * f * (1.0 - eta1)) * f


def case_problem(case: KnowledgeCase, beta: float | None = None, eta1: float | None = None) -> MaximinProblem:
    """Maximin problem for a case at its known parameter values.

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
    given = {name for name, value in (("beta", beta), ("eta1", eta1)) if value is not None}
    if not needs <= given:
        raise ValueError(f"{case}: problem requires {sorted(needs)}")
    vertices = np.array([0.0, 1.0])
    beta_c, eta_c = _grid_mean_point()

    if case.family is Family.UNKNOWN_UNKNOWN:
        if case.dim == 2:
            feas = lambda l: strategies.pair_program_ok(l[:, 0], l[:, 1])
        else:  # corrected region, equal per-index coefficients
            feas = lambda l: strategies.totally_antisymmetric_ok(3.0 * l[:, 0], 3.0 * l[:, 1])
        bound = _pair_program_boundary if case.dim == 2 else _pair_program_boundary_qutrit
        f = 1.0 - beta * beta
        if r is Regime.A1:
            return MaximinProblem(
                2,
                lambda l, _adv, eta=eta1, f=f: 0.5 * (l[:, 0] * eta + l[:, 1] * (1.0 - eta)) * f,
                feas,
                boundary=bound,
            )
        return MaximinProblem(
            2,
            lambda l, adv, f=f: 0.5 * (l[:, 0:1] * adv[None, :] + l[:, 1:2] * (1.0 - adv[None, :])) * f,
            feas,
            adversary=vertices,
            tie_point=np.array([eta_c]),
            boundary=bound,
        )

    if case.family is Family.KNOWN_UNKNOWN:
        feas3 = lambda l: strategies.single_program_ok(l[:, 0], l[:, 1])
        if r is Regime.A2:
            return MaximinProblem(
                3,
                lambda l, adv, eta=eta1: _bracket(l, adv[None, :], eta),
                feas3,
                adversary=vertices,
                tie_point=np.array([beta_c]),
                boundary=_single_program_boundary,
            )
        if r is Regime.A3:
            return MaximinProblem(
                3,
                lambda l, _adv, b=beta, eta=eta1: _known_unknown_p(l, np.array([[b]]), eta)[:, 0],
                feas3,
                boundary=_single_program_boundary,
            )
        if r is Regime.B2:
            return MaximinProblem(
                3,
                lambda l, adv: _bracket(l, adv[None, :, 0], adv[None, :, 1]),
                feas3,
                adversary=np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]]),
                tie_point=np.array([[beta_c, eta_c]]),
                boundary=_single_program_boundary,
            )
        # B3: overlap known, prior adversarial; full objective
        return MaximinProblem(
            3,
            lambda l, adv, b=beta: _known_unknown_p(l, np.array([[b]]), adv[None, :]),
            feas3,
            adversary=vertices,
            tie_point=np.array([eta_c]),
            boundary=_single_program_boundary,
        )

    # known/known
    f = 1.0 - beta * beta
    feas = lambda l, b=beta: strategies.direct_ok(l[:, 0], l[:, 1], b)
    bound = _direct_boundary(beta)
    if r is Regime.A4:
        return MaximinProblem(
            2,
            lambda l, _adv, eta=eta1, f=f: (l[:, 0] * eta + l[:, 1] * (1.0 - eta)) * f,
            feas,
            boundary=bound,
        )
    return MaximinProblem(
        2,
        lambda l, adv, f=f: (l[:, 0:1] * adv[None, :] + l[:, 1:2] * (1.0 - adv[None, :])) * f,
        feas,
        adversary=vertices,
        tie_point=np.array([eta_c]),
        boundary=bound,
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
        l = np.asarray(result.lambda_star)[None, :]
        return float(_known_unknown_p(l, np.array([[beta]]), eta1)[0, 0])
    return result.value


@dataclass(frozen=True)
class VerifyReport:
    case: KnowledgeCase
    rows: tuple[tuple[float, float, float, float], ...]  # beta, eta1, closed, oracle
    max_deviation: float
    worst_point: tuple[float, float]

    def within(self, tol: float) -> bool:
        return self.max_deviation <= tol


def _check_solution_psd(case: KnowledgeCase, result: SolveResult, beta: float) -> None:
    """Cross-module check: the solved coefficients assemble into PSD elements."""
    from .povm import build_for_case, validate
    from .states import pair_with_overlap

    pair_beta = beta if case.family is Family.KNOWN_KNOWN else 0.0
    pair = pair_with_overlap(case.dim, min(pair_beta, 0.99), 0.5, seed=0)
    report = validate(build_for_case(case, pair, strategies.symmetric_lambda(case, result.lambda_star)))
    if not all(report.psd_ok):
        raise AssertionError(
            f"oracle solution for {case} is not a measurement: min eigenvalues {report.min_eigenvalues}"
        )


def verify_case(case: KnowledgeCase, grid_step: float = 0.05, resolution: float = 1e-3,
                perturb: float = 0.0, betas=None, etas=None) -> VerifyReport:
    """Compare the closed-form surface against the oracle over a (beta, eta1) grid.

    Decisions are solved once per distinct decision input, then evaluated
    across the grid.  ``betas``/``etas`` override the default square grid;
    ``perturb`` shifts the closed form (negative-control hook for the
    CLI's verify command).
    """
    betas = _axis_grid(0.0, 1.0, grid_step) if betas is None else np.asarray(betas, dtype=float)
    etas = _axis_grid(0.0, 1.0, grid_step) if etas is None else np.asarray(etas, dtype=float)
    surface = strategies.case_surface(case)
    solved: dict[tuple, SolveResult] = {}
    rows = []
    worst = (0.0, (0.0, 0.0))
    for eta1 in etas:
        for beta in betas:
            key = _decision_key(case, float(beta), float(eta1))
            if key not in solved:
                solved[key] = solve_maximin(
                    case_problem(case, beta=float(beta), eta1=float(eta1)), resolution=resolution
                )
                _check_solution_psd(case, solved[key], float(beta))
            oracle = oracle_value(case, solved[key], float(beta), float(eta1))
            closed = surface(float(beta), float(eta1)) + perturb
            dev = abs(closed - oracle)
            rows.append((float(beta), float(eta1), float(closed), float(oracle)))
            if dev > worst[0]:
                worst = (dev, (float(beta), float(eta1)))
    return VerifyReport(case=case, rows=tuple(rows), max_deviation=worst[0], worst_point=worst[1])


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
    grid = np.vstack([grid, _single_program_boundary(grid)])
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
    from .povm import input_states, antisymmetric_state
    from .linalg import kron, projector

    case = KnowledgeCase(Regime.A1, 3)
    in1, in2 = input_states(case, pair)
    eye = np.eye(3)
    pairs_idx = ((0, 1), (0, 2), (1, 2))
    blocks1, blocks2, w1, w2 = [], [], [], []
    for m, n in pairs_idx:
        p_as = projector(antisymmetric_state(eye[m], eye[n]))
        b1, b2 = kron(eye, p_as), kron(p_as, eye)
        blocks1.append(b1)
        blocks2.append(b2)
        w1.append(float(np.vdot(in1, b1 @ in1).real))
        w2.append(float(np.vdot(in2, b2 @ in2).real))
    axis = _axis_grid(0.0, 1.0, step)
    mesh = np.meshgrid(*([axis] * 6), indexing="ij")
    cand = np.stack([m.reshape(-1) for m in mesh], axis=1)
    ok = np.all([strategies.pair_program_ok(cand[:, i], cand[:, 3 + i]) for i in range(3)], axis=0)
    ok &= strategies.totally_antisymmetric_ok(cand[:, :3].sum(axis=1), cand[:, 3:].sum(axis=1))
    cand = cand[ok]
    stack1 = np.stack(blocks1)
    stack2 = np.stack(blocks2)
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
