import dataclasses
import math

import numpy as np
import pytest

from unambig.cases import ALL_REGIMES, KnowledgeCase, Regime
from unambig import optimizer as opt
from unambig import strategies as st
from unambig.states import pair_with_overlap

SQRT5 = math.sqrt(5.0)


def test_b1_equalizer_recovered():
    res = opt.solve_maximin(opt.case_problem(KnowledgeCase(Regime.B1, 2), beta=0.0))[0]
    assert res.lambda_star == pytest.approx((2 / 3, 2 / 3), abs=2e-3)
    assert res.value == pytest.approx(1 / 3, abs=2e-3)
    assert res.certificate is not None and res.certificate.shape == (2,)
    # the equalizer makes every prior equally bad
    assert np.ptp(res.certificate) <= 2e-3


EDGE_BETAS = (0.0, 1 / math.sqrt(2), 1.0)
ADVERSARIAL = (Regime.A2, Regime.B1, Regime.B2, Regime.B3, Regime.B4)


def _adversarial_problems(case):
    """The case's problems at edge values of its inputs (beta where the problem takes it)."""
    if case.regime is Regime.B2:
        return [opt.case_problem(case)]
    if case.regime is Regime.A2:
        return [opt.case_problem(case, eta1=eta1) for eta1 in (0.0, 0.5, 1.0)]
    return [opt.case_problem(case, beta=beta) for beta in EDGE_BETAS]


def _dense(problem):
    """The same problem over the full ADVERSARY_STEP grid, tie-broken by the grid mean."""
    axis = opt._axis_grid(0.0, 1.0, opt.ADVERSARY_STEP)
    grid = axis
    if problem.adversary.ndim == 2:
        grid = np.stack([m.reshape(-1) for m in np.meshgrid(axis, axis, indexing="ij")], axis=1)
    return dataclasses.replace(problem, adversary=grid, tie_point=None)


@pytest.mark.parametrize("dim", (2, 3))
@pytest.mark.parametrize("regime", ADVERSARIAL, ids=lambda r: r.value)
def test_vertex_adversary_matches_dense_grid(regime, dim):
    # the worst case of a multi-affine objective sits on a box vertex and its
    # grid mean is its value at the grid's mean point; interior grid points
    # may round up to one ulp below the vertices where the objective is flat
    axis = opt._axis_grid(0.0, 1.0, 0.1)
    for problem in _adversarial_problems(KnowledgeCase(regime, dim)):
        dense = _dense(problem)
        grid = opt._block([axis[None, :]] * problem.n_params)
        boundary = opt.Block(grid.coords[:1] + (problem.boundary(grid.coords[0]),) + grid.coords[2:])
        for lams in (grid, boundary):
            scores = opt._evaluate(problem, lams) + opt._evaluate(dense, lams)
            feasible = np.broadcast_to(problem.feasible(lams), scores[0].shape)
            worst, mean, worst_dense, mean_dense = (np.broadcast_to(a, feasible.shape)[feasible] for a in scores)
            assert np.all(worst_dense <= worst)
            np.testing.assert_allclose(worst, worst_dense, rtol=0.0, atol=1e-15)
            np.testing.assert_allclose(mean, mean_dense, rtol=0.0, atol=1e-12)
        if regime is not Regime.B2:  # a dense B2 solve takes seconds
            (res,), (res_dense,) = opt.solve_maximin(problem), opt.solve_maximin(dense)
            assert res.lambda_star == res_dense.lambda_star
            assert res.value == res_dense.value


def test_block_len_and_feasibility_mask_are_per_candidate_cell():
    problem = opt.case_problem(KnowledgeCase(Regime.A3, 2), beta=[0.3, 0.6], eta1=[0.5, 0.5])
    block = opt._block([np.tile(opt._axis_grid(0.0, 1.0, 0.1), (2, 1))] * 3)
    assert len(block) == 2 * 11**3
    assert problem.feasible(block).shape == block.shape == (2, 11, 11, 11, 1)


def _stack_points(regime):
    """25 seeded random (beta, eta1) points, the box edges, and the case's branch thresholds."""
    points = [tuple(p) for p in np.random.default_rng(11).random((25, 2))]
    points += [(beta, eta1) for beta in EDGE_BETAS for eta1 in (0.0, 1.0)]
    for beta in (0.3, 0.6, 0.9):
        b2 = beta * beta
        upper = 4 * b2 / (1 + 4 * b2) if regime is Regime.A3 else 1 / (1 + b2)
        points += [(beta, b2 / (1 + b2)), (beta, upper)]
    return np.array(points)


def _fields(results):
    return [(r.lambda_star, r.value, None if r.certificate is None else tuple(r.certificate)) for r in results]


@pytest.mark.parametrize("regime, dim", ((Regime.A3, 2), (Regime.A4, 3)), ids=("a3-2", "a4-3"))
def test_stacked_solves_match_single_points(regime, dim):
    # points are independent: stacking them, one at a time or in odd chunks whose
    # windows pad differently, gives bitwise the same solutions
    case = KnowledgeCase(regime, dim)
    points = _stack_points(regime)
    single = _fields([opt.solve_maximin(opt.case_problem(case, beta=b, eta1=e))[0] for b, e in points])
    assert _fields(opt.solve_maximin(opt.case_problem(case, beta=points[:, 0], eta1=points[:, 1]))) == single
    for size in (3, 7):
        chunked = []
        for start in range(0, len(points), size):
            part = points[start : start + size]
            chunked += opt.solve_maximin(opt.case_problem(case, beta=part[:, 0], eta1=part[:, 1]))
        assert _fields(chunked) == single


# (case, dim, beta, eta1, lambda_star, value) as found by the one-point-per-solve
# search over (N, k) candidate rows, before solves were stacked
GOLDEN = (
    ("a1", 2, 0.3, 0.6, (0.789, 0.5168401714635639), 0.3094619112063686),
    ("a1", 3, 0.5, 0.25, (0.0, 1.0), 0.28125),
    ("a2", 2, None, 0.65, (0.532, 0.6376021798365122, 1.0), 0.39606076294277925),
    ("a2", 3, None, 0.2, (0.0, 1.0, 1.0), 0.8),
    ("a3", 2, 0.6, 0.5, (0.8, 0.33333333333333326, 1.0), 0.37120000000000003),
    ("a3", 3, 0.45, 0.8, (1.0, 0.0, 1.0), 0.44620125),
    ("a4", 2, 0.5, 0.3, (0.31500000000000006, 0.8968903436988543), 0.5417424304418985),
    ("a4", 3, 0.7071067811865475, 0.9, (1.0, 0.0), 0.4500000000000001),
    ("b1", 2, 0.2, None, (0.667, 0.6663331665832917), 0.31983991995998),
    ("b1", 3, 0.4, None, (0.5, 0.5), 0.21),
    ("b2", 2, None, None, (0.764, 0.38187702265372164, 1.0), 0.38187702265372164),
    ("b3", 2, 0.55, None, (1.0, 0.0, 1.0), 0.34875),
    ("b4", 2, 0.35, None, (0.7410000000000001, 0.7404813128533547), 0.6497723520288188),
    ("b4", 3, 0.8, None, (0.556, 0.5551110222044408), 0.1998399679935986),
    # flat or degenerate objectives, where the lexicographic tie-break decides
    ("a3", 2, 1.0, 0.4, (0.0, 0.0, 0.0), 0.0),
    ("b1", 2, 1.0, None, (0.0, 0.0), 0.0),
    ("a2", 2, None, 1.0, (1.0, 0.0, 0.0), 0.5),
)


@pytest.mark.parametrize("case, dim, beta, eta1, lambda_star, value", GOLDEN,
                         ids=[f"{g[0]}-{g[1]}-{i}" for i, g in enumerate(GOLDEN)])
def test_golden_solutions(case, dim, beta, eta1, lambda_star, value):
    res = opt.solve_maximin(opt.case_problem(KnowledgeCase(Regime(case), dim), beta=beta, eta1=eta1))[0]
    assert res.lambda_star == lambda_star
    assert res.value == value


@pytest.mark.parametrize("dim", (2, 3))
@pytest.mark.parametrize("regime", ALL_REGIMES, ids=lambda r: r.value)
def test_verify_edge_points(regime, dim):
    rep = opt.verify_case(KnowledgeCase(regime, dim), betas=EDGE_BETAS, etas=(0.0, 0.5, 1.0))
    assert rep.within(2 * 1e-3)


def test_b2_equalizer_and_free_third_coefficient():
    # the third coefficient is left free by the worst case; the oracle must
    # still recover 1 (it dominates at every non-worst adversary point)
    res = opt.solve_maximin(opt.case_problem(KnowledgeCase(Regime.B2, 2)))[0]
    assert res.value == pytest.approx((3 - SQRT5) / 2, abs=2e-3)
    assert res.lambda_star[2] == pytest.approx(1.0, abs=1e-6)
    assert res.lambda_star == pytest.approx((3 - SQRT5, (3 - SQRT5) / 2, 1.0), abs=5e-3)


def test_a4_point_problem():
    res = opt.solve_maximin(opt.case_problem(KnowledgeCase(Regime.A4, 2), beta=0.5, eta1=0.5))[0]
    assert res.value == pytest.approx(0.5, abs=2e-3)


def test_a2_recovers_closed_form_actions():
    case = KnowledgeCase(Regime.A2, 2)
    for eta1 in (0.3, 0.65, 0.9):
        res = opt.solve_maximin(opt.case_problem(case, eta1=eta1))[0]
        closed = st.optimal_lambda(case, eta1=eta1)
        assert res.lambda_star == pytest.approx(closed.flat, abs=5e-3)


def test_verify_a1_row_at_fixed_overlap():
    rep = opt.verify_case(KnowledgeCase(Regime.A1, 2), betas=[0.4], etas=np.arange(0, 1.0001, 0.05))
    assert rep.max_deviation <= 2e-3


def test_verify_b4_over_overlap():
    rep = opt.verify_case(KnowledgeCase(Regime.B4, 2), betas=np.arange(0, 1.0001, 0.05), etas=[0.0])
    assert rep.max_deviation <= 2e-3
    for beta, _, closed, _ in rep.rows:
        assert closed == pytest.approx(1.0 - beta, abs=1e-12)


def test_verify_worst_point_is_the_first_largest_deviation():
    rep = opt.verify_case(KnowledgeCase(Regime.A3, 2), grid_step=0.25)
    devs = [abs(closed - oracle) for _, _, closed, oracle in rep.rows]
    k = devs.index(max(devs))
    assert devs[k] > 0 and (rep.max_deviation, rep.worst_point) == (devs[k], rep.rows[k][:2])
    assert all(type(x) is float for row in rep.rows for x in row)
    empty = opt.verify_case(KnowledgeCase(Regime.A4, 2), betas=[], etas=[0.5])
    assert empty.rows == () and (empty.max_deviation, empty.worst_point) == (0.0, (0.0, 0.0))

def test_a3_branch_thresholds_located():
    # the solved first coefficient turns on within one grid step of the
    # closed-form lower threshold and saturates near the upper one
    case = KnowledgeCase(Regime.A3, 2)
    beta = 0.6
    t1 = beta**2 / (1 + beta**2)
    t2 = 4 * beta**2 / (1 + 4 * beta**2)
    etas = np.arange(0.05, 1.0, 0.05)
    lam1 = []
    for eta1 in etas:
        res = opt.solve_maximin(opt.case_problem(case, beta=beta, eta1=float(eta1)))[0]
        lam1.append(res.lambda_star[0])
    lam1 = np.array(lam1)
    switched_on = etas[np.flatnonzero(lam1 > 5e-3)[0]]
    saturated = etas[np.flatnonzero(lam1 > 1 - 5e-3)[0]]
    assert abs(switched_on - t1) <= 0.05 + 1e-9
    assert abs(saturated - t2) <= 0.05 + 1e-9


def test_oracle_brackets_closed_form_both_ways():
    # the closed form is feasible (oracle can't fall below it) and optimal
    # (oracle can't exceed it), up to search resolution
    case = KnowledgeCase(Regime.A3, 2)
    for beta, eta1 in ((0.3, 0.2), (0.6, 0.5), (0.9, 0.8)):
        res = opt.solve_maximin(opt.case_problem(case, beta=beta, eta1=eta1))[0]
        closed = st.p1plus_opt(beta, eta1)
        assert res.value <= closed + 1e-6
        assert res.value >= closed - 2e-3


def test_empty_feasible_set():
    problem = opt.MaximinProblem(
        n_params=1,
        objective=lambda l, adv: l.coords[0],
        feasible=lambda l: np.zeros(l.shape, dtype=bool),
    )
    with pytest.raises(ValueError, match="empty feasible set"):
        opt.solve_maximin(problem)


def test_resolution_validation():
    with pytest.raises(ValueError, match="resolution"):
        opt.solve_maximin(opt.case_problem(KnowledgeCase(Regime.B4, 2), beta=0.5), resolution=0.5)


def test_qutrit_pair_program_oracle_uses_corrected_region():
    res = opt.solve_maximin(opt.case_problem(KnowledgeCase(Regime.B1, 3), beta=0.0))[0]
    assert res.lambda_star == pytest.approx((0.5, 0.5), abs=2e-3)
    assert res.value == pytest.approx(0.25, abs=2e-3)
    res = opt.solve_maximin(opt.case_problem(KnowledgeCase(Regime.A1, 3), beta=0.0, eta1=0.8))[0]
    assert res.value == pytest.approx(0.4, abs=2e-3)


def test_full_dimension_known_unknown_matches_symmetric():
    # releasing the per-index symmetry does not beat the symmetric optimum
    pair = pair_with_overlap(3, 0.55, 0.5, seed=31)
    for eta1 in (0.2, 0.5, 0.8):
        full = opt.full_dimension_value_known_unknown(pair, eta1)
        sym = st.p1plus_opt(pair.beta, eta1)
        assert full <= sym + 1e-9
        assert full >= sym - 2e-3


def test_full_dimension_pair_program_gap_reported():
    # with the orientation known, unequal per-index coefficients may win;
    # the symmetric value is never beaten by less than -tol from above
    pair = pair_with_overlap(3, 0.4, 0.5, seed=32)
    full = opt.full_dimension_value_unknown_unknown(pair, 0.5, step=0.25)
    sym = st.success_probability(KnowledgeCase(Regime.A1, 3), 0.4, 0.5).p_analytic
    assert full >= sym - 2e-3
    print(f"unknown/unknown symmetric {sym:.4f} vs orientation-aware {full:.4f} (gap {full - sym:+.4f})")
