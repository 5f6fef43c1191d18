import dataclasses
import hashlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as hs

from unambig.cases import ALL_REGIMES, Family, KnowledgeCase, Regime
from unambig import cli, optimizer as opt, povm
from unambig import strategies as st
from unambig.linalg import orthonormal_completion
from unambig.povm import UNKNOWN_UNKNOWN_BLOCKS, input_states
from unambig.states import PARALLEL_OVERLAP, StatePair, pair_with_overlap

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
    grid = axis[:, None]
    if problem.adversary.shape[1] == 2:
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
        grid = opt._block([axis[None, :]] * problem.n_params, slice(0, 1))
        boundary = opt.Block(grid.coords[:1] + (problem.boundary(grid),) + grid.coords[2:], grid.rows)
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


FREE_AXIS = (Regime.A2, Regime.A3, Regime.B2, Regime.B3)  # the three-coefficient case problems
FREE_AXIS_EDGES = [(beta, eta1) for beta in EDGE_BETAS for eta1 in (0.0, 1.0)]
SECOND_AXIS_EDGES = [(beta, eta1) for beta in (0.0, 1e-9, 1 / math.sqrt(2), 1 - 1e-12, 1.0) for eta1 in (0.0, 0.5, 1.0)]


def _axis_problem_and_blocks(regime, dim, edges, seed, index, values):
    """A case problem stacked over ``edges`` and ten seeded random points, with its 11-point grid
    block, coordinate ``index`` holding ``values``, and the boundary block of that grid."""
    points = np.vstack([edges, np.random.default_rng(seed).random((10, 2))])
    problem = opt.case_problem(KnowledgeCase(regime, dim), beta=points[:, 0], eta1=points[:, 1])
    cols = [np.tile(opt._axis_grid(0.0, 1.0, 0.1), (len(points), 1))] * problem.n_params
    cols[index] = np.tile(values, (len(points), 1))
    grid = opt._block(cols, slice(0, len(points)))
    boundary = opt.Block(grid.coords[:1] + (problem.boundary(grid),) + grid.coords[2:], grid.rows)
    return problem, [grid, boundary]


def _free_axis_problem_and_blocks(regime, dim, third):
    return _axis_problem_and_blocks(regime, dim, FREE_AXIS_EDGES, 12, 2, third)


@pytest.mark.parametrize("dim", (2, 3))
@pytest.mark.parametrize("regime", FREE_AXIS, ids=lambda r: r.value)
def test_objectives_are_nondecreasing_along_the_free_axis(regime, dim):
    # the premise of scoring only the ends of the third axis: the worst case and the
    # tie-break value never decrease along it, exactly, in the grid and the boundary block
    problem, blocks = _free_axis_problem_and_blocks(regime, dim, opt._axis_grid(0.0, 1.0, 0.1))
    for block in blocks:
        assert block.shape[3] == 11
        for values in opt._evaluate(problem, block):
            assert np.all(np.diff(np.broadcast_to(values, block.shape), axis=3) >= 0)


@pytest.mark.parametrize("dim", (2, 3))
@pytest.mark.parametrize("regime", FREE_AXIS, ids=lambda r: r.value)
def test_select_over_the_free_axis_ends_matches_the_full_axis(regime, dim):
    axis = opt._axis_grid(0.0, 1.0, 0.1)
    full, ends = (_free_axis_problem_and_blocks(regime, dim, third) for third in (axis, axis[[0, -1]]))
    picks = [opt._select(problem, blocks, blocks[0].shape[0]) for problem, blocks in (full, ends)]
    for a, b in zip(*picks):
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("dim", (2, 3))
def test_free_axis_near_tie_picks_the_upper_end(dim):
    # where the third coefficient moves the objective by less than _TIE_TOL, a full axis
    # picked its smallest tied value (0.1, value 0.4999999999996); its upper end scores higher
    res = opt.solve_maximin(opt.case_problem(KnowledgeCase(Regime.A3, dim), beta=0.0, eta1=1 - 1e-12))[0]
    assert res.lambda_star[2] == 1.0
    assert res.value >= 0.4999999999996


@pytest.mark.parametrize("dim", (2, 3))
@pytest.mark.parametrize("regime", ALL_REGIMES, ids=lambda r: r.value)
def test_case_problem_and_feasible_read_one_region(regime, dim):
    # the oracle's predicate is strategies.feasible's region, cell by cell, on a 0.05 (l1, l2)
    # grid and its boundary projection at the beta edges and seeded betas (the free l3 at 1)
    case = KnowledgeCase(regime, dim)
    betas = np.concatenate([[0.0, 1 / math.sqrt(2), 1.0], np.random.default_rng(31).random(3)])
    problem = opt.case_problem(case, beta=betas, eta1=np.full(len(betas), 0.5))
    axis = np.tile(opt._axis_grid(0.0, 1.0, 0.05), (len(betas), 1))
    grid = opt._block([axis, axis] + [np.ones((len(betas), 1))] * (problem.n_params - 2), slice(0, len(betas)))
    boundary = opt.Block(grid.coords[:1] + (problem.boundary(grid),) + grid.coords[2:], grid.rows)
    for block in (grid, boundary):
        mask, coords = problem.feasible(block), np.broadcast_arrays(*block.coords)
        for cell in np.ndindex(block.shape):
            row = tuple(float(c[cell]) for c in coords)
            kwargs = {"beta": float(betas[cell[0]])} if case.family is Family.KNOWN_KNOWN else {}
            assert mask[cell] == st.feasible(case, st.symmetric_lambda(case, row), **kwargs), (cell, row)


_FAMILY_OBJECTIVES = {Family.UNKNOWN_UNKNOWN: opt._unknown_unknown_p, Family.KNOWN_UNKNOWN: opt._known_unknown_p,
                      Family.KNOWN_KNOWN: opt._known_known_p}


@settings(max_examples=200, deadline=None, derandomize=True)
@given(hs.sampled_from(ALL_REGIMES), hs.sampled_from([2, 3]), hs.floats(0.0, 1.0), hs.floats(0.0, 1.0),
       hs.floats(0.0, 1.0), hs.floats(0.0, 1.0), hs.floats(0.0, 1.0), hs.integers(0, 2**32 - 1))
def test_family_objectives_score_off_table_coefficients_by_their_povm(regime, dim, beta, eta1, l1, scale, l3, seed):
    # any feasible symmetric coefficients, not only the decided ones: the POVM of those coefficients on a pair at
    # (beta, eta1) succeeds with the probability the oracle's family objective gives them
    case = KnowledgeCase(regime, dim)
    assume(case.family is not Family.KNOWN_KNOWN or beta <= PARALLEL_OVERLAP)
    _, boundary = st.REGIONS[case.family, dim]
    l2 = scale * float(boundary(np.float64(l1), beta))  # the region is a down-set in l2 below its boundary
    coeffs = (l1, l2, l3)[: opt._n_params(case)]
    lam = st.symmetric_lambda(case, coeffs)
    assert st.feasible(case, lam, **({"beta": beta} if case.family is Family.KNOWN_KNOWN else {}))
    p1, p2 = povm.success_probabilities(case, pair_with_overlap(dim, beta, eta1, seed=seed), lam)
    assert abs(eta1 * p1 + (1 - eta1) * p2 - _FAMILY_OBJECTIVES[case.family](*coeffs, beta, eta1)) <= 1e-12


def _second_axis_problem_and_blocks(regime, dim, second):
    return _axis_problem_and_blocks(regime, dim, SECOND_AXIS_EDGES, 13, 1, second)


@pytest.mark.parametrize("dim", (2, 3))
@pytest.mark.parametrize("regime", ALL_REGIMES, ids=lambda r: r.value)
def test_second_axis_is_a_down_set_topped_by_the_boundary(regime, dim):
    # the premises of scoring only the ends of the second axis next to the boundary block:
    # feasibility is a down-set along it, every boundary cell is feasible, and the worst case
    # and the tie-break value never decrease along it beyond rounding (_bracket dips by an ulp)
    problem, (grid, boundary) = _second_axis_problem_and_blocks(regime, dim, opt._axis_grid(0.0, 1.0, 0.1))
    assert grid.shape[2] == 11
    mask = np.asarray(problem.feasible(grid))
    assert np.all(np.diff(mask.astype(int), axis=2) <= 0)
    assert np.all(problem.feasible(boundary))
    for values in opt._evaluate(problem, grid):
        assert np.all(np.diff(np.broadcast_to(values, grid.shape), axis=2) >= -opt._TIE_TOL)


@pytest.mark.parametrize("dim", (2, 3))
@pytest.mark.parametrize("regime", ALL_REGIMES, ids=lambda r: r.value)
def test_select_over_the_second_axis_ends_matches_the_full_axis(regime, dim):
    axis = opt._axis_grid(0.0, 1.0, 0.1)
    full, ends = (_second_axis_problem_and_blocks(regime, dim, second) for second in (axis, axis[[0, -1]]))
    picks = [opt._select(problem, blocks, blocks[0].shape[0]) for problem, blocks in (full, ends)]
    (_, lam_full, worst_full, _), (_, lam_ends, worst_ends, _) = picks
    # one near tie: at (beta, eta1) = (1 - 1e-12, 0) the A3/A4 objectives are about 2e-12 l2, so a
    # full axis picked its smallest value within _TIE_TOL of the top (0.5); the ends pick the top end
    differ = np.flatnonzero(np.any(lam_full != lam_ends, axis=1))
    near_tie = [SECOND_AXIS_EDGES.index((1 - 1e-12, 0.0))] if regime in (Regime.A3, Regime.A4) else []
    assert differ.tolist() == near_tie
    assert lam_full[differ, 1].tolist() == [0.5] * len(differ) and lam_ends[differ, 1].tolist() == [1.0] * len(differ)
    assert np.all(worst_full[differ] < worst_ends[differ]) and np.all(worst_ends[differ] <= worst_full[differ] + opt._TIE_TOL)
    same = np.ones(len(lam_full), dtype=bool)
    same[differ] = False
    for a, b in zip(*picks):
        np.testing.assert_array_equal(a[same], b[same])


def test_second_axis_near_ties_pick_the_boundary_or_the_upper_end():
    # A4 dim 2 at a verify grid point: a full second axis picked the grid cell one ulp below
    # the boundary projection, l2 = 0.0593824228028504; the two ends and the projection pick
    # the projection itself, at a bitwise equal value
    ax = opt._axis_grid(0.0, 1.0, 0.05)
    res = opt.solve_maximin(opt.case_problem(KnowledgeCase(Regime.A4, 2), beta=ax[8], eta1=ax[17]))[0]
    assert res.lambda_star == (0.99, float(st.direct_boundary(0.99, ax[8])))
    assert res.lambda_star[1] == 0.05938242280285041
    assert res.value == 0.7143421852731591
    # where the objective is about 2e-12 l2, a full axis picked l2 = 0.5 (value about 1e-12);
    # the upper end scores about 2e-12
    for regime, dim in itertools.product((Regime.A3, Regime.A4), (2, 3)):
        res = opt.solve_maximin(opt.case_problem(KnowledgeCase(regime, dim), beta=1 - 1e-12, eta1=0.0))[0]
        assert res.lambda_star[:2] == (0.0, 1.0)
        assert res.value > 1.99e-12


# sha256 over (lambda_star, value, certificate bytes) of every solve of `verify --case all`
# at `--dim 2 --grid 0.05`, `--dim 3 --grid 0.1` and `--dim 2 --grid 0.1 --resolution 5e-4`
REFERENCE_SOLVES = (2224, "7814f18e951164faf5b9508bdc77614dc4b40397b2075d8ed268c9e558e5deb1")


def test_reference_solves_are_frozen(capsys, monkeypatch):
    digest, count, real_solve = hashlib.sha256(), 0, opt.solve_maximin

    def record_solve(problem, resolution=1e-3):
        nonlocal count
        results = real_solve(problem, resolution)
        for r in results:
            digest.update(repr((r.lambda_star, r.value)).encode())
            digest.update(b"-" if r.certificate is None else r.certificate.tobytes())
        count += len(results)
        return results

    monkeypatch.setattr(opt, "solve_maximin", record_solve)
    for argv in (("--dim", "2", "--grid", "0.05"), ("--dim", "3", "--grid", "0.1"),
                 ("--dim", "2", "--grid", "0.1", "--resolution", "5e-4")):
        assert cli.main(["verify", "--case", "all", *argv]) == 0
    capsys.readouterr()
    assert (count, digest.hexdigest()) == REFERENCE_SOLVES


@pytest.mark.parametrize("regime", (Regime.A3, Regime.A4, Regime.B4), ids=lambda r: r.value)
def test_psd_check_pairs_are_drawn_in_one_call(regime, monkeypatch):
    # the distinct pair overlaps of a case are drawn once each, in first-occurrence
    # order, from one generator seeded 0: each pair is bitwise its row of that one call
    calls, checked = [], []
    real_pairs = opt.pair_with_overlap

    def record_pairs(dim, beta, eta1, seed):
        calls.append(np.asarray(beta).tolist())
        return real_pairs(dim, beta, eta1, seed)

    monkeypatch.setattr(opt, "pair_with_overlap", record_pairs)
    monkeypatch.setattr(opt, "_check_solutions_psd", lambda case, pairs, lambda_stars: checked.append(pairs))
    betas = (0.3, 0.995, 0.0, 0.3, 1.0)
    opt.verify_case(KnowledgeCase(regime, 3), betas=betas, etas=(0.2, 0.7))
    expected = [0.3, 0.99, 0.0] if regime is not Regime.A3 else [0.0]
    assert calls == [expected]
    (pairs,) = checked  # one stacked pair, one row per distinct solution
    assert type(pairs) is StatePair and set(pairs.beta.tolist()) == set(expected)
    drawn = real_pairs(3, expected, np.full(len(expected), 0.5), seed=0)
    for pair in pairs:
        row = drawn[expected.index(pair.beta)]
        assert pair.psi1.vec.tobytes() == row.psi1.vec.tobytes()
        assert pair.psi2.vec.tobytes() == row.psi2.vec.tobytes()


@pytest.mark.parametrize("case", [KnowledgeCase(r, d) for r in ALL_REGIMES for d in (2, 3)], ids=str)
def test_solution_checks_are_one_stacked_build_per_case(case, monkeypatch):
    builds, checks, validated = [], [], []
    real_build, real_check, real_validate = povm.build_for_case, opt._check_solutions_psd, povm.validate

    def record_check(case, pairs, lambda_stars):
        checks.append((pairs, np.array(lambda_stars)))
        return real_check(case, pairs, lambda_stars)

    monkeypatch.setattr(povm, "build_for_case", lambda *args: builds.append(args) or real_build(*args))
    monkeypatch.setattr(opt, "_check_solutions_psd", record_check)
    monkeypatch.setattr(povm, "validate", lambda povm_set: validated.append(povm_set) or real_validate(povm_set))
    opt.verify_case(case, betas=[], etas=[0.5])  # an empty grid has nothing to check: no build at all
    assert builds == []
    opt.verify_case(case, betas=(0.0, 0.4, 1.0), etas=(0.0, 0.3, 1.0))
    (none, unchecked), (pairs, lambda_stars) = checks
    assert unchecked.size == len(none) == 0
    # one stacked pair per verify_case, handed on whole to the one build: never a list
    assert type(none) is type(pairs) is type(builds[0][1]) is StatePair
    assert len(builds) == 1 and len(pairs) == len(lambda_stars) == len(validated) > 0
    # each validated measurement is a lone POVM, bitwise the lone build of its solution on its pair
    for pair, lambda_star, measurement in zip(pairs, lambda_stars.tolist(), validated):
        lone = real_build(case, pair, st.symmetric_lambda(case, tuple(lambda_star)))
        assert all(el.shape == (lone.dim, lone.dim) for el in measurement.elements)
        assert [el.tobytes() for el in measurement.elements] == [el.tobytes() for el in lone.elements]


@pytest.mark.parametrize("k", (0, 1, 2))
def test_failed_solution_check_names_the_first_failing_solution(k, monkeypatch):
    # validate reports a negative pi0 eigenvalue, -1 - i, for its i-th call from the k-th on
    case = KnowledgeCase(Regime.A4, 3)  # three distinct checks, one per beta
    reports = []
    real_validate = povm.validate

    def fail_from_k(measurement, *args):
        reports.append(real_validate(measurement, *args))
        i = len(reports) - 1
        if i < k:
            return reports[i]
        return dataclasses.replace(reports[i], psd_ok=reports[i].psd_ok[:2] + (False,),
                                   min_eigenvalues=reports[i].min_eigenvalues[:2] + (-1.0 - i,))

    monkeypatch.setattr(povm, "validate", fail_from_k)
    with pytest.raises(povm.MeasurementError) as info:
        opt.verify_case(case, betas=(0.0, 0.4, 0.8), etas=(0.5,))
    assert len(reports) == k + 1  # validation stops at the first failing solution
    expected = reports[k].min_eigenvalues[:2] + (-1.0 - k,)
    assert str(info.value) == f"oracle solution for {case}: POVM is not positive semidefinite: min eigenvalues {expected}"


@pytest.mark.parametrize("k", (0, 1, 2))
def test_capped_solution_checks_keep_row_order_and_elements(k, monkeypatch):
    # a cap of two measurements builds A4/dim3's three checks in runs of 2 and 1: the validated
    # elements are bitwise those of the one-stack build, and a failure names the first failing row
    case = KnowledgeCase(Regime.A4, 3)
    grid = {"betas": (0.0, 0.4, 0.8), "etas": (0.5,)}
    real_build, real_validate = povm.build_for_case, povm.validate
    builds, validated = [], []

    def record_build(case, pairs, lams):
        builds.append(len(pairs))
        return real_build(case, pairs, lams)

    def record_validate(measurement):
        validated.append([el.tobytes() for el in measurement.elements])
        return real_validate(measurement)

    monkeypatch.setattr(povm, "build_for_case", record_build)
    monkeypatch.setattr(povm, "validate", record_validate)
    opt.verify_case(case, **grid)
    one_stack, builds[:], validated[:] = validated[:], [], []
    monkeypatch.setattr(povm, "STACK_CELLS", 3 * case.register_dim**2 - 1)
    opt.verify_case(case, **grid)
    assert builds == [2, 1] and validated == one_stack

    def fail_from_k(measurement):
        report = record_validate(measurement)
        i = len(validated) - 1
        if i < k:
            return report
        return dataclasses.replace(report, psd_ok=report.psd_ok[:2] + (False,),
                                   min_eigenvalues=report.min_eigenvalues[:2] + (-1.0 - i,))

    builds[:], validated[:] = [], []
    monkeypatch.setattr(povm, "validate", fail_from_k)
    with pytest.raises(povm.MeasurementError, match=rf"min eigenvalues \(.*, {-1.0 - k}\)$"):
        opt.verify_case(case, **grid)
    assert len(validated) == k + 1 and builds == [2, 1][: 1 + k // 2]


def test_block_len_and_feasibility_mask_are_per_candidate_cell():
    problem = opt.case_problem(KnowledgeCase(Regime.A3, 2), beta=[0.3, 0.6], eta1=[0.5, 0.5])
    block = opt._block([np.tile(opt._axis_grid(0.0, 1.0, 0.1), (2, 1))] * 3, slice(0, 2))
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
def test_stacked_solves_match_single_points(regime, dim, monkeypatch):
    # points are independent: stacking them, one at a time, in odd chunks whose windows
    # pad differently, or under any cell cap on a pass's chunks, gives bitwise the same solutions
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
    chunks, real = [], opt._chunks

    def record(lengths):
        chunks.append((lengths, real(lengths)))
        return chunks[-1][1]

    monkeypatch.setattr(opt, "_chunks", record)
    full = 33  # a refinement window of +-1.6 old steps at a tenth of the step, not clipped by the box
    for cap in (1, 3 * full**opt._n_params(case)):
        monkeypatch.setattr(opt, "_BLOCK_CELLS", cap)
        chunks.clear()
        assert _fields(opt.solve_maximin(opt.case_problem(case, beta=points[:, 0], eta1=points[:, 1]))) == single
        spans = [n[rows] for n, pass_chunks in chunks for rows in pass_chunks]
        assert all(len(span) == 1 for span in spans) == (cap == 1)
        if cap == 1:  # every chunk is one point, and windows exceed the cap
            assert all(span.prod() > cap for span in spans)
        else:  # some chunks mix clipped and full windows
            assert any(len(span) > 1 and (span == full).any() and (span < full).any() for span in spans)
    # a stack of no points is solved, to no results
    assert opt.solve_maximin(opt.case_problem(case, beta=[], eta1=[])) == []


def test_a_missing_input_stands_in_at_every_point():
    # B4 is posed at beta alone: a stack of betas without eta1 solves as the per-point scalar calls
    case = KnowledgeCase(Regime.B4, 2)
    betas = np.array([0.0, 0.3, 0.75, 1.0])
    single = _fields([opt.solve_maximin(opt.case_problem(case, beta=b))[0] for b in betas.tolist()])
    assert _fields(opt.solve_maximin(opt.case_problem(case, beta=betas))) == single


@pytest.mark.parametrize("regime", (Regime.A1, Regime.A3, Regime.A4), ids=lambda r: r.value)
def test_chunks_count_the_boundary_block_in_the_cell_cap(monkeypatch, regime):
    # a chunk of several points scores at most _BLOCK_CELLS cells of its grid and boundary blocks
    case = KnowledgeCase(regime, 2)
    points = _stack_points(regime)
    problem = opt.case_problem(case, beta=points[:, 0], eta1=points[:, 1])
    assert problem.boundary is not None
    single = _fields(opt.solve_maximin(problem))
    scored, real = [], opt._select

    def record(problem, blocks, n):
        scored.append((n, len(blocks[0]) + len(blocks[1])))
        return real(problem, blocks, n)

    cap = 40 * 33
    monkeypatch.setattr(opt, "_select", record)
    monkeypatch.setattr(opt, "_BLOCK_CELLS", cap)
    assert _fields(opt.solve_maximin(problem)) == single
    assert any(n > 1 for n, _ in scored)
    assert all(cells <= cap for n, cells in scored if n > 1)


def _chunks_row_by_row(n, cap):
    """The per-row walk ``_chunks`` replaced: a run ends before the row that would pad it past ``cap`` cells."""
    starts, top = [], []
    for row, lengths in enumerate(n.tolist()):
        top = [max(a, b) for a, b in zip(top, lengths)]
        if not starts or (row + 1 - starts[-1]) * math.prod(top) > cap:
            starts.append(row)
            top = lengths
    return [slice(a, b) for a, b in zip(starts, starts[1:] + [len(n)])]


@pytest.mark.parametrize("cap", (1, 7, 40 * 33, 1 << 16))
def test_chunks_are_the_row_by_row_walk(monkeypatch, cap):
    # random (P, k) axis lengths, from all-ones rows to rows over the cap on their own, and no rows at all
    monkeypatch.setattr(opt, "_BLOCK_CELLS", cap)
    rng = np.random.default_rng(cap)
    for _ in range(300):
        n = rng.integers(1, rng.integers(2, 70), size=(rng.integers(0, 400), rng.integers(1, 5)))
        assert opt._chunks(n) == _chunks_row_by_row(n, cap)
    assert opt._chunks(np.ones((0, 3), dtype=int)) == []


@pytest.mark.parametrize("dim", (2, 3))
@pytest.mark.parametrize("regime", ALL_REGIMES, ids=lambda r: r.value)
def test_problem_ignores_inputs_it_does_not_take(regime, dim):
    # the information-structure contract for the oracle: an input the problem is not
    # posed at is left to the adversary, so its given value changes nothing
    case = KnowledgeCase(regime, dim)
    inputs = opt._problem_inputs(case)
    known = dict.fromkeys(inputs, 0.6)
    hidden = [name for name in ("beta", "eta1") if name not in inputs]
    reference = _fields(opt.solve_maximin(opt.case_problem(case, **known)))
    for values in itertools.product((0.0, 0.37, 1.0), repeat=len(hidden)):
        assert _fields(opt.solve_maximin(opt.case_problem(case, **known, **dict(zip(hidden, values))))) == reference
    for name in inputs:  # and an input it is posed at cannot be left out
        with pytest.raises(ValueError, match="requires"):
            opt.case_problem(case, **{n: v for n, v in known.items() if n != name})


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


def test_a_grid_step_that_does_not_divide_the_box_is_rejected():
    # else the axis would hold 1/round(1/step) steps: betas 0, 1/3, 2/3 and 1 for a step of 0.3
    with pytest.raises(ValueError, match=r"^grid step must divide \[0, 1\] into whole steps, got 0\.3$"):
        opt.verify_case(KnowledgeCase(Regime.A1, 2), grid_step=0.3)


def test_verify_worst_point_is_the_first_largest_deviation():
    rep = opt.verify_case(KnowledgeCase(Regime.A3, 2), grid_step=0.25)
    devs = [abs(closed - oracle) for _, _, closed, oracle in rep.rows]
    k = devs.index(max(devs))
    assert devs[k] > 0 and (rep.max_deviation, rep.worst_point) == (devs[k], rep.rows[k][:2])
    assert all(type(x) is float for row in rep.rows for x in row)
    empty = opt.verify_case(KnowledgeCase(Regime.A4, 2), betas=[], etas=[0.5])
    assert empty.rows == () and (empty.max_deviation, empty.worst_point) == (0.0, (0.0, 0.0))


def test_verify_nan_deviation_is_the_worst(monkeypatch):
    # a NaN deviation must fail verification: it is the maximum, at its first row
    case = KnowledgeCase(Regime.B1, 2)
    rep = opt.verify_case(case, grid_step=0.5, perturb=math.nan)
    assert math.isnan(rep.max_deviation) and rep.worst_point == (0.0, 0.0) and not rep.within(1.0)
    surface = st.case_surface(case)
    with_nan = lambda beta, eta1: np.where((beta == 0.5) & (eta1 >= 0.5), np.nan, surface(beta, eta1))
    monkeypatch.setattr(st, "case_surface", lambda c: with_nan)
    rep = opt.verify_case(case, grid_step=0.25)
    assert math.isnan(rep.max_deviation) and rep.worst_point == (0.5, 0.5) and not rep.within(1.0)


# sha256 of repr of (rows, max_deviation, worst_point) of three verify grids per case:
# the square grid (step 0.25 in dim 2, 0.5 in dim 3), the edge grid and an empty grid;
# recorded when verify_case still keyed and evaluated its solves one grid point at a time
VERIFY_GOLDEN = {
    "a1-2": "8fd28c4514cc49a8e1eabed1f63cde85fd891fb3ee90c8dd55bc3560ebac6560",
    "a2-2": "c81da33ab54b19b5fd2647768061717e9a29d1ca61ea83c632d8cd3fc62b57b8",
    "a3-2": "9e78129c58e0a076dee2565817b220356dabb61799ece6df298de9c53c282d75",
    "a4-2": "30ab670d406e8b6fa86f2ae17f9a2a4d59bf69bad0de6512e46bc4b42cccd2f1",
    "b1-2": "9762d73bdf5f76444be394186ac37c6c4f956167982c363fd6f3d0f42e8402d8",
    "b2-2": "068ebcfff10921d27cb8b63178669942c1a59532b8274fab292940639a0f3fef",
    "b3-2": "682366dda4c523f519ca39a7f5409a9f414696b79f6c5f82bec69f2ba54cda9c",
    "b4-2": "fc90a4d1040d1f4963e1a0963a20b19722cb91d395782a17d4495f38febf6db9",
    "a1-3": "5b9b9c1ead561dbf42c2a4202554927332fa0927c9c0690020248faa45d0d208",
    "a2-3": "a9b3d5e1557e4d24bb333f10398194a21427512f78453d9576c37f8b8f36bfc1",
    "a3-3": "655cdae5009fc7558e758221e925d8ea781e3c36e3364ccc34500a6b95a68c00",
    "a4-3": "4402e274659d65bb728eeaad9151750436387d0563c19f74a46b6c3688065a60",
    "b1-3": "c92ab67ebfc8605f93c38404a9621f68f6dceb9353530d0ec5eb932c6453473d",
    "b2-3": "db3862f38ce7eac01b5f8dd3f58642a2cf90ea85cd2702b244f0de35837df6ff",
    "b3-3": "1a258068bfae82ac5219afd60f45ec6c336c183340efc9a5037752eb694de98b",
    "b4-3": "04084152625eab92113f96ca1323c8dc8d09906028d5eff6f3be929711ea8820",
}


@pytest.mark.parametrize("label", VERIFY_GOLDEN)
def test_verify_rows_golden(label):
    regime, dim = label.split("-")
    case = KnowledgeCase(Regime(regime), int(dim))
    reps = [
        opt.verify_case(case, grid_step=0.25 if case.dim == 2 else 0.5),
        opt.verify_case(case, betas=EDGE_BETAS, etas=(0.0, 0.5, 1.0)),
        opt.verify_case(case, betas=[], etas=[0.5]),
    ]
    digest = hashlib.sha256(repr([(r.rows, r.max_deviation, r.worst_point) for r in reps]).encode()).hexdigest()
    assert digest == VERIFY_GOLDEN[label]


@pytest.mark.parametrize("regime", ALL_REGIMES, ids=lambda r: r.value)
def test_verify_solves_one_point_per_problem_input_in_row_order(regime, monkeypatch):
    # the problem sees beta except for the beta-free A2/B2 brackets, and eta1 where
    # the decision does; each distinct input is solved once, at its first grid row,
    # in a single solve over all of them
    posed, solves = {}, []
    real_problem, real_solve = opt.case_problem, opt.solve_maximin

    def record_problem(case, beta=None, eta1=None):
        problem = real_problem(case, beta=beta, eta1=eta1)
        posed[id(problem)] = list(zip(np.asarray(beta).tolist(), np.asarray(eta1).tolist()))
        return problem

    def record_solve(problem, resolution=1e-3):
        solves.append(posed[id(problem)])
        return real_solve(problem, resolution)

    monkeypatch.setattr(opt, "case_problem", record_problem)
    monkeypatch.setattr(opt, "solve_maximin", record_solve)
    betas, etas = (0.0, 0.5, 1.0), (0.0, 0.25, 0.75, 1.0)
    opt.verify_case(KnowledgeCase(regime, 2), betas=betas, etas=etas)
    rows = [(b, e) for e in etas for b in betas]
    expected = {
        Regime.B2: rows[:1],
        Regime.A2: [(betas[0], e) for e in etas],
        Regime.B1: [(b, etas[0]) for b in betas],
        Regime.B3: [(b, etas[0]) for b in betas],
        Regime.B4: [(b, etas[0]) for b in betas],
    }.get(regime, rows)
    assert solves == [expected]


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


# symmetry-released cross-checks: the per-index qutrit coefficients searched without the symmetry

def full_dimension_value_known_unknown(pair: StatePair, eta1: float, step: float = 0.01) -> float:
    """Best average success probability over all 8 per-index qutrit coefficients.

    Exact weights |<b_i|psi2>|^2 are computed for the concrete pair; the
    objective is evaluated in closed form (no operator assembly).  The
    per-index blocks have independent constraints and separable
    objectives, so each 2-coefficient block is searched on its own
    boundary-projected grid.
    """
    basis = orthonormal_completion(pair.psi1.vec)
    c = np.array([abs(np.vdot(basis[:, i], pair.psi2.vec)) ** 2 for i in (1, 2)])
    beta2 = abs(np.vdot(basis[:, 0], pair.psi2.vec)) ** 2
    axis = opt._axis_grid(0.0, 1.0, step)
    grid = np.stack([m.reshape(-1) for m in np.meshgrid(axis, axis, indexing="ij")], axis=1)
    grid = np.vstack([grid, np.stack([grid[:, 0], st.single_program_boundary(grid[:, 0])], axis=1)])
    grid = grid[st.single_program_ok(grid[:, 0], grid[:, 1])]
    best_pairs = [(eta1 * 0.5 * grid[:, 0] * ci + (1.0 - eta1) * beta2 * grid[:, 1] * ci).max() for ci in c]
    lam3_part = (1.0 - eta1) * (c[0] + c[1]) ** 2  # all lam3 = 1
    return float(sum(best_pairs) + lam3_part)


def full_dimension_value_unknown_unknown(pair: StatePair, eta1: float, step: float = 0.2,
                                         chunk: int = 2048) -> float:
    """Best average success probability over all 6 per-index qutrit coefficients.

    Feasibility is certified by eigenvalue checks of the assembled
    inconclusive element (the per-index constraints alone are not
    sufficient for this family).
    """
    in1, in2 = input_states(KnowledgeCase(Regime.A1, 3), pair)
    stack1, stack2 = UNKNOWN_UNKNOWN_BLOCKS[3]
    w1 = [float(np.vdot(in1, b1 @ in1).real) for b1 in stack1]
    w2 = [float(np.vdot(in2, b2 @ in2).real) for b2 in stack2]
    axis = opt._axis_grid(0.0, 1.0, step)
    cand = np.stack([m.reshape(-1) for m in np.meshgrid(*([axis] * 6), indexing="ij")], axis=1)
    ok = np.all([st.pair_program_ok(cand[:, i], cand[:, 3 + i]) for i in range(3)], axis=0)
    ok &= st.totally_antisymmetric_ok(cand[:, :3].sum(axis=1), cand[:, 3:].sum(axis=1))
    cand = cand[ok]
    best = -np.inf
    for start in range(0, cand.shape[0], chunk):
        block = cand[start : start + chunk]
        pi = np.tensordot(block[:, :3], stack1, axes=(1, 0)) + np.tensordot(block[:, 3:], stack2, axes=(1, 0))
        feas = np.linalg.eigvalsh(np.eye(27)[None, :, :] - pi)[:, 0] >= -1e-9
        if feas.any():
            vals = eta1 * block[feas, :3] @ np.array(w1) + (1.0 - eta1) * block[feas, 3:] @ np.array(w2)
            best = max(best, float(vals.max()))
    return best


def test_full_dimension_known_unknown_matches_symmetric():
    # releasing the per-index symmetry does not beat the symmetric optimum
    pair = pair_with_overlap(3, 0.55, 0.5, seed=31)
    for eta1 in (0.2, 0.5, 0.8):
        full = full_dimension_value_known_unknown(pair, eta1)
        sym = st.p1plus_opt(pair.beta, eta1)
        assert full <= sym + 1e-9
        assert full >= sym - 2e-3


def test_full_dimension_pair_program_gap_reported():
    # with the orientation known, unequal per-index coefficients may win;
    # the symmetric value is never beaten by less than -tol from above
    pair = pair_with_overlap(3, 0.4, 0.5, seed=32)
    full = full_dimension_value_unknown_unknown(pair, 0.5, step=0.25)
    sym = st.success_probability(KnowledgeCase(Regime.A1, 3), 0.4, 0.5).p_analytic
    assert full >= sym - 2e-3
    print(f"unknown/unknown symmetric {sym:.4f} vs orientation-aware {full:.4f} (gap {full - sym:+.4f})")
