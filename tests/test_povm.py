import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as hs

from unambig.cases import Family, KnowledgeCase, Regime
from unambig.linalg import NumericalError, expectation, kron, orthonormal_completion
from unambig.povm import (
    COMPLETENESS_TOL,
    FEASIBILITY_SLACK,
    PSD_TOL,
    LambdaParams,
    MeasurementError,
    PovmReport,
    PovmSet,
    build_for_case,
    build_known_known,
    build_known_unknown,
    build_unknown_unknown,
    input_states,
    success_probabilities,
    validate,
)
from unambig.simulate import outcome_probabilities
from unambig.states import pair_with_overlap
from unambig import strategies
from unambig.strategies import feasible, pair_program_ok

from lone_states import basis_state, min_eigenvalue


def feasible_or_psd(case, lam, **kwargs):
    """``feasible``, or the eigenvalue check where it has no closed form (unequal qutrit unknown/unknown rows)."""
    try:
        return feasible(case, lam, **kwargs)
    except ValueError:
        if (case.family, case.dim) != (Family.UNKNOWN_UNKNOWN, 3):
            raise
        return all(validate(build_unknown_unknown(3, lam)).psd_ok)


def sample_feasible(case, rng, beta=None):
    """Rejection-sample coefficients accepted by the case's feasibility predicate."""
    while True:
        if case.family is Family.UNKNOWN_UNKNOWN:
            n = 1 if case.dim == 2 else 3
            lam = LambdaParams.of(rng.uniform(0, 1, n), rng.uniform(0, 1, n))
        elif case.family is Family.KNOWN_UNKNOWN:
            n = case.dim - 1
            lam = LambdaParams.of(rng.uniform(0, 1, n), rng.uniform(0, 1, n), rng.uniform(0, 1, n * n))
        else:
            lam = LambdaParams.of(rng.uniform(0, 1), rng.uniform(0, 1))
        kwargs = {"beta": beta} if case.family is Family.KNOWN_KNOWN else {}
        if feasible_or_psd(case, lam, **kwargs):
            return lam


def test_lambda_params_validation():
    with pytest.raises(ValueError, match="nonnegative"):
        LambdaParams.of(-0.1, 0.5)
    assert LambdaParams.of(0.2, 0.3, 0.4).flat == (0.2, 0.3, 0.4)


def test_zero_coefficients_give_identity_inconclusive():
    for dim, n in ((2, 1), (3, 3)):
        povm = build_unknown_unknown(dim, LambdaParams.of((0.0,) * n, (0.0,) * n))
        assert np.allclose(povm.pi1, 0) and np.allclose(povm.pi2, 0)
        assert np.allclose(povm.pi0, np.eye(dim**3))
        validate(povm).check()


def test_qubit_pair_program_boundary_and_violation():
    boundary = build_unknown_unknown(2, LambdaParams.of(2 / 3, 2 / 3))
    assert abs(min_eigenvalue(boundary.pi0)) <= 1e-9
    broken = build_unknown_unknown(2, LambdaParams.of(1.0, 1.0))
    assert min_eigenvalue(broken.pi0) < -1e-6


def test_builders_reject_bad_coefficients():
    with pytest.raises(ValueError, match="nonnegative"):
        build_unknown_unknown(2, LambdaParams((-0.5,), (0.5,)))
    with pytest.raises(ValueError, match="component"):
        build_unknown_unknown(3, LambdaParams.of((0.1, 0.2), (0.1, 0.2)))
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        build_known_unknown(basis_state(2, 0), LambdaParams.of(1.5, 0.0, 0.0))
    with pytest.raises(ValueError, match="parallel"):
        pair = pair_with_overlap(2, 1.0, 0.5, seed=0)
        build_known_known(pair.psi1, pair.psi2, LambdaParams.of(0.5, 0.5))


def test_nan_coefficients_are_a_usage_error_naming_the_component():
    # NaN compares False with 0, so an unguarded check let it through to validate's NumericalError
    nan = float("nan")
    with pytest.raises(ValueError, match=r"^lam1 components must be nonnegative, got nan$"):
        LambdaParams.of(nan, 0.5)
    with pytest.raises(ValueError, match=r"^lam3 components must be nonnegative, got nan$"):
        LambdaParams.of(0.5, 0.5, (0.1, 0.2, nan, 0.3))
    pairs = pair_with_overlap(2, [0.3, 0.3], [0.5, 0.5], seed=0)
    for regime, lam, name in ((Regime.A1, [[0.5, 0.5], [0.5, nan]], "lam2"),  # one per family
                              (Regime.A2, [[0.5, 0.5, 0.5], [nan, 0.5, 0.5]], "lam1"),
                              (Regime.A4, [[0.5, 0.5], [0.5, nan]], "lam2")):
        with pytest.raises(ValueError, match=rf"^{name} components must be nonnegative, got nan$") as info:
            build_for_case(KnowledgeCase(regime, 2), pairs, np.array(lam))
        assert not isinstance(info.value, NumericalError)


@pytest.mark.parametrize("regime", [Regime.A1, Regime.A2, Regime.A4])
@pytest.mark.parametrize("dim", [2, 3])
def test_no_error_condition(regime, dim):
    # wrong-identification amplitudes vanish structurally, for any coefficients
    rng = np.random.default_rng(zlib.crc32(f"{regime.value} {dim}".encode()))
    case = KnowledgeCase(regime, dim)
    for _ in range(100):
        beta = rng.uniform(0, 0.99)
        pair = pair_with_overlap(dim, beta, 0.5, rng)
        lam = sample_feasible(case, rng, beta=beta)
        povm = build_for_case(case, pair, lam)
        in1, in2 = input_states(case, pair)
        assert expectation(in2, povm.pi1) <= 1e-12
        assert expectation(in1, povm.pi2) <= 1e-12
        assert validate(povm).completeness_residual <= 1e-10


def test_pair_program_expectations_match_analytic():
    # p_i = lam_i (1 - beta^2) / 2 for the two-unknown-states discriminator
    rng = np.random.default_rng(21)
    case = KnowledgeCase(Regime.A1, 2)
    for _ in range(200):
        beta = rng.uniform(0, 1)
        pair = pair_with_overlap(2, beta, 0.5, rng)
        l1, l2 = rng.uniform(0, 2 / 3, 2)
        p1, p2 = success_probabilities(case, pair, LambdaParams.of(l1, l2))
        f = 0.5 * (1 - beta**2)
        assert p1 == pytest.approx(l1 * f, abs=1e-10)
        assert p2 == pytest.approx(l2 * f, abs=1e-10)


def test_single_program_expectations_match_analytic():
    # p1 = lam1 (1-beta^2)/2;  p2 = lam2 beta^2 (1-beta^2) + lam3 (1-beta^2)^2
    rng = np.random.default_rng(22)
    case = KnowledgeCase(Regime.A2, 2)
    for _ in range(200):
        beta = rng.uniform(0, 1)
        pair = pair_with_overlap(2, beta, 0.5, rng)
        l1, l2, l3 = rng.uniform(0, 1, 3)
        p1, p2 = success_probabilities(case, pair, LambdaParams.of(l1, l2, l3))
        b2 = beta**2
        assert p1 == pytest.approx(0.5 * l1 * (1 - b2), abs=1e-10)
        assert p2 == pytest.approx(l2 * b2 * (1 - b2) + l3 * (1 - b2) ** 2, abs=1e-10)


def test_single_program_pure_components():
    pair = pair_with_overlap(2, 0.6, 0.5, seed=23)
    case = KnowledgeCase(Regime.A2, 2)
    p1, _ = success_probabilities(case, pair, LambdaParams.of(1.0, 0.0, 0.0))
    assert p1 == pytest.approx(0.5 * (1 - 0.36), abs=1e-12)
    _, p2 = success_probabilities(case, pair, LambdaParams.of(0.0, 1.0, 1.0))
    assert p2 == pytest.approx(1 - 0.36, abs=1e-12)


def test_direct_expectations_match_analytic():
    # p_i = lam_i (1 - beta^2) when both states are known
    rng = np.random.default_rng(24)
    for dim in (2, 3):
        case = KnowledgeCase(Regime.A4, dim)
        for _ in range(100):
            beta = rng.uniform(0, 0.99)
            pair = pair_with_overlap(dim, beta, 0.5, rng)
            l1, l2 = rng.uniform(0, 0.5, 2)
            p1, p2 = success_probabilities(case, pair, LambdaParams.of(l1, l2))
            assert p1 == pytest.approx(l1 * (1 - beta**2), abs=1e-10)
            assert p2 == pytest.approx(l2 * (1 - beta**2), abs=1e-10)


def test_direct_orthogonal_pair_is_perfect():
    pair = pair_with_overlap(3, 0.0, 0.5, seed=25)
    case = KnowledgeCase(Regime.A4, 3)
    p1, p2 = success_probabilities(case, pair, LambdaParams.of(1.0, 1.0))
    assert p1 == pytest.approx(1.0, abs=1e-12)
    assert p2 == pytest.approx(1.0, abs=1e-12)


def test_qutrit_single_program_half_weight():
    # p1 carries the 1/2 from the antisymmetric overlap, per component
    rng = np.random.default_rng(26)
    case = KnowledgeCase(Regime.A2, 3)
    for _ in range(100):
        pair = pair_with_overlap(3, rng.uniform(0, 0.99), 0.5, rng)
        lam = LambdaParams.of(rng.uniform(0, 1, 2), rng.uniform(0, 1, 2), rng.uniform(0, 1, 4))
        p1, p2 = success_probabilities(case, pair, lam)
        basis = orthonormal_completion(pair.psi1.vec)
        c = np.array([abs(np.vdot(basis[:, i], pair.psi2.vec)) ** 2 for i in (1, 2)])
        beta2 = pair.beta**2
        expected_p1 = 0.5 * (lam.lam1[0] * c[0] + lam.lam1[1] * c[1])
        expected_p2 = beta2 * (lam.lam2[0] * c[0] + lam.lam2[1] * c[1]) + (
            lam.lam3[0] * c[0] * c[0]
            + lam.lam3[1] * c[0] * c[1]
            + lam.lam3[2] * c[1] * c[0]
            + lam.lam3[3] * c[1] * c[1]
        )
        assert p1 == pytest.approx(expected_p1, abs=1e-10)
        assert p2 == pytest.approx(expected_p2, abs=1e-10)


def test_validate_reports():
    case = KnowledgeCase(Regime.A2, 2)
    pair = pair_with_overlap(2, 0.5, 0.5, seed=27)
    bad = build_for_case(case, pair, LambdaParams.of(1.0, 1.0, 1.0))
    report = validate(bad)
    assert not report.psd_ok[2] and report.psd_ok[0] and report.psd_ok[1]
    good = build_for_case(case, pair, LambdaParams.of(3 - np.sqrt(5), (3 - np.sqrt(5)) / 2, 1.0))
    validate(good).check()


def test_validate_rejects_nan_elements():
    # eigvalsh returns zeros for a NaN matrix, so the hermiticity check must fail first
    pi = np.full((2, 2), np.nan)
    with pytest.raises(NumericalError, match="not Hermitian"):
        validate(PovmSet(np.eye(2), pi, np.eye(2) - pi))


def _planted_report(rng, rows):
    """A report as ``validate`` makes one, lone (``rows == 0``) or of ``rows`` POVMs, with failures planted at random.

    Each row draws an eigenvalue plant (none, one exactly at ``-PSD_TOL``, one just or far below it) and a residual
    plant (small, exactly ``COMPLETENESS_TOL``, just or far above it, NaN); also the first failing row, or None."""
    n = max(rows, 1)
    mins = rng.uniform(0.0, 0.5, (3, n))
    residual = rng.uniform(0.0, COMPLETENESS_TOL, n)
    below = (None, -PSD_TOL, np.nextafter(-PSD_TOL, -1.0), -0.25)
    above = (None, COMPLETENESS_TOL, np.nextafter(COMPLETENESS_TOL, 1.0), 1e-3, np.nan)
    for row in range(n):  # most rows pass, so a stack's first failure often comes late
        eig = below[rng.choice(len(below), p=(0.6, 0.1, 0.15, 0.15))]
        res = above[rng.choice(len(above), p=(0.6, 0.1, 0.1, 0.1, 0.1))]
        if eig is not None:
            mins[rng.integers(3), row] = eig
        if res is not None:
            residual[row] = res
    psd_ok = mins >= -PSD_TOL
    bad = ~(psd_ok.all(axis=0) & (residual <= COMPLETENESS_TOL))
    first = int(np.argmax(bad)) if bad.any() else None
    if rows == 0:
        report = PovmReport(tuple(psd_ok[:, 0].tolist()), tuple(mins[:, 0].tolist()), float(residual[0]))
    else:
        report = PovmReport(tuple(psd_ok), tuple(mins), residual)
    return report, mins, residual, first


@pytest.mark.parametrize("seed", range(84))
def test_check_raises_exactly_at_the_first_failing_povm(seed):
    rng = np.random.default_rng(seed)
    rows = seed % 7  # 0: a lone report; else a stack of 1 to 6 POVMs
    report, mins, residual, first = _planted_report(rng, rows)
    if first is None:
        assert report.check() is report
        return
    with pytest.raises(MeasurementError) as err:
        report.check()
    assert err.value.index == ((first,) if rows else ())
    if (mins[:, first] >= -PSD_TOL).all():
        assert str(err.value) == f"POVM completeness residual {residual[first]:.3e}"
    else:
        assert str(err.value) == f"POVM is not positive semidefinite: min eigenvalues {tuple(mins[:, first].tolist())}"


def test_check_passes_a_least_eigenvalue_exactly_at_the_tolerance():
    # diagonal elements: eigvalsh returns the diagonal exactly, so pi0's least eigenvalue is the planted one
    def povm_with_least(e):
        return np.diag([1.0 - e, 0.0]), np.zeros((2, 2)), np.diag([e, 1.0])

    lone = validate(PovmSet(*povm_with_least(-PSD_TOL)))
    assert lone.min_eigenvalues[2] == -PSD_TOL and lone.check() is lone
    below = np.nextafter(-PSD_TOL, -1.0)
    stack = PovmSet(*map(np.stack, zip(povm_with_least(-PSD_TOL), povm_with_least(below))))
    with pytest.raises(MeasurementError, match=r"^POVM is not positive semidefinite: min eigenvalues") as err:
        validate(stack).check()
    assert err.value.index == (1,)


@pytest.mark.parametrize("regime", [Regime.A1, Regime.A2, Regime.A4])  # one per family
@pytest.mark.parametrize("dim", [2, 3])
def test_stacked_input_states_match_lone_calls(regime, dim):
    case = KnowledgeCase(regime, dim)
    pairs = pair_with_overlap(dim, [0.0, 1 / np.sqrt(2), 1.0], [0.0, 1.0, 0.5], 33)
    stacked = input_states(case, pairs)
    for k, pair in enumerate(pairs):
        assert all(np.array_equal(s[k], lone) for s, lone in zip(stacked, input_states(case, pair)))


_MIXED = "inputs must all be lone or all stacks of one nonzero length"


@pytest.mark.parametrize("regime", [Regime.A1, Regime.A2, Regime.A4])  # one per family
def test_builders_reject_mixed_unequal_and_empty_stacks(regime):
    # the inputs are lone exactly when the coefficients are a LambdaParams; stacks share one nonzero length
    case = KnowledgeCase(regime, 2)
    pairs = pair_with_overlap(2, [0.2, 0.5, 0.7], [0.5] * 3, 1)
    lam = LambdaParams.of(0.5, 0.5, 0.5 if case.family is Family.KNOWN_UNKNOWN else None)
    stack = np.array([lam.flat] * 3)
    bad = [(pairs, lam), (pairs[0], stack), (pairs[:2], stack), (pairs, stack[:2]), (pairs[:0], stack[:0])]
    for pair, coefficients in bad:
        for call in (build_for_case, outcome_probabilities):
            with pytest.raises(ValueError, match=_MIXED):
                call(case, pair, coefficients)
        if case.family is Family.KNOWN_UNKNOWN:
            with pytest.raises(ValueError, match=_MIXED):
                build_known_unknown(pair.psi1, coefficients)
        if case.family is Family.KNOWN_KNOWN:
            with pytest.raises(ValueError, match=_MIXED):
                build_known_known(pair.psi1, pair.psi2, coefficients)
    if case.family is Family.KNOWN_KNOWN:  # the two states of a known/known build must match each other too
        for psi1, psi2 in ((pairs.psi1, pairs[0].psi2), (pairs[:2].psi1, pairs.psi2)):
            with pytest.raises(ValueError, match=_MIXED):
                build_known_known(psi1, psi2, stack)
    with pytest.raises(ValueError, match=_MIXED):
        build_unknown_unknown(2, np.empty((0, 2)))
    with pytest.raises(ValueError, match=_MIXED):
        input_states(case, pairs[:0])


@pytest.mark.parametrize("regime", [Regime.A1, Regime.A3, Regime.A4])  # one per family
def test_build_for_case_rejects_a_pair_of_another_dimension(regime):
    # unknown/unknown reads no state, and the other families read the dimension off the pair,
    # so a qubit pair once built a 27-dimensional POVM or failed on the qutrit coefficients
    case = KnowledgeCase(regime, 3)
    lam = strategies.success_probability(case, 0.3, 0.5).lam
    message = rf"^pair dimension 2 does not match case {case}$"
    with pytest.raises(ValueError, match=message):
        build_for_case(case, pair_with_overlap(2, 0.3, 0.5, 1), lam)
    with pytest.raises(ValueError, match=message):
        build_for_case(case, pair_with_overlap(2, [0.3, 0.4], [0.5, 0.5], 1), np.array([lam.flat] * 2))
    qubit_case = KnowledgeCase(regime, 2)
    with pytest.raises(ValueError, match=rf"^pair dimension 3 does not match case {qubit_case}$"):
        build_for_case(qubit_case, pair_with_overlap(3, 0.3, 0.5, 1),
                       strategies.success_probability(qubit_case, 0.3, 0.5).lam)
    assert build_for_case(case, pair_with_overlap(3, 0.3, 0.5, 1), lam).dim == case.register_dim


def _psd_case(regime, dim, beta=0.6):
    suffix = "" if beta == 0.6 else f"-beta{beta:.4g}"
    return pytest.param(regime, dim, beta, id=f"{regime.value}-{dim}{suffix}")


@pytest.mark.parametrize(
    "regime,dim,beta",
    [_psd_case(r, d) for r, d in ((Regime.A1, 2), (Regime.A2, 2), (Regime.A4, 2),
                                  (Regime.A1, 3), (Regime.A2, 3), (Regime.A4, 3))]
    # known/known bounds depend on the overlap: also at its edges and at 1/sqrt(2)
    + [_psd_case(Regime.A4, d, b) for d in (2, 3) for b in (0.0, 1 / np.sqrt(2), 0.99)],
)
def test_feasible_iff_psd(regime, dim, beta):
    """The analytic predicate and the eigenvalue check agree on random samples.

    Qutrit unknown/unknown draws alternate between equal per-index
    coefficients, which the simplex decides, and unequal ones, which
    ``feasible`` decides only when they break the per-index bounds.
    """
    rng = np.random.default_rng(zlib.crc32(f"{regime.value} {dim} {beta} agree".encode()))
    case = KnowledgeCase(regime, dim)
    pair = pair_with_overlap(dim, beta, 0.5, seed=28)
    for draw in range(200):
        if case.family is Family.UNKNOWN_UNKNOWN and dim == 3 and draw % 2 == 0:
            lam = LambdaParams.of((rng.uniform(0, 1.1),) * 3, (rng.uniform(0, 1.1),) * 3)
        elif case.family is Family.UNKNOWN_UNKNOWN:
            n = 1 if dim == 2 else 3
            lam = LambdaParams.of(rng.uniform(0, 1.1, n), rng.uniform(0, 1.1, n))
        elif case.family is Family.KNOWN_UNKNOWN:
            n = dim - 1
            lam = LambdaParams.of(rng.uniform(0, 1, n), rng.uniform(0, 1, n), rng.uniform(0, 1, n * n))
        else:
            lam = LambdaParams.of(rng.uniform(0, 1), rng.uniform(0, 1))
        kwargs = {"beta": beta} if case.family is Family.KNOWN_KNOWN else {}
        try:
            ok = feasible(case, lam, **kwargs)
        except ValueError:  # no closed form: nothing analytic to compare
            assert dim == 3 and case.family is Family.UNKNOWN_UNKNOWN and draw % 2 == 1
            continue
        try:
            povm = build_for_case(case, pair, lam)
        except ValueError:
            assert not ok
            continue
        min_eig = min(validate(povm).min_eigenvalues)
        if ok:
            assert min_eig >= -1e-9
        else:
            assert min_eig < 1e-12  # at worst marginal; never comfortably PSD


# fl(1 + 1e-12) = 1 + 1.0000889e-12: the least float whose margin 1 - x breaks FEASIBILITY_SLACK
ONE_UP = 1.0 + 1e-12
EDGES = [0.0, 5e-324, 1e-17, 5e-17, 1e-16, 2e-16, 1e-13, 1e-12, 0.25, 1 / 3, 0.5, 2 / 3, 0.75, 1 - 1e-12, 1 - 2**-53,
         1.0, 1 + 2**-52, float(np.nextafter(ONE_UP, 0)), ONE_UP, float(np.nextafter(ONE_UP, 2)), 1 + 2e-12]
# one regime per family and dim; the qutrit unknown/unknown rows are equal per index, which the simplex decides
SLACK_CASES = [KnowledgeCase(r, d) for r in (Regime.B1, Regime.B2, Regime.B4) for d in (2, 3)]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(hs.sampled_from(SLACK_CASES), hs.sampled_from([0.0, 2**-0.5, 0.5, 0.99]) | hs.floats(0.0, 0.99),
       hs.sampled_from(EDGES) | hs.floats(0.0, 1.0), hs.sampled_from(EDGES) | hs.floats(0.0, 1.0))
def test_feasible_iff_psd_at_the_slack_edge(case, beta, l1, l3):
    """At the family's boundary projection of ``l1``, its neighbouring floats and a few slacks off it,
    ``feasible`` agrees with the least eigenvalue of pi0, as in ``test_feasible_iff_psd``.

    ``l3`` fills the known/unknown ``lam3`` block; the other families have none.
    """
    _, boundary = strategies.REGIONS[case.family, case.dim]
    top = float(boundary(np.float64(l1), beta))
    kwargs = {"beta": beta} if case.family is Family.KNOWN_KNOWN else {}
    pair = pair_with_overlap(case.dim, beta, 0.5, seed=28)
    l2s = [top, np.nextafter(top, -1.0), np.nextafter(top, 2.0)] + [top + d for d in (1e-12, 2e-12, 1e-9, 1e-6)]
    l2s += [top - d for d in (1e-12, 2e-12, 1e-9)]
    for l2 in (float(x) for x in l2s if x >= 0.0):
        blocks = (l1, l2, l3) if case.family is Family.KNOWN_UNKNOWN else (l1, l2)
        lam = strategies.symmetric_lambda(case, blocks)
        ok = feasible(case, lam, **kwargs)
        try:
            povm = build_for_case(case, pair, lam)
        except ValueError:  # a known family's coefficient above the box
            assert not ok
            continue
        least = min_eigenvalue(povm.pi0)
        assert (least >= -PSD_TOL) if ok else (least < 1e-12), (blocks, least)


def test_verdicts_at_one_plus_slack_are_pinned():
    """Every inequality reads ``margin >= -FEASIBILITY_SLACK``, so a margin of 1 - fl(1 + 1e-12) fails.

    The form ``x <= 1 + FEASIBILITY_SLACK`` would accept these points, in the box, the builders and the
    simplex alike: its right side rounds to fl(1 + 1e-12) itself.
    """
    assert 1.0 - ONE_UP < -FEASIBILITY_SLACK <= 1.0 - np.nextafter(ONE_UP, 0)
    below = float(np.nextafter(ONE_UP, 0))
    b1 = KnowledgeCase(Regime.B1, 3)
    for a in (0.1, 1 / 3, 0.5, 0.7, 0.9):  # equal qutrit rows whose computed simplex sum is fl(1 + 1e-12)
        b = ONE_UP - a
        assert (3.0 * a + 3.0 * b) / 3.0 == ONE_UP
        for l1, l2 in ((a, b), (b, a)):
            assert not feasible(b1, LambdaParams.of((l1,) * 3, (l2,) * 3))
    for small in (0.0, 5e-324, 1e-17, 5e-17, 1e-16, 2e-16):  # equal rows with fl(1 + 1e-12): the box rejects them
        assert not feasible(b1, LambdaParams.of((ONE_UP,) * 3, (small,) * 3))
        assert not feasible(b1, LambdaParams.of((small,) * 3, (ONE_UP,) * 3))
    # a coefficient of exactly fl(1 + 1e-12): feasible and the known-family builders reject it, not its lower neighbour
    for dim in (2, 3):
        pair = pair_with_overlap(dim, 0.0, 0.5, seed=0)
        b4 = KnowledgeCase(Regime.B4, dim)
        for l1 in (0.25, 1 / 3, 0.5, 2 / 3, 0.75, 1 - 1e-12, 1 - 2**-53, 1.0, 1 + 2**-52, below):
            assert not feasible(b4, LambdaParams.of(l1, ONE_UP), beta=0.0)
            assert feasible(b4, LambdaParams.of(l1, below), beta=0.0)
            with pytest.raises(ValueError, match=r"^lam2 components must lie in \[0, 1\], got 1\.000000000001$"):
                build_for_case(b4, pair, LambdaParams.of(l1, ONE_UP))
            build_for_case(b4, pair, LambdaParams.of(l1, below))
        b2, n = KnowledgeCase(Regime.B2, dim), dim - 1
        assert not feasible(b2, LambdaParams.of((0.5,) * n, (0.5,) * n, (ONE_UP,) * n * n))
        assert feasible(b2, LambdaParams.of((0.5,) * n, (0.5,) * n, (below,) * n * n))
        with pytest.raises(ValueError, match=r"^lam3 components must lie in \[0, 1\], got 1\.000000000001$"):
            build_for_case(b2, pair, LambdaParams.of((0.5,) * n, (0.5,) * n, (ONE_UP,) * n * n))


def test_per_index_qutrit_constraints_are_insufficient():
    """Frozen counterexample: the per-index inequalities admit coefficient
    choices that are not measurements.  At equal coefficients 2/3 the
    totally antisymmetric three-register direction gives the inconclusive
    element expectation 1 - 4/3 = -1/3 exactly."""
    lam = LambdaParams.of((2 / 3,) * 3, (2 / 3,) * 3)
    assert all(pair_program_ok(a, b) for a, b in zip(lam.lam1, lam.lam2))
    assert not feasible(KnowledgeCase(Regime.A1, 3), lam)
    povm = build_unknown_unknown(3, lam)
    omega = np.zeros(27, dtype=complex)
    from itertools import permutations

    for perm in permutations(range(3)):
        sign = 1 if perm in ((0, 1, 2), (1, 2, 0), (2, 0, 1)) else -1
        v = kron(kron(np.eye(3)[perm[0]], np.eye(3)[perm[1]]), np.eye(3)[perm[2]])
        omega += sign * v
    omega /= np.linalg.norm(omega)
    assert expectation(omega, povm.pi0) == pytest.approx(-1 / 3, abs=1e-12)
    assert min_eigenvalue(povm.pi0) <= -1 / 3 + 1e-12


def test_qutrit_pair_program_corrected_region():
    # equal per-index coefficients: PSD exactly on the simplex lam1 + lam2 <= 1
    rng = np.random.default_rng(29)
    case = KnowledgeCase(Regime.B1, 3)
    for _ in range(60):
        l1, l2 = rng.uniform(0, 1.1, 2)
        lam = LambdaParams.of((l1,) * 3, (l2,) * 3)
        povm = build_unknown_unknown(3, lam)
        psd = min_eigenvalue(povm.pi0) >= -1e-9
        assert feasible(case, lam) == psd == (l1 + l2 <= 1.0 + 1e-9)


def test_infeasible_coefficients_have_negative_eigenvalue():
    # pushing past the boundary by >= 1e-3 leaves a clearly negative eigenvalue
    offsets = 1e-3 / np.sqrt(2)
    cases = [
        (build_unknown_unknown, (2, LambdaParams.of(2 / 3 + offsets, 2 / 3 + offsets))),
        (build_unknown_unknown, (3, LambdaParams.of((0.5 + offsets,) * 3, (0.5 + offsets,) * 3))),
    ]
    for builder, args in cases:
        assert min_eigenvalue(builder(*args).pi0) <= -1e-6
    pair = pair_with_overlap(2, 0.5, 0.5, seed=30)
    lam = LambdaParams.of(2 / 3 + offsets, 2 / 3 + offsets)  # boundary of the direct case at beta=0.5
    povm = build_known_known(pair.psi1, pair.psi2, lam)
    assert min_eigenvalue(povm.pi0) <= -1e-6
