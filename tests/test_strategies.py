import math

import numpy as np
import pytest

from unambig.cases import ALL_REGIMES, KnowledgeCase, Regime
from unambig.povm import LambdaParams, success_probabilities
from unambig.states import pair_with_overlap
from unambig import strategies as st


QUBIT_CASES = [KnowledgeCase(r, 2) for r in ALL_REGIMES]
SQRT5 = math.sqrt(5.0)


def test_feasible_zero_slack_points():
    assert st.feasible(KnowledgeCase(Regime.A1, 2), LambdaParams.of(2 / 3, 2 / 3))
    assert st.feasible(KnowledgeCase(Regime.A2, 2), LambdaParams.of(3 - SQRT5, (3 - SQRT5) / 2, 1.0))
    # exact zero slack: 1 - l1 - l2 + l1 l2 / 2 == 0 at that point
    l1, l2 = 3 - SQRT5, (3 - SQRT5) / 2
    assert abs(1 - l1 - l2 + 0.5 * l1 * l2) < 1e-15


def test_feasible_rejections():
    assert not st.feasible(KnowledgeCase(Regime.A4, 2), LambdaParams.of(1.0, 1.0), beta=0.5)
    assert not st.feasible(KnowledgeCase(Regime.A1, 2), LambdaParams.of(1.0, 1.0))
    assert not st.feasible(KnowledgeCase(Regime.A2, 2), LambdaParams.of(1.0, 1.0, 1.0))
    with pytest.raises(ValueError, match="beta"):
        st.feasible(KnowledgeCase(Regime.A1, 2), LambdaParams.of(0.1, 0.1), beta=0.5)
    with pytest.raises(ValueError, match="beta"):
        st.feasible(KnowledgeCase(Regime.A4, 2), LambdaParams.of(0.1, 0.1))


def test_optimal_lambda_examples():
    assert st.optimal_lambda(KnowledgeCase(Regime.A1, 2), eta1=0.5).flat == pytest.approx((2 / 3, 2 / 3))
    assert st.optimal_lambda(KnowledgeCase(Regime.A1, 2), eta1=0.1).flat == (0.0, 1.0)
    assert st.optimal_lambda(KnowledgeCase(Regime.B2, 2)).flat == pytest.approx((3 - SQRT5, (3 - SQRT5) / 2, 1.0))
    assert st.optimal_lambda(KnowledgeCase(Regime.B4, 2), beta=0.5).flat == pytest.approx((2 / 3, 2 / 3))
    b3_at_1 = st.optimal_lambda(KnowledgeCase(Regime.B3, 2), beta=1.0)
    assert b3_at_1.flat == pytest.approx((3 - SQRT5, (3 - SQRT5) / 2, 1.0))
    assert st.optimal_lambda(KnowledgeCase(Regime.B3, 2), beta=0.3).flat == (1.0, 0.0, 1.0)


def test_optimal_lambda_enforces_information_structure():
    with pytest.raises(ValueError, match="must not receive: beta"):
        st.optimal_lambda(KnowledgeCase(Regime.A1, 2), beta=0.3, eta1=0.5)
    with pytest.raises(ValueError, match="missing required input"):
        st.optimal_lambda(KnowledgeCase(Regime.A3, 2), beta=0.3)
    with pytest.raises(ValueError, match="must not receive"):
        st.optimal_lambda(KnowledgeCase(Regime.B1, 2), eta1=0.5)
    with pytest.raises(ValueError, match="must not receive: eta1"):
        st.optimal_lambda(KnowledgeCase(Regime.B4, 2), beta=0.5, eta1=0.5)


def test_success_probability_examples():
    assert st.success_probability(KnowledgeCase(Regime.A1, 2), 0.0, 0.5).p_analytic == pytest.approx(1 / 3)
    assert st.success_probability(KnowledgeCase(Regime.A4, 2), 0.5, 0.5).p_analytic == pytest.approx(0.5)
    assert st.success_probability(KnowledgeCase(Regime.B4, 2), 0.3, 0.9).p_analytic == pytest.approx(0.7)
    assert st.success_probability(KnowledgeCase(Regime.B2, 2), 0.0, 0.0).p_analytic == pytest.approx(1.0)
    r = st.success_probability(KnowledgeCase(Regime.A1, 2), 0.0, 0.1)
    assert r.p_analytic == pytest.approx(0.45) and r.branch == "eta1<=1/5"


@pytest.mark.parametrize("case", [KnowledgeCase(r, d) for r in ALL_REGIMES for d in (2, 3)],
                         ids=lambda c: str(c))
def test_identical_states_cannot_be_discriminated(case):
    for eta1 in (0.0, 0.3, 1.0):
        assert st.success_probability(case, 1.0, eta1).p_analytic == pytest.approx(0.0, abs=1e-12)


def test_a1_b1_equalizer_consistency():
    for beta in np.linspace(0, 1, 21):
        expected = (1 - beta**2) / 3
        assert st.p0_opt(beta, 0.5) == pytest.approx(expected, abs=1e-12)
        assert st.p0_weta(beta) == pytest.approx(expected, abs=1e-12)


def _branch_points(case, beta):
    b2 = beta * beta
    r = case.regime
    if r is Regime.A1:
        return [0.2, 0.8]
    if r is Regime.A2:
        return [0.5, 0.8]
    if r is Regime.A3:
        return [b2 / (1 + b2), 4 * b2 / (1 + 4 * b2)]
    if r is Regime.A4:
        return [b2 / (1 + b2), 1 / (1 + b2)]
    return []


@pytest.mark.parametrize("regime", [Regime.A1, Regime.A2, Regime.A3, Regime.A4])
def test_branch_continuity_in_prior(regime):
    case = KnowledgeCase(regime, 2)
    for beta in np.linspace(0.05, 0.95, 10):
        for t in _branch_points(case, beta):
            if not 0 < t < 1:
                continue
            below = st.success_probability(case, beta, t).p_analytic
            above = st.success_probability(case, beta, np.nextafter(t, 1.0)).p_analytic
            assert abs(below - above) <= 1e-9


def test_branch_continuity_b3_in_overlap():
    t = math.sqrt(0.5)
    for eta1 in np.linspace(0, 1, 11):
        below = st.p1plus_actual(t, eta1)
        above = st.p1plus_actual(np.nextafter(t, 1.0), eta1)
        assert abs(below - above) <= 1e-9
    assert abs(st.p1plus_weta(t) - st.p1plus_weta(np.nextafter(t, 1.0))) <= 1e-9
    assert st.p1plus_weta(t) == pytest.approx(0.25, abs=1e-12)


@pytest.mark.parametrize("case", [KnowledgeCase(r, d) for r in ALL_REGIMES for d in (2, 3)],
                         ids=lambda c: str(c))
def test_optimal_lambda_always_feasible(case):
    for beta in np.linspace(0, 1, 9):
        for eta1 in np.linspace(0, 1, 9):
            kwargs = {}
            if case.regime.knows_beta:
                kwargs["beta"] = float(beta)
            if case.regime.knows_eta1:
                kwargs["eta1"] = float(eta1)
            lam = st.optimal_lambda(case, **kwargs)
            feas_kwargs = {"beta": float(beta)} if case.family.value == "known_known" else {}
            if case.family.value == "known_known" and beta == 1.0:
                continue  # degenerate pair: no measurement exists
            assert st.feasible(case, lam, **feas_kwargs), (case, beta, eta1, lam)


def test_worst_case_values():
    r = st.success_probability(KnowledgeCase(Regime.B3, 2), 0.9, 0.4)
    assert r.worst_case_value == pytest.approx(st.p1plus_weta(0.9))
    assert r.p_analytic == pytest.approx(st.p1plus_actual(0.9, 0.4))
    r = st.success_probability(KnowledgeCase(Regime.B2, 2), 0.5, 0.5)
    assert r.worst_case_value == pytest.approx((3 - SQRT5) / 2)
    r = st.success_probability(KnowledgeCase(Regime.A2, 2), 0.5, 0.65)
    lam = r.lam
    assert r.worst_case_value == pytest.approx(0.5 * lam.lam1[0] * 0.65 + lam.lam2[0] * 0.35)
    assert st.success_probability(KnowledgeCase(Regime.A4, 2), 0.5, 0.5).worst_case_value is None


def test_qutrit_direct_cases_reduce_to_qubit():
    for regime in (Regime.A4, Regime.B4):
        for beta in np.linspace(0, 1, 11):
            for eta1 in np.linspace(0, 1, 11):
                p2d = st.success_probability(KnowledgeCase(regime, 2), beta, eta1).p_analytic
                p3d = st.success_probability(KnowledgeCase(regime, 3), beta, eta1).p_analytic
                assert abs(p2d - p3d) <= 1e-10


# the POVM route on concrete qutrit pairs against the closed forms
QUTRIT_BETAS = (0.0, 0.3, 1 / math.sqrt(2), 0.95)
QUTRIT_ETAS = (0.0, 0.4, 1.0)
QUTRIT_SEEDS = (3, 17, 2024)


def _assert_povm_matches_closed_form(case):
    for beta in QUTRIT_BETAS:
        for eta1 in QUTRIT_ETAS:
            res = st.success_probability(case, beta, eta1)
            for seed in QUTRIT_SEEDS:
                pair = pair_with_overlap(case.dim, beta, eta1, seed=seed)
                p1, p2 = success_probabilities(case, pair, res.lam)
                p_povm = eta1 * p1 + (1.0 - eta1) * p2
                assert abs(p_povm - res.p_analytic) <= 1e-10, (case, beta, eta1, seed)


@pytest.mark.parametrize("regime", [Regime.A2, Regime.A3, Regime.B2, Regime.B3])
def test_qutrit_single_program_matches_qubit_surface(regime):
    # the qutrit POVM on random pairs lands on the qubit closed form
    _assert_povm_matches_closed_form(KnowledgeCase(regime, 3))


def test_qutrit_pair_program_corrected_strategies():
    # the naive per-index coefficients are not a measurement; the corrected ones are
    naive = LambdaParams.of((2 / 3,) * 3, (2 / 3,) * 3)
    assert not st.feasible(KnowledgeCase(Regime.B1, 3), naive)
    corrected = st.optimal_lambda(KnowledgeCase(Regime.B1, 3))
    assert corrected.flat == (0.5,) * 3 + (0.5,) * 3
    assert st.feasible(KnowledgeCase(Regime.B1, 3), corrected)
    assert st.success_probability(KnowledgeCase(Regime.B1, 3), 0.4, 0.5).p_analytic == pytest.approx(
        0.25 * (1 - 0.16), abs=1e-10
    )
    a1 = st.success_probability(KnowledgeCase(Regime.A1, 3), 0.4, 0.8)
    assert a1.lam.flat == (1.0,) * 3 + (0.0,) * 3
    assert a1.p_analytic == pytest.approx(0.5 * 0.8 * (1 - 0.16), abs=1e-10)
    for regime in (Regime.A1, Regime.B1):
        _assert_povm_matches_closed_form(KnowledgeCase(regime, 3))


def test_surface_registry_consistency():
    for name, fn in st.SURFACES.items():
        val = fn(0.3, 0.6)
        assert 0.0 <= val <= 1.0, name
    for name, (hi, lo) in st.DIFFERENCE_SURFACES.items():
        assert hi in st.SURFACES and lo in st.SURFACES
