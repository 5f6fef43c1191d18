import hashlib
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


# every surface of the module, by name: the 9 of SURFACES and the two qutrit ones
ALL_SURFACES = {**st.SURFACES, "p0_opt_qutrit": st.p0_opt_qutrit, "p0_weta_qutrit": st.p0_weta_qutrit}


def _edge_axes():
    """(betas, etas) holding every branch threshold with its neighbours on both sides.

    The eta1 thresholds of each listed beta are computed as the surfaces
    compute them, so the product grid hits each one exactly.
    """
    betas = {0.0, 0.3, 0.5, 0.9, 1.0}
    betas |= {float(np.nextafter(st.SQRT_HALF, t)) for t in (0.0, 1.0)} | {st.SQRT_HALF}
    etas = {0.0, 0.2, 0.5, 0.8, 1.0}
    for beta in betas:
        b2 = beta * beta
        etas |= {b2 / (1.0 + b2), 4.0 * b2 / (1.0 + 4.0 * b2), 1.0 / (1.0 + b2)}
    etas = {float(np.nextafter(e, t)) for e in etas for t in (0.0, 1.0)} | etas
    return np.array(sorted(betas)), np.array(sorted(etas))


# sha256 of the per-cell scalar loop's float64 bytes on the edge grid, recorded with the scalar if-chains
_EDGE_DIGESTS = {
    "p0_opt": "b0610f4f8d53bf150ab5d6c38730eb0aed161d20df6c81d153662d45267cf0f5",
    "p0_opt_qutrit": "74145b9dd346df9af94849e8895de48ffad0c06edabf4c1663cc2394adc8c447",
    "p0_weta": "675e6dd79c34beb4638bcc237e0ef3d21b3f38e382149537cf515f2a9f611fc1",
    "p0_weta_qutrit": "057ee38657bfc4d2ad2bfdb11d46f092030b9ba19837e552888a804a33fd4d11",
    "p1_wbeta": "19648f0c8034f01b9a8301784edece289cf1fbae3520d50430d6628756a4075f",
    "p1_wbetaeta": "f7e0747a810525c4ed680072964aa002dc8f5c3097666144a588864c1976fb76",
    "p1plus_actual": "79fe61668e764c6ae8ff4a89f3d28d93479edf8f80db6a8da04360defa72a37f",
    "p1plus_opt": "38a5199a2c692de69c10261d59fd8a58807a875ee69f31a50fa31e78b4923e5c",
    "p1plus_weta": "5259e3e31f537c826f1bb79f87c657dbadd7a6c85b0b6f0211d44f6e4f1ec008",
    "p2_opt": "e1146cec58a2d6be188685181526ff60af738561414b2029373c4db8daab74fa",
    "p2_weta": "af4e2985658724945c6758c3a313d0eb42a494633d2e872669f745ab42c18301",
}


@pytest.mark.parametrize("name", sorted(ALL_SURFACES))
def test_surface_on_a_grid_equals_its_per_cell_scalar_loop(name):
    fn = ALL_SURFACES[name]
    betas, etas = _edge_axes()
    loop = np.array([[fn(float(b), float(e)) for b in betas] for e in etas])
    assert hashlib.sha256(loop.tobytes()).hexdigest() == _EDGE_DIGESTS[name]
    eta_grid, beta_grid = np.meshgrid(etas, betas, indexing="ij")
    assert np.array_equal(np.broadcast_to(fn(beta_grid, eta_grid), loop.shape), loop)
    assert isinstance(fn(0.3, 0.6), float)


# sha256 of repr() of the per-point results on the edge grid, recorded with the scalar surfaces
_RESULT_DIGESTS = {
    "a1/dim2": "6da5af7e15b7e64ace2fddc1bc92eb368163c1fa02dc0ad64a82bf32a36d69ba",
    "a2/dim2": "76c410b9254a53a18e7d4a7f18ddd4d2a7a8a3c2b5a352f99cfaff8b34dae090",
    "a3/dim2": "58832062845de0ce6698d26351dac2585e68198b035f140cc5ef370d1c967084",
    "a4/dim2": "09f5ef8d4da335d4c82c3c7b913fee56ecbc9ccfe63f8527ac5601be81a061e6",
    "b1/dim2": "305ec8f60d5eaf1bf74d81a3936e7f7aa04dd8c89c23a854a608bc088f0c9c24",
    "b2/dim2": "f8de77935fc6d620f01de2e5bcb74a27d3eca5eaa96c78308a68176d971dc4a3",
    "b3/dim2": "505403e2bb529e2b576ebf46fb3917ae2b8fb48a43eb8ea3a5a4bdf1737d242e",
    "b4/dim2": "27956497756d37e26f1ecc6ae8ae86d3813e68bfe2cf604e489a9ef71caa543e",
    "a1/dim3": "181b2b9aef3961847a0c0f1e34e66040633847cf695cafd1674e8a17cf281f20",
    "a2/dim3": "6fa29d1d9b9cc89ecf1dfadba44011726e320241602d6f336791bdb2cfd3f235",
    "a3/dim3": "b4e1eeb3a18087c4ceac45a1c1b6856be7b824d1fd4b8a1170a63456a709dbba",
    "a4/dim3": "7f7571455e2d51bf9c44fec16c654dc7cbaebf58e479e14e2f1eda808a9ba9b9",
    "b1/dim3": "fef81527d1e3628458978edb967ffaeaf252cbdb63b0a38f95d3ac999f757012",
    "b2/dim3": "6c6b4211ab6dff5d92407aeaca50a85effbe0b04f46e6706dd133b515719864a",
    "b3/dim3": "26003d31695a60935c546dc9901a9fa67fe3be279a8c0f5f526dd46f44d2bc74",
    "b4/dim3": "86e286a5ed9247b3a83d4590d2ed3afd8270ca4423ccb4a113d40d1a26014baf",
}


@pytest.mark.parametrize("case", [KnowledgeCase(r, d) for r in ALL_REGIMES for d in (2, 3)],
                         ids=lambda c: str(c))
def test_success_probability_on_arrays_equals_per_point_calls(case):
    betas, etas = _edge_axes()
    eta_grid, beta_grid = np.meshgrid(etas, betas, indexing="ij")
    betas, etas = beta_grid.ravel(), eta_grid.ravel()
    stacked = st.success_probability(case, betas, etas)
    singles = [st.success_probability(case, b, e) for b, e in zip(betas.tolist(), etas.tolist())]
    assert hashlib.sha256(repr(singles).encode()).hexdigest() == _RESULT_DIGESTS[str(case)]
    assert stacked == singles
    for res in stacked:
        assert type(res.p_analytic) is float
        assert res.worst_case_value is None or type(res.worst_case_value) is float


def test_success_probability_arrays_reject_bad_entries():
    case = KnowledgeCase(Regime.A3, 2)
    with pytest.raises(ValueError, match=r"^beta must lie in \[0, 1\], got 1\.5$"):
        st.success_probability(case, np.array([0.2, 1.5, -1.0]), np.array([0.1, 0.2, 0.3]))
    with pytest.raises(ValueError, match=r"^eta1 must lie in \[0, 1\], got -0\.25$"):
        st.success_probability(case, np.array([0.2, 0.4]), np.array([-0.25, 0.5]))
    with pytest.raises(ValueError, match="equal-length"):
        st.success_probability(case, np.array([0.2, 0.4]), np.array([0.1, 0.2, 0.3]))
