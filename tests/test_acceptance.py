"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines.
"""

import json
import math
import zlib

import numpy as np
import pytest

from unambig.cases import ALL_REGIMES, Family, KnowledgeCase, Regime
from unambig.cli import main as cli_main
from unambig.linalg import expectation
from unambig.povm import (
    LambdaParams,
    build_for_case,
    build_unknown_unknown,
    input_states,
    success_probabilities,
    validate,
)
from unambig import optimizer as opt
from unambig import simulate as sim
from unambig import strategies as st
from unambig.states import pair_with_overlap

from lone_states import min_eigenvalue

SQRT5 = math.sqrt(5.0)
GRID_05 = np.round(np.arange(0.0, 1.0001, 0.05), 10)
GRID_01 = np.round(np.arange(0.0, 1.0001, 0.01), 10)


def report(criterion: int, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: PASS — {detail}")


def test_criterion_1_closed_form_vs_oracle():
    import time

    start = time.time()
    worst = {}
    for regime in ALL_REGIMES:
        rep = opt.verify_case(KnowledgeCase(regime, 2), grid_step=0.05, resolution=1e-3)
        worst[regime.value] = rep.max_deviation
        assert rep.max_deviation <= 2e-3, (regime, rep.max_deviation, rep.worst_point)
    elapsed = time.time() - start
    assert elapsed < 120.0
    report(1, f"all 8 qubit cases within 2e-3 of the oracle on the 0.05 grid in {elapsed:.0f}s; "
              + ", ".join(f"{k}={v:.1e}" for k, v in worst.items()))


def test_criterion_2_specific_values():
    outer = middle = 0
    for beta in GRID_05:
        assert st.p0_weta(float(beta)) == pytest.approx((1 - beta**2) / 3, abs=1e-15)
        assert st.p2_weta(float(beta)) == pytest.approx(1 - beta, abs=1e-15)
        # the IDP bound at equal priors (Ivanovic 1987; Dieks 1988; Peres 1988)
        assert st.p2_opt(float(beta), 0.5) == pytest.approx(1 - beta, abs=1e-15)
        # the Jaeger-Shimony branches (PLA 197, 83, 1995): the two outer ones measure only the
        # likelier state, the middle one is the unequal-prior generalization of the IDP bound
        for eta1 in GRID_05:
            if eta1 <= beta**2 / (1 + beta**2):
                assert st.p2_opt(float(beta), float(eta1)) == pytest.approx((1 - eta1) * (1 - beta**2), abs=1e-15)
                outer += 1
            elif eta1 > 1 / (1 + beta**2):
                assert st.p2_opt(float(beta), float(eta1)) == pytest.approx(eta1 * (1 - beta**2), abs=1e-15)
                outer += 1
            else:
                expected = 1 - 2 * beta * math.sqrt(eta1 * (1 - eta1))
                assert st.p2_opt(float(beta), float(eta1)) == pytest.approx(expected, abs=1e-15)
                middle += 1
    assert outer > 0 and middle > 0
    assert st.p2_opt(0.5, 0.5) == pytest.approx(0.5, abs=1e-15)
    res = opt.solve_maximin(opt.case_problem(KnowledgeCase(Regime.B2, 2)), resolution=2e-4)[0]
    target = (3 - SQRT5, (3 - SQRT5) / 2, 1.0)
    for got, want in zip(res.lambda_star, target):
        assert abs(got - want) <= 1e-3, (res.lambda_star, target)
    report(2, f"B1=(1-b^2)/3 and B4=1-b exact; IDP bound, {outer} outer and {middle} middle Jaeger-Shimony points exact; A4(0.5,0.5)=0.5; "
              f"B2 coefficients recovered to {max(abs(g - w) for g, w in zip(res.lambda_star, target)):.1e}")


def _feasible_or_psd(case: KnowledgeCase, lam: LambdaParams, **kwargs) -> bool:
    """``st.feasible``, or the eigenvalue check where it has no closed form (unequal qutrit unknown/unknown rows)."""
    try:
        return st.feasible(case, lam, **kwargs)
    except ValueError:
        if (case.family, case.dim) != (Family.UNKNOWN_UNKNOWN, 3):
            raise
        return all(validate(build_unknown_unknown(3, lam)).psd_ok)


def _feasible_samples(case: KnowledgeCase, rng, beta: float, n: int = 20):
    out = []
    while len(out) < n:
        if case.family is Family.UNKNOWN_UNKNOWN:
            k = 1 if case.dim == 2 else 3
            if case.dim == 3 and len(out) % 2 == 0:
                l1 = rng.uniform(0, 1)
                lam = LambdaParams.of((l1,) * 3, (rng.uniform(0, 1 - l1),) * 3)
            else:
                lam = LambdaParams.of(rng.uniform(0, 1, k), rng.uniform(0, 1, k))
        elif case.family is Family.KNOWN_UNKNOWN:
            k = case.dim - 1
            lam = LambdaParams.of(rng.uniform(0, 1, k), rng.uniform(0, 1, k), rng.uniform(0, 1, k * k))
        else:
            lam = LambdaParams.of(rng.uniform(0, 1), rng.uniform(0, 1))
        kwargs = {"beta": beta} if case.family is Family.KNOWN_KNOWN else {}
        if _feasible_or_psd(case, lam, **kwargs):
            out.append(lam)
    return out


def _boundary_lambda(case: KnowledgeCase, l1: float, beta: float) -> LambdaParams:
    if case.family is Family.UNKNOWN_UNKNOWN:
        if case.dim == 2:
            return LambdaParams.of(l1, (1 - l1) / (1 - 0.75 * l1))
        return LambdaParams.of((l1,) * 3, (1 - l1,) * 3)
    if case.family is Family.KNOWN_UNKNOWN:
        k = case.dim - 1
        return LambdaParams.of((l1,) * k, ((1 - l1) / (1 - 0.5 * l1),) * k, (1.0,) * (k * k))
    return LambdaParams.of(l1, (1 - l1) / (1 - (1 - beta**2) * l1))


def _pushed_out(lam: LambdaParams, distance: float = 1.5e-3) -> LambdaParams:
    l1, l2 = np.array(lam.lam1), np.array(lam.lam2)
    norm = math.sqrt(float(l1[0] ** 2 + l2[0] ** 2))
    scale = 1.0 + distance / norm
    return LambdaParams(tuple(l1 * scale), tuple(l2 * scale), lam.lam3)


FAMILY_DIMS = [
    (Regime.A1, 2), (Regime.A1, 3),  # unknown/unknown (shared with B1)
    (Regime.A2, 2), (Regime.A2, 3),  # known/unknown (shared with A3, B2, B3)
    (Regime.A4, 2), (Regime.A4, 3),  # known/known (shared with B4)
]


def test_criterion_3_povm_structural_suite():
    checked = 0
    for regime, dim in FAMILY_DIMS:
        case = KnowledgeCase(regime, dim)
        rng = np.random.default_rng(zlib.crc32(f"{regime.value} {dim} struct".encode()))
        beta_fixed = 0.6
        lams = _feasible_samples(case, rng, beta_fixed)
        # one stacked pair of 100 rows, all drawn from rng
        betas = np.full(100, beta_fixed) if case.family is Family.KNOWN_KNOWN else rng.uniform(0, 0.99, 100)
        pairs = pair_with_overlap(dim, betas, np.full(100, 0.5), rng)
        # element eigenvalues are basis independent, so PSD is per-lam for
        # the families whose operators depend on the states only through
        # a unitary; the known/known elements also depend only on beta,
        # fixed here
        for lam in lams:
            rep = validate(build_for_case(case, pairs[0], lam))
            assert all(rep.psd_ok), (case, lam, rep.min_eigenvalues)
        # one stacked build and validation per pair, its row repeated once per coefficient vector;
        # test_stacked_measurements_match_single_points pins every stacked element to its lone build
        for k, pair in enumerate(pairs):
            povm = build_for_case(case, pairs[[k] * len(lams)], np.array([lam.flat for lam in lams]))
            rep = validate(povm)
            assert np.all(rep.completeness_residual <= 1e-10)
            in1, in2 = input_states(case, pair)
            assert np.all(expectation(in2, povm.pi1) <= 1e-12)
            assert np.all(expectation(in1, povm.pi2) <= 1e-12)
            checked += len(lams)
        # negative control: step across the boundary
        for l1 in (0.3, 0.5, 0.7):
            bad = _pushed_out(_boundary_lambda(case, l1, beta_fixed))
            povm = build_for_case(case, pairs[0], bad)
            assert min_eigenvalue(povm.pi0) <= -1e-6, (case, bad.flat)
    report(3, f"{checked} (pair x coefficients) combinations across all families/dims: "
              "PSD, complete, and error-free; boundary violations detected")


def test_criterion_4_expectations_match_closed_forms():
    rng = np.random.default_rng(44)
    n = 1000
    for _ in range(n):
        beta = float(rng.uniform(0, 0.99))
        b2 = beta * beta
        pair = pair_with_overlap(2, beta, 0.5, rng)
        l1, l2, l3 = (float(x) for x in rng.uniform(0, 1, 3))
        # two unknown states
        p1, p2 = success_probabilities(KnowledgeCase(Regime.A1, 2), pair, LambdaParams.of(l1 * 0.6, l2 * 0.6))
        assert abs(p1 - 0.5 * l1 * 0.6 * (1 - b2)) <= 1e-10
        assert abs(p2 - 0.5 * l2 * 0.6 * (1 - b2)) <= 1e-10
        # one known state
        p1, p2 = success_probabilities(KnowledgeCase(Regime.A2, 2), pair, LambdaParams.of(l1, l2, l3))
        assert abs(p1 - 0.5 * l1 * (1 - b2)) <= 1e-10
        assert abs(p2 - (l2 * b2 * (1 - b2) + l3 * (1 - b2) ** 2)) <= 1e-10
        # both known
        p1, p2 = success_probabilities(KnowledgeCase(Regime.A4, 2), pair, LambdaParams.of(l1 * 0.5, l2 * 0.5))
        assert abs(p1 - l1 * 0.5 * (1 - b2)) <= 1e-10
        assert abs(p2 - l2 * 0.5 * (1 - b2)) <= 1e-10
    report(4, f"measured p1/p2 match the analytic forms to 1e-10 over {n} random pairs x 3 families")


def test_criterion_5_piecewise_continuity():
    checked = 0
    for beta in np.linspace(0.0, 1.0, 41):
        b2 = float(beta) ** 2
        thresholds = {
            st.p0_opt: [0.2, 0.8],
            st.p1_wbeta: [0.5, 0.8],
            st.p1plus_opt: [b2 / (1 + b2), 4 * b2 / (1 + 4 * b2)],
            st.p2_opt: [b2 / (1 + b2), 1 / (1 + b2)],
        }
        for fn, points in thresholds.items():
            for t in points:
                if not 0.0 < t < 1.0:
                    continue
                assert abs(fn(float(beta), t) - fn(float(beta), float(np.nextafter(t, 1.0)))) <= 1e-9
                checked += 1
    t = math.sqrt(0.5)
    for eta1 in np.linspace(0.0, 1.0, 21):
        assert abs(st.p1plus_actual(t, float(eta1)) - st.p1plus_actual(np.nextafter(t, 1.0), float(eta1))) <= 1e-9
        checked += 1
    assert abs(st.p1plus_weta(t) - st.p1plus_weta(np.nextafter(t, 1.0))) <= 1e-9
    report(5, f"{checked + 1} branch boundaries continuous within 1e-9")


def _surface_table(name):
    fn = st.SURFACES[name]
    return np.array([[fn(float(b), float(e)) for b in GRID_01] for e in GRID_01])


def test_criterion_6_ordering_properties(capsys):
    tables = {name: _surface_table(name) for name in st.SURFACES}
    chain = ["p0_opt", "p1_wbeta", "p1plus_opt", "p2_opt"]
    for lo, hi in zip(chain, chain[1:]):
        assert (tables[hi] - tables[lo]).min() >= -1e-9, (lo, hi)
    for hi, lo in (("p0_opt", "p0_weta"), ("p1plus_opt", "p1plus_actual"), ("p2_opt", "p2_weta")):
        assert (tables[hi] - tables[lo]).min() >= -1e-9, (hi, lo)
    for name in ("p_0_to_1", "p_1_to_1plus", "p_1plus_to_2", "p0_prior_gain", "p1plus_prior_gain", "p2_prior_gain"):
        hi, lo = st.DIFFERENCE_SURFACES[name]
        assert (tables[hi] - tables[lo]).min() >= -1e-9, name

    # regime 1 (one state known): the prior-knowledge dominance claim is
    # falsified on a subregion; the counterexample is reported, not hidden
    diff = tables["p1_wbeta"] - tables["p1_wbetaeta"]
    violations = np.argwhere(diff < -1e-9)
    assert len(violations) > 0
    worst_idx = np.unravel_index(diff.argmin(), diff.shape)
    worst_cell = (float(GRID_01[worst_idx[1]]), float(GRID_01[worst_idx[0]]))
    assert diff.min() == pytest.approx(-(3 - SQRT5) / 4, abs=1e-9)
    assert worst_cell == (0.0, 0.5)
    with capsys.disabled():
        print(
            f"\n  reported counterexample: fixed worst-case strategy beats the "
            f"prior-adapted one on {len(violations)} of {diff.size} cells; "
            f"worst gap {diff.min():.6f} at (beta, eta1) = {worst_cell}"
        )
    code = cli_main(["sweep", "--surface", "p1_prior_gain", "--grid", "0.05", "--out", "/dev/null"])
    assert code == 1  # the sweep flags the violating cells too
    report(6, "knowledge chain and 3 of 4 prior dominances hold within 1e-9 on the 0.01 grid; "
              f"regime-1 prior dominance counterexample reported ({len(violations)} cells, "
              f"worst {diff.min():.4f} at beta=0, eta1=0.5) and flagged by the sweep command")


def test_criterion_7_qutrit_reduction_and_oracle():
    for regime in (Regime.A4, Regime.B4):
        for beta in GRID_05:
            for eta1 in GRID_05:
                p2d = st.success_probability(KnowledgeCase(regime, 2), float(beta), float(eta1)).p_analytic
                p3d = st.success_probability(KnowledgeCase(regime, 3), float(beta), float(eta1)).p_analytic
                assert abs(p2d - p3d) <= 1e-10
    # known/known reduction is operational, not just definitional
    rng = np.random.default_rng(77)
    for _ in range(5):
        beta = float(rng.uniform(0, 0.95))
        eta1 = float(rng.uniform(0, 1))
        pair = pair_with_overlap(3, beta, eta1, rng)
        lam = st.optimal_lambda(KnowledgeCase(Regime.A4, 3), beta=beta, eta1=eta1)
        p1, p2 = success_probabilities(KnowledgeCase(Regime.A4, 3), pair, lam)
        assert abs(eta1 * p1 + (1 - eta1) * p2 - st.p2_opt(beta, eta1)) <= 1e-10
    worst = {}
    for regime in (Regime.A2, Regime.A3, Regime.B2, Regime.B3):
        rep = opt.verify_case(KnowledgeCase(regime, 3), grid_step=0.1, resolution=1e-3)
        worst[regime.value] = rep.max_deviation
        assert rep.max_deviation <= 2e-3, (regime, rep.max_deviation)
    report(7, "dim-3 known/known equals dim-2 to 1e-10 (closed-form and operational); "
              "dim-3 one-state-known oracle matches the per-index strategies: "
              + ", ".join(f"{k}={v:.1e}" for k, v in worst.items()))


SPOT_CONFIGS = [
    (Regime.A1, 2, 0.3, 0.5), (Regime.A2, 2, 0.5, 0.7), (Regime.A3, 2, 0.6, 0.4),
    (Regime.A4, 2, 0.5, 0.5), (Regime.B1, 2, 0.4, 0.25), (Regime.B2, 2, 0.2, 0.6),
    (Regime.B3, 2, 0.8, 0.3), (Regime.B4, 2, 0.5, 0.8), (Regime.A2, 3, 0.4, 0.3),
    (Regime.B4, 3, 0.35, 0.15),
]


def test_criterion_8_monte_carlo_spot_checks():
    import time

    for i, (regime, dim, beta, eta1) in enumerate(SPOT_CONFIGS):
        case = KnowledgeCase(regime, dim)
        kwargs = {}
        if regime.knows_beta:
            kwargs["beta"] = beta
        if regime.knows_eta1:
            kwargs["eta1"] = eta1
        lam = st.optimal_lambda(case, **kwargs)
        pair = pair_with_overlap(dim, beta, eta1, seed=1000 + i)
        t0 = time.time()
        rep = sim.run(sim.SimConfig(sim.outcome_probabilities(case, pair, lam), eta1, 10**6, seed=2000 + i))
        elapsed = time.time() - t0
        assert elapsed < 60.0
        p = st.success_probability(case, beta, eta1).p_analytic
        sigma = math.sqrt(p * (1 - p) / 10**6)
        assert abs(rep.estimated_success - p) <= 4 * max(sigma, 1e-9), (case, rep.estimated_success, p)
        assert rep.n_error == 0
    report(8, f"{len(SPOT_CONFIGS)} configurations at 1e6 shots within 4 sigma, zero errors")


def test_criterion_9_byte_determinism(tmp_path):
    sim_args = ["simulate", "--case", "a3", "--dim", "2", "--beta", "0.6", "--eta1", "0.4",
                "--shots", "300000", "--seed", "99"]
    sweep_args = ["sweep", "--surface", "p1plus_opt", "--grid", "0.02"]
    blobs = []
    for tag in ("one", "two"):
        sim_out = tmp_path / f"sim_{tag}.json"
        sweep_out = tmp_path / f"sweep_{tag}.csv"
        assert cli_main(sim_args + ["--out", str(sim_out)]) == 0
        assert cli_main(sweep_args + ["--out", str(sweep_out)]) == 0
        blobs.append((sim_out.read_bytes(), sweep_out.read_bytes()))
    assert blobs[0][0] == blobs[1][0]
    assert blobs[0][1] == blobs[1][1]
    record = json.loads(blobs[0][0])
    assert record["counts"]["n_error"] == 0
    report(9, "simulate JSON and sweep CSV byte-identical across repeated runs")
