import dataclasses
import hashlib

import numpy as np
import pytest
from scipy import stats

from unambig.cases import ALL_REGIMES, KnowledgeCase, Regime
from unambig.linalg import NumericalError
from unambig.povm import LambdaParams, PovmSet, build_for_case, input_states, validate
from unambig import povm
from unambig import simulate as sim
from unambig import strategies as st
from unambig.states import pair_with_overlap


def _config(regime, dim, beta, eta1, shots, seed):
    case = KnowledgeCase(regime, dim)
    kwargs = {}
    if case.regime.knows_beta:
        kwargs["beta"] = beta
    if case.regime.knows_eta1:
        kwargs["eta1"] = eta1
    lam = st.optimal_lambda(case, **kwargs)
    pair = pair_with_overlap(dim, beta, eta1, seed=seed + 1)
    return sim.SimConfig(case, pair, lam, shots, seed)


def test_orthogonal_known_pair_is_perfect():
    report = sim.run(_config(Regime.A4, 2, 0.0, 0.35, 100_000, seed=1))
    assert report.estimated_success == 1.0
    assert report.counts[2] == 0 and report.counts[3] == 0


def test_counts_sum_to_shots():
    report = sim.run(_config(Regime.A2, 2, 0.4, 0.6, 12_345, seed=2))
    assert sum(report.counts) == 12_345


def test_identical_seeds_identical_reports():
    a = sim.run(_config(Regime.B3, 2, 0.8, 0.4, 200_000, seed=3))
    b = sim.run(_config(Regime.B3, 2, 0.8, 0.4, 200_000, seed=3))
    assert a == b


def test_runs_are_prefixes_of_one_batch_stream():
    # batch b draws binomial, multinomial, multinomial from Philox(key=seed).jumped(b),
    # so a run of k full batches is exactly the first k batches of any longer run
    k = 3
    cfg = _config(Regime.A1, 2, 0.3, 0.7, (k + 2) * sim.BATCH_SHOTS + 17, seed=4)
    probs = sim.outcome_probabilities(cfg.case, cfg.pair, cfg.lam)
    sizes = [sim.BATCH_SHOTS] * (k + 2) + [17]
    batches = [sim._run_batch(cfg.seed, b, n, cfg.pair.eta1, probs) for b, n in enumerate(sizes)]
    for b, n in enumerate(sizes):
        rng = np.random.Generator(np.random.Philox(key=cfg.seed).jumped(b))
        n_prep1 = rng.binomial(n, cfg.pair.eta1)
        prep1, prep2 = rng.multinomial(n_prep1, probs[0]), rng.multinomial(n - n_prep1, probs[1])
        assert batches[b].tolist() == [prep1[0], prep2[1], prep1[2] + prep2[2], prep1[1] + prep2[0]]
    assert sim.run(cfg).counts == tuple(np.sum(batches, axis=0))
    short = sim.run(dataclasses.replace(cfg, shots=k * sim.BATCH_SHOTS))
    assert short.counts == tuple(np.sum(batches[:k], axis=0))


@pytest.mark.parametrize(
    "regime,dim",
    [(Regime.A1, 2), (Regime.A3, 2), (Regime.B2, 2), (Regime.B4, 2), (Regime.A2, 3), (Regime.B1, 3)],
)
def test_errors_are_structurally_zero(regime, dim):
    report = sim.run(_config(regime, dim, 0.45, 0.3, 100_000, seed=5))
    assert report.counts[3] == 0


def test_outcome_frequencies_chi_square():
    # per-preparation outcome counts against the Born probabilities
    cfg = _config(Regime.A4, 2, 0.5, 0.5, 1_000_000, seed=6)
    probs = sim.outcome_probabilities(cfg.case, cfg.pair, cfg.lam)
    report = sim.run(cfg)
    # reconstruct per-prep counts is not exposed; test the pooled outcome
    # distribution instead (mixture of the two rows)
    pooled = cfg.pair.eta1 * probs[0] + (1 - cfg.pair.eta1) * probs[1]
    observed = np.array([report.counts[0], report.counts[1], report.counts[2]], dtype=float)
    # fold the (zero) error count into the non-matching success bucket totals
    expected = pooled * cfg.shots
    keep = expected > 0
    chi2 = float(np.sum((observed[keep] - expected[keep]) ** 2 / expected[keep]))
    dof = int(keep.sum()) - 1
    assert chi2 < stats.chi2.isf(0.001, dof)


def test_estimated_success_within_four_sigma():
    cfg = _config(Regime.A4, 2, 0.5, 0.5, 1_000_000, seed=7)
    report = sim.run(cfg)
    assert abs(report.estimated_success - 0.5) <= 4 * report.stderr


def test_billion_shot_counts_chi_square():
    # all four outcome categories against the prior-weighted Born rows
    cfg = _config(Regime.B2, 3, 0.4, 0.3, 10**9, seed=13)
    probs = sim.outcome_probabilities(cfg.case, cfg.pair, cfg.lam)
    prep1, prep2 = cfg.pair.eta1 * probs[0], (1 - cfg.pair.eta1) * probs[1]
    expected = cfg.shots * np.array([prep1[0], prep2[1], prep1[2] + prep2[2], prep1[1] + prep2[0]])
    report = sim.run(cfg)
    assert report.n_error == 0
    observed = np.array(report.counts, dtype=float)
    keep = expected > 0
    chi2 = float(np.sum((observed[keep] - expected[keep]) ** 2 / expected[keep]))
    assert chi2 < stats.chi2.isf(0.001, int(keep.sum()) - 1)


def test_run_rejects_invalid_measurement():
    case = KnowledgeCase(Regime.A1, 2)
    pair = pair_with_overlap(2, 0.5, 0.5, seed=8)
    bad = sim.SimConfig(case, pair, LambdaParams.of(1.0, 1.0), 100, seed=0)
    with pytest.raises(ValueError, match="positive semidefinite"):
        sim.run(bad)


def test_config_rejects_zero_shots():
    case = KnowledgeCase(Regime.A1, 2)
    pair = pair_with_overlap(2, 0.5, 0.5, seed=9)
    with pytest.raises(ValueError, match="shots"):
        sim.SimConfig(case, pair, LambdaParams.of(0.5, 0.5), 0, seed=0)


def test_estimate_surface_b1_row():
    rows = sim.estimate_surface(
        KnowledgeCase(Regime.B1, 2), beta_grid=[0.0, 0.3, 0.6], eta_grid=[0.4], shots_per_point=200_000, seed=10
    )
    for row in rows:
        assert row.p_analytic == pytest.approx((1 - row.beta**2) / 3, abs=1e-12)
        sigma = max(row.stderr, 1e-9)
        assert abs(row.p_hat - row.p_analytic) <= 4 * sigma


def test_estimate_surface_a1_first_branch():
    rows = sim.estimate_surface(
        KnowledgeCase(Regime.A1, 2), beta_grid=[0.0, 0.5], eta_grid=[0.1], shots_per_point=200_000, seed=11
    )
    for row in rows:
        assert row.p_analytic == pytest.approx(0.45 * (1 - row.beta**2), abs=1e-12)
        assert abs(row.p_hat - row.p_analytic) <= 4 * max(row.stderr, 1e-9)


def test_estimate_surface_identical_states_column():
    rows = sim.estimate_surface(
        KnowledgeCase(Regime.A1, 2), beta_grid=[1.0], eta_grid=[0.3, 0.8], shots_per_point=50_000, seed=12
    )
    for row in rows:
        assert row.p_hat == 0.0
        assert row.p_analytic == 0.0


def test_point_seeds_do_not_collide_across_seeds():
    # under the former seed * 1_000_003 + index these two grid points shared streams
    pair_a, key_a = sim._point_seeds(0, 1_000_003)
    pair_b, key_b = sim._point_seeds(1, 0)
    assert key_a != key_b
    vec_a = pair_with_overlap(3, 0.4, 0.5, seed=pair_a).psi1.vec
    vec_b = pair_with_overlap(3, 0.4, 0.5, seed=pair_b).psi1.vec
    assert not np.array_equal(vec_a, vec_b)
    # each point's seeds are the children of SeedSequence(seed).spawn
    child = np.random.SeedSequence(1).spawn(3)[2]
    pair_seq, key = sim._point_seeds(1, 2)
    pair_child, key_child = child.spawn(2)
    assert np.array_equal(pair_seq.generate_state(4), pair_child.generate_state(4))
    assert key == int(key_child.generate_state(1, np.uint64)[0])


def test_config_probs_are_used_and_shape_checked():
    cfg = _config(Regime.B2, 3, 0.4, 0.3, 300_000, seed=14)
    probs = sim.outcome_probabilities(cfg.case, cfg.pair, cfg.lam)
    given = dataclasses.replace(cfg, probs=probs)
    assert given == cfg and sim.run(given) == sim.run(cfg)
    swapped = dataclasses.replace(cfg, probs=probs[::-1].copy())
    assert sim.run(swapped) != sim.run(cfg)
    with pytest.raises(ValueError, match="probs must have shape"):
        dataclasses.replace(cfg, probs=probs[0])


def _stack_points(dim):
    rng = np.random.default_rng([dim, 17])
    edges = [(beta, eta1) for beta in (0.0, 1 / np.sqrt(2)) for eta1 in (0.0, 1.0)]
    return edges + [(float(b), float(e)) for b, e in rng.uniform(0.0, [0.98, 1.0], size=(9, 2))]


@pytest.mark.parametrize("dim", (2, 3))
@pytest.mark.parametrize("regime", ALL_REGIMES)
def test_stacked_measurements_match_single_points(regime, dim):
    # one stacked call per chunk gives bitwise the elements, eigenvalues, residuals and
    # probabilities of the lone calls, wherever the chunk boundaries fall
    case = KnowledgeCase(regime, dim)
    points = _stack_points(dim)
    pairs = [pair_with_overlap(dim, beta, eta1, seed=[k, 5]) for k, (beta, eta1) in enumerate(points)]
    lams = [st.success_probability(case, beta, eta1).lam for beta, eta1 in points]
    singles = []
    for pair, lam in zip(pairs, lams):
        single = build_for_case(case, pair, lam)
        assert single.pi1.ndim == 2
        singles.append((single, validate(single), sim.outcome_probabilities(case, pair, lam),
                        input_states(case, pair)))
    for size in (1, 3, 7, len(points)):
        for start in range(0, len(points), size):
            chunk = slice(start, start + size)
            stacked = build_for_case(case, pairs[chunk], lams[chunk])
            report = validate(stacked)
            probs = sim.outcome_probabilities(case, pairs[chunk], lams[chunk])
            ins = input_states(case, pairs[chunk])
            assert stacked.pi1.shape[0] == probs.shape[0] == len(singles[chunk])
            for k, (single, single_report, single_probs, single_ins) in enumerate(singles[chunk]):
                for el, single_el in zip(stacked.elements, single.elements):
                    assert np.array_equal(el[k], single_el)
                assert tuple(m[k] for m in report.min_eigenvalues) == single_report.min_eigenvalues
                assert tuple(ok[k] for ok in report.psd_ok) == single_report.psd_ok
                assert report.completeness_residual[k] == single_report.completeness_residual
                assert np.array_equal(probs[k], single_probs)
                assert all(np.array_equal(v[k], w) for v, w in zip(ins, single_ins))


# sha256 of repr(rows) on the grid below, recorded when every point was built and sampled alone
_GOLDEN_ROWS = {
    "a1/dim2": "5e3dfd4ce633f8b801aae6fcc28ca7e82b2288565bba1414dbd5fbfb35f13302",
    "a2/dim2": "6acf581a4bbe03e11c5c179edd58cea33ace8c5e5fffc43e8a16d2ffa5810300",
    "a3/dim2": "25baac0bcef2429a49755514351e769b4af796d0aa4e1ddffae5ee4fc1c0224d",
    "a4/dim2": "0903092336d202a1d4954e1a510c4ba3f632fed4b9f44322252364445f7c7385",
    "b1/dim2": "30799e06ff636994de969948b4411ce616c53101fb61cbbd9025757bee505141",
    "b2/dim2": "2fdc5e99c7b149e664e9b6b6641342b54358c6c005f779e755f07c1fb5faef05",
    "b3/dim2": "0e4f98f97b7b6961d0752b1fbaf66b07eeab5772a0c868d7e664cf665dc0fbe6",
    "b4/dim2": "c712f25190d8b7fc45ae48e89f855aceb6297e5105edc21e9a73629882c2d157",
    "a1/dim3": "cdf22bcd5d3665444d09175a782158fa526248ef3cd428b6aab06e4ef3ea7b45",
    "a2/dim3": "be699d4ec66256392daabef2789a39326baabee965eb4b016d516906078d07ac",
    "a3/dim3": "ec3f7e7e8eebe33ed02e14477e7d34e45ced74013f5e164db53ce50aa34cc24f",
    "a4/dim3": "0903092336d202a1d4954e1a510c4ba3f632fed4b9f44322252364445f7c7385",
    "b1/dim3": "c772bfa38ecb49056ef1eaa0977883cab0eb560f40f467d64f305d72e8c3f2d2",
    "b2/dim3": "6085bf8ff6f320d480379a494989fb84da589ff726a204b240e0c33cf60e4b25",
    "b3/dim3": "07ae628ced517b50882ecb6ec19e6e834cbeb218dfba942a6f278d7a1c73cfb8",
    "b4/dim3": "c712f25190d8b7fc45ae48e89f855aceb6297e5105edc21e9a73629882c2d157",
}


@pytest.mark.parametrize("label", sorted(_GOLDEN_ROWS))
def test_estimate_surface_rows_golden(label):
    regime, dim = label.split("/dim")
    rows = sim.estimate_surface(KnowledgeCase(Regime(regime), int(dim)), (0.0, 0.35, 0.8), (0.25, 1.0), 2000, 2024)
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == _GOLDEN_ROWS[label]


def test_estimate_surface_runs_each_point_once_in_row_order(monkeypatch):
    # the benchmark reads each point's n_error through simulate.run, and patches validate there
    assert sim.validate is povm.validate
    configs = []
    real = sim.run

    def recording_run(config):
        configs.append(config)
        return real(config)

    monkeypatch.setattr(sim, "run", recording_run)
    monkeypatch.setattr(sim, "STACK_CELLS", 3 * 9**2)  # A2/dim3 in chunks of 3 points
    betas, etas = (0.1, 0.5, 0.9, 0.3), (0.2, 0.7)
    rows = sim.estimate_surface(KnowledgeCase(Regime.A2, 3), betas, etas, 1000, seed=15)
    grid = [(beta, eta1) for eta1 in etas for beta in betas]
    assert [(c.pair.beta, c.pair.eta1) for c in configs] == [(r.beta, r.eta1) for r in rows] == grid
    for config in configs:
        assert np.array_equal(config.probs, sim.outcome_probabilities(config.case, config.pair, config.lam))


def _infeasible_at(monkeypatch, bad_points):
    # estimate_surface takes the decisions of a chunk in one call, with arrays of its points
    real = st.success_probability

    def decisions(case, betas, etas):
        points = zip(betas.tolist(), etas.tolist())
        return [dataclasses.replace(res, lam=LambdaParams.of(1.0, 1.0)) if point in bad_points else res
                for point, res in zip(points, real(case, betas, etas))]

    monkeypatch.setattr(sim.strategies, "success_probability", decisions)


def test_stacked_failure_names_first_failing_point(monkeypatch):
    # row order is eta1-major: (0.5, 0.2) precedes (0.25, 0.6) although its beta is larger
    _infeasible_at(monkeypatch, {(0.5, 0.2), (0.25, 0.6)})
    mins = validate(povm.build_unknown_unknown(2, LambdaParams.of(1.0, 1.0))).min_eigenvalues
    with pytest.raises(sim.MeasurementError) as err:
        sim.estimate_surface(KnowledgeCase(Regime.A1, 2), (0.0, 0.25, 0.5, 0.75), (0.2, 0.6), 1000, seed=16)
    assert str(err.value) == f"POVM is not positive semidefinite at (beta, eta1) = (0.5, 0.2): min eigenvalues {mins}"


def test_stacked_residual_and_hermiticity_failures_name_the_point(monkeypatch):
    case = KnowledgeCase(Regime.B2, 3)
    points = [(0.1, 0.4), (0.6, 0.3), (0.8, 0.9)]
    pairs = [pair_with_overlap(3, beta, eta1, seed=k) for k, (beta, eta1) in enumerate(points)]
    lams = [st.success_probability(case, beta, eta1).lam for beta, eta1 in points]
    real_validate, real_build = sim.validate, sim.build_for_case

    def leaky(stacked):
        report = real_validate(stacked)
        residual = report.completeness_residual.copy()
        residual[1:] = [2e-9, 3e-9]
        return dataclasses.replace(report, completeness_residual=residual)

    monkeypatch.setattr(sim, "validate", leaky)
    with pytest.raises(sim.MeasurementError, match=r"^POVM completeness residual 2\.000e-09 at \(beta, eta1\) = \(0\.6, 0\.3\)$"):
        sim.outcome_probabilities(case, pairs, lams)
    monkeypatch.setattr(sim, "validate", real_validate)

    def skewed(*args):
        built = real_build(*args)
        pi2 = built.pi2.copy()
        pi2[2] += 1e-6j * np.eye(built.dim)
        return PovmSet(built.pi1, pi2, built.pi0)

    monkeypatch.setattr(sim, "build_for_case", skewed)
    with pytest.raises(NumericalError, match=r"^matrix is not Hermitian .* at \(beta, eta1\) = \(0\.8, 0\.9\)$") as err:
        sim.outcome_probabilities(case, pairs, lams)
    assert err.value.index == (2,)
