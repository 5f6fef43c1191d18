import dataclasses
import hashlib
import sys
import threading

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as hs
from scipy import stats

from unambig.cases import ALL_REGIMES, Family, KnowledgeCase, Regime
from unambig.linalg import NumericalError
from unambig.povm import PSD_TOL, LambdaParams, PovmSet, build_for_case, input_states, validate
from unambig import povm
from unambig import simulate as sim
from unambig import strategies as st
from unambig.states import PARALLEL_OVERLAP, StatePair, pair_with_overlap


def _config(regime, dim, beta, eta1, shots, seed):
    case = KnowledgeCase(regime, dim)
    kwargs = {}
    if case.regime.knows_beta:
        kwargs["beta"] = beta
    if case.regime.knows_eta1:
        kwargs["eta1"] = eta1
    lam = st.optimal_lambda(case, **kwargs)
    pair = pair_with_overlap(dim, beta, eta1, seed=seed + 1)
    return sim.SimConfig(sim.outcome_probabilities(case, pair, lam), eta1, shots, seed)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(hs.sampled_from(ALL_REGIMES), hs.sampled_from([2, 3]),
       hs.floats(0.0, 1.0) | hs.sampled_from([0.0, 2**-0.5, 1.0]), hs.floats(0.0, 1.0) | hs.sampled_from([0.0, 1.0]),
       hs.integers(0, 2**32 - 1))
def test_born_table_and_sampler_agree_with_the_closed_form(regime, dim, beta, eta1, seed):
    # the closed form, the Born table of the case's POVM and the sampler on that table give one success probability
    case = KnowledgeCase(regime, dim)
    assume(not (regime.family is Family.KNOWN_KNOWN and beta == 1.0))  # build_known_known rejects identical states
    decided = st.success_probability(case, beta, eta1)
    p = decided.p_analytic
    probs = sim.outcome_probabilities(case, pair_with_overlap(dim, beta, eta1, seed=seed), decided.lam)
    assert abs(eta1 * probs[0, 0] + (1 - eta1) * probs[1, 1] - p) <= 1e-10
    assert probs[0, 1] <= 1e-12 and probs[1, 0] <= 1e-12
    shots = 10**5
    report = sim.run(sim.SimConfig(probs, eta1, shots, seed))
    assert report.n_error == 0
    sigma = np.sqrt(p * (1 - p) / shots)
    assert abs(report.estimated_success - p) <= 5 * sigma if sigma > 0 else report.estimated_success == p


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


def _reference_batches(cfg):
    # each batch's counts (identified-1, identified-2, inconclusive, error) drawn directly on its own
    # Generator(Philox(key=seed).jumped(b)): the binomial split, then row 0, then row 1
    full, last = divmod(cfg.shots, sim.BATCH_SHOTS)
    batches = []
    for b, n in enumerate([sim.BATCH_SHOTS] * full + [last] * (last > 0)):
        rng = np.random.Generator(np.random.Philox(key=cfg.seed).jumped(b))
        n_prep1 = rng.binomial(n, cfg.eta1)
        prep1, prep2 = rng.multinomial(n_prep1, cfg.probs[0]), rng.multinomial(n - n_prep1, cfg.probs[1])
        batches.append(tuple(int(c) for c in (prep1[0], prep2[1], prep1[2] + prep2[2], prep1[1] + prep2[0])))
    return batches


def _summed(batches):
    return tuple(sum(column) for column in zip(*batches))


def test_runs_are_prefixes_of_one_batch_stream():
    # batch b draws binomial, multinomial, multinomial from Philox(key=seed).jumped(b),
    # so a run of k full batches is exactly the first k batches of any longer run
    k = 3
    cfg = _config(Regime.A1, 2, 0.3, 0.7, (k + 2) * sim.BATCH_SHOTS + 17, seed=4)
    batches = _reference_batches(cfg)
    assert len(batches) == k + 3
    assert sim.run(cfg).counts == _summed(batches)
    short = sim.run(dataclasses.replace(cfg, shots=k * sim.BATCH_SHOTS))
    assert short.counts == _summed(batches[:k])


_B = sim.BATCH_SHOTS


@settings(max_examples=60, deadline=None, derandomize=True)
@given(hs.sampled_from(ALL_REGIMES), hs.sampled_from([2, 3]), hs.floats(0.0, 1.0), hs.floats(0.0, 1.0),
       hs.sampled_from([0.0, 1.0]) | hs.floats(0.0, 1.0),
       hs.sampled_from([1, _B - 1, _B, _B + 1]) | hs.builds(lambda k, r: k * _B + r, hs.integers(2, 4), hs.integers(0, _B - 1)),
       hs.sampled_from([0, 2**64 - 1, 2**64, 2**128 - 1]), hs.integers(0, 2**32 - 1))
def test_run_counts_are_the_summed_reference_batches(regime, dim, beta, world_eta1, eta1, shots, key, seed):
    # on a Born table of outcome_probabilities, run's counts are the sum of the batches drawn on their own
    # jumped Philox streams, as built-in ints, for every batch shape, key width and prior
    case = KnowledgeCase(regime, dim)
    assume(not (regime.family is Family.KNOWN_KNOWN and beta > PARALLEL_OVERLAP))
    lam = st.success_probability(case, beta, world_eta1).lam
    probs = sim.outcome_probabilities(case, pair_with_overlap(dim, beta, world_eta1, seed=seed), lam)
    cfg = sim.SimConfig(probs, eta1, shots, key)
    counts = sim.run(cfg).counts
    assert counts == _summed(_reference_batches(cfg))
    assert [type(n) for n in counts] == [int] * 4


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
    probs = cfg.probs
    report = sim.run(cfg)
    # reconstruct per-prep counts is not exposed; test the pooled outcome
    # distribution instead (mixture of the two rows)
    pooled = cfg.eta1 * probs[0] + (1 - cfg.eta1) * probs[1]
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
    probs = cfg.probs
    prep1, prep2 = cfg.eta1 * probs[0], (1 - cfg.eta1) * probs[1]
    expected = cfg.shots * np.array([prep1[0], prep2[1], prep1[2] + prep2[2], prep1[1] + prep2[0]])
    report = sim.run(cfg)
    assert report.n_error == 0
    observed = np.array(report.counts, dtype=float)
    keep = expected > 0
    chi2 = float(np.sum((observed[keep] - expected[keep]) ** 2 / expected[keep]))
    assert chi2 < stats.chi2.isf(0.001, int(keep.sum()) - 1)


def test_run_rejects_invalid_measurement():
    # run samples a table it is handed: the measurement is checked where the table is made
    case = KnowledgeCase(Regime.A1, 2)
    pair = pair_with_overlap(2, 0.5, 0.5, seed=8)
    with pytest.raises(ValueError, match="positive semidefinite"):
        sim.outcome_probabilities(case, pair, LambdaParams.of(1.0, 1.0))


def test_config_rejects_zero_shots():
    probs = _config(Regime.A1, 2, 0.5, 0.5, 100, seed=9).probs
    with pytest.raises(ValueError, match="shots"):
        sim.SimConfig(probs, 0.5, 0, seed=0)


def test_config_takes_shots_as_an_integer():
    # a float shot count fails when the config is made, not in run's batch loop
    probs = _config(Regime.A1, 2, 0.5, 0.5, 100, seed=9).probs
    for shots in (1e3, 1000.0, "1000", None):
        with pytest.raises(TypeError):
            sim.SimConfig(probs, 0.5, shots, seed=0)
    cfg = sim.SimConfig(probs, 0.5, np.int64(1000), seed=0)
    assert sim.run(cfg) == sim.run(sim.SimConfig(probs, 0.5, 1000, seed=0))


@pytest.mark.parametrize("eta1", (-0.1, 1.5, float("nan"), -np.inf))
def test_config_rejects_a_prior_outside_the_unit_interval(eta1):
    probs = _config(Regime.A1, 2, 0.5, 0.5, 100, seed=9).probs
    with pytest.raises(ValueError, match=r"^eta1 must lie in \[0, 1\], got "):
        sim.SimConfig(probs, eta1, 100, seed=0)
    for edge in (0.0, 1.0):
        assert sim.run(sim.SimConfig(probs, edge, 100, seed=0)).counts[int(edge)] == 0  # no state 1, or no state 2, is prepared


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


def _recorded_runs(monkeypatch):
    # the config of every run call estimate_surface makes, in order
    configs = []
    real = sim.run
    monkeypatch.setattr(sim, "run", lambda config: configs.append(config) or real(config))
    return configs


def _drawn_pairs(monkeypatch):
    # the stacked pair of every pair_with_overlap call estimate_surface makes, in order
    drawn = []
    real = sim.pair_with_overlap
    monkeypatch.setattr(sim, "pair_with_overlap", lambda *args: drawn.append(real(*args)) or drawn[-1])
    return drawn


def test_point_seeds_do_not_collide_across_seeds(monkeypatch):
    # each surface seed seeds its own generator: seeds 0 and 1 give different rows, and share
    # no point's sampler key and no point's pair
    configs = _recorded_runs(monkeypatch)
    drawn = _drawn_pairs(monkeypatch)
    case = KnowledgeCase(Regime.B3, 3)
    rows = [sim.estimate_surface(case, (0.2, 0.6, 0.9), (0.3, 0.8), 2000, seed) for seed in (0, 1)]
    first, second = configs[:6], configs[6:]
    assert rows[0] != rows[1]
    assert [(r.beta, r.eta1, r.p_analytic) for r in rows[0]] == [(r.beta, r.eta1, r.p_analytic) for r in rows[1]]
    assert not {c.seed for c in first} & {c.seed for c in second}
    assert [len(pairs) for pairs in drawn] == [6, 6]
    for a, b in zip(*drawn):
        assert not np.array_equal(a.psi1.vec, b.psi1.vec)


# 2**130 + 7 is wider than a Philox key: a surface seed is any non-negative int
_SURFACE_SEEDS = (0, 47, 2**32 - 1, 2**32, 2**64 + 3, 2**130 + 7)


@pytest.mark.parametrize("seed", _SURFACE_SEEDS)
def test_surface_keys_then_pairs_share_one_generator(seed, monkeypatch):
    # one default_rng(seed) per surface: every point's Philox key in one integers call, then every
    # point's pair in one pair_with_overlap call, both before the first chunk
    configs = _recorded_runs(monkeypatch)
    drawn = _drawn_pairs(monkeypatch)
    monkeypatch.setattr(sim, "STACK_POINTS", 5)
    case = KnowledgeCase(Regime.A2, 3)
    betas, etas = (0.0, 0.4, 1 / np.sqrt(2), 1.0), (0.0, 0.6, 1.0)
    sim.estimate_surface(case, betas, etas, 100, seed)
    grid = np.array([(beta, eta1) for eta1 in etas for beta in betas])
    rng = np.random.default_rng(seed)
    keys = rng.integers(2**64, size=len(grid), dtype=np.uint64).tolist()
    pairs = pair_with_overlap(3, *grid.T, rng)
    assert [config.seed for config in configs] == keys and all(type(config.seed) is int for config in configs)
    (surface_pairs,) = drawn
    assert [_pair_bits(pair) for pair in surface_pairs] == [_pair_bits(pair) for pair in pairs]
    for config, pair in zip(configs, pairs, strict=True):  # each point samples its own pair's table
        lam = st.success_probability(case, pair.beta, pair.eta1).lam
        assert np.array_equal(config.probs, sim.outcome_probabilities(case, pair, lam))
    # key k depends only on (seed, k): the keys of a grid's first points are those of a larger grid
    configs.clear()
    sim.estimate_surface(case, betas[:3], etas[:1], 100, seed)
    assert [config.seed for config in configs] == keys[:3]


def _pair_bits(pair):
    return pair.psi1.vec.tobytes(), pair.psi2.vec.tobytes(), pair.beta, pair.eta1


@pytest.mark.parametrize("seed", _SURFACE_SEEDS)
def test_philox_on_key_words_draws_as_philox_on_its_key(seed):
    # batch 0 placed by the state on a key's two words draws and ends as Philox(key=key)
    _assert_jump_lands(seed % 2**128, 0)


def test_estimate_surface_rejects_a_bad_seed_before_any_work(monkeypatch):
    # a negative seed, or one that is not an integer, fails before the surface is decided
    def no_work(*args):
        raise AssertionError("estimate_surface decided a surface for a bad seed")

    monkeypatch.setattr(sim.strategies, "success_probability", no_work)
    case = KnowledgeCase(Regime.A1, 2)
    for seed in (-1, np.int64(-5)):
        with pytest.raises(ValueError, match=rf"^seed must be a non-negative integer, got {seed}$"):
            sim.estimate_surface(case, (0.5,), (0.5,), 100, seed=seed)
    for seed in (1.0, 0.5, "1", None, [1, 2], np.random.default_rng(1)):
        with pytest.raises(TypeError):
            sim.estimate_surface(case, (0.5,), (0.5,), 100, seed=seed)


def test_estimate_surface_rejects_bad_shots_before_any_work(monkeypatch):
    # a shot count that is not a positive integer fails before the surface is decided
    def no_work(*args):
        raise AssertionError("estimate_surface decided a surface for a bad shot count")

    monkeypatch.setattr(sim.strategies, "success_probability", no_work)
    case = KnowledgeCase(Regime.A1, 2)
    for shots in (0, -3, np.int64(0)):
        with pytest.raises(ValueError, match=rf"^shots_per_point must be a positive integer, got {shots}$"):
            sim.estimate_surface(case, (0.5,), (0.5,), shots, seed=1)
    for shots in (1e3, 100.0, "100", None):
        with pytest.raises(TypeError):
            sim.estimate_surface(case, (0.5,), (0.5,), shots, seed=1)


@pytest.mark.parametrize("seed", (-1, 2**128, 1.5))
def test_run_rejects_seeds_outside_the_philox_key_range(seed):
    # the config checks its seed when it is made, as it checks the shots and the prior
    probs = _config(Regime.A2, 2, 0.4, 0.6, 1000, seed=0).probs
    if isinstance(seed, float):
        with pytest.raises(TypeError):
            sim.SimConfig(probs, 0.6, 1000, seed)
    else:
        with pytest.raises(ValueError, match=rf"^seed must lie in \[0, 2\*\*128\), got {seed}$"):
            sim.SimConfig(probs, 0.6, 1000, seed)


def test_run_takes_the_largest_philox_key():
    cfg = _config(Regime.A2, 2, 0.4, 0.6, 1000, seed=2**128 - 1)
    assert sim.run(cfg).counts == _summed(_reference_batches(cfg))


def _assert_jump_lands(key, batch):
    # from this thread's sampler, part-used with a held uint32, the jump lands on Philox(key=key).jumped(batch) in
    # full (Philox(key=key) itself for batch 0) and draws as it does
    rng = sim._sampler()
    bits = rng.bit_generator
    sim._jump_to(bits, sim._jump_state(sim._key_words(key ^ 1)), 3)  # elsewhere, with an empty buffer
    rng.random(2)
    rng.integers(0, 10, dtype=np.uint32)
    assert 0 < bits.state["buffer_pos"] < 4 and bits.state["has_uint32"] == 1
    sim._jump_to(bits, sim._jump_state(sim._key_words(key)), batch)
    theirs = np.random.Philox(key=key).jumped(batch) if batch else np.random.Philox(key=key)
    np.testing.assert_equal(bits.state, theirs.state)
    theirs_rng = np.random.Generator(theirs)
    assert np.array_equal(rng.random(5), theirs_rng.random(5))
    assert np.array_equal(rng.standard_normal(7), theirs_rng.standard_normal(7))
    assert np.array_equal(rng.integers(0, 2**63, 5), theirs_rng.integers(0, 2**63, 5))
    assert np.array_equal(rng.integers(0, 2**32, 3, dtype=np.uint32), theirs_rng.integers(0, 2**32, 3, dtype=np.uint32))
    assert bits.random_raw() == theirs.random_raw()
    np.testing.assert_equal(bits.state, theirs.state)


@pytest.mark.parametrize("key", (0, 2**64 - 1, 2**64, 2**128 - 1))
@pytest.mark.parametrize("batch", (0, 1, 2, 2**20))
def test_jump_writes_the_jumped_state(key, batch):
    _assert_jump_lands(key, batch)


def test_run_builds_one_jump_state_per_run_and_writes_it_once_per_batch(monkeypatch):
    built, writes = [], []
    real_state, real_jump = sim._jump_state, sim._jump_to
    monkeypatch.setattr(sim, "_jump_state", lambda words: built.append(words) or real_state(words))
    monkeypatch.setattr(sim, "_jump_to", lambda bits, state, b: writes.append(b) or real_jump(bits, state, b))
    cfg = _config(Regime.A2, 2, 0.4, 0.6, sim.BATCH_SHOTS, seed=8)
    sim.run(cfg)
    assert built == [sim._key_words(8)] and writes == [0]
    sim.run(dataclasses.replace(cfg, shots=3 * sim.BATCH_SHOTS + 1))
    assert built == [sim._key_words(8)] * 2 and writes == [0, 0, 1, 2, 3]
    built.clear()
    sim.estimate_surface(KnowledgeCase(Regime.B1, 2), (0.0, 0.5), (0.3,), 500, seed=8)
    assert len(built) == 2  # one run per point


def _leak_configs():
    one = _config(Regime.A2, 3, 0.4, 0.6, 1000, seed=15)  # one batch
    many = _config(Regime.B3, 2, 0.7, 0.2, 3 * sim.BATCH_SHOTS + 11, seed=2**128 - 2)  # four, the last part-used
    return one, many


def test_runs_leak_nothing_through_the_thread_sampler():
    # a run leaves this thread's generator part-used; the next run's report does not depend on it
    one, many = _leak_configs()
    for a, b in ((one, many), (many, one)):
        first = sim.run(a)
        sim.run(b)
        assert sim.run(a) == first


def test_concurrent_runs_draw_as_sequential_ones():
    # each thread samples on its own generator, so runs interleaved at every switch report as they do alone
    one, many = _leak_configs()
    configs = (one, many, dataclasses.replace(one, seed=16), dataclasses.replace(many, seed=17))
    expected = [sim.run(config) for config in configs]
    reports, samplers = [[] for _ in configs], [None] * len(configs)
    barrier = threading.Barrier(len(configs), timeout=60)

    def work(k):
        barrier.wait()
        samplers[k] = sim._sampler()
        for _ in range(20):
            reports[k].append(sim.run(configs[k]))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(len(configs))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert reports == [[report] * 20 for report in expected]
    assert len({id(sampler) for sampler in samplers}) == len(configs)  # one generator per thread


def test_counts_are_builtin_ints(monkeypatch):
    single = _config(Regime.A2, 3, 0.4, 0.6, 1000, seed=9)
    for cfg in (single, dataclasses.replace(single, shots=2 * sim.BATCH_SHOTS + 5)):
        assert [type(n) for n in sim.run(cfg).counts] == [int] * 4
    reports = []
    real = sim.run
    monkeypatch.setattr(sim, "run", lambda config: reports.append(real(config)) or reports[-1])
    sim.estimate_surface(KnowledgeCase(Regime.B1, 3), (0.0, 0.5), (0.3, 1.0), 500, seed=9)
    assert len(reports) == 4 and all(type(n) is int for report in reports for n in report.counts)


def test_config_probs_are_used_and_shape_checked():
    cfg = _config(Regime.B2, 3, 0.4, 0.3, 300_000, seed=14)
    probs = cfg.probs.copy()
    given = dataclasses.replace(cfg, probs=probs)
    assert sim.run(given) == sim.run(cfg)
    assert cfg == cfg and given != cfg  # a config holds an array: compared by identity
    swapped = dataclasses.replace(cfg, probs=probs[::-1].copy())
    assert sim.run(swapped) != sim.run(cfg)
    with pytest.raises(ValueError, match="probs must have shape"):
        dataclasses.replace(cfg, probs=probs[0])
    with pytest.raises(ValueError, match=r"probs must have shape \(2, 3\), got \(2, 2, 3\)"):
        dataclasses.replace(cfg, probs=np.stack([probs, probs]))  # the tables of a stack of two points


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
    pairs = pair_with_overlap(dim, *np.transpose(points), seed=5)
    lams = [st.success_probability(case, beta, eta1).lam for beta, eta1 in points]
    stack = np.array([lam.flat for lam in lams])
    singles = []
    for pair, lam in zip(pairs, lams):
        single = build_for_case(case, pair, lam)
        assert single.pi1.ndim == 2
        singles.append((single, validate(single), sim.outcome_probabilities(case, pair, lam),
                        input_states(case, pair)))
    for size in (1, 3, 7, len(points)):
        for start in range(0, len(points), size):
            chunk = slice(start, start + size)
            stacked = build_for_case(case, pairs[chunk], stack[chunk])
            report = validate(stacked)
            probs = sim.outcome_probabilities(case, pairs[chunk], stack[chunk])
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


# sha256 of repr(rows) on the grid below, recorded with each surface's keys and pairs drawn from one generator
_GOLDEN_ROWS = {
    "a1/dim2": "4f564fb9d80057adea69cd1576a15ffd0027da51c8f811e1f158673d2497b0b4",
    "a2/dim2": "f16695c19629a5fd2534f6e38e5d00cabdd74cd3578b9d5a0b6673692485bccb",
    "a3/dim2": "a86b780a178f63b722f3e5e9fce05b7286288096c1e24982111c8849959f7178",
    "a4/dim2": "9b1ad0eff6d9d91079a92cd2cacee9e40b6e9347caa6b941c0cfe4a46d9d020d",
    "b1/dim2": "7cfc73f965ae40debf845cc0f63f643382d810f5d0099499cac9f61952fad5a5",
    "b2/dim2": "581382e829a530da7800f02c20e459aa3b870b3032a37e459fe7ce426081aa93",
    "b3/dim2": "815574440279efc57493095d8ccb9640486bd6ad7286d1eaa8587d096392d5d5",
    "b4/dim2": "3492aa28200ae5e932f16f4c0feb85120c6f187c37b270129e94479e331e0d53",
    "a1/dim3": "47b2694807e63bfdd94ac4dae7bec816764f2171b7f32d6e5c6178fb6db7c39a",
    "a2/dim3": "9ae10d7d9c41fd697bdd37b4f1f4f276858a475915294fe09600656341eca08a",
    "a3/dim3": "7e0aebe27d05ad8fa6562bbc73b1229a429a958e5f0722cfe5f1385ae0d9c879",
    "a4/dim3": "8fc2a9f312f2dc3afe480bfc5b876161ccbb6d5bb504b7eea2c1aa46c2d40a5d",
    "b1/dim3": "b02cc0feefb757631f90d7703c1d14066ffb4e91ff1ecdf634c4c4d7b0424159",
    "b2/dim3": "f5aa129ff0eee39e80edb2c3c1b62e7e170d51b3c88bf75fa4470b31f0f6af3a",
    "b3/dim3": "4129d9c6f9df0681270200278277c88fb996fa5b296816d6ad2021ba33d691c2",
    "b4/dim3": "82bb086cb22cf87838f00fe8911c77749c6b7014b2b888699cfa6007cb54464d",
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
    drawn = _drawn_pairs(monkeypatch)
    monkeypatch.setattr(povm, "STACK_CELLS", 3 * 9**2)  # A2/dim3 in chunks of 3 points
    betas, etas = (0.1, 0.5, 0.9, 0.3), (0.2, 0.7)
    case = KnowledgeCase(Regime.A2, 3)
    rows = sim.estimate_surface(case, betas, etas, 1000, seed=15)
    grid = [(beta, eta1) for eta1 in etas for beta in betas]
    (pairs,) = drawn
    assert [(p.beta, p.eta1) for p in pairs] == [(r.beta, r.eta1) for r in rows] == grid
    assert [c.eta1 for c in configs] == [eta1 for _, eta1 in grid] and all(c.shots == 1000 for c in configs)
    for config, pair in zip(configs, pairs, strict=True):
        lam = st.success_probability(case, pair.beta, pair.eta1).lam
        assert np.array_equal(config.probs, sim.outcome_probabilities(case, pair, lam))


@pytest.mark.parametrize("regime", (Regime.A1, Regime.A2, Regime.A4), ids=lambda r: r.value)  # one per family
def test_estimate_surface_hands_one_stacked_pair_per_chunk(regime, monkeypatch):
    # the surface's pairs are drawn as one StatePair, never a list, and each chunk hands its rows,
    # pairs[chunk], to its build and to its register inputs
    seen = {"build_for_case": [], "input_states": []}
    for name, calls in seen.items():
        real = getattr(sim, name)
        monkeypatch.setattr(sim, name, lambda case, pair, *rest, real=real, calls=calls:
                            calls.append(pair) or real(case, pair, *rest))
    drawn = _drawn_pairs(monkeypatch)
    monkeypatch.setattr(sim, "STACK_POINTS", 3)  # chunks of 3, 3 and 2 points
    sim.estimate_surface(KnowledgeCase(regime, 3), (0.1, 0.5, 0.9, 0.3), (0.2, 0.7), 100, seed=15)
    (pairs,) = drawn
    assert type(pairs) is StatePair and len(pairs) == 8
    chunks = seen["input_states"]
    assert [len(chunk) for chunk in chunks] == [3, 3, 2] and all(type(chunk) is StatePair for chunk in chunks)
    for chunk, rows in zip(chunks, (slice(0, 3), slice(3, 6), slice(6, 8))):
        assert [_pair_bits(pair) for pair in chunk] == [_pair_bits(pair) for pair in pairs[rows]]
        assert np.shares_memory(chunk.psi1.vec, pairs.psi1.vec)  # a slice of the surface's pair, not a copy
    assert len(seen["build_for_case"]) == len(chunks)
    for built, chunk in zip(seen["build_for_case"], chunks):
        # the rows of the chunk's distinct measurements: all of them but for unknown/unknown
        assert type(built) is StatePair and 0 < len(built) <= len(chunk)


def test_estimate_surface_decides_each_surface_in_one_call(monkeypatch):
    # A1/dim3 on this grid is set up in two chunks, of 64 and 20 points
    calls = []
    real = st.success_probability

    def counted(case, betas, etas):
        calls.append(len(betas))
        return real(case, betas, etas)

    monkeypatch.setattr(sim.strategies, "success_probability", counted)
    stacks, chunks = _record_validated(monkeypatch)
    sim.estimate_surface(KnowledgeCase(Regime.A1, 3), (0.0, 0.3, 0.6, 0.9), tuple(k / 20 for k in range(21)), 100, 17)
    assert calls == [84] and chunks == [64, 20]


def _infeasible_at(monkeypatch, bad_points):
    # estimate_surface takes the decisions of the whole grid in one call, with arrays of its points
    real = st.success_probability

    def decisions(case, betas, etas):
        res = real(case, betas, etas)
        lam = res.lam.copy()
        lam[[point in bad_points for point in zip(betas.tolist(), etas.tolist())]] = LambdaParams.of(1.0, 1.0).flat
        return dataclasses.replace(res, lam=lam)

    monkeypatch.setattr(sim.strategies, "success_probability", decisions)


def test_stacked_failure_names_first_failing_point(monkeypatch):
    # row order is eta1-major: (0.5, 0.2) precedes (0.25, 0.6) although its beta is larger
    _infeasible_at(monkeypatch, {(0.5, 0.2), (0.25, 0.6)})
    mins = validate(povm.build_unknown_unknown(2, LambdaParams.of(1.0, 1.0))).min_eigenvalues
    with pytest.raises(sim.MeasurementError) as err:
        sim.estimate_surface(KnowledgeCase(Regime.A1, 2), (0.0, 0.25, 0.5, 0.75), (0.2, 0.6), 1000, seed=16)
    assert str(err.value) == f"POVM is not positive semidefinite: min eigenvalues {mins} at (beta, eta1) = (0.5, 0.2)"


def test_stacked_residual_and_hermiticity_failures_name_the_point(monkeypatch):
    case = KnowledgeCase(Regime.B2, 3)
    points = [(0.1, 0.4), (0.6, 0.3), (0.8, 0.9)]
    pairs = pair_with_overlap(3, *np.transpose(points), seed=0)
    lams = st.success_probability(case, *np.transpose(points)).lam
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


def test_the_first_failing_measurement_is_named_whichever_test_it_fails(monkeypatch):
    # row 0 fails completeness and row 1 positivity: row 0 is named, though it fails the later test
    case = KnowledgeCase(Regime.B2, 3)
    points = [(0.1, 0.4), (0.6, 0.3), (0.8, 0.9)]
    pairs = pair_with_overlap(3, *np.transpose(points), seed=0)
    lams = st.success_probability(case, *np.transpose(points)).lam
    real_validate = sim.validate

    def failing(stacked):
        report = real_validate(stacked)
        residual, pi0_mins = report.completeness_residual.copy(), report.min_eigenvalues[2].copy()
        residual[0], pi0_mins[1] = 1e-3, -0.25
        return dataclasses.replace(report, psd_ok=report.psd_ok[:2] + (pi0_mins >= -PSD_TOL,),
                                   min_eigenvalues=report.min_eigenvalues[:2] + (pi0_mins,),
                                   completeness_residual=residual)

    monkeypatch.setattr(sim, "validate", failing)
    with pytest.raises(sim.MeasurementError, match=r"^POVM completeness residual 1\.000e-03 at \(beta, eta1\) = \(0\.1, 0\.4\)$") as err:
        sim.outcome_probabilities(case, pairs, lams)
    assert err.value.index == (0,)


def test_nan_probabilities_fail_the_residual_and_sum_checks(monkeypatch):
    case = KnowledgeCase(Regime.B2, 3)
    pairs = pair_with_overlap(3, [0.3, 0.3], [0.4, 0.4], seed=0)
    lams = np.array([st.success_probability(case, 0.3, 0.4).lam.flat] * 2)
    real_validate = sim.validate

    def nan_residual(stacked):
        report = real_validate(stacked)
        return dataclasses.replace(report, completeness_residual=np.array([0.0, np.nan]))

    monkeypatch.setattr(sim, "validate", nan_residual)
    with pytest.raises(sim.MeasurementError, match=r"^POVM completeness residual nan at \(beta, eta1\) = \(0\.3, 0\.4\)$"):
        sim.outcome_probabilities(case, pairs, lams)
    monkeypatch.setattr(sim, "validate", real_validate)
    nan_values = lambda state, op: np.full(np.broadcast_shapes(state.shape[:-1], op.shape[:-2]), np.nan)
    monkeypatch.setattr(sim, "expectation", nan_values)
    with pytest.raises(sim.MeasurementError, match="outcome probabilities sum to"):
        sim.outcome_probabilities(case, pairs, lams)


# sha256 of repr(rows) on a grid of many chunks, recorded with each surface's keys and pairs drawn from one generator
_GOLDEN_ROWS_ACROSS_CHUNKS = {
    "a1": "630bf3bfa0da49272055becc7fdd583ef6491172c9d9e8a789e7fa70240a0926",
    "b1": "cea16cb7129c5617d91afc72581c9530e43720c301f563ca97f351cedc97b0df",
}


@pytest.mark.parametrize("regime", sorted(_GOLDEN_ROWS_ACROSS_CHUNKS))
def test_estimate_surface_rows_golden_across_chunks(regime, monkeypatch):
    # every draw precedes the first chunk, so the rows do not depend on where the chunks end
    etas = tuple(k / 20 for k in range(21))
    for points, cells in ((sim.STACK_POINTS, povm.STACK_CELLS), (5, povm.STACK_CELLS), (64, 27**2)):
        monkeypatch.setattr(sim, "STACK_POINTS", points)
        monkeypatch.setattr(povm, "STACK_CELLS", cells)
        rows = sim.estimate_surface(KnowledgeCase(Regime(regime), 3), (0.0, 0.3, 0.6, 0.9), etas, 2000, 2025)
        assert hashlib.sha256(repr(rows).encode()).hexdigest() == _GOLDEN_ROWS_ACROSS_CHUNKS[regime]


def _record_validated(monkeypatch):
    # the POVM stacks estimate_surface validates, and the points of each chunk
    stacks, chunks = [], []
    real_validate, real_probs = sim.validate, sim.outcome_probabilities

    def recording_validate(stacked):
        stacks.append(stacked)
        return real_validate(stacked)

    def recording_probs(case, pairs, lams):
        chunks.append(len(pairs))
        return real_probs(case, pairs, lams)

    monkeypatch.setattr(sim, "validate", recording_validate)
    monkeypatch.setattr(sim, "outcome_probabilities", recording_probs)
    return stacks, chunks


@pytest.mark.parametrize("regime,stacked", [(Regime.B1, [1, 1]), (Regime.A1, [2, 1])])
def test_unknown_unknown_validates_each_distinct_measurement_once(monkeypatch, regime, stacked):
    # B1's coefficients are one vector; A1's in dim 3 take one value for eta1 <= 1/2 and
    # another above, so the first 64-point chunk validates two POVMs and the second one
    stacks, chunks = _record_validated(monkeypatch)
    case = KnowledgeCase(regime, 3)
    betas, etas = (0.0, 0.3, 0.6, 0.9), tuple(k / 20 for k in range(21))
    sim.estimate_surface(case, betas, etas, 100, seed=17)
    assert chunks == [64, 20] and [len(s.pi1) for s in stacks] == stacked
    lams = [st.success_probability(case, beta, eta1).lam for eta1 in etas for beta in betas]
    distinct = np.array([lam.flat for start in (0, 64) for lam in dict.fromkeys(lams[start : start + 64])])
    assert np.array_equal(np.concatenate([s.pi1 for s in stacks]), povm.build_unknown_unknown(3, distinct).pi1)


def test_distinct_measurements_keep_each_chunk_within_the_cell_cap(monkeypatch):
    # 64 distinct coefficient vectors on the qutrit simplex, one per eta1 value: chunks are
    # cut by the cap on stacked cells (5 measurements), not by points
    real = st.success_probability

    def simplex_decisions(case, betas, etas):
        lam = np.array([LambdaParams.of((eta1,) * 3, (1.0 - eta1,) * 3).flat for eta1 in etas.tolist()])
        return dataclasses.replace(real(case, betas, etas), lam=lam)

    monkeypatch.setattr(sim.strategies, "success_probability", simplex_decisions)
    stacks, chunks = _record_validated(monkeypatch)
    etas = tuple(k / 63 for k in range(64))
    rows = sim.estimate_surface(KnowledgeCase(Regime.A1, 3), (0.2, 0.7), etas, 100, seed=18)
    cap = povm.STACK_CELLS // 27**2
    assert len(rows) == sum(chunks) == 128 and all(row.p_hat >= 0.0 for row in rows)
    assert [len(s.pi1) for s in stacks] == [cap] * (64 // cap) + [64 % cap]
    assert chunks == [2 * len(s.pi1) for s in stacks]
    assert all(s.pi1.size <= povm.STACK_CELLS for s in stacks)


def test_shared_measurement_failures_name_its_first_point(monkeypatch):
    # points 2 and 4 share one measurement and points 0, 1 and 3 another; a check that fails
    # on the shared measurement names the first point, in stack order, that uses it
    case = KnowledgeCase(Regime.A1, 3)
    points = [(0.1, 0.4), (0.3, 0.2), (0.6, 0.3), (0.8, 0.4), (0.2, 0.3)]
    pairs = pair_with_overlap(3, *np.transpose(points), seed=0)
    good = st.success_probability(case, 0.5, 0.4).lam
    bad = LambdaParams.of((1.0,) * 3, (1.0,) * 3)
    lams = np.array([lam.flat for lam in (good, good, bad, good, bad)])
    assert povm.distinct_measurements(case, lams).tolist() == [0, 0, 1, 0, 1]
    mins = validate(povm.build_unknown_unknown(3, bad)).min_eigenvalues
    with pytest.raises(sim.MeasurementError) as err:
        sim.outcome_probabilities(case, pairs, lams)
    assert str(err.value) == f"POVM is not positive semidefinite: min eigenvalues {mins} at (beta, eta1) = (0.6, 0.3)"
    other = st.success_probability(case, 0.5, 0.7).lam
    lone = (good, good, other, good, other)
    lams = np.array([lam.flat for lam in lone])
    real_build, real_expectation = sim.build_for_case, sim.expectation

    def skewed(case, pairs, lams):
        built = real_build(case, pairs, lams)
        assert len(built.pi1) == 2
        pi1 = built.pi1.copy()
        pi1[1] += 1e-6j * np.eye(built.dim)
        return PovmSet(pi1, built.pi2, built.pi0)

    monkeypatch.setattr(sim, "build_for_case", skewed)
    with pytest.raises(NumericalError, match=r"^matrix is not Hermitian .* at \(beta, eta1\) = \(0\.6, 0\.3\)$") as err:
        sim.outcome_probabilities(case, pairs, lams)
    assert err.value.index == (2,)
    monkeypatch.setattr(sim, "build_for_case", real_build)

    def failing(state, op):  # the Born rule fails for the second point of the second measurement
        raise NumericalError("expectation failed", (1, 1, 0))

    monkeypatch.setattr(sim, "expectation", failing)
    with pytest.raises(NumericalError, match=r"^expectation failed at \(beta, eta1\) = \(0\.2, 0\.3\)$") as err:
        sim.outcome_probabilities(case, pairs, lams)
    assert err.value.index == (4, 0)
    monkeypatch.setattr(sim, "expectation", real_expectation)
    assert np.array_equal(sim.outcome_probabilities(case, pairs, lams),
                          [sim.outcome_probabilities(case, pair, lam) for pair, lam in zip(pairs, lone)])
