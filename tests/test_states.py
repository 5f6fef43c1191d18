import hashlib
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as hs

from unambig import optimizer as opt, simulate as sim, states, strategies as st
from unambig.cases import KnowledgeCase, Regime
from unambig.linalg import NumericalError, fix_global_phase
from unambig.states import PureState, StatePair, overlap, pair_with_overlap

from lone_states import basis_state, haar_random_state, orthogonal_complement_qubit, qutrit_adapted_basis


def test_state_validation():
    with pytest.raises(ValueError, match="normalized"):
        PureState(np.array([1.0, 1.0]))
    with pytest.raises(ValueError, match="dimension"):
        PureState(np.array([1.0, 0.0, 0.0, 0.0]))


def test_haar_deterministic_for_seed():
    a = haar_random_state(3, seed=123)
    b = haar_random_state(3, seed=123)
    assert np.array_equal(a.vec, b.vec)


def test_haar_normalized():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        psi = haar_random_state(2, rng)
        assert abs(np.linalg.norm(psi.vec) - 1.0) <= 1e-12


@pytest.mark.parametrize("dim", [2, 3])
def test_haar_first_moment(dim):
    # mean overlap-squared with any fixed basis vector is 1/dim
    rng = np.random.default_rng(7)
    n = 100_000
    z = rng.standard_normal((n, dim)) + 1j * rng.standard_normal((n, dim))
    z /= np.linalg.norm(z, axis=1)[:, None]
    for i in range(dim):
        assert abs(np.mean(np.abs(z[:, i]) ** 2) - 1.0 / dim) < 0.01


def test_haar_unitary_invariance():
    # statistics of a fixed-direction overlap are unchanged by rotating the frame
    rng = np.random.default_rng(8)
    n = 50_000
    samples = np.stack([haar_random_state(2, rng).vec for _ in range(200)])
    theta = 1.234
    u = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    z = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
    z /= np.linalg.norm(z, axis=1)[:, None]
    rotated = z @ u.T
    assert abs(np.mean(np.abs(rotated[:, 0]) ** 2) - 0.5) < 0.01
    assert samples.shape == (200, 2)


def test_orthogonal_complement_examples():
    perp = orthogonal_complement_qubit(basis_state(2, 0))
    assert abs(abs(np.vdot(perp.vec, basis_state(2, 1).vec)) - 1.0) <= 1e-12
    plus = PureState(np.array([1.0, 1.0]) / np.sqrt(2))
    minus = PureState(np.array([1.0, -1.0]) / np.sqrt(2))
    perp = orthogonal_complement_qubit(plus)
    assert abs(abs(np.vdot(perp.vec, minus.vec)) - 1.0) <= 1e-12


def test_orthogonal_complement_random_and_involution():
    rng = np.random.default_rng(9)
    for _ in range(100):
        psi = haar_random_state(2, rng)
        perp = orthogonal_complement_qubit(psi)
        assert abs(np.vdot(psi.vec, perp.vec)) <= 1e-12
        again = orthogonal_complement_qubit(perp)
        assert abs(abs(np.vdot(psi.vec, again.vec)) - 1.0) <= 1e-10


def test_orthogonal_complement_requires_qubit():
    with pytest.raises(ValueError):
        orthogonal_complement_qubit(basis_state(3, 0))


def test_adapted_basis_orthogonal_pair():
    b0, b1, b2 = qutrit_adapted_basis(basis_state(3, 0), basis_state(3, 1))
    assert np.allclose(b0, basis_state(3, 0).vec)
    assert abs(abs(b1[1]) - 1.0) <= 1e-12
    assert abs(abs(b2[2]) - 1.0) <= 1e-12


def test_adapted_basis_uniform_pair():
    psi2 = PureState(np.ones(3) / np.sqrt(3))
    b0, b1, b2 = qutrit_adapted_basis(basis_state(3, 0), psi2)
    assert abs(np.vdot(b0, psi2.vec)) == pytest.approx(1 / np.sqrt(3), abs=1e-12)
    target = np.array([0.0, 1.0, 1.0]) / np.sqrt(2)
    assert abs(abs(np.vdot(b1, target)) - 1.0) <= 1e-12


def test_adapted_basis_properties():
    rng = np.random.default_rng(10)
    for _ in range(50):
        pair = pair_with_overlap(3, rng.uniform(0, 0.95), 0.5, rng)
        b0, b1, b2 = qutrit_adapted_basis(pair.psi1, pair.psi2)
        gram = np.array([[np.vdot(x, y) for y in (b0, b1, b2)] for x in (b0, b1, b2)])
        assert np.max(np.abs(gram - np.eye(3))) <= 1e-12
        # psi2 has no third component and a common phase on the first two
        c = np.array([np.vdot(b, pair.psi2.vec) for b in (b0, b1, b2)])
        assert abs(c[2]) <= 1e-12
        assert abs(c[0]) == pytest.approx(pair.beta, abs=1e-12)
        if pair.beta > 1e-12:
            assert abs(c[0] / abs(c[0]) - c[1] / abs(c[1])) <= 1e-10


def test_adapted_basis_rejects_parallel():
    psi = haar_random_state(3, 1)
    with pytest.raises(ValueError, match="parallel"):
        qutrit_adapted_basis(psi, psi)


@pytest.mark.parametrize("beta", [0.0, 0.5, 1.0])
def test_pair_with_overlap_exact(beta):
    pair = pair_with_overlap(2, beta, 0.3, seed=11)
    assert overlap(pair.psi1, pair.psi2) == pytest.approx(beta, abs=1e-12)


def test_pair_with_overlap_parallel_case():
    pair = pair_with_overlap(3, 1.0, 0.5, seed=12)
    assert abs(abs(np.vdot(pair.psi1.vec, pair.psi2.vec)) - 1.0) <= 1e-12


@settings(max_examples=60, deadline=None, derandomize=True)
@given(hs.floats(0.0, 1.0), hs.integers(0, 2**31 - 1), hs.sampled_from([2, 3]))
def test_pair_overlap_roundtrip(beta, seed, dim):
    pair = pair_with_overlap(dim, beta, 0.5, seed=seed)
    assert abs(overlap(pair.psi1, pair.psi2) - pair.beta) <= 1e-12


def test_pair_rejects_bad_inputs():
    with pytest.raises(ValueError, match="beta"):
        pair_with_overlap(2, 1.5, 0.5, seed=0)
    with pytest.raises(ValueError, match="eta1"):
        pair_with_overlap(2, 0.5, 1.5, seed=0)


def test_nan_fails_the_state_checks():
    with pytest.raises(ValueError, match="normalized"):
        PureState(np.array([np.nan, 0.0]))
    a, b = basis_state(2, 0), basis_state(2, 1)
    with pytest.raises(NumericalError, match="stored beta nan"):
        StatePair(a, b, float("nan"), 0.5)
    with pytest.raises(ValueError, match="eta1"):
        StatePair(a, b, 0.0, float("nan"))


class _ParallelOnce(np.random.Generator):
    """Copies row ``row`` of its first normal draw into its second, so that point's first direction is psi1's own."""

    def __init__(self, seed, row):
        super().__init__(np.random.PCG64(seed))
        self.row, self.draws = row, []

    def standard_normal(self, *args, **kwargs):
        draw = super().standard_normal(*args, **kwargs)
        if len(self.draws) == 1:
            draw[self.row] = self.draws[0][self.row]
        self.draws.append(draw)
        return draw


def _pair_loop(dim, beta, seed):
    """One pair drawn and built vector by vector with np.linalg.norm and np.vdot: the reference."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    psi1 = fix_global_phase(z / np.linalg.norm(z))
    if beta >= 1.0:
        return psi1, psi1
    while True:
        z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        w = z - np.vdot(psi1, z) * psi1
        if np.linalg.norm(w) > 1e-6:
            break
    phase = np.exp(2j * np.pi * rng.uniform())
    psi2 = fix_global_phase(phase * beta * psi1 + np.sqrt(1.0 - beta * beta) * (w / np.linalg.norm(w)))
    return psi1, psi2 / np.linalg.norm(psi2)


def _stack_loop(dim, betas, rng):
    """A stack built vector by vector with np.linalg.norm and np.vdot from one generator: the reference.

    The draws are the documented ones: every psi1 in one (P, 2, d) draw; the directions of the
    rows with beta < 1 in one draw, then the rejected ones again until none is; every phase in one.
    """
    z = rng.standard_normal((len(betas), 2, dim))
    psi1 = [fix_global_phase((x + 1j * y) / np.linalg.norm(x + 1j * y)) for x, y in z]
    w = {}
    todo = [k for k, beta in enumerate(betas) if beta < 1.0]
    mixed = list(todo)
    while todo:
        for k, (x, y) in zip(todo, rng.standard_normal((len(todo), 2, dim))):
            w[k] = (x + 1j * y) - np.vdot(psi1[k], x + 1j * y) * psi1[k]
        todo = [k for k in todo if not np.linalg.norm(w[k]) > 1e-6]
    psi2 = list(psi1)
    for k, u in zip(mixed, rng.random(len(mixed))):
        beta = betas[k]
        vec = fix_global_phase(np.exp(2j * np.pi * u) * beta * psi1[k]
                               + np.sqrt(1.0 - beta * beta) * (w[k] / np.linalg.norm(w[k])))
        psi2[k] = vec / np.linalg.norm(vec)
    return np.array(psi1).reshape(-1, dim), np.array(psi2).reshape(-1, dim)


@pytest.mark.parametrize("dim", [2, 3])
def test_stacked_pairs_match_the_one_generator_reference(dim):
    # all the points draw from one generator in the documented order, and a stack of one is the lone call
    points = [(beta, eta1) for beta in (0.0, 1 / np.sqrt(2), 1.0) for eta1 in (0.0, 1.0)] + [(0.4, 0.3)]
    betas, etas = np.array(points).T
    for seed in (3, np.random.SeedSequence(4, spawn_key=(2, 0)), 2**63 + 11):
        stacked = pair_with_overlap(dim, betas, etas, seed)
        assert type(stacked) is StatePair and len(stacked) == len(points)
        reference = _stack_loop(dim, betas, np.random.default_rng(seed))
        assert np.array_equal(stacked.psi1.vec, reference[0]) and np.array_equal(stacked.psi2.vec, reference[1])
        assert stacked.beta.tolist() == betas.tolist() and stacked.eta1.tolist() == etas.tolist()
        assert not stacked.psi1.vec.flags.writeable
        haar = states._haar_rows(np.random.default_rng(seed), len(points), dim)
        assert np.array_equal(stacked.psi1.vec, haar)  # one Haar definition
        for beta, eta1 in points:
            lone, one = pair_with_overlap(dim, beta, eta1, seed), pair_with_overlap(dim, [beta], [eta1], seed)
            assert _bits(one[0]) == _bits(lone)
            assert np.array_equal(lone.psi1.vec, haar_random_state(dim, seed).vec)
            loop = _pair_loop(dim, beta, seed)
            assert np.array_equal(lone.psi1.vec, loop[0]) and np.array_equal(lone.psi2.vec, loop[1])
    rng = np.random.default_rng(5)  # a Generator is drawn from as is, and goes on from where the stack left it
    first, second = pair_with_overlap(dim, betas, etas, rng), pair_with_overlap(dim, betas, etas, rng)
    reference = np.random.default_rng(5)
    for pairs in (first, second):
        expected = _stack_loop(dim, betas, reference)
        assert np.array_equal(pairs.psi1.vec, expected[0]) and np.array_equal(pairs.psi2.vec, expected[1])
    empty = pair_with_overlap(dim, [], [], 0)
    assert type(empty) is StatePair and len(empty) == 0 and list(empty) == []
    assert empty.psi1.vec.shape == empty.psi2.vec.shape == (0, dim) and empty.beta.shape == empty.eta1.shape == (0,)


def _bits(pair):
    """Every field of a lone or stacked pair as bytes, with the types of beta and eta1."""
    return (pair.psi1.vec.tobytes(), pair.psi2.vec.tobytes(), np.asarray(pair.beta).tobytes(),
            np.asarray(pair.eta1).tobytes(), type(pair.beta), type(pair.eta1))


@pytest.mark.parametrize("dim", [2, 3])
def test_stacked_pair_rows_slices_and_index_arrays_are_lone_calls(dim):
    # each row, slice or index array of a stack gives the lone pairs built on the reference's rows
    points = [(beta, eta1) for beta in (0.0, 1 / np.sqrt(2), 1.0) for eta1 in (0.0, 1.0)]
    pairs = pair_with_overlap(dim, *np.transpose(points), 20)
    reference = _stack_loop(dim, [beta for beta, _ in points], np.random.default_rng(20))
    lone = [StatePair(PureState(v1), PureState(v2), beta, eta1) for v1, v2, (beta, eta1) in zip(*reference, points)]
    assert pairs.psi1.vec.shape == pairs.psi2.vec.shape == (len(points), dim)
    assert pairs.beta.shape == pairs.eta1.shape == (len(points),)
    for k in range(-len(points), len(points)):  # an int gives a lone pair
        assert _bits(pairs[k]) == _bits(lone[k])
        assert type(pairs[k].beta) is float and pairs[k].psi1.vec.shape == (dim,)
    assert [_bits(pair) for pair in pairs] == [_bits(pair) for pair in lone]
    for index in (slice(None), slice(1, 5, 2), slice(4, 4), [5, 0, 0, 3], np.array([2, 1]), np.arange(6) % 2 == 0):
        rows = pairs[index]
        expected = [lone[k] for k in np.arange(len(points))[index]]
        assert type(rows) is StatePair and len(rows) == len(expected)
        assert [_bits(pair) for pair in rows] == [_bits(pair) for pair in expected]
        for arr in (rows.psi1.vec, rows.psi2.vec, rows.beta, rows.eta1):
            assert not arr.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                arr[...] = 0
    for arr in (pairs.psi1.vec, pairs.psi2.vec, pairs.beta, pairs.eta1, lone[0].psi1.vec, pairs[0].psi2.vec):
        assert not arr.flags.writeable


def test_lone_pair_has_no_len_and_no_index():
    # as a 0-d array: a lone pair is a stack of one that lost its axis
    pair = pair_with_overlap(2, 0.5, 0.5, seed=1)
    assert pair.psi1.vec.shape == (2,) and type(pair.beta) is float and type(pair.eta1) is float
    assert pair and not pair_with_overlap(2, [], [], 0)  # truth needs no len: a lone pair is true
    for use in (len, iter, lambda p: p[0], lambda p: p[:1], lambda p: p[np.array([0])]):
        with pytest.raises(TypeError, match="lone StatePair"):
            use(pair)


def test_stacked_constructor_names_the_first_failing_row():
    # one check per stack, with the lone messages: each names the value of the first failing row
    pairs = pair_with_overlap(2, [0.2, 0.5, 0.7], [0.3, 0.4, 0.6], 1)
    with pytest.raises(ValueError, match=re.escape(f"state is not normalized: ||v|| = {np.float64(2.0)!r}")):
        PureState(np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]]))
    actual = overlap(pairs.psi1, pairs.psi2)
    with pytest.raises(NumericalError, match=re.escape(f"stored beta 0.6 differs from |<psi1|psi2>| = {actual[1]}")) as err:
        StatePair(pairs.psi1, pairs.psi2, [0.2, 0.6, 0.8], pairs.eta1)
    assert err.value.index == (1,)
    with pytest.raises(ValueError, match=r"^eta1 must lie in \[0, 1\], got 1\.5$"):
        StatePair(pairs.psi1, pairs.psi2, pairs.beta, [0.3, 1.5, -1.0])
    with pytest.raises(ValueError, match=r"^eta1 must lie in \[0, 1\], got nan$"):
        StatePair(pairs.psi1, pairs.psi2, pairs.beta, [0.3, 0.4, np.nan])
    for psi2, beta in ((pairs[:2].psi2, pairs.beta), (pairs.psi2, pairs.beta[:2]), (pairs[0].psi2, pairs.beta)):
        with pytest.raises(ValueError, match="lone, or stacks of one length"):
            StatePair(pairs.psi1, psi2, beta, pairs.eta1)
    for vec in (np.zeros((2, 2, 2)), np.array(1.0), np.zeros((3, 4))):
        with pytest.raises(ValueError, match="dimension must be 2 or 3"):
            PureState(vec)


def test_only_the_rejected_direction_is_redrawn():
    betas = [0.5, 0.2, 1.0, 0.7]
    stubs = [_ParallelOnce(11, row=1), _ParallelOnce(11, row=1)]
    stacked = pair_with_overlap(3, betas, [0.5] * 4, stubs[0])
    reference = _stack_loop(3, betas, stubs[1])
    # psi1, the directions of the three rows with beta < 1, then row 1's redraw alone
    assert all([draw.shape for draw in stub.draws] == [(4, 2, 3), (3, 2, 3), (1, 2, 3)] for stub in stubs)
    assert np.array_equal(stacked.psi2.vec, reference[1])
    assert np.all(np.abs(overlap(stacked.psi1, stacked.psi2) - betas) <= 1e-12)


# every route that takes (beta, eta1) points, called at one point
_ENTRY_POINTS = {
    "success_probability": lambda b, e: st.success_probability(KnowledgeCase(Regime.A3, 2), b, e),
    "optimal_lambda": lambda b, e: st.optimal_lambda(KnowledgeCase(Regime.A3, 2), beta=b, eta1=e),
    "pair_with_overlap": lambda b, e: pair_with_overlap(2, b, e, seed=0),
    "canonical_pair": lambda b, e: states.canonical_pair(2, b, e),
    **{f"case_problem_{r.value}": lambda b, e, r=r: opt.case_problem(KnowledgeCase(r, 2), beta=b, eta1=e)
       for r in (Regime.A3, Regime.A4, Regime.B4)},
    "verify_case": lambda b, e: opt.verify_case(KnowledgeCase(Regime.A3, 2), betas=[b], etas=[e]),
    "estimate_surface": lambda b, e: sim.estimate_surface(KnowledgeCase(Regime.A3, 2), [b], [e], 10, 0),
}


@pytest.mark.parametrize("entry", sorted(_ENTRY_POINTS))
@pytest.mark.parametrize("name, beta, eta1", [("beta", 1.5, 0.5), ("beta", -0.5, 0.5), ("beta", float("nan"), 0.5),
                                              ("eta1", 0.5, 1.5), ("eta1", 0.5, float("nan"))])
def test_every_entry_point_rejects_points_outside_the_unit_square(entry, name, beta, eta1):
    bad = beta if name == "beta" else eta1
    with pytest.raises(ValueError, match=rf"^{name} must lie in \[0, 1\], got {re.escape(str(bad))}$") as err:
        _ENTRY_POINTS[entry](beta, eta1)
    assert type(err.value) is ValueError  # bad input, not a NumericalError (exit 3)


def test_an_uneven_grid_is_laid_out_eta1_major_with_beta_fastest():
    betas, etas = (0.1, 0.55, 0.9), (0.0, 0.3, 0.7, 1.0)
    expected = np.array([(b, e) for e in etas for b in betas]).tobytes()
    assert np.column_stack(states.grid_points(betas, etas)).tobytes() == expected
    case = KnowledgeCase(Regime.A3, 2)
    report = opt.verify_case(case, betas=betas, etas=etas)
    assert np.array([row[:2] for row in report.rows]).tobytes() == expected
    rows = sim.estimate_surface(case, betas, etas, 100, seed=3)
    assert np.array([(row.beta, row.eta1) for row in rows]).tobytes() == expected


def test_stacked_pair_inputs_must_match():
    with pytest.raises(ValueError, match="equal-length 1-d arrays"):
        pair_with_overlap(2, [0.1, 0.2], [0.5], 1)
    with pytest.raises(ValueError, match="equal-length 1-d arrays"):
        pair_with_overlap(2, [[0.1, 0.2]], [[0.5, 0.5]], 1)
    with pytest.raises(ValueError, match="beta must lie in"):
        pair_with_overlap(2, [0.1, np.nan], [0.5, 0.5], 1)
    with pytest.raises(ValueError, match="eta1 must lie in"):
        pair_with_overlap(2, [0.1, 0.2], [0.5, 1.5], 1)


def test_a_sequence_of_seeds_is_rejected():
    # numpy would read a sequence as the entropy of one seed, so a list of per-point seeds would draw other pairs
    for seed in ([1, 2], (1, 2), np.array([1, 2]), range(2), [7], []):
        for betas, etas in (([0.1, 0.2], [0.5, 0.5]), (0.1, 0.5)):
            with pytest.raises(ValueError, match="not a sequence"):
                pair_with_overlap(2, betas, etas, seed)


def test_stacked_adapted_bases_match_lone_calls():
    pairs = pair_with_overlap(3, [0.0, 0.3, 1 / np.sqrt(2), 0.95], [0.5] * 4, 13)
    v1 = np.vstack([basis_state(3, 0).vec, pairs.psi1.vec])
    v2 = np.vstack([basis_state(3, 1).vec, pairs.psi2.vec])  # beta = 0 exactly: no phase alignment
    stacked = states._adapted_basis(v1, v2)
    for k, (a, b) in enumerate(zip(v1, v2)):
        lone = qutrit_adapted_basis(PureState(a), PureState(b))
        assert all(np.array_equal(s[k], basis) for s, basis in zip(stacked, lone))
    with pytest.raises(ValueError, match="parallel"):
        states._adapted_basis(v1, np.vstack([v2[:-1], v1[-1]]))


@pytest.mark.parametrize("seed", (0, 7, 2**63 + 11, [3359, 0]))
def test_random_is_the_double_of_uniform(seed):
    # pair_with_overlap draws its phase with random(): the double of uniform()'s 0.0 + 1.0 * next_double,
    # at the same stream position, whatever the Gaussian draws before it and the draw after it
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(500):
        assert np.array_equal(ours.standard_normal((2, 3)), theirs.standard_normal((2, 3)))
        phase, reference = ours.random(), theirs.uniform()
        assert type(phase) is type(reference) is float and phase.hex() == reference.hex()
    # and a stack's phases, one random(m), are m draws of uniform() in turn
    phases, reference = ours.random(4), [theirs.uniform() for _ in range(4)]
    assert [phase.hex() for phase in phases.tolist()] == [value.hex() for value in reference]
    assert ours.standard_normal() == theirs.standard_normal()
    assert ours.bit_generator.state == theirs.bit_generator.state


# sha256 over lone pairs (dims, edge and inner betas, both priors, int and SeedSequence seeds),
# recorded while each point of a stack still drew from its own generator
_LONE_PAIRS_SHA256 = "b59eb86e9b5c3a4679e4264b12ad6797b48e71298603bc3f2be1f634cf41e329"


def test_lone_pairs_are_pinned():
    digest = hashlib.sha256()
    for dim in (2, 3):
        for beta in (0.0, 0.3, 0.5, 1 / np.sqrt(2), 0.95, 1.0):
            for eta1 in (0.0, 1.0):
                for seed in (0, 1, 7, 12345, 2**63 + 11, 2**128 - 1, np.random.SeedSequence(4, spawn_key=(2, 0))):
                    pair = pair_with_overlap(dim, beta, eta1, seed)
                    digest.update(pair.psi1.vec.tobytes() + pair.psi2.vec.tobytes())
                    digest.update(np.array([pair.beta, pair.eta1]).tobytes())
    assert digest.hexdigest() == _LONE_PAIRS_SHA256
