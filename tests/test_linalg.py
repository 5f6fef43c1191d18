import numpy as np
import pytest
from hypothesis import given, settings, strategies as hs

from unambig.linalg import (
    NumericalError,
    eigvals_hermitian,
    expectation,
    fix_global_phase,
    hermiticity_defect,
    kron,
    orthonormal_completion,
    projector,
)
from unambig.povm import LambdaParams, antisymmetric_state, build_unknown_unknown

from lone_states import min_eigenvalue


def random_hermitian(rng, d):
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (m + m.conj().T) / 2


def test_kron_identity():
    assert np.allclose(kron(np.eye(2), np.eye(2)), np.eye(4))


def test_kron_basis_vectors():
    e0 = np.array([1.0, 0.0])
    e1 = np.array([0.0, 1.0])
    assert np.allclose(kron(e0, e1), [0, 1, 0, 0])


def test_kron_trace_multiplicative():
    p = projector(antisymmetric_state(np.eye(2)[0], np.eye(2)[1]))
    assert abs(np.trace(kron(p, np.eye(2))) - 2.0) < 1e-12


@settings(max_examples=50, deadline=None, derandomize=True)
@given(hs.integers(0, 2**32 - 1))
def test_kron_associative_and_bilinear(seed):
    rng = np.random.default_rng(seed)
    a, b, c = (random_hermitian(rng, 2) for _ in range(3))
    assert np.max(np.abs(kron(kron(a, b), c) - kron(a, kron(b, c)))) <= 1e-12
    assert np.max(np.abs(kron(a + b, c) - (kron(a, c) + kron(b, c)))) <= 1e-12


_operands = hs.tuples(hs.integers(1, 4), hs.integers(1, 4), hs.booleans())


@settings(max_examples=200, deadline=None, derandomize=True)
@given(hs.sampled_from([(1, 1), (2, 2), (1, 2), (2, 1)]), _operands, _operands, hs.integers(0, 2**32 - 1))
def test_kron_equals_numpy_kron(ranks, shape_a, shape_b, seed):
    rng = np.random.default_rng(seed)

    def operand(rank, shape):
        rows, cols, is_complex = shape
        dims = (rows, cols)[:rank]
        x = rng.standard_normal(dims)
        return x + 1j * rng.standard_normal(dims) if is_complex else x

    a, b = operand(ranks[0], shape_a), operand(ranks[1], shape_b)
    got, want = kron(a, b), np.kron(a, b)
    assert got.dtype == want.dtype and np.array_equal(got, want)


def test_kron_of_matrix_stacks_is_kron_per_matrix():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((4, 2, 3)) + 1j * rng.standard_normal((4, 2, 3))
    b = rng.standard_normal((4, 3, 2)) + 1j * rng.standard_normal((4, 3, 2))
    got = kron(a, b)
    assert got.shape == (4, 6, 6)
    assert all(np.array_equal(got[k], np.kron(a[k], b[k])) for k in range(4))
    assert np.array_equal(kron(a[:1], b), np.stack([np.kron(a[0], m) for m in b]))


def test_eigvals_identity():
    assert np.allclose(eigvals_hermitian(np.eye(3)), [1, 1, 1])


def test_eigvals_rank_one_projector():
    p = projector(antisymmetric_state(np.eye(2)[0], np.eye(2)[1]))
    vals = eigvals_hermitian(p)
    assert np.allclose(vals, [0, 0, 0, 1], atol=1e-12)


def test_pair_program_inconclusive_boundary_eigenvalue():
    # at the constraint boundary the inconclusive element just touches zero
    povm = build_unknown_unknown(2, LambdaParams.of(2 / 3, 2 / 3))
    assert abs(min_eigenvalue(povm.pi0)) <= 1e-9


def test_eigvals_sum_equals_trace():
    rng = np.random.default_rng(3)
    for d in (2, 4, 8, 27):
        m = random_hermitian(rng, d)
        assert abs(eigvals_hermitian(m).sum() - np.trace(m).real) <= 1e-9


@pytest.mark.parametrize("d", (2, 3, 4, 8, 9, 27))
def test_stacked_linalg_matches_single_matrices(d):
    # one call on an (..., n, n) stack gives bitwise each matrix's own result
    rng = np.random.default_rng(d)
    ms = np.stack([random_hermitian(rng, d) for _ in range(6)]).reshape(2, 3, d, d)
    vs = rng.standard_normal((2, 3, d)) + 1j * rng.standard_normal((2, 3, d))
    vs /= np.linalg.norm(vs, axis=-1, keepdims=True)
    vals, defects, means = eigvals_hermitian(ms), hermiticity_defect(ms), expectation(vs, ms)
    assert vals.shape == vs.shape and defects.shape == means.shape == (2, 3)
    for i in np.ndindex(2, 3):
        assert np.array_equal(vals[i], eigvals_hermitian(ms[i]))
        assert defects[i] == hermiticity_defect(ms[i])
        assert means[i] == expectation(vs[i], ms[i]) == np.vdot(vs[i], ms[i] @ vs[i]).real
    assert np.array_equal(expectation(vs[0, 0], ms), [[expectation(vs[0, 0], m) for m in row] for row in ms])


def test_stacked_checks_locate_the_first_failure():
    ms = np.stack([np.eye(2, dtype=complex)] * 4)
    ms[2, 0, 1] = 1e-3
    ms[3, 1, 0] = 1.0
    with pytest.raises(NumericalError, match=r"defect 1\.000e-03") as err:
        eigvals_hermitian(ms)
    assert err.value.index == (2,)
    skew = np.stack([np.eye(2, dtype=complex)] * 3)
    skew[1] += 1e-6j * np.eye(2)
    with pytest.raises(NumericalError, match="imaginary part") as err:
        expectation(np.array([[1.0, 0.0], [0.0, 1.0]])[:, None, :], skew)
    assert err.value.index == (0, 1)
    with pytest.raises(NumericalError) as err:
        eigvals_hermitian(ms[3])
    assert err.value.index == ()


def test_non_hermitian_rejected():
    m = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(NumericalError, match="Hermitian"):
        eigvals_hermitian(m)


def test_expectation_basic():
    e0 = np.array([1.0, 0.0])
    assert expectation(e0, projector(e0)) == pytest.approx(1.0, abs=1e-12)


def test_expectation_identity_is_one():
    rng = np.random.default_rng(5)
    for d in (2, 3):
        v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        v /= np.linalg.norm(v)
        assert expectation(v, np.eye(d)) == pytest.approx(1.0, abs=1e-12)


def test_expectation_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension"):
        expectation(np.array([1.0, 0.0]), np.eye(3))


def test_fix_global_phase():
    v = np.array([0.0, -0.6j, 0.8])
    fixed = fix_global_phase(v)
    assert fixed[1].real > 0 and abs(fixed[1].imag) < 1e-15
    assert abs(np.abs(np.vdot(v, fixed)) - 1.0) < 1e-12


def test_orthonormal_completion_is_unitary():
    rng = np.random.default_rng(6)
    for d in (2, 3):
        v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        v /= np.linalg.norm(v)
        u = orthonormal_completion(v)
        assert np.allclose(u.conj().T @ u, np.eye(d), atol=1e-12)
        assert np.allclose(u[:, 0], v)


def _phase_fix_loop(v, tol=1e-12):
    """The per-vector phase fix, one entry at a time: the reference for the stacked one."""
    for x in v:
        if abs(x) > tol:
            return v * (abs(x) / x)
    return v.copy()


def _completion_loop(v, tol=1e-9):
    """Per-vector Gram-Schmidt with np.vdot and np.linalg.norm: the reference for the stacked one."""
    d = v.size
    cols = [v]
    for j in [k for k in range(d) if k != int(np.argmax(np.abs(v)))]:
        w = np.eye(d, dtype=complex)[j]
        for c in cols:
            w = w - np.vdot(c, w) * c
        cols.append(_phase_fix_loop(w / np.linalg.norm(w)))
    return np.column_stack(cols)


def test_stacked_phase_fix_matches_lone_calls():
    rng = np.random.default_rng(17)
    rows = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
    rows[1, 0] = 0.0  # zero leading entry
    rows[2] = 0.0  # the zero vector stays as it is
    rows[3, :2] = 1e-13  # entries at or below tol are skipped
    stacked = fix_global_phase(rows)
    assert np.array_equal(stacked[2], np.zeros(3))
    for row, lone in zip(rows, stacked):
        assert np.array_equal(fix_global_phase(row), lone) and np.array_equal(_phase_fix_loop(row), lone)
    assert np.array_equal(fix_global_phase(rows.reshape(2, 3, 3)), stacked.reshape(2, 3, 3))
    assert np.array_equal(fix_global_phase(np.asfortranarray(rows.reshape(2, 3, 3))), stacked.reshape(2, 3, 3))


@pytest.mark.parametrize("d", [2, 3])
def test_stacked_completion_matches_lone_calls_on_every_skip_index(d):
    rng = np.random.default_rng(d)
    rows = rng.standard_normal((2 * d, d)) + 1j * rng.standard_normal((2 * d, d))
    for k in range(2 * d):
        rows[k, k % d] *= 10.0  # the entry most parallel to the row, skipped by Gram-Schmidt
    rows /= np.linalg.norm(rows, axis=1)[:, None]
    stacked = orthonormal_completion(rows)
    assert stacked.shape == (2 * d, d, d)
    for row, lone in zip(rows, stacked):
        assert np.array_equal(orthonormal_completion(row), lone) and np.array_equal(_completion_loop(row), lone)
    with pytest.raises(ValueError, match="degenerate"):
        orthonormal_completion(np.vstack([rows[:1], np.full(d, np.nan)]))


def test_nan_fails_the_hermiticity_and_expectation_checks():
    with pytest.raises(NumericalError, match="not Hermitian") as err:
        eigvals_hermitian(np.stack([np.eye(2), np.full((2, 2), np.nan)]))
    assert err.value.index == (1,)
    with pytest.raises(NumericalError, match="imaginary part"):
        expectation(np.array([1.0, 0.0]), np.array([[np.nan, 0.0], [0.0, 1.0]]) * 1j)
