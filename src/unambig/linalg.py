"""Dense complex linear algebra for small register spaces (dimension <= 27).

Conventions: tensor products are row-major with the leftmost factor most
significant, so registers laid out A (x) B (x) C map index a*d*d + b*d + c
to basis state |a b c>.
"""

from __future__ import annotations

import numpy as np

HERMITIAN_TOL = 1e-12


class NumericalError(ValueError):
    """A numerical self-check failed inside the program: not a fault of the caller's input."""


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Tensor product of vectors or operators, leftmost factor most significant.

    A vector-vector product is one broadcast multiply, bitwise equal to
    ``np.kron`` without its per-call axis bookkeeping; other ranks go to
    ``np.kron``.
    """
    a, b = np.asarray(a), np.asarray(b)
    if a.ndim == b.ndim == 1:
        return (a[:, None] * b[None, :]).reshape(-1)
    return np.kron(a, b)


def projector(v: np.ndarray) -> np.ndarray:
    """Rank-1 projector |v><v|."""
    v = np.asarray(v, dtype=complex)
    return np.outer(v, v.conj())


def hermiticity_defect(m: np.ndarray) -> float:
    m = np.asarray(m)
    return float(np.max(np.abs(m - m.conj().T)))


def is_hermitian(m: np.ndarray, tol: float = HERMITIAN_TOL) -> bool:
    m = np.asarray(m)
    return m.ndim == 2 and m.shape[0] == m.shape[1] and hermiticity_defect(m) <= tol


def _check_hermitian(m: np.ndarray, tol: float) -> None:
    defect = hermiticity_defect(m)
    if defect > tol:
        raise NumericalError(f"matrix is not Hermitian (defect {defect:.3e} > {tol:.1e})")


def eigvals_hermitian(m: np.ndarray, tol: float = HERMITIAN_TOL) -> np.ndarray:
    """Real eigenvalues of a Hermitian matrix, ascending.

    Rejects input whose hermiticity defect exceeds ``tol``.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    _check_hermitian(m, tol)
    return np.linalg.eigvalsh(m)


def hermitian_eigensystem(m: np.ndarray, tol: float = HERMITIAN_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and eigenvector columns of a Hermitian matrix."""
    m = np.asarray(m, dtype=complex)
    _check_hermitian(m, tol)
    return np.linalg.eigh(m)


def min_eigenvalue(m: np.ndarray, tol: float = HERMITIAN_TOL) -> float:
    return float(eigvals_hermitian(m, tol=tol)[0])


def expectation(state: np.ndarray, op: np.ndarray) -> float:
    """<state|op|state> for a normalized state and Hermitian op; returns the real part.

    Raises on dimension mismatch or if the value has an imaginary part
    beyond 1e-12 (which would mean ``op`` is not Hermitian).
    """
    state = np.asarray(state, dtype=complex).reshape(-1)
    op = np.asarray(op, dtype=complex)
    if op.shape != (state.size, state.size):
        raise ValueError(f"dimension mismatch: state dim {state.size}, operator shape {op.shape}")
    val = np.vdot(state, op @ state)
    if abs(val.imag) > 1e-12:
        raise NumericalError(f"expectation has imaginary part {val.imag:.3e}; operator not Hermitian?")
    return float(val.real)


def fix_global_phase(v: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Rotate a vector's global phase so its first nonzero entry is real positive."""
    v = np.asarray(v, dtype=complex)
    for x in v:
        if abs(x) > tol:
            return v * (abs(x) / x)
    return v.copy()


def orthonormal_completion(v: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """Unitary whose first column is ``v``; remaining columns complete the basis.

    Deterministic: Gram-Schmidt over the canonical basis vectors in index
    order, skipping the one most parallel to ``v``, with every column
    phase-fixed.
    """
    v = np.asarray(v, dtype=complex).reshape(-1)
    d = v.size
    cols = [v]
    skip = int(np.argmax(np.abs(v)))
    for j in [k for k in range(d) if k != skip]:
        w = np.zeros(d, dtype=complex)
        w[j] = 1.0
        for c in cols:
            w = w - np.vdot(c, w) * c
        n = np.linalg.norm(w)
        if n > tol:
            cols.append(fix_global_phase(w / n))
        if len(cols) == d:
            break
    if len(cols) != d:
        raise ValueError("failed to complete basis (input vector degenerate?)")
    return np.column_stack(cols)
