"""Dense complex linear algebra for small register spaces (dimension <= 27).

Conventions: tensor products are row-major with the leftmost factor most
significant, so registers laid out A (x) B (x) C map index a*d*d + b*d + c
to basis state |a b c>.
"""

from __future__ import annotations

import numpy as np

HERMITIAN_TOL = 1e-12


class NumericalError(ValueError):
    """A numerical self-check failed inside the program: not a fault of the caller's input.

    ``index`` locates the first failing entry of a check in row order:
    its leading indices in a stack, ``()`` for a lone matrix or value.
    """

    def __init__(self, message: str, index: tuple[int, ...] | None = None) -> None:
        super().__init__(message)
        self.index = index


def _first_failure(bad) -> tuple[int, ...] | None:
    """Index of the first True entry of ``bad`` in row order (``()`` if 0-d), or None if none is True."""
    bad = np.asarray(bad)
    if not np.count_nonzero(bad):
        return None
    return tuple(int(i) for i in np.unravel_index(np.argmax(bad), bad.shape))


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Tensor product of vectors or operators, leftmost factor most significant.

    A vector-vector product is one broadcast multiply, bitwise equal to
    ``np.kron`` without its per-call axis bookkeeping.  Operands with more
    than two axes are stacks of matrices: the product is taken matrix by
    matrix over their broadcast leading axes, each entry the same single
    multiply as ``np.kron`` of the two matrices.  Other ranks go to
    ``np.kron``.
    """
    a, b = np.asarray(a), np.asarray(b)
    if a.ndim == b.ndim == 1:
        return (a[:, None] * b[None, :]).reshape(-1)
    if a.ndim > 2 or b.ndim > 2:
        out = a[..., :, None, :, None] * b[..., None, :, None, :]
        return out.reshape(out.shape[:-4] + (a.shape[-2] * b.shape[-2], a.shape[-1] * b.shape[-1]))
    return np.kron(a, b)


def projector(v: np.ndarray) -> np.ndarray:
    """Rank-1 projector |v><v|, or one per vector of an ``(..., n)`` stack."""
    v = np.asarray(v, dtype=complex)
    return v[..., :, None] * v.conj()[..., None, :]


def hermiticity_defect(m: np.ndarray) -> float | np.ndarray:
    """max |m - m^H| of a matrix, or per matrix of an ``(..., n, n)`` stack."""
    m = np.asarray(m)
    return np.abs(m - m.conj().swapaxes(-1, -2)).max(axis=(-2, -1))


def _check_hermitian(m: np.ndarray, tol: float) -> None:
    defect = np.asarray(hermiticity_defect(m))
    index = _first_failure(defect > tol)
    if index is not None:
        raise NumericalError(f"matrix is not Hermitian (defect {defect[index]:.3e} > {tol:.1e})", index)


def eigvals_hermitian(m: np.ndarray, tol: float = HERMITIAN_TOL) -> np.ndarray:
    """Real eigenvalues of a Hermitian matrix, ascending; ``(..., n)`` for an ``(..., n, n)`` stack.

    Rejects input whose hermiticity defect exceeds ``tol``.  A stack is one
    ``eigvalsh`` call, which solves it matrix by matrix, so each matrix gets
    bitwise the eigenvalues of its own call.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {m.shape}")
    _check_hermitian(m, tol)
    return np.linalg.eigvalsh(m)


def min_eigenvalue(m: np.ndarray, tol: float = HERMITIAN_TOL) -> float:
    return float(eigvals_hermitian(m, tol=tol)[0])


def expectation(state: np.ndarray, op: np.ndarray) -> float | np.ndarray:
    """<state|op|state> for a normalized state and Hermitian op; returns the real part.

    ``state`` may be an ``(..., n)`` stack and ``op`` an ``(..., n, n)``
    stack; their leading axes broadcast and the result has their shape.
    Raises on dimension mismatch or if a value has an imaginary part
    beyond 1e-12 (which would mean ``op`` is not Hermitian).
    """
    state = np.asarray(state, dtype=complex)
    op = np.asarray(op, dtype=complex)
    if state.ndim < 1 or op.ndim < 2 or op.shape[-2:] != (state.shape[-1],) * 2:
        raise ValueError(f"dimension mismatch: state shape {state.shape}, operator shape {op.shape}")
    # two matmuls, bitwise equal to np.vdot(state, op @ state) per value; einsum rounds differently
    val = np.matmul(state.conj()[..., None, :], np.matmul(op, state[..., None]))[..., 0, 0]
    index = _first_failure(np.abs(val.imag) > 1e-12)
    if index is not None:
        raise NumericalError(f"expectation has imaginary part {val.imag[index]:.3e}; operator not Hermitian?", index)
    return float(val.real) if val.ndim == 0 else val.real


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
