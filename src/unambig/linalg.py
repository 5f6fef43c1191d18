"""Dense complex linear algebra for small register spaces (dimension <= 27).

Conventions: tensor products are row-major with the leftmost factor most
significant, so registers laid out A (x) B (x) C map index a*d*d + b*d + c
to basis state |a b c>.
"""

from __future__ import annotations

import numpy as np

HERMITIAN_TOL = 1e-12
PHASE_TOL = 1e-12  # fix_global_phase: an entry this small carries no phase
COMPLETION_TOL = 1e-9  # orthonormal_completion: the least norm of a Gram-Schmidt remainder


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

    Operands with more than two axes are stacks of matrices: the product
    is taken matrix by matrix over their broadcast leading axes, each
    entry the same single multiply as ``np.kron`` of the two matrices.
    Other ranks go to ``np.kron``.
    """
    a, b = np.asarray(a), np.asarray(b)
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


def eigvals_hermitian(m: np.ndarray) -> np.ndarray:
    """Real eigenvalues of a Hermitian matrix, ascending; ``(..., n)`` for an ``(..., n, n)`` stack.

    Rejects input whose hermiticity defect exceeds ``HERMITIAN_TOL``.  A
    stack is one ``eigvalsh`` call, which solves it matrix by matrix, so
    each matrix gets bitwise the eigenvalues of its own call.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {m.shape}")
    defect = np.asarray(hermiticity_defect(m))
    index = _first_failure(~(defect <= HERMITIAN_TOL))  # NaN fails
    if index is not None:
        raise NumericalError(f"matrix is not Hermitian (defect {defect[index]:.3e} > {HERMITIAN_TOL:.1e})", index)
    return np.linalg.eigvalsh(m)


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
    index = _first_failure(~(np.abs(val.imag) <= 1e-12))
    if index is not None:
        raise NumericalError(f"expectation has imaginary part {val.imag[index]:.3e}; operator not Hermitian?", index)
    return float(val.real) if val.ndim == 0 else val.real


def modulus(c: np.ndarray) -> np.ndarray:
    """|c| per entry, bitwise Python's ``abs`` of each complex scalar (``np.abs`` rounds differently)."""
    return np.hypot(np.real(c), np.imag(c))


def row_norms(v: np.ndarray) -> np.ndarray:
    """Norm of each row of an ``(..., d)`` stack: two stacked matmuls, bitwise ``np.linalg.norm`` of the row."""
    v = np.asarray(v, dtype=complex)
    re, im = v.real[..., None, :], v.imag[..., None, :]
    return np.sqrt((re @ re.swapaxes(-1, -2) + im @ im.swapaxes(-1, -2))[..., 0, 0])


def row_vdots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """<a|b> for each pair of rows of two ``(..., d)`` stacks; a stacked matmul, bitwise ``np.vdot``."""
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    return (a.conj()[..., None, :] @ b[..., :, None])[..., 0, 0]


def fix_global_phase(v: np.ndarray) -> np.ndarray:
    """Rotate a vector's global phase so its first entry of modulus above ``PHASE_TOL`` is real positive.

    Works row by row on an ``(..., d)`` stack; a row with no such entry
    is returned unchanged.
    """
    v = np.array(v, dtype=complex, order="C")  # a copy whose rows are views, rotated in place
    rows = v.reshape(-1, v.shape[-1])
    mags = modulus(rows)
    big = mags > PHASE_TOL
    k = np.flatnonzero(big.any(axis=-1))
    j = big[k].argmax(axis=-1)
    rows[k] = rows[k] * (mags[k, j] / rows[k, j])[:, None]
    return v


def orthonormal_completion(v: np.ndarray) -> np.ndarray:
    """Unitary whose first column is ``v``; remaining columns complete the basis.

    Deterministic: Gram-Schmidt over the canonical basis vectors in index
    order, skipping the one most parallel to ``v``, with every column
    phase-fixed.  An ``(..., d)`` stack gives one ``(d, d)`` unitary per
    row, each bitwise that of the row alone.
    """
    v = np.asarray(v, dtype=complex)
    rows = v.reshape(-1, v.shape[-1])
    p, d = rows.shape
    skip = np.argmax(np.abs(rows), axis=-1)
    steps = np.arange(d - 1)
    others = steps + (steps >= skip[:, None])  # (p, d - 1): the other indices in order
    cols = [rows]
    for j in others.T:
        w = np.zeros((p, d), dtype=complex)
        w[np.arange(p), j] = 1.0
        for c in cols:
            w = w - row_vdots(c, w)[:, None] * c
        n = row_norms(w)
        if not np.all(n > COMPLETION_TOL):
            raise ValueError("failed to complete basis (input vector degenerate?)")
        cols.append(fix_global_phase(w / n[:, None]))
    return np.stack(cols, axis=-1).reshape(v.shape + (d,))


def _first_rows(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mask of the rows where each distinct key first occurs, and each row's index among those rows.

    Row order comes from the mask, not from sorting indices: a process's first integer sort maps
    about 0.3 MB more of numpy into a verify run's peak RSS (as ``np.unique`` without indices
    would by importing ``numpy.ma``)."""
    _, first, inverse = np.unique(keys, axis=0, return_index=True, return_inverse=True)
    mask = np.zeros(len(keys), dtype=bool)
    mask[first] = True
    return mask, (np.cumsum(mask) - 1)[first[inverse]]
