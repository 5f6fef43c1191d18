"""Lone-state helpers that only the tests use, built on the stacked code in ``unambig``."""

import numpy as np

from unambig import linalg, states
from unambig.states import PureState


def basis_state(dim: int, index: int) -> PureState:
    v = np.zeros(dim, dtype=complex)
    v[index] = 1.0
    return PureState(v)


def haar_random_state(dim: int, seed) -> PureState:
    """Uniformly random pure state: normalized i.i.d. complex Gaussian amplitudes."""
    return PureState(states._haar_rows(np.random.default_rng(seed), 1, dim)[0])


def orthogonal_complement_qubit(psi: PureState) -> PureState:
    """The unique (up to phase) qubit state orthogonal to ``psi``."""
    if psi.dim != 2:
        raise ValueError("orthogonal complement is only defined here for qubits")
    return PureState(states._qubit_complement(psi.vec))


def qutrit_adapted_basis(psi1: PureState, psi2: PureState) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Orthonormal qutrit basis (b0, b1, b2) adapted to a state pair: ``states._adapted_basis`` of one row."""
    if psi1.dim != 3 or psi2.dim != 3:
        raise ValueError("adapted basis requires two qutrits")
    return tuple(b[0] for b in states._adapted_basis(psi1.vec[None], psi2.vec[None]))


def min_eigenvalue(m: np.ndarray) -> float:
    return float(linalg.eigvals_hermitian(m)[0])
