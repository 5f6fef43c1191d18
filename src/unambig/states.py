"""Pure states of qubits and qutrits: construction, sampling, decompositions.

Global phase convention: generated states have their first nonzero
amplitude real and nonnegative, so repeated runs produce identical bytes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import NumericalError, fix_global_phase

NORM_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class PureState:
    """Unit vector in dimension 2 or 3."""

    vec: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.vec, dtype=complex).reshape(-1)
        if arr.size not in (2, 3):
            raise ValueError(f"state dimension must be 2 or 3, got {arr.size}")
        norm = np.linalg.norm(arr)
        if abs(norm - 1.0) > NORM_TOL:
            raise ValueError(f"state is not normalized: ||v|| = {norm!r}")
        arr.setflags(write=False)
        object.__setattr__(self, "vec", arr)

    @property
    def dim(self) -> int:
        return self.vec.size


def basis_state(dim: int, index: int) -> PureState:
    v = np.zeros(dim, dtype=complex)
    v[index] = 1.0
    return PureState(v)


def overlap(a: PureState, b: PureState) -> float:
    """Modulus of the inner product |<a|b>|."""
    return float(abs(np.vdot(a.vec, b.vec)))


@dataclass(frozen=True, eq=False)
class StatePair:
    """Two states with their overlap modulus and the preparation prior of the first."""

    psi1: PureState
    psi2: PureState
    beta: float
    eta1: float

    def __post_init__(self) -> None:
        if self.psi1.dim != self.psi2.dim:
            raise ValueError("psi1 and psi2 must have equal dimension")
        if not 0.0 <= self.eta1 <= 1.0:
            raise ValueError(f"eta1 must lie in [0, 1], got {self.eta1}")
        actual = overlap(self.psi1, self.psi2)
        if abs(actual - self.beta) > NORM_TOL:
            raise NumericalError(f"stored beta {self.beta} differs from |<psi1|psi2>| = {actual}")

    @property
    def dim(self) -> int:
        return self.psi1.dim


def canonical_pair(dim: int, beta: float, eta1: float) -> StatePair:
    """Deterministic pair with overlap beta: e0 and beta*e0 + sqrt(1-beta^2)*e1."""
    v1 = np.zeros(dim, dtype=complex)
    v1[0] = 1.0
    v2 = np.zeros(dim, dtype=complex)
    v2[0] = beta
    v2[1] = np.sqrt(max(0.0, 1.0 - beta * beta))
    return StatePair(PureState(v1), PureState(v2), float(beta), float(eta1))


def _as_generator(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def haar_random_state(dim: int, seed) -> PureState:
    """Uniformly random pure state: normalized i.i.d. complex Gaussian amplitudes."""
    if dim not in (2, 3):
        raise ValueError(f"dim must be 2 or 3, got {dim}")
    rng = _as_generator(seed)
    z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return PureState(fix_global_phase(z / np.linalg.norm(z)))


def orthogonal_complement_qubit(psi: PureState) -> PureState:
    """The unique (up to phase) qubit state orthogonal to ``psi``."""
    if psi.dim != 2:
        raise ValueError("orthogonal complement is only defined here for qubits")
    a, b = psi.vec
    return PureState(fix_global_phase(np.array([np.conj(b), -np.conj(a)])))


def qutrit_adapted_basis(psi1: PureState, psi2: PureState) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Orthonormal qutrit basis (b0, b1, b2) adapted to a state pair.

    b0 equals psi1, and psi2 lies in span{b0, b1} with
    psi2 = phase * (beta*b0 + sqrt(1-beta^2)*b1) for a single global phase,
    where beta = |<psi1|psi2>|.  Parallel pairs (beta = 1) are degenerate
    and rejected.
    """
    if psi1.dim != 3 or psi2.dim != 3:
        raise ValueError("adapted basis requires two qutrits")
    b0 = psi1.vec
    c0 = np.vdot(b0, psi2.vec)
    beta = abs(c0)
    if beta > 1.0 - 1e-12:
        raise ValueError("states are parallel (beta = 1): adapted basis is degenerate")
    resid = psi2.vec - c0 * b0
    b1 = resid / np.linalg.norm(resid)
    if beta > 1e-15:
        # align b1's coefficient phase with b0's, so psi2 has one global phase
        b1 = np.conj(c0 / beta) * b1
    b2 = fix_global_phase(np.conj(np.cross(b0, b1)))
    b2 = b2 / np.linalg.norm(b2)
    return b0, b1, b2


def pair_with_overlap(dim: int, beta: float, eta1: float, seed) -> StatePair:
    """Random pair with exactly the prescribed overlap modulus.

    psi1 is Haar random; psi2 mixes psi1 (with a random relative phase)
    and a Haar-random orthogonal direction.
    """
    if not 0.0 <= beta <= 1.0:
        raise ValueError(f"beta must lie in [0, 1], got {beta}")
    rng = _as_generator(seed)
    psi1 = haar_random_state(dim, rng)
    if beta >= 1.0:
        return StatePair(psi1, PureState(psi1.vec.copy()), 1.0, eta1)
    while True:
        z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        w = z - np.vdot(psi1.vec, z) * psi1.vec
        n = np.linalg.norm(w)
        if n > 1e-6:
            w = w / n
            break
    phase = np.exp(2j * np.pi * rng.uniform())
    vec2 = fix_global_phase(phase * beta * psi1.vec + np.sqrt(1.0 - beta * beta) * w)
    vec2 = vec2 / np.linalg.norm(vec2)
    return StatePair(psi1, PureState(vec2), float(beta), float(eta1))
