"""Pure states of qubits and qutrits: construction, sampling, decompositions.

Global phase convention: generated states have their first nonzero
amplitude real and nonnegative, so repeated runs produce identical bytes.

Stacks: ``pair_with_overlap`` takes 1-d arrays of points with one seed
each and draws, orthogonalises, phase-fixes and checks all their states
as ``(P, d)`` arrays; the adapted qutrit basis and the qubit complement
work on such arrays too.  A lone input is a stack of one, so every row
is bitwise that of its own lone call.  A pair's relative phase is one
standard uniform double, ``Generator.random()``: bitwise the draw of
``uniform()`` (``0.0 + 1.0 * next_double``), without its argument
handling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import NumericalError, _first_failure, fix_global_phase, modulus, row_norms, row_vdots

NORM_TOL = 1e-12


def _check_unit(vecs: np.ndarray) -> None:
    """Reject a ``(P, d)`` stack with a row whose norm is not 1 within NORM_TOL (NaN fails)."""
    norms = row_norms(vecs)
    index = _first_failure(~(np.abs(norms - 1.0) <= NORM_TOL))
    if index is not None:
        raise ValueError(f"state is not normalized: ||v|| = {norms[index]!r}")


def _check_pairs(psi1: np.ndarray, psi2: np.ndarray, betas: np.ndarray, etas: np.ndarray) -> None:
    """Reject rows of a stack of pairs whose prior lies outside [0, 1] or whose overlap is not its beta."""
    index = _first_failure(~((0.0 <= etas) & (etas <= 1.0)))
    if index is not None:
        raise ValueError(f"eta1 must lie in [0, 1], got {etas[index]}")
    actual = overlap(psi1, psi2)
    index = _first_failure(~(np.abs(actual - betas) <= NORM_TOL))
    if index is not None:
        raise NumericalError(f"stored beta {betas[index]} differs from |<psi1|psi2>| = {actual[index]}", index)


def _checked(cls, **fields):
    """An instance of a frozen dataclass whose fields already passed its checks as rows of a stack."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


@dataclass(frozen=True, eq=False)
class PureState:
    """Unit vector in dimension 2 or 3."""

    vec: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.vec, dtype=complex).reshape(-1)
        if arr.size not in (2, 3):
            raise ValueError(f"state dimension must be 2 or 3, got {arr.size}")
        _check_unit(arr[None])
        arr.setflags(write=False)
        object.__setattr__(self, "vec", arr)

    @property
    def dim(self) -> int:
        return self.vec.size


def basis_state(dim: int, index: int) -> PureState:
    v = np.zeros(dim, dtype=complex)
    v[index] = 1.0
    return PureState(v)


def overlap(a: PureState | np.ndarray, b: PureState | np.ndarray) -> float | np.ndarray:
    """Modulus of the inner product |<a|b>|, or one per pair of rows of two ``(P, d)`` arrays of vectors."""
    if isinstance(a, PureState):
        return float(modulus(row_vdots(a.vec, b.vec)))
    return modulus(row_vdots(a, b))


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
        _check_pairs(self.psi1.vec[None], self.psi2.vec[None],
                     np.array([self.beta], dtype=float), np.array([self.eta1], dtype=float))

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


def _gaussian_rows(rngs: list[np.random.Generator], dim: int) -> np.ndarray:
    """One i.i.d. complex Gaussian row per generator: its real parts drawn first, then its imaginary."""
    parts = np.array([rng.standard_normal((2, dim)) for rng in rngs]).reshape(-1, 2, dim)
    return parts[:, 0] + 1j * parts[:, 1]


def _haar_rows(rngs: list[np.random.Generator], dim: int) -> np.ndarray:
    """One uniformly random unit row per generator: normalized complex Gaussian amplitudes, phase-fixed."""
    if dim not in (2, 3):
        raise ValueError(f"dim must be 2 or 3, got {dim}")
    z = _gaussian_rows(rngs, dim)
    return fix_global_phase(z / row_norms(z)[:, None])


def haar_random_state(dim: int, seed) -> PureState:
    """Uniformly random pure state: normalized i.i.d. complex Gaussian amplitudes."""
    return PureState(_haar_rows([np.random.default_rng(seed)], dim)[0])


def _qubit_complement(v: np.ndarray) -> np.ndarray:
    """The phase-fixed (conj(b), -conj(a)) of each row (a, b) of an ``(..., 2)`` stack."""
    return fix_global_phase(np.stack([np.conj(v[..., 1]), -np.conj(v[..., 0])], axis=-1))


def orthogonal_complement_qubit(psi: PureState) -> PureState:
    """The unique (up to phase) qubit state orthogonal to ``psi``."""
    if psi.dim != 2:
        raise ValueError("orthogonal complement is only defined here for qubits")
    return PureState(_qubit_complement(psi.vec))


def _adapted_basis(v1: np.ndarray, v2: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``qutrit_adapted_basis`` of each pair of rows of two ``(P, 3)`` stacks of unit vectors."""
    c0 = row_vdots(v1, v2)
    beta = modulus(c0)
    if not np.all(beta <= 1.0 - 1e-12):
        raise ValueError("states are parallel (beta = 1): adapted basis is degenerate")
    resid = v2 - c0[:, None] * v1
    b1 = resid / row_norms(resid)[:, None]
    # align b1's coefficient phase with b0's, so psi2 has one global phase
    tilted = np.flatnonzero(beta > 1e-15)
    b1[tilted] = np.conj(c0[tilted] / beta[tilted])[:, None] * b1[tilted]
    b2 = fix_global_phase(np.conj(np.cross(v1, b1)))
    b2 = b2 / row_norms(b2)[:, None]
    return v1, b1, b2


def qutrit_adapted_basis(psi1: PureState, psi2: PureState) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Orthonormal qutrit basis (b0, b1, b2) adapted to a state pair.

    b0 equals psi1, and psi2 lies in span{b0, b1} with
    psi2 = phase * (beta*b0 + sqrt(1-beta^2)*b1) for a single global phase,
    where beta = |<psi1|psi2>|.  Parallel pairs (beta = 1) are degenerate
    and rejected.
    """
    if psi1.dim != 3 or psi2.dim != 3:
        raise ValueError("adapted basis requires two qutrits")
    return tuple(b[0] for b in _adapted_basis(psi1.vec[None], psi2.vec[None]))


def _directions(psi: np.ndarray, rngs: list[np.random.Generator]) -> np.ndarray:
    """A random unit row orthogonal to each row of ``psi`` from its generator, redrawn while within 1e-6 of psi."""
    w, n = np.empty_like(psi), np.zeros(len(psi))
    todo = np.arange(len(psi))
    while todo.size:
        z = _gaussian_rows([rngs[k] for k in todo], psi.shape[-1])
        w[todo] = z - row_vdots(psi[todo], z)[:, None] * psi[todo]
        n[todo] = row_norms(w[todo])
        todo = todo[~(n[todo] > 1e-6)]
    return w / n[:, None]


def pair_with_overlap(dim: int, beta, eta1, seed) -> StatePair | list[StatePair]:
    """Random pair with exactly the prescribed overlap modulus.

    psi1 is Haar random; psi2 mixes psi1 (with a random relative phase)
    and a Haar-random orthogonal direction.

    ``beta`` and ``eta1`` may be equal-length 1-d arrays with a sequence
    of one seed per point; the result is then a list of pairs, each
    bitwise the pair of its own lone call.  Each point draws from its own
    generator in a fixed order: psi1's real then imaginary parts; if
    beta < 1, the direction's real then imaginary parts (redrawn while
    too close to psi1), then the phase, one standard uniform double.
    """
    lone = np.ndim(beta) == 0 and np.ndim(eta1) == 0
    betas = np.atleast_1d(np.asarray(beta, dtype=float))
    etas = np.atleast_1d(np.asarray(eta1, dtype=float))
    seeds = [seed] if lone else list(seed)
    if betas.ndim != 1 or etas.shape != betas.shape or len(seeds) != len(betas):
        raise ValueError("beta and eta1 must be scalars, or equal-length 1-d arrays with one seed per point")
    index = _first_failure(~((0.0 <= betas) & (betas <= 1.0)))
    if index is not None:
        raise ValueError(f"beta must lie in [0, 1], got {betas[index]}")
    rngs = [np.random.default_rng(s) for s in seeds]  # a Generator is used as is
    psi1 = _haar_rows(rngs, dim)
    psi2 = psi1.copy()  # kept by the rows with beta = 1
    mixed = np.flatnonzero(betas < 1.0)
    mixed_rngs = [rngs[k] for k in mixed]
    w = _directions(psi1[mixed], mixed_rngs)
    phase = np.exp(2j * np.pi * np.array([rng.random() for rng in mixed_rngs]))  # bitwise rng.uniform()
    mixed_betas = betas[mixed]
    vec2 = fix_global_phase((phase * mixed_betas)[:, None] * psi1[mixed]
                            + np.sqrt(1.0 - mixed_betas * mixed_betas)[:, None] * w)
    psi2[mixed] = vec2 / row_norms(vec2)[:, None]
    for vecs in (psi1, psi2):
        _check_unit(vecs)
        vecs.setflags(write=False)
    _check_pairs(psi1, psi2, betas, etas)
    pairs = [_checked(StatePair, psi1=_checked(PureState, vec=v1), psi2=_checked(PureState, vec=v2),
                      beta=beta_k, eta1=eta_k)
             for v1, v2, beta_k, eta_k in zip(psi1, psi2, betas.tolist(), etas.tolist())]
    return pairs[0] if lone else pairs
