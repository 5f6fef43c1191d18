"""Pure states of qubits and qutrits: construction, sampling, decompositions.

Global phase convention: generated states have their first nonzero
amplitude real and nonnegative, so repeated runs produce identical bytes.

Stacks: a ``PureState`` holds one ``(d,)`` vector or a ``(P, d)`` stack,
and a ``StatePair`` one pair or a stack of P pairs with ``(P,)`` arrays
of ``beta`` and ``eta1``; both run their checks once on the whole stack.
``pair_with_overlap`` takes 1-d arrays of points and one seed, and draws,
orthogonalises and phase-fixes all their states as ``(P, d)`` arrays
into one stacked pair; the adapted qutrit basis and the qubit complement
work on such arrays too.  A lone input is a stack of one that loses its
axis.  ``as_points`` parses every ``(beta, eta1)`` input of the package,
and ``grid_points`` lays out every product grid, eta1-major, beta fastest.
"""

from __future__ import annotations

from collections.abc import Sequence
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
    """Unit vector in dimension 2 or 3, or a ``(P, d)`` stack of them."""

    vec: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.vec, dtype=complex)
        if arr.ndim not in (1, 2) or arr.shape[-1] not in (2, 3):
            raise ValueError(f"state dimension must be 2 or 3, got shape {arr.shape}")
        _check_unit(np.atleast_2d(arr))
        arr.setflags(write=False)
        object.__setattr__(self, "vec", arr)

    @property
    def dim(self) -> int:
        return self.vec.shape[-1]


def overlap(a: PureState | np.ndarray, b: PureState | np.ndarray) -> float | np.ndarray:
    """Modulus of the inner product |<a|b>|: a float for two vectors, one per pair of rows of two stacks."""
    if isinstance(a, PureState):
        a, b = a.vec, b.vec
    value = modulus(row_vdots(a, b))
    return float(value) if value.ndim == 0 else value


@dataclass(frozen=True, eq=False)
class StatePair:
    """Two states with their overlap modulus and the preparation prior of the first.

    A stack of P pairs holds ``(P, d)`` states and read-only ``(P,)``
    arrays of ``beta`` and ``eta1``.  Its rows are taken by ``len``,
    indexing and iteration: an int gives a lone pair, a slice or an index
    array a stack, and neither is checked again.  A lone pair has no
    ``len`` and no index, as a 0-d array.
    """

    psi1: PureState
    psi2: PureState
    beta: float | np.ndarray
    eta1: float | np.ndarray

    def __post_init__(self) -> None:
        v1, v2 = self.psi1.vec, self.psi2.vec
        if v1.shape[-1] != v2.shape[-1]:
            raise ValueError("psi1 and psi2 must have equal dimension")
        beta, eta1 = np.array(self.beta, dtype=float), np.array(self.eta1, dtype=float)
        if not v1.shape[:-1] == v2.shape[:-1] == beta.shape == eta1.shape:
            raise ValueError("psi1, psi2, beta and eta1 must be lone, or stacks of one length")
        _check_pairs(np.atleast_2d(v1), np.atleast_2d(v2), np.atleast_1d(beta), np.atleast_1d(eta1))
        for name, value in (("beta", beta), ("eta1", eta1)):
            value.setflags(write=False)
            object.__setattr__(self, name, float(value) if value.ndim == 0 else value)

    @property
    def dim(self) -> int:
        return self.psi1.dim

    def __len__(self) -> int:
        if self.psi1.vec.ndim == 1:
            raise TypeError("len() of a lone StatePair")
        return len(self.psi1.vec)

    def __bool__(self) -> bool:  # a lone pair is true, though it has no len
        return self.psi1.vec.ndim == 1 or len(self) > 0

    def __getitem__(self, index) -> StatePair:
        len(self)  # a lone pair has no index
        rows = [self.psi1.vec[index], self.psi2.vec[index], self.beta[index], self.eta1[index]]
        if rows[2].ndim:
            for arr in rows:
                arr.setflags(write=False)  # an index array copies
        else:
            rows[2:] = float(rows[2]), float(rows[3])
        return _trusted(*rows)

    def __iter__(self):
        len(self)
        return map(_trusted, self.psi1.vec, self.psi2.vec, self.beta.tolist(), self.eta1.tolist())


def _trusted(v1: np.ndarray, v2: np.ndarray, beta, eta1) -> StatePair:
    """The pair, lone or stacked, of rows of a checked stack: they are not checked again."""
    return _checked(StatePair, psi1=_checked(PureState, vec=v1), psi2=_checked(PureState, vec=v2),
                    beta=beta, eta1=eta1)


def as_points(beta, eta1) -> tuple[np.ndarray, np.ndarray, bool]:
    """Both inputs as equal-length 1-d float arrays in [0, 1] (NaN fails), and whether both were scalars.

    A missing input (None) stands in as 0.0 at every point of the other; a float array is not copied."""
    if beta is None:
        beta = np.zeros(np.shape(eta1))
    if eta1 is None:
        eta1 = np.zeros(np.shape(beta))
    lone = np.ndim(beta) == np.ndim(eta1) == 0
    betas, etas = np.atleast_1d(np.asarray(beta, dtype=float)), np.atleast_1d(np.asarray(eta1, dtype=float))
    if betas.ndim != 1 or betas.shape != etas.shape:
        raise ValueError(f"beta and eta1 must be scalars or equal-length 1-d arrays, got {betas.shape}, {etas.shape}")
    for name, given, values in (("beta", beta, betas), ("eta1", eta1, etas)):
        bad = ~((0.0 <= values) & (values <= 1.0))
        if bad.any():
            raise ValueError(f"{name} must lie in [0, 1], got {given if lone else values[bad.argmax()]}")
    return betas, etas, lone


def grid_points(betas, etas) -> tuple[np.ndarray, np.ndarray]:
    """The product grid of a beta axis and an eta1 axis as ``as_points`` columns: eta1-major, beta fastest."""
    eta_grid, beta_grid = np.meshgrid(etas, betas, indexing="ij")
    return as_points(beta_grid.ravel(), eta_grid.ravel())[:2]


def canonical_pair(dim: int, beta: float, eta1: float) -> StatePair:
    """Deterministic pair with overlap beta: e0 and beta*e0 + sqrt(1-beta^2)*e1."""
    as_points(beta, eta1)
    v1 = np.zeros(dim, dtype=complex)
    v1[0] = 1.0
    v2 = np.zeros(dim, dtype=complex)
    v2[0] = beta
    v2[1] = np.sqrt(max(0.0, 1.0 - beta * beta))
    return StatePair(PureState(v1), PureState(v2), float(beta), float(eta1))


def _gaussian_rows(rng: np.random.Generator, n: int, dim: int) -> np.ndarray:
    """``n`` i.i.d. complex Gaussian rows in one draw: each row's real parts first, then its imaginary."""
    parts = rng.standard_normal((n, 2, dim))
    return parts[:, 0] + 1j * parts[:, 1]


def _haar_rows(rng: np.random.Generator, n: int, dim: int) -> np.ndarray:
    """``n`` uniformly random unit rows: normalized complex Gaussian amplitudes, phase-fixed."""
    if dim not in (2, 3):
        raise ValueError(f"dim must be 2 or 3, got {dim}")
    z = _gaussian_rows(rng, n, dim)
    return fix_global_phase(z / row_norms(z)[:, None])


def _qubit_complement(v: np.ndarray) -> np.ndarray:
    """The phase-fixed (conj(b), -conj(a)) of each row (a, b) of an ``(..., 2)`` stack: its orthogonal qubit."""
    return fix_global_phase(np.stack([np.conj(v[..., 1]), -np.conj(v[..., 0])], axis=-1))


PARALLEL_OVERLAP = 1.0 - 1e-12  # an overlap above this is parallel: no adapted basis, no known/known measurement


def _reject_parallel(beta: np.ndarray, consequence: str) -> None:
    """Raise ``ValueError`` naming the first overlap of ``beta`` above ``PARALLEL_OVERLAP`` (NaN included)."""
    k = _first_failure(~(beta <= PARALLEL_OVERLAP))
    if k is not None:
        raise ValueError(f"states are parallel to within 1e-12: overlap {float(beta[k])!r} > 1 - 1e-12; {consequence}")


def _adapted_basis(v1: np.ndarray, v2: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Orthonormal qutrit bases (b0, b1, b2) adapted to each pair of rows of two ``(P, 3)`` stacks of unit vectors.

    b0 equals v1, and v2 lies in span{b0, b1} with
    v2 = phase * (beta*b0 + sqrt(1-beta^2)*b1) for a single global phase,
    where beta = |<v1|v2>|.  A pair with beta above ``PARALLEL_OVERLAP``
    is degenerate and rejected.
    """
    c0 = row_vdots(v1, v2)
    beta = modulus(c0)
    _reject_parallel(beta, "adapted basis is degenerate")
    resid = v2 - c0[:, None] * v1
    b1 = resid / row_norms(resid)[:, None]
    # align b1's coefficient phase with b0's, so v2 has one global phase
    tilted = np.flatnonzero(beta > 1e-15)
    b1[tilted] = np.conj(c0[tilted] / beta[tilted])[:, None] * b1[tilted]
    b2 = fix_global_phase(np.conj(np.cross(v1, b1)))
    b2 = b2 / row_norms(b2)[:, None]
    return v1, b1, b2


def _directions(psi: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """A random unit row orthogonal to each row of ``psi``, in one draw; the rows within 1e-6 of psi drawn again."""
    w, n = np.empty_like(psi), np.zeros(len(psi))
    todo = np.arange(len(psi))
    while todo.size:
        z = _gaussian_rows(rng, todo.size, psi.shape[-1])
        w[todo] = z - row_vdots(psi[todo], z)[:, None] * psi[todo]
        n[todo] = row_norms(w[todo])
        todo = todo[~(n[todo] > 1e-6)]
    return w / n[:, None]


def pair_with_overlap(dim: int, beta, eta1, seed) -> StatePair:
    """Random pair with exactly the prescribed overlap modulus.

    psi1 is Haar random; psi2 mixes psi1 (with a random relative phase)
    and a Haar-random orthogonal direction.

    ``beta`` and ``eta1`` are scalars, or equal-length 1-d arrays of
    points for one stacked pair, checked by ``as_points`` before any draw.
    ``seed`` is one ``default_rng`` seed or a ``Generator`` (used as is),
    never a sequence.  The points draw from that one generator in order:
    every psi1 as one ``(P, 2, d)`` normal draw (per row, real parts then
    imaginary); the directions of the rows with beta < 1 as one such
    draw, then again for only the rows within 1e-6 of psi1; every phase
    as one ``random(m)``.  A stack of one is the lone call.
    """
    if isinstance(seed, (Sequence, np.ndarray)):
        raise ValueError("seed must be one seed or Generator, not a sequence: the points share one generator")
    betas, etas, lone = as_points(beta, eta1)
    rng = np.random.default_rng(seed)  # a Generator is used as is
    psi1 = _haar_rows(rng, len(betas), dim)
    psi2 = psi1.copy()  # kept by the rows with beta = 1
    mixed = np.flatnonzero(betas < 1.0)
    w = _directions(psi1[mixed], rng)
    phase = np.exp(2j * np.pi * rng.random(mixed.size))
    mixed_betas = betas[mixed]
    vec2 = fix_global_phase((phase * mixed_betas)[:, None] * psi1[mixed]
                            + np.sqrt(1.0 - mixed_betas * mixed_betas)[:, None] * w)
    psi2[mixed] = vec2 / row_norms(vec2)[:, None]
    pairs = StatePair(PureState(psi1), PureState(psi2), betas, etas)
    return pairs[0] if lone else pairs
