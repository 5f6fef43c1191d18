"""Three-outcome POVMs (identify-1, identify-2, inconclusive) for each family.

All builders enforce the no-error structure by construction: the
identify-1 element annihilates the input produced when state 2 was
prepared, and vice versa.  Positivity of the inconclusive element is the
nontrivial constraint and is what bounds the free coefficients.

Register layout (row-major tensor order, leftmost most significant):

* unknown/unknown: program A, data B, program C; inputs
  psi1 (x) psi1 (x) psi2  and  psi1 (x) psi2 (x) psi2.
* known/unknown: program A holds the copy of the unknown psi2, data B;
  inputs psi2 (x) psi1 and psi2 (x) psi2.
* known/known: direct measurement on the single prepared system.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cases import Family, KnowledgeCase
from .linalg import eigvals_hermitian, expectation, kron, orthonormal_completion, projector
from .states import PureState, StatePair, orthogonal_complement_qubit, qutrit_adapted_basis

COMPLETENESS_TOL = 1e-10
PSD_TOL = 1e-9

# basis index pairs carrying one antisymmetric state each
_PAIRS = {2: ((0, 1),), 3: ((0, 1), (0, 2), (1, 2))}


def _as_components(value, n: int, name: str) -> tuple[float, ...]:
    if np.isscalar(value):
        out = (float(value),) * n
    else:
        out = tuple(float(x) for x in value)
    if len(out) != n:
        raise ValueError(f"{name} must have {n} component(s), got {len(out)}")
    for x in out:
        if x < 0.0:
            raise ValueError(f"{name} components must be nonnegative, got {x}")
    return out


@dataclass(frozen=True)
class LambdaParams:
    """Free nonnegative measurement coefficients.

    ``lam1``/``lam2`` weight the identify-1/identify-2 building blocks,
    one component per antisymmetric index (a single component for qubits).
    ``lam3`` is the extra identify-2 block of the known/unknown family:
    one component for qubits, four (row-major j,k) for qutrits.
    """

    lam1: tuple[float, ...]
    lam2: tuple[float, ...]
    lam3: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "lam1", _as_components(self.lam1, len(np.atleast_1d(self.lam1)), "lam1"))
        object.__setattr__(self, "lam2", _as_components(self.lam2, len(np.atleast_1d(self.lam2)), "lam2"))
        if self.lam3 is not None:
            object.__setattr__(self, "lam3", _as_components(self.lam3, len(np.atleast_1d(self.lam3)), "lam3"))

    @classmethod
    def of(cls, lam1, lam2, lam3=None) -> "LambdaParams":
        return cls(lam1, lam2, lam3)

    @property
    def flat(self) -> tuple[float, ...]:
        out = self.lam1 + self.lam2
        if self.lam3 is not None:
            out = out + self.lam3
        return out


@dataclass(frozen=True, eq=False)
class PovmSet:
    """Three Hermitian PSD elements summing to the identity."""

    pi1: np.ndarray
    pi2: np.ndarray
    pi0: np.ndarray

    def __post_init__(self) -> None:
        for name in ("pi1", "pi2", "pi0"):
            arr = np.array(getattr(self, name), dtype=complex)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def dim(self) -> int:
        return self.pi1.shape[0]

    @property
    def elements(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return self.pi1, self.pi2, self.pi0


@dataclass(frozen=True)
class PovmReport:
    psd_ok: tuple[bool, bool, bool]
    min_eigenvalues: tuple[float, float, float]
    completeness_residual: float

    @property
    def all_ok(self) -> bool:
        return all(self.psd_ok) and self.completeness_residual <= COMPLETENESS_TOL


def antisymmetric_state(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """(|u>|v> - |v>|u>) / sqrt(2)."""
    return (kron(u, v) - kron(v, u)) / np.sqrt(2.0)


def _unknown_unknown_blocks(dim: int) -> tuple[np.ndarray, np.ndarray]:
    eye = np.eye(dim)
    p_as = [projector(antisymmetric_state(eye[m], eye[n])) for m, n in _PAIRS[dim]]
    blocks = np.stack([kron(eye, p) for p in p_as]), np.stack([kron(p, eye) for p in p_as])
    for stack in blocks:
        stack.setflags(write=False)
    return blocks


# dim -> read-only stacks (I_A (x) P^as_BC,i, P^as_AB,i (x) I_C) over the basis pairs i of _PAIRS[dim]
UNKNOWN_UNKNOWN_BLOCKS = {dim: _unknown_unknown_blocks(dim) for dim in _PAIRS}


def build_unknown_unknown(dim: int, lam: LambdaParams) -> PovmSet:
    """Discriminator for two classically unknown states, one copy of each.

    pi1 = sum_i lam1[i] * I_A (x) P^as_BC,i   (detects a B/C mismatch)
    pi2 = sum_i lam2[i] * P^as_AB,i (x) I_C   (detects an A/B mismatch)

    built from the antisymmetric projectors of the computational basis
    pairs; for qubits there is a single such projector per register pair.
    """
    if dim not in (2, 3):
        raise ValueError(f"dim must be 2 or 3, got {dim}")
    pairs = _PAIRS[dim]
    lam1 = _as_components(lam.lam1, len(pairs), "lam1")
    lam2 = _as_components(lam.lam2, len(pairs), "lam2")
    if lam.lam3 is not None:
        raise ValueError("unknown/unknown POVM takes no lam3")
    block_bc, block_ab = UNKNOWN_UNKNOWN_BLOCKS[dim]
    d3 = dim**3
    pi1 = np.zeros((d3, d3), dtype=complex)
    pi2 = np.zeros((d3, d3), dtype=complex)
    for l1, l2, bc, ab in zip(lam1, lam2, block_bc, block_ab):
        pi1 += l1 * bc
        pi2 += l2 * ab
    return PovmSet(pi1, pi2, np.eye(d3) - pi1 - pi2)


def build_known_unknown(psi1: PureState, lam: LambdaParams) -> PovmSet:
    """Discriminator for a known state vs. a single copy of an unknown one.

    With b0 = psi1 and b1..b_{d-1} completing the basis:

    pi1 = sum_i lam1[i] * P^as(b0, b_i)           on A (x) B
    pi2 = sum_i lam2[i] * |b0 b_i><b0 b_i|
        + sum_{j,k>=1} lam3[jk] * |b_j b_k><b_j b_k|
    """
    d = psi1.dim
    n_as = d - 1
    lam1 = _as_components(lam.lam1, n_as, "lam1")
    lam2 = _as_components(lam.lam2, n_as, "lam2")
    if lam.lam3 is None:
        raise ValueError("known/unknown POVM requires lam3")
    lam3 = _as_components(lam.lam3, n_as * n_as, "lam3")
    for name, comps in (("lam1", lam1), ("lam2", lam2), ("lam3", lam3)):
        for x in comps:
            if x > 1.0 + 1e-12:
                raise ValueError(f"{name} components must lie in [0, 1], got {x}")
    basis = orthonormal_completion(psi1.vec)
    b = [basis[:, j] for j in range(d)]
    d2 = d * d
    pi1 = np.zeros((d2, d2), dtype=complex)
    pi2 = np.zeros((d2, d2), dtype=complex)
    for i in range(1, d):
        pi1 += lam1[i - 1] * projector(antisymmetric_state(b[0], b[i]))
        pi2 += lam2[i - 1] * projector(kron(b[0], b[i]))
    for j in range(1, d):
        for k in range(1, d):
            pi2 += lam3[(j - 1) * n_as + (k - 1)] * projector(kron(b[j], b[k]))
    return PovmSet(pi1, pi2, np.eye(d2) - pi1 - pi2)


def build_known_known(psi1: PureState, psi2: PureState, lam: LambdaParams) -> PovmSet:
    """Direct measurement when both states are known.

    pi1 projects onto the direction orthogonal to psi2 (within the span of
    the pair for qutrits), pi2 onto the direction orthogonal to psi1.
    Parallel pairs are degenerate and rejected.
    """
    if psi1.dim != psi2.dim:
        raise ValueError("psi1 and psi2 must have equal dimension")
    lam1 = _as_components(lam.lam1, 1, "lam1")[0]
    lam2 = _as_components(lam.lam2, 1, "lam2")[0]
    if lam.lam3 is not None:
        raise ValueError("known/known POVM takes no lam3")
    if lam1 > 1.0 + 1e-12 or lam2 > 1.0 + 1e-12:
        raise ValueError("lam components must lie in [0, 1]")
    d = psi1.dim
    beta = float(abs(np.vdot(psi1.vec, psi2.vec)))
    if beta > 1.0 - 1e-12:
        raise ValueError("states are parallel (beta = 1): no unambiguous measurement exists")
    if d == 2:
        e1 = orthogonal_complement_qubit(psi2).vec
        e2 = orthogonal_complement_qubit(psi1).vec
    else:
        b0, b1, _ = qutrit_adapted_basis(psi1, psi2)
        cos_half = beta
        sin_half = np.sqrt(1.0 - beta * beta)
        e1 = sin_half * b0 - cos_half * b1
        e2 = b1
    pi1 = lam1 * projector(e1)
    pi2 = lam2 * projector(e2)
    return PovmSet(pi1, pi2, np.eye(d) - pi1 - pi2)


def validate(povm: PovmSet, psd_tol: float = PSD_TOL) -> PovmReport:
    """PSD check per element plus the completeness residual ||pi1+pi2+pi0 - I||_max."""
    mins = tuple(float(eigvals_hermitian(el)[0]) for el in povm.elements)
    residual = float(np.max(np.abs(povm.pi1 + povm.pi2 + povm.pi0 - np.eye(povm.dim))))
    return PovmReport(
        psd_ok=tuple(m >= -psd_tol for m in mins),
        min_eigenvalues=mins,
        completeness_residual=residual,
    )


def input_states(case: KnowledgeCase, pair: StatePair) -> tuple[np.ndarray, np.ndarray]:
    """Register inputs produced when state 1 or state 2 was prepared."""
    if pair.dim != case.dim:
        raise ValueError(f"pair dimension {pair.dim} does not match case {case}")
    v1, v2 = pair.psi1.vec, pair.psi2.vec
    if case.family is Family.UNKNOWN_UNKNOWN:
        return kron(kron(v1, v1), v2), kron(kron(v1, v2), v2)
    if case.family is Family.KNOWN_UNKNOWN:
        return kron(v2, v1), kron(v2, v2)
    return v1.copy(), v2.copy()


def build_for_case(case: KnowledgeCase, pair: StatePair, lam: LambdaParams) -> PovmSet:
    """Build the family-appropriate POVM for a case on a concrete pair."""
    if case.family is Family.UNKNOWN_UNKNOWN:
        return build_unknown_unknown(case.dim, lam)
    if case.family is Family.KNOWN_UNKNOWN:
        return build_known_unknown(pair.psi1, lam)
    return build_known_known(pair.psi1, pair.psi2, lam)


def success_probabilities(case: KnowledgeCase, pair: StatePair, lam: LambdaParams) -> tuple[float, float]:
    """(p1, p2): probabilities of correctly identifying each preparation."""
    povm = build_for_case(case, pair, lam)
    in1, in2 = input_states(case, pair)
    return expectation(in1, povm.pi1), expectation(in2, povm.pi2)
