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

Stacks: every builder, ``build_for_case``, ``input_states`` and
``validate`` also take a sequence of P pairs (or states) with one
``LambdaParams`` each and then work on ``(P, n, n)`` elements.  A lone
input is a stack of one that loses its stack axis at the end, so both go
through the same arithmetic and every stacked element, eigenvalue and
residual is bitwise that of its own lone call.  The basis of each state
(Gram-Schmidt or the qutrit adapted basis) is still built per state.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .cases import Family, KnowledgeCase
from .linalg import eigvals_hermitian, expectation, kron, orthonormal_completion, projector
from .states import PureState, StatePair, orthogonal_complement_qubit, qutrit_adapted_basis

COMPLETENESS_TOL = 1e-10
PSD_TOL = 1e-9

# basis index pairs carrying one antisymmetric state each
_PAIRS = {2: ((0, 1),), 3: ((0, 1), (0, 2), (1, 2))}


def _stacked(*inputs: tuple[object, type]) -> tuple[list[list], bool]:
    """Each (value, kind) as a list: a lone ``kind`` is a stack of one.

    Returns the lists and whether the inputs were lone; lone and stacked
    inputs may not be mixed, and stacks must share one nonzero length.
    """
    lone = [isinstance(value, kind) for value, kind in inputs]
    if all(lone):
        return [[value] for value, _ in inputs], True
    stacks = [list(value) for value, _ in inputs]
    if any(lone) or len({len(st) for st in stacks}) != 1 or not stacks[0]:
        raise ValueError("inputs must all be lone or all stacks of one nonzero length")
    return stacks, False


def _as_components(value, name: str) -> tuple[float, ...]:
    """A scalar as one component, a sequence as its components; each a nonnegative float."""
    out = (float(value),) if np.isscalar(value) else tuple(map(float, value))
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
        object.__setattr__(self, "lam1", _as_components(self.lam1, "lam1"))
        object.__setattr__(self, "lam2", _as_components(self.lam2, "lam2"))
        if self.lam3 is not None:
            object.__setattr__(self, "lam3", _as_components(self.lam3, "lam3"))

    @classmethod
    def of(cls, lam1, lam2, lam3=None) -> "LambdaParams":
        return cls(lam1, lam2, lam3)

    @property
    def flat(self) -> tuple[float, ...]:
        out = self.lam1 + self.lam2
        if self.lam3 is not None:
            out = out + self.lam3
        return out


def _coefficients(lams: list[LambdaParams], name: str, n: int) -> np.ndarray:
    """``(P, n)`` array of one coefficient field over a stack of LambdaParams (already nonnegative)."""
    rows = [getattr(lam, name) for lam in lams]
    for row in rows:
        if len(row) != n:
            raise ValueError(f"{name} must have {n} component(s), got {len(row)}")
    return np.array(rows, dtype=float).reshape(-1, n)


@dataclass(frozen=True, eq=False)
class PovmSet:
    """Three Hermitian PSD elements summing to the identity: ``(n, n)``, or ``(P, n, n)`` for P of them."""

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
        return self.pi1.shape[-1]

    @property
    def elements(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return self.pi1, self.pi2, self.pi0


@dataclass(frozen=True)
class PovmReport:
    """One value per element (and one residual); ``(P,)`` arrays for a stack of P POVMs."""

    psd_ok: tuple[bool, bool, bool]
    min_eigenvalues: tuple[float, float, float]
    completeness_residual: float

    @property
    def all_ok(self) -> bool:
        return bool(np.all(self.psd_ok) and np.all(self.completeness_residual <= COMPLETENESS_TOL))


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


def _povm(pi1: np.ndarray, pi2: np.ndarray, lone: bool) -> PovmSet:
    """Complete a ``(P, n, n)`` stack with pi0 = I - pi1 - pi2; a lone input's stack of one loses its axis."""
    pi0 = np.eye(pi1.shape[-1]) - pi1 - pi2
    return PovmSet(pi1[0], pi2[0], pi0[0]) if lone else PovmSet(pi1, pi2, pi0)


def build_unknown_unknown(dim: int, lam: LambdaParams | Sequence[LambdaParams]) -> PovmSet:
    """Discriminator for two classically unknown states, one copy of each.

    pi1 = sum_i lam1[i] * I_A (x) P^as_BC,i   (detects a B/C mismatch)
    pi2 = sum_i lam2[i] * P^as_AB,i (x) I_C   (detects an A/B mismatch)

    built from the antisymmetric projectors of the computational basis
    pairs; for qubits there is a single such projector per register pair.
    """
    if dim not in (2, 3):
        raise ValueError(f"dim must be 2 or 3, got {dim}")
    (lams,), lone = _stacked((lam, LambdaParams))
    n_pairs = len(_PAIRS[dim])
    lam1 = _coefficients(lams, "lam1", n_pairs)
    lam2 = _coefficients(lams, "lam2", n_pairs)
    if any(x.lam3 is not None for x in lams):
        raise ValueError("unknown/unknown POVM takes no lam3")
    block_bc, block_ab = UNKNOWN_UNKNOWN_BLOCKS[dim]
    d3 = dim**3
    pi1 = np.zeros((len(lams), d3, d3), dtype=complex)
    pi2 = np.zeros((len(lams), d3, d3), dtype=complex)
    for i, (bc, ab) in enumerate(zip(block_bc, block_ab)):
        pi1 += lam1[:, i, None, None] * bc
        pi2 += lam2[:, i, None, None] * ab
    return _povm(pi1, pi2, lone)


def build_known_unknown(psi1: PureState | Sequence[PureState],
                        lam: LambdaParams | Sequence[LambdaParams]) -> PovmSet:
    """Discriminator for a known state vs. a single copy of an unknown one.

    With b0 = psi1 and b1..b_{d-1} completing the basis:

    pi1 = sum_i lam1[i] * P^as(b0, b_i)           on A (x) B
    pi2 = sum_i lam2[i] * |b0 b_i><b0 b_i|
        + sum_{j,k>=1} lam3[jk] * |b_j b_k><b_j b_k|
    """
    (states, lams), lone = _stacked((psi1, PureState), (lam, LambdaParams))
    d = states[0].dim
    n_as = d - 1
    lam1 = _coefficients(lams, "lam1", n_as)
    lam2 = _coefficients(lams, "lam2", n_as)
    if any(x.lam3 is None for x in lams):
        raise ValueError("known/unknown POVM requires lam3")
    lam3 = _coefficients(lams, "lam3", n_as * n_as)
    for name, coeffs in (("lam1", lam1), ("lam2", lam2), ("lam3", lam3)):
        over = coeffs[coeffs > 1.0 + 1e-12]
        if over.size:
            raise ValueError(f"{name} components must lie in [0, 1], got {over[0]}")
    bases = np.array([orthonormal_completion(state.vec) for state in states])  # (P, d, d), b_j = column j
    products = kron(bases, bases)  # column j*d + k is b_j (x) b_k

    def b(j: int, k: int) -> np.ndarray:
        return products[:, :, j * d + k]

    pi1 = np.zeros((len(states), d * d, d * d), dtype=complex)
    pi2 = np.zeros((len(states), d * d, d * d), dtype=complex)
    for i in range(1, d):
        antisym = (b(0, i) - b(i, 0)) / np.sqrt(2.0)  # P^as(b0, b_i), as antisymmetric_state builds it
        pi1 += lam1[:, i - 1, None, None] * projector(antisym)
        pi2 += lam2[:, i - 1, None, None] * projector(b(0, i))
    for j in range(1, d):
        for k in range(1, d):
            pi2 += lam3[:, (j - 1) * n_as + (k - 1), None, None] * projector(b(j, k))
    return _povm(pi1, pi2, lone)


def _known_known_directions(psi1: PureState, psi2: PureState) -> tuple[np.ndarray, np.ndarray]:
    """(e1, e2): e1 orthogonal to psi2 and e2 to psi1, within the pair's span for qutrits."""
    beta = float(abs(np.vdot(psi1.vec, psi2.vec)))
    if beta > 1.0 - 1e-12:
        raise ValueError("states are parallel (beta = 1): no unambiguous measurement exists")
    if psi1.dim == 2:
        return orthogonal_complement_qubit(psi2).vec, orthogonal_complement_qubit(psi1).vec
    b0, b1, _ = qutrit_adapted_basis(psi1, psi2)
    cos_half = beta
    sin_half = np.sqrt(1.0 - beta * beta)
    return sin_half * b0 - cos_half * b1, b1


def build_known_known(psi1: PureState | Sequence[PureState], psi2: PureState | Sequence[PureState],
                      lam: LambdaParams | Sequence[LambdaParams]) -> PovmSet:
    """Direct measurement when both states are known.

    pi1 projects onto the direction orthogonal to psi2 (within the span of
    the pair for qutrits), pi2 onto the direction orthogonal to psi1.
    Parallel pairs are degenerate and rejected.
    """
    (firsts, seconds, lams), lone = _stacked((psi1, PureState), (psi2, PureState), (lam, LambdaParams))
    if any(a.dim != b.dim for a, b in zip(firsts, seconds)):
        raise ValueError("psi1 and psi2 must have equal dimension")
    lam1 = _coefficients(lams, "lam1", 1)
    lam2 = _coefficients(lams, "lam2", 1)
    if any(x.lam3 is not None for x in lams):
        raise ValueError("known/known POVM takes no lam3")
    if np.count_nonzero(lam1 > 1.0 + 1e-12) or np.count_nonzero(lam2 > 1.0 + 1e-12):
        raise ValueError("lam components must lie in [0, 1]")
    directions = np.array([_known_known_directions(a, b) for a, b in zip(firsts, seconds)])  # (P, 2, d)
    pi1 = lam1[:, :, None] * projector(directions[:, 0])
    pi2 = lam2[:, :, None] * projector(directions[:, 1])
    return _povm(pi1, pi2, lone)


def validate(povm: PovmSet, psd_tol: float = PSD_TOL) -> PovmReport:
    """PSD check per element plus the completeness residual ||pi1+pi2+pi0 - I||_max.

    One Hermitian eigensolve per element, on the whole ``(P, n, n)`` stack
    at once for P POVMs.
    """
    mins = [eigvals_hermitian(el)[..., 0] for el in povm.elements]
    total = povm.pi1 + povm.pi2
    total += povm.pi0
    total -= np.eye(povm.dim)
    residual = np.abs(total).max(axis=(-2, -1))
    if residual.ndim == 0:  # a lone POVM reports Python scalars
        mins, residual = [float(m) for m in mins], float(residual)
    return PovmReport(
        psd_ok=tuple(m >= -psd_tol for m in mins),
        min_eigenvalues=tuple(mins),
        completeness_residual=residual,
    )


def _input_states(case: KnowledgeCase, pair: StatePair) -> tuple[np.ndarray, np.ndarray]:
    if pair.dim != case.dim:
        raise ValueError(f"pair dimension {pair.dim} does not match case {case}")
    v1, v2 = pair.psi1.vec, pair.psi2.vec
    if case.family is Family.UNKNOWN_UNKNOWN:
        return kron(kron(v1, v1), v2), kron(kron(v1, v2), v2)
    if case.family is Family.KNOWN_UNKNOWN:
        return kron(v2, v1), kron(v2, v2)
    return v1, v2


def input_states(case: KnowledgeCase, pair: StatePair | Sequence[StatePair]) -> tuple[np.ndarray, np.ndarray]:
    """Register inputs produced when state 1 or state 2 was prepared; ``(P, n)`` each for P pairs."""
    (pairs,), lone = _stacked((pair, StatePair))
    ins = np.array([_input_states(case, p) for p in pairs])  # (P, 2, n)
    return (ins[0, 0], ins[0, 1]) if lone else (ins[:, 0], ins[:, 1])


def build_for_case(case: KnowledgeCase, pair: StatePair | Sequence[StatePair],
                   lam: LambdaParams | Sequence[LambdaParams]) -> PovmSet:
    """Build the family-appropriate POVM for a case on a concrete pair, or on a stack of pairs."""
    (pairs, _), lone = _stacked((pair, StatePair), (lam, LambdaParams))
    if case.family is Family.UNKNOWN_UNKNOWN:
        return build_unknown_unknown(case.dim, lam)
    psi1 = pair.psi1 if lone else [p.psi1 for p in pairs]
    if case.family is Family.KNOWN_UNKNOWN:
        return build_known_unknown(psi1, lam)
    return build_known_known(psi1, pair.psi2 if lone else [p.psi2 for p in pairs], lam)


def success_probabilities(case: KnowledgeCase, pair: StatePair, lam: LambdaParams) -> tuple[float, float]:
    """(p1, p2): probabilities of correctly identifying each preparation."""
    povm = build_for_case(case, pair, lam)
    in1, in2 = input_states(case, pair)
    return expectation(in1, povm.pi1), expectation(in2, povm.pi2)
