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

Stacks: every builder, ``build_for_case`` and ``input_states`` also
take one stacked ``StatePair`` (or stacked states, ``(P, d)`` vectors)
and a ``(P, n)`` float array of coefficients, one ``LambdaParams.flat``
row per point, and then work on ``(P, n, n)`` elements, which
``validate`` checks as one stack.  The inputs are lone exactly when the
coefficients are a ``LambdaParams`` (``input_states``, which takes none,
follows its pair), and stacks share one nonzero length.  A lone input is
a stack of one that loses its stack axis at the end, so both go through
the same arithmetic and every stacked element, eigenvalue and residual
is bitwise that of its own lone call.  The bases (Gram-Schmidt or the
qutrit adapted basis), the known/known directions and the register
inputs are built on the states' ``(P, d)`` arrays as they are.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .cases import Family, KnowledgeCase
from .linalg import (NumericalError, _first_failure, _first_rows, eigvals_hermitian, expectation, kron,
                     orthonormal_completion, projector)
from .states import PureState, StatePair, _adapted_basis, _qubit_complement, _reject_parallel, overlap

COMPLETENESS_TOL = 1e-10
PSD_TOL = 1e-9
FEASIBILITY_SLACK = 1e-12  # every positivity and box inequality reads margin >= -FEASIBILITY_SLACK
STACK_CELLS = 1 << 12  # a stacked build's memory cap: at most this many complex cells per element

# basis index pairs carrying one antisymmetric state each
_PAIRS = {2: ((0, 1),), 3: ((0, 1), (0, 2), (1, 2))}


def _lone(lam, *states: PureState) -> bool:
    """Whether the inputs are lone: exactly when ``lam`` is a ``LambdaParams``, or, without ``lam``, the states.

    Stacked states must share one nonzero length, the length of ``lam``.
    """
    shapes = {state.vec.shape[:-1] for state in states}
    if lam is not None:
        shapes.add(() if isinstance(lam, LambdaParams) else np.shape(lam)[:1])
    if len(shapes) != 1 or (0,) in shapes:
        raise ValueError("inputs must all be lone or all stacks of one nonzero length")
    return shapes == {()}


def _as_components(value, name: str) -> tuple[float, ...]:
    """A scalar as one component, a sequence as its components; each a nonnegative float."""
    out = (float(value),) if np.isscalar(value) else tuple(map(float, value))
    for x in out:
        if not x >= 0.0:  # NaN fails too
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


_BLOCKS = ("lam1", "lam2", "lam3")


def _layout(family: Family, dim: int) -> tuple[int, ...]:
    """Components of each coefficient block, ``lam1, lam2[, lam3]``, in ``LambdaParams.flat`` order."""
    if family is Family.UNKNOWN_UNKNOWN:
        return len(_PAIRS[dim]), len(_PAIRS[dim])
    if family is Family.KNOWN_UNKNOWN:
        return dim - 1, dim - 1, (dim - 1) ** 2
    return 1, 1


def _lambda_of(case: KnowledgeCase, row: np.ndarray) -> LambdaParams:
    """The lone ``LambdaParams`` of one row of a case's coefficient stack."""
    values = iter(row.tolist())
    return LambdaParams(*(list(itertools.islice(values, n)) for n in _layout(case.family, case.dim)))


def _coefficient_blocks(family: Family, dim: int, lam: LambdaParams | np.ndarray) -> list[np.ndarray]:
    """The ``(P, n_i)`` blocks of a lone ``LambdaParams`` (P = 1) or of a ``(P, n)`` stack, checked against the layout.

    The known families weigh orthogonal projectors, so their coefficients are also at most 1."""
    layout = _layout(family, dim)
    if isinstance(lam, LambdaParams):
        for name, components, n in zip(_BLOCKS, (lam.lam1, lam.lam2, lam.lam3), layout):
            if components is None:
                raise ValueError(f"{family.value.replace('_', '/')} POVM requires {name}")
            if len(components) != n:
                raise ValueError(f"{name} must have {n} component(s), got {len(components)}")
        if len(layout) < 3 and lam.lam3 is not None:
            raise ValueError(f"{family.value.replace('_', '/')} POVM takes no lam3")
        lam = [lam.flat]
    stack = np.asarray(lam, dtype=float)
    if stack.ndim != 2 or stack.shape[1] != sum(layout):
        raise ValueError(f"coefficient stack must have {sum(layout)} component(s) per row, got shape {stack.shape}")
    names = [name for name, n in zip(_BLOCKS, layout) for _ in range(n)]
    above = (family is not Family.UNKNOWN_UNKNOWN) & ~(1.0 - stack >= -FEASIBILITY_SLACK)
    for bad, rule in ((~(stack >= 0.0), "be nonnegative"), (above, "lie in [0, 1]")):
        if bad.any():
            row, col = np.argwhere(bad)[0]
            raise ValueError(f"{names[col]} components must {rule}, got {stack[row, col]}")
    return [stack[:, end - n : end] for n, end in zip(layout, itertools.accumulate(layout))]


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


class MeasurementError(NumericalError):
    """The assembled POVM is not a measurement: a numerical failure, not bad input."""


@dataclass(frozen=True)
class PovmReport:
    """One value per element (and one residual); ``(P,)`` arrays for a stack of P POVMs."""

    psd_ok: tuple[bool, bool, bool]
    min_eigenvalues: tuple[float, float, float]
    completeness_residual: float

    def check(self) -> "PovmReport":
        """This report, if every POVM has PSD elements and a residual at most ``COMPLETENESS_TOL`` (NaN fails).

        Otherwise raises ``MeasurementError`` indexed by the first failing POVM in stack order (``()`` for a lone
        one), naming the test it fails, positivity before completeness."""
        psd = np.asarray(self.psd_ok)
        residual = np.asarray(self.completeness_residual)
        index = _first_failure(~(psd.all(axis=0) & (residual <= COMPLETENESS_TOL)))
        if index is None:
            return self
        if not psd[(slice(None),) + index].all():
            mins = tuple(float(np.asarray(m)[index]) for m in self.min_eigenvalues)
            raise MeasurementError(f"POVM is not positive semidefinite: min eigenvalues {mins}", index)
        raise MeasurementError(f"POVM completeness residual {residual[index]:.3e}", index)


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


def build_unknown_unknown(dim: int, lam: LambdaParams | np.ndarray) -> PovmSet:
    """Discriminator for two classically unknown states, one copy of each.

    pi1 = sum_i lam1[i] * I_A (x) P^as_BC,i   (detects a B/C mismatch)
    pi2 = sum_i lam2[i] * P^as_AB,i (x) I_C   (detects an A/B mismatch)

    built from the antisymmetric projectors of the computational basis
    pairs; for qubits there is a single such projector per register pair.
    """
    if dim not in (2, 3):
        raise ValueError(f"dim must be 2 or 3, got {dim}")
    lone = _lone(lam)
    lam1, lam2 = _coefficient_blocks(Family.UNKNOWN_UNKNOWN, dim, lam)
    block_bc, block_ab = UNKNOWN_UNKNOWN_BLOCKS[dim]
    d3 = dim**3
    pi1 = np.zeros((len(lam1), d3, d3), dtype=complex)
    pi2 = np.zeros((len(lam1), d3, d3), dtype=complex)
    for i, (bc, ab) in enumerate(zip(block_bc, block_ab)):
        pi1 += lam1[:, i, None, None] * bc
        pi2 += lam2[:, i, None, None] * ab
    return _povm(pi1, pi2, lone)


def build_known_unknown(psi1: PureState, lam: LambdaParams | np.ndarray) -> PovmSet:
    """Discriminator for a known state vs. a single copy of an unknown one.

    With b0 = psi1 and b1..b_{d-1} completing the basis:

    pi1 = sum_i lam1[i] * P^as(b0, b_i)           on A (x) B
    pi2 = sum_i lam2[i] * |b0 b_i><b0 b_i|
        + sum_{j,k>=1} lam3[jk] * |b_j b_k><b_j b_k|
    """
    lone = _lone(lam, psi1)
    d = psi1.dim
    n_as = d - 1
    lam1, lam2, lam3 = _coefficient_blocks(Family.KNOWN_UNKNOWN, d, lam)
    bases = orthonormal_completion(np.atleast_2d(psi1.vec))  # (P, d, d), b_j = column j
    products = kron(bases, bases)  # column j*d + k is b_j (x) b_k

    def b(j: int, k: int) -> np.ndarray:
        return products[:, :, j * d + k]

    pi1 = np.zeros((len(bases), d * d, d * d), dtype=complex)
    pi2 = np.zeros((len(bases), d * d, d * d), dtype=complex)
    for i in range(1, d):
        antisym = (b(0, i) - b(i, 0)) / np.sqrt(2.0)  # P^as(b0, b_i), as antisymmetric_state builds it
        pi1 += lam1[:, i - 1, None, None] * projector(antisym)
        pi2 += lam2[:, i - 1, None, None] * projector(b(0, i))
    for j in range(1, d):
        for k in range(1, d):
            pi2 += lam3[:, (j - 1) * n_as + (k - 1), None, None] * projector(b(j, k))
    return _povm(pi1, pi2, lone)


def _known_known_directions(v1: np.ndarray, v2: np.ndarray) -> np.ndarray:
    """``(P, 2, d)``: per pair of rows, e1 orthogonal to v2 and e2 to v1, within the pair's span for qutrits."""
    beta = overlap(v1, v2)
    _reject_parallel(beta, "no unambiguous measurement exists")
    if v1.shape[-1] == 2:
        return _qubit_complement(np.stack([v2, v1], axis=1))
    b0, b1, _ = _adapted_basis(v1, v2)
    cos_half = beta[:, None]
    sin_half = np.sqrt(1.0 - beta * beta)[:, None]
    return np.stack([sin_half * b0 - cos_half * b1, b1], axis=1)


def build_known_known(psi1: PureState, psi2: PureState, lam: LambdaParams | np.ndarray) -> PovmSet:
    """Direct measurement when both states are known.

    pi1 projects onto the direction orthogonal to psi2 (within the span of
    the pair for qutrits), pi2 onto the direction orthogonal to psi1.
    A pair with overlap above ``states.PARALLEL_OVERLAP`` is degenerate and rejected.
    """
    lone = _lone(lam, psi1, psi2)
    if psi1.dim != psi2.dim:
        raise ValueError("psi1 and psi2 must have equal dimension")
    lam1, lam2 = _coefficient_blocks(Family.KNOWN_KNOWN, psi1.dim, lam)
    directions = _known_known_directions(np.atleast_2d(psi1.vec), np.atleast_2d(psi2.vec))
    pi1 = lam1[:, :, None] * projector(directions[:, 0])
    pi2 = lam2[:, :, None] * projector(directions[:, 1])
    return _povm(pi1, pi2, lone)


def validate(povm: PovmSet) -> PovmReport:
    """PSD check per element plus the completeness residual ||pi1+pi2+pi0 - I||_max.

    An element passes when its least eigenvalue is ``>= -PSD_TOL``.  One
    Hermitian eigensolve per element, on the whole ``(P, n, n)`` stack at
    once for P POVMs.
    """
    mins = [eigvals_hermitian(el)[..., 0] for el in povm.elements]
    total = povm.pi1 + povm.pi2
    total += povm.pi0
    total -= np.eye(povm.dim)
    residual = np.abs(total).max(axis=(-2, -1))
    if residual.ndim == 0:  # a lone POVM reports Python scalars
        mins, residual = [float(m) for m in mins], float(residual)
    return PovmReport(
        psd_ok=tuple(m >= -PSD_TOL for m in mins),
        min_eigenvalues=tuple(mins),
        completeness_residual=residual,
    )


def _kron_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The tensor product of each pair of rows of two ``(P, m)`` and ``(P, n)`` stacks, as ``kron`` of vectors."""
    return (a[:, :, None] * b[:, None, :]).reshape(len(a), -1)


def input_states(case: KnowledgeCase, pair: StatePair) -> tuple[np.ndarray, np.ndarray]:
    """Register inputs produced when state 1 or state 2 was prepared; ``(P, n)`` each for a stack of P pairs."""
    lone = _lone(None, pair.psi1)
    v1, v2 = np.atleast_2d(pair.psi1.vec), np.atleast_2d(pair.psi2.vec)
    if v1.shape[-1] != case.dim:
        raise ValueError(f"pair dimension {v1.shape[-1]} does not match case {case}")
    if case.family is Family.UNKNOWN_UNKNOWN:
        ins = _kron_rows(_kron_rows(v1, v1), v2), _kron_rows(_kron_rows(v1, v2), v2)
    elif case.family is Family.KNOWN_UNKNOWN:
        ins = _kron_rows(v2, v1), _kron_rows(v2, v2)
    else:
        ins = v1, v2
    return (ins[0][0], ins[1][0]) if lone else ins


def build_for_case(case: KnowledgeCase, pair: StatePair, lam: LambdaParams | np.ndarray) -> PovmSet:
    """Build the family-appropriate POVM for a case on a concrete pair, or on a stack of pairs."""
    _lone(lam, pair.psi1)
    if pair.dim != case.dim:
        raise ValueError(f"pair dimension {pair.dim} does not match case {case}")
    if case.family is Family.UNKNOWN_UNKNOWN:
        return build_unknown_unknown(case.dim, lam)
    if case.family is Family.KNOWN_UNKNOWN:
        return build_known_unknown(pair.psi1, lam)
    return build_known_known(pair.psi1, pair.psi2, lam)


def stack_rows(case: KnowledgeCase) -> int:
    """Measurements of a case per stacked build: as many as fit ``STACK_CELLS`` cells per element, and at least one."""
    return max(1, STACK_CELLS // case.register_dim**2)


def distinct_measurements(case: KnowledgeCase, lams: np.ndarray) -> np.ndarray:
    """Each point's index among the distinct POVMs of a ``(P, n)`` coefficient stack, numbered in order of first use.

    An unknown/unknown POVM reads only its coefficients (a programmable
    discriminator: the pair enters as program input, not as design), so
    points with equal coefficient rows share one.  The other families
    read the pair, so every point has its own.
    """
    if case.family is not Family.UNKNOWN_UNKNOWN:
        return np.arange(len(lams))
    return _first_rows(lams)[1]


def success_probabilities(case: KnowledgeCase, pair: StatePair, lam: LambdaParams) -> tuple[float, float]:
    """(p1, p2): probabilities of correctly identifying each preparation."""
    povm = build_for_case(case, pair, lam)
    in1, in2 = input_states(case, pair)
    return expectation(in1, povm.pi1), expectation(in2, povm.pi2)
