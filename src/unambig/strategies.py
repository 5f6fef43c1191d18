"""Closed-form optimal and worst-case strategies for all eight regimes.

Every regime fixes the free coefficients (lam) either by maximizing the
average success probability (A regimes, prior known) or by maximizing the
worst case over whatever is unknown (B regimes, and the unknown overlap
in A2).  The resulting success-probability surfaces are piecewise in the
prior, with branch thresholds that depend on the overlap where known.

Branch convention: at a threshold the lower branch is evaluated; all
surfaces are continuous across thresholds, so this only fixes reporting.

Correction for the qutrit unknown/unknown family: the per-index
positivity inequalities inherited from the qubit case are insufficient
there.  The totally antisymmetric three-register state w satisfies
<w|pi0|w> = 1 - (sum_i lam1_i + sum_i lam2_i)/3, so with equal
per-index coefficients the true constraint is lam1 + lam2 <= 1.  The
strategies below for dim-3 A1/B1 optimize over that corrected region;
the uncorrected coefficients would not form a measurement.  The
per-index inequalities stay necessary, and decide only unequal rows.

Success probabilities are closed forms in both dims: the qutrit
known/unknown and known/known families reduce to the qubit expressions.
The tests check them against POVM expectations on concrete pairs.

Each family's positivity inequalities are written once, below, as array
predicates ``margin >= -FEASIBILITY_SLACK`` (the one slack, from ``povm``)
next to the projections onto their boundaries; ``REGIONS`` picks them per
case, and ``feasible`` and the ``optimizer`` oracle read it.
The surfaces take floats or broadcast arrays: ``np.where`` keeps, per
cell, the branch its threshold selects, so each cell rounds exactly as
that branch alone does.  The decision tables work the same way on arrays
of points, and a stacked decision is one ``(P, n)`` coefficient array,
the form ``povm`` builds from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cases import Family, KnowledgeCase, Regime
from .povm import FEASIBILITY_SLACK, LambdaParams, _lambda_of, _layout
from .states import as_points

SQRT5 = math.sqrt(5.0)
SQRT_HALF = math.sqrt(0.5)


@dataclass(frozen=True)
class StrategyResult:
    """Chosen coefficients plus the success probability at one (beta, eta1) point, or arrays over P points."""

    case: KnowledgeCase
    lam: LambdaParams | np.ndarray
    branch: str | np.ndarray
    p_analytic: float | np.ndarray
    worst_case_value: float | np.ndarray | None = None


# ---------------------------------------------------------------------------
# feasibility predicates
# ---------------------------------------------------------------------------

def pair_program_ok(l1, l2):
    """Unknown/unknown, per antisymmetric index: the programmable
    discriminator bounds (Bergou and Hillery, PRL 94, 160501, 2005)."""
    return (2.0 - l1 - l2 >= -FEASIBILITY_SLACK) & (1.0 - l1 - l2 + 0.75 * l1 * l2 >= -FEASIBILITY_SLACK)


def totally_antisymmetric_ok(lam1_sum, lam2_sum):
    """Qutrit unknown/unknown: <w|pi0|w> = 1 - (sum lam1 + sum lam2)/3 >= 0."""
    return 1.0 - (lam1_sum + lam2_sum) / 3.0 >= -FEASIBILITY_SLACK


def single_program_ok(l1, l2):
    """Known/unknown, per antisymmetric index."""
    return 1.0 - l1 - l2 + 0.5 * l1 * l2 >= -FEASIBILITY_SLACK


def direct_ok(l1, l2, beta: float):
    """Known/known; the only family whose bounds involve the overlap."""
    b2 = beta * beta
    return (1.0 - l1 - l2 * b2 >= -FEASIBILITY_SLACK) & (
        1.0 - l1 - l2 + (1.0 - b2) * l1 * l2 >= -FEASIBILITY_SLACK
    )


def pair_program_boundary(l1: np.ndarray) -> np.ndarray:
    """l2 on the boundary of ``pair_program_ok`` (1 - l1 - l2 + 3/4 l1 l2 = 0), clipped to [0, 1]."""
    return np.clip((1.0 - l1) / (1.0 - 0.75 * l1), 0.0, 1.0)


def pair_program_boundary_qutrit(l1: np.ndarray) -> np.ndarray:
    """l2 on the boundary of ``totally_antisymmetric_ok`` with equal per-index coefficients: l1 + l2 = 1."""
    return np.clip(1.0 - l1, 0.0, 1.0)


def single_program_boundary(l1: np.ndarray) -> np.ndarray:
    """l2 on the boundary of ``single_program_ok`` (1 - l1 - l2 + 1/2 l1 l2 = 0), clipped to [0, 1]."""
    return np.clip((1.0 - l1) / (1.0 - 0.5 * l1), 0.0, 1.0)


def direct_boundary(l1: np.ndarray, beta) -> np.ndarray:
    """l2 on the boundary of ``direct_ok`` at overlap ``beta``: the nearer of its two bounds."""
    b2 = beta * beta
    from_sum = np.where(b2 > 0.0, (1.0 - l1) / np.maximum(b2, 1e-300), np.inf)
    den = 1.0 - (1.0 - b2) * l1
    # den == 0 only at b2 == 0 (after rounding) and l1 == 1, where the bound reads 0 >= 0 for every l2
    from_det = np.divide(1.0 - l1, den, out=np.ones(np.shape(den)), where=den != 0.0)
    return np.clip(np.minimum(from_sum, from_det), 0.0, 1.0)


# The positivity region of each (family, dim): a predicate on one antisymmetric index's (l1, l2) and the
# projection of l1 onto l2 at its boundary.  Only known/known reads beta; the others ignore it.
REGIONS = {
    (Family.UNKNOWN_UNKNOWN, 2): (lambda l1, l2, beta: pair_program_ok(l1, l2), lambda l1, beta: pair_program_boundary(l1)),
    # corrected region, equal per-index coefficients: the simplex in the index sums
    (Family.UNKNOWN_UNKNOWN, 3): (lambda l1, l2, beta: totally_antisymmetric_ok(3.0 * l1, 3.0 * l2),
                                  lambda l1, beta: pair_program_boundary_qutrit(l1)),
    **{(Family.KNOWN_UNKNOWN, dim): (lambda l1, l2, beta: single_program_ok(l1, l2),
                                     lambda l1, beta: single_program_boundary(l1)) for dim in (2, 3)},
    **{(Family.KNOWN_KNOWN, dim): (direct_ok, direct_boundary) for dim in (2, 3)},
}


def feasible(case: KnowledgeCase, lam: LambdaParams, *, beta: float | None = None) -> bool:
    """True iff the coefficients yield PSD measurement elements for this case: its ``REGIONS`` predicate.

    Each coefficient also meets ``1 - lam >= -FEASIBILITY_SLACK``.  The
    known/known constraints involve the overlap, so ``beta`` is required
    there and rejected elsewhere.  Qutrit unknown/unknown rows equal per
    index go to the simplex; the per-index bounds decide only the other
    rows, which raise where they meet those bounds (no closed form).
    """
    fam = case.family
    if fam is Family.KNOWN_KNOWN and beta is None:
        raise ValueError("known/known feasibility requires beta")
    if fam is not Family.KNOWN_KNOWN and beta is not None:
        raise ValueError(f"feasibility for {case} does not depend on beta")
    if beta is not None and not 0.0 <= beta <= 1.0:
        raise ValueError(f"beta must lie in [0, 1], got {beta}")
    if tuple(len(x) for x in (lam.lam1, lam.lam2, lam.lam3) if x is not None) != _layout(fam, case.dim):
        return False
    flat, l1, l2 = np.array(lam.flat), np.array(lam.lam1), np.array(lam.lam2)
    if not np.all(1.0 - flat >= -FEASIBILITY_SLACK):
        return False
    if case.dim == 3 and fam is Family.UNKNOWN_UNKNOWN and (np.any(l1 != l1[0]) or np.any(l2 != l2[0])):
        if not np.all(pair_program_ok(l1, l2)):
            return False
        raise ValueError(f"{case}: no closed-form region for per-index coefficients that are not all equal")
    ok, _ = REGIONS[fam, case.dim]
    return bool(np.all(ok(l1, l2, beta)))


# ---------------------------------------------------------------------------
# closed-form decision tables (qubits; shared by qutrits where valid)
# ---------------------------------------------------------------------------
# Each takes arrays of the inputs its regime knows.  Every branch is evaluated at every point (off
# its range too, where ``_decisions`` ignores floating-point errors), and the thresholds pick per
# point: bitwise the branch alone.

def _clamp01(x):
    # branch formulas are exact on [0, 1]; rounding can stray by ~1e-15.  As min(1, max(0, x)),
    # -0.0 and NaN give 0.0 (np.clip would keep them)
    return np.where(x > 0.0, np.where(x < 1.0, x, 1.0), 0.0)


def _branches(conds, *branches):
    """Per point, the columns ``(l1, l2[, l3], label)`` of the first branch whose condition holds, else the last."""
    picked = branches[-1]
    for cond, branch in zip(conds[::-1], branches[-2::-1]):
        picked = tuple(np.where(cond, value, other) for value, other in zip(branch, picked))
    return picked


def _a1_decision(eta1):
    l1 = _clamp01((2.0 / 3.0) * (2.0 - np.sqrt((1.0 - eta1) / eta1)))
    l2 = _clamp01((2.0 / 3.0) * (2.0 - np.sqrt(eta1 / (1.0 - eta1))))
    return _branches([eta1 <= 0.2, eta1 <= 0.8],
                     (0.0, 1.0, "eta1<=1/5"), (l1, l2, "1/5<eta1<=4/5"), (1.0, 0.0, "eta1>4/5"))


def _a2_decision(eta1):
    l1 = _clamp01(2.0 * (1.0 - np.sqrt((1.0 - eta1) / eta1)))
    l2 = _clamp01(2.0 - np.sqrt(eta1 / (1.0 - eta1)))
    return _branches([eta1 <= 0.5, eta1 <= 0.8],
                     (0.0, 1.0, 1.0, "eta1<=1/2"), (l1, l2, 1.0, "1/2<eta1<=4/5"), (1.0, 0.0, 1.0, "eta1>4/5"))


def _a3_decision(beta, eta1):
    b2 = beta * beta
    t1, t2 = b2 / (1.0 + b2), 4.0 * b2 / (1.0 + 4.0 * b2)
    l1 = _clamp01(2.0 * (1.0 - beta * np.sqrt((1.0 - eta1) / eta1)))
    l2 = _clamp01(2.0 - np.sqrt(eta1 / (1.0 - eta1)) / beta)
    return _branches([eta1 <= t1, eta1 <= t2], (0.0, 1.0, 1.0, "eta1<=beta^2/(1+beta^2)"),
                     (l1, l2, 1.0, "between"), (1.0, 0.0, 1.0, "eta1>4beta^2/(1+4beta^2)"))


def _a4_decision(beta, eta1):
    b2 = beta * beta
    t1, t2 = b2 / (1.0 + b2), 1.0 / (1.0 + b2)
    s1 = np.where(beta > 0.0, beta * np.sqrt((1.0 - eta1) / eta1), 0.0)
    s2 = np.where((beta > 0.0) & (eta1 < 1.0), beta * np.sqrt(eta1 / (1.0 - eta1)), 0.0)
    l1 = _clamp01((1.0 - s1) / (1.0 - b2))
    l2 = _clamp01((1.0 - s2) / (1.0 - b2))
    return _branches([eta1 <= t1, eta1 <= t2], (0.0, 1.0, "eta1<=beta^2/(1+beta^2)"),
                     (l1, l2, "between"), (1.0, 0.0, "eta1>1/(1+beta^2)"))


def _b3_decision(beta):
    b2 = beta * beta
    l1 = _clamp01(b2 + 2.0 - np.sqrt(b2 * b2 + 4.0 * b2))
    l2 = _clamp01(1.5 - np.sqrt(0.25 + 1.0 / b2))
    return _branches([beta <= SQRT_HALF], (1.0, 0.0, 1.0, "beta<=sqrt(1/2)"), (l1, l2, 1.0, "beta>sqrt(1/2)"))


B2_LAM = (3.0 - SQRT5, 0.5 * (3.0 - SQRT5), 1.0)


# ---------------------------------------------------------------------------
# success-probability surfaces (dim 2 closed forms)
# ---------------------------------------------------------------------------

def _where(cond, then, otherwise):
    """``np.where`` that gives a float, not a 0-d array, for scalar inputs."""
    return np.where(cond, then, otherwise)[()]


def p0_opt(beta, eta1):
    f = 1.0 - beta * beta
    return _where(eta1 <= 0.2, 0.5 * (1.0 - eta1) * f,
                  _where(eta1 <= 0.8, (2.0 / 3.0) * (1.0 - np.sqrt(eta1 * (1.0 - eta1))) * f,
                         0.5 * eta1 * f))


def p1_wbeta(beta, eta1):
    b2 = beta * beta
    f = 1.0 - b2
    return _where(eta1 <= 0.5, (1.0 - eta1) * f,
                  _where(eta1 <= 0.8, (1.0 + b2 * (1.0 - eta1) - (1.0 + b2) * np.sqrt(eta1 * (1.0 - eta1))) * f,
                         (1.0 - 0.5 * eta1 - b2 * (1.0 - eta1)) * f))


def p1plus_opt(beta, eta1):
    b2 = beta * beta
    f = 1.0 - b2
    t1, t2 = b2 / (1.0 + b2), 4.0 * b2 / (1.0 + 4.0 * b2)
    return _where(eta1 <= t1, (1.0 - eta1) * f,
                  _where(eta1 <= t2, (1.0 + b2 * (1.0 - eta1) - 2.0 * beta * np.sqrt(eta1 * (1.0 - eta1))) * f,
                         (1.0 - 0.5 * eta1 - b2 * (1.0 - eta1)) * f))


def p2_opt(beta, eta1):
    """Jaeger and Shimony's unequal-prior optimum (PLA 197, 83, 1995)."""
    b2 = beta * beta
    t1, t2 = b2 / (1.0 + b2), 1.0 / (1.0 + b2)
    return _where(eta1 <= t1, (1.0 - eta1) * (1.0 - b2),
                  _where(eta1 <= t2, 1.0 - 2.0 * np.sqrt(eta1 * (1.0 - eta1)) * beta,
                         eta1 * (1.0 - b2)))


def p0_weta(beta, eta1=0.0):
    return (1.0 - beta * beta) / 3.0


def p1_wbetaeta(beta, eta1):
    f = 1.0 - beta * beta
    return (0.5 * (3.0 - SQRT5) + 0.5 * (SQRT5 - 1.0) * f * (1.0 - eta1)) * f


def p1plus_actual(beta, eta1):
    b2 = beta * beta
    f = 1.0 - b2
    return _where(beta <= SQRT_HALF, (0.5 + (0.5 - b2) * (1.0 - eta1)) * f,
                  (1.0 + 0.5 * b2 - 0.5 * np.sqrt(b2 * b2 + 4.0 * b2)) * f)


def p1plus_weta(beta, eta1=0.0):
    # B3's guaranteed value: its realized value at the worst prior, eta1 = 1
    return p1plus_actual(beta, 1.0)


def p2_weta(beta, eta1=0.0):
    return 1.0 - beta


def p0_opt_qutrit(beta, eta1):
    return 0.5 * np.maximum(eta1, 1.0 - eta1) * (1.0 - beta * beta)


def p0_weta_qutrit(beta, eta1=0.0):
    return 0.25 * (1.0 - beta * beta)


# surfaces by name; difference surfaces are (minuend, subtrahend) pairs
SURFACES = {
    "p0_opt": p0_opt,
    "p1_wbeta": p1_wbeta,
    "p1plus_opt": p1plus_opt,
    "p2_opt": p2_opt,
    "p0_weta": p0_weta,
    "p1_wbetaeta": p1_wbetaeta,
    "p1plus_actual": p1plus_actual,
    "p1plus_weta": p1plus_weta,
    "p2_weta": p2_weta,
}

DIFFERENCE_SURFACES = {
    "p0_prior_gain": ("p0_opt", "p0_weta"),
    "p1_prior_gain": ("p1_wbeta", "p1_wbetaeta"),
    "p1plus_prior_gain": ("p1plus_opt", "p1plus_actual"),
    "p2_prior_gain": ("p2_opt", "p2_weta"),
    "p_0_to_1": ("p1_wbeta", "p0_opt"),
    "p_1_to_1plus": ("p1plus_opt", "p1_wbeta"),
    "p_1plus_to_2": ("p2_opt", "p1plus_opt"),
}

# (regime, dim) -> (decision, surface name): by name, so case_surface returns what the module binds to it.
# The qutrit A1 and B1 entries hold the corrected region lam1 + lam2 <= 1, where A1's optimum is a corner.
CASES = {(regime, dim): entry for regime, entry in {
    Regime.A1: (_a1_decision, "p0_opt"),
    Regime.A2: (_a2_decision, "p1_wbeta"),
    Regime.A3: (_a3_decision, "p1plus_opt"),
    Regime.A4: (_a4_decision, "p2_opt"),
    Regime.B1: (lambda: (2.0 / 3.0, 2.0 / 3.0, "equalizer"), "p0_weta"),
    Regime.B2: (lambda: (*B2_LAM, "equalizer"), "p1_wbetaeta"),
    Regime.B3: (_b3_decision, "p1plus_weta"),
    Regime.B4: (lambda beta: (1.0 / (1.0 + beta),) * 2 + ("equalizer",), "p2_weta"),
}.items() for dim in (2, 3)} | {
    (Regime.A1, 3): (lambda eta1: _branches([eta1 <= 0.5], (0.0, 1.0, "eta1<=1/2"), (1.0, 0.0, "eta1>1/2")),
                     "p0_opt_qutrit"),
    (Regime.B1, 3): (lambda: (0.5, 0.5, "equalizer"), "p0_weta_qutrit"),
}


def case_surface(case: KnowledgeCase):
    """The closed-form surface ``f(beta, eta1)`` of a case's ``CASES`` entry.

    B3's is its guaranteed worst case; its realized value is ``p1plus_actual``.
    """
    return globals()[CASES[case.regime, case.dim][1]]


# ---------------------------------------------------------------------------
# decisions and evaluation
# ---------------------------------------------------------------------------

def symmetric_lambda(case: KnowledgeCase, coeffs) -> LambdaParams | np.ndarray:
    """Per-index coefficients from one value per block, ``(l1, l2[, l3])``, or the ``(P, n)`` stack of ``(P, k)``.

    Every antisymmetric index of a block gets the same value: one index
    for qubits; three (unknown/unknown) or two (known/unknown) for
    qutrits, with the known/unknown ``lam3`` block repeated over its
    (dim-1)^2 entries.  Known/known has a single index in either dim.
    """
    lam = np.repeat(np.asarray(coeffs, dtype=float), _layout(case.family, case.dim), axis=-1)
    return _lambda_of(case, lam) if lam.ndim == 1 else lam


def _decisions(case: KnowledgeCase, betas: np.ndarray, etas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ``(P, k)`` block values and ``(P,)`` branches of the case's decision, from the inputs its regime knows."""
    decide, _ = CASES[case.regime, case.dim]
    known = [x for x, knows in ((betas, case.regime.knows_beta), (etas, case.regime.knows_eta1)) if knows]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # the branches not taken
        *blocks, branch = decide(*known)
    stack = np.empty(betas.shape + (len(blocks),))
    for i, block in enumerate(blocks):
        stack[:, i] = block
    return stack, np.broadcast_to(branch, betas.shape)


def optimal_lambda(case: KnowledgeCase, beta: float | None = None, eta1: float | None = None) -> LambdaParams:
    """Case-optimal coefficients from exactly the inputs the case may use.

    Supplying a parameter the regime does not know (or omitting one it
    does) is an error: the information structure is part of the contract.
    """
    needs = case.decision_inputs
    given = {name for name, value in (("beta", beta), ("eta1", eta1)) if value is not None}
    if given != needs:
        parts = [f"{label}: {', '.join(sorted(names))}" for label, names in
                 (("missing required input(s)", needs - given), ("case must not receive", given - needs)) if names]
        raise ValueError(f"{case}: " + "; ".join(parts))
    betas, etas, lone = as_points(beta, eta1)  # the decision reads only the inputs checked above
    blocks, _ = _decisions(case, betas, etas)
    return symmetric_lambda(case, blocks[0] if lone else blocks)


def success_probability(case: KnowledgeCase, beta, eta1) -> StrategyResult:
    """Success probability of the case's optimal strategy at a (beta, eta1) point.

    Both parameters are always accepted: surfaces depend on the true pair
    even when the decision cannot, which sees only the inputs its regime
    knows.  The value is the closed form of ``case_surface``, except for
    B3, which reports its realized value ``p1plus_actual`` rather than its
    worst case.

    For equal-length 1-d arrays of P points the fields are arrays: ``lam``
    the ``(P, n)`` coefficient stack, and ``(P,)`` for the others.  A lone
    point is a stack of one that loses its axis, bitwise equal to its row.
    """
    betas, etas, lone = as_points(beta, eta1)
    blocks, branch = _decisions(case, betas, etas)
    r = case.regime
    surface = case_surface(case)(betas, etas)
    p = p1plus_actual(betas, etas) if r is Regime.B3 else surface
    worst = None
    if r is Regime.A2:
        worst = 0.5 * blocks[:, 0] * etas + blocks[:, 1] * (1.0 - etas)
    elif r is Regime.B2:
        worst = np.full(betas.shape, 0.5 * B2_LAM[0])
    elif r in (Regime.B1, Regime.B3, Regime.B4):
        worst = surface  # constant in the prior, hence the guaranteed value
    if lone:
        blocks, branch, p, worst = blocks[0], str(branch[0]), float(p[0]), None if worst is None else float(worst[0])
    return StrategyResult(case=case, lam=symmetric_lambda(case, blocks), branch=branch, p_analytic=p,
                          worst_case_value=worst)
