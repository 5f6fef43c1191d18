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
the uncorrected coefficients would not form a measurement.

Success probabilities are closed forms in both dims: the qutrit
known/unknown and known/known families reduce to the qubit expressions.
The tests check them against POVM expectations on concrete pairs.

Each family's positivity inequalities are written once, below, as
predicates on floats or numpy arrays, next to the projections onto their
boundaries; ``feasible`` and the oracle in ``optimizer`` both use them.
The surfaces take floats or broadcast arrays: ``np.where`` keeps, per
cell, the branch its threshold selects, so each cell rounds exactly as
that branch alone does.  The decision tables stay scalar.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cases import Family, KnowledgeCase, Regime
from .povm import LambdaParams, build_unknown_unknown, validate

FEASIBILITY_SLACK = 1e-12
SQRT5 = math.sqrt(5.0)
SQRT_HALF = math.sqrt(0.5)


@dataclass(frozen=True)
class StrategyResult:
    """Chosen coefficients plus the success probability at one (beta, eta1) point."""

    case: KnowledgeCase
    lam: LambdaParams
    branch: str
    p_analytic: float
    worst_case_value: float | None = None


# ---------------------------------------------------------------------------
# feasibility predicates
# ---------------------------------------------------------------------------

def pair_program_ok(l1, l2, slack: float = FEASIBILITY_SLACK):
    """Unknown/unknown, per antisymmetric index: the programmable
    discriminator bounds (Bergou and Hillery, PRL 94, 160501, 2005)."""
    return (2.0 - l1 - l2 >= -slack) & (1.0 - l1 - l2 + 0.75 * l1 * l2 >= -slack)


def totally_antisymmetric_ok(lam1_sum, lam2_sum):
    """Qutrit unknown/unknown: <w|pi0|w> = 1 - (sum lam1 + sum lam2)/3 >= 0."""
    return (lam1_sum + lam2_sum) / 3.0 <= 1.0 + FEASIBILITY_SLACK


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
    from_det = (1.0 - l1) / np.maximum(1.0 - (1.0 - b2) * l1, 1e-15)
    return np.clip(np.minimum(from_sum, from_det), 0.0, 1.0)


def _in_box(values, slack: float = FEASIBILITY_SLACK) -> bool:
    return all(-slack <= v <= 1.0 + slack for v in values)


def feasible(case: KnowledgeCase, lam: LambdaParams, *, beta: float | None = None) -> bool:
    """True iff the coefficients yield PSD measurement elements for this case.

    The known/known constraints involve the overlap, so ``beta`` is
    required there and rejected elsewhere.
    """
    fam = case.family
    if fam is Family.KNOWN_KNOWN:
        if beta is None:
            raise ValueError("known/known feasibility requires beta")
        if len(lam.lam1) != 1 or len(lam.lam2) != 1 or lam.lam3 is not None:
            return False
        return _in_box(lam.flat) and bool(direct_ok(lam.lam1[0], lam.lam2[0], beta))
    if beta is not None:
        raise ValueError(f"feasibility for {case} does not depend on beta")
    if fam is Family.KNOWN_UNKNOWN:
        n = case.dim - 1
        if len(lam.lam1) != n or len(lam.lam2) != n or lam.lam3 is None or len(lam.lam3) != n * n:
            return False
        if not _in_box(lam.flat):
            return False
        return all(single_program_ok(a, b) for a, b in zip(lam.lam1, lam.lam2))
    # unknown/unknown
    n = 1 if case.dim == 2 else 3
    if len(lam.lam1) != n or len(lam.lam2) != n or lam.lam3 is not None:
        return False
    per_index = per_index_pair_program_constraints(lam)
    if case.dim == 2 or not per_index:
        return per_index
    # corrected qutrit region: equal per-index coefficients reduce to a
    # simplex; anything else needs the eigenvalue check
    if len(set(lam.lam1)) == 1 and len(set(lam.lam2)) == 1:
        return totally_antisymmetric_ok(sum(lam.lam1), sum(lam.lam2))
    report = validate(build_unknown_unknown(3, lam))
    return all(report.psd_ok)


def per_index_pair_program_constraints(lam: LambdaParams, slack: float = FEASIBILITY_SLACK) -> bool:
    """The naive per-index generalization of the qubit inequalities to qutrits.

    Kept for reference: necessary but not sufficient (see module
    docstring); ``feasible`` applies the corrected region instead.
    """
    return all(v >= -slack for v in lam.flat) and all(
        pair_program_ok(a, b, slack) for a, b in zip(lam.lam1, lam.lam2)
    )


# ---------------------------------------------------------------------------
# closed-form decision tables (qubits; shared by qutrits where valid)
# ---------------------------------------------------------------------------

def _clamp01(x: float) -> float:
    # branch formulas are exact on [0, 1]; rounding can stray by ~1e-15
    return min(1.0, max(0.0, x))


def _a1_decision(eta1: float) -> tuple[float, float, str]:
    if eta1 <= 0.2:
        return 0.0, 1.0, "eta1<=1/5"
    if eta1 <= 0.8:
        l1 = _clamp01((2.0 / 3.0) * (2.0 - math.sqrt((1.0 - eta1) / eta1)))
        l2 = _clamp01((2.0 / 3.0) * (2.0 - math.sqrt(eta1 / (1.0 - eta1))))
        return l1, l2, "1/5<eta1<=4/5"
    return 1.0, 0.0, "eta1>4/5"


def _a2_decision(eta1: float) -> tuple[float, float, float, str]:
    if eta1 <= 0.5:
        return 0.0, 1.0, 1.0, "eta1<=1/2"
    if eta1 <= 0.8:
        l1 = _clamp01(2.0 * (1.0 - math.sqrt((1.0 - eta1) / eta1)))
        l2 = _clamp01(2.0 - math.sqrt(eta1 / (1.0 - eta1)))
        return l1, l2, 1.0, "1/2<eta1<=4/5"
    return 1.0, 0.0, 1.0, "eta1>4/5"


def _a3_decision(beta: float, eta1: float) -> tuple[float, float, float, str]:
    b2 = beta * beta
    t1, t2 = b2 / (1.0 + b2), 4.0 * b2 / (1.0 + 4.0 * b2)
    if eta1 <= t1:
        return 0.0, 1.0, 1.0, "eta1<=beta^2/(1+beta^2)"
    if eta1 <= t2:
        l1 = _clamp01(2.0 * (1.0 - beta * math.sqrt((1.0 - eta1) / eta1)))
        l2 = _clamp01(2.0 - math.sqrt(eta1 / (1.0 - eta1)) / beta)
        return l1, l2, 1.0, "between"
    return 1.0, 0.0, 1.0, "eta1>4beta^2/(1+4beta^2)"


def _a4_decision(beta: float, eta1: float) -> tuple[float, float, str]:
    b2 = beta * beta
    t1, t2 = b2 / (1.0 + b2), 1.0 / (1.0 + b2)
    if eta1 <= t1:
        return 0.0, 1.0, "eta1<=beta^2/(1+beta^2)"
    if eta1 <= t2:
        s1 = beta * math.sqrt((1.0 - eta1) / eta1) if beta > 0.0 else 0.0
        s2 = beta * math.sqrt(eta1 / (1.0 - eta1)) if beta > 0.0 and eta1 < 1.0 else 0.0
        l1 = _clamp01((1.0 - s1) / (1.0 - b2))
        l2 = _clamp01((1.0 - s2) / (1.0 - b2))
        return l1, l2, "between"
    return 1.0, 0.0, "eta1>1/(1+beta^2)"


def _b3_decision(beta: float) -> tuple[float, float, float, str]:
    if beta <= SQRT_HALF:
        return 1.0, 0.0, 1.0, "beta<=sqrt(1/2)"
    b2 = beta * beta
    l1 = _clamp01(b2 + 2.0 - math.sqrt(b2 * b2 + 4.0 * b2))
    l2 = _clamp01(1.5 - math.sqrt(0.25 + 1.0 / b2))
    return l1, l2, 1.0, "beta>sqrt(1/2)"


B2_LAM = (3.0 - SQRT5, 0.5 * (3.0 - SQRT5), 1.0)


def _a1_qutrit_decision(eta1: float) -> tuple[float, float, str]:
    # corrected region lam1 + lam2 <= 1: linear objective, corner optimum
    if eta1 <= 0.5:
        return 0.0, 1.0, "eta1<=1/2"
    return 1.0, 0.0, "eta1>1/2"


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

CASE_SURFACE = {
    Regime.A1: "p0_opt",
    Regime.A2: "p1_wbeta",
    Regime.A3: "p1plus_opt",
    Regime.A4: "p2_opt",
    Regime.B1: "p0_weta",
    Regime.B2: "p1_wbetaeta",
    Regime.B3: "p1plus_weta",
    Regime.B4: "p2_weta",
}


def case_surface(case: KnowledgeCase):
    """The closed-form surface of a case's optimal strategy, ``f(beta, eta1)``.

    The qutrit unknown/unknown surfaces are the corrected ones; the other
    qutrit families reduce to the qubit expressions.  B3's surface is its
    guaranteed worst case; its realized value is ``p1plus_actual``.
    """
    r = case.regime
    if case.dim == 3 and r is Regime.A1:
        return p0_opt_qutrit
    if case.dim == 3 and r is Regime.B1:
        return p0_weta_qutrit
    return SURFACES[CASE_SURFACE[r]]


# ---------------------------------------------------------------------------
# decisions and evaluation
# ---------------------------------------------------------------------------

def symmetric_lambda(case: KnowledgeCase, coeffs) -> LambdaParams:
    """Per-index coefficients from one value per block, ``(l1, l2[, l3])``.

    Every antisymmetric index of a block gets the same value: one index
    for qubits; three (unknown/unknown) or two (known/unknown) for
    qutrits, with the known/unknown ``lam3`` block repeated over its
    (dim-1)^2 entries.  Known/known has a single index in either dim.
    """
    l1, l2, *l3 = coeffs
    if case.family is Family.KNOWN_KNOWN:
        return LambdaParams.of(l1, l2)
    if case.family is Family.UNKNOWN_UNKNOWN:
        n = 1 if case.dim == 2 else 3
        return LambdaParams.of((l1,) * n, (l2,) * n)
    n = case.dim - 1
    return LambdaParams.of((l1,) * n, (l2,) * n, (l3[0],) * (n * n))


def _decide(case: KnowledgeCase, beta: float | None, eta1: float | None) -> tuple[LambdaParams, str]:
    r = case.regime
    if r is Regime.A1:
        *coeffs, br = _a1_decision(eta1) if case.dim == 2 else _a1_qutrit_decision(eta1)
    elif r is Regime.B1:
        l = 2.0 / 3.0 if case.dim == 2 else 0.5
        coeffs, br = (l, l), "equalizer"
    elif r is Regime.A2:
        *coeffs, br = _a2_decision(eta1)
    elif r is Regime.A3:
        *coeffs, br = _a3_decision(beta, eta1)
    elif r is Regime.B2:
        coeffs, br = B2_LAM, "equalizer"
    elif r is Regime.B3:
        *coeffs, br = _b3_decision(beta)
    elif r is Regime.A4:
        *coeffs, br = _a4_decision(beta, eta1)
    else:  # B4
        l = 1.0 / (1.0 + beta)
        coeffs, br = (l, l), "equalizer"
    return symmetric_lambda(case, coeffs), br


def optimal_lambda(case: KnowledgeCase, beta: float | None = None, eta1: float | None = None) -> LambdaParams:
    """Case-optimal coefficients from exactly the inputs the case may use.

    Supplying a parameter the regime does not know (or omitting one it
    does) is an error: the information structure is part of the contract.
    """
    needs = case.decision_inputs
    given = {name for name, value in (("beta", beta), ("eta1", eta1)) if value is not None}
    if given != needs:
        missing = sorted(needs - given)
        forbidden = sorted(given - needs)
        parts = []
        if missing:
            parts.append(f"missing required input(s): {', '.join(missing)}")
        if forbidden:
            parts.append(f"case must not receive: {', '.join(forbidden)}")
        raise ValueError(f"{case}: " + "; ".join(parts))
    if beta is not None and not 0.0 <= beta <= 1.0:
        raise ValueError(f"beta must lie in [0, 1], got {beta}")
    if eta1 is not None and not 0.0 <= eta1 <= 1.0:
        raise ValueError(f"eta1 must lie in [0, 1], got {eta1}")
    return _decide(case, beta, eta1)[0]


def success_probability(case: KnowledgeCase, beta, eta1) -> StrategyResult | list[StrategyResult]:
    """Success probability of the case's optimal strategy at a (beta, eta1) point.

    Both parameters are always accepted: surfaces depend on the true pair
    even when the decision cannot, which sees only the inputs its regime
    knows.  The value is the closed form of ``case_surface``, except for
    B3, which reports its realized value ``p1plus_actual`` rather than its
    worst case.

    For equal-length 1-d arrays of P points the surfaces are evaluated once
    and the result is a list of P results, each equal to its lone call.
    """
    lone = np.ndim(beta) == np.ndim(eta1) == 0
    betas, etas = np.array(beta, dtype=float, ndmin=1), np.array(eta1, dtype=float, ndmin=1)
    if betas.ndim != 1 or betas.shape != etas.shape:
        raise ValueError(f"beta and eta1 must be scalars or equal-length 1-d arrays, got {betas.shape}, {etas.shape}")
    for name, given, values in (("beta", beta, betas), ("eta1", eta1, etas)):
        bad = ~((0.0 <= values) & (values <= 1.0))
        if bad.any():
            raise ValueError(f"{name} must lie in [0, 1], got {given if lone else values[bad.argmax()]}")
    r = case.regime
    surface = case_surface(case)(betas, etas)
    p = p1plus_actual(betas, etas) if r is Regime.B3 else surface

    results = []
    for b, e, p_k, surface_k in zip(betas.tolist(), etas.tolist(), p.tolist(), surface.tolist()):
        lam, branch = _decide(case, b if r.knows_beta else None, e if r.knows_eta1 else None)
        worst: float | None = None
        if r is Regime.A2:
            worst = 0.5 * lam.lam1[0] * e + lam.lam2[0] * (1.0 - e)
        elif r is Regime.B2:
            worst = 0.5 * B2_LAM[0]
        elif r in (Regime.B1, Regime.B3, Regime.B4):
            worst = surface_k  # constant in the prior, hence the guaranteed value
        results.append(StrategyResult(case=case, lam=lam, branch=branch, p_analytic=p_k, worst_case_value=worst))
    return results[0] if lone else results
