"""Unambiguous discrimination of two qubit or qutrit states.

Eight a-priori-knowledge regimes (state knowledge x prior knowledge)
with their worst-case optimal measurement strategies, an independent
numerical maximin oracle, and a Monte Carlo measurement simulator.
"""

from .cases import ALL_REGIMES, Family, KnowledgeCase, Regime
from .povm import (
    LambdaParams,
    PovmReport,
    PovmSet,
    build_for_case,
    build_known_known,
    build_known_unknown,
    build_unknown_unknown,
    input_states,
    success_probabilities,
    validate,
)
from .optimizer import MaximinProblem, SolveResult, case_problem, solve_maximin, verify_case
from .simulate import SimConfig, SimReport, estimate_surface, outcome_probabilities, run
from .states import PureState, StatePair, overlap, pair_with_overlap
from .strategies import (
    StrategyResult,
    feasible,
    optimal_lambda,
    success_probability,
)

__all__ = [
    "ALL_REGIMES",
    "Family",
    "KnowledgeCase",
    "LambdaParams",
    "MaximinProblem",
    "PovmReport",
    "PovmSet",
    "PureState",
    "Regime",
    "SimConfig",
    "SimReport",
    "SolveResult",
    "StatePair",
    "StrategyResult",
    "build_for_case",
    "build_known_known",
    "build_known_unknown",
    "build_unknown_unknown",
    "case_problem",
    "estimate_surface",
    "feasible",
    "input_states",
    "optimal_lambda",
    "outcome_probabilities",
    "overlap",
    "pair_with_overlap",
    "run",
    "solve_maximin",
    "success_probabilities",
    "success_probability",
    "validate",
    "verify_case",
]

__version__ = "0.1.0"
