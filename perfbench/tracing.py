"""Span tracing of the unambig layers, installed from outside the program.

The layers are the modules under ``src/unambig/``: cli, optimizer,
strategies, povm, linalg, states and simulate (``cases`` holds only the
taxonomy and is not traced).  ``install`` replaces each traced public
function with a wrapper under every name it is looked up by: a function
imported with ``from .x import f`` is a separate binding in the importing
module, so ``povm.kron`` and ``linalg.kron`` are both patched, as are the
surface functions held in ``strategies.SURFACES``.  ``Patches.restore``
puts every original back.

Spans stay in memory (``Tracer.spans``) and are written out by the caller
when the run ends.  Hot leaves (surfaces, ``kron``, Hermitian eigensolves)
are called up to 2e6 times a pass, so each is recorded as one span per
parent span carrying a call count and the summed busy time, instead of one
span per call.

The optimizer counters come from wrapping the ``MaximinProblem`` that
``optimizer.case_problem`` returns (``dataclasses.replace`` with a counting
``feasible`` and ``objective``); they repeat exactly from run to run.

The program is single-threaded and has no queue or lock, so no layer
waits for another: waiting time is zero by construction and is not
reported.
"""

from __future__ import annotations

import dataclasses
import math
import sys
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

LAYERS = ("cli", "optimizer", "strategies", "povm", "linalg", "states", "simulate")
CASE_LABELS = tuple(f"{c}{i}_d{d}" for d in (2, 3) for c in "ab" for i in "1234")
FAMILIES = ("unknown_unknown", "known_unknown", "known_known")
EIG_SIZES = (2, 3, 4, 8, 9, 27)  # register dims: d, d^2, d^3 for d = 2, 3


def _verify_case_name(args, kwargs) -> str:
    case = args[0] if args else kwargs["case"]
    return f"optimizer.verify_case.{case.regime.value}_d{case.dim}"


def _eigvalsh_name(args, kwargs) -> str:
    m = args[0] if args else kwargs["m"]
    return f"linalg.eigvalsh.n{len(m)}"


# (module, public name, span name or function of the call's arguments)
SPANNED = (
    ("cli", "main", "cli.main"),
    ("cli", "cmd_verify", "cli.verify"),
    ("cli", "cmd_sweep", "cli.sweep"),
    ("cli", "cmd_simulate", "cli.simulate"),
    ("optimizer", "verify_case", _verify_case_name),
    ("optimizer", "solve_maximin", "optimizer.solve"),
    ("strategies", "success_probability", "strategies.success_probability"),
    ("povm", "build_unknown_unknown", "povm.build.unknown_unknown"),
    ("povm", "build_known_unknown", "povm.build.known_unknown"),
    ("povm", "build_known_known", "povm.build.known_known"),
    ("povm", "validate", "povm.validate"),
    ("povm", "success_probabilities", "povm.success_probabilities"),
    ("states", "pair_with_overlap", "states.pair_with_overlap"),
    ("simulate", "estimate_surface", "simulate.estimate_surface"),
    ("simulate", "outcome_probabilities", "simulate.outcome_probabilities"),
    ("simulate", "run", "simulate.run"),
)

AGGREGATED = (
    ("linalg", "kron", "linalg.kron"),
    ("linalg", "eigvals_hermitian", _eigvalsh_name),
)

# qutrit surfaces used by the oracle comparison but absent from SURFACES
EXTRA_SURFACES = ("p0_opt_qutrit", "p0_weta_qutrit")

# name -> (unit, better); the per-layer metrics of one traced pass
PER_LAYER = {
    "trace.untraced_wall_s": ("s", "lower"),
    "trace.traced_wall_s": ("s", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
    "cli.sweep.self_s": ("s", "lower"),
    "cli.bytes_out": ("bytes", "lower"),
    "cli.errors": ("count", "lower"),
    "optimizer.solve.calls": ("count", "lower"),
    "optimizer.solve.busy_s": ("s", "lower"),
    "optimizer.solve.ms.p50": ("ms", "lower"),
    "optimizer.solve.ms.p99": ("ms", "lower"),
    **{f"optimizer.verify_case.{c}.busy_s": ("s", "lower") for c in CASE_LABELS},
    "optimizer.candidates": ("count", "lower"),
    "optimizer.feasible_ratio": ("ratio", "higher"),
    "optimizer.objective_cells": ("count", "lower"),
    "optimizer.max_dev": ("abs", "lower"),
    "optimizer.errors": ("count", "lower"),
    "strategies.surface.calls": ("count", "lower"),
    "strategies.surface.busy_s": ("s", "lower"),
    "strategies.success_probability.calls": ("count", "lower"),
    "strategies.success_probability.busy_s": ("s", "lower"),
    "strategies.success_probability.us.p50": ("us", "lower"),
    "strategies.success_probability.us.p99": ("us", "lower"),
    "strategies.errors": ("count", "lower"),
    **{f"povm.build.{f}.{k}": (u, "lower") for f in FAMILIES for k, u in (("calls", "count"), ("busy_s", "s"))},
    "povm.validate.calls": ("count", "lower"),
    "povm.validate.busy_s": ("s", "lower"),
    "povm.success_probabilities.busy_s": ("s", "lower"),
    "povm.errors": ("count", "lower"),
    "linalg.kron.calls": ("count", "lower"),
    "linalg.kron.busy_s": ("s", "lower"),
    **{f"linalg.eigvalsh.n{n}.{k}": (u, "lower") for n in EIG_SIZES for k, u in (("calls", "count"), ("busy_s", "s"))},
    "linalg.errors": ("count", "lower"),
    "states.pair_with_overlap.calls": ("count", "lower"),
    "states.pair_with_overlap.busy_s": ("s", "lower"),
    "states.errors": ("count", "lower"),
    "simulate.outcome_probabilities.busy_s": ("s", "lower"),
    "simulate.sample.self_s": ("s", "lower"),
    "simulate.shots_per_s": ("1/s", "higher"),
    "simulate.errors": ("count", "lower"),
}

# span record fields
NAME, START, END, PARENT, PASS, COUNT, BUSY = range(7)


class Tracer:
    """In-memory spans and counters, grouped by pass (one pass is one request)."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, pass id, count, busy]
        self.counts: Counter = Counter()  # (pass id, counter name) -> total
        self.errors: Counter = Counter()  # (pass id, layer) -> exceptions first seen there
        self.pass_id = 0
        self._stack: list[int] = []
        self._aggregates: dict[tuple, int] = {}
        self._raised: list[BaseException] = []

    def count(self, name: str, n: int) -> None:
        self.counts[(self.pass_id, name)] += n

    def _error(self, name: str, exc: BaseException) -> None:
        # count an exception once, in the innermost layer it escaped from
        if not any(e is exc for e in self._raised):
            self._raised.append(exc)
            self.errors[(self.pass_id, name.split(".", 1)[0])] += 1

    def spanned(self, name_of, fn):
        """Wrap ``fn`` so every call records its own span."""
        tracer = self

        def wrapper(*args, **kwargs):
            name = name_of if isinstance(name_of, str) else name_of(args, kwargs)
            stack = tracer._stack
            rec = [name, 0.0, 0.0, stack[-1] if stack else None, tracer.pass_id, 1, 0.0]
            stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            rec[START] = perf_counter()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                tracer._error(name, exc)
                raise
            finally:
                rec[END] = perf_counter()
                rec[BUSY] = rec[END] - rec[START]
                stack.pop()

        return wrapper

    def aggregated(self, name_of, fn):
        """Wrap a hot leaf: calls under one parent span share one counted span."""
        tracer = self

        def wrapper(*args, **kwargs):
            name = name_of if isinstance(name_of, str) else name_of(args, kwargs)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                tracer._error(name, exc)
                raise
            finally:
                t1 = perf_counter()
                parent = tracer._stack[-1] if tracer._stack else None
                key = (parent, name, tracer.pass_id)
                idx = tracer._aggregates.get(key)
                if idx is None:
                    tracer._aggregates[key] = len(tracer.spans)
                    tracer.spans.append([name, t0, t1, parent, tracer.pass_id, 1, t1 - t0])
                else:
                    rec = tracer.spans[idx]
                    rec[END] = t1
                    rec[COUNT] += 1
                    rec[BUSY] += t1 - t0

        return wrapper

    def records(self) -> list[dict]:
        """Spans as dicts, for writing out once the run has ended."""
        keys = ("name", "start", "end", "parent", "pass", "count", "busy")
        return [dict(zip(keys, rec), id=i) for i, rec in enumerate(self.spans)]


class Patches:
    """Attribute and dict-item replacements, undone in reverse order."""

    def __init__(self) -> None:
        self._undo: list[tuple] = []

    def set_attr(self, obj, attr: str, value) -> None:
        self._undo.append((setattr, obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def set_item(self, mapping: dict, key, value) -> None:
        self._undo.append((dict.__setitem__, mapping, key, mapping[key]))
        mapping[key] = value

    def everywhere(self, module_name: str, attr: str, make_wrapper) -> None:
        """Replace ``unambig.<module_name>.<attr>`` under every name bound to it."""
        original = getattr(sys.modules[f"unambig.{module_name}"], attr)
        wrapper = make_wrapper(original)
        for mod in program_modules():
            for name, value in list(vars(mod).items()):
                if value is original:
                    self.set_attr(mod, name, wrapper)
                elif type(value) is dict:
                    for key, item in list(value.items()):
                        if item is original:
                            self.set_item(value, key, wrapper)

    def restore(self) -> None:
        while self._undo:
            put, obj, key, value = self._undo.pop()
            put(obj, key, value)


def program_modules() -> list:
    return [m for n, m in list(sys.modules.items()) if n == "unambig" or n.startswith("unambig.")]


def _counted_problem(tracer: Tracer, problem):
    feasible, objective = problem.feasible, problem.objective

    def counted_feasible(lams):
        mask = feasible(lams)
        tracer.count("optimizer.candidates", len(lams))
        tracer.count("optimizer.feasible", int(np.count_nonzero(mask)))
        return mask

    def counted_objective(lams, adversary):
        tracer.count("optimizer.objective_cells", len(lams) * (1 if adversary is None else len(adversary)))
        return objective(lams, adversary)

    return dataclasses.replace(problem, feasible=counted_feasible, objective=counted_objective)


def install(tracer: Tracer) -> Patches:
    """Wrap every traced public function of the imported unambig modules."""
    import unambig.cli  # noqa: F401  (imports every traced module)

    patches = Patches()
    try:
        for module, attr, name in SPANNED:
            patches.everywhere(module, attr, lambda fn, name=name: tracer.spanned(name, fn))
        for module, attr, name in AGGREGATED:
            patches.everywhere(module, attr, lambda fn, name=name: tracer.aggregated(name, fn))
        strategies = sys.modules["unambig.strategies"]
        for attr in sorted({fn.__name__ for fn in strategies.SURFACES.values()} | set(EXTRA_SURFACES)):
            patches.everywhere("strategies", attr, lambda fn: tracer.aggregated("strategies.surface", fn))

        def counting_run(fn):
            def run(config):
                tracer.count("simulate.shots", config.shots)
                return fn(config)
            return run

        patches.everywhere("simulate", "run", counting_run)
        patches.everywhere(
            "optimizer", "case_problem",
            lambda fn: lambda *a, **k: _counted_problem(tracer, fn(*a, **k)),
        )
    except BaseException:
        patches.restore()
        raise
    return patches


def _quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile; 0 when there are no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def layer_metrics(tracer: Tracer, pass_id: int) -> dict[str, float]:
    """The span- and counter-derived per-layer metrics of one traced pass."""
    recs = [(i, r) for i, r in enumerate(tracer.spans) if r[PASS] == pass_id]
    child_busy: defaultdict = defaultdict(float)
    for _, r in recs:
        if r[PARENT] is not None:
            child_busy[r[PARENT]] += r[BUSY]
    busy: defaultdict = defaultdict(float)
    self_s: defaultdict = defaultdict(float)
    calls: Counter = Counter()
    durations: defaultdict = defaultdict(list)
    for i, r in recs:
        name = r[NAME]
        busy[name] += r[BUSY]
        self_s[name] += r[BUSY] - child_busy[i]
        calls[name] += r[COUNT]
        durations[name].append(r[BUSY])
    counts = {name: n for (p, name), n in tracer.counts.items() if p == pass_id}
    solve_ms = [d * 1e3 for d in durations["optimizer.solve"]]
    sp_us = [d * 1e6 for d in durations["strategies.success_probability"]]
    candidates = counts.get("optimizer.candidates", 0)
    sample_s = self_s["simulate.run"]

    m = {
        "cli.sweep.self_s": self_s["cli.sweep"],
        "optimizer.solve.calls": calls["optimizer.solve"],
        "optimizer.solve.busy_s": busy["optimizer.solve"],
        "optimizer.solve.ms.p50": _quantile(solve_ms, 0.50),
        "optimizer.solve.ms.p99": _quantile(solve_ms, 0.99),
        "optimizer.candidates": candidates,
        "optimizer.feasible_ratio": counts.get("optimizer.feasible", 0) / candidates if candidates else 0.0,
        "optimizer.objective_cells": counts.get("optimizer.objective_cells", 0),
        "strategies.surface.calls": calls["strategies.surface"],
        "strategies.surface.busy_s": busy["strategies.surface"],
        "strategies.success_probability.calls": calls["strategies.success_probability"],
        "strategies.success_probability.busy_s": busy["strategies.success_probability"],
        "strategies.success_probability.us.p50": _quantile(sp_us, 0.50),
        "strategies.success_probability.us.p99": _quantile(sp_us, 0.99),
        "povm.validate.calls": calls["povm.validate"],
        "povm.validate.busy_s": busy["povm.validate"],
        "povm.success_probabilities.busy_s": busy["povm.success_probabilities"],
        "linalg.kron.calls": calls["linalg.kron"],
        "linalg.kron.busy_s": busy["linalg.kron"],
        "states.pair_with_overlap.calls": calls["states.pair_with_overlap"],
        "states.pair_with_overlap.busy_s": busy["states.pair_with_overlap"],
        "simulate.outcome_probabilities.busy_s": busy["simulate.outcome_probabilities"],
        "simulate.sample.self_s": sample_s,
        "simulate.shots_per_s": counts.get("simulate.shots", 0) / sample_s if sample_s > 0 else 0.0,
    }
    for label in CASE_LABELS:
        m[f"optimizer.verify_case.{label}.busy_s"] = busy[f"optimizer.verify_case.{label}"]
    for family in FAMILIES:
        m[f"povm.build.{family}.calls"] = calls[f"povm.build.{family}"]
        m[f"povm.build.{family}.busy_s"] = busy[f"povm.build.{family}"]
    for n in EIG_SIZES:
        m[f"linalg.eigvalsh.n{n}.calls"] = calls[f"linalg.eigvalsh.n{n}"]
        m[f"linalg.eigvalsh.n{n}.busy_s"] = busy[f"linalg.eigvalsh.n{n}"]
    for layer in LAYERS:
        m[f"{layer}.errors"] = tracer.errors[(pass_id, layer)]
    return m
