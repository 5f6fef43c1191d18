"""Simulate the discrimination experiment shot by shot.

The two kinds of a priori knowledge enter the sampler separately: the
knowledge of the states fixes the measurement, and so its table of
outcome probabilities, and the preparation prior fixes how often each
row of that table is drawn.  Unambiguity shows up as an exactly zero
error count: the failure mode is the inconclusive outcome, never a
wrong identification.
"""

from unambig import (KnowledgeCase, Regime, SimConfig, optimal_lambda, outcome_probabilities, pair_with_overlap, run,
                     success_probability)

case = KnowledgeCase(Regime.A3, 2)
beta, eta1 = 0.6, 0.4
lam = optimal_lambda(case, beta=beta, eta1=eta1)
probs = outcome_probabilities(case, pair_with_overlap(case.dim, beta, eta1, seed=11), lam)

for shots in (1_000, 100_000, 10_000_000):
    report = run(SimConfig(probs, eta1, shots, seed=99))
    n1, n2, n0, nerr = report.counts
    print(f"shots {shots:>10,}: identified-1 {n1:>9,}  identified-2 {n2:>9,}  "
          f"inconclusive {n0:>9,}  errors {nerr}  ->  p = {report.estimated_success:.5f} "
          f"± {report.stderr:.5f}")

expected = success_probability(case, beta, eta1).p_analytic
print(f"analytic success probability: {expected:.5f}")

# the decision cannot depend on the prior in the B regimes, but the world still has one
case_b = KnowledgeCase(Regime.B3, 2)
lam_b = optimal_lambda(case_b, beta=beta)
for eta1_true in (0.1, 0.5, 0.9):
    probs = outcome_probabilities(case_b, pair_with_overlap(2, beta, eta1_true, seed=12), lam_b)
    report = run(SimConfig(probs, eta1_true, 1_000_000, seed=100))
    res = success_probability(case_b, beta, eta1_true)
    print(f"b3, true eta1={eta1_true}: measured {report.estimated_success:.4f}, "
          f"actual surface {res.p_analytic:.4f}, guaranteed worst case {res.worst_case_value:.4f}")
