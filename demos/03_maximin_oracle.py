"""Cross-check the closed-form strategies against a derivative-free maximin search.

The oracle knows nothing about the derivations: it grid-searches the
coefficient box (with boundary projection), minimizes over the vertices
of the unknown parameters' box (every objective is multi-affine in
1 - beta^2 and eta1, so a vertex is always worst), breaks ties by the
objective at the mean point of a 0.01 adversary grid, and refines locally.
"""

import math

from unambig import KnowledgeCase, Regime, case_problem, solve_maximin, verify_case

# no prior, one state known: the equalizer solution and its value
res = solve_maximin(case_problem(KnowledgeCase(Regime.B2, 2)))[0]
print("b2 oracle coefficients :", tuple(round(x, 4) for x in res.lambda_star))
print("   expected            :", tuple(round(x, 4) for x in (3 - math.sqrt(5), (3 - math.sqrt(5)) / 2, 1.0)))
print(f"   worst-case value    : {res.value:.5f} (expected {(3 - math.sqrt(5)) / 2:.5f})")

# both states known, no prior: worst-case value is 1 - beta
for beta in (0.2, 0.5, 0.8):
    res = solve_maximin(case_problem(KnowledgeCase(Regime.B4, 2), beta=beta))[0]
    print(f"b4 at beta={beta}: value {res.value:.5f} vs 1-beta = {1 - beta:.5f}")

# full-surface comparison for one case
rep = verify_case(KnowledgeCase(Regime.A4, 2), grid_step=0.1, resolution=1e-3)
print(f"\na4 closed form vs oracle over an 11x11 grid: max deviation {rep.max_deviation:.2e} "
      f"at (beta, eta1) = {rep.worst_point}")

# the corrected two-unknown-qutrits region: equal coefficients live on a simplex
res = solve_maximin(case_problem(KnowledgeCase(Regime.B1, 3), beta=0.0))[0]
print(f"\nb1 qutrit oracle: lam = {tuple(round(x, 3) for x in res.lambda_star)}, value {res.value:.4f}")
print("   (the per-index qubit-style bound would allow 2/3 each, which is not a measurement;")
print("    the corrected constraint lam1 + lam2 <= 1 gives the 1/2-1/2 equalizer and value 1/4)")
