"""
Tensor ideal norms and the two-sided factorization they control
===============================================================

A finite tensor u = sum x_i (x) y_i carries a searched pairing norm theta.
Factoring the induced operator through a constructed middle lattice splits
theta into a convexity constant times a concavity constant; the product
tracks the searched value.
"""

import math

import numpy as np

import latticelab as ll

# one elementary tensor: theta collapses to the product of the two norms
x, y = np.array([3.0, 4.0]), np.array([1.0, 2.0, 2.0])
rep1 = ll.TensorRep(((tuple(x), tuple(y)),), 2.0, math.inf, 2.0, 1.0)
th = ll.theta_lower(rep1, ll.Lp(2.0), ll.Lp(2.0), budget=300, seed=0)
print("single pair:", th.value, "= 5 * 3 =", 5.0 * 3.0, f"({th.side})")

rng = np.random.default_rng(11)
pairs = tuple((tuple(rng.standard_normal(2)), tuple(rng.standard_normal(2)))
              for _ in range(2))
rep2 = ll.TensorRep(pairs, 2.0, math.inf, 2.0, 1.0)

out = ll.build_eta_factorization(rep2, ll.Lp(2.0), ll.Lp(2.0),
                                 trunc_len=3, budget=1500, seed=0)
kR, kS = out["product_bound"]
print("\ntwo-pair representation, factored through a gauge lattice:")
print(f"  K(R) = {kR:.6f}   K(S) = {kS:.6f}   product = {kR * kS:.6f}")
print(f"  searched theta = {out['theta']:.6f}")

# a diagonal multiplier from a weak-type space into l_2 is the model case:
# its operator norm already controls both of its block constants
src = ll.NormedLattice(4, ll.WeightedLorentzPInfty(3.0, 1,
                                                   ll.AtomicMeasure.counting(4)))
tgt = ll.NormedLattice(4, ll.Lp(2.0))
g = rng.uniform(0.2, 1.5, size=4)
mrep = ll.multiplication_operator_check(g, src, tgt, budget=400, seed=1)
print("\ndiagonal multiplier check:")
print(f"  ||D|| = {mrep['norm_D']:.6f}")
print(f"  convex block constant  = {mrep['K_convex']:.6f}  ok: {mrep['convex_ok']}")
print(f"  concave block constant = {mrep['K_concave']:.6f}  ok: {mrep['concave_ok']}")
