"""Independent reference computations for the benchmark's output checks.

Nothing here imports latticelab: every value is computed from the textbook
definition or from a closed form proved elsewhere, so a check that compares
latticelab against these functions compares two separate derivations.

Conventions: ``w`` holds strictly positive atom weights, ``mu(A)`` is the sum
of the weights of the atom set A, and vectors are 1-d float arrays.

* ``brute_*`` functions enumerate every nonempty atom subset (at most
  ``BRUTE_MAX_ATOMS`` atoms), or for the ``q,1``-norm every distinct level of
  ``|f|``; they exist to test the closed forms.
* The closed forms scan prefixes of one sorted order:
  - the ``[r]``-norm ``sup_A mu(A)^(1/p-1/r) (int_A |f|^r)^(1/r)`` is attained
    at a superlevel set of ``|f|``;
  - the ``[1]``-dual ball ``{v >= 0 : v(A) <= mu(A)^(1/p*)}`` (``v = w u``) is a
    polymatroid, so Edmonds' greedy in the order ``|b_i|/w_i`` solves its LP
    (Edmonds 1970);
  - the ``q,1``-dual ``max_A sum_A |b| / (q mu(A)^(1/q))`` is attained at a
    prefix of the same order.
* ``gauge_dual_lp`` is the LP dual of the gauge of a solid convex body.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import linprog

BRUTE_MAX_ATOMS = 12


def conjugate(p: float) -> float:
    if p == 1:
        return math.inf
    if p == math.inf:
        return 1.0
    return p / (p - 1.0)


def lp_norm(x, p: float) -> float:
    a = np.abs(np.asarray(x, dtype=float))
    if p == math.inf:
        return float(a.max()) if a.size else 0.0
    return float(np.sum(a ** p) ** (1.0 / p))


def subset_masks(n: int) -> np.ndarray:
    """Indicator rows of all nonempty subsets of n atoms (n <= 12)."""
    if not 1 <= n <= BRUTE_MAX_ATOMS:
        raise ValueError(f"brute force needs 1 <= n <= {BRUTE_MAX_ATOMS}, got {n}")
    idx = np.arange(1, 1 << n)
    return ((idx[:, None] >> np.arange(n)) & 1).astype(float)


# ---------------------------------------------------------------------------
# brute force


def brute_norm_pinfty_r(f, w, p: float, r: float) -> float:
    a, w = np.abs(np.asarray(f, dtype=float)), np.asarray(w, dtype=float)
    masks = subset_masks(a.size)
    mass = masks @ w
    integ = masks @ (w * a ** r)
    return float(np.max(mass ** (1.0 / p - 1.0 / r) * integ ** (1.0 / r)))


def brute_quasinorm_pinfty(f, w, p: float) -> float:
    """sup_A mu(A)^(1/p) min_{i in A} |f_i|."""
    a, w = np.abs(np.asarray(f, dtype=float)), np.asarray(w, dtype=float)
    masks = subset_masks(a.size)
    mins = np.min(np.where(masks > 0, a, np.inf), axis=1)
    return float(np.max((masks @ w) ** (1.0 / p) * mins))


def brute_dual_pinfty_1(b, w, p: float) -> float:
    """The [1]-dual as the full LP with one row per atom subset."""
    a, w = np.abs(np.asarray(b, dtype=float)), np.asarray(w, dtype=float)
    masks = subset_masks(a.size)
    rhs = (masks @ w) ** (1.0 - 1.0 / p)
    res = linprog(-a, A_ub=masks * w, b_ub=rhs, bounds=[(0, None)] * a.size,
                  method="highs")
    if res.status != 0:
        raise RuntimeError(f"brute [1]-dual LP failed: {res.message}")
    return float(-res.fun)


def brute_dual_q1(b, w, q: float) -> float:
    a, w = np.abs(np.asarray(b, dtype=float)), np.asarray(w, dtype=float)
    masks = subset_masks(a.size)
    return float(np.max((masks @ a) / (q * (masks @ w) ** (1.0 / q))))


def brute_norm_q1(f, w, q: float) -> float:
    """Layer cake over the distinct nonzero levels v_1 > v_2 > ... of |f|:
    q sum_k v_k (T_k^(1/q) - T_{k-1}^(1/q)) with T_k = mu{|f| >= v_k}, so no
    order among tied atoms enters."""
    a, w = np.abs(np.asarray(f, dtype=float)), np.asarray(w, dtype=float)
    levels = np.unique(a[a > 0])[::-1]
    T = np.array([w[a >= v].sum() for v in levels])
    prev = np.concatenate([[0.0], T[:-1]])
    return float(q * np.sum(levels * (T ** (1.0 / q) - prev ** (1.0 / q))))


# ---------------------------------------------------------------------------
# closed forms


def _prefix(keys, w):
    order = np.argsort(-keys, kind="stable")
    return order, np.cumsum(w[order])


def norm_pinfty_r(f, w, p: float, r: float) -> float:
    """[r]-norm by the superlevel-set scan of |f|."""
    a, w = np.abs(np.asarray(f, dtype=float)), np.asarray(w, dtype=float)
    if not np.any(a > 0):
        return 0.0
    order, mass = _prefix(a, w)
    integ = np.cumsum((w * a ** r)[order])
    return float(np.max(mass ** (1.0 / p - 1.0 / r) * integ ** (1.0 / r)))


def quasinorm_pinfty(f, w, p: float) -> float:
    """sup_t t^(1/p) f*(t): every prefix of the decreasing order of |f|."""
    a, w = np.abs(np.asarray(f, dtype=float)), np.asarray(w, dtype=float)
    if not np.any(a > 0):
        return 0.0
    order, mass = _prefix(a, w)
    return float(np.max(mass ** (1.0 / p) * a[order]))


def norm_q1(f, w, q: float) -> float:
    """q sum_k |f|_(k) (M_k^(1/q) - M_{k-1}^(1/q)) over the decreasing order."""
    a, w = np.abs(np.asarray(f, dtype=float)), np.asarray(w, dtype=float)
    order, mass = _prefix(a, w)
    prev = np.concatenate([[0.0], mass[:-1]])
    return float(q * np.sum(a[order] * (mass ** (1.0 / q) - prev ** (1.0 / q))))


def dual_pinfty_1(b, w, p: float) -> tuple:
    """Edmonds' greedy for the [1]-dual: (value, witness x with <x, b> = value)."""
    b, w = np.asarray(b, dtype=float), np.asarray(w, dtype=float)
    a = np.abs(b)
    order, mass = _prefix(a / w, w)
    g = mass ** (1.0 - 1.0 / p)
    v = np.diff(np.concatenate([[0.0], g]))
    u = np.zeros_like(a)
    u[order] = v / w[order]
    x = np.where(b < 0, -1.0, 1.0) * u
    return float(a @ u), x


def dual_q1(b, w, q: float) -> float:
    """q,1-dual by the prefix scan in the order |b_i|/w_i."""
    a, w = np.abs(np.asarray(b, dtype=float)), np.asarray(w, dtype=float)
    order, mass = _prefix(a / w, w)
    return float(np.max(np.cumsum(a[order]) / (q * mass ** (1.0 / q))))


def holder_dual_bound_pinfty(b, w, p: float, r: float) -> float:
    """Upper bound on the [r]-dual norm of b (r > 1) from Hoelder on S = supp b:
    <x, b> <= (int_S |x|^r)^(1/r) (int_S |b/w|^r*)^(1/r*)
           <= ||x||_[r] mu(S)^(1/r - 1/p) (int_S |b/w|^r*)^(1/r*)."""
    b, w = np.asarray(b, dtype=float), np.asarray(w, dtype=float)
    s = b != 0
    if not np.any(s):
        return 0.0
    rs = conjugate(r)
    dens = np.abs(b[s]) / w[s]
    return float(w[s].sum() ** (1.0 / r - 1.0 / p)
                 * np.sum(w[s] * dens ** rs) ** (1.0 / rs))


def gauge_dual_lp(G, y) -> float:
    """Gauge of the solid hull of the rows of |G| at y, as the dual LP
    max <|y|, z> s.t. |G| z <= 1, z >= 0 (inf when unbounded)."""
    G = np.abs(np.asarray(G, dtype=float))
    a = np.abs(np.asarray(y, dtype=float))
    if not np.any(a > 0):
        return 0.0
    res = linprog(-a, A_ub=G, b_ub=np.ones(G.shape[0]),
                  bounds=[(0, None)] * a.size, method="highs")
    if res.status == 3:
        return math.inf
    if res.status != 0:
        raise RuntimeError(f"dual gauge LP failed: {res.message}")
    return float(-res.fun)
