"""Embeddability certificates for sup-sums of weak-L_p.

A lattice X embeds C-isomorphically into an l_inf-sum of weak-L_p spaces
exactly when, for every normalized a >= 0, there are b in X*_+ and a simplex
vector d with <a, b> close to 1 and, for every coordinate subset I,
||b restricted to I||^{p*} <= C^{p*} sum_{i in I} d_i.  The certificate side
is searched (one-sided); refutations come from the covering-family bound,
which is a genuine lower bound on any embedding constant.  The dual norms of
the 2^n - 1 restrictions of b are one ``dual_rows`` call on its masked copies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

from ._util import TOLERANCES, conjugate, hill_climb, rng_for
from .core import (
    NormedLattice,
    NormSpec,
    _vector_in,
    as_vector,
    eval_norm,
    norming_functional,
)
from .lorentz import subset_mask_chunks

__all__ = [
    "EmbeddingCertificate",
    "CoveringFamily",
    "t41_check",
    "validate_certificate",
    "c42_bound",
    "reproduce_example54",
]

MAX_SUBSET_DIM = 12  # 2^n - 1 subset constraints are enumerated exactly

_LP_OPTS = {"primal_feasibility_tolerance": 1e-10,
            "dual_feasibility_tolerance": 1e-10}


def _subset_masks(n: int) -> np.ndarray:
    if n > MAX_SUBSET_DIM:
        raise ValueError(f"dimension {n} exceeds the subset-enumeration cap {MAX_SUBSET_DIM}")
    return np.vstack(list(subset_mask_chunks(n)))


@dataclass(frozen=True)
class EmbeddingCertificate:
    """Witness for the subset condition; validates itself on construction."""

    C: float
    a: tuple
    b: tuple
    d: tuple
    epsilon: float
    subset_margins: tuple  # ((coordinate indices), margin) per nonempty subset

    def __post_init__(self):
        d = np.array(self.d)
        if np.any(d < -1e-12) or abs(d.sum() - 1.0) > 1e-9:
            raise ValueError("d must lie in the probability simplex")
        if self.C < 1:
            raise ValueError("C must be at least 1")
        pairing = float(np.dot(self.a, self.b))
        if not pairing > 1 - self.epsilon:
            raise ValueError(f"pairing {pairing} does not exceed 1 - epsilon")
        worst = max(m for _, m in self.subset_margins)
        if worst > 1e-9:
            raise ValueError(f"subset margin {worst} exceeds tolerance")

    def as_dict(self) -> dict:
        return {
            "feasible": True,
            "C": self.C,
            "a": list(self.a),
            "b": list(self.b),
            "d": list(self.d),
            "epsilon": self.epsilon,
            "pairing": float(np.dot(self.a, self.b)),
            "subset_margins": [{"I": list(I), "margin": m} for I, m in self.subset_margins],
        }


@dataclass(frozen=True)
class CoveringFamily:
    """Subsets I_j of {0..n-1} covering every coordinate exactly l times."""

    sets: tuple
    l: int

    def __post_init__(self):
        sets = tuple(tuple(sorted(int(i) for i in s)) for s in self.sets)
        if not sets:
            raise ValueError("covering needs at least one set")
        for s in sets:
            if not s:
                raise ValueError("covering sets must be nonempty")
            if len(set(s)) != len(s):
                raise ValueError("covering sets may not repeat indices")
            if min(s) < 0:
                raise ValueError("covering indices must be nonnegative")
        if self.l < 1:
            raise ValueError("multiplicity must be a positive integer")
        object.__setattr__(self, "sets", sets)

    def check_against(self, dim: int):
        counts = np.zeros(dim)
        for s in self.sets:
            if max(s) >= dim:
                raise ValueError(f"covering index {max(s)} out of range for dimension {dim}")
            counts[list(s)] += 1
        if not np.all(counts == self.l):
            raise ValueError(f"covering multiplicities {counts.tolist()} != {self.l} everywhere")


def _best_scaling(norms_ps: np.ndarray, masks: np.ndarray):
    """max lambda with sum_{i in I} d_i >= lambda * ||b_I||^{p*} solvable on
    the simplex; one LP in (d, lambda)."""
    k, n = masks.shape[0], masks.shape[1]
    A_ub = np.hstack([-masks, norms_ps[:, None]])
    A_eq = np.concatenate([np.ones(n), [0.0]])[None, :]
    res = linprog(np.concatenate([np.zeros(n), [-1.0]]),
                  A_ub=A_ub, b_ub=np.zeros(k), A_eq=A_eq, b_eq=[1.0],
                  bounds=[(0, None)] * n + [(0, None)],
                  method="highs", options=_LP_OPTS)
    if res.status != 0:  # pragma: no cover - always feasible (lambda = 0)
        raise RuntimeError(f"scaling LP failed: {res.message}")
    d = np.maximum(res.x[:n], 0.0)
    s = d.sum()
    if s > 0:
        d = d / s
    return float(res.x[n]), d


def t41_check(X: NormedLattice, p: float, C: float, a, epsilon: float = 1e-3,
              budget: int = 2000, seed: int = 0):
    """Search for a certificate (b, d); returns one, or a report with the
    best pairing reached.  Failure to find is not a proof of infeasibility."""
    a = _vector_in(X, a)
    if np.any(a < 0):
        raise ValueError("a must be nonnegative")
    if C < 1:
        raise ValueError("C must be at least 1")
    na = eval_norm(X, a)
    if abs(na - 1.0) > 1e-6:
        raise ValueError(f"a must be normalized, got norm {na}")
    n = X.dim
    masks = _subset_masks(n)
    ps = conjugate(p)
    rng = rng_for(seed, "t41", n, p)

    def evaluate(direction):
        bdir = np.maximum(direction, 0.0)
        if not np.any(bdir > 0):
            return 0.0, None, None
        lam, d = _best_scaling(X.norm.dual_rows(bdir * masks) ** ps, masks)
        if lam <= 0:
            return 0.0, None, None
        t = C * lam ** (1.0 / ps)
        return t * float(a @ bdir), t * bdir, d

    starts = [np.abs(norming_functional(X, a)), a.copy(), np.ones(n)]
    starts += [np.eye(n)[i] for i in range(n)]
    starts += list(np.abs(rng.standard_normal((max(2, budget // 500), n))))
    best_val, best_dir = 0.0, None
    iters = max(10, budget // (20 * max(1, len(masks) // 7)))
    stop = 1 - 0.5 * epsilon  # certifies with headroom for the final shave
    for s0 in starts:
        direction, val = hill_climb(lambda v: evaluate(v)[0], s0, rng, iters,
                                    lambda v: np.maximum(v, 0.0), stop)
        if val > best_val:
            best_val, best_dir = val, direction
        if best_val > stop:
            break

    if best_dir is not None and best_val > 1 - epsilon:
        _, best_b, best_d = evaluate(best_dir)
        # shave a hair so re-validated margins clear the tolerance strictly
        b = best_b * (1 - 1e-12)
        margins = X.norm.dual_rows(b * masks) ** ps - C ** ps * (masks @ best_d)
        if np.max(margins) <= 1e-9 and float(a @ b) > 1 - epsilon:
            table = tuple((tuple(int(i) for i in np.flatnonzero(m)), float(mg))
                          for m, mg in zip(masks, margins))
            return EmbeddingCertificate(C, tuple(a), tuple(b), tuple(best_d),
                                        epsilon, table)
    return {"feasible": False, "C": C, "p": p, "epsilon": epsilon,
            "best_pairing": best_val}


def validate_certificate(cert: EmbeddingCertificate, X: NormedLattice, p: float,
                         C: float | None = None) -> dict:
    """Re-derive every certificate condition from scratch; C may be raised."""
    Cv = cert.C if C is None else C
    if Cv < cert.C:
        raise ValueError("certificates only transfer upward in C")
    a = np.array(cert.a)
    b = _vector_in(X, cert.b)
    d = np.array(cert.d)
    masks = _subset_masks(X.dim)
    ps = conjugate(p)
    margins = X.norm.dual_rows(b * masks) ** ps - Cv ** ps * (masks @ d)
    return {
        "C": Cv,
        "simplex_ok": bool(abs(d.sum() - 1) <= 1e-9 and np.all(d >= -1e-12)),
        "pairing": float(a @ b),
        "pairing_ok": bool(float(a @ b) > 1 - cert.epsilon),
        "max_margin": float(np.max(margins)),
        "margins_ok": bool(np.max(margins) <= 1e-9),
    }


def c42_bound(Xstar_norm: NormSpec, p: float, b, covering: CoveringFamily) -> float:
    """Certified lower bound (sum_j ||b_{I_j}||^{p*} / l)^{1/p*} <= C for any
    embedding constant C; b must be normalized in the dual norm."""
    b = as_vector(b)
    if np.any(b < 0):
        raise ValueError("b must be nonnegative")
    lat = NormedLattice(b.shape[0], Xstar_norm)
    nb = eval_norm(lat, b)
    if abs(nb - 1.0) > 1e-6:
        raise ValueError(f"b must be normalized in the dual norm, got {nb}")
    covering.check_against(b.shape[0])
    ps = conjugate(p)
    total = 0.0
    for s in covering.sets:
        mask = np.zeros(b.shape[0])
        mask[list(s)] = 1.0
        total += eval_norm(lat, b * mask) ** ps
    return (total / covering.l) ** (1.0 / ps)


def example54_bound_formula(p: float) -> float:
    """(3 * 2^{p*} / (2 (1 + 2^{p*})))^{1/p*}; exceeds 1 on all of (1, inf).
    Written as (1.5 / (1 + 2^{-p*}))^{1/p*} so large p* cannot overflow."""
    ps = conjugate(p)
    return (1.5 / (1.0 + 2.0 ** (-ps))) ** (1.0 / ps)


def reproduce_example54(p: float, budget: int = 3000, seed: int = 0, tol=TOLERANCES) -> dict:
    """Reproduces the three-dimensional counterexample bound: the dual norm
    has lower p*-estimate constant one, and the symmetric vector with the
    pair covering certifies an embedding constant strictly above one.
    Decided with ``tol["estimate-one"]`` and ``tol["bound-match"]``."""
    if not 1 < p < math.inf:
        raise ValueError(f"p must lie in (1, inf), got {p}")
    from .constants import LowerEstimate, estimate_constant, identity_operator
    from .core import Example54Dual

    ps = conjugate(p)
    Xstar = NormedLattice(3, Example54Dual(p))
    est = estimate_constant(identity_operator(Xstar), LowerEstimate(ps),
                            budget=budget, seed=seed)
    ones = np.ones(3)
    b = ones / eval_norm(Xstar, ones)
    covering = CoveringFamily(((0, 1), (0, 2), (1, 2)), 2)
    bound = c42_bound(Example54Dual(p), p, b, covering)
    formula = example54_bound_formula(p)
    report = {
        "p": p,
        "p_star": ps,
        "lower_estimate_constant": est.value,
        "lower_estimate_ok": bool(abs(est.value - 1.0) <= tol["estimate-one"]),
        "bound": bound,
        "bound_formula": formula,
        "bound_matches_formula": bool(abs(bound - formula) <= tol["bound-match"]),
        "exceeds_one": bool(bound > 1.0),
    }
    report["pass"] = bool(report["lower_estimate_ok"]
                          and report["bound_matches_formula"]
                          and report["exceeds_one"])
    return report
