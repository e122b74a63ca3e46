"""Tensor ideal norms and the factorization they induce.

theta of a representation u = sum x_i (x) y_i is a sup over two truncated
sequences of functionals; it is searched, so every reported value is a lower
bound.  The factorization routes u through an intermediate lattice Z on R^n
whose norm is the support function of a sampled body of evaluation vectors,
making the norm of Z itself one-sided in the same direction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._util import conjugate, lp_norm, rng_for
from .core import (
    ConstantEstimate,
    GaugeOf,
    LinOperator,
    NormedLattice,
    NormSpec,
    PredualOf,
    as_vector,
    eval_norm,
    norming_functional,
)

__all__ = [
    "TensorRep",
    "theta_lower",
    "theta_value",
    "build_eta_factorization",
    "multiplication_operator_check",
]


@dataclass(frozen=True)
class TensorRep:
    """u = sum_i x_i (x) y_i with the exponent record (p, p2, q, q2)."""

    pairs: tuple
    p: float
    p2: float
    q: float
    q2: float

    def __post_init__(self):
        pairs = tuple((tuple(float(v) for v in x), tuple(float(v) for v in y))
                      for x, y in self.pairs)
        if not pairs:
            raise ValueError("representation needs at least one pair")
        if len({len(x) for x, _ in pairs}) != 1 or len({len(y) for _, y in pairs}) != 1:
            raise ValueError("pair components must have consistent dimensions")
        if not 1 <= self.p < math.inf:
            raise ValueError(f"p must lie in [1, inf), got {self.p}")
        if self.p2 not in (self.p, math.inf):
            raise ValueError("p2 must be p or inf")
        if not 1 <= self.q < math.inf:
            raise ValueError(f"q must lie in [1, inf), got {self.q}")
        if self.q2 not in (1, 1.0, self.q):
            raise ValueError("q2 must be 1 or q")
        object.__setattr__(self, "pairs", pairs)

    @property
    def n(self) -> int:
        return len(self.pairs)

    @property
    def dim_E(self) -> int:
        return len(self.pairs[0][0])

    @property
    def dim_F(self) -> int:
        return len(self.pairs[0][1])

    def x_matrix(self) -> np.ndarray:
        return np.array([x for x, _ in self.pairs], dtype=float)

    def y_matrix(self) -> np.ndarray:
        return np.array([y for _, y in self.pairs], dtype=float)

    def to_dict(self) -> dict:
        return {
            "pairs": [{"x": list(x), "y": list(y)} for x, y in self.pairs],
            "exponents": {"p": self.p, "p2": self.p2, "q": self.q, "q2": self.q2},
        }


def _dual_norms(spec: NormSpec, rows: np.ndarray) -> np.ndarray:
    """Dual norms of functionals against an Lp-family primal norm."""
    from .core import Lp

    if not isinstance(spec, Lp):
        raise ValueError("functional sequence norms need an l_p family space")
    return lp_norm(rows, conjugate(spec.p), axis=1)


def theta_value(rep: TensorRep, E_norm: NormSpec, F_norm: NormSpec,
                xstars, ystars) -> float:
    """The theta objective at explicit functional sequences, normalized by
    their l_p(E*) and l_{q*}(F*) sequence norms."""
    Xs = np.atleast_2d(np.asarray(xstars, dtype=float))
    Ys = np.atleast_2d(np.asarray(ystars, dtype=float))
    nx = lp_norm(_dual_norms(E_norm, Xs), rep.p, axis=0)
    ny = lp_norm(_dual_norms(F_norm, Ys), conjugate(rep.q), axis=0)
    if nx <= 0 or ny <= 0:
        return 0.0
    ex = Xs @ rep.x_matrix().T          # (L, n) evaluations x*_k(x_i)
    ey = Ys @ rep.y_matrix().T
    left = lp_norm(ex, rep.p2, axis=0)
    right = lp_norm(ey, conjugate(rep.q2), axis=0)
    return float(np.sum(left * right) / (nx * ny))


def theta_lower(rep: TensorRep, E_norm: NormSpec, F_norm: NormSpec,
                trunc_len: int = 2, budget: int = 2000, seed: int = 0,
                starts=None) -> ConstantEstimate:
    """Searched lower bound for theta with functional sequences truncated to
    trunc_len; exact closed form for a single pair (concentration is optimal
    because p2 >= p and q2* >= q*). `starts` adds warm (xs, ys) row-stacks,
    padded or cut to the truncation length."""
    if trunc_len < 1:
        raise ValueError("truncation length must be at least 1")
    E = NormedLattice(rep.dim_E, E_norm)
    F = NormedLattice(rep.dim_F, F_norm)
    if rep.n == 1:
        x, y = (np.array(rep.pairs[0][0]), np.array(rep.pairs[0][1]))
        val = eval_norm(E, x) * eval_norm(F, y)
        if val == 0:
            return ConstantEstimate(0.0, "exact", None, budget, seed)
        wx = norming_functional(E, x)
        wy = norming_functional(F, y)
        wit = (np.stack([wx] + [np.zeros_like(wx)] * (trunc_len - 1)),
               np.stack([wy] + [np.zeros_like(wy)] * (trunc_len - 1)))
        return ConstantEstimate(val, "exact", wit, budget, seed)

    rng = rng_for(seed, "theta", rep.n, rep.dim_E, rep.dim_F, trunc_len)
    L = trunc_len
    start_list = []
    for i in range(rep.n):
        x, y = np.array(rep.pairs[i][0]), np.array(rep.pairs[i][1])
        if np.any(x != 0) and np.any(y != 0):
            sx = np.zeros((L, rep.dim_E))
            sy = np.zeros((L, rep.dim_F))
            sx[0] = norming_functional(E, x)
            sy[0] = norming_functional(F, y)
            start_list.append((sx, sy))
    for sx0, sy0 in starts or ():
        sx = np.zeros((L, rep.dim_E))
        sy = np.zeros((L, rep.dim_F))
        sx0 = np.atleast_2d(np.asarray(sx0, dtype=float))
        sy0 = np.atleast_2d(np.asarray(sy0, dtype=float))
        sx[:min(L, sx0.shape[0])] = sx0[:L]
        sy[:min(L, sy0.shape[0])] = sy0[:L]
        start_list.append((sx, sy))
    n_rand = max(3, budget // 400)
    for _ in range(n_rand):
        start_list.append((rng.standard_normal((L, rep.dim_E)),
                           rng.standard_normal((L, rep.dim_F))))
    best, best_wit = 0.0, None
    iters = max(20, budget // (4 * max(1, len(start_list))))
    for sx, sy in start_list:
        cur = (sx.copy(), sy.copy())
        val = theta_value(rep, E_norm, F_norm, *cur)
        step = 0.5
        for _ in range(iters):
            prop = (cur[0] + step * rng.standard_normal(cur[0].shape),
                    cur[1] + step * rng.standard_normal(cur[1].shape))
            v2 = theta_value(rep, E_norm, F_norm, *prop)
            if v2 > val:
                val, cur = v2, prop
            else:
                step = max(step * 0.85, 0.03)
        if val > best:
            best, best_wit = val, cur
    wit = None
    if best_wit is not None:
        nx = lp_norm(_dual_norms(E_norm, best_wit[0]), rep.p, axis=0)
        ny = lp_norm(_dual_norms(F_norm, best_wit[1]), conjugate(rep.q), axis=0)
        wit = (best_wit[0] / nx, best_wit[1] / ny)
    return ConstantEstimate(best, "lower", wit, budget, seed)


# ---------------------------------------------------------------------------
# factorization


def _w_generator(rep: TensorRep, F_norm: NormSpec, ys_rows: np.ndarray):
    """w_i = (sum_j |y*_j(y_i)|^{q2*})^{1/q2*} for the normalized sequence."""
    norms = _dual_norms(F_norm, ys_rows)
    total = lp_norm(norms, conjugate(rep.q), axis=0)
    if total <= 0:
        return None
    ev = ys_rows @ rep.y_matrix().T
    return lp_norm(ev, conjugate(rep.q2), axis=0) / total


def _evaluation_body(rep: TensorRep, F_norm: NormSpec, trunc_len: int,
                     budget: int, seed: int):
    """Generators w over sampled normalized y*-sequences; the Z-norm is the
    support function of their solid convex hull (an inner approximation, so
    the norm is one-sided low)."""
    from .convexgeom import SolidConvexBody, _prune_generators

    F = NormedLattice(rep.dim_F, F_norm)
    Y = rep.y_matrix()
    rng = rng_for(seed, "etabody", rep.n, rep.dim_F, trunc_len)

    gens = []
    for i in range(rep.n):
        y = Y[i]
        if np.any(y != 0):
            rows = np.zeros((trunc_len, rep.dim_F))
            rows[0] = norming_functional(F, y)
            w = _w_generator(rep, F_norm, rows)
            if w is not None:
                gens.append(w)
    for _ in range(max(40, budget // 10)):
        rows = rng.standard_normal((int(rng.integers(1, trunc_len + 1)), rep.dim_F))
        w = _w_generator(rep, F_norm, rows)
        if w is not None:
            gens.append(w)
    if not gens:
        gens = [np.zeros(rep.n)]
    return SolidConvexBody(tuple(map(tuple, _prune_generators(np.array(gens)))))


def _maximize_w(rep: TensorRep, F_norm: NormSpec, v: np.ndarray,
                trunc_len: int, budget: int, seed: int):
    """Hill-climbed y*-sequence whose generator best supports direction v;
    tightens the sampled Z norm exactly where an estimate needed it."""
    F = NormedLattice(rep.dim_F, F_norm)
    rng = rng_for(seed, "etaenrich", rep.n, rep.dim_F, trunc_len)
    L = max(1, trunc_len)
    base = np.zeros((L, rep.dim_F))
    for i in range(min(rep.n, L)):
        y = np.array(rep.pairs[i][1])
        if np.any(y != 0):
            base[i] = norming_functional(F, y)
    starts = [base] + [rng.standard_normal((L, rep.dim_F)) for _ in range(4)]
    best_val, best_w = -1.0, None
    iters = max(40, budget // len(starts))
    for s0 in starts:
        cur = s0.copy()
        w = _w_generator(rep, F_norm, cur)
        val = -1.0 if w is None else float(np.dot(v, w))
        step = 0.5
        for _ in range(iters):
            prop = cur + step * rng.standard_normal(cur.shape)
            w2 = _w_generator(rep, F_norm, prop)
            v2 = -1.0 if w2 is None else float(np.dot(v, w2))
            if v2 > val:
                val, cur = v2, prop
            else:
                step = max(step * 0.85, 0.03)
        if val > best_val:
            w_fin = _w_generator(rep, F_norm, cur)
            if w_fin is not None:
                best_val, best_w = val, w_fin
    return best_w


def build_eta_factorization(rep: TensorRep, E_norm: NormSpec, F_norm: NormSpec,
                            trunc_len: int = 2, budget: int = 2000, seed: int = 0) -> dict:
    """u = S o R through Z = (R^n, support function of the evaluation body);
    R rows are the functionals x_i, S columns are the vectors y_i."""
    from .constants import Concave, Convex, estimate_constant

    E = NormedLattice(rep.dim_E, E_norm)
    F = NormedLattice(rep.dim_F, F_norm)
    body = _evaluation_body(rep, F_norm, trunc_len, budget, seed)
    degenerate = not np.any(body.gen_matrix > 0)
    if degenerate:
        # u = 0: route through a trivial max-norm copy instead
        Z = NormedLattice(rep.n, PredualOf(GaugeOf(type(body)(
            (tuple(1.0 for _ in range(rep.n)),)))))
    else:
        Z = NormedLattice(rep.n, PredualOf(GaugeOf(body)))
    R = LinOperator(rep.x_matrix(), E, Z)
    S = LinOperator(rep.y_matrix().T, Z, F)
    u_matrix = S.matrix @ R.matrix
    basis_exact = bool(np.array_equal(u_matrix, rep.y_matrix().T @ rep.x_matrix()))

    est_budget = max(200, budget // 4)
    est_S = estimate_constant(S, Concave(rep.q, rep.q2), budget=est_budget, seed=seed)
    # the sampled Z ball can sit strictly inside the true one, which inflates
    # the concavity estimate past its exact value 1; grow the body against
    # the witness families until the estimate settles
    from .convexgeom import SolidConvexBody

    for round_ in range(3):
        if degenerate or est_S.value <= 1 + 5e-3 or not est_S.witness:
            break
        fam = np.stack([as_vector(w) for w in est_S.witness])
        v = lp_norm(fam, rep.q2, axis=0)
        w_new = _maximize_w(rep, F_norm, v, trunc_len, est_budget,
                            seed + 7 * round_ + 1)
        if w_new is None or not np.any(w_new > 0):
            break
        body = SolidConvexBody(tuple(map(tuple, np.vstack([body.gen_matrix,
                                                           np.abs(w_new)]))))
        Z = NormedLattice(rep.n, PredualOf(GaugeOf(body)))
        R = LinOperator(rep.x_matrix(), E, Z)
        S = LinOperator(rep.y_matrix().T, Z, F)
        est_S = estimate_constant(S, Concave(rep.q, rep.q2), budget=est_budget, seed=seed)

    est_R = estimate_constant(R, Convex(rep.p, rep.p2), budget=est_budget, seed=seed)
    # the x_i act as functionals here, so the matching theta lives on the
    # dual pairing: its probe sequences range over E itself, which means
    # handing theta_lower the dual exponent on the first slot. Seed the
    # search with the convexity witness family so both sides of the
    # product-vs-theta comparison explore the same optimum
    from .core import dual_lattice

    warm = []
    if est_R.witness:
        ru = np.stack([as_vector(w) for w in est_R.witness])
        yn = np.stack([norming_functional(F, np.array(y)) if np.any(np.array(y) != 0)
                       else np.zeros(rep.dim_F) for _, y in rep.pairs])
        warm.append((ru, yn))
    L_theta = max(trunc_len, rep.n, len(est_R.witness or ()))
    theta = theta_lower(rep, dual_lattice(E).norm, F_norm, L_theta,
                        budget=max(400, budget // 2), seed=seed, starts=warm)
    oracle_scale = rep.dim_E <= 3 and rep.dim_F <= 3 and rep.n <= 3
    product = est_R.value * est_S.value
    report = {
        "Z": Z,
        "R": R,
        "S": S,
        "u_matrix": u_matrix,
        "composition_exact": basis_exact,
        "product_bound": (est_R.value, est_S.value),
        "theta": theta.value,
        "oracle_scale": oracle_scale,
        "product_ok": bool(product <= theta.value + 5e-2) if oracle_scale else True,
    }
    return report


# ---------------------------------------------------------------------------
# multiplication operators


def multiplication_operator_check(g, source: NormedLattice, target: NormedLattice,
                                  budget: int = 2000, seed: int = 0) -> dict:
    """Diagonal operator x -> g * x; its (p, inf)-convexity and (q, q2)
    concavity constants should not beat the operator norm (families gain
    nothing over the best single direction)."""
    from .constants import Concave, Convex, estimate_constant
    from .core import Lp, WeightedLorentzPInfty, WeightedLorentzQ1

    g = as_vector(g)
    if np.any(g < 0):
        raise ValueError("multiplier must be nonnegative")
    if g.shape[0] != source.dim or source.dim != target.dim:
        raise ValueError("dimension mismatch")
    if not isinstance(source.norm, WeightedLorentzPInfty) or source.norm.r != 1:
        raise ValueError("source must carry a [1]-renormed weak-L_p norm")
    if not isinstance(target.norm, (Lp, WeightedLorentzQ1)):
        raise ValueError("target must be an L_q or Lorentz q,1 space")
    p = source.norm.p
    q = target.norm.p if isinstance(target.norm, Lp) else target.norm.q
    D = LinOperator(np.diag(g), source, target)
    if not np.any(g > 0):
        return {"norm_D": 0.0, "K_convex": 0.0, "K_concave": 0.0,
                "convex_ok": True, "concave_ok": True, "pass": True}

    est_cx = estimate_constant(D, Convex(p, math.inf), budget=budget, seed=seed)
    est_cc = estimate_constant(D, Concave(q, 1), budget=budget, seed=seed)

    # operator norm by direction search, warmstarted from the witnesses
    rng = rng_for(seed, "multnorm", source.dim)
    cands = [np.ones(source.dim)] + [np.eye(source.dim)[i] for i in range(source.dim)]
    for est in (est_cx, est_cc):
        for w in est.witness or ():
            w = np.asarray(w)
            if np.any(w != 0):
                cands.append(w)
    cands += list(rng.standard_normal((32, source.dim)))

    def op_ratio(x):
        nx = eval_norm(source, x)
        if nx <= 0:
            return 0.0
        return eval_norm(target, g * x) / nx

    norm_D = 0.0
    for x0 in cands:
        x = x0.astype(float)
        val = op_ratio(x)
        step = 0.4
        for _ in range(max(20, budget // 100)):
            x2 = x + step * rng.standard_normal(source.dim)
            v2 = op_ratio(x2)
            if v2 > val:
                val, x = v2, x2
            else:
                step = max(step * 0.8, 0.02)
        norm_D = max(norm_D, val)

    report = {
        "norm_D": norm_D,
        "K_convex": est_cx.value,
        "K_concave": est_cc.value,
        "convex_ok": bool(est_cx.value <= norm_D + 1e-6),
        "concave_ok": bool(est_cc.value <= norm_D + 1e-6),
    }
    report["pass"] = bool(report["convex_ok"] and report["concave_ok"])
    return report
