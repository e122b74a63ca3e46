"""Tensor ideal norms and the factorization they induce.

theta of a representation u = sum x_i (x) y_i is a sup over two truncated
sequences of functionals; it is searched, so every reported value is a lower
bound.  The factorization routes u through an intermediate lattice Z on R^n
whose norm is the support function of a sampled body of evaluation vectors,
making the norm of Z itself one-sided in the same direction.  The body's
sequences are scored in stacks, one :func:`_w_rows` call per sequence length.
A representation with all x_i or all y_i zero factorizes too: the zero
factor's constant is exactly 0, and an all-zero body gives way to a trivial
max-norm copy of R^n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._util import TOLERANCES, best_climb, climb_starts, conjugate, lp_norm, lp_rows, rng_for, stack_rows
from .constants import Concave, Convex, estimate_constant
from .convexgeom import SolidConvexBody, _prune_generators
from .core import (
    ConstantEstimate,
    GaugeOf,
    LatticeSchemaError,
    LinOperator,
    Lp,
    NormedLattice,
    NormSpec,
    PredualOf,
    WeightedLorentzPInfty,
    WeightedLorentzQ1,
    as_vector,
    dual_lattice,
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
    """u = sum_i x_i (x) y_i with the exponent record (p, p2, q, q2).  Errors
    name the field of the tensor document (``pairs``, ``exponents/p2``)."""

    pairs: tuple
    p: float
    p2: float
    q: float
    q2: float

    def __post_init__(self):
        pairs = tuple((tuple(np.asarray(x, dtype=float).tolist()),
                       tuple(np.asarray(y, dtype=float).tolist())) for x, y in self.pairs)
        if not pairs:
            raise LatticeSchemaError("pairs", "representation needs at least one pair")
        if len({len(x) for x, _ in pairs}) != 1 or len({len(y) for _, y in pairs}) != 1:
            raise LatticeSchemaError("pairs", "pair components must have consistent dimensions")
        for i, j, side, v in ((i, j, s, v) for i, pr in enumerate(pairs) for s, vec in zip("xy", pr)
                              for j, v in enumerate(vec) if not math.isfinite(v)):
            raise LatticeSchemaError(f"pairs/{i}/{side}/{j}", f"entry must be finite, got {v}")
        if not 1 <= self.p < math.inf:
            raise LatticeSchemaError("exponents/p", f"p must lie in [1, inf), got {self.p}")
        if self.p2 not in (self.p, math.inf):
            raise LatticeSchemaError("exponents/p2", "p2 must be p or inf")
        if not 1 <= self.q < math.inf:
            raise LatticeSchemaError("exponents/q", f"q must lie in [1, inf), got {self.q}")
        if self.q2 not in (1, 1.0, self.q):
            raise LatticeSchemaError("exponents/q2", "q2 must be 1 or q")
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

    @cached_property
    def _matrices(self) -> tuple:
        """(X, Y): the x_i and the y_i as rows, built once and read-only."""
        X, Y = (np.array(side, dtype=float) for side in zip(*self.pairs))
        X.flags.writeable = Y.flags.writeable = False
        return X, Y

    def x_matrix(self) -> np.ndarray:
        return self._matrices[0]

    def y_matrix(self) -> np.ndarray:
        return self._matrices[1]

    def to_dict(self) -> dict:
        return {
            "pairs": [{"x": list(x), "y": list(y)} for x, y in self.pairs],
            "exponents": {"p": self.p, "p2": self.p2, "q": self.q, "q2": self.q2},
        }


def _dual_exponent(spec: NormSpec) -> float:
    """Exponent of the dual of an Lp-family primal norm."""
    if not isinstance(spec, Lp):
        raise ValueError("functional sequence norms need an l_p family space")
    return conjugate(spec.p)


def _seq_norms(spec: NormSpec, seqs: np.ndarray, p: float) -> np.ndarray:
    """The l_p norm of the dual norms (against an Lp-family primal norm) along
    each sequence of a (K, L, d) stack of functionals, with lp_rows' scalar roots."""
    duals = lp_norm(seqs.reshape(-1, seqs.shape[2]), _dual_exponent(spec), axis=1)
    return lp_rows(duals.reshape(seqs.shape[:2]), p)


def _theta_rows(rep: TensorRep, E_norm: NormSpec, F_norm: NormSpec,
                Xs: np.ndarray, Ys: np.ndarray) -> np.ndarray:
    """:func:`theta_value` of each pair of a (K, L, dim_E) and a (K, L', dim_F)
    stack of functional sequences, bit for bit; a zero sequence norm gives 0."""
    nx, ny = _seq_norms(E_norm, Xs, rep.p), _seq_norms(F_norm, Ys, conjugate(rep.q))
    left = lp_norm(Xs @ rep.x_matrix().T, rep.p2, axis=1)  # (K, n) over evaluations x*_k(x_i)
    right = lp_norm(Ys @ rep.y_matrix().T, conjugate(rep.q2), axis=1)
    den = nx * ny
    return np.divide((left * right).sum(axis=1), den, out=np.zeros(len(den)),
                     where=(nx > 0) & (ny > 0))


def theta_value(rep: TensorRep, E_norm: NormSpec, F_norm: NormSpec,
                xstars, ystars) -> float:
    """The theta objective at explicit functional sequences, normalized by
    their l_p(E*) and l_{q*}(F*) sequence norms."""
    Xs, Ys = (np.atleast_2d(np.asarray(s, dtype=float))[None] for s in (xstars, ystars))
    return float(_theta_rows(rep, E_norm, F_norm, Xs, Ys)[0])


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
        x, y = rep.x_matrix()[0], rep.y_matrix()[0]
        val = eval_norm(E, x) * eval_norm(F, y)
        if val == 0:
            return ConstantEstimate(0.0, "exact", None, budget, seed)
        wx = norming_functional(E, x)
        wy = norming_functional(F, y)
        wit = (np.stack([wx] + [np.zeros_like(wx)] * (trunc_len - 1)),
               np.stack([wy] + [np.zeros_like(wy)] * (trunc_len - 1)))
        return ConstantEstimate(val, "exact", wit, budget, seed)

    # check the spaces here: inside the climb a ValueError only rejects a proposal
    _dual_exponent(E_norm)
    _dual_exponent(F_norm)
    rng = rng_for(seed, "theta", rep.n, rep.dim_E, rep.dim_F, trunc_len)
    L, dE = trunc_len, rep.dim_E
    seqs = [(norming_functional(E, x)[None], norming_functional(F, y)[None])
            for x, y in zip(rep.x_matrix(), rep.y_matrix()) if x.any() and y.any()]
    seqs += [tuple(np.atleast_2d(np.asarray(s, dtype=float))[:L] for s in warm) for warm in starts or ()]
    seqs += [(rng.standard_normal((L, dE)), rng.standard_normal((L, rep.dim_F)))
             for _ in range(max(3, budget // 400))]
    S = np.zeros((len(seqs), L, dE + rep.dim_F))  # one row [xs | ys] per truncation index
    for k, (sx, sy) in enumerate(seqs):
        S[k, :len(sx), :dE], S[k, :len(sy), dE:] = sx, sy

    def score(P, groups):
        return _theta_rows(rep, E_norm, F_norm, P[:, :, :dE], P[:, :, dE:])

    iters = max(20, budget // (4 * len(S)))
    climbs = climb_starts(score, rng, iters, zip(S, np.ones_like(S), score(S, None)))
    best, z = best_climb(climbs, 0.0)
    wit = None
    if z is not None:  # normalized by the sequence norms theta divides by
        nx = _seq_norms(E_norm, z[None, :, :dE], rep.p)[0]
        wit = (z[:, :dE] / nx, z[:, dE:] / _seq_norms(F_norm, z[None, :, dE:], conjugate(rep.q))[0])
    return ConstantEstimate(best, "lower", wit, budget, seed)


# ---------------------------------------------------------------------------
# factorization


def _w_rows(rep: TensorRep, F_norm: NormSpec, Ys: np.ndarray) -> tuple:
    """(W, ok): w_i = (sum_j |y*_j(y_i)|^{q2*})^{1/q2*} for each sequence of
    a (K, L, dim_F) stack, normalized by its l_{q*}(F*) sequence norm, in the
    rows of W where ``ok`` (a nonzero sequence)."""
    total = _seq_norms(F_norm, Ys, conjugate(rep.q))
    ok = total > 0
    W = lp_norm(Ys @ rep.y_matrix().T, conjugate(rep.q2), axis=1)
    W[ok] /= total[ok, None]
    return W, ok


def _evaluation_body(rep: TensorRep, F_norm: NormSpec, trunc_len: int,
                     budget: int, seed: int):
    """Generators w over the norming functionals of the y_i and sampled
    y*-sequences of random lengths, one :func:`_w_rows` call per length; the
    Z-norm is the support function of their solid convex hull (an inner
    approximation, so the norm is one-sided low)."""
    F = NormedLattice(rep.dim_F, F_norm)
    rng = rng_for(seed, "etabody", rep.n, rep.dim_F, trunc_len)
    # each y_i's functional atop zero rows, trunc_len in all: a one-row matmul can round differently
    seqs = [np.pad(norming_functional(F, y)[None], ((0, trunc_len - 1), (0, 0))) for y in rep.y_matrix()]
    seqs += [rng.standard_normal((int(rng.integers(1, trunc_len + 1)), rep.dim_F))
             for _ in range(max(40, budget // 10))]
    # grouped by length: zero rows would change the pairwise sums past 8 terms
    stack, groups = stack_rows(seqs)
    W, ok = np.empty((len(seqs), rep.n)), np.empty(len(seqs), dtype=bool)
    for at, m in groups:
        W[at], ok[at] = _w_rows(rep, F_norm, stack[at, :m])
    return SolidConvexBody(_prune_generators(W[ok]))


def _maximize_w(rep: TensorRep, F_norm: NormSpec, v: np.ndarray,
                trunc_len: int, budget: int, seed: int):
    """Hill-climbed y*-sequence whose generator best supports direction v;
    tightens the sampled Z norm exactly where an estimate needed it."""
    F = NormedLattice(rep.dim_F, F_norm)
    rng = rng_for(seed, "etaenrich", rep.n, rep.dim_F, trunc_len)
    base = np.zeros((trunc_len, rep.dim_F))
    base[:rep.n] = [norming_functional(F, y) for y in rep.y_matrix()[:trunc_len]]
    S = np.stack([base] + [rng.standard_normal((trunc_len, rep.dim_F)) for _ in range(4)])

    def score(P, groups):  # v.w as the dot np.dot takes; -1 for a zero sequence
        W, ok = _w_rows(rep, F_norm, P)
        return np.where(ok, (W[:, None, :] @ v[:, None])[:, 0, 0], -1.0)

    climbs = climb_starts(score, rng, max(40, budget // len(S)), zip(S, np.ones_like(S), score(S, None)))
    ys = best_climb(climbs, -1.0)[1]  # a nonzero sequence: its v.w >= 0 beats the floor
    return None if ys is None else _w_rows(rep, F_norm, ys[None])[0][0]


def build_eta_factorization(rep: TensorRep, E_norm: NormSpec, F_norm: NormSpec,
                            trunc_len: int = 2, budget: int = 2000, seed: int = 0,
                            tol=TOLERANCES) -> dict:
    """u = S o R through Z = (R^n, support function of the evaluation body);
    R rows are the functionals x_i, S columns are the vectors y_i.  At oracle
    scale ``product_ok`` compares K(R) K(S) with theta up to
    ``tol["theta-product"]``."""
    if trunc_len < 1:
        raise ValueError("truncation length must be at least 1")
    E = NormedLattice(rep.dim_E, E_norm)
    F = NormedLattice(rep.dim_F, F_norm)

    def through(body):  # (Z, R, S) for the Z-ball of this body
        Z = NormedLattice(rep.n, PredualOf(GaugeOf(body)))
        return Z, LinOperator(rep.x_matrix(), E, Z), LinOperator(rep.y_matrix().T, Z, F)

    body = _evaluation_body(rep, F_norm, trunc_len, budget, seed)
    degenerate = not np.any(body.gen_matrix > 0)
    # an all-zero body (every y_i zero): route through a trivial max-norm copy instead
    Z, R, S = through(SolidConvexBody(np.ones((1, rep.n))) if degenerate else body)
    u_matrix = S.matrix @ R.matrix

    est_budget = max(200, budget // 4)
    est_S = estimate_constant(S, Concave(rep.q, rep.q2), budget=est_budget, seed=seed)
    # the sampled Z ball can sit strictly inside the true one, which inflates
    # the concavity estimate past its exact value 1; grow the body against
    # the witness families until the estimate settles
    for round_ in range(3):
        if degenerate or est_S.value <= 1 + 5e-3 or not est_S.witness:
            break
        fam = np.stack([as_vector(w) for w in est_S.witness])
        v = lp_norm(fam, rep.q2, axis=0)
        w_new = _maximize_w(rep, F_norm, v, trunc_len, est_budget,
                            seed + 7 * round_ + 1)
        if w_new is None or not np.any(w_new > 0):
            break
        body = SolidConvexBody(np.vstack([body.gen_matrix, np.abs(w_new)]))
        Z, R, S = through(body)
        est_S = estimate_constant(S, Concave(rep.q, rep.q2), budget=est_budget, seed=seed)

    est_R = estimate_constant(R, Convex(rep.p, rep.p2), budget=est_budget, seed=seed)
    # the x_i act as functionals here, so the matching theta lives on the
    # dual pairing: its probe sequences range over E itself, which means
    # handing theta_lower the dual exponent on the first slot. Seed the
    # search with the convexity witness family so both sides of the
    # product-vs-theta comparison explore the same optimum
    warm = []
    if est_R.witness:
        ru = np.stack([as_vector(w) for w in est_R.witness])
        warm.append((ru, np.stack([norming_functional(F, y) for y in rep.y_matrix()])))
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
        "product_bound": (est_R.value, est_S.value),
        "theta": theta.value,
        "oracle_scale": oracle_scale,
        # theta is compared only at oracle scale; elsewhere the check is skipped
        "product_ok": bool(product <= theta.value + tol["theta-product"]) if oracle_scale else None,
    }
    return report


# ---------------------------------------------------------------------------
# multiplication operators


def multiplication_operator_check(g, source: NormedLattice, target: NormedLattice,
                                  budget: int = 2000, seed: int = 0) -> dict:
    """Diagonal operator x -> g * x; its (p, inf)-convexity and (q, q2)
    concavity constants should not beat the operator norm (families gain
    nothing over the best single direction)."""
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
    S = np.array(cands, dtype=float)[:, None, :]  # one (1, n) row per start

    def op_ratio(P, groups):  # an lp target through lp_rows, the roots of eval_norm
        nx, gx = source.norm.eval_rows(P[:, 0]), g * P[:, 0]
        num = lp_rows(gx, target.norm.p) if isinstance(target.norm, Lp) else target.norm.eval_rows(gx)
        return np.divide(num, nx, out=np.zeros(len(nx)), where=nx > 0)

    climbs = climb_starts(op_ratio, rng, max(20, budget // 100), zip(S, np.ones_like(S), op_ratio(S, None)))
    norm_D = best_climb(climbs, 0.0)[0]

    report = {
        "norm_D": norm_D,
        "K_convex": est_cx.value,
        "K_concave": est_cc.value,
        "convex_ok": bool(est_cx.value <= norm_D + 1e-6),
        "concave_ok": bool(est_cc.value <= norm_D + 1e-6),
    }
    report["pass"] = bool(report["convex_ok"] and report["concave_ok"])
    return report
