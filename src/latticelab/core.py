"""Finite-dimensional vector lattices and parametric lattice norms.

Vectors live in R^n with the coordinatewise order: modulus, join and meet are
``np.abs``, ``np.maximum``, ``np.minimum``.  A :class:`NormedLattice` couples a
dimension with a :class:`NormSpec`, a tagged union covering the l_p norms,
weighted Lorentz norms (the ``[r]`` renormings of weak-L_p and the classical
integral q,1-norm), l_inf-sums, Lorentz-of-blocks mixtures, the three-term max
norm on R^3 used by the embedding counterexample, preduals, and Minkowski
gauges of solid convex bodies.

Norm evaluation is exact wherever a closed form or an LP reformulation exists
and a certified lower bound (multistart ascent / concave programming)
elsewhere; :func:`eval_norm_detail` and :func:`eval_dual_norm` carry the
exact-vs-lower flag.  The Lorentz norms, the ``[1]``-dual and the q,1-dual are
exact at every atom count, each by one scan along a sorted order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Optional

import numpy as np
# linprog is unused here, but perfbench/tracer.py wraps core.linprog by name
from scipy.optimize import LinearConstraint, linprog, minimize  # noqa: F401

from ._util import conjugate, inv, rng_for

__all__ = [
    "AtomicMeasure",
    "SymmetricSeqNorm",
    "NormSpec",
    "Lp",
    "WeightedLorentzPInfty",
    "WeightedLorentzQ1",
    "LinfSum",
    "BlockLorentz",
    "Example54Dual",
    "PredualOf",
    "GaugeOf",
    "NormedLattice",
    "LinOperator",
    "ConstantEstimate",
    "LatticeSchemaError",
    "eval_norm",
    "eval_norm_detail",
    "eval_dual_norm",
    "norming_functional",
    "sigma_apply",
    "sigma_dual",
    "dual_lattice",
    "lattice_from_dict",
    "lattice_to_dict",
    "as_vector",
]


def as_vector(x) -> np.ndarray:
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-d vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector entries must be finite")
    return v


@dataclass(frozen=True)
class AtomicMeasure:
    """Finitely many atoms with strictly positive weights."""

    weights: tuple

    def __post_init__(self):
        ws = tuple(float(w) for w in self.weights)
        if not ws:
            raise ValueError("measure needs at least one atom")
        if any(not (w > 0) or not math.isfinite(w) for w in ws):
            raise ValueError("atom weights must be strictly positive and finite")
        object.__setattr__(self, "weights", ws)

    @property
    def dim(self) -> int:
        return len(self.weights)

    @property
    def total(self) -> float:
        return float(sum(self.weights))

    @cached_property
    def as_array(self) -> np.ndarray:
        return np.array(self.weights, dtype=float)

    @staticmethod
    def counting(n: int) -> "AtomicMeasure":
        return AtomicMeasure((1.0,) * n)


@dataclass(frozen=True)
class SymmetricSeqNorm:
    """The l_p norm on finite real sequences, 1 <= p <= inf.

    Symmetric, normalized (value 1 on a single unit entry), monotone in the
    modulus, and block convex/concave with constant 1.
    """

    p: float

    def __post_init__(self):
        p = float(self.p)
        if not (1 <= p):
            raise ValueError(f"sequence-norm exponent must lie in [1, inf], got {p}")
        object.__setattr__(self, "p", p)

    def __call__(self, values) -> float:
        t = np.abs(np.asarray(values, dtype=float))
        if t.size == 0:
            return 0.0
        if self.p == math.inf:
            return float(np.max(t))
        if self.p == 1:
            return float(np.sum(t))
        return float(np.sum(t ** self.p) ** (1.0 / self.p))


def sigma_apply(sigma: SymmetricSeqNorm, xs) -> np.ndarray:
    """Coordinatewise functional calculus: out[j] = sigma(|x_1[j]|,...,|x_n[j]|)."""
    if len(xs) == 0:
        raise ValueError("sigma_apply needs a nonempty family")
    mat = np.stack([np.abs(as_vector(x)) for x in xs])
    if len({m.shape[0] for m in mat}) > 1:  # pragma: no cover - stack already raises
        raise ValueError("mixed dimensions")
    if sigma.p == math.inf:
        return np.max(mat, axis=0)
    if sigma.p == 1:
        return np.sum(mat, axis=0)
    return np.sum(mat ** sigma.p, axis=0) ** (1.0 / sigma.p)


def sigma_dual(sigma: SymmetricSeqNorm) -> SymmetricSeqNorm:
    """l_p -> l_{p*}; an involution."""
    return SymmetricSeqNorm(conjugate(sigma.p))


class NormSpec:
    """Base tag for the parametric norm family."""

    kind: str = "abstract"


@dataclass(frozen=True)
class Lp(NormSpec):
    p: float
    kind = "lp"

    def __post_init__(self):
        p = float(self.p)
        if not 1 <= p:
            raise ValueError(f"lp exponent must lie in [1, inf], got {p}")
        object.__setattr__(self, "p", p)


@dataclass(frozen=True)
class WeightedLorentzPInfty(NormSpec):
    """The [r]-renorming of weak-L_p over an atomic measure:

        ||f||_[r] = sup_A mu(A)^(1/p - 1/r) (int_A |f|^r dmu)^(1/r),  1 <= r < p.
    """

    p: float
    r: float
    measure: AtomicMeasure
    kind = "lorentz_pinfty"

    def __post_init__(self):
        p, r = float(self.p), float(self.r)
        if not 1 < p < math.inf:
            raise ValueError(f"lorentz_pinfty needs p in (1, inf), got {p}")
        if not 1 <= r < p:
            raise ValueError(f"lorentz_pinfty needs 1 <= r < p, got r={r}, p={p}")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "r", r)


@dataclass(frozen=True)
class WeightedLorentzQ1(NormSpec):
    """The classical integral norm int_0^inf t^(1/q) f*(t) dt/t."""

    q: float
    measure: AtomicMeasure
    kind = "lorentz_q1"

    def __post_init__(self):
        q = float(self.q)
        if not 1 < q < math.inf:
            raise ValueError(f"lorentz_q1 needs q in (1, inf), got {q}")
        object.__setattr__(self, "q", q)


@dataclass(frozen=True)
class LinfSum(NormSpec):
    """Max of block norms over a tuple of block lattices."""

    blocks: tuple
    kind = "linf_sum"

    def __post_init__(self):
        if not self.blocks:
            raise ValueError("linf_sum needs at least one block")
        object.__setattr__(self, "blocks", tuple(self.blocks))


@dataclass(frozen=True)
class BlockLorentz(NormSpec):
    """Outer Lorentz (or l_p) norm of the vector of inner block norms."""

    outer: NormSpec
    blocks: tuple
    kind = "block_lorentz"

    def __post_init__(self):
        if not isinstance(self.outer, (Lp, WeightedLorentzPInfty)):
            raise ValueError("block_lorentz outer norm must be lp or lorentz_pinfty")
        if not self.blocks:
            raise ValueError("block_lorentz needs at least one block")
        if isinstance(self.outer, WeightedLorentzPInfty) and self.outer.measure.dim != len(self.blocks):
            raise ValueError("outer measure must have one atom per block")
        object.__setattr__(self, "blocks", tuple(self.blocks))


@dataclass(frozen=True)
class Example54Dual(NormSpec):
    """Three-term max norm on R^3:

        ||b|| = max over distinguished index i of (|b_i|^p* + (|b_j|+|b_k|)^p*)^(1/p*).
    """

    p: float
    kind = "example54_dual"

    def __post_init__(self):
        p = float(self.p)
        if not 1 < p < math.inf:
            raise ValueError(f"example54_dual needs p in (1, inf), got {p}")
        object.__setattr__(self, "p", p)


@dataclass(frozen=True)
class PredualOf(NormSpec):
    """Norm defined as sup of pairings over the unit ball of the referenced norm."""

    inner: NormSpec
    kind = "predual_of"

    def __post_init__(self):
        if isinstance(self.inner, PredualOf):
            raise ValueError("predual_of may not be nested more than once")


@dataclass(frozen=True)
class GaugeOf(NormSpec):
    """Minkowski functional of a solid convex body (see convexgeom)."""

    body: Any
    kind = "gauge_of"


def _spec_dim(spec: NormSpec) -> Optional[int]:
    """Dimension forced by a norm description, or None if any fits."""
    if isinstance(spec, (Lp,)):
        return None
    if isinstance(spec, WeightedLorentzPInfty):
        return spec.measure.dim
    if isinstance(spec, WeightedLorentzQ1):
        return spec.measure.dim
    if isinstance(spec, LinfSum):
        return sum(b.dim for b in spec.blocks)
    if isinstance(spec, BlockLorentz):
        return sum(b.dim for b in spec.blocks)
    if isinstance(spec, Example54Dual):
        return 3
    if isinstance(spec, PredualOf):
        return _spec_dim(spec.inner)
    if isinstance(spec, GaugeOf):
        return spec.body.dim
    raise TypeError(f"unknown norm spec {spec!r}")


@dataclass(frozen=True)
class NormedLattice:
    dim: int
    norm: NormSpec

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("lattice dimension must be positive")
        forced = _spec_dim(self.norm)
        if forced is not None and forced != self.dim:
            raise ValueError(f"norm spec forces dimension {forced}, lattice says {self.dim}")


@dataclass(frozen=True, eq=False)
class LinOperator:
    """Matrix operator between normed lattices; adjoint = transpose + dual norms."""

    matrix: np.ndarray
    domain: NormedLattice
    codomain: NormedLattice

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2:
            raise ValueError("operator matrix must be 2-d")
        if m.shape != (self.codomain.dim, self.domain.dim):
            raise ValueError(
                f"matrix shape {m.shape} does not match codomain x domain "
                f"({self.codomain.dim}, {self.domain.dim})"
            )
        object.__setattr__(self, "matrix", m)

    def apply(self, x) -> np.ndarray:
        return self.matrix @ as_vector(x)

    def adjoint(self) -> "LinOperator":
        return LinOperator(self.matrix.T.copy(), dual_lattice(self.codomain), dual_lattice(self.domain))


def dual_lattice(lat: NormedLattice) -> NormedLattice:
    """Same coordinates with the dual norm (closed form for l_p, predual unwrap)."""
    spec = lat.norm
    if isinstance(spec, Lp):
        return NormedLattice(lat.dim, Lp(conjugate(spec.p)))
    if isinstance(spec, PredualOf):
        return NormedLattice(lat.dim, spec.inner)
    return NormedLattice(lat.dim, PredualOf(spec))


@dataclass(frozen=True, eq=False)
class ConstantEstimate:
    """Uniform result record for every estimator: a one-sided (or exact) value,
    the witness achieving it, and the search budget/seed that produced it."""

    value: float
    side: str  # "lower" | "upper" | "exact"
    witness: Any = None
    budget: int = 0
    seed: int = 0

    def __post_init__(self):
        if self.side not in ("lower", "upper", "exact"):
            raise ValueError(f"side must be lower/upper/exact, got {self.side!r}")

    def as_dict(self) -> dict:
        w = self.witness
        if isinstance(w, np.ndarray):
            w = w.tolist()
        elif isinstance(w, (list, tuple)):
            w = [x.tolist() if isinstance(x, np.ndarray) else x for x in w]
        return {"value": float(self.value), "side": self.side, "witness": w,
                "budget": int(self.budget), "seed": int(self.seed)}


# ---------------------------------------------------------------------------
# norm evaluation


def _lp_value(p: float, x: np.ndarray) -> float:
    a = np.abs(x)
    if p == math.inf:
        return float(a.max()) if a.size else 0.0
    if p == 1:
        return float(a.sum())
    return float(np.sum(a ** p) ** (1.0 / p))


def eval_norm(X: NormedLattice, x) -> float:
    return eval_norm_detail(X, x)[0]


def eval_norm_detail(X: NormedLattice, x) -> tuple:
    """Norm value plus a side flag: 'exact' or 'lower' (certified one-sided)."""
    v = as_vector(x)
    if v.shape[0] != X.dim:
        raise ValueError(f"vector has dim {v.shape[0]}, lattice has dim {X.dim}")
    return _eval_spec(X.norm, v)


def _eval_spec(spec: NormSpec, v: np.ndarray) -> tuple:
    if isinstance(spec, Lp):
        return _lp_value(spec.p, v), "exact"
    if isinstance(spec, WeightedLorentzPInfty):
        from . import lorentz

        f = lorentz.StepFunction(tuple(v.tolist()), spec.measure)
        return lorentz.norm_pinfty_r(f, spec.p, spec.r), "exact"
    if isinstance(spec, WeightedLorentzQ1):
        from . import lorentz

        f = lorentz.StepFunction(tuple(v.tolist()), spec.measure)
        return lorentz.norm_q1(f, spec.q), "exact"
    if isinstance(spec, LinfSum):
        best, side = 0.0, "exact"
        for blk, piece in zip(spec.blocks, _split_blocks(v, spec.blocks)):
            val, s = eval_norm_detail(blk, piece)
            best = max(best, val)
            if s != "exact":
                side = "lower"
        return best, side
    if isinstance(spec, BlockLorentz):
        side = "exact"
        t = []
        for blk, piece in zip(spec.blocks, _split_blocks(v, spec.blocks)):
            val, s = eval_norm_detail(blk, piece)
            t.append(val)
            if s != "exact":
                side = "lower"
        val, s = _eval_spec(spec.outer, np.array(t))
        return val, ("exact" if side == s == "exact" else "lower")
    if isinstance(spec, Example54Dual):
        return _example54_value(spec.p, v), "exact"
    if isinstance(spec, PredualOf):
        est = _dual_norm_of_spec(spec.inner, v, budget=2000, seed=0)
        return est.value, ("exact" if est.side == "exact" else "lower")
    if isinstance(spec, GaugeOf):
        from . import convexgeom

        return convexgeom.gauge(spec.body, v), "exact"
    raise TypeError(f"unknown norm spec {spec!r}")


def _split_blocks(v: np.ndarray, blocks) -> list:
    out, pos = [], 0
    for blk in blocks:
        out.append(v[pos:pos + blk.dim])
        pos += blk.dim
    return out


def _example54_value(p: float, v: np.ndarray) -> float:
    ps = conjugate(p)
    a = np.abs(v)
    best = 0.0
    for i, j, k in ((0, 1, 2), (1, 0, 2), (2, 0, 1)):
        best = max(best, (a[i] ** ps + (a[j] + a[k]) ** ps) ** (1.0 / ps))
    return float(best)


# ---------------------------------------------------------------------------
# dual norms


def eval_dual_norm(X: NormedLattice, b, budget: int = 2000, seed: int = 0) -> ConstantEstimate:
    """sup{<x, b> : ||x||_X <= 1} with an exact/lower flag and a witness x."""
    v = as_vector(b)
    if v.shape[0] != X.dim:
        raise ValueError(f"vector has dim {v.shape[0]}, lattice has dim {X.dim}")
    return _dual_norm_of_spec(X.norm, v, budget, seed)


def _dual_norm_of_spec(spec: NormSpec, b: np.ndarray, budget: int, seed: int) -> ConstantEstimate:
    if isinstance(spec, Lp):
        ps = conjugate(spec.p)
        val = _lp_value(ps, b)
        return ConstantEstimate(val, "exact", _lp_norming(spec.p, b), budget, seed)
    if isinstance(spec, GaugeOf):
        from . import convexgeom

        val, g = convexgeom.support_function_witness(spec.body, b)
        return ConstantEstimate(val, "exact", g, budget, seed)
    if isinstance(spec, WeightedLorentzPInfty):
        return _dual_lorentz_pinfty(spec, b, budget, seed)
    if isinstance(spec, WeightedLorentzQ1):
        return _dual_lorentz_q1(spec, b, budget, seed)
    if isinstance(spec, LinfSum):
        total, side, parts = 0.0, "exact", []
        for blk, piece in zip(spec.blocks, _split_blocks(b, spec.blocks)):
            est = _dual_norm_of_spec(blk.norm, piece, budget, seed)
            total += est.value
            parts.append(as_vector(est.witness) if est.witness is not None else np.zeros(blk.dim))
            if est.side != "exact":
                side = "lower"
        return ConstantEstimate(total, side, np.concatenate(parts), budget, seed)
    if isinstance(spec, BlockLorentz):
        side = "exact"
        t, wits = [], []
        for blk, piece in zip(spec.blocks, _split_blocks(b, spec.blocks)):
            est = _dual_norm_of_spec(blk.norm, piece, budget, seed)
            t.append(est.value)
            wits.append(as_vector(est.witness) if est.witness is not None else np.zeros(blk.dim))
            if est.side != "exact":
                side = "lower"
        outer_est = _dual_norm_of_spec(spec.outer, np.array(t), budget, seed)
        if outer_est.side != "exact":
            side = "lower"
        s = as_vector(outer_est.witness)
        witness = np.concatenate([s[k] * wits[k] for k in range(len(wits))])
        return ConstantEstimate(outer_est.value, side, witness, budget, seed)
    if isinstance(spec, PredualOf):
        # bipolar: the dual of the predual is the referenced norm itself
        dim = b.shape[0]
        val, side = _eval_spec(spec.inner, b)
        wit = norming_functional(NormedLattice(dim, spec.inner), b)
        return ConstantEstimate(val, side, wit, budget, seed)
    if isinstance(spec, Example54Dual):
        return _dual_example54(spec, b, budget, seed)
    raise TypeError(f"unknown norm spec {spec!r}")


def _lp_norming(p_of_ball: float, b: np.ndarray) -> np.ndarray:
    """x in the l_{p} unit ball maximizing <x, b> (p = exponent of the ball)."""
    a = np.abs(b)
    s = np.sign(b)
    if not np.any(a > 0):
        return np.zeros_like(b)
    if p_of_ball == math.inf:
        return s + (s == 0)
    if p_of_ball == 1:
        x = np.zeros_like(b)
        i = int(np.argmax(a))
        x[i] = s[i] if s[i] != 0 else 1.0
        return x
    q = conjugate(p_of_ball)
    y = a ** (q - 1.0)
    return s * y / _lp_value(p_of_ball, y)


def _density_order(a: np.ndarray, w: np.ndarray) -> tuple:
    """Atoms in decreasing order of the density a_i/w_i (ties by index), with
    the prefix masses of w along that order."""
    order = np.argsort(-(a / w), kind="stable")
    return order, np.cumsum(w[order])


def _dual_lorentz_pinfty(spec: WeightedLorentzPInfty, b: np.ndarray, budget: int, seed: int) -> ConstantEstimate:
    a = np.abs(b)
    sgn = np.where(b < 0, -1.0, 1.0)
    if spec.r > 1:
        return _dual_lorentz_pinfty_concave(spec, a, sgn, budget, seed)
    # with v = w u the [1]-ball is {v >= 0 : v(A) <= mu(A)^{1/p*}}, a polymatroid
    # (a concave power of a modular function is submodular), so Edmonds' greedy
    # along decreasing |b_i|/w_i maximizes <|b|, u> exactly (Edmonds 1970)
    w = spec.measure.as_array
    order, mass = _density_order(a, w)
    u = np.zeros_like(a)
    u[order] = np.diff(mass ** (1.0 - 1.0 / spec.p), prepend=0.0) / w[order]
    return ConstantEstimate(float(a @ u), "exact", sgn * u, budget, seed)


def _dual_lorentz_pinfty_concave(spec, a, sgn, budget, seed) -> ConstantEstimate:
    """r > 1: maximize sum |b_i| u_i^{1/r} over u = |f|^r in the [r]-ball,
    i.e. over the polymatroid {w u : (w u)(A) <= mu(A)^{1 - r/p}}.

    SLSQP multistart keeps only the rows of the prefixes of the density order
    |b_i|/w_i, a relaxation; each start is then rescaled by its exact [r]-norm,
    so the result is a certified lower bound."""
    from . import lorentz

    n = a.shape[0]
    w = spec.measure.as_array
    p, r = spec.p, spec.r
    support = np.where(a > 0)[0]
    if support.size == 0:
        return ConstantEstimate(0.0, "exact", np.zeros(n), budget, seed)
    ws, as_ = w[support], a[support]
    m = support.size
    order, mass = _density_order(as_, ws)
    rank = np.empty(m, dtype=int)
    rank[order] = np.arange(m)
    rows = (np.arange(m)[:, None] >= rank[None, :]) * ws
    rhs = mass ** (1.0 - r / p)

    def neg_obj(u):
        return -float(as_ @ np.maximum(u, 0.0) ** (1.0 / r))

    def neg_grad(u):
        u = np.maximum(u, 1e-18)
        return -(as_ / r) * u ** (1.0 / r - 1.0)

    lc = LinearConstraint(rows, -np.inf, rhs)
    t0 = float(np.min(rhs / np.maximum(rows @ np.ones(m), 1e-300)))
    rng = rng_for(seed, "lorentz-dual", m)
    best_f, best_val = np.zeros(n), 0.0
    starts = [np.full(m, 0.5 * t0)]
    for _ in range(max(3, min(8, budget // 300))):
        g = rng.random(m) + 0.05
        scale = np.min(rhs / np.maximum(rows @ g, 1e-300))
        starts.append(0.9 * scale * g)
    for u0 in starts:
        res = minimize(neg_obj, u0, jac=neg_grad, constraints=[lc],
                       bounds=[(0, None)] * m, method="SLSQP",
                       options={"maxiter": 200, "ftol": 1e-12})
        f = np.zeros(n)
        f[support] = np.maximum(res.x, 0.0) ** (1.0 / r)
        nv = lorentz.norm_pinfty_r(lorentz.StepFunction(tuple(f.tolist()), spec.measure), p, r)
        if nv > 0:
            f /= nv
            val = float(a @ f)
            if val > best_val:
                best_val, best_f = val, f
    return ConstantEstimate(best_val, "lower", sgn * best_f, budget, seed)


def _dual_lorentz_q1(spec: WeightedLorentzQ1, b: np.ndarray, budget: int, seed: int) -> ConstantEstimate:
    """The positive face of the q,1-ball is the convex hull of the normalized
    indicators 1_A / (q mu(A)^{1/q}) (layer-cake additivity), so the dual norm
    is max_A sum_{i in A} |b_i| / (q mu(A)^{1/q}).  As for the [r]-norm, that
    max is attained at a superlevel set, here of the density |b_i|/w_i: one
    prefix scan of the density order is exact at every atom count."""
    w = spec.measure.as_array
    a = np.abs(b)
    q = spec.q
    order, mass = _density_order(a, w)
    vals = np.cumsum(a[order]) / (q * mass ** (1.0 / q))
    k = int(np.argmax(vals))
    x = np.zeros_like(a)
    top = order[:k + 1]
    x[top] = np.where(b[top] < 0, -1.0, 1.0) / (q * mass[k] ** (1.0 / q))
    return ConstantEstimate(float(vals[k]), "exact", x, budget, seed)


def _dual_example54(spec: Example54Dual, b: np.ndarray, budget: int, seed: int) -> ConstantEstimate:
    """sup{<x,b> : ||x||_{three-term max} <= 1} via SLSQP on the positive
    orthant plus multistart ascent; certified one-sided."""
    ps = conjugate(spec.p)
    a = np.abs(b)
    sgn = np.where(np.sign(b) == 0, 1.0, np.sign(b))

    def cons_val(x):
        x = np.abs(x)
        out = []
        for i, j, k in ((0, 1, 2), (1, 0, 2), (2, 0, 1)):
            out.append(1.0 - (x[i] ** ps + (x[j] + x[k]) ** ps))
        return np.array(out)

    best_x, best_val = np.zeros(3), 0.0
    rng = rng_for(seed, "ex54-dual")
    starts = [np.full(3, 0.3), np.array([0.9, 0.05, 0.05]), np.array([0.05, 0.9, 0.05]),
              np.array([0.05, 0.05, 0.9])]
    for _ in range(max(8, min(32, budget // 100))):
        starts.append(rng.random(3) * 0.8 + 0.05)
    for x0 in starts:
        res = minimize(lambda x: -float(a @ x), x0, constraints=[{"type": "ineq", "fun": cons_val}],
                       bounds=[(0, None)] * 3, method="SLSQP",
                       options={"maxiter": 200, "ftol": 1e-14})
        x = np.maximum(res.x, 0.0)
        nv = _example54_value(spec.p, x)
        if nv > 0:
            x = x / max(nv, 1.0)
        val = float(a @ x)
        if val > best_val:
            best_val, best_x = val, x
    return ConstantEstimate(best_val, "lower", sgn * best_x, budget, seed)


# ---------------------------------------------------------------------------
# norming functionals (subgradients)


def norming_functional(X: NormedLattice, a) -> np.ndarray:
    """b with ||b||_{X*} <= 1 and <a, b> = ||a||_X (a norm subgradient at a)."""
    v = as_vector(a)
    if v.shape[0] != X.dim:
        raise ValueError("dimension mismatch")
    if not np.any(v != 0):
        return np.zeros(X.dim)
    return _norming(X.norm, v)


def _norming(spec: NormSpec, a: np.ndarray) -> np.ndarray:
    if isinstance(spec, Lp):
        p = spec.p
        s = np.sign(a)
        m = np.abs(a)
        if p == math.inf:
            b = np.zeros_like(a)
            i = int(np.argmax(m))
            b[i] = s[i]
            return b
        if p == 1:
            return s
        nrm = _lp_value(p, a)
        return s * (m / nrm) ** (p - 1.0)
    if isinstance(spec, WeightedLorentzPInfty):
        from . import lorentz

        f = lorentz.StepFunction(tuple(a.tolist()), spec.measure)
        _, mask = lorentz.norm_pinfty_r_argmax(f, spec.p, spec.r)
        w = spec.measure.as_array
        m = np.abs(a)
        mass = float(mask @ w)
        integ = float(np.sum(mask * w * m ** spec.r))
        coef = mass ** (inv(spec.p) - 1.0 / spec.r) * integ ** (1.0 / spec.r - 1.0)
        b = coef * mask * w * m ** (spec.r - 1.0) * np.sign(a)
        return b
    if isinstance(spec, WeightedLorentzQ1):
        w = spec.measure.as_array
        m = np.abs(a)
        order = np.argsort(-m, kind="stable")
        cum = np.concatenate([[0.0], np.cumsum(w[order])])
        marg = spec.q * (cum[1:] ** (1.0 / spec.q) - cum[:-1] ** (1.0 / spec.q))
        b = np.zeros_like(a)
        b[order] = marg
        return b * np.sign(a)
    if isinstance(spec, LinfSum):
        pieces = _split_blocks(a, spec.blocks)
        vals = [eval_norm(blk, piece) for blk, piece in zip(spec.blocks, pieces)]
        i = int(np.argmax(vals))
        out = [np.zeros(blk.dim) for blk in spec.blocks]
        out[i] = norming_functional(spec.blocks[i], pieces[i])
        return np.concatenate(out)
    if isinstance(spec, BlockLorentz):
        pieces = _split_blocks(a, spec.blocks)
        t = np.array([eval_norm(blk, piece) for blk, piece in zip(spec.blocks, pieces)])
        beta = _norming(spec.outer, t) if np.any(t > 0) else np.zeros(len(t))
        parts = []
        for k, (blk, piece) in enumerate(zip(spec.blocks, pieces)):
            bf = norming_functional(blk, piece) if t[k] > 0 else np.zeros(blk.dim)
            parts.append(beta[k] * bf)
        return np.concatenate(parts)
    if isinstance(spec, Example54Dual):
        ps = conjugate(spec.p)
        m = np.abs(a)
        best, arg = -1.0, None
        for i, j, k in ((0, 1, 2), (1, 0, 2), (2, 0, 1)):
            val = (m[i] ** ps + (m[j] + m[k]) ** ps) ** (1.0 / ps)
            if val > best:
                best, arg = val, (i, j, k)
        i, j, k = arg
        b = np.zeros(3)
        if best > 0:
            b[i] = m[i] ** (ps - 1.0)
            b[j] = (m[j] + m[k]) ** (ps - 1.0)
            b[k] = b[j]
            b *= best ** (1.0 - ps)
        return b * np.sign(a)
    if isinstance(spec, PredualOf):
        est = _dual_norm_of_spec(spec.inner, a, budget=2000, seed=0)
        return as_vector(est.witness)
    if isinstance(spec, GaugeOf):
        from . import convexgeom

        return convexgeom.gauge_norming(spec.body, a)
    raise TypeError(f"unknown norm spec {spec!r}")


# ---------------------------------------------------------------------------
# JSON schema


class LatticeSchemaError(ValueError):
    """Schema violation with a JSON-pointer-style path to the offending field."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path or '/'}: {message}")


def _want(doc, key, path, types, type_name):
    if not isinstance(doc, dict):
        raise LatticeSchemaError(path, "expected an object")
    if key not in doc:
        raise LatticeSchemaError(f"{path}/{key}", "missing required field")
    val = doc[key]
    if not isinstance(val, types) or isinstance(val, bool):
        raise LatticeSchemaError(f"{path}/{key}", f"expected {type_name}")
    return val


def _parse_exponent(doc, key, path):
    val = _want(doc, key, path, (int, float, str), "a number or 'inf'")
    if isinstance(val, str):
        if val == "inf":
            return math.inf
        raise LatticeSchemaError(f"{path}/{key}", f"expected a number or 'inf', got {val!r}")
    return float(val)


def _parse_weights(doc, path):
    raw = _want(doc, "weights", path, list, "a list of positive numbers")
    ws = []
    for i, w in enumerate(raw):
        if isinstance(w, bool) or not isinstance(w, (int, float)):
            raise LatticeSchemaError(f"{path}/weights/{i}", "expected a number")
        if not w > 0:
            raise LatticeSchemaError(f"{path}/weights/{i}", f"weight must be > 0, got {w}")
        ws.append(float(w))
    if not ws:
        raise LatticeSchemaError(f"{path}/weights", "needs at least one atom")
    return AtomicMeasure(tuple(ws))


def _norm_from_dict(doc, path: str) -> NormSpec:
    kind = _want(doc, "kind", path, str, "a string")
    if kind == "lp":
        p = _parse_exponent(doc, "p", path)
        if not 1 <= p:
            raise LatticeSchemaError(f"{path}/p", f"p must lie in [1, inf], got {p}")
        return Lp(p)
    if kind == "lorentz_pinfty":
        p = _parse_exponent(doc, "p", path)
        r = _parse_exponent(doc, "r", path)
        if not 1 < p < math.inf:
            raise LatticeSchemaError(f"{path}/p", f"p must lie in (1, inf), got {p}")
        if not 1 <= r:
            raise LatticeSchemaError(f"{path}/r", f"r must be >= 1, got {r}")
        if r >= p:
            raise LatticeSchemaError(f"{path}/r", f"requires r < p, got r={r}, p={p}")
        return WeightedLorentzPInfty(p, r, _parse_weights(doc, path))
    if kind == "lorentz_q1":
        q = _parse_exponent(doc, "q", path)
        if not 1 < q < math.inf:
            raise LatticeSchemaError(f"{path}/q", f"q must lie in (1, inf), got {q}")
        return WeightedLorentzQ1(q, _parse_weights(doc, path))
    if kind == "linf_sum":
        blocks_raw = _want(doc, "blocks", path, list, "a list of lattice documents")
        if not blocks_raw:
            raise LatticeSchemaError(f"{path}/blocks", "needs at least one block")
        blocks = tuple(lattice_from_dict(b, f"{path}/blocks/{i}") for i, b in enumerate(blocks_raw))
        return LinfSum(blocks)
    if kind == "block_lorentz":
        outer_raw = _want(doc, "outer", path, dict, "a norm document")
        outer = _norm_from_dict(outer_raw, f"{path}/outer")
        if not isinstance(outer, (Lp, WeightedLorentzPInfty)):
            raise LatticeSchemaError(f"{path}/outer/kind", "outer norm must be lp or lorentz_pinfty")
        blocks_raw = _want(doc, "blocks", path, list, "a list of lattice documents")
        if not blocks_raw:
            raise LatticeSchemaError(f"{path}/blocks", "needs at least one block")
        blocks = tuple(lattice_from_dict(b, f"{path}/blocks/{i}") for i, b in enumerate(blocks_raw))
        if isinstance(outer, WeightedLorentzPInfty) and outer.measure.dim != len(blocks):
            raise LatticeSchemaError(f"{path}/outer/weights",
                                     "outer measure must have one atom per block")
        return BlockLorentz(outer, blocks)
    if kind == "example54_dual":
        p = _parse_exponent(doc, "p", path)
        if not 1 < p < math.inf:
            raise LatticeSchemaError(f"{path}/p", f"p must lie in (1, inf), got {p}")
        return Example54Dual(p)
    if kind == "predual_of":
        inner_raw = _want(doc, "inner", path, dict, "a norm document")
        inner = _norm_from_dict(inner_raw, f"{path}/inner")
        if isinstance(inner, PredualOf):
            raise LatticeSchemaError(f"{path}/inner/kind", "predual_of may not be nested more than once")
        return PredualOf(inner)
    if kind == "gauge_of":
        from . import convexgeom

        gens_raw = _want(doc, "generators", path, list, "a list of vectors")
        if not gens_raw:
            raise LatticeSchemaError(f"{path}/generators", "needs at least one generator")
        gens = []
        for i, g in enumerate(gens_raw):
            if not isinstance(g, list) or not g:
                raise LatticeSchemaError(f"{path}/generators/{i}", "expected a nonempty list of numbers")
            for j, x in enumerate(g):
                if isinstance(x, bool) or not isinstance(x, (int, float)):
                    raise LatticeSchemaError(f"{path}/generators/{i}/{j}", "expected a number")
            gens.append(tuple(float(x) for x in g))
        if len({len(g) for g in gens}) != 1:
            raise LatticeSchemaError(f"{path}/generators", "generators must share one dimension")
        return GaugeOf(convexgeom.SolidConvexBody(tuple(gens)))
    raise LatticeSchemaError(f"{path}/kind", f"unknown norm kind {kind!r}")


def lattice_from_dict(doc, path: str = "") -> NormedLattice:
    dim = _want(doc, "dim", path, int, "a positive integer")
    if dim < 1:
        raise LatticeSchemaError(f"{path}/dim", f"dim must be >= 1, got {dim}")
    norm_raw = _want(doc, "norm", path, dict, "a norm document")
    norm = _norm_from_dict(norm_raw, f"{path}/norm")
    forced = _spec_dim(norm)
    if forced is not None and forced != dim:
        raise LatticeSchemaError(f"{path}/dim", f"norm spec forces dimension {forced}, document says {dim}")
    return NormedLattice(dim, norm)


def _norm_to_dict(spec: NormSpec) -> dict:
    if isinstance(spec, Lp):
        return {"kind": "lp", "p": ("inf" if spec.p == math.inf else spec.p)}
    if isinstance(spec, WeightedLorentzPInfty):
        return {"kind": "lorentz_pinfty", "p": spec.p, "r": spec.r, "weights": list(spec.measure.weights)}
    if isinstance(spec, WeightedLorentzQ1):
        return {"kind": "lorentz_q1", "q": spec.q, "weights": list(spec.measure.weights)}
    if isinstance(spec, LinfSum):
        return {"kind": "linf_sum", "blocks": [lattice_to_dict(b) for b in spec.blocks]}
    if isinstance(spec, BlockLorentz):
        return {"kind": "block_lorentz", "outer": _norm_to_dict(spec.outer),
                "blocks": [lattice_to_dict(b) for b in spec.blocks]}
    if isinstance(spec, Example54Dual):
        return {"kind": "example54_dual", "p": spec.p}
    if isinstance(spec, PredualOf):
        return {"kind": "predual_of", "inner": _norm_to_dict(spec.inner)}
    if isinstance(spec, GaugeOf):
        return {"kind": "gauge_of", "generators": [list(g) for g in spec.body.generators]}
    raise TypeError(f"unknown norm spec {spec!r}")


def lattice_to_dict(lat: NormedLattice) -> dict:
    return {"dim": lat.dim, "norm": _norm_to_dict(lat.norm)}
