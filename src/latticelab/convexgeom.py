"""Solid convex bodies, Minkowski gauges, polar-set membership, numeric
verification of the polarity theorem for operator image bodies, minimal
convex factorizations, and Calderon-style interpolation of bodies.

The C-side body of an operator T is generated by vectors
sigma(|T x_1|, ..., |T x_m|) over families with tau(||x_1||, ..., ||x_m||) <= 1;
the D-side is a supremum over decompositions sigma(|u_1|,...,|u_m|) <= |u|.
Both are handled one-sidedly: bodies are inner approximations and D-membership
means "no violating decomposition found".
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np
# linprog is unused here, but perfbench/tracer.py wraps convexgeom.linprog by name
from scipy.optimize import linprog  # noqa: F401
from scipy.spatial import HalfspaceIntersection, QhullError

from . import _util
from ._util import conjugate, lp_norm, rng_for
from .core import (
    GaugeOf,
    LatticeSchemaError,
    LinOperator,
    NormedLattice,
    SymmetricSeqNorm,
    as_vector,
    eval_dual_norm,
    sigma_apply,
    sigma_dual,
    _built,
    _json_floats,
    _want,
)

__all__ = [
    "SolidConvexBody",
    "FactorizationTriple",
    "gauge",
    "gauge_rows",
    "gauge_norming",
    "body_contains",
    "support_function",
    "support_function_witness",
    "build_C_body",
    "search_D_violation",
    "verify_polarity",
    "build_minimal_factorization",
    "interpolate_theta",
]


class SolidConvexBody:
    """{y : |y| <= sum_k lambda_k |g_k|, lambda >= 0, sum lambda <= 1}.

    The generators g_k are the rows of one read-only float array, checked
    once here: an empty, ragged or non-finite input raises LatticeSchemaError
    with a path relative to the body document (``generators/1/0``)."""

    def __init__(self, generators):
        try:
            G = np.array(generators, dtype=float)
        except (TypeError, ValueError):
            G = None
        if G is None or G.ndim != 2 or G.size == 0:
            raise LatticeSchemaError("generators", "expected a nonempty list of vectors of one dimension")
        if not np.isfinite(G).all():
            i, j = np.argwhere(~np.isfinite(G))[0]
            raise LatticeSchemaError(f"generators/{i}/{j}", f"entry must be finite, got {G[i, j]}")
        G.setflags(write=False)
        self._G = G

    def __eq__(self, other):
        if not isinstance(other, SolidConvexBody):
            return NotImplemented
        return np.array_equal(self._G, other._G)

    def __hash__(self):
        return hash(self.generators)

    def __repr__(self):
        return f"SolidConvexBody({self.generators!r})"

    @property
    def dim(self) -> int:
        return self._G.shape[1]

    @cached_property
    def generators(self) -> tuple:
        return tuple(tuple(g) for g in self._G.tolist())

    @cached_property
    def gen_matrix(self) -> np.ndarray:
        G = np.abs(self._G)
        G.setflags(write=False)
        return G

    @cached_property
    def polar_vertices(self) -> "_PolarVertices | None":
        """The vertices of the polar {z >= 0 : G z <= 1} of ``gen_matrix``,
        each with its d active constraints (see :func:`_polar_vertices`);
        None unless 2 <= d <= 4 and no column of G is zero."""
        return _polar_vertices(self.gen_matrix)

    def to_dict(self) -> dict:
        return {"generators": self._G.tolist()}

    @staticmethod
    def from_dict(doc, path: str = "") -> "SolidConvexBody":
        """Parse ``{"generators": [[...], ...]}``; every entry must be a finite
        number.  Error paths are prefixed by ``path``."""
        raw = _want(doc, "generators", path, list, "a list of vectors")
        return _built(path, SolidConvexBody, _json_floats(raw, f"{path}/generators", 2))


@dataclass(frozen=True, eq=False)
class FactorizationTriple:
    Y: NormedLattice
    U: LinOperator
    V: LinOperator
    kind: str  # "ClassC" | "ClassD"
    report: dict = field(default_factory=dict)


def _body_vector(B: SolidConvexBody, y) -> np.ndarray:
    v = as_vector(y)
    if v.shape[0] != B.dim:
        raise ValueError(f"vector has dim {v.shape[0]}, body has dim {B.dim}")
    return v


# on the scaled tableau: a pivot entry or step at most _PIVOT_EPS counts as
# zero, and a reduced cost must be below -_COST_EPS to enter
_PIVOT_EPS = 1e-12
_COST_EPS = 1e-15
# relative slack allowed in the feasibility certificate of z and lam
_CERT_TOL = 1e-12


def _gauge_lp(G: np.ndarray, a: np.ndarray):
    """max <a, z> s.t. G z <= 1, z >= 0, for G, a >= 0: the dual of the gauge LP
    min sum(lam) s.t. G^T lam >= a, lam >= 0.  Returns the optimal z, or None
    when the gauge is infinite (some a_j > 0 meets a zero column of G).

    A dense dictionary simplex on the (k+1) x (d+1) tableau of G, with its
    columns scaled to max 1, started at the feasible vertex z = 0.  Dantzig's
    rule picks the entering variable, and Bland's rule the pivot after a
    degenerate one, so it cannot cycle.  The final basis is solved again on
    the unscaled data for z and for the multipliers lam, which must both be
    feasible within ``_CERT_TOL`` relative (G z <= 1, G^T lam >= a);
    otherwise RuntimeError.  Then <a, z> <= gauge <= sum(lam), and the two
    agree up to the rounding of the basis solves."""
    k, d = G.shape
    z, lam = np.zeros(d), np.zeros(k)
    amax = a.max()
    if amax == 0.0:
        return z
    scale = G.max(axis=0)
    zero = scale == 0.0
    if zero.any():
        if a[zero].any():
            return None
        scale[zero] = 1.0   # a zero column has cost 0 and never enters
    T = np.empty((k + 1, d + 1))
    T[:k, :d] = G / scale
    T[:k, d] = 1.0
    c = a / scale
    T[k, :d] = c / -c.max()
    T[k, d] = 0.0
    # variable labels: z_j is j, the slack of row i is d + i
    basic = list(range(d, d + k))
    nonbasic = list(range(d))
    rhs, cost = T[:k, d], T[k, :d]   # views; rhs is kept >= 0 after each pivot
    ratio = np.empty(k)
    bland = False
    for _ in range(50 * (k + d)):
        if bland:
            enter = [j for j in range(d) if cost[j] < -_COST_EPS]
            if not enter:
                break
            e = min(enter, key=nonbasic.__getitem__)
        else:
            e = int(cost.argmin())
            if cost[e] >= -_COST_EPS:
                break
        col = T[:, e].copy()
        colk = col[:k]
        ratio.fill(np.inf)
        np.divide(rhs, colk, out=ratio, where=colk > _PIVOT_EPS)
        r = int(ratio.argmin())
        step = ratio[r]
        if step == np.inf:
            raise RuntimeError("gauge LP failed: no pivot row on a bounded problem")
        if bland:   # leaving row: the smallest label among the tied rows
            r = min((ratio == step).nonzero()[0], key=basic.__getitem__)
        bland = step <= _PIVOT_EPS
        p = col[r]
        col[r] = 0.0
        T[r] /= p
        T -= col[:, None] * T[r]
        col /= -p
        col[r] = 1.0 / p
        T[:, e] = col
        np.maximum(rhs, 0.0, out=rhs)
        basic[r], nonbasic[e] = nonbasic[e], basic[r]
    else:
        raise RuntimeError("gauge LP failed: pivot limit reached")
    J = [j for j in basic if j < d]
    R = [i - d for i in nonbasic if i >= d]
    if J:
        M = G[R][:, J]
        try:
            z[J] = np.maximum(np.linalg.solve(M, np.ones(len(J))), 0.0)
            lam[R] = np.maximum(np.linalg.solve(M.T, a[J]), 0.0)
        except np.linalg.LinAlgError:
            raise RuntimeError("gauge LP failed: singular final basis") from None
    if not ((G @ z).max() <= 1.0 + _CERT_TOL and (G.T @ lam - a).min() >= -_CERT_TOL * amax):
        raise RuntimeError("gauge LP failed: final basis is not certified feasible")
    return z


class _PolarVertices(NamedTuple):
    """Vertices z of the polar {z >= 0 : G z <= 1}, one row each, with a basis
    of d active constraints per vertex: ``basis[v]`` holds their rows (a
    generator, or -e_j for z_j >= 0), ``inverse[v]`` the inverse of that d x d
    matrix, and ``on_g[v]`` marks the generator rows."""

    z: np.ndarray
    basis: np.ndarray
    inverse: np.ndarray
    on_g: np.ndarray


def _polar_vertices(G: np.ndarray):
    """The vertex set behind ``SolidConvexBody.polar_vertices``, or None.

    For 2 <= d <= 4 and no zero column of G the polar is a polytope, and t 1
    with t = 0.5 / (largest row sum of G) lies inside it.  qhull's halfspace
    intersection (option Qt: every vertex comes with exactly d facets) lists
    the vertices; each is solved again on the unscaled data through the
    inverse of its basis, clamped at 0, and kept only if G z <= 1 + 1e-12.  A
    vertex whose basis is singular is dropped: the certificate of
    :func:`_gauge_stack` catches an argmax that a missing vertex makes not
    optimal."""
    k, d = G.shape
    if not 2 <= d <= 4 or not G.max(axis=0).all():
        return None
    rows = np.vstack([G, -np.eye(d)])
    rhs = np.concatenate([np.ones(k), np.zeros(d)])
    try:
        hs = HalfspaceIntersection(np.column_stack([rows, -rhs]),
                                   np.full(d, 0.5 / G.sum(axis=1).max()), qhull_options="Qt")
        facets = np.array(hs.dual_facets)
    except (QhullError, ValueError):
        return None
    # Qt may triangulate a vertex where more than d facets meet into flat
    # simplices, whose bases are singular
    facets = facets[np.linalg.det(rows[facets]) != 0.0]
    basis = rows[facets]
    inverse = np.linalg.inv(basis)
    z = np.maximum(np.einsum("vij,vj->vi", inverse, rhs[facets]), 0.0)
    keep = (z @ G.T).max(axis=1) <= 1.0 + _CERT_TOL
    if not keep.any():
        return None
    return _PolarVertices(z[keep], basis[keep], inverse[keep], facets[keep] < k)


def _gauge_stack(B: SolidConvexBody, A: np.ndarray) -> tuple:
    """(values, Z, work) for a checked (m, d) stack A of moduli: the gauges,
    the optimal dual points z as the rows of Z (0 where a gauge is 0 or
    infinite), and the counts (vertex_rows, simplex_rows, vertex_sets) of
    rows each path served and of vertex sets this call built (0 or 1).

    With a vertex set, each row takes the vertex z of largest <a, z> and the
    multipliers mu = B^{-T} a of that vertex's basis B; lam = max(mu, 0) on
    the generator rows.  The row is accepted only if G^T lam >= a - 1e-12
    max(a), the inequality ``_gauge_lp`` certifies, and sum(lam) <= <a, z>
    (1 + 1e-12): then <a, z> <= gauge <= sum(lam) pins the value.  Every
    other row, and every row of a body without a vertex set, is solved by
    ``_gauge_lp``."""
    G = B.gen_matrix
    fresh = "polar_vertices" not in vars(B)
    P = B.polar_vertices
    Z = np.zeros_like(A)
    rest = range(len(A))
    if P is not None and len(A):
        idx = (A @ P.z.T).argmax(axis=1)
        zs = P.z[idx]
        mu = (A[:, None] @ P.inverse[idx])[:, 0]
        lam = np.maximum(mu, 0.0) * P.on_g[idx]
        slack = (lam[:, None] @ P.basis[idx])[:, 0] - A
        amax = A.max(axis=1)
        ok = ((slack.min(axis=1) >= -_CERT_TOL * amax)
              & (lam.sum(axis=1) <= (A * zs).sum(axis=1) * (1.0 + _CERT_TOL)))
        live = ok & (amax > 0.0)
        Z[live] = zs[live]
        rest = np.flatnonzero(~ok)
    infinite = []
    for i in rest:
        z = _gauge_lp(G, A[i])
        if z is None:
            infinite.append(i)
        else:
            Z[i] = z
    values = (A * Z).sum(axis=1)
    values[infinite] = math.inf
    return values, Z, (len(A) - len(rest), len(rest), int(fresh and P is not None))


def _body_rows(B: SolidConvexBody, Y) -> np.ndarray:
    """|Y| for a (m, d) stack of finite vectors of the body's dimension."""
    A = np.asarray(Y, dtype=float)
    if A.ndim != 2 or A.shape[1] != B.dim:
        raise ValueError(f"expected a stack of vectors of dim {B.dim}, got shape {A.shape}")
    if not np.isfinite(A).all():
        raise ValueError("vector entries must be finite")
    return np.abs(A)


def gauge_rows(B: SolidConvexBody, Y) -> np.ndarray:
    """The gauges of the rows of a (m, d) stack Y, checked once; see
    :func:`gauge`.  The body's polar vertices are enumerated on the first
    call and serve every later stack on the same body."""
    return _gauge_stack(B, _body_rows(B, Y))[0]


def gauge(B: SolidConvexBody, y) -> float:
    """Minkowski functional: min sum lambda_k s.t. |y| <= sum lambda_k |g_k|,
    lambda >= 0; infinity when y is outside the ideal spanned by generators.

    By LP duality the gauge is max <|y|, z> over the polar polytope
    P = {z >= 0 : G z <= 1}.  For 2 <= d <= 4 and no zero column of G, P's
    vertices are enumerated once per body (``SolidConvexBody.polar_vertices``)
    and the gauge is the best vertex, accepted only with multipliers lambda
    that certify it: G^T lambda >= |y| within 1e-12 max|y|, and sum(lambda)
    equal to the value within 1e-12 relative.  A vector that fails the
    certificate, and every vector of a body without a vertex set, goes to the
    dense simplex ``_gauge_lp``, which certifies its own answer the same way.
    Either way the value is <|y|, z> with G z <= 1 + 1e-12, so a generator
    never has gauge above 1 + 1e-12.  One vector is the one-row case of
    :func:`gauge_rows`."""
    return float(_gauge_stack(B, np.abs(_body_vector(B, y))[None])[0][0])


def gauge_norming(B: SolidConvexBody, y) -> np.ndarray:
    """b with <y, b> = gauge(y) and support_function(B, b) <= 1: sgn(y) z for
    the certified optimal vertex z of the polar that :func:`gauge` picks, or
    the optimal z of the ``_gauge_lp`` fallback (G z <= 1 within 1e-12 either
    way)."""
    v = _body_vector(B, y)
    values, Z, _ = _gauge_stack(B, np.abs(v)[None])
    if values[0] == math.inf:
        raise ValueError("gauge is infinite here; no norming functional")
    return np.where(v < 0, -1.0, 1.0) * Z[0]


def body_contains(B: SolidConvexBody, y, tol: float = 1e-9) -> bool:
    return gauge(B, y) <= 1.0 + tol


def support_function(B: SolidConvexBody, b) -> float:
    return support_function_witness(B, b)[0]


def support_function_witness(B: SolidConvexBody, b):
    """max over generators of <|g_k|, |b|>, with the attaining body point."""
    v = _body_vector(B, b)
    G = B.gen_matrix
    vals = G @ np.abs(v)
    k = int(np.argmax(vals))
    sgn = np.where(np.sign(v) == 0, 1.0, np.sign(v))
    return float(vals[k]), sgn * G[k]


# ---------------------------------------------------------------------------
# C bodies


def _sphere_points(E: NormedLattice, budget: int, seed: int) -> np.ndarray:
    """Unit-norm direction discretization in the lattice E."""
    n = E.dim
    pts = [np.eye(n)[i] * s for i in range(n) for s in (1.0, -1.0)]
    if n == 2:
        th = np.linspace(0, 2 * np.pi, 48, endpoint=False)
        pts += [np.array([np.cos(t), np.sin(t)]) for t in th]
    elif n == 3:
        m = 80
        idx = np.arange(m, dtype=float) + 0.5
        phi = np.arccos(1 - 2 * idx / m)
        theta = np.pi * (1 + 5 ** 0.5) * idx
        pts += list(np.stack([np.cos(theta) * np.sin(phi),
                              np.sin(theta) * np.sin(phi), np.cos(phi)], axis=1))
    if n > 1:
        rng = rng_for(seed, "sphere", n)
        pts += list(rng.standard_normal((max(8, min(budget // 50, 200)), n)))
    out = []
    for x in pts:
        nv = E.norm.evaluate(x)
        if nv > 1e-12:
            out.append(x / nv)
    return np.array(out)


def _sigma_rows(sigma: SymmetricSeqNorm, fams) -> np.ndarray:
    """sigma_apply of each (m, d) family, m <= 4, by one lp_norm call on the
    zero-padded (K, 4, d) stack: the pads add exactly, bit for bit."""
    stack = np.zeros((len(fams), 4, fams[0].shape[1]))
    for k, fam in enumerate(fams):
        stack[k, :len(fam)] = fam
    return lp_norm(stack, sigma.p, axis=1)


def _tau_weights(tau: SymmetricSeqNorm, m: int, rng) -> np.ndarray:
    """Random positive weights with tau-norm exactly 1."""
    c = rng.random(m) + 0.05
    return c / tau(c)


def build_C_body(T: LinOperator, tau: SymmetricSeqNorm, sigma: SymmetricSeqNorm,
                 budget: int = 2000, seed: int = 0) -> SolidConvexBody:
    """Inner approximation of the convexity body of T: generators are
    sigma-combinations of images of tau-admissible families, always including
    all singleton families from a sphere discretization (so the body contains
    the sampled image of the unit ball)."""
    E = T.domain
    sphere = _sphere_points(E, budget, seed)
    gens = [np.abs(T.matrix @ x) for x in sphere]
    rng = rng_for(seed, "cbody", E.dim)
    fams = []
    for _ in range(max(8, budget // 20)):
        m = int(rng.integers(1, 5))
        dirs = sphere[rng.integers(0, len(sphere), size=m)]
        c = _tau_weights(tau, m, rng)
        fams.append(np.array([T.matrix @ (c[i] * dirs[i]) for i in range(m)]))
    return SolidConvexBody(_prune_generators(np.vstack([gens, _sigma_rows(sigma, fams)])))


def _prune_generators(gens: np.ndarray, cap: int = 1000) -> np.ndarray:
    """The moduli of the nonzero rows, rounded to 12 digits and deduplicated, in
    decreasing order of row sum (an unstable sort of the rows in lexicographic
    order), each kept unless a row kept before it covers it (row <= kept + 1e-12);
    at most ``cap`` rows, and one zero row when all are zero.  Cover within 1e-12
    is not transitive, so a row covered only by dropped rows is kept: blocks of
    256 rows are pruned at once, with a loop over such rows only."""
    gens = np.abs(gens)
    keep = gens[np.any(gens > 0, axis=1)]
    if keep.size == 0:
        return np.zeros((1, gens.shape[1]))
    keep = np.round(keep, 12)
    keep = keep[np.lexsort(keep.T[::-1])]
    keep = keep[np.r_[True, np.any(keep[1:] != keep[:-1], axis=1)]]
    keep = keep[np.argsort(-keep.sum(axis=1))]
    out = keep[:0]
    for start in range(0, len(keep), 256):
        R = keep[start:start + 256].T
        live = ~(R[:, :, None] <= out.T[:, None] + 1e-12).all(axis=0).any(axis=1)
        # cover[i, j]: the earlier live row j covers row i
        cover = (R[:, :, None] <= R[:, None] + 1e-12).all(axis=0) & np.tri(R.shape[1], k=-1, dtype=bool) & live
        kept = live & ~cover.any(axis=1)
        for i in np.flatnonzero(live & ~kept & ~(cover & kept).any(axis=1)):
            kept[i] = not (cover[i] & kept).any()
        out = np.vstack([out, R.T[kept][:cap - len(out)]])
        if len(out) >= cap:
            break
    return out


def _with_extra(body: SolidConvexBody, extra) -> SolidConvexBody:
    allg = np.vstack([body.gen_matrix, np.abs(np.array(extra))])
    return SolidConvexBody(_prune_generators(allg))


def _append_raw(body: SolidConvexBody, extra) -> SolidConvexBody:
    """Append without the pruning pass; for tight repair iterations."""
    allg = np.vstack([body.gen_matrix, np.abs(np.array(extra))])
    return SolidConvexBody(allg)


# ---------------------------------------------------------------------------
# D-side search


def _column_options(sigma_p: float, grid: int):
    """(c_1, c_2) pairs with sigma-norm <= 1 per column, both signs, sorted.

    The list is closed under the three maps behind :func:`_option_orbits`:
    negating c_1, negating c_2, and swapping the two.  Signs close it because
    each magnitude pair appears with all four; the swap closes it because c_2
    takes its magnitudes from the t grid reversed, so (c_1, c_2) at t is
    (c_2, c_1) at 1 - t (on ``linspace(0, 1, 9)`` the reversed grid is 1 - t
    exactly)."""
    opts = []
    if sigma_p == math.inf:
        mags = [(1.0, 1.0)]
    else:
        ts = np.linspace(0.0, 1.0, grid)
        mags = [(t ** (1.0 / sigma_p), r ** (1.0 / sigma_p)) for t, r in zip(ts, ts[::-1])]
    for m1, m2 in mags:
        for s1 in (1.0, -1.0):
            for s2 in (1.0, -1.0):
                opts.append((s1 * m1, s2 * m2))
    return sorted(set(opts))


def _option_orbits(opts: np.ndarray) -> tuple:
    """Orbit tables of the (K, 2) column options under the group of 8 maps
    generated by negating c_1, negating c_2 and swapping the two.

    Returns ``perms``, an (8, K) array whose row g sends option k to the index
    of its image under map g (row 0 is the identity), and ``reps``, the indices
    of the options with 0 <= c_1 <= c_2, which meet every orbit.  Images are
    found by dict lookup, where -0.0 and 0.0 key alike; an option list not
    closed under the maps raises KeyError."""
    pairs = list(map(tuple, opts.tolist()))
    where = {o: k for k, o in enumerate(pairs)}
    neg1 = np.array([where[(-c1, c2)] for c1, c2 in pairs])
    neg2 = np.array([where[(c1, -c2)] for c1, c2 in pairs])
    swap = np.array([where[(c2, c1)] for c1, c2 in pairs])
    signs = np.array([np.arange(len(pairs)), neg1, neg2, neg1[neg2]])
    reps = np.flatnonzero((opts[:, 0] >= 0) & (opts[:, 0] <= opts[:, 1]))
    return np.vstack([signs, swap[signs]]), reps


def _signs(k: int) -> np.ndarray:
    """The 2^k rows of +-1 signs; row b is +1 exactly at the set bits of b."""
    return np.where((np.arange(2 ** k)[:, None] >> np.arange(k)) & 1, 1.0, -1.0)


def _decomposition_values(T: LinOperator, tau, images: np.ndarray) -> np.ndarray:
    """tau(||T u_1||, ..., ||T u_m||) for a (..., m, d) stack of part images,
    with all codomain norms from one eval_rows call."""
    norms = T.codomain.norm.eval_rows(images.reshape(-1, images.shape[-1]))
    return lp_norm(norms.reshape(images.shape[:-1]), tau.p, axis=-1)


def _best_decomposition(T: LinOperator, U: np.ndarray, tau, C: np.ndarray) -> tuple:
    """Scores a (K, m, n) stack of multiplier matrices c, or one such stack per
    row of the (G, n) stack U: each is the decomposition u_i = c_i o u.  Returns
    the values and the (m, n) parts of the first maximizer of each row."""
    parts = C * U[:, None, None, :]
    vals = _decomposition_values(T, tau, parts @ T.matrix.T)
    k, at = np.argmax(vals, axis=1), np.arange(len(U))
    return vals[at, k], parts[at, k]


def _best_grid_decomposition(T: LinOperator, U: np.ndarray, tau, opts, orbits) -> tuple:
    """The best of the two-part decompositions of each row u of the (G, n)
    stack U whose column j is one row of the (K, 2) option array ``opts``, of
    orbit tables ``orbits``, times u_j: all K^n of them, rows in np.indices
    order.  Returns the values and the (2, n) parts of the first maximizer of
    each row in that order, the row np.argmax picks on the full grid.

    Only an orbit quotient is scored.  Negating either part in every
    coordinate, or swapping the parts, maps a grid row to one of the same
    value, bit for bit: IEEE negation is exact, every norm kind is evaluated
    on |x|, and the two-term tau sum commutes.  Every orbit of these 8 maps
    (:func:`_option_orbits`) holds a row whose coordinate-0 option has
    0 <= c_1 <= c_2, so only those rows are scored (5 of 32 options at grid
    9, 1 of 4 when sigma = inf).  The full grid's maximizers are the orbits
    of the scored rows that tie the maximum; the first of them is the least
    full-grid index over those orbits.  The images of the column options are
    formed once per coordinate and summed by broadcasting."""
    K, (G, n), d = len(opts), U.shape, T.codomain.dim
    perms, reps = orbits
    images = np.zeros((G, 1, 2, d))
    for j in range(n):
        col = ((opts[reps] if j == 0 else opts) * U[:, j, None, None])[..., None] * T.matrix[:, j]
        images = (images[:, :, None] + col[:, None]).reshape(G, -1, 2, d)
    vals = _decomposition_values(T, tau, images)
    top = vals[np.arange(G), np.argmax(vals, axis=1)]
    at, tied = np.nonzero(np.where(np.isnan(top)[:, None], np.isnan(vals), vals == top[:, None]))
    rows = np.array(np.unravel_index(tied, (len(reps),) + (K,) * (n - 1)))
    rows[0] = reps[rows[0]]
    full = np.ravel_multi_index(tuple(perms[:, rows].transpose(1, 0, 2)), (K,) * n).min(axis=0)
    first = np.full(G, K ** n)
    np.minimum.at(first, at, full)
    pick = np.stack(np.unravel_index(first, (K,) * n), axis=1)
    return top, opts[pick].transpose(0, 2, 1) * U[:, None, :]


def _d_plan(n: int, tau, sigma, budget: int, seed: int) -> tuple:
    """What the D searches on R^n share for one (tau, sigma, budget, seed):
    sigma.p, the no-split sign rows, the split grid's options and orbit tables
    (n <= 3), the sigma = inf vertex stacks, the random stage's normal block
    per part count, and, from the state after those, the polish noise for each
    part count 2..4 a polish can start from."""
    rng = rng_for(seed, "dsearch", n, tau.p, sigma.p)
    rows = np.ones((1, n)) if n > 10 else np.vstack([np.ones(n), _signs(n)])
    grid, vertices = None, []
    if n <= 3:
        opts = np.array(_column_options(sigma.p, 9))
        grid = (opts, _option_orbits(opts))
        if sigma.p == math.inf:
            # the per-coordinate constraint decouples and the objective is
            # convex in each entry, so +-1 vertices are exhaustive
            vertices = [_signs(m * n).reshape(-1, m, n) for m in (2, 3, 4) if 2 ** (m * n) <= 5000]
    ms = rng.integers(1, 5, size=max(16, budget // 8))
    draws = [rng.standard_normal((k, m, n)) for m in range(1, 5) if (k := np.count_nonzero(ms == m))]
    state, polish = rng.bit_generator.state, {}
    for m in (2, 3, 4):
        rng.bit_generator.state = state
        polish[m] = rng.standard_normal((max(0, min(150, budget // 10)), m, n))
    return sigma.p, rows[:, None, :], grid, vertices, draws, polish


def _sigma_tight(raw: np.ndarray, U: np.ndarray, sigma_p: float) -> np.ndarray:
    """The random stage's signed multipliers for each row u of the (G, n) stack
    U: the (k, m, n) normal block raw, zero off the support of u, each column
    scaled to sigma-norm 1 (a (G, k, m, n) stack)."""
    supp = U[:, None, :] != 0
    c = raw * supp[:, None]
    colnorm = lp_norm(c, sigma_p, axis=2) if c.shape[2] > 1 else np.abs(c[:, :, 0])
    scale = np.where(colnorm > 0, 1.0 / np.maximum(colnorm, 1e-300), 0.0) * supp
    return c * scale[:, :, None, :]


def _polish(T: LinOperator, Ug: np.ndarray, tau, sigma_p: float, parts: np.ndarray,
            noise: np.ndarray) -> tuple:
    """The hill-climb polish of each row u of the (G, n) stack Ug from its
    (m, n) parts in the (G, m, n) stack ``parts``: the multipliers
    c = parts / u climb together in one :func:`_util.climb_lockstep`, all on
    the (iters, m, n) ``noise``, each proposal's columns put back into the
    sigma-ball and zeroed off the support of u.  Returns the value of each
    row's climb and its parts c o u."""
    U3 = Ug[:, None, :]
    supp = U3 != 0
    C0 = np.divide(parts, U3, out=np.zeros_like(parts), where=supp)

    def score(C, climbs):
        return _decomposition_values(T, tau, (C * U3[climbs]) @ T.matrix.T)

    def project(C, climbs):
        return C / np.maximum(lp_norm(C, sigma_p, axis=1), 1.0)[:, None, :] * supp[climbs]

    shared = np.broadcast_to(noise[:, None], (len(noise),) + C0.shape)
    C, vals = _util.climb_lockstep(score, C0, score(C0, np.arange(len(Ug))), project, shared)
    return vals, C * U3


def _d_search_rows(T: LinOperator, U: np.ndarray, tau, plan: tuple) -> tuple:
    """(best, best_parts) of the search behind :func:`search_D_violation` on
    each row u of a checked (N, n) float stack U, with the stacks and draws of
    ``plan``: two lists, a float and (m, n) parts per row, the parts also when
    best <= 1 and None when no decomposition scores above 0.  Each candidate
    stage scores the nonzero rows in groups whose (K, m, max(n, d)) stacks fit
    in ``_util.NOISE_BYTES`` (one row at least), one stacked call per group;
    the polish climbs the rows whose best decomposition has m parts in groups
    bounded alike (K the m-part noise's proposals), one :func:`_polish` per
    group and m.  A row's result is the one-row search's, bit for bit."""
    sigma_p, rows, grid, vertices, draws, polish = plan
    n = U.shape[1]
    best, best_parts = [0.0] * len(U), [None] * len(U)
    live = np.flatnonzero(np.any(U != 0, axis=1))

    def stage(score, cands, at=live):  # cands: the K * m decomposition parts scored per row
        size = max(1, _util.NOISE_BYTES // (cands * max(n, T.codomain.dim) * 8))
        for start in range(0, len(at), size):
            group = at[start:start + size]
            vals, parts = score(group)
            for i, val, part in zip(group, vals.tolist(), parts):
                if val > best[i]:
                    best[i], best_parts[i] = val, part

    # no-split candidates (m = 1, |c| <= 1 entrywise; vertices suffice)
    stage(lambda g: _best_decomposition(T, U[g], tau, rows), len(rows))
    if grid is not None:
        # exhaustive two-part decompositions on a per-coordinate split grid
        opts, (_, reps) = grid
        stage(lambda g: _best_grid_decomposition(T, U[g], tau, *grid),
              2 * len(reps) * len(opts) ** (n - 1))
    for C in vertices:
        stage(lambda g, C=C: _best_decomposition(T, U[g], tau, C), C.shape[0] * C.shape[1])
    # random decompositions, one stacked draw for each part count m
    for raw in draws:
        stage(lambda g, raw=raw: _best_decomposition(T, U[g], tau, _sigma_tight(raw, U[g], sigma_p)),
              raw.shape[0] * raw.shape[1])
    # local polish of each row's best decomposition of 2..4 parts
    for m, noise in polish.items():
        at = np.array([i for i in live if best_parts[i] is not None and len(best_parts[i]) == m],
                      dtype=int)
        stage(lambda g, noise=noise: _polish(T, U[g], tau, sigma_p,
                                             np.stack([best_parts[i] for i in g]), noise),
              max(1, len(noise)) * m, at)
    return best, best_parts


def _d_search(T: LinOperator, u: np.ndarray, tau, plan: tuple) -> tuple:
    """(best, best_parts) of :func:`_d_search_rows` on the one vector u."""
    best, best_parts = _d_search_rows(T, u[None], tau, plan)
    return best[0], best_parts[0]


def search_D_violation(T: LinOperator, u, tau: SymmetricSeqNorm, sigma: SymmetricSeqNorm,
                       budget: int = 2000, seed: int = 0) -> dict:
    """rho(u) = sup{tau(||T u_1||, ..., ||T u_m||) : sigma(|u_1|,...,|u_m|) <= |u|},
    searched over multiplier decompositions u_i = c_i o u.  in_D means no
    decomposition with value > 1 was found (one-sided).

    The search is the one-row case of the stacked search that
    :func:`verify_polarity` runs on all its sampled vectors at once
    (:func:`_d_search_rows`).  Each stage scores its candidates as one stack:
    the no-split sign vertices; for n <= 3 the two-part split grid
    (:func:`_best_grid_decomposition`), whose column images are formed once
    per coordinate and summed by broadcasting; for sigma = inf the +-1
    vertices of 2-4 parts; max(16, budget // 8) random decompositions, drawn
    as one block per part count m in 1..4 (all stacks and draws are one
    :func:`_d_plan`); then a hill-climb polish of the best one
    (:func:`_polish`, one :func:`_util.climb_lockstep` window of proposals
    per accept round).  The split grid scores one row or a few per orbit of
    part negations and the part swap (5,120 of its 32,768 rows at n = 3), all
    of the same value, and returns the first maximizer of the full grid, so
    the search's result is the one the full grid gives.  No multiplier depends on |u|, so the search is positively
    homogeneous: rho at s u is s times rho at u, with the parts scaled by s,
    which both directions of :func:`verify_polarity` rely on."""
    u = as_vector(u)
    if u.shape[0] != T.domain.dim:
        raise ValueError("dimension mismatch")
    best, best_parts = _d_search(T, u, tau, _d_plan(u.shape[0], tau, sigma, budget, seed))
    witness = list(best_parts) if best > 1.0 else None
    return {"in_D": bool(best <= 1.0), "witness": witness, "rho_lower": float(best)}


# ---------------------------------------------------------------------------
# polarity verification


def _enrichment_generator(T: LinOperator, tau, sigma, parts) -> np.ndarray:
    """Convert a D-side decomposition of u* (for T*) into a tau-admissible
    family for T whose sigma-image nearly supports u* at the decomposition's
    value: x_i norms T* u*_i, weights t are Holder-tight for tau."""
    A = T.adjoint()
    s_vals, xs = [], []
    for part in parts:
        est = eval_dual_norm(T.domain, A.apply(part))
        s_vals.append(est.value)
        xs.append(as_vector(est.witness))
    s = np.array(s_vals)
    a = tau.p
    if not np.any(s > 0):
        return np.zeros(T.codomain.dim)
    if a == math.inf:
        t = np.ones_like(s)
    elif a == 1:
        t = np.zeros_like(s)
        t[int(np.argmax(s))] = 1.0
    else:
        ast = conjugate(a)
        t = (s / np.max(s)) ** (ast / a)
        t = t / tau(t)
    fam = [t[i] * xs[i] for i in range(len(xs))]
    return sigma_apply(sigma, [T.apply(x) for x in fam])


def _polar_scale(body: SolidConvexBody, w: np.ndarray) -> float:
    """s with w / s on the boundary of the body's polar: the support function
    at w, or 1 when that is <= 1e-12."""
    sup = support_function(body, w)
    return 1.0 if sup <= 1e-12 else sup


def verify_polarity(T: LinOperator, tau: SymmetricSeqNorm, sigma: SymmetricSeqNorm,
                    sample_count: int = 10000, seed: int = 0) -> dict:
    """Checks, one-sidedly, that the polar of the (inner-approximated) C body
    of T is the D set of T* with dual exponents: (a) sampled polar members
    pass the D-check at 1 + 1e-6; (b) sampled D-violators lie outside the
    polar up to 5e-2.  On failures the body is enriched with the family
    induced by the violating decomposition (up to 3 rounds) before a
    counterexample is recorded.

    The vectors of both directions are drawn up front and searched once, in
    one stacked D search (:func:`_d_search_rows`, one :func:`_d_plan`) whose
    stages score them in row groups of bounded bytes.  rho and the D search
    are positively homogeneous, so each direction rescales its vector's
    search: (a) checks u* = w / s, s the support function of the current body
    at w (1 when that is <= 1e-12), as rho(w) / s with parts / s, after every
    enrichment too; (b) takes the violator u* = w (1 + 1e-3) / rho(w) and its
    decomposition scaled alike.  ``d_searches`` counts the vectors searched."""
    A = T.adjoint()
    tau_d, sigma_d = sigma_dual(tau), sigma_dual(sigma)
    body = build_C_body(T, tau, sigma, budget=max(400, sample_count // 5), seed=seed)
    degenerate = not np.any(body.gen_matrix > 0)
    dim = T.codomain.dim
    rng = rng_for(seed, "polarity", T.domain.dim, dim)
    n_dir = max(12, min(60, sample_count // 150))
    # direction (a): random directions and the unit vectors; then (b)'s samples
    dirs = np.vstack([rng.standard_normal((n_dir, dim)), np.eye(dim)])
    ws = rng.standard_normal((max(10, n_dir // 2), dim))
    plan = _d_plan(dim, tau_d, sigma_d, max(400, sample_count // 10), seed)
    rhos, parts = _d_search_rows(A, np.vstack([dirs, ws]), tau_d, plan)
    enrich_rounds = 0
    a_viol, b_viol = [], []
    a_checked = b_checked = 0

    # direction (a): C-polar members must be in D
    for w, rho_w, parts_w in zip(dirs, rhos, parts):
        a_checked += 1
        for round_ in range(4):
            s = _polar_scale(body, w)
            rho = rho_w / s
            ok = rho <= 1 + 1e-6
            if ok or round_ == 3:
                break
            g = _enrichment_generator(T, tau, sigma, list(parts_w / s))
            body = _with_extra(body, [g])
            enrich_rounds += 1
        if not ok:
            a_viol.append({"u_star": (w / s).tolist(), "rho_lower": rho})

    # direction (b): D-violators must leave the polar
    for w, rho, parts_w in zip(ws, rhos[len(dirs):], parts[len(dirs):]):
        if rho <= 1e-9:
            continue
        scale = (1.0 + 1e-3) / rho
        ustar = w * scale
        b_checked += 1
        for round_ in range(4):
            ok = support_function(body, ustar) > 1 - 5e-2
            if ok or round_ == 3:
                break
            g = _enrichment_generator(T, tau, sigma, list(parts_w * scale))
            body = _with_extra(body, [g])
            enrich_rounds += 1
        if not ok:
            b_viol.append({"u_star": ustar.tolist(),
                           "support": support_function(body, ustar),
                           "rho_lower": rho * scale})

    return {
        "pass": not a_viol and not b_viol,
        "degenerate_zero_operator": bool(degenerate),
        "direction_a": {"checked": a_checked, "violations": a_viol},
        "direction_b": {"checked": b_checked, "violations": b_viol},
        "enrichment_rounds": enrich_rounds,
        "generator_count": len(body.generators),
        "d_searches": len(rhos),
    }


# ---------------------------------------------------------------------------
# minimal factorization


# the work counts of the "gauge" block of a minimal factorization report; the
# first three are the counts _gauge_stack returns, in its order
_GAUGE_WORK = ("vertex_rows", "simplex_rows", "vertex_sets", "probe_skips")


def _probe_scales(G: np.ndarray, A: np.ndarray, gv: np.ndarray, Z: np.ndarray,
                  g: np.ndarray, t: float, tau) -> tuple:
    """(ts, skips, solves): the scales t_1, t_2, ... of the repair fixpoint
    t -> tau(gauges of the member moduli A on G with the row g / t appended),
    started at t and stopped once it stalls (at most 60 probes), with the
    number of member gauges skipped and solved.

    gv and the rows of Z are the members' gauges and optimal z on G.  A
    member with finite gv and <g / t, z> <= 1 keeps its gauge: z is feasible
    on the trial polar, which lies inside the parent's, so it stays optimal.
    The other members are solved by ``_gauge_lp`` on the trial matrix, which
    is probed only a few times and so never gets a vertex set."""
    ts, skips, solves = [], 0, 0
    finite = np.isfinite(gv)
    for _probe in range(60):
        row = g / t
        skip = finite & (Z @ row <= 1.0)
        trial = np.vstack([G, row])
        values = gv.copy()
        for i in np.flatnonzero(~skip):
            z = _gauge_lp(trial, A[i])
            values[i] = math.inf if z is None else A[i] @ z
        skips += int(skip.sum())
        solves += int((~skip).sum())
        t_next = tau(values)
        stalled = t_next >= t * (1 - 1e-10)
        t = t_next
        ts.append(t)
        if stalled:
            break
    return ts, skips, solves


def build_minimal_factorization(T: LinOperator, tau: SymmetricSeqNorm, sigma: SymmetricSeqNorm,
                                budget: int = 2000, seed: int = 0,
                                check_families: int = 200) -> FactorizationTriple:
    """Y0 = gauge of the C body, U0 = T into Y0, V0 = inclusion back into X.
    ||U0|| <= 1 and ||V0|| <= K are certified on the samples baked into the
    body; the (tau, sigma)-convexity ratio of Y0 is checked on sampled
    families, enriching the body by their union generators when needed.  sigma <
    tau raises ValueError: m copies of one vector have ratio m^(1/sigma - 1/tau)."""
    if sigma.p < tau.p:
        raise ValueError(f"sigma = {sigma.p} < tau = {tau.p}: no finite (tau, sigma)-convexity constant")
    E, X = T.domain, T.codomain
    if not np.any(T.matrix != 0):
        zero_body = SolidConvexBody(np.zeros((1, X.dim)))
        Y = NormedLattice(X.dim, GaugeOf(zero_body))
        U = LinOperator(np.zeros((X.dim, E.dim)), E, Y)
        V = LinOperator(np.eye(X.dim), Y, X)
        return FactorizationTriple(Y, U, V, "ClassC",
                                   {"kind": "ClassC", "dim_Y": X.dim, "trivial": True,
                                    "K_estimate": 0.0,
                                    "gauge": dict.fromkeys(_GAUGE_WORK, 0),
                                    "norm_checks": {"U0": 0.0, "V0": 0.0,
                                                    "convexity_ratio_max": 0.0},
                                    "checks_pass": True})
    rng = rng_for(seed, "minfact", E.dim, X.dim)
    body = build_C_body(T, tau, sigma, budget=budget, seed=seed)

    # bake in the U0 verification sample: unit vectors whose images must have
    # gauge <= 1 (each is a singleton admissible family of the true C set)
    u_samples = []
    for x in rng.standard_normal((60, E.dim)):
        nv = E.norm.evaluate(x)
        if nv > 1e-12:
            u_samples.append(x / nv)
    u_images = [T.matrix @ x for x in u_samples]
    body = _with_extra(body, np.abs(u_images))

    # closure rounds: add scaled-union generators so the body is closed under
    # the family operations the convexity check will sample
    for round_ in range(2):
        gens = body.gen_matrix
        fams = []
        for _ in range(max(40, budget // 40)):
            m = int(rng.integers(2, 5))
            picks = rng.integers(0, len(gens), size=m)
            fams.append(_tau_weights(tau, m, rng)[:, None] * gens[picks])
        body = _with_extra(body, _sigma_rows(sigma, fams))

    # convexity certificate: a fixed sample of families (general and
    # disjointly supported), repaired to a fixpoint by adding the normalized
    # sigma-vector of any violator; the reported ratio is for the final body
    gens = body.gen_matrix
    fams = []
    for j in range(check_families):
        m = int(rng.integers(1, 5))
        picks = rng.integers(0, len(gens), size=m)
        c = _tau_weights(tau, m, rng)
        signs = rng.choice([-1.0, 1.0], size=(m, X.dim))
        fam = [signs[i] * c[i] * gens[picks[i]] for i in range(m)]
        if j % 2 == 1 and m > 1:  # disjoint supports exercise the estimates
            labels = rng.integers(0, m, size=X.dim)
            fam = [np.where(labels == i, fam[i], 0.0) for i in range(m)]
        if any(np.any(f != 0) for f in fam):
            fams.append(np.array(fam))
    svs = _sigma_rows(sigma, fams) if fams else []  # fixed for the whole repair
    # one stacked gauge call scores a family's members and its sigma-vector;
    # work counts the rows each path served (see _gauge_stack)
    work = dict.fromkeys(_GAUGE_WORK, 0)

    def gauges(rows):
        values, Z, counts = _gauge_stack(body, _body_rows(body, rows))
        for key, n in zip(_GAUGE_WORK, counts):
            work[key] += n
        return values, Z

    def family_ratio(fam, sv):
        values = gauges([*fam, sv])[0]
        den = tau(values[:-1])
        return 0.0 if den <= 1e-12 else float(values[-1] / den)

    def family_fixpoint(fam, sv):
        """Ratio now, plus the limit of renormalizing sv against its own append.

        Adding sv/t shrinks member gauges, which lowers the honest scale t;
        iterate t -> tau(gauges with sv/t adjoined) to its fixpoint before
        touching the body. Every iterate normalizes by gauges of a body
        inside the decomposition set, so each candidate (and the limit)
        stays inside it; only the last one is handed back.
        """
        values, Z = gauges([*fam, sv])
        den = tau(values[:-1])
        if den <= 1e-12:
            return 0.0, None
        val = float(values[-1] / den)
        if val <= 1 + 1e-9:
            return val, None
        ts, skips, solves = _probe_scales(body.gen_matrix, np.abs(fam), values[:-1], Z[:-1],
                                          np.abs(sv), den, tau)
        work["probe_skips"] += skips
        work["simplex_rows"] += solves
        return val, np.abs(sv) / ts[-1]

    # each family owns one replaceable generator slot: sv is fixed and its
    # scale only ever decreases, so the fresh row dominates the stale one and
    # swapping it in never shrinks the hull. Keeps the body small while the
    # cross-family interference tail (families share members, so one append
    # nudges others back over 1) contracts over many cheap rounds
    base_body = body
    slots = {}

    def rebuild():
        return _append_raw(base_body, list(slots.values())) if slots else base_body

    ratio_max = 0.0
    best_excess = math.inf
    stalls = 0
    repair_exit = "budget"
    for rounds in range(1, 41):
        sweep_max = 0.0
        for fi, (fam, sv) in enumerate(zip(fams, svs)):
            val, gen = family_fixpoint(fam, sv)
            sweep_max = max(sweep_max, val)
            if gen is not None:
                slots[fi] = gen
                body = rebuild()
        if sweep_max <= 1 + 3e-7:
            # sweep ratios are pre-update; settle the figure on the final body
            ratio_max = max(map(family_ratio, fams, svs), default=0.0)
            if ratio_max <= 1 + 1e-6:
                repair_exit = "converged"
                break
        excess = sweep_max - 1
        if excess >= best_excess * 0.98:
            stalls += 1
            if stalls >= 3:
                repair_exit = "stalled"
                break
        else:
            stalls = 0
            best_excess = excess
    if repair_exit != "converged":
        ratio_max = max(map(family_ratio, fams, svs), default=0.0)

    Y = NormedLattice(X.dim, GaugeOf(body))
    U = LinOperator(T.matrix.copy(), E, Y)
    V = LinOperator(np.eye(X.dim), Y, X)

    u0_max = float(gauges(u_images)[0].max(initial=0.0))
    # K: estimated (tau, sigma)-convexity constant of T = max family ratio;
    # generator families realize their own ratios, so K >= ||g||_X on gauge-1 g
    from .constants import _max_ratio

    K = _max_ratio(T, (True, tau.p, sigma.p),
                   [rng.standard_normal((int(rng.integers(1, 4)), E.dim)) for _ in range(40)])
    v0_max = 0.0
    for g, gv in zip(body.gen_matrix, gauges(body.gen_matrix)[0]):
        if gv > 1e-12:
            v0_max = max(v0_max, float(X.norm.evaluate(g) / gv))
    K = max(K, v0_max)

    report = {
        "kind": "ClassC",
        "dim_Y": X.dim,
        "trivial": False,
        "K_estimate": K,
        "repair": {"rounds": rounds, "exit": repair_exit},
        "gauge": work,
        "norm_checks": {
            "U0": u0_max,
            "V0": v0_max,
            "convexity_ratio_max": ratio_max,
        },
        "checks_pass": bool(u0_max <= 1 + 1e-6 and v0_max <= K + 1e-6
                            and ratio_max <= 1 + 1e-6),
    }
    return FactorizationTriple(Y, U, V, "ClassC", report)


# ---------------------------------------------------------------------------
# Calderon interpolation of bodies


def interpolate_theta(C0: SolidConvexBody, C1: SolidConvexBody, theta: float,
                      p: float, q: float, case: dict,
                      budget: int = 1000, seed: int = 0) -> dict:
    """Body generated by |g|^theta |h|^(1-theta) over generator pairs and
    sampled hull pairs, with the interpolated exponents.

    case = {"p2": p or inf, "q2": 1 or q}: q2 == 1 selects the
    (p, p2)-convex / (q, 1)-concave statement, q2 == q (with p2 == inf) the
    (p, inf)-convex / (q, q2)-concave one.
    """
    if not 0 < theta < 1:
        raise ValueError(f"theta must lie in (0, 1), got {theta}")
    if C0.dim != C1.dim:
        raise ValueError("bodies must share one dimension")
    p2, q2 = case.get("p2"), case.get("q2")
    if p2 not in (p, math.inf):
        raise ValueError("case p2 must be p or inf")
    if q2 not in (1, 1.0, q):
        raise ValueError("case q2 must be 1 or q")
    p_theta = 1.0 / (theta / p + (1.0 - theta))
    if q2 in (1, 1.0):
        q_theta = q / (1.0 - theta)
        pbar2 = p_theta if p2 == p else math.inf
        qbar2 = 1.0
    else:
        if p2 != math.inf:
            raise ValueError("q2 == q requires p2 == inf")
        q_theta = q / theta
        pbar2 = math.inf
        qbar2 = q_theta
    g0 = C0.gen_matrix
    g1 = C1.gen_matrix
    pairs = [(g, h) for g in g0 for h in g1]
    rng = rng_for(seed, "calderon", C0.dim)
    for _ in range(max(0, budget // 50)):
        w0 = rng.random(len(g0))
        w0 = w0 / w0.sum() * rng.random()
        w1 = rng.random(len(g1))
        w1 = w1 / w1.sum() * rng.random()
        pairs.append((w0 @ g0, w1 @ g1))
    gens = [np.abs(g) ** theta * np.abs(h) ** (1.0 - theta) for g, h in pairs]
    # keep the whole pair set: enlarging samples must only grow the body
    body = SolidConvexBody(_prune_generators(np.array(gens), cap=4000))
    # convexity spot check: midpoints of sampled members stay inside
    gm = body.gen_matrix
    mids = []
    for _ in range(40):
        i, j = rng.integers(0, len(gm), size=2)
        si = rng.choice([-1.0, 1.0], size=body.dim)
        sj = rng.choice([-1.0, 1.0], size=body.dim)
        mids.append(0.5 * (si * gm[i] + sj * gm[j]))
    mid_max = max(0.0, float(gauge_rows(body, mids).max()))
    return {
        "C_theta": body,
        "p_theta": p_theta,
        "q_theta": q_theta,
        "pbar2": pbar2,
        "qbar2": qbar2,
        "midpoint_gauge_max": mid_max,
        "midpoint_ok": bool(mid_max <= 1 + 1e-6),
    }
