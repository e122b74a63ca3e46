"""Convexity, concavity, and upper/lower estimate constants of lattice
operators, with search-based lower bounds, small exact cases, and the
quantitative reproductions: the gamma factor, the q-convexity corollary bound,
and the cyclic-shift family showing weak-l_p(l_p) has no uniform upper
p-estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from ._util import TOLERANCES, climb_lockstep, conjugate, inv, lp_norm, lp_rows, rng_for
from .core import (
    AtomicMeasure,
    BlockLorentz,
    ConstantEstimate,
    LinfSum,
    LinOperator,
    Lp,
    NormedLattice,
    SymmetricSeqNorm,
    WeightedLorentzPInfty,
    eval_norm,
    sigma_dual,
)

__all__ = [
    "Convex",
    "Concave",
    "UpperEstimate",
    "LowerEstimate",
    "ratio",
    "generalized_convexity_ratio",
    "generalized_concavity_ratio",
    "estimate_constant",
    "gamma",
    "check_q_convexity_bound",
    "reproduce_lpinfty_lp",
    "duality_gap",
    "identity_operator",
    "set_partitions",
]


@dataclass(frozen=True)
class Convex:
    p: float
    p2: float

    def __post_init__(self):
        if not 1 <= self.p <= self.p2:
            raise ValueError(f"requires 1 <= p <= p2, got p={self.p}, p2={self.p2}")


@dataclass(frozen=True)
class Concave:
    q: float
    q2: float

    def __post_init__(self):
        if not 1 <= self.q2 <= self.q:
            raise ValueError(f"requires 1 <= q2 <= q, got q={self.q}, q2={self.q2}")


@dataclass(frozen=True)
class UpperEstimate:
    """Equivalent to Convex(p, inf) on pairwise disjoint families, with the
    same constant."""

    p: float

    def __post_init__(self):
        if not 1 <= self.p:
            raise ValueError(f"requires p >= 1, got {self.p}")


@dataclass(frozen=True)
class LowerEstimate:
    q: float

    def __post_init__(self):
        if not 1 <= self.q:
            raise ValueError(f"requires q >= 1, got {self.q}")


def identity_operator(X: NormedLattice) -> LinOperator:
    return LinOperator(np.eye(X.dim), X, X)


def _family(T: LinOperator, family) -> np.ndarray:
    """The family as one float (m, n) array of finite domain vectors."""
    mat = np.asarray(family, dtype=float)
    if mat.ndim != 2 or mat.shape[0] == 0 or mat.shape[1] != T.domain.dim:
        raise ValueError(f"family must be a nonempty stack of {T.domain.dim}-vectors, "
                         f"got shape {mat.shape}")
    if not np.isfinite(mat).all():
        raise ValueError("family entries must be finite")
    return mat


def _kind_params(kind) -> tuple:
    """(convex, tau, sigma); an upper (lower) estimate has sigma = inf (sigma = 1)."""
    if isinstance(kind, (Convex, UpperEstimate)):
        return True, kind.p, getattr(kind, "p2", math.inf)
    if isinstance(kind, (Concave, LowerEstimate)):
        return False, kind.q, getattr(kind, "q2", 1.0)
    raise TypeError(f"unknown constant kind {kind!r}")


def _stack(mats) -> tuple:
    """(stack, groups): family b atop zero rows in stack[b]; (indices, m) per length m."""
    counts = np.array([len(mat) for mat in mats])
    stack = np.zeros((len(mats), counts.max(), *mats[0].shape[1:]))
    for b, mat in enumerate(mats):
        stack[b, :len(mat)] = mat
    return stack, [(np.flatnonzero(counts == m), m) for m in sorted(set(counts.tolist()))]


def _ratios(T: LinOperator, params, stack: np.ndarray, groups) -> np.ndarray:
    """The ratio of each family of a :func:`_stack`, bit for bit the float of
    the one-family ratio, or -inf where its denominator is <= 0.  Finiteness
    and supports are checked at the boundary (``_family``, ``ratio``); the
    searches draw finite starts and steps.  Sums over a family run over its m
    rows alone (numpy's pairwise sum rounds zero-padded rows otherwise), and a
    (k, m, n) @ (n, n') product makes one family's BLAS call per family."""
    convex, tau, sigma = params
    fams = [stack[idx, :m] for idx, m in groups]
    imgs = [fam @ T.matrix.T for fam in fams]
    rows, norm = (fams, T.domain.norm) if convex else (imgs, T.codomain.norm)
    row_norms = norm.eval_rows(np.concatenate([r.reshape(-1, r.shape[2]) for r in rows]))
    taus, at = np.empty(len(stack)), 0
    sig = np.empty((len(stack), (T.codomain if convex else T.domain).dim))
    for (idx, m), fam, img in zip(groups, fams, imgs):
        taus[idx] = lp_rows(row_norms[at:at + len(fam) * m].reshape(-1, m), tau)
        at += len(fam) * m
        sig[idx] = lp_norm(img if convex else fam, sigma, axis=1)
    num, den = (T.codomain.norm.eval_rows(sig), taus) if convex else (taus, T.domain.norm.eval_rows(sig))
    return np.divide(num, den, out=np.full(len(den), -math.inf), where=~(den <= 0))


def _max_ratio(T: LinOperator, params, fams) -> float:
    """max(0, each family's ratio) in one stacked call; an inadmissible family scores -inf."""
    return max([0.0, *_ratios(T, params, *_stack(fams)).tolist()])


def _score(T: LinOperator, params, mat: np.ndarray, inadmissible=None) -> float:
    """One family's ratio; where it is inadmissible, -inf or ValueError(inadmissible)."""
    val = float(_ratios(T, params, mat[None], [(slice(None), len(mat))])[0])
    if val == -math.inf and inadmissible:
        raise ValueError(inadmissible)
    return val


def generalized_convexity_ratio(T: LinOperator, tau: SymmetricSeqNorm,
                                sigma: SymmetricSeqNorm, family) -> float:
    """||sigma(|Tx_1|,...,|Tx_m|)||_codomain / tau(||x_1||,...,||x_m||), with the
    family checked once as one (m, n) array and scored as a stack of one."""
    return _score(T, (True, tau.p, sigma.p), _family(T, family), "zero family")


def generalized_concavity_ratio(T: LinOperator, tau: SymmetricSeqNorm,
                                sigma: SymmetricSeqNorm, family) -> float:
    """tau(||Tx_1||,...,||Tx_m||) / ||sigma(|x_1|,...,|x_m|)||_domain, with
    the family checked once and scored as a stack of one."""
    return _score(T, (False, tau.p, sigma.p), _family(T, family), "zero family")


def ratio(T: LinOperator, kind, family) -> float:
    """Exact ratio for one family: a certified lower bound for the constant.
    The family (and for an estimate kind, the disjointness of its supports) is
    checked once, then scored by the stacked generalized ratio."""
    params = _kind_params(kind)
    mat = _family(T, family)
    if isinstance(kind, (UpperEstimate, LowerEstimate)) and np.any((mat != 0).sum(axis=0) > 1):
        raise ValueError("estimate kinds require pairwise disjoint supports")
    return _score(T, params, mat, "zero family")


# Consecutive climbs step as a group while its padded noise fits in this many bytes.
NOISE_BYTES = 1 << 18


def _climbs(T: LinOperator, params, rng, iters: int, starts) -> list:
    """(x, score) of each start's climb: the draws and results of
    :func:`hill_climb` on one start after another, projected by the mask.
    ``starts`` yields (x0, mask, score of x0) lazily, after the previous
    climb's noise, one (iters, m, n) block (none for a -inf start, returned
    as is).  Groups of climbs step together, one stacked ratio call a step."""
    out, group, rows = [], [], 0

    def run():
        if group:
            x0s, masks, vals, noise, at = zip(*group)
            X0, groups = _stack(x0s)
            Z = _stack([z.swapaxes(0, 1) for z in noise])[0].transpose(2, 0, 1, 3)
            X, best = climb_lockstep(lambda P: _ratios(T, params, P, groups), X0, vals,
                                     _stack(masks)[0], Z)
            for b, i in enumerate(at):
                out[i] = (X[b, :len(x0s[b])], float(best[b]))
            group.clear()

    for x0, mask, val in starts:
        out.append((x0, val))
        if val == -math.inf:
            continue
        m, n = x0.shape
        if group and iters * (len(group) + 1) * max(rows, m) * n * 8 > NOISE_BYTES:
            run()
            rows = 0
        rows = max(rows, m)
        group.append((x0, mask, val, rng.standard_normal((iters, m, n)), len(out) - 1))
    run()
    return out


def _random_starts(T: LinOperator, params, rng, count: int, disjoint: bool):
    """``count`` random starts of 1 to 2n members (on a partition's <= n parts if ``disjoint``)."""
    n = T.domain.dim
    for _ in range(count):
        m = int(rng.integers(1, 2 * n + 1))
        if disjoint:
            m = min(m, n)
            perm = rng.permutation(n)
            cuts = sorted(rng.choice(np.arange(1, n), size=m - 1, replace=False).tolist()) if m > 1 else []
            mask = np.zeros((m, n))
            for i, part in enumerate(np.split(perm, cuts)):
                mask[i, part] = 1.0
            mat0 = mask * rng.standard_normal((m, n))
        else:
            mat0 = rng.standard_normal((m, n))
            mask = np.ones((m, n))
        yield mat0, mask, _score(T, params, mat0)


def _best(climbs) -> tuple:
    """(score, family) of the first climb of highest score."""
    return max([(-math.inf, None), *((val, x) for x, val in climbs)], key=lambda t: t[0])


def set_partitions(items) -> Iterator[list]:
    """All partitions of a list into nonempty parts (Bell-number many)."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]
        yield [[first]] + part


def _is_identity_lp(T: LinOperator) -> Optional[float]:
    """Exponent of the common l_p norm when T is the identity on some l_p^n."""
    if T.domain.dim != T.codomain.dim:
        return None
    if not np.array_equal(T.matrix, np.eye(T.domain.dim)):
        return None
    dn, cn = T.domain.norm, T.codomain.norm
    if isinstance(dn, Lp) and isinstance(cn, Lp) and dn.p == cn.p:
        return dn.p
    return None


def _exact_identity_estimate(T, kind, budget, seed) -> Optional[ConstantEstimate]:
    """Closed-form extremals for estimate kinds on the identity of l_u^n:
    equal mass on k singleton parts gives k^{1/u-1/p} (upper) or k^{1/q-1/u}
    (lower); at every n the power-mean inequality shows no partition does better."""
    u = _is_identity_lp(T)
    if u is None or not isinstance(kind, (UpperEstimate, LowerEstimate)):
        return None
    n = T.domain.dim
    if isinstance(kind, UpperEstimate):
        expo = max(0.0, inv(u) - inv(kind.p))
        t = n ** (-inv(kind.p)) if expo > 0 else 1.0
    else:
        expo = max(0.0, inv(kind.q) - inv(u))
        t = n ** (-inv(u)) if expo > 0 else 1.0
    value = n ** expo
    if expo > 0:
        witness = [t * row for row in np.eye(n)]
    else:
        witness = [np.eye(n)[0]]
    return ConstantEstimate(value, "exact", witness, budget, seed)


def _random_family_search(T, kind, budget, seed) -> tuple:
    rng = rng_for(seed, "const-random", T.domain.dim)
    params = _kind_params(kind)
    n_starts = max(4, min(24, budget // 250))
    starts = _random_starts(T, params, rng, n_starts, isinstance(kind, (UpperEstimate, LowerEstimate)))
    return _best(_climbs(T, params, rng, max(20, budget // (4 * n_starts)), starts))


def _partition_search(T, kind, budget, seed) -> tuple:
    """Disjoint-support families from coordinate partitions (exhaustive for
    dim <= 8, structured plus sampled for dim 9-10)."""
    n = T.domain.dim
    rng = rng_for(seed, "const-partition", n)
    if n <= 8:
        partitions = list(set_partitions(range(n)))
    else:
        partitions = [[[i] for i in range(n)], [list(range(n))]]
        half = n // 2
        partitions.append([list(range(half)), list(range(half, n))])
        for _ in range(60):
            labels = rng.integers(0, rng.integers(2, n + 1), n)
            parts = [list(np.where(labels == l)[0]) for l in np.unique(labels)]
            partitions.append([p for p in parts if p])
    masks = [np.array([np.bincount(part, minlength=n) for part in parts], dtype=float)
             for parts in partitions]
    # every start is known before the first climb draws: score them as one stack
    params = _kind_params(kind)
    vals = _ratios(T, params, *_stack(masks)).tolist()
    iters = max(10, budget // (2 * max(1, len(partitions))))
    return _best(_climbs(T, params, rng, iters, zip(masks, masks, vals)))


def estimate_constant(T: LinOperator, kind, budget: int = 10000, seed: int = 0) -> ConstantEstimate:
    """Best ratio over random families, coordinate-partition families for the
    disjoint kinds, and hill-climbing refinement; deterministic per seed."""
    if budget < 1:
        raise ValueError("budget must be >= 1")
    exact = _exact_identity_estimate(T, kind, budget, seed)
    if exact is not None:
        return exact
    vals = [_random_family_search(T, kind, budget, seed)]
    if isinstance(kind, (UpperEstimate, LowerEstimate)) and T.domain.dim <= 10:
        vals.append(_partition_search(T, kind, budget, seed))
    best_val, best_fam = max(vals, key=lambda t: t[0])
    if best_fam is None or best_val <= 0:
        raise ValueError("search failed to produce a nonzero family")
    witness = [row.copy() for row in np.asarray(best_fam)]
    return ConstantEstimate(float(best_val), "lower", witness, budget, seed)


def gamma(p: float) -> float:
    """(1 - 1/p)^{1/p - 1} = (p*)^{1/p*}."""
    if not 1 < p < math.inf:
        raise ValueError(f"gamma requires p in (1, inf), got {p}")
    ps = conjugate(p)
    via_ps = ps ** (1.0 / ps)
    via_p = (1.0 - 1.0 / p) ** (1.0 / p - 1.0)
    if abs(via_ps - via_p) > 1e-12 * max(1.0, via_ps):  # pragma: no cover
        raise AssertionError("gamma expressions disagree")
    return via_ps


def _infer_constant_one_p(X: NormedLattice) -> float:
    spec = X.norm
    if isinstance(spec, Lp):
        if not 1 < spec.p < math.inf:
            raise ValueError("corollary bound needs p in (1, inf)")
        return spec.p
    if isinstance(spec, WeightedLorentzPInfty):
        if spec.r != 1:
            raise ValueError("constant-1 upper estimate certified only for the [1]-renorming")
        return spec.p
    if isinstance(spec, LinfSum):
        ps = {_infer_constant_one_p(b) for b in spec.blocks}
        if len(ps) != 1:
            raise ValueError("sup-sum blocks must share one p")
        return ps.pop()
    raise ValueError("no certified constant-1 upper p-estimate for this norm")


def check_q_convexity_bound(X: NormedLattice, q: float, budget: int = 4000, seed: int = 0,
                            tol=TOLERANCES) -> dict:
    """K^{(q)}(X) <= (p/(p-q))^{1/q} gamma_p for lattices with upper
    p-estimate constant 1, plus the sharper constant-1 q-convexity of the
    [q]-renormed weak-L_p; decided with ``tol["q-convex"]`` and
    ``tol["renormed"]``."""
    p = _infer_constant_one_p(X)
    if not 1 <= q < p:
        raise ValueError(f"requires 1 <= q < p, got q={q}, p={p}")
    bound = (p / (p - q)) ** (1.0 / q) * gamma(p)
    est = estimate_constant(identity_operator(X), Convex(q, q), budget, seed)
    if isinstance(X.norm, WeightedLorentzPInfty):
        measure = X.norm.measure
    else:
        measure = AtomicMeasure.counting(X.dim)
    Xq = NormedLattice(measure.dim, WeightedLorentzPInfty(p, q, measure))
    Tq = identity_operator(Xq)
    rng = rng_for(seed, "renorm-check", X.dim)
    fams = [rng.standard_normal((int(rng.integers(1, 2 * measure.dim + 1)), measure.dim))
            for _ in range(100)]
    renorm_max = _max_ratio(Tq, (True, q, q), fams)
    report = {
        "p": p,
        "q": q,
        "bound": bound,
        "K_q_lower": est.value,
        "bound_ok": bool(est.value <= bound + tol["q-convex"]),
        "renormed_ratio_max": renorm_max,
        "renormed_ok": bool(renorm_max <= 1 + tol["renormed"]),
    }
    report["pass"] = bool(report["bound_ok"] and report["renormed_ok"])
    return report


def _alpha(p: float, n: int) -> np.ndarray:
    ps = conjugate(p)
    k = np.arange(n, dtype=float)
    return (k + 1) ** (1.0 / ps) - k ** (1.0 / ps)


def reproduce_lpinfty_lp(p: float, n: int, tol=TOLERANCES) -> dict:
    """Cyclic-shift family in the n-block truncation of weak-l_p(l_p): every
    member has norm one, yet the norm of the pointwise supremum divided by
    n^{1/p} equals A_n = (sum_j alpha_j^p)^{1/p}, which grows without bound.
    Decided with ``tol["unit-norm"]`` and ``tol["vee-ratio"]``."""
    if not 1 < p < math.inf:
        raise ValueError(f"requires p in (1, inf), got {p}")
    if n < 2:
        raise ValueError("requires n >= 2")
    alpha = _alpha(p, n)
    blocks = tuple(NormedLattice(n, Lp(p)) for _ in range(n))
    outer = WeightedLorentzPInfty(p, 1, AtomicMeasure.counting(n))
    X = NormedLattice(n * n, BlockLorentz(outer, blocks))
    members = []
    for i in range(n):
        x = np.zeros((n, n))
        for k in range(n):
            x[k, i] = alpha[(k + i) % n]
        members.append(x.reshape(-1))
    norms = [eval_norm(X, x) for x in members]
    unit_dev = max(abs(v - 1.0) for v in norms)
    vee = np.max(np.abs(np.stack(members)), axis=0)
    A_n = float(np.sum(alpha ** p) ** (1.0 / p))
    vee_ratio = eval_norm(X, vee) / n ** (1.0 / p)
    table = []
    m = 2
    top = max(n, 32)
    while m <= top:
        am = float(np.sum(_alpha(p, m) ** p) ** (1.0 / p))
        H = float(np.sum(1.0 / np.arange(1, m + 1)))
        table.append({"n": m, "A_n": am, "A_n^p/H_n": am ** p / H})
        m *= 2
    growth_ok = all(table[i]["A_n"] < table[i + 1]["A_n"] for i in range(len(table) - 1))
    report = {
        "p": p,
        "n": n,
        "A_n": A_n,
        "vee_ratio": vee_ratio,
        "vee_ratio_matches": bool(abs(vee_ratio - A_n) <= tol["vee-ratio"]),
        "unit_norm_check": unit_dev,
        "unit_norms_ok": bool(unit_dev <= tol["unit-norm"]),
        "growth_table": table,
        "growth_strictly_increasing": growth_ok,
    }
    report["pass"] = bool(report["unit_norms_ok"] and report["vee_ratio_matches"] and growth_ok)
    return report


def _is_lp_lattice(X: NormedLattice) -> bool:
    return isinstance(X.norm, Lp)


def _sphere_grid(dim: int) -> np.ndarray:
    if dim == 1:
        return np.array([[1.0], [-1.0]])
    if dim == 2:
        th = np.linspace(0, np.pi, 20, endpoint=False)
        pts = np.stack([np.cos(th), np.sin(th)], axis=1)
        return np.vstack([pts, -pts])
    th = np.linspace(0, np.pi, 8, endpoint=False)
    ph = np.linspace(0, 2 * np.pi, 9, endpoint=False)
    TH, PH = np.meshgrid(th, ph)
    pts = np.stack([np.sin(TH) * np.cos(PH), np.sin(TH) * np.sin(PH), np.cos(TH)], axis=-1)
    return pts.reshape(-1, 3)


def _oracle_best(T: LinOperator, params) -> float:
    """Exhaustive-grade search over direction-grid families of length <= 3
    with simplex weight grids, scored as one stack; used only as a
    cross-check oracle."""
    from itertools import combinations_with_replacement

    dirs = _sphere_grid(T.domain.dim)
    weights2 = [np.array([t, 1 - t]) for t in np.linspace(0.05, 0.95, 7)]
    weights3 = [np.array([a, b, 1 - a - b])
                for a in np.linspace(0.1, 0.8, 4) for b in np.linspace(0.1, 0.8, 4)
                if a + b < 0.95]
    fams = [d[None] for d in dirs]
    fams += [np.stack([wt[0] * dirs[i], wt[1] * dirs[j]])
             for i, j in combinations_with_replacement(range(0, len(dirs), 2), 2) for wt in weights2]
    fams += [np.stack([wt[0] * dirs[i], wt[1] * dirs[j], wt[2] * dirs[k]])
             for i, j, k in combinations_with_replacement(range(0, len(dirs), 4), 3) for wt in weights3]
    return _max_ratio(T, params, fams)


def duality_gap(T: LinOperator, tau: SymmetricSeqNorm, sigma: SymmetricSeqNorm,
                budget: int = 4000, seed: int = 0) -> dict:
    """Lower bounds for the (tau, sigma)-convexity constant of T and the
    (tau*, sigma*)-concavity constant of T*; the two are equal in truth.

    ``pass`` compares the two bounds only when the grid oracle ran (diagonal T
    of dimension <= 3); otherwise the two searches may stall at different
    heights, so ``pass`` is None: the check was skipped, not passed."""
    if not (_is_lp_lattice(T.domain) and _is_lp_lattice(T.codomain)):
        raise ValueError("duality_gap requires l_p domain and codomain norms")
    tau_d, sigma_d = sigma_dual(tau), sigma_dual(sigma)
    A = T.adjoint()
    rng = rng_for(seed, "duality", T.domain.dim, T.codomain.dim)

    def search(S, params):
        n_starts = max(4, min(16, budget // 400))
        starts = _random_starts(S, params, rng, n_starts, False)
        return max([0.0, *(val for _, val in _climbs(S, params, rng, max(20, budget // (4 * n_starts)), starts))])

    L1 = search(T, (True, tau.p, sigma.p))
    L2 = search(A, (False, tau_d.p, sigma_d.p))
    diag = T.matrix.shape[0] == T.matrix.shape[1] and np.allclose(T.matrix, np.diag(np.diag(T.matrix)))
    oracle_used = bool(diag and T.domain.dim <= 3)
    if oracle_used:
        L1 = max(L1, _oracle_best(T, (True, tau.p, sigma.p)))
        L2 = max(L2, _oracle_best(A, (False, tau_d.p, sigma_d.p)))
    gap = abs(L1 - L2)
    report = {
        "L1_convexity": L1,
        "L2_dual_concavity": L2,
        "gap": gap,
        "oracle_used": oracle_used,
        "pass": bool(gap <= 5e-2) if oracle_used else None,
    }
    return report
