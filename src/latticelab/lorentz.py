"""Decreasing rearrangements, weak-L_p renormings, and the q,1 integral norm
for step functions over finite atomic measures, plus the constructive
multiplier embedding of a renormed weak-L_p into a weighted weak-L_p with the
plain [1]-norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from ._util import TOLERANCES, conjugate, rng_for
from .core import AtomicMeasure

__all__ = [
    "StepFunction",
    "RearrangedStep",
    "rearrange",
    "quasinorm_pinfty",
    "norm_pinfty_r",
    "norm_pinfty_r_argmax",
    "norm_q1",
    "check_renorming_sandwich",
    "build_weakLp_embedding",
    "lemma_a2_d",
    "subset_mask_chunks",
]


def subset_mask_chunks(n: int, chunk_bits: int = 16) -> Iterator[np.ndarray]:
    """Indicator rows of all nonempty subsets of {0..n-1}, in chunks.

    Exponential in n: no norm evaluation uses it.  It generates the probe
    functions of :func:`build_weakLp_embedding` on at most six atoms, the
    subset constraints of the embedding certificates on at most twelve, and
    the brute-force reference in the ``reproduce renorming`` report."""
    if n < 1:
        raise ValueError("need at least one atom")
    if n > 63:
        raise ValueError("subset enumeration capped at 63 atoms")
    total = 1 << n
    step = 1 << min(chunk_bits, n)
    bits = np.arange(n, dtype=np.uint64)
    start = 1
    while start < total:
        stop = min(start + step, total)
        idx = np.arange(start, stop, dtype=np.uint64)
        yield ((idx[:, None] >> bits) & np.uint64(1)).astype(float)
        start = stop


@dataclass(frozen=True)
class StepFunction:
    """f = sum_i values[i] * indicator(atom i)."""

    values: tuple
    measure: AtomicMeasure

    def __post_init__(self):
        vs = tuple(float(v) for v in self.values)
        if len(vs) != self.measure.dim:
            raise ValueError(f"{len(vs)} values for {self.measure.dim} atoms")
        if any(not math.isfinite(v) for v in vs):
            raise ValueError("values must be finite")
        object.__setattr__(self, "values", vs)

    @property
    def as_array(self) -> np.ndarray:
        return np.array(self.values, dtype=float)


@dataclass(frozen=True)
class RearrangedStep:
    """Distinct nonzero moduli in decreasing order with cumulative breakpoints
    T_k = measure{|f| >= v_k}.  Empty tuples encode the zero function."""

    values: tuple
    breakpoints: tuple

    def __post_init__(self):
        v = tuple(float(x) for x in self.values)
        t = tuple(float(x) for x in self.breakpoints)
        if len(v) != len(t):
            raise ValueError("values and breakpoints must have equal length")
        if any(not (x > 0) for x in v):
            raise ValueError("rearranged values must be strictly positive")
        if any(v[i] <= v[i + 1] for i in range(len(v) - 1)):
            raise ValueError("rearranged values must be strictly decreasing")
        if any(t[i] >= t[i + 1] for i in range(len(t) - 1)) or (t and t[0] <= 0):
            raise ValueError("breakpoints must be strictly increasing and positive")
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "breakpoints", t)

    def eval_at(self, t: float) -> float:
        """f*(t): right-continuous step value, zero beyond the support."""
        for v, T in zip(self.values, self.breakpoints):
            if t < T:
                return v
        return 0.0


def rearrange(f: StepFunction) -> RearrangedStep:
    m = np.abs(f.as_array)
    w = f.measure.as_array
    keep = m > 0
    if not np.any(keep):
        return RearrangedStep((), ())
    m, w = m[keep], w[keep]
    # np.unique merges exact ties and sorts ascending; negate for descending
    neg_vals, inverse = np.unique(-m, return_inverse=True)
    group_w = np.bincount(inverse, weights=w)
    v = (-neg_vals).tolist()
    T = np.cumsum(group_w).tolist()
    return RearrangedStep(tuple(v), tuple(T))


def quasinorm_pinfty(f: StepFunction, p: float) -> float:
    """sup_t t^{1/p} f*(t) = max_k T_k^{1/p} v_k."""
    if not 1 < p < math.inf:
        raise ValueError(f"p must lie in (1, inf), got {p}")
    rs = rearrange(f)
    if not rs.values:
        return 0.0
    v = np.array(rs.values)
    T = np.array(rs.breakpoints)
    return float(np.max(T ** (1.0 / p) * v))


def _pinfty_r_params(p: float, r: float):
    if not 1 < p < math.inf:
        raise ValueError(f"p must lie in (1, inf), got {p}")
    if not 1 <= r:
        raise ValueError(f"r must be >= 1, got {r}")
    if r >= p:
        raise ValueError(f"requires r < p, got r={r}, p={p}")


def _prefix_values(ws: np.ndarray, ms: np.ndarray, p: float, r: float) -> np.ndarray:
    if r == 1:  # x ** 1.0 == x: skip both powers
        return ws.cumsum(axis=-1) ** (1.0 / p - 1.0) * (ws * ms).cumsum(axis=-1)
    return ws.cumsum(axis=-1) ** (1.0 / p - 1.0 / r) * (ws * ms ** r).cumsum(axis=-1) ** (1.0 / r)


def superlevel_scan(m: np.ndarray, w: np.ndarray, p: float, r: float) -> tuple:
    """(vals, order) for moduli m (one vector, or a (k, n) stack of rows) over
    atom weights w: ``order`` sorts each row stably by decreasing modulus, and
    ``vals[..., j]`` is mu(A)^{1/p - 1/r} (int_A m^r dmu)^{1/r} on the atoms
    A = ``order[..., :j + 1]``.  A row's [r]-norm is the max of its vals.

    The vals are homogeneous in m, so a row whose top modulus to the power r
    would leave [2^-512, 2^512] is scanned divided by that modulus and
    multiplied back; rows in that range are scanned as they are."""
    neg = -m
    order = neg.argsort(axis=-1, kind="stable")
    ws = w[order]
    # tied moduli are equal, so the sorted values are m in that order
    ms = -np.sort(neg, axis=-1)
    lo, hi = 2.0 ** (-512 / r), 2.0 ** (512 / r)
    col = ms[:1] if ms.ndim == 1 else ms[:, 0]
    # a few tops are cheaper to bound in Python than with two numpy reductions
    tops = col.tolist() if len(col) <= 64 else [col.min(), col.max()]
    if lo <= min(tops) and max(tops) <= hi:
        return _prefix_values(ws, ms, p, r), order
    top = ms[..., :1]
    scale = np.where((top > 0) & ((top < lo) | (top > hi)), top, 1.0)
    return _prefix_values(ws, ms / scale, p, r) * scale, order


def norm_pinfty_r_argmax(f: StepFunction, p: float, r: float):
    """([r]-norm value, indicator of a maximizing atom subset).

    The sup over atom sets is attained at a superlevel set of |f| for any
    weights (a ratio of a modular function to a concave power of another), so
    one scan over the prefixes of the decreasing order of |f| is exact.  Tied
    moduli may split; every prefix is still a genuine atom set."""
    _pinfty_r_params(p, r)
    m = np.abs(f.as_array)
    mask = np.zeros(m.shape[0])
    if not (m > 0).any():
        return 0.0, mask
    vals, order = superlevel_scan(m, f.measure.as_array, p, r)
    k = int(vals.argmax())
    mask[order[:k + 1]] = 1.0
    return float(vals[k]), mask


def norm_pinfty_r(f: StepFunction, p: float, r: float) -> float:
    """sup_A mu(A)^{1/p - 1/r} (int_A |f|^r dmu)^{1/r}, exact at every atom
    count by the superlevel-set scan of :func:`norm_pinfty_r_argmax`."""
    return norm_pinfty_r_argmax(f, p, r)[0]


def norm_q1(f: StepFunction, q: float) -> float:
    """q * sum_k v_k (T_k^{1/q} - T_{k-1}^{1/q})."""
    if not 1 < q < math.inf:
        raise ValueError(f"q must lie in (1, inf), got {q}")
    rs = rearrange(f)
    if not rs.values:
        return 0.0
    v = np.array(rs.values)
    T = np.concatenate([[0.0], np.array(rs.breakpoints)])
    return float(q * np.sum(v * (T[1:] ** (1.0 / q) - T[:-1] ** (1.0 / q))))


def check_renorming_sandwich(f: StepFunction, p: float, r: float,
                             tol: float = TOLERANCES["sandwich"]) -> dict:
    """quasinorm <= [r]-norm <= (p/(p-r))^{1/r} * quasinorm, plus monotonicity
    of the [r]-norm along a grid of r values."""
    _pinfty_r_params(p, r)
    quasi = quasinorm_pinfty(f, p)
    norm_r = norm_pinfty_r(f, p, r)
    factor = (p / (p - r)) ** (1.0 / r)
    lower_ok = quasi <= norm_r + tol
    upper_ok = norm_r <= factor * quasi + tol
    grid = sorted({1.0, 1.0 + (p - 1.0) / 4, 1.0 + (p - 1.0) / 2, 1.0 + 3 * (p - 1.0) / 4, r})
    grid_vals = [norm_pinfty_r(f, p, g) for g in grid]
    monotone = all(grid_vals[i] <= grid_vals[i + 1] + tol for i in range(len(grid_vals) - 1))
    return {
        "quasi": quasi,
        "norm_r": norm_r,
        "ratio": (norm_r / quasi if quasi > 0 else 1.0),
        "upper_factor": factor,
        "r_grid": list(grid),
        "r_grid_values": grid_vals,
        "pass": bool(lower_ok and upper_ok and monotone),
    }


def lemma_a2_d(beta, b, s: float) -> np.ndarray:
    """d = (1-s) beta + s b; with beta, b probability vectors and s in [0,1],
    weighted AM-GM gives prod x_i^{d_i} <= <d, x> for x >= 0."""
    beta = np.asarray(beta, dtype=float)
    b = np.asarray(b, dtype=float)
    if not 0 <= s <= 1:
        raise ValueError(f"s must lie in [0, 1], got {s}")
    for name, vec in (("beta", beta), ("b", b)):
        if np.any(vec < 0) or not math.isclose(float(vec.sum()), 1.0, abs_tol=1e-9):
            raise ValueError(f"{name} must be a probability vector")
    return (1.0 - s) * beta + s * b


def build_weakLp_embedding(a: StepFunction, p: float, r: float,
                           samples: int = 500, seed: int = 0, tol=TOLERANCES) -> dict:
    """Multiplier operator S from the [r]-renormed weak-L_p over mu into the
    [1]-normed weak-L_p over a probability measure nu, with ||S|| <= 1
    (verified by sampling, up to ``tol["embed-norm"]``) and ||S a|| >= C^r
    (up to ``tol["embed-lower"]``) for
    C = (sum mu(U_i))^{1/p-1/r} ||a||_{L_r(mu)}.

    Requires strictly positive values and C <= 1.
    """
    _pinfty_r_params(p, r)
    av = a.as_array
    if np.any(av <= 0):
        raise ValueError("embedding requires strictly positive values on all atoms")
    w = a.measure.as_array
    n = av.shape[0]
    ps = conjugate(p)
    M = float(w.sum())
    lr = float(np.sum(w * av ** r) ** (1.0 / r))
    C = M ** (1.0 / p - 1.0 / r) * lr
    if C > 1.0 + 1e-12:
        raise ValueError(f"requires C <= 1, got C = {C:.6g}; rescale the input")
    b = w / M
    beta = M ** (r / p - 1.0) * w * av ** r
    s = ps * (1.0 / r - 1.0 / p)
    # sum(beta) = C^r <= 1, so d is a sub-probability vector unless C = 1
    d = (1.0 - s) * beta + s * b
    if np.any(d <= 0):
        raise ValueError("degenerate weights in the interpolated measure")
    nu = AtomicMeasure(tuple(d.tolist()))
    coeffs = M ** (r / p) * av ** (r - 1.0) * b / d
    mu = a.measure

    def norm_src(vals):
        return norm_pinfty_r(StepFunction(tuple(vals.tolist()), mu), p, r)

    def norm_dst(vals):
        return norm_pinfty_r(StepFunction(tuple(vals.tolist()), nu), p, 1.0)

    rng = rng_for(seed, "weaklp-embed", n)
    probes = [av, np.ones(n)]
    if n <= 6:
        base = rng.standard_normal(n)
        for masks in subset_mask_chunks(n):
            for row in masks:
                probes.append(row)
                probes.append(av * row)
                probes.append(base * row)
        fixed = np.abs(rng.standard_normal(n)) + 0.1
        for bits in range(1 << n):
            signs = np.array([1.0 if (bits >> i) & 1 else -1.0 for i in range(n)])
            probes.append(fixed * signs)
    while len(probes) < samples:
        kind = len(probes) % 3
        if kind == 0:
            probes.append(rng.standard_normal(n))
        elif kind == 1:
            probes.append(np.abs(rng.standard_normal(n)) * (rng.random(n) < 0.7))
        else:
            probes.append(rng.standard_normal(n) * av)
    max_violation = 0.0
    for fvals in probes:
        lhs = norm_dst(coeffs * fvals)
        rhs = norm_src(fvals)
        max_violation = max(max_violation, lhs - rhs)
    Sa_norm = norm_dst(coeffs * av)
    C_r = C ** r
    verification = {
        "samples": len(probes),
        "max_violation": max_violation,
        "norm_bound_ok": bool(max_violation <= tol["embed-norm"]),
        "Sa_norm": Sa_norm,
        "C_to_r": C_r,
        "Sa_ok": bool(Sa_norm >= C_r - tol["embed-lower"]),
    }
    verification["pass"] = bool(verification["norm_bound_ok"] and verification["Sa_ok"])
    return {
        "M": M,
        "C": C,
        "b": b.tolist(),
        "beta": beta.tolist(),
        "s": s,
        "d": d.tolist(),
        "nu": list(nu.weights),
        "coefficients": coeffs.tolist(),
        "verification": verification,
    }
