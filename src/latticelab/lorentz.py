"""The step-function front of the Lorentz norms, and the embedding builder.

Step functions over finite atomic measures, their decreasing rearrangements
and the weak-L_p quasinorm; the [r]-renormings of weak-L_p and the q,1 integral
norm, computed by the kernels of the specs ``WeightedLorentzPInfty`` and
``WeightedLorentzQ1`` in :mod:`latticelab.core` (imports run one way, from here
to core); and the constructive multiplier embedding of a renormed weak-L_p into
a weighted weak-L_p with the plain [1]-norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from ._util import TOLERANCES, conjugate, rng_for
from .core import AtomicMeasure, WeightedLorentzPInfty, WeightedLorentzQ1

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


def norm_pinfty_r_argmax(f: StepFunction, p: float, r: float):
    """([r]-norm value, indicator of a maximizing atom subset), by the
    superlevel-set scan of :class:`~latticelab.core.WeightedLorentzPInfty`,
    which also checks 1 <= r < p."""
    return WeightedLorentzPInfty(p, r, f.measure)._norm_argmax(np.abs(f.as_array))


def norm_pinfty_r(f: StepFunction, p: float, r: float) -> float:
    """sup_A mu(A)^{1/p - 1/r} (int_A |f|^r dmu)^{1/r}, exact at every atom
    count by the superlevel-set scan of :func:`norm_pinfty_r_argmax`."""
    return norm_pinfty_r_argmax(f, p, r)[0]


def norm_q1(f: StepFunction, q: float) -> float:
    """q * sum_k v_k (T_k^{1/q} - T_{k-1}^{1/q}), by
    :class:`~latticelab.core.WeightedLorentzQ1`."""
    return WeightedLorentzQ1(q, f.measure).evaluate(f.as_array)[0]


def check_renorming_sandwich(f: StepFunction, p: float, r: float,
                             tol: float = TOLERANCES["sandwich"]) -> dict:
    """quasinorm <= [r]-norm <= (p/(p-r))^{1/r} * quasinorm, plus monotonicity
    of the [r]-norm along a grid of r values."""
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
    src = WeightedLorentzPInfty(p, r, a.measure)
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

    rng = rng_for(seed, "weaklp-embed", n)
    probes = [av, np.ones(n)]
    if n <= 6:
        base = rng.standard_normal(n)
        masks = np.vstack(list(subset_mask_chunks(n)))
        # per subset: its indicator, a on it, and a random vector on it
        probes.extend(np.stack([masks, av * masks, base * masks], axis=1).reshape(-1, n))
        fixed = np.abs(rng.standard_normal(n)) + 0.1
        # every sign pattern, bit i of the row index giving the sign of atom i
        bits = (np.arange(1 << n)[:, None] >> np.arange(n)) & 1
        probes.extend(fixed * np.where(bits == 1, 1.0, -1.0))
    while len(probes) < samples:
        kind = len(probes) % 3
        if kind == 0:
            probes.append(rng.standard_normal(n))
        elif kind == 1:
            probes.append(np.abs(rng.standard_normal(n)) * (rng.random(n) < 0.7))
        else:
            probes.append(rng.standard_normal(n) * av)
    probes = np.array(probes)
    # probe 0 is a itself, so its image norm is ||S a||
    lhs = WeightedLorentzPInfty(p, 1.0, nu).eval_rows(coeffs * probes)
    max_violation = max(0.0, float((lhs - src.eval_rows(probes)).max()))
    Sa_norm = float(lhs[0])
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
