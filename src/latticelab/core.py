"""Finite-dimensional vector lattices and parametric lattice norms.

Vectors live in R^n with the coordinatewise order: modulus, join and meet are
``np.abs``, ``np.maximum``, ``np.minimum``.  A :class:`NormedLattice` couples a
dimension with a :class:`NormSpec`, a tagged union covering the l_p norms,
weighted Lorentz norms (the ``[r]`` renormings of weak-L_p and the classical
integral q,1-norm), l_inf-sums, Lorentz-of-blocks mixtures, the three-term max
norm on R^3 used by the embedding counterexample, preduals, and Minkowski
gauges of solid convex bodies.

Each norm kind is one :class:`NormSpec` subclass that owns its range checks,
its evaluation, dual norm, norming functional, dual space and JSON form; the
public functions below only validate the vector and dispatch to it.  Adding a
kind means adding one such class plus one entry in the kind table ``_KINDS``.

Every kind evaluates its norm and dual norm exactly, by a closed form, a
sorted scan or an LP, so :func:`eval_norm_detail` and :func:`eval_dual_norm`
flag every value "exact"; no spec returns a flag.  Every kind evaluates the
norms and dual norms of a stack of vectors (:meth:`NormSpec.eval_rows`,
:meth:`NormSpec.dual_rows`); only the ``[r]``-dual (r > 1) and the Example 5.4
dual loop over the rows.  The two Lorentz specs hold every Lorentz kernel:
the norms with their maximizing sets and marginals, the ``[r]``-duals for all
r >= 1 and the q,1-dual, each one pass along a sorted order, which the
step-function API of :mod:`latticelab.lorentz` calls.  The dual of
:class:`Example54Dual`, and so the ``predual_of`` norm on it, is a closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Optional

import numpy as np
# unused here: kept only because perfbench/tracer.py wraps both solvers by name
from scipy.optimize import linprog, minimize  # noqa: F401

from ._util import conjugate, inv, lp_norm, lp_rows

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
    """Finitely many atoms with strictly positive finite weights.  Errors name
    the ``weights`` field of the norm document that holds the measure."""

    weights: tuple

    def __post_init__(self):
        ws = tuple(float(w) for w in self.weights)
        if not ws:
            raise LatticeSchemaError("weights", "needs at least one atom")
        for i, w in enumerate(ws):
            if not (w > 0 and math.isfinite(w)):
                raise LatticeSchemaError(f"weights/{i}", f"weight must be > 0 and finite, got {w}")
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
        return float(lp_norm(values, self.p))


def sigma_apply(sigma: SymmetricSeqNorm, xs) -> np.ndarray:
    """Coordinatewise functional calculus: out[j] = sigma(|x_1[j]|,...,|x_n[j]|)."""
    if len(xs) == 0:
        raise ValueError("sigma_apply needs a nonempty family")
    mat = np.stack([np.abs(as_vector(x)) for x in xs])
    return lp_norm(mat, sigma.p, axis=0)


def sigma_dual(sigma: SymmetricSeqNorm) -> SymmetricSeqNorm:
    """l_p -> l_{p*}; an involution."""
    return SymmetricSeqNorm(conjugate(sigma.p))


class NormSpec:
    """Base of the parametric norm family.

    Each subclass is one ``kind`` and owns its whole protocol.  Its constructor
    checks the parameters once, raising :class:`LatticeSchemaError` with a path
    relative to its norm document (``r``, ``weights/1``).  The methods below
    receive finite float vectors of the lattice dimension; the public
    functions (:func:`eval_norm`, :func:`eval_dual_norm`, ...) check that.
    """

    kind: str = "abstract"
    #: dimension the norm forces, or None when any dimension fits
    forced_dim: Optional[int] = None

    def evaluate(self, v: np.ndarray) -> float:
        """||v||, the one-row case of :meth:`eval_rows`."""
        return float(self.eval_rows(v[None])[0])

    def eval_rows(self, mat: np.ndarray) -> np.ndarray:
        """||row|| for each row of a (k, n) stack."""
        raise NotImplementedError

    def dual_norm(self, b: np.ndarray) -> tuple:
        """(sup{<x, b> : ||x|| <= 1}, a witness x)."""
        raise NotImplementedError

    def dual_rows(self, mat: np.ndarray) -> np.ndarray:
        """||row||_* for each row of a (k, n) stack, bit for bit ``dual_norm(row)[0]``."""
        raise NotImplementedError

    def norming(self, a: np.ndarray) -> np.ndarray:
        """b with ||b||_* <= 1 and <a, b> = ||a||, for a != 0."""
        raise NotImplementedError

    def dual_spec(self) -> "NormSpec":
        """The norm of the dual lattice on the same coordinates."""
        return PredualOf(self)

    def to_dict(self) -> dict:
        raise NotImplementedError

    @staticmethod
    def from_dict(doc, path: str = "") -> "NormSpec":
        """Parse a norm document of any kind; error paths are prefixed by ``path``."""
        kind = _want(doc, "kind", path, str, "a string")
        cls = _KINDS.get(kind)
        if cls is None:
            raise LatticeSchemaError(f"{path}/kind", f"unknown norm kind {kind!r}")
        return _built(path, cls, *cls._fields_from_dict(doc, path))

    @classmethod
    def _fields_from_dict(cls, doc, path: str) -> tuple:
        """Constructor arguments read from a document (JSON type checks only)."""
        raise NotImplementedError


@dataclass(frozen=True)
class Lp(NormSpec):
    p: float
    kind = "lp"

    def __post_init__(self):
        p = float(self.p)
        if not 1 <= p:
            raise LatticeSchemaError("p", f"p must lie in [1, inf], got {p}")
        object.__setattr__(self, "p", p)

    def evaluate(self, v):
        # scalar pow on the one power sum: the array pow of eval_rows may round it differently
        return float(lp_norm(v, self.p))

    def eval_rows(self, mat):
        return lp_norm(mat, self.p, axis=1)

    def dual_norm(self, b):
        return float(lp_norm(b, conjugate(self.p))), _lp_norming(self.p, b)

    def dual_rows(self, mat):
        return lp_rows(mat, conjugate(self.p))

    def norming(self, a):
        p = self.p
        s = np.sign(a)
        m = np.abs(a)
        if p == math.inf:
            b = np.zeros_like(a)
            i = int(np.argmax(m))
            b[i] = s[i]
            return b
        if p == 1:
            return s
        nrm = float(lp_norm(a, p))
        return s * (m / nrm) ** (p - 1.0)

    def dual_spec(self):
        return Lp(conjugate(self.p))

    def to_dict(self):
        return {"kind": self.kind, "p": ("inf" if self.p == math.inf else self.p)}

    @classmethod
    def _fields_from_dict(cls, doc, path):
        return (_parse_exponent(doc, "p", path),)


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
            raise LatticeSchemaError("p", f"p must lie in (1, inf), got {p}")
        if not 1 <= r:
            raise LatticeSchemaError("r", f"r must be >= 1, got {r}")
        if r >= p:
            raise LatticeSchemaError("r", f"requires r < p, got r={r}, p={p}")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "r", r)

    @property
    def forced_dim(self):
        return self.measure.dim

    def eval_rows(self, mat):
        return self._scan(np.abs(mat))[0].max(axis=1)

    def _scan(self, m: np.ndarray) -> tuple:
        """(vals, order) for moduli m (one vector, or a (k, n) stack of rows):
        ``order`` sorts each row stably by decreasing modulus, and
        ``vals[..., j]`` is mu(A)^{1/p - 1/r} (int_A m^r dmu)^{1/r} on the atoms
        A = ``order[..., :j + 1]``.  A row's [r]-norm is the max of its vals.

        The vals are homogeneous in m, so a row whose top modulus to the power r
        would leave [2^-512, 2^512] is scanned divided by that modulus and
        multiplied back; rows in that range are scanned as they are."""
        neg = -m
        order = neg.argsort(axis=-1, kind="stable")
        ws = self.measure.as_array[order]
        # tied moduli are equal, so the sorted values are m in that order
        ms = -np.sort(neg, axis=-1)
        p, r, scale = self.p, self.r, None
        lo, hi = 2.0 ** (-512 / r), 2.0 ** (512 / r)
        col = ms[:1] if ms.ndim == 1 else ms[:, 0]
        # a few tops are cheaper to bound in Python than with two numpy reductions
        tops = col.tolist() if len(col) <= 64 else [col.min(), col.max()]
        if not (lo <= min(tops) and max(tops) <= hi):
            top = ms[..., :1]
            scale = np.where((top > 0) & ((top < lo) | (top > hi)), top, 1.0)
            ms = ms / scale
        if r == 1:  # x ** 1.0 == x: skip both powers
            vals = ws.cumsum(axis=-1) ** (1.0 / p - 1.0) * (ws * ms).cumsum(axis=-1)
        else:
            mass = ws.cumsum(axis=-1) ** (1.0 / p - 1.0 / r)
            vals = mass * (ws * ms ** r).cumsum(axis=-1) ** (1.0 / r)
        return (vals if scale is None else vals * scale), order

    def _norm_argmax(self, m: np.ndarray) -> tuple:
        """([r]-norm of moduli m, indicator of a maximizing atom set).

        The sup over atom sets is attained at a superlevel set of m for any
        weights (a ratio of a modular function to a concave power of another),
        so one scan over the prefixes of the decreasing order of m is exact.
        Tied moduli may split; every prefix is still a genuine atom set."""
        mask = np.zeros(m.shape[0])
        if not (m > 0).any():
            return 0.0, mask
        vals, order = self._scan(m)
        k = int(vals.argmax())
        mask[order[:k + 1]] = 1.0
        return float(vals[k]), mask

    def dual_norm(self, b):
        a = np.abs(b)
        u = _dual_lorentz_pinfty_concave(self, a) if self.r > 1 else self._greedy(a[None])[0]
        return float(a @ u), np.where(b < 0, -1.0, 1.0) * u

    def dual_rows(self, mat):
        a = np.abs(mat)
        if self.r > 1:
            return np.array([row @ _dual_lorentz_pinfty_concave(self, row) for row in a], dtype=float)
        # a batched (1, n) @ (n, 1) product per row: the dot that dual_norm takes
        return (a[:, None, :] @ self._greedy(a)[:, :, None])[:, 0, 0]

    def _greedy(self, a: np.ndarray) -> np.ndarray:
        """The [1]-ball point u maximizing <a_k, u> for each row a_k of a (k, n) stack of
        moduli: with v = w u the ball is the polymatroid {v >= 0 : v(A) <= mu(A)^{1/p*}}
        (mu^{1/p*} is submodular), so Edmonds' greedy by decreasing a_i/w_i is exact (1970)."""
        w = self.measure.as_array
        order, mass = _density_order(a, w)
        inc = mass ** (1.0 - 1.0 / self.p)
        inc[:, 1:] -= inc[:, :-1]
        u = np.empty_like(a)
        u[np.arange(len(a))[:, None], order] = inc / w[order]
        return u

    def norming(self, a):
        w = self.measure.as_array
        m = np.abs(a)
        mask = self._norm_argmax(m)[1]
        top = float(m.max())
        if abs(math.frexp(top)[1] * self.r) > 512:  # the functional is 0-homogeneous in a
            m = m / top
        mass = float(mask @ w)
        integ = float(np.sum(mask * w * m ** self.r))
        coef = mass ** (inv(self.p) - 1.0 / self.r) * integ ** (1.0 / self.r - 1.0)
        return coef * mask * w * m ** (self.r - 1.0) * np.sign(a)

    def to_dict(self):
        return {"kind": self.kind, "p": self.p, "r": self.r, "weights": list(self.measure.weights)}

    @classmethod
    def _fields_from_dict(cls, doc, path):
        return (_parse_exponent(doc, "p", path), _parse_exponent(doc, "r", path),
                _parse_weights(doc, path))


@dataclass(frozen=True)
class WeightedLorentzQ1(NormSpec):
    """The classical integral norm int_0^inf t^(1/q) f*(t) dt/t."""

    q: float
    measure: AtomicMeasure
    kind = "lorentz_q1"

    def __post_init__(self):
        q = float(self.q)
        if not 1 < q < math.inf:
            raise LatticeSchemaError("q", f"q must lie in (1, inf), got {q}")
        object.__setattr__(self, "q", q)

    @property
    def forced_dim(self):
        return self.measure.dim

    def eval_rows(self, mat):
        """q * sum_k m_k (T_k^{1/q} - T_{k-1}^{1/q}) along each row's decreasing
        order of moduli m; tied moduli are summed one atom at a time."""
        m = np.abs(mat)
        order, steps = self._steps(m)
        return self.q * np.sum(np.take_along_axis(m, order, axis=-1) * steps, axis=-1)

    def _steps(self, m: np.ndarray) -> tuple:
        """(order, steps) for moduli m (one vector, or a (k, n) stack of rows):
        ``order`` sorts each row stably by decreasing modulus, and
        ``steps[..., k]`` is T_k^{1/q} - T_{k-1}^{1/q} for the prefix masses T
        along it (T_{-1} = 0).  Times q, these are the marginals of the norm."""
        order = np.argsort(-m, axis=-1, kind="stable")
        roots = np.cumsum(self.measure.as_array[order], axis=-1) ** (1.0 / self.q)
        return order, np.diff(roots, axis=-1, prepend=0.0)

    def dual_norm(self, b):
        """The positive face of the q,1-ball is the convex hull of the normalized
        indicators 1_A / (q mu(A)^{1/q}) (layer-cake additivity), so the dual norm
        is max_A sum_{i in A} |b_i| / (q mu(A)^{1/q}).  As for the [r]-norm, that
        max is attained at a superlevel set, here of the density |b_i|/w_i: one
        prefix scan of the density order is exact at every atom count."""
        vals, order, mass = self._dual_scan(np.abs(b))
        k = int(vals.argmax())
        x = np.zeros(b.shape[0])
        top = order[:k + 1]
        x[top] = np.where(b[top] < 0, -1.0, 1.0) / (self.q * mass[k] ** (1.0 / self.q))
        return float(vals[k]), x

    def dual_rows(self, mat):
        return self._dual_scan(np.abs(mat))[0].max(axis=1)

    def _dual_scan(self, a: np.ndarray) -> tuple:
        """(vals, order, mass) for moduli a (a vector or a (k, n) stack): ``order`` sorts
        each row by decreasing density a_i/w_i, with prefix masses ``mass``, and a row's
        dual norm is the max of its vals, a(A) / (q mu(A)^{1/q}) on A = ``order[..., :j + 1]``.
        A row whose top modulus exceeds 2^512, where the prefix sums could overflow, is
        scanned divided by a power of two near it and multiplied back, which is exact."""
        order, mass = _density_order(a, self.measure.as_array)
        scale = None
        if a.max(initial=0.0) > 2.0 ** 512:
            tops = a.max(axis=-1, keepdims=True)
            scale = np.where(tops > 2.0 ** 512, np.ldexp(1.0, np.frexp(tops)[1] - 1), 1.0)
            a = a / scale
        sums = (a[order] if a.ndim == 1 else a[np.arange(len(a))[:, None], order]).cumsum(axis=-1)
        vals = sums / (self.q * mass ** (1.0 / self.q))
        return (vals if scale is None else vals * scale), order, mass

    def norming(self, a):
        order, steps = self._steps(np.abs(a))
        b = np.zeros_like(a)
        b[order] = self.q * steps
        return b * np.sign(a)

    def to_dict(self):
        return {"kind": self.kind, "q": self.q, "weights": list(self.measure.weights)}

    @classmethod
    def _fields_from_dict(cls, doc, path):
        return (_parse_exponent(doc, "q", path), _parse_weights(doc, path))


@dataclass(frozen=True)
class LinfSum(NormSpec):
    """Max of block norms over a tuple of block lattices."""

    blocks: tuple
    kind = "linf_sum"

    def __post_init__(self):
        if not self.blocks:
            raise LatticeSchemaError("blocks", "needs at least one block")
        object.__setattr__(self, "blocks", tuple(self.blocks))

    @property
    def forced_dim(self):
        return sum(b.dim for b in self.blocks)

    def eval_rows(self, mat):
        return _block_rows(self.blocks, mat, "eval_rows").max(axis=1, initial=0.0)

    def dual_norm(self, b):
        vals, wits = _dual_blocks(self.blocks, b)
        return float(np.cumsum(vals)[-1]), np.concatenate(wits)

    def dual_rows(self, mat):
        # summed in block order, as dual_norm sums (a pairwise .sum may round otherwise)
        return _block_rows(self.blocks, mat, "dual_rows").cumsum(axis=1)[:, -1]

    def norming(self, a):
        pieces = _split_blocks(a, self.blocks)
        i = int(np.argmax(_block_rows(self.blocks, a[None], "eval_rows")[0]))
        out = [np.zeros(blk.dim) for blk in self.blocks]
        out[i] = norming_functional(self.blocks[i], pieces[i])
        return np.concatenate(out)

    def to_dict(self):
        return {"kind": self.kind, "blocks": [lattice_to_dict(b) for b in self.blocks]}

    @classmethod
    def _fields_from_dict(cls, doc, path):
        return (_parse_blocks(doc, path),)


@dataclass(frozen=True)
class BlockLorentz(NormSpec):
    """Outer Lorentz (or l_p) norm of the vector of inner block norms."""

    outer: NormSpec
    blocks: tuple
    kind = "block_lorentz"

    def __post_init__(self):
        if not isinstance(self.outer, (Lp, WeightedLorentzPInfty)):
            raise LatticeSchemaError("outer/kind", "outer norm must be lp or lorentz_pinfty")
        if not self.blocks:
            raise LatticeSchemaError("blocks", "needs at least one block")
        if self.outer.forced_dim not in (None, len(self.blocks)):
            raise LatticeSchemaError("outer/weights", "outer measure must have one atom per block")
        object.__setattr__(self, "blocks", tuple(self.blocks))

    @property
    def forced_dim(self):
        return sum(b.dim for b in self.blocks)

    def eval_rows(self, mat):
        return self.outer.eval_rows(_block_rows(self.blocks, mat, "eval_rows"))

    def dual_norm(self, b):
        t, wits = _dual_blocks(self.blocks, b)
        val, s = self.outer.dual_norm(np.array(t))
        return val, np.concatenate([s[k] * wits[k] for k in range(len(wits))])

    def dual_rows(self, mat):
        return self.outer.dual_rows(_block_rows(self.blocks, mat, "dual_rows"))

    def norming(self, a):
        pieces = _split_blocks(a, self.blocks)
        t = _block_rows(self.blocks, a[None], "eval_rows")[0]
        beta = self.outer.norming(t) if np.any(t > 0) else np.zeros(len(t))
        parts = []
        for k, (blk, piece) in enumerate(zip(self.blocks, pieces)):
            bf = norming_functional(blk, piece) if t[k] > 0 else np.zeros(blk.dim)
            parts.append(beta[k] * bf)
        return np.concatenate(parts)

    def to_dict(self):
        return {"kind": self.kind, "outer": self.outer.to_dict(),
                "blocks": [lattice_to_dict(b) for b in self.blocks]}

    @classmethod
    def _fields_from_dict(cls, doc, path):
        outer = NormSpec.from_dict(_want(doc, "outer", path, dict, "a norm document"), f"{path}/outer")
        return (outer, _parse_blocks(doc, path))


# (i, j, k) per term of the Example 5.4 norm: i is the distinguished index
_EXAMPLE54_INDEX = ((0, 1, 2), (1, 0, 2), (2, 0, 1))


@dataclass(frozen=True)
class Example54Dual(NormSpec):
    """Three-term max norm on R^3:

        ||b|| = max over distinguished index i of (|b_i|^p* + (|b_j|+|b_k|)^p*)^(1/p*).
    """

    p: float
    kind = "example54_dual"
    forced_dim = 3

    def __post_init__(self):
        p = float(self.p)
        if not 1 < p < math.inf:
            raise LatticeSchemaError("p", f"p must lie in (1, inf), got {p}")
        object.__setattr__(self, "p", p)

    def eval_rows(self, mat):
        c, _, roots = self._roots(np.abs(mat))
        return c * roots.max(axis=1, initial=0.0)

    def _roots(self, m: np.ndarray) -> tuple:
        """(c, m / c, roots) for moduli m (one vector, or a (k, 3) stack): a row's norm
        is c * max(roots), its three terms at m / c.  Per row, c = 1 unless D^{p*} would
        leave [2^-512, 2^512] for its largest pair sum D; then c = D, so bases are <= 1."""
        ps = conjugate(self.p)
        top = m.sum(axis=-1) - m.min(axis=-1)
        # every top in [lo, hi) keeps c = 1; a few tops are cheaper to bound in Python
        lo, hi = 2.0 ** (1.0 - 512 / ps), 2.0 ** (512 / ps - 1.0)
        tops = top.reshape(-1).tolist() if top.size <= 64 else [top.min(), top.max()]
        c = 1.0
        if not (lo <= min(tops) and max(tops) < hi):
            e = np.frexp(top)[1]
            c = np.where((top > 0) & ~((-512 <= (e - 1) * ps) & (e * ps <= 512)), top, 1.0)
            m = m / c[..., None]
        mt = m.T  # mt[i]: entry i of a vector (a scalar pow, as norming uses) or column i of a stack
        roots = [(mt[i] ** ps + (mt[j] + mt[k]) ** ps) ** (1.0 / ps) for i, j, k in _EXAMPLE54_INDEX]
        return c, m, np.stack(roots, axis=-1)

    def dual_norm(self, b):
        """sup{<x, b> : ||x|| <= 1}, exact in closed form.

        Write a = |b|, s = p*, M = a_i its largest entry, r = (sum a - 2M)/M.
        The norm depends on |x| only, so take x >= 0 and slice by the sum S.
        Term j of the norm, phi(x_j) = ||(x_j, S - x_j)||_s, is convex in x_j
        and symmetric about S/2.  For S <= 1, phi <= phi(0) = S <= 1: the
        slice is the simplex, best at S e_i, worth S M <= M.  For S > 1,
        phi(x_j) <= 1 exactly when L <= x_j <= S - L, L the smaller root of
        L^s + (S - L)^s = 1; two entries >= L put the third below S - 2L, so
        the slice is {x >= L}, best at L on every atom and the rest on atom i.
        So with (t, u) = (L, S - L) on the unit l_s sphere, and (0, 1) for
        S = 1, the sup is the max of M (r t + u), the value of
        t 1 + (u - 2t) e_i, over 0 <= t <= u/2.  That max is
        - M at (0, 1) if r <= 0;
        - M n, n = (1 + r^p)^{1/p}, at the l_p-norming point
          ((r/n)^{p-1}, (1/n)^{p-1}) of (r, 1) if that has t <= u/2, which is
          r^{p-1} <= 1/2;
        - else on t = u/2, as the form grows from any point with t < u/2
          towards that norming point inside the ball: t = (1 + 2^s)^{-1/s},
          computed as (1 + 2^{-s})^{-1/s} / 2 so as not to overflow, and
          value t sum a.
        The witness is sgn(b) (t 1 + (u - 2t) e_i), the value its pairing."""
        a = np.abs(b)
        i = int(np.argmax(a))
        big = float(a[i])
        r = (float(a.sum()) - 2.0 * big) / big if big > 0 else 0.0
        p, s = self.p, conjugate(self.p)
        if r <= 0:
            t, u = 0.0, 1.0
        elif r ** (p - 1.0) <= 0.5:
            n = (1.0 + r ** p) ** (1.0 / p)
            t, u = (r / n) ** (p - 1.0), (1.0 / n) ** (p - 1.0)
        else:
            t = 0.5 * (1.0 + 2.0 ** -s) ** (-1.0 / s)
            u = 2.0 * t
        x = np.full(3, t)
        x[i] = u - t
        return float(a @ x), np.where(b < 0, -1.0, 1.0) * x

    def dual_rows(self, mat):
        # row by row: the closed form's scalar pows, which array pows may round differently
        return np.array([self.dual_norm(row)[0] for row in mat], dtype=float)

    def norming(self, a):
        ps = conjugate(self.p)
        _, m, vals = self._roots(np.abs(a))
        arg = int(np.argmax(vals))
        best, (i, j, k) = vals[arg], _EXAMPLE54_INDEX[arg]
        b = np.zeros(3)
        b[i] = m[i] ** (ps - 1.0)
        b[j] = b[k] = (m[j] + m[k]) ** (ps - 1.0)
        return b * best ** (1.0 - ps) * np.sign(a)

    def to_dict(self):
        return {"kind": self.kind, "p": self.p}

    @classmethod
    def _fields_from_dict(cls, doc, path):
        return (_parse_exponent(doc, "p", path),)


@dataclass(frozen=True)
class PredualOf(NormSpec):
    """Norm defined as sup of pairings over the unit ball of the referenced norm."""

    inner: NormSpec
    kind = "predual_of"

    def __post_init__(self):
        if isinstance(self.inner, PredualOf):
            raise LatticeSchemaError("inner/kind", "predual_of may not be nested more than once")

    @property
    def forced_dim(self):
        return self.inner.forced_dim

    def eval_rows(self, mat):
        return self.inner.dual_rows(mat)

    def dual_rows(self, mat):
        # bipolar: the dual of the predual is the referenced norm itself
        return self.inner.eval_rows(mat)

    def dual_norm(self, b):
        return self.inner.evaluate(b), norming_functional(NormedLattice(b.shape[0], self.inner), b)

    def norming(self, a):
        return self.inner.dual_norm(a)[1]

    def dual_spec(self):
        return self.inner

    def to_dict(self):
        return {"kind": self.kind, "inner": self.inner.to_dict()}

    @classmethod
    def _fields_from_dict(cls, doc, path):
        return (NormSpec.from_dict(_want(doc, "inner", path, dict, "a norm document"), f"{path}/inner"),)


@dataclass(frozen=True)
class GaugeOf(NormSpec):
    """Minkowski functional of a solid convex body (see convexgeom)."""

    body: Any
    kind = "gauge_of"

    @property
    def forced_dim(self):
        return self.body.dim

    def eval_rows(self, mat):
        from . import convexgeom

        return convexgeom.gauge_rows(self.body, mat)

    def dual_norm(self, b):
        from . import convexgeom

        return convexgeom.support_function_witness(self.body, b)

    def dual_rows(self, mat):
        # one (g, n) @ (n, 1) product per row: the gemv of support_function_witness
        return (self.body.gen_matrix[None] @ np.abs(mat)[:, :, None])[:, :, 0].max(axis=1)

    def norming(self, a):
        from . import convexgeom

        return convexgeom.gauge_norming(self.body, a)

    def to_dict(self):
        return {"kind": self.kind, **self.body.to_dict()}

    @classmethod
    def _fields_from_dict(cls, doc, path):
        from . import convexgeom

        return (convexgeom.SolidConvexBody.from_dict(doc, path),)


# the one list of norm kinds
_KINDS = {cls.kind: cls for cls in (Lp, WeightedLorentzPInfty, WeightedLorentzQ1, LinfSum,
                                    BlockLorentz, Example54Dual, PredualOf, GaugeOf)}


@dataclass(frozen=True)
class NormedLattice:
    dim: int
    norm: NormSpec

    def __post_init__(self):
        if self.dim < 1:
            raise LatticeSchemaError("dim", f"dim must be >= 1, got {self.dim}")
        forced = self.norm.forced_dim
        if forced is not None and forced != self.dim:
            raise LatticeSchemaError("dim", f"norm spec forces dimension {forced}, lattice says {self.dim}")


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
    return NormedLattice(lat.dim, lat.norm.dual_spec())


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


def eval_norm(X: NormedLattice, x) -> float:
    return X.norm.evaluate(_vector_in(X, x))


def eval_norm_detail(X: NormedLattice, x) -> tuple:
    """Norm value plus its side flag, "exact" for every kind."""
    return eval_norm(X, x), "exact"


def _vector_in(X: NormedLattice, x) -> np.ndarray:
    v = as_vector(x)
    if v.shape[0] != X.dim:
        raise ValueError(f"vector has dim {v.shape[0]}, lattice has dim {X.dim}")
    return v


def _split_blocks(v: np.ndarray, blocks) -> list:
    """The consecutive blocks of the last axis of v."""
    out, pos = [], 0
    for blk in blocks:
        out.append(v[..., pos:pos + blk.dim])
        pos += blk.dim
    return out


def _block_rows(blocks, mat: np.ndarray, method: str) -> np.ndarray:
    """(k, len(blocks)): ``method``, eval_rows or dual_rows, on the blocks of a (k, n) stack."""
    pieces = _split_blocks(mat, blocks)
    return np.column_stack([getattr(blk.norm, method)(b) for blk, b in zip(blocks, pieces)])


# ---------------------------------------------------------------------------
# dual norms


def eval_dual_norm(X: NormedLattice, b, budget: int = 2000, seed: int = 0) -> ConstantEstimate:
    """sup{<x, b> : ||x||_X <= 1}, flagged "exact" for every kind, with a
    witness x; ``budget`` and ``seed`` are only recorded, as no kind searches."""
    val, wit = X.norm.dual_norm(_vector_in(X, b))
    return ConstantEstimate(val, "exact", wit, budget, seed)


def _dual_blocks(blocks, b: np.ndarray) -> tuple:
    """(dual norms, witnesses) of the consecutive blocks of b."""
    ests = [blk.norm.dual_norm(piece) for blk, piece in zip(blocks, _split_blocks(b, blocks))]
    vals, wits = zip(*ests)
    return vals, wits


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
    top = float(a.max())
    # 0-homogeneous in b: rescaled only where |b|^(q-1) would leave the float range
    if abs(math.frexp(top)[1] * (q - 1.0)) > 512:
        a = a / top
    y = a ** (q - 1.0)
    return s * y / float(lp_norm(y, p_of_ball))


def _density_order(a: np.ndarray, w: np.ndarray) -> tuple:
    """The atoms of each row of a (a vector or a (k, n) stack) by decreasing density
    a_i/w_i (ties by index), with the prefix masses of w in that order.  A row where
    some a_i/w_i overflows to inf is ordered by log w_i - log a_i, keeping those apart."""
    with np.errstate(over="ignore"):  # the log order handles the overflow
        dens = a / w
    order = (-dens).argsort(axis=-1, kind="stable")
    if dens.max(initial=0.0) == math.inf:
        big = dens.max(axis=-1) == math.inf  # a vector's 0-d True indexes it as one row
        with np.errstate(divide="ignore"):  # a_i = 0 sorts last
            order[big] = (np.log(w) - np.log(a[big])).argsort(axis=-1, kind="stable")
    return order, w[order].cumsum(axis=-1)


def _dual_lorentz_pinfty_concave(spec, a) -> np.ndarray:
    """r > 1, exact: with v_i = w_i |f_i|^r the [r]-ball is the polymatroid
    {v >= 0 : v(A) <= g(mu(A))}, g(m) = m^{1 - r/p}, and <a, |f|> is
    sum_i c_i^{1 - 1/r} v_i^{1/r} with c_i = (a_i/w_i)^{r/(r-1)} w_i.  Its maximizer
    is the lexicographically optimal base of that polymatroid for the weight c
    (Fujishige 1980, Math. Oper. Res. 5:186-196): v_i = lambda_B c_i on the
    blocks B of the decomposition algorithm.  As for the [r]-norm, each block
    minimizing a ratio g(mu)/c is a superlevel set of c_i/w_i, i.e. of a_i/w_i,
    so the blocks are runs of the density order with increasing slopes
    lambda_B = Delta g(B) / c(B): one pool-adjacent-violators pass.

    For r near 1 the c_i span far beyond the float range, so the pass works
    with log c and log Delta g: an atom whose c underflows still owns its share
    of Delta g.  Block sums are accumulated inside the blocks (logaddexp), since
    differences of prefix sums would lose the small c_i."""
    idx = np.flatnonzero(a > 0)
    order, mass = _density_order(a[idx], spec.measure.as_array[idx])
    idx = idx[order]
    w, r, e = spec.measure.as_array[idx], spec.r, 1.0 - spec.r / spec.p
    logw = np.log(w)
    logc = (np.log(a[idx]) - logw) * (r / (r - 1.0)) + logw
    with np.errstate(divide="ignore"):  # log1p(-1) = -inf for the first atom
        # log(M_k^e - M_{k-1}^e) for the prefix masses M, free of cancellation
        logdg = e * np.log(mass) + np.log(-np.expm1(e * np.log1p(-w / mass)))
    blocks = []  # (log c(B), log Delta g(B), first atom), slopes increasing
    for i, (bc, bg) in enumerate(zip(logc.tolist(), logdg.tolist())):
        while blocks and blocks[-1][1] - blocks[-1][0] >= bg - bc:
            pc, pg, i = blocks.pop()
            bc, bg = np.logaddexp(pc, bc), np.logaddexp(pg, bg)
        blocks.append((bc, bg, i))
    _, lg, start = np.array(blocks, dtype=float).reshape(-1, 3).T
    start = start.astype(int)
    bid = start.searchsorted(np.arange(logc.size), side="right") - 1  # each atom's block
    # log(c_i / c(B)) taken from each block's largest c_i, so the shares sum
    # to 1 to rounding even where |log c| is large and its ulp coarse
    rel = logc - np.maximum.reduceat(logc, start)[bid]
    logv = lg[bid] + rel - np.log(np.add.reduceat(np.exp(rel), start))[bid]
    f = np.zeros(a.shape[0])
    f[idx] = np.exp((logv - logw) / r)
    return f


# ---------------------------------------------------------------------------
# norming functionals (subgradients)


def norming_functional(X: NormedLattice, a) -> np.ndarray:
    """b with ||b||_{X*} <= 1 and <a, b> = ||a||_X (a norm subgradient at a)."""
    v = _vector_in(X, a)
    if not np.any(v != 0):
        return np.zeros(X.dim)
    return X.norm.norming(v)


# ---------------------------------------------------------------------------
# JSON schema


class LatticeSchemaError(ValueError):
    """Schema violation with a JSON-pointer-style path to the offending field.

    Constructors raise it with a path relative to their own document (``r``,
    ``weights/1``); the parsers put the document's path in front."""

    def __init__(self, path: str, message: str):
        self.path = path
        self.message = message
        super().__init__(f"{path or '/'}: {message}")


def _built(path: str, make, *args):
    """make(*args), with the path of a LatticeSchemaError it raises moved below ``path``."""
    try:
        return make(*args)
    except LatticeSchemaError as e:
        raise LatticeSchemaError(f"{path}/{e.path}" if e.path else path, e.message) from None


def _want(doc, key, path, types, type_name):
    if not isinstance(doc, dict):
        raise LatticeSchemaError(path, "expected an object")
    if key not in doc:
        raise LatticeSchemaError(f"{path}/{key}", "missing required field")
    val = doc[key]
    if not isinstance(val, types) or isinstance(val, bool):
        raise LatticeSchemaError(f"{path}/{key}", f"expected {type_name}")
    return val


def _json_floats(val, path: str, ndim: int = 0):
    """The one reader of JSON numbers: a number (``ndim`` 0) as a float, a
    vector (1) or a matrix (2) of numbers as a float array.  Bools and other
    non-numbers, integers too large for a float, non-finite values (Python's
    json reads NaN and Infinity), empty lists and ragged rows raise
    LatticeSchemaError at the pointer of the offending entry."""
    if ndim == 0:
        if isinstance(val, bool) or not isinstance(val, (int, float)):
            raise LatticeSchemaError(path, "expected a number")
        try:
            x = float(val)
        except OverflowError:
            raise LatticeSchemaError(path, "number is too large for a float") from None
        if not math.isfinite(x):
            raise LatticeSchemaError(path, f"entry must be finite, got {x}")
        return x
    if not isinstance(val, list) or not val:
        raise LatticeSchemaError(path, "expected a nonempty list of " + ("numbers" if ndim == 1 else "rows"))
    items = [_json_floats(x, f"{path}/{i}", ndim - 1) for i, x in enumerate(val)]
    if ndim == 2 and len({len(row) for row in items}) != 1:
        raise LatticeSchemaError(path, "rows must share one length")
    return np.array(items)


def _parse_exponent(doc, key, path):
    """doc[key] as an exponent: a finite number, or the string 'inf'."""
    val = _want(doc, key, path, (int, float, str), "a number or 'inf'")
    return math.inf if val == "inf" else _json_floats(val, f"{path}/{key}")


def _parse_weights(doc, path):
    raw = _want(doc, "weights", path, list, "a list of positive numbers")
    return _built(path, AtomicMeasure, _json_floats(raw, f"{path}/weights", 1))


def _parse_blocks(doc, path):
    raw = _want(doc, "blocks", path, list, "a list of lattice documents")
    return tuple(lattice_from_dict(b, f"{path}/blocks/{i}") for i, b in enumerate(raw))


def lattice_from_dict(doc, path: str = "") -> NormedLattice:
    dim = _want(doc, "dim", path, int, "a positive integer")
    norm = NormSpec.from_dict(_want(doc, "norm", path, dict, "a norm document"), f"{path}/norm")
    return _built(path, NormedLattice, dim, norm)


def lattice_to_dict(lat: NormedLattice) -> dict:
    return {"dim": lat.dim, "norm": lat.norm.to_dict()}
