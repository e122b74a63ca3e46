"""Shared plumbing: seed derivation and canonical JSON output.

Everything randomized in this package flows through :func:`rng_for`, which
hashes an explicit user seed together with string tags into an independent
stream per task.  Reports are serialized by :func:`canonical_json` with sorted
keys and 17-significant-digit floats so identical runs are byte-identical.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

DEFAULT_SEED = 0
DEFAULT_BUDGET = 10000

Infinity = math.inf


def derive_seed(seed: int, *tags) -> int:
    """Stable 63-bit sub-seed from a base seed and hashable tags."""
    h = hashlib.blake2b(digest_size=8)
    h.update(str(int(seed)).encode())
    for t in tags:
        h.update(b"\x1f")
        h.update(repr(t).encode())
    return int.from_bytes(h.digest(), "big") >> 1


def rng_for(seed: int, *tags) -> np.random.Generator:
    return np.random.default_rng(derive_seed(seed, *tags))


def conjugate(p: float) -> float:
    """Conjugate exponent: 1 <-> inf, else p/(p-1)."""
    if p == 1:
        return math.inf
    if p == math.inf:
        return 1.0
    if not 1 < p < math.inf:
        raise ValueError(f"exponent must lie in [1, inf], got {p}")
    return p / (p - 1.0)


def inv(p: float) -> float:
    """1/p with 1/inf = 0 exactly."""
    return 0.0 if p == math.inf else 1.0 / p


def lp_norm(x, p: float, axis=None):
    """(sum |x_i|^p)^(1/p) along ``axis`` (over all entries when None), with the
    max for p = inf; an empty reduction gives 0."""
    a = np.abs(np.asarray(x, dtype=float))
    # ndarray methods: the same reductions as np.max/np.sum without their
    # Python dispatch, which costs more than the sum on short vectors
    if p == math.inf:
        return a.max(axis=axis, initial=0.0)
    if p == 1:
        return a.sum(axis=axis)
    return (a ** p).sum(axis=axis) ** (1.0 / p)


def _format_scalar(x) -> str:
    if isinstance(x, bool) or isinstance(x, np.bool_):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        x = float(x)
        if math.isinf(x):
            return '"inf"' if x > 0 else '"-inf"'
        if math.isnan(x):
            return '"nan"'
        return f"{x:.17g}"
    raise TypeError(f"cannot serialize scalar {x!r}")


def _escape(s: str) -> str:
    out = []
    for ch in s:
        if ch == '"':
            out.append('\\"')
        elif ch == "\\":
            out.append("\\\\")
        elif ord(ch) < 0x20:
            out.append(f"\\u{ord(ch):04x}")
        else:
            out.append(ch)
    return "".join(out)


def canonical_json(obj, indent: int = 0) -> str:
    """Deterministic JSON: sorted keys, '%.17g' floats, 'inf' strings."""
    pad = " " * indent
    if obj is None:
        return "null"
    if isinstance(obj, str):
        return f'"{_escape(obj)}"'
    if isinstance(obj, (bool, np.bool_, int, np.integer, float, np.floating)):
        return _format_scalar(obj)
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = ", ".join(canonical_json(v, indent) for v in obj)
        return f"[{inner}]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        keys = sorted(obj.keys())
        parts = [f'"{_escape(str(k))}": {canonical_json(obj[k], indent)}' for k in keys]
        return "{" + ", ".join(parts) + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def parse_vector_text(text: str) -> np.ndarray:
    """Parse '1,2.5,-3' or space-separated numbers into a float array."""
    items = [t for t in text.replace(",", " ").split() if t]
    if not items:
        raise ValueError("empty vector literal")
    try:
        return np.array([float(t) for t in items], dtype=float)
    except ValueError as e:
        raise ValueError(f"bad vector literal {text!r}: {e}") from None
