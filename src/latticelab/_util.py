"""Shared plumbing: seed derivation, the hill climber, the check tolerances
and canonical JSON output.

Everything randomized in this package flows through :func:`rng_for`, which
hashes an explicit user seed together with string tags into an independent
stream per task; every searched lower bound climbs with :func:`hill_climb`
or one of its two exact replays without ``stop``: :func:`climb_lockstep`, many
climbs as one stack per step, and :func:`climb_ahead`, one climb as one stack
of all its remaining proposals per accept.  The six searches that draw their
starts before their first climb (the random-family, partition and
duality-gap searches of the constants, theta, the Z-body enrichment and the
multiplier's operator norm) run :func:`climb_starts`, the one driver of
``climb_lockstep``; ``hill_climb`` itself runs only the embedding checker's
climb, which needs ``stop``.  Every named verdict reads its tolerance from
:data:`TOLERANCES`.
Reports are serialized by :func:`canonical_json` with sorted
keys and 17-significant-digit floats so identical runs are byte-identical.
"""

from __future__ import annotations

import hashlib
import math
from types import MappingProxyType

import numpy as np

# The tolerance of each named check, read by the builder that decides it
# through a ``tol`` keyword that defaults to this table.
TOLERANCES = MappingProxyType({
    "sandwich": 1e-9, "unit-norm": 1e-9, "vee-ratio": 1e-9, "bound-match": 1e-9,
    "estimate-one": 1e-6, "embed-norm": 1e-9, "embed-lower": 1e-9,
    "q-convex": 1e-6, "renormed": 1e-9, "theta-product": 5e-2,
})

# the smallest normal float, and a bound: fewer than 2^34 terms below it have a finite sum
_TINY = float(np.finfo(float).tiny)
_BIG = 2.0 ** 990


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


# The step schedule of the climbers: the first step, its factor per proposal, its floor.
STEP0, STEP_DECAY, STEP_FLOOR = 0.5, 0.99, 0.02


def hill_climb(score, x0, rng, iters, project=None, stop=math.inf):
    """Seeded perturbation ascent, the one search loop behind every searched
    lower bound.  Each of at most ``iters`` proposals is
    ``project(x + step * N(0, I))`` and replaces x only if it scores strictly
    higher.  A ValueError from ``score`` rejects the proposal (an inadmissible
    start scores -inf and is returned as is, with nothing drawn), and the
    climb ends once the score exceeds ``stop``.  Returns (point, score).
    :func:`climb_lockstep` and :func:`climb_ahead` replay it without ``stop``."""
    try:
        best = score(x0)
    except ValueError:
        return x0, -math.inf
    x, step = x0, STEP0
    for _ in range(iters):
        if best > stop:
            break
        prop = x + step * rng.standard_normal(x.shape)
        if project is not None:
            prop = project(prop)
        step = max(STEP_FLOOR, step * STEP_DECAY)
        try:
            val = score(prop)
        except ValueError:
            continue
        if val > best:
            x, best = prop, val
    return x, best


def climb_lockstep(score, x0, best, masks, noise):
    """Independent hill climbs stepped together: climb b from x0[b], of score
    best[b], proposes ``masks[b] * (x[b] + step * noise[t, b])``, and ``score``
    maps the stack of proposals to scores (-inf if inadmissible).  Without
    ``stop`` a hill climb draws ``iters`` normals of its shape whatever it
    accepts, so with those draws as noise[:, b] (``standard_normal((iters,) +
    shape)`` makes them in one call) each climb replays hill_climb projected
    by its mask exactly.  Returns (points, scores)."""
    x, best, step = x0.copy(), np.array(best, dtype=float), STEP0
    for z in noise:
        prop = masks * (x + step * z)
        step = max(STEP_FLOOR, step * STEP_DECAY)
        val = score(prop)
        up = val > best
        x[up], best[up] = prop[up], val[up]
    return x, best


def stack_rows(mats) -> tuple:
    """(stack, groups): mats[b] atop zero rows in stack[b]; (indices, m) per length m."""
    counts = np.array([len(mat) for mat in mats])
    stack = np.zeros((len(mats), counts.max(), *mats[0].shape[1:]))
    for b, mat in enumerate(mats):
        stack[b, :len(mat)] = mat
    return stack, [(np.flatnonzero(counts == m), m) for m in sorted(set(counts.tolist()))]


# Consecutive climbs step as a group while its padded noise fits in this many bytes.
NOISE_BYTES = 1 << 18


def climb_starts(score, rng, iters: int, starts) -> list:
    """(x, score) of each start's climb: the draws and results of
    :func:`hill_climb` on one start after another, projected by the mask.
    ``starts`` yields (x0, mask, score of x0) lazily, after the previous
    climb's noise, one (iters, m, n) block (none for a -inf start, returned
    as is).  Groups of climbs step together in :func:`climb_lockstep`, one
    ``score(stack, groups)`` call a step on a :func:`stack_rows` stack."""
    out, group, rows = [], [], 0

    def run():
        if group:
            x0s, masks, vals, noise, at = zip(*group)
            X0, groups = stack_rows(x0s)
            Z = stack_rows([z.swapaxes(0, 1) for z in noise])[0].transpose(2, 0, 1, 3)
            X, best = climb_lockstep(lambda P: score(P, groups), X0, vals, stack_rows(masks)[0], Z)
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


def best_climb(climbs, floor=-math.inf) -> tuple:
    """(score, point) of the first climb of highest score; (floor, None) if none beats floor."""
    return max([(floor, None), *((val, x) for x, val in climbs)], key=lambda t: t[0])


def climb_ahead(score_rows, project_rows, x0, best, noise):
    """One hill climb without ``stop`` from x0, of score best, that scores all
    its remaining proposals ``project_rows(x + step_s * noise[s])``, s >= t,
    as one stack (-inf if inadmissible) and moves to the first that scores
    strictly higher, the one hill_climb accepts next; it looks ahead again
    from there and ends when none does.  With hill_climb's draws as noise
    (``standard_normal((iters,) + x0.shape)``) it replays hill_climb exactly,
    in accepts + 1 ``score_rows`` calls.  Returns (point, score)."""
    steps, step = np.empty(len(noise)), STEP0
    for t in range(len(noise)):
        steps[t] = step
        step = max(STEP_FLOOR, step * STEP_DECAY)
    steps = steps.reshape((-1,) + (1,) * (noise.ndim - 1))
    x, t = x0, 0
    while t < len(noise):
        prop = project_rows(x + steps[t:] * noise[t:])
        val = score_rows(prop)
        up = np.flatnonzero(val > best)
        if not up.size:
            break
        x, best, t = prop[up[0]], val[up[0]], t + int(up[0]) + 1
    return x, best


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
    # ndarray methods and ufunc reduce: the reductions of np.max/np.sum without
    # their Python dispatch, which costs more than the sum on short vectors
    if p == math.inf:
        return a.max(axis=axis, initial=0.0)
    if p == 1:
        return a.sum(axis=axis)
    # powers below _BIG have a finite sum, so only its low end needs a look; larger
    # ones may overflow, silently, and are rescaled.  Short vectors are bounded in Python
    top = max(a.tolist()) if a.ndim == 1 and 0 < len(a) <= 64 else a.max(initial=0.0)
    if top < _BIG ** (1.0 / p):
        s = np.add.reduce(a ** p, axis)
        if (s if s.ndim == 0 else s.min(initial=math.inf)) >= _TINY:
            return s ** (1.0 / p)
        return _rescaled(a, p, axis, s)
    with np.errstate(over="ignore"):
        return _rescaled(a, p, axis, np.add.reduce(a ** p, axis))


def lp_rows(mat, p: float) -> np.ndarray:
    """lp_norm of each row of a (k, n) stack, bit for bit the one-vector value: one
    scalar pow per root (the array pow of ``lp_norm(mat, p, axis=1)`` may round differently)."""
    if p == math.inf or p == 1:
        return lp_norm(mat, p, axis=1)
    a = np.abs(mat)
    with np.errstate(over="ignore"):  # a row whose power sum overflows is redone below
        sums = np.add.reduce(a ** p, 1).tolist()
    return np.array([s ** (1.0 / p) if _TINY <= s < math.inf else float(lp_norm(row, p))
                     for s, row in zip(sums, a)])


def _rescaled(a, p: float, axis, s):
    """lp_norm of the moduli a from their power sums s, 1 < p < inf: a slice whose sum
    left the normal float range (zero slices too) is summed again over its max entry."""
    out = s ** (1.0 / p)
    if out.ndim == 0:
        top = a.max(initial=0.0)
        if _TINY <= s < math.inf or not 0 < top < math.inf:
            return out
        return ((a / top) ** p).sum() ** (1.0 / p) * top
    redo = ~((_TINY <= s) & (s < math.inf))
    rows = np.moveaxis(a, axis, -1)[redo]
    top = rows.max(axis=-1, initial=0.0)
    top[~((top > 0) & (top < math.inf))] = 1.0
    out[redo] = ((rows / top[:, None]) ** p).sum(axis=-1) ** (1.0 / p) * top
    return out


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


def canonical_json(obj) -> str:
    """Deterministic JSON: sorted keys, '%.17g' floats, 'inf' strings."""
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
        inner = ", ".join(canonical_json(v) for v in obj)
        return f"[{inner}]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        keys = sorted(obj.keys())
        parts = [f'"{_escape(str(k))}": {canonical_json(obj[k])}' for k in keys]
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
