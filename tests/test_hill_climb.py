"""The one seeded hill climber behind every searched lower bound."""

import math

import numpy as np
import pytest

from latticelab import _util
from latticelab._util import climb_lockstep, climb_starts, hill_climb, rng_for

TARGET = np.array([[0.8, -1.5, 2.0], [-0.3, 1.1, 0.4]])
MASK = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])


def recording(score):
    """score, plus the list of (point, value) pairs it was asked for."""
    seen = []

    def wrapped(x):
        val = score(x)
        seen.append((x.copy(), val))
        return val

    return wrapped, seen


def closeness(x):
    return -float(np.sum((x - TARGET) ** 2))


def nonneg(x):
    return np.maximum(x, 0.0)


def test_same_seed_same_path():
    runs = []
    for _ in range(2):
        score, seen = recording(closeness)
        x, val = hill_climb(score, np.zeros((2, 3)), rng_for(4, "hc"), 200, nonneg)
        runs.append((x, val, seen))
    (x1, v1, s1), (x2, v2, s2) = runs
    assert v1 == v2 and np.array_equal(x1, x2)
    assert len(s1) == len(s2) == 201
    assert all(np.array_equal(a, b) and u == w for (a, u), (b, w) in zip(s1, s2))
    assert v1 > closeness(np.zeros((2, 3)))


def test_inadmissible_start_scores_minus_inf():
    def score(x):
        if np.all(x == 0):
            raise ValueError("zero family")
        return 1.0

    rng = rng_for(0, "hc")
    x0 = np.zeros(3)
    x, val = hill_climb(score, x0, rng, 50)
    assert val == -math.inf and x is x0
    # nothing was drawn from the stream
    assert rng.standard_normal() == rng_for(0, "hc").standard_normal()


def test_value_error_rejects_a_proposal():
    def score(x):
        if x[0] < 0:
            raise ValueError("inadmissible")
        return -abs(x[0] - 1.0)

    x, val = hill_climb(score, np.array([0.5]), rng_for(1, "hc"), 300)
    assert x[0] >= 0 and val >= -0.5


def test_stop_ends_the_climb_early():
    score, seen = recording(closeness)
    start = closeness(np.zeros((2, 3)))
    x, val = hill_climb(score, np.zeros((2, 3)), rng_for(2, "hc"), 500, stop=start + 1.0)
    assert val > start + 1.0
    # the last proposal scored is the first one past the stop
    assert seen[-1][1] == val and all(v <= start + 1.0 for _, v in seen[:-1])
    assert len(seen) < 501
    # a start already past the stop is returned without a proposal
    score, seen = recording(closeness)
    hill_climb(score, np.zeros((2, 3)), rng_for(2, "hc"), 500, stop=start - 1.0)
    assert len(seen) == 1


def test_accepted_points_are_fixed_points_of_project():
    for project in (nonneg, MASK.__mul__):
        score, seen = recording(closeness)
        x, val = hill_climb(score, project(np.ones((2, 3))), rng_for(3, "hc"), 300, project)
        best, accepted = -math.inf, []
        for point, v in seen:
            if v > best:
                best = v
                accepted.append(point)
        assert len(accepted) > 1
        assert np.array_equal(accepted[-1], x) and best == val
        for point in accepted:
            assert np.array_equal(project(point), point)


def test_scaled_score_takes_the_same_path():
    # a power-of-two factor scales every value exactly, so every strict
    # comparison, and hence every accept/reject decision, is unchanged
    paths = []
    for c in (1.0, 8.0, 0.25):
        score, seen = recording(lambda x, c=c: c * closeness(x))
        x, val = hill_climb(score, np.zeros((2, 3)), rng_for(5, "hc"), 200, nonneg)
        paths.append((x, val / c, [p for p, _ in seen]))
    x0, v0, s0 = paths[0]
    for x, v, s in paths[1:]:
        assert np.array_equal(x, x0) and v == v0
        assert all(np.array_equal(a, b) for a, b in zip(s, s0))


class Draws:
    """A stand-in rng whose standard_normal hands out the given blocks in turn."""

    def __init__(self, blocks):
        self.blocks = iter(blocks)

    def standard_normal(self, shape):
        z = next(self.blocks)
        assert z.shape == shape
        return z


def minus_inf(score, x):
    """score(x), or -inf where it raises ValueError."""
    try:
        return score(x)
    except ValueError:
        return -math.inf


def _lockstep(score, X0, masks, noise):
    """(hill_climb's (x, score) of each climb b on the draws noise[:, b],
    climb_lockstep's (points, scores), the size of each stack it scored)."""
    want = [hill_climb(score, x0, Draws(noise[:, b]), len(noise), mask.__mul__)
            for b, (x0, mask) in enumerate(zip(X0, masks))]
    stacks = []

    def scores(stack, climbs):
        stacks.append(len(stack))
        assert np.array_equal(stack, masks[climbs] * stack)  # each row is its own climb's
        return np.array([minus_inf(score, x) for x in stack])

    got = climb_lockstep(scores, X0, [minus_inf(score, x0) for x0 in X0],
                         lambda P, climbs: masks[climbs] * P, noise)
    return want, got, stacks


def _same(want, got):
    X, best = got
    for (x, val), xb, vb in zip(want, X, best):
        assert val == vb and np.array_equal(x, xb)


def test_lockstep_replays_each_hill_climb():
    def score(x):
        if x[0, 0] > 0.9:
            raise ValueError("inadmissible")
        return closeness(x)

    draw = rng_for(6, "hc")
    masks = np.stack([MASK, np.ones((2, 3)), MASK, np.ones((2, 3))])
    X0 = np.stack([mask * 0.3 * draw.standard_normal((2, 3)) for mask in masks])
    assert all(minus_inf(score, x0) > -math.inf for x0 in X0)  # an inadmissible start draws nothing
    rng = rng_for(7, "hc")  # each climb's 80 proposals as one block, climb after climb
    noise = np.stack([rng.standard_normal((80, 2, 3)) for _ in X0], axis=1)
    want, got, stacks = _lockstep(score, X0, masks, noise)
    _same(want, got)
    assert not np.array_equal(got[0], X0)
    assert len(stacks) < 80 and stacks[0] == 80 * len(X0)  # the first window is every proposal

    # proposals that score -inf (not raise) are rejected the same way
    inf_score = lambda x: -math.inf if x[0, 0] > 0.9 else closeness(x)
    _same(*_lockstep(inf_score, X0, masks, noise)[:2])


def test_lockstep_windows_replay_every_and_no_accept():
    # sum(x) rises at every proposal along positive noise and at none along negative
    draw, iters = rng_for(9, "hc"), 60
    signs = np.array([1.0, -1.0, 0.0, 1.0])  # 0: plain normal noise
    noise = draw.standard_normal((iters, 4, 2, 3))
    noise[:, signs != 0] = np.abs(noise[:, signs != 0]) * signs[signs != 0, None, None]
    X0, masks = draw.standard_normal((4, 2, 3)), np.ones((4, 2, 3))
    total = lambda x: float(np.sum(x))
    want, got, stacks = _lockstep(total, X0, masks, noise)
    _same(want, got)
    assert np.array_equal(got[0][1], X0[1]) and not np.array_equal(got[0][0], X0[0])
    for b in (0, 3):  # one call per accept round and at most about twice the rows
        want_b, got_b, stacks_b = _lockstep(total, X0[b:b + 1], masks[:1], noise[:, b:b + 1])
        _same(want_b, got_b)
        assert len(stacks_b) == iters and sum(stacks_b) <= 3 * iters
    want_b, got_b, stacks_b = _lockstep(total, X0[1:2], masks[:1], noise[:, 1:2])
    _same(want_b, got_b)
    assert stacks_b == [iters]  # one window: nothing accepted
    once = noise[:, 1:2].copy()  # one accept, at the first proposal: then windows double
    once[0] = -once[0]
    want_b, got_b, stacks_b = _lockstep(total, X0[1:2], masks[:1], once)
    _same(want_b, got_b)
    assert not np.array_equal(got_b[0], X0[1:2]) and len(stacks_b) <= 2 + iters.bit_length()
    _same(*_lockstep(total, X0, masks, noise[:0])[:2])  # no proposals at all


@pytest.mark.parametrize("noise_bytes", [1, _util.NOISE_BYTES])
def test_climb_starts_replays_mixed_lengths(monkeypatch, noise_bytes):
    monkeypatch.setattr(_util, "NOISE_BYTES", noise_bytes)

    def score(x):  # families of m rows of R^3
        if not x.any() or x[0, 0] > 1.2:
            raise ValueError("inadmissible")
        return -float(np.sum((x - 0.4 * len(x)) ** 2))

    def starts(rng):
        for m in (1, 3, 2, 3, 1, 2, 2):
            mask = (rng.random((m, 3)) < 0.7).astype(float)
            x0 = mask * rng.standard_normal((m, 3))
            yield x0, mask, minus_inf(score, x0)
        yield np.zeros((2, 3)), np.ones((2, 3)), -math.inf  # returned as is, nothing drawn

    def stacked(P, groups):
        out, seen = np.full(len(P), np.nan), []
        for idx, m in groups:
            assert not P[idx, m:].any()  # the rows past a family's length are padding
            out[idx] = [minus_inf(score, P[i, :m]) for i in idx]
            seen += list(idx)
        assert sorted(seen) == list(range(len(P)))
        return out

    rng = rng_for(8, "hc")
    want = [hill_climb(score, x0, rng, 70, mask.__mul__) for x0, mask, _ in starts(rng)]
    rng = rng_for(8, "hc")
    got = climb_starts(stacked, rng, 70, starts(rng))
    assert len(got) == len(want) and want[-1][1] == -math.inf
    for (x, val), (xg, vg) in zip(want, got):
        assert val == vg and x.shape == xg.shape and np.array_equal(x, xg)


def _replay(score, x0, iters, seeds, project=None):
    """(hill_climb's result from x0 on the draws of each seed, climb_lockstep's
    result on all of them as one stack of climbs projected by ``project``, the
    proposals each hill_climb accepted, the rows of each climb climb_lockstep
    scored, the stack sizes it scored)."""
    want, accepts = [], []
    for seed in seeds:
        recorded, seen = recording(score)
        want.append(hill_climb(recorded, x0, rng_for(seed, "ahead"), iters, project))
        count, best = 0, seen[0][1]
        for _, v in seen[1:]:
            if v > best:
                count, best = count + 1, v
        accepts.append(count)
    rows, stacks = np.zeros(len(seeds), dtype=int), []

    def scores(stack, climbs):
        stacks.append(len(stack))
        np.add.at(rows, climbs, 1)
        return np.array([score(x) for x in stack])

    noise = np.stack([rng_for(seed, "ahead").standard_normal((iters,) + x0.shape) for seed in seeds],
                     axis=1)
    X0 = np.stack([x0] * len(seeds))
    got = climb_lockstep(scores, X0, [score(x0)] * len(seeds),
                         lambda P, climbs: P if project is None else project(P), noise)
    return want, got, accepts, rows, stacks


def test_lockstep_with_a_projection_replays_hill_climb():
    far = np.full((2, 3), 40.0)

    def rounded(x):  # many proposals tie the current score
        return float(np.round(closeness(x), 0))

    def nan_corner(x):
        return math.nan if x[0, 0] > 0.4 else closeness(x)

    cases = [  # (score, x0, iters, projection, expected acceptance)
        (lambda x: -float(np.sum((x - far) ** 2)), np.zeros((2, 3)), 150, None, "high"),
        (lambda x: 1.0, np.zeros((2, 3)), 150, None, "none"),
        (rounded, np.zeros((2, 3)), 150, None, None),
        (nan_corner, np.zeros((2, 3)), 150, None, None),
        (nan_corner, np.ones((2, 3)), 150, None, "none"),  # a nan start accepts nothing
        (closeness, np.zeros((2, 3)), 150, nonneg, None),
        (closeness, MASK * 0.5, 150, MASK.__mul__, None),
        (closeness, np.zeros((2, 3)), 0, None, "none"),
        (closeness, np.zeros((2, 3)), 1, None, None),
        (lambda x: -float(np.sum((x - 1.5) ** 2)), np.zeros(4), 150, None, None),
    ]
    seeds = range(4)  # four climbs in one stack
    for score, x0, iters, project, acceptance in cases:
        want, (X, best), accepts, rows, stacks = _replay(score, x0, iters, seeds, project)
        for (x, val), xb, vb in zip(want, X, best):
            assert np.array_equal(x, xb) and np.array_equal(val, vb, equal_nan=True)
        # every round uses up at least one proposal of each live climb
        assert np.all(rows <= 3 * iters) and len(stacks) <= iters
        if acceptance == "high":
            assert min(accepts) > iters // 3
        elif acceptance == "none":
            assert max(accepts) == 0 and all(x is x0 for x, _ in want)
            assert np.array_equal(X, np.stack([x0] * len(seeds)))
    # the tie and nan cases accept something, so their rejections are tested
    for score in (cases[2][0], cases[3][0]):
        assert min(_replay(score, np.zeros((2, 3)), 150, seeds)[2]) > 0
