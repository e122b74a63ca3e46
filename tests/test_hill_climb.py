"""The one seeded hill climber behind every searched lower bound."""

import math

import numpy as np

from latticelab._util import climb_ahead, climb_lockstep, hill_climb, rng_for

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


def test_lockstep_replays_each_hill_climb():
    def score(x):
        if x[0, 0] > 0.9:
            raise ValueError("inadmissible")
        return closeness(x)

    def scores(stack):
        out = []
        for x in stack:
            try:
                out.append(score(x))
            except ValueError:
                out.append(-math.inf)
        return np.array(out)

    draw = rng_for(6, "hc")
    masks = [MASK, np.ones((2, 3)), MASK, np.ones((2, 3))]
    starts = [mask * 0.3 * draw.standard_normal((2, 3)) for mask in masks]
    rng = rng_for(7, "hc")
    want = [hill_climb(score, x0, rng, 80, mask.__mul__) for x0, mask in zip(starts, masks)]
    # the same draws: each climb's 80 proposals as one block, climb after climb
    rng = rng_for(7, "hc")
    noise = np.stack([rng.standard_normal((80, 2, 3)) for _ in starts], axis=1)
    X0 = np.stack(starts)
    assert np.all(scores(X0) > -math.inf)  # an inadmissible start draws nothing
    X, best = climb_lockstep(scores, X0, scores(X0), np.stack(masks), noise)
    for (x, val), xb, vb in zip(want, X, best):
        assert val == vb and np.array_equal(x, xb)
    assert not np.array_equal(X, X0)


def _replay(score, x0, iters, seed, project=None):
    """(hill_climb's result, climb_ahead's result on the same draws, the
    proposals hill_climb accepted, the stack sizes climb_ahead scored)."""
    recorded, seen = recording(score)
    want = hill_climb(recorded, x0, rng_for(seed, "ahead"), iters, project)
    accepts, best = 0, seen[0][1]
    for _, v in seen[1:]:
        if v > best:
            accepts, best = accepts + 1, v
    stacks = []

    def score_rows(stack):
        stacks.append(len(stack))
        return np.array([score(x) for x in stack])

    noise = rng_for(seed, "ahead").standard_normal((iters,) + x0.shape)
    got = climb_ahead(score_rows, project or (lambda stack: stack), x0, score(x0), noise)
    return want, got, accepts, stacks


def test_climb_ahead_replays_hill_climb():
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
    for seed in range(4):
        for score, x0, iters, project, acceptance in cases:
            (x, val), (xa, va), accepts, stacks = _replay(score, x0, iters, seed, project)
            assert np.array_equal(x, xa) and np.array_equal(val, va, equal_nan=True)
            assert accepts <= len(stacks) <= accepts + 1 and sum(stacks) <= iters * (accepts + 1)
            if acceptance == "high":
                assert accepts > iters // 3
            elif acceptance == "none":
                assert accepts == 0 and x is x0
    # the tie and nan cases accept something, so their rejections are tested
    for score in (cases[2][0], cases[3][0]):
        assert _replay(score, np.zeros((2, 3)), 150, 0)[2] > 0
