"""The closed-form oracles against brute-force subset enumeration.

Run from the repository root with ``python3 -m pytest perfbench/test_oracles.py``.
Instances have unequal weights and deliberate ties in |f| and in |b|/w; no
latticelab output is used anywhere.
"""

import math

import numpy as np
import pytest

import oracles as orc

REL = 1e-12


def _instances(count, max_atoms, seed):
    rng = np.random.default_rng(seed)
    for k in range(count):
        n = int(rng.integers(1, max_atoms + 1))
        w = rng.uniform(0.3, 3.0, n)
        f = rng.standard_normal(n)
        if n > 2 and k % 3 == 0:      # ties in |f|
            f[1] = -f[0]
            f[n - 1] = f[0]
        if n > 2 and k % 3 == 1:      # ties in |f|/w
            f[1] = f[0] * w[1] / w[0]
        if n > 3 and k % 4 == 3:      # zero entries
            f[2] = 0.0
        p = float(rng.uniform(1.2, 4.0))
        yield n, w, f, p, rng


def _close(a, b, rel=REL):
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


@pytest.mark.parametrize("seed", range(4))
def test_superlevel_scan_equals_brute_force(seed):
    for n, w, f, p, rng in _instances(75, orc.BRUTE_MAX_ATOMS, seed):
        for r in (1.0, float(rng.uniform(1.0, p))):
            assert _close(orc.norm_pinfty_r(f, w, p, r), orc.brute_norm_pinfty_r(f, w, p, r))
        assert _close(orc.quasinorm_pinfty(f, w, p), orc.brute_quasinorm_pinfty(f, w, p))


@pytest.mark.parametrize("seed", range(4))
def test_edmonds_greedy_equals_subset_lp(seed):
    for n, w, f, p, _ in _instances(75, 10, 100 + seed):
        val, x = orc.dual_pinfty_1(f, w, p)
        assert abs(val - orc.brute_dual_pinfty_1(f, w, p)) <= 1e-9 * max(1.0, val)
        assert _close(float(x @ f), val)
        assert orc.norm_pinfty_r(x, w, p, 1.0) <= 1 + 1e-12


@pytest.mark.parametrize("seed", range(4))
def test_q1_prefix_scan_equals_brute_force(seed):
    for n, w, f, p, _ in _instances(75, orc.BRUTE_MAX_ATOMS, 200 + seed):
        assert _close(orc.dual_q1(f, w, p), orc.brute_dual_q1(f, w, p))
        assert _close(orc.norm_q1(f, w, p), orc.brute_norm_q1(f, w, p))


def test_renorming_sandwich_and_r_monotonicity():
    for n, w, f, p, rng in _instances(200, orc.BRUTE_MAX_ATOMS, 300):
        quasi = orc.quasinorm_pinfty(f, w, p)
        r1, r2 = sorted(rng.uniform(1.0, p, 2))
        n1, n2 = orc.norm_pinfty_r(f, w, p, r1), orc.norm_pinfty_r(f, w, p, r2)
        assert quasi <= n1 * (1 + REL) and n1 <= n2 * (1 + REL)
        assert n2 <= (p / (p - r2)) ** (1.0 / r2) * quasi * (1 + REL)


def test_holder_bound_dominates_pairings_and_is_tight_at_norming_points():
    for n, w, f, p, rng in _instances(200, 10, 400):
        r = float(rng.uniform(1.05, p))
        bound = orc.holder_dual_bound_pinfty(f, w, p, r)
        for _ in range(5):
            x = rng.standard_normal(n)
            x = x / orc.norm_pinfty_r(x, w, p, r)
            assert float(x @ f) <= bound * (1 + REL)
        # Hoelder-tight functional on the best superlevel set of |f|
        a = np.abs(f)

        def level_value(t):
            A = a >= t
            return w[A].sum() ** (1 / p - 1 / r) * np.sum(w[A] * a[A] ** r) ** (1 / r)

        A = a >= max(a[a > 0], key=level_value)
        mass, integ = w[A].sum(), np.sum(w[A] * a[A] ** r)
        b = np.where(A, mass ** (1 / p - 1 / r) * integ ** (1 / r - 1) * w * a ** (r - 1), 0.0) * np.sign(f)
        assert _close(float(b @ f), orc.norm_pinfty_r(f, w, p, r))
        assert orc.holder_dual_bound_pinfty(b, w, p, r) <= 1 + REL


def test_gauge_dual_lp_against_primal_lp():
    from scipy.optimize import linprog

    rng = np.random.default_rng(500)
    for _ in range(100):
        d = int(rng.integers(1, 5))
        G = np.abs(rng.standard_normal((int(rng.integers(1, 30)), d)))
        y = rng.standard_normal(d)
        primal = linprog(np.ones(G.shape[0]), A_ub=-G.T, b_ub=-np.abs(y),
                         bounds=[(0, None)] * G.shape[0], method="highs")
        dual = orc.gauge_dual_lp(G, y)
        assert abs(primal.fun - dual) <= 1e-9 * max(1.0, dual)
        assert orc.gauge_dual_lp(G, -y) == dual
    G = np.array([[1.0, 0.0]])
    assert orc.gauge_dual_lp(G, [0.0, 1.0]) == math.inf
    assert orc.gauge_dual_lp(G, [0.0, 0.0]) == 0.0
