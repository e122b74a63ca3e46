"""Lattice types, norm evaluation, dual norms, and the JSON schema."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import latticelab as ll
from latticelab._util import canonical_json, conjugate, lp_norm, lp_rows

CM = ll.AtomicMeasure.counting


def test_eval_norm_lp_examples():
    assert ll.eval_norm(ll.NormedLattice(2, ll.Lp(2)), [3, 4]) == pytest.approx(5.0, abs=1e-12)
    assert ll.eval_norm(ll.NormedLattice(3, ll.Lp(1)), [1, -2, 3]) == pytest.approx(6.0, abs=1e-12)
    assert ll.eval_norm(ll.NormedLattice(3, ll.Lp(math.inf)), [1, -2, 0.5]) == pytest.approx(2.0, abs=1e-12)


@pytest.mark.filterwarnings("error:overflow encountered")
def test_lp_norms_scale_past_the_float_range():
    """|x|^p leaving the float range is summed divided by max |x_i|; values
    whose power sums stay in range keep the bits of the unscaled sum."""
    L2, L3 = ll.NormedLattice(2, ll.Lp(2)), ll.NormedLattice(2, ll.Lp(3))
    for t in (1e200, 1e-200, 1e-160):
        assert ll.eval_norm(L2, [t, t]) == pytest.approx(math.sqrt(2) * t, rel=1e-15)
    for t in (1e120, 1e-120):
        assert ll.eval_norm(L3, [t, -t]) == pytest.approx(2 ** (1 / 3) * t, rel=1e-15)
    est = ll.eval_dual_norm(L2, [1e200, 1e200])
    assert est.value == pytest.approx(math.sqrt(2) * 1e200, rel=1e-15)
    assert ll.norming_functional(L2, [1e200, 1e200]) == pytest.approx([2 ** -0.5] * 2, rel=1e-15)
    rows = np.array([[3.0, 4.0], [1e200, 1e200], [0.0, 0.0], [1e-200, 0.0], [0.3, 1e-3]])
    got = ll.Lp(2).eval_rows(rows)
    assert got[[0, 4]].tobytes() == ((rows[[0, 4]] ** 2).sum(axis=1) ** 0.5).tobytes()
    assert got[1:4] == pytest.approx([math.sqrt(2) * 1e200, 0.0, 1e-200], rel=1e-15)
    v = np.array([0.3, 1e-3])
    assert ll.eval_norm(L2, v) == float((v ** 2).sum() ** 0.5)


@pytest.mark.filterwarnings("error:overflow encountered")
@pytest.mark.parametrize("p", [1.5, 2.0, 3.7])
def test_lp_rows_are_the_one_vector_norms(p):
    """lp_rows gives each row the bits of lp_norm on that row alone, also for
    rows whose power sums leave the float range and for zero and nan rows."""
    rows = np.random.default_rng(3).standard_normal((40, 5))
    big, tiny, odd = rows.copy(), rows.copy(), rows.copy()
    big[::7] *= 1e200
    tiny[3::7] *= 1e-200
    odd[5], odd[6, 2] = 0.0, math.nan
    for stack in (rows, big, tiny, odd, big * tiny * odd, rows[:0]):
        want = np.array([float(lp_norm(row, p)) for row in stack])
        assert lp_rows(stack, p).tobytes() == want.tobytes()


@pytest.mark.filterwarnings("error:overflow encountered")
@pytest.mark.parametrize("p", [1.2, 1.5])
@pytest.mark.parametrize("b", [(1e200, 1e200), (1e-200, 1e-200), (-3e200, 1e199),
                               (2e-200, -7e-201)])
def test_lp_dual_witness_is_finite_past_the_float_range(p, b):
    """|b|^(q-1) leaves the float range for p < 2 at these scales; the witness
    is 0-homogeneous in b, so it is computed from b / max |b_i|."""
    est = ll.eval_dual_norm(ll.NormedLattice(2, ll.Lp(p)), list(b))
    x = np.asarray(est.witness, dtype=float)
    assert np.all(np.isfinite(x))
    assert float(np.sum(np.abs(x) ** p) ** (1 / p)) == pytest.approx(1.0, abs=1e-15)
    assert float(x @ np.array(b)) == pytest.approx(est.value, rel=1e-13)


def test_eval_norm_example54_dual():
    E = ll.NormedLattice(3, ll.Example54Dual(2))
    assert ll.eval_norm(E, [1, 1, 0]) == pytest.approx(2.0, abs=1e-12)
    assert ll.eval_norm(E, [1, 1, 1]) == pytest.approx(math.sqrt(5), abs=1e-12)
    # symmetric under permutations and signs
    assert ll.eval_norm(E, [0, -1, 1]) == pytest.approx(2.0, abs=1e-12)


def test_example54_dual_closed_form_against_a_grid():
    """The closed-form dual of the Example 5.4 norm against the best point of
    a 1/1000 grid on the positive part of the unit sphere: x_0 and x_1 on the
    grid, x_2 the largest value that keeps all three terms at most 1."""
    X2 = ll.NormedLattice(3, ll.Example54Dual(2))
    assert ll.eval_dual_norm(X2, [1, 1, 1]).value == pytest.approx(3 / math.sqrt(5), rel=1e-15, abs=0)
    rng = np.random.default_rng(54)
    x0, x1 = np.meshgrid(np.linspace(0, 1, 1001), np.linspace(0, 1, 1001))
    x0, x1 = x0.ravel(), x1.ravel()
    # one case in each branch of the closed form, then random ones
    cases = [(2.0, np.array([1.0, 0.3, -0.2])), (2.0, np.array([-0.5, 1.0, 0.55])),
             (3.0, np.array([0.9, 0.95, -1.0]))]
    for k in range(37):
        b = rng.standard_normal(3)
        if k % 3 == 0:
            b[rng.integers(3)] = 0.0
        elif k % 3 == 1:
            j = int(np.argmax(np.abs(b)))
            b[(j + 1) % 3] = -b[j]  # a tie for the largest modulus
        cases.append((float(rng.uniform(1.2, 5)), b))
    branches = set()
    for p, b in cases:
        a = np.abs(b)
        r = (a.sum() - 2 * a.max()) / a.max()
        branches.add(0 if r <= 0 else (1 if r ** (p - 1) <= 0.5 else 2))
        X = ll.NormedLattice(3, ll.Example54Dual(p))
        est = ll.eval_dual_norm(X, b)
        assert est.side == "exact"
        s = p / (p - 1)
        with np.errstate(invalid="ignore"):  # off the ball the roots are nan
            x2 = np.minimum(np.minimum((1 - x0 ** s) ** (1 / s) - x1, (1 - x1 ** s) ** (1 / s) - x0),
                            (1 - (x0 + x1) ** s) ** (1 / s))
        ok = x2 >= 0
        grid = float((a[0] * x0[ok] + a[1] * x1[ok] + a[2] * x2[ok]).max())
        assert grid <= est.value * (1 + 1e-12)
        assert est.value - grid <= 5e-4 * est.value
        w = np.asarray(est.witness)
        assert ll.eval_norm(X, w) <= 1 + 1e-15
        assert float(w @ b) == pytest.approx(est.value, rel=1e-15, abs=0)
    assert branches == {0, 1, 2}


def test_eval_norm_linf_sum():
    S = ll.NormedLattice(4, ll.LinfSum((ll.NormedLattice(2, ll.Lp(2)),
                                        ll.NormedLattice(2, ll.Lp(1)))))
    assert ll.eval_norm(S, [3, 4, 1, 1]) == pytest.approx(5.0, abs=1e-12)
    assert ll.eval_norm(S, [0, 0, 3, -4]) == pytest.approx(7.0, abs=1e-12)


def test_eval_dual_norm_lp_examples():
    est = ll.eval_dual_norm(ll.NormedLattice(2, ll.Lp(2)), [3, 4])
    assert est.side == "exact"
    assert est.value == pytest.approx(5.0, abs=1e-12)
    est = ll.eval_dual_norm(ll.NormedLattice(2, ll.Lp(1)), [1, -2])
    assert est.side == "exact"
    assert est.value == pytest.approx(2.0, abs=1e-12)


def test_dual_norm_witness_attains_value():
    rng = np.random.default_rng(5)
    lattices = [
        ll.NormedLattice(4, ll.Lp(2.5)),
        ll.NormedLattice(3, ll.WeightedLorentzPInfty(2, 1, CM(3))),
        ll.NormedLattice(3, ll.WeightedLorentzQ1(2, ll.AtomicMeasure((1.0, 0.5, 2.0)))),
        ll.NormedLattice(4, ll.LinfSum((ll.NormedLattice(2, ll.Lp(2)),
                                        ll.NormedLattice(2, ll.Lp(3))))),
    ]
    for X in lattices:
        for _ in range(5):
            b = rng.standard_normal(X.dim)
            est = ll.eval_dual_norm(X, b)
            wit = np.asarray(est.witness)
            assert ll.eval_norm(X, wit) <= 1 + 1e-9
            assert float(wit @ b) == pytest.approx(est.value, abs=1e-9)


def test_dual_norm_dominates_sampled_pairings():
    rng = np.random.default_rng(17)
    X = ll.NormedLattice(4, ll.WeightedLorentzPInfty(3, 1, ll.AtomicMeasure((0.3, 1.2, 2.0, 0.7))))
    for _ in range(3):
        b = rng.standard_normal(4)
        est = ll.eval_dual_norm(X, b)
        assert est.side == "exact"
        for x in rng.standard_normal((400, 4)):
            n = ll.eval_norm(X, x)
            assert abs(float(x @ b)) <= est.value * n + 1e-9


def test_lorentz_duals_match_brute_force():
    # [1]-dual against the LP with one row per atom subset, q,1-dual against
    # enumeration of every subset; unequal weights, tied moduli and zeros
    from scipy.optimize import linprog

    from latticelab.lorentz import subset_mask_chunks

    rng = np.random.default_rng(23)
    for _ in range(40):
        n = int(rng.integers(1, 11))
        w = rng.uniform(0.3, 3.0, n)
        b = rng.standard_normal(n)
        b[rng.random(n) < 0.2] = 0.0
        b[-1] = -b[0]
        p = float(rng.uniform(1.3, 4.0))
        mu = ll.AtomicMeasure(tuple(w.tolist()))
        masks = np.vstack(list(subset_mask_chunks(n)))
        res = linprog(-np.abs(b), A_ub=masks * w, b_ub=(masks @ w) ** (1 - 1 / p),
                      bounds=[(0, None)] * n, method="highs")
        assert res.status == 0
        est = ll.eval_dual_norm(ll.NormedLattice(n, ll.WeightedLorentzPInfty(p, 1, mu)), b)
        assert est.side == "exact"
        assert est.value == pytest.approx(-res.fun, rel=1e-9, abs=1e-12)
        brute = float(np.max((masks @ np.abs(b)) / (p * (masks @ w) ** (1 / p))))
        est = ll.eval_dual_norm(ll.NormedLattice(n, ll.WeightedLorentzQ1(p, mu)), b)
        assert est.side == "exact"
        assert est.value == pytest.approx(brute, rel=1e-9, abs=1e-12)


def _r_dual_corpus(seed, count, n_max):
    """(n, p, r, w, b): equal and unequal weights, zeros, density ties, sign flips."""
    rng = np.random.default_rng(seed)
    for t in range(count):
        n = int(rng.integers(1, n_max + 1))
        w = rng.uniform(0.3, 3.0, n) if t % 2 else np.ones(n)
        b = rng.standard_normal(n)
        b[rng.random(n) < 0.2] = 0.0
        if n > 1 and t % 3 == 0:
            b[-1] = -b[0] * w[-1] / w[0]
        p = float(rng.uniform(1.3, 4.0))
        yield n, p, 1 + (p - 1) * float(rng.uniform(0.05, 0.95)), w, b


def _r_dual_reference(a, w, p, r, masks, starts):
    """max <a, x> over x >= 0 with sum_A w_i x_i^r <= mu(A)^(1-r/p) on every
    subset A: SLSQP from several feasible starts, each result scaled back into
    the ball, so every value it returns is attained."""
    from scipy.optimize import minimize

    rows, rhs = masks * w, (masks @ w) ** (1 - r / p)
    rng = np.random.default_rng(0)
    best = 0.0
    for _ in range(starts):
        g = rng.random(a.size) + 0.05
        x0 = g * (0.9 / np.max(rows @ g ** r / rhs)) ** (1 / r)
        res = minimize(lambda x: -float(a @ x), x0, jac=lambda x: -a, method="SLSQP",
                       bounds=[(0, None)] * a.size,
                       constraints=[{"type": "ineq", "fun": lambda x: rhs - rows @ np.abs(x) ** r,
                                     "jac": lambda x: -rows * r * np.abs(x) ** (r - 1)}],
                       options={"maxiter": 300, "ftol": 1e-15})
        x = np.maximum(res.x, 0.0)
        x /= max(1.0, float(np.max(rows @ x ** r / rhs))) ** (1 / r)
        best = max(best, float(a @ x))
    return best


def test_lorentz_r_dual_matches_all_subset_reference():
    from latticelab.lorentz import subset_mask_chunks

    for n, p, r, w, b in _r_dual_corpus(29, 150, 8):
        mu = ll.AtomicMeasure(tuple(w.tolist()))
        est = ll.eval_dual_norm(ll.NormedLattice(n, ll.WeightedLorentzPInfty(p, r, mu)), b)
        assert est.side == "exact"
        f = np.asarray(est.witness)
        assert float(f @ b) == pytest.approx(est.value, rel=1e-12, abs=1e-300)
        masks = np.vstack(list(subset_mask_chunks(n)))
        rhs = (masks @ w) ** (1 - r / p)
        assert np.all(masks @ (w * np.abs(f) ** r) <= rhs * (1 + 1e-12))
        if n <= 6:
            ref = _r_dual_reference(np.abs(b), w, p, r, masks, starts=4)
            assert ref <= est.value * (1 + 1e-9) + 1e-300


def test_lorentz_r_dual_tends_to_one_dual():
    # at r = 1 + 1e-9 the weights c_i = (a_i/w_i)^{r/(r-1)} w_i span far more
    # than the float range; the [r]-dual must still approach the [1]-dual
    for n, p, _, w, b in _r_dual_corpus(31, 60, 30):
        mu = ll.AtomicMeasure(tuple(w.tolist()))
        one = ll.eval_dual_norm(ll.NormedLattice(n, ll.WeightedLorentzPInfty(p, 1, mu)), b)
        est = ll.eval_dual_norm(ll.NormedLattice(n, ll.WeightedLorentzPInfty(p, 1 + 1e-9, mu)), b)
        assert est.side == "exact"
        assert est.value == pytest.approx(one.value, rel=1e-8, abs=1e-300)


@pytest.mark.filterwarnings("error:overflow encountered in divide:RuntimeWarning")
@pytest.mark.parametrize("r", [1.0, 1.5])
def test_lorentz_dual_order_survives_overflowing_densities(r):
    # b_i / w_i overflows to inf for both atoms; the dual must not depend on
    # the order in which the atoms are listed
    mu = ll.AtomicMeasure((1e-20, 1e-20))
    X = ll.NormedLattice(2, ll.WeightedLorentzPInfty(2.0, r, mu))
    ests = [ll.eval_dual_norm(X, np.array(b)) for b in ((1e290, 3e290), (3e290, 1e290))]
    assert ests[0].value == pytest.approx(ests[1].value, rel=1e-14)
    for est in ests:
        assert est.side == "exact"
        assert ll.eval_norm(X, est.witness) <= 1 + 1e-12


@pytest.mark.filterwarnings("error:overflow encountered")
def test_q1_dual_scales_past_the_float_range():
    # the prefix sums of 1e308-sized moduli overflow; the scan scales them down
    mu = ll.AtomicMeasure((1.0, 2.0, 0.5))
    X = ll.NormedLattice(3, ll.WeightedLorentzQ1(2, mu))
    b = 1e308 * np.array([1.0, -1.0, 1.0])
    ref = ll.eval_dual_norm(X, b * 2.0 ** -20).value * 2.0 ** 20
    assert ref == pytest.approx(0.8164965809277261e308, rel=1e-15)
    est = ll.eval_dual_norm(X, b)
    assert est.side == "exact"
    assert est.value == pytest.approx(ref, rel=1e-15)
    pre = ll.NormedLattice(3, ll.PredualOf(X.norm))
    assert ll.eval_norm(pre, b) == pytest.approx(ref, rel=1e-15)


def test_r_dual_exactness_reaches_wrappers():
    mu = ll.AtomicMeasure((0.5, 2.0, 1.0))
    rng = np.random.default_rng(3)
    pre = ll.NormedLattice(3, ll.PredualOf(ll.WeightedLorentzPInfty(3, 1.5, mu)))
    assert ll.eval_norm_detail(pre, rng.standard_normal(3))[1] == "exact"
    outer = ll.WeightedLorentzPInfty(2.5, 1.5, ll.AtomicMeasure((1.0, 2.0)))
    X = ll.NormedLattice(4, ll.BlockLorentz(outer, (ll.NormedLattice(2, ll.Lp(2)),
                                                     ll.NormedLattice(2, ll.Lp(3)))))
    est = ll.eval_dual_norm(X, rng.standard_normal(4))
    assert est.side == "exact"
    assert ll.eval_norm(X, est.witness) <= 1 + 1e-12


@pytest.mark.parametrize("n", [21, 64, 1024])
def test_lorentz_kernels_exact_above_twenty_atoms(n):
    rng = np.random.default_rng(n)
    mu = ll.AtomicMeasure(tuple(rng.uniform(0.3, 3.0, n).tolist()))
    b = rng.standard_normal(n)
    p = 2.0
    X1 = ll.NormedLattice(n, ll.WeightedLorentzPInfty(p, 1, mu))
    assert ll.eval_norm_detail(X1, b)[1] == "exact"
    values = []
    for side, spec in (("exact", X1.norm), ("exact", ll.WeightedLorentzQ1(p, mu)),
                       ("exact", ll.WeightedLorentzPInfty(p, 1.5, mu))):
        X = ll.NormedLattice(n, spec)
        est = ll.eval_dual_norm(X, b)
        assert est.side == side
        wit = np.asarray(est.witness)
        assert float(wit @ b) == pytest.approx(est.value, rel=1e-12)
        assert ll.eval_norm(X, wit) <= 1 + 1e-12
        values.append(est.value)
    # the [r]-ball lies inside the [1]-ball
    assert values[2] <= values[0] * (1 + 1e-12)


def test_sigma_apply_examples():
    out = ll.sigma_apply(ll.SymmetricSeqNorm(2), [np.array([1.0, 0.0]), np.array([0.0, 1.0])])
    assert np.allclose(out, [1.0, 1.0])
    out = ll.sigma_apply(ll.SymmetricSeqNorm(math.inf), [np.array([1.0, -3.0]), np.array([2.0, 1.0])])
    assert np.allclose(out, [2.0, 3.0])
    out = ll.sigma_apply(ll.SymmetricSeqNorm(1), [np.array([1.0, 1.0]), np.array([2.0, -2.0])])
    assert np.allclose(out, [3.0, 3.0])


def test_sigma_dual_involution():
    for p in [1.0, 1.5, 2.0, 3.0, math.inf]:
        s = ll.SymmetricSeqNorm(p)
        assert ll.sigma_dual(ll.sigma_dual(s)).p == pytest.approx(p)
    assert ll.sigma_dual(ll.SymmetricSeqNorm(3)).p == pytest.approx(1.5)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(st.floats(-10, 10), min_size=1, max_size=6),
       st.sampled_from([1.0, 1.5, 2.0, 4.0, math.inf]))
def test_sigma_axioms(vals, p):
    s = ll.SymmetricSeqNorm(p)
    x = np.array(vals)
    fam = [x, -0.5 * x]
    out = ll.sigma_apply(s, fam)
    # positivity, homogeneity in each argument, permutation symmetry
    assert np.all(out >= 0)
    out_perm = ll.sigma_apply(s, fam[::-1])
    assert np.allclose(out, out_perm)
    out_scaled = ll.sigma_apply(s, [2 * f for f in fam])
    assert np.allclose(out_scaled, 2 * out, atol=1e-12)
    # single member: sigma of one vector is its modulus
    assert np.allclose(ll.sigma_apply(s, [x]), np.abs(x))


def test_pairing_lemma():
    # sum_i <u_i, u*_i> <= <sigma(|u_i|), sigma*(|u*_i|)> coordinatewise paired
    rng = np.random.default_rng(23)
    for p in [1.0, 2.0, math.inf]:
        s = ll.SymmetricSeqNorm(p)
        sd = ll.sigma_dual(s)
        for _ in range(40):
            n, m = rng.integers(1, 6), rng.integers(1, 5)
            us = [rng.standard_normal(n) for _ in range(m)]
            vs = [rng.standard_normal(n) for _ in range(m)]
            lhs = sum(float(u @ v) for u, v in zip(us, vs))
            rhs = float(ll.sigma_apply(s, us) @ ll.sigma_apply(sd, vs))
            assert lhs <= rhs + 1e-10


def test_solidity_of_all_norm_specs():
    rng = np.random.default_rng(41)
    lattices = [
        ll.NormedLattice(5, ll.Lp(1.7)),
        ll.NormedLattice(4, ll.WeightedLorentzPInfty(2.5, 1, ll.AtomicMeasure((1, 0.5, 2, 0.25)))),
        ll.NormedLattice(4, ll.WeightedLorentzPInfty(3, 2, CM(4))),
        ll.NormedLattice(4, ll.WeightedLorentzQ1(2, ll.AtomicMeasure((1, 2, 0.5, 1)))),
        ll.NormedLattice(3, ll.Example54Dual(2)),
        ll.NormedLattice(4, ll.LinfSum((ll.NormedLattice(2, ll.Lp(1)), ll.NormedLattice(2, ll.Lp(2))))),
        ll.NormedLattice(4, ll.BlockLorentz(ll.Lp(2), (ll.NormedLattice(2, ll.Lp(1)),
                                                       ll.NormedLattice(2, ll.Lp(3))))),
        ll.NormedLattice(3, ll.PredualOf(ll.Example54Dual(2))),
    ]
    pairs_per = 1000 // len(lattices) + 1
    for X in lattices:
        for _ in range(pairs_per):
            x = rng.standard_normal(X.dim) * 3
            shrink = rng.random(X.dim)
            signs = rng.choice([-1.0, 1.0], X.dim)
            y = signs * shrink * np.abs(x)  # |y| <= |x|
            assert ll.eval_norm(X, y) <= ll.eval_norm(X, x) + 1e-12


def test_lp_dual_consistency_and_bipolar():
    rng = np.random.default_rng(9)
    for p in [1.0, 1.3, 2.0, 3.7, math.inf]:
        X = ll.NormedLattice(4, ll.Lp(p))
        ps = math.inf if p == 1 else (1.0 if p == math.inf else p / (p - 1))
        for _ in range(10):
            b = rng.standard_normal(4)
            est = ll.eval_dual_norm(X, b)
            direct = ll.eval_norm(ll.NormedLattice(4, ll.Lp(ps)), b)
            assert est.value == pytest.approx(direct, abs=1e-9)
            # second dual returns the original norm
            D = ll.dual_lattice(X)
            est2 = ll.eval_dual_norm(D, b)
            assert est2.value == pytest.approx(ll.eval_norm(X, b), abs=1e-9)


def test_block_lorentz_norm_is_outer_of_block_norms():
    inner = (ll.NormedLattice(2, ll.Lp(2)), ll.NormedLattice(2, ll.Lp(1)))
    X = ll.NormedLattice(4, ll.BlockLorentz(ll.Lp(3), inner))
    x = np.array([3.0, 4.0, 1.0, 1.0])
    expected = (5.0 ** 3 + 2.0 ** 3) ** (1 / 3)
    assert ll.eval_norm(X, x) == pytest.approx(expected, abs=1e-12)


def test_adjoint_transposes_and_dualizes():
    X = ll.NormedLattice(2, ll.Lp(2))
    Y = ll.NormedLattice(3, ll.Lp(1))
    T = ll.LinOperator(np.array([[1.0, 2.0], [0.0, 1.0], [3.0, -1.0]]), X, Y)
    A = T.adjoint()
    assert A.matrix.shape == (2, 3)
    assert np.allclose(A.matrix, T.matrix.T)
    assert isinstance(A.domain.norm, ll.Lp) and A.domain.norm.p == math.inf
    assert isinstance(A.codomain.norm, ll.Lp) and A.codomain.norm.p == 2.0
    rng = np.random.default_rng(2)
    for _ in range(10):
        x, ys = rng.standard_normal(2), rng.standard_normal(3)
        assert float(T.apply(x) @ ys) == pytest.approx(float(x @ A.apply(ys)), abs=1e-10)


def test_dual_lattice_wraps_and_unwraps_preduals():
    X = ll.NormedLattice(3, ll.Example54Dual(2))
    D = ll.dual_lattice(X)
    assert isinstance(D.norm, ll.PredualOf)
    assert ll.dual_lattice(D).norm is X.norm


def test_predual_nesting_rejected():
    with pytest.raises(ValueError):
        ll.PredualOf(ll.PredualOf(ll.Lp(2)))


def test_constant_estimate_side_validation():
    with pytest.raises(ValueError):
        ll.ConstantEstimate(1.0, "both")


# ---------------------------------------------------------------------------
# JSON schema


def _doc_roundtrip(doc):
    lat = ll.lattice_from_dict(doc)
    again = ll.lattice_to_dict(lat)
    assert canonical_json(doc) == canonical_json(again)
    return lat


def test_lattice_roundtrip_simple():
    _doc_roundtrip({"dim": 3, "norm": {"kind": "lp", "p": 2.5}})
    _doc_roundtrip({"dim": 2, "norm": {"kind": "lp", "p": "inf"}})
    _doc_roundtrip({"dim": 3, "norm": {"kind": "lorentz_pinfty", "p": 2.0, "r": 1.0,
                                       "weights": [1.0, 0.5, 2.0]}})
    _doc_roundtrip({"dim": 2, "norm": {"kind": "lorentz_q1", "q": 3.0, "weights": [1.0, 1.0]}})
    _doc_roundtrip({"dim": 3, "norm": {"kind": "example54_dual", "p": 2.0}})
    _doc_roundtrip({"dim": 2, "norm": {"kind": "gauge_of", "generators": [[1.0, 1.0], [2.0, 0.0]]}})


def test_lattice_roundtrip_nested():
    doc = {
        "dim": 5,
        "norm": {
            "kind": "block_lorentz",
            "outer": {"kind": "lorentz_pinfty", "p": 2.0, "r": 1.0, "weights": [1.0, 1.0]},
            "blocks": [
                {"dim": 2, "norm": {"kind": "lp", "p": 2.0}},
                {"dim": 3, "norm": {"kind": "predual_of",
                                    "inner": {"kind": "example54_dual", "p": 2.0}}},
            ],
        },
    }
    lat = _doc_roundtrip(doc)
    assert lat.dim == 5
    doc2 = {"dim": 4, "norm": {"kind": "linf_sum", "blocks": [
        {"dim": 2, "norm": {"kind": "lp", "p": 1.0}},
        {"dim": 2, "norm": {"kind": "lorentz_q1", "q": 2.0, "weights": [1.0, 3.0]}},
    ]}}
    _doc_roundtrip(doc2)


def test_schema_error_paths():
    with pytest.raises(ll.LatticeSchemaError) as e:
        ll.lattice_from_dict({"dim": 2, "norm": {"kind": "mystery"}})
    assert e.value.path == "/norm/kind"
    with pytest.raises(ll.LatticeSchemaError) as e:
        ll.lattice_from_dict({"dim": 2, "norm": {"kind": "lorentz_pinfty", "p": 2.0, "r": 2.0,
                                                 "weights": [1.0, 1.0]}})
    assert e.value.path == "/norm/r"
    with pytest.raises(ll.LatticeSchemaError) as e:
        ll.lattice_from_dict({"dim": 2, "norm": {"kind": "lorentz_q1", "q": 2.0,
                                                 "weights": [1.0, -1.0]}})
    assert e.value.path == "/norm/weights/1"
    with pytest.raises(ll.LatticeSchemaError) as e:
        ll.lattice_from_dict(json.loads('{"dim": 1, "norm": {"kind": "lorentz_q1", "q": 2, '
                                        '"weights": [Infinity]}}'))
    assert e.value.path == "/norm/weights/0"
    for bad in ("NaN", "Infinity", "-Infinity"):
        with pytest.raises(ll.LatticeSchemaError) as e:
            ll.lattice_from_dict(json.loads('{"dim": 2, "norm": {"kind": "gauge_of", '
                                            f'"generators": [[1, 0], [0.5, {bad}]]}}}}'))
        assert e.value.path == "/norm/generators/1/1"
    # integers too large for a float fail at their own path
    big = 10 ** 400
    for doc, path in (({"kind": "lp", "p": big}, "/norm/p"),
                      ({"kind": "lorentz_q1", "q": 2, "weights": [big, 1]}, "/norm/weights/0"),
                      ({"kind": "gauge_of", "generators": [[1, big], [0.5, 1]]},
                       "/norm/generators/0/1")):
        with pytest.raises(ll.LatticeSchemaError) as e:
            ll.lattice_from_dict({"dim": 2, "norm": doc})
        assert e.value.path == path
    with pytest.raises(ll.LatticeSchemaError) as e:
        ll.lattice_from_dict({"dim": 2, "norm": {"kind": "predual_of",
                                                 "inner": {"kind": "predual_of",
                                                           "inner": {"kind": "lp", "p": 2.0}}}})
    assert e.value.path == "/norm/inner/kind"
    with pytest.raises(ll.LatticeSchemaError) as e:
        ll.lattice_from_dict({"dim": 4, "norm": {"kind": "example54_dual", "p": 2.0}})
    assert e.value.path == "/dim"
    with pytest.raises(ll.LatticeSchemaError) as e:
        ll.lattice_from_dict({"norm": {"kind": "lp", "p": 2.0}})
    assert e.value.path == "/dim"


def test_schema_rejects_non_numbers():
    with pytest.raises(ll.LatticeSchemaError) as e:
        ll.lattice_from_dict({"dim": 2, "norm": {"kind": "lp", "p": "two"}})
    assert e.value.path == "/norm/p"
    with pytest.raises(ll.LatticeSchemaError) as e:
        ll.lattice_from_dict({"dim": 2, "norm": {"kind": "lp", "p": True}})
    assert e.value.path == "/norm/p"


def test_canonical_json_is_stable():
    doc = {"b": 1.5, "a": [1.0, 2.0], "c": {"y": math.inf, "x": "s"}}
    s1 = canonical_json(doc)
    s2 = canonical_json(json.loads(json.dumps({"c": {"x": "s", "y": math.inf}, "a": [1.0, 2.0], "b": 1.5},
                                              allow_nan=True)))
    assert s1 == s2
    assert "1.5" in s1 and s1.index('"a"') < s1.index('"b"') < s1.index('"c"')


# ---------------------------------------------------------------------------
# the NormSpec protocol, once per kind

_MU3 = ll.AtomicMeasure((1.0, 2.0, 0.5))
_NL = ll.NormedLattice
PROTOCOL_LATTICES = {
    "lp_1": _NL(3, ll.Lp(1)),
    "lp_2.5": _NL(3, ll.Lp(2.5)),
    "lp_inf": _NL(3, ll.Lp(math.inf)),
    "lorentz_pinfty_r1": _NL(3, ll.WeightedLorentzPInfty(2.5, 1, _MU3)),
    "lorentz_pinfty_r1.5": _NL(3, ll.WeightedLorentzPInfty(3, 1.5, _MU3)),
    "lorentz_q1": _NL(3, ll.WeightedLorentzQ1(2, _MU3)),
    "linf_sum": _NL(4, ll.LinfSum((_NL(2, ll.Lp(1)),
                                   _NL(2, ll.WeightedLorentzQ1(2, ll.AtomicMeasure((1.0, 3.0))))))),
    "block_lorentz_lp": _NL(3, ll.BlockLorentz(ll.Lp(3), (_NL(2, ll.Lp(2)), _NL(1, ll.Lp(1))))),
    "block_lorentz_pinfty": _NL(3, ll.BlockLorentz(ll.WeightedLorentzPInfty(2, 1, CM(2)),
                                                   (_NL(2, ll.Lp(2)), _NL(1, ll.Lp(1))))),
    "example54_dual": _NL(3, ll.Example54Dual(2)),
    "predual_of": _NL(3, ll.PredualOf(ll.Example54Dual(2))),
    "predual_of_q1": _NL(3, ll.PredualOf(ll.WeightedLorentzQ1(2, _MU3))),
    "predual_of_gauge": _NL(3, ll.PredualOf(ll.GaugeOf(ll.SolidConvexBody(
        ((1.0, 0.2, 0.1), (0.3, 0.9, 0.4), (0.2, 0.5, 1.0)))))),
    "gauge_of": _NL(3, ll.GaugeOf(ll.SolidConvexBody(((1.0, 0.5, 0.0), (0.2, 1.0, 0.3),
                                                      (0.0, 0.4, 1.0), (0.6, 0.6, 0.6))))),
}


@pytest.mark.filterwarnings("error:overflow encountered")
@pytest.mark.parametrize("name", list(PROTOCOL_LATTICES))
def test_norm_spec_protocol(name):
    X = PROTOCOL_LATTICES[name]
    spec = X.norm
    rows = np.random.default_rng(11).standard_normal((8, X.dim))
    for a in rows:
        b = ll.norming_functional(X, a)
        assert float(a @ b) == pytest.approx(ll.eval_norm(X, a), rel=1e-12)
        assert ll.eval_dual_norm(X, b).value <= 1 + 1e-12
    batched = spec.eval_rows(rows)
    rowwise = np.array([spec.evaluate(row) for row in rows])
    if isinstance(spec, ll.Lp):
        # one vectorised power sum: numpy's SIMD pow on arrays may round the
        # last bit differently from the scalar pow that evaluate uses
        np.testing.assert_allclose(batched, rowwise, rtol=4 * np.finfo(float).eps, atol=0)
    else:
        assert np.array_equal(batched, rowwise)
    assert ll.NormSpec.from_dict(spec.to_dict()) == spec
    # 1-homogeneous norm and dual norm, 0-homogeneous norming functional, past
    # the float range.  An l_{p*} dual with p* < 2 keeps its power sum in range
    # at 2^+-600, so lp_norm does not rescale it, and the root scales the
    # rounding of 1/p* by the sum's exponent (3e-15 for lp_2.5, 2e-14 for
    # block_lorentz_lp, whose outer dual is l_1.5)
    dual_rel = 1e-13 if name in ("lp_2.5", "block_lorentz_lp") else 1e-15
    for c in (2.0 ** 600, 2.0 ** -600):
        for a in rows:
            assert ll.eval_norm(X, c * a) == pytest.approx(c * ll.eval_norm(X, a), rel=1e-15, abs=0)
            assert (ll.eval_dual_norm(X, c * a).value
                    == pytest.approx(c * ll.eval_dual_norm(X, a).value, rel=dual_rel, abs=0))
            np.testing.assert_allclose(ll.norming_functional(X, c * a), ll.norming_functional(X, a),
                                       rtol=1e-15, atol=0)
    assert ll.eval_norm_detail(X, rows[0])[1] == "exact"
    assert ll.eval_dual_norm(X, rows[0]).side == "exact"


def test_every_kind_writes_its_own_stacked_kernel():
    # evaluate is derived from eval_rows once, in the base class; Lp alone
    # keeps a one-vector evaluate, for its scalar-pow root
    for cls in ll.core._KINDS.values():
        assert "eval_rows" in vars(cls), cls.kind
        assert "dual_rows" in vars(cls), cls.kind
        assert ("evaluate" in vars(cls)) == (cls is ll.Lp), cls.kind


_DUAL_LATTICES = {**PROTOCOL_LATTICES,
                  "predual_of_lp": _NL(3, ll.PredualOf(ll.Lp(2.5))),
                  "linf_sum_9": _NL(18, ll.LinfSum(tuple(_NL(2, ll.Lp(1.5 + k / 4)) for k in range(9))))}


@pytest.mark.filterwarnings("error:overflow encountered")
@pytest.mark.parametrize("name", list(_DUAL_LATTICES))
def test_dual_rows_match_the_one_vector_dual_norm(name):
    # ordinary, zero and 2^+-600-scaled rows, a 1e300 entry beside a 1e-310
    # one, and a 1e308 entry on a weight-0.5 atom (density inf) in one stack
    X = _DUAL_LATTICES[name]
    rng = np.random.default_rng(37)
    for _ in range(10):
        rows = rng.standard_normal((16, X.dim))
        rows[::5] = 0.0
        rows[1::5] *= 2.0 ** 600
        rows[2::5] *= 2.0 ** -600
        rows[3, :2] = (1e300, 1e-310)
        rows[4, :] = 0.0
        rows[4, 2] = 1e308
        got = X.norm.dual_rows(rows)
        want = np.array([X.norm.dual_norm(row)[0] for row in rows])
        if name == "predual_of_lp":
            # its rows are Lp's eval_rows, its one-vector duals Lp's evaluate
            assert np.all(np.abs(got - want) <= 4 * np.spacing(want))
        else:
            assert np.array_equal(got, want)


def _per_row_evaluate(spec, v):
    """The one-vector evaluation of the block and Example 5.4 kinds before
    their stacked kernels: blocks one by one, and the Example 5.4 terms with a
    rescale decided for v alone."""
    if isinstance(spec, ll.Example54Dual):
        ps = conjugate(spec.p)
        m = np.abs(v)
        top = float(m.sum() - m.min())
        e = math.frexp(top)[1]
        c = top if top > 0 and not (-512 <= (e - 1) * ps and e * ps <= 512) else 1.0
        m = m / c
        return c * max(0.0, *[(m[i] ** ps + (m[j] + m[k]) ** ps) ** (1.0 / ps)
                              for i, j, k in ((0, 1, 2), (1, 0, 2), (2, 0, 1))])
    vals, pos = [], 0
    for blk in spec.blocks:
        vals.append(blk.norm.evaluate(v[pos:pos + blk.dim]))
        pos += blk.dim
    if isinstance(spec, ll.LinfSum):
        return max([0.0, *vals])
    return spec.outer.evaluate(np.array(vals))


_STACKED_KINDS = {**{name: PROTOCOL_LATTICES[name] for name in
                     ("linf_sum", "block_lorentz_lp", "block_lorentz_pinfty", "example54_dual")},
                  "example54_dual_p1.3": _NL(3, ll.Example54Dual(1.3))}


@pytest.mark.parametrize("name", list(_STACKED_KINDS))
def test_stacked_kernels_match_the_per_row_evaluation(name):
    # ordinary, zero and 2^+-600-scaled rows in one stack: every row is scaled
    # on its own, so each must match its one-vector value
    X = _STACKED_KINDS[name]
    rng = np.random.default_rng(29)
    rows = rng.standard_normal((40, X.dim))
    rows[::5] = 0.0
    rows[1::5] *= 2.0 ** 600
    rows[2::5] *= 2.0 ** -600
    rows[3::5, 0] = 0.0
    got = X.norm.eval_rows(rows)
    want = np.array([_per_row_evaluate(X.norm, row) for row in rows])
    assert np.all(np.abs(got - want) <= 4 * np.spacing(want))
    assert np.all(got[::5] == 0.0) and np.all(got[1::5] > 2.0 ** 590)
    assert all(X.norm.evaluate(row) == got[i] for i, row in enumerate(rows))
