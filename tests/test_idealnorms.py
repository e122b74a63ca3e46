"""Tensor ideal norms: truncated theta search, the induced factorization,
and diagonal multiplication operators."""

import math

import numpy as np
import pytest

import latticelab as ll
from latticelab.idealnorms import (
    TensorRep,
    build_eta_factorization,
    multiplication_operator_check,
    theta_lower,
    theta_value,
)


def test_tensor_rep_validation():
    with pytest.raises(ValueError):
        TensorRep((), p=2, p2=2, q=2, q2=1)
    with pytest.raises(ValueError):
        TensorRep((((1.0,), (1.0,)), ((1.0, 2.0), (1.0,))), p=2, p2=2, q=2, q2=1)
    with pytest.raises(ValueError):
        TensorRep((((1.0,), (1.0,)),), p=2, p2=3, q=2, q2=1)
    with pytest.raises(ValueError):
        TensorRep((((1.0,), (1.0,)),), p=2, p2=2, q=2, q2=1.5)
    with pytest.raises(ValueError):
        TensorRep((((1.0,), (1.0,)),), p=0.5, p2=math.inf, q=2, q2=2)


def test_theta_single_pair_concentrates():
    rep = TensorRep((((3.0, 4.0), (1.0, 1.0)),), p=2, p2=math.inf, q=2, q2=1)
    target = 5.0 * math.sqrt(2.0)
    for L in (1, 2, 4):
        est = theta_lower(rep, ll.Lp(2), ll.Lp(2), trunc_len=L, budget=400, seed=0)
        assert est.side == "exact"
        assert est.value == pytest.approx(target, rel=1e-12)
    est = theta_lower(rep, ll.Lp(2), ll.Lp(2), trunc_len=2, budget=400, seed=0)
    assert theta_value(rep, ll.Lp(2), ll.Lp(2), *est.witness) == pytest.approx(
        est.value, rel=1e-9)


def test_theta_scales_linearly():
    pairs = (((1.0, 0.5), (1.0, -1.0)), ((0.2, 1.0), (0.5, 1.0)))
    rep_a = TensorRep(pairs, p=2, p2=2, q=2, q2=2)
    rep_b = TensorRep(tuple(((2.5 * x[0], 2.5 * x[1]), y) for x, y in pairs),
                      p=2, p2=2, q=2, q2=2)
    ta = theta_lower(rep_a, ll.Lp(2), ll.Lp(2), 2, budget=600, seed=1).value
    tb = theta_lower(rep_b, ll.Lp(2), ll.Lp(2), 2, budget=600, seed=1).value
    assert tb == pytest.approx(2.5 * ta, rel=1e-9)


def test_theta_zero_rep_and_bad_truncation():
    rep0 = TensorRep((((0.0, 0.0), (0.0, 0.0)),), p=2, p2=2, q=2, q2=1)
    assert theta_lower(rep0, ll.Lp(2), ll.Lp(2), 2, budget=100, seed=0).value == 0.0
    with pytest.raises(ValueError):
        theta_lower(rep0, ll.Lp(2), ll.Lp(2), 0)


def test_theta_monotone_in_truncation_and_deterministic():
    rep = TensorRep((((1.0, 0.0), (1.0, 0.0)), ((0.0, 1.0), (0.0, 1.0))),
                    p=2, p2=math.inf, q=2, q2=1)
    vals = [theta_lower(rep, ll.Lp(2), ll.Lp(2), L, budget=700, seed=2).value
            for L in (1, 2, 4)]
    assert vals[0] <= vals[1] + 1e-12
    assert vals[1] <= vals[2] + 1e-12
    again = theta_lower(rep, ll.Lp(2), ll.Lp(2), 2, budget=700, seed=2).value
    assert again == vals[1]


# ---------------------------------------------------------------------------
# factorization


def test_eta_one_dimensional_identity():
    rep = TensorRep((((1.0,), (1.0,)),), p=2, p2=2, q=2, q2=1)
    out = build_eta_factorization(rep, ll.Lp(2), ll.Lp(2), trunc_len=2,
                                  budget=500, seed=0)
    assert out["composition_exact"]
    assert out["product_bound"][0] == pytest.approx(1.0, abs=1e-6)
    assert out["product_bound"][1] == pytest.approx(1.0, abs=1e-6)
    assert out["product_ok"]


def test_eta_diagonal_recomposes_and_matches_theta():
    rep = TensorRep((((1.0, 0.0), (1.0, 0.0)), ((0.0, 1.0), (0.0, 1.0))),
                    p=2, p2=math.inf, q=2, q2=1)
    out = build_eta_factorization(rep, ll.Lp(2), ll.Lp(2), trunc_len=2,
                                  budget=1200, seed=0)
    assert np.array_equal(out["u_matrix"], np.eye(2))
    assert out["composition_exact"]
    assert out["oracle_scale"]
    assert out["product_ok"]
    kr, ks = out["product_bound"]
    assert kr * ks <= out["theta"] + 5e-2


def test_eta_product_check_skipped_outside_oracle_scale():
    rep = TensorRep((((1.0, 0.0, 0.5, 0.0), (1.0, 0.0)), ((0.0, 1.0, 0.0, 0.5), (0.0, 1.0))),
                    p=2, p2=math.inf, q=2, q2=1)
    out = build_eta_factorization(rep, ll.Lp(2), ll.Lp(2), trunc_len=2,
                                  budget=400, seed=0)
    assert out["composition_exact"]
    assert not out["oracle_scale"]
    assert out["product_ok"] is None


def test_theta_rejects_non_lp_spaces():
    rep = TensorRep((((1.0, 0.0), (1.0, 0.0)), ((0.0, 1.0), (0.0, 1.0))),
                    p=2, p2=math.inf, q=2, q2=1)
    lorentz = ll.WeightedLorentzPInfty(3, 1, ll.AtomicMeasure.counting(2))
    with pytest.raises(ValueError, match="l_p family"):
        theta_lower(rep, lorentz, ll.Lp(2), budget=100, seed=0)


def test_eta_rank_one_product():
    rep = TensorRep((((0.6, 0.8), (0.0, 2.0)),), p=2, p2=2, q=2, q2=2)
    out = build_eta_factorization(rep, ll.Lp(2), ll.Lp(2), trunc_len=2,
                                  budget=600, seed=0)
    kr, ks = out["product_bound"]
    assert kr * ks == pytest.approx(2.0, abs=5e-2)  # ||x*|| ||y|| = 1 * 2


def test_eta_intermediate_norm_is_unconditional():
    rep = TensorRep((((1.0, 0.0), (1.0, 0.5)), ((0.0, 1.0), (0.3, 1.0))),
                    p=2, p2=math.inf, q=2, q2=1)
    out = build_eta_factorization(rep, ll.Lp(2), ll.Lp(2), trunc_len=2,
                                  budget=500, seed=0)
    Z = out["Z"]
    rng = np.random.default_rng(0)
    for _ in range(25):
        z = rng.standard_normal(2)
        s = rng.choice([-1.0, 1.0], 2)
        assert ll.eval_norm(Z, z) == pytest.approx(ll.eval_norm(Z, s * z), abs=1e-12)


# ---------------------------------------------------------------------------
# multiplication operators


def lorentz_source(n, p):
    return ll.NormedLattice(n, ll.WeightedLorentzPInfty(p, 1, ll.AtomicMeasure.counting(n)))


def test_multiplication_random_instance_passes():
    src = lorentz_source(4, 3)
    rng = np.random.default_rng(7)
    g = rng.uniform(0.1, 2.0, size=4)
    for target in (ll.NormedLattice(4, ll.Lp(2)),
                   ll.NormedLattice(4, ll.WeightedLorentzQ1(2, ll.AtomicMeasure.counting(4)))):
        rep = multiplication_operator_check(g, src, target, budget=400, seed=0)
        assert rep["pass"], rep


def test_multiplication_zero_multiplier():
    src = lorentz_source(4, 3)
    tgt = ll.NormedLattice(4, ll.Lp(2))
    rep = multiplication_operator_check(np.zeros(4), src, tgt, budget=100, seed=0)
    assert rep == {"norm_D": 0.0, "K_convex": 0.0, "K_concave": 0.0,
                   "convex_ok": True, "concave_ok": True, "pass": True}


def test_multiplication_scales_linearly():
    src = lorentz_source(4, 3)
    tgt = ll.NormedLattice(4, ll.WeightedLorentzQ1(2, ll.AtomicMeasure.counting(4)))
    r1 = multiplication_operator_check(np.ones(4), src, tgt, budget=300, seed=1)
    r3 = multiplication_operator_check(3 * np.ones(4), src, tgt, budget=300, seed=1)
    for key in ("norm_D", "K_convex", "K_concave"):
        assert r3[key] == pytest.approx(3 * r1[key], rel=1e-9)


def test_multiplication_validation():
    src = lorentz_source(3, 2)
    tgt = ll.NormedLattice(3, ll.Lp(2))
    with pytest.raises(ValueError):
        multiplication_operator_check([-1.0, 0.0, 0.0], src, tgt)
    with pytest.raises(ValueError):
        multiplication_operator_check(np.ones(2), src, tgt)
    bad_src = ll.NormedLattice(3, ll.Lp(2))
    with pytest.raises(ValueError):
        multiplication_operator_check(np.ones(3), bad_src, tgt)
    bad_tgt = ll.NormedLattice(3, ll.WeightedLorentzPInfty(2, 1, ll.AtomicMeasure.counting(3)))
    with pytest.raises(ValueError):
        multiplication_operator_check(np.ones(3), src, bad_tgt)
