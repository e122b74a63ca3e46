"""Tensor ideal norms: truncated theta search, the induced factorization,
and diagonal multiplication operators."""

import math

import numpy as np
import pytest

import latticelab as ll
from latticelab._util import conjugate, hill_climb, lp_norm, rng_for
from latticelab.convexgeom import _prune_generators
from latticelab.idealnorms import (
    TensorRep,
    _evaluation_body,
    _maximize_w,
    _theta_rows,
    _w_rows,
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
    # non-finite entries: the first used to give theta 0.0 flagged lower, the
    # second a pathless ValueError from inside norming_functional
    for pairs, path, got in (
            ((((0.0, 0.0), (1.0, math.nan)), ((0.5, 1.0), (1.0, 0.0))), "pairs/0/y/1", "nan"),
            ((((0.5, 1.0), (1.0, 0.0)), ((math.inf, 1.0), (0.5, 0.5))), "pairs/1/x/0", "inf")):
        with pytest.raises(ll.LatticeSchemaError) as err:
            TensorRep(pairs, 2, math.inf, 2, 1)
        assert (err.value.path, err.value.message) == (path, f"entry must be finite, got {got}")


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


@pytest.mark.parametrize("side", ["x", "y"])
def test_eta_factorizes_a_rep_with_one_side_zero(side):
    # u = 0: the constant of the zero factor is exactly 0 (the estimate used to raise)
    pairs = (((0.6, -0.2), (1.0, 0.3)), ((0.1, 0.7), (-0.4, 0.9)))
    rep = TensorRep(tuple(((0.0, 0.0), y) if side == "x" else (x, (0.0, 0.0)) for x, y in pairs),
                    p=2, p2=math.inf, q=2, q2=1)
    out = build_eta_factorization(rep, ll.Lp(1.5), ll.Lp(2), trunc_len=3, budget=400, seed=0)
    assert not out["u_matrix"].any() and out["composition_exact"]
    assert out["product_bound"]["xy".index(side)] == 0.0
    assert out["theta"] == 0.0 and out["product_ok"] is True


def test_eta_rejects_bad_truncation():
    rep = TensorRep((((1.0, 0.0), (1.0, 0.5)), ((0.0, 1.0), (0.3, 1.0))), p=2, p2=math.inf, q=2, q2=1)
    for L in (0, -1):  # an IndexError and a numpy shape error before the check
        with pytest.raises(ValueError, match="^truncation length must be at least 1$"):
            build_eta_factorization(rep, ll.Lp(2), ll.Lp(2), trunc_len=L, budget=400)


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


# ---------------------------------------------------------------------------
# the lockstep searches against the sequential ones: test-local copies of the
# one-climb-per-start loops they replace, with their one-vector scorers


def _seq_dual_norms(spec, rows):
    return lp_norm(rows, conjugate(spec.p), axis=1)


def _seq_theta_value(rep, E_norm, F_norm, Xs, Ys):
    nx = lp_norm(_seq_dual_norms(E_norm, Xs), rep.p, axis=0)
    ny = lp_norm(_seq_dual_norms(F_norm, Ys), conjugate(rep.q), axis=0)
    if nx <= 0 or ny <= 0:
        return 0.0
    left = lp_norm(Xs @ rep.x_matrix().T, rep.p2, axis=0)
    right = lp_norm(Ys @ rep.y_matrix().T, conjugate(rep.q2), axis=0)
    return float(np.sum(left * right) / (nx * ny))


def _seq_theta_lower(rep, E_norm, F_norm, L, budget, seed, starts=()):
    E, F = ll.NormedLattice(rep.dim_E, E_norm), ll.NormedLattice(rep.dim_F, F_norm)
    rng = rng_for(seed, "theta", rep.n, rep.dim_E, rep.dim_F, L)
    dE = rep.dim_E
    start_list = []
    for x, y in rep.pairs:
        x, y = np.array(x), np.array(y)
        if np.any(x != 0) and np.any(y != 0):
            sx, sy = np.zeros((L, rep.dim_E)), np.zeros((L, rep.dim_F))
            sx[0], sy[0] = ll.norming_functional(E, x), ll.norming_functional(F, y)
            start_list.append((sx, sy))
    for sx0, sy0 in starts:
        sx, sy = np.zeros((L, rep.dim_E)), np.zeros((L, rep.dim_F))
        sx[:min(L, len(sx0))], sy[:min(L, len(sy0))] = sx0[:L], sy0[:L]
        start_list.append((sx, sy))
    for _ in range(max(3, budget // 400)):
        start_list.append((rng.standard_normal((L, rep.dim_E)), rng.standard_normal((L, rep.dim_F))))
    best, best_wit = 0.0, None
    iters = max(20, budget // (4 * len(start_list)))
    for sx, sy in start_list:
        z, val = hill_climb(lambda z: _seq_theta_value(rep, E_norm, F_norm, z[:, :dE], z[:, dE:]),
                            np.hstack([sx, sy]), rng, iters)
        if val > best:
            best, best_wit = val, (z[:, :dE], z[:, dE:])
    if best_wit is None:
        return best, None
    nx = lp_norm(_seq_dual_norms(E_norm, best_wit[0]), rep.p, axis=0)
    ny = lp_norm(_seq_dual_norms(F_norm, best_wit[1]), conjugate(rep.q), axis=0)
    return best, (best_wit[0] / nx, best_wit[1] / ny)


def _seq_w_generator(rep, F_norm, ys):
    total = lp_norm(_seq_dual_norms(F_norm, ys), conjugate(rep.q), axis=0)
    if total <= 0:
        return None
    return lp_norm(ys @ rep.y_matrix().T, conjugate(rep.q2), axis=0) / total


def _seq_maximize_w(rep, F_norm, v, L, budget, seed):
    F = ll.NormedLattice(rep.dim_F, F_norm)
    rng = rng_for(seed, "etaenrich", rep.n, rep.dim_F, L)
    base = np.zeros((L, rep.dim_F))
    for i in range(min(rep.n, L)):
        y = np.array(rep.pairs[i][1])
        if np.any(y != 0):
            base[i] = ll.norming_functional(F, y)
    starts = [base] + [rng.standard_normal((L, rep.dim_F)) for _ in range(4)]

    def score(ys):
        w = _seq_w_generator(rep, F_norm, ys)
        return -1.0 if w is None else float(np.dot(v, w))

    best_val, best_w = -1.0, None
    for s0 in starts:
        cur, val = hill_climb(score, s0, rng, max(40, budget // len(starts)))
        if val > best_val:
            w_fin = _seq_w_generator(rep, F_norm, cur)
            if w_fin is not None:
                best_val, best_w = val, w_fin
    return best_w


def _seq_norm_D(g, source, target, budget, seed):
    D = ll.LinOperator(np.diag(g), source, target)
    q = target.norm.p if isinstance(target.norm, ll.Lp) else target.norm.q
    ests = (ll.estimate_constant(D, ll.Convex(source.norm.p, math.inf), budget=budget, seed=seed),
            ll.estimate_constant(D, ll.Concave(q, 1), budget=budget, seed=seed))
    rng = rng_for(seed, "multnorm", source.dim)
    cands = [np.ones(source.dim)] + [np.eye(source.dim)[i] for i in range(source.dim)]
    cands += [np.asarray(w) for est in ests for w in est.witness or () if np.any(np.asarray(w) != 0)]
    cands += list(rng.standard_normal((32, source.dim)))

    def op_ratio(x):
        nx = ll.eval_norm(source, x)
        return 0.0 if nx <= 0 else ll.eval_norm(target, g * x) / nx

    norm_D = 0.0
    for x0 in cands:
        norm_D = max(norm_D, hill_climb(op_ratio, x0.astype(float), rng, max(20, budget // 100))[1])
    return norm_D


def _random_rep(rng, n, dE, dF):
    exps = (float(rng.choice([1.0, 1.5, 3.0])), None, float(rng.choice([1.0, 1.5, 2.5])), None)
    p2 = exps[0] if rng.random() < 0.5 else math.inf
    q2 = 1.0 if rng.random() < 0.5 else exps[2]
    pairs = tuple((tuple(rng.standard_normal(dE)), tuple(rng.standard_normal(dF))) for _ in range(n))
    return TensorRep(pairs, exps[0], p2, exps[2], q2)


def test_stacked_scorers_match_the_one_sequence_scorers():
    # stacks with zero sequences, and enough rows to meet the sequences whose
    # array roots round differently from the scalar ones
    rng = np.random.default_rng(10)
    for _ in range(8):
        rep = _random_rep(rng, int(rng.integers(1, 4)), int(rng.integers(1, 4)), int(rng.integers(1, 4)))
        E_norm, F_norm = ll.Lp(float(rng.uniform(1.1, 4))), ll.Lp(float(rng.uniform(1.1, 4)))
        L = int(rng.integers(1, 6))
        Xs, Ys = rng.standard_normal((300, L, rep.dim_E)), rng.standard_normal((300, L, rep.dim_F))
        Xs[::7], Ys[3::11] = 0.0, 0.0
        got = _theta_rows(rep, E_norm, F_norm, Xs, Ys).tolist()
        assert got == [_seq_theta_value(rep, E_norm, F_norm, x, y) for x, y in zip(Xs, Ys)]
        W, ok = _w_rows(rep, F_norm, Ys)
        for w, good, ys in zip(W, ok, Ys):
            want = _seq_w_generator(rep, F_norm, ys)
            assert (want is None) if not good else np.array_equal(w, want)


def _seq_evaluation_gens(rep, F_norm, L, budget, seed):
    """The generators of the body before pruning, one _w_rows call per sequence."""
    F = ll.NormedLattice(rep.dim_F, F_norm)
    rng = rng_for(seed, "etabody", rep.n, rep.dim_F, L)
    seqs = []
    for y in rep.y_matrix():
        if np.any(y != 0):
            rows = np.zeros((L, rep.dim_F))
            rows[0] = ll.norming_functional(F, y)
            seqs.append(rows)
    gens = []
    for k in range(len(seqs) + max(40, budget // 10)):
        rows = seqs[k] if k < len(seqs) else rng.standard_normal((int(rng.integers(1, L + 1)), rep.dim_F))
        W, ok = _w_rows(rep, F_norm, rows[None])
        if ok[0]:
            gens.append(W[0])
    return np.array(gens).reshape(-1, rep.n)


def test_evaluation_body_replays_the_one_sequence_loop(monkeypatch):
    # zero y pairs, and lengths past 8, where zero padding would change the sums
    pruned = []

    def spy(gens):
        pruned.append(gens)
        return _prune_generators(gens)

    monkeypatch.setattr("latticelab.idealnorms._prune_generators", spy)
    rng = np.random.default_rng(14)
    for case in range(6):
        rep = _random_rep(rng, int(rng.integers(1, 5)), 1, int(rng.integers(1, 4)))
        zero = rng.random(rep.n) < 0.5 if case else np.ones(rep.n, dtype=bool)
        zero[int(rng.integers(rep.n))] = True
        rep = TensorRep(tuple((x, (0.0,) * rep.dim_F if z else y) for (x, y), z in zip(rep.pairs, zero)),
                        rep.p, rep.p2, rep.q, rep.q2)
        assert rep.y_matrix() is rep.y_matrix() and not rep.y_matrix().flags.writeable  # built once
        for F_norm in (ll.Lp(1.5), ll.Lp(2.0), ll.Lp(3.0)):
            for L in (1, 2, 3, 8, 9, 12):
                want = _seq_evaluation_gens(rep, F_norm, L, 600, case)
                got = _evaluation_body(rep, F_norm, L, 600, case).gen_matrix
                assert np.array_equal(pruned.pop(), want)
                assert np.array_equal(got, _prune_generators(want if len(want) else np.zeros((1, rep.n))))


def _no_groups(monkeypatch, tiny_groups):
    if tiny_groups:  # every lockstep group holds one climb
        monkeypatch.setattr("latticelab._util.NOISE_BYTES", 1)


@pytest.mark.parametrize("tiny_groups", [False, True])
def test_theta_lower_replays_the_sequential_search(monkeypatch, tiny_groups):
    _no_groups(monkeypatch, tiny_groups)
    rng = np.random.default_rng(11)
    for case in range(6):
        rep = _random_rep(rng, int(rng.integers(2, 4)), int(rng.integers(1, 4)), int(rng.integers(1, 4)))
        E_norm, F_norm = ll.Lp(float(rng.choice([1.5, 2.0, 3.0]))), ll.Lp(float(rng.choice([1.2, 2.0])))
        for L in (1, 2, 5):
            warm = [(rng.standard_normal((int(rng.integers(1, 7)), rep.dim_E)),
                     rng.standard_normal((int(rng.integers(1, 7)), rep.dim_F)))] if case % 2 else []
            est = theta_lower(rep, E_norm, F_norm, L, budget=700, seed=case, starts=warm)
            val, wit = _seq_theta_lower(rep, E_norm, F_norm, L, 700, case, warm)
            assert est.side == "lower" and est.value == val
            assert np.array_equal(est.witness[0], wit[0]) and np.array_equal(est.witness[1], wit[1])
            assert theta_value(rep, E_norm, F_norm, *wit) == _seq_theta_value(rep, E_norm, F_norm, *wit)


@pytest.mark.parametrize("tiny_groups", [False, True])
def test_maximize_w_replays_the_sequential_search(monkeypatch, tiny_groups):
    _no_groups(monkeypatch, tiny_groups)
    rng = np.random.default_rng(12)
    for case in range(6):
        rep = _random_rep(rng, int(rng.integers(1, 5)), 2, int(rng.integers(1, 4)))
        F_norm = ll.Lp(float(rng.choice([1.5, 2.0, 3.0])))
        v = np.abs(rng.standard_normal(rep.n))
        for L in (1, 2, 4):
            want = _seq_maximize_w(rep, F_norm, v, L, 300, case)
            assert np.array_equal(_maximize_w(rep, F_norm, v, L, 300, case), want)


@pytest.mark.parametrize("tiny_groups", [False, True])
def test_multiplier_norm_replays_the_sequential_search(monkeypatch, tiny_groups):
    _no_groups(monkeypatch, tiny_groups)
    # an lp target scored by Lp.eval_rows moves this norm_D in the last digit
    src = ll.NormedLattice(2, ll.WeightedLorentzPInfty(1.5, 1, ll.AtomicMeasure((1.0, 2.0))))
    g = np.array([1.0, 0.5])
    rep = multiplication_operator_check(g, src, ll.NormedLattice(2, ll.Lp(1.5)), budget=400, seed=0)
    assert rep["norm_D"] == 1.0242699567834044
    rng = np.random.default_rng(13)
    for case in range(4):
        n = int(rng.integers(2, 5))
        src = ll.NormedLattice(n, ll.WeightedLorentzPInfty(float(rng.uniform(1.2, 3)), 1,
                                                           ll.AtomicMeasure(tuple(rng.uniform(0.5, 2, n)))))
        g = rng.uniform(0, 2, n)
        for target in (ll.NormedLattice(n, ll.Lp(float(rng.uniform(1, 3)))),
                       ll.NormedLattice(n, ll.WeightedLorentzQ1(float(rng.uniform(1.2, 3)),
                                                                ll.AtomicMeasure(tuple(rng.uniform(0.5, 2, n)))))):
            rep = multiplication_operator_check(g, src, target, budget=300, seed=case)
            assert rep["norm_D"] == _seq_norm_D(g, src, target, 300, case)
