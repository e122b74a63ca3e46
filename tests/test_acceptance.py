"""End-to-end acceptance checks, one test per criterion.

Each test prints a single `ACCEPTANCE <k> <name>: PASS` line when it goes
through, so `pytest -v` yields one verdict line per criterion. Budgets,
tolerances, and wall-clock ceilings are stated inline next to each check.
"""

import json
import math
import re
import time

import numpy as np

import latticelab as ll
from latticelab import lorentz as lz
from latticelab._util import rng_for
from latticelab.cli import run_command
from latticelab.constants import (UpperEstimate, check_q_convexity_bound,
                                  estimate_constant, identity_operator,
                                  reproduce_lpinfty_lp)
from latticelab.core import conjugate
from latticelab.embedcert import EmbeddingCertificate, reproduce_example54, t41_check
from latticelab.idealnorms import TensorRep, build_eta_factorization, theta_lower


def _ok(num, name):
    print(f"ACCEPTANCE {num} {name}: PASS")


def test_acceptance_01_renorming_sandwich():
    """quasinorm <= ||.||_[r] <= (p/(p-r))^{1/r} quasinorm, and the
    superlevel-set scan agrees with full subset enumeration on counting
    measures."""
    t0 = time.perf_counter()
    rng = rng_for(0, "acc1")
    for p in (1.5, 2.0, 3.0):
        for r in (1.0, 1.2, (p + 1) / 2):
            factor = (p / (p - r)) ** (1.0 / r)
            for _ in range(1000):
                dim = int(rng.integers(1, 13))
                vals = rng.standard_normal(dim)
                w = rng.uniform(0.3, 3.0, dim)    # unequal weights
                f = ll.StepFunction(tuple(vals.tolist()),
                                    ll.AtomicMeasure(tuple(w.tolist())))
                quasi = lz.quasinorm_pinfty(f, p)
                nr = lz.norm_pinfty_r(f, p, r)
                assert quasi <= nr + 1e-9
                assert nr <= factor * quasi + 1e-9
    for p in (1.5, 2.0, 3.0):
        for r in (1.0, 1.2, (p + 1) / 2):
            for _ in range(20):
                dim = int(rng.integers(1, 13))
                vals = np.abs(rng.standard_normal(dim)) + 0.05
                f = ll.StepFunction(tuple(vals.tolist()),
                                    ll.AtomicMeasure.counting(dim))
                pref = lz.norm_pinfty_r(f, p, r)
                best = 0.0
                av = np.abs(vals)
                for masks in lz.subset_mask_chunks(dim):
                    sz = masks.sum(axis=1)
                    keep = sz > 0
                    s = (masks[keep] * av[None, :] ** r).sum(axis=1) ** (1.0 / r)
                    best = max(best, float(np.max(
                        sz[keep] ** (1.0 / p - 1.0 / r) * s)))
                assert abs(pref - best) <= 1e-9
    assert time.perf_counter() - t0 < 60.0
    _ok(1, "renorming sandwich")


def test_acceptance_02_extremal_sequence_unit_norm():
    """alpha_k = (k+1)^{1/p*} - k^{1/p*} has [1]-norm exactly one."""
    for p in (1.5, 2.0, 4.0):
        ps = conjugate(p)
        for n in range(2, 65):
            k = np.arange(n, dtype=float)
            alpha = (k + 1) ** (1.0 / ps) - k ** (1.0 / ps)
            f = ll.StepFunction(tuple(alpha.tolist()), ll.AtomicMeasure.counting(n))
            assert abs(lz.norm_pinfty_r(f, p, 1.0) - 1.0) <= 1e-12
    _ok(2, "extremal sequence unit norm")


def test_acceptance_03_shift_family_growth():
    """Cyclic-shift families: unit members, sup-ratio A_n, strict growth."""
    t0 = time.perf_counter()
    for p in (1.5, 2.0, 3.0):
        rep = reproduce_lpinfty_lp(p, 8)
        assert rep["unit_norms_ok"] and rep["unit_norm_check"] <= 1e-9
        assert abs(rep["vee_ratio"] - rep["A_n"]) <= 1e-9
        A = {row["n"]: row["A_n"] for row in rep["growth_table"]}
        assert A[32] > A[8] > A[2]
    assert time.perf_counter() - t0 < 30.0
    _ok(3, "shift family growth")


def test_acceptance_04_covering_bound_and_dual_estimate():
    """Three-atom dual space: closed-form covering bound, exact brute-force
    lower estimate constant one, and a bound strictly above one."""
    t0 = time.perf_counter()
    for p in (4.0 / 3.0, 2.0, 4.0):
        rep = reproduce_example54(p)
        assert abs(rep["bound"] - rep["bound_formula"]) <= 1e-9
        assert abs(rep["lower_estimate_constant"] - 1.0) <= 1e-6
        assert rep["bound"] > 1.0
    assert time.perf_counter() - t0 < 120.0
    _ok(4, "covering bound and dual estimate")


def test_acceptance_05_two_dim_embedding_certificates():
    """Constant-one two-dimensional lattices admit certificates at 1 + 1e-4."""
    t0 = time.perf_counter()
    rng = rng_for(0, "acc5")
    for i in range(20):
        p = float(rng.uniform(1.3, 4.0))
        if i % 2 == 0:
            X = ll.NormedLattice(2, ll.Lp(p))
        else:
            w = rng.uniform(0.3, 3.0, 2)
            X = ll.NormedLattice(2, ll.WeightedLorentzPInfty(
                p, 1, ll.AtomicMeasure(tuple(w.tolist()))))
        est = estimate_constant(identity_operator(X), UpperEstimate(p),
                                budget=200, seed=i)
        assert est.value <= 1 + 1e-9    # certified constant-one instance
        for j in range(10):
            a = np.abs(rng.standard_normal(2)) + 1e-3
            a = a / ll.eval_norm(X, a)
            res = t41_check(X, p, 1 + 1e-4, a, budget=500, seed=100 * i + j)
            assert isinstance(res, EmbeddingCertificate)
    assert time.perf_counter() - t0 < 60.0
    _ok(5, "two dim embedding certificates")


def test_acceptance_06_q_convexity_upper_bound():
    """Estimated q-convexity never beats (p/(p-q))^{1/q} gamma_p on
    constant-one instances; renormed instances stay at one."""
    rng = rng_for(0, "acc6")
    for i in range(50):
        p = float(rng.uniform(1.4, 4.0))
        q = float(rng.uniform(1.0, p - 0.2)) if p > 1.4 else 1.0
        kind = i % 3
        dim = int(rng.integers(2, 5))
        if kind == 0:
            X = ll.NormedLattice(dim, ll.Lp(p))
        elif kind == 1:
            w = rng.uniform(0.3, 3.0, dim)
            X = ll.NormedLattice(dim, ll.WeightedLorentzPInfty(
                p, 1, ll.AtomicMeasure(tuple(w.tolist()))))
        else:
            blocks = tuple(ll.NormedLattice(int(rng.integers(1, 3)), ll.Lp(p))
                           for _ in range(2))
            X = ll.NormedLattice(sum(b.dim for b in blocks), ll.LinfSum(blocks))
        rep = check_q_convexity_bound(X, q, budget=1000, seed=i)
        assert rep["K_q_lower"] <= rep["bound"] + 1e-6
        assert rep["renormed_ratio_max"] <= 1 + 1e-9   # 100 families inside
    _ok(6, "q convexity upper bound")


def test_acceptance_07_polar_set_identity():
    """Polar of the image body equals the dual decomposition set, both
    directions, at slacks 1e-6 and 5e-2."""
    t0 = time.perf_counter()
    rng = rng_for(0, "acc7")
    dims = (1, 2, 2, 2, 2, 3, 3, 2, 3, 2)
    taus = (2.0, 2.0, 1.5, 3.0, 2.0, 2.0, 1.5, 2.5, 3.0, 2.0)
    for i in range(10):
        d = dims[i]
        M = rng.standard_normal((d, d))
        T = ll.LinOperator(M, ll.NormedLattice(d, ll.Lp(2.0)),
                           ll.NormedLattice(d, ll.Lp(2.0)))
        tau = ll.SymmetricSeqNorm(taus[i])
        sigma = ll.SymmetricSeqNorm(math.inf) if i % 2 else ll.SymmetricSeqNorm(taus[i])
        rep = ll.verify_polarity(T, tau, sigma, sample_count=10000, seed=i)
        assert rep["pass"], (i, rep["direction_a"], rep["direction_b"])
    assert time.perf_counter() - t0 < 300.0
    _ok(7, "polar set identity")


def test_acceptance_08_minimal_factorization():
    """V0 U0 recomposes T exactly; U0 contractive; gauge lattice convexity
    ratios within 1e-6 of one on 500 sampled families."""
    rng = rng_for(0, "acc8")
    ns = (2, 3, 4, 4, 2, 3, 4, 2, 3, 4)
    ms = (2, 3, 3, 4, 3, 2, 4, 2, 3, 4)
    taus = (2.0, 1.5, 2.0, 3.0, 2.0, 1.5, 2.0, 2.5, 2.0, 1.5)
    sigmas = (math.inf, 1.5, math.inf, math.inf, 2.0,
              math.inf, math.inf, 2.5, math.inf, 1.5)
    for i in range(10):
        n, m = ns[i], ms[i]
        M = rng.standard_normal((m, n))
        T = ll.LinOperator(M, ll.NormedLattice(n, ll.Lp(2.0)),
                           ll.NormedLattice(m, ll.Lp(2.0)))
        F = ll.build_minimal_factorization(
            T, ll.SymmetricSeqNorm(taus[i]), ll.SymmetricSeqNorm(sigmas[i]),
            budget=800, seed=i, check_families=500)
        assert np.max(np.abs(F.V.matrix @ F.U.matrix - M)) <= 1e-12
        checks = F.report["norm_checks"]
        assert checks["U0"] <= 1 + 1e-6, (i, checks)
        assert checks["convexity_ratio_max"] <= 1 + 1e-6, (i, checks)
    _ok(8, "minimal factorization")


def test_acceptance_09_weak_lp_embedding_operator():
    """Constructed multiplier S is contractive on exhaustive sign and subset
    probes and attains ||S a|| >= C^r - 1e-9."""
    rng = rng_for(0, "acc9")
    pr = ((1.5, 1.0), (2.0, 1.0), (3.0, 1.2), (2.0, 1.5), (4.0, 1.0))
    for i in range(50):
        p, r = pr[i % len(pr)]
        dim = int(rng.integers(1, 7))
        vals = np.abs(rng.standard_normal(dim)) + 0.1
        w = rng.uniform(0.5, 2.0, dim)
        mu = ll.AtomicMeasure(tuple(w.tolist()))
        M = float(w.sum())
        lr = float(np.sum(w * vals ** r) ** (1.0 / r))
        target = float(rng.uniform(0.3, 1.0))
        vals = vals * (target / (M ** (1.0 / p - 1.0 / r) * lr))
        f = ll.StepFunction(tuple(vals.tolist()), mu)
        rep = lz.build_weakLp_embedding(f, p, r, samples=500, seed=i)
        v = rep["verification"]
        assert v["max_violation"] <= 1e-9, (i, v)
        assert v["Sa_norm"] >= v["C_to_r"] - 1e-9, (i, v)
    _ok(9, "weak lp embedding operator")


def test_acceptance_10_tensor_ideal_norms():
    """Factorization recomposes u, summed from the pairs, to 1e-12; the
    product of its two estimated constants tracks the searched theta within
    5e-2; single-pair theta is the exact norm product."""
    rng = rng_for(0, "acc10")
    for i in range(20):
        dE = int(rng.integers(1, 4))
        dF = int(rng.integers(1, 4))
        n = int(rng.integers(1, 4))
        p = float(rng.choice([1.5, 2.0, 3.0]))
        p2 = p if rng.random() < 0.5 else math.inf
        q = float(rng.choice([1.5, 2.0, 2.5]))
        q2 = 1.0 if rng.random() < 0.5 else q
        Ep = float(rng.choice([1.5, 2.0, 3.0]))
        Fp = float(rng.choice([1.5, 2.0, 3.0]))
        pairs = [(rng.standard_normal(dE), rng.standard_normal(dF))
                 for _ in range(n)]
        rep = TensorRep(tuple((tuple(x), tuple(y)) for x, y in pairs),
                        p, p2, q, q2)
        # scale so the searched theta sits near one, keeping the absolute
        # 5e-2 agreement check meaningful across instances
        th0 = theta_lower(rep, ll.Lp(conjugate(Ep)), ll.Lp(Fp),
                          trunc_len=3, budget=1500, seed=i).value
        if th0 <= 1e-9:
            continue
        rep2 = TensorRep(tuple((tuple(np.asarray(x) / th0), tuple(y))
                               for x, y in pairs), p, p2, q, q2)
        out = build_eta_factorization(rep2, ll.Lp(Ep), ll.Lp(Fp),
                                      trunc_len=3, budget=4000, seed=i)
        # S R against u summed from the pairs as outer products
        u = sum(np.outer(y, np.asarray(x) / th0) for x, y in pairs)
        assert np.allclose(out["S"].matrix @ out["R"].matrix, u, rtol=1e-12, atol=1e-12 * np.abs(u).max())
        prod = out["product_bound"][0] * out["product_bound"][1]
        assert abs(prod - out["theta"]) <= 5e-2, (i, prod, out["theta"])
    for i in range(5):
        dE = int(rng.integers(1, 4))
        dF = int(rng.integers(1, 4))
        x = rng.standard_normal(dE)
        y = rng.standard_normal(dF)
        rep = TensorRep(((tuple(x), tuple(y)),), 2.0, math.inf, 2.0, 1.0)
        E = ll.NormedLattice(dE, ll.Lp(2.0))
        F = ll.NormedLattice(dF, ll.Lp(2.0))
        th = theta_lower(rep, ll.Lp(2.0), ll.Lp(2.0), budget=400, seed=i).value
        assert abs(th - ll.eval_norm(E, x) * ll.eval_norm(F, y)) <= 1e-6
    _ok(10, "tensor ideal norms")


def test_acceptance_11_deterministic_reports(tmp_path):
    """Re-running every bundled verification command with the same seed
    produces byte-identical reports (elapsed-time field normalized)."""
    strip = re.compile(r'"wall_time_ms": \d+')
    for name in ("lpinfty-lp", "example54", "renorming",
                 "embedding-lemma", "polarity"):
        outs = []
        path = tmp_path / f"{name}.json"    # same argv both runs
        for run in range(2):
            code = run_command(["reproduce", name, "--out", str(path)])
            assert code == 0, (name, run)
            raw = path.read_text()
            assert json.loads(raw)["pass"] is True
            outs.append(strip.sub('"wall_time_ms": 0', raw))
        assert outs[0] == outs[1], name
    _ok(11, "deterministic reports")
