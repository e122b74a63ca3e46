"""The four benchmark workloads: inputs made from the seed, one call into the
public latticelab API per case, and an independent check of every output.

A workload is a list of ``Case`` objects.  ``run`` takes no arguments and
returns latticelab's output; ``check`` takes that output and returns a list
of problems (empty when the output is right).  Only the generated operators,
vectors, weights and exponents reach latticelab; the library's own search
seeds are fixed per case, so the bench seed changes the inputs and nothing
else.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import re
import zlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

import latticelab as ll
from latticelab import cli

import oracles as orc

INF = math.inf


@dataclass(frozen=True)
class Case:
    label: str
    run: Callable[[], object]
    check: Callable[[object], list]


def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([zlib.crc32(workload.encode()), seed % 2 ** 63])


def _rel_gap(a: float, b: float) -> float:
    if a == b:
        return 0.0
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def _need(problems: list, ok: bool, message: str):
    if not ok:
        problems.append(message)


def _l2_operator(M: np.ndarray):
    m, n = M.shape
    return ll.LinOperator(M, ll.NormedLattice(n, ll.Lp(2.0)), ll.NormedLattice(m, ll.Lp(2.0)))


# ---------------------------------------------------------------------------
# minfactor: build_minimal_factorization on l_2 operators (dims 2-4)

# (domain dim, codomain dim, tau, sigma).  sigma = inf shapes take fresh
# operators from the seed, each shape twice.  With finite sigma the repair
# loop is heavy-tailed: over random operators about one case in twenty runs
# 5-30x longer than the rest, so a seeded draw would decide the whole run.
# Those shapes factor operators drawn once from a fixed stream instead.
MINFACTOR_SHAPES = (
    (2, 2, 2.0, INF), (3, 3, 2.0, INF), (4, 4, 2.0, INF), (2, 3, 1.5, INF),
    (3, 2, 2.5, INF), (4, 3, 3.0, INF), (2, 4, 2.0, INF), (4, 2, 1.5, INF),
) * 2
MINFACTOR_FIXED_SHAPES = ((2, 2, 2.0, 2.0), (3, 2, 1.5, 1.5), (3, 3, 1.5, 1.5))
MINFACTOR_BUDGET = 60
MINFACTOR_FAMILIES = 10
GAUGE_PROBES = 8


def _check_minfactor(M, probes, F) -> list:
    problems = []
    recompose = float(np.max(np.abs(F.V.matrix @ F.U.matrix - M)))
    _need(problems, recompose <= 1e-12, f"V U - T = {recompose:.3g}")
    checks = F.report["norm_checks"]
    _need(problems, checks["U0"] <= 1 + 1e-6, f"U0 = {checks['U0']!r}")
    _need(problems, checks["convexity_ratio_max"] <= 1 + 1e-6,
          f"convexity_ratio_max = {checks['convexity_ratio_max']!r}")
    body = F.Y.norm.body
    G = np.abs(np.array(body.generators, dtype=float))
    for y in probes:
        g, o = ll.gauge(body, y), orc.gauge_dual_lp(G, y)
        _need(problems, _rel_gap(g, o) <= 1e-9, f"gauge {g!r} vs dual LP {o!r}")
        g_abs = ll.gauge(body, np.abs(y))
        _need(problems, _rel_gap(g, g_abs) <= 1e-12, f"gauge(y) {g!r} != gauge(|y|) {g_abs!r}")
    return problems


def minfactor(seed: int) -> list:
    rng, fixed = _rng("minfactor", seed), _rng("minfactor-fixed", 0)
    cases = []
    shapes = [(s, rng) for s in MINFACTOR_SHAPES] + [(s, fixed) for s in MINFACTOR_FIXED_SHAPES]
    for k, ((n, m, tau, sigma), source) in enumerate(shapes):
        M = source.standard_normal((m, n))
        probes = rng.standard_normal((GAUGE_PROBES, m))
        T = _l2_operator(M)

        def run(T=T, tau=tau, sigma=sigma, k=k):
            return ll.build_minimal_factorization(
                T, ll.SymmetricSeqNorm(tau), ll.SymmetricSeqNorm(sigma),
                budget=MINFACTOR_BUDGET, seed=k, check_families=MINFACTOR_FAMILIES)

        cases.append(Case(f"minfactor n={n} m={m} tau={tau} sigma={sigma}", run,
                          lambda F, M=M, probes=probes: _check_minfactor(M, probes, F)))
    return cases


# ---------------------------------------------------------------------------
# polarity: verify_polarity on l_2 operators (dims 1-3) plus one CLI report

# (dim, tau); sigma alternates between tau and inf as in the acceptance suite
POLARITY_SHAPES = ((1, 2.0), (2, 2.0), (2, 1.5), (2, 3.0), (3, 2.0), (2, 2.5))
POLARITY_SAMPLES = 2000
D_PROBES = 2
D_BUDGET = 400
CLI_ARGV = ("reproduce", "polarity", "--seed", "0", "--budget", "1000")
_WALL = re.compile(r'"wall_time_ms": \d+')


def _check_polarity(rep) -> list:
    problems = []
    _need(problems, rep["pass"] is True, "verify_polarity did not pass")
    for side in ("direction_a", "direction_b"):
        _need(problems, rep[side]["checked"] > 0, f"{side} checked no cases")
    return problems


def _check_d_search(A, us, results) -> list:
    """A maps into the dual of an l_2 domain, which is l_2 again."""
    problems = []
    for u, res in zip(us, results):
        no_split = orc.lp_norm(A @ u, 2.0)
        _need(problems, res["rho_lower"] >= no_split * (1 - 1e-12),
              f"rho_lower {res['rho_lower']!r} < ||A u|| {no_split!r}")
    return problems


def _run_cli():
    """(exit code, report with its wall_time_ms field set to 0)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.run_command(list(CLI_ARGV))
    return code, _WALL.sub('"wall_time_ms": 0', buf.getvalue())


def _check_cli(out) -> list:
    code, text = out
    problems = []
    _need(problems, code == 0, f"exit code {code}")
    _need(problems, json.loads(text).get("pass") is True, "CLI report does not pass")
    _need(problems, _run_cli()[1] == text, "CLI report differs between two runs")
    return problems


def polarity(seed: int) -> list:
    rng = _rng("polarity", seed)
    cases = []
    for k, (d, tau_p) in enumerate(POLARITY_SHAPES):
        sigma_p = INF if k % 2 else tau_p
        M = rng.standard_normal((d, d))
        T = _l2_operator(M)
        tau, sigma = ll.SymmetricSeqNorm(tau_p), ll.SymmetricSeqNorm(sigma_p)

        def run_pol(T=T, tau=tau, sigma=sigma, k=k):
            return ll.verify_polarity(T, tau, sigma, sample_count=POLARITY_SAMPLES, seed=k)

        cases.append(Case(f"polarity d={d} tau={tau_p} sigma={sigma_p}", run_pol, _check_polarity))
        us = list(rng.standard_normal((D_PROBES, d)))
        A = T.adjoint()
        tau_d, sigma_d = ll.sigma_dual(tau), ll.sigma_dual(sigma)

        def run_d(A=A, us=us, tau_d=tau_d, sigma_d=sigma_d, k=k):
            return [ll.search_D_violation(A, u, tau_d, sigma_d, D_BUDGET, k) for u in us]

        cases.append(Case(f"search_D_violation d={d}", run_d,
                          lambda res, M=M, us=us: _check_d_search(M.T, us, res)))
    cases.append(Case("cli reproduce polarity", _run_cli, _check_cli))
    return cases


# ---------------------------------------------------------------------------
# lorentz: norms, dual norms and norming functionals of weighted Lorentz
# lattices on both sides of the 20-atom enumeration cliff

# (atoms, p, r): exponents are fixed, since the SLSQP time of the [r]-dual
# swings with r; the seed draws weights in [0.3, 3] and a normal vector
LORENTZ_LATTICES = ((8, 2.0, 1.5), (12, 3.0, 2.0), (16, 2.0, 1.5), (20, 2.5, 1.5),
                    (21, 2.0, 1.5), (64, 2.0, 1.5), (1024, 3.0, 2.0))
DUAL1_MAX_ATOMS = 16    # the [1]-dual LP has 2^n - 1 rows below 21 atoms
DUALR_MAX_ATOMS = 21    # SLSQP multistart takes ~10 s at 64 atoms
TOL = 1e-9


class _Lorentz:
    """Oracle norm, dual norm and dual-norm upper bound for one lattice."""

    def __init__(self, kind, w, p, r=None):
        self.kind, self.w, self.p, self.r = kind, w, p, r

    def norm(self, x):
        if self.kind == "q1":
            return orc.norm_q1(x, self.w, self.p)
        return orc.norm_pinfty_r(x, self.w, self.p, self.r)

    def dual_upper(self, b):
        """An exact dual norm, or an upper bound where none is known."""
        if self.kind == "q1":
            return orc.dual_q1(b, self.w, self.p)
        if self.r == 1:
            return orc.dual_pinfty_1(b, self.w, self.p)[0]
        return orc.holder_dual_bound_pinfty(b, self.w, self.p, self.r)


def _check_norm(lat: _Lorentz, x, value) -> list:
    problems = []
    exact = lat.norm(x)
    _need(problems, _rel_gap(value, exact) <= TOL, f"norm {value!r} vs oracle {exact!r}")
    if lat.kind == "pinfty":
        quasi = orc.quasinorm_pinfty(x, lat.w, lat.p)
        factor = (lat.p / (lat.p - lat.r)) ** (1.0 / lat.r)
        _need(problems, quasi <= value * (1 + TOL) and value <= factor * quasi * (1 + TOL),
              f"sandwich fails: quasi {quasi!r}, norm {value!r}, factor {factor!r}")
    return problems


def _check_norming(lat: _Lorentz, x, b) -> list:
    problems = []
    exact = lat.norm(x)
    pair = float(np.dot(x, b))
    _need(problems, _rel_gap(pair, exact) <= TOL, f"<a, b> = {pair!r} vs norm {exact!r}")
    dual = lat.dual_upper(b)
    _need(problems, dual <= 1 + TOL, f"norming functional has dual norm {dual!r}")
    return problems


def _check_dual(lat: _Lorentz, b, est) -> list:
    problems = []
    x = np.asarray(est.witness, dtype=float)
    wn = lat.norm(x)
    _need(problems, wn <= 1 + TOL, f"witness norm {wn!r} > 1")
    pair = float(np.dot(x, b))
    _need(problems, abs(pair - est.value) <= TOL * max(1.0, abs(est.value)),
          f"witness pairs to {pair!r}, reported {est.value!r}")
    if lat.kind == "pinfty" and lat.r > 1:
        greedy = orc.dual_pinfty_1(b, lat.w, lat.p)[0]
        _need(problems, est.value <= greedy + TOL, f"[r]-dual {est.value!r} > [1]-dual {greedy!r}")
        return problems
    exact = lat.dual_upper(b)
    if est.side == "exact":
        _need(problems, _rel_gap(est.value, exact) <= TOL, f"exact dual {est.value!r} vs {exact!r}")
    else:
        _need(problems, est.value <= exact + TOL, f"lower dual {est.value!r} > {exact!r}")
    return problems


def _lorentz_cases(n, p, r, w, b, ops) -> list:
    """Cases for the lattice over weights w at vector b; ops picks, per spec
    ("pinfty" r = 1, "pinfty" r > 1, "q1"), which calls to make."""
    mu = ll.AtomicMeasure(tuple(w.tolist()))
    specs = (("pinfty", 1.0, ll.WeightedLorentzPInfty(p, 1.0, mu)),
             ("pinfty", r, ll.WeightedLorentzPInfty(p, r, mu)),
             ("q1", None, ll.WeightedLorentzQ1(p, mu)))
    cases = []
    for (kind, rr, spec), names in zip(specs, ops):
        X = ll.NormedLattice(n, spec)
        lat = _Lorentz(kind, w, p, rr)
        tag = f"{kind} n={n}" + (f" r={rr:.3g}" if rr else "")
        if "norm" in names:
            cases.append(Case(f"{tag} norm", lambda X=X: ll.eval_norm(X, b),
                              lambda v, lat=lat: _check_norm(lat, b, v)))
        if "norming" in names:
            cases.append(Case(f"{tag} norming", lambda X=X: ll.norming_functional(X, b),
                              lambda nf, lat=lat: _check_norming(lat, b, nf)))
        if "dual" in names:
            cases.append(Case(f"{tag} dual", lambda X=X: ll.eval_dual_norm(X, b),
                              lambda est, lat=lat: _check_dual(lat, b, est)))
    return cases


def lorentz(seed: int) -> list:
    rng, fixed = _rng("lorentz", seed), _rng("lorentz-fixed", 0)
    cases = []
    for n, p, r in LORENTZ_LATTICES:
        w, b = rng.uniform(0.3, 3.0, n), rng.standard_normal(n)
        all_ops = ("norm", "norming", "dual")
        dual1 = all_ops if n <= DUAL1_MAX_ATOMS else ("norm", "norming")
        cases += _lorentz_cases(n, p, r, w, b, (dual1, ("norm", "norming"), all_ops))
        if n <= DUALR_MAX_ATOMS:
            # SLSQP time swings by +-40% between draws: a fixed lattice and vector
            wf, bf = fixed.uniform(0.3, 3.0, n), fixed.standard_normal(n)
            cases += _lorentz_cases(n, p, r, wf, bf, ((), ("dual",), ()))
    return cases


# ---------------------------------------------------------------------------
# estimates: constants, q-convexity bound, embedding certificates, tensor
# factorization on small l_p and <= 6-atom Lorentz lattices

ESTIMATE_ATOMS = (2, 3, 4, 5, 6, 4, 5, 6)
ESTIMATE_BUDGET = 400
QCONVEX_DIMS = (2, 3, 4)
QCONVEX_BUDGET = 1000
T41_CASES = 6
T41_BUDGET = 500
TENSOR_CASES = 3


def _lorentz1(n, rng):
    p = float(rng.uniform(1.3, 4.0))
    w = rng.uniform(0.3, 3.0, n)
    return p, w, ll.NormedLattice(n, ll.WeightedLorentzPInfty(p, 1, ll.AtomicMeasure(tuple(w.tolist()))))


def _check_unit_constant(est) -> list:
    ok = 1 - 1e-9 <= est.value <= 1 + 1e-9
    return [] if ok else [f"upper estimate constant {est.value!r} outside 1 +- 1e-9"]


def _check_qconvex(p, q, rep) -> list:
    ps = orc.conjugate(p)
    bound = (p / (p - q)) ** (1.0 / q) * ps ** (1.0 / ps)
    ok = rep["K_q_lower"] <= bound + 1e-6
    return [] if ok else [f"K_q_lower {rep['K_q_lower']!r} > bound {bound!r}"]


def _check_t41(dual_norm, p, C, cert) -> list:
    if not isinstance(cert, ll.EmbeddingCertificate):
        return [f"no certificate: {cert!r}"]
    ps = orc.conjugate(p)
    b, d = np.array(cert.b), np.array(cert.d)
    worst = -INF
    for I, _ in cert.subset_margins:
        mask = np.zeros(b.size)
        mask[list(I)] = 1.0
        worst = max(worst, dual_norm(b * mask) ** ps - C ** ps * float(mask @ d))
    return [] if worst <= 1e-9 else [f"recomputed subset margin {worst!r} > 1e-9"]


def _check_eta(u, out) -> list:
    return [] if np.array_equal(out["S"].matrix @ out["R"].matrix, u) else ["S R != u"]


def _check_single_theta(expected, est) -> list:
    ok = abs(est.value - expected) <= 1e-6
    return [] if ok else [f"single-pair theta {est.value!r} vs {expected!r}"]


def estimates(seed: int) -> list:
    rng = _rng("estimates", seed)
    cases = []
    for k, n in enumerate(ESTIMATE_ATOMS):
        p, _, X = _lorentz1(n, rng)
        cases.append(Case(
            f"upper estimate lorentz n={n}",
            lambda X=X, p=p, k=k: ll.estimate_constant(
                ll.identity_operator(X), ll.UpperEstimate(p), budget=ESTIMATE_BUDGET, seed=k),
            _check_unit_constant))
    for k, n in enumerate(QCONVEX_DIMS):
        for kind in ("lp", "lorentz"):
            if kind == "lp":
                p = float(rng.uniform(1.4, 4.0))
                X = ll.NormedLattice(n, ll.Lp(p))
            else:
                p, _, X = _lorentz1(n, rng)
            q = float(rng.uniform(1.0, p - 0.2)) if p > 1.4 else 1.0
            cases.append(Case(
                f"q-convexity {kind} n={n}",
                lambda X=X, q=q, k=k: ll.check_q_convexity_bound(X, q, budget=QCONVEX_BUDGET, seed=k),
                lambda rep, p=p, q=q: _check_qconvex(p, q, rep)))
    C = 1 + 1e-4
    for k in range(T41_CASES):
        if k % 2 == 0:
            p = float(rng.uniform(1.3, 4.0))
            X = ll.NormedLattice(2, ll.Lp(p))
            ps = orc.conjugate(p)
            dual_norm = lambda v, ps=ps: orc.lp_norm(v, ps)
            norm = lambda v, p=p: orc.lp_norm(v, p)
        else:
            p, w, X = _lorentz1(2, rng)
            dual_norm = lambda v, w=w, p=p: orc.dual_pinfty_1(v, w, p)[0]
            norm = lambda v, w=w, p=p: orc.norm_pinfty_r(v, w, p, 1.0)
        a = np.abs(rng.standard_normal(2)) + 1e-3
        a = a / norm(a)
        cases.append(Case(
            f"t41 {'lp' if k % 2 == 0 else 'lorentz'}",
            lambda X=X, p=p, a=a, k=k: ll.t41_check(X, p, C, a, budget=T41_BUDGET, seed=k),
            lambda cert, dn=dual_norm, p=p: _check_t41(dn, p, C, cert)))
    for k in range(TENSOR_CASES):
        dE, dF, npairs = 2, 2, 2
        pairs = [(rng.standard_normal(dE), rng.standard_normal(dF)) for _ in range(npairs)]
        rep = ll.TensorRep(tuple((tuple(x), tuple(y)) for x, y in pairs), 2.0, INF, 2.0, 1.0)
        u = np.array([y for _, y in pairs]).T @ np.array([x for x, _ in pairs])
        cases.append(Case(
            f"eta factorization {k}",
            lambda rep=rep, k=k: ll.build_eta_factorization(
                rep, ll.Lp(2.0), ll.Lp(2.0), trunc_len=3, budget=1000, seed=k),
            lambda out, u=u: _check_eta(u, out)))
        x, y = rng.standard_normal(dE), rng.standard_normal(dF)
        pE, pF = float(rng.choice([1.5, 2.0, 3.0])), float(rng.choice([1.5, 2.0, 3.0]))
        single = ll.TensorRep(((tuple(x), tuple(y)),), 2.0, INF, 2.0, 1.0)
        cases.append(Case(
            f"single-pair theta {k}",
            lambda single=single, pE=pE, pF=pF, k=k: ll.theta_lower(
                single, ll.Lp(pE), ll.Lp(pF), budget=400, seed=k),
            lambda est, v=orc.lp_norm(x, pE) * orc.lp_norm(y, pF): _check_single_theta(v, est)))
    return cases


WORKLOADS = {"minfactor": minfactor, "polarity": polarity,
             "lorentz": lorentz, "estimates": estimates}
