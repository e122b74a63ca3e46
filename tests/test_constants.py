"""Convexity, concavity, and estimate constants: frozen small-instance
values, closed-form cross-checks, and the weak-L_p counterexample."""

import math

import numpy as np
import pytest

import latticelab as ll
from latticelab import _util, constants
from latticelab._util import hill_climb, lp_norm, rng_for
from latticelab.constants import _sphere_grid, set_partitions

CM = ll.AtomicMeasure.counting


def lp_lattice(n, p):
    return ll.NormedLattice(n, ll.Lp(p))


# ---------------------------------------------------------------------------
# kind records


def test_kind_range_validation():
    ll.Convex(2, 3)
    ll.Convex(2, math.inf)
    ll.Concave(3, 1)
    with pytest.raises(ValueError):
        ll.Convex(3, 2)  # needs p <= p2
    with pytest.raises(ValueError):
        ll.Concave(2, 3)  # needs q2 <= q
    with pytest.raises(ValueError):
        ll.UpperEstimate(0.5)
    with pytest.raises(ValueError):
        ll.LowerEstimate(0.5)


# ---------------------------------------------------------------------------
# ratio


def test_ratio_upper_estimate_l1_basis():
    X = lp_lattice(3, 1)
    T = ll.identity_operator(X)
    fam = [np.eye(3)[i] for i in range(3)]
    val = ll.ratio(T, ll.UpperEstimate(2), fam)
    assert val == pytest.approx(math.sqrt(3), abs=1e-12)


def test_ratio_upper_estimate_linf_never_exceeds_one():
    rng = np.random.default_rng(0)
    X = lp_lattice(4, math.inf)
    T = ll.identity_operator(X)
    for p in (1.5, 2, 3):
        for _ in range(10):
            labels = rng.integers(0, 3, size=4)
            fam = [rng.standard_normal(4) * (labels == j) for j in range(3)]
            fam = [f for f in fam if np.any(f != 0)]
            if not fam:
                continue
            assert ll.ratio(T, ll.UpperEstimate(p), fam) <= 1 + 1e-12


def test_ratio_convex_equality_case():
    X = lp_lattice(2, 2)
    T = ll.identity_operator(X)
    fam = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
    assert ll.ratio(T, ll.Convex(2, 2), fam) == pytest.approx(1.0, abs=1e-12)


def test_ratio_rejects_overlapping_supports_for_estimates():
    X = lp_lattice(2, 1)
    T = ll.identity_operator(X)
    with pytest.raises(ValueError):
        ll.ratio(T, ll.UpperEstimate(2), [np.array([1.0, 0.0]), np.array([1.0, 1.0])])


def test_ratio_rejects_zero_family():
    X = lp_lattice(2, 1)
    T = ll.identity_operator(X)
    with pytest.raises(ValueError):
        ll.ratio(T, ll.Convex(2, 2), [np.zeros(2)])


def test_ratio_kind_monotonicity_convex_p2():
    # l_inf combination <= l_p combination coordinatewise, norms follow
    rng = np.random.default_rng(3)
    X = lp_lattice(3, 1.7)
    T = ll.identity_operator(X)
    for _ in range(25):
        fam = list(rng.standard_normal((int(rng.integers(1, 5)), 3)))
        p = float(rng.uniform(1, 3))
        r_pp = ll.ratio(T, ll.Convex(p, p), fam)
        r_pinf = ll.ratio(T, ll.Convex(p, math.inf), fam)
        assert r_pp >= r_pinf - 1e-12


def _ratio_per_row(T, kind, family):
    """Reference ratio: one eval_norm and one T.apply per member."""
    fam = [np.asarray(x, dtype=float) for x in family]
    if isinstance(kind, (ll.UpperEstimate, ll.LowerEstimate)):
        if np.any(np.stack([x != 0 for x in fam]).sum(axis=0) > 1):
            raise ValueError("overlapping supports")
    if isinstance(kind, (ll.Convex, ll.UpperEstimate)):
        tau = ll.SymmetricSeqNorm(kind.p)
        sigma = ll.SymmetricSeqNorm(kind.p2 if isinstance(kind, ll.Convex) else math.inf)
        den = tau([ll.eval_norm(T.domain, x) for x in fam])
        if den <= 0:
            raise ValueError("zero family")
        return ll.eval_norm(T.codomain, ll.sigma_apply(sigma, [T.apply(x) for x in fam])) / den
    tau = ll.SymmetricSeqNorm(kind.q)
    sigma = ll.SymmetricSeqNorm(kind.q2 if isinstance(kind, ll.Concave) else 1.0)
    den = ll.eval_norm(T.domain, ll.sigma_apply(sigma, fam))
    if den <= 0:
        raise ValueError("zero family")
    return tau([ll.eval_norm(T.codomain, T.apply(x)) for x in fam]) / den


def _lorentz(n, p, r, rng):
    w = rng.uniform(0.3, 3.0, n)
    return ll.NormedLattice(n, ll.WeightedLorentzPInfty(p, r, ll.AtomicMeasure(tuple(w.tolist()))))


ALL_KINDS = (ll.Convex(1.5, 2.5), ll.Concave(3.0, 1.5), ll.UpperEstimate(2.5), ll.LowerEstimate(1.5))


def _families(kind, n, rng, count):
    """Random families; disjointly supported for the estimate kinds."""
    for _ in range(count):
        m = int(rng.integers(1, n + 1))
        fam = rng.standard_normal((m, n))
        if isinstance(kind, (ll.UpperEstimate, ll.LowerEstimate)):
            fam *= rng.integers(0, m, size=n) == np.arange(m)[:, None]
        if np.any(fam != 0):
            yield fam


@pytest.mark.parametrize("lattice", ["lp", "lorentz r=1", "lorentz r>1"])
def test_ratio_matches_per_row_reference_on_identity(lattice):
    # exact on Lorentz lattices; on l_p the vectorised root of Lp.eval_rows
    # (numpy's SIMD pow) may round the last bit unlike the scalar pow of evaluate
    rng = np.random.default_rng(40)
    X = {"lp": lp_lattice(4, 1.7), "lorentz r=1": _lorentz(4, 2.5, 1.0, rng),
         "lorentz r>1": _lorentz(4, 2.5, 1.8, rng)}[lattice]
    T = ll.identity_operator(X)
    ulps = 4 if lattice == "lp" else 0
    for kind in ALL_KINDS:
        for fam in _families(kind, X.dim, rng, 40):
            got, want = ll.ratio(T, kind, fam), _ratio_per_row(T, kind, list(fam))
            assert abs(got - want) <= ulps * np.finfo(float).eps * want


def test_ratio_within_4_ulp_of_per_row_reference_on_random_operators():
    # mat @ T.matrix.T and T.matrix @ x may round the images differently
    rng = np.random.default_rng(41)
    spaces = [lp_lattice(3, 1.7), _lorentz(3, 2.5, 1.0, rng), _lorentz(3, 3.0, 2.0, rng)]
    for E in spaces:
        for F in spaces:
            T = ll.LinOperator(rng.standard_normal((3, 3)), E, F)
            for kind in ALL_KINDS:
                for fam in _families(kind, 3, rng, 10):
                    got, want = ll.ratio(T, kind, fam), _ratio_per_row(T, kind, list(fam))
                    assert abs(got - want) <= 4 * np.finfo(float).eps * want


def test_ratio_rejects_malformed_families_and_returns_a_float():
    T = ll.identity_operator(lp_lattice(2, 2))
    good = [np.array([1.0, 0.0]), np.array([0.0, 2.0])]
    for kind in ALL_KINDS:
        assert type(ll.ratio(T, kind, good)) is float
        for bad in ([], np.zeros((0, 2)), [np.array([1.0, 0.0, 0.0])],
                    [np.array([1.0, 0.0]), np.array([1.0])],
                    [np.array([np.nan, 1.0])], [np.array([0.0, np.inf])]):
            with pytest.raises(ValueError):
                ll.ratio(T, kind, bad)
    with pytest.raises(ValueError):
        ll.generalized_convexity_ratio(T, ll.SymmetricSeqNorm(2), ll.SymmetricSeqNorm(2), [])
    with pytest.raises(ValueError):
        ll.generalized_concavity_ratio(T, ll.SymmetricSeqNorm(2), ll.SymmetricSeqNorm(2),
                                       [np.array([1.0, np.inf])])


# ---------------------------------------------------------------------------
# the lockstep searches replay the sequential ones bit for bit


def _seq_general(T, convex, tau, sigma, family):
    """One family's ratio, computed alone as a one-family scorer would."""
    mat = np.asarray(family, dtype=float)
    if not np.isfinite(mat).all():
        raise ValueError("non-finite family")
    if convex:
        den = ll.SymmetricSeqNorm(tau)(T.domain.norm.eval_rows(mat))
        if den <= 0:
            raise ValueError("zero family")
        sv = lp_norm(mat @ T.matrix.T, sigma, axis=0)
        return float(T.codomain.norm.eval_rows(sv[None])[0]) / den
    den = float(T.domain.norm.eval_rows(lp_norm(mat, sigma, axis=0)[None])[0])
    if den <= 0:
        raise ValueError("zero family")
    return ll.SymmetricSeqNorm(tau)(T.codomain.norm.eval_rows(mat @ T.matrix.T)) / den


def _seq_ratio(T, kind, family):
    if isinstance(kind, (ll.UpperEstimate, ll.LowerEstimate)):
        if np.any((np.asarray(family) != 0).sum(axis=0) > 1):
            raise ValueError("overlapping supports")
    if isinstance(kind, (ll.Convex, ll.UpperEstimate)):
        return _seq_general(T, True, kind.p, getattr(kind, "p2", math.inf), family)
    return _seq_general(T, False, kind.q, getattr(kind, "q2", 1.0), family)


def _seq_random_family_search(T, kind, budget, seed):
    n = T.domain.dim
    rng = rng_for(seed, "const-random", n)
    best_val, best_fam = -math.inf, None
    n_starts = max(4, min(24, budget // 250))
    lengths = list(range(1, 2 * n + 1))
    for _ in range(n_starts):
        m = lengths[int(rng.integers(0, len(lengths)))]
        if isinstance(kind, (ll.UpperEstimate, ll.LowerEstimate)):
            m = min(m, n)
            perm = rng.permutation(n)
            cuts = sorted(rng.choice(np.arange(1, n), size=m - 1, replace=False).tolist()) if m > 1 else []
            mask = np.zeros((m, n))
            for i, part in enumerate(np.split(perm, cuts)):
                mask[i, part] = 1.0
            mat0, project = mask * rng.standard_normal((m, n)), mask.__mul__
        else:
            mat0, project = rng.standard_normal((m, n)), None
        mat, val = hill_climb(lambda f: _seq_ratio(T, kind, f), mat0, rng,
                              max(20, budget // (4 * n_starts)), project)
        if val > best_val:
            best_val, best_fam = val, mat
    return best_val, best_fam


def _seq_partition_search(T, kind, budget, seed):
    n = T.domain.dim
    rng = rng_for(seed, "const-partition", n)
    if n <= 8:
        partitions = list(set_partitions(range(n)))
    else:
        partitions = [[[i] for i in range(n)], [list(range(n))]]
        partitions.append([list(range(n // 2)), list(range(n // 2, n))])
        for _ in range(60):
            labels = rng.integers(0, rng.integers(2, n + 1), n)
            parts = [list(np.where(labels == l)[0]) for l in np.unique(labels)]
            partitions.append([q for q in parts if q])
    best_val, best_fam = -math.inf, None
    iters = max(10, budget // (2 * max(1, len(partitions))))
    for parts in partitions:
        mask = np.zeros((len(parts), n))
        for i, part in enumerate(parts):
            mask[i, part] = 1.0
        mat, val = hill_climb(lambda f: _seq_ratio(T, kind, f), mask, rng, iters, mask.__mul__)
        if val > best_val:
            best_val, best_fam = val, mat
    return best_val, best_fam


def _seq_estimate(T, kind, budget, seed):
    """estimate_constant off the closed-form cases: one hill climb per start."""
    vals = [_seq_random_family_search(T, kind, budget, seed)]
    if isinstance(kind, (ll.UpperEstimate, ll.LowerEstimate)) and T.domain.dim <= 10:
        vals.append(_seq_partition_search(T, kind, budget, seed))
    return max(vals, key=lambda t: t[0])


def _seq_renormed_ratio_max(X, p, q, seed):
    measure = X.norm.measure if isinstance(X.norm, ll.WeightedLorentzPInfty) else CM(X.dim)
    Tq = ll.identity_operator(ll.NormedLattice(X.dim, ll.WeightedLorentzPInfty(p, q, measure)))
    rng = rng_for(seed, "renorm-check", X.dim)
    best = 0.0
    for _ in range(100):
        fam = rng.standard_normal((int(rng.integers(1, 2 * X.dim + 1)), X.dim))
        try:
            best = max(best, _seq_ratio(Tq, ll.Convex(q, q), fam))
        except ValueError:
            continue
    return best


WITNESS_OP = np.array([[1.0, 2.0, 0.0], [0.0, 1.0, -1.0], [0.5, 0.0, 1.0]])


def _replay_cases():
    rng = np.random.default_rng(42)
    cases = []
    for n in (2, 3, 4, 5, 6, 9):  # n = 9 samples its partitions
        p = float(rng.uniform(1.3, 4.0))
        cases.append((ll.identity_operator(_lorentz(n, p, 1.0, rng)), ll.UpperEstimate(p), 200, n))
    T = ll.LinOperator(WITNESS_OP, lp_lattice(3, 2), lp_lattice(3, 1.5))
    for kind in (ll.Convex(2, 2), ll.Concave(2, 1.5), ll.UpperEstimate(2), ll.LowerEstimate(2)):
        cases.append((T, kind, 300, 4))
    # families of 1 to 10 members in one stack: numpy sums 8 or more values
    # pairwise, and the images of one member come from a BLAS gemv
    rng = np.random.default_rng(7)
    T = ll.LinOperator(rng.standard_normal((4, 5)), lp_lattice(5, 1.7), _lorentz(4, 3.0, 1.8, rng))
    cases.append((T, ll.Convex(1.3, 1.3), 1000, 1))
    return cases


def _assert_same_estimate(est, want):
    val, fam = want
    assert est.side == "lower" and est.value == val
    assert len(est.witness) == len(fam)
    assert all(np.array_equal(w, row) for w, row in zip(est.witness, fam))


@pytest.mark.parametrize("tiny_groups", [False, True])
def test_estimate_constant_replays_the_sequential_search(monkeypatch, tiny_groups):
    if tiny_groups:  # every lockstep group holds one climb
        monkeypatch.setattr("latticelab._util.NOISE_BYTES", 1)
    for T, kind, budget, seed in _replay_cases():
        _assert_same_estimate(ll.estimate_constant(T, kind, budget=budget, seed=seed),
                              _seq_estimate(T, kind, budget, seed))


def test_estimate_constant_scores_a_window_per_call(monkeypatch):
    # the lockstep would make one _ratios call per step of each group, plus one
    # per start scoring; the windowed driver makes one per accept round
    calls, steps, inside = [], [], []
    ratios, lockstep = constants._ratios, _util.climb_lockstep

    def spy_ratios(*args):
        calls.append(bool(inside))
        return ratios(*args)

    def spy_lockstep(score, x0, best, project, noise):
        steps.append(len(noise))
        inside.append(True)
        try:
            return lockstep(score, x0, best, project, noise)
        finally:
            inside.pop()

    monkeypatch.setattr(constants, "_ratios", spy_ratios)
    monkeypatch.setattr(_util, "climb_lockstep", spy_lockstep)
    T, kind = ll.identity_operator(_lorentz(4, 2.5, 1.0, np.random.default_rng(44))), ll.UpperEstimate(2.5)
    est = ll.estimate_constant(T, kind, budget=400, seed=3)
    starts = calls.count(False)
    assert len(steps) == 2 and starts == 5  # 4 random starts scored one by one, the partitions at once
    assert len(calls) < sum(steps) + starts
    _assert_same_estimate(est, _seq_estimate(T, kind, 400, 3))


def test_q_convexity_report_replays_the_sequential_search():
    X = _lorentz(3, 2.8, 1.0, np.random.default_rng(43))
    q = 1.6
    rep = ll.check_q_convexity_bound(X, q, budget=1000, seed=2)
    assert rep["K_q_lower"] == _seq_estimate(ll.identity_operator(X), ll.Convex(q, q), 1000, 2)[0]
    assert rep["renormed_ratio_max"] == _seq_renormed_ratio_max(X, 2.8, q, 2)


# ---------------------------------------------------------------------------
# estimate_constant


def test_estimate_constant_l1_exact_sqrt3():
    X = lp_lattice(3, 1)
    est = ll.estimate_constant(ll.identity_operator(X), ll.UpperEstimate(2),
                               budget=500, seed=0)
    assert est.side == "exact"
    assert est.value == pytest.approx(math.sqrt(3), abs=1e-12)
    # witness reproduces the value
    fam = [np.asarray(w) for w in est.witness]
    assert ll.ratio(ll.identity_operator(X), ll.UpperEstimate(2), fam) == pytest.approx(
        est.value, abs=1e-9)


@pytest.mark.parametrize("n,p", [(2, 1.5), (4, 2), (5, 3)])
def test_estimate_constant_l1_closed_form(n, p):
    X = lp_lattice(n, 1)
    est = ll.estimate_constant(ll.identity_operator(X), ll.UpperEstimate(p),
                               budget=400, seed=1)
    ps = p / (p - 1)
    assert est.side == "exact"
    assert est.value == pytest.approx(n ** (1.0 / ps), rel=1e-12)


@pytest.mark.parametrize("p", [1.5, 2, 2.5])
def test_estimate_constant_lp_identity_is_one(p):
    X = lp_lattice(4, p)
    est = ll.estimate_constant(ll.identity_operator(X), ll.UpperEstimate(p),
                               budget=400, seed=2)
    assert est.side == "exact"
    assert est.value == pytest.approx(1.0, abs=1e-12)
    assert est.value <= 1 + 1e-9


def test_weak_lp_one_renorming_upper_estimate_constant_one():
    # 50 random weighted instances, ratio search never beats 1 + 1e-9
    rng = np.random.default_rng(42)
    for trial in range(50):
        n = int(rng.integers(2, 5))
        p = float(rng.uniform(1.2, 3.5))
        w = rng.uniform(0.2, 3.0, size=n)
        X = ll.NormedLattice(n, ll.WeightedLorentzPInfty(p, 1, ll.AtomicMeasure(tuple(w))))
        est = ll.estimate_constant(ll.identity_operator(X), ll.UpperEstimate(p),
                                   budget=120, seed=trial)
        assert est.value <= 1 + 1e-9, (trial, n, p, est.value)


def test_estimate_constant_seed_deterministic():
    X = ll.NormedLattice(3, ll.WeightedLorentzPInfty(2, 1, CM(3)))
    T = ll.identity_operator(X)
    a = ll.estimate_constant(T, ll.Convex(1.5, 2), budget=300, seed=9)
    b = ll.estimate_constant(T, ll.Convex(1.5, 2), budget=300, seed=9)
    assert a.value == b.value
    assert len(a.witness) == len(b.witness)
    for wa, wb in zip(a.witness, b.witness):
        assert np.array_equal(np.asarray(wa), np.asarray(wb))


def test_estimate_constant_witness_reproduces():
    X = lp_lattice(3, 2)
    T = ll.LinOperator(np.array([[1.0, 2.0, 0.0], [0.0, 1.0, -1.0], [0.5, 0.0, 1.0]]),
                       X, lp_lattice(3, 1.5))
    for kind in (ll.Convex(2, 2), ll.Concave(2, 1.5), ll.UpperEstimate(2), ll.LowerEstimate(2)):
        est = ll.estimate_constant(T, kind, budget=300, seed=4)
        fam = [np.asarray(w) for w in est.witness]
        assert ll.ratio(T, kind, fam) == pytest.approx(est.value, rel=1e-9)


def test_estimate_constant_of_the_zero_operator_is_exactly_zero():
    # every ratio's numerator vanishes; the search used to raise "failed to
    # produce a nonzero family" for all four kinds
    T = ll.LinOperator(np.zeros((2, 3)), lp_lattice(3, 2), lp_lattice(2, 1.5))
    for kind in (ll.Convex(2, 2), ll.Concave(2, 1.5), ll.UpperEstimate(2), ll.LowerEstimate(2)):
        est = ll.estimate_constant(T, kind, budget=300, seed=4)
        assert (est.value, est.side) == (0.0, "exact")
        assert np.array_equal(est.witness, [[1.0, 0.0, 0.0]])
        assert ll.ratio(T, kind, est.witness) == 0.0


@pytest.mark.parametrize("n", [11, 12, 20])
def test_identity_estimates_are_exact_past_the_partition_search(n):
    # the power-mean argument holds at every n, not only where partitions are searched
    T = ll.identity_operator(lp_lattice(n, 1.5))
    est = ll.estimate_constant(T, ll.UpperEstimate(3), budget=200, seed=0)
    assert est.side == "exact"
    assert est.value == n ** (1 / 1.5 - 1 / 3)
    assert ll.ratio(T, ll.UpperEstimate(3), est.witness) == pytest.approx(est.value, rel=1e-12)
    est = ll.estimate_constant(T, ll.LowerEstimate(1.2), budget=200, seed=0)
    assert est.side == "exact"
    assert est.value == n ** (1 / 1.2 - 1 / 1.5)
    assert ll.ratio(T, ll.LowerEstimate(1.2), est.witness) == pytest.approx(est.value, rel=1e-12)


def test_set_partitions_counts_are_bell_numbers():
    assert sum(1 for _ in set_partitions(list(range(1)))) == 1
    assert sum(1 for _ in set_partitions(list(range(3)))) == 5
    assert sum(1 for _ in set_partitions(list(range(5)))) == 52


# ---------------------------------------------------------------------------
# gamma


def test_gamma_at_two():
    assert ll.gamma(2) == pytest.approx(math.sqrt(2), abs=1e-12)


def test_gamma_two_expressions_agree():
    for p in (1.01, 1.2, 1.5, 2.0, 3.7, 25.0):
        direct = (1 - 1 / p) ** (1 / p - 1)
        ps = p / (p - 1)
        assert ll.gamma(p) == pytest.approx(direct, rel=1e-12)
        assert ll.gamma(p) == pytest.approx(ps ** (1 / ps), rel=1e-12)


def test_gamma_shape_and_corollary_bound_divergence():
    # gamma itself is bounded: tends to 1 at both ends of (1, inf), with a
    # single interior maximum e^(1/e) where p* = e.  The q-convexity bound
    # (p/(p-q))^(1/q) gamma_p is what blows up monotonically as p -> 1+.
    grid = [1.001, 1.01, 1.1, 1.5, 2.0, 4.0, 20.0, 200.0]
    vals = [ll.gamma(p) for p in grid]
    assert all(1 <= v <= math.e ** (1 / math.e) + 1e-12 for v in vals)
    assert vals[0] < 1.01 and vals[-1] < 1.04
    p_star_e = math.e / (math.e - 1)
    assert ll.gamma(p_star_e) == pytest.approx(math.e ** (1 / math.e), rel=1e-12)
    q = 1.0
    bounds = [(p / (p - q)) ** (1 / q) * ll.gamma(p) for p in grid if p > q]
    assert all(b1 > b2 for b1, b2 in zip(bounds, bounds[1:]))
    assert bounds[0] > 1e3  # diverges toward p = q = 1


def test_gamma_domain_errors():
    with pytest.raises(ValueError):
        ll.gamma(1.0)
    with pytest.raises(ValueError):
        ll.gamma(0.5)
    with pytest.raises(ValueError):
        ll.gamma(math.inf)


# ---------------------------------------------------------------------------
# q-convexity corollary


def test_q_convexity_bound_value_p2_q1():
    X = lp_lattice(2, 2)
    rep = ll.check_q_convexity_bound(X, 1, budget=800, seed=0)
    assert rep["bound"] == pytest.approx(2 * math.sqrt(2), abs=1e-9)
    assert rep["pass"]


@pytest.mark.parametrize("p,q", [(2, 1), (3, 2), (1.8, 1.3)])
def test_q_convexity_lp_lattice_stays_at_one(p, q):
    X = lp_lattice(3, p)
    rep = ll.check_q_convexity_bound(X, q, budget=600, seed=1)
    assert rep["K_q_lower"] <= 1 + 1e-9
    assert rep["bound_ok"]


def test_q_convexity_renormed_ratio_at_most_one():
    X = ll.NormedLattice(3, ll.WeightedLorentzPInfty(2.5, 1, ll.AtomicMeasure((0.5, 1.0, 2.0))))
    rep = ll.check_q_convexity_bound(X, 1.5, budget=900, seed=3)
    assert rep["renormed_ratio_max"] <= 1 + 1e-9
    assert rep["renormed_ok"]
    assert rep["pass"]


def test_q_convexity_rejects_q_at_least_p():
    with pytest.raises(ValueError):
        ll.check_q_convexity_bound(lp_lattice(2, 2), 2)
    with pytest.raises(ValueError):
        ll.check_q_convexity_bound(lp_lattice(2, 2), 3)


# ---------------------------------------------------------------------------
# the sup-of-weak-Lp blocks counterexample


def test_reproduce_a2_value():
    rep = ll.reproduce_lpinfty_lp(2, 2)
    expected = math.sqrt(1 + (math.sqrt(2) - 1) ** 2)
    assert rep["A_n"] == pytest.approx(expected, abs=1e-12)
    assert rep["A_n"] == pytest.approx(1.082392200292394, abs=1e-12)
    assert rep["vee_ratio_matches"]
    assert rep["unit_norms_ok"]


@pytest.mark.parametrize("p,n", [(2, 4), (3, 8), (1.5, 5)])
def test_reproduce_unit_norms_and_ratio(p, n):
    rep = ll.reproduce_lpinfty_lp(p, n)
    assert rep["unit_norm_check"] <= 1e-9
    assert abs(rep["vee_ratio"] - rep["A_n"]) <= 1e-9
    assert rep["growth_strictly_increasing"]


def test_reproduce_growth_table_diverges_like_harmonic():
    rep = ll.reproduce_lpinfty_lp(2, 2)
    table = {row["n"]: row for row in rep["growth_table"]}
    assert table[32]["A_n"] > table[4]["A_n"]
    # A_n^p tracks the harmonic number up to a p-dependent constant; for
    # p = 2 the tail terms are ~ (1/4)k^-1 so the ratio drifts toward 1/4
    ratios = [row["A_n^p/H_n"] for row in rep["growth_table"]]
    assert all(0.2 <= r <= 1.2 for r in ratios)


# ---------------------------------------------------------------------------
# duality of convexity and concavity constants


def test_duality_gap_identity():
    X = lp_lattice(2, 2)
    rep = ll.duality_gap(ll.identity_operator(X), ll.SymmetricSeqNorm(2),
                         ll.SymmetricSeqNorm(2), budget=800, seed=0)
    assert rep["L1_convexity"] == pytest.approx(1.0, abs=1e-9)
    assert rep["L2_dual_concavity"] == pytest.approx(1.0, abs=1e-9)
    assert rep["pass"]


def test_duality_gap_diagonal_oracle():
    X = lp_lattice(2, 2)
    T = ll.LinOperator(np.diag([2.0, 1.0]), X, X)
    rep = ll.duality_gap(T, ll.SymmetricSeqNorm(2), ll.SymmetricSeqNorm(2),
                         budget=1500, seed=0)
    assert rep["oracle_used"]
    assert rep["gap"] <= 5e-2
    assert rep["pass"]


def test_duality_gap_skips_verdict_without_oracle():
    X = lp_lattice(2, 2)
    T = ll.LinOperator(np.array([[2.0, 0.5], [0.0, 1.0]]), X, X)
    rep = ll.duality_gap(T, ll.SymmetricSeqNorm(2), ll.SymmetricSeqNorm(2),
                         budget=500, seed=0)
    assert not rep["oracle_used"]
    assert rep["pass"] is None


def test_duality_gap_non_square_operator():
    T = ll.LinOperator(np.array([[1.0, 0.5, 0.0], [0.0, 1.0, -0.5]]),
                       lp_lattice(3, 2), lp_lattice(2, 3))
    rep = ll.duality_gap(T, ll.SymmetricSeqNorm(2), ll.SymmetricSeqNorm(2),
                         budget=400, seed=0)
    assert not rep["oracle_used"]
    assert rep["pass"] is None
    assert rep["L1_convexity"] > 0 and rep["L2_dual_concavity"] > 0


def test_duality_gap_scaling_covariance():
    X = lp_lattice(2, 2)
    T = ll.LinOperator(np.array([[2.0, 0.5], [0.0, 1.0]]), X, lp_lattice(2, 3))
    base = ll.duality_gap(T, ll.SymmetricSeqNorm(2), ll.SymmetricSeqNorm(1.5),
                          budget=500, seed=7)
    scaled = ll.duality_gap(ll.LinOperator(3.0 * T.matrix, X, lp_lattice(2, 3)),
                            ll.SymmetricSeqNorm(2), ll.SymmetricSeqNorm(1.5),
                            budget=500, seed=7)
    assert scaled["L1_convexity"] == pytest.approx(3 * base["L1_convexity"], rel=1e-9)
    assert scaled["L2_dual_concavity"] == pytest.approx(3 * base["L2_dual_concavity"], rel=1e-9)


def _seq_oracle_best(score, dim):
    """The grid oracle, one family at a time."""
    from itertools import combinations_with_replacement

    dirs = _sphere_grid(dim)
    weights2 = [np.array([t, 1 - t]) for t in np.linspace(0.05, 0.95, 7)]
    weights3 = [np.array([a, b, 1 - a - b])
                for a in np.linspace(0.1, 0.8, 4) for b in np.linspace(0.1, 0.8, 4)
                if a + b < 0.95]
    fams = [[d] for d in dirs]
    fams += [[wt[0] * dirs[i], wt[1] * dirs[j]]
             for i, j in combinations_with_replacement(range(0, len(dirs), 2), 2) for wt in weights2]
    fams += [[wt[0] * dirs[i], wt[1] * dirs[j], wt[2] * dirs[k]]
             for i, j, k in combinations_with_replacement(range(0, len(dirs), 4), 3) for wt in weights3]
    best = 0.0
    for fam in fams:
        try:
            best = max(best, score(fam))
        except ValueError:
            pass
    return best


def _seq_duality_gap(T, tau, sigma, budget, seed):
    """duality_gap with one hill climb per start."""
    A = T.adjoint()
    tau_d, sigma_d = ll.sigma_dual(tau), ll.sigma_dual(sigma)
    rng = rng_for(seed, "duality", T.domain.dim, T.codomain.dim)

    def score1(fam):
        return _seq_general(T, True, tau.p, sigma.p, fam)

    def score2(fam):
        return _seq_general(A, False, tau_d.p, sigma_d.p, fam)

    def search(score, dim):
        best, n_starts = 0.0, max(4, min(16, budget // 400))
        for _ in range(n_starts):
            mat0 = rng.standard_normal((int(rng.integers(1, 2 * dim + 1)), dim))
            best = max(best, hill_climb(score, mat0, rng, max(20, budget // (4 * n_starts)))[1])
        return best

    L1, L2 = search(score1, T.domain.dim), search(score2, T.codomain.dim)
    diag = T.matrix.shape[0] == T.matrix.shape[1] and np.allclose(T.matrix, np.diag(np.diag(T.matrix)))
    oracle_used = bool(diag and T.domain.dim <= 3)
    if oracle_used:
        L1 = max(L1, _seq_oracle_best(score1, T.domain.dim))
        L2 = max(L2, _seq_oracle_best(score2, T.codomain.dim))
    return {"L1_convexity": L1, "L2_dual_concavity": L2, "gap": abs(L1 - L2),
            "oracle_used": oracle_used, "pass": bool(abs(L1 - L2) <= 5e-2) if oracle_used else None}


@pytest.mark.parametrize("matrix,taus,diagonal", [
    (np.diag([2.0, 1.0]), (2, 1.5), True),
    (np.diag([1.5, -0.5, 1.0]), (1.5, math.inf), True),
    (np.array([[2.0, 0.5], [0.0, 1.0]]), (2, 2), False),
    (np.array([[1.0, 0.5, 0.0], [0.0, 1.0, -0.5]]), (3, 1), False),
])
def test_duality_gap_replays_the_sequential_search(matrix, taus, diagonal):
    T = ll.LinOperator(matrix, lp_lattice(matrix.shape[1], 2), lp_lattice(matrix.shape[0], 3))
    tau, sigma = ll.SymmetricSeqNorm(taus[0]), ll.SymmetricSeqNorm(taus[1])
    rep = ll.duality_gap(T, tau, sigma, budget=1200, seed=5)
    assert rep == _seq_duality_gap(T, tau, sigma, 1200, 5)
    if diagonal:  # of dimension <= 3: the grid oracle ran
        assert rep["oracle_used"] and isinstance(rep["pass"], bool)
    else:
        assert not rep["oracle_used"] and rep["pass"] is None


def test_duality_gap_rejects_non_lp():
    X = ll.NormedLattice(2, ll.WeightedLorentzPInfty(2, 1, CM(2)))
    with pytest.raises(ValueError):
        ll.duality_gap(ll.identity_operator(X), ll.SymmetricSeqNorm(2),
                       ll.SymmetricSeqNorm(2))


# ---------------------------------------------------------------------------
# cross-module: minimal factorization target has a clean upper estimate


def test_factorization_target_upper_estimate_certificate():
    E = lp_lattice(2, 2)
    F = ll.build_minimal_factorization(ll.identity_operator(E), ll.SymmetricSeqNorm(2),
                                       ll.SymmetricSeqNorm(math.inf), budget=700, seed=0)
    checks = F.report["norm_checks"]
    assert checks["convexity_ratio_max"] <= 1 + 1e-6
    assert F.report["checks_pass"]
