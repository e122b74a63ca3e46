"""Solid bodies, gauges, polarity between image bodies and decomposition
sets, minimal factorizations, and interpolated bodies."""

import math
from itertools import combinations

import numpy as np
import pytest
from scipy.optimize import linprog

import latticelab as ll
from latticelab._util import canonical_json, hill_climb, lp_norm, rng_for
from latticelab.convexgeom import (
    _GAUGE_WORK,
    _append_raw,
    _best_decomposition,
    _best_grid_decomposition,
    _column_options,
    _d_plan,
    _d_search,
    _decomposition_values,
    _gauge_lp,
    _gauge_stack,
    _option_orbits,
    _probe_scales,
    _prune_generators,
    _sigma_rows,
    _signs,
    _sphere_points,
    _tau_weights,
)
from test_core import PROTOCOL_LATTICES

L1 = ll.SymmetricSeqNorm(1)
L2 = ll.SymmetricSeqNorm(2)
LINF = ll.SymmetricSeqNorm(math.inf)


def lp_lattice(n, p):
    return ll.NormedLattice(n, ll.Lp(p))


# ---------------------------------------------------------------------------
# gauge and support


def test_gauge_single_generator():
    B = ll.SolidConvexBody(((1.0, 1.0),))
    assert ll.gauge(B, [2, 0]) == pytest.approx(2.0, abs=1e-9)
    assert ll.gauge(B, [1, 1]) <= 1 + 1e-9
    assert ll.gauge(B, [0, 0]) == 0.0


def _member_lp(B, y, tol=1e-10):
    """Feasibility LP at fixed scale, run tighter than the default."""
    G = B.gen_matrix
    k = G.shape[0]
    res = linprog(np.zeros(k),
                  A_ub=np.vstack([-G.T, np.ones((1, k))]),
                  b_ub=np.concatenate([-np.abs(np.asarray(y, float)), [1.0]]),
                  bounds=[(0, None)] * k, method="highs",
                  options={"primal_feasibility_tolerance": tol,
                           "dual_feasibility_tolerance": tol})
    return res.status == 0


def test_body_round_trip_and_equivalent_constructions():
    rng = np.random.default_rng(5)
    G = rng.standard_normal((6, 3))
    G[1, 2], G[2] = -0.0, 0.0
    B = ll.SolidConvexBody(G)
    again = ll.SolidConvexBody.from_dict(B.to_dict())
    assert repr(again.generators) == repr(B.generators)  # -0.0 survives
    assert again.gen_matrix.tobytes() == B.gen_matrix.tobytes()
    assert again == B and hash(again) == hash(B)
    with pytest.raises(ValueError):
        B.gen_matrix[0, 0] = 1.0
    A = np.abs(G)
    doc_body = ll.SolidConvexBody.from_dict({"generators": A.tolist()})
    built = (ll.SolidConvexBody(A), ll.SolidConvexBody(tuple(tuple(g) for g in A.tolist())),
             _append_raw(ll.SolidConvexBody(A[:2]), A[2:]), B)
    for y in rng.standard_normal((10, 3)):
        want = ll.gauge(doc_body, y)
        assert all(ll.gauge(b, y) == want for b in built)


@pytest.mark.parametrize("gens, path", [
    ((), "generators"),
    (((1.0,), (1.0, 2.0)), "generators"),
    (np.array([[1.0, 0.0], [0.5, np.inf]]), "generators/1/1"),
    (((1.0, math.nan),), "generators/0/1"),
])
def test_body_constructor_rejects_with_a_pointer(gens, path):
    with pytest.raises(ll.LatticeSchemaError) as e:
        ll.SolidConvexBody(gens)
    assert e.value.path == path


def test_gauge_matches_bisection_membership_oracle():
    B = ll.SolidConvexBody(((1.0, 0.0), (0.0, 1.0)))
    y = np.array([1.0, 1.0])
    assert ll.gauge(B, y) == pytest.approx(2.0, abs=1e-9)
    lo, hi = 0.0, 8.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if _member_lp(B, y / mid):
            hi = mid
        else:
            lo = mid
    assert hi == pytest.approx(ll.gauge(B, y), abs=1e-7)


def test_gauge_infinite_outside_generator_ideal():
    B = ll.SolidConvexBody(((1.0, 0.0),))
    assert ll.gauge(B, [0.0, 1.0]) == math.inf
    assert not ll.body_contains(B, [0.0, 1.0])


def test_gauge_dimension_mismatch():
    B = ll.SolidConvexBody(((1.0, 0.0),))
    with pytest.raises(ValueError):
        ll.gauge(B, [1.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        ll.support_function(B, [1.0, 0.0, 0.0])
    for y in ([1.0, 0.0, 0.0], [1.0]):
        msg = f"vector has dim {len(y)}, body has dim 2"
        with pytest.raises(ValueError, match=msg):
            ll.gauge(B, y)
        with pytest.raises(ValueError, match=msg):
            ll.gauge_norming(B, y)


def _enumerated_gauge(G, a):
    """max <a, z> over the vertices of {z >= 0 : G z <= 1}, the feasible set of
    the dual gauge LP: every d-subset of its k + d constraints is solved as
    equalities, and the feasible solutions are kept."""
    k, d = G.shape
    if np.any((a > 0) & (G.max(axis=0) == 0)):
        return math.inf
    A = np.vstack([G, -np.eye(d)])
    rhs = np.concatenate([np.ones(k), np.zeros(d)])
    idx = np.array(list(combinations(range(k + d), d)))
    M = A[idx]
    scale = np.prod(np.linalg.norm(M, axis=2), axis=1)
    ok = np.abs(np.linalg.det(M)) > 1e-9 * scale
    z = np.linalg.solve(M[ok], rhs[idx[ok]][..., None])[..., 0]
    feasible = np.all(z >= -1e-12, axis=1) & np.all(z @ G.T <= 1 + 1e-12, axis=1)
    return max(float(np.max(z[feasible] @ a)), 0.0)


def _gauge_corpus(count=400, seed=2024):
    """Seeded bodies with d = 1-4 and k = 1-8 generators, with duplicate and
    dominated generators, zero rows and columns, and y equal to a generator."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        d, k = int(rng.integers(1, 5)), int(rng.integers(1, 9))
        G = rng.random((k, d)) * rng.choice([-1.0, 1.0], size=(k, d))
        y = rng.standard_normal(d)
        kind = i % 6
        if kind == 1 and k > 1:      # duplicates and a dominated row
            G[1] = G[0]
            G[-1] = 0.5 * G[0]
        elif kind == 2:              # a zero column that y does not meet
            G[:, -1] = 0.0
            y[-1] = 0.0
        elif kind == 3:              # y is a generator, with random signs
            y = G[int(rng.integers(k))] * rng.choice([-1.0, 1.0], size=d)
        elif kind == 4:              # zero rows and exact zeros in y
            G[rng.random(k) < 0.3] = 0.0
            y[rng.random(d) < 0.3] = 0.0
        elif kind == 5:              # sparse generators: infinite gauges too
            G[rng.random((k, d)) < 0.5] = 0.0
        yield ll.SolidConvexBody(tuple(map(tuple, G))), y


def test_gauge_matches_vertex_enumeration():
    infinite = 0
    for B, y in _gauge_corpus():
        want = _enumerated_gauge(B.gen_matrix, np.abs(y))
        got = ll.gauge(B, y)
        if want == math.inf:
            infinite += 1
            assert got == math.inf
        else:
            assert abs(got - want) <= 1e-12 * want, (B, y, got, want)
    assert infinite > 0


def test_gauge_norming_certifies_value_on_corpus():
    for B, y in _gauge_corpus():
        g = ll.gauge(B, y)
        if g == math.inf:
            with pytest.raises(ValueError, match="gauge is infinite"):
                ll.gauge_norming(B, y)
            continue
        b = ll.gauge_norming(B, y)
        assert abs(float(np.dot(y, b)) - g) <= 1e-12 * g
        assert ll.support_function(B, b) <= 1 + 1e-12


def _simplex_gauges(B, Y):
    """The row-wise gauges of Y by the dense simplex alone."""
    out = []
    for a in np.abs(np.asarray(Y, dtype=float)):
        z = _gauge_lp(B.gen_matrix, a)
        out.append(math.inf if z is None else float(a @ z))
    return np.array(out)


def _assert_rows_match(got, want):
    assert got.shape == want.shape
    for g, w in zip(got, want):
        if w == math.inf:
            assert g == math.inf
        else:
            assert abs(g - w) <= 1e-12 * w, (g, w)


def test_gauge_rows_match_the_simplex_on_the_corpus():
    for B, y in _gauge_corpus():
        _assert_rows_match(ll.gauge_rows(B, [y, -y, 2 * y]), _simplex_gauges(B, [y, -y, 2 * y]))


@pytest.mark.parametrize("d", [2, 3, 4])
def test_gauge_rows_match_the_simplex_on_random_bodies(d):
    rng = np.random.default_rng(100 + d)
    vertex_rows = 0
    for _ in range(12):
        B = ll.SolidConvexBody(rng.random((int(rng.integers(3, 60)), d)) + 1e-3)
        Y = rng.standard_normal((40, d)) * rng.choice([0.0, 1.0], p=[0.1, 0.9], size=(40, d))
        Y = np.vstack([Y, B.gen_matrix])
        values, _, (vertex, simplex, built) = _gauge_stack(B, np.abs(Y))
        _assert_rows_match(values, _simplex_gauges(B, Y))
        _assert_rows_match(ll.gauge_rows(B, Y), values)
        assert B.polar_vertices is not None and built == 1
        assert vertex + simplex == len(Y)
        vertex_rows += vertex
    assert vertex_rows >= 0.95 * 12 * 40


@pytest.mark.parametrize("gens", [
    ((1.0, 0.5), (1.0, 0.5), (0.2, 1.0), (0.2, 1.0), (0.7, 0.7), (0.35, 0.35)),
    ((1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (0.5, 0.5)),
    ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0), (1.0, 1.0, 0.0), (1.0, 1.0, 1.0),
     (0.5, 0.5, 0.5), (1.0, 1.0, 1.0)),
    np.round(np.random.default_rng(0).random((40, 4)) * 4) / 4 + 0.25,
])
def test_gauge_rows_on_degenerate_polars(gens):
    """Duplicate generators, and polars where more than d facets meet at a
    vertex (on the grid body, qhull's triangulation gives some of them
    singular bases): the argmax basis may fail the certificate, never the
    value."""
    B = ll.SolidConvexBody(gens)
    assert B.polar_vertices is not None
    rng = np.random.default_rng(31)
    Y = np.vstack([rng.standard_normal((60, B.dim)), np.eye(B.dim), np.ones(B.dim), B.gen_matrix])
    got = ll.gauge_rows(B, Y)
    _assert_rows_match(got, _simplex_gauges(B, Y))
    if len(B.gen_matrix) <= 8:
        for a, g in zip(np.abs(Y), got):
            assert abs(g - _enumerated_gauge(B.gen_matrix, a)) <= 1e-12 * g


def test_gauge_rows_without_a_vertex_set_take_the_simplex():
    rng = np.random.default_rng(41)
    for d in (1, 5):
        B = ll.SolidConvexBody(rng.random((7, d)) + 0.1)
        Y = rng.standard_normal((9, d))
        values, _, work = _gauge_stack(B, np.abs(Y))
        assert B.polar_vertices is None and work == (0, 9, 0)
        _assert_rows_match(values, _simplex_gauges(B, Y))
    B = ll.SolidConvexBody(((1.0, 0.0, 0.5), (0.5, 0.0, 1.0)))   # a zero column
    assert B.polar_vertices is None
    got = ll.gauge_rows(B, [[1.0, 0.0, 0.5], [0.0, 1e-9, 0.0], [1.0, 2.0, 0.0]])
    assert got[0] == pytest.approx(1.0, rel=1e-12) and got[1] == got[2] == math.inf


def test_gauge_rows_of_a_zero_row_is_zero():
    B = ll.SolidConvexBody(((1.0, 0.5, 0.2), (0.2, 1.0, 0.7), (0.3, 0.3, 1.0)))
    assert B.polar_vertices is not None
    got = ll.gauge_rows(B, [[0.0, 0.0, 0.0], [-0.0, 0.0, 0.0], [0.3, -0.4, 0.5]])
    assert got[0] == got[1] == 0.0 and got[2] > 0
    assert ll.gauge(B, [0.0, 0.0, 0.0]) == 0.0
    assert np.array_equal(ll.gauge_norming(B, [0.0, 0.0, 0.0]), np.zeros(3))


def test_gauge_rows_reject_a_bad_stack():
    B = ll.SolidConvexBody(((1.0, 0.5), (0.2, 1.0)))
    for bad in ([1.0, 2.0], [[1.0, 2.0, 3.0]], [[1.0, math.nan]]):
        with pytest.raises(ValueError):
            ll.gauge_rows(B, bad)


def test_a_missing_optimal_vertex_falls_back_to_the_simplex():
    """Without its optimal vertex the argmax is another vertex: the
    certificate must reject it, and the row comes back from the simplex."""
    rng = np.random.default_rng(51)
    for d in (2, 3, 4):
        G = rng.random((30, d)) + 0.05
        a = rng.random(d) + 0.1
        P = ll.SolidConvexBody(G).polar_vertices
        reach = P.z @ a
        keep = reach < reach.max() * (1 - 1e-9)
        B = ll.SolidConvexBody(G)
        B.__dict__["polar_vertices"] = type(P)(*(f[keep] for f in P))
        values, Z, work = _gauge_stack(B, a[None])
        assert work == (0, 1, 0)
        assert values[0] == pytest.approx(reach.max(), rel=1e-12)
        assert values[0] == pytest.approx(_simplex_gauges(B, [a])[0], rel=1e-12)
        assert (G @ Z[0]).max() <= 1 + 1e-12


def _acc8_families(seed, count=30):
    """Bodies and families shaped like acceptance 08: a C body of an l_2
    operator and signed, tau-weighted generator families on it."""
    rng = np.random.default_rng(seed)
    n, m = int(rng.integers(2, 5)), int(rng.integers(2, 5))
    tau, sigma = ll.SymmetricSeqNorm(float(rng.choice([1.5, 2.0, 3.0]))), \
        ll.SymmetricSeqNorm(float(rng.choice([1.5, 2.0, math.inf])))
    T = ll.LinOperator(rng.standard_normal((m, n)), lp_lattice(n, 2.0), lp_lattice(m, 2.0))
    body = ll.build_C_body(T, tau, sigma, budget=400, seed=seed)
    gens = body.gen_matrix
    fams = []
    for _ in range(count):
        k = int(rng.integers(1, 5))
        c = _tau_weights(tau, k, rng)
        picks = rng.integers(0, len(gens), size=k)
        fams.append(rng.choice([-1.0, 1.0], size=(k, m)) * c[:, None] * gens[picks])
    return body, tau, sigma, fams


def test_probe_scales_match_gauging_every_member_on_the_trial_body():
    probed = skips = solves = 0
    for seed in range(5):
        body, tau, sigma, fams = _acc8_families(seed)
        G = body.gen_matrix
        for fam in fams:
            sv = ll.sigma_apply(sigma, fam)
            values, Z, _ = _gauge_stack(body, np.abs(np.vstack([fam, sv])))
            den = tau(values[:-1])
            if den <= 1e-12 or values[-1] / den <= 1 + 1e-9:
                continue
            A, g = np.abs(fam), np.abs(sv)
            ts, skipped, solved = _probe_scales(G, A, values[:-1], Z[:-1], g, den, tau)
            want, t = [], den
            for _ in range(60):
                trial = np.vstack([G, g / t])
                t_next = tau([a @ _gauge_lp(trial, a) for a in A])
                stalled = t_next >= t * (1 - 1e-10)
                t = t_next
                want.append(t)
                if stalled:
                    break
            assert len(ts) == len(want)
            assert np.all(np.abs(np.array(ts) - want) <= 1e-12 * np.array(want)), (ts, want)
            assert skipped + solved == len(ts) * len(A)
            probed += 1
            skips += skipped
            solves += solved
    assert probed >= 20 and skips > 0 and solves > 0


def test_generators_of_minimal_factorization_bodies_have_gauge_at_most_one():
    rng = np.random.default_rng(7)
    X = lp_lattice(2, 2)
    for i in range(12):
        T = ll.LinOperator(rng.standard_normal((2, 2)), X, X)
        F = ll.build_minimal_factorization(T, L2, L2, budget=60, seed=i, check_families=10)
        body = F.Y.norm.body
        assert max(ll.gauge(body, g) for g in body.gen_matrix) <= 1 + 1e-12


def test_minimal_factorization_reports_how_the_repair_loop_ended():
    rng = np.random.default_rng(7)
    X = lp_lattice(2, 2)
    for i in range(4):
        T = ll.LinOperator(rng.standard_normal((2, 2)), X, X)
        reports = [ll.build_minimal_factorization(T, L2, L2, budget=60, seed=i,
                                                  check_families=10).report for _ in range(2)]
        repair = reports[0]["repair"]
        assert set(repair) == {"rounds", "exit"}
        assert repair["exit"] in ("converged", "stalled", "budget")
        assert isinstance(repair["rounds"], int) and 1 <= repair["rounds"] <= 40
        if repair["exit"] == "budget":
            assert repair["rounds"] == 40
        if repair["exit"] == "stalled":
            assert repair["rounds"] >= 3
        if repair["exit"] == "converged":
            assert reports[0]["norm_checks"]["convexity_ratio_max"] <= 1 + 1e-6
        assert canonical_json(reports[0]) == canonical_json(reports[1])


def test_minimal_factorization_reports_its_gauge_work(monkeypatch):
    """The report's gauge block counts the rows each path served; its
    simplex rows are every _gauge_lp call the build made."""
    import latticelab.convexgeom as cg

    calls = []

    def counted(G, a):
        calls.append(len(G))
        return _gauge_lp(G, a)

    monkeypatch.setattr(cg, "_gauge_lp", counted)
    rng = np.random.default_rng(9)
    X3 = lp_lattice(3, 2)
    for i in range(3):
        T = ll.LinOperator(rng.standard_normal((3, 3)), X3, X3)
        calls.clear()
        reports = [ll.build_minimal_factorization(T, ll.SymmetricSeqNorm(1.5), ll.SymmetricSeqNorm(1.5),
                                                  budget=100, seed=i, check_families=20).report
                   for _ in range(2)]
        work = reports[0]["gauge"]
        assert tuple(sorted(work)) == tuple(sorted(_GAUGE_WORK))
        assert all(isinstance(n, int) and n >= 0 for n in work.values())
        assert work["vertex_rows"] > 0 and work["vertex_sets"] >= 1
        assert 2 * work["simplex_rows"] == len(calls)
        assert canonical_json(reports[0]) == canonical_json(reports[1])


def test_gauge_is_a_lattice_norm_on_samples():
    rng = np.random.default_rng(8)
    B = ll.SolidConvexBody(tuple(map(tuple, rng.random((5, 3)) + 0.05)))
    for _ in range(1000):
        y = rng.standard_normal(3)
        z = rng.standard_normal(3)
        gy, gz = ll.gauge(B, y), ll.gauge(B, z)
        c = float(rng.uniform(0.1, 5))
        assert ll.gauge(B, c * y) == pytest.approx(c * gy, rel=1e-9, abs=1e-9)
        assert ll.gauge(B, y + z) <= gy + gz + 1e-9
        # solidity: shrinking the modulus shrinks the gauge
        shrink = y * rng.uniform(0, 1, size=3)
        assert ll.gauge(B, shrink) <= gy + 1e-9


def test_gauge_norming_certifies_value():
    rng = np.random.default_rng(21)
    for _ in range(25):
        B = ll.SolidConvexBody(tuple(map(tuple, rng.random((4, 3)) + 0.1)))
        y = rng.standard_normal(3)
        gv = ll.gauge(B, y)
        b = ll.gauge_norming(B, y)
        assert float(np.dot(y, b)) == pytest.approx(gv, rel=1e-8, abs=1e-8)
        assert ll.support_function(B, b) <= 1 + 1e-8


def test_support_function_examples():
    B = ll.SolidConvexBody(((1.0, 1.0),))
    assert ll.support_function(B, [1, -2]) == pytest.approx(3.0, abs=1e-12)
    assert ll.support_function(B, [0, 0]) == 0.0
    val, wit = ll.support_function_witness(B, [1, -2])
    assert float(np.dot(wit, [1, -2])) == pytest.approx(val, abs=1e-12)
    assert ll.gauge(B, wit) <= 1 + 1e-9


def test_support_dominates_sampled_body_points():
    rng = np.random.default_rng(5)
    B = ll.SolidConvexBody(tuple(map(tuple, rng.random((4, 3)))))
    G = B.gen_matrix
    for _ in range(5):
        b = rng.standard_normal(3)
        sup = ll.support_function(B, b)
        best = 0.0
        for _ in range(10000 // 5):
            lam = rng.dirichlet(np.ones(4)) * rng.random()
            point = lam @ G * np.sign(b)
            best = max(best, float(point @ b))
        assert sup >= best - 1e-12


def test_generators_sit_inside_the_double_polar():
    rng = np.random.default_rng(13)
    B = ll.SolidConvexBody(tuple(map(tuple, rng.random((5, 3)) + 0.1)))
    polar_samples = []
    for _ in range(40):
        b = rng.standard_normal(3)
        s = ll.support_function(B, b)
        if s > 1e-9:
            polar_samples.append(b / s)
    for g in B.gen_matrix:
        for b in polar_samples:
            assert float(np.abs(g) @ np.abs(b)) >= float(g @ b) - 1e-12
            assert ll.support_function(B, b) <= 1 + 1e-9


# ---------------------------------------------------------------------------
# C bodies


def test_c_body_one_dimensional_identity():
    E = lp_lattice(1, 2)
    body = ll.build_C_body(ll.identity_operator(E), L2, LINF, budget=300, seed=0)
    assert body.generators == ((1.0,),)
    assert ll.gauge(body, [0.5]) == pytest.approx(0.5, abs=1e-12)
    assert ll.gauge(body, [-1.2]) == pytest.approx(1.2, abs=1e-12)


def test_c_body_contains_image_of_unit_ball():
    E = lp_lattice(2, 2)
    T = ll.identity_operator(E)
    body = ll.build_C_body(T, L2, L2, budget=2000, seed=1)
    # the builder's own sphere discretization is inside exactly
    for x in _sphere_points(E, 2000, 1):
        assert ll.gauge(body, T.apply(x)) <= 1 + 1e-9
    # fresh directions pay only the discretization gap
    rng = np.random.default_rng(77)
    for _ in range(200):
        x = rng.standard_normal(2)
        x /= np.linalg.norm(x)
        assert ll.gauge(body, T.apply(x)) <= 1 + 5e-3


def test_c_body_generators_within_convexity_constant():
    E = lp_lattice(2, 2)
    T = ll.identity_operator(E)
    body = ll.build_C_body(T, L2, L2, budget=1000, seed=2)
    # K = 1 for the identity with tau = sigma = l_2
    for g in body.gen_matrix:
        assert ll.gauge(body, g) >= ll.eval_norm(E, g) - 1e-9


def _prune_generators_loop(gens, cap=1000, by_kept=True):
    """The pairwise dominance loop that _prune_generators replaces.  With
    by_kept=False, the shortcut that drops a row covered by any earlier row,
    kept or not, which differs because cover within 1e-12 is not transitive."""
    gens = np.abs(gens)
    keep = gens[np.any(gens > 0, axis=1)]
    if keep.size == 0:
        return np.zeros((1, gens.shape[1]))
    keep = np.unique(np.round(keep, 12), axis=0)
    keep = keep[np.argsort(-keep.sum(axis=1))]
    out = []
    for i, row in enumerate(keep):
        if not any(np.all(row <= prev + 1e-12) for prev in (out if by_kept else keep[:i])):
            out.append(row)
        if len(out) >= cap:
            break
    return np.array(out)


def _near_ties(rng, k, d):
    """k rows of one base row in [0.5, 1]^d plus integer multiples of 1e-12."""
    return rng.uniform(0.5, 1.0, d) + rng.integers(-3, 4, size=(k, d)) * 1e-12


def test_prune_generators_matches_pairwise_loop():
    rng = np.random.default_rng(31)
    corpus = []
    for i in range(200):
        k, d = int(rng.integers(1, 40)), int(rng.integers(1, 5))
        gens = rng.standard_normal((k, d))
        if i % 4 == 1:    # duplicates, and ties up to 1e-13
            gens = np.vstack([gens, gens[: k // 2], gens[: k // 3] + 1e-13])
        elif i % 4 == 2:  # zero rows and rows on a coarse grid (sum ties)
            gens = np.round(gens * 2) / 2
            gens[rng.random(k) < 0.3] = 0.0
        elif i % 4 == 3:
            gens = np.zeros((k, d))
        corpus.append((gens, int(rng.integers(1, 8)) if i % 5 == 0 else 1000))
    near_ties = [_near_ties(rng, int(rng.integers(2, 40)), i % 4 + 1) for i in range(200)]
    corpus += [(gens, 1000) for gens in near_ties]
    for d in range(1, 5):
        # past one 256-row block: few survivors, with a near-tie cluster among them
        k = int(rng.integers(300, 700))
        corpus.append((np.vstack([rng.standard_normal((k, d)), _near_ties(rng, 40, d)]), 1000))
    for d in range(2, 5):
        # every row survives, so the cap binds inside the second block
        gens = np.abs(rng.standard_normal((int(rng.integers(300, 450)), d)))
        corpus.append((gens / np.linalg.norm(gens, axis=1, keepdims=True), int(rng.integers(257, 300))))
    for gens, cap in corpus:
        got, want = _prune_generators(gens, cap), _prune_generators_loop(gens, cap)
        assert got.shape == want.shape and np.array_equal(got, want)
    assert len(got) == cap    # the last input is cut by its cap
    # the corpus tells the rule from the transitive shortcut
    assert any(_prune_generators_loop(gens).shape != _prune_generators_loop(gens, by_kept=False).shape
               for gens in near_ties)


@pytest.mark.parametrize("p", [1, 1.5, 2, 3, math.inf])
def test_sigma_rows_match_sigma_apply_per_family(p, monkeypatch):
    """One padded lp_norm call equals sigma_apply on each family bit for bit,
    also where lp_norm rescales: rows at 2^+-600 and 2^+-700 share the stack."""
    import latticelab._util as util

    sigma = ll.SymmetricSeqNorm(p)
    rng = np.random.default_rng(7)
    scales = (1.0, 2.0 ** 600, 2.0 ** -600, 2.0 ** 700, 2.0 ** -700)
    fams = []
    for i in range(400):
        fam = rng.standard_normal((int(rng.integers(1, 5)), 3)) * scales[i % 5]
        fam[rng.random(fam.shape) < 0.2] = 0.0
        fams.append(fam)
    want = np.array([ll.sigma_apply(sigma, list(fam)) for fam in fams])
    rescale, calls = util._rescaled, []
    monkeypatch.setattr(util, "_rescaled", lambda *args: calls.append(1) or rescale(*args))
    assert np.array_equal(_sigma_rows(sigma, fams), want)
    assert bool(calls) == (1 < p < math.inf)


# ---------------------------------------------------------------------------
# D-set search


@pytest.mark.parametrize("q", [1.5, 2, 3])
def test_d_search_one_dim_identity(q):
    X = lp_lattice(1, 1)
    res = ll.search_D_violation(ll.identity_operator(X), [1.0],
                                ll.SymmetricSeqNorm(q), L1, budget=600, seed=0)
    assert res["rho_lower"] == pytest.approx(1.0, abs=1e-9)
    assert res["in_D"]


def test_d_search_zero_vector():
    X = lp_lattice(2, 2)
    res = ll.search_D_violation(ll.identity_operator(X), [0.0, 0.0], L2, L2,
                                budget=100, seed=0)
    assert res == {"in_D": True, "witness": None, "rho_lower": 0.0}


def test_d_search_scaling_exact():
    X = lp_lattice(2, 2)
    T = ll.LinOperator(np.array([[2.0, 1.0], [0.0, 1.0]]), X, lp_lattice(2, 3))
    u = np.array([0.7, -1.3])
    r1 = ll.search_D_violation(T, u, L2, L2, budget=600, seed=3)["rho_lower"]
    r2 = ll.search_D_violation(T, 3.5 * u, L2, L2, budget=600, seed=3)["rho_lower"]
    assert r2 == pytest.approx(3.5 * r1, rel=1e-9)
    # verify_polarity's direction (b) rescales one search instead of running a
    # second one at u* = u (1 + 1e-3) / rho(u): the rescaled result must be the
    # fresh search's, for tau != sigma, sigma = inf and n = 3 too
    rng = np.random.default_rng(29)
    for n, tau, sigma in ((2, L2, L2), (2, ll.SymmetricSeqNorm(1.5), ll.SymmetricSeqNorm(3.0)),
                          (2, L2, LINF), (3, ll.SymmetricSeqNorm(3.0), LINF),
                          (3, ll.SymmetricSeqNorm(1.5), ll.SymmetricSeqNorm(2.5))):
        A = ll.LinOperator(rng.standard_normal((n, n)), lp_lattice(n, 2), lp_lattice(n, 1.5))
        u = rng.standard_normal(n)
        rho, parts = _d_search(A, u, tau, _d_plan(n, tau, sigma, 600, 3))
        scale = (1.0 + 1e-3) / rho
        fresh = ll.search_D_violation(A, u * scale, tau, sigma, budget=600, seed=3)
        assert fresh["rho_lower"] == pytest.approx(rho * scale, rel=1e-9)
        assert np.allclose(np.array(fresh["witness"]), parts * scale,
                           rtol=1e-9, atol=1e-9 * np.abs(u * scale).max())


def test_signs_follow_the_bit_order():
    assert _signs(2).tolist() == [[-1, -1], [1, -1], [-1, 1], [1, 1]]


def _decomposition_values_loop(T, u, tau, C):
    """tau of the codomain norms, one scalar eval_norm per part."""
    vals = []
    for c in C:
        parts = c * u
        norms = [ll.eval_norm(T.codomain, T.apply(p)) for p in parts]
        vals.append(tau(norms))
    return np.array(vals)


def test_best_decomposition_matches_scalar_loop():
    rng = np.random.default_rng(17)
    for trial in range(60):
        n, m, d = (int(k) for k in rng.integers(1, (4, 5, 4)))
        p = (1.5, 2.0, 3.0, math.inf)[trial % 4]
        tau = ll.SymmetricSeqNorm((1.0, 1.5, 2.0, math.inf)[(trial // 4) % 4])
        T = ll.LinOperator(rng.standard_normal((d, n)), lp_lattice(n, 2), lp_lattice(d, p))
        u = rng.standard_normal(n)
        stacks = [rng.standard_normal((int(rng.integers(1, 9)), m, n))]
        if m * n <= 8:
            stacks.append(_signs(m * n).reshape(-1, m, n))
        for C in stacks:
            want = _decomposition_values_loop(T, u, tau, C)
            val, parts = _best_decomposition(T, u, tau, C)
            assert abs(val - want.max()) <= 4 * np.spacing(want.max())
            k = next(k for k in range(len(C)) if np.array_equal(parts, C[k] * u))
            assert abs(want[k] - want.max()) <= 4 * np.spacing(want.max())


def test_grid_decomposition_matches_gathered_stack():
    # the broadcast two-part grid against _best_decomposition on the gathered
    # (K^n, 2, n) multiplier stack it replaced
    rng = np.random.default_rng(41)
    for trial in range(72):
        n, d = 1 + trial % 3, 1 + (trial // 3) % 3
        p = (1.5, 2.0, 3.0, math.inf)[trial % 4]
        tau = ll.SymmetricSeqNorm((1.0, 1.5, 2.0, math.inf)[(trial // 4) % 4])
        sigma_p = (1.5, 2.0, math.inf)[(trial // 2) % 3]
        T = ll.LinOperator(rng.standard_normal((d, n)), lp_lattice(n, 2), lp_lattice(d, p))
        u = rng.standard_normal(n)
        if trial % 5 == 0:
            u[0] = 0.0
        opts = np.array(_column_options(sigma_p, 9))
        idx = np.indices((len(opts),) * n).reshape(n, -1).T
        want, _ = _best_decomposition(T, u, tau, opts[idx].transpose(0, 2, 1))
        val, parts = _best_grid_decomposition(T, u, tau, opts, _option_orbits(opts))
        assert parts.shape == (2, n)
        assert abs(val - want) <= 4 * np.spacing(want)
        rescored = _decomposition_values_loop(T, np.ones(n), tau, parts[None])[0]
        assert abs(rescored - val) <= 4 * np.spacing(val)
        ratio = np.divide(np.abs(parts), np.abs(u), out=np.zeros_like(parts), where=u != 0)
        assert np.all(np.abs(parts[:, u == 0]) == 0)
        assert np.all(lp_norm(ratio, sigma_p, axis=0) <= 1 + 1e-12)


def _full_grid_decomposition(T, u, tau, opts, orbits=None):
    """The split grid as it was before the orbit quotient: every one of the
    K^n rows scored, the first maximizer taken by np.argmax; ``orbits`` is
    unused."""
    K, n = len(opts), u.shape[0]
    images = np.zeros((1, 2, T.codomain.dim))
    for j in range(n):
        col = (opts * u[j])[:, :, None] * T.matrix[:, j]
        images = (images[:, None] + col[None]).reshape(-1, 2, T.codomain.dim)
    vals = _decomposition_values(T, tau, images)
    k = int(np.argmax(vals))
    pick = np.unravel_index(k, (K,) * n)
    return float(vals[k]), opts[list(pick)].T * u


@pytest.mark.parametrize("name", list(PROTOCOL_LATTICES))
def test_grid_quotient_is_bit_identical_to_the_full_grid(name):
    # every codomain kind, n = 1..3, every tau/sigma pair, and u with random,
    # zero and equal entries (the last two make ties across orbits).  The
    # predual of the Example 5.4 norm evaluates row by row and is too slow for
    # the 32^3-row reference, so at n = 3 it runs every seventh pair on the
    # 20-option grid of 5 points
    X = PROTOCOL_LATTICES[name]
    rowwise = isinstance(X.norm, ll.PredualOf) and isinstance(X.norm.inner, ll.Example54Dual)
    rng = np.random.default_rng(53)
    pairs = [(t, s) for t in (1.0, 1.5, 2.0, math.inf) for s in (1.0, 1.5, 2.0, 3.0, math.inf)]
    for n in (1, 2, 3):
        for i, (tau_p, sigma_p) in enumerate(pairs):
            if n == 3 and rowwise and i % 7:
                continue
            T = ll.LinOperator(rng.standard_normal((X.dim, n)), lp_lattice(n, 2), X)
            tau = ll.SymmetricSeqNorm(tau_p)
            opts = np.array(_column_options(sigma_p, 5 if n == 3 and rowwise else 9))
            u = rng.standard_normal(n)
            if i % 3 == 1:
                u[i % n] = 0.0
            elif i % 3 == 2:
                u[:] = -0.7
            want_val, want_parts = _full_grid_decomposition(T, u, tau, opts)
            val, parts = _best_grid_decomposition(T, u, tau, opts, _option_orbits(opts))
            assert val == want_val
            assert np.array_equal(parts, want_parts)
            assert np.array_equal(np.signbit(parts), np.signbit(want_parts))


@pytest.mark.filterwarnings("ignore:invalid value", "ignore:overflow encountered")
def test_grid_quotient_keeps_the_first_nan_row():
    # images past the float range sum inf and -inf to nan; np.argmax picks the
    # first nan row of the full grid, and so must the quotient
    T = ll.LinOperator(np.array([[10.0, -10.0]]), lp_lattice(2, 2), lp_lattice(1, 2))
    u = np.array([1e308, 1e308])
    opts = np.array(_column_options(2.0, 9))
    want_val, want_parts = _full_grid_decomposition(T, u, L2, opts)
    val, parts = _best_grid_decomposition(T, u, L2, opts, _option_orbits(opts))
    assert math.isnan(want_val) and math.isnan(val)
    assert np.array_equal(parts, want_parts)
    assert np.array_equal(np.signbit(parts), np.signbit(want_parts))


@pytest.mark.parametrize("sigma_p", [1.0, 1.1, 1.5, 2.0, 3.0, 7.5, math.inf])
def test_option_orbits_close_and_representatives_meet_every_orbit(sigma_p):
    opts = np.array(_column_options(sigma_p, 9))
    K = len(opts)
    perms, reps = _option_orbits(opts)
    assert perms.shape == (8, K)
    assert np.array_equal(perms[0], np.arange(K))
    # each row permutes the option list, and the rows are the sign flips of
    # either part with and without the swap (== ignores the sign of zero, as
    # the dict lookups do)
    assert all(sorted(g) == list(range(K)) for g in perms)
    for s1 in (1.0, -1.0):
        for s2 in (1.0, -1.0):
            flipped = np.column_stack([s1 * opts[:, 0], s2 * opts[:, 1]])
            for want in (flipped, flipped[:, ::-1]):
                assert any(np.array_equal(opts[g], want) for g in perms)
    assert np.all((opts[reps, 0] >= 0) & (opts[reps, 0] <= opts[reps, 1]))
    assert len(reps) == (1 if sigma_p == math.inf else 5)
    assert all(np.isin(perms[:, k], reps).any() for k in range(K))


@pytest.mark.parametrize("tau_p,sigma_p", [(2.0, 2.0), (1.5, 1.0), (2.0, math.inf), (1.0, 3.0)])
def test_polarity_reports_match_the_full_grid(monkeypatch, tau_p, sigma_p):
    import latticelab.convexgeom as cg

    T = ll.LinOperator(np.random.default_rng(61).standard_normal((3, 3)),
                       lp_lattice(3, 2), lp_lattice(3, 2))
    tau, sigma = ll.SymmetricSeqNorm(tau_p), ll.SymmetricSeqNorm(sigma_p)
    rep = ll.verify_polarity(T, tau, sigma, sample_count=2000, seed=4)
    monkeypatch.setattr(cg, "_best_grid_decomposition", _full_grid_decomposition)
    want = ll.verify_polarity(T, tau, sigma, sample_count=2000, seed=4)
    assert canonical_json(rep) == canonical_json(want)


def _d_search_per_call(T, u, tau, sigma, budget, seed):
    """The D search as it was before plans: its generator, options and orbit
    tables built per call, and the polish one hill_climb proposal at a time."""
    n = u.shape[0]
    if not np.any(u != 0):
        return 0.0, None
    rng = rng_for(seed, "dsearch", n, tau.p, sigma.p)
    best, best_parts = 0.0, None

    def consider(val, parts):
        nonlocal best, best_parts
        if val > best:
            best, best_parts = val, parts

    rows = np.ones((1, n)) if n > 10 else np.vstack([np.ones(n), _signs(n)])
    consider(*_best_decomposition(T, u, tau, rows[:, None, :]))
    if n <= 3:
        opts = np.array(_column_options(sigma.p, 9))
        consider(*_best_grid_decomposition(T, u, tau, opts, _option_orbits(opts)))
        if sigma.p == math.inf:
            for m in (2, 3, 4):
                if 2 ** (m * n) <= 5000:
                    consider(*_best_decomposition(T, u, tau, _signs(m * n).reshape(-1, m, n)))
    supp = u != 0
    ms = rng.integers(1, 5, size=max(16, budget // 8))
    for m in range(1, 5):
        count = int(np.count_nonzero(ms == m))
        if count == 0:
            continue
        c = rng.standard_normal((count, m, n)) * supp
        colnorm = lp_norm(c, sigma.p, axis=1) if m > 1 else np.abs(c[:, 0])
        scale = np.where(colnorm > 0, 1.0 / np.maximum(colnorm, 1e-300), 0.0) * supp
        consider(*_best_decomposition(T, u, tau, c * scale[:, None, :]))
    if best_parts is not None and len(best_parts) > 1:
        c0 = np.divide(best_parts, u, out=np.zeros_like(best_parts), where=supp)

        def project(c):
            return c / np.maximum(lp_norm(c, sigma.p, axis=0), 1.0) * supp

        c, val = hill_climb(lambda c: _best_decomposition(T, u, tau, c[None])[0],
                            c0, rng, min(150, budget // 10), project)
        consider(val, c * u)
    return best, best_parts


def _same_search(got, want):
    (val, parts), (want_val, want_parts) = got, want
    assert val == want_val and type(val) is type(want_val)
    assert (parts is None) == (want_parts is None)
    if parts is not None:
        assert np.array_equal(parts, want_parts)
        assert np.array_equal(np.signbit(parts), np.signbit(want_parts))


@pytest.mark.parametrize("name", list(PROTOCOL_LATTICES))
def test_planned_d_search_replays_the_per_call_search(name):
    # every codomain kind, n = 1..4, every tau/sigma pair, budgets 400 and
    # 2000 (polishes of 40 and 150 proposals), and u with random, zero and
    # equal entries.  The predual of the Example 5.4 norm evaluates row by row
    # and is slow, so it runs every other pair (all taus and sigmas still
    # occur), and n = 3 on two of them
    X = PROTOCOL_LATTICES[name]
    rowwise = isinstance(X.norm, ll.PredualOf) and isinstance(X.norm.inner, ll.Example54Dual)
    rng = np.random.default_rng(71)
    pairs = [(t, s) for t in (1.0, 1.5, 2.0, math.inf) for s in (1.0, 1.5, 2.0, 3.0, math.inf)]
    polished = 0
    for i, (tau_p, sigma_p) in enumerate(pairs):
        for n in (1, 2, 3, 4):
            if rowwise and (i % 2 or n == 3 and i % 7 != 4):
                continue
            tau, sigma = ll.SymmetricSeqNorm(tau_p), ll.SymmetricSeqNorm(sigma_p)
            budget, seed = (400, 2000)[(i + n) % 2], i
            T = ll.LinOperator(rng.standard_normal((X.dim, n)), lp_lattice(n, 2), X)
            u = rng.standard_normal(n)
            if (i + n) % 3 == 1:
                u[i % n] = 0.0
            elif (i + n) % 3 == 2:
                u[:] = -0.7
            want = _d_search_per_call(T, u, tau, sigma, budget, seed)
            _same_search(_d_search(T, u, tau, _d_plan(n, tau, sigma, budget, seed)), want)
            polished += want[1] is not None and len(want[1]) > 1
    assert polished > 0


def test_polarity_report_matches_the_per_call_search(monkeypatch):
    import latticelab.convexgeom as cg

    T = ll.LinOperator(np.array([[1.0, 0.5, -0.2], [-0.3, 2.0, 0.4], [0.6, 0.1, 1.2]]),
                       lp_lattice(3, 1.5), lp_lattice(3, 3))
    tau, sigma = ll.SymmetricSeqNorm(2.0), ll.SymmetricSeqNorm(1.5)
    rep = ll.verify_polarity(T, tau, sigma, sample_count=2000, seed=5)
    tau_d, sigma_d = ll.sigma_dual(tau), ll.sigma_dual(sigma)
    monkeypatch.setattr(cg, "_d_search", lambda A, u, t, plan: _d_search_per_call(
        A, u, tau_d, sigma_d, 400, 5))
    want = ll.verify_polarity(T, tau, sigma, sample_count=2000, seed=5)
    assert rep["d_searches"] > 12
    assert canonical_json(rep) == canonical_json(want)


def test_random_stage_witnesses_are_admissible():
    # n >= 4 has no split grid, so the random decompositions (one stacked draw
    # per part count) and the polish decide
    rng = np.random.default_rng(43)
    for trial in range(12):
        n, d = 4 + trial % 3, int(rng.integers(2, 5))
        p = (1.5, 2.0, 3.0, math.inf)[trial % 4]
        tau = ll.SymmetricSeqNorm((1.0, 1.5, 2.0, math.inf)[(trial // 3) % 4])
        sigma = ll.SymmetricSeqNorm((1.5, 2.0, math.inf)[trial % 3])
        T = ll.LinOperator(rng.standard_normal((d, n)), lp_lattice(n, 2), lp_lattice(d, p))
        u = 10 * rng.standard_normal(n)
        res = ll.search_D_violation(T, u, tau, sigma, budget=400, seed=trial)
        assert not res["in_D"]
        parts = np.array(res["witness"])
        assert np.all(ll.sigma_apply(sigma, list(parts)) <= np.abs(u) * (1 + 1e-12))
        norms = [ll.eval_norm(T.codomain, T.apply(part)) for part in parts]
        assert tau(norms) == pytest.approx(res["rho_lower"], rel=1e-12)
        again = ll.search_D_violation(T, u, tau, sigma, budget=400, seed=trial)
        assert canonical_json(again) == canonical_json(res)


def test_d_search_finds_violations_and_witness_is_valid():
    # tau = l_1 with sigma = l_inf lets copies of u stack norms
    X = lp_lattice(1, 1)
    T = ll.identity_operator(X)
    res = ll.search_D_violation(T, [1.0], L1, LINF, budget=400, seed=0)
    assert not res["in_D"]
    assert res["rho_lower"] >= 2.0
    parts = [np.asarray(p) for p in res["witness"]]
    combined = ll.sigma_apply(LINF, parts)
    assert np.all(combined <= np.abs([1.0]) + 1e-9)
    recomputed = L1([ll.eval_norm(X, p) for p in parts])
    assert recomputed == pytest.approx(res["rho_lower"], rel=1e-12)


# ---------------------------------------------------------------------------
# polarity


def test_polarity_one_dim_identity():
    rep = ll.verify_polarity(ll.identity_operator(lp_lattice(1, 2)), L2, L2,
                             sample_count=2000, seed=0)
    assert rep["pass"]
    assert not rep["degenerate_zero_operator"]
    assert rep["direction_a"]["violations"] == []
    assert rep["direction_b"]["violations"] == []


def test_polarity_diag_21():
    E = lp_lattice(2, 2)
    T = ll.LinOperator(np.diag([2.0, 1.0]), E, E)
    rep = ll.verify_polarity(T, L2, L2, sample_count=10000, seed=0)
    assert rep["pass"], rep
    assert rep["direction_a"]["checked"] >= 10
    assert rep["direction_b"]["checked"] >= 10


def test_polarity_counts_its_d_searches():
    E = lp_lattice(2, 2)
    T = ll.LinOperator(np.array([[1.0, 0.5], [-0.3, 2.0]]), E, E)
    rep = ll.verify_polarity(T, L2, LINF, sample_count=1000, seed=2)
    again = ll.verify_polarity(T, L2, LINF, sample_count=1000, seed=2)
    assert isinstance(rep["d_searches"], int)
    assert rep["d_searches"] == again["d_searches"]
    assert canonical_json(rep) == canonical_json(again)
    # one search per direction (a) round and one per direction (b) sample
    n_a, n_b = rep["direction_a"]["checked"], 10
    assert n_a + n_b <= rep["d_searches"] <= 4 * n_a + n_b


def test_polarity_zero_operator_degenerate():
    E = lp_lattice(2, 2)
    T = ll.LinOperator(np.zeros((2, 2)), E, E)
    rep = ll.verify_polarity(T, L2, L2, sample_count=500, seed=0)
    assert rep["pass"]
    assert rep["degenerate_zero_operator"]


# ---------------------------------------------------------------------------
# minimal factorization


@pytest.mark.parametrize("p,n,slack", [(2.0, 2, 5e-3), (1.5, 3, 3e-2)])
def test_minimal_factorization_identity_reproduces_ball(p, n, slack):
    E = lp_lattice(n, p)
    F = ll.build_minimal_factorization(ll.identity_operator(E),
                                       ll.SymmetricSeqNorm(p), ll.SymmetricSeqNorm(p),
                                       budget=1500, seed=0)
    checks = F.report["norm_checks"]
    assert checks["U0"] <= 1 + 1e-6
    assert checks["convexity_ratio_max"] <= 1 + 1e-6
    assert checks["V0"] <= F.report["K_estimate"] + 1e-6
    assert F.report["checks_pass"]
    assert np.allclose(F.V.matrix @ F.U.matrix, np.eye(n), atol=1e-12)
    rng = np.random.default_rng(11)
    for _ in range(60):
        y = rng.standard_normal(n)
        gv = ll.eval_norm(F.Y, y)
        nv = ll.eval_norm(E, y)
        assert gv >= nv - 1e-9          # inner approximation of the ball
        assert gv <= nv * (1 + slack)   # discretization gap only


def test_minimal_factorization_recomposes_operator():
    X = lp_lattice(2, 2)
    T = ll.LinOperator(np.array([[2.0, 1.0], [0.0, 1.0]]), X, lp_lattice(2, 3))
    F = ll.build_minimal_factorization(T, L2, L2, budget=700, seed=0)
    assert np.allclose(F.V.matrix @ F.U.matrix, T.matrix, atol=1e-12)
    assert F.kind == "ClassC"
    assert np.array_equal(F.V.matrix, np.eye(2))  # inclusion map
    assert F.report["checks_pass"]


def test_minimal_factorization_rank_one_body_is_a_segment():
    X = lp_lattice(2, 2)
    T = ll.LinOperator(np.array([[1.0, 2.0], [0.5, 1.0]]), X, X)
    F = ll.build_minimal_factorization(T, L2, L2, budget=700, seed=0)
    gm = F.Y.norm.body.gen_matrix
    assert np.linalg.matrix_rank(gm, tol=1e-8) == 1


def test_minimal_factorization_zero_operator_is_trivial():
    X = lp_lattice(2, 2)
    F = ll.build_minimal_factorization(ll.LinOperator(np.zeros((2, 2)), X, X),
                                       L2, L2, budget=100, seed=0)
    assert F.report["trivial"]
    assert F.report["norm_checks"] == {"U0": 0.0, "V0": 0.0, "convexity_ratio_max": 0.0}


@pytest.mark.parametrize("tau,sigma", [(2.0, 1.5), (math.inf, 3.0), (1.5, 1.0)])
def test_minimal_factorization_refuses_sigma_below_tau(tau, sigma):
    # m copies of one vector have ratio m^(1/sigma - 1/tau): no finite constant
    T = ll.LinOperator(np.array([[1.0, 0.5], [0.0, 1.0]]), lp_lattice(2, 2), lp_lattice(2, 3))
    with pytest.raises(ValueError, match="no finite"):
        ll.build_minimal_factorization(T, ll.SymmetricSeqNorm(tau), ll.SymmetricSeqNorm(sigma),
                                       budget=60, seed=0, check_families=10)


def test_factorization_report_is_json_ready():
    from latticelab._util import canonical_json, hill_climb, lp_norm, rng_for

    X = lp_lattice(2, 2)
    F = ll.build_minimal_factorization(ll.identity_operator(X), L2, LINF,
                                       budget=500, seed=0)
    text = canonical_json(F.report)
    assert '"kind"' in text and '"dim_Y"' in text and '"norm_checks"' in text
    for key in ("U0", "V0", "convexity_ratio_max"):
        assert f'"{key}"' in text


# ---------------------------------------------------------------------------
# interpolation


def quarter_circle_body(k=13):
    pts = [(math.cos(t), math.sin(t)) for t in np.linspace(0, math.pi / 2, k)]
    return ll.SolidConvexBody(tuple(pts))


def test_interpolate_exponents_primary_case():
    C = quarter_circle_body()
    out = ll.interpolate_theta(C, C, 0.5, 2.0, 2.0, {"p2": 2.0, "q2": 1},
                               budget=500, seed=0)
    assert out["p_theta"] == pytest.approx(4 / 3, abs=1e-12)
    assert out["q_theta"] == pytest.approx(4.0, abs=1e-12)
    assert out["pbar2"] == pytest.approx(4 / 3, abs=1e-12)
    assert out["qbar2"] == 1.0


def test_interpolate_exponents_dual_case():
    C = quarter_circle_body()
    out = ll.interpolate_theta(C, C, 0.5, 2.0, 2.0, {"p2": math.inf, "q2": 2.0},
                               budget=500, seed=0)
    assert out["p_theta"] == pytest.approx(4 / 3, abs=1e-12)
    assert out["q_theta"] == pytest.approx(4.0, abs=1e-12)
    assert out["pbar2"] == math.inf
    assert out["qbar2"] == pytest.approx(4.0, abs=1e-12)


def test_interpolate_identical_bodies_reproduce_generators():
    C = quarter_circle_body()
    out = ll.interpolate_theta(C, C, 0.5, 2.0, 2.0, {"p2": 2.0, "q2": 1},
                               budget=500, seed=0)
    Ct = out["C_theta"]
    for g in C.gen_matrix:
        assert ll.gauge(Ct, g) <= 1 + 1e-9
    assert out["midpoint_ok"]


def test_interpolate_rejects_bad_arguments():
    C = quarter_circle_body()
    with pytest.raises(ValueError):
        ll.interpolate_theta(C, C, 1.5, 2, 2, {"p2": 2.0, "q2": 1})
    with pytest.raises(ValueError):
        ll.interpolate_theta(C, C, 0.0, 2, 2, {"p2": 2.0, "q2": 1})
    with pytest.raises(ValueError):
        ll.interpolate_theta(C, C, 0.5, 2, 2, {"p2": 3.0, "q2": 1})
    with pytest.raises(ValueError):
        ll.interpolate_theta(C, C, 0.5, 2, 2, {"p2": 2.0, "q2": 1.7})
    with pytest.raises(ValueError):
        ll.interpolate_theta(C, C, 0.5, 2, 2, {"p2": 2.0, "q2": 2.0})


def test_interpolate_membership_monotone_in_budget():
    C = quarter_circle_body()
    probes = np.random.default_rng(99).standard_normal((60, 2))

    def certified(budget):
        res = ll.interpolate_theta(C, C, 0.5, 2, 2, {"p2": 2.0, "q2": 1},
                                   budget=budget, seed=4)
        return sum(ll.gauge(res["C_theta"], y) <= 1 + 1e-9 for y in probes)

    assert certified(100) <= certified(900)
