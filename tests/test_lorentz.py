"""Rearrangement, Lorentz norms, the sandwich bounds, and the multiplier embedding."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

import latticelab as ll
from latticelab.lorentz import (
    StepFunction,
    build_weakLp_embedding,
    check_renorming_sandwich,
    lemma_a2_d,
    norm_pinfty_r,
    norm_q1,
    quasinorm_pinfty,
    rearrange,
    subset_mask_chunks,
)

CM = ll.AtomicMeasure.counting


def alpha_sequence(p, n):
    ps = p / (p - 1)
    return tuple((k + 1) ** (1 / ps) - k ** (1 / ps) for k in range(n))


def test_rearrange_examples():
    rs = rearrange(StepFunction((1, 3, 2), CM(3)))
    assert rs.values == (3.0, 2.0, 1.0)
    assert rs.breakpoints == (1.0, 2.0, 3.0)
    rs = rearrange(StepFunction((1, 1), CM(2)))
    assert rs.values == (1.0,)
    assert rs.breakpoints == (2.0,)
    rs = rearrange(StepFunction((2, 1), ll.AtomicMeasure((0.5, 2.0))))
    assert rs.values == (2.0, 1.0)
    assert rs.breakpoints == (0.5, 2.5)


def test_rearrange_zero_and_signs():
    assert rearrange(StepFunction((0.0, 0.0), CM(2))).values == ()
    rs = rearrange(StepFunction((-3, 0, 2), CM(3)))
    assert rs.values == (3.0, 2.0)
    assert rs.breakpoints == (1.0, 2.0)


def test_rearranged_step_eval():
    rs = rearrange(StepFunction((1, 3, 2), CM(3)))
    assert rs.eval_at(0.0) == 3.0
    assert rs.eval_at(0.999) == 3.0
    assert rs.eval_at(1.0) == 2.0
    assert rs.eval_at(2.5) == 1.0
    assert rs.eval_at(3.0) == 0.0


def test_rearrange_preserves_distribution():
    rng = np.random.default_rng(31)
    for _ in range(50):
        n = int(rng.integers(1, 9))
        w = ll.AtomicMeasure(tuple((rng.random(n) * 2 + 0.1).tolist()))
        vals = rng.standard_normal(n) * rng.choice([0, 1], n, p=[0.2, 0.8])
        f = StepFunction(tuple(vals.tolist()), w)
        rs = rearrange(f)
        T = np.concatenate([[0.0], np.array(rs.breakpoints)])
        integral_sorted = float(np.sum(np.array(rs.values) * np.diff(T)))
        integral_direct = float(np.sum(np.abs(vals) * w.as_array))
        assert integral_sorted == pytest.approx(integral_direct, abs=1e-12)


def test_quasinorm_examples():
    assert quasinorm_pinfty(StepFunction((1, 1, 1, 1), CM(4)), 2) == pytest.approx(2.0, abs=1e-12)
    for n in (2, 5, 9):
        for p in (1.5, 2.0, 3.0):
            assert quasinorm_pinfty(StepFunction((1.0,) * n, CM(n)), p) == pytest.approx(n ** (1 / p), abs=1e-12)
    assert quasinorm_pinfty(StepFunction((3, 1), CM(2)), 2) == pytest.approx(3.0, abs=1e-12)
    for p in (1.5, 2.0, 4.0):
        for n in (2, 7, 16):
            f = StepFunction(alpha_sequence(p, n), CM(n))
            assert quasinorm_pinfty(f, p) == pytest.approx(1.0, abs=1e-12)


def test_quasinorm_rearrangement_invariance():
    rng = np.random.default_rng(13)
    for _ in range(30):
        n = int(rng.integers(2, 8))
        w = rng.random(n) + 0.2
        vals = rng.standard_normal(n)
        perm = rng.permutation(n)
        f = StepFunction(tuple(vals.tolist()), ll.AtomicMeasure(tuple(w.tolist())))
        g = StepFunction(tuple(vals[perm].tolist()), ll.AtomicMeasure(tuple(w[perm].tolist())))
        for p in (1.5, 2.0, 3.0):
            assert quasinorm_pinfty(f, p) == pytest.approx(quasinorm_pinfty(g, p), abs=1e-12)


def test_norm_pinfty_r_examples():
    assert norm_pinfty_r(StepFunction((3, 1), CM(2)), 2, 1) == pytest.approx(3.0, abs=1e-12)
    # brute force over subsets: {1} -> 3, {2} -> 1, {1,2} -> 2*sqrt(2)
    assert 2 * math.sqrt(2) < 3
    for p in (1.5, 2.0, 4.0):
        f = StepFunction(alpha_sequence(p, 10), CM(10))
        assert norm_pinfty_r(f, p, 1) == pytest.approx(1.0, abs=1e-12)
        # every prefix attains exactly 1: prefix sums telescope to m^{1/p*}
        vals = np.array(f.values)
        for m in range(1, 11):
            pref = float(m ** (1 / p - 1) * np.sum(vals[:m]))
            assert pref == pytest.approx(1.0, abs=1e-12)
    for p in (1.5, 3.0):
        for r in (1.0, 1.4):
            if r < p:
                f = StepFunction((1.0, 1.0, 1.0), ll.AtomicMeasure((0.5, 1.0, 1.5)))
                assert norm_pinfty_r(f, p, r) == pytest.approx(3.0 ** (1 / p), abs=1e-12)


def test_norm_pinfty_r_rejects_bad_r():
    f = StepFunction((1, 2), CM(2))
    with pytest.raises(ValueError):
        norm_pinfty_r(f, 2, 2)
    with pytest.raises(ValueError):
        norm_pinfty_r(f, 2, 2.5)
    with pytest.raises(ValueError):
        norm_pinfty_r(f, 2, 0.5)


def enumerated_norm_pinfty_r(f, p, r):
    """The [r]-norm as the max over every nonempty atom subset."""
    m, w = np.abs(f.as_array), f.measure.as_array
    masks = np.vstack(list(subset_mask_chunks(m.shape[0])))
    return float(np.max((masks @ w) ** (1 / p - 1 / r) * (masks @ (w * m ** r)) ** (1 / r)))


def test_prefix_equals_enumeration_for_counting_measure():
    rng = np.random.default_rng(7)
    for n in range(2, 13):
        for _ in range(12):
            vals = rng.standard_normal(n) * rng.choice([0, 1], n, p=[0.15, 0.85])
            f = StepFunction(tuple(vals.tolist()), CM(n))
            for (p, r) in ((2.0, 1.0), (3.0, 1.5), (1.5, 1.2)):
                assert norm_pinfty_r(f, p, r) == pytest.approx(
                    enumerated_norm_pinfty_r(f, p, r), abs=1e-10)


def test_prefix_equals_enumeration_for_unequal_weights():
    # the sup is attained at a superlevel set of |f| for any weights; zeros
    # and tied moduli included
    rng = np.random.default_rng(3)
    for _ in range(40):
        n = int(rng.integers(2, 9))
        w = ll.AtomicMeasure(tuple((rng.random(n) * 3 + 0.1).tolist()))
        vals = rng.standard_normal(n)
        vals[rng.random(n) < 0.2] = 0.0
        vals[-1] = -vals[0]
        f = StepFunction(tuple(vals.tolist()), w)
        for (p, r) in ((2.5, 1.0), (2.5, 2.0), (1.5, 1.2)):
            assert norm_pinfty_r(f, p, r) == pytest.approx(
                enumerated_norm_pinfty_r(f, p, r), rel=1e-12)


@pytest.mark.parametrize("n", [1, 2, 5, 9, 1024])
def test_eval_rows_equals_row_by_row_evaluate(n):
    # one stacked superlevel-set scan gives each row's one-vector value bit for bit
    rng = np.random.default_rng(n)
    w = ll.AtomicMeasure(tuple(rng.uniform(0.3, 3.0, n).tolist()))
    mat = rng.standard_normal((9, n))
    mat[1] = 0.0                                        # all-zero row
    mat[2] = rng.choice([-2.0, 1.0, 2.0], n)            # tied moduli
    mat[3] = 1.5                                        # one modulus on every atom
    mat[4, rng.random(n) < 0.5] = 0.0                   # zeros among the atoms
    mat[5] *= 1e30
    mat[6] *= 1e-30
    for p, r in ((2.5, 1.0), (2.5, 1.7), (1.3, 1.05), (4.0, 3.5)):
        spec = ll.WeightedLorentzPInfty(p, r, w)
        rows = spec.eval_rows(mat)
        assert rows.shape == (9,)
        assert all(rows[i] == spec.evaluate(mat[i])[0] for i in range(9))
        assert rows[1] == 0.0


def _q1_by_rearrangement(f, q):
    """The q,1-norm summed over the distinct nonzero moduli of the rearrangement:
    tied moduli merged and zero moduli dropped before the one sum."""
    rs = rearrange(f)
    if not rs.values:
        return 0.0
    v = np.array(rs.values)
    T = np.concatenate([[0.0], np.array(rs.breakpoints)])
    return float(q * np.sum(v * (T[1:] ** (1.0 / q) - T[:-1] ** (1.0 / q))))


@pytest.mark.parametrize("n", [1, 3, 8, 17, 64])
def test_spec_kernels_equal_step_function_api(n):
    # the specs own the kernels: their stacked eval_rows gives the step-function
    # values bit for bit, far from 1 too
    rng = np.random.default_rng(200 + n)
    w = ll.AtomicMeasure(tuple(rng.uniform(0.3, 3.0, n).tolist()))
    mat = rng.standard_normal((10, n))
    mat[1] = 0.0                                        # zero row
    mat[2] = rng.choice([-2.0, 1.0, 2.0], n)            # tied moduli
    mat[3, rng.random(n) < 0.4] = 0.0                   # zero moduli
    mat[4] = 1.5                                        # one modulus on every atom
    mat[5] *= 2.0 ** 600
    mat[6] *= 2.0 ** -600
    mat[7] = rng.choice([-1.0, 3.0], n) * 2.0 ** -600  # tied and tiny
    fs = [StepFunction(tuple(row.tolist()), w) for row in mat]
    for p, r in ((2.5, 1.0), (2.5, 1.7), (1.3, 1.05), (4.0, 3.5)):
        rows = ll.WeightedLorentzPInfty(p, r, w).eval_rows(mat)
        assert rows.tolist() == [norm_pinfty_r(f, p, r) for f in fs]
    for q in (1.3, 2.0, 3.7):
        rows = ll.WeightedLorentzQ1(q, w).eval_rows(mat)
        assert rows.tolist() == [norm_q1(f, q) for f in fs]
        for row, f, val in zip(mat, fs, rows.tolist()):
            ref = _q1_by_rearrangement(f, q)
            m = np.abs(row)
            if m.all() and np.unique(m).size == n:
                assert val == ref
            else:
                # ties and zeros change what numpy's pairwise sum groups
                assert abs(val - ref) <= 4 * np.spacing(ref)


def test_r_norm_is_finite_and_nonzero_far_from_one():
    # |f|^r leaves the float range at 1e+-150 with r = 3.5; the scan rescales
    # such rows by their top modulus, so the value is 2 * 2^(1/4) times the scale
    X = ll.NormedLattice(3, ll.WeightedLorentzPInfty(4.0, 3.5, ll.AtomicMeasure((1.0, 2.0, 0.5))))
    for scale in (1e150, 1e-150):
        want = 2.378414230005442 * scale
        rows = X.norm.eval_rows(np.array([[1.0, 2.0, 0.0], [0.0, -2.0, 1.0], [0.0, 0.0, 0.0]]) * scale)
        for got in (ll.eval_norm(X, [scale, 2 * scale, 0.0]), rows[0], rows[1]):
            assert abs(got - want) <= 1e-15 * want
        assert rows[2] == 0.0
        assert rows[0] == ll.eval_norm(X, [scale, 2 * scale, 0.0])
        # the norming functional is 0-homogeneous: the same at every scale
        a = np.array([1.0, -2.0, 3.0])
        assert np.allclose(ll.norming_functional(X, a * scale), ll.norming_functional(X, a),
                           rtol=1e-15, atol=0.0)


def test_subset_mask_chunks_cover_everything():
    seen = set()
    for chunk in subset_mask_chunks(5):
        for row in chunk:
            seen.add(tuple(int(x) for x in row))
    assert len(seen) == 2 ** 5 - 1
    assert (0, 0, 0, 0, 0) not in seen


def test_norm_q1_examples():
    assert norm_q1(StepFunction((1.0,), ll.AtomicMeasure((1.0,))), 2) == pytest.approx(2.0, abs=1e-12)
    assert norm_q1(StepFunction((0.0, 0.0), CM(2)), 2) == 0.0
    assert norm_q1(StepFunction((2, 1), CM(2)), 2) == pytest.approx(2 + 2 * math.sqrt(2), abs=1e-12)


def test_norm_q1_matches_distributional_integral():
    # ||f||_{q,1} = q * int_0^inf mu{|f| > s}^{1/q} ds, evaluated by quadrature
    rng = np.random.default_rng(19)
    for _ in range(10):
        n = int(rng.integers(1, 7))
        w = ll.AtomicMeasure(tuple((rng.random(n) + 0.2).tolist()))
        vals = rng.standard_normal(n)
        f = StepFunction(tuple(vals.tolist()), w)
        q = float(rng.uniform(1.2, 4.0))

        def dist(s):
            return float(np.sum(w.as_array[np.abs(vals) > s]))

        top = float(np.max(np.abs(vals))) if n else 0.0
        if top == 0:
            continue
        val, _ = quad(lambda s: q * dist(s) ** (1 / q), 0, top, limit=400,
                      points=sorted(set(abs(v) for v in vals)))
        assert norm_q1(f, q) == pytest.approx(val, abs=1e-7)


def test_sandwich_examples():
    rep = check_renorming_sandwich(StepFunction((3, 1), CM(2)), 2, 1)
    assert rep["upper_factor"] == pytest.approx(2.0)
    assert rep["quasi"] == pytest.approx(3.0, abs=1e-12)
    assert rep["norm_r"] == pytest.approx(3.0, abs=1e-12)
    assert rep["pass"]
    rep = check_renorming_sandwich(StepFunction((0, 2.5, 0), CM(3)), 2.5, 1.5)
    assert rep["ratio"] == pytest.approx(1.0, abs=1e-12)
    assert rep["pass"]


def test_sandwich_random_instances():
    rng = np.random.default_rng(101)
    for p in (1.5, 2.0, 3.0):
        for r in (1.0, 1.2, (p + 1) / 2):
            for _ in range(12):
                n = int(rng.integers(1, 9))
                w = ll.AtomicMeasure(tuple((rng.random(n) * 2 + 0.1).tolist()))
                f = StepFunction(tuple(rng.standard_normal(n).tolist()), w)
                rep = check_renorming_sandwich(f, p, r)
                assert rep["pass"], rep


def test_lemma_a2_examples():
    d = lemma_a2_d((0.5, 0.5), (0.5, 0.5), 0.5)
    assert np.allclose(d, [0.5, 0.5])
    rng = np.random.default_rng(3)
    for _ in range(100):
        x = rng.random(2) * 4
        assert float(np.prod(x ** d)) <= float(d @ x) + 1e-12
    with pytest.raises(ValueError):
        lemma_a2_d((0.7, 0.2), (0.5, 0.5), 0.5)
    with pytest.raises(ValueError):
        lemma_a2_d((0.5, 0.5), (0.5, 0.5), 1.5)


def test_embedding_single_atom_identity():
    rep = build_weakLp_embedding(StepFunction((1.0,), ll.AtomicMeasure((1.0,))), 2, 1)
    assert rep["C"] == pytest.approx(1.0, abs=1e-12)
    assert rep["coefficients"] == pytest.approx([1.0], abs=1e-12)
    assert rep["nu"] == pytest.approx([1.0], abs=1e-12)
    assert rep["verification"]["pass"]


def test_embedding_two_equal_atoms():
    a0 = StepFunction((1.0, 1.0), CM(2))
    scale = norm_pinfty_r(a0, 2, 1.5)
    a = StepFunction((1.0 / scale, 1.0 / scale), CM(2))
    rep = build_weakLp_embedding(a, 2, 1.5)
    assert rep["verification"]["pass"], rep["verification"]
    assert rep["verification"]["Sa_norm"] >= rep["C"] ** 1.5 - 1e-9


def test_embedding_errors():
    with pytest.raises(ValueError, match="C <= 1"):
        build_weakLp_embedding(StepFunction((1.0, 1.0), CM(2)), 2, 1.5)
    with pytest.raises(ValueError, match="positive"):
        build_weakLp_embedding(StepFunction((1.0, 0.0), CM(2)), 2, 1)
    with pytest.raises(ValueError, match="positive"):
        build_weakLp_embedding(StepFunction((1.0, -1.0), CM(2)), 2, 1)


def test_embedding_random_admissible_instances():
    rng = np.random.default_rng(11)
    for (p, r) in ((2.0, 1.0), (2.0, 1.5), (3.0, 2.0), (1.5, 1.2)):
        for _ in range(3):
            n = int(rng.integers(1, 7))
            w = ll.AtomicMeasure(tuple((rng.random(n) * 2 + 0.2).tolist()))
            vals = rng.random(n) + 0.2
            scale = norm_pinfty_r(StepFunction(tuple(vals.tolist()), w), p, r)
            a = StepFunction(tuple((vals / scale).tolist()), w)
            rep = build_weakLp_embedding(a, p, r)
            assert rep["verification"]["pass"], (p, r, rep["verification"])
            assert rep["C"] <= 1 + 1e-12
            assert sum(rep["d"]) <= 1 + 1e-9
