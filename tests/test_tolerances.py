"""The one tolerance table: each of its ten names is read by exactly the check
it names, inside the builder that decides that verdict."""

import math

import pytest

import latticelab as ll

F = ll.StepFunction((0.2, 0.3, 0.25), ll.AtomicMeasure((1.0, 0.5, 2.0)))
# one pair in dimension 2: oracle scale, so product_ok is decided
REP = ll.TensorRep((([3.0, 4.0], [1.0, 1.0]),), 2.0, math.inf, 2.0, 1.0)


def _sandwich(tol):
    return {}, ll.check_renorming_sandwich(F, 3.0, 1.5, tol=tol["sandwich"])["pass"]


def _flags(rep, *keys):
    return {k: rep[k] for k in keys}, rep["pass"]


def _q_convexity(tol):
    rep = ll.check_q_convexity_bound(ll.NormedLattice(2, ll.Lp(5.0)), 1.0, budget=300, tol=tol)
    return _flags(rep, "bound_ok", "renormed_ok")


def _lpinfty(tol):
    return _flags(ll.reproduce_lpinfty_lp(2.0, 4, tol=tol), "unit_norms_ok", "vee_ratio_matches")


def _example54(tol):
    rep = ll.reproduce_example54(2.0, budget=300, tol=tol)
    return _flags(rep, "lower_estimate_ok", "bound_matches_formula")


def _embedding(tol):
    ver = ll.build_weakLp_embedding(F, 3.0, 1.5, samples=100, tol=tol)["verification"]
    return _flags(ver, "norm_bound_ok", "Sa_ok")


def _eta(tol):
    out = ll.build_eta_factorization(REP, ll.Lp(2.0), ll.Lp(2.0), budget=400, tol=tol)
    assert out["oracle_scale"]
    return {}, out["product_ok"]


# name -> (the builder run that owns it, the flag it decides; None: only pass)
OWNERS = {
    "sandwich": (_sandwich, None),
    "q-convex": (_q_convexity, "bound_ok"),
    "renormed": (_q_convexity, "renormed_ok"),
    "unit-norm": (_lpinfty, "unit_norms_ok"),
    "vee-ratio": (_lpinfty, "vee_ratio_matches"),
    "estimate-one": (_example54, "lower_estimate_ok"),
    "bound-match": (_example54, "bound_matches_formula"),
    "embed-norm": (_embedding, "norm_bound_ok"),
    "embed-lower": (_embedding, "Sa_ok"),
    "theta-product": (_eta, None),
}


def test_every_table_name_has_one_owner():
    assert set(OWNERS) == set(ll.TOLERANCES)
    with pytest.raises(TypeError):
        ll.TOLERANCES["sandwich"] = 1.0


@pytest.mark.parametrize("name", sorted(OWNERS))
def test_each_name_decides_exactly_its_own_check(name):
    run, flag = OWNERS[name]
    flags, ok = run(ll.TOLERANCES)
    assert ok is True and all(v is True for v in flags.values())
    broken, ok = run({**ll.TOLERANCES, name: -1.0})
    assert ok is False
    if flag is not None:
        # the named flag fails and every other flag of the builder holds
        assert broken == {**flags, flag: False}
