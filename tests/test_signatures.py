"""Pinned parameter lists of the public searches: every search shares the one
hill climber and its one schedule, so none of them grows a tuning option.  The
builders that decide a named verdict take the one tolerance table, whose ten
names and values the repr below pins as well."""

import importlib
import inspect

import pytest

TABLE = ("mappingproxy({'sandwich': 1e-09, 'unit-norm': 1e-09, 'vee-ratio': 1e-09, "
         "'bound-match': 1e-09, 'estimate-one': 1e-06, 'embed-norm': 1e-09, "
         "'embed-lower': 1e-09, 'q-convex': 1e-06, 'renormed': 1e-09, "
         "'theta-product': 0.05})")

PINNED = {
    "latticelab._util.hill_climb": "score, x0, rng, iters, project=None, stop=inf",
    "latticelab.constants.estimate_constant": "T, kind, budget=10000, seed=0",
    "latticelab.constants.check_q_convexity_bound":
        f"X, q, budget=4000, seed=0, tol={TABLE}",
    "latticelab.constants.reproduce_lpinfty_lp": f"p, n, tol={TABLE}",
    "latticelab.constants.duality_gap": "T, tau, sigma, budget=4000, seed=0",
    "latticelab.embedcert.t41_check": "X, p, C, a, epsilon=0.001, budget=2000, seed=0",
    "latticelab.idealnorms.theta_lower":
        "rep, E_norm, F_norm, trunc_len=2, budget=2000, seed=0, starts=None",
    "latticelab.idealnorms.build_eta_factorization":
        f"rep, E_norm, F_norm, trunc_len=2, budget=2000, seed=0, tol={TABLE}",
    "latticelab.idealnorms.multiplication_operator_check":
        "g, source, target, budget=2000, seed=0",
    "latticelab.convexgeom.search_D_violation": "T, u, tau, sigma, budget=2000, seed=0",
    "latticelab.convexgeom.verify_polarity": "T, tau, sigma, sample_count=10000, seed=0",
    "latticelab.core.eval_dual_norm": "X, b, budget=2000, seed=0",
    "latticelab.embedcert.reproduce_example54": f"p, budget=3000, seed=0, tol={TABLE}",
    "latticelab.lorentz.build_weakLp_embedding": f"a, p, r, samples=500, seed=0, tol={TABLE}",
    "latticelab.lorentz.check_renorming_sandwich": "f, p, r, tol=1e-09",
}


def _params(func) -> str:
    return ", ".join(p.name if p.default is p.empty else f"{p.name}={p.default!r}"
                     for p in inspect.signature(func).parameters.values())


@pytest.mark.parametrize("qualname", sorted(PINNED))
def test_public_signature_is_pinned(qualname):
    module, name = qualname.rsplit(".", 1)
    assert _params(getattr(importlib.import_module(module), name)) == PINNED[qualname]
