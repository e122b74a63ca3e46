"""Pinned parameter lists of the public searches: every search shares the one
hill climber and its one schedule, so none of them grows a tuning option."""

import importlib
import inspect

import pytest

PINNED = {
    "latticelab._util.hill_climb": "score, x0, rng, iters, project=None, stop=inf",
    "latticelab.constants.estimate_constant": "T, kind, budget=10000, seed=0",
    "latticelab.constants.check_q_convexity_bound": "X, q, budget=4000, seed=0",
    "latticelab.constants.duality_gap": "T, tau, sigma, budget=4000, seed=0",
    "latticelab.embedcert.t41_check": "X, p, C, a, epsilon=0.001, budget=2000, seed=0",
    "latticelab.idealnorms.theta_lower":
        "rep, E_norm, F_norm, trunc_len=2, budget=2000, seed=0, starts=None",
    "latticelab.idealnorms.build_eta_factorization":
        "rep, E_norm, F_norm, trunc_len=2, budget=2000, seed=0",
    "latticelab.idealnorms.multiplication_operator_check":
        "g, source, target, budget=2000, seed=0",
    "latticelab.convexgeom.search_D_violation": "T, u, tau, sigma, budget=2000, seed=0",
    "latticelab.convexgeom.verify_polarity": "T, tau, sigma, sample_count=10000, seed=0",
    "latticelab.core.eval_dual_norm": "X, b, budget=2000, seed=0",
}


def _params(func) -> str:
    return ", ".join(p.name if p.default is p.empty else f"{p.name}={p.default!r}"
                     for p in inspect.signature(func).parameters.values())


@pytest.mark.parametrize("qualname", sorted(PINNED))
def test_public_signature_is_pinned(qualname):
    module, name = qualname.rsplit(".", 1)
    assert _params(getattr(importlib.import_module(module), name)) == PINNED[qualname]
