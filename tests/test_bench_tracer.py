"""The benchmark tracer (perfbench/tracer.py) patches latticelab functions and
scipy solvers by name; a rename or a dropped import must fail here, not only
in a traced benchmark run."""

import importlib
from pathlib import Path

import latticelab as ll

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_installs_counts_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    original = ll.eval_norm
    mu = ll.AtomicMeasure((1.0, 2.0, 0.5))
    X = ll.NormedLattice(3, ll.WeightedLorentzPInfty(2, 1, mu))
    tr = tracer.Tracer()
    try:
        tr.install()
        value = ll.eval_norm(X, [1.0, -2.0, 0.5])
        step_value = ll.norm_pinfty_r(ll.StepFunction((1.0, -2.0, 0.5), mu), 2, 1)
    finally:
        tr.uninstall()
    assert ll.eval_norm is original
    assert value == ll.eval_norm(X, [1.0, -2.0, 0.5]) == step_value
    assert tr.calls["core.eval_norm"] == 1
    # eval_norm scans the row directly; the StepFunction form goes through the argmax
    assert tr.calls["lorentz.norm_pinfty_r_argmax"] == 1


def test_tracer_counts_gauge_spans_without_linprog(monkeypatch):
    """gauge and gauge_norming run the dense simplex, not scipy's linprog; the
    tracer still finds convexgeom.linprog to wrap."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    B = ll.SolidConvexBody(((1.0, 0.5, 0.0), (0.2, 1.0, 0.7), (0.0, 0.3, 1.0)))
    tr = tracer.Tracer()
    try:
        tr.install()
        ll.gauge(B, [0.3, -0.4, 0.5])
        ll.gauge_norming(B, [0.3, -0.4, 0.5])
    finally:
        tr.uninstall()
    assert tr.calls["convexgeom.gauge"] == 1
    assert tr.calls["convexgeom.gauge_norming"] == 1
    assert tr.calls["convexgeom.linprog"] == 0
