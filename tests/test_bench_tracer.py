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
    X = ll.NormedLattice(3, ll.WeightedLorentzPInfty(2, 1, ll.AtomicMeasure((1.0, 2.0, 0.5))))
    tr = tracer.Tracer()
    try:
        tr.install()
        value = ll.eval_norm(X, [1.0, -2.0, 0.5])
    finally:
        tr.uninstall()
    assert ll.eval_norm is original
    assert value == ll.eval_norm(X, [1.0, -2.0, 0.5])
    assert tr.calls["core.eval_norm"] == 1
    assert tr.calls["lorentz.norm_pinfty_r_argmax"] == 1
