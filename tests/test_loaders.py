"""Fuzzed document loaders.  Every lattice, operator, tensor and body document
either loads with all entries finite or fails with a LatticeSchemaError that
points at a field; Python's json reads NaN and Infinity literals, and no
loader lets one through."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import latticelab as ll
from latticelab.cli import _load_operator, _load_rep, run_command

GOOD = st.one_of(st.floats(1.0, 4.0), st.integers(1, 4))
BAD = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.sampled_from([True, None, "x", "inf", 10 ** 400, -1.0, 0]),
    st.lists(GOOD, max_size=2),
)
FUZZ = settings(max_examples=120, deadline=None, derandomize=True, database=None)


def _slots(tree, want):
    """(container, key) of every value of type ``want`` in a document tree."""
    items = tree.items() if isinstance(tree, dict) else enumerate(tree) if isinstance(tree, list) else ()
    for key, val in items:
        if isinstance(val, want):
            yield tree, key
        if isinstance(val, (dict, list)):
            yield from _slots(val, want)


@st.composite
def poisoned(draw, docs):
    """A valid document from ``docs``, left as it is, with one number replaced
    by a bad value (NaN, an infinity, a bool, a string, ...), or with the
    last entry of one list dropped (ragged rows, empty lists)."""
    doc = draw(docs)
    how = draw(st.sampled_from(["keep", "number", "list"]))
    slots = list(_slots(doc, (int, float) if how == "number" else list))
    if how != "keep" and slots:
        tree, key = draw(st.sampled_from(slots))
        if how == "number":
            tree[key] = draw(BAD)
        else:
            tree[key] = tree[key][:-1]
    return doc


def _vector(n):
    return st.lists(GOOD, min_size=n, max_size=n)


def _matrix(m, n):
    return st.lists(_vector(n), min_size=m, max_size=m)


@st.composite
def lattice_docs(draw, n=None):
    n = draw(st.integers(1, 3)) if n is None else n
    kind = draw(st.sampled_from(["lp", "lorentz_q1", "lorentz_pinfty", "gauge_of"]))
    norm = {"kind": kind}
    if kind == "lp":
        norm["p"] = draw(st.one_of(GOOD, st.just("inf")))
    elif kind == "lorentz_q1":
        norm.update(q=draw(st.floats(1.5, 4.0)), weights=draw(_vector(n)))
    elif kind == "lorentz_pinfty":
        norm.update(p=draw(st.floats(2.5, 4.0)), r=draw(st.floats(1.0, 2.0)),
                    weights=draw(_vector(n)))
    else:
        norm["generators"] = draw(_matrix(draw(st.integers(1, 3)), n))
    return {"dim": n, "norm": norm}


@st.composite
def operator_docs(draw):
    m, n = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    return {"matrix": draw(_matrix(m, n)), "source": draw(lattice_docs(n)),
            "target": draw(lattice_docs(m))}


@st.composite
def tensor_docs(draw):
    n, p, q = draw(st.integers(1, 3)), draw(GOOD), draw(GOOD)
    pairs = draw(st.lists(st.fixed_dictionaries({"x": _vector(n), "y": _vector(2)}),
                          min_size=1, max_size=3))
    return {"pairs": pairs,
            "exponents": {"p": p, "p2": draw(st.sampled_from(["inf", p])),
                          "q": q, "q2": draw(st.sampled_from([1, q]))},
            "E": {"dim": n, "norm": {"kind": "lp", "p": 2}}, "F": draw(lattice_docs(2))}


def _finite(tree) -> bool:
    """Every number in a document tree is finite."""
    if isinstance(tree, dict):
        return all(_finite(v) for v in tree.values())
    if isinstance(tree, (list, tuple)):
        return all(_finite(v) for v in tree)
    return not isinstance(tree, float) or math.isfinite(tree)


def _load(load, *args):
    """load(*args), or None after a LatticeSchemaError with a nonempty path;
    any other exception fails the test."""
    try:
        return load(*args)
    except ll.LatticeSchemaError as e:
        assert e.path, e
        return None


def _file(tmp_path_factory, doc) -> str:
    path = tmp_path_factory.getbasetemp() / "fuzzed.json"
    path.write_text(json.dumps(doc, allow_nan=True))
    return str(path)


@FUZZ
@given(poisoned(lattice_docs()))
def test_lattice_loader_fuzzed(doc):
    lat = _load(ll.lattice_from_dict, json.loads(json.dumps(doc)))
    assert lat is None or _finite(ll.lattice_to_dict(lat))


@FUZZ
@given(poisoned(st.tuples(st.integers(1, 3), st.integers(1, 3)).flatmap(
    lambda mn: st.fixed_dictionaries({"generators": _matrix(*mn)}))))
def test_body_loader_fuzzed(doc):
    body = _load(ll.SolidConvexBody.from_dict, json.loads(json.dumps(doc)))
    assert body is None or np.isfinite(body.gen_matrix).all()


@FUZZ
@given(poisoned(operator_docs()))
def test_operator_loader_fuzzed(tmp_path_factory, doc):
    op = _load(_load_operator, _file(tmp_path_factory, doc))
    assert op is None or np.isfinite(op.matrix).all()


@FUZZ
@given(poisoned(tensor_docs()))
def test_tensor_loader_fuzzed(tmp_path_factory, doc):
    out = _load(_load_rep, _file(tmp_path_factory, doc))
    if out is not None:
        rep, _, _ = out
        assert np.isfinite(rep.x_matrix()).all() and np.isfinite(rep.y_matrix()).all()


L2 = {"dim": 2, "norm": {"kind": "lp", "p": 2}}


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_cli_rejects_non_finite_operator_and_tensor_entries(tmp_path, capsys, bad):
    op = tmp_path / "op.json"
    op.write_text(json.dumps({"matrix": [[2.0, 0.0], [0.0, bad]], "source": L2, "target": L2}))
    assert run_command(["geom", "polarity", "--op", str(op), "--tau", "2", "--sigma", "2"]) == 1
    assert "/matrix/1/1" in capsys.readouterr().err
    rep = tmp_path / "rep.json"
    rep.write_text(json.dumps({"pairs": [{"x": [3.0, 4.0], "y": [1.0, bad]}],
                               "exponents": {"p": 2, "p2": "inf", "q": 2, "q2": 1},
                               "E": L2, "F": L2}))
    assert run_command(["ideal", "theta", "--rep", str(rep)]) == 1
    assert "/pairs/0/y/1" in capsys.readouterr().err
