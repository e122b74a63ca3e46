"""Command-line front end: exit codes, report shape, determinism, schema errors."""

import json
import math
import re
import subprocess
import sys

import numpy as np
import pytest

from latticelab.cli import (
    DEFAULT_TOLERANCES,
    RunConfig,
    load_lattice,
    main,
    serialize_lattice,
)


def run_cli(argv, capsys):
    code = main(argv)
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def write_doc(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def strip_wall(text):
    return re.sub(r'"wall_time_ms": \d+', '"wall_time_ms": 0', text)


L2 = {"dim": 2, "norm": {"kind": "lp", "p": 2}}
WL = {"dim": 2, "norm": {"kind": "lorentz_pinfty", "p": 2.5, "r": 1, "weights": [1.0, 2.0]}}
E54 = {"dim": 3, "norm": {"kind": "example54_dual", "p": 2}}
E54_PRE = {"dim": 3, "norm": {"kind": "predual_of", "inner": {"kind": "example54_dual", "p": 2}}}
OP_DIAG = {
    "matrix": [[2.0, 0.0], [0.0, 1.0]],
    "source": {"dim": 2, "norm": {"kind": "lp", "p": 2}},
    "target": {"dim": 2, "norm": {"kind": "lp", "p": 2}},
}
REP_SINGLE = {
    "pairs": [{"x": [3.0, 4.0], "y": [1.0, 1.0]}],
    "exponents": {"p": 2, "p2": "inf", "q": 2, "q2": 1},
    "E": {"dim": 2, "norm": {"kind": "lp", "p": 2}},
    "F": {"dim": 2, "norm": {"kind": "lp", "p": 2}},
}


def test_gamma_report_shape(capsys):
    code, out, err = run_cli(["constants", "gamma", "--p", "2"], capsys)
    assert code == 0 and err == ""
    rep = json.loads(out)
    assert rep["gamma"] == pytest.approx(math.sqrt(2), abs=1e-15)
    assert rep["command"] == "constants gamma"
    for key in ("config", "version", "wall_time_ms"):
        assert key in rep
    assert rep["config"]["seed"] == 0 and rep["config"]["budget"] == 10000


def test_norm_eval_l2(tmp_path, capsys):
    lat = write_doc(tmp_path, "l2.json", L2)
    code, out, _ = run_cli(["norm", "eval", "--lattice", lat, "--x", "3,4"], capsys)
    assert code == 0
    assert json.loads(out)["norm"] == pytest.approx(5.0)


def test_norm_eval_example54_document(tmp_path, capsys):
    lat = write_doc(tmp_path, "e54.json", E54)
    code, out, _ = run_cli(["norm", "eval", "--lattice", lat, "--x", "1,1,1"], capsys)
    assert code == 0
    assert json.loads(out)["norm"] == pytest.approx(math.sqrt(5), abs=1e-12)


def test_rejects_r_geq_p_with_pointer(tmp_path, capsys):
    bad = write_doc(tmp_path, "bad.json",
                    {"dim": 2, "norm": {"kind": "lorentz_pinfty", "p": 2, "r": 3,
                                        "weights": [1.0, 1.0]}})
    code, out, err = run_cli(["norm", "eval", "--lattice", bad, "--x", "1,1"], capsys)
    assert code == 1 and out == ""
    assert "/norm/r" in err and "r < p" in err


def test_unknown_subcommand_usage(capsys):
    code, out, err = run_cli(["conjure"], capsys)
    assert code == 1 and out == ""
    assert "usage:" in err
    code, _, err = run_cli(["constants", "divine"], capsys)
    assert code == 1 and "usage:" in err


def test_io_errors_exit_one(tmp_path, capsys):
    code, _, err = run_cli(["norm", "eval", "--lattice", str(tmp_path / "nope.json"),
                            "--x", "1"], capsys)
    assert code == 1 and "nope.json" in err
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    code, _, err = run_cli(["norm", "eval", "--lattice", str(garbled), "--x", "1"], capsys)
    assert code == 1 and "invalid JSON" in err


def test_vector_and_dimension_validation(tmp_path, capsys):
    lat = write_doc(tmp_path, "l2.json", L2)
    code, _, err = run_cli(["norm", "eval", "--lattice", lat, "--x", "1,spam"], capsys)
    assert code == 1 and "bad vector literal" in err
    code, _, err = run_cli(["norm", "eval", "--lattice", lat, "--x", "1,2,3"], capsys)
    assert code == 1 and "expected 2" in err


def test_tolerance_overrides_only_loosen(capsys):
    code, _, err = run_cli(["constants", "gamma", "--p", "2",
                            "--tol", "sandwich=1e-12"], capsys)
    assert code == 1 and "only loosen" in err
    code, _, err = run_cli(["constants", "gamma", "--p", "2", "--tol", "mystery=1"], capsys)
    assert code == 1 and "unknown check name" in err
    code, out, _ = run_cli(["constants", "gamma", "--p", "2",
                            "--tol", "sandwich=1e-6"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["config"]["tolerance_overrides"]["sandwich"] == pytest.approx(1e-6)


def test_config_validation(capsys):
    code, _, err = run_cli(["constants", "gamma", "--p", "2", "--seed", "-1"], capsys)
    assert code == 1 and "64 unsigned bits" in err
    code, _, err = run_cli(["constants", "gamma", "--p", "2", "--budget", "0"], capsys)
    assert code == 1 and "positive" in err
    cfg = RunConfig(seed=3, budget=50, overrides=(("sandwich", 1e-6),))
    assert cfg.tol("sandwich") == pytest.approx(1e-6)
    assert cfg.tol("unit-norm") == DEFAULT_TOLERANCES["unit-norm"]


def test_out_file_and_silence(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(["constants", "gamma", "--p", "3", "--out", str(target)], capsys)
    assert code == 0 and out == ""
    rep = json.loads(target.read_text())
    assert rep["gamma"] == pytest.approx((1.5) ** (1 / 1.5), abs=1e-12)
    assert rep["config"]["out"] == str(target)


def test_load_serialize_round_trip(tmp_path):
    for doc in (L2, WL, E54, E54_PRE,
                {"dim": 4, "norm": {"kind": "linf_sum",
                                    "blocks": [{"dim": 2, "norm": {"kind": "lp", "p": 1}},
                                               {"dim": 2, "norm": {"kind": "lorentz_q1",
                                                                   "q": 2, "weights": [1, 3]}}]}}):
        path = write_doc(tmp_path, "doc.json", doc)
        lat = load_lattice(path)
        text = serialize_lattice(lat)
        path2 = tmp_path / "echo.json"
        path2.write_text(text)
        assert serialize_lattice(load_lattice(str(path2))) == text


def test_dual_norm_command(tmp_path, capsys):
    lat = write_doc(tmp_path, "wl.json", WL)
    code, out, _ = run_cli(["norm", "dual", "--lattice", lat, "--b", "1,1"], capsys)
    assert code == 0
    est = json.loads(out)["estimate"]
    assert est["side"] == "exact"
    assert est["value"] > 1.0
    assert len(est["witness"]) == 2
    # no dual norm searches, so the report states no search budget or seed
    assert sorted(est) == ["side", "value", "witness"]
    lat = write_doc(tmp_path, "wr.json", {"dim": 3, "norm": {"kind": "lorentz_pinfty", "p": 3, "r": 1.5,
                                                            "weights": [1.0, 0.5, 2.0]}})
    code, out, _ = run_cli(["norm", "dual", "--lattice", lat, "--b", "1,-2,0.5"], capsys)
    assert code == 0
    est = json.loads(out)["estimate"]
    assert est["side"] == "exact"
    assert sum(x * y for x, y in zip(est["witness"], (1, -2, 0.5))) == pytest.approx(est["value"], rel=1e-12)


def test_lorentz_commands(capsys):
    code, out, _ = run_cli(["lorentz", "rearrange", "--values", "1,3,2",
                            "--weights", "0.5,1,2"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["rearranged_values"] == [3, 2, 1]
    assert rep["breakpoints"] == [1, 3, 3.5]

    code, out, _ = run_cli(["lorentz", "quasinorm", "--p", "2", "--values", "1,3,2"], capsys)
    assert json.loads(out)["quasinorm"] == pytest.approx(3.0)

    code, out, _ = run_cli(["lorentz", "sandwich", "--p", "2", "--r", "1.2",
                            "--values", "1,3,2", "--weights", "0.5,1,2"], capsys)
    assert code == 0 and json.loads(out)["pass"] is True

    code, out, _ = run_cli(["lorentz", "embed-lemma", "--p", "2", "--r", "1",
                            "--values", "0.3,0.2", "--budget", "3000"], capsys)
    assert code == 0
    assert json.loads(out)["verification"]["pass"] is True


def test_sandwich_rejects_bad_exponents(capsys):
    code, _, err = run_cli(["lorentz", "sandwich", "--p", "2", "--r", "2",
                            "--values", "1,2"], capsys)
    assert code == 1 and "r < p" in err


@pytest.mark.parametrize("argv", [["lorentz", "quasinorm", "--p", "0.5"],
                                  ["lorentz", "sandwich", "--p", "0.5", "--r", "1"]])
def test_lorentz_p_errors_name_the_field(argv, capsys):
    code, _, err = run_cli(argv + ["--values", "1,2"], capsys)
    assert code == 1 and "p: p must lie in (1, inf), got 0.5" in err


def test_constants_estimate_command(tmp_path, capsys):
    lat = write_doc(tmp_path, "l2.json", L2)
    code, out, _ = run_cli(["constants", "estimate", "--lattice", lat, "--kind", "convex",
                            "--p", "2", "--q", "2", "--budget", "500"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["estimate"]["value"] == pytest.approx(1.0, abs=1e-9)
    assert rep["kind"] == {"name": "convex", "p": 2, "q": 2}


@pytest.mark.parametrize("kind, p, q, need", [("concave", "2", "3", "1 <= --q <= --p"),
                                              ("convex", "3", "2", "1 <= --p <= --q")])
def test_constants_estimate_names_flags_in_exponent_errors(tmp_path, capsys, kind, p, q, need):
    lat = write_doc(tmp_path, "l2.json", L2)
    code, out, err = run_cli(["constants", "estimate", "--lattice", lat, "--kind", kind,
                              "--p", p, "--q", q], capsys)
    assert code == 1 and out == ""
    assert f"--kind {kind} needs {need}, got --p={p}, --q={q}" in err


def test_q_convex_bound_command(tmp_path, capsys):
    lat = write_doc(tmp_path, "l2.json", L2)
    code, out, _ = run_cli(["constants", "q-convex-bound", "--lattice", lat,
                            "--q", "1.5", "--budget", "400"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["pass"] is True
    assert rep["bound"] == pytest.approx((2 / 0.5) ** (1 / 1.5) * math.sqrt(2), rel=1e-12)


def test_geom_gauge_inf(tmp_path, capsys):
    body = write_doc(tmp_path, "ray.json", {"generators": [[1.0, 0.0]]})
    code, out, _ = run_cli(["geom", "gauge", "--body", body, "--y", "0,1"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["gauge"] == "inf" and rep["inside_unit_body"] is False

    bad = write_doc(tmp_path, "bad.json", {"generators": [[1.0], [1.0, 2.0]]})
    code, _, err = run_cli(["geom", "gauge", "--body", bad, "--y", "1"], capsys)
    assert code == 1 and "/generators" in err

    bad = write_doc(tmp_path, "nan.json", {"generators": [[1.0, 0.0], [0.5, math.nan]]})
    code, _, err = run_cli(["geom", "gauge", "--body", bad, "--y", "1,1"], capsys)
    assert code == 1 and "/generators/1/1" in err

    # an integer too large for a float is a schema error, not a traceback
    big = write_doc(tmp_path, "big.json", {"generators": [[1, 10 ** 400], [0.5, 1.0]]})
    code, _, err = run_cli(["geom", "gauge", "--body", big, "--y", "1,1"], capsys)
    assert code == 1 and "/generators/0/1" in err


def test_huge_integers_in_operator_and_tensor_documents(tmp_path, capsys):
    big = 10 ** 400
    op = write_doc(tmp_path, "op.json", {**OP_DIAG, "matrix": [[2.0, 0.0], [big, 1.0]]})
    code, _, err = run_cli(["geom", "polarity", "--op", op, "--tau", "2", "--sigma", "2"], capsys)
    assert code == 1 and "/matrix/1/0" in err
    for doc, path in (({**REP_SINGLE, "pairs": [{"x": [3.0, big], "y": [1.0, 1.0]}]}, "/pairs/0/x/1"),
                      ({**REP_SINGLE, "exponents": {**REP_SINGLE["exponents"], "q": big}},
                       "/exponents/q")):
        rep = write_doc(tmp_path, "rep.json", doc)
        code, _, err = run_cli(["ideal", "theta", "--rep", rep], capsys)
        assert code == 1 and path in err


def test_geom_polarity_command(tmp_path, capsys):
    op = write_doc(tmp_path, "op.json", OP_DIAG)
    code, out, _ = run_cli(["geom", "polarity", "--op", op, "--tau", "2",
                            "--sigma", "inf", "--budget", "2500"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["pass"] is True and rep["sigma"] == "inf"


def test_geom_min_factor_command(tmp_path, capsys):
    op = write_doc(tmp_path, "op.json", OP_DIAG)
    code, out, _ = run_cli(["geom", "min-factor", "--op", op, "--tau", "2",
                            "--sigma", "inf", "--budget", "700",
                            "--families", "60"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["checks_pass"] is True
    assert rep["norm_checks"]["U0"] <= 1 + 1e-6
    assert rep["U_matrix"] == [[2, 0], [0, 1]]


def test_geom_min_factor_refuses_sigma_below_tau(tmp_path, capsys):
    op = write_doc(tmp_path, "op.json", OP_DIAG)
    code, out, err = run_cli(["geom", "min-factor", "--op", op, "--tau", "2",
                              "--sigma", "1.5", "--budget", "500", "--families", "40"], capsys)
    assert code == 1 and out == ""
    assert "sigma = 1.5 < tau = 2.0" in err


def test_geom_interpolate_command(tmp_path, capsys):
    b0 = write_doc(tmp_path, "b0.json", {"generators": [[1.0, 0.0], [0.0, 1.0], [0.8, 0.8]]})
    b1 = write_doc(tmp_path, "b1.json", {"generators": [[1.0, 0.2], [0.3, 1.0]]})
    code, out, _ = run_cli(["geom", "interpolate", "--body", b0, "--body2", b1,
                            "--theta", "0.5", "--p", "2", "--q", "2",
                            "--p2", "2", "--q2", "1", "--budget", "300"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["p_theta"] == pytest.approx(4 / 3)
    assert rep["q_theta"] == pytest.approx(4.0)
    assert rep["midpoint_ok"] is True


def test_embed_check_feasible_and_not(tmp_path, capsys):
    lat = write_doc(tmp_path, "l2.json", L2)
    code, out, _ = run_cli(["embed", "check", "--lattice", lat, "--p", "2",
                            "--C", "1.0001", "--a", "0.6,0.8", "--budget", "1200"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["feasible"] is True
    assert rep["pairing"] > 1 - rep["epsilon"]

    pre = write_doc(tmp_path, "pre.json", E54_PRE)
    a = repr(float(math.sqrt(5) / 3))
    code, out, _ = run_cli(["embed", "check", "--lattice", pre, "--p", "2",
                            "--C", "1.0", "--a", ",".join([a] * 3),
                            "--budget", "800"], capsys)
    assert code == 2
    rep = json.loads(out)
    assert rep["feasible"] is False
    assert rep["best_pairing"] < 0.95


def test_embed_c42_command(tmp_path, capsys):
    lat = write_doc(tmp_path, "e54.json", E54)
    b = repr(float(1 / math.sqrt(5)))
    code, out, _ = run_cli(["embed", "c42", "--lattice", lat, "--p", "2",
                            "--b", ",".join([b] * 3),
                            "--covering", "0,1;0,2;1,2", "--l", "2"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["bound"] == pytest.approx(math.sqrt(1.2), abs=1e-12)
    assert rep["exceeds_one"] is True

    code, _, err = run_cli(["embed", "c42", "--lattice", lat, "--p", "2",
                            "--b", ",".join([b] * 3),
                            "--covering", "0,1;1,2", "--l", "2"], capsys)
    assert code == 1 and "multiplicities" in err


def test_ideal_commands(tmp_path, capsys):
    rep_doc = write_doc(tmp_path, "rep.json", REP_SINGLE)
    code, out, _ = run_cli(["ideal", "theta", "--rep", rep_doc, "--budget", "400"], capsys)
    assert code == 0
    assert json.loads(out)["estimate"]["value"] == pytest.approx(5 * math.sqrt(2), abs=1e-9)

    code, out, _ = run_cli(["ideal", "factorize", "--rep", rep_doc, "--budget", "500"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["composition_exact"] is True and rep["product_ok"] is True
    assert rep["u_matrix"] == [[3, 4], [3, 4]]

    # dim_E = 4 is outside oracle scale: the theta comparison is skipped, not passed
    wide = {**REP_SINGLE, "pairs": [{"x": [3.0, 4.0, 0.0, 1.0], "y": [1.0, 1.0]},
                                    {"x": [0.0, 1.0, 2.0, 0.0], "y": [0.0, 1.0]}],
            "E": {"dim": 4, "norm": {"kind": "lp", "p": 2}}}
    code, out, _ = run_cli(["ideal", "factorize", "--rep", write_doc(tmp_path, "wide.json", wide),
                            "--budget", "400"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["composition_exact"] is True and rep["oracle_scale"] is False
    assert rep["product_ok"] is None

    bad = dict(REP_SINGLE)
    bad["exponents"] = {"p": 2, "p2": 3, "q": 2, "q2": 1}
    bad_doc = write_doc(tmp_path, "bad_rep.json", bad)
    code, _, err = run_cli(["ideal", "theta", "--rep", bad_doc], capsys)
    assert code == 1 and "/exponents" in err


def test_ideal_factorize_truncation_and_zero_side(tmp_path, capsys):
    rep_doc = write_doc(tmp_path, "rep.json", REP_SINGLE)
    for trunc in ("0", "-1"):  # a traceback and a numpy shape error before the check
        code, out, err = run_cli(["ideal", "factorize", "--rep", rep_doc, "--trunc", trunc], capsys)
        assert (code, out, err) == (1, "", "error: truncation length must be at least 1\n")
    # every y zero: the zero concavity constant used to fail the factorization with exit 1
    zero_y = {**REP_SINGLE, "pairs": [{"x": [3.0, 4.0], "y": [0.0, 0.0]}, {"x": [1.0, 0.0], "y": [0.0, 0.0]}]}
    code, out, _ = run_cli(["ideal", "factorize", "--rep", write_doc(tmp_path, "zero_y.json", zero_y),
                            "--budget", "400"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["u_matrix"] == [[0, 0], [0, 0]] and rep["K_concave_S"] == 0.0
    assert rep["composition_exact"] is True and rep["product_ok"] is True


def test_ideal_multiplier_command(tmp_path, capsys):
    src = write_doc(tmp_path, "src.json",
                    {"dim": 3, "norm": {"kind": "lorentz_pinfty", "p": 3, "r": 1,
                                        "weights": [1.0, 0.5, 2.0]}})
    tgt = write_doc(tmp_path, "tgt.json", {"dim": 3, "norm": {"kind": "lp", "p": 2}})
    code, out, _ = run_cli(["ideal", "multiplier", "--g", "1,0.5,2",
                            "--source", src, "--target", tgt, "--budget", "400"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["pass"] is True
    assert rep["K_convex"] <= rep["norm_D"] + 1e-6


def test_reproduce_suite_all_exit_zero(capsys):
    for argv in (
        ["reproduce", "lpinfty-lp", "--p", "2", "--n", "8"],
        ["reproduce", "example54", "--p", "2", "--budget", "1500"],
        ["reproduce", "renorming", "--budget", "3000"],
        ["reproduce", "embedding-lemma", "--budget", "4000"],
        ["reproduce", "polarity", "--budget", "1500"],
    ):
        code, out, err = run_cli(argv, capsys)
        assert code == 0, (argv, err)
        assert json.loads(out)["pass"] is True


def test_reproduce_lpinfty_report_values(capsys):
    code, out, _ = run_cli(["reproduce", "lpinfty-lp", "--p", "2", "--n", "2"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["A_n"] == pytest.approx(1.082392200292394, abs=1e-12)
    assert rep["unit_norms_ok"] and rep["vee_ratio_matches"]


def test_byte_identical_reports(tmp_path, capsys):
    lat = write_doc(tmp_path, "wl.json", WL)
    rep_doc = write_doc(tmp_path, "rep.json", REP_SINGLE)
    for argv in (
        ["norm", "dual", "--lattice", lat, "--b", "2,-1", "--seed", "5"],
        ["reproduce", "renorming", "--budget", "2000", "--seed", "7"],
        ["ideal", "factorize", "--rep", rep_doc, "--budget", "400", "--seed", "3"],
    ):
        outs = []
        for _ in range(2):
            code, out, _ = run_cli(argv, capsys)
            assert code == 0
            outs.append(strip_wall(out))
        assert outs[0] == outs[1], argv
        assert json.loads(outs[0])  # stays parseable after the scrub


def test_console_entry_point():
    proc = subprocess.run([sys.executable, "-m", "latticelab.cli",
                           "constants", "gamma", "--p", "2"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["gamma"] == pytest.approx(math.sqrt(2))


def test_help_exits_zero(capsys):
    code, out, _ = run_cli(["--help"], capsys)
    assert code == 0 and "lattice-lab" in out
