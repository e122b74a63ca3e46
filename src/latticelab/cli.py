"""Command-line front end: one JSON report per invocation.

Subcommands are grouped two levels deep (`lattice-lab constants gamma --p 2`).
Reports carry sorted keys and 17 significant digits, so identical argv
reproduce byte-identical output apart from the wall_time_ms field.  Exit
codes: 0 on success, 2 when a mathematical check fails (the counterexample
rides along in the report), 1 on usage or input errors.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import __version__
from ._util import TOLERANCES, canonical_json, parse_vector_text, rng_for
from .constants import (
    Concave,
    Convex,
    LowerEstimate,
    UpperEstimate,
    check_q_convexity_bound,
    estimate_constant,
    gamma,
    identity_operator,
    reproduce_lpinfty_lp,
)
from .convexgeom import (
    SolidConvexBody,
    build_minimal_factorization,
    gauge,
    interpolate_theta,
    verify_polarity,
)
from .core import (
    AtomicMeasure,
    GaugeOf,
    LatticeSchemaError,
    LinOperator,
    Lp,
    NormedLattice,
    SymmetricSeqNorm,
    eval_dual_norm,
    eval_norm,
    lattice_from_dict,
    lattice_to_dict,
    _built,
    _json_floats,
    _parse_exponent,
    _want,
)
from .embedcert import (
    CoveringFamily,
    EmbeddingCertificate,
    c42_bound,
    reproduce_example54,
    t41_check,
)
from .idealnorms import (
    TensorRep,
    build_eta_factorization,
    multiplication_operator_check,
    theta_lower,
)
from .lorentz import (
    StepFunction,
    build_weakLp_embedding,
    check_renorming_sandwich,
    norm_pinfty_r,
    quasinorm_pinfty,
    rearrange,
    subset_mask_chunks,
)

__all__ = [
    "DEFAULT_TOLERANCES",
    "RunConfig",
    "load_lattice",
    "main",
    "run_command",
    "serialize_lattice",
]


# The library's table of named check tolerances: each builder decides its
# verdicts from it, and --tol NAME=VALUE may only loosen an entry.
DEFAULT_TOLERANCES = TOLERANCES


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse would sys.exit(2); route usage problems through exit code 1
    def error(self, message):
        raise _UsageError(f"{message}\n{self.format_usage().rstrip()}")


@dataclass(frozen=True)
class RunConfig:
    """Per-invocation knobs shared by every subcommand."""

    seed: int = 0
    budget: int = 10000
    overrides: tuple = ()  # sorted (check-name, loosened-value) pairs
    out: str | None = None

    def __post_init__(self):
        if not 0 <= int(self.seed) < 2 ** 64:
            raise _UsageError("--seed must fit in 64 unsigned bits")
        if int(self.budget) < 1:
            raise _UsageError("--budget must be a positive integer")
        object.__setattr__(self, "overrides", tuple(sorted(self.overrides)))

    @staticmethod
    def from_args(args) -> "RunConfig":
        pairs = []
        for item in getattr(args, "tol", None) or ():
            name, sep, raw = item.partition("=")
            if not sep:
                raise _UsageError(f"--tol expects NAME=VALUE, got {item!r}")
            if name not in DEFAULT_TOLERANCES:
                known = ", ".join(sorted(DEFAULT_TOLERANCES))
                raise _UsageError(f"unknown check name {name!r}; known: {known}")
            try:
                val = float(raw)
            except ValueError:
                raise _UsageError(f"--tol {name} needs a real value, got {raw!r}") from None
            if not val >= DEFAULT_TOLERANCES[name]:
                raise _UsageError(
                    f"tolerance overrides may only loosen: {name} defaults to "
                    f"{DEFAULT_TOLERANCES[name]:g}, got {val:g}"
                )
            pairs.append((name, val))
        return RunConfig(args.seed, args.budget, tuple(pairs), args.out)

    @property
    def tolerances(self):  # the table with the --tol overrides applied
        return {**DEFAULT_TOLERANCES, **dict(self.overrides)}

    def tol(self, name: str) -> float:
        return self.tolerances[name]

    def as_dict(self) -> dict:
        return {
            "seed": int(self.seed),
            "budget": int(self.budget),
            "tolerance_overrides": dict(self.overrides),
            "out": self.out,
        }


def number(text: str) -> float:
    if text == "inf":
        return math.inf
    return float(text)


def seq_norm(text: str) -> SymmetricSeqNorm:
    return SymmetricSeqNorm(number(text))


# ---------------------------------------------------------------------------
# document loading


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as e:
        raise _UsageError(f"{path}: invalid JSON: {e}") from None


def load_lattice(path: str) -> NormedLattice:
    """Parse and invariant-check a lattice document."""
    return lattice_from_dict(_load_json(path))


def serialize_lattice(lat: NormedLattice) -> str:
    """Canonical serialization; load o serialize is the identity byte-wise."""
    return canonical_json(lattice_to_dict(lat))


def _load_operator(path: str) -> LinOperator:
    doc = _load_json(path)
    mat = _json_floats(_want(doc, "matrix", "", list, "a list of rows"), "/matrix", 2)
    domain = lattice_from_dict(_want(doc, "source", "", dict, "a lattice document"), "/source")
    codomain = lattice_from_dict(_want(doc, "target", "", dict, "a lattice document"), "/target")
    try:
        return LinOperator(mat, domain, codomain)
    except ValueError as e:
        raise LatticeSchemaError("/matrix", str(e)) from None


def _load_rep(path: str):
    """Tensor representation document -> (TensorRep, E, F)."""
    doc = _load_json(path)
    raw = _want(doc, "pairs", "", list, "a nonempty list of {x, y} objects")
    pairs = tuple(tuple(_json_floats(_want(pr, side, f"/pairs/{i}", list, "a nonempty vector"),
                                     f"/pairs/{i}/{side}", 1) for side in ("x", "y"))
                  for i, pr in enumerate(raw))
    exps = _want(doc, "exponents", "", dict, "an object with p, p2, q, q2")
    p, p2, q, q2 = (_parse_exponent(exps, k, "/exponents") for k in ("p", "p2", "q", "q2"))
    rep = _built("", TensorRep, pairs, p, p2, q, q2)
    E = lattice_from_dict(_want(doc, "E", "", dict, "a lattice document"), "/E")
    F = lattice_from_dict(_want(doc, "F", "", dict, "a lattice document"), "/F")
    if E.dim != rep.dim_E:
        raise LatticeSchemaError("/E/dim", f"pairs live in dimension {rep.dim_E}, E says {E.dim}")
    if F.dim != rep.dim_F:
        raise LatticeSchemaError("/F/dim", f"pairs live in dimension {rep.dim_F}, F says {F.dim}")
    return rep, E, F


def _vector(args, flag: str, dim: int | None = None) -> np.ndarray:
    vec = parse_vector_text(getattr(args, flag.lstrip("-").replace("-", "_")))
    if dim is not None and vec.shape[0] != dim:
        raise _UsageError(f"{flag} has {vec.shape[0]} entries, expected {dim}")
    return vec


def _step_from_args(args) -> StepFunction:
    vals = parse_vector_text(args.values)
    if args.weights is None:
        measure = AtomicMeasure.counting(vals.shape[0])
    else:
        w = parse_vector_text(args.weights)
        if w.shape[0] != vals.shape[0]:
            raise _UsageError(
                f"--weights has {w.shape[0]} entries, --values has {vals.shape[0]}"
            )
        measure = AtomicMeasure(tuple(w.tolist()))
    return StepFunction(tuple(vals.tolist()), measure)


# ---------------------------------------------------------------------------
# handlers: each returns (payload, exit code)


def _cmd_norm_eval(args, cfg):
    X = load_lattice(args.lattice)
    x = _vector(args, "--x", X.dim)
    return {"lattice": lattice_to_dict(X), "x": x.tolist(), "norm": eval_norm(X, x)}, 0


def _cmd_norm_dual(args, cfg):
    X = load_lattice(args.lattice)
    b = _vector(args, "--b", X.dim)
    est = {k: v for k, v in eval_dual_norm(X, b).as_dict().items() if k not in ("budget", "seed")}
    return {"lattice": lattice_to_dict(X), "b": b.tolist(), "estimate": est}, 0


def _cmd_lorentz_rearrange(args, cfg):
    f = _step_from_args(args)
    rs = rearrange(f)
    return {
        "values": list(f.values),
        "weights": list(f.measure.weights),
        "rearranged_values": list(rs.values),
        "breakpoints": list(rs.breakpoints),
    }, 0


def _cmd_lorentz_quasinorm(args, cfg):
    f = _step_from_args(args)
    return {
        "p": args.p,
        "values": list(f.values),
        "weights": list(f.measure.weights),
        "quasinorm": quasinorm_pinfty(f, args.p),
    }, 0


def _cmd_lorentz_sandwich(args, cfg):
    f = _step_from_args(args)
    rep = check_renorming_sandwich(f, args.p, args.r, tol=cfg.tol("sandwich"))
    payload = {"p": args.p, "r": args.r, **rep}
    return payload, (0 if rep["pass"] else 2)


def _cmd_lorentz_embed_lemma(args, cfg):
    f = _step_from_args(args)
    out = build_weakLp_embedding(f, args.p, args.r, samples=max(100, cfg.budget // 10),
                                 seed=cfg.seed, tol=cfg.tolerances)
    return {"p": args.p, "r": args.r, **out}, (0 if out["verification"]["pass"] else 2)


_KIND_NAMES = ("convex", "concave", "upper", "lower")


def _cmd_constants_estimate(args, cfg):
    X = load_lattice(args.lattice)
    p, q = args.p, args.q
    if args.kind in ("convex", "concave"):
        q2 = p if q is None else q
        convex = args.kind == "convex"
        # Convex and Concave name their fields in errors; state the condition in flags
        (lo, hi), need = ((p, q2), "--p <= --q") if convex else ((q2, p), "--q <= --p")
        if not 1 <= lo <= hi:
            raise _UsageError(f"--kind {args.kind} needs 1 <= {need}, got --p={p:g}, --q={q2:g}")
        kind = (Convex if convex else Concave)(p, q2)
    elif args.kind == "upper":
        kind = UpperEstimate(p)
    else:
        kind = LowerEstimate(p)
    est = estimate_constant(identity_operator(X), kind, budget=cfg.budget, seed=cfg.seed)
    return {
        "lattice": lattice_to_dict(X),
        "kind": {"name": args.kind, "p": p, "q": q},
        "estimate": est.as_dict(),
    }, 0


def _cmd_constants_gamma(args, cfg):
    return {"p": args.p, "gamma": gamma(args.p)}, 0


def _cmd_constants_qconvex(args, cfg):
    X = load_lattice(args.lattice)
    rep = check_q_convexity_bound(X, args.q, budget=cfg.budget, seed=cfg.seed,
                                  tol=cfg.tolerances)
    return {"lattice": lattice_to_dict(X), **rep}, (0 if rep["pass"] else 2)


def _cmd_geom_gauge(args, cfg):
    body = SolidConvexBody.from_dict(_load_json(args.body))
    y = _vector(args, "--y", body.dim)
    val = gauge(body, y)
    return {
        "dim": body.dim,
        "generator_count": len(body.generators),
        "y": y.tolist(),
        "gauge": val,
        "inside_unit_body": bool(val <= 1 + 1e-9),
    }, 0


def _cmd_geom_polarity(args, cfg):
    T = _load_operator(args.op)
    rep = verify_polarity(T, args.tau, args.sigma, sample_count=cfg.budget, seed=cfg.seed)
    payload = {"tau": args.tau.p, "sigma": args.sigma.p, **rep}
    return payload, (0 if rep["pass"] else 2)


def _cmd_geom_min_factor(args, cfg):
    T = _load_operator(args.op)
    fac = build_minimal_factorization(T, args.tau, args.sigma, budget=cfg.budget,
                                      seed=cfg.seed, check_families=args.families)
    body = fac.Y.norm.body if isinstance(fac.Y.norm, GaugeOf) else None
    payload = {
        "tau": args.tau.p,
        "sigma": args.sigma.p,
        "U_matrix": fac.U.matrix.tolist(),
        "V_matrix": fac.V.matrix.tolist(),
        "Y_generator_count": (0 if body is None else len(body.generators)),
        **fac.report,
    }
    return payload, (0 if fac.report["checks_pass"] else 2)


def _cmd_geom_interpolate(args, cfg):
    C0 = SolidConvexBody.from_dict(_load_json(args.body))
    C1 = SolidConvexBody.from_dict(_load_json(args.body2))
    out = interpolate_theta(C0, C1, args.theta, args.p, args.q,
                            {"p2": args.p2, "q2": args.q2},
                            budget=cfg.budget, seed=cfg.seed)
    payload = {
        "theta": args.theta,
        "p": args.p,
        "q": args.q,
        "p2": args.p2,
        "q2": args.q2,
        "p_theta": out["p_theta"],
        "q_theta": out["q_theta"],
        "pbar2": out["pbar2"],
        "qbar2": out["qbar2"],
        "generator_count": len(out["C_theta"].generators),
        "midpoint_gauge_max": out["midpoint_gauge_max"],
        "midpoint_ok": out["midpoint_ok"],
    }
    return payload, (0 if out["midpoint_ok"] else 2)


def _cmd_embed_check(args, cfg):
    X = load_lattice(args.lattice)
    a = _vector(args, "--a", X.dim)
    res = t41_check(X, args.p, args.C, a, epsilon=args.epsilon,
                    budget=cfg.budget, seed=cfg.seed)
    if isinstance(res, EmbeddingCertificate):
        return {"p": args.p, **res.as_dict()}, 0
    return dict(res), 2


def _cmd_embed_c42(args, cfg):
    X = load_lattice(args.lattice)
    b = _vector(args, "--b", X.dim)
    sets = []
    for part in args.covering.split(";"):
        part = part.strip()
        if not part:
            continue
        try:
            sets.append(tuple(int(t) for t in part.replace(",", " ").split()))
        except ValueError:
            raise _UsageError(f"--covering sets must be integer lists, got {part!r}") from None
    covering = CoveringFamily(tuple(sets), args.l)
    val = c42_bound(X.norm, args.p, b, covering)
    return {
        "p": args.p,
        "b": b.tolist(),
        "covering": [list(s) for s in covering.sets],
        "l": covering.l,
        "bound": val,
        "exceeds_one": bool(val > 1.0),
    }, 0


def _cmd_example54(args, cfg):
    rep = reproduce_example54(args.p, budget=cfg.budget, seed=cfg.seed, tol=cfg.tolerances)
    return rep, (0 if rep["pass"] else 2)


def _cmd_ideal_theta(args, cfg):
    rep, E, F = _load_rep(args.rep)
    est = theta_lower(rep, E.norm, F.norm, trunc_len=args.trunc,
                      budget=cfg.budget, seed=cfg.seed)
    return {"rep": rep.to_dict(), "trunc_len": args.trunc, "estimate": est.as_dict()}, 0


def _cmd_ideal_factorize(args, cfg):
    rep, E, F = _load_rep(args.rep)
    out = build_eta_factorization(rep, E.norm, F.norm, trunc_len=args.trunc,
                                  budget=cfg.budget, seed=cfg.seed, tol=cfg.tolerances)
    K_R, K_S = out["product_bound"]
    payload = {
        "rep": rep.to_dict(),
        "dim_Z": out["Z"].dim,
        "R_matrix": out["R"].matrix.tolist(),
        "S_matrix": out["S"].matrix.tolist(),
        "u_matrix": out["u_matrix"].tolist(),
        "K_convex_R": K_R,
        "K_concave_S": K_S,
        "product_bound": K_R * K_S,
        "theta_lower": out["theta"],
        "oracle_scale": out["oracle_scale"],
        "product_ok": out["product_ok"],
    }
    return payload, (0 if out["product_ok"] is not False else 2)


def _cmd_ideal_multiplier(args, cfg):
    g = parse_vector_text(args.g)
    source = load_lattice(args.source)
    target = load_lattice(args.target)
    rep = multiplication_operator_check(g, source, target, budget=cfg.budget, seed=cfg.seed)
    return {"g": g.tolist(), **rep}, (0 if rep["pass"] else 2)


def _cmd_repro_lpinfty(args, cfg):
    rep = reproduce_lpinfty_lp(args.p, args.n, tol=cfg.tolerances)
    return rep, (0 if rep["pass"] else 2)


def _cmd_repro_renorming(args, cfg):
    tol = cfg.tol("sandwich")
    trials = max(20, cfg.budget // 200)
    combos = []
    all_pass = True
    for p in (1.5, 2.0, 3.0):
        for r in (1.0, 1.2, (p + 1) / 2):
            rng = rng_for(cfg.seed, "cli-renorm", p, r)
            failures = 0
            ratio_max = 0.0
            for _ in range(trials):
                n = int(rng.integers(1, 13))
                vals = rng.standard_normal(n) * 10.0 ** rng.uniform(-2, 2)
                w = rng.uniform(0.2, 3.0, size=n)
                f = StepFunction(tuple(vals.tolist()), AtomicMeasure(tuple(w.tolist())))
                rep = check_renorming_sandwich(f, p, r, tol=tol)
                ratio_max = max(ratio_max, rep["ratio"])
                if not rep["pass"]:
                    failures += 1
            ok = failures == 0
            all_pass = all_pass and ok
            combos.append({
                "p": p,
                "r": r,
                "trials": trials,
                "failures": failures,
                "max_ratio": ratio_max,
                "upper_factor": (p / (p - r)) ** (1.0 / r),
                "pass": ok,
            })
    # superlevel-set scan against full subset enumeration on the counting measure
    rng = rng_for(cfg.seed, "cli-renorm-prefix")
    gap = 0.0
    for p, r in ((2.0, 1.0), (3.0, 1.5), (1.5, 1.2)):
        for _ in range(5):
            n = int(rng.integers(2, 13))
            vals = rng.standard_normal(n)
            f = StepFunction(tuple(vals.tolist()), AtomicMeasure.counting(n))
            masks = np.vstack(list(subset_mask_chunks(n)))
            sizes = masks.sum(axis=1)
            best = float(np.max(sizes ** (1.0 / p - 1.0 / r)
                                * (masks @ np.abs(vals) ** r) ** (1.0 / r)))
            gap = max(gap, abs(norm_pinfty_r(f, p, r) - best))
    prefix_ok = bool(gap <= 1e-12)
    all_pass = bool(all_pass and prefix_ok)
    payload = {
        "combos": combos,
        "prefix_vs_subsets_gap": gap,
        "prefix_matches_subsets": prefix_ok,
        "pass": all_pass,
    }
    return payload, (0 if all_pass else 2)


def _cmd_repro_embed_lemma(args, cfg):
    rng = rng_for(cfg.seed, "cli-embed-lemma")
    count = max(5, min(50, cfg.budget // 500))
    samples = max(300, cfg.budget // 30)
    trials = []
    all_pass = True
    for _ in range(count):
        n = int(rng.integers(1, 7))
        p = float(rng.uniform(1.4, 4.0))
        r = float(rng.uniform(1.0, (p + 1.0) / 2.0))
        w = rng.uniform(0.3, 2.0, size=n)
        vals = rng.uniform(0.2, 2.0, size=n)
        M = float(w.sum())
        C0 = M ** (1.0 / p - 1.0 / r) * float(np.sum(w * vals ** r)) ** (1.0 / r)
        vals = vals * (float(rng.uniform(0.3, 1.0)) / C0)  # lands C in (0, 1]
        f = StepFunction(tuple(vals.tolist()), AtomicMeasure(tuple(w.tolist())))
        out = build_weakLp_embedding(f, p, r, samples=samples, seed=cfg.seed,
                                     tol=cfg.tolerances)
        ver = out["verification"]
        all_pass = all_pass and ver["pass"]
        trials.append({
            "n": n,
            "p": p,
            "r": r,
            "C": out["C"],
            "max_violation": ver["max_violation"],
            "Sa_norm": ver["Sa_norm"],
            "C_to_r": ver["C_to_r"],
            "pass": ver["pass"],
        })
    return {"count": count, "trials": trials, "pass": bool(all_pass)}, (0 if all_pass else 2)


def _cmd_repro_polarity(args, cfg):
    rng = rng_for(cfg.seed, "cli-polarity")
    cases = []
    all_pass = True
    plan = (
        (1, 2.0, 2.0, 2.0),
        (2, 2.0, math.inf, 2.0),
        (2, 1.5, 1.5, 3.0),
    )
    for n, tau_p, sigma_p, space_p in plan:
        mat = rng.standard_normal((n, n))
        X = NormedLattice(n, Lp(space_p))
        T = LinOperator(mat, X, NormedLattice(n, Lp(space_p)))
        rep = verify_polarity(T, SymmetricSeqNorm(tau_p), SymmetricSeqNorm(sigma_p),
                              sample_count=cfg.budget, seed=cfg.seed)
        all_pass = all_pass and rep["pass"]
        cases.append({
            "dims": n,
            "space_p": space_p,
            "tau": tau_p,
            "sigma": sigma_p,
            "pass": rep["pass"],
            "enrichment_rounds": rep["enrichment_rounds"],
            "generator_count": rep["generator_count"],
            "checked_a": rep["direction_a"]["checked"],
            "checked_b": rep["direction_b"]["checked"],
        })
    return {"cases": cases, "pass": bool(all_pass)}, (0 if all_pass else 2)


# ---------------------------------------------------------------------------
# parser assembly


def _build_parser() -> _Parser:
    top = _Parser(prog="lattice-lab",
                  description="Lattice renorming, convexity constant, and "
                              "factorization toolkit.")
    top.add_argument("--version", action="version", version=__version__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="rng seed (default 0)")
    common.add_argument("--budget", type=int, default=10000,
                        help="search/sampling budget (default 10000)")
    common.add_argument("--out", default=None, help="write the JSON report here")
    common.add_argument("--tol", action="append", default=[], metavar="NAME=VALUE",
                        help="loosen a named check tolerance")

    groups = top.add_subparsers(dest="group", metavar="GROUP", required=True)

    def cmd(grp, name, handler, **flags):
        sub = grp.add_parser(name, parents=[common])
        for flag, spec in flags.items():
            sub.add_argument(flag, **spec)
        sub.set_defaults(handler=handler)
        return sub

    req_f = {"type": number, "required": True}
    opt_f = {"type": number, "default": None}

    norm = top_group(groups, "norm")
    cmd(norm, "eval", _cmd_norm_eval,
        **{"--lattice": {"required": True}, "--x": {"required": True}})
    cmd(norm, "dual", _cmd_norm_dual,
        **{"--lattice": {"required": True}, "--b": {"required": True}})

    lor = top_group(groups, "lorentz")
    step_flags = {"--values": {"required": True}, "--weights": {"default": None}}
    cmd(lor, "rearrange", _cmd_lorentz_rearrange, **step_flags)
    cmd(lor, "quasinorm", _cmd_lorentz_quasinorm, **{"--p": req_f, **step_flags})
    cmd(lor, "sandwich", _cmd_lorentz_sandwich,
        **{"--p": req_f, "--r": req_f, **step_flags})
    cmd(lor, "embed-lemma", _cmd_lorentz_embed_lemma,
        **{"--p": req_f, "--r": req_f, **step_flags})

    cons = top_group(groups, "constants")
    cmd(cons, "estimate", _cmd_constants_estimate,
        **{"--lattice": {"required": True},
           "--kind": {"required": True, "choices": _KIND_NAMES},
           "--p": req_f, "--q": opt_f})
    cmd(cons, "gamma", _cmd_constants_gamma, **{"--p": req_f})
    cmd(cons, "q-convex-bound", _cmd_constants_qconvex,
        **{"--lattice": {"required": True}, "--q": req_f})

    geom = top_group(groups, "geom")
    cmd(geom, "gauge", _cmd_geom_gauge,
        **{"--body": {"required": True}, "--y": {"required": True}})
    cmd(geom, "polarity", _cmd_geom_polarity,
        **{"--op": {"required": True},
           "--tau": {"type": seq_norm, "required": True},
           "--sigma": {"type": seq_norm, "required": True}})
    cmd(geom, "min-factor", _cmd_geom_min_factor,
        **{"--op": {"required": True},
           "--tau": {"type": seq_norm, "required": True},
           "--sigma": {"type": seq_norm, "required": True},
           "--families": {"type": int, "default": 200}})
    cmd(geom, "interpolate", _cmd_geom_interpolate,
        **{"--body": {"required": True}, "--body2": {"required": True},
           "--theta": req_f, "--p": req_f, "--q": req_f,
           "--p2": req_f, "--q2": req_f})

    emb = top_group(groups, "embed")
    cmd(emb, "check", _cmd_embed_check,
        **{"--lattice": {"required": True}, "--p": req_f, "--C": req_f,
           "--a": {"required": True},
           "--epsilon": {"type": number, "default": 1e-3}})
    cmd(emb, "c42", _cmd_embed_c42,
        **{"--lattice": {"required": True}, "--p": req_f,
           "--b": {"required": True}, "--covering": {"required": True},
           "--l": {"type": int, "required": True}})
    cmd(emb, "example54", _cmd_example54, **{"--p": req_f})

    ide = top_group(groups, "ideal")
    cmd(ide, "theta", _cmd_ideal_theta,
        **{"--rep": {"required": True}, "--trunc": {"type": int, "default": 2}})
    cmd(ide, "factorize", _cmd_ideal_factorize,
        **{"--rep": {"required": True}, "--trunc": {"type": int, "default": 2}})
    cmd(ide, "multiplier", _cmd_ideal_multiplier,
        **{"--g": {"required": True}, "--source": {"required": True},
           "--target": {"required": True}})

    rep = top_group(groups, "reproduce")
    cmd(rep, "lpinfty-lp", _cmd_repro_lpinfty,
        **{"--p": {"type": number, "default": 2.0}, "--n": {"type": int, "default": 8}})
    cmd(rep, "example54", _cmd_example54, **{"--p": {"type": number, "default": 2.0}})
    cmd(rep, "renorming", _cmd_repro_renorming)
    cmd(rep, "embedding-lemma", _cmd_repro_embed_lemma)
    cmd(rep, "polarity", _cmd_repro_polarity)
    return top


def top_group(groups, name):
    sub = groups.add_parser(name)
    inner = sub.add_subparsers(dest="cmd", metavar="COMMAND", required=True)
    return inner


def _emit(report: dict, out: str | None):
    text = canonical_json(report) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def run_command(argv) -> int:
    """Parse argv, run the handler, and emit the report; returns the exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    t0 = time.perf_counter()
    try:
        cfg = RunConfig.from_args(args)
        payload, code = args.handler(args, cfg)
    except _UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as e:
        # LatticeSchemaError and json decoding issues arrive here too
        print(f"error: {e}", file=sys.stderr)
        return 1
    report = {
        "command": f"{args.group} {args.cmd}",
        "config": cfg.as_dict(),
        "version": __version__,
        "wall_time_ms": int(round((time.perf_counter() - t0) * 1000.0)),
    }
    report.update(payload)
    try:
        _emit(report, cfg.out)
    except OSError as e:
        print(f"error: cannot write report: {e}", file=sys.stderr)
        return 1
    return code


def main(argv=None) -> int:
    try:
        return run_command(sys.argv[1:] if argv is None else argv)
    except SystemExit as e:  # --help / --version
        return int(e.code or 0)


if __name__ == "__main__":
    sys.exit(main())
