"""Layer spans around latticelab's public functions, installed from outside.

``Tracer.install()`` rebinds each traced function in every latticelab module
that holds it (the defining module, every module that did
``from .core import eval_norm``, and the package namespace), so calls between
modules are caught too.  scipy's ``linprog`` and ``minimize`` are wrapped only
in the namespace of the latticelab module that imported them, and are named
after it.  Each span records its parent; a function's self time is its span
minus the time its child spans cover.  Spans stay in memory until
``write_spans``.
"""

from __future__ import annotations

import gzip
import hashlib
import importlib
import json
import time

import numpy as np

# module -> functions it defines that get a span
LAYERS = {
    "core": ("eval_norm", "eval_dual_norm", "norming_functional", "as_vector"),
    "lorentz": ("norm_pinfty_r_argmax", "norm_q1", "quasinorm_pinfty"),
    "convexgeom": ("gauge", "gauge_norming", "support_function", "build_C_body",
                   "search_D_violation", "verify_polarity", "build_minimal_factorization"),
    "constants": ("estimate_constant", "ratio"),
    "embedcert": ("t41_check",),
    "idealnorms": ("theta_lower", "theta_value", "build_eta_factorization"),
    "cli": ("run_command",),
    "_util": ("canonical_json",),
}
# module -> scipy solvers it imported by name
SOLVERS = {"core": ("linprog", "minimize"), "convexgeom": ("linprog",),
           "embedcert": ("linprog",)}


def _span_name(module: str, fn: str) -> str:
    # metric names must start with a letter: _util.canonical_json -> util.canonical_json
    return f"{module.lstrip('_')}.{fn}"


SPAN_NAMES = tuple(_span_name(m, f) for m, fs in LAYERS.items() for f in fs) + tuple(
    _span_name(m, f) for m, fs in SOLVERS.items() for f in fs)
COUNTERS = ("lorentz.subset_mask_chunks.rows", "convexgeom.gauge.repeat_calls")


def metric_names() -> list:
    """Every per-layer metric a traced run reports, in a fixed order."""
    out = []
    for name in SPAN_NAMES:
        out += [f"{name}.calls", f"{name}.self_s"]
    return out + list(COUNTERS)


class Tracer:
    def __init__(self):
        self.spans = []          # (id, parent id or -1, name, start, end)
        self.stack = []          # [(span id, [child seconds])]
        self.calls = dict.fromkeys(SPAN_NAMES, 0)
        self.self_s = dict.fromkeys(SPAN_NAMES, 0.0)
        self.counts = dict.fromkeys(COUNTERS, 0)
        self._gauge_seen = set()
        self._patches = []       # (namespace, name, original)
        self._next_id = 0

    # -- spans -------------------------------------------------------------

    def _call(self, name, fn, args, kwargs):
        sid = self._next_id
        self._next_id += 1
        parent = self.stack[-1][0] if self.stack else -1
        child = [0.0]
        self.stack.append((sid, child))
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self.stack.pop()
            dur = t1 - t0
            self.calls[name] += 1
            self.self_s[name] += dur - child[0]
            if self.stack:
                self.stack[-1][1][0] += dur
            self.spans.append((sid, parent, name, t0, t1))

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            return self._call(name, fn, args, kwargs)
        return traced

    def _wrap_gauge(self, name, fn):
        def traced(body, y, *args, **kwargs):
            out = self._call(name, fn, (body, y) + args, kwargs)
            # (body, |y|) identity by content: bodies are rebuilt as new objects
            key = (hashlib.blake2b(body.gen_matrix.tobytes(), digest_size=16).digest(),
                   np.abs(np.asarray(y, dtype=float)).tobytes())
            if key in self._gauge_seen:
                self.counts["convexgeom.gauge.repeat_calls"] += 1
            self._gauge_seen.add(key)
            return out
        return traced

    def _wrap_chunks(self, fn):
        # consume the generator here, so its work is not billed to the caller
        def traced(*args, **kwargs):
            chunks = list(fn(*args, **kwargs))
            self.counts["lorentz.subset_mask_chunks.rows"] += sum(c.shape[0] for c in chunks)
            return iter(chunks)
        return traced

    # -- patching ----------------------------------------------------------

    def install(self):
        pkg = importlib.import_module("latticelab")
        namespaces = [pkg] + [importlib.import_module(f"latticelab.{m}") for m in LAYERS]
        targets = []
        for mod, names in LAYERS.items():
            module = importlib.import_module(f"latticelab.{mod}")
            for fname in names:
                fn = getattr(module, fname)
                if fname == "gauge":
                    wrapped = self._wrap_gauge(_span_name(mod, fname), fn)
                else:
                    wrapped = self._wrap(_span_name(mod, fname), fn)
                targets.append((fn, wrapped))
        lorentz = importlib.import_module("latticelab.lorentz")
        targets.append((lorentz.subset_mask_chunks, self._wrap_chunks(lorentz.subset_mask_chunks)))
        for fn, wrapped in targets:
            for ns in namespaces:
                for key, val in list(vars(ns).items()):
                    if val is fn:
                        self._patch(ns, key, wrapped)
        for mod, names in SOLVERS.items():
            module = importlib.import_module(f"latticelab.{mod}")
            for fname in names:
                self._patch(module, fname, self._wrap(_span_name(mod, fname), getattr(module, fname)))

    def _patch(self, ns, key, value):
        self._patches.append((ns, key, getattr(ns, key)))
        setattr(ns, key, value)

    def uninstall(self):
        for ns, key, original in reversed(self._patches):
            setattr(ns, key, original)
        self._patches.clear()

    # -- output ------------------------------------------------------------

    def metrics(self) -> dict:
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = (self.calls[name], "count")
            out[f"{name}.self_s"] = (self.self_s[name], "s")
        for name in COUNTERS:
            out[name] = (self.counts[name], "count")
        return out

    def write_spans(self, path):
        """Gzipped lines of one JSON object per span, times in seconds from
        the first span."""
        t0 = min((s[3] for s in self.spans), default=0.0)
        with gzip.open(path, "wt") as fh:
            for sid, parent, name, start, end in sorted(self.spans):
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": round(start - t0, 9),
                                     "end": round(end - t0, 9)}) + "\n")
