"""Span tracer installed into eisenspec from outside the library.

The tracer wraps the public functions of each layer module, every function
another eisenspec module imports from it (such as ``_completed_L_raw``), and
the public methods and properties of the layer's public classes.  It then
rebinds each wrapped name in every eisenspec module that holds it, including
the defining module, so that calls made inside the library are seen too.
Dunder methods (Weyl composition, permutation lookup) and class or static
methods stay unwrapped; their time counts toward the calling layer.

Spans live in memory as (name, start, end, parent, op, zeta points) and are
written out when the run ends.  Self time is a span's duration minus the time its child
spans cover.  Zeta points are counted at the outermost zeta span only, so
``ratio_L`` calling ``_completed_L_raw`` is counted once.
"""

from __future__ import annotations

import csv
import gzip
import inspect
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = ("zeta", "roots", "intertwine", "gl3", "truncation", "parseval")

# Per-layer metrics with their units; every value is per traced op unless
# its unit says otherwise.
UNITS = {
    "zeta.calls": "calls/op",
    "zeta.points": "points/op",
    "zeta.points_per_call": "points/call",
    "zeta.self_s": "s/op",
    "zeta.points_per_s": "points/s",
    "zeta.share": "fraction",
    "zeta.distinct_frac": "fraction",
    "parseval.calls": "calls/op",
    "parseval.self_s": "s/op",
    "parseval.shifted_norm_gl3.s": "s/op",
    "parseval.contribution_A.s": "s/op",
    "parseval.contribution_B.s": "s/op",
    "parseval.measure_constants.s": "s/op",
    "gl3.calls": "calls/op",
    "gl3.self_s": "s/op",
    "gl3.transverse_residue.s": "s/op",
    "intertwine.calls": "calls/op",
    "intertwine.self_s": "s/op",
    "roots.calls": "calls/op",
    "roots.self_s": "s/op",
    "truncation.calls": "calls/op",
    "truncation.self_s": "s/op",
    "truncation.inner_product_fd.s": "s/op",
    "truncation.eisenstein_theta.s": "s/op",
    "truncation.panels": "panels/op",
    "truncation.evaluations": "evals/op",
    "truncation.kept_panel_frac": "fraction",
    "trace.overhead_frac": "fraction",
}

# Functions whose inclusive time is reported, as layer.function.s
TIMED_FUNCTIONS = tuple(k[:-2] for k in UNITS if k.endswith(".s"))

# The metrics that count work; with one seed they repeat exactly.
COUNTS = tuple(k for k in UNITS if k.endswith((
    ".calls", ".points", "points_per_call", "distinct_frac", ".panels",
    ".evaluations", "kept_panel_frac")))


def _point_arg(fn) -> int | None:
    """Position of the argument a zeta evaluator is evaluated at, if any."""
    try:
        params = list(inspect.signature(fn).parameters)
    except (TypeError, ValueError):
        return None
    for name in ("s", "z"):
        if name in params:
            return params.index(name)
    return None


class Tracer:
    """Records spans around calls into the eisenspec layers."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []
        self._keys: list[str] = []
        self._layer_of: list[str] = []
        self._rebind: list[tuple[object, str, object, object]] | None = None
        # per op: zeta arguments seen at outermost zeta spans, by function
        self._zeta_args: dict[str, list[np.ndarray]] = defaultdict(list)
        self.zeta_distinct = 0
        self.quadrature = {"panels": 0, "evaluations": 0, "evaluated": 0.0}

    # ---------------------------------------------------------- install --

    def _plan(self) -> list[tuple[object, str, object, object]]:
        """(owner, name, original, wrapper) for every name to rebind."""
        modules = [mod for name, mod in sys.modules.items()
                   if name == "eisenspec" or name.startswith("eisenspec.")]
        wrappers = {}
        plan = []
        for layer in LAYERS:
            mod = sys.modules[f"eisenspec.{layer}"]
            public = set(getattr(mod, "__all__", ()))
            for name, fn in vars(mod).items():
                if not (callable(fn) and not isinstance(fn, type)
                        and getattr(fn, "__module__", None) == mod.__name__):
                    continue
                imported = any(vars(m).get(name) is fn
                               for m in modules if m is not mod)
                if name in public or imported:
                    wrappers[id(fn)] = self._wrap(layer, name, fn)
            for cname in sorted(public):
                cls = getattr(mod, cname, None)
                if isinstance(cls, type) and cls.__module__ == mod.__name__:
                    plan.extend(self._class_plan(layer, cls))
        for mod in modules:
            for name, value in vars(mod).items():
                if id(value) in wrappers:
                    plan.append((mod, name, value, wrappers[id(value)]))
        return plan

    def _class_plan(self, layer: str, cls: type):
        for name, attr in vars(cls).items():
            if name.startswith("_"):
                continue
            key = f"{cls.__name__}.{name}"
            if inspect.isfunction(attr):
                yield cls, name, attr, self._wrap(layer, key, attr)
            elif isinstance(attr, property) and attr.fget is not None:
                yield cls, name, attr, property(
                    self._wrap(layer, key, attr.fget), attr.fset, attr.fdel,
                    attr.__doc__)

    def install(self):
        if self._rebind is None:
            self._rebind = self._plan()
        for owner, name, _, wrapper in self._rebind:
            setattr(owner, name, wrapper)

    def uninstall(self):
        for owner, name, original, _ in self._rebind or ():
            setattr(owner, name, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _wrap(self, layer: str, name: str, fn):
        key = len(self._keys)
        self._keys.append(f"{layer}.{name}")
        self._layer_of.append(layer)
        spans, stack, layer_of = self.spans, self._stack, self._layer_of
        clock = time.perf_counter
        point_at = _point_arg(fn) if layer == "zeta" else None
        zeta_args = self._zeta_args[name] if point_at is not None else None
        on_result = (self._on_quadrature
                     if (layer, name) == ("truncation", "inner_product_fd")
                     else None)

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            points = 0
            if zeta_args is not None and (
                    parent < 0 or layer_of[spans[parent][0]] != "zeta"):
                arg = args[point_at] if len(args) > point_at else None
                if arg is not None:
                    arr = np.array(arg, dtype=np.complex128).ravel()
                    zeta_args.append(arr)
                    points = arr.size
            rec = [key, 0.0, 0.0, parent, self.op, points]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def _on_quadrature(self, args, kwargs, result):
        spec = kwargs.get("quad", args[2] if len(args) > 2 else None)
        if spec is None:
            spec = sys.modules["eisenspec.truncation"].QuadratureSpec()
        order = spec.base_order
        self.quadrature["panels"] += result.panels
        self.quadrature["evaluations"] += result.evaluations
        # each panel is sampled by order^2 and (2 order)^2 product nodes
        self.quadrature["evaluated"] += result.evaluations / (5 * order * order)

    # ------------------------------------------------------------- ops --

    def begin_op(self, op: int):
        self.op = op

    def end_op(self):
        """Close the op: count its distinct zeta arguments per function."""
        for args in self._zeta_args.values():
            if args:
                self.zeta_distinct += np.unique(np.concatenate(args)).size
                args.clear()
        self.op = -1

    # ---------------------------------------------------------- results --

    def layer_metrics(self, ops: int, traced_s: float, untraced_s: float) -> dict:
        """Per-layer metrics per op, from the recorded spans."""
        child = [0.0] * len(self.spans)
        for key, t0, t1, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        self_s = defaultdict(float)
        calls = defaultdict(int)
        inclusive = defaultdict(float)
        points = 0
        for idx, (key, t0, t1, parent, _, pts) in enumerate(self.spans):
            layer = self._layer_of[key]
            self_s[layer] += (t1 - t0) - child[idx]
            if parent < 0 or self._layer_of[self.spans[parent][0]] != layer:
                calls[layer] += 1
            inclusive[self._keys[key]] += t1 - t0
            points += pts

        def per_op(v):
            return v / ops

        zeta_self = self_s["zeta"]
        q = self.quadrature
        out = {
            "zeta.calls": per_op(calls["zeta"]),
            "zeta.points": per_op(points),
            "zeta.points_per_call": points / calls["zeta"] if calls["zeta"] else 0.0,
            "zeta.self_s": per_op(zeta_self),
            "zeta.points_per_s": points / zeta_self if zeta_self else 0.0,
            "zeta.share": zeta_self / traced_s,
            "zeta.distinct_frac": self.zeta_distinct / points if points else 0.0,
        }
        for layer in LAYERS[1:]:
            out[f"{layer}.calls"] = per_op(calls[layer])
            out[f"{layer}.self_s"] = per_op(self_s[layer])
        for name in TIMED_FUNCTIONS:
            out[f"{name}.s"] = per_op(inclusive[name])
        out["truncation.panels"] = per_op(q["panels"])
        out["truncation.evaluations"] = per_op(q["evaluations"])
        out["truncation.kept_panel_frac"] = (q["panels"] / q["evaluated"]
                                             if q["evaluated"] else 0.0)
        out["trace.overhead_frac"] = traced_s / untraced_s - 1.0
        return out

    def write(self, path):
        """All spans as gzip CSV, one row per span."""
        with gzip.open(path, "wt", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["index", "name", "start", "end", "parent", "op",
                             "zeta_points"])
            for idx, (key, t0, t1, parent, op, pts) in enumerate(self.spans):
                writer.writerow([idx, self._keys[key], f"{t0:.9f}",
                                 f"{t1:.9f}", parent, op, pts])
