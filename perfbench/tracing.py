"""Spans and counters recorded around the public functions of each module.

The program is not changed: after ``import latbounds.cli`` every module
binding of a traced function is replaced by a wrapper.  Modules import
with ``from .x import y``, so one function can be bound in several modules
(``lll_reduce`` in lattice, enumeration and verify); each binding is
replaced, or calls through it would go unseen.

Spans stay in memory and are written once, when the run ends.  A span's
self time is its duration minus the durations of the traced spans nested
directly inside it.  The ``cli.*`` metrics are whole durations: import,
read-and-plan and run are the three spans at the root.
"""

import inspect
import json
import sys
import time
from collections import defaultdict

# module -> public functions wrapped in the traced run
TRACED = {
    "bounds": ("mu_norm", "cstar"),
    "lattice": ("lll_reduce",),
    "enumeration": ("enumerate_arrays", "shortest_vector",
                    "covering_radius_estimate"),
    "functions": ("log_f", "check_hypotheses"),
    "transform": ("build_transform_table", "fourier_1d"),
    "verify": ("certified_sum", "dual_fhat_sum", "psf_residual"),
}

# per-layer metric -> (unit, better); the order is the order of the report
LAYER_METRICS = {
    "cli.import_s": ("s", "lower"),
    "cli.plan_s": ("s", "lower"),
    "bounds.mu_norm.calls": ("count", "lower"),
    "bounds.mu_norm.self_s": ("s", "lower"),
    "bounds.cstar.calls": ("count", "lower"),
    "lattice.lll_reduce.calls": ("count", "lower"),
    "lattice.lll_reduce.self_s": ("s", "lower"),
    "lattice.lll_reduce.distinct_ratio": ("ratio", "higher"),
    "enumeration.enumerate_arrays.calls": ("count", "lower"),
    "enumeration.enumerate_arrays.self_s": ("s", "lower"),
    "enumeration.enumerate_arrays.points": ("count", "lower"),
    "enumeration.enumerate_arrays.points_per_s": ("1/s", "higher"),
    "enumeration.shortest_vector.self_s": ("s", "lower"),
    "enumeration.covering_radius_estimate.self_s": ("s", "lower"),
    "enumeration.covering_radius_estimate.grid_points": ("count", "lower"),
    "enumeration.covering_radius_estimate.bracket_width_max": ("length", "lower"),
    "functions.log_f.calls": ("count", "lower"),
    "functions.log_f.self_s": ("s", "lower"),
    "functions.check_hypotheses.self_s": ("s", "lower"),
    "transform.build_transform_table.calls": ("count", "lower"),
    "transform.build_transform_table.self_s": ("s", "lower"),
    "transform.build_transform_table.nodes": ("count", "lower"),
    "transform.build_transform_table.distinct_ratio": ("ratio", "higher"),
    "transform.fourier_1d.calls": ("count", "lower"),
    "transform.fourier_1d.self_s": ("s", "lower"),
    "verify.certified_sum.calls": ("count", "lower"),
    "verify.certified_sum.self_s": ("s", "lower"),
    "verify.certified_sum.points": ("count", "lower"),
    "verify.certified_sum.truncation_radius_max": ("length", "lower"),
    "verify.dual_fhat_sum.self_s": ("s", "lower"),
    "verify.psf_residual.self_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def rebind(original, replacement):
    """Point every latbounds module binding of `original` at `replacement`."""
    for name, module in list(sys.modules.items()):
        if name != "latbounds" and not name.startswith("latbounds."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _note_lll(args, res, acc):
    acc["keys"].add(args["L"].basis.tobytes())


def _note_enum(args, res, acc):
    acc["points"] += int(res[0].shape[0])


def _note_covering(args, res, acc):
    acc["grid_points"] += int(args["resolution"]) ** int(args["L"].dim)
    acc["bracket_width_max"] = max(acc["bracket_width_max"],
                                   float(res[1] - res[0]))


def _note_table(args, res, acc):
    acc["nodes"] += len(res.nodes)
    acc["keys"].add((float(args["p"]), args["r_max"], float(args["tol"])))


def _note_sum(args, res, acc):
    acc["points"] += int(res.npoints)
    acc["truncation_radius_max"] = max(acc["truncation_radius_max"],
                                       float(res.truncation_radius))


_NOTES = {
    "lattice.lll_reduce": _note_lll,
    "enumeration.enumerate_arrays": _note_enum,
    "enumeration.covering_radius_estimate": _note_covering,
    "transform.build_transform_table": _note_table,
    "verify.certified_sum": _note_sum,
}


class Tracer:
    """Spans [name, parent, start, end] plus per-function counters."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.acc = defaultdict(lambda: {"keys": set(), "points": 0,
                                        "grid_points": 0, "nodes": 0,
                                        "bracket_width_max": 0.0,
                                        "truncation_radius_max": 0.0})

    def _open(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, time.perf_counter(), None])
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self.spans[idx][3] = time.perf_counter()
        self._stack.pop()

    def span(self, name, fn, *args):
        idx = self._open(name)
        try:
            return fn(*args)
        finally:
            self._close(idx)

    def wrap(self, name, fn):
        note = _NOTES.get(name)
        signature = inspect.signature(fn)
        acc = self.acc[name]

        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                res = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if note is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                note(bound.arguments, res, acc)
            return res

        return traced

    def install(self):
        """Wrap every function in TRACED; latbounds must be imported."""
        for module, names in TRACED.items():
            mod = sys.modules[f"latbounds.{module}"]
            for fname in names:
                original = getattr(mod, fname)
                rebind(original, self.wrap(f"{module}.{fname}", original))

    def layer_metrics(self):
        """The per-layer metrics of LAYER_METRICS, except trace.overhead_s."""
        calls = defaultdict(int)
        total_s = defaultdict(float)
        self_s = defaultdict(float)
        for name, parent, start, end in self.spans:
            calls[name] += 1
            total_s[name] += end - start
            self_s[name] += end - start
            if parent >= 0:
                self_s[self.spans[parent][0]] -= end - start
        out = {}
        for metric in LAYER_METRICS:
            func, _, field = metric.rpartition(".")
            if metric.startswith("cli."):
                out[metric] = total_s[metric[:-2]]
            elif field == "calls":
                out[metric] = calls[func]
            elif field == "self_s":
                out[metric] = self_s[func]
            elif field == "distinct_ratio":
                n = calls[func]
                out[metric] = len(self.acc[func]["keys"]) / n if n else 0.0
            elif field == "points_per_s":
                t = self_s[func]
                out[metric] = self.acc[func]["points"] / t if t > 0 else 0.0
            elif func in _NOTES:
                out[metric] = self.acc[func][field]
        return out

    def write(self, path):
        with open(path, "w") as fh:
            for name, parent, start, end in self.spans:
                fh.write(json.dumps({"name": name, "parent": parent,
                                     "start": start, "end": end}) + "\n")
