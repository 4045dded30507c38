"""Timing spans around heatctrl's layer entry points, installed from outside.

The benchmark wraps the functions and methods listed in ``LAYERS`` in a traced
run only; the untraced run that gives the end-to-end metrics never imports
this module.  Every binding of a wrapped function is replaced: the defining
module, the package namespace and each consumer module that imported it by
name (``harness.assemble_control`` as well as ``biorthogonal.assemble_control``).
Methods are replaced on their class.

A span records its name, start, end, parent span, the run id and the request
it belongs to.  Spans stay in memory and are written once, at the end of the
run.  A layer's self time is the summed duration of its spans minus the time
their direct child spans cover.  The counts beside the times are computed from
the sizes of the arrays and results a call receives or returns; they are not
measured, and they repeat exactly between two runs of one seed.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import math
import sys
import time

import numpy as np

# fundamental_solution steps each trajectory row through this many fine steps
_FUNDAMENTAL_STRIDE = 32


def _points(arg_index):
    def count(args, kwargs, out):
        return {"points": int(np.size(args[arg_index]))}
    return count


def _log_M_counts(args, kwargs, out):
    spec, xs = args[0], args[1]
    n = int(np.size(xs))
    absmax = float(np.max(np.abs(xs), initial=0.0))
    m_big = max(spec.K, int(math.floor(spec.A * math.sqrt(2.0 * absmax))))
    return {"points": n, "lattice_terms": n * max(0, m_big - spec.K)}


def _grid_key(args):
    spec, xs = args[0], args[1]
    data = np.ascontiguousarray(xs, dtype=float)
    digest = hashlib.blake2b(data.tobytes(), digest_size=16).hexdigest()
    return (spec, data.shape, digest)


def _freq_terms(rep):
    values = getattr(rep, "values", None)
    return len(values if values is not None else rep.coeffs)


def _duhamel_own(args, kwargs, out):
    return {"freq_terms": _freq_terms(args[0])}


def _duhamel_rescaled(args, kwargs, out):
    return {"freq_terms": _freq_terms(args[0].base.rep)}


def _no_terms(args, kwargs, out):
    # delegates the pairing to the wrapped representations it holds
    return {"freq_terms": 0}


def _simulate_steps(args, kwargs, out):
    n_times = kwargs.get("n_times", args[4] if len(args) > 4 else 129)
    # heatsim.simulate_boundary_control: fine grid nested over the output rows
    n_fine = (max(4096, 8 * (n_times - 1)) // (n_times - 1)) * (n_times - 1) + 1
    return {"fine_steps": n_fine - 1}


def _fundamental_steps(args, kwargs, out):
    n_free = sum(1 for t in out.times if t <= out.eps * out.T)
    return {"fine_steps": _FUNDAMENTAL_STRIDE * (len(out.times) - n_free)}


# layer name, module, attribute (Class.method for methods), count function
LAYERS = [
    ("entire.log_M_grid", "heatctrl.entire", "_log_abs_M_real_array", _log_M_counts),
    ("entire.log_f_grid", "heatctrl.entire", "_log_f_all_imag_array", _points(1)),
    ("entire.evaluator_build", "heatctrl.entire", "GnEvaluator.build", None),
    ("entire.point_eval", "heatctrl.entire", "GnEvaluator.log_G", None),
    ("biorthogonal.family_build", "heatctrl.biorthogonal", "build_multiplier_family",
     lambda a, k, out: {"n_freq": int(out.meta["n_freq"])}),
    ("biorthogonal.fft_sampling", "heatctrl.biorthogonal", "FourierRep.fft_samples", None),
    ("biorthogonal.assembly", "heatctrl.biorthogonal", "assemble_control", None),
    ("biorthogonal.duhamel_pairing", "heatctrl.biorthogonal",
     "FourierRep.duhamel_weights", _duhamel_own),
    ("biorthogonal.duhamel_pairing", "heatctrl.biorthogonal",
     "ExpSumRep.duhamel_weights", _duhamel_own),
    ("biorthogonal.duhamel_pairing", "heatctrl.biorthogonal",
     "_FlippedExpSumRep.duhamel_weights", _duhamel_own),
    ("biorthogonal.duhamel_pairing", "heatctrl.transmute",
     "_RescaledRep.duhamel_weights", _duhamel_rescaled),
    ("biorthogonal.duhamel_pairing", "heatctrl.transmute",
     "_ShiftedRep.duhamel_weights", _no_terms),
    ("biorthogonal.duhamel_pairing", "heatctrl.transmute",
     "_SumRep.duhamel_weights", _no_terms),
    ("biorthogonal.moment_matrix", "heatctrl.biorthogonal", "biorthogonality_matrix",
     lambda a, k, out: {"entries": int(out.size)}),
    ("biorthogonal.rep_eval", "heatctrl.biorthogonal", "FourierRep.eval", _points(1)),
    ("biorthogonal.gram", "heatctrl.biorthogonal", "gram_minimal_family",
     lambda a, k, out: {"dps": int(out.meta["dps"])}),
    ("heatsim.simulate", "heatctrl.heatsim", "simulate_boundary_control", _simulate_steps),
    ("transmute.two_end", "heatctrl.transmute", "two_end_control", None),
    ("transmute.fundamental", "heatctrl.transmute", "fundamental_solution",
     _fundamental_steps),
    ("transmute.wave_gramian", "heatctrl.transmute", "wave_hum_control", None),
    ("transmute.transmutation", "heatctrl.transmute", "transmute_control", None),
    ("spectral.basis", "heatctrl.spectral", "build_interval_basis", None),
    ("spectral.reduce", "heatctrl.spectral", "reduce_to_canonical", None),
    ("harness.sweep_row", "heatctrl.harness", "_sweep_row", None),
    ("harness.certificate", "heatctrl.harness", "_structural_certificate", None),
    ("cli.io", "heatctrl.cli", "_load_config", None),
    ("cli.io", "heatctrl.harness", "write_cost_csv", None),
    ("cli.io", "heatctrl.harness", "_atomic_write", None),
]

# computed counts each layer reports next to self_s and calls
COUNTS = {
    "entire.log_M_grid": ("points", "lattice_terms", "repeat_points"),
    "entire.log_f_grid": ("points",),
    "biorthogonal.family_build": ("n_freq",),
    "biorthogonal.duhamel_pairing": ("freq_terms",),
    "biorthogonal.moment_matrix": ("entries", "quadrature_entries"),
    "biorthogonal.rep_eval": ("points",),
    "biorthogonal.gram": ("dps", "errors"),
    "heatsim.simulate": ("fine_steps",),
    "transmute.fundamental": ("fine_steps",),
}

_REPEAT_LAYER = "entire.log_M_grid"


class Tracer:
    """In-memory span recorder; ``install`` wraps heatctrl's layer entry points."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []
        self.missing = []
        self._stack = []
        self._request = None
        self._seen_grids = set()

    # -- recording -------------------------------------------------------

    def _open(self, name):
        rec = {"id": len(self.spans), "parent": self._stack[-1] if self._stack else None,
               "name": name, "run": self.run_id, "request": self._request}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        return rec

    def _close(self, rec, start):
        rec["end"] = time.perf_counter()
        rec["start"] = start
        self._stack.pop()

    @contextlib.contextmanager
    def request(self, name: str):
        """Root span of one benchmark request; layer spans below it share its id."""
        self._request = f"{self.run_id}:{len(self.spans)}:{name}"
        rec = self._open(f"request.{name}")
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(rec, start)
            self._request = None

    def _wrap(self, layer, fn, count):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = tracer._open(layer)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except Exception:
                rec["counts"] = {"errors": 1}
                raise
            finally:
                tracer._close(rec, start)
            counts = count(args, kwargs, out) if count else {}
            if layer == _REPEAT_LAYER:
                key = _grid_key(args)
                rec["repeat"] = key in tracer._seen_grids
                tracer._seen_grids.add(key)
            rec["counts"] = counts
            return out

        return traced

    def _count_quadrature(self, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            for sid in reversed(tracer._stack):
                rec = tracer.spans[sid]
                if rec["name"] == "biorthogonal.moment_matrix":
                    rec["quadrature_entries"] = rec.get("quadrature_entries", 0) + 1
                    break
            return fn(*args, **kwargs)

        return counted

    # -- installation ----------------------------------------------------

    def install(self):
        for layer, module_name, attr, count in LAYERS:
            module = sys.modules[module_name]
            owner_name, _, name = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            if owner is None or name not in vars(owner):
                self.missing.append(f"{module_name}.{attr}")
                continue
            if owner_name:
                raw = vars(owner)[name]
                if isinstance(raw, staticmethod):
                    setattr(owner, name, staticmethod(self._wrap(layer, raw.__func__, count)))
                else:
                    setattr(owner, name, self._wrap(layer, raw, count))
            else:
                orig = getattr(owner, name)
                _rebind(orig, self._wrap(layer, orig, count))
        family = getattr(sys.modules["heatctrl.biorthogonal"], "BiorthogonalFamily", None)
        if family is not None and "moment_quadrature" in vars(family):
            family.moment_quadrature = self._count_quadrature(family.moment_quadrature)
        else:
            self.missing.append("heatctrl.biorthogonal.BiorthogonalFamily.moment_quadrature")

    # -- reduction -------------------------------------------------------

    def summary(self, wall_s: float) -> dict:
        """Per-layer self_s, calls and computed counts for one pass of wall_s."""
        child_time = {}
        for rec in self.spans:
            if rec["parent"] is not None:
                child_time[rec["parent"]] = (child_time.get(rec["parent"], 0.0)
                                             + rec["end"] - rec["start"])
        out = {}
        for layer, *_ in LAYERS:
            out[f"{layer}.self_s"] = 0.0
            out[f"{layer}.calls"] = 0
            for field in COUNTS.get(layer, ()):
                out[f"{layer}.{field}"] = 0
        repeat_self = 0.0
        layer_self = 0.0
        for rec in self.spans:
            name = rec["name"]
            if name.startswith("request."):
                continue
            own = rec["end"] - rec["start"] - child_time.get(rec["id"], 0.0)
            out[f"{name}.self_s"] += own
            out[f"{name}.calls"] += 1
            layer_self += own
            counts = dict(rec.get("counts", {}))
            if "quadrature_entries" in rec:
                counts["quadrature_entries"] = rec["quadrature_entries"]
            if rec.get("repeat"):
                repeat_self += own
                counts["repeat_points"] = counts["points"]
            for field, value in counts.items():
                key = f"{name}.{field}"
                if field == "dps":
                    out[key] = max(out[key], value)
                else:
                    out[key] = out.get(key, 0) + value
        m_self = out[f"{_REPEAT_LAYER}.self_s"]
        out[f"{_REPEAT_LAYER}.repeat_share"] = repeat_self / m_self if m_self > 0 else 0.0
        entries = out["biorthogonal.moment_matrix.entries"]
        out["biorthogonal.moment_matrix.quadrature_share"] = (
            out["biorthogonal.moment_matrix.quadrature_entries"] / entries if entries else 0.0)
        out["unattributed.self_s"] = wall_s - layer_self
        return out

    def write(self, path: str):
        with open(path, "w") as fh:
            json.dump({"run": self.run_id, "missing": self.missing, "spans": self.spans}, fh)


def _rebind(orig, new):
    """Replace every heatctrl module binding of ``orig`` by ``new``."""
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "heatctrl" or mod_name.startswith("heatctrl.")):
            continue
        for key, value in list(vars(module).items()):
            if value is orig:
                setattr(module, key, new)
