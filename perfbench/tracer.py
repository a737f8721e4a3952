"""Layer tracing from outside the program.

`Tracer.install()` wraps qplab's public functions at the names their callers
look them up by: module attributes, including every `from .x import f`
alias in the other qplab modules, class attributes for methods reached
through an instance, and the entries of `cli.COMMANDS`.  Each call records
a span (name, start, end, parent span) and, for some layers, a work count.
Spans stay in flat in-memory arrays and are written out when the run ends.
Untraced runs never construct a Tracer, so they run the program unwrapped.
"""

from __future__ import annotations

import functools
import sys
from array import array
from time import perf_counter

import numpy as np

from workloads import CLI_COMMANDS


def _arg(args, kwargs, i, name, default=None):
    if len(args) > i:
        return args[i]
    return kwargs.get(name, default)


def _disc_points(args, kwargs):
    E, theta = _arg(args, kwargs, 1, "E"), _arg(args, kwargs, 2, "theta")
    return np.broadcast(np.asarray(E), np.asarray(theta)).size


def _eval_points(args, kwargs, out):
    return np.size(args[1])


def _block_products(args, kwargs, out):
    return args[0].q * _disc_points(args, kwargs)


def _dvalue_products(args, kwargs, out):
    # prefix and suffix chains, then one sandwich of two products per step
    return 4 * args[0].q * _disc_points(args, kwargs)


def _rotation_steps(args, kwargs, out):
    return _arg(args, kwargs, 1, "n", 200_000)


def _transfer_steps(args, kwargs, out):
    return np.size(_arg(args, kwargs, 1, "thetas")) * _arg(args, kwargs, 2, "n")


def _newton_iterations(args, kwargs, out):
    return out["iterations"]


# (module, owner within the module or None, attribute, layer name, work count)
TARGETS = [
    ("contfrac", None, "expand", "contfrac.expand", None),
    ("contfrac", None, "select_bridges", "contfrac.select_bridges", None),
    ("contfrac", "BridgeSelection", "check_invariants", "contfrac.check_invariants", None),
    ("contfrac", "CfExpansion", "check_invariants", "contfrac.check_invariants", None),
    ("spectra", "Discriminant", "block", "spectra.discriminant", _block_products),
    ("spectra", "Discriminant", "dvalue_dE", "spectra.discriminant", _dvalue_products),
    ("spectra", None, "_bisect", "spectra.bisect", None),
    ("spectra", None, "band_edges", "spectra.band_edges", None),
    ("spectra", None, "s_sets", "spectra.s_sets", None),
    ("spectra", None, "amo_s_minus_closed_form", "spectra.s_minus_closed_form", None),
    ("spectra", None, "set_distance", "spectra.set_distance", None),
    ("spectra", None, "chambers_deviation", "spectra.chambers", None),
    ("udspace", "FourierSeries", "__call__", "udspace.series_eval", _eval_points),
    ("udspace", "MatSeries", "__call__", "udspace.series_eval", _eval_points),
    ("udspace", "FourierSeries", "values", "udspace.series_grid", None),
    ("udspace", "FourierSeries", "from_values", "udspace.series_grid", None),
    ("udspace", "MatSeries", "values", "udspace.series_grid", None),
    ("udspace", "MatSeries", "from_values", "udspace.series_grid", None),
    ("udspace", "FourierSeries", "mul", "udspace.series_algebra", None),
    ("udspace", "FourierSeries", "reciprocal", "udspace.series_algebra", None),
    ("udspace", "MatSeries", "mat_mul", "udspace.series_algebra", None),
    ("udspace", "MatSeries", "exp_map", "udspace.series_algebra", None),
    ("udspace", "MatSeries", "log_map", "udspace.series_algebra", None),
    ("udspace", None, "rotation_series", "udspace.series_algebra", None),
    ("udspace", None, "log_norm_mr_ln", "udspace.norms", None),
    ("udspace", None, "log_norm_mr", "udspace.norms", None),
    ("udspace", None, "norm_mr", "udspace.norms", None),
    ("udspace", None, "norm_lambda", "udspace.norms", None),
    ("udspace", None, "log_norm_lambda", "udspace.norms", None),
    ("sl2", None, "sl2_exp", "sl2.kernels", None),
    ("sl2", None, "sl2_expm1", "sl2.kernels", None),
    ("sl2", None, "sl2_log", "sl2.kernels", None),
    ("sl2", None, "sl2_log_dev", "sl2.kernels", None),
    ("kam", None, "homotopy_conjugate", "kam.homotopy_conjugate", _newton_iterations),
    ("kam", None, "kam_step", "kam.kam_step", None),
    ("kam", None, "solve_cohomological", "kam.solve_cohomological", None),
    ("kam", None, "conjugation_residual", "kam.conjugation_residual", None),
    ("cocycle", None, "rotation_number", "cocycle.rotation_number", _rotation_steps),
    ("cocycle", None, "_transfer_grid", "cocycle.transfer_grid", _transfer_steps),
    ("cocycle", None, "finite_lyapunov", "cocycle.finite_lyapunov", None),
    ("ldt", None, "ldt_experiment", "ldt.ldt_experiment", None),
]

# every per-layer metric the traced run reports, with its unit and source:
# ("self", layer) self seconds, ("calls", layer) call count, ("work", layer) work count.
# run.py checks that BENCHMARK.json lists the same names.
METRICS = {
    "contfrac.expand.s": ("self", "contfrac.expand"),
    "contfrac.select_bridges.s": ("self", "contfrac.select_bridges"),
    "contfrac.check_invariants.s": ("self", "contfrac.check_invariants"),
    "spectra.discriminant.calls": ("calls", "spectra.discriminant"),
    "spectra.discriminant.products": ("work", "spectra.discriminant"),
    "spectra.discriminant.s": ("self", "spectra.discriminant"),
    "spectra.bisect.calls": ("calls", "spectra.bisect"),
    "spectra.bisect.s": ("self", "spectra.bisect"),
    "spectra.band_edges.s": ("self", "spectra.band_edges"),
    "spectra.s_sets.s": ("self", "spectra.s_sets"),
    "spectra.s_minus_closed_form.s": ("self", "spectra.s_minus_closed_form"),
    "spectra.set_distance.s": ("self", "spectra.set_distance"),
    "spectra.chambers.s": ("self", "spectra.chambers"),
    "udspace.series_eval.calls": ("calls", "udspace.series_eval"),
    "udspace.series_eval.points": ("work", "udspace.series_eval"),
    "udspace.series_eval.s": ("self", "udspace.series_eval"),
    "udspace.series_grid.s": ("self", "udspace.series_grid"),
    "udspace.series_algebra.s": ("self", "udspace.series_algebra"),
    "udspace.norms.s": ("self", "udspace.norms"),
    "sl2.kernels.calls": ("calls", "sl2.kernels"),
    "sl2.kernels.s": ("self", "sl2.kernels"),
    "kam.homotopy_conjugate.calls": ("calls", "kam.homotopy_conjugate"),
    "kam.homotopy_conjugate.s": ("self", "kam.homotopy_conjugate"),
    "kam.newton_iterations": ("work", "kam.homotopy_conjugate"),
    "kam.kam_step.s": ("self", "kam.kam_step"),
    "kam.solve_cohomological.s": ("self", "kam.solve_cohomological"),
    "kam.conjugation_residual.s": ("self", "kam.conjugation_residual"),
    "cocycle.rotation_number.calls": ("calls", "cocycle.rotation_number"),
    "cocycle.rotation_number.steps": ("work", "cocycle.rotation_number"),
    "cocycle.rotation_number.s": ("self", "cocycle.rotation_number"),
    "cocycle.transfer_grid.steps": ("work", "cocycle.transfer_grid"),
    "cocycle.transfer_grid.s": ("self", "cocycle.transfer_grid"),
    "cocycle.finite_lyapunov.s": ("self", "cocycle.finite_lyapunov"),
    "ldt.ldt_experiment.s": ("self", "ldt.ldt_experiment"),
    "cli.start.s": ("self", "cli.start"),
    **{f"cli.{argv[0]}.s": ("self", f"cli.{argv[0]}") for argv in CLI_COMMANDS},
}


class Tracer:
    """Flat span store plus the wrappers that fill it."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.work = array("d")
        self._stack: list[int] = []
        self._saved: list = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def record(self, name: str, start: float, end: float):
        """A span measured elsewhere (e.g. a process start), with no parent."""
        self.name_id.append(self._id(name))
        self.start.append(start)
        self.end.append(end)
        self.parent.append(-1)
        self.work.append(0.0)

    def wrap(self, fn, name: str, work=None):
        nid = self._id(name)
        stack, starts, ends, parents, works, ids = (
            self._stack, self.start, self.end, self.parent, self.work, self.name_id
        )

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(starts)
            ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            works.append(0.0)
            ends.append(0.0)
            stack.append(i)
            starts.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[i] = perf_counter()
                stack.pop()
            if work is not None:
                works[i] = work(args, kwargs, out)
            return out

        return traced

    def _replace(self, owner, attr: str, value):
        """Set a module or class attribute, remembering the raw value it had."""
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every target in the qplab modules loaded so far."""
        loaded = [m for k, m in sys.modules.items() if k.startswith("qplab.")]
        for mod_name, owner_name, attr, name, work in TARGETS:
            mod = sys.modules.get(f"qplab.{mod_name}")
            if mod is None:
                continue
            if owner_name is not None:
                cls = getattr(mod, owner_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    self._replace(cls, attr, classmethod(self.wrap(raw.__func__, name, work)))
                else:
                    self._replace(cls, attr, self.wrap(raw, name, work))
                continue
            original = getattr(mod, attr)
            traced = self.wrap(original, name, work)
            for m in loaded:
                for key, val in list(vars(m).items()):
                    if val is original:
                        self._replace(m, key, traced)
        cli = sys.modules.get("qplab.cli")
        if cli is not None:
            for cmd, fn in list(cli.COMMANDS.items()):
                cli.COMMANDS[cmd] = self.wrap(fn, f"cli.{cmd}")
                self._saved.append((cli.COMMANDS, cmd, fn))

    def uninstall(self):
        for owner, attr, value in reversed(self._saved):
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)
        self._saved.clear()

    def arrays(self) -> dict:
        return {
            "names": np.array(self.names, dtype=str),
            "name_id": np.frombuffer(self.name_id, dtype=np.int64).copy(),
            "start": np.frombuffer(self.start, dtype=float).copy(),
            "end": np.frombuffer(self.end, dtype=float).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "work": np.frombuffer(self.work, dtype=float).copy(),
        }


def merge(parts: list) -> dict:
    """Concatenate span arrays of several processes, renumbering names and parents."""
    names, ids, start, end, parent, work = [], [], [], [], [], []
    index: dict[str, int] = {}
    offset = 0
    for a in parts:
        remap = np.array([index.setdefault(str(n), len(index)) for n in a["names"]], dtype=np.int64)
        ids.append(remap[a["name_id"]] if a["name_id"].size else a["name_id"])
        start.append(a["start"])
        end.append(a["end"])
        parent.append(np.where(a["parent"] >= 0, a["parent"] + offset, -1))
        work.append(a["work"])
        offset += a["start"].size
    names = sorted(index, key=index.get)
    return {
        "names": np.array(names, dtype=str),
        "name_id": np.concatenate(ids) if ids else np.zeros(0, np.int64),
        "start": np.concatenate(start) if start else np.zeros(0),
        "end": np.concatenate(end) if end else np.zeros(0),
        "parent": np.concatenate(parent) if parent else np.zeros(0, np.int64),
        "work": np.concatenate(work) if work else np.zeros(0),
    }


def layer_metrics(spans: dict) -> dict:
    """Per-layer self seconds, call counts and work counts, keyed as in METRICS."""
    dur = spans["end"] - spans["start"]
    child = np.zeros_like(dur)
    has_parent = spans["parent"] >= 0
    np.add.at(child, spans["parent"][has_parent], dur[has_parent])
    self_s = dur - child
    n = len(spans["names"])
    agg = {
        "self": np.bincount(spans["name_id"], weights=self_s, minlength=n),
        "calls": np.bincount(spans["name_id"], minlength=n).astype(float),
        "work": np.bincount(spans["name_id"], weights=spans["work"], minlength=n),
    }
    pos = {str(name): i for i, name in enumerate(spans["names"])}
    out = {}
    for metric, (kind, layer) in METRICS.items():
        value = float(agg[kind][pos[layer]]) if layer in pos else 0.0
        out[metric] = {"value": value if kind == "self" else int(value),
                       "unit": "s" if kind == "self" else "count"}
    return out
