"""Span tracer that instruments quasiloc from outside the package.

Every public function of the layer modules is replaced, at each module-level
binding through which it is looked up, by a wrapper that records one span:
name, start, end, parent span and run id (the index of the CLI operation,
-1 during set-up).  Spans are kept in flat arrays and written out when the
pass ends.  A span's self time is its duration minus that of its children.
"""

import collections
import functools
import importlib
import inspect
import time
from array import array

import numpy as np

LAYERS = ("cli", "analysis", "counterterm", "many_body", "multiscale",
          "cutoffs", "single_particle", "diophantine")
# third-party callables whose cost belongs to the module that calls them
EXTERNAL = (("many_body", "eigh"), ("multiscale", "quad"))
# dense symmetric eigensolver with eigenvectors: about 9 d^3 flops
# (Golub & Van Loan, Matrix Computations, sec. 8.3)
EIGH_FLOPS_PER_D3 = 9


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.labels = []
        self._label_ids = {}
        self.label = array("i")
        self.parent = array("i")
        self.run = array("i")
        self.start = array("d")
        self.end = array("d")
        self.run_id = -1
        self.counts = collections.Counter()
        self._stack = [-1]
        self._undo = []

    def wrap(self, label, fn, before=None, after=None):
        """fn recording one span per call; hooks see (tracer, args, kwargs[, result])."""
        if label not in self._label_ids:
            self._label_ids[label] = len(self.labels)
            self.labels.append(label)
        lid = self._label_ids[label]
        stack, clock = self._stack, self.clock
        labels, parents, runs = self.label, self.parent, self.run
        starts, ends = self.start, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(self, args, kwargs)
            i = len(labels)
            labels.append(lid)
            parents.append(stack[-1])
            runs.append(self.run_id)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if after is not None:
                after(self, args, kwargs, result)
            return result
        return traced

    def _patch(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every binding of the layers' public functions, plus EXTERNAL."""
        mods = {name: importlib.import_module(f"quasiloc.{name}")
                for name in LAYERS}
        for mod in [importlib.import_module("quasiloc"), *mods.values()]:
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                pkg, _, layer = obj.__module__.rpartition(".")
                if pkg != "quasiloc" or layer not in LAYERS \
                        or obj.__name__.startswith("_"):
                    continue
                label = f"{layer}.{obj.__name__}"
                self._patch(mod, attr,
                            self.wrap(label, obj, *HOOKS.get(label, ())))
        for layer, attr in EXTERNAL:
            label = f"{layer}.{attr}"
            self._patch(mods[layer], attr,
                        self.wrap(label, getattr(mods[layer], attr),
                                  *HOOKS.get(label, ())))
        cls = mods["diophantine"].DiophantineFrequency
        self._patch(cls, "certify", classmethod(self.wrap(
            "diophantine.certify", cls.__dict__["certify"].__func__)))

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def arrays(self):
        return {"label": np.frombuffer(self.label, dtype=np.int32),
                "parent": np.frombuffer(self.parent, dtype=np.int32),
                "run": np.frombuffer(self.run, dtype=np.int32),
                "start": np.frombuffer(self.start, dtype=np.float64),
                "end": np.frombuffer(self.end, dtype=np.float64)}

    def save(self, path):
        np.savez(path, labels=np.array(self.labels), **self.arrays())

    def by_label(self):
        """({label: (calls, self seconds)}, self seconds of cli functions
        during the operations) over all spans."""
        a = self.arrays()
        n = a["label"].size
        dur = a["end"] - a["start"]
        child = a["parent"] >= 0
        covered = np.bincount(a["parent"][child], weights=dur[child],
                              minlength=n)
        own = dur - covered
        k = len(self.labels)
        calls = np.bincount(a["label"], minlength=k)
        self_s = np.bincount(a["label"], weights=own, minlength=k)
        cli_main = sum(own[(a["label"] == i) & (a["run"] >= 0)].sum()
                       for i, lab in enumerate(self.labels)
                       if lab.startswith("cli."))
        out = {lab: (int(calls[i]), float(self_s[i]))
               for i, lab in enumerate(self.labels)}
        return out, float(cli_main)


# ---- counters attached to particular functions ----------------------------

def _eigh_flops(tr, args, kwargs, result):
    tr.counts["many_body.eigh.flops_computed"] += \
        EIGH_FLOPS_PER_D3 * args[0].shape[0] ** 3


def _sector_dim(tr, args, kwargs, result):
    tr.counts["many_body.dim_max"] = max(tr.counts["many_body.dim_max"],
                                         len(result))


def _eigvec_bytes(tr, args, kwargs, result):
    tr.counts["eigvec_bytes"] = max(tr.counts["eigvec_bytes"],
                                    sum(v.nbytes for v in result.vectors))


def _correlation_bytes(tr, args, kwargs):
    """Dense per-sector-pair intermediates of correlation_matrix at t != 0:
    R, Q and the per-site a_x Q and R^T a_y, all float64."""
    params, spectral = args[0], args[1]
    t = args[2] if len(args) > 2 else kwargs["t"]
    if t != 0.0:
        dims = [len(s) for s in spectral.sectors]
        ns = params.n_sites
        peak = max(8 * (2 * ns * a * b + a * a + b * b)
                   for a, b in zip(dims, dims[1:]))
        tr.counts["correlation_bytes"] = max(tr.counts["correlation_bytes"],
                                             peak)
    return args, kwargs


def _counterterm_iterations(tr, args, kwargs, result):
    tr.counts["counterterm.iterations"] += result.iterations


def _count_integrand(tr, args, kwargs):
    func = args[0]

    def counted(*a):
        tr.counts["multiscale.quad.integrand_evals"] += 1
        return func(*a)
    return (counted, *args[1:]), kwargs


def _nonzero(tr, args, kwargs, result):
    tr.counts["single_scale_nonzero"] += result != 0.0


def _lyapunov_steps(tr, args, kwargs, result):
    tr.counts["single_particle.lyapunov_exponent.steps"] += \
        args[5] if len(args) > 5 else kwargs["n_steps"]


def _scan_points(tr, args, kwargs, result):
    tr.counts["analysis.phase_scan.points"] += len(result)
    tr.counts["analysis.phase_scan.error_points"] += sum(
        pt.verdict == "error" for pt in result.values())


HOOKS = {
    "many_body.eigh": (None, _eigh_flops),
    "many_body.enumerate_sector": (None, _sector_dim),
    "many_body.diagonalize": (None, _eigvec_bytes),
    "many_body.correlation_matrix": (_correlation_bytes, None),
    "counterterm.fix_counterterm": (None, _counterterm_iterations),
    "multiscale.quad": (_count_integrand, None),
    "multiscale.single_scale_propagator": (None, _nonzero),
    "single_particle.lyapunov_exponent": (None, _lyapunov_steps),
    "analysis.phase_scan": (None, _scan_points),
}


COUNTERS = ("many_body.eigh.flops_computed", "many_body.dim_max",
            "counterterm.iterations", "multiscale.quad.integrand_evals",
            "single_particle.lyapunov_exponent.steps",
            "analysis.phase_scan.points", "analysis.phase_scan.error_points")


def layer_metrics(tracer):
    """Per-layer metric values of one traced pass.

    <layer>.<function>.calls and .self_s exist for every wrapped function,
    <layer>.self_s sums a layer's self time, and cli.main.self_s is all self
    time spent in cli functions during the operations (argparse, formatting
    and writing).  The rest are counters.
    """
    spans, cli_main = tracer.by_label()
    values = {name: tracer.counts[name] for name in COUNTERS}
    for label, (calls, self_s) in spans.items():
        values[f"{label}.calls"] = calls
        values[f"{label}.self_s"] = self_s
    for layer in LAYERS:
        values[f"{layer}.self_s"] = sum(
            s for label, (_, s) in spans.items()
            if label.startswith(layer + "."))
    values["cli.main.self_s"] = cli_main
    values["counterterm.objective_evals"] = _objective_evals(tracer)
    values["many_body.spectral_bytes_computed"] = (
        tracer.counts["eigvec_bytes"] + tracer.counts["correlation_bytes"])
    ssp = spans["multiscale.single_scale_propagator"][0]
    values["multiscale.single_scale_propagator.nonzero_frac"] = (
        tracer.counts["single_scale_nonzero"] / ssp if ssp else 0.0)
    return values


def _objective_evals(tracer):
    """mean_particle_number calls made directly by fix_counterterm."""
    labels = tracer.labels
    a = tracer.arrays()
    mpn = a["label"] == labels.index("many_body.mean_particle_number")
    parents = a["parent"][mpn]
    fix = labels.index("counterterm.fix_counterterm")
    return int(np.sum(a["label"][parents[parents >= 0]] == fix))
