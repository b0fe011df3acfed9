"""Runtime tracing of certikit's public functions, from outside the package.

`Tracer.install()` replaces selected module attributes and methods with
wrappers that record one span per call (name, start, end, parent span, op
id) plus counters read off the returned value. Calls between certikit
modules go through module attributes (`qp.solve(...)`, `dyn.step(...)`) or
module globals, so the wrappers see internal calls too. Nothing inside
`src/` is edited; `uninstall()` restores the originals.

Spans stay in memory; `write()` stores them once, at the end of a run.
"""

import functools
import json
import time
from collections import defaultdict

import certikit.certify as certify
import certikit.cli as cli
import certikit.conformal as conformal
import certikit.dyn as dyn
import certikit.filters as filters
import certikit.geom as geom
import certikit.gpphs as gpphs
import certikit.milp as milp
import certikit.nn as nn
import certikit.qp as qp
import certikit.reach as reach

_clock = time.perf_counter


def _qp_info(sol, counts, caller, args):
    status = sol.status
    for key in ("qp.solve", f"qp.solve@{caller}"):
        counts[key + ".iterations"] += sol.iterations
        counts[key + ".maxiter"] += status == "MaxIter"
        counts[key + ".infeasible"] += status in ("PrimalInfeasible", "DualInfeasible")
        counts[key + ".optimal"] += status == "Optimal"


def _cbf_info(u, counts, caller, args):
    # args: (filter, x, u_nom); an intervention is any change to u_nom
    counts["filters.cbf.interventions"] += not (u == args[2]).all()


def _psf_info(out, counts, caller, args):
    diags = out[1]
    counts["filters.psf.sqp_iterations"] += diags["sqp_iterations"]
    counts["filters.psf.qp_iterations"] += diags["qp_iterations"]


def _milp_info(out, counts, caller, args):
    counts["milp.nodes"] += out.nodes_explored
    if not caller.startswith("milp."):
        counts["milp.verdict." + _VERDICT[out.status]] += 1


def _positivity_info(out, counts, caller, args):
    counts["milp.verdict." + _VERDICT[out.status]] += 1


_VERDICT = {"Certified": "certified", "Falsified": "falsified", "BoundOnly": "bound_only"}

# (owner, attribute, span name, counter hook). A method's owner is its class.
TARGETS = [
    (qp.AdmmSolver, "solve", "qp.solve", _qp_info),
    (filters.CbfFilter, "filter", "filters.cbf", _cbf_info),
    (filters.PredictiveSafetyFilter, "filter", "filters.psf", _psf_info),
    (dyn, "step", "dyn.step", None),
    (dyn, "linearize", "dyn.linearize", None),
    (nn, "forward", "nn.forward", None),
    (milp, "encode_network", "milp.encode_network", None),
    (milp, "maximize_output", "milp.maximize_output", _milp_info),
    (milp, "verify_positivity", "milp.verify_positivity", _positivity_info),
    (reach, "reach_sampled", "reach.reach_sampled", None),
    (reach, "hull_distance", "reach.hull_distance", None),
    (reach, "propagate_interval", "reach.propagate_interval", None),
    (geom, "hausdorff", "geom.hausdorff", None),
    (geom, "contains", "geom.contains", None),
    (geom, "sample_region", "geom.sample_region", None),
    (gpphs, "gram", "gpphs.gram", None),
    (gpphs, "nlml", "gpphs.nlml", None),
    (gpphs, "posterior", "gpphs.posterior", None),
    (gpphs, "fit", "gpphs.fit", None),
    (conformal, "calibrate", "conformal.calibrate", None),
    (conformal, "covers", "conformal.covers", None),
    (certify, "spectral_radius", "certify.spectral_radius", None),
    (certify, "is_schur", "certify.is_schur", None),
    (certify, "svd_clamp", "certify.svd_clamp", None),
    (cli, "run", "cli.run", None),
    (cli, "demo", "cli.demo", None),
]


class Tracer:
    """Span and counter recorder; records only while `active` is true."""

    def __init__(self):
        self.names = []  # span name table
        self._name_id = {}
        # one column per span field, appended in start order
        self.name = []
        self.start = []
        self.end = []
        self.parent = []
        self.op = []
        self.stack = []
        self.op_id = 0
        self.active = False
        self.counts = defaultdict(float)
        self.exceptions = defaultdict(int)
        self._saved = []

    def _wrap(self, span_name, fn, hook):
        if span_name not in self._name_id:
            self._name_id[span_name] = len(self.names)
            self.names.append(span_name)
        nid = self._name_id[span_name]
        names = self.names

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(self.start)
            parent = self.stack[-1] if self.stack else -1
            self.name.append(nid)
            self.parent.append(parent)
            self.op.append(self.op_id)
            self.end.append(0.0)
            self.stack.append(idx)
            self.start.append(_clock())
            try:
                out = fn(*args, **kwargs)
            except Exception as e:
                self.end[idx] = _clock()
                self.exceptions[f"{span_name}:{type(e).__name__}"] += 1
                raise
            finally:
                self.stack.pop()
            self.end[idx] = _clock()
            if hook is not None:
                caller = names[self.name[parent]] if parent >= 0 else "op"
                hook(out, self.counts, caller, args)
            return out

        return traced

    def install(self):
        for owner, attr, span_name, hook in TARGETS:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(span_name, original, hook))

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def self_times(self):
        """Per span: duration minus the time its child spans cover."""
        dur = [e - s for s, e in zip(self.start, self.end)]
        child = [0.0] * len(dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
        return [d - c for d, c in zip(dur, child)]

    def summary(self):
        """Per span name: calls, total and self seconds; per caller: calls and
        self seconds of qp.solve; plus the counters."""
        calls = defaultdict(int)
        total = defaultdict(float)
        self_s = defaultdict(float)
        selfs = self.self_times()
        names = self.names
        for i, nid in enumerate(self.name):
            key = names[nid]
            calls[key] += 1
            total[key] += self.end[i] - self.start[i]
            self_s[key] += selfs[i]
            if key == "qp.solve":
                p = self.parent[i]
                caller = names[self.name[p]] if p >= 0 else "op"
                calls[f"qp.solve@{caller}"] += 1
                self_s[f"qp.solve@{caller}"] += selfs[i]
        return {
            "calls": dict(calls),
            "total_s": dict(total),
            "self_s": dict(self_s),
            "counts": dict(self.counts),
            "exceptions": dict(self.exceptions),
        }

    def write(self, path):
        """Store every span as columns (name ids index `names`)."""
        with open(path, "w") as f:
            json.dump(
                {
                    "names": self.names,
                    "columns": ["name", "start", "end", "parent", "op"],
                    "name": self.name,
                    "start": self.start,
                    "end": self.end,
                    "parent": self.parent,
                    "op": self.op,
                },
                f,
            )
