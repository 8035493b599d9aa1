"""Span tracer for the benchmark's traced run, and the per-layer metrics.

The tracer wraps the public entry points of each `selfsimilar` module
from outside the package: every module namespace (and class) that holds
a reference to a traced function gets the wrapper, so callers inside the
package (`cli.verify_self_similar`, `dimension.count_words`, ...) go
through it.  Each call records one span (name, start, end, parent) in
flat arrays; the arrays are written out once, when the unit ends.

Hot per-symbol methods (`BiSequence.at`, `apply`, `apply_inv`) are not
wrapped: they run millions of times per unit and their cost would
swamp the figures.  Per-pair calls (`dist`, `random_point`, ...) are
wrapped; the traced run reports its own overhead.
"""
from __future__ import annotations

import json
import time
from array import array

import numpy as np

LAYERS = ("symbolic", "torus", "core", "dimension", "measure", "cli")
PROBE = "perfbench.probe"  # speed-probe samples (unit.py), in no layer

# (module, attribute path, groups): a dotted path names a method.  The
# span name is "<module>.<path>"; a group collects spans whose outermost
# time becomes one per-layer metric.
TRACED = (
    ("symbolic", "count_words", ("symbolic.words_s",)),
    ("symbolic", "iter_words", ("symbolic.words_s",)),
    ("symbolic", "parry_measure", ("symbolic.words_s",)),
    ("symbolic", "spectral_radius", ("symbolic.words_s",)),
    ("symbolic", "exact_cov", ()),
    ("symbolic", "ShiftSystem.sample_pairs", ("symbolic.sample_s",)),
    ("symbolic", "ShiftSystem.random_point", ("symbolic.sample_s",)),
    ("torus", "ToralSystem.__init__", ("torus.construct_s",)),
    ("torus", "ToralSystem.dist", ("torus.dist_s",)),
    ("torus", "EuclideanTorus.dist", ("torus.dist_s",)),
    ("torus", "ToralSystem.bracket", ()),
    ("torus", "ToralSystem.sample_pairs", ("torus.sample_s",)),
    ("torus", "ToralSystem.sample_points", ("torus.sample_s",)),
    ("torus", "EuclideanTorus.sample_pairs", ("torus.sample_s",)),
    ("core", "verify_self_similar", ("core.verify_s",)),
    ("core", "triangle_ratio", ("core.triangle_s",)),
    ("core", "holonomy_deviation", ("core.holonomy_s",)),
    ("core", "RefinedSystem.dist", ("core.refined_dist_s",)),
    ("core", "holder_check", ("core.holder_s",)),
    ("core", "refine_metric", ()),
    ("dimension", "cov_eps", ("dimension.cov_s",)),
    ("dimension", "capacity", ()),
    ("dimension", "entropy", ("dimension.entropy_s",)),
    ("dimension", "check_fundamental", ()),
    ("dimension", "cov_identity_check", ()),
    ("dimension", "local_unstable_entropy", ("dimension.entropy_s",)),
    ("dimension", "local_entropy_homogeneity", ("dimension.entropy_s",)),
    ("measure", "parry_compare", ("measure.parry_s",)),
    ("measure", "hausdorff_estimate", ("measure.hausdorff_s",)),
    ("measure", "scaling_check", ("measure.hausdorff_s",)),
    ("measure", "box_measure", ("measure.hausdorff_s",)),
    ("measure", "homogeneity_check", ("measure.homogeneity_s",)),
    ("measure", "intrinsic_exponent", ()),
    ("measure", "toral_measure_summary", ()),
    ("cli", "run", ()),
    ("cli", "build_system", ()),
)

# every per-layer metric of a traced run (trace_overhead_s is added by
# run.py, which times traced against untraced units)
PER_LAYER = (
    "symbolic.sample_s", "symbolic.pairs_drawn", "symbolic.random_point_calls",
    "symbolic.accept_ratio", "symbolic.words_s", "symbolic.words_enumerated",
    "symbolic.self_s",
    "torus.construct_s", "torus.dist_calls", "torus.dist_s", "torus.sample_s",
    "torus.self_s",
    "core.verify_s", "core.verify_pairs", "core.triangle_s",
    "core.triangle_calls", "core.holonomy_s", "core.holonomy_calls",
    "core.refined_dist_s", "core.refined_dist_calls", "core.holder_s",
    "core.self_s",
    "dimension.cov_s", "dimension.cov_calls", "dimension.capacity_calls",
    "dimension.cover_lower_sum", "dimension.cover_upper_sum",
    "dimension.cover_bracket_ratio", "dimension.entropy_s", "dimension.self_s",
    "measure.parry_s", "measure.parry_words", "measure.hausdorff_s",
    "measure.homogeneity_s", "measure.self_s",
    "cli.self_s", "cli.checks_failed",
    "trace_overhead_s",
)

# metric name -> span names whose calls it counts
CALL_COUNTS = {
    "symbolic.random_point_calls": ("symbolic.ShiftSystem.random_point",),
    "torus.dist_calls": ("torus.ToralSystem.dist", "torus.EuclideanTorus.dist"),
    "core.triangle_calls": ("core.triangle_ratio",),
    "core.holonomy_calls": ("core.holonomy_deviation",),
    "core.refined_dist_calls": ("core.RefinedSystem.dist",),
    "dimension.cov_calls": ("dimension.cov_eps",),
    "dimension.capacity_calls": ("dimension.capacity",),
}


class Tracer:
    """In-memory span store plus the value counters the spans cannot give."""

    def __init__(self):
        self.names = []
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.stack = [-1]
        self.probes = []
        self.counters = {
            "symbolic.pairs_drawn": 0,
            "symbolic.words_enumerated": 0,
            "core.verify_pairs": 0,
            "dimension.cover_lower_sum": 0,
            "dimension.cover_upper_sum": 0,
            "dimension.cover_ratio_sum": 0.0,
            "dimension.cov_calls_by_scale": {},
            "measure.parry_words": 0,
        }

    def _name_id(self, name):
        self.names.append(name)
        return len(self.names) - 1

    def record_probe(self, t0, t1):
        """A speed-probe sample, a leaf under whatever call it hit.

        It arrives from a signal handler, possibly halfway through a
        wrapper's appends, so it is kept aside and merged in `save`.
        """
        self.probes.append((self.stack[-1], t0, t1))

    def wrap(self, name, fn, on_return=None, drain=False):
        nid = self._name_id(name)
        name_ids, parents = self.name_ids, self.parents
        starts, ends, stack = self.starts, self.ends, self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(name_ids)
            name_ids.append(nid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
                if drain:
                    # a generator does its work while it is iterated: drain
                    # it inside the span (the only caller, parry_compare,
                    # lists it at once anyway)
                    out = list(out)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if on_return is not None:
                on_return(args, out)
            return iter(out) if drain else out

        return traced

    # -- value counters -------------------------------------------------

    def _pairs(self, args, out):
        self.counters["symbolic.pairs_drawn"] += len(out)

    def _words(self, args, out):
        self.counters["symbolic.words_enumerated"] += len(out)

    def _verify(self, args, out):
        self.counters["core.verify_pairs"] += len(args[1])

    def _cov(self, args, out):
        c = self.counters
        c["dimension.cover_lower_sum"] += out.lower
        c["dimension.cover_upper_sum"] += out.upper
        c["dimension.cover_ratio_sum"] += out.upper / out.lower
        key = f"eps={out.eps!r},k={out.k}"
        by = c["dimension.cov_calls_by_scale"]
        by[key] = by.get(key, 0) + 1

    def _parry(self, args, out):
        self.counters["measure.parry_words"] += len(out.rows)

    # -- installation ---------------------------------------------------

    def install(self, package):
        """Wrap every entry in TRACED inside the imported `package`."""
        hooks = {
            "symbolic.ShiftSystem.sample_pairs": self._pairs,
            "symbolic.iter_words": self._words,
            "core.verify_self_similar": self._verify,
            "dimension.cov_eps": self._cov,
            "measure.parry_compare": self._parry,
        }
        mods = [package] + [getattr(package, m) for m in LAYERS]
        for mod_name, path, _ in TRACED:
            name = f"{mod_name}.{path}"
            mod = getattr(package, mod_name)
            if "." in path:
                cls_name, meth = path.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[meth]
                setattr(cls, meth, self.wrap(name, orig, hooks.get(name)))
                continue
            orig = getattr(mod, path)
            wrapped = self.wrap(name, orig, hooks.get(name),
                                drain=path == "iter_words")
            for m in mods:
                for attr, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, attr, wrapped)
        checks = package.cli._CHECKS
        for check, fn in list(checks.items()):
            checks[check] = self.wrap(f"cli.check.{check}", fn)

    def save(self, path, run_id):
        probe_id = self._name_id(PROBE)
        for parent, t0, t1 in self.probes:
            self.name_ids.append(probe_id)
            self.parents.append(parent)
            self.starts.append(t0)
            self.ends.append(t1)
        np.savez(
            path,
            names=np.array(json.dumps(self.names)),
            run_id=np.array(run_id),
            name_ids=np.frombuffer(self.name_ids, dtype=np.int32),
            parents=np.frombuffer(self.parents, dtype=np.int32),
            starts=np.frombuffer(self.starts, dtype=np.float64),
            ends=np.frombuffer(self.ends, dtype=np.float64),
        )


def load(path):
    with np.load(path) as z:
        return {
            "names": json.loads(str(z["names"])),
            "run_id": str(z["run_id"]),
            "name_ids": z["name_ids"],
            "parents": z["parents"],
            "starts": z["starts"],
            "ends": z["ends"],
        }


def _outermost(starts, ends):
    """The outermost of properly nested intervals given in start order."""
    if len(starts) == 0:
        return starts, ends
    prev_end = np.maximum.accumulate(ends)
    top = np.ones(len(starts), dtype=bool)
    top[1:] = starts[1:] >= prev_end[:-1]
    return starts[top], ends[top]


def call_counts(spans):
    """Calls per traced name (probe samples are timing, not work)."""
    names = spans["names"]
    counts = np.bincount(spans["name_ids"], minlength=len(names))
    return {name: int(n) for name, n in zip(names, counts)
            if n and name != PROBE}


def layer_metrics(spans, counters, scale):
    """Per-layer metrics of one traced unit; times are multiplied by
    `scale`, the unit's speed factor.

    A span's self time is its duration minus the time its direct
    children cover; a layer's self time sums that over its spans.  A
    group's time is the union of its outermost spans, so a nested call
    inside the same group is not counted twice.  Speed-probe samples
    are children of the span they interrupted, so they drop out of self
    times, and they are taken out of group times.
    """
    names = spans["names"]
    ids, parents = spans["name_ids"], spans["parents"]
    starts, ends = spans["starts"], spans["ends"]
    dur = ends - starts
    child = np.bincount(parents[parents >= 0], weights=dur[parents >= 0],
                        minlength=len(ids))
    self_time = dur - child
    layer_of = np.array([LAYERS.index(n.split(".")[0])
                         if n.split(".")[0] in LAYERS else -1
                         for n in names] + [-1])
    span_layer = layer_of[ids] if len(ids) else np.zeros(0, dtype=int)
    out = {}
    for i, layer in enumerate(LAYERS):
        out[f"{layer}.self_s"] = scale * float(
            np.sum(self_time[span_layer == i]))

    is_probe = ids == (names.index(PROBE) if PROBE in names else -1)
    probe_starts, probe_dur = starts[is_probe], dur[is_probe]
    groups = {}
    for mod_name, path, gs in TRACED:
        for g in gs:
            groups.setdefault(g, []).append(f"{mod_name}.{path}")
    for g, members in groups.items():
        sel = np.isin(ids, [names.index(m) for m in members if m in names])
        top_s, top_e = _outermost(starts[sel], ends[sel])
        if len(top_s) == 0:
            out[g] = 0.0
            continue
        # probe samples that began inside one of the outermost spans
        k = np.searchsorted(top_s, probe_starts, side="right") - 1
        inside = (k >= 0) & (probe_starts < top_e[np.maximum(k, 0)])
        out[g] = scale * (float(np.sum(top_e - top_s))
                          - float(np.sum(probe_dur[inside])))

    calls = call_counts(spans)
    for metric, members in CALL_COUNTS.items():
        out[metric] = sum(calls.get(m, 0) for m in members)

    c = counters
    for key in ("symbolic.pairs_drawn", "symbolic.words_enumerated",
                "core.verify_pairs", "dimension.cover_lower_sum",
                "dimension.cover_upper_sum", "measure.parry_words",
                "cli.checks_failed"):
        out[key] = c.get(key, 0)
    # accept ratio: pairs returned per random_point draw made by the sampler
    rp = names.index("symbolic.ShiftSystem.random_point")
    sp = names.index("symbolic.ShiftSystem.sample_pairs")
    rp_par = parents[ids == rp]
    draws = int(np.sum(ids[rp_par[rp_par >= 0]] == sp))
    out["symbolic.accept_ratio"] = (c["symbolic.pairs_drawn"] / draws
                                    if draws else 0.0)
    n_cov = out["dimension.cov_calls"]
    out["dimension.cover_bracket_ratio"] = (
        c["dimension.cover_ratio_sum"] / n_cov if n_cov else 0.0)
    return {name: out[name] for name in PER_LAYER if name in out}
