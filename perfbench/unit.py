"""One unit of a benchmark workload, run in a fresh process by run.py.

    python3 perfbench/unit.py --workload NAME --seed N --mode run|setup
                              [--trace-out FILE --run-id ID]

`setup` imports `selfsimilar` and builds the workload's systems, and
reports how long that took.  `run` does one full unit of the workload
and checks its outputs.  With --trace-out the unit is traced (see
spans.py) and its spans are written to FILE.  The last stdout line is
one JSON object: setup_busy_s (setup mode), attempted, failed,
failures, problems, peak_rss_mb, the speed-probe figures and, when
traced, the work counters.

A failure is a check whose own pass criterion failed: a CLI check with
`passed: false`, or a library step whose assertion failed or which
raised.  A problem is an output that is wrong: a broken report, or an
exact identity of the paper (shift identity, unit window mass, Parry
chain, refined identity, Holder domination) that does not hold.
Problems make the run incorrect; failures are counted against the
checks attempted.
"""
import argparse
import contextlib
import io
import json
import math
import resource
import signal
import sys
import time
from pathlib import Path
from random import Random

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

PHI = (1 + math.sqrt(5)) / 2
MU = (3 + math.sqrt(5)) / 2  # unstable eigenvalue of the cat map
CLI_SAMPLES = 2000
REFINED_PAIRS = 2000

PROBE_PERIOD_S = 0.2

# checks whose criterion is an exact identity (or roundoff for the
# torus); the others are fits or statistics with a stated tolerance
EXACT_CLI_CHECKS = {"verify", "triangles", "measure"}


class _Pt:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b


def _probe_work():
    """A fixed mix of interpreter work: arithmetic, tuples and dicts,
    small objects and calls, like the package's pure-Python kernels."""
    acc = 0
    for i in range(20_000):
        acc += i * i % 7
    d = {}
    for i in range(6_000):
        t = (i, i + 1, i & 7)
        d[i & 255] = t
        acc += len(d[i & 255]) + t[2] * 3 % 5
    prev = _Pt(1, 2)
    for i in range(5_000):
        cur = _Pt(i, i ^ 5)
        acc += prev.a * cur.b - prev.b * cur.a
        prev = cur
    return acc


class SpeedProbe:
    """Samples the machine's speed while a unit runs.

    On a shared machine the same code runs up to twice as fast at some
    times as at others, for tens of seconds at a stretch.  The probe runs
    `_probe_work` at the start, every PROBE_PERIOD_S on a timer signal,
    and at the end; run.py divides a unit's time by the mean probe time,
    which cancels most of that drift.  Probe time is reported so it can
    be taken out of the unit's time.
    """

    def __init__(self, on_sample=None):
        self.times = []
        self.spent = 0.0
        self.on_sample = on_sample

    def sample(self, *_):
        t0 = time.perf_counter()
        _probe_work()
        t1 = time.perf_counter()
        self.times.append(t1 - t0)
        self.spent += t1 - t0
        if self.on_sample is not None:
            self.on_sample(t0, t1)

    def start(self):
        self.sample()  # warm-up: specializes the probe's bytecode
        self.times.clear()
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()
        return {"probe_spent_s": self.spent,
                "probe_mean_s": sum(self.times) / len(self.times),
                "probe_samples": len(self.times)}


class Outcome:
    def __init__(self, seed):
        self.seed = seed
        self.attempted = 0
        self.failures = []
        self.problems = []

    def fail(self, check, exc_type, detail, exact):
        rec = {"check": check, "type": exc_type, "seed": self.seed,
               "detail": str(detail)[:300]}
        self.failures.append(rec)
        if exact:
            self.problems.append(f"{check}: exact identity failed "
                                 f"({exc_type}: {rec['detail']})")

    def step(self, check, exact, fn):
        """Run one library step; fn returns (ok, detail)."""
        self.attempted += 1
        try:
            ok, detail = fn()
        except Exception as e:  # a raising step is a failed step
            self.fail(check, type(e).__name__, e, exact)
            return
        if not ok:
            self.fail(check, "AssertionError", detail, exact)


# -- CLI workloads -----------------------------------------------------------


def _scalars(res):
    return {k: v for k, v in res.items()
            if isinstance(v, (int, float, str, bool)) and k != "method"}


def _close(a, b, rel):
    return abs(a - b) <= rel * abs(b)


def _cli_invariants(system, res, samples):
    """Exact or closed-form facts about a report's values: (check, ok)."""
    out = []
    if "verify" in res and res["verify"].get("passed"):
        v = res["verify"]
        out.append(("verify", v["checked"] == samples and v["rejected"] == 0))
    if "triangles" in res and res["triangles"].get("passed"):
        out.append(("triangles", res["triangles"]["pairs"] == samples))
    if "holonomy" in res and "quadruples" in res["holonomy"]:
        out.append(("holonomy", res["holonomy"]["quadruples"] == samples))
    if system == "golden-mean":
        h, lam = math.log(PHI), 2.0
        scales = [2.0 ** -j for j in range(4, 15)]
    else:
        h, lam = math.log(MU), MU
        scales = [0.16 * 2.0 ** (-j / 2) for j in range(8)]
    if "target" in res.get("entropy", {}):
        out.append(("entropy", _close(res["entropy"]["target"], 2 * h, 1e-9)))
    if "scales" in res.get("capacity", {}):
        c = res["capacity"]
        out.append(("capacity", len(c["scales"]) == len(scales) and all(
            _close(a, b, 1e-12) for a, b in zip(c["scales"], scales))
            and _close(c["ent_over_log_lam"],
                       res["entropy"]["ent"] / math.log(lam), 1e-9)))
    if "d" in res.get("measure", {}):
        out.append(("measure", _close(res["measure"]["d"],
                                      h / math.log(lam), 1e-9)))
    if "rel_gap" in res.get("fundamental", {}):
        f = res["fundamental"]
        out.append(("fundamental", _close(
            f["rel_gap"], abs(f["capacity"] - f["ent_over_log_lam"])
            / f["ent_over_log_lam"], 1e-9)))
    return out


def run_cli(ss, workload, seed, out):
    system = workload["system"]
    exc_types = {}
    checks = ss.cli._CHECKS

    def recorder(name, fn):
        def call(sys_obj, cfg):
            try:
                return fn(sys_obj, cfg)
            except Exception as e:
                exc_types[name] = type(e).__name__
                raise
        return call

    for name, fn in list(checks.items()):
        checks[name] = recorder(name, fn)
    argv = ["all", "--system", system, "--samples", str(CLI_SAMPLES),
            "--seed", str(seed)]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = ss.cli.main(argv)
    try:
        report = json.loads(buf.getvalue())
        res = report["results"]
    except (ValueError, KeyError) as e:
        out.problems.append(f"unreadable report: {e}")
        return
    if sorted(res) != sorted(workload["checks"]):
        out.problems.append(f"checks {sorted(res)} != "
                            f"{sorted(workload['checks'])}")
    passed = all(r.get("passed") is True for r in res.values())
    if report.get("passed") is not passed or code != (0 if passed else 1):
        out.problems.append(f"report passed={report.get('passed')} with "
                            f"exit code {code} disagrees with its checks")
    cfg = report.get("config", {})
    if cfg.get("seed") != seed or cfg.get("samples") != CLI_SAMPLES:
        out.problems.append("report config does not echo the inputs")
    for name in sorted(res):
        out.attempted += 1
        r = res[name]
        if r.get("passed") is not True:
            out.fail(name, exc_types.get(name, "CheckFailed"),
                     r.get("error") or json.dumps(_scalars(r),
                                                  sort_keys=True),
                     name in EXACT_CLI_CHECKS)
    for name, ok in _cli_invariants(system, res, CLI_SAMPLES):
        if not ok:
            out.problems.append(f"{name}: value disagrees with its "
                                "closed form or with the report")


# -- library workloads ---------------------------------------------------------


def run_exact_measure(ss, workload, seed, out):
    S, M, D = ss.symbolic, ss.measure, ss.dimension
    f3, g, f2 = S.full_shift(3), S.golden_mean(), S.full_shift(2)
    rng = Random(seed)
    # the same 20 golden-mean points `selfsim homogeneity` draws for this seed
    xs_g = [g.random_point(rng, window=16) for _ in range(20)]
    xs_3 = [f3.random_point(rng, window=16) for _ in range(20)]

    for label, sys_, depth, words in (("full-3", f3, 5, 3 ** 11),
                                      ("golden", g, 10, 28657)):
        def parry(sys_=sys_, depth=depth, words=words):
            rep = M.parry_compare(sys_, depth)
            return (rep.max_rel_gap <= 1e-9 and len(rep.rows) == words,
                    f"gap {rep.max_rel_gap:.3e}, {len(rep.rows)} words")
        out.step(f"parry_compare[{label},depth={depth}]", True, parry)

    def unit_mass():
        vals = [M.hausdorff_estimate(f2, M.UnstableWindow(f2.constant(0), 0),
                                     1.0, depth).value
                for depth in (2, 5, 8, 14)]
        d3 = M.intrinsic_exponent(f3)
        v3 = M.hausdorff_estimate(f3, M.UnstableWindow(f3.constant(0), 0),
                                  d3, 12).value
        return (all(v == 1.0 for v in vals) and abs(v3 - 1.0) <= 1e-12,
                f"full-2 {vals}, full-3 {v3!r}")
    out.step("hausdorff_estimate[unit-mass]", True, unit_mass)

    def golden_drift():
        d = M.intrinsic_exponent(g)
        w = M.UnstableWindow(g.constant(0), 0)
        v10 = M.hausdorff_estimate(g, w, d, 10).value
        v14 = M.hausdorff_estimate(g, w, d, 14).value
        drift = abs(v10 - v14) / v10
        return drift <= 0.03, f"drift {drift:.3e} (tol 0.03)"
    out.step("hausdorff_estimate[golden-drift]", False, golden_drift)

    def scaling_exact():
        r2 = M.scaling_check(f2, M.UnstableWindow(f2.constant(0), 3))
        r3 = M.scaling_check(f3, M.UnstableWindow(f3.constant(0), 3))
        return (r2.rel_gap == 0.0 and r3.rel_gap <= 1e-12,
                f"full-2 {r2.rel_gap!r}, full-3 {r3.rel_gap!r}")
    out.step("scaling_check[full-shifts]", True, scaling_exact)

    def scaling_golden():
        r = M.scaling_check(g, M.UnstableWindow(g.constant(0), 3))
        return r.rel_gap <= 0.03, f"rel gap {r.rel_gap:.3e} (tol 0.03)"
    out.step("scaling_check[golden]", False, scaling_golden)

    def homog_full3():
        r = M.homogeneity_check(f3, xs_3)
        return (r.c_observed == 1.0 and r.trend == 0.0,
                f"c {r.c_observed!r}, trend {r.trend!r}")
    out.step("homogeneity_check[full-3]", True, homog_full3)

    def homog_golden():
        # the criterion `selfsim homogeneity` applies
        r = M.homogeneity_check(g, xs_g)
        return (abs(r.trend) <= 0.02 and r.flat_ratio <= 4.0,
                f"trend {r.trend:.4f} (tol 0.02), flat {r.flat_ratio:.4f}")
    out.step("homogeneity_check[golden]", False, homog_golden)

    for label, sys_, h, tol, exact in (
            ("full-3", f3, math.log(3), 1e-12, True),
            ("golden", g, math.log(PHI), 0.01, False)):
        def ent(sys_=sys_, h=h, tol=tol):
            e = D.entropy(sys_, n_max=64)
            gap = abs(e.ent - 2 * h) / (2 * h)
            return gap <= tol, f"ent {e.ent!r}, rel gap {gap:.3e} (tol {tol})"
        out.step(f"entropy[{label},n_max=64]", exact, ent)

        def cov_id(sys_=sys_):
            rows = D.cov_identity_check(sys_, k_max=12)
            bad = [r.k for r in rows if not (r.consistent and r.lhs.exact
                                             and r.rhs.exact)]
            return not bad, f"inconsistent at k={bad}"
        out.step(f"cov_identity_check[{label},k_max=12]", True, cov_id)

    def local_golden():
        r = D.local_entropy_homogeneity(g, xs_g[:10], n_max=64)
        return (r.spread_rel <= 0.01 and r.max_rel_gap <= 0.01,
                f"spread {r.spread_rel:.3e}, gap {r.max_rel_gap:.3e} "
                "(tol 0.01 each)")
    out.step("local_entropy_homogeneity[golden,n_max=64]", False,
             local_golden)

    def local_full3():
        r = D.local_entropy_homogeneity(f3, xs_3[:10], n_max=64)
        return (r.spread_rel <= 1e-12 and r.max_rel_gap <= 1e-12,
                f"spread {r.spread_rel!r}, gap {r.max_rel_gap!r}")
    out.step("local_entropy_homogeneity[full-3,n_max=64]", True, local_full3)


def run_torus_refined(ss, workload, seed, out):
    T, C = ss.torus, ss.core
    cat = T.cat_map()
    euclid = T.euclidean_base(cat)
    refined = C.refine_metric(euclid, 1.8, 1e-6)
    pairs = euclid.sample_pairs(REFINED_PAIRS, 1e-3, seed=seed)

    def identity():
        rep = C.verify_self_similar(refined, pairs, tol=1e-6)
        return (rep.passed and rep.checked == REFINED_PAIRS,
                f"max deviation {rep.max_rel_deviation:.3e} (tol 1e-6), "
                f"{rep.checked} checked, {len(rep.rejected)} rejected")
    out.step("verify_self_similar[refined]", True, identity)

    holder = {}

    def domination():
        hr = holder["rep"] = C.holder_check(
            euclid.dist, refined.dist, pairs, k=abs(cat.eig_unstable),
            lam=1.8)
        alpha = math.log(1.8) / math.log(abs(cat.eig_unstable))
        return (hr.violations == [] and _close(hr.alpha, alpha, 1e-12),
                f"{len(hr.violations)} violations, alpha {hr.alpha!r}")
    out.step("holder_check[domination]", True, domination)

    def sandwich():
        hr = holder["rep"]
        cap = euclid.diameter ** (1.0 - hr.alpha) * (1.0 + 1e-9)
        return hr.c <= cap, f"c {hr.c:.6f} <= {cap:.6f}"
    out.step("holder_check[sandwich-constant]", False, sandwich)


WORKLOADS = {
    "shift-sampled": {
        "run": run_cli, "system": "golden-mean",
        "checks": ["verify", "capacity", "entropy", "fundamental",
                   "triangles", "holonomy", "measure", "homogeneity"],
        "setup": lambda ss: [ss.golden_mean()],
    },
    "torus-cover": {
        "run": run_cli, "system": "cat-map",
        "checks": ["verify", "capacity", "entropy", "fundamental",
                   "triangles", "holonomy", "measure"],
        "setup": lambda ss: [ss.cat_map()],
    },
    "exact-measure": {
        "run": run_exact_measure,
        "setup": lambda ss: [ss.full_shift(3), ss.golden_mean(),
                             ss.full_shift(2)],
    },
    "torus-refined": {
        "run": run_torus_refined,
        "setup": lambda ss: [ss.refine_metric(
            ss.euclidean_base(ss.cat_map()), 1.8, 1e-6)],
    },
}


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mode", choices=("run", "setup"), required=True)
    p.add_argument("--trace-out")
    p.add_argument("--run-id", default="")
    args = p.parse_args()
    workload = WORKLOADS[args.workload]
    out = Outcome(args.seed)
    result = {}

    tracer = None
    if args.trace_out:
        from spans import Tracer
        tracer = Tracer()
    probe = SpeedProbe(tracer.record_probe if tracer else None)
    probe.start()
    t_import, spent = time.perf_counter(), probe.spent
    import selfsimilar as ss
    import selfsimilar.cli  # noqa: F401  (the tracer wraps cli too)
    if args.mode == "setup":
        workload["setup"](ss)
        result["setup_busy_s"] = (time.perf_counter() - t_import
                                  - (probe.spent - spent))
    else:
        if tracer is not None:
            tracer.install(ss)
        workload["run"](ss, workload, args.seed, out)
    result.update(probe.stop())
    if tracer is not None:
        tracer.counters["cli.checks_failed"] = (
            len(out.failures) if "system" in workload else 0)
        tracer.save(args.trace_out, args.run_id)
        result["counters"] = tracer.counters
    result.update({
        "attempted": out.attempted,
        "failed": len(out.failures),
        "failures": out.failures,
        "problems": out.problems,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    print(json.dumps(result, sort_keys=True))


if __name__ == "__main__":
    main()
