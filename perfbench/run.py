"""Benchmark for the selfsimilar package: four workloads, one run each.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the package is imported from
src/, nothing is installed).  Every unit of work runs in a fresh
single process (perfbench/unit.py) with SELFSIM_WORKERS unset and the
BLAS thread pools pinned to one thread.

--trace 0 measures the end-to-end metrics: wall_s (median over units;
process start to a verified report), setup_s (median of several
import-and-build set-ups), peak_rss_mb (median over units).  It also
prints fail_ratio, the failed over the attempted checks of the seed's
input, counted once however many units repeat it.

--trace 1 alternates traced and untraced units and reports the
per-layer metrics from the traced ones (see spans.py), plus
trace_overhead_s, the traced minus the untraced median wall time.  Work
counters of two traced units must agree exactly.

The last stdout line is one JSON object with the keys correct,
attempted, failed and metrics.  Human-readable lines come before it,
and a full record (provenance, units, failures) is written to
.bench_out/ in the checkout.  See perfbench/README.md.
"""
import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
UNIT = HERE / "unit.py"
OUT_DIR = ROOT / ".bench_out"

WORKLOADS = ("shift-sampled", "torus-cover", "exact-measure", "torus-refined")
END_TO_END = ("wall_s", "setup_s", "peak_rss_mb")
SETUP_REPEATS = 7
# speed reference: the mean time of unit.py's probe work when this machine
# (2-vCPU Xeon) runs at its usual speed; times are reported at this speed
PROBE_REF_S = 0.007
DEADLINE_S = 170.0  # a run must end within 180 s
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


def unit_of(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("ratio"):
        return "ratio"
    return "count"


class Bench:
    """One benchmark run: spawns units, keeps their records."""

    def __init__(self, workload, seed, deadline):
        self.workload = workload
        self.seed = seed
        self.deadline = deadline
        self.env = {k: v for k, v in os.environ.items()
                    if k != "SELFSIM_WORKERS"}
        self.env.update(PINNED_ENV)
        self.problems = []  # wrong outputs: the run is incorrect
        self.notes = []
        self.units = []
        self.setups = []
        self.repeat_ok = None  # traced runs: did two traced units agree

    def spawn(self, mode, trace_out=None):
        """Run one unit; returns its record (wall_s added) or None."""
        cmd = [sys.executable, str(UNIT), "--workload", self.workload,
               "--seed", str(self.seed), "--mode", mode]
        if trace_out is not None:
            cmd += ["--trace-out", str(trace_out), "--run-id",
                    f"{self.workload}:{self.seed}:{trace_out.stem}"]
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(
                cmd, cwd=ROOT, env=self.env, capture_output=True, text=True,
                timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            self.problems.append(f"{mode} unit timed out")
            return None
        wall = time.perf_counter() - t0
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            tail = proc.stderr.strip().splitlines()[-3:]
            self.problems.append(f"{mode} unit exited {proc.returncode}: "
                                 + " | ".join(tail))
            return None
        rec = json.loads(lines[-1])
        rec["mode"] = mode
        rec["wall_s"] = wall
        rec["speed"] = PROBE_REF_S / rec["probe_mean_s"]
        # process start to verified report, probe time taken out, at the
        # reference speed
        rec["time_s"] = (wall - rec["probe_spent_s"]) * rec["speed"]
        if mode == "setup":
            rec["setup_s"] = rec["setup_busy_s"] * rec["speed"]
        self.problems.extend(rec["problems"])
        return rec

    def checks(self):
        """The checks of the run's input: (attempted, failed, failures).

        Every unit of a run repeats the same input, so the checks are
        counted once, from the first unit, and not once per unit: the
        counts then depend on the seed alone, not on how many units fit
        in the run.  A unit whose checks end otherwise is a problem.
        """
        if not self.units:
            return 0, 0, []
        first = self.units[0]

        def outcome(u):
            return (u["attempted"],
                    [(f["check"], f["type"]) for f in u["failures"]])
        if any(outcome(u) != outcome(first) for u in self.units[1:]):
            self.problems.append("units of the same input disagree on "
                                 "their checks")
        return first["attempted"], first["failed"], first["failures"]

    def time_left(self, need):
        return time.monotonic() + need < self.deadline

    def measure(self, seconds):
        for _ in range(SETUP_REPEATS):
            rec = self.spawn("setup")
            if rec is None:
                return None
            self.setups.append(rec)
        t0 = time.monotonic()
        while True:
            rec = self.spawn("run")
            if rec is None:
                break
            self.units.append(rec)
            if time.monotonic() - t0 >= seconds or not self.time_left(
                    rec["wall_s"]):
                break
        if not self.units:
            return None
        return {
            "wall_s": statistics.median(u["time_s"] for u in self.units),
            "setup_s": statistics.median(u["setup_s"] for u in self.setups),
            "peak_rss_mb": statistics.median(u["peak_rss_mb"]
                                             for u in self.units),
        }

    def measure_traced(self, seconds):
        import spans

        OUT_DIR.mkdir(exist_ok=True)
        traced, plain = [], []
        t0 = time.monotonic()
        while True:
            if len(traced) <= len(plain):
                path = OUT_DIR / f"spans-{self.workload}-{len(traced)}.npz"
                rec = self.spawn("run", trace_out=path)
                if rec is None:
                    break
                data = spans.load(path)
                rec["layers"] = spans.layer_metrics(data, rec["counters"],
                                                    rec["speed"])
                rec["calls"] = spans.call_counts(data)
                rec["spans"] = len(data["name_ids"])
                # keep the first traced unit's spans, one file per workload
                if traced:
                    path.unlink()
                else:
                    path.replace(OUT_DIR / f"spans-{self.workload}.npz")
                traced.append(rec)
            else:
                rec = self.spawn("run")
                if rec is None:
                    break
                plain.append(rec)
            self.units.append(rec)
            done = time.monotonic() - t0 >= seconds and traced and plain
            if done or not self.time_left(rec["wall_s"]):
                break
        if not traced:
            return None
        first = traced[0]
        if len(traced) > 1:
            self.repeat_ok = all(r["counters"] == first["counters"]
                                 and r["calls"] == first["calls"]
                                 for r in traced[1:])
            if not self.repeat_ok:
                self.problems.append("work counters differ between two "
                                     f"traced units of seed {self.seed}")
        out = {}
        for name, value in first["layers"].items():
            out[name] = (statistics.median(r["layers"][name] for r in traced)
                         if unit_of(name) == "s" else value)
        if plain:
            out["trace_overhead_s"] = (
                statistics.median(r["time_s"] for r in traced)
                - statistics.median(r["time_s"] for r in plain))
        else:
            self.notes.append("no untraced unit fitted in the run, so "
                              "trace_overhead_s is unmeasured (0)")
            out["trace_overhead_s"] = 0.0
        self.counters = first["counters"]
        self.calls = first["calls"]
        return out


def provenance():
    cpu = ""
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown: not a git checkout"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30).stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "not installed"
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((ROOT / "src").rglob("*.py")))
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": commit,
        "src_py_lines": src_lines,
        "env": dict(PINNED_ENV, SELFSIM_WORKERS="unset"),
    }


def main(argv=None):
    p = argparse.ArgumentParser(description="selfsimilar benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "selfsimilar" / "__init__.py").is_file():
        print(f"perfbench: no selfsimilar sources under {ROOT / 'src'}; "
              "run from the root of a source checkout", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("perfbench: --seconds must be at least 1", file=sys.stderr)
        return 2

    bench = Bench(args.workload, args.seed, time.monotonic() + DEADLINE_S)
    bench.spawn("setup")  # warm-up: byte-compile, fill the file cache
    if args.trace:
        metrics = bench.measure_traced(args.seconds)
    else:
        metrics = bench.measure(args.seconds)
    attempted, failed, failures = bench.checks()
    correct = metrics is not None and not bench.problems and attempted > 0

    prov = provenance()
    print(f"perfbench {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(bench.units)} units")
    for name, value in (metrics or {}).items():
        shown = f"{value:14d}" if isinstance(value, int) else f"{value:14.6f}"
        print(f"  {name:32s} {shown} {unit_of(name)}")
    if bench.units:
        print("  units (time_s at reference speed / raw wall s / speed): "
              + ", ".join(f"{u['time_s']:.3f}/{u['wall_s']:.3f}/"
                          f"{u['speed']:.3f}" for u in bench.units))
    print(f"  {'fail_ratio':32s} {failed / max(attempted, 1):14.6f} ratio"
          f"  ({failed} failed of the input's {attempted} checks, "
          f"the same in all {len(bench.units)} units)")
    for f in failures:
        print(f"  failure: {f['check']} {f['type']} seed {f['seed']}: "
              f"{f['detail']}")
    for prob in bench.problems:
        print(f"  problem: {prob}")
    for note in bench.notes:
        print(f"  note: {note}")
    if args.trace:
        print("  work counters of two traced units agree: " + {
            True: "yes", False: "NO",
            None: "not checked (one traced unit fitted)"}[bench.repeat_ok])
    print(f"  provenance: {json.dumps(prov, sort_keys=True)}")

    OUT_DIR.mkdir(exist_ok=True)
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "provenance": prov, "correct": correct, "attempted": attempted,
        "failed": failed, "failures": failures, "problems": bench.problems,
        "metrics": metrics, "units": bench.units, "setups": bench.setups,
    }
    if args.trace and metrics is not None:
        record["counters"] = bench.counters
        record["calls"] = bench.calls
    path = OUT_DIR / (f"result-{args.workload}-seed{args.seed}"
                      f"-trace{args.trace}.json")
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"  record: {path.relative_to(ROOT)}")

    if args.trace:
        import spans
        names = spans.PER_LAYER
    else:
        names = END_TO_END
    print(json.dumps({
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": failed if attempted else 1,
        "metrics": {n: {"value": (metrics or {}).get(n, 0.0),
                        "unit": unit_of(n)} for n in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
