"""Reproducible experiment runner: JSON config in, JSON or CSV report out.

Config schema (all keys optional unless marked required):

    {
      "system":  "full-2-shift" | "golden-mean" | "four-symbol"
                 | "cat-map" | "sft",                    (required)
      "rows":    [[0|1, ...], ...],          (required when system=sft)
      "lam":     finite float > 1,           ("lambda" accepted as alias)
      "command": "verify" | "capacity" | "entropy" | "fundamental"
                 | "triangles" | "holonomy" | "measure"
                 | "homogeneity" | "all",                (required)
      "scale":   finite float > 0,  sampling scale where one applies
      "samples": int >= 1,       pair/point budget       (default 10000)
      "depth":   int >= 1,       measure DP horizon      (default 12)
      "n_max":   int >= 4,       entropy horizon         (default 12)
      "seed":    int,                                    (default 0)
      "out":     path to also write the report to,
      "format":  "json" | "csv"                          (default json)
    }

JSON reports are emitted with sorted keys and fixed separators, so the
same config and seed give byte-identical output except the
"wall_clock_s" entry.  CSV output has the fixed header ``check,key,value``
with nested payload keys joined by dots and list indices as keys; it
omits wall clock entirely.
"""
import functools
import io
import json
import math
import sys as _sys
import time
from pathlib import Path
from random import Random
from typing import NamedTuple

from . import __version__

# each check imports the library modules it uses when it runs, so a
# run loads only those, and reads their names at call time

COMMANDS = ("verify", "capacity", "entropy", "fundamental", "triangles",
            "holonomy", "measure", "homogeneity", "all")
SYSTEM_KINDS = ("full-2-shift", "golden-mean", "four-symbol", "cat-map",
                "sft")
_REQUIRED = ("system", "command")
_CAT_LAM_SUP = (3 + math.sqrt(5)) / 2


class ExperimentConfig(NamedTuple):
    system: str
    command: str
    lam: float | None = None
    rows: tuple | None = None
    scale: float | None = None
    samples: int = 10_000
    depth: int = 12
    n_max: int = 12
    seed: int = 0
    out: str | None = None
    format: str = "json"


class ConfigError(ValueError):
    """Carries every validation problem found, not just the first."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


def _check_rows(rows, errors):
    if not isinstance(rows, (list, tuple)) or not rows:
        errors.append("malformed matrix: rows must be a nonempty list")
        return None
    n = len(rows)
    clean = []
    for r in rows:
        if (not isinstance(r, (list, tuple)) or len(r) != n
                or any(v not in (0, 1) for v in r)):
            errors.append(
                "malformed matrix: rows must be a square 0/1 table"
            )
            return None
        clean.append(tuple(int(v) for v in r))
    return tuple(clean)


def _validate(data):
    errors = []
    data = dict(data)
    if "lambda" in data:
        if "lam" in data:
            errors.append("give either lam or lambda, not both")
        data["lam"] = data.pop("lambda")
    for key in sorted(set(data) - set(ExperimentConfig._fields)):
        errors.append(f"unknown config key: {key}")
    for key in _REQUIRED:
        if key not in data:
            errors.append(f"missing required field: {key}")

    kind = data.get("system")
    if kind is not None and kind not in SYSTEM_KINDS:
        errors.append(
            f"unknown system kind: {kind!r} (choose from "
            + ", ".join(SYSTEM_KINDS) + ")"
        )
    rows = data.get("rows")
    if kind == "sft" and rows is None:
        errors.append("system sft needs a rows matrix")
    if rows is not None:
        if kind not in (None, "sft"):
            errors.append("rows only apply to system kind sft")
        rows = _check_rows(rows, errors)
        data["rows"] = rows

    cmd = data.get("command")
    if cmd is not None and cmd not in COMMANDS:
        errors.append(
            f"unknown command: {cmd!r} (choose from " + ", ".join(COMMANDS)
            + ")"
        )

    lam = data.get("lam")
    if lam is not None:
        if not isinstance(lam, (int, float)) or isinstance(lam, bool):
            errors.append("lam must be a number")
        elif not 1 < lam <= _sys.float_info.max:  # NaN, inf, 10**400 fail
            errors.append("lam must be a finite number above 1")
        elif kind == "cat-map" and lam > _CAT_LAM_SUP * (1 + 1e-12):
            errors.append(
                f"lam must lie in (1, {_CAT_LAM_SUP}] for the cat map"
            )
        else:
            data["lam"] = float(lam)

    scale = data.get("scale")
    if scale is not None and (not isinstance(scale, (int, float))
                              or isinstance(scale, bool)
                              or not 0 < scale < math.inf):
        errors.append("scale must be a positive finite number")
    for key, lo in (("samples", 1), ("depth", 1), ("n_max", 4)):
        v = data.get(key)
        if v is not None and (not isinstance(v, int) or isinstance(v, bool)
                              or v < lo):
            errors.append(f"{key} must be an integer >= {lo}")
    seed = data.get("seed")
    if seed is not None and (not isinstance(seed, int)
                             or isinstance(seed, bool)):
        errors.append("seed must be an integer")
    fmt = data.get("format")
    if fmt is not None and fmt not in ("json", "csv"):
        errors.append("format must be json or csv")
    out = data.get("out")
    if out is not None and not isinstance(out, str):
        errors.append("out must be a path string")

    if errors:
        raise ConfigError(errors)
    return ExperimentConfig(**data)


def _load_config(text):
    """Config dict from JSON text; ConfigError if it is empty, invalid
    or not an object."""
    required = "; required fields: " + ", ".join(_REQUIRED)
    if not text.strip():
        raise ConfigError(["empty config" + required])
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError([f"config is not valid JSON: {e}"]) from None
    if not isinstance(data, dict):
        raise ConfigError(["config must be a JSON object" + required])
    return data


def parse_config(text):
    """Validated ExperimentConfig from JSON text; ConfigError lists
    every problem found."""
    return _validate(_load_config(text))


def build_system(cfg):
    kw = {} if cfg.lam is None else {"lam": cfg.lam}
    if cfg.system == "cat-map":
        from .torus import cat_map
        return cat_map(**kw)
    from . import symbolic
    if cfg.system == "full-2-shift":
        return symbolic.full_shift(2, **kw)
    if cfg.system == "golden-mean":
        return symbolic.golden_mean(**kw)
    if cfg.system == "four-symbol":
        return symbolic.four_symbol(**kw)
    return symbolic.sft_new(cfg.rows, **kw)


# -- individual checks -------------------------------------------------------


def _check_verify(sys_obj, cfg):
    from .core import verify_self_similar
    if sys_obj.space_kind == "symbolic":
        pairs = sys_obj.sample_pairs(cfg.samples, seed=cfg.seed)
    else:
        scale = cfg.scale if cfg.scale is not None else 0.01
        pairs = sys_obj.sample_pairs(cfg.samples, scale, seed=cfg.seed)
    rep = verify_self_similar(sys_obj, pairs)
    return {
        "checked": rep.checked,
        "rejected": len(rep.rejected),
        "max_rel_deviation": rep.max_rel_deviation,
        "mean_rel_deviation": rep.mean_rel_deviation,
        "exact": rep.exact,
        "tolerance": rep.tol,
        "method": "one-step-identity",
        "passed": rep.passed,
    }


def _entropy_target(sys_obj):
    """2 h_top where it is known in closed form, else None."""
    from . import dimension
    try:
        return 2 * dimension._log_growth(sys_obj)
    except ValueError:  # not a primitive matrix
        return None


@functools.lru_cache(maxsize=1)
def _fundamental(sys_obj, n_max):
    """One capacity fit per system and horizon, which `capacity` and
    `fundamental` both report."""
    from . import dimension
    return dimension.check_fundamental(sys_obj, n_max=n_max)


def _check_capacity(sys_obj, cfg):
    rep = _fundamental(sys_obj, cfg.n_max)
    fit = rep.capacity_fit
    tol = 0.02 if sys_obj.space_kind == "symbolic" else 0.10
    return {
        "capacity": rep.capacity,
        "ent_over_log_lam": rep.rhs,
        "rel_gap": rep.rel_gap,
        "scales": list(fit.scales),
        "counts": list(fit.counts),
        "residual": fit.residual,
        "tolerance": tol,
        "method": fit.method,
        "passed": rep.rel_gap <= tol,
    }


def _check_entropy(sys_obj, cfg):
    from . import dimension
    er = dimension.entropy(sys_obj, n_max=cfg.n_max)
    target = _entropy_target(sys_obj)
    if sys_obj.space_kind == "symbolic":
        tol = 0.01 if target is not None else 0.05
    else:
        tol = 0.10
    if target is None:
        # non-mixing matrix: no closed form, check internal consistency
        gap = er.gap_two_sided / er.ent if er.ent > 0 else 0.0
    elif target == 0.0:
        raise ValueError("entropy target 2 log rho is 0: no relative gap")
    else:
        gap = abs(er.ent - target) / target
    return {
        "ent": er.ent,
        "ent_plus": er.ent_plus,
        "ent_minus": er.ent_minus,
        "standard": er.standard,
        "gap_two_sided": er.gap_two_sided,
        "target": target,
        "rel_gap": gap,
        "tolerance": tol,
        "method": er.method,
        "passed": er.ent > 0 and gap <= tol,
    }


def _check_fundamental(sys_obj, cfg):
    rep = _fundamental(sys_obj, cfg.n_max)
    tol = 0.02 if sys_obj.space_kind == "symbolic" else 0.10
    return {
        "capacity": rep.capacity,
        "ent": rep.ent,
        "log_lam": math.log(sys_obj.lam),
        "ent_over_log_lam": rep.rhs,
        "rel_gap": rep.rel_gap,
        "tolerance": tol,
        "method": "capacity-fit vs entropy-slope",
        "passed": rep.rel_gap <= tol,
    }


def _triangle_levels(sys_obj):
    lev = 1
    while sys_obj.lam ** -lev > sys_obj.xi / (2 * sys_obj.lam):
        lev += 1
    return lev


def _check_triangles(sys_obj, cfg):
    from .core import triangle_curve
    if sys_obj.space_kind == "symbolic":
        lo = _triangle_levels(sys_obj)
        pairs = sys_obj.sample_pairs(cfg.samples, seed=cfg.seed,
                                     levels=(lo, lo + 6))
    else:
        scale = cfg.scale if cfg.scale is not None else (
            sys_obj.xi / (4 * sys_obj.lam))
        if scale > sys_obj.xi / (2 * sys_obj.lam):
            raise ValueError("triangle scale must be <= xi/(2 lam)")
        pairs = sys_obj.sample_pairs(cfg.samples, scale, seed=cfg.seed)
    (worst,) = triangle_curve(sys_obj, {0: pairs}).max_deviation
    return {
        "pairs": len(pairs),
        "max_ratio_deviation": worst,
        "tolerance": sys_obj.tol_default,
        "method": "bracket-triangle",
        "passed": worst <= sys_obj.tol_default,
    }


def _symbolic_holonomy_quads(sys_obj, count, seed):
    """The quadruples (p, q, pp, qq) as the sampler's stream of `Rows`,
    which `core._parts` cuts into the check's parts."""
    from .core import _HOLONOMY_DEPTH
    # tails parting at +j put the plaque pair at distance lam**-(j-1), so
    # m = j - 2; straddle the bound's validity threshold lam**(m-1) > 2
    j_in = 4
    while sys_obj.lam ** (j_in - 3) <= 2:
        j_in += 1
    j_lo, j_hi = max(2, j_in - 2), j_in + 3

    def quads(rows):  # qq = triangle_vertex(pp, q): one column splice
        _, q, pp = rows.columns()
        return rows.zip(sys_obj._pair_brackets(pp.zip(q)))
    # legs parting at -k, 2 <= k <= 5, are at distance lam**-(k-1) <= xi;
    # rows reach far enough for the precondition's steps either way
    return map(quads, sys_obj._sample(count, seed, j_hi + 2 * _HOLONOMY_DEPTH,
                                      ((j_lo, j_hi, 1), (2, 5, -1))))


def _toral_holonomy_quads(sys_obj, count, seed, scale):
    """Quadruples (p, q, pp, qq) as toral rows, from row i of
    `uniforms(count, seed, 6)`: p, u_t, sign_t, u_s, sign_s.  q = p + t v_u
    and pp = p + s v_s (wrapped), qq = triangle_vertex(pp, q).  The leg
    p q has metric length l = scale * (0.25 + 0.75 * u_t), so |t| is
    l**(1/e), negated if sign_t < 0.5; s is the same with xi / 4 for
    scale."""
    from ._streams import Rows, uniforms
    from .torus import _point, _pow
    draws = uniforms(count, seed, 6)
    p, u_t, sign_t, u_s, sign_s = draws[:, :2], *draws[:, 2:].T
    t, s = (_pow(top * (0.25 + 0.75 * u), 1.0 / sys_obj.e)
            * (2.0 * (sign >= 0.5) - 1.0) for top, u, sign in
            ((scale, u_t, sign_t), (sys_obj.xi / 4, u_s, sign_s)))
    q = (p + t[:, None] * sys_obj.v_unstable) % 1.0
    pp = (p + s[:, None] * sys_obj.v_stable) % 1.0
    (qq,) = sys_obj._pair_brackets(Rows((pp, q), _point)).cols
    return Rows((p, q, pp, qq), _point)


def _check_holonomy(sys_obj, cfg):
    from .core import _holonomy_parts
    if sys_obj.space_kind == "symbolic":
        quads = _symbolic_holonomy_quads(sys_obj, cfg.samples, cfg.seed)
    else:
        scale = cfg.scale if cfg.scale is not None else (
            sys_obj.xi / sys_obj.lam ** 3)
        quads = _toral_holonomy_quads(sys_obj, cfg.samples, cfg.seed, scale)
    total = in_range = rejected = violations = 0
    top = 0.0
    for part in _holonomy_parts(sys_obj, quads):
        if isinstance(part, tuple):  # toral arrays, one entry a quadruple
            counted = part.in_range & part.precondition_ok
            total += len(counted)
            in_range += int(counted.sum())
            rejected += int((~part.precondition_ok).sum())
            violations += int((counted & ~part.within_bound).sum())
            top = max(top, part.observed[counted].max(initial=0.0).item())
            continue
        counted = {r: n for r, n in part.items()  # a Counter of reports
                   if r.in_range and r.precondition_ok}
        total += part.total()
        in_range += sum(counted.values())
        rejected += sum(n for r, n in part.items() if not r.precondition_ok)
        violations += sum(n for r, n in counted.items() if not r.within_bound)
        top = max([top] + [r.observed for r in counted])
    return {
        "quadruples": total,
        "in_range": in_range,
        "rejected": rejected,
        "violations": violations,
        "max_observed": top,
        "tolerance": "2/(lam**(m-1) - 2) per quadruple",
        "method": "plaque-holonomy",
        "passed": bool(in_range) and violations == 0
        and rejected <= total // 2,
    }


def _check_measure(sys_obj, cfg):
    from . import measure
    if sys_obj.space_kind != "symbolic":
        summary = measure.toral_measure_summary(sys_obj)
        summary.update({
            "tolerance": 1e-12,
            "method": "closed-form",
            "passed": summary["scaling_gap"] <= 1e-12,
        })
        return summary
    d = measure.intrinsic_exponent(sys_obj)
    anchor = sys_obj.point(sys_obj.matrix.cycle_word(0))
    u0 = measure.hausdorff_estimate(
        sys_obj, measure.UnstableWindow(anchor, 0), d, depth=cfg.depth)
    s0 = measure.hausdorff_estimate(
        sys_obj, measure.StableWindow(anchor, 0), d, depth=cfg.depth)
    sc = measure.scaling_check(
        sys_obj, measure.UnstableWindow(anchor, 3), depth=cfg.depth)
    parry = measure.parry_compare(sys_obj, 2)
    ok = (u0.converged and s0.converged and u0.value > 0 and s0.value > 0
          and sc.rel_gap <= 0.03 and parry.max_rel_gap <= 1e-9)
    return {
        "d": d,
        "unstable_window": u0.value,
        "unstable_drift": u0.drift,
        "stable_window": s0.value,
        "stable_drift": s0.drift,
        "scaling_ratio": sc.ratio,
        "scaling_expected": sc.expected,
        "scaling_rel_gap": sc.rel_gap,
        "parry_depth2_gap": parry.max_rel_gap,
        "tolerance": 1e-9,
        "method": "cylinder-dp",
        "passed": ok,
    }


def _check_homogeneity(sys_obj, cfg):
    from . import measure
    if sys_obj.space_kind != "symbolic":
        raise ValueError("homogeneity is symbolic-only; the toral intrinsic "
                         "measure is Lebesgue, hence homogeneous")
    rng = Random(cfg.seed)
    count = min(cfg.samples, 20)
    xs = [sys_obj.random_point(rng, window=16) for _ in range(max(count, 2))]
    rep = measure.homogeneity_check(sys_obj, xs, depth=cfg.depth)
    # random points realize different symbols at the probed coordinates,
    # so per-n ratios wobble inside a fixed band; flat means no trend
    passed = abs(rep.trend) <= 0.02 and rep.flat_ratio <= 4.0
    return {
        "points": len(xs),
        "c_observed": rep.c_observed,
        "flat_ratio": rep.flat_ratio,
        "trend": rep.trend,
        "d": rep.d,
        "tolerance": 0.02,
        "method": "forward-box-masses",
        "passed": passed,
    }


_CHECKS = {
    "verify": _check_verify,
    "capacity": _check_capacity,
    "entropy": _check_entropy,
    "fundamental": _check_fundamental,
    "triangles": _check_triangles,
    "holonomy": _check_holonomy,
    "measure": _check_measure,
    "homogeneity": _check_homogeneity,
}


def _applicable(config, sys_obj):
    """The checks `all` runs: all its kind can, if it failed to build."""
    names = [n for n in COMMANDS if n != "all"]
    if config.system == "cat-map":
        names.remove("homogeneity")
    elif sys_obj is not None and not sys_obj.matrix.primitive:
        names.remove("measure")
        names.remove("homogeneity")
    return names


def run(config):
    """Execute the configured command(s); returns the report dict."""
    t0 = time.perf_counter()
    if config.command == "all":
        # `all` runs checks of all three; loaded before the system is
        # built, they lower a cat-map run's peak RSS by about 0.6 MB
        from importlib import import_module
        for name in ("core", "dimension", "measure"):
            import_module(f".{name}", __package__)
    try:  # a system that fails to build fails every requested check
        sys_obj, failure = build_system(config), None
    except Exception as e:
        sys_obj, failure = None, e
    if config.command == "all":
        names = _applicable(config, sys_obj)
    else:
        names = [config.command]
    results = {}
    for name in names:
        try:
            if failure is not None:
                raise failure
            results[name] = _CHECKS[name](sys_obj, config)
        except Exception as e:  # wrapped so one failure cannot hide others
            results[name] = {"error": f"{name}: {e}", "passed": False}
    return {
        "tool": "selfsim",
        "version": __version__,
        "config": config._asdict(),
        "results": results,
        "passed": all(r.get("passed", False) for r in results.values()),
        "wall_clock_s": round(time.perf_counter() - t0, 6),
    }


# -- rendering ---------------------------------------------------------------


def render_json(report):
    return json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"


def _flatten(prefix, value, rows):
    if isinstance(value, dict):
        for k in sorted(value):
            _flatten(f"{prefix}.{k}" if prefix else str(k), value[k], rows)
    elif isinstance(value, (list, tuple)):
        for i, v in enumerate(value):
            _flatten(f"{prefix}.{i}", v, rows)
    else:
        if isinstance(value, bool):
            value = "true" if value else "false"
        elif value is None:
            value = ""
        rows.append((prefix, str(value)))


def render_csv(report):
    import csv
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["check", "key", "value"])
    for name in sorted(report["results"]):
        rows = []
        _flatten("", report["results"][name], rows)
        for key, value in rows:
            writer.writerow([name, key, value])
    writer.writerow(["run", "passed",
                     "true" if report["passed"] else "false"])
    writer.writerow(["run", "version", report["version"]])
    return buf.getvalue()


# -- entry point -------------------------------------------------------------


def _build_parser():
    import argparse
    parser = argparse.ArgumentParser(
        prog="selfsim",
        description="Self-similar metric experiments on shifts and toral "
                    "maps.",
    )
    add = parser.add_argument
    add("command", choices=COMMANDS, help="the check to run, or all of them")
    add("--config", help="JSON config file")
    add("--system", help=f"system kind ({', '.join(SYSTEM_KINDS)})")
    add("--lambda", dest="lam", type=float, help="expanding factor override")
    add("--seed", type=int, help="RNG seed (default 0)")
    add("--samples", type=int, help="pair/point budget")
    add("--scale", type=float, help="sampling scale")
    add("--depth", type=int, help="measure DP depth")
    add("--n-max", dest="n_max", type=int, help="entropy horizon")
    add("--out", help="also write the report here")
    add("--format", choices=("json", "csv"),
        help="report format (default json)")
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        data = {}
        if args.config:
            data = _load_config(Path(args.config).read_text())
        for key in ("system", "lam", "seed", "samples", "scale", "depth",
                    "n_max", "out", "format"):
            v = getattr(args, key)
            if v is not None:
                data[key] = v
        data["command"] = args.command
        cfg = _validate(data)
    except OSError as e:
        print(f"config error: {e}", file=_sys.stderr)
        return 2
    except ConfigError as e:
        for msg in e.errors:
            print(f"config error: {msg}", file=_sys.stderr)
        return 2
    report = run(cfg)
    payload = render_csv(report) if cfg.format == "csv" else (
        render_json(report))
    if cfg.out:
        Path(cfg.out).write_text(payload)
    print(payload, end="")
    return 0 if report["passed"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
