"""Config parsing, the experiment runner, report rendering, and exit codes."""

import argparse
import json
import math
import subprocess
import sys
import tracemalloc

import pytest

import selfsimilar
from selfsimilar import cli
from selfsimilar.cli import ConfigError, build_system, parse_config, run
from selfsimilar.measure import homogeneity_check


def cfg_text(**kw):
    return json.dumps(kw)


def errors_of(text):
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    return exc.value.errors


# -------------------------------------------------------------------- parsing


def test_minimal_config_fills_defaults():
    cfg = parse_config(cfg_text(system="golden-mean", command="verify"))
    assert cfg.system == "golden-mean" and cfg.command == "verify"
    assert cfg.lam is None and cfg.rows is None and cfg.scale is None
    assert cfg.samples == 10_000 and cfg.depth == 12 and cfg.n_max == 12
    assert cfg.seed == 0 and cfg.out is None and cfg.format == "json"


def test_lambda_is_accepted_as_an_alias():
    cfg = parse_config(
        cfg_text(system="full-2-shift", command="verify", **{"lambda": 3.0})
    )
    assert cfg.lam == 3.0
    errs = errors_of(
        cfg_text(system="full-2-shift", command="verify", lam=3.0,
                 **{"lambda": 3.0})
    )
    assert "give either lam or lambda, not both" in errs


def test_empty_config_is_rejected():
    for text in ("", "   \n\t"):
        errs = errors_of(text)
        assert errs == ["empty config; required fields: system, command"]


def test_invalid_json_is_reported_with_the_parser_message():
    errs = errors_of("{nope")
    assert len(errs) == 1
    assert errs[0].startswith("config is not valid JSON:")


def test_non_object_config_is_rejected():
    errs = errors_of("[1, 2]")
    assert errs == ["config must be a JSON object; required fields: "
                    "system, command"]


def test_lam_bounds(tmp_path, capsys):
    errs = errors_of(cfg_text(system="full-2-shift", command="verify",
                              lam=0.5))
    assert "lam must be a finite number above 1" in errs
    errs = errors_of(cfg_text(system="full-2-shift", command="verify",
                              lam=True))
    assert "lam must be a number" in errs
    errs = errors_of(cfg_text(system="cat-map", command="verify", lam=2.7))
    assert any("for the cat map" in e for e in errs)
    cfg = parse_config(cfg_text(system="cat-map", command="verify", lam=1.8))
    assert cfg.lam == 1.8
    # `nan <= 1` is false, so a bound check alone lets NaN through
    for lam in (math.nan, math.inf, -math.inf):
        errs = errors_of(cfg_text(system="golden-mean", command="all",
                                  lam=lam))
        assert errs == ["lam must be a finite number above 1"]
    # a JSON integer beyond the float range passes `lam < math.inf`
    text = '{"system": "golden-mean", "command": "entropy", "lam": 1%s}' % (
        "0" * 400)
    assert errors_of(text) == ["lam must be a finite number above 1"]
    p = tmp_path / "cfg.json"
    p.write_text(text)
    assert cli.main(["entropy", "--config", str(p)]) == 2
    assert capsys.readouterr().err == (
        "config error: lam must be a finite number above 1\n")
    for scale in (math.nan, math.inf):
        errs = errors_of(cfg_text(system="cat-map", command="all",
                                  scale=scale))
        assert errs == ["scale must be a positive finite number"]


def test_every_problem_is_reported_at_once():
    errs = errors_of(cfg_text(
        system="nope", command="bad", lam=0.5, samples=0, depth=0,
        n_max=2, seed="x", format="xml", out=3, bogus=1,
    ))
    assert len(errs) >= 8
    assert "unknown config key: bogus" in errs
    assert "lam must be a finite number above 1" in errs
    assert "samples must be an integer >= 1" in errs
    assert "depth must be an integer >= 1" in errs
    assert "n_max must be an integer >= 4" in errs
    assert "seed must be an integer" in errs
    assert "format must be json or csv" in errs
    assert "out must be a path string" in errs
    assert any(e.startswith("unknown system kind:") for e in errs)
    assert any(e.startswith("unknown command:") for e in errs)


def test_missing_required_fields():
    errs = errors_of(cfg_text(system="golden-mean"))
    assert "missing required field: command" in errs
    errs = errors_of(cfg_text(command="verify"))
    assert "missing required field: system" in errs


def test_rows_wiring():
    errs = errors_of(cfg_text(system="sft", command="verify"))
    assert "system sft needs a rows matrix" in errs
    errs = errors_of(cfg_text(system="golden-mean", command="verify",
                              rows=[[1, 1], [1, 0]]))
    assert "rows only apply to system kind sft" in errs
    errs = errors_of(cfg_text(system="sft", command="verify", rows=[]))
    assert "malformed matrix: rows must be a nonempty list" in errs
    for rows in ([[1, 0], [1]], [[1, 2], [1, 0]], [[1, 0], "10"]):
        errs = errors_of(cfg_text(system="sft", command="verify", rows=rows))
        assert "malformed matrix: rows must be a square 0/1 table" in errs
    cfg = parse_config(cfg_text(system="sft", command="verify",
                                rows=[[1, 1], [1, 0]]))
    assert build_system(cfg).matrix.rows == ((1, 1), (1, 0))


def test_scale_must_be_positive():
    errs = errors_of(cfg_text(system="cat-map", command="verify", scale=-1))
    assert "scale must be a positive finite number" in errs


# ------------------------------------------------------------------- running


def test_fundamental_run_on_the_golden_mean():
    rep = run(parse_config(cfg_text(system="golden-mean",
                                    command="fundamental")))
    assert rep["tool"] == "selfsim"
    assert rep["version"] == selfsimilar.__version__
    assert rep["config"]["system"] == "golden-mean"
    assert "wall_clock_s" in rep
    res = rep["results"]["fundamental"]
    assert res["capacity"] == pytest.approx(1.3885, rel=1e-3)
    assert res["passed"] and rep["passed"]


def test_all_runs_every_applicable_check(golden_all_report):
    rep = golden_all_report
    assert sorted(rep["results"]) == [
        "capacity", "entropy", "fundamental", "holonomy", "homogeneity",
        "measure", "triangles", "verify",
    ]
    assert all(r["passed"] for r in rep["results"].values())
    assert rep["passed"]


def test_all_drops_checks_that_need_a_primitive_matrix():
    # the reducible four-symbol table has no intrinsic measure
    rep = run(parse_config(cfg_text(system="four-symbol", command="all",
                                    samples=200, depth=6, n_max=10)))
    assert sorted(rep["results"]) == [
        "capacity", "entropy", "fundamental", "holonomy", "triangles",
        "verify",
    ]
    assert rep["results"]["verify"]["passed"]
    assert rep["results"]["entropy"]["passed"]


@pytest.fixture(scope="module")
def golden_all_report():
    return run(parse_config(cfg_text(system="golden-mean", command="all",
                                     samples=300, depth=8)))


def strip_clock(payload):
    data = json.loads(payload)
    data.pop("wall_clock_s")
    return json.dumps(data, sort_keys=True)


def test_reports_are_byte_deterministic(golden_all_report):
    cfg = parse_config(cfg_text(system="golden-mean", command="all",
                                samples=300, depth=8))
    again = cli.render_json(run(cfg))
    first = cli.render_json(golden_all_report)
    assert first.endswith("\n")
    assert strip_clock(first) == strip_clock(again)


def test_capacity_and_fundamental_share_one_fit(monkeypatch):
    calls = []
    fit_once = selfsimilar.dimension.check_fundamental

    def counted(*args, **kw):
        calls.append(args)
        return fit_once(*args, **kw)

    # cli reads the fit from its module at call time
    monkeypatch.setattr(selfsimilar.dimension, "check_fundamental", counted)
    cli._fundamental.cache_clear()
    cfg = parse_config(cfg_text(system="full-2-shift", command="all"))
    sys_obj = build_system(cfg)
    cap = cli._check_capacity(sys_obj, cfg)
    fun = cli._check_fundamental(sys_obj, cfg)
    assert len(calls) == 1
    assert cap["capacity"] == fun["capacity"]
    assert cap["rel_gap"] == fun["rel_gap"]
    assert cap["rel_gap"] == abs(cap["capacity"] - cap["ent_over_log_lam"]) \
        / cap["ent_over_log_lam"]
    # another system or horizon gets its own fit
    cli._check_capacity(build_system(cfg), cfg._replace(n_max=10))
    assert len(calls) == 2


# ------------------------------------------------------------------ rendering


def test_json_rendering_is_compact_and_sorted():
    payload = cli.render_json({"b": 1, "a": {"d": None, "c": [1, 2]}})
    assert payload == '{"a":{"c":[1,2],"d":null},"b":1}\n'


def test_csv_rendering_shape():
    report = {
        "results": {
            "verify": {"passed": True, "max_rel_deviation": 0.0,
                       "scales": [0.5, 0.25], "note": None},
        },
        "passed": True,
        "version": "9.9.9",
        "wall_clock_s": 1.23,
    }
    lines = cli.render_csv(report).splitlines()
    assert lines[0] == "check,key,value"
    assert "verify,passed,true" in lines
    assert "verify,max_rel_deviation,0.0" in lines
    assert "verify,scales.0,0.5" in lines and "verify,scales.1,0.25" in lines
    assert "verify,note," in lines
    assert lines[-2] == "run,passed,true"
    assert lines[-1] == "run,version,9.9.9"
    assert not any("wall_clock" in line for line in lines)


# ----------------------------------------------------------------- exit codes


def test_exit_zero_with_config_file(tmp_path, capsys):
    p = tmp_path / "cfg.json"
    p.write_text(cfg_text(system="golden-mean", command="verify",
                          samples=200))
    assert cli.main(["verify", "--config", str(p)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["results"]["verify"]["exact"]
    assert out["results"]["verify"]["checked"] == 200
    assert out["passed"] is True


def test_a_scale_below_the_roundoff_floor_is_reported(capsys):
    # pairs this close cannot meet their 1e-9 target check in doubles;
    # the sampler says so before drawing, and the report carries it
    code = cli.main(["verify", "--system", "cat-map", "--scale", "1e-9"])
    assert code == 1
    res = json.loads(capsys.readouterr().out)["results"]["verify"]
    floor = build_system(parse_config(cfg_text(
        system="cat-map", command="verify")))._min_scale
    assert res == {"error": f"verify: scale 1e-09 is below {floor:.6g}, "
                   "the smallest at which double roundoff lets a sampled "
                   "pair hit its target distance", "passed": False}


def test_a_system_that_fails_to_build_fails_each_check(capsys):
    # at lam 1.3 the cat map's default scale is below its sampling
    # floor, which the construction sweep meets; the report still prints
    for command, names in (("verify", ["verify"]),
                           ("all", [n for n in cli.COMMANDS
                                    if n not in ("all", "homogeneity")])):
        code = cli.main([command, "--system", "cat-map", "--lambda", "1.3"])
        assert code == 1
        out = json.loads(capsys.readouterr().out)
        assert sorted(out["results"]) == sorted(names)
        for name, res in out["results"].items():
            assert res["passed"] is False
            assert res["error"].startswith(f"{name}: scale 0.00625 is below")
        assert out["passed"] is False


def test_exit_one_when_a_check_fails(capsys):
    # homogeneity needs spectral data the reducible matrix lacks; the
    # error is folded into the report rather than crashing the run
    code = cli.main(["homogeneity", "--system", "four-symbol"])
    assert code == 1
    out = json.loads(capsys.readouterr().out)
    res = out["results"]["homogeneity"]
    assert res["passed"] is False
    assert res["error"].startswith("homogeneity:")
    assert out["passed"] is False


@pytest.mark.parametrize("argv, message", [
    (["triangles", "--system", "cat-map", "--scale", "0.05"],
     "triangles: triangle scale must be <= xi/(2 lam)"),
    (["homogeneity", "--system", "cat-map"],
     "homogeneity: homogeneity is symbolic-only"),
])
def test_toral_checks_report_what_they_cannot_run(capsys, argv, message):
    assert cli.main(argv) == 1
    res = json.loads(capsys.readouterr().out)["results"][argv[0]]
    assert res["passed"] is False
    assert res["error"].startswith(message)


def test_a_one_state_shift_fails_without_dividing_by_zero():
    # [[1]] is a valid config with no entropy: every check fails, and
    # the two that divided by its zero target or exponent name it
    rep = run(parse_config(cfg_text(system="sft", command="all",
                                    rows=[[1]], samples=50)))
    errors = {name: res["error"] for name, res in rep["results"].items()}
    assert not any("division by zero" in e for e in errors.values())
    assert errors["entropy"] == (
        "entropy: entropy target 2 log rho is 0: no relative gap")
    assert errors["homogeneity"] == (
        "homogeneity: dimension exponent must be positive")
    for name in ("verify", "triangles", "holonomy"):
        assert errors[name] == f"{name}: sampling stalled; matrix too rigid"
    assert not rep["passed"]
    one = build_system(parse_config(cfg_text(system="sft", command="all",
                                             rows=[[1]])))
    with pytest.raises(ValueError, match="exponent must be positive"):
        homogeneity_check(one, [one.constant(0)])


def test_exit_two_on_config_problems(tmp_path, capsys):
    assert cli.main(["verify", "--config",
                     str(tmp_path / "missing.json")]) == 2
    assert capsys.readouterr().err.startswith("config error:")

    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert cli.main(["verify", "--config", str(bad)]) == 2
    assert "config is not valid JSON" in capsys.readouterr().err

    empty = tmp_path / "empty.json"
    empty.write_text("")
    assert cli.main(["verify", "--config", str(empty)]) == 2
    assert "empty config" in capsys.readouterr().err

    listed = tmp_path / "list.json"
    listed.write_text("[1, 2]")
    assert cli.main(["verify", "--config", str(listed)]) == 2
    assert capsys.readouterr().err == (
        "config error: config must be a JSON object; required fields: "
        "system, command\n")

    assert cli.main(["verify", "--seed", "7"]) == 2
    assert "missing required field: system" in capsys.readouterr().err

    nan = tmp_path / "nan.json"
    nan.write_text('{"system": "golden-mean", "command": "all", "lam": NaN}')
    for argv in (["all", "--config", str(nan)],
                 ["all", "--system", "golden-mean", "--lambda", "nan"],
                 ["all", "--system", "golden-mean", "--lambda", "inf"],
                 ["all", "--system", "cat-map", "--scale", "nan"]):
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("config error:")
        assert "finite" in captured.err
        assert captured.out == ""


def subcommand_parser():
    """The command line as one subcommand parser per command, each with
    every option, as a reference for the single parser."""
    parser = argparse.ArgumentParser(prog="selfsim")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in cli.COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config")
        p.add_argument("--system")
        p.add_argument("--lambda", dest="lam", type=float)
        p.add_argument("--seed", type=int)
        p.add_argument("--samples", type=int)
        p.add_argument("--scale", type=float)
        p.add_argument("--depth", type=int)
        p.add_argument("--n-max", dest="n_max", type=int)
        p.add_argument("--out")
        p.add_argument("--format", choices=("json", "csv"))
    return parser


OPTION_VALUES = {
    "--config": ["cfg.json"], "--system": ["golden-mean", "sft"],
    "--lambda": ["2.5", "1e3", "-1", "two"], "--seed": ["7", "-3", "1.5"],
    "--samples": ["200", "many"], "--scale": ["0.01", "inf"],
    "--depth": ["4", "4.0"], "--n-max": ["10", ""], "--out": ["r.json"],
    "--format": ["json", "csv", "xml"], "--sam": ["5"], "--bogus": ["1"],
}


def parse_outcome(parser, argv):
    """The parsed options, or the exit code argparse stops with."""
    try:
        return vars(parser.parse_args(argv))
    except SystemExit as e:
        return e.code


def test_every_argv_parses_as_with_subcommand_parsers(capsys):
    new, old = cli._build_parser(), subcommand_parser()
    argvs = [[], ["--help"], ["bogus"], ["verify", "all"], ["--seed", "1"]]
    parsed = 0
    for command in cli.COMMANDS:
        argvs += [[command], [command, "--help"], [command, "--seed"],
                  [command] + [arg for opt, values in OPTION_VALUES.items()
                               if opt not in ("--sam", "--bogus")
                               for arg in (opt, values[0])]]
        argvs += [[command, opt, value]
                  for opt, values in OPTION_VALUES.items()
                  for value in values]
    for argv in argvs:
        want = parse_outcome(old, argv)
        assert parse_outcome(new, argv) == want, argv
        parsed += isinstance(want, dict)
    capsys.readouterr()
    # per command: alone, with every option, and 17 valid option values
    assert parsed == 9 * 19


def test_csv_format_via_the_command_line(capsys):
    code = cli.main(["capacity", "--system", "full-2-shift",
                     "--format", "csv"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "check,key,value"
    assert "capacity,passed,true" in lines
    assert any(line.startswith("capacity,scales.0,") for line in lines)
    assert lines[-2] == "run,passed,true"
    assert lines[-1] == f"run,version,{selfsimilar.__version__}"
    assert not any("wall_clock" in line for line in lines)


def test_out_file_duplicates_stdout(tmp_path, capsys):
    target = tmp_path / "report.json"
    code = cli.main(["verify", "--system", "full-2-shift",
                     "--samples", "150", "--out", str(target)])
    assert code == 0
    assert target.read_text() == capsys.readouterr().out


def test_lambda_flag_rescales_capacity(capsys):
    code = cli.main(["capacity", "--system", "full-2-shift",
                     "--lambda", "4.0"])
    assert code == 0
    res = json.loads(capsys.readouterr().out)["results"]["capacity"]
    assert res["capacity"] == pytest.approx(1.0, rel=1e-6)
    assert res["capacity"] * math.log(4.0) == pytest.approx(
        2.0 * math.log(2.0), rel=1e-6)
    assert res["passed"]


@pytest.mark.parametrize("lam", [2.0, 1.5])
def test_toral_holonomy_legs_have_their_metric_lengths(lam, capsys):
    """Below the cat map's cap the metric exponent e is below 1, so a leg
    of metric length l runs l**(1/e) along its eigenline: each leg has
    the length the check assumes, and every quadruple is in range."""
    sys_obj = build_system(parse_config(cfg_text(
        command="holonomy", system="cat-map", lam=lam)))
    assert sys_obj.e < 1.0
    scale = sys_obj.xi / lam**3
    p, q, pp, _ = cli._toral_holonomy_quads(sys_obj, 500, 0, scale).cols
    for ends, top in (((p, q), scale), ((p, pp), sys_obj.xi / 4)):
        d = [sys_obj.dist(*pair) for pair in zip(*(a.tolist() for a in ends))]
        assert 0.25 * top * (1 - 1e-9) <= min(d) and max(d) <= top * (1 + 1e-9)
    code = cli.main(["holonomy", "--system", "cat-map", "--lambda", str(lam),
                     "--samples", "2000", "--seed", "0"])
    assert code == 0
    res = json.loads(capsys.readouterr().out)["results"]["holonomy"]
    assert res["in_range"] == res["quadruples"] == 2000
    assert res["violations"] == 0


def test_console_script_is_installed(subprocess_env):
    proc = subprocess.run(
        [sys.executable, "-m", "selfsimilar.cli", "verify",
         "--system", "full-2-shift", "--samples", "200"],
        capture_output=True, text=True, env=subprocess_env,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["passed"] is True


def test_shift_holonomy_memory_does_not_grow_with_the_samples(golden):
    """The holonomy check on a shift folds its quadruples a chunk at a
    time, so its traced peak at 200,000 samples is within 1.2 times the
    peak at 20,000."""
    def peak(samples):
        config = parse_config(json.dumps({
            "system": "golden-mean", "command": "holonomy",
            "samples": samples}))
        tracemalloc.start()
        try:
            assert cli._check_holonomy(golden, config)["passed"]
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(2_000)  # the modules load and the tables fill
    assert peak(200_000) <= 1.2 * peak(20_000)


def test_shift_runs_leave_numpy_random_unloaded(subprocess_env, tmp_path):
    # numpy loads only with the torus: `selfsim all` on every shift system,
    # in JSON and in CSV, runs without it (and without numpy.random, about
    # 6 MB of resident memory); on the cat map it loads numpy alone
    configs = [{"system": name} for name in
               ("golden-mean", "full-2-shift", "four-symbol")] + [
        {"system": "sft", "rows": rows}
        for rows in ([[0, 1, 0], [0, 0, 1], [1, 1, 0]],
                     [[0, 1, 0, 0], [0, 0, 1, 1], [1, 1, 0, 0], [1, 0, 0, 0]])]
    paths = [tmp_path / f"shift-{i}.json" for i in range(len(configs))]
    for path, config in zip(paths, configs):
        path.write_text(json.dumps(config))
    paths = list(map(str, paths))
    code = f"""\
import contextlib, io, sys
from selfsimilar import cli
for path in {paths!r}:
    for fmt in ("json", "csv"):
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["all", "--config", path, "--samples", "50",
                      "--format", fmt])
        assert "numpy" not in sys.modules, (path, fmt)
with contextlib.redirect_stdout(io.StringIO()):
    cli.main(["all", "--system", "cat-map", "--samples", "50"])
print("numpy" in sys.modules, "numpy.random" in sys.modules)
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=subprocess_env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True", "False"]


def test_importing_the_cli_loads_no_argument_parser(subprocess_env):
    # argparse (and the gettext it loads) is imported when `main` builds
    # its parser; a bad argument still stops with argparse's exit code 2
    code = ("import contextlib, io, sys\nbefore = set(sys.modules)\n"
            "from selfsimilar import cli\n"
            "print(sorted({'argparse', 'gettext'}"
            " & (set(sys.modules) - before)))\n"
            "try:\n"
            "    with contextlib.redirect_stderr(io.StringIO()):\n"
            "        cli.main(['bogus'])\n"
            "except SystemExit as e:\n"
            "    print(e.code, 'argparse' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=subprocess_env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["[]", "2", "True"]


def test_shift_measure_runs_leave_numpy_unloaded(subprocess_env):
    # numpy loads only with the torus (its sampler, maps and toral covers);
    # the exact shift measure path, like every shift path, runs without it
    code = """\
import sys
from random import Random
import selfsimilar, selfsimilar.cli
from selfsimilar import (UnstableWindow, cov_identity_check, entropy,
                         full_shift, golden_mean, hausdorff_estimate,
                         homogeneity_check, intrinsic_exponent, parry_compare)
f3, g = full_shift(3), golden_mean()
assert len(parry_compare(f3, 5).rows) == 3 ** 11
assert hausdorff_estimate(g, UnstableWindow(g.constant(0), 0),
                          intrinsic_exponent(g), 12).value == 1.0
assert entropy(g, n_max=64).ent > 0
assert all(r.consistent for r in cov_identity_check(g, k_max=6))
rng = Random(0)
xs = [g.random_point(rng, window=16) for _ in range(20)]
assert homogeneity_check(g, xs).c_observed > 1
assert "numpy" not in sys.modules, "numpy loaded"
assert "selfsimilar.core" not in sys.modules, "core loaded"
assert "selfsimilar._lanes" not in sys.modules, "lane kernels loaded"
assert selfsimilar.cat_map().space_kind == "toral"
assert selfsimilar.torus.ToralSystem is selfsimilar.ToralSystem
namespace = {}
exec("from selfsimilar import *", namespace)
assert set(selfsimilar.__all__) <= set(namespace)
print("numpy" in sys.modules)
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=subprocess_env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True"]


# the exact-measure benchmark's library steps, then `selfsim measure`
_EXACT_STEPS = """\
from random import Random
from selfsimilar import (UnstableWindow, cov_identity_check, entropy,
                         full_shift, golden_mean, hausdorff_estimate,
                         homogeneity_check, intrinsic_exponent,
                         local_entropy_homogeneity, parry_compare,
                         scaling_check)
f3, g, f2 = full_shift(3), golden_mean(), full_shift(2)
rng = Random(0)
xs_g = [g.random_point(rng, window=16) for _ in range(20)]
xs_3 = [f3.random_point(rng, window=16) for _ in range(20)]
assert len(parry_compare(f3, 5).rows) == 3 ** 11
assert len(parry_compare(g, 10).rows) == 28657
for sys_ in (f2, f3, g):
    w = UnstableWindow(sys_.constant(0), 0)
    hausdorff_estimate(sys_, w, intrinsic_exponent(sys_), 12)
    scaling_check(sys_, UnstableWindow(sys_.constant(0), 3))
for sys_, xs in ((f3, xs_3), (g, xs_g)):
    homogeneity_check(sys_, xs)
    entropy(sys_, n_max=64)
    assert all(r.consistent for r in cov_identity_check(sys_, k_max=12))
    local_entropy_homogeneity(sys_, xs[:10], n_max=64)
"""
_CLI_MEASURE = """\
import contextlib, io
from selfsimilar import cli
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["measure", "--system", "golden-mean"]) == 0
"""


@pytest.mark.parametrize("steps", [_EXACT_STEPS, _CLI_MEASURE],
                         ids=["exact-measure", "cli-measure"])
def test_shift_measure_runs_load_no_record_or_csv_modules(subprocess_env,
                                                          steps):
    # each of these costs milliseconds at start-up: dataclasses loads
    # inspect, fractions loads decimal
    code = ("import sys\nbefore = set(sys.modules)\n" + steps
            + "print(sorted({'dataclasses', 'inspect', 'fractions',"
            " 'decimal', 'csv'} & (set(sys.modules) - before)))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=subprocess_env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["[]"]


def test_toral_runs_leave_the_shift_modules_unloaded(subprocess_env):
    code = ("import contextlib, io, sys\n"
            "from selfsimilar import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    cli.main(['all', '--system', 'cat-map', '--samples', '50'])\n"
            "print('selfsimilar.symbolic' in sys.modules,"
            " 'fractions' in sys.modules, 'selfsimilar.measure' in"
            " sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=subprocess_env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "False", "True"]


def test_shift_checks_on_built_points_leave_numpy_unloaded(subprocess_env):
    # pairs that are not sampled rows take the scalar levels, and the
    # holonomy scale and precondition are plain Python
    code = """\
import sys
from selfsimilar import (golden_mean, holonomy_deviation, triangle_ratio,
                         verify_self_similar)
g = golden_mean()
x = g.constant(0)
q, pp = x.with_value(5, 1), x.with_value(-3, 1)
assert verify_self_similar(g, [(x, q), (x, pp)]).passed
assert triangle_ratio(g, x, q).ratio == 1.0
rep = holonomy_deviation(g, x, q, pp, g.triangle_vertex(pp, q))
assert rep.precondition_ok and rep.in_range and rep.observed == 0.0
print("numpy" in sys.modules)
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=subprocess_env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]


PUBLIC = {
    "core": ["holder_check", "holonomy_deviation", "refine_metric",
             "stable_contraction_check", "triangle_curve", "triangle_ratio",
             "verify_self_similar"],
    "dimension": ["capacity", "check_fundamental", "cov_eps",
                  "cov_identity_check", "entropy",
                  "local_entropy_homogeneity", "local_unstable_entropy"],
    "measure": ["Box", "StableWindow", "UnstableWindow", "box_measure",
                "hausdorff_estimate", "homogeneity_check",
                "intrinsic_exponent", "parry_compare", "scaling_check",
                "toral_measure_summary"],
    "symbolic": ["ShiftSystem", "TransitionMatrix", "bi_sequence",
                 "count_words", "exact_cov", "four_symbol", "full_shift",
                 "golden_mean", "iter_words", "parry_measure", "sft_new",
                 "spectral_radius"],
    "torus": ["CircleDoubling", "EuclideanTorus", "ToralSystem", "cat_map",
              "euclidean_base", "toral_new"],
}


def test_modules_load_on_first_use(subprocess_env):
    # importing the package and its CLI loads no library module; a
    # refined toral metric loads the two it is built from
    code = f"""\
import sys
import selfsimilar, selfsimilar.cli
PUBLIC = {PUBLIC!r}
def loaded():
    return sorted(m for m in sys.modules if m.startswith("selfsimilar."))
assert loaded() == ["selfsimilar.cli"], loaded()
assert "numpy" not in sys.modules, "numpy loaded"
from selfsimilar import cat_map, euclidean_base, refine_metric
refine_metric(euclidean_base(cat_map()), 1.8, 1e-6)
print(*loaded())
names = sorted(n for ns in PUBLIC.values() for n in ns)
assert selfsimilar.__all__ == ["__version__"] + names
for mod, ns in PUBLIC.items():
    module = getattr(selfsimilar, mod)
    assert module is sys.modules["selfsimilar." + mod]
    assert all(getattr(selfsimilar, n) is getattr(module, n) for n in ns)
listed = {{}}
exec("from selfsimilar import " + ", ".join(selfsimilar.__all__), listed)
starred = {{}}
exec("from selfsimilar import *", starred)
for name in selfsimilar.__all__:
    assert name in dir(selfsimilar), name
    assert listed[name] is starred[name] is getattr(selfsimilar, name)
assert not hasattr(selfsimilar, "_HOLONOMY_DEPTH")
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=subprocess_env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["selfsimilar._streams", "selfsimilar.cli",
                                   "selfsimilar.core", "selfsimilar.torus"]
