"""Prints each function of src/selfsimilar with lines that never ran.

Under `sys.settrace` it runs

- `selfsim all` on every config of `test_golden_reports.CASES` (200
  samples and seed 3 where the case sets none, as the stored reports),
  in JSON and in CSV;
- the six demos;
- perfbench's exact-measure and torus-refined library units at seed 0
  (`perfbench/unit.py` is imported and called, not changed).

A function's lines are those of its code objects' line tables, with the
comprehensions, lambdas and generator expressions it holds; a function
that was entered counts its first line as run.  Run from anywhere:

    python tests/fixtures/line_trace.py
"""
import contextlib
import importlib.util
import inspect
import io
import json
import runpy
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src" / "selfsimilar"
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]


def functions(path):
    """{(first line, qualname): set of lines} of the functions in a
    module source file."""
    out = {}

    def walk(code, prefix, owner):
        for const in code.co_consts:
            if not inspect.iscode(const):
                continue
            if not const.co_flags & inspect.CO_OPTIMIZED:  # a class body
                walk(const, f"{prefix}{const.co_name}.", None)
                continue
            if const.co_name.startswith("<") and owner is not None:
                key = owner  # a comprehension or lambda of the function
            else:
                key = (const.co_firstlineno, prefix + const.co_name)
                out[key] = set()
            out[key] |= {line for *_, line in const.co_lines()
                         if line is not None}
            walk(const, f"{key[1]}.", key)

    walk(compile(path.read_text(), str(path), "exec"), "", None)
    return out


def traced(run, ran):
    """Run `run()` with every line of the package's files recorded."""
    files = {str(p) for p in SRC.glob("*.py")}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def on_call(frame, event, arg):
        code = frame.f_code
        # module and class bodies run their `def` lines, not the functions
        if (code.co_filename not in files
                or not code.co_flags & inspect.CO_OPTIMIZED):
            return None
        ran[code.co_filename].add(code.co_firstlineno)
        return local

    sys.settrace(on_call)
    try:
        run()
    finally:
        sys.settrace(None)


def run_cli():
    from selfsimilar import cli
    from test_golden_reports import CASES
    with tempfile.TemporaryDirectory() as tmp:
        for name, case in CASES.items():
            path = Path(tmp) / f"{name}.json"
            path.write_text(json.dumps({"command": "all", "samples": 200,
                                        "seed": 3, **case}))
            for fmt in ("json", "csv"):
                with contextlib.redirect_stdout(io.StringIO()):
                    cli.main(["all", "--config", str(path), "--format", fmt])


def run_demos():
    for path in sorted((ROOT / "demos").glob("*.py")):
        with contextlib.redirect_stdout(io.StringIO()):
            runpy.run_path(str(path), run_name="__main__")


def run_units():
    spec = importlib.util.spec_from_file_location(
        "perfbench_unit", ROOT / "perfbench" / "unit.py")
    unit = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(unit)
    import selfsimilar
    for name in ("exact-measure", "torus-refined"):
        workload, out = unit.WORKLOADS[name], unit.Outcome(0)
        workload["run"](selfsimilar, workload, 0, out)
        if out.problems:
            raise SystemExit(f"{name}: {out.problems}")


def spans(lines):
    """'3-5, 9' for the sorted lines 3, 4, 5, 9."""
    out, lines = [], sorted(lines)
    for line in lines:
        if out and line == out[-1][1] + 1:
            out[-1][1] = line
        else:
            out.append([line, line])
    return ", ".join(f"{a}-{b}" if a < b else str(a) for a, b in out)


def main():
    ran = defaultdict(set)
    for run in (run_cli, run_demos, run_units):
        traced(run, ran)
    whole = part = total = 0
    for path in sorted(SRC.glob("*.py")):
        for (_, name), lines in sorted(functions(path).items()):
            missed = lines - ran[str(path)]
            if not missed:
                continue
            whole += missed == lines
            part += missed != lines
            total += len(missed)
            state = "never ran" if missed == lines else (
                f"{len(missed)} of {len(lines)} lines never ran")
            print(f"{path.name} {name} ({state}): {spans(missed)}")
    print(f"{whole} functions never ran, {part} ran in part; "
          f"{total} lines never ran")


if __name__ == "__main__":
    main()
