"""Prints each value of the stored reports in tests/data that a rerun moves.

For every config of `test_golden_reports.CASES` it runs

    selfsim all --config FILE --format csv

with FILE holding the case's config over samples 200 and seed 3 (a case
that sets its own keeps them), as the stored reports were made, and
prints each key whose value differs from tests/data/NAME.csv, old -> new
("-" for a key on one side only).  Run from anywhere, before
regenerating the stored files:

    python tests/fixtures/golden_diff.py
"""
import contextlib
import csv
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
DATA = ROOT / "tests" / "data"
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]


def values(text):
    """{check.key: value} of a CSV report."""
    rows = csv.reader(io.StringIO(text))
    next(rows)  # the header
    return {f"{check}.{key}": value for check, key, value in rows}


def main():
    from selfsimilar import cli
    from test_golden_reports import CASES
    moved = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name, case in CASES.items():
            path = Path(tmp) / f"{name}.json"
            path.write_text(json.dumps({"command": "all", "samples": 200,
                                        "seed": 3, **case}))
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                cli.main(["all", "--config", str(path), "--format", "csv"])
            stored = DATA / f"{name}.csv"
            if not stored.exists():
                print(f"{name}: no stored report")
                continue
            old, new = values(stored.read_text()), values(out.getvalue())
            for key in sorted(old.keys() | new.keys()):
                if old.get(key) != new.get(key):
                    moved += 1
                    print(f"{name} {key}: {old.get(key, '-')} -> "
                          f"{new.get(key, '-')}")
    print(f"{moved} values moved")


if __name__ == "__main__":
    main()
