"""Prints which checks of `selfsim all --samples 2000` fail at seeds 0-39.

Each line names a system, a check, and the seeds at which the check
fails ("-" for none), for golden-mean, sft-3, sft-4, full-2,
four-symbol and cat-map, the configs of `test_golden_reports.CASES`.
A change that moves a sampled field compares this table before and
after.  Run from anywhere:

    python tests/fixtures/seed_table.py
"""
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

SYSTEMS = ("golden-mean", "sft-3-state", "sft-4-state", "full-2-shift",
           "four-symbol", "cat-map")
SEEDS = range(40)


def main():
    from selfsimilar import cli
    from test_golden_reports import CASES
    for name in SYSTEMS:
        failed = {}
        for seed in SEEDS:
            config = cli.parse_config(json.dumps(
                {**CASES[name], "command": "all", "samples": 2000,
                 "seed": seed}))
            for check, result in cli.run(config)["results"].items():
                failed.setdefault(check, [])
                if not result["passed"]:
                    failed[check].append(seed)
        for check, seeds in failed.items():
            print(f"{name} {check}: {' '.join(map(str, seeds)) or '-'}")


if __name__ == "__main__":
    main()
