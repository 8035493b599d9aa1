"""Reports of the built-in systems stay the same from one change to the next.

tests/data holds, for each case below, the output of

    selfsim all --config FILE --samples 200 --seed 3 [--format csv]

with FILE holding the case's config, as JSON (with the "wall_clock_s"
entry removed) and as CSV.  The built-in systems' configs name only the
system; the two sft cases carry a matrix whose shortest cycles have
lengths 2 and 3, so their points have tails of both periods.  On the
3-state one no single symbol can change between fixed neighbours, which
stalled the one-symbol flip sampler of earlier versions; the tail
redraw samples it, and both sft cases run the sampled checks.
The cat-map-2000 and golden-mean-2000 cases set their own samples and
seed: they are `selfsim all --system NAME --samples 2000 --seed 0`,
the inputs of the torus-cover and shift-sampled benchmark workloads;
cat-map-2000-104729 is torus-cover's second seed.  cat-map-lam2 is the
cat map at lam = 2, below its cap, so its metric exponent is not 1.0
and every toral norm takes builtin pow elementwise.  golden-mean-lam3 is
a shift at a lam other than 2, whose capacity scales are lam**-j.

A change that moves any reported number, however little, fails here;
if it is meant to, regenerate the files with the command above and say
which values moved.
"""

import json
from pathlib import Path

import pytest

from selfsimilar import cli

DATA = Path(__file__).with_name("data")
CASES = {
    "full-2-shift": {"system": "full-2-shift"},
    "golden-mean": {"system": "golden-mean"},
    "four-symbol": {"system": "four-symbol"},
    "cat-map": {"system": "cat-map"},
    "sft-3-state": {"system": "sft",
                    "rows": [[0, 1, 0], [0, 0, 1], [1, 1, 0]]},
    "sft-4-state": {"system": "sft",
                    "rows": [[0, 1, 0, 0], [0, 0, 1, 1], [1, 1, 0, 0],
                             [1, 0, 0, 0]]},
    # the benchmark's torus-cover and shift-sampled inputs
    "cat-map-2000": {"system": "cat-map", "samples": 2000, "seed": 0},
    "cat-map-2000-104729": {"system": "cat-map", "samples": 2000,
                            "seed": 104729},
    "golden-mean-2000": {"system": "golden-mean", "samples": 2000,
                         "seed": 0},
    "cat-map-lam2": {"system": "cat-map", "lam": 2.0},
    "golden-mean-lam3": {"system": "golden-mean", "lam": 3.0},
}


@pytest.fixture(scope="module", params=CASES)
def system_report(request):
    config = {"command": "all", "samples": 200, "seed": 3,
              **CASES[request.param]}
    report = cli.run(cli.parse_config(json.dumps(config)))
    report.pop("wall_clock_s")
    return request.param, report


def test_json_report_matches_the_stored_one(system_report):
    name, report = system_report
    assert cli.render_json(report) == (DATA / f"{name}.json").read_text()


def test_csv_report_matches_the_stored_one(system_report):
    name, report = system_report
    assert cli.render_csv(report) == (DATA / f"{name}.csv").read_text()


def test_cat_map_diameter_is_pinned(cat):
    assert cat.diameter == 0.6881909602355869
