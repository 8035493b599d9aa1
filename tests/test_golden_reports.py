"""Reports of the built-in systems stay the same from one change to the next.

tests/data holds, for each built-in system, the output of

    selfsim all --system NAME --samples 200 --seed 3 [--format csv]

as JSON (with the "wall_clock_s" entry removed) and as CSV.  A change that
moves any reported number, however little, fails here; if it is meant to,
regenerate the files with the command above and say which values moved.
"""

from pathlib import Path

import pytest

from selfsimilar import cli

DATA = Path(__file__).with_name("data")
SYSTEMS = ("full-2-shift", "golden-mean", "four-symbol", "cat-map")


@pytest.fixture(scope="module", params=SYSTEMS)
def system_report(request):
    cfg = cli.parse_config(
        f'{{"system": "{request.param}", "command": "all", '
        '"samples": 200, "seed": 3}'
    )
    report = cli.run(cfg)
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
