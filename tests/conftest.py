"""Session-wide systems, and the environment for child Pythons, shared
across the test modules.

Everything here is deterministic, so building each system once is safe; the
cat map runs its construction-time identity sweep only on first use.
"""

import os
from pathlib import Path

import pytest
from hypothesis import Phase, settings

import selfsimilar
from selfsimilar.core import refine_metric
from selfsimilar.symbolic import four_symbol, full_shift, golden_mean
from selfsimilar.torus import CircleDoubling, cat_map, euclidean_base

# every property test leaves out the explain phase: on a failing example
# it traces variants for minutes and hundreds of MB, where the shrunk
# example alone takes a second.  It changes only how a failure is
# reported, never which examples run.
settings.register_profile(
    "no-explain", phases=[p for p in Phase if p is not Phase.explain])
settings.load_profile("no-explain")


@pytest.fixture(scope="session")
def full2():
    return full_shift(2)


@pytest.fixture(scope="session")
def golden():
    return golden_mean()


@pytest.fixture(scope="session")
def four():
    return four_symbol()


@pytest.fixture(scope="session")
def cat():
    return cat_map()


@pytest.fixture(scope="session")
def euclid(cat):
    return euclidean_base(cat)


@pytest.fixture(scope="session")
def refined_euclid(euclid):
    # window 23 at this tolerance; wide enough that the truncated supremum
    # agrees with the infinite one on every pair the samplers can produce
    return refine_metric(euclid, 1.8, 1e-6)


@pytest.fixture(scope="session")
def doubling():
    return CircleDoubling()


@pytest.fixture(scope="session")
def subprocess_env():
    """Environment for child Pythons: the package source comes first on
    PYTHONPATH, so they import it from a plain checkout."""
    env = dict(os.environ)
    src = str(Path(selfsimilar.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env
