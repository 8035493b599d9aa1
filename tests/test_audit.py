"""Nothing labelled as measured is computed from its own target.

Each system is built with `cli.build_system`, and every check that
`selfsim all` runs on it runs twice, at 300 samples and seed 3: once as
it is, and once with the source of the target scaled by 1 + 1e-3 after
the build (a shift: the rho that `symbolic._parry_data` returns; the
torus: `ToralSystem.eig_unstable`, where the metric reads only the
precomputed exponent `e`).  `CLASSES` sorts every report key into

- measured: it reads no target, so it must not move (labels, counts and
  tolerances read nothing and are measured too);
- target: the target itself, or a gap to it, which moves with it;
- exponent: computed at the target exponent d = log rho / log lam (or
  log |mu_u| / log lam), which moves with it.

The toral keys of ROADMAP item 5 are meant to be measured but read the
closed form today: they are strict xfails, which flip when item 5
replaces them with measured values.
"""
import contextlib
import json

import pytest

from selfsimilar import cli, dimension, symbolic

SYSTEMS = {"golden-mean": {"system": "golden-mean"},
           "sft-4-state": {"system": "sft", "rows": [
               [0, 1, 0, 0], [0, 0, 1, 1], [1, 1, 0, 0], [1, 0, 0, 0]]},
           "cat-map": {"system": "cat-map"}}
MEASURED, TARGET, EXPONENT = "measured", "target", "exponent"


def _classes(keys, shift, torus):
    """Each check.key of `keys` (one string) at its shift and toral class
    (None: not reported there)."""
    return dict.fromkeys(keys.split(), (shift, torus))


CLASSES = {
    **_classes("verify.checked verify.rejected verify.max_rel_deviation "
               "verify.mean_rel_deviation verify.exact verify.tolerance "
               "verify.method verify.passed", MEASURED, MEASURED),
    **_classes("capacity.capacity capacity.ent_over_log_lam "
               "capacity.rel_gap capacity.scales capacity.counts "
               "capacity.residual capacity.tolerance capacity.method "
               "capacity.passed", MEASURED, MEASURED),
    **_classes("entropy.ent entropy.ent_plus entropy.ent_minus "
               "entropy.standard entropy.gap_two_sided entropy.tolerance "
               "entropy.method", MEASURED, MEASURED),
    **_classes("entropy.target entropy.rel_gap entropy.passed", TARGET,
               TARGET),
    **_classes("fundamental.capacity fundamental.ent fundamental.log_lam "
               "fundamental.ent_over_log_lam fundamental.rel_gap "
               "fundamental.tolerance fundamental.method "
               "fundamental.passed", MEASURED, MEASURED),
    **_classes("triangles.pairs triangles.max_ratio_deviation "
               "triangles.tolerance triangles.method triangles.passed",
               MEASURED, MEASURED),
    **_classes("holonomy.quadruples holonomy.in_range holonomy.rejected "
               "holonomy.violations holonomy.max_observed "
               "holonomy.tolerance holonomy.method holonomy.passed",
               MEASURED, MEASURED),
    **_classes("measure.d", TARGET, TARGET),
    **_classes("measure.scaling_expected measure.passed", EXPONENT,
               EXPONENT),
    **_classes("measure.tolerance measure.method", MEASURED, MEASURED),
    # a shift's box masses come from the cylinder DP at d; the torus
    # maps its plaque
    **_classes("measure.scaling_ratio", EXPONENT, MEASURED),
    **_classes("measure.unstable_window measure.unstable_drift "
               "measure.stable_window measure.stable_drift "
               "measure.scaling_rel_gap measure.parry_depth2_gap", EXPONENT,
               None),
    **_classes("measure.plaque_u_length measure.image_u_length", None,
               MEASURED),
    **_classes("measure.scaling_gap measure.exponent_product", None,
               EXPONENT),
    **_classes("homogeneity.points homogeneity.tolerance "
               "homogeneity.method", MEASURED, None),
    **_classes("homogeneity.d", TARGET, None),
    **_classes("homogeneity.c_observed homogeneity.flat_ratio "
               "homogeneity.trend homogeneity.passed", EXPONENT, None),
}
# read from the closed form on the torus, to be measured (ROADMAP item
# 5): the entropies, the capacity right-hand side that reads `ent`, the
# image plaque's length, and the gaps that read them
ITEM_5 = {"entropy.ent", "entropy.ent_plus", "entropy.ent_minus",
          "entropy.standard", "entropy.gap_two_sided",
          "capacity.ent_over_log_lam",
          "capacity.rel_gap", "fundamental.ent",
          "fundamental.ent_over_log_lam", "fundamental.rel_gap",
          "measure.scaling_ratio", "measure.image_u_length"}


@contextlib.contextmanager
def _perturbed(sys_obj, scale):
    """For the block, the source of the target of `sys_obj` scaled by
    `scale`: a shift's rho from `symbolic._parry_data`, the torus's
    `eig_unstable`."""
    parry = symbolic._parry_data

    def scaled(matrix):
        rho, v, pi = parry(matrix)
        return rho * scale, v, pi
    cli._fundamental.cache_clear()
    with pytest.MonkeyPatch.context() as patch:
        if sys_obj.space_kind == "symbolic":
            patch.setattr(symbolic, "_parry_data", scaled)
        else:
            patch.setattr(sys_obj, "eig_unstable",
                          sys_obj.eig_unstable * scale)
        try:
            yield
        finally:
            cli._fundamental.cache_clear()


def _reports(name, scale):
    """{check.key: value} of `all`'s checks on the built-in `name`, its
    target's source scaled by `scale` after the build."""
    config = cli.parse_config(json.dumps({**SYSTEMS[name], "command": "all",
                                          "samples": 300, "seed": 3}))
    sys_obj = cli.build_system(config)
    with _perturbed(sys_obj, scale):
        return {f"{check}.{key}": value
                for check in cli._applicable(config, sys_obj)
                for key, value in cli._CHECKS[check](sys_obj,
                                                     config).items()}


@pytest.fixture(scope="module")
def runs():
    """Per system, (its reports as they are, perturbed)."""
    return {name: (_reports(name, 1.0), _reports(name, 1 + 1e-3))
            for name in SYSTEMS}


@pytest.mark.parametrize("name", SYSTEMS)
def test_every_report_key_has_a_class(runs, name):
    as_is, perturbed = runs[name]
    assert set(as_is) == set(perturbed) == {
        key for key, classes in CLASSES.items()
        if classes[name == "cat-map"] is not None}


@pytest.mark.parametrize("name", SYSTEMS)
def test_measured_keys_do_not_move(runs, name):
    as_is, perturbed = runs[name]
    toral = name == "cat-map"
    moved = [key for key in as_is
             if CLASSES[key][toral] == MEASURED
             and not (toral and key in ITEM_5)
             and as_is[key] != perturbed[key]]
    assert moved == []


@pytest.mark.parametrize("name", SYSTEMS)
def test_the_perturbation_reaches_the_target(runs, name):
    """The audit sees a moved target: each system moves its target
    exponent `measure.d`, and a shift its `entropy.target`."""
    as_is, perturbed = runs[name]
    assert as_is["measure.d"] != perturbed["measure.d"]
    if name != "cat-map":
        assert as_is["entropy.target"] != perturbed["entropy.target"]


@pytest.mark.parametrize("key", sorted(ITEM_5))
@pytest.mark.xfail(strict=True, reason="ROADMAP item 5: the torus reads "
                   "this key from its closed-form target")
def test_toral_key_does_not_read_its_target(runs, key):
    as_is, perturbed = runs["cat-map"]
    assert as_is[key] == perturbed[key]


def _local_entropy(name, scale):
    """The library-only `local_unstable_entropy` of the built-in `name`
    at one point, its target's source scaled by `scale` after the build:
    at the first state's shortest cycle on a shift, at (0.1, 0.2) on the
    torus."""
    sys_obj = cli.build_system(cli.parse_config(json.dumps(
        {**SYSTEMS[name], "command": "all"})))
    x = (sys_obj.point(sys_obj.matrix.cycle_word(0))
         if sys_obj.space_kind == "symbolic" else (0.1, 0.2))
    with _perturbed(sys_obj, scale):
        return dimension.local_unstable_entropy(sys_obj, x)


def test_local_unstable_entropy_is_measured_on_a_shift():
    """On a shift it reads the forward word counts, `_count_vectors`."""
    assert _local_entropy("golden-mean", 1.0) == _local_entropy(
        "golden-mean", 1 + 1e-3)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 5: the torus reads "
                   "local unstable entropy from ceil(mu**n), its closed "
                   "form")
def test_toral_local_unstable_entropy_does_not_read_its_target():
    assert _local_entropy("cat-map", 1.0) == _local_entropy(
        "cat-map", 1 + 1e-3)
