"""Self-similar metrics for expansive systems: shifts and toral maps.

The package builds metrics in which one application of the map scales
distances by exactly lam below the expansive threshold xi, then uses
that rigidity: covering numbers and capacity, two-sided entropy, the
capacity = ent/log(lam) identity, dynamical triangles and holonomy
bounds, and the maximal-entropy measure as a product of stable and
unstable Hausdorff measures.
"""

__version__ = "0.1.0"

import importlib

from .core import (
    holder_check,
    holonomy_deviation,
    refine_metric,
    stable_contraction_check,
    triangle_curve,
    triangle_ratio,
    verify_self_similar,
)
from .dimension import (
    capacity,
    check_fundamental,
    cov_eps,
    cov_identity_check,
    entropy,
    ideal_factor,
    local_entropy_homogeneity,
    local_unstable_entropy,
)
from .measure import (
    Box,
    StableWindow,
    UnstableWindow,
    box_measure,
    hausdorff_estimate,
    homogeneity_check,
    intrinsic_exponent,
    parry_compare,
    scaling_check,
    toral_measure_summary,
)
from .symbolic import (
    ShiftSystem,
    TransitionMatrix,
    bi_sequence,
    count_words,
    exact_cov,
    four_symbol,
    full_shift,
    golden_mean,
    iter_words,
    parry_measure,
    sft_new,
    spectral_radius,
)

# the torus (and with it numpy) loads on first use of one of its names
_TORAL = ("CircleDoubling", "EuclideanTorus", "ToralSystem", "cat_map",
          "euclidean_base", "toral_new")


def __getattr__(name):
    if name != "torus" and name not in _TORAL:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    torus = importlib.import_module(".torus", __name__)
    return torus if name == "torus" else getattr(torus, name)


__all__ = [
    "__version__",
    "Box",
    "CircleDoubling",
    "EuclideanTorus",
    "ShiftSystem",
    "StableWindow",
    "ToralSystem",
    "TransitionMatrix",
    "UnstableWindow",
    "bi_sequence",
    "box_measure",
    "capacity",
    "cat_map",
    "check_fundamental",
    "count_words",
    "cov_eps",
    "cov_identity_check",
    "entropy",
    "euclidean_base",
    "exact_cov",
    "four_symbol",
    "full_shift",
    "golden_mean",
    "hausdorff_estimate",
    "holder_check",
    "holonomy_deviation",
    "homogeneity_check",
    "ideal_factor",
    "intrinsic_exponent",
    "iter_words",
    "local_entropy_homogeneity",
    "local_unstable_entropy",
    "parry_compare",
    "parry_measure",
    "refine_metric",
    "scaling_check",
    "sft_new",
    "spectral_radius",
    "stable_contraction_check",
    "toral_measure_summary",
    "toral_new",
    "triangle_curve",
    "triangle_ratio",
    "verify_self_similar",
]
