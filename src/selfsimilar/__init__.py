"""Self-similar metrics for expansive systems: shifts and toral maps.

The package builds metrics in which one application of the map scales
distances by exactly lam below the expansive threshold xi, then uses
that rigidity: covering numbers and capacity, two-sided entropy, the
capacity = ent/log(lam) identity, dynamical triangles and holonomy
bounds, and the maximal-entropy measure as a product of stable and
unstable Hausdorff measures.

Importing the package loads none of its modules: each one loads on first
use of one of its names, or of `selfsimilar.<module>`, and numpy loads
only with the torus.  A refined toral metric loads `core` and `torus`
only.
"""

__version__ = "0.1.0"

import importlib

# module -> the public names it holds; `__getattr__` imports on demand
_MODULES = {
    "core": ("holder_check", "holonomy_deviation", "refine_metric",
             "stable_contraction_check", "triangle_curve", "triangle_ratio",
             "verify_self_similar"),
    "dimension": ("capacity", "check_fundamental", "cov_eps",
                  "cov_identity_check", "entropy",
                  "local_entropy_homogeneity", "local_unstable_entropy"),
    "measure": ("Box", "StableWindow", "UnstableWindow", "box_measure",
                "hausdorff_estimate", "homogeneity_check",
                "intrinsic_exponent", "parry_compare", "scaling_check",
                "toral_measure_summary"),
    "symbolic": ("ShiftSystem", "TransitionMatrix", "bi_sequence",
                 "count_words", "exact_cov", "four_symbol", "full_shift",
                 "golden_mean", "iter_words", "parry_measure", "sft_new",
                 "spectral_radius"),
    "torus": ("CircleDoubling", "EuclideanTorus", "ToralSystem", "cat_map",
              "euclidean_base", "toral_new"),
}
_HOME = {name: mod for mod, names in _MODULES.items() for name in names}

__all__ = ["__version__", *sorted(_HOME)]


def __getattr__(name):
    mod = name if name in _MODULES else _HOME.get(name)
    if mod is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{mod}", __name__)
    return module if mod == name else getattr(module, name)


def __dir__():
    return sorted({*globals(), *__all__, *_MODULES})
