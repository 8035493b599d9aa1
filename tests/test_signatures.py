"""The call signature of every public name is pinned.

Each callable in `selfsimilar.__all__`, class constructors included, must
match the signature below, so adding, removing or renaming a parameter
or changing a default shows up as a diff of this file.
"""

import inspect

import selfsimilar

SIGNATURES = {
    "Box": "(word: tuple, start: int)",
    "CircleDoubling": "()",
    "EuclideanTorus": "(base, xi=0.02)",
    "ShiftSystem": "(matrix, lam=2.0)",
    "StableWindow": "(anchor: object, edge: int = 0)",
    "ToralSystem": "(matrix, lam=None, xi=0.05)",
    "TransitionMatrix": "(rows)",
    "UnstableWindow": "(anchor: object, edge: int = 0)",
    "bi_sequence": "(left, mid=(), right=None, start=0)",
    "box_measure": "(sys, box)",
    "capacity": "(sys)",
    "cat_map": "(lam=None)",
    "check_fundamental": "(sys, n_max=12)",
    "count_words": "(matrix, length)",
    "cov_eps": "(sys, eps, k=0)",
    "cov_identity_check": "(sys, k_max=6)",
    "entropy": "(sys, n_max=12)",
    "euclidean_base": "(toral_sys, xi=0.02)",
    "exact_cov": "(sys, eps)",
    "four_symbol": "(lam=2.0)",
    "full_shift": "(n_symbols=2, lam=2.0)",
    "golden_mean": "(lam=2.0)",
    "hausdorff_estimate": "(sys, window, d, depth=12)",
    "holder_check": "(base_dist, refined_dist, samples, k, lam)",
    "holonomy_deviation": "(sys, p, q, pp, qq)",
    "homogeneity_check": "(sys, xs, depth=12)",
    "ideal_factor": "(ent, dim, lam=None)",
    "intrinsic_exponent": "(sys)",
    "iter_words": "(matrix, length)",
    "local_entropy_homogeneity": "(sys, xs, n_max=16)",
    "local_unstable_entropy": "(sys, x, n_max=16)",
    "parry_compare": "(sys, depth)",
    "parry_measure": "(matrix, word)",
    "refine_metric": "(base, lam, tol)",
    "scaling_check": "(sys, window, depth=12)",
    "sft_new": "(rows, lam=2.0)",
    "spectral_radius": "(matrix)",
    "stable_contraction_check": "(sys, x, y, side='stable', n_max=10)",
    "toral_measure_summary": "(sys)",
    "toral_new": "(matrix, lam=None, xi=0.05)",
    "triangle_curve": "(sys, pair_buckets)",
    "triangle_ratio": "(sys, x, y)",
    "verify_self_similar": "(sys, pairs, tol=None)",
}


def test_every_public_signature_is_pinned():
    public = {name for name in selfsimilar.__all__
              if callable(getattr(selfsimilar, name))}
    assert public == set(SIGNATURES)
    for name, want in SIGNATURES.items():
        got = str(inspect.signature(getattr(selfsimilar, name)))
        assert got == want, name

