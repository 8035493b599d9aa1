"""The call signature of every public name is pinned, and every public
name is read by the program, a demo, the benchmark or an acceptance check.

Each callable in `selfsimilar.__all__`, class constructors included, must
match the signature below, so adding, removing or renaming a parameter
or changing a default shows up as a diff of this file.
"""

import ast
import inspect
from pathlib import Path

import selfsimilar

ROOT = Path(__file__).resolve().parent.parent

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



def reads(tree):
    """Names the tree reads, as a name, an attribute or an imported name,
    outside any def or class of the same name."""
    found = set()

    def visit(node, owners):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            owners = owners | {node.name}
        name = None
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            name = node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx,
                                                            ast.Load):
            name = node.attr
        elif isinstance(node, ast.alias):
            name = node.name.rsplit(".", 1)[-1]
        if name is not None and name not in owners:
            found.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, owners)

    visit(tree, frozenset())
    return found


def traced_paths():
    """The (dotted) paths that `TRACED` in perfbench/spans.py lists."""
    tree = ast.parse((ROOT / "perfbench" / "spans.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [
                getattr(t, "id", None) for t in node.targets] == ["TRACED"]:
            return {path for _, path, _ in ast.literal_eval(node.value)}
    raise AssertionError("perfbench/spans.py has no TRACED")


def test_every_public_name_is_read_outside_its_definition():
    # a public name that only the unit tests call is one to retire
    files = [*(ROOT / "src").rglob("*.py"), *(ROOT / "demos").glob("*.py"),
             *(ROOT / "perfbench").glob("*.py"),
             ROOT / "tests" / "test_acceptance.py"]
    read = traced_paths().union(*(reads(ast.parse(f.read_text()))
                                  for f in files))
    assert sorted(set(selfsimilar.__all__) - read) == []
