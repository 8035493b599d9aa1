"""Acceptance gate: fourteen end-to-end checks, one printed line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines.  Every
check states its tolerance inline; the first four also carry wall-clock
budgets.
"""

import math
import time
from random import Random

import pytest

from selfsimilar.cli import parse_config, run
from selfsimilar.core import (
    holder_check,
    stable_contraction_check,
    triangle_curve,
    triangle_ratio,
    verify_self_similar,
)
from selfsimilar.dimension import (
    capacity,
    cov_identity_check,
    local_entropy_homogeneity,
)
from selfsimilar.measure import (
    Box,
    UnstableWindow,
    box_measure,
    hausdorff_estimate,
    homogeneity_check,
    intrinsic_exponent,
    parry_compare,
    scaling_check,
)
from selfsimilar.symbolic import full_shift

PHI = (1.0 + math.sqrt(5.0)) / 2.0


def emit(num, label, ok, detail):
    print(f"acceptance {num:02d} {label}: "
          f"{'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"acceptance {num:02d} {label}: {detail}"


def test_01_symbolic_one_step_identity(full2, golden, four):
    t0 = time.perf_counter()
    worst, checked = 0.0, 0
    for i, sys in enumerate((full2, golden, four)):
        rep = verify_self_similar(sys, sys.sample_pairs(10_000, seed=101 + i))
        worst = max(worst, rep.max_rel_deviation)
        checked += rep.checked
        assert rep.exact and rep.passed
    dt = time.perf_counter() - t0
    emit(1, "one-step identity exact on shift spaces",
         worst == 0.0 and checked == 30_000 and dt < 5.0,
         f"max deviation {worst} over {checked} pairs, {dt:.2f}s")


def test_02_toral_one_step_identity(cat):
    t0 = time.perf_counter()
    pairs = cat.sample_pairs(10_000, 0.05 * (1.0 - 1e-12), seed=7)
    rep = verify_self_similar(cat, pairs, tol=1e-9)
    dt = time.perf_counter() - t0
    emit(2, "one-step identity on the torus",
         rep.passed and rep.max_rel_deviation < 1e-9 and dt < 5.0,
         f"max rel deviation {rep.max_rel_deviation:.2e} "
         f"over {rep.checked} pairs, {dt:.2f}s")


def test_03_covering_identity(full2, golden):
    t0 = time.perf_counter()
    ok, rows_seen = True, 0
    for sys in (full2, golden):
        for row in cov_identity_check(sys, k_max=6):
            rows_seen += 1
            ok = ok and row.consistent and row.lhs.exact and row.rhs.exact
            ok = ok and row.lhs.lower == row.rhs.lower == row.lhs.upper
    dt = time.perf_counter() - t0
    emit(3, "covering counts transport across metrics",
         ok and rows_seen == 14 and dt < 1.0,
         f"{rows_seen} exact integer equalities, {dt:.2f}s")


def test_04_capacity_matches_entropy_rate(full2, golden, cat):
    t0 = time.perf_counter()
    gaps = {}
    target_g = 2.0 * math.log(PHI) / math.log(2.0)
    gaps["golden"] = abs(capacity(golden).slope / target_g - 1.0)
    gaps["full-2"] = abs(capacity(full2).slope / 2.0 - 1.0)
    gaps["cat"] = abs(capacity(cat).slope / 2.0 - 1.0)
    dt = time.perf_counter() - t0
    ok = (gaps["golden"] <= 0.02 and gaps["full-2"] <= 0.02
          and gaps["cat"] <= 0.10 and dt < 30.0)
    emit(4, "capacity regression hits the entropy rate", ok,
         f"rel gaps golden {gaps['golden']:.2e} (tol 2%), "
         f"full-2 {gaps['full-2']:.2e} (tol 2%), "
         f"cat {gaps['cat']:.2e} (tol 10%), {dt:.1f}s")


def test_05_capacity_rescales_with_lambda():
    sys4 = full_shift(2, lam=4.0)
    slope = capacity(sys4).slope
    product_gap = abs(slope * math.log(4.0) / (2.0 * math.log(2.0)) - 1.0)
    emit(5, "capacity times log lambda is invariant",
         abs(slope - 1.0) <= 0.02 and product_gap <= 0.02,
         f"capacity {slope:.6f} at lambda 4, "
         f"product rel gap {product_gap:.2e} (tol 2%)")


def test_06_contraction_laws(full2, golden, cat):
    exact = 0
    for sys in (full2, golden):
        for x, y in sys.sample_pairs(1_000, seed=31, levels=(2, 7)):
            lev = int(sys.level(x, y))
            side = "unstable" if x.at(lev + 1) != y.at(lev + 1) else "stable"
            rep = stable_contraction_check(sys, x, y, side=side, n_max=6)
            assert rep.precondition_ok and rep.ratios == [1.0] * 6
            exact += 1
    rng = Random(17)
    worst = 0.0
    for _ in range(200):
        p = (rng.random(), rng.random())
        off = cat.xi / 3.0 * (0.25 + 0.75 * rng.random())
        for vec, side in ((cat.v_stable, "stable"),
                          (cat.v_unstable, "unstable")):
            q = ((p[0] + off * vec[0]) % 1.0, (p[1] + off * vec[1]) % 1.0)
            rep = stable_contraction_check(cat, p, q, side=side, n_max=10)
            assert rep.precondition_ok
            worst = max(worst, rep.max_deviation)
    emit(6, "stable and unstable contraction laws",
         exact == 2_000 and worst < 1e-9,
         f"{exact} shift pairs exact, toral max deviation {worst:.2e} "
         "(tol 1e-9)")


def test_07_dynamical_triangles(full2, golden, four, cat, euclid,
                                refined_euclid):
    exact = 0
    for sys in (full2, golden, four):
        for x, y in sys.sample_pairs(1_000, seed=51, levels=(3, 9)):
            assert triangle_ratio(sys, x, y).ratio == 1.0
            exact += 1
    worst = 0.0
    for p, q in cat.sample_pairs(400, 1e-3, seed=52):
        worst = max(worst, abs(triangle_ratio(cat, p, q).ratio - 1.0))
    buckets = {}
    for i, scale in enumerate((2e-4, 1e-4, 5e-5, 2.5e-5)):
        buckets[scale] = euclid.sample_pairs(80, scale, seed=41 + i)
    curve = triangle_curve(refined_euclid, buckets)
    monotone = all(b <= a for a, b in zip(curve.max_deviation,
                                          curve.max_deviation[1:]))
    emit(7, "triangle ratio is one at small scales",
         exact == 3_000 and worst < 1e-9 and monotone
         and curve.max_deviation[-1] < curve.max_deviation[0],
         f"{exact} shift triangles exact, toral worst {worst:.2e} "
         f"(tol 1e-9), refined curve {['%.1e' % v for v in curve.max_deviation]}")


def test_08_holonomy_bound():
    in_range, violations = 0, 0
    for system in ("full-2-shift", "golden-mean", "cat-map"):
        cfg = parse_config(
            '{"system": "%s", "command": "holonomy", "samples": 300, '
            '"seed": 61}' % system)
        res = run(cfg)["results"]["holonomy"]
        assert res["passed"], res
        in_range += res["in_range"]
        violations += res["violations"]
    emit(8, "holonomy distortion stays within its bound",
         in_range > 0 and violations == 0,
         f"{in_range} plaque pairs in range, {violations} violations")


def test_09_hausdorff_window_masses(full2, golden):
    anchor2 = full2.constant(0)
    exact = all(
        hausdorff_estimate(full2, UnstableWindow(anchor2, 0), 1.0,
                           depth).value == 1.0
        for depth in (2, 5, 8, 14)
    )
    d = intrinsic_exponent(golden)
    anchor_g = golden.constant(0)
    v10 = hausdorff_estimate(golden, UnstableWindow(anchor_g, 0), d, 10).value
    v14 = hausdorff_estimate(golden, UnstableWindow(anchor_g, 0), d, 14).value
    drift = abs(v10 - v14) / v10
    emit(9, "window masses: unit value and depth stability",
         exact and drift <= 0.03 and 0.0 < v14 < math.inf,
         f"full-2 mass exactly 1 at four depths, golden drift {drift:.2e} "
         "(tol 3%)")


def test_10_measure_scaling_law(full2, golden):
    rep2 = scaling_check(full2, UnstableWindow(full2.constant(0), 3))
    rep_g = scaling_check(golden, UnstableWindow(golden.constant(0), 3))
    emit(10, "unstable measure scales by lambda to the d",
         rep2.rel_gap == 0.0 and rep_g.rel_gap <= 0.03,
         f"full-2 ratio {rep2.ratio} exact, golden rel gap "
         f"{rep_g.rel_gap:.2e} (tol 3%)")


def test_11_intrinsic_measure_matches_parry(golden):
    deep = parry_compare(golden, 8).max_rel_gap
    u = lambda word: box_measure(golden, Box(word, 0)).unstable
    conds = (
        abs(u((0, 0)) / u((0,)) - 1.0 / PHI),
        abs(u((0, 1)) / u((0,)) - PHI**-2),
        abs(u((1, 0)) / u((1,)) - 1.0),
    )
    emit(11, "box masses follow the Parry chain",
         deep <= 0.05 and max(conds) <= 1e-9,
         f"depth-8 max rel gap {deep:.2e} (tol 5%), depth-2 conditional "
         f"errors {max(conds):.2e} (tol 1e-9)")


def test_12_measure_homogeneity(full2, golden):
    rng = Random(71)
    xs2 = [full2.random_point(rng, window=16) for _ in range(20)]
    rep2 = homogeneity_check(full2, xs2)
    xs_g = [golden.random_point(rng, window=16) for _ in range(20)]
    rep_g = homogeneity_check(golden, xs_g)
    ok = (rep2.c_observed == 1.0 and rep2.trend == 0.0
          and rep_g.trend <= 0.01
          and rep_g.flat_ratio <= PHI**2 * (1.0 + 1e-9)
          and rep_g.c_observed <= PHI**2 * (1.0 + 1e-9))
    emit(12, "box mass ratios are flat in n", ok,
         f"full-2 c {rep2.c_observed}, golden c {rep_g.c_observed:.4f} "
         f"trend {rep_g.trend:+.2e} ratio bound {rep_g.flat_ratio:.3f}")


def test_13_refinement_operator(cat, euclid, refined_euclid):
    pairs = euclid.sample_pairs(10_000, 1e-3, seed=81)
    rep = verify_self_similar(refined_euclid, pairs, tol=1e-6)
    hr = holder_check(euclid.dist, refined_euclid.dist, pairs,
                      k=abs(cat.eig_unstable), lam=1.8)
    alpha_target = math.log(1.8) / math.log(abs(cat.eig_unstable))
    c_cap = euclid.diameter ** (1.0 - hr.alpha) * (1.0 + 1e-9)
    ok = (rep.passed and hr.violations == []
          and hr.alpha == pytest.approx(alpha_target, rel=1e-12)
          and hr.c <= c_cap)
    emit(13, "refined metric: identity, domination, Holder sandwich", ok,
         f"identity max deviation {rep.max_rel_deviation:.2e} (tol 1e-6), "
         f"0 domination violations, alpha {hr.alpha:.6f}, c {hr.c:.4f} "
         f"<= {c_cap:.4f}")


def test_14_local_entropy_homogeneity(golden):
    rng = Random(91)
    xs = [golden.random_point(rng) for _ in range(10)]
    rep = local_entropy_homogeneity(golden, xs, n_max=16)
    emit(14, "local entropy agrees across base points",
         rep.spread_rel <= 0.01 and rep.max_rel_gap <= 0.01
         and rep.reference == pytest.approx(math.log(PHI), rel=1e-9),
         f"spread {rep.spread_rel:.2e}, gap to half entropy "
         f"{rep.max_rel_gap:.2e} (tol 1% each) over {len(rep.estimates)} "
         "points")
