"""Hausdorff measures on stable/unstable windows and the product measure.

A cylinder DP evaluates the measure of a window as the limit of optimal
cylinder covers weighted by diameter^d. At the intrinsic exponent the
values stabilize; above it they decay to zero. Products of the stable
and unstable window masses reproduce the Parry (maximal entropy) chain.
"""

import math
from itertools import islice

from selfsimilar.measure import (
    Box,
    StableWindow,
    UnstableWindow,
    box_measure,
    hausdorff_estimate,
    intrinsic_exponent,
    parry_compare,
    scaling_check,
    toral_measure_summary,
)
from selfsimilar.symbolic import full_shift, golden_mean
from selfsimilar.torus import cat_map

PHI = (1.0 + math.sqrt(5.0)) / 2.0

full2 = full_shift(2)
golden = golden_mean()

print("== full 2-shift: the unit window has mass exactly one ==")
anchor = full2.constant(0)
for depth in (2, 6, 12):
    t = hausdorff_estimate(full2, UnstableWindow(anchor, 0), 1.0, depth)
    print(f"  depth {depth:2d}  value {t.value}  drift {t.drift}")

print()
print("== overshooting the exponent kills the mass ==")
for depth in (4, 8, 12):
    t = hausdorff_estimate(full2, UnstableWindow(anchor, 0), 1.5, depth)
    print(f"  d = 1.5, depth {depth:2d}  value {t.value:.6e}")

print()
d = intrinsic_exponent(golden)
print(f"== golden mean at d = log phi / log 2 = {d:.9f} ==")
for state in (0, 1):
    a = golden.point(golden.matrix.cycle_word(state))
    u = hausdorff_estimate(golden, UnstableWindow(a, 0), d, 12)
    s = hausdorff_estimate(golden, StableWindow(a, 0), d, 12)
    print(f"  state {state}: unstable {u.value:.12f}  stable {s.value:.12f}"
          f"  (Perron weights 1 and 1/phi = {1 / PHI:.12f})")

print()
print("== scaling under the dynamics ==")
for sys, name in ((full2, "full 2-shift"), (golden, "golden mean")):
    rep = scaling_check(sys, UnstableWindow(sys.constant(0), 3))
    print(f"  {name:13s} ratio {rep.ratio:.12f}  expected lam^d ="
          f" {rep.expected:.12f}  rel gap {rep.rel_gap:.1e}")

print()
print("== product measure on boxes ==")
bm = box_measure(golden, Box((0, 0, 0), -1))
print(f"  box [000]: stable {bm.stable:.9f} unstable {bm.unstable:.9f} "
      f"product {bm.product:.9f}")
r0 = box_measure(golden, Box((0, 0), 0)).product
r1 = box_measure(golden, Box((0, 1), 0)).product
print(f"  sibling mass ratio [00]/[01] = {r0 / r1:.12f}  (phi = {PHI:.12f})")

print()
print("== against the Parry chain ==")
rep = parry_compare(golden, 2)
print(f"  depth 2: {len(rep.rows)} words, max rel gap {rep.max_rel_gap:.2e}")
for word, dp, parry, gap in islice(rep.rows, 4):
    print(f"    {''.join(map(str, word))}  dp {dp:.9f}  parry {parry:.9f}")
rep8 = parry_compare(golden, 8)
print(f"  depth 8: {len(rep8.rows)} words, max rel gap {rep8.max_rel_gap:.2e}")

print()
print("== the toral picture is closed-form ==")
for key, val in toral_measure_summary(cat_map()).items():
    print(f"  {key:18s} {val}")
