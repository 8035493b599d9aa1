"""Homogeneity of the intrinsic measure and of local entropy.

Small boxes around different base points carry comparable mass: the
max/min ratio stays inside a fixed band as the box shrinks, with no
trend in the box depth n. Likewise the unstable word-growth rate seen
from any base point converges to the same half of the entropy.
"""

import math
from random import Random

from selfsimilar.dimension import (
    local_entropy_homogeneity,
    local_unstable_entropy,
)
from selfsimilar.measure import homogeneity_check
from selfsimilar.symbolic import full_shift, golden_mean

PHI = (1.0 + math.sqrt(5.0)) / 2.0

full2 = full_shift(2)
golden = golden_mean()
rng = Random(23)

print("== box-mass homogeneity, random base points ==")
for sys, name in ((full2, "full 2-shift"), (golden, "golden mean")):
    xs = [sys.random_point(rng, window=16) for _ in range(20)]
    rep = homogeneity_check(sys, xs)
    print(f"  {name:13s} c_observed {rep.c_observed:.9f}  "
          f"flat ratio {rep.flat_ratio:.6f}  trend {rep.trend:+.2e}")

print()
print("== points built to pin the extremes (golden mean) ==")
# the first point is all zeros; each later point shows symbol 1 at both
# probed coordinates for one specific n, realizing the lightest mass
pts = [golden.constant(0)]
for n in range(1, 11):
    pts.append(golden.point((0,), (1,) + (0,) * (n + 1) + (1,), (0,), -1))
rep = homogeneity_check(golden, pts)
print(f"  c_observed {rep.c_observed:.12f}  phi^2 = {PHI**2:.12f}")
print(f"  flat ratio {rep.flat_ratio}  trend {rep.trend:+.1e}")
for row in rep.rows[:3]:
    print(f"    n={row['n']}  max {row['max_mass']:.6f}  "
          f"min {row['min_mass']:.6f}  ratio {row['ratio']:.9f}")

print()
print("== local unstable entropy per base point ==")
for state in (0, 1):
    a = golden.point(golden.matrix.cycle_word(state))
    le = local_unstable_entropy(golden, a, n_max=16)
    print(f"  anchored at state {state}: estimate {le.estimate:.9f}")
print(f"  half entropy:       log phi = {math.log(PHI):.9f}")

print()
print("== and across ten random base points ==")
xs = [golden.random_point(rng) for _ in range(10)]
rep = local_entropy_homogeneity(golden, xs, n_max=16)
print(f"  spread {rep.spread_rel:.2e}  "
      f"max gap to the reference {rep.max_rel_gap:.2e}")
print(f"  estimates cluster at {sum(rep.estimates) / len(rep.estimates):.6f}")
