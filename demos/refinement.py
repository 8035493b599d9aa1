"""Turning a bounded-distortion metric into a self-similar one.

The Euclidean metric on the torus is not self-similar for the cat map:
one step stretches different pairs by different amounts. Taking the
supremum of lam^-k * dist over dynamical words of bounded length yields
a metric that satisfies the one-step identity on the nose, stays above
the base metric, and is Holder equivalent to it.
"""

from selfsimilar.core import holder_check, refine_metric, verify_self_similar
from selfsimilar.torus import CircleDoubling, cat_map, euclidean_base

cat = cat_map()
euclid = euclidean_base(cat)
print(f"base metric: diameter {euclid.diameter:.9f}, "
      f"one-step stretch up to {euclid.lam_sup:.6f}")

stretch = [
    euclid.dist(euclid.apply(p), euclid.apply(q)) / euclid.dist(p, q)
    for p, q in euclid.sample_pairs(500, 0.001, seed=11)
]
print("one step stretches pairs by anywhere from "
      f"{min(stretch):.4f} to {max(stretch):.4f}: no single lambda works")

print()
lam = 1.8
refined = refine_metric(euclid, lam, 1e-6)
print(f"refined at lam = {lam} with window {refined.window}")
pairs = euclid.sample_pairs(2000, 0.001, seed=12)
rep = verify_self_similar(refined, pairs, tol=1e-6)
print(f"refined metric passes the identity: {rep.passed} "
      f"(max rel deviation {rep.max_rel_deviation:.2e})")

print()
print("a few pairs, base vs refined:")
for p, q in pairs[:4]:
    print(f"  base {euclid.dist(p, q):.8e}   refined {refined.dist(p, q):.8e}")

print()
k = abs(cat.eig_unstable)
hr = holder_check(euclid.dist, refined.dist, pairs, k=k, lam=lam)
print(f"Holder sandwich: base <= refined <= c * base^alpha")
print(f"  alpha = log(lam)/log(k) = {hr.alpha:.9f}")
print(f"  c = {hr.c:.6f}  (cap diameter^(1-alpha) = "
      f"{euclid.diameter ** (1 - hr.alpha):.6f})")
print(f"  lower-bound violations: {len(hr.violations)}")

print()
print("refining an already adapted metric changes nothing:")
doubling = CircleDoubling()
again = refine_metric(doubling, 2.0, 1e-9)
worst = 0.0
for p in doubling.sample_points(300, seed=13):
    q = (p + 0.01) % 1.0
    worst = max(worst, abs(again.dist(p, q) - doubling.dist(p, q)))
print(f"  max |refined - original| over 300 pairs: {worst}")
