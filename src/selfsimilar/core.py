"""System-agnostic metric dynamics: verification, refinement, brackets.

Works against a small structural protocol rather than a base class: a
system carries apply/apply_inv, dist, the expanding factor `lam`, the
expansivity threshold `xi`, a `diameter`, an `invertible` flag, the
verifier's `tol_default` and (optionally) bracket/triangle_vertex.
Symbolic systems additionally expose integer `level` arithmetic, which
the verifier uses to keep the self-similarity check exact.

A system may also carry private pair batches.  `_pair_levels(pairs,
steps)` returns one list of integer levels of (f^s x, f^s y) per step s.
`_orbit_dists(pairs, lo, hi)` is the one distance hook: it yields
(j, the array of dist(f^j x, f^j y)) for lo <= j <= hi.  The
self-similar torus maps the points as arrays and equals its scalar
`dist` bit for bit; the Euclidean torus reads its offset orbit; a
`RefinedSystem` streams its base's hook, without knowing the base's
norm.  A system with the hook is invertible.
A system with brackets may carry `_pair_brackets(pairs)`, the
`triangle_vertex(x, y)` of every pair (the torus: its `bracket`, bit for
bit), which the triangle check reads in one call.  Either batch returns
None for pairs it does not take (a shift system takes only its own
sampled rows, within their reach), and the check runs its scalar loop.
Samplers draw through `_streams` and return `_streams.Rows`: `_unzip`
and `_zip` split and pair their slots, numpy arrays on the torus (the
only numpy user) and byte lanes on a shift, which the batches read.

`_pair_values` is the one orbit reader: the verifier, `holder_check`
and the triangle, contraction and holonomy checks read every level or
distance through it.  It makes one batch call per pair set, or runs the
scalar `dist` (or `level`) pair by pair where no batch takes them; the
scalar methods, `RefinedSystem.dist` among them, stay the reference.
A backward walk on a system without `apply_inv` raises ValueError.  The
holonomy check reads one column per report field (`_holonomy_columns`).
"""
import math
from typing import NamedTuple


class VerifyReport(NamedTuple):
    checked: int
    rejected: list
    max_rel_deviation: float
    mean_rel_deviation: float
    worst_pair: int | None
    tol: float
    passed: bool
    exact: bool = False


def _pair_values(sys, pairs, steps, levels=False):
    """dist(f^s x, f^s y) for every pair, one list per step s; with
    `levels`, the integer level instead (systems with `level` only).

    One call to the system's pair batch, `_pair_levels` or else the
    hook `_orbit_dists` over min(steps)..max(steps); without one, or
    where `_pair_levels` returns None, the scalar `dist` (or `level`)
    of each pair's orbit, every iterate computed once.  Distances from
    levels are lam**-level in Python floats, as the scalar `dist`.
    Negative steps on a system without `apply_inv` raise ValueError.
    """
    batch = getattr(sys, "_pair_levels", None)
    out = None if batch is None else batch(pairs, steps)
    if out is not None:
        if levels:
            return out
        # one float per distinct level (lam**-inf is 0.0)
        dist = {lev: sys.lam ** -lev for lev in set().union(*out)}
        return [[dist[lev] for lev in row] for row in out]
    batch = None if levels else getattr(sys, "_orbit_dists", None)
    if batch is not None:
        terms = dict(batch(pairs, min(steps), max(steps)))
        return [terms[s].tolist() for s in steps]
    value = sys.level if levels else sys.dist
    walks = [(sys.apply, range(1, max(steps) + 1))]
    if min(steps) < 0:
        inverse = getattr(sys, "apply_inv", None)
        if inverse is None:
            raise ValueError("backward window needs an invertible system")
        walks.append((inverse, range(-1, min(steps) - 1, -1)))
    out = [[] for _ in steps]
    for x, y in pairs:
        orbit = {0: (x, y)}
        for move, js in walks:
            p, q = x, y
            for j in js:
                p, q = move(p), move(q)
                orbit[j] = p, q
        for row, s in zip(out, steps):
            p, q = orbit[s]
            row.append(value(p, q))
    return out


def _unzip(items, k):
    """The k slots of a sequence of k-tuples, one sequence each; sampled
    points (`_streams.Rows`) hand out their slots."""
    columns = getattr(items, "columns", None)
    if columns is not None:
        return columns()
    return tuple(zip(*items)) if len(items) else ((),) * k


def _zip(a, b):
    """The pairs (a[i], b[i]); two `_streams.Rows` of one builder and
    width pair up their slots, without building a point."""
    joined = a.zip(b) if hasattr(a, "zip") else None
    return list(zip(a, b)) if joined is None else joined


def _need_lam(sys):
    if not hasattr(sys, "lam"):
        raise ValueError(f"{type(sys).__name__} has no lam: the check needs "
                         "a self-similar system, such as a refinement of it")


def verify_self_similar(sys, pairs, tol=None):
    """Check max{dist(f p, f q), dist(f^-1 p, f^-1 q)} = lam * dist(p, q).

    Pairs with dist > xi or dist = 0 are reported as rejected rather
    than silently skipped.  Systems with integer level arithmetic are
    verified exactly; float systems report relative deviations.  Either
    way the values come from one `_pair_values` call.
    """
    _need_lam(sys)
    tol = sys.tol_default if tol is None else tol
    exact = hasattr(sys, "level")
    rejected = []
    devs = []
    worst = None
    values = zip(*_pair_values(sys, pairs, (0, 1, -1), exact))
    for idx, (v, fwd, bwd) in enumerate(values):
        d = sys.lam ** -v if exact else v  # lam**-inf is 0.0
        if d == 0.0:
            rejected.append((idx, "coincident pair"))
            continue
        if d > sys.xi:
            rejected.append((idx, "dist above xi"))
            continue
        if exact:
            img = min(fwd, bwd)
            dev = 0.0 if img == v - 1 else abs(sys.lam ** (v - 1 - img) - 1.0)
        else:
            dev = abs(max(fwd, bwd) / (sys.lam * d) - 1.0)
        devs.append(dev)
        if worst is None or dev > devs[worst]:
            worst = len(devs) - 1
    max_dev = max(devs) if devs else 0.0
    mean_dev = sum(devs) / len(devs) if devs else 0.0
    return VerifyReport(
        checked=len(devs),
        rejected=rejected,
        max_rel_deviation=max_dev,
        mean_rel_deviation=mean_dev,
        worst_pair=worst,
        tol=tol,
        passed=bool(devs) and max_dev <= tol and not rejected,
        exact=exact,
    )


class RefinedSystem:
    """Truncated sup-refinement of an adapted base metric.

    dist(x, y) = max over the window |i| <= N of base.dist(f^i x, f^i y)
    divided by lam**|i|; a base that is not invertible uses i >= 0 only.
    The window N is chosen so the dropped terms are below `tol`, which
    makes the returned values exact whenever the true supremum exceeds
    diameter/lam**N (always the case at the scales the verifier uses).

    Over a base with the hook `_orbit_dists` (either toral metric, or a
    refinement of one), the refinement has the hook too and reads every
    orbit in one batch.  The Euclidean base follows the offset y - x
    under the matrix, not the two points, so it never subtracts two
    nearby mapped points.  Against the exact rational orbit of the same
    float points it is within 4e-16 relative at pair scales 2e-2, 1e-3
    and 1e-5, where the scalar `dist` is off by up to 4e-14, 9e-13 and
    8e-11.  Other bases use the scalar `dist` pair by pair.
    """

    def __init__(self, base, lam, tol):
        if not 1 < lam < math.inf:
            raise ValueError("expanding factor must exceed 1")
        if not 0 < tol < math.inf:
            raise ValueError("tol must be positive")
        if not math.isfinite(base.diameter):
            raise ValueError("base metric must be bounded")
        self.base = base
        self.lam = float(lam)
        self.tol = float(tol)
        self.window = max(
            0, math.ceil(math.log(base.diameter / tol) / math.log(lam))
        )
        self.xi = base.xi
        self.diameter = base.diameter
        self.invertible = base.invertible
        self.has_bracket = getattr(base, "has_bracket", False)
        self.tol_default = max(tol, 1e-12)
        self.space_kind = "wrapped-base-metric"
        if getattr(base, "_orbit_dists", None) is None:
            self._orbit_dists = None  # no hook: `dist` pair by pair

    def apply(self, x):
        return self.base.apply(x)

    def apply_inv(self, x):
        if not self.invertible:
            raise ValueError("one-sided system has no inverse")
        return self.base.apply_inv(x)

    def _orbit_dists(self, pairs, lo, hi):
        """Yield (j, dist(f^j x, f^j y) for every pair), lo <= j <= hi.

        The base's hook yields its terms over lo - window..hi + window,
        one step at a time; each goes into a running maximum for every
        step s within the window of j, divided by lam**|j - s|, so the
        memory is one array per step.
        """
        import numpy as np
        n = self.window
        best = {s: np.zeros(len(pairs)) for s in range(lo, hi + 1)}
        for j, term in self.base._orbit_dists(pairs, lo - n, hi + n):
            for s in range(max(lo, j - n), min(hi, j + n) + 1):
                np.maximum(best[s], term / self.lam ** abs(j - s), out=best[s])
        yield from best.items()

    def dist(self, x, y):
        best = self.base.dist(x, y)
        fx, fy = x, y
        for i in range(1, self.window + 1):
            fx, fy = self.base.apply(fx), self.base.apply(fy)
            best = max(best, self.base.dist(fx, fy) / self.lam ** i)
        if self.invertible:
            bx, by = x, y
            for i in range(1, self.window + 1):
                bx, by = self.base.apply_inv(bx), self.base.apply_inv(by)
                best = max(best, self.base.dist(bx, by) / self.lam ** i)
        return best

    def triangle_vertex(self, x, y):
        return self.base.triangle_vertex(x, y)


def refine_metric(base, lam, tol):
    """Sup-refinement returning a self-similar system at factor lam."""
    return RefinedSystem(base, lam, tol)


class HolderReport(NamedTuple):
    c: float
    alpha: float
    violations: list
    max_ratio_pair: int | None


def holder_check(base_dist, refined_dist, samples, k, lam):
    """Fit the sandwich base <= refined <= c * base**alpha, alpha = log_k lam.

    `violations` lists sample indices breaking the lower bound; c is the
    smallest constant making the upper bound hold on the samples.  A
    callable that is the bound `dist` of a system is read through
    `_pair_values`, in one batch call where the system has a batch; any
    other callable is evaluated pair by pair.
    """
    if not samples:
        raise ValueError("need at least one sample pair")
    if not k >= lam:
        raise ValueError("Lipschitz bound k must be at least lam")
    alpha = math.log(lam) / math.log(k)

    def values(dist):
        sys = getattr(dist, "__self__", None)
        if dist == getattr(sys, "dist", None):
            return _pair_values(sys, samples, (0,))[0]
        return [dist(x, y) for x, y in samples]

    violations = []
    c = 0.0
    worst = None
    for idx, (b, r) in enumerate(zip(values(base_dist), values(refined_dist))):
        if b == 0.0:
            raise ValueError("coincident sample pair")
        if r < b * (1 - 1e-12):
            violations.append(idx)
        ratio = r / b ** alpha
        if ratio > c:
            c = ratio
            worst = idx
    return HolderReport(c=c, alpha=alpha, violations=violations, max_ratio_pair=worst)


class TriangleReport(NamedTuple):
    a: float
    b: float
    c0: float
    ratio: float


def triangle_ratio(sys, x, y):
    """Dynamical triangle statistics for a pair below scale xi/(2 lam).

    The third vertex z lies on the unstable set of x and the stable set
    of y; the report compares the hypotenuse dist(x, y) with the longer
    leg.
    """
    return _triangle_reports(sys, [(x, y)])[0]


def _triangle_reports(sys, pairs):
    """`triangle_ratio` of every pair, from one `_pair_values` call for
    the hypotenuses and one for each side of the legs.  The first pair
    that fails, in input order, raises what `triangle_ratio` would."""
    _need_lam(sys)
    if not getattr(sys, "has_bracket", hasattr(sys, "triangle_vertex")):
        raise ValueError("system has no bracket structure")
    (hyps,) = _pair_values(sys, pairs, (0,))
    cut, failure = len(pairs), None
    for i, c0 in enumerate(hyps):
        if c0 == 0.0:
            failure = ValueError(
                "coincident points give a degenerate triangle")
        elif c0 > sys.xi / (2 * sys.lam):
            failure = ValueError("pair above the triangle scale xi/(2 lam)")
        if failure is not None:
            cut = i
            break
    batch = getattr(sys, "_pair_brackets", None)
    # c0 <= xi/(2 lam) < xi: inside the domain
    vertices = None if batch is None else batch(pairs[:cut])
    if vertices is None:
        vertices = []
        for x, y in pairs[:cut]:
            try:
                vertices.append(sys.triangle_vertex(x, y))
            except Exception as e:  # raised after the earlier pairs' legs
                failure = e
                break
    xs, ys = _unzip(pairs[:cut], 2)
    (legs_a,) = _pair_values(sys, _zip(xs, vertices), (0,))
    (legs_b,) = _pair_values(sys, _zip(vertices, ys), (0,))
    reports = []
    for c0, a, b in zip(hyps, legs_a, legs_b):
        m = max(a, b)
        if m == 0.0:
            raise ValueError("degenerate triangle: both legs vanish")
        reports.append(TriangleReport(a=a, b=b, c0=c0, ratio=c0 / m))
    if failure is not None:
        raise failure
    return reports


class ContractionReport(NamedTuple):
    ratios: list
    max_deviation: float
    precondition_ok: bool
    first_bad_n: int | None


def stable_contraction_check(sys, x, y, side="stable", n_max=10):
    """Exact geometric decay along stable (f) or unstable (f^-1) sets.

    Reports dist(f^{+-n} x, f^{+-n} y) * lam**n / dist(x, y) for
    n = 1..n_max; a pair drifting above xi at some iterate is a
    precondition violation and is flagged with the first bad n.
    """
    _need_lam(sys)
    sign = {"stable": 1, "unstable": -1}.get(side)
    ((d0,),) = _pair_values(sys, [(x, y)], (0,))
    if d0 == 0.0:
        raise ValueError("coincident points")
    if d0 > sys.xi:
        return ContractionReport([], math.inf, False, 0)
    if sign is None:
        raise ValueError("side must be 'stable' or 'unstable'")
    steps = [sign * n for n in range(1, n_max + 1)]
    ds = [d for (d,) in _pair_values(sys, [(x, y)], steps)] if steps else []
    ratios = []
    first_bad = None
    for n, d in enumerate(ds, 1):
        if d > sys.xi:
            first_bad = n
            break
        ratios.append(d * sys.lam ** n / d0)
    max_dev = max((abs(r - 1.0) for r in ratios), default=0.0)
    return ContractionReport(
        ratios=ratios,
        max_deviation=max_dev,
        precondition_ok=first_bad is None,
        first_bad_n=first_bad,
    )


class HolonomyReport(NamedTuple):
    observed: float
    bound: float | None
    m: int
    in_range: bool
    within_bound: bool | None
    precondition_ok: bool


# the precondition follows the plaque pair this many steps backward and
# each leg this many steps forward; every step must stay within xi
_HOLONOMY_DEPTH = 5


def holonomy_deviation(sys, p, q, pp, qq):
    """Distortion of a stable-set holonomy between two unstable plaques.

    p, q lie on one unstable plaque; pp, qq are their projections along
    stable sets onto another plaque.  With D = max of the two plaque
    distances and m the integer scale xi/lam**(m+1) < D <= xi/lam**m,
    the deviation |dist(pp,qq)/dist(p,q) - 1| is compared against
    2/(lam**(m-1) - 2) whenever lam**(m-1) > 2; smaller m is reported as
    out of range.
    """
    columns = _holonomy_columns(sys, [(p, q, pp, qq)])
    return HolonomyReport(*(column[0] for column in columns))


def _holonomy_columns(sys, quads):
    """The `HolonomyReport` fields, a list each over the quadruples, from
    one `_pair_values` call for the plaque pairs (p, q) followed
    backward, the projected pairs (pp, qq), and each side's legs followed
    forward.  Any coincident plaque pair raises."""
    _need_lam(sys)
    depth = range(_HOLONOMY_DEPTH + 1)
    p, q, pp, qq = _unzip(quads, 4)
    plaques, *back = _pair_values(sys, _zip(p, q), tuple(-j for j in depth))
    (images,) = _pair_values(sys, _zip(pp, qq), (0,))
    legs_p = _pair_values(sys, _zip(p, pp), tuple(depth))
    legs_q = _pair_values(sys, _zip(q, qq), tuple(depth))
    if 0.0 in plaques or 0.0 in images:
        raise ValueError("coincident plaque pair")
    lam, xi = sys.lam, sys.xi
    ms = []
    for big in map(max, plaques, images):
        m = math.floor(math.log(xi / big) / math.log(lam))
        while xi / lam ** (m + 1) >= big:
            m += 1
        while xi / lam ** m < big:
            m -= 1
        ms.append(m)
    observed = [abs(d_img / d - 1.0) for d, d_img in zip(plaques, images)]
    in_range = [lam ** (m - 1) > 2.0 for m in ms]
    bound = [2.0 / (lam ** (m - 1) - 2.0) if ok else None
             for m, ok in zip(ms, in_range)]
    within = [o <= b if ok else None
              for o, b, ok in zip(observed, bound, in_range)]
    # the largest distance of each quadruple's orbit: its plaque pair at
    # steps -1.., and each leg at 0..
    pre_ok = [v <= xi for v in map(max, *back, *legs_p, *legs_q)]
    return observed, bound, ms, in_range, within, pre_ok


class TriangleCurve(NamedTuple):
    scales: list
    max_deviation: list


def triangle_curve(sys, pair_buckets):
    """Empirical (scale, max |ratio - 1|) curve from bucketed pairs.

    `pair_buckets` maps a scale to a list of pairs whose distance falls
    in that bucket; buckets are processed in decreasing scale order.
    """
    scales = sorted(pair_buckets, reverse=True)
    devs = [max((abs(rep.ratio - 1.0)
                 for rep in _triangle_reports(sys, pair_buckets[s])),
                default=0.0) for s in scales]
    return TriangleCurve(scales=list(scales), max_deviation=devs)
