"""System-agnostic metric dynamics: verification, refinement, brackets.

Works against a small structural protocol rather than a base class: a
system carries apply/apply_inv, dist, the expanding factor `lam`, the
expansivity threshold `xi`, a `diameter`, an `invertible` flag, the
verifier's `tol_default` and (optionally) bracket/triangle_vertex.
Symbolic systems additionally expose integer `level` arithmetic, which
the verifier uses to keep the self-similarity check exact.

A system may also carry private pair batches.  `_pair_levels(pairs,
steps)` returns one byte lane per step s: the integer level of
(f^s x, f^s y) plus 1 for every pair, 255 for an infinite level.
`_orbit_dists(pairs, lo, hi)` is the one distance hook: it yields
(j, the array of dist(f^j x, f^j y)) for lo <= j <= hi.  The
self-similar torus maps the points as arrays and equals its scalar
`dist` bit for bit; the Euclidean torus reads its offset orbit; a
`RefinedSystem` streams its base's hook, without knowing the base's
norm.  A system with the hook is invertible.
A system with brackets may carry `_pair_brackets(pairs)`, the
`triangle_vertex(x, y)` of every pair (the torus: its `bracket`, bit for
bit; a refinement: its base's), which the triangle check reads in one
call.  Either batch returns None for pairs it does not take (a shift
system takes only its own sampled rows, within their reach), and the
check runs its scalar loop.
Samplers draw through `_streams` and return `_streams.Rows`: `_unzip`
and `_zip` split and pair their slots, numpy arrays on the torus (the
only numpy user) and byte lanes on a shift, which the batches read.

`_columns` is the one orbit reader: the verifier and the triangle and
holonomy checks read every level or distance through it, and
`holder_check` and the contraction check through `_pair_values`, which
reads each entry.  It makes one batch call per pair set, or runs the
scalar `dist` (or `level`) pair by pair where no batch takes them; the
scalar methods, `RefinedSystem.dist` among them, stay the reference.
A backward walk on a system without `apply_inv` raises ValueError.
The checks take their pairs from `_parts`, the one owner of the part
stream: sampled `Rows`, or a sampler's stream of them, CHUNK rows at a
time, so a check holds one part at a time.  It folds the hook's float
arrays with numpy's elementwise arithmetic, which rounds as the scalar
code does; on other reads `_count` keys each pair by its entries, and
the check evaluates each distinct key once, weighted by its count.
What depends on order reads the pairs in turn: an input index, every
rejected pair, and the mean deviation, a left-to-right sum.
"""
import math
import struct
from collections import Counter
from collections.abc import Iterator
from itertools import repeat
from typing import NamedTuple

from ._streams import CHUNK, Rows

# a `_pair_levels` byte c is the level c - 1; 255 is an infinite level
_LEVELS = (*range(-1, 254), math.inf)


class VerifyReport(NamedTuple):
    checked: int
    rejected: list
    max_rel_deviation: float
    mean_rel_deviation: float
    worst_pair: int | None
    tol: float
    passed: bool
    exact: bool = False


def _columns(sys, pairs, steps, levels=False):
    """dist(f^s x, f^s y) for every pair, one column per step s (with
    `levels`, the integer level; systems with `level` only), and how its
    entries read: None for the values, `float` for the hook's arrays.

    One call to the system's pair batch, `_pair_levels` (byte lanes,
    read through `_LEVELS`, and as lam**-level) or else the hook
    `_orbit_dists` over min(steps)..max(steps); without one, or where
    `_pair_levels` returns None, the scalar `dist` (or `level`) of each
    pair's orbit, every iterate computed once.  Negative steps on a
    system without `apply_inv` raise ValueError.
    """
    batch = getattr(sys, "_pair_levels", None)
    out = None if batch is None else batch(pairs, steps)
    if out is not None:  # lam**-inf is 0.0, as from the scalar `dist`
        return out, _LEVELS.__getitem__ if levels else (
            lambda c: sys.lam ** -_LEVELS[c])
    batch = None if levels else getattr(sys, "_orbit_dists", None)
    if batch is not None:
        terms = dict(batch(pairs, min(steps), max(steps)))
        return [terms[s] for s in steps], float
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
    return out, None


def _pair_values(sys, pairs, steps, levels=False):
    """The `_columns` of the pairs, each entry read: one list a step."""
    columns, read = _columns(sys, pairs, steps, levels)
    return [c if read is None else list(map(read, c)) for c in columns]


def _parts(items):
    """(offset, part) in turn: sampled `Rows`, or each `Rows` of a
    sampler's stream (an iterator of them), CHUNK rows at a time, the
    offsets running across the stream; any other pairs whole."""
    if not isinstance(items, (Rows, Iterator)):
        yield 0, items
        return
    offset = 0
    for rows in [items] if isinstance(items, Rows) else items:
        if not isinstance(rows, Rows):
            raise TypeError("a sampler's stream holds `Rows` of pairs")
        for i in range(0, len(rows), CHUNK):
            yield offset + i, rows[i:i + CHUNK]
        offset += len(rows)


def _count(*reads):
    """The keys of one part's pairs, each the bytes of its entries in the
    byte lanes of some `_columns` reads in turn (one call's reads are all
    byte lanes or none), and per distinct key its values and count.
    Where none is (the scalar path's values, all but always distinct),
    each pair keeps a key of its own: its index."""
    columns = [c for cols, _ in reads for c in cols]
    readers = [read for cols, read in reads for _ in cols]
    if not any(readers):
        rows = zip(*columns)
        return range(len(columns[0])), dict(enumerate(zip(rows, repeat(1))))
    k, n = len(columns), len(columns[0])
    rows = bytearray(k * n)
    for j, column in enumerate(columns):
        rows[j::k] = column
    # a Struct of its own: the module's cache would keep one a size
    keys = struct.Struct(f"{k}s" * n).unpack(rows)
    return keys, {key: (tuple(read(v) for read, v in zip(readers, key)), n)
                  for key, n in Counter(keys).items()}


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
    way the values come from one `_columns` read per `_parts` part, as
    arrays or as distinct tuples, each checked once.  `worst_pair` is
    the input index of the first pair at the largest deviation.
    """
    _need_lam(sys)
    tol = sys.tol_default if tol is None else tol
    exact = hasattr(sys, "level")
    rejected, checked, total, max_dev, worst = [], 0, 0, 0.0, None
    for offset, part in _parts(pairs):
        cols, read = _columns(sys, part, (0, 1, -1), exact)
        if read is float:  # the hook's arrays
            import numpy as np
            d, fwd, bwd = cols
            out = (d == 0.0) | (d > sys.xi)
            rejected += [(offset + i, "dist above xi" if d[i] else
                          "coincident pair")
                         for i in np.flatnonzero(out).tolist()]
            ok = np.flatnonzero(~out)
            dev = abs(np.maximum(fwd, bwd)[ok] / (sys.lam * d[ok]) - 1.0)
            checked += len(ok)
            if len(ok) and (worst is None or dev.max() > max_dev):
                i = dev.argmax()  # the first index at the maximum
                max_dev, worst = dev[i].item(), offset + ok[i].item()
            total = sum(dev.tolist(), total)  # left to right
            continue
        keys, tally = _count((cols, read))
        devs, reasons = {}, {}
        for key, ((v, fwd, bwd), n) in tally.items():
            d = sys.lam ** -v if exact else v  # lam**-inf is 0.0
            if d == 0.0 or d > sys.xi:
                reasons[key] = "dist above xi" if d else "coincident pair"
            elif exact:
                img = min(fwd, bwd)
                devs[key] = 0.0 if img == v - 1 else abs(
                    sys.lam ** (v - 1 - img) - 1.0)
            else:
                devs[key] = abs(max(fwd, bwd) / (sys.lam * d) - 1.0)
        checked += sum(tally[key][1] for key in devs)
        if devs and (worst is None or max(devs.values()) > max_dev):
            max_dev = max(devs.values())
            worst = offset + next(i for i, key in enumerate(keys)
                                  if devs.get(key) == max_dev)
        if reasons:
            rejected += [(offset + i, reasons[key])
                         for i, key in enumerate(keys) if key in reasons]
        if any(devs.values()):  # the pairs' sum, left to right
            total = sum((devs[key] for key in keys if key in devs), total)
    return VerifyReport(
        checked=checked,
        rejected=rejected,
        max_rel_deviation=max_dev,
        mean_rel_deviation=total / checked if checked else 0.0,
        worst_pair=worst,
        tol=tol,
        passed=bool(checked) and max_dev <= tol and not rejected,
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
    8e-11.  Other bases use the scalar `dist` pair by pair.  The bracket
    batch `_pair_brackets` is the base's, or None where it has none.
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
        self._pair_brackets = getattr(base, "_pair_brackets", None)

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
    (report,) = _triangle_reports(sys, [(x, y)])
    return report


def _triangle_parts(sys, pairs):
    """The triangles of the pairs, a part at a time: one `_columns` read
    for the hypotenuses and one for each side of the legs, giving a
    `TriangleReport` of arrays (on the hook's) or a Counter of reports.
    The first pair that fails raises what `triangle_ratio` would."""
    _need_lam(sys)
    if not getattr(sys, "has_bracket", hasattr(sys, "triangle_vertex")):
        raise ValueError("system has no bracket structure")
    scale = sys.xi / (2 * sys.lam)
    for _, part in _parts(pairs):
        hyps, read = _columns(sys, part, (0,))
        if read is float:
            import numpy as np
            bad = np.flatnonzero((hyps[0] == 0.0) | (hyps[0] > scale))
            cut = bad[0].item() if len(bad) else len(part)
        else:
            c0s = {c: c if read is None else read(c) for c in set(hyps[0])}
            cut = min((hyps[0].index(c) for c, c0 in c0s.items()
                       if c0 == 0.0 or c0 > scale), default=len(part))
        failure = None if cut == len(part) else ValueError(
            "coincident points give a degenerate triangle"
            if (read or float)(hyps[0][cut]) == 0.0
            else "pair above the triangle scale xi/(2 lam)")
        batch = getattr(sys, "_pair_brackets", None)
        # c0 <= xi/(2 lam) < xi: inside the domain
        vertices = None if batch is None else batch(part[:cut])
        if vertices is None:
            vertices = []
            for x, y in part[:cut]:
                try:
                    vertices.append(sys.triangle_vertex(x, y))
                except Exception as e:  # raised after the earlier pairs' legs
                    failure = e
                    break
        xs, ys = _unzip(part[:cut], 2)
        reads = (([c[:len(vertices)] for c in hyps], read),
                 _columns(sys, _zip(xs, vertices), (0,)),
                 _columns(sys, _zip(vertices, ys), (0,)))
        if read is float:
            (c0,), (a,), (b,) = (cols for cols, _ in reads)
            m = np.maximum(a, b)
            if not m.all():
                raise ValueError("degenerate triangle: both legs vanish")
            yield TriangleReport(a=a, b=b, c0=c0, ratio=c0 / m)
        else:
            reports = Counter()
            for (c0, a, b), n in _count(*reads)[1].values():
                m = max(a, b)
                if m == 0.0:
                    raise ValueError("degenerate triangle: both legs vanish")
                reports[TriangleReport(a=a, b=b, c0=c0, ratio=c0 / m)] += n
            yield reports
        if failure is not None:
            raise failure


def _triangle_reports(sys, pairs):
    """The `triangle_ratio` reports of the pairs, as a Counter."""
    reports = Counter()
    for part in _triangle_parts(sys, pairs):
        reports.update(part if isinstance(part, Counter) else map(
            TriangleReport, *(c.tolist() for c in part)))
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
    (report,) = _holonomy_reports(sys, [(p, q, pp, qq)])
    return report


def _holonomy_parts(sys, quads):
    """The holonomy reports of the quadruples (or of a sampler's stream
    of them), a part at a time: one `_columns` read each for the plaque
    pairs (p, q) followed backward, the projected pairs (pp, qq), and
    each side's legs followed forward, giving a Counter of reports or,
    on the hook's arrays, a `HolonomyReport` of arrays (nan `bound` and
    False `within_bound` out of range).  Coincident plaques raise."""
    _need_lam(sys)
    depth, lam, xi = range(_HOLONOMY_DEPTH + 1), sys.lam, sys.xi

    def scale_m(big):  # the m with xi/lam**(m+1) < big <= xi/lam**m
        m = math.floor(math.log(xi / big) / math.log(lam))
        while xi / lam ** (m + 1) >= big:
            m += 1
        while xi / lam ** m < big:
            m -= 1
        return m
    for _, part in _parts(quads):
        p, q, pp, qq = _unzip(part, 4)
        reads = (_columns(sys, _zip(p, q), tuple(-j for j in depth)),
                 _columns(sys, _zip(pp, qq), (0,)),
                 _columns(sys, _zip(p, pp), tuple(depth)),
                 _columns(sys, _zip(q, qq), tuple(depth)))
        if reads[0][1] is float:
            import numpy as np
            d, *orbit = (c for cols, _ in reads for c in cols)
            d_img = orbit.pop(_HOLONOMY_DEPTH)
            if not (d.all() and d_img.all()):
                raise ValueError("coincident plaque pair")
            big = np.maximum(d, d_img)
            lo = scale_m(big.max(initial=xi).item())
            hi = scale_m(big.min(initial=xi).item()) + 1
            # m: the largest k with xi/lam**k >= big, in Python powers
            powers = np.array([lam ** k for k in range(lo - 1, hi + 1)])
            m = hi - np.searchsorted(xi / powers[:0:-1], big)
            step = powers[m - lo]  # lam**(m - 1)
            observed, in_range = np.abs(d_img / d - 1.0), step > 2.0
            bound = np.full(len(d), np.nan)
            bound[in_range] = 2.0 / (step[in_range] - 2.0)
            yield HolonomyReport(observed, bound, m, in_range,
                                 observed <= bound,
                                 np.maximum.reduce(orbit) <= xi)
            continue
        reports = Counter()
        for (d, *orbit), n in _count(*reads)[1].values():
            d_img = orbit.pop(_HOLONOMY_DEPTH)
            if d == 0.0 or d_img == 0.0:
                raise ValueError("coincident plaque pair")
            m = scale_m(max(d, d_img))
            observed = abs(d_img / d - 1.0)
            in_range = lam ** (m - 1) > 2.0
            bound = 2.0 / (lam ** (m - 1) - 2.0) if in_range else None
            # the largest distance of the quadruple's orbit: its plaque
            # pair at steps -1.., and each leg at 0..
            reports[HolonomyReport(observed, bound, m, in_range,
                                   observed <= bound if in_range else None,
                                   max(orbit) <= xi)] += n
        yield reports


def _holonomy_reports(sys, quads):
    """The `HolonomyReport`s of the quadruples, as a Counter."""
    reports = Counter()
    for part in _holonomy_parts(sys, quads):
        reports.update(part if isinstance(part, Counter) else (
            HolonomyReport(o, b if r else None, m, r, w if r else None, ok)
            for o, b, m, r, w, ok in zip(*(c.tolist() for c in part))))
    return reports


class TriangleCurve(NamedTuple):
    scales: list
    max_deviation: list


def triangle_curve(sys, pair_buckets):
    """Empirical (scale, max |ratio - 1|) curve from bucketed pairs.

    `pair_buckets` maps a scale to a list of pairs whose distance falls
    in that bucket; buckets are processed in decreasing scale order.
    """
    scales = sorted(pair_buckets, reverse=True)
    devs = [max((max([abs(r.ratio - 1.0) for r in part], default=0.0)
                 if isinstance(part, Counter) else
                 abs(part.ratio - 1.0).max(initial=0.0).item()
                 for part in _triangle_parts(sys, pair_buckets[s])),
                default=0.0) for s in scales]
    return TriangleCurve(scales=list(scales), max_deviation=devs)
