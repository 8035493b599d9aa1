"""Covering numbers, capacity, entropy, and the identities tying them.

Symbolic systems get exact integer counts through window algebra, so
the only error in a capacity or entropy fit is the finite-scale
transient.  Toral systems get bracketed counts: a greedy cover from a
dense grid gives an upper bound, a separated packing gives a lower
bound, and fits use the geometric mean of the two.  The toral metric is
translation-invariant and the grid is regular, so the d_k ball around
every grid point holds the same index offsets: one stencil per radius,
from `ToralSystem.offset_norm`, serves the whole grid.  The cover and
the packing are one raster-order greedy, `_greedy`, with the stencil
for the cover and its negative for the packing, on int row bitmasks.

Entropy follows the two-sided convention: covers refine under
max_{|k| <= n} dist(f^k x, f^k y), which doubles the standard
(one-sided) value.  Reports carry ent, ent+, ent-, and ent/2 so the
convention is never ambiguous.  The shift branches import the helpers
of `symbolic` they use, so a toral run never loads it.
"""
import math
from itertools import islice
from typing import NamedTuple


def _unstable_mu(sys, what):
    """|mu_u| of a toral automorphism; `what` names the quantity that
    needs it in the error raised for any other system."""
    if not hasattr(sys, "eig_unstable"):
        raise ValueError(f"{what} needs a self-similar system")
    return abs(sys.eig_unstable)


def _log_growth(sys):
    """ent/2: log rho for a shift (primitive matrix only), log |mu_u| for
    a toral automorphism."""
    if sys.space_kind == "symbolic":
        from .symbolic import _parry_data
        return math.log(_parry_data(sys.matrix)[0])
    return math.log(_unstable_mu(sys, "growth rate"))


def _lsq(xs, ys):
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    sxx = sum((x - mx) ** 2 for x in xs)
    if sxx == 0.0:
        raise ValueError("degenerate fit: all scales equal")
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    slope = sxy / sxx
    inter = my - slope * mx
    rms = math.sqrt(
        sum((y - (slope * x + inter)) ** 2 for x, y in zip(xs, ys)) / n
    )
    return slope, inter, rms


# -- covering counts ------------------------------------------------------


class CovCount(NamedTuple):
    """One covering-number evaluation; exact counts have lower == upper."""

    eps: float
    lower: int
    upper: int
    exact: bool
    method: str
    k: int = 0

    @property
    def value(self):
        return self.lower if self.exact else math.sqrt(self.lower * self.upper)


# bound on the row masks of one `_greedy` run, n * n / 8 bytes
_GRID_BYTES = 2**26


def _toral_grid(sys, density):
    """Side n of the regular n x n grid whose metric density is at most
    `density`, and that density."""
    beta_s, beta_u = sys._su_widths

    def density_of(h):
        return (max(beta_s, beta_u) * h / 2) ** sys.e

    h = 2 * density ** (1 / sys.e) / max(beta_s, beta_u)
    n = max(2, math.ceil(1.0 / h))
    while density_of(1.0 / n) > density:
        n += 1
    return n, density_of(1.0 / n)


def _stencil(sys, n, radius, k):
    """Index offsets (a, b) of the grid points in the closed d_k ball
    of this radius around any grid point."""
    import numpy as np
    hx, hy = sys.ball_half_widths(radius, k)
    ax, ay = int(hx * n) + 1, int(hy * n) + 1
    a, b = np.meshgrid(np.arange(-ax, ax + 1), np.arange(-ay, ay + 1),
                       indexing="ij")
    a, b = a.ravel(), b.ravel()
    inside = sys.offset_norm(a / n, b / n, k) <= radius
    return a[inside], b[inside]


def _greedy(n, ta, tb):
    """Points picked on the n x n grid, in raster order, when picking
    an unmarked point p marks every point p + (ta, tb) mod n.

    A row's marks are one int, bit j for column j.  Its free bits are
    picked lowest first, each pick marking its own row's offsets ahead
    of it; each later row that the stencil reaches then takes the picks
    shifted by each column offset of its stencil row, mod n.
    """
    cols = {}
    for a, b in zip(ta.tolist(), tb.tolist()):
        cols.setdefault(a % n, set()).add(b % n)
    ahead = sum(1 << b for b in cols.pop(0, set()) | {0})
    rows, marked, full, count = sorted(cols.items()), [0] * n, (1 << n) - 1, 0
    for i in range(n):
        free, picks = full & ~marked[i], 0
        while free:
            low = free & -free
            picks |= low
            free &= ~(low * ahead)
        count += picks.bit_count()
        for a, bs in rows:
            if not picks or i + a >= n:  # no mark, or a row scanned
                break
            z = 0
            for b in bs:
                z |= picks << b
            marked[i + a] |= z | z >> n  # b < n: below bit 2n - 1
    return count


def _toral_cov_bounds(sys, eps, k=0):
    if not eps > 0:
        raise ValueError("eps must be positive")
    if eps > sys.diameter * sys.lam ** k:
        return CovCount(eps, 1, 1, False, "greedy-upper/packing-lower", k)
    # grid density eps/4 in the d_k metric, i.e. eps/(4 lam**k) in d
    growth = sys.lam ** k
    n, delta = _toral_grid(sys, eps / (4 * growth))
    if n * n > 8 * _GRID_BYTES:  # n rows of n bits
        raise ValueError(f"eps={eps:.6g} needs a {n} x {n} cover grid, whose "
                         f"row masks take {n * n >> 23} MiB, above the "
                         f"{_GRID_BYTES >> 20} MiB bound")

    # with S the stencil: the cover opens a ball at each uncovered p,
    # covering p + S; the packing keeps p unless a kept q has p + S
    # containing q, i.e. unless a kept q marked p by marking q - S
    upper = _greedy(n, *_stencil(sys, n, eps - delta * growth, k))
    sa, sb = _stencil(sys, n, 2 * eps, k)
    lower = _greedy(n, -sa, -sb)
    return CovCount(eps, lower, upper, False, "greedy-upper/packing-lower", k)


def cov_eps(sys, eps, k=0):
    """Covering number at scale eps of the d_k metric (k=0: plain dist).

    Symbolic systems return the exact minimum; toral systems return a
    greedy upper bound and packing lower bound from a grid of metric
    density eps/4; other systems raise ValueError.
    """
    if hasattr(sys, "matrix") and sys.space_kind == "symbolic":
        from .symbolic import _window_count
        n = _window_count(sys, eps, k)
        return CovCount(eps, n, n, True, "exact-symbolic", k)
    if not hasattr(sys, "offset_norm"):
        raise ValueError("cov_eps needs a self-similar system")
    return _toral_cov_bounds(sys, eps, k)


# -- capacity --------------------------------------------------------------


class CapacityFit(NamedTuple):
    slope: float
    intercept: float
    residual: float
    scales: list
    counts: list
    method: str


def default_scales(sys):
    if sys.space_kind == "symbolic":
        return [sys.lam ** -j for j in range(4, 15)]
    return [0.16 * 2.0 ** (-j / 2) for j in range(8)]


def capacity(sys):
    """Least-squares box-dimension fit over the descending geometric grid
    of `default_scales`: 11 scales on a shift, 8 on the torus.

    The two largest scales are excluded as transient; the residual of
    the surviving fit is reported, not hidden.  The counts run smallest
    scale first, so a toral grid past `_GRID_BYTES` fails before any
    greedy runs.
    """
    entries = [cov_eps(sys, e) for e in default_scales(sys)[::-1]][::-1]
    kept = entries[2:]
    counts = [c.value for c in kept]
    if len(set(counts)) == 1:
        raise ValueError("degenerate fit: all covering counts equal")
    xs = [math.log(1.0 / c.eps) for c in kept]
    ys = [math.log(v) for v in counts]
    slope, inter, rms = _lsq(xs, ys)
    return CapacityFit(
        slope=slope, intercept=inter, residual=rms,
        scales=[c.eps for c in entries],
        counts=[c.value for c in entries], method=entries[0].method,
    )


# -- entropy ---------------------------------------------------------------


class EntropyReport(NamedTuple):
    ent: float
    ent_plus: float
    ent_minus: float
    standard: float
    gap_two_sided: float
    rows: list
    method: str = "exact-symbolic"


def _slope_over_n(rows):
    xs = [float(n) for n, _ in rows]
    ys = [v for _, v in rows]
    slope, _, _ = _lsq(xs, ys)
    return slope


def _entropy_report(two, fwd, bwd, method):
    """EntropyReport from the (n, log count) rows of each side."""
    ent = _slope_over_n(two)
    ep = _slope_over_n(fwd)
    em = _slope_over_n(bwd)
    rows = [
        {"n": n, "two_sided": t, "forward": f, "backward": b}
        for (n, t), (_, f), (_, b) in zip(two, fwd, bwd)
    ]
    return EntropyReport(
        ent=ent, ent_plus=ep, ent_minus=em, standard=ent / 2,
        gap_two_sided=abs(ent - ep - em), rows=rows, method=method,
    )


def _symbolic_entropy(sys, ns):
    from .symbolic import _word_counts
    # xi = 1/lam, so a d_n-ball of diameter < xi pins window n + 2
    # A and its transpose count the same words: backward reads forward
    logs = list(map(math.log, _word_counts(sys.matrix, 2 * ns[-1] + 5)))
    two = [(n, logs[2 * n + 5]) for n in ns]
    fwd = [(n, logs[n + 5]) for n in ns]
    return _entropy_report(two, fwd, fwd, "exact-symbolic")


def _toral_entropy(sys, ns):
    """Bowen boxes in eigencoordinates: su rectangles with exact decay.

    A d_n-ball of radius xi is the su box with half-extents
    xi**(1/e) * mu**(-n) on each axis (the binding constraint sits at
    the window edge), so counts are bracketed by an area bound from
    below and a strip tiling from above.
    """
    mu = _unstable_mu(sys, "entropy")
    vs, vu = sys.v_stable, sys.v_unstable
    det_v = abs(vs[0] * vu[1] - vs[1] * vu[0])
    w_s, w_u = sys._su_widths

    def mean_log_count(h_s, h_u):
        lower = 1.0 / (4 * h_s * h_u * det_v)
        upper = math.ceil(w_s / (2 * h_s)) * math.ceil(w_u / (2 * h_u))
        return 0.5 * (math.log(lower) + math.log(max(upper, 1)))

    base = sys.xi ** (1 / sys.e)
    two, fwd, bwd = [], [], []
    for n in ns:
        small = base * mu ** -n
        two.append((n, mean_log_count(small, small)))
        fwd.append((n, mean_log_count(base, small)))
        bwd.append((n, mean_log_count(small, base)))
    return _entropy_report(two, fwd, bwd, "su-box-bounds")


def entropy(sys, n_max=12):
    """Two-sided entropy and its one-sided parts, fitted over n = 2..n_max."""
    if n_max < 4:
        raise ValueError("n_max must be at least 4")
    ns = range(2, n_max + 1)
    if sys.space_kind == "symbolic":
        return _symbolic_entropy(sys, ns)
    return _toral_entropy(sys, ns)


# -- the fundamental equation ---------------------------------------------


class FundamentalReport(NamedTuple):
    capacity: float
    ent: float
    rhs: float
    rel_gap: float
    capacity_fit: CapacityFit
    entropy_report: EntropyReport


def check_fundamental(sys, n_max=12):
    """capacity == ent / log lam, both sides estimated independently."""
    fit = capacity(sys)
    ent_rep = entropy(sys, n_max=n_max)
    rhs = ent_rep.ent / math.log(sys.lam)
    gap = abs(fit.slope - rhs) / max(abs(rhs), 1e-300)
    return FundamentalReport(
        capacity=fit.slope, ent=ent_rep.ent, rhs=rhs,
        rel_gap=gap, capacity_fit=fit, entropy_report=ent_rep,
    )


# -- covering identity ------------------------------------------------------


class IdentityRow(NamedTuple):
    k: int
    lhs: CovCount
    rhs: CovCount
    consistent: bool


def cov_identity_check(sys, k_max=6):
    """cov_{xi/lam^k}(dist) vs cov_xi(d_k): exact equality on shifts,
    bracket overlap on toral samples."""
    rows = []
    for k in range(k_max + 1):
        lhs = cov_eps(sys, sys.xi, k=k)
        # the scaled radius sits on a diameter boundary where covers are
        # strict; nudge down so rounding can never cross it from below
        rhs = cov_eps(sys, sys.xi * sys.lam ** -k * (1 - 1e-12))
        if lhs.exact and rhs.exact:
            ok = lhs.lower == rhs.lower
        else:
            ok = lhs.lower <= rhs.upper and rhs.lower <= lhs.upper
        rows.append(IdentityRow(k, lhs, rhs, ok))
    return rows


# -- local unstable entropy --------------------------------------------------


class LocalEntropy(NamedTuple):
    estimate: float
    rows: list
    method: str


def _local_entropies(sys, xs, n_max):
    """`local_unstable_entropy` of every point of xs, from one walk of
    the forward count vectors; points at one state share one fit."""
    if n_max < 5:
        raise ValueError("n_max too small for a slope")
    ns = range(3, n_max + 1)
    if sys.space_kind == "symbolic":
        from .symbolic import _count_vectors
        states = [x.at(0) for x in xs]
        rows = {s: [] for s in states}
        # entry s of vector n counts the words of length n + 1 from s
        for n, v in zip(ns, islice(_count_vectors(sys.matrix), ns[0], None)):
            for s, row in rows.items():
                row.append((n, math.log(v[s])))
        fits = {s: LocalEntropy(_slope_over_n(row), row, "forward-word-counts")
                for s, row in rows.items()}
        return [fits[s] for s in states]
    mu = _unstable_mu(sys, "local unstable entropy")
    # arc of u-length L stretches to L * mu**n, cut into unit-L pieces
    rows = [(n, math.log(math.ceil(mu ** n))) for n in ns]
    fit = LocalEntropy(_slope_over_n(rows), rows, "unstable-arc-growth")
    return [fit for _ in xs]


def local_unstable_entropy(sys, x, n_max=16):
    """Growth rate of forward refinements of one local unstable set,
    fitted over n = 3..n_max."""
    return _local_entropies(sys, [x], n_max)[0]


class LocalEntropySpread(NamedTuple):
    estimates: list
    spread_rel: float
    reference: float
    max_rel_gap: float


def local_entropy_homogeneity(sys, xs, n_max=16):
    """Local unstable entropy across base points against ent/2."""
    ests = [e.estimate for e in _local_entropies(sys, xs, n_max)]
    if not ests:
        raise ValueError("need at least one base point")
    ref = _log_growth(sys)
    spread = (max(ests) - min(ests)) / ref
    gap = max(abs(e - ref) for e in ests) / ref
    return LocalEntropySpread(ests, spread, ref, gap)
