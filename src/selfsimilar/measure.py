"""Hausdorff measures on local stable/unstable sets and their product.

For the lam-adic metric any set of diameter below lam**-m sits inside
one cylinder, so the infimum over covers collapses to a dynamic
program over the cylinder tree:

    m(w) = min(diam(w)**d, sum over admissible children m(w a))

with leaves valued diam**d.  Diameters are the true metric diameters:
a cylinder whose continuation is forced for k steps is smaller than
its nominal scale by lam**-k, and a cylinder forced forever is a
single point.  The DP value depends on a cylinder only through its
last state and the remaining depth, which is what makes measures of
unstable windows independent of the plaque they sit on.

The intrinsic (maximal-entropy) measure of a box is the product of
the stable and unstable window measures at d = ent/(2 log lam).  The
paper's product display repeats the stable factor; the construction
requires stable times unstable and that is what is implemented.
Probabilities are normalized by the total mass of all boxes of the
same depth, since no normalization convention is given.

Both masses of a depth-k box depend only on its end states, so the
Parry comparison runs over the n**2 end-state classes weighted by
their exact word counts, in memory O(n**2) at any depth; its rows, one
per admissible word, are iterated in word order from the class table.
The module runs without numpy; `symbolic` is imported by the
shift-only functions, so a toral run does not load it.
"""
import math
from functools import lru_cache
from typing import NamedTuple

from .dimension import _log_growth, _lsq


def _need_int_depth(depth):
    """ValueError unless the DP depth is an int (a bool is not)."""
    if not isinstance(depth, int) or isinstance(depth, bool):
        raise ValueError(f"depth must be an integer, not {depth!r}")


def _edge_at(sys, scale):
    """Edge of the window at `scale`: the least m with lam**-m <= scale,
    less one."""
    return math.ceil(math.log(1.0 / scale) / math.log(sys.lam) - 1e-12) - 1


class UnstableWindow(NamedTuple):
    """Points sharing the anchor's coordinates at every i <= edge.

    The window at scale parameter lam**-(edge+1): edge 0 is the
    plaque usually written W^u at one half for lam = 2.
    """

    anchor: object
    edge: int = 0

    def __eq__(self, other):  # equal only to values of its own type
        return type(other) is type(self) and tuple.__eq__(self, other)

    __ne__, __hash__ = object.__ne__, tuple.__hash__  # __ne__ via __eq__


class StableWindow(NamedTuple):
    """Points sharing the anchor's coordinates at every i >= -edge."""

    anchor: object
    edge: int = 0

    def __eq__(self, other):
        return type(other) is type(self) and tuple.__eq__(self, other)

    __ne__, __hash__ = object.__ne__, tuple.__hash__


def _slack(matrix, state):
    """Forced steps before the walk from `state` branches; None if never."""
    seen = set()
    while len(matrix.successors[state]) == 1:
        if state in seen:
            return None
        seen.add(state)
        state = matrix.successors[state][0]
    return len(seen)


@lru_cache(maxsize=32)
def _dp(matrix, lam, d, depth):
    """Scale-free cylinder DP for one side of the shift: the tables
    g(., depth) and g(., depth + 2), holding one table at a time, up to
    the first step that returns its input (every later one would too).

    g(s, r) is the measure of a window with edge state s, in units of
    lam**(-edge*d); g(s, 0) is the true-diameter leaf value.
    """
    if depth < 0:
        raise ValueError("DP depth must be nonnegative")
    shrink = lam ** -d
    g0 = []
    for s in range(matrix.n):
        k = _slack(matrix, s)
        g0.append(0.0 if k is None else lam ** (-k * d))

    def step(prev):
        return [min(g0[s], shrink * sum(prev[c] for c in matrix.successors[s]))
                for s in range(matrix.n)]

    g = g0
    for _ in range(depth):
        g, prev = step(g), g
        if g == prev:
            break
    return tuple(g), tuple(step(step(g)))  # cached: read-only


class MeasureTree(NamedTuple):
    """Result of the cylinder DP on one local window."""

    value: float
    value_deeper: float
    drift: float
    converged: bool
    leaf_diameter: float


def hausdorff_estimate(sys, window, d, depth=12):
    """DP value of mu^d on a stable or unstable window, with a depth
    drift check: the estimate at depth and depth + 2 must agree within
    1% to be flagged converged."""
    if not 0 < d < math.inf:
        raise ValueError("dimension exponent must be positive")
    if sys.space_kind != "symbolic":
        raise ValueError("cylinder DP needs a symbolic system; toral "
                         "measures are closed-form, see toral_measure_summary")
    if not sys.matrix.primitive:
        raise ValueError("hausdorff estimation needs a primitive matrix")
    _need_int_depth(depth)
    if depth < 1:
        raise ValueError("depth must be at least 1")
    if isinstance(window, UnstableWindow):
        matrix = sys.matrix
        state = window.anchor.at(window.edge)
    elif isinstance(window, StableWindow):
        matrix = sys.matrix.transpose()
        state = window.anchor.at(-window.edge)
    else:
        raise TypeError("window must be UnstableWindow or StableWindow")
    scale = sys.lam ** (-window.edge * d)
    value, deeper = (scale * g[state] for g in _dp(matrix, sys.lam, d, depth))
    drift = abs(value - deeper) / value if value > 0 else 0.0
    return MeasureTree(
        value=value, value_deeper=deeper, drift=drift, converged=drift < 0.01,
        leaf_diameter=sys.lam ** -(window.edge + depth),
    )


def intrinsic_exponent(sys):
    """d = ent / (2 log lam), the product-measure exponent."""
    return _log_growth(sys) / math.log(sys.lam)


# -- boxes -------------------------------------------------------------------


class Box(NamedTuple):
    """Two-sided cylinder: word occupies [start, start + len - 1] and
    must span coordinate 0 so the stable/unstable split is defined."""

    word: tuple
    start: int

    def __eq__(self, other):
        return type(other) is type(self) and tuple.__eq__(self, other)

    __ne__, __hash__ = object.__ne__, tuple.__hash__

    @property
    def end(self):
        return self.start + len(self.word) - 1


class BoxMeasure(NamedTuple):
    stable: float
    unstable: float
    product: float
    admissible: bool = True


def box_measure(sys, box):
    """Product of the stable and unstable window measures of the box, at
    the intrinsic exponent and DP depth 12."""
    if not isinstance(box, Box):
        raise TypeError("box must be a Box")
    if sys.space_kind != "symbolic":
        raise ValueError("boxes are symbolic; toral measures are closed-form")
    if box.start > 0 or box.end < 0:
        raise ValueError("box must span coordinate 0")
    n = sys.matrix.n
    if any(not 0 <= s < n for s in box.word):
        raise ValueError("box word has out-of-range symbols")
    d = intrinsic_exponent(sys)
    if not sys.matrix.allows(box.word):
        return BoxMeasure(0.0, 0.0, 0.0, admissible=False)
    anchor = sys.point_through(box.word, box.start)
    unstable = hausdorff_estimate(sys, UnstableWindow(anchor, box.end), d)
    stable = hausdorff_estimate(sys, StableWindow(anchor, -box.start), d)
    return BoxMeasure(stable=stable.value, unstable=unstable.value,
                      product=stable.value * unstable.value)


# -- scaling -----------------------------------------------------------------


class ScalingReport(NamedTuple):
    ratio: float
    expected: float
    rel_gap: float
    side: str


def scaling_check(sys, window, depth=12):
    """mu^d(f(window)) / mu^d(window) against lam**(+-d), at the
    intrinsic exponent d.

    f shifts an unstable window's edge down by one (measure grows by
    lam**d) and a stable window's edge up by one (shrinks by lam**d).
    """
    _need_int_depth(depth)
    d = intrinsic_exponent(sys)
    before = hausdorff_estimate(sys, window, d, depth).value
    image_anchor = sys.apply(window.anchor)
    if isinstance(window, UnstableWindow):
        image = UnstableWindow(image_anchor, window.edge - 1)
        expected = sys.lam ** d
        side = "unstable"
    else:
        image = StableWindow(image_anchor, window.edge + 1)
        expected = sys.lam ** -d
        side = "stable"
    after = hausdorff_estimate(sys, image, d, depth).value
    ratio = after / before
    return ScalingReport(
        ratio=ratio, expected=expected,
        rel_gap=abs(ratio - expected) / expected, side=side,
    )


# -- homogeneity -------------------------------------------------------------


class HomogeneityReport(NamedTuple):
    c_observed: float
    rows: list
    flat_ratio: float
    trend: float
    d: float


def homogeneity_check(sys, xs, depth=12):
    """Ratios of product masses of the forward boxes C^n, n = 1..10,
    across points, at the intrinsic exponent d.

    C^n is the box with stable window at xi/lam and unstable window at
    xi/lam**(n+1).  The constant c_observed is the largest mass ratio
    across base points; flat in n (flat_ratio, trend) means homogeneous.
    """
    if sys.space_kind != "symbolic":
        raise ValueError("homogeneity check is symbolic-only; the toral "
                         "intrinsic measure is Lebesgue, hence homogeneous")
    if not xs:
        raise ValueError("need at least one base point")
    _need_int_depth(depth)
    d = intrinsic_exponent(sys)
    if d <= 0:  # one state, no entropy: every mass is 0
        raise ValueError("dimension exponent must be positive")
    g_u = _dp(sys.matrix, sys.lam, d, depth)[0]
    g_s = _dp(sys.matrix.transpose(), sys.lam, d, depth)[0]
    lam = sys.lam
    e_s = _edge_at(sys, sys.xi / lam)

    def mass(x, n):
        e_u = e_s + n
        v_s = lam ** (-e_s * d) * g_s[x.at(-e_s)]
        v_u = lam ** (-e_u * d) * g_u[x.at(e_u)]
        return v_s * v_u

    ns = range(1, 11)
    rows = []
    ratios = []
    for n in ns:
        masses = [mass(x, n) for x in xs]
        hi, lo = max(masses), min(masses)
        rows.append({"n": n, "max_mass": hi, "min_mass": lo, "ratio": hi / lo})
        ratios.append(hi / lo)
    trend, _, _ = _lsq(ns, [math.log(r) for r in ratios])
    return HomogeneityReport(
        c_observed=max(ratios), rows=rows,
        flat_ratio=max(ratios) / min(ratios), trend=trend, d=d,
    )


# -- Parry comparison --------------------------------------------------------


class _ParryRows:
    """Rows (word, dp, parry, rel_gap), one per admissible word of the
    given length in `iter_words` order, with the values that `table`
    holds for the word's end states; `count` is the exact word count.
    """

    def __init__(self, matrix, length, table, count):
        self._matrix, self._length, self._table = matrix, length, table
        self._count = count

    def __len__(self):
        return self._count

    def __iter__(self):
        from .symbolic import iter_words
        for word in iter_words(self._matrix, self._length):
            yield (word, *self._table[word[0], word[-1]])


class ParryReport(NamedTuple):
    max_rel_gap: float
    total_mass: float
    rows: _ParryRows


def parry_compare(sys, depth):
    """Normalized depth-k box masses against the Parry measure.

    Both masses of a word of length L = 2 * depth + 1 depend on its end
    states (a, b) only: the DP mass is scale * g_s[a] * g_u[b], and the
    Parry mass telescopes to pi[a] * v[b] / (v[a] * rho**(L - 1)).  So
    the comparison runs over the n**2 end-state classes, each holding
    the exact count (A**(2 * depth))_ab of words.  The total mass is the
    exact sum of count times class mass, rounded once (math.fsum of the
    per-word masses, bit for bit), and the worst gap is taken over the
    classes that hold a word.  The report's rows are one per word, read
    from the class table as they are iterated.
    """
    if sys.space_kind != "symbolic":
        raise ValueError("parry comparison is symbolic-only")
    if not sys.matrix.primitive:
        raise ValueError("parry comparison needs a mixing (primitive) SFT")
    _need_int_depth(depth)
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    from .symbolic import _parry_mass
    matrix, n, length = sys.matrix, sys.matrix.n, 2 * depth + 1
    d = intrinsic_exponent(sys)
    if d <= 0:  # one state, no entropy: every box mass is 0
        raise ValueError("dimension exponent must be positive")
    dp_depth = 32
    g_u = _dp(matrix, sys.lam, d, dp_depth)[0]
    g_s = _dp(matrix.transpose(), sys.lam, d, dp_depth)[0]
    scale = sys.lam ** (-2 * depth * d)
    counts = [[int(a == b) for b in range(n)] for a in range(n)]
    for _ in range(2 * depth):
        counts = [[sum(row[c] for c in matrix.predecessors[b])
                   for b in range(n)] for row in counts]
    masses = {(a, b): scale * g_s[a] * g_u[b] for a in range(n)
              for b in range(n) if counts[a][b]}
    # each mass is p / 2**k: one integer sum over the largest 2**k
    ratios = {ab: m.as_integer_ratio() for ab, m in masses.items()}
    q_max = max(q for _, q in ratios.values())
    total = sum(p * (q_max // q) * counts[a][b]
                for (a, b), (p, q) in ratios.items()) / q_max

    table = {}
    for (a, b), m in masses.items():
        parry = _parry_mass(matrix, a, b, length)
        table[a, b] = (m / total, parry, abs(m / total - parry) / parry)
    worst = max(gap for _, _, gap in table.values())
    words = sum(map(sum, counts))
    return ParryReport(max_rel_gap=worst, total_mass=total,
                       rows=_ParryRows(matrix, length, table, words))


# -- toral closed form -------------------------------------------------------


def toral_measure_summary(sys):
    """Closed-form intrinsic-measure facts for a toral system.

    The metric's exponent satisfies d * e = 1, so the Hausdorff
    measure of an unstable plaque is exactly its eigencoordinate
    length and the intrinsic measure is normalized Lebesgue area; no
    numeric estimator is needed or shipped.
    """
    d = intrinsic_exponent(sys)
    mu = abs(sys.eig_unstable)
    length = 2 * sys.xi ** (1 / sys.e)
    return {
        "d": d,
        "plaque_u_length": length,
        "image_u_length": mu * length,
        "scaling_ratio": mu,
        "scaling_expected": sys.lam ** d,
        "scaling_gap": abs(mu - sys.lam ** d),
        "exponent_product": d * sys.e,
    }
