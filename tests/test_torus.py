"""Hyperbolic toral automorphisms: eigendata, the adapted metric, brackets,
and the plain Euclidean quotient used as a refinement base.

The cat matrix ((2,1),(1,1)) is symmetric, so its eigenvalues are
phi**2 and phi**-2 with orthogonal unit eigenvectors; those closed forms
anchor every expected value here.
"""

import copy
import math
import re
from fractions import Fraction
from functools import lru_cache, reduce
from random import Random

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from selfsimilar import cli, torus
from selfsimilar._streams import uniforms
from selfsimilar.core import _pair_values, _unzip, _zip, verify_self_similar
from selfsimilar.torus import (
    EuclideanTorus,
    ToralSystem,
    _coords,
    _pow,
    cat_map,
    euclidean_base,
    toral_new,
)

from scalar_orbit import offset, offset_step

PHI = (1.0 + math.sqrt(5.0)) / 2.0


# -------------------------------------------------------------- construction


def test_cat_map_eigendata(cat):
    assert cat.eig_unstable == pytest.approx(PHI**2, rel=1e-14)
    assert cat.eig_stable == pytest.approx(PHI**-2, rel=1e-14)
    assert cat.lam == pytest.approx((3.0 + math.sqrt(5.0)) / 2.0, rel=1e-14)
    assert cat.e == 1.0
    # unit, orthogonal, positively oriented eigenvectors
    vs, vu = cat.v_stable, cat.v_unstable
    assert math.hypot(*vs) == pytest.approx(1.0, rel=1e-14)
    assert math.hypot(*vu) == pytest.approx(1.0, rel=1e-14)
    assert vs[0] * vu[0] + vs[1] * vu[1] == pytest.approx(0.0, abs=1e-14)
    assert vu == pytest.approx((0.8506508083520399, 0.5257311121191336))
    assert cat.inverse == ((1, -1), (-1, 2))


def test_the_cat_maps_unstable_exponent_is_exactly_one(cat):
    """`_pow` hands its array back at exponent 1.0, as x ** 1.0 is x: the
    default cat map's norms and the 1/e root of its sampler take that
    path; any other exponent, as at lam = 1.8, is builtin pow
    elementwise."""
    assert cat.e == 1.0 == 1.0 / cat.e
    a = np.array([0.0, 5e-324, 0.3, 2.5, 1e308])
    assert _pow(a, cat.e) is a
    assert [x ** 1.0 for x in a.tolist()] == a.tolist()
    a = a[:-1]  # 1e308 ** (1/e) overflows
    for e in (cat_map(lam=1.8).e, 1.0 / cat_map(lam=1.8).e):
        assert e != 1.0
        got = _pow(a, e)
        assert got is not a
        assert got.tolist() == [x ** e for x in a.tolist()]


def test_determinant_minus_one_automorphism():
    fib = ToralSystem(((1, 1), (1, 0)), xi=0.05)
    assert fib.lam == pytest.approx(PHI, rel=1e-14)
    assert fib.eig_stable == pytest.approx(-1.0 / PHI, rel=1e-14)
    assert fib.e == 1.0


def test_lam_below_the_cap_rescales_the_exponents():
    sys = cat_map(lam=1.8)
    assert sys.lam == 1.8
    assert sys.e == pytest.approx(math.log(1.8) / math.log(PHI**2), rel=1e-15)
    # one step scales the stable side by the same lam: |mu_s|**-e
    assert abs(sys.eig_stable) ** -sys.e == pytest.approx(1.8, rel=1e-14)


def test_every_default_lam_has_exponent_one():
    """The default lam is |mu_u|, read from the larger root, so the
    exponent of every matrix at its default lam is exactly 1.0."""
    for m in MATRICES:
        sys = toral_new(m)
        assert sys.lam == abs(sys.eig_unstable)
        assert sys.e == 1.0


def test_construction_rejects_bad_input():
    with pytest.raises(ValueError, match="matrix must be 2x2"):
        ToralSystem(((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    # a fractional entry is rejected, not truncated to the cat map
    for m in (((2, 1.9), (1, 1)), ((2.5, 1), (1, 1)), ((2, 1), (1, math.inf))):
        with pytest.raises(ValueError, match="entries must be integers"):
            toral_new(m)
    assert ToralSystem(((2.0, True), (1, 1.0))).matrix == cat_map().matrix
    # an entry that is not a real number gets the same error
    for m in ((("2", "1"), ("1", "1")), ((2, 1), (1, None)), ((2, 1j), (1, 1))):
        with pytest.raises(ValueError, match="entries must be integers"):
            ToralSystem(m)
    with pytest.raises(ValueError, match="determinant"):
        ToralSystem(((2, 0), (0, 2)))
    with pytest.raises(ValueError, match="unit circle"):
        ToralSystem(((0, 1), (1, 0)))
    with pytest.raises(ValueError, match="complex or repeated"):
        ToralSystem(((1, 1), (0, 1)))
    with pytest.raises(ValueError, match="complex or repeated"):
        ToralSystem(((0, 1), (-1, 0)))
    with pytest.raises(ValueError, match=r"lam must lie in \(1,"):
        cat_map(lam=2.7)
    with pytest.raises(ValueError, match=r"lam must lie in \(1,"):
        cat_map(lam=1.0)


def test_oversized_xi_is_rejected():
    with pytest.raises(ValueError, match="too large"):
        ToralSystem(((2, 1), (1, 1)), xi=0.3)
    for xi in (0.0, -0.01, math.nan):
        with pytest.raises(ValueError, match="must be a positive number"):
            ToralSystem(((2, 1), (1, 1)), xi=xi)
    # below the static bound but far beyond where the nine-translate
    # reduction stays faithful: the construction sweep must catch it
    with pytest.raises(ArithmeticError, match="one-step identity"):
        ToralSystem(((2, 1), (1, 1)), xi=0.21)


# ----------------------------------------------------------- su coordinates


def test_su_split_round_trip(cat):
    rng = Random(3)
    for _ in range(200):
        v = (rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
        s, u = cat._su(*v)
        vs, vu = cat.v_stable, cat.v_unstable
        assert s * vs[0] + u * vu[0] == pytest.approx(v[0], abs=1e-14)
        assert s * vs[1] + u * vu[1] == pytest.approx(v[1], abs=1e-14)
    s, u = cat._su(0.01, 0.0)
    assert s == pytest.approx(0.005257311121191337, rel=1e-12)
    assert u == pytest.approx(0.008506508083520402, rel=1e-12)


def test_su_split_diagonalizes_the_matrix(cat):
    rng = Random(5)
    (a, b), (c, d) = cat.matrix
    for _ in range(100):
        v = (rng.uniform(-0.2, 0.2), rng.uniform(-0.2, 0.2))
        img = (a * v[0] + b * v[1], c * v[0] + d * v[1])
        s0, u0 = cat._su(*v)
        s1, u1 = cat._su(*img)
        assert s1 == pytest.approx(s0 * cat.eig_stable, abs=1e-14)
        assert u1 == pytest.approx(u0 * cat.eig_unstable, abs=1e-14)


# -------------------------------------------------------------------- metric


def test_metric_scales_exactly_under_the_map(cat):
    pairs = cat.sample_pairs(500, 0.015, seed=7)
    for x, y in pairs:
        d = cat.dist(x, y)
        grown = max(
            cat.dist(cat.apply(x), cat.apply(y)),
            cat.dist(cat.apply_inv(x), cat.apply_inv(y)),
        )
        assert grown == pytest.approx(cat.lam * d, rel=1e-12)


def test_metric_is_translation_invariant_and_symmetric(cat):
    rng = Random(9)
    for _ in range(100):
        x = (rng.random(), rng.random())
        y = (rng.random(), rng.random())
        t = (rng.random(), rng.random())
        assert cat.dist(x, y) == pytest.approx(cat.dist(y, x), rel=1e-14)
        xt = ((x[0] + t[0]) % 1.0, (x[1] + t[1]) % 1.0)
        yt = ((y[0] + t[0]) % 1.0, (y[1] + t[1]) % 1.0)
        assert cat.dist(xt, yt) == pytest.approx(cat.dist(x, y), rel=1e-9)


unit = st.floats(0.0, 1.0, exclude_max=True)
step = st.floats(-1.0, 1.0)


def loop_dyn_metric(sys, x, y, n):
    """Bowen's d_n: the largest dist over the orbit window |i| <= n."""
    best = sys.dist(x, y)
    for move in (sys.apply, sys.apply_inv):
        fx, fy = x, y
        for _ in range(n):
            fx, fy = move(fx), move(fy)
            best = max(best, sys.dist(fx, fy))
    return best


@settings(max_examples=300, deadline=None)
@given(unit, unit, step, step, st.integers(0, 2))
def test_offset_norm_matches_the_scalar_metric(cat, x0, x1, fx, fy, k):
    reach = cat.xi / cat.lam ** k
    x = (x0, x1)
    y = ((x0 + fx * reach) % 1.0, (x1 + fy * reach) % 1.0)
    ref = loop_dyn_metric(cat, x, y, k)
    # points are stored to 1e-16, so keep d_k well above that
    assume(cat.xi / 10 <= ref <= cat.xi)
    got = cat.offset_norm(np.array([y[0] - x[0]]), np.array([y[1] - x[1]]),
                          k)
    assert got[0] == pytest.approx(ref, rel=1e-12)


def test_ball_half_widths_bound_the_ball(cat):
    # every offset inside the d_1 ball lies inside the ambient half-widths
    hx, hy = cat.ball_half_widths(cat.xi, k=1)
    g = np.linspace(-0.1, 0.1, 401)
    dx, dy = (a.ravel() for a in np.meshgrid(g, g))
    inside = cat.offset_norm(dx, dy, 1) <= cat.xi
    assert inside.sum() > 10
    assert np.all(np.abs(dx[inside]) <= hx)
    assert np.all(np.abs(dy[inside]) <= hy)


def test_min_translate_reaches_across_the_seam(cat):
    delta = cat._nearest((0.95, 0.2), (0.05, 0.2))[1]
    assert delta[0] == pytest.approx(0.1, abs=1e-12)
    assert delta[1] == pytest.approx(0.0, abs=1e-12)


def test_apply_round_trip(cat):
    rng = Random(11)
    for _ in range(100):
        x = (rng.random(), rng.random())
        y = cat.apply_inv(cat.apply(x))
        assert y[0] == pytest.approx(x[0], abs=1e-12)
        assert y[1] == pytest.approx(x[1], abs=1e-12)


def test_sampled_pairs_hit_the_requested_scale(cat):
    pairs = cat.sample_pairs(300, 0.02, seed=13)
    assert len(pairs) == 300
    for x, y in pairs:
        d = cat.dist(x, y)
        assert 0.01 * (1 - 1e-9) <= d <= 0.02 * (1 + 1e-9)
    assert (list(cat.sample_pairs(5, 0.02, seed=1))
            == list(cat.sample_pairs(5, 0.02, seed=1)))
    assert (list(cat.sample_pairs(5, 0.02, seed=1))
            != list(cat.sample_pairs(5, 0.02, seed=2)))
    with pytest.raises(ValueError, match="below xi"):
        cat.sample_pairs(5, 0.05)
    with pytest.raises(ValueError, match="must be positive"):
        cat.sample_pairs(5, -0.01)


# ------------------------------------------------------------------ brackets


def test_bracket_lands_on_both_lines(cat):
    pairs = cat.sample_pairs(300, 0.02, seed=15)
    for x, y in pairs:
        z = cat.bracket(x, y)
        # z on the unstable line of x: the x -> z offset has no stable part
        s, _ = cat._su(*cat._nearest(x, z)[1])
        assert abs(s) < 1e-12
        # z on the stable line of y: the y -> z offset has no unstable part
        _, u = cat._su(*cat._nearest(y, z)[1])
        assert abs(u) < 1e-12
        assert cat.triangle_vertex(x, y) == z


def test_bracket_domain(cat):
    x = (0.0, 0.0)
    y = (0.5, 0.5)
    assert cat.dist(x, y) >= cat.xi
    with pytest.raises(ValueError, match="bracket domain"):
        cat.bracket(x, y)


# ---------------------------------------------- one search, one offset orbit

NINE = [(i, j) for i in (-1, 0, 1) for j in (-1, 0, 1)]


def two_search_form(sys, x, y):
    """(dist, nearest translate, bracket or None) as two nine-translate
    searches: the metric around the nearest lattice representative of
    y - x, the translate around the raw offset, and a bracket that runs
    both."""
    def norm(dx, dy):
        s, u = sys._su(dx, dy)
        return max(abs(s), abs(u)) ** sys.e

    dx, dy = y[0] - x[0], y[1] - x[1]
    rx, ry = dx - round(dx), dy - round(dy)
    d = min(norm(rx + wx, ry + wy) for wx, wy in NINE)
    # min keeps the first of equal norms, as a strict-< scan does
    delta = min(((dx + wx, dy + wy) for wx, wy in NINE),
                key=lambda v: norm(*v))
    if d >= sys.xi:
        return d, delta, None
    u = sys._su(*delta)[1]
    vu = sys.v_unstable
    return d, delta, ((x[0] + u * vu[0]) % 1.0, (x[1] + u * vu[1]) % 1.0)


def test_one_search_matches_the_two_search_form(cat):
    rng = Random(23)
    pairs = [pair for scale, seed in ((0.049, 1), (0.02, 2), (1e-3, 3),
                                      (1e-5, 4))
             for pair in cat.sample_pairs(400, scale, seed=seed)]
    # pairs across the seam of the unit square, and far pairs
    pairs += [((1.0 - 1e-3 * rng.random(), rng.random()),
               (1e-3 * rng.random(), rng.random())) for _ in range(200)]
    pairs += [((rng.random(), rng.random()), (rng.random(), rng.random()))
              for _ in range(1000)]
    brackets = 0
    for x, y in pairs:
        d, delta, z = two_search_form(cat, x, y)
        assert cat.dist(x, y) == d
        assert cat._nearest(x, y)[1] == delta
        if z is None:
            with pytest.raises(ValueError, match="bracket domain"):
                cat.bracket(x, y)
        else:
            assert cat.bracket(x, y) == z
            brackets += 1
    assert brackets >= 1600


def nine_translate_scan(sys, u, v):
    """(norm, t, second) for offset arrays u, v at their nearest lattice
    representatives, by a strict-< scan over all nine translates, none
    skipped: the smallest norm, the unstable coordinate of the first
    translate that attains it, and the smallest norm of the others.
    Each norm is builtin pow elementwise, the scalar `dist`'s power."""
    B = sys._B
    best = second = bt = np.inf
    for wx, wy in NINE:
        s = B[0][0] * (u + wx) + B[0][1] * (v + wy)
        t = B[1][0] * (u + wx) + B[1][1] * (v + wy)
        r = _pow(np.maximum(np.abs(s), np.abs(t)), sys.e)
        closer = r < best
        second = np.where(closer, best, np.minimum(second, r))
        best, bt = np.where(closer, r, best), np.where(closer, t, bt)
    return best, bt, second


def array_form(sys, dx, dy):
    """offset_norm at k=0 as one array pass over the nine translates of
    the nearest lattice representative."""
    return nine_translate_scan(sys, dx - np.round(dx), dy - np.round(dy))[0]


def test_offset_norm_at_step_zero_is_bit_stable(cat):
    rng = np.random.default_rng(7)
    grid = np.arange(-40, 41) / 64
    gx, gy = (a.ravel() for a in np.meshgrid(grid, grid))
    for dx, dy in ((rng.uniform(-1, 1, 5000), rng.uniform(-1, 1, 5000)),
                   (rng.uniform(-1e-3, 1e-3, 5000),
                    rng.uniform(-1e-3, 1e-3, 5000)),
                   (gx, gy)):
        assert np.array_equal(cat.offset_norm(dx, dy), array_form(cat, dx, dy))


def test_identity_sweep_is_two_offset_norm_calls(cat):
    # the sweep as the ratio of two offset_norm calls over the offsets of
    # each scale's sampled pairs
    worsts = []
    for sys in (cat, cat_map(lam=1.6), toral_new(((3, 1), (2, 1)))):
        worst = 0.0
        for scale, seed in ((sys.xi * 0.999, 1), (sys.xi / 8, 2)):
            x, y = _coords(sys.sample_pairs(5000, scale, seed))
            dx, dy = y - x
            ratio = sys.offset_norm(dx, dy, 1) / (
                sys.lam * sys.offset_norm(dx, dy, 0))
            worst = max(worst, float(np.abs(ratio - 1.0).max()))
        assert 0.0 < worst <= 1e-9
        assert sys._validate() == worst
        worsts.append(worst)
    # the sweep's pinned floats, read from the offsets only
    assert worsts == [3.3306690738754696e-16, 2.220446049250313e-16,
                      4.440892098500626e-16]


def test_offset_orbit_is_the_matrix_power(cat):
    # offsets k/64 stay exact under the matrix, so every step of the
    # recurrence is A**j (y - x) up to a lattice vector, at most 1/2 long
    rng = Random(29)
    du = np.array([rng.randrange(-32, 32) / 64 for _ in range(200)])
    dv = np.array([rng.randrange(-32, 32) / 64 for _ in range(200)])
    for j, u, v in cat._offset_orbit(du, dv, 4):
        (a, b), (c, d) = np.linalg.matrix_power(
            np.array(cat.matrix if j >= 0 else cat.inverse), abs(j))
        for got, want in ((u, a * du + b * dv), (v, c * du + d * dv)):
            assert np.array_equal(got - want, np.round(got - want))
            assert np.all(np.abs(got) <= 0.5)


def test_su_widths_are_the_box_extents():
    # an asymmetric matrix, so the stable and unstable extents differ
    sys = toral_new(((3, 1), (2, 1)))
    w_s, w_u = sys._su_widths
    corners = [sys._su(float(i), float(j)) for i in (-1, 1) for j in (-1, 1)]
    assert max(abs(s) for s, _ in corners) == pytest.approx(w_s, rel=1e-15)
    assert max(abs(u) for _, u in corners) == pytest.approx(w_u, rel=1e-15)
    assert abs(w_s - w_u) > 0.1


# ------------------------------------------------------------- pair batch

# the cat map, an asymmetric matrix, a determinant -1 one and a larger one
MATRICES = (((2, 1), (1, 1)), ((3, 1), (2, 1)), ((1, 1), (1, 0)),
            ((3, 2), (1, 1)))
BATCH_STEPS = tuple(range(-6, 7))


@lru_cache(maxsize=None)
def automorphism(index):
    return toral_new(MATRICES[index])


class ScalarOnly:
    """A toral system without its pair batch, read on offset pairs
    ((0, 0), o): `_pair_values` walks each with the scalar maps, here the
    offset recurrence of `scalar_orbit.offset_step`, and the scalar `dist`."""

    def __init__(self, sys):
        self.sys = sys

    def apply(self, o):
        return offset_step(self.sys.matrix, o)

    def apply_inv(self, o):
        return offset_step(self.sys.inverse, o)

    def dist(self, x, y):
        return self.sys.dist(x, y)

    def values(self, pairs, steps):
        """`_pair_values` of each pair's offset pair ((0, 0), y - x)."""
        return _pair_values(self, [((0.0, 0.0), offset(x, y))
                                   for x, y in pairs], steps)


@st.composite
def toral_pair_sets(draw):
    """(system, pairs): sampled pairs at one scale in [1e-4, xi), far
    random pairs, and pairs straddling an edge of the unit square."""
    sys = automorphism(draw(st.integers(0, len(MATRICES) - 1)))
    scale = math.exp(draw(st.floats(math.log(1e-4),
                                    math.log(sys.xi * 0.999))))
    seed = draw(st.integers(0, 2**16))
    pairs = list(sys.sample_pairs(draw(st.integers(1, 30)), scale, seed=seed))
    rng = Random(seed)
    pairs += [((rng.random(), rng.random()), (rng.random(), rng.random()))
              for _ in range(draw(st.integers(0, 10)))]
    for _ in range(draw(st.integers(0, 10))):
        other = rng.random()
        x = (1.0 - 1e-3 * rng.random(), other)
        y = (1e-3 * rng.random(), (other + 1e-3 * rng.random()) % 1.0)
        if rng.random() < 0.5:  # straddle the other edge
            x, y = x[::-1], y[::-1]
        pairs.append((x, y) if rng.random() < 0.5 else (y, x))
    return sys, pairs


@settings(deadline=None, max_examples=150)
@given(toral_pair_sets())
def test_pair_batch_is_the_scalar_path(case):
    sys, pairs = case
    got = _pair_values(sys, pairs, BATCH_STEPS)
    assert got == ScalarOnly(sys).values(pairs, BATCH_STEPS)
    assert got[BATCH_STEPS.index(0)] == [sys.dist(x, y) for x, y in pairs]
    assert all(type(v) is float for row in got for v in row)


def test_pair_batch_is_the_scalar_path_on_2200_pairs(cat):
    # one batch of 2,200 pairs, at a small and a large scale
    pairs = [pair for scale, seed in ((1e-3, 1), (cat.xi * 0.999, 2))
             for pair in cat.sample_pairs(1100, scale, seed=seed)]
    steps = (0, 2, -1)
    got = _pair_values(cat, pairs, steps)
    assert got == ScalarOnly(cat).values(pairs, steps)
    assert list(cat._pair_brackets(pairs)) == [cat.bracket(*p) for p in pairs]


def exact_dists(sys, x, y, reach):
    """dist at steps |j| <= reach from the exact orbit of the float
    points: offsets A**j (y - x) mod Z**2 in rationals, each coordinate
    rounded once to a float before `dist` of it from the origin."""
    def wrap(v):
        return v - round(v)

    delta = [wrap(Fraction(b) - Fraction(a)) for a, b in zip(x, y)]
    out = {}
    for sign, ((a, b), (c, d)) in ((1, sys.matrix), (-1, sys.inverse)):
        u, v = delta
        for j in range(reach + 1):
            out[sign * j] = sys.dist((0.0, 0.0), (float(u), float(v)))
            u, v = wrap(a * u + b * v), wrap(c * u + d * v)
    return out


@pytest.mark.parametrize("index", (0, 2))
def test_the_hook_follows_the_exact_orbit(index):
    """The hook's orbit is the pair's offset orbit to the metric's
    roundoff, at every scale: mapping the points would lose the offset's
    low bits, about 1e-16 / scale relative."""
    sys = automorphism(index)
    for scale in (1e-2, 1e-4, 1e-6):
        pairs = sys.sample_pairs(300, scale, seed=5)
        got = dict(sys._orbit_dists(pairs, -5, 5))
        for i, (x, y) in enumerate(pairs):
            for j, want in exact_dists(sys, x, y, 5).items():
                assert got[j][i] == pytest.approx(want, rel=1e-15, abs=0.0)


# a lam below each matrix's cap, so that the exponent is not 1.0 and
# every norm is builtin pow elementwise
NON_UNIT = ((((2, 1), (1, 1)), 1.8), (((3, 1), (2, 1)), 2.0))
# offsets on the half lattice tie two translates; 2**-45 off, nearly
TIES = [((0.25, 0.3), (0.75, 0.3)), ((0.25, 0.3), (0.75 + 2**-45, 0.3)),
        ((0.125, 0.25), (0.625, 0.75)), ((0.5, 0.125), (0.5, 0.625))]


@pytest.mark.parametrize("matrix, lam", NON_UNIT)
def test_norms_at_a_non_unit_exponent_are_the_scalar_dist(matrix, lam):
    sys = toral_new(matrix, lam)
    assert sys.e != 1.0
    rng = Random(41)
    pairs = [pair for scale, seed in ((sys._min_scale, 1), (1e-2, 2),
                                      (sys.xi * 0.999, 3))
             for pair in sys.sample_pairs(300, scale, seed=seed)]
    pairs += [((rng.random(), rng.random()), (rng.random(), rng.random()))
              for _ in range(300)]
    pairs[100:100] = TIES
    x, y = _coords(pairs)
    norms, t = sys._nearest_norms(x, y)
    want = [sys.dist(*pair) for pair in pairs]
    assert norms.tolist() == want
    assert t.tolist() == [sys._su(*sys._nearest(*pair)[1])[1]
                          for pair in pairs]
    assert sys.offset_norm(y[0] - x[0], y[1] - x[1]).tolist() == want
    assert _pair_values(sys, pairs, BATCH_STEPS) == ScalarOnly(sys).values(
        pairs, BATCH_STEPS)
    # the ties lie far outside any real xi: a copy with a huge xi
    # brackets every pair
    wide = copy.copy(sys)
    wide.xi = 10.0
    assert list(wide._pair_brackets(pairs)) == [wide.bracket(*pair)
                                                for pair in pairs]
    assert list(sys.sample_pairs(300, 1e-3, seed=5)) == loop_sample_pairs(
        sys, 300, 1e-3, 5)


def test_cat_map_all_takes_no_elementwise_power(monkeypatch, capsys):
    """The default cat map's exponent is exactly 1.0: its norms and its
    sampler's root never go through builtin pow elementwise."""
    calls = []
    each = torus._each

    def spy(f, a, *args):
        calls.append(f)
        return each(f, a, *args)

    monkeypatch.setattr(torus, "_each", spy)
    argv = ["all", "--system", "cat-map", "--samples", "2000", "--seed", "0"]
    assert cli.main(argv) == 0
    capsys.readouterr()
    assert math.cos in calls  # the spy sees the sampler
    assert pow not in calls


def test_near_ties_take_the_scalar_search(cat):
    # the offsets 1/2 and 1/2 + 2**-45 along x: the translates on either
    # side of the seam have equal norms, and norms 6e-14 apart
    ties = [((0.25, 0.3), (0.75, 0.3)), ((0.25, 0.3), (0.75 + 2**-45, 0.3))]
    pairs = list(cat.sample_pairs(20, 1e-2, seed=3))
    pairs[5:5] = ties
    want = [cat.dist(x, y) for x, y in pairs]
    ((_, got),) = cat._orbit_dists(pairs, 0, 0)
    assert got.tolist() == want


# ------------------------------------------------ certified centre translate


@lru_cache(maxsize=None)
def boundary_system(index):
    """`automorphism(index)`, and one past the end of `MATRICES` the cat
    map at lam = 2, whose exponents lie below 1."""
    if index < len(MATRICES):
        return automorphism(index)
    return toral_new(MATRICES[0], lam=2.0)


def offset_at(sys, r, theta):
    """The offset whose su coordinates point along theta at norm r."""
    cs, sn = math.cos(theta), math.sin(theta)
    c = min(r ** (1 / sys.e) / abs(cs) if cs else math.inf,
            r ** (1 / sys.e) / abs(sn) if sn else math.inf)
    vs, vu = sys.v_stable, sys.v_unstable
    return c * cs * vs[0] + c * sn * vu[0], c * cs * vs[1] + c * sn * vu[1]


def centre_norm(sys, u, v):
    """The norm of offset arrays u, v themselves, by builtin pow."""
    s, t = sys._su(u, v)
    return _pow(np.maximum(np.abs(s), np.abs(t)), sys.e)


HALF_LATTICE = [(i / 2, j / 2) for i, j in NINE if i or j]


@st.composite
def boundary_rows(draw):
    """(system, pairs): offsets anywhere in [-1/2, 1/2]^2, at a centre
    norm within 1e-12 relative of injectivity/4 on either side, at 0.45
    to 0.65 of the injectivity radius, where the centre first loses to
    another translate, and at the half-lattice points (within 2**-45),
    where two translates tie."""
    sys = boundary_system(draw(st.integers(0, len(MATRICES))))
    pairs = []
    for _ in range(draw(st.integers(1, 16))):
        kind = draw(st.sampled_from(("square", "quarter", "band", "tie")))
        x = draw(st.tuples(unit, unit))
        if kind == "square":
            off = draw(st.tuples(st.floats(-0.5, 0.5), st.floats(-0.5, 0.5)))
        elif kind == "tie":
            # dyadic points keep the half-lattice offsets exact
            x = tuple(draw(st.integers(0, 63)) / 64 for _ in x)
            hx, hy = draw(st.sampled_from(HALF_LATTICE))
            off = (hx + draw(st.sampled_from((0.0, 2**-45, -2**-45))), hy)
        else:
            r = (sys.injectivity / 4 * (1 + draw(st.floats(-1e-12, 1e-12)))
                 if kind == "quarter"
                 else sys.injectivity * draw(st.floats(0.45, 0.65)))
            off = offset_at(sys, r, draw(st.floats(0.0, 2 * math.pi)))
        pairs.append((x, ((x[0] + off[0]) % 1.0, (x[1] + off[1]) % 1.0)))
    return sys, pairs


@settings(deadline=None, max_examples=300)
@given(boundary_rows())
def test_certified_centre_is_the_nine_translate_scan(case):
    sys, pairs = case
    x, y = _coords(pairs)
    dx, dy = y[0] - x[0], y[1] - x[1]
    u, v = dx - np.round(dx), dy - np.round(dy)
    best, bt, _ = nine_translate_scan(sys, u, v)
    norms, t = sys._nearest_norms(x, y)
    assert np.array_equal(t, bt)
    nearest = [sys._nearest(*pair) for pair in pairs]
    assert norms.tolist() == [r for r, _ in nearest]
    assert t.tolist() == [sys._su(*delta)[1] for _, delta in nearest]
    norm, _, picked_t = sys._search(u, v)
    assert np.array_equal(norm, best) and np.array_equal(picked_t, bt)
    for k in (0, 1, 2):
        want = reduce(np.maximum, (nine_translate_scan(sys, a, b)[0]
                                   for _, a, b in sys._offset_orbit(u, v, k)))
        assert np.array_equal(sys.offset_norm(dx, dy, k), want)


def test_certified_rows_skip_the_nine_translate_scan(cat, monkeypatch,
                                                     capsys):
    calls = []  # [rows, rows scanned] of each `_search`, in turn
    search, translates = ToralSystem._search, ToralSystem._translates

    def spy_search(self, u, v):
        calls.append([u.size, 0])
        return search(self, u, v)

    def spy_translates(self, u, v):
        calls[-1][1] += u.size
        return translates(self, u, v)

    monkeypatch.setattr(ToralSystem, "_search", spy_search)
    monkeypatch.setattr(ToralSystem, "_translates", spy_translates)
    argv = ["all", "--system", "cat-map", "--samples", "2000", "--seed", "0"]
    assert cli.main(argv) == 0
    capsys.readouterr()
    # the sampler's, the sweep's and the covers' rows, and the hook's
    # 50,000 and the brackets' 4,000
    assert sum(n for n, _ in calls) == 110992
    # only the diameter grid and the cover stencils reach past
    # injectivity/4: every pair the run samples, checks or brackets lies
    # below it
    assert [n for n, scanned in calls if scanned] == [256, 289, 289, 289,
                                                      81, 289]
    # far random pairs: exactly the rows past injectivity/4 are scanned
    rng = Random(37)
    pairs = [((rng.random(), rng.random()), (rng.random(), rng.random()))
             for _ in range(500)]
    x, y = _coords(pairs)
    dx, dy = y[0] - x[0], y[1] - x[1]
    centre = centre_norm(cat, dx - np.round(dx), dy - np.round(dy))
    far = int((centre > cat.injectivity / 4).sum())
    assert 0 < far < 500
    calls.clear()
    cat._nearest_norms(x, y)
    cat.offset_norm(dx, dy)
    list(cat._orbit_dists(pairs, 0, 0))
    assert calls == [[500, far]] * 3


@pytest.mark.parametrize("index", range(len(MATRICES)))
def test_the_certificate_holds_at_the_largest_accepted_lam(index):
    sys = toral_new(MATRICES[index], lam=automorphism(index).lam * (1 + 1e-12))
    assert sys.e <= 1 + 1e-9
    u, v = np.random.default_rng(index).uniform(-0.5, 0.5, (2, 20000))
    best, bt, second = nine_translate_scan(sys, u, v)
    centre = centre_norm(sys, u, v)
    near = centre <= sys.injectivity / 4
    assert 1000 < near.sum() < 19000
    assert np.array_equal(best[near], centre[near])
    # the margin: every other translate at least 3 times farther
    assert np.all(second[near] >= 3 * (1 - 1e-9) * best[near])
    norm, _, t = sys._search(u, v)
    assert np.array_equal(norm, best) and np.array_equal(t, bt)


# ------------------------------------------------ bracket batch, samplers


@settings(deadline=None, max_examples=150)
@given(toral_pair_sets())
def test_bracket_batch_is_the_scalar_bracket(case):
    sys, pairs = case
    pairs = [p for p in pairs if sys.dist(*p) < sys.xi]
    got = list(sys._pair_brackets(pairs))
    assert got == [sys.bracket(*p) for p in pairs]
    assert all(type(v) is float for z in got for v in z)


def test_near_ties_take_the_scalar_bracket(cat):
    # the tied offsets of `test_near_ties_take_the_scalar_search` lie far
    # outside the domain of any real xi (xi is at most a quarter of the
    # shortest lattice vector), so a copy with a huge xi brackets them
    wide = copy.copy(cat)
    wide.xi = 10.0
    ties = [((0.25, 0.3), (0.75, 0.3)), ((0.25, 0.3), (0.75 + 2**-45, 0.3))]
    pairs = list(cat.sample_pairs(20, 1e-2, seed=3))
    pairs[5:5] = ties
    want = [wide.bracket(x, y) for x, y in pairs]
    assert list(wide._pair_brackets(pairs)) == want


def test_a_pair_outside_the_domain_raises_the_scalar_error(cat):
    far = ((0.1, 0.2), (0.6, 0.65))
    assert cat.dist(*far) >= cat.xi
    with pytest.raises(ValueError) as scalar:
        cat.bracket(*far)
    pairs = list(cat.sample_pairs(2100, 1e-2, seed=4))
    for at in (17, 1027):
        with pytest.raises(ValueError) as batch:
            cat._pair_brackets(pairs[:at] + [far] + pairs[at:])
        assert str(batch.value) == str(scalar.value)


def loop_sample_pairs(sys, count, scale, seed):
    """The self-similar sampler as a per-pair loop over the rows of
    `uniforms`, as a reference."""
    vs, vu = sys.v_stable, sys.v_unstable
    out = []
    for k, (jitter, frac, x0, x1) in enumerate(
            uniforms(count, seed, 4).tolist()):
        theta = 2 * math.pi * (k + jitter) / count
        target = scale * (0.5 + 0.5 * frac)
        cs, sn = math.cos(theta), math.sin(theta)
        # the smaller radius of the stable and the unstable side
        c_s = (target ** (1.0 / sys.e) / abs(cs)) if cs else math.inf
        c_u = (target ** (1.0 / sys.e) / abs(sn)) if sn else math.inf
        c = min(c_s, c_u)
        off = (c * (cs * vs[0] + sn * vu[0]), c * (cs * vs[1] + sn * vu[1]))
        out.append(((x0, x1), ((x0 + off[0]) % 1.0, (x1 + off[1]) % 1.0)))
    return out


def loop_euclidean_pairs(count, scale, seed):
    """The Euclidean sampler as a per-pair loop over the rows of
    `uniforms`, as a reference."""
    out = []
    for turn, frac, x0, x1 in uniforms(count, seed, 4).tolist():
        theta = 2 * math.pi * turn
        r = scale * (0.5 + 0.5 * frac)
        out.append(((x0, x1), ((x0 + r * math.cos(theta)) % 1.0,
                               (x1 + r * math.sin(theta)) % 1.0)))
    return out


@pytest.mark.parametrize("index", range(len(MATRICES)))
def test_samplers_draw_as_the_pair_loops(index, monkeypatch):
    sys = automorphism(index)
    euclid = euclidean_base(sys)
    # numpy's cos and sin equal libm's on some machines and not on
    # others; moving libm's by one ulp shows which one the samplers call
    for name in ("cos", "sin"):
        libm = getattr(math, name)
        monkeypatch.setattr(math, name,
                            lambda v, f=libm: math.nextafter(f(v), 2.0))
    for count in (0, 1, 7, 300):
        for seed in (0, 5, 104729):
            for scale in (sys._min_scale, 1e-6, 1e-3, sys.xi * 0.999):
                got = list(sys.sample_pairs(count, scale, seed=seed))
                assert got == loop_sample_pairs(sys, count, scale, seed)
                assert all(type(v) is float
                           for pair in got for pt in pair for v in pt)
            for scale in (1e-6, 1e-3, 0.2):
                got = list(euclid.sample_pairs(count, scale, seed=seed))
                assert got == loop_euclidean_pairs(count, scale, seed)


def test_point_rows_read_as_the_pair_list(cat, euclid):
    for got, want in ((cat.sample_pairs(7, 1e-2, seed=3),
                       loop_sample_pairs(cat, 7, 1e-2, 3)),
                      (euclid.sample_pairs(7, 1e-2, seed=3),
                       loop_euclidean_pairs(7, 1e-2, 3))):
        assert len(got) == 7
        assert [got[i] for i in range(-7, 7)] == want + want
        assert list(got[2:5]) == want[2:5]
        assert list(got[::-2]) == want[::-2]
        assert list(got) == want
        assert list(reversed(got)) == want[::-1]
        assert all(type(v) is float for pair in got for pt in pair for v in pt)
        assert all(type(v) is float for i in range(7) for v in got[i][1])
        for i in (7, -8):
            with pytest.raises(IndexError):
                got[i]
        xs, ys = _unzip(got, 2)
        assert list(xs) == [x for x, _ in want]
        assert list(ys) == [y for _, y in want]
        assert list(_zip(ys, xs)) == [(y, x) for x, y in want]
        assert list(got[3:].zip(got[:4])) == [a + b for a, b in
                                              zip(want[3:], want)]
        assert xs.zip([(0.5, 0.5)] * 7) is None
    points = cat.sample_points(5, seed=2)
    want = [tuple(p) for p in uniforms(5, 2, 2).tolist()]
    assert list(points) == want
    assert [points[-1], *points[1:3]] == [want[-1], *want[1:3]]
    assert all(type(v) is float for pt in points for v in pt)


def test_hooks_read_rows_as_the_pair_list(cat, euclid):
    for rows in (cat.sample_pairs(300, 1e-2, seed=9),
                 euclid.sample_pairs(300, 1e-2, seed=9)):
        pairs = list(rows)
        for sys in (cat, euclid):
            got = list(sys._orbit_dists(rows, -3, 4))
            want = list(sys._orbit_dists(pairs, -3, 4))
            assert [j for j, _ in got] == [j for j, _ in want]
            assert all(a.tolist() == b.tolist()
                       for (_, a), (_, b) in zip(got, want))
        assert list(cat._pair_brackets(rows)) == list(
            cat._pair_brackets(pairs))


def loop_holonomy_quads(sys, count, seed, scale):
    """The CLI's toral holonomy sampler as a per-quadruple loop over the
    rows of `uniforms`, with tuple points, one sign per uniform and the
    scalar bracket, as a reference."""
    vs, vu = sys.v_stable, sys.v_unstable
    leg = sys.xi / 4
    quads = []
    for p0, p1, u_t, sign_t, u_s, sign_s in uniforms(count, seed,
                                                      6).tolist():
        t = scale * (0.25 + 0.75 * u_t) * (1 if sign_t >= 0.5 else -1)
        s = leg * (0.25 + 0.75 * u_s) * (1 if sign_s >= 0.5 else -1)
        q = ((p0 + t * vu[0]) % 1.0, (p1 + t * vu[1]) % 1.0)
        pp = ((p0 + s * vs[0]) % 1.0, (p1 + s * vs[1]) % 1.0)
        quads.append(((p0, p1), q, pp, sys.bracket(pp, q)))
    return quads


def first_error(run):
    with pytest.raises(Exception) as info:
        run()
    return type(info.value), str(info.value)


@pytest.mark.parametrize("index", range(len(MATRICES)))
def test_holonomy_quads_draw_as_the_quadruple_loop(index):
    sys = automorphism(index)
    for count in (0, 1, 7, 300, 1500):
        for seed in (0, 5, 104729):
            for scale in (1e-3, sys.xi / sys.lam ** 3, sys.xi / sys.lam):
                got = cli._toral_holonomy_quads(sys, count, seed, scale)
                assert list(got) == loop_holonomy_quads(sys, count, seed,
                                                        scale)
                assert all(type(v) is float
                           for quad in got for pt in quad for v in pt)
    # unstable legs up to 2 xi leave the bracket domain on both paths
    want = first_error(lambda: loop_holonomy_quads(sys, 300, 1, 2 * sys.xi))
    assert want == (ValueError, "pair outside the bracket domain")
    assert first_error(
        lambda: cli._toral_holonomy_quads(sys, 300, 1, 2 * sys.xi)) == want


def test_samplers_reject_a_negative_count(golden, cat, euclid, doubling):
    samplers = (golden.sample_pairs, lambda n: cat.sample_pairs(n, 0.01),
                cat.sample_points, lambda n: euclid.sample_pairs(n, 0.01),
                doubling.sample_points)
    for sample in samplers:
        with pytest.raises(ValueError, match="count must be nonnegative"):
            sample(-1)
        assert len(sample(0)) == 0


@pytest.mark.parametrize(
    "index, lam", [(i, None) for i in range(len(MATRICES))] + [(0, 1.5)])
def test_the_scale_floor_meets_the_target_check(index, lam):
    sys = automorphism(index) if lam is None else toral_new(MATRICES[index],
                                                            lam)
    floor = sys._min_scale
    # the floor passes the sampler's own 1e-9 check, which raises on a miss
    for seed in range(10):
        assert len(sys.sample_pairs(200, floor, seed=seed)) == 200
    if lam is None:
        assert floor <= 1e-6
        sys.sample_pairs(200, 1e-6, seed=0)
    below = floor * (1 - 1e-9)
    with pytest.raises(ValueError, match=re.escape(f"below {floor:.6g}")):
        sys.sample_pairs(5, below)


# ---------------------------------------------------------- euclidean torus


def test_euclidean_quotient_metric(cat, euclid):
    assert euclid.diameter == math.sqrt(2.0) / 2.0
    assert euclid.lam_sup == pytest.approx(math.sqrt(3.5), rel=1e-12)
    assert euclid.dist((0.0, 0.0), (0.5, 0.5)) == pytest.approx(
        euclid.diameter, rel=1e-14
    )
    assert euclid.dist((0.9, 0.0), (0.1, 0.0)) == pytest.approx(0.2, abs=1e-12)
    assert euclid.space_kind == "toral"
    assert euclid.invertible and euclid.has_bracket
    assert euclid.geometry is cat


def test_euclidean_sampling(euclid):
    pairs = euclid.sample_pairs(200, 0.01, seed=17)
    for x, y in pairs:
        d = euclid.dist(x, y)
        assert 0.005 * (1 - 1e-9) <= d <= 0.01 * (1 + 1e-9)
    with pytest.raises(ValueError, match="injectivity radius"):
        euclid.sample_pairs(5, 0.25)


def test_euclidean_bracket_delegates_to_the_geometry(cat, euclid):
    pairs = euclid.sample_pairs(50, 0.01, seed=19)
    for x, y in pairs:
        assert euclid.triangle_vertex(x, y) == cat.bracket(x, y)


def test_euclidean_base_helper(cat, euclid, refined_euclid):
    e = euclidean_base(cat, xi=0.03)
    assert isinstance(e, EuclideanTorus)
    assert e.xi == 0.03
    for xi in (0.0, -0.01, math.nan, math.inf):
        with pytest.raises(ValueError, match="must be a positive finite"):
            euclidean_base(cat, xi=xi)
    # the default xi rejects every pair above it
    pairs = euclid.sample_pairs(50, 0.2, seed=3)
    rep = verify_self_similar(refined_euclid, pairs)
    assert len(rep.rejected) == 50 and not rep.passed


# ------------------------------------------------------------ circle doubling


def test_circle_doubling_basics(doubling):
    assert doubling.lam == 2.0
    assert doubling.xi == 0.25
    assert doubling.diameter == 0.5
    assert not doubling.invertible and not doubling.has_bracket
    assert doubling.dist(0.1, 0.9) == pytest.approx(0.2, abs=1e-12)
    assert doubling.dist(0.25, 0.75) == 0.5
    assert doubling.apply(0.75) == 0.5
    pts = doubling.sample_points(10, seed=3)
    assert pts == doubling.sample_points(10, seed=3)
    assert all(0.0 <= p < 1.0 for p in pts)


def test_circle_doubling_one_step_identity(doubling):
    # one-sided version of the metric identity: no inverse branch
    rng = Random(21)
    for _ in range(300):
        x = rng.random()
        y = (x + rng.uniform(-0.2, 0.2) * doubling.xi) % 1.0
        d = doubling.dist(x, y)
        if d == 0.0 or d > doubling.xi:
            continue
        grown = doubling.dist(doubling.apply(x), doubling.apply(y))
        assert grown == pytest.approx(2.0 * d, rel=1e-12)


def test_toral_new_matches_the_class():
    sys = toral_new(((1, 1), (1, 0)), xi=0.04)
    assert isinstance(sys, ToralSystem)
    assert sys.xi == 0.04
