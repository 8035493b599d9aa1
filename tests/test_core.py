"""Metric-side checks: the one-step identity, refinement, brackets,
triangles, contraction along invariant sets, and holonomy distortion.

Shift-space cases have exact expected values (the metric is a power of
lam); the wrapped-circle cases below have closed forms worked out by hand:
refining an already adapted metric returns it unchanged, and refining the
clipped arc metric at sqrt(2) lands within a 2**(1/4) band of
sqrt(0.3 * arc), pinning the Holder data.
"""

import math
from fractions import Fraction
from random import Random

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from selfsimilar import cli
from selfsimilar.core import (
    HolderReport,
    HolonomyReport,
    TriangleReport,
    VerifyReport,
    _holonomy_columns,
    _pair_values,
    _triangle_reports,
    holder_check,
    holonomy_deviation,
    refine_metric,
    stable_contraction_check,
    triangle_curve,
    triangle_ratio,
    verify_self_similar,
)
from selfsimilar.torus import CircleDoubling, cat_map, toral_new

PHI = (1.0 + math.sqrt(5.0)) / 2.0


class PowerWarp:
    """Shift metric raised to the 0.9 power: deliberately not self-similar."""

    invertible = True
    tol_default = 1e-9

    def __init__(self, base):
        self._base = base
        self.lam = base.lam
        self.xi = base.xi**0.9
        self.diameter = base.diameter**0.9

    def apply(self, x):
        return self._base.apply(x)

    def apply_inv(self, x):
        return self._base.apply_inv(x)

    def dist(self, x, y):
        return self._base.dist(x, y) ** 0.9


class RiggedWarp(PowerWarp):
    """PowerWarp with triangle vertices, some rigged: a pair in `broken`
    has none, and a pair in `hubbed` gets HUB, a vertex at distance 0
    from every point (a pseudo-metric, so both legs vanish)."""

    HUB = "hub"

    def __init__(self, base, broken=(), hubbed=()):
        super().__init__(base)
        self.broken, self.hubbed = set(broken), set(hubbed)

    def triangle_vertex(self, x, y):
        if (x, y) in self.broken:
            raise ValueError("no vertex")
        if (x, y) in self.hubbed:
            return self.HUB
        return self._base.triangle_vertex(x, y)

    def dist(self, x, y):
        return 0.0 if self.HUB in (x, y) else super().dist(x, y)


class TruncatedArc:
    """Arc metric clipped at 0.3: bounded distortion of the doubling metric
    but not adapted to any expansion rate."""

    space_kind = "wrapped-base-metric"
    invertible = False
    has_bracket = False
    lam = 2.0
    xi = 0.25
    diameter = 0.3

    def __init__(self):
        self._arc = CircleDoubling()

    def apply(self, x):
        return self._arc.apply(x)

    def dist(self, x, y):
        return min(self._arc.dist(x, y), 0.3)


def circle_pairs(seed, per_scale=40, scale_exps=range(2, 14)):
    rng = Random(seed)
    pairs = []
    for e in scale_exps:
        for _ in range(per_scale):
            x = rng.random()
            y = (x + (0.5 + 0.5 * rng.random()) * 2.0**-e) % 1.0
            pairs.append((x, y))
    return pairs


# ------------------------------------------------------------ backward walks


def test_backward_window_needs_invertibility(doubling):
    # the orbit readers that walk backward, on a system with no apply_inv
    # at all
    message = "backward window needs an invertible system"
    with pytest.raises(ValueError, match=message):
        verify_self_similar(doubling, [(0.1, 0.11)])
    with pytest.raises(ValueError, match=message):
        holonomy_deviation(doubling, 0.1, 0.11, 0.12, 0.13)


# ------------------------------------------------------------- verification


def test_verification_is_exact_on_shift_spaces(full2, golden, four):
    for sys in (full2, golden, four):
        rep = verify_self_similar(sys, sys.sample_pairs(400, seed=1))
        assert rep.passed and rep.exact
        assert rep.checked == 400
        assert rep.rejected == []
        assert rep.max_rel_deviation == 0.0
        assert rep.mean_rel_deviation == 0.0
        assert rep.tol == 0.0


def test_verification_reports_unusable_pairs(full2):
    x = full2.constant(0)
    far = x.with_value(0, 1)
    near = x.with_value(4, 1)
    rep = verify_self_similar(full2, [(x, x), (x, far), (x, near)])
    assert [reason for _, reason in rep.rejected] == [
        "coincident pair",
        "dist above xi",
    ]
    assert rep.checked == 1
    assert not rep.passed


def test_verification_accepts_pairs_at_exactly_xi(full2):
    x = full2.constant(0)
    rep = verify_self_similar(full2, [(x, x.with_value(2, 1))])
    assert rep.checked == 1 and rep.passed


def test_verification_flags_a_broken_metric(full2):
    warped = PowerWarp(full2)
    rep = verify_self_similar(warped, full2.sample_pairs(100, seed=4))
    assert not rep.exact
    assert not rep.passed
    # every pair deviates by the same factor lam**-0.1
    assert rep.max_rel_deviation == pytest.approx(1.0 - 2.0**-0.1, rel=1e-9)
    assert rep.worst_pair is not None
    assert rep.tol == 1e-9


def test_verification_of_the_toral_metric(cat):
    pairs = cat.sample_pairs(1500, 0.03, seed=2)
    rep = verify_self_similar(cat, pairs)
    assert rep.passed and not rep.exact
    assert rep.checked == 1500 and not rep.rejected
    assert rep.max_rel_deviation < 1e-9
    assert rep.tol == cat.tol_default == 1e-9


# ---------------------------------------------------------------- refinement


def test_refinement_parameter_validation(euclid):
    for lam in (1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="must exceed 1"):
            refine_metric(euclid, lam, 1e-6)
    for tol in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="tol must be positive"):
            refine_metric(euclid, 1.8, tol)

    class Unbounded:
        diameter = math.inf
        invertible = False

        def dist(self, x, y):
            return abs(x - y)

        def apply(self, x):
            return 2 * x

    with pytest.raises(ValueError, match="bounded"):
        refine_metric(Unbounded(), 2.0, 1e-6)


def test_refinement_window_tracks_the_tolerance(euclid, refined_euclid):
    assert refined_euclid.window == 23
    want = math.ceil(math.log(euclid.diameter / 1e-6) / math.log(1.8))
    assert refined_euclid.window == want
    assert refined_euclid.xi == euclid.xi
    assert refined_euclid.diameter == euclid.diameter
    assert refined_euclid.lam == 1.8
    assert refined_euclid.invertible and refined_euclid.has_bracket
    assert refined_euclid.space_kind == "wrapped-base-metric"
    assert refined_euclid.tol_default == 1e-6


def test_refining_an_adapted_metric_changes_nothing(doubling):
    refined = refine_metric(doubling, 2.0, 1e-9)
    rng = Random(23)
    for _ in range(300):
        x, y = rng.random(), rng.random()
        assert refined.dist(x, y) == doubling.dist(x, y)
    with pytest.raises(ValueError, match="no inverse"):
        refined.apply_inv(0.3)
    assert not refined.invertible


def test_refined_clipped_arc_at_lam_two_stays_below_the_clip(doubling):
    # every term min(2**i a, 0.3) / 2**i is at most a, so the sup is a itself
    trunc = TruncatedArc()
    refined = refine_metric(trunc, 2.0, 1e-9)
    for x, y in circle_pairs(29):
        assert refined.dist(x, y) == trunc.dist(x, y)
    rep = holder_check(trunc.dist, refined.dist, circle_pairs(29), k=2.0, lam=2.0)
    assert rep.alpha == 1.0
    assert rep.c == 1.0
    assert rep.violations == []


def test_refined_clipped_arc_at_root_two_is_a_square_root(doubling):
    # closed form: the sup sits within 2**(1/4) of sqrt(0.3 * arc), so the
    # Holder exponent against k = 2 is exactly one half
    trunc = TruncatedArc()
    refined = refine_metric(trunc, math.sqrt(2.0), 1e-6)
    pairs = circle_pairs(31)
    rep = holder_check(trunc.dist, refined.dist, pairs, k=2.0, lam=math.sqrt(2.0))
    assert rep.alpha == pytest.approx(0.5, rel=1e-12)
    assert rep.violations == []
    low = math.sqrt(0.3) * 2.0**-0.25
    high = math.sqrt(0.3) * 2.0**0.25
    assert low * 0.999 <= rep.c <= high * 1.001
    for x, y in pairs:
        r = refined.dist(x, y)
        b = trunc.dist(x, y)
        assert low * 0.999 <= r / math.sqrt(b) <= high * 1.001


def test_refined_euclidean_metric_is_self_similar(euclid, refined_euclid):
    pairs = euclid.sample_pairs(400, 0.001, seed=31)
    rep = verify_self_similar(refined_euclid, pairs, tol=1e-6)
    assert rep.passed
    assert rep.checked == 400 and not rep.rejected
    assert rep.max_rel_deviation < 1e-12


def test_refined_euclidean_metric_holder_sandwich(cat, euclid, refined_euclid):
    pairs = []
    for i, scale in enumerate((0.02, 0.005, 0.001, 2e-4, 5e-5)):
        pairs += euclid.sample_pairs(60, scale, seed=37 + i)
    k = abs(cat.eig_unstable)
    rep = holder_check(euclid.dist, refined_euclid.dist, pairs, k=k, lam=1.8)
    assert rep.alpha == pytest.approx(math.log(1.8) / math.log(k), rel=1e-12)
    assert rep.violations == []
    assert 0.0 < rep.c <= euclid.diameter ** (1.0 - rep.alpha) * (1.0 + 1e-9)


def test_holder_check_validation(doubling):
    with pytest.raises(ValueError, match="at least one sample pair"):
        holder_check(doubling.dist, doubling.dist, [], k=2.0, lam=2.0)
    with pytest.raises(ValueError, match="at least lam"):
        holder_check(doubling.dist, doubling.dist, [(0.0, 0.1)], k=1.5, lam=2.0)
    with pytest.raises(ValueError, match="coincident sample pair"):
        holder_check(doubling.dist, doubling.dist, [(0.2, 0.2)], k=2.0, lam=2.0)


# -------------------------------------------------------------- pair batches

STEPS = (0, 1, -1)
unit = st.floats(0.0, 1.0, exclude_max=True)


@st.composite
def toral_pairs(draw):
    """A few pairs offset by [scale/2, scale] from anywhere on the torus,
    scale in [1e-5, 2e-2], as EuclideanTorus.sample_pairs builds them."""
    scale = draw(st.floats(1e-5, 2e-2))
    pairs = []
    for _ in range(draw(st.integers(1, 6))):
        x = (draw(unit), draw(unit))
        theta = draw(st.floats(0.0, 2.0 * math.pi))
        r = scale * draw(st.floats(0.5, 1.0))
        y = ((x[0] + r * math.cos(theta)) % 1.0,
             (x[1] + r * math.sin(theta)) % 1.0)
        pairs.append((x, y))
    return pairs


def exact_terms(geo, x, y, reach):
    """Euclidean distances at steps |j| <= reach from the exact orbit of
    the float points: offsets A**j (y - x) mod Z**2 in rationals, one
    rounding to float per coordinate before each math.hypot."""
    def wrap(v):
        return v - round(v)

    delta = [wrap(Fraction(b) - Fraction(a)) for a, b in zip(x, y)]
    terms = {}
    for sign, ((a, b), (c, d)) in ((1, geo.matrix), (-1, geo.inverse)):
        u, v = delta
        for j in range(reach + 1):
            terms[sign * j] = math.hypot(float(u), float(v))
            u, v = wrap(a * u + b * v), wrap(c * u + d * v)
    return terms


def exact_refined(refined, x, y, steps):
    """Refined distances at each step from the exact orbit."""
    n = refined.window
    terms = exact_terms(refined.base.geometry, x, y,
                        n + max(abs(s) for s in steps))
    return [max(terms[s + i] / refined.lam ** abs(i) for i in range(-n, n + 1))
            for s in steps]


def hook(sys, pairs, steps):
    """The arrays of the orbit hook at each step s, read over
    min(steps)..max(steps)."""
    terms = dict(sys._orbit_dists(pairs, min(steps), max(steps)))
    return [terms[s] for s in steps]


def scalar_steps(sys, dist, x, y, steps):
    """dist(f^s x, f^s y) by the scalar maps, for s in steps."""
    out = []
    for s in steps:
        p, q = x, y
        for _ in range(abs(s)):
            step = sys.apply if s > 0 else sys.apply_inv
            p, q = step(p), step(q)
        out.append(dist(p, q))
    return out


def test_property_tests_leave_out_the_explain_phase():
    # the conftest profile reaches every @settings below, which names
    # other fields only
    assert Phase.explain not in settings.default.phases
    assert Phase.explain not in settings(deadline=None).phases
    assert Phase.shrink in settings(deadline=None).phases


@settings(deadline=None)
@given(toral_pairs())
def test_refined_batch_follows_the_exact_orbit(refined_euclid, pairs):
    batch = hook(refined_euclid, pairs, STEPS)
    for i, (x, y) in enumerate(pairs):
        want = exact_refined(refined_euclid, x, y, STEPS)
        for got, w in zip((b[i] for b in batch), want):
            assert got == pytest.approx(w, rel=1e-14)


@settings(deadline=None, max_examples=30)
@given(toral_pairs())
def test_refined_batch_agrees_with_the_scalar_metric(refined_euclid, pairs):
    batch = hook(refined_euclid, pairs, STEPS)
    for i, (x, y) in enumerate(pairs):
        want = scalar_steps(refined_euclid, refined_euclid.dist, x, y, STEPS)
        for got, w in zip((b[i] for b in batch), want):
            assert got == pytest.approx(w, rel=1e-9)


@settings(deadline=None)
@given(toral_pairs())
def test_euclidean_batch_follows_the_exact_orbit(euclid, pairs):
    batch = hook(euclid, pairs, STEPS)
    for i, (x, y) in enumerate(pairs):
        terms = exact_terms(euclid.geometry, x, y, 1)
        scalar = scalar_steps(euclid, euclid.dist, x, y, STEPS)
        for got, s, w in zip((b[i] for b in batch), STEPS, scalar):
            assert got == pytest.approx(terms[s], rel=1e-14)
            assert got == pytest.approx(w, rel=1e-9)
        # at step 0 both paths read the same float offset
        assert batch[0][i] == pytest.approx(euclid.dist(x, y), rel=1e-15)


@settings(deadline=None)
@given(toral_pairs())
def test_domination_is_exact_on_the_batch_path(euclid, refined_euclid, pairs):
    (b,) = hook(euclid, pairs, (0,))
    (r,) = hook(refined_euclid, pairs, (0,))
    assert (r >= b).all()
    rep = holder_check(euclid.dist, refined_euclid.dist, pairs, k=3.0, lam=1.8)
    assert rep.violations == []


def test_straddling_pairs_keep_every_bit(euclid):
    # x sits just above 0 and y just below 1: the offset wraps, and the
    # smaller coordinate's low bits must survive the wrap
    x = (1.2345678912345e-6, 0.5)
    y = ((x[0] - 1e-5) % 1.0, 0.5)
    exact = Fraction(y[0]) - Fraction(x[0]) - 1
    assert euclid.dist(x, y) == abs(float(exact))
    assert hook(euclid, [(x, y)], (0,))[0][0] == abs(float(exact))


def test_batch_path_keeps_rejections_and_errors(euclid, refined_euclid):
    pairs = list(euclid.sample_pairs(20, 1e-3, seed=5))
    x = pairs[3][0]
    far = ((x[0] + 0.3) % 1.0, x[1])
    pairs[3] = (x, x)
    pairs[7] = (x, far)
    rep = verify_self_similar(refined_euclid, pairs, tol=1e-6)
    assert rep.rejected == [(3, "coincident pair"), (7, "dist above xi")]
    assert rep.checked == 18 and not rep.passed
    with pytest.raises(ValueError, match="coincident sample pair"):
        holder_check(euclid.dist, refined_euclid.dist, pairs, k=3.0, lam=1.8)


def test_checks_on_a_base_without_lam_ask_for_a_refinement(euclid,
                                                         refined_euclid):
    # the Euclidean base carries no expanding factor; each check says so
    # before it reads a pair, so points that cannot be read never are
    pairs = euclid.sample_pairs(5, 1e-3, seed=1)
    calls = (lambda: verify_self_similar(euclid, pairs),
             lambda: verify_self_similar(euclid, [(None, None)]),
             lambda: triangle_ratio(euclid, *pairs[0]),
             lambda: triangle_ratio(euclid, None, None),
             lambda: holonomy_deviation(euclid, None, None, None, None),
             lambda: stable_contraction_check(euclid, None, None))
    for call in calls:
        with pytest.raises(ValueError, match="needs a self-similar system"):
            call()
    assert verify_self_similar(refined_euclid, pairs, tol=1e-6).passed


def loop_verify(sys, pairs, tol):
    """The per-pair verifier of the float path, as a reference."""
    rejected, devs, worst = [], [], None
    for idx, (p, q) in enumerate(pairs):
        d = sys.dist(p, q)
        if d == 0.0:
            rejected.append((idx, "coincident pair"))
            continue
        if d > sys.xi:
            rejected.append((idx, "dist above xi"))
            continue
        grown = max(sys.dist(sys.apply(p), sys.apply(q)),
                    sys.dist(sys.apply_inv(p), sys.apply_inv(q)))
        devs.append(abs(grown / (sys.lam * d) - 1.0))
        if worst is None or devs[-1] > devs[worst]:
            worst = len(devs) - 1
    max_dev = max(devs) if devs else 0.0
    return VerifyReport(
        checked=len(devs), rejected=rejected, max_rel_deviation=max_dev,
        mean_rel_deviation=sum(devs) / len(devs) if devs else 0.0,
        worst_pair=worst, tol=tol,
        passed=bool(devs) and max_dev <= tol and not rejected)


def loop_holder(base_dist, refined_dist, samples, k, lam):
    """The per-pair Holder fit, as a reference."""
    alpha = math.log(lam) / math.log(k)
    violations, c, worst = [], 0.0, None
    for idx, (x, y) in enumerate(samples):
        b, r = base_dist(x, y), refined_dist(x, y)
        if r < b * (1 - 1e-12):
            violations.append(idx)
        if r / b**alpha > c:
            c, worst = r / b**alpha, idx
    return HolderReport(c=c, alpha=alpha, violations=violations,
                        max_ratio_pair=worst)


def test_systems_without_a_batch_keep_the_pair_loop(full2, doubling):
    warped = PowerWarp(full2)
    pairs = full2.sample_pairs(100, seed=4)
    coincident = list(pairs) + [(full2.constant(0),) * 2]
    assert verify_self_similar(warped, coincident) == loop_verify(
        warped, coincident, 1e-9)
    lam = 2.0**0.9
    assert holder_check(full2.dist, warped.dist, pairs, k=2.0, lam=lam) \
        == loop_holder(full2.dist, warped.dist, pairs, 2.0, lam)
    trunc = TruncatedArc()
    arcs = circle_pairs(29)
    for base, lam in ((trunc, math.sqrt(2.0)), (doubling, 2.0)):
        refined = refine_metric(base, lam, 1e-6)
        assert refined._orbit_dists is None
        assert holder_check(base.dist, refined.dist, arcs, k=2.0, lam=lam) \
            == loop_holder(base.dist, refined.dist, arcs, 2.0, lam)
    refined = refine_metric(doubling, 2.0, 1e-9)
    with pytest.raises(ValueError, match="no inverse"):
        verify_self_similar(refined, arcs)


class SupNormTorus:
    """The automorphism's offsets under the sup norm: a refinement base
    whose `_orbit_dists` is not Euclidean."""

    invertible = True
    xi = 0.02
    diameter = 0.5

    def __init__(self, geometry):
        self.geometry = geometry

    def apply(self, x):
        return self.geometry.apply(x)

    def apply_inv(self, x):
        return self.geometry.apply_inv(x)

    def dist(self, x, y):
        return max(abs(b - a - round(b - a)) for a, b in zip(x, y))

    def _orbit_dists(self, pairs, lo, hi):
        pts = np.array(pairs, dtype=float).reshape(-1, 2, 2)
        d = pts[:, 1] - pts[:, 0]
        d -= np.round(d)
        orbit = self.geometry._offset_orbit(d[:, 0], d[:, 1], max(-lo, hi))
        for j, u, v in orbit:
            if lo <= j <= hi:
                yield j, np.maximum(np.abs(u), np.abs(v))


def test_refined_batch_reads_the_base_norm(cat, euclid, refined_euclid):
    refined = refine_metric(SupNormTorus(cat), 1.8, 1e-6)
    for scale, seed in ((2e-2, 43), (1e-2, 44)):
        pairs = euclid.sample_pairs(150, scale, seed=seed)
        batch = hook(refined, pairs, STEPS)
        for i, (x, y) in enumerate(pairs):
            want = scalar_steps(refined, refined.dist, x, y, STEPS)
            for got, w in zip((b[i] for b in batch), want):
                assert got == pytest.approx(w, rel=1e-12)
    # a Euclidean batch would be larger: the orbit's offsets are off-axis
    pairs = euclid.sample_pairs(20, 1e-2, seed=45)
    (sup,) = hook(refined, pairs, (0,))
    (euc,) = hook(refined_euclid, pairs, (0,))
    assert (sup < euc).all()


def test_the_orbit_hook_reads_its_step_range(cat, euclid, refined_euclid):
    # steps that skip 0 or leave gaps, against the scalar maps: bit for
    # bit on the self-similar torus, to roundoff elsewhere (a scalar
    # refinement maps apply_inv(p) forward again)
    refined_cat = refine_metric(cat, 1.8, 1e-6)
    pairs = euclid.sample_pairs(12, 1e-2, seed=53)
    for sys, rel in ((cat, 0.0), (euclid, 1e-9), (refined_euclid, 1e-9),
                     (refined_cat, 1e-9)):
        for steps in ((2, 3), (-3, -1), (0, 2), (-2, 0, 3)):
            lo, hi = min(steps), max(steps)
            assert sorted(j for j, _ in sys._orbit_dists(pairs, lo, hi)) \
                == list(range(lo, hi + 1))
            got = zip(*_pair_values(sys, pairs, steps))
            for row, (x, y) in zip(got, pairs):
                want = scalar_steps(sys, sys.dist, x, y, steps)
                assert list(row) == pytest.approx(want, rel=rel, abs=0.0)
    # a refinement of a refinement streams its base's hook too
    twice, few = refine_metric(refined_euclid, 1.8, 1e-3), pairs[:4]
    for row, (x, y) in zip(zip(*_pair_values(twice, few, STEPS)), few):
        want = scalar_steps(twice, twice.dist, x, y, STEPS)
        assert list(row) == pytest.approx(want, rel=1e-9)


# the orbit checks as the per-pair loops they replace, as references

def loop_contraction(sys, x, y, side, n_max):
    d0 = sys.dist(x, y)
    if d0 == 0.0:
        raise ValueError("coincident points")
    if d0 > sys.xi:
        return [], math.inf, False, 0
    if side == "stable":
        step = sys.apply
    elif side == "unstable":
        step = getattr(sys, "apply_inv", None)
    else:
        raise ValueError("side must be 'stable' or 'unstable'")
    ratios, first_bad = [], None
    p, q = x, y
    for n in range(1, n_max + 1):
        if step is None:
            raise ValueError("backward window needs an invertible system")
        p, q = step(p), step(q)
        d = sys.dist(p, q)
        if d > sys.xi:
            first_bad = n
            break
        ratios.append(d * sys.lam ** n / d0)
    max_dev = max((abs(r - 1.0) for r in ratios), default=0.0)
    return ratios, max_dev, first_bad is None, first_bad


def outcome(run):
    """What a call returns, or the type and message of what it raises."""
    try:
        return run()
    except Exception as e:
        return type(e), str(e)


def orbit_check_inputs(golden, cat, doubling):
    """(system, pairs) with coincident pairs and pairs above xi."""
    g = list(golden.sample_pairs(40, seed=3, levels=(1, 8)))
    zero = golden.constant(0)
    g += [(g[0][0], g[0][0]), (zero, zero.with_value(0, 1))]
    rng = Random(37)
    t = list(cat.sample_pairs(40, cat.xi / 3, seed=5))
    for vec in (cat.v_stable, cat.v_unstable):
        for _ in range(10):
            p = (rng.random(), rng.random())
            r = cat.xi / 3 * (0.25 + 0.75 * rng.random())
            t.append((p, ((p[0] + r * vec[0]) % 1.0, (p[1] + r * vec[1]) % 1.0)))
    t += [(t[0][0], t[0][0]), ((0.0, 0.0), (0.5, 0.5))]
    c = circle_pairs(31, per_scale=3) + [(0.3, 0.3), (0.1, 0.6)]
    one_sided = refine_metric(doubling, 2.0, 1e-6)
    return [(golden, g), (cat, t), (doubling, c), (one_sided, c[::4])]


def test_orbit_checks_are_the_pair_loops(golden, cat, doubling):
    for sys, pairs in orbit_check_inputs(golden, cat, doubling):
        for x, y in pairs:
            for side in ("stable", "unstable", "middle"):
                for n_max in (0, 6):
                    # a report is the tuple of its fields
                    rep = outcome(lambda: stable_contraction_check(
                        sys, x, y, side=side, n_max=n_max))
                    assert rep == outcome(lambda: loop_contraction(
                        sys, x, y, side, n_max))


def test_contraction_on_a_system_without_an_inverse(doubling):
    one_sided = refine_metric(doubling, 2.0, 1e-6)
    for sys in (doubling, one_sided):
        with pytest.raises(ValueError, match="coincident points"):
            stable_contraction_check(sys, 0.3, 0.3, side="unstable")
        rep = stable_contraction_check(sys, 0.1, 0.6, side="unstable")
        assert rep.first_bad_n == 0 and not rep.precondition_ok
    with pytest.raises(ValueError, match="needs an invertible system"):
        stable_contraction_check(doubling, 0.1, 0.11, side="unstable")
    with pytest.raises(ValueError, match="no inverse"):
        stable_contraction_check(one_sided, 0.1, 0.11, side="unstable")
    assert stable_contraction_check(doubling, 0.1, 0.11,
                                    side="unstable", n_max=0).ratios == []


def test_holder_check_is_the_pair_loop(golden, cat, doubling):
    for sys, pairs in orbit_check_inputs(golden, cat, doubling)[:3]:
        pairs = [(x, y) for x, y in pairs if sys.dist(x, y) > 0.0]
        lam = sys.lam ** 0.9

        def warped(x, y):
            return sys.dist(x, y) ** 0.9

        for base, refined in ((sys.dist, warped), (warped, sys.dist),
                              (sys.dist, sys.dist)):
            assert holder_check(base, refined, pairs, k=sys.lam, lam=lam) \
                == loop_holder(base, refined, pairs, sys.lam, lam)
        with pytest.raises(ValueError, match="coincident sample pair"):
            holder_check(sys.dist, warped, pairs + [(pairs[0][0],) * 2],
                         k=sys.lam, lam=lam)


# ------------------------------------------------------------------ brackets


def test_bracket_helper_dispatches(doubling):
    one_sided = refine_metric(doubling, 2.0, 1e-6)
    for sys in (doubling, one_sided):
        with pytest.raises(ValueError, match="no bracket structure"):
            triangle_ratio(sys, 0.1, 0.1001)


# ----------------------------------------------------------------- triangles


def test_triangles_close_exactly_on_shift_spaces(full2, golden):
    for sys in (full2, golden):
        for x, y in sys.sample_pairs(300, seed=6, levels=(3, 9)):
            rep = triangle_ratio(sys, x, y)
            assert rep.ratio == 1.0
            assert rep.c0 == max(rep.a, rep.b)


def test_triangles_with_both_legs_alive(full2):
    rng = Random(3)
    for _ in range(200):
        x = full2.random_point(rng, window=12)
        j = rng.randint(4, 9)
        k = rng.randint(4, 9)
        y = x.with_value(j, 1 - x.at(j)).with_value(-k, 1 - x.at(-k))
        rep = triangle_ratio(full2, x, y)
        assert rep.ratio == 1.0
        assert rep.a == 2.0 ** -(j - 1)
        assert rep.b == 2.0 ** -(k - 1)
        assert rep.c0 == max(rep.a, rep.b)


def test_triangle_preconditions(full2):
    x = full2.constant(0)
    with pytest.raises(ValueError, match="coincident"):
        triangle_ratio(full2, x, x)
    with pytest.raises(ValueError, match="triangle scale"):
        triangle_ratio(full2, x, x.with_value(3, 1))


def test_triangles_close_on_the_torus(cat):
    pairs = cat.sample_pairs(400, cat.xi / (4.0 * cat.lam), seed=8)
    worst = max(abs(triangle_ratio(cat, x, y).ratio - 1.0) for x, y in pairs)
    assert worst < 1e-9


def test_triangle_curve_shrinks_with_scale(euclid, refined_euclid):
    buckets = {}
    for idx, scale in enumerate((2e-4, 1e-4, 5e-5, 2.5e-5)):
        buckets[scale] = euclid.sample_pairs(80, scale, seed=41 + idx)
    curve = triangle_curve(refined_euclid, buckets)
    assert curve.scales == [2e-4, 1e-4, 5e-5, 2.5e-5]
    assert len(curve.max_deviation) == 4
    for a, b in zip(curve.max_deviation, curve.max_deviation[1:]):
        assert b <= a
    assert curve.max_deviation[-1] < curve.max_deviation[0] / 5.0
    assert curve.max_deviation[0] < 1e-6


# --------------------------------------------------------------- contraction


def test_contraction_is_exact_on_shift_spaces(full2):
    x = full2.constant(0)
    y = x.with_value(5, 1)  # shares the past of x: an unstable-side pair
    rep = stable_contraction_check(full2, x, y, side="unstable", n_max=6)
    assert rep.precondition_ok and rep.first_bad_n is None
    assert rep.ratios == [1.0] * 6
    assert rep.max_deviation == 0.0

    z = x.with_value(-5, 1)  # shares the future: a stable-side pair
    rep = stable_contraction_check(full2, x, z, side="stable", n_max=6)
    assert rep.ratios == [1.0] * 6
    assert rep.max_deviation == 0.0


def test_contraction_across_sampled_pairs(full2, golden):
    for sys in (full2, golden):
        for x, y in sys.sample_pairs(1000, seed=21, levels=(2, 7)):
            lev = int(sys.level(x, y))
            future_flip = x.at(lev + 1) != y.at(lev + 1)
            side = "unstable" if future_flip else "stable"
            rep = stable_contraction_check(sys, x, y, side=side, n_max=6)
            assert rep.precondition_ok
            assert rep.ratios == [1.0] * 6


def test_contraction_flags_pairs_leaving_the_regime(full2):
    x = full2.constant(0)
    y = x.with_value(5, 1)
    # iterating an unstable-side pair forward doubles the distance each step
    rep = stable_contraction_check(full2, x, y, side="stable", n_max=8)
    assert not rep.precondition_ok
    assert rep.first_bad_n == 4
    assert rep.ratios == [4.0, 16.0, 64.0]

    rep = stable_contraction_check(full2, x, x.with_value(0, 1))
    assert rep.ratios == [] and not rep.precondition_ok
    assert rep.first_bad_n == 0
    assert rep.max_deviation == math.inf

    with pytest.raises(ValueError, match="coincident"):
        stable_contraction_check(full2, x, x)
    with pytest.raises(ValueError, match="side must be"):
        stable_contraction_check(full2, x, y, side="middle")


def test_contraction_on_the_torus(cat):
    rng = Random(17)
    vs, vu = cat.v_stable, cat.v_unstable
    for _ in range(200):
        p = (rng.random(), rng.random())
        offs = cat.xi / 3.0 * (0.25 + 0.75 * rng.random()) * rng.choice((-1, 1))
        for vec, side in ((vs, "stable"), (vu, "unstable")):
            q = ((p[0] + offs * vec[0]) % 1.0, (p[1] + offs * vec[1]) % 1.0)
            rep = stable_contraction_check(cat, p, q, side=side, n_max=10)
            assert rep.precondition_ok
            assert len(rep.ratios) == 10
            assert rep.max_deviation < 1e-9


# ------------------------------------------------------------------ holonomy


def test_holonomy_on_shift_plaques(full2):
    x = full2.constant(0)
    for j in (5, 6, 9):
        q = x.with_value(j, 1)
        pp = x.with_value(-3, 1)
        qq = full2.triangle_vertex(pp, q)
        rep = holonomy_deviation(full2, x, q, pp, qq)
        assert rep.precondition_ok
        assert rep.m == j - 2
        assert rep.in_range and rep.within_bound
        assert rep.observed == 0.0
        assert rep.bound == pytest.approx(2.0 / (2.0 ** (j - 3) - 2.0))


def test_holonomy_below_the_scale_threshold(full2):
    # m = 2 gives lam**(m-1) = 2, which the bound cannot absorb
    x = full2.constant(0)
    q = x.with_value(4, 1)
    pp = x.with_value(-3, 1)
    qq = full2.triangle_vertex(pp, q)
    rep = holonomy_deviation(full2, x, q, pp, qq)
    assert rep.m == 2
    assert not rep.in_range
    assert rep.bound is None and rep.within_bound is None


def test_holonomy_preconditions(full2):
    x = full2.constant(0)
    q = x.with_value(5, 1)
    pp = x.with_value(-1, 1)  # leg at distance 1 > xi
    qq = full2.triangle_vertex(pp, q)
    rep = holonomy_deviation(full2, x, q, pp, qq)
    assert not rep.precondition_ok
    with pytest.raises(ValueError, match="coincident plaque pair"):
        holonomy_deviation(full2, x, x, pp, qq)


def test_holonomy_on_toral_plaques(cat):
    rng = Random(19)
    vs, vu = cat.v_stable, cat.v_unstable
    scale = cat.xi / cat.lam**3
    for _ in range(200):
        p = (rng.random(), rng.random())
        t = scale * (0.25 + 0.75 * rng.random()) * rng.choice((-1, 1))
        s = cat.xi / 4.0 * (0.25 + 0.75 * rng.random()) * rng.choice((-1, 1))
        q = ((p[0] + t * vu[0]) % 1.0, (p[1] + t * vu[1]) % 1.0)
        pp = ((p[0] + s * vs[0]) % 1.0, (p[1] + s * vs[1]) % 1.0)
        qq = cat.triangle_vertex(pp, q)
        rep = holonomy_deviation(cat, p, q, pp, qq)
        assert rep.precondition_ok
        assert rep.m >= 3 and rep.in_range
        assert rep.observed <= 1e-12
        assert rep.within_bound


# ------------------------------------------ triangle and holonomy batches


def scalar_triangle(sys, x, y):
    """The per-pair triangle statistics, as a reference."""
    c0 = sys.dist(x, y)
    if c0 == 0.0:
        raise ValueError("coincident points give a degenerate triangle")
    if c0 > sys.xi / (2 * sys.lam):
        raise ValueError("pair above the triangle scale xi/(2 lam)")
    z = sys.triangle_vertex(x, y)
    a, b = sys.dist(x, z), sys.dist(z, y)
    if max(a, b) == 0.0:
        raise ValueError("degenerate triangle: both legs vanish")
    return TriangleReport(a=a, b=b, c0=c0, ratio=c0 / max(a, b))


def scalar_holonomy(sys, p, q, pp, qq):
    """The per-quadruple holonomy distortion, as a reference."""
    d, d_img = sys.dist(p, q), sys.dist(pp, qq)
    if d == 0.0 or d_img == 0.0:
        raise ValueError("coincident plaque pair")
    pre_ok = True
    a, b = p, q
    for _ in range(5):
        a, b = sys.apply_inv(a), sys.apply_inv(b)
        if sys.dist(a, b) > sys.xi:
            pre_ok = False
            break
    for leg in ((p, pp), (q, qq)):
        if sys.dist(*leg) > sys.xi:
            pre_ok = False
        a, b = leg
        for _ in range(5):
            a, b = sys.apply(a), sys.apply(b)
            if sys.dist(a, b) > sys.xi:
                pre_ok = False
                break
    big = max(d, d_img)
    m = int(math.floor(math.log(sys.xi / big) / math.log(sys.lam)))
    while sys.xi / sys.lam ** (m + 1) >= big:
        m += 1
    while sys.xi / sys.lam ** m < big:
        m -= 1
    observed = abs(d_img / d - 1.0)
    in_range = sys.lam ** (m - 1) > 2.0
    bound = 2.0 / (sys.lam ** (m - 1) - 2.0) if in_range else None
    return HolonomyReport(
        observed=observed, bound=bound, m=m, in_range=in_range,
        within_bound=(observed <= bound) if in_range else None,
        precondition_ok=pre_ok)


def first_error(run):
    with pytest.raises(Exception) as info:
        run()
    return type(info.value), str(info.value)


def triangle_inputs(full2, golden, cat):
    return [(golden, golden.sample_pairs(150, seed=2, levels=(3, 9))),
            (full2, full2.sample_pairs(150, seed=3, levels=(3, 9))),
            (cat, cat.sample_pairs(150, cat.xi / (4 * cat.lam), seed=4)),
            (RiggedWarp(full2), full2.sample_pairs(150, seed=5,
                                                   levels=(4, 9)))]


def test_triangle_batch_is_the_pair_loop(full2, golden, cat):
    for sys, pairs in triangle_inputs(full2, golden, cat):
        want = [scalar_triangle(sys, x, y) for x, y in pairs]
        assert _triangle_reports(sys, pairs) == want
        assert [triangle_ratio(sys, x, y) for x, y in pairs] == want
        buckets = {1.0: pairs[:70], 0.5: pairs[70:]}
        worst = [max(abs(r.ratio - 1.0) for r in want[:70]),
                 max(abs(r.ratio - 1.0) for r in want[70:])]
        assert triangle_curve(sys, buckets).max_deviation == worst


class LineDilation:
    """x -> lam x on the line with the distance |x - y|: every plaque
    distance is a chosen float, so one can sit on a scale threshold."""

    invertible = True
    lam, xi = 1.7, 0.3

    def apply(self, x):
        return self.lam * x

    def apply_inv(self, x):
        return x / self.lam

    def dist(self, x, y):
        return abs(y - x)


def threshold_quads(line):
    """Quadruples whose max(d, d_img) is a threshold xi/lam**k of the
    scale m, or the float next to it on either side, from either pair."""
    quads = []
    for k in range(-2, 40):
        t = line.xi / line.lam ** k
        for b in (t, math.nextafter(t, 0.0), math.nextafter(t, math.inf)):
            quads += [(0.0, b, 0.0, b), (0.0, b, 0.0, b / 3),
                      (0.0, b * 0.75, 0.0, b)]
    return quads


def holonomy_reports(sys, quads):
    """The `HolonomyReport` of every quadruple, from one column read."""
    return [HolonomyReport(*row)
            for row in zip(*_holonomy_columns(sys, quads))]


def test_holonomy_scale_threshold_belongs_to_the_lower_m():
    line = LineDilation()
    reps = holonomy_reports(line, threshold_quads(line))
    assert [r.m for r in reps[:9]] == [-2] * 6 + [-3] * 3
    assert [r.m for r in reps[9 * 30:9 * 31]] == [28] * 6 + [27] * 3


def holonomy_inputs(full2, golden, cat):
    line = LineDilation()
    x = full2.constant(0)
    q, pp = x.with_value(5, 1), x.with_value(-1, 1)
    # the precondition fails on a leg at distance 1 > xi, and on a
    # plaque pair that differs at -3, so leaves xi two steps backward
    bad = [(x, q, pp, full2.triangle_vertex(pp, q)),
           (x, x.with_value(-3, 1), x, x.with_value(-3, 1))]
    return [(line, threshold_quads(line)),
            (golden, cli._symbolic_holonomy_quads(golden, 150, 2)),
            (full2, list(cli._symbolic_holonomy_quads(full2, 150, 3)) + bad),
            (cat, cli._toral_holonomy_quads(cat, 150, 4,
                                            cat.xi / cat.lam ** 3)),
            (RiggedWarp(full2),
             list(cli._symbolic_holonomy_quads(full2, 150, 5)) + bad)]


def test_holonomy_columns_are_the_quadruple_reports(cat):
    rng = Random(11)
    for sys in (cat, cat_map(2.0), toral_new(((3, 1), (2, 1)))):
        quads = [quad for k in (3, 6) for quad in cli._toral_holonomy_quads(
            sys, 150, k, sys.xi / sys.lam ** k)]
        # random points: plaques and legs far above xi, out of range and
        # failing the precondition
        quads[100:100] = [tuple((rng.random(), rng.random())
                                for _ in range(4)) for _ in range(30)]
        reps = [holonomy_deviation(sys, *quad) for quad in quads]
        assert reps == [scalar_holonomy(sys, *quad) for quad in quads]
        assert list(zip(*_holonomy_columns(sys, quads))) == [
            tuple(r) for r in reps]
        assert {r.precondition_ok for r in reps} == {True, False}
        assert {r.in_range for r in reps} == {True, False}
        p, q, pp, qq = quads[7]
        quads[200] = (p, p, pp, qq)
        for run in (lambda: _holonomy_columns(sys, quads),
                    lambda: holonomy_deviation(sys, p, p, pp, qq)):
            assert first_error(run) == (ValueError, "coincident plaque pair")


def test_holonomy_batch_is_the_pair_loop(full2, golden, cat):
    for sys, quads in holonomy_inputs(full2, golden, cat):
        want = [scalar_holonomy(sys, *quad) for quad in quads]
        assert holonomy_reports(sys, quads) == want
        assert [holonomy_deviation(sys, *quad) for quad in quads] == want
    assert [r.precondition_ok for r in want[-2:]] == [False, False]


def test_the_first_bad_pair_raises_as_in_the_pair_loop(full2, golden, cat):
    good = list(full2.sample_pairs(6, seed=7, levels=(4, 9)))
    x = good[0][0]
    same, wide = (x, x), (x, x.with_value(2, 1 - x.at(2)))
    rigged = RiggedWarp(full2, broken=[good[3]], hubbed=[good[1]])
    # on the torus: a coincident pair, and a pair above xi/(2 lam) but
    # inside the bracket domain
    t_good = list(cat.sample_pairs(6, cat.xi / (4 * cat.lam), seed=7))
    t_same = (t_good[0][0], t_good[0][0])
    (t_wide,) = cat.sample_pairs(1, cat.xi * 0.9, seed=8)
    assert cat.xi / (2 * cat.lam) < cat.dist(*t_wide) < cat.xi
    cases = [
        (full2, good[:2] + [wide] + good[2:4] + [same]),
        (full2, good[:2] + [same, wide]),
        (rigged, good[2:5] + [same]),           # the broken vertex first
        (rigged, [same] + good[2:5]),           # the coincident pair first
        (rigged, good[:5]),                     # vanishing legs, then broken
        (cat, t_good[:2] + [t_wide] + t_good[2:4] + [t_same]),
        (cat, t_good[:3] + [t_same, t_wide] + t_good[3:]),
        (cat, [t_wide, t_same] + t_good),
        (cat, t_good + [t_same]),
    ]
    for sys, pairs in cases:
        want = first_error(lambda: [scalar_triangle(sys, *p) for p in pairs])
        assert first_error(lambda: _triangle_reports(sys, pairs)) == want
    assert [first_error(lambda: _triangle_reports(sys, pairs))[1]
            for sys, pairs in cases] == [
        "pair above the triangle scale xi/(2 lam)",
        "coincident points give a degenerate triangle",
        "no vertex",
        "coincident points give a degenerate triangle",
        "degenerate triangle: both legs vanish",
        "pair above the triangle scale xi/(2 lam)",
        "coincident points give a degenerate triangle",
        "pair above the triangle scale xi/(2 lam)",
        "coincident points give a degenerate triangle",
    ]

    quads = list(cli._symbolic_holonomy_quads(golden, 20, 1))
    p, q, pp, qq = quads[4]
    quads[4] = (p, p, pp, qq)
    quads[9] = (p, q, pp, pp)
    want = first_error(lambda: [scalar_holonomy(golden, *qd) for qd in quads])
    assert first_error(lambda: _holonomy_columns(golden, quads)) == want
    assert want == (ValueError, "coincident plaque pair")

