"""Hausdorff measures on stable and unstable windows, box product measures,
scaling, homogeneity, and the Parry comparison.

The cylinder DP is cross-checked against mass_brute below, a direct
recursion over the cylinder tree that shares no code with the library.
Golden-mean expected values follow from the stationary point of the DP:
g(0) = 1, g(1) = 1/phi, so window masses are Perron weights and box
conditionals reproduce the Parry transition probabilities.
"""

import itertools
import json
import math
import tracemalloc
from fractions import Fraction
from random import Random

import pytest

from selfsimilar.cli import parse_config, run
from selfsimilar.measure import (
    Box,
    StableWindow,
    UnstableWindow,
    _dp,
    _edge_at,
    box_measure,
    hausdorff_estimate,
    homogeneity_check,
    intrinsic_exponent,
    parry_compare,
    scaling_check,
    toral_measure_summary,
)
from selfsimilar.symbolic import (
    ShiftSystem,
    TransitionMatrix,
    _parry_data,
    count_words,
    full_shift,
    iter_words,
    sft_new,
)

PHI = (1.0 + math.sqrt(5.0)) / 2.0


def slack_brute(matrix, state):
    """Forced steps before the walk from state can branch; None if never."""
    seen, cur, k = {state}, state, 0
    while len(matrix.successors[cur]) == 1:
        cur = matrix.successors[cur][0]
        k += 1
        if cur in seen:
            return None
        seen.add(cur)
    return k


def mass_brute(matrix, lam, d, state, edge, depth):
    """Plain cylinder-tree recursion: min of own diameter^d and child sum."""
    k = slack_brute(matrix, state)
    diam = 0.0 if k is None else lam ** -(edge + k)
    if depth == 0:
        return diam**d
    kids = sum(
        mass_brute(matrix, lam, d, c, edge + 1, depth - 1)
        for c in matrix.successors[state]
    )
    return min(diam**d, kids)


def anchor_at(sys, state, edge):
    """A point whose coordinate `edge` carries the requested state."""
    return sys.point(sys.matrix.cycle_word(state)).shift(-edge)


# ------------------------------------------------------------------- windows


def test_window_at_scale_rounds_inward(full2):
    assert _edge_at(full2, 0.5) == 0
    assert _edge_at(full2, 0.3) == 1
    assert _edge_at(full2, 2.0**-5) == 4
    assert _edge_at(full2, 0.25) == 1


# ------------------------------------------------------------ window measures


def test_unit_window_mass_on_the_full_shift(full2):
    anchor = full2.constant(0)
    for depth in (1, 2, 5, 12):
        tree = hausdorff_estimate(full2, UnstableWindow(anchor, 0), 1.0, depth)
        assert tree.value == 1.0
        assert tree.drift == 0.0
        assert tree.converged
        assert tree.leaf_diameter == 2.0 ** -depth


def test_oversized_exponent_decays_geometrically(full2):
    # at d = 1.5 the depth-n estimate is 2**(-n/2): correct, and headed to 0
    anchor = full2.constant(0)
    tree = hausdorff_estimate(full2, UnstableWindow(anchor, 0), 1.5, depth=8)
    assert abs(tree.value - 2.0**-4) < 1e-15
    assert not tree.converged


def test_golden_window_masses_are_perron_weights(golden):
    d = intrinsic_exponent(golden)
    for state, want in ((0, 1.0), (1, 1.0 / PHI)):
        for cls in (UnstableWindow, StableWindow):
            anchor = anchor_at(golden, state, 0)
            tree = hausdorff_estimate(golden, cls(anchor, 0), d, depth=12)
            assert tree.value == pytest.approx(want, abs=1e-11)
            assert tree.converged
            assert 0.0 < tree.value < math.inf


def test_golden_window_mass_is_depth_stable(golden):
    d = intrinsic_exponent(golden)
    anchor = golden.constant(0)
    v10 = hausdorff_estimate(golden, UnstableWindow(anchor, 0), d, 10).value
    v14 = hausdorff_estimate(golden, UnstableWindow(anchor, 0), d, 14).value
    assert abs(v10 - v14) / v10 <= 0.03
    assert abs(v10 - v14) / v10 < 1e-9


def test_intrinsic_exponents(full2, golden, four, euclid):
    assert intrinsic_exponent(full2) == 1.0
    got = intrinsic_exponent(golden)
    assert got == pytest.approx(math.log(PHI) / math.log(2.0), rel=1e-11)
    with pytest.raises(ValueError, match="primitive"):
        intrinsic_exponent(four)
    with pytest.raises(ValueError, match="self-similar system"):
        intrinsic_exponent(euclid)


def test_estimate_validation(full2, four, cat):
    anchor = full2.constant(0)
    w = UnstableWindow(anchor, 0)
    for d in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError,
                           match="dimension exponent must be positive"):
            hausdorff_estimate(full2, w, d, 3)
    with pytest.raises(ValueError, match="depth must be at least 1"):
        hausdorff_estimate(full2, w, 1.0, depth=0)
    with pytest.raises(TypeError, match="window must be"):
        hausdorff_estimate(full2, (anchor, 0), 1.0)
    with pytest.raises(ValueError, match="toral measures are closed-form"):
        hausdorff_estimate(cat, w, 1.0)
    with pytest.raises(ValueError, match="primitive"):
        anchor4 = four.point(four.matrix.cycle_word(0))
        hausdorff_estimate(four, UnstableWindow(anchor4, 0), 1.0)


# -------------------------------------------------------- brute-force oracle


@pytest.mark.parametrize(
    "rows,d_list",
    [
        (((1, 1), (1, 1)), (1.0, 1.5)),
        (((1, 1), (1, 0)), (0.5, 0.6942419136303972, 1.0)),
        (((0, 1, 1), (1, 0, 1), (1, 1, 0)), (0.8, 1.0)),
    ],
)
def test_dp_matches_the_plain_recursion(rows, d_list):
    sys = sft_new(rows)
    for d in d_list:
        for edge in (0, 1, 3):
            for state in range(len(rows)):
                for depth in (1, 4, 7):
                    anchor = anchor_at(sys, state, edge)
                    tree = hausdorff_estimate(
                        sys, UnstableWindow(anchor, edge), d, depth
                    )
                    # the recursion's diameters carry the edge offset already
                    for got, k in ((tree.value, depth),
                                   (tree.value_deeper, depth + 2)):
                        want = mass_brute(sys.matrix, sys.lam, d, state,
                                          edge, k)
                        assert got == pytest.approx(want, rel=1e-12,
                                                    abs=1e-300)


def test_stable_side_uses_the_transposed_matrix():
    # one-way table: 0 can enter the 1 <-> 2 loop but never return
    rows = ((1, 1, 0), (0, 0, 1), (1, 1, 0))
    sys = sft_new(rows)
    anchor = sys.point(sys.matrix.cycle_word(1)).shift(2)  # at(-2) == 1
    tree = hausdorff_estimate(sys, StableWindow(anchor, 2), 1.0, depth=6)
    want = mass_brute(sys.matrix.transpose(), sys.lam, 1.0, 1, 2, 6)
    assert tree.value == pytest.approx(want, rel=1e-12)
    want = mass_brute(sys.matrix.transpose(), sys.lam, 1.0, 1, 2, 8)
    assert tree.value_deeper == pytest.approx(want, rel=1e-12)


# ------------------------------------------------------------------- scaling


def test_scaling_is_exact_on_the_full_shift(full2):
    anchor = full2.constant(0)
    rep = scaling_check(full2, UnstableWindow(anchor, 3))
    assert rep.side == "unstable"
    assert rep.ratio == 2.0 and rep.expected == 2.0
    assert rep.rel_gap == 0.0
    rep = scaling_check(full2, StableWindow(anchor, 3))
    assert rep.side == "stable"
    assert rep.ratio == 0.5 and rep.expected == 0.5
    assert rep.rel_gap == 0.0


def test_scaling_on_the_golden_mean(golden):
    d = intrinsic_exponent(golden)
    anchor = golden.constant(0)
    for window in (UnstableWindow(anchor, 3), StableWindow(anchor, 3)):
        rep = scaling_check(golden, window)
        assert rep.rel_gap < 1e-11
        assert rep.expected == pytest.approx(
            golden.lam**d if rep.side == "unstable" else golden.lam**-d,
            rel=1e-12,
        )


# --------------------------------------------------------------------- boxes


def test_box_measure_on_the_full_shift(full2):
    bm = box_measure(full2, Box((0, 0, 0), -1))
    assert (bm.stable, bm.unstable, bm.product) == (0.5, 0.5, 0.25)
    assert bm.admissible


def test_box_measure_on_the_golden_mean(golden):
    bm = box_measure(golden, Box((0, 0, 0), -1))
    assert bm.stable == pytest.approx(1.0 / PHI, abs=1e-11)
    assert bm.unstable == pytest.approx(1.0 / PHI, abs=1e-11)
    assert bm.product == pytest.approx(PHI**-2, abs=1e-11)


def test_unstable_factor_does_not_see_the_plaque_past(golden):
    # the window measure reads only the edge state: re-anchoring a box's
    # word behind each of its predecessors leaves the unstable factor
    sft3 = sft_new(((0, 1, 0), (0, 0, 1), (1, 1, 0)))
    for sys in (golden, sft3):
        d, A = intrinsic_exponent(sys), sys.matrix
        for word in (w for n in (1, 2, 3) for w in iter_words(A, n)):
            for start in range(1 - len(word), 1):
                box = Box(word, start)
                unstable = box_measure(sys, box).unstable
                for t in A.predecessors[word[0]]:
                    other = sys.point_through((t,) + word, start - 1)
                    window = UnstableWindow(other, box.end)
                    assert hausdorff_estimate(sys, window, d).value == unstable


def test_box_conditionals_are_parry_probabilities(golden):
    # extending the unstable word by one symbol multiplies the mass by the
    # Parry transition probability of the new edge
    u = lambda word: box_measure(golden, Box(word, 0)).unstable
    assert u((0, 0)) / u((0,)) == pytest.approx(1.0 / PHI, abs=1e-11)
    assert u((0, 1)) / u((0,)) == pytest.approx(PHI**-2, abs=1e-11)
    assert u((1, 0)) / u((1,)) == pytest.approx(1.0, abs=1e-11)
    ratio = box_measure(golden, Box((0, 0), 0)).product / box_measure(
        golden, Box((0, 1), 0)
    ).product
    assert ratio == pytest.approx(PHI, abs=1e-11)


def test_inadmissible_boxes_get_zero_mass(golden):
    bm = box_measure(golden, Box((0, 1, 1), -1))
    assert (bm.stable, bm.unstable, bm.product) == (0.0, 0.0, 0.0)
    assert not bm.admissible


def test_box_validation(golden, cat):
    with pytest.raises(TypeError, match="box must be a Box"):
        box_measure(golden, ((0, 0), -1))
    with pytest.raises(ValueError, match="span coordinate 0"):
        box_measure(golden, Box((0, 0), 1))
    with pytest.raises(ValueError, match="span coordinate 0"):
        box_measure(golden, Box((0, 0), -3))
    with pytest.raises(ValueError, match="out-of-range"):
        box_measure(golden, Box((0, 2), 0))
    with pytest.raises(ValueError, match="closed-form"):
        box_measure(cat, Box((0, 0), 0))


# --------------------------------------------------------------- homogeneity


def test_homogeneity_on_the_full_shift(full2):
    rng = Random(11)
    xs = [full2.constant(0), full2.constant(1)]
    xs += [full2.random_point(rng) for _ in range(8)]
    rep = homogeneity_check(full2, xs)
    assert rep.c_observed == 1.0
    assert rep.flat_ratio == 1.0
    assert rep.trend == 0.0


def test_homogeneity_constant_on_crafted_golden_points(golden):
    # one point pins the Perron-light symbol at both window edges for each n,
    # so every n sees the same extreme mass ratio: exactly flat at phi**2
    pts = [golden.constant(0)]
    for n in range(1, 11):
        word = (1,) + (0,) * (n + 1) + (1,)
        pts.append(golden.point((0,), word, (0,), -1))
    rep = homogeneity_check(golden, pts)
    assert rep.c_observed == pytest.approx(PHI**2, abs=1e-9)
    assert rep.flat_ratio <= 1.0 + 1e-9
    assert abs(rep.trend) < 1e-12
    assert math.isfinite(rep.c_observed)
    assert len(rep.rows) == 10


def test_homogeneity_on_random_golden_points(golden):
    rng = Random(13)
    xs = [golden.random_point(rng) for _ in range(20)]
    rep = homogeneity_check(golden, xs)
    # per-n ratios live in [1, phi^2], so the spread is bounded and there
    # is no growth trend; the sign of small trends is seed noise
    assert rep.flat_ratio <= PHI**2 * (1.0 + 1e-9)
    assert rep.trend <= 0.01
    assert 1.0 <= rep.c_observed <= PHI**2 * (1.0 + 1e-9)


def test_homogeneity_validation(golden, four, cat):
    with pytest.raises(ValueError, match="symbolic-only"):
        homogeneity_check(cat, [(0.1, 0.2)])
    with pytest.raises(ValueError, match="at least one base point"):
        homogeneity_check(golden, [])
    with pytest.raises(ValueError, match="primitive"):
        homogeneity_check(four, [four.point(four.matrix.cycle_word(0))])
    with pytest.raises(ValueError, match="DP depth must be nonnegative"):
        homogeneity_check(golden, [golden.constant(0)], depth=-1)
    rep = homogeneity_check(golden, [golden.constant(0)])
    assert [row["n"] for row in rep.rows] == list(range(1, 11))


# ---------------------------------------------------------- parry comparison


def test_box_masses_match_the_parry_measure(golden):
    rep = parry_compare(golden, 2)
    assert rep.max_rel_gap < 1e-9
    assert len(rep.rows) == count_words(golden.matrix, 5)
    assert sum(r[1] for r in rep.rows) == pytest.approx(1.0, rel=1e-9)
    assert sum(r[2] for r in rep.rows) == pytest.approx(1.0, rel=1e-9)
    assert 1.0 < rep.total_mass < 2.0
    for word, dp_mass, parry_mass, gap in rep.rows:
        assert len(word) == 5
        assert gap == pytest.approx(abs(dp_mass / parry_mass - 1.0), abs=1e-15)
        assert gap <= rep.max_rel_gap

    rep = parry_compare(golden, 8)
    assert rep.max_rel_gap < 1e-9
    assert len(rep.rows) == count_words(golden.matrix, 17)


def parry_steps(matrix, word):
    """Parry mass of an admissible word as the product of its steps:
    pi[word[0]] times v[b] / (rho v[a]) for each step a -> b."""
    rho, v, pi = _parry_data(matrix)
    mass = pi[word[0]]
    for a, b in zip(word, word[1:]):
        mass *= v[b] / (rho * v[a])
    return mass


def parry_reference(sys, depth, dp_depth=32):
    """Per-word scalar rows, total mass and worst gap of the comparison:
    every admissible word, its DP mass from the tables, the total as
    math.fsum (correctly rounded) and the Parry mass as the product of
    steps."""
    d = intrinsic_exponent(sys)
    g_u = _dp(sys.matrix, sys.lam, d, dp_depth)[0]
    g_s = _dp(sys.matrix.transpose(), sys.lam, d, dp_depth)[0]
    scale = sys.lam ** (-2 * depth * d)
    words = list(iter_words(sys.matrix, 2 * depth + 1))
    masses = [scale * g_s[w[0]] * g_u[w[-1]] for w in words]
    total = math.fsum(masses)
    rows, worst = [], 0.0
    for w, m in zip(words, masses):
        p = parry_steps(sys.matrix, w)
        gap = abs(m / total - p) / p
        worst = max(worst, gap)
        rows.append((w, m / total, p, gap))
    return rows, total, worst


def assert_rows_match(got, want):
    """Word and DP mass equal; Parry mass to 1e-14 relative (the class
    formula telescopes the reference's product of steps); gap to 1e-14."""
    assert len(got) == len(want)
    for (w, dp, parry, gap), (w0, dp0, parry0, gap0) in zip(got, want):
        assert w == w0 and dp == dp0
        assert abs(parry - parry0) <= 1e-14 * parry0, (w, parry, parry0)
        assert abs(gap - gap0) <= 1e-14, (w, gap, gap0)


def test_parry_comparison_equals_the_scalar_formulas(golden):
    cases = [(golden, depth) for depth in range(7)] + [
        (full_shift(3), 3), (full_shift(3), 5),
        (sft_new([[0, 1, 0], [0, 0, 1], [1, 1, 0]]), 3),
        (sft_new([[0, 1, 0, 0], [0, 0, 1, 1], [1, 1, 0, 0], [1, 0, 0, 0]]),
         3),
    ]
    for sys, depth in cases:
        rep = parry_compare(sys, depth)
        rows, total, worst = parry_reference(sys, depth)
        assert rep.total_mass == total
        assert_rows_match(list(rep.rows), rows)
        assert rep.max_rel_gap == pytest.approx(worst, rel=0, abs=1e-14)
        assert type(rep.max_rel_gap) is float
        word, dp_mass, parry_mass, gap = next(iter(rep.rows))
        assert all(type(s) is int for s in word)
        assert all(type(v) is float for v in (dp_mass, parry_mass, gap))


def primitive_matrices(n):
    """Every primitive 0/1 matrix with n states."""
    for bits in itertools.product((0, 1), repeat=n * n):
        try:
            matrix = TransitionMatrix([bits[i * n:i * n + n]
                                       for i in range(n)])
        except ValueError:  # a zero row or column
            continue
        if matrix.primitive:
            yield matrix


def test_parry_total_is_the_exact_class_sum_rounded_once():
    # the class masses as parry_compare forms them, summed as Fractions;
    # one state is primitive only as [[1]], which has no entropy
    seen = 0
    for matrix in (m for n in (2, 3) for m in primitive_matrices(n)):
        sys, n = ShiftSystem(matrix), matrix.n
        d = intrinsic_exponent(sys)
        g_u = _dp(matrix, sys.lam, d, 32)[0]
        g_s = _dp(matrix.transpose(), sys.lam, d, 32)[0]
        power = [[int(a == b) for b in range(n)] for a in range(n)]
        for depth in range(13):
            scale = sys.lam ** (-2 * depth * d)
            exact = sum(Fraction(scale * g_s[a] * g_u[b]) * power[a][b]
                        for a in range(n) for b in range(n))
            total = parry_compare(sys, depth).total_mass
            assert total.hex() == float(exact).hex(), (matrix, depth)
            for _ in range(2):  # A**(2 * depth) counts the class words
                power = [[sum(row[c] * matrix.rows[c][b] for c in range(n))
                          for b in range(n)] for row in power]
        seen += 1
    assert seen == 142
    with pytest.raises(ValueError, match="exponent must be positive"):
        parry_compare(sft_new([[1]]), 0)


def test_parry_comparison_at_depth_6_on_the_full_3_shift():
    rep = parry_compare(full_shift(3), 6)
    assert len(rep.rows) == 3**13
    assert rep.max_rel_gap <= 1e-9


def test_parry_comparison_at_depth_12_is_memory_flat():
    # 3**25 words: the class table holds them all
    tracemalloc.start()
    try:
        rep = parry_compare(full_shift(3), 12)
        first = next(iter(rep.rows))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(rep.rows) == 3**25
    word, dp_mass, parry_mass, gap = first
    assert word == (0,) * 25
    assert dp_mass == pytest.approx(3.0**-25, rel=1e-14)
    assert parry_mass == pytest.approx(3.0**-25, rel=1e-14)
    assert rep.max_rel_gap <= 1e-9
    assert peak < 1 << 20


def test_parry_rows_are_sized_and_in_word_order(golden):
    rows = parry_compare(golden, 3).rows
    assert len(rows) == 34
    assert [r[0] for r in rows] == list(iter_words(golden.matrix, 7))


def test_dp_cache_is_bounded(golden):
    for i in range(100):
        _dp(golden.matrix, golden.lam, 0.5 + i / 1000, 12)
    assert _dp.cache_info().currsize <= 32
    assert _dp.cache_info().maxsize == 32


def test_dp_stops_at_a_fixed_table(golden, monkeypatch):
    # the golden-mean leaf table is a fixed point of the step, so depth
    # 10**6 takes one step to see the repeat, then the two of the deeper
    # table: each step takes one min per state
    d, dp = intrinsic_exponent(golden), _dp.__wrapped__
    calls = []

    def counted(*args):
        calls.append(1)
        return min(*args)

    monkeypatch.setattr("selfsimilar.measure.min", counted, raising=False)
    for matrix in (golden.matrix, golden.matrix.transpose()):
        want = dp(matrix, golden.lam, d, 12)
        calls.clear()
        assert dp(matrix, golden.lam, d, 10**6) == want
        assert len(calls) == 3 * matrix.n


def measure_peak(depth):
    """Tracemalloc peak of a golden-mean `measure` run at this depth,
    its DP tables computed afresh."""
    cfg = parse_config(json.dumps({"system": "golden-mean",
                                   "command": "measure", "depth": depth}))
    _dp.cache_clear()
    tracemalloc.start()
    try:
        rep = run(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep["results"]["measure"]["passed"]
    return peak


def test_measure_memory_is_flat_in_the_depth():
    # the DP holds its running table, not every table down to the depth
    measure_peak(12)  # loads the modules the run imports
    assert measure_peak(100_000) - measure_peak(12) <= 1 << 20


def test_parry_comparison_validation(golden, four, cat):
    with pytest.raises(ValueError, match="symbolic-only"):
        parry_compare(cat, 2)
    with pytest.raises(ValueError, match="primitive"):
        parry_compare(four, 2)
    with pytest.raises(ValueError, match="depth must be nonnegative"):
        parry_compare(golden, -1)
    with pytest.raises(ValueError, match="exponent must be positive"):
        parry_compare(full_shift(1), 2)


def test_a_depth_that_is_not_an_int_is_rejected_first(golden, monkeypatch):
    d = intrinsic_exponent(golden)
    w = UnstableWindow(golden.constant(0), 0)
    calls = [lambda depth: hausdorff_estimate(golden, w, d, depth),
             lambda depth: scaling_check(golden, w, depth),
             lambda depth: homogeneity_check(golden, [golden.constant(0)],
                                             depth),
             lambda depth: parry_compare(golden, depth)]
    # no DP table is built and no exponent computed before the check
    monkeypatch.setattr("selfsimilar.measure._dp", None)
    monkeypatch.setattr("selfsimilar.measure.intrinsic_exponent", None)
    for call in calls:
        for depth in (1.5, 2.5, 3.0, math.nan, math.inf, True, "3", None):
            with pytest.raises(ValueError, match="depth must be an integer"):
                call(depth)


# ------------------------------------------------------------- toral measure


def test_toral_measure_summary(cat):
    s = toral_measure_summary(cat)
    assert s["d"] == pytest.approx(1.0, rel=1e-12)
    assert s["exponent_product"] == pytest.approx(1.0, rel=1e-12)
    assert s["scaling_gap"] <= 1e-12
    assert s["plaque_u_length"] == pytest.approx(2.0 * cat.xi, rel=1e-12)
    assert s["image_u_length"] == pytest.approx(
        s["plaque_u_length"] * cat.eig_unstable, rel=1e-12
    )
    assert s["scaling_ratio"] == pytest.approx(cat.lam, rel=1e-12)


def test_toral_measure_summary_off_the_adapted_rate():
    from selfsimilar.torus import cat_map

    sys = cat_map(lam=1.8)
    s = toral_measure_summary(sys)
    d = s["d"]
    assert d == pytest.approx(math.log(PHI**2) / math.log(1.8), rel=1e-12)
    assert s["exponent_product"] == pytest.approx(1.0, rel=1e-12)
    assert s["scaling_gap"] <= 1e-12
    assert s["scaling_expected"] == pytest.approx(1.8**d, rel=1e-12)
