"""Covering counts, capacity fits, entropy, the capacity = ent/log(lam)
identity, and local entropy estimates.

Symbolic covering counts are exact integers (powers of two, Fibonacci), so
most assertions here are equalities.  Sampled toral numbers carry their
documented transients: the golden-mean entropy slope sits about 1e-6 off
the closed form because short words still feel the second eigenvalue, and
the four-symbol table is reducible, which costs a few percent.
"""

import itertools
import math
import tracemalloc
from random import Random

import numpy as np
import pytest

from selfsimilar import dimension
from selfsimilar.dimension import (
    _greedy,
    _stencil,
    _toral_grid,
    capacity,
    check_fundamental,
    cov_eps,
    cov_identity_check,
    default_scales,
    entropy,
    local_entropy_homogeneity,
    local_unstable_entropy,
)
from selfsimilar.symbolic import count_words, exact_cov, full_shift, sft_new
from selfsimilar.torus import cat_map, toral_new

PHI = (1.0 + math.sqrt(5.0)) / 2.0
LOG2 = math.log(2.0)


# ------------------------------------------------------------ covering counts,


def test_symbolic_covering_counts_are_exact(full2, golden):
    e = cov_eps(full2, 0.25)
    assert (e.lower, e.upper, e.exact) == (128, 128, True)
    assert e.method == "exact-symbolic"
    assert e.value == 128
    assert cov_eps(golden, golden.xi).lower == 13
    assert cov_eps(golden, 0.125).lower == 89
    assert cov_eps(golden, 2.0 ** -10).lower == count_words(golden.matrix, 23)
    assert cov_eps(full2, 3.0).lower == 1
    for eps in (0.0, math.nan):
        for s in (full2, golden):
            with pytest.raises(ValueError, match="eps must be positive"):
                cov_eps(s, eps)
    assert cov_eps(golden, math.inf).lower == 1


def test_dynamical_covering_counts(full2):
    # refining by k forward steps multiplies the count by lam**k per side
    for k in range(0, 5):
        assert cov_eps(full2, full2.xi, k=k).lower == 2 ** (2 * k + 5)


def test_symbolic_counts_are_minimal_window_word_counts(full2, golden, four):
    # sets of diameter < eps are the central (2m+1)-cylinders with m the
    # least integer such that lam**-m < eps
    for s in (full2, golden, four):
        for eps in default_scales(s):
            m = next(m for m in itertools.count() if s.lam ** -m < eps)
            n = count_words(s.matrix, 2 * m + 1)
            assert cov_eps(s, eps).lower == exact_cov(s, eps) == n


def test_toral_covering_brackets(cat):
    e = cov_eps(cat, 0.1)
    assert e.method == "greedy-upper/packing-lower"
    assert not e.exact
    assert (e.lower, e.upper) == (20, 118)
    assert e.value == pytest.approx(math.sqrt(20.0 * 118.0), rel=1e-12)
    finer = cov_eps(cat, 0.05)
    assert finer.lower >= e.lower and finer.upper >= e.upper
    pinned = [(6, 54), (14, 96), (35, 205), (63, 384), (122, 782),
              (266, 1585), (522, 3174), (1053, 6305)]
    got = [cov_eps(cat, eps) for eps in default_scales(cat)]
    assert [(c.lower, c.upper) for c in got] == pinned
    e = cov_eps(cat, cat.xi, k=1)
    assert (e.lower, e.upper) == (580, 3456)
    for eps in (0.0, math.nan):
        with pytest.raises(ValueError, match="eps must be positive"):
            cov_eps(cat, eps)
    e = cov_eps(cat, math.inf)
    assert (e.lower, e.upper) == (1, 1)


# the per-point greedy loops that the row kernel replaced, as references

def loop_cover(n, sa, sb):
    covered = np.zeros((n, n), dtype=bool)
    upper = 0
    for i in range(n):
        rows = (i + sa) % n
        for j in range(n):
            if not covered[i, j]:
                upper += 1
                covered[rows, (j + sb) % n] = True
    return upper


def loop_packing(n, sa, sb):
    kept = np.zeros((n, n), dtype=bool)
    lower = 0
    for i in range(n):
        rows = (i + sa) % n
        for j in range(n):
            if not kept[rows, (j + sb) % n].any():
                kept[i, j] = True
                lower += 1
    return lower


def loop_counts(sys, eps, k):
    """(lower, upper) of `cov_eps` as the per-point loops count them."""
    growth = sys.lam ** k
    n, delta = _toral_grid(sys, eps / (4 * growth))
    upper = loop_cover(n, *_stencil(sys, n, eps - delta * growth, k))
    return loop_packing(n, *_stencil(sys, n, 2 * eps, k)), upper


def greedy_cases():
    """(system, eps, k): the default scales and the radii of
    `cov_identity_check` at k <= 1 on four matrices (k = 2 too on the
    determinant -1 one), and two coarse grids whose packing stencil
    wraps onto its own row."""
    cases = []
    for matrix in (((2, 1), (1, 1)), ((3, 1), (2, 1)), ((1, 1), (1, 0)),
                   ((3, 2), (1, 1))):
        sys = toral_new(matrix)
        ks = (0, 1, 2) if sys.det == -1 else (0, 1)
        cases += [(sys, eps, 0) for eps in default_scales(sys)]
        cases += [(sys, sys.xi, k) for k in ks]
        cases += [(sys, sys.xi * sys.lam ** -k * (1 - 1e-12), 0) for k in ks]
    cat = cases[0][0]
    return cases + [(cat, 0.4, 0), (cat, 0.6, 0)]


def test_greedy_counts_are_the_per_point_loops():
    cases = greedy_cases()
    assert len(cases) == 52
    for sys, eps, k in cases:
        got = cov_eps(sys, eps, k)
        assert (got.lower, got.upper) == loop_counts(sys, eps, k)
    # the last two packing stencils reach a point's own row mod n
    for sys, eps, _ in cases[-2:]:
        n, _ = _toral_grid(sys, eps / 4)
        a, _ = _stencil(sys, n, 2 * eps, 0)
        assert ((a % n == 0) & (a != 0)).any()


def test_greedy_kernel_on_wrapping_stencils():
    # random, asymmetric stencils, many of them wider than the grid, so
    # that a pick marks its own row through the wrap
    rng = Random(31)
    for _ in range(200):
        n = rng.randrange(1, 9)
        size = rng.randrange(1, 12)
        sa = np.array([rng.randrange(-2 * n, 2 * n + 1) for _ in range(size)])
        sb = np.array([rng.randrange(-2 * n, 2 * n + 1) for _ in range(size)])
        assert _greedy(n, sa, sb) == loop_cover(n, sa, sb)
        assert _greedy(n, -sa, -sb) == loop_packing(n, sa, sb)


def test_greedy_kernel_on_stencil_rows_with_gaps():
    # each stencil row holds several runs of columns, some wrapping past
    # the grid's edge, at and off the origin's row; and a 1 x 1 grid
    rows = [(-2, (-3, -1, 0, 4, 5)), (0, (-4, -2, 0, 1, 2, 6)),
            (1, (-5, -4, -1, 3)), (3, (0, 2, 4, 6, 8))]
    sa, sb = (np.array(v) for v in zip(*[(a, b) for a, bs in rows
                                        for b in bs]))
    for n in (1, 2, 3, 5, 7, 9, 12, 16):
        assert _greedy(n, sa, sb) == loop_cover(n, sa, sb)
        assert _greedy(n, -sa, -sb) == loop_packing(n, sa, sb)
    one = np.array([0])
    assert _greedy(1, one, one) == loop_cover(1, one, one) == 1
    assert _greedy(1, one[:0], one[:0]) == loop_cover(1, one[:0], one[:0])


def test_a_cover_grid_past_the_memory_bound_fails_before_the_greedy(
        monkeypatch):
    # at lam = 1.5 the smallest default scale needs a grid of side
    # 453,698, about 24 GiB of row masks: the count refuses before any
    # stencil or greedy runs, and so does every capacity fit through it
    def ran(*args):
        raise AssertionError("a cover ran")

    monkeypatch.setattr(dimension, "_stencil", ran)
    monkeypatch.setattr(dimension, "_greedy", ran)
    sys = cat_map(1.5)
    with pytest.raises(ValueError, match="453698 x 453698 cover grid"):
        cov_eps(sys, 0.16 * 2**-3.5)
    with pytest.raises(ValueError, match="above the 64 MiB bound"):
        capacity(sys)


# ------------------------------------------------------------------- capacity


def test_capacity_of_the_full_shift(full2):
    fit = capacity(full2)
    assert fit.slope == pytest.approx(2.0, rel=1e-12)
    assert fit.residual < 1e-12
    assert len(fit.scales) == len(fit.counts) == 11
    assert fit.method == "exact-symbolic"


def test_capacity_of_the_golden_mean(golden):
    fit = capacity(golden)
    assert fit.slope == pytest.approx(2.0 * math.log(PHI) / LOG2, rel=1e-8)


def test_capacity_is_lam_invariant():
    # same space, steeper metric: capacity scales so cap * log(lam) is fixed
    fit = capacity(full_shift(2, lam=4.0))
    assert fit.slope == pytest.approx(1.0, rel=1e-9)
    assert fit.slope * math.log(4.0) == pytest.approx(2.0 * LOG2, rel=1e-9)


def test_default_scales(full2, cat):
    assert default_scales(full2) == [2.0**-j for j in range(4, 15)]
    toral = default_scales(cat)
    assert len(toral) == 8
    assert toral[0] == pytest.approx(0.16)
    assert all(a > b for a, b in zip(toral, toral[1:]))


# -------------------------------------------------------------------- entropy


def test_entropy_of_the_full_shift(full2):
    er = entropy(full2)
    assert er.ent == pytest.approx(2.0 * LOG2, rel=1e-12)
    assert er.standard == pytest.approx(LOG2, rel=1e-12)
    assert er.ent_plus == er.ent_minus  # transposed counts are identical
    assert er.gap_two_sided < 1e-12
    assert len(er.rows) == 11
    assert er.method == "exact-symbolic"


def test_entropy_of_the_golden_mean(golden):
    er = entropy(golden)
    # short windows still feel the second eigenvalue, hence 1e-5 not 1e-12
    assert er.ent == pytest.approx(2.0 * math.log(PHI), rel=1e-5)
    assert er.ent_plus == er.ent_minus
    # one-sided windows carry a different transient than two-sided ones
    assert er.gap_two_sided < 1e-4


def test_entropy_of_a_reducible_table(four):
    # two growth-2 blocks in series give a polynomial factor that the
    # finite-window slope can only see to a few percent
    er = entropy(four)
    assert er.ent == pytest.approx(2.0 * LOG2, rel=0.10)
    assert er.gap_two_sided / er.ent < 0.05
    assert er.ent_plus == er.ent_minus


def test_entropy_of_the_cat_map(cat):
    er = entropy(cat)
    assert er.method == "su-box-bounds"
    assert er.ent == pytest.approx(2.0 * math.log(PHI**2), rel=1e-3)
    assert er.ent_plus == pytest.approx(er.ent_minus, rel=1e-12)


def plain_count(rows, length, start=None):
    """Admissible words of `length` (starting at `start`, if given) by
    integer matrix-vector products over the 0/1 rows."""
    n = len(rows)
    vec = [1] * n
    for _ in range(length - 1):
        vec = [sum(row[j] * vec[j] for j in range(n)) for row in rows]
    return sum(vec) if start is None else vec[start]


def test_entropy_rows_are_logs_of_exact_counts(golden, four):
    for sys in (golden, four):
        rows = sys.matrix.rows
        rows_t = sys.matrix.transpose().rows
        er = entropy(sys, n_max=20)
        assert [r["n"] for r in er.rows] == list(range(2, 21))
        for r in er.rows:
            n = r["n"]
            assert r["two_sided"] == math.log(plain_count(rows, 2 * n + 5))
            assert r["forward"] == math.log(plain_count(rows, n + 5))
            assert r["backward"] == math.log(plain_count(rows_t, n + 5))


def test_entropy_memory_grows_as_its_report(golden):
    """The walk logs each count as it reaches it and holds one count
    vector, so the traced peak grows as the report does, one row per n:
    per unit of n_max, the peak at 20,000 is within 2 times the peak at
    2,000.  Every exact count kept (the count of length k has about
    0.69 k bits) grew it as n_max**2, to 1.7 and 84 MB."""
    def peak(n_max):
        tracemalloc.start()
        try:
            entropy(golden, n_max=n_max)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(20)  # the modules load
    assert peak(20_000) / 20_000 <= 2 * peak(2_000) / 2_000


def test_entropy_validation(full2, euclid, refined_euclid, doubling):
    with pytest.raises(ValueError, match="n_max must be at least 4"):
        entropy(full2, n_max=3)
    with pytest.raises(ValueError, match="self-similar system"):
        entropy(euclid)
    # covers and entropies need a shift or a toral automorphism
    for run in (lambda: cov_eps(euclid, 0.01),
                lambda: cov_identity_check(euclid, k_max=1),
                lambda: cov_eps(refined_euclid, 0.01),
                lambda: capacity(refined_euclid),
                lambda: cov_eps(doubling, 0.01),
                lambda: local_unstable_entropy(euclid, (0.1, 0.2)),
                lambda: local_unstable_entropy(refined_euclid, (0.1, 0.2))):
        with pytest.raises(ValueError, match="needs a self-similar system"):
            run()


# -------------------------------------------------------- fundamental identity


def test_fundamental_identity_on_shift_spaces(full2, golden):
    rep = check_fundamental(full2)
    assert rep.rel_gap < 1e-12
    assert rep.capacity == pytest.approx(2.0, rel=1e-12)
    assert rep.rhs == pytest.approx(rep.ent / math.log(2.0), rel=1e-14)

    rep = check_fundamental(golden)
    assert rep.rel_gap < 1e-5
    assert rep.capacity == pytest.approx(2.0 * math.log(PHI) / LOG2, rel=1e-8)
    assert rep.capacity_fit.slope == rep.capacity
    assert rep.entropy_report.ent == rep.ent


# ----------------------------------------------------------- covering identity


def test_covering_identity_is_exact_on_shift_spaces(full2, golden):
    rows = cov_identity_check(full2, k_max=6)
    assert [r.k for r in rows] == list(range(7))
    assert all(r.consistent for r in rows)
    assert [r.lhs.lower for r in rows] == [2 ** (2 * k + 5) for k in range(7)]
    assert all(r.lhs.lower == r.rhs.lower for r in rows)
    assert all(r.lhs.exact and r.rhs.exact for r in rows)

    rows = cov_identity_check(golden, k_max=6)
    fib = [13, 34, 89, 233, 610, 1597, 4181]
    assert [r.lhs.lower for r in rows] == fib
    assert all(r.lhs.lower == r.rhs.lower for r in rows)
    assert all(r.consistent for r in rows)


def test_covering_identity_on_the_torus(cat):
    # sampled counts: both sides must agree as brackets, not integers
    rows = cov_identity_check(cat, k_max=1)
    assert len(rows) == 2
    for row in rows:
        assert row.consistent
        assert row.lhs.lower <= row.lhs.upper
        assert not row.lhs.exact


# -------------------------------------------------------------- local entropy


def test_local_entropy_on_the_full_shift(full2):
    le = local_unstable_entropy(full2, full2.constant(0))
    assert le.estimate == pytest.approx(LOG2, rel=1e-12)
    assert le.method == "forward-word-counts"


def test_local_entropy_on_the_golden_mean(golden):
    for s in (0, 1):
        anchor = golden.point(golden.matrix.cycle_word(s))
        le = local_unstable_entropy(golden, anchor)
        assert le.estimate == pytest.approx(math.log(PHI), rel=1e-3)


def test_local_entropy_rows_are_logs_of_exact_counts(golden, four):
    for sys, anchor in ((golden, golden.constant(0)),
                        (golden, golden.point((0, 1))),
                        (four, four.point(four.matrix.cycle_word(2)))):
        le = local_unstable_entropy(sys, anchor, n_max=24)
        state = anchor.at(0)
        assert le.rows == [
            (n, math.log(plain_count(sys.matrix.rows, n + 1, state)))
            for n in range(3, 25)]


def test_local_entropy_on_the_cat_map(cat):
    le = local_unstable_entropy(cat, (0.3, 0.7))
    assert le.method == "unstable-arc-growth"
    assert le.estimate == pytest.approx(math.log(PHI**2), rel=1e-3)


def test_local_entropy_needs_a_window(full2):
    with pytest.raises(ValueError, match="too small for a slope"):
        local_unstable_entropy(full2, full2.constant(0), n_max=3)


def test_homogeneity_estimates_are_the_per_point_fits(golden, cat):
    # one count walk serves every point, each taking its own state's fit
    sft3 = sft_new([[0, 1, 0], [0, 0, 1], [1, 1, 0]])
    rng = Random(5)
    for sys in (golden, sft3):
        xs = [sys.random_point(rng) for _ in range(12)]
        assert {x.at(0) for x in xs} == set(range(sys.matrix.n))
        want = [local_unstable_entropy(sys, x, 24).estimate for x in xs]
        assert len(set(want)) == sys.matrix.n
        assert local_entropy_homogeneity(sys, xs, 24).estimates == want
        assert local_entropy_homogeneity(sys, iter(xs), 24).estimates == want
    xs = [(0.3, 0.7), (0.1, 0.2)]
    want = [local_unstable_entropy(cat, x, 24).estimate for x in xs]
    assert local_entropy_homogeneity(cat, iter(xs), 24).estimates == want


@pytest.mark.parametrize("xs", [[], iter(())], ids=["list", "iterator"])
def test_local_entropy_homogeneity_needs_a_base_point(xs, golden, cat):
    # as `homogeneity_check` says it, not max()'s empty-sequence error
    for sys in (golden, cat):
        with pytest.raises(ValueError, match="^need at least one base point$"):
            local_entropy_homogeneity(sys, xs)


def test_local_entropy_is_homogeneous(full2, golden):
    rng = Random(3)
    xs = [golden.random_point(rng) for _ in range(10)]
    rep = local_entropy_homogeneity(golden, xs, n_max=16)
    assert rep.reference == pytest.approx(math.log(PHI), rel=1e-12)
    assert rep.max_rel_gap < 0.01
    assert rep.spread_rel < 0.01
    assert len(rep.estimates) == 10

    xs = [full2.random_point(rng) for _ in range(5)]
    rep = local_entropy_homogeneity(full2, xs, n_max=16)
    assert rep.spread_rel == 0.0  # every point counts the same words
