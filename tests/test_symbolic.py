"""Symbolic layer: bi-infinite sequences, transition matrices, word counts,
Perron data, and the Parry measure.

Expected values come from closed forms (Fibonacci counts, golden ratio
eigendata) or from tests/fixtures/golden_parry.json, which is generated by
exact arithmetic in Q(sqrt 5) and never touches library code.
"""

import json
import math
from collections import Counter
from fractions import Fraction
from itertools import product
from pathlib import Path
from random import Random

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from selfsimilar import cli
from selfsimilar._streams import Rows, below
from selfsimilar.core import _pair_values, _triangle_reports
from selfsimilar.measure import (
    Box,
    StableWindow,
    UnstableWindow,
    _dp,
    hausdorff_estimate,
    intrinsic_exponent,
)
from selfsimilar.symbolic import (
    ShiftSystem,
    TransitionMatrix,
    _parry_data,
    _count_vectors,
    _word_counts,
    _splice,
    agreement_level,
    bi_sequence,
    count_words,
    exact_cov,
    full_shift,
    golden_mean,
    iter_words,
    parry_measure,
    sft_new,
    spectral_radius,
)

PHI = (1.0 + math.sqrt(5.0)) / 2.0
FIXTURES = Path(__file__).parent / "fixtures"

sym = st.integers(min_value=0, max_value=2)
tails = st.lists(sym, min_size=1, max_size=4).map(tuple)
mids = st.lists(sym, min_size=0, max_size=6).map(tuple)


def raw_at(left, mid, right, start, i):
    """Value of the described sequence at i, straight from the definition."""
    end = start + len(mid)
    if i < start:
        return left[(i - start) % len(left)]
    if i < end:
        return mid[i - start]
    return right[(i - end) % len(right)]


# ---------------------------------------------------------------- sequences


def test_periodic_normal_form():
    a = bi_sequence((0, 1))
    b = bi_sequence((1, 0), (), (1, 0), 1)
    assert a == b
    assert a.start == 0 and a.mid == ()
    assert [a.at(i) for i in range(-3, 4)] == [1, 0, 1, 0, 1, 0, 1]


def test_window_symbols_absorb_into_the_tails():
    a = bi_sequence((0,), (0, 0, 1, 0, 0), (0,), -2)
    b = bi_sequence((0,), (1,), (0,), 0)
    assert a == b
    assert a.mid == (1,) and a.start == 0


def test_tail_validation():
    with pytest.raises(ValueError, match="tail words must be nonempty"):
        bi_sequence((), (0,), (0,))
    with pytest.raises(ValueError, match="nonnegative integers"):
        bi_sequence((0, -1))


@given(tails, mids, tails, st.integers(-5, 5))
def test_canonical_form_preserves_every_coordinate(left, mid, right, start):
    x = bi_sequence(left, mid, right, start)
    for i in range(start - 2 * len(left), start + len(mid) + 2 * len(right)):
        assert x.at(i) == raw_at(left, mid, right, start, i)


@given(tails, mids, tails, st.integers(-5, 5))
def test_canonical_form_is_a_fixed_point(left, mid, right, start):
    x = bi_sequence(left, mid, right, start)
    assert bi_sequence(x.left, x.mid, x.right, x.start) == x


@given(tails, mids, tails, st.integers(-3, 3), st.integers(1, 3), st.integers(1, 3))
def test_equal_sequences_compare_equal_whatever_the_presentation(
    left, mid, right, start, grow_left, grow_right
):
    x = bi_sequence(left, mid, right, start)
    # widen the explicit window and re-phase both tails to fit its new ends
    lo = start - grow_left
    hi = start + len(mid) + grow_right
    p, q = len(left), len(right)
    rolled_left = tuple(left[(r + lo - start) % p] for r in range(p))
    rolled_right = tuple(right[(r + hi - start - len(mid)) % q] for r in range(q))
    wide = tuple(raw_at(left, mid, right, start, i) for i in range(lo, hi))
    assert bi_sequence(rolled_left, wide, rolled_right, lo) == x


@given(tails, mids, tails, st.integers(-4, 4), st.integers(-4, 4))
def test_shift_moves_the_observation_point(left, mid, right, start, k):
    x = bi_sequence(left, mid, right, start)
    y = x.shift(k)
    for i in range(-6, 7):
        assert y.at(i) == x.at(i + k)
    assert y.shift(-k) == x
    assert y == bi_sequence(x.left, x.mid, x.right, x.start - k)


@given(tails, mids, tails, st.integers(-4, 4), st.integers(-6, 6), sym)
def test_with_value_touches_exactly_one_coordinate(left, mid, right, start, i, s):
    x = bi_sequence(left, mid, right, start)
    y = x.with_value(i, s)
    assert y.at(i) == s
    for j in range(i - 8, i + 9):
        if j != i:
            assert y.at(j) == x.at(j)
    if s == x.at(i):
        assert y == x


def test_with_value_checks_its_symbol():
    x = bi_sequence((0,), (1,), (0,), 0)
    for bad in (-1, 1.0, "1"):
        with pytest.raises(ValueError, match="nonnegative integers"):
            x.with_value(3, bad)


@given(tails, mids, tails, st.integers(-4, 4), tails, mids, tails,
       st.integers(-4, 4), st.integers(0, 3), st.lists(sym, max_size=8))
def test_trusted_splice_matches_the_checked_constructor(
    l1, m1, r1, s1, l2, m2, r2, s2, drop, extra
):
    past = bi_sequence(l1, m1, r1, s1)
    future = bi_sequence(l2, m2, r2, s2)
    lo = past.start - drop
    mid = tuple(extra) + (0,) * max(0, future.end - lo - len(extra))
    hi = lo + len(mid)
    left = past.window(lo - len(past.left), lo - 1)
    right = future.window(hi, hi + len(future.right) - 1)
    z = _splice(past, mid, future, lo)
    assert z == bi_sequence(left, mid, right, lo)
    for i in range(lo - 6, hi + 6):
        want = past.at(i) if i < lo else mid[i - lo] if i < hi else future.at(i)
        assert z.at(i) == want


def test_window_is_inclusive():
    x = bi_sequence((0,), (1, 2), (0,), 0)
    assert x.window(-1, 2) == (0, 1, 2, 0)
    assert x.window(0, 0) == (1,)


# --------------------------------------------------------- agreement level


def test_level_of_identical_points_is_infinite(full2):
    x = full2.constant(0)
    assert agreement_level(x, x) == math.inf
    assert full2.dist(x, x) == 0.0


@pytest.mark.parametrize("j", [1, 2, 5, 9])
def test_level_of_a_single_flip(full2, j):
    x = full2.constant(0)
    y = x.with_value(j, 1)
    assert agreement_level(x, y) == j - 1
    assert agreement_level(y, x) == j - 1
    assert full2.dist(x, y) == 2.0 ** -(j - 1)
    z = x.with_value(-j, 1)
    assert agreement_level(x, z) == j - 1


bits = st.integers(min_value=0, max_value=1)
bit_tails = st.lists(bits, min_size=1, max_size=4).map(tuple)
bit_mids = st.lists(bits, max_size=6).map(tuple)
presentations = st.one_of(
    st.tuples(bit_tails, bit_mids, bit_tails, st.integers(-5, 5)),
    bit_tails.map(lambda w: (w, (), w, 0)),  # globally periodic
)


@given(presentations, st.data())
@settings(max_examples=300)
def test_level_is_the_distance_to_the_nearest_mismatch(pa, data):
    """Against a plain scan of the raw presentations, far enough out
    that both sides have passed every window and a common tail period."""
    left, _, right, _ = pa
    pb = data.draw(st.one_of(
        presentations,
        # the same tails with another window: long and infinite agreements
        st.tuples(st.just(left), bit_mids, st.just(right),
                  st.integers(-5, 5)),
    ))
    reach = 1 + max(abs(v) for _, mid, _, start in (pa, pb)
                    for v in (start, start + len(mid)))
    reach += math.lcm(*(len(p[i]) for p in (pa, pb) for i in (0, 2)))
    mismatches = [abs(m) for m in range(-reach, reach + 1)
                  if raw_at(*pa, m) != raw_at(*pb, m)]
    expected = min(mismatches) - 1 if mismatches else math.inf
    a, b = bi_sequence(*pa), bi_sequence(*pb)
    assert agreement_level(a, b) == expected
    assert agreement_level(b, a) == expected


# presentations over 0..2 whose windows may sit far outside the batch's
# reach, so that some first mismatches lie beyond it
far = st.integers(-45, 45)
level_points = st.one_of(
    st.tuples(tails, mids, tails, far),
    tails.map(lambda w: (w, (), w, 0)),  # globally periodic
)


@st.composite
def level_pairs(draw):
    pairs = []
    for _ in range(draw(st.integers(1, 6))):
        pa = draw(level_points)
        pb = draw(st.one_of(
            level_points,
            # the same tails with another window, or the same point
            st.tuples(st.just(pa[0]), mids, st.just(pa[2]), far),
            st.just(pa),
        ))
        pairs.append((bi_sequence(*pa), bi_sequence(*pb)))
    return pairs


# reach of the level kernel's rows, [-W, W]: every step s below has |s| < W
W = 7


@settings(max_examples=300)
@given(level_pairs(), st.lists(st.integers(-6, 6), min_size=1, max_size=4,
                               unique=True))
@example([], [0, 3, -6])
def test_batch_levels_equal_the_scalar_scan(pairs, steps):
    """The row kernel against the scalar level of the points its rows
    spell.  The rows are each pair's window(-W, W) and four fixed pairs
    of constant-0 points: one differing at coordinate 0, which every scan
    finds; one differing only at -W and one only at W, of which at each
    step s != 0 one lies past the scanned columns (the scalar fallback);
    and an equal pair.  Where the scan finds the mismatch, the level is
    also the original pair's."""
    shift3 = full_shift(3)
    x = shift3.constant(0)
    pairs = pairs + [(x, x.with_value(0, 1)), (x, x.with_value(-W, 1)),
                     (x, x.with_value(W, 1)), (x, x)]
    rows = Rows((np.array([p[k].window(-W, W) for p in pairs], dtype=np.int8)
                 for k in (0, 1)), shift3._row_point)
    spelled = list(rows)
    batch = shift3._pair_levels(rows, steps)
    assert len(batch) == len(steps)
    kinds = set()
    for levels, s in zip(batch, steps):
        assert levels == [agreement_level(a.shift(s), b.shift(s))
                          for a, b in spelled]
        reach = W - abs(s)
        for level, (a, b) in zip(levels, pairs):
            if level < reach:
                assert level == agreement_level(a.shift(s), b.shift(s))
            kinds.add("equal" if level == math.inf
                      else "scanned" if level < reach else "past")
    assert kinds == ({"scanned", "past", "equal"} if any(steps)
                     else {"scanned", "equal"})


def test_batch_levels_past_the_window_and_of_equal_points(full2):
    """Pairs that are not sampled rows, and rows read at a step past
    their reach, are no batch's: `_pair_values` takes their scalar
    levels."""
    x = full2.constant(0)
    periodic = full2.point((0, 1))
    pairs = [(x, x), (x, x.with_value(40, 1)), (x, x.with_value(-3, 1)),
             (periodic, periodic.shift(1)), (periodic, x),
             (periodic, full2.point((1, 0)).shift(1))]
    assert full2._pair_levels(pairs, (0, 1, -1)) is None
    assert _pair_values(full2, pairs, (0, 1, -1), levels=True) == [
        [math.inf, 39, 2, -1, 0, math.inf],
        [math.inf, 38, 3, -1, -1, math.inf],
        [math.inf, 40, 1, -1, -1, math.inf],
    ]
    # rows over [-3, 3]: the second differs only at coordinate 3
    xs = np.zeros((2, 7), dtype=np.int8)
    ys = xs.copy()
    ys[1, 6] = 1
    rows = Rows((xs, ys), full2._row_point)
    assert full2._pair_levels(rows, (0, 3)) is None
    assert _pair_values(full2, rows, (0, 3), levels=True) == [
        [math.inf, 2], [math.inf, -1]]


def test_row_levels_past_the_scanned_columns(full2):
    """Rows over [-3, 3] read at step s scan |t| <= 3 - |s| around s: a
    difference only at coordinate 3 is out of reach at step -1, where
    the level comes from the built points."""
    xs = np.zeros((3, 7), dtype=np.int8)
    ys = xs.copy()
    ys[0, 6] = 1
    ys[1, 0] = 1
    pairs = Rows((xs, ys), full2._row_point)
    steps = (0, 1, -1, 2)
    assert full2._pair_levels(pairs, steps) == [
        [agreement_level(x.shift(s), y.shift(s)) for x, y in pairs]
        for s in steps]
    assert full2._pair_levels(pairs, (-1,)) == [[3, 1, math.inf]]


def test_disagreement_at_zero_caps_the_distance(full2):
    x = full2.constant(0)
    y = x.with_value(0, 1)
    assert agreement_level(x, y) == -1
    assert full2.dist(x, y) == full2.diameter == full2.lam


def test_levels_give_an_ultrametric(full2):
    rng = Random(5)
    for _ in range(200):
        x = full2.random_point(rng)
        y = x.with_value(rng.randint(-7, 7), rng.randrange(2))
        z = y.with_value(rng.randint(-7, 7), rng.randrange(2))
        assert full2.dist(x, z) <= max(full2.dist(x, y), full2.dist(y, z))


# -------------------------------------------------------- transition matrix


def test_matrix_rejects_malformed_tables():
    with pytest.raises(ValueError, match="square"):
        TransitionMatrix(((1, 1), (1,)))
    for rows in (((1, 2), (1, 0)), ((0.5, 1), (1, 1)), ((0.9, 1), (1, 1)),
                 ((math.inf, 1), (1, 1)), ((math.nan, 1), (1, 1))):
        with pytest.raises(ValueError, match="0 or 1"):
            TransitionMatrix(rows)
        with pytest.raises(ValueError, match="0 or 1"):
            sft_new(rows)
    # integral floats and bools are entries, as in a CLI config
    m = TransitionMatrix(((1.0, True), (1, 0.0)))
    assert m.rows == ((1, 1), (1, 0)) and type(m.rows[0][1]) is int
    with pytest.raises(ValueError, match="zero row"):
        TransitionMatrix(((1, 1), (0, 0)))
    with pytest.raises(ValueError, match="zero column"):
        TransitionMatrix(((1, 0), (1, 0)))
    with pytest.raises(ValueError, match="between 1 and 64"):
        TransitionMatrix(tuple((1,) * 65 for _ in range(65)))


def test_successor_and_predecessor_tables(golden, four):
    assert golden.matrix.successors == ((0, 1), (0,))
    assert golden.matrix.predecessors == ((0, 1), (0,))
    assert four.matrix.successors[2] == (2, 3)
    assert four.matrix.predecessors[0] == (0, 1)
    # computed once, then kept on the instance
    assert golden.matrix.successors is golden.matrix.successors
    assert "predecessors" in vars(golden.matrix)


def test_primitivity_classification(full2, golden, four):
    assert full2.matrix.primitive
    assert golden.matrix.primitive
    assert not four.matrix.primitive
    assert not TransitionMatrix(((0, 1), (1, 0))).primitive
    assert TransitionMatrix(((1,),)).primitive
    # the 4-cycle plus one chord is the slowest-mixing primitive shape
    wielandt = TransitionMatrix(
        ((0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (1, 1, 0, 0))
    )
    assert wielandt.primitive
    cycle4 = TransitionMatrix(
        ((0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (1, 0, 0, 0))
    )
    assert not cycle4.primitive


@st.composite
def small_matrices(draw, max_n=5):
    n = draw(st.integers(min_value=1, max_value=max_n))
    rows = [[draw(st.integers(0, 1)) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        if not any(rows[i]):
            rows[i][draw(st.integers(0, n - 1))] = 1
    for j in range(n):
        if not any(rows[i][j] for i in range(n)):
            rows[draw(st.integers(0, n - 1))][j] = 1
    return tuple(tuple(r) for r in rows)


def wielandt_reference(rows):
    """Whether A^((n-1)^2 + 1) is positive, by plain integer matrix
    products; once positive a power stays positive, as no row is zero."""
    n = len(rows)

    def matmul(a, b):
        return tuple(
            tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
            for i in range(n)
        )

    power = rows
    positive = all(v for r in power for v in r)
    for _ in range((n - 1) ** 2):
        if positive:
            break
        power = matmul(power, rows)
        positive = all(v for r in power for v in r)
    return positive


@given(small_matrices(max_n=6))
def test_primitivity_matches_plain_matrix_powers(rows):
    assert TransitionMatrix(rows).primitive == wielandt_reference(rows)


def every_matrix():
    """Every 0/1 matrix with no zero row or column, n <= 3."""
    for n in (1, 2, 3):
        for bits in product((0, 1), repeat=n * n):
            rows = tuple(bits[i * n:(i + 1) * n] for i in range(n))
            if all(map(any, rows)) and all(map(any, zip(*rows))):
                yield rows


def test_primitivity_on_every_matrix_up_to_three_states():
    seen = 0
    for rows in every_matrix():
        assert TransitionMatrix(rows).primitive == (
            wielandt_reference(rows)), rows
        seen += 1
    assert seen == 1 + 7 + 265


def test_shortest_cycles(golden, four):
    assert golden.matrix.cycle_word(0) == (0,)
    assert golden.matrix.cycle_word(1) == (1, 0)
    assert four.matrix.cycle_word(3) == (3,)
    line = TransitionMatrix(((0, 1), (1, 1)))
    assert line.cycle_word(0) == (0, 1)


def test_transpose(golden, four):
    assert golden.matrix.transpose() == golden.matrix
    t = four.matrix.transpose()
    assert t.rows == ((1, 1, 0, 0), (1, 1, 0, 0), (1, 1, 1, 1), (1, 1, 1, 1))
    assert t.transpose() == four.matrix


# ------------------------------------------------------------ word counting


def test_word_counts_follow_the_fibonacci_recursion(golden):
    fib = [1, 2]
    while len(fib) < 16:
        fib.append(fib[-1] + fib[-2])
    assert count_words(golden.matrix, 0) == 1
    for n in range(1, 16):
        assert count_words(golden.matrix, n) == fib[n]
    assert count_words(golden.matrix, 5) == 13
    assert count_words(golden.matrix, 11) == 233
    assert count_words(golden.matrix, 13) == 610


def test_a_matrix_and_its_transpose_count_the_same_words():
    # 1^T (A^T)^k 1 = 1^T A^k 1, so the backward entropy reads the forward
    # counts
    for rows in every_matrix():
        m = TransitionMatrix(rows)
        assert _word_counts(m, 12) == _word_counts(m.transpose(), 12), rows


def test_word_counts_on_the_full_shift(full2):
    for n in range(0, 12):
        assert count_words(full2.matrix, n) == 2**n
    with pytest.raises(ValueError, match="nonnegative"):
        count_words(full2.matrix, -1)


@given(small_matrices(), st.integers(0, 6))
@settings(max_examples=60)
def test_word_enumeration_matches_the_count(rows, length):
    m = TransitionMatrix(rows)
    words = list(iter_words(m, length))
    assert len(words) == count_words(m, length)
    assert words == sorted(words)
    assert len(set(words)) == len(words)
    if len(rows) ** length <= 4096:
        brute = [
            w
            for w in product(range(len(rows)), repeat=length)
            if all(rows[a][b] for a, b in zip(w, w[1:]))
        ]
        assert words == brute


def test_count_vectors_are_powers_of_the_matrix(golden, four):
    for m in (golden.matrix, four.matrix, full_shift(3).matrix):
        want = [1] * m.n
        for k, got in zip(range(20), _count_vectors(m)):
            assert got == want, k
            assert all(type(c) is int for c in got)
            want = [sum(row[j] * want[j] for j in range(m.n)) for row in m.rows]


# ------------------------------------------------------------- Perron data


def test_perron_data_for_the_standard_examples(full2, golden, four):
    rho, vec = spectral_radius(full2.matrix)
    assert abs(rho - 2.0) < 1e-12
    assert vec == (1.0, 1.0)

    rho, vec = spectral_radius(golden.matrix)
    assert abs(rho - PHI) < 1e-12
    assert max(vec) == 1.0 and min(vec) > 0.0
    assert vec[1] == pytest.approx(1.0 / PHI, rel=1e-10)
    for i, row in enumerate(golden.matrix.rows):
        image = sum(row[j] * vec[j] for j in range(2))
        assert image == pytest.approx(rho * vec[i], rel=1e-10)

    with pytest.raises(ValueError, match="primitive"):
        spectral_radius(four.matrix)


# ------------------------------------------------------------ Parry measure


def test_parry_masses_match_the_exact_field_arithmetic(golden):
    table = json.loads((FIXTURES / "golden_parry.json").read_text())
    by_length = {}
    for key, (a, b) in table.items():
        word = tuple(int(c) for c in key)
        exact = (Fraction(a), Fraction(b))
        by_length.setdefault(len(word), []).append(exact)
        want = float(exact[0]) + float(exact[1]) * math.sqrt(5.0)
        assert parry_measure(golden.matrix, word) == pytest.approx(want, rel=1e-9)
    assert set(by_length) == set(range(1, 14))
    for masses in by_length.values():
        total = (sum(m[0] for m in masses), sum(m[1] for m in masses))
        assert total == (Fraction(1), Fraction(0))


def test_parry_transition_probabilities(golden):
    m = golden.matrix
    p0 = parry_measure(m, (0,))
    p1 = parry_measure(m, (1,))
    assert parry_measure(m, (0, 0)) / p0 == pytest.approx(1.0 / PHI, rel=1e-11)
    assert parry_measure(m, (0, 1)) / p0 == pytest.approx(1.0 / PHI**2, rel=1e-11)
    assert parry_measure(m, (1, 0)) / p1 == pytest.approx(1.0, rel=1e-11)
    assert parry_measure(m, (1, 1)) == 0.0


def test_parry_extends_consistently(golden):
    m = golden.matrix
    assert parry_measure(m, ()) == 1.0
    for n in range(1, 7):
        for w in iter_words(m, n):
            base = parry_measure(m, w)
            left = sum(parry_measure(m, (s,) + w) for s in range(2))
            right = sum(parry_measure(m, w + (s,)) for s in range(2))
            assert left == pytest.approx(base, rel=1e-10)
            assert right == pytest.approx(base, rel=1e-10)
    with pytest.raises(ValueError, match="symbol out of range"):
        parry_measure(m, (0, 2))


def test_parry_on_the_full_shift_is_uniform(full2):
    for n in range(1, 9):
        for w in iter_words(full2.matrix, n):
            assert parry_measure(full2.matrix, w) == pytest.approx(
                2.0**-n, rel=1e-12
            )


# ------------------------------------------------------------ shift systems


def test_system_constants(full2, golden):
    assert full2.xi == 0.5
    assert full2.diameter == 2.0
    assert full2.invertible and full2.has_bracket
    assert golden.matrix.n == 2
    assert golden.space_kind == "symbolic"
    for lam in (1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="must exceed 1"):
            sft_new(((1, 1), (1, 1)), lam=lam)


def test_points_respect_the_transition_rule(golden):
    with pytest.raises(ValueError, match="forbidden transition"):
        golden.point((1,))
    with pytest.raises(ValueError, match="forbidden transition"):
        golden.point((0,), (1, 1), (0,))
    x = golden.point((0,), (1,), (0,))
    assert x.window(-2, 2) == (0, 0, 1, 0, 0)
    assert golden.admissible(x)
    with pytest.raises(ValueError, match="forbidden transition"):
        golden.point_through((0, 1, 1), 0)
    for bad in (lambda: golden.point_through((0, 5, 0), 0),
                lambda: golden.point_through((-1, 0), 0),
                lambda: golden.point((0,), (0, 2, 0)),
                lambda: golden.point((2,))):
        with pytest.raises(ValueError, match="symbol out of range"):
            bad()
    # 1 is on no cycle: an end there follows its first predecessor 0
    # (successor 2) to a cycle
    dead_end = sft_new(((1, 1, 0), (0, 0, 1), (0, 0, 1)))
    for word, start in (((1, 2), 0), ((1,), 0), ((0, 1), -1)):
        assert dead_end.point_through(word, start) == dead_end.point(
            (0,), (1,), (2,))


def test_every_short_word_lies_on_a_point():
    """Every admissible word of length 1 to 3, at starts -1 and 0, is
    the window of an admissible point, also where an end of the word
    lies on no cycle."""
    for rows in every_matrix():
        sys = sft_new(rows)
        for length in (1, 2, 3):
            for word in iter_words(sys.matrix, length):
                for start in (-1, 0):
                    x = sys.point_through(word, start)
                    assert sys.admissible(x)
                    assert x.window(start, start + length - 1) == word


def edge_admissible(sys, seq):
    """The transition rule read edge by edge, as a reference."""
    rows = sys.matrix.rows
    for w in (seq.left, seq.right):
        if not all(rows[a][b] for a, b in zip(w, w[1:] + w[:1])):
            return False
    chain = (seq.left[-1],) + seq.mid + (seq.right[0],)
    return all(rows[a][b] for a, b in zip(chain, chain[1:]))


THREE_STATE = (((0, 1, 0), (0, 0, 1), (1, 1, 0)),
               ((1, 1, 0), (0, 1, 1), (1, 0, 1)),
               ((1, 1, 1), (1, 0, 0), (0, 1, 1)))


@settings(max_examples=300)
@given(st.sampled_from(THREE_STATE), tails, mids, tails, st.integers(-3, 3))
def test_admissibility_is_the_edge_rule(rows, left, mid, right, start):
    sys = sft_new(rows)
    x = bi_sequence(left, mid, right, start)
    assert sys.admissible(x) == edge_admissible(sys, x)
    # `allows` on a word: whether the word is one of the admissible ones
    for w in (left, mid, right):
        assert sys.matrix.allows(w) == (w in set(iter_words(sys.matrix,
                                                            len(w))))


@pytest.mark.parametrize("rows", THREE_STATE)
def test_points_through_words_match_the_checked_constructor(rows):
    sys = sft_new(rows)
    A = sys.matrix
    for length in range(1, 6):
        for word in iter_words(A, length):
            head, tail = A.cycle_word(word[0]), A.cycle_word(word[-1])
            for start in (-4, 0, 3):
                assert sys.point_through(word, start) == bi_sequence(
                    head, word, tail[1:] + tail[:1], start)


def test_the_shift_dynamics(full2):
    rng = Random(1)
    x = full2.random_point(rng)
    y = full2.apply(x)
    for i in range(-5, 6):
        assert y.at(i) == x.at(i + 1)
    assert full2.apply_inv(y) == x


def test_bracket_splices_future_and_past(golden):
    rng = Random(7)
    spliced = 0
    for _ in range(60):
        x = golden.random_point(rng)
        y = golden.random_point(rng)
        if x.at(0) != y.at(0):
            with pytest.raises(ValueError, match="agreement at coordinate 0"):
                golden.bracket(x, y)
            continue
        z = golden.bracket(x, y)
        spliced += 1
        for i in range(0, 9):
            assert z.at(i) == x.at(i)
        for i in range(-8, 1):
            assert z.at(i) == y.at(i)
        assert golden.bracket(z, y) == z
        assert golden.bracket(x, z) == z
    assert spliced > 10
    x = golden.constant(0)
    assert golden.bracket(x, x) == x


def test_triangle_vertex_sits_on_the_two_plaques(golden):
    rng = Random(9)
    for _ in range(40):
        x = golden.random_point(rng)
        y = golden.random_point(rng)
        if x.at(0) != y.at(0):
            continue
        z = golden.triangle_vertex(x, y)
        # same past as x (unstable plaque), same future as y (stable plaque)
        for i in range(-8, 1):
            assert z.at(i) == x.at(i)
        for i in range(0, 9):
            assert z.at(i) == y.at(i)


def test_sampled_pairs_sit_at_exact_levels(full2, golden, four):
    for sys in (full2, golden, four):
        pairs = sys.sample_pairs(300, seed=3)
        assert len(pairs) == 300
        for x, y in pairs:
            lev = agreement_level(x, y)
            assert 1 <= lev <= 8
            assert 0.0 < sys.dist(x, y) <= sys.xi
            assert sys.admissible(x) and sys.admissible(y)
    assert list(full2.sample_pairs(5, seed=11)) == list(
        full2.sample_pairs(5, seed=11))
    assert list(full2.sample_pairs(5, seed=11)) != list(
        full2.sample_pairs(5, seed=12))
    with pytest.raises(ValueError, match="self-similar regime"):
        full2.sample_pairs(3, levels=(0, 4))


def test_sampler_rejects_bad_inputs_before_drawing(golden, full2):
    with pytest.raises(ValueError, match="word must be nonempty"):
        golden.point_through((), 0)
    for count in (0, 3):
        with pytest.raises(ValueError, match="levels"):
            full2.sample_pairs(count, levels=(5, 2))


def test_random_points_are_admissible(golden, four):
    for sys in (golden, four):
        rng = Random(2)
        for _ in range(60):
            assert sys.admissible(sys.random_point(rng))


# ---------------------------------------------------------- exact coverings


def test_exact_covering_counts(full2, golden):
    assert exact_cov(full2, 3.0) == 1
    assert exact_cov(full2, 2.0) == 2
    assert exact_cov(full2, 1.0) == 8
    assert exact_cov(full2, 0.25) == 128
    assert exact_cov(golden, golden.xi) == 13
    assert exact_cov(golden, 0.125) == 89
    with pytest.raises(ValueError, match="eps must be positive"):
        exact_cov(full2, 0.0)
    # at lam 1.0001, lam**-w < 1e-5 needs w near 115,000: past the cap
    with pytest.raises(ArithmeticError, match="eps too small for float"):
        exact_cov(sft_new(((1, 1), (1, 0)), lam=1.0001), 1e-5)


# --------------------------------------------------------- sampling stream

SAMPLER_MATRICES = (
    ((1, 1), (1, 1)),
    ((1, 1), (1, 0)),
    ((1, 1, 1, 1), (1, 1, 1, 1), (0, 0, 1, 1), (0, 0, 1, 1)),
    ((1, 1, 0), (0, 0, 1), (0, 0, 1)),  # state 1 lies on no cycle
    ((1, 1, 1), (1, 0, 0), (0, 1, 1)),
    ((0, 1, 0, 0), (0, 0, 1, 1), (1, 1, 0, 0), (1, 0, 0, 0)),
    ((1,) * 5,) * 5,
    # cycles {0, 1} -> 2 -> {3, 4} -> 5 -> {6, 7}: a walk from 3 or 4
    # can end at 2 going back and at 5 going forward, and both
    # extensions then pick among two states, so their order shows
    tuple(tuple(int(j in nxt) for j in range(8))
          for nxt in ((0, 1, 2), (0, 1, 2), (3, 4), (3, 4, 5), (3, 4, 5),
                      (6, 7), (6, 7), (6, 7))),
)


def reference_random_point(sys, rng, window=6):
    """The sampler as it was written with `Random.choice` draws and a
    breadth-first cycle search per end."""
    A = sys.matrix
    s = rng.randrange(A.n)
    fwd = [s]
    for _ in range(window):
        fwd.append(rng.choice(A.successors[fwd[-1]]))
    back = [s]
    for _ in range(window):
        back.append(rng.choice(A.predecessors[back[-1]]))
    guard = A.n + 1
    while A.cycle_word(back[-1]) is None and guard:
        back.append(rng.choice(A.predecessors[back[-1]]))
        guard -= 1
    guard = A.n + 1
    while A.cycle_word(fwd[-1]) is None and guard:
        fwd.append(rng.choice(A.successors[fwd[-1]]))
        guard -= 1
    word = tuple(reversed(back[1:])) + tuple(fwd)
    head, tail = A.cycle_word(word[0]), A.cycle_word(word[-1])
    return bi_sequence(head, word, tail[1:] + tail[:1], 1 - len(back))


@pytest.mark.parametrize("rows", SAMPLER_MATRICES)
def test_random_points_follow_the_choice_stream(rows):
    sys = sft_new(rows)
    for seed in range(4):
        rng, ref = Random(seed), Random(seed)
        for window in range(18):
            assert sys.random_point(rng, window) == reference_random_point(
                sys, ref, window)
            assert rng.getstate() == ref.getstate()


class QueuedWords:
    """Stub rng whose `randbytes` serves one queued list of 32-bit words
    per call, recording how many bytes each call asked for."""

    def __init__(self, *rounds):
        self.rounds, self.asked = list(rounds), []

    def randbytes(self, n):
        self.asked.append(n)
        return np.array(self.rounds.pop(0), "<u4").tobytes()


def test_below_redraws_the_rejected_words():
    # a word is rejected at or above (1 << 32) - (1 << 32) % c: for c = 3
    # and 7 that is only the top 1 and 4 words, for c = 3 << 30 it is c
    # itself, and c = 1 takes no word
    big = 3 << 30
    counts = np.array([3, big, 7, big, 1], dtype=np.int64)
    top = (1 << 32) - 1
    rng = QueuedWords([top, big + 5, 10, top],  # rows 0, 1, 3 rejected
                      [7, top - 1, 4],  # row 1 again
                      [big - 1])
    got = below(rng, counts)
    assert rng.asked == [16, 12, 4] and not rng.rounds
    assert got.tolist() == [7 % 3, big - 1, 10 % 7, 4, 0]


def check_sampled_pairs(sys, pairs, count, levels):
    """Rows are walks on the matrix, every built pair sits at a level
    in `levels`, and the batch levels at steps 0 and +-1 are the scalar
    ones of the built points."""
    edges = np.array(sys.matrix.rows, dtype=bool)
    assert len(pairs) == count
    for rows in pairs.cols:
        assert edges[rows[:, :-1], rows[:, 1:]].all()
    built = list(pairs)
    for x, y in built:
        assert sys.admissible(x) and sys.admissible(y)
        assert levels[0] <= agreement_level(x, y) <= levels[1]
    steps = (0, 1, -1)
    for got, s in zip(sys._pair_levels(pairs, steps), steps):
        assert got == [agreement_level(x.shift(s), y.shift(s))
                       for x, y in built]


@st.composite
def primitive_rows(draw):
    n = draw(st.integers(2, 4))
    rows = draw(st.lists(st.lists(bits, min_size=n, max_size=n),
                         min_size=n, max_size=n))
    assume(all(any(r) for r in rows) and all(any(c) for c in zip(*rows)))
    assume(TransitionMatrix(rows).primitive)
    return rows


@settings(max_examples=80, deadline=None)
@given(primitive_rows(), st.integers(0, 2**32 - 1), st.integers(0, 40),
       st.integers(1, 6), st.integers(0, 5))
def test_batch_sampler_draws_pairs_at_their_levels(rows, seed, count, lo,
                                                   span):
    sys = sft_new(rows)
    levels = (lo, lo + span)
    check_sampled_pairs(sys, sys.sample_pairs(count, seed, levels), count,
                        levels)


@pytest.mark.parametrize("rows", SAMPLER_MATRICES)
def test_tail_redraws_give_admissible_pairs_and_quadruples(rows):
    """Also on matrices with states on no cycle, where a row's ends
    follow first successors (predecessors) into a cycle."""
    sys = sft_new(rows)
    for seed in range(3):
        check_sampled_pairs(sys, sys.sample_pairs(60, seed, (1, 8)), 60,
                            (1, 8))
    if rows == SAMPLER_MATRICES[3]:
        # only 0 branches forward, and a past that reaches it is all 0,
        # which has no other predecessor: no quadruple exists
        with pytest.raises(ArithmeticError, match="stalled"):
            cli._symbolic_holonomy_quads(sys, 40, 1)
        return
    quads = cli._symbolic_holonomy_quads(sys, 40, 1)
    assert len(quads) == 40
    for p, q, pp, qq in quads:
        assert all(sys.admissible(z) for z in (p, q, pp, qq))
        assert qq == sys.triangle_vertex(pp, q)


def walk_counts(options, s, k, base):
    """Each k-step walk from s, with the number of its digit blocks:
    the product of base / deg over the states it steps from."""
    if k == 0:
        return Counter({(): 1})
    out = Counter()
    for t in options[s]:
        for walk, c in walk_counts(options, t, k - 1, base).items():
            out[(t,) + walk] = c * base // len(options[s])
    return out


def check_block_tables(rows):
    """Each side's `_walks` lists every state's options, ascending and
    padded with -1, with their count, and its paths hold every k-step
    walk from s, in row s, as often as its digit blocks say, with D the
    lcm of the degrees and k the largest with D**k <= 256; a side with
    D > 256 lists each state's options once, for a draw below its
    degree."""
    matrix = TransitionMatrix(rows)
    for options, (table, degree, paths, size, k) in zip(
            (matrix.successors, matrix.predecessors), matrix._walks):
        assert degree.tolist() == list(map(len, options))
        for s, opts in enumerate(options):
            assert table[s].tolist() == [*opts] + [-1] * (
                table.shape[1] - len(opts))
        base = math.lcm(*map(len, options))
        if base > 256:
            assert (size, k) == (0, 1)
            for s, opts in enumerate(options):
                assert paths[s, :len(opts), 0].tolist() == list(opts)
            continue
        assert k == max(j for j in range(1, 9) if base ** j <= 256)
        assert size == base ** k and paths.shape == (matrix.n, size, k)
        for s in range(matrix.n):
            assert Counter(map(tuple, paths[s].tolist())) == walk_counts(
                options, s, k, base)


# D = 2 (golden-mean), 3 (full-3), 4 (four-symbol), 6 (degrees 2 and 3),
# and 280 forward (degrees 5, 7 and 8) with 168 backward
BLOCK_MATRICES = (
    ((1, 1), (1, 0)),
    ((1, 1, 1),) * 3,
    ((1, 1, 1, 1), (1, 1, 1, 1), (0, 0, 1, 1), (0, 0, 1, 1)),
    ((1, 1, 0), (1, 1, 1), (1, 0, 1)),
    ((1,) * 5 + (0,) * 3, (1,) * 7 + (0,), *((1,) * 8,) * 6),
)


@pytest.mark.parametrize("rows", BLOCK_MATRICES)
def test_block_tables_walk_each_path_as_often_as_its_digits(rows):
    check_block_tables(rows)
    sys = sft_new(rows)
    check_sampled_pairs(sys, sys.sample_pairs(60, 5, (1, 8)), 60, (1, 8))
    for p, q, pp, qq in cli._symbolic_holonomy_quads(sys, 40, 5):
        assert all(sys.admissible(z) for z in (p, q, pp, qq))
        assert qq == sys.triangle_vertex(pp, q)


def test_block_tables_of_every_primitive_matrix_up_to_three_states():
    for rows in every_matrix():
        if TransitionMatrix(rows).primitive:
            check_block_tables(rows)


@settings(max_examples=60, deadline=None)
@given(small_matrices(max_n=6))
def test_block_tables_of_matrices_up_to_six_states(rows):
    check_block_tables(rows)


def test_pair_brackets_splice_the_scalar_vertices(golden, four):
    """Sampled rows splice to the scalar vertices; a list of pairs is
    no batch's, and the triangle check takes its scalar vertices, to
    the same reports."""
    for sys in (golden, four):
        pairs = sys.sample_pairs(200, seed=9, levels=(1, 6))
        vertices = sys._pair_brackets(pairs)
        assert list(vertices) == [sys.triangle_vertex(x, y)
                                  for x, y in pairs]
        assert sys._pair_brackets(list(pairs)) is None
        # levels >= 3: below the triangle scale xi/(2 lam)
        near = sys.sample_pairs(200, seed=9, levels=(3, 6))
        assert _triangle_reports(sys, list(near)) == _triangle_reports(
            sys, near)
    # first points of two samples, paired: some differ at coordinate 0
    zero = golden.constant(0)
    a, _ = golden.sample_pairs(20, seed=1).columns()
    b, _ = golden.sample_pairs(20, seed=2).columns()
    with pytest.raises(ValueError, match="agreement at coordinate 0"):
        golden._pair_brackets(a.zip(b))
    with pytest.raises(ValueError, match="agreement at coordinate 0"):
        golden.triangle_vertex(zero, zero.with_value(0, 1))


def test_samplers_stall_without_a_branching_state():
    swap = sft_new(((0, 1), (1, 0)))
    with pytest.raises(ArithmeticError, match="stalled"):
        swap.sample_pairs(50)
    with pytest.raises(ArithmeticError, match="stalled"):
        cli._symbolic_holonomy_quads(swap, 50, 0)
    assert len(swap.sample_pairs(0)) == 0


def test_sampled_sequences_are_read_only_views(full2):
    pairs = full2.sample_pairs(6, seed=2)
    with pytest.raises(TypeError):
        pairs[0] = pairs[1]
    assert list(pairs[2:4]) == list(pairs)[2:4] == [pairs[2], pairs[-3]]
    x, y = pairs.columns()
    assert list(x.zip(y)) == list(pairs)
    assert x.zip([1, 2]) is None


# ------------------------------------------------------------- value types


def _golden_point():
    return golden_mean().point_through((0, 1), 0)


# each builds its value anew on every call
VALUE_BUILDS = {
    "BiSequence": lambda: bi_sequence((0, 1), (1, 1), (0,), -2),
    "TransitionMatrix": lambda: TransitionMatrix([[1, 1], [1, 0]]),
    "ShiftSystem": lambda: ShiftSystem(TransitionMatrix([[1, 1], [1, 0]])),
    "UnstableWindow": lambda: UnstableWindow(_golden_point(), 2),
    "StableWindow": lambda: StableWindow(_golden_point(), 2),
    "Box": lambda: Box((0, 1, 0), -1),
}


@pytest.mark.parametrize("name", sorted(VALUE_BUILDS))
def test_value_types_are_equal_by_value_and_by_type(name):
    x, y = VALUE_BUILDS[name](), VALUE_BUILDS[name]()
    assert type(x).__name__ == name and x is not y
    assert x == y and not x != y and hash(x) == hash(y)
    assert len({x, y}) == 1
    # the same field values in a plain tuple are another value
    plain = tuple(x)
    assert x != plain and plain != x and not x == plain and not plain == x
    with pytest.raises(AttributeError):
        setattr(x, x._fields[0], y[0])


def test_windows_on_the_two_sides_differ():
    a = golden_mean().constant(0)
    u, s = UnstableWindow(a, 0), StableWindow(a, 0)
    assert u != s and s != u and not u == s
    assert len({u, s, UnstableWindow(a, 0)}) == 2


def test_rebuilt_systems_hit_the_matrix_caches():
    # _parry_data is unbounded: a miss per rebuilt matrix would grow it
    def use():
        g = golden_mean()
        d = intrinsic_exponent(g)
        for _ in range(2):
            _parry_data(g.matrix.transpose())
            hausdorff_estimate(g, StableWindow(g.constant(0), 1), d)
    use()
    before = _parry_data.cache_info().misses, _dp.cache_info().misses
    use()
    assert (_parry_data.cache_info().misses, _dp.cache_info().misses) == \
        before
