"""The chunk-keyed draw scheme that every sampler reads: its key and bit
layout, prefix stability at every count, uniform choices, one draw per
walk group, and `Rows`, the one sequence every sampler returns."""

import ast
from collections import Counter
from pathlib import Path
from random import Random

import numpy as np
import pytest

from selfsimilar import _streams, cli, symbolic
from selfsimilar._streams import CHUNK, Rows, below, uniforms
from selfsimilar.core import _pair_values, _triangle_reports
from selfsimilar.symbolic import agreement_level, golden_mean, sft_new

SRC = Path(__file__).resolve().parent.parent / "src" / "selfsimilar"
COUNTS = (100, 101, CHUNK + 1, 3 * CHUNK)


def test_first_uniforms_of_chunks_zero_and_one_are_pinned():
    # chunk k of seed 0 is Random(b"0:k"); a uniform is the top 53 bits
    # of a little-endian 64-bit randbytes word
    got = uniforms(CHUNK + 2, 0, 2)
    assert got[:2].tolist() == [[0.6752296445389977, 0.8806851759024603],
                                [0.7866465450694299, 0.2572714237254622]]
    assert got[CHUNK:].tolist() == [[0.9894620038544321, 0.7234525604205396],
                                    [0.564043983290124, 0.5702835925916631]]
    w = np.frombuffer(Random(b"0:1").randbytes(8), "<u8")
    assert ((w >> 11) * 2.0**-53).tolist() == [0.9894620038544321]


def rows_of(sample):
    """The arrays of a sampled sequence, or the list of its items."""
    return getattr(sample, "cols", None) or (np.array(sample),)


def assert_prefix_stable(draw):
    """The first items at each of COUNTS are the items at the next."""
    got = [rows_of(draw(n)) for n in COUNTS]
    for n, small, large in zip(COUNTS, got, got[1:]):
        assert all(len(a) == n for a in small)
        assert all(np.array_equal(a, b[:n]) for a, b in zip(small, large))


@pytest.mark.parametrize("name", ["shift pairs", "shift quadruples",
                                  "toral points", "euclidean pairs",
                                  "doubling points", "toral quadruples"])
def test_the_first_items_are_the_same_at_every_count(name, golden, cat,
                                                     euclid, doubling):
    draw = {
        "shift pairs": lambda n: golden.sample_pairs(n, seed=4),
        "shift quadruples": lambda n: cli._symbolic_holonomy_quads(golden,
                                                                    n, 4),
        "toral points": lambda n: cat.sample_points(n, seed=4),
        "euclidean pairs": lambda n: euclid.sample_pairs(n, 1e-3, seed=4),
        "doubling points": lambda n: doubling.sample_points(n, seed=4),
        "toral quadruples": lambda n: cli._toral_holonomy_quads(
            cat, n, 4, cat.xi / cat.lam ** 3),
    }[name]
    assert_prefix_stable(draw)


def test_self_similar_pairs_draw_a_stable_prefix(cat):
    # pair k's angle stratum is (k + jitter) / count, so its offset moves
    # with count; its draws do not, and x is two of them as drawn
    assert_prefix_stable(
        lambda n: cat.sample_pairs(n, 1e-3, seed=4).columns()[0])
    x, _ = rows_of(cat.sample_pairs(COUNTS[0], 1e-3, seed=4))
    assert np.array_equal(x, uniforms(COUNTS[0], 4, 4)[:, 2:])


def test_draws_are_fixed_by_the_seed(golden):
    assert np.array_equal(uniforms(50, 7, 3), uniforms(50, 7, 3))
    assert not np.isin(uniforms(50, 7, 3), uniforms(50, 8, 3)).any()
    assert all(np.array_equal(a, b) for a, b in zip(
        golden.sample_pairs(50, seed=7).cols,
        golden.sample_pairs(50, seed=7).cols))
    assert not np.array_equal(golden.sample_pairs(50, seed=7).cols[0],
                              golden.sample_pairs(50, seed=8).cols[0])


@pytest.mark.parametrize("seed", [1.5, "0", b"0", None, True])
def test_a_seed_that_is_not_an_int_is_refused(seed, golden, cat):
    for draw in (lambda: uniforms(3, seed, 2), lambda: uniforms(0, seed, 2),
                 lambda: golden.sample_pairs(3, seed=seed),
                 lambda: golden.sample_pairs(0, seed=seed),
                 lambda: cat.sample_points(3, seed=seed)):
        with pytest.raises(ValueError, match="seed must be an int"):
            draw()


class QueuedWords:
    """Stub rng whose `randbytes` serves one queued list of 32-bit words
    per call, recording how many bytes each call asked for."""

    def __init__(self, *rounds):
        self.rounds, self.asked = list(rounds), []

    def randbytes(self, n):
        self.asked.append(n)
        return np.array(self.rounds.pop(0), "<u4").tobytes()


@pytest.mark.parametrize("c", range(1, 8))
def test_below_is_uniform_for_each_option_count(c):
    # the accepted words are [0, limit), limit the largest multiple of c
    # up to 2**32: every residue is taken by as many words
    limit = (1 << 32) // c * c
    counts = np.full(2, c, dtype=np.int64)
    if c == 1:
        rng = QueuedWords()
        assert below(rng, counts).tolist() == [0, 0] and rng.asked == []
    elif limit < 1 << 32:
        rng = QueuedWords([limit - 1, limit], [5])
        assert below(rng, counts).tolist() == [c - 1, 5 % c]
        assert rng.asked == [8, 4]
    else:
        rng = QueuedWords([limit - 1, 0])
        assert below(rng, counts).tolist() == [c - 1, 0]
    # a fixed-seed frequency check: every residue within 5 sigma
    n = 70_000
    freq = np.bincount(below(Random(b"uniformity"), np.full(n, c)),
                       minlength=c)
    assert len(freq) == c
    assert np.all(np.abs(freq - n / c) <= 5 * np.sqrt(n / c * (1 - 1 / c)))


def test_walks_draw_once_per_side_and_start_column(golden, monkeypatch):
    # a golden-mean pair chunk (levels 1..8: columns 0..11 each way; D = 2,
    # so k = 8 steps per byte) draws the start states, each side's first
    # walk, the cut columns and the sides, then one call per (side, r)
    # group of the rows that part at column r, a byte per row for every
    # 8 of its 11 - r steps, forced or not; the redraw at r has one
    # option left on golden-mean, which takes no word
    asked = {}

    class Spy(Random):
        def randbytes(self, n):
            asked.setdefault(self, []).append(n)
            return super().randbytes(n)

    monkeypatch.setattr(_streams, "Random", Spy)
    xs, ys = golden.sample_pairs(CHUNK, seed=0).cols
    first = next(iter(asked.values()))  # chunk 0's calls, in order
    assert first[:5] == [4 * CHUNK, 2 * CHUNK, 2 * CHUNK, 4 * CHUNK,
                         4 * CHUNK]
    groups = [(side, r) for side in (1, -1) for r in range(2, 10)]
    assert len(first) == 5 + len(groups)
    blocks = [-(-(11 - r) // 8) for _, r in groups]
    assert all(n % b == 0 for n, b in zip(first[5:], blocks))
    sizes = {g: n // b for g, n, b in zip(groups, first[5:], blocks)}
    # the rows chunk 0 keeps come first; each parts at its group's column
    kept, c = sum(sizes.values()), xs.shape[1] // 2
    parted = Counter()
    for x, y in zip(xs[:kept], ys[:kept]):
        t = np.flatnonzero(x != y)[[0, -1]] - c
        parted[(1, t[0]) if t[0] > 0 else (-1, -t[-1])] += 1
    assert parted == sizes
    assert sum(first) == 68691


def test_no_draw_of_a_toral_quadruple_is_read_twice(cat):
    # the legs' fractions, read back from q and pp, and the sign
    # uniforms are none of the quadruples' point coordinates
    scale = cat.xi / cat.lam ** 3
    p, q, pp, _ = cli._toral_holonomy_quads(cat, 2000, 0, scale).cols
    coords = np.sort(p.ravel())
    fractions = []
    for end, v, size in ((q, cat.v_unstable, scale),
                         (pp, cat.v_stable, cat.xi / 4)):
        off = end - p
        t = np.abs((off - np.round(off)) @ np.array(v))
        fractions.append((t / size - 0.25) / 0.75)
    fractions = np.concatenate(fractions)
    near = np.clip(np.searchsorted(coords, fractions), 1, len(coords) - 1)
    gap = np.minimum(np.abs(coords[near] - fractions),
                     np.abs(coords[near - 1] - fractions))
    assert np.count_nonzero(gap < 1e-11) == 0
    signs = uniforms(2000, 0, 6)[:, 3::2]
    assert not np.isin(signs, coords).any()


def random_constructors(path):
    """(file, function) of every call to `Random` in a source file."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            name = where
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = child.name
            if isinstance(child, ast.Call) and (
                    getattr(child.func, "id", None) == "Random"
                    or getattr(child.func, "attr", None) == "Random"):
                found.append((path.name, name))
            visit(child, name)

    visit(ast.parse(path.read_text()), None)
    return found


def test_only_the_stream_module_and_the_homogeneity_walk_make_a_random():
    # `random_point` keeps its Random(seed) walk; every sampler reads
    # the chunk streams
    found = [f for p in sorted(SRC.glob("*.py"))
             for f in random_constructors(p)]
    assert sorted(found) == [("_streams.py", "chunk_rngs"),
                             ("cli.py", "_check_homogeneity")]


def spy_on_drawing(monkeypatch):
    """The chunk streams that draw a word, in the order they first do."""
    drawing = []

    class Spy(Random):
        def randbytes(self, n):
            if self not in drawing:
                drawing.append(self)
            return super().randbytes(n)

    monkeypatch.setattr(_streams, "Random", Spy)
    return drawing


@pytest.mark.parametrize("rows", [((0, 1, 0), (0, 0, 1), (1, 0, 0)),
                                  ((0, 1), (1, 0)), ((1,),)])
def test_a_rigid_matrix_stalls_before_drawing(rows, monkeypatch):
    # no state has a second successor or predecessor, so no pair can
    # part: the stall is read from the degree tables, not from draws
    drawing = spy_on_drawing(monkeypatch)
    for count in (1, 48, 49, 100):
        with pytest.raises(ArithmeticError,
                           match="^sampling stalled; matrix too rigid$"):
            sft_new(rows).sample_pairs(count, seed=0)
        assert drawing == []


def test_a_stall_that_is_not_rigid_draws_the_whole_budget(monkeypatch):
    # state 0 has two successors and state 2 two predecessors, but a row
    # at 0 before its forward cut is at 0 on its whole past, where the
    # backward cut finds one predecessor: no quadruple is ever kept, so
    # the chunks that draw hold the first 64 count + 1024 rows
    shift = sft_new(((1, 1, 0), (0, 0, 1), (0, 0, 1)))
    drawing = spy_on_drawing(monkeypatch)
    for count in (1, 48, 49, 100):
        drawing.clear()
        with pytest.raises(ArithmeticError,
                           match="^sampling stalled; matrix too rigid$"):
            cli._symbolic_holonomy_quads(shift, count, 0)
        assert len(drawing) == -(-(64 * count + 1024) // CHUNK)


def test_slices_and_columns_keep_the_builder(golden, cat):
    for rows in (golden.sample_pairs(8, seed=1), cat.sample_pairs(8, 1e-3),
                 cli._symbolic_holonomy_quads(golden, 8, 1)):
        assert isinstance(rows, Rows)
        assert rows[2:5].point == rows.point
        assert list(rows[2:5]) == list(rows)[2:5]
        slots = rows.columns()
        assert all(c.point == rows.point for c in slots)
        assert list(zip(*slots)) == list(rows)


def test_zip_joins_rows_of_one_builder_and_width(golden, cat):
    x, y = golden.sample_pairs(5, seed=1).columns()
    assert list(x.zip(y)) == list(zip(x, y))
    wider, _ = golden.sample_pairs(5, seed=1, levels=(1, 4)).columns()
    other, _ = golden_mean().sample_pairs(5, seed=1).columns()
    toral, _ = cat.sample_pairs(5, 1e-3).columns()
    assert len(wider.cols[0][0]) != len(x.cols[0][0])
    assert len(other.cols[0][0]) == len(x.cols[0][0])
    for a, b in ((x, wider), (wider, x), (x, other), (other, x), (x, toral),
                 (toral, x), (x, [(0, 1)] * 5)):
        assert a.zip(b) is None


def test_another_systems_rows_take_the_scalar_levels(golden, monkeypatch):
    # a second golden-mean object builds points of its own, so its
    # batches take none of the first one's pairs: core reads them point
    # by point, to the same levels and vertices
    calls = []

    def counted(a, b):
        calls.append(1)
        return agreement_level(a, b)

    monkeypatch.setattr(symbolic, "agreement_level", counted)
    pairs, steps = golden.sample_pairs(40, seed=3), (0, 1, -1)
    scalar = [[agreement_level(x.shift(s), y.shift(s)) for x, y in pairs]
              for s in steps]
    assert golden._pair_levels(pairs, steps) == scalar
    assert len(calls) < len(pairs)  # the row path reads the arrays
    other = golden_mean()
    assert other._pair_levels(pairs, steps) is None
    assert other._pair_brackets(pairs) is None
    calls.clear()
    assert _pair_values(other, pairs, steps, levels=True) == scalar
    assert len(calls) == len(pairs) * len(steps)
    # pairs at levels >= 3 lie below the triangle scale xi/(2 lam)
    pairs = golden.sample_pairs(40, seed=3, levels=(3, 8))
    assert [other.triangle_vertex(x, y) for x, y in pairs] == list(
        golden._pair_brackets(pairs))
    assert _triangle_reports(other, pairs) == _triangle_reports(golden,
                                                                pairs)


def sequence_subclasses(path):
    """Names of the classes in a source file with a base named Sequence."""
    return [node.name for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.ClassDef)
            and any(getattr(b, "id", getattr(b, "attr", None)) == "Sequence"
                    for b in node.bases)]


def test_rows_is_the_only_sequence_class():
    found = [(p.name, name) for p in sorted(SRC.glob("*.py"))
             for name in sequence_subclasses(p)]
    assert found == [("_streams.py", "Rows")]
