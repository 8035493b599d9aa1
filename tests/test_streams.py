"""The chunk-keyed draw scheme that every sampler reads: its key and bit
layout, prefix stability at every count, uniform choices, one draw per
walk group, and `Rows`, the one sequence every sampler returns (its shift
slots are `Lanes`, read here as arrays)."""

import ast
import hashlib
from collections import Counter
from pathlib import Path
from random import Random

import numpy as np
import pytest

from selfsimilar import _streams, cli, symbolic
from selfsimilar._lanes import Lanes, below, join
from selfsimilar._streams import CHUNK, Rows, uniforms
from selfsimilar.core import _pair_values, _triangle_reports
from selfsimilar.symbolic import (agreement_level, full_shift, golden_mean,
                                  sft_new)

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


def as_array(slot):
    """A sampled slot as an (N, width) array: `Lanes` hold it by column."""
    if not isinstance(slot, Lanes):
        return slot
    n, width = slot.shape
    return np.frombuffer(b"".join(slot.lanes), np.uint8).reshape(width, n).T


def rows_of(sample):
    """The arrays of a sampled sequence, or the list of its items."""
    cols = getattr(sample, "cols", None)
    return tuple(map(as_array, cols)) if cols else (np.array(sample),)


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
        "shift quadruples": lambda n: join(cli._symbolic_holonomy_quads(
            golden, n, 4)),
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
        rows_of(golden.sample_pairs(50, seed=7)),
        rows_of(golden.sample_pairs(50, seed=7))))
    assert not np.array_equal(rows_of(golden.sample_pairs(50, seed=7))[0],
                              rows_of(golden.sample_pairs(50, seed=8))[0])


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


@pytest.mark.parametrize("c", [*range(1, 8), 64, 65, 243, 300])
def test_below_is_uniform_for_each_option_count(c):
    # the accepted words are [0, limit), limit the largest multiple of c
    # up to 2**32: every residue is taken by as many words; one count up
    # to 64 reads the words' bytes as lanes, a larger one word by word
    limit = (1 << 32) // c * c
    counts = [c, c]
    if c == 1:
        rng = QueuedWords()
        assert list(below(rng, counts)) == [0, 0] and rng.asked == []
    elif limit < 1 << 32:
        rng = QueuedWords([limit - 1, limit], [5])
        assert list(below(rng, counts)) == [c - 1, 5 % c]
        assert rng.asked == [8, 4]
    else:
        rng = QueuedWords([limit - 1, 0])
        assert list(below(rng, counts)) == [c - 1, 0]
    # a fixed-seed frequency check: every residue within 5 sigma
    n = 70_000
    freq = np.bincount(list(below(Random(b"uniformity"), [c] * n)),
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
    xs, ys = rows_of(golden.sample_pairs(CHUNK, seed=0))
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
            join(cli._symbolic_holonomy_quads(shift, count, 0))
        assert len(drawing) == -(-(64 * count + 1024) // CHUNK)


def test_slices_and_columns_keep_the_builder(golden, cat):
    for rows in (golden.sample_pairs(8, seed=1), cat.sample_pairs(8, 1e-3),
                 join(cli._symbolic_holonomy_quads(golden, 8, 1))):
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
    assert _pair_values(golden, pairs, steps, levels=True) == scalar
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


# the matrices whose sampled rows are pinned: D = 2 (golden-mean), 3, 4,
# 6 and 280 forward with 168 backward (test_symbolic.BLOCK_MATRICES), the
# two sft golden configs, and full-17, whose walk keys (state, digit)
# number 17 * 17 > 256
STREAM_MATRICES = {
    "golden-mean": ((1, 1), (1, 0)),
    "full-3": ((1, 1, 1),) * 3,
    "four-symbol": ((1, 1, 1, 1), (1, 1, 1, 1), (0, 0, 1, 1), (0, 0, 1, 1)),
    "degrees-2-3": ((1, 1, 0), (1, 1, 1), (1, 0, 1)),
    "degrees-5-7-8": ((1,) * 5 + (0,) * 3, (1,) * 7 + (0,),
                      *((1,) * 8,) * 6),
    "sft-3": ((0, 1, 0), (0, 0, 1), (1, 1, 0)),
    "sft-4": ((0, 1, 0, 0), (0, 0, 1, 1), (1, 1, 0, 0), (1, 0, 0, 0)),
    "full-17": ((1,) * 17,) * 17,
}
# per (matrix, seed): the slot digests of sample_pairs(5000, seed), then
# of cli._symbolic_holonomy_quads(sys, 5000, seed)
SLOT_DIGESTS = {
    ("golden-mean", 0): (
        ("90e2156fef50b241", "19b4bea887c1f49f"),
        ("425c4b45712076e8", "e43ef00055aaced9", "e199c7ee342e7a2f",
         "4bf43bcb1ef32d3e")),
    ("golden-mean", 7): (
        ("337dcdfeafc9b8c2", "36b71540658afaa0"),
        ("650e6cc962bf05aa", "bd189879386a00ec", "4ca0ad2748a9aec6",
         "2f167cbfade76624")),
    ("full-3", 0): (
        ("dff3d3fd3a9a66d4", "a24f369e5f4c8f0f"),
        ("30314de1945e2ce9", "c630a98a0a7453c8", "586aa2dcf055f920",
         "879b0173ffc7e495")),
    ("full-3", 7): (
        ("d52341b0582a8cd5", "8f5e7c39330d3eaf"),
        ("870f56d5a43a8150", "d896dc7c5a9b11b9", "ee714408a9bff223",
         "677bfe0b8500b0a0")),
    ("four-symbol", 0): (
        ("b469cb4f9a5e3c49", "9d2ccbaaf8c6b13d"),
        ("baf0fdfcb9a7f1e2", "51212e8b01156948", "254299d01e85c18f",
         "c40f8d82f96cbcad")),
    ("four-symbol", 7): (
        ("5a96d4fd5fe2cf10", "bf9a0307776cb88f"),
        ("fbbbdfe9ab5f3ec1", "4986dfba7e8ee9fa", "a3df8756260a58b7",
         "1188daef8e7c40c8")),
    ("degrees-2-3", 0): (
        ("c400440ed6ae16b7", "4c3a3926c6b53858"),
        ("871f08f193e70bfe", "3f2fea44baaa8dc2", "9731529928b924c1",
         "50d4d3d4139e2476")),
    ("degrees-2-3", 7): (
        ("b235df9fe269aec0", "c011ea0d910b8e5e"),
        ("61a0dcbad1c7a68f", "9615732a3345d62d", "d915d581edfb4e2c",
         "e367647750b4aada")),
    ("degrees-5-7-8", 0): (
        ("36d04d90c8db2dbe", "9f82c5dba85c6fb5"),
        ("6a438928fd5fbba4", "57261bb341124225", "97a4f820af356eca",
         "0c675a010bd930a9")),
    ("degrees-5-7-8", 7): (
        ("bc9caf0aebdd6c98", "cad11ff7b0ef7927"),
        ("7230a0681f44b64a", "5b09c634d0a81cf4", "321a68bc79bb9b14",
         "3de22fc96edc32df")),
    ("sft-3", 0): (
        ("940c04a31495c8f4", "4c37d5a6622922e7"),
        ("e005a2dae1895cd5", "e59638ece83c1368", "a7e96a1a26b2345e",
         "4ce09c656ea22f73")),
    ("sft-3", 7): (
        ("315cdae6c91009ba", "a19fd86a63002d10"),
        ("a1eece0467c8fa71", "a734afeb88626f26", "e7011fdc200dfa07",
         "adf07336a0c23a11")),
    ("sft-4", 0): (
        ("bdb94841fc538546", "a60e126a185c8d05"),
        ("ffe400008e592c52", "fbe8a3a41319ad98", "afeb241412f81a47",
         "f85240cad4fd7c3c")),
    ("sft-4", 7): (
        ("97c9e987ef2d2554", "1803fee915795e04"),
        ("938c21c9e6ce2be8", "533e750365a79575", "42fdc745d49a4ba3",
         "e409ab2aa1e14169")),
    ("full-17", 0): (
        ("513517bf8d7ec5cc", "9716926b477af6d3"),
        ("19cff5f28db15a7b", "455f402aa6b61797", "54a109e10735f331",
         "fcc128402522d429")),
    ("full-17", 7): (
        ("f20f88d11ce310e3", "2d088ea7f8ccfb4a"),
        ("460c0a73e3c83b66", "bae785e1c8eb392c", "2c58899fe3598b6f",
         "03b3b3168e4edc05")),
}


def slot_digests(rows):
    """The first 16 hex digits of the sha256 of each slot's rows, read
    row by row, one byte a state."""
    return tuple(hashlib.sha256(b"".join(bytes(a[i]) for i in range(len(a))))
                 .hexdigest()[:16] for a in rows.cols)


@pytest.mark.parametrize("name, seed", list(SLOT_DIGESTS))
def test_every_sampled_row_is_pinned(name, seed):
    # pins the draws and walks of every block scheme: bytes and `below`
    # digits, D > 256, and the cut columns, options and sides
    sys = sft_new(STREAM_MATRICES[name])
    pairs, quads = SLOT_DIGESTS[name, seed]
    assert slot_digests(sys.sample_pairs(5000, seed)) == pairs
    assert slot_digests(join(cli._symbolic_holonomy_quads(
        sys, 5000, seed))) == quads


def test_rows_past_255_columns_are_pinned():
    # reach 303 each way; levels 1..300 draw their cut columns from 300
    # options, beyond a byte
    full2 = full_shift(2)
    x = "83d2ba4e07c107ba"
    assert slot_digests(full2.sample_pairs(300, 5, (1, 300))) == (
        x, "8286a4886b261a0d")
    assert slot_digests(full2.sample_pairs(300, 5, (290, 300))) == (
        x, "d0247bbf3304f894")
