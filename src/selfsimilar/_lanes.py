"""Byte-lane kernels of the shift samplers and pair batches.

A lane holds a byte a row: one column of a chunk's candidate rows, or of
a sampled slot (`Lanes`).  `bytes.translate` maps every row of a lane
through a 256-byte table at once; the lane's int, read little-endian,
takes sums and masks in which no byte passes 255.  A mask holds 127 at
its rows.  The sampler walks each candidate to both ends once and
yields its rows for `core._parts`, and the pair batch its levels as
lanes, which `core._count` tallies.
`symbolic` imports this module on its first draw or batch, so building
a shift system, and its exact path, never compiles it.
"""
import re
import struct
from functools import cached_property, lru_cache, partial, reduce
from itertools import compress
from math import lcm
from operator import and_, or_

from ._streams import CHUNK, Rows, chunk_rngs
from .symbolic import agreement_level

_int = partial(int.from_bytes, byteorder="little")
_lane = partial(int.to_bytes, byteorder="little")
_MARK, _ONES = _int(b"\x80" * CHUNK), _int(b"\1" * CHUNK)
_HIGH = bytes(range(128, 256))
_LESS = bytes(2) + bytes(range(1, 255))  # v -> v - 1, 0 -> 0


def below(rng, counts):
    """One uniform draw from range(c) per count c >= 1, as a sequence of
    ints: a little-endian 32-bit randbytes word, redrawn while at or
    above the largest multiple of c up to 2**32, modulo c; c = 1 takes
    no word.  The words to redraw are drawn again in one call, in order.
    One count c <= 64 for every row sums the residues (v << 8 j) % c of
    the words' bytes v in lanes, as no four pass 255."""
    n, c = len(counts), counts[0] if counts else 1
    if c <= 64 and counts.count(c) == n:
        words = rng.randbytes(4 * n) if c > 1 else b""
        shares = _shares(c)
        out = bytearray(_lane(sum(_int(words[j::4].translate(share))
                                  for j, share in enumerate(shares)
                                  if any(share)), n).translate(shares[0]))
        # a word to redraw has top byte 255
        at = [m.start() for m in re.finditer(b"\xff", words[3::4])]
        words = [_int(words[4 * i:4 * i + 4]) for i in at]
    else:
        out, at = [0] * n, [i for i, c in enumerate(counts) if c > 1]
        words = struct.unpack(f"<{len(at)}I", rng.randbytes(4 * len(at)))
        for i, u in zip(at, words):
            out[i] = u % counts[i]
    redo = [i for i, u in zip(at, words) if u >= 2**32 - 2**32 % counts[i]]
    for i, v in zip(redo, below(rng, [counts[i] for i in redo]) if redo
                    else ()):
        out[i] = v
    return out


@lru_cache(maxsize=None)
def _shares(c):
    """Per byte j of a word, the byte table v -> (v << 8 j) % c."""
    return tuple(bytes((v << 8 * j) % c for v in range(256))
                 for j in range(4))


class Lanes:
    """(N, width) bytes by column, as the shift samplers walk them: lane
    c holds each row's byte at column c.  len, [i] (row i, as bytes),
    [slice] and `shape` read as on an (N, width) array."""

    def __init__(self, lanes):
        self.lanes = tuple(lanes)
        self.shape = len(self.lanes[0]), len(self.lanes)

    def __len__(self):
        return self.shape[0]

    def __getitem__(self, i):
        if isinstance(i, slice):
            return Lanes(lane[i] for lane in self.lanes)
        return bytes(lane[i] for lane in self.lanes)

    @cached_property
    def ints(self):
        """Each lane's int, read once for every pair set of the slot."""
        return [_int(lane) for lane in self.lanes]


def _is(v):
    """The byte table of the mask of the value v."""
    return bytes(v) + b"\x7f" + bytes(255 - v)


@lru_cache(maxsize=None)
def _digits(base, i, m):
    """The byte table of a block's digits i..i+m-1 in base `base`."""
    return bytes(v // base ** i % base ** m for v in range(256))


def _table(rows):
    """The `_look` table of state tuples rows[a][b]: per group of 256 // w
    states from g on (w the longest row), the byte tables a -> (a - g) w,
    (a - g) w + b -> rows[a][b][j] for each j, and the group's mask."""
    w, out = max(map(len, rows)), []
    for g in range(0, len(rows), 256 // w):
        key, mask = bytearray(256), bytearray(256)
        values = [bytearray(256) for _ in rows[0][0]]
        for a, row in enumerate(rows[g:g + 256 // w]):
            key[g + a], mask[g + a] = a * w, 127
            for b, states in enumerate(row):
                for value, state in zip(values, states):
                    value[a * w + b] = state
        out.append((key, values, mask))
    return out


def _look(table, a, b):
    """The lanes rows[a][b][j], one per j, of the lane a and the lanes int
    b (see `_table`): no key passes 255, so no byte carries; with more
    groups than one, each group's lanes are masked to its states."""
    got = []
    for key, values, mask in table:
        key = _lane(_int(a.translate(key)) + b, len(a))
        got.append([key.translate(v) for v in values] if len(table) == 1
                   else [_int(key.translate(v)) & _int(a.translate(mask))
                         for v in values])
    return got[0] if len(table) == 1 else [
        _lane(reduce(or_, lanes), len(a)) for lanes in zip(*got)]


def _compact(values, mask):
    """The bytes (each below 128) of each of a chunk's lanes ints
    `values` at the rows of `mask`, in order: the others get bit 7, and
    go."""
    drop = _MARK ^ _MARK & mask << 1
    return [_lane(v | drop, CHUNK).translate(None, _HIGH) for v in values]


def _place(groups, kept):
    """Per group (rows, lanes), of disjoint masks rows: the mask of rows
    over a chunk's rows of the mask `kept`, and each of lanes (a byte a
    row of rows, in order) over those, its bytes at the rows of both, 0
    at the others.  One lane tags each cut's rows and the kept ones (2 i
    + 2 in group i, plus 1 if kept): a translate of it picks group i's
    kept bytes, and a bytes format reads them (%c) into place."""
    out = []
    for g in range(0, len(groups), 127):  # a byte tags 127 groups
        tags = _lane(sum((rows & _ONES) * (2 * i + 2) for i, (rows, _) in
                         enumerate(groups[g:g + 127])) + (kept & _ONES),
                     CHUNK).translate(None, b"\0")
        ours = tags.translate(None, bytes(range(2, 256, 2)))
        for i, (_, lanes) in enumerate(groups[g:g + 127]):
            picks, mask = tags.translate(*_picks(i)), ours.translate(_is(
                2 * i + 3))
            form, drop = mask.replace(b"\x7f", b"%c"), b"\0" in picks
            out.append((_int(mask), [form % tuple(memoryview(bytes(
                compress(lane, picks)) if drop else lane).cast("c"))
                for lane in lanes]))
    return out


@lru_cache(maxsize=None)
def _picks(i):
    """The translate of `_place`'s tags to group i's rows, 1 if kept."""
    return _is(2 * i + 3).replace(b"\x7f", b"\1"), bytes(
        v for v in range(256) if v >> 1 != i + 1)


def walk_tables(matrix):
    """Per side, forward (successors) then backward (predecessors):
    (degree, option, paths, D, k).  `degree` is the byte table of each
    state's option count, `option` the `_table` of its options.  D is
    the lcm of the degrees, and digit d steps to option d * deg // D,
    which takes D / deg digits.  A block is k <= 8 digits, least
    significant first, D**k <= 256: a randbytes byte if D**k is a power
    of two, else `below(D**k)`.  paths[m - 1] maps (s, m digits) to the
    states they step through, for m up to the most with n D**m <= 256.
    D > 256: k = 0, a step draws `below(degree)`, and paths = [option].
    """
    out = []
    for options in (matrix.successors, matrix.predecessors):
        base = lcm(*map(len, options))
        k = next((k for k in range(8, 0, -1) if base ** k <= 256), 0)
        option = [[(o,) for o in opts] for opts in options]
        paths = [[[(o[d * len(o) // base],) for d in range(base)]
                  for o in options] if k else option]
        while len(paths) < k and matrix.n * base ** (len(paths) + 1) <= 256:
            b = base ** len(paths)  # digits c % b, then c // b
            paths.append([[row[c % b] + paths[0][row[c % b][-1]][c // b]
                           for c in range(b * base)] for row in paths[-1]])
        out.append((bytes(map(len, options)).ljust(256, b"\0"),
                    _table(option), [_table(rows) for rows in paths], base,
                    k))
    return tuple(out)


def pair_levels(system, pairs, steps):
    """`ShiftSystem._pair_levels`: per step s, the lane of each pair's
    level at s plus 1 (255: math.inf, equal rows, which spell equal
    points).  The level t - 1, for the first t at which the rows differ
    at coordinate s + t or s - t, counts the t before: a lane sum, in
    which no byte passes 255 as rows reach at most 127 columns each way.
    Rows with no difference within t <= w - |s| take the scalar level,
    which is below 2 w."""
    own = isinstance(pairs, Rows) and pairs.point == system._row_point
    w = pairs.cols[0].shape[1] // 2 if own else 0
    if not max(map(abs, steps)) < w < 128:
        return None
    n, (xs, ys) = len(pairs), (a.ints for a in pairs.cols)
    ones, out = _int(b"\1" * n), []
    # 1 at each row that differs there: states are below 64
    low = 63 * ones
    differ = [(a ^ b) + low >> 6 & ones for a, b in zip(xs, ys)]
    equal = ones ^ reduce(or_, differ)
    for s in steps:
        found, total, reach = 0, 0, w - abs(s)
        for t in range(reach + 1):
            found |= differ[w + s + t] | differ[w + s - t]
            total += found
        # the t at which no difference was found, equal rows to 255
        lane = _lane((reach + 1) * ones - total + equal * (254 - reach), n)
        if reach + 1 in lane:  # unfound at every t: the scalar level
            lane = bytearray(lane)
            for i in [i for i, c in enumerate(lane) if c == reach + 1]:
                x, y = pairs[i]
                lane[i] = agreement_level(x.shift(s), y.shift(s)) + 1
        out.append(lane)
    return out


def pair_brackets(system, pairs):
    """`ShiftSystem._pair_brackets`: x's lanes below coordinate 0 and y's
    from 0 on splice into `Rows` of points whose ends are x's and y's,
    so each built point is the scalar vertex."""
    if not (isinstance(pairs, Rows) and pairs.point == system._row_point):
        return None
    xs, ys = (a.lanes for a in pairs.cols)
    c = len(xs) // 2
    if xs[c] != ys[c]:
        raise ValueError("bracket needs agreement at coordinate 0")
    return Rows((Lanes(xs[:c] + ys[c:]),), system._row_point)


def sample(system, count, seed, reach, cuts):
    """`ShiftSystem._sample`, as `Rows` of `Lanes` of CHUNK rows or more
    at a time, the last one maybe fewer: per chunk, every row walks out
    to both ends once, each cut branches (`_branch`), and each cut's
    walks are laid onto the rows kept."""
    if count < 0:
        raise ValueError("count must be nonnegative")
    walks = system.matrix._walks
    fwd, bwd = (max(degree) > 1 for degree, *_ in walks)
    rigid = not all((fwd or bwd, fwd, bwd)[side] for _, _, side in cuts)
    budget, have, every = 64 * count + 1024, 0, _int(b"\x7f" * CHUNK)
    parts = [Rows([Lanes([b""] * (2 * reach + 1))] * (1 + len(cuts)),
                  system._row_point)]
    for k, rng in enumerate(chunk_rngs(seed)):
        if have >= count:
            break
        if rigid or k * CHUNK >= budget:
            raise ArithmeticError("sampling stalled; matrix too rigid")
        start = bytes(below(rng, [system.matrix.n] * CHUNK))
        x = {sign: _walk_on(walks, sign, start, _draw(
            walks, rng, sign, start, every, {0: every}, reach), reach)
             for sign in (1, -1)}
        # candidates past the budget go
        ok = (1 << 8 * min(CHUNK, budget - k * CHUNK)) - 1 & every
        branches = [_branch(walks, rng, x, reach, *cut) for cut in cuts]
        ok = reduce(and_, (branched for *_, branched in branches), ok)
        n = _lane(ok, CHUNK).count(127)
        rows = [{sign: _compact(x[sign], ok) for sign in x}]
        for lo, cut_walks, _ in branches:  # each cut's, on the rows kept
            rows.append({sign: list(h) for sign, h in rows[0].items()})
            for sign, branch, new, groups in cut_walks:
                groups = dict(zip(groups, _place(list(groups.values()), ok)))
                cols, moved = _walk_on(walks, sign, _place(
                    [(branch, [new])], ok)[0][1][0], groups, reach), 0
                for c in range(lo, reach + 1):
                    moved |= groups[c][0] if c in groups else 0
                    v = _int(rows[-1][sign][c])
                    rows[-1][sign][c] = _lane(v ^ v & moved | cols[c], n)
        parts.append(Rows((Lanes(col[:count - have] for col in
                                 h[-1][:0:-1] + h[1]) for h in rows),
                          system._row_point))
        have += n
        if sum(map(len, parts)) >= CHUNK:
            yield join(parts)
            del parts[1:]
    yield join(parts)


def join(parts):
    """The `Rows` of some parts of a sampler's rows, in one."""
    parts = list(parts)
    return Rows((Lanes(map(b"".join, zip(*(a.lanes for a in slot))))
                 for slot in zip(*(part.cols for part in parts))),
                parts[0].point)


def _branch(walks, rng, x, reach, lo, hi, side):
    """Each row leaves the chunk's lanes x[sign] (ints; column t at
    coordinate sign * t), sign `side` (0: uniform), at a column r
    uniform in lo..hi, for another option there.  Returns lo, per sign
    with such rows (sign, their mask, those options in order, and their
    blocks by r, from `_draw`), and the mask of the rows that had one.
    A mask per r picks each row's states at r - 1 and r."""
    ok, out = _int(b"\x7f" * CHUNK), []
    offsets = below(rng, [hi - lo + 1] * CHUNK)
    sides = bytes(below(rng, [2] * CHUNK)) if not side else bytes(
        [side > 0]) * CHUNK
    # the rows cut at column t, by the bytes of t - lo
    tags = [bytes(offsets)] if hi - lo < 256 else [
        bytes(o >> j & 255 for o in offsets) for j in (0, 8)]
    at = {t: reduce(and_, (_int(tag.translate(_is(t - lo >> 8 * j & 255)))
                           for j, tag in enumerate(tags)))
          for t in range(lo, hi + 1)}
    for sign in (1, -1):
        degree, option, *_ = walks[sign < 0]
        signed = _int(sides.translate(_is(sign > 0)))
        if not signed:
            continue
        cut = {t: v & signed for t, v in at.items() if v & signed}
        prev, old = (reduce(or_, (x[sign][t + d] & v for t, v in
                                  cut.items()), 0) for d in (-1, 0))
        alts = _lane(prev, CHUNK).translate(degree).translate(_LESS)
        branch = signed & _int(alts.translate(bytes(1) + b"\x7f" * 255))
        ok ^= ok & (signed ^ branch)  # the rows of this sign without one
        if not branch:
            continue
        before, old = _compact((prev, old), branch)
        alts = before.translate(degree).translate(_LESS)
        pick, m = _int(bytes(below(rng, alts))), len(alts)
        # options ascend: skip old by stepping past every option below
        # it; first - old + 64 has bit 6 when first >= old
        (first,) = _look(option, before, pick)
        skip = _int(first) + _int(b"\x40" * m) - _int(old) >> 6 & _int(
            b"\1" * m)
        (new,) = _look(option, before, pick + skip)
        out.append((sign, branch, new, _draw(walks, rng, sign, new, branch, {
            t: v & branch for t, v in cut.items() if v & branch}, reach)))
    return lo, out, ok


def _draw(walks, rng, sign, start, rows, groups, end):
    """Per t, ascending, the mask of the rows that walk from column t
    (coordinate sign * t) and their blocks (`walk_tables`), a lane each,
    drawn in one call, row by row; for D > 256, one `below` their
    degrees per step as they walk from their states in `start` (one per
    row of the mask `rows`)."""
    degree, option, _, base, k = walks[sign < 0]
    out = {}
    for t, mask in groups.items():
        width, n = -(-(end - t) // k) if k else end - t, mask.bit_count()
        if k:
            drawn = bytes(below(rng, [base ** k] * (n // 7 * width))) if (
                base ** k & base ** k - 1) else rng.randbytes(n // 7 * width)
            out[t] = mask, [drawn[b::width] for b in range(width)]
            continue
        cur, out[t] = _place([(rows, [start])], mask)[0][1][0], (mask, [])
        for _ in range(width):  # the rows walk, to draw
            out[t][1].append(bytes(below(rng, cur.translate(degree))))
            (cur,) = _look(option, cur, _int(out[t][1][-1]))
    return out


def _walk_on(walks, sign, start, groups, end):
    """Per column 0..end of one side, the lanes int of the states that
    the rows of each group (t: (mask, blocks), as from `_draw`, over the
    rows of `start`) reach there, walking on from `start` at column t:
    all rows walk at once, lane j holding each row's state j steps on,
    with the most digits a `walk_tables` path takes a lookup."""
    _, _, paths, base, k = walks[sign < 0]
    n, k, steps = len(start), k or 1, end - min(groups)
    blocks = [0] * max(len(lanes) for _, lanes in groups.values())
    for _, lanes in groups.values():
        for b, lane in enumerate(lanes):
            blocks[b] |= _int(lane)
    blocks, lanes = [_lane(b, n) for b in blocks], [start]
    while len(lanes) <= steps:
        j = len(lanes) - 1  # the steps walked
        m = min(len(paths), k - j % k, steps - j)
        lanes += _look(paths[m - 1], lanes[-1], _int(
            blocks[j // k].translate(_digits(base, j % k, m))))
    cols, lanes = [0] * (end + 1), [_int(lane) for lane in lanes]
    for t, (mask, _) in groups.items():
        for j, lane in enumerate(lanes[:end - t + 1]):
            cols[t + j] |= lane & mask
    return cols
