"""Subshifts of finite type with an exact lambda-adic metric.

Points are bi-infinite admissible sequences with eventually periodic
tails.  Two sequences sit at distance lam**-T where T is the largest n
such that they agree on every coordinate |i| <= n; the distance is
capped at lam when they already disagree at coordinate 0 and is 0 for
equal sequences.  Every distance is therefore an integer power of lam,
so the module works on the integer exponent (the "level") and all
metric arithmetic stays exact.  The shift acts to the left:
(shift a)(n) = a(n+1), which makes sequences sharing a future lie on a
common stable set and sequences sharing a past lie on a common unstable
set.
"""
import math
from functools import cached_property, lru_cache, reduce
from itertools import islice
from math import lcm
from operator import or_
from typing import NamedTuple

from ._streams import CHUNK, Rows, below, chunk_rngs

INF = math.inf


def _minimal_period(word):
    """Smallest d such that the bi-infinite tiling of `word` has period d."""
    return next(d for d in range(1, len(word) + 1)
                if word[d:] + word[:d] == word)


class BiSequence(NamedTuple):
    """Eventually periodic bi-infinite sequence in canonical form.

    Coordinates below `start` follow the periodic word `left` (phase
    anchored so that a(start-1) = left[-1]), the explicit window `mid`
    occupies [start, start+len(mid)), and everything at or above the
    window end follows `right` (a(end) = right[0]).  Construct through
    `bi_sequence` or a system's `point`; direct construction skips
    canonicalization and breaks equality.
    """

    left: tuple
    mid: tuple
    right: tuple
    start: int

    def __eq__(self, other):  # equal only to values of its own type
        return type(other) is type(self) and tuple.__eq__(self, other)

    __ne__, __hash__ = object.__ne__, tuple.__hash__  # __ne__ via __eq__

    @property
    def end(self):
        return self.start + len(self.mid)

    def at(self, i):
        if i < self.start:
            return self.left[(i - self.start) % len(self.left)]
        j = i - self.start
        if j < len(self.mid):
            return self.mid[j]
        return self.right[(i - self.end) % len(self.right)]

    def window(self, lo, hi):
        """Tuple of coordinates lo..hi inclusive."""
        return tuple(self.at(i) for i in range(lo, hi + 1))

    def shift(self, k=1):
        """The sequence b with b(n) = a(n+k).

        The canonical form is shift-covariant, so the shift only moves
        the start; a globally periodic sequence keeps start 0 and
        rotates its word instead.
        """
        if not self.mid and self.left == self.right:
            r = k % len(self.right)
            word = self.right[r:] + self.right[:r]
            return BiSequence(word, (), word, 0)
        return BiSequence(self.left, self.mid, self.right, self.start - k)

    def with_value(self, i, sym):
        """Functional single-coordinate update (no admissibility check)."""
        if not _is_symbol(sym):
            raise ValueError("symbols must be nonnegative integers")
        lo = min(i, self.start)
        mid = list(self.window(lo, max(i + 1, self.end) - 1))
        mid[i - lo] = sym
        return _splice(self, tuple(mid), self, lo)


def bi_sequence(left, mid=(), right=None, start=0):
    """Canonical BiSequence from tail words, a window and its start index."""
    left = tuple(left)
    mid = tuple(mid)
    right = tuple(right) if right is not None else left
    if not left or not right:
        raise ValueError("tail words must be nonempty")
    for w in (left, mid, right):
        if any(not _is_symbol(s) for s in w):
            raise ValueError("symbols must be nonnegative integers")
    d = _minimal_period(left)
    left = left[len(left) - d:]
    d = _minimal_period(right)
    right = right[:d]
    return _absorb(left, mid, right, start)


def _is_symbol(s):
    return isinstance(s, int) and s >= 0


def _absorb(left, mid, right, start):
    """Canonical BiSequence from minimal-period tails and a window."""
    # left tail absorbs window symbols that already follow its pattern
    while mid and mid[0] == left[0]:
        mid = mid[1:]
        left = left[1:] + left[:1]
        start += 1
    # right tail absorbs from the other end
    while mid and mid[-1] == right[-1]:
        mid = mid[:-1]
        right = right[-1:] + right[:-1]
    if not mid:
        # bare boundary between the two periodic tails: let the left
        # pattern keep eating while it matches; if it never stops the
        # sequence is globally periodic and gets the start=0 normal form
        for _ in range(lcm(len(left), len(right))):
            if left[0] != right[0]:
                break
            left = left[1:] + left[:1]
            right = right[1:] + right[:1]
            start += 1
        else:
            q = len(right)
            word = tuple(right[(j - start) % q] for j in range(q))
            return BiSequence(word, (), word, 0)
    return BiSequence(left, mid, right, start)


def _splice(past, mid, future, lo):
    """Canonical sequence following `past` below lo, `mid` on
    [lo, hi) and `future` from hi = lo + len(mid) on.

    Needs lo <= past.start and hi >= future.end, so each tail is one
    period of its source read next to the cut: a rotation of a
    canonical, minimal-period tail.  So the tails are trusted as they
    are, and `mid`, read from the same points, needs no symbol check.
    """
    hi = lo + len(mid)
    left = past.window(lo - len(past.left), lo - 1)
    right = future.window(hi, hi + len(future.right) - 1)
    return _absorb(left, mid, right, lo)


def agreement_level(a, b):
    """Largest n with a(i) = b(i) for all |i| <= n.

    Returns -1 when the sequences disagree at coordinate 0 (the capped
    regime) and math.inf when they are equal.  One scan outwards from
    0 over t and -t; each side stops at its periodic horizon, past
    which agreement over one common period means agreement for ever.
    """
    stop_r = max(a.end, b.end, 0) + lcm(len(a.right), len(b.right))
    stop_l = max(-a.start, -b.start, 0) + 1 + lcm(len(a.left), len(b.left))
    for t in range(max(stop_r, stop_l)):
        if t < stop_r and a.at(t) != b.at(t):
            return t - 1
        if 0 < t < stop_l and a.at(-t) != b.at(-t):
            return t - 1
    return INF


class TransitionMatrix(NamedTuple("TransitionMatrix", [("rows", tuple)])):
    """0/1 transition matrix of a subshift, at most 64 states."""

    def __new__(cls, rows):
        rows = tuple(tuple(r) for r in rows)
        n = len(rows)
        if not 1 <= n <= 64:
            raise ValueError("matrix must have between 1 and 64 states")
        if any(len(r) != n for r in rows):
            raise ValueError("matrix must be square")
        if any(v not in (0, 1) for r in rows for v in r):
            raise ValueError("entries must be 0 or 1")
        if any(not any(r) for r in rows):
            raise ValueError("zero row: every state needs a successor")
        if any(not any(c) for c in zip(*rows)):
            raise ValueError("zero column: every state needs a predecessor")
        rows = tuple(tuple(map(int, r)) for r in rows)  # 0.5 failed above
        return super().__new__(cls, rows)

    def __eq__(self, other):
        return type(other) is type(self) and tuple.__eq__(self, other)

    __ne__, __hash__ = object.__ne__, tuple.__hash__

    @property
    def n(self):
        return len(self.rows)

    @cached_property
    def successors(self):
        return tuple(tuple(j for j, v in enumerate(r) if v) for r in self.rows)

    def allows(self, word):
        """Whether every transition a -> b of the word is allowed."""
        return all(self.rows[a][b] for a, b in zip(word, word[1:]))

    @cached_property
    def predecessors(self):
        return self.transpose().successors

    @cached_property
    def primitive(self):
        """Wielandt test: primitive iff A^((n-1)^2 + 1) is positive, on
        rows as bitsets (bit b of row a of A^m: an m-step walk a -> b)."""
        full = (1 << self.n) - 1
        power, m = [sum(1 << b for b in s) for s in self.successors], 1
        while any(r != full for r in power):
            if m >= (self.n - 1) ** 2 + 1:
                return False
            power = [reduce(or_, (p for c, p in enumerate(power)
                                  if r >> c & 1)) for r in power]
            m *= 2
        return True

    @cached_property
    def _cycles(self):
        """`cycle_word(s)` for every state s."""
        return tuple(self.cycle_word(s) for s in range(self.n))

    @cached_property
    def _walks(self):
        """The batch walk tables, forward (successors) then backward
        (predecessors): per side (table, degree, paths, size, k).  Row s
        of the int8 table holds state s's options, ascending and padded
        with -1, and degree[s] (int64) counts them.  D is the lcm of the
        side's degrees, k <= 8 the largest with size = D**k <= 256, and
        paths[s, b, j] the state j + 1 steps from s when digit j of b
        (base D, least significant first) picks option digit * deg // D:
        each option takes D / deg digits, so a uniform block walks k
        uniform steps.  A block is one randbytes byte, its low bits, when
        D**k is a power of two, else `below(D**k)`.  D > 256: size 0, k 1
        and the option table as paths, for a draw below each degree."""
        import numpy as np
        out = []
        for options in (self.successors, self.predecessors):
            degree = np.array([len(o) for o in options], dtype=np.int64)
            table = np.full((self.n, degree.max()), -1, dtype=np.int8)
            for s, opts in enumerate(options):
                table[s, :len(opts)] = opts
            base = lcm(*degree.tolist())
            k = next((k for k in range(8, 0, -1) if base ** k <= 256), 0)
            # row j: digit j of every block; deg | D, so digit * deg // D
            # is digit // (D / deg)
            digits = np.indices((base,) * k).reshape(k, base ** k)[::-1]
            cur, steps = np.arange(self.n)[:, None], []
            for digit in digits:
                cur = table[cur, digit // (base // degree[cur])]
                steps.append(cur)
            out.append((table, degree, np.stack(steps, 2), base ** k, k)
                       if k else (table, degree, table[:, :, None], 0, 1))
        return tuple(out)

    def transpose(self):
        return TransitionMatrix(tuple(zip(*self.rows)))

    def cycle_word(self, s):
        """Shortest directed cycle through state s, as a word starting at s.

        Tiling the word periodically gives an admissible orbit; None when
        s lies on no cycle.
        """
        parent, queue = {}, [s]
        for u in queue:  # breadth first: the queue grows as it is read
            for t in self.successors[u]:
                if t == s:
                    path = [u]
                    while path[-1] != s:
                        path.append(parent[path[-1]])
                    return tuple(reversed(path))
                if t not in parent:
                    parent[t] = u
                    queue.append(t)
        return None


def _count_vectors(matrix):
    """Exact integer vectors A**k @ 1 for k = 0, 1, 2, ...

    Entry s of the k-th vector counts the admissible words of length
    k + 1 that start at s.
    """
    succ = matrix.successors
    v = [1] * matrix.n
    while True:
        yield v
        v = [sum(v[j] for j in s) for s in succ]


def _word_counts(matrix, max_length):
    """Exact word counts for lengths 0..max_length, from one walk."""
    walk = islice(_count_vectors(matrix), max_length)
    return [1] + [sum(v) for v in walk]


def count_words(matrix, length):
    """Number of admissible words of the given length (exact integer)."""
    if length < 0:
        raise ValueError("length must be nonnegative")
    return _word_counts(matrix, length)[length]


def iter_words(matrix, length):
    """All admissible words of the given length, lexicographic order."""
    if length == 0:
        yield ()
        return

    def rec(prefix):
        if len(prefix) == length:
            yield prefix
            return
        for s in matrix.successors[prefix[-1]]:
            yield from rec(prefix + (s,))

    for s in range(matrix.n):
        yield from rec((s,))


def spectral_radius(matrix):
    """Perron root and right eigenvector (sup-normalized) by power iteration.

    Requires a primitive matrix; convergence is declared when both the
    eigenvalue estimate and the vector are stable to 1e-12 relative.
    """
    if not matrix.primitive:
        raise ValueError("spectral data requires a primitive matrix")
    n = matrix.n
    tol = 1e-12
    v = [1.0 / n] * n
    est = None
    for _ in range(200_000):
        w = [sum(v[j] for j in matrix.successors[i]) for i in range(n)]
        s = sum(w)
        w = [x / s for x in w]
        prev, est = est, s
        if prev is not None and abs(est - prev) <= tol * est:
            if max(abs(a - b) for a, b in zip(w, v)) <= tol:
                top = max(w)
                return est, tuple(x / top for x in w)
        v = w
    raise ArithmeticError("power iteration did not converge")


@lru_cache(maxsize=None)
def _parry_data(matrix):
    rho, v = spectral_radius(matrix)
    _, u = spectral_radius(matrix.transpose())
    z = sum(a * b for a, b in zip(u, v))
    pi = tuple(a * b / z for a, b in zip(u, v))
    return rho, v, pi


def parry_measure(matrix, word):
    """Parry (maximal entropy) mass of the cylinder on `word`.

    Inadmissible words get mass 0; the start index of the cylinder is
    irrelevant by shift invariance.
    """
    word = tuple(word)
    if any(not 0 <= s < matrix.n for s in word):
        raise ValueError("symbol out of range")
    if not word:
        return 1.0
    if not matrix.allows(word):
        return 0.0
    return _parry_mass(matrix, word[0], word[-1], len(word))


def _parry_mass(matrix, a, b, length):
    """Parry mass of any admissible word of the given length from state
    a to state b: pi[a] times the steps v[y] / (rho v[x]), telescoped."""
    rho, v, pi = _parry_data(matrix)
    return pi[a] * v[b] / (v[a] * rho ** (length - 1))


class ShiftSystem(NamedTuple("ShiftSystem", [("matrix", TransitionMatrix),
                                              ("lam", float)])):
    """Two-sided subshift with the exact lam**-T metric.

    Conforms to the metric-system protocol used across the package:
    apply/apply_inv, dist, lam, xi, diameter, bracket.
    """

    def __new__(cls, matrix, lam=2.0):
        if not 1 < lam < INF:
            raise ValueError("expanding factor must exceed 1")
        return super().__new__(cls, matrix, lam)

    def __eq__(self, other):
        return type(other) is type(self) and tuple.__eq__(self, other)

    __ne__, __hash__ = object.__ne__, tuple.__hash__

    space_kind = "symbolic"
    invertible = True
    has_bracket = True
    tol_default = 0.0

    @property
    def xi(self):
        return 1.0 / self.lam

    @property
    def diameter(self):
        return self.lam

    # -- points ------------------------------------------------------

    def point(self, left, mid=(), right=None, start=0):
        seq = bi_sequence(left, mid, right, start)
        self._check_range(seq.left, seq.mid, seq.right)
        return self._checked(seq)

    def _check_range(self, *words):
        n = self.matrix.n
        for w in words:
            if w and (min(w) < 0 or max(w) >= n):
                raise ValueError("symbol out of range")

    def _checked(self, seq):
        if not self.admissible(seq):
            raise ValueError("sequence has a forbidden transition")
        return seq

    def constant(self, s):
        return self.point((s,))

    def admissible(self, seq):
        # each tail's wrap edge, then left, mid and right in order
        path = seq.left[-1:] + seq.left + seq.mid + seq.right + seq.right[:1]
        return self.matrix.allows(path)

    # -- dynamics and metric ------------------------------------------

    def apply(self, x):
        return x.shift(1)

    def apply_inv(self, x):
        return x.shift(-1)

    def level(self, x, y):
        return agreement_level(x, y)

    def dist(self, x, y):
        lev = agreement_level(x, y)
        if lev is INF:
            return 0.0
        return self.lam ** (-lev)

    def _pair_levels(self, pairs, steps):
        """The pair batch: level(f^s x, f^s y) for every pair, one list
        per step s, when the pairs are this system's sampled rows (`Rows`
        over [-w, w]) and every |s| < w; else None.  The level is t - 1
        for the first t at which the rows differ at coordinate s + t or
        s - t.  Rows with no difference within t <= w - |s| are math.inf
        if equal (equal rows spell equal points), else they take the
        scalar level.
        """
        own = isinstance(pairs, Rows) and pairs.point == self._row_point
        w = pairs.cols[0].shape[1] // 2 if own else 0
        if not max(map(abs, steps)) < w:
            return None
        import numpy as np
        xs, ys = pairs.cols
        differ = xs != ys
        equal = ~differ.any(axis=1)
        rows = np.arange(len(pairs))
        out = []
        for s in steps:
            order = [w + s] + [w + s + u for t in range(1, w - abs(s) + 1)
                               for u in (t, -t)]
            scan = differ[:, order]
            first = scan.argmax(axis=1)
            levels = ((first + 1) // 2 - 1).tolist()
            for i in np.flatnonzero(~scan[rows, first] & ~equal).tolist():
                x, y = pairs[i]
                levels[i] = agreement_level(x.shift(s), y.shift(s))
            for i in np.flatnonzero(equal).tolist():
                levels[i] = INF
            out.append(levels)
        return out

    # -- product structure ---------------------------------------------

    def bracket(self, x, y):
        """Splice: future of x, past of y (requires x(0) = y(0)).

        The result is the unique point on the stable set of x and the
        unstable set of y at this scale.
        """
        if x.at(0) != y.at(0):
            raise ValueError("bracket needs agreement at coordinate 0")
        lo = min(y.start, 0)
        mid = y.window(lo, -1) + x.window(0, max(x.end, 1) - 1)
        z = _splice(y, mid, x, lo)
        assert self.admissible(z)
        return z

    def triangle_vertex(self, x, y):
        """Third vertex of the dynamical triangle: past of x, future of y."""
        return self.bracket(y, x)

    def _pair_brackets(self, pairs):
        """`triangle_vertex(x, y)` of every pair, when the pairs are this
        system's sampled rows; else None.  The rows splice, x's columns
        below coordinate 0 and y's from 0 on, into `Rows` of points: its
        ends are x's and y's, so each built point is the scalar vertex."""
        if not (isinstance(pairs, Rows) and pairs.point == self._row_point):
            return None
        import numpy as np
        xs, ys = pairs.cols
        c = xs.shape[1] // 2
        if (xs[:, c] != ys[:, c]).any():
            raise ValueError("bracket needs agreement at coordinate 0")
        return Rows((np.concatenate((xs[:, :c], ys[:, c:]), axis=1),),
                    self._row_point)

    # -- sampling -------------------------------------------------------

    def random_point(self, rng, window=6):
        """Point through a random walk of `window` steps each way from a
        uniform state, with each end extended until it reaches a state
        on a cycle.

        Stream contract: the start is `rng.randrange(n)` and every step
        an `rng.choice` over the successors (forward) or predecessors
        (backward): forward walk first, then backward, then the backward
        and the forward extensions.  Stored reports depend on it.
        """
        A = self.matrix
        succ, pred, cycles = A.successors, A.predecessors, A._cycles
        s = rng.randrange(A.n)
        fwd, back = [s], [s]
        for path, options in ((fwd, succ), (back, pred)):
            for _ in range(window):
                path.append(rng.choice(options[path[-1]]))
        for path, options in ((back, pred), (fwd, succ)):
            guard = A.n + 1
            while cycles[path[-1]] is None and guard:
                path.append(rng.choice(options[path[-1]]))
                guard -= 1
        back.reverse()
        return self.point_through(back[:-1] + fwd, 1 - len(back))

    def point_through(self, word, start):
        """Admissible point whose window [start, start + len(word)) is
        `word`, with periodic tails on the shortest cycles at its ends.
        An end on no cycle is first followed through first predecessors
        (successors) to a state on one: such a walk always reaches a
        cycle, since every state has a predecessor and a successor.

        The left tail tiles the cycle at the first state, so its wrap
        edge feeds it; the right tail is the cycle at the last state
        rotated one step, so it starts one step past it.  A shortest
        cycle has minimal period (a shorter period would close a
        shorter cycle), so both tails are canonical as they stand.
        """
        word = tuple(word)
        if not word:
            raise ValueError("word must be nonempty")
        self._check_range(word)
        A = self.matrix
        cycles = A._cycles
        while cycles[word[0]] is None:
            word, start = (A.predecessors[word[0]][0],) + word, start - 1
        while cycles[word[-1]] is None:
            word += (A.successors[word[-1]][0],)
        head, tail = cycles[word[0]], cycles[word[-1]]
        return self._checked(_absorb(head, word, tail[1:] + tail[:1], start))

    def sample_pairs(self, count, seed=0, levels=(1, 8)):
        """Seeded pairs at exact agreement levels drawn from `levels`, as
        a read-only sequence of (x, y) built on access.

        Every pair satisfies 0 < dist <= xi; the level of each pair is
        exact by construction: y is x with its tail from coordinate
        +-(level + 1) on redrawn (see `_sample`).
        """
        lo, hi = levels
        if lo < 1:
            raise ValueError("levels below 1 leave the self-similar regime")
        if lo > hi:
            raise ValueError("levels must be a range (lo, hi) with lo <= hi")
        # the level scan at steps +-1 reads out to coordinate +-(hi + 3)
        return self._sample(count, seed, hi + 3, ((lo + 1, hi + 1, 0),))

    def _sample(self, count, seed, reach, cuts):
        """`count` seeded rows (walk, copy, ...) over [-reach, reach]:
        a walk from a uniform state at 0 to uniform successors (and
        predecessors) out to each end, and per cut (lo, hi, side) a copy
        that leaves it at coordinate side * r, r uniform in lo..hi (side
        0: either side), for another option there and walks on.  Rows
        with no such option are dropped.  Chunk k of the seed draws
        CHUNK candidates: the start states, cut columns, sides and
        options through `below`, and each walk in blocks of `_walks`
        (`_walk_on`).  The rows kept are read in chunk order: the first
        rows are the same at every count.  It stalls past 64 count +
        1024 candidates, and before any when no state has a second
        successor (side 1) or predecessor (side -1) on a cut's side
        (side 0: on either)."""
        import numpy as np
        if count < 0:
            raise ValueError("count must be nonnegative")
        fwd, bwd = (degree.max() > 1 for _, degree, *_ in self.matrix._walks)
        rigid = not all((fwd or bwd, fwd, bwd)[side] for _, _, side in cuts)
        budget = 64 * count + 1024
        parts = [[np.zeros((0, 2 * reach + 1), dtype=np.int8)] * (
            1 + len(cuts))]
        have = 0
        for k, rng in enumerate(chunk_rngs(seed)):
            if have >= count:
                break
            if rigid or k * CHUNK >= budget:
                raise ArithmeticError("sampling stalled; matrix too rigid")
            x = np.empty((CHUNK, 2 * reach + 1), dtype=np.int8)
            x[:, reach] = below(rng, np.full(CHUNK, self.matrix.n))
            every, ok = np.arange(CHUNK), np.ones(CHUNK, dtype=bool)
            for sign in (1, -1):
                self._walk_on(rng, x, sign, every, np.zeros(CHUNK, dtype=int))
            rows = [x]
            for lo, hi, side in cuts:
                r = lo + below(rng, np.full(CHUNK, hi - lo + 1))
                sides = np.full(CHUNK, side) if side else (
                    2 * below(rng, np.full(CHUNK, 2)) - 1)
                rows.append(x.copy())
                for sign in (1, -1):
                    at = np.flatnonzero(sides == sign)
                    ok[at] &= self._branch(rng, rows[-1], sign, at, r[at])
            ok[budget - k * CHUNK:] = False  # candidates past the budget
            parts.append([a[ok] for a in rows])
            have += int(ok.sum())
        return Rows((np.concatenate(col)[:count] for col in zip(*parts)),
                    self._row_point)

    def _branch(self, rng, x, sign, rows, r):
        """Rows `rows` of x take another option than theirs at coordinate
        sign * r[i] and walk on; returns which of them had one."""
        table, degree, *_ = self.matrix._walks[sign < 0]
        half = x[:, x.shape[1] // 2::sign]  # column t: coordinate sign * t
        prev, old = half[rows, r - 1], half[rows, r]
        alts = degree[prev] - 1
        ok = alts > 0
        rows, r, prev, old = rows[ok], r[ok], prev[ok], old[ok]
        # options ascend: skip old by stepping past every option below it
        pick = below(rng, alts[ok])
        half[rows, r] = table[prev, pick + (table[prev, pick] >= old)]
        self._walk_on(rng, x, sign, rows, r)
        return ok

    def _walk_on(self, rng, x, sign, rows, r):
        """Rows `rows` of x walk from coordinate sign * r[i] out to their
        end, to a uniform successor (sign 1) or predecessor per step, k
        steps (one k-byte item of the `_walks` paths) per lookup.  The
        rows of one start column draw their blocks in one call, row by
        row."""
        import numpy as np
        _, degree, paths, size, k = self.matrix._walks[sign < 0]
        steps = paths.reshape(-1, k).view(np.dtype((np.void, k)))[:, 0]
        half = x[:, x.shape[1] // 2::sign]
        end = half.shape[1]
        for t in np.flatnonzero(np.bincount(r)).tolist():
            group, blocks = rows[r == t], -(-(end - 1 - t) // k)
            if size & (size - 1):
                digits = below(rng, np.full(len(group) * blocks, size))
            elif size:
                digits = np.frombuffer(rng.randbytes(len(group) * blocks),
                                       np.uint8) & (size - 1)
            path = np.empty((len(group), blocks), steps.dtype)
            walked, cur = path.view(np.int8), half[group, t]
            for b in range(blocks):
                pick = digits[b::blocks] if size else below(rng, degree[cur])
                path[:, b] = steps[cur.astype(np.intp) * paths.shape[1] + pick]
                cur = walked[:, b * k + k - 1]
            half[group, t + 1:] = walked[:, :end - 1 - t]

    def _row_point(self, row):
        """The point a sampled row spells, its middle column coordinate
        0."""
        return self.point_through(row.tolist(), -(len(row) // 2))


def sft_new(rows, lam=2.0):
    """Build a two-sided subshift system from 0/1 transition rows."""
    matrix = rows if isinstance(rows, TransitionMatrix) else TransitionMatrix(
        tuple(tuple(r) for r in rows)
    )
    return ShiftSystem(matrix, float(lam))


def full_shift(n_symbols=2, lam=2.0):
    rows = tuple(tuple(1 for _ in range(n_symbols)) for _ in range(n_symbols))
    return sft_new(rows, lam)


def golden_mean(lam=2.0):
    return sft_new(((1, 1), (1, 0)), lam)


def four_symbol(lam=2.0):
    """Reducible 4-state example: states 2,3 absorb the forward orbit."""
    return sft_new(((1,) * 4, (1,) * 4, (0, 0, 1, 1), (0, 0, 1, 1)), lam)


def _window_count(sys, eps, k=0):
    """Minimal number of sets of d_k-diameter < eps covering the subshift.

    Sets of d_k-diameter < lam**(k-w) are exactly the subsets of central
    (2w+1)-cylinders, and those cylinders partition the space, so the
    count is the number of admissible words of length 2w+1 with
    w = min{w >= 0 : lam**(k-w) < eps}.
    """
    if not eps > 0:
        raise ValueError("eps must be positive")
    if eps > sys.diameter * sys.lam ** k:
        return 1
    w = 0
    while sys.lam ** (k - w) >= eps:
        w += 1
        if w - k > 10_000:
            raise ArithmeticError("eps too small for float exponents")
    return count_words(sys.matrix, 2 * w + 1)


def exact_cov(sys, eps):
    """Minimal number of sets of diameter < eps covering the subshift."""
    return _window_count(sys, eps)
