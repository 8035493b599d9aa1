"""Hyperbolic 2x2 toral automorphisms with an exact-scaling max metric.

The metric measures the stable and unstable eigencoordinates of the
offset between two points, takes the larger, raises it to the one
exponent e = log lam / log |mu_u| (|det A| = 1 gives |mu_s| = 1/|mu_u|,
so one step of the map scales both sides by exactly lam), and minimizes
over the nine nearest lattice translates.  Everything is double
precision; the one-step identity then holds to roundoff (about 1e-15)
because the eigencoordinates transform exactly by the eigenvalues.

Both metrics here depend on the offset y - x only, and f^j y - f^j x =
A^j (y - x) mod Z^2: a scalar distance is one nine-translate search
(`_nearest`), and every d_k norm and Euclidean array of distances reads
one offset recurrence (`ToralSystem._offset_orbit`).  Each metric has
one orbit hook, `_orbit_dists(pairs, lo, hi)`, which core reads: it
yields the array of dist(f^j x, f^j y) for lo <= j <= hi.  The
Euclidean hook reads the offset recurrence.  The self-similar hook
instead runs the nine-translate search on arrays of points mapped as
`apply` maps them, so that it equals the scalar `dist` bit for bit;
`ToralSystem._pair_brackets` reads the unstable coordinate of the same
picked translate and equals `bracket`.  The array searches take the
centre translate of each row with norm at most injectivity/4, where
subadditivity puts every other translate 3 times farther (`_search`).
The samplers read item i from row i of `_streams.uniforms` and return
`_streams.Rows` of `_point`, one (N, 2) array per tuple slot, read by
the hooks as they are.  One rounding rule: whatever numpy's vectorised
loops could round differently from the scalar code (cos, sin, powers but
x ** 1.0) goes through the libm function elementwise (`_each`, `_pow`),
so the array norms are the scalar floats and the array search picks the
scalar search's translate on every row, exact ties included.
"""
import math
from functools import reduce
from itertools import repeat
from numbers import Real

import numpy as np

from ._streams import Rows, uniforms

_NINE = tuple((i, j) for i in (-1, 0, 1) for j in (-1, 0, 1))
# relative tolerance of `ToralSystem.sample_pairs` on each pair's target
_SAMPLE_RTOL = 1e-9


def _each(f, a, *args):
    """f applied to every element of the array a as a Python float (with
    any further iterables as further arguments, in a's flat order), as an
    array of a's shape.  For the libm functions whose numpy loops can
    differ in the last bit."""
    return np.fromiter(map(f, a.ravel().tolist(), *args), float,
                       a.size).reshape(a.shape)


def _pow(a, e):
    """`_each` of builtin `pow` to the power e, but a itself where e is
    1.0 (x ** 1.0 is x): the exponent of every default lam."""
    return a if e == 1.0 else _each(pow, a, repeat(e))


def _point(row):
    """The toral point of a sampled row: a tuple of Python floats."""
    return tuple(row.tolist())


def _coords(pairs):
    """(x, y) of a pair sequence, each point as a (2, N) array of its
    coordinates, the form `apply` maps."""
    if isinstance(pairs, Rows) and pairs.point is _point:
        return tuple(a.T for a in pairs.cols)
    return tuple(np.array(pairs, dtype=float).reshape(-1, 2, 2)
                 .transpose(1, 2, 0))


def _eigen_2x2(m):
    """Real eigenvalues and unit eigenvectors of an integer 2x2 matrix."""
    (a, b), (c, d) = m
    tr = a + d
    det = a * d - b * c
    disc = tr * tr - 4 * det
    if disc <= 0:
        raise ValueError("matrix is not hyperbolic (complex or repeated roots)")
    r = math.sqrt(disc)
    roots = ((tr - r) / 2.0, (tr + r) / 2.0)
    if any(abs(abs(mu) - 1.0) < 1e-12 for mu in roots):
        raise ValueError("matrix is not hyperbolic (eigenvalue on unit circle)")
    pairs = []
    for mu in roots:
        v1 = (b, mu - a)
        v2 = (mu - d, c)
        v = v1 if math.hypot(*v1) >= math.hypot(*v2) else v2
        norm = math.hypot(*v)
        v = (v[0] / norm, v[1] / norm)
        if v[0] < 0 or (v[0] == 0 and v[1] < 0):
            v = (-v[0], -v[1])
        pairs.append((mu, v))
    pairs.sort(key=lambda p: abs(p[0]))
    return pairs  # (stable, unstable)


class ToralSystem:
    """Anosov automorphism of the 2-torus under the self-similar metric.

    Construction computes the diameter over a 16 x 16 offset grid and
    runs the one-step identity sweep of `_validate`; an xi too large
    for the nine-translate reduction raises ArithmeticError there, and
    a lam so small that xi/8 lies below the smallest sound sampling
    scale (see `sample_pairs`) raises ValueError.  An xi that is not a
    positive number raises ValueError before the sweep.
    """

    space_kind = "toral"
    invertible = True
    has_bracket = True
    tol_default = 1e-9

    def __init__(self, matrix, lam=None, xi=0.05):
        # int() would truncate a fraction and parse a string: reject both
        if any(not isinstance(v, Real) or v % 1 for r in matrix for v in r):
            raise ValueError("matrix entries must be integers")
        rows = tuple(tuple(int(v) for v in r) for r in matrix)
        if len(rows) != 2 or any(len(r) != 2 for r in rows):
            raise ValueError("matrix must be 2x2")
        (a, b), (c, d) = rows
        det = a * d - b * c
        if abs(det) != 1:
            raise ValueError("matrix must have determinant +-1")
        self.matrix = rows
        self.det = det
        sgn = 1 if det == 1 else -1
        self.inverse = ((d * sgn, -b * sgn), (-c * sgn, a * sgn))
        (mu_s, v_s), (mu_u, v_u) = _eigen_2x2(rows)
        self.eig_stable, self.eig_unstable = mu_s, mu_u
        self.v_stable, self.v_unstable = v_s, v_u
        lam_sup = abs(mu_u)
        if lam is None:
            lam = lam_sup
        if not 1.0 < lam <= lam_sup * (1 + 1e-12):
            raise ValueError(
                f"lam must lie in (1, {lam_sup:.12g}] for this matrix"
            )
        self.lam = float(lam)
        # |det| = 1 makes |mu_s| = 1/|mu_u|: one exponent scales both
        # sides by lam, read from the root without cancellation
        self.e = math.log(self.lam) / math.log(abs(mu_u))
        # inverse of the eigenbasis matrix, for the su coordinate change
        det_v = v_s[0] * v_u[1] - v_s[1] * v_u[0]
        self._B = (
            (v_u[1] / det_v, -v_u[0] / det_v),
            (-v_s[1] / det_v, v_s[0] / det_v),
        )
        # (w_s, w_u): |s| <= w_s h and |u| <= w_u h on an ambient box of
        # half-width h, for cover grids and Bowen boxes
        self._su_widths = tuple(abs(r[0]) + abs(r[1]) for r in self._B)
        # smallest scale whose sampled pairs can meet their targets: each
        # offset coordinate of a sampled pair carries up to 2**-52 of
        # roundoff (the sum and wrap of y = x + off, then y - x), so s or
        # u up to w * 2**-52, which moves |s|**e by e * w * 2**-52 / |s|
        # relative; the binding coordinate has |s| >= (scale/2)**(1/e)
        self._min_scale = 2 * (self.e * max(self._su_widths) * 2.0**-52
                               / _SAMPLE_RTOL) ** self.e
        if not xi > 0:
            raise ValueError(f"xi={xi} must be a positive number")
        # nine lattice translates are enough only well below the shortest
        # nonzero lattice vector in this metric
        self.injectivity = min(
            self._rho(*self._su(float(i), float(j)))
            for i in range(-2, 3)
            for j in range(-2, 3)
            if (i, j) != (0, 0)
        )
        if not xi <= self.injectivity / 4:
            raise ValueError(
                f"xi={xi} too large: needs xi <= {self.injectivity / 4:.6g}"
            )
        self.xi = float(xi)
        # coarse diameter: the metric's max over a 16 x 16 offset grid
        grid = np.arange(16) / 16
        self.diameter = float(self.offset_norm(*np.meshgrid(grid, grid)).max())
        self._validate()

    # -- coordinates ---------------------------------------------------

    def _su(self, dx, dy):
        B = self._B
        return (B[0][0] * dx + B[0][1] * dy, B[1][0] * dx + B[1][1] * dy)

    def _rho(self, s, u):
        return max(abs(s), abs(u)) ** self.e

    # -- dynamics --------------------------------------------------------

    def apply(self, x):
        (a, b), (c, d) = self.matrix
        return ((a * x[0] + b * x[1]) % 1.0, (c * x[0] + d * x[1]) % 1.0)

    def apply_inv(self, x):
        (a, b), (c, d) = self.inverse
        return ((a * x[0] + b * x[1]) % 1.0, (c * x[0] + d * x[1]) % 1.0)

    # -- metric ----------------------------------------------------------

    def _nearest(self, x, y):
        """(norm, offset): the smallest metric norm over the nine nearest
        lattice translates of y - x, taken around its nearest lattice
        representative as in `offset_norm`, and the translate that
        attains it."""
        dx, dy = y[0] - x[0], y[1] - x[1]
        dx -= round(dx)
        dy -= round(dy)
        best, arg = math.inf, (dx, dy)
        for wx, wy in _NINE:
            s, u = self._su(dx + wx, dy + wy)
            r = self._rho(s, u)
            if r < best:
                best, arg = r, (dx + wx, dy + wy)
        return best, arg

    def dist(self, x, y):
        return self._nearest(x, y)[0]

    def _su_norm(self, u, v):
        s, t = self._su(u, v)
        return s, t, _pow(np.maximum(np.abs(s), np.abs(t)), self.e)

    def _translates(self, u, v):
        """`_su_norm` of the nine nearest translates, in `_NINE` order."""
        return (self._su_norm(u + wx, v + wy) for wx, wy in _NINE)

    def _search(self, u, v):
        """(norm, s, t) of offset arrays u, v at their nearest lattice
        representatives, as the scalar strict-< scan over the nine
        translates finds them: the smallest norm and the su coordinates
        of the first translate that attains it.  Only rows with centre
        norm > injectivity/4 are scanned: for e <= 1, |a + b|**e <=
        |a|**e + |b|**e, so the norm is subadditive and every other
        translate v + w has norm >= injectivity - norm(v) >= 3 norm(v):
        the scan picks the centre.  The factor 3 covers e <= 1 + 2.1e-12
        (the constructor's bound on lam)."""
        s, t, best = self._su_norm(u, v)
        far = best > self.injectivity / 4
        if far.any():
            r1 = s1 = t1 = np.inf
            for ws, wt, r in self._translates(u[far], v[far]):
                closer = r < r1
                r1, s1, t1 = (np.where(closer, new, old) for new, old in
                              ((r, r1), (ws, s1), (wt, t1)))
            best[far], s[far], t[far] = r1, s1, t1
        return best, s, t

    def _orbit_dists(self, pairs, lo, hi):
        """The orbit hook: yield (j, dist(f^j x, f^j y) for every pair)
        for lo <= j <= hi, equal bit for bit to the scalar `dist` of the
        iterates.

        The points are mapped as arrays by `apply` and `apply_inv`
        (np.remainder is Python's float %), and one array search of
        `_nearest_norms` picks each pair's translate and its norm.
        """
        x, y = _coords(pairs)
        if lo <= 0 <= hi:
            yield 0, self._nearest_norms(x, y)[0]
        for move, js in ((self.apply, range(1, hi + 1)),
                         (self.apply_inv, range(-1, lo - 1, -1))):
            u, v = x, y
            for j in js:
                u, v = move(u), move(v)
                if lo <= j <= hi:
                    yield j, self._nearest_norms(u, v)[0]

    def _nearest_norms(self, x, y):
        """(norms, t) for the points x, y (as `_coords` gives them) of
        every row, by `_search`: each row's `dist` and the unstable
        coordinate of the translate that attains it."""
        dx, dy = y[0] - x[0], y[1] - x[1]
        norms, _, t = self._search(dx - np.round(dx), dy - np.round(dy))
        return norms, t

    def _offset_orbit(self, du, dv, reach):
        """Yield (j, u, v): the offset arrays f^j y - f^j x, each at its
        nearest lattice representative, for j = 0, 1, ..., reach and
        then j = -1, ..., -reach, from reduced offsets du, dv (step 0).

        f^j y - f^j x = A^j (y - x) mod Z^2, so each direction is one
        recurrence delta <- wrap(A delta) on the offset, never a
        difference of two mapped points.
        """
        yield 0, du, dv
        for sign, ((a, b), (c, d)) in ((1, self.matrix), (-1, self.inverse)):
            u, v = du, dv
            for j in range(1, reach + 1):
                u, v = a * u + b * v, c * u + d * v
                u -= np.round(u)
                v -= np.round(v)
                yield sign * j, u, v

    def offset_norm(self, dx, dy, k=0):
        """d_k norm of offset arrays y - x (k=0: the metric itself).

        The max over |j| <= k of the metric of each offset of
        `_offset_orbit`, minimised over its nine nearest translates by
        `_search` (the centre itself up to injectivity/4).  That is the
        true d_k well below the injectivity scale and an overestimate
        otherwise, which keeps cover and packing decisions sound.  The
        metric is translation-invariant, so on a regular grid the d_k
        ball around every grid point holds the same index offsets: one
        call over them serves the whole grid.
        """
        orbit = self._offset_orbit(dx - np.round(dx), dy - np.round(dy), k)
        return reduce(np.maximum, (self._search(u, v)[0] for _, u, v in orbit))

    def ball_half_widths(self, radius, k=0):
        """Ambient (x, y) half-widths of the d_k ball of this radius.

        The ball is an su box: the stable side binds at step -k and the
        unstable side at step +k, each shrinking by mu**-k.
        """
        ext = radius ** (1 / self.e) * abs(self.eig_unstable) ** (-k)
        vs, vu = self.v_stable, self.v_unstable
        return (ext * abs(vs[0]) + ext * abs(vu[0]),
                ext * abs(vs[1]) + ext * abs(vu[1]))

    # -- product structure -------------------------------------------------

    def bracket(self, x, y):
        """Unique point on the unstable line of x and stable line of y."""
        r, delta = self._nearest(x, y)
        if r >= self.xi:
            raise ValueError("pair outside the bracket domain")
        _, u = self._su(*delta)
        vu = self.v_unstable
        return ((x[0] + u * vu[0]) % 1.0, (x[1] + u * vu[1]) % 1.0)

    def _pair_brackets(self, pairs):
        """Pair batch: `bracket` of every pair, equal to it bit for bit.

        The unstable coordinate t of each pair's picked translate comes
        from the array search of `_nearest_norms`, and the point is
        x + t * v_unstable wrapped by np.remainder, the IEEE operations
        of the scalar `bracket`.  A pair outside the domain raises its
        error.
        """
        x, y = _coords(pairs)
        norms, t = self._nearest_norms(x, y)
        if np.any(norms >= self.xi):
            raise ValueError("pair outside the bracket domain")
        vu = self.v_unstable
        out = np.column_stack((np.remainder(x[0] + t * vu[0], 1.0),
                               np.remainder(x[1] + t * vu[1], 1.0)))
        return Rows((out,), _point)

    def triangle_vertex(self, x, y):
        return self.bracket(x, y)

    # -- sampling ------------------------------------------------------------

    def sample_points(self, count, seed=0):
        return Rows((uniforms(count, seed, 2),), _point)

    def sample_pairs(self, count, scale, seed=0):
        """Seeded pairs with dist in [scale/2, scale], stratified in angle.

        The offset direction sweeps the stable/unstable mixture circle in
        jittered strata; the radius is solved exactly, then every pair
        is checked against its target in one `offset_norm` call.  Pair i
        reads row i of `uniforms(count, seed, 4)` (angle jitter, target,
        x0, x1); the strata depend on `count`, the draws do not.  A
        scale below the roundoff floor of that check raises ValueError.
        """
        x0, x1, y0, y1, _ = self._sample_coords(count, scale, seed)
        return Rows((np.column_stack((x0, x1)), np.column_stack((y0, y1))),
                    _point)

    def _sample_coords(self, count, scale, seed):
        """The coordinate arrays x0, x1, y0, y1 of `sample_pairs`, and
        the array of their distances, `offset_norm(y0 - x0, y1 - x1)`."""
        if not scale < self.xi:
            raise ValueError("scale must be below xi")
        if scale <= 0:
            raise ValueError("scale must be positive")
        if scale < self._min_scale:
            raise ValueError(
                f"scale {scale:.6g} is below {self._min_scale:.6g}, the "
                "smallest at which double roundoff lets a sampled pair "
                "hit its target distance")
        jitter, frac, x0, x1 = uniforms(count, seed, 4).T
        theta = 2 * math.pi * (np.arange(count) + jitter) / count
        targets = scale * (0.5 + 0.5 * frac)
        cs, sn = _each(math.cos, theta), _each(math.sin, theta)
        # the binding side is the larger of |cos| and |sin|
        c = _pow(targets, 1.0 / self.e) / np.maximum(np.abs(cs), np.abs(sn))
        vs, vu = self.v_stable, self.v_unstable
        y0 = np.remainder(x0 + c * (cs * vs[0] + sn * vu[0]), 1.0)
        y1 = np.remainder(x1 + c * (cs * vs[1] + sn * vu[1]), 1.0)
        d = self.offset_norm(y0 - x0, y1 - x1)
        if np.any(np.abs(d - targets) > _SAMPLE_RTOL * targets):
            raise ArithmeticError("sampled pair missed its target distance")
        return x0, x1, y0, y1, d

    # -- construction-time check ------------------------------------------

    def _validate(self):
        """Identity sweep at dist <= xi; fails loudly if xi is too greedy.

        Checks 2 x 5000 sampled pairs, near xi and at xi/8.  The d_1
        norm is max(d, d o f, d o f^-1), which equals lam * d exactly
        when one step scales the pair by lam, so the sweep is one ratio
        over the pair offsets: d is the sampler's own target check, and
        only the steps +-1 are searched here.  Returns the worst
        deviation.
        """
        worst = 0.0
        for scale, seed in ((self.xi * 0.999, 1), (self.xi / 8, 2)):
            x0, x1, y0, y1, d = self._sample_coords(5000, scale, seed)
            dx, dy = y0 - x0, y1 - x1
            orbit = self._offset_orbit(dx - np.round(dx), dy - np.round(dy),
                                       1)
            next(orbit)  # step 0, whose norm is d
            d1 = reduce(np.maximum, (self._search(u, v)[0]
                                     for _, u, v in orbit), d)
            worst = max(worst, float(np.abs(d1 / (self.lam * d) - 1.0).max()))
        if worst > 1e-9:
            raise ArithmeticError(
                f"xi={self.xi} fails the one-step identity (dev {worst:.3g}); "
                "choose a smaller xi"
            )
        return worst


def toral_new(matrix, lam=None, xi=0.05):
    """Hyperbolic toral system; lam defaults to the supremal factor."""
    return ToralSystem(matrix, lam, xi)


def cat_map(lam=None):
    return toral_new(((2, 1), (1, 1)), lam)


class EuclideanTorus:
    """Euclidean quotient metric on the same automorphism.

    Not self-similar; adapted below its xi for any lam up to
    sqrt((mu^2 + mu^-2)/2), so it serves as the base of a genuinely
    nontrivial sup-refinement.  The triangle vertex and its batch are the
    eigenline geometry's, which do not depend on the metric.  The
    offsets of a pair's orbit come from the geometry's `_offset_orbit`,
    and the orbit hook `_orbit_dists` takes np.hypot of each.
    """

    space_kind = "toral"
    invertible = True
    has_bracket = True
    tol_default = 1e-9

    def __init__(self, base, xi=0.02):
        if not 0 < xi < math.inf:
            raise ValueError(f"xi={xi} must be a positive finite number")
        self.geometry = base
        self._pair_brackets = base._pair_brackets
        self.xi = xi
        self.diameter = math.sqrt(2) / 2
        mu = abs(base.eig_unstable)
        self.lam_sup = math.sqrt((mu * mu + 1.0 / (mu * mu)) / 2.0)

    def apply(self, x):
        return self.geometry.apply(x)

    def apply_inv(self, x):
        return self.geometry.apply_inv(x)

    def dist(self, x, y):
        return math.hypot(*(_nearest_offset(a, b, round(b - a))
                            for a, b in zip(x, y)))

    def _orbit_dists(self, pairs, lo, hi):
        """The orbit hook: yield (j, dist(f^j x, f^j y) for every pair)
        for lo <= j <= hi, over the geometry's `_offset_orbit`.  Step 0
        starts from each pair's nearest offset, as `dist` does, and is
        within one rounding (np.hypot against math.hypot) of it."""
        x, y = _coords(pairs)
        du, dv = (_nearest_offset(a, b, np.round(b - a)) for a, b in zip(x, y))
        for j, u, v in self.geometry._offset_orbit(du, dv, max(-lo, hi)):
            if lo <= j <= hi:
                yield j, np.hypot(u, v)

    def triangle_vertex(self, x, y):
        return self.geometry.triangle_vertex(x, y)

    def sample_pairs(self, count, scale, seed=0):
        """Pairs at Euclidean distance in [scale/2, scale], random headings.

        Pair i reads row i of `uniforms(count, seed, 4)`: heading,
        radius, x0, x1."""
        if not 0 < scale < 0.25:
            raise ValueError("scale must sit below the injectivity radius")
        turn, frac, x0, x1 = uniforms(count, seed, 4).T
        theta = 2 * math.pi * turn
        r = scale * (0.5 + 0.5 * frac)
        y0 = np.remainder(x0 + r * _each(math.cos, theta), 1.0)
        y1 = np.remainder(x1 + r * _each(math.sin, theta), 1.0)
        return Rows((np.column_stack((x0, x1)), np.column_stack((y0, y1))),
                    _point)


def _nearest_offset(a, b, k):
    """b - a at its nearest lattice representative, k = round(b - a).

    The lattice step goes to whichever coordinate lies above 1/2, where
    it is exact, so the offset of a pair straddling the edge of the unit
    square is rounded once and keeps every bit of the smaller
    coordinate.  Works on floats and on arrays alike.
    """
    return (b - (k > 0) * k) - (a + (k < 0) * k)


def euclidean_base(toral_sys, xi=0.02):
    return EuclideanTorus(toral_sys, xi)


class CircleDoubling:
    """Angle-doubling map with the arc metric: a one-sided base system."""

    space_kind = "wrapped-base-metric"
    invertible = False
    has_bracket = False
    tol_default = 0.0
    lam = 2.0
    xi = 0.25
    diameter = 0.5

    def apply(self, x):
        return (2.0 * x) % 1.0

    def dist(self, x, y):
        d = abs(x - y) % 1.0
        return min(d, 1.0 - d)

    def sample_points(self, count, seed=0):
        return uniforms(count, seed, 1)[:, 0].tolist()
