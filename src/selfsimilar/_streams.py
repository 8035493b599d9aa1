"""The one draw scheme of every sampler: chunk-keyed random streams.

Items come in chunks of CHUNK, and chunk k of a seed draws from its own
`Random`, seeded with the bytes f"{seed}:{k}" (CPython seeds bytes
through SHA-512, alike in every version).  So item i depends only on
the seed and i // CHUNK: the first N items are the same at every count
>= N.  `uniforms` draws floats and `below` exact integer choices.
numpy loads on first draw, so the shift measure path never does.
Every sampler returns its items as `Rows`.
"""
import itertools
from collections.abc import Sequence
from random import Random

CHUNK = 4096


def chunk_rngs(seed):
    """The `Random` of chunk 0, 1, 2, ... of an int seed, in turn."""
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ValueError(f"seed must be an int, not {seed!r}")
    return (Random(f"{seed}:{k}".encode()) for k in itertools.count())


def uniforms(count, seed, width):
    """(count, width) array of item i's uniforms in row i: each is
    (w >> 11) * 2**-53 for a little-endian 64-bit randbytes word w."""
    import numpy as np
    if count < 0:
        raise ValueError("count must be nonnegative")
    words = np.frombuffer(b"".join(
        rng.randbytes(8 * width * min(CHUNK, count - i))
        for i, rng in zip(range(0, count, CHUNK), chunk_rngs(seed))), "<u8")
    return ((words >> 11) * 2.0**-53).reshape(count, width)


def below(rng, counts):
    """One uniform draw from range(c) per c >= 1 of the int64 array
    `counts`: a 32-bit randbytes word, redrawn while at or above the
    largest multiple of c up to 2**32, modulo c; c = 1 takes no word."""
    import numpy as np
    out = np.zeros(len(counts), dtype=np.int64)
    at = np.flatnonzero(counts > 1)
    while at.size:
        c = counts[at]
        u = np.frombuffer(rng.randbytes(4 * at.size), "<u4")
        out[at] = u % c
        at = at[u >= (1 << 32) - (1 << 32) % c]
    return out


class Rows(Sequence):
    """Read-only sequence of sampled points, or of tuples of them.

    `cols` holds one (N, width) array per tuple slot, and item i is the
    tuple of `point(a[i])` over them (one array: the point itself), so a
    point is built only on access; the pair batches read the arrays.
    """

    def __init__(self, cols, point):
        self.cols, self.point = tuple(cols), point

    def __len__(self):
        return len(self.cols[0])

    def __getitem__(self, i):
        if isinstance(i, slice):
            return Rows((a[i] for a in self.cols), self.point)
        points = tuple(self.point(a[i]) for a in self.cols)
        return points if len(points) > 1 else points[0]

    def columns(self):
        """One sequence of points per tuple slot."""
        return tuple(Rows((a,), self.point) for a in self.cols)

    def zip(self, other):
        """The tuples of this sequence's slots and then other's, when
        other holds rows of the same builder and width; else None."""
        if (isinstance(other, Rows) and other.point == self.point
                and other.cols[0].shape[1] == self.cols[0].shape[1]):
            return Rows(self.cols + other.cols, self.point)
        return None
