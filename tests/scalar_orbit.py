"""The scalar reference of an orbit's distances, shared by the test modules.

On a `ToralSystem` it follows one offset recurrence in Python floats, as
the system's orbit hook does on arrays: f^j y - f^j x = A^j (y - x) mod
Z^2, so

    o_0 = y - x, less round;   o_(j+1) = A o_j, o_(j-1) = A^-1 o_j, less round;

and the distance at step j is dist((0, 0), o_j).  On every other system
it maps both points with the scalar maps.
"""
from selfsimilar.torus import ToralSystem


def offset(x, y):
    """y - x at its nearest lattice representative, as `dist` takes it."""
    return tuple(b - a - round(b - a) for a, b in zip(x, y))


def offset_step(matrix, o):
    """The offset matrix * o at its nearest lattice representative."""
    (a, b), (c, d) = matrix
    u, v = a * o[0] + b * o[1], c * o[0] + d * o[1]
    return u - round(u), v - round(v)


def scalar_steps(sys, x, y, steps):
    """dist(f^s x, f^s y) for s in steps: along the offset recurrence on
    a `ToralSystem`, by the scalar maps of both points elsewhere."""
    out = []
    for s in steps:
        if isinstance(sys, ToralSystem):
            o = offset(x, y)
            for _ in range(abs(s)):
                o = offset_step(sys.matrix if s > 0 else sys.inverse, o)
            out.append(sys.dist((0.0, 0.0), o))
            continue
        p, q = x, y
        for _ in range(abs(s)):
            move = sys.apply if s > 0 else sys.apply_inv
            p, q = move(p), move(q)
        out.append(sys.dist(p, q))
    return out
