"""Small finite-difference and quadrature helpers shared by several modules.

Second-order accurate throughout: centered stencils inside, one-sided
three/four point formulas at array ends, trapezoid weights.
"""

import numpy as np


def d1(y, h, axis=-1):
    """First derivative, centered interior, second-order one-sided ends."""
    return np.gradient(y, h, axis=axis, edge_order=2)


def d2(y, h, axis=-1, out=None):
    """Second derivative along one axis, written into out if given.

    out must have y's shape and must not overlap y; it is returned.
    """
    y = np.asarray(y, dtype=float)
    lead = (slice(None),) * (axis % y.ndim)

    def at(i):
        return y[lead + (i,)]

    if out is None:
        out = np.empty_like(y)
    # (a - 2 b + c) / h^2 evaluated in place, operation by operation
    mid = out[lead + (slice(1, -1),)]
    np.multiply(2.0, at(slice(1, -1)), out=mid)
    np.subtract(at(slice(2, None)), mid, out=mid)
    np.add(mid, at(slice(None, -2)), out=mid)
    np.divide(mid, h**2, out=mid)
    out[lead + (0,)] = (2.0 * at(0) - 5.0 * at(1) + 4.0 * at(2)
                        - at(3)) / h**2
    out[lead + (-1,)] = (2.0 * at(-1) - 5.0 * at(-2) + 4.0 * at(-3)
                         - at(-4)) / h**2
    return out


def trapezoid(h, n):
    """Trapezoid-rule weights of n uniform nodes spaced h apart."""
    w = np.full(n, h)
    w[0] = w[-1] = 0.5 * h
    return w

