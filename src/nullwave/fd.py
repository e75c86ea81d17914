"""Small finite-difference and quadrature helpers shared by several modules.

Second-order accurate throughout: centered stencils inside, one-sided
three/four point formulas at array ends, trapezoid weights.
"""

import numpy as np


def d1(y, h, axis=-1):
    """First derivative, centered interior, second-order one-sided ends."""
    return np.gradient(y, h, axis=axis, edge_order=2)


def d2(y, h, axis=-1):
    """Second derivative along one axis."""
    y = np.asarray(y, dtype=float)
    y = np.moveaxis(y, axis, -1)
    out = np.empty_like(y)
    out[..., 1:-1] = (y[..., 2:] - 2.0 * y[..., 1:-1] + y[..., :-2]) / h**2
    out[..., 0] = (2.0 * y[..., 0] - 5.0 * y[..., 1] + 4.0 * y[..., 2]
                   - y[..., 3]) / h**2
    out[..., -1] = (2.0 * y[..., -1] - 5.0 * y[..., -2] + 4.0 * y[..., -3]
                    - y[..., -4]) / h**2
    return np.moveaxis(out, -1, axis)


def trapezoid(h, n):
    """Trapezoid-rule weights of n uniform nodes spaced h apart."""
    w = np.full(n, h)
    w[0] = w[-1] = 0.5 * h
    return w


def dt_series(arr, dt, axis=0):
    """Time derivative of a snapshot stack along axis (same stencils as d1)."""
    return np.gradient(arr, dt, axis=axis, edge_order=2)
