"""Small finite-difference and quadrature helpers shared by several modules.

Second-order accurate throughout: centered stencils inside, one-sided
three/four point formulas at array ends, trapezoid weights.

d1 and d2 write into out if given, which must then be C-contiguous;
y is read as a C-contiguous array.  Their interior is one difference of
the flattened arrays, shifted by the axis stride s: (f[2s:] - f[:-2s]) /
(2h) for d1.  What it takes across the axis ends falls on edge
positions, which the one-sided formulas then overwrite, so d1 is
np.gradient(y, h, axis, edge_order=2) byte for byte.

A snapshot series has one time derivative, d1_rows: d1 along the
snapshot axis at a range of rows, read once from the rows its stencil
uses, so no byte depends on how a series is cut into blocks.
"""

import math

import numpy as np

from .errors import ParamError

# float64 values per block of rows: blocks of 2**14 to 2**16 values (128
# to 512 KB arrays) ran fastest end to end, 2**18 and 2**20 ran 5-36%
# slower, and 2**20 also peaked 50-60 MB higher (perfbench, 2-core VM)
BLOCK_VALUES = 2**16


def _stencil(y, out, axis, least):
    """y, out (made if None), lead such that y[lead + (i,)] is index i of
    axis, and the views y[i-1], y[i], y[i+1], out[i] of the interior."""
    y = np.ascontiguousarray(y, dtype=float)
    if y.shape[axis] < least:
        raise ParamError("the stencil needs at least %d points" % least)
    if out is None:
        out = np.empty_like(y)
    elif not out.flags.c_contiguous:
        raise ParamError("the stencil writes into C-contiguous arrays only")
    lead = (slice(None),) * (axis % y.ndim)
    f, o, n = y.ravel(), out.ravel(), y.size
    s = math.prod(y.shape[len(lead) + 1:])
    return y, out, lead, [a[k * s:n - (2 - k) * s]
                          for a, k in ((f, 0), (f, 1), (f, 2), (o, 1))]


def d1(y, h, axis=-1, out=None):
    """First derivative, centered interior, second-order one-sided ends."""
    y, out, lead, (lo, _, hi, mid) = _stencil(y, out, axis, 3)
    np.divide(np.subtract(hi, lo, out=mid), 2.0 * h, out=mid)
    f0, f1, f2, g2, g1, g0 = (y[lead + (i,)] for i in (0, 1, 2, -3, -2, -1))
    # np.gradient's edge_order=2 ends: its constants, its operation order
    out[lead + (0,)] = (-1.5 / h) * f0 + (2.0 / h) * f1 + (-0.5 / h) * f2
    out[lead + (-1,)] = (0.5 / h) * g2 + (-2.0 / h) * g1 + (1.5 / h) * g0
    return out


def d1_rows(read, lo, hi, n, h, out=None):
    """(F[lo:hi], dF/dt there) of the n-row series F, read(a, b) = F[a:b].

    dF/dt, written into out if given, is d1(F, h, axis=0)[lo:hi] byte for
    byte, from one read of the rows its stencil uses: the centred
    difference inside, d1 of the first or last three rows at the ends.
    """
    if n < 3:
        raise ParamError("the time stencil needs at least 3 snapshots")
    a = min(max(lo - 1, 0), n - 3)
    vals = read(a, max(min(hi + 1, n), 3))
    out = np.empty((hi - lo,) + vals.shape[1:]) if out is None else out
    i, j = max(lo, 1), min(hi, n - 1)  # the rows with both neighbours
    f, mid = vals[i - 1 - a:j + 1 - a], out[i - lo:j - lo]
    np.divide(np.subtract(f[2:], f[:-2], out=mid), 2.0 * h, out=mid)
    if lo == 0:
        out[0] = d1(vals[:3], h, axis=0)[0]
    if hi == n:
        out[-1] = d1(vals[-3:], h, axis=0)[-1]
    return vals[lo - a:hi - a], out


def d2(y, h, axis=-1, out=None):
    """Second derivative along one axis, written into out if given.

    out must have y's shape and must not overlap y; it is returned.
    """
    y, out, lead, (lo, c, hi, mid) = _stencil(y, out, axis, 4)
    # (a - 2 b + c) / h^2 evaluated in place, operation by operation
    np.multiply(2.0, c, out=mid)
    np.subtract(hi, mid, out=mid)
    np.add(mid, lo, out=mid)
    np.divide(mid, h**2, out=mid)
    g3, g2, g1, g0, f0, f1, f2, f3 = (y[lead + (i,)] for i in range(-4, 4))
    out[lead + (0,)] = (2.0 * f0 - 5.0 * f1 + 4.0 * f2 - f3) / h**2
    out[lead + (-1,)] = (2.0 * g0 - 5.0 * g1 + 4.0 * g2 - g3) / h**2
    return out


def trapezoid(h, n):
    """Trapezoid-rule weights of n uniform nodes spaced h apart."""
    w = np.full(n, h)
    w[0] = w[-1] = 0.5 * h
    return w

