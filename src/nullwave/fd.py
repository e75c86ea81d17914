"""Small finite-difference and quadrature helpers shared by several modules.

Second-order accurate throughout: centered stencils inside, one-sided
three/four point formulas at array ends, trapezoid weights.

d1 and d2 write into out if given.  On C-contiguous y and out their
interior is one difference of the flattened arrays, shifted by the axis
stride s: (f[2s:] - f[:-2s]) / (2h) for d1.  What it takes across the
axis ends falls on edge positions, which the one-sided formulas then
overwrite, so d1 is np.gradient(y, h, axis, edge_order=2) byte for byte.
Other arrays take the same interior as slices along the axis.

A snapshot series has one time derivative, d1_rows: d1 along the
snapshot axis, read from the rows its stencil uses.  Whole-series
quantities read it one row_blocks block at a time, so no temporary
outgrows a block and no byte depends on the block size.
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
    y = np.asarray(y, dtype=float)
    if y.shape[axis] < least:
        raise ParamError("the stencil needs at least %d points" % least)
    out = np.empty_like(y) if out is None else out
    lead = (slice(None),) * (axis % y.ndim)
    f, o, ix, s, n = y, out, lead, 1, y.shape[axis]
    if y.flags.c_contiguous and out.flags.c_contiguous:
        f, o, ix, n = y.ravel(), out.ravel(), (), y.size
        s = math.prod(y.shape[len(lead) + 1:])
    return y, out, lead, [a[ix + (slice(k * s, n - (2 - k) * s),)]
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


def d1_rows(read, rows, n, h, out=None):
    """(F[rows], dF/dt at rows) of the n-row series F = read(indices).

    rows is increasing.  dF/dt, written into out if given, is d1(F, h,
    axis=0) byte for byte, read from the rows the stencil uses only: the
    centred difference inside, d1 of the first or last three at the ends.
    """
    if n < 3:
        raise ParamError("the time stencil needs at least 3 snapshots")
    if 0 < rows[0] and rows[-1] < n - 1 and \
            rows[-1] - rows[0] == len(rows) - 1:
        # consecutive rows inside: the same difference on slices
        vals = read(np.arange(rows[0] - 1, rows[-1] + 2))
        return vals[1:-1], np.divide(np.subtract(
            vals[2:], vals[:-2], out=out), 2.0 * h, out=out)
    lo = np.clip(rows - 1, 0, n - 3)
    need = np.unique(lo[:, None] + np.arange(3))
    vals = read(need)
    p = np.searchsorted(need, lo)  # vals[p + k] holds F[lo + k]
    d = np.divide(np.subtract(vals[p + 2], vals[p], out=out), 2.0 * h,
                  out=out)
    for j in np.flatnonzero((rows == 0) | (rows == n - 1)):
        d[j] = d1(vals[p[j]:p[j] + 3], h, axis=0)[rows[j] - lo[j]]
    return vals[p + rows - lo], d


def row_blocks(n, row_values):
    """Consecutive index arrays over range(n), of rows of row_values
    values: about BLOCK_VALUES values per block, and at least one row."""
    step = max(1, BLOCK_VALUES // row_values)
    return (np.arange(lo, min(lo + step, n)) for lo in range(0, n, step))


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

