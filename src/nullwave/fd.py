"""Small finite-difference and quadrature helpers shared by several modules.

Second-order accurate throughout: centered stencils inside, one-sided
three/four point formulas at array ends, trapezoid weights.

A snapshot series has one time derivative, d1_rows: d1 along the
snapshot axis, read from the rows its stencil uses.  Whole-series
quantities read it one row_blocks block at a time, so no temporary
outgrows a block and no byte depends on the block size.
"""

import numpy as np

from .errors import ParamError

# float64 values per block of rows: blocks of 2**14 to 2**16 values (128
# to 512 KB arrays) ran fastest end to end, 2**18 and 2**20 ran 5-36%
# slower, and 2**20 also peaked 50-60 MB higher (perfbench, 2-core VM)
BLOCK_VALUES = 2**16


def d1(y, h, axis=-1):
    """First derivative, centered interior, second-order one-sided ends."""
    return np.gradient(y, h, axis=axis, edge_order=2)


def d1_rows(read, rows, n, h):
    """(F[rows], dF/dt at rows) of the n-row series F = read(indices).

    rows is increasing.  dF/dt is d1(F, h, axis=0), byte for byte, read
    from the rows the stencil uses only: numpy's centred difference
    inside, and d1 of the first or last three rows at the ends.
    """
    if n < 3:
        raise ParamError("the time stencil needs at least 3 snapshots")
    if 0 < rows[0] and rows[-1] < n - 1 and \
            rows[-1] - rows[0] == len(rows) - 1:
        # consecutive rows inside: the same difference on slices
        vals = read(np.arange(rows[0] - 1, rows[-1] + 2))
        return vals[1:-1], (vals[2:] - vals[:-2]) / (2.0 * h)
    lo = np.clip(rows - 1, 0, n - 3)
    need = np.unique(lo[:, None] + np.arange(3))
    vals = read(need)
    p = np.searchsorted(need, lo)  # vals[p + k] holds F[lo + k]
    d = (vals[p + 2] - vals[p]) / (2.0 * h)
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

