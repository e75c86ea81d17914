"""Small finite-difference and quadrature helpers shared by several modules.

Second-order accurate throughout: centered stencils inside, one-sided
three/four point formulas at array ends, trapezoid weights.

d1 and d2 write into out if given, which must then be C-contiguous;
y is read as a C-contiguous array.  d1 is its bound form, d1_operator,
applied once, so a caller that differentiates one buffer many times
binds it once.  Each interior is one difference of the flattened arrays,
shifted by the axis stride s: (f[2s:] - f[:-2s]) * (0.5 / h) for d1.
What it takes across the axis ends falls on edge positions, which the
one-sided formulas then overwrite: d1 is that arithmetic byte for byte,
and np.gradient(y, h, axis, edge_order=2), which divides, within an ulp.

A snapshot series has one time derivative, owned by its SeriesWindow:
d1 along the snapshot axis at a range of rows, from the rows its
stencil uses, so no byte depends on how a series is cut into blocks.
The window's block is the rows a Picard sweep takes at once.

empty_aligned places a buffer at a chosen offset from a 64-byte cache
line, which numpy's own arrays (malloc's 16-byte alignment) do not
promise; the solver's run buffers are made with it (see nullwave.solver).
"""

import math

import numpy as np

from .errors import ParamError

# float64 values per block of rows: blocks of 2**14 to 2**16 values (128
# to 512 KB arrays) ran fastest end to end, 2**18 and 2**20 ran 5-36%
# slower, and 2**20 also peaked 50-60 MB higher (perfbench, 2-core VM)
BLOCK_VALUES = 2**16

CACHE_LINE = 64


def empty_aligned(shape, offset=0):
    """An uninitialised C-contiguous float64 array of shape that starts
    offset bytes past a 64-byte line.

    It is a view of a uint8 buffer 64 + offset bytes longer than the
    array, which it keeps alive.  offset is a multiple of 8 in [0, 64).
    """
    if offset % 8 or not 0 <= offset < CACHE_LINE:
        raise ParamError("offset %r is not a multiple of 8 in [0, %d)"
                         % (offset, CACHE_LINE))
    shape = tuple(shape) if np.iterable(shape) else (shape,)
    size = 8 * math.prod(shape)
    buf = np.empty(size + CACHE_LINE + offset, dtype=np.uint8)
    start = -buf.ctypes.data % CACHE_LINE + offset
    return buf[start:start + size].view(np.float64).reshape(shape)


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
    return d1_operator(np.ascontiguousarray(y, dtype=float), h, axis, out)()


def d1_operator(y, h, axis=-1, out=None):
    """apply() that writes d1(y, h, axis) into out and returns it.

    y, a C-contiguous float array, and out are bound here, so that
    apply() reads y as it is when called and pays for no stencil set-up.
    """
    if not (y.flags.c_contiguous and y.dtype == float):
        raise ParamError("a bound stencil reads C-contiguous float arrays")
    y, out, lead, (lo, _, hi, mid) = _stencil(y, out, axis, 3)
    # the end nodes, read when apply() is called: scalars when y is one row
    ends = [lead + (i,) for i in (0, 1, 2, -3, -2, -1)]
    first, last = ends[0], ends[-1]
    half_inv = 0.5 / h

    def apply():
        np.multiply(np.subtract(hi, lo, out=mid), half_inv, out=mid)
        f0, f1, f2, g2, g1, g0 = (y[i] for i in ends)
        # np.gradient's edge_order=2 ends: its constants, its operation order
        out[first] = (-1.5 / h) * f0 + (2.0 / h) * f1 + (-0.5 / h) * f2
        out[last] = (0.5 / h) * g2 + (-2.0 / h) * g1 + (1.5 / h) * g0
        return out
    return apply


class SeriesWindow:
    """The last rows of an n-row series F of step h, and dF/dt there.

    put(lo, rows) stores rows lo, lo + 1, ... (at most block, the rows of
    about BLOCK_VALUES values) and returns, as ranges (a, b) of at most
    block rows, the rows whose whole stencil it now holds (through n once
    the last row is in).  rows(a, b, out) gives F[a:b] and dF/dt, into
    out[:b - a] if given: d1(F, h, axis=0)[a:b] byte for byte.  A full
    buffer slides the rows still to be read (at most three) to its front
    in place, so buf is one array for the window's life.
    """

    def __init__(self, n, h, shape):
        self.n, self.h = n, h
        self.block = min(n, max(1, BLOCK_VALUES // math.prod(shape)))
        # row base + i of the series is in buf[i]
        self.buf = np.empty((self.block + 3,) + tuple(shape))
        self.base = self.done = 0

    def put(self, lo, rows):
        buf, m, n = self.buf, lo + len(rows) - 1, self.n
        if m - self.base >= len(buf):
            keep = max(min(self.done - 1, n - 3), 0)
            buf[:lo - keep] = buf[keep - self.base:lo - self.base]
            self.base = keep
        buf[lo - self.base:m + 1 - self.base] = rows
        # the rows whose stencil rows 0, ..., m hold
        end = n if m == n - 1 else m if m >= 2 else 0
        first, self.done = self.done, end
        return [(a, min(a + self.block, end))
                for a in range(first, end, self.block)]

    def rows(self, lo, hi, out=None):
        n, h = self.n, self.h
        # the rows the stencil uses: all n if n < 3, and d1 refuses those
        a = max(min(lo - 1, n - 3), 0)
        vals = self.buf[a - self.base:min(max(hi + 1, 3), n) - self.base]
        out = np.empty((hi - lo,) + vals.shape[1:]) if out is None \
            else out[:hi - lo]
        i, j = max(lo, 1), min(hi, n - 1)  # the rows with both neighbours
        f, mid = vals[i - 1 - a:j + 1 - a], out[i - lo:j - lo]
        np.multiply(np.subtract(f[2:], f[:-2], out=mid), 0.5 / h, out=mid)
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
    div = h**2
    # (a - 2 b + c) / h^2 evaluated in place, operation by operation
    np.multiply(2.0, c, out=mid)
    np.subtract(hi, mid, out=mid)
    np.add(mid, lo, out=mid)
    np.divide(mid, div, out=mid)
    for end, step in ((0, 1), (-1, -1)):
        f0, f1, f2, f3 = (y[lead + (end + step * i,)] for i in range(4))
        out[lead + (end,)] = (2.0 * f0 - 5.0 * f1 + 4.0 * f2 - f3) / div
    return out


def trapezoid(h, n):
    """Trapezoid-rule weights of n uniform nodes spaced h apart."""
    w = np.full(n, h)
    w[0] = w[-1] = 0.5 * h
    return w

