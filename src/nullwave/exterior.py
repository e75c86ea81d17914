"""Obstacle geometry, exterior grids, initial data, compatibility recursion.

Two grid flavors are supported.  The radial grid covers [r0, r_max] for
problems with an exact angular reduction.  The masked Cartesian grid
embeds a convex obstacle into a cube with a staircase Dirichlet boundary
and an absorbing sponge band at the outer faces.

Both grids provide one interface, so the solver, the norms and the
Picard iteration each have a single code path.  Every field holds the
physical values u at the nodes.  Each grid defines what it is built
from:

    kind, ndim, h, n                       identification and sizes
    sponge_cells, sponge_strength          the absorbing band
    mask                                   node codes: FLUID, BOUNDARY, ...
    coords(), radii()                      sample points and |x| per node
    operator(u, out, tmp, scale=1.0)       apply() writing scale Lap u to out
    pin(a)                                 zero the Dirichlet nodes in place
    hessian_sq(u, grad)                    squared Hessian norm per node

and one definition, shared by both, makes the rest:

    n_nodes, shape                         node count, field shape
    zeros(), sponge_sigma()                a zero field, damping
    updated()                              nodes the stepper evolves (*)
    laplace(u, out=None, tmp=None)         operator(u, out, tmp)()
    on_boundary(a)                         values at the obstacle's wall
    weights()                              volume quadrature per node (*)
    gradient(u, out=None)                  spatial gradient tuple
    sample(u)                              initial-data field, zero in solids
    energy_fn(inside=None)                 energy of a state (u, v)

(*) one read-only array, made with the grid.

These read two inputs that each grid computes when called: each node's
cells to the outer edge, for the sponge ramp, and the terms of the
energy c sum w (rho (v^2 + |du|^2 + u^2) + k u^2), the weights being
c rho w: 4 pi, r^2, l(l+1) and trapezoid w on the radial grid, h^3, 1,
0 and w = 1 on evolved nodes on the masked one.

operator binds the stencil's views, and its coefficients times scale, to
u, out and tmp (scratch of u's shape) once; each apply() then reads u
as it is and writes scale times its Laplacian into out, allocating no
field and dividing by nothing: the cube's is one flat 7-point pass
times scale / h^2, faces written as 0.  The solver binds it with scale
dt/2, the size of a half kick, once per run; at scale 1 it gives
laplace's bytes.
"""

import numpy as np

from . import fd
from .errors import OrderError, ParamError
from .nullforms import NullFormSpec, eval_components

# largest cell count per axis of a masked grid; (n + 1)^3 nodes, and
# building the mask alone holds several float64 arrays of that size
MAX_CARTESIAN_N = 256

# mask codes for Cartesian grids
FLUID = 0
BOUNDARY = 1
OBSTACLE = 2
SPONGE = 3


class Obstacle:
    """Strictly convex obstacle centered at the origin: a "sphere" of
    params (radius,) or an "ellipsoid" of params (a, b, c), each in
    (0, inf).  Any other kind, count or value is a ParamError."""

    def __init__(self, kind, params):
        count = {"sphere": 1, "ellipsoid": 3}.get(kind)
        if count is None:
            raise ParamError("unknown obstacle kind %r" % (kind,))
        if len(params) != count:
            raise ParamError("a %s takes %d parameters, not %d"
                             % (kind, count, len(params)))
        if not all(0 < p < np.inf for p in params):  # NaN fails too
            raise ParamError("%s parameters must be in (0, inf)" % kind)
        self.kind = kind
        self.params = tuple(float(p) for p in params)

    @classmethod
    def sphere(cls, r0):
        return cls("sphere", (r0,))

    @classmethod
    def ellipsoid(cls, a, b, c):
        return cls("ellipsoid", (a, b, c))

    @property
    def semi_axes(self):
        if self.kind == "sphere":
            r0 = self.params[0]
            return np.array([r0, r0, r0])
        return np.array(self.params)

    @property
    def max_radius(self):
        return float(np.max(self.semi_axes))

    def contains(self, x):
        """True strictly inside the obstacle; x has shape (..., 3)."""
        x = np.asarray(x, dtype=float)
        s = np.sum((x / self.semi_axes) ** 2, axis=-1)
        return s < 1.0

    def support_radius(self, omega):
        """Boundary radius along unit direction(s) omega."""
        w = np.asarray(omega, dtype=float)
        q = np.sum((w / self.semi_axes) ** 2, axis=-1)
        return 1.0 / np.sqrt(q)

    def __repr__(self):
        return "Obstacle(%r, %r)" % (self.kind, self.params)


def _check_sponge_strength(strength):
    # a negative strength would make the per-step factor exp(-sigma dt)
    # exceed 1, so that the sponge amplifies instead of damping
    if not 0 <= strength < np.inf:
        raise ParamError("sponge_strength must be >= 0 and finite")


def _check_spacing(h, power):
    # the stencils scale by 1 / h**2 (the radial laplace's coefficients are
    # made with the grid) and a cube's volume element is h**3: a spacing
    # whose power or its reciprocal overflows ends in a traceback, or in
    # NaN output
    try:
        finite = np.isfinite(h**power) and np.isfinite(h**-power)
    except (OverflowError, ZeroDivisionError):
        finite = False
    if not finite:
        raise ParamError("grid spacing %g is out of range: h**%d or its "
                         "reciprocal overflows" % (h, power))


class _Grid:
    """The members both grids share (see the module docstring).

    A grid sets h, n, sponge_cells and sponge_strength, then calls
    _Grid.__init__ with its mask and the nodes the stepper evolves; it
    defines _cells_to_edge() and _energy_terms(), which gives (c, rho,
    k, w).
    """

    def __init__(self, mask, live):
        self.mask, self.shape, self.n_nodes = mask, mask.shape, mask.size
        self._live = live
        c, rho, _, w = self._energy_terms()
        self._vol = c * rho * w
        self._live.flags.writeable = self._vol.flags.writeable = False

    def zeros(self):
        return np.zeros(self.shape)

    def updated(self):
        """Nodes the stepper evolves."""
        return self._live

    def weights(self):
        """Volume quadrature per node, zero on the Dirichlet nodes."""
        return self._vol

    def laplace(self, u, out=None, tmp=None):
        """The spatial operator on u, written into out if given; tmp is
        scratch of u's shape (each allocated when not given)."""
        u = np.ascontiguousarray(u, dtype=float)
        out = np.empty(u.shape) if out is None else out
        tmp = np.empty(u.shape) if tmp is None else tmp
        return self.operator(u, out, tmp)()

    def gradient(self, u, out=None):
        """Spatial gradient (d_1 u, ..., d_ndim u) of a field, into the
        arrays of out if given."""
        outs = (None,) * self.ndim if out is None else out
        return tuple(fd.d1(u, self.h, axis=ax, out=o)
                     for ax, o in zip(range(-self.ndim, 0), outs))

    def sample(self, u):
        """Initial-data field of physical node values u, zero in solids."""
        return np.where(self.mask == OBSTACLE, 0.0, u)

    def on_boundary(self, a):
        """Values of a on the obstacle's BOUNDARY nodes, in C order.

        The outer edge is pinned but is no obstacle boundary: the cube's
        faces carry the BOUNDARY code as well, and are skipped.
        """
        return a[..., (self.mask == BOUNDARY) & (self._cells_to_edge() > 0)]

    def sponge_sigma(self):
        """Damping per node: a cubic ramp, smooth at the band entrance,
        up to sponge_strength at the outer edge, zero on OBSTACLE and
        BOUNDARY nodes and everywhere without a band."""
        if not self.sponge_cells:
            return self.zeros()
        s = (self.sponge_cells - self._cells_to_edge()) / self.sponge_cells
        sig = self.sponge_strength * np.clip(s, 0.0, 1.0) ** 3
        sig[(self.mask == OBSTACLE) | (self.mask == BOUNDARY)] = 0.0
        return sig

    def energy_fn(self, inside=None):
        """Energy of states (u, v) over nodes where inside holds.

        c sum w (rho (v^2 + |du|^2 + u^2) + k u^2), of the terms (c, rho,
        k, w) of _energy_terms(), with w zero outside inside.  Only the
        box of nodes with weight, padded by one node and at least 3 per
        axis, is read, so each of those keeps its centred du; the products
        go into a zero-padded full-size array, so the sum is that of every
        node's product, weight zero outside, byte for byte, and it is
        nondecreasing in the set inside.
        """
        c, rho, k, w = self._energy_terms()
        if inside is not None:
            w = np.where(inside, w, 0.0)
        if not w.any():
            return lambda u, v: 0.0
        box = tuple(slice(max(min(i.min() - 1, m - 3), 0),
                          max(min(i.max() + 2, m), 3))
                    for i, m in zip(np.nonzero(w), self.shape))
        at_box, size = (...,) + box, tuple(b.stop - b.start for b in box)
        rho, w = np.broadcast_to(rho, self.shape)[box], w[box]
        # per stack shape: the product, two scratch arrays, and the copy of
        # u's box with its d1 per axis bound to it, written to a scratch
        bufs = {}

        def at(u, v):
            if u.shape not in bufs:
                prod = np.zeros(u.shape)
                dens, sq, held_u = np.empty(
                    (3,) + u.shape[:u.ndim - self.ndim] + size)
                du = [fd.d1_operator(held_u, self.h, axis, sq)
                      for axis in range(-self.ndim, 0)]
                bufs[u.shape] = prod, dens, sq, held_u, du
            prod, dens, sq, held_u, du = bufs[u.shape]
            np.copyto(held_u, u[at_box])
            np.square(v[at_box], out=dens)
            for d in du:
                dens += np.square(d(), out=sq)
            dens += np.square(held_u, out=sq)
            dens *= rho
            if k:
                sq *= k
                dens += sq
            np.multiply(dens, w, out=prod[at_box])
            return float(c * np.sum(prod))
        return at


class RadialGrid(_Grid):
    """Uniform grid on [r0, r_max] of fields u(r).

    angular_mode is the spherical-harmonic degree l of the reduction; the
    wave operator is d_tt - d_rr - (2/r) d_r + l(l+1)/r^2.  Both end nodes
    carry Dirichlet conditions; an optional sponge band of sponge_cells
    cells damps outgoing waves before the outer end.  The mask is
    BOUNDARY at r0 and FLUID elsewhere: the outer end is pinned, but it
    is no obstacle boundary, so on_boundary skips it and the sponge ramp
    reaches it.
    """

    kind = "radial"
    ndim = 1

    def __init__(self, r0, r_max, n, angular_mode=0, sponge_cells=0,
                 sponge_strength=4.0):
        if not (0 < r0 < r_max < np.inf):
            raise ParamError("need 0 < r0 < r_max < inf")
        if n < 16:
            raise ParamError("need n >= 16 cells")
        if angular_mode < 0:
            raise ParamError("angular_mode must be >= 0")
        if sponge_cells < 0 or sponge_cells > n // 2:
            raise ParamError("sponge_cells out of range")
        _check_sponge_strength(sponge_strength)
        self.r0 = float(r0)
        self.r_max = float(r_max)
        self.n = int(n)
        self.angular_mode = int(angular_mode)
        self.sponge_cells = int(sponge_cells)
        self.sponge_strength = float(sponge_strength)
        self.h = (self.r_max - self.r0) / self.n
        _check_spacing(self.h, 2)
        self.r = self.r0 + self.h * np.arange(self.n + 1)
        self._r2 = self.r**2
        mask = np.full(self.n + 1, FLUID, dtype=np.uint8)
        mask[0] = BOUNDARY
        live = np.ones(self.n + 1, dtype=bool)
        live[[0, -1]] = False
        super().__init__(mask, live)
        # laplace's coefficients.  Inside, those of d2 + (2/r) d1 -
        # l(l+1)/r^2 with centred d2 and d1, which is d2(r u) / r.  At each
        # end, those of the same sum with fd.d2's and fd.d1's one-sided
        # formulas, on the four nodes from that end inward
        h, l = np.float64(self.h), self.angular_mode
        d2, q = 1.0 / h**2, 1.0 / (h * self.r)
        mode = l * (l + 1) / self._r2 if l else np.zeros_like(self.r)
        self._inner = (d2 - q[1:-1], -2.0 * d2 - mode[1:-1], d2 + q[1:-1])
        rows = np.array([[2.0, -5.0, 4.0, -1.0],    # h^2 fd.d2
                         [-3.0, 4.0, -1.0, 0.0],    # 2 h fd.d1, at r0
                         [1.0, 0.0, 0.0, 0.0]])     # the end node
        self._ends = [(nodes, tuple(np.array([d2, side * q[nodes[0]],
                                              -mode[nodes[0]]]) @ rows))
                      for side, nodes in ((1.0, (0, 1, 2, 3)),
                                          (-1.0, (-1, -2, -3, -4)))]

    def _cells_to_edge(self):
        return self.n - np.arange(self.n + 1)

    def _energy_terms(self):
        # c, rho, k, w of the energy: 4 pi r^2 dr with trapezoid weights,
        # and the centrifugal term l(l+1) u^2
        l = self.angular_mode
        w = fd.trapezoid(self.h, self.n + 1)
        return 4.0 * np.pi, self._r2, l * (l + 1), w

    def radii(self):
        """Node radii, also the points physical callables are sampled at."""
        return self.r

    coords = radii

    def operator(self, u, out, tmp, scale=1.0):
        """apply() writing scale (d_rr + (2/r) d_r - l(l+1)/r^2) u to out.

        Inside, the 3-point stencil c u[i-1] + b u[i] + a u[i+1]; at the
        two ends, the one-sided formulas; every coefficient times scale.
        The scaled coefficients, the bytes of scale * k, start on a
        64-byte line (fd.empty_aligned), as the solver's u and the
        interior of its out and tmp do: the stencil streams all of them
        each step, and its speed depends on their offsets from a line
        (see nullwave.solver).
        """
        # the grid's own arrays at scale 1, so laplace allocates no field
        c, b, a = (self._inner if scale == 1.0 else
                   [np.multiply(scale, k, out=fd.empty_aligned(k.shape))
                    for k in self._inner])
        lo, cen, hi = u[..., :-2], u[..., 1:-1], u[..., 2:]
        mid, t = out[..., 1:-1], tmp[..., 1:-1]
        # node i of every row, a scalar when u is one row (as in fd),
        # read when apply() is called
        lead = (slice(None),) * (u.ndim - 1)
        ends = [(lead + (nodes[0],), [lead + (i,) for i in nodes],
                 [scale * e for e in coeffs]) for nodes, coeffs in self._ends]

        def apply():
            np.multiply(c, lo, out=mid)
            np.add(mid, np.multiply(b, cen, out=t), out=mid)
            np.add(mid, np.multiply(a, hi, out=t), out=mid)
            for at, (i0, i1, i2, i3), (e0, e1, e2, e3) in ends:
                out[at] = e0 * u[i0] + e1 * u[i1] + e2 * u[i2] + e3 * u[i3]
            return out
        return apply

    def pin(self, a):
        """Zero the two Dirichlet end nodes in place."""
        a[..., 0] = 0.0
        a[..., -1] = 0.0

    def hessian_sq(self, u, grad):
        """Squared Hessian Frobenius norm f''^2 + 2 (f'/r)^2 per node."""
        (ur,) = grad
        urr = fd.d2(u, self.h, axis=-1)
        return urr**2 + 2.0 * (ur / self.r) ** 2

    def __repr__(self):
        return ("RadialGrid(r0=%g, r_max=%g, n=%d, l=%d, sponge=%d)"
                % (self.r0, self.r_max, self.n, self.angular_mode,
                   self.sponge_cells))


def _cube_coords(L, n):
    """Node coordinates (m, m, m, 3) of the cube [-L/2, L/2]^3, m = n + 1."""
    axis = -L / 2.0 + (L / n) * np.arange(n + 1)
    X, Y, Z = np.meshgrid(axis, axis, axis, indexing="ij")
    return np.stack([X, Y, Z], axis=-1)


def _face_cells(m):
    """Cells from each node of an m^3 cube to its nearest outer face."""
    idx = np.arange(m)
    dist = np.minimum(idx, m - 1 - idx)
    # broadcast, not meshgrid: one cube-sized array instead of four
    return np.minimum(np.minimum(dist[:, None, None], dist[None, :, None]),
                      dist)


def _check_cartesian(obstacle, L, n, sponge_cells, sponge_strength):
    # every CartesianGrid passes these, built or read; build_masked_grid
    # runs them before it allocates
    if not L < np.inf:
        raise ParamError("the cube extent L must be finite")
    if obstacle.max_radius >= L / 4.0:
        raise ParamError("obstacle must fit inside |x| < L/4")
    if n < 16:
        raise ParamError("need n >= 16 cells")
    if n > MAX_CARTESIAN_N:
        raise ParamError("n = %d exceeds the %d cells per axis a masked "
                         "grid allows" % (n, MAX_CARTESIAN_N))
    if sponge_cells < 8 and sponge_cells != 0:
        raise ParamError("sponge band must be at least 8 cells (or 0)")
    if sponge_cells > n // 2:
        raise ParamError("sponge_cells out of range")
    _check_sponge_strength(sponge_strength)
    _check_spacing(L / n, 3)


class CartesianGrid(_Grid):
    """Cube [-L/2, L/2]^3 with (n+1)^3 nodes and a mask classifying them."""

    kind = "cartesian"
    ndim = 3

    def __init__(self, obstacle, L, n, mask, sponge_cells, sponge_strength):
        _check_cartesian(obstacle, L, n, sponge_cells, sponge_strength)
        # the uint8 codes FLUID to SPONGE are 0 to 3
        if mask.shape != (n + 1,) * 3 or mask.max() > SPONGE:
            raise ParamError("the mask must be (n + 1)^3 codes FLUID, "
                             "BOUNDARY, OBSTACLE or SPONGE")
        self.obstacle = obstacle
        self.L = float(L)
        self.n = int(n)
        self.h = self.L / self.n
        self.sponge_cells = int(sponge_cells)
        self.sponge_strength = float(sponge_strength)
        super().__init__(mask, (mask == FLUID) | (mask == SPONGE))
        # flat indices of the Dirichlet nodes; an integer index pins an
        # order of magnitude faster than a boolean mask
        self._pinned = np.flatnonzero(~self._live)

    def _cells_to_edge(self):
        return _face_cells(self.n + 1)

    def _energy_terms(self):
        # c, rho, k, w of the energy: h^3 on every evolved node
        return self.h**3, 1.0, 0, self._live

    def coords(self):
        """Node coordinates, shape (m, m, m, 3)."""
        return _cube_coords(self.L, self.n)

    def radii(self):
        c = self.coords()
        return np.sqrt(np.sum(c * c, axis=-1))

    def operator(self, u, out, tmp, scale=1.0):
        """apply() writing scale times the 7-point Laplacian of u to out.

        One pass over the last three axes, flattened (m = n + 1 nodes per
        axis): the neighbours at shifts -m^2, m^2, -m, m, -1, 1 summed in
        that order, less 6 u (made in tmp), times k = scale / h^2; the
        faces, where the shifts wrap, are written as 0 (Dirichlet nodes).
        u, out and tmp must be C-contiguous, so their flat views are views.
        """
        if not all(a.flags.c_contiguous for a in (u, out, tmp)):
            raise ParamError("the 7-point stencil needs C-contiguous arrays")
        m = self.n + 1
        N, s = m**3, m * m
        f, o, t = (a.reshape(a.shape[:-3] + (N,)) for a in (u, out, tmp))
        mid, cen, six = (a[..., s:N - s] for a in (o, f, t))
        near = [f[..., s + d:N - s + d] for d in (-s, s, -m, m, -1, 1)]
        k = scale / self.h**2
        faces = [(..., i) + (slice(None),) * a
                 for a in range(3) for i in (0, -1)]

        def apply():
            np.add(near[0], near[1], out=mid)
            for y in near[2:]:
                np.add(mid, y, out=mid)
            np.subtract(mid, np.multiply(6.0, cen, out=six), out=mid)
            np.multiply(mid, k, out=mid)
            for face in faces:
                out[face] = 0.0
            return out
        return apply

    def pin(self, a):
        """Zero every node the stepper does not evolve, in place.

        a must be C-contiguous, so that the flattened index writes into
        it rather than into a copy.
        """
        if not a.flags.c_contiguous:
            raise ParamError("pinning needs a C-contiguous field")
        a.reshape(a.shape[:-3] + (-1,))[..., self._pinned] = 0.0

    def hessian_sq(self, u, grad):
        """Squared Hessian Frobenius norm per node; grad is gradient(u)."""
        hess = np.zeros_like(u)
        for a in range(3):
            daa = fd.d2(u, self.h, axis=a - 3)
            hess += daa * daa
            for b in range(a + 1, 3):
                dab = fd.d1(grad[a], self.h, axis=b - 3)
                hess += 2.0 * dab * dab
        return hess

    def __repr__(self):
        return ("CartesianGrid(L=%g, n=%d, sponge=%d, obstacle=%r)"
                % (self.L, self.n, self.sponge_cells, self.obstacle))


def build_radial_grid(r0, r_max, n, angular_mode=0, sponge_cells=0,
                      sponge_strength=4.0):
    return RadialGrid(r0, r_max, n, angular_mode, sponge_cells,
                      sponge_strength)


def build_masked_grid(obstacle, L, n, sponge_cells=8, sponge_strength=4.0):
    """Mask a cube around the obstacle.

    Nodes strictly inside the obstacle are solid; fluid nodes with a solid
    6-neighbor form the Dirichlet staircase; the outer faces are Dirichlet
    as well, with the sponge band just inside them.
    """
    _check_cartesian(obstacle, L, n, sponge_cells, sponge_strength)
    m = n + 1
    mask = np.full((m, m, m), FLUID, dtype=np.uint8)
    solid = obstacle.contains(_cube_coords(L, n))
    mask[solid] = OBSTACLE

    near = np.zeros_like(solid)
    for ax in range(3):
        near |= np.roll(solid, 1, axis=ax)
        near |= np.roll(solid, -1, axis=ax)
    mask[near & ~solid] = BOUNDARY

    if sponge_cells > 0:
        band = (_face_cells(m) < sponge_cells) & (mask == FLUID)
        mask[band] = SPONGE

    # outer faces are pinned
    for ax in range(3):
        sl = [slice(None)] * 3
        for end in (0, -1):
            sl[ax] = end
            face = mask[tuple(sl)]
            face[face != OBSTACLE] = BOUNDARY
    return CartesianGrid(obstacle, L, n, mask, sponge_cells, sponge_strength)


class InitialData:
    """Cauchy data (f, g) as grid fields.

    Boundary vanishing is not enforced here; solvers check it where their
    contracts require it.
    """

    def __init__(self, grid, f, g):
        f = np.asarray(f, dtype=float)
        g = np.asarray(g, dtype=float)
        gshape = grid.shape
        # leading axes carry system components
        if f.shape[len(f.shape) - len(gshape):] != gshape or g.shape != f.shape:
            raise ParamError("data shape does not match grid")
        self.grid = grid
        self.f = f
        self.g = g

    @classmethod
    def from_physical(cls, grid, f_func, g_func):
        """Sample physical callables (of r, or of (x, y, z) points)."""
        pts = grid.coords()
        return cls(grid, grid.sample(f_func(pts)), grid.sample(g_func(pts)))

    def scaled(self, factor):
        return InitialData(self.grid, self.f * factor, self.g * factor)


# ---------------------------------------------------------------------------
# compatibility recursion

MAX_COMPAT_ORDER = 4


def radially_reducible(grid, spec: NullFormSpec):
    """Whether compatibility_functions can run spec on grid."""
    return spec.is_linear() or grid.kind != "radial" or (
        spec.radial_compatible() and grid.angular_mode == 0)


def compatibility_functions(data: InitialData, spec: NullFormSpec, k):
    """Formal time-derivative traces psi_0..psi_k of the solution at t = 0.

    psi_0 = f, psi_1 = g, and each following order comes from substituting
    the Taylor expansion in t into d_tt u = Lap u + Q(du, du) and matching
    powers of t.  Returned fields are a list of arrays of shape
    (n_components,) + grid shape.

    Spatial derivatives are centered differences, so each extra order
    costs accuracy; orders above 4 are refused.
    """
    if k < 0:
        raise ParamError("order k must be >= 0")
    if k > MAX_COMPAT_ORDER:
        raise OrderError("compatibility order capped at %d" % MAX_COMPAT_ORDER)
    grid = data.grid
    N = spec.n_components
    fshape = (N,) + grid.shape

    f = np.broadcast_to(data.f, fshape).copy()
    g = np.broadcast_to(data.g, fshape).copy()

    if not radially_reducible(grid, spec):
        raise ParamError("the nonlinear recursion on a radial grid needs "
                         "q0 terms and angular_mode = 0")

    # Taylor coefficients a_j = psi_j / j!
    a = [f, g]
    for p in range(k - 1):
        nxt = np.empty(fshape)
        for i in range(N):
            grid.laplace(a[p][i], out=nxt[i])
        if not spec.is_linear():
            nxt += _q_taylor_coefficient(grid, spec, a, p)
        a.append(nxt / ((p + 1) * (p + 2)))

    fact = 1.0
    psis = []
    for j, aj in enumerate(a[:k + 1]):
        if j >= 2:
            fact *= j
        psis.append(aj * (fact if j >= 2 else 1.0))
    return psis


def _q_taylor_coefficient(grid, spec, a, p):
    """Coefficient of t^p in Q(du, du) given Taylor coefficients a_0..a_{p+1}."""
    N = spec.n_components
    shape = a[0].shape[1:]
    # gradient components (d_t, d_1, ...) of component i at Taylor order m
    grads = [[((m + 1) * a[m + 1][i],) + grid.gradient(a[m][i])
              for m in range(p + 1)] for i in range(N)]
    out = np.zeros((N,) + shape)
    for (i, j, kk, coeff, form) in spec.terms:
        acc = np.zeros(shape)
        for m in range(p + 1):
            acc += eval_components(form, grads[j][m], grads[kk][p - m])
        out[i] += coeff * acc
    return out


def check_compatibility(data: InitialData, spec: NullFormSpec, k):
    """Max-norm of each psi_j on the obstacle boundary nodes."""
    return [float(np.max(np.abs(data.grid.on_boundary(psi)), initial=0.0))
            for psi in compatibility_functions(data, spec, k)]
