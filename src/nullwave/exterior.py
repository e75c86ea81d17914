"""Obstacle geometry, exterior grids, initial data, compatibility recursion.

Two grid flavors are supported.  The radial grid covers [r0, r_max] for
problems with an exact angular reduction.  The masked Cartesian grid
embeds a convex obstacle into a cube with a staircase Dirichlet boundary
and an absorbing sponge band at the outer faces.

Both grids provide one interface, so the solver, the norms and the
Picard iteration each have a single code path.  Fields come in the
grid's native representation ("native") or as physical values u:

    kind, ndim, h, n_nodes, sponge_cells   identification and sizes
    zeros(), sponge_sigma()                native field shape, damping
    coords(), radii()                      sample points and |x| per node
    updated()                              nodes the stepper evolves
    laplace(native, out=None, tmp=None)    native spatial operator
    pin(a)                                 zero the Dirichlet nodes in place
    on_boundary(a)                         values on obstacle-boundary nodes
    weights()                              volume quadrature per node
    gradient(u), native_gradient(native)   physical spatial gradient tuple
    to_physical(native), from_physical(u)  representation changes
    sample(u)                              initial-data field, zero in solids
    energy(native_u, native_v, inside)     energy of a native state
    physical_laplacian(u), hessian_sq(u, grad)   second derivatives of u

The radial native representation w = r * u, which turns the radial wave
operator into d_tt - d_rr plus a centrifugal term l(l+1)/r^2, is private
to RadialGrid; the Cartesian native representation is u itself.
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
    """Strictly convex obstacle centered at the origin."""

    def __init__(self, kind, params):
        if kind == "sphere":
            (r0,) = params
            if r0 <= 0:
                raise ParamError("sphere radius must be positive")
        elif kind == "ellipsoid":
            a, b, c = params
            if min(a, b, c) <= 0:
                raise ParamError("ellipsoid semi-axes must be positive")
        else:
            raise ParamError("unknown obstacle kind %r" % (kind,))
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


def _sponge_ramp(s, strength):
    # cubic ramp keeps the damping smooth at the band entrance
    return strength * np.clip(s, 0.0, 1.0) ** 3


class RadialGrid:
    """Uniform grid on [r0, r_max]; native fields hold w = r * u.

    angular_mode is the spherical-harmonic degree l of the reduction; the
    wave operator on w is d_tt - d_rr + l(l+1)/r^2.  Both end nodes carry
    Dirichlet conditions; an optional sponge band of sponge_cells cells
    damps outgoing waves before the outer end.
    """

    kind = "radial"
    ndim = 1

    def __init__(self, r0, r_max, n, angular_mode=0, sponge_cells=0,
                 sponge_strength=4.0):
        if not (0 < r0 < r_max):
            raise ParamError("need 0 < r0 < r_max")
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
        self.r = self.r0 + self.h * np.arange(self.n + 1)
        self._r2 = self.r**2

    @property
    def n_nodes(self):
        return self.n + 1

    def zeros(self):
        return np.zeros(self.n_nodes)

    def sponge_sigma(self):
        """Damping coefficient per node (zero outside the band)."""
        sig = np.zeros(self.n_nodes)
        if self.sponge_cells > 0:
            start = self.n - self.sponge_cells
            s = (np.arange(self.n + 1) - start) / self.sponge_cells
            sig = _sponge_ramp(s, self.sponge_strength)
        return sig

    def radii(self):
        """Node radii, also the points physical callables are sampled at."""
        return self.r

    coords = radii

    def updated(self):
        """Nodes the stepper evolves (all but the two Dirichlet ends)."""
        live = np.ones(self.n_nodes, dtype=bool)
        live[[0, -1]] = False
        return live

    def laplace(self, w, out=None, tmp=None):
        """Native spatial operator d_rr - l(l+1)/r^2 on w.

        Written into out if given; tmp is scratch of w's shape for the
        mode term (allocated when needed and not given).
        """
        acc = fd.d2(w, self.h, axis=-1, out=out)
        l = self.angular_mode
        if l:
            tmp = np.multiply(l * (l + 1), w, out=tmp)
            np.divide(tmp, self._r2, out=tmp)
            acc -= tmp
        return acc

    def pin(self, a):
        """Zero the two Dirichlet end nodes in place."""
        a[..., 0] = 0.0
        a[..., -1] = 0.0

    def on_boundary(self, a):
        """Values of a on the obstacle boundary node r0."""
        return a[..., :1]

    def weights(self):
        """Trapezoid weights of the volume element 4 pi r^2 dr."""
        return 4.0 * np.pi * self.r**2 * fd.trapezoid(self.h, self.n_nodes)

    def gradient(self, u):
        """Physical spatial gradient (d u / d r,) of a physical field."""
        return (fd.d1(u, self.h, axis=-1),)

    def native_gradient(self, field):
        """Physical spatial gradient (d u / d r,) of a native field w.

        d u / d r = (w' - w/r) / r.
        """
        w = np.asarray(field, dtype=float)
        return ((fd.d1(w, self.h) - w / self.r) / self.r,)

    def to_physical(self, field):
        """w -> u = w / r."""
        return np.asarray(field, dtype=float) / self.r

    def from_physical(self, u):
        """u -> w = r * u."""
        return np.asarray(u, dtype=float) * self.r

    # initial data needs no masking: every radial node is outside r0
    sample = from_physical

    def energy(self, w, vw, inside=None):
        """Energy of the native state (w, w_t) over nodes where inside holds.

        The density is kept in w form, r^2 (|du|^2 + |u|^2) in terms of w,
        summed with trapezoid weights in r and 4 pi applied after the sum.
        """
        r = self.r
        wr = fd.d1(w, self.h, axis=-1)
        uphys = w / r
        dens = vw**2 + (wr - uphys)**2 + w**2
        l = self.angular_mode
        if l:
            dens = dens + (l * (l + 1)) * uphys**2
        wts = fd.trapezoid(self.h, self.n_nodes)
        if inside is not None:
            wts = np.where(inside, wts, 0.0)
        return float(4.0 * np.pi * np.sum(dens * wts))

    def physical_laplacian(self, u):
        """Laplacian of a physical field, including the mode term."""
        l = self.angular_mode
        lap = fd.d2(u, self.h) + 2.0 * fd.d1(u, self.h) / self.r
        if l:
            lap = lap - l * (l + 1) * u / self.r**2
        return lap

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
    return np.minimum.reduce(np.meshgrid(dist, dist, dist, indexing="ij"))


class CartesianGrid:
    """Cube [-L/2, L/2]^3 with (n+1)^3 nodes and a mask classifying them."""

    kind = "cartesian"
    ndim = 3

    def __init__(self, obstacle, L, n, mask, sponge_cells, sponge_strength):
        self.obstacle = obstacle
        self.L = float(L)
        self.n = int(n)
        self.h = self.L / self.n
        self.mask = mask
        self.sponge_cells = int(sponge_cells)
        self.sponge_strength = float(sponge_strength)
        # flat indices of the Dirichlet nodes; an integer index pins an
        # order of magnitude faster than a boolean mask
        self._pinned = np.flatnonzero(~self.updated())

    @property
    def n_nodes(self):
        return (self.n + 1) ** 3

    def zeros(self):
        m = self.n + 1
        return np.zeros((m, m, m))

    def coords(self):
        """Node coordinates, shape (m, m, m, 3)."""
        return _cube_coords(self.L, self.n)

    def radii(self):
        c = self.coords()
        return np.sqrt(np.sum(c * c, axis=-1))

    def updated(self):
        """Nodes the stepper evolves (fluid plus sponge)."""
        return (self.mask == FLUID) | (self.mask == SPONGE)

    def laplace(self, u, out=None, tmp=None):
        """Native spatial operator: the 7-point Laplacian.

        Written into out if given; tmp is scratch of u's shape that the
        second and third axis terms pass through (allocated if not given).
        """
        acc = fd.d2(u, self.h, axis=-3, out=out)
        if tmp is None:
            tmp = np.empty_like(acc)
        for axis in (-2, -1):
            acc += fd.d2(u, self.h, axis=axis, out=tmp)
        return acc

    physical_laplacian = laplace

    def pin(self, a):
        """Zero every node the stepper does not evolve, in place.

        a must be C-contiguous, so that the flattened index writes into
        it rather than into a copy.
        """
        if not a.flags.c_contiguous:
            raise ParamError("pinning needs a C-contiguous field")
        a.reshape(a.shape[:-3] + (-1,))[..., self._pinned] = 0.0

    def on_boundary(self, a):
        """Values of a on the Dirichlet boundary nodes."""
        return a[..., self.mask == BOUNDARY]

    def weights(self):
        """Volume quadrature: h^3 on evolved nodes, zero elsewhere."""
        return np.where(self.updated(), self.h**3, 0.0)

    def gradient(self, u):
        """Spatial gradient (d_1 u, d_2 u, d_3 u) of a field."""
        return tuple(fd.d1(u, self.h, axis=ax) for ax in (-3, -2, -1))

    native_gradient = gradient

    def to_physical(self, field):
        return np.asarray(field, dtype=float)

    def from_physical(self, u):
        return np.asarray(u, dtype=float)

    def sample(self, u):
        """Initial-data field of physical node values u, zero in solids."""
        return np.where(self.mask == OBSTACLE, 0.0, u)

    def energy(self, u, v, inside=None):
        """Sum of |du|^2 + |u|^2 over evolved nodes where inside holds."""
        dens = v**2 + u**2
        for g in self.gradient(u):
            dens = dens + g**2
        live = self.updated()
        if inside is not None:
            live = live & inside
        return float(np.sum(dens[..., live]) * self.h**3)

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

    def sponge_sigma(self):
        m = self.n + 1
        sig = np.zeros((m, m, m))
        if self.sponge_cells > 0:
            s = (self.sponge_cells - _face_cells(m)) / self.sponge_cells
            sig = _sponge_ramp(s, self.sponge_strength)
            sig[self.mask == OBSTACLE] = 0.0
            sig[self.mask == BOUNDARY] = 0.0
        return sig

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
    """Cauchy data (f, g) as native grid fields.

    On radial grids the stored arrays are w-representation (r * u); use
    from_physical to sample ordinary functions of r.  Boundary vanishing is
    not enforced here; solvers check it where their contracts require it.
    """

    def __init__(self, grid, f, g):
        f = np.asarray(f, dtype=float)
        g = np.asarray(g, dtype=float)
        gshape = grid.zeros().shape
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


def _boundary_max(grid, a):
    return float(np.max(np.abs(grid.on_boundary(a)), initial=0.0))


# ---------------------------------------------------------------------------
# compatibility recursion

MAX_COMPAT_ORDER = 4


def compatibility_functions(data: InitialData, spec: NullFormSpec, k):
    """Formal time-derivative traces psi_0..psi_k of the solution at t = 0.

    psi_0 = f, psi_1 = g, and each following order comes from substituting
    the Taylor expansion in t into d_tt u = Lap u + Q(du, du) and matching
    powers of t.  Returned fields are physical (u-space), as a list of
    arrays of shape (n_components,) + grid shape.

    Spatial derivatives are centered differences, so each extra order
    costs accuracy; orders above 4 are refused.
    """
    if k < 0:
        raise ParamError("order k must be >= 0")
    if k > MAX_COMPAT_ORDER:
        raise OrderError("compatibility order capped at %d" % MAX_COMPAT_ORDER)
    grid = data.grid
    N = spec.n_components
    shape = grid.zeros().shape
    fshape = (N,) + shape

    f = grid.to_physical(data.f)
    g = grid.to_physical(data.g)
    f = np.broadcast_to(f, fshape).copy()
    g = np.broadcast_to(g, fshape).copy()

    if not spec.is_linear():
        if grid.kind == "radial" and not spec.radial_compatible():
            raise ParamError("only q0 terms are radially reducible")
        if grid.kind == "radial" and grid.angular_mode != 0:
            raise ParamError("nonlinear recursion needs angular_mode = 0")

    # Taylor coefficients a_j = psi_j / j!
    a = [f, g]
    for p in range(k - 1):
        nxt = np.empty(fshape)
        for i in range(N):
            nxt[i] = grid.physical_laplacian(a[p][i])
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
    psis = compatibility_functions(data, spec, k)
    return [_boundary_max(data.grid, psi) for psi in psis]
