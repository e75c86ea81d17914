"""Conformal compactification of Minkowski space onto the Einstein cylinder.

Coordinates: a Minkowski event is (t, x) with x in R^3, r = |x|.  Its image
lives on the cylinder R x S^3 with time T in (-pi, pi) and a sphere point
X = (cos R, omega sin R) in R^4, where R is the colatitude from the north
pole (1,0,0,0).  The image of all of Minkowski space is the open diamond
R + |T| < pi.

The map in radial form:

    T = arctan(t+r) + arctan(t-r),   R = arctan(t+r) - arctan(t-r),

with inverse (t, x) = (sin T, Xvec) / (cos T + X0).  The conformal factor
relating the two metrics is Omega = cos T + cos R.

The seven canonical cylinder fields used throughout:

    Gamma_0 = d/dT
    Gamma_1..3 = X0 d/dX_k - X_k d/dX_0        (k = 1..3)
    Gamma_4..6 = X_j d/dX_k - X_k d/dX_j       ((j,k) = (1,2), (1,3), (2,3))

All functions accept scalar or broadcastable ndarray inputs.
"""

import numpy as np
from scipy.optimize import brentq

from .errors import DomainError, ParamError

# column layout of the Gamma frame
GAMMA_NAMES = ("dT", "b1", "b2", "b3", "rot12", "rot13", "rot23")

# row layout of the pushforward coefficient matrix
ROW_NAMES = ("dt", "dx1", "dx2", "dx3", "dT", "rot12", "rot13", "rot23")

_DEFAULT_OMEGA = np.array([0.0, 0.0, 1.0])


def _unit_directions(x, r):
    """x / |x| with an arbitrary unit vector where r = 0."""
    safe = np.where(r > 0.0, r, 1.0)
    w = x / safe[..., None]
    return np.where(r[..., None] > 0.0, w, _DEFAULT_OMEGA)


class MinkowskiPoint:
    """Event(s) (t, x) in R^{1+3}; x has shape (..., 3)."""

    __slots__ = ("t", "x")

    def __init__(self, t, x):
        t = np.asarray(t, dtype=float)
        x = np.asarray(x, dtype=float)
        if x.shape[-1:] != (3,):
            raise ParamError("x must have trailing dimension 3")
        self.t, xb = np.broadcast_arrays(t, x[..., 0])
        self.x = np.broadcast_to(x, self.t.shape + (3,))

    @property
    def r(self):
        return np.sqrt(np.sum(self.x * self.x, axis=-1))

    @property
    def omega(self):
        return _unit_directions(self.x, self.r)

    def __repr__(self):
        return "MinkowskiPoint(t=%r, x=%r)" % (self.t, self.x)


class EinsteinPoint:
    """Cylinder point(s) (T, R, omega); embedding X = (cos R, omega sin R)."""

    __slots__ = ("T", "R", "omega")

    def __init__(self, T, R, omega=None):
        T = np.asarray(T, dtype=float)
        R = np.asarray(R, dtype=float)
        if np.any(R < 0.0) or np.any(R >= np.pi):
            raise ParamError("R must lie in [0, pi)")
        if np.any(np.abs(T) >= np.pi):
            raise ParamError("T must lie in (-pi, pi)")
        if omega is None:
            omega = _DEFAULT_OMEGA
        omega = np.asarray(omega, dtype=float)
        if omega.shape[-1:] != (3,):
            raise ParamError("omega must have trailing dimension 3")
        nrm = np.sqrt(np.sum(omega * omega, axis=-1))
        if not np.allclose(nrm, 1.0, atol=1e-9):
            raise ParamError("omega must be unit")
        self.T, Rb = np.broadcast_arrays(T, R)
        self.R = Rb
        self.omega = np.broadcast_to(omega, self.T.shape + (3,))

    @property
    def X(self):
        """Embedding into S^3 in R^4, shape (..., 4)."""
        X = np.empty(self.T.shape + (4,))
        X[..., 0] = np.cos(self.R)
        X[..., 1:] = self.omega * np.sin(self.R)[..., None]
        return X

    def in_diamond(self):
        return self.R + np.abs(self.T) < np.pi

    def __repr__(self):
        return "EinsteinPoint(T=%r, R=%r)" % (self.T, self.R)


# ---------------------------------------------------------------------------
# forward / inverse map

def forward_tr(t, r):
    """Radial form of the compactification: (t, r) -> (T, R)."""
    t = np.asarray(t, dtype=float)
    r = np.asarray(r, dtype=float)
    ap = np.arctan(t + r)
    am = np.arctan(t - r)
    return ap + am, ap - am


def to_einstein(p: MinkowskiPoint) -> EinsteinPoint:
    """Map a Minkowski event into the open diamond."""
    r = p.r
    T, R = forward_tr(p.t, r)
    return EinsteinPoint(T, R, _unit_directions(p.x, r))


def from_einstein(q: EinsteinPoint) -> MinkowskiPoint:
    """Inverse map; requires cos T + X0 > 0 (inside the diamond)."""
    den = np.cos(q.T) + np.cos(q.R)
    if np.any(den <= 0.0):
        raise DomainError("point at or beyond null infinity (cos T + X0 <= 0)")
    t = np.sin(q.T) / den
    x = q.omega * (np.sin(q.R) / den)[..., None]
    return MinkowskiPoint(t, x)


# ---------------------------------------------------------------------------
# conformal factor

def conformal_factor_tr(t, r):
    """Omega(t, r) = 2 / sqrt((1+(t+r)^2)(1+(t-r)^2))."""
    t = np.asarray(t, dtype=float)
    r = np.asarray(r, dtype=float)
    return 2.0 / np.sqrt((1.0 + (t + r) ** 2) * (1.0 + (t - r) ** 2))


def conformal_factor(p: MinkowskiPoint):
    return conformal_factor_tr(p.t, p.r)


def conformal_factor_cylinder(q: EinsteinPoint):
    """The dual evaluation Omega = cos T + cos R at an image point."""
    return np.cos(q.T) + np.cos(q.R)


def conformal_gradient_tr(t, r):
    """Closed-form (dOmega/dt, dOmega/dr).

    From log Omega = log 2 - (log u+ + log u-)/2 with u± = 1 + (t±r)^2.
    """
    t = np.asarray(t, dtype=float)
    r = np.asarray(r, dtype=float)
    up = 1.0 + (t + r) ** 2
    um = 1.0 + (t - r) ** 2
    om = 2.0 / np.sqrt(up * um)
    dt = -om * ((t + r) / up + (t - r) / um)
    dr = -om * ((t + r) / up - (t - r) / um)
    return dt, dr


# ---------------------------------------------------------------------------
# pushforward coefficients (validated against finite differences of the
# pullback; the north-chart expansion uses the sign consistent with the
# Kelvin transform of the south chart)

def gamma_matrix(T, X):
    """Coefficient matrix (..., 8, 7) of the pushforward rows at (T, X)."""
    T = np.asarray(T, dtype=float)
    X = np.asarray(X, dtype=float)
    X0 = X[..., 0]
    Xv = X[..., 1:]
    cT = np.cos(T)
    sT = np.sin(T)
    om = cT + X0
    if np.any(om <= 0.0):
        raise DomainError("gamma coefficients undefined outside the diamond")

    south = X0 >= 0.0
    s = np.where(south, 1.0, -1.0)
    d = 1.0 + s * X0          # chart denominator, >= 1 on its own chart
    W = Xv / d[..., None]     # stereographic coordinate, |W| <= 1
    spread = 1.0 - s * cT

    M = np.zeros(np.broadcast_shapes(T.shape, X0.shape) + (8, 7))

    # d/dt row: global, chart free
    M[..., 0, 0] = 1.0 + cT * X0
    M[..., 0, 1:4] = -sT[..., None] * Xv

    # d/dx_j rows
    rotcol = {(1, 2): 4, (1, 3): 5, (2, 3): 6}
    for j in range(1, 4):
        M[..., j, 0] = -sT * Xv[..., j - 1]
        for k in range(1, 4):
            c = spread * Xv[..., j - 1] * W[..., k - 1]
            if k == j:
                c = c + s * om
            M[..., j, k] = c
        for m in range(1, 4):
            if m == j:
                continue
            if m < j:
                M[..., j, rotcol[(m, j)]] += om * W[..., m - 1]
            else:
                M[..., j, rotcol[(j, m)]] -= om * W[..., m - 1]

    # trivial rows: d/dT and the spatial rotations push to themselves
    M[..., 4, 0] = 1.0
    M[..., 5, 4] = 1.0
    M[..., 6, 5] = 1.0
    M[..., 7, 6] = 1.0
    return M


def gamma_pull(t, x, df_dt, df_dx):
    """Gamma-derivative values of a Minkowski scalar field, shape (..., 7).

    Uses the reverse expansion of the cylinder fields in d/dt, d/dx:

        Gamma_0 f   = (1 + t^2 + |x|^2)/2 f_t + t <x, grad f>
        Gamma_k f   = (1 + t^2 - |x|^2)/2 f_k + x_k (t f_t + <x, grad f>)
        rot_jk f    = x_j f_k - x_k f_j

    The plus sign on |x|^2 in Gamma_0 follows from the null-coordinate
    derivation d/dT = (1+U^2)/2 d/dU + (1+V^2)/2 d/dV with U, V = t +- r,
    and is what finite differences of the inverse map confirm; the two
    boost/rotation families use the minus-sign coefficient.
    """
    t = np.asarray(t, dtype=float)
    x = np.asarray(x, dtype=float)
    ft = np.asarray(df_dt, dtype=float)
    fx = np.asarray(df_dx, dtype=float)
    r2 = np.sum(x * x, axis=-1)
    half = 0.5 * (1.0 + t * t - r2)
    xdotg = np.sum(x * fx, axis=-1)
    out = np.empty(np.broadcast_shapes(t.shape, ft.shape) + (7,))
    out[..., 0] = (half + r2) * ft + t * xdotg
    for k in range(3):
        out[..., 1 + k] = half * fx[..., k] + x[..., k] * (t * ft + xdotg)
    out[..., 4] = x[..., 0] * fx[..., 1] - x[..., 1] * fx[..., 0]
    out[..., 5] = x[..., 0] * fx[..., 2] - x[..., 2] * fx[..., 0]
    out[..., 6] = x[..., 1] * fx[..., 2] - x[..., 2] * fx[..., 1]
    return out


# ---------------------------------------------------------------------------
# tip distance

def tip_distance_tr(t, r):
    """tip distance evaluated directly from Minkowski coordinates."""
    T, R = forward_tr(t, r)
    return np.sqrt((np.pi - T) ** 2 + R**2)


# ---------------------------------------------------------------------------
# obstacle image degeneration toward the tip

def _fibonacci_directions(n):
    """Deterministic, roughly uniform unit vectors on S^2."""
    i = np.arange(n) + 0.5
    z = 1.0 - 2.0 * i / n
    phi = i * (np.pi * (3.0 - np.sqrt(5.0)))
    s = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    return np.stack([s * np.cos(phi), s * np.sin(phi), z], axis=-1)


def _time_at_cylinder_slice(T, r):
    """The unique t >= 0 with forward time T at fixed spatial radius r."""
    f = lambda t: np.arctan(t + r) + np.arctan(t - r) - T
    if T <= 0.0:
        raise ParamError("slice time must be positive")
    hi = np.tan(min(T, np.pi - 1e-9) / 2.0) + r + 1.0
    while f(hi) < 0.0:
        hi *= 2.0
    return brentq(f, 0.0, hi, xtol=1e-14, rtol=1e-14)


def boundary_degeneration_ratio(T, obstacle, n_dirs=64):
    """max over obstacle-boundary image points at cylinder time T of
    dist_{S^3}(X, north pole) / (pi - T)^2.

    The obstacle world tube maps to a region whose sections collapse to the
    tip quadratically; this ratio stays in a fixed band as T -> pi.
    """
    if not (0.0 < T < np.pi):
        raise ParamError("T must lie in (0, pi)")
    dirs = _fibonacci_directions(n_dirs)
    best = 0.0
    for w in dirs:
        r = float(obstacle.support_radius(w))
        t = _time_at_cylinder_slice(T, r)
        _, R = forward_tr(t, r)
        best = max(best, float(R))
    return best / (np.pi - T) ** 2


# ---------------------------------------------------------------------------
# intertwining identity probe

def intertwine_residual(phi, phi_wave, t, x, h):
    """Residual of the conformal wave-operator identity at events (t, x).

    phi(T, X): smooth function on the cylinder (X ambient, shape (..., 4)).
    phi_wave(T, X): exact (d^2/dT^2 - Laplace_{S^3} + 1) phi.

    The right side pulls Omega * phi back to Minkowski coordinates and
    applies centered second differences with step h, so the residual
    should shrink like h^2.
    """
    t = np.asarray(t, dtype=float)
    x = np.asarray(x, dtype=float)

    def pullback(tt, xx):
        r = np.sqrt(np.sum(xx * xx, axis=-1))
        T, R = forward_tr(tt, r)
        w = _unit_directions(xx, r)
        X = np.empty(T.shape + (4,))
        X[..., 0] = np.cos(R)
        X[..., 1:] = w * np.sin(R)[..., None]
        return conformal_factor_tr(tt, r) * phi(T, X)

    f0 = pullback(t, x)
    box = (pullback(t + h, x) - 2.0 * f0 + pullback(t - h, x)) / h**2
    for j in range(3):
        e = np.zeros(3)
        e[j] = h
        box -= (pullback(t, x + e) - 2.0 * f0 + pullback(t, x - e)) / h**2

    r = np.sqrt(np.sum(x * x, axis=-1))
    T, R = forward_tr(t, r)
    w = _unit_directions(x, r)
    X = np.empty(T.shape + (4,))
    X[..., 0] = np.cos(R)
    X[..., 1:] = w * np.sin(R)[..., None]
    om = conformal_factor_tr(t, r)
    return phi_wave(T, X) - box / om**3
