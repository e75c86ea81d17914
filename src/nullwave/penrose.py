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

from .errors import DomainError, ParamError

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


def _section_colatitude(T, r):
    """Colatitude R of the image of the event at spatial radius r with
    cylinder time T in (0, pi).

    The inverse map gives sin R = r (cos R + cos T), and sin R - r cos R
    = hypot(1, r) sin(R - arctan r); the arcsin branch is the one that
    runs from R = 2 arctan r at T = 0 to R = 0 at T = pi.
    """
    return np.arctan(r) + np.arcsin(r * np.cos(T) / np.hypot(1.0, r))


def boundary_degeneration_ratio(T, obstacle, n_dirs=64):
    """max over obstacle-boundary image points at cylinder time T of
    dist_{S^3}(X, north pole) / (pi - T)^2.

    The obstacle world tube maps to a region whose sections collapse to the
    tip quadratically; this ratio stays in a fixed band as T -> pi.
    """
    if not (0.0 < T < np.pi):
        raise ParamError("T must lie in (0, pi)")
    r = obstacle.support_radius(_fibonacci_directions(n_dirs))
    return float(np.max(_section_colatitude(T, r))) / (np.pi - T) ** 2


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

    def image(tt, xx):
        p = MinkowskiPoint(tt, xx)
        q = to_einstein(p)
        return conformal_factor(p), q.T, q.X

    def pullback(tt, xx):
        om, T, X = image(tt, xx)
        return om * phi(T, X)

    om, T, X = image(t, x)
    f0 = om * phi(T, X)
    box = (pullback(t + h, x) - 2.0 * f0 + pullback(t - h, x)) / h**2
    for j in range(3):
        e = np.zeros(3)
        e[j] = h
        box -= (pullback(t, x + e) - 2.0 * f0 + pullback(t, x - e)) / h**2
    return phi_wave(T, X) - box / om**3
