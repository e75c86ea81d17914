"""Compactification geometry: map identities, factors, frame pulls."""

import numpy as np
import pytest

from nullwave import penrose
from nullwave.errors import DomainError, ParamError


def random_events(rng, n, extent=100.0):
    t = rng.uniform(-extent, extent, size=n)
    x = rng.normal(size=(n, 3))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    x *= rng.uniform(0.0, extent, size=(n, 1))
    return penrose.MinkowskiPoint(t, x)


def test_round_trip_relative_error():
    rng = np.random.default_rng(101)
    p = random_events(rng, 10_000)
    back = penrose.from_einstein(penrose.to_einstein(p))
    scale = 1.0 + np.abs(p.t) + p.r
    err_t = np.abs(back.t - p.t) / scale
    err_x = np.max(np.abs(back.x - p.x), axis=-1) / scale
    assert max(err_t.max(), err_x.max()) < 1e-12


def test_forward_known_values():
    # at the obstacle surface of unit radius, initial slice
    T, R = penrose.forward_tr(0.0, 1.0)
    assert abs(T) < 1e-15
    assert abs(R - np.pi / 2) < 1e-15
    # t = r = 1 lands on T = R = arctan 2
    T, R = penrose.forward_tr(1.0, 1.0)
    assert abs(T - 1.1071487177940904) < 1e-15
    assert abs(R - 1.1071487177940904) < 1e-15


def test_image_inside_diamond():
    rng = np.random.default_rng(7)
    p = random_events(rng, 2000)
    q = penrose.to_einstein(p)
    assert np.all(q.in_diamond())
    assert np.all(np.abs(q.T) < np.pi)
    assert np.all((q.R >= 0) & (q.R < np.pi))


def test_conformal_factor_dual_formulas():
    rng = np.random.default_rng(13)
    p = random_events(rng, 10_000)
    q = penrose.to_einstein(p)
    om = penrose.conformal_factor(p)
    om2 = penrose.conformal_factor_cylinder(q)
    assert np.max(np.abs(om - om2) / om) < 1e-12
    assert np.all(om > 0)


def test_conformal_factor_initial_slice():
    r = np.linspace(0.0, 50.0, 200)
    om = penrose.conformal_factor_tr(np.zeros_like(r), r)
    assert np.allclose(om, 2.0 / (1.0 + r**2), rtol=1e-14)


def test_conformal_gradient_matches_finite_differences():
    rng = np.random.default_rng(5)
    t = rng.uniform(-3, 3, size=200)
    r = rng.uniform(0.1, 8, size=200)
    dt, dr = penrose.conformal_gradient_tr(t, r)
    h = 1e-6
    fd_t = (penrose.conformal_factor_tr(t + h, r)
            - penrose.conformal_factor_tr(t - h, r)) / (2 * h)
    fd_r = (penrose.conformal_factor_tr(t, r + h)
            - penrose.conformal_factor_tr(t, r - h)) / (2 * h)
    assert np.max(np.abs(dt - fd_t)) < 1e-8
    assert np.max(np.abs(dr - fd_r)) < 1e-8


def test_from_einstein_rejects_null_infinity():
    # T + R > pi lies beyond the null boundary: cos T + cos R < 0
    with pytest.raises(DomainError):
        penrose.from_einstein(penrose.EinsteinPoint(2.0, 1.5))


def test_gamma_pull_radial_scalar():
    # for q(t, r) the three boosts share one magnitude along omega and
    # the rotations vanish; check against the radial closed form
    rng = np.random.default_rng(23)
    n = 500
    t = rng.uniform(-2, 2, size=n)
    x = rng.normal(size=(n, 3))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    r = rng.uniform(0.3, 5.0, size=n)
    x *= r[:, None]

    # q = t^2 * r + r^3: q_t = 2 t r, q_r = t^2 + 3 r^2
    qt = 2 * t * r
    qr = t**2 + 3 * r**2
    omega = x / r[:, None]
    grad = omega * qr[:, None]
    out = penrose.gamma_pull(t, x, qt, grad)

    g0 = 0.5 * (1 + t**2 + r**2) * qt + t * r * qr
    gb = 0.5 * (1 + t**2 - r**2) * qr + r * t * qt + r**2 * qr
    assert np.allclose(out[:, 0], g0, atol=1e-10)
    boost = out[:, 1:4]
    assert np.allclose(boost, omega * gb[:, None], atol=1e-10)
    assert np.max(np.abs(out[:, 4:])) < 1e-12


def test_gamma_pull_sum_of_squares_invariant():
    # sum over the 7 fields of squares equals Gamma0^2 + G^2 for radial
    # scalars (rotations vanish, boosts decompose along omega)
    rng = np.random.default_rng(29)
    n = 200
    t = rng.uniform(-2, 2, size=n)
    x = rng.normal(size=(n, 3))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    r = rng.uniform(0.3, 4.0, size=n)
    x *= r[:, None]
    qt = np.cos(t) * r
    qr = np.sin(t) + 2 * r
    omega = x / r[:, None]
    out = penrose.gamma_pull(t, x, qt, omega * qr[:, None])
    g0 = 0.5 * (1 + t**2 + r**2) * qt + t * r * qr
    gb = 0.5 * (1 + t**2 - r**2) * qr + r * t * qt + r**2 * qr
    assert np.allclose(np.sum(out**2, axis=-1), g0**2 + gb**2, rtol=1e-10)


def _cylinder_probe():
    """An ambient scalar on the cylinder with exact frame derivatives."""
    def phi(T, X):
        return (np.cos(0.7 * T) * X[..., 1] * X[..., 3]
                + np.sin(T) * X[..., 0])

    def grad(T, X):
        g = np.zeros(np.shape(X))
        g[..., 0] = np.sin(T)
        g[..., 1] = np.cos(0.7 * T) * X[..., 3]
        g[..., 3] = np.cos(0.7 * T) * X[..., 1]
        return g

    def gammas(T, X):
        g = grad(T, X)
        rot = lambda a, b: X[..., a] * g[..., b] - X[..., b] * g[..., a]
        dT = (-0.7 * np.sin(0.7 * T) * X[..., 1] * X[..., 3]
              + np.cos(T) * X[..., 0])
        return np.array([dT, rot(0, 1), rot(0, 2), rot(0, 3),
                         rot(1, 2), rot(1, 3), rot(2, 3)])

    return phi, gammas


def _check_matrix_rows(rng, n, draw):
    # contract the coordinate-field rows with exact Gamma values of a
    # cylinder scalar; must match finite differences of its pullback
    phi, gammas = _cylinder_probe()
    h = 1e-6

    def pullback(t, x):
        q = penrose.to_einstein(penrose.MinkowskiPoint(t, x))
        return phi(q.T, q.X)

    for _ in range(n):
        t, x = draw(rng)
        q = penrose.to_einstein(penrose.MinkowskiPoint(t, x))
        M = penrose.gamma_matrix(q.T, q.X)
        gam = gammas(float(q.T), q.X)
        ft = (pullback(t + h, x) - pullback(t - h, x)) / (2 * h)
        assert float(M[0] @ gam) == pytest.approx(float(ft), abs=5e-9)
        for j in range(3):
            e = np.zeros(3)
            e[j] = h
            fj = (pullback(t, x + e) - pullback(t, x - e)) / (2 * h)
            assert float(M[1 + j] @ gam) == pytest.approx(float(fj),
                                                          abs=5e-9)


def test_gamma_matrix_expands_coordinate_fields():
    rng = np.random.default_rng(31)
    _check_matrix_rows(rng, 20,
                       lambda rng: (rng.uniform(-1.5, 1.5),
                                    rng.normal(size=3) * 1.2))


def test_gamma_matrix_far_chart():
    # large radius at small time pushes X0 = cos R negative, exercising
    # the second stereographic chart
    def draw(rng):
        t = rng.uniform(-0.3, 0.3)
        x = rng.normal(size=3)
        x *= (2.0 + rng.uniform(0, 3)) / np.linalg.norm(x)
        return t, x

    rng = np.random.default_rng(37)
    _check_matrix_rows(rng, 20, draw)


def test_tip_distance_closed_form():
    assert abs(penrose.tip_distance_tr(0.0, 0.0) - np.pi) < 1e-15
    # late-time approach to the tip: distance shrinks like ~2/t
    t = np.array([10.0, 100.0, 1000.0])
    d = penrose.tip_distance_tr(t, 1.0)
    assert np.all(np.diff(d) < 0)
    assert np.allclose(d * t / 2.0, 1.0, rtol=0.1)


def test_intertwine_residual_second_order():
    cases = [
        (lambda T, X: np.cos(0.7 * T) * X[..., 0],
         lambda T, X: (4 - 0.49) * np.cos(0.7 * T) * X[..., 0]),
        (lambda T, X: np.sin(1.1 * T) * X[..., 1] * X[..., 2],
         lambda T, X: (9 - 1.21) * np.sin(1.1 * T) * X[..., 1] * X[..., 2]),
        (lambda T, X: np.cos(0.5 * T) * (X[..., 0] ** 2 - X[..., 3] ** 2),
         lambda T, X: (9 - 0.25) * np.cos(0.5 * T)
         * (X[..., 0] ** 2 - X[..., 3] ** 2)),
    ]
    x = np.array([1.1, -0.6, 1.4])
    for phi, phiw in cases:
        res = [abs(float(penrose.intertwine_residual(phi, phiw, 0.7, x, h)))
               for h in (0.08, 0.04, 0.02)]
        orders = np.log2([res[0] / res[1], res[1] / res[2]])
        assert np.all(np.abs(orders - 2.0) < 0.3)


def test_boundary_degeneration_shrinks_like_square():
    from nullwave.exterior import Obstacle
    # obstacle sections collapse toward the tip like (pi - T)^2; the
    # normalized ratio approaches max_radius / 2
    for obs in (Obstacle.sphere(1.0), Obstacle.ellipsoid(1.0, 0.5, 0.75)):
        ratios = [penrose.boundary_degeneration_ratio(T, obs)
                  for T in (np.pi - 0.4, np.pi - 0.2, np.pi - 0.05)]
        assert all(0.1 < rr < 10.0 for rr in ratios)
        limit = obs.max_radius / 2.0
        assert ratios[-1] == pytest.approx(limit, rel=0.05)
        # monotone approach from below
        assert ratios[0] < ratios[1] < ratios[2]
