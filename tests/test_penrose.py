"""Compactification geometry: map identities, factors, obstacle sections."""

import os
import subprocess
import sys

import numpy as np
import pytest

import nullwave
from conftest import conformal_gradient_tr
from nullwave import penrose
from nullwave.errors import DomainError, ParamError
from nullwave.exterior import Obstacle


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
    assert np.all(q.R + np.abs(q.T) < np.pi)
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
    dt, dr = conformal_gradient_tr(t, r)
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


def test_section_colatitude_maps_back_onto_the_obstacle():
    # each boundary image point (T, R(omega), omega) is the image of an
    # event at t > 0 on the obstacle boundary
    dirs = penrose._fibonacci_directions(64)
    T = np.linspace(0.1, np.pi - 0.05, 50)[:, None]
    for obs in (Obstacle.sphere(1.0), Obstacle.ellipsoid(1.0, 0.5, 0.75),
                Obstacle.ellipsoid(2.0, 1.0, 0.3)):
        radius = obs.support_radius(dirs)
        R = penrose._section_colatitude(T, radius)
        p = penrose.from_einstein(penrose.EinsteinPoint(T, R, dirs))
        assert np.all(p.t > 0.0)
        assert np.max(np.abs(p.r - radius) / radius) < 1e-11


def test_import_loads_no_scipy():
    # numpy is the only runtime dependency; scipy serves the tests alone,
    # and scan entries run one at a time, so the CLI needs no thread pool
    code = ("import sys, nullwave.cli; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'scipy' or "
            "m.startswith('concurrent.futures')))")
    src = os.path.dirname(os.path.dirname(nullwave.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    assert out.stdout.strip() == "[]"
