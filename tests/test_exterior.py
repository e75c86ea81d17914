"""Grids, obstacle masks, initial data, and the compatibility recursion."""

import numpy as np
import pytest

from nullwave import exterior, fd
from nullwave.errors import OrderError, ParamError
from nullwave.exterior import (
    BOUNDARY,
    FLUID,
    OBSTACLE,
    SPONGE,
    InitialData,
    Obstacle,
    build_masked_grid,
    build_radial_grid,
)
from nullwave.nullforms import NullFormSpec


# ---------------------------------------------------------------------------
# obstacles


def test_sphere_obstacle_geometry():
    obs = Obstacle.sphere(1.5)
    assert obs.max_radius == 1.5
    assert np.allclose(obs.semi_axes, [1.5, 1.5, 1.5])
    assert obs.contains([0.0, 0.0, 0.0])
    assert obs.contains([1.0, 0.5, 0.5])
    assert not obs.contains([1.5, 0.0, 0.0])
    assert np.allclose(obs.support_radius(np.eye(3)), 1.5)


def test_ellipsoid_support_radius():
    obs = Obstacle.ellipsoid(2.0, 1.0, 0.5)
    assert obs.max_radius == 2.0
    assert np.isclose(obs.support_radius([1.0, 0.0, 0.0]), 2.0)
    assert np.isclose(obs.support_radius([0.0, 1.0, 0.0]), 1.0)
    assert np.isclose(obs.support_radius([0.0, 0.0, 1.0]), 0.5)
    w = np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0)
    # 1 / sqrt(w1^2/a^2 + w2^2/b^2)
    expect = 1.0 / np.sqrt(0.5 / 4.0 + 0.5 / 1.0)
    assert np.isclose(obs.support_radius(w), expect)
    # the support point sits on the boundary up to roundoff
    p = w * obs.support_radius(w)
    assert obs.contains(p * 0.999)
    assert not obs.contains(p * 1.001)


def test_obstacle_rejects_bad_params():
    with pytest.raises(ParamError):
        Obstacle.sphere(0.0)
    with pytest.raises(ParamError):
        Obstacle.ellipsoid(1.0, -0.5, 1.0)
    with pytest.raises(ParamError):
        Obstacle("cube", (1.0,))
    for kind, params in (("sphere", (1.0, 2.0)), ("ellipsoid", (1.0, 2.0))):
        with pytest.raises(ParamError):
            Obstacle(kind, params)
    # NaN passes a "<= 0" test: each slot must be refused
    for bad in (np.nan, np.inf):
        with pytest.raises(ParamError):
            Obstacle.sphere(bad)
        for slot in range(3):
            axes = [1.0, 1.0, 1.0]
            axes[slot] = bad
            with pytest.raises(ParamError):
                Obstacle.ellipsoid(*axes)


# ---------------------------------------------------------------------------
# radial grids


def test_radial_grid_layout():
    grid = build_radial_grid(1.0, 6.0, 100)
    assert grid.n_nodes == 101
    assert np.isclose(grid.h, 0.05)
    assert grid.r[0] == 1.0
    assert np.isclose(grid.r[-1], 6.0)
    assert grid.zeros().shape == (101,)
    assert grid.angular_mode == 0


def test_radial_grid_rejects_bad_params():
    with pytest.raises(ParamError):
        build_radial_grid(0.0, 6.0, 100)
    with pytest.raises(ParamError):
        build_radial_grid(6.0, 1.0, 100)
    with pytest.raises(ParamError):
        build_radial_grid(1.0, 6.0, 8)
    with pytest.raises(ParamError):
        build_radial_grid(1.0, 6.0, 100, angular_mode=-1)
    with pytest.raises(ParamError):
        build_radial_grid(1.0, 6.0, 100, sponge_cells=60)


def test_radial_physical_round_trip():
    grid = build_radial_grid(1.0, 6.0, 50)
    u = np.sin(grid.r)
    w = grid.from_physical(u)
    assert np.allclose(w, grid.r * u)
    assert np.allclose(grid.to_physical(w), u)


def test_radial_physical_derivative():
    grid = build_radial_grid(1.0, 6.0, 400)
    u = np.exp(-((grid.r - 3.0) ** 2))
    (du,) = grid.native_gradient(grid.from_physical(u))
    exact = -2.0 * (grid.r - 3.0) * u
    assert np.max(np.abs(du - exact)) < 2e-4


def test_radial_sponge_profile():
    grid = build_radial_grid(1.0, 6.0, 100, sponge_cells=20,
                             sponge_strength=3.0)
    sig = grid.sponge_sigma()
    assert np.all(sig[:81] == 0.0)
    band = sig[80:]
    assert np.all(np.diff(band) > 0)
    assert np.isclose(band[-1], 3.0)
    # no sponge requested: identically zero
    assert np.all(build_radial_grid(1.0, 6.0, 100).sponge_sigma() == 0.0)


# ---------------------------------------------------------------------------
# masked Cartesian grids


def test_masked_grid_classification():
    obs = Obstacle.sphere(1.0)
    grid = build_masked_grid(obs, 12.0, 32, sponge_cells=8)
    mask = grid.mask
    pts = grid.coords()

    solid = obs.contains(pts)
    assert np.all(mask[solid] == OBSTACLE)
    assert not np.any(mask[~solid] == OBSTACLE)

    # every staircase node touches the solid region through a 6-neighbor
    b = mask == BOUNDARY
    near_solid = np.zeros_like(solid)
    for ax in range(3):
        near_solid |= np.roll(solid, 1, axis=ax)
        near_solid |= np.roll(solid, -1, axis=ax)
    inner = b & (np.max(np.abs(pts), axis=-1) < 6.0 - grid.h / 2)
    assert np.all(near_solid[inner])

    # outer faces are pinned
    for ax in range(3):
        sl = [slice(None)] * 3
        for end in (0, -1):
            sl[ax] = end
            assert np.all(mask[tuple(sl)] == BOUNDARY)

    # evolved set excludes solid and pinned nodes
    upd = grid.updated()
    assert not np.any(upd & (mask == OBSTACLE))
    assert not np.any(upd & b)
    assert np.any(mask == SPONGE)


def test_masked_grid_sponge_sits_inside_faces():
    obs = Obstacle.sphere(1.0)
    grid = build_masked_grid(obs, 12.0, 32, sponge_cells=8,
                             sponge_strength=2.0)
    sig = grid.sponge_sigma()
    assert np.max(sig) <= 2.0
    # center of the cube is undamped
    c = grid.n // 2
    assert sig[c, c, c] == 0.0
    # a node one cell inside a face is damped
    assert sig[1, c, c] > 0.0
    assert np.all(sig[grid.mask == OBSTACLE] == 0.0)


def test_masked_grid_rejects_bad_params():
    obs = Obstacle.sphere(4.0)
    with pytest.raises(ParamError):
        build_masked_grid(obs, 12.0, 32)
    with pytest.raises(ParamError):
        build_masked_grid(Obstacle.sphere(1.0), 12.0, 8)
    with pytest.raises(ParamError):
        build_masked_grid(Obstacle.sphere(1.0), 12.0, 32, sponge_cells=4)
    # a band wider than half the cube would swallow every fluid node
    with pytest.raises(ParamError):
        build_masked_grid(Obstacle.sphere(1.0), 12.0, 24, sponge_cells=13)


def _stencil_cases(least):
    """(y, axis, out) over every axis of 1-d, 3-d and 4-d (row-stacked)
    arrays with axis lengths least, 5 and 49: C-contiguous, strided and
    transposed inputs, with no out, a C-contiguous out and a transposed
    one (which the stencils refuse unless it is C-contiguous too)."""
    rng = np.random.default_rng(5)
    for shape in [(least,), (5,), (49,), (least, 5, 49), (5, 49, least, 5)]:
        big = rng.standard_normal(tuple(2 * n for n in shape))
        y = big[tuple(slice(None, n) for n in shape)].copy()
        for view in (y, y.T, big[(slice(None, None, 2),) * len(shape)]):
            for axis in range(-view.ndim, view.ndim):
                yield view, axis, None
                yield view, axis, np.full(view.shape, np.nan)
                yield view, axis, np.full(view.shape[::-1], np.nan).T


def test_d1_matches_np_gradient():
    # the flat interior and numpy's ends are np.gradient byte for byte
    for y, axis, out in _stencil_cases(3):
        if out is not None and not out.flags.c_contiguous:
            with pytest.raises(ParamError):
                fd.d1(y, 0.3, axis=axis, out=out)
            continue
        want = np.gradient(y, 0.3, axis=axis, edge_order=2)
        got = fd.d1(y, 0.3, axis=axis, out=out)
        assert out is None or got is out
        assert got.tobytes() == want.tobytes(), (y.shape, axis)
    with pytest.raises(ParamError):
        fd.d1(np.ones((5, 2)), 0.3, axis=-1)


def test_d2_matches_moveaxis_reference():
    # the flat stencil does the moveaxis form's arithmetic, bit for bit,
    # whether it allocates its result or writes into out
    def reference(y, h, axis):
        y = np.moveaxis(y, axis, -1)
        out = np.empty_like(y)
        out[..., 1:-1] = (y[..., 2:] - 2.0 * y[..., 1:-1] + y[..., :-2]) / h**2
        out[..., 0] = (2.0 * y[..., 0] - 5.0 * y[..., 1] + 4.0 * y[..., 2]
                       - y[..., 3]) / h**2
        out[..., -1] = (2.0 * y[..., -1] - 5.0 * y[..., -2]
                        + 4.0 * y[..., -3] - y[..., -4]) / h**2
        return np.moveaxis(out, -1, axis)

    for y, axis, out in _stencil_cases(4):
        if out is not None and not out.flags.c_contiguous:
            with pytest.raises(ParamError):
                fd.d2(y, 0.3, axis=axis, out=out)
            continue
        got = fd.d2(y, 0.3, axis=axis, out=out)
        assert out is None or got is out
        assert got.tobytes() == reference(y, 0.3, axis).tobytes()
    with pytest.raises(ParamError):
        fd.d2(np.ones((3, 5)), 0.3, axis=0)


# ---------------------------------------------------------------------------
# the shared grid interface

CONTRACT_GRIDS = {
    "radial": lambda: build_radial_grid(1.0, 6.0, 200),
    "ellipsoid": lambda: build_masked_grid(
        Obstacle.ellipsoid(1.4, 1.0, 0.8), 12.0, 24, sponge_cells=8),
}


@pytest.mark.parametrize("name", sorted(CONTRACT_GRIDS))
def test_grid_contract_pin_zeroes_exactly_the_fixed_nodes(name):
    grid = CONTRACT_GRIDS[name]()
    a = np.ones((2,) + grid.zeros().shape)
    grid.pin(a)
    assert np.array_equal(a == 0.0,
                          np.broadcast_to(~grid.updated(), a.shape))


@pytest.mark.parametrize("name", sorted(CONTRACT_GRIDS))
def test_grid_contract_weights(name):
    grid = CONTRACT_GRIDS[name]()
    total = np.sum(grid.weights())
    if name == "radial":
        # the trapezoid rule on r^2 is O(h^2): 7e-6 relative at this h
        shell = 4.0 / 3.0 * np.pi * (grid.r_max**3 - grid.r0**3)
        assert total == pytest.approx(shell, rel=1e-4)
    else:
        live = np.count_nonzero(grid.updated())
        assert total == pytest.approx(grid.h**3 * live, rel=1e-12)


@pytest.mark.parametrize("name", sorted(CONTRACT_GRIDS))
def test_grid_contract_weights_and_updated_are_made_once(name):
    # one read-only array each, shared by every caller
    grid = CONTRACT_GRIDS[name]()
    for get in (grid.weights, grid.updated):
        assert get() is get()
        with pytest.raises(ValueError):
            get()[...] = 0
    live = np.ones(grid.n_nodes, dtype=bool) if name == "radial" else \
        (grid.mask == exterior.FLUID) | (grid.mask == exterior.SPONGE)
    if name == "radial":
        live[[0, -1]] = False
        vol = 4.0 * np.pi * grid.r**2 * fd.trapezoid(grid.h, grid.n_nodes)
    else:
        vol = np.where(live, grid.h**3, 0.0)
    assert np.array_equal(grid.updated(), live)
    assert grid.weights().tobytes() == vol.tobytes()


@pytest.mark.parametrize("name", sorted(CONTRACT_GRIDS))
def test_grid_contract_gradient_of_linear_field_is_exact(name):
    grid = CONTRACT_GRIDS[name]()
    slope = np.array([2.0, -1.0, 0.5])[:grid.ndim]
    x = grid.coords()
    u = (x[..., None] if grid.ndim == 1 else x) @ slope + 1.0
    live = grid.updated()
    native = grid.from_physical(u)
    for grad in (grid.gradient(u), grid.native_gradient(native)):
        assert len(grad) == grid.ndim
        for comp, c in zip(grad, slope):
            assert np.max(np.abs(comp[live] - c)) < 1e-11


# ---------------------------------------------------------------------------
# initial data


def test_initial_data_radial_representation():
    grid = build_radial_grid(1.0, 6.0, 50)
    data = InitialData.from_physical(grid, lambda r: (r - 1.0) ** 2,
                                     lambda r: np.zeros_like(r))
    assert np.allclose(data.f, grid.r * (grid.r - 1.0) ** 2)
    assert np.allclose(data.g, 0.0)
    assert grid.on_boundary(data.f) == 0.0
    assert grid.on_boundary(data.g) == 0.0


def test_initial_data_scaled():
    grid = build_radial_grid(1.0, 6.0, 50)
    data = InitialData.from_physical(grid, lambda r: r - 1.0,
                                     lambda r: 2.0 * (r - 1.0))
    half = data.scaled(0.5)
    assert np.allclose(half.f, 0.5 * data.f)
    assert np.allclose(half.g, 0.5 * data.g)


def test_initial_data_shape_mismatch():
    grid = build_radial_grid(1.0, 6.0, 50)
    with pytest.raises(ParamError):
        InitialData(grid, np.zeros(7), np.zeros(7))
    with pytest.raises(ParamError):
        InitialData(grid, np.zeros(51), np.zeros(50))


def test_initial_data_cartesian_zeroed_inside_obstacle():
    obs = Obstacle.sphere(1.0)
    grid = build_masked_grid(obs, 12.0, 24, sponge_cells=0)

    def f_func(p):
        return np.ones(p.shape[:-1])

    data = InitialData.from_physical(grid, f_func, f_func)
    assert np.all(data.f[grid.mask == OBSTACLE] == 0.0)
    assert np.all(grid.on_boundary(data.f) == 1.0)
    assert np.all(grid.on_boundary(data.g) == 1.0)


# ---------------------------------------------------------------------------
# compatibility recursion
#
# Semi-discrete oracle: substituting u = sum_p a_p t^p into
# u_tt = Lap u + Q0(du, du) gives
#   psi2 = Lap f + g^2 - |grad f|^2
#   psi3 = Lap g + 2 g psi2 - 2 <grad f, grad g>
# and for the linear equation psi_{j+2} = Lap psi_j.


def _radial_case(n):
    grid = build_radial_grid(1.0, 6.0, n)
    data = InitialData.from_physical(
        grid, lambda r: np.sin(r - 1.0),
        lambda r: (r - 1.0) * np.exp(-(r - 1.0)))
    r = grid.r
    s = r - 1.0
    fp, fpp = np.cos(s), -np.sin(s)
    g = s * np.exp(-s)
    gp = (1.0 - s) * np.exp(-s)
    gpp = (s - 2.0) * np.exp(-s)
    lf = fpp + 2.0 * fp / r
    lg = gpp + 2.0 * gp / r
    psi2 = lf + g**2 - fp**2
    psi3 = lg + 2.0 * g * psi2 - 2.0 * fp * gp
    return grid, data, psi2, psi3


def test_compatibility_second_order_convergence():
    spec = NullFormSpec.scalar_q0()
    errs2, errs3 = [], []
    for n in (100, 200, 400):
        grid, data, psi2, psi3 = _radial_case(n)
        psis = exterior.compatibility_functions(data, spec, 3)
        errs2.append(np.max(np.abs(psis[2][0] - psi2)))
        errs3.append(np.max(np.abs(psis[3][0] - psi3)))
    assert errs2[-1] < 1.5e-4 and errs3[-1] < 5e-4
    for errs in (errs2, errs3):
        for coarse, fine in zip(errs, errs[1:]):
            assert 3.2 < coarse / fine < 4.5


def test_compatibility_orders_zero_one_are_the_data():
    grid, data, _, _ = _radial_case(100)
    psis = exterior.compatibility_functions(data, NullFormSpec.scalar_q0(), 1)
    assert len(psis) == 2
    assert np.allclose(psis[0][0], grid.to_physical(data.f), atol=1e-13)
    assert np.allclose(psis[1][0], grid.to_physical(data.g), atol=1e-13)


def test_compatibility_linear_polynomial_exact():
    # f = r^2 - 1 keeps every finite difference inside the stencils' exact
    # range: psi2 = 6, psi4 = 0 to roundoff
    grid = build_radial_grid(1.0, 6.0, 200)
    data = InitialData.from_physical(grid, lambda r: r**2 - 1.0,
                                     lambda r: (r - 1.0) * (6.0 - r))
    psis = exterior.compatibility_functions(data, NullFormSpec.linear(1), 4)
    assert np.max(np.abs(psis[2][0] - 6.0)) < 1e-10
    lg = -6.0 + 14.0 / grid.r
    assert np.max(np.abs(psis[3][0] - lg)) < 1e-10
    # psi4 = Lap(const) picks up roundoff amplified by 1/h^2, nothing more
    assert np.max(np.abs(psis[4][0])) < 1e-6


def test_compatibility_boundary_traces():
    grid = build_radial_grid(1.0, 6.0, 200)
    data = InitialData.from_physical(grid, lambda r: (r - 1.0) ** 2,
                                     lambda r: (r - 1.0) * (6.0 - r))
    traces = exterior.check_compatibility(data, NullFormSpec.scalar_q0(), 2)
    assert traces[0] == 0.0 and traces[1] == 0.0
    # psi2(r0) = Lap f + g^2 - f'^2 = 2 at r = 1
    assert abs(traces[2] - 2.0) < 1e-9


def test_compatibility_cartesian_oracle():
    obs = Obstacle.sphere(1.0)
    spec = NullFormSpec.scalar_q0()
    errs = []
    for n in (48, 96):
        grid = build_masked_grid(obs, 12.0, n, sponge_cells=8)

        def f_func(p):
            rr = np.sqrt(np.sum(p * p, axis=-1))
            return np.exp(-((rr - 2.0) ** 2))

        def g_func(p):
            rr = np.sqrt(np.sum(p * p, axis=-1))
            return np.exp(-0.5 * (rr - 2.0) ** 2)

        data = InitialData.from_physical(grid, f_func, g_func)
        psis = exterior.compatibility_functions(data, spec, 2)
        c = grid.coords()
        r3 = np.sqrt(np.sum(c * c, axis=-1))
        with np.errstate(divide="ignore", invalid="ignore"):
            s = r3 - 2.0
            fp = -2.0 * s * np.exp(-(s**2))
            lapf = (4.0 * s**2 - 2.0) * np.exp(-(s**2)) + 2.0 * fp / r3
            exact = lapf + np.exp(-(s**2)) - fp**2
        away = ((r3 > 1.0 + 3.0 * grid.h)
                & (np.max(np.abs(c), axis=-1) < 6.0 - 3.0 * grid.h))
        errs.append(np.max(np.abs(psis[2][0] - exact)[away]))
    assert errs[0] < 0.08
    assert errs[1] < 0.021
    assert 3.2 < errs[0] / errs[1] < 4.4


def test_compatibility_order_cap_and_guards():
    grid, data, _, _ = _radial_case(100)
    spec = NullFormSpec.scalar_q0()
    with pytest.raises(OrderError):
        exterior.compatibility_functions(data, spec, 5)
    with pytest.raises(ParamError):
        exterior.compatibility_functions(data, spec, -1)
    # rotational forms have no radial reduction
    rot = NullFormSpec(1, [(0, 0, 0, 1.0, "q12")])
    with pytest.raises(ParamError):
        exterior.compatibility_functions(data, rot, 2)
    # nonlinear recursion is written for the l = 0 reduction only
    grid1 = build_radial_grid(1.0, 6.0, 100, angular_mode=1)
    data1 = InitialData.from_physical(grid1, lambda r: (r - 1.0) ** 2,
                                      lambda r: np.zeros_like(r))
    with pytest.raises(ParamError):
        exterior.compatibility_functions(data1, spec, 2)
