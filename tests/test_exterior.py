"""Grids, obstacle masks, initial data, and the compatibility recursion."""

import re
import tracemalloc

import numpy as np
import pytest

from nullwave import exterior, fd
from nullwave.errors import OrderError, ParamError
from nullwave.exterior import (
    BOUNDARY,
    FLUID,
    OBSTACLE,
    SPONGE,
    CartesianGrid,
    InitialData,
    Obstacle,
    RadialGrid,
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


def test_radial_physical_derivative():
    grid = build_radial_grid(1.0, 6.0, 400)
    u = np.exp(-((grid.r - 3.0) ** 2))
    (du,) = grid.gradient(u)
    exact = -2.0 * (grid.r - 3.0) * u
    assert np.max(np.abs(du - exact)) < 2e-4


@pytest.mark.parametrize("l", [0, 1])
def test_radial_laplace_is_d2_of_r_u_over_r(l):
    # the centred d2(r u) / r inside; d2 u + (2/r) d1 u with one-sided
    # differences at the ends; and the mode term
    grid = build_radial_grid(1.0, 6.0, 400, angular_mode=l)
    r = grid.r
    u = np.stack([np.exp(-((r - 3.0) ** 2)), np.sin(r) / r])
    lap = grid.laplace(u)
    mode = l * (l + 1) * u / r**2
    inner = fd.d2(r * u, grid.h) / r - mode
    ends = fd.d2(u, grid.h) + 2.0 * fd.d1(u, grid.h) / r - mode
    scale = np.max(np.abs(lap))
    assert np.max(np.abs(lap - inner)[:, 1:-1]) < 1e-11 * scale
    assert np.max(np.abs(lap - ends)[:, [0, -1]]) < 1e-11 * scale
    # rows of a stack are the rows alone, and out and tmp take the result
    # and the scratch
    out, tmp = np.full((2, 2, grid.n_nodes), np.nan)
    assert grid.laplace(u, out=out, tmp=tmp) is out
    for row, want in zip(u, lap):
        assert grid.laplace(row).tobytes() == want.tobytes()
    assert out.tobytes() == lap.tobytes()


def test_radial_operator_scales_its_coefficients_onto_a_line():
    # the three interior coefficients times scale, the bytes of scale * k,
    # each in its own array on a 64-byte line
    grid = build_radial_grid(1.0, 6.0, 400, angular_mode=1)
    u, out, tmp = np.zeros((3,) + grid.shape)
    apply = grid.operator(u, out, tmp, 0.25)
    held = [cell.cell_contents for cell in apply.__closure__]
    coeffs = [a for a in held if isinstance(a, np.ndarray)
              and not any(np.shares_memory(a, b) for b in (u, out, tmp))]
    assert sorted(a.tobytes() for a in coeffs) == \
        sorted((0.25 * k).tobytes() for k in grid._inner)
    assert all(a.ctypes.data % 64 == 0 for a in coeffs)


def test_radial_laplace_near_the_origin_is_finite():
    # r0^2 underflows to 0, and l = 0 has no mode term to divide by it
    grid = build_radial_grid(1e-200, 1.0, 16)
    assert grid.r[0] ** 2 == 0.0
    assert np.all(np.isfinite(grid.laplace(np.cos(grid.r))))


def _peak_bytes(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_radial_laplace_allocates_no_field():
    grid = build_radial_grid(1.0, 36.0, 8000, angular_mode=1)
    u = np.sin(grid.r)
    out, tmp = np.empty((2, grid.n_nodes))
    assert _peak_bytes(lambda: grid.laplace(u, out=out, tmp=tmp)) \
        < u.nbytes / 10
    # nor does a bound operator's apply(), on either grid, at scale 1
    # (laplace's bytes) and at a half step: a few Python objects at most
    cart = build_masked_grid(Obstacle.ellipsoid(1.4, 1.0, 0.8), 12.0, 64,
                             sponge_cells=8)
    for g in (grid, cart):
        u = np.sin(g.radii())
        out, tmp = np.empty((2,) + u.shape)
        for scale in (1.0, 0.45 * g.h):
            apply = g.operator(u, out, tmp, scale)
            assert _peak_bytes(apply) < 4096
            assert apply() is out
            if scale == 1.0:
                assert out.tobytes() == g.laplace(u).tobytes()


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


def test_cube_laplace_is_second_order():
    # against the exact Laplacian (4 |x|^2 - 6) exp(-|x|^2) on every node
    # off the faces
    errs = []
    for n in (16, 32, 64):
        grid = build_masked_grid(Obstacle.sphere(0.5), 8.0, n, sponge_cells=0)
        r2 = np.sum(grid.coords() ** 2, axis=-1)
        f = np.exp(-r2)
        inside = (slice(1, -1),) * 3
        errs.append(np.max(np.abs(grid.laplace(f) - (4.0 * r2 - 6.0) * f)
                           [inside]))
    assert all(coarse > 3.5 * fine for coarse, fine in zip(errs, errs[1:]))


def test_cube_operator_stacks_pins_faces_and_refuses_copies():
    grid = build_masked_grid(Obstacle.ellipsoid(1.4, 1.0, 0.8), 12.0, 24,
                             sponge_cells=8)
    rng = np.random.default_rng(2)
    u = rng.standard_normal((2,) + grid.shape)
    out, tmp = np.full((2, 2) + grid.shape, np.nan)
    apply = grid.operator(u, out, tmp)
    assert apply() is out
    # each component of a stack is that component's own laplace
    for row, got in zip(u, out):
        assert got.tobytes() == grid.laplace(row).tobytes()
    # the six faces are written as exactly 0
    for axis in (-3, -2, -1):
        for end in (0, -1):
            assert np.all(np.take(out, end, axis=axis) == 0.0)
    # a strided view would be flattened into a copy, which apply() would
    # neither read afresh nor write through
    wide = np.empty((2,) + grid.shape[:-1] + (2 * grid.shape[-1],))
    views = (u[..., ::-1], wide[..., ::2])
    for bad in views:
        for args in ((bad, out, tmp), (u, bad, tmp), (u, out, bad)):
            with pytest.raises(ParamError):
                grid.operator(*args)


@pytest.mark.parametrize("name", ["radial", "cartesian"])
def test_gradient_writes_into_a_stacked_out(name):
    if name == "radial":
        grid = build_radial_grid(1.0, 6.0, 100)
    else:
        grid = build_masked_grid(Obstacle.sphere(1.0), 12.0, 16,
                                 sponge_cells=0)
    u = np.sin(grid.radii())
    out = np.full((grid.ndim,) + u.shape, np.nan)
    got = grid.gradient(u, out)
    assert all(np.shares_memory(g, o) for g, o in zip(got, out))
    assert out.tobytes() == np.array(grid.gradient(u)).tobytes()


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


# a spacing at which np.gradient's quotient x / (2 h) and the bound
# reciprocal's product x * (0.5 / h) agree on every value tried, and one
# at which they differ on some
D1_SPACINGS = (0.3, 0.0235)


def _d1_reference(y, h, axis):
    # the centred difference times the reciprocal 0.5 / h inside, and
    # np.gradient's second-order ends
    out = np.gradient(y, h, axis=axis, edge_order=2)
    y, inner = np.moveaxis(y, axis, -1), np.moveaxis(out, axis, -1)
    inner[..., 1:-1] = (y[..., 2:] - y[..., :-2]) * (0.5 / h)
    return out


def _within_an_ulp_of_np_gradient(got, y, h, axis):
    want = np.gradient(y, h, axis=axis, edge_order=2)
    assert np.all(np.abs(got - want) <= np.spacing(np.abs(want)))
    return got.tobytes() != want.tobytes()


def test_d1_matches_np_gradient():
    # d1 is its explicit arithmetic byte for byte, and np.gradient, which
    # divides by 2 h inside, within one ulp
    differs = dict.fromkeys(D1_SPACINGS, False)
    for y, axis, out in _stencil_cases(3):
        for h in D1_SPACINGS:
            if out is not None and not out.flags.c_contiguous:
                with pytest.raises(ParamError):
                    fd.d1(y, h, axis=axis, out=out)
                continue
            got = fd.d1(y, h, axis=axis, out=out)
            assert out is None or got is out
            assert got.tobytes() == _d1_reference(y, h, axis).tobytes(), \
                (y.shape, axis, h)
            differs[h] |= _within_an_ulp_of_np_gradient(got, y, h, axis)
    # the second spacing tells the two forms apart
    assert differs == {0.3: False, 0.0235: True}
    with pytest.raises(ParamError):
        fd.d1(np.ones((5, 2)), 0.3, axis=-1)


def test_bound_d1_reads_its_buffer_when_applied():
    # d1 is its bound form applied once; a bound one reads y as it is at
    # each call and gives the same bytes every time
    rng = np.random.default_rng(11)
    y, out = np.empty((2, 3, 7, 5))
    for h in D1_SPACINGS:
        apply = fd.d1_operator(y, h, axis=1, out=out)
        for _ in range(3):
            y[...] = rng.standard_normal(y.shape)
            assert apply() is out
            assert out.tobytes() == _d1_reference(y, h, 1).tobytes()
            _within_an_ulp_of_np_gradient(out, y, h, 1)
    with pytest.raises(ParamError):
        fd.d1_operator(y.T, 0.3)
    with pytest.raises(ParamError):
        fd.d1_operator(y.astype(np.float32), 0.3)


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


def test_empty_aligned_starts_at_its_offset_from_a_line():
    for shape in (801, (801,), (2, 201), (3, 5, 7)):
        for offset in (0, 8, 56):
            # several arrays, since malloc places each one elsewhere
            for a in [fd.empty_aligned(shape, offset) for _ in range(4)]:
                assert a.ctypes.data % 64 == offset
                assert a.shape == np.empty(shape).shape
                assert a.dtype == np.float64
                assert a.flags.c_contiguous and a.flags.writeable
    for offset in (-8, 4, 64):
        with pytest.raises(ParamError):
            fd.empty_aligned(10, offset)


# ---------------------------------------------------------------------------
# the shared grid interface

CONTRACT_GRIDS = {
    "radial": lambda: build_radial_grid(1.0, 6.0, 200),
    "ellipsoid": lambda: build_masked_grid(
        Obstacle.ellipsoid(1.4, 1.0, 0.8), 12.0, 24, sponge_cells=8),
}


def _public(obj):
    return {name for name in dir(obj) if not name.startswith("_")}


def _member_table():
    """The names in the member table of nullwave.exterior's docstring:
    its indented lines, names before the first run of two spaces."""
    names = set()
    for line in exterior.__doc__.splitlines():
        if line.startswith("    "):
            column = re.split(r"\s{2,}", line.strip())[0]
            names |= {n.strip() for n in
                      re.sub(r"\([^)]*\)", "", column).split(",")}
    return names


def test_grid_interface_is_the_docstring_table():
    # both grid classes define the same public members, and the table
    # lists exactly the members both grids' instances have
    radial, cart = CONTRACT_GRIDS["radial"](), CONTRACT_GRIDS["ellipsoid"]()
    assert _public(RadialGrid) == _public(CartesianGrid)
    shared = _public(radial) & _public(cart)
    assert _public(RadialGrid) <= shared
    assert _member_table() == shared


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
    grad = grid.gradient(u)
    assert len(grad) == grid.ndim
    for comp, c in zip(grad, slope):
        assert np.max(np.abs(comp[live] - c)) < 1e-11


def _solid(grid):
    """Nodes strictly inside the obstacle (none on a radial grid)."""
    if grid.kind == "radial":
        return grid.radii() < grid.r0
    return grid.obstacle.contains(grid.coords())


def _boundary(grid):
    """Radial: the node at r0; masked: the nodes outside the obstacle
    with a solid 6-neighbour."""
    if grid.kind == "radial":
        return grid.radii() <= grid.r0
    solid = _solid(grid)
    edge = np.zeros(grid.shape, dtype=bool)
    for ax in range(3):
        edge |= np.roll(solid, 1, axis=ax) | np.roll(solid, -1, axis=ax)
    return edge & ~solid


def _faces(grid):
    """The cube's outer faces; none on a radial grid, whose pinned outer
    end lies in the sponge ramp."""
    if grid.kind == "radial":
        return np.zeros(grid.shape, dtype=bool)
    end = np.isin(np.arange(grid.n + 1), (0, grid.n))
    return end[:, None, None] | end[None, :, None] | end[None, None, :]


def _states(grid):
    """One (u, v) row and a stack of two, random on every node."""
    rng = np.random.default_rng(3)
    return [tuple(rng.standard_normal(lead + grid.shape) for _ in "uv")
            for lead in ((), (2,))]


def _whole_field_energy(grid, inside, u, v):
    # c sum w (rho (v^2 + |du|^2 + u^2) + k u^2) over every node
    if grid.kind == "radial":
        l = grid.angular_mode
        c, rho, k = 4.0 * np.pi, grid.r**2, l * (l + 1)
        w = fd.trapezoid(grid.h, grid.n_nodes)
    else:
        c, rho, k, w = grid.h**3, 1.0, 0, grid.updated().astype(float)
    if inside is not None:
        w = np.where(inside, w, 0.0)
    dens = v**2 + sum(g**2 for g in grid.gradient(u)) + u**2
    return float(c * np.sum(w * (rho * dens + k * u**2)))


@pytest.mark.parametrize("name", sorted(CONTRACT_GRIDS))
def test_grid_contract_energy_is_the_whole_field_formula(name):
    grid = CONTRACT_GRIDS[name]()
    for A in (0.5, 2.0, 3.0, 100.0, None):
        inside = None if A is None else grid.radii() < A
        at = grid.energy_fn(inside)
        for u, v in _states(grid) * 2:
            assert at(u, v) == pytest.approx(
                _whole_field_energy(grid, inside, u, v), rel=1e-12, abs=0)
    assert grid.energy_fn(grid.radii() < 0.5)(u, v) == 0.0


@pytest.mark.parametrize("name", sorted(CONTRACT_GRIDS))
def test_grid_contract_energy_grows_with_its_ball(name):
    grid = CONTRACT_GRIDS[name]()
    for u, v in _states(grid):
        vals = [grid.energy_fn(grid.radii() < A)(u, v)
                for A in (1.5, 2.0, 3.0, 4.5, 6.0, 100.0)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        assert vals[-1] == grid.energy_fn()(u, v)


@pytest.mark.parametrize("name", sorted(CONTRACT_GRIDS))
def test_grid_contract_energy_reads_only_its_padded_box(name):
    # the box of the nodes with weight, one node wider on each side: a
    # change of u and v outside it leaves the energy's bytes as they are
    grid = CONTRACT_GRIDS[name]()
    for A in (2.0, 3.0):
        inside = grid.radii() < A
        held = np.nonzero(inside & (grid.weights() > 0))
        box = tuple(slice(max(i.min() - 1, 0), i.max() + 2) for i in held)
        outside = np.ones(grid.shape, dtype=bool)
        outside[box] = False
        assert outside.any()
        at = grid.energy_fn(inside)
        for u, v in _states(grid):
            before = at(u, v)
            u, v = u.copy(), v.copy()
            u[..., outside] = 1e6
            v[..., outside] = -1e6
            assert at(u, v) == before


@pytest.mark.parametrize("name", sorted(CONTRACT_GRIDS))
def test_grid_contract_sample_is_zero_exactly_on_solid_nodes(name):
    grid = CONTRACT_GRIDS[name]()
    u = 1.0 + np.abs(_states(grid)[0][0])
    got = grid.sample(u)
    solid = _solid(grid)
    assert np.all(got[solid] == 0.0)
    assert got[~solid].tobytes() == u[~solid].tobytes()


@pytest.mark.parametrize("name", sorted(CONTRACT_GRIDS))
def test_grid_contract_on_boundary_reads_the_boundary_in_c_order(name):
    grid = CONTRACT_GRIDS[name]()
    flat = np.arange(grid.n_nodes, dtype=float).reshape(grid.shape)
    want = np.flatnonzero(_boundary(grid))
    got = grid.on_boundary(np.stack([flat, -flat]))
    assert got.shape == (2, len(want)) and len(want) > 0
    assert np.array_equal(got, [want, -want])


@pytest.mark.parametrize("name", sorted(CONTRACT_GRIDS))
def test_grid_contract_sponge_follows_the_cubic_ramp(name):
    # strength ((cells - cells to the outer edge) / cells)^3 in the band,
    # zero inside it and on obstacle and boundary nodes; the radial
    # contract grid has no band, so it is taken with one too
    grids = [CONTRACT_GRIDS[name]()]
    if name == "radial":
        grids.append(build_radial_grid(1.0, 6.0, 200, sponge_cells=40,
                                       sponge_strength=3.0))
    for grid in grids:
        sig = grid.sponge_sigma()
        assert sig.shape == grid.shape
        if grid.kind == "radial":
            depth = (grid.r_max - grid.r) / grid.h
        else:
            depth = (grid.L / 2 - np.max(np.abs(grid.coords()), axis=-1)) \
                / grid.h
        depth = np.rint(depth)
        cells = grid.sponge_cells
        s = (cells - depth) / cells if cells else np.zeros(grid.shape)
        want = grid.sponge_strength * np.clip(s, 0.0, 1.0) ** 3
        fixed = _solid(grid) | _boundary(grid) | _faces(grid)
        want[fixed] = 0.0
        assert np.allclose(sig, want, rtol=1e-14, atol=0)
        assert np.any(sig > 0) == (cells > 0)
        assert np.all(sig[fixed] == 0.0)


# ---------------------------------------------------------------------------
# initial data


def test_initial_data_radial_representation():
    grid = build_radial_grid(1.0, 6.0, 50)
    data = InitialData.from_physical(grid, lambda r: (r - 1.0) ** 2,
                                     lambda r: np.zeros_like(r))
    assert data.f.tobytes() == ((grid.r - 1.0) ** 2).tobytes()
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
    assert np.allclose(psis[0][0], data.f, atol=1e-13)
    assert np.allclose(psis[1][0], data.g, atol=1e-13)


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


@pytest.mark.parametrize("name", sorted(CONTRACT_GRIDS))
def test_compatibility_skips_the_pinned_outer_edge(name):
    # the outer edge is pinned but is no obstacle boundary: data nonzero
    # there alone pass the order-1 check, and the wall is still read
    grid = CONTRACT_GRIDS[name]()
    outer = _faces(grid) if grid.kind != "radial" else grid.r >= grid.r_max
    f = np.where(outer, 1.0, 0.0)
    spec = NullFormSpec.scalar_q0()
    check = exterior.check_compatibility
    assert check(InitialData(grid, f, -f), spec, 1) == [0.0, 0.0]
    f[_boundary(grid)] = 2.0
    assert check(InitialData(grid, f, -f), spec, 1) == [2.0, 2.0]


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
