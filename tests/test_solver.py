"""Stepping scheme, conservation, propagation, and decay fitting."""

import tracemalloc

import numpy as np
import pytest

from conftest import observed_rows
from nullwave import exterior, fd, picard, solver
from nullwave.errors import CFLError, FitError, NaNError, ParamError
from nullwave.exterior import InitialData, Obstacle, build_masked_grid, build_radial_grid
from nullwave.nullforms import NullFormSpec
from nullwave.solver import (
    Trajectory,
    cfl_limit,
    fit_decay,
    local_energy_fn,
    solve_linear,
    step_count,
)


def _bump(r, center, half_width):
    s = np.clip(((r - center) / half_width) ** 2, 0.0, 1.0 - 1e-14)
    out = np.exp(-1.0 / (1.0 - s))
    return np.where(np.abs(r - center) >= half_width, 0.0, out)


# ---------------------------------------------------------------------------
# convergence against manufactured and closed-form solutions


def test_radial_manufactured_solution_second_order():
    # w = r u = sin(a (r - 1)) cos(b t) solves w_tt = w_rr + (a^2 - b^2) w
    # with both ends pinned to zero; the error is measured in r u
    L = 8.0
    a = 3.0 * 2.0 * np.pi / L
    b = 1.3
    errs = []
    for n in (200, 400, 800):
        grid = build_radial_grid(1.0, 1.0 + L, n)
        w0 = np.sin(a * (grid.r - 1.0))
        data = InitialData(grid, w0 / grid.r, np.zeros_like(w0))

        def force(t, _grid=grid):
            return ((a**2 - b**2) * np.cos(b * t)
                    * np.sin(a * (_grid.r - 1.0)) / _grid.r)

        traj = solve_linear(data, force, 2.0, stride=1)
        t_fin = traj.times[-1]
        exact = np.sin(a * (grid.r - 1.0)) * np.cos(b * t_fin)
        errs.append(np.max(np.abs(grid.r * traj.u[-1] - exact)))
    assert errs[0] < 7e-4
    assert errs[-1] < 5e-5
    for coarse, fine in zip(errs, errs[1:]):
        assert 1.85 < np.log2(coarse / fine) < 2.2


def test_cartesian_free_space_pulse():
    # before the pulse reaches the obstacle or the faces, the masked run
    # must match the exact radial solution (w0(r-t) + w0(r+t)) / (2 r)
    def f_profile(rr):
        return (1.0 - np.clip((rr - 3.0) ** 2, 0.0, 1.0)) ** 6

    def w0(rho):
        return rho * f_profile(rho)

    errs = []
    for n in (64, 128):
        grid = build_masked_grid(Obstacle.sphere(1.0), 16.0, n,
                                 sponge_cells=0)

        def f_func(p):
            return f_profile(np.sqrt(np.sum(p * p, axis=-1)))

        def g_func(p):
            return np.zeros(p.shape[:-1])

        data = InitialData.from_physical(grid, f_func, g_func)
        traj = solve_linear(data, None, 0.75, stride=1)
        t_fin = traj.times[-1]
        r3 = grid.radii()
        with np.errstate(divide="ignore", invalid="ignore"):
            exact = (w0(r3 - t_fin) + w0(r3 + t_fin)) / (2.0 * r3)
        live = grid.updated() & (r3 > 1.5)
        errs.append(np.max(np.abs(traj.u[-1] - exact)[live]))
    assert errs[0] < 0.07
    assert errs[1] < 0.016
    assert 3.4 < errs[0] / errs[1] < 5.0


# ---------------------------------------------------------------------------
# conservation and propagation invariants


def test_energy_drift_is_flat():
    # standing mode, reflecting ends, no sponge: the energy functional
    # oscillates (the |u|^2 term) but its least-squares slope stays at
    # roundoff level over four hundred time units
    grid = build_radial_grid(1.0, 9.0, 128)
    w0 = np.sin(2.0 * np.pi * (grid.r - 1.0))
    data = InitialData(grid, w0 / grid.r, np.zeros_like(w0))
    energy = local_energy_fn(grid, None)
    evals = []
    traj = solve_linear(data, None, 400.0, stride=4,
                        observe=lambda i, u, v: evals.append(energy(u, v)))
    evals = np.array(evals)
    times = traj.dt * 4 * np.arange(len(evals))
    e0 = evals[0]
    slope = np.polyfit(times, evals / e0, 1)[0]
    assert abs(slope) < 1e-7
    # the oscillation itself is small but nonzero
    assert 1e-4 < (evals.max() - evals.min()) / e0 < 0.1


def test_finite_propagation_exact_regime():
    # the discrete support grows one node per step, i.e. at speed h / dt =
    # 1 / 0.9; for t <= 2h / (1/0.9 - 1) the line a + t + 2h stays outside
    # it and the field there is exactly zero
    grid = build_radial_grid(1.0, 40.0, 156)
    h = grid.h
    assert h == 0.25
    amp = _bump(grid.r, 3.0, 1.5)          # support [1.5, 4.5]
    a = 4.5
    data = InitialData(grid, amp / grid.r, np.zeros_like(amp))
    dt = cfl_limit(grid)
    traj = solve_linear(data, None, 19 * dt, stride=19)
    t, u = traj.times[-1], traj.u[-1]
    assert traj.stride == 19 and t == 19 * dt
    assert t <= 2.0 * h / (1.0 / 0.9 - 1.0) + 1e-12
    outside = grid.r > a + t + 2.0 * h
    assert outside.sum() > 50
    assert np.max(np.abs(u[outside])) == 0.0


def test_finite_propagation_numerical_cone():
    # at later times the honest bound is the numerical cone a + t/0.9 + 2h:
    # exactly zero beyond it, only a small dispersive tail behind it
    grid = build_radial_grid(1.0, 40.0, 156)
    h = grid.h
    amp = _bump(grid.r, 3.0, 1.5)
    a = 4.5
    data = InitialData(grid, amp / grid.r, np.zeros_like(amp))
    dt = cfl_limit(grid)
    traj = solve_linear(data, None, 119 * dt, stride=119)
    t, u = traj.times[-1], traj.u[-1]
    assert traj.stride == 119 and t == 119 * dt
    cone = grid.r > a + t / 0.9 + 2.0 * h
    assert cone.sum() > 10
    assert np.max(np.abs(u[cone])) == 0.0
    phys = grid.r > a + t + 2.0 * h
    tail = np.max(np.abs(grid.r * u)[phys])
    assert 0.0 < tail < 1e-3


def test_sponge_absorbs_outgoing_pulse():
    def final_local_energy(sponge_cells):
        grid = build_radial_grid(1.0, 21.0, 800, sponge_cells=sponge_cells)
        amp = _bump(grid.r, 3.0, 1.0) / grid.r
        energy = local_energy_fn(grid, 10.0)
        evals = []
        solve_linear(InitialData(grid, amp, np.zeros_like(amp)),
                     None, 30.0, stride=100,
                     observe=lambda i, u, v: evals.append(energy(u, v)))
        return evals[-1]

    e_damped = final_local_energy(160)      # band of absolute width 4
    e_refl = final_local_energy(0)
    # the reflecting run sends the pulse back through r < 10; the band
    # absorbs most of it (the ramp itself reflects a few percent, so a
    # multiplicative sponge never reaches machine zero)
    assert e_refl > 1.0
    assert e_damped < 0.05 * e_refl


def test_superposition_of_data_and_forcing():
    grid = build_radial_grid(1.0, 6.0, 100)
    amp = _bump(grid.r, 3.0, 1.0)
    data = InitialData(grid, amp, np.zeros_like(amp))
    zero = InitialData(grid, np.zeros_like(amp), np.zeros_like(amp))

    def force(t):
        return np.cos(t) * _bump(grid.r, 2.5, 0.8)

    _, full_u, full_v = observed_rows(data, force, 4.0)
    _, hom_u, hom_v = observed_rows(data, None, 4.0)
    _, inhom_u, inhom_v = observed_rows(zero, force, 4.0)
    assert np.max(np.abs(full_u - hom_u - inhom_u)) < 1e-12
    assert np.max(np.abs(full_v - hom_v - inhom_v)) < 1e-12


def test_recorded_forcing_matches_callable():
    # midpoint sampling equals adjacent averaging exactly when the forcing
    # is linear in t
    grid = build_radial_grid(1.0, 5.0, 64)
    shape = np.sin(np.pi * (grid.r - 1.0) / 4.0)
    data = InitialData(grid, shape.copy(), np.zeros_like(shape))

    def f_call(t):
        return (0.3 + 2.0 * t) * shape

    t_end = 1.0
    dt = cfl_limit(grid)
    n_steps = max(int(np.ceil(t_end / dt - 1e-12)), 1)
    rec = np.array([f_call(k * dt) for k in range(n_steps + 1)])
    _, us1, vs1 = observed_rows(data, f_call, t_end)
    _, us2, vs2 = observed_rows(data, rec, t_end)
    assert len(us1) == n_steps + 1
    assert np.max(np.abs(us1 - us2)) < 1e-13
    assert np.max(np.abs(vs1 - vs2)) < 1e-12

    with pytest.raises(ParamError):
        solve_linear(data, rec[:3], t_end, stride=1)


# ---------------------------------------------------------------------------
# the in-place kernel against the two-Laplacian, allocating form


def _reference_laplace(grid, u, scale=1.0):
    # the allocating operator, scale times the Laplacian: the radial
    # stencil's coefficients taken times scale first, or the cube's six
    # neighbours summed axis by axis, 6 u subtracted and the sum taken
    # times scale / h^2, as the grid's bound operator takes them.  Inside
    # only: the two radial ends and the cube's faces are pinned, so the
    # values there never reach a state
    acc = np.zeros(u.shape)
    if grid.kind == "radial":
        # d2(r u) / r as a 3-point stencil
        r, h, l = grid.r, grid.h, grid.angular_mode
        d2, q, ri = 1.0 / h**2, 1.0 / (h * r[1:-1]), r[1:-1]
        acc[..., 1:-1] = ((scale * (d2 - q)) * u[..., :-2]
                          + (scale * (-2.0 * d2 - l * (l + 1) / ri**2))
                          * u[..., 1:-1]
                          + (scale * (d2 + q)) * u[..., 2:])
        return acc
    m = grid.n + 1
    inside = (...,) + (slice(1, -1),) * 3
    total = None
    for axis in range(3):
        for d in (-1, 1):
            at = [slice(1, -1)] * 3
            at[axis] = slice(1 + d, m - 1 + d)
            side = u[(...,) + tuple(at)]
            total = side if total is None else total + side
    acc[inside] = (total - 6.0 * u[inside]) * (scale / grid.h**2)
    return acc


def _per_axis_laplace(grid, u, scale=1.0):
    # the cube's Laplacian as three second differences, ((hi - 2 c) + lo)
    # divided by h^2 / scale each, summed: the order before the one flat
    # pass, kept as the tolerance reference of its rounding
    acc = np.zeros(u.shape)
    div = grid.h**2 / scale
    for axis in (-3, -2, -1):
        y = np.moveaxis(u, axis, -1)
        np.moveaxis(acc, axis, -1)[..., 1:-1] += (
            ((y[..., 2:] - 2.0 * y[..., 1:-1]) + y[..., :-2]) / div)
    return acc


def _reference_step(grid, u, v, dt, f_mid, damp, laplace=_reference_laplace):
    # velocity Verlet with (dt/2) L evaluated afresh for both kicks, and
    # the forcing's (dt/2) f added after it
    half = 0.5 * dt
    f_half = None if f_mid is None else half * f_mid
    vh = v + laplace(grid, u, half)
    if f_half is not None:
        vh = vh + f_half
    un = u + dt * vh
    grid.pin(un)
    vn = vh + laplace(grid, un, half)
    if f_half is not None:
        vn = vn + f_half
    if damp is not None:
        vn = vn * damp
    grid.pin(vn)
    return un, vn


def _unscaled_step(grid, u, v, dt, f_mid, damp):
    # the operand order of the kernel before (dt/2) went into the
    # operator: vh = v + (dt/2) (L(u) + f), and the same for the second kick
    a = _reference_laplace(grid, u)
    if f_mid is not None:
        a = a + f_mid
    vh = v + (0.5 * dt) * a
    un = u + dt * vh
    grid.pin(un)
    a = _reference_laplace(grid, un)
    if f_mid is not None:
        a = a + f_mid
    vn = vh + (0.5 * dt) * a
    if damp is not None:
        vn = vn * damp
    grid.pin(vn)
    return un, vn


def _reference_solve(data, forcing, n_steps, dt, step=_reference_step):
    grid = data.grid
    u = data.f.copy()
    v = data.g.copy()
    grid.pin(u)
    grid.pin(v)
    damp = None
    if grid.sponge_cells > 0:
        damp = np.exp(-grid.sponge_sigma() * dt)
    us, vs = [u], [v]
    for k in range(n_steps):
        if isinstance(forcing, np.ndarray):
            f_mid = 0.5 * (forcing[k] + forcing[k + 1])
        elif callable(forcing):
            f_mid = forcing(k * dt + 0.5 * dt)
        else:
            f_mid = None
        u, v = step(grid, u, v, dt, f_mid, damp)
        us.append(u)
        vs.append(v)
    return np.array(us), np.array(vs)


def _kernel_case(name):
    """(data, forcing, t_end) of one reference comparison."""
    if name == "ellipsoid":
        grid = build_masked_grid(Obstacle.ellipsoid(1.4, 1.0, 0.8), 12.0, 24,
                                 sponge_cells=8)

        def bump(p):
            return _bump(np.sqrt(np.sum(p * p, axis=-1)), 3.0, 1.5)

        return InitialData.from_physical(grid, bump, bump), None, 3.0
    l, sponge = (1, 40) if name == "radial-l1-sponge" else (0, 0)
    grid = build_radial_grid(1.0, 11.0, 200, angular_mode=l,
                             sponge_cells=sponge)
    amp = _bump(grid.r, 3.0, 1.0)
    data = InitialData(grid, amp, 0.5 * amp)
    forcing = None
    if name == "callable":
        def forcing(t):
            return np.cos(t) * _bump(grid.r, 2.5, 0.8)
    elif name == "recorded":
        # two stacked components, as a null-form system carries them
        data = InitialData(grid, np.stack([amp, -amp]), np.stack([amp, amp]))
        n_steps = int(np.ceil(6.0 / cfl_limit(grid) - 1e-12))
        rng = np.random.default_rng(3)
        forcing = rng.standard_normal((n_steps + 1,) + data.f.shape)
    return data, forcing, 6.0


KERNEL_CASES = ["radial-l0", "radial-l1-sponge", "callable", "recorded",
                "ellipsoid"]


@pytest.mark.parametrize("name", KERNEL_CASES)
def test_kernel_matches_two_laplacian_reference(name):
    data, forcing, t_end = _kernel_case(name)
    traj, seen_u, seen_v = observed_rows(data, forcing, t_end)
    us, vs = _reference_solve(data, forcing, traj.stride, traj.dt)
    assert seen_u.tobytes() == us.tobytes()
    assert seen_v.tobytes() == vs.tobytes()
    # the run keeps the first and the last state
    assert traj.u.tobytes() == us[[0, -1]].tobytes()
    assert traj.v.tobytes() == vs[[0, -1]].tobytes()


@pytest.mark.parametrize("name", KERNEL_CASES)
def test_kernel_stays_near_the_unscaled_kick_order(name):
    # folding dt/2 into the operator changes the rounding order only
    data, forcing, t_end = _kernel_case(name)
    traj, us, vs = observed_rows(data, forcing, t_end)
    ref_u, ref_v = _reference_solve(data, forcing, traj.stride, traj.dt,
                                    step=_unscaled_step)
    for got, want in ((us, ref_u), (vs, ref_v)):
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_cube_kernel_stays_near_the_per_axis_divide_order():
    # the one flat pre-scaled pass changes the rounding order only
    data, forcing, t_end = _kernel_case("ellipsoid")
    traj, us, vs = observed_rows(data, forcing, t_end)

    def per_axis_step(*args):
        return _reference_step(*args, laplace=_per_axis_laplace)

    ref_u, ref_v = _reference_solve(data, forcing, traj.stride, traj.dt,
                                    step=per_axis_step)
    for got, want in ((us, ref_u), (vs, ref_v)):
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_one_laplacian_per_step():
    for name in ("radial-l1-sponge", "ellipsoid"):
        data, forcing, t_end = _kernel_case(name)
        grid = data.grid
        binds, applied = [], []
        operator = grid.operator

        def counting(*args):
            binds.append(args)
            apply = operator(*args)

            def counted():
                applied.append(1)
                return apply()
            return counted

        grid.operator = counting
        solve_linear(data, forcing, t_end)
        # the operator is bound once, at a half step, and applied before
        # the first step, then once per step
        dt = cfl_limit(grid)
        assert len(binds) == 1 and binds[0][3] == 0.5 * dt
        assert len(applied) == step_count(t_end, dt) + 1


def test_run_buffers_start_on_cache_lines():
    # u and v on a 64-byte line, and out and tmp one value before one, so
    # that the interior the radial stencil writes starts on it
    for name in ("radial-l1-sponge", "ellipsoid"):
        data, forcing, t_end = _kernel_case(name)
        grid = data.grid
        binds, seen = [], []
        operator = grid.operator

        def recording(*args):
            binds.append(args)
            return operator(*args)

        grid.operator = recording
        solve_linear(data, forcing, t_end,
                     observe=lambda i, u, v: seen.append((u, v)))
        ((u, out, tmp, _),) = binds
        assert u.ctypes.data % 64 == 0
        assert out[..., 1:].ctypes.data % 64 == 0
        assert tmp[..., 1:].ctypes.data % 64 == 0
        assert all(np.shares_memory(a, u) and b.ctypes.data % 64 == 0
                   for a, b in seen)


def test_step_leaves_its_input_untouched():
    grid = build_radial_grid(1.0, 11.0, 200, angular_mode=1, sponge_cells=40)
    u = _bump(grid.r, 3.0, 1.0)
    v = 0.5 * u
    force = _bump(grid.r, 2.5, 0.8)
    before = (u.tobytes(), v.tobytes(), force.tobytes())
    data = InitialData(grid, u, v)
    dt = cfl_limit(grid)
    traj, us, vs = observed_rows(data, lambda t: force, dt)
    assert (u.tobytes(), v.tobytes(), force.tobytes()) == before
    assert data.f is u and data.g is v
    assert traj.stride == 1 and traj.times[-1] == dt
    damp = np.exp(-grid.sponge_sigma() * dt)
    un, vn = _reference_step(grid, u, v, dt, force, damp)
    assert us[1].tobytes() == traj.u[1].tobytes() == un.tobytes()
    assert vs[1].tobytes() == traj.v[1].tobytes() == vn.tobytes()


def test_solve_linear_leaves_data_and_forcing_untouched():
    data, rec, t_end = _kernel_case("recorded")
    before = (data.f.tobytes(), data.g.tobytes(), rec.tobytes())
    solve_linear(data, rec, t_end)
    assert (data.f.tobytes(), data.g.tobytes(), rec.tobytes()) == before

    grid = data.grid
    field = _bump(grid.r, 2.5, 0.8)
    kept = field.tobytes()
    solve_linear(data, lambda t: field, t_end)
    assert field.tobytes() == kept


def test_float32_forcing_is_averaged_in_float64():
    # Picard stores its forcing in float32: a run with it equals a run with
    # its float64 copy.  Rows 1 and 1 + 2**-23 average to 1 + 2**-24 in
    # float64, which a float32 sum rounds to 1
    data, rec, t_end = _kernel_case("recorded")
    rec32 = rec.astype(np.float32)
    rec32[0], rec32[1] = 1.0, 1.0 + 2.0**-23
    assert np.float32(0.5) * (rec32[0] + rec32[1])[0, 1] == 1.0
    _, us32, vs32 = observed_rows(data, rec32, t_end)
    _, us64, vs64 = observed_rows(data, rec32.astype(np.float64), t_end)
    assert us32.tobytes() == us64.tobytes()
    assert vs32.tobytes() == vs64.tobytes()


# ---------------------------------------------------------------------------
# observed runs


@pytest.mark.parametrize("name", ["radial-l1-sponge", "ellipsoid"])
def test_observer_sees_the_stored_rows(name):
    data, forcing, t_end = _kernel_case(name)
    seen = []

    def observe(i, u, v):
        assert not u.flags.writeable and not v.flags.writeable
        seen.append((i, u.tobytes(), v.tobytes()))

    observed = solve_linear(data, forcing, t_end, stride=3, observe=observe)
    dt = cfl_limit(data.grid)
    n_steps = step_count(t_end, dt, 3)
    us, vs = _reference_solve(data, forcing, n_steps, dt)
    assert [row[0] for row in seen] == list(range(n_steps // 3 + 1))
    for i, ub, vb in seen:
        assert ub == us[3 * i].tobytes()
        assert vb == vs[3 * i].tobytes()

    # the first and last rows only, with the snapshot times' ends and a
    # stride that still give the run's step count
    ends = [0, -1]
    times = dt * 3 * np.arange(len(seen))
    assert observed.times.tobytes() == times[ends].tobytes()
    assert observed.stride == n_steps
    assert observed.dt == dt
    assert observed.u.tobytes() == us[::3][ends].tobytes()
    assert observed.v.tobytes() == vs[::3][ends].tobytes()


@pytest.mark.parametrize("name", ["recorded", "ellipsoid"])
def test_observer_may_overwrite_the_recorded_rows_read(name):
    # by observe(i, ...) step i - 1 is done, and the steps left read
    # recorded rows i and above only
    data, rec, t_end = _kernel_case(name)
    if rec is None:
        n_steps = step_count(t_end, cfl_limit(data.grid))
        rng = np.random.default_rng(5)
        rec = rng.standard_normal((n_steps + 1,) + data.f.shape)
    _, us, vs = observed_rows(data, rec, t_end)
    spoiled = rec.copy()
    seen = []

    def observe(i, u, v):
        seen.append((u.tobytes(), v.tobytes()))
        spoiled[:i] = np.nan

    solve_linear(data, spoiled, t_end, observe=observe)
    assert len(seen) == len(us)
    for (ub, vb), u, v in zip(seen, us, vs):
        assert ub == u.tobytes() and vb == v.tobytes()


@pytest.mark.parametrize("name", ["radial-l0", "radial-l1", "ellipsoid"])
def test_observed_v_is_the_centred_difference_of_u(name):
    # Verlet's v is (u[m+1] - u[m-1]) / (2 dt) when nothing but u moves
    # it: no forcing and no sponge.  The Picard sweep reads this v as u_t
    if name == "ellipsoid":
        grid = build_masked_grid(Obstacle.ellipsoid(1.4, 1.0, 0.8), 12.0, 24,
                                 sponge_cells=0)

        def bump(p):
            return _bump(np.sqrt(np.sum(p * p, axis=-1)), 3.0, 1.5)

        data, t_end = InitialData.from_physical(grid, bump, bump), 3.0
    else:
        grid = build_radial_grid(1.0, 11.0, 200, angular_mode=int(name[-1]))
        amp = _bump(grid.r, 3.0, 1.0)
        data, t_end = InitialData(grid, amp, 0.5 * amp), 6.0
    assert grid.sponge_cells == 0
    traj, us, vs = observed_rows(data, None, t_end)
    assert len(us) > 10
    centred = (us[2:] - us[:-2]) / (2.0 * traj.dt)
    rows = len(centred)
    err = np.abs(centred - vs[1:-1]).reshape(rows, -1).max(axis=1)
    scale = np.abs(vs[1:-1]).reshape(rows, -1).max(axis=1)
    assert np.all(err <= 1e-13 * scale)


def test_local_energy_series_keeps_its_values():
    # energies taken on the observer's read-only views equal those of
    # copied states
    data, _, t_end = _kernel_case("radial-l1-sponge")
    grid = data.grid
    at = local_energy_fn(grid, 4.0)
    vals, rows = [], []

    def observe(i, u, v):
        vals.append(at(u, v))
        rows.append((u.copy(), v.copy()))

    traj = solve_linear(data, None, t_end, stride=10, observe=observe)
    assert np.all(np.array(vals) >= 0)
    # the energy with its weights made afresh for each state
    ref = np.array([grid.energy_fn(grid.radii() < 4.0)(u, v)
                    for u, v in rows])
    assert np.array(vals).tobytes() == ref.tobytes()
    assert at(traj.u[-1], traj.v[-1]) == vals[-1]
    for A in (0.0, -1.0):
        with pytest.raises(ParamError):
            local_energy_fn(grid, A)


# ---------------------------------------------------------------------------
# energies


def test_local_energy_monotone_in_radius():
    grid = build_radial_grid(1.0, 10.0, 200)
    amp = _bump(grid.r, 4.0, 2.0)
    vals = [local_energy_fn(grid, A)(amp, 0.5 * amp)
            for A in (2.0, 4.0, 6.0, 8.0, None)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    assert vals[-1] == grid.energy_fn()(amp, 0.5 * amp)


def _full_length_energy(grid, inside, u, v):
    # the density at every node, weighted by zero outside the ball
    l = grid.angular_mode
    wts = fd.trapezoid(grid.h, grid.n_nodes)
    if inside is not None:
        wts = np.where(inside, wts, 0.0)
    dens = (v**2 + fd.d1(u, grid.h, axis=-1)**2 + u**2) * grid.r**2
    if l:
        dens = dens + (l * (l + 1)) * u**2
    return float(4.0 * np.pi * np.sum(dens * wts))


@pytest.mark.parametrize("l", [0, 1])
def test_local_energy_reads_only_its_ball(l):
    # the energy over the nodes up to one past the ball is the full-length
    # formula's, byte for byte: for one row and for a stack, for balls
    # with no node, with one or two, and reaching to r_max or beyond it
    grid = build_radial_grid(1.0, 10.0, 200, angular_mode=l)
    amp = _bump(grid.r, 4.0, 2.0) + 0.1 * np.cos(grid.r)
    states = [(amp, 0.5 * amp), (np.stack([amp, -2.0 * amp]),
                                 np.stack([amp, np.sin(grid.r)]))]
    r = grid.r
    for A in (0.5, 1.0, r[0] + 0.5 * grid.h, r[1] + 0.5 * grid.h, 4.0,
              r[-2] + 0.5 * grid.h, 20.0, None):
        inside = None if A is None else r < A
        at = local_energy_fn(grid, A)
        for u, v in states + states:
            assert at(u, v) == _full_length_energy(grid, inside, u, v)
        if A is not None and A <= 1.0:
            assert at(amp, amp) == 0.0
    assert (local_energy_fn(grid, 20.0)(amp, amp)
            == grid.energy_fn()(amp, amp))


def test_angular_mode_energy_includes_centrifugal_term():
    grid0 = build_radial_grid(1.0, 10.0, 100, angular_mode=0)
    grid1 = build_radial_grid(1.0, 10.0, 100, angular_mode=1)
    amp = _bump(grid0.r, 4.0, 2.0)
    e0 = local_energy_fn(grid0, None)(amp, np.zeros_like(amp))
    e1 = local_energy_fn(grid1, None)(amp, np.zeros_like(amp))
    assert e1 > e0


# ---------------------------------------------------------------------------
# guards and plumbing


def test_cfl_limits():
    radial = build_radial_grid(1.0, 6.0, 100)
    assert np.isclose(cfl_limit(radial), 0.9 * radial.h)
    cart = build_masked_grid(Obstacle.sphere(1.0), 12.0, 24, sponge_cells=0)
    assert np.isclose(cfl_limit(cart), 0.9 * cart.h / np.sqrt(3.0))


def test_sponge_factor_never_amplifies():
    grids = [build_radial_grid(1.0, 11.0, 200, angular_mode=1,
                               sponge_cells=40),
             build_masked_grid(Obstacle.ellipsoid(1.4, 1.0, 0.8), 12.0, 24,
                               sponge_cells=8)]
    for grid in grids:
        start, damp = solver._damping(grid, cfl_limit(grid))
        assert damp.shape == (grid.n_nodes - start,)
        assert np.all(damp <= 1.0)
        # the band starts at the first damped node: the step skips only
        # nodes whose factor would be exactly 1
        sigma = grid.sponge_sigma().ravel()
        assert start > 0 and sigma[start] > 0 and not sigma[:start].any()
        # laid out as v's band is
        assert damp.ctypes.data % 64 == 8 * start % 64
    for grid in (build_radial_grid(1.0, 11.0, 200),
                 build_radial_grid(1.0, 11.0, 200, sponge_cells=40,
                                   sponge_strength=0.0)):
        assert solver._damping(grid, cfl_limit(grid)) is None
    for strength in (-1.0, np.nan):
        with pytest.raises(ParamError):
            build_radial_grid(1.0, 11.0, 200, sponge_cells=40,
                              sponge_strength=strength)
        with pytest.raises(ParamError):
            build_masked_grid(Obstacle.sphere(1.0), 12.0, 24, sponge_cells=8,
                              sponge_strength=strength)


def test_step_rejects_large_dt():
    grid = build_radial_grid(1.0, 6.0, 100)
    with pytest.raises(CFLError):
        solve_linear(InitialData(grid, grid.zeros(), grid.zeros()),
                     None, 1.0, dt=2.0 * cfl_limit(grid))


def test_blowup_raises_nan_error():
    grid = build_radial_grid(1.0, 6.0, 100)
    data = InitialData(grid, grid.zeros(), grid.zeros())

    def force(t):
        return np.full(grid.n_nodes, 1e308)

    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NaNError):
            solve_linear(data, force, 20.0)


def test_blowup_after_the_last_check_names_the_final_time():
    # five steps never reach a NAN_CHECK_INTERVAL check: the check after
    # the last step catches the field
    grid = build_radial_grid(1.0, 6.0, 100)
    data = InitialData(grid, grid.zeros(), grid.zeros())
    dt = cfl_limit(grid)
    assert 5 < solver.NAN_CHECK_INTERVAL

    def force(t):
        return np.full(grid.n_nodes, np.inf)

    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NaNError, match="final time %g$" % (5 * dt)):
            solve_linear(data, force, 5 * dt)


@pytest.mark.parametrize("width", [1, 7])
def test_recorded_forcing_of_another_field_shape_is_refused(width):
    # a (n_steps + 1, 1) record would broadcast as a constant forcing, and
    # a (n_steps + 1, 7) one would fail inside numpy
    grid = build_radial_grid(1.0, 6.0, 100)
    data = InitialData(grid, grid.zeros(), grid.zeros())
    n_steps = step_count(1.0, cfl_limit(grid))
    with pytest.raises(ParamError, match="shape"):
        solve_linear(data, np.ones((n_steps + 1, width)), 1.0)


def test_callable_forcing_of_another_field_shape_is_refused():
    grid = build_radial_grid(1.0, 6.0, 100)
    data = InitialData(grid, grid.zeros(), grid.zeros())
    calls = []

    def force(t):
        calls.append(t)
        return np.ones(1)

    with pytest.raises(ParamError, match="shape"):
        solve_linear(data, force, 1.0)
    # refused at its first value, before the first step
    assert len(calls) == 1


def test_stride_must_be_positive():
    grid = build_radial_grid(1.0, 6.0, 100)
    data = InitialData(grid, grid.zeros(), grid.zeros())
    for stride in (0, -1):
        with pytest.raises(ParamError, match="stride"):
            solve_linear(data, None, 1.0, stride=stride)


def test_trajectory_validation_and_series():
    grid = build_radial_grid(1.0, 6.0, 100)
    amp = _bump(grid.r, 3.0, 1.0)
    traj, us, vs = observed_rows(InitialData(grid, amp, np.zeros_like(amp)),
                                 None, 1.0, stride=5)
    # a snapshot every 5 steps; the run keeps the first and the last
    assert traj.stride == 5 * (len(us) - 1)
    assert np.isclose(traj.times[1] - traj.times[0], traj.stride * traj.dt)
    assert traj.u.shape == traj.v.shape == (2, grid.n_nodes)
    assert traj.u.tobytes() == us[[0, -1]].tobytes()

    with pytest.raises(ParamError):
        Trajectory(grid, np.array([]), None)
    with pytest.raises(ParamError):
        Trajectory(grid, np.array([0.0, 0.0]), None)


def test_stride_pads_step_count():
    grid = build_radial_grid(1.0, 6.0, 100)
    data = InitialData(grid, grid.zeros(), grid.zeros())
    traj = solve_linear(data, None, 1.0, stride=7)
    n_steps = round(traj.times[-1] / traj.dt)
    assert n_steps % 7 == 0
    assert traj.times[-1] >= 1.0
    with pytest.raises(ParamError):
        solve_linear(data, None, 1.0, stride=n_steps + 1)


@pytest.mark.parametrize("t_end, dt", [
    (np.nan, None), (np.inf, None), (-5.0, None), (0.0, None),
    (1.0, np.nan), (1.0, 0.0), (1.0, -1.0), (1.0, np.inf),
    (1e308, None), (60.0, 1e-308)],
    ids=["nan-t_end", "inf-t_end", "negative-t_end", "zero-t_end",
         "nan-dt", "zero-dt", "negative-dt", "inf-dt",
         "uncountable-t_end", "uncountable-dt"])
def test_step_count_refuses_a_nonpositive_or_nonfinite_run(t_end, dt):
    grid = build_radial_grid(1.0, 8.0, 200)
    data = picard.bump_data_family(grid)(1e-3)
    with pytest.raises(ParamError):
        step_count(t_end, cfl_limit(grid) if dt is None else dt)
    # solve_linear refuses a step above the CFL limit first
    with pytest.raises(CFLError if dt == np.inf else ParamError):
        solve_linear(data, None, t_end, dt=dt)
    if dt is None:
        with pytest.raises(ParamError):
            picard.picard_solve(data, NullFormSpec.scalar_q0(), t_end)


def test_a_run_holds_no_snapshot_rows():
    # the run-linear grid and data; a (snapshots x nodes) stack would
    # take about 61 MB at t_end 60 and twice that at twice the length
    grid = build_radial_grid(1.0, 36.0, 2000, angular_mode=1, sponge_cells=0)
    data = picard.bump_data_family(grid, center=2.2, velocity="zero")(1.0)
    for t_end in (60.0, 120.0):
        tracemalloc.start()
        try:
            solve_linear(data, None, t_end)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # u, v, the operator's output, its scratch and its three scaled
        # coefficients while stepping; u, v and the two kept states after
        assert peak < 8 * data.f.nbytes, (t_end, peak)


# ---------------------------------------------------------------------------
# decay fits


def test_fit_decay_exponential_synthetic():
    t = np.linspace(0.0, 10.0, 200)
    val = 3.0 * np.exp(-2.0 * t)
    fit = fit_decay((t, val), "exponential")
    assert abs(fit.rate - 2.0) < 1e-10
    assert abs(fit.amplitude - 3.0) < 1e-8
    assert fit.residual < 1e-12


def test_fit_decay_power_synthetic():
    t = np.linspace(0.0, 40.0, 300)
    val = 5.0 / (1.0 + t)
    fit = fit_decay((t, val), "power", window=(2.0, 30.0))
    assert abs(fit.rate + 1.0) < 1e-10
    assert fit.window[0] >= 2.0 and fit.window[1] <= 30.0


def test_fit_decay_guards():
    t = np.linspace(0.0, 5.0, 50)
    with pytest.raises(ParamError):
        fit_decay((t, np.exp(-t)), "cubic")
    with pytest.raises(FitError):
        fit_decay((t[:5], np.exp(-t[:5])), "exponential")
    with pytest.raises(FitError):
        fit_decay((t, np.exp(-t) - 0.5), "exponential")
    with pytest.raises(FitError):
        # window keeps too few samples
        fit_decay((t, np.exp(-t)), "exponential", window=(4.9, 5.0))
