"""Stepping scheme, conservation, propagation, and decay fitting."""

import numpy as np
import pytest

from nullwave import exterior, fd, solver
from nullwave.errors import CFLError, FitError, NaNError, ParamError
from nullwave.exterior import InitialData, Obstacle, build_masked_grid, build_radial_grid
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


def _observed_rows(data, forcing, t_end, stride=1):
    """An observed run and copies of the (u, v) it showed at each snapshot."""
    us, vs = [], []

    def observe(i, u, v):
        us.append(u.copy())
        vs.append(v.copy())

    traj = solve_linear(data, forcing, t_end, stride=stride, observe=observe)
    return traj, np.array(us), np.array(vs)


# ---------------------------------------------------------------------------
# convergence against manufactured and closed-form solutions


def test_radial_manufactured_solution_second_order():
    # w = sin(a (r - 1)) cos(b t) solves w_tt = w_rr + (a^2 - b^2) w with
    # both ends pinned to zero
    L = 8.0
    a = 3.0 * 2.0 * np.pi / L
    b = 1.3
    errs = []
    for n in (200, 400, 800):
        grid = build_radial_grid(1.0, 1.0 + L, n)
        w0 = np.sin(a * (grid.r - 1.0))
        data = InitialData(grid, w0, np.zeros_like(w0))

        def force(t, _grid=grid):
            return (a**2 - b**2) * np.cos(b * t) * np.sin(a * (_grid.r - 1.0))

        traj = solve_linear(data, force, 2.0, stride=1)
        t_fin = traj.times[-1]
        exact = np.sin(a * (grid.r - 1.0)) * np.cos(b * t_fin)
        errs.append(np.max(np.abs(traj.u[-1] - exact)))
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
    data = InitialData(grid, w0, np.zeros_like(w0))
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
    data = InitialData(grid, amp, np.zeros_like(amp))
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
    data = InitialData(grid, amp, np.zeros_like(amp))
    dt = cfl_limit(grid)
    traj = solve_linear(data, None, 119 * dt, stride=119)
    t, u = traj.times[-1], traj.u[-1]
    assert traj.stride == 119 and t == 119 * dt
    cone = grid.r > a + t / 0.9 + 2.0 * h
    assert cone.sum() > 10
    assert np.max(np.abs(u[cone])) == 0.0
    phys = grid.r > a + t + 2.0 * h
    tail = np.max(np.abs(u[phys]))
    assert 0.0 < tail < 1e-3


def test_sponge_absorbs_outgoing_pulse():
    def final_local_energy(sponge_cells):
        grid = build_radial_grid(1.0, 21.0, 800, sponge_cells=sponge_cells)
        amp = _bump(grid.r, 3.0, 1.0)
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

    _, full_u, full_v = _observed_rows(data, force, 4.0)
    _, hom_u, hom_v = _observed_rows(data, None, 4.0)
    _, inhom_u, inhom_v = _observed_rows(zero, force, 4.0)
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
    tr1 = solve_linear(data, f_call, t_end, stride=1)
    tr2 = solve_linear(data, rec, t_end, stride=1)
    assert np.max(np.abs(tr1.u - tr2.u)) < 1e-13

    with pytest.raises(ParamError):
        solve_linear(data, rec[:3], t_end, stride=1)


# ---------------------------------------------------------------------------
# the in-place kernel against the two-Laplacian, allocating form


def _reference_laplace(grid, u):
    # the allocating operators the kernel replaced
    if grid.kind == "radial":
        acc = fd.d2(u, grid.h, axis=-1)
        l = grid.angular_mode
        if l:
            acc -= (l * (l + 1)) * u / grid.r**2
        return acc
    acc = fd.d2(u, grid.h, axis=-3)
    acc += fd.d2(u, grid.h, axis=-2)
    acc += fd.d2(u, grid.h, axis=-1)
    return acc


def _reference_step(grid, u, v, dt, f_mid, damp):
    # velocity Verlet with the operator evaluated afresh for both kicks
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


def _reference_solve(data, forcing, n_steps, dt):
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
        u, v = _reference_step(grid, u, v, dt, f_mid, damp)
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
    # a stored run keeps u and no v; the observer sees both
    traj = solve_linear(data, forcing, t_end, stride=1)
    us, vs = _reference_solve(data, forcing, len(traj.times) - 1, traj.dt)
    assert traj.u.tobytes() == us.tobytes()
    assert traj.v is None
    _, seen_u, seen_v = _observed_rows(data, forcing, t_end)
    assert seen_u.tobytes() == us.tobytes()
    assert seen_v.tobytes() == vs.tobytes()


def test_one_laplacian_per_step():
    grid = build_radial_grid(1.0, 11.0, 200, angular_mode=1)
    amp = _bump(grid.r, 3.0, 1.0)
    calls = []
    laplace = grid.laplace

    def counting(*args, **kwargs):
        calls.append(1)
        return laplace(*args, **kwargs)

    grid.laplace = counting
    traj = solve_linear(InitialData(grid, amp, amp), None, 2.0, stride=1)
    # one evaluation before the first step, then one per step
    assert len(calls) == len(traj.times)


def test_step_leaves_its_input_untouched():
    grid = build_radial_grid(1.0, 11.0, 200, angular_mode=1, sponge_cells=40)
    u = _bump(grid.r, 3.0, 1.0)
    v = 0.5 * u
    force = _bump(grid.r, 2.5, 0.8)
    before = (u.tobytes(), v.tobytes(), force.tobytes())
    data = InitialData(grid, u, v)
    dt = cfl_limit(grid)
    traj, us, vs = _observed_rows(data, lambda t: force, dt)
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


# ---------------------------------------------------------------------------
# observed runs


@pytest.mark.parametrize("name", ["radial-l1-sponge", "ellipsoid"])
def test_observer_sees_the_stored_rows(name):
    data, forcing, t_end = _kernel_case(name)
    stored = solve_linear(data, forcing, t_end, stride=3)
    seen = []

    def observe(i, u, v):
        assert not u.flags.writeable and not v.flags.writeable
        seen.append((i, u.tobytes(), v.tobytes()))

    observed = solve_linear(data, forcing, t_end, stride=3, observe=observe)
    us, vs = _reference_solve(data, forcing, observed.stride, stored.dt)
    assert [row[0] for row in seen] == list(range(len(stored.times)))
    for i, ub, vb in seen:
        assert ub == stored.u[i].tobytes() == us[3 * i].tobytes()
        assert vb == vs[3 * i].tobytes()

    # the first and last rows only, with times and stride that still
    # give the run's step count
    ends = [0, -1]
    assert observed.times.tobytes() == stored.times[ends].tobytes()
    assert observed.stride == (len(stored.times) - 1) * stored.stride
    assert observed.dt == stored.dt
    assert observed.u.tobytes() == stored.u[ends].tobytes()
    assert observed.v.tobytes() == vs[ends].tobytes()


@pytest.mark.parametrize("name", ["recorded", "ellipsoid"])
def test_observer_may_overwrite_the_recorded_rows_read(name):
    # by observe(i, ...) step i - 1 is done, and the steps left read
    # recorded rows i and above only
    data, rec, t_end = _kernel_case(name)
    if rec is None:
        n_steps = step_count(t_end, cfl_limit(data.grid))
        rng = np.random.default_rng(5)
        rec = rng.standard_normal((n_steps + 1,) + data.f.shape)
    _, us, vs = _observed_rows(data, rec, t_end)
    spoiled = rec.copy()
    seen = []

    def observe(i, u, v):
        seen.append((u.tobytes(), v.tobytes()))
        spoiled[:i] = np.nan

    solve_linear(data, spoiled, t_end, observe=observe)
    assert len(seen) == len(us)
    for (ub, vb), u, v in zip(seen, us, vs):
        assert ub == u.tobytes() and vb == v.tobytes()


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
    ref = np.array([grid.energy(u, v, grid.radii() < 4.0) for u, v in rows])
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
    assert vals[-1] == grid.energy(amp, 0.5 * amp)


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
        damp = solver._damping(grid, cfl_limit(grid))
        assert damp.shape == grid.zeros().shape
        assert np.all(damp <= 1.0)
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


def test_trajectory_validation_and_series():
    grid = build_radial_grid(1.0, 6.0, 100)
    amp = _bump(grid.r, 3.0, 1.0)
    traj = solve_linear(InitialData(grid, amp, np.zeros_like(amp)),
                        None, 1.0, stride=5)
    assert np.isclose(traj.times[1] - traj.times[0], 5 * traj.dt)
    assert traj.u.shape == (len(traj.times), grid.n_nodes)

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
