"""Weighted norms, streamed cylinder norms and estimate-ratio diagnostics."""

import tracemalloc

import numpy as np
import pytest
from scipy import integrate

from conftest import cylinder_reference, observed_rows
from nullwave import cli, exterior, fd, norms, penrose, picard, solver
from nullwave.errors import DomainError, OrderError, ParamError
from nullwave.exterior import InitialData, build_radial_grid
from nullwave.norms import (
    NormReport,
    RATIO_NAMES,
    data_smallness_norm,
    estimate_ratio_report,
    evaluate_nullform_series,
    local_linear_rows,
    ratio_spreads,
    scale_to_data_norm,
    slab_norm,
    slab_sums,
    sphere_sobolev_norm,
    weighted_sobolev_norm,
)
from nullwave.nullforms import NullFormSpec
from nullwave.solver import Trajectory


# ---------------------------------------------------------------------------
# data-space norms against independent quadrature


def test_weighted_sobolev_matches_quadrature():
    grid = build_radial_grid(1.0, 6.0, 2000)
    num = weighted_sobolev_norm(np.exp(-grid.r**2), 2, 1, grid)

    def dens(r):
        fv = np.exp(-r * r)
        fp = -2.0 * r * fv
        fpp = (4.0 * r * r - 2.0) * fv
        W = 1.0 + r * r
        acc = fv * fv * W + fp * fp * W**2
        acc += (fpp * fpp + 2.0 * (fp / r) ** 2) * W**3
        return acc * 4.0 * np.pi * r * r

    exact = np.sqrt(integrate.quad(dens, 1.0, 6.0, limit=200)[0])
    assert abs(num - exact) / exact < 1e-5


def test_sphere_sobolev_matches_quadrature():
    # the t = 0 slice maps to the 3-sphere with R = 2 arctan r; the zonal
    # integrand below is the same norm written back in r
    grid = build_radial_grid(1.0, 6.0, 2000)
    num = sphere_sobolev_norm(grid, np.exp(-grid.r**2), 2)

    def dens(r):
        fv = np.exp(-r * r)
        fp = -2.0 * r * fv
        fpp = (4.0 * r * r - 2.0) * fv
        W = 1.0 + r * r
        sinR = 2.0 * r / W
        cosR = (1.0 - r * r) / W
        dR_dr = 2.0 / W
        FR = fp / dR_dr
        FRR = (fpp / dR_dr + fp * r) / dR_dr
        lap = FRR + 2.0 * (cosR / sinR) * FR
        return (fv * fv + FR * FR + lap * lap) * sinR**2 * dR_dr * 4.0 * np.pi

    exact = np.sqrt(integrate.quad(dens, 1.0, 6.0, limit=200)[0])
    assert abs(num - exact) / exact < 2e-5


def test_weighted_sobolev_homogeneity_and_monotonicity():
    rng = np.random.default_rng(7)
    grid = build_radial_grid(1.0, 6.0, 300)
    base = np.exp(-((grid.r - 3.0) ** 2))
    for _ in range(5):
        c = rng.uniform(0.1, 10.0)
        f = c * base
        assert np.isclose(weighted_sobolev_norm(f, 2, 1, grid),
                          c * weighted_sobolev_norm(base, 2, 1, grid),
                          rtol=1e-12)
    # heavier weights and more derivatives can only grow the norm
    n00 = weighted_sobolev_norm(base, 0, 0, grid)
    n10 = weighted_sobolev_norm(base, 1, 0, grid)
    n20 = weighted_sobolev_norm(base, 2, 0, grid)
    n21 = weighted_sobolev_norm(base, 2, 1, grid)
    n22 = weighted_sobolev_norm(base, 2, 2, grid)
    assert n00 < n10 < n20 < n21 < n22


def test_weighted_sobolev_refinement_stable():
    vals = []
    for n in (1000, 2000):
        grid = build_radial_grid(1.0, 6.0, n)
        vals.append(weighted_sobolev_norm(np.exp(-grid.r**2), 2, 1, grid))
    assert abs(vals[1] - vals[0]) / vals[0] < 0.02


def test_sobolev_order_guards():
    grid = build_radial_grid(1.0, 6.0, 100)
    f = np.exp(-grid.r)
    with pytest.raises(OrderError):
        weighted_sobolev_norm(f, 3, 0, grid)
    with pytest.raises(OrderError):
        weighted_sobolev_norm(f, -1, 0, grid)
    with pytest.raises(OrderError):
        sphere_sobolev_norm(grid, f, 3)
    cart = exterior.build_masked_grid(exterior.Obstacle.sphere(1.0), 12.0,
                                      24, sponge_cells=0)
    with pytest.raises(ParamError):
        sphere_sobolev_norm(cart, np.zeros(cart.zeros().shape), 1)


def test_data_norm_scaling_helpers():
    grid = build_radial_grid(1.0, 6.0, 200)
    data = InitialData.from_physical(
        grid, lambda r: np.exp(-((r - 3.0) ** 2)),
        lambda r: np.exp(-((r - 3.0) ** 2)))
    n0 = data_smallness_norm(data)
    assert n0 > 0
    scaled, old = scale_to_data_norm(data, 1e-3)
    assert np.isclose(old, n0, rtol=1e-12)
    assert np.isclose(data_smallness_norm(scaled), 1e-3, rtol=1e-12)
    zero = InitialData(grid, grid.zeros(), grid.zeros())
    with pytest.raises(ParamError):
        scale_to_data_norm(zero, 1.0)


def test_scale_to_data_norm_refuses_a_nan_norm():
    # the weights overflow at |x| ~ 1e60, so one nonzero node gives
    # 0 * inf = NaN in the norm, not NaN-scaled data
    grid = build_radial_grid(1.0, 1e60, 64)
    f = grid.zeros()
    f[5] = 1.0
    data = InitialData(grid, f, grid.zeros())
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.isnan(data_smallness_norm(data))
        with pytest.raises(ParamError):
            scale_to_data_norm(data, 1e-3)


# ---------------------------------------------------------------------------
# slab and space-time null-form norms


def _slab(grid, series, dt):
    """The slab norm of a whole stored series."""
    return slab_norm(slab_sums(grid, series, fd.d1(series, dt, axis=0)), dt)


def test_slab_norm_constant_series():
    grid = build_radial_grid(1.0, 5.0, 100)
    M = 11
    series = np.full((M,) + grid.zeros().shape, 2.0)
    num = _slab(grid, series, 0.5)
    V = 4.0 / 3.0 * np.pi * (5.0**3 - 1.0)
    T = 0.5 * (M - 1)
    assert abs(num - 2.0 * np.sqrt(V * T)) / num < 1e-4
    with pytest.raises(ParamError):
        _slab(grid, series[:2], 0.5)


def test_slab_norm_homogeneity():
    grid = build_radial_grid(1.0, 5.0, 100)
    rng = np.random.default_rng(3)
    series = rng.standard_normal((8,) + grid.zeros().shape)
    a = _slab(grid, series, 0.25)
    b = _slab(grid, 3.0 * series, 0.25)
    assert np.isclose(b, 3.0 * a, rtol=1e-12)


def _separable_trajectory(grid, n_snap=41, dt_snap=0.02):
    # u = cos(1.3 t) * exp(-(r-3)^2): derivatives in closed form
    times = dt_snap * np.arange(n_snap)
    prof = np.exp(-((grid.r - 3.0) ** 2))
    u = np.cos(1.3 * times)[:, None] * prof[None, :]
    v = -1.3 * np.sin(1.3 * times)[:, None] * prof[None, :]
    return Trajectory(grid, times, u, v, dt=dt_snap, stride=1), prof


def _series_rows(traj):
    """(u, u_t) of a scalar trajectory, u_t being its v, with the
    component axis evaluate_nullform_series reads."""
    return traj.u[:, None], traj.v[:, None]


def test_nullform_series_separable_oracle():
    grid = build_radial_grid(1.0, 6.0, 800)
    traj, prof = _separable_trajectory(grid)
    spec = NullFormSpec.scalar_q0()
    q = evaluate_nullform_series(grid, spec, *_series_rows(traj))
    i = 20                                    # interior snapshot
    t = traj.times[i]
    ut = -1.3 * np.sin(1.3 * t) * prof
    ur = np.cos(1.3 * t) * (-2.0 * (grid.r - 3.0)) * prof
    exact = ut * ut - ur * ur
    err = np.max(np.abs(q[i, 0] - exact))
    assert err < 5e-4


def test_nullform_series_guards():
    grid = build_radial_grid(1.0, 6.0, 100)
    traj, _ = _separable_trajectory(grid)
    spec = NullFormSpec.scalar_q0()
    two = NullFormSpec.linear(2)
    with pytest.raises(ParamError):
        evaluate_nullform_series(grid, two, *_series_rows(traj))
    # the one-sided end stencils need three snapshots
    for m in (1, 2):
        with pytest.raises(ParamError):
            fd.d1_rows(lambda a, b: traj.u[a:b], 0, m, m, traj.dt)
    data = picard.bump_data_family(grid)(1e-3)
    with pytest.raises(ParamError):
        picard.picard_solve(data, spec, 0.5 * solver.cfl_limit(grid))


def test_local_linear_rows_count_the_window_snapshots():
    # the snapshots dt * arange(n) in [0, 1], within a rounding of their
    # times, whether or not the run goes on past the window
    t1 = norms.LOCAL_LINEAR_WINDOW[1]
    for dt in (0.02, 0.1, 1 / 3, 1 / 7, 0.0315, 0.25, 0.5):
        last = int(np.ceil(t1 / dt - 1e-12))
        for n in (last + 1, last + 5):
            times = dt * np.arange(n)
            want = int(np.searchsorted(times, t1 + 1e-12, side="right"))
            assert local_linear_rows(n, dt) == want >= 3
        # the run must reach the window's end
        with pytest.raises(ParamError, match="ends after"):
            local_linear_rows(last, dt)


def test_local_linear_rows_guards():
    # a step of 0.54 puts 2 snapshots in the local-linear window [0, 1]
    with pytest.raises(ParamError, match="holds 2 snapshots"):
        local_linear_rows(17, 0.54)
    assert local_linear_rows(17, 0.5) == 3
    # no array of the run's times: a run of 10**15 snapshots is counted
    assert local_linear_rows(10**15, 1e-9) == 10**9 + 1


# ---------------------------------------------------------------------------
# the cylinder frame of a sampled row and the streamed cylinder norms

DELTAS = [2.5, 2.0, 1.5, 1.0, 0.5, 0.0]


@pytest.fixture(scope="module")
def nonlinear_run():
    grid = build_radial_grid(1.0, 12.0, 400, sponge_cells=100)
    family = picard.bump_data_family(grid, center=2.0, width=0.8)
    sol, rep = picard.picard_solve(family(1e-3), NullFormSpec.scalar_q0(),
                                   12.0, tol=1e-10, time_stride=10,
                                   deltas=DELTAS)
    assert rep.converged
    return sol


@pytest.fixture(scope="module")
def linear_run():
    """A one-sweep run (tol above the first residual), which is the linear
    run, with the whole (snapshots x nodes) u, u_t and Q of that run."""
    grid = build_radial_grid(1.0, 12.0, 400, sponge_cells=100)
    data = picard.bump_data_family(grid, center=2.0, width=0.8)(1e-3)
    sol, rep = picard.picard_solve(data, NullFormSpec.scalar_q0(), 12.0,
                                   tol=1.0, time_stride=10, deltas=DELTAS)
    assert rep.iterations == 1
    dt = solver.cfl_limit(grid)
    _, u, u_t = observed_rows(data, None, 12.0)
    (u_r,) = grid.gradient(u)
    return sol, dt, u, u_t, u_t * u_t - u_r * u_r


def _fed(grid, dt, stride, u, u_t, Q=None, deltas=()):
    """CylinderNorms fed every stride-th row of the stacks, as a sweep
    feeds them (the forcing too if Q is given)."""
    cyl = norms.CylinderNorms(grid, len(u), dt, stride, deltas)
    (u_r,) = grid.gradient(u)
    Q_t = None if Q is None else fd.d1(Q, dt, axis=0)
    for i in range(0, len(u), stride):
        cyl.solution(i, u[i], u_t[i], u_r[i])
        if Q is not None:
            cyl.forcing(i, Q[i], Q_t[i])
    return cyl


def test_cylinder_samples_shapes_and_weights(linear_run):
    sol, dt, u, u_t, _ = linear_run
    grid = sol.trajectory.grid
    cyl = _fed(grid, dt, 10, u, u_t)
    last = (len(u) - 1) // 10 * 10
    assert sorted(cyl.frames) == list(range(0, last + 1, 10))
    for i, frame in cyl.frames.items():
        # every frame array is one row over the radial nodes
        for a in (frame.p, frame.m, frame.dist4, frame.conf, frame.weight):
            assert a.shape == (grid.n_nodes,)
        for a in frame.pull(u[i], u_t[i], u_t[i], 1):
            assert a.shape == (grid.n_nodes,)
        assert np.all(frame.weight > 0)
        assert np.all(frame.dist4 > 0)
        assert np.all(frame.conf > 0)
        # the null-coordinate frame is the map's: its conformal factor to
        # the byte, its tip distance to rounding
        assert frame.conf.tobytes() == penrose.conformal_factor_tr(
            dt * i, grid.r).tobytes()
        assert np.allclose(frame.dist4, penrose.tip_distance_tr(
            dt * i, grid.r) ** 4, rtol=1e-13, atol=0.0)
        # the first and last samples get half the trapezoid weight
        wt = 10 * dt * (0.5 if i in (0, last) else 1.0)
        assert frame.t == dt * i
        assert frame.weight.tobytes() == norms._RowFrame(
            grid, dt * i, wt).weight.tobytes()
    # tip distance shrinks as time grows at fixed radius
    assert cyl.frames[last].dist4[0] < cyl.frames[0].dist4[0]


def test_cylinder_samples_constructor_guards():
    # at t = 1e17 the image of every node rounds onto the tip, outside
    # the open diamond R + |T| < pi
    grid = build_radial_grid(1.0, 6.0, 100)
    with pytest.raises(DomainError):
        norms._RowFrame(grid, 1e17, 1.0)
    cyl = norms.CylinderNorms(grid, 4, 1e17, 1, [])
    zero = grid.zeros()
    cyl.solution(0, zero, zero, zero)
    with pytest.raises(DomainError):
        cyl.solution(1, zero, zero, zero)


def test_cylinder_sampling_guards(nonlinear_run):
    grid = nonlinear_run.trajectory.grid
    cart = exterior.build_masked_grid(exterior.Obstacle.sphere(1.0), 12.0,
                                      24, sponge_cells=0)
    with pytest.raises(ParamError):
        norms.CylinderNorms(cart, 5, 1.0, 1, [])
    with pytest.raises(ParamError):
        # fewer than 3 samples
        norms.CylinderNorms(grid, 2, 1.0, 1, [])
    with pytest.raises(ParamError):
        norms.CylinderNorms(grid, 5, 1.0, 3, [])
    with pytest.raises(ParamError):
        norms.CylinderNorms(grid, 5, 1.0, 0, [])
    norms.CylinderNorms(grid, 5, 1.0, 2, [])
    # picard_solve refuses, before it solves, a time_stride the norms
    # cannot read
    data = nonlinear_run.data
    spec = nonlinear_run.spec
    with pytest.raises(ParamError):
        picard.picard_solve(data, spec, 12.0, time_stride=10**6)
    with pytest.raises(ParamError):
        picard.picard_solve(data, spec, 12.0, time_stride=0)
    with pytest.raises(ParamError):
        # the local-linear window [0, 1] lies past the run
        picard.picard_solve(data, spec, 0.5, time_stride=1)
    stacked = InitialData(grid, np.stack([data.f, data.f]),
                          np.stack([data.g, data.g]))
    with pytest.raises(ParamError):
        picard.picard_solve(stacked, NullFormSpec.linear(2), 12.0,
                            time_stride=10)
    cart_data = picard.bump_data_family(cart, center=3.0)(1e-3)
    with pytest.raises(ParamError):
        picard.picard_solve(cart_data, spec, 2.0, time_stride=1)
    # a step of 0.54 puts 2 snapshots in the local-linear window [0, 1]
    coarse = build_radial_grid(1.0, 10.6, 16, sponge_cells=2)
    coarse_data = picard.bump_data_family(coarse, center=4.0,
                                          width=2.0)(1e-3)
    with pytest.raises(ParamError):
        picard.picard_solve(coarse_data, spec, 8.0, time_stride=1)


def test_tip_weighted_norm_schemes(linear_run):
    sol, dt, u, u_t, Q = linear_run
    grid = sol.trajectory.grid
    assert sol.tip_norms[0] > 0 and sol.l8_norm > 0
    # the running max rescales the eighth power sum: rows of scales far
    # apart, a zero row first, against the plain sum of the whole frame
    scale = np.array([0.0, 1e-3, 1.0, 1e3, 1e-2] * 10)[:, None]
    u, u_t = scale * u[:50], scale * u_t[:50]
    _, l8, _ = cylinder_reference(grid, dt, 1, u, u_t, Q[:50])
    have = _fed(grid, dt, 1, u, u_t).values()[1]
    assert np.isclose(have, l8, rtol=1e-12, atol=0.0)
    assert _fed(grid, dt, 10, 0.0 * u, 0.0 * u_t).values()[1] == 0.0
    with pytest.raises(ParamError):
        norms.CylinderNorms(grid, len(u), dt, 10, [-0.1])
    with pytest.raises(ParamError):
        picard.picard_solve(sol.data, sol.spec, 12.0, time_stride=10,
                            deltas=[1.0, -0.1])


def test_delta_sums_are_the_gathers_of_the_tip_distance(nonlinear_run,
                                                         monkeypatch):
    # each tip-weighted sum, at delta 0 and at the estimate-report deltas,
    # is the sum of the density over the nodes with dist > delta, gathered
    # on the (T, R) frame of the converged sweep's rows
    sol = nonlinear_run
    grid = sol.trajectory.grid
    deltas = [float(d) for d in cli.DEFAULTS["report"]["deltas"].split()]
    handed = []

    def spy(data, forcing, t_end, **kwargs):
        handed.append(None if forcing is None else forcing.copy())
        return solver.solve_linear(data, forcing, t_end, **kwargs)

    monkeypatch.setattr(picard, "solve_linear", spy)
    again, rep = picard.picard_solve(sol.data, sol.spec, 12.0, tol=1e-10,
                                     time_stride=10, deltas=deltas)
    assert rep.iterations > 1 and again.tip_norms[0] == sol.tip_norms[0]
    traj, u, u_t = observed_rows(sol.data, handed[-1], 12.0)
    (u_r,) = grid.gradient(u)
    tips = cylinder_reference(grid, traj.dt, 10, u, u_t,
                              u_t * u_t - u_r * u_r, deltas)[0]
    assert len(tips) == len(deltas) + 1
    assert np.allclose(np.square(again.tip_norms), np.square(tips),
                       rtol=1e-13, atol=0.0)


def test_delta_sweep_monotone(nonlinear_run):
    tip, *vals = nonlinear_run.tip_norms
    assert len(vals) == len(DELTAS)
    # truncating closer to the tip keeps more samples: nondecreasing
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    assert vals[-1] == tip


def test_sampled_time_derivatives_take_the_solver_step(linear_run):
    # u_t at the sampled rows is the solver's v, and Q_t the derivative
    # of the whole stride-1 Q series, not a difference across the
    # sampling stride: the streamed norms are those of a frame of the
    # whole run's rows
    sol, dt, u, u_t, Q = linear_run
    grid = sol.trajectory.grid
    traj = Trajectory(grid, dt * np.arange(len(u)), u, u_t, dt=dt)
    # Q = q0(du, du) of the whole stack, with the observed v as u_t
    assert evaluate_nullform_series(grid, NullFormSpec.scalar_q0(),
                                    *_series_rows(traj))[:, 0] \
        .tobytes() == Q.tobytes()
    tips, l8, energy = cylinder_reference(grid, dt, 10, u, u_t, Q, DELTAS)
    assert np.allclose(sol.tip_norms, tips, rtol=1e-12, atol=0.0)
    assert np.isclose(sol.l8_norm, l8, rtol=1e-12, atol=0.0)
    assert np.isclose(sol.energy_sup, energy, rtol=1e-12, atol=0.0)
    # across the sampling stride the norms would be off by far more
    coarse = cylinder_reference(grid, 10 * dt, 1, u[::10],
                                fd.d1(u[::10], 10 * dt, axis=0), Q[::10])
    assert not np.isclose(sol.tip_norms[0], coarse[0][0], rtol=1e-6)


def test_row_stencil_is_the_whole_series_derivative():
    # byte for byte d1 along the snapshot axis, at the ends and next to
    # them as well as inside, from one read of the rows the stencil uses,
    # at two spacings: at 0.0235, unlike at 0.3, dividing by 2 h and
    # multiplying by 0.5 / h round some values apart
    rng = np.random.default_rng(5)
    F = rng.standard_normal((9, 2, 5))
    cases = (((0, 1), (0, 3)), ((1, 2), (0, 3)), ((4, 5), (3, 6)),
             ((7, 8), (6, 9)), ((8, 9), (6, 9)), ((0, 2), (0, 3)),
             ((7, 9), (6, 9)), ((2, 6), (1, 7)), ((0, 9), (0, 9)))
    for h in (0.3, 0.0235):
        whole = fd.d1(F, h, axis=0)
        for (lo, hi), reads in cases:
            for out in (None, np.full((hi - lo,) + F.shape[1:], np.nan)):
                seen = []

                def read(a, b):
                    seen.append((a, b))
                    return F[a:b]
                val, d = fd.d1_rows(read, lo, hi, len(F), h, out)
                assert out is None or d is out
                assert val.tobytes() == F[lo:hi].tobytes()
                assert d.tobytes() == whole[lo:hi].tobytes()
                assert seen == [reads]


@pytest.mark.parametrize("power", [1, -3])
def test_pull_is_the_cylinder_derivative_of_the_field(power):
    # val = conf**power * q for the radial q = cos(1.3 t) exp(-(r-3)^2);
    # g0 must be its d/dT and gb its d/dR (the boost magnitude of a
    # zonal field), both by central differences through the inverse map;
    # pull gives g0 + gb and g0 - gb
    grid = build_radial_grid(1.0, 6.0, 100)
    r = grid.r

    def q_parts(t, r):
        prof = np.exp(-((r - 3.0) ** 2))
        return (np.cos(1.3 * t) * prof, -1.3 * np.sin(1.3 * t) * prof,
                -2.0 * (r - 3.0) * np.cos(1.3 * t) * prof)

    def field(T, R):
        p = penrose.from_einstein(penrose.EinsteinPoint(T, R))
        return penrose.conformal_factor(p) ** power * q_parts(p.t, p.r)[0]

    # the largest |g0|, |gb| and their errors over the rows
    top = np.zeros(4)
    h = 1e-5
    for t in 0.1 * np.arange(31):
        frame = norms._RowFrame(grid, t, 1.0)
        val, gp, gm = frame.pull(*q_parts(t, r), power)
        g0, gb = 0.5 * (gp + gm), 0.5 * (gp - gm)
        T, R = penrose.forward_tr(t, r)
        fd_T = (field(T + h, R) - field(T - h, R)) / (2 * h)
        fd_R = (field(T, R + h) - field(T, R - h)) / (2 * h)
        assert np.allclose(val, field(T, R), rtol=1e-12, atol=0.0)
        top = np.maximum(top, [np.max(np.abs(a)) for a in (
            g0, g0 - fd_T, gb, gb - fd_R)])
    assert top[1] < 1e-7 * top[0] and top[3] < 1e-7 * top[2]


def test_local_linear_norm_reads_the_run_q_series(linear_run):
    # the slab norm of Q over the window's rows, with Q_t of the whole
    # run, as the cylinder norms read it: centred at the window's end
    sol, dt, u, u_t, Q = linear_run
    grid = sol.trajectory.grid
    i1 = local_linear_rows(len(Q), dt)
    assert 3 <= i1 < len(Q)
    Q_t = fd.d1(Q, dt, axis=0)[:i1]
    assert sol.local_linear == slab_norm(slab_sums(grid, Q[:i1], Q_t), dt)
    assert sol.local_linear != _slab(grid, Q[:i1], dt)


def _peak(fn):
    """The traced peak of fn(), past what was held when it was called."""
    fn()  # one-time lazy set-up is not the call's
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("kind", ["radial", "cartesian"])
def test_slab_sums_allocate_no_field_given_work(kind):
    # each sum is taken in one pass over its rows, so with a workspace
    # for the gradient rows nothing of a field's size is allocated
    grid = build_radial_grid(1.0, 48.0, 2000) if kind == "radial" else \
        exterior.build_masked_grid(exterior.Obstacle.sphere(1.0), 12.0, 32,
                                   sponge_cells=0)
    rows = 4
    shape = (rows,) + grid.zeros().shape
    val, val_t = np.random.default_rng(3).standard_normal((2,) + shape)
    work = np.empty((grid.ndim + 2,) + shape)
    want = slab_sums(grid, val, val_t)
    assert slab_sums(grid, val, val_t, work).tobytes() == want.tobytes()
    assert _peak(lambda: slab_sums(grid, val, val_t, work)) \
        < grid.zeros().nbytes


def test_a_sampled_row_holds_a_few_rows(linear_run):
    # a sampled row's frame, the pulls of its solution and forcing, and
    # their densities: 16.6 rows at the estimate-report grid and deltas
    grid = build_radial_grid(1.0, 48.0, 2000, sponge_cells=170)
    deltas = [float(d) for d in cli.DEFAULTS["report"]["deltas"].split()]
    u, u_t, u_r, Q, Q_t = np.random.default_rng(4).standard_normal(
        (5, grid.n_nodes))
    cyl = norms.CylinderNorms(grid, 10**4, solver.cfl_limit(grid), 20,
                              deltas)
    rows = iter(range(0, 10**4, 20))

    def sampled_row():
        i = next(rows)
        cyl.solution(i, u, u_t, u_r)
        cyl.forcing(i, Q, Q_t)

    assert _peak(sampled_row) < 18 * u.nbytes
    assert cyl.frames == {}


def test_weighted_energy_sup_homogeneous(linear_run):
    sol, dt, u, u_t, _ = linear_run
    grid = sol.trajectory.grid
    a = _fed(grid, dt, 10, u, u_t).values()[2]
    b = _fed(grid, dt, 10, 2.0 * u, 2.0 * u_t).values()[2]
    assert a > 0 and a == sol.energy_sup
    assert np.isclose(b, 2.0 * a, rtol=1e-12)


# ---------------------------------------------------------------------------
# reports


def test_norm_report_validation():
    rep = NormReport({"a": 1.0, "b": 0.0}, {"eps": 1e-3})
    assert rep["a"] == 1.0
    assert rep.metadata["eps"] == 1e-3
    with pytest.raises(ParamError):
        NormReport({"a": -1.0})
    with pytest.raises(ParamError):
        NormReport({"a": np.nan})


def test_ratio_spreads_synthetic():
    def rep(scale):
        values = {}
        for i, name in enumerate(RATIO_NAMES):
            values[name] = scale * (i + 1.0)
        return NormReport(values)

    spreads = ratio_spreads([rep(1.0), rep(2.0), rep(1.5)])
    for name in RATIO_NAMES:
        assert np.isclose(spreads[name], 2.0)
    assert ratio_spreads([]) == {}
    # a ratio that reaches 0 has no finite spread
    spreads = ratio_spreads([rep(0.0), rep(1.0)])
    assert all(spreads[name] is None for name in RATIO_NAMES)


def test_estimate_ratio_report_mechanics(nonlinear_run):
    rows = [
        {"eps": 1e-3, "converged": True, "solution": nonlinear_run},
        {"eps": 2e-3, "converged": False, "solution": None},
    ]
    reports = estimate_ratio_report(rows, sup_window=(2.0, 10.0))
    assert len(reports) == 1
    rep = reports[0]
    assert rep.metadata["eps"] == 1e-3
    for name in RATIO_NAMES:
        tag = name[len("ratio_"):]
        assert rep[name] == rep["lhs_" + tag] / rep["rhs_" + tag]
    # the report reads the norms the solution's sweep summed
    assert rep["pecher_l8"] == nonlinear_run.l8_norm > 0
    assert rep["lhs_weighted_energy"] == nonlinear_run.energy_sup
    assert rep["lhs_null_cylinder"] == nonlinear_run.tip_norms[0]
    assert rep.metadata["delta_sweep"] == nonlinear_run.tip_norms[1:]
    assert rep.metadata["delta_sweep"][-1] == rep["lhs_null_cylinder"]
    assert "forcing_samples" not in rep.metadata
    assert rep["lhs_local_linear"] == nonlinear_run.local_linear > 0
    with pytest.raises(ParamError):
        estimate_ratio_report([rows[0]], sup_window=(100.0, 200.0))
    # a solution solved without a time_stride keeps no cylinder norms
    plain, _ = picard.picard_solve(nonlinear_run.data, nonlinear_run.spec,
                                   12.0, tol=1e-10)
    assert plain.tip_norms is None and plain.local_linear is None
    with pytest.raises(ParamError):
        estimate_ratio_report([{"eps": 1e-3, "solution": plain}])
