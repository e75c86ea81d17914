"""Weighted norms, the cylinder sample frame, and estimate-ratio diagnostics."""

import numpy as np
import pytest
from scipy import integrate

from conftest import observed_rows
from nullwave import exterior, fd, norms, penrose, picard, solver
from nullwave.errors import DomainError, OrderError, ParamError
from nullwave.exterior import InitialData, build_radial_grid
from nullwave.norms import (
    NormReport,
    RATIO_NAMES,
    data_smallness_norm,
    delta_sweep,
    estimate_ratio_report,
    evaluate_nullform_series,
    l8_norm,
    ratio_spreads,
    scale_to_data_norm,
    slab_norm,
    slab_sums,
    sphere_sobolev_norm,
    weighted_sobolev_norm,
    window_rows,
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
    # w = r * cos(1.3 t) * exp(-(r-3)^2): physical derivatives in closed form
    times = dt_snap * np.arange(n_snap)
    prof = np.exp(-((grid.r - 3.0) ** 2))
    u = np.cos(1.3 * times)[:, None] * (grid.r * prof)[None, :]
    return Trajectory(grid, times, u, dt=dt_snap, stride=1), prof


def _series_rows(traj):
    """(native u, physical u_t) of a scalar trajectory, with the
    component axis evaluate_nullform_series reads."""
    grid = traj.grid
    u_t = fd.d1(grid.to_physical(traj.u), traj.dt, axis=0)
    return traj.u[:, None], u_t[:, None]


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


def test_window_rows_select_the_window_snapshots():
    times = 0.02 * np.arange(41)
    i0, i1 = window_rows(times, (times[0], times[-1]))
    assert (i0, i1) == (0, 41)
    # the ends are kept within a rounding of the snapshot times
    i0, i1 = window_rows(times, (0.2, 0.6))
    assert (i0, i1) == (10, 31)
    assert times[i0] == 0.2 and np.isclose(times[i1 - 1], 0.6)
    with pytest.raises(ParamError):
        window_rows(times, (0.6, 0.2))
    with pytest.raises(ParamError):
        window_rows(times, (0.0, 99.0))


# ---------------------------------------------------------------------------
# the cylinder sample frame and tip-weighted norms


@pytest.fixture(scope="module")
def nonlinear_run():
    grid = build_radial_grid(1.0, 12.0, 400, sponge_cells=100)
    family = picard.bump_data_family(grid, center=2.0, width=0.8)
    sol, rep = picard.picard_solve(family(1e-3), NullFormSpec.scalar_q0(),
                                   12.0, tol=1e-10, time_stride=10)
    assert rep.converged
    return sol


def _frame(sol):
    return norms._SampleFrame(sol.trajectory.grid, sol.samples["t"])


def test_cylinder_samples_shapes_and_weights(nonlinear_run):
    frame = _frame(nonlinear_run)
    n = nonlinear_run.trajectory.grid.n_nodes
    shape = (len(nonlinear_run.samples["t"]), n)
    # every frame array and pulled-back field is snapshot-major
    for a in (frame.T, frame.R, frame.dist, frame.conf, frame.weight):
        assert a.shape == shape
    for a in frame.solution(nonlinear_run.samples):
        assert a.shape == shape
    assert np.all(frame.weight >= 0)
    assert np.all(frame.dist > 0)
    assert np.all(frame.conf > 0)
    assert frame.dist.tobytes() == np.sqrt(frame.dist2).tobytes()
    # tip distance shrinks as time grows at fixed radius
    assert frame.dist[-1, 0] < frame.dist[0, 0]


def test_cylinder_samples_constructor_guards():
    # at t = 1e17 the image of every node rounds onto the tip, outside
    # the open diamond R + |T| < pi
    grid = build_radial_grid(1.0, 6.0, 100)
    with pytest.raises(DomainError):
        norms._SampleFrame(grid, 1e17 + 64.0 * np.arange(4))


def test_cylinder_sampling_guards(nonlinear_run):
    grid = nonlinear_run.trajectory.grid
    cart = exterior.build_masked_grid(exterior.Obstacle.sphere(1.0), 12.0,
                                      24, sponge_cells=0)
    with pytest.raises(ParamError):
        norms._SampleFrame(cart, np.arange(5.0))
    with pytest.raises(ParamError):
        # fewer than 3 samples
        norms._SampleFrame(grid, np.arange(2.0))
    # picard_solve refuses, before it solves, a time_stride the frame
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


def test_tip_weighted_norm_schemes(nonlinear_run):
    frame = _frame(nonlinear_run)
    forcing = frame.forcing(nonlinear_run.samples)
    l2 = delta_sweep(frame, forcing, [0.0])[0]
    l8 = l8_norm(frame, forcing[0])
    assert l2 > 0 and l8 > 0
    # the eighth power norm, normalised or not, of the same quadrature
    assert np.isclose(l8, np.sum(forcing[0] ** 8 * frame.weight) ** 0.125,
                      rtol=1e-12)
    assert l8_norm(frame, np.zeros_like(forcing[0])) == 0.0
    with pytest.raises(ParamError):
        delta_sweep(frame, forcing, [-0.1])


def test_delta_sweep_monotone(nonlinear_run):
    frame = _frame(nonlinear_run)
    forcing = frame.forcing(nonlinear_run.samples)
    deltas = [2.5, 2.0, 1.5, 1.0, 0.5, 0.0]
    vals = delta_sweep(frame, forcing, deltas)
    # truncating closer to the tip keeps more samples: nondecreasing
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    assert vals[-1] == delta_sweep(frame, forcing, [0.0])[0]
    with pytest.raises(ParamError):
        delta_sweep(frame, forcing, [1.0, -0.1])


def test_sampled_time_derivatives_take_the_solver_step():
    # u_t and Q_t at the sampled rows are the derivatives of the whole
    # stride-1 series, not differences across the sampling stride; a
    # one-sweep run (tol above the first residual) is the linear run,
    # whose rows give the whole series
    grid = build_radial_grid(1.0, 12.0, 400, sponge_cells=100)
    data = picard.bump_data_family(grid, center=2.0, width=0.8)(1e-3)
    spec = NullFormSpec.scalar_q0()
    sol, rep = picard.picard_solve(data, spec, 12.0, tol=1.0,
                                   time_stride=10)
    assert rep.iterations == 1
    dt = solver.cfl_limit(grid)
    _, us, _ = observed_rows(data, None, 12.0)
    traj = Trajectory(grid, dt * np.arange(len(us)), us, dt=dt)
    idx = np.arange(0, len(traj.times), 10)
    samples = sol.samples
    assert samples["t"].tobytes() == traj.times[idx].tobytes()
    assert samples["t"][1] - samples["t"][0] > 9 * dt

    u = grid.to_physical(traj.u)
    ut = fd.d1(u, dt, axis=0)
    (ur,) = grid.native_gradient(traj.u[idx])
    for name, ref in (("u", u[idx]), ("u_t", ut[idx]), ("u_r", ur)):
        assert samples[name].tobytes() == ref.tobytes(), name
    frame = _frame(sol)
    want = frame.pull(u[idx], ut[idx], ur, 1)
    for have, ref in zip(frame.solution(samples), want):
        assert have.tobytes() == ref.tobytes()

    # Q = q0(du, du) of the whole stack, with the whole stack's u_t
    (ur_all,) = grid.native_gradient(traj.u)
    Q = ut * ut - ur_all * ur_all
    assert evaluate_nullform_series(grid, spec, *_series_rows(traj))[:, 0] \
        .tobytes() == Q.tobytes()
    Qt = fd.d1(Q, dt, axis=0)
    assert samples["Q"].tobytes() == Q[idx].tobytes()
    assert samples["Q_t"].tobytes() == Qt[idx].tobytes()
    want = frame.pull(Q[idx], Qt[idx], fd.d1(Q[idx], grid.h, axis=-1), -3)
    for have, ref in zip(frame.forcing(samples), want):
        assert have.tobytes() == ref.tobytes()


def test_row_stencil_is_the_whole_series_derivative():
    # byte for byte d1 along the snapshot axis, at the ends and next to
    # them as well as inside, from one read of the rows the stencil uses
    rng = np.random.default_rng(5)
    F = rng.standard_normal((9, 2, 5))
    whole = fd.d1(F, 0.3, axis=0)
    cases = (((0, 1), (0, 3)), ((1, 2), (0, 3)), ((4, 5), (3, 6)),
             ((7, 8), (6, 9)), ((8, 9), (6, 9)), ((0, 2), (0, 3)),
             ((7, 9), (6, 9)), ((2, 6), (1, 7)), ((0, 9), (0, 9)))
    for (lo, hi), reads in cases:
        for out in (None, np.full((hi - lo,) + F.shape[1:], np.nan)):
            seen = []

            def read(a, b):
                seen.append((a, b))
                return F[a:b]
            val, d = fd.d1_rows(read, lo, hi, len(F), 0.3, out)
            assert out is None or d is out
            assert val.tobytes() == F[lo:hi].tobytes()
            assert d.tobytes() == whole[lo:hi].tobytes()
            assert seen == [reads]


@pytest.mark.parametrize("power", [1, -3])
def test_pull_is_the_cylinder_derivative_of_the_field(power):
    # val = conf**power * q for the radial q = cos(1.3 t) exp(-(r-3)^2);
    # g0 must be its d/dT and gb its d/dR (the boost magnitude of a
    # zonal field), both by central differences through the inverse map
    grid = build_radial_grid(1.0, 6.0, 100)
    frame = norms._SampleFrame(grid, 0.1 * np.arange(31))
    t, r = frame.t, grid.r

    def q_parts(t, r):
        prof = np.exp(-((r - 3.0) ** 2))
        return (np.cos(1.3 * t) * prof, -1.3 * np.sin(1.3 * t) * prof,
                -2.0 * (r - 3.0) * np.cos(1.3 * t) * prof)

    def field(T, R):
        p = penrose.from_einstein(penrose.EinsteinPoint(T, R))
        return penrose.conformal_factor(p) ** power * q_parts(p.t, p.r)[0]

    val, g0, gb = frame.pull(*q_parts(t, r), power)
    T, R = frame.T, frame.R
    h = 1e-5
    fd_T = (field(T + h, R) - field(T - h, R)) / (2 * h)
    fd_R = (field(T, R + h) - field(T, R - h)) / (2 * h)
    assert np.allclose(val, field(T, R), rtol=1e-12, atol=0.0)
    assert np.max(np.abs(g0 - fd_T)) < 1e-7 * np.max(np.abs(g0))
    assert np.max(np.abs(gb - fd_R)) < 1e-7 * np.max(np.abs(gb))


def test_weighted_energy_sup_homogeneous(nonlinear_run):
    frame = _frame(nonlinear_run)
    samples = nonlinear_run.samples
    a = frame.energy_sup(*frame.solution(samples))
    doubled = {name: 2.0 * samples[name] for name in ("u", "u_t", "u_r")}
    b = frame.energy_sup(*frame.solution(doubled))
    assert a > 0
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


def test_estimate_ratio_report_mechanics(nonlinear_run, monkeypatch):
    rows = [
        {"eps": 1e-3, "converged": True, "solution": nonlinear_run},
        {"eps": 2e-3, "converged": False, "solution": None},
    ]
    frames = []
    frame_class = norms._SampleFrame

    def counting(*args):
        frames.append(args)
        return frame_class(*args)

    monkeypatch.setattr(norms, "_SampleFrame", counting)
    deltas = [2.0, 1.0, 0.0]
    reports = estimate_ratio_report(rows, sup_window=(2.0, 10.0),
                                    deltas=deltas)
    # one sample frame per row serves all of its cylinder norms
    assert len(frames) == 1
    assert len(reports) == 1
    rep = reports[0]
    assert rep.metadata["eps"] == 1e-3
    for name in RATIO_NAMES:
        tag = name[len("ratio_"):]
        assert rep[name] == rep["lhs_" + tag] / rep["rhs_" + tag]
    assert rep["pecher_l8"] > 0
    frame = _frame(nonlinear_run)
    pull = frame.solution(nonlinear_run.samples)
    assert rep["pecher_l8"] == l8_norm(frame, pull[0])
    assert rep["lhs_weighted_energy"] == frame.energy_sup(*pull)
    # the report keeps the truncation sweep of the forcing its
    # null-cylinder norm read, not the frame
    forcing = frame.forcing(nonlinear_run.samples)
    assert rep["lhs_null_cylinder"] == delta_sweep(frame, forcing, [0.0])[0]
    assert rep.metadata["delta_sweep"] == delta_sweep(frame, forcing, deltas)
    assert rep.metadata["delta_sweep"][-1] == rep["lhs_null_cylinder"]
    assert "forcing_samples" not in rep.metadata
    assert rep["lhs_local_linear"] == _slab(
        frame.grid, nonlinear_run.window, nonlinear_run.trajectory.dt)
    with pytest.raises(ParamError):
        estimate_ratio_report([rows[0]], sup_window=(100.0, 200.0))
    # a solution solved without a time_stride keeps no sample rows
    plain, _ = picard.picard_solve(nonlinear_run.data, nonlinear_run.spec,
                                   12.0, tol=1e-10)
    assert plain.samples is None and plain.window is None
    with pytest.raises(ParamError):
        estimate_ratio_report([{"eps": 1e-3, "solution": plain}])
