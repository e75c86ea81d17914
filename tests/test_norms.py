"""Weighted norms, the cylinder sample frame, and estimate-ratio diagnostics."""

import numpy as np
import pytest
from scipy import integrate

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
    nullform_spacetime_norm,
    ratio_spreads,
    scale_to_data_norm,
    slab_norm,
    sphere_sobolev_norm,
    tip_weighted_norm,
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


# ---------------------------------------------------------------------------
# slab and space-time null-form norms


def test_slab_norm_constant_series():
    grid = build_radial_grid(1.0, 5.0, 100)
    M = 11
    series = np.full((M,) + grid.zeros().shape, 2.0)
    num = slab_norm(grid, lambda r: series[r], M, 0.5)
    V = 4.0 / 3.0 * np.pi * (5.0**3 - 1.0)
    T = 0.5 * (M - 1)
    assert abs(num - 2.0 * np.sqrt(V * T)) / num < 1e-4
    with pytest.raises(ParamError):
        slab_norm(grid, lambda r: series[r], 2, 0.5)


def test_slab_norm_homogeneity():
    grid = build_radial_grid(1.0, 5.0, 100)
    rng = np.random.default_rng(3)
    series = rng.standard_normal((8,) + grid.zeros().shape)
    a = slab_norm(grid, lambda r: series[r], len(series), 0.25)
    b = slab_norm(grid, lambda r: 3.0 * series[r], len(series), 0.25)
    assert np.isclose(b, 3.0 * a, rtol=1e-12)


def _separable_trajectory(grid, n_snap=41, dt_snap=0.02):
    # w = r * cos(1.3 t) * exp(-(r-3)^2): physical derivatives in closed form
    times = dt_snap * np.arange(n_snap)
    prof = np.exp(-((grid.r - 3.0) ** 2))
    u = np.cos(1.3 * times)[:, None] * (grid.r * prof)[None, :]
    return Trajectory(grid, times, u, dt=dt_snap, stride=1), prof


def test_nullform_series_separable_oracle():
    grid = build_radial_grid(1.0, 6.0, 800)
    traj, prof = _separable_trajectory(grid)
    spec = NullFormSpec.scalar_q0()
    q = evaluate_nullform_series(traj, spec, np.arange(len(traj.times)))
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
        evaluate_nullform_series(traj, two, np.arange(3))
    # the one-sided end stencils need three snapshots
    for m in (1, 2):
        short = Trajectory(grid, traj.times[:m], traj.u[:m], dt=traj.dt)
        with pytest.raises(ParamError):
            evaluate_nullform_series(short, spec, np.arange(m))


def test_nullform_spacetime_norm_full_window_is_slab_norm():
    grid = build_radial_grid(1.0, 6.0, 200)
    traj, _ = _separable_trajectory(grid)
    spec = NullFormSpec.scalar_q0()
    full = nullform_spacetime_norm(traj, spec,
                                   (traj.times[0], traj.times[-1]))
    q = evaluate_nullform_series(traj, spec, np.arange(len(traj.times)))
    ref = slab_norm(grid, lambda r: q[r], len(q), traj.snap_dt)
    assert full == ref
    # sub-windows are smaller than the whole
    part = nullform_spacetime_norm(traj, spec, (0.2, 0.6))
    assert part < full
    with pytest.raises(ParamError):
        nullform_spacetime_norm(traj, spec, (0.6, 0.2))
    with pytest.raises(ParamError):
        nullform_spacetime_norm(traj, spec, (0.0, 99.0))


# ---------------------------------------------------------------------------
# the cylinder sample frame and tip-weighted norms


@pytest.fixture(scope="module")
def nonlinear_run():
    grid = build_radial_grid(1.0, 12.0, 400, sponge_cells=100)
    family = picard.bump_data_family(grid, center=2.0, width=0.8)
    sol, rep = picard.picard_solve(family(1e-3), NullFormSpec.scalar_q0(),
                                   12.0, tol=1e-10)
    assert rep.converged
    return sol


def test_cylinder_samples_shapes_and_weights(nonlinear_run):
    traj = nonlinear_run.trajectory
    frame = norms._SampleFrame(traj, 10)
    n = traj.grid.n_nodes
    shape = (len(frame.idx), n)
    # every frame array and pulled-back field is snapshot-major
    for a in (frame.T, frame.R, frame.dist, frame.conf, frame.weight):
        assert a.shape == shape
    for a in frame.solution(traj):
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
    times = 1e17 + 64.0 * np.arange(4)
    late = Trajectory(grid, times, np.zeros((4, grid.n_nodes)))
    with pytest.raises(DomainError):
        norms._SampleFrame(late, 1)


def test_cylinder_sampling_guards(nonlinear_run):
    traj = nonlinear_run.trajectory
    cart = exterior.build_masked_grid(exterior.Obstacle.sphere(1.0), 12.0,
                                      24, sponge_cells=0)
    fake = Trajectory(cart, np.arange(5.0), np.zeros((5,) + cart.zeros().shape))
    with pytest.raises(ParamError):
        norms._SampleFrame(fake, 1)
    with pytest.raises(ParamError):
        # stride leaves fewer than 3 samples
        norms._SampleFrame(traj, 10**6)
    with pytest.raises(ParamError):
        norms._SampleFrame(traj, 10).forcing(traj, NullFormSpec.linear(2))


def test_tip_weighted_norm_schemes(nonlinear_run):
    frame = norms._SampleFrame(nonlinear_run.trajectory, 10)
    forcing = frame.forcing(nonlinear_run.trajectory, nonlinear_run.spec)
    l2 = tip_weighted_norm(frame, forcing, "l2")
    l8 = tip_weighted_norm(frame, forcing, "l8")
    assert l2 > 0 and l8 > 0
    with pytest.raises(ParamError):
        tip_weighted_norm(frame, forcing, "l4")
    with pytest.raises(ParamError):
        tip_weighted_norm(frame, forcing, "l2", delta=-0.1)


def test_delta_sweep_monotone(nonlinear_run):
    frame = norms._SampleFrame(nonlinear_run.trajectory, 10)
    forcing = frame.forcing(nonlinear_run.trajectory, nonlinear_run.spec)
    deltas = [2.5, 2.0, 1.5, 1.0, 0.5, 0.0]
    vals = delta_sweep(frame, forcing, deltas)
    # truncating closer to the tip keeps more samples: nondecreasing
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    assert vals[-1] == tip_weighted_norm(frame, forcing, "l2", 0.0)


def test_sampled_time_derivatives_take_the_solver_step(nonlinear_run):
    # u_t and Q_t at the sampled rows are the derivatives of the whole
    # stride-1 series, not differences across the sampling stride
    traj, spec = nonlinear_run.trajectory, nonlinear_run.spec
    grid, dt = traj.grid, traj.snap_dt
    frame = norms._SampleFrame(traj, 10)
    idx = frame.idx
    assert traj.times[idx[1]] - traj.times[idx[0]] > 9 * dt

    u = grid.to_physical(traj.u)
    ut = fd.d1(u, dt, axis=0)
    up, ut_s = fd.d1_rows(lambda r: grid.to_physical(traj.u[r]), idx,
                          len(traj.times), dt)
    assert up.tobytes() == u[idx].tobytes()
    assert ut_s.tobytes() == ut[idx].tobytes()
    (ur,) = grid.native_gradient(traj.u[idx])
    want = frame.pull(u[idx], ut[idx], ur, 1)
    for have, ref in zip(frame.solution(traj), want):
        assert have.tobytes() == ref.tobytes()

    # Q = q0(du, du) of the whole stack, with the whole stack's u_t
    (ur_all,) = grid.native_gradient(traj.u)
    Q = ut * ut - ur_all * ur_all
    rows = np.arange(len(traj.times))
    assert evaluate_nullform_series(traj, spec, rows)[:, 0].tobytes() == \
        Q.tobytes()
    Qt = fd.d1(Q, dt, axis=0)
    want = frame.pull(Q[idx], Qt[idx], fd.d1(Q[idx], grid.h, axis=-1), -3)
    for have, ref in zip(frame.forcing(traj, spec), want):
        assert have.tobytes() == ref.tobytes()


def test_row_stencil_is_the_whole_series_derivative():
    # byte for byte d1 along the snapshot axis, at the ends and next to
    # them as well as inside, read from the rows the stencil uses only
    rng = np.random.default_rng(5)
    F = rng.standard_normal((9, 2, 5))
    whole = fd.d1(F, 0.3, axis=0)
    cases = (([0], [0, 1, 2]), ([1], [0, 1, 2]), ([4], [3, 4, 5]),
             ([7], [6, 7, 8]), ([8], [6, 7, 8]),
             ([0, 1, 7, 8], [0, 1, 2, 6, 7, 8]), ([2, 6], [1, 2, 3, 5, 6, 7]),
             (range(9), range(9)))
    for rows, reads in cases:
        rows = np.array(rows)
        seen = []

        def read(r):
            seen.append(list(r))
            return F[r]
        val, d = fd.d1_rows(read, rows, len(F), 0.3)
        assert val.tobytes() == F[rows].tobytes()
        assert d.tobytes() == whole[rows].tobytes()
        assert seen == [list(reads)]


def test_row_blocks_cover_the_run_in_order(monkeypatch):
    monkeypatch.setattr(fd, "BLOCK_VALUES", 10)
    assert [list(b) for b in fd.row_blocks(7, 3)] == [[0, 1, 2], [3, 4, 5],
                                                      [6]]
    # a row larger than a block is read on its own
    assert [list(b) for b in fd.row_blocks(3, 11)] == [[0], [1], [2]]
    assert list(fd.row_blocks(0, 3)) == []


@pytest.mark.parametrize("power", [1, -3])
def test_pull_is_the_cylinder_derivative_of_the_field(power):
    # val = conf**power * q for the radial q = cos(1.3 t) exp(-(r-3)^2);
    # g0 must be its d/dT and gb its d/dR (the boost magnitude of a
    # zonal field), both by central differences through the inverse map
    grid = build_radial_grid(1.0, 6.0, 100)
    traj, _ = _separable_trajectory(grid, n_snap=31, dt_snap=0.1)
    frame = norms._SampleFrame(traj, 1)
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
    traj = nonlinear_run.trajectory
    frame = norms._SampleFrame(traj, 10)
    a = frame.energy_sup(*frame.solution(traj))
    doubled = Trajectory(traj.grid, traj.times, 2.0 * traj.u, dt=traj.dt,
                         stride=traj.stride)
    frame2 = norms._SampleFrame(doubled, 10)
    b = frame2.energy_sup(*frame2.solution(doubled))
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
    reports = estimate_ratio_report(rows, sup_window=(2.0, 10.0),
                                    time_stride=10)
    # one sample frame per row serves all of its cylinder norms
    assert len(frames) == 1
    assert len(reports) == 1
    rep = reports[0]
    assert rep.metadata["eps"] == 1e-3
    for name in RATIO_NAMES:
        tag = name[len("ratio_"):]
        assert rep[name] == rep["lhs_" + tag] / rep["rhs_" + tag]
    assert rep["pecher_l8"] > 0
    frame = norms._SampleFrame(nonlinear_run.trajectory, 10)
    pull = frame.solution(nonlinear_run.trajectory)
    assert rep["pecher_l8"] == tip_weighted_norm(frame, pull, "l8")
    assert rep["lhs_weighted_energy"] == frame.energy_sup(*pull)
    # the report keeps the frame and forcing its null-cylinder norm read
    kept_frame, forcing = rep.metadata["forcing_samples"]
    assert rep["lhs_null_cylinder"] == tip_weighted_norm(kept_frame, forcing,
                                                         "l2")
    assert kept_frame.weight.tobytes() == frame.weight.tobytes()
    for have, ref in zip(forcing, frame.forcing(nonlinear_run.trajectory,
                                                nonlinear_run.spec)):
        assert have.tobytes() == ref.tobytes()
    with pytest.raises(ParamError):
        estimate_ratio_report([rows[0]], sup_window=(100.0, 200.0),
                              time_stride=10)
