"""Fixed-point construction of small-data nonlinear solutions."""

import tracemalloc

import numpy as np
import pytest

from conftest import cylinder_reference, observed_rows
from nullwave import exterior, fd, norms, picard, solver
from nullwave.errors import NaNError, NoConvergence, ParamError
from nullwave.exterior import InitialData, build_radial_grid
from nullwave.nullforms import NullFormSpec
from nullwave.picard import (
    DEFAULT_SMALLNESS,
    bump_data_family,
    picard_solve,
    smallness_scan,
)


@pytest.fixture(scope="module")
def grid():
    return build_radial_grid(1.0, 8.0, 200)


@pytest.fixture(scope="module")
def family(grid):
    return bump_data_family(grid, center=2.0, width=0.8)


SPEC = NullFormSpec.scalar_q0()
DELTAS = [1.0, 0.5, 0.0]


def test_zero_data_fixed_point_is_zero(grid):
    data = InitialData(grid, grid.zeros(), grid.zeros())
    sol, rep = picard_solve(data, SPEC, 4.0)
    assert rep.converged
    assert rep.iterations == 1
    assert rep.residuals == [0.0]
    assert np.max(np.abs(sol.trajectory.u)) == 0.0


def test_linear_spec_reproduces_linear_solver(family, grid):
    data = family(1e-3)
    sol, rep = picard_solve(data, NullFormSpec.linear(1), 8.0, tol=1e-10)
    ref, us, vs = observed_rows(data, None, 8.0)
    assert rep.iterations == 1
    # the sweep keeps the first and last state of the linear run
    assert np.array_equal(sol.trajectory.u, us[[0, -1]])
    assert np.array_equal(sol.trajectory.v, vs[[0, -1]])
    assert sol.sup_times.tobytes() == (ref.dt * np.arange(len(us))).tobytes()
    assert sol.sup_times[-1] == ref.times[-1]
    assert sol.sup_values.tobytes() == np.max(np.abs(us), axis=1).tobytes()


def test_first_residual_scales_quadratically(family):
    # the first residual is the null form of the linear iterate, so it
    # must scale like eps^2
    res1 = []
    for eps in (5e-4, 1e-3, 2e-3):
        _, rep = picard_solve(family(eps), SPEC, 8.0, tol=1e-12)
        res1.append(rep.residuals[0])
    assert 3.5 < res1[1] / res1[0] < 4.5
    assert 3.5 < res1[2] / res1[1] < 4.5


def test_iteration_report_contracts(family):
    _, rep = picard_solve(family(2e-3), SPEC, 8.0, tol=1e-12)
    assert rep.converged
    assert rep.residuals == sorted(rep.residuals, reverse=True)
    assert all(r < 1e-4 for r in rep.ratios)


def test_dirichlet_boundary_preserved(family):
    sol, _ = picard_solve(family(1e-3), SPEC, 8.0, tol=1e-10)
    assert sol.boundary_max() == 0.0


def test_smallness_guard(family):
    loud = family(10.0 * DEFAULT_SMALLNESS)
    with pytest.raises(ParamError):
        picard_solve(loud, SPEC, 4.0)
    # an explicit threshold overrides the default
    sol, rep = picard_solve(loud, SPEC, 4.0,
                            smallness_threshold=np.inf, tol=1e-6)
    assert rep.converged


def test_smallness_guard_refuses_a_nan_norm():
    # the weights overflow at |x| ~ 1e60, so one nonzero node gives a
    # NaN data norm, which no threshold admits
    grid = build_radial_grid(1.0, 1e60, 64)
    f = grid.zeros()
    f[5] = 1.0
    data = InitialData(grid, f, grid.zeros())
    with np.errstate(over="ignore", invalid="ignore"):
        for threshold in (None, np.inf):
            with pytest.raises(ParamError):
                picard_solve(data, SPEC, 2.0, dt=1.0,
                             smallness_threshold=threshold)


def test_compatibility_guard(grid):
    # f does not vanish at the obstacle: order-1 compatibility fails
    data = InitialData.from_physical(grid, lambda r: np.ones_like(r),
                                     lambda r: np.zeros_like(r))
    with pytest.raises(ParamError):
        picard_solve(data, SPEC, 4.0)


@pytest.mark.parametrize("data_count, spec_count", [(1, 2), (2, 1)])
def test_component_count_must_match_the_spec(monkeypatch, grid, family,
                                             data_count, spec_count):
    data = family(1e-3)
    if data_count == 2:
        data = InitialData(grid, np.stack([data.f, data.f]),
                           np.stack([data.g, data.g]))
    spec = SPEC if spec_count == 1 else NullFormSpec.linear(spec_count)

    def unreached(*args):
        raise AssertionError("the compatibility check ran")

    # refused before the compatibility and smallness checks
    monkeypatch.setattr(picard, "check_compatibility", unreached)
    with pytest.raises(ParamError, match="count %d differs from the null "
                       "form's %d" % (data_count, spec_count)):
        picard_solve(data, spec, 4.0)


def test_picard_param_guards(family):
    data = family(1e-3)
    with pytest.raises(ParamError):
        picard_solve(data, SPEC, 4.0, tol=0.0)
    with pytest.raises(ParamError):
        picard_solve(data, SPEC, 4.0, max_iter=0)


def test_no_convergence_carries_history(family):
    with pytest.raises(NoConvergence) as exc_info:
        picard_solve(family(1e-3), SPEC, 8.0, tol=1e-30, max_iter=2)
    exc = exc_info.value
    assert exc.iterations == 2
    assert len(exc.residuals) == 2
    assert exc.residuals[0] > exc.residuals[1]


def test_no_convergence_solves_only_before_another_sweep(family,
                                                         monkeypatch):
    # no floor, so that tol=1e-30 is not met by the third sweep
    monkeypatch.setattr(picard, "FORCING_ROUNDING", 0.0)
    data = family(1e-3)
    with pytest.raises(NoConvergence) as longer:
        picard_solve(data, SPEC, 8.0, tol=1e-30, max_iter=3)
    solves = []

    def counted(*args, **kwargs):
        solves.append(1)
        return solver.solve_linear(*args, **kwargs)

    monkeypatch.setattr(picard, "solve_linear", counted)
    with pytest.raises(NoConvergence) as exc_info:
        picard_solve(data, SPEC, 8.0, tol=1e-30, max_iter=2)
    # the linear solve and one re-solve; none after the last residual
    assert len(solves) == 2
    assert exc_info.value.residuals == longer.value.residuals[:2]


def test_a_null_form_past_float32_raises_at_the_write(family, grid):
    # Q ~ eps^2, and on this grid a bump of norm 1 has |Q| rows of 5e-9
    # to 9e-6, 1.6e-6 in the first: at eps 7e21 some rows, not the
    # first, pass float32's 3.4e38.  The cast must not warn (an error
    # under this suite's settings), and the error names the first row
    # that does not fit
    eps = 7e21
    dt = solver.cfl_limit(grid)
    n = solver.step_count(8.0, dt) + 1
    data = family(eps)
    sweep = picard._Sweep(data, SPEC, n, dt, None, (),
                          np.empty((n,) + data.f.shape), False)
    solver.solve_linear(data, None, 8.0, dt=dt, observe=sweep)
    big = np.abs(sweep.forcing).max(axis=1) > np.finfo(np.float32).max
    assert np.argmax(big) > 0 and np.isfinite(sweep.forcing).all()
    with pytest.raises(NaNError, match="t=%g " % (dt * np.argmax(big))):
        picard_solve(data, SPEC, 8.0, smallness_threshold=np.inf)


def test_first_forcing_row_is_the_null_form_of_the_data(family, grid):
    # u_t at t = 0 is the data g, not a one-sided difference of u
    data = family(1e-3)
    dt = solver.cfl_limit(grid)
    n = solver.step_count(8.0, dt) + 1
    sweep = picard._Sweep(data, SPEC, n, dt, None, (),
                          np.empty((n,) + data.f.shape, np.float32), False)
    solver.solve_linear(data, None, 8.0, dt=dt, observe=sweep)
    q0 = norms.evaluate_nullform_series(grid, SPEC, data.f[None, None],
                                        data.g[None, None])[0, 0]
    assert np.max(np.abs(q0)) > 0
    assert sweep.forcing[0].tobytes() == q0.astype(np.float32).tobytes()


@pytest.mark.parametrize("n", [3, 4, 17, 37])
@pytest.mark.parametrize("block", [1, 2, 3, 40])
def test_rows_hand_back_each_row_once_in_order(n, block):
    # rows are put a block at a time, as a sweep puts them; each comes
    # back once, in ranges of at most block rows, whose reads (the rows
    # and their stencil) are right across the buffer's slides, all within
    # the one array the window was made with
    F = np.random.default_rng(7).standard_normal((n, 2))
    whole = fd.d1(F, 0.3, axis=0)
    rows = picard._Rows(n, block, (2,))
    buf = rows.buf
    back = []
    for lo in range(0, n, block):
        ranges = rows.put(lo, F[lo:lo + block])
        assert rows.buf is buf
        for a, b in ranges:
            assert 0 < b - a <= block
            assert rows.read(a, b).tobytes() == F[a:b].tobytes()
            val, d = fd.d1_rows(rows.read, a, b, n, 0.3)
            assert val.tobytes() == F[a:b].tobytes()
            assert d.tobytes() == whole[a:b].tobytes()
            back.extend(range(a, b))
    # the last put returns the rows through n
    assert ranges and ranges[-1][1] == n
    assert back == list(range(n))


def test_stop_level_is_the_forcing_resolution(monkeypatch):
    # at eps 300 the first residual is ~10 and the sweeps contract ~0.1
    # each: a float32 forcing cannot bring the residual to tol = 1e-8,
    # and the run stops at the floor rounding puts under it
    grid = build_radial_grid(1.0, 8.0, 200)
    data = bump_data_family(grid, 2.0, 0.8)(300.0)
    t_end = 8.0
    _, rep = picard_solve(data, SPEC, t_end, tol=1e-8, max_iter=12,
                          smallness_threshold=np.inf)
    res = rep.residuals
    assert res[0] > 0.1
    # ||Q_0||: the space-time L2 norm of the linear run's null form
    dt, _, _, _, _, q, _ = _reference_sweep(data, SPEC, None, t_end)
    q0 = np.sqrt(np.sum(fd.trapezoid(dt, len(q))
                        * np.sum(q[:, 0] ** 2 * grid.weights(), axis=1)))
    floor = picard.FORCING_ROUNDING * q0 * (1 + 1 / dt + grid.ndim / grid.h)
    assert 1e-8 < res[-1] <= floor < min(res[:-1])
    monkeypatch.setattr(picard, "FORCING_ROUNDING", 0.0)
    with pytest.raises(NoConvergence):
        picard_solve(data, SPEC, t_end, tol=1e-8, max_iter=12,
                     smallness_threshold=np.inf)


def _block_case(name):
    """(data, spec, t_end) of one block-size comparison."""
    if name == "ellipsoid":
        grid = exterior.build_masked_grid(
            exterior.Obstacle.ellipsoid(1.4, 1.0, 0.8), 12.0, 24,
            sponge_cells=8)
        return bump_data_family(grid, center=3.0)(0.05), SPEC, 4.0
    grid = build_radial_grid(1.0, 8.0, 200, sponge_cells=40)
    data = bump_data_family(grid)(2e-3)
    if name == "radial-sponge":
        return data, SPEC, 8.0
    # two coupled components, stacked on the leading field axis
    stacked = InitialData(grid, np.stack([data.f, -0.5 * data.f]),
                          np.stack([data.g, data.g]))
    spec = NullFormSpec(2, [(0, 0, 1, 1.0, "q0"), (1, 1, 1, -2.0, "q0")])
    return stacked, spec, 8.0


def _reference_sweep(data, spec, forcing, t_end, dt=None):
    """The reference of one sweep: every row of its run, with the
    observed v as u_t.

    Returns the run's step and snapshot times and, over all its
    snapshots, u, then u, u_t and Q as rows with a component axis, and
    the forcing.
    """
    grid = data.grid
    traj, us, vs = observed_rows(data, forcing, t_end, dt=dt)
    n = len(us)
    lead = (n, spec.n_components) + grid.zeros().shape
    up, ut = us.reshape(lead), vs.reshape(lead)
    q = norms.evaluate_nullform_series(grid, spec, up, ut)
    F = q.reshape(us.shape)
    return traj.dt, traj.dt * np.arange(n), us, up, ut, q, F


def _check_sweep(sweep, grid, forcing, ref, time_stride):
    """The observed sweep's rows, and the forcing it made (rounded to the
    forcing's dtype), against the whole-stack reference."""
    dt, times, us, up, ut, q, F = ref
    n = len(times)
    assert sweep.n == n and sweep.dt == dt
    assert forcing.tobytes() == F.astype(forcing.dtype).tobytes()
    assert sweep.sup.tobytes() == np.max(np.abs(up).reshape(n, -1),
                                         axis=1).tobytes()
    assert sweep.boundary == np.max(np.abs(us[..., ~grid.updated()]),
                                    initial=0.0)
    if time_stride is None:
        assert sweep.cylinder is None and sweep.local_sq is None
        return
    # every sampled row had its solution and then its forcing summed
    assert sweep.cylinder.frames == {}
    tips, l8, energy = sweep.cylinder.values()
    want = cylinder_reference(grid, dt, time_stride, up[:, 0], ut[:, 0],
                              q[:, 0], DELTAS)
    assert np.allclose(tips, want[0], rtol=1e-12, atol=0.0)
    assert np.isclose(l8, want[1], rtol=1e-12, atol=0.0)
    assert np.isclose(energy, want[2], rtol=1e-12, atol=0.0)
    # the local-linear window's rows of Q, with Q_t of the whole run
    i1 = norms.local_linear_rows(n, dt)
    Q = q[:, 0]
    want = norms.slab_sums(grid, Q[:i1], fd.d1(Q, dt, axis=0)[:i1])
    assert sweep.local_sq.tobytes() == want.tobytes()


@pytest.mark.parametrize("name", ["radial-sponge", "radial-system",
                                  "ellipsoid"])
def test_results_do_not_depend_on_the_block_size(monkeypatch, name):
    # each observed sweep, whatever the block its rows are taken in,
    # equals the rows of a run with the same forcing, its v as u_t;
    # no floor, so that tol=1e-30 is not met by the third sweep
    monkeypatch.setattr(picard, "FORCING_ROUNDING", 0.0)
    data, spec, t_end = _block_case(name)
    grid = data.grid
    time_stride = 7 if name == "radial-sponge" else None
    seen = []
    for block in (1, fd.BLOCK_VALUES, 2**40):
        monkeypatch.setattr(fd, "BLOCK_VALUES", block)
        sweeps = []

        def spy(data, forcing, t_end, **kwargs):
            # the sweep overwrites the forcing it is handed with the one
            # it makes: copy both
            handed = None if forcing is None else forcing.copy()
            traj = solver.solve_linear(data, forcing, t_end, **kwargs)
            sweep = kwargs["observe"]
            sweeps.append((handed, sweep, sweep.forcing.copy()))
            return traj

        monkeypatch.setattr(picard, "solve_linear", spy)
        with pytest.raises(NoConvergence) as exc_info:
            picard_solve(data, spec, t_end, tol=1e-30, max_iter=3,
                         smallness_threshold=np.inf,
                         time_stride=time_stride, deltas=DELTAS)
        residuals = exc_info.value.residuals
        assert len(sweeps) == 3
        applied = None
        for (forcing, sweep, made), residual in zip(sweeps, residuals):
            assert (forcing is None) == (applied is None)
            assert applied is None or forcing.tobytes() == applied.tobytes()
            ref = _reference_sweep(data, spec, forcing, t_end)
            _check_sweep(sweep, grid, made, ref, time_stride)
            F, dt = ref[-1], sweep.dt
            res = F if applied is None else F - applied
            assert residual == norms.slab_norm(norms.slab_sums(
                grid, res, fd.d1(res, dt, axis=0)), dt)
            applied = made
        # the cylinder norms add their rows in row order in every block
        seen.append((residuals, [None if sweep.cylinder is None
                                 else sweep.cylinder.values()
                                 for _, sweep, _ in sweeps]))
    assert seen[0] == seen[1] == seen[2]


@pytest.mark.parametrize("t_end, time_stride",
                         [(1.0, 1), (8.0, 1), (8.0, 5), (8.0, 6)],
                         ids=["3-snapshots", "stride-1", "stride-5",
                              "stride-6"])
def test_observed_sweep_edge_cases(monkeypatch, t_end, time_stride):
    # dt = 0.5 on a coarse grid gives a run of 3 snapshots at t_end 1;
    # at t_end 8 (17 snapshots) stride 5 samples miss the last row and
    # stride 6 ones miss the last two, and blocks of 3 rows put the
    # ends of the run and of the samples on every side of a block edge
    grid = build_radial_grid(1.0, 10.6, 16, sponge_cells=2)
    data = bump_data_family(grid, center=4.0, width=2.0)(1e-3)
    dt = 0.5
    ref = _reference_sweep(data, SPEC, None, t_end, dt=dt)
    n = len(ref[1])
    assert n == (3 if t_end == 1.0 else 17)
    for block in (1, 3 * grid.n_nodes, 2**40):
        monkeypatch.setattr(fd, "BLOCK_VALUES", block)
        sweep = picard._Sweep(data, SPEC, n, dt, time_stride, DELTAS,
                              np.empty((n,) + data.f.shape), False)
        solver.solve_linear(data, None, t_end, dt=dt, observe=sweep)
        _check_sweep(sweep, grid, sweep.forcing, ref, time_stride)


@pytest.mark.parametrize("sweeps", [1, 3])
def test_picard_holds_no_space_time_temporaries(monkeypatch, sweeps):
    # blocks far below the run, so that one whole-run temporary shows;
    # no floor, so that tol=1e-30 is not met before the last sweep
    monkeypatch.setattr(fd, "BLOCK_VALUES", 2**12)
    monkeypatch.setattr(picard, "FORCING_ROUNDING", 0.0)
    block = 8 * fd.BLOCK_VALUES
    data = bump_data_family(build_radial_grid(1.0, 12.0, 400,
                                              sponge_cells=100))(1e-3)
    t_end = 40.0
    # the run's (snapshots x nodes) u stack
    stack = (solver.step_count(t_end, solver.cfl_limit(data.grid)) + 1) \
        * data.f.nbytes
    assert stack >= 20 * block

    def run():
        if sweeps == 1:
            assert picard_solve(data, SPEC, t_end)[1].iterations == 1
        else:
            with pytest.raises(NoConvergence):
                picard_solve(data, SPEC, t_end, tol=1e-30, max_iter=sweeps)

    run()  # one-time lazy imports are not the run's
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # no u stack, and one float32 forcing array, half a u stack: each
    # sweep writes the forcing it makes over the rows of the applied one
    # that the solver has read
    assert peak < stack // 2 + 32 * block


def test_cartesian_picard_holds_a_fixed_number_of_rows(monkeypatch):
    # blocks of one row: the solver's state, the observer's workspace and
    # its row window are a fixed number of rows, and the null form and
    # the slab sums write into the workspace, allocating no row
    monkeypatch.setattr(fd, "BLOCK_VALUES", 2**12)
    data, spec, t_end = _block_case("ellipsoid")
    row = data.f.nbytes
    assert fd.BLOCK_VALUES < data.f.size
    n = solver.step_count(t_end, solver.cfl_limit(data.grid)) + 1
    peaks, grown = [], []

    def watched(fn):
        def call(*args, **kwargs):
            # what fn allocates on top of what was held when it was called
            before, peak = tracemalloc.get_traced_memory()
            peaks.append(peak)
            tracemalloc.reset_peak()
            result = fn(*args, **kwargs)
            grown.append(tracemalloc.get_traced_memory()[1] - before)
            return result
        return call

    monkeypatch.setattr(picard, "evaluate_nullform_series",
                        watched(norms.evaluate_nullform_series))
    monkeypatch.setattr(norms, "slab_sums", watched(norms.slab_sums))

    def run():
        with pytest.raises(NoConvergence):
            picard_solve(data, spec, t_end, tol=1e-30, max_iter=2,
                         smallness_threshold=np.inf)

    run()  # one-time lazy imports are not the run's
    peaks.clear()
    grown.clear()
    tracemalloc.start()
    try:
        run()
        peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    assert len(grown) == 4 * n
    assert max(grown) < row / 4
    # one forcing array; u, v, the Laplacian, scratch, the forcing
    # midpoint, the damping and the first and last (u, v) of the solver;
    # then the residual window of 4 rows, its fresh buffer at a slide,
    # the block's u, v and Q, the 5 workspace rows and the 3 rows of
    # d1_rows's end stencil
    solver_rows = 10
    assert max(peaks) < n * row + (solver_rows + 24) * row


def test_scan_rows_ordered_and_reported(family):
    rows = list(smallness_scan(family, SPEC, [5e-4, 1e-3, 2e-3], 8.0))
    assert [r["eps"] for r in rows] == [5e-4, 1e-3, 2e-3]
    for row in rows:
        assert row["converged"]
        assert row["solution"] is not None
        assert row["final_residual"] <= 1e-8


def test_scan_rows_match_picard_solve(family, monkeypatch):
    # one row builder: a failed and a converged entry carry what
    # picard_solve raises or returns for the same data, to the bit;
    # no floor, so that tol=1e-30 is not met by the third sweep
    monkeypatch.setattr(picard, "FORCING_ROUNDING", 0.0)
    with pytest.raises(NoConvergence) as exc:
        picard_solve(family(1e-3), SPEC, 8.0, tol=1e-30, max_iter=3)
    res = exc.value.residuals
    (row,) = smallness_scan(family, SPEC, [1e-3], 8.0, tol=1e-30,
                            max_iter=3)
    assert not row["converged"] and row["solution"] is None
    assert row["iterations"] == exc.value.iterations == 3
    assert row["final_residual"] == res[-1]
    assert row["final_ratio"] == res[-1] / res[-2]
    # a tol of the second residual stops the run after two sweeps
    _, rep = picard_solve(family(1e-3), SPEC, 8.0, tol=res[1])
    assert rep.iterations == 2
    (row,) = smallness_scan(family, SPEC, [1e-3], 8.0, tol=res[1])
    assert row["converged"] and row["solution"] is not None
    assert row["iterations"] == rep.iterations
    assert row["final_residual"] == rep.residuals[-1]
    assert row["final_ratio"] == rep.ratios[-1]


def test_scan_records_failures_without_raising(family):
    rows = list(smallness_scan(family, SPEC, [1e-3], 8.0, tol=1e-30,
                               max_iter=2))
    row = rows[0]
    assert not row["converged"]
    assert row["solution"] is None
    assert row["iterations"] == 2
    assert row["final_residual"] is not None
    assert row["final_ratio"] is not None


def test_scan_eps_validation(family):
    # refused when called, before the first row is asked for
    with pytest.raises(ParamError):
        smallness_scan(family, SPEC, [1e-3, 5e-4], 8.0)
    with pytest.raises(ParamError):
        smallness_scan(family, SPEC, [-1e-3, 5e-4], 8.0)
    for bad in (np.nan, np.inf):
        with pytest.raises(ParamError):
            smallness_scan(family, SPEC, [1e-3, bad], 8.0)


def test_scan_yields_rows_in_eps_order(family):
    # the middle entry fails to converge in one sweep; zero data converge
    eps_list = [1e-3, 2e-3, 3e-3]
    rows = smallness_scan(lambda eps: family(eps if eps == 2e-3 else 0.0),
                          SPEC, eps_list, 8.0, tol=1e-30, max_iter=1)
    assert iter(rows) is rows  # an iterator, not a table
    rows = list(rows)
    assert [r["eps"] for r in rows] == eps_list
    assert [r["converged"] for r in rows] == [True, False, True]
    assert rows[1]["solution"] is None
    assert rows[0]["solution"] is not None and rows[2]["solution"] is not None


def test_streamed_scan_holds_one_entry(monkeypatch):
    # blocks far below the run, so that only what the scan holds shows
    monkeypatch.setattr(fd, "BLOCK_VALUES", 2**12)
    family = bump_data_family(build_radial_grid(1.0, 12.0, 400,
                                                sponge_cells=100))
    t_end, time_stride = 20.0, 40
    data = family(1e-3)
    # the run's (snapshots x nodes) u stack
    stack = (solver.step_count(t_end, solver.cfl_limit(data.grid)) + 1) \
        * data.f.nbytes

    def peak(eps_list):
        def run():
            reports = norms.estimate_ratio_report(
                smallness_scan(family, SPEC, eps_list, t_end,
                               time_stride=time_stride, deltas=[1.0, 0.0]),
                sup_window=(2.0, 10.0))
            assert len(reports) == len(eps_list)
            assert all(len(r.metadata["delta_sweep"]) == 2 and
                       "forcing_samples" not in r.metadata for r in reports)

        run()  # one-time lazy imports are not the run's
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    one = peak([1e-3])
    four = peak([1e-3, 2e-3, 4e-3, 8e-3])
    # one entry is in flight at a time, and no report keeps its frame
    assert four < one + stack / 2


def test_one_component_on_a_leading_axis_keeps_its_cylinder_norms(family):
    # scalar data stacked as one component give the plain data's norms
    # once a forcing is applied, as the later sweeps' Q rows take the
    # data's shape and the cylinder takes rows of the grid's
    data = family(1e-3)
    runs = [picard_solve(d, SPEC, 8.0, tol=1e-13, time_stride=5,
                         deltas=[1.0, 0.0])
            for d in (data, InitialData(data.grid, data.f[None],
                                        data.g[None]))]
    (plain, rep), (stacked, rep1) = runs
    assert rep.iterations > 1 and rep1.residuals == rep.residuals
    assert stacked.tip_norms == plain.tip_norms
    assert (stacked.l8_norm, stacked.energy_sup, stacked.local_linear) == \
        (plain.l8_norm, plain.energy_sup, plain.local_linear)


def test_cylinder_norms_hold_no_sampled_rows():
    # the cylinder norms are summed a sampled row at a time, so sampling
    # four times as many rows does not raise the peak of a run and its
    # report (a stack of the sampled rows would add 5 rows per sample)
    data = bump_data_family(build_radial_grid(1.0, 12.0, 400,
                                              sponge_cells=100))(1e-3)

    def peak(time_stride):
        def run():
            sol, _ = picard_solve(data, SPEC, 20.0, time_stride=time_stride,
                                  deltas=[1.0, 0.0])
            (rep,) = norms.estimate_ratio_report(
                [{"eps": 1e-3, "solution": sol}], sup_window=(2.0, 10.0))
            assert len(rep.metadata["delta_sweep"]) == 2

        run()  # one-time lazy imports are not the run's
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # whether a sampled row waits for its Q_t at the peak depends on the
    # stride: allow the two frames of 8 rows each that can wait
    twenty = peak(20)
    assert peak(5) < twenty + 16 * data.f.nbytes


def test_bump_family_norm_calibration(grid, family):
    for eps in (1e-4, 1e-2):
        data = family(eps)
        assert np.isclose(norms.data_smallness_norm(data), eps, rtol=1e-12)
    # compact support away from both ends
    data = family(1e-2)
    u0 = data.f
    assert u0[0] == 0.0 and u0[-1] == 0.0
    assert np.max(np.abs(u0)) > 0


def test_bump_family_velocity_options(grid):
    fam_zero = bump_data_family(grid, velocity="zero")
    data = fam_zero(1e-3)
    assert np.all(data.g == 0.0)
    assert np.max(np.abs(data.f)) > 0
    fam_prof = bump_data_family(grid, velocity="profile")
    assert np.max(np.abs(fam_prof(1e-3).g)) > 0
    with pytest.raises(ParamError):
        bump_data_family(grid, velocity="sideways")


def test_measure_sup_decay_window_guard(family):
    sol, _ = picard_solve(family(1e-3), SPEC, 8.0, tol=1e-10)
    with pytest.raises(ParamError):
        picard.measure_sup_decay(sol, window=(100.0, 200.0))
    fit = picard.measure_sup_decay(sol, window=(1.0, 7.0))
    assert fit.model == "power"
