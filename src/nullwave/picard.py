"""Small-data nonlinear solutions by Picard iteration.

The nonlinear problem (wave equation with a null-form right side) is
solved as a fixed point: each iterate feeds the null form of the previous
one back in as forcing for a linear solve.  Convergence is monitored
through the space-time norm of the forcing update, which is the
practical surrogate for the contraction distance.

Every sweep is a solve_linear run, which keeps only its first and last
state.  Its observer (_Sweep) copies the rows of u and of the solver's
v, which is u_t, into a block of fd.SeriesWindow's block rows, and takes
a full block when the next row comes, the last at the last row: the
block's Q, the sup series, the boundary max and the residual's
slab_sums, whose time stencil its fd.SeriesWindow owns.  With a
time_stride it hands each block to a norms.CylinderNorms, which owns
the sampled rows and the local-linear window.  A run holds one forcing
array, in float32: the solver has read a block's rows of it (see
nullwave.solver), so the observer takes their residual against them and
writes its Q over them for the next sweep; only that write rounds.  The
observer's workspace of block rows (u, v, Q and work, the null form's
gradients and products, then the slab_sums') is lent to the report.

The rounding puts a floor under the residual: a fixed point of the
rounded iteration still differs from its own forcing by the rounding
error.  From the second sweep on, a run stops at the larger of tol and
that floor, FORCING_ROUNDING * ||Q_0|| * (1 + 1/dt + ndim/h), which
bounds the slab norm of the rounding error of a forcing of the first
sweep's space-time L2 norm ||Q_0||, with a margin of 2.
"""

import numpy as np

from . import fd, norms
from .norms import evaluate_nullform_series, slab_norm
from .errors import NaNError, NoConvergence, ParamError
from .exterior import InitialData, check_compatibility
from .nullforms import NullFormSpec
from .solver import cfl_limit, fit_decay, solve_linear, step_count

# Half the largest data norm verified to converge in the reference scan;
# picard_solve refuses louder data unless the caller overrides.
DEFAULT_SMALLNESS = 0.02

# twice float32's unit roundoff: the forcing's relative resolution with
# a margin of 2 (see the module docstring)
FORCING_ROUNDING = 2.0**-23


class IterationReport:
    """Residuals of a converged Picard run, all but the last above the
    stop level (tol > 0, or the forcing's floor; see picard_solve)."""

    def __init__(self, residuals):
        res = self.residuals = list(residuals)
        self.ratios = [b / a for a, b in zip(res, res[1:])]
        self.converged = True
        self.iterations = len(res)

    def __repr__(self):
        return ("IterationReport(converged=%s, iterations=%d, "
                "final_residual=%s)"
                % (self.converged, self.iterations,
                   "%.3e" % self.residuals[-1] if self.residuals else "n/a"))


class NonlinearSolution:
    """The converged sweep of a Picard run, as its observer reduced it.

    trajectory is the observed run: its first and last (u, v).
    sup_times and sup_values are the sup series.  tip_norms, l8_norm,
    energy_sup and local_linear are norms.CylinderNorms.values(), None
    unless it was solved with a time_stride.
    """

    def __init__(self, trajectory, spec, data, sweep):
        self.trajectory = trajectory
        self.spec = spec
        self.data = data
        # the snapshot times of the stride-1 run, dt * arange
        self.sup_times = trajectory.dt * np.arange(sweep.n)
        self.sup_values = sweep.sup
        self.tip_norms, self.l8_norm, self.energy_sup, self.local_linear = \
            sweep.cylinder.values() if sweep.cylinder else (None,) * 4
        self._boundary_max = sweep.boundary

    def boundary_max(self):
        """Largest |u| ever recorded on a Dirichlet node (zero by scheme)."""
        return self._boundary_max


class _Sweep:
    """Observer of one Picard sweep: solve_linear's observe(i, u, v).

    n and dt are the run's snapshot count and step.  A block is taken
    once the next row comes, as the solver has read its forcing rows by
    then, or at the last row.  The residual rows, Q less the forcing
    applied (if applied), go into the window res, whose ranges add their
    slab_sums to sq, and Q goes over the block's rows of forcing.
    """

    def __init__(self, data, spec, n, dt, time_stride, deltas, forcing,
                 applied):
        grid = self.grid = data.grid
        self.spec, self.n, self.dt = spec, n, dt
        shape = data.f.shape
        self.res = fd.SeriesWindow(n, dt, shape)
        # the block's rows of u and v, from row lo on, and its Q
        self.u, self.v, self.q_out = np.empty((3, self.res.block) + shape)
        self.work = np.empty((grid.ndim + 2, self.res.block) + shape)
        self.sq = np.empty((2 + grid.ndim, n))
        self.forcing, self.applied = forcing, applied
        self.sup = np.empty(n)
        # flat indices of the Dirichlet nodes in a row
        self.fixed = np.flatnonzero(np.broadcast_to(~grid.updated(), shape))
        self.lo, self.boundary = 0, 0.0
        self.cylinder = None if time_stride is None else \
            norms.CylinderNorms(grid, n, dt, time_stride, deltas)
        if self.cylinder and spec.n_components != 1:
            raise ParamError("forcing samples support scalar systems only")

    def __call__(self, m, u, v):
        k = m - self.lo
        if k == len(self.u):
            self._take(k)
            self.lo, k = m, 0
        self.u[k], self.v[k] = u, v
        if m == self.n - 1:
            self._take(k + 1)

    def _take(self, k):
        """Q, forcing, recorded rows and slab_sums of the block."""
        grid, dt, lo, hi = self.grid, self.dt, self.lo, self.lo + k
        u, u_t = self.u[:k], self.v[:k]
        self.sup[lo:hi] = np.abs(u, out=self.work[0, :k]).reshape(
            k, -1).max(axis=1)
        pinned = u.reshape(k, -1)[:, self.fixed]
        self.boundary = max(self.boundary,
                            float(np.abs(pinned).max(initial=0.0)))
        # rows as evaluate_nullform_series reads them
        lead = (k, self.spec.n_components) + grid.shape
        new = evaluate_nullform_series(
            grid, self.spec, u.reshape(lead), u_t.reshape(lead),
            self.q_out[:k].reshape(lead), self.work[:, :k]).reshape(u.shape)
        rows_f = self.forcing[lo:hi]
        done = self.res.put(lo, np.subtract(
            new, rows_f, out=self.work[-1, :k]) if self.applied else new)
        try:
            with np.errstate(over="raise"):
                rows_f[...] = new
        except FloatingPointError:
            big = ~(np.abs(new).reshape(k, -1).max(axis=1)
                    <= np.finfo(rows_f.dtype).max)
            raise NaNError("the null form at t=%g exceeds the range of the "
                           "float32 forcing" % (dt * (lo + np.argmax(big))))
        if self.cylinder:
            # evaluate_nullform_series left the rows' gradient in work[0];
            # q_out is free once the report has put Q
            self.cylinder.add_block(lo, u, u_t, self.work[0, :k], new,
                                    self.work, self.q_out)
        for a, b in done:
            self.sq[:, a:b] = norms.slab_sums(
                grid, *self.res.rows(a, b, self.q_out), self.work)


def snapshot_count(t_end, dt):
    """The snapshots of a Picard run of step dt to t_end, the first and
    one per step; fewer than the 3 of the time stencil are refused."""
    n = step_count(t_end, dt) + 1
    if n < 3:
        raise ParamError("the time stencil needs at least 3 snapshots, not "
                         "%d" % n)
    return n


def check_data(data: InitialData, spec: NullFormSpec):
    """ParamError unless data have spec's component count and meet
    order-1 compatibility, to 1e-9 of their own size: so one nonzero
    amplitude of a scaled family decides for every amplitude."""
    components = data.f.size // data.grid.n_nodes
    if components != spec.n_components:
        raise ParamError("data component count %d differs from the null "
                         "form's %d" % (components, spec.n_components))
    comp = check_compatibility(data, spec, 1)
    scale = max(np.max(np.abs(data.f)), np.max(np.abs(data.g)), 1e-30)
    if max(comp) > 1e-9 * scale:
        raise ParamError("data violates order-1 compatibility: "
                         "boundary residuals %r" % (comp,))


def picard_solve(data: InitialData, spec: NullFormSpec, t_end, dt=None,
                 tol=1e-8, max_iter=12, smallness_threshold=None,
                 time_stride=None, deltas=()):
    """Iterate linear solves with fed-back null-form forcing.

    The first iterate is the linear solution.  Returns
    (NonlinearSolution, IterationReport).  The residual is the slab norm
    of the forcing update between consecutive iterates; the run stops
    once it drops to tol.  The forcing is stored in float32, so from the
    second sweep on a tol below its resolution is met at the floor that
    rounding puts under the residual (see the module docstring).
    Raises NoConvergence when max_iter residuals were not enough.
    time_stride (radial grids and scalar systems only) makes the
    solution keep the cylinder norms of every time_stride-th snapshot,
    with the tip-weighted forcing norm at each of deltas, and the
    local-linear norm, which norms.estimate_ratio_report reads.
    """
    if tol <= 0:
        raise ParamError("tol must be positive")
    if max_iter < 1:
        raise ParamError("max_iter must be >= 1")
    grid = data.grid
    dt = cfl_limit(grid) if dt is None else dt
    n = snapshot_count(t_end, dt)
    check_data(data, spec)

    threshold = DEFAULT_SMALLNESS if smallness_threshold is None \
        else smallness_threshold
    dnorm = norms.data_smallness_norm(data)
    if not dnorm <= threshold:  # NaN too (see bump_data_family)
        raise ParamError("data norm %.3e exceeds smallness threshold %.3e"
                         % (dnorm, threshold))

    # one forcing array per run: each sweep writes over what it applies
    try:
        forcing = np.empty((n,) + data.f.shape, dtype=np.float32)
    except (MemoryError, ValueError):  # ValueError: past 2**63 bytes
        raise ParamError("cannot allocate the forcing of %d snapshots" % n)
    applied = None
    residuals = []
    floor = 0.0
    while True:
        sweep = _Sweep(data, spec, n, dt, time_stride, deltas, forcing,
                       applied is not None)
        traj = solve_linear(data, applied, t_end, dt=dt, stride=1,
                            observe=sweep)
        residuals.append(slab_norm(sweep.sq, dt))
        if residuals[-1] <= max(tol, floor):
            break
        if len(residuals) == max_iter:
            raise NoConvergence(max_iter, residuals)
        if applied is None:
            # sq[0] holds the first sweep's Q rows, so this is ||Q_0||
            floor = FORCING_ROUNDING * slab_norm(sweep.sq[:1], dt) * (
                1.0 + 1.0 / dt + grid.ndim / grid.h)
        # this sweep's other rows are freed before the next sweep runs
        applied, sweep, traj = forcing, None, None

    return NonlinearSolution(traj, spec, data, sweep), \
        IterationReport(residuals)


def check_amplitudes(eps_list):
    """eps_list as a list; ParamError unless finite, >= 0 and ascending."""
    eps_list = list(eps_list)
    if not all(0 <= e < np.inf for e in eps_list):
        raise ParamError("epsilon values must be finite and nonnegative")
    if any(b <= a for a, b in zip(eps_list, eps_list[1:])):
        raise ParamError("epsilon values must be ascending")
    return eps_list


def smallness_scan(data_family, spec: NullFormSpec, eps_list, t_end,
                   dt=None, tol=1e-8, max_iter=12, time_stride=None,
                   deltas=()):
    """Run picard_solve per epsilon; yield the convergence table rows.

    data_family maps epsilon to InitialData.  check_amplitudes refuses
    bad eps values at call time; the returned generator solves one entry
    per row it yields, one at a time, in epsilon order.  Failures are
    recorded, not raised.  A row's "solution" is freed once the caller
    drops the row, so a caller that keeps no row keeps one entry's run
    alive at a time.  time_stride and deltas go to picard_solve
    (norms.estimate_ratio_report reads the norms they keep).
    """
    eps_list = check_amplitudes(eps_list)

    def entry(eps):
        try:
            sol, rep = picard_solve(data_family(eps), spec, t_end, dt=dt,
                                    tol=tol, max_iter=max_iter,
                                    smallness_threshold=np.inf,
                                    time_stride=time_stride, deltas=deltas)
            res = rep.residuals
        except NoConvergence as exc:
            sol, res = None, exc.residuals
        # as in IterationReport: res[-2] > tol > 0 (or the floor)
        return {"eps": eps, "converged": sol is not None,
                "iterations": len(res), "final_residual": res[-1],
                "final_ratio": res[-1] / res[-2] if len(res) > 1 else None,
                "solution": sol}

    return (entry(eps) for eps in eps_list)


def measure_sup_decay(sol: NonlinearSolution, window=(5.0, 40.0)):
    """Power-law fit of the recorded sup norm over the window."""
    t, s = sol.sup_times, sol.sup_values
    keep = (t >= window[0]) & (t <= window[1])
    if not keep.any():
        raise ParamError("trajectory does not cover the fit window")
    return fit_decay((t[keep], s[keep]), "power")


def bump_data_family(grid, center=2.0, width=0.8, velocity="profile"):
    """Map epsilon to smooth compact bump data of that exact data norm.

    f carries the profile exp(-1/(1-s^2)) on |s| < 1 with
    s = (|x| - center)/width; g carries the same profile
    (velocity="profile") or vanishes (velocity="zero").  Both vanish
    inside the obstacle.  The scale is chosen so the combined smallness
    norm equals epsilon.
    """
    if velocity not in ("profile", "zero"):
        raise ParamError("velocity must be 'profile' or 'zero'")
    if width <= 0:
        raise ParamError("bump width must be positive")

    def profile(r):
        s = (np.asarray(r, dtype=float) - center) / width
        out = np.zeros_like(s)
        m = np.abs(s) < 1.0
        out[m] = np.exp(-1.0 / (1.0 - s[m] ** 2)) * np.e
        return out

    r = grid.radii()
    g = profile(r) if velocity == "profile" else np.zeros_like(r)
    base = InitialData(grid, grid.sample(profile(r)), grid.sample(g))
    # the weights (1 + |x|^2)^k overflow on grids that reach |x| ~ 1e38,
    # which the check below refuses
    with np.errstate(over="ignore", invalid="ignore"):
        n0 = norms.data_smallness_norm(base)
    if n0 == 0:
        raise ParamError("bump data vanish on every grid node")
    if not n0 < np.inf:
        raise ParamError("the bump data norm is %g on this grid" % n0)

    def family(eps):
        return base.scaled(eps / n0)

    return family
