"""Small-data nonlinear solutions by Picard iteration.

The nonlinear problem (wave equation with a null-form right side) is
solved as a fixed point: each iterate feeds the null form of the previous
one back in as forcing for a linear solve.  Convergence is monitored
through the space-time norm of the forcing update, which is the
practical surrogate for the contraction distance.

Every sweep is a solve_linear run, which keeps only its first and last
state.  Its observer (_Sweep) copies the rows of u and of the solver's
v, which is u_t, into a block of about fd.BLOCK_VALUES values, and takes
a full block when the next row comes, the last at the last row: the
block's Q, and on the way what the callers read: the sup series, the
boundary max, the residual's slab_sums, and with a time_stride the
cylinder norms and the slab_sums of the local-linear window.  The
residual and Q have time derivatives over the whole run (fd.d1_rows:
centred inside, fd.d1 of the first or last three rows at the ends), each
over its own series.  A run holds one forcing array, in float32: the
solver has read a block's rows of it (see nullwave.solver), so the
observer takes their residual against them and writes its Q over them
for the next sweep.  Q, the residual and its sums stay float64; only the
write to the forcing rounds.  Each sweep owns a workspace of block rows,
for u, v, Q and the gradient rows and products (work) of the null form
and then of the slab_sums, so the observer allocates no row per block.

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
    sup_times and sup_values are the sup series.  The cylinder norms
    (norms.CylinderNorms: tip_norms at delta 0 and at each of the run's
    deltas, l8_norm, energy_sup) and local_linear (the slab norm of Q
    over norms.LOCAL_LINEAR_WINDOW) are None unless it was solved with a
    time_stride.
    """

    def __init__(self, trajectory, spec, data, sweep):
        self.trajectory = trajectory
        self.spec = spec
        self.data = data
        # the snapshot times of the stride-1 run, dt * arange
        self.sup_times = trajectory.dt * np.arange(sweep.n)
        self.sup_values = sweep.sup
        self.local_linear = None if sweep.local_sq is None \
            else slab_norm(sweep.local_sq, trajectory.dt)
        self.tip_norms, self.l8_norm, self.energy_sup = \
            sweep.cylinder.values() if sweep.cylinder else (None,) * 3
        self._boundary_max = sweep.boundary

    def boundary_max(self):
        """Largest |u| ever recorded on a Dirichlet node (zero by scheme)."""
        return self._boundary_max


class _Rows:
    """The last rows of an n-row series, in order, for fd.d1_rows.

    put(lo, rows) stores rows lo, lo + 1, ... and returns, as ranges
    (a, b) of at most block rows, the rows whose whole stencil it now
    holds (through n once the last row is in); read(a, b) gives rows a
    to b - 1 as a slice.  A full buffer slides the rows still to be read
    (at most three) to its front, in place: buf is one array for the
    window's whole life.
    """

    def __init__(self, n, block, shape):
        self.n, self.block = n, block
        # row base + i of the series is in buf[i]
        self.buf = np.empty((block + 3,) + shape)
        self.base = self.done = 0

    def put(self, lo, rows):
        buf, m, n = self.buf, lo + len(rows) - 1, self.n
        if m - self.base >= len(buf):
            keep = max(min(self.done - 1, n - 3), 0)
            buf[:lo - keep] = buf[keep - self.base:lo - self.base]
            self.base = keep
        buf[lo - self.base:m + 1 - self.base] = rows
        # the rows whose stencil rows 0, ..., m hold
        end = n if m == n - 1 else m if m >= 2 else 0
        first, self.done = self.done, end
        return [(a, min(a + self.block, end))
                for a in range(first, end, self.block)]

    def read(self, a, b):
        return self.buf[a - self.base:b - self.base]


class _Sweep:
    """Observer of one Picard sweep: solve_linear's observe(i, u, v).

    n and dt are the run's snapshot count and step.  Rows of u and of v
    (which is u_t) fill a block, taken when the next row comes, as the
    solver has read its forcing rows by then, or at the last row: its Q,
    sup series and boundary max.  The residual rows, Q less the forcing
    applied (if applied), go into a _Rows, whose ranges add their
    slab_sums to sq; then Q goes over the block's rows of forcing.  With
    time_stride, the cylinder norms take a sampled row's solution with
    its block and its forcing once a second _Rows, of Q, gives its Q_t;
    that _Rows adds the local-linear window's slab_sums to local_sq.
    """

    def __init__(self, data, spec, n, dt, time_stride, deltas, forcing,
                 applied):
        grid = self.grid = data.grid
        self.spec, self.n, self.dt = spec, n, dt
        shape = data.f.shape
        # a row as evaluate_nullform_series reads it, less the row axis
        self.comp = (spec.n_components,) + grid.shape
        block = min(n, max(1, fd.BLOCK_VALUES // data.f.size))
        self.res = _Rows(n, block, shape)
        # the block's rows of u and v, from row lo on, and its Q
        self.u, self.v, self.q_out = np.empty((3, block) + shape)
        self.work = np.empty((grid.ndim + 2, block) + shape)
        self.sq = np.empty((2 + grid.ndim, n))
        self.forcing, self.applied = forcing, applied
        self.sup = np.empty(n)
        # flat indices of the Dirichlet nodes in a row
        self.fixed = np.flatnonzero(np.broadcast_to(~grid.updated(), shape))
        self.lo, self.boundary = 0, 0.0
        self.stride = time_stride
        self.cylinder = self.local_sq = None
        if time_stride is None:
            return
        if spec.n_components != 1:
            raise ParamError("forcing samples support scalar systems only")
        self.cylinder = norms.CylinderNorms(grid, n, dt, time_stride, deltas)
        self.q = _Rows(n, block, shape)
        self.local_sq = np.empty((len(self.sq),
                                  norms.local_linear_rows(n, dt)))

    def __call__(self, m, u, v):
        k = m - self.lo
        if k == len(self.u):
            self._sums(self.res, self.sq, self._take(k))
            self.lo, k = m, 0
        self.u[k], self.v[k] = u, v
        if m == self.n - 1:
            self._sums(self.res, self.sq, self._take(k + 1))

    def _take(self, k):
        """Q, forcing and recorded rows of the block; the residual's put."""
        grid, n, dt, lo, hi = self.grid, self.n, self.dt, self.lo, self.lo + k
        u, u_t = self.u[:k], self.v[:k]
        self.sup[lo:hi] = np.abs(u, out=self.work[0, :k]).reshape(
            k, -1).max(axis=1)
        pinned = u.reshape(k, -1)[:, self.fixed]
        self.boundary = max(self.boundary,
                            float(np.abs(pinned).max(initial=0.0)))
        lead = (k,) + self.comp
        q = evaluate_nullform_series(
            grid, self.spec, u.reshape(lead), u_t.reshape(lead),
            self.q_out[:k].reshape(lead), self.work[:, :k])
        new = q.reshape(u.shape)
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
        if self.stride is None:
            return done
        cyl, stride, row = self.cylinder, self.stride, self.comp[1:]
        # evaluate_nullform_series left the rows' gradient in work[0]
        sampled = (u, u_t, self.work[0])
        ready = self.q.put(lo, new)
        # a sampled row's forcing follows its solution at once if its Q_t
        # is in, so at most two frames wait for their Q_t at a time
        for a, b in ready:
            for i in range(a + -a % stride, b, stride):
                if i >= lo:
                    cyl.solution(i, *(x[i - lo].reshape(row)
                                      for x in sampled))
                Q, Q_t = fd.d1_rows(self.q.read, i, i + 1, n, dt)
                cyl.forcing(i, Q.reshape(row), Q_t.reshape(row))
        a = max(lo, self.q.done)
        for i in range(a + -a % stride, hi, stride):
            cyl.solution(i, *(x[i - lo].reshape(row) for x in sampled))
        self._sums(self.q, self.local_sq, ready)
        return done

    def _sums(self, rows, out, ranges):
        """The slab_sums of the ranges (a, b) of a _Rows series, as far as
        out reaches, into out; d1_rows writes into q_out, done with Q."""
        for a, b in ranges:
            b = min(b, out.shape[1])
            if a < b:
                out[:, a:b] = norms.slab_sums(self.grid, *fd.d1_rows(
                    rows.read, a, b, self.n, self.dt, self.q_out[:b - a]),
                    self.work[:, :b - a])


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
