"""Small-data nonlinear solutions by Picard iteration.

The nonlinear problem (wave equation with a null-form right side) is
solved as a fixed point: each iterate feeds the null form of the previous
one back in as forcing for a linear solve.  Convergence is monitored
through the space-time norm of the forcing update, which is the
practical surrogate for the contraction distance.

Every sweep is an observed solve_linear run, so no sweep stores its u
stack.  Its observer (_Sweep) keeps the last few rows of u, a block of
about fd.BLOCK_VALUES values and the rows its time stencil reaches past
it, and works a block behind the solver: it takes the block's Q with
the time derivative of the whole run (fd.d1_rows: centred inside, fd.d1
of the first or last three rows at the ends), and reduces on the way
what the callers read: the sup series, the boundary max, the residual's
slab_sums, and with a time_stride the sample-frame rows and the Q rows
of the local-linear window.  A run holds one forcing array: the solver
has read a block's rows of it (see nullwave.solver), so the observer
takes their residual and writes its Q over them for the next sweep.
"""

from collections import deque
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import fd, norms
from .norms import LOCAL_LINEAR_WINDOW, evaluate_nullform_series, slab_norm
from .errors import NoConvergence, ParamError
from .exterior import InitialData, check_compatibility
from .nullforms import NullFormSpec
from .solver import cfl_limit, fit_decay, solve_linear, step_count

# Half the largest data norm verified to converge in the reference scan;
# picard_solve refuses louder data unless the caller overrides.
DEFAULT_SMALLNESS = 0.02


class IterationReport:
    """Residual history of one Picard run."""

    def __init__(self, residuals, ratios, converged, iterations):
        self.residuals = list(residuals)
        self.ratios = list(ratios)
        self.converged = bool(converged)
        self.iterations = int(iterations)

    def __repr__(self):
        return ("IterationReport(converged=%s, iterations=%d, "
                "final_residual=%s)"
                % (self.converged, self.iterations,
                   "%.3e" % self.residuals[-1] if self.residuals else "n/a"))


class NonlinearSolution:
    """The converged sweep of a Picard run, as its observer reduced it.

    trajectory is the observed run: its first and last (u, v).
    sup_times and sup_values are the physical sup series.  samples (the
    sample-frame rows: snapshot times "t" and physical "u", "u_t",
    "u_r", "Q", "Q_t" at every time_stride-th snapshot) and window (the
    physical Q rows of LOCAL_LINEAR_WINDOW) are None unless the run was
    solved with a time_stride.
    """

    def __init__(self, trajectory, spec, data, sweep):
        self.trajectory = trajectory
        self.spec = spec
        self.data = data
        # the stored run's snapshot times, dt * stride * arange
        self.sup_times = trajectory.dt * np.arange(sweep.n)
        self.sup_values = sweep.sup
        self.samples = sweep.samples
        self.window = sweep.window
        self._boundary_max = sweep.boundary

    def boundary_max(self):
        """Largest |u| ever recorded on a Dirichlet node (zero by scheme)."""
        return self._boundary_max


class _Rows:
    """The last rows of an n-row series, in order, for fd.d1_rows.

    put(lo, rows) stores rows lo, lo + 1, ...; once least rows (or the
    last rows) have their whole stencil stored, it returns them as index
    arrays of at most block rows, and read(rows) gives them as a slice.
    """

    def __init__(self, n, block, shape, least=1):
        self.n, self.block, self.least = n, block, least
        # row base + i of the series is in buf[i]
        self.buf = np.empty((block + 3,) + shape)
        self.base = self.done = 0

    def put(self, lo, rows):
        buf, m, n = self.buf, lo + len(rows) - 1, self.n
        if m - self.base >= len(buf):
            # to a fresh buffer: sliding in place lets glibc trim the heap,
            # and perfbench's ellipsoid faulted 240k pages in sweep 1, not 45k
            keep = max(min(self.done - 1, n - 3), 0)
            old, buf = buf, np.empty_like(buf)
            buf[:lo - keep] = old[keep - self.base:lo - self.base]
            self.buf, self.base = buf, keep
        buf[lo - self.base:m + 1 - self.base] = rows
        # the rows whose stencil rows 0, ..., m hold
        end = n if m == n - 1 else m if m >= 2 else 0
        if end - self.done < self.least and end < n:
            return []
        first, self.done = self.done, end
        return [np.arange(a, min(a + self.block, end))
                for a in range(first, end, self.block)]

    def read(self, rows):
        return self.buf[rows[0] - self.base:rows[-1] + 1 - self.base]


class _Sweep:
    """Observer of one Picard sweep: solve_linear's observe(i, u, v).

    n and dt are the run's snapshot count and step.  Rows of u go into a
    _Rows buffer, and a block with its whole stencil there gets u_t
    (fd.d1_rows) and Q.  The residual rows, Q less the forcing applied
    (if applied), go into a second _Rows, whose blocks add their
    slab_sums to sq; then Q goes over the block's rows of forcing.  The
    sup series and the boundary max are reduced a block at a time too.
    With time_stride, a third _Rows of Q rows gives Q_t at the samples.
    """

    def __init__(self, data, spec, n, dt, time_stride, forcing, applied):
        grid = self.grid = data.grid
        self.spec, self.n, self.dt = spec, n, dt
        shape = data.f.shape
        # a row as evaluate_nullform_series reads it, less the row axis
        self.comp = (spec.n_components,) + grid.zeros().shape
        block = min(n, max(1, fd.BLOCK_VALUES // data.f.size))
        self.u = _Rows(n, block, shape, block)
        self.res = _Rows(n, block, shape)
        self.sq = np.empty((2 + grid.ndim, n))
        self.forcing, self.applied = forcing, applied
        self.sup = np.empty(n)
        # flat indices of the Dirichlet nodes in a row
        self.fixed = np.flatnonzero(np.broadcast_to(~grid.updated(), shape))
        self.boundary = 0.0
        self.stride = time_stride
        self.samples = self.window = None
        if time_stride is None:
            return
        t = dt * np.arange(n)
        self.samples = {"t": t[::time_stride]}
        for name in ("u", "u_t", "u_r", "Q", "Q_t"):
            self.samples[name] = np.empty((len(self.samples["t"]),) + shape)
        self.q = _Rows(n, block, grid.zeros().shape)
        self.i0, i1 = norms.window_rows(t, LOCAL_LINEAR_WINDOW)
        if i1 - self.i0 < 3:
            raise ParamError("the local-linear window holds fewer than 3 "
                             "snapshots")
        self.window = np.empty((i1 - self.i0,) + self.comp)

    def __call__(self, m, u, v):
        for rows in self.u.put(m, u[None]):
            # the residual rows, once the block's other rows are freed
            for res in self._take(rows):
                self.sq[:, res] = norms.slab_sums(self.grid, *fd.d1_rows(
                    self.res.read, res, self.n, self.dt))

    def _take(self, rows):
        """Q, forcing and recorded rows of rows; returns the residual's put."""
        grid, n, dt = self.grid, self.n, self.dt
        # rows, and the rows their stencils read, are consecutive
        u, u_t = fd.d1_rows(lambda r: grid.to_physical(self.u.read(r)),
                            rows, n, dt)
        native = self.u.read(rows)
        self.sup[rows] = np.abs(u).reshape(len(rows), -1).max(axis=1)
        pinned = native.reshape(len(rows), -1)[:, self.fixed]
        self.boundary = max(self.boundary,
                            float(np.abs(pinned).max(initial=0.0)))
        lead = (len(rows),) + self.comp
        q = evaluate_nullform_series(grid, self.spec, native.reshape(lead),
                                     u_t.reshape(lead))
        new = grid.from_physical(q).reshape(native.shape)
        rows_f = self.forcing[rows[0]:rows[-1] + 1]
        done = self.res.put(rows[0], grid.to_physical(
            new - rows_f if self.applied else new))
        rows_f[...] = new
        if self.stride is None:
            return done
        s, stride, i0 = self.samples, self.stride, self.i0
        win = rows[(rows >= i0) & (rows < i0 + len(self.window))]
        self.window[win - i0] = q[win - rows[0]]
        hit = rows % stride == 0
        at = rows[hit] // stride
        s["u"][at] = u[hit]
        s["u_t"][at] = u_t[hit]
        (s["u_r"][at],) = grid.native_gradient(native[hit])
        s["Q"][at] = q[hit, 0]
        for block in self.q.put(rows[0], q[:, 0]):
            hit = block % stride == 0
            s["Q_t"][block[hit] // stride] = fd.d1_rows(
                self.q.read, block, n, dt)[1][hit]
        return done


def picard_solve(data: InitialData, spec: NullFormSpec, t_end, dt=None,
                 tol=1e-8, max_iter=12, smallness_threshold=None,
                 time_stride=None):
    """Iterate linear solves with fed-back null-form forcing.

    The first iterate is the linear solution.  Returns
    (NonlinearSolution, IterationReport).  The residual is the slab norm
    of the forcing update between consecutive iterates; the run stops
    once it drops below tol.  Raises NoConvergence when max_iter
    residuals were not enough.  time_stride (radial grids and scalar
    systems only) makes the solution keep the sample-frame rows of every
    time_stride-th snapshot and the local-linear window, which
    norms.estimate_ratio_report reads.
    """
    if tol <= 0:
        raise ParamError("tol must be positive")
    if max_iter < 1:
        raise ParamError("max_iter must be >= 1")
    grid = data.grid
    dt = cfl_limit(grid) if dt is None else dt
    n = step_count(t_end, dt) + 1
    if n < 3:
        raise ParamError("the time stencil needs at least 3 snapshots")
    if time_stride is not None:
        if grid.kind != "radial":
            raise ParamError("cylinder sampling supports radial grids")
        if spec.n_components != 1:
            raise ParamError("forcing samples support scalar systems only")
        if time_stride < 1:
            raise ParamError("time_stride must be >= 1")
        if len(range(0, n, time_stride)) < 3:
            raise ParamError("need at least 3 sampled snapshots")

    comp = check_compatibility(data, spec, 1)
    scale = max(np.max(np.abs(data.f)), np.max(np.abs(data.g)), 1e-30)
    if max(comp) > 1e-9 * scale:
        raise ParamError("data violates order-1 compatibility: "
                         "boundary residuals %r" % (comp,))

    threshold = DEFAULT_SMALLNESS if smallness_threshold is None \
        else smallness_threshold
    dnorm = norms.data_smallness_norm(data)
    if dnorm > threshold:
        raise ParamError("data norm %.3e exceeds smallness threshold %.3e"
                         % (dnorm, threshold))

    # one forcing array per run: each sweep writes over what it applies
    forcing = np.empty((n,) + data.f.shape)
    applied = None
    residuals = []
    while True:
        sweep = _Sweep(data, spec, n, dt, time_stride, forcing,
                       applied is not None)
        traj = solve_linear(data, applied, t_end, dt=dt, stride=1,
                            observe=sweep)
        residuals.append(slab_norm(grid, sweep.sq, n, dt))
        if residuals[-1] <= tol:
            break
        if len(residuals) == max_iter:
            raise NoConvergence(max_iter, residuals)
        # this sweep's other rows are freed before the next sweep runs
        applied, sweep, traj = forcing, None, None

    ratios = [residuals[i + 1] / residuals[i]
              for i in range(len(residuals) - 1)
              if residuals[i] > 0]
    report = IterationReport(residuals, ratios, True, len(residuals))
    return NonlinearSolution(traj, spec, data, sweep), report


def smallness_scan(data_family, spec: NullFormSpec, eps_list, t_end,
                   dt=None, tol=1e-8, max_iter=12, threads=1,
                   time_stride=None):
    """Run picard_solve per epsilon; yield the convergence table rows.

    data_family maps epsilon to InitialData.  The eps values are checked
    here, at call time; the returned generator yields one row per
    epsilon, in epsilon order whatever threads is.  Failures are
    recorded, not raised.  A row's "solution" is freed once the caller
    drops the row, so a caller that keeps no row keeps one entry's run
    alive at a time; with threads = N at most N entries are in flight.
    time_stride goes to picard_solve (norms.estimate_ratio_report reads
    the rows it keeps).
    """
    eps_list = list(eps_list)
    if not all(0 <= e < np.inf for e in eps_list):
        raise ParamError("epsilon values must be finite and nonnegative")
    if any(b <= a for a, b in zip(eps_list, eps_list[1:])):
        raise ParamError("epsilon values must be ascending")

    def entry(eps):
        data = data_family(eps)
        try:
            sol, rep = picard_solve(data, spec, t_end, dt=dt, tol=tol,
                                    max_iter=max_iter,
                                    smallness_threshold=np.inf,
                                    time_stride=time_stride)
            return {"eps": eps, "converged": True,
                    "iterations": rep.iterations,
                    "final_residual": rep.residuals[-1] if rep.residuals
                    else 0.0,
                    "final_ratio": rep.ratios[-1] if rep.ratios else None,
                    "solution": sol}
        except NoConvergence as exc:
            ratio = None
            if len(exc.residuals) >= 2 and exc.residuals[-2] > 0:
                ratio = exc.residuals[-1] / exc.residuals[-2]
            return {"eps": eps, "converged": False,
                    "iterations": exc.iterations,
                    "final_residual": exc.residuals[-1] if exc.residuals
                    else None,
                    "final_ratio": ratio,
                    "solution": None}

    if threads > 1:
        return _windowed(entry, eps_list, threads)
    return (entry(eps) for eps in eps_list)


def _windowed(entry, eps_list, threads):
    """entry over eps_list on a pool, at most threads entries in flight.

    Rows are yielded oldest first, in eps_list order; no name stays bound
    to a yielded row, so its run is freed when the caller drops it.
    """
    with ThreadPoolExecutor(max_workers=threads) as pool:
        window = deque()
        for eps in eps_list:
            window.append(pool.submit(entry, eps))
            if len(window) == threads:
                yield window.popleft().result()
        while window:
            yield window.popleft().result()


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
    n0 = norms.data_smallness_norm(base)
    if n0 == 0:
        raise ParamError("bump data vanish on every grid node")

    def family(eps):
        return base.scaled(eps / n0)

    return family
