"""Small-data nonlinear solutions by Picard iteration.

The nonlinear problem (wave equation with a null-form right side) is
solved as a fixed point: each iterate feeds the null form of the previous
trajectory back in as forcing for a linear solve.  Convergence is
monitored through the space-time norm of the forcing update, which is
the practical surrogate for the contraction distance.
"""

from collections import deque
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import fd, norms
from .norms import evaluate_nullform_series, slab_norm
from .errors import NoConvergence, ParamError
from .exterior import InitialData, check_compatibility
from .nullforms import NullFormSpec
from .solver import Trajectory, fit_decay, solve_linear

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
    """Converged trajectory with the null-form system and data behind it."""

    def __init__(self, trajectory, spec, data):
        self.trajectory = trajectory
        self.spec = spec
        self.data = data
        self.sup_times, self.sup_values = trajectory.sup_series()

    def boundary_max(self):
        """Largest |u| ever recorded on a Dirichlet node (zero by scheme)."""
        u = self.trajectory.u
        fixed = ~self.trajectory.grid.updated()
        return float(np.max(np.abs(u[..., fixed]), initial=0.0))


def forcing_from_trajectory(traj: Trajectory, spec: NullFormSpec):
    """Forcing snapshots Q in the grid's native representation."""
    F = np.empty(traj.u.shape)
    for rows in fd.row_blocks(len(F), F[0].size):
        q = traj.grid.from_physical(evaluate_nullform_series(traj, spec, rows))
        F[rows] = q.reshape((len(rows),) + F.shape[1:])
    return F


def picard_solve(data: InitialData, spec: NullFormSpec, t_end, dt=None,
                 tol=1e-8, max_iter=12, smallness_threshold=None):
    """Iterate linear solves with fed-back null-form forcing.

    The first iterate is the linear solution.  Returns
    (NonlinearSolution, IterationReport).  The residual is the slab norm
    of the forcing update between consecutive iterates; the run stops
    once it drops below tol.  Raises NoConvergence when max_iter
    residuals were not enough.
    """
    if tol <= 0:
        raise ParamError("tol must be positive")
    if max_iter < 1:
        raise ParamError("max_iter must be >= 1")
    grid = data.grid

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

    traj = solve_linear(data, None, t_end, dt=dt, stride=1)
    applied = None
    residuals = []
    while True:
        F = forcing_from_trajectory(traj, spec)
        residuals.append(slab_norm(grid, lambda r: grid.to_physical(
            F[r] if applied is None else F[r] - applied[r]),
            len(F), traj.snap_dt))
        if residuals[-1] <= tol:
            break
        if len(residuals) == max_iter:
            raise NoConvergence(max_iter, residuals)
        # solve only when another sweep follows, old run and forcing freed
        traj = applied = None
        traj = solve_linear(data, F, t_end, dt=dt, stride=1)
        applied = F

    ratios = [residuals[i + 1] / residuals[i]
              for i in range(len(residuals) - 1)
              if residuals[i] > 0]
    report = IterationReport(residuals, ratios, True, len(residuals))
    return NonlinearSolution(traj, spec, data), report


def smallness_scan(data_family, spec: NullFormSpec, eps_list, t_end,
                   dt=None, tol=1e-8, max_iter=12, threads=1):
    """Run picard_solve per epsilon; yield the convergence table rows.

    data_family maps epsilon to InitialData.  The eps values are checked
    here, at call time; the returned generator yields one row per
    epsilon, in epsilon order whatever threads is.  Failures are
    recorded, not raised.  A row's "solution" is freed once the caller
    drops the row, so a caller that keeps no row keeps one entry's run
    alive at a time; with threads = N at most N entries are in flight.
    """
    eps_list = list(eps_list)
    if any(e < 0 for e in eps_list):
        raise ParamError("epsilon values must be nonnegative")
    if any(b <= a for a, b in zip(eps_list, eps_list[1:])):
        raise ParamError("epsilon values must be ascending")

    def entry(eps):
        data = data_family(eps)
        try:
            sol, rep = picard_solve(data, spec, t_end, dt=dt, tol=tol,
                                    max_iter=max_iter,
                                    smallness_threshold=np.inf)
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
