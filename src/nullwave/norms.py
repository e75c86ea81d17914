"""Discrete norms used by the decay and existence estimates.

Weighted Sobolev data norms, space-time null-form norms, and the
tip-weighted cylinder norms, all by quadrature on the solver grids.
Cylinder quantities are never computed on a sphere mesh: Minkowski
quadrature is pushed forward through the compactification, with the
volume element picking up a factor of the fourth power of the conformal
factor.

Each run is pulled back once, and the sample frame is the only way
onto the cylinder: one frame (the sample times, their image and tip
distance, the conformal factor and its gradient, the quadrature
weight) pulls back the solution and the forcing as fields
(val, g0, gb), and delta_sweep (the tip-weighted norm), l8_norm and
the frame's weighted energy sup read a frame with one such field.  The
frame reads the rows a Picard sweep recorded while it ran (the samples
of a NonlinearSolution), and the local-linear norm reads the Q rows of
its window; a run keeps no u stack (see nullwave.solver).

Every time derivative is taken at the solver step, never across the
sampling stride.  A slab norm is formed from the per-row slab_sums of
its whole series: a Picard sweep adds them a block of rows at a time,
and the local-linear norm takes them of its window in one call.
"""

import numpy as np

from . import fd, penrose
from .errors import DomainError, OrderError, ParamError
from .nullforms import NullFormSpec, accumulate_system


# ---------------------------------------------------------------------------
# data-space norms

def weighted_sobolev_norm(field, m, j, grid):
    """Weighted Sobolev norm with weight (1 + |x|^2)^(|alpha| + j).

    field holds physical values (components may be stacked in leading
    axes).  The second-order block is the Hessian Frobenius norm, which
    for radial fields is f''^2 + 2 (f'/r)^2.
    """
    if m < 0 or m > 2:
        raise OrderError("only orders m <= 2 are supported")
    f = np.asarray(field, dtype=float)
    gshape = grid.zeros().shape
    f = f.reshape((-1,) + gshape)

    r = grid.radii()
    W = 1.0 + r * r
    acc = np.sum(f * f, axis=0) * W**j
    if m >= 1:
        grads = grid.gradient(f)
        acc += np.sum(sum(g * g for g in grads), axis=0) * W**(1 + j)
    if m >= 2:
        acc += np.sum(grid.hessian_sq(f, grads), axis=0) * W**(2 + j)
    return float(np.sqrt(np.sum(acc * grid.weights())))


def data_smallness_norm(data):
    """The combined data size the small-data theory is phrased in."""
    grid = data.grid
    f = grid.to_physical(data.f)
    g = grid.to_physical(data.g)
    return weighted_sobolev_norm(f, 2, 1, grid) \
        + weighted_sobolev_norm(g, 1, 2, grid)


def scale_to_data_norm(data, target):
    """Rescale data so its smallness norm equals target; returns (data, old)."""
    n = data_smallness_norm(data)
    if n == 0:
        raise ParamError("cannot rescale zero data")
    if not n < np.inf:  # the weights overflow on grids reaching |x| ~ 1e38
        raise ParamError("the data norm is %g on this grid" % n)
    return data.scaled(target / n), n


def sphere_sobolev_norm(grid, field, order):
    """Sobolev surrogate on the compactified t = 0 slice (radial grids).

    The slice maps to the 3-sphere with polar angle R = 2 arctan r; a
    radial field becomes zonal, and the norm is built from d/dR and the
    zonal Laplacian F_RR + 2 cot(R) F_R with measure 4 pi sin^2 R dR.
    """
    if grid.kind != "radial":
        raise ParamError("sphere surrogate needs a radial grid")
    if order < 0 or order > 2:
        raise OrderError("only orders <= 2 are supported")
    F = np.asarray(field, dtype=float)
    r = grid.r
    # exact slice values: sin R = 2r/(1+r^2), cos R = (1-r^2)/(1+r^2)
    sinR = 2.0 * r / (1.0 + r * r)
    cosR = (1.0 - r * r) / (1.0 + r * r)
    dR_dr = 2.0 / (1.0 + r * r)

    Fr = fd.d1(F, grid.h, axis=-1)
    FR = Fr / dR_dr
    acc = F * F
    if order >= 1:
        acc = acc + FR * FR
    if order >= 2:
        FRR = fd.d1(FR, grid.h, axis=-1) / dR_dr
        lap = FRR + 2.0 * (cosR / sinR) * FR
        acc = acc + lap * lap
    wq = fd.trapezoid(grid.h, grid.n_nodes) * dR_dr
    return float(np.sqrt(np.sum(acc * sinR**2 * wq) * 4.0 * np.pi))


# ---------------------------------------------------------------------------
# null forms and space-time norms of snapshot series

def evaluate_nullform_series(grid, spec: NullFormSpec, u, u_t, out=None,
                             work=None):
    """Physical Q(du, du) of snapshot rows.

    u holds native rows and u_t their physical time derivatives, both of
    shape (rows, n_components) + grid shape, and so does the result
    (into out if given).  The gradient rows and two products go into the
    grid.ndim + 2 C-contiguous arrays of u's size of work, or new ones.
    On radial grids only q0 survives: rotational forms of radial fields
    vanish identically.
    """
    if u.shape[1] != spec.n_components:
        raise ParamError("trajectory component count does not match spec")
    *grads, s, p = np.empty((grid.ndim + 2,) + u.shape) if work is None \
        else [a.reshape(u.shape) for a in work]
    du = (u_t,) + grid.native_gradient(u, grads)
    per_comp = [[d[:, j] for d in du] for j in range(spec.n_components)]
    out = np.empty(du[0].shape) if out is None else out
    out.fill(0.0)
    accumulate_system(spec, per_comp, per_comp, out.swapaxes(0, 1),
                      (s[:, 0], p[:, 0]))
    return out


def slab_norm(sq, dt_snap):
    """Sum over |alpha| <= 1 of space-time L2 norms of a snapshot series.

    sq is the slab_sums of all the series' snapshots, taken as they came.
    The measure is 4 pi r^2 dr dt (radial) or dx dt.
    """
    tw = fd.trapezoid(dt_snap, sq.shape[1])
    return float(sum(np.sqrt(np.sum(s * tw)) for s in sq))


def slab_sums(grid, val, val_t, work=None):
    """slab_norm's spatial sums of rows val, of d/dt val_t and of grad val;
    work as in evaluate_nullform_series (one product is used)."""
    vol = grid.weights()
    space = tuple(range(-grid.ndim, 0))
    *grads, t, _ = np.empty((grid.ndim + 2,) + val.shape) if work is None \
        else [a.reshape(val.shape) for a in work]
    sq = np.empty((2 + grid.ndim, len(val)))
    for k, d in enumerate((val, val_t) + grid.gradient(val, grads)):
        t = np.multiply(d, d, out=t)
        t *= vol
        sq[k] = np.sum(t, axis=space).reshape(len(val), -1).sum(axis=1)
    return sq


def window_rows(times, window):
    """(i0, i1) such that times[i0:i1] are the snapshot times in window.

    window must be increasing and lie inside [times[0], times[-1]].
    """
    t0, t1 = float(window[0]), float(window[1])
    if t0 >= t1:
        raise ParamError("window must be increasing")
    if t0 < times[0] - 1e-12 or t1 > times[-1] + 1e-12:
        raise ParamError("window outside trajectory times")
    i0 = int(np.searchsorted(times, t0 - 1e-12))
    i1 = int(np.searchsorted(times, t1 + 1e-12, side="right"))
    return i0, i1


# ---------------------------------------------------------------------------
# the cylinder sample frame and tip-weighted norms

class _SampleFrame:
    """The compactified sample frame of a radial run, built once.

    The sample times t, their image (T, R) and tip distance, the
    conformal factor and its gradient, and the pulled-back quadrature
    weight; every cylinder quantity reads them.  Arrays have shape
    (sampled snapshots, radial nodes).  The frame holds no field:
    solution and forcing pull back the rows a Picard sweep recorded at
    these times (NonlinearSolution.samples).
    """

    def __init__(self, grid, t):
        if grid.kind != "radial":
            raise ParamError("cylinder sampling supports radial grids")
        if len(t) < 3:
            raise ParamError("need at least 3 sampled snapshots")
        self.grid = grid
        t = self.t = np.asarray(t, dtype=float)[:, None]
        self.T, self.R = penrose.forward_tr(t, grid.r)
        if np.any(self.R + np.abs(self.T) >= np.pi):
            raise DomainError("samples outside the compactified diamond")
        self.dist2 = (np.pi - self.T) ** 2 + self.R * self.R
        self.dist = np.sqrt(self.dist2)
        self.conf = penrose.conformal_factor_tr(t, grid.r)
        self.dconf_dt, self.dconf_dr = penrose.conformal_gradient_tr(t, grid.r)
        wt = fd.trapezoid(t[1, 0] - t[0, 0], len(t))[:, None]
        self.weight = self.conf**4 * grid.weights()[None, :] * wt

    def pull(self, q, q_t, q_r, power):
        """Cylinder field val = conf**power * q of a radial q, with (g0, gb).

        g0 is the time-rotation derivative of val; the three boost
        derivatives point along the radial direction with the shared
        magnitude gb, and rotational derivatives vanish.
        """
        t, r = self.t, self.grid.r
        scale = self.conf**power
        dscale = power * self.conf**(power - 1)
        val_t = dscale * self.dconf_dt * q + scale * q_t
        val_r = dscale * self.dconf_dr * q + scale * q_r
        g0 = 0.5 * (1.0 + t * t + r * r) * val_t + t * r * val_r
        gb = (0.5 * (1.0 + t * t - r * r) * val_r + t * r * val_t
              + r * r * val_r)
        return scale * q, g0, gb

    def solution(self, samples):
        """(val, g0, gb) of the cylinder field conf * u of recorded rows."""
        return self.pull(samples["u"], samples["u_t"], samples["u_r"], 1)

    def forcing(self, samples):
        """(val, g0, gb) of the cylinder field conf^-3 * Q of recorded rows."""
        Q = samples["Q"]
        return self.pull(Q, samples["Q_t"], fd.d1(Q, self.grid.h, axis=-1),
                         -3)

    def energy_sup(self, val, g0, gb):
        """Sup over sampled times of the tip-weighted slice norm of val."""
        dens = val * val + self.dist2**2 * (g0 * g0 + gb * gb)
        # slice measure: conf^3 dx on each sampled instant
        slice_sq = np.sum(dens * self.conf**3 * self.grid.weights(), axis=1)
        return float(np.sqrt(np.max(slice_sq)))


def l8_norm(frame, val):
    """Eighth power norm of the value val of a field pulled back by frame."""
    val = np.abs(val)
    m = np.max(val, initial=0.0)
    if m == 0.0:
        return 0.0
    # normalize before the eighth power to keep the sum in range
    return float(m * np.sum((val / m) ** 8 * frame.weight) ** 0.125)


def delta_sweep(frame, field, deltas):
    """Tip-weighted norms of a pulled-back field (val, g0, gb) of frame.

    The quadratic sum of the field and its first derivatives along the
    canonical cylinder fields, the derivative block carrying the weight
    dist^4 (squared dist^2), over the samples with dist > delta, for
    each delta; one density serves them all.
    """
    if any(d < 0 for d in deltas):
        raise ParamError("delta must be nonnegative")
    val, g0, gb = field
    dens = (val * val + frame.dist**4 * (g0**2 + gb**2)) * frame.weight
    return [float(np.sqrt(np.sum(dens[frame.dist > d]))) for d in deltas]


# ---------------------------------------------------------------------------
# estimate diagnostics

class NormReport:
    """Named nonnegative norm values plus run metadata."""

    def __init__(self, values, metadata=None):
        for k, v in values.items():
            if not np.isfinite(v) or v < 0:
                raise ParamError("norm %r must be finite and >= 0" % (k,))
        self.values = dict(values)
        self.metadata = dict(metadata or {})

    def __getitem__(self, key):
        return self.values[key]

    def __repr__(self):
        body = ", ".join("%s=%.3e" % kv for kv in sorted(self.values.items()))
        return "NormReport(%s)" % body


RATIO_NAMES = ("ratio_local_linear", "ratio_null_cylinder",
               "ratio_weighted_energy", "ratio_sup_decay")

LOCAL_LINEAR_WINDOW = (0.0, 1.0)


def estimate_ratio_report(rows, sup_window=(5.0, 40.0), deltas=()):
    """LHS/RHS surrogate ratios for the four estimates, one report per run.

    rows are smallness_scan rows (dicts carrying "solution" and "eps")
    of a scan run with a time_stride, so that each solution carries its
    sample rows and its local-linear window.  They are read one at a
    time and no row is held once its report is made, so each solution of
    a streamed scan is freed after its report, before the next entry is
    solved.  Rows without a converged solution, and zero-data rows, are
    skipped.  Each report's metadata carries eps, sup_window, t_end and,
    under "delta_sweep", the delta_sweep values of its pulled-back
    forcing at deltas; no report keeps its frame.
    """
    return [rep for rep in map(
        lambda row: _ratio_report(row, sup_window, deltas), rows)
        if rep is not None]


def _ratio_report(row, sup_window, deltas):
    """The NormReport of one scan row, or None when it has nothing to show."""
    sol = row["solution"]
    if sol is None:
        return None
    traj, data = sol.trajectory, sol.data
    grid = traj.grid
    f = grid.to_physical(data.f)
    g = grid.to_physical(data.g)
    if np.max(np.abs(f)) == 0 and np.max(np.abs(g)) == 0:
        return None
    samples = sol.samples
    if samples is None:
        raise ParamError("the solution keeps no sample rows; solve it "
                         "with a time_stride")

    window = sol.window
    nf01 = slab_norm(slab_sums(grid, window, fd.d1(window, traj.dt, axis=0)),
                     traj.dt)
    h2 = weighted_sobolev_norm(f, 2, 0, grid)
    h1 = weighted_sobolev_norm(g, 1, 0, grid)
    h21 = weighted_sobolev_norm(f, 2, 1, grid)
    h12 = weighted_sobolev_norm(g, 1, 2, grid)

    # one sample frame serves the forcing and solution norms and the
    # truncation sweep
    frame = _SampleFrame(grid, samples["t"])
    tip_f, *sweep = delta_sweep(frame, frame.forcing(samples),
                                [0.0] + list(deltas))
    pull = frame.solution(samples)
    pecher = l8_norm(frame, pull[0])

    conf0 = 2.0 / (1.0 + grid.r**2)
    sph2 = sphere_sobolev_norm(grid, conf0 * f, 2)
    sph1 = sphere_sobolev_norm(grid, conf0**2 * g, 1)

    wsup = frame.energy_sup(*pull)

    tt, ss = sol.sup_times, sol.sup_values
    keep = (tt >= sup_window[0]) & (tt <= sup_window[1])
    if not keep.any():
        raise ParamError("sup window outside the trajectory")
    sup_t = float(np.max(tt[keep] * ss[keep]))

    values = {
        "lhs_local_linear": nf01,
        "rhs_local_linear": (h2 + h1 + nf01) ** 2,
        "lhs_null_cylinder": tip_f,
        "rhs_null_cylinder": (sph2 + sph1 + tip_f) ** 2,
        "lhs_weighted_energy": wsup,
        "rhs_weighted_energy": sph2 + sph1 + tip_f,
        "lhs_sup_decay": sup_t,
        "rhs_sup_decay": h21 + h12 + tip_f,
        "pecher_l8": pecher,
    }
    for name in RATIO_NAMES:
        tag = name[len("ratio_"):]
        values[name] = values["lhs_" + tag] / values["rhs_" + tag]
    meta = {"eps": row["eps"], "sup_window": tuple(sup_window),
            "t_end": float(traj.times[-1]),
            "delta_sweep": sweep}
    return NormReport(values, meta)


def ratio_spreads(reports):
    """max/min per ratio across a report table.

    A ratio whose smallest value is 0 (as under a linear system, whose
    null forms vanish) has no finite spread and gets None.
    """
    out = {}
    for name in RATIO_NAMES:
        vals = [rep[name] for rep in reports]
        if not vals:
            continue
        lo, hi = min(vals), max(vals)
        out[name] = None if lo == 0 else hi / lo
    return out
