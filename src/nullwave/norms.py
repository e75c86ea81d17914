"""Discrete norms used by the decay and existence estimates.

Weighted Sobolev data norms, space-time null-form norms, and the
tip-weighted cylinder norms, all by quadrature on the solver grids.
Cylinder quantities are never computed on a sphere mesh: Minkowski
quadrature is pushed forward through the compactification, with the
volume element picking up a factor of the fourth power of the conformal
factor.

Every cylinder quantity is a sum or a max over the sampled rows of a
run, so no sampled row is kept: a Picard sweep hands each one to
CylinderNorms as it takes it, and the row's frame pulls back the
solution and then the forcing; a run keeps no u stack (see
nullwave.solver).  The frame is written in the null coordinates
p = t + r and m = t - r, with up = 1 + p^2 and um = 1 + m^2: the
conformal factor is conf = 2 / sqrt(up um), (d_t + d_r) log conf is
-2p / up and (d_t - d_r) log conf is -2m / um, so the field
val = conf**power * q of a radial q has

    g0 + gb = (up / 2) (d_t + d_r) val
            = conf**power ((up / 2) (q_t + q_r) - power p q),
    g0 - gb = (um / 2) (d_t - d_r) val
            = conf**power ((um / 2) (q_t - q_r) - power m q),

where g0 is its time-rotation derivative and gb the shared magnitude of
its boost derivatives (rotational derivatives vanish), and
g0^2 + gb^2 is half the sum of the squares of the two.  The image
T = arctan p + arctan m, R = arctan p - arctan m enters only through
the fourth power dist4 = ((pi - T)^2 + R^2)^2 of the tip distance, so
the truncation dist > delta is dist4 > delta^4, and through the diamond
check R + |T| = max(2 arctan p, -2 arctan m) < pi, taken at the
outermost node, where it is largest.

The solution's u_t is the solver's v.  Q_t is d1 of the whole Q series
at the solver step, never across the sampling stride, and the cylinder
norms and the local-linear norm read the same one.  A slab norm is
formed from the per-row slab_sums of its series: a Picard sweep adds
them a block of rows at a time, for its residual over the whole run and
for Q over the local_linear_rows of LOCAL_LINEAR_WINDOW.  Each row's
sum is one einsum pass over its components and nodes, summed the same
whatever block the row is in.
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
    f = f.reshape((-1,) + grid.shape)

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
    return weighted_sobolev_norm(data.f, 2, 1, data.grid) \
        + weighted_sobolev_norm(data.g, 1, 2, data.grid)


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
    """Q(du, du) of snapshot rows.

    u holds the rows and u_t their time derivatives, both of
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
    du = (u_t,) + grid.gradient(u, grads)
    per_comp = [[d[:, j] for d in du] for j in range(spec.n_components)]
    out = np.empty(du[0].shape) if out is None else out
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
    """slab_norm's spatial sums of rows val, of d/dt val_t and of grad val,
    each row's in one pass; the gradient rows go into work as in
    evaluate_nullform_series."""
    rows, vol = len(val), grid.weights().ravel()
    grads = [a.reshape(val.shape) for a in (
        np.empty((grid.ndim,) + val.shape) if work is None
        else work[:grid.ndim])]
    sq = np.empty((2 + grid.ndim, rows))
    for k, d in enumerate((val, val_t) + grid.gradient(val, grads)):
        d = d.reshape(rows, -1, vol.size)
        # not a matrix product: BLAS sums a row in an order that depends
        # on the block's shape, and einsum sums it the same in any block
        np.einsum("ijk,ijk,k->i", d, d, vol, out=sq[k])
    return sq


# ---------------------------------------------------------------------------
# the cylinder frame of a sampled row and the tip-weighted norms

def _power(x, k):
    """x**k for a nonzero integer k by squarings and products, not pow:
    x itself when k is 1, else a new array."""
    base, k, acc = (np.reciprocal(x) if k < 0 else x), abs(k), None
    while k:
        if k & 1:
            acc = base if acc is None else acc * base
        k >>= 1
        if k:
            base = base * base
    return acc


class _RowFrame:
    """One sampled row of a radial run on the cylinder (see the module
    docstring): its time t, the null coordinates p and m with the halves
    hup and hum of up and um, the conformal factor conf, the fourth power
    dist4 of the tip distance and the pulled-back quadrature weight
    conf^4 dx wt (wt is its weight in time)."""

    def __init__(self, grid, t, wt):
        self.t = t
        p, m = self.p, self.m = t + grid.r, t - grid.r
        ap, am = np.arctan(p), np.arctan(m)
        # R + |T| = max(2 arctan p, -2 arctan m) grows with r
        if max(2.0 * ap[-1], -2.0 * am[-1]) >= np.pi:
            raise DomainError("samples outside the compactified diamond")
        up, um = np.square(p), np.square(m)
        up += 1.0
        um += 1.0
        self.conf = np.divide(2.0, np.sqrt(up * um))
        up *= 0.5
        um *= 0.5
        self.hup, self.hum = up, um
        # (pi - T)^2 + R^2 with T = ap + am and R = ap - am, squared
        dist4 = np.square(np.subtract(np.pi, ap + am))
        dist4 += np.square(np.subtract(ap, am, out=ap), out=ap)
        self.dist4 = np.square(dist4, out=dist4)
        self.weight = _power(self.conf, 4) * grid.weights()
        self.weight *= wt

    def pull(self, q, q_t, q_r, power):
        """(val, g0 + gb, g0 - gb) of the cylinder field val = conf**power
        * q of a radial q, from q, q_t and q_r (see the module docstring)."""
        scale = _power(self.conf, power)
        pq = np.multiply(power, q)
        gp, gm = np.add(q_t, q_r), np.subtract(q_t, q_r)
        for g, half, x in ((gp, self.hup, self.p), (gm, self.hum, self.m)):
            g *= half
            g -= pq * x
            g *= scale
        return np.multiply(scale, q), gp, gm

    def density(self, val, gp, gm):
        """val^2 + dist4 (g0^2 + gb^2) of a pulled field, over gp and gm."""
        dens = np.square(gp, out=gp)
        dens += np.square(gm, out=gm)
        dens *= self.dist4
        dens *= 0.5
        dens += np.square(val, out=gm)
        return dens


class CylinderNorms:
    """The cylinder norms of a radial run, summed a sampled row at a time.

    Rows 0, time_stride, 2 time_stride, ... of a run of n snapshots dt
    apart are sampled.  solution(i, u, u_t, u_r) frames row i and adds
    its field conf * u to the eighth power norm (a running max, and a
    sum rescaled to it) and the weighted energy sup (a max of slice
    sums); forcing(i, Q, Q_t) adds the row's field conf^-3 * Q to the
    tip-weighted sums at delta 0 and at each of deltas, and drops the
    frame.
    """

    def __init__(self, grid, n, dt, time_stride, deltas):
        if grid.kind != "radial":
            raise ParamError("cylinder sampling supports radial grids")
        if time_stride < 1:
            raise ParamError("time_stride must be >= 1")
        self.last = (n - 1) // time_stride * time_stride
        if self.last < 2 * time_stride:
            raise ParamError("need at least 3 sampled snapshots")
        if any(d < 0 for d in deltas):
            raise ParamError("delta must be nonnegative")
        self.grid, self.dt, self.stride = grid, dt, time_stride
        self.deltas = [0.0] + list(deltas)
        # dist > delta is dist4 > delta^4: a (deltas x nodes) 0/1 mask
        self.delta4 = np.square(np.square(self.deltas))[:, None]
        self.mask = np.empty((len(self.deltas), grid.n_nodes))
        self.tip_sq = np.zeros(len(self.deltas))
        self.l8_max = self.l8_sum = self.energy_sq = 0.0
        self.frames = {}

    def solution(self, i, u, u_t, u_r):
        """Frame sampled row i and add its solution row u."""
        wt = self.dt * self.stride * (0.5 if i in (0, self.last) else 1.0)
        frame = self.frames[i] = _RowFrame(self.grid, self.dt * i, wt)
        val, gp, gm = frame.pull(u, u_t, u_r, 1)
        # slice measure: conf^3 dx on each sampled instant
        slice_wt = _power(frame.conf, 3)
        slice_wt *= self.grid.weights()
        self.energy_sq = max(self.energy_sq, float(np.einsum(
            "i,i->", frame.density(val, gp, gm), slice_wt)))
        val = np.abs(val, out=val)
        m = float(np.max(val))
        if m > self.l8_max:
            # normalize before the eighth power to keep the sum in range
            self.l8_sum *= (self.l8_max / m) ** 8
            self.l8_max = m
        if self.l8_max > 0.0:
            val /= self.l8_max
            self.l8_sum += float(np.einsum("i,i->", _power(val, 8),
                                           frame.weight))

    def forcing(self, i, Q, Q_t):
        """Add the forcing row Q of sampled row i, whose solution is in:
        the quadratic sum of the field and its derivatives along the
        canonical cylinder fields, the derivative block weighted by
        dist^4, over the nodes with dist > delta, for each delta."""
        frame = self.frames.pop(i)
        dens = frame.density(*frame.pull(Q, Q_t, fd.d1(Q, self.grid.h), -3))
        dens *= frame.weight
        np.greater(frame.dist4, self.delta4, out=self.mask)
        self.tip_sq += np.einsum("ij,j->i", self.mask, dens)

    def values(self):
        """(the tip-weighted forcing norms at delta 0 and at each delta,
        the eighth power norm of the solution, its weighted energy sup)."""
        return ([float(s) for s in np.sqrt(self.tip_sq)],
                self.l8_max * self.l8_sum ** 0.125,
                float(np.sqrt(self.energy_sq)))


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


def local_linear_rows(n, dt):
    """How many snapshots dt * arange(n) of a run lie in LOCAL_LINEAR_WINDOW
    (from the first to within 1e-12 of its end), made without an array;
    ParamError unless the run reaches that end and the window holds 3."""
    t1 = LOCAL_LINEAR_WINDOW[1]
    if t1 > dt * (n - 1) + 1e-12:
        raise ParamError("the local-linear window [0, %g] ends after the "
                         "run's last snapshot at %g" % (t1, dt * (n - 1)))
    # dt * k <= t1 + 1e-12 exactly, and dt * (k + 1) may round onto it
    k = int((t1 + 1e-12) // dt)
    rows = min(n, k + 1 + (dt * (k + 1) <= t1 + 1e-12))
    if rows < 3:
        raise ParamError("the local-linear window [0, %g] holds %d snapshots "
                         "at step %g, fewer than 3" % (t1, rows, dt))
    return rows


def estimate_ratio_report(rows, sup_window=(5.0, 40.0)):
    """LHS/RHS surrogate ratios for the four estimates, one report per run.

    rows are smallness_scan rows (dicts carrying "solution" and "eps")
    of a scan run with a time_stride, so that each solution carries its
    cylinder norms and its local-linear norm.  They are read one at a
    time and no row is held once its report is made, so each solution of
    a streamed scan is freed after its report, before the next entry is
    solved.  Rows without a converged solution, and zero-data rows, are
    skipped.  Each report's metadata carries eps, sup_window, t_end and,
    under "delta_sweep", the tip-weighted forcing norms at the scan's
    deltas.
    """
    return [rep for rep in map(lambda row: _ratio_report(row, sup_window),
                               rows) if rep is not None]


def _ratio_report(row, sup_window):
    """The NormReport of one scan row, or None when it has nothing to show."""
    sol = row["solution"]
    if sol is None:
        return None
    traj, f, g = sol.trajectory, sol.data.f, sol.data.g
    grid = traj.grid
    if np.max(np.abs(f)) == 0 and np.max(np.abs(g)) == 0:
        return None
    nf01 = sol.local_linear
    if nf01 is None:
        raise ParamError("the solution keeps no cylinder norms; solve it "
                         "with a time_stride")

    h2 = weighted_sobolev_norm(f, 2, 0, grid)
    h1 = weighted_sobolev_norm(g, 1, 0, grid)
    tip_f, *sweep = sol.tip_norms

    conf0 = penrose.conformal_factor_tr(0.0, grid.r)
    sph2 = sphere_sobolev_norm(grid, conf0 * f, 2)
    sph1 = sphere_sobolev_norm(grid, conf0**2 * g, 1)

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
        "lhs_weighted_energy": sol.energy_sup,
        "rhs_weighted_energy": sph2 + sph1 + tip_f,
        "lhs_sup_decay": sup_t,
        "rhs_sup_decay": data_smallness_norm(sol.data) + tip_f,
        "pecher_l8": sol.l8_norm,
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
