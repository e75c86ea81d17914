"""Helpers shared by the test modules."""

import numpy as np

from nullwave import fd, penrose
from nullwave.solver import solve_linear


def observed_rows(data, forcing, t_end, **kwargs):
    """A run and copies of the (u, v) it showed at each snapshot.

    kwargs go to solve_linear (dt, stride).
    """
    us, vs = [], []

    def observe(i, u, v):
        us.append(u.copy())
        vs.append(v.copy())

    traj = solve_linear(data, forcing, t_end, observe=observe, **kwargs)
    return traj, np.array(us), np.array(vs)


def conformal_gradient_tr(t, r):
    """Closed-form (dOmega/dt, dOmega/dr) of penrose.conformal_factor_tr.

    From log Omega = log 2 - (log u+ + log u-)/2 with u± = 1 + (t±r)^2.
    """
    t = np.asarray(t, dtype=float)
    r = np.asarray(r, dtype=float)
    up = 1.0 + (t + r) ** 2
    um = 1.0 + (t - r) ** 2
    om = 2.0 / np.sqrt(up * um)
    dt = -om * ((t + r) / up + (t - r) / um)
    dr = -om * ((t + r) / up - (t - r) / um)
    return dt, dr


def cylinder_reference(grid, dt, stride, u, u_t, Q, deltas=()):
    """The cylinder norms of every stride-th row of whole stacks, on one
    (sampled rows x nodes) frame, as the streamed ones are compared with.

    u, u_t and Q are (snapshots x nodes) stacks of a radial run of step
    dt; Q_t is taken over the whole stack.  Returns the tip-weighted
    forcing norms at 0 and at each delta, the eighth power norm of the
    solution and its weighted energy sup.
    """
    idx = np.arange(0, len(u), stride)
    t, r = dt * idx[:, None], grid.r
    T, R = penrose.forward_tr(t, r)
    dist2 = (np.pi - T) ** 2 + R * R
    dist = np.sqrt(dist2)
    conf = penrose.conformal_factor_tr(t, r)
    conf_t, conf_r = conformal_gradient_tr(t, r)
    weight = conf**4 * grid.weights() * fd.trapezoid(dt * stride,
                                                     len(idx))[:, None]

    def pull(q, q_t, q_r, power):
        val_t = power * conf**(power - 1) * conf_t * q + conf**power * q_t
        val_r = power * conf**(power - 1) * conf_r * q + conf**power * q_r
        g0 = 0.5 * (1.0 + t * t + r * r) * val_t + t * r * val_r
        gb = (0.5 * (1.0 + t * t - r * r) * val_r + t * r * val_t
              + r * r * val_r)
        return conf**power * q, g0, gb

    (u_r,) = grid.gradient(u[idx])
    val, g0, gb = pull(u[idx], u_t[idx], u_r, 1)
    slices = np.sum((val * val + dist2**2 * (g0 * g0 + gb * gb))
                    * conf**3 * grid.weights(), axis=1)
    l8 = np.sum(val**8 * weight) ** 0.125
    Q_t = fd.d1(Q, dt, axis=0)[idx]
    val, g0, gb = pull(Q[idx], Q_t, fd.d1(Q[idx], grid.h), -3)
    dens = (val * val + dist**4 * (g0**2 + gb**2)) * weight
    tips = [np.sqrt(np.sum(dens[dist > d])) for d in [0.0] + list(deltas)]
    return tips, l8, np.sqrt(np.max(slices))
