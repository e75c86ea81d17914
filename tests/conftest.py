"""Helpers shared by the test modules."""

import numpy as np

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
