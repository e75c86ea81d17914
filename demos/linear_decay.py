"""Linear waves outside the unit sphere: accuracy, then decay.

Part one verifies the solver against a manufactured solution (the
error must fall by 4x per mesh doubling).  Part two reproduces the
local-energy experiment: compactly supported data launched outside a
reflecting unit sphere radiates away, and the energy left in a fixed
ball falls exponentially until the scheme's dispersion floor.

Run:  python3 demos/linear_decay.py      (a couple of seconds)
"""

import numpy as np

from nullwave.exterior import InitialData, build_radial_grid
from nullwave.picard import bump_data_family
from nullwave.solver import fit_decay, local_energy_fn, solve_linear


def energy_series(data, t_end, stride, radius=None):
    """(times, energies in |x| < radius) taken while the solver runs."""
    energy = local_energy_fn(data.grid, radius)
    vals = []
    traj = solve_linear(data, None, t_end, stride=stride,
                        observe=lambda i, u, v: vals.append(energy(u, v)))
    return traj.dt * stride * np.arange(len(vals)), np.array(vals)


# ---------------------------------------------------------------------------
# 1. Manufactured solution: r u = sin(a(r-1)) cos(bt), forcing chosen to
#    match; the error is measured in r u

L = 8.0
a = 3.0 * 2.0 * np.pi / L
b = 1.3

print("manufactured-solution convergence, t = 2:")
print("    n     max error     order")
prev = None
for n in (100, 200, 400, 800):
    grid = build_radial_grid(1.0, 1.0 + L, n)
    w0 = np.sin(a * (grid.r - 1.0))
    data = InitialData(grid, w0 / grid.r, np.zeros_like(w0))

    def force(t, _grid=grid):
        return ((a**2 - b**2) * np.cos(b * t)
                * np.sin(a * (_grid.r - 1.0)) / _grid.r)

    traj = solve_linear(data, force, 2.0, stride=1)
    exact = np.sin(a * (grid.r - 1.0)) * np.cos(b * traj.times[-1])
    err = np.max(np.abs(grid.r * traj.u[-1] - exact))
    order = "" if prev is None else "%.2f" % np.log2(prev / err)
    print("  %4d    %.3e     %s" % (n, err, order))
    prev = err
print()

# ---------------------------------------------------------------------------
# 2. Local energy decay: bump data, first angular mode, reflecting edge
#    far enough out that nothing returns inside the window

grid = build_radial_grid(1.0, 36.0, 2000, angular_mode=1)
data = bump_data_family(grid, center=2.2, width=0.8, velocity="zero")(1.0)

times, energies = energy_series(data, 16.0, 4, radius=4.0)

print("energy in the ball r < 4 (normalized):")
print("    t      E(t)/E(0)")
e0 = energies[0]
for target in (0.0, 2.0, 4.0, 6.0, 8.0, 10.0, 12.0):
    i = int(np.argmin(np.abs(times - target)))
    print("  %5.1f    %.3e" % (times[i], energies[i] / e0))

fit = fit_decay((times, energies), "exponential", window=(5.0, 12.0))
print()
print("log-linear fit on t in [5, 12]:")
print("  rate %.4f   (energy ~ exp(-%.2f t))" % (fit.rate, fit.rate))
print("  RMS log-residual %.4f" % fit.residual)
print()
print("Ten time units cost the observation ball about eight orders of")
print("magnitude: the convex obstacle traps nothing.  Past t ~ 13 the")
print("series flattens onto the scheme's dispersion floor; refining the")
print("mesh pushes that floor down, it is not a property of the wave.")

# the floor, to make the claim concrete
late = energies[times > 14.0]
print("floor level (t > 14): %.1e of the initial energy"
      % (np.max(late) / e0))
print()

# ---------------------------------------------------------------------------
# 3. Energy bookkeeping sanity: reflecting run conserves, sponge removes

grid_c = build_radial_grid(1.0, 9.0, 128)
u0 = np.sin(2.0 * np.pi * (grid_c.r - 1.0)) / grid_c.r
times_c, evals = energy_series(InitialData(grid_c, u0, np.zeros_like(u0)),
                               400.0, 4)
drift = np.polyfit(times_c, evals / evals[0], 1)[0]
print("closed reflecting box, 400 time units: energy drift %.1e per unit"
      % abs(drift))

grid_s = build_radial_grid(1.0, 20.0, 500, sponge_cells=160,
                           sponge_strength=4.0)
data_s = bump_data_family(grid_s, center=3.0, width=1.0)(1.0)
_, evals_s = energy_series(data_s, 40.0, 10)
e_end, e_start = evals_s[-1], evals_s[0]
print("sponge-backed open domain, 40 time units: %.1e of the energy left"
      % (e_end / e_start))
