"""Measuring the a priori estimates on computed solutions.

The global-existence argument rests on four inequalities: a weighted
data-to-solution energy bound, a tip-weighted bound on the null-form
forcing, a cylinder energy bound with tip-distance weights, and the
(1+t) sup-norm decay bound.  None of them comes with a usable
constant, so the honest numerical statement is a ratio: left side
over right side, per amplitude.  If the inequalities hold with a
uniform constant, the ratios stay bounded and amplitude-stable.

Run:  python3 demos/estimate_ratios.py      (about ten seconds)
"""

import numpy as np

from nullwave import norms, picard
from nullwave.exterior import build_radial_grid
from nullwave.nullforms import NullFormSpec

grid = build_radial_grid(1.0, 48.0, 2000, sponge_cells=170,
                         sponge_strength=4.0)
family = picard.bump_data_family(grid, center=2.0, width=0.8)
spec = NullFormSpec.scalar_q0()

# ---------------------------------------------------------------------------
# 1. Solve across an amplitude scan and measure every ratio

eps_list = [1e-4, 2e-4, 4e-4, 8e-4, 1.6e-3]
deltas = [3.6, 3.2, 2.8, 2.0, 1.0, 0.3, 0.0]
# each solution keeps the cylinder norms of every 20th snapshot, with the
# tip-weighted forcing norm at each delta
rows = picard.smallness_scan(family, spec, eps_list, 60.0, time_stride=20,
                             deltas=deltas)
reports = norms.estimate_ratio_report(rows)

print("LHS/RHS ratios per amplitude:")
header = "   eps      " + "".join("%-16s" % name.replace("ratio_", "")
                                  for name in norms.RATIO_NAMES)
print(header)
for rep in reports:
    row = "  %.1e  " % rep.metadata["eps"]
    row += "".join("%-16.3e" % rep[name] for name in norms.RATIO_NAMES)
    print(row)

spreads = norms.ratio_spreads(reports)
print()
print("max/min spread across the scan (bounded constant <=> small):")
for name in norms.RATIO_NAMES:
    print("  %-22s %.2f" % (name.replace("ratio_", ""), spreads[name]))
print()
print("The local-linear and sup-decay ratios are amplitude-flat; the")
print("two cylinder-side ratios drift mildly because their right sides")
print("carry a forcing term that scales like the amplitude squared.")
print()

# ---------------------------------------------------------------------------
# 2. The space-time L8 diagnostic rides along

print("space-time L8 norm of the solution (homogeneous of degree 1):")
for rep in reports:
    print("  eps %.1e   L8 %.3e   L8/eps %.4e"
          % (rep.metadata["eps"], rep["pecher_l8"],
             rep["pecher_l8"] / rep.metadata["eps"]))
print()

# ---------------------------------------------------------------------------
# 3. Tip-weighted forcing integral under truncation

# each report keeps the truncation sweep of the pulled-back forcing its
# null-cylinder norm read; the largest amplitude's is shown
sweep = reports[-1].metadata["delta_sweep"]
print("tip-weighted forcing norm, excluding dist < delta:")
print("   delta    value          gap to delta=0")
for d, v in zip(deltas, sweep):
    print("   %4.1f    %.5e    %.1e" % (d, v, abs(v - sweep[-1])))
print()
print("The truncated integrals converge as the cutoff is released: the")
print("weight concentrates all late-time mass near the tip, yet nothing")
print("diverges there.  That finiteness is the quantitative content of")
print("the tip-weighted estimates.")
