"""Certifying solutions on an ellipse, where no separable reference exists.

On a non-circular boundary the system loses its circulant structure and
there is no closed-form series to compare against, so the workbench
certifies a solution by the continuity of the tangential fields across
the boundary. This script contrasts two placements of the displaced
surfaces on a k1 (a, b) = (2, 1.6) ellipse: a mild one, where the direct
route's residual falls steadily with N, and an extreme one, where it falls
to N = 40 and then jumps to order one at N = 60. There the condition
number reaches about 4e18 and the solved currents are float64 roundoff,
although the far fields they radiate stay accurate; the source route
oscillates outright. The oscillation flag still separates the two
methods cleanly.
"""

import numpy as np

from cylwave import diagnostics, discrete, fields
from cylwave.exact import Medium
from cylwave.geometry import AuxiliarySurface, BoundaryCurve, Excitation

M1 = Medium()
M2 = Medium(4.2, 1.0)
ELLIPSE = BoundaryCurve.ellipse(2.0, 1.6)
EXT = Excitation("external", 4.0)


def scaled(inner, outer):
    return (
        ELLIPSE,
        AuxiliarySurface.from_scale(ELLIPSE, inner),
        AuxiliarySurface.from_scale(ELLIPSE, outer),
    )


# -- boundary residuals over N ----------------------------------------------------

for inner, outer, label in ((0.7, 1.6, "mild"), (0.33, 5.0, "extreme")):
    print("%s placement (scales %.2f and %.1f):" % (label, inner, outer))
    for n in (20, 40, 60):
        solution = discrete.solve(
            discrete.assemble_nfm(*scaled(inner, outer), EXT, M1, M2, n_points=n)
        )
        e_res, h_res = fields.boundary_residuals(solution, n_test=n)
        print(
            "  N = %2d  E jump %.3e   H jump %.3e   cond %.1e"
            % (n, e_res, h_res, solution.cond_estimate)
        )
    print()

# both jumps are taken on the boundary itself; the H jump reads up to ten
# times the E jump, since it involves the currents' derivative along the curve

# -- the flag still tells the methods apart ----------------------------------------

print("oscillation scans at the extreme placement, N = 40 then 44:")
for method in ("mas", "nfm"):
    scan = diagnostics.oscillation_scan(method, scaled(0.33, 5.0), EXT, (M1, M2), (40, 44))
    flagged = scan.flagged_surfaces()
    print("  %s: %s" % (method, ", ".join(flagged) if flagged else "no flags"))
    for label, report in scan.reports.items():
        print(
            "    %-8s N = %d  growth %6.2fx  oscillation index %.3f"
            % (label, scan.n_points[-1], report.growth_factor[-1], report.oscillation_index[-1])
        )
