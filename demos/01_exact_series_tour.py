"""Tour of the separable-series reference solution for a circular cylinder.

A dielectric cylinder of radius k1 rho = 2 (eps_r = 4.2) is driven by a
line source outside it at k1 rho = 4. The script walks through the pieces
the rest of the workbench leans on: where each of the four series
converges, how fast the terms decay, and how the boundary-density
reconstruction reproduces the same fields through a second, independent
route.
"""

import numpy as np

from cylwave.continuous import reconstruct_fields_from_densities
from cylwave.exact import (
    Medium,
    convergence_region,
    critical_radius,
    exact_ring,
    series_ratio,
    term_ratio_probe,
)
from cylwave.geometry import Excitation

M1 = Medium()
M2 = Medium(4.2, 1.0)
RHO_CYL = 2.0
EXT = Excitation("external", 4.0)

# -- convergence geography ----------------------------------------------------

print("critical radius for the external source: %.3f" % critical_radius(RHO_CYL, EXT.rho))
print()
print("where each series converges (radii in units of 1/k1):")
for series in ("ext_R1", "ext_R2", "int_R1", "int_R2"):
    verdicts = []
    for rho in (0.5, 1.0, 1.9, 2.1, 4.5, 12.0):
        rho_fil = EXT.rho if series.startswith("ext") else 1.0
        verdicts.append("%4.1f %s" % (rho, convergence_region(series, rho, RHO_CYL, rho_fil)))
    print("  %s: %s" % (series, ", ".join(verdicts)))

# the region-1 series keeps converging below the boundary, down to the
# image radius rho_cyl^2 / rho_fil; that extended band is exactly where a
# displaced matching surface is allowed to live

# -- term decay ---------------------------------------------------------------

print()
print("term decay of the region-1 series: dividing the n-th term by its")
print("predicted large-n form leaves no geometric factor behind, only a")
print("slow algebraic tail (1/n^2 here, because the permeabilities match)")
for rho in (2.5, 4.5, 8.0):
    rate = series_ratio("ext_R1", rho, RHO_CYL, EXT.rho)
    probes = [
        abs(term_ratio_probe("ext_R1", n, rho, RHO_CYL, EXT.rho, M1, M2))
        for n in (20, 40)
    ]
    print(
        "  k1 rho = %4.1f  rate %.4f  term/form at n = 20: %.3e, n = 40: %.3e"
        % (rho, rate, probes[0], probes[1])
    )

# -- fields on two rings --------------------------------------------------------

print()
print("total field on observation rings (8 of 36 angles shown):")
for rho, region in ((10.0, 1), (1.0, 2)):
    ring = exact_ring(EXT, region, rho, 2.0 * np.pi * np.arange(8) / 8.0, RHO_CYL, M1, M2)
    line = ", ".join("%7.4f%+.4fj" % (v.real, v.imag) for v in ring.value)
    print("  region %d, k1 rho = %4.1f: %s" % (region, rho, line))

# -- the independent route ------------------------------------------------------

print()
print("boundary-density reconstruction against the direct series:")
worst = 0.0
for rho, region in ((10.0, 1), (1.3, 2)):
    phis = 2.0 * np.pi * (np.arange(16) + 0.5) / 16.0
    want = exact_ring(EXT, region, rho, phis, RHO_CYL, M1, M2).value
    got = reconstruct_fields_from_densities(EXT, rho, phis, RHO_CYL, M1, M2)
    worst = max(worst, np.max(np.abs(got - want) / np.abs(want)))
print("  worst relative deviation over 32 points: %.2e" % worst)
