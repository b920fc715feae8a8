"""Where the source route breaks and how to see it coming.

The source route moves the unknowns onto the displaced surfaces and
matches fields on the physical boundary. Whether it converges depends
only on where those surfaces sit relative to two radii: the image radius
rho_cyl^2 / rho_fil and the filament radius itself. This script predicts
the verdict for a 3 x 3 grid of placements, then runs the solver and
checks the prediction against the oscillation flag. The last section
shows the signature of a bad placement in detail: source amplitudes that
grow and oscillate with N while the radiated field stays deceptively
accurate, degrading only in its last digits. The direct route at the same
placement keeps currents that track the continuous densities; its field
is no cleaner than the source route's, since both sit at roundoff.
"""

import numpy as np

from cylwave import continuous, diagnostics, discrete
from cylwave.exact import Medium
from cylwave.geometry import AuxiliarySurface, BoundaryCurve, Excitation

M1 = Medium()
M2 = Medium(4.2, 1.0)
CIRCLE = BoundaryCurve.circle(2.0)
EXT = Excitation("external", 4.0)


def placed(inner, outer):
    return (
        CIRCLE,
        AuxiliarySurface.from_radius(CIRCLE, inner),
        AuxiliarySurface.from_radius(CIRCLE, outer),
    )


# -- prediction vs observation on a placement grid -------------------------------

print("external source at k1 rho = 4: image radius %.1f, filament radius %.1f" % (1.0, 4.0))
print("inner surface must stay above the image, outer below the filament")
print()
print("placement      predicted            flagged after solving N = 40, 46")
for inner in (0.5, 1.35, 1.8):
    for outer in (2.5, 3.2, 7.0):
        geometry = placed(inner, outer)
        predictions = diagnostics.predict_mas_divergence(geometry, EXT)
        scan = diagnostics.oscillation_scan("mas", geometry, EXT, (M1, M2), (40, 46))
        flagged = scan.flagged_surfaces()
        verdicts = "/".join(predictions.values())
        observed = ", ".join(flagged) if flagged else "none"
        print("(%4.2f, %4.1f)   %-21s %s" % (inner, outer, verdicts, observed))

# -- anatomy of a breakdown -------------------------------------------------------

print()
print("wide placement (0.5, 10.0), both surfaces on the wrong side:")
amplitudes = {}
for n in (40, 46):
    solution = discrete.solve_dense(discrete.assemble_mas(*placed(0.5, 10.0), EXT, M1, M2, n_points=n))
    amplitudes[n] = solution
    for label, block in (("inner", solution.electric), ("outer", solution.magnetic)):
        print(
            "  N = %d %s sources: max amplitude %9.3f, oscillation index %.3f"
            % (n, label, np.max(np.abs(block)), diagnostics.oscillation_index(block))
        )

print()
print("yet the radiated field barely notices: worst relative error against the")
print("series on the k1 rho = 10 and k1 rho = 1 rings. Both routes are at")
print("float64 roundoff here, and neither is cleaner on both rings:")


ring_angles = 2.0 * np.pi * np.arange(36) / 36.0
outside, inside = (
    diagnostics.ring_references(CIRCLE, EXT, (M1, M2), (ring,), ring_angles)
    for ring in ((10.0, 1), (1.0, 2))
)
nfm = discrete.solve_dense(discrete.assemble_nfm(*placed(0.5, 10.0), EXT, M1, M2, n_points=40))
for label, solution in (
    ("source route N = 40", amplitudes[40]),
    ("source route N = 46", amplitudes[46]),
    ("direct route N = 40", nfm),
):
    print(
        "  %s: %.2e outside, %.2e inside"
        % (
            label,
            diagnostics.field_error(solution, outside),
            diagnostics.field_error(solution, inside),
        )
    )

print()
print("the contrast lies in the currents, normalized to surface densities at")
print("N = 40 and compared with the closed-form densities:")
angles = 2.0 * np.pi * np.arange(40) / 40.0
densities = continuous.density_series(EXT, angles, 2.0, M1, M2)
peak = max(np.max(np.abs(d)) for d in densities)
deviation = max(
    discrete.relative_gap(got, want)
    for got, want in zip(discrete.normalized_currents(nfm), densities)
)
source_peak = max(np.max(np.abs(c)) for c in discrete.normalized_currents(amplitudes[40]))
print("  densities' peak                         %.3g" % peak)
print("  direct route: worst relative deviation  %.2e" % deviation)
print("  source route: peak amplitude            %.3g" % source_peak)
