"""Solved boundary currents against the closed-form current densities.

The direct route places equivalent electric and magnetic currents on the
cylinder boundary and enforces field cancellation on two displaced
surfaces. For a circle the resulting system is block-circulant, so the
fast solver diagonalizes it with FFTs. This script solves at N = 40 for
two very different placements of the displaced surfaces and compares the
normalized currents with the density series, then pushes N up and watches
the per-mode amplitudes settle onto their placement-free limits.
"""

import numpy as np

from cylwave import discrete
from cylwave.continuous import density_series, mode_solve
from cylwave.exact import Medium
from cylwave.geometry import AuxiliarySurface, BoundaryCurve, Excitation

M1 = Medium()
M2 = Medium(4.2, 1.0)
CIRCLE = BoundaryCurve.circle(2.0)
EXT = Excitation("external", 4.0)
N = 40


def placed(inner, outer):
    return (
        CIRCLE,
        AuxiliarySurface.from_radius(CIRCLE, inner),
        AuxiliarySurface.from_radius(CIRCLE, outer),
    )


# -- currents at two placements -------------------------------------------------

phis = 2.0 * np.pi * np.arange(N) / N
want_e, want_k = density_series(EXT, phis, 2.0, M1, M2)

solved = {}
for inner, outer in ((1.5, 2.5), (0.5, 10.0)):
    solution = discrete.solve(discrete.assemble_nfm(*placed(inner, outer), EXT, M1, M2, n_points=N))
    got_e, got_k = discrete.normalized_currents(solution)
    solved[inner, outer] = (got_e, got_k)
    dev_e = np.max(np.abs(got_e - want_e)) / np.max(np.abs(want_e))
    dev_k = np.max(np.abs(got_k - want_k)) / np.max(np.abs(want_k))
    print(
        "placement (%.1f, %.1f): electric current off by %.2e, magnetic by %.2e"
        % (inner, outer, dev_e, dev_k)
    )

cross = np.max(np.abs(solved[1.5, 2.5][0] - solved[0.5, 10.0][0]))
cross /= np.max(np.abs(want_e))
print("the two placements agree with each other to %.2e" % cross)

print()
print("electric current density at a few angles (solved vs series, N = %d):" % N)
for j in (0, 5, 10, 20):
    got = solved[1.5, 2.5][0][j]
    want = want_e[j]
    print(
        "  phi = %5.2f  solved %8.4f%+.4fj   series %8.4f%+.4fj"
        % (phis[j], got.real, got.imag, want.real, want.imag)
    )

# -- mode amplitudes approach the placement-free limits --------------------------

print()
print("per-mode amplitudes against the large-N limit formulas:")
for n_points in (41, 81, 201):
    system = discrete.assemble_nfm(*placed(1.5, 2.5), EXT, M1, M2, n_points=n_points)
    i_modes, k_modes = discrete.mode_amplitudes(discrete.solve_circulant_dft(system))
    worst = 0.0
    for m in range(16):
        modes = mode_solve(m, EXT, 2.0, M1, M2)
        electric, magnetic = 4.0 * np.pi * modes.electric, 4.0 * np.pi * modes.magnetic
        worst = max(
            worst,
            abs(n_points * i_modes[m] - electric) / abs(electric),
            abs(n_points * k_modes[m] - magnetic) / abs(magnetic),
        )
    print("  N = %3d  worst relative gap over m <= 15: %.2e" % (n_points, worst))
