"""The direct route's circle solve, exact per mode, used only by the test suite.

On concentric circles every block of the direct system is circulant, so
each Fourier mode m of the currents solves one 2x2 system whose entries are
N times the q-sums of cylwave.discrete.q_sum_coefficients:

    [[N Z1 b1, N i b2], [N Z2 b3, N i b4]] (J_m, K_m) = (N A Z1 d, 0)

for an external source, with right side (0, N A Z2 d) for an internal one.
The q-sums fold tables of Graf's products, so each eigenvalue keeps its
relative accuracy however small it is, where the FFT of the rounded kernel
columns knows a small one only to an absolute eps of the largest. Solved by
Cramer's rule mode by mode, this is the float64 yardstick the FFT path
(cylwave.discrete.solve_circulant_dft) is measured against. The source
route is not covered.
"""

import numpy as np

from cylwave import discrete


def direct_currents(n_points, curve, aux_inner, aux_outer, excitation, medium1, medium2):
    """(electric, magnetic) currents at the N collocation nodes, exact per mode."""
    q = discrete.q_sum_coefficients(
        np.arange(n_points), n_points, curve, aux_inner, aux_outer, excitation, medium1, medium2
    )
    n, z1, z2 = n_points, medium1.Z, medium2.Z
    l11, l12, l21, l22 = n * z1 * q.b1, n * 1j * q.b2, n * z2 * q.b3, n * 1j * q.b4
    drive = n * excitation.amplitude * q.d
    r1, r2 = (z1 * drive, 0.0) if excitation.region == "external" else (0.0, z2 * drive)
    det = l11 * l22 - l12 * l21
    return np.fft.ifft((r1 * l22 - l12 * r2) / det), np.fft.ifft((l11 * r2 - l21 * r1) / det)


def forward_error(solution, exact):
    """The worse of the two currents' l-inf gaps to exact, each relative to its own peak."""
    return max(
        float(np.max(np.abs(got - want)) / np.max(np.abs(want)))
        for got, want in zip((solution.electric, solution.magnetic), exact)
    )
