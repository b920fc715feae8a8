"""Both routes' circle solves, exact per mode, used only by the test suite.

On concentric circles every block of either system is circulant, so each
Fourier mode m of the unknowns solves one 2x2 system whose entries are N
times the q-sums of cylwave.discrete.q_sum_coefficients. The direct route's
is

    [[N Z1 b1, N i b2], [N Z2 b3, N i b4]] (J_m, K_m) = (N A Z1 d, 0)

for an external source, with right side (0, N A Z2 d) for an internal one.
By criterion 09 the source route's matrix is the transpose of the direct
one with its rows scaled by -k1/4 and +k2/4, at mode -m; the b-sums are
even in m, so its mode m reads

    [[-(k1/4) N Z1 b1, +(k2/4) N Z2 b3], [-(k1/4) N i b2, +(k2/4) N i b4]].

Its right side holds the incident field and its normal derivative at the
boundary nodes: with F0 and F1 the folds of J_n H2_n and J'_n H2_n at
(k1 rho_C, k1 rho_f) for an external source, or of J_n H2_n and J_n H2'_n at
(k2 rho_f, k2 rho_C) for an internal one, each rotated as d is, it is
(s (kZ/4) A N F0, -s (ik/4) A N F1), s = +1 outside and -1 inside.
The q-sums fold tables of Graf's products, so each eigenvalue keeps its
relative accuracy however small it is, where the FFT of the rounded kernel
columns knows a small one only to an absolute eps of the largest. Solved by
Cramer's rule mode by mode, this is the float64 yardstick the FFT path
(cylwave.discrete.solve_circulant_dft) is measured against.
"""

import numpy as np

from cylwave import discrete, specfun


def direct_currents(n_points, curve, aux_inner, aux_outer, excitation, medium1, medium2):
    """(electric, magnetic) currents at the N collocation nodes, exact per mode."""
    d, b1, b2, b3, b4 = discrete.q_sum_coefficients(
        n_points, curve, aux_inner, aux_outer, excitation, medium1, medium2
    )
    n, z1, z2 = n_points, medium1.Z, medium2.Z
    drive = n * excitation.amplitude * d
    r1, r2 = (z1 * drive, 0.0) if excitation.region == "external" else (0.0, z2 * drive)
    return _cramer(n * z1 * b1, n * 1j * b2, n * z2 * b3, n * 1j * b4, r1, r2)


def source_currents(n_points, curve, aux_inner, aux_outer, excitation, medium1, medium2):
    """(inner, outer) source amplitudes at the N nodes of each surface, exact per mode."""
    _, b1, b2, b3, b4 = discrete.q_sum_coefficients(
        n_points, curve, aux_inner, aux_outer, excitation, medium1, medium2
    )
    n, (k1, z1), (k2, z2) = n_points, (medium1.k, medium1.Z), (medium2.k, medium2.Z)
    rho_c, rho_f = curve.params["radius"], excitation.rho
    if excitation.region == "external":
        s, k, z, x, y, forms = 1.0, k1, z1, k1 * rho_c, k1 * rho_f, (0, 1)
    else:
        s, k, z, x, y, forms = -1.0, k2, z2, k2 * rho_f, k2 * rho_c, (0, 2)
    top = specfun.graf_order(x, y, slope=x, cap=1000 * n, base=n // 2)
    rotation = np.exp(-1j * excitation.phi * np.arange(top + 1))
    f0, f1 = (
        discrete._mode_sums(t * rotation, t * rotation.conj(), n)
        for t in specfun.graf_products(x, y, top, forms)
    )
    drive = n * excitation.amplitude
    r1, r2 = s * (k * z / 4) * drive * f0, -s * (1j * k / 4) * drive * f1
    l11, l12 = -(k1 / 4) * n * z1 * b1, (k2 / 4) * n * z2 * b3
    l21, l22 = -(k1 / 4) * n * 1j * b2, (k2 / 4) * n * 1j * b4
    return _cramer(l11, l12, l21, l22, r1, r2)


def _cramer(l11, l12, l21, l22, r1, r2):
    """The two unknown vectors of the per-mode 2x2 systems, back from their spectra."""
    det = l11 * l22 - l12 * l21
    return np.fft.ifft((r1 * l22 - l12 * r2) / det), np.fft.ifft((l11 * r2 - l21 * r1) / det)


def forward_error(solution, exact):
    """The worse of the two currents' l-inf gaps to exact, each relative to its own peak."""
    return max(
        float(np.max(np.abs(got - want)) / np.max(np.abs(want)))
        for got, want in zip((solution.electric, solution.magnetic), exact)
    )
