"""Acceptance criteria 01-04 and 06, defined once.

Each criterion runs its cross-check on the package's circular reference
problem (boundary radius 2, relative permittivity 4.2, an external source
at radius 4 or an internal one at radius 1) and returns its named checks
as (name, passed, detail) triples; every detail carries the measured
number and its tolerance. ``cylwave validate`` prints the checks and the
acceptance test suite asserts them, so both certify the same thing.
"""

import numpy as np

from . import continuous, diagnostics, discrete, exact, specfun
from .geometry import AuxiliarySurface, BoundaryCurve, Excitation

M1 = exact.Medium()
M2 = exact.Medium(4.2, 1.0)
RHO_CYL = 2.0
CIRCLE = BoundaryCurve.circle(RHO_CYL)
EXT = Excitation("external", 4.0)
INT = Excitation("internal", 1.0)


def placement(inner, outer):
    """(boundary, inner surface, outer surface) with aux circles at these radii."""
    return (
        CIRCLE,
        AuxiliarySurface.from_radius(CIRCLE, inner),
        AuxiliarySurface.from_radius(CIRCLE, outer),
    )


NARROW = placement(1.5, 2.5)
WIDE = placement(0.5, 10.0)


def relative_gap(got, want):
    """max |got - want| over max |want|."""
    got, want = np.asarray(got), np.asarray(want)
    return float(np.max(np.abs(got - want))) / float(np.max(np.abs(want)))


def special_function_identities():
    """Criterion 01: Wronskian and the H0 addition theorem."""
    radii = np.array([0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 40.0])
    scale = 2.0 / (np.pi * radii)
    residual = specfun.wronskian_residual(np.arange(61), radii)
    worst_w = float(np.max(np.abs(residual) / scale[:, None]))
    worst_a = 0.0
    thetas = np.linspace(0.0, np.pi, 8)
    for x1 in np.linspace(1.0, 3.0, 5):
        for ratio in np.linspace(1.2, 10.0, 5):
            x2 = x1 * ratio
            got = specfun.addition_series_h0(x1, x2, thetas, n_max=220)
            d = np.sqrt(x1**2 + x2**2 - 2.0 * x1 * x2 * np.cos(thetas))
            for value, want in zip(got.tolist(), specfun.hankel2(0, d).tolist()):
                worst_a = max(worst_a, abs(value - want))
    return [
        ("wronskian", worst_w < 1e-12,
         "residual %.2e relative (< 1e-12) over n <= 60 on 7 radii" % worst_w),
        ("addition_closure", worst_a < 1e-10, "error %.2e (< 1e-10) on 200 points" % worst_a),
    ]


def density_reconstruction():
    """Criterion 02: fields radiated by the densities vs the direct series."""
    angles = 2.0 * np.pi * (np.arange(32) + 0.5) / 32.0
    checks = []
    for exc in (EXT, INT):
        worst = 0.0
        for rho, region in ((10.0, 1), (1.3, 2)):
            want = exact.exact_ring(exc, region, rho, angles, RHO_CYL, M1, M2)
            got = continuous.reconstruct_fields_from_densities(
                exc, rho, angles, RHO_CYL, M1, M2
            )
            worst = max(worst, float(np.max(np.abs(got - want.value) / np.abs(want.value))))
        checks.append(
            ("reconstruction_" + exc.region, worst < 1e-9,
             "%.2e relative (< 1e-9) at 64 points" % worst)
        )
    return checks


def dft_solver():
    """Criterion 03: DFT vs dense solve, and q-sums vs DFT eigenvalues."""
    systems = {n: discrete.assemble_nfm(*NARROW, EXT, M1, M2, n_points=n) for n in (5, 11, 40, 81)}
    worst_v = 0.0
    for system in systems.values():
        dense = discrete.solve_dense(system)
        fast = discrete.solve_circulant_dft(system)
        worst_v = max(worst_v, relative_gap(fast.vector, dense.vector))
    system = systems[11]
    z1, z2 = system.medium1.Z, system.medium2.Z
    worst_q = 0.0
    sums = discrete.q_sum_coefficients(np.arange(11), 11, *NARROW, EXT, M1, M2)
    for m in range(11):
        dft = (
            np.fft.fft(system.rhs[:11])[m] / (11 * system.excitation.amplitude * z1),
            np.fft.fft(system.z11)[m] / (11 * z1),
            np.fft.fft(system.z12)[m] / (11 * 1j),
            np.fft.fft(system.z21)[m] / (11 * z2),
            np.fft.fft(system.z22)[m] / (11 * 1j),
        )
        for got, want in zip((sums.d[m], sums.b1[m], sums.b2[m], sums.b3[m], sums.b4[m]), dft):
            worst_q = max(worst_q, abs(got - want) / abs(want))
    return [
        ("dft_vs_dense", worst_v < 1e-9,
         "%.2e relative l-inf (< 1e-9) over N in {5, 11, 40, 81}" % worst_v),
        ("qsums_vs_dft", worst_q < 1e-9, "%.2e relative (< 1e-9) at N = 11" % worst_q),
    ]


def currents_track_densities():
    """Criterion 04: direct-route currents vs the densities, placement-free."""
    phis = 2.0 * np.pi * np.arange(40) / 40.0
    wants = [continuous.density_series(exc, phis, RHO_CYL, M1, M2) for exc in (EXT, INT)]
    # per placement, the (J, K) currents of each excitation, from one factorisation
    currents = []
    for geo in (NARROW, WIDE):
        system = discrete.assemble_nfm(*geo, EXT, M1, M2, n_points=40)
        solved = discrete.solve(system, shared=(discrete.excite(system, INT),))
        currents.append([discrete.normalized_currents(sol) for sol in solved])
    worst_fit = max(
        relative_gap(got, want)
        for per_exc in currents
        for got_pair, want_pair in zip(per_exc, wants)
        for got, want in zip(got_pair, want_pair)
    )
    snug, wide = currents
    worst_cross = max(
        relative_gap(a, b) for pair_a, pair_b in zip(snug, wide) for a, b in zip(pair_a, pair_b)
    )
    return [
        ("currents_vs_densities", worst_fit < 1e-3,
         "%.2e relative l-inf (< 1e-3) at N = 40 for snug and wide placements, "
         "both excitations" % worst_fit),
        ("placements_agree", worst_cross < 1e-3,
         "snug vs wide currents %.2e relative l-inf (< 1e-3)" % worst_cross),
    ]


def mas_flags_follow_placement():
    """Criterion 06: source-route flags match the divergence predictions."""
    matches = 0
    total = 0
    nfm_flags = 0
    excitations = (EXT, INT)
    for inner in (0.5, 1.35, 1.8):
        for outer in (2.5, 3.2, 7.0):
            # each (placement, route) is scanned once for both excitations
            geo = placement(inner, outer)
            scans = diagnostics.oscillation_scan("mas", geo, excitations, (M1, M2), (40, 46))
            for exc, scan in zip(excitations, scans):
                flagged = scan.flagged_surfaces()
                for surface, verdict in diagnostics.predict_mas_divergence(
                    exc.region, inner, outer, RHO_CYL, exc.rho
                ).items():
                    total += 1
                    matches += (surface in flagged) == (verdict == "diverges")
            scans = diagnostics.oscillation_scan("nfm", geo, excitations, (M1, M2), (40, 46))
            nfm_flags += sum(len(scan.flagged_surfaces()) for scan in scans)
    return [
        ("mas_flags_match_predictions", matches == total == 36,
         "%d/%d surfaces of the 3x3 placement grid per excitation at N in "
         "{40, 46} (need 36/36)" % (matches, total)),
        ("nfm_never_flags", nfm_flags == 0,
         "%d flagged direct-route scans on the same grid (need 0)" % nfm_flags),
    ]


# the groups `cylwave validate` runs, in order
GROUPS = {
    "specfun": (special_function_identities,),
    "exact": (density_reconstruction,),
    "discrete": (dft_solver, currents_track_densities),
    "concordance": (mas_flags_follow_placement,),
}
