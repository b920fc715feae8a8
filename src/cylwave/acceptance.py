"""Acceptance criteria 01-10, defined once.

Each criterion runs its cross-check on the package's circular reference
problem (boundary radius 2, relative permittivity 4.2, an external source
at radius 4 or an internal one at radius 1), criteria 08 and 09 also on a
2.0/1.6 ellipse, and returns its named checks as (name, passed, detail)
triples; every detail carries the measured number and its tolerance.
``cylwave validate`` prints the checks and the acceptance test suite
asserts them, so both certify the same thing.
"""

import numpy as np

from . import continuous, diagnostics, discrete, exact, fields, specfun
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
ELLIPSE = BoundaryCurve.ellipse(2.0, 1.6)
# the extreme ellipse placement: aux scales 0.33 and 5.0
ELL_AUX = (
    ELLIPSE,
    AuxiliarySurface.from_scale(ELLIPSE, 0.33),
    AuxiliarySurface.from_scale(ELLIPSE, 5.0),
)


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
        worst_v = max(worst_v, discrete.relative_gap(fast.vector, dense.vector))
    system = systems[11]
    z1, z2 = system.medium1.Z, system.medium2.Z
    got = discrete.q_sum_coefficients(11, *NARROW, EXT, M1, M2)
    columns = (system.rhs[:11], *system.blocks.reshape(4, 11))
    scales = np.array([11 * system.excitation.amplitude * z1, 11 * z1, 11j, 11 * z2, 11j])
    want = np.fft.fft(np.stack(columns)) / scales[:, None]
    worst_q = float(np.max(np.abs(got - want) / np.abs(want)))
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
        discrete.relative_gap(got, want)
        for per_exc in currents
        for got_pair, want_pair in zip(per_exc, wants)
        for got, want in zip(got_pair, want_pair)
    )
    snug, wide = currents
    worst_cross = max(
        discrete.relative_gap(a, b)
        for pair_a, pair_b in zip(snug, wide)
        for a, b in zip(pair_a, pair_b)
    )
    return [
        ("currents_vs_densities", worst_fit < 1e-3,
         "%.2e relative l-inf (< 1e-3) at N = 40 for snug and wide placements, "
         "both excitations" % worst_fit),
        ("placements_agree", worst_cross < 1e-3,
         "snug vs wide currents %.2e relative l-inf (< 1e-3)" % worst_cross),
    ]


def _field_errors(excitation, solutions, offset=0.0):
    """field_error of each solution on rings k rho = 10 and 1, 36 angles shifted by offset."""
    angles = 2.0 * np.pi * (np.arange(36) + offset) / 36.0
    refs = diagnostics.ring_references(CIRCLE, excitation, (M1, M2), ((10.0, 1), (1.0, 2)), angles)
    return [diagnostics.field_error(solution, refs) for solution in solutions]


def fields_match_series():
    """Criterion 05: direct-route fields vs the series on rings both sides."""
    worst = 0.0
    # the internal filament lies on the inner ring, so its angles are staggered
    for exc, offset in ((EXT, 0.0), (INT, 0.5)):
        solution = discrete.solve(discrete.assemble_nfm(*NARROW, exc, M1, M2, n_points=40))
        worst = max(worst, *_field_errors(exc, (solution,), offset))
    return [
        ("fields_vs_series", worst < 1e-3,
         "solved fields vs series %.2e relative (< 1e-3) over 36 angles on rings "
         "k rho = 10 and 1, N = 40, both excitations" % worst),
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
                for surface, verdict in diagnostics.predict_mas_divergence(geo, exc).items():
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


def mas_breakdown_ordering():
    """Criterion 07: source-route currents blow up where direct-route ones converge.

    Both routes' field errors at this placement are float64 roundoff that
    grows with the condition number, and at equal N they agree within a
    few times; the contrast the routes show is in their currents.
    """
    mas40 = discrete.solve_dense(discrete.assemble_mas(*WIDE, EXT, M1, M2, n_points=40))
    mas46 = discrete.solve_dense(discrete.assemble_mas(*WIDE, EXT, M1, M2, n_points=46))
    nfm40 = discrete.solve_dense(discrete.assemble_nfm(*WIDE, EXT, M1, M2, n_points=40))
    growth = max(
        float(np.max(np.abs(getattr(mas46, block)))) / float(np.max(np.abs(getattr(mas40, block))))
        for block in ("electric", "magnetic")
    )
    phis = 2.0 * np.pi * np.arange(40) / 40.0
    densities = continuous.density_series(EXT, phis, RHO_CYL, M1, M2)
    fit = max(
        discrete.relative_gap(got, want)
        for got, want in zip(discrete.normalized_currents(nfm40), densities)
    )
    peak = max(float(np.max(np.abs(d))) for d in densities)
    mas_peak = max(float(np.max(np.abs(c))) for c in discrete.normalized_currents(mas40))
    ratio = mas_peak / peak
    e_nfm, e_mas = _field_errors(EXT, (nfm40, mas40))
    return [
        ("mas_currents_grow", growth > 10.0,
         "diverging-surface current amplitude grows %.1fx from N = 40 to 46 (> 10x)" % growth),
        ("nfm_currents_fit", fit < 1e-3,
         "direct-route normalized currents match the densities to %.2e (< 1e-3) at N = 40"
         % fit),
        ("mas_peak_exceeds_densities", ratio >= 10.0,
         "source-route peak %.3g is %.3gx the densities' peak %.3g (>= 10x) at N = 40; "
         "field errors there: direct %.2e, source %.2e" % (mas_peak, ratio, peak, e_nfm, e_mas)),
    ]


def ellipse_residuals_and_flags():
    """Criterion 08: direct-route boundary residuals and both routes' flags on ELL_AUX."""
    res, cond = {}, {}
    for exc in (EXT, INT):
        for n in (40, 60):
            sol = discrete.solve(discrete.assemble_nfm(*ELL_AUX, exc, M1, M2, n_points=n))
            res[exc.region, n] = fields.boundary_residuals(sol, n_test=n)
            cond[n] = max(cond.get(n, 0.0), sol.cond_estimate)
    small = all(max(res[region, 40]) < 1e-2 for region in ("external", "internal"))
    shrinking = all(
        res[region, 60][i] < res[region, 40][i]
        for region in ("external", "internal")
        for i in (0, 1)
    )
    mas_flagged, nfm_flagged = (
        diagnostics.oscillation_scan(method, ELL_AUX, EXT, (M1, M2), (40, 44)).flagged_surfaces()
        for method in ("mas", "nfm")
    )
    return [
        ("residuals_small", small,
         "boundary residuals on C (E, H) at N = 40: ext (%.2e, %.2e), int (%.2e, %.2e), "
         "each below 1e-2 (cond %.1e)" % (*res["external", 40], *res["internal", 40], cond[40])),
        ("residuals_shrink", shrinking,
         "at N = 60: ext (%.2e, %.2e), int (%.2e, %.2e), each below its N = 40 value "
         "(cond %.1e)" % (*res["external", 60], *res["internal", 60], cond[60])),
        ("routes_contrast", bool(mas_flagged) and not nfm_flagged,
         "source route flags at N = 44 %s while the direct route stays clean %s"
         % (bool(mas_flagged), not nfm_flagged)),
    ]


def transformed_nfm_equals_mas():
    """Criterion 09: the row-scaled transpose of the direct matrix is the source matrix."""
    worst = 0.0
    # (diag(-k1/4, +k2/4) A_nfm)^T of the full direct matrix
    rows = np.repeat([-M1.k / 4.0, M2.k / 4.0], 8)[:, None]
    for geo in (NARROW, ELL_AUX):
        direct = discrete.assemble_nfm(*geo, EXT, M1, M2, n_points=8)
        reference = discrete.assemble_mas(*geo, EXT, M1, M2, n_points=8)
        transformed = (rows * direct.matrix).T.reshape(2, 8, 2, 8)
        blocks = reference.matrix.reshape(2, 8, 2, 8)
        for i, j in np.ndindex(2, 2):
            worst = max(worst, discrete.relative_gap(transformed[i, :, j], blocks[i, :, j]))
    return [
        ("transpose_vs_source", worst < 1e-14,
         "row-scaled transpose of the direct matrix vs the assembled source matrix "
         "%.2e per block (< 1e-14) on circle and ellipse at N = 8" % worst),
    ]


def mode_amplitudes_reach_limits():
    """Criterion 10: DFT mode amplitudes at N = 201 vs the placement-free limits."""
    worst = 0.0
    for exc in (EXT, INT):
        sol = discrete.solve_circulant_dft(
            discrete.assemble_nfm(*NARROW, exc, M1, M2, n_points=201)
        )
        # the placement-free limit is 2 pi rho_cyl times the density coefficients
        limits = 4.0 * np.pi * continuous.mode_solve(np.arange(21), exc, RHO_CYL, M1, M2)
        worst = max(worst, np.max(np.abs(sol.spectra[:, :21] - limits) / np.abs(limits)))
    return [
        ("modes_vs_limits", worst < 1e-6,
         "solved mode amplitudes at N = 201 vs placement-free limits %.2e relative (< 1e-6) "
         "for modes m <= 20, both excitations" % worst),
    ]


# the groups `cylwave validate` runs, in order
GROUPS = {
    "specfun": (special_function_identities,),
    "exact": (density_reconstruction,),
    "discrete": (dft_solver, currents_track_densities),
    "concordance": (mas_flags_follow_placement,),
    "routes": (
        fields_match_series,
        mas_breakdown_ordering,
        transformed_nfm_equals_mas,
        mode_amplitudes_reach_limits,
    ),
    "ellipse": (ellipse_residuals_and_flags,),
}
