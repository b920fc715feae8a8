"""End-to-end acceptance gate: one verdict line per shipped guarantee.

Every test here prints a single "criterion NN PASS/FAIL" line carrying
the measured numbers and its runtime before asserting, so a red run
still reports what was actually observed; run pytest with -s to see the
green lines too. The tolerances and runtime budgets are part of each
verdict, which makes this module the regression gate for accuracy and
speed at once. Criteria 01-04 and 06 are defined in cylwave.acceptance,
which ``cylwave validate`` runs too; the tests here add the runtime
budgets. Unit-level coverage lives in the per-module test files; nothing
here should be the first place a plain bug shows up.
"""

import time

import numpy as np

from cylwave import acceptance, continuous, diagnostics, discrete, fields
from cylwave.acceptance import EXT, INT, M1, M2, NARROW, WIDE
from cylwave.acceptance import relative_gap as _rel
from cylwave.exact import exact_ring
from cylwave.geometry import AuxiliarySurface, BoundaryCurve

ELLIPSE = BoundaryCurve.ellipse(2.0, 1.6)
ELL_AUX = (
    ELLIPSE,
    AuxiliarySurface.from_scale(ELLIPSE, 0.33),
    AuxiliarySurface.from_scale(ELLIPSE, 5.0),
)


def _criterion(number, passed, detail):
    line = "criterion %02d %s: %s" % (number, "PASS" if passed else "FAIL", detail)
    print(line)
    assert passed, line


def _gate(number, criterion, budget):
    """Time one criterion of cylwave.acceptance and hold it to its budget."""
    start = time.perf_counter()
    checks = criterion()
    elapsed = time.perf_counter() - start
    _criterion(
        number,
        all(ok for _, ok, _ in checks) and elapsed < budget,
        "%s; %.1fs (< %gs)"
        % ("; ".join("%s %s" % (name, detail) for name, _, detail in checks), elapsed, budget),
    )


def _field_error(solution, excitation, rho, region, offset=0.0):
    angles = 2.0 * np.pi * (np.arange(36) + offset) / 36.0
    want = exact_ring(excitation, region, rho, angles, 2.0, M1, M2).value
    got = fields.field_from_discrete(solution, rho, angles, region=region).e_z
    return _rel(got, want)


def test_criterion_01_special_function_identities():
    _gate(1, acceptance.special_function_identities, 5.0)


def test_criterion_02_density_reconstruction_matches_series():
    _gate(2, acceptance.density_reconstruction, 10.0)


def test_criterion_03_dft_solver_matches_dense():
    _gate(3, acceptance.dft_solver, 30.0)


def test_criterion_04_nfm_currents_track_densities():
    _gate(4, acceptance.currents_track_densities, 20.0)


def test_criterion_05_nfm_fields_match_series():
    start = time.perf_counter()
    worst = 0.0
    for exc, offset in ((EXT, 0.0), (INT, 0.5)):
        sol = discrete.solve(discrete.assemble_nfm(*NARROW, exc, M1, M2, n_points=40))
        for rho, region in ((10.0, 1), (1.0, 2)):
            worst = max(worst, _field_error(sol, exc, rho, region, offset=offset))
    elapsed = time.perf_counter() - start
    _criterion(
        5,
        worst < 1e-3 and elapsed < 10.0,
        "solved fields vs series %.2e relative (< 1e-3) over 36 angles on "
        "rings k rho = 10 and 1, N = 40, both excitations, %.1fs (< 10s)"
        % (worst, elapsed),
    )


def test_criterion_06_mas_flags_follow_placement_grid():
    _gate(6, acceptance.mas_flags_follow_placement, 120.0)


def test_criterion_07_mas_breakdown_ordering():
    # Both routes' field errors at this placement are float64 roundoff that
    # grows with the condition number, and at equal N they agree within a
    # few times; the contrast the routes show is in their currents.
    start = time.perf_counter()
    mas40 = discrete.solve_dense(discrete.assemble_mas(*WIDE, EXT, M1, M2, n_points=40))
    mas46 = discrete.solve_dense(discrete.assemble_mas(*WIDE, EXT, M1, M2, n_points=46))
    nfm40 = discrete.solve_dense(discrete.assemble_nfm(*WIDE, EXT, M1, M2, n_points=40))
    growth = 0.0
    for block in ("electric", "magnetic"):
        amp40 = float(np.max(np.abs(getattr(mas40, block))))
        amp46 = float(np.max(np.abs(getattr(mas46, block))))
        growth = max(growth, amp46 / amp40)
    phis = 2.0 * np.pi * np.arange(40) / 40.0
    densities = continuous.density_series(EXT, phis, 2.0, M1, M2)
    fit = max(_rel(got, want) for got, want in zip(discrete.normalized_currents(nfm40), densities))
    peak = max(float(np.max(np.abs(d))) for d in densities)
    mas_peak = max(float(np.max(np.abs(c))) for c in discrete.normalized_currents(mas40))
    ratio = mas_peak / peak
    e_nfm = max(_field_error(nfm40, EXT, 10.0, 1), _field_error(nfm40, EXT, 1.0, 2))
    e_mas = max(_field_error(mas40, EXT, 10.0, 1), _field_error(mas40, EXT, 1.0, 2))
    elapsed = time.perf_counter() - start
    _criterion(
        7,
        growth > 10.0 and fit < 1e-3 and ratio >= 10.0 and elapsed < 10.0,
        "diverging-surface current amplitude grows %.1fx from N = 40 to 46 "
        "(> 10x); at N = 40 the direct route's normalized currents match the "
        "densities to %.2e (< 1e-3) while the source route's peak %.3g is "
        "%.3gx the densities' peak %.3g (>= 10x); field errors at N = 40: "
        "direct %.2e, source %.2e; %.1fs (< 10s)"
        % (growth, fit, mas_peak, ratio, peak, e_nfm, e_mas, elapsed),
    )


def test_criterion_08_ellipse_residuals_and_flags():
    start = time.perf_counter()
    res = {}
    cond = {}
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
    mas_flagged = diagnostics.oscillation_scan(
        "mas", ELL_AUX, EXT, (M1, M2), (40, 44)
    ).flagged_surfaces()
    nfm_flagged = diagnostics.oscillation_scan(
        "nfm", ELL_AUX, EXT, (M1, M2), (40, 44)
    ).flagged_surfaces()
    contrast = bool(mas_flagged) and not nfm_flagged
    elapsed = time.perf_counter() - start
    _criterion(
        8,
        small and shrinking and contrast and elapsed < 60.0,
        "boundary residuals on C (E, H) ext N40 (%.2e, %.2e) N60 (%.2e, %.2e), "
        "int N40 (%.2e, %.2e) N60 (%.2e, %.2e): below 1e-2 at N40 %s, "
        "shrinking to N60 %s (cond %.1e at N40, %.1e at N60); source route "
        "flags at N = 44 %s while the direct route stays clean %s; %.0fs (< 60s)"
        % (
            *res["external", 40],
            *res["external", 60],
            *res["internal", 40],
            *res["internal", 60],
            small,
            shrinking,
            cond[40],
            cond[60],
            bool(mas_flagged),
            not nfm_flagged,
            elapsed,
        ),
    )


def test_criterion_09_transformed_nfm_equals_assembled_mas():
    start = time.perf_counter()
    worst = 0.0
    # the row-scaled transpose of the full direct matrix, (diag(-k1/4, +k2/4) A_nfm)^T
    rows = np.repeat([-M1.k / 4.0, M2.k / 4.0], 8)[:, None]
    for geo in (NARROW, ELL_AUX):
        direct = discrete.assemble_nfm(*geo, EXT, M1, M2, n_points=8)
        reference = discrete.assemble_mas(*geo, EXT, M1, M2, n_points=8)
        transformed = (rows * direct.matrix).T.reshape(2, 8, 2, 8)
        for i, (_, block) in enumerate(reference.named_blocks()):
            worst = max(worst, _rel(transformed[i // 2, :, i % 2], block))
    elapsed = time.perf_counter() - start
    _criterion(
        9,
        worst < 1e-14 and elapsed < 1.0,
        "row-scaled transpose of the direct matrix vs the assembled source matrix "
        "%.2e per block (< 1e-14) on circle and ellipse at N = 8, %.2fs (< 1s)"
        % (worst, elapsed),
    )


def test_criterion_10_mode_amplitudes_reach_limits():
    start = time.perf_counter()
    worst = 0.0
    for exc in (EXT, INT):
        sol = discrete.solve_circulant_dft(
            discrete.assemble_nfm(*NARROW, exc, M1, M2, n_points=201)
        )
        i_modes, k_modes = discrete.mode_amplitudes(sol)
        for m in range(21):
            # the placement-free limit is 2 pi rho_cyl times the density coefficient
            modes = continuous.mode_solve(m, exc, 2.0, M1, M2)
            electric, magnetic = 4.0 * np.pi * modes.electric, 4.0 * np.pi * modes.magnetic
            worst = max(
                worst,
                abs(201 * i_modes[m] - electric) / abs(electric),
                abs(201 * k_modes[m] - magnetic) / abs(magnetic),
            )
    elapsed = time.perf_counter() - start
    _criterion(
        10,
        worst < 1e-6 and elapsed < 20.0,
        "solved mode amplitudes at N = 201 vs placement-free limits %.2e "
        "relative (< 1e-6) for modes m <= 20, both excitations, %.1fs (< 20s)"
        % (worst, elapsed),
    )
