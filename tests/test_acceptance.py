"""End-to-end acceptance gate: one verdict line per shipped guarantee.

Every test here prints a single "criterion NN PASS/FAIL" line carrying
the measured numbers and its runtime before asserting, so a red run
still reports what was actually observed; run pytest with -s to see the
green lines too. Each criterion is defined once, in cylwave.acceptance,
which ``cylwave validate`` runs too; the tests add the runtime budgets,
which makes this module the regression gate for accuracy and speed at
once. Unit-level coverage lives in the per-module test files; nothing
here should be the first place a plain bug shows up.
"""

import time

from cylwave import acceptance


def _gate(number, criterion, budget):
    """Time one criterion of cylwave.acceptance and hold it to its budget."""
    start = time.perf_counter()
    checks = criterion()
    elapsed = time.perf_counter() - start
    passed = all(ok for _, ok, _ in checks) and elapsed < budget
    line = "criterion %02d %s: %s; %.1fs (< %gs)" % (
        number,
        "PASS" if passed else "FAIL",
        "; ".join("%s %s" % (name, detail) for name, _, detail in checks),
        elapsed,
        budget,
    )
    print(line)
    assert passed, line


def test_criterion_01_special_function_identities():
    _gate(1, acceptance.special_function_identities, 5.0)


def test_criterion_02_density_reconstruction_matches_series():
    _gate(2, acceptance.density_reconstruction, 10.0)


def test_criterion_03_dft_solver_matches_dense():
    _gate(3, acceptance.dft_solver, 30.0)


def test_criterion_04_nfm_currents_track_densities():
    _gate(4, acceptance.currents_track_densities, 20.0)


def test_criterion_05_nfm_fields_match_series():
    _gate(5, acceptance.fields_match_series, 10.0)


def test_criterion_06_mas_flags_follow_placement_grid():
    _gate(6, acceptance.mas_flags_follow_placement, 120.0)


def test_criterion_07_mas_breakdown_ordering():
    _gate(7, acceptance.mas_breakdown_ordering, 10.0)


def test_criterion_08_ellipse_residuals_and_flags():
    _gate(8, acceptance.ellipse_residuals_and_flags, 60.0)


def test_criterion_09_transformed_nfm_equals_assembled_mas():
    _gate(9, acceptance.transformed_nfm_equals_mas, 1.0)


def test_criterion_10_mode_amplitudes_reach_limits():
    _gate(10, acceptance.mode_amplitudes_reach_limits, 20.0)
