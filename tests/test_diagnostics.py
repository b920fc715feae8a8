"""Divergence prediction, oscillation scans, and convergence sweeps."""

import dataclasses
import threading

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from cylwave import diagnostics, discrete, fields
from cylwave.exact import Medium, exact_ring
from cylwave.geometry import AuxiliarySurface, BoundaryCurve, Excitation

M1 = Medium()
M2 = Medium(4.2, 1.0)
CIRCLE = BoundaryCurve.circle(2.0)
EXT = Excitation("external", 4.0)
INT = Excitation("internal", 1.0)

# straddles every placement threshold for rho_cyl=2 with rho_fil=4 outside
# (image radius 1) and rho_fil=1 inside (image radius 4), staying clear of
# the thresholds themselves by well over 5 percent
GRID_INNER = (0.5, 1.35, 1.8)
GRID_OUTER = (2.5, 3.2, 7.0)


def _geometry(curve, inner, outer, by="radius"):
    place = AuxiliarySurface.from_radius if by == "radius" else AuxiliarySurface.from_scale
    return (curve, place(curve, inner), place(curve, outer))


WIDE = _geometry(CIRCLE, 0.5, 10.0)
NARROW = _geometry(CIRCLE, 1.5, 2.5)
ELLIPSE = _geometry(BoundaryCurve.ellipse(2.0, 1.6), 0.7, 1.6, by="scale")


# -- predict_mas_divergence --------------------------------------------------


def _predict(side, inner, outer, rho_fil):
    """predict_mas_divergence on the circle of radius 2 with aux circles at these radii."""
    excitation = Excitation(side, rho_fil)
    return diagnostics.predict_mas_divergence(_geometry(CIRCLE, inner, outer), excitation)


def test_wide_external_placement_breaks_both_surfaces():
    predicted = diagnostics.predict_mas_divergence(WIDE, EXT)
    assert predicted == {"aux1": "diverges", "aux2": "diverges"}
    assert list(predicted) == ["aux1", "aux2"]


def test_narrow_external_placement_is_safe():
    predicted = diagnostics.predict_mas_divergence(NARROW, EXT)
    assert predicted == {"aux1": "converges", "aux2": "converges"}


def test_surface_on_the_threshold_counts_as_diverging():
    assert _predict("internal", 1.0, 3.0, 1.0)["aux1"] == "diverges"
    assert _predict("external", 1.5, 4.0, 4.0)["aux2"] == "diverges"
    assert _predict("external", 1.0, 2.5, 4.0)["aux1"] == "diverges"


def test_internal_thresholds_swap_roles():
    # filament radius limits the inner surface, its image limits the outer
    assert _predict("internal", 1.5, 3.9, 1.0)["aux2"] == "converges"
    assert _predict("internal", 1.5, 4.1, 1.0)["aux2"] == "diverges"
    assert _predict("internal", 0.9, 3.0, 1.0)["aux1"] == "diverges"
    assert _predict("internal", 1.1, 3.0, 1.0)["aux1"] == "converges"


def test_prediction_rejects_impossible_setups():
    predict = diagnostics.predict_mas_divergence
    with pytest.raises(ValueError, match="circular boundary"):
        predict(ELLIPSE, EXT)
    with pytest.raises(ValueError, match="inner surface first"):
        predict((CIRCLE, NARROW[2], NARROW[1]), EXT)
    # a surface placed against another boundary than the one it is paired with
    stray = AuxiliarySurface.from_radius(BoundaryCurve.circle(3.0), 2.5)
    with pytest.raises(ValueError, match="strictly inside"):
        predict((CIRCLE, stray, NARROW[2]), EXT)
    with pytest.raises(ValueError, match="external excitation"):
        predict(NARROW, Excitation("external", 1.0))
    with pytest.raises(ValueError, match="internal excitation"):
        predict(NARROW, Excitation("internal", 4.0))


def test_prediction_gives_non_finite_radii_no_verdict():
    # The five-scalar signature read a nan filament radius as "diverges" on
    # both surfaces, an infinite one as "converges" on both, and an infinite
    # outer surface as "diverges". None of them is a placement: the checked
    # source and surfaces refuse them before any verdict.
    for rho_fil in (np.nan, np.inf):
        with pytest.raises(ValueError, match="positive and finite"):
            diagnostics.predict_mas_divergence(NARROW, Excitation("external", rho_fil))
    with pytest.raises(ValueError, match="positive and finite"):
        diagnostics.predict_mas_divergence(_geometry(CIRCLE, 1.5, np.inf), EXT)


# -- oscillation_index -------------------------------------------------------


def test_constant_vector_has_no_oscillation():
    assert diagnostics.oscillation_index(np.full(40, 3.7 + 0.2j)) == 0.0


def test_alternating_vector_is_pure_oscillation():
    assert diagnostics.oscillation_index((-1.0) ** np.arange(40)) == pytest.approx(1.0)


def test_smooth_vector_scores_near_zero():
    phis = 2.0 * np.pi * np.arange(48) / 48
    assert diagnostics.oscillation_index(np.cos(2 * phis) + 1j * np.sin(phis)) < 1e-12


def test_empty_vector_is_rejected():
    with pytest.raises(ValueError, match="at least one"):
        diagnostics.oscillation_index([])


@pytest.mark.parametrize("shape", [(3, 4), (1, 12), (12, 1), (2, 2, 3)])
def test_an_input_of_more_than_one_dimension_is_refused_by_name(shape):
    # used to: the input was flattened into one index of no single vector
    with pytest.raises(ValueError, match=r"^values must be one vector, got shape \(%s" % shape[0]):
        diagnostics.oscillation_index(np.ones(shape))
    assert diagnostics.oscillation_index(np.ones(shape).ravel()) == 0.0


@settings(deadline=None, max_examples=60)
@given(
    st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=200),
    st.floats(-1e6, 1e6),
    st.floats(0.01, 100.0),
)
def test_index_is_bounded_and_shift_and_scale_invariant(values, shift, scale):
    vec = np.asarray(values)
    # variation below the rounding grain of the shifted values cannot survive
    assume(np.ptp(vec) == 0.0 or np.ptp(vec) > 1e-6 * (1.0 + abs(shift)))
    index = diagnostics.oscillation_index(vec)
    assert 0.0 <= index <= 1.0
    assert diagnostics.oscillation_index(scale * vec) == pytest.approx(index, abs=1e-9)
    assert diagnostics.oscillation_index(vec + shift) == pytest.approx(index, abs=1e-6)


# -- oscillation_scan --------------------------------------------------------


def test_wide_mas_scan_flags_fast_growing_sawtooth_currents():
    scan = diagnostics.oscillation_scan("mas", WIDE, EXT, (M1, M2), [40, 46])
    assert scan.method == "mas"
    assert scan.n_points == (40, 46)
    assert scan.failures == {}
    assert set(scan.reports) == {"aux1", "aux2"}
    outer = scan.reports["aux2"]
    assert outer.flagged.shape == (2,)
    assert outer.growth_factor[0] == 1.0
    assert not outer.flagged[0]
    assert outer.growth_factor[1] > 10.0
    assert outer.oscillation_index[1] > 0.5
    assert outer.flagged[1]
    assert "aux2" in scan.flagged_surfaces()


def test_narrow_mas_scan_stays_clean():
    scan = diagnostics.oscillation_scan("mas", NARROW, EXT, (M1, M2), [40, 46])
    assert scan.flagged_surfaces() == ()
    for report in scan.reports.values():
        assert report.flagged.shape == (2,)
        assert np.all(report.oscillation_index < 0.3)
        assert np.all(report.growth_factor < 2.0)


def test_nfm_currents_stay_tame_where_mas_breaks():
    scan = diagnostics.oscillation_scan("nfm", WIDE, EXT, (M1, M2), [40, 46])
    assert set(scan.reports) == {"electric", "magnetic"}
    assert scan.flagged_surfaces() == ()
    for report in scan.reports.values():
        assert report.flagged.shape == (2,)
        assert np.all(report.oscillation_index < 0.2)
        assert np.all((0.5 < report.growth_factor) & (report.growth_factor < 2.0))


@pytest.mark.parametrize("excitation", [EXT, INT], ids=["external", "internal"])
def test_flags_land_exactly_where_predicted_on_a_threshold_grid(excitation):
    for rho_inner in GRID_INNER:
        for rho_outer in GRID_OUTER:
            geometry = _geometry(CIRCLE, rho_inner, rho_outer)
            predicted = diagnostics.predict_mas_divergence(geometry, excitation)
            scan = diagnostics.oscillation_scan("mas", geometry, excitation, (M1, M2), [40, 46])
            flagged = scan.flagged_surfaces()
            for surface, verdict in predicted.items():
                hit = surface in flagged
                assert hit == (verdict == "diverges"), (
                    excitation.region,
                    rho_inner,
                    rho_outer,
                    surface,
                    verdict,
                )
            nfm = diagnostics.oscillation_scan("nfm", geometry, excitation, (M1, M2), [40, 46])
            assert nfm.flagged_surfaces() == ()


def test_failed_sizes_are_recorded_and_skipped():
    scan = diagnostics.oscillation_scan("mas", NARROW, EXT, (M1, M2), [3, 40])
    assert scan.n_points == (40,)
    assert list(scan.failures) == [3]
    assert "collocation points" in scan.failures[3]
    assert np.array_equal(scan.reports["aux1"].growth_factor, [1.0])


def test_growth_after_a_zero_amplitude_is_one_while_it_stays_zero_else_infinite():
    amplitude = np.array([0.0, 0.0, 2.0, 3.0, 0.0])
    assert np.array_equal(diagnostics._growth(amplitude), [1.0, 1.0, np.inf, 1.5, 0.0])
    assert diagnostics._growth(amplitude[:0]).shape == (0,)


def test_sizes_are_deduplicated_and_sorted():
    scan = diagnostics.oscillation_scan("mas", NARROW, EXT, (M1, M2), [46, 40, 46])
    assert scan.n_points == (40, 46)


def test_unknown_method_and_empty_sweep_are_rejected():
    with pytest.raises(ValueError, match="method"):
        diagnostics.oscillation_scan("fem", NARROW, EXT, (M1, M2), [40])
    with pytest.raises(ValueError, match="n_list"):
        diagnostics.oscillation_scan("mas", NARROW, EXT, (M1, M2), [])


@pytest.mark.parametrize(
    "excitation, n_list, message",
    [
        ((), [40], "^excitation must be a line source or a non-empty sequence of them$"),
        ([], [40], "^excitation must be a line source or a non-empty sequence of them$"),
        ((EXT, 3), [40], "^excitation must be a line source, got 3$"),
        (EXT, 40, "^n_list must be a collection of integers, got 40$"),
        (EXT, None, "^n_list must be a collection of integers, got None$"),
        ((EXT, INT), 40.0, "^n_list must be a collection of integers, got 40.0$"),
    ],
    ids=["no-excitation", "empty-list", "not-an-excitation", "int-n_list", "None-n_list",
         "float-n_list"],
)
def test_a_scan_of_nothing_is_refused_by_name(excitation, n_list, message):
    # used to: an empty tuple returned (), an int n_list raised a bare
    # TypeError, and [] and (EXT, 3) a bare AttributeError in assembly
    with pytest.raises(ValueError, match=message):
        diagnostics.oscillation_scan("nfm", NARROW, excitation, (M1, M2), n_list)


@pytest.mark.parametrize("method", ["nfm", "mas"])
@pytest.mark.parametrize(
    "geometry, n_list",
    [(WIDE, [40, 46, 3]), (ELLIPSE, [16, 20, 3])],
    ids=["circle", "ellipse"],
)
def test_scans_solve_on_the_calling_thread(monkeypatch, geometry, n_list, method):
    want = diagnostics.oscillation_scan(method, geometry, EXT, (M1, M2), n_list)
    solve, threads = discrete.solve, []

    def recorded(system, shared=None):
        threads.append(threading.get_ident())
        return solve(system, shared)

    monkeypatch.setattr(discrete, "solve", recorded)
    got = diagnostics.oscillation_scan(method, geometry, EXT, (M1, M2), n_list)
    assert threads == [threading.get_ident()] * 2
    assert got.n_points == want.n_points == tuple(sorted(n_list))[1:]
    _same_reports(got.reports, want.reports)
    assert got.failures == want.failures
    assert list(got.failures) == [3]
    assert "collocation points" in got.failures[3]
    sweep = diagnostics.convergence_sweep(method, geometry, EXT, (M1, M2), n_list[:2])
    assert tuple(sweep.errors) == tuple(n_list[:2])
    assert threads == [threading.get_ident()] * 4


def _same_reports(got, want):
    assert list(got) == list(want)
    for label, report in want.items():
        for name in (entry.name for entry in dataclasses.fields(report)):
            assert np.array_equal(getattr(got[label], name), getattr(report, name))


def _same_scan(got, want):
    assert (got.method, got.n_points, got.failures) == (want.method, want.n_points, want.failures)
    _same_reports(got.reports, want.reports)
    for n, solution in want.solutions.items():
        assert got.solutions[n].vector.tobytes() == solution.vector.tobytes()


@pytest.mark.parametrize("method", ["nfm", "mas"])
@pytest.mark.parametrize(
    "geometry, n_list",
    [(WIDE, [40, 46, 3]), (NARROW, [5, 11, 81]), (ELLIPSE, [16, 20, 3])],
    ids=["circle-wide", "circle-narrow", "ellipse"],
)
def test_a_plural_scan_equals_the_scans_of_its_excitations(geometry, n_list, method):
    excitations = (EXT, INT, Excitation("external", 5.0, phi=0.4, amplitude=2.0 - 1.0j))
    scans = diagnostics.oscillation_scan(method, geometry, excitations, (M1, M2), n_list)
    assert len(scans) == len(excitations)
    for exc, scan in zip(excitations, scans):
        _same_scan(scan, diagnostics.oscillation_scan(method, geometry, exc, (M1, M2), n_list))
        assert all(sol.system.excitation == exc for sol in scan.solutions.values())
    # a list is several excitations too, not one (it used to fail in assembly)
    listed = diagnostics.oscillation_scan(method, geometry, list(excitations), (M1, M2), n_list)
    assert len(listed) == len(scans)
    for got, want in zip(listed, scans):
        _same_scan(got, want)


_SINGLE_EXCITATION_ENTRIES = {
    "assemble_nfm": lambda exc: discrete.assemble_nfm(*WIDE, exc, M1, M2, n_points=16),
    "assemble_mas": lambda exc: discrete.assemble_mas(*WIDE, exc, M1, M2, n_points=16),
    "excite": lambda exc: discrete.excite(
        discrete.assemble_nfm(*WIDE, EXT, M1, M2, n_points=16), exc
    ),
    "predict_mas_divergence": lambda exc: diagnostics.predict_mas_divergence(WIDE, exc),
    "convergence_sweep": lambda exc: diagnostics.convergence_sweep(
        "nfm", WIDE, exc, (M1, M2), [16]
    ),
}


@pytest.mark.parametrize("bad", [[EXT, INT], (EXT,), 3], ids=["list", "tuple", "int"])
@pytest.mark.parametrize("entry", list(_SINGLE_EXCITATION_ENTRIES))
def test_an_entry_of_one_excitation_refuses_anything_else_by_name(entry, bad):
    # used to: a bare AttributeError on validate_against or rho
    with pytest.raises(ValueError, match="^excitation must be a line source, got "):
        _SINGLE_EXCITATION_ENTRIES[entry](bad)


def test_a_misplaced_excitation_fails_only_its_own_scan(monkeypatch):
    outside = Excitation("internal", 3.0)
    calls = []
    solve = discrete.solve

    def recorded(system, shared=None):
        calls.append(1 + len(shared))
        return solve(system, shared)

    monkeypatch.setattr(discrete, "solve", recorded)
    for excitations in ((outside, EXT, INT), (EXT, outside, INT)):
        calls.clear()
        scans = diagnostics.oscillation_scan("mas", WIDE, excitations, (M1, M2), [40, 46])
        # one factorisation per N serves the two excitations that set up
        assert calls == [2, 2]
        for exc, scan in zip(excitations, scans):
            want = diagnostics.oscillation_scan("mas", WIDE, exc, (M1, M2), [40, 46])
            _same_scan(scan, want)
        bad = scans[excitations.index(outside)]
        assert bad.n_points == () and bad.solutions == {}
        assert set(bad.failures) == {40, 46}
        assert "internal excitation must lie inside" in bad.failures[40]


@pytest.mark.parametrize("method", ["nfm", "mas"])
@pytest.mark.parametrize(
    "geometry, path",
    [(WIDE, "solve_circulant_dft"), (ELLIPSE, "solve_dense")],
    ids=["circle", "ellipse"],
)
def test_scans_reach_each_solve_path_through_its_module_attribute(
    monkeypatch, geometry, path, method
):
    # a tracer that wraps the public path functions sees every scan's solves
    original, calls = getattr(discrete, path), []

    def recorded(system, shared=None):
        calls.append((system.n_points, 1 + len(shared or ())))
        return original(system, shared)

    monkeypatch.setattr(discrete, path, recorded)
    scans = diagnostics.oscillation_scan(method, geometry, (EXT, INT), (M1, M2), [16, 20])
    # one factorisation per N serves both sources
    assert calls == [(16, 2), (20, 2)]
    assert [scan.n_points for scan in scans] == [(16, 20)] * 2
    system = discrete.assemble_nfm(*geometry, EXT, M1, M2, n_points=16)
    alone = discrete.solve(system)
    assert isinstance(alone, discrete.DiscreteSolution)
    (shared,) = discrete.solve(system, shared=())
    assert calls[2:] == [(16, 1), (16, 1)]
    assert shared.vector.tobytes() == alone.vector.tobytes()
    assert (shared.path, shared.residual, shared.cond_estimate, shared.dropped) == (
        alone.path, alone.residual, alone.cond_estimate, alone.dropped,
    )


# -- convergence_sweep -------------------------------------------------------


def test_coarse_grids_of_both_methods_converge_on_the_exact_series():
    geometry = _geometry(CIRCLE, 1.0, 4.0)
    for method in ("nfm", "mas"):
        sweep = diagnostics.convergence_sweep(method, geometry, EXT, (M1, M2), [10, 20])
        assert sweep.reference == "exact"
        errors = sweep.errors
        assert errors[20] < errors[10] < 0.2
        assert errors[20] < 1e-3


def test_transparent_cylinder_error_decays_to_quadrature_level():
    # equal media: the series reduces to the bare incident field and the
    # solved currents must cancel their own scattered contribution
    sweep = diagnostics.convergence_sweep("nfm", NARROW, EXT, (M1, M1), [20, 40])
    errors = sweep.errors
    assert errors[40] < errors[20] < 2e-2
    assert errors[40] < 1e-3


def test_ellipse_residual_reference_decreases_for_nfm():
    ellipse = BoundaryCurve.ellipse(2.0, 1.6)
    geometry = _geometry(ellipse, 0.7, 1.6, by="scale")
    sweep = diagnostics.convergence_sweep("nfm", geometry, EXT, (M1, M2), [20, 40, 60])
    assert sweep.reference == "residual"
    errors = list(sweep.errors.values())
    assert list(sweep.errors) == [20, 40, 60]
    assert errors[0] > errors[1] > errors[2]


def test_ellipse_mas_residual_reaches_the_metric_floor():
    ellipse = BoundaryCurve.ellipse(2.0, 1.6)
    geometry = _geometry(ellipse, 0.7, 1.6, by="scale")
    sweep = diagnostics.convergence_sweep("mas", geometry, EXT, (M1, M2), [20, 40, 60])
    errors = sweep.errors
    assert errors[40] < errors[20]
    # the residual is taken on the boundary itself, so it has no floor of its
    # own; 1e-3 is the bound set when the test points straddled the boundary
    # two offsets apart, which held the metric near 2 * offset * wavenumber
    assert errors[60] < 1e-3


@pytest.mark.parametrize(
    "curve, want",
    [
        (CIRCLE, (10.0, 1.0)),
        (BoundaryCurve.ellipse(2.0, 1.6), (8.0, 0.8)),
        (BoundaryCurve.ellipse(2.0, 0.35), (4.0, 0.175)),
    ],
    ids=["circle", "ellipse", "elongated-ellipse"],
)
def test_default_rings_lie_wholly_in_their_regions(curve, want):
    # five times the smallest radius, 1.75, cut through the 2.0/0.35 ellipse
    rings = diagnostics.default_rings(curve, Excitation("external", 30.0))
    assert [region for _, region in rings] == [1, 2]
    assert [rho for rho, _ in rings] == pytest.approx(want, rel=1e-15)
    phis = 2.0 * np.pi * np.arange(720) / 720
    (outer, _), (inner, _) = rings
    assert not np.any(curve.contains(outer, phis))
    assert np.all(curve.contains(inner, phis))


def test_each_ring_reference_holds_the_angles_it_was_summed_at():
    angles = [0.1, 0.2, 2.5]
    refs = diagnostics.ring_references(CIRCLE, EXT, (M1, M2), ((10.0, 1), (1.0, 2)), angles)
    for (rho, region, held, series), ring in zip(refs, ((10.0, 1), (1.0, 2))):
        assert (rho, region) == ring
        assert held.dtype == float and held.tobytes() == np.array(angles).tobytes()
        want = exact_ring(EXT, region, rho, np.array(angles), 2.0, M1, M2)
        assert series.value.tobytes() == want.value.tobytes()


def _three_argument_field_error(solution, references, angles):
    """field_error as it read when it took the angles apart from its references."""
    worst = 0.0
    for rho, region, _, series in references:
        observed = fields.field_from_discrete(solution, rho, angles, region=region).e_z
        scale = float(np.max(np.abs(series.value)))
        worst = max(worst, float(np.max(np.abs(observed - series.value))) / (scale or 1.0))
    return worst


@pytest.mark.parametrize("method, geometry", [("nfm", NARROW), ("mas", WIDE)],
                         ids=["nfm-narrow", "mas-wide"])
def test_field_error_reads_each_ring_at_its_own_angles(method, geometry):
    assemble = discrete.assemble_nfm if method == "nfm" else discrete.assemble_mas
    solution = discrete.solve(assemble(*geometry, EXT, M1, M2, n_points=40))
    angles = diagnostics.SWEEP_ANGLES
    refs = diagnostics.ring_references(CIRCLE, EXT, (M1, M2), ((10.0, 1), (1.0, 2)), angles)
    want = _three_argument_field_error(solution, refs, angles)
    assert float.hex(diagnostics.field_error(solution, refs)) == float.hex(want)
    # rings summed at different angles are each measured where they were summed
    # (one angle array for both used to broadcast (0.1, 0.2) against [0.3])
    outer = diagnostics.ring_references(CIRCLE, EXT, (M1, M2), ((10.0, 1),), [0.1, 0.2])
    inner = diagnostics.ring_references(CIRCLE, EXT, (M1, M2), ((1.0, 2),), [0.3])
    got = diagnostics.field_error(solution, outer + inner)
    assert got == max(
        _three_argument_field_error(solution, outer, [0.1, 0.2]),
        _three_argument_field_error(solution, inner, [0.3]),
    )


def test_observation_rings_can_be_overridden():
    sweep = diagnostics.convergence_sweep("nfm", NARROW, EXT, (M1, M2), [40], rings=((6.0, 1),))
    (error,) = sweep.errors.values()
    assert error < 1e-3


@pytest.mark.parametrize("method, geometry", [("nfm", NARROW), ("mas", WIDE)],
                         ids=["nfm-narrow", "mas-wide"])
def test_an_empty_ring_set_is_refused_not_read_as_a_zero_error(method, geometry):
    # with no ring there is nothing to measure, so no error can read 0.0
    with pytest.raises(ValueError, match="empty ring set"):
        diagnostics.convergence_sweep(method, geometry, EXT, (M1, M2), [40], rings=())
    solution = discrete.solve(discrete.assemble_nfm(*NARROW, EXT, M1, M2, n_points=40))
    with pytest.raises(ValueError, match="empty ring set"):
        diagnostics.field_error(solution, ())


def test_a_ring_through_the_filament_is_refused_before_any_solve(monkeypatch):
    solves, solve = [], discrete.solve
    monkeypatch.setattr(
        discrete, "solve", lambda system, **kw: solves.append(system.n_points) or solve(system, **kw)
    )
    source = Excitation("external", 4.0, np.pi / 36)
    with pytest.raises(ValueError, match="coincides with the source filament"):
        diagnostics.convergence_sweep("nfm", NARROW, source, (M1, M2), (40, 46), rings=((4.0, 1),))
    assert solves == []


@pytest.mark.parametrize("method, geometry", [("nfm", NARROW), ("mas", WIDE)],
                         ids=["nfm-narrow", "mas-wide"])
def test_an_empty_ring_set_is_refused_before_any_solve(monkeypatch, method, geometry):
    solves, solve = [], discrete.solve
    monkeypatch.setattr(
        discrete, "solve", lambda system, **kw: solves.append(system.n_points) or solve(system, **kw)
    )
    with pytest.raises(ValueError, match="empty ring set"):
        diagnostics.convergence_sweep(method, geometry, EXT, (M1, M2), (40, 46), rings=())
    assert solves == []


def test_rings_on_a_non_circular_boundary_are_refused_before_any_solve(monkeypatch):
    # the residual reference has no rings to read; passing them is an error
    # instead of a sweep that quietly ignores them
    solves, solve = [], discrete.solve
    monkeypatch.setattr(
        discrete, "solve", lambda system, **kw: solves.append(system.n_points) or solve(system, **kw)
    )
    geometry = _geometry(BoundaryCurve.ellipse(2.0, 1.6), 0.8, 1.25, by="scale")
    with pytest.raises(ValueError, match="rings"):
        diagnostics.convergence_sweep("nfm", geometry, EXT, (M1, M2), (20,), rings=((1e9, 2),))
    assert solves == []


def test_sweep_records_failures_like_the_scan():
    sweep = diagnostics.convergence_sweep("nfm", NARROW, EXT, (M1, M2), [3, 20])
    assert list(sweep.scan.failures) == [3]
    assert list(sweep.errors) == [20]
