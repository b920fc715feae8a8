"""Tests for the circular-cylinder series solution."""

import re
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from cylwave import continuous, diagnostics, discrete, exact, fields, specfun
from cylwave.exact import Medium, critical_radius, exact_field
from cylwave.geometry import AuxiliarySurface, BoundaryCurve, Excitation

import frozen_series
import series_loop

M1 = Medium()
M2 = Medium(4.2, 1.0)  # reference dielectric: k2/k1 ~ 2.049, Z2/Z1 ~ 0.488
MG = Medium(2.0, 3.0)  # generic contrast, permeabilities differ

RHO_CYL = 2.0
EXT = Excitation("external", 4.0, phi=0.3)
INT = Excitation("internal", 1.0, phi=0.3)

# Regression anchors, frozen from the first verified run of this module.
ANCHOR_EXT_R1_AT_10 = -0.052503144775748294 - 0.10807294258916283j
ANCHOR_INT_R2_AT_HALF = -0.09350980691537178 + 0.10798667434410315j


def test_medium_derived_quantities():
    assert M2.k == pytest.approx(np.sqrt(4.2))
    assert M2.Z == pytest.approx(1.0 / np.sqrt(4.2))
    assert MG.Z == pytest.approx(np.sqrt(1.5))
    with pytest.raises(ValueError):
        Medium(-1.0, 1.0)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), 0.0])
def test_medium_rejects_non_finite_values_naming_the_field(bad):
    with pytest.raises(ValueError, match="eps_r must be positive and finite"):
        Medium(bad)
    with pytest.raises(ValueError, match="mu_r must be positive and finite"):
        Medium(4.2, bad)


@pytest.mark.parametrize(
    "bad",
    [True, np.True_, "4.2", np.array([4.2]), 4.2 + 0j],
    ids=["bool", "np-bool", "str", "array", "complex"],
)
def test_medium_rejects_anything_but_one_real_number_naming_the_field(bad):
    # used to: a bool read as 1.0, a string or an array raised a bare TypeError
    with pytest.raises(ValueError, match="^eps_r must be one real number, got "):
        Medium(bad, 1.0)
    with pytest.raises(ValueError, match="^mu_r must be one real number, got "):
        Medium(4.2, bad)


@pytest.mark.parametrize("eps_r, mu_r", [(1e-200, 1e-200), (1e200, 1e200), (1e-200, 1e200)])
def test_medium_rejects_a_wavenumber_or_impedance_out_of_range(eps_r, mu_r):
    # each value is in range, but k = sqrt(eps_r mu_r) or Z = sqrt(mu_r /
    # eps_r) is 0 or inf, which the incident field would turn into nan
    with pytest.raises(ValueError, match="must give a positive, finite k and Z"):
        Medium(eps_r, mu_r)


def test_critical_radius():
    assert critical_radius(2.0, 4.0) == pytest.approx(1.0)
    assert critical_radius(2.0, 1.0) == pytest.approx(4.0)
    assert critical_radius(1.7, 1.7) == pytest.approx(1.7)
    with pytest.raises(ValueError):
        critical_radius(0.0, 1.0)


@pytest.mark.parametrize(
    "rho_cyl, rho_fil", [(np.nan, 1.0), (2.0, np.nan), (np.inf, 1.0), (2.0, np.inf), (2.0, -1.0)]
)
def test_critical_radius_refuses_radii_that_are_not_positive_and_finite(rho_cyl, rho_fil):
    # critical_radius(nan, 1.0) used to return nan and critical_radius(2.0,
    # inf) 0.0, so every radius read "converges" or "diverges" against them
    with pytest.raises(ValueError, match="radii must be positive and finite"):
        critical_radius(rho_cyl, rho_fil)
    with pytest.raises(ValueError, match="radii must be positive and finite"):
        exact.convergence_region("ext_R1", 3.0, rho_cyl, rho_fil)


@pytest.mark.parametrize("rho_obs", [np.nan, np.inf, 0.0, -1.0])
def test_convergence_region_refuses_a_radius_that_is_not_positive_and_finite(rho_obs):
    # it used to classify them all: nan "diverges" on every series, inf
    # "converges" outside, 0 and -1 "converges" inside
    for series_id in exact.SERIES_IDS:
        with pytest.raises(ValueError, match="observation radius must be positive and finite"):
            exact.convergence_region(series_id, rho_obs, RHO_CYL, 4.0)


@pytest.mark.parametrize(
    "exc, region, rho_obs",
    [(EXT, 1, 5.0), (EXT, 2, 1.2), (INT, 2, 0.6), (INT, 1, 3.5)],
)
def test_transparent_cylinder_matches_bare_source(exc, region, rho_obs):
    res = exact_field(exc, region, rho_obs, 0.9, RHO_CYL, M1, Medium())
    want = exact.incident_field(exc, M1, rho_obs, 0.9)
    assert res.converged
    assert abs(res.value - want) < 1e-12 * abs(want)


@pytest.mark.parametrize("exc", [EXT, INT], ids=["external", "internal"])
def test_field_continuous_across_boundary(exc):
    values_1, values_2 = [], []
    for phi in np.linspace(0.0, 2.0 * np.pi, 32, endpoint=False):
        values_1.append(exact_field(exc, 1, RHO_CYL, phi, RHO_CYL, M1, M2).value)
        values_2.append(exact_field(exc, 2, RHO_CYL, phi, RHO_CYL, M1, M2).value)
    scale = max(map(abs, values_1))
    gap = max(abs(a - b) for a, b in zip(values_1, values_2))
    assert gap < 1e-9 * scale


@pytest.mark.parametrize("exc", [EXT, INT], ids=["external", "internal"])
def test_tangential_h_continuous_across_boundary(exc):
    # H_tan in region j is (1 / (i k_j Z_j)) dE/d rho; the common 1/i drops out
    gaps, scale = [], 0.0
    for phi in np.linspace(0.0, 2.0 * np.pi, 32, endpoint=False):
        d1 = exact.exact_ring(exc, 1, RHO_CYL, [phi], RHO_CYL, M1, M2, deriv=True).value[0]
        d2 = exact.exact_ring(exc, 2, RHO_CYL, [phi], RHO_CYL, M1, M2, deriv=True).value[0]
        h1, h2 = d1 / (M1.k * M1.Z), d2 / (M2.k * M2.Z)
        gaps.append(abs(h1 - h2))
        scale = max(scale, abs(h1))
    assert max(gaps) < 1e-8 * scale


def test_reciprocity_within_region_1():
    a = exact_field(Excitation("external", 4.0, 0.2), 1, 5.0, 1.0, RHO_CYL, M1, M2).value
    b = exact_field(Excitation("external", 5.0, 1.0), 1, 4.0, 0.2, RHO_CYL, M1, M2).value
    assert abs(a - b) < 1e-12 * abs(a)


def test_reciprocity_across_regions():
    a = exact_field(Excitation("external", 4.0, 0.2), 2, 1.3, 1.7, RHO_CYL, M1, M2).value
    b = exact_field(Excitation("internal", 1.3, 1.7), 1, 4.0, 0.2, RHO_CYL, M1, M2).value
    assert abs(a - b) < 1e-12 * abs(a)


def test_mode_denominator_matches_definition():
    from cylwave import specfun

    x1, x2 = M1.k * RHO_CYL, M2.k * RHO_CYL
    for n in (0, 3, 17):
        jp = 0.5 * (specfun.bessel_j(n - 1, x2) - specfun.bessel_j(n + 1, x2))
        hp = 0.5 * (specfun.hankel2(n - 1, x1) - specfun.hankel2(n + 1, x1))
        want = M1.Z * specfun.hankel2(n, x1) * jp - M2.Z * specfun.bessel_j(n, x2) * hp
        assert exact.mode_denominator(n, RHO_CYL, M1, M2) == pytest.approx(want)


def test_mode_denominator_never_small():
    mags = [abs(exact.mode_denominator(n, RHO_CYL, M1, M2)) for n in range(81)]
    assert min(mags) > 1e-14


def test_mode_denominator_overflow_is_tagged():
    with pytest.raises(ArithmeticError):
        exact.mode_denominator(300, RHO_CYL, M1, M2)


@pytest.mark.parametrize(
    "exc, region, rho_obs",
    [(EXT, 1, 2.2), (INT, 2, 3.5)],
    ids=["ext_R1", "int_R2"],
)
def test_tail_estimate_bounds_remainder(exc, region, rho_obs):
    short = exact_field(exc, region, rho_obs, 0.9, RHO_CYL, M1, M2, n_max=20)
    long = exact_field(exc, region, rho_obs, 0.9, RHO_CYL, M1, M2, n_max=40)
    assert abs(long.value - short.value) <= 2.0 * short.tail_estimate


def test_exterior_series_continues_smoothly_inside():
    # the region-1 series also converges in (rho_cri, rho_cyl); across the
    # boundary it is one analytic function, so a Taylor step from just inside
    # must land on the value just outside
    assert exact.convergence_region("ext_R1", 1.5, RHO_CYL, EXT.rho) == "converges"
    inside = exact_field(EXT, 1, 1.5, 0.9, RHO_CYL, M1, M2)
    assert inside.converged

    eps = 1e-5
    f_in = exact_field(EXT, 1, RHO_CYL - eps, 0.9, RHO_CYL, M1, M2).value
    f_out = exact_field(EXT, 1, RHO_CYL + eps, 0.9, RHO_CYL, M1, M2).value
    d_in = exact.exact_ring(EXT, 1, RHO_CYL - eps, [0.9], RHO_CYL, M1, M2, deriv=True).value[0]
    d_mid = exact.exact_ring(EXT, 1, RHO_CYL, [0.9], RHO_CYL, M1, M2, deriv=True).value[0]
    assert abs(f_out - (f_in + 2.0 * eps * d_in)) < 1e-8 * abs(f_out)
    assert abs((f_out - f_in) / (2.0 * eps) - d_mid) < 1e-8 * abs(d_mid)


def test_interior_series_converges_beyond_boundary():
    # internal excitation: the region-2 series keeps converging out to rho_cri
    assert exact.convergence_region("int_R2", 3.0, RHO_CYL, INT.rho) == "converges"
    # the geometric rate 3/4 is slow; give the adaptive rule room to finish
    res = exact_field(INT, 2, 3.0, 0.9, RHO_CYL, M1, M2, n_max=120)
    assert res.converged and res.warning is None


# thresholds: external rho_cri = 1, rho_fil = 4; internal rho_fil = 1, rho_cri = 4
@pytest.mark.parametrize(
    "series_id, rho_fil, rho_obs, want",
    [
        ("ext_R1", 4.0, 0.9, "diverges"),
        ("ext_R1", 4.0, 1.0, "diverges"),
        ("ext_R1", 4.0, 1.1, "converges"),
        ("ext_R2", 4.0, 3.9, "converges"),
        ("ext_R2", 4.0, 4.0, "diverges"),
        ("ext_R2", 4.0, 4.1, "diverges"),
        ("int_R1", 1.0, 0.9, "diverges"),
        ("int_R1", 1.0, 1.0, "diverges"),
        ("int_R1", 1.0, 1.1, "converges"),
        ("int_R2", 1.0, 3.9, "converges"),
        ("int_R2", 1.0, 4.0, "diverges"),
        ("int_R2", 1.0, 4.1, "diverges"),
    ],
)
def test_convergence_region_table(series_id, rho_fil, rho_obs, want):
    assert exact.convergence_region(series_id, rho_obs, RHO_CYL, rho_fil) == want


def test_convergence_region_rejects_unknown_id():
    with pytest.raises(ValueError):
        exact.convergence_region("ext_R3", 1.0, 2.0, 4.0)


@pytest.mark.parametrize(
    "series_id, rho_obs, rho_fil",
    [("ext_R1", 3.0, 4.0), ("ext_R2", 1.2, 4.0), ("int_R1", 3.0, 1.0), ("int_R2", 1.2, 1.0)],
)
def test_term_ratio_probe_levels_off_generic_medium(series_id, rho_obs, rho_fil):
    p60 = exact.term_ratio_probe(series_id, 60, rho_obs, RHO_CYL, rho_fil, M1, MG)
    p80 = exact.term_ratio_probe(series_id, 80, rho_obs, RHO_CYL, rho_fil, M1, MG)
    assert abs(p80 / p60 - 1.0) < 0.05


@pytest.mark.parametrize(
    "series_id, rho_obs, rho_fil, rate",
    [("ext_R2", 1.2, 4.0, 1.2 / 4.0), ("int_R1", 3.0, 1.0, 1.0 / 3.0)],
)
def test_successive_terms_follow_geometric_rate(series_id, rho_obs, rho_fil, rate):
    t60 = exact._series_term(series_id, 60, rho_obs, RHO_CYL, rho_fil, M1, M2)
    t61 = exact._series_term(series_id, 61, rho_obs, RHO_CYL, rho_fil, M1, M2)
    assert abs(abs(t61 / t60) / rate - 1.0) < 0.02


@pytest.mark.parametrize(
    "series_id, rho_obs, rho_fil, rate",
    [("ext_R1", 3.0, 4.0, 1.0 / 3.0), ("int_R2", 1.2, 1.0, 1.2 / 4.0)],
)
def test_matched_permeability_adds_algebraic_decay(series_id, rho_obs, rho_fil, rate):
    # with mu_r equal on both sides the leading boundary-mismatch parts of
    # these two numerators cancel; successive magnitudes then follow
    # rate * (n / (n+1))^3 instead of rate * n / (n+1)
    n = 60
    t0 = exact._series_term(series_id, n, rho_obs, RHO_CYL, rho_fil, M1, M2)
    t1 = exact._series_term(series_id, n + 1, rho_obs, RHO_CYL, rho_fil, M1, M2)
    want = rate * (n / (n + 1.0)) ** 3
    assert abs(abs(t1 / t0) / want - 1.0) < 0.01


def test_algebraic_trend_at_critical_radius():
    # at rho_obs = rho_cri the geometric factor is 1 and only the algebraic
    # decay remains: successive ratios drift up toward 1
    t60 = exact._series_term("ext_R1", 60, 1.0, RHO_CYL, 4.0, M1, M2)
    t61 = exact._series_term("ext_R1", 61, 1.0, RHO_CYL, 4.0, M1, M2)
    ratio = abs(t61 / t60)
    assert 0.9 < ratio < 1.0
    g60 = exact._series_term("ext_R1", 60, 1.0, RHO_CYL, 4.0, M1, MG)
    g61 = exact._series_term("ext_R1", 61, 1.0, RHO_CYL, 4.0, M1, MG)
    assert abs(abs(g61 / g60) / (60.0 / 61.0) - 1.0) < 0.01


def test_series_ratio_values_and_probe_forms():
    # the one table of the four ratios, and the large-n forms the probe
    # divides by: (2 / (pi n)) q^n for ext_R1, q^n / n for the others
    assert exact.series_ratio("ext_R1", 3.0, RHO_CYL, 4.0) == 1.0 / 3.0
    assert exact.series_ratio("ext_R2", 1.2, RHO_CYL, 4.0) == 1.2 / 4.0
    assert exact.series_ratio("int_R1", 3.0, RHO_CYL, 1.0) == 1.0 / 3.0
    assert exact.series_ratio("int_R2", 3.0, RHO_CYL, 1.0) == 3.0 / 4.0
    for series_id, n, rho_obs, rho_fil, form in (
        ("ext_R1", 3, 3.0, 4.0, (2.0 / (3.0 * np.pi)) * (1.0 / 3.0) ** 3),
        ("int_R1", 5, 3.0, 1.0, (1.0 / 3.0) ** 5 / 5.0),
        ("ext_R2", 4, 1.2, 4.0, (1.2 / 4.0) ** 4 / 4.0),
    ):
        term = exact._series_term(series_id, n, rho_obs, RHO_CYL, rho_fil, M1, MG)
        probe = exact.term_ratio_probe(series_id, n, rho_obs, RHO_CYL, rho_fil, M1, MG)
        assert probe == pytest.approx(term / form, rel=1e-15)
    with pytest.raises(ValueError, match="n >= 1"):
        exact.term_ratio_probe("ext_R1", 0, 3.0, RHO_CYL, 4.0)
    for probe in (exact.series_ratio, exact.convergence_region):
        with pytest.raises(ValueError, match="unknown series id"):
            probe("bogus", 3.0, RHO_CYL, 4.0)


def test_incident_field_frozen_value():
    # filament at rho=2, observation at rho=1 on the same ray: distance 1,
    # free space, unit amplitude: E = -(1/4) H2_0(1)
    exc = Excitation("external", 2.0)
    got = exact.incident_field(exc, M1, 1.0, 0.0)
    want = -0.25 * (0.7651976865579666 - 0.0882569642156770j)
    assert abs(got - want) < 1e-15


def test_incident_field_singularity_and_zero_amplitude():
    exc = Excitation("external", 4.0, phi=0.5)
    with pytest.raises(ValueError):
        exact.incident_field(exc, M1, 4.0, 0.5)
    quiet = Excitation("external", 4.0, amplitude=0.0)
    assert exact.incident_field(quiet, M1, 1.0, 0.0) == 0.0


_NO_ANGLES = np.array([])


@pytest.mark.parametrize(
    "call",
    [
        lambda: exact.incident_field(EXT, M1, 3.0, _NO_ANGLES),
        lambda: exact.refuse_filament_points(EXT, 3.0, _NO_ANGLES),
        lambda: continuous.reconstruct_fields_from_densities(EXT, 3.0, _NO_ANGLES, RHO_CYL, M1, M2),
        lambda: diagnostics.ring_references(
            BoundaryCurve.circle(RHO_CYL), EXT, (M1, M2), ((3.0, 1),), _NO_ANGLES
        ),
        lambda: exact.exact_ring(EXT, 1, 3.0, _NO_ANGLES, RHO_CYL, M1, M2),
        lambda: exact.exact_ring(EXT, 2, 1.0, _NO_ANGLES, RHO_CYL, M1, M2),
        lambda: exact.exact_ring(INT, 1, 3.0, _NO_ANGLES, RHO_CYL, M1, M2),
        lambda: exact.exact_ring(INT, 2, 1.5, _NO_ANGLES, RHO_CYL, M1, M2),
        lambda: continuous.density_series(EXT, _NO_ANGLES, RHO_CYL, M1, M2),
        lambda: continuous.reconstruct_fields_from_densities(EXT, 1.0, _NO_ANGLES, RHO_CYL, M1, M2),
        lambda: continuous.reconstruct_fields_from_densities(INT, 3.0, _NO_ANGLES, RHO_CYL, M1, M2),
        lambda: specfun.addition_series_h0(1.0, 2.0, _NO_ANGLES),
    ],
    ids=["incident_field", "refuse_filament_points", "reconstruct", "ring_references",
         "ext_R1", "ext_R2", "int_R1", "int_R2", "density_series", "reconstruct-ext-inside",
         "reconstruct-int-outside", "addition_series_h0"],
)
def test_an_empty_angle_array_is_refused_by_name(call):
    # numpy's max of an empty array would raise its own unnamed error, and
    # the ext_R2 and int_R1 series would return an empty result
    with pytest.raises(ValueError, match="non-empty"):
        call()


def test_incident_field_keeps_the_shape_of_its_angles():
    # a 2-D angle array gives, bit for bit, the raveled call in that shape
    exc = Excitation("external", 4.0, phi=0.3, amplitude=1.5 - 0.5j)
    grid = np.linspace(-3.0, 3.0, 6).reshape(2, 3)
    for field in (exact.incident_field, exact._incident_radial_deriv):
        got = field(exc, M2, 2.5, grid)
        flat = field(exc, M2, 2.5, grid.ravel())
        assert got.shape == (2, 3)
        assert got.tobytes() == flat.reshape(2, 3).tobytes()


def test_a_list_of_angles_reads_as_their_array():
    # used to: phi_obs - excitation.phi raised a bare TypeError on a list
    exc = Excitation("external", 4.0, phi=0.3, amplitude=1.5 - 0.5j)
    angles = [0.1, 0.2, -2.5]
    for field in (exact.incident_field, exact._incident_radial_deriv):
        got = field(exc, M2, 2.5, angles)
        assert got.tobytes() == field(exc, M2, 2.5, np.array(angles)).tobytes()
    assert exact.refuse_filament_points(exc, 2.5, angles) is None
    # the filament sits at angle 0.3 on rho = 4
    on_filament = (
        lambda: exact.incident_field(exc, M1, 4.0, [0.1, 0.3]),
        lambda: exact._incident_radial_deriv(exc, M1, 4.0, [0.1, 0.3]),
        lambda: exact.refuse_filament_points(exc, 4.0, [0.1, 0.3]),
    )
    for call in on_filament:
        with pytest.raises(ValueError, match="^observation point coincides with the source filament$"):
            call()


def _field_from_discrete(rho_obs):
    curve = BoundaryCurve.circle(RHO_CYL)
    geometry = (
        curve, AuxiliarySurface.from_radius(curve, 1.5), AuxiliarySurface.from_radius(curve, 2.5)
    )
    solution = discrete.solve(discrete.assemble_nfm(*geometry, EXT, M1, M2, n_points=10))
    return fields.field_from_discrete(solution, rho_obs, 0.3)


_RADIUS_ENTRIES = {
    "exact_ring": lambda rho: exact.exact_ring(EXT, 2, rho, [0.3], RHO_CYL, M1, M2),
    "exact_field": lambda rho: exact.exact_field(EXT, 2, rho, 0.3, RHO_CYL, M1, M2),
    "incident_field": lambda rho: exact.incident_field(EXT, M1, rho, 0.3),
    "reconstruct": lambda rho: continuous.reconstruct_fields_from_densities(
        EXT, rho, 0.3, RHO_CYL, M1, M2
    ),
    "field_from_discrete": _field_from_discrete,
}


@pytest.mark.parametrize(
    "rho_obs", [True, np.True_, np.array([1.0])], ids=["True", "np.True_", "array"]
)
@pytest.mark.parametrize("entry", list(_RADIUS_ENTRIES))
def test_an_observation_radius_that_is_not_one_number_is_refused_by_name(entry, rho_obs):
    # used to: every entry but field_from_discrete read True as radius 1.0
    with pytest.raises(ValueError, match="^observation radius must be one number, got"):
        _RADIUS_ENTRIES[entry](rho_obs)


@pytest.mark.parametrize("entry", list(_RADIUS_ENTRIES))
def test_an_int_or_0d_radius_reads_as_its_float(entry):
    def field_bytes(rho_obs):
        result = _RADIUS_ENTRIES[entry](rho_obs)
        return np.asarray(getattr(result, "value", getattr(result, "e_z", result))).tobytes()

    for rho_obs in (1, np.array(1.0), np.float64(1.0)):
        assert field_bytes(rho_obs) == field_bytes(1.0)


def test_incident_fields_refuse_non_finite_points():
    # the distance check that lets them read hankel2_low refuses what the
    # checked hankel2 refused before, naming the radius or the angles
    exc = Excitation("external", 4.0, phi=0.5)
    cases = (
        (1.0, np.nan, "angles"),
        (np.inf, 0.2, "radius"),
        (np.inf, np.array([0.5, 3.0]), "radius"),
        (1.0, np.array([0.5, -np.inf]), "angles"),
    )
    for field in (exact.incident_field, exact._incident_radial_deriv):
        for rho_obs, phi_obs, name in cases:
            # inf - inf in the distance is the point of the case, not news
            with np.errstate(invalid="ignore"):
                with pytest.raises(ValueError, match="^observation %s must be finite$" % name):
                    field(exc, M1, rho_obs, phi_obs)


def test_regions_other_than_the_integers_1_and_2_are_refused():
    for region in (True, 1.0, 3, "1"):
        with pytest.raises(ValueError, match="^region must be 1 or 2$"):
            exact.exact_ring(EXT, region, 10.0, [0.0], RHO_CYL, M1, M2)
        with pytest.raises(ValueError, match="^region must be 1 or 2$"):
            exact_field(EXT, region, 10.0, 0.0, RHO_CYL, M1, M2)


def test_series_id_for():
    assert exact.series_id_for(EXT, 1) == "ext_R1"
    assert exact.series_id_for(EXT, 2) == "ext_R2"
    assert exact.series_id_for(INT, 1) == "int_R1"
    assert exact.series_id_for(INT, 2) == "int_R2"
    with pytest.raises(ValueError):
        exact.series_id_for(EXT, 3)


def test_divergent_observation_is_flagged():
    res = exact_field(EXT, 2, 4.5, 0.0, RHO_CYL, M1, M2)
    assert not res.converged
    assert res.warning is not None
    # the derivative series carries the same warning inside the image radius
    res = exact.exact_ring(EXT_ON_AXIS, 1, 0.9, [0.0], RHO_CYL, M1, M2, deriv=True)
    assert np.array_equal(res.converged, [False])
    assert res.warning == ("observation radius outside the convergence region of ext_R1",)


def test_zero_amplitude_source():
    quiet = Excitation("external", 4.0, amplitude=0.0)
    res = exact_field(quiet, 1, 5.0, 0.0, RHO_CYL, M1, M2)
    assert res.value == 0.0 and res.converged
    # summed like any other source, so it reports the series' own stop order
    assert res.n_used == exact_field(EXT, 1, 5.0, 0.0, RHO_CYL, M1, M2).n_used > 0
    assert res.tail_estimate == 0.0


def test_silent_source_stopped_at_order_zero_has_a_zero_tail():
    # its series is identically zero, so is its tail: no 0 * inf at order 0
    quiet = Excitation("external", 4.0, amplitude=0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ring = exact.exact_ring(quiet, 1, 5.0, [0.0, 1.0], RHO_CYL, n_max=0)
    assert np.array_equal(ring.tail_estimate, [0.0, 0.0])
    assert np.array_equal(ring.value, [0.0, 0.0])
    assert np.array_equal(ring.n_used, [0, 0])


def test_series_stops_where_the_mode_quotient_underflows():
    # The ext_R1 quotient num / delta is subnormal from order 98 and 0 from
    # about 102, while the true terms are still about 6e-10. The series
    # used to read those zero terms as convergence (converged, tail 0, no
    # warning). It now stops before order 98 and says so, with a tail that
    # bounds what the cut dropped; the partial sum matches its 50-digit
    # reference to the frozen tolerance of deep sums (1e-10).
    angle, rho_obs, n_max, partial, n_used, full = frozen_series.NEAR_RING
    side, rho, phi, amplitude = frozen_series.EXCITATIONS["near_external"]
    exc = Excitation(side, rho, phi=phi, amplitude=amplitude)
    res = exact_field(exc, 1, rho_obs, angle, RHO_CYL, M1, M2, n_max=n_max)
    assert not res.converged
    assert res.warning == "series truncated at n=98 by floating-point range"
    assert res.n_used == n_used
    assert abs(res.value - partial) <= 1e-10 * abs(partial)
    assert abs(full - res.value) <= res.tail_estimate


def test_transparent_boundary_keeps_its_exact_zero_terms():
    # equal media cancel the ext_R1 numerator exactly: its zero terms are
    # true, and the series converges at order 3 with no warning
    res = exact_field(EXT, 1, 1.5, 0.2, RHO_CYL, M1, M1)
    assert (res.converged, res.warning, res.n_used) == (True, None, 3)


def test_exact_field_returns_python_scalars():
    res = exact_field(EXT, 2, 4.5, 0.0, RHO_CYL, M1, M2)
    assert [type(v) for v in (res.value, res.n_used, res.tail_estimate, res.converged)] == [
        complex, int, float, bool,
    ]
    assert isinstance(res.warning, str)
    assert exact_field(EXT, 1, 10.0, 0.0, RHO_CYL, M1, M2).warning is None


def test_truncation_cap_respected():
    res = exact_field(EXT, 1, 10.0, 0.0, RHO_CYL, M1, M2, n_max=5)
    assert res.n_used <= 5


def test_invalid_inputs_rejected():
    for deriv in (False, True):
        with pytest.raises(ValueError, match="region must be 1 or 2"):
            exact.exact_ring(EXT, 3, 5.0, [0.0], RHO_CYL, M1, M2, deriv=deriv)
        with pytest.raises(ValueError, match="observation radius must be positive"):
            exact.exact_ring(EXT, 1, -1.0, [0.0], RHO_CYL, M1, M2, deriv=deriv)
        for phis in (0.5, np.zeros((2, 3))):
            with pytest.raises(ValueError, match="phis must be a non-empty 1-D array"):
                exact.exact_ring(EXT, 1, 5.0, phis, RHO_CYL, M1, M2, deriv=deriv)


@pytest.mark.parametrize("n_max", [-1, -16])
def test_negative_series_caps_are_rejected(n_max):
    # a silent source too: it is summed like any other
    for exc in (EXT, Excitation("external", 4.0, amplitude=0.0)):
        with pytest.raises(ValueError, match="n_max must be non-negative"):
            exact.exact_ring(exc, 1, 5.0, [0.0, 1.0], RHO_CYL, M1, M2, n_max=n_max)
        with pytest.raises(ValueError, match="n_max must be non-negative"):
            exact_field(exc, 1, 5.0, 0.0, RHO_CYL, M1, M2, n_max=n_max)


def test_field_regression_anchors():
    ext = exact_field(EXT_ON_AXIS, 1, 10.0, 0.0, RHO_CYL, M1, M2)
    assert abs(ext.value - ANCHOR_EXT_R1_AT_10) < 1e-12
    internal = exact_field(INT_ON_AXIS, 2, 0.5, 1.0, RHO_CYL, M1, M2)
    assert abs(internal.value - ANCHOR_INT_R2_AT_HALF) < 1e-12


EXT_ON_AXIS = Excitation("external", 4.0)
INT_ON_AXIS = Excitation("internal", 1.0)
RING = 2.0 * np.pi * (np.arange(36) + 0.5) / 36.0
# rings on which some angles stop on the small-terms rule and the others
# are cut, by order overflow and by floating-point range: (source, region,
# radius, deriv)
PARTLY_CONVERGED = [(EXT, 2, 3.4, False), (EXT, 1, 1.25, True)]


@pytest.mark.parametrize(
    "exc, region, rho_obs, deriv",
    [
        (exc, region, rho_obs, deriv)
        for exc, region, rho_obs in [(EXT, 1, 10.0), (EXT, 2, 1.0), (INT, 1, 10.0), (INT, 2, 0.5)]
        for deriv in (False, True)
    ]
    + PARTLY_CONVERGED
    + [(EXT, 2, 4.5, False)],
    ids=[
        series + kind
        for series in ("ext_R1", "ext_R2", "int_R1", "int_R2")
        for kind in ("", "-deriv")
    ]
    + ["ext_R2-partly-converged", "ext_R1-deriv-partly-converged", "ext_R2-outside"],
)
def test_ring_equals_point_calls_bit_for_bit(exc, region, rho_obs, deriv):
    ring = exact.exact_ring(exc, region, rho_obs, RING, RHO_CYL, M1, M2, deriv=deriv)
    points = [
        exact.exact_ring(exc, region, rho_obs, [phi], RHO_CYL, M1, M2, deriv=deriv) for phi in RING
    ]
    for name in ("value", "n_used", "tail_estimate", "converged"):
        got = getattr(ring, name)
        assert got.shape == RING.shape
        assert np.array_equal(got, np.concatenate([getattr(point, name) for point in points]))
    assert ring.warning == tuple(point.warning[0] for point in points)
    if (exc, region, rho_obs, deriv) in PARTLY_CONVERGED:
        assert 0 < ring.converged.sum() < RING.size


@settings(deadline=None, max_examples=25)
@given(
    eps=st.floats(min_value=1.5, max_value=6.0),
    mu=st.floats(min_value=0.5, max_value=2.0),
    rho_cyl=st.floats(min_value=1.0, max_value=3.0),
    ratio=st.floats(min_value=1.3, max_value=2.5),
    phi=st.floats(min_value=0.0, max_value=2.0 * np.pi),
)
def test_boundary_continuity_property(eps, mu, rho_cyl, ratio, phi):
    m2 = Medium(eps, mu)
    exc = Excitation("external", rho_cyl * ratio)
    e1 = exact_field(exc, 1, rho_cyl, phi, rho_cyl, M1, m2, n_max=150).value
    e2 = exact_field(exc, 2, rho_cyl, phi, rho_cyl, M1, m2, n_max=150).value
    assert abs(e1 - e2) < 1e-7 * max(abs(e1), 1e-30)


# -- runs of orders against the per-order loop and the 50-digit oracle -------


def _ring(k):
    return 2.0 * np.pi * (np.arange(k) + 0.5) / k


def _run_of(term):
    """A run callable for exact.sum_series from a one-order term; an order that
    raises ArithmeticError is unusable."""

    def run(n):
        terms, usable = [], []
        for k in n.tolist():
            try:
                terms.append(term(k))
                usable.append(True)
            except ArithmeticError:
                terms.append(complex("nan"))
                usable.append(False)
        return np.array(terms, dtype=complex), np.array(usable)

    return run


def test_sum_adaptive_matches_the_per_order_loop_bit_for_bit():
    # exact.sum_series, the run adapter summed by specfun.sum_orders, against
    # series_loop._loop_sum with the circular series' rule at each angle
    # alone: sums, last magnitudes, stop orders, flags and warnings. The
    # synthetic terms reach every way an angle stops: convergence at orders
    # on both sides of a run seam, a partial sum that cancels to zero
    # (growing without bound), an unusable order, a non-finite term, a cap
    psi = np.array([0.0, 0.3, 1.0, np.pi / 2, 2.9, -1.3])

    def decaying(rate):
        return lambda n: (0.3 - 0.7j) * rate**n

    def cancelling(n):
        return -2.0 + 0j if n == 0 else (1.0 + 0j if n == 1 else 0.6**n * (1 + 1j))

    def raising(n):
        if n == 40:
            raise specfun.BesselOverflowError("H2_40 overflows")
        return 0.97**n * (1 - 2j)

    def infinite(n):
        return complex("inf") if n == 21 else 0.95**n + 0.1j

    caps = (0, 1, 15, 16, 17, 31, 32, 33, 500)
    cases = [(decaying(r), cap) for r in (0.1, 0.125, 0.14, 0.3, 0.5, 0.8) for cap in caps]
    cases += [(cancelling, 60), (raising, 60), (raising, 39), (infinite, 60), (infinite, 20)]
    flags, orders = set(), set()
    for term, cap in cases:
        for angles in (psi, psi[:1], np.linspace(-3.0, 3.0, 36)):
            total, order, mags, converged, warning = exact.sum_series(_run_of(term), angles, cap)
            for i, theta in enumerate(angles.tolist()):
                want = series_loop._loop_sum(theta, cap, term, 1e-13, 1e120)
                assert np.complex128(total[i]).tobytes() == np.complex128(want[0]).tobytes()
                assert np.float64(mags[order[i]]).tobytes() == np.float64(want[1]).tobytes()
                assert (order[i], converged[i], warning[i]) == want[2:]
                flags.add(want[4])
                orders.add(want[2])
    assert {
        None,
        "series terms growing without bound",
        "series truncated at n=40 by order overflow",
        "series truncated at n=21 by floating-point range",
    } <= flags
    assert {16, 17, 18} <= orders


def test_sum_series_stops_before_an_order_out_of_range():
    # the run contract: a run that marks one order out of range (in_range
    # False, usable True, its term finite) is cut before that order, in the
    # first run and past a run seam, and every angle still running reports
    # the cut as "floating-point range"; the orders before it are summed
    # with the bits of a cap just below it
    angles = np.array([0.0, 0.3, 2.9])
    for cut in (5, 21):

        def run(n, cut=cut):
            terms = (0.3 - 0.7j) * 0.9**n
            return terms, np.ones(n.shape, dtype=bool), n != cut

        total, order, mags, converged, warning = exact.sum_series(run, angles, 60)
        assert order.tolist() == [cut - 1] * angles.size
        assert mags.size == cut and not converged.any()
        assert warning == ["series truncated at n=%d by floating-point range" % cut] * angles.size
        capped = exact.sum_series(run, angles, cut - 1)
        assert total.tobytes() == capped[0].tobytes()
        assert capped[4] == [None] * angles.size


def _excitation(name):
    side, rho, phi, amplitude = frozen_series.EXCITATIONS[name]
    return Excitation(side, rho, phi=phi, amplitude=amplitude)


@pytest.mark.parametrize("series_id", exact.SERIES_IDS)
@pytest.mark.parametrize("deriv", [False, True], ids=["value", "deriv"])
def test_exact_ring_matches_the_frozen_references(series_id, deriv):
    # Against the frozen 50-digit partial sums of tests/frozen_series.py:
    # the stop orders, flags and warnings of the per-order loop exactly, the
    # values to a tolerance set from the measured gap, relative to the
    # ring's largest value. Rings inside, beyond and outside the physical
    # and convergence regions, and caps past order overflow and below the
    # stop. Measured: at most 5.2e-15 where the ring's series converges
    # by order 70 (tolerance 2e-14); elsewhere the sums reach orders
    # 78-153 or diverge to 1e25-1e31, and the factors' own error there
    # gives at most 2.8e-11 (tolerance 1e-10). The per-order loop measured
    # the same on every case but the eight in-region rings at the default
    # cap (ext_R1 and int_R1 at 1.2, ext_R2 and int_R2 at 3.0), which were
    # frozen from exact_ring's stop orders and measured at most 1.3e-15.
    media = tuple(Medium(*m) for m in frozen_series.MEDIA)
    region = int(series_id[-1])
    spread = 0
    for (sid, d, name, rho_obs, n_max), (values, n_used, converged, warning) in (
        frozen_series.EXACT.items()
    ):
        if (sid, d) != (series_id, deriv):
            continue
        exc = _excitation(name)
        got = exact.exact_ring(
            exc, region, rho_obs, frozen_series.RING4, frozen_series.RHO_CYL, *media, n_max, deriv
        )
        assert got.n_used.tolist() == n_used
        assert got.converged.tolist() == converged
        want = warning if isinstance(warning, tuple) else (warning,) * frozen_series.RING4.size
        assert got.warning == want
        spread += len(set(n_used)) > 1
        inside = exact.convergence_region(series_id, rho_obs, frozen_series.RHO_CYL, exc.rho)
        if inside == "converges" and n_max is None:
            # at the default cap an in-region ring converges or names its stop
            assert all(c or w for c, w in zip(got.converged, got.warning))
        settled = max(n_used) <= 70 and inside == "converges"
        gap = np.abs(got.value - values)
        assert np.max(gap) <= (2e-14 if settled else 1e-10) * np.max(np.abs(values))
    assert spread > 0


# a filament on each side of the boundary, at angles away from the +-pi cut,
# so that the polar angles of points next to it are near its own
NEAR_FILAMENTS = [
    Excitation("external", 3.0, 0.7),
    Excitation("external", 4.0, 0.0),
    Excitation("external", 2.5, 2.0),
    Excitation("internal", 1.0, 0.3),
]


def _points_near(exc, offset, rng, n=50):
    """n polar points at offset * rho_f from the filament in seeded directions."""
    theta = rng.uniform(0.0, 2.0 * np.pi, n)
    x = exc.rho * np.cos(exc.phi) + offset * exc.rho * np.cos(theta)
    y = exc.rho * np.sin(exc.phi) + offset * exc.rho * np.sin(theta)
    return np.hypot(x, y), np.arctan2(y, x)


def test_source_distance_keeps_its_digits_next_to_the_filament():
    # The law of cosines cancels next to the filament: at 1e-9 rho_f it
    # refused 88-100% of the points as coincident and at 1e-7 rho_f it was
    # off by up to 3.2%. The half-angle form there measured at most 2.3e-16
    # against the Cartesian offset (8 000 points at each of 1e-9, 1e-7 and
    # 1e-5 rho_f).
    rng = np.random.default_rng(11)
    for exc in NEAR_FILAMENTS:
        for rho, phi in zip(*_points_near(exc, 1e-16, rng)):
            with pytest.raises(ValueError, match="coincides with the source filament"):
                exact.incident_field(exc, M1, float(rho), np.array([phi]))
        for offset in (1e-9, 1e-7):
            for rho, phi in zip(*_points_near(exc, offset, rng)):
                got = exact._source_distance(exc, float(rho), np.array([phi]))[0]
                with mpmath.workdps(40):
                    x = mpmath.mpf(rho) * mpmath.cos(phi) - exc.rho * mpmath.cos(exc.phi)
                    y = mpmath.mpf(rho) * mpmath.sin(phi) - exc.rho * mpmath.sin(exc.phi)
                    want = mpmath.hypot(x, y)
                assert abs(float((got - want) / want)) < 1e-15


def test_exact_ring_and_derivative_refuse_the_filament_and_infinite_radii():
    # the filament on the ring: the field and its radial derivative refuse it alike
    exc = Excitation("internal", 1.0)
    for deriv in (False, True):
        with pytest.raises(ValueError, match="coincides with the source filament"):
            exact.exact_ring(exc, 2, 1.0, np.array([0.0, 1.0]), RHO_CYL, M1, M2, deriv=deriv)
    for rho_obs in (np.inf, np.nan):
        with pytest.raises(ValueError, match="observation radius must be positive and finite"):
            exact.exact_ring(EXT, 1, rho_obs, RING, RHO_CYL, M1, M2)


# how sum_orders names the stop of an angle that did not converge
STOP = (
    r"series (truncated at n=\d+ by (order overflow|floating-point range)"
    r"|terms growing without bound)"
)
MEDIA_RANGES = ((1.0, 2.0), (1.0, 1.5), (1.5, 8.0), (1.0, 3.0))  # eps1, mu1, eps2, mu2


@settings(deadline=None, max_examples=30, derandomize=True)
@given(
    rho_cyl=st.floats(1.0, 3.0),
    media=st.tuples(*(st.floats(lo, hi) for lo, hi in MEDIA_RANGES)),
    source=st.one_of(
        st.tuples(st.just("external"), st.floats(1.05, 4.0)),
        st.tuples(st.just("internal"), st.floats(0.05, 0.95)),
    ),
    region=st.sampled_from([1, 2]),
    q=st.floats(0.1, 0.9),
    phis=st.lists(st.floats(0.0, 2.0 * np.pi), min_size=1, max_size=8),
)
def test_every_ring_in_its_convergence_region_converges_or_names_its_stop(
    rho_cyl, media, source, region, q, phis
):
    # the ring sits where its series' ratio is q: each angle, for the field
    # and its radial derivative, converges or warns why it stopped
    side, scale = source
    exc = Excitation(side, scale * rho_cyl, phis[0] + 1.0)
    series_id = exact.series_id_for(exc, region)
    rho_f, rho_cri = exc.rho, critical_radius(rho_cyl, exc.rho)
    rho_obs = {
        "ext_R1": rho_cri / q, "ext_R2": q * rho_f, "int_R1": rho_f / q, "int_R2": q * rho_cri
    }[series_id]
    assume(abs(rho_obs - rho_f) > 1e-3 * rho_f)  # a ring through the filament is refused
    assert exact.series_ratio(series_id, rho_obs, rho_cyl, rho_f) < 1.0
    media = Medium(*media[:2]), Medium(*media[2:])
    for deriv in (False, True):
        ring = exact.exact_ring(exc, region, rho_obs, phis, rho_cyl, *media, deriv=deriv)
        assert np.isfinite(ring.value).all()
        for converged, warning in zip(ring.converged, ring.warning):
            assert warning is None if converged else re.fullmatch(STOP, warning), warning
