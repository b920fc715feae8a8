"""Every public entry refuses a nan or infinite float argument with a message naming it.

hankel2_low is left out: it reads arguments its callers have checked, as
its docstring says. The two dipole addition series of tests/oracles.py,
the kernel tests' references, are held to the same rule.
"""

import cmath
import warnings

import numpy as np
import pytest

from cylwave import continuous, diagnostics, discrete, exact, fields, specfun
from cylwave.exact import Medium
from cylwave.geometry import AuxiliarySurface, BoundaryCurve, Excitation

import oracles

M1, M2 = Medium(), Medium(4.2, 1.0)
EXT = Excitation("external", 4.0, 0.3)
CIRCLE = BoundaryCurve.circle(2.0)
RADII = "radii must be positive and finite"
ARGUMENT = "argument must be finite"
OBS_RADIUS = "observation radius must be (positive and |nonnegative and )?finite"
OBS_ANGLES = "observation angles must be finite|angles must be finite, got"
RHO_CYL = "boundary radius rho_cyl must be positive and finite"
ADDITION = r"need x2 > x1 > 0, both finite"
GRAF = "need 0 < x < y, both finite"


def _solution():
    aux = (AuxiliarySurface.from_scale(CIRCLE, 0.75), AuxiliarySurface.from_scale(CIRCLE, 1.25))
    return discrete.solve(discrete.assemble_nfm(CIRCLE, *aux, EXT, M1, M2, n_points=16))


# entry.argument -> (call with that argument set to v, message it must raise)
ENTRIES = {
    "exact.critical_radius.rho_cyl": (lambda v: exact.critical_radius(v, 4.0), RADII),
    "exact.critical_radius.rho_fil": (lambda v: exact.critical_radius(2.0, v), RADII),
    "exact.series_ratio.rho_obs": (lambda v: exact.series_ratio("ext_R1", v, 2.0, 4.0), OBS_RADIUS),
    "exact.series_ratio.rho_cyl": (lambda v: exact.series_ratio("ext_R1", 3.0, v, 4.0), RADII),
    "exact.series_ratio.rho_fil": (lambda v: exact.series_ratio("ext_R1", 3.0, 2.0, v), RADII),
    "exact.convergence_region.rho_obs": (
        lambda v: exact.convergence_region("ext_R1", v, 2.0, 4.0), OBS_RADIUS,
    ),
    "exact.incident_field.rho_obs": (lambda v: exact.incident_field(EXT, M1, v, 0.1), OBS_RADIUS),
    "exact.incident_field.phi_obs": (lambda v: exact.incident_field(EXT, M1, 3.0, v), OBS_ANGLES),
    "exact.refuse_filament_points.rho_obs": (
        lambda v: exact.refuse_filament_points(EXT, v, 0.1), OBS_RADIUS,
    ),
    "exact.refuse_filament_points.phi_obs": (
        lambda v: exact.refuse_filament_points(EXT, 3.0, v), OBS_ANGLES,
    ),
    "exact.mode_denominator.rho_cyl": (lambda v: exact.mode_denominator(3, v, M1, M2), RHO_CYL),
    "exact.default_n_cap.rho_obs": (
        lambda v: exact.default_n_cap("ext_R1", v, 2.0, EXT, M1, M2), OBS_RADIUS,
    ),
    "exact.default_n_cap.rho_cyl": (
        lambda v: exact.default_n_cap("ext_R1", 3.0, v, EXT, M1, M2), RADII,
    ),
    "exact.exact_ring.rho_obs": (
        lambda v: exact.exact_ring(EXT, 1, v, np.array([0.1]), 2.0, M1, M2), OBS_RADIUS,
    ),
    "exact.exact_ring.phis": (
        lambda v: exact.exact_ring(EXT, 1, 3.0, np.array([v]), 2.0, M1, M2), OBS_ANGLES,
    ),
    "exact.exact_ring.rho_cyl": (
        lambda v: exact.exact_ring(EXT, 1, 5.0, np.array([0.1]), v, M1, M2), RADII,
    ),
    "exact.exact_field.rho_obs": (
        lambda v: exact.exact_field(EXT, 1, v, 0.1, 2.0, M1, M2), OBS_RADIUS,
    ),
    "exact.exact_field.phi_obs": (
        lambda v: exact.exact_field(EXT, 1, 3.0, v, 2.0, M1, M2), OBS_ANGLES,
    ),
    "exact.exact_field.rho_cyl": (lambda v: exact.exact_field(EXT, 1, 5.0, 0.1, v, M1, M2), RADII),
    "exact.term_ratio_probe.rho_obs": (
        lambda v: exact.term_ratio_probe("ext_R1", 5, v, 2.0, 4.0, M1, M2), OBS_RADIUS,
    ),
    "exact.term_ratio_probe.rho_cyl": (
        lambda v: exact.term_ratio_probe("ext_R1", 5, 3.0, v, 4.0, M1, M2), RADII,
    ),
    "exact.term_ratio_probe.rho_fil": (
        lambda v: exact.term_ratio_probe("ext_R1", 5, 3.0, 2.0, v, M1, M2), RADII,
    ),
    "exact.Medium.eps_r": (lambda v: Medium(v, 1.0), "eps_r must be positive and finite"),
    "exact.Medium.mu_r": (lambda v: Medium(1.0, v), "mu_r must be positive and finite"),
    "geometry.Excitation.rho": (
        lambda v: Excitation("external", v), "source radius rho must be positive and finite",
    ),
    "geometry.Excitation.phi": (
        lambda v: Excitation("external", 4.0, v), "source phi must be finite",
    ),
    "geometry.Excitation.amplitude": (
        lambda v: Excitation("external", 4.0, 0.0, v), "source amplitude must be finite",
    ),
    "geometry.BoundaryCurve.contains.rho": (lambda v: CIRCLE.contains(v, 0.1), OBS_RADIUS),
    "geometry.BoundaryCurve.contains.phi": (
        lambda v: CIRCLE.contains(1.0, np.array([0.1, v])), OBS_ANGLES,
    ),
    "geometry.BoundaryCurve.circle.radius": (
        lambda v: BoundaryCurve.circle(v), "circle radius must be positive and finite",
    ),
    "geometry.BoundaryCurve.ellipse.semi_major": (
        lambda v: BoundaryCurve.ellipse(v, 1.0), "ellipse semi-axes must be positive and finite",
    ),
    "geometry.BoundaryCurve.ellipse.semi_minor": (
        lambda v: BoundaryCurve.ellipse(2.0, v), "ellipse semi-axes must be positive and finite",
    ),
    "geometry.AuxiliarySurface.from_scale.scale": (
        lambda v: AuxiliarySurface.from_scale(CIRCLE, v),
        "scale factor must be positive and finite",
    ),
    "geometry.AuxiliarySurface.from_radius.radius": (
        lambda v: AuxiliarySurface.from_radius(CIRCLE, v),
        "scale factor must be positive and finite",
    ),
    "continuous.mode_solve.rho_cyl": (lambda v: continuous.mode_solve(3, EXT, v, M1, M2), RHO_CYL),
    "continuous.density_series.phi": (
        lambda v: continuous.density_series(EXT, v, 2.0, M1, M2), OBS_ANGLES,
    ),
    "continuous.density_series.rho_cyl": (
        lambda v: continuous.density_series(EXT, 0.1, v, M1, M2), RHO_CYL,
    ),
    "continuous.reconstruct_fields_from_densities.rho_obs": (
        lambda v: continuous.reconstruct_fields_from_densities(EXT, v, 0.1, 2.0, M1, M2),
        OBS_RADIUS,
    ),
    "continuous.reconstruct_fields_from_densities.phi_obs": (
        lambda v: continuous.reconstruct_fields_from_densities(EXT, 5.0, v, 2.0, M1, M2),
        OBS_ANGLES,
    ),
    "continuous.reconstruct_fields_from_densities.rho_cyl": (
        lambda v: continuous.reconstruct_fields_from_densities(EXT, 5.0, 0.1, v, M1, M2),
        RHO_CYL,
    ),
    "diagnostics.oscillation_index.values": (
        lambda v: diagnostics.oscillation_index([v, 1.0]), "values must be finite",
    ),
    "discrete.kernels.k": (
        lambda v: discrete.kernels(v, [[1.0, 0.0]], [[0.0, 1.0]]),
        "wavenumber times distance must be positive and finite",
    ),
    "discrete.kernels.targets": (
        lambda v: discrete.kernels(1.0, [[v, 0.0]], [[0.0, 1.0]]), "points must be finite",
    ),
    "discrete.kernels.sources": (
        lambda v: discrete.kernels(1.0, [[1.0, 0.0]], [[0.0, v]]), "points must be finite",
    ),
    "fields.field_from_discrete.rho_obs": (
        lambda v: fields.field_from_discrete(_solution(), v, 0.1), OBS_RADIUS,
    ),
    "fields.field_from_discrete.phi_obs": (
        lambda v: fields.field_from_discrete(_solution(), 3.0, v), OBS_ANGLES,
    ),
    "specfun.bessel_j.x": (lambda v: specfun.bessel_j(2, v), ARGUMENT),
    "specfun.hankel2.x": (lambda v: specfun.hankel2(2, v), ARGUMENT),
    "specfun.wronskian_residual.x": (lambda v: specfun.wronskian_residual(2, v), ARGUMENT),
    "specfun.bessel_orders.x": (lambda v: specfun.bessel_orders(False, np.array([2]), v), ARGUMENT),
    "specfun.order_factors.j": (lambda v: specfun.order_factors(2, j={"a": v}), ARGUMENT),
    "specfun.graf_products.x": (lambda v: specfun.graf_products(v, 2.0, 5, (0,)), GRAF),
    "specfun.graf_products.y": (lambda v: specfun.graf_products(1.0, v, 5, (0,)), GRAF),
    "specfun.graf_order.x": (lambda v: specfun.graf_order(v, 2.0), GRAF),
    "specfun.graf_order.y": (lambda v: specfun.graf_order(1.0, v), GRAF),
    "specfun.addition_series_h0.x1": (lambda v: specfun.addition_series_h0(v, 2.0, 0.1), RADII),
    "specfun.addition_series_h0.x2": (lambda v: specfun.addition_series_h0(1.0, v, 0.1), RADII),
    "specfun.addition_series_h0.theta": (
        lambda v: specfun.addition_series_h0(1.0, 2.0, v), OBS_ANGLES,
    ),
    "oracles.addition_series_h0_d1.x1": (
        lambda v: oracles.addition_series_h0_d1(v, 2.0, 0.1), ADDITION,
    ),
    "oracles.addition_series_h0_d1.x2": (
        lambda v: oracles.addition_series_h0_d1(1.0, v, 0.1), ADDITION,
    ),
    "oracles.addition_series_h0_d2.x1": (
        lambda v: oracles.addition_series_h0_d2(v, 2.0, 0.1), ADDITION,
    ),
    "oracles.addition_series_h0_d2.x2": (
        lambda v: oracles.addition_series_h0_d2(1.0, v, 0.1), ADDITION,
    ),
}


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("entry", sorted(ENTRIES))
def test_every_public_entry_refuses_a_non_finite_argument_by_name(entry, value):
    # used to: oscillation_index returned nan (read as "not flagged"),
    # addition_series_h0 summed a nan x2 to a number, and incident_field,
    # mode_solve and mode_denominator raised specfun's "argument must be finite"
    call, message = ENTRIES[entry]
    # inf - inf on the way to the check is the case's point, not news
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match=message):
        call(value)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("argument", ["rho_obs", "phi_obs"])
def test_the_incident_field_names_a_non_finite_point_before_any_warning(argument, value):
    # the radius and the angles are checked before the law of cosines: an
    # infinite radius used to reach its inf - inf, and an infinite angle
    # np.cos, so that under warnings-as-errors numpy's "invalid value
    # encountered" came out instead of the named ValueError
    point = {"rho_obs": 3.0, "phi_obs": 0.1, argument: value}
    message = OBS_RADIUS if argument == "rho_obs" else OBS_ANGLES
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(all="warn"), pytest.raises(ValueError, match=message):
            exact.incident_field(EXT, M1, point["rho_obs"], point["phi_obs"])


# entry.argument -> the field with that radius set to v
HUGE_RADII = {
    "exact.incident_field.rho_obs": lambda v: exact.incident_field(EXT, M1, v, 0.1),
    "exact.incident_field.rho_fil": lambda v: exact.incident_field(
        Excitation("external", v, 0.3), M1, 3.0, 0.1
    ),
    "exact.exact_field.rho_obs": lambda v: exact.exact_field(EXT, 1, v, 0.1, 2.0, M1, M2).value,
    "fields.field_from_discrete.rho_obs": lambda v: fields.field_from_discrete(
        _solution(), v, 0.1
    ).e_z,
}


@pytest.mark.parametrize("value", [1e200, 1.7e308], ids=["1e200", "1.7e308"])
@pytest.mark.parametrize("entry", sorted(HUGE_RADII))
def test_a_finite_but_huge_radius_gives_a_finite_field(entry, value):
    # used to: the law of cosines squared a radius as a Python float, which
    # raised a bare OverflowError past about 1.3e154, and exact_field's
    # order cap converted an infinite 3 k rho to an integer past about 6e307
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        field = HUGE_RADII[entry](value)
    assert cmath.isfinite(field)


def test_a_huge_radius_keeps_a_ring_and_its_points_bit_for_bit():
    angles = np.array([0.1, 2.0, 4.0])
    ring = exact.incident_field(EXT, M1, 1e200, angles)
    points = [exact.incident_field(EXT, M1, 1e200, phi) for phi in angles.tolist()]
    assert ring.tobytes() == np.array(points).tobytes()
