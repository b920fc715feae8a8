"""Tests for boundary curves, auxiliary surfaces and excitations."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import hankel2

from cylwave.geometry import (
    AuxiliarySurface,
    BoundaryCurve,
    Excitation,
    collocation_points,
    pairwise_distances,
)

from circulant import circulant_deviation, is_circulant


def test_circle_collocation_n4():
    circle = BoundaryCurve.circle(2.0)
    points, normals, phis = collocation_points(circle, 4)
    want = np.array([[2.0, 0.0], [0.0, 2.0], [-2.0, 0.0], [0.0, -2.0]])
    assert np.allclose(points, want, atol=1e-14)
    assert np.allclose(normals, want / 2.0, atol=1e-14)
    assert np.allclose(phis, [0.0, np.pi / 2, np.pi, 3 * np.pi / 2])


def test_circle_radius_and_perimeter():
    circle = BoundaryCurve.circle(1.7)
    assert circle.radius(0.3) == 1.7
    assert circle.radius_deriv(0.3) == 0.0


def test_ellipse_normals_unit_and_outward():
    a, b = 2.0, 1.6
    ellipse = BoundaryCurve.ellipse(a, b)
    phis = np.linspace(0.0, 2.0 * np.pi, 37)
    points = ellipse.point(phis)
    normals = ellipse.normal(phis)
    assert np.allclose(np.hypot(normals[:, 0], normals[:, 1]), 1.0, atol=1e-12)
    # parallel to the gradient of x^2/a^2 + y^2/b^2, pointing away from the center
    grad = np.stack([points[:, 0] / a**2, points[:, 1] / b**2], axis=-1)
    cross = normals[:, 0] * grad[:, 1] - normals[:, 1] * grad[:, 0]
    assert np.max(np.abs(cross)) < 1e-12
    assert np.all(np.sum(normals * points, axis=-1) > 0.0)


def test_normal_orthogonal_to_tangent():
    curve = BoundaryCurve.star(
        lambda phi: 2.0 + 0.3 * np.cos(3.0 * np.asarray(phi)),
        lambda phi: -0.9 * np.sin(3.0 * np.asarray(phi)),
    )
    h = 1e-6
    for phi in np.linspace(0.1, 6.1, 11):
        tangent = (curve.point(phi + h) - curve.point(phi - h)) / (2.0 * h)
        n = curve.normal(phi)
        assert abs(np.dot(tangent, n)) < 1e-8 * np.hypot(*tangent)


def test_star_area_matches_polar_integral():
    # shoelace area of a dense sample polygon vs (1/2) integral r^2 dphi
    curve = BoundaryCurve.star(
        lambda phi: 2.0 + 0.3 * np.cos(3.0 * np.asarray(phi)),
        lambda phi: -0.9 * np.sin(3.0 * np.asarray(phi)),
    )
    want = 0.5 * (2.0 * np.pi) * (4.0 + 0.5 * 0.09)
    phis = np.linspace(0.0, 2.0 * np.pi, 20000, endpoint=False)
    pts = curve.point(phis)
    x, y = pts[:, 0], pts[:, 1]
    shoelace = 0.5 * np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)
    assert abs(shoelace - want) < 1e-6 * want


def test_scaled_preserves_kind():
    ellipse = BoundaryCurve.ellipse(2.0, 1.6)
    shrunk = ellipse.scaled(0.75)
    assert shrunk.kind == "ellipse"
    assert shrunk.params["semi_major"] == pytest.approx(1.5)
    assert np.allclose(shrunk.radius(0.4), 0.75 * ellipse.radius(0.4))
    assert BoundaryCurve.circle(2.0).scaled(1.25).params["radius"] == pytest.approx(2.5)


def test_invalid_curves_rejected():
    with pytest.raises(ValueError):
        BoundaryCurve.circle(0.0)
    with pytest.raises(ValueError):
        BoundaryCurve.ellipse(2.0, -1.0)
    with pytest.raises(ValueError):
        BoundaryCurve.star(  # dips below zero
            lambda phi: np.cos(np.asarray(phi)), lambda phi: -np.sin(np.asarray(phi))
        )
    with pytest.raises(ValueError):
        BoundaryCurve.circle(2.0).scaled(-1.0)


def test_contains():
    circle = BoundaryCurve.circle(2.0)
    assert circle.contains(1.99, 0.7)
    assert not circle.contains(2.0, 0.7)  # boundary counts as outside
    assert not circle.contains(2.01, 0.7)


def test_auxiliary_surface_placement():
    base = BoundaryCurve.circle(2.0)
    inner = AuxiliarySurface.from_scale(base, 0.75)
    outer = AuxiliarySurface.from_scale(base, 1.25)
    assert inner.side == "inner" and outer.side == "outer"
    assert inner.curve.params["radius"] == pytest.approx(1.5)
    by_radius = AuxiliarySurface.from_radius(base, 2.5)
    assert by_radius.side == "outer"
    assert by_radius.curve.params["radius"] == pytest.approx(2.5)


def test_auxiliary_surface_rejects_wrong_side():
    base = BoundaryCurve.circle(2.0)
    with pytest.raises(ValueError):
        AuxiliarySurface.from_scale(base, 1.2, side="inner")
    with pytest.raises(ValueError):
        AuxiliarySurface.from_scale(base, 0.8, side="outer")
    with pytest.raises(ValueError):
        AuxiliarySurface(base.scaled(1.0 + 1e-9), "banana")
    with pytest.raises(ValueError):
        AuxiliarySurface.from_radius(BoundaryCurve.ellipse(2.0, 1.6), 1.0)


def test_auxiliary_surface_crossing_detected():
    # a scaled copy of a different shape can cross the base curve
    base = BoundaryCurve.ellipse(2.0, 1.6)
    crossing = AuxiliarySurface(BoundaryCurve.circle(1.8), "inner")
    with pytest.raises(ValueError):
        crossing.validate_against(base)


def test_excitation_validation():
    circle = BoundaryCurve.circle(2.0)
    Excitation("external", 4.0).validate_against(circle)
    Excitation("internal", 1.0).validate_against(circle)
    with pytest.raises(ValueError):
        Excitation("external", 1.0).validate_against(circle)
    with pytest.raises(ValueError):
        Excitation("internal", 4.0).validate_against(circle)
    for region in ("external", "internal"):  # a filament on the boundary is on neither side
        with pytest.raises(ValueError):
            Excitation(region, 2.0).validate_against(circle)
    with pytest.raises(ValueError):
        Excitation("sideways", 4.0)
    with pytest.raises(ValueError):
        Excitation("external", -4.0)


def test_excitation_rejects_non_finite_values_naming_the_field():
    nan, inf = float("nan"), float("inf")
    for rho in (nan, inf):
        with pytest.raises(ValueError, match="rho must be positive and finite"):
            Excitation("external", rho)
    for phi in (nan, inf, -inf):
        with pytest.raises(ValueError, match="phi must be finite"):
            Excitation("external", 4.0, phi=phi)
    for amplitude in (complex("nan"), complex(1.0, inf), nan):
        with pytest.raises(ValueError, match="amplitude must be finite"):
            Excitation("internal", 1.0, amplitude=amplitude)


def test_excitation_position():
    exc = Excitation("external", 4.0, phi=np.pi / 2)
    assert np.allclose(exc.position_xy(), [0.0, 4.0], atol=1e-15)


def test_pairwise_distances_concentric():
    inner, _, _ = collocation_points(BoundaryCurve.circle(1.0), 8)
    outer, _, _ = collocation_points(BoundaryCurve.circle(1.5), 8)
    dist = pairwise_distances(outer, inner)
    assert dist[0, 0] == pytest.approx(0.5)
    assert dist[3, 3] == pytest.approx(0.5)
    # law of cosines for the off-diagonal
    want = np.sqrt(1.5**2 + 1.0**2 - 2.0 * 1.5 * np.cos(2.0 * np.pi * 3 / 8))
    assert dist[0, 3] == pytest.approx(want)


def test_pairwise_distances_rejects_coincident():
    pts, _, _ = collocation_points(BoundaryCurve.circle(1.0), 8)
    with pytest.raises(ValueError):
        pairwise_distances(pts, pts)


def test_collocation_needs_four_points():
    with pytest.raises(ValueError):
        collocation_points(BoundaryCurve.circle(1.0), 3)


def test_concentric_circle_kernel_is_circulant():
    obs, _, _ = collocation_points(BoundaryCurve.circle(2.5), 16)
    src, _, _ = collocation_points(BoundaryCurve.circle(1.5), 16)
    kernel = hankel2(0, pairwise_distances(obs, src))
    assert is_circulant(kernel)
    assert circulant_deviation(kernel) < 1e-14


def test_ellipse_kernel_is_not_circulant():
    base = BoundaryCurve.ellipse(2.0, 1.6)
    obs, _, _ = collocation_points(base, 16)
    src, _, _ = collocation_points(base.scaled(0.75), 16)
    kernel = hankel2(0, pairwise_distances(obs, src))
    assert not is_circulant(kernel)
    assert circulant_deviation(kernel) > 1e-3


def test_circulant_deviation_rejects_nonsquare():
    with pytest.raises(ValueError):
        circulant_deviation(np.ones((3, 4)))


@settings(deadline=None, max_examples=40)
@given(
    a=st.floats(min_value=0.5, max_value=4.0),
    b=st.floats(min_value=0.5, max_value=4.0),
    phi=st.floats(min_value=0.0, max_value=2.0 * np.pi),
)
def test_ellipse_normal_property(a, b, phi):
    ellipse = BoundaryCurve.ellipse(a, b)
    n = ellipse.normal(phi)
    assert abs(np.hypot(n[0], n[1]) - 1.0) < 1e-10
    assert np.dot(n, ellipse.point(phi)) > 0.0


@settings(deadline=None, max_examples=30)
@given(
    scale=st.floats(min_value=0.2, max_value=0.95),
    n=st.integers(min_value=4, max_value=32),
)
def test_scaled_collocation_distances_scale(scale, n):
    base, _, _ = collocation_points(BoundaryCurve.ellipse(2.0, 1.6), n)
    small, _, _ = collocation_points(BoundaryCurve.ellipse(2.0, 1.6).scaled(scale), n)
    assert np.allclose(np.hypot(*small.T), scale * np.hypot(*base.T), rtol=1e-12)
