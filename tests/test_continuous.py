"""Tests for the mode-space boundary densities and field reconstruction."""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from cylwave import continuous, exact, specfun
from cylwave.continuous import (
    density_series,
    density_term_asymptotics,
    mode_solve,
    reconstruct_fields_from_densities,
)
from cylwave.exact import Medium
from cylwave.geometry import Excitation

import series_loop

M1 = Medium()
M2 = Medium(4.2, 1.0)
RHO_CYL = 2.0
EXT = Excitation("external", 4.0)
INT = Excitation("internal", 1.0)


def _closed_form(n, excitation, rho_cyl, medium1, medium2):
    # Cramer solution of the per-mode matching system, written out by hand
    k1, z1 = medium1.k, medium1.Z
    k2, z2 = medium2.k, medium2.Z
    delta = exact.mode_denominator(n, rho_cyl, medium1, medium2)
    front = excitation.amplitude / (2.0 * np.pi * rho_cyl)
    if excitation.region == "external":
        h_fil = specfun.hankel2(n, k1 * excitation.rho)
        electric = -front * z1 * h_fil * specfun.bessel_j_prime(n, k2 * rho_cyl) / delta
        magnetic = front * 1j * z1 * z2 * h_fil * specfun.bessel_j(n, k2 * rho_cyl) / delta
    else:
        j_fil = specfun.bessel_j(n, k2 * excitation.rho)
        electric = -front * z2 * j_fil * specfun.hankel2_prime(n, k1 * rho_cyl) / delta
        magnetic = front * 1j * z1 * z2 * j_fil * specfun.hankel2(n, k1 * rho_cyl) / delta
    return electric, magnetic


@pytest.mark.parametrize("exc", [EXT, INT], ids=["external", "internal"])
@pytest.mark.parametrize("n", [0, 1, 5, 17])
def test_mode_solve_matches_closed_form(exc, n):
    got = mode_solve(n, exc, RHO_CYL, M1, M2)
    want_e, want_m = _closed_form(n, exc, RHO_CYL, M1, M2)
    assert abs(got.electric - want_e) < 1e-12 * abs(want_e)
    assert abs(got.magnetic - want_m) < 1e-12 * abs(want_m)


def test_mode_solve_even_in_n():
    plus = mode_solve(7, EXT, RHO_CYL, M1, M2)
    minus = mode_solve(-7, EXT, RHO_CYL, M1, M2)
    assert plus.electric == minus.electric
    assert plus.magnetic == minus.magnetic


def test_mode_solve_source_rotation():
    rotated = Excitation("external", 4.0, phi=0.8)
    base = mode_solve(5, EXT, RHO_CYL, M1, M2)
    got = mode_solve(5, rotated, RHO_CYL, M1, M2)
    rot = np.exp(-1j * 5 * 0.8)
    assert abs(got.electric - base.electric * rot) < 1e-15
    assert abs(got.magnetic - base.magnetic * rot) < 1e-15


def test_mode_solve_linear_in_amplitude():
    quiet = Excitation("external", 4.0, amplitude=0.0)
    got = mode_solve(3, quiet, RHO_CYL, M1, M2)
    assert got.electric == 0.0 and got.magnetic == 0.0
    double = Excitation("external", 4.0, amplitude=2.0 + 0.0j)
    base = mode_solve(3, EXT, RHO_CYL, M1, M2)
    got = mode_solve(3, double, RHO_CYL, M1, M2)
    assert abs(got.electric - 2.0 * base.electric) < 1e-15


def test_density_series_solves_each_mode_once(monkeypatch):
    orders = []
    solve = continuous.mode_solve

    def counting(n, *args):
        orders.append(n)
        return solve(n, *args)

    monkeypatch.setattr(continuous, "mode_solve", counting)
    density_series(EXT, 0.7, RHO_CYL, M1, M2)
    assert sorted(orders) == list(range(len(orders)))


def test_angle_arrays_equal_one_angle_calls_bit_for_bit(monkeypatch):
    phis = 2.0 * np.pi * (np.arange(40) + 0.5) / 40.0
    orders = []
    solve = continuous.mode_solve

    def counting(n, *args):
        orders.append(n)
        return solve(n, *args)

    for exc in (EXT, INT, Excitation("external", 4.0, phi=0.7, amplitude=1.5 - 0.5j)):
        monkeypatch.setattr(continuous, "mode_solve", counting)
        orders.clear()
        j_z, m_phi = density_series(exc, phis, RHO_CYL, M1, M2)
        # one solve per mode for every angle of the call
        assert sorted(orders) == list(range(len(orders)))
        monkeypatch.setattr(continuous, "mode_solve", solve)
        assert j_z.shape == m_phi.shape == phis.shape
        pairs = [density_series(exc, phi, RHO_CYL, M1, M2) for phi in phis]
        assert np.array_equal(j_z, [pair[0] for pair in pairs])
        assert np.array_equal(m_phi, [pair[1] for pair in pairs])
        # a 2-D array gives the flat call's bytes in its shape
        grid = phis.reshape(5, 8)
        for got, flat in zip(density_series(exc, grid, RHO_CYL, M1, M2), (j_z, m_phi)):
            assert got.shape == grid.shape and got.tobytes() == flat.tobytes()
        for rho_obs in (10.0, 1.3):
            ring = reconstruct_fields_from_densities(exc, rho_obs, phis, RHO_CYL, M1, M2)
            points = [
                reconstruct_fields_from_densities(exc, rho_obs, phi, RHO_CYL, M1, M2)
                for phi in phis
            ]
            assert np.array_equal(ring, points)
            got = reconstruct_fields_from_densities(exc, rho_obs, grid, RHO_CYL, M1, M2)
            assert got.shape == grid.shape and got.tobytes() == ring.tobytes()


def test_densities_even_about_source_angle():
    j_plus, m_plus = density_series(EXT, 0.7, RHO_CYL, M1, M2)
    j_minus, m_minus = density_series(EXT, -0.7, RHO_CYL, M1, M2)
    assert j_plus == j_minus and m_plus == m_minus


def test_density_series_matches_brute_mode_sum():
    phi = 1.1
    want_j = mode_solve(0, EXT, RHO_CYL, M1, M2).electric
    want_m = mode_solve(0, EXT, RHO_CYL, M1, M2).magnetic
    for n in range(1, 80):
        c = mode_solve(n, EXT, RHO_CYL, M1, M2)
        want_j += 2.0 * c.electric * np.cos(n * phi)
        want_m += 2.0 * c.magnetic * np.cos(n * phi)
    got_j, got_m = density_series(EXT, phi, RHO_CYL, M1, M2)
    assert abs(got_j - want_j) < 1e-12 * abs(want_j)
    assert abs(got_m - want_m) < 1e-12 * abs(want_m)


def test_density_series_truncation_failure_raises():
    grazing = Excitation("external", RHO_CYL * 1.02)
    with pytest.raises(ArithmeticError):
        density_series(grazing, 0.0, RHO_CYL, M1, M2, n_max=60)


@pytest.mark.parametrize("n_max", [-1, -3])
def test_negative_series_caps_are_rejected(n_max):
    # not a convergence failure: the shared summation rejects the cap itself
    for exc in (EXT, INT):
        with pytest.raises(ValueError, match="n_max must be non-negative"):
            density_series(exc, [0.0, 0.5], RHO_CYL, M1, M2, n_max=n_max)
        with pytest.raises(ValueError, match="n_max must be non-negative"):
            reconstruct_fields_from_densities(exc, 10.0, [0.0, 0.5], RHO_CYL, M1, M2, n_max)


@pytest.mark.parametrize("exc", [EXT, INT], ids=["external", "internal"])
@pytest.mark.parametrize("which", ["J", "M"])
def test_density_asymptotics_converge_to_prediction(exc, which):
    errors = []
    for n in (60, 100, 150):
        c = mode_solve(n, exc, RHO_CYL, M1, M2)
        actual = c.electric if which == "J" else c.magnetic
        predicted = density_term_asymptotics(which, n, exc, RHO_CYL, M1, M2)
        errors.append(abs(actual / predicted - 1.0))
    # leading-form correction is ~(k2 rho_cyl)^2 / (4n): about 5% at n=60
    assert errors[0] < 0.07
    assert errors[2] < 0.025
    assert errors[2] < errors[1] < errors[0]


def test_magnetic_coefficients_decay_one_power_faster():
    c60 = mode_solve(60, EXT, RHO_CYL, M1, M2)
    c120 = mode_solve(120, EXT, RHO_CYL, M1, M2)
    scaled60 = abs(c60.magnetic / c60.electric) * 60
    scaled120 = abs(c120.magnetic / c120.electric) * 120
    assert abs(scaled120 / scaled60 - 1.0) < 0.05


def test_asymptotics_vanish_for_distant_source():
    far = Excitation("external", 1e6)
    tiny = density_term_asymptotics("J", 1, far, RHO_CYL, M1, M2)
    near = density_term_asymptotics("J", 1, EXT, RHO_CYL, M1, M2)
    assert abs(tiny) < 1e-5 * abs(near)


def test_asymptotics_argument_validation():
    with pytest.raises(ValueError):
        density_term_asymptotics("Q", 60, EXT, RHO_CYL, M1, M2)
    with pytest.raises(ValueError):
        density_term_asymptotics("J", 0, EXT, RHO_CYL, M1, M2)


@pytest.mark.parametrize(
    "exc, rho_obs, region",
    [(EXT, 10.0, 1), (EXT, 1.0, 2), (INT, 10.0, 1), (INT, 0.5, 2)],
)
def test_reconstruction_matches_exact_series(exc, rho_obs, region):
    for phi in np.linspace(0.0, 2.0 * np.pi, 16, endpoint=False):
        got = reconstruct_fields_from_densities(exc, rho_obs, phi, RHO_CYL, M1, M2)
        want = exact.exact_field(exc, region, rho_obs, phi, RHO_CYL, M1, M2).value
        assert abs(got - want) < 1e-9 * abs(want)


@pytest.mark.parametrize("rho_obs", [1.2, 5.0])
def test_reconstruction_transparent_cylinder(rho_obs):
    got = reconstruct_fields_from_densities(EXT, rho_obs, 0.9, RHO_CYL, M1, Medium())
    want = exact.incident_field(EXT, M1, rho_obs, 0.9)
    assert abs(got - want) < 1e-12 * abs(want)


def test_reconstruction_zero_amplitude():
    quiet = Excitation("external", 4.0, amplitude=0.0)
    assert reconstruct_fields_from_densities(quiet, 5.0, 0.0, RHO_CYL, M1, M2) == 0.0


def test_reconstruction_rejects_boundary_and_te():
    with pytest.raises(ValueError):
        reconstruct_fields_from_densities(EXT, RHO_CYL, 0.0, RHO_CYL, M1, M2)
    with pytest.raises(ValueError):
        reconstruct_fields_from_densities(EXT, -1.0, 0.0, RHO_CYL, M1, M2)


def test_offset_source_reconstruction():
    exc = Excitation("external", 4.0, phi=1.3)
    got = reconstruct_fields_from_densities(exc, 10.0, 0.4, RHO_CYL, M1, M2)
    want = exact.exact_field(exc, 1, 10.0, 0.4, RHO_CYL, M1, M2).value
    assert abs(got - want) < 1e-9 * abs(want)


@settings(deadline=None, max_examples=20)
@given(
    eps=st.floats(min_value=1.5, max_value=6.0),
    rho_cyl=st.floats(min_value=1.0, max_value=3.0),
    ratio=st.floats(min_value=1.5, max_value=2.5),
    obs_scale=st.floats(min_value=1.5, max_value=4.0),
    phi=st.floats(min_value=0.0, max_value=2.0 * np.pi),
)
def test_reconstruction_property(eps, rho_cyl, ratio, obs_scale, phi):
    m2 = Medium(eps, 1.0)
    exc = Excitation("external", rho_cyl * ratio)
    rho_obs = rho_cyl * obs_scale
    gap = np.hypot(rho_obs * np.cos(phi) - exc.rho, rho_obs * np.sin(phi))
    assume(gap > 0.05 * rho_cyl)  # keep the observation point off the filament
    got = reconstruct_fields_from_densities(exc, rho_obs, phi, rho_cyl, M1, m2, n_max=150)
    want = exact.exact_field(exc, 1, rho_obs, phi, rho_cyl, M1, m2, n_max=150).value
    assert abs(got - want) < 1e-7 * max(abs(want), 1e-30)


def _raised(fn, *args):
    try:
        return fn(*args), None
    except ArithmeticError as error:
        return None, type(error)


def test_density_series_match_the_per_order_loop_bit_for_bit():
    rotated = Excitation("external", 4.0, phi=0.7, amplitude=1.5 - 0.5j)
    near = Excitation("internal", 1.9, phi=-0.4, amplitude=0.5j)
    raised = 0
    for exc in (EXT, INT, rotated, near):
        for phi in (0.3, np.array([0.3]), 2.0 * np.pi * np.arange(4) / 4.0,
                    2.0 * np.pi * (np.arange(36) + 0.5) / 36.0):
            for n_max in (None, 12):
                args = (exc, phi, RHO_CYL, M1, M2, n_max)
                got, got_error = _raised(density_series, *args)
                want, want_error = _raised(series_loop.density_series, *args)
                assert got_error is want_error
                raised += want is None
                if want is not None:
                    for g, w in zip(got, want):
                        assert np.asarray(g).tobytes() == np.asarray(w).tobytes()
                        assert np.shape(g) == np.shape(w)
    # the capped series stop short of convergence and raise in both
    assert 0 < raised < 32


def test_reconstructed_fields_match_the_per_order_loop_bit_for_bit():
    rotated = Excitation("external", 4.0, phi=0.7, amplitude=1.5 - 0.5j)
    raised = 0
    for exc in (EXT, INT, rotated):
        for rho_obs in (10.0, 2.3, 1.3, 0.4):
            for phi in (0.3, 2.0 * np.pi * (np.arange(36) + 0.5) / 36.0):
                for n_max in (None, 8):
                    args = (exc, rho_obs, phi, RHO_CYL, M1, M2, n_max)
                    got, got_error = _raised(reconstruct_fields_from_densities, *args)
                    want, want_error = _raised(
                        series_loop.reconstruct_fields_from_densities, *args
                    )
                    assert got_error is want_error
                    raised += want is None
                    if want is not None:
                        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
                        assert np.shape(got) == np.shape(want)
    assert 0 < raised < 48
