"""Tests for the mode-space boundary densities and field reconstruction."""

import re

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from cylwave import exact, specfun
from cylwave.continuous import density_series, mode_solve, reconstruct_fields_from_densities
from cylwave.exact import Medium
from cylwave.geometry import Excitation

import frozen_series

M1 = Medium()
M2 = Medium(4.2, 1.0)
RHO_CYL = 2.0
EXT = Excitation("external", 4.0)
INT = Excitation("internal", 1.0)


def _closed_form(n, excitation, rho_cyl, medium1, medium2):
    # Cramer solution of the per-mode matching system, written out by hand
    # with the derivatives from the recurrence f' = (f_{n-1} - f_{n+1}) / 2
    k1, z1 = medium1.k, medium1.Z
    k2, z2 = medium2.k, medium2.Z
    delta = exact.mode_denominator(n, rho_cyl, medium1, medium2)
    front = excitation.amplitude / (2.0 * np.pi * rho_cyl)
    if excitation.region == "external":
        h_fil = specfun.hankel2(n, k1 * excitation.rho)
        jp = 0.5 * (specfun.bessel_j(n - 1, k2 * rho_cyl) - specfun.bessel_j(n + 1, k2 * rho_cyl))
        electric = -front * z1 * h_fil * jp / delta
        magnetic = front * 1j * z1 * z2 * h_fil * specfun.bessel_j(n, k2 * rho_cyl) / delta
    else:
        j_fil = specfun.bessel_j(n, k2 * excitation.rho)
        hp = 0.5 * (specfun.hankel2(n - 1, k1 * rho_cyl) - specfun.hankel2(n + 1, k1 * rho_cyl))
        electric = -front * z2 * j_fil * hp / delta
        magnetic = front * 1j * z1 * z2 * j_fil * specfun.hankel2(n, k1 * rho_cyl) / delta
    return electric, magnetic


def _density_term_asymptotics(which, n, excitation, rho_cyl, medium1=Medium(), medium2=Medium()):
    """Predicted n-th density coefficient in the large-order regime.

    Both families decay geometrically at the rate set by the source distance;
    the magnetic coefficients carry one extra power of 1/|n|, so the magnetic
    density is the smoother of the two.
    """
    n = abs(int(n))
    k1, z1 = medium1.k, medium1.Z
    k2, z2 = medium2.k, medium2.Z
    amp = excitation.amplitude
    front = amp / (2.0 * np.pi * rho_cyl)
    if excitation.region == "external":
        decay = (rho_cyl / excitation.rho) ** n
        if which == "J":
            return -front * decay * z1 / (z1 + z2 * k2 / k1)
        return front * decay * 1j * z1 * z2 * rho_cyl / (n * (z1 / k2 + z2 / k1))
    decay = (excitation.rho / rho_cyl) ** n
    if which == "J":
        return front * decay * z2 / (z1 * k1 / k2 + z2)
    return amp * 1j * z1 * z2 * decay / (2.0 * np.pi * n * (z1 / k2 + z2 / k1))


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


def _recording_orders(monkeypatch):
    """The (hankel, orders, arguments) of every specfun.bessel_orders call, as they come."""
    calls = []
    evaluate = specfun.bessel_orders

    def recording(hankel, n, x):
        calls.append((hankel, np.asarray(n).tolist(), np.atleast_1d(x).tolist()))
        return evaluate(hankel, n, x)

    monkeypatch.setattr(specfun, "bessel_orders", recording)
    return calls


def _elements(calls):
    return sum(len(orders) * len(args) for _, orders, args in calls)


def test_density_series_solves_each_mode_once(monkeypatch):
    calls = _recording_orders(monkeypatch)
    density_series(EXT, 0.7, RHO_CYL, M1, M2)
    # one call per kind and run, J then H2, each (order, argument) pair once in it
    assert [hankel for hankel, _, _ in calls] == [False, True] * (len(calls) // 2)
    for _, orders, args in calls:
        assert len(set(orders)) == len(orders) and len(set(args)) == len(args)
    # the two series share one solve of each run: modes 0, 1, 2, ... once per
    # call, with no restart, in runs whose neighbour orders (for the
    # derivatives) are read again by the next run
    modes = [n for hankel, orders, _ in calls if not hankel for n in orders[1:-1]]
    assert modes == list(range(len(modes)))


def test_angle_arrays_equal_one_angle_calls_bit_for_bit(monkeypatch):
    phis = 2.0 * np.pi * (np.arange(40) + 0.5) / 40.0
    calls = _recording_orders(monkeypatch)

    def elements(series, *args):
        calls.clear()
        value = series(*args)
        return value, _elements(calls)

    for exc in (EXT, INT, Excitation("external", 4.0, phi=0.7, amplitude=1.5 - 0.5j)):
        (j_z, m_phi), ring = elements(density_series, exc, phis, RHO_CYL, M1, M2)
        # one pass for every angle of the call: as many factors as its slowest angle alone
        points = [elements(density_series, exc, phi, RHO_CYL, M1, M2) for phi in phis]
        assert ring == max(count for _, count in points)
        assert j_z.shape == m_phi.shape == phis.shape
        pairs = [pair for pair, _ in points]
        assert np.array_equal(j_z, [pair[0] for pair in pairs])
        assert np.array_equal(m_phi, [pair[1] for pair in pairs])
        # a 2-D array gives the flat call's bytes in its shape
        grid = phis.reshape(5, 8)
        for got, flat in zip(density_series(exc, grid, RHO_CYL, M1, M2), (j_z, m_phi)):
            assert got.shape == grid.shape and got.tobytes() == flat.tobytes()
        for rho_obs in (10.0, 1.3):
            args = (exc, rho_obs)
            ring, count = elements(reconstruct_fields_from_densities, *args, phis, RHO_CYL, M1, M2)
            points = [
                elements(reconstruct_fields_from_densities, *args, phi, RHO_CYL, M1, M2)
                for phi in phis
            ]
            assert count == max(n for _, n in points)
            assert np.array_equal(ring, [value for value, _ in points])
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


def test_default_cap_covers_sources_near_the_boundary():
    # the default cap gives the series' ratio (rho_fil / rho_cyl inside,
    # rho_cyl / rho_fil outside) the orders it needs: these sources used to
    # raise at caps of 53-59 and converge now, at caps of 112, 137, 157 and
    # 133. Closer in, the Hankel factors overflow first, and the error says so.
    phis = 2.0 * np.pi * np.arange(64) / 64.0
    for side, rho_fil, cap in (
        ("internal", 1.2, 112),
        ("internal", 1.4, 137),
        ("external", 2.7, 157),
        ("external", 3.0, 133),
    ):
        exc = Excitation(side, rho_fil)
        assert exact.default_n_cap(side[:3] + "_R1", RHO_CYL, RHO_CYL, exc, M1, M2) == cap
        j_z, m_phi = density_series(exc, phis, RHO_CYL, M1, M2)
        assert np.isfinite(j_z).all() and np.isfinite(m_phi).all()
    for exc in (Excitation("internal", 1.8), Excitation("external", 2.2)):
        with pytest.raises(ArithmeticError, match="series truncated at n=169 by order overflow$"):
            density_series(exc, phis, RHO_CYL, M1, M2)


@settings(deadline=None, max_examples=25)
@given(
    source=st.one_of(
        st.tuples(st.just("external"), st.floats(min_value=2.7, max_value=8.0)),
        st.tuples(st.just("internal"), st.floats(min_value=0.2, max_value=1.4)),
    ),
    phi=st.floats(min_value=0.0, max_value=2.0 * np.pi),
)
def test_densities_are_the_boundary_traces_of_the_field_series(source, phi):
    # M = -E and J = -i dE/drho / (k Z) on the boundary, with the series of
    # either region. 400 seeded draws from these ranges measured at most
    # 1.3e-13 relative to the largest density (an external source at 2.71,
    # J from region 1) in 2.4 s of CPU.
    exc = Excitation(source[0], source[1], phi=phi)
    phis = 2.0 * np.pi * (np.arange(16) + 0.5) / 16.0
    j_z, m_phi = density_series(exc, phis, RHO_CYL, M1, M2)
    for region, medium in ((1, M1), (2, M2)):
        e = exact.exact_ring(exc, region, RHO_CYL, phis, RHO_CYL, M1, M2)
        de = exact.exact_ring(exc, region, RHO_CYL, phis, RHO_CYL, M1, M2, deriv=True)
        assert e.converged.all() and de.converged.all()
        assert np.max(np.abs(m_phi + e.value)) <= 5e-13 * np.max(np.abs(m_phi))
        j_trace = -1j * de.value / (medium.k * medium.Z)
        assert np.max(np.abs(j_z - j_trace)) <= 5e-13 * np.max(np.abs(j_z))


@pytest.mark.parametrize("n_max", [-1, -3])
def test_negative_series_caps_are_rejected(n_max):
    # not a convergence failure: the shared summation rejects the cap itself,
    # for a silent source too
    for exc in (EXT, INT, Excitation("external", 4.0, amplitude=0.0)):
        with pytest.raises(ValueError, match="n_max must be non-negative"):
            density_series(exc, [0.0, 0.5], RHO_CYL, M1, M2, n_max=n_max)
        with pytest.raises(ValueError, match="n_max must be non-negative"):
            reconstruct_fields_from_densities(exc, 10.0, [0.0, 0.5], RHO_CYL, M1, M2, n_max)


def test_series_caps_must_be_whole_numbers():
    # Every order series checks its cap once, in specfun.sum_orders. A whole
    # float is the cap of its int, with the same bits; a fraction, a
    # non-finite value or a bool is refused, naming n_max. The float and
    # infinite caps used to raise TypeError, and True summed to order 1.
    phis = np.array([0.0, 0.5])
    series = {
        "exact_field": lambda cap: exact.exact_field(EXT, 1, 5.0, 0.3, RHO_CYL, M1, M2, cap).value,
        "exact_ring": lambda cap: exact.exact_ring(EXT, 2, 1.0, phis, RHO_CYL, M1, M2, cap).value,
        "addition": lambda cap: specfun.addition_series_h0(1.0, 3.0, phis, cap),
        "densities": lambda cap: np.array(density_series(INT, phis, RHO_CYL, M1, M2, cap)),
        "reconstruction": lambda cap: reconstruct_fields_from_densities(
            EXT, 10.0, phis, RHO_CYL, M1, M2, cap
        ),
    }
    for name, value in series.items():
        assert np.asarray(value(60.0)).tobytes() == np.asarray(value(60)).tobytes(), name
        for cap in (60.5, np.inf, np.nan, True, np.float64(np.inf)):
            with pytest.raises(ValueError, match="n_max must be an integer"):
                value(cap)


@pytest.mark.parametrize("exc", [EXT, INT], ids=["external", "internal"])
@pytest.mark.parametrize("which", ["J", "M"])
def test_density_asymptotics_converge_to_prediction(exc, which):
    errors = []
    for n in (60, 100, 150):
        c = mode_solve(n, exc, RHO_CYL, M1, M2)
        actual = c.electric if which == "J" else c.magnetic
        predicted = _density_term_asymptotics(which, n, exc, RHO_CYL, M1, M2)
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
    tiny = _density_term_asymptotics("J", 1, far, RHO_CYL, M1, M2)
    near = _density_term_asymptotics("J", 1, EXT, RHO_CYL, M1, M2)
    assert abs(tiny) < 1e-5 * abs(near)


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
    got = reconstruct_fields_from_densities(quiet, 5.0, [0.0, 0.5], RHO_CYL, M1, M2)
    assert got.shape == (2,) and np.all(got == 0.0)


def test_reconstruction_rejects_boundary_and_te():
    with pytest.raises(ValueError):
        reconstruct_fields_from_densities(EXT, RHO_CYL, 0.0, RHO_CYL, M1, M2)
    with pytest.raises(ValueError):
        reconstruct_fields_from_densities(EXT, -1.0, 0.0, RHO_CYL, M1, M2)
    for rho_obs in (np.inf, np.nan):
        with pytest.raises(ValueError, match="observation radius must be positive and finite"):
            reconstruct_fields_from_densities(EXT, rho_obs, 0.0, RHO_CYL, M1, M2)


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


def _excitation(name):
    side, rho, phi, amplitude = frozen_series.EXCITATIONS[name]
    return Excitation(side, rho, phi=phi, amplitude=amplitude)


def test_density_series_match_the_frozen_references():
    # Against the frozen 50-digit sums of tests/frozen_series.py, summed to
    # convergence, at five angles, each density relative to its largest
    # value; and which capped or near-boundary series raise. Measured: at
    # most 2.7e-14, the stop rule's truncation included (tolerance 1e-13);
    # the per-order loop measured the same.
    media = tuple(Medium(*m) for m in frozen_series.MEDIA)
    angles = np.array(frozen_series.ANGLES5)
    raised = 0
    for (name, n_max), want in frozen_series.DENSITY.items():
        args = (_excitation(name), frozen_series.RHO_CYL, *media, n_max)
        if want is None:
            with pytest.raises(ArithmeticError, match="not converged"):
                density_series(args[0], 0.3, *args[1:])
            raised += 1
            continue
        got = density_series(args[0], angles, *args[1:])
        if want == "converges":
            continue
        for g, w in zip(got, np.array(want).T):
            assert np.max(np.abs(g - w)) <= 1e-13 * np.max(np.abs(w)), (name, n_max)
        # one angle gives a pair of scalars with the same bits
        one = density_series(args[0], float(angles[1]), *args[1:])
        assert [np.ndim(v) for v in one] == [0, 0]
        assert np.array_equal(one, [got[0][1], got[1][1]])
    assert 0 < raised < len(frozen_series.DENSITY)


def test_reconstructed_fields_match_the_frozen_references():
    # Against the frozen 50-digit sums of tests/frozen_series.py, summed to
    # convergence, at five angles on rings outside and inside the boundary,
    # relative to the ring's largest value; and which capped series raise.
    # Measured: at most 1.3e-14, the stop rule's truncation included
    # (tolerance 5e-14); the per-order loop measured the same.
    media = tuple(Medium(*m) for m in frozen_series.MEDIA)
    angles = np.array(frozen_series.ANGLES5)
    raised = 0
    for (name, rho_obs, n_max), want in frozen_series.RECONSTRUCTION.items():
        args = (_excitation(name), rho_obs, angles, frozen_series.RHO_CYL, *media, n_max)
        if want is None:
            with pytest.raises(ArithmeticError, match="not converged"):
                reconstruct_fields_from_densities(*args)
            raised += 1
            continue
        got = reconstruct_fields_from_densities(*args)
        if want == "converges":
            continue
        assert np.max(np.abs(got - want)) <= 5e-14 * np.max(np.abs(want)), (name, rho_obs)
    assert 0 < raised < len(frozen_series.RECONSTRUCTION)


MEDIA_RANGES = ((1.0, 2.0), (1.0, 1.5), (1.5, 8.0), (1.0, 3.0))  # eps1, mu1, eps2, mu2
# how a series that did not converge is refused, naming its stop
UNCONVERGED = (
    r"not converged within n_max=\d+: series (truncated at n=\d+ by "
    r"(order overflow|floating-point range)|terms growing without bound)"
)


@settings(deadline=None, max_examples=30, derandomize=True)
@given(
    rho_cyl=st.floats(1.0, 3.0),
    media=st.tuples(*(st.floats(lo, hi) for lo, hi in MEDIA_RANGES)),
    source=st.one_of(
        st.tuples(st.just("external"), st.floats(1.05, 4.0)),
        st.tuples(st.just("internal"), st.floats(0.05, 0.95)),
    ),
    observed=st.one_of(st.floats(0.1, 0.95), st.floats(1.05, 3.0)),
    phis=st.lists(st.floats(0.0, 2.0 * np.pi), min_size=1, max_size=8),
)
def test_densities_and_their_fields_return_or_name_their_stop(
    rho_cyl, media, source, observed, phis
):
    # every valid source: the density series and the field they radiate
    # either return finite values or raise naming the order they stopped at
    side, scale = source
    exc = Excitation(side, scale * rho_cyl, phis[0] + 1.0)
    assume(abs(observed - scale) > 1e-3 * scale)
    media = Medium(*media[:2]), Medium(*media[2:])
    calls = (
        lambda: density_series(exc, phis, rho_cyl, *media),
        lambda: reconstruct_fields_from_densities(exc, observed * rho_cyl, phis, rho_cyl, *media),
    )
    for call in calls:
        try:
            values = call()
        except ArithmeticError as err:
            assert re.search(UNCONVERGED, str(err)), str(err)
        else:
            assert np.isfinite(values).all()
