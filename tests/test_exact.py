"""Tests for the circular-cylinder series solution."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cylwave import exact, specfun
from cylwave.exact import Medium, critical_radius, exact_field
from cylwave.geometry import Excitation

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


def test_critical_radius():
    assert critical_radius(2.0, 4.0) == pytest.approx(1.0)
    assert critical_radius(2.0, 1.0) == pytest.approx(4.0)
    assert critical_radius(1.7, 1.7) == pytest.approx(1.7)
    with pytest.raises(ValueError):
        critical_radius(0.0, 1.0)


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
        d1 = exact.exact_ring(exc, 1, RHO_CYL, [phi], RHO_CYL, M1, M2, deriv=True)[0].value
        d2 = exact.exact_ring(exc, 2, RHO_CYL, [phi], RHO_CYL, M1, M2, deriv=True)[0].value
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

    for n in (0, 3, 17):
        want = M1.Z * specfun.hankel2(n, M1.k * RHO_CYL) * specfun.bessel_j_prime(
            n, M2.k * RHO_CYL
        ) - M2.Z * specfun.bessel_j(n, M2.k * RHO_CYL) * specfun.hankel2_prime(
            n, M1.k * RHO_CYL
        )
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
    d_in = exact.exact_ring(EXT, 1, RHO_CYL - eps, [0.9], RHO_CYL, M1, M2, deriv=True)[0].value
    d_mid = exact.exact_ring(EXT, 1, RHO_CYL, [0.9], RHO_CYL, M1, M2, deriv=True)[0].value
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


def test_predicted_term_form_values():
    got = exact.predicted_term_form("ext_R1", 3, 3.0, RHO_CYL, 4.0)
    assert got == pytest.approx((2.0 / (3.0 * np.pi)) * (1.0 / 3.0) ** 3)
    got = exact.predicted_term_form("int_R1", 5, 3.0, RHO_CYL, 1.0)
    assert got == pytest.approx((1.0 / 3.0) ** 5 / 5.0)
    assert exact.predicted_term_form("ext_R2", -4, 1.2, RHO_CYL, 4.0) == pytest.approx(
        exact.predicted_term_form("ext_R2", 4, 1.2, RHO_CYL, 4.0)
    )
    with pytest.raises(ValueError):
        exact.predicted_term_form("ext_R1", 0, 3.0, RHO_CYL, 4.0)
    with pytest.raises(ValueError):
        exact.predicted_term_form("bogus", 3, 3.0, RHO_CYL, 4.0)


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


def test_incident_field_keeps_the_shape_of_its_angles():
    # a 2-D angle array gives, bit for bit, the raveled call in that shape
    exc = Excitation("external", 4.0, phi=0.3, amplitude=1.5 - 0.5j)
    grid = np.linspace(-3.0, 3.0, 6).reshape(2, 3)
    for field in (exact.incident_field, exact._incident_radial_deriv):
        got = field(exc, M2, 2.5, grid)
        flat = field(exc, M2, 2.5, grid.ravel())
        assert got.shape == (2, 3)
        assert got.tobytes() == flat.reshape(2, 3).tobytes()


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
    (res,) = exact.exact_ring(EXT_ON_AXIS, 1, 0.9, [0.0], RHO_CYL, M1, M2, deriv=True)
    assert not res.converged
    assert res.warning == "observation radius outside the convergence region of ext_R1"


def test_zero_amplitude_source():
    quiet = Excitation("external", 4.0, amplitude=0.0)
    res = exact_field(quiet, 1, 5.0, 0.0, RHO_CYL, M1, M2)
    assert res.value == 0.0 and res.converged


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
            with pytest.raises(ValueError, match="phis must be a 1-D array"):
                exact.exact_ring(EXT, 1, 5.0, phis, RHO_CYL, M1, M2, deriv=deriv)


@pytest.mark.parametrize("n_max", [-1, -16])
def test_negative_series_caps_are_rejected(n_max):
    with pytest.raises(ValueError, match="n_max must be non-negative"):
        exact.exact_ring(EXT, 1, 5.0, [0.0, 1.0], RHO_CYL, M1, M2, n_max=n_max)
    with pytest.raises(ValueError, match="n_max must be non-negative"):
        exact_field(EXT, 1, 5.0, 0.0, RHO_CYL, M1, M2, n_max=n_max)


def test_field_regression_anchors():
    ext = exact_field(EXT_ON_AXIS, 1, 10.0, 0.0, RHO_CYL, M1, M2)
    assert abs(ext.value - ANCHOR_EXT_R1_AT_10) < 1e-12
    internal = exact_field(INT_ON_AXIS, 2, 0.5, 1.0, RHO_CYL, M1, M2)
    assert abs(internal.value - ANCHOR_INT_R2_AT_HALF) < 1e-12


EXT_ON_AXIS = Excitation("external", 4.0)
INT_ON_AXIS = Excitation("internal", 1.0)
RING = 2.0 * np.pi * (np.arange(36) + 0.5) / 36.0
# rings on which some angles stop on the small-terms rule and the others
# run to the cap: (source, region, radius, deriv)
PARTLY_CONVERGED = [(EXT, 2, 2.6, False), (EXT, 1, 1.45, True)]


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
    assert len(ring) == RING.size
    for phi, got in zip(RING, ring):
        (want,) = exact.exact_ring(exc, region, rho_obs, [phi], RHO_CYL, M1, M2, deriv=deriv)
        assert np.array_equal(got.value, want.value)
        assert got.n_used == want.n_used
        assert got.tail_estimate == want.tail_estimate
        assert got.converged == want.converged
        assert got.warning == want.warning
    if (exc, region, rho_obs, deriv) in PARTLY_CONVERGED:
        assert 0 < sum(result.converged for result in ring) < RING.size


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


# -- order blocks against the per-order loop ------------------------------------


def _same_sums(got, want):
    """Equal bytes for value, n_used, tail and converged, equal warnings in order.

    got is what specfun.sum_orders returns, want what series_loop.sum_adaptive
    returns (no magnitude of the last term).
    """
    got = got[:2] + got[3:]
    for g, w in zip(got[:4], want[:4]):
        assert np.asarray(g).tobytes() == np.asarray(w).tobytes()
    assert got[4] == want[4]


def _same_results(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert np.complex128(g.value).tobytes() == np.complex128(w.value).tobytes()
        assert (g.n_used, g.converged, g.warning) == (w.n_used, w.converged, w.warning)
        assert np.float64(g.tail_estimate).tobytes() == np.float64(w.tail_estimate).tobytes()


def _ring(k):
    return 2.0 * np.pi * (np.arange(k) + 0.5) / k


def test_sum_adaptive_matches_the_per_order_loop_bit_for_bit():
    # exact.sum_series, the scalar adapter, summed by specfun.sum_orders.
    # Synthetic terms reach every way an angle stops: convergence at orders
    # on both sides of a run seam, a partial sum that cancels to zero
    # (growing without bound), a raising order, a non-finite term, and a cap
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
            want = series_loop.sum_adaptive(term, angles, cap)
            _same_sums(exact.sum_series(term, angles, cap), want)
            flags.update(want[4])
            orders.update(want[1].tolist())
    assert {
        None,
        "series terms growing without bound",
        "series truncated at n=40 by order overflow",
        "series truncated at n=21 by floating-point range",
    } <= flags
    assert {16, 17, 18} <= orders


@pytest.mark.parametrize("series_id", exact.SERIES_IDS)
@pytest.mark.parametrize("deriv", [False, True], ids=["value", "deriv"])
def test_exact_ring_matches_the_per_order_loop_bit_for_bit(series_id, deriv):
    side = "external" if series_id.startswith("ext") else "internal"
    region = int(series_id[-1])
    rotated = Excitation(side, 4.0 if side == "external" else 1.0, phi=0.7, amplitude=1.5 - 0.5j)
    plain = Excitation(side, rotated.rho)
    # inside and beyond the physical region, a ring outside the convergence
    # region, and caps past order overflow and below the stop
    radii = {1: (10.0, 2.5, 1.2, 0.3), 2: (1.3, 0.4, 3.0, 9.0)}[region]
    spread = 0
    for exc in (plain, rotated):
        for rho_obs in radii:
            for k, n_max in ((1, None), (4, None), (36, None), (4, 5), (4, 400)):
                args = (exc, region, rho_obs, _ring(k), RHO_CYL, M1, M2, n_max, deriv)
                got = exact.exact_ring(*args)
                _same_results(got, series_loop.exact_ring(*args))
                spread += len({r.n_used for r in got}) > 1
    assert spread > 0
