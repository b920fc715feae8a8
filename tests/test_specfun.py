"""Special-function layer against the extended-precision oracle."""

import cmath
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import special

import frozen_series
import oracles
import series_loop
from cylwave import exact, specfun
from cylwave.continuous import density_series, mode_solve, reconstruct_fields_from_densities
from cylwave.geometry import Excitation

# Values frozen from the mpmath oracle (tests/oracles.py, 50 digits).
J0_AT_1 = 0.7651976865579666
J5_AT_2 = 0.007039629755871685
JP1_AT_1 = 0.3251471008130331  # step-extrapolated finite difference agrees
H2_0_AT_1 = 0.7651976865579666 - 0.0882569642156770j
JP3_AT_2 = 0.15941915440403465  # (J_2(2) - J_4(2)) / 2
WRONSKIAN_AT_2 = -0.3183098861837907j  # 2 / (i pi 2)

X_GRID = [0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 40.0]


def _factors(n, x):
    """(J_n, J'_n, H2_n, H2'_n) at x, as specfun.order_factors reads them."""
    table = specfun.order_factors(n, {"j": x}, {"h": x})
    return (*table["j"], *table["h"])


def _derivative(f):
    """f' = (f_{n-1} - f_{n+1}) / 2 from a function of (n, x), order by order."""
    return lambda n, x: 0.5 * (f(n - 1, x) - f(n + 1, x))


def _scipy(hankel):
    """J_n(x), or H2_n(x) if hankel, from scipy.special alone: Cephes j0, y0,
    j1 and y1 for |n| <= 1, AMOS jv and hankel2 above, negative orders folded
    by parity. The reference specfun's one evaluator is held to, bit for bit."""

    def value(n, x):
        m = abs(n)
        if m <= 1:
            j, y = ((special.j0, special.y0), (special.j1, special.y1))[m]
            out = np.empty(np.shape(x), complex if hankel else float)
            out.real = j(x)
            if hankel:
                out.imag = -y(x)
        else:
            out = (special.hankel2 if hankel else special.jv)(m, x)
        return -out if n < 0 and m % 2 else out

    return value


def test_bessel_j_small_argument_limit():
    assert specfun.bessel_j(0, 1e-12) == pytest.approx(1.0, abs=1e-12)


def test_bessel_j_frozen_values():
    assert specfun.bessel_j(0, 1.0) == pytest.approx(J0_AT_1, rel=1e-12)
    assert specfun.bessel_j(5, 2.0) == pytest.approx(J5_AT_2, rel=1e-12)


def test_bessel_j_prime_frozen_values():
    assert _factors(0, 0.7)[1] == pytest.approx(-specfun.bessel_j(1, 0.7), abs=1e-15)
    assert _factors(1, 1.0)[1] == pytest.approx(JP1_AT_1, rel=1e-12)
    assert _factors(3, 2.0)[1] == pytest.approx(JP3_AT_2, rel=1e-12)


def test_hankel2_frozen_value():
    got = specfun.hankel2(0, 1.0)
    assert got == pytest.approx(H2_0_AT_1, rel=1e-12)


def test_hankel2_imag_negative_near_origin():
    # Im H2_n = -Y_n > 0 is false: Y_n < 0 before its first zero, so Im > 0.
    # The sign convention worth pinning: H2 = J - iY with Y_0(0.5) < 0.
    val = specfun.hankel2(0, 0.5)
    assert val.imag > 0
    assert oracles.bessel_y_mp(0, 0.5) < 0


def test_wronskian_frozen_value():
    j, jp, h, hp = _factors(3, 2.0)
    val = j * hp - jp * h
    assert val == pytest.approx(WRONSKIAN_AT_2, rel=1e-12)


def test_wronskian_order_arrays_equal_one_order_calls_bit_for_bit():
    # one table per kind over an order array; each column has the bits of
    # the scalar functions' residual at that order, scalar n keeps its type
    radii = np.array(X_GRID)
    orders = np.arange(61)
    got = specfun.wronskian_residual(orders, radii)
    assert got.shape == (len(X_GRID), 61)
    for n in orders.tolist():
        x = radii
        want = (
            specfun.bessel_j(n, x) * _derivative(specfun.hankel2)(n, x)
            - _derivative(specfun.bessel_j)(n, x) * specfun.hankel2(n, x)
        ) - 2.0 / (1j * np.pi * x)
        assert got[:, n].tobytes() == want.tobytes()
        one = specfun.wronskian_residual(n, 2.0)
        assert type(one) is np.complex128
        assert one == got[X_GRID.index(2.0), n]
    assert specfun.wronskian_residual(np.array([7, 3]), 2.0).tolist() == [got[3, 7], got[3, 3]]
    with pytest.raises(specfun.BesselOverflowError):
        specfun.wronskian_residual(400, 0.1)


@pytest.mark.parametrize("x", X_GRID)
def test_wronskian_identity_full_grid(x):
    scale = 2.0 / (np.pi * x)
    for n in range(0, 61):
        assert abs(specfun.wronskian_residual(n, x)) < 1e-12 * scale


def test_against_oracle_spot_grid():
    for n in (0, 1, 4, 13, 37):
        for x in (0.3, 2.0, 9.5):
            assert specfun.bessel_j(n, x) == pytest.approx(
                oracles.bessel_j_mp(n, x), rel=1e-12, abs=1e-280
            )
            assert specfun.hankel2(n, x) == pytest.approx(
                oracles.hankel2_mp(n, x), rel=1e-12
            )
            _, jp, _, hp = _factors(n, x)
            assert jp == pytest.approx(oracles.bessel_j_prime_mp(n, x), rel=1e-12, abs=1e-280)
            assert hp == pytest.approx(oracles.hankel2_prime_mp(n, x), rel=1e-12)


# first zeros of J0, Y0, J1 and Y1
FIRST_ZEROS = (2.404825557695773, 0.8935769662791675, 3.831705970207512, 2.197141326031017)
NEAR_ZEROS = [z + d for z in FIRST_ZEROS for d in (-1e-3, -1e-6, -1e-9, 0.0, 1e-9, 1e-6, 1e-3)]


@pytest.mark.parametrize("n", [-1, 0, 1])
def test_low_orders_against_oracle_from_tiny_to_large_arguments(n):
    # near a zero the relative error of any float64 evaluation is unbounded;
    # there the gate is absolute, on the large-argument envelope sqrt(2/(pi x))
    for x in [*np.geomspace(1e-3, 1e3, 61), *NEAR_ZEROS]:
        near_zero = min(abs(x - z) for z in FIRST_ZEROS) <= 1e-3
        floor = 1e-14 * np.sqrt(2.0 / (np.pi * x)) if near_zero else 0.0
        j_want, y_want = oracles.bessel_j_mp(n, x), oracles.bessel_y_mp(n, x)
        h = specfun.hankel2(n, x)
        for got, want in ((specfun.bessel_j(n, x), j_want), (h.real, j_want), (-h.imag, y_want)):
            assert abs(got - want) <= max(1e-12 * abs(want), floor), (n, x)


def test_negative_order_parity():
    for n in (1, 2, 5, 8):
        sign = (-1.0) ** n
        assert specfun.bessel_j(-n, 3.0) == sign * specfun.bessel_j(n, 3.0)
        assert specfun.hankel2(-n, 3.0) == sign * specfun.hankel2(n, 3.0)


def test_recurrence_consistency():
    for n in range(1, 40):
        for x in (0.5, 2.0, 7.0):
            jn = specfun.bessel_j(n, x)
            if abs(jn) <= 1e-250:
                continue
            lhs = specfun.bessel_j(n - 1, x) + specfun.bessel_j(n + 1, x)
            assert lhs == pytest.approx(2.0 * n / x * jn, rel=1e-11)


def test_domain_errors():
    finite, positive = "argument must be finite", "argument must be positive"
    cases = [
        (0.0, positive), (-1.0, positive), (np.nan, finite), (np.inf, finite),
        (-np.inf, finite), (-0.0, positive),
        (np.float64(0.0), positive), (np.float64(-1.0), positive),
        (np.float64(np.nan), finite), (np.float64(-np.inf), finite),
        (np.array(-1.0), positive), (np.array(np.nan), finite),
        (np.array([1.0, 2.0, -0.5]), positive), (np.array([1.0, np.inf, 2.0]), finite),
        (np.array([-1.0, np.nan]), finite),
    ]
    for n in (0, 1, 2):
        for bad, message in cases:
            with pytest.raises(ValueError, match=message):
                specfun.bessel_j(n, bad)
            with pytest.raises(ValueError, match=message):
                specfun.hankel2(n, bad)


def test_overflow_is_tagged_not_silent():
    with pytest.raises(specfun.BesselOverflowError):
        specfun.hankel2(500, 0.1)
    with pytest.raises(specfun.BesselOverflowError):
        specfun.hankel2(500, np.float64(0.1))
    with pytest.raises(specfun.BesselOverflowError):
        specfun.wronskian_residual(400, 0.2)
    with pytest.raises(specfun.BesselOverflowError):
        specfun.hankel2(1, 1e-310)


def test_array_arguments():
    x = np.array([0.5, 1.0, 2.0])
    vals = specfun.hankel2(1, x)
    assert vals.shape == (3,)
    assert vals[1] == pytest.approx(oracles.hankel2_mp(1, 1.0), rel=1e-12)
    grid = np.array([[0.5, 1.0], [2.0, 40.0]])
    for n in (-1, 0, 1):
        assert specfun.hankel2(n, grid).shape == specfun.bessel_j(n, grid).shape == (2, 2)
        assert isinstance(specfun.hankel2(n, 2.0), complex)
        assert isinstance(specfun.bessel_j(n, 2.0), float)
    assert np.array_equal(specfun.hankel2(-1, grid), -specfun.hankel2(1, grid))


def _distance(x1, x2, theta):
    return np.sqrt(x1**2 + x2**2 - 2 * x1 * x2 * np.cos(theta))


def test_addition_series_frozen_case():
    got = specfun.addition_series_h0(1.0, 3.0, 0.7, n_max=40)
    want = specfun.hankel2(0, _distance(1.0, 3.0, 0.7))
    assert abs(got - want) < 1e-10


def test_addition_series_even_in_theta():
    a = specfun.addition_series_h0(1.0, 2.5, 1.1, n_max=40)
    b = specfun.addition_series_h0(1.0, 2.5, -1.1, n_max=40)
    assert a == b


def test_addition_series_closure_grid():
    # Inner radii below ~1 with a tight ratio push the crossover past the
    # order where H2_n overflows in float64, so the series is cut off before
    # the 1e-10 level is reached.  Radii of order one and above converge
    # comfortably for every ratio in the band.
    x1s = np.linspace(1.0, 3.0, 5)
    ratios = np.linspace(1.2, 10.0, 5)
    thetas = np.linspace(0.0, np.pi, 8)
    for x1 in x1s:
        for r in ratios:
            x2 = x1 * r
            for th in thetas:
                d = _distance(x1, x2, th)
                want0 = specfun.hankel2(0, d)
                got0 = specfun.addition_series_h0(x1, x2, th, n_max=220)
                assert abs(got0 - want0) < 1e-10
                want1 = (x1 - x2 * np.cos(th)) / d * specfun.hankel2(1, d)
                got1 = oracles.addition_series_h0_d1(x1, x2, th, n_max=220)
                assert abs(got1 - want1) < 1e-10
                want2 = (x2 - x1 * np.cos(th)) / d * specfun.hankel2(1, d)
                got2 = oracles.addition_series_h0_d2(x1, x2, th, n_max=220)
                assert abs(got2 - want2) < 1e-10


def test_addition_series_derivatives_at_pi():
    x1, x2, th = 1.0, 2.0, np.pi
    d = _distance(x1, x2, th)  # = 3
    want1 = (x1 - x2 * np.cos(th)) / d * specfun.hankel2(1, d)
    want2 = (x2 - x1 * np.cos(th)) / d * specfun.hankel2(1, d)
    assert abs(oracles.addition_series_h0_d1(x1, x2, th, 60) - want1) < 1e-10
    assert abs(oracles.addition_series_h0_d2(x1, x2, th, 60) - want2) < 1e-10


def test_addition_series_warns_when_truncated_early():
    with pytest.warns(UserWarning):
        specfun.addition_series_h0(2.0, 2.2, 0.3, n_max=4)


def test_addition_series_argument_validation():
    with pytest.raises(ValueError):
        specfun.addition_series_h0(1.0, 1.0, 0.5)
    with pytest.raises(ValueError):
        oracles.addition_series_h0_d1(2.0, 1.0, 0.5)
    for series in (
        specfun.addition_series_h0,
        oracles.addition_series_h0_d1,
        oracles.addition_series_h0_d2,
    ):
        with pytest.raises(ValueError, match="n_max"):
            series(1.0, 3.0, 0.7, n_max=-1)
        with pytest.raises(ValueError, match="1-D"):
            series(1.0, 3.0, np.zeros((2, 2)))


_ADDITION = {
    "h0": specfun.addition_series_h0,
    "h0_d1": oracles.addition_series_h0_d1,
    "h0_d2": oracles.addition_series_h0_d2,
}


def _series_and_warnings(series, *args):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        value = series(*args)
    return value, [str(w.message) for w in caught]


def _recording_stops(monkeypatch):
    """Record what each specfun.sum_orders call returns, in a list."""
    stops, sum_orders = [], specfun.sum_orders

    def recording(*args, **kwargs):
        out = sum_orders(*args, **kwargs)
        stops.append(out)
        return out

    monkeypatch.setattr(specfun, "sum_orders", recording)
    return stops


@pytest.mark.parametrize("kind", ["h0", "h0_d1", "h0_d2"])
def test_addition_series_match_the_frozen_references(kind, monkeypatch):
    # Against the frozen 50-digit partial sums of tests/frozen_series.py:
    # n_max on both sides of each block seam, inner radii small enough that
    # the series is cut short, and five points of the closure grid. The
    # stop orders and warnings of the one-order loop exactly; the values to
    # a tolerance set from the measured gap, relative to the value. Where
    # the sum stops by order 70 the gap is at most 2.9e-15 (tolerance
    # 5e-14; 1.3e-14 from AMOS factors). Deeper sums run past the orders
    # where AMOS's J_n(x1) underflows to zero (below about 1e-293), where
    # the AMOS-factor sums stopped; the tolerance there is 20 times
    # (x1 / x2)^n_used, capped at 1e-11, and the gap measured at most 0.055
    # times that (0.22 times for the AMOS-factor sums). At (0.05, 0.0505)
    # the gaps are 8.1e-16 (h0), 5.0e-15 (h0_d1) and 1.5e-15 (h0_d2).
    stops = _recording_stops(monkeypatch)
    series = _ADDITION[kind]
    warned = deep = 0
    pairs = {}
    for (k, x1, x2, th, n_max), (value, n_used, tail) in frozen_series.ADDITION.items():
        if k != kind:
            continue
        got, caught = _series_and_warnings(series, x1, x2, th, n_max)
        assert int(stops[-1][1][0]) == n_used
        assert caught == ([] if tail is None else [frozen_series.TAIL_WARNING % tail])
        tolerance = 5e-14 if n_used <= 70 else min(20.0 * (x1 / x2) ** n_used, 1e-11)
        assert abs(got - value) <= tolerance * abs(value), (x1, x2, th, n_max)
        warned += tail is not None
        deep += n_used > 70
        pairs.setdefault((x1, x2, n_max), [0.4, -1.7]).append(th)
    assert warned > 0 and deep > 0
    # Each radius pair's angles in one call (two more angles added to every
    # pair) must give every angle the bits and the warning of its own call,
    # also where the angles stop at different orders.
    spread = 0
    for (x1, x2, n_max), angles in pairs.items():
        got, got_warnings = _series_and_warnings(series, x1, x2, np.array(angles), n_max)
        orders = set(stops[-1][1].tolist())
        want, want_warnings = [], []
        for th in angles:
            value, caught = _series_and_warnings(series, x1, x2, th, n_max)
            want.append(value)
            want_warnings += caught
        case = (x1, x2, angles, n_max)
        assert got.shape == (len(angles),), case
        assert got.tobytes() == np.array(want, dtype=complex).tobytes(), case
        assert got_warnings == want_warnings, case
        spread += len(orders) > 1
    assert spread > 0


@pytest.mark.parametrize("kind", ["h0", "h0_d1", "h0_d2"])
def test_addition_series_sum_past_the_orders_where_amos_flushes_j(kind, monkeypatch):
    # AMOS returns J_93(0.05) = 8.8e-294 as 0. Products of AMOS factors read
    # the zero terms from there on as convergence (stopping at orders 95-96,
    # off the closed forms by 1.7e-3, 0.72 and 1.18 with no warning), or had
    # to stop before them. The Graf product tables form those terms: each
    # sum runs to n_max = 400, warns that its tail is not below tolerance
    # at x1 / x2 = 0.99, and meets its 50-digit partial sum to 8.1e-16
    # (h0), 5.0e-15 (h0_d1) and 1.5e-15 (h0_d2).
    stops = _recording_stops(monkeypatch)
    x1, x2, theta = 0.05, 0.0505, 0.4
    value, caught = _series_and_warnings(_ADDITION[kind], x1, x2, theta, 400)
    _, order, mags, converged, warning = stops[-1]
    assert int(order[0]) == 400 and not converged[0] and warning == [None]
    assert len(caught) == 1 and caught[0].startswith("addition series tail estimate")
    # the terms past the flushed J factors are there, falling like 0.99^n
    assert specfun.bessel_orders(False, np.array([93]), x1)[0] == 0.0
    assert np.all(mags[93:] > 0.0) and np.all(mags[94:] < mags[93:-1])
    want, _, _ = frozen_series.ADDITION[(kind, x1, x2, theta, 400)]
    assert abs(value - want) <= 5e-14 * abs(want)


def _families():
    """Synthetic term families for runs of orders, each with the order
    where it must stop, if any: term(n) returns the terms (non-finite where
    an order overflows) and their J factors (0 where one underflows)."""

    def plain(terms):
        return lambda n: (terms(n), np.ones(n.shape))

    def decaying(rate):
        return plain(lambda n: (0.3 - 0.7j) * rate**n)

    def cancelling(n):
        # -2 + 2 * 1 * cos(0) sums to exactly zero at angle 0
        return np.where(n == 0, -2.0, np.where(n == 1, 1.0, 0.6**n * (1 + 1j))), np.ones(n.shape)

    def overflowing(order, rate):
        return plain(lambda n: np.where(n == order, complex("inf"), rate**n * (1 - 2j)))

    def underflowing(order, rate):
        # the J factor reads 0 from order on, and so does the term
        return lambda n: (np.where(n >= order, 0.0, rate**n * (1 - 2j)), (n < order) * 1.0)

    families = [(decaying(r), None) for r in (0.1, 0.125, 0.14, 0.3, 0.5, 0.8)]
    families += [(cancelling, None)]
    # overflow or underflow in the middle of the first and of the second
    # run, and overflow at order 0
    families += [(overflowing(k, 0.97), k) for k in (21, 40)] + [(overflowing(0, 0.5), 0)]
    families += [(underflowing(k, 0.97), k) for k in (21, 40)]
    return families


def test_runs_of_orders_match_the_per_order_loop_on_synthetic_terms():
    # sum_orders with the addition series' rule (1e-14, no growth stop), in
    # runs of 32 orders, against series_loop._loop_sum at each angle alone:
    # sums, last magnitudes and stop orders byte for byte, with caps on both
    # sides of the run seam, and runs cut by a non-finite term or by a term
    # out of range
    psi = np.array([0.0, 0.3, 1.0, np.pi / 2, 2.9, -1.3])
    seen = set()
    for term, overflow in _families():

        def run(n, term=term):
            t, j = term(n)
            return t, np.isfinite(t), j != 0.0

        def one_order(n, term=term):
            t, j = term(np.array([n]))
            t = complex(t[0])
            if not cmath.isfinite(t):
                raise specfun.BesselOverflowError("order %d overflows" % n)
            # the loop stops at a non-finite term, as the runs do at one
            # out of range
            return t if j[0] else complex("nan")

        for cap in (0, 1, 31, 32, 33, 64, 500):
            if overflow == 0:
                with pytest.raises(specfun.BesselOverflowError):
                    specfun.sum_orders(run, psi, cap, 32, 1e-14)
                with pytest.raises(specfun.BesselOverflowError):
                    series_loop._loop_sum(0.3, cap, one_order)
                continue
            total, order, mags = specfun.sum_orders(run, psi, cap, 32, 1e-14)[:3]
            last = mags[order]
            for i, theta in enumerate(psi.tolist()):
                want = series_loop._loop_sum(theta, cap, one_order)
                assert np.complex128(total[i]).tobytes() == np.complex128(want[0]).tobytes()
                assert np.float64(last[i]).tobytes() == np.float64(want[1]).tobytes()
                assert int(order[i]) == want[2]
                seen.add(want[2])
            assert specfun.sum_orders(run, psi[1:2], cap, 32, 1e-14)[0][0] == total[1]
    assert {20, 31, 32, 33, 39} <= seen


def test_addition_series_warn_at_the_callers_line():
    for series in (specfun.addition_series_h0, oracles.addition_series_h0_d1):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            series(2.0, 2.2, np.array([0.3, 1.0]), 4)
        assert len(caught) == 2
        assert {w.filename for w in caught} == {__file__}


@settings(deadline=None, max_examples=60)
@given(
    n=st.integers(min_value=0, max_value=60),
    x=st.floats(min_value=0.05, max_value=50.0),
)
def test_wronskian_property(n, x):
    scale = 2.0 / (np.pi * x)
    assert abs(specfun.wronskian_residual(n, x)) < 1e-12 * scale


@settings(deadline=None, max_examples=40)
@given(
    x1=st.floats(min_value=0.2, max_value=3.0),
    ratio=st.floats(min_value=1.3, max_value=8.0),
    theta=st.floats(min_value=-np.pi, max_value=np.pi),
)
def test_addition_closure_property(x1, ratio, theta):
    x2 = x1 * ratio
    d = _distance(x1, x2, theta)
    got = specfun.addition_series_h0(x1, x2, theta, n_max=80)
    want = specfun.hankel2(0, d)
    assert abs(got - want) < 1e-9


def test_order_table_reads_have_the_bits_of_the_scalar_functions(monkeypatch):
    # specfun.order_factors, the table of factors every circular series and
    # q-sum reads: one bessel_orders call per kind with all arguments of
    # that kind, each (order, argument) pair once, only the orders asked for
    # and their +-1 neighbours, and the bits of scipy.special order by order
    calls = []
    evaluate = specfun.bessel_orders

    def recording(hankel, n, x):
        calls.append((hankel, np.asarray(n).tolist(), np.atleast_1d(x).tolist()))
        return evaluate(hankel, n, x)

    monkeypatch.setattr(specfun, "bessel_orders", recording)
    j = {"a": 0.4, "b": 2.0, "c": 5.1, "twin": 2.0}
    h = {"ha": 0.4, "hb": 2.0, "hc": 5.1}
    runs = [np.arange(16), np.arange(16, 32), np.arange(-2, 5), np.array(7), np.array([300, 129, 64])]
    for n in runs:
        calls.clear()
        table = specfun.order_factors(n, j, h)
        assert [hankel for hankel, _, _ in calls] == [False, True]
        for _, orders, args in calls:
            assert sorted(orders) == sorted(set(np.ravel([n - 1, n, n + 1]).tolist()))
            assert sorted(args) == [0.4, 2.0, 5.1]
        for names, hankel in ((j, False), (h, True)):
            f = _scipy(hankel)
            for name, x in names.items():
                for got, read in zip(table[name], (f, _derivative(f))):
                    assert got.shape == np.shape(n)
                    for order, value in zip(np.ravel(n).tolist(), np.ravel(got).tolist()):
                        want = read(order, x)
                        if not np.isfinite(want):
                            assert not cmath.isfinite(value), (read, order, x)
                            continue
                        assert np.array([value]).tobytes() == np.array([want]).tobytes()


def test_low_orders_have_one_definition():
    # bessel_orders at orders -1, 0 and 1, hankel2, bessel_j and hankel2_low
    # give the bits of scipy's real Cephes pairs, folded by parity at -1
    x = np.array([1e-3, 0.3, 2.0, 7.5, 40.0, 1e4])
    n = np.array([-1, 0, 1])
    table = specfun.bessel_orders(True, n, x)
    j_table = specfun.bessel_orders(False, n, x)
    for column, order in enumerate(n.tolist()):
        want, j_want = _scipy(True)(order, x), _scipy(False)(order, x)
        assert table[:, column].tobytes() == want.tobytes()
        assert j_table[:, column].tobytes() == j_want.tobytes()
        assert specfun.hankel2(order, x).tobytes() == want.tobytes()
        assert specfun.bessel_j(order, x).tobytes() == j_want.tobytes()
        for value, point in zip(want.tolist(), x.tolist()):
            assert specfun.hankel2(order, point) == value
        if order >= 0:
            assert specfun.hankel2_low(order, x).tobytes() == want.tobytes()
    with pytest.raises(specfun.BesselOverflowError):
        specfun.hankel2_low(1, np.array([1.0, 1e-310]))


def test_hankel2_low_writes_the_same_bits_into_a_strided_plane():
    # out may be any view of x's shape: here a plane of a (kernel, row,
    # column) array that strides over the other half's columns
    x = np.linspace(0.05, 30.0, 6 * 4).reshape(6, 4)
    whole = np.zeros((2, 6, 8), dtype=complex)
    for order in (0, 1):
        plane = whole[order, :, 4:]
        got = specfun.hankel2_low(order, x, out=plane)
        assert got is plane
        assert plane.tobytes() == specfun.hankel2_low(order, x).tobytes()
    assert not whole[:, :, :4].any()
    with pytest.raises(specfun.BesselOverflowError):
        specfun.hankel2_low(1, np.array([[1.0, 1e-310]]), out=whole[1, :1, :2])


def test_bessel_orders_takes_an_argument_array():
    n = np.arange(-3, 40)
    x = np.array([[0.3, 2.0], [7.5, 40.0]])
    for hankel in (False, True):
        table = specfun.bessel_orders(hankel, n, x)
        assert table.shape == (2, 2, n.size)
        for index in np.ndindex(x.shape):
            assert table[index].tobytes() == specfun.bessel_orders(hankel, n, x[index]).tobytes()


def test_bessel_orders_calls_amos_only_above_order_one(monkeypatch):
    # |n| <= 1 come from the real Cephes pairs, so jv and hankel2 never see them
    seen = []
    for name in ("jv", "hankel2"):
        amos = getattr(specfun.special, name)
        monkeypatch.setattr(
            specfun.special, name, lambda n, x, f=amos: seen.append(np.ravel(n)) or f(n, x)
        )
    for hankel in (False, True):
        for n in (np.arange(-3, 6), np.arange(-1, 2), np.array([4, 0, -7])):
            specfun.bessel_orders(hankel, n, [0.5, 3.0])
    assert set(np.abs(np.concatenate(seen)).tolist()) == {2, 3, 4, 5, 7}


_EXT, _M2 = Excitation("external", 4.0), exact.Medium(4.2)
# every public entry to an order series, called at the angles 0 and a
_SERIES_ENTRIES = {
    "exact_ring": lambda a: exact.exact_ring(_EXT, 1, 5.0, np.array([0.0, a]), 2.0, exact.Medium(), _M2),
    "exact_field": lambda a: exact.exact_field(_EXT, 2, 1.0, a, 2.0, exact.Medium(), _M2),
    "addition_series_h0": lambda a: specfun.addition_series_h0(1.0, 3.0, [0.0, a]),
    "addition_series_h0_d1": lambda a: oracles.addition_series_h0_d1(1.0, 3.0, [0.0, a]),
    "addition_series_h0_d2": lambda a: oracles.addition_series_h0_d2(1.0, 3.0, [0.0, a]),
    "density_series": lambda a: density_series(_EXT, [0.0, a], 2.0, exact.Medium(), _M2),
    "reconstruct_fields_from_densities": lambda a: reconstruct_fields_from_densities(
        _EXT, 10.0, [0.0, a], 2.0, exact.Medium(), _M2
    ),
}


@pytest.mark.parametrize("entry", sorted(_SERIES_ENTRIES))
@pytest.mark.parametrize("angle", [np.nan, np.inf, -np.inf])
def test_every_order_series_refuses_a_non_finite_angle(entry, angle):
    # sum_orders names the bad angles; a nan angle used to give nan with no
    # warning, or a convergence error blaming the cap
    with pytest.raises(ValueError, match=r"^angles must be finite, got \[%s\]$" % angle):
        _SERIES_ENTRIES[entry](angle)


# every public entry that takes Bessel orders, called with the orders n
_ORDER_ENTRIES = {
    "bessel_orders": lambda n: specfun.bessel_orders(True, np.ravel(n), 2.0),
    "order_factors": lambda n: specfun.order_factors(n, {"j": 2.0}, {"h": 2.0}),
    "wronskian_residual": lambda n: specfun.wronskian_residual(np.ravel(n), 2.0),
    "bessel_j": lambda n: specfun.bessel_j(n, 2.0),
    "hankel2": lambda n: specfun.hankel2(n, 2.0),
    "mode_denominator": lambda n: exact.mode_denominator(n, 2.0, exact.Medium(), _M2),
    "term_ratio_probe": lambda n: exact.term_ratio_probe(
        "ext_R1", n, 3.0, 2.0, 4.0, exact.Medium(), _M2
    ),
    "mode_solve": lambda n: mode_solve(n, _EXT, 2.0, exact.Medium(), _M2),
}


@pytest.mark.parametrize(
    "order",
    [0.5, 1.5, 2.5, np.nan, True, [1.5, 2]],
    ids=["0.5", "1.5", "2.5", "nan", "bool", "list"],
)
@pytest.mark.parametrize("entry", sorted(_ORDER_ENTRIES))
def test_an_order_that_is_not_a_whole_number_is_refused_by_name(entry, order):
    # used to: bessel_orders left orders 0.5, 1.5 and nan as uninitialised
    # memory and passed 2.5 on to AMOS, and bessel_j, hankel2 and mode_solve
    # truncated the order (2.5 -> 2, True -> 1)
    first = order[0] if isinstance(order, list) else order
    message = r"^order must be an integer, got \[?%s" % re.escape(repr(first))
    with pytest.raises(ValueError, match=message):
        _ORDER_ENTRIES[entry](order)


def test_integer_orders_pass_on_their_dtype():
    # the series' own order arrays are not scanned; whole floats read as integers
    n = np.arange(-3, 5)
    assert specfun.as_orders(n) is n
    for whole in (n.astype(float), n.tolist(), list(map(float, n))):
        got = specfun.as_orders(whole)
        assert got.dtype.kind == "i" and got.tolist() == n.tolist()
    assert specfun.bessel_orders(True, n.astype(float), 2.0).tobytes() == (
        specfun.bessel_orders(True, n, 2.0).tobytes()
    )
    # unsigned orders used to wrap: J'_0 read (J_255 - J_1) / 2
    unsigned = specfun.order_factors(np.arange(4, dtype=np.uint8), {"j": 2.0})["j"]
    signed = specfun.order_factors(np.arange(4), {"j": 2.0})["j"]
    assert [f.tobytes() for f in unsigned] == [f.tobytes() for f in signed]


@settings(deadline=None, max_examples=30, derandomize=True)
@given(
    radii=st.tuples(st.floats(0.01, 30.0), st.floats(0.01, 30.0)).filter(
        lambda x: abs(x[0] - x[1]) > 1e-3 * max(x)
    ),
    theta=st.floats(-7.0, 7.0),
)
def test_addition_series_converge_or_warn(radii, theta):
    # at n_max = 60 each series either warns or holds its closed form, to
    # 1e-9 of |H0| or |H1| (5 000 seeded draws each measured at most 7.4e-11)
    lo, hi = sorted(radii)
    d = np.sqrt(lo**2 + hi**2 - 2.0 * lo * hi * np.cos(theta))
    h0, h1 = special.hankel2(0, d), special.hankel2(1, d)
    cases = (
        (specfun.addition_series_h0, h0, abs(h0)),
        (oracles.addition_series_h0_d1, (lo - hi * np.cos(theta)) / d * h1, abs(h1)),
        (oracles.addition_series_h0_d2, (hi - lo * np.cos(theta)) / d * h1, abs(h1)),
    )
    for series, want, scale in cases:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = series(lo, hi, theta)
        if caught:
            assert "increase n_max" in str(caught[0].message)
        else:
            assert abs(got - want) < 1e-9 * scale


# (x, y, top): across the transition n ~ x, x / y near 1, and far past the
# orders where J_n(x) underflows and H2_n(y) overflows alone
_GRAF_CASES = [
    (30.0, 31.0, 120),
    (20.0, 20.2, 220),
    (0.05, 0.0505, 400),
    (1.6, 2.0, 400),
    (4.098780306383839, 4.242237617107274, 300),
    (2.0, 11.2, 220),
    (0.3, 0.9, 0),
    (0.3, 0.9, 1),
]


@pytest.mark.parametrize("x, y, top", _GRAF_CASES)
def test_graf_products_match_the_50_digit_products(x, y, top):
    # every seventh order and the last, each form relative to itself:
    # measured at most 5.0e-15 (tolerance 2.5e-14); the cumprod's error
    # grows about like sqrt(n) eps, as no rounded 2/x or 2/y biases every
    # ratio alike (that bias measured 1.3e-13 at n = 4096)
    got = specfun.graf_products(x, y, top, (0, 1, 2))
    assert got.shape == (3, top + 1)
    orders = sorted(set(range(0, top + 1, 7)) | {top})
    want = np.array([oracles.graf_products_mp(x, y, n) for n in orders]).T
    assert np.all(np.abs(got[:, orders] - want) <= 2.5e-14 * np.abs(want))
    if top >= 300:  # past both factors' range: AMOS reads J as 0 and H2 as nan
        assert specfun.bessel_orders(False, np.array([top]), x)[0] == 0.0
        assert not np.isfinite(specfun.bessel_orders(True, np.array([top]), y)[0])


def test_graf_products_keep_their_scale_at_a_zero_of_j0():
    # J_0 vanishes at x = 2.4048...: order 0 is known only to the roundoff of
    # J_0 there, but every higher order keeps its relative accuracy, as the
    # ratios are scaled onto J_0 and J_1 together
    x, y = 2.404825557695773, 5.0
    got = specfun.graf_products(x, y, 40, (0, 1, 2))
    want = np.array([oracles.graf_products_mp(x, y, n) for n in range(41)]).T
    near_zero = np.zeros(got.shape, dtype=bool)
    near_zero[[0, 2], 0] = True  # the two forms with the factor J_0
    gap = np.abs(got - want)
    assert np.all(gap[~near_zero] <= 2.5e-14 * np.abs(want[~near_zero]))
    assert np.all(gap[near_zero] <= 1e-16 * np.abs(specfun.hankel2(0, y)))


def test_graf_products_refuse_arguments_out_of_order():
    for x, y in ((2.0, 2.0), (3.0, 2.0), (0.0, 2.0), (-1.0, 2.0)):
        with pytest.raises(ValueError, match="need 0 < x < y"):
            specfun.graf_products(x, y, 5, (0,))
        with pytest.raises(ValueError, match="need 0 < x < y"):
            specfun.graf_order(x, y)
    for top in (-1, 2.5):
        with pytest.raises(ValueError, match="top"):
            specfun.graf_products(1.0, 2.0, top, (0,))
    for forms in ((3,), (0, 0), (1, 2, 1), (-1,)):
        with pytest.raises(ValueError, match="forms must be distinct"):
            specfun.graf_products(1.0, 2.0, 5, forms)


_FORM_SUBSETS = [
    (0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (1, 0), (2, 0), (2, 1), (0, 2, 1), (2, 1, 0),
]


@settings(deadline=None, max_examples=60, derandomize=True)
@given(
    x=st.floats(1e-3, 300.0),
    ratio=st.floats(1.0 + 1e-3, 50.0),
    top=st.one_of(st.integers(0, 2), st.integers(0, 400)),
)
@example(x=2.6666088854307515, ratio=3.1779, top=0)
@example(x=0.05, ratio=1.01, top=400)
def test_graf_products_form_only_the_rows_asked_for_with_the_full_tables_bytes(x, ratio, top):
    # fields, the q-sums and the addition series ask only for the rows
    # they read; each row keeps the bytes it has in the table of all three
    y = x * ratio
    full = specfun.graf_products(x, y, top, (0, 1, 2))
    assert full.shape == (3, top + 1)
    for forms in _FORM_SUBSETS:
        rows = specfun.graf_products(x, y, top, forms)
        assert rows.tobytes() == full[list(forms)].tobytes()


@pytest.mark.parametrize("x, y, base", [(1.5, 2.0, 0), (1.5, 2.0, 256), (3.84, 4.14, 40), (0.5, 10.0, 0)])
def test_graf_order_drops_only_terms_below_its_target(x, y, base):
    # the products past the order graf_order names are below 1e-18 of the
    # product at order base (of 1 at base 0), and a cap below it gives None
    m = specfun.graf_order(x, y, cap=10**6, base=base)
    t = np.abs(specfun.graf_products(x, y, m + 40, (0,))[0])
    assert np.all(t[m + 1 :] < 1e-18 * (t[base] if base else 1.0))
    assert specfun.graf_order(x, y, cap=m - 1, base=base) is None


@pytest.mark.parametrize("hankel", [False, True])
def test_one_float_argument_keeps_the_bits_of_an_argument_array(hankel):
    # a float argument of bessel_orders reads the general path; hankel2_low keeps a scalar path
    for x in (1e-3, 0.7, 2.0, 17.5, np.float64(3.3)):
        for n in (np.arange(-5, 40), np.array([0]), np.array([1, -1, 7]), np.array([3, 2])):
            lean = specfun.bessel_orders(hankel, n, x)
            array = specfun.bessel_orders(hankel, n, np.array([x]))[0]
            assert lean.shape == array.shape and lean.tobytes() == array.tobytes()
        for order in (0, 1):
            one = specfun.hankel2_low(order, x)
            assert type(one) is complex
            assert np.array([one]).tobytes() == specfun.hankel2_low(order, np.array([x])).tobytes()
