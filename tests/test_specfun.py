"""Special-function layer against the extended-precision oracle."""

import cmath
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
import series_loop
from cylwave import specfun

# Values frozen from the mpmath oracle (tests/oracles.py, 50 digits).
J0_AT_1 = 0.7651976865579666
J5_AT_2 = 0.007039629755871685
JP1_AT_1 = 0.3251471008130331  # step-extrapolated finite difference agrees
H2_0_AT_1 = 0.7651976865579666 - 0.0882569642156770j
JP3_AT_2 = 0.15941915440403465  # (J_2(2) - J_4(2)) / 2
WRONSKIAN_AT_2 = -0.3183098861837907j  # 2 / (i pi 2)

X_GRID = [0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 40.0]


def test_bessel_j_small_argument_limit():
    assert specfun.bessel_j(0, 1e-12) == pytest.approx(1.0, abs=1e-12)


def test_bessel_j_frozen_values():
    assert specfun.bessel_j(0, 1.0) == pytest.approx(J0_AT_1, rel=1e-12)
    assert specfun.bessel_j(5, 2.0) == pytest.approx(J5_AT_2, rel=1e-12)


def test_bessel_j_prime_frozen_values():
    assert specfun.bessel_j_prime(0, 0.7) == pytest.approx(
        -specfun.bessel_j(1, 0.7), abs=1e-15
    )
    assert specfun.bessel_j_prime(1, 1.0) == pytest.approx(JP1_AT_1, rel=1e-12)
    assert specfun.bessel_j_prime(3, 2.0) == pytest.approx(JP3_AT_2, rel=1e-12)


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
    n, x = 3, 2.0
    val = (
        specfun.bessel_j(n, x) * specfun.hankel2_prime(n, x)
        - specfun.bessel_j_prime(n, x) * specfun.hankel2(n, x)
    )
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
            specfun.bessel_j(n, x) * specfun.hankel2_prime(n, x)
            - specfun.bessel_j_prime(n, x) * specfun.hankel2(n, x)
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
            assert specfun.bessel_j_prime(n, x) == pytest.approx(
                oracles.bessel_j_prime_mp(n, x), rel=1e-12, abs=1e-280
            )
            assert specfun.hankel2_prime(n, x) == pytest.approx(
                oracles.hankel2_prime_mp(n, x), rel=1e-12
            )


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
        specfun.hankel2_prime(400, 0.2)
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
                got1 = specfun.addition_series_h0_d1(x1, x2, th, n_max=220)
                assert abs(got1 - want1) < 1e-10
                want2 = (x2 - x1 * np.cos(th)) / d * specfun.hankel2(1, d)
                got2 = specfun.addition_series_h0_d2(x1, x2, th, n_max=220)
                assert abs(got2 - want2) < 1e-10


def test_addition_series_derivatives_at_pi():
    x1, x2, th = 1.0, 2.0, np.pi
    d = _distance(x1, x2, th)  # = 3
    want1 = (x1 - x2 * np.cos(th)) / d * specfun.hankel2(1, d)
    want2 = (x2 - x1 * np.cos(th)) / d * specfun.hankel2(1, d)
    assert abs(specfun.addition_series_h0_d1(x1, x2, th, 60) - want1) < 1e-10
    assert abs(specfun.addition_series_h0_d2(x1, x2, th, 60) - want2) < 1e-10


def test_addition_series_warns_when_truncated_early():
    with pytest.warns(UserWarning):
        specfun.addition_series_h0(2.0, 2.2, 0.3, n_max=4)


def test_addition_series_argument_validation():
    with pytest.raises(ValueError):
        specfun.addition_series_h0(1.0, 1.0, 0.5)
    with pytest.raises(ValueError):
        specfun.addition_series_h0_d1(2.0, 1.0, 0.5)
    for series in (
        specfun.addition_series_h0,
        specfun.addition_series_h0_d1,
        specfun.addition_series_h0_d2,
    ):
        with pytest.raises(ValueError, match="n_max"):
            series(1.0, 3.0, 0.7, n_max=-1)
        with pytest.raises(ValueError, match="1-D"):
            series(1.0, 3.0, np.zeros((2, 2)))


def _series_and_warnings(series, *args):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        value = series(*args)
    return value, [str(w.message) for w in caught]


@pytest.mark.parametrize("kind", ["h0", "h0_d1", "h0_d2"])
def test_addition_series_match_the_per_order_loop_bit_for_bit(kind):
    # Blocks of 32 orders must leave every bit of the one-order-at-a-time sum:
    # the criterion-01 grid, n_max on both sides of each block seam, and
    # inner radii small enough that the series is cut short by overflow.
    series = getattr(specfun, "addition_series_" + kind)
    cases = [
        (x1, x1 * r, th, 220)
        for x1 in np.linspace(1.0, 3.0, 5)
        for r in np.linspace(1.2, 10.0, 5)
        for th in np.linspace(0.0, np.pi, 8)
    ]
    for n_max in (0, 4, 31, 32, 33, 64, 65, 220):
        cases += [(1.0, 3.0, 0.7, n_max), (2.0, 2.2, 0.3, n_max), (0.2, 0.26, 2.0, n_max)]
    cases += [(0.2, 0.26, th, 400) for th in (0.0, 1.1, np.pi)]
    cases += [(0.05, 0.0505, 0.4, 400), (0.5, 0.65, -2.5, 300)]
    warned = 0
    for case in cases:
        got, got_warnings = _series_and_warnings(series, *case)
        want, want_warnings = _series_and_warnings(series_loop.addition_series, kind, *case)
        assert got == want, case
        assert got_warnings == want_warnings, case
        warned += bool(want_warnings)
    assert warned > 0
    # Each radius pair's angles in one call (two more angles added to every
    # pair) must give every angle the bits and the warning of its own call,
    # also where the angles stop at different orders.
    pairs = {}
    for x1, x2, th, n_max in cases:
        pairs.setdefault((x1, x2, n_max), [0.4, -1.7]).append(th)
    warned = spread = 0
    for (x1, x2, n_max), angles in pairs.items():
        got, got_warnings = _series_and_warnings(series, x1, x2, np.array(angles), n_max)
        want, want_warnings = [], []
        for th in angles:
            value, caught = _series_and_warnings(
                series_loop.addition_series, kind, x1, x2, th, n_max
            )
            want.append(value)
            want_warnings += caught
        case = (x1, x2, angles, n_max)
        assert got.shape == (len(angles),), case
        assert got.tobytes() == np.array(want, dtype=complex).tobytes(), case
        assert got_warnings == want_warnings, case
        warned += bool(want_warnings)
        orders = {series_loop.last_order(kind, x1, x2, th, n_max) for th in angles}
        spread += len(orders) > 1
    assert warned > 0
    assert spread > 0


def _families():
    """Synthetic term families: array terms for the addition path (non-finite
    where an order overflows), with the overflowing order, if any."""

    def decaying(rate):
        return lambda n: (0.3 - 0.7j) * rate**n

    def cancelling(n):
        # -2 + 2 * 1 * cos(0) sums to exactly zero at angle 0
        return np.where(n == 0, -2.0, np.where(n == 1, 1.0, 0.6**n * (1 + 1j)))

    def overflowing(order, rate):
        return lambda n: np.where(n == order, complex("inf"), rate**n * (1 - 2j))

    families = [(decaying(r), None) for r in (0.1, 0.125, 0.14, 0.3, 0.5, 0.8)]
    families += [(cancelling, None)]
    # overflow in the middle of the first and of the second run, and at order 0
    families += [(overflowing(k, 0.97), k) for k in (21, 40)] + [(overflowing(0, 0.5), 0)]
    return families


@pytest.mark.filterwarnings("ignore:addition series tail estimate")
def test_addition_path_matches_the_per_order_loop_on_synthetic_terms(monkeypatch):
    # _addition_sum (the three addition series' path into sum_orders) against
    # series_loop._loop_sum at each angle alone: sums, last magnitudes and
    # stop orders byte for byte, with caps on both sides of the run seam
    stops, sum_orders = [], specfun.sum_orders

    def recording(*args, **kwargs):
        out = sum_orders(*args, **kwargs)
        stops.append(out)
        return out

    monkeypatch.setattr(specfun, "sum_orders", recording)
    psi = np.array([0.0, 0.3, 1.0, np.pi / 2, 2.9, -1.3])
    seen = set()
    for term, overflow in _families():

        def one_order(n, term=term):
            t = complex(term(np.array([n]))[0])
            if not cmath.isfinite(t):
                raise specfun.BesselOverflowError("order %d overflows" % n)
            return t

        for cap in (0, 1, 31, 32, 33, 64, 500):
            if overflow == 0:
                with pytest.raises(specfun.BesselOverflowError):
                    specfun._addition_sum(psi, cap, 0.5, term)
                with pytest.raises(specfun.BesselOverflowError):
                    series_loop._loop_sum(0.3, cap, one_order)
                continue
            total = specfun._addition_sum(psi, cap, 0.5, term)
            _, order, last = stops[-1][:3]
            for i, theta in enumerate(psi.tolist()):
                want = series_loop._loop_sum(theta, cap, one_order)
                assert np.complex128(total[i]).tobytes() == np.complex128(want[0]).tobytes()
                assert np.float64(last[i]).tobytes() == np.float64(want[1]).tobytes()
                assert int(order[i]) == want[2]
                seen.add(want[2])
            assert specfun._addition_sum(psi[1], cap, 0.5, term) == complex(total[1])
    assert {20, 31, 32, 33, 39} <= seen


def test_addition_series_warn_at_the_callers_line():
    for series in (specfun.addition_series_h0, specfun.addition_series_h0_d1):
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
    calls = []
    evaluate = specfun.bessel_orders

    def counting(hankel, n, x):
        calls.append((hankel, n[0], len(n), tuple(x)))
        return evaluate(hankel, n, x)

    monkeypatch.setattr(specfun, "bessel_orders", counting)
    args = (0.4, 2.0, 5.1)
    table = specfun.OrderTable(j=args + (2.0,), h=args)
    reads = ("bessel_j", "bessel_j_prime", "hankel2", "hankel2_prime")
    for n in list(range(-2, 70)) + [300, 129, 64]:
        for x in args:
            for name in reads:
                try:
                    want = getattr(specfun, name)(n, x)
                except specfun.BesselOverflowError as error:
                    with pytest.raises(specfun.BesselOverflowError) as caught:
                        getattr(table, name)(n, x)
                    assert str(caught.value) == str(error)
                    continue
                got = getattr(table, name)(n, x)
                assert type(got) is type(want)
                assert np.array([got]).tobytes() == np.array([want]).tobytes(), (name, n, x)
    # one call per block and kind, all arguments together, each block once
    blocks = [(hankel, start) for hankel, start, _, _ in calls]
    assert len(blocks) == len(set(blocks)) == 2 * 5
    assert all(size == 32 and start % 32 == 0 for _, start, size, _ in calls)
    assert {x for *_, x in calls} == {args}


def test_bessel_orders_takes_an_argument_array():
    n = np.arange(-3, 40)
    x = np.array([[0.3, 2.0], [7.5, 40.0]])
    for hankel in (False, True):
        table = specfun.bessel_orders(hankel, n, x)
        assert table.shape == (2, 2, n.size)
        for index in np.ndindex(x.shape):
            assert table[index].tobytes() == specfun.bessel_orders(hankel, n, x[index]).tobytes()
