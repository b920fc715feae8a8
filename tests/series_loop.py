"""Graf's addition series summed one order at a time, used only by the test suite.

This is the per-order loop that `cylwave.specfun` summed the three addition
series with before it took orders in blocks. Each order's term comes from the
public scalar functions, and an order whose Hankel factor overflows ends the
sum. The package's series must give the same bits and the same warnings.
"""

import numpy as np

from cylwave import specfun


def _loop_sum(theta, n_max, term):
    """(sum, magnitude of the last term added, order of that term)."""
    total = term(0)
    last = abs(total)
    order = 0
    small_streak = 0
    for n in range(1, n_max + 1):
        try:
            t = term(n)
        except specfun.BesselOverflowError:
            break
        total = total + 2.0 * t * np.cos(n * theta)
        last = abs(t)
        order = n
        if 2.0 * last < 1e-14 * max(abs(total), 1e-300):
            small_streak += 1
            if small_streak >= 3:
                break
        else:
            small_streak = 0
    return total, last, order


def _term(kind, x1, x2):
    j, jp = specfun.bessel_j, specfun.bessel_j_prime
    h, hp = specfun.hankel2, specfun.hankel2_prime
    return {
        "h0": lambda n: j(n, x1) * h(n, x2),
        "h0_d1": lambda n: -jp(n, x1) * h(n, x2),
        "h0_d2": lambda n: -j(n, x1) * hp(n, x2),
    }[kind]


def addition_series(kind, x1, x2, theta, n_max):
    """The series `specfun.addition_series_<kind>` sums, for x2 > x1 > 0.

    kind is 'h0', 'h0_d1' or 'h0_d2'. Warns as the package does when the
    tail estimate is not below tolerance.
    """
    total, last, _ = _loop_sum(theta, n_max, _term(kind, x1, x2))
    specfun._warn_if_unconverged(last, total, x1 / x2)
    return total


def last_order(kind, x1, x2, theta, n_max):
    """The highest order addition_series adds before it stops."""
    return _loop_sum(theta, n_max, _term(kind, x1, x2))[2]
