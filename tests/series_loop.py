"""Order series summed one order at a time, used only by the test suite.

These are the per-order loops the package summed its order series with
before specfun.sum_orders took orders in runs: Graf's addition series of
`cylwave.specfun`, whose every factor comes from the scalar bessel_j and
hankel2 of `cylwave.specfun` order by order (a derivative through the
recurrence (f_{n-1} - f_{n+1}) / 2), and the loop itself, which the
circular series' stopping rule is checked against on synthetic terms. The
package's sums must give the same bits, the same stop orders and flags,
and the same warnings.
"""

import cmath

import numpy as np

from cylwave import specfun


def _loop_sum(theta, n_max, term, rel_tol=1e-14, grow=None):
    """(sum, |last term added|, its order, converged flag, warning) at one angle.

    Stops converged after three consecutive orders with 2 |t_n| below
    rel_tol times the partial sum; with grow, at an order whose 2 |t_n|
    exceeds grow times it, warning. An order whose term raises
    ArithmeticError or is not finite ends the sum before it, warning which.
    """
    total = term(0)
    last = abs(total)
    order = 0
    small_streak = 0
    for n in range(1, n_max + 1):
        try:
            t = term(n)
        except ArithmeticError:
            return total, last, order, False, "series truncated at n=%d by order overflow" % n
        if not cmath.isfinite(t):
            return total, last, order, False, "series truncated at n=%d by floating-point range" % n
        total = total + 2.0 * t * np.cos(n * theta)
        last = abs(t)
        order = n
        scale = max(abs(total), 1e-300)
        if 2.0 * last < rel_tol * scale:
            small_streak += 1
            if small_streak >= 3:
                return total, last, order, True, None
        else:
            small_streak = 0
            if grow is not None and 2.0 * last > grow * scale:
                return total, last, order, False, "series terms growing without bound"
    return total, last, order, False, None


def _term(kind, x1, x2):
    j, h = specfun.bessel_j, specfun.hankel2
    return {
        "h0": lambda n: j(n, x1) * h(n, x2),
        "h0_d1": lambda n: -(0.5 * (j(n - 1, x1) - j(n + 1, x1))) * h(n, x2),
        "h0_d2": lambda n: -j(n, x1) * (0.5 * (h(n - 1, x2) - h(n + 1, x2))),
    }[kind]


def addition_series(kind, x1, x2, theta, n_max):
    """The series `specfun.addition_series_<kind>` sums, for x2 > x1 > 0.

    kind is 'h0', 'h0_d1' or 'h0_d2'. Warns as the package does when the
    tail estimate is not below tolerance.
    """
    total, last = _loop_sum(theta, n_max, _term(kind, x1, x2))[:2]
    specfun._warn_if_unconverged(last, total, x1 / x2)
    return total


def last_order(kind, x1, x2, theta, n_max):
    """The highest order addition_series adds before it stops."""
    return _loop_sum(theta, n_max, _term(kind, x1, x2))[2]
