"""The one-order-at-a-time sum, used only by the test suite.

This is the loop the package summed its order series with before
specfun.sum_orders took orders in runs. The tests check the stopping rule
of the package's sums against it on synthetic terms: the same bits, the
same stop orders and flags, and the same warnings.
"""

import cmath

import numpy as np


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
