"""Integer-order cylinder functions and the identities the solvers lean on.

Everything downstream (series oracle, mode systems, kernel matrices) reduces
to J_n, Y_n and the outgoing Hankel function H^(2)_n = J_n - i Y_n of real
positive argument, together with two classical facts:

* the Wronskian  J_n(x) H2'_n(x) - J'_n(x) H2_n(x) = 2/(i pi x),
* Graf's addition theorem for H^(2)_0 of a distance between two points given
  in polar form, plus its two first-derivative variants.

Evaluation is delegated to scipy.special; this module adds the argument
checking, parity folding for negative orders, and overflow tagging that the
rest of the package relies on. Orders 0 and 1, which fill every kernel
matrix, come from the real functions j0, y0, j1 and y1 (Cephes); higher
orders from jv and hankel2 (AMOS). All functions accept scalars or numpy
arrays for the argument and are safe to call concurrently.

Kernel matrices pass arrays of arguments. The order series need many orders
at a few fixed arguments instead, and take them from bessel_orders over
blocks of orders. The exact field, density coefficients and q-sums read them
one order at a time from an OrderTable, which evaluates a block for all
arguments of a kind the first time one of its orders is read; every read has
the bits of the scalar functions at that order, so those series keep their
per-order arithmetic. Every order series, the addition series here and the
circular series of exact and continuous, is summed by sum_orders: runs of
orders for every angle asked for in one pass, with the same bits and the
same stop order as the order-by-order sum at each angle.

Only real arguments are supported (every wavenumber in the package is real).
"""

import cmath

import numpy as np
from scipy import special


class BesselOverflowError(ArithmeticError):
    """Raised when H^(2)_n(x) (through Y_n) exceeds the floating range.

    Callers that scan over orders treat the tagged order as unusable instead
    of letting infinities leak into matrix assembly.
    """


def _check_argument(x):
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("argument must be finite")
    if np.any(x <= 0.0):
        raise ValueError("argument must be positive")
    return x


def _parity(n):
    """(-1)^n sign folding for negative orders."""
    return -1.0 if (n % 2) else 1.0


# Real J_n and Y_n for the two orders every kernel matrix needs; several times
# cheaper than the complex hankel2/jv, which stay in use for |n| >= 2.
_LOW_ORDER = {0: (special.j0, special.y0), 1: (special.j1, special.y1)}


def bessel_j(n, x):
    """Bessel function J_n(x) for integer n (any sign) and real x > 0.

    Parameters
    ----------
    n : int
        Order. Negative orders are folded with J_{-n} = (-1)^n J_n.
    x : float or ndarray
        Argument, strictly positive.

    Returns
    -------
    float or ndarray
    """
    n = int(n)
    x = _check_argument(x)
    sign = 1.0
    if n < 0:
        sign = _parity(n)
        n = -n
    out = sign * (_LOW_ORDER[n][0](x) if n <= 1 else special.jv(n, x))
    return out if out.ndim else float(out)


def bessel_j_prime(n, x):
    """Derivative J'_n(x) via the recurrence (J_{n-1} - J_{n+1}) / 2."""
    n = int(n)
    return 0.5 * (bessel_j(n - 1, x) - bessel_j(n + 1, x))


def hankel2(n, x):
    """Outgoing Hankel function H^(2)_n(x) = J_n(x) - i Y_n(x).

    Raises BesselOverflowError instead of returning infinities when the
    Y_n part leaves the floating range (n much larger than x).
    """
    n = int(n)
    x = _check_argument(x)
    sign = 1.0
    if n < 0:
        sign = _parity(n)
        n = -n
    if n <= 1:
        j, y = _LOW_ORDER[n]
        out = np.empty(np.shape(x), dtype=complex)
        j(x, out=out.real)
        y(x, out=out.imag)
        np.negative(out.imag, out=out.imag)
        if sign < 0.0:
            np.negative(out, out=out)
    else:
        out = sign * special.hankel2(n, x)
    if not np.isfinite(out).all():
        raise _overflow(n, float(np.min(x)))
    return out if out.ndim else complex(out)


def _overflow(n, x):
    return BesselOverflowError(
        "H2_%d overflows near x=%g; order too large for this argument" % (n, x)
    )


def hankel2_prime(n, x):
    """Derivative H2'_n(x) via the recurrence (H2_{n-1} - H2_{n+1}) / 2."""
    n = int(n)
    return 0.5 * (hankel2(n - 1, x) - hankel2(n + 1, x))


def wronskian_residual(n, x):
    """J_n H2'_n - J'_n H2_n minus its exact value 2/(i pi x).

    n is one order or a 1-D array of them; the result has shape
    np.shape(x) + np.shape(n), from one bessel_orders table per kind over
    the orders n - 1, n and n + 1, each evaluated once. Should be ~1e-15
    relative to 2/(pi x) for any order/argument combination this package
    touches; criterion 01 and the tests use it as a self-check.
    """
    n = np.asarray(n)
    x = _check_argument(x)
    shape = x.shape + (3,) + n.shape
    orders, at = np.unique(np.ravel([n - 1, n, n + 1]), return_inverse=True)
    h = bessel_orders(True, orders, x)
    if not np.isfinite(h).all():
        raise _overflow(int(np.max(np.abs(orders))), float(np.min(x)))
    j_lo, j, j_hi = np.moveaxis(bessel_orders(False, orders, x)[..., at].reshape(shape), x.ndim, 0)
    h_lo, h, h_hi = np.moveaxis(h[..., at].reshape(shape), x.ndim, 0)
    exact = 2.0 / (1j * np.pi * x.reshape(x.shape + (1,) * n.ndim))
    return (j * (0.5 * (h_lo - h_hi)) - (0.5 * (j_lo - j_hi)) * h) - exact


def bessel_orders(hankel, n, x):
    """J_n(x), or H2_n(x) if hankel, over a 1-D integer order array n at every x.

    x is one argument or an array of them; the result has shape
    np.shape(x) + n.shape. The same values, bit for bit, as bessel_j and
    hankel2 order by order: |n| <= 1 from _LOW_ORDER, other orders from jv or
    hankel2, negative orders folded by parity. A non-finite value (an order
    where Y_n overflows) is left in place for the caller.
    """
    n = np.asarray(n)
    x = _check_argument(x)[..., None]
    m = np.abs(n)
    high = m > 1
    out = np.empty(x.shape[:-1] + n.shape, dtype=complex if hankel else float)
    out[..., high] = (special.hankel2 if hankel else special.jv)(m[high], x)
    for order in (0, 1):
        at = m == order
        if at.any():
            j, y = _LOW_ORDER[order]
            if hankel:
                out.real[..., at] = j(x)
                out.imag[..., at] = -y(x)
            else:
                out[..., at] = j(x)
    folded = (n < 0) & (m % 2 == 1)
    out[..., folded] = -out[..., folded]
    return out


# Orders per block of an addition series. AMOS spends about a microsecond on
# each order above the argument, and a radius pair of the criterion-01 grid
# (its 8 angles summed in one call) uses about 48 of its 221 orders, so
# evaluating all of them at once costs 0.016 s on that grid against 0.007 s
# in blocks of 32 (8: 0.015 s, 16: 0.010 s, 64: 0.008 s) on a 2-core Xeon,
# CPU time at one BLAS thread. One call per angle, in blocks of 32, cost
# 0.054 s. OrderTable fills its rows in the same blocks.
_BLOCK = 32


class OrderTable:
    """J_n and H2_n at a few fixed arguments, read one order at a time.

    j and h list the arguments of each kind. The first read of an order
    evaluates its aligned block of _BLOCK orders for every argument of its
    kind in one bessel_orders call; each block is evaluated once per table.
    The read methods mirror the module's scalar functions at one of those
    arguments and return the same Python floats and complexes, bit for bit;
    hankel2 and hankel2_prime raise BesselOverflowError where hankel2 does.
    A table holds the orders of one series call and is not shared between
    calls.
    """

    def __init__(self, j=(), h=()):
        self._args = (tuple(dict.fromkeys(j)), tuple(dict.fromkeys(h)))
        self._rows = tuple({x: [] for x in args} for args in self._args)
        self._blocks = (set(), set())

    def _read(self, hankel, n, x):
        m = -n if n < 0 else n
        block = m // _BLOCK
        if block not in self._blocks[hankel]:
            start = block * _BLOCK
            args = self._args[hankel]
            values = bessel_orders(hankel, np.arange(start, start + _BLOCK), args).tolist()
            for arg, row_values in zip(args, values):
                row = self._rows[hankel][arg]
                row.extend([None] * (start - len(row)))
                row[start : start + _BLOCK] = row_values
            self._blocks[hankel].add(block)
        value = self._rows[hankel][x][m]
        return -value if n < 0 and m % 2 else value

    def bessel_j(self, n, x):
        return self._read(False, n, x)

    def bessel_j_prime(self, n, x):
        return 0.5 * (self._read(False, n - 1, x) - self._read(False, n + 1, x))

    def hankel2(self, n, x):
        value = self._read(True, n, x)
        if not cmath.isfinite(value):
            raise _overflow(abs(n), x)
        return value

    def hankel2_prime(self, n, x):
        return 0.5 * (self.hankel2(n - 1, x) - self.hankel2(n + 1, x))


def sum_orders(run, angles, n_max, block, rel_tol, grow=None):
    """t_0 + sum_{1 <= n <= n_max} 2 t_n cos(n angle) at a 1-D array of angles.

    Every order series of the package is summed here. run(n) returns the
    terms of the orders n, at most block consecutive ones from order 0 up,
    and a reason, None unless it returns fewer terms: those of the first
    orders. Each angle's partial sums are a sequential np.add.accumulate
    over the run, with the bits of adding the terms one by one. An angle
    stops converged once three consecutive terms have 2 |t_n| below rel_tol
    times its partial sum (the streak carries across runs); if grow is
    given, it stops warning "series terms growing without bound" at a term
    with 2 |t_n| above grow times that sum. A short run stops every angle
    still running, warning its reason; n_max stops them with no warning. A
    run without order 0 raises BesselOverflowError. Returns per angle the
    sum, the last order added, |t_n| at that order, the geometric tail
    estimate (inf at order 0), the converged flag, and a list of warnings.
    """
    if n_max < 0:
        raise ValueError("n_max must be non-negative")
    total = np.empty(angles.size, dtype=complex)
    order = np.zeros(angles.size, dtype=int)
    converged = np.zeros(angles.size, dtype=bool)
    warning = [None] * angles.size
    # |t_n| of the orders summed, the same at every angle; of the angles still
    # running, their indices, angles, partial sums and last two small flags
    mags, active, theta = [], np.arange(angles.size), angles[:, None]
    small = np.zeros((angles.size, 2), dtype=bool)
    for start in range(0, n_max + 1, block):
        n = np.arange(start, min(start + block, n_max + 1))
        terms, reason = run(n)
        t = np.asarray(terms, dtype=complex)
        short, n = t.size < n.size, n[: t.size]
        # np.hypot rounds as abs() of a complex scalar does; np.abs may not
        mags.append(np.hypot(t.real, t.imag))
        if start == 0:
            if not t.size:
                raise BesselOverflowError("series overflows at order 0")
            total[:] = running = t[0]
            n, t = n[1:], t[1:]
        if t.size:
            part = 2.0 * t * np.cos(n * theta)
            part[:, 0] += running
            sums = np.add.accumulate(part, axis=1)
            mag2 = 2.0 * mags[-1][-t.size :]
            scale = np.maximum(np.hypot(sums.real, sums.imag), 1e-300)
            flags = np.concatenate((small, mag2 < rel_tol * scale), axis=1)
            done = flags[:, 2:] & flags[:, 1:-1]
            done &= flags[:, :-2]
            stopped = done if grow is None else done | (mag2 > grow * scale)
            if stopped.any():
                hit = stopped.any(axis=1)
                at = stopped[hit].argmax(axis=1)
                index = active[hit]
                total[index] = sums[hit, at]
                order[index] = n[at]
                converged[index] = ok = done[hit, at]
                for i in index[~ok].tolist():
                    warning[i] = "series terms growing without bound"
                if index.size == active.size:
                    active = index[:0]
                    break
                keep = ~hit
                active, theta, sums, flags = active[keep], theta[keep], sums[keep], flags[keep]
            running, small = sums[:, -1], flags[:, -2:]
        if short or not active.size:
            break
    mags = np.concatenate(mags)
    if active.size:
        total[active] = running
        order[active] = mags.size - 1
        for i in active.tolist():
            warning[i] = reason
    # 2 |t_n| r / (1 - r), r the ratio to |t_0| at order 1, else to the
    # floored 2 |t_(n-1)|, capped at 0.99; once per order stopped at
    tails, values = {0: np.inf}, mags.tolist()
    for n in set(order.tolist()) - {0}:
        mag = 2.0 * values[n]
        prev = values[0] if n == 1 else max(2.0 * values[n - 1], 1e-300)
        ratio = min(mag / prev if prev > 0 else 1.0, 0.99)
        tails[n] = mag * ratio / (1.0 - ratio)
    tail = np.array([tails[n] for n in order.tolist()])
    return total, order, mags[order], tail, converged, warning


def _addition_sum(theta, n_max, ratio, term):
    """sum_orders of an addition series at one angle or a 1-D array of them.

    term(n) returns the products of radial factors at an array n of orders,
    non-finite where an order overflows; the sum stops before the first
    such order. Warns per angle as _warn_if_unconverged does for the radius
    ratio of the two points. Returns the sums shaped like theta.
    """
    angles = np.asarray(theta, dtype=float)
    if angles.ndim > 1:
        raise ValueError("theta must be one angle or a 1-D array of angles")

    def run(n):
        # overflowing orders may meet 0 * inf; they are cut off here
        with np.errstate(invalid="ignore", over="ignore"):
            t = term(n)
        finite = np.isfinite(t)
        return (t if finite.all() else t[: finite.argmin()]), None

    total, _, last, _, _, _ = sum_orders(run, angles.reshape(-1), n_max, _BLOCK, 1e-14)
    _warn_if_unconverged(last, total, ratio)
    return complex(total[0]) if angles.ndim == 0 else total


def addition_series_h0(x1, x2, theta, n_max=60):
    """Partial sum of Graf's theorem for H^(2)_0 of the two-point distance.

    Sums J_n(min) H2_n(max) e^{i n theta} over |n| <= n_max, which converges
    to H^(2)_0(sqrt(x1^2 + x2^2 - 2 x1 x2 cos theta)) whenever x1 != x2.
    theta is one angle (a complex comes back) or a 1-D array of angles (an
    array comes back); each angle gets the bits and the warning of its own
    one-angle call.
    """
    if x1 <= 0 or x2 <= 0:
        raise ValueError("radii must be positive")
    if x1 == x2:
        raise ValueError("radii must differ (distance may vanish)")
    lo, hi = min(x1, x2), max(x1, x2)
    return _addition_sum(
        theta, n_max, lo / hi, lambda n: bessel_orders(False, n, lo) * bessel_orders(True, n, hi)
    )


def _around(n):
    """Orders n[0] - 1 .. n[-1] + 1, for the recurrence (f_{n-1} - f_{n+1}) / 2."""
    return np.arange(n[0] - 1, n[-1] + 2)


def addition_series_h0_d1(x1, x2, theta, n_max=60):
    """Partial sum of -sum_n J'_n(x1) H2_n(x2) e^{i n theta}, for x2 > x1.

    Equals the cosine-weighted H^(2)_1 kernel
    ((x1 - x2 cos theta)/d) H^(2)_1(d), d the two-point distance. theta is
    one angle or a 1-D array of them, as in addition_series_h0.
    """
    if not x2 > x1 > 0:
        raise ValueError("need x2 > x1 > 0")

    def term(n):
        j = bessel_orders(False, _around(n), x1)
        return -(0.5 * (j[:-2] - j[2:])) * bessel_orders(True, n, x2)

    return _addition_sum(theta, n_max, x1 / x2, term)


def addition_series_h0_d2(x1, x2, theta, n_max=60):
    """Partial sum of -sum_n J_n(x1) H2'_n(x2) e^{i n theta}, for x2 > x1.

    Equals ((x2 - x1 cos theta)/d) H^(2)_1(d). theta is one angle or a 1-D
    array of them, as in addition_series_h0.
    """
    if not x2 > x1 > 0:
        raise ValueError("need x2 > x1 > 0")

    def term(n):
        h = bessel_orders(True, _around(n), x2)
        return -bessel_orders(False, n, x1) * (0.5 * (h[:-2] - h[2:]))

    return _addition_sum(theta, n_max, x1 / x2, term)


def _warn_if_unconverged(last_term, total, ratio):
    """Warn once per angle whose sum's tail estimate is not below tolerance.

    last_term and total are one angle's values or arrays over the angles;
    the warning names the line that called the series, through _addition_sum.
    """
    import warnings

    for last, value in zip(np.ravel(last_term).tolist(), np.ravel(total).tolist()):
        # geometric tail bound from the radius ratio of the two points
        bound = 2.0 * abs(last) * ratio / max(1e-300, 1.0 - ratio)
        if bound > 1e-10 * max(abs(value), 1e-300):
            warnings.warn(
                "addition series tail estimate %.3g not below tolerance; "
                "increase n_max" % bound,
                stacklevel=4,
            )
