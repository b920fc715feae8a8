"""Integer-order cylinder functions and the identities the solvers lean on.

Everything downstream (series oracle, mode systems, kernel matrices) reduces
to J_n, Y_n and the outgoing Hankel function H^(2)_n = J_n - i Y_n of real
positive argument, together with two classical facts:

* the Wronskian  J_n(x) H2'_n(x) - J'_n(x) H2_n(x) = 2/(i pi x),
* Graf's addition theorem for H^(2)_0 of a distance between two points given
  in polar form, plus its two first-derivative variants.

Evaluation is delegated to scipy.special; this module adds the argument
checking, parity folding for negative orders, and overflow tagging that the
rest of the package relies on. Integer-order values are formed in three
places: hankel2_low writes H2_0 and H2_1 from the real functions j0, y0, j1
and y1 (Cephes) at arguments its caller has checked; bessel_orders forms
any integer order after checking its arguments, |n| <= 1 from the same
Cephes functions (H2 through hankel2_low), higher orders from jv and
hankel2 (AMOS); and graf_products forms Graf's products J_n(x) H2_n(y) by
ratio recurrences, H2's seeded from hankel2_low and J's scaled onto the
Cephes J_0 and J_1. bessel_j and hankel2 each read one order of
bessel_orders. Every function is safe to call concurrently, and
all but graf_products and graf_order, which take one pair of floats,
accept scalars or numpy arrays for the argument.

Kernel matrices pass arrays of arguments. The order series need many orders
at a few fixed arguments instead. The sums of Graf's products (the q-sums
of discrete, the circle mode sums of fields, the addition series here) read
the rows they need of one graf_products table per argument pair, and only
those rows are formed: no J or H2 factor is formed either, so
a product is there wherever it is representable, however far J_n(x) falls
below the float range or H2_n(y) rises above it, and graf_order says how
many orders such a sum needs. The circular series of exact and continuous,
whose terms are ratios of such products, read order_factors: J and H2 with
their derivatives at named arguments, one bessel_orders call per kind.
sum_orders sums the runs of an order series for every angle asked for in
one pass, with the same bits and the same stop order as the order-by-order
sum at each angle, and alone cuts a run at its first unusable order.

Kernel matrices, the incident field and the layer operators check their
arguments themselves and read hankel2_low directly.

Only real arguments are supported (every wavenumber in the package is real).
"""

import math
import warnings

import numpy as np
from scipy import special

from .geometry import as_count


class BesselOverflowError(ArithmeticError):
    """Raised when H^(2)_n(x) (through Y_n) exceeds the floating range.

    Callers that scan over orders treat the tagged order as unusable instead
    of letting infinities leak into matrix assembly.
    """


def _check_argument(x):
    x = np.asarray(x, dtype=float)
    if not ((x > 0.0) & (x < np.inf)).all():
        if not np.isfinite(x).all():
            raise ValueError("argument must be finite")
        raise ValueError("argument must be positive")
    return x


# Real J_n and Y_n for the two orders every kernel matrix needs; several times
# cheaper than the complex hankel2/jv, which stay in use for |n| >= 2.
_LOW_ORDER = {0: (special.j0, special.y0), 1: (special.j1, special.y1)}


def bessel_j(n, x):
    """Bessel function J_n(x) for integer n (any sign) and real x > 0.

    One order of bessel_orders, with its bits: a float for a scalar x, an
    array shaped like x otherwise. n is read by geometry.as_count: an order
    that is not a whole number raises ValueError naming it.
    """
    out = bessel_orders(False, np.array([as_count(n, "order")]), x)[..., 0]
    return out if out.ndim else float(out)


def hankel2(n, x):
    """Outgoing Hankel function H^(2)_n(x) = J_n(x) - i Y_n(x).

    One order of bessel_orders, with its bits and its order checked, as
    bessel_j reads J_n. Raises BesselOverflowError instead of returning
    infinities when the Y_n part leaves the floating range (n much larger
    than x).
    """
    n = as_count(n, "order")
    out = bessel_orders(True, np.array([n]), x)[..., 0]
    if not np.isfinite(out).all():
        raise _overflow(abs(n), float(np.min(x)))
    return out if out.ndim else complex(out)


def hankel2_low(n, x, out=None):
    """H^(2)_n(x) for n = 0 or 1 at arguments the caller has checked.

    The one definition of H2_0 and H2_1: Cephes J_n and -Y_n written into
    one complex array, a complex for a scalar x as hankel2 gives. x is a
    float or an array of floats, each positive and finite (not checked
    here). An array x's values go to out if given, a complex array (or a
    strided view) of x's shape, with the same bits. Raises
    BesselOverflowError where Y_1 leaves the floating range, which needs a
    subnormal x; Y_0 cannot.
    """
    j, y = _LOW_ORDER[n]
    if isinstance(x, float):  # one float: the same two Cephes values, no array
        out = complex(j(x), -y(x))
        if n and not math.isfinite(out.imag):
            raise _overflow(n, x)
        return out
    out = np.empty(np.shape(x), dtype=complex) if out is None else out
    j(x, out=out.real)
    y(x, out=out.imag)
    np.conjugate(out, out=out)  # J - iY; one contiguous pass, where negating .imag strides
    if n and not np.isfinite(out.imag).all():
        raise _overflow(n, float(np.min(x)))
    return out if out.ndim else complex(out)


def _overflow(n, x):
    return BesselOverflowError(
        "H2_%d overflows near x=%g; order too large for this argument" % (n, x)
    )


def wronskian_residual(n, x):
    """J_n H2'_n - J'_n H2_n minus its exact value 2/(i pi x).

    n is one order or a 1-D array of them; the result has shape
    np.shape(x) + np.shape(n), from one order_factors call per kind, which
    evaluates each of the orders n - 1, n and n + 1 once. Should be ~1e-15
    relative to 2/(pi x) for any order/argument combination this package
    touches; criterion 01 and the tests use it as a self-check.
    """
    n = np.asarray(n)
    x = _check_argument(x)
    args, shape = dict(enumerate(x.ravel())), (2,) + x.shape + n.shape
    j, jp = np.swapaxes(list(order_factors(n, j=args).values()), 0, 1).reshape(shape)
    h, hp = np.swapaxes(list(order_factors(n, h=args).values()), 0, 1).reshape(shape)
    if not (np.isfinite(h).all() and np.isfinite(hp).all()):
        raise _overflow(int(np.max(np.abs(n))) + 1, float(np.min(x)))
    exact = 2.0 / (1j * np.pi * x.reshape(x.shape + (1,) * n.ndim))
    return (j * hp - jp * h) - exact


def as_orders(n):
    """n as a signed integer array; ValueError naming the first order that
    is not a whole number, or any of bool dtype. A signed integer array
    passes on its dtype alone, with no scan of its values; an unsigned one
    is cast, since its n - 1 would wrap at order 0."""
    n = np.asarray(n)
    if n.dtype.kind == "i":
        return n
    whole = np.isfinite(n) & (np.floor(n) == n) if n.dtype.kind in "fu" else np.zeros(n.shape, bool)
    if whole.all():
        return n.astype(int)
    raise ValueError("order must be an integer, got %r" % n.flat[np.argmin(whole)].item())


def bessel_orders(hankel, n, x):
    """J_n(x), or H2_n(x) if hankel, over a 1-D integer order array n at every x.

    x is one argument or an array of them; the result has shape
    np.shape(x) + n.shape. The one evaluator of integer orders: |n| <= 1
    from the Cephes functions of _LOW_ORDER (H2 through hankel2_low), only
    the other orders from jv or hankel2, negative orders folded by parity.
    n goes through as_orders, so an order that is not a whole number (or
    a bool) raises ValueError naming it. A non-finite value (an order
    |n| >= 2 where Y_n overflows) is left in place for the caller;
    hankel2_low raises BesselOverflowError for H2_1 at a subnormal x.
    """
    n = as_orders(n)
    m = np.abs(n)
    amos = special.hankel2 if hankel else special.jv
    x = _check_argument(x)[..., None]
    high = m >= 2
    out = np.empty(x.shape[:-1] + n.shape, complex if hankel else float)
    out[..., high] = amos(m[high], x)
    for order in (0, 1):
        at = m == order
        if at.any():
            out[..., at] = hankel2_low(order, x) if hankel else _LOW_ORDER[order][0](x)
    if (n < 0).any():
        folded = (n < 0) & (m % 2 == 1)
        out[..., folded] = -out[..., folded]
    return out


def order_factors(n, j=None, h=None):
    """J with J' at the arguments of j and H2 with H2' at those of h, at the orders n.

    n is one integer order or an array of them; j and h map names to
    arguments. Returns a dict from each name to its pair (f_n, f'_n) shaped
    like n, f' = (f_{n-1} - f_{n+1}) / 2, non-finite values left in place.
    One bessel_orders call per kind evaluates each distinct (order,
    argument) pair of n - 1, n, n + 1 and that kind's arguments once. An
    order that is not a whole number raises ValueError naming it.
    """
    n = as_orders(n)
    orders = np.unique([n - 1, n, n + 1])
    lo, mid, hi = (np.searchsorted(orders, k) for k in (n - 1, n, n + 1))
    out = {}
    for hankel, named in ((False, j), (True, h)):
        if named:
            at = {x: i for i, x in enumerate(dict.fromkeys(named.values()))}
            f = bessel_orders(hankel, orders, list(at))
            value, deriv = f[:, mid], 0.5 * (f[:, lo] - f[:, hi])
            for name, x in named.items():
                out[name] = value[at[x]], deriv[at[x]]
    return out


def _debye_exponent(n, x):
    """n (alpha - tanh alpha) with cosh alpha = n/x, 0 for n <= x.

    By Debye's expansions J_n(x) falls like exp(-this) and |H2_n(x)| grows
    like exp(+this) once the order passes the argument.
    """
    if n <= x:
        return 0.0
    t = math.sqrt(n * n - x * x)
    return n * math.log((n + t) / x) - t


# ln(1e18): a sum of Graf's products drops terms of about 1e-18 and below (graf_order)
_TAIL = math.log(1e18)


def graf_order(x, y, slope=0.0, cap=math.inf, base=0):
    """The last order m a sum of Graf's products J_n(x) H2_n(y), x < y, needs, or None.

    By Debye's expansions |J_n(x) H2_n(y)| is about exp(-F(n)) / (pi n),
    F(n) = E(n, x) - E(n, y) with E = _debye_exponent. F grows with n, by
    at least ln(y/x) per order once n > y. m is the least order above base
    with F(m) - F(base) >= ln(1e18) + ln(1 + y) / 2 + ln(m / slope), where
    slope > 0 is the argument of a derivative factor (J'_n(x) or H2'_n(y),
    about n/slope times the function; 0 for none). So a dropped order weighs
    at most about 1e-18 / sqrt(1 + y) of the product at order base. For the
    circle fields (base 0) that is 1e-18 / sqrt(1 + y) of the largest
    |DFT_n| of the amplitudes, itself at most sum |a_l|; the direct sum's
    own roundoff is eps sum |a_l| |H0(k r_l)|, with |H0| of order
    (1 + y)^(-1/2), a hundred times more. F(n) <= n ln(y/x), so the search
    starts at the order where that bound meets the target and climbs. None
    when m would exceed cap.
    """
    if not 0.0 < x < y < math.inf:
        raise ValueError("need 0 < x < y, both finite")
    target = _TAIL + 0.5 * math.log1p(y)
    floor = _debye_exponent(base, x) - _debye_exponent(base, y) if base else 0.0

    def short(n):
        excess = _debye_exponent(n, x) - _debye_exponent(n, y) - floor - target
        return excess < (math.log(n / slope) if n > slope > 0.0 else 0.0)

    start = m = max(base + 1, math.ceil((target + floor) / math.log(y / x)))
    while m <= cap and short(m):
        m += 1
        if m == start + 4 and short(cap):  # a long climb: give up early if it tops out
            return None
    return m if m <= cap else None


def _miller_start(x, top):
    """An order far enough above top and x that J's backward ratio recurrence,
    started there from 0, reaches the orders up to top within roundoff: the
    start's error shrinks like exp(-2 (E(start, x) - E(top, x))). E grows
    with slope acosh(n/x), itself growing, so a step of the shortfall over
    that slope reaches the target; a step is held to start - x orders,
    since next to x that slope is small and the step far too long."""
    floor, start = _debye_exponent(top, x), max(top, math.ceil(x)) + 1
    while (short := 20.0 - (_debye_exponent(start, x) - floor)) > 0.0:
        start += min(math.ceil(short / math.acosh(start / x)), math.ceil(start - x))
    return start


def graf_products(x, y, top, forms):
    """Rows of Graf's products, n = 0..top: J_n(x) H2_n(y) (form 0),
    J'_n(x) H2_n(y) (form 1) and J_n(x) H2'_n(y) (form 2).

    x and y are floats with 0 < x < y < inf, and forms a sequence of
    distinct form numbers, the rows the caller reads; returns a complex
    array of shape (len(forms), top + 1) whose row i is form forms[i].
    Only the rows asked for are formed, each with the bits it has in the
    table of all three, in one numpy call per row and one for the array.
    No factor is formed: J's
    ratios rho_n = J_n / J_(n-1) come from Miller's backward recurrence
    rho_n = x / (2n - x rho_(n+1)), started at 0 above top (_miller_start),
    and H2's ratios s_n = H2_n / H2_(n-1) from the upward recurrence
    s_(n+1) = 2n/y - 1/s_n, seeded by hankel2_low. One cumulative product
    of rho_n s_n from order 0 then gives the products, which stay in the float
    range wherever the products themselves are, however far J_n(x) falls
    below it or H2_n(y) above it. J' / J = n/x - rho_(n+1) and
    H2' / H2 = n/y - s_(n+1) give the derivative forms, with
    f' = (f_(n-1) - f_(n+1)) / 2 as order_factors has it. Order 0's J
    factor is the least-squares scale that maps the ratios onto the Cephes
    J_0(x) and J_1(x), so that a zero of either does not spoil it; no Y_n(x)
    is read.
    Each ratio carries its own rounding, so the error relative to each
    product grows about like sqrt(n) eps (7e-15 at n = 4096).
    """
    if not 0.0 < x < y < math.inf:
        raise ValueError("need 0 < x < y, both finite")
    x, y, top = float(x), float(y), as_count(top, "top")
    if top < 0:
        raise ValueError("top must be non-negative")
    forms = tuple(forms)
    if not set(forms) <= {0, 1, 2} or len(set(forms)) < len(forms):
        raise ValueError("forms must be distinct, drawn from 0, 1 and 2, got %r" % (forms,))
    # no rounded 2/x or 2/y: its one error would bias every ratio alike
    r = 0.0
    for n in range(_miller_start(x, top + 1), top + 1, -1):
        r = x / (2 * n - x * r)
    # rho_n and s_n for n = 1..top + 1, order n at index n - 1
    rho = [r := x / (2 * n - x * r) for n in range(top + 1, 0, -1)][::-1]
    h0 = hankel2_low(0, y)
    v = hankel2_low(1, y) / h0
    s = [v] + [v := 2 * n / y - 1.0 / v for n in range(1, top + 1)]
    # r is rho_1 = J_1 / J_0. A real factor times a complex one rounds each
    # part once, so the Python products below have the bits of numpy's
    j0, j1 = float(_LOW_ORDER[0][0](x)), float(_LOW_ORDER[1][0](x))
    seed = (j0 + j1 * r) / (1.0 + r * r) * h0
    out = np.empty((len(forms), top + 1), dtype=complex)
    products = out[forms.index(0)] if 0 in forms else np.empty(top + 1, dtype=complex)
    np.multiply.accumulate([seed] + [a * b for a, b in zip(rho[:top], s)], out=products)
    for row, form in zip(out, forms):
        if form == 1:  # J'/J = n/x - rho_(n+1)
            np.multiply([n / x - a for n, a in enumerate(rho)], products, out=row)
        elif form == 2:  # H2'/H2 = n/y - s_(n+1)
            np.multiply([n / y - b for n, b in enumerate(s)], products, out=row)
    return out


def sum_orders(run, angles, n_max, block, rel_tol, grow=None):
    """t_0 + sum_{1 <= n <= n_max} 2 t_n cos(n angle) at a 1-D array of angles.

    Every order series of the package is summed here. run(n) returns the
    terms of the orders n, at most block consecutive ones from order 0 up,
    a mask usable and optionally a mask in_range, with every floating-point
    warning off; the run is cut before its first order that is unusable
    (factors overflow), out of range (a factor fell to 0 or below the
    normal range) or not finite. Each angle's partial sums are a sequential
    np.add.accumulate over the run, with the bits of adding the terms one
    by one. An angle stops converged once three consecutive terms have
    2 |t_n| below rel_tol times its partial sum (the streak carries across
    runs); if grow is given, it stops warning "series terms growing without
    bound" at a term with 2 |t_n| above grow times that sum. A cut stops
    every angle still running, warning where and why; n_max, a whole
    number, stops them with no warning. A cut at order 0 raises
    BesselOverflowError. Returns the sum and the last order added per
    angle, |t_n| of every order summed (one array for all angles), the
    converged flag per angle and a list of warnings. Raises ValueError
    naming the angles that are not finite, and for no angle at all.
    """
    if not angles.size:
        raise ValueError("angles must be a non-empty array of angles")
    finite = np.isfinite(angles)
    if not finite.all():
        raise ValueError("angles must be finite, got %s" % angles[~finite].tolist())
    n_max = as_count(n_max, "n_max")
    if n_max < 0:
        raise ValueError("n_max must be non-negative")
    total = np.empty(angles.size, dtype=complex)
    order = np.zeros(angles.size, dtype=int)
    converged = np.zeros(angles.size, dtype=bool)
    warning = [None] * angles.size
    # |t_n| of the orders summed, the same at every angle; the angles still
    # running, by index and angle; a cut's warning; their last two small flags
    mags, active, theta, reason = [], np.arange(angles.size), angles[:, None], None
    small = np.zeros((angles.size, 2), dtype=bool)
    for start in range(0, n_max + 1, block):
        n = np.arange(start, min(start + block, n_max + 1))
        with np.errstate(all="ignore"):
            terms, usable, *in_range = run(n)
        t = np.asarray(terms, dtype=complex)
        ok = usable & np.isfinite(t) & (in_range[0] if in_range else True)
        short = not ok.all()
        if short:
            at = int(ok.argmin())
            why = "floating-point range" if usable[at] else "order overflow"
            reason = "series truncated at n=%d by %s" % (n[at], why)
            t, n = t[:at], n[:at]
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
    return total, order, mags, converged, warning


def _addition_sum(theta, n_max, x1, x2, form):
    """sum_orders of an addition series at one angle or a 1-D array of them.

    The terms are graf_products(x1, x2, top, (form,)), negated for the
    two derivative forms, summed in one run of orders 0..top: top is
    n_max, or graf_order's last order where that comes first, past which
    the terms are below about 1e-18. Warns per angle as
    _warn_if_unconverged does for the radius ratio x1 / x2. Returns the
    sums shaped like theta.
    """
    angles = np.asarray(theta, dtype=float)
    if angles.ndim > 1:
        raise ValueError("theta must be one angle or a 1-D array of angles")

    def run(n):
        # one run from order 0: n is 0..top, which sum_orders has checked
        t = graf_products(x1, x2, n.size - 1, (form,))[0]
        return (-t if form else t), np.isfinite(t)

    n_max = as_count(n_max, "n_max")
    top = graf_order(x1, x2, (0.0, x1, x2)[form], n_max)
    top = n_max if top is None else top
    total, order, mags, _, _ = sum_orders(run, angles.reshape(-1), top, top + 1, 1e-14)
    _warn_if_unconverged(mags[order], total, x1 / x2)
    return complex(total[0]) if angles.ndim == 0 else total


def addition_series_h0(x1, x2, theta, n_max=60):
    """Partial sum of Graf's theorem for H^(2)_0 of the two-point distance.

    Sums J_n(min) H2_n(max) e^{i n theta} over |n| <= n_max, which converges
    to H^(2)_0(sqrt(x1^2 + x2^2 - 2 x1 x2 cos theta)) whenever x1 != x2.
    theta is one angle (a complex comes back) or a 1-D array of angles (an
    array comes back); each angle gets the bits and the warning of its own
    one-angle call.
    """
    if not (0.0 < x1 < np.inf and 0.0 < x2 < np.inf):
        raise ValueError("radii must be positive and finite")
    if x1 == x2:
        raise ValueError("radii must differ (distance may vanish)")
    return _addition_sum(theta, n_max, min(x1, x2), max(x1, x2), 0)


def _warn_if_unconverged(last_term, total, ratio):
    """Warn once per angle whose sum's tail estimate is not below tolerance.

    last_term and total are one angle's values or arrays over the angles;
    the warning names the line that called the series, through _addition_sum.
    """
    # geometric tail bound from the radius ratio of the two points
    bound = 2.0 * np.abs(np.ravel(last_term)) * ratio / max(1e-300, 1.0 - ratio)
    for b in bound[bound > 1e-10 * np.maximum(np.abs(np.ravel(total)), 1e-300)].tolist():
        warnings.warn(
            "addition series tail estimate %.3g not below tolerance; increase n_max" % b,
            stacklevel=4,
        )
