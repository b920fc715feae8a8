"""The circular series summed one order at a time, used only by the test suite.

These are the per-order loops the package summed its series with before it
read its factors from order tables and took orders in blocks:

- Graf's addition series of `cylwave.specfun`;
- `exact._sum_adaptive` and `exact.exact_ring` (value and deriv=True);
- `continuous.density_series` and `reconstruct_fields_from_densities`;
- `discrete.q_sum_coefficients`, one mode per call.

Every factor comes from a public scalar function of `cylwave.specfun`, one
call per order. The package's series must give the same bits, the same
stop orders, tails and flags, and the same warnings.
"""

from dataclasses import replace
from functools import lru_cache

import numpy as np

from cylwave import continuous, discrete, exact, specfun


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


def sum_adaptive(term_fn, psi, n_cap, rel_tol=1e-13):
    """exact._sum_adaptive, adding one order at a time to every running angle."""
    psi = np.asarray(psi, dtype=float)
    first = term_fn(0)
    value = np.full(psi.shape, first, dtype=complex)
    n_used = np.zeros(psi.shape, dtype=int)
    tail = np.zeros(psi.shape)
    converged = np.zeros(psi.shape, dtype=bool)
    warning = [None] * psi.size
    running, angles, total = np.arange(psi.size), psi, value.copy()
    streak = np.zeros(psi.shape, dtype=int)
    prev_mag = abs(first)
    last_tail = float("inf")

    def stop(which, order, done=False, message=None):
        index = running[which]
        value[index] = total[which]
        n_used[index] = order
        tail[index] = last_tail
        converged[index] = done
        for i in index:
            warning[i] = message

    n = 0
    for n in range(1, n_cap + 1):
        try:
            t = term_fn(n)
        except ArithmeticError:
            stop(slice(None), n - 1, message="series truncated at n=%d by order overflow" % n)
            break
        if not np.isfinite(t):
            stop(slice(None), n - 1, message="series truncated at n=%d by floating-point range" % n)
            break
        total = total + 2.0 * t * np.cos(n * angles)
        mag = 2.0 * abs(t)
        scale = np.maximum(np.hypot(total.real, total.imag), 1e-300)
        streak = np.where(mag < rel_tol * scale, streak + 1, 0)
        ratio = min(mag / prev_mag if prev_mag > 0 else 1.0, 0.99)
        last_tail = mag * ratio / (1.0 - ratio)
        prev_mag = max(mag, 1e-300)
        done = streak >= 3
        stopped = done | (mag > 1e120 * scale)
        if stopped.any():
            stop(done, n, done=True)
            stop(stopped & ~done, n, message="series terms growing without bound")
            keep = ~stopped
            running, angles, total, streak = running[keep], angles[keep], total[keep], streak[keep]
        if not running.size:
            break
    else:
        stop(slice(None), n)
    return value, n_used, tail, converged, warning


def mode_denominator(n, rho_cyl, medium1, medium2):
    k1, z1 = medium1.k, medium1.Z
    k2, z2 = medium2.k, medium2.Z
    val = z1 * specfun.hankel2(n, k1 * rho_cyl) * specfun.bessel_j_prime(
        n, k2 * rho_cyl
    ) - z2 * specfun.bessel_j(n, k2 * rho_cyl) * specfun.hankel2_prime(n, k1 * rho_cyl)
    if abs(val) < 1e-300:
        raise ArithmeticError("mode denominator underflow at n=%d" % n)
    return val


def series_term(series_id, n, rho_obs, rho_cyl, rho_fil, medium1, medium2, deriv=False):
    """exact._series_term with one scalar specfun call per factor."""
    k1, z1 = medium1.k, medium1.Z
    k2, z2 = medium2.k, medium2.Z
    delta = mode_denominator(n, rho_cyl, medium1, medium2)
    jj, jp = specfun.bessel_j, specfun.bessel_j_prime
    hh, hp = specfun.hankel2, specfun.hankel2_prime
    x1, x2 = k1 * rho_cyl, k2 * rho_cyl
    if series_id == "ext_R1":
        ratio = (z1 * jp(n, x2) * jj(n, x1) - z2 * jj(n, x2) * jp(n, x1)) / delta
    elif series_id == "int_R2":
        ratio = (z1 * hh(n, x1) * hp(n, x2) - z2 * hp(n, x1) * hh(n, x2)) / delta
    else:
        ratio = 1j * z1 * z2 / delta
    if series_id.endswith("R1"):
        obs = k1 * hp(n, k1 * rho_obs) if deriv else hh(n, k1 * rho_obs)
    else:
        obs = k2 * jp(n, k2 * rho_obs) if deriv else jj(n, k2 * rho_obs)
    source = hh(n, k1 * rho_fil) if series_id.startswith("ext") else jj(n, k2 * rho_fil)
    return obs * ratio * source


def exact_ring(excitation, region, rho_obs, phis, rho_cyl, medium1, medium2, n_max=None, deriv=False):
    """exact.exact_ring summed by sum_adaptive from series_term."""
    series_id = exact.series_id_for(excitation, region)
    phis = np.asarray(phis, dtype=float)
    warning = None
    if exact.convergence_region(series_id, rho_obs, rho_cyl, excitation.rho) == "diverges":
        warning = "observation radius outside the convergence region of " + series_id
    cap = n_max if n_max is not None else exact.default_n_cap(
        excitation, rho_cyl, medium1, medium2, rho_obs
    )
    pref = exact._series_prefactor(series_id, excitation, medium1, medium2, rho_cyl)
    value, n_used, tail, converged, sum_warning = sum_adaptive(
        lambda n: series_term(
            series_id, n, rho_obs, rho_cyl, excitation.rho, medium1, medium2, deriv
        ),
        phis - excitation.phi,
        cap,
    )
    incident = np.zeros(phis.shape, dtype=complex)
    if series_id in ("ext_R1", "int_R2"):
        source = exact._incident_radial_deriv if deriv else exact.incident_field
        medium = medium1 if series_id == "ext_R1" else medium2
        incident = source(excitation, medium, rho_obs, phis)
    return [
        exact.SeriesResult(
            incident[i] + pref * complex(value[i]),
            int(n_used[i]),
            abs(pref) * float(tail[i]),
            bool(converged[i]),
            warning or sum_warning[i],
        )
        for i in range(phis.size)
    ]


def mode_solve(n, excitation, rho_cyl, medium1, medium2):
    """continuous.mode_solve with one scalar specfun call per factor."""
    k1, z1 = medium1.k, medium1.Z
    k2, z2 = medium2.k, medium2.Z
    m = abs(int(n))
    a11 = specfun.hankel2(m, k1 * rho_cyl)
    a12 = specfun.hankel2_prime(m, k1 * rho_cyl) / (1j * z1)
    a21 = specfun.bessel_j(m, k2 * rho_cyl)
    a22 = specfun.bessel_j_prime(m, k2 * rho_cyl) / (1j * z2)
    det = a11 * a22 - a12 * a21
    if abs(det) < continuous.DET_FLOOR:
        raise ArithmeticError("matching system singular at mode n=%d" % n)
    amp = excitation.amplitude
    two_pi = 2.0 * np.pi
    if excitation.region == "external":
        b1 = -amp * specfun.hankel2(m, k1 * excitation.rho) / (two_pi * rho_cyl)
        b2 = 0.0
    else:
        b1 = 0.0
        b2 = amp * specfun.bessel_j(m, k2 * excitation.rho) / (two_pi * rho_cyl)
    electric = (b1 * a22 - a12 * b2) / det
    magnetic = (a11 * b2 - b1 * a21) / det
    rot = np.exp(-1j * n * excitation.phi)
    return continuous.DensityCoefficients(n, electric * rot, magnetic * rot)


def density_series(excitation, phi, rho_cyl, medium1, medium2, n_max=None):
    """continuous.density_series summed by sum_adaptive from mode_solve."""
    base = replace(excitation, phi=0.0)
    cap = n_max if n_max is not None else exact.default_n_cap(
        excitation, rho_cyl, medium1, medium2
    )
    psi = np.atleast_1d(np.asarray(phi, dtype=float) - excitation.phi)
    coefficients = lru_cache(maxsize=None)(
        lambda n: mode_solve(n, base, rho_cyl, medium1, medium2)
    )
    j_z, _, _, ok_j, _ = sum_adaptive(lambda n: coefficients(n).electric, psi, cap)
    m_phi, _, _, ok_m, _ = sum_adaptive(lambda n: coefficients(n).magnetic, psi, cap)
    if not (ok_j.all() and ok_m.all()):
        raise ArithmeticError("density series not converged within n_max=%d" % cap)
    shape = np.shape(phi)
    return j_z.reshape(shape)[()], m_phi.reshape(shape)[()]


def reconstruct_fields_from_densities(excitation, rho_obs, phi_obs, rho_cyl, medium1, medium2, n_max=None):
    """continuous.reconstruct_fields_from_densities, one order at a time."""
    base = replace(excitation, phi=0.0)
    cap = n_max if n_max is not None else exact.default_n_cap(
        excitation, rho_cyl, medium1, medium2, rho_obs
    )
    phis = np.atleast_1d(np.asarray(phi_obs, dtype=float))
    k1, z1 = medium1.k, medium1.Z
    k2, z2 = medium2.k, medium2.Z
    outside = rho_obs > rho_cyl

    def term(n):
        coeff = mode_solve(n, base, rho_cyl, medium1, medium2)
        if outside:
            radial = specfun.hankel2(n, k1 * rho_obs)
            return (
                -(k1 * z1 / 4.0) * coeff.electric * specfun.bessel_j(n, k1 * rho_cyl)
                - (k1 / 4j) * coeff.magnetic * specfun.bessel_j_prime(n, k1 * rho_cyl)
            ) * radial
        radial = specfun.bessel_j(n, k2 * rho_obs)
        return (
            (k2 * z2 / 4.0) * coeff.electric * specfun.hankel2(n, k2 * rho_cyl)
            + (k2 / 4j) * coeff.magnetic * specfun.hankel2_prime(n, k2 * rho_cyl)
        ) * radial

    value, _, _, converged, _ = sum_adaptive(term, phis - excitation.phi, cap)
    if not converged.all():
        raise ArithmeticError("field reconstruction not converged within n_max=%d" % cap)
    value = 2.0 * np.pi * rho_cyl * value
    if outside and excitation.region == "external":
        value = value + exact.incident_field(excitation, medium1, rho_obs, phis)
    elif not outside and excitation.region == "internal":
        value = value + exact.incident_field(excitation, medium2, rho_obs, phis)
    return value.reshape(np.shape(phi_obs))[()]


def bilateral_sum(term, ratio, x_floor, n_points, m, q_max, phi_fil=0.0):
    """discrete._bilateral_sum: an overflowing order adds nothing, and the
    sum raises only where its lowest order, min(m, N - m), overflows."""
    lowest = m if q_max == 0 or 2 * m <= n_points else n_points - m
    try:
        total = term(m) * np.exp(-1j * m * phi_fil)
    except specfun.BesselOverflowError:
        if m == lowest:
            raise
        total = 0j
    peak = max(abs(total), 1e-300)
    q = 1
    while q_max is None or q <= q_max:
        nu_hi = q * n_points + m
        nu_lo = q * n_points - m
        if q_max is None:
            envelope = 10.0 * ratio**nu_lo / (np.pi * x_floor)
            if envelope < 1e-17 * max(abs(total), peak):
                break
        ring = None
        try:
            ring = term(nu_hi) * np.exp(-1j * nu_hi * phi_fil)
        except specfun.BesselOverflowError:
            pass
        try:
            low = term(nu_lo) * np.exp(+1j * nu_lo * phi_fil)
        except specfun.BesselOverflowError:
            if nu_lo == lowest:
                raise
            low = None
        if ring is None and low is None:
            break
        if low is not None:
            if ring is None:
                ring = low
            else:
                ring += low
        total += ring
        peak = max(peak, abs(ring))
        q += 1
    return total


def q_sum_coefficients(m, n_points, curve, aux_inner, aux_outer, excitation, medium1, medium2, q_max=None):
    """discrete.q_sum_coefficients for one mode, one scalar call per factor."""
    r_cyl = curve.params["radius"]
    r_in = aux_inner.curve.params["radius"]
    r_out = aux_outer.curve.params["radius"]
    k1, k2 = medium1.k, medium2.k
    r_fil = excitation.rho

    def _sum(fa, fb, x1, x2, sign, phi_fil=0.0):
        return sign * bilateral_sum(
            lambda nu: fa(nu, x1) * fb(nu, x2), x1 / x2, min(x1, x2), n_points, m, q_max, phi_fil
        )

    jj, jp = specfun.bessel_j, specfun.bessel_j_prime
    hh, hp = specfun.hankel2, specfun.hankel2_prime
    b1 = _sum(jj, hh, k1 * r_in, k1 * r_cyl, +1.0)
    b2 = _sum(jj, hp, k1 * r_in, k1 * r_cyl, -1.0)
    b3 = _sum(jj, hh, k2 * r_cyl, k2 * r_out, +1.0)
    b4 = _sum(jp, hh, k2 * r_cyl, k2 * r_out, -1.0)
    if excitation.region == "external":
        d = _sum(jj, hh, k1 * r_in, k1 * r_fil, -1.0, excitation.phi)
    else:
        d = _sum(jj, hh, k2 * r_fil, k2 * r_out, +1.0, excitation.phi)
    return discrete.QSumCoefficients(m, n_points, d, b1, b2, b3, b4)
