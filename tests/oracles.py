"""Independent reference implementations used only by the test suite.

Nothing in here touches the package under test, but for the last section.
Special functions come from mpmath at 50 significant digits, linear solves
from a textbook Gaussian elimination written out longhand. Agreement between
these and the package is what the unit and acceptance tests assert.

The last section holds the two dipole addition series, float64 sums of the
package's own Graf products (cylwave.specfun.graf_products) that the kernel
tests hold the H1 kernels to: the library itself reads neither.
"""

import functools
import math

import mpmath
import numpy as np

from cylwave import specfun

mpmath.mp.dps = 50


def bessel_j_mp(n, x):
    """J_n(x) by extended-precision power series (mpmath besselj)."""
    return float(mpmath.besselj(n, mpmath.mpf(x)))


def bessel_y_mp(n, x):
    return float(mpmath.bessely(n, mpmath.mpf(x)))


def hankel2_mp(n, x):
    val = mpmath.hankel2(n, mpmath.mpf(x))
    return complex(val)


def bessel_j_prime_mp(n, x):
    """Derivative of J_n via the extended-precision recurrence."""
    if n == 0:
        return -bessel_j_mp(1, x)
    return 0.5 * (bessel_j_mp(n - 1, x) - bessel_j_mp(n + 1, x))


def hankel2_prime_mp(n, x):
    if n == 0:
        return -hankel2_mp(1, x)
    return 0.5 * (hankel2_mp(n - 1, x) - hankel2_mp(n + 1, x))


def gauss_solve(a, b):
    """Plain Gaussian elimination with partial pivoting, complex arithmetic.

    Deliberately naive (row loops, no BLAS) so it is an independent check on
    the package's LU-backed solver.
    """
    a = np.array(a, dtype=complex)
    b = np.array(b, dtype=complex)
    n = a.shape[0]
    if a.shape != (n, n) or b.shape != (n,):
        raise ValueError("square system expected")
    for col in range(n):
        pivot = max(range(col, n), key=lambda r: abs(a[r, col]))
        if abs(a[pivot, col]) == 0.0:
            raise ZeroDivisionError("singular matrix")
        if pivot != col:
            a[[col, pivot]] = a[[pivot, col]]
            b[[col, pivot]] = b[[pivot, col]]
        for row in range(col + 1, n):
            factor = a[row, col] / a[col, col]
            a[row, col:] -= factor * a[col, col:]
            b[row] -= factor * b[col]
    x = np.zeros(n, dtype=complex)
    for row in range(n - 1, -1, -1):
        x[row] = (b[row] - np.dot(a[row, row + 1:], x[row + 1:])) / a[row, row]
    return x


# -- the circular and addition series at 50 digits ---------------------------
#
# Inputs are the float64 values the package computes from: the wavenumber
# and impedance sqrt(eps mu) and sqrt(mu / eps) rounded to float64, each
# Bessel argument the float64 product k * rho, each angle the float64
# difference from the filament angle, and each angle factor taken at the
# float64 product n * angle. Everything else is carried out at 50 digits, so
# a gap to the package measures its arithmetic alone.


def medium_mp(eps_r, mu_r):
    """(k, Z) of a medium, rounded to float64 as cylwave.exact.Medium has them."""
    return math.sqrt(eps_r * mu_r), math.sqrt(mu_r / eps_r)


@functools.lru_cache(maxsize=None)
def _cylinder(hankel, n, x):
    xm = mpmath.mpf(x)
    return mpmath.hankel2(n, xm) if hankel else mpmath.besselj(n, xm)


def _pair(hankel, n, x):
    """(f_n(x), f'_n(x)) with f' = (f_{n-1} - f_{n+1}) / 2, f = J or H2."""
    return _cylinder(hankel, n, x), (_cylinder(hankel, n - 1, x) - _cylinder(hankel, n + 1, x)) / 2


def graf_products_mp(x, y, n):
    """(J_n(x) H2_n(y), J'_n(x) H2_n(y), J_n(x) H2'_n(y)) at 50 digits, as complexes.

    The forms of cylwave.specfun.graf_products, f' = (f_{n-1} - f_{n+1}) / 2;
    each product is representable in float64 wherever the package's is,
    however far a factor alone leaves the float range.
    """
    (j, jp), (h, hp) = _pair(False, n, x), _pair(True, n, y)
    return complex(j * h), complex(jp * h), complex(j * hp)


def addition_series_mp(kind, x1, x2, theta, n_used):
    """The series cylwave.specfun.addition_series_<kind> sums, through order n_used.

    kind is 'h0' (J_n of the smaller radius times H2_n of the larger),
    'h0_d1' (-J'_n(x1) H2_n(x2)) or 'h0_d2' (-J_n(x1) H2'_n(x2)); each term
    weighted 2 cos(n theta) for n >= 1. Returns a complex.
    """
    lo, hi = min(x1, x2), max(x1, x2)
    total = mpmath.mpc(0)
    for n in range(n_used + 1):
        (j, jp), (h, hp) = _pair(False, n, lo), _pair(True, n, hi)
        term = {"h0": j * h, "h0_d1": -jp * h, "h0_d2": -j * hp}[kind]
        total += (1 if n == 0 else 2) * term * mpmath.cos(n * theta)
    return complex(total)


def _incident_mp(media_kz, rho_fil, amplitude, rho_obs, psi, deriv):
    """The bare line source's field (or its d/d rho_obs) at 50 digits."""
    k, z = media_kz
    rf, ro = mpmath.mpf(rho_fil), mpmath.mpf(rho_obs)
    d = mpmath.sqrt(ro**2 + rf**2 - 2 * ro * rf * mpmath.cos(psi))
    front = -mpmath.mpf(k) * z / 4 * mpmath.mpc(amplitude)
    if not deriv:
        return front * mpmath.hankel2(0, k * d)
    return front * (-k * mpmath.hankel2(1, k * d)) * (ro - rf * mpmath.cos(psi)) / d


def exact_series_mp(series_id, deriv, rho_obs, psi, n_used, rho_fil, amplitude, rho_cyl, media):
    """The exact series of the circular problem through order n_used.

    series_id is one of ext_R1, ext_R2, int_R1, int_R2; psi the observation
    angle minus the filament angle; media the (eps_r, mu_r) pairs outside
    and inside. Adds the incident field (or its radial derivative with
    deriv) on the side of the source. Returns a complex.
    """
    (k1, z1), (k2, z2) = (medium_mp(*m) for m in media)
    x1, x2 = k1 * rho_cyl, k2 * rho_cyl
    outside, external = series_id.endswith("R1"), series_id.startswith("ext")
    amp = mpmath.mpc(amplitude)
    if series_id == "ext_R1":
        pref = mpmath.mpf(k1) * z1 * amp / 4
    elif series_id == "int_R2":
        pref = mpmath.mpf(k2) * z2 * amp / 4
    else:
        pref = -amp / (2 * mpmath.pi * rho_cyl)
    total = mpmath.mpc(0)
    for n in range(n_used + 1):
        (j2, jp2), (h1, hp1) = _pair(False, n, x2), _pair(True, n, x1)
        delta = z1 * h1 * jp2 - z2 * j2 * hp1
        if series_id == "ext_R1":
            j1, jp1 = _pair(False, n, x1)
            ratio = (z1 * jp2 * j1 - z2 * j2 * jp1) / delta
        elif series_id == "int_R2":
            h2, hp2 = _pair(True, n, x2)
            ratio = (z1 * h1 * hp2 - z2 * hp1 * h2) / delta
        else:
            ratio = 1j * mpmath.mpf(z1) * z2 / delta
        k = k1 if outside else k2
        f, fp = _pair(outside, n, k * rho_obs)
        obs = k * fp if deriv else f
        source = _cylinder(external, n, (k1 if external else k2) * rho_fil)
        total += (1 if n == 0 else 2) * obs * ratio * source * mpmath.cos(n * psi)
    value = pref * total
    if series_id in ("ext_R1", "int_R2"):
        kz = (k1, z1) if external else (k2, z2)
        value += _incident_mp(kz, rho_fil, amplitude, rho_obs, psi, deriv)
    return complex(value)


def _converged_sum(term, tol=mpmath.mpf(10) ** -30):
    """term(0) + 2 sum_n term(n), stopped after five orders below tol of the sum."""
    total, small, n = term(0), 0, 0
    while small < 5:
        n += 1
        t = 2 * term(n)
        total += t
        small = small + 1 if abs(t) < tol * abs(total) else 0
    return total


def density_coefficients_mp(n, side, rho_fil, amplitude, rho_cyl, media):
    """Unrotated density coefficients (electric, magnetic) of mode n >= 0."""
    (k1, z1), (k2, z2) = (medium_mp(*m) for m in media)
    (a11, a12), (a21, a22) = _pair(True, n, k1 * rho_cyl), _pair(False, n, k2 * rho_cyl)
    a12, a22 = a12 / (1j * mpmath.mpf(z1)), a22 / (1j * mpmath.mpf(z2))
    det = a11 * a22 - a12 * a21
    front = mpmath.mpc(amplitude) / (2 * mpmath.pi * rho_cyl)
    if side == "external":
        b1, b2 = -front * _cylinder(True, n, k1 * rho_fil), 0
    else:
        b1, b2 = 0, front * _cylinder(False, n, k2 * rho_fil)
    return (b1 * a22 - a12 * b2) / det, (a11 * b2 - b1 * a21) / det


def density_mp(side, rho_fil, amplitude, psi, rho_cyl, media):
    """Both boundary densities (J_z, M_phi) at angle psi from the filament, summed to convergence."""

    def series(i):
        return _converged_sum(
            lambda n: density_coefficients_mp(n, side, rho_fil, amplitude, rho_cyl, media)[i]
            * mpmath.cos(n * psi)
        )

    return complex(series(0)), complex(series(1))


def reconstruction_mp(side, rho_fil, amplitude, rho_obs, psi, rho_cyl, media):
    """The field the densities radiate at (rho_obs, psi), plus the incident field on the source's side."""
    (k1, z1), (k2, z2) = (medium_mp(*m) for m in media)
    outside = rho_obs > rho_cyl

    def term(n):
        e, m = density_coefficients_mp(n, side, rho_fil, amplitude, rho_cyl, media)
        if outside:
            near, near_deriv = _pair(False, n, k1 * rho_cyl)
            t = -(mpmath.mpf(k1) * z1 / 4) * e * near - (k1 / mpmath.mpc(0, 4)) * m * near_deriv
            t *= _cylinder(True, n, k1 * rho_obs)
        else:
            near, near_deriv = _pair(True, n, k2 * rho_cyl)
            t = (mpmath.mpf(k2) * z2 / 4) * e * near + (k2 / mpmath.mpc(0, 4)) * m * near_deriv
            t *= _cylinder(False, n, k2 * rho_obs)
        return t * mpmath.cos(n * psi)

    value = 2 * mpmath.pi * rho_cyl * _converged_sum(term)
    if outside == (side == "external"):
        value += _incident_mp((k1, z1) if outside else (k2, z2), rho_fil, amplitude, rho_obs, psi, False)
    return complex(value)


def qsums_mp(m, n_points, r_cyl, r_in, r_out, side, rho_fil, phi_fil, media):
    """Mode m's column (d, b1, b2, b3, b4) of cylwave.discrete.q_sum_coefficients at 50 digits.

    Each sums its order-nu product over nu = qN + m, q in Z, until five
    rings in a row add less than 1e-30 of the sum.
    """
    (k1, _), (k2, _) = (medium_mp(*md) for md in media)
    if side == "external":
        source = (k1 * r_in, k1 * rho_fil, -1)
    else:
        source = (k2 * rho_fil, k2 * r_out, +1)
    rows = (  # J argument and derivative, H2 argument and derivative, sign, rotation
        (source[0], False, source[1], False, source[2], phi_fil),
        (k1 * r_in, False, k1 * r_cyl, False, 1, 0.0),
        (k1 * r_in, False, k1 * r_cyl, True, -1, 0.0),
        (k2 * r_cyl, False, k2 * r_out, False, 1, 0.0),
        (k2 * r_cyl, True, k2 * r_out, False, -1, 0.0),
    )
    out = []
    for xj, dj, xh, dh, sign, phi in rows:

        def term(nu):
            a = _pair(False, abs(nu), xj)[1 if dj else 0]
            b = _pair(True, abs(nu), xh)[1 if dh else 0]
            return a * b * mpmath.expj(-(nu * phi))

        total, q, quiet = term(m), 0, 0
        while quiet < 5:
            q += 1
            ring = term(m + q * n_points) + term(m - q * n_points)
            total += ring
            quiet = quiet + 1 if abs(ring) < mpmath.mpf(10) ** -30 * abs(total) else 0
        out.append(complex(sign * total))
    return tuple(out)


# -- the dipole addition series, float64 --------------------------------------


def addition_series_h0_d1(x1, x2, theta, n_max=60):
    """Partial sum of -sum_n J'_n(x1) H2_n(x2) e^{i n theta}, for x2 > x1.

    Equals the cosine-weighted H^(2)_1 kernel
    ((x1 - x2 cos theta)/d) H^(2)_1(d), d the two-point distance. theta is
    one angle or a 1-D array of them, as in specfun.addition_series_h0, with
    its stopping rule and warning.
    """
    if not np.inf > x2 > x1 > 0:
        raise ValueError("need x2 > x1 > 0, both finite")
    return specfun._addition_sum(theta, n_max, x1, x2, 1)


def addition_series_h0_d2(x1, x2, theta, n_max=60):
    """Partial sum of -sum_n J_n(x1) H2'_n(x2) e^{i n theta}, for x2 > x1.

    Equals ((x2 - x1 cos theta)/d) H^(2)_1(d), as addition_series_h0_d1
    sums its series.
    """
    if not np.inf > x2 > x1 > 0:
        raise ValueError("need x2 > x1 > 0, both finite")
    return specfun._addition_sum(theta, n_max, x1, x2, 2)
