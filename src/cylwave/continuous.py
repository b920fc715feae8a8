"""Boundary densities of the circular problem, solved mode by mode.

The field scattered by a penetrable circular cylinder can be produced by a
pair of fictitious surface currents on the boundary: an electric one J_z
radiating in the exterior medium and a magnetic one M_phi accounting for the
jump of tangential H. Expanding both in a Fourier series in the boundary
angle turns the two matching conditions into an independent 2x2 algebraic
system per mode, whose solution is exact and free of any auxiliary-surface
placement. This module solves that system, sums the density series, exposes
the large-order behavior of its coefficients, and reconstructs the fields
radiated by the densities so they can be compared with the direct series of
:mod:`cylwave.exact`.
"""

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from . import specfun
from .exact import Medium, default_n_cap, incident_field, sum_series

_TWO_PI = 2.0 * np.pi

# the per-mode determinant equals mode_denominator / (i Z1 Z2), which stays
# comfortably away from zero for every real medium pair; anything below this
# floor therefore signals a programming or input error, not physics
DET_FLOOR = 1e-14


@dataclass(frozen=True)
class DensityCoefficients:
    """Fourier coefficients of the two boundary densities at one mode."""

    n: int
    electric: complex  # coefficient of J_z (electric surface current)
    magnetic: complex  # coefficient of M_phi (magnetic surface current)


def _density_orders(excitation, rho_cyl, medium1, medium2, j=(), h=()):
    """An order table with every argument mode_solve reads, plus j and h."""
    j, h = (medium2.k * rho_cyl,) + tuple(j), (medium1.k * rho_cyl,) + tuple(h)
    if excitation.region == "external":
        h += (medium1.k * excitation.rho,)
    else:
        j += (medium2.k * excitation.rho,)
    return specfun.OrderTable(j=j, h=h)


def _matching_matrix(n, rho_cyl, medium1, medium2, orders):
    """2x2 system matching E_z and H_phi of the two density radiations."""
    k1, z1 = medium1.k, medium1.Z
    k2, z2 = medium2.k, medium2.Z
    return (
        orders.hankel2(n, k1 * rho_cyl),
        orders.hankel2_prime(n, k1 * rho_cyl) / (1j * z1),
        orders.bessel_j(n, k2 * rho_cyl),
        orders.bessel_j_prime(n, k2 * rho_cyl) / (1j * z2),
    )


def mode_solve(n, excitation, rho_cyl, medium1=Medium(), medium2=Medium(), orders=None):
    """Density coefficients of mode n for a line source on either side.

    The exterior radiation of J_z and M_phi matches the source's field on a
    circle inside the boundary, the interior radiation matches on a circle
    outside; both auxiliary radii cancel identically, leaving a system on
    the boundary alone. Source rotation enters as exp(-i n phi_fil). orders
    is the caller's table from _density_orders; without one the call
    evaluates its own.
    """
    n = int(n)
    m = abs(n)
    if orders is None:
        orders = _density_orders(excitation, rho_cyl, medium1, medium2)
    a11, a12, a21, a22 = _matching_matrix(m, rho_cyl, medium1, medium2, orders)
    det = a11 * a22 - a12 * a21
    if abs(det) < DET_FLOOR:
        raise ArithmeticError("matching system singular at mode n=%d" % n)

    amp = excitation.amplitude
    if excitation.region == "external":
        b1 = -amp * orders.hankel2(m, medium1.k * excitation.rho) / (_TWO_PI * rho_cyl)
        b2 = 0.0
    else:
        b1 = 0.0
        b2 = amp * orders.bessel_j(m, medium2.k * excitation.rho) / (_TWO_PI * rho_cyl)

    electric = (b1 * a22 - a12 * b2) / det
    magnetic = (a11 * b2 - b1 * a21) / det
    rot = np.exp(-1j * n * excitation.phi)
    return DensityCoefficients(n, electric * rot, magnetic * rot)


def density_series(excitation, phi, rho_cyl, medium1=Medium(), medium2=Medium(), n_max=None):
    """Both boundary densities at angle phi: the pair (J_z, M_phi).

    phi is one angle or an array of angles; an array gives a pair of arrays
    of its shape.
    The coefficients decay geometrically like (rho_fil / rho_cyl)^(-|n|)
    (or its reciprocal for an interior source), so the series converges for
    every source position strictly off the boundary.
    """
    base = replace(excitation, phi=0.0)
    cap = n_max if n_max is not None else default_n_cap(excitation, rho_cyl, medium1, medium2)
    psi = np.ravel(np.asarray(phi, dtype=float) - excitation.phi)
    orders = _density_orders(base, rho_cyl, medium1, medium2)

    # both series read the same per-mode solve; each still stops on its own
    @lru_cache(maxsize=None)
    def coefficients(n):
        return mode_solve(n, base, rho_cyl, medium1, medium2, orders)

    j_z, _, _, _, ok_j, _ = sum_series(lambda n: coefficients(n).electric, psi, cap)
    m_phi, _, _, _, ok_m, _ = sum_series(lambda n: coefficients(n).magnetic, psi, cap)
    if not (ok_j.all() and ok_m.all()):
        raise ArithmeticError(
            "density series not converged within n_max=%d "
            "(source too close to the boundary?)" % cap
        )
    shape = np.shape(phi)
    return j_z.reshape(shape)[()], m_phi.reshape(shape)[()]


def density_term_asymptotics(which, n, excitation, rho_cyl, medium1=Medium(), medium2=Medium()):
    """Predicted n-th density coefficient in the large-order regime.

    Both families decay geometrically at the rate set by the source distance;
    the magnetic coefficients carry one extra power of 1/|n|, so the magnetic
    density is the smoother of the two.
    """
    if which not in ("J", "M"):
        raise ValueError("which must be 'J' (electric) or 'M' (magnetic)")
    n = abs(int(n))
    if n == 0:
        raise ValueError("asymptotic form needs n >= 1")
    k1, z1 = medium1.k, medium1.Z
    k2, z2 = medium2.k, medium2.Z
    amp = excitation.amplitude
    front = amp / (_TWO_PI * rho_cyl)
    if excitation.region == "external":
        decay = (rho_cyl / excitation.rho) ** n
        if which == "J":
            return -front * decay * z1 / (z1 + z2 * k2 / k1)
        return front * decay * 1j * z1 * z2 * rho_cyl / (n * (z1 / k2 + z2 / k1))
    decay = (excitation.rho / rho_cyl) ** n
    if which == "J":
        return front * decay * z2 / (z1 * k1 / k2 + z2)
    return amp * 1j * z1 * z2 * decay / (_TWO_PI * n * (z1 / k2 + z2 / k1))


def reconstruct_fields_from_densities(
    excitation,
    rho_obs,
    phi_obs,
    rho_cyl,
    medium1=Medium(),
    medium2=Medium(),
    n_max=None,
):
    """Field radiated by the boundary densities, plus the incident part.

    phi_obs is one angle or an array of angles on the circle rho_obs; an
    array gives an array of its shape, with each mode solved once for all
    of them.

    Outside the boundary the densities radiate with the exterior wavenumber,
    inside with the interior one (with reversed sign of both densities); the
    incident field is added on the side that physically contains the source.
    Mode by mode, the quadrature of the two convolution kernels against the
    density series collapses to products of cylinder functions, so the
    reconstruction here is exact up to truncation and provides an
    independent route to the same fields as :func:`cylwave.exact.exact_field`.
    """
    if rho_obs <= 0.0:
        raise ValueError("observation radius must be positive")
    if abs(rho_obs - rho_cyl) < 1e-12 * rho_cyl:
        raise ValueError("observation point must lie off the boundary")
    shape = np.shape(phi_obs)
    if excitation.amplitude == 0:
        return np.zeros(shape, dtype=complex)[()]

    base = replace(excitation, phi=0.0)
    cap = n_max if n_max is not None else default_n_cap(
        excitation, rho_cyl, medium1, medium2, rho_obs
    )
    phis = np.ravel(np.asarray(phi_obs, dtype=float))
    k1, z1 = medium1.k, medium1.Z
    k2, z2 = medium2.k, medium2.Z
    outside = rho_obs > rho_cyl
    if outside:
        orders = _density_orders(base, rho_cyl, medium1, medium2, (k1 * rho_cyl,), (k1 * rho_obs,))
    else:
        orders = _density_orders(base, rho_cyl, medium1, medium2, (k2 * rho_obs,), (k2 * rho_cyl,))

    def term(n):
        coeff = mode_solve(n, base, rho_cyl, medium1, medium2, orders)
        if outside:
            radial = orders.hankel2(n, k1 * rho_obs)
            return (
                -(k1 * z1 / 4.0) * coeff.electric * orders.bessel_j(n, k1 * rho_cyl)
                - (k1 / 4j) * coeff.magnetic * orders.bessel_j_prime(n, k1 * rho_cyl)
            ) * radial
        radial = orders.bessel_j(n, k2 * rho_obs)
        return (
            (k2 * z2 / 4.0) * coeff.electric * orders.hankel2(n, k2 * rho_cyl)
            + (k2 / 4j) * coeff.magnetic * orders.hankel2_prime(n, k2 * rho_cyl)
        ) * radial

    value, _, _, _, converged, warning = sum_series(term, phis - excitation.phi, cap)
    if not converged.all():
        first = warning[int(np.argmin(converged))]
        raise ArithmeticError(
            "field reconstruction not converged within n_max=%d%s"
            % (cap, (": " + first) if first else "")
        )
    value = _TWO_PI * rho_cyl * value

    if outside == (excitation.region == "external"):
        value = value + incident_field(excitation, medium1 if outside else medium2, rho_obs, phis)
    return value.reshape(shape)[()]
