"""Boundary densities of the circular problem, solved mode by mode.

The field scattered by a penetrable circular cylinder can be produced by a
pair of fictitious surface currents on the boundary: an electric one J_z
radiating in the exterior medium and a magnetic one M_phi accounting for the
jump of tangential H. Expanding both in a Fourier series in the boundary
angle turns the two matching conditions into an independent 2x2 algebraic
system per mode, whose solution is exact and free of any auxiliary-surface
placement. This module solves that system, sums the density series, and
reconstructs the fields radiated by the densities so they can be compared
with the direct series of :mod:`cylwave.exact`. Each series solves the
systems of a whole run of modes at once, from one specfun.order_factors
call, and is summed by exact.sum_series.
"""

from dataclasses import dataclass

import numpy as np

from . import specfun
from .exact import (
    Medium,
    check_boundary_radius,
    default_n_cap,
    incident_field,
    series_id_for,
    sum_series,
)

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


def _solve_modes(n, excitation, rho_cyl, medium1, medium2, j=None, h=None):
    """Density coefficients of the orders n, whether each order is usable, and the factors.

    Those of a source at angle 0; mode_solve applies the source rotation.
    One specfun.order_factors call reads the boundary and source factors
    and those named in j and h. An order is unusable where a Hankel factor
    overflows or the matching system is singular.
    """
    k1, z1 = medium1.k, medium1.Z
    k2, z2 = medium2.k, medium2.Z
    external = excitation.region == "external"
    j, h = dict(j or {}, cyl2=k2 * rho_cyl), dict(h or {}, cyl1=k1 * rho_cyl)
    (h if external else j)["source"] = (k1 if external else k2) * excitation.rho
    f = specfun.order_factors(np.abs(n), j, h)
    # 2x2 system matching E_z and H_phi of the two density radiations
    (a11, a12), (a21, a22) = f["cyl1"], f["cyl2"]
    a12, a22 = a12 / (1j * z1), a22 / (1j * z2)
    det = a11 * a22 - a12 * a21
    source = excitation.amplitude * f["source"][0] / (_TWO_PI * rho_cyl)
    usable = np.isfinite(a11) & np.isfinite(a12) & np.isfinite(source) & (np.abs(det) >= DET_FLOOR)
    b1, b2 = (-source, 0.0) if external else (0.0, source)
    electric = (b1 * a22 - a12 * b2) / det
    magnetic = (a11 * b2 - b1 * a21) / det
    return (electric, magnetic), usable, f


def mode_solve(n, excitation, rho_cyl, medium1=Medium(), medium2=Medium()):
    """Density coefficients of mode n for a line source on either side.

    The exterior radiation of J_z and M_phi matches the source's field on a
    circle inside the boundary, the interior radiation matches on a circle
    outside; both auxiliary radii cancel identically, leaving a system on
    the boundary alone. Source rotation enters as exp(-i n phi_fil). n is
    one mode (complexes come back) or an array of modes (arrays come back);
    raises ArithmeticError where a Hankel factor overflows or the system is
    singular.
    """
    check_boundary_radius(rho_cyl)
    n = np.asarray(n, dtype=int)
    with np.errstate(all="ignore"):
        (electric, magnetic), usable, _ = _solve_modes(n, excitation, rho_cyl, medium1, medium2)
    if not usable.all():
        raise ArithmeticError("matching system unusable at mode n=%d" % n.flat[np.argmin(usable)])
    rot = np.exp(-1j * n * excitation.phi)
    electric, magnetic = electric * rot, magnetic * rot
    if n.ndim:
        return DensityCoefficients(n, electric, magnetic)
    return DensityCoefficients(int(n), complex(electric), complex(magnetic))


def _require_converged(what, cap, converged, warning):
    """Raise ArithmeticError naming the first unconverged angle's reason, if any."""
    if not converged.all():
        first = warning[int(np.argmin(converged))]
        raise ArithmeticError(
            "%s not converged within n_max=%d%s" % (what, cap, (": " + first) if first else "")
        )


def density_series(excitation, phi, rho_cyl, medium1=Medium(), medium2=Medium(), n_max=None):
    """Both boundary densities at angle phi: the pair (J_z, M_phi).

    phi is one angle or an array of angles; an array gives a pair of arrays
    of its shape.
    The coefficients fall by exact.series_ratio of the region-1 series on
    the boundary (rho_cyl / rho_fil outside, rho_fil / rho_cyl inside), so
    the series converges for every source strictly off the boundary; the
    default cap gives that ratio the orders it needs.
    """
    check_boundary_radius(rho_cyl)
    cap = n_max if n_max is not None else default_n_cap(
        series_id_for(excitation, 1), rho_cyl, rho_cyl, excitation, medium1, medium2
    )
    psi = np.ravel(np.asarray(phi, dtype=float) - excitation.phi)

    # each run of modes is solved once, by the first series to reach it;
    # each series stops on its own, so the later one may solve further runs
    solved = {}

    def series(which):
        def run(n):
            if n[0] not in solved:
                coefficients, usable, _ = _solve_modes(n, excitation, rho_cyl, medium1, medium2)
                solved[n[0]] = coefficients, usable
            coefficients, usable = solved[n[0]]
            return coefficients[which], usable

        return run

    j_z, _, _, ok_j, warn_j = sum_series(series(0), psi, cap)
    m_phi, _, _, ok_m, warn_m = sum_series(series(1), psi, cap)
    _require_converged("density series", cap, np.concatenate((ok_j, ok_m)), warn_j + warn_m)
    shape = np.shape(phi)
    return j_z.reshape(shape)[()], m_phi.reshape(shape)[()]


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
    if not 0.0 < rho_obs < np.inf:
        raise ValueError("observation radius must be positive and finite")
    check_boundary_radius(rho_cyl)
    if abs(rho_obs - rho_cyl) < 1e-12 * rho_cyl:
        raise ValueError("observation point must lie off the boundary")
    shape = np.shape(phi_obs)
    outside = rho_obs > rho_cyl
    series_id = series_id_for(excitation, 1 if outside else 2)
    cap = n_max if n_max is not None else default_n_cap(
        series_id, rho_obs, rho_cyl, excitation, medium1, medium2
    )
    phis = np.ravel(np.asarray(phi_obs, dtype=float))
    k, z, sign = (medium1.k, medium1.Z, -1.0) if outside else (medium2.k, medium2.Z, 1.0)
    # J at k1 rc and H2 at k1 rho_obs outside; H2 at k2 rc and J at k2 rho_obs inside
    near, obs = {"near": k * rho_cyl}, {"obs": k * rho_obs}
    extra = {"j": near, "h": obs} if outside else {"j": obs, "h": near}

    def run(n):
        solved = _solve_modes(n, excitation, rho_cyl, medium1, medium2, **extra)
        (electric, magnetic), usable, f = solved
        (near, near_deriv), radial = f["near"], f["obs"][0]
        terms = (sign * k * z / 4.0) * electric * near + (sign * k / 4j) * magnetic * near_deriv
        usable &= np.isfinite(near) & np.isfinite(near_deriv) & np.isfinite(radial)
        return terms * radial, usable

    value, _, _, converged, warning = sum_series(run, phis - excitation.phi, cap)
    _require_converged("field reconstruction", cap, converged, warning)
    value = _TWO_PI * rho_cyl * value

    if outside == (excitation.region == "external"):
        value = value + incident_field(excitation, medium1 if outside else medium2, rho_obs, phis)
    return value.reshape(shape)[()]
