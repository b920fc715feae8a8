"""Exact series solution for a line source and a circular dielectric cylinder.

The circular transmission problem separates in polar coordinates, so the
total field in either region is a Fourier series in the observation angle
whose radial factors are Bessel/Hankel products divided by one common mode
denominator. Four series cover the four combinations of source side
(external / internal) and observation region (1 = outside, 2 = inside):

* ``ext_R1``: incident plus scattered field outside,
* ``ext_R2``: transmitted field inside,
* ``int_R1``: transmitted field outside,
* ``int_R2``: incident plus scattered field inside.

Each series keeps converging beyond its physical region up to an image
radius: the critical radius rho_cyl^2 / rho_fil bounds the analytic
continuation, and convergence_region() classifies any observation radius.
These series are the package's internal oracle; every solver is judged
against them.

Time convention exp(+i omega t); outgoing waves are H^(2).
"""

import cmath
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import specfun

SERIES_IDS = ("ext_R1", "ext_R2", "int_R1", "int_R2")


@dataclass(frozen=True)
class Medium:
    """Homogeneous region described by relative permittivity/permeability.

    Wavenumber and impedance are relative to the exterior default (1, 1):
    k = sqrt(eps_r mu_r), Z = sqrt(mu_r / eps_r).
    """

    eps_r: float = 1.0
    mu_r: float = 1.0

    def __post_init__(self):
        for name in ("eps_r", "mu_r"):
            if not 0.0 < getattr(self, name) < np.inf:
                raise ValueError("%s must be positive and finite" % name)

    @property
    def k(self):
        return float(np.sqrt(self.eps_r * self.mu_r))

    @property
    def Z(self):
        return float(np.sqrt(self.mu_r / self.eps_r))


@dataclass
class SeriesResult:
    """Value of a truncated series plus how trustworthy the truncation is."""

    value: complex
    n_used: int
    tail_estimate: float
    converged: bool
    warning: Optional[str] = None


def critical_radius(rho_cyl, rho_fil):
    """Image radius rho_cyl^2 / rho_fil bounding analytic continuation."""
    if rho_cyl <= 0.0 or rho_fil <= 0.0:
        raise ValueError("radii must be positive")
    return rho_cyl**2 / rho_fil


def convergence_region(series_id, rho_obs, rho_cyl, rho_fil):
    """Classify an observation radius for one of the four series.

    Returns 'converges' or 'diverges'. The boundary of each region is
    classified as 'diverges' (the series degrades to algebraic decay there
    at best, so the conservative call is the useful one).
    """
    if series_id not in SERIES_IDS:
        raise ValueError("unknown series id %r" % (series_id,))
    rho_cri = critical_radius(rho_cyl, rho_fil)
    rules = {
        "ext_R1": rho_obs > rho_cri,
        "ext_R2": rho_obs < rho_fil,
        "int_R1": rho_obs > rho_fil,
        "int_R2": rho_obs < rho_cri,
    }
    return "converges" if rules[series_id] else "diverges"


def incident_prefactor(medium):
    """Prefactor multiplying amplitude * H^(2)_0(k D) in the incident field.

    -k Z / 4 for an electric line source.
    """
    return -medium.k * medium.Z / 4.0


def incident_field(excitation, medium, rho_obs, phi_obs):
    """Field of the bare line source at polar observation points.

    phi_obs is one angle or an array of angles on the circle rho_obs; an
    array gives an array, with H0 evaluated in one call.
    """
    d = _source_distance(excitation, rho_obs, phi_obs)
    if np.any(d < 1e-12 * max(excitation.rho, rho_obs, 1.0)):
        raise ValueError("observation point coincides with the source filament")
    if excitation.amplitude == 0:
        return np.zeros(np.shape(d), dtype=complex)[()]
    pref = incident_prefactor(medium)
    return _times(pref * excitation.amplitude, specfun.hankel2(0, medium.k * d))


def _times(factor, values):
    """factor * values with scalar complex products, one value at a time.

    numpy's vectorised complex product may fuse multiply-adds and round
    differently from the scalar one; keeping the scalar product keeps ring
    and one-point results equal to the last bit.
    """
    if np.ndim(values) == 0:
        return factor * values
    products = [factor * complex(v) for v in np.ravel(values)]
    return np.array(products, dtype=complex).reshape(np.shape(values))


def _source_distance(excitation, rho_obs, phi_obs):
    psi = phi_obs - excitation.phi
    return np.sqrt(
        rho_obs**2 + excitation.rho**2 - 2.0 * rho_obs * excitation.rho * np.cos(psi)
    )


def _incident_radial_deriv(excitation, medium, rho_obs, phi_obs):
    """d/d rho_obs of the incident field (term-free, used for H_tan checks)."""
    d = _source_distance(excitation, rho_obs, phi_obs)
    psi = phi_obs - excitation.phi
    dd_drho = (rho_obs - excitation.rho * np.cos(psi)) / d
    pref = incident_prefactor(medium)
    k = medium.k
    h1 = -k * specfun.hankel2(1, k * d)
    return _times(pref * excitation.amplitude, h1) * dd_drho


def mode_denominator(n, rho_cyl, medium1, medium2, orders=None):
    """Z1 H2_n(k1 rc) J'_n(k2 rc) - Z2 J_n(k2 rc) H2'_n(k1 rc).

    Common to all four series; provably nonvanishing for real media. orders
    is the caller's specfun.OrderTable holding J at k2 rc and H2 at k1 rc;
    without one the call evaluates its own.
    """
    k1, z1 = medium1.k, medium1.Z
    k2, z2 = medium2.k, medium2.Z
    x1, x2 = k1 * rho_cyl, k2 * rho_cyl
    if orders is None:
        orders = specfun.OrderTable(j=(x2,), h=(x1,))
    val = z1 * orders.hankel2(n, x1) * orders.bessel_j_prime(
        n, x2
    ) - z2 * orders.bessel_j(n, x2) * orders.hankel2_prime(n, x1)
    if abs(val) < 1e-300:
        raise ArithmeticError("mode denominator underflow at n=%d" % n)
    return val


def _series_orders(series_id, rho_obs, rho_cyl, rho_fil, medium1, medium2):
    """The order table holding every factor the terms of one series read."""
    k1, k2 = medium1.k, medium2.k
    x1, x2 = k1 * rho_cyl, k2 * rho_cyl
    j, h = [x2], [x1]
    if series_id == "ext_R1":
        j.append(x1)
    elif series_id == "int_R2":
        h.append(x2)
    if series_id.endswith("R1"):
        h.append(k1 * rho_obs)
    else:
        j.append(k2 * rho_obs)
    if series_id.startswith("ext"):
        h.append(k1 * rho_fil)
    else:
        j.append(k2 * rho_fil)
    return specfun.OrderTable(j=j, h=h)


def _series_term(
    series_id, n, rho_obs, rho_cyl, rho_fil, medium1, medium2, deriv=False, orders=None
):
    """Radial part of the n-th series term (angle factor handled by caller).

    With deriv=True the observation-dependent factor is replaced by its
    radial derivative, so tangential-H checks stay term exact. orders is the
    series' table from _series_orders; without one the call evaluates its
    own.
    """
    k1, z1 = medium1.k, medium1.Z
    k2, z2 = medium2.k, medium2.Z
    if orders is None:
        orders = _series_orders(series_id, rho_obs, rho_cyl, rho_fil, medium1, medium2)
    delta = mode_denominator(n, rho_cyl, medium1, medium2, orders)
    jj, jp = orders.bessel_j, orders.bessel_j_prime
    hh, hp = orders.hankel2, orders.hankel2_prime
    x1, x2 = k1 * rho_cyl, k2 * rho_cyl

    # only the ratio depends on the series; p and q are boundary mismatches
    if series_id == "ext_R1":
        p = z1 * jp(n, x2) * jj(n, x1) - z2 * jj(n, x2) * jp(n, x1)
        ratio = p / delta
    elif series_id == "int_R2":
        q = z1 * hh(n, x1) * hp(n, x2) - z2 * hp(n, x1) * hh(n, x2)
        ratio = q / delta
    elif series_id in SERIES_IDS:
        ratio = 1j * z1 * z2 / delta
    else:
        raise ValueError("unknown series id %r" % (series_id,))
    # the observation factor depends on the region, the source factor on the side
    if series_id.endswith("R1"):
        obs = k1 * hp(n, k1 * rho_obs) if deriv else hh(n, k1 * rho_obs)
    else:
        obs = k2 * jp(n, k2 * rho_obs) if deriv else jj(n, k2 * rho_obs)
    source = hh(n, k1 * rho_fil) if series_id.startswith("ext") else jj(n, k2 * rho_fil)
    # apply the small ratio before the second growing Hankel factor, so
    # the product stays in float range as long as the term itself does
    return obs * ratio * source


def _series_prefactor(series_id, excitation, medium1, medium2, rho_cyl):
    amp = excitation.amplitude
    if series_id == "ext_R1":
        return medium1.k * medium1.Z * amp / 4.0
    if series_id == "int_R2":
        return medium2.k * medium2.Z * amp / 4.0
    return -amp / (2.0 * np.pi * rho_cyl)


def default_n_cap(excitation, rho_cyl, medium1, medium2, rho_obs=None):
    """Order cap of the series of one problem: 40 + ceil(3 k_max rho_max).

    k_max is the larger wavenumber and rho_max the largest of the boundary,
    filament and (if given) observation radii. The adaptive stopping rule
    ends a converging series well before it.
    """
    k_max = max(medium1.k, medium2.k)
    rho_max = max(rho_cyl, excitation.rho, rho_obs or 0.0)
    return 40 + int(np.ceil(3.0 * k_max * rho_max))


# Orders per run of sum_series: up to _SUM_BLOCK - 1 terms past the last
# stop are computed for nothing, numpy's overhead is paid once a run.
# `validate --only exact` took 0.0081, 0.0077 and 0.0077 s of CPU (median
# of 48, one BLAS thread) in runs of 8, 16 and 32 on a 2-core Xeon.
_SUM_BLOCK = 16


def sum_series(term, angles, n_cap):
    """specfun.sum_orders of the circular series, term(n) one order's term.

    Each term is scalar arithmetic, one order at a time. The sum stops at
    a relative tolerance of 1e-13, or where terms grow beyond 1e120 times
    it. An order n > 0 whose term raises ArithmeticError (an overflowing
    order, an indeterminate mode denominator) or is not finite (inf or
    inf * 0 in a product) stops it at order n - 1, with a warning.
    """

    def run(orders):
        terms = []
        for n in orders.tolist():
            try:
                t = term(n)
            except ArithmeticError:
                if not n:
                    raise
                return terms, "series truncated at n=%d by order overflow" % n
            if not cmath.isfinite(t):
                return terms, "series truncated at n=%d by floating-point range" % n
            terms.append(t)
        return terms, None

    return specfun.sum_orders(run, angles, n_cap, _SUM_BLOCK, 1e-13, grow=1e120)


def exact_ring(
    excitation,
    region,
    rho_obs,
    phis,
    rho_cyl,
    medium1=Medium(),
    medium2=Medium(),
    n_max=None,
    deriv=False,
):
    """Total field of the circular problem at every angle of phis on the circle rho_obs.

    phis is a 1-D array of angles (exact_field takes one angle), and region
    is 1 (outside the cylinder) or 2 (inside). The ring may lie
    anywhere the requested series converges, including the extended region
    beyond the physical one; outside that a divergence warning is attached
    to every result and the partial sums are returned as they are.

    Returns one SeriesResult per angle. The radial part of each order is
    evaluated once for the whole ring and every angle stops on its own
    rule, so each result equals exact_field at its angle to the last bit.

    With deriv=True the results are d/d rho_obs of the field, summed term
    by term (no numerical differencing). Tangential-H continuity checks need
    it: H_tan in region j is proportional to (1 / (i k_j Z_j)) dE/d rho on
    the circle.
    """
    series_id = series_id_for(excitation, region)
    if rho_obs <= 0.0:
        raise ValueError("observation radius must be positive")
    phis = np.asarray(phis, dtype=float)
    if phis.ndim != 1:
        raise ValueError("phis must be a 1-D array of angles")

    warning = None
    if convergence_region(series_id, rho_obs, rho_cyl, excitation.rho) == "diverges":
        warning = "observation radius outside the convergence region of " + series_id

    if excitation.amplitude == 0:
        return [SeriesResult(0.0 + 0.0j, 0, 0.0, True, warning) for _ in phis]

    cap = n_max if n_max is not None else default_n_cap(
        excitation, rho_cyl, medium1, medium2, rho_obs
    )
    pref = _series_prefactor(series_id, excitation, medium1, medium2, rho_cyl)
    orders = _series_orders(series_id, rho_obs, rho_cyl, excitation.rho, medium1, medium2)

    def term(n):
        return _series_term(
            series_id, n, rho_obs, rho_cyl, excitation.rho, medium1, medium2, deriv, orders
        )

    value, n_used, _, tail, converged, sum_warning = sum_series(term, phis - excitation.phi, cap)

    incident = np.zeros(phis.shape, dtype=complex)
    if series_id in ("ext_R1", "int_R2"):
        source = _incident_radial_deriv if deriv else incident_field
        medium = medium1 if series_id == "ext_R1" else medium2
        incident = source(excitation, medium, rho_obs, phis)

    return [
        SeriesResult(
            incident[i] + pref * complex(value[i]),
            int(n_used[i]),
            abs(pref) * float(tail[i]),
            bool(converged[i]),
            warning or sum_warning[i],
        )
        for i in range(phis.size)
    ]


def exact_field(
    excitation,
    region,
    rho_obs,
    phi_obs,
    rho_cyl,
    medium1=Medium(),
    medium2=Medium(),
    n_max=None,
):
    """exact_ring at the one angle phi_obs: a single SeriesResult."""
    return exact_ring(
        excitation, region, rho_obs, [phi_obs], rho_cyl, medium1, medium2, n_max
    )[0]


def predicted_term_form(series_id, n, rho_obs, rho_cyl, rho_fil):
    """Large-n reference form of the n-th radial term, up to a constant.

    ext_R1 carries the classical (2 / (pi n)) (rho_cri / rho_obs)^n shape;
    the other three decay like (ratio)^n / n with the ratio that defines
    their convergence region.
    """
    rho_cri = critical_radius(rho_cyl, rho_fil)
    n = abs(int(n))
    if n == 0:
        raise ValueError("reference form needs n >= 1")
    if series_id == "ext_R1":
        return (2.0 / (np.pi * n)) * (rho_cri / rho_obs) ** n
    if series_id == "ext_R2":
        return (rho_obs / rho_fil) ** n / n
    if series_id == "int_R1":
        return (rho_fil / rho_obs) ** n / n
    if series_id == "int_R2":
        return (rho_obs / rho_cri) ** n / n
    raise ValueError("unknown series id %r" % (series_id,))


def term_ratio_probe(
    series_id, n, rho_obs, rho_cyl, rho_fil, medium1=Medium(), medium2=Medium()
):
    """n-th radial term divided by its predicted large-n form.

    For generic media the ratio levels off to a geometry/impedance constant
    as n grows, which is the practical certificate that the convergence
    region classification uses the right geometric rate. When the two media
    share the same permeability (Z1 k1 = Z2 k2), the leading parts of the
    boundary-mismatch numerators of ext_R1 and int_R2 cancel and those two
    ratios keep decaying like 1/n^2; the geometric rate is unaffected.
    """
    t = _series_term(series_id, n, rho_obs, rho_cyl, rho_fil, medium1, medium2)
    return t / predicted_term_form(series_id, n, rho_obs, rho_cyl, rho_fil)


def series_id_for(excitation, region):
    """Series identifier for a source side and observation region."""
    if region not in (1, 2):
        raise ValueError("region must be 1 or 2")
    side = "ext" if excitation.region == "external" else "int"
    return side + "_R%d" % region
