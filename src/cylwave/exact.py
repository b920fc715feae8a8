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
continuation. series_ratio() gives the geometric ratio each series' terms
fall by, and convergence_region() classifies any observation radius by it.
These series are the package's internal oracle; every solver is judged
against them. Each run of orders is computed as one numpy expression from
specfun.order_factors and summed for a whole ring of angles by
specfun.sum_orders (see sum_series).

Time convention exp(+i omega t); outgoing waves are H^(2).
"""

import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from . import specfun
from .geometry import as_count

SERIES_IDS = ("ext_R1", "ext_R2", "int_R1", "int_R2")


@dataclass(frozen=True)
class Medium:
    """Homogeneous region described by relative permittivity/permeability.

    Wavenumber and impedance are relative to the exterior default (1, 1):
    k = sqrt(eps_r mu_r), Z = sqrt(mu_r / eps_r). Each field must be one
    real number, not a bool, a string or an array, positive and finite.
    """

    eps_r: float = 1.0
    mu_r: float = 1.0

    def __post_init__(self):
        for name in ("eps_r", "mu_r"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Real) or isinstance(value, bool):
                raise ValueError("%s must be one real number, got %r" % (name, value))
            if not 0.0 < value < np.inf:
                raise ValueError("%s must be positive and finite" % name)
        # the incident field and the layer operators read H_n(k r) unchecked
        # once r is checked, so k must be positive and finite itself
        if not (0.0 < self.eps_r * self.mu_r < np.inf and 0.0 < self.mu_r / self.eps_r < np.inf):
            raise ValueError("eps_r and mu_r must give a positive, finite k and Z")

    # computed on first use and kept: every kernel and series term reads them
    @cached_property
    def k(self):
        return float(np.sqrt(self.eps_r * self.mu_r))

    @cached_property
    def Z(self):
        return float(np.sqrt(self.mu_r / self.eps_r))


@dataclass(frozen=True)
class SeriesResult:
    """Value of a truncated series plus how trustworthy the truncation is.

    At one angle (exact_field) each field is a Python scalar. On a ring
    (exact_ring) value, n_used, tail_estimate and converged are arrays over
    its angles and warning is a tuple with one entry per angle.
    """

    value: complex
    n_used: int
    tail_estimate: float
    converged: bool
    warning: Optional[str] = None


def critical_radius(rho_cyl, rho_fil):
    """Image radius rho_cyl^2 / rho_fil bounding analytic continuation."""
    if not (0.0 < rho_cyl < np.inf and 0.0 < rho_fil < np.inf):
        raise ValueError("radii must be positive and finite")
    return rho_cyl**2 / rho_fil


def series_ratio(series_id, rho_obs, rho_cyl, rho_fil):
    """Geometric ratio q of one of the four series at the radius rho_obs.

    The terms fall like q^n / n: q is rho_cri / rho_obs for ext_R1,
    rho_obs / rho_fil for ext_R2, rho_fil / rho_obs for int_R1 and
    rho_obs / rho_cri for int_R2, with rho_cri the critical radius. The
    series converges where q < 1.
    """
    if series_id not in SERIES_IDS:
        raise ValueError("unknown series id %r" % (series_id,))
    if not 0.0 < rho_obs < np.inf:
        raise ValueError("observation radius must be positive and finite")
    rho_cri = critical_radius(rho_cyl, rho_fil)
    return {
        "ext_R1": rho_cri / rho_obs,
        "ext_R2": rho_obs / rho_fil,
        "int_R1": rho_fil / rho_obs,
        "int_R2": rho_obs / rho_cri,
    }[series_id]


def convergence_region(series_id, rho_obs, rho_cyl, rho_fil):
    """Classify an observation radius for one of the four series.

    'converges' where series_ratio is below 1, else 'diverges': on the limit
    itself the series degrades to algebraic decay at best, so the
    conservative call is the useful one.
    """
    return "converges" if series_ratio(series_id, rho_obs, rho_cyl, rho_fil) < 1.0 else "diverges"


def incident_prefactor(medium):
    """Prefactor multiplying amplitude * H^(2)_0(k D) in the incident field.

    -k Z / 4 for an electric line source.
    """
    return -medium.k * medium.Z / 4.0


def incident_field(excitation, medium, rho_obs, phi_obs):
    """Field of the bare line source at polar observation points.

    phi_obs is one float angle, which gives a complex, or an array of
    angles on the circle rho_obs, which gives an array with H0 evaluated in
    one call. Either way each point has the bits of its own one-angle call.
    """
    d = _source_distance(excitation, rho_obs, phi_obs)
    if excitation.amplitude == 0:
        return np.zeros(np.shape(d), dtype=complex)[()]
    weight = incident_prefactor(medium) * excitation.amplitude
    # a ufunc call for one point too: two Python complexes would multiply
    # with other roundings than numpy's complex loop
    return np.multiply(weight, specfun.hankel2_low(0, medium.k * d))


# Past this radius a square in the law of cosines could overflow, so
# _source_distance takes the radii in units of the larger one
_HUGE_RADIUS = 1e150


def check_observation_radius(rho_obs):
    """Raise ValueError naming rho_obs unless it is one number: a float, or 0-d and no bool."""
    if not isinstance(rho_obs, float):
        value = np.asarray(rho_obs)
        if value.ndim or value.dtype == bool:
            raise ValueError("observation radius must be one number, got %r" % (rho_obs,))


def _angles(phi_obs):
    """One float angle as it is, with no numpy conversion; else a float array."""
    return phi_obs if isinstance(phi_obs, float) else np.asarray(phi_obs, dtype=float)


def _source_distance(excitation, rho_obs, phi_obs):
    """Distance from the filament to the points at radius rho_obs and angle
    phi_obs: a float for one float angle, an array for an array or a list
    of them, which _angles reads as a float array.

    Refuses an empty array of angles, a non-finite radius, angle or
    distance and a point that coincides with the filament: H0 and H1 read
    it unchecked. Where the law of cosines gives d below 1e-3 max(rho_f,
    rho, 1), its terms cancel (and may fall below 0); d^2 is then
    (rho - rho_f)^2 + 4 rho rho_f sin^2(psi / 2). Past _HUGE_RADIUS, where
    a square would overflow, the radii are taken in units of the larger
    one; below it they enter as they are."""
    check_observation_radius(rho_obs)
    rho_f, psi = excitation.rho, _angles(phi_obs) - excitation.phi
    # before the law of cosines, whose inf - inf or cos(inf) would warn first
    if not math.isfinite(rho_obs):
        raise ValueError("observation radius must be finite")
    if not (isinstance(psi, float) or psi.size):
        raise ValueError("phi_obs must be one angle or a non-empty array of angles")
    if not (math.isfinite(psi) if isinstance(psi, float) else np.isfinite(psi).all()):
        raise ValueError("observation angles must be finite")
    scale = max(rho_f, rho_obs, 1.0)
    unit = scale if scale > _HUGE_RADIUS else 1.0
    rho, rho_f = rho_obs / unit, rho_f / unit
    d = np.sqrt(np.maximum(rho**2 + rho_f**2 - 2.0 * rho * rho_f * np.cos(psi), 0.0))
    if unit != 1.0:
        # up to 2 unit, which overflows to inf for radii near the float limit
        with np.errstate(over="ignore"):
            d = unit * d
    # d >= 0, so its range holds both checks: an overflow reaches the largest
    # distance, and a coincident point the smallest; one point is both ends
    one = d.size == 1
    if not (d.item() if one else d.max()) < np.inf:
        raise ValueError("distance from the source filament must be finite")
    lo = d.item() if one else d.min()
    if lo < 1e-3 * scale:
        half = unit * np.sqrt((rho - rho_f) ** 2 + 4.0 * rho * rho_f * np.sin(0.5 * psi) ** 2)
        d = np.where(d >= 1e-3 * scale, d, half)[()]
        lo = d.min()
    if lo < 1e-12 * scale:
        raise ValueError("observation point coincides with the source filament")
    return d


def refuse_filament_points(excitation, rho_obs, phi_obs):
    """Raise ValueError, as every incident and series value does, where an
    observation point on the circle rho_obs coincides with the filament."""
    _source_distance(excitation, rho_obs, phi_obs)


def _incident_radial_deriv(excitation, medium, rho_obs, phi_obs):
    """d/d rho_obs of the incident field (term-free, used for H_tan checks)."""
    phi_obs = _angles(phi_obs)
    d = _source_distance(excitation, rho_obs, phi_obs)
    dd_drho = (rho_obs - excitation.rho * np.cos(phi_obs - excitation.phi)) / d
    h1 = -medium.k * specfun.hankel2_low(1, medium.k * d)
    return incident_prefactor(medium) * excitation.amplitude * h1 * dd_drho


def _denominator(medium1, medium2, j, jp, h, hp):
    """The mode denominator from J, J' at k2 rc and H2, H2' at k1 rc, and
    whether each order is usable: Hankel factors finite, no underflow."""
    delta = medium1.Z * h * jp - medium2.Z * j * hp
    return delta, np.isfinite(h) & np.isfinite(hp) & (np.abs(delta) >= 1e-300)


def _usable_only(n, values, usable, what):
    """values (a complex for one order), or ArithmeticError at the first unusable order."""
    if not np.all(usable):
        first = np.ravel(n)[np.argmin(np.ravel(usable))]
        raise ArithmeticError("%s unusable at n=%d (overflow or underflow)" % (what, first))
    return values if np.ndim(n) else complex(values)


def mode_denominator(n, rho_cyl, medium1, medium2):
    """Z1 H2_n(k1 rc) J'_n(k2 rc) - Z2 J_n(k2 rc) H2'_n(k1 rc).

    Common to all four series; provably nonvanishing for real media. n is
    one order (a complex comes back) or an array of orders (an array comes
    back); raises ArithmeticError where a Hankel factor overflows or the
    value underflows.
    """
    check_boundary_radius(rho_cyl)
    f = specfun.order_factors(n, {"j": medium2.k * rho_cyl}, {"h": medium1.k * rho_cyl})
    with np.errstate(all="ignore"):
        delta, usable = _denominator(medium1, medium2, *f["j"], *f["h"])
    return _usable_only(n, delta, usable, "mode denominator")


def _series_run(series_id, n, rho_obs, rho_cyl, rho_fil, medium1, medium2, deriv=False):
    """Radial parts of the terms of the orders n, and the two masks of specfun.sum_orders.

    n is one order or an array of them, read in one specfun.order_factors
    call. With deriv=True the observation-dependent factor is replaced by
    its radial derivative, so tangential-H checks stay term exact. An order
    is unusable where a Hankel factor it reads overflows or its mode
    denominator underflows, and out of range where the quotient of the
    mode numerator and denominator is 0 or subnormal. Returns (terms,
    usable, in_range).
    """
    if series_id not in SERIES_IDS:
        raise ValueError("unknown series id %r" % (series_id,))
    k1, z1 = medium1.k, medium1.Z
    k2, z2 = medium2.k, medium2.Z
    outside, external = series_id.endswith("R1"), series_id.startswith("ext")
    j, h = {"j2": k2 * rho_cyl}, {"h1": k1 * rho_cyl}
    if series_id == "ext_R1":
        j["j1"] = k1 * rho_cyl
    elif series_id == "int_R2":
        h["h2"] = k2 * rho_cyl
    # the observation factor depends on the region, the source factor on the side
    (h if outside else j)["obs"] = (k1 if outside else k2) * rho_obs
    (h if external else j)["source"] = (k1 if external else k2) * rho_fil
    f = specfun.order_factors(n, j, h)
    (j2, jp2), (h1, hp1) = f["j2"], f["h1"]
    delta, usable = _denominator(medium1, medium2, j2, jp2, h1, hp1)

    # only the ratio depends on the series; p - q is the boundary mismatch
    if series_id == "ext_R1":
        j1, jp1 = f["j1"]
        p, q = z1 * jp2 * j1, z2 * j2 * jp1
    elif series_id == "int_R2":
        h2, hp2 = f["h2"]
        p, q = z1 * h1 * hp2, z2 * hp1 * h2
        usable &= np.isfinite(h2) & np.isfinite(hp2)
    else:
        p, q = 1j * z1 * z2, 0.0
    ratio = (p - q) / delta
    # equal media cancel p and q exactly: a true zero, unlike a ratio that
    # fell below the normal range and lost its digits
    tiny = np.finfo(float).tiny
    in_range = (np.abs(ratio) >= tiny) | ((p == q) & (np.abs(p) >= tiny))
    obs = (k1 if outside else k2) * f["obs"][1] if deriv else f["obs"][0]
    source = f["source"][0]
    usable &= np.isfinite(obs) & np.isfinite(source)
    # apply the small ratio before the second growing Hankel factor, so the
    # product stays below the overflow threshold as long as the term itself
    # does
    return obs * ratio * source, usable, in_range


def _series_term(series_id, n, rho_obs, rho_cyl, rho_fil, medium1, medium2, deriv=False):
    """_series_run's terms: a complex for one order, ArithmeticError where unusable."""
    args = (rho_obs, rho_cyl, rho_fil, medium1, medium2, deriv)
    with np.errstate(all="ignore"):
        terms, usable, in_range = _series_run(series_id, n, *args)
    return _usable_only(n, terms, usable & in_range, "series term")


def _series_prefactor(series_id, excitation, medium1, medium2, rho_cyl):
    amp = excitation.amplitude
    if series_id == "ext_R1":
        return medium1.k * medium1.Z * amp / 4.0
    if series_id == "int_R2":
        return medium2.k * medium2.Z * amp / 4.0
    return -amp / (2.0 * np.pi * rho_cyl)


def default_n_cap(series_id, rho_obs, rho_cyl, excitation, medium1, medium2):
    """Order cap of one series at rho_obs: 40 + ceil(3 k_max rho_max) + ceil(ln(tol) / ln q).

    k_max is the larger wavenumber and rho_max the largest of the boundary,
    filament and observation radii. The last part is the number of orders
    the series' geometric ratio q (series_ratio) needs to fall to the
    stopping tolerance tol of sum_series; none where q is not below 1. The
    adaptive stopping rule ends a converging series well before the cap.
    3 k_max rho_max is held to 1e300, so that a radius near the float
    limit still gives a whole number.
    """
    k_max = max(medium1.k, medium2.k)
    rho_max = max(rho_cyl, excitation.rho, rho_obs)
    q = series_ratio(series_id, rho_obs, rho_cyl, excitation.rho)
    geometric = int(np.ceil(np.log(_SUM_TOL) / np.log(q))) if 0.0 < q < 1.0 else 0
    # Python floats: an overflow past the float range is a silent inf
    return 40 + int(np.ceil(min(3.0 * k_max * float(rho_max), 1e300))) + geometric


# Orders per run of sum_series: up to _SUM_BLOCK - 1 terms past the last
# stop are computed for nothing, numpy's overhead is paid once a run.
# `validate --only exact` took 0.0081, 0.0077 and 0.0077 s of CPU (median
# of 48, one BLAS thread) in runs of 8, 16 and 32 on a 2-core Xeon.
_SUM_BLOCK = 16
# the relative tolerance at which sum_series stops, and default_n_cap aims
_SUM_TOL = 1e-13


def sum_series(run, angles, n_cap):
    """specfun.sum_orders of a circular series, run(n) the terms of a run of orders.

    run returns the terms of the orders n, whether each order is usable and,
    optionally, whether it is in range (see specfun.sum_orders, which cuts
    the run). The sum stops at a relative tolerance of 1e-13, or where terms
    grow beyond 1e120 times it.
    """
    return specfun.sum_orders(run, angles, n_cap, _SUM_BLOCK, _SUM_TOL, grow=1e120)


def _tail_estimate(mags, order):
    """Geometric tail 2 |t_n| r / (1 - r) at each stop order n of sum_orders.

    r is the ratio to |t_0| at order 1, else to the floored 2 |t_(n-1)|,
    capped at 0.99; inf at order 0. Computed once per distinct order.
    """
    tails, values = {0: np.inf}, mags.tolist()
    for n in set(order.tolist()) - {0}:
        mag = 2.0 * values[n]
        prev = values[0] if n == 1 else max(2.0 * values[n - 1], 1e-300)
        ratio = min(mag / prev if prev > 0 else 1.0, 0.99)
        tails[n] = mag * ratio / (1.0 - ratio)
    return np.array([tails[n] for n in order.tolist()])


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
    to every angle and the partial sums are returned as they are.

    Returns one SeriesResult of arrays over phis. The radial part of each
    order is evaluated once for the whole ring and every angle stops on its
    own rule, so each entry equals exact_field at its angle to the last bit.
    A silent source's series is identically zero, and so is its tail.

    With deriv=True the values are d/d rho_obs of the field, summed term
    by term (no numerical differencing). Tangential-H continuity checks need
    it: H_tan in region j is proportional to (1 / (i k_j Z_j)) dE/d rho on
    the circle.
    """
    series_id = series_id_for(excitation, region)
    check_observation_radius(rho_obs)
    phis = np.asarray(phis, dtype=float)
    if phis.ndim != 1 or not phis.size:
        raise ValueError("phis must be a non-empty 1-D array of angles")

    warning = None
    if convergence_region(series_id, rho_obs, rho_cyl, excitation.rho) == "diverges":
        warning = "observation radius outside the convergence region of " + series_id

    cap = n_max if n_max is not None else default_n_cap(
        series_id, rho_obs, rho_cyl, excitation, medium1, medium2
    )
    pref = _series_prefactor(series_id, excitation, medium1, medium2, rho_cyl)

    def run(n):
        return _series_run(series_id, n, rho_obs, rho_cyl, excitation.rho, medium1, medium2, deriv)

    value, n_used, mags, converged, sum_warning = sum_series(run, phis - excitation.phi, cap)
    tail = abs(pref) * _tail_estimate(mags, n_used) if pref else np.zeros(phis.size)

    value = pref * value
    if series_id in ("ext_R1", "int_R2"):
        source = _incident_radial_deriv if deriv else incident_field
        medium = medium1 if series_id == "ext_R1" else medium2
        value = source(excitation, medium, rho_obs, phis) + value

    return SeriesResult(
        value, n_used, tail, converged, tuple(warning or entry for entry in sum_warning)
    )


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
    """exact_ring at the one angle phi_obs: a SeriesResult of Python scalars."""
    ring = exact_ring(excitation, region, rho_obs, [phi_obs], rho_cyl, medium1, medium2, n_max)
    return SeriesResult(
        complex(ring.value[0]),
        int(ring.n_used[0]),
        float(ring.tail_estimate[0]),
        bool(ring.converged[0]),
        ring.warning[0],
    )


def term_ratio_probe(
    series_id, n, rho_obs, rho_cyl, rho_fil, medium1=Medium(), medium2=Medium()
):
    """n-th radial term divided by its predicted large-n form.

    The form is (2 / (pi |n|)) q^|n| for ext_R1 and q^|n| / |n| for the
    other three, q the series_ratio. For generic media the ratio levels off
    to a geometry/impedance constant as n grows, which is the practical
    certificate that q is the right geometric rate. When the two media
    share the same permeability (Z1 k1 = Z2 k2), the leading parts of the
    boundary-mismatch numerators of ext_R1 and int_R2 cancel and those two
    ratios keep decaying like 1/n^2; the geometric rate is unaffected.
    n is read by geometry.as_count: ValueError unless a whole number.
    """
    n = as_count(n, "order")
    q = series_ratio(series_id, rho_obs, rho_cyl, rho_fil)
    m = abs(n)
    if m == 0:
        raise ValueError("reference form needs n >= 1")
    form = (2.0 / (np.pi * m)) * q**m if series_id == "ext_R1" else q**m / m
    return _series_term(series_id, n, rho_obs, rho_cyl, rho_fil, medium1, medium2) / form


def check_boundary_radius(rho_cyl):
    """Raise ValueError naming rho_cyl unless it is positive and finite."""
    if not 0.0 < rho_cyl < np.inf:
        raise ValueError("boundary radius rho_cyl must be positive and finite")


def check_region(region):
    """Raise ValueError unless region is the integer 1 or 2 (not a bool)."""
    integer = isinstance(region, (int, np.integer)) and not isinstance(region, bool)
    if not (integer and region in (1, 2)):
        raise ValueError("region must be 1 or 2")


def series_id_for(excitation, region):
    """Series identifier for a source side and observation region."""
    check_region(region)
    side = "ext" if excitation.region == "external" else "int"
    return side + "_R%d" % region
