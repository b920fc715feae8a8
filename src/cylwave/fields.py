"""Field evaluation from solved systems, and boundary-continuity residuals.

A solved direct system radiates its boundary currents with the region's own
wavenumber and impedance (electric currents through H^(2)_0, magnetic ones
through the normal-derivative kernel); a solved source system radiates its
displaced line sources. On concentric circles the N radiating points of a
region sit equispaced on one circle, and Graf's addition theorem turns
their kernel sum into a sum over the solution's Fourier modes whose terms
fall geometrically; a point takes that sum wherever a few dozen orders
reach roundoff (_mode_coefficients), and the sum of N kernels elsewhere.
The incident field joins on whichever side the filament lives. Residuals
of the two transmission conditions, sampled between collocation angles,
stand in for an exact reference on shapes where no separable solution
exists.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import geometry, specfun
from .exact import check_observation_radius, check_region, incident_field, incident_prefactor
from .discrete import kernels

_TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class FieldSample:
    """Total electric field at one polar observation point, or on a ring.

    For a ring, phi and e_z are arrays over its angles. region 1 is the
    exterior of the boundary, region 2 the interior; provenance names the
    route whose solution produced the value ('nfm' or 'mas').
    """

    rho: float
    phi: float
    region: int
    e_z: complex
    provenance: str


def _source_stacks(solution, region):
    """Radiating points, their normals (direct route only) and medium for one region."""
    system = solution.system
    medium = system.medium1 if region == 1 else system.medium2
    nodes = system.nodes
    if system.method == "nfm":
        return medium, nodes.boundary, nodes.normals
    return medium, nodes.inner if region == 1 else nodes.outer, None


def _mode_coefficients(solution, rho, region):
    """_modes_at(solution, rho, region) on a circulant system, else None.

    The result is kept per region for the last radius asked
    (solution.ring_modes holds (rho, result)), so one-angle calls around a
    ring form the coefficients once, as a ring's own call does. The same
    inputs give the same bits either way.
    """
    if not solution.system.circulant:
        return None
    kept = solution.ring_modes.get(region)
    if kept is None or kept[0] != rho:
        kept = rho, _modes_at(solution, rho, region)
        solution.ring_modes[region] = kept
    return kept[1]


def _modes_at(solution, rho, region):
    """(i n, c_n), n = -m..m, with sum_n c_n e^(i n phi) the field radiated into region at rho.

    Graf's addition theorem on concentric circles: N equispaced sources of
    amplitudes a_l on the circle of radius s radiate sum_n w_n e^(i n phi)
    A_(n mod N), with A = DFT(a) (solution.spectra) and w_n = J_n(k min)
    H2_n(k max) for the monopole kernel H0, min and max of (rho, s). The
    direct route's dipole kernel takes -J'_n(k s) H2_n(k rho) outside and
    -J_n(k rho) H2'_n(k s) inside; specfun's addition series hold the same
    identities. The system must be circulant. None (the caller sums the
    kernels) unless 0 < k min < k max and the orders up to m
    (specfun.graf_order) are at most (N - 1) / 2. specfun.graf_products
    forms every w_n, however far H2_n(k max) alone leaves the float range.
    """
    system = solution.system
    medium, pts, _ = _source_stacks(solution, region)
    k, z = medium.k, medium.Z
    s = float(pts[0, 0])  # node 0 sits at angle 0: its x is the radius
    # region 1 lies outside its radiating circle and region 2 inside it
    outside = region == 1
    lo, hi = (k * s, k * rho) if outside else (k * rho, k * s)
    if not 0.0 < lo < hi:  # the origin, or a point on the circle
        return None
    nfm = system.method == "nfm"
    cap = (solution.n_points - 1) // 2
    m = specfun.graf_order(lo, hi, (lo if outside else hi) if nfm else 0.0, cap)
    if m is None:
        return None
    # w_n, n = 0..m, each row scaled by its amplitudes' weight: a real or
    # an imaginary weight rounds each part of w_n once, in either order
    if not nfm:
        w = specfun.graf_products(lo, hi, m, (0,))
        w *= -(k * z / 4.0)
        rows = slice(region - 1, region)
    else:
        # the dipole reads -J'_n on the radiating circle outside, -H2'_n inside
        sign = 1.0 if region == 1 else -1.0
        w = specfun.graf_products(lo, hi, m, (0, 1 if outside else 2))
        w *= np.array([[sign * -(k * z / 4.0)], [-sign * (k / 4j)]])
        rows = slice(0, 2)
    # orders -m..m: w_n is even in n, DFT_n is read at n mod N
    spectra = solution.spectra[rows]
    c = np.concatenate((w[:, :0:-1] * spectra[:, -m:], w * spectra[:, : m + 1]), axis=1)
    return 1j * np.arange(-m, m + 1), c[0] + c[1] if nfm else c[0]


def _mode_sum(i_orders, c, phi):
    """sum_n c_n e^(i n phi) from i n and c_n: one angle's value of a mode sum."""
    return np.exp(i_orders * math.remainder(phi, _TWO_PI)) @ c


def _scattered_field(solution, xy, region):
    """Field radiated into one region at the observation points xy, shape (P, 2)."""
    medium, pts, nrm = _source_stacks(solution, region)
    k, z = medium.k, medium.Z
    mono, dip = kernels(k, xy, pts, nrm)
    # row by row, not kernel @ amps: each point then sums in the same order
    # as a one-point call, so a ring equals its points to the last bit
    if solution.system.method == "mas":
        amps = solution.electric if region == 1 else solution.magnetic
        return -(k * z / 4.0) * np.array([row @ amps for row in mono])
    electric_part = np.array([row @ solution.electric for row in mono])
    magnetic_part = np.array([row @ solution.magnetic for row in dip])
    if region == 1:
        return -(k * z / 4.0) * electric_part + (k / 4j) * magnetic_part
    return +(k * z / 4.0) * electric_part - (k / 4j) * magnetic_part


def _incident_here(excitation, region):
    return (excitation.region == "external") == (region == 1)


def ring_region(curve, rho_obs, phis, region):
    """The one region every point of the ring lies in; region is checked if given.

    phis is one float angle or an array of them, and region is None, to
    deduce it, or the integer 1 or 2 (not a bool).
    """
    deduced = region is None
    if not deduced:
        check_region(region)
    if curve.kind == "circle":  # one radius at every angle: one comparison decides
        first = every = some = rho_obs < curve.params["radius"]
    else:
        inside = np.atleast_1d(curve.contains(rho_obs, phis))
        first, every, some = inside[0], inside.all(), inside.any()
    region = (2 if first else 1) if deduced else int(region)
    if every if region == 2 else not some:  # every point in region
        return region
    if deduced:
        raise ValueError(
            "observation ring at radius %g crosses the boundary: give each region's "
            "angles separately" % rho_obs
        )
    raise ValueError(
        "region %d does not match the observation point (it lies in region %d)"
        % (region, 3 - region)
    )


def field_from_discrete(solution, rho_obs, phi_obs, region=None):
    """Total field of a solved system at polar observation points.

    phi_obs is one angle or a 1-D array of angles on the circle rho_obs;
    one angle gives a FieldSample of scalars, an array a FieldSample whose
    phi and e_z are arrays. Each angle of an array takes the evaluation of
    a one-angle call and gets its bits: on a circulant system the
    scattered field is the solution's mode sum at that angle where
    _mode_coefficients allows it, else (and on every other system) the sum
    of the N kernels, and the incident term is incident_field's. The
    region is deduced from the curve when not given; passing one that
    contradicts any observation point, or leaving it out on a ring that
    crosses the boundary, raises instead of silently using the wrong
    representation, and a region other than 1 or 2 is refused. Points
    exactly on the boundary count as region 1. A radius that is a bool or
    an array of any shape but 0-d, a negative or non-finite radius and a
    non-finite angle are refused by name, and so is a point on one of the
    solution's radiating nodes; the origin (rho_obs = 0) is a valid point.
    """
    system = solution.system
    check_observation_radius(rho_obs)
    rho_obs = float(rho_obs)
    scalar = isinstance(phi_obs, float) or np.ndim(phi_obs) == 0
    if scalar:
        phis = float(phi_obs)
        if not math.isfinite(phis):
            raise ValueError("observation angles must be finite")
    else:
        phis = np.asarray(phi_obs, dtype=float)
        if phis.ndim != 1 or not phis.size:
            raise ValueError("phi_obs must be one angle or a non-empty 1-D array of angles")
        if not np.isfinite(phis).all():
            raise ValueError("observation angles must be finite")
    if not 0.0 <= rho_obs < np.inf:
        raise ValueError("observation radius must be nonnegative and finite")
    region = ring_region(system.curve, rho_obs, phis, region)
    modes = _mode_coefficients(solution, rho_obs, region)
    if modes is None:
        value = _kernel_field(solution, rho_obs, np.atleast_1d(phis), region)
        value = value[0] if scalar else value
    elif scalar:
        value = _mode_sum(*modes, phis)
    else:
        value = np.array([_mode_sum(*modes, phi) for phi in phis.tolist()])
    if _incident_here(system.excitation, region):
        medium = system.medium1 if region == 1 else system.medium2
        value = value + incident_field(system.excitation, medium, rho_obs, phis)
    return FieldSample(rho_obs, phis, region, complex(value) if scalar else value, system.method)


def _kernel_field(solution, rho_obs, phis, region):
    """_scattered_field at the points of the 1-D angle array phis on the circle rho_obs."""
    xy = np.empty((phis.size, 2))
    np.multiply(rho_obs, np.cos(phis), out=xy[:, 0])
    np.multiply(rho_obs, np.sin(phis), out=xy[:, 1])
    try:
        return _scattered_field(solution, xy, region)
    except ValueError:  # kernels refusing a point on a radiating node
        where = "observation point at radius %g coincides with a radiating node of the %s route"
        raise ValueError(where % (rho_obs, solution.system.method)) from None


def _test_angles(n_test):
    n_test = geometry.as_count(n_test, "n_test")
    if n_test < 4:
        raise ValueError("need at least 4 test angles")
    return _TWO_PI * (np.arange(n_test) + 0.5) / n_test


@dataclass(frozen=True)
class BoundaryTraces:
    """One-sided limits of the total fields on the boundary C.

    At each polar angle phi: e_1 and h_1 are the region-1 field and its
    1/(kZ)-scaled normal derivative approached from outside C, e_2 and h_2
    the region-2 ones approached from inside. An exact solution has
    e_1 == e_2 and h_1 == h_2.
    """

    phi: np.ndarray
    e_1: np.ndarray
    h_1: np.ndarray
    e_2: np.ndarray
    h_2: np.ndarray


def boundary_traces(solution, n_test=72):
    """Total fields on C from either side, at n_test staggered angles.

    The angles sit between the collocation angles. The source route's line
    sources lie off C, so its fields are summed on C directly. The direct
    route's amplitudes are read as samples of periodic densities: their
    trigonometric interpolant is integrated against the layer kernels with
    Kress's product quadrature for the logarithmic singularity (R. Kress,
    Linear Integral Equations, 2nd ed., ch. 12), the jump relations give
    each one-sided limit, and Maue's identity turns the normal derivative
    of the magnetic layer into weakly singular integrals.
    """
    system = solution.system
    phis = _test_angles(n_test)
    pts = system.curve.point(phis)
    nrm = system.curve.normal(phis)
    if system.method == "nfm":
        traces = _layer_traces(solution, len(phis))
    else:
        traces = []
        for region in (1, 2):
            medium, src, _ = _source_stacks(solution, region)
            amps = solution.electric if region == 1 else solution.magnetic
            h0, dn = kernels(medium.k, pts, src, nrm, at_target=True)
            # BLAS sums dn @ amps in another order for each memory layout;
            # column-major keeps the traces' bits (preset_outputs --hashes)
            dn = np.multiply(-medium.k, dn, order="F")
            weight = -medium.k * medium.Z / 4.0
            traces.append((weight * (h0 @ amps), weight * (dn @ amps)))
    scaled = []
    for region, (value, slope) in zip((1, 2), traces):
        medium = system.medium1 if region == 1 else system.medium2
        if _incident_here(system.excitation, region):
            exc = system.excitation
            fil = exc.position_xy()[None, :]
            h0, dn = kernels(medium.k, pts, fil, nrm, at_target=True)
            weight = incident_prefactor(medium) * exc.amplitude
            value = value + weight * h0[:, 0]
            slope = slope + weight * (-medium.k * dn[:, 0])
        scaled += [value, slope / (medium.k * medium.Z)]
    return BoundaryTraces(phis, *scaled)


def boundary_residuals(solution, n_test=72):
    """Transmission defects of tangential E and H on the boundary itself.

    Returns (max |e_1 - e_2|, max |h_1 - h_2|) over boundary_traces, each
    normalized by the largest boundary magnitude of the corresponding
    field. Small residuals certify a solution on shapes with no separable
    reference.
    """
    tr = boundary_traces(solution, n_test)
    e_scale = max(float(np.max(np.abs(tr.e_1))), float(np.max(np.abs(tr.e_2))), 1e-300)
    h_scale = max(float(np.max(np.abs(tr.h_1))), float(np.max(np.abs(tr.h_2))), 1e-300)
    return (
        float(np.max(np.abs(tr.e_1 - tr.e_2))) / e_scale,
        float(np.max(np.abs(tr.h_1 - tr.h_2))) / h_scale,
    )


def _spectral_derivative(samples, order=1):
    """Derivative along axis 0 of periodic samples on a uniform grid."""
    m = samples.shape[0]
    freq = np.fft.fftfreq(m, 1.0 / m)
    if m % 2 == 0:
        freq[m // 2] = 0.0
    factor = ((1j * freq) ** order).reshape((m,) + (1,) * (samples.ndim - 1))
    return np.fft.ifft(factor * np.fft.fft(samples, axis=0), axis=0)


def _trig_resample(samples, m):
    """Values of the trigonometric interpolant of samples on a finer grid of m."""
    n = samples.shape[0]
    coef = np.fft.fft(samples)
    fine = np.zeros(m, dtype=complex)
    half = n // 2
    if n % 2:
        fine[: half + 1] = coef[: half + 1]
        fine[m - half:] = coef[n - half:]
    else:
        fine[:half] = coef[:half]
        fine[m - half + 1:] = coef[half + 1:]
        fine[half] = fine[m - half] = coef[half] / 2.0
    return np.fft.ifft(fine) * (m / n)


def _log_weights(m):
    """Kress's weights for int ln(4 sin^2((t - s)/2)) f(s) ds at the nodes.

    Entry d weights f at the node d steps behind the target; the rule is
    exact for trigonometric polynomials of degree below m/2.
    """
    freq = np.abs(np.fft.fftfreq(m, 1.0 / m))
    coef = np.zeros(m)
    coef[1:] = -(_TWO_PI / m) / freq[1:]
    coef[m // 2] = -2.0 * _TWO_PI / m**2
    return np.real(np.fft.ifft(coef)) * m


def _quadrature_grid(curve, n_points, n_test):
    """Nodes for the layer integrals: every test angle is one of them.

    m is the smallest multiple of 2 n_test with at least N + 64 nodes: the
    product rule is exact below degree m/2, which leaves 32 orders beyond
    the N-point interpolant of the currents for the smooth kernel factors.
    """
    m = 2 * n_test * int(np.ceil((n_points + 64) / (2.0 * n_test)))
    t = _TWO_PI * np.arange(m) / m
    pts = curve.point(t)
    d1 = np.real(_spectral_derivative(pts))
    d2 = np.real(_spectral_derivative(pts, order=2))
    speed = np.hypot(d1[:, 0], d1[:, 1])
    nrm = np.stack([d1[:, 1], -d1[:, 0]], axis=-1) / speed[:, None]
    lag = (np.arange(m)[:, None] - np.arange(m)[None, :]) % m
    off = lag != 0
    log_sin = np.zeros((m, m))
    log_sin[off] = np.log(4.0 * np.sin(np.pi * lag[off] / m) ** 2)
    dx = pts[:, None, 0] - pts[None, :, 0]
    dy = pts[:, None, 1] - pts[None, :, 1]
    return {
        "m": m,
        "rows": (2 * np.arange(n_test) + 1) * (m // (2 * n_test)),
        "nrm": nrm,
        "speed": speed,
        # n . c'' / |c'|^2: the diagonal limit of n.(x - y)/r^2 is minus half of it
        "bend": np.sum(nrm * d2, axis=1) / speed**2,
        "dx": dx,
        "dy": dy,
        # 1 on the diagonal keeps the kernels finite; the product rule
        # replaces those entries by their limits
        "dist": np.where(off, np.hypot(dx, dy), 1.0),
        "log_sin": log_sin,
        "log_weights": _log_weights(m)[lag],
    }


def _product_rule(grid, kernel, log_part, diag, rows=None):
    """Quadrature matrix of kernel = log_part ln(4 sin^2((t - s)/2)) + smooth.

    diag is the smooth part's value at s = t; rows selects target nodes.
    """
    m = grid["m"]
    rows = np.arange(m) if rows is None else rows
    smooth = kernel - log_part * grid["log_sin"][rows]
    smooth[np.arange(len(rows)), rows] = diag
    return grid["log_weights"][rows] * log_part + (_TWO_PI / m) * smooth


def _layer_operators(grid, k, rows):
    """Boundary operators of one wavenumber acting on densities per unit angle.

    single: int H0(k r) psi at every node (continuous across C);
    double: int [n_s.(y - x)/r] H1(k r) psi, normal at the source;
    adjoint: int d/dn_x H0(k r) psi, normal at the target;
    normal_single: int n_x.n_s H0(k r) psi. The last three are taken at
    the rows' nodes, with the integrals over C itself: double and adjoint
    jump across C, and the caller adds each side's jump.
    """
    dist, nrm, speed = grid["dist"], grid["nrm"], grid["speed"]
    rdist, rdx, rdy, rnrm = dist[rows], grid["dx"][rows], grid["dy"][rows], nrm[rows]
    # the distances are positive (1 on the diagonal) and finite, so H_n is
    # read unchecked; J_n is its real part
    h0 = specfun.hankel2_low(0, k * dist)
    log_h0 = (-1j / np.pi) * h0.real
    np.fill_diagonal(log_h0, -1j / np.pi)
    h0_diag = 1.0 - (2j / np.pi) * (np.euler_gamma + np.log(0.5 * k * speed))
    single = _product_rule(grid, h0, log_h0, h0_diag)
    h1 = specfun.hankel2_low(1, k * rdist)
    log_h1 = (-1j / np.pi) * h1.real
    cos_src = -(rdx * nrm[None, :, 0] + rdy * nrm[None, :, 1]) / rdist
    cos_tgt = (rdx * rnrm[:, None, 0] + rdy * rnrm[:, None, 1]) / rdist
    # both cosines tend to -bend/2 times r, and H1(k r) to 2i/(pi k r)
    bend_diag = -1j * grid["bend"][rows] / (np.pi * k)
    double = _product_rule(grid, cos_src * h1, cos_src * log_h1, bend_diag, rows)
    adjoint = -k * _product_rule(grid, cos_tgt * h1, cos_tgt * log_h1, bend_diag, rows)
    normals_dot = rnrm @ nrm.T
    normal_single = _product_rule(
        grid, normals_dot * h0[rows], normals_dot * log_h0[rows], h0_diag[rows], rows
    )
    return single, double, adjoint, normal_single


def _layer_traces(solution, n_test):
    """One-sided boundary limits of the direct route's scattered fields.

    Returns [(E, dE/dn) outside C in region 1, (E, dE/dn) inside C in
    region 2] at the staggered test angles.
    """
    system = solution.system
    n = solution.n_points
    grid = _quadrature_grid(system.curve, n, n_test)
    rows, speed = grid["rows"], grid["speed"]
    # amplitudes are trapezoidal weights 2 pi / N times densities per unit
    # polar angle; dividing by the speed gives densities per unit length
    psi_e = _trig_resample(n * solution.electric / _TWO_PI, grid["m"])
    psi_m = _trig_resample(n * solution.magnetic / _TWO_PI, grid["m"])
    jump_e = (psi_e / speed)[rows]
    jump_m = (psi_m / speed)[rows]
    tangential_m = _spectral_derivative(psi_m / speed)
    out = []
    for medium, sign in ((system.medium1, -1.0), (system.medium2, +1.0)):
        k, z = medium.k, medium.Z
        single, double, adjoint, normal_single = _layer_operators(grid, k, rows)
        # Maue's identity: d/dn D psi = -(1/k) [d/ds S (d/ds of the density
        # per length) + k^2 n_x . S (n_s psi)], all weakly singular
        maue = _spectral_derivative(single @ tangential_m)[rows] / speed[rows]
        hyper = -(maue + k**2 * (normal_single @ psi_m)) / k
        # region 1 radiates -(kZ/4) S J + (k/4i) D M; region 2 the negative
        value = sign * (k * z / 4.0) * (single[rows] @ psi_e) - sign * (k / 4j) * (double @ psi_m)
        slope = sign * (k * z / 4.0) * (adjoint @ psi_e) - sign * (k / 4j) * hyper
        # jumps: D M loses (2i/k) M/speed outside and gains it inside; the
        # normal derivative of S J loses 2i J/speed outside and gains it inside
        value -= 0.5 * jump_m
        slope += 0.5j * k * z * jump_e
        out.append((value, slope))
    return out
