"""Oscillation metrics, divergence prediction, and error-vs-N sweeps.

The two discrete routes fail in characteristically different ways. The
source method develops rapidly oscillating, fast-growing amplitudes as soon
as an auxiliary surface is placed past the image radius of the filament (or
past the filament itself), and which surfaces break is predictable from the
radii alone. The direct method keeps its currents tame for any admissible
placement and only loses digits through conditioning. This module turns
that contrast into numbers: an oscillation index for solved current
vectors, an a-priori verdict per auxiliary surface, and sweeps over N that
track amplitude growth or field error.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import discrete, fields
from .exact import convergence_region, exact_ring
from .geometry import as_count, check_placement

_TWO_PI = 2.0 * np.pi
# the angles at which convergence_sweep samples its rings
SWEEP_ANGLES = _TWO_PI * (np.arange(36) + 0.5) / 36.0
# oscillation_scan flags a surface where both are exceeded at the same N
GROWTH_THRESHOLD = 3.0
INDEX_THRESHOLD = 0.5


@dataclass(frozen=True)
class OscillationReport:
    """How large and how wiggly one surface's solved current vectors are over N.

    Each field is an array with one entry per solved N of the scan
    (OscillationScan.n_points). oscillation_index is the fraction of a
    vector's mean-removed DFT energy carried by the top third of spatial
    frequencies (0 for a smooth vector, 1 for a sawtooth). max_amplitude is
    the largest entry magnitude and growth_factor compares it against the
    previous solved N (1.0 for the first). flagged marks growth_factor and
    oscillation_index jointly above GROWTH_THRESHOLD and INDEX_THRESHOLD at
    the same N.
    """

    oscillation_index: np.ndarray
    max_amplitude: np.ndarray
    growth_factor: np.ndarray
    flagged: np.ndarray


@dataclass(frozen=True)
class OscillationScan:
    """Per-surface oscillation reports across a sweep of N.

    n_points lists the successfully solved sizes in ascending order;
    reports maps each surface label to its OscillationReport over them;
    failures maps every N whose solve raised to the error message;
    solutions maps every solved N to its DiscreteSolution.
    """

    method: str
    n_points: tuple
    reports: dict
    failures: dict
    solutions: dict = field(compare=False, repr=False)

    def flagged_surfaces(self):
        """Labels of surfaces flagged at any N of the sweep."""
        return tuple(label for label, report in self.reports.items() if report.flagged.any())


@dataclass(frozen=True)
class ConvergenceSweep:
    """Error-vs-N table for one method against a fixed reference.

    scan is the OscillationScan whose solutions the errors were measured
    on; it holds the method, the solved sizes and the failures. reference
    is 'exact' on a circular boundary and 'residual' on any other (see
    convergence_sweep), and errors maps each solved N, ascending, to its
    error. For the 'exact' reference, references holds the ring_references
    the errors were measured against, so callers can see how far the
    series behind them converged.
    """

    scan: OscillationScan
    reference: str
    errors: dict
    references: tuple = field(default=(), compare=False, repr=False)


def predict_mas_divergence(geometry, excitation):
    """Classify both auxiliary surfaces of a circular source-method setup.

    geometry is a (boundary, inner auxiliary surface, outer auxiliary
    surface) triple of circles and excitation one line source, as
    oscillation_scan takes them; they are checked as assembly checks them.

    The source route's currents blow up once an auxiliary surface leaves
    the region where the series of the field its sources must reproduce
    converges: the region-1 series for the inner surface, the region-2
    series for the outer one (exact.convergence_region, which reads the
    series' geometric ratio from exact.series_ratio; the limits are the
    filament radius and its image radius rho_cyl**2 / rho_fil). A surface
    exactly on its limit is classified 'diverges'.

    Returns {'aux1': inner verdict, 'aux2': outer verdict}, keyed by the
    surface labels of OscillationScan.reports ('aux1' inside the boundary,
    'aux2' outside).
    """
    curve, inner, outer = geometry
    if {curve.kind, inner.curve.kind, outer.curve.kind} != {"circle"}:
        raise ValueError("the divergence prediction needs a circular boundary and surfaces")
    check_placement(curve, inner, outer, excitation)
    side, limits = excitation.region[:3], (curve.params["radius"], excitation.rho)
    return {
        "aux1": convergence_region(side + "_R1", inner.curve.params["radius"], *limits),
        "aux2": convergence_region(side + "_R2", outer.curve.params["radius"], *limits),
    }


def oscillation_index(values):
    """Fraction of mean-removed DFT energy in the top third of frequencies.

    The spatial frequency of DFT bin m of an N-vector is min(m, N - m);
    bins above (2/3) * floor(N/2) count as the top third. A constant
    vector scores 0.0, the alternating vector (-1)**l scores 1.0.
    """
    vec = np.asarray(values, dtype=complex).ravel()
    if vec.size == 0:
        raise ValueError("need at least one sample")
    if not np.isfinite(vec).all():
        raise ValueError("values must be finite")
    vec = vec - vec.mean()
    power = np.abs(np.fft.fft(vec)) ** 2
    total = float(power.sum())
    if total == 0.0:
        return 0.0
    wavenumber = np.minimum(np.arange(vec.size), vec.size - np.arange(vec.size))
    top_third = wavenumber > (2.0 / 3.0) * (vec.size // 2)
    return float(power[top_third].sum() / total)


def oscillation_scan(method, geometry, excitation, media, n_list):
    """Track oscillation and amplitude growth of solved currents over N.

    Solves the system for every size in n_list and reports, per surface,
    arrays over the solved N in ascending order: the oscillation index, the
    peak amplitude, and its growth relative to the previous solved N. An N
    is flagged when growth_factor > GROWTH_THRESHOLD and
    oscillation_index > INDEX_THRESHOLD there. A failed solve is
    recorded under its N and the scan continues; growth then compares
    against the last N that did solve.

    geometry is a (boundary, inner auxiliary surface, outer auxiliary
    surface) triple and media a (region-1 medium, region-2 medium) pair.
    Surface labels are 'aux1'/'aux2' for method 'mas' and
    'electric'/'magnetic' for method 'nfm' (surface_labels).

    excitation is one line source, which gives one OscillationScan, or a
    tuple of them, which gives a tuple of scans in the same order. The
    collocation matrix depends on the geometry and the media alone, so
    every N is assembled once and solved for all the excitations on one
    factorisation (discrete.solve with shared systems); each scan equals,
    bit for bit, the scan of its excitation alone. An excitation that
    cannot be set up (a source on the wrong side of the boundary) fails
    its own scan only; a solve that raises fails its N for every
    excitation, since they share the factorisation.
    """
    single = not isinstance(excitation, tuple)
    excitations = (excitation,) if single else excitation
    labels = surface_labels(method)
    scans = tuple(
        _scan(method, labels, solutions, failures)
        for solutions, failures in _solve_sizes(method, geometry, excitations, media, n_list)
    )
    return scans[0] if single else scans


def _scan(method, labels, solutions, failures):
    blocks = [(solution.electric, solution.magnetic) for solution in solutions.values()]
    reports = {}
    for side, label in enumerate(labels):
        vectors = [pair[side] for pair in blocks]
        amplitude = np.array([np.max(np.abs(vec)) for vec in vectors])
        index = np.array([oscillation_index(vec) for vec in vectors])
        growth = _growth(amplitude)
        flagged = (growth > GROWTH_THRESHOLD) & (index > INDEX_THRESHOLD)
        reports[label] = OscillationReport(index, amplitude, growth, flagged)
    return OscillationScan(
        method=method,
        n_points=tuple(solutions),
        reports=reports,
        failures=failures,
        solutions=solutions,
    )


def default_rings(curve, excitation):
    """One observation ring outside the boundary and one inside it.

    Returns (radius, region) pairs: region 1 at five times the smallest
    boundary radius, or at twice the largest where that is farther (an
    elongated boundary would otherwise cross the ring), and region 2 at
    half the smallest. A ring at the filament's own radius is moved out by
    half its radius, so that no sample angle can land on the source,
    wherever the source sits.
    """
    if curve.kind == "circle":
        r_min = r_max = curve.params["radius"]
    else:
        radii = curve.radius(_TWO_PI * np.arange(64) / 64)
        r_min, r_max = min(radii), max(radii)
    rings = []
    for rho, region in ((max(5.0 * r_min, 2.0 * r_max), 1), (0.5 * r_min, 2)):
        if math.isclose(rho, excitation.rho):
            rho *= 1.5
        rings.append((rho, region))
    return tuple(rings)


def sweep_reference(curve):
    """'exact' on a circular boundary, where the separable series exists; 'residual' otherwise."""
    return "exact" if curve.kind == "circle" else "residual"


def convergence_sweep(method, geometry, excitation, media, n_list, rings=None):
    """Oscillation scan and field or residual error of one method over N.

    Runs oscillation_scan on the inputs, keeps it as the sweep's scan, and
    measures the error of each of its solutions. The boundary picks the
    reference (sweep_reference). On a circle it is 'exact': total fields
    are compared against the separable series on one observation ring per
    region, by default those of default_rings, over 36 angles offset from
    the collocation grid, and the error is field_error, the worst relative
    deviation over both rings; pass rings as (radius, region) pairs to
    override. An empty ring set or a ring through the filament raises
    ValueError before any solve. On any other boundary it is 'residual':
    the tangential-E defect of fields.boundary_residuals, which needs no
    separable solution, and passing rings raises ValueError. Failed solves
    are recorded as in oscillation_scan.
    """
    curve = geometry[0]
    reference = sweep_reference(curve)
    references = ()
    if reference == "residual" and rings is not None:
        raise ValueError("rings serve only the exact reference of a circular boundary")
    if reference == "exact":
        # summed first, so a ring set it refuses fails before any solve
        rings = default_rings(curve, excitation) if rings is None else rings
        references = ring_references(curve, excitation, media, rings, SWEEP_ANGLES)
    scan = oscillation_scan(method, geometry, excitation, media, n_list)
    errors = {}
    for n, solution in scan.solutions.items():
        if reference == "exact":
            errors[n] = field_error(solution, references, SWEEP_ANGLES)
        else:
            errors[n] = fields.boundary_residuals(solution, n_test=n)[0]
    return ConvergenceSweep(scan=scan, reference=reference, errors=errors, references=references)


def ring_references(curve, excitation, media, rings, angles):
    """The exact series on each observation ring of a circular boundary.

    rings are (radius, region) pairs and angles a 1-D array. Returns one
    (radius, region, SeriesResult of arrays over angles) entry per ring,
    each ring summed in one exact_ring pass. An empty ring set raises
    ValueError, as field_error does, so a sweep refuses it before any solve.
    """
    if curve.kind != "circle":
        raise ValueError("the exact series needs a circular boundary")
    if not rings:
        raise ValueError("ring_references needs at least one ring; got an empty ring set")
    radius = curve.params["radius"]
    return tuple(
        (rho, region, exact_ring(excitation, region, rho, angles, radius, media[0], media[1]))
        for rho, region in rings
    )


def field_error(solution, references, angles):
    """Worst relative field error of a solution over its rings.

    references are ring_references entries summed at angles. On each ring
    the error is the largest gap between the solution's E_z and the series
    over the series' largest magnitude (the gap itself where that is 0);
    the result is the largest over the rings. An empty ring set raises
    ValueError, as it measures nothing.
    """
    if not references:
        raise ValueError("field_error needs at least one ring; got an empty ring set")
    worst = 0.0
    for rho, region, series in references:
        observed = fields.field_from_discrete(solution, rho, angles, region=region).e_z
        scale = float(np.max(np.abs(series.value)))
        worst = max(worst, float(np.max(np.abs(observed - series.value))) / (scale or 1.0))
    return worst


def surface_labels(method):
    """Names of a method's two amplitude vectors, in the order of its unknowns."""
    if method == "mas":
        return ("aux1", "aux2")
    if method == "nfm":
        return ("electric", "magnetic")
    raise ValueError("unknown method %r" % (method,))


def _growth(amplitude):
    """Each amplitude over the one before it: 1.0 at the first, and after a
    zero amplitude 1.0 if it is still zero, else inf."""
    previous, current = amplitude[:-1], amplitude[1:]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(previous > 0.0, current / previous, np.where(current == 0.0, 1.0, np.inf))
    return np.concatenate((np.ones(amplitude[:1].size), ratio))


_FAILURES = (ValueError, ArithmeticError)


def _solve_sizes(method, geometry, excitations, media, n_list):
    """Solve every N in ascending order for every excitation.

    Returns one (solutions, failures) pair per excitation, each keyed by N.
    An N is assembled for the first excitation that sets it up, re-excited
    (discrete.excite) for the others, and solved for all of them at once.
    """
    curve, aux_inner, aux_outer = geometry
    medium1, medium2 = media
    assemble = discrete.assemble_nfm if method == "nfm" else discrete.assemble_mas
    sizes = sorted({as_count(n, "n_list entry") for n in n_list})
    if not sizes:
        raise ValueError("n_list must not be empty")

    results = tuple(({}, {}) for _ in excitations)
    for n in sizes:
        systems, owners = [], []
        for result, excitation in zip(results, excitations):
            try:
                if systems:
                    system = discrete.excite(systems[0], excitation)
                else:
                    system = assemble(
                        curve, aux_inner, aux_outer, excitation, medium1, medium2, n_points=n
                    )
            except _FAILURES as exc:
                result[1][n] = str(exc)
                continue
            systems.append(system)
            owners.append(result)
        if not systems:
            continue
        try:
            solved = discrete.solve(systems[0], shared=systems[1:])
        except _FAILURES as exc:
            for _, failures in owners:
                failures[n] = str(exc)
            continue
        for (solutions, _), solution in zip(owners, solved):
            solutions[n] = solution
    return results
