"""The per-mode yardsticks of tests/yardstick.py against the FFT path on circles."""

import numpy as np
import pytest

from cylwave import discrete, geometry
from cylwave.exact import Medium

import yardstick

M1, M2 = Medium(), Medium(4.2, 1.0)
CIRCLE = geometry.BoundaryCurve.circle(2.0)
EXT = geometry.Excitation("external", 4.0)
INT = geometry.Excitation("internal", 1.0)


def _placement(inner, outer):
    return tuple(geometry.AuxiliarySurface.from_radius(CIRCLE, r) for r in (inner, outer))


ROUTES = {
    "nfm": (discrete.assemble_nfm, yardstick.direct_currents),
    "mas": (discrete.assemble_mas, yardstick.source_currents),
}


def _fft_path_error(n_points, aux, exc, method="nfm"):
    assemble, currents = ROUTES[method]
    system = assemble(CIRCLE, *aux, exc, M1, M2, n_points=n_points)
    solution = discrete.solve_circulant_dft(system)
    exact = currents(n_points, CIRCLE, *aux, exc, M1, M2)
    return yardstick.forward_error(solution, exact), solution, exact


@pytest.mark.parametrize("exc", [EXT, INT], ids=["external", "internal"])
def test_the_yardstick_is_the_fft_path_where_that_path_is_healthy(exc):
    # at N = 11 on 1.5/2.5 every eigenvalue is large, so the FFT path and
    # the per-mode solve on the q-sums agree to roundoff: measured 2.1e-15
    # (external) and 1.8e-15 (internal)
    error, solution, exact = _fft_path_error(11, _placement(1.5, 2.5), exc)
    assert solution.dropped == 0 and error <= 1e-13
    # the yardstick's currents solve the assembled system
    residual = solution.system.matrix @ np.concatenate(exact) - solution.system.rhs
    assert np.max(np.abs(residual)) <= 1e-13 * np.max(np.abs(solution.system.rhs))


# The FFT path's forward error on the nfm-stability placement (0.5/10,
# external source at 4): the worse of the two currents' l-inf gaps to the
# yardstick, each relative to its own peak. These are measurements, not a
# bound the path must stay under: a change that solves the circle modes
# from their exact eigenvalues rewrites them. The yardstick itself met a
# 50-digit per-mode solve from the oracle q-sums to 5.0e-16 at N = 46.
FFT_PATH_ERROR = {40: 2.7e-4, 46: 2.1e-2, 81: 5.8e-2}


@pytest.mark.parametrize("n_points", sorted(FFT_PATH_ERROR))
def test_the_fft_path_forward_error_on_nfm_stability_is_recorded(n_points):
    error, solution, _ = _fft_path_error(n_points, _placement(0.5, 10.0), EXT)
    # the residual sees none of it
    assert solution.residual <= 1e-14
    recorded = FFT_PATH_ERROR[n_points]
    assert recorded / 1.5 <= error <= 1.5 * recorded, error


# The FFT path's forward error on circle-dft's preset placement (1.5/2.5,
# N = 512, external source at 4), at the source angles perfbench's seeds 1
# and 2 draw for the first input (random.Random(seed).uniform(0, 2 pi)).
# 496 of the 1 024 mode singular values fall below eps times the largest
# and are dropped, so these are measurements, not bounds: measured 1.06e-1
# and 7.76e-2.
PRESET_ANGLES = {1: 0.8442354444173306, 2: 6.0069404902946655}
PRESET_ERROR = {1: 1.1e-1, 2: 7.8e-2}


@pytest.mark.parametrize("seed", sorted(PRESET_ERROR))
def test_the_fft_path_forward_error_on_the_circle_dft_preset_is_recorded(seed):
    exc = geometry.Excitation("external", 4.0, PRESET_ANGLES[seed])
    error, solution, _ = _fft_path_error(512, _placement(1.5, 2.5), exc)
    assert solution.dropped == 496 and solution.residual <= 1e-14
    recorded = PRESET_ERROR[seed]
    assert recorded / 1.5 <= error <= 1.5 * recorded, error


# On 1.6/2.5 the FFT path is healthy up to N = 128: no mode is dropped and
# the error grows with N as the smallest eigenvalues near N/2 fall towards
# eps of the largest. Measured (external, internal): 6.9e-14 and 1.4e-13 at
# N = 40, 1.5e-11 and 2.0e-11 at 81, 4.1e-9 and 4.5e-9 at 128. Each bound
# is ten times the larger of the two, rounded up.
HEALTHY_BOUND = {40: 1.5e-12, 81: 2.1e-10, 128: 4.6e-8}


@pytest.mark.parametrize("exc", [EXT, INT], ids=["external", "internal"])
@pytest.mark.parametrize("n_points", sorted(HEALTHY_BOUND))
def test_the_fft_path_holds_its_forward_error_where_it_is_healthy(n_points, exc):
    error, solution, _ = _fft_path_error(n_points, _placement(1.6, 2.5), exc)
    assert solution.dropped == 0
    assert error <= HEALTHY_BOUND[n_points], error


# -- the source route -----------------------------------------------------------

ROTATED = (geometry.Excitation("external", 4.0, 0.7), geometry.Excitation("internal", 1.0, 0.7))


@pytest.mark.parametrize("exc", [EXT, INT, *ROTATED],
                         ids=["external", "internal", "external-rotated", "internal-rotated"])
@pytest.mark.parametrize("inner, outer",
                         [(1.5, 2.5), (1.6, 2.5), (1.35, 3.2), (1.8, 7.0), (0.5, 10.0), (0.5, 2.5)])
def test_the_source_yardstick_is_the_fft_path_at_eleven_points(inner, outer, exc):
    # measured 1.3e-15 to 3.7e-15 on the snug placements and 7.7e-14 to
    # 1.5e-13 on 0.5/10 and 0.5/2.5, whose systems are worse conditioned
    error, solution, exact = _fft_path_error(11, _placement(inner, outer), exc, "mas")
    assert solution.dropped == 0 and error <= 1e-12, error
    # the yardstick's amplitudes solve the assembled system
    residual = solution.system.matrix @ np.concatenate(exact) - solution.system.rhs
    assert np.max(np.abs(residual)) <= 1e-12 * np.max(np.abs(solution.system.rhs))


# The FFT path's forward error on the source route, against the yardstick,
# measured on the mas-divergence placement (0.5/10, external source at 4)
# and on criterion 06's placement grid. Where both surfaces sit inside the
# regions where their series converge (1.35 or 1.8 inside, 2.5 or 3.2
# outside) the path is healthy: measured 4.4e-14 to 1.6e-11 at N = 40 and
# 46, both sources, and held under 1e-10. On the other placements the
# amplitudes grow with N and the gaps are measurements, not bounds, kept
# within a factor 1.5: (external N = 40, 46, internal N = 40, 46).
SOURCE_DIVERGENCE_ERROR = {40: 1.5e-3, 46: 2.6}
SOURCE_GRID_ERROR = {
    (0.5, 2.5): (8.4e-5, 9.0e-3, 7.6e-5, 7.2e-3),
    (0.5, 3.2): (7.7e-5, 9.1e-3, 7.6e-5, 7.2e-3),
    (0.5, 7.0): (1.9e-4, 1.3e-2, 9.3e-3, 1.3),
    (1.35, 7.0): (2.0e-6, 1.9e-4, 1.6e-6, 1.3e-4),
    (1.8, 7.0): (2.0e-6, 1.9e-4, 1.3e-6, 1.0e-4),
}


@pytest.mark.parametrize("n_points", sorted(SOURCE_DIVERGENCE_ERROR))
def test_the_source_route_fft_path_error_on_mas_divergence_is_recorded(n_points):
    error, _, _ = _fft_path_error(n_points, _placement(0.5, 10.0), EXT, "mas")
    recorded = SOURCE_DIVERGENCE_ERROR[n_points]
    assert recorded / 1.5 <= error <= 1.5 * recorded, error


@pytest.mark.parametrize("inner, outer", [(i, o) for i in (0.5, 1.35, 1.8) for o in (2.5, 3.2, 7.0)])
def test_the_source_route_fft_path_error_on_the_criterion_06_grid(inner, outer):
    errors = [
        _fft_path_error(n_points, _placement(inner, outer), exc, "mas")[0]
        for exc in (EXT, INT)
        for n_points in (40, 46)
    ]
    if (inner, outer) in SOURCE_GRID_ERROR:
        for error, recorded in zip(errors, SOURCE_GRID_ERROR[inner, outer]):
            assert recorded / 1.5 <= error <= 1.5 * recorded, errors
    else:
        assert max(errors) <= 1e-10, errors
