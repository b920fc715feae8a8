"""Criterion 08's direct system solved through its Graf factorisation (tests/factored.py).

The factored solve is the exact collocation solution in float64 where the
assembled matrix's own solve is not: its boundary residuals are the
40-digit ones that ROADMAP Directions 12 and 27 record.
"""

import numpy as np
import pytest

from cylwave import discrete, fields, geometry
from cylwave.acceptance import ELL_AUX, ELLIPSE, EXT, INT, M1, M2

import factored


@pytest.mark.parametrize("excitation", [EXT, INT], ids=["external", "internal"])
def test_the_graf_factors_multiply_to_the_assembled_system(excitation):
    system = discrete.assemble_nfm(*ELL_AUX, excitation, M1, M2, n_points=16)
    p, m, s = factored.graf_factors(system)
    assert p.shape == (2, 16, 2 * (8 + factored.EXTRA_ORDERS) + 1)
    matrix = np.concatenate([p_j @ m_j for p_j, m_j in zip(p, m)])
    rhs = np.concatenate([p_j @ s_j for p_j, s_j in zip(p, s)])
    want = system.matrix
    assert np.max(np.abs(matrix - want)) < 1e-13 * np.max(np.abs(want))
    assert np.max(np.abs(rhs - system.rhs)) < 1e-13 * np.max(np.abs(system.rhs))


# (E, H) boundary residuals of the exact collocation solution at n_test = N
EXACT_RESIDUALS = [
    (EXT, 40, ("7.49e-05", "8.11e-04")),
    (EXT, 60, ("2.61e-05", "4.46e-04")),
    (EXT, 80, ("1.21e-07", "1.87e-06")),
    (INT, 40, ("1.31e-04", "1.32e-03")),
    (INT, 60, ("3.57e-05", "7.14e-04")),
    (INT, 80, ("5.06e-08", "9.94e-07")),
]


@pytest.mark.parametrize(
    "excitation, n_points, want", EXACT_RESIDUALS,
    ids=["%s-%d" % (exc.region, n) for exc, n, _ in EXACT_RESIDUALS],
)
def test_the_factored_solve_reproduces_the_exact_residuals(excitation, n_points, want):
    system = discrete.assemble_nfm(*ELL_AUX, excitation, M1, M2, n_points=n_points)
    solution = factored.factored_solve(system)
    assert solution.path == "factored" and np.isfinite(solution.cond_estimate)
    got = fields.boundary_residuals(solution, n_test=n_points)
    assert tuple("%.2e" % value for value in got) == want


def test_a_placement_outside_grafs_range_is_refused():
    # the 0.8/1.25 placement touches both of Graf's bounds on the 2.0/1.6 ellipse
    mild = tuple(geometry.AuxiliarySurface.from_scale(ELLIPSE, s) for s in (0.8, 1.25))
    system = discrete.assemble_nfm(ELLIPSE, *mild, EXT, M1, M2, n_points=16)
    with pytest.raises(ValueError, match="Graf"):
        factored.graf_factors(system)
