"""Circulant probes for dense kernel matrices, used only by the test suite.

The library carries concentric-circle blocks as first columns and never
scans a dense matrix for circulant structure; these probes check that
structure from the outside.
"""

import numpy as np


def circulant_deviation(matrix):
    """Max deviation of matrix[p, l] from matrix[(p - l) mod N, 0].

    Zero (to rounding) for any kernel matrix built from uniform collocation
    on concentric circles; decidedly nonzero for ellipses.
    """
    matrix = np.asarray(matrix)
    n = matrix.shape[0]
    if matrix.shape != (n, n):
        raise ValueError("square matrix expected")
    p, l = np.indices((n, n))
    ref = matrix[(p - l) % n, 0]
    return float(np.max(np.abs(matrix - ref)))


def is_circulant(matrix, rtol=1e-13):
    matrix = np.asarray(matrix)
    scale = float(np.max(np.abs(matrix)))
    if scale == 0.0:
        return True
    return circulant_deviation(matrix) <= rtol * scale
