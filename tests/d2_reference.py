"""The D2 split's reduction by gather, tensordot and np.block, used only by the test suite.

This is how `cylwave.discrete._d2_solve` formed the four character systems
before it summed row runs in place: every row g.p of every block gathered
into one (4, 4, m, m) array, contracted with the character table by
`np.tensordot`, and each system put together with `np.block` from
fancy-indexed pairs. The LU solves, the condition estimate and the
recombination are the package's own, and run on one BLAS thread under the
package's own pin, as `discrete.solve_dense` does. `discrete.solve_dense`
must give the same bits.
"""

import numpy as np

from cylwave import discrete


def d2_solve(system):
    """(x, residual, cond_estimate) of a D2 system, reduced the old way."""
    with discrete._one_blas_thread():
        return _d2_solve(system)


def _d2_solve(system):
    n = system.n_points
    act, rep, elem = discrete._orbit_table(n)
    chars = discrete._D2_CHARACTERS
    m = system.blocks.shape[3]
    orbits = act[:, :m]  # orbits[g, p] = g.p for the representatives p
    fixed = orbits == np.arange(m)
    stab = fixed.sum(axis=0)
    blocks = system.blocks.reshape(4, n, m)[:, orbits]
    # reduced[chi, block, p, l] and rhs[chi, row block, p] over all representatives
    reduced = np.tensordot(chars, blocks, axes=([1], [1])) / stab
    rhs = np.tensordot(chars, system.rhs.reshape(2, n)[:, orbits], axes=([1], [1])) / 4.0
    parts = np.zeros((4, 2, 2, m), dtype=complex)  # (chi, x or A x, row block, rep)
    norms, inv_norms = [], []
    for chi, z, b, part in zip(chars, reduced, rhs, parts):
        keep = np.flatnonzero(chi @ fixed == stab)
        if keep.size == 0:
            continue
        pairs = np.ix_(keep, keep)
        mat = np.block([[z[0][pairs], z[1][pairs]], [z[2][pairs], z[3][pairs]]])
        factors, m_norm, rcond = discrete._lu_factor(mat)
        x_chi = discrete._lu_solve(mat, factors, rcond, b[:, keep].ravel())
        part[:, :, keep] = np.stack([x_chi, mat @ x_chi]).reshape(2, 2, keep.size)
        norms.append(m_norm)
        inv_norms.append(1.0 / (rcond * m_norm) if rcond > 0.0 else np.inf)
    x, applied = np.sum(chars[:, None, None, elem] * parts[..., rep], axis=0)
    residual = discrete._relative_residual(applied.ravel(), system.rhs)
    return x.ravel(), residual, float(max(norms) * max(inv_norms))
