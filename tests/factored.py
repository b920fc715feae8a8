"""Graf-factorised solve of the direct route's collocation system, used only by the test suite.

Where Graf's addition theorem converges, that is where every inner-surface
point lies nearer the centre than every boundary point and every
outer-surface point farther, each row block of an 'nfm' system is a
product P M over the orders n = -K..K:

- region 1: P1[p, n] = J_n(k1 rho_p) e^{i n phi_p} at the inner surface's
  nodes, and M1[n, l] = Z1 H2_n(k1 r_l) e^{-i n phi_l} on the electric
  currents and i (-1/k1) d_nu[H2_n(k1 r) e^{-i n phi}]_l on the magnetic
  ones (Waterman's null-field moments);
- region 2 likewise, with H2_n(k2 rho_p) at the outer surface's nodes in
  P2, and J_n and Z2 in M2.

The right side is P s, with s1[n] = -Z1 A H2_n(k1 rho_f) e^{-i n phi_f} for
an external source and s2[n] = Z2 A J_n(k2 rho_f) e^{-i n phi_f} for an
internal one (0 in the other region). Collocation is P (M x - s) = 0.
Each column of P is divided by its largest entry and the row of M and
entry of s of its order are multiplied by it. With L the N leading orders
(-N/2 .. N/2 - 1 at even N) and T the tail, E = P_L^-1 P_T turns each
region's N rows into (M x - s)_L + E (M x - s)_T = 0. Each of those 2N
rows is divided by its largest entry and the system takes one LU of
cylwave.discrete. Rounding the scaled moments perturbs each row at its own
size, so the solve never meets the grading of the assembled matrix, whose
float64 solve fails criterion 08. The factors come from scipy.special,
with N/2 + 60 orders on each side of 0.
"""

import numpy as np
from scipy.special import h2vp, hankel2, jv, jvp

from cylwave import discrete

# orders beyond N/2 on each side of 0
EXTRA_ORDERS = 60


def graf_factors(system):
    """(P, M, s) of an 'nfm' system, stacked per region.

    The orders run over -K..K, K = N//2 + EXTRA_ORDERS, so the N leading
    ones start at index EXTRA_ORDERS. P has shape (2, N, 2K + 1), M
    (2, 2K + 1, 2N) and s (2, 2K + 1): P[j] @ M[j] is row block j of
    system.matrix and P[j] @ s[j] its half of system.rhs. Every column of
    P is scaled to a largest magnitude of 1. Raises ValueError where
    Graf's expansion does not converge.
    """
    if system.method != "nfm":
        raise ValueError("the Graf factorisation is written for the direct route")
    nodes, exc = system.nodes, system.excitation
    rho_in, r, rho_out = (np.hypot(*pts.T) for pts in (nodes.inner, nodes.boundary, nodes.outer))
    # a source on its side of the boundary then lies on Graf's side of its surface
    if not (rho_in.max() < r.min() and r.max() < rho_out.min()):
        raise ValueError("Graf's expansion does not converge on this placement")
    top = system.n_points // 2 + EXTRA_ORDERS
    n = np.arange(-top, top + 1)
    phis = nodes.phis[:, None]
    wave = np.exp(1j * n * phis)  # e^{i n phi} at the N angles, (N, orders)
    cos, sin = np.cos(phis), np.sin(phis)
    nx, ny = nodes.normals[:, :1], nodes.normals[:, 1:]
    along_r, along_phi = nx * cos + ny * sin, ny * cos - nx * sin
    # per region: its medium, matching radii, the function of the matching
    # points, that of the currents (and of the source) and its derivative
    sides = (
        (system.medium1, rho_in, jv, hankel2, h2vp, "external", -1.0),
        (system.medium2, rho_out, hankel2, jv, jvp, "internal", 1.0),
    )
    p_all, m_all, s_all = [], [], []
    for medium, rho, matching, radial, slope, region, sign in sides:
        k, z = medium.k, medium.Z
        p = matching(n, k * rho[:, None]) * wave
        values, slopes = radial(n, k * r[:, None]), slope(n, k * r[:, None])
        normal_deriv = k * along_r * slopes - 1j * n * along_phi / r[:, None] * values
        back = wave.conj()
        m = np.concatenate([z * values * back, (-1j / k) * normal_deriv * back])
        s = np.zeros(n.size, dtype=complex)
        if exc.region == region:
            s = sign * z * exc.amplitude * radial(n, k * exc.rho) * np.exp(-1j * n * exc.phi)
        scale = np.max(np.abs(p), axis=0)
        p_all.append(p / scale)
        m_all.append(m.T * scale[:, None])
        s_all.append(s * scale)
    return np.array(p_all), np.array(m_all), np.array(s_all)


def factored_solve(system):
    """The DiscreteSolution (path 'factored') of an 'nfm' system, through graf_factors.

    Its cond_estimate is that of the reduced, row-equilibrated system.
    """
    n_points = system.n_points
    p, m, s = graf_factors(system)
    lead = slice(EXTRA_ORDERS, EXTRA_ORDERS + n_points)
    tail = np.ones(p.shape[2], dtype=bool)
    tail[lead] = False
    with discrete._one_blas_thread():
        rows, rhs = [], []
        for p_j, m_j, s_j in zip(p, m, s):
            e = np.linalg.solve(p_j[:, lead], p_j[:, tail])
            rows.append(m_j[lead] + e @ m_j[tail])
            rhs.append(s_j[lead] + e @ s_j[tail])
        a, b = np.concatenate(rows), np.concatenate(rhs)
        size = np.max(np.abs(a), axis=1)
        a /= size[:, None]
        b /= size
        factors, _, rcond = discrete._lu_factor(a)
        x = discrete._lu_solve(a, factors, rcond, b)
    cond = 1.0 / rcond if rcond > 0.0 else np.inf
    return discrete.DiscreteSolution(system, x[:n_points], x[n_points:], "factored", cond)
