"""Collocation systems for the two discretizations and their solvers.

Both formulations share one 2N x 2N matrix up to row scalings and a
transpose: A_mas = (diag(-k1/4, +k2/4) A_nfm)^T, which criterion 09 checks.
The direct formulation places fictitious electric and magnetic line currents
at N points of the boundary and cancels the total field at N points of each
displaced surface; the source formulation places radiating line sources on
the displaced surfaces and matches the transmission conditions at N boundary
points. On concentric circles every block is circulant, which yields a
per-mode 2x2 system through the DFT; as N grows the DFT of each amplitude
vector approaches 2 pi rho_cyl times the density coefficients of
continuous.mode_solve, free of the displaced radii. On centred ellipses at
even N the half-turn and the mirror phi -> -phi form the group D2, which
splits the dense solve into four independent systems of about N/2 each.
"""

import ctypes
import threading
from contextlib import contextmanager
from dataclasses import dataclass, replace
from functools import cache, cached_property
from pathlib import Path
from typing import Optional

import numpy as np
import scipy
from scipy import linalg
from scipy.linalg import get_lapack_funcs

from . import geometry, specfun
from .exact import Medium

_TWO_PI = 2.0 * np.pi
_TINY = np.finfo(float).tiny
_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class Nodes:
    """Collocation grid of a system: the N angles of geometry.collocation_points
    and, at them, the boundary points and outward unit normals and the points
    of the inner and outer auxiliary surfaces, each of shape (N, 2)."""

    phis: np.ndarray
    boundary: np.ndarray
    normals: np.ndarray
    inner: np.ndarray
    outer: np.ndarray


@dataclass(frozen=True)
class BlockSystem:
    """The 2N x 2N collocation system in its natural 2x2 block layout.

    For method 'nfm' the unknowns are electric and magnetic current
    amplitudes on the boundary and the rows cancel the field on the two
    displaced surfaces; for method 'mas' the unknowns are source amplitudes
    on the displaced surfaces and the rows enforce the two transmission
    conditions on the boundary. z11..z22 carry only the columns that the
    symmetry of the collocation leaves independent:
    - concentric circles: every block is circulant and only its first
      column is carried, shape (N,);
    - three centred ellipses at even N: the half-turn R (l -> l + N/2) and
      the mirror S (l -> -l) map every point set onto itself, so each block
      satisfies Z[g.p, g.l] = Z[p, l] for g in D2 = {id, R, S, RS}. Every
      orbit of D2 on the indices meets 0..N//4 once (see _orbit_table), and
      those N//4 + 1 columns are carried, shape (N, N//4 + 1);
    - otherwise (star curves, odd N): the full block, shape (N, N).
    matrix and named_blocks() always give full blocks, and nodes the grid
    they were evaluated on. Instances are treated as immutable and can be
    shared between threads; the arrays are not defensively copied.
    """

    z11: np.ndarray
    z12: np.ndarray
    z21: np.ndarray
    z22: np.ndarray
    rhs: np.ndarray
    method: str
    curve: geometry.BoundaryCurve
    nodes: Nodes
    excitation: geometry.Excitation
    medium1: Medium
    medium2: Medium

    @property
    def n_points(self):
        return self.z11.shape[0]

    @property
    def circulant(self):
        """True when the blocks are carried as circulant first columns."""
        return self.z11.ndim == 1

    @property
    def d2(self):
        """True when the blocks are carried as their D2 orbit columns."""
        return self.z11.ndim == 2 and self.z11.shape[1] < self.z11.shape[0]

    @property
    def matrix(self):
        (_, z11), (_, z12), (_, z21), (_, z22) = self.named_blocks()
        return np.block([[z11, z12], [z21, z22]])

    def named_blocks(self):
        blocks = (self.z11, self.z12, self.z21, self.z22)
        return tuple(zip(("z11", "z12", "z21", "z22"), map(_expand, blocks)))


@dataclass(frozen=True)
class DiscreteSolution:
    """Solved amplitudes plus how the solve went.

    electric/magnetic hold the two N-vectors of unknowns in row order: for
    an 'nfm' system the electric and magnetic boundary currents, for a
    'mas' system the inner-surface and outer-surface source amplitudes.
    residual is ||A x - b||_inf relative to ||b||_inf. The dense path forms
    it while each factored system is alive and passes it as
    dense_residual; a DFT solution leaves that None, forms the residual
    when it is first read (_circulant_apply) and keeps it. cond_estimate is
    the exact 2-norm condition number (assembled from the per-mode singular
    values) on the DFT path and an infinity-norm estimate on the dense
    path: ||A|| ||A^-1|| for a full LU, and max ||M_chi|| * max
    ||M_chi^-1|| over the systems of a D2 split (see _d2_solve). That
    product satisfies
        ||A|| ||A^-1|| / 16 <= max ||M_chi|| max ||M_chi^-1|| <= ||A|| ||A^-1||.
    M_chi is A acting on chi-equivariant vectors, written through their
    values at the orbit representatives; those vectors copy these values
    up to sign, so ||M_chi|| <= ||A||, and A^-1 has the same symmetry with
    reduced forms M_chi^-1, so ||M_chi^-1|| <= ||A^-1||. Conversely A is
    the sum of its four chi-parts, each of norm at most ||M_chi||, so
    ||A|| <= 4 max ||M_chi||, and likewise for A^-1. gecon only estimates
    the inverse norms; against a full LU's estimate the ratio reads
    0.56-0.83 on the 0.8/1.25 ellipse at N = 4-60 and 0.63-1.05 on
    0.33/5.0 at N = 4-42.
    dropped counts the singular values the DFT path's pseudo-inverse set
    aside as roundoff, out of 2N; the dense path drops none.
    """

    system: BlockSystem
    electric: np.ndarray
    magnetic: np.ndarray
    path: str
    cond_estimate: float
    dropped: int = 0
    dense_residual: Optional[float] = None

    @property
    def n_points(self):
        return self.electric.shape[0]

    # formed on first read and kept, as Medium.k is
    @cached_property
    def residual(self):
        if self.dense_residual is not None:
            return self.dense_residual
        return _relative_residual(_circulant_apply(self), self.system.rhs)

    @cached_property
    def spectra(self):
        """The DFTs of electric and magnetic, shape (2, N), formed on first read.

        One numpy.fft call over the two stacked rows, which gives each row
        the bits of its own call.
        """
        return np.fft.fft(np.array((self.electric, self.magnetic)))

    @cached_property
    def ring_modes(self):
        """Per region, the last observation radius of a field evaluation and its mode sum.

        fields keeps (rho, coefficients) there, coefficients None where the
        kernels are summed instead, so that one-angle calls around a ring
        form them once. Each entry is one tuple, replaced whole.
        """
        return {}

    @property
    def vector(self):
        return np.concatenate([self.electric, self.magnetic])


# -- kernels ----------------------------------------------------------------


def kernels(k, targets, sources, normals=None, at_target=False):
    """The two radiating kernels between target points t_p and source points s_l.

    Returns (H0, dn), shape (targets, sources) each: H0 = H^(2)_0(k r) with
    r = |t_p - s_l|, and dn the normal-derivative kernel, None without
    normals. normals holds one unit normal per source, giving
    [n_l . (s_l - t_p) / r] H^(2)_1(k r), or with at_target one per
    target, giving [n_p . (t_p - s_l) / r] H^(2)_1(k r). The offsets are
    formed once for both. A non-finite point raises ValueError, and so do
    a target closer to a source than 1e-14 times the largest coordinate of
    either set (or 1) and a k r below the normal range, where H1 overflows.
    """
    targets = np.asarray(targets, dtype=float)
    sources = np.asarray(sources, dtype=float)
    dx = targets[:, None, 0] - sources[None, :, 0]
    dy = targets[:, None, 1] - sources[None, :, 1]
    dist = np.hypot(dx, dy)
    # the distance range refuses both, so H0 and H1 read checked arguments
    lo, hi = float(dist.min()), float(dist.max())
    if not hi < np.inf:
        raise ValueError("points must be finite")
    # Every coordinate lies within 2 hi of t_0's (via s_0), so |t_0| + 4 hi
    # bounds the largest one with room for rounding: the coordinates are read
    # only when the nearest pair could fall below 1e-14 of that bound.
    t_0 = max(abs(targets[0, 0]), abs(targets[0, 1]))
    if lo < 1e-14 * max(t_0 + 4.0 * hi, 1.0):
        scale = max(np.abs(targets).max(), np.abs(sources).max(), 1.0)
        if lo < 1e-14 * scale:
            raise ValueError("coincident points between the two surfaces")
    if not _TINY <= k * lo <= k * hi < np.inf:
        raise ValueError("wavenumber times distance must be positive and finite")
    cos = None
    if normals is not None:
        # formed in dx's memory, with the bits of (dx n_x + dy n_y) / r at
        # the target and of (-dx n_x - dy n_y) / r at the source
        nrm = np.asarray(normals, dtype=float)
        nrm = nrm[:, None] if at_target else nrm[None, :]
        cos = np.multiply(dx, nrm[..., 0], out=dx)
        np.multiply(dy, nrm[..., 1], out=dy)
        if at_target:
            np.add(cos, dy, out=cos)
        else:
            np.negative(cos, out=cos)
            np.subtract(cos, dy, out=cos)
        np.divide(cos, dist, out=cos)
    del dx, dy  # freed before the Hankel functions, which set the peak memory
    kd = k * dist
    h0 = specfun.hankel2_low(0, kd)
    if cos is None:
        return h0, None
    dn = specfun.hankel2_low(1, kd)
    dn *= cos
    return h0, dn


def _carried_columns(curve, aux_inner, aux_outer, n_points):
    """How many leading columns of each block the geometry's symmetry needs.

    Three concentric circles make every block circulant at any N and need
    one column (solve takes the DFT path); on three centred ellipses at even
    N the group D2 leaves one column per orbit (N//4 + 1); else all N.
    """
    kinds = {c.kind for c in (curve, aux_inner.curve, aux_outer.curve)}
    if kinds == {"circle"}:
        return 1
    if kinds == {"ellipse"} and n_points % 2 == 0:
        return n_points // 4 + 1
    return n_points


# D2 = (id, R, S, RS) and its four real characters, one row per character:
# (chi(R), chi(S)) = (+, +), (-, +), (+, -), (-, -); chi(RS) = chi(R) chi(S).
_D2_CHARACTERS = np.array([[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]])


def _orbit_table(n_points):
    """The action of D2 on the collocation indices of an even N.

    Returns (act, rep, elem): act[g, l] = g.l for g = id, R (l -> l + N/2),
    S (l -> -l), RS (l -> N/2 - l), all mod N; rep[l] is the one index of
    l's orbit in 0..N//4 and elem[l] the element with elem[l].l = rep[l].
    Every element is its own inverse, so elem[l].rep[l] = l as well.
    """
    n = int(n_points)
    l = np.arange(n)
    act = np.stack([l, l + n // 2, -l, n // 2 - l]) % n
    elem = np.argmax(act <= n // 4, axis=0)
    return act, act[elem, l], elem


def _expand(block):
    """Full block from its carried columns: a circulant first column, the
    D2 orbit columns (Z[p, l] = Z[g.p, rep l] with g = elem[l]), or the full
    block itself."""
    if block.ndim == 1:
        return linalg.circulant(block)
    n, m = block.shape
    if m == n:
        return block
    act, rep, elem = _orbit_table(n)
    return block[act[elem].T, rep]


def _check_setup(curve, aux_inner, aux_outer, excitation, n_points):
    """The collocation count n_points as an int, once the set-up is checked."""
    geometry.check_placement(curve, aux_inner, aux_outer, excitation)
    n_points = geometry.as_count(n_points, "n_points")
    if n_points < 4:
        raise ValueError("need at least 4 collocation points")
    return n_points


def _collocation(curve, aux_inner, aux_outer, excitation, n_points):
    """Checked set-up of both assemblers: (Nodes, slice of the carried columns of each block)."""
    n_points = _check_setup(curve, aux_inner, aux_outer, excitation, n_points)
    boundary, normals, phis, inner, outer = geometry.collocation_points(
        curve, n_points, aux_inner.curve, aux_outer.curve
    )
    src = slice(0, _carried_columns(curve, aux_inner, aux_outer, len(phis)))
    return Nodes(phis, boundary, normals, inner, outer), src


def _carried(blocks):
    """Evaluated (N, columns) blocks in their carried form: circulant ones as vectors."""
    if blocks[0].shape[1] == 1:
        return tuple(b[:, 0] for b in blocks)
    return blocks


# -- assembly ---------------------------------------------------------------


def assemble_nfm(
    curve,
    aux_inner,
    aux_outer,
    excitation,
    medium1=Medium(),
    medium2=Medium(),
    n_points=40,
):
    """Direct system: currents on the boundary, matching on displaced surfaces.

    Row block 1 cancels the region-1 representation on the inner surface,
    row block 2 cancels the region-2 representation on the outer surface;
    both rows are scaled so the electric-current kernel is Z_j H^(2)_0.
    The right side is _nfm_rhs. Only the carried columns of each
    block are evaluated (see BlockSystem): every matching point against
    boundary point 0 on concentric circles, against boundary points
    0..N//4 on ellipses at even N.
    """
    nodes, src = _collocation(curve, aux_inner, aux_outer, excitation, n_points)
    c_pts, c_nrm, a1_pts, a2_pts = nodes.boundary, nodes.normals, nodes.inner, nodes.outer
    k1, z1 = medium1.k, medium1.Z
    k2, z2 = medium2.k, medium2.Z
    h1, dn1 = kernels(k1, a1_pts, c_pts[src], c_nrm[src])
    h2, dn2 = kernels(k2, a2_pts, c_pts[src], c_nrm[src])
    blocks = (h1, dn1, h2, dn2)
    for block, scale in zip(blocks, (z1, 1j, z2, 1j)):
        np.multiply(scale, block, out=block)  # in place: no block is held twice
    rhs = _nfm_rhs(nodes, excitation, medium1, medium2)
    return BlockSystem(
        *_carried(blocks), rhs, "nfm", curve, nodes, excitation, medium1, medium2
    )


def _nfm_rhs(nodes, excitation, medium1, medium2):
    """Incident data of the direct system at its matching points.

    The incident term lands on the inner rows for an external source and on
    the outer rows for an internal one, scaled like the blocks by Z_j.
    """
    n_points = len(nodes.phis)
    amp = complex(excitation.amplitude)
    rhs = np.zeros(2 * n_points, dtype=complex)
    fil = excitation.position_xy()[None, :]
    if excitation.region == "external":
        h0, _ = kernels(medium1.k, nodes.inner, fil)
        rhs[:n_points] = -amp * medium1.Z * h0[:, 0]
    else:
        h0, _ = kernels(medium2.k, nodes.outer, fil)
        rhs[n_points:] = amp * medium2.Z * h0[:, 0]
    return rhs


def _mas_rhs(nodes, excitation, medium1, medium2):
    """Transmission-condition data at the boundary collocation points.

    Top half: jump of the tangential electric field moved to the right side;
    bottom half: jump of the tangential magnetic field, scaled by -i to
    match the transformed direct system.
    """
    c_pts, c_nrm, n_points = nodes.boundary, nodes.normals, len(nodes.phis)
    amp = complex(excitation.amplitude)
    rhs = np.zeros(2 * n_points, dtype=complex)
    if excitation.region == "external":
        k, z = medium1.k, medium1.Z
        sign = 1.0
    else:
        k, z = medium2.k, medium2.Z
        sign = -1.0
    fil = excitation.position_xy()[None, :]
    h0, slope = kernels(k, c_pts, fil, c_nrm, at_target=True)
    rhs[:n_points] = sign * (k * z / 4.0) * amp * h0[:, 0]
    rhs[n_points:] = sign * (1j * k / 4.0) * amp * slope[:, 0]
    return rhs


def assemble_mas(
    curve,
    aux_inner,
    aux_outer,
    excitation,
    medium1=Medium(),
    medium2=Medium(),
    n_points=40,
):
    """Source system: line sources on the displaced surfaces, matching on C.

    Inner sources radiate the region-1 field with (k1, Z1), outer sources
    the region-2 field with (k2, Z2). Row block 1 is continuity of the
    electric field, row block 2 continuity of the tangential magnetic
    field scaled by -i, with the normal taken at the boundary point. Only
    the carried columns of each block are evaluated (see BlockSystem):
    every boundary point against source point 0 on concentric circles,
    against source points 0..N//4 on ellipses at even N.
    """
    nodes, src = _collocation(curve, aux_inner, aux_outer, excitation, n_points)
    c_pts, c_nrm, a1_pts, a2_pts = nodes.boundary, nodes.normals, nodes.inner, nodes.outer
    k1, z1 = medium1.k, medium1.Z
    k2, z2 = medium2.k, medium2.Z
    # the magnetic matching row takes the aux-source fields' derivative
    # along the boundary normal, so the normal sits at the target
    h1, dn1 = kernels(k1, c_pts, a1_pts[src], c_nrm, at_target=True)
    h2, dn2 = kernels(k2, c_pts, a2_pts[src], c_nrm, at_target=True)
    blocks = (h1, h2, dn1, dn2)
    scales = (-(k1 * z1 / 4.0), +(k2 * z2 / 4.0), -(1j * k1 / 4.0), +(1j * k2 / 4.0))
    for block, scale in zip(blocks, scales):
        np.multiply(scale, block, out=block)  # in place: no block is held twice

    rhs = _mas_rhs(nodes, excitation, medium1, medium2)
    return BlockSystem(
        *_carried(blocks), rhs, "mas", curve, nodes, excitation, medium1, medium2
    )


_RHS = {"nfm": _nfm_rhs, "mas": _mas_rhs}


def excite(system, excitation):
    """The system driven by another line source.

    The blocks, grid and media are those of system, shared and not copied;
    only the right side is built again, by the assembler's own function, so
    it equals that of assembling the system for excitation. Raises
    ValueError for a source on the wrong side of the boundary.
    """
    excitation.validate_against(system.curve)
    rhs = _RHS[system.method](system.nodes, excitation, system.medium1, system.medium2)
    return replace(system, rhs=rhs, excitation=excitation)


# -- solvers ----------------------------------------------------------------


def _relative_residual(applied, rhs):
    scale = float(np.max(np.abs(rhs)))
    err = float(np.max(np.abs(applied - rhs)))
    return err / scale if scale > 0.0 else err


@cache
def _openblas_thread_controls():
    """(get, set) of the thread count of each OpenBLAS copy bundled with numpy and scipy.

    numpy's wheel bundles libscipy_openblas64_ (symbols suffixed 64_) and
    scipy's libscipy_openblas (no suffix) in their .libs directories. A copy
    that is not there, or lacks the symbols, is left out, and its thread
    count is left alone.
    """
    controls = []
    for module, suffix in ((np, "64_"), (scipy, "")):
        libs = Path(module.__file__).parents[1] / (module.__name__ + ".libs")
        for path in sorted(libs.glob("libscipy_openblas*.so*")):
            try:
                lib = ctypes.CDLL(str(path))
                get = getattr(lib, "scipy_openblas_get_num_threads" + suffix)
                put = getattr(lib, "scipy_openblas_set_num_threads" + suffix)
            except (OSError, AttributeError):
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            put.argtypes, put.restype = [ctypes.c_int], None
            controls.append((get, put))
    return tuple(controls)


_PIN_LOCK = threading.Lock()
_pin_depth = 0
_pin_saved = ()


@contextmanager
def _one_blas_thread():
    """Run the body with every bundled OpenBLAS copy on one thread, then restore them.

    Bodies that overlap in several Python threads share one pin: the first
    to enter saves the thread counts and sets them to 1, the last to leave
    restores them, on return or on an exception. The counts are
    process-wide, so BLAS calls made meanwhile outside any pin run on one
    thread too.
    """
    global _pin_depth, _pin_saved
    with _PIN_LOCK:
        if _pin_depth == 0:
            _pin_saved = tuple((put, get()) for get, put in _openblas_thread_controls())
            for put, _ in _pin_saved:
                put(1)
        _pin_depth += 1
    try:
        yield
    finally:
        with _PIN_LOCK:
            _pin_depth -= 1
            if _pin_depth == 0:
                for put, count in _pin_saved:
                    put(count)


def _lu_factor(a):
    """LU factors of a with an infinity-norm condition estimate.

    Returns ((lu, piv), ||a||_inf, rcond); rcond is gecon's estimate of
    1 / (||a||_inf ||a^-1||_inf), 0.0 where gecon fails.
    """
    a_norm = np.linalg.norm(a, np.inf)  # before the LU copy: its |a| scratch is gone by then
    lu, piv = linalg.lu_factor(a)
    if not np.all(np.isfinite(lu)) or np.any(np.diagonal(lu) == 0.0):
        raise ArithmeticError("system is singular to working precision")
    gecon = get_lapack_funcs(("gecon",), (a,))[0]
    rcond, info = gecon(lu, a_norm, norm="I")
    return (lu, piv), a_norm, float(rcond) if info == 0 else 0.0


def _lu_solve(a, factors, rcond, b):
    """x with a x = b from the factors and rcond of _lu_factor.

    One fixed-precision refinement step is taken only when rcond > eps,
    i.e. cond * u < 1 (Higham, IMA J. Numer. Anal. 17 (1997) 495-509):
    beyond that the step adds a^-1 (roundoff), which inflates ||x|| instead
    of shrinking the error.
    """
    x = linalg.lu_solve(factors, b)
    if rcond > _EPS:
        x += linalg.lu_solve(factors, b - a @ x)
    if not np.all(np.isfinite(x)):
        raise ArithmeticError("system is singular to working precision")
    return x


def _blocks(system):
    return system.z11, system.z12, system.z21, system.z22


def _with_shared(system, shared):
    """(system, *shared), once every shared system is checked to carry system's blocks."""
    shared = tuple(shared or ())
    blocks = _blocks(system)
    for other in shared:
        if any(mine is not theirs for mine, theirs in zip(blocks, _blocks(other))):
            raise ValueError("shared systems must carry the blocks of the first (see excite)")
    return (system,) + shared


def _d2_rows(carried, m):
    """Rows g.p of an (N, ...) array for g = id, R, S, RS and the representatives p < m.

    All are views. id, R and RS read runs of rows (0 up, N/2 up and N/2
    down). S's rows 0, N-1, N-2, ... wrap round, so S comes as the pair
    (row 0, the run N-1 down to N-m+1 of p = 1..m-1).
    """
    n = carried.shape[0]
    h = n // 2
    mirror = (carried[:1], carried[n - 1:n - m:-1])
    return carried[:m], carried[h:h + m], mirror, carried[h:h - m:-1]


_PLUS_MINUS = {1: np.add, -1: np.subtract}


def _d2_sum(chi, rows, run, out, cols=slice(None)):
    """out = sum_g chi(g) rows[g][run, cols], left to right: ((Z_id +- Z_R) +- Z_S) +- Z_RS.

    run is a slice of representatives p; S adds its row 0 to p = 0 and its
    run to the p >= 1, which changes no sum's order.
    """
    ident, r, (s_head, s_tail), rs = rows
    _PLUS_MINUS[chi[1]](ident[run, cols], r[run, cols], out=out)
    mirror = _PLUS_MINUS[chi[2]]
    head = int(run.start == 0)  # the rows of out that S's row 0 serves
    mirror(out[:head], s_head[:head, cols], out=out[:head])
    mirror(out[head:], s_tail[run.start + head - 1:run.stop - 1, cols], out=out[head:])
    _PLUS_MINUS[chi[3]](out, rs[run, cols], out=out)


def _d2_character(chi, run, stab, blocks, rhs, parts):
    """Form, factor and solve the system of character chi on the representatives run.

    Writes x_chi and M_chi x_chi of every right side into parts[:, :, :, run]
    and returns (||M_chi||_inf, rcond). M_chi and its LU die on return, so
    the next character's system is never formed while they are alive.
    """
    k = run.stop - run.start
    mat = np.empty((2, k, 2, k), dtype=complex)  # (row block, p, column block, l)
    for i, rows in enumerate(blocks):
        _d2_sum(chi, rows, run, mat[i // 2, :, i % 2], run)
    stabilised = stab[run] > 1
    mat[..., stabilised] /= stab[run][stabilised]
    mat = mat.reshape(2 * k, 2 * k)
    factors, m_norm, rcond = _lu_factor(mat)
    for rows, part in zip(rhs, parts):
        b = np.empty((2, k), dtype=complex)
        _d2_sum(chi, rows, run, b.T)
        b /= 4.0
        x_chi = _lu_solve(mat, factors, rcond, b.ravel())
        part[:, :, run] = np.stack([x_chi, mat @ x_chi]).reshape(2, 2, k)
    return m_norm, rcond


def _d2_solve(systems):
    """Split solve of D2 systems that share their blocks.

    Returns one (x, applied) pair per system and the shared cond.
    For each character chi and p, l over the representatives whose
    stabiliser chi is trivial on, M_chi[p, l] = (1/|Stab l|) sum_g chi(g)
    Z[g.p, l] in each block and b_chi[p] = (1/4) sum_g chi(g) b[g.p]. A
    character that admits no representative ((chi(R), chi(S)) = (+, -) at
    N = 4) has no system and is skipped. The solution is x[g.l] = sum_chi chi(g)
    x_chi[l], and A x is recombined from the M_chi x_chi the same way. Each
    M_chi is formed and factored once, solved for the b_chi of every system
    and released before the next is formed (_d2_character), so besides the
    carried blocks one system and its LU are alive at a time.

    Bit-identity contract: each sum runs over g = id, R, S, RS from left
    to right, ((Z_id +- Z_R) +- Z_S) +- Z_RS, before any division. Then
    only the columns with |Stab l| = 2 (l = 0, and l = N/4 when 4 divides
    N) are halved, as a division by 1 changes no nonzero bit, and b_chi is
    divided by 4.
    OpenBLAS's zgemm accumulates a product with the character table in the
    same order, so every M_chi and b_chi, and so every bit of the
    solution, equals that of the gather-and-tensordot reduction kept in
    tests/d2_reference.py. The sums are elementwise: forming the systems
    makes no BLAS call.
    """
    system = systems[0]
    n = system.n_points
    act, rep, elem = _orbit_table(n)
    m = system.z11.shape[1]
    fixed = act[:, :m] == np.arange(m)
    stab = fixed.sum(axis=0)
    blocks = [_d2_rows(z, m) for z in _blocks(system)]
    rhs = [_d2_rows(s.rhs.reshape(2, n).T, m) for s in systems]
    # (system, chi, x or A x, row block, rep)
    parts = np.zeros((len(systems), 4, 2, 2, m), dtype=complex)
    norms, inv_norms = [], []
    for c, chi in enumerate(_D2_CHARACTERS):
        keep = np.flatnonzero(chi @ fixed == stab)
        if keep.size == 0:
            continue
        # only 0 and N/4 have a stabiliser beyond id, so keep is a run
        run = slice(int(keep[0]), int(keep[-1]) + 1)
        m_norm, rcond = _d2_character(chi, run, stab, blocks, rhs, parts[:, c])
        norms.append(m_norm)
        inv_norms.append(1.0 / (rcond * m_norm) if rcond > 0.0 else np.inf)
    pairs = []
    for part in parts:
        x, applied = np.sum(_D2_CHARACTERS[:, None, None, elem] * part[..., rep], axis=0)
        pairs.append((x.ravel(), applied.ravel()))
    return pairs, float(max(norms) * max(inv_norms))


def solve_dense(system, shared=None):
    """LU solve with a condition estimate, refined when that can help.

    A D2 system (see BlockSystem) splits into one independent system per
    character of D2, of about N/2 unknowns each (_d2_solve); each is
    factored on its own and the residual is recombined from theirs, so no
    2N x 2N array is formed. Every other system, circulant ones included,
    takes one full LU. With shared systems (see solve) the D2 split factors
    each character's system once and solves it for every right side, and a
    full LU is factored once, each right side taking the lu_solve calls of
    a lone solve. All of it runs on one BLAS thread (_one_blas_thread), so
    no bit depends on the BLAS thread count.
    """
    systems = _with_shared(system, shared)
    n = system.n_points
    with _one_blas_thread():
        if system.d2:
            pairs, cond = _d2_solve(systems)
        else:
            a = system.matrix
            factors, _, rcond = _lu_factor(a)
            cond = float(1.0 / rcond) if rcond > 0.0 else np.inf
            pairs = []
            for other in systems:
                x = _lu_solve(a, factors, rcond, other.rhs)
                pairs.append((x, a @ x))
    solutions = tuple(
        DiscreteSolution(
            other, x[:n], x[n:], "dense", cond,
            dense_residual=_relative_residual(applied, other.rhs),
        )
        for other, (x, applied) in zip(systems, pairs)
    )
    return solutions[0] if shared is None else solutions


def _mode_singular_values(blocks, det):
    """Both singular values of every mode's 2x2 system, from the (4, N) stack of
    the blocks' spectra l11, l12, l21, l22 and the determinants.

    |l|^2 is taken of the whole stack in one pass; the sum over its four
    rows runs row by row, as l11 + l12 + l21 + l22 adds them.
    """
    fro2 = np.abs(blocks)
    np.square(fro2, out=fro2)
    fro2 = fro2.sum(axis=0)
    det_abs = np.abs(det)
    disc = np.sqrt(np.maximum(fro2**2 - 4.0 * det_abs**2, 0.0))
    s_max = np.sqrt((fro2 + disc) / 2.0)
    s_min = np.divide(det_abs, s_max, out=np.zeros_like(s_max), where=s_max > 0.0)
    return s_max, s_min


def _rank_one_solve(blocks, b1, b2, det, adj_b1, adj_b2, s_max, s_min):
    """Minimum-norm least-squares solution of 2x2 systems kept at rank one.

    blocks stacks the systems' entries l11, l12, l21, l22 as rows.
    x = v v^H A^H b / s1^2 with v the top eigenvector of A^H A, whose
    projector is v v^H = (A^H A - s2^2) / (s1^2 - s2^2). For 2x2 matrices
    A^H A A^H = |A|_F^2 A^H - conj(det) adj(A), so with adj(A) b, the Cramer
    numerators, x = (s1^2 A^H b - conj(det) adj(A) b) / (s1^2 (s1^2 - s2^2)).
    """
    lam1 = s_max * s_max
    lam2 = s_min * s_min
    scale = lam1 * (lam1 - lam2)
    det = det.conj()
    c11, c12, c21, c22 = blocks.conj()
    x1 = (lam1 * (c11 * b1 + c21 * b2) - det * adj_b1) / scale
    x2 = (lam1 * (c12 * b1 + c22 * b2) - det * adj_b2) / scale
    return x1, x2


def solve_circulant_dft(system, shared=None):
    """Per-mode 2x2 pseudo-inverse solve through the DFT; circles only.

    Every block of a concentric-circle system is circulant, so the DFT of
    the first columns gives its eigenvalues and each Fourier mode of the
    unknowns satisfies an independent 2x2 system. Works for any N, odd or
    even, and for both methods; raises when the system is not circulant.
    A mode singular value below machine epsilon times the largest over all
    modes is roundoff of the column sums, not the mode's true eigenvalue,
    so it is dropped: such a mode is solved at rank one in least squares,
    or set to zero when both its singular values go. Every other mode
    keeps the Cramer solve. No solution applies the blocks until its
    residual is read (_circulant_apply). With shared systems (see solve)
    the per-mode data (spectra, determinants, singular values and kept
    modes) are computed once for all of them. Each transform is one
    numpy.fft call over a stack of rows, which gives every row the bits of
    its own call: the block columns and the right sides share one.
    """
    if not system.circulant:
        raise ValueError("system is not circulant; use the dense path")
    systems = _with_shared(system, shared)
    n = system.n_points
    # one stack of rows: the four block columns, then the two halves of each right side
    stack = np.concatenate(_blocks(system) + tuple(s.rhs for s in systems)).reshape(-1, n)
    spectra = np.fft.fft(stack)
    blocks, rhs_modes = spectra[:4], spectra[4:]
    l11, l12, l21, l22 = blocks
    det = l11 * l22 - l12 * l21
    s_max, s_min = _mode_singular_values(blocks, det)
    s_top = float(s_max.max())
    floor = _EPS * s_top
    keep = s_min > floor
    dropped = 2 * n - int(np.count_nonzero(keep)) - int(np.count_nonzero(s_max > floor))
    if dropped:
        # the dropped modes form one band around N/2, so solving the band's
        # span as slices avoids gathering them; kept modes inside the span
        # keep their Cramer values and rank-zero modes stay zero
        lost = np.flatnonzero(~keep)
        band = slice(lost[0], lost[-1] + 1)
        rank_one = ~keep[band] & (s_max[band] > floor)
    s_low = float(s_min.min())
    cond = s_top / s_low if s_low > 0.0 else np.inf

    # rhs_modes and modes hold the two halves of system e in rows 2e and 2e + 1
    modes = np.zeros_like(rhs_modes)
    for b1, b2, u, v in zip(rhs_modes[::2], rhs_modes[1::2], modes[::2], modes[1::2]):
        adj_b1 = b1 * l22 - l12 * b2
        adj_b2 = l11 * b2 - l21 * b1
        np.divide(adj_b1, det, out=u, where=keep)
        np.divide(adj_b2, det, out=v, where=keep)
        if dropped:
            parts = (b1, b2, det, adj_b1, adj_b2, s_max, s_min)
            with np.errstate(divide="ignore", invalid="ignore"):
                x1, x2 = _rank_one_solve(blocks[:, band], *(part[band] for part in parts))
            np.copyto(u[band], x1, where=rank_one)
            np.copyto(v[band], x2, where=rank_one)
    currents = np.fft.ifft(modes)
    solutions = tuple(
        DiscreteSolution(other, electric, magnetic, "dft", cond, dropped)
        for other, electric, magnetic in zip(systems, currents[::2], currents[1::2])
    )
    return solutions[0] if shared is None else solutions


def _circulant_apply(solution):
    """A x of a DFT solution, laid out as rhs: the blocks' spectra times the
    solution's, transformed back."""
    l11, l12, l21, l22 = np.fft.fft(np.stack(_blocks(solution.system)))
    f_e, f_m = solution.spectra
    products = np.stack([l11 * f_e + l12 * f_m, l21 * f_e + l22 * f_m])
    return np.fft.ifft(products).ravel()


def solve(system, shared=None):
    """Solve on the DFT path if the system is circulant, on the dense path otherwise.

    shared, if given, is a sequence of systems that carry system's blocks
    with other right sides, as excite makes them, so one assembly serves
    every excitation of a grid: the blocks are factored once for all of
    them, and one DiscreteSolution per system comes back as a tuple,
    system's first. Each equals, bit for bit, the solution of its system
    solved alone. Without shared, the one solution is returned.
    """
    return (solve_circulant_dft if system.circulant else solve_dense)(system, shared)


def mode_amplitudes(solution):
    """Fourier coefficients (DFT / N) of the two solved amplitude vectors."""
    n = solution.n_points
    f_e, f_m = solution.spectra
    return f_e / n, f_m / n


def normalized_currents(solution):
    """Current densities per unit length sampled at the collocation angles.

    Collocation is uniform in the polar angle, so each amplitude is the
    trapezoidal weight 2 pi / N times a density per unit angle; dividing by
    the speed |c'(phi_l)| = hypot(r, r') gives the density per unit length
    (N / (2 pi rho) on a circle). Meaningful for boundary-current ('nfm')
    solutions; for source solutions the same scaling is applied to whatever
    the amplitudes are.
    """
    curve = solution.system.curve
    phis = solution.system.nodes.phis
    speed = np.hypot(curve.radius(phis), curve.radius_deriv(phis))
    scale = solution.n_points / (_TWO_PI * speed)
    return scale * solution.electric, scale * solution.magnetic


# -- coefficient oracles for the circulant path ------------------------------


@dataclass(frozen=True)
class QSumCoefficients:
    """Per-mode eigendata of a circular direct system, via bilateral sums.

    For an array of modes m, every other field but n_points is an array
    over those modes.
    """

    m: int
    n_points: int
    d: complex
    b1: complex
    b2: complex
    b3: complex
    b4: complex


def _folded(table, n_points, q_max):
    """table's orders n = r + qN summed per residue r, and ring q_max's alone (or 0)."""
    rings = -(-table.size // n_points)
    padded = np.zeros(rings * n_points, dtype=complex)
    padded[: table.size] = table
    padded = padded.reshape(rings, n_points)
    return padded.sum(axis=0), (np.zeros(n_points) if q_max is None else padded[-1])


def _mode_sums(plus, minus, modes, n_points, q_max):
    """Each mode m's sum over the orders nu = qN + m, q in Z: plus[nu], or minus[-nu] below 0.

    Products are even in their order, so the orders nu >= 0 of mode m fold
    plus at residue m, and the orders nu < 0 fold minus at residue
    (N - m) mod N, without order 0, which both sides hold once, and, when
    q_max caps the rings, without the ring q_max on that side.
    """
    (up, _), (down, last) = _folded(plus, n_points, q_max), _folded(minus, n_points, q_max)
    back = (n_points - modes) % n_points
    return up[modes] + np.where(modes == 0, down[0] - minus[0], down[back] - last[back])


def q_sum_coefficients(
    m,
    n_points,
    curve,
    aux_inner,
    aux_outer,
    excitation,
    medium1=Medium(),
    medium2=Medium(),
    q_max=None,
):
    """Eigenvalue ingredients of the circular system as explicit q-sums.

    The DFT of each first column equals N times one of these sums, e.g.
    fft(z11 column)[m] = N Z1 b1 with b1 = sum_q J_{qN+m}(k1 r_aux1)
    H2_{qN+m}(k1 r_cyl), so they cross-check the whole circulant path
    without ever assembling a matrix. d carries the excitation column
    (inner rows for an external source, outer rows for an internal one).
    q_max=None keeps rings until they stop mattering; q_max=0 isolates the
    central term, which dominates for small m.

    Each sum folds one table of Graf's products (specfun.graf_products)
    modulo N (see _mode_sums); three tables, one per argument pair, serve
    the five sums. So a sum is formed wherever its products are
    representable, however far a J or H2 factor alone leaves the float
    range, and no mode raises. A table runs through ring q_max, or with
    q_max=None to specfun.graf_order's last order above N/2, the largest
    lowest order min(m, N - m) of a mode. m is one mode index or a 1-D
    array of them; every mode reads the same tables, so it gets the bits
    of its one-mode call.
    """
    if curve.kind != "circle":
        raise ValueError("q-sum coefficients are defined for circles only")
    n_points = _check_setup(curve, aux_inner, aux_outer, excitation, n_points)
    modes = np.asarray(m)
    if modes.ndim > 1:
        raise ValueError("m must be one mode index or a 1-D array of them")
    if not np.all(modes == np.round(modes)):
        raise ValueError("mode index must be an integer")
    if not np.all((0 <= modes) & (modes < n_points)):
        raise ValueError("mode index must satisfy 0 <= m < n_points")
    modes = modes.astype(int)

    r_cyl = curve.params["radius"]
    r_in = aux_inner.curve.params["radius"]
    r_out = aux_outer.curve.params["radius"]
    k1, k2 = medium1.k, medium2.k
    r_fil = excitation.rho
    if excitation.region == "external":
        source = (k1 * r_in, k1 * r_fil, -1.0)
    else:
        source = (k2 * r_fil, k2 * r_out, +1.0)
    tables = []
    # the forms each sum reads: b1 and b2, b3 and b4, d
    pairs = ((k1 * r_in, k1 * r_cyl, (0, 2)), (k2 * r_cyl, k2 * r_out, (0, 1)))
    for x, y, forms in pairs + ((*source[:2], (0,)),):
        top = (q_max + 1) * n_points - 1 if q_max is not None else specfun.graf_order(
            x, y, slope=x, cap=1000 * n_points, base=n_points // 2
        )
        if top is None:
            raise ArithmeticError("q-sums failed to settle within 1000 rings")
        tables.append(specfun.graf_products(x, y, top, forms))
    (t1, t2), (t3, t4), (t_src,) = tables
    rotation = np.exp(-1j * excitation.phi * np.arange(t_src.size))
    modes = np.atleast_1d(modes)
    b1, b2 = (_mode_sums(t, t, modes, n_points, q_max) for t in (t1, -t2))
    b3, b4 = (_mode_sums(t, t, modes, n_points, q_max) for t in (t3, -t4))
    d = source[2] * _mode_sums(t_src * rotation, t_src * rotation.conj(), modes, n_points, q_max)
    if np.ndim(m) == 0:
        d, b1, b2, b3, b4 = (complex(v[0]) for v in (d, b1, b2, b3, b4))
        modes = int(modes[0])
    return QSumCoefficients(modes, n_points, d, b1, b2, b3, b4)
