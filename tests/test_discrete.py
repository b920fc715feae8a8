"""Tests for the collocation systems, their two solvers and the mode oracles.

The circular reference problem (boundary radius 2, relative permittivity
4.2, external source at radius 4 or internal at radius 1) exercises every
identity: circulant structure, the DFT closed form against the dense solve,
the bilateral q-sums against the DFT eigenvalues, and the aux-free limits
against the continuous density coefficients.
"""

import ctypes
import os
import subprocess
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
import scipy
from hypothesis import given, settings
from hypothesis import strategies as st

from cylwave import continuous, diagnostics, discrete, exact, fields, geometry, specfun
from cylwave.exact import Medium, exact_field

import d2_reference
import frozen_series
from circulant import is_circulant
from oracles import addition_series_h0_d1, addition_series_h0_d2, gauss_solve

M1 = Medium()
M2 = Medium(4.2, 1.0)
CIRCLE = geometry.BoundaryCurve.circle(2.0)
AUX_IN = geometry.AuxiliarySurface.from_radius(CIRCLE, 1.5)
AUX_OUT = geometry.AuxiliarySurface.from_radius(CIRCLE, 2.5)
WIDE_IN = geometry.AuxiliarySurface.from_radius(CIRCLE, 0.5)
WIDE_OUT = geometry.AuxiliarySurface.from_radius(CIRCLE, 10.0)
NEAR = tuple(geometry.AuxiliarySurface.from_radius(CIRCLE, r) for r in (1.99, 2.01))
EXT = geometry.Excitation("external", 4.0)
INT = geometry.Excitation("internal", 1.0)

ELLIPSE = geometry.BoundaryCurve.ellipse(2.0, 1.6)
ELL_IN = geometry.AuxiliarySurface.from_scale(ELLIPSE, 0.33)
ELL_OUT = geometry.AuxiliarySurface.from_scale(ELLIPSE, 5.0)
ELL_EXT = geometry.Excitation("external", 4.0)
ELL_MILD = tuple(geometry.AuxiliarySurface.from_scale(ELLIPSE, s) for s in (0.8, 1.25))
# far-field sample points of an ellipse solve: two rings of four angles
ELL_RINGS = [(rho, region, (k + 0.5) * np.pi / 2.0) for rho, region in ((8.0, 1), (1.0, 2))
             for k in range(4)]


def _nfm(exc, n_points, aux=(AUX_IN, AUX_OUT)):
    return discrete.assemble_nfm(CIRCLE, aux[0], aux[1], exc, M1, M2, n_points=n_points)


def _mas(exc, n_points, aux=(AUX_IN, AUX_OUT)):
    return discrete.assemble_mas(CIRCLE, aux[0], aux[1], exc, M1, M2, n_points=n_points)


_ASSEMBLE = {"nfm": _nfm, "mas": _mas}


def _kernel_blocks(route, n_points):
    """The four blocks of the snug circle system, every point pair evaluated."""
    c_pts, c_nrm, _ = geometry.collocation_points(CIRCLE, n_points)
    a1_pts, _, _ = geometry.collocation_points(AUX_IN.curve, n_points)
    a2_pts, _, _ = geometry.collocation_points(AUX_OUT.curve, n_points)
    (k1, z1), (k2, z2) = (M1.k, M1.Z), (M2.k, M2.Z)
    if route == "nfm":
        h1, dn1 = discrete.kernels(k1, a1_pts, c_pts, c_nrm)
        h2, dn2 = discrete.kernels(k2, a2_pts, c_pts, c_nrm)
        return z1 * h1, 1j * dn1, z2 * h2, 1j * dn2
    h1, dn1 = discrete.kernels(k1, c_pts, a1_pts, c_nrm, at_target=True)
    h2, dn2 = discrete.kernels(k2, c_pts, a2_pts, c_nrm, at_target=True)
    return (
        -(k1 * z1 / 4.0) * h1,
        +(k2 * z2 / 4.0) * h2,
        -(1j * k1 / 4.0) * dn1,
        +(1j * k2 / 4.0) * dn2,
    )


def _hankel2_kernels(k, targets, sources, normals, at_target):
    """H0 and the normal-derivative kernel from the checked specfun.hankel2,
    with the offsets, distances and cosines formed as kernels forms them."""
    dx = targets[:, None, 0] - sources[None, :, 0]
    dy = targets[:, None, 1] - sources[None, :, 1]
    dist = np.hypot(dx, dy)
    if at_target:
        cos = (dx * normals[:, None, 0] + dy * normals[:, None, 1]) / dist
    else:
        cos = (-dx * normals[None, :, 0] - dy * normals[None, :, 1]) / dist
    return specfun.hankel2(0, k * dist), specfun.hankel2(1, k * dist) * cos


# -- structure ---------------------------------------------------------------


@pytest.mark.parametrize("curve", [CIRCLE, ELLIPSE], ids=["circle", "ellipse"])
@pytest.mark.parametrize("route", ["nfm", "mas"])
def test_kernels_have_the_bits_of_hankel2(route, curve):
    # the carried columns of both routes' blocks, and a one-point field row,
    # equal H0 and H1 read through the checked specfun.hankel2
    aux = tuple(geometry.AuxiliarySurface.from_scale(curve, s) for s in (0.75, 1.25))
    assemble = discrete.assemble_nfm if route == "nfm" else discrete.assemble_mas
    system = assemble(curve, *aux, EXT, M1, M2, n_points=16)
    nodes = system.nodes
    cols = 1 if system.circulant else system.z11.shape[1]
    assert cols == (1 if curve is CIRCLE else 5)
    (k1, z1), (k2, z2) = (M1.k, M1.Z), (M2.k, M2.Z)
    if route == "nfm":
        src = (nodes.boundary[:cols], nodes.normals[:cols], False)
        h1, dn1 = _hankel2_kernels(k1, nodes.inner, *src)
        h2, dn2 = _hankel2_kernels(k2, nodes.outer, *src)
        want = (z1 * h1, 1j * dn1, z2 * h2, 1j * dn2)
    else:
        h1, dn1 = _hankel2_kernels(k1, nodes.boundary, nodes.inner[:cols], nodes.normals, True)
        h2, dn2 = _hankel2_kernels(k2, nodes.boundary, nodes.outer[:cols], nodes.normals, True)
        want = (
            -(k1 * z1 / 4.0) * h1,
            +(k2 * z2 / 4.0) * h2,
            -(1j * k1 / 4.0) * dn1,
            +(1j * k2 / 4.0) * dn2,
        )
    for got, block in zip((system.z11, system.z12, system.z21, system.z22), want):
        assert got.tobytes() == (block[:, 0] if system.circulant else block).tobytes()
    point = np.array([[10.0 * np.cos(0.3), 10.0 * np.sin(0.3)]])
    got = discrete.kernels(k1, point, nodes.boundary, nodes.normals)
    want = _hankel2_kernels(k1, point, nodes.boundary, nodes.normals, False)
    assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))


@pytest.mark.parametrize("n_points", [7, 8, 81])
@pytest.mark.parametrize("exc", [EXT, INT], ids=["external", "internal"])
@pytest.mark.parametrize("route", ["nfm", "mas"])
def test_carried_columns_are_column_zero_of_the_kernel_blocks(route, exc, n_points):
    system = _ASSEMBLE[route](exc, n_points)
    assert system.circulant
    carried = (system.z11, system.z12, system.z21, system.z22)
    for column, block in zip(carried, _kernel_blocks(route, n_points)):
        assert is_circulant(block)
        assert np.array_equal(column, block[:, 0])


def test_circle_blocks_are_circulant():
    # the same aux circles passed as generic star curves get full blocks,
    # evaluated over every point pair: they are circulant, and the expanded
    # first columns of the circle system reproduce them
    def ring(radius, side):
        curve = geometry.BoundaryCurve.star(
            lambda phi: np.full_like(np.asarray(phi, dtype=float), radius),
            lambda phi: np.zeros_like(np.asarray(phi, dtype=float)),
        )
        return geometry.AuxiliarySurface(curve, side)

    aux = (ring(1.5, "inner"), ring(2.5, "outer"))
    for assemble in (discrete.assemble_nfm, discrete.assemble_mas):
        carried = assemble(CIRCLE, AUX_IN, AUX_OUT, EXT, M1, M2, n_points=12)
        full = assemble(CIRCLE, *aux, EXT, M1, M2, n_points=12)
        assert carried.circulant and carried.z11.shape == (12,)
        assert not full.circulant and full.z11.shape == (12, 12)
        assert all(is_circulant(block) for _, block in full.named_blocks())
        scale = np.max(np.abs(full.matrix))
        assert np.max(np.abs(carried.matrix - full.matrix)) < 1e-13 * scale
        assert discrete.solve(full).path == "dense"


def test_ellipse_blocks_are_not_circulant():
    system = discrete.assemble_nfm(ELLIPSE, ELL_IN, ELL_OUT, ELL_EXT, M1, M2, n_points=40)
    assert not system.circulant
    with pytest.raises(ValueError, match="not circulant"):
        discrete.solve_circulant_dft(system)


def _star_twin(curve):
    """The same curve passed as a generic star curve, so it gets full blocks."""
    return geometry.BoundaryCurve.star(curve.radius, curve.radius_deriv)


def _ellipse_and_twin(assemble, aux, exc, n_points):
    carried = assemble(ELLIPSE, *aux, exc, M1, M2, n_points=n_points)
    twin_aux = [geometry.AuxiliarySurface(_star_twin(a.curve), a.side) for a in aux]
    full = assemble(_star_twin(ELLIPSE), *twin_aux, exc, M1, M2, n_points=n_points)
    return carried, full


@pytest.mark.parametrize("n_points", [4, 6, 8, 12, 40, 42])
@pytest.mark.parametrize("assemble", [discrete.assemble_nfm, discrete.assemble_mas],
                         ids=["nfm", "mas"])
def test_ellipse_blocks_carry_their_d2_orbit_columns(assemble, n_points):
    # the half-turn (l -> l + N/2) and the mirror (l -> -l) map each
    # ellipse's collocation points onto themselves, so every block is fixed
    # by D2 and columns 0..N//4, one per orbit, are all the system carries
    # (N mod 4 = 2 at 6 and 42); the star twin evaluates every point pair
    for aux in ((ELL_IN, ELL_OUT), ELL_MILD):
        carried, full = _ellipse_and_twin(assemble, aux, ELL_EXT, n_points)
        assert carried.d2 and not carried.circulant
        assert not full.d2 and full.z11.shape == (n_points, n_points)
        m = n_points // 4 + 1
        columns = (carried.z11, carried.z12, carried.z21, carried.z22)
        for column, (name, block) in zip(columns, full.named_blocks()):
            assert column.shape == (n_points, m)
            assert np.array_equal(column, block[:, :m]), name
        scale = np.max(np.abs(full.matrix))
        assert np.max(np.abs(carried.matrix - full.matrix)) < 1e-13 * scale
        assert np.array_equal(carried.rhs, full.rhs)


@pytest.mark.parametrize("n_points", [7, 41])
def test_odd_ellipse_systems_keep_full_blocks(n_points):
    for assemble in (discrete.assemble_nfm, discrete.assemble_mas):
        system = assemble(ELLIPSE, ELL_IN, ELL_OUT, ELL_EXT, M1, M2, n_points=n_points)
        assert not system.d2 and not system.circulant
        carried = (system.z11, system.z12, system.z21, system.z22)
        assert all(block.shape == (n_points, n_points) for block in carried)


def test_rhs_lands_on_the_matching_rows():
    ext = _nfm(EXT, 16)
    assert np.all(ext.rhs[16:] == 0.0) and np.any(ext.rhs[:16] != 0.0)
    internal = _nfm(INT, 16)
    assert np.all(internal.rhs[:16] == 0.0) and np.any(internal.rhs[16:] != 0.0)


def test_rotating_the_source_permutes_rhs_and_solution():
    n = 12
    base = _nfm(EXT, n)
    turned = _nfm(geometry.Excitation("external", 4.0, phi=2 * np.pi / n), n)
    assert np.max(np.abs(np.roll(base.rhs[:n], 1) - turned.rhs[:n])) < 1e-13
    a = discrete.solve(base)
    b = discrete.solve(turned)
    assert np.max(np.abs(np.roll(a.electric, 1) - b.electric)) < 1e-12
    assert np.max(np.abs(np.roll(a.magnetic, 1) - b.magnetic)) < 1e-12


def test_dipole_kernel_agrees_with_the_addition_series():
    # entry (p, l) of the inner coupling block is the cosine-weighted H2_1
    # kernel between aux radius and boundary radius, which the specfun
    # addition series reproduces from the Bessel side.
    n = 8
    k = M2.k
    c_pts, c_nrm, c_phi = geometry.collocation_points(CIRCLE, n)
    a_pts, _, a_phi = geometry.collocation_points(AUX_IN.curve, n)
    _, kernel = discrete.kernels(k, a_pts, c_pts, c_nrm)
    for p, l in ((0, 0), (2, 5), (7, 1)):
        theta = c_phi[l] - a_phi[p]
        series = addition_series_h0_d2(k * 1.5, k * 2.0, theta, n_max=150)
        assert abs(kernel[p, l] - series) < 1e-12 * abs(series)

    _, outer = discrete.kernels(k, geometry.collocation_points(AUX_OUT.curve, n)[0], c_pts, c_nrm)
    for p, l in ((0, 3), (4, 4)):
        theta = c_phi[l] - a_phi[p]
        series = addition_series_h0_d1(k * 2.0, k * 2.5, theta, n_max=150)
        assert abs(outer[p, l] - series) < 1e-12 * abs(series)


@pytest.mark.parametrize("n_points", [7, 8])
def test_target_normal_kernel_is_the_transposed_source_normal_kernel(n_points):
    # the source route's kernels (normal at the boundary target) against
    # the direct route's (normal at the boundary source), bit for bit
    for aux, medium in ((AUX_IN, M1), (AUX_OUT, M2), (ELL_MILD[0], M1), (ELL_MILD[1], M2)):
        curve = CIRCLE if aux.curve.kind == "circle" else ELLIPSE
        c_pts, c_nrm, _ = geometry.collocation_points(curve, n_points)
        a_pts, _, _ = geometry.collocation_points(aux.curve, n_points)
        at_target = discrete.kernels(medium.k, c_pts, a_pts, c_nrm, at_target=True)
        at_source = discrete.kernels(medium.k, a_pts, c_pts, c_nrm)
        for mine, theirs in zip(at_target, at_source):
            assert np.array_equal(mine, theirs.T)


def test_assembly_validation():
    with pytest.raises(ValueError, match="inner surface first"):
        discrete.assemble_nfm(CIRCLE, AUX_OUT, AUX_IN, EXT, M1, M2, n_points=8)
    with pytest.raises(ValueError, match="at least 4"):
        _nfm(EXT, 3)
    with pytest.raises(ValueError, match="outside the boundary"):
        _nfm(geometry.Excitation("external", 1.5), 8)


def test_assembles_and_solves_on_a_star_curve():
    star = geometry.BoundaryCurve.star(
        lambda phi: 2.0 + 0.1 * np.cos(3.0 * np.asarray(phi)),
        lambda phi: -0.3 * np.sin(3.0 * np.asarray(phi)),
    )
    aux_in = geometry.AuxiliarySurface.from_scale(star, 0.75)
    aux_out = geometry.AuxiliarySurface.from_scale(star, 1.4)
    system = discrete.assemble_nfm(star, aux_in, aux_out,
                                   geometry.Excitation("external", 5.0), M1, M2, n_points=24)
    assert not system.circulant
    solution = discrete.solve(system)
    assert solution.path == "dense"
    assert solution.residual < 1e-12


@pytest.mark.parametrize(
    "bad",
    [40.7, np.inf, np.nan, True, np.array(True)],
    ids=["40.7", "inf", "nan", "bool", "0d-bool"],
)
def test_a_count_that_is_not_a_whole_number_is_refused_by_name(bad):
    # each site converts its count to an int: 40.7 must not become 40, nor
    # inf an OverflowError, nor a 0-d bool array 1; a whole float and a 0-d
    # integer array are still counts
    geo = (CIRCLE, AUX_IN, AUX_OUT)
    ring = (EXT, 1, 10.0, [0.1, 0.2], 2.0, M1, M2)
    calls = [
        ("n_max", lambda: exact.exact_ring(*ring, n_max=bad)),
        ("n_points", lambda: discrete.assemble_nfm(*geo, EXT, M1, M2, n_points=bad)),
        ("n_points", lambda: discrete.q_sum_coefficients(3, bad, *geo, EXT, M1, M2)),
        ("N", lambda: geometry.collocation_points(CIRCLE, bad)),
        ("n_list entry", lambda: diagnostics.oscillation_scan("nfm", geo, EXT, (M1, M2), (bad, 41))),
        ("n_test", lambda: fields.boundary_traces(discrete.solve(_mas(EXT, 12)), n_test=bad)),
    ]
    for name, call in calls:
        with pytest.raises(ValueError, match="%s must be an integer" % name):
            call()
    whole = _nfm(EXT, 40.0)
    assert whole.n_points == 40 and whole.z11.tobytes() == _nfm(EXT, 40).z11.tobytes()
    assert diagnostics.oscillation_scan("nfm", geo, EXT, (M1, M2), (40.0,)).n_points == (40,)
    by_array = exact.exact_ring(*ring, n_max=np.array(60))
    assert by_array.value.tobytes() == exact.exact_ring(*ring, n_max=60).value.tobytes()


# -- the footnote transform --------------------------------------------------


@pytest.mark.parametrize(
    "curve, aux_in, aux_out",
    [(CIRCLE, AUX_IN, AUX_OUT), (ELLIPSE, ELL_IN, ELL_OUT)],
    ids=["circle", "ellipse"],
)
@pytest.mark.parametrize("exc", [EXT, INT], ids=["external", "internal"])
def test_transform_matches_direct_source_assembly(curve, aux_in, aux_out, exc):
    # (diag(-k1/4 I_N, +k2/4 I_N) A_nfm)^T against each block of A_mas; odd N
    # and 42 (N mod 4 = 2) expand circulant and D2 orbit columns of both sides
    for n_points in (7, 8, 42):
        direct = discrete.assemble_nfm(curve, aux_in, aux_out, exc, M1, M2, n_points=n_points)
        reference = discrete.assemble_mas(curve, aux_in, aux_out, exc, M1, M2, n_points=n_points)
        assert direct.circulant == reference.circulant == (curve is CIRCLE)
        rows = np.repeat([-M1.k / 4.0, M2.k / 4.0], n_points)[:, None]
        transformed = (rows * direct.matrix).T.reshape(2, n_points, 2, n_points)
        for i, (name, b) in enumerate(reference.named_blocks()):
            a = transformed[i // 2, :, i % 2]
            scale = np.max(np.abs(b))
            assert np.max(np.abs(a - b)) < 1e-14 * scale, (name, n_points)


def test_transform_preserves_conditioning_up_to_the_row_scalings():
    # with equal wavenumbers the two scalings coincide, so the assembled
    # source matrix has exactly the singular values of the scaled direct one
    vacuum = Medium()
    direct = discrete.assemble_nfm(CIRCLE, AUX_IN, AUX_OUT, EXT, vacuum, vacuum, n_points=10)
    source = discrete.assemble_mas(CIRCLE, AUX_IN, AUX_OUT, EXT, vacuum, vacuum, n_points=10)
    s_a = np.linalg.svd(direct.matrix, compute_uv=False)
    s_b = np.linalg.svd(source.matrix, compute_uv=False)
    assert np.allclose(s_b, (vacuum.k / 4.0) * s_a, rtol=1e-12)


# -- solvers ------------------------------------------------------------------


def _toy_system(z11, z12, z21, z22, rhs):
    return discrete.BlockSystem(
        z11, z12, z21, z22, np.asarray(rhs, dtype=complex), "nfm",
        CIRCLE, discrete._collocation(CIRCLE, AUX_IN, AUX_OUT, EXT, 4)[0], EXT, M1, M2,
    )


def test_identity_toy_system_returns_the_rhs():
    eye = np.eye(4, dtype=complex)
    zero = np.zeros((4, 4), dtype=complex)
    rhs = np.arange(8) + 1j * np.arange(8)[::-1]
    solution = discrete.solve_dense(_toy_system(eye, zero, zero, eye, rhs))
    assert np.allclose(solution.vector, rhs, atol=1e-15)
    assert solution.residual < 1e-15


@pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
def test_singular_toy_system_raises():
    zero = np.zeros((4, 4), dtype=complex)
    with pytest.raises(ArithmeticError, match="singular"):
        discrete.solve_dense(_toy_system(zero, zero, zero, zero, np.ones(8)))


def test_dense_solve_matches_textbook_elimination():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16)) + 8.0 * np.eye(16)
    rhs = rng.normal(size=16) + 1j * rng.normal(size=16)
    system = _toy_system(a[:8, :8], a[:8, 8:], a[8:, :8], a[8:, 8:], rhs)
    mine = discrete.solve_dense(system).vector
    reference = gauss_solve(a, rhs)
    assert np.max(np.abs(mine - reference)) < 1e-12 * np.max(np.abs(reference))


@pytest.mark.parametrize("n_points", [5, 11, 40, 81])
def test_dft_path_matches_dense_path(n_points):
    system = _nfm(EXT, n_points)
    dense = discrete.solve_dense(system)
    fast = discrete.solve_circulant_dft(system)
    scale = np.max(np.abs(dense.vector))
    assert np.max(np.abs(dense.vector - fast.vector)) < 1e-9 * scale
    assert fast.path == "dft" and dense.path == "dense"


def test_dft_path_matches_dense_path_internal_and_source_method():
    for system in (_nfm(INT, 40), _mas(EXT, 11), _mas(INT, 11)):
        dense = discrete.solve_dense(system)
        fast = discrete.solve_circulant_dft(system)
        scale = np.max(np.abs(dense.vector))
        assert np.max(np.abs(dense.vector - fast.vector)) < 1e-9 * scale


@pytest.mark.parametrize("exc", [ELL_EXT, geometry.Excitation("internal", 0.4, 0.9)],
                         ids=["external", "internal"])
@pytest.mark.parametrize("assemble", [discrete.assemble_nfm, discrete.assemble_mas],
                         ids=["nfm", "mas"])
def test_d2_split_matches_the_full_lu(assemble, exc, capfd):
    # the D2 split into one system per character; at N = 4 the character
    # (R +1, S -1) admits no orbit and must be skipped, not handed to LAPACK
    # as a 0 x 0 matrix, and N = 6 has N mod 4 = 2
    for n_points in (4, 6, 40):
        carried, full = _ellipse_and_twin(assemble, ELL_MILD, exc, n_points)
        split = discrete.solve_dense(carried)
        reference = discrete.solve_dense(full)
        assert split.path == reference.path == "dense"
        scale = np.max(np.abs(reference.vector))
        assert np.max(np.abs(split.vector - reference.vector)) < 1e-12 * scale, n_points
        assert split.residual < 1e-13
        # max |M_chi| max |M_chi^-1| lies in [|A| |A^-1| / 16, |A| |A^-1|]
        # (DiscreteSolution); here it stays within a factor of 4
        assert np.isfinite(split.cond_estimate)
        assert reference.cond_estimate / 4.0 <= split.cond_estimate <= 4.0 * reference.cond_estimate
    assert capfd.readouterr() == ("", "")


@pytest.mark.parametrize("aux", [(ELL_IN, ELL_OUT), ELL_MILD], ids=["0.33-5.0", "0.8-1.25"])
@pytest.mark.parametrize("exc", [ELL_EXT, geometry.Excitation("internal", 0.4, 0.9)],
                         ids=["external", "internal"])
@pytest.mark.parametrize("assemble", [discrete.assemble_nfm, discrete.assemble_mas],
                         ids=["nfm", "mas"])
def test_d2_split_gives_the_bits_of_the_tensordot_reduction(assemble, exc, aux):
    # the in-place sums of each character system follow the accumulation
    # order of the character-table product, so nothing moves, not even
    # roundoff; N = 4 skips a character and N = 6 and 42 have N mod 4 = 2
    for n_points in (4, 6, 8, 40, 42, 512):
        system = assemble(ELLIPSE, *aux, exc, M1, M2, n_points=n_points)
        assert system.d2
        x, residual, cond = d2_reference.d2_solve(system)
        split = discrete.solve_dense(system)
        assert split.vector.tobytes() == x.tobytes(), n_points
        assert (split.residual, split.cond_estimate) == (residual, cond), n_points


def test_d2_split_stays_within_its_memory_at_n_512():
    # one character system of about 258 unknowns (1 MiB) and its LU are
    # alive at a time; the gather and the tensordot that formed all four at
    # once took two (4, 4, 129, 129) arrays of 4 MiB each (12.3 MiB peak)
    system = discrete.assemble_nfm(ELLIPSE, ELL_IN, ELL_OUT, ELL_EXT, M1, M2, n_points=512)
    tracemalloc.start()
    try:
        discrete.solve_dense(system)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, peak / 2**20


@pytest.mark.parametrize("n_points, bound", [(256, 1.25), (257, 1.10)], ids=["d2", "full-lu"])
def test_dense_solve_holds_one_system_and_its_lu(n_points, bound):
    # Above the assembled blocks, a D2 solve holds one character system and
    # its LU at a time (the largest has 2 (N/4 + 1) unknowns), and a full LU
    # the 2N x 2N matrix and its LU. The finiteness checks and the right
    # sides add 11% and 3%; a second system or the norm's |a| scratch
    # alive next to them would add 100% and 25%.
    system = discrete.assemble_nfm(ELLIPSE, ELL_IN, ELL_OUT, ELL_EXT, M1, M2, n_points=n_points)
    assert system.d2 == (n_points % 2 == 0)
    unknowns = 2 * system.z11.shape[1]
    held = 2 * unknowns**2 * np.dtype(complex).itemsize
    tracemalloc.start()
    try:
        discrete.solve_dense(system)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound * held, peak / held


def _ring_fields(solution):
    return np.array([fields.field_from_discrete(solution, rho, phi, region=region).e_z
                     for rho, region, phi in ELL_RINGS])


@pytest.mark.parametrize("assemble", [discrete.assemble_nfm, discrete.assemble_mas],
                         ids=["nfm", "mas"])
def test_d2_split_far_fields_match_the_full_lu_at_n_512(assemble):
    # cond is about 1e20 here, so the currents are roundoff; the fields they
    # radiate are backward-stable and agree
    exc = geometry.Excitation("external", 4.0, 0.3)
    carried, full = _ellipse_and_twin(assemble, (ELL_IN, ELL_OUT), exc, 512)
    split = _ring_fields(discrete.solve_dense(carried))
    reference = _ring_fields(discrete.solve_dense(full))
    assert np.max(np.abs(split - reference)) < 1e-6 * np.max(np.abs(reference))


# Source-route inputs of the 0.33/5.0 placement at N = 512 whose far fields
# read 1.8e-5 off the mild N = 160 reference at one BLAS thread when every
# solve took a refinement step: at cond * eps >= 1 the step adds A^-1
# (roundoff) and inflates the amplitudes from about 3e7 to 6e9. The dense
# solve runs on one BLAS thread whatever the setting.
def test_ill_conditioned_ellipse_fields_hold_at_one_blas_thread():
    def sample(aux, exc, n_points):
        system = discrete.assemble_mas(ELLIPSE, *aux, exc, M1, M2, n_points=n_points)
        return _ring_fields(discrete.solve(system))

    for phi in (3.1218156431565354, 0.049022525280482655):
        exc = geometry.Excitation("external", 4.0, phi)
        want = sample(ELL_MILD, exc, 160)
        got = sample((ELL_IN, ELL_OUT), exc, 512)
        assert np.max(np.abs(got - want)) / np.max(np.abs(want)) <= 5e-6


def test_auto_path_selects_by_structure():
    assert discrete.solve(_nfm(EXT, 16)).path == "dft"
    ell = discrete.assemble_nfm(ELLIPSE, ELL_IN, ELL_OUT, ELL_EXT, M1, M2, n_points=16)
    assert discrete.solve(ell).path == "dense"


@pytest.mark.parametrize("exc", [EXT, INT], ids=["external", "internal"])
@pytest.mark.parametrize("route", ["nfm", "mas"])
def test_fft_residual_matches_the_dense_product(route, exc):
    # on the wide placement the source amplitudes diverge and both numbers
    # are roundoff of |A| |x|, so they agree only to about 1e-9 there
    for aux in ((AUX_IN, AUX_OUT), NEAR):
        for n_points in (40, 81):
            system = _ASSEMBLE[route](exc, n_points, aux=aux)
            solution = discrete.solve_circulant_dft(system)
            dense = discrete._relative_residual(system.matrix @ solution.vector, system.rhs)
            assert abs(solution.residual - dense) < 1e-13


# ||A x - b|| / ||b|| of the 1.5/2.5 circle systems for EXT and INT, as
# float.hex, recorded when every DFT solve still applied its blocks to the
# solution (the snug N = 512 systems drop 496 and 491 modes)
CIRCLE_RESIDUALS = {
    ("nfm", 11): ("0x1.69bd0e62fed48p-52", "0x1.46c3bad228ef0p-51"),
    ("nfm", 40): ("0x1.74df1b6726966p-51", "0x1.359d22afff2c9p-51"),
    ("nfm", 512): ("0x1.77b0315dec3adp-50", "0x1.6a60246ba52e1p-50"),
    ("mas", 11): ("0x1.2b1de35801eddp-51", "0x1.0dfb187618f7cp-51"),
    ("mas", 40): ("0x1.b46f001b1522bp-51", "0x1.133dd40b6440cp-51"),
    ("mas", 512): ("0x1.3e1a5878f4758p-50", "0x1.cadfa99e515e1p-51"),
}


@pytest.mark.parametrize("route, n_points", list(CIRCLE_RESIDUALS))
def test_dft_residual_is_formed_on_first_read_with_the_recorded_bits(route, n_points):
    want = dict(zip((EXT, INT), map(float.fromhex, CIRCLE_RESIDUALS[route, n_points])))
    system = _ASSEMBLE[route](EXT, n_points)
    solved = [discrete.solve(_ASSEMBLE[route](exc, n_points)) for exc in (EXT, INT)]
    solved += discrete.solve(system, shared=(discrete.excite(system, INT),))
    for solution in solved:
        assert "residual" not in vars(solution)  # nothing is applied until it is read
        first = solution.residual
        assert first == want[solution.system.excitation]
        assert solution.residual is first


# The same for the mild ellipse: D2 at N = 40, a full LU at N = 41, read at
# one and at two BLAS threads: the dense path runs on one thread either way.
_DENSE_RESIDUALS_CHILD = """
from cylwave import discrete, geometry
from cylwave.exact import Medium
ellipse = geometry.BoundaryCurve.ellipse(2.0, 1.6)
aux = [geometry.AuxiliarySurface.from_scale(ellipse, s) for s in (0.8, 1.25)]
sources = (geometry.Excitation("external", 4.0), geometry.Excitation("internal", 1.0))
for assemble in (discrete.assemble_nfm, discrete.assemble_mas):
    for n_points in (40, 41):
        system = assemble(ellipse, *aux, sources[0], Medium(), Medium(4.2, 1.0), n_points=n_points)
        alone = discrete.solve(system)
        shared = discrete.solve(system, shared=(discrete.excite(system, sources[1]),))
        print(system.d2, *(s.residual.hex() for s in (alone,) + shared),
              alone.residual is alone.residual)
"""
DENSE_RESIDUALS = [
    "True 0x1.519d32d808d7ap-52 0x1.519d32d808d7ap-52 0x1.5b395b7a10d69p-51 True",
    "False 0x1.2a067df9be54dp-51 0x1.2a067df9be54dp-51 0x1.e934fdf7b897dp-50 True",
    "True 0x1.10c56010ed35bp-51 0x1.10c56010ed35bp-51 0x1.133dd40b6440cp-52 True",
    "False 0x1.b46f001b1522bp-51 0x1.b46f001b1522bp-51 0x1.4408aee8f615cp-51 True",
]


@pytest.mark.parametrize("threads", ["1", "2"])
def test_dense_residuals_keep_their_recorded_bits_at_each_blas_thread_count(threads):
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, "-c", _DENSE_RESIDUALS_CHILD],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == DENSE_RESIDUALS


@pytest.fixture
def openblas():
    """(get, set) of the thread count of the OpenBLAS copies bundled with numpy and scipy.

    Both copies are set to 2 threads for the test and put back after it.
    """
    copies = []
    for module, suffix in ((np, "64_"), (scipy, "")):
        libs = Path(module.__file__).resolve().parents[1] / (module.__name__ + ".libs")
        paths = sorted(libs.glob("libscipy_openblas*.so*"))
        if not paths:
            pytest.skip("%s bundles no OpenBLAS here" % module.__name__)
        lib = ctypes.CDLL(str(paths[0]))
        get = getattr(lib, "scipy_openblas_get_num_threads" + suffix)
        put = getattr(lib, "scipy_openblas_set_num_threads" + suffix)
        get.argtypes, get.restype = [], ctypes.c_int
        put.argtypes, put.restype = [ctypes.c_int], None
        copies.append((get, put))
    before = [get() for get, _ in copies]
    for _, put in copies:
        put(2)
    yield copies
    for (_, put), count in zip(copies, before):
        put(count)


def _counts(copies):
    return [get() for get, _ in copies]


@pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
def test_a_dense_solve_runs_on_one_blas_thread_and_restores_the_count(openblas, monkeypatch):
    inside = []
    lu_factor = discrete._lu_factor

    def spy(a):
        inside.append(_counts(openblas))
        return lu_factor(a)

    monkeypatch.setattr(discrete, "_lu_factor", spy)
    for n_points in (40, 41):  # the D2 split, then a full LU
        discrete.solve_dense(discrete.assemble_nfm(ELLIPSE, *ELL_MILD, ELL_EXT, M1, M2, n_points=n_points))
        assert _counts(openblas) == [2, 2]
    assert inside == [[1, 1]] * 5
    zero = np.zeros((4, 4), dtype=complex)
    with pytest.raises(ArithmeticError, match="singular"):
        discrete.solve_dense(_toy_system(zero, zero, zero, zero, np.ones(8)))
    assert inside[-1] == [1, 1] and _counts(openblas) == [2, 2]


def test_overlapping_solves_in_two_threads_keep_serial_bits_and_restore_the_count(openblas, monkeypatch):
    systems = [
        discrete.assemble_nfm(ELLIPSE, *ELL_MILD, ELL_EXT, M1, M2, n_points=n) for n in (40, 41)
    ]
    serial = [discrete.solve_dense(system).vector.tobytes() for system in systems]
    meet = threading.Barrier(2, timeout=60)
    inside = []
    lu_factor = discrete._lu_factor

    def meeting(a):
        meet.wait()  # both threads are inside a solve here
        inside.append(_counts(openblas))
        return lu_factor(a)

    monkeypatch.setattr(discrete, "_lu_factor", meeting)

    def solve_all(order):
        # the two orders make five _lu_factor calls each, so every wait meets a partner
        return {i: discrete.solve_dense(systems[i]).vector.tobytes() for i in order}

    with ThreadPoolExecutor(2) as pool:
        runs = [pool.submit(solve_all, order) for order in ((0, 1), (1, 0))]
        results = [run.result() for run in runs]
    assert inside == [[1, 1]] * 10
    assert all(result == dict(enumerate(serial)) for result in results)
    assert _counts(openblas) == [2, 2]


def test_many_threads_solving_at_once_leave_the_count_restored(openblas):
    # four workers on two cores, switching as often as the interpreter
    # allows: a lost update of the pin's depth would leave a count at 1
    systems = [
        discrete.assemble_mas(ELLIPSE, *ELL_MILD, ELL_EXT, M1, M2, n_points=n) for n in (8, 9)
    ]
    serial = [discrete.solve_dense(system).vector.tobytes() for system in systems]

    def solve_many(first):
        return [discrete.solve_dense(systems[(first + i) % 2]).vector.tobytes() for i in range(40)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(4) as pool:
            runs = [pool.submit(solve_many, first) for first in (0, 1, 0, 1)]
            results = [run.result(timeout=120) for run in runs]
    finally:
        sys.setswitchinterval(interval)
    for first, result in zip((0, 1, 0, 1), results):
        assert result == [serial[(first + i) % 2] for i in range(40)]
    assert _counts(openblas) == [2, 2]


def test_solves_report_residual_and_conditioning():
    for solution in (discrete.solve_dense(_nfm(EXT, 40)), discrete.solve_circulant_dft(_nfm(EXT, 40))):
        assert solution.residual < 1e-12
        assert 1.0 < solution.cond_estimate < 1e6


def test_zero_amplitude_source_gives_zero_currents():
    quiet = geometry.Excitation("external", 4.0, amplitude=0.0)
    solution = discrete.solve(_nfm(quiet, 12))
    assert np.all(solution.vector == 0.0)
    j, m = discrete.normalized_currents(solution)
    assert np.all(j == 0.0) and np.all(m == 0.0)


# -- one factorisation, several excitations -----------------------------------


def _same_solution(got, want):
    """Every array and number of two solutions, bit for bit."""
    assert got.system.excitation == want.system.excitation
    assert got.system.rhs.tobytes() == want.system.rhs.tobytes()
    assert got.electric.tobytes() == want.electric.tobytes()
    assert got.magnetic.tobytes() == want.magnetic.tobytes()
    assert (got.path, got.residual, got.cond_estimate, got.dropped) == (
        want.path, want.residual, want.cond_estimate, want.dropped,
    )


ELL_INT = geometry.Excitation("internal", 1.0)
SHARED_CASES = [
    *((CIRCLE, (AUX_IN, AUX_OUT), n, "dft") for n in (5, 11, 40, 81, 512)),
    (ELLIPSE, ELL_MILD, 40, "d2"),
    (ELLIPSE, ELL_MILD, 512, "d2"),
    (ELLIPSE, ELL_MILD, 41, "full"),
    (_star_twin(ELLIPSE), ELL_MILD, 40, "full"),
]


@pytest.mark.parametrize("route", ["nfm", "mas"])
@pytest.mark.parametrize(
    "curve, aux, n_points, form",
    SHARED_CASES,
    ids=["circle-%d" % n for n in (5, 11, 40, 81, 512)]
    + ["d2-40", "d2-512", "ellipse-41", "star-40"],
)
def test_one_factorisation_gives_each_excitation_the_bits_of_its_own_solve(
    route, curve, aux, n_points, form
):
    assemble = discrete.assemble_nfm if route == "nfm" else discrete.assemble_mas
    alone = {
        exc: discrete.solve(assemble(curve, *aux, exc, M1, M2, n_points=n_points))
        for exc in (EXT, ELL_INT)
    }
    system = assemble(curve, *aux, EXT, M1, M2, n_points=n_points)
    assert {"dft": system.circulant, "d2": system.d2, "full": system.z11.ndim == 2}[form]
    # the snug circle at N = 512 drops modes, so the rank-one band is shared too
    assert (alone[EXT].dropped > 0) == (form == "dft" and n_points == 512)
    other = discrete.excite(system, ELL_INT)
    assert all(a is b for a, b in zip(
        (system.z11, system.z12, system.z21, system.z22),
        (other.z11, other.z12, other.z21, other.z22),
    ))
    # either excitation may come first
    for first, second in ((system, other), (other, system)):
        solved = discrete.solve(first, shared=(second,))
        assert [sol.system for sol in solved] == [first, second]
        for sol in solved:
            _same_solution(sol, alone[sol.system.excitation])
    assert discrete.solve(system, shared=())[0].electric.tobytes() == alone[EXT].electric.tobytes()


def test_excite_rebuilds_only_the_right_side():
    for assemble in (_nfm, _mas):
        system = assemble(EXT, 16)
        internal = discrete.excite(system, INT)
        assert internal.rhs.tobytes() == assemble(INT, 16).rhs.tobytes()
        assert internal.excitation == INT and internal.nodes is system.nodes
    # a source on the wrong side of the boundary is refused by name
    with pytest.raises(ValueError, match="internal excitation must lie inside"):
        discrete.excite(system, geometry.Excitation("internal", 3.0))


def test_shared_systems_must_carry_the_same_blocks():
    # equal blocks evaluated twice are not shared ones
    with pytest.raises(ValueError, match="blocks of the first"):
        discrete.solve(_nfm(EXT, 16), shared=(_nfm(INT, 16),))


# -- q-sum oracles ------------------------------------------------------------


def _dft_coefficients(system, m):
    n = system.n_points
    z1, z2 = system.medium1.Z, system.medium2.Z
    b1 = np.fft.fft(system.z11)[m] / (n * z1)
    b2 = np.fft.fft(system.z12)[m] / (n * 1j)
    b3 = np.fft.fft(system.z21)[m] / (n * z2)
    b4 = np.fft.fft(system.z22)[m] / (n * 1j)
    if system.excitation.region == "external":
        d = np.fft.fft(system.rhs[:n])[m] / (n * system.excitation.amplitude * z1)
    else:
        d = np.fft.fft(system.rhs[n:])[m] / (n * system.excitation.amplitude * z2)
    return d, b1, b2, b3, b4


@pytest.mark.parametrize("exc", [EXT, INT], ids=["external", "internal"])
def test_qsums_match_the_dft_eigenvalues(exc):
    system = _nfm(exc, 11)
    for m in range(11):
        sums = discrete.q_sum_coefficients(m, 11, CIRCLE, AUX_IN, AUX_OUT, exc, M1, M2)
        for got, want in zip(
            (sums.d, sums.b1, sums.b2, sums.b3, sums.b4), _dft_coefficients(system, m)
        ):
            assert abs(got - want) < 1e-9 * abs(want)


def test_qsums_follow_a_rotated_source():
    exc = geometry.Excitation("external", 4.0, phi=0.7)
    system = _nfm(exc, 11)
    for m in (0, 3, 8):
        sums = discrete.q_sum_coefficients(m, 11, CIRCLE, AUX_IN, AUX_OUT, exc, M1, M2)
        want = _dft_coefficients(system, m)[0]
        assert abs(sums.d - want) < 1e-9 * abs(want)


def test_central_term_dominates_low_modes():
    # folding rings of orders qN +/- m decays like ratio^N per ring, so the
    # q = 0 term carries essentially the whole sum until m approaches N/2;
    # for this geometry the 0.999 level holds through m = 25 at N = 81 and
    # is badly lost at m = 40, where the q = -1 order 41 is a near neighbor.
    for m in (0, 10, 20):
        full = discrete.q_sum_coefficients(m, 81, CIRCLE, AUX_IN, AUX_OUT, EXT, M1, M2)
        head = discrete.q_sum_coefficients(m, 81, CIRCLE, AUX_IN, AUX_OUT, EXT, M1, M2, q_max=0)
        for field in ("d", "b1", "b2", "b3", "b4"):
            assert abs(getattr(head, field)) / abs(getattr(full, field)) > 0.999
    full = discrete.q_sum_coefficients(40, 81, CIRCLE, AUX_IN, AUX_OUT, EXT, M1, M2)
    head = discrete.q_sum_coefficients(40, 81, CIRCLE, AUX_IN, AUX_OUT, EXT, M1, M2, q_max=0)
    assert abs(head.b1) / abs(full.b1) < 0.9


def test_qsum_coefficients_approach_single_products():
    # at N = 161 every aliased ring is negligible and b1 collapses to the
    # plain product of the order-3 radial factors
    sums = discrete.q_sum_coefficients(3, 161, CIRCLE, AUX_IN, AUX_OUT, EXT, M1, M2)
    product = specfun.bessel_j(3, M1.k * 1.5) * specfun.hankel2(3, M1.k * 2.0)
    assert abs(sums.b1 - product) < 1e-12 * abs(product)


def test_qsum_validation():
    with pytest.raises(ValueError, match="circles"):
        discrete.q_sum_coefficients(0, 8, ELLIPSE, ELL_IN, ELL_OUT, EXT, M1, M2)
    with pytest.raises(ValueError, match="mode index"):
        discrete.q_sum_coefficients(8, 8, CIRCLE, AUX_IN, AUX_OUT, EXT, M1, M2)
    args = (11, CIRCLE, AUX_IN, AUX_OUT, EXT, M1, M2)
    for m in (1.5, [1.0, 2.5]):
        with pytest.raises(ValueError, match="mode index must be an integer"):
            discrete.q_sum_coefficients(m, *args)
    whole = discrete.q_sum_coefficients(np.array([1.0, 2.0]), *args)
    assert _qsum_bytes(whole, 1) == _qsum_bytes(discrete.q_sum_coefficients(2, *args))


_QSUM_FIELDS = ("d", "b1", "b2", "b3", "b4")


def _qsum_bytes(sums, index=()):
    return [np.complex128(np.asarray(getattr(sums, f))[index]).tobytes() for f in _QSUM_FIELDS]


@pytest.mark.parametrize("n_points", [5, 11, 81])
def test_qsums_match_the_frozen_references(n_points):
    # Against the frozen 50-digit q-sums of tests/frozen_series.py, each
    # value relative to itself, for sources on both sides, rotated or not,
    # and q_max None, 0 and 2. Measured: at most 9.0e-16 at N = 5, 1.3e-15
    # at N = 11 and 7.6e-15 at N = 81 (tolerance 3e-14); the per-order loop
    # measured the same. Mode 80 of N = 81 loses the high order of its
    # second ring to overflow, a term of the size 1e-23 the oracle keeps.
    modes = np.array(frozen_series.QSUM_MODES[n_points])
    # at N = 81 every fourth mode and the last, else every mode
    every_mode = np.unique(np.r_[np.arange(0, n_points, 1 + n_points // 20), n_points - 1])
    for (n, name, q_max), want in frozen_series.QSUMS.items():
        if n != n_points:
            continue
        side, rho, phi, _ = frozen_series.EXCITATIONS[name]
        args = (n_points, CIRCLE, AUX_IN, AUX_OUT, geometry.Excitation(side, rho, phi), M1, M2, q_max)
        got = discrete.q_sum_coefficients(modes, *args)
        assert np.array_equal(got.m, modes)
        got = np.array([getattr(got, field) for field in _QSUM_FIELDS]).T
        assert np.all(np.abs(got - want) <= 3e-14 * np.abs(want)), (name, q_max)
        # all modes in one call: each keeps the bits of its one-mode call
        every = discrete.q_sum_coefficients(every_mode, *args)
        for i, m in enumerate(every_mode.tolist()):
            assert _qsum_bytes(every, i) == _qsum_bytes(discrete.q_sum_coefficients(m, *args))
    with pytest.raises(ValueError, match="1-D"):
        discrete.q_sum_coefficients(np.zeros((2, 2), dtype=int), 8, CIRCLE, AUX_IN, AUX_OUT, EXT, M1, M2)


def test_qsums_past_half_the_points_sum_from_their_lowest_order():
    # modes m and N - m sum the same orders. At N = 512 the lowest order 200
    # of modes 200 and 312 has an H2 factor past the float range near x = 2,
    # while their products are representable: the folded tables hold them
    # to the 50-digit sums, where they used to raise
    inner, outer = (geometry.AuxiliarySurface.from_radius(CIRCLE, r) for r in (1.6, 2.5))
    args = (512, CIRCLE, inner, outer, EXT, M1, M2)
    for m in (100, 150, 200):
        low = discrete.q_sum_coefficients(m, *args)
        high = discrete.q_sum_coefficients(512 - m, *args)
        for field in _QSUM_FIELDS:
            want = getattr(low, field)
            assert abs(getattr(high, field) - want) <= 1e-14 * abs(want), (m, field)
        pair = discrete.q_sum_coefficients(np.array([m, 512 - m]), *args)
        assert _qsum_bytes(pair, 0) == _qsum_bytes(low)
        assert _qsum_bytes(pair, 1) == _qsum_bytes(high)
    frozen = frozen_series.PLACED_QSUMS[(512, 1.6, 2.5, "plain_external")]
    assert not np.isfinite(specfun.bessel_orders(True, np.array([200]), M1.k * 2.0)).all()
    for m in (200, 312):
        got = discrete.q_sum_coefficients(m, *args)
        for field, want in zip(_QSUM_FIELDS, frozen[m]):
            assert abs(getattr(got, field) - want) <= 5e-14 * abs(want), (m, field)


@pytest.mark.parametrize("key", sorted(frozen_series.PLACED_QSUMS), ids=str)
def test_qsums_match_the_frozen_references_up_to_n_8192(key):
    # Against the 50-digit q-sums of tests/frozen_series.py at N = 40 to
    # 8192, each value relative to itself (a value that underflows reads 0
    # on both sides). Measured: at most 4.2e-15 up to N = 2048 and 7.0e-15
    # at N = 8192 (tolerance 5e-14). On 1.6/2.5 at N = 512, modes 160 and
    # 168 read 0 while the J factor of their lowest order was formed alone,
    # and b1-b4 of 1.92/2.07 lost 1e-7 to 1e-3 of themselves to ring orders
    # whose H2 factor overflowed.
    n_points, r_in, r_out, name = key
    side, rho, phi, _ = frozen_series.EXCITATIONS[name]
    aux = (geometry.AuxiliarySurface.from_radius(CIRCLE, r) for r in (r_in, r_out))
    frozen = frozen_series.PLACED_QSUMS[key]
    modes = np.array(sorted(frozen))
    exc = geometry.Excitation(side, rho, phi)
    got = discrete.q_sum_coefficients(modes, n_points, CIRCLE, *aux, exc, M1, M2)
    got = np.array([getattr(got, field) for field in _QSUM_FIELDS]).T
    want = np.array([frozen[m] for m in modes.tolist()])
    assert np.all(np.abs(got - want) <= 5e-14 * np.abs(want)), np.abs(got - want) / np.abs(want)
    if key[:3] == (512, 1.6, 2.5):
        assert np.all(got[modes == 160] != 0) and np.all(got[modes == 168] != 0)


# -- large-N limits -----------------------------------------------------------


@pytest.mark.parametrize("n_points", [4, 41, 512, 1001])
def test_one_stacked_fft_gives_each_amplitude_vector_the_bits_of_its_own(n_points):
    # spectra serves the circle fields, the residual and mode_amplitudes
    solution = discrete.solve(_nfm(EXT, n_points))
    f_e, f_m = solution.spectra
    assert f_e.tobytes() == np.fft.fft(solution.electric).tobytes()
    assert f_m.tobytes() == np.fft.fft(solution.magnetic).tobytes()
    i_modes, k_modes = discrete.mode_amplitudes(solution)
    assert i_modes.tobytes() == (np.fft.fft(solution.electric) / n_points).tobytes()
    assert k_modes.tobytes() == (np.fft.fft(solution.magnetic) / n_points).tobytes()


@pytest.mark.parametrize("exc", [EXT, INT], ids=["external", "internal"])
def test_solved_modes_approach_the_limits(exc):
    solution = discrete.solve_circulant_dft(_nfm(exc, 201))
    i_modes, k_modes = discrete.mode_amplitudes(solution)
    for m in range(21):
        # the placement-free limit is 2 pi rho_cyl times the density coefficient
        modes = continuous.mode_solve(m, exc, 2.0, M1, M2)
        electric, magnetic = 4.0 * np.pi * modes.electric, 4.0 * np.pi * modes.magnetic
        assert abs(201 * i_modes[m] - electric) < 1e-6 * abs(electric)
        assert abs(201 * k_modes[m] - magnetic) < 1e-6 * abs(magnetic)


# -- large N ---------------------------------------------------------------------


@pytest.mark.parametrize("route", ["nfm", "mas"])
def test_circle_solve_at_one_hundred_thousand_points(route):
    exc = geometry.Excitation("external", 4.0, 0.3)
    solution = discrete.solve(_ASSEMBLE[route](exc, 100_000, aux=NEAR))
    assert solution.path == "dft"
    got = fields.field_from_discrete(solution, 10.0, 0.7).e_z
    want = exact_field(exc, 1, 10.0, 0.7, 2.0, M1, M2).value
    assert abs(got - want) < 1e-12 * abs(want)


def test_nfm_solves_the_snug_placement_at_n_1024():
    # modes near N/2 have eigenvalues far below roundoff of the column sums;
    # some 2x2 determinants cancel to exactly zero there
    solution = discrete.solve(_nfm(EXT, 1024))
    assert solution.dropped > 0
    got = fields.field_from_discrete(solution, 10.0, 0.7).e_z
    want = exact_field(EXT, 1, 10.0, 0.7, 2.0, M1, M2).value
    assert abs(got - want) < 1e-12 * abs(want)


@pytest.mark.parametrize("route", ["nfm", "mas"])
@pytest.mark.parametrize("radii", [(1.5, 2.5), (1.9, 2.1)], ids=["snug", "close"])
def test_dft_solves_at_n_4096_through_roundoff_modes(radii, route):
    aux = tuple(geometry.AuxiliarySurface.from_radius(CIRCLE, r) for r in radii)
    solution = discrete.solve(_ASSEMBLE[route](EXT, 4096, aux=aux))
    assert solution.path == "dft" and solution.dropped > 0
    got = fields.field_from_discrete(solution, 10.0, 0.7).e_z
    want = exact_field(EXT, 1, 10.0, 0.7, 2.0, M1, M2).value
    assert abs(got - want) < 1e-12 * abs(want)


def test_pseudo_inverse_keeps_the_source_route_blow_up():
    # the paper's divergence lives in modes above roundoff; dropping any of
    # them would shrink the amplitudes that show it
    solutions = [
        discrete.solve(_mas(EXT, n_points, aux=(WIDE_IN, WIDE_OUT))) for n_points in (40, 46)
    ]
    assert [(s.path, s.dropped) for s in solutions] == [("dft", 0), ("dft", 0)]
    growth_outer = np.max(np.abs(solutions[1].magnetic)) / np.max(np.abs(solutions[0].magnetic))
    assert growth_outer > 10.0


def _four_array_singular_values(l11, l12, l21, l22, det):
    """Both singular values of each mode from four separate block spectra: the
    form the DFT solve used before it stacked them, kept as the reference."""
    fro2 = np.abs(l11) ** 2 + np.abs(l12) ** 2 + np.abs(l21) ** 2 + np.abs(l22) ** 2
    det_abs = np.abs(det)
    disc = np.sqrt(np.maximum(fro2**2 - 4.0 * det_abs**2, 0.0))
    s_max = np.sqrt((fro2 + disc) / 2.0)
    s_min = np.divide(det_abs, s_max, out=np.zeros_like(s_max), where=s_max > 0.0)
    return s_max, s_min


@pytest.mark.parametrize("n_points", [5, 6, 7, 16, 33, 100, 511, 512, 1000, 2049, 4096])
def test_stacked_singular_values_keep_the_four_array_bits(n_points):
    # random spectra over 25 decades, a zero mode, and a snug circle's own
    # block spectra, whose modes near N/2 fall to roundoff
    rng = np.random.default_rng(n_points)
    shape = (4, n_points)
    scale = 10.0 ** rng.uniform(-20.0, 5.0, size=shape)
    drawn = (rng.normal(size=shape) + 1j * rng.normal(size=shape)) * scale
    drawn[:, 0] = 0.0
    system = _nfm(EXT, n_points, aux=NEAR)
    own = np.fft.fft(np.stack(discrete._blocks(system)))
    for blocks in (drawn, own):
        l11, l12, l21, l22 = blocks
        det = l11 * l22 - l12 * l21
        got = discrete._mode_singular_values(blocks, det)
        want = _four_array_singular_values(l11, l12, l21, l22, det)
        assert [g.tobytes() for g in got] == [w.tobytes() for w in want]


def test_rank_deficient_modes_get_the_pseudo_inverse():
    # mode 1 has rank one, mode 3 is zero; the others are regular
    rng = np.random.default_rng(3)
    modes = rng.normal(size=(4, 2, 2)) + 1j * rng.normal(size=(4, 2, 2))
    modes[1] = np.outer([1.0, 2.0 - 1j], [0.5j, 3.0])
    modes[3] = 0.0
    rhs_modes = rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))
    columns = [np.fft.ifft(modes[:, i, j]) for i in (0, 1) for j in (0, 1)]
    rhs = np.concatenate([np.fft.ifft(rhs_modes[:, 0]), np.fft.ifft(rhs_modes[:, 1])])
    solution = discrete.solve_circulant_dft(_toy_system(*columns, rhs))
    assert solution.dropped == 3
    assert solution.cond_estimate == np.inf
    want = np.array([np.linalg.pinv(modes[m]) @ rhs_modes[m] for m in range(4)])
    got = np.stack(discrete.mode_amplitudes(solution), axis=1) * 4
    assert np.max(np.abs(got - want)) < 1e-13 * np.max(np.abs(want))


# -- currents against the continuous densities --------------------------------


def _density_samples(exc, n_points):
    phis = 2.0 * np.pi * np.arange(n_points) / n_points
    return continuous.density_series(exc, phis, 2.0, M1, M2)


@pytest.mark.parametrize("aux", [(AUX_IN, AUX_OUT), (WIDE_IN, WIDE_OUT)], ids=["snug", "wide"])
@pytest.mark.parametrize("exc", [EXT, INT], ids=["external", "internal"])
def test_normalized_currents_track_the_densities(aux, exc):
    solution = discrete.solve(_nfm(exc, 40, aux=aux))
    j_got, m_got = discrete.normalized_currents(solution)
    j_want, m_want = _density_samples(exc, 40)
    assert np.max(np.abs(j_got - j_want)) < 1e-3 * np.max(np.abs(j_want))
    assert np.max(np.abs(m_got - m_want)) < 1e-3 * np.max(np.abs(m_want))


@pytest.mark.parametrize("curve", [CIRCLE, ELLIPSE], ids=["circle", "ellipse"])
def test_normalized_currents_match_the_tangential_fields(curve):
    # J = n x H and M = E x n on C, so their magnitudes are the fields' traces
    solution = discrete.solve(
        discrete.assemble_nfm(
            curve,
            geometry.AuxiliarySurface.from_scale(curve, 0.7),
            geometry.AuxiliarySurface.from_scale(curve, 1.6),
            EXT,
            M1,
            M2,
            n_points=40,
        )
    )
    j, m = discrete.normalized_currents(solution)
    traces = fields.boundary_traces(solution, n_test=20)
    # the 20 staggered trace angles are the odd collocation angles
    assert np.max(np.abs(np.abs(j[1::2] / traces.h_1) - 1.0)) < 1e-3
    assert np.max(np.abs(np.abs(m[1::2] / traces.e_1) - 1.0)) < 1e-3


@pytest.mark.parametrize("exc", [EXT, INT], ids=["external", "internal"])
def test_solutions_are_insensitive_to_aux_placement(exc):
    snug = discrete.solve(_nfm(exc, 40)).vector
    wide = discrete.solve(_nfm(exc, 40, aux=(WIDE_IN, WIDE_OUT))).vector
    assert np.max(np.abs(snug - wide)) < 1e-3 * np.max(np.abs(snug))


def test_currents_converge_with_refinement():
    # displaced radii close to the boundary keep the system well conditioned
    # deep into large N, where widely displaced choices would let roundoff
    # grow back; see the solver notes for the trade-off
    aux = (
        geometry.AuxiliarySurface.from_radius(CIRCLE, 1.8),
        geometry.AuxiliarySurface.from_radius(CIRCLE, 2.2),
    )
    errors = []
    for n_points in (11, 21, 41, 81, 161):
        solution = discrete.solve(_nfm(EXT, n_points, aux=aux))
        j_got, m_got = discrete.normalized_currents(solution)
        j_want, m_want = _density_samples(EXT, n_points)
        errors.append(
            max(
                np.max(np.abs(j_got - j_want)) / np.max(np.abs(j_want)),
                np.max(np.abs(m_got - m_want)) / np.max(np.abs(m_want)),
            )
        )
    for previous, current in zip(errors, errors[1:]):
        assert current < 1.1 * previous
    assert errors[-1] < 1e-5


@pytest.mark.parametrize(
    "side, rho_fil, rho_in, rho_out, n_range, fitted",
    [
        ("external", 4.0, 1.5, 2.5, (28, 80), 0.225),
        ("external", 6.0, 1.5, 4.0, (20, 48), 0.287),
        ("external", 4.0, 1.8, 3.0, (48, 92), 0.105),
        ("internal", 1.0, 1.5, 2.5, (40, 80), 0.224),
        ("internal", 1.0, 0.5, 2.2, (56, 120), 0.096),
        ("external", 8.0, 1.2, 6.0, (16, 32), 0.509),
    ],
)
def test_direct_currents_converge_at_the_predicted_rate(
    side, rho_fil, rho_in, rho_out, n_range, fitted
):
    # The gap of the normalised currents to the densities falls like
    # e^(-r N), r = min(ln(rho_out / rho_C), ln(rho_C / rho_in), |ln q| / 2),
    # q the ratio of the density series. The rule was fitted to these
    # windows, where the FFT path is sound; fitted is the least-squares
    # slope of ln(gap) they measured, each within 1% of r.
    exc = geometry.Excitation(side, rho_fil)
    aux = tuple(geometry.AuxiliarySurface.from_radius(CIRCLE, r) for r in (rho_in, rho_out))
    q = exact.series_ratio(side[:3] + "_R1", 2.0, 2.0, rho_fil)
    rate = min(np.log(rho_out / 2.0), np.log(2.0 / rho_in), 0.5 * abs(np.log(q)))
    sizes = np.arange(n_range[0], n_range[1] + 1, 4)
    gaps = []
    for n_points in sizes:
        got = discrete.normalized_currents(discrete.solve(_nfm(exc, n_points, aux=aux)))
        want = _density_samples(exc, n_points)
        gaps.append(max(np.max(np.abs(g - w)) / np.max(np.abs(w)) for g, w in zip(got, want)))
    slope = -np.polyfit(sizes, np.log(gaps), 1)[0]
    assert abs(slope / rate - 1.0) < 0.05
    assert slope == pytest.approx(fitted, abs=5e-4)


def test_source_amplitudes_grow_where_the_direct_currents_stay_put():
    # external source at radius 4: the image radius is 1, so inner sources
    # at 0.5 and outer sources at 10 both sit in divergence territory and
    # refining the discretization inflates them; the direct currents on the
    # same surfaces barely move
    mas_40 = discrete.solve_dense(_mas(EXT, 40, aux=(WIDE_IN, WIDE_OUT)))
    mas_46 = discrete.solve_dense(_mas(EXT, 46, aux=(WIDE_IN, WIDE_OUT)))
    growth_outer = np.max(np.abs(mas_46.magnetic)) / np.max(np.abs(mas_40.magnetic))
    assert growth_outer > 10.0

    nfm_40 = discrete.solve_dense(_nfm(EXT, 40, aux=(WIDE_IN, WIDE_OUT)))
    nfm_46 = discrete.solve_dense(_nfm(EXT, 46, aux=(WIDE_IN, WIDE_OUT)))
    growth_direct = np.max(np.abs(nfm_46.vector)) / np.max(np.abs(nfm_40.vector))
    assert growth_direct < 2.0
    assert np.max(np.abs(nfm_46.vector)) < 1.0


# -- property ----------------------------------------------------------------


@settings(deadline=None, max_examples=40)
@given(
    eps=st.floats(1.5, 6.0),
    rho_cyl=st.floats(1.0, 3.0),
    scale_in=st.floats(0.4, 0.85),
    scale_out=st.floats(1.2, 2.5),
    source_ratio=st.floats(1.5, 3.0),
)
def test_dft_equals_dense_on_random_circles(eps, rho_cyl, scale_in, scale_out, source_ratio):
    medium2 = Medium(eps, 1.0)
    curve = geometry.BoundaryCurve.circle(rho_cyl)
    aux_in = geometry.AuxiliarySurface.from_scale(curve, scale_in)
    aux_out = geometry.AuxiliarySurface.from_scale(curve, scale_out)
    exc = geometry.Excitation("external", source_ratio * rho_cyl)
    system = discrete.assemble_nfm(curve, aux_in, aux_out, exc, M1, medium2, n_points=8)
    dense = discrete.solve_dense(system)
    fast = discrete.solve_circulant_dft(system)
    scale = np.max(np.abs(dense.vector))
    assert np.max(np.abs(dense.vector - fast.vector)) < 1e-8 * max(scale, 1e-30)
