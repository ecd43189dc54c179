import math

import numpy as np
import numpy.testing as npt
import pytest

from spinsqueeze import (
    CoupledState,
    Fixed,
    Frame,
    build_frame,
    build_frame_xz,
    embed,
    kron,
    mean_spin,
    spin1_matrices,
    spin_component,
)
from spinsqueeze.spin import IDENTITY3, S_MINUS, S_PLUS, cross3, frame_bases, frame_bases_xz

from conftest import random_unit

SX, SY, SZ = spin1_matrices()


def test_commutators():
    npt.assert_allclose(SX @ SY - SY @ SX, 1j * SZ, atol=1e-15)
    npt.assert_allclose(SY @ SZ - SZ @ SY, 1j * SX, atol=1e-15)
    npt.assert_allclose(SZ @ SX - SX @ SZ, 1j * SY, atol=1e-15)


def test_casimir():
    npt.assert_allclose(SX @ SX + SY @ SY + SZ @ SZ, 2 * np.eye(3), atol=1e-15)


def test_spectra():
    for s in (SX, SY, SZ):
        npt.assert_allclose(np.linalg.eigvalsh(s), [-1.0, 0.0, 1.0], atol=1e-14)


def test_ladder_operators():
    npt.assert_allclose(S_PLUS, SX + 1j * SY, atol=1e-15)
    npt.assert_allclose(S_MINUS, SX - 1j * SY, atol=1e-15)
    e_top = np.array([1.0, 0.0, 0.0], dtype=complex)
    npt.assert_allclose(S_PLUS @ e_top, 0.0, atol=1e-15)


def test_spin_component_linear(rng):
    n = random_unit(rng)
    npt.assert_allclose(spin_component(n), n[0] * SX + n[1] * SY + n[2] * SZ, atol=1e-15)
    with pytest.raises(ValueError):
        spin_component(2.0 * n)


def test_embed_order():
    npt.assert_allclose(embed(SZ, 1), kron(SZ, IDENTITY3), atol=0)
    npt.assert_allclose(embed(SZ, 2), kron(IDENTITY3, SZ), atol=0)


def test_mean_spin_basis_states():
    st = CoupledState.basis(1, -1)
    v1, mag1 = mean_spin(st, 1)
    v2, mag2 = mean_spin(st, 2)
    npt.assert_allclose(v1, [0, 0, 1], atol=1e-15)
    npt.assert_allclose(v2, [0, 0, -1], atol=1e-15)
    assert mag1 == pytest.approx(1.0)
    assert mag2 == pytest.approx(1.0)


def test_mean_spin_matches_embedded_operators(rng):
    from conftest import random_coupled

    st = random_coupled(rng)
    for sub in (1, 2):
        direct = [np.vdot(st.vec, embed(s, sub) @ st.vec).real for s in (SX, SY, SZ)]
        v, mag = mean_spin(st, sub)
        npt.assert_allclose(v, direct, atol=1e-13)
        assert mag == pytest.approx(np.linalg.norm(direct))
        for amps in (st.c, st.vec):
            got = mean_spin(amps, sub)
            npt.assert_array_equal(got[0], v)
            assert got[1] == mag
    with pytest.raises(ValueError):
        mean_spin(st, 3)
    # an array must pass CoupledState's check: shape, finite and normalized
    for bad in (np.full(9, np.nan), 2.0 * st.c, np.ones(4)):
        with pytest.raises(ValueError):
            mean_spin(bad, 1)


def test_cross3_matches_numpy(rng):
    for _ in range(25):
        a = rng.standard_normal(3)
        b = rng.standard_normal(3)
        npt.assert_allclose(cross3(a, b), np.cross(a, b), atol=1e-15)


def test_frame_validation(rng):
    n = np.array([0.0, 0.0, 1.0])
    x = np.array([1.0, 0.0, 0.0])
    y = np.array([0.0, 1.0, 0.0])
    Frame(n, x, y)  # right-handed, fine
    with pytest.raises(ValueError):
        Frame(n, x, -y)  # left-handed
    with pytest.raises(ValueError):
        Frame(n, 2 * x, y)
    with pytest.raises(ValueError):
        Frame(n, n, y)


def test_build_frame_orthonormal(rng):
    for _ in range(50):
        n = random_unit(rng)
        f = build_frame(n)
        npt.assert_allclose(f.n, n, atol=1e-15)
        for a, b in ((f.n, f.n_perp), (f.n, f.n_perp2), (f.n_perp, f.n_perp2)):
            assert abs(np.dot(a, b)) < 1e-12
        npt.assert_allclose(cross3(f.n, f.n_perp), f.n_perp2, atol=1e-12)


def test_build_frame_pole_fallback():
    f = build_frame(np.array([0.0, 0.0, 1.0]))
    assert abs(np.dot(f.n_perp, [0.0, 0.0, 1.0])) < 1e-12
    f = build_frame(np.array([0.0, 0.0, -1.0]))
    assert abs(np.dot(f.n_perp, [0.0, 0.0, 1.0])) < 1e-12


def test_build_frame_xz_gauge():
    n = np.array([math.sin(0.4), 0.0, math.cos(0.4)])
    f = build_frame_xz(n)
    npt.assert_allclose(f.n_perp, [math.cos(0.4), 0.0, -math.sin(0.4)], atol=1e-15)
    npt.assert_allclose(f.n_perp2, [0.0, 1.0, 0.0], atol=1e-15)
    with pytest.raises(ValueError):
        build_frame_xz(np.array([0.0, 1.0, 0.0]))


def test_nan_frames_are_rejected():
    nan = float("nan")
    with pytest.raises(ValueError, match="unit length"):
        Frame([nan] * 3, [nan] * 3, [nan] * 3)
    z, x, y = np.eye(3)[[2, 0, 1]]
    for bad in ((z, x, [0.0, nan, 0.0]), (z, [1.0, nan, 0.0], y), ([0.0, 0.0, nan], x, y)):
        with pytest.raises(ValueError):
            Frame(*bad)
    for build in (build_frame, build_frame_xz):
        with pytest.raises(ValueError, match="unit 3-vector"):
            build(np.array([nan, 0.0, 1.0]))
    # so no Fixed policy can carry a nan frame into a "valid" report
    with pytest.raises(ValueError):
        Fixed(Frame([nan] * 3, [nan] * 3, [nan] * 3), build_frame(z))


def test_frame_bases_of_no_rows_are_empty():
    for bases in (frame_bases, frame_bases_xz):
        assert bases(np.empty((0, 3))).shape == (0, 2, 3)


def test_frame_bases_xz_equal_build_frame_xz_exactly():
    t = np.concatenate([np.linspace(0.0, math.pi / 2, 25), [1e-13, math.pi / 2 - 1e-13]])
    dirs = [np.array([s * math.sin(a), 0.0, math.cos(a)]) for a in t for s in (1.0, -1.0)]
    # within the half-plane's tolerances: |n_y| <= 1e-9, n_z >= -1e-12
    dirs += [np.array([math.sqrt(1.0 - 1e-18), 1e-9, 0.0]),
             np.array([-math.sqrt(1.0 - 1e-24), 0.0, -1e-12])]
    bases = frame_bases_xz(np.array(dirs))
    for d, basis in zip(dirs, bases):
        frame = build_frame_xz(d)
        # one row takes frame_bases_xz's route on Python floats
        for got in (basis, frame_bases_xz(d[None])[0]):
            assert np.array_equal(got[0], frame.n_perp)
            assert np.array_equal(got[1], frame.n_perp2)
    for outside in ([0.0, 1.0, 0.0], [0.6, 0.0, -0.8], [math.sqrt(1.0 - 4e-18), 2e-9, 0.0]):
        with pytest.raises(ValueError, match="half-plane"):
            build_frame_xz(np.array(outside))
        for rows in (dirs + [outside], [outside]):
            with pytest.raises(ValueError, match="half-plane"):
                frame_bases_xz(np.array(rows))
