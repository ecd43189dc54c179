import functools
import itertools
import math
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given
from hypothesis import strategies as st

from spinsqueeze import (
    CoupledState,
    Fixed,
    MeanSpinAligned,
    Moments,
    Optimized,
    Spin1State,
    ZeroDenominatorError,
    build_frame,
    canonical_squeezed,
    closed_form_xi,
    compare_closed_forms,
    config,
    embed,
    family_state,
    ku_parameter,
    product,
    puri_parameter,
    run_standard_comparisons,
    spin1_matrices,
    squeezing_report,
    xi_config1,
    xi_config2,
    xi_config3,
    xi_coherent_times_squeezed,
    xi_oracle,
    xi_product_pair,
)
from spinsqueeze import squeezing
from spinsqueeze.spin import Frame, cross3, frame_bases
from spinsqueeze.states import Spinor, load_state, save_state, schwinger
from spinsqueeze.squeezing import (_BATCH_ROWS, _PLANE_M, _POW2, DEGENERATE_MEAN_SPIN, FAMILIES,
                                   _certified, _dual_min, _grid_argmin, _harmonics,
                                   _min_transverse_variance, _newton, _newton_rows, _PyComplex,
                                   family_summary, moment_tables, standard_comparison_grids,
                                   xi_batch)

from conftest import (
    random_coupled,
    random_frame,
    random_unit,
    rotate_coupled,
    rotate_local,
    rotation_matrix,
    two_stage_amplitudes,
)

SX, SY, SZ = spin1_matrices()


def _dense_variance(state, sub, u):
    op = embed(u[0] * SX + u[1] * SY + u[2] * SZ, sub)
    psi = state.vec
    m = np.vdot(psi, op @ psi).real
    return np.vdot(psi, op @ op @ psi).real - m * m


def _dense_cross(state, u, v):
    op1 = embed(u[0] * SX + u[1] * SY + u[2] * SZ, 1)
    op2 = embed(v[0] * SX + v[1] * SY + v[2] * SZ, 2)
    return np.vdot(state.vec, op1 @ op2 @ state.vec).real


def _transverse_frame(rng, n):
    """Random in-plane frame attached to the direction n."""
    base = build_frame(n)
    phi = rng.uniform(0.0, 2.0 * math.pi)
    t = math.cos(phi) * base.n_perp + math.sin(phi) * base.n_perp2
    return Frame(n, t, cross3(n, t))


# ----------------------------------------------------------- moments


def test_moments_match_dense_operators(rng):
    for _ in range(30):
        state = random_coupled(rng)
        mom = Moments(state)
        u, v = random_unit(rng), random_unit(rng)
        assert mom.variance(1, u) == pytest.approx(_dense_variance(state, 1, u), abs=1e-12)
        assert mom.variance(2, v) == pytest.approx(_dense_variance(state, 2, v), abs=1e-12)
        assert mom.cross_correlation(u, v) == pytest.approx(_dense_cross(state, u, v), abs=1e-12)


def test_moment_tables_match_moments(rng):
    states = [random_coupled(rng) for _ in range(40)] + [
        CoupledState(c) for c in two_stage_amplitudes(np.linspace(0.0, 3.0, 6))]
    tables = moment_tables(np.array([s.c for s in states]))
    for k, state in enumerate(states):
        mom = Moments(state)
        want = (mom.mean1, mom.mean2, mom.mom1, mom.mom2, mom.cross_mat)
        for table, ref in zip(tables, want):
            npt.assert_allclose(table[k], ref, rtol=0, atol=1e-15)


def test_frame_bases_equal_build_frame_exactly(rng):
    dirs = [random_unit(rng) for _ in range(200)]
    # the pole branch of the gauge and both sides of its 1e-9 threshold
    for z in (1.0, -1.0):
        for eps in (0.0, 1e-12, 1e-10, 9e-10, 1e-9, 1.1e-9, 1e-8):
            x, y = eps * math.cos(0.3), eps * math.sin(0.3)
            dirs.append(np.array([x, y, z * math.sqrt(1.0 - x * x - y * y)]))
    bases = frame_bases(np.array(dirs))
    for d, basis in zip(dirs, bases):
        frame = build_frame(d)
        assert np.array_equal(basis[0], frame.n_perp)
        assert np.array_equal(basis[1], frame.n_perp2)


def test_variance_clamp_at_zero():
    # coherent |1,1>: variance along the mean spin is 0; roundoff must not
    # leave a negative value behind
    mom = Moments(CoupledState.basis(1, 1))
    assert mom.variance(1, np.array([0.0, 0.0, 1.0])) >= 0.0
    assert mom.variance(1, np.array([0.0, 0.0, 1.0])) == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------- engine vs oracle


def test_engine_equals_oracle_on_random_frames(rng):
    worst = 0.0
    for _ in range(100):
        state = random_coupled(rng)
        f1, f2 = random_frame(rng), random_frame(rng)
        rep = squeezing_report(state, Fixed(f1, f2))
        if not rep.valid:
            continue
        worst = max(worst, abs(rep.xi - xi_oracle(state, f1, f2)))
    assert worst < 1e-10


def test_report_parts_recombine(rng):
    state = random_coupled(rng)
    rep = squeezing_report(state, Fixed(random_frame(rng), random_frame(rng)))
    recombined = (2 * rep.var1 + 2 * rep.var2 + 4 * rep.cross) / (rep.mag1 + rep.mag2)
    assert rep.xi == pytest.approx(recombined, abs=1e-12)


def test_oracle_agrees_under_aligned_and_optimized_frames(rng):
    # the report hands back its frames; the oracle must reproduce xi there
    for policy in (MeanSpinAligned(), Optimized()):
        for _ in range(10):
            state = random_coupled(rng)
            rep = squeezing_report(state, policy)
            if not rep.valid:
                continue
            assert xi_oracle(state, rep.frame1, rep.frame2) == pytest.approx(rep.xi, abs=1e-10)


# ----------------------------------------------------------- symmetry


def test_global_phase_invariance(rng):
    state = random_coupled(rng)
    shifted = CoupledState(np.exp(0.83j) * state.c)
    f1, f2 = random_frame(rng), random_frame(rng)
    a = squeezing_report(state, Fixed(f1, f2)).xi
    b = squeezing_report(shifted, Fixed(f1, f2)).xi
    assert a == pytest.approx(b, abs=1e-12)


def test_rotation_covariance(rng):
    for _ in range(10):
        state = random_coupled(rng)
        axis, angle = random_unit(rng), rng.uniform(0.0, math.pi)
        rot = rotation_matrix(axis, angle)
        rotated = rotate_coupled(state, axis, angle)
        f1, f2 = random_frame(rng), random_frame(rng)
        rf1 = Frame(rot @ f1.n, rot @ f1.n_perp, rot @ f1.n_perp2)
        rf2 = Frame(rot @ f2.n, rot @ f2.n_perp, rot @ f2.n_perp2)
        a = squeezing_report(state, Fixed(f1, f2))
        b = squeezing_report(rotated, Fixed(rf1, rf2))
        assert a.xi == pytest.approx(b.xi, abs=1e-9)


def test_optimized_is_rotation_invariant(rng):
    state = random_coupled(rng)
    a = squeezing_report(state, Optimized()).xi
    b = squeezing_report(rotate_coupled(state, random_unit(rng), 1.1), Optimized()).xi
    assert a == pytest.approx(b, abs=1e-8)


# ----------------------------------------------------------- policies


def test_aligned_frames_are_transverse(rng):
    for _ in range(20):
        state = random_coupled(rng)
        rep = squeezing_report(state, MeanSpinAligned())
        if not rep.valid or rep.degenerate_subsystems:
            continue
        assert abs(np.dot(rep.frame1.n_perp, rep.ms1)) < 1e-9 * max(1.0, rep.mag1)
        assert abs(np.dot(rep.frame2.n_perp, rep.ms2)) < 1e-9 * max(1.0, rep.mag2)


def test_aligned_auto_gauge_in_xz_plane():
    state = product(canonical_squeezed(1.2), canonical_squeezed(1.2))
    rep = squeezing_report(state, MeanSpinAligned())
    # mean spins lie in the x-z plane; the auto gauge pins n_perp2 to y
    npt.assert_allclose(rep.frame1.n_perp2, [0.0, 1.0, 0.0], atol=1e-12)
    npt.assert_allclose(rep.frame2.n_perp2, [0.0, 1.0, 0.0], atol=1e-12)


def test_optimized_dominates_aligned_and_fixed(rng):
    for _ in range(50):
        state = random_coupled(rng)
        opt = squeezing_report(state, Optimized())
        if not opt.valid:
            continue
        aligned = squeezing_report(state, MeanSpinAligned())
        assert opt.xi <= aligned.xi + 1e-12
        f1 = _transverse_frame(rng, aligned.frame1.n)
        f2 = _transverse_frame(rng, aligned.frame2.n)
        fixed = squeezing_report(state, Fixed(f1, f2))
        assert opt.xi <= fixed.xi + 1e-12


def test_optimized_matches_dense_angle_scan(rng):
    # brute force over a fine in-plane angle grid as an independent check
    angles = np.linspace(0.0, 2.0 * math.pi, 720, endpoint=False)
    cs, sn = np.cos(angles), np.sin(angles)
    for _ in range(8):
        state = random_coupled(rng)
        opt = squeezing_report(state, Optimized())
        if not opt.valid or opt.degenerate_subsystems:
            continue
        mom = Moments(state)
        b1 = build_frame(mom.mean1 / mom.mag1)
        b2 = build_frame(mom.mean2 / mom.mag2)
        us = np.outer(cs, b1.n_perp) + np.outer(sn, b1.n_perp2)
        vs = np.outer(cs, b2.n_perp) + np.outer(sn, b2.n_perp2)
        var1 = np.einsum("ik,kl,il->i", us, mom.mom1, us) - (us @ mom.mean1) ** 2
        var2 = np.einsum("ik,kl,il->i", vs, mom.mom2, vs) - (vs @ mom.mean2) ** 2
        cross = us @ mom.cross_mat @ vs.T
        num = 2.0 * var1[:, None] + 2.0 * var2[None, :] + 4.0 * cross
        best = float(num.min()) / (mom.mag1 + mom.mag2)
        assert opt.xi <= best + 1e-9
        # the dense grid lands within its own resolution of the refined value
        assert best <= opt.xi + 1e-3


def test_optimized_frames_are_stationary():
    # at the returned angles (s, t) both partial derivatives of the in-plane
    # numerator vanish relative to the scale of its harmonic coefficients
    for c in two_stage_amplitudes(np.linspace(0.0, 3.0, 20)):
        state = CoupledState(c)
        rep = squeezing_report(state, Optimized())
        assert rep.valid and not rep.degenerate_subsystems
        mom = Moments(state)
        b1 = build_frame(mom.mean1 / mom.mag1)
        b2 = build_frame(mom.mean2 / mom.mag2)
        e1 = np.array([b1.n_perp, b1.n_perp2])
        e2 = np.array([b2.n_perp, b2.n_perp2])
        g1, g2 = e1 @ mom.mom1 @ e1.T, e2 @ mom.mom2 @ e2.T
        k = 4.0 * e1 @ mom.cross_mat @ e2.T
        p, q = g1[0, 0] - g1[1, 1], 2.0 * g1[0, 1]
        r, w = g2[0, 0] - g2[1, 1], 2.0 * g2[0, 1]
        s = math.atan2(rep.frame1.n_perp @ e1[1], rep.frame1.n_perp @ e1[0])
        t = math.atan2(rep.frame2.n_perp @ e2[1], rep.frame2.n_perp @ e2[0])
        us, ds = np.array([math.cos(s), math.sin(s)]), np.array([-math.sin(s), math.cos(s)])
        ut, dt = np.array([math.cos(t), math.sin(t)]), np.array([-math.sin(t), math.cos(t)])
        grad_s = 2.0 * (q * math.cos(2 * s) - p * math.sin(2 * s)) + ds @ k @ ut
        grad_t = 2.0 * (w * math.cos(2 * t) - r * math.sin(2 * t)) + us @ k @ dt
        scale = abs(p) + abs(q) + abs(r) + abs(w) + np.abs(k).sum()
        assert max(abs(grad_s), abs(grad_t)) <= 1e-10 * scale


def _dense_draw(seed: int, n: int = 2000) -> np.ndarray:
    """n normalized dense amplitude matrices from default_rng(seed)."""
    rng = np.random.default_rng(seed)
    c = rng.normal(size=(n, 3, 3)) + 1j * rng.normal(size=(n, 3, 3))
    return c / np.linalg.norm(c.reshape(-1, 9), axis=1)[:, None, None]


def _plane_plane_coefficients(c: np.ndarray) -> np.ndarray:
    """Optimized's harmonic coefficient rows (N, 8) for plane-plane states."""
    mean1, mean2, mom1, mom2, cross = moment_tables(c)
    d1 = mean1 / np.linalg.norm(mean1, axis=1)[:, None]
    d2 = mean2 / np.linalg.norm(mean2, axis=1)[:, None]
    return _harmonics(mom1, mom2, cross, frame_bases(d1), frame_bases(d2))


@functools.lru_cache(maxsize=None)
def _angle_scan_xi(amps: tuple, n: int = 2048) -> float:
    """The minimum of xi over an n x n grid of in-plane angles."""
    state = CoupledState(np.array(amps))
    mom = Moments(state)
    b1, b2 = build_frame(mom.mean1 / mom.mag1), build_frame(mom.mean2 / mom.mag2)
    ang = np.arange(n) * (2.0 * math.pi / n)
    us = np.outer(np.cos(ang), b1.n_perp) + np.outer(np.sin(ang), b1.n_perp2)
    vs = np.outer(np.cos(ang), b2.n_perp) + np.outer(np.sin(ang), b2.n_perp2)
    var1 = np.einsum("ik,kl,il->i", us, mom.mom1, us) - (us @ mom.mean1) ** 2
    var2 = np.einsum("ik,kl,il->i", vs, mom.mom2, vs) - (vs @ mom.mean2) ** 2
    num = 2.0 * var1[:, None] + 2.0 * var2[None, :] + 4.0 * (us @ mom.cross_mat @ vs.T)
    return float(num.min()) / (mom.mag1 + mom.mag2)


def _xi_at_angles(amps: np.ndarray, s: float, t: float) -> float:
    """xi at the in-plane angles (s, t) of Optimized's transverse bases."""
    mom = Moments(CoupledState(amps))
    b1, b2 = build_frame(mom.mean1 / mom.mag1), build_frame(mom.mean2 / mom.mag2)
    u = math.cos(s) * b1.n_perp + math.sin(s) * b1.n_perp2
    v = math.cos(t) * b2.n_perp + math.sin(t) * b2.n_perp2
    return mom.xi_parts(u, v)[0]


# Plane-plane states whose Newton point is a local minimum: (amplitudes, xi
# there, 2048^2 angle-scan xi).  The point is stationary and not certified,
# and scans along each angle with the other held fixed find nothing lower,
# but a lower minimum exists elsewhere.
_MISSES = {
    "seed-11 row 820": ((
        (-0.2969856539769743-0.18366426783790055j), (0.2083107240639281-0.05589213337748554j),
        (-0.18866702411636757-0.08935503342485414j), (0.10052193493498222-0.3160476550362299j),
        (-0.09704361998310707-0.15359664288610567j), (-0.16731552635886382-0.09897072816373041j),
        (0.6407888344741124+0.1635926168449518j), (-0.1293354565430727+0.23547586558036435j),
        (-0.3123131486861635-0.009556028944250823j)), 1.2817517, 1.2817245),
    # config(2, 2.477551020408163, 1.979591836734694)
    "config2 cell": ((
        -0.33404913708965284, 0.0, 0.7711200166714052, 0.0, -0.5420194589665117, 0.0,
        0.0, 0.0, 0.0), 0.5942065, 0.5938312),
    # evolve --stages 2 default grid, (tau1, tau2) = (2.0338983050847457, 1.0169491525423728)
    "two-stage cell (40, 20)": ((
        (0.8290657137373346-0.1834073158865613j), (-3.1918911957973265e-16-4.163336342344339e-17j),
        (0.10222348338473106+0.1834073158865617j), (-5.4838166784400275e-18+1.3180176911888037e-17j),
        (0.18815905387452225-0.30426210302410756j), (-1.877851073140869e-17+1.1305468043331441e-17j),
        (-0.10222348338473097-0.18340731588656176j), (1.110223024625157e-16+1.110223024625157e-16j),
        (0.17093428626266519+0.18340731588656287j)), 0.9160897, 0.9151886),
    # sweep config2 default grid, (alpha, beta) = (2.166326530612245, 0.9836734693877552)
    "config2 sweep cell (34, 15)": ((
        0.4603979383305741, 0.0, 0.6919150054785755, 0.0, 0.5561361016644573, 0.0,
        0.0, 0.0, 0.0), 0.7230508, 0.7213765),
}


@pytest.mark.parametrize("name", list(_MISSES))
def test_optimized_reaches_the_angle_scan_minimum(name):
    amps, _, _ = _MISSES[name]
    state = CoupledState(np.array(amps).reshape(3, 3))
    assert squeezing_report(state, Optimized()).xi <= _angle_scan_xi(amps) + 1e-9


def _newton_point(coef: np.ndarray):
    """Optimized's Newton point (s, t, converged) arrays from its grid argmin."""
    s, t = _grid_argmin(coef)
    return _newton_rows(np.ascontiguousarray(coef.T), s, t)


@pytest.mark.parametrize("name", list(_MISSES))
def test_recorded_misses_are_uncertified(name):
    amps, engine, scan = _MISSES[name]
    c = np.array(amps).reshape(3, 3)
    coef = _plane_plane_coefficients(c[None])
    s0, t0 = _grid_argmin(coef)
    s, t, converged = _newton(coef[0].tolist(), float(s0[0]), float(t0[0]))
    assert _xi_at_angles(c, s, t) == pytest.approx(engine, abs=1e-7)
    assert _angle_scan_xi(amps) == pytest.approx(scan, abs=1e-7)
    assert converged and not _certified(coef[0].tolist(), s, t)


def test_certificate_implies_a_positive_semidefinite_dual_matrix():
    # 2,000 dense states, and the 60 tau2 = 0 two-stage cells, whose minima are flat
    c = np.concatenate([_dense_draw(11), two_stage_amplitudes(np.linspace(0.0, 3.0, 60))[::60]])
    coef = _plane_plane_coefficients(c)
    s, t, converged = _newton_point(coef)
    certified = _certified(coef.T, s, t)
    assert certified.tolist() == [_certified(k, a, b) for k, a, b in
                                  zip(coef.tolist(), s.tolist(), t.tolist())]
    # the test presumes a stationary point; Optimized asks it only of those
    certified &= converged
    # the numerator is z.M.z on |u| = |v| = 1, z = (cos s, sin s, cos t, sin t)
    p, q, r, w = coef[:, :4].T
    m = np.zeros((len(c), 4, 4))
    m[:, 0, 0], m[:, 1, 1], m[:, 0, 1], m[:, 1, 0] = p, -p, q, q
    m[:, 2, 2], m[:, 3, 3], m[:, 2, 3], m[:, 3, 2] = r, -r, w, w
    m[:, :2, 2:] = coef[:, 4:].reshape(-1, 2, 2) / 2.0
    m[:, 2:, :2] = m[:, :2, 2:].transpose(0, 2, 1)
    z = np.stack([np.cos(s), np.sin(s), np.cos(t), np.sin(t)], axis=1)
    mz = np.einsum("nij,nj->ni", m, z)
    lam1 = np.einsum("ni,ni->n", z[:, :2], mz[:, :2])
    lam2 = np.einsum("ni,ni->n", z[:, 2:], mz[:, 2:])
    m[:, [0, 1, 2, 3], [0, 1, 2, 3]] -= np.stack([lam1, lam1, lam2, lam2], axis=1)
    low = np.linalg.eigvalsh(m)[:, 0]
    scale = np.abs(coef).sum(axis=1)
    assert np.all(low[certified] >= -1e-10 * scale[certified])
    # not vacuous: all converged points but row 820 of the dense states are
    # certified, and row 820's dual matrix has a negative direction
    assert np.flatnonzero(converged[:2000] & ~certified[:2000]).tolist() == [820]
    assert low[820] < -1e-6 * scale[820]


@pytest.mark.parametrize("size", [_BATCH_ROWS - 1, _BATCH_ROWS, 2000])
def test_xi_batch_equals_reports_across_the_batch_threshold(size, monkeypatch):
    from spinsqueeze import squeezing

    c = _dense_draw(11)
    # in this draw rows 135, 185 and 429 take the Newton-rejection fallback
    # and row 820 (a converged point that is not certified) the dual solve
    first = [135, 185, 429, 820]
    rows = np.concatenate([first, np.setdiff1d(np.arange(len(c)), first)])[:size]
    calls = {}

    def counted(name):
        fn = getattr(squeezing, name)

        def wrapper(*args):
            calls.setdefault(name, []).append(args)
            return fn(*args)
        monkeypatch.setattr(squeezing, name, wrapper)

    for name in ("_newton_rows", "_dual_min"):
        counted(name)
    xi = xi_batch(c[rows], Optimized())
    assert bool(calls.get("_newton_rows")) == (size >= _BATCH_ROWS)
    # one dual solve takes every open row, the four above among them
    ((m, _, _),) = calls["_dual_min"]
    want = (_plane_plane_coefficients(c[first]) @ _PLANE_M).reshape(-1, 4, 4)
    assert all(np.isclose(m, w, rtol=0.0, atol=1e-14).all(axis=(1, 2)).any() for w in want)
    monkeypatch.undo()
    for got, row in zip(xi, c[rows]):
        rep = squeezing_report(CoupledState(row), Optimized())
        assert abs(got - rep.xi) <= 1e-12 * abs(rep.xi)


# ------------------------------------------------------ batched engine


def _tilted(state, axis, angle):
    return rotate_coupled(state, np.eye(3)[axis], angle)


def _batch_population():
    """States for the xi_batch equivalence tests: dense, product, config,
    mean directions within 1e-9 of +z and -z on both sides of the frame
    gauges' thresholds, one degenerate subsystem, and both degenerate."""
    rng = np.random.default_rng(77)
    states = [random_coupled(rng) for _ in range(12)]
    states += [product(Spin1State.normalized(rng.standard_normal(3) + 1j * rng.standard_normal(3)),
                       Spin1State.normalized(rng.standard_normal(3) + 1j * rng.standard_normal(3)))
               for _ in range(3)]
    states += [product(canonical_squeezed(a), canonical_squeezed(b))
               for a, b in ((0.3, 2.2), (1.2, 1.2), (3.1, 0.05))]
    states += [config(kind, a, b) for kind in (1, 2) for a, b in ((0.4, 1.1), (2.0, 0.3))]
    states += [config(3, 0.7, 1.3), config(3, 1.1, 0.4, 0.7, 1.9)]
    # tilts straddle |n_y| = 1e-9 (the x-z half-plane) and |n_z| = 1 - 1e-9
    # (frame_bases' pole branch, a tilt of 4.5e-5)
    for base in (CoupledState.basis(1, 1), CoupledState.basis(-1, -1), config(1, 1.0, 0.6)):
        for eps in (1e-12, 5e-10, 2e-9, 4e-5, 5e-5):
            states += [_tilted(base, 0, eps), _tilted(base, 1, eps)]
    states += [CoupledState.basis(1, 0), product(Spin1State.basis(0), canonical_squeezed(0.9)),
               CoupledState.basis(0, 0)]
    return states


_RANDOM_FRAMES = tuple(random_frame(np.random.default_rng(5)) for _ in range(2))
_LAB = build_frame(np.array([0.0, 0.0, 1.0]))


_SIX_POLICIES = pytest.mark.parametrize("policy", [
    Fixed(_LAB, _LAB),
    Fixed(*_RANDOM_FRAMES),
    MeanSpinAligned("default"),
    MeanSpinAligned("xz"),
    MeanSpinAligned("auto"),
    Optimized(),
], ids=["fixed-lab", "fixed-random", "aligned-default", "aligned-xz", "aligned-auto", "optimized"])


@_SIX_POLICIES
def test_xi_batch_equals_reports(policy):
    states = _batch_population()
    accepted, rejected = [], []
    for state in states:
        try:
            accepted.append((state, squeezing_report(state, policy)))
        except ValueError:
            rejected.append(state)
    # only the xz gauge rejects a state: a mean direction off its half-plane
    assert bool(rejected) == (getattr(policy, "gauge", None) == "xz")
    if rejected:
        with pytest.raises(ValueError, match="half-plane"):
            xi_batch(np.array([s.c for s in states]), policy)
    for state in rejected:
        with pytest.raises(ValueError, match="half-plane"):
            xi_batch(state.c[None], policy)
    xi = xi_batch(np.array([s.c for s, _ in accepted]), policy)
    assert xi.shape == (len(accepted),)
    for got, (state, rep) in zip(xi, accepted):
        if rep.valid:
            assert abs(got - rep.xi) <= 1e-12 * abs(rep.xi), state
        else:
            assert math.isnan(got)
    assert sum(not rep.valid for _, rep in accepted) == 1
    assert sum(len(rep.degenerate_subsystems) == 1 for _, rep in accepted) == 2


def _no_report(*args):
    raise AssertionError("xi_batch called squeezing_report")


@_SIX_POLICIES
def test_xi_batch_makes_no_report(policy, monkeypatch):
    """Rows with a degenerate subsystem stay in the batch: one vanishing
    mean spin takes the array path, two give nan directly."""
    monkeypatch.setattr(squeezing, "squeezing_report", _no_report)
    states = []
    for state in _batch_population():
        try:
            xi_batch(state.c[None], policy)
            states.append(state)
        except ValueError as exc:  # the xz gauge, off the half-plane
            assert "half-plane" in str(exc)
    xi = xi_batch(np.array([s.c for s in states]), policy)
    degenerate = [sum(mag < DEGENERATE_MEAN_SPIN for mag in (m.mag1, m.mag2))
                  for m in map(Moments, states)]
    assert sorted(degenerate)[-3:] == [1, 1, 2]
    assert [k for k, x in enumerate(xi) if math.isnan(x)] == [degenerate.index(2)]


def test_xi_batch_rejects_unnormalized_and_unknown_policy():
    with pytest.raises(ValueError, match="normalized"):
        xi_batch(2.0 * CoupledState.basis(1, 1).c[None], MeanSpinAligned())
    with pytest.raises(TypeError):
        xi_batch(CoupledState.basis(1, 1).c[None], "aligned")


# --------------------------------------------------------- degeneracy


def test_both_degenerate_is_invalid():
    rep = squeezing_report(CoupledState.basis(0, 0), Optimized())
    assert not rep.valid
    assert math.isnan(rep.xi)
    assert rep.degenerate_subsystems == frozenset({1, 2})
    assert not rep.squeezed


def test_single_degenerate_subsystem():
    state = CoupledState.basis(1, 0)
    aligned = squeezing_report(state, MeanSpinAligned())
    assert aligned.valid
    assert aligned.degenerate_subsystems == frozenset({2})
    # lab-frame substitute for the degenerate side: 2*(1/2) + 2*Var(Sx)|0> = 3
    assert aligned.xi == pytest.approx(3.0, abs=1e-12)
    opt = squeezing_report(state, Optimized())
    # sphere search finds the zero-variance axis of the m=0 state
    assert opt.xi == pytest.approx(1.0, abs=1e-9)


# amplitudes (m = +1, 0, -1) of the Cartesian basis states |x>, |y>, |z> as columns
_CARTESIAN = np.array([[-1.0, 1j, 0.0], [0.0, 0.0, math.sqrt(2.0)], [1.0, 1j, 0.0]]) / math.sqrt(2.0)


def _zero_mean1(rng) -> CoupledState:
    """An entangled state with <S1> = 0 exactly: c = U (A W) with A real and W
    unitary in subsystem 1's Cartesian basis, so that sum_j conj(x_aj) x_bj
    = (A A^T)_ab is real symmetric and every <S1_k> = -i eps_kab (A A^T)_ab
    vanishes.  <S2> and the cross matrix are generically nonzero."""
    w, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    return CoupledState.normalized(_CARTESIAN @ rng.standard_normal((3, 3)) @ w)


def _polar(rng) -> Spin1State:
    """A spin-1 state with <S> = 0: a real Cartesian vector times a phase."""
    phase = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
    return Spin1State.normalized(_CARTESIAN @ rng.standard_normal(3) * phase)


def _random_spin1(rng) -> Spin1State:
    return Spin1State.normalized(rng.standard_normal(3) + 1j * rng.standard_normal(3))


def _swapped(state: CoupledState) -> CoupledState:
    return CoupledState.normalized(state.c.T)


def _near_pole_states() -> list[CoupledState]:
    """Products with spin-1 coherent states whose mean spins lie within 1e-9
    of +z or -z (build_frame's pole branch); phi = 0 keeps the +z ones in
    the x-z half-plane."""
    states = []
    for theta in (1e-5, 3e-5, math.pi - 1e-5, math.pi - 3e-5):
        for phi in (0.0, 0.7):
            near = schwinger(Spinor(theta, phi), Spinor(theta, phi))
            states += [product(near, near), product(near, canonical_squeezed(1.2)),
                       product(canonical_squeezed(0.4), near)]
    return states


def test_engine_frames_pass_frame_validation():
    """Report frames are built without Frame's checks; every one of them
    passes those checks."""
    rng = np.random.default_rng(1111)
    states = [random_coupled(rng) for _ in range(10)]
    states += [product(_random_spin1(rng), _random_spin1(rng)) for _ in range(4)]
    states += [product(canonical_squeezed(a), canonical_squeezed(b))
               for a, b in ((0.3, 2.9), (1.0, 1.0))]
    states += [product(_polar(rng), _random_spin1(rng)), product(_random_spin1(rng), _polar(rng))]
    states += [_zero_mean1(rng), _swapped(_zero_mean1(rng))]
    states += _near_pole_states()
    policies = [Fixed(random_frame(rng), random_frame(rng)), MeanSpinAligned("default"),
                MeanSpinAligned("xz"), MeanSpinAligned("auto"), Optimized()]
    xz = 0
    for state in states:
        for policy in policies:
            try:
                rep = squeezing_report(state, policy)
            except ValueError as exc:  # a mean spin outside the x-z half-plane
                assert policy == MeanSpinAligned("xz") and "half-plane" in str(exc)
                continue
            xz += policy == MeanSpinAligned("xz")
            assert rep.valid and math.isfinite(rep.xi)
            for f in (rep.frame1, rep.frame2):
                Frame(f.n, f.n_perp, f.n_perp2)
    assert xz == 8


def test_a_nan_from_the_plane_search_raises(monkeypatch, rng):
    monkeypatch.setattr(squeezing, "_plane_plane_min", lambda coef: np.full((len(coef), 4), np.nan))
    with pytest.raises(ValueError, match="non-finite xi"):
        squeezing_report(random_coupled(rng), Optimized())


@pytest.mark.parametrize("sphere_side", [np.full(3, np.nan), np.array([0.0, 0.0, 1.0])])
def test_a_nan_from_the_sphere_search_raises(monkeypatch, rng, sphere_side):
    """A nan on the sphere side fails build_frame; one on the circle side
    alone reaches the report's check."""
    nan3 = np.full(3, np.nan)
    monkeypatch.setattr(squeezing, "_sphere_circle", lambda tables, second, e: tuple(
        x[None] for x in ((nan3, sphere_side) if second[0] else (sphere_side, nan3))))
    for state in (product(_polar(rng), _random_spin1(rng)),
                  product(_random_spin1(rng), _polar(rng))):
        with pytest.raises(ValueError, match="non-finite xi" if sphere_side[0] == 0.0 else None):
            squeezing_report(state, Optimized())


def _sign_convention_population() -> tuple[list[CoupledState], list[bool]]:
    """One-degenerate states, and whether each is a product: entangled ones
    with <S1> = 0 or <S2> = 0, polar products either way round, and polar
    times coherent (an isotropic circle side)."""
    rng = np.random.default_rng(1212)
    entangled = [_zero_mean1(rng) for _ in range(6)]
    entangled += [_swapped(s) for s in entangled]
    products = [product(_polar(rng), _random_spin1(rng)) for _ in range(4)]
    products += [product(_random_spin1(rng), _polar(rng)) for _ in range(4)]
    products += [CoupledState.basis(0, 1), CoupledState.basis(-1, 0), CoupledState.basis(1, 0)]
    return entangled + products, [False] * len(entangled) + [True] * len(products)


def _assert_sign_convention(state: CoupledState, is_product: bool, u, v):
    """The circle side's direction at an angle in [0, pi) from build_frame's
    n_perp towards its n_perp2; on a product, the sphere side's
    largest-magnitude component positive."""
    mom = Moments(state)
    sphere, circle, mean_o = (u, v, mom.mean2) if mom.mag1 < mom.mag2 else (v, u, mom.mean1)
    base = build_frame(mean_o / np.linalg.norm(mean_o))
    w0, w1 = float(circle @ base.n_perp), float(circle @ base.n_perp2)
    assert w1 > 1e-12 or (abs(w1) <= 1e-12 and w0 > 0.0), (w0, w1)
    if is_product:
        assert sphere[np.argmax(np.abs(sphere))] > 0.0, sphere


def test_sphere_circle_sign_convention(monkeypatch):
    """Both callers of _sphere_circle return directions of one sign
    convention: the reports' n_perp, and xi_batch's directions for all the
    rows at once, which are the same vectors."""
    states, products = _sign_convention_population()
    reports = [squeezing_report(s, Optimized()) for s in states]
    for state, is_product, rep in zip(states, products, reports):
        _assert_sign_convention(state, is_product, rep.frame1.n_perp, rep.frame2.n_perp)
    solve, calls = squeezing._sphere_circle, []
    monkeypatch.setattr(squeezing, "_sphere_circle", lambda *args: calls.append(solve(*args)) or calls[-1])
    xi_batch(np.array([s.c for s in states]), Optimized())
    ((u, v),) = calls
    for k, (state, is_product, rep) in enumerate(zip(states, products, reports)):
        _assert_sign_convention(state, is_product, u[k], v[k])
        npt.assert_allclose(u[k], rep.frame1.n_perp, rtol=0.0, atol=1e-9)
        npt.assert_allclose(v[k], rep.frame2.n_perp, rtol=0.0, atol=1e-9)


def _sphere_circle_scan(state: CoupledState, d: int) -> float:
    """min xi over a dense (theta, phi) grid on subsystem d's sphere times a
    dense angle grid on the other subsystem's transverse circle."""
    mom = Moments(state)
    theta, phi = np.meshgrid(np.linspace(0.0, math.pi, 91),
                             np.linspace(0.0, 2.0 * math.pi, 180, endpoint=False), indexing="ij")
    us = np.stack([np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)],
                  axis=-1).reshape(-1, 3)
    t = np.linspace(0.0, 2.0 * math.pi, 180, endpoint=False)
    mean_o = mom.mean2 if d == 1 else mom.mean1
    base = build_frame(mean_o / np.linalg.norm(mean_o))
    vs = np.outer(np.cos(t), base.n_perp) + np.outer(np.sin(t), base.n_perp2)
    u1, u2 = (us, vs) if d == 1 else (vs, us)
    var1 = np.einsum("ik,kl,il->i", u1, mom.mom1, u1) - (u1 @ mom.mean1) ** 2
    var2 = np.einsum("ik,kl,il->i", u2, mom.mom2, u2) - (u2 @ mom.mean2) ** 2
    num = 2.0 * var1[:, None] + 2.0 * var2[None, :] + 4.0 * (u1 @ mom.cross_mat @ u2.T)
    return float(num.min()) / (mom.mag1 + mom.mag2)


def test_sphere_branch_is_certified():
    rng = np.random.default_rng(404)
    entangled = [_zero_mean1(rng) for _ in range(4)]
    entangled += [_swapped(s) for s in entangled]
    pairs = [(_polar(rng), _random_spin1(rng)) for _ in range(6)]
    products = [product(p, o) if k % 2 else product(o, p) for k, (p, o) in enumerate(pairs)]
    for state in entangled + products:
        rep = squeezing_report(state, Optimized())
        assert rep.valid and len(rep.degenerate_subsystems) == 1
        (d,) = rep.degenerate_subsystems
        assert rep.xi <= _sphere_circle_scan(state, d) + 1e-12
        assert abs(xi_oracle(state, rep.frame1, rep.frame2) - rep.xi) <= 1e-10
    # with a polar factor both variances are minimized separately, the polar
    # one over the whole sphere (the least eigenvalue of its second moments,
    # which _min_transverse_variance returns for a zero mean spin)
    for state, (polar, other) in zip(products, pairs):
        min_polar, _ = _min_transverse_variance(polar)
        min_other, mag_other = _min_transverse_variance(other)
        xi = squeezing_report(state, Optimized()).xi
        assert abs(xi - (2.0 * min_polar + 2.0 * min_other) / mag_other) <= 1e-12


def test_sphere_search_contains_plane_search_across_the_switch():
    # |<S1>| just below the threshold takes the sphere search, just above it
    # the plane search; the sphere contains the plane, so xi may only drop
    rng = np.random.default_rng(606)
    for _ in range(4):
        base = _zero_mean1(rng).c
        kick = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))

        def kicked(eps):
            return CoupledState.normalized(base + eps * kick)

        slope = Moments(kicked(1e-6)).mag1 / 1e-6
        below, above = kicked(0.99e-9 / slope), kicked(1.01e-9 / slope)
        assert Moments(below).mag1 < DEGENERATE_MEAN_SPIN <= Moments(above).mag1
        sphere = squeezing_report(below, Optimized())
        plane = squeezing_report(above, Optimized())
        assert sphere.degenerate_subsystems == frozenset({1})
        assert not plane.degenerate_subsystems
        assert sphere.xi <= plane.xi + 1e-9


def test_degenerate_report_peak_allocation():
    # a deterministic memory bound, not a timing gate: the sphere branch
    # peaks at tens of kilobytes per report, where a grid over the sphere
    # times the circle takes megabytes
    state = _zero_mean1(np.random.default_rng(707))
    squeezing_report(state, Optimized())
    tracemalloc.start()
    try:
        squeezing_report(state, Optimized())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 200_000


def test_squeezed_flag_guard_at_boundary():
    rep = squeezing_report(CoupledState.basis(1, 1), Optimized())
    assert rep.valid
    assert rep.xi == pytest.approx(1.0, abs=1e-12)
    assert not rep.squeezed


# ----------------------------------------------------------- duality


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _numerator_forms(c: np.ndarray):
    """The xi numerator of amplitude stacks c (N, 3, 3) at unit directions
    u, v as u.A1.u + v.A2.v + 2 u.C.v, from the spin matrices alone:
    (mean1, mean2, A1, A2, C)."""
    ops = np.array([SX, SY, SZ])
    sym = (ops[:, None] @ ops[None] + ops[None] @ ops[:, None]) / 2.0
    ch = c.conj()
    mean1 = np.einsum("nij,kia,naj->nk", ch, ops, c).real
    mean2 = np.einsum("nij,kja,nia->nk", ch, ops, c).real
    a1 = 2.0 * np.einsum("nij,klia,naj->nkl", ch, sym, c).real
    a2 = 2.0 * np.einsum("nij,klja,nia->nkl", ch, sym, c).real
    a1 -= 2.0 * mean1[:, :, None] * mean1[:, None]
    a2 -= 2.0 * mean2[:, :, None] * mean2[:, None]
    cross = 2.0 * np.einsum("nij,kia,ljb,nab->nkl", ch, ops, ops, c).real
    return mean1, mean2, a1, a2, cross


def _transverse_basis(mean: np.ndarray) -> np.ndarray:
    """Orthonormal bases (N, 3, 2) of the planes perpendicular to mean."""
    n = mean / np.linalg.norm(mean, axis=1)[:, None]
    h = np.where(np.abs(n[:, :1]) < 0.9, [[1.0, 0.0, 0.0]], [[0.0, 1.0, 0.0]])
    a = h - (h * n).sum(axis=1)[:, None] * n
    a /= np.linalg.norm(a, axis=1)[:, None]
    return np.stack([a, np.cross(n, a)], axis=2)


def _swap_rows(c: np.ndarray, swap: np.ndarray) -> np.ndarray:
    """c with the subsystems of the rows where swap exchanged (c -> c^T)."""
    return np.where(swap[:, None, None], c.transpose(0, 2, 1), c)


def _dual_problem(c: np.ndarray):
    """(M (N, n, n), nu, mag1 + mag2): min z.M.z over |u| = |v| = 1,
    z = (u, v) with u the first nu coordinates, is the xi numerator's
    minimum.  v runs over subsystem 2's transverse circle; u over subsystem
    1's, or over the sphere when every row's <S1> vanishes.  A row whose
    <S2> vanishes is swapped first (c -> c^T, which keeps xi)."""
    mag2 = np.linalg.norm(_numerator_forms(c)[1], axis=1)
    c = _swap_rows(c, mag2 < DEGENERATE_MEAN_SPIN)
    mean1, mean2, a1, a2, cross = _numerator_forms(c)
    mag1, mag2 = np.linalg.norm(mean1, axis=1), np.linalg.norm(mean2, axis=1)
    sphere = bool(np.all(mag1 < DEGENERATE_MEAN_SPIN))
    e1 = np.broadcast_to(np.eye(3), (len(c), 3, 3)) if sphere else _transverse_basis(mean1)
    e2 = _transverse_basis(mean2)
    t1, t2 = e1.transpose(0, 2, 1), e2.transpose(0, 2, 1)
    m = np.concatenate([np.concatenate([t1 @ a1 @ e1, t1 @ cross @ e2], axis=2),
                        np.concatenate([t2 @ cross.transpose(0, 2, 1) @ e1, t2 @ a2 @ e2], axis=2)],
                       axis=1)
    return m, e1.shape[2], mag1 + mag2


def _dual_bound(m: np.ndarray, nu: int, target: np.ndarray):
    """Lower bounds max over delta of delta + 2 lambda_min(M - delta D),
    D = diag(I_u, 0), by golden-section search on that concave function
    with np.linalg.eigvalsh alone: (bound, delta) per row, each row's search
    stopping once its bound reaches target or its bracket is down to
    rounding."""
    d = np.diag((np.arange(m.shape[-1]) < nu).astype(float))

    def phi(rows, delta):
        return delta + 2.0 * np.linalg.eigvalsh(m[rows] - delta[:, None, None] * d)[:, 0]

    # l1 - l2 = u.M_uu.u - v.M_vv.v at a minimizer bounds the maximizing delta
    uu, vv = np.linalg.eigvalsh(m[:, :nu, :nu]), np.linalg.eigvalsh(m[:, nu:, nu:])
    lo, hi = uu[:, 0] - vv[:, -1], uu[:, -1] - vv[:, 0]
    width = hi - lo
    least = 1e-15 * (width + np.abs(lo) + np.abs(hi))
    x1, x2 = hi - _GOLDEN * width, lo + _GOLDEN * width
    every = np.arange(len(m))
    f1, f2 = phi(every, x1), phi(every, x2)
    bound, arg = np.maximum(f1, f2), np.where(f1 >= f2, x1, x2)
    live = every[bound < target]
    while live.size:
        left = f1[live] >= f2[live]          # the maximum is in [lo, x2]
        l, r = live[left], live[~left]
        hi[l], x2[l], f2[l] = x2[l], x1[l], f1[l]
        x1[l] = hi[l] - _GOLDEN * (hi[l] - lo[l])
        f1[l] = phi(l, x1[l])
        lo[r], x1[r], f1[r] = x1[r], x2[r], f2[r]
        x2[r] = lo[r] + _GOLDEN * (hi[r] - lo[r])
        f2[r] = phi(r, x2[r])
        for x, f in ((x1, f1), (x2, f2)):
            up = f[live] > bound[live]
            bound[live[up]], arg[live[up]] = f[live[up]], x[live[up]]
        live = live[(bound[live] < target[live]) & (hi[live] - lo[live] > least[live])]
    return bound, arg


def _degenerate_population(n: int) -> np.ndarray:
    """n states with <S1> = 0: entangled ones and polar products, alternating."""
    rng = np.random.default_rng(808)
    return np.array([(_zero_mean1(rng) if k % 2 else product(_polar(rng), _random_spin1(rng))).c
                     for k in range(n)])


def test_optimized_attains_the_dual_bound():
    g = np.linspace(0.05, 3.1, 50)
    populations = {
        "seed-11 dense": _dense_draw(11),
        "sweep config2": np.array([config(2, a, b).c for a in g for b in g]),
        "sweep config3": np.array([config(3, a, b).c for a in g for b in g]),
        "evolve --stages 2": two_stage_amplitudes(np.linspace(0.0, 3.0, 60)),
        # <S1> = 0 and, on every other pair of rows, <S2> = 0: 520 rows
        "one degenerate": _swap_rows(_degenerate_population(520), np.arange(520) % 4 >= 2),
    }
    for name, c in populations.items():
        xi = xi_batch(c, Optimized())
        m, nu, den = _dual_problem(c)
        slack = 1e-10 * np.maximum(1.0, np.abs(xi))
        bound, _ = _dual_bound(m, nu, (xi - slack) * den)
        over = np.flatnonzero(xi > bound / den + slack)
        assert not over.size, (name, over[:5], xi[over[:5]], bound[over[:5]] / den[over[:5]])
        assert nu == (3 if name == "one degenerate" else 2)


def test_dual_solve_recovers_the_hard_case():
    # where the lowest eigenvalue of M - delta D is repeated at the optimal
    # delta, started away from the minimum: sweep config3 default cells
    # (doubly), and coherent times squeezed products (triply: an isotropic
    # transverse variance and no correlation)
    g = np.linspace(0.05, 3.1, 50)
    cells = [(16, 21), (17, 2), (17, 27), (17, 47), (31, 22), (32, 2), (32, 27), (32, 47)]
    c = np.array([config(3, g[i], g[j]).c for i, j in cells])
    coef = _plane_plane_coefficients(c)
    products = [product(Spin1State.basis(1), canonical_squeezed(t)).c for t in g[::7]]
    m = np.concatenate([(coef @ _PLANE_M).reshape(-1, 4, 4), _dual_problem(np.array(products))[0]])
    scale = np.abs(m).sum(axis=(1, 2))
    for start in ([1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 1.0]):
        z, bound = _dual_min(m, 2, np.tile(start, (len(m), 1)))
        npt.assert_allclose(np.linalg.norm(z[:, :2], axis=1), 1.0, rtol=0, atol=1e-15)
        npt.assert_allclose(np.linalg.norm(z[:, 2:], axis=1), 1.0, rtol=0, atol=1e-15)
        value = np.einsum("ni,nij,nj->n", z, m, z)
        assert np.all(value - bound <= 1e-12 * scale)
        # the bound is the independent search's, and the cells are hard
        reference, delta = _dual_bound(m, 2, np.full(len(m), np.inf))
        assert np.all(np.abs(bound - reference) <= 1e-12 * scale)
        lam = np.linalg.eigvalsh(m - delta[:, None, None] * np.diag([1.0, 1.0, 0.0, 0.0]))
        assert np.all(lam[:, 1] - lam[:, 0] <= 1e-9 * scale)


def test_dual_solve_on_the_sphere():
    # 5x5 problems, u over a whole sphere, built independently of the engine
    m, nu, _ = _dual_problem(_degenerate_population(40))
    scale = np.abs(m).sum(axis=(1, 2))
    z, bound = _dual_min(m, nu, np.tile([1.0, 0.0, 0.0, 1.0, 0.0], (len(m), 1)))
    npt.assert_allclose(np.linalg.norm(z[:, :3], axis=1), 1.0, rtol=0, atol=1e-15)
    npt.assert_allclose(np.linalg.norm(z[:, 3:], axis=1), 1.0, rtol=0, atol=1e-15)
    assert np.all(np.einsum("ni,nij,nj->n", z, m, z) - bound <= 1e-12 * scale)
    reference, _ = _dual_bound(m, nu, np.full(len(m), np.inf))
    assert np.all(np.abs(bound - reference) <= 1e-12 * scale)


# <S1> = 0 and <S2> = 0 states whose polished sphere point misses the 5x5
# test by roundoff here, so that their reports run the dual solve
_SPHERE_FALLBACKS = (
    ((-0.09019383976763574-0.08094009353554349j), (-0.05805744894754847+0.4830886137122617j),
     (-0.312593708106372+0.2931147364067914j), (0.11290343092287662+0.048083352826985004j),
     (-0.2199144711357934+0.13294166453474326j), (-0.11154971139994763+0.19062122225897543j),
     (-0.21043227335512682-0.3722272742282479j), (0.23855764350988182+0.1850476548575966j),
     (0.08344434579296467-0.3925714591738945j)),
    ((-0.026514614256446082+0.12389649655806742j), (0.36933524973549997-0.2832385074733212j),
     (0.019398134785246844-0.07776237524609005j), (-0.02732875143711026+0.002078162681516887j),
     (-0.35138280522843435-0.28915692174162055j), (0.060044859604237784-0.08742274972283626j),
     (-0.42894413034945467+0.14641474911835628j), (-0.26966211622879577+0.2431015827344322j),
     (0.1760266174233354-0.4166270811551486j)),
)


@pytest.mark.parametrize("amps", _SPHERE_FALLBACKS, ids=["<S1> = 0", "<S2> = 0"])
def test_sphere_fallback_reports(amps):
    state = CoupledState(np.array(amps).reshape(3, 3))
    rep = squeezing_report(state, Optimized())
    (d,) = rep.degenerate_subsystems
    assert rep.xi <= _sphere_circle_scan(state, d) + 1e-12
    assert abs(xi_oracle(state, rep.frame1, rep.frame2) - rep.xi) <= 1e-10
    m, nu, den = _dual_problem((state.c if d == 1 else state.c.T)[None])
    bound, _ = _dual_bound(m, nu, np.full(1, np.inf))
    assert rep.xi <= bound[0] / den[0] + 1e-12 * max(1.0, abs(rep.xi))


def test_optimized_xi_is_invariant_under_local_rotations():
    # R1 (x) R2 with independent rotations maps each subsystem's transverse
    # directions onto the rotated state's, so the minimum over them is kept
    rng = np.random.default_rng(909)
    states = [random_coupled(rng) for _ in range(12)]
    states += [CoupledState(np.array(amps).reshape(3, 3)) for amps, _, _ in _MISSES.values()]
    degenerate = [CoupledState(c) for c in _degenerate_population(6)]
    states += degenerate + [_swapped(s) for s in degenerate]
    for state in states:
        xi = squeezing_report(state, Optimized()).xi
        for _ in range(2):
            rotated = rotate_local(state, random_unit(rng), rng.uniform(0.0, 2.0 * math.pi),
                                   random_unit(rng), rng.uniform(0.0, 2.0 * math.pi))
            assert abs(squeezing_report(rotated, Optimized()).xi - xi) <= 1e-10 * max(1.0, abs(xi))


# --------------------------------------------------------- properties

_FLOAT = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False, allow_subnormal=False)


def _spin1(parts) -> Spin1State | None:
    amps = np.array(parts[:3]) + 1j * np.array(parts[3:])
    return Spin1State.normalized(amps) if np.linalg.norm(amps) > 0.1 else None


@st.composite
def _dense_state(draw):
    parts = np.array(draw(st.lists(_FLOAT, min_size=18, max_size=18)))
    c = (parts[:9] + 1j * parts[9:]).reshape(3, 3)
    return CoupledState.normalized(c) if np.linalg.norm(c) > 0.1 else None


@st.composite
def _product_state(draw):
    a, b = (_spin1(draw(st.lists(_FLOAT, min_size=6, max_size=6))) for _ in range(2))
    return None if a is None or b is None else product(a, b)


@st.composite
def _polar_state(draw):
    vec = np.array(draw(st.lists(_FLOAT, min_size=3, max_size=3)))
    other = _spin1(draw(st.lists(_FLOAT, min_size=6, max_size=6)))
    if np.linalg.norm(vec) <= 0.1 or other is None:
        return None
    phase = np.exp(1j * draw(st.floats(0.0, 2.0 * math.pi)))
    polar = Spin1State.normalized(_CARTESIAN @ vec * phase)
    return product(polar, other) if draw(st.booleans()) else product(other, polar)


_STATE = st.one_of(_dense_state(), _product_state(), _polar_state()).filter(lambda s: s is not None)


@st.composite
def _zero_mean_state(draw):
    """_zero_mean1's entangled state with <S1> = 0 from drawn numbers, or its
    swap with <S2> = 0."""
    a = np.array(draw(st.lists(_FLOAT, min_size=9, max_size=9))).reshape(3, 3)
    parts = np.array(draw(st.lists(_FLOAT, min_size=18, max_size=18)))
    g = (parts[:9] + 1j * parts[9:]).reshape(3, 3)
    if np.linalg.norm(a) <= 0.1 or abs(np.linalg.det(g)) <= 1e-3:
        return None
    state = CoupledState.normalized(_CARTESIAN @ a @ np.linalg.qr(g)[0])
    return _swapped(state) if draw(st.booleans()) else state


@st.composite
def _near_switch_state(draw):
    """_zero_mean_state moved along drawn amplitudes until its vanishing mean
    spin has the length 10^x, x drawn from [-11, -7]: on either side of
    DEGENERATE_MEAN_SPIN."""
    state = draw(_zero_mean_state())
    parts = np.array(draw(st.lists(_FLOAT, min_size=18, max_size=18)))
    if state is None or np.linalg.norm(parts) <= 0.1:
        return None
    kick = (parts[:9] + 1j * parts[9:]).reshape(3, 3)
    side = 0 if Moments(state).mag1 < DEGENERATE_MEAN_SPIN else 1

    def length(eps):
        mom = Moments(CoupledState.normalized(state.c + eps * kick))
        return (mom.mag1, mom.mag2)[side]

    slope = length(1e-6) / 1e-6
    if slope <= 1e-3:
        return None
    return CoupledState.normalized(state.c + 10.0 ** draw(st.floats(-11.0, -7.0)) / slope * kick)


@given(state=_near_switch_state().filter(lambda s: s is not None))
def test_plane_search_is_never_below_the_sphere_search(state):
    """Near the switch, the same state through both Optimized paths (the
    switch moved below and above its mean spins): the sphere search over u
    contains the plane search, so its minimum is the lower one."""
    xi = {}
    for path, switch in (("plane", 0.0), ("sphere", 1e-6)):
        with mock.patch.object(squeezing, "DEGENERATE_MEAN_SPIN", switch):
            xi[path] = xi_batch(state.c[None], Optimized())[0]
    assert xi["plane"] >= xi["sphere"] - 1e-12 * max(1.0, abs(xi["sphere"]))


_SWAP_FRAMES = (random_frame(np.random.default_rng(71)), random_frame(np.random.default_rng(72)))


@given(state=st.one_of(_STATE, _zero_mean_state().filter(lambda s: s is not None)))
def test_xi_is_invariant_under_subsystem_swap(state):
    """c -> c^T exchanges the subsystems: xi stays, under every policy, with
    the Fixed frames exchanged too."""
    f1, f2 = _SWAP_FRAMES
    swapped = _swapped(state)
    for policy, mirror in ((Fixed(f1, f2), Fixed(f2, f1)), (MeanSpinAligned(), MeanSpinAligned()),
                           (Optimized(), Optimized())):
        rep, other = squeezing_report(state, policy), squeezing_report(swapped, mirror)
        assert other.degenerate_subsystems == frozenset(3 - d for d in rep.degenerate_subsystems)
        assert other.valid == rep.valid
        if rep.valid:
            assert abs(other.xi - rep.xi) <= 1e-12 * max(1.0, abs(rep.xi))


@given(state=_STATE)
def test_optimized_is_never_above_aligned(state):
    opt = squeezing_report(state, Optimized())
    if not opt.valid:
        return
    for gauge in ("default", "auto"):
        aligned = squeezing_report(state, MeanSpinAligned(gauge)).xi
        assert opt.xi <= aligned + 1e-12 * max(1.0, abs(opt.xi))


@given(states=st.lists(_STATE, min_size=1, max_size=4))
def test_xi_batch_equals_reports_on_generated_states(states):
    xi = xi_batch(np.array([s.c for s in states]), Optimized())
    for got, state in zip(xi, states):
        rep = squeezing_report(state, Optimized())
        if rep.valid:
            assert abs(got - rep.xi) <= 1e-12 * max(1.0, abs(rep.xi))
        else:
            assert math.isnan(got)


@given(state=_STATE)
def test_state_files_round_trip(state):
    """save_state then load_state gives the state back: JSON keeps every
    float exactly, and load_state's renormalization moves a normalized
    state by rounding only."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "state.json"
        save_state(path, state)
        back = load_state(path)
    assert back.c.shape == (3, 3)
    assert np.max(np.abs(back.c - state.c)) <= 4e-16


# ------------------------------------------------------- closed forms


def test_product_pair_closed_form_values():
    assert xi_product_pair(1.0, 1.0) == pytest.approx(math.cos(0.5), abs=1e-14)
    assert xi_product_pair(0.8, 1.7) == pytest.approx(0.7957789116481969, abs=1e-13)
    with pytest.raises(ZeroDenominatorError):
        xi_product_pair(math.pi, math.pi)


def test_product_pair_matches_engine(rng):
    for _ in range(25):
        t1, t2 = rng.uniform(0.1, 3.0, size=2)
        state = product(canonical_squeezed(t1), canonical_squeezed(t2))
        rep = squeezing_report(state, MeanSpinAligned())
        assert rep.xi == pytest.approx(xi_product_pair(t1, t2), abs=1e-10)


def test_product_diagonal_law(rng):
    for theta in np.linspace(0.05, 3.0, 25):
        state = product(canonical_squeezed(theta), canonical_squeezed(theta))
        rep = squeezing_report(state, MeanSpinAligned())
        assert rep.xi == pytest.approx(math.cos(theta / 2.0), abs=1e-10)


def test_product_cross_term_vanishes(rng):
    for _ in range(20):
        s1 = Spin1State.normalized(rng.standard_normal(3) + 1j * rng.standard_normal(3))
        s2 = Spin1State.normalized(rng.standard_normal(3) + 1j * rng.standard_normal(3))
        rep = squeezing_report(product(s1, s2), MeanSpinAligned())
        if not rep.valid or rep.degenerate_subsystems:
            continue
        assert rep.cross == pytest.approx(0.0, abs=1e-12)


def test_coherent_times_squeezed_closed_form():
    u = math.cos(1.0)
    assert xi_coherent_times_squeezed(2.0) == pytest.approx(
        (1 + 2 * u * u) / (1 + u + u * u), abs=1e-14
    )
    # transcription disagrees with the engine away from theta = 0
    state = family_state("coherent_squeezed", (2.0,))
    rep = squeezing_report(state, MeanSpinAligned())
    assert abs(rep.xi - xi_coherent_times_squeezed(2.0)) > 0.01


def test_coherent_times_squeezed_engine_minimum():
    thetas = np.linspace(0.05, 3.1, 200)
    vals = []
    for theta in thetas:
        state = family_state("coherent_squeezed", (theta,))
        vals.append(squeezing_report(state, MeanSpinAligned()).xi)
    i = int(np.argmin(vals))
    assert vals[i] == pytest.approx(0.75, abs=0.005)
    assert math.cos(thetas[i] / 2.0) == pytest.approx(1.0 / 3.0, abs=0.01)


def test_config1_closed_form():
    assert xi_config1(0.8, 0.0, 0.6) == pytest.approx(25.0 / 7.0, abs=1e-12)
    assert xi_config1(0.8, 0.3, 0.6) == pytest.approx(3.7857142857142856, abs=1e-12)
    with pytest.raises(ZeroDenominatorError):
        xi_config1(0.6, 0.3, 0.6)


def test_config1_c22_zero_slice_matches_engine():
    # with the middle amplitude absent the printed form has no frame freedom
    # left to disagree about
    state = CoupledState.normalized(np.diag([0.8, 0.0, 0.6]))
    rep = squeezing_report(state, Optimized())
    assert rep.xi == pytest.approx(xi_config1(0.8, 0.0, 0.6), abs=1e-10)


def test_config2_closed_form():
    assert xi_config2(0.8, 0.3, 0.5) == pytest.approx(0.38281249999999994, abs=1e-13)


def test_config3_closed_form():
    assert xi_config3(0.6, 0.5, 0.3) == pytest.approx(4.384615384615383, abs=1e-12)
    # complex amplitudes make the printed expression non-real: undefined
    assert math.isnan(xi_config3(0.6, 0.5 * np.exp(0.7j), 0.3))


def test_diagonal_family_optimized_form(rng):
    # independently derived: for diag (a, b, c) real the optimized ratio is
    # (a^2 + 2 b^2 + c^2 - 2|b (a + c)|) / |a^2 - c^2|
    for _ in range(40):
        a, b, c = rng.uniform(-1.0, 1.0, size=3)
        if abs(a * a - c * c) < 0.05:
            continue
        n2 = a * a + b * b + c * c
        expected = (a * a + 2 * b * b + c * c - 2 * abs(b * (a + c))) / abs(a * a - c * c)
        state = CoupledState.normalized(np.diag([a, b, c]))
        rep = squeezing_report(state, Optimized())
        assert rep.xi == pytest.approx(expected, abs=1e-9), (a, b, c, n2)


# ------------------------------------------------------- comparisons


def test_compare_closed_forms_record():
    rec = compare_closed_forms("product_pair", (1.0, 1.0), MeanSpinAligned())
    assert rec.flag == "MATCH"
    assert rec.abs_diff < 1e-10
    rec = compare_closed_forms("coherent_squeezed", (2.453,), MeanSpinAligned())
    assert rec.flag == "MISMATCH"
    assert rec.abs_diff > 0.05
    rec = compare_closed_forms("config3", (0.6, 0.5 * np.exp(0.7j), 0.3), Optimized())
    assert rec.flag == "UNDEFINED"
    assert math.isnan(rec.closed_form)


def test_standard_comparisons_summary():
    recs = run_standard_comparisons()
    assert set(recs) == {"product_pair", "coherent_squeezed", "config1", "config2", "config3"}
    flag, gap, defined = family_summary(recs["product_pair"])
    assert flag == "MATCH" and gap < 1e-10 and defined == len(recs["product_pair"])
    flag, gap, _ = family_summary(recs["coherent_squeezed"])
    assert flag == "MISMATCH"
    assert gap == pytest.approx(0.0976841254208507, abs=1e-9)
    assert family_summary(recs["config1"])[0] == "MISMATCH"
    assert family_summary(recs["config2"])[0] == "MISMATCH"
    flags = {r.flag for r in recs["config3"]}
    assert "UNDEFINED" in flags  # complex-phase rows have no real closed form


def test_standard_comparison_grids_are_the_check_grids():
    """The family table reproduces the check report's grids, written out
    here as they were constructed before the table existed."""
    t = np.linspace(0.1, 3.0, 30)
    ab = np.linspace(0.1, 3.0, 15)
    config12 = [tuple(np.array([math.sin(a) * math.cos(b), math.sin(a) * math.sin(b), math.cos(b)]))
                for a in ab for b in ab]
    ab3 = np.linspace(0.1, 3.0, 12)
    expected = {
        "product_pair": [(float(a), float(b)) for a in t for b in t],
        "coherent_squeezed": [(float(a),) for a in np.linspace(0.05, 3.1, 100)],
        "config1": config12,
        "config2": config12,
        "config3": [(complex(math.cos(a)),
                     math.sin(a) * math.cos(b) * complex(math.cos(p1), math.sin(p1)),
                     math.sin(a) * math.sin(b) * complex(math.cos(p2), math.sin(p2)))
                    for p1, p2 in ((0.0, 0.0), (0.7, 1.9)) for a in ab3 for b in ab3],
    }
    grids = standard_comparison_grids()
    assert list(grids) == list(expected)
    for family, params in expected.items():
        assert grids[family] == params, family


def test_closed_form_xi_dispatch():
    assert closed_form_xi("product_pair", (1.0, 1.0)) == xi_product_pair(1.0, 1.0)
    with pytest.raises(ValueError):
        closed_form_xi("nonsense", (1.0,))


def _same_bits(a, b) -> bool:
    """Equal arrays of floats, bit for bit (the sign of zero included);
    nan entries must sit at the same places."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    nan = np.isnan(a)
    return (a.shape == b.shape and np.array_equal(nan, np.isnan(b))
            and np.array_equal(a[~nan].view(np.int64), b[~nan].view(np.int64)))


def _closed_form_cells(family) -> dict[str, list[np.ndarray]]:
    """Named cell sets of a family as axis arrays: its full default sweep
    grid, its check cells, and the cells that need more than those."""
    grids = [np.linspace(*d) for d in family.sweep_grid]
    grids += [np.zeros(1)] * (len(family.axes) - len(grids))
    sets = {"sweep": np.meshgrid(*grids, indexing="ij"),
            "check": list(np.array([cell for spec in family.check_grids
                                    for cell in itertools.product(*family.axis_grids(spec))]).T)}
    rng = np.random.default_rng(7)
    if family.name == "config3":
        # nonzero phases; those near 0, pi and 2 pi leave the numerator real
        phases = [math.pi, 2.0 * math.pi, -math.pi, 1e-9, 0.7, 1.9]
        draw = lambda: np.where(rng.random(3000) < 0.5, rng.choice(phases, 3000),
                                rng.uniform(0.0, 2.0 * math.pi, 3000))
        sets["phases"] = [rng.uniform(0.0, math.pi, 3000), rng.uniform(0.0, math.pi, 3000),
                          draw(), draw()]
    if family.name == "product_pair":
        # theta = pi on both axes: both mean spins vanish
        sets["undefined"] = [np.array([math.pi]), np.array([math.pi])]
    if family.name == "config1":
        # sin(alpha) = 1 makes c11 = c33
        sets["undefined"] = [np.full(5, math.pi / 2.0), np.linspace(0.1, 3.0, 5)]
    return {name: [np.ravel(a) for a in axes] for name, axes in sets.items()}


@pytest.mark.parametrize("name", list(FAMILIES))
def test_closed_forms_on_arrays_equal_the_scalar_forms_bit_for_bit(name):
    """Family.closed on arrays of sweep cells equals closed_form_xi cell by
    cell, nan where the scalar form raises ZeroDenominatorError."""
    family = FAMILIES[name]
    for label, axes in _closed_form_cells(family).items():
        params = family.params(*axes)
        scalar_params = [family.params(*cell) for cell in zip(*(a.tolist() for a in axes))]
        want = []
        for cell_params in scalar_params:
            try:
                want.append(closed_form_xi(name, cell_params))
            except ZeroDenominatorError:
                want.append(float("nan"))
        got = family.closed(params)
        assert _same_bits(got, want), label
        # the parameters themselves are the scalar ones, element for element
        for p, scalar in zip(params, zip(*scalar_params)):
            assert _same_bits(np.real(p), np.real(scalar)) and _same_bits(np.imag(p), np.imag(scalar))
        if label == "undefined":
            assert np.all(np.isnan(got))
        if label == "phases":
            assert np.count_nonzero(~np.isnan(got)) > 100


def test_py_complex_rounds_like_python_complex(rng):
    """_PyComplex arithmetic on arrays and _POW2 equal Python's complex and
    float operations element for element, where numpy's own differ."""
    a = rng.standard_normal(5000) + 1j * rng.standard_normal(5000)
    b = rng.standard_normal(5000) + 1j * rng.standard_normal(5000)
    x = rng.uniform(0.0, 3.0, 5000)
    za, zb = _PyComplex.of(a), _PyComplex.of(b)
    pairs = list(zip(a.tolist(), b.tolist(), x.tolist()))
    for got, want in (
        (za * zb, [p * q for p, q, _ in pairs]),
        (za + zb, [p + q for p, q, _ in pairs]),
        (za - zb, [p - q for p, q, _ in pairs]),
        (3.0 * za, [3.0 * p for p, _, _ in pairs]),
    ):
        assert _same_bits(got.re, np.real(want)) and _same_bits(got.im, np.imag(want))
    assert _same_bits(abs(za), [abs(p) for p, _, _ in pairs])
    assert _same_bits(np.asarray(_POW2(x), dtype=float), [t ** 2 for _, _, t in pairs])
    # the reason for both: numpy's complex product and its x ** 2 round otherwise
    assert not _same_bits((a * b).real, [(p * q).real for p, q, _ in pairs])
    assert not _same_bits(x ** 2, [t ** 2 for _, _, t in pairs])


# ---------------------------------------------- single-subsystem gauges


def test_ku_and_puri_on_coherent():
    top = Spin1State.basis(1)
    assert ku_parameter(top) == pytest.approx(1.0, abs=1e-12)
    assert puri_parameter(top) == pytest.approx(1.0, abs=1e-12)


def test_ku_frozen_value():
    s = canonical_squeezed(1.0)
    assert ku_parameter(s) == pytest.approx(0.8701529828766599, abs=1e-12)
    assert puri_parameter(s) == pytest.approx(0.8775825618903725, abs=1e-12)


def test_puri_dominates_ku(rng):
    for _ in range(30):
        s = Spin1State.normalized(rng.standard_normal(3) + 1j * rng.standard_normal(3))
        try:
            p = puri_parameter(s)
        except ValueError:
            continue
        assert p >= ku_parameter(s) - 1e-12


def test_ku_zero_mean_state():
    assert ku_parameter(Spin1State.basis(0)) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        puri_parameter(Spin1State.basis(0))
