import math

import numpy as np
import numpy.testing as npt
import pytest

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
from spinsqueeze.spin import Frame, cross3, frame_bases
from spinsqueeze.squeezing import family_summary, moment_tables

from conftest import (
    random_coupled,
    random_frame,
    random_unit,
    rotate_coupled,
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
    for policy in (MeanSpinAligned(), Optimized(grid_points=16, refine_iters=5)):
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


def test_policy_parameter_validation():
    with pytest.raises(ValueError):
        Optimized(grid_points=4)
    with pytest.raises(ValueError):
        Optimized(refine_iters=0)


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


def test_squeezed_flag_guard_at_boundary():
    rep = squeezing_report(CoupledState.basis(1, 1), Optimized())
    assert rep.valid
    assert rep.xi == pytest.approx(1.0, abs=1e-12)
    assert not rep.squeezed


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


def test_closed_form_xi_dispatch():
    assert closed_form_xi("product_pair", (1.0, 1.0)) == xi_product_pair(1.0, 1.0)
    with pytest.raises(ValueError):
        closed_form_xi("nonsense", (1.0,))


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
