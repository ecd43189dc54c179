import math

import numpy as np
import numpy.testing as npt
import pytest

from spinsqueeze import (
    CoupledState,
    Fixed,
    Generator,
    MeanSpinAligned,
    Optimized,
    Propagator,
    builtin_initial,
    cross_quadratic_generator,
    evolve,
    kron,
    pair_exchange_generator,
    spin1_matrices,
    squeezing_report,
    trajectory,
    two_stage_minimum,
)
from spinsqueeze.spin import S_MINUS, S_PLUS, build_frame
from spinsqueeze.squeezing import xi_batch

from conftest import random_coupled, two_stage_amplitudes

SX, SY, SZ = spin1_matrices()


def test_pair_exchange_generator_matrix():
    g = pair_exchange_generator()
    npt.assert_allclose(g.matrix, kron(S_PLUS, S_PLUS) - kron(S_MINUS, S_MINUS), atol=1e-15)
    assert g.kind == "anti_hermitian"
    assert g.label == "pair-exchange"


def test_cross_quadratic_generator_matrix():
    g = cross_quadratic_generator()
    npt.assert_allclose(g.matrix, kron(SX @ SX, SY @ SY), atol=1e-15)
    assert g.kind == "hermitian"
    assert g.label == "cross-quadratic"


def test_generator_tag_validation():
    with pytest.raises(ValueError):
        Generator(np.eye(9, dtype=complex), "anti_hermitian", "bad")
    with pytest.raises(ValueError):
        Generator(1j * np.eye(9), "hermitian", "bad")
    with pytest.raises(ValueError):
        Generator(np.eye(9, dtype=complex), "orthogonal", "bad")


@pytest.mark.parametrize("gen", [pair_exchange_generator(), cross_quadratic_generator()])
def test_propagator_unitary_and_semigroup(gen, rng):
    prop = Propagator(gen)
    for tau in (0.0, 0.4, 1.7):
        u = prop.at(tau)
        npt.assert_allclose(u.conj().T @ u, np.eye(9), atol=1e-12)
    npt.assert_allclose(prop.at(0.0), np.eye(9), atol=1e-12)
    npt.assert_allclose(prop.at(0.3) @ prop.at(1.1), prop.at(1.4), atol=1e-12)


def test_propagator_apply_matches_matrix(rng):
    prop = Propagator(pair_exchange_generator())
    state = random_coupled(rng)
    direct = prop.at(0.9) @ state.vec
    applied = prop.apply(state, 0.9)
    npt.assert_allclose(applied.vec, direct, atol=1e-12)


def test_evolve_norm_and_reversal(rng):
    state = random_coupled(rng)
    for gen in (pair_exchange_generator(), cross_quadratic_generator()):
        out = evolve(state, gen, 1.3)
        assert np.linalg.norm(out.vec) == pytest.approx(1.0, abs=1e-12)
        back = evolve(out, gen, -1.3)
        npt.assert_allclose(back.vec, state.vec, atol=1e-11)


def test_trajectory_grid_validation():
    g = pair_exchange_generator()
    start = builtin_initial("coherent-11")
    with pytest.raises(ValueError):
        trajectory(start, [(g, np.array([0.3, 0.1]))])
    with pytest.raises(ValueError):
        trajectory(start, [(g, np.array([-0.1, 0.2]))])
    with pytest.raises(ValueError):
        trajectory(start, [(g, np.zeros((2, 2)))])


def test_trajectory_norms_and_support():
    # pair exchange keeps |1,1> inside the diagonal amplitude family
    traj = trajectory(builtin_initial("coherent-11"), [(pair_exchange_generator(), np.linspace(0, 3, 40))])
    for state in traj.states:
        assert np.linalg.norm(state.vec) == pytest.approx(1.0, abs=1e-12)
        off = state.c.copy()
        off[np.diag_indices(3)] = 0.0
        assert np.max(np.abs(off)) < 1e-12


def test_trajectory_against_derived_closed_form():
    # |1,1> orbit: amplitudes ((1+cos w)/2, -sin w/sqrt2, (1-cos w)/2) with
    # w = 2 sqrt2 tau; optimized xi = ((3 - cos^2 w)/2 - sqrt2 |sin w|)/|cos w|
    grid = np.linspace(0.0, 3.0, 60)
    traj = trajectory(builtin_initial("coherent-11"), [(pair_exchange_generator(), grid)])
    w = 2.0 * math.sqrt(2.0) * grid
    with np.errstate(divide="ignore"):
        pred = ((3.0 - np.cos(w) ** 2) / 2.0 - math.sqrt(2.0) * np.abs(np.sin(w))) / np.abs(np.cos(w))
    ok = np.abs(np.cos(w)) > 1e-3
    npt.assert_allclose(traj.xi[ok], pred[ok], atol=1e-9)


def test_trajectory_min_point():
    grid = np.linspace(0.0, 3.0, 120)
    traj = trajectory(builtin_initial("coherent-11"), [(pair_exchange_generator(), grid)])
    tau_star, xi_star = traj.min_point()
    assert xi_star == pytest.approx(min(traj.xi), abs=1e-15)
    assert xi_star < 0.4
    assert traj.xi[list(traj.tau_grid).index(tau_star)] == xi_star


def test_mixed_initial_never_squeezes():
    traj = trajectory(builtin_initial("mixed-10"), [(pair_exchange_generator(), np.linspace(0, 3, 80))])
    assert np.nanmin(traj.xi) >= 1.0 - 1e-9
    # tau = 0 is the bare |1,0> state: subsystem 2 has no mean spin and the
    # sphere search finds its zero-variance axis, giving exactly 1
    assert traj.xi[0] == pytest.approx(1.0, abs=1e-9)
    # derived for the non-degenerate rest of the orbit: xi = 3 - 2|sin 4 tau|
    pred = 3.0 - 2.0 * np.abs(np.sin(4.0 * traj.tau_grid[1:]))
    npt.assert_allclose(traj.xi[1:], pred, atol=1e-9)


def test_two_stage_trajectory_stitching():
    g1, g2 = pair_exchange_generator(), cross_quadratic_generator()
    traj = trajectory(
        builtin_initial("coherent-11"),
        [(g1, np.linspace(0, 0.4, 5)), (g2, np.linspace(0, 1.0, 6))],
    )
    # duplicate boundary sample dropped: 5 + 6 - 1 points, cumulative tau
    assert len(traj.tau_grid) == 10
    npt.assert_allclose(traj.tau_grid[:5], np.linspace(0, 0.4, 5), atol=1e-15)
    npt.assert_allclose(traj.tau_grid[5:], 0.4 + np.linspace(0, 1.0, 6)[1:], atol=1e-15)
    assert traj.stage_labels[:5] == ["pair-exchange"] * 5
    assert traj.stage_labels[5:] == ["cross-quadratic"] * 5
    # stage-2 start state equals stage-1 end state evolved by zero
    direct = evolve(evolve(builtin_initial("coherent-11"), g1, 0.4), g2, 0.2)
    i = list(np.round(traj.tau_grid, 12)).index(0.6)
    assert abs(np.vdot(direct.vec, traj.states[i].vec)) == pytest.approx(1.0, abs=1e-12)


def test_two_stage_minimum_improves():
    scan = two_stage_minimum(
        builtin_initial("coherent-11"),
        np.linspace(0, 3, 25),
        np.linspace(0, 3, 25),
        Optimized(),
    )
    assert scan.xi.shape == (25, 25)
    single = np.nanmin(scan.xi[:, 0])
    assert scan.min_xi < single
    assert scan.min_xi == pytest.approx(float(np.nanmin(scan.xi)), abs=1e-13)
    i = list(scan.tau1_grid).index(scan.argmin[0])
    j = list(scan.tau2_grid).index(scan.argmin[1])
    assert scan.xi[i, j] <= float(np.nanmin(scan.xi)) + 1e-14


def test_two_stage_cells_equal_single_reports():
    g = np.linspace(0.0, 3.0, 20)
    scan = two_stage_minimum(builtin_initial("coherent-11"), g, g, Optimized())
    for xi, c in zip(scan.xi.ravel(), two_stage_amplitudes(g)):
        rep = squeezing_report(CoupledState(c), Optimized())
        assert abs(xi - rep.xi) <= 1e-12 * abs(rep.xi)


@pytest.mark.parametrize("policy", [MeanSpinAligned(), Fixed(*[build_frame([0.0, 0.0, 1.0])] * 2)],
                         ids=["aligned", "fixed-lab"])
def test_two_stage_scan_cells_equal_reports_under_every_policy(policy):
    g = np.linspace(0.0, 3.0, 7)
    scan = two_stage_minimum(builtin_initial("coherent-11"), g, g, policy)
    for xi, c in zip(scan.xi.ravel(), two_stage_amplitudes(g)):
        rep = squeezing_report(CoupledState(c), policy)
        assert abs(xi - rep.xi) <= 1e-12 * abs(rep.xi)


def test_optimized_xi_batch_equals_reports_on_degenerate_rows(rng):
    states = [random_coupled(rng) for _ in range(5)]
    states += [CoupledState.basis(1, 0), CoupledState.basis(0, 0)]
    xi = xi_batch(np.array([s.c for s in states]), Optimized())
    for got, state in zip(xi, states):
        rep = squeezing_report(state, Optimized())
        if rep.valid:
            assert abs(got - rep.xi) <= 1e-12 * abs(rep.xi)
        else:
            assert math.isnan(got)
    assert math.isnan(xi[-1]) and xi[-2] == pytest.approx(1.0, abs=1e-9)


def test_propagate_matches_single_state_evolution(rng):
    prop = Propagator(cross_quadratic_generator())
    states = [random_coupled(rng) for _ in range(3)]
    taus = np.array([0.0, 0.4, 2.5])
    amps = prop.propagate(np.array([s.vec for s in states]), taus)
    assert amps.shape == (3, 3, 9)
    for state, row in zip(states, amps):
        for tau, a in zip(taus, row):
            npt.assert_allclose(a, prop.at(tau) @ state.vec, atol=1e-14)


def test_builtin_initial():
    top = builtin_initial("coherent-11")
    assert abs(top.c[0, 0]) == pytest.approx(1.0)
    mixed = builtin_initial("mixed-10")
    assert abs(mixed.c[0, 1]) == pytest.approx(1.0)
    with pytest.raises(KeyError, match="coherent-11"):
        builtin_initial("nope")


def test_trajectory_reports_use_policy():
    grid = np.linspace(0.0, 1.0, 4)
    traj = trajectory(
        builtin_initial("coherent-11"),
        [(pair_exchange_generator(), grid)],
        Optimized(),
    )
    assert len(traj.xi) == len(traj.states) == 4
    for state, xi in zip(traj.states, traj.xi):
        rep = squeezing_report(state, Optimized())
        assert abs(xi - rep.xi) <= 1e-12 * max(1.0, abs(rep.xi))
