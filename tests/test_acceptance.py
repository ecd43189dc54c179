"""Acceptance gate: every shipped claim exercised at its stated tolerance.

Each test prints one `criterion N: PASS/FAIL` line (straight to the
terminal, bypassing capture) so a full run reads as a checklist.  The
config-3 no-squeezing clause is genuinely false under optimized frames;
that test runs the stated check, prints the measured violation set, and
is marked xfail rather than being patched around (see the README's
"deviations" section for the analysis).
"""

import math
import time

import numpy as np
import pytest

from spinsqueeze import (
    CoupledState,
    Fixed,
    MeanSpinAligned,
    Optimized,
    Spin1State,
    builtin_initial,
    canonical_squeezed,
    config,
    cross_quadratic_generator,
    evolve,
    majorana,
    pair_exchange_generator,
    product,
    schwinger,
    squeezing_report,
    trajectory,
    two_stage_minimum,
    xi_batch,
    xi_oracle,
    xi_product_pair,
    z_alignment_audit,
)
from spinsqueeze.squeezing import _BLOCK_CELLS, FAMILIES
from spinsqueeze.cli import main as cli_main

from conftest import random_coupled, random_frame


def _announce(capsys, n, ok, detail):
    with capsys.disabled():
        print(f"criterion {n}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_1_engine_oracle_equivalence(capsys):
    rng = np.random.default_rng(11)
    t0 = time.perf_counter()
    worst = 0.0
    checked = 0
    for _ in range(1000):
        state = random_coupled(rng)
        f1, f2 = random_frame(rng), random_frame(rng)
        rep = squeezing_report(state, Fixed(f1, f2))
        if not rep.valid:
            continue
        worst = max(worst, abs(rep.xi - xi_oracle(state, f1, f2)))
        checked += 1
    ok = worst <= 1e-10 and checked > 990
    _announce(
        capsys, 1,
        ok,
        f"engine vs independent oracle, {checked} states, "
        f"max |diff| = {worst:.3g} (tol 1e-10, {time.perf_counter() - t0:.1f}s)",
    )
    assert ok


def test_criterion_2_coherent_boundary_and_oriented_states(capsys):
    rep = squeezing_report(CoupledState.basis(1, 1), Optimized())
    boundary_err = abs(rep.xi - 1.0)
    worst = -math.inf
    defined = 0
    for m1 in (1, 0, -1):
        for m2 in (1, 0, -1):
            r = squeezing_report(CoupledState.basis(m1, m2), Optimized())
            if not r.valid:
                continue
            defined += 1
            worst = max(worst, 1.0 - r.xi)
    ok = boundary_err <= 1e-12 and worst <= 1e-9 and defined == 8
    _announce(
        capsys, 2,
        ok,
        f"|1,1> xi off by {boundary_err:.2g} (tol 1e-12); {defined} defined basis "
        f"states, worst 1-xi = {worst:.2g} (tol 1e-9)",
    )
    assert ok


def test_criterion_3_product_state_law(capsys):
    t0 = time.perf_counter()
    diag_err = 0.0
    for theta in np.linspace(0.05, 3.0, 100):
        state = product(canonical_squeezed(theta), canonical_squeezed(theta))
        rep = squeezing_report(state, MeanSpinAligned())
        diag_err = max(diag_err, abs(rep.xi - math.cos(theta / 2.0)))
    grid = np.linspace(0.05, 3.1, 50)
    off_err = 0.0
    sweep_min = math.inf
    for t1 in grid:
        for t2 in grid:
            state = product(canonical_squeezed(t1), canonical_squeezed(t2))
            rep = squeezing_report(state, MeanSpinAligned())
            off_err = max(off_err, abs(rep.xi - xi_product_pair(t1, t2)))
            sweep_min = min(sweep_min, rep.xi)
    ok = diag_err <= 1e-10 and off_err <= 1e-10 and sweep_min <= 0.12
    _announce(
        capsys, 3,
        ok,
        f"diagonal law max |xi - cos(theta/2)| = {diag_err:.2g}, off-diagonal "
        f"closed-form max |diff| = {off_err:.2g} (tol 1e-10), 50x50 sweep min = "
        f"{sweep_min:.4f} (<= 0.12, {time.perf_counter() - t0:.1f}s)",
    )
    assert ok


def test_criterion_4_coherent_times_squeezed_minimum(capsys):
    from spinsqueeze.squeezing import family_state, family_summary, run_standard_comparisons

    thetas = np.linspace(0.05, 3.1, 100)
    vals = []
    for theta in thetas:
        state = family_state("coherent_squeezed", (theta,))
        vals.append(squeezing_report(state, MeanSpinAligned()).xi)
    i = int(np.argmin(vals))
    min_ok = abs(vals[i] - 0.75) <= 0.005
    arg_ok = abs(math.cos(thetas[i] / 2.0) - 1.0 / 3.0) <= 0.01
    flag, gap, _ = family_summary(run_standard_comparisons()["coherent_squeezed"])
    harness_ok = flag == "MISMATCH" and gap > 0.05
    ok = min_ok and arg_ok and harness_ok
    _announce(
        capsys, 4,
        ok,
        f"engine min = {vals[i]:.4f} (0.750 +/- 0.005) at cos(theta/2) = "
        f"{math.cos(thetas[i] / 2.0):.4f} (1/3 +/- 0.01); harness flags {flag} "
        f"with max |diff| = {gap:.4f} (> 0.05)",
    )
    assert ok


def test_criterion_5_config1_config2_squeezing_exists(capsys):
    t0 = time.perf_counter()
    mins = {}
    grid = np.linspace(0.05, 3.1, 50)
    for kind in (1, 2):
        # the sweep's grid evaluator on the (alpha, beta) grid
        engine, _ = FAMILIES[f"config{kind}"].xi_grid([grid, grid], Optimized())
        mins[kind] = float(np.nanmin(engine))
    ok = mins[1] < 1.0 and mins[2] < 1.0
    _announce(
        capsys, 5,
        ok,
        f"config1 grid min = {mins[1]:.4f}, config2 grid min = {mins[2]:.4f} "
        f"(both < 1, {time.perf_counter() - t0:.1f}s)",
    )
    assert ok


def test_criterion_5_config3_no_squeezing_claim(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240815)
    # the draws (alpha, beta, phi1, phi2) in the order of 4 scalar draws each
    draws = rng.uniform(0.0, [math.pi, math.pi, 2.0 * math.pi, 2.0 * math.pi], size=(10_000, 4))
    amps = np.array([config(3, *d).c for d in draws.tolist()])
    xi = np.concatenate([xi_batch(amps[lo:lo + _BLOCK_CELLS], Optimized())
                         for lo in range(0, len(amps), _BLOCK_CELLS)])
    undefined = int(np.isnan(xi).sum())
    worst = float(np.nanmin(xi))
    violations = int((xi < 1.0 - 1e-9).sum())
    ok = violations == 0
    _announce(
        capsys, 5,
        ok,
        f"config3 claim xi >= 1 - 1e-9 on 1e4 draws: min xi = {worst:.12f}, "
        f"{violations} violations, {undefined} undefined "
        f"({time.perf_counter() - t0:.1f}s); squeezing is real under optimized "
        f"frames (e.g. (c12,c21,c23)=(0.8124,0.5,0.3)/norm with u=-x, v=+x "
        f"gives xi=0.854); the printed no-squeezing result is bound to the "
        f"fixed frame u=v=y",
    )
    if not ok:
        pytest.xfail(
            f"claim fails under frame optimization: min xi = {worst:.12f}, "
            f"{violations}/10000 draws below 1 - 1e-9"
        )


def test_criterion_6_dynamics(capsys):
    t0 = time.perf_counter()
    pair = pair_exchange_generator()
    traj = trajectory(builtin_initial("coherent-11"), [(pair, np.linspace(0, 3, 300))], Optimized())
    single_min = float(np.nanmin(traj.xi))
    scan = two_stage_minimum(
        builtin_initial("coherent-11"), np.linspace(0, 3, 60), np.linspace(0, 3, 60), Optimized()
    )
    traj10 = trajectory(builtin_initial("mixed-10"), [(pair, np.linspace(0, 3, 300))], Optimized())
    mixed_min = float(np.nanmin(traj10.xi))
    support_leak = 0.0
    for s in traj.states:
        off = s.c.copy()
        off[np.diag_indices(3)] = 0.0
        support_leak = max(support_leak, float(np.max(np.abs(off))))
    for s in traj10.states:
        keep = abs(s.c[0, 1]) + abs(s.c[1, 2])
        support_leak = max(support_leak, float(np.sum(np.abs(s.c))) - keep)
    ok = (
        single_min < 0.4
        and scan.min_xi < single_min
        and mixed_min >= 1.0 - 1e-9
        and support_leak <= 1e-12
    )
    _announce(
        capsys, 6,
        ok,
        f"|1,1> one-stage min = {single_min:.4f} (< 0.4); two-stage min = "
        f"{scan.min_xi:.4f} at (tau1, tau2) = ({scan.argmin[0]:.3f}, "
        f"{scan.argmin[1]:.3f}) - improves on one stage, and sits below the "
        f"0.2 reference (informative); |1,0> min = {mixed_min:.6f} (>= 1 - 1e-9); "
        f"support leak = {support_leak:.2g} (tol 1e-12, {time.perf_counter() - t0:.1f}s)",
    )
    assert ok


def test_criterion_7_unitarity_and_round_trips(capsys):
    t0 = time.perf_counter()
    pair = pair_exchange_generator()
    cross = cross_quadratic_generator()
    norm_err = 0.0
    traj = trajectory(
        builtin_initial("coherent-11"),
        [(pair, np.linspace(0, 3, 120)), (cross, np.linspace(0, 3, 120))],
        MeanSpinAligned(),
    )
    for s in traj.states:
        norm_err = max(norm_err, abs(np.linalg.norm(s.vec) - 1.0))
    rng = np.random.default_rng(5)
    rt_err = 0.0
    for _ in range(50):
        state = random_coupled(rng)
        for gen in (pair, cross):
            back = evolve(evolve(state, gen, 1.234), gen, -1.234)
            rt_err = max(rt_err, float(np.max(np.abs(back.vec - state.vec))))
    fid_worst = 1.0
    for _ in range(1000):
        raw = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        s = Spin1State.normalized(raw)
        back = schwinger(*majorana(s))
        fid_worst = min(fid_worst, abs(np.vdot(s.amps, back.amps)))
    ok = norm_err <= 1e-12 and rt_err <= 1e-11 and fid_worst >= 1.0 - 1e-10
    _announce(
        capsys, 7,
        ok,
        f"trajectory norm error = {norm_err:.2g} (tol 1e-12); forward-backward "
        f"error = {rt_err:.2g} (tol 1e-11); schwinger(majorana) fidelity >= "
        f"{fid_worst:.12f} on 1000 states (tol 1 - 1e-10, {time.perf_counter() - t0:.1f}s)",
    )
    assert ok


def test_criterion_8_z_alignment_conditions(capsys):
    t0 = time.perf_counter()
    records = z_alignment_audit(n_samples=100, seed=20240801)
    failures = [r for r in records if r.closed_residual > 1e-10]
    all_pass = not failures
    if all_pass:
        ok = True
        detail = "closed-form completions satisfy all four transverse conditions"
    else:
        # fallback branch of the criterion: the failure set must be emitted
        # with reproducer inputs by the check harness
        from spinsqueeze.cli import _check_report_lines

        text = "\n".join(_check_report_lines())
        ok = (
            f"closed_form_failures={len(failures)}" in text
            and "reproducers" in text
            and max(r.numeric_residual for r in records) <= 1e-10
        )
        detail = (
            f"closed-form transcription fails on {len(failures)}/100 samples "
            f"(worst residual {max(r.closed_residual for r in records):.3f}); "
            f"failure set with reproducer inputs emitted by the check report; "
            f"numeric completion residual <= "
            f"{max(r.numeric_residual for r in records):.2g}"
        )
    _announce(capsys, 8, ok, detail + f" ({time.perf_counter() - t0:.1f}s)")
    assert ok


def test_criterion_9_sweep_determinism(capsys, tmp_path):
    t0 = time.perf_counter()
    sweeps = [
        ["sweep", "product", "--grid", "0.05:3.1:12", "--out", None],
        ["sweep", "mixed", "--grid", "0.05:3.1:40", "--out", None],
        ["sweep", "config1", "--grid", "0.1:3.0:8", "--out", None],
        ["sweep", "config2", "--grid", "0.1:3.0:8", "--out", None],
        ["sweep", "config3", "--grid", "0.1:3.0:6", "--grid", "0.1:3.0:6",
         "--grid", "0:1.9:2", "--grid", "0:1.9:2", "--out", None],
        ["evolve", "--grid", "0:3:80", "--out", None],
        ["evolve", "--stages", "2", "--grid", "0:3:12", "--grid", "0:3:12", "--out", None],
    ]
    identical = True
    names = []
    for k, args in enumerate(sweeps):
        blobs = []
        for attempt in ("a", "b"):
            path = tmp_path / f"{k}{attempt}.csv"
            argv = [a if a is not None else str(path) for a in args]
            assert cli_main(argv) == 0
            blobs.append(path.read_bytes())
        same = blobs[0] == blobs[1]
        identical = identical and same
        names.append(f"{args[0]}-{args[1] if args[0] == 'sweep' else 'traj'}:{'ok' if same else 'DIFF'}")
    capsys.readouterr()
    _announce(
        capsys, 9,
        identical,
        f"byte-identical CSV across repeated runs [{', '.join(names)}] "
        f"({time.perf_counter() - t0:.1f}s)",
    )
    assert identical
