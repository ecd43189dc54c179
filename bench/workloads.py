"""The benchmark's three workloads: seeded inputs, timed body, output checks.

Each workload draws its inputs from its seed when it is constructed, so the
program only ever receives generated values.  ``body()`` is the timed work
and may run many times; ``check()`` runs afterwards, outside any timing, and
returns the number of check items attempted and failed.

* ``twostage_scan``: ``spinsqueeze evolve --stages 2`` on a 60x60 grid from
  coherent-11; the paper's headline generation run and the only workload
  with dynamics work.  All 3,600 reports take the plane-plane optimizer.
* ``product_sweep``: ``spinsqueeze sweep product`` on a 120x120 grid;
  state construction, moments, frames, closed forms and CSV output with no
  optimizer or dynamics call, so it is the control for optimizer changes.
* ``engine_mix``: library calls on ~1,000 seeded states, each through
  Fixed(lab), MeanSpinAligned, Optimized and xi_oracle; the only workload
  that reaches the degenerate (sphere) search.
"""

from __future__ import annotations

import contextlib
import io
import math
from pathlib import Path
from time import perf_counter

import numpy as np

# Engine calls timed per state, in this order.
CALLS = ("fixed", "aligned", "optimized", "oracle")

ORACLE_TOL = 1e-10
REDERIVE_TOL = 1e-9
RECOMPUTE_TOL = 1e-12
OPTIMIZED_SLACK = 1e-9


def agrees(a: float, b: float, tol: float) -> bool:
    """|a - b| <= tol * max(1, |b|).

    xi scales as 1/|<S>|, so a state one ulp away moves a large xi by a
    relative ~1e-16/|<S>|: twostage_scan seed 102 has a grid row with
    |<S>| = 3.3e-6 and xi = 29384, where two exact evaluations differ by
    2e-6.  For |xi| <= 1 the tolerance is absolute.
    """
    return abs(a - b) <= tol * max(1.0, abs(b))


class Checks:
    """Counts output checks; a run that exited non-zero fails all of them."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def item(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(what)

    def close(self, exit_codes) -> "Checks":
        bad = [rc for rc in exit_codes if rc != 0]
        if bad:
            self.failed = self.attempted
            self.messages.append(f"program exited with {bad[0]}")
        return self


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _lab_fixed():
    from spinsqueeze.spin import build_frame
    from spinsqueeze.squeezing import Fixed

    lab = build_frame(np.array([0.0, 0.0, 1.0]))
    return Fixed(lab, lab)


def time_calls(state, fixed, aligned, optimized):
    """The four engine calls on one state: the results (Fixed, aligned and
    Optimized reports, oracle xi at the Optimized frames) and each call's
    latency in microseconds, in CALLS order.

    The library functions are looked up at call time, so a traced run sees
    its wrappers.
    """
    from spinsqueeze import squeezing

    report = squeezing.squeezing_report
    t0 = perf_counter()
    rf = report(state, fixed)
    t1 = perf_counter()
    ra = report(state, aligned)
    t2 = perf_counter()
    ro = report(state, optimized)
    t3 = perf_counter()
    xo = squeezing.xi_oracle(state, ro.frame1, ro.frame2)
    t4 = perf_counter()
    us = ((t1 - t0) * 1e6, (t2 - t1) * 1e6, (t3 - t2) * 1e6, (t4 - t3) * 1e6)
    return (rf, ra, ro, xo), us


class StateLatencies:
    """Repeated per-call latencies of a fixed population of states.

    A state's latency for a call is the median of its timings, which keeps
    the machine's momentary stalls out; percentiles are then taken across
    states, so p99 reflects the states that cost more (1,000 states leave
    ten beyond p99).
    """

    def __init__(self, n_states: int):
        self.times = [[] for _ in range(n_states)]  # per state: tuples in CALLS order

    def add(self, index: int, us) -> None:
        self.times[index].append(us)

    def percentile(self, call: str, q: float) -> float:
        k = CALLS.index(call)
        per_state = [np.median([t[k] for t in ts]) for ts in self.times if ts]
        return float(np.percentile(per_state, q))

    def counts(self) -> dict:
        n = [len(ts) for ts in self.times]
        return {"states": sum(1 for k in n if k), "timings_per_state_min": min(n),
                "timings": sum(n)}


class LatencySampler:
    """Per-call latencies on a population of states, taken a slice at a time.

    The timed pass calls ``step`` after each body repetition, so the timings
    spread over the whole run rather than one burst, and ``finish`` completes
    at least MIN_PASSES passes over the population.  States are visited in a
    fixed cyclic order.
    """

    MIN_PASSES = 3

    def __init__(self, make_population):
        self._make_population = make_population
        self._population = None
        self._policies = None
        self._next = 0
        self.samples = None

    def step(self, seconds: float) -> None:
        """Time states for about ``seconds``, at least one state."""
        if self._population is None:
            from spinsqueeze.squeezing import MeanSpinAligned, Optimized

            self._population = self._make_population()
            self._policies = (_lab_fixed(), MeanSpinAligned(), Optimized())
            self.samples = StateLatencies(len(self._population))
        until = perf_counter() + seconds
        while True:
            index = self._next % len(self._population)
            _, us = time_calls(self._population[index], *self._policies)
            self.samples.add(index, us)
            self._next += 1
            if perf_counter() >= until:
                break

    def finish(self) -> None:
        while self._population is None or self._next < self.MIN_PASSES * len(self._population):
            self.step(0.0)


def _check_report_trio(checks: Checks, state, rf, ra, ro, xo, where: str) -> None:
    """Oracle agreement at each report's own frames, and Optimized <= aligned."""
    from spinsqueeze.squeezing import xi_oracle

    for label, rep in (("fixed", rf), ("aligned", ra)):
        oracle = xi_oracle(state, rep.frame1, rep.frame2)
        checks.item(agrees(oracle, rep.xi, ORACLE_TOL),
                    f"{where}: {label} xi {rep.xi!r} != oracle {oracle!r}")
    checks.item(agrees(xo, ro.xi, ORACLE_TOL),
                f"{where}: optimized xi {ro.xi!r} != oracle {xo!r}")
    checks.item(ro.xi <= ra.xi + OPTIMIZED_SLACK,
                f"{where}: optimized xi {ro.xi!r} above aligned {ra.xi!r}")


def _run_cli(argv: list[str]) -> tuple[int, str]:
    from spinsqueeze import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code if isinstance(exc.code, int) else 1
    return rc, out.getvalue()


def _read_csv(path: Path) -> tuple[str, list[list[str]]]:
    lines = path.read_text(encoding="utf-8").split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        return "", []
    return lines[0], [line.split(",") for line in lines[1:]]


def _check_grid_columns(checks: Checks, rows, grid1, grid2) -> None:
    """Columns 0 and 1 enumerate grid1 x grid2 row-major, digit for digit."""
    want1 = [_fmt(x) for x in grid1 for _ in grid2]
    want2 = [_fmt(y) for _ in grid1 for y in grid2]
    checks.item([r[0] for r in rows] == want1, "first grid column differs")
    checks.item([r[1] if len(r) > 1 else "" for r in rows] == want2, "second grid column differs")


class _CliWorkload:
    """A workload whose body is one in-process CLI call writing a CSV."""

    name = ""

    def __init__(self, out_dir: Path):
        self.out = Path(out_dir) / f"{self.name}.csv"
        self.exit_codes: list[int] = []
        self.stdout = ""
        self.latency = LatencySampler(self.latency_population)

    def body(self) -> None:
        rc, self.stdout = _run_cli(self.argv)
        self.exit_codes.append(rc)

    def output_size(self) -> tuple[int, int]:
        """(rows, bytes) of the CSV the last body call wrote."""
        if not self.out.is_file():
            return 0, 0
        data = self.out.read_bytes()
        return max(data.count(b"\n") - 1, 0), len(data)


class TwoStageScan(_CliWorkload):
    name = "twostage_scan"

    def __init__(self, seed: int, out_dir: Path, count: int = 60, latency_states: int = 1000):
        super().__init__(out_dir)
        rng = np.random.default_rng([seed, 1])
        self.stops = [float(x) for x in rng.uniform(2.9, 3.1, size=2)]
        self.grids = [np.linspace(0.0, stop, count) for stop in self.stops]
        self.argv = ["evolve", "--stages", "2",
                     "--grid", f"0:{self.stops[0]!r}:{count}",
                     "--grid", f"0:{self.stops[1]!r}:{count}",
                     "--out", str(self.out)]
        cells = count * count
        self.latency_cells = rng.choice(cells, size=min(latency_states, cells), replace=False)
        self.check_cells = rng.choice(cells, size=min(40, cells), replace=False)

    def _derived_states(self, cells):
        """States at grid cells, from linalg.matrix_exponential alone."""
        from spinsqueeze.dynamics import (builtin_initial, cross_quadratic_generator,
                                          pair_exchange_generator)
        from spinsqueeze.linalg import matrix_exponential
        from spinsqueeze.states import CoupledState

        a = pair_exchange_generator().matrix
        h = cross_quadratic_generator().matrix
        psi0 = builtin_initial("coherent-11").vec
        n2 = self.grids[1].size
        out = []
        for cell in cells:
            i, j = divmod(int(cell), n2)
            psi = matrix_exponential(a, self.grids[0][i], "anti_hermitian") @ psi0
            psi = matrix_exponential(h, -1j * self.grids[1][j], "hermitian") @ psi
            out.append((int(cell), CoupledState.normalized(psi.reshape(3, 3))))
        return out

    def latency_population(self):
        return [s for _, s in self._derived_states(self.latency_cells)]

    def check(self) -> Checks:
        from spinsqueeze.squeezing import MeanSpinAligned, Optimized, squeezing_report, xi_oracle

        checks = Checks()
        header, rows = _read_csv(self.out) if self.out.is_file() else ("", [])
        n1, n2 = self.grids[0].size, self.grids[1].size
        checks.item(header == "tau1,tau2,xi", f"header {header!r}")
        checks.item(len(rows) == n1 * n2, f"{len(rows)} rows, expected {n1 * n2}")
        _check_grid_columns(checks, rows, self.grids[0], self.grids[1])
        xi_col = np.array([float(r[2]) if len(r) > 2 else math.nan for r in rows])
        if xi_col.size:
            k = int(np.nanargmin(xi_col))
            want = f"min_xi={rows[k][2]} tau1={rows[k][0]} tau2={rows[k][1]}"
        else:
            want = "(no rows)"
        checks.item(self.stdout.strip() == want, f"printed {self.stdout.strip()!r}, expected {want!r}")
        for cell, state in self._derived_states(self.check_cells):
            where = f"row {cell}"
            ro = squeezing_report(state, Optimized())
            csv_xi = xi_col[cell] if cell < xi_col.size else math.nan
            checks.item(agrees(csv_xi, ro.xi, REDERIVE_TOL),
                        f"{where}: csv xi {csv_xi!r}, re-derived {ro.xi!r}")
            ra = squeezing_report(state, MeanSpinAligned())
            oracle = xi_oracle(state, ro.frame1, ro.frame2)
            checks.item(agrees(oracle, ro.xi, ORACLE_TOL),
                        f"{where}: optimized xi {ro.xi!r} != oracle {oracle!r}")
            checks.item(ro.xi <= ra.xi + OPTIMIZED_SLACK,
                        f"{where}: optimized xi {ro.xi!r} above aligned {ra.xi!r}")
        return checks.close(self.exit_codes)


class ProductSweep(_CliWorkload):
    name = "product_sweep"

    def __init__(self, seed: int, out_dir: Path, count: int = 120, latency_states: int = 1000):
        super().__init__(out_dir)
        rng = np.random.default_rng([seed, 2])
        self.start = float(rng.uniform(0.03, 0.07))
        self.stop = float(rng.uniform(3.05, 3.12))
        self.grid = np.linspace(self.start, self.stop, count)
        self.argv = ["sweep", "product", "--grid", f"{self.start!r}:{self.stop!r}:{count}",
                     "--out", str(self.out)]
        cells = count * count
        self.latency_cells = rng.choice(cells, size=min(latency_states, cells), replace=False)
        self.check_cells = rng.choice(cells, size=min(40, cells), replace=False)

    def _state(self, cell: int):
        from spinsqueeze.states import canonical_squeezed, product

        i, j = divmod(int(cell), self.grid.size)
        return product(canonical_squeezed(self.grid[i]), canonical_squeezed(self.grid[j]))

    def latency_population(self):
        return [self._state(c) for c in self.latency_cells]

    def check(self) -> Checks:
        from spinsqueeze.squeezing import (MeanSpinAligned, Optimized, squeezing_report,
                                           xi_oracle, xi_product_pair)

        checks = Checks()
        header, rows = _read_csv(self.out) if self.out.is_file() else ("", [])
        n = self.grid.size
        checks.item(header == "theta1,theta2,xi_engine,xi_closed", f"header {header!r}")
        checks.item(len(rows) == n * n, f"{len(rows)} rows, expected {n * n}")
        _check_grid_columns(checks, rows, self.grid, self.grid)

        def cell_xi(cell, col):
            row = rows[cell] if cell < len(rows) else []
            return float(row[col]) if len(row) > col else math.nan

        for i, theta in enumerate(self.grid):
            got = cell_xi(i * n + i, 2)
            checks.item(agrees(got, math.cos(theta / 2.0), ORACLE_TOL),
                        f"diagonal theta={theta!r}: xi {got!r} != cos(theta/2)")
        for cell in self.check_cells:
            i, j = divmod(int(cell), n)
            where = f"row {cell}"
            state = self._state(cell)
            ra = squeezing_report(state, MeanSpinAligned())
            checks.item(agrees(cell_xi(cell, 2), ra.xi, RECOMPUTE_TOL),
                        f"{where}: csv xi {cell_xi(cell, 2)!r}, recomputed {ra.xi!r}")
            closed = xi_product_pair(self.grid[i], self.grid[j])
            checks.item(agrees(cell_xi(cell, 3), closed, RECOMPUTE_TOL),
                        f"{where}: csv closed form {cell_xi(cell, 3)!r}, recomputed {closed!r}")
            oracle = xi_oracle(state, ra.frame1, ra.frame2)
            checks.item(agrees(oracle, ra.xi, ORACLE_TOL),
                        f"{where}: aligned xi {ra.xi!r} != oracle {oracle!r}")
            ro = squeezing_report(state, Optimized())
            checks.item(ro.xi <= ra.xi + OPTIMIZED_SLACK,
                        f"{where}: optimized xi {ro.xi!r} above aligned {ra.xi!r}")
        return checks.close(self.exit_codes)


# Population shares of engine_mix; the rest (70%) are generic dense states.
# The degenerate share (one vanishing mean spin, ~23 ms per Optimized call
# against ~0.7 ms) is 5%, so the Optimized p99 sits four fifths of the way
# into that group rather than on its edge.
_MIX = (("config3", 0.125), ("product", 0.125), ("degenerate", 0.05))


def _polar_amplitudes(rng) -> np.ndarray:
    """A spin-1 state with exactly vanishing mean spin (real Cartesian vector).

    Basis m = +1, 0, -1: |x> = (|-1> - |+1>)/sqrt2, |y> = i(|-1> + |+1>)/sqrt2,
    |z> = |0>, with a random global phase.
    """
    r = rng.standard_normal(3)
    r /= np.linalg.norm(r)
    s = 1.0 / math.sqrt(2.0)
    amps = np.array([(-r[0] + 1j * r[1]) * s, r[2], (r[0] + 1j * r[1]) * s])
    return amps * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))


class EngineMix:
    name = "engine_mix"

    def __init__(self, seed: int, out_dir: Path, states: int = 1000):
        rng = np.random.default_rng([seed, 3])
        kinds = []
        for kind, share in _MIX:
            kinds += [kind] * max(1, round(share * states))
        kinds = ["dense"] * (states - len(kinds)) + kinds
        self.inputs = []
        for kind in (kinds[k] for k in rng.permutation(len(kinds))):
            if kind == "dense":
                args = (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)),)
            elif kind == "config3":
                args = (rng.uniform(0.0, math.pi), rng.uniform(0.0, math.pi),
                        rng.uniform(0.0, 2.0 * math.pi), rng.uniform(0.0, 2.0 * math.pi))
            elif kind == "product":
                args = tuple(rng.uniform(0.05, 3.1, size=2))
            else:
                other = rng.standard_normal(3) + 1j * rng.standard_normal(3)
                args = (_polar_amplitudes(rng), other, bool(rng.integers(2)))
            self.inputs.append((kind, args))
        degenerate = [k for k, (kind, _) in enumerate(self.inputs) if kind == "degenerate"]
        others = [k for k, (kind, _) in enumerate(self.inputs) if kind != "degenerate"]
        self.check_indices = sorted(
            [int(k) for k in rng.choice(degenerate, size=min(20, len(degenerate)), replace=False)]
            + [int(k) for k in rng.choice(others, size=min(80, len(others)), replace=False)])
        self.latency = _BodyLatencies(len(self.inputs))
        self.results: list = []

    @staticmethod
    def _build(kind: str, args):
        from spinsqueeze import states

        if kind == "dense":
            return states.CoupledState.normalized(args[0])
        if kind == "config3":
            return states.config(3, *args)
        if kind == "product":
            return states.product(states.canonical_squeezed(args[0]),
                                  states.canonical_squeezed(args[1]))
        polar, other, polar_second = args
        pair = (states.Spin1State.normalized(polar), states.Spin1State.normalized(other))
        return states.product(*(pair[::-1] if polar_second else pair))

    def body(self) -> None:
        from spinsqueeze.squeezing import MeanSpinAligned, Optimized

        fixed, aligned, optimized = _lab_fixed(), MeanSpinAligned(), Optimized()
        results, timings = [], []
        for kind, args in self.inputs:
            state = self._build(kind, args)
            outputs, us = time_calls(state, fixed, aligned, optimized)
            results.append((state, *outputs))
            timings.append(us)
        self.results = results
        self.latency.last_body = timings

    def output_size(self) -> tuple[int, int]:
        """No CLI call and no output file."""
        return 0, 0

    def check(self) -> Checks:
        checks = Checks()
        checks.item(len(self.results) == len(self.inputs),
                    f"{len(self.results)} results for {len(self.inputs)} states")
        checks.item(all(r.valid for res in self.results for r in res[1:4]),
                    "a report is invalid")
        sphere = sum(1 for res in self.results if res[3].degenerate_subsystems)
        degenerate = sum(1 for kind, _ in self.inputs if kind == "degenerate")
        checks.item(sphere == degenerate,
                    f"{sphere} Optimized reports with a degenerate subsystem, "
                    f"{degenerate} degenerate inputs")
        for k in self.check_indices:
            if k < len(self.results):
                _check_report_trio(checks, *self.results[k], f"state {k}")
        return checks.close([])


class _BodyLatencies:
    """engine_mix times its calls inside the body; a step keeps the last
    body's timings, so the untimed warm-up body contributes none."""

    def __init__(self, n_states: int):
        self.last_body: list = []
        self.samples = StateLatencies(n_states)

    def step(self, seconds: float = 0.0) -> None:
        for index, us in enumerate(self.last_body):
            self.samples.add(index, us)
        self.last_body = []

    def finish(self) -> None:
        if not self.samples.counts()["timings"]:
            self.step()


WORKLOADS = {w.name: w for w in (TwoStageScan, ProductSweep, EngineMix)}
