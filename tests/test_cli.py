import contextlib
import io
import itertools
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given
from hypothesis import strategies as st

import spinsqueeze
from spinsqueeze import (
    CoupledState,
    Spin1State,
    ZeroDenominatorError,
    canonical_squeezed,
    closed_form_xi,
    config,
    family_state,
    product,
    save_state,
    squeezing_report,
)
from spinsqueeze import cli, squeezing
from spinsqueeze.cli import EXIT_BAD_STATE, EXIT_OK, EXIT_UNDEFINED, EXIT_USAGE
from spinsqueeze.cli import main as cli_main
from spinsqueeze.states import _norms


def main(argv):
    """Run the CLI in-process; usage errors surface as SystemExit."""
    try:
        return cli_main(argv)
    except SystemExit as exc:
        return int(exc.code)


def _kv(stdout: str) -> dict:
    out = {}
    for line in stdout.strip().splitlines():
        k, _, v = line.partition("=")
        out[k] = v
    return out


@pytest.fixture
def coherent_file(tmp_path):
    p = tmp_path / "coherent.json"
    save_state(p, CoupledState.basis(1, 1))
    return str(p)


# ------------------------------------------------------------------ xi


def test_xi_coherent(coherent_file, capsys):
    assert main(["xi", "--state", coherent_file]) == EXIT_OK
    kv = _kv(capsys.readouterr().out)
    assert float(kv["xi"]) == pytest.approx(1.0, abs=1e-12)
    assert kv["SQUEEZED"] == "false"
    assert kv["valid"] == "true"
    assert kv["policy"] == "optimized"


def test_xi_squeezed_product(tmp_path, capsys):
    p = tmp_path / "squeezed.json"
    s = canonical_squeezed(math.pi / 2)
    save_state(p, product(s, s))
    assert main(["xi", "--state", str(p), "--policy", "aligned"]) == EXIT_OK
    kv = _kv(capsys.readouterr().out)
    assert float(kv["xi"]) == pytest.approx(math.cos(math.pi / 4), abs=1e-10)
    assert kv["SQUEEZED"] == "true"


def test_xi_undefined_state(tmp_path, capsys):
    p = tmp_path / "degenerate.json"
    save_state(p, CoupledState.basis(0, 0))
    assert main(["xi", "--state", str(p)]) == EXIT_UNDEFINED
    kv = _kv(capsys.readouterr().out)
    assert kv["valid"] == "false"
    assert kv["xi"] == "nan"
    assert kv["degenerate_subsystems"] == "1,2"


def test_xi_bad_state_file(tmp_path, capsys):
    p = tmp_path / "broken.json"
    p.write_text("{nope")
    assert main(["xi", "--state", str(p)]) == EXIT_BAD_STATE
    p2 = tmp_path / "missing.json"
    assert main(["xi", "--state", str(p2)]) == EXIT_BAD_STATE
    capsys.readouterr()


def test_xi_rejects_boolean_amplitudes(tmp_path, capsys):
    p = tmp_path / "bools.json"
    amps = [[True, False]] + [[0, 0]] * 8
    p.write_text(json.dumps({"basis_order": "m=+1,0,-1", "amps": amps}))
    assert main(["xi", "--state", str(p)]) == EXIT_BAD_STATE
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("amps", [
    # finite amplitudes whose norm overflows a float
    [[1e308, 1e308]] + [[0, 0]] * 8,
    # a JSON integer beyond the float range
    [[10 ** 400, 0]] + [[0, 0]] * 8,
])
def test_xi_rejects_amplitudes_beyond_the_float_range(tmp_path, capsys, amps):
    p = tmp_path / "big.json"
    p.write_text(json.dumps({"basis_order": "m=+1,0,-1", "amps": amps}))
    assert main(["xi", "--state", str(p)]) == EXIT_BAD_STATE
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")


_AMP = st.floats(-1.0, 1.0, allow_nan=False)


@st.composite
def _malformed_amps(draw):
    """The amplitude list of a valid state file after one mutation that
    load_state rejects."""
    amps = [[draw(_AMP), draw(_AMP)] for _ in range(9)]
    amps[0] = [1.0, 0.0]
    k, j = draw(st.integers(0, 8)), draw(st.integers(0, 1))
    kind = draw(st.sampled_from(["length", "pair", "nested", "non-finite", "boolean", "zero",
                                 "overflow", "huge-int"]))
    if kind == "length":
        return amps[:draw(st.sampled_from([0, 1, 8]))] + [[0.0, 0.0]] * draw(st.integers(0, 2))
    if kind == "pair":
        amps[k] = draw(st.sampled_from([[], [0.5], [0.5, 0.5, 0.5], 0.5, "0.5", None]))
    elif kind == "nested":
        amps[k][j] = [amps[k][j]]
    elif kind == "non-finite":
        amps[k][j] = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    elif kind == "boolean":
        amps[k][j] = draw(st.booleans())
    elif kind == "zero":
        amps = [[draw(st.sampled_from([0, 0.0, -0.0])) for _ in range(2)] for _ in range(9)]
    elif kind == "overflow":
        amps[k][j] = draw(st.sampled_from([1.0, -1.0])) * draw(st.floats(1e155, 1.7e308))
    else:
        amps[k][j] = draw(st.sampled_from([1, -1])) * 10 ** draw(st.integers(309, 500))
    return amps


@given(amps=_malformed_amps())
def test_malformed_state_files_exit_2_and_write_nothing(amps):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "state.json"
        # json writes nan and inf as NaN and Infinity, which load_state's parser reads back
        path.write_text(json.dumps({"basis_order": "m=+1,0,-1", "amps": amps}))
        out = Path(tmp) / "x.csv"
        for argv in (["xi", "--state", str(path)],
                     ["evolve", "--initial", str(path), "--grid", "0:1:3", "--out", str(out)]):
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                assert main(argv) == EXIT_BAD_STATE
            assert stdout.getvalue() == ""
            assert stderr.getvalue().startswith("error: ")
            assert os.listdir(tmp) == ["state.json"]


def test_bad_flags_exit_usage(capsys, coherent_file):
    assert main(["xi", "--state", coherent_file, "--policy", "bogus"]) == EXIT_USAGE
    assert main(["sweep", "notakind", "--out", "x.csv"]) == EXIT_USAGE
    assert main(["frobnicate"]) == EXIT_USAGE
    capsys.readouterr()


# --------------------------------------------------------------- sweep


def test_sweep_product_csv(tmp_path, capsys):
    out = tmp_path / "prod.csv"
    assert main(["sweep", "product", "--grid", "0.1:1.0:4", "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    text = out.read_text()
    lines = text.strip().split("\n")
    assert lines[0] == "theta1,theta2,xi_engine,xi_closed"
    assert len(lines) == 1 + 16
    row = dict(zip(lines[0].split(","), lines[-1].split(",")))
    # closed form and engine agree on this family
    assert float(row["xi_engine"]) == pytest.approx(float(row["xi_closed"]), abs=1e-10)
    assert float(row["xi_engine"]) == pytest.approx(math.cos(0.5), abs=1e-10)
    assert "\r" not in text


def test_sweep_single_grid_broadcasts(tmp_path, capsys):
    out = tmp_path / "c1.csv"
    assert main(["sweep", "config1", "--grid", "0.2:1.4:3", "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "alpha,beta,xi_engine,xi_closed"
    assert len(lines) == 1 + 9


def test_sweep_mixed_csv(tmp_path, capsys):
    out = tmp_path / "mixed.csv"
    assert main(["sweep", "mixed", "--grid", "0.1:3.0:30", "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "theta,xi_engine,xi_closed"
    engines = [float(l.split(",")[1]) for l in lines[1:]]
    closed = [float(l.split(",")[2]) for l in lines[1:]]
    assert min(engines) < 0.78  # squeezing visible on this family
    assert max(abs(e - c) for e, c in zip(engines, closed)) > 0.05


def test_sweep_config3_phase_grids(tmp_path, capsys):
    out = tmp_path / "c3.csv"
    args = ["sweep", "config3", "--out", str(out)]
    for g in ("0.3:1.2:3", "0.3:1.2:3", "0:1:2", "0:2:2"):
        args += ["--grid", g]
    assert main(args) == EXIT_OK
    capsys.readouterr()
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "alpha,beta,phi1,phi2,xi_engine,xi_closed"
    assert len(lines) == 1 + 3 * 3 * 2 * 2
    # nonzero phases leave the printed closed form undefined
    nan_rows = [l for l in lines[1:] if l.endswith(",nan")]
    assert len(nan_rows) == 27


def test_sweep_rejects_wrong_grid_count(tmp_path, capsys):
    out = tmp_path / "x.csv"
    args = ["sweep", "product", "--out", str(out)]
    for g in ("0.1:1:3", "0.1:1:3", "0.1:1:3"):
        args += ["--grid", g]
    assert main(args) == EXIT_USAGE
    capsys.readouterr()


def test_sweep_rejects_malformed_grid(tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert main(["sweep", "product", "--grid", "1.0:0.1:5", "--out", str(out)]) == EXIT_USAGE
    assert main(["sweep", "product", "--grid", "0.1:1.0:1", "--out", str(out)]) == EXIT_USAGE
    assert main(["sweep", "product", "--grid", "abc", "--out", str(out)]) == EXIT_USAGE
    capsys.readouterr()


def test_sweep_deterministic_bytes(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        assert main(["sweep", "config2", "--grid", "0.2:1.2:4", "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_sweep_evolve_kind(tmp_path, capsys):
    out = tmp_path / "ev.csv"
    assert main(["sweep", "evolve", "--grid", "0:1.5:6", "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "tau,xi"
    assert len(lines) == 7
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[1]) == pytest.approx(1.0, abs=1e-12)


def test_sweep_rejects_non_finite_grid(tmp_path, capsys):
    out = tmp_path / "x.csv"
    for grid in ("0:inf:3", "-inf:1:3", "0:nan:3", "-inf:inf:3"):
        assert main(["sweep", "product", f"--grid={grid}", "--out", str(out)]) == EXIT_USAGE
    assert "finite" in capsys.readouterr().err
    assert not out.exists()


_FINITE = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
_NON_FINITE = st.sampled_from(["inf", "-inf", "nan", "Infinity", "-NaN", "1e400"])


@st.composite
def _malformed_grid(draw):
    """A --grid string of one of four malformed kinds."""
    kind = draw(st.sampled_from(["arity", "count", "non-finite", "order"]))
    start, stop = sorted(draw(st.lists(_FINITE, min_size=2, max_size=2, unique=True)))
    count = draw(st.integers(2, 50))
    if kind == "arity":
        parts = [repr(start), repr(stop), str(count), str(count)]
        return ":".join(parts[:draw(st.sampled_from([0, 1, 2, 4]))])
    if kind == "count":
        return f"{start!r}:{stop!r}:{draw(st.integers(-5, 1))}"
    if kind == "non-finite":
        ends = draw(st.sampled_from([(0, 1), (1, 0), (1, 1)]))
        a, b = (draw(_NON_FINITE) if bad else repr(x) for bad, x in zip(ends, (start, stop)))
        return f"{a}:{b}:{count}"
    if draw(st.booleans()):
        start = stop
    return f"{stop!r}:{start!r}:{count}"


@given(grid=_malformed_grid(), command=st.sampled_from([
    ["sweep", "product"], ["sweep", "mixed"], ["sweep", "config3"], ["evolve"],
    ["evolve", "--stages", "2"]]))
def test_malformed_grids_exit_1_and_write_nothing(grid, command):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "x.csv"
        assert main([*command, f"--grid={grid}", "--out", str(out)]) == EXIT_USAGE
        assert not out.exists()


@pytest.mark.parametrize("argv, point", [
    # theta > pi: the first of 0, 0.5, ..., 4
    (["sweep", "product", "--grid", "0:4:9"], "theta1=3.5:"),
    (["sweep", "product", "--grid", "0:1:3", "--grid", "2:3.5:4"], "theta2=3.5:"),
    (["sweep", "mixed", "--grid", "3:3.2:3"], "theta=3.2000000000000002:"),
    # all three config-1 amplitudes vanish at alpha = 0, beta = pi/2
    (["sweep", "config1", "--grid", "0:1.5707963267948966:2"], "alpha=0 beta=1.5707963267948966:"),
])
def test_sweep_rejects_a_bad_grid_point_and_writes_nothing(tmp_path, capsys, argv, point):
    out = tmp_path / "x.csv"
    assert main(argv + ["--out", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"no state at grid point {point}" in err
    assert "Traceback" not in err
    assert not out.exists()


_SWEEP_GRIDS = {
    "product": ["0.3:3.141592653589793:4", "0.05:3.141592653589793:5"],
    "mixed": ["0.05:3.141592653589793:9"],
    "config1": ["0.2:2.9:3", "0.1:3.0:4"],
    "config2": ["0.2:2.9:3", "0.1:3.0:4"],
    "config3": ["0.3:2.5:3", "0.2:2.8:3", "0:1.9:2", "0:2.3:2"],
}


def _reference_cells(kind, grids):
    """(axis values, state, closed-form params) per cell, built per cell by
    the scalar builders."""
    for cell in itertools.product(*grids):
        if kind == "product":
            yield cell, product(canonical_squeezed(cell[0]), canonical_squeezed(cell[1])), cell
        elif kind == "mixed":
            yield cell, product(Spin1State.basis(1), canonical_squeezed(cell[0])), cell
        else:
            a, b = cell[:2]
            sa, sb, ca, cb = math.sin(a), math.sin(b), math.cos(a), math.cos(b)
            if kind == "config3":
                p1, p2 = cell[2:]
                params = (complex(ca), complex(sa * cb) * complex(math.cos(p1), math.sin(p1)),
                          complex(sa * sb) * complex(math.cos(p2), math.sin(p2)))
            else:
                params = (sa * cb, sa * sb, cb)
            yield cell, config(int(kind[-1]), *cell), params


@pytest.mark.parametrize("policy", ["fixed", "aligned", "optimized"])
@pytest.mark.parametrize("kind", sorted(_SWEEP_GRIDS))
def test_sweep_cells_equal_per_cell_reports(tmp_path, capsys, kind, policy):
    out = tmp_path / "s.csv"
    argv = ["sweep", kind, "--policy", policy, "--out", str(out)]
    for g in _SWEEP_GRIDS[kind]:
        argv += ["--grid", g]
    assert main(argv) == EXIT_OK
    capsys.readouterr()
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    grids = [cli._parse_grid(g) for g in _SWEEP_GRIDS[kind]]
    family = cli._SWEEP_FAMILIES[kind].name
    cells = list(_reference_cells(kind, grids))
    assert len(rows) == len(cells)
    for row, (cell, state, params) in zip(rows, cells):
        assert row[:-2] == [cli._fmt(x) for x in cell]
        try:
            closed = closed_form_xi(family, params)
        except ZeroDenominatorError:
            closed = float("nan")
        assert row[-1] == cli._fmt(closed)
        rep = squeezing_report(state, cli._POLICIES[policy]())
        got = float(row[-2])
        if rep.valid:
            assert abs(got - rep.xi) <= 1e-12 * abs(rep.xi), (row, rep.xi)
        else:
            assert math.isnan(got)


def _engine_block_sizes(monkeypatch, argv) -> list[int]:
    """The stack sizes the grid evaluator hands xi_batch while the CLI runs
    argv."""
    sizes = []
    xi_batch = squeezing.xi_batch

    def recording(c, policy=None):
        sizes.append(len(c))
        return xi_batch(c, policy)

    monkeypatch.setattr(squeezing, "xi_batch", recording)
    assert main(argv) == EXIT_OK
    return sizes


_B = squeezing._BLOCK_CELLS


def _split_sizes(n: int) -> list[int]:
    """The sizes of the fewest equal blocks of at most _BLOCK_CELLS cells
    that n cells cut into, larger blocks first."""
    k = -(-n // _B)
    return [n // k + 1] * (n % k) + [n // k] * (k - n % k)


@pytest.mark.parametrize("kind, grids, cells", [
    ("product", ["0.1:1.0:40", f"0.2:2.0:{_B // 16}"], 40 * (_B // 16)),
    ("product", ["0.1:1.0:4", "0.2:2.0:5"], 20),
    ("mixed", [f"0.1:3.0:{2 * _B + _B // 8}"], 2 * _B + _B // 8),
    ("config2", ["0.2:1.4:3", "0.1:1.0:6"], 18),
    ("config3", [f"0.3:1.2:{_B // 16}", "0.3:1.2:3", "0:1:2", "0:2:4"], 24 * (_B // 16)),
    # rows longer than a block: blocks end inside them
    ("product", ["0.1:3.0:3", f"0.05:3.1:{_B + _B // 4}"], 3 * (_B + _B // 4)),
    ("config1", ["0.2:1.4:2", f"0.1:1.0:{_B + _B // 8}"], 2 * (_B + _B // 8)),
    # _BLOCK_CELLS + 1 cells: two blocks, not a full block and a one-cell block
    ("mixed", [f"0.1:3.0:{_B + 1}"], _B + 1),
], ids=["product-rows", "product-one-block", "mixed", "config2", "config3",
        "product-long-rows", "config1-long-rows", "mixed-513"])
def test_sweep_engine_blocks_are_whole_rows_up_to_512_cells(tmp_path, capsys, monkeypatch,
                                                            kind, grids, cells):
    """Each xi_batch call of a sweep takes one of the equal blocks of at
    most _BLOCK_CELLS cells, in row-major order, that np.array_split cuts
    the grid into (a block may end inside a first-axis row), so no call
    takes one cell beside others."""
    argv = ["sweep", kind, "--out", str(tmp_path / "s.csv")]
    for g in grids:
        argv += ["--grid", g]
    assert _engine_block_sizes(monkeypatch, argv) == _split_sizes(cells)
    capsys.readouterr()


def test_a_long_mixed_sweep_is_bounded_and_equals_per_cell_reports(tmp_path, capsys, monkeypatch):
    """2,000 points of the one-axis product family: no xi_batch call takes
    more than _BLOCK_CELLS cells, and every row equals its own
    squeezing_report."""
    out = tmp_path / "m.csv"
    grid = "0.01:3.1:2000"
    sizes = _engine_block_sizes(monkeypatch, ["sweep", "mixed", "--grid", grid, "--out", str(out)])
    capsys.readouterr()
    assert max(sizes) <= _B and sum(sizes) == 2000
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    thetas = cli._parse_grid(grid)
    assert [r[0] for r in rows] == [cli._fmt(t) for t in thetas]
    policy = cli._SWEEP_FAMILIES["mixed"].policy()
    for row, theta in zip(rows, thetas):
        rep = squeezing_report(product(Spin1State.basis(1), canonical_squeezed(theta)), policy)
        assert abs(float(row[1]) - rep.xi) <= 1e-12 * abs(rep.xi), (row, rep.xi)


def test_sweep_bytes_do_not_depend_on_blas_threads(tmp_path):
    # rows of 120 and more states are long enough for OpenBLAS to split
    # the engine's matrix products over two threads
    src = str(Path(spinsqueeze.__file__).resolve().parents[1])
    sweeps = {
        "product": ["--grid", "0.05:3.1:6", "--grid", "0.05:3.1:150"],
        "config3": ["--grid", "0.1:3.0:3", "--grid", "0.1:3.0:10", "--grid", "0:1.9:3",
                    "--grid", "0:1.9:4"],
    }
    for kind, grids in sweeps.items():
        blobs = []
        for threads in ("1", "2"):
            out = tmp_path / f"{kind}-{threads}.csv"
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
                   "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
            subprocess.run([sys.executable, "-m", "spinsqueeze", "sweep", kind, *grids,
                            "--out", str(out)], env=env, check=True, timeout=120)
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1], kind


# --------------------------------------------------------------- check


def test_check_report(tmp_path, capsys):
    out = tmp_path / "report.txt"
    assert main(["check", "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    text = out.read_text()
    assert text.splitlines()[0] == "family,params,closed_form,engine,abs_diff,flag"
    assert "[summary]" in text
    assert "[z-alignment]" in text
    for family, flag in (
        ("product_pair", "MATCH"),
        ("coherent_squeezed", "MISMATCH"),
        ("config1", "MISMATCH"),
        ("config2", "MISMATCH"),
        ("config3", "MISMATCH"),
    ):
        summary = [l for l in text.splitlines() if l.startswith(f"{family}: {flag} ")]
        assert summary, (family, flag)
        rows = [l for l in text.splitlines() if l.startswith(f"{family},")]
        assert rows and all(l.split(",")[-1] in ("MATCH", "MISMATCH", "UNDEFINED") for l in rows)
    # the closed-form failure set comes with reproducer inputs
    assert "closed_form_failures=100" in text
    assert "reproducers" in text
    # engine minimum of the mixed family is reported against the printed form
    assert "coherent_squeezed engine minimum:" in text


def test_check_is_the_grid_evaluator_on_the_check_grids(tmp_path, capsys, monkeypatch):
    """`check` makes one xi_batch call per block of each check grid (equal
    blocks of at most _BLOCK_CELLS cells), and its records equal per-cell
    compare_closed_forms: the same families, params, closed forms and
    flags, the engine within 1e-12 max(1, |xi|)."""
    sizes = _engine_block_sizes(monkeypatch, ["check", "--out", str(tmp_path / "r.txt")])
    capsys.readouterr()
    # product 30x30, mixed 100, config1/2 15x15, config3 two 12x12 grids
    assert sizes == [*_split_sizes(900), 100, 225, 225, 144, 144]
    monkeypatch.undo()
    records = squeezing.run_standard_comparisons()
    assert list(records) == list(squeezing.FAMILIES)
    for family, rows in records.items():
        policy = squeezing.FAMILIES[family].policy()
        params = squeezing.standard_comparison_grids()[family]
        assert [r.params for r in rows] == params
        for r in rows:
            want = squeezing.compare_closed_forms(family, r.params, policy)
            assert (r.family, r.flag) == (want.family, want.flag), r
            assert np.array_equal(r.closed_form, want.closed_form, equal_nan=True), r
            if math.isnan(want.engine):
                assert math.isnan(r.engine), r
            else:
                assert abs(r.engine - want.engine) <= 1e-12 * max(1.0, abs(want.engine)), r


def test_check_to_stdout(capsys):
    assert main(["check"]) == EXIT_OK
    text = capsys.readouterr().out
    assert "[z-alignment]" in text


# -------------------------------------------------------------- evolve


def test_evolve_single_stage(tmp_path, capsys):
    out = tmp_path / "traj.csv"
    assert main(["evolve", "--grid", "0:3:40", "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "tau,xi"
    xis = [float(l.split(",")[1]) for l in lines[1:]]
    assert min(xis) < 0.4


def test_evolve_mixed_initial(tmp_path, capsys):
    out = tmp_path / "traj.csv"
    assert main(["evolve", "--initial", "mixed-10", "--grid", "0:2:20", "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    xis = [float(l.split(",")[1]) for l in out.read_text().strip().split("\n")[1:]]
    assert min(xis) >= 1.0 - 1e-9


def test_evolve_initial_from_file(tmp_path, capsys):
    p = tmp_path / "start.json"
    save_state(p, CoupledState.basis(1, 1))
    out = tmp_path / "traj.csv"
    assert main(["evolve", "--initial", str(p), "--grid", "0:1:5", "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    assert main(["evolve", "--initial", "no-such-name", "--grid", "0:1:5", "--out", str(out)]) == EXIT_BAD_STATE
    capsys.readouterr()


def test_evolve_two_stage_fixed_tau1(tmp_path, capsys):
    out = tmp_path / "stage2.csv"
    rc = main(["evolve", "--stages", "2", "--tau1", "0.37", "--grid", "0:1.5:4", "--out", str(out)])
    assert rc == EXIT_OK
    capsys.readouterr()
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "tau,xi"
    # stage-2 time counts from zero; tau=0 row is the stage-1 end state
    assert float(lines[1].split(",")[0]) == 0.0
    assert float(lines[1].split(",")[1]) == pytest.approx(0.30052945396191139, abs=1e-9)


def test_evolve_two_stage_search(tmp_path, capsys):
    out = tmp_path / "surface.csv"
    args = ["evolve", "--stages", "2", "--grid", "0:3:10", "--grid", "0:3:10", "--out", str(out)]
    assert main(args) == EXIT_OK
    stdout = capsys.readouterr().out
    assert stdout.startswith("min_xi=")
    assert "tau1=" in stdout and "tau2=" in stdout
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "tau1,tau2,xi"
    assert len(lines) == 1 + 100
    reported = float(stdout.split()[0].split("=")[1])
    xis = [float(l.split(",")[2]) for l in lines[1:]]
    assert reported == pytest.approx(min(x for x in xis if not math.isnan(x)), abs=1e-13)


def test_evolve_grid_count_validation(tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert main(["evolve", "--stages", "1", "--grid", "0:1:5", "--grid", "0:1:5", "--out", str(out)]) == EXIT_USAGE
    assert main(["evolve", "--stages", "2", "--tau1", "0.3", "--grid", "0:1:5", "--grid", "0:1:5", "--out", str(out)]) == EXIT_USAGE
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["evolve", "--grid=-1:3:10"],
    ["sweep", "evolve", "--grid=-1:3:10"],
    ["sweep", "evolve2", "--grid=-1:3:4"],
    ["evolve", "--stages", "2", "--grid=-1:3:4"],
    ["evolve", "--stages", "2", "--tau1", "0", "--grid=-1:3:4"],
])
def test_evolve_rejects_a_negative_tau_grid(tmp_path, capsys, argv):
    out = tmp_path / "x.csv"
    assert main(argv + ["--out", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "tau grid must be ascending and start at tau >= 0" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("tau1", ["nan", "inf", "-inf", "-0.5", "1e308"])
def test_evolve_rejects_an_unusable_tau1(tmp_path, capsys, tau1):
    out = tmp_path / "x.csv"
    assert main(["evolve", "--stages", "2", f"--tau1={tau1}", "--grid", "0:1:3",
                 "--out", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "--tau1" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_evolve_tau1_needs_two_stages(tmp_path, capsys):
    out = tmp_path / "x.csv"
    for stages in ([], ["--stages", "1"]):
        assert main(["evolve", *stages, "--tau1", "0.5", "--grid", "0:1:3",
                     "--out", str(out)]) == EXIT_USAGE
        assert "--tau1 needs --stages 2" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("sweep, evolve", [
    (["sweep", "evolve", "--grid", "0:1.5:7"], ["evolve", "--grid", "0:1.5:7"]),
    (["sweep", "evolve", "--grid", "0:1:5", "--policy", "aligned"],
     ["evolve", "--grid", "0:1:5", "--policy", "aligned"]),
    (["sweep", "evolve2", "--grid", "0:2:4"], ["evolve", "--stages", "2", "--grid", "0:2:4"]),
    (["sweep", "evolve2", "--grid", "0:2:4", "--grid", "0.5:3:5", "--policy", "fixed"],
     ["evolve", "--stages", "2", "--grid", "0:2:4", "--grid", "0.5:3:5", "--policy", "fixed"]),
])
def test_sweep_evolve_kinds_are_the_default_evolve_runs(tmp_path, capsys, sweep, evolve):
    outputs = []
    for argv, name in ((sweep, "sweep.csv"), (evolve, "evolve.csv")):
        assert main(argv + ["--out", str(tmp_path / name)]) == EXIT_OK
        outputs.append(((tmp_path / name).read_bytes(), capsys.readouterr().out))
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("kind, grids", [*((k, g) for k, g in sorted(_SWEEP_GRIDS.items())),
                                         ("config1", None), ("dense", None)],
                         ids=[*sorted(_SWEEP_GRIDS), "config1-default", "dense"])
def test_sweep_block_states_equal_the_family_states(kind, grids, rng):
    """Per cell, the state the sweep evaluates, the scalar builders' state
    and family_state at the cell's closed-form parameters agree bit for
    bit.  Random dense stacks over many scales, divided by their rows' norms
    as cell_blocks divides a block, are CoupledState.normalized's states."""
    if kind == "dense":
        shape = (2500, 3, 3)
        c = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) \
            * 10.0 ** rng.integers(-8, 8, (2500, 1, 1))
        for block, raw in zip(c / _norms(c.reshape(-1, 9))[:, None, None], c):
            npt.assert_array_equal(block, CoupledState.normalized(raw).c)
        return
    family = cli._SWEEP_FAMILIES[kind]
    grids = cli._resolve_grids(family, grids and [cli._parse_grid(g) for g in grids], None)
    blocks = np.concatenate(list(family.cell_blocks(grids)))
    cells = list(_reference_cells(kind, grids))
    assert len(blocks) == len(cells)
    for block, (cell, state, _) in zip(blocks, cells):
        npt.assert_array_equal(block, state.c)
        npt.assert_array_equal(family_state(family.name, family.params(*cell)).c, state.c)


def test_csv_17g_round_trip(tmp_path, capsys):
    out = tmp_path / "prod.csv"
    assert main(["sweep", "product", "--grid", "0.1:1.0:3", "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    for line in out.read_text().strip().split("\n")[1:]:
        for tok in line.split(","):
            v = float(tok)
            assert f"{v:.17g}" == tok


_AWKWARD = [float("nan"), 0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 29384.0,
            0.1, 1.0 / 3.0, 1e16, 2.0 ** 53 + 2.0]


def _awkward(n: int, seed: int) -> np.ndarray:
    """n values: the awkward ones, then seeded draws over many decades."""
    rng = np.random.default_rng(seed)
    draws = rng.standard_normal(n) * 10.0 ** rng.integers(-30, 30, n)
    return np.concatenate([_AWKWARD, draws])[:n]


@pytest.mark.parametrize("cells", [513, 1025])
@pytest.mark.parametrize("layout", [
    # header, axis lengths (their product is the cell count), value columns
    ("sweep", ["theta1", "theta2", "xi_engine", "xi_closed"], 2),
    ("scan", ["tau1", "tau2", "xi"], 1),
    ("trajectory", ["tau", "xi"], 1),
], ids=lambda layout: layout[0])
def test_csv_writer_lines_equal_fmt(tmp_path, layout, cells):
    """Across write blocks, every line the writer produces is the _fmt text
    of its axis values and column entries, joined by commas."""
    _, header, n_columns = layout
    n_axes = len(header) - n_columns
    lengths = {1: (cells,), 2: {513: (27, 19), 1025: (25, 41)}[cells]}[n_axes]
    axes = [_awkward(n, seed) for seed, n in enumerate(lengths)]
    columns = [_awkward(cells, 10 + k) for k in range(n_columns)]
    out = tmp_path / "w.csv"
    cli._write_csv(str(out), header, axes, columns)
    lines = out.read_bytes().decode("utf-8").split("\n")
    assert lines[0] == ",".join(header) and lines[-1] == ""
    want = [",".join(cli._fmt(x) for x in (*cell, *(c[k] for c in columns)))
            for k, cell in enumerate(itertools.product(*axes))]
    assert lines[1:-1] == want
