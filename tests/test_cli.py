import json
import math

import pytest

from spinsqueeze import CoupledState, canonical_squeezed, product, save_state
from spinsqueeze.cli import EXIT_BAD_STATE, EXIT_OK, EXIT_UNDEFINED, EXIT_USAGE
from spinsqueeze.cli import main as cli_main


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


def test_csv_17g_round_trip(tmp_path, capsys):
    out = tmp_path / "prod.csv"
    assert main(["sweep", "product", "--grid", "0.1:1.0:3", "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    for line in out.read_text().strip().split("\n")[1:]:
        for tok in line.split(","):
            v = float(tok)
            assert f"{v:.17g}" == tok
