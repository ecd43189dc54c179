"""Tests of the benchmark itself: tiny workloads, span arithmetic, checks.

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py
"""

import dataclasses
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import tracing  # noqa: E402
from workloads import EngineMix, ProductSweep, TwoStageScan  # noqa: E402

TINY = {
    "twostage_scan": lambda out: TwoStageScan(7, out, count=4, latency_states=12),
    "product_sweep": lambda out: ProductSweep(7, out, count=5, latency_states=12),
    "engine_mix": lambda out: EngineMix(7, out, states=24),
}


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_workload_runs_and_passes_its_checks(tmp_path, name):
    workload = TINY[name](tmp_path)
    workload.body()
    checks = workload.check()
    assert checks.attempted > 0
    assert (checks.failed, checks.messages) == (0, [])
    workload.latency.step(0.0)
    workload.latency.finish()
    samples = workload.latency.samples
    assert samples.counts()["states"] >= 12
    assert 0 < samples.percentile("fixed", 50) <= samples.percentile("fixed", 99)


def test_tiny_traced_body_reports_its_layers(tmp_path):
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        ProductSweep(7, tmp_path, count=5).body()
        tracer.run_id = 1
        TwoStageScan(7, tmp_path, count=4).body()
    finally:
        restore()
    sweep = {k: v["calls"] for k, v in tracer.layer_totals(0).items()}
    scan = {k: v["calls"] for k, v in tracer.layer_totals(1).items()}
    assert sweep["squeezing.aligned"] == sweep["squeezing.closed_form"] == 25
    assert sweep["squeezing.optimized_plane"] == sweep["dynamics.propagator"] == 0
    assert scan["squeezing.optimized_plane"] == 16
    assert scan["dynamics.propagator"] == 2 + 1 + 4
    from spinsqueeze import cli, squeezing

    assert not hasattr(cli.main, "__wrapped__")
    assert not hasattr(squeezing.squeezing_report, "__wrapped__")


def test_self_time_of_a_synthetic_span_nest():
    # root [0, 10] > a [1, 4] > a2 [2, 3];  root > b [5, 9]
    tracer = tracing.Tracer()
    root = tracer.record("cli", 0.0, 10.0)
    a = tracer.record("squeezing.moments", 1.0, 4.0, root)
    tracer.record("squeezing.moments", 2.0, 3.0, a)
    tracer.record("spin.frame", 5.0, 9.0, root)
    assert list(tracing.self_times(tracer.start, tracer.end, tracer.parent)) == [3.0, 2.0, 1.0, 4.0]
    totals = tracer.layer_totals()
    assert totals["cli"] == {"calls": 1, "self_s": 3.0, "spans": 1}
    # the nested span of the same layer is one entry into it
    assert totals["squeezing.moments"] == {"calls": 1, "self_s": 3.0, "spans": 2}
    assert totals["spin.frame"] == {"calls": 1, "self_s": 4.0, "spans": 1}
    assert tracer.top_level_seconds(0) == 10.0


def _corrupt_csv_row(path: Path, row: int, column: int) -> None:
    lines = path.read_text().split("\n")
    fields = lines[row + 1].split(",")
    fields[column] = repr(float(fields[column]) + 1e-6)
    lines[row + 1] = ",".join(fields)
    path.write_text("\n".join(lines))


@pytest.mark.parametrize("name,column", [("twostage_scan", 2), ("product_sweep", 2),
                                         ("product_sweep", 3)])
def test_corrupted_csv_row_is_counted_as_failed(tmp_path, name, column):
    workload = TINY[name](tmp_path)
    workload.body()
    _corrupt_csv_row(workload.out, row=6, column=column)
    checks = workload.check()
    assert checks.failed >= 1


def test_corrupted_engine_result_is_counted_as_failed(tmp_path):
    workload = TINY["engine_mix"](tmp_path)
    workload.body()
    k = workload.check_indices[0]
    state, rf, ra, ro, xo = workload.results[k]
    workload.results[k] = (state, rf, dataclasses.replace(ra, xi=ra.xi + 1e-6), ro, xo)
    assert workload.check().failed >= 1


def test_nonzero_exit_fails_every_check_item(tmp_path):
    workload = TINY["product_sweep"](tmp_path)
    workload.body()
    workload.exit_codes.append(1)
    checks = workload.check()
    assert checks.attempted > 0 and checks.failed == checks.attempted


def test_run_refuses_a_directory_without_the_program(tmp_path):
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", "engine_mix",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout == ""


def test_xi_agreement_is_absolute_up_to_one_and_relative_above():
    from workloads import agrees

    assert not agrees(1.0 + 2e-9, 1.0, 1e-9)
    assert agrees(0.5 + 9e-10, 0.5, 1e-9)
    # twostage_scan seed 102, row 3358: |<S>| = 3.3e-6, states one ulp apart
    assert agrees(29384.02422746294, 29384.024229414692, 1e-9)
    assert not agrees(29384.0, 29384.0 * (1 + 2e-9), 1e-9)
