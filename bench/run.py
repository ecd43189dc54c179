"""Run one benchmark workload against the spinsqueeze checkout in the cwd.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

This process is the single worker: closed loop, one client, no pool.  The
workload body repeats for about ``--seconds`` seconds.  With ``--trace 0``
the last stdout line carries the end-to-end metrics; with ``--trace 1`` the
body also runs with layer spans recorded (``tracing.py``) and the line
carries the per-layer metrics.  The line before it holds run metadata.
Outputs are checked after the timing; ``attempted``/``failed`` count the
check items.  Files are written under ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

MIN_REPS = 3
MAX_TRACED_REPS = 3
# setup_s launches: a few before the timed repetitions and one after each,
# so the median spans the run like wall_s does.
SETUP_LAUNCHES_FIRST = 3
# Per-call latency sampling after each timed repetition, as a share of that
# repetition's wall time: a third of the run, spread over all of it, so the
# latency medians average over the machine's load as much as wall_s does.
LATENCY_SHARE = 0.5


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def measure_setup(root: Path) -> float:
    """Seconds from launching a fresh interpreter until ``import
    spinsqueeze.cli`` returns in it.

    CLOCK_MONOTONIC is system-wide, so the child's reading after the import
    and the parent's reading before the launch share an origin.
    """
    code = ("import sys, time; sys.path.insert(0, 'src'); import spinsqueeze.cli; "
            "print(repr(time.clock_gettime(time.CLOCK_MONOTONIC)))")
    t0 = _monotonic()
    done = subprocess.run([sys.executable, "-c", code], cwd=root, capture_output=True,
                          text=True, check=True, timeout=60)
    return float(done.stdout.strip().splitlines()[-1]) - t0


def _repeat(body, until: float, min_reps: int, after_rep=None):
    """Run body until the deadline would pass; returns (wall, cpu) lists.

    The first call is a warm-up and is not recorded: it runs measurably
    slower (first-touch allocations, lazy imports), a cost users pay once.
    ``after_rep(wall)`` runs after each recorded call, outside its timing.
    """
    body()
    walls, cpus = [], []
    while True:
        w0, c0 = time.perf_counter(), time.process_time()
        body()
        walls.append(time.perf_counter() - w0)
        cpus.append(time.process_time() - c0)
        if after_rep is not None:
            after_rep(walls[-1])
        if len(walls) >= min_reps and time.perf_counter() + statistics.median(walls) > until:
            break
    return walls, cpus


def timed_pass(workload, seconds: float, root: Path):
    measure_setup(root)  # warm-up: writes the bytecode cache, paid once per install
    setup = [measure_setup(root) for _ in range(SETUP_LAUNCHES_FIRST)]

    def between_reps(wall: float) -> None:
        workload.latency.step(LATENCY_SHARE * wall)
        setup.append(measure_setup(root))

    walls, cpus = _repeat(workload.body, time.perf_counter() + seconds, MIN_REPS, between_reps)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    workload.latency.finish()
    samples = workload.latency.samples
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "cpu_s": (statistics.median(cpus), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "fixed_p50_us": (samples.percentile("fixed", 50), "us"),
        "aligned_p50_us": (samples.percentile("aligned", 50), "us"),
        "optimized_p50_us": (samples.percentile("optimized", 50), "us"),
        "optimized_p99_us": (samples.percentile("optimized", 99), "us"),
        "oracle_p50_us": (samples.percentile("oracle", 50), "us"),
    }
    info = {"reps": len(walls), "walls_s": walls, "cpus_s": cpus, "setup_samples_s": setup,
            "latency_samples": samples.counts()}
    return metrics, info


def traced_pass(workload, seconds: float, spans_path: Path):
    """Untraced and traced repetitions in alternation after one warm-up, so
    both sides of trace.overhead_frac see the same machine load."""
    from tracing import Tracer, install

    until = time.perf_counter() + seconds
    workload.body()
    tracer = Tracer()
    untraced, traced, per_rep = [], [], []
    while True:
        w0 = time.perf_counter()
        workload.body()
        untraced.append(time.perf_counter() - w0)
        tracer.run_id = len(traced)
        restore = install(tracer)
        try:
            w0 = time.perf_counter()
            workload.body()
            traced.append(time.perf_counter() - w0)
        finally:
            restore()
        per_rep.append(_layer_metrics(workload, tracer, traced[-1]))
        if (len(traced) >= MAX_TRACED_REPS
                or time.perf_counter() + untraced[-1] + traced[-1] > until):
            break
    tracer.save(spans_path)
    # median_low: an observed repetition's value, so counts stay whole numbers
    metrics = {name: (statistics.median_low(rep[name][0] for rep in per_rep), unit)
               for name, (_, unit) in per_rep[0].items()}
    metrics["trace.overhead_frac"] = (
        statistics.median(traced) / statistics.median(untraced) - 1.0, "fraction")
    info = {"untraced_walls_s": untraced, "traced_walls_s": traced, "spans": len(tracer.start),
            "spans_file": str(spans_path.name)}
    return metrics, info


def _layer_metrics(workload, tracer, wall: float) -> dict:
    from tracing import TIMED_LAYERS

    totals = tracer.layer_totals(tracer.run_id)

    def get(layer, key):
        return totals.get(layer, {}).get(key, 0)

    out = {}
    for layer in TIMED_LAYERS:
        out[f"{layer}.calls"] = (get(layer, "calls"), "count")
        out[f"{layer}.self_s"] = (get(layer, "self_s"), "s")
    counts = {key: n for (run, key), n in tracer.counts.items() if run == tracer.run_id}
    out["squeezing.invalid.count"] = (get("squeezing.invalid", "calls"), "count")
    out["squeezing.squeezed.count"] = (counts.get("squeezing.squeezed", 0), "count")
    out["squeezing.closed_form.undefined"] = (counts.get("squeezing.closed_form.undefined", 0),
                                              "count")
    out["dynamics.driver.self_s"] = (get("dynamics.driver", "self_s"), "s")
    out["cli.self_s"] = (get("cli", "self_s"), "s")
    rows, nbytes = workload.output_size()
    out["cli.rows"] = (rows, "count")
    out["cli.bytes"] = (nbytes, "bytes")
    out["trace.coverage_frac"] = (tracer.top_level_seconds(tracer.run_id) / wall, "fraction")
    return out


# --------------------------------------------------------------------------
# metadata
# --------------------------------------------------------------------------

def _git_commit(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = root / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def _blas() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        return {"name": None, "version": None}


def run_metadata(root: Path, args) -> dict:
    import numpy as np

    src_files = sorted((root / "src").rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in src_files:
        data = path.read_bytes()
        digest.update(str(path.relative_to(root)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "thread_env": {k: os.environ.get(k) for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "commit": _git_commit(root),
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
    }


def main(argv=None) -> int:
    args = _parse(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "spinsqueeze" / "cli.py").is_file():
        print("error: run from the root of a spinsqueeze checkout (no src/spinsqueeze here)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    import spinsqueeze

    if Path(spinsqueeze.__file__).resolve().parent != (src / "spinsqueeze").resolve():
        print(f"error: imported spinsqueeze from {spinsqueeze.__file__}, not {src}",
              file=sys.stderr)
        return 2
    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, out_dir)
    if args.trace:
        spans = out_dir / f"spans-{args.workload}-{args.seed}.npz"
        metrics, info = traced_pass(workload, args.seconds, spans)
    else:
        metrics, info = timed_pass(workload, args.seconds, root)
    checks = workload.check()
    for message in checks.messages:
        print(f"check failed: {message}", file=sys.stderr)
    meta = run_metadata(root, args)
    meta.update(info)
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
