"""Run the benchmark over several seeds, summarize a result set, compare two.

    python3 bench/suite.py run [--runs 10] [--seed0 1] [--workloads a,b] [--trace] [--out FILE]
    python3 bench/suite.py show FILE
    python3 bench/suite.py compare BASE.json NEW.json

``run`` launches ``bench/run.py`` once per (workload, seed), one process at a
time, from the repository root, saves every result line with its metadata
and prints the summary.  ``show`` prints, per workload, every end-to-end
metric with its unit, median, quartiles and spread (quartile distance over
median) against the bound in BENCHMARK.json, the error rate (failed over
attempted check items), and the per-layer metrics of traced runs.

``compare`` pairs the i-th run of each workload in BASE with the i-th in NEW
and gives each end-to-end metric a verdict:

* better:     NEW wins at least 9 of 10 pairs and the medians differ by more
              than BASE's quartile distance;
* unresolved: BASE's spread exceeds the bound and not every NEW run beats
              every BASE run;
* worse:      NEW's median is worse than BASE's by more than the bound;
* no worse:   otherwise.

For a claim, make the runs of BASE and NEW alternate (for example
``--runs 1`` with successive ``--seed0`` on each tree in turn).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_spec(root: Path = ROOT) -> dict:
    return json.loads((root / "BENCHMARK.json").read_text())


def run_one(workload: str, seed: int, seconds: float, trace: int, root: Path = ROOT) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    done = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=600)
    elapsed = time.perf_counter() - t0
    entry = {"workload": workload, "seed": seed, "trace": trace, "exit_code": done.returncode,
             "elapsed_s": elapsed}
    lines = done.stdout.strip().splitlines()
    if done.returncode == 0 and len(lines) >= 2:
        entry["meta"] = json.loads(lines[-2])["meta"]
        entry["result"] = json.loads(lines[-1])
    else:
        entry["stderr"] = done.stderr[-2000:]
    return entry


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def metric_values(runs: list[dict], workload: str, name: str) -> list[float]:
    return [r["result"]["metrics"][name]["value"] for r in runs
            if r["workload"] == workload and r["trace"] == 0 and "result" in r
            and name in r["result"]["metrics"]]


def _workloads(runs: list[dict]) -> list[str]:
    seen = []
    for r in runs:
        if r["workload"] not in seen:
            seen.append(r["workload"])
    return seen


def show(result_set: dict) -> None:
    spec = result_set["spec"]
    runs = result_set["runs"]
    for workload in _workloads(runs):
        mine = [r for r in runs if r["workload"] == workload]
        timed = [r for r in mine if r["trace"] == 0]
        broken = [r for r in mine if "result" not in r]
        attempted = sum(r["result"]["attempted"] for r in mine if "result" in r)
        failed = sum(r["result"]["failed"] for r in mine if "result" in r)
        print(f"\n== {workload}: {len(timed)} timed runs, {len(mine) - len(timed)} traced")
        if broken:
            print(f"   {len(broken)} runs produced no result (exit codes "
                  f"{sorted({r['exit_code'] for r in broken})})")
        rate = failed / attempted if attempted else float("nan")
        print(f"   {'error_rate':<18} {rate:>14.6g} (ratio)   failed {failed} of {attempted} "
              "check items")
        print(f"   {'metric':<18} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} "
              f"{'bound':>6}  steady (spread < bound/3)")
        for m in spec["end_to_end"]:
            vals = metric_values(runs, workload, m["name"])
            if not vals:
                continue
            q1, med, q3 = quartiles(vals)
            spread = (q3 - q1) / abs(med) if med else float("inf")
            steady = "yes" if spread < m["bound"] / 3 else "NO"
            print(f"   {m['name']:<18} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} {spread:>8.4f} "
                  f"{m['bound']:>6}  {steady}   [{m['unit']}]")
        samples = [r["meta"].get("latency_samples") for r in timed if "meta" in r]
        if samples and samples[0]:
            print(f"   per-call samples per run: {samples[0]}")
        traced = [r for r in mine if r["trace"] == 1 and "result" in r]
        if traced:
            print("   per-layer (median over traced runs):")
            for m in spec["per_layer"]:
                vals = [r["result"]["metrics"][m["name"]]["value"] for r in traced
                        if m["name"] in r["result"]["metrics"]]
                if vals:
                    print(f"     {m['name']:<36} {statistics.median(vals):>14.6g} [{m['unit']}]")


def verdict(base: list[float], new: list[float], bound: float, better: str) -> str:
    sign = 1.0 if better == "lower" else -1.0
    q1, med_a, q3 = quartiles(base)
    med_b = statistics.median(new)
    pairs = list(zip(base, new))
    wins = sum(1 for a, b in pairs if sign * (a - b) > 0)
    if pairs and wins >= 0.9 * len(pairs) and sign * (med_a - med_b) > q3 - q1:
        return "better"
    every_run_better = all(sign * (a - b) > 0 for a in base for b in new)
    if (q3 - q1) / abs(med_a) > bound and not every_run_better:
        return "unresolved"
    if sign * (med_b - med_a) / abs(med_a) > bound:
        return "worse"
    return "no worse"


def compare(base: dict, new: dict) -> None:
    spec = base["spec"]
    print(f"{'workload':<14} {'metric':<18} {'base median [q1, q3]':>36} "
          f"{'new median [q1, q3]':>36} {'new/base':>9}  verdict")
    for workload in _workloads(base["runs"]):
        for m in spec["end_to_end"]:
            a = metric_values(base["runs"], workload, m["name"])
            b = metric_values(new["runs"], workload, m["name"])
            if not a or not b:
                continue
            qa, qb = quartiles(a), quartiles(b)
            ratio = qb[1] / qa[1] if qa[1] else float("nan")
            print(f"{workload:<14} {m['name']:<18} "
                  f"{qa[1]:>12.6g} [{qa[0]:.6g}, {qa[2]:.6g}]".ljust(70)
                  + f"{qb[1]:>12.6g} [{qb[0]:.6g}, {qb[2]:.6g}]".ljust(37)
                  + f"{ratio:>9.4f}  {verdict(a, b, m['bound'], m['better'])}")
        for label, rs in (("base", base["runs"]), ("new", new["runs"])):
            att = sum(r["result"]["attempted"] for r in rs if r["workload"] == workload
                      and "result" in r)
            fail = sum(r["result"]["failed"] for r in rs if r["workload"] == workload
                       and "result" in r)
            print(f"{workload:<14} error_rate ({label}) {fail}/{att}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run")
    p_run.add_argument("--runs", type=int, default=10)
    p_run.add_argument("--seed0", type=int, default=1)
    p_run.add_argument("--workloads", default=None, help="comma-separated; default all")
    p_run.add_argument("--trace", action="store_true", help="add one traced run per workload")
    p_run.add_argument("--out", default=None)
    p_show = sub.add_parser("show")
    p_show.add_argument("file")
    p_cmp = sub.add_parser("compare")
    p_cmp.add_argument("base")
    p_cmp.add_argument("new")
    args = p.parse_args(argv)

    if args.command == "show":
        show(json.loads(Path(args.file).read_text()))
        return 0
    if args.command == "compare":
        compare(json.loads(Path(args.base).read_text()), json.loads(Path(args.new).read_text()))
        return 0

    spec = load_spec()
    seconds = spec["run_seconds"]
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    runs = []
    for workload in names:
        for i in range(args.runs):
            runs.append(run_one(workload, args.seed0 + i, seconds, 0))
            print(f"{workload} seed {args.seed0 + i}: exit {runs[-1]['exit_code']}, "
                  f"{runs[-1]['elapsed_s']:.1f}s", file=sys.stderr)
        if args.trace:
            runs.append(run_one(workload, args.seed0, seconds, 1))
    result_set = {"spec": spec, "runs": runs}
    if args.out:
        Path(args.out).write_text(json.dumps(result_set, indent=1) + "\n")
    show(result_set)
    return 0 if all("result" in r for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
