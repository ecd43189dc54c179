"""Command-line interface.

Four subcommands:

* ``xi``     -- squeezing report for a state file, as key=value lines
* ``sweep``  -- parameter sweeps of xi written as CSV
* ``check``  -- closed-form versus engine discrepancy report
* ``evolve`` -- xi along evolution trajectories, written as CSV

Exit codes: 0 success, 1 invalid command line, 2 unreadable or invalid
state file, 3 xi undefined for the requested state (both mean spins
vanish).  CSV output is deterministic: fixed grid order, 17 significant
digits, LF line endings, undefined cells as the literal ``nan``.
"""

from __future__ import annotations

import argparse
import itertools
import math
import sys

import numpy as np

from .dynamics import (
    builtin_initial,
    cross_quadratic_generator,
    evolve as evolve_state,
    pair_exchange_generator,
    trajectory,
    two_stage_minimum,
)
from .spin import build_frame
from .squeezing import (
    FAMILIES,
    Fixed,
    GridPointError,
    MeanSpinAligned,
    Optimized,
    family_summary,
    run_standard_comparisons,
    squeezing_report,
)
from .states import StateFormatError, load_state, z_alignment_audit

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_BAD_STATE = 2
EXIT_UNDEFINED = 3

_LAB_FRAME = build_frame(np.array([0.0, 0.0, 1.0]))

_SWEEP_FAMILIES = {f.kind: f for f in FAMILIES.values()}
# `sweep evolve|evolve2` are the default `evolve --stages 1|2` runs
_EVOLVE_SWEEPS = {"evolve": 1, "evolve2": 2}
_TAU_GRID = (0.0, 3.0, 300)      # one-stage default
_TAU_GRID_2 = (0.0, 3.0, 60)     # two-stage default, both axes


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags; the contract here reserves 2 for bad
    # state files, so usage errors are remapped to 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _fmt_vec(v) -> str:
    return ",".join(_fmt(x) for x in v)


def _parse_grid(text: str):
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"grid must be start:stop:count, got {text!r}")
    try:
        start, stop = float(parts[0]), float(parts[1])
        count = int(parts[2])
    except ValueError:
        raise argparse.ArgumentTypeError(f"grid must be start:stop:count, got {text!r}") from None
    if count < 2:
        raise argparse.ArgumentTypeError("grid count must be >= 2")
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise argparse.ArgumentTypeError(f"grid start and stop must be finite, got {text!r}")
    if not start < stop:
        raise argparse.ArgumentTypeError("grid start must be < stop")
    return np.linspace(start, stop, count)


# the --policy names, in --help order, and the frame policy each builds
_POLICIES = {
    "fixed": lambda: Fixed(_LAB_FRAME, _LAB_FRAME),
    "aligned": MeanSpinAligned,
    "optimized": Optimized,
}


def _load_initial(name_or_path: str):
    try:
        return builtin_initial(name_or_path)
    except KeyError:
        pass
    return load_state(name_or_path)


# CSV lines formatted and written per write call
_WRITE_LINES = 512


def _write_csv(path: str, header: list[str], axes, columns) -> None:
    """A grid's CSV: the header, then one line per cell of the grid
    ``axes`` in row-major order, its axis values and then its entry of each
    array of ``columns``, all as _fmt writes them.  Each axis value is
    formatted once; the lines are formatted and written _WRITE_LINES at a
    time, so the file's text is never held whole."""
    cells = itertools.product(*([_fmt(x) for x in g] for g in axes))
    columns = [np.asarray(c, dtype=float).ravel() for c in columns]
    line = ",".join(["%s"] * len(axes) + ["%.17g"] * len(columns)) + "\n"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for lo in range(0, len(columns[0]), _WRITE_LINES):
            values = zip(*(c[lo:lo + _WRITE_LINES].tolist() for c in columns))
            block = [cell + v for cell, v in zip(itertools.islice(cells, _WRITE_LINES), values)]
            fh.write(line * len(block) % tuple(itertools.chain.from_iterable(block)))


# --------------------------------------------------------------------------
# xi
# --------------------------------------------------------------------------

def cmd_xi(args) -> int:
    try:
        state = load_state(args.state)
    except (OSError, StateFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_STATE
    report = squeezing_report(state, _POLICIES[args.policy]())
    lines = [
        ("xi", _fmt(report.xi)),
        ("valid", "true" if report.valid else "false"),
        ("policy", args.policy),
        ("var1", _fmt(report.var1)),
        ("var2", _fmt(report.var2)),
        ("cross", _fmt(report.cross)),
        ("ms1", _fmt_vec(report.ms1)),
        ("mag1", _fmt(report.mag1)),
        ("ms2", _fmt_vec(report.ms2)),
        ("mag2", _fmt(report.mag2)),
        ("frame1_n", _fmt_vec(report.frame1.n)),
        ("frame1_n_perp", _fmt_vec(report.frame1.n_perp)),
        ("frame1_n_perp2", _fmt_vec(report.frame1.n_perp2)),
        ("frame2_n", _fmt_vec(report.frame2.n)),
        ("frame2_n_perp", _fmt_vec(report.frame2.n_perp)),
        ("frame2_n_perp2", _fmt_vec(report.frame2.n_perp2)),
        ("degenerate_subsystems", ",".join(str(i) for i in sorted(report.degenerate_subsystems))),
        ("SQUEEZED", "true" if report.squeezed else "false"),
    ]
    for key, value in lines:
        print(f"{key}={value}")
    return EXIT_OK if report.valid else EXIT_UNDEFINED


# --------------------------------------------------------------------------
# sweep
# --------------------------------------------------------------------------

def _resolve_grids(family, given: list[np.ndarray] | None, parser: _Parser):
    """One grid per axis.  The leading axes take the defaults or the given
    grids (one grid is used for all of them); the remaining (phase) axes
    are [0] unless every axis is given."""
    swept, n_axes = len(family.sweep_grid), len(family.axes)
    if not given:
        return family.axis_grids(family.sweep_grid)
    if len(given) not in (1, swept, n_axes):
        parser.error(f"{family.kind} sweep takes 1 or {swept} --grid flags"
                     + (f" (or {n_axes} with phase axes)" if n_axes > swept else ""))
    grids = given * swept if len(given) == 1 else list(given)
    return grids + [np.zeros(1)] * (n_axes - len(grids))


def cmd_sweep(args, parser: _Parser) -> int:
    if args.kind in _EVOLVE_SWEEPS:
        return cmd_evolve(argparse.Namespace(**vars(args), initial="coherent-11", tau1=None,
                                             stages=_EVOLVE_SWEEPS[args.kind]), parser)
    family = _SWEEP_FAMILIES[args.kind]
    grids = _resolve_grids(family, args.grid, parser)
    policy = _POLICIES[args.policy]() if args.policy else family.policy()
    # every value is computed before the output file is opened, so a
    # rejected grid point leaves no partial file behind
    try:
        engine, closed = family.xi_grid(grids, policy)
    except GridPointError as exc:
        parser.error(str(exc))
    _write_csv(args.out, [*family.axes, "xi_engine", "xi_closed"], grids, (engine, closed))
    return EXIT_OK


# --------------------------------------------------------------------------
# check
# --------------------------------------------------------------------------

def _param_text(params) -> str:
    out = []
    for p in params:
        if isinstance(p, complex):
            out.append(f"{p.real:.17g}{p.imag:+.17g}j")
        else:
            out.append(f"{float(p):.17g}")
    return ";".join(out)


def _check_report_lines() -> list[str]:
    lines = ["family,params,closed_form,engine,abs_diff,flag"]
    results = run_standard_comparisons()
    for family, records in results.items():
        for r in records:
            lines.append(",".join([
                family,
                _param_text(r.params),
                _fmt(r.closed_form),
                _fmt(r.engine),
                _fmt(r.abs_diff),
                r.flag,
            ]))
    lines.append("")
    lines.append("[summary]")
    for family, records in results.items():
        flag, max_diff, n = family_summary(records)
        undefined = sum(1 for r in records if r.flag == "UNDEFINED")
        lines.append(
            f"{family}: {flag} rows={len(records)} defined={n} "
            f"undefined={undefined} max_abs_diff={_fmt(max_diff)}"
        )
    mixed = results["coherent_squeezed"]
    best = min(mixed, key=lambda r: r.engine)
    lines.append(
        "coherent_squeezed engine minimum: "
        f"xi={_fmt(best.engine)} at theta={_fmt(best.params[0])} "
        f"(printed form there: {_fmt(best.closed_form)})"
    )
    lines.append("")
    lines.append("[z-alignment]")
    records = z_alignment_audit()
    failures = [r for r in records if r.closed_residual > 1e-10]
    lines.append(f"samples={len(records)} closed_form_failures={len(failures)} "
                 f"residual_tolerance=1e-10")
    lines.append("numeric completion max residual: "
                 + _fmt(max(r.numeric_residual for r in records)))
    if failures:
        lines.append("closed-form failure reproducers "
                     "(inputs c11;c12;c13;c22;c31;c32;c33 -> residual):")
        for r in failures[:10]:
            inputs = _param_text([r.inputs[k] for k in
                                  ("c11", "c12", "c13", "c22", "c31", "c32", "c33")])
            lines.append(f"  {inputs} -> {_fmt(r.closed_residual)}")
        if len(failures) > 10:
            lines.append(f"  ... and {len(failures) - 10} more")
    return lines


def cmd_check(args) -> int:
    text = "\n".join(_check_report_lines()) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


# --------------------------------------------------------------------------
# evolve
# --------------------------------------------------------------------------

def _write_trajectory(args, parser: _Parser, state0, generator, policy) -> int:
    """xi along the evolution of state0 under generator, on the one --grid
    (default 0:3:300), as CSV (tau, xi)."""
    if args.grid and len(args.grid) > 1:
        parser.error("one-stage evolve and evolve --tau1 take at most one --grid")
    grid = args.grid[0] if args.grid else np.linspace(*_TAU_GRID)
    try:
        traj = trajectory(state0, [(generator, grid)], policy)
    except ValueError as exc:
        parser.error(str(exc))
    _write_csv(args.out, ["tau", "xi"], (traj.tau_grid,), (traj.xi,))
    return EXIT_OK


def _write_scan(args, parser: _Parser, state0, policy) -> int:
    """The (tau1, tau2) xi surface of two-stage evolution as CSV, and its
    minimum on stdout.  One --grid serves both axes (default 0:3:60)."""
    grids = args.grid or [np.linspace(*_TAU_GRID_2)]
    if len(grids) > 2:
        parser.error("two-stage evolve takes at most two --grid flags")
    g1, g2 = grids if len(grids) == 2 else grids * 2
    try:
        scan = two_stage_minimum(state0, g1, g2, policy)
    except ValueError as exc:
        parser.error(str(exc))
    _write_csv(args.out, ["tau1", "tau2", "xi"], (scan.tau1_grid, scan.tau2_grid), (scan.xi,))
    print(f"min_xi={_fmt(scan.min_xi)} tau1={_fmt(scan.argmin[0])} tau2={_fmt(scan.argmin[1])}")
    return EXIT_OK


def cmd_evolve(args, parser: _Parser) -> int:
    """`evolve`, and `sweep evolve|evolve2` from coherent-11.  A tau grid
    or tau1 that the propagation rejects is a usage error, reported before
    any file is written."""
    if args.tau1 is not None:
        if args.stages != 2:
            parser.error("--tau1 needs --stages 2")
        if not (math.isfinite(args.tau1) and args.tau1 >= 0):
            parser.error("--tau1 must be a finite number >= 0")
    try:
        state0 = _load_initial(args.initial)
    except (OSError, StateFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_STATE
    policy = _POLICIES[args.policy or "optimized"]()
    if args.stages == 1:
        return _write_trajectory(args, parser, state0, pair_exchange_generator(), policy)
    if args.tau1 is None:
        return _write_scan(args, parser, state0, policy)
    try:
        launched = evolve_state(state0, pair_exchange_generator(), args.tau1)
    except ValueError as exc:
        parser.error(f"--tau1 {_fmt(args.tau1)}: {exc}")
    return _write_trajectory(args, parser, launched, cross_quadratic_generator(), policy)


# --------------------------------------------------------------------------
# parser
# --------------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="spinsqueeze",
                     description="Squeezing parameters of coupled spin-1 pairs.")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_xi = sub.add_parser("xi", help="squeezing report for a state file")
    p_xi.add_argument("--state", required=True, help="state file (JSON)")
    p_xi.add_argument("--policy", choices=_POLICIES, default="optimized")

    p_sweep = sub.add_parser("sweep", help="parameter sweep to CSV")
    p_sweep.add_argument("kind", choices=sorted([*_SWEEP_FAMILIES, *_EVOLVE_SWEEPS]))
    p_sweep.add_argument("--grid", action="append", type=_parse_grid,
                         metavar="START:STOP:COUNT")
    p_sweep.add_argument("--policy", choices=_POLICIES)
    p_sweep.add_argument("--out", required=True)

    p_check = sub.add_parser("check", help="closed-form discrepancy report")
    p_check.add_argument("--out", default=None)

    p_ev = sub.add_parser("evolve", help="xi along evolution trajectories")
    p_ev.add_argument("--initial", default="coherent-11",
                      help="builtin name (coherent-11, mixed-10) or state file path")
    p_ev.add_argument("--stages", type=int, choices=(1, 2), default=1)
    p_ev.add_argument("--tau1", type=float, default=None,
                      help="fixed stage-1 time (two-stage only); omit to search")
    p_ev.add_argument("--grid", action="append", type=_parse_grid,
                      metavar="START:STOP:COUNT")
    p_ev.add_argument("--policy", choices=_POLICIES)
    p_ev.add_argument("--out", required=True)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "xi":
        return cmd_xi(args)
    if args.command == "sweep":
        return cmd_sweep(args, parser)
    if args.command == "check":
        return cmd_check(args)
    if args.command == "evolve":
        return cmd_evolve(args, parser)
    parser.error(f"unknown command {args.command!r}")
    return EXIT_USAGE


def entry_point() -> None:
    sys.exit(main())
