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
    Fixed,
    MeanSpinAligned,
    Optimized,
    ZeroDenominatorError,
    closed_form_xi,
    family_summary,
    run_standard_comparisons,
    squeezing_report,
    xi_batch,
)
from .states import (
    StateFormatError,
    Spin1State,
    canonical_squeezed,
    config,
    load_state,
    z_alignment_audit,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_BAD_STATE = 2
EXIT_UNDEFINED = 3

_LAB_FRAME = build_frame(np.array([0.0, 0.0, 1.0]))

# kind -> (axis names, default (start, stop, count) per axis, default policy)
_SWEEP_AXES = {
    "product": (("theta1", "theta2"), ((0.05, 3.1, 50),) * 2, "aligned"),
    "mixed": (("theta",), ((0.0, math.pi, 200),), "aligned"),
    "config1": (("alpha", "beta"), ((0.05, 3.1, 50),) * 2, "optimized"),
    "config2": (("alpha", "beta"), ((0.05, 3.1, 50),) * 2, "optimized"),
    "config3": (("alpha", "beta"), ((0.05, 3.1, 50),) * 2, "optimized"),
    "evolve": (("tau",), ((0.0, 3.0, 300),), "optimized"),
    "evolve2": (("tau1", "tau2"), ((0.0, 3.0, 60),) * 2, "optimized"),
}
# closed-form family of each state sweep
_SWEEP_FAMILY = {"product": "product_pair", "mixed": "coherent_squeezed",
                 "config1": "config1", "config2": "config2", "config3": "config3"}


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


def _policy_from_name(name: str):
    if name == "fixed":
        return Fixed(_LAB_FRAME, _LAB_FRAME)
    if name == "aligned":
        return MeanSpinAligned(gauge="auto")
    if name == "optimized":
        return Optimized()
    raise ValueError(f"unknown policy {name!r}")


def _load_initial(name_or_path: str):
    try:
        return builtin_initial(name_or_path)
    except KeyError:
        pass
    return load_state(name_or_path)


def _write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


# --------------------------------------------------------------------------
# xi
# --------------------------------------------------------------------------

def cmd_xi(args) -> int:
    try:
        state = load_state(args.state)
    except (OSError, StateFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_STATE
    report = squeezing_report(state, _policy_from_name(args.policy))
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

def _resolve_grids(kind: str, given: list[np.ndarray] | None, parser: _Parser):
    """One grid per axis; config3 always gets its two phase axes, [0] when
    not given."""
    axes, defaults, _ = _SWEEP_AXES[kind]
    n_axes = len(axes)
    if not given:
        grids = [np.linspace(*d) for d in defaults]
    elif len(given) == 1:
        grids = [given[0]] * n_axes
    elif len(given) == n_axes or (kind == "config3" and len(given) == 4):
        grids = list(given)
    else:
        parser.error(f"{kind} sweep takes 1 or {n_axes} --grid flags"
                     + (" (or 4 with phase axes)" if kind == "config3" else ""))
    if kind == "config3" and len(grids) == 2:
        grids += [np.array([0.0])] * 2
    return grids


class _GridPointError(Exception):
    """A state builder rejected a sweep grid point."""


def _built(names, values, builder, *args):
    """builder(*args), its ValueError re-raised as a _GridPointError that
    names the grid point."""
    try:
        return builder(*args)
    except ValueError as exc:
        point = " ".join(f"{n}={_fmt(v)}" for n, v in zip(names, values))
        raise _GridPointError(f"no state at grid point {point}: {exc}") from None


def _axis_amplitudes(name: str, grid) -> np.ndarray:
    """canonical_squeezed amplitudes (n, 3), one row per value of a theta axis."""
    return np.array([_built((name,), (t,), canonical_squeezed, t).amps for t in grid])


def _row_blocks(kind: str, names, grids):
    """The amplitude stacks (M, 3, 3) of the cells sharing one value of the
    first axis, in CSV order.  Product states are broadcast outer products,
    as states.product forms them."""
    if kind == "product":
        a1 = _axis_amplitudes(names[0], grids[0])
        a2 = _axis_amplitudes(names[1], grids[1])
        for a in a1:
            yield a[:, None] * a2[:, None, :]
    elif kind == "mixed":
        up = Spin1State.basis(1).amps
        yield up[:, None] * _axis_amplitudes(names[0], grids[0])[:, None, :]
    else:
        number = int(kind[-1])
        for a in grids[0]:
            yield np.array([_built(names, cell, config, number, *cell).c
                            for cell in itertools.product([a], *grids[1:])])


def _closed_xi(kind: str, cell) -> float:
    """The family's closed form at one grid cell, nan where undefined."""
    if kind in ("product", "mixed"):
        params = cell
    else:
        a, b = cell[:2]
        sa, sb, ca, cb = math.sin(a), math.sin(b), math.cos(a), math.cos(b)
        if kind in ("config1", "config2"):
            params = (sa * cb, sa * sb, cb)
        else:
            p1, p2 = cell[2:]
            params = (complex(ca),
                      complex(sa * cb) * complex(math.cos(p1), math.sin(p1)),
                      complex(sa * sb) * complex(math.cos(p2), math.sin(p2)))
    try:
        return closed_form_xi(_SWEEP_FAMILY[kind], params)
    except ZeroDenominatorError:
        return float("nan")


def _sweep_table(kind: str, names, grids, policy) -> tuple[np.ndarray, np.ndarray]:
    """(engine xi, closed-form xi) per grid cell in CSV order.  xi_batch
    takes the cells of one first-axis value per call, which bounds the
    working set to one grid row."""
    cells = math.prod(len(g) for g in grids)
    engine = np.empty(cells)
    lo = 0
    for block in _row_blocks(kind, names, grids):
        engine[lo:lo + len(block)] = xi_batch(block, policy)
        lo += len(block)
    closed = np.fromiter((_closed_xi(kind, cell) for cell in itertools.product(*grids)),
                         dtype=float, count=cells)
    return engine, closed


def cmd_sweep(args, parser: _Parser) -> int:
    kind = args.kind
    grids = _resolve_grids(kind, args.grid, parser)
    axes, _, default_policy = _SWEEP_AXES[kind]
    policy = _policy_from_name(args.policy or default_policy)

    if kind == "evolve":
        traj = trajectory(builtin_initial("coherent-11"),
                          [(pair_exchange_generator(), grids[0])], policy)
        rows = ([_fmt(t), _fmt(r.xi if r.valid else float("nan"))]
                for t, r in zip(traj.tau_grid, traj.reports))
        _write_csv(args.out, ["tau", "xi"], rows)
        return EXIT_OK
    if kind == "evolve2":
        scan = two_stage_minimum(builtin_initial("coherent-11"), grids[0], grids[1], policy)
        rows = ([_fmt(t1), _fmt(t2), _fmt(scan.xi[i, j])]
                for i, t1 in enumerate(scan.tau1_grid)
                for j, t2 in enumerate(scan.tau2_grid))
        _write_csv(args.out, ["tau1", "tau2", "xi"], rows)
        print(f"min_xi={_fmt(scan.min_xi)} tau1={_fmt(scan.argmin[0])} tau2={_fmt(scan.argmin[1])}")
        return EXIT_OK

    names = list(axes) + (["phi1", "phi2"] if kind == "config3" else [])
    # every value is computed before the output file is opened, so a
    # rejected grid point leaves no partial file behind
    try:
        engine, closed = _sweep_table(kind, names, grids, policy)
    except _GridPointError as exc:
        parser.error(str(exc))
    axis_text = [[_fmt(x) for x in g] for g in grids]
    rows = ([*cell, _fmt(e), _fmt(c)]
            for cell, e, c in zip(itertools.product(*axis_text), engine, closed))
    _write_csv(args.out, names + ["xi_engine", "xi_closed"], rows)
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

def cmd_evolve(args, parser: _Parser) -> int:
    try:
        state0 = _load_initial(args.initial)
    except (OSError, StateFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_STATE
    policy = _policy_from_name(args.policy or "optimized")
    grids = args.grid or []

    if args.stages == 1:
        if len(grids) > 1:
            parser.error("one-stage evolve takes at most one --grid")
        grid = grids[0] if grids else np.linspace(0.0, 3.0, 300)
        traj = trajectory(state0, [(pair_exchange_generator(), grid)], policy)
        rows = ([_fmt(t), _fmt(r.xi if r.valid else float("nan"))]
                for t, r in zip(traj.tau_grid, traj.reports))
        _write_csv(args.out, ["tau", "xi"], rows)
        return EXIT_OK

    if args.tau1 is not None:
        if args.tau1 < 0:
            parser.error("--tau1 must be >= 0")
        if len(grids) > 1:
            parser.error("evolve with fixed --tau1 takes at most one --grid")
        grid = grids[0] if grids else np.linspace(0.0, 3.0, 300)
        launched = evolve_state(state0, pair_exchange_generator(), args.tau1)
        traj = trajectory(launched, [(cross_quadratic_generator(), grid)], policy)
        rows = ([_fmt(t), _fmt(r.xi if r.valid else float("nan"))]
                for t, r in zip(traj.tau_grid, traj.reports))
        _write_csv(args.out, ["tau", "xi"], rows)
        return EXIT_OK

    if len(grids) == 0:
        g1 = g2 = np.linspace(0.0, 3.0, 60)
    elif len(grids) == 1:
        g1 = g2 = grids[0]
    elif len(grids) == 2:
        g1, g2 = grids
    else:
        parser.error("two-stage evolve takes at most two --grid flags")
    scan = two_stage_minimum(state0, g1, g2, policy)
    rows = ([_fmt(t1), _fmt(t2), _fmt(scan.xi[i, j])]
            for i, t1 in enumerate(scan.tau1_grid)
            for j, t2 in enumerate(scan.tau2_grid))
    _write_csv(args.out, ["tau1", "tau2", "xi"], rows)
    print(f"min_xi={_fmt(scan.min_xi)} tau1={_fmt(scan.argmin[0])} tau2={_fmt(scan.argmin[1])}")
    return EXIT_OK


# --------------------------------------------------------------------------
# parser
# --------------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="spinsqueeze",
                     description="Squeezing parameters of coupled spin-1 pairs.")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_xi = sub.add_parser("xi", help="squeezing report for a state file")
    p_xi.add_argument("--state", required=True, help="state file (JSON)")
    p_xi.add_argument("--policy", choices=("fixed", "aligned", "optimized"),
                      default="optimized")

    p_sweep = sub.add_parser("sweep", help="parameter sweep to CSV")
    p_sweep.add_argument("kind", choices=sorted(_SWEEP_AXES))
    p_sweep.add_argument("--grid", action="append", type=_parse_grid,
                         metavar="START:STOP:COUNT")
    p_sweep.add_argument("--policy", choices=("fixed", "aligned", "optimized"))
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
    p_ev.add_argument("--policy", choices=("fixed", "aligned", "optimized"))
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
