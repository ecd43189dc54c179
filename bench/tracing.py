"""Layer spans recorded from outside the library.

The tracer wraps the public entry points of each spinsqueeze module (the
wrappers live here, nothing under ``src/`` changes) and records one span per
call: layer name, start, end, parent span and run id.  Spans are held in
flat typed arrays while the run lasts and written out once it ends.

A layer's self time is the duration of its spans minus the time their child
spans cover.  Calls made from one thread nest strictly, so the covered time
is the sum of the children's durations.  A layer's call count is the number
of spans whose parent belongs to another layer, so ``product`` calling the
``CoupledState`` constructor counts as one entry into ``states.build``.
"""

from __future__ import annotations

import functools
import sys
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

# Layers with a call count and a self time, in report order.
TIMED_LAYERS = (
    "states.build",
    "spin.frame",
    "squeezing.moments",
    "squeezing.fixed",
    "squeezing.aligned",
    "squeezing.optimized_plane",
    "squeezing.optimized_sphere",
    "squeezing.closed_form",
    "squeezing.oracle",
    "dynamics.propagator",
)


class Tracer:
    """In-memory span store for one process."""

    def __init__(self):
        self.layer_names: list[str] = []
        self._layer_ids: dict[str, int] = {}
        self.layer = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.run = array("i")
        self.counts: Counter = Counter()
        self.run_id = 0
        self._stack: list[int] = []

    def _layer_id(self, name: str) -> int:
        lid = self._layer_ids.get(name)
        if lid is None:
            lid = self._layer_ids[name] = len(self.layer_names)
            self.layer_names.append(name)
        return lid

    def record(self, name: str | None, start: float, end: float, parent: int = -1) -> int:
        """Append a span (name None: not yet known); returns its index."""
        self.layer.append(-1 if name is None else self._layer_id(name))
        self.start.append(start)
        self.end.append(end)
        self.parent.append(parent)
        self.run.append(self.run_id)
        return len(self.start) - 1

    def count(self, key: str) -> None:
        self.counts[(self.run_id, key)] += 1

    def wrap(self, fn, name: str | None = None, classify=None):
        """A traced version of fn.

        The span is named ``name``, or by ``classify(tracer, args, kwargs,
        result, exc)`` once the call has ended, which lets a layer be split
        by what the call returned.
        """
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer.record(None, 0.0, 0.0, tracer._stack[-1] if tracer._stack else -1)
            tracer._stack.append(idx)
            result = exc = None
            tracer.start[idx] = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                tracer.end[idx] = perf_counter()
                tracer._stack.pop()
                label = name if classify is None else classify(tracer, args, kwargs, result, exc)
                tracer.layer[idx] = tracer._layer_id(label)

        return functools.update_wrapper(traced, fn)

    def layer_totals(self, run_id: int | None = None) -> dict[str, dict[str, float]]:
        """{layer: {"calls", "self_s", "spans"}} over one run id or all."""
        layer = np.frombuffer(self.layer, dtype=np.int32)
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        self_s = self_times(start, end, parent)
        has_parent = parent >= 0
        parent_layer = np.where(has_parent, layer[np.where(has_parent, parent, 0)], -1)
        entry = parent_layer != layer
        keep = np.ones(layer.size, dtype=bool)
        if run_id is not None:
            keep = np.frombuffer(self.run, dtype=np.int32) == run_id
        out = {}
        for lid, lname in enumerate(self.layer_names):
            sel = keep & (layer == lid)
            out[lname] = {
                "calls": int(np.count_nonzero(sel & entry)),
                "self_s": float(self_s[sel].sum()),
                "spans": int(np.count_nonzero(sel)),
            }
        return out

    def top_level_seconds(self, run_id: int) -> float:
        """Time covered by spans without a parent in one run."""
        parent = np.frombuffer(self.parent, dtype=np.int32)
        sel = (parent < 0) & (np.frombuffer(self.run, dtype=np.int32) == run_id)
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        return float((end[sel] - start[sel]).sum())

    def save(self, path) -> None:
        np.savez_compressed(
            path,
            layer_names=np.array(self.layer_names),
            layer=np.frombuffer(self.layer, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            run=np.frombuffer(self.run, dtype=np.int32),
        )


def self_times(start, end, parent) -> np.ndarray:
    """Per-span duration minus the summed duration of its direct children."""
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    parent = np.asarray(parent)
    dur = end - start
    child = parent >= 0
    covered = np.bincount(parent[child], weights=dur[child], minlength=dur.size)
    return dur - covered


# --------------------------------------------------------------------------
# the spinsqueeze entry points and how their spans are named
# --------------------------------------------------------------------------

def _classify_report(tracer, args, kwargs, report, exc):
    from spinsqueeze.squeezing import Fixed, MeanSpinAligned

    if report is None:
        return "squeezing.error"
    if report.squeezed:
        tracer.count("squeezing.squeezed")
    if not report.valid:
        return "squeezing.invalid"
    policy = args[1] if len(args) > 1 else kwargs.get("policy")
    if isinstance(policy, Fixed):
        return "squeezing.fixed"
    if isinstance(policy, MeanSpinAligned):
        return "squeezing.aligned"
    if report.degenerate_subsystems:
        return "squeezing.optimized_sphere"
    return "squeezing.optimized_plane"


def _classify_closed_form(tracer, args, kwargs, value, exc):
    if exc is not None or value != value:  # ZeroDenominatorError or nan
        tracer.count("squeezing.closed_form.undefined")
    return "squeezing.closed_form"


def _entry_points():
    from spinsqueeze import cli, dynamics, spin, squeezing, states

    return [
        (states.CoupledState, "__init__", "states.build", None),
        (states, "product", "states.build", None),
        (states, "canonical_squeezed", "states.build", None),
        (states, "config", "states.build", None),
        (spin.Frame, "__post_init__", "spin.frame", None),
        (spin, "build_frame", "spin.frame", None),
        (spin, "build_frame_xz", "spin.frame", None),
        (squeezing.Moments, "__init__", "squeezing.moments", None),
        (squeezing, "squeezing_report", None, _classify_report),
        (squeezing, "closed_form_xi", None, _classify_closed_form),
        (squeezing, "xi_oracle", "squeezing.oracle", None),
        (dynamics.Propagator, "__init__", "dynamics.propagator", None),
        (dynamics.Propagator, "apply", "dynamics.propagator", None),
        (dynamics.Propagator, "apply_grid", "dynamics.propagator", None),
        (dynamics, "trajectory", "dynamics.driver", None),
        (dynamics, "two_stage_minimum", "dynamics.driver", None),
        (cli, "main", "cli", None),
    ]


def install(tracer: Tracer):
    """Wrap every entry point; returns a function that restores the originals.

    A module-level function is replaced in every loaded spinsqueeze module
    that imported it by name, so calls through ``cli`` or ``dynamics`` are
    seen too.
    """
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "spinsqueeze" or n.startswith("spinsqueeze."))]
    undo = []
    for owner, attr, name, classify in _entry_points():
        original = owner.__dict__[attr]
        traced = tracer.wrap(original, name, classify)
        if isinstance(owner, type):
            holders = [owner]
        else:
            holders = [m for m in modules if m.__dict__.get(attr) is original]
        for holder in holders:
            setattr(holder, attr, traced)
            undo.append((holder, attr, original))

    def restore():
        for holder, attr, original in reversed(undo):
            setattr(holder, attr, original)

    return restore
