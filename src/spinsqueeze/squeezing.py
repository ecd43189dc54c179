"""Squeezing parameters for coupled spin-1 pairs and their closed forms.

The coupled squeezing parameter of a pure two-subsystem state, for unit
directions u and v perpendicular to the respective mean-spin directions, is

    xi(u, v) = [ 2 Var(S1.u) + 2 Var(S2.v) + 4 <(S1.u)(x)(S2.v)> ]
               / ( |<S1>| + |<S2>| )

where the cross term is the raw expectation of the tensor product (no mean
subtraction) and xi < 1 signals squeezing.  xi depends on how u and v are
chosen inside the two transverse planes, so every report records the frames
actually used; three frame policies are provided:

* ``Fixed``           -- caller-supplied frames, used as-is
* ``MeanSpinAligned`` -- frames constructed from the mean-spin directions
* ``Optimized``       -- u, v minimizing xi over the transverse circles
                         (over the full direction sphere for a subsystem
                         whose mean spin vanishes)

``xi_oracle`` evaluates the same quantity by explicit summation over
amplitude indices with its own inline operator entries; it shares no linear
algebra with the engine and exists to cross-check it.

The module also carries literal transcriptions of closed-form xi expressions
for five special state families, plus a comparison harness that measures
them against the engine and flags each family MATCH or MISMATCH.  The
transcriptions are kept verbatim even where they disagree with the engine;
the discrepancy report is the record of those gaps.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .spin import (SX, SY, SZ, Frame, build_frame, build_frame_xz, cross3, frame_bases,
                   frame_bases_xz, in_xz_half_plane)
from .states import (NORM_TOL, CoupledState, Spin1State, canonical_squeezed, config_amplitudes,
                     config_state, product)

DEGENERATE_MEAN_SPIN = 1e-9
MATCH_TOL = 1e-10
_TIE_TOL = 1e-14

_AXES = (SX, SY, SZ)
# symmetrized products (Sk Sl + Sl Sk)/2, indexed [k][l]
_SYM2 = [[(a @ b + b @ a) / 2.0 for b in _AXES] for a in _AXES]

# Flattened-trace forms: Tr(rho A) = A.T.ravel() . rho.ravel(), so stacking
# the transposed operators turns all moment traces into single matvecs.
_MEAN_FLAT = np.stack([s.T.reshape(9) for s in _AXES])
_SYM_FLAT = np.stack([_SYM2[k][l].T.reshape(9) for k in range(3) for l in range(3)])
_CROSS_FLAT = np.stack(
    [np.kron(_AXES[k], _AXES[l]).T.reshape(81) for k in range(3) for l in range(3)]
)

_ZHAT = np.array([0.0, 0.0, 1.0])


class ZeroDenominatorError(ValueError):
    """A closed-form xi denominator (mean-spin length sum) vanished."""


# --------------------------------------------------------------------------
# frame policies
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Fixed:
    """Evaluate xi along the given frames' n_perp directions."""

    frame1: Frame
    frame2: Frame


@dataclass(frozen=True)
class MeanSpinAligned:
    """Frames built from the normalized mean-spin directions.

    gauge: "default" uses build_frame; "xz" uses build_frame_xz (requires
    mean spins in the x-z half-plane); "auto" picks "xz" whenever the mean
    direction lies in that half-plane and falls back to "default" otherwise.
    A degenerate subsystem (vanishing mean spin) gets the lab frame (n = z).
    """

    gauge: str = "auto"

    def __post_init__(self):
        if self.gauge not in ("default", "xz", "auto"):
            raise ValueError(f"unknown gauge {self.gauge!r}")


@dataclass(frozen=True)
class Optimized:
    """Minimize xi over transverse directions: a certified global minimum,
    with no parameters.

    The numerator is z.M.z in z = (u, v) on |u| = |v| = 1, u and v in the
    transverse planes (u on the whole sphere for a subsystem whose mean
    spin vanishes), and the Lagrangian dual bound, max over delta of
    delta + 2 lambda_min(M - delta diag(I_u, 0)), equals its minimum.  The
    first minimum of a 64-point grid per angle (ties within 1e-14 go to the
    lowest angles) is polished by Newton and stands when a closed-form test
    (plane-plane) or one 5x5 eigenvalue test (sphere-circle) puts it within
    1e-12 of M's scale of the bound.  Any other row goes to one batched
    dual solve started there, which returns that point if it is within the
    tolerance, else the lowest eigenvector at the optimal delta with u and
    v normalized separately or, if that eigenvalue is repeated, the mixture
    of its eigenvectors with |u| = |v|.
    """


FramePolicy = Fixed | MeanSpinAligned | Optimized


@dataclass(frozen=True)
class SqueezingReport:
    xi: float
    frame1: Frame
    frame2: Frame
    var1: float
    var2: float
    cross: float
    ms1: np.ndarray
    mag1: float
    ms2: np.ndarray
    mag2: float
    valid: bool
    degenerate_subsystems: frozenset[int]

    @property
    def squeezed(self) -> bool:
        # 1e-9 guard: roundoff at the coherent boundary (xi = 1) must not
        # flip the flag.
        return self.valid and self.xi < 1.0 - 1e-9


# --------------------------------------------------------------------------
# engine
# --------------------------------------------------------------------------

class Moments:
    """First and second spin moments of a coupled state.

    mean1/mean2 are the mean-spin vectors; mom1/mom2 the real symmetric
    matrices Re<(Sk Sl + Sl Sk)/2> per subsystem; cross the real matrix
    <Sk (x) Sl>.  Together they determine xi for any direction pair.
    """

    __slots__ = ("mean1", "mag1", "mean2", "mag2", "mom1", "mom2", "cross_mat")

    def __init__(self, state: CoupledState):
        tables = moment_tables(state.c[None])
        self.mean1, self.mean2, self.mom1, self.mom2, self.cross_mat = (t[0] for t in tables)
        self.mag1 = float(np.linalg.norm(self.mean1))
        self.mag2 = float(np.linalg.norm(self.mean2))

    def variance(self, subsystem: int, direction: np.ndarray) -> float:
        m = self.mean1 if subsystem == 1 else self.mean2
        mom = self.mom1 if subsystem == 1 else self.mom2
        var = float(direction @ mom @ direction) - float(m @ direction) ** 2
        if -1e-12 <= var < 0.0:
            var = 0.0
        return var

    def cross_correlation(self, u: np.ndarray, v: np.ndarray) -> float:
        return float(u @ self.cross_mat @ v)

    def xi_parts(self, u: np.ndarray, v: np.ndarray) -> tuple[float, float, float, float]:
        var1 = self.variance(1, u)
        var2 = self.variance(2, v)
        cross = self.cross_correlation(u, v)
        xi = (2.0 * var1 + 2.0 * var2 + 4.0 * cross) / (self.mag1 + self.mag2)
        return xi, var1, var2, cross


# rows per BLAS product: OpenBLAS splits larger ones over its threads
_BLAS_ROWS = 64


def moment_tables(c: np.ndarray):
    """The Moments tables for a stack of amplitude matrices (N, 3, 3):
    (mean1, mean2) of shape (N, 3) and (mom1, mom2, cross_mat) of shape
    (N, 3, 3), from stacked matrix products in equal blocks of at most
    _BLAS_ROWS rows (a one-row block would be a matrix-vector product, whose
    rounding differs)."""
    if len(c) > _BLAS_ROWS:
        blocks = [moment_tables(b) for b in np.array_split(c, -(-len(c) // _BLAS_ROWS))]
        return tuple(np.concatenate(parts) for parts in zip(*blocks))
    ch = c.conj()
    r1 = (c @ ch.transpose(0, 2, 1)).reshape(-1, 9)
    r2 = (c.transpose(0, 2, 1) @ ch).reshape(-1, 9)
    psi = c.reshape(-1, 9)
    big = (psi[:, :, None] * ch.reshape(-1, 1, 9)).reshape(-1, 81)
    return (
        (r1 @ _MEAN_FLAT.T).real,
        (r2 @ _MEAN_FLAT.T).real,
        (r1 @ _SYM_FLAT.T).real.reshape(-1, 3, 3),
        (r2 @ _SYM_FLAT.T).real.reshape(-1, 3, 3),
        (big @ _CROSS_FLAT.T).real.reshape(-1, 3, 3),
    )


def first_min_index(values: np.ndarray, axis: int | None = None):
    """The tie rule of every grid minimum: the index of the first entry
    within 1e-14 of the minimum along ``axis`` (of the flattened array
    when axis is None)."""
    return np.argmax(values <= values.min(axis=axis, keepdims=True) + _TIE_TOL, axis=axis)


_NEWTON_STEPS = 30
# grid rows evaluated per chunk: bounds the (rows, _GRID, _GRID) value table
_GRID_CHUNK = 8
# the start grid of both Optimized branches: _GRID angles per circle
_GRID = 64
_CELL = 2.0 * math.pi / _GRID
_GRID_ANGLES = np.arange(_GRID) * _CELL
# harmonics [cos, sin, cos2, sin2, 1] of the grid angles (_GRID, 5)
_GRID_HARM = np.stack([np.cos(_GRID_ANGLES), np.sin(_GRID_ANGLES), np.cos(2.0 * _GRID_ANGLES),
                       np.sin(2.0 * _GRID_ANGLES), np.ones(_GRID)], axis=1)


# The plane-plane numerator.  With u(s) = cos(s) a1 + sin(s) b1 and v(t)
# likewise, 2 Var(S1.u) + 2 Var(S2.v) + 4 <(S1.u)(x)(S2.v)> equals
#
#     const + p cos2s + q sin2s + r cos2t + w sin2t
#           + [cos s, sin s] K [cos t, sin t]^T
#
# (means vanish transverse to the mean spin, so the variances are pure
# second harmonics).  A coefficient row is (p, q, r, w, k00, k01, k10, k11).

def _harmonics(mom1, mom2, cross_mat, e1, e2) -> np.ndarray:
    """Coefficient rows (N, 8) from stacked second moments (N, 3, 3) and
    transverse bases e = [a, b] (N, 2, 3)."""
    g1 = e1 @ mom1 @ e1.transpose(0, 2, 1)
    g2 = e2 @ mom2 @ e2.transpose(0, 2, 1)
    out = np.empty((len(e1), 8))
    out[:, 0] = g1[:, 0, 0] - g1[:, 1, 1]
    out[:, 1] = 2.0 * g1[:, 0, 1]
    out[:, 2] = g2[:, 0, 0] - g2[:, 1, 1]
    out[:, 3] = 2.0 * g2[:, 0, 1]
    out[:, 4:] = 4.0 * (e1 @ cross_mat @ e2.transpose(0, 2, 1)).reshape(-1, 4)
    return out


def _grid_argmin(coef: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per coefficient row, the angles (s, t) of the first _GRID x _GRID
    grid point (row-major) within 1e-14 of the grid minimum."""
    n = _GRID
    idx = np.empty(len(coef), dtype=np.intp)
    vals = np.empty((min(len(coef), _GRID_CHUNK), n, n))
    for lo in range(0, len(coef), _GRID_CHUNK):
        c = coef[lo:lo + _GRID_CHUNK]
        # value[i, j] = harm[i] . M . harm[j] with the row's 5x5 matrix M
        m = np.zeros((len(c), 5, 5))
        m[:, :2, :2] = c[:, 4:].reshape(-1, 2, 2)
        m[:, 2:4, 4] = c[:, 0:2]
        m[:, 4, 2:4] = c[:, 2:4]
        flat = np.matmul(_GRID_HARM, m @ _GRID_HARM.T, out=vals[:len(c)]).reshape(len(c), n * n)
        idx[lo:lo + len(c)] = first_min_index(flat, axis=1)
    i, j = np.divmod(idx, n)
    return _GRID_ANGLES[i], _GRID_ANGLES[j]


def _derivatives(c, s, t):
    """The numerator's gradient (gs, gt), Hessian (hss, htt, hst), x = u.K.v,
    a = u_perp.K.v and b = u.K.v_perp at (s, t): a coefficient row and float
    angles, or a coefficient table (8, N) and angle arrays."""
    p, q, r, w, k00, k01, k10, k11 = c
    trig = np if isinstance(s, np.ndarray) else math
    cs, ss, ct, st = trig.cos(s), trig.sin(s), trig.cos(t), trig.sin(t)
    c2s, s2s = cs * cs - ss * ss, 2.0 * ss * cs
    c2t, s2t = ct * ct - st * st, 2.0 * st * ct
    ka, kb = k00 * ct + k01 * st, k10 * ct + k11 * st
    kat, kbt = k01 * ct - k00 * st, k11 * ct - k10 * st
    x = cs * ka + ss * kb
    gs = 2.0 * (q * c2s - p * s2s) + cs * kb - ss * ka
    gt = 2.0 * (w * c2t - r * s2t) + cs * kat + ss * kbt
    hss = -4.0 * (p * c2s + q * s2s) - x
    htt = -4.0 * (r * c2t + w * s2t) - x
    hst = cs * kbt - ss * kat
    return gs, gt, hss, htt, hst, x, cs * kb - ss * ka, cs * kat + ss * kbt


def _newton(c, s: float, t: float) -> tuple[float, float, bool]:
    """Joint 2-D Newton on the numerator from (s, t).

    Returns the last point and whether it converged; a step is rejected
    (converged False) when the Hessian is not positive definite or the step
    is longer than one grid cell.
    """
    tol = 1e-15 * sum(map(abs, c))
    for _ in range(_NEWTON_STEPS):
        gs, gt, hss, htt, hst, *_ = _derivatives(c, s, t)
        if abs(gs) + abs(gt) <= tol:
            return s, t, True
        det = hss * htt - hst * hst
        if hss <= 0.0 or det <= 0.0:
            return s, t, False
        ds = (hst * gt - htt * gs) / det
        dt = (hst * gs - hss * gt) / det
        if ds * ds + dt * dt > _CELL * _CELL:
            return s, t, False
        s, t = s + ds, t + dt
        if abs(ds) + abs(dt) <= 1e-14:
            return s, t, True
    return s, t, False


def _newton_rows(c: np.ndarray, s: np.ndarray, t: np.ndarray):
    """_newton on every column of a coefficient table (8, N) at once, with
    its rules and arithmetic: (s, t, converged) arrays."""
    tol = 1e-15 * sum(map(abs, c))
    s, t = s.copy(), t.copy()
    converged = np.zeros(len(s), dtype=bool)
    live = np.arange(len(s))
    for _ in range(_NEWTON_STEPS):
        gs, gt, hss, htt, hst, *_ = _derivatives(c[:, live], s[live], t[live])
        done = np.abs(gs) + np.abs(gt) <= tol[live]
        det = hss * htt - hst * hst
        ok = np.flatnonzero(~done & (hss > 0.0) & (det > 0.0))
        ds = (hst[ok] * gt[ok] - htt[ok] * gs[ok]) / det[ok]
        dt = (hst[ok] * gs[ok] - hss[ok] * gt[ok]) / det[ok]
        step = ds * ds + dt * dt <= _CELL * _CELL
        ok, ds, dt = live[ok[step]], ds[step], dt[step]
        s[ok], t[ok] = s[ok] + ds, t[ok] + dt
        small = np.abs(ds) + np.abs(dt) <= 1e-14
        converged[live[done]] = converged[ok[small]] = True
        live = ok[~small]
        if not live.size:
            break
    return s, t, converged


def _certified(c, s, t):
    """Whether a stationary point (s, t) is the numerator's global minimum:
    the numerator is z.M.z in z = (u, v) on |u| = |v| = 1, and the
    multipliers l1 = u.(Mz)_u, l2 = v.(Mz)_v leave M - diag(l1, l1, l2, l2)
    positive semidefinite (weak duality).  That matrix annihilates z; on
    (u_perp, 0), (0, v_perp), (u, -v)/r2 it is half of [[hss, hst, -r2 a],
    [hst, htt, r2 b], [-r2 a, r2 b, -2x]] (r2 = sqrt 2), tested by the Schur
    complement of Newton's Hessian with e = 1e-12/2 of sum|coefficients|
    added to its eigenvalues: a flat valley (singular Hessian) passes, and a
    passing point is within 2 e of the dual bound.  As _derivatives."""
    _, _, hss, htt, hst, x, a, b = _derivatives(c, s, t)
    e = 0.5e-12 * sum(map(abs, c))
    hss, htt = hss + 2.0 * e, htt + 2.0 * e
    d = hss * htt - hst * hst
    return (hss > 0.0) & (d > 0.0) & ((e - x) * d >= htt * a * a + 2.0 * hst * a * b + hss * b * b)


# a guard on dual iterations: from any start the test sets need at most 8
_DUAL_STEPS = 60


def _dual_min(m: np.ndarray, nu: int, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Global minima of z.M.z over |u| = |v| = 1, z = (u, v) with u the
    first nu coordinates, for symmetric matrices (N, n, n) and feasible
    start points z (N, n): the minimizers and lower bounds within 1e-12 of
    sum|M| of their values.  Each delta bounds from below by phi(delta) =
    delta + 2 lambda_min(M - delta D), D = diag(I_u, 0), and the largest
    bound is the minimum: n >= 3 makes the joint range of z.M.z, |u|^2 and
    |v|^2 convex (B. T. Polyak, JOTA 99, 1998).  delta starts at the start
    point's l1 - l2 (l1 = u.(Mz)_u, l2 = v.(Mz)_v), where one eigh of all
    rows settles those whose start point is within the tolerance; the rest
    iterate (_dual_step), one eigh of all of them per iteration.
    """
    dd = np.diag(np.arange(m.shape[-1]) < nu)
    scale = np.abs(m).sum(axis=(1, 2))
    tol = 1e-12 * scale
    zmz = z * (m @ z[:, :, None])[:, :, 0]
    top = zmz.sum(axis=1)               # the start value, l1 + l2
    delta = 2.0 * zmz[:, :nu].sum(axis=1) - top
    lam, x = np.linalg.eigh(m - delta[:, None, None] * dd)
    bound = delta + 2.0 * lam[:, 0]
    rows = np.flatnonzero(top - bound > tol)
    if not rows.size:
        return z, bound
    z = z.copy()
    # an open row: [row, start point, M, start value, tolerance, delta, lo, hi]
    state = np.stack([top, tol, delta, -4.0 * scale, 4.0 * scale], axis=1)[rows].tolist()
    live = [[k, z[k], m[k].tolist(), *v] for k, v in zip(rows.tolist(), state)]
    lam, x = lam[rows], x[rows]
    for _ in range(_DUAL_STEPS):
        rest = []
        for row, lk, xk in zip(live, lam.tolist(), x.tolist()):
            bound[row[0]], y = _dual_step(row, lk, xk, nu)
            if y is None:
                rest.append(row)
            else:
                z[row[0]] = y
        live = rest
        if not live:
            break
        lam, x = np.linalg.eigh(m[[row[0] for row in live]]
                                - np.array([row[5] for row in live])[:, None, None] * dd)
    return z, bound


def _dual_step(row: list, lam: list, x: list, nu: int):
    """One _dual_min iteration of an open row on floats, from the eigenpairs
    (lam, columns of x) of M - delta D: (phi, minimizer), or (phi, None)
    with the row's delta and bracket advanced.  Done when the start point,
    x with u and v normalized separately, or in the hard case (lam0 repeated
    to half the tolerance) a mixture of its eigenvectors with |u| = |v| is
    within the tolerance of phi.  Else the step along the slope g = 1 -
    2 |x_u|^2 of the concave phi is the shorter of a Newton step on g and
    the step to where lam0's tangent meets another's, or a bisection if
    that crosses half the bracket."""
    _, start, m, top, tol, delta, lo, hi = row
    phi = delta + 2.0 * lam[0]
    if top - phi <= tol:
        return phi, start
    n, xu = len(lam), x[:nu]
    g0 = [sum(e[0] * e[j] for e in xu) for j in range(n)]  # x_0.D.x_j
    gd = [sum(e[j] * e[j] for e in xu) for j in range(n)]  # x_j.D.x_j
    a, g = g0[0], 1.0 - 2.0 * g0[0]
    candidates = [[e[0] for e in x]]
    cluster = [j for j in range(n) if 2.0 * (lam[j] - lam[0]) <= tol]
    if len(cluster) > 1:
        # D - I/2 on the eigenspace: extreme values -a < 0 < b mix as b^.5 p + a^.5 q
        val, vec = np.linalg.eigh([[sum(e[i] * e[j] for e in xu) - (i == j) / 2.0 for j in cluster]
                                   for i in cluster])
        if val[0] < 0.0 < val[-1]:
            mix = (math.sqrt(val[-1]) * vec[:, 0] + math.sqrt(-val[0]) * vec[:, -1]).tolist()
            candidates.append([sum(f * e[j] for f, j in zip(mix, cluster)) for e in x])
    for y in candidates:
        su, sv = math.sqrt(sum(w * w for w in y[:nu])), math.sqrt(sum(w * w for w in y[nu:]))
        if su > 0.0 and sv > 0.0:
            y = [w / su for w in y[:nu]] + [w / sv for w in y[nu:]]
            if sum(w * sum(p * q for p, q in zip(mi, y)) for w, mi in zip(y, m)) - phi <= tol:
                return phi, y
    # phi still rises where g > 0: the maximum is above delta
    row[6:8] = lo, hi = (delta, hi) if g > 0.0 else (lo, delta)
    gaps = [max(lam[j] - lam[0], 1e-300) for j in range(1, n)]
    newton = abs(g) / max(4.0 * sum(g0[j] ** 2 / gaps[j - 1] for j in range(1, n)), 1e-300)
    meet = max((gd[j] - a) * math.copysign(1.0, g) / gaps[j - 1] for j in range(1, n))
    stride = min(newton, 1.0 / max(meet, 1e-300))
    row[5] = delta + math.copysign(stride, g) if stride <= 0.5 * (hi - lo) else 0.5 * (lo + hi)
    return phi, None


# coef @ _PLANE_M is M of a coefficient row, flattened: z.M.z is the
# numerator less its constant at z = (cos s, sin s, cos t, sin t)
_PLANE_M = np.zeros((8, 4, 4))      # rows p, q, r, w, then K / 2
_PLANE_M[[0, 0, 1, 1, 2, 2, 3, 3], [0, 1, 0, 1, 2, 3, 2, 3], [0, 1, 1, 0, 2, 3, 3, 2]] = \
    [1.0, -1.0, 1.0, 1.0, 1.0, -1.0, 1.0, 1.0]
_PLANE_M[[4, 4, 5, 5, 6, 6, 7, 7], [0, 2, 0, 3, 1, 2, 1, 3], [2, 0, 3, 0, 2, 1, 3, 1]] = 0.5
_PLANE_M = _PLANE_M.reshape(8, 16)

# plane-plane rows from which Newton and the certificate run on arrays
_BATCH_ROWS = 64


def _plane_plane_min(coef: np.ndarray) -> np.ndarray:
    """The numerator's global minimizers z = (cos s, sin s, cos t, sin t)
    (N, 4) for coefficient rows (N, 8): grid argmin, joint Newton, and the
    point if _certified proves it global; every other row (a rejected step
    or an unproven point) goes into one _dual_min call started there.
    Newton and the certificate run per row on floats below _BATCH_ROWS
    rows, on arrays from there on, with the same arithmetic."""
    s, t = _grid_argmin(coef)
    if len(coef) < _BATCH_ROWS:
        rows = coef.tolist()
        points = [_newton(c, a, b) for c, a, b in zip(rows, s.tolist(), t.tolist())]
        z = np.array([(math.cos(a), math.sin(a), math.cos(b), math.sin(b)) for a, b, _ in points])
        rest = [k for k, (c, (a, b, ok)) in enumerate(zip(rows, points))
                if not (ok and _certified(c, a, b))]
    else:
        table = np.ascontiguousarray(coef.T)
        s, t, converged = _newton_rows(table, s, t)
        z = np.stack([np.cos(s), np.sin(s), np.cos(t), np.sin(t)], axis=1)
        rest = np.flatnonzero(~(converged & _certified(table, s, t)))
    if len(rest):
        z[rest] = _dual_min((coef[rest] @ _PLANE_M).reshape(-1, 4, 4), 2, z[rest])[0]
    return z


# One degenerate subsystem d: its direction u runs over the whole sphere and
# the other's v(t) = cos(t) a + sin(t) b over its transverse circle.  The
# numerator is P(t) + u^T A u + 2 b(t)^T u with A = 2 (mom_d - mean_d mean_d^T),
# b(t) = 2 C v(t), C the cross matrix oriented (d, other) and P(t) twice the
# other's variance along v(t).  For fixed t the minimum over unit u is a
# trust-region subproblem, solved exactly in the eigenbasis of A.

_TINY = np.finfo(float).tiny
_ONES3 = np.ones(3)  # "@ _ONES3" sums rows, faster than .sum(axis=1) on (n, 3)
# t offsets of one Newton evaluation: the point, then a central difference
_FD = np.array([0.0, -1e-5, 1e-5])


def _sphere_min(gamma: np.ndarray, beta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Minima (n,) and minimizers (n, 3) of sum_i gamma_i y_i^2 + 2 beta_i y_i
    over unit y, for the rows of beta (n, 3); gamma are the eigenvalue gaps
    of A above its lowest (gamma[0] = 0), beta the linear terms, both in
    A's eigenbasis.

    y = -beta / (gamma + delta) with delta >= 0 the root of |y| = 1.  Newton
    on 1 - 1/|y(delta)|, convex and decreasing, climbs monotonically to the
    root from a start where |y| >= 1.  If |y(0)| < 1 there is no root (the
    hard case, beta_0 = 0): delta = 0 and y is completed along the lowest
    eigenvector.
    """
    delta = np.maximum((np.abs(beta) - gamma).max(axis=1), _TINY)
    for _ in range(_NEWTON_STEPS):
        den = gamma + delta[:, None]
        y = -beta / den
        y2 = y * y
        s = y2 @ _ONES3
        step = s * (np.sqrt(s) - 1.0) / ((y2 / den) @ _ONES3 + _TINY)
        if (step <= 1e-14 * delta).all():
            break
        delta += np.maximum(step, 0.0)
    hard = delta == _TINY
    if hard.any():
        y[hard, 0] += np.sqrt(np.maximum(1.0 - s[hard], 0.0))
    y /= np.sqrt((y * y) @ _ONES3)[:, None]
    return (y * y) @ gamma + 2.0 * (beta * y) @ _ONES3, y


def _sphere_circle(mom: Moments, d: int) -> tuple[np.ndarray, np.ndarray]:
    """(u, v) minimizing the numerator when subsystem d's mean spin vanishes:
    with the sphere side minimized exactly (_sphere_min), the first minimum
    over t on the _GRID grid is polished by Newton on the envelope-theorem
    slope with a central-difference curvature (a step is rejected when the
    curvature is not positive or the step exceeds a grid cell).  In z = (y,
    cos t, sin t), y in A's eigenbasis, the numerator is z.M.z; the point
    stands when its multipliers l1 = y.(Mz)_y, l2 = (Mz)_t.(cos t, sin t)
    leave M - diag(l1 I3, l2 I2) within 1e-12 of sum|M| of positive
    semidefinite, else _dual_min from there returns the minimum."""
    sides = ((mom.mean1, mom.mom1), (mom.mean2, mom.mom2))
    (mean_d, mom_d), (mean_o, mom_o) = sides if d == 1 else sides[::-1]
    cross = mom.cross_mat if d == 1 else mom.cross_mat.T
    base = build_frame(mean_o / np.linalg.norm(mean_o))
    e = np.array([base.n_perp, base.n_perp2])
    alpha, q = np.linalg.eigh(2.0 * (mom_d - np.outer(mean_d, mean_d)))
    gamma = alpha - alpha[0]
    g = e @ (mom_o - np.outer(mean_o, mean_o)) @ e.T
    # P(t) + alpha_0 = p0 + p cos 2t + r sin 2t; beta(t) = [cos t, sin t] @ b
    p0, p, r = g[0, 0] + g[1, 1] + alpha[0], g[0, 0] - g[1, 1], 2.0 * g[0, 1]
    b = 2.0 * e @ cross.T @ q

    def numerator(t):
        """(value, slope, y) at the angles t (n,)."""
        c, s = np.cos(t), np.sin(t)
        c2, s2 = c * c - s * s, 2.0 * s * c
        val, y = _sphere_min(gamma, np.outer(c, b[0]) + np.outer(s, b[1]))
        dbeta = np.outer(c, b[1]) - np.outer(s, b[0])
        return p0 + p * c2 + r * s2 + val, 2.0 * (r * c2 - p * s2) + 2.0 * (y * dbeta) @ _ONES3, y

    def polish(t):
        """The last evaluated point (t, value, y) of the Newton iteration."""
        step = 0.0
        for _ in range(_NEWTON_STEPS):
            t += step
            f, slope, y = numerator(t + _FD)
            curv = (slope[2] - slope[1]) / (2.0 * _FD[2])
            step = -slope[0] / curv if curv > 0.0 else math.inf
            if not 1e-13 < abs(step) <= _CELL:
                break
        return t, f[0], y[0]

    t, _, y = polish(_GRID_ANGLES[first_min_index(numerator(_GRID_ANGLES)[0])])
    z = np.array([*y, math.cos(t), math.sin(t)])
    m = np.zeros((5, 5))
    m[:3, :3], m[:3, 3:], m[3:, :3], m[3:, 3:] = np.diag(alpha), b.T, b, 2.0 * g
    l1, l2 = np.add.reduceat(z * (m @ z), [0, 3])
    if np.linalg.eigvalsh(m - np.diag([l1, l1, l1, l2, l2]))[0] < -1e-12 * np.abs(m).sum():
        z = _dual_min(m[None], 3, z[None])[0][0]
    return q @ z[:3], z[3] * e[0] + z[4] * e[1]


def _frame_from_transverse(n_dir: np.ndarray | None, t: np.ndarray) -> Frame:
    """Frame whose n_perp is the transverse direction t.

    When the mean direction n_dir is known it becomes the frame's n and the
    triad is completed right-handed; for a degenerate subsystem an arbitrary
    completion around t is used.
    """
    t = t / np.linalg.norm(t)
    if n_dir is None:
        h = build_frame(t).n_perp
        return Frame(cross3(t, h), t, h)
    n = n_dir / np.linalg.norm(n_dir)
    # remove any rounding component of t along n so the triad is exact
    t = t - float(t @ n) * n
    t = t / np.linalg.norm(t)
    return Frame(n, t, cross3(n, t))


def _aligned_frame(direction: np.ndarray, gauge: str) -> Frame:
    if gauge == "xz" or (gauge == "auto" and in_xz_half_plane(direction)):
        return build_frame_xz(direction)
    return build_frame(direction)


def _invalid_report(mom: Moments) -> SqueezingReport:
    lab = build_frame(_ZHAT)
    u = lab.n_perp
    return SqueezingReport(
        xi=float("nan"),
        frame1=lab,
        frame2=lab,
        var1=mom.variance(1, u),
        var2=mom.variance(2, u),
        cross=mom.cross_correlation(u, u),
        ms1=mom.mean1,
        mag1=mom.mag1,
        ms2=mom.mean2,
        mag2=mom.mag2,
        valid=False,
        degenerate_subsystems=frozenset({1, 2}),
    )


def squeezing_report(state: CoupledState, policy: FramePolicy | None = None) -> SqueezingReport:
    """Evaluate the coupled squeezing parameter under a frame policy.

    Default policy is Optimized().  When both mean spins vanish the
    denominator is undefined: the report carries xi = nan and valid = False.
    A single degenerate subsystem is flagged but still evaluated (its
    direction search runs over the whole sphere under Optimized, and
    MeanSpinAligned substitutes the lab frame).
    """
    if policy is None:
        policy = Optimized()
    mom = Moments(state)
    degenerate = frozenset(
        i for i, mag in ((1, mom.mag1), (2, mom.mag2)) if mag < DEGENERATE_MEAN_SPIN
    )
    if len(degenerate) == 2:
        return _invalid_report(mom)

    if isinstance(policy, Fixed):
        frame1, frame2 = policy.frame1, policy.frame2
        u, v = frame1.n_perp, frame2.n_perp
    elif isinstance(policy, MeanSpinAligned):
        frames = []
        for i, (mean, mag) in enumerate(((mom.mean1, mom.mag1), (mom.mean2, mom.mag2)), start=1):
            if i in degenerate:
                frames.append(build_frame(_ZHAT))
            else:
                frames.append(_aligned_frame(mean / mag, policy.gauge))
        frame1, frame2 = frames
        u, v = frame1.n_perp, frame2.n_perp
    elif isinstance(policy, Optimized):
        if not degenerate:
            base1 = build_frame(mom.mean1 / mom.mag1)
            base2 = build_frame(mom.mean2 / mom.mag2)
            a1, b1, a2, b2 = base1.n_perp, base1.n_perp2, base2.n_perp, base2.n_perp2
            coef = _harmonics(mom.mom1[None], mom.mom2[None], mom.cross_mat[None],
                              np.array([[a1, b1]]), np.array([[a2, b2]]))
            ((cs, ss, ct, st),) = _plane_plane_min(coef).tolist()
            u = cs * a1 + ss * b1
            v = ct * a2 + st * b2
        elif 1 in degenerate:
            u, v = _sphere_circle(mom, 1)
        else:
            v, u = _sphere_circle(mom, 2)
        frame1 = _frame_from_transverse(None if 1 in degenerate else mom.mean1 / mom.mag1, u)
        frame2 = _frame_from_transverse(None if 2 in degenerate else mom.mean2 / mom.mag2, v)
        u, v = frame1.n_perp, frame2.n_perp
    else:
        raise TypeError(f"unknown frame policy {policy!r}")

    xi, var1, var2, cross = mom.xi_parts(u, v)
    return SqueezingReport(
        xi=xi,
        frame1=frame1,
        frame2=frame2,
        var1=var1,
        var2=var2,
        cross=cross,
        ms1=mom.mean1,
        mag1=mom.mag1,
        ms2=mom.mean2,
        mag2=mom.mag2,
        valid=True,
        degenerate_subsystems=degenerate,
    )


def _aligned_n_perp(d: np.ndarray, gauge: str) -> np.ndarray:
    """MeanSpinAligned's n_perp (N, 3) for unit mean directions (N, 3), as
    _aligned_frame builds it; the "xz" gauge raises build_frame_xz's
    ValueError for a row outside the x-z half-plane."""
    if gauge == "default":
        return frame_bases(d)[:, 0]
    xz = in_xz_half_plane(d) if gauge == "auto" else np.ones(len(d), dtype=bool)
    out = np.empty_like(d)
    out[xz] = frame_bases_xz(d[xz])[:, 0]
    out[~xz] = frame_bases(d[~xz])[:, 0]
    return out


def xi_batch(c: np.ndarray, policy: FramePolicy | None = None) -> np.ndarray:
    """xi for a stack of normalized amplitude matrices (N, 3, 3) under any
    frame policy (default Optimized()), nan where undefined; equal to
    squeezing_report(CoupledState(c[k]), policy).xi row by row.  Moments and
    xi are evaluated for all rows at once, along the Fixed frames' n_perp,
    MeanSpinAligned's vectorized gauge (an "xz" row outside the half-plane
    raises build_frame_xz's ValueError) or the directions of
    _plane_plane_min, whose open rows share one dual solve.  Rows with a
    degenerate subsystem go through squeezing_report.  Memory is linear in
    N, about 1.5 KB per state under Optimized plus a fixed 0.4 MB, so
    callers pass blocks of a few hundred states (two_stage_minimum: 512).
    """
    if policy is None:
        policy = Optimized()
    if not isinstance(policy, (Fixed, MeanSpinAligned, Optimized)):
        raise TypeError(f"unknown frame policy {policy!r}")
    c = np.asarray(c, dtype=complex).reshape(-1, 3, 3)
    if not np.all(np.abs(np.linalg.norm(c.reshape(-1, 9), axis=1) - 1.0) <= NORM_TOL):
        raise ValueError("xi_batch requires normalized amplitudes")
    mean1, mean2, mom1, mom2, cross_mat = moment_tables(c)
    mag1 = np.linalg.norm(mean1, axis=1)
    mag2 = np.linalg.norm(mean2, axis=1)
    plane = (mag1 >= DEGENERATE_MEAN_SPIN) & (mag2 >= DEGENERATE_MEAN_SPIN)
    xi = np.empty(len(c))
    for k in np.flatnonzero(~plane):
        rep = squeezing_report(CoupledState(c[k]), policy)
        xi[k] = rep.xi if rep.valid else float("nan")
    rows = np.flatnonzero(plane)
    if not rows.size:
        return xi
    mean1, mean2, mag1, mag2 = mean1[rows], mean2[rows], mag1[rows], mag2[rows]
    m1, m2, cm = mom1[rows], mom2[rows], cross_mat[rows]
    d1, d2 = mean1 / mag1[:, None], mean2 / mag2[:, None]
    if isinstance(policy, Fixed):
        u = np.broadcast_to(policy.frame1.n_perp, d1.shape)
        v = np.broadcast_to(policy.frame2.n_perp, d2.shape)
    elif isinstance(policy, MeanSpinAligned):
        u, v = _aligned_n_perp(d1, policy.gauge), _aligned_n_perp(d2, policy.gauge)
    else:
        e1, e2 = frame_bases(d1), frame_bases(d2)
        z = _plane_plane_min(_harmonics(m1, m2, cm, e1, e2))
        u = z[:, :1] * e1[:, 0] + z[:, 1:2] * e1[:, 1]
        v = z[:, 2:3] * e2[:, 0] + z[:, 3:] * e2[:, 1]

    def variance(mom, mean, d):
        # as Moments.variance, including its clamp of roundoff below 0
        var = np.einsum("ni,nij,nj->n", d, mom, d) - np.einsum("ni,ni->n", mean, d) ** 2
        return np.where((var < 0.0) & (var >= -1e-12), 0.0, var)

    numer = (2.0 * variance(m1, mean1, u) + 2.0 * variance(m2, mean2, v)
             + 4.0 * np.einsum("ni,nij,nj->n", u, cm, v))
    xi[rows] = numer / (mag1 + mag2)
    return xi


optimized_xi = xi_batch


# --------------------------------------------------------------------------
# independent oracle
# --------------------------------------------------------------------------

def xi_oracle(state: CoupledState, frame1: Frame, frame2: Frame) -> float:
    """The squeezing parameter by explicit summation over amplitude indices.

    Spin matrix entries are written out inline and all sums run over the 9
    amplitudes (81 index pairs for the quadratic terms) in plain Python
    complex arithmetic; no linear-algebra code is shared with the engine.
    """
    c = [[complex(state.c[i, j]) for j in range(3)] for i in range(3)]
    r = 1.0 / math.sqrt(2.0)
    sx = ((0.0, r, 0.0), (r, 0.0, r), (0.0, r, 0.0))
    sy = ((0.0, -1j * r, 0.0), (1j * r, 0.0, -1j * r), (0.0, 1j * r, 0.0))
    sz = ((1.0, 0.0, 0.0), (0.0, 0.0, 0.0), (0.0, 0.0, -1.0))

    def dir_matrix(d):
        return [
            [d[0] * sx[i][j] + d[1] * sy[i][j] + d[2] * sz[i][j] for j in range(3)]
            for i in range(3)
        ]

    def square(m):
        return [
            [sum(m[i][k] * m[k][j] for k in range(3)) for j in range(3)] for i in range(3)
        ]

    def exp_sub1(m):
        total = 0j
        for i in range(3):
            for ip in range(3):
                for j in range(3):
                    total += c[i][j].conjugate() * m[i][ip] * c[ip][j]
        return total

    def exp_sub2(m):
        total = 0j
        for j in range(3):
            for jp in range(3):
                for i in range(3):
                    total += c[i][j].conjugate() * m[j][jp] * c[i][jp]
        return total

    def exp_cross(m1, m2):
        total = 0j
        for i in range(3):
            for j in range(3):
                for ip in range(3):
                    for jp in range(3):
                        total += c[i][j].conjugate() * m1[i][ip] * m2[j][jp] * c[ip][jp]
        return total

    mean1 = [exp_sub1(m).real for m in (sx, sy, sz)]
    mean2 = [exp_sub2(m).real for m in (sx, sy, sz)]
    mag1 = math.sqrt(sum(x * x for x in mean1))
    mag2 = math.sqrt(sum(x * x for x in mean2))

    a = dir_matrix([float(x) for x in frame1.n_perp])
    b = dir_matrix([float(x) for x in frame2.n_perp])
    var1 = exp_sub1(square(a)).real - exp_sub1(a).real ** 2
    var2 = exp_sub2(square(b)).real - exp_sub2(b).real ** 2
    cross = exp_cross(a, b).real
    return (2.0 * var1 + 2.0 * var2 + 4.0 * cross) / (mag1 + mag2)


# --------------------------------------------------------------------------
# single-subsystem criteria
# --------------------------------------------------------------------------

def _min_transverse_variance(s: Spin1State) -> tuple[float, float]:
    """(min in-plane variance, mean-spin length) for one spin-1 state.

    For zero mean spin the minimum runs over the whole sphere (smallest
    eigenvalue of the second-moment matrix).  The moments of s are those of
    subsystem 1 in s (x) |m=+1>.
    """
    moments = Moments(product(s, Spin1State.basis(1)))
    mean, mom = moments.mean1, moments.mom1
    mag = float(np.linalg.norm(mean))
    if mag < DEGENERATE_MEAN_SPIN:
        return float(np.linalg.eigvalsh(mom).min()), mag
    frame = build_frame(mean / mag)
    a, b = frame.n_perp, frame.n_perp2
    pa = float(a @ mom @ a) - float(mean @ a) ** 2
    qb = float(b @ mom @ b) - float(mean @ b) ** 2
    rab = float(a @ mom @ b) - float(mean @ a) * float(mean @ b)
    mid = (pa + qb) / 2.0
    rad = math.hypot((pa - qb) / 2.0, rab)
    return mid - rad, mag


def ku_parameter(s: Spin1State) -> float:
    """Single-system squeezing versus the coherent transverse noise s/2
    (s = 1): min in-plane variance divided by 1/2."""
    min_var, _ = _min_transverse_variance(s)
    return min_var / 0.5


def puri_parameter(s: Spin1State) -> float:
    """Single-system squeezing versus half the mean-spin length.

    Undefined (raises) for zero mean spin.
    """
    min_var, mag = _min_transverse_variance(s)
    if mag < DEGENERATE_MEAN_SPIN:
        raise ValueError("Puri parameter undefined: mean spin vanishes")
    return min_var / (mag / 2.0)


# --------------------------------------------------------------------------
# closed forms (literal transcriptions)
# --------------------------------------------------------------------------

def xi_product_pair(theta1: float, theta2: float) -> float:
    """Closed form for canonical_squeezed(theta1) x canonical_squeezed(theta2):

        xi = [ (1+cos t1)/(3+cos t1) + (1+cos t2)/(3+cos t2) ]
             / [ |sqrt(2(1+cos t1))/(3+cos t1)| + |sqrt(2(1+cos t2))/(3+cos t2)| ]
    """
    c1, c2 = math.cos(theta1), math.cos(theta2)
    num = (1.0 + c1) / (3.0 + c1) + (1.0 + c2) / (3.0 + c2)
    den = abs(math.sqrt(2.0 * (1.0 + c1)) / (3.0 + c1)) + abs(
        math.sqrt(2.0 * (1.0 + c2)) / (3.0 + c2)
    )
    if den <= 1e-300:
        raise ZeroDenominatorError("mean-spin lengths vanish for these angles")
    return num / den


def xi_coherent_times_squeezed(theta: float) -> float:
    """Closed form for coherent(m=+1) x canonical_squeezed(theta):

        xi = [ 1 + (1+cos t)/(3+cos t) ] / [ 1 + |sqrt(2(1+cos t))/(3+cos t)| ]
    """
    ct = math.cos(theta)
    num = 1.0 + (1.0 + ct) / (3.0 + ct)
    den = 1.0 + abs(math.sqrt(2.0 * (1.0 + ct)) / (3.0 + ct))
    return num / den


def xi_config1(c11: float, c22: float, c33: float) -> float:
    """Closed form for the diagonal configuration (c11, c22, c33):

        xi = [ c11^2 + 2 c22^2 + c33^2 - 2 (c11 c22 - c22 c33) ] / |c11^2 - c33^2|
    """
    den = abs(c11 * c11 - c33 * c33)
    if den <= 1e-12:
        raise ZeroDenominatorError("|c11^2 - c33^2| vanishes")
    num = c11 * c11 + 2.0 * c22 * c22 + c33 * c33 - 2.0 * (c11 * c22 - c22 * c33)
    return num / den


def xi_config2(c11: float, c13: float, c22: float) -> float:
    """Closed form for the configuration (c11, c13, c22):

        xi = [ c11^2 + c13^2 + 2 c22^2 - c11 c13 + 2 c13 c22 - 2 c22 c11 ]
             / [ |c11^2 + c13^2| + |c11^2 - c13^2| ]
    """
    den = abs(c11 * c11 + c13 * c13) + abs(c11 * c11 - c13 * c13)
    if den <= 1e-12:
        raise ZeroDenominatorError("mean-spin lengths vanish")
    num = (
        c11 * c11
        + c13 * c13
        + 2.0 * c22 * c22
        - c11 * c13
        + 2.0 * c13 * c22
        - 2.0 * c22 * c11
    )
    return num / den


def xi_config3(c12: complex, c21: complex, c23: complex) -> float:
    """Closed form for the configuration (c12, c21, c23):

        xi = [ 3 c12^2 + 3 c21^2 + 3 c23^2 - 2 c21 c23 + 4 c12 c21 - 4 c12 c23 ]
             / [ |c12|^2 + |c21^2 - c23^2| ]

    For complex amplitudes the printed numerator is a complex expression; it
    is evaluated as written and nan is returned when the result has a
    non-negligible imaginary part (recorded as UNDEFINED by the harness).
    """
    c12, c21, c23 = complex(c12), complex(c21), complex(c23)
    den = abs(c12) ** 2 + abs(c21 * c21 - c23 * c23)
    if den <= 1e-12:
        raise ZeroDenominatorError("mean-spin lengths vanish")
    num = (
        3.0 * c12 * c12
        + 3.0 * c21 * c21
        + 3.0 * c23 * c23
        - 2.0 * c21 * c23
        + 4.0 * c12 * c21
        - 4.0 * c12 * c23
    )
    val = num / den
    if abs(val.imag) > 1e-9 * max(1.0, abs(val.real)):
        return float("nan")
    return val.real


def _squeezed(theta: float) -> Spin1State:
    # looked up by name at each call, so a wrapper installed on
    # canonical_squeezed after import sees the table's calls too
    return canonical_squeezed(theta)


def _grid_cells(*axes) -> tuple:
    """The cells of a grid, one (start, stop, count) per axis, row-major."""
    return tuple(itertools.product(*(np.linspace(*axis).tolist() for axis in axes)))


@dataclass(frozen=True)
class Family:
    """One closed-form state family: what the sweeps, the check report and
    the comparison harness know about it.

    A product family's state is the product of its two ``factors``, each a
    fixed Spin1State or a builder of one from one swept angle; its
    closed-form parameters are the swept angles.  A configuration's
    parameters are ``states.config_amplitudes(config, *cell)`` and its
    state puts them in their slots (``states.config_state``).
    """

    name: str                             # closed-form family name
    kind: str                             # its ``sweep`` kind
    axes: tuple[str, ...]                 # sweep axes, in CSV column order
    sweep_grid: tuple                     # default (start, stop, count) per leading axis;
                                          # the remaining axes default to [0]
    policy: Callable[[], FramePolicy]     # default frame policy
    closed_form: Callable[..., float]     # the literal transcription
    check_cells: tuple                    # the check report's sweep cells, in order
    factors: tuple | None = None
    config: int | None = None

    def params(self, *cell) -> tuple:
        """The closed-form parameters at a sweep cell."""
        return cell if self.config is None else config_amplitudes(self.config, *cell)

    def state(self, params: tuple) -> CoupledState:
        """The coupled state at closed-form parameters ``params``."""
        if self.config is not None:
            return config_state(self.config, params)
        swept = iter(params)
        return product(*(f if isinstance(f, Spin1State) else f(next(swept))
                         for f in self.factors))

    def closed(self, params: tuple) -> float:
        """The closed form at ``params``, nan where its denominator vanishes."""
        try:
            return closed_form_xi(self.name, params)
        except ZeroDenominatorError:
            return float("nan")


_THETA_AXIS = (0.05, 3.1, 50)
_CHECK_AB = (0.1, 3.0, 15)

# A new family is one row here.
FAMILIES = {f.name: f for f in (
    Family("product_pair", "product", ("theta1", "theta2"), (_THETA_AXIS,) * 2,
           MeanSpinAligned, xi_product_pair, _grid_cells(*((0.1, 3.0, 30),) * 2),
           factors=(_squeezed, _squeezed)),
    Family("coherent_squeezed", "mixed", ("theta",), ((0.0, math.pi, 200),),
           MeanSpinAligned, xi_coherent_times_squeezed, _grid_cells((0.05, 3.1, 100)),
           factors=(Spin1State.basis(1), _squeezed)),
    Family("config1", "config1", ("alpha", "beta"), (_THETA_AXIS,) * 2,
           Optimized, xi_config1, _grid_cells(_CHECK_AB, _CHECK_AB), config=1),
    Family("config2", "config2", ("alpha", "beta"), (_THETA_AXIS,) * 2,
           Optimized, xi_config2, _grid_cells(_CHECK_AB, _CHECK_AB), config=2),
    Family("config3", "config3", ("alpha", "beta", "phi1", "phi2"), (_THETA_AXIS,) * 2,
           Optimized, xi_config3,
           tuple((a, b, *phases) for phases in ((0.0, 0.0), (0.7, 1.9))
                 for a, b in _grid_cells(*((0.1, 3.0, 12),) * 2)),
           config=3),
)}


def _family(name: str) -> Family:
    try:
        return FAMILIES[name]
    except KeyError:
        raise ValueError(f"unknown family {name!r}") from None


def closed_form_xi(family: str, params: tuple) -> float:
    return _family(family).closed_form(*params)


def family_state(family: str, params: tuple) -> CoupledState:
    """The coupled state a closed-form family row refers to."""
    return _family(family).state(params)


@dataclass(frozen=True)
class DiscrepancyRecord:
    family: str
    params: tuple
    closed_form: float
    engine: float
    abs_diff: float
    flag: str  # MATCH | MISMATCH | UNDEFINED


def compare_closed_forms(family: str, params: tuple, policy: FramePolicy) -> DiscrepancyRecord:
    """One engine-versus-closed-form comparison row."""
    fam = _family(family)
    closed = fam.closed(params)
    report = squeezing_report(fam.state(params), policy)
    engine = report.xi if report.valid else float("nan")
    if math.isnan(closed) or math.isnan(engine):
        return DiscrepancyRecord(family, params, closed, engine, float("nan"), "UNDEFINED")
    diff = abs(closed - engine)
    flag = "MATCH" if diff <= MATCH_TOL else "MISMATCH"
    return DiscrepancyRecord(family, params, closed, engine, diff, flag)


def standard_comparison_grids() -> dict[str, list[tuple]]:
    """Canonical parameter grids for the discrepancy report (deterministic):
    each family's check cells as closed-form parameters."""
    return {f.name: [f.params(*cell) for cell in f.check_cells] for f in FAMILIES.values()}


def run_standard_comparisons() -> dict[str, list[DiscrepancyRecord]]:
    """Run the full engine-versus-closed-form comparison over the canonical
    grids, each family under its default policy; returns records per
    family."""
    out: dict[str, list[DiscrepancyRecord]] = {}
    for family, grid in standard_comparison_grids().items():
        policy = FAMILIES[family].policy()
        out[family] = [compare_closed_forms(family, params, policy) for params in grid]
    return out


def family_summary(records: list[DiscrepancyRecord]) -> tuple[str, float, int]:
    """(flag, max abs_diff over defined rows, defined-row count) for a family."""
    diffs = [r.abs_diff for r in records if r.flag != "UNDEFINED"]
    if not diffs:
        return "UNDEFINED", float("nan"), 0
    max_diff = max(diffs)
    flag = "MATCH" if max_diff <= MATCH_TOL else "MISMATCH"
    return flag, max_diff, len(diffs)
