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

from .spin import (SX, SY, SZ, Frame, _in_xz, build_frame, build_frame_xz, cross3, frame_bases,
                   frame_bases_xz, in_xz_half_plane)
from .states import (NORM_TOL, CoupledState, Spin1State, canonical_squeezed, config_amplitudes,
                     config_matrices, product)

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
_LAB_N_PERP = build_frame(_ZHAT).n_perp


def _length(v: np.ndarray) -> float:
    """np.linalg.norm of a real 3-vector, by its own arithmetic (the square
    root of v.dot(v)), without its overhead."""
    return math.sqrt(float(v.dot(v)))


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
    delta + 2 lambda_min(M - delta diag(I_u, 0)), equals its minimum.  A
    plane-plane row starts at the first minimum of a 64-point grid per
    angle (ties within 1e-14 go to the lowest angles), polished by Newton,
    and stands when a closed-form test puts it within 1e-12 of M's scale of
    the bound.  Every other plane-plane row, and every sphere-circle row
    from the separable point of each side's least-variance direction, goes
    to one batched dual solve, which returns its start if that is within
    the tolerance, else the lowest eigenvector at the optimal delta with u
    and v normalized separately or, if that eigenvalue is repeated, the
    mixture of its eigenvectors with |u| = |v|; a sphere-circle point the
    solve moved is then closed by Newton steps on its KKT system.
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
        self.mag1 = _length(self.mean1)
        self.mag2 = _length(self.mean2)

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
    return (values <= values.min(axis=axis, keepdims=axis is not None) + _TIE_TOL).argmax(axis=axis)


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
    """Coefficient rows (..., 8) from second moments (..., 3, 3) and
    transverse bases e = [a, b] (..., 2, 3): stacks, or one state's 2-D
    arrays (the products per state are the same)."""
    g1 = e1 @ mom1 @ e1.swapaxes(-1, -2)
    g2 = e2 @ mom2 @ e2.swapaxes(-1, -2)
    k = e1 @ cross_mat @ e2.swapaxes(-1, -2)
    out = np.empty(k.shape[:-2] + (8,))
    out[..., 0] = g1[..., 0, 0] - g1[..., 1, 1]
    out[..., 1] = 2.0 * g1[..., 0, 1]
    out[..., 2] = g2[..., 0, 0] - g2[..., 1, 1]
    out[..., 3] = 2.0 * g2[..., 0, 1]
    out[..., 4:] = 4.0 * k.reshape(k.shape[:-2] + (4,))
    return out


def _grid_argmin(coef: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per coefficient row, the angles (s, t) of the first _GRID x _GRID
    grid point (row-major) within 1e-14 of the grid minimum."""
    n = _GRID
    # value[i, j] = harm[i] . M . harm[j] with the row's 5x5 matrix M
    m = np.zeros((len(coef), 5, 5))
    m[:, :2, :2] = coef[:, 4:].reshape(-1, 2, 2)
    m[:, 2:4, 4] = coef[:, 0:2]
    m[:, 4, 2:4] = coef[:, 2:4]
    if len(coef) == 1:  # the same two products on 2-D arrays
        idx = first_min_index(_GRID_HARM @ (m[0] @ _GRID_HARM.T))[None]
    else:
        idx = np.empty(len(coef), dtype=np.intp)
        vals = np.empty((min(len(coef), _GRID_CHUNK), n, n))
        for lo in range(0, len(coef), _GRID_CHUNK):
            mc = m[lo:lo + _GRID_CHUNK]
            flat = np.matmul(_GRID_HARM, mc @ _GRID_HARM.T, out=vals[:len(mc)])
            idx[lo:lo + len(mc)] = first_min_index(flat.reshape(len(mc), n * n), axis=1)
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
    rows settles those whose start point is within the tolerance, the
    certificate of every sphere-circle start; the rest iterate
    (_dual_step), one eigh of all of them per iteration.
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
# the other's v = w0 a + w1 b over its transverse circle.  In z = (y, w), y
# the coordinates of u in the eigenbasis q of A = 2 (mom_d - mean_d mean_d^T),
# the numerator is z.M.z with M = [[diag(alpha), B^T], [B, 2 G]]: alpha the
# eigenvalues of A, B = 2 [a, b] C^T q with C the cross matrix oriented
# (d, other), G the other's covariance on [a, b].


def _sphere_circle(tables, second: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(u, v) (N, 3) minimizing the numerator, for the moment tables (mean1,
    mean2, mom1, mom2, cross_mat) of rows with one vanishing mean spin,
    subsystem 2's where ``second`` (N,) is True, and the other subsystem's
    transverse bases e = [a, b] (N, 2, 3) of build_frame.

    _dual_min alone solves the rows, started at the separable point of the
    lowest eigenvectors of A and G; its first eigh certifies that point
    where it is within tolerance, as it is whenever C vanishes (a product
    with a polar factor).  A row the dual solve moved is closed by Newton
    steps on its KKT system (_kkt_newton).  Signs: w lies on the half-circle
    of angles [0, pi), with (y, w) flipped jointly, and where B vanishes (to
    _TIE_TOL of sum|M|) u's largest-magnitude component is positive."""
    mean1, mean2, mom1, mom2, cross_mat = tables
    s2, s3 = second[:, None], second[:, None, None]
    mean_d, mean_o = np.where(s2, mean2, mean1), np.where(s2, mean1, mean2)
    mom_d, mom_o = np.where(s3, mom2, mom1), np.where(s3, mom1, mom2)
    cross = np.where(s3, cross_mat.swapaxes(1, 2), cross_mat)
    alpha, q = np.linalg.eigh(2.0 * (mom_d - mean_d[:, :, None] * mean_d[:, None]))
    g = e @ (mom_o - mean_o[:, :, None] * mean_o[:, None]) @ e.swapaxes(1, 2)
    b = 2.0 * e @ cross.swapaxes(1, 2) @ q
    m = np.zeros((len(e), 5, 5))
    m[:, [0, 1, 2], [0, 1, 2]] = alpha
    m[:, 3:, :3], m[:, :3, 3:], m[:, 3:, 3:] = b, b.swapaxes(1, 2), 2.0 * g
    # G's lowest eigenvector is w = (cos t, sin t) at 2t = atan2(-2 g01, g11 - g00)
    t = 0.5 * np.arctan2(-2.0 * g[:, 0, 1], g[:, 1, 1] - g[:, 0, 0])
    start = np.zeros((len(e), 5))
    start[:, 0], start[:, 3], start[:, 4] = 1.0, np.cos(t), np.sin(t)
    z = _dual_min(m, 3, start)[0]
    moved = np.flatnonzero((z != start).any(axis=1))
    if moved.size:
        z[moved] = _kkt_newton(m[moved], z[moved])
    z[(z[:, 4] < 0.0) | ((z[:, 4] == 0.0) & (z[:, 3] < 0.0))] *= -1.0
    u = (q @ z[:, :3, None])[:, :, 0]
    v = z[:, 3:4] * e[:, 0] + z[:, 4:] * e[:, 1]
    lead = u[np.arange(len(u)), np.abs(u).argmax(axis=1)]
    decoupled = np.abs(b).max(axis=(1, 2)) <= _TIE_TOL * np.abs(m).sum(axis=(1, 2))
    u[decoupled & (lead < 0.0)] *= -1.0
    return np.where(s2, v, u), np.where(s2, u, v)


def _kkt_newton(m: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Two Newton steps on the KKT system (M - L) z = 0, |y| = |w| = 1 in
    (z, l1, l2), L = diag(l1, l1, l1, l2, l2), from feasible points z (N, 5)
    of 5x5 rows M (y the first three coordinates, l1 = y.(Mz)_y and l2 =
    w.(Mz)_w), solved by the eigenpairs of its symmetric 7x7 matrix.  A
    dual solve's point is within 1e-12 of sum|M| in value, so about 1e-6 in
    position, and each step squares that error.  A row keeps a step, with y
    and w normalized, where it is finite and raises z.M.z by no more than
    _TIE_TOL of sum|M|."""
    tie = _TIE_TOL * np.abs(m).sum(axis=(1, 2))
    k = np.zeros((len(z), 7, 7))
    k[:, :5, :5] = m
    for _ in range(2):
        mz = (m @ z[:, :, None])[:, :, 0]
        lag = np.repeat(np.add.reduceat(z * mz, [0, 3], axis=1), [3, 2], axis=1)
        k[:, range(5), range(5)] = m[:, range(5), range(5)] - lag
        k[:, :3, 5] = k[:, 5, :3] = -z[:, :3]
        k[:, 3:5, 6] = k[:, 6, 3:5] = -z[:, 3:]
        lam, vec = np.linalg.eigh(k)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            coef = ((lag * z - mz)[:, None] @ vec[:, :5])[:, 0] / lam
            step = z + (vec[:, :5] @ coef[:, :, None])[:, :, 0]
            new = np.concatenate([step[:, :3] / np.linalg.norm(step[:, :3], axis=1)[:, None],
                                  step[:, 3:] / np.linalg.norm(step[:, 3:], axis=1)[:, None]], axis=1)
            keep = np.einsum("ni,nij,nj->n", new, m, new) <= (z * mz).sum(axis=1) + tie
        z = np.where((keep & np.isfinite(new).all(axis=1))[:, None], new, z)
    return z


def _frame_from_transverse(n_dir: np.ndarray | None, t: np.ndarray) -> Frame:
    """Frame whose n_perp is the transverse direction t.

    When the mean direction n_dir is known it becomes the frame's n and the
    triad is completed right-handed; for a degenerate subsystem an arbitrary
    completion around t is used.
    """
    t = t / _length(t)
    if n_dir is None:
        h = build_frame(t).n_perp
        return Frame._trusted(cross3(t.tolist(), h.tolist()), t, h)
    n = n_dir / _length(n_dir)
    # remove any rounding component of t along n so the triad is exact
    t = t - float(t @ n) * n
    t = t / _length(t)
    return Frame._trusted(n, t, cross3(n.tolist(), t.tolist()))


def _aligned_frame(direction: np.ndarray, gauge: str) -> Frame:
    if gauge == "xz" or (gauge == "auto" and _in_xz(*direction.tolist()[1:])):
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
        d1 = None if 1 in degenerate else mom.mean1 / mom.mag1
        d2 = None if 2 in degenerate else mom.mean2 / mom.mag2
        if not degenerate:
            base1, base2 = build_frame(d1), build_frame(d2)
            a1, b1, a2, b2 = base1.n_perp, base1.n_perp2, base2.n_perp, base2.n_perp2
            coef = _harmonics(mom.mom1, mom.mom2, mom.cross_mat, np.array([a1, b1]),
                              np.array([a2, b2]))
            ((cs, ss, ct, st),) = _plane_plane_min(coef[None]).tolist()
            # cs * a1 + ss * b1 on floats: the same products and sums
            u = np.array([cs * x + ss * y for x, y in zip(a1.tolist(), b1.tolist())])
            v = np.array([ct * x + st * y for x, y in zip(a2.tolist(), b2.tolist())])
        else:
            base = build_frame(d1 if d2 is None else d2)
            tables = (mom.mean1, mom.mean2, mom.mom1, mom.mom2, mom.cross_mat)
            u, v = (x[0] for x in _sphere_circle([t[None] for t in tables], np.array([d2 is None]),
                                                 np.array([[base.n_perp, base.n_perp2]])))
        frame1, frame2 = _frame_from_transverse(d1, u), _frame_from_transverse(d2, v)
        u, v = frame1.n_perp, frame2.n_perp
    else:
        raise TypeError(f"unknown frame policy {policy!r}")

    xi, var1, var2, cross = mom.xi_parts(u, v)
    if not math.isfinite(xi):  # the engine's frames are not checked, so a nan shows here
        raise ValueError(f"non-finite xi {xi} under {policy!r}")
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


def _aligned_n_perp(mean: np.ndarray, mag: np.ndarray, gauge: str) -> np.ndarray:
    """MeanSpinAligned's n_perp (N, 3) for mean spins (N, 3) of lengths mag,
    as _aligned_frame builds it, and the lab frame's where the mean spin
    vanishes; the "xz" gauge raises build_frame_xz's ValueError for a row
    outside the x-z half-plane."""
    live = mag >= DEGENERATE_MEAN_SPIN
    d = mean / np.where(live, mag, 1.0)[:, None]
    xz = live & (in_xz_half_plane(d) if gauge == "auto" else gauge == "xz")
    out = np.tile(_LAB_N_PERP, (len(d), 1))
    out[xz] = frame_bases_xz(d[xz])[:, 0]
    out[live & ~xz] = frame_bases(d[live & ~xz])[:, 0]
    return out


# cells per xi_batch call of the grid scans: two_stage_minimum and sweep
_BLOCK_CELLS = 512


def block_cells(cells: int, row: int) -> list[slice]:
    """The xi_batch blocks of a grid of ``cells`` cells whose first-axis
    rows hold ``row`` cells: as many whole rows as fit in _BLOCK_CELLS or,
    when a row is longer, _BLOCK_CELLS cells."""
    step = _BLOCK_CELLS // row * row or _BLOCK_CELLS
    return [slice(lo, min(lo + step, cells)) for lo in range(0, cells, step)]


def xi_batch(c: np.ndarray, policy: FramePolicy | None = None) -> np.ndarray:
    """xi for a stack of normalized amplitude matrices (N, 3, 3) under any
    frame policy (default Optimized()), nan where undefined; equal to
    squeezing_report(CoupledState(c[k]), policy).xi to 1e-12 relative (the
    last bits can differ).  Moments and xi are evaluated for all rows at
    once, along the Fixed frames' n_perp, MeanSpinAligned's vectorized gauge
    (an "xz" row outside the half-plane raises build_frame_xz's ValueError)
    or the directions of _plane_plane_min, whose open rows share one dual
    solve.  Rows with one vanishing mean spin take MeanSpinAligned's lab
    n_perp on that side, or share one _sphere_circle call under Optimized;
    rows with two are nan.  No row goes through squeezing_report.
    Memory is linear in N, about 1.5 KB per state under Optimized plus a
    fixed 0.4 MB, so every grid caller (Family.xi_grid, trajectory and
    two_stage_minimum) passes blocks of at most _BLOCK_CELLS = 512 states,
    cut by block_cells: about 1 MB of work space per call.
    """
    if policy is None:
        policy = Optimized()
    if not isinstance(policy, (Fixed, MeanSpinAligned, Optimized)):
        raise TypeError(f"unknown frame policy {policy!r}")
    c = np.asarray(c, dtype=complex).reshape(-1, 3, 3)
    if not np.all(np.abs(np.linalg.norm(c.reshape(-1, 9), axis=1) - 1.0) <= NORM_TOL):
        raise ValueError("xi_batch requires normalized amplitudes")
    tables = moment_tables(c)
    mags = np.linalg.norm(tables[0], axis=1), np.linalg.norm(tables[1], axis=1)
    deg1, deg2 = (mag < DEGENERATE_MEAN_SPIN for mag in mags)

    def variance(mom, mean, d):
        # as Moments.variance, including its clamp of roundoff below 0
        var = np.einsum("ni,nij,nj->n", d, mom, d) - np.einsum("ni,ni->n", mean, d) ** 2
        return np.where((var < 0.0) & (var >= -1e-12), 0.0, var)

    xi = np.full(len(c), np.nan)
    # the plane-plane rows, then those with one degenerate subsystem
    for rows in (np.flatnonzero(~(deg1 | deg2)), np.flatnonzero(deg1 != deg2)):
        if not rows.size:
            continue
        mean1, mean2, m1, m2, cm = (t[rows] for t in tables)
        mag1, mag2 = (mag[rows] for mag in mags)
        if isinstance(policy, Fixed):
            u = np.broadcast_to(policy.frame1.n_perp, mean1.shape)
            v = np.broadcast_to(policy.frame2.n_perp, mean2.shape)
        elif isinstance(policy, MeanSpinAligned):
            u, v = (_aligned_n_perp(mean, mag, policy.gauge)
                    for mean, mag in ((mean1, mag1), (mean2, mag2)))
        elif deg1[rows[0]] or deg2[rows[0]]:
            second = deg2[rows]
            e = frame_bases(np.where(second[:, None], mean1, mean2))
            u, v = _sphere_circle((mean1, mean2, m1, m2, cm), second, e)
        else:
            e1, e2 = frame_bases(mean1 / mag1[:, None]), frame_bases(mean2 / mag2[:, None])
            z = _plane_plane_min(_harmonics(m1, m2, cm, e1, e2))
            u = z[:, :1] * e1[:, 0] + z[:, 1:2] * e1[:, 1]
            v = z[:, 2:3] * e2[:, 0] + z[:, 3:] * e2[:, 1]
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
    mean, mom, mag = moments.mean1, moments.mom1, moments.mag1
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
#
# Each closed form takes scalars or arrays of parameters (of one shape, or
# broadcasting).  At scalars it returns a float and raises
# ZeroDenominatorError where its denominator vanishes; at arrays it returns
# an array, nan there.  Array elements equal the scalar results bit for bit:
# numpy's real arithmetic, cos and sqrt round as Python's and math's do, and
# the complex arithmetic of xi_config3 is spelled out in _PyComplex.


def _denominator(den, tol: float, what: str):
    """den, nan where den <= tol; at a scalar den raises
    ZeroDenominatorError(what) there instead."""
    undefined = den <= tol
    if np.ndim(den) == 0:
        if undefined:
            raise ZeroDenominatorError(what)
        return den
    return np.where(undefined, np.nan, den)


def _value(x):
    """A closed form's result: a float at scalar parameters, else the array."""
    return float(x) if np.ndim(x) == 0 else x


class _PyComplex:
    """Complex numbers held as arrays of real and imaginary parts and
    combined as Python combines complex numbers, so an array of them rounds
    element by element like the Python scalars.  numpy's own complex
    product, complex-by-real quotient and abs do not: they differ in the
    last bit for about a third of random operands."""

    __slots__ = ("re", "im")

    def __init__(self, re, im=0.0):
        self.re, self.im = re, im

    @classmethod
    def of(cls, z) -> "_PyComplex":
        z = complex(z) if np.ndim(z) == 0 else np.asarray(z, dtype=complex)
        return cls(z.real, z.imag)

    def __add__(self, w):
        return _PyComplex(self.re + w.re, self.im + w.im)

    def __sub__(self, w):
        return _PyComplex(self.re - w.re, self.im - w.im)

    def __mul__(self, w):
        return _PyComplex(self.re * w.re - self.im * w.im, self.re * w.im + self.im * w.re)

    def __rmul__(self, x: float):
        # Python promotes the real factor to complex(x, 0.0)
        return _PyComplex(x) * self

    def __abs__(self):
        return np.hypot(self.re, self.im)


# x ** 2 as Python's float power (the C library's pow) rounds it; numpy's
# ** 2 is x * x, which differs in the last bit for about 1 value in 1,200
_POW2 = np.frompyfunc(lambda x: x ** 2, 1, 1)


def xi_product_pair(theta1, theta2):
    """Closed form for canonical_squeezed(theta1) x canonical_squeezed(theta2):

        xi = [ (1+cos t1)/(3+cos t1) + (1+cos t2)/(3+cos t2) ]
             / [ |sqrt(2(1+cos t1))/(3+cos t1)| + |sqrt(2(1+cos t2))/(3+cos t2)| ]
    """
    c1, c2 = np.cos(theta1), np.cos(theta2)
    num = (1.0 + c1) / (3.0 + c1) + (1.0 + c2) / (3.0 + c2)
    den = abs(np.sqrt(2.0 * (1.0 + c1)) / (3.0 + c1)) + abs(
        np.sqrt(2.0 * (1.0 + c2)) / (3.0 + c2)
    )
    return _value(num / _denominator(den, 1e-300, "mean-spin lengths vanish for these angles"))


def xi_coherent_times_squeezed(theta):
    """Closed form for coherent(m=+1) x canonical_squeezed(theta):

        xi = [ 1 + (1+cos t)/(3+cos t) ] / [ 1 + |sqrt(2(1+cos t))/(3+cos t)| ]
    """
    ct = np.cos(theta)
    num = 1.0 + (1.0 + ct) / (3.0 + ct)
    den = 1.0 + abs(np.sqrt(2.0 * (1.0 + ct)) / (3.0 + ct))
    return _value(num / den)


def xi_config1(c11, c22, c33):
    """Closed form for the diagonal configuration (c11, c22, c33):

        xi = [ c11^2 + 2 c22^2 + c33^2 - 2 (c11 c22 - c22 c33) ] / |c11^2 - c33^2|
    """
    den = _denominator(abs(c11 * c11 - c33 * c33), 1e-12, "|c11^2 - c33^2| vanishes")
    num = c11 * c11 + 2.0 * c22 * c22 + c33 * c33 - 2.0 * (c11 * c22 - c22 * c33)
    return _value(num / den)


def xi_config2(c11, c13, c22):
    """Closed form for the configuration (c11, c13, c22):

        xi = [ c11^2 + c13^2 + 2 c22^2 - c11 c13 + 2 c13 c22 - 2 c22 c11 ]
             / [ |c11^2 + c13^2| + |c11^2 - c13^2| ]
    """
    den = _denominator(abs(c11 * c11 + c13 * c13) + abs(c11 * c11 - c13 * c13), 1e-12,
                       "mean-spin lengths vanish")
    num = (
        c11 * c11
        + c13 * c13
        + 2.0 * c22 * c22
        - c11 * c13
        + 2.0 * c13 * c22
        - 2.0 * c22 * c11
    )
    return _value(num / den)


def xi_config3(c12, c21, c23):
    """Closed form for the configuration (c12, c21, c23):

        xi = [ 3 c12^2 + 3 c21^2 + 3 c23^2 - 2 c21 c23 + 4 c12 c21 - 4 c12 c23 ]
             / [ |c12|^2 + |c21^2 - c23^2| ]

    For complex amplitudes the printed numerator is a complex expression; it
    is evaluated as written and nan is returned when the result has a
    non-negligible imaginary part (recorded as UNDEFINED by the harness).
    """
    c12, c21, c23 = (_PyComplex.of(c) for c in (c12, c21, c23))
    den = _denominator(np.asarray(_POW2(abs(c12)), dtype=float) + abs(c21 * c21 - c23 * c23),
                       1e-12, "mean-spin lengths vanish")
    num = (
        3.0 * c12 * c12
        + 3.0 * c21 * c21
        + 3.0 * c23 * c23
        - 2.0 * c21 * c23
        + 4.0 * c12 * c21
        - 4.0 * c12 * c23
    )
    # Python divides a complex by a real part by part
    re, im = num.re / den, num.im / den
    return _value(np.where(abs(im) > 1e-9 * np.fmax(1.0, abs(re)), np.nan, re))


def _squeezed(theta: float) -> Spin1State:
    # looked up by name at each call, so a wrapper installed on
    # canonical_squeezed after import sees the table's calls too
    return canonical_squeezed(theta)


class GridPointError(ValueError):
    """A state builder rejected a grid point."""


def _built(names, values, builder, *args):
    """builder(*args), its ValueError re-raised as a GridPointError that
    names the grid point."""
    try:
        return builder(*args)
    except ValueError as exc:
        point = " ".join(f"{n}={float(v):.17g}" for n, v in zip(names, values))
        raise GridPointError(f"no state at grid point {point}: {exc}") from None


@dataclass(frozen=True)
class Family:
    """One closed-form state family: what the sweeps, the check report and
    the comparison harness know about it.

    A product family's state is the product of its two ``factors``, each a
    fixed Spin1State or a builder of one from one swept angle; its
    closed-form parameters are the swept angles.  A configuration's
    parameters are ``states.config_amplitudes(config, *cell)`` and its
    state puts them in their slots (``states.config_matrices``).  A grid spec
    has the ``sweep_grid`` form.
    """

    name: str                             # closed-form family name
    kind: str                             # its ``sweep`` kind
    axes: tuple[str, ...]                 # sweep axes, in CSV column order
    sweep_grid: tuple                     # default (start, stop, count) per leading axis;
                                          # the remaining axes default to [0]
    policy: Callable[[], FramePolicy]     # default frame policy
    closed_form: Callable                 # the literal transcription
    check_grids: tuple                    # the check report's grid specs, in order
    factors: tuple | None = None
    config: int | None = None

    def params(self, *cell) -> tuple:
        """The closed-form parameters at a sweep cell, or at the cells of
        arrays of axis values."""
        return cell if self.config is None else config_amplitudes(self.config, *cell)

    def state(self, params: tuple) -> CoupledState:
        """The coupled state at closed-form parameters ``params``."""
        if self.config is not None:
            return CoupledState.normalized(config_matrices(self.config, params))
        swept = iter(params)
        return product(*(f if isinstance(f, Spin1State) else f(next(swept))
                         for f in self.factors))

    def closed(self, params: tuple):
        """The closed form at ``params``, nan where its denominator vanishes:
        a float at scalar parameters, an array at arrays of them."""
        try:
            return self.closed_form(*params)
        except ZeroDenominatorError:
            return float("nan")

    def axis_grids(self, spec: tuple) -> list[np.ndarray]:
        """One array of values per axis for a grid spec."""
        return [np.linspace(*d) for d in spec] + [np.zeros(1)] * (len(self.axes) - len(spec))

    def cell_blocks(self, grids):
        """The normalized amplitude stacks (M, 3, 3) of the cells of the
        grid ``grids`` (one array per axis) in row-major order, in the
        xi_batch blocks of block_cells.  Product states are broadcast outer
        products of one amplitude table per factor, as states.product forms
        them; configurations are built on each block's axis arrays.  A grid
        point that a builder rejects raises GridPointError."""
        shape = tuple(len(g) for g in grids)
        if self.config is None:
            tables, swept = [], iter(zip(self.axes, grids))
            for f in self.factors:
                if isinstance(f, Spin1State):
                    tables.append(f.amps[None])
                else:
                    name, grid = next(swept)
                    tables.append(np.array([_built((name,), (t,), f, t).amps for t in grid]))
            left, right = tables
        for block in block_cells(math.prod(shape), math.prod(shape[1:])):
            index = np.arange(block.start, block.stop)
            if self.config is None:
                i, j = np.divmod(index, len(right))
                yield left[i, :, None] * right[j, None, :]
                continue
            cell = [g[k] for g, k in zip(grids, np.unravel_index(index, shape))]
            c = config_matrices(self.config, config_amplitudes(self.config, *cell))
            # CoupledState.normalized's norm, bit for bit: np.linalg.norm per
            # row (its axis form and a sum of squares round differently)
            norms = np.array([np.linalg.norm(a) for a in c])
            bad = np.flatnonzero(norms < NORM_TOL)
            if bad.size:  # the scalar builder raises its error for the first
                _built(self.axes, [g[bad[0]] for g in cell], CoupledState.normalized, c[bad[0]])
            yield c / norms[:, None, None]

    def xi_grid(self, grids, policy: FramePolicy) -> tuple[np.ndarray, np.ndarray]:
        """(engine xi, closed-form xi) per cell of the grid ``grids`` in
        row-major order: xi_batch on each block of cell_blocks, and the
        closed form once, on the axis arrays broadcast against each other."""
        engine = np.concatenate([xi_batch(b, policy) for b in self.cell_blocks(grids)])
        return engine, self.closed(self.params(*np.ix_(*grids))).ravel()


_THETA_AXIS = (0.05, 3.1, 50)
_CHECK_AB = ((0.1, 3.0, 15),) * 2

# A new family is one row here.
FAMILIES = {f.name: f for f in (
    Family("product_pair", "product", ("theta1", "theta2"), (_THETA_AXIS,) * 2,
           MeanSpinAligned, xi_product_pair, (((0.1, 3.0, 30),) * 2,),
           factors=(_squeezed, _squeezed)),
    Family("coherent_squeezed", "mixed", ("theta",), ((0.0, math.pi, 200),),
           MeanSpinAligned, xi_coherent_times_squeezed, (((0.05, 3.1, 100),),),
           factors=(Spin1State.basis(1), _squeezed)),
    Family("config1", "config1", ("alpha", "beta"), (_THETA_AXIS,) * 2,
           Optimized, xi_config1, (_CHECK_AB,), config=1),
    Family("config2", "config2", ("alpha", "beta"), (_THETA_AXIS,) * 2,
           Optimized, xi_config2, (_CHECK_AB,), config=2),
    # two check grids: the phase pairs (0, 0) and (0.7, 1.9)
    Family("config3", "config3", ("alpha", "beta", "phi1", "phi2"), (_THETA_AXIS,) * 2,
           Optimized, xi_config3,
           (((0.1, 3.0, 12),) * 2, ((0.1, 3.0, 12),) * 2 + ((0.7, 0.7, 1), (1.9, 1.9, 1))),
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


def _record(family: str, params: tuple, closed: float, engine: float) -> DiscrepancyRecord:
    """A comparison row: UNDEFINED where either value is nan, else MATCH or
    MISMATCH by MATCH_TOL on their difference."""
    if math.isnan(closed) or math.isnan(engine):
        return DiscrepancyRecord(family, params, closed, engine, float("nan"), "UNDEFINED")
    diff = abs(closed - engine)
    return DiscrepancyRecord(family, params, closed, engine, diff,
                             "MATCH" if diff <= MATCH_TOL else "MISMATCH")


def compare_closed_forms(family: str, params: tuple, policy: FramePolicy) -> DiscrepancyRecord:
    """One engine-versus-closed-form comparison row: the one-cell case of
    run_standard_comparisons."""
    fam = _family(family)
    report = squeezing_report(fam.state(params), policy)
    return _record(family, params, fam.closed(params), report.xi if report.valid else math.nan)


def standard_comparison_grids() -> dict[str, list[tuple]]:
    """Canonical parameter grids for the discrepancy report (deterministic):
    the cells of each family's check grids as closed-form parameters."""
    return {f.name: [f.params(*cell) for spec in f.check_grids
                     for cell in itertools.product(*(g.tolist() for g in f.axis_grids(spec)))]
            for f in FAMILIES.values()}


def run_standard_comparisons() -> dict[str, list[DiscrepancyRecord]]:
    """Run the full engine-versus-closed-form comparison over the canonical
    grids, each family's check grids through Family.xi_grid under its
    default policy; returns records per family."""
    out: dict[str, list[DiscrepancyRecord]] = {}
    for family, params in standard_comparison_grids().items():
        fam = FAMILIES[family]
        tables = [fam.xi_grid(fam.axis_grids(spec), fam.policy()) for spec in fam.check_grids]
        engine, closed = (np.concatenate(t).tolist() for t in zip(*tables))
        out[family] = [_record(family, *row) for row in zip(params, closed, engine)]
    return out


def family_summary(records: list[DiscrepancyRecord]) -> tuple[str, float, int]:
    """(flag, max abs_diff over defined rows, defined-row count) for a family."""
    diffs = [r.abs_diff for r in records if r.flag != "UNDEFINED"]
    if not diffs:
        return "UNDEFINED", float("nan"), 0
    max_diff = max(diffs)
    flag = "MATCH" if max_diff <= MATCH_TOL else "MISMATCH"
    return flag, max_diff, len(diffs)
