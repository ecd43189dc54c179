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

``xi_oracle`` evaluates the same quantity another way: mean spins from
reduced density matrices, and the numerator as the squared norm of one
transformed amplitude matrix, with its own inline spin entries in plain
Python complex arithmetic.  It shares no linear algebra with the engine and
exists to cross-check it.

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

from .spin import (Frame, _direction, _dot3, _in_xz, _triad, build_frame, build_frame_xz, cross3,
                   frame_bases, frame_bases_xz, moment_tables)
from .states import (NORM_TOL, CoupledState, Spin1State, _norms, canonical_squeezed,
                     config_amplitudes, config_matrices, product)

DEGENERATE_MEAN_SPIN = 1e-9
MATCH_TOL = 1e-10
_TIE_TOL = 1e-14

_ZHAT = np.array([0.0, 0.0, 1.0])
# degenerate_subsystems at [<S1> vanishes] + 2 [<S2> vanishes], shared by all reports
_DEGENERATE = (frozenset(), frozenset({1}), frozenset({2}), frozenset({1, 2}))


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

    def __post_init__(self):
        if not (isinstance(self.frame1, Frame) and isinstance(self.frame2, Frame)):
            raise TypeError("Fixed takes two Frame objects")


@dataclass(frozen=True)
class MeanSpinAligned:
    """Frames built from the normalized mean-spin directions: build_frame_xz
    where the direction lies in the x-z half-plane, build_frame elsewhere.
    A degenerate subsystem (vanishing mean spin) gets the lab frame (n = z).
    For one fixed gauge, pass its frames to Fixed: Fixed(build_frame_xz(d1),
    build_frame_xz(d2)).
    """


@dataclass(frozen=True)
class Optimized:
    """Minimize xi over transverse directions: a certified global minimum,
    with no parameters.

    The numerator is z.M.z in z = (u, v) on |u| = |v| = 1, u and v in the
    transverse planes (u on the whole sphere for a subsystem whose mean
    spin vanishes), and the Lagrangian dual bound, max over delta of
    delta + 2 lambda_min(M - delta diag(I_u, 0)), equals its minimum.  A
    plane-plane row starts at the first minimum of a 32-point grid per
    angle (ties within 1e-14 go to the lowest angles; it has s < pi, as
    (s, t) -> (s + pi, t + pi) leaves the numerator as it is), polished by
    Newton steps of at most pi/8 (two cells), and stands when a
    closed-form test puts it within 1e-12 of M's scale of the bound; where
    several points attain the minimum, the frames are those of the point
    Newton reaches from that grid start.  A sphere-circle row starts at the
    separable point of each side's least-variance direction, the answer
    where the cross block B vanishes.  Every other row goes to one batched
    dual solve, which returns its start if that is within the tolerance,
    else the lowest eigenvector at the optimal delta with u and v normalized
    separately or, if that eigenvalue is repeated, the mixture of its
    eigenvectors with |u| = |v|, polished by Newton steps on its KKT system.
    Every eigensolve on the way is _eigh, np.linalg.eigh's LAPACK gufunc
    called directly: the same bits without the wrapper's cost per call,
    which was most of an eigh on the small matrices here.
    """


FramePolicy = Fixed | MeanSpinAligned | Optimized


# slots, as Frame: callers may keep thousands of reports
@dataclass(frozen=True, slots=True)
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

# 1 on the two diagonal 3x3 blocks of a 6x6 matrix, 0 on the cross blocks
_DIAGONAL_BLOCKS = np.kron(np.eye(2), np.ones((3, 3)))


def _covariance(g: np.ndarray) -> np.ndarray:
    """The numerator matrices Sigma (N, 6, 6) of Gram matrices G (N, 7, 7):
    G[:, 1:, 1:] less m m^T (m = G[:, 0, 1:], the mean spins) on each
    diagonal block, the cross block raw, so that the numerator of xi at unit
    directions z = (u, v) is 2 z.Sigma.z.  One row's products are an outer
    product, the same bits without broadcasting's cost per call."""
    if len(g) == 1:
        m = g[0, 0, 1:]
        return (g[0, 1:, 1:] - _DIAGONAL_BLOCKS * np.multiply.outer(m, m))[None]
    m = g[:, 0, 1:]
    return g[:, 1:, 1:] - _DIAGONAL_BLOCKS * (m[:, :, None] * m[:, None])


class Moments:
    """First and second spin moments of a coupled state.

    mean1/mean2 (the mean-spin vectors), mom1/mom2 (the real symmetric
    matrices Re<(Sk Sl + Sl Sk)/2> per subsystem) and cross_mat (the real
    matrix <Sk (x) Sl>) are blocks of ``gram``, moment_tables' G.  variance
    and cross_correlation read blocks of ``sigma``, _covariance's Sigma,
    which the engine's row functions take whole (both with a leading axis
    of one row).  Together they determine xi for any direction pair, the
    bits of the state's row in any batch.
    """

    __slots__ = ("gram", "sigma", "mean1", "mag1", "mean2", "mag2")

    def __init__(self, state: CoupledState):
        self.gram = g = moment_tables(state.c)
        self.sigma = _covariance(g)
        mean = g[0, 0, 1:].tolist()
        m1, m2 = mean[:3], mean[3:]
        # new arrays, so that the mean spins a report keeps do not hold all of G
        self.mean1, self.mean2 = np.array(m1), np.array(m2)
        self.mag1, self.mag2 = math.sqrt(_dot3(m1, m1)), math.sqrt(_dot3(m2, m2))

    mom1 = property(lambda self: self.gram[0, 1:4, 1:4])
    mom2 = property(lambda self: self.gram[0, 4:, 4:])
    cross_mat = property(lambda self: self.gram[0, 1:4, 4:])

    # (u @ block).dot(v): matmul's product, then the dot of two vectors
    # without matmul's cost per call (the same bits as u @ block @ v)
    def variance(self, subsystem: int, direction: np.ndarray) -> float:
        cov = self.sigma[0, :3, :3] if subsystem == 1 else self.sigma[0, 3:, 3:]
        var = float((direction @ cov).dot(direction))
        if -1e-12 <= var < 0.0:
            var = 0.0
        return var

    def cross_correlation(self, u: np.ndarray, v: np.ndarray) -> float:
        return float((u @ self.sigma[0, :3, 3:]).dot(v))

    def xi_parts(self, u: np.ndarray, v: np.ndarray) -> tuple[float, float, float, float]:
        """(xi, var1, var2, cross) along u and v; xi is nan when both mean
        spins vanish, where it is undefined."""
        var1 = self.variance(1, u)
        var2 = self.variance(2, v)
        cross = self.cross_correlation(u, v)
        if max(self.mag1, self.mag2) < DEGENERATE_MEAN_SPIN:
            return math.nan, var1, var2, cross
        xi = (2.0 * var1 + 2.0 * var2 + 4.0 * cross) / (self.mag1 + self.mag2)
        return xi, var1, var2, cross


def first_min_index(values: np.ndarray, axis: int | None = None):
    """The tie rule of every grid minimum: the index of the first entry
    within 1e-14 of the minimum along ``axis`` (of the flattened array
    when axis is None, whose minimum is argmin's entry, in one cheap pass)."""
    if axis is None:
        low = values.reshape(-1)[values.argmin()]
    else:
        low = np.minimum.reduce(values, axis=axis, keepdims=True)
    return (values <= low + _TIE_TOL).argmax(axis=axis)


_NEWTON_STEPS = 30
# the plane-plane start grid: _GRID angles per circle
_GRID = 32
_CELL = 2.0 * math.pi / _GRID
# Newton's longest step, pi/8 (two grid cells): it decides only how soon a
# row is handed to the dual solve; _certified decides global optimality
_MAX_STEP = math.pi / 8
_GRID_ANGLES = np.arange(_GRID) * _CELL
# coefficient rows per grid product: a (32, _GRID ** 2 / 2) chunk of values
# (128 KB), small enough that OpenBLAS runs the product on one thread
_GRID_CHUNK = 32


def _project(sigma: np.ndarray, f1, f2) -> np.ndarray:
    """2 F Sigma F^T, F = diag(f1, f2), for numerator matrices Sigma (N, 6,
    6) and bases f1 (N, k1, 3), f2 (N, k2, 3) as rows, or for one Sigma (6,
    6) and bases as lists of rows of Python floats with the same products:
    the numerator's matrix in the coordinates (y1, y2) of u = y1.f1 and
    v = y2.f2, exactly symmetric (P + P^T for P = F Sigma F^T)."""
    if isinstance(f1, list):  # 2-D products by dot, matmul's bits without its cost per call
        zero = [0.0] * 3
        f = np.array([a + zero for a in f1] + [zero + a for a in f2])
        p = f.dot(sigma).dot(f.T)
        return p + p.T
    k1 = f1.shape[1]
    f = np.zeros((len(sigma), k1 + f2.shape[1], 6))
    f[:, :k1, :3], f[:, k1:, 3:] = f1, f2
    p = f @ sigma @ f.swapaxes(1, 2)
    return p + p.swapaxes(1, 2)


# The plane-plane numerator.  With u(s) = cos(s) a1 + sin(s) b1 and v(t)
# likewise, z = (cos s, sin s, cos t, sin t), the numerator is const + z.M.z
# for M the projection P on the bases [a1, b1], [a2, b2] (_project's) less
# half of each block's trace on its diagonal, which is
#
#     const + p cos2s + q sin2s + r cos2t + w sin2t
#           + [cos s, sin s] K [cos t, sin t]^T
#
# with (p, q) = ((P00 - P11)/2, P01), (r, w) = ((P22 - P33)/2, P23) and
# K = 2 P[:2, 2:].  A coefficient row is (p, q, r, w, k00, k01, k10, k11),
# and M is rebuilt from it exactly (_plane_matrix).

def _coefficients(p):
    """The coefficient rows (N, 8) of plane-plane projections P (N, 4, 4),
    or one row's as a list from one P as nested lists of Python floats,
    with the same arithmetic."""
    e = p if isinstance(p, list) else p.transpose(1, 2, 0)
    c = [(e[0][0] - e[1][1]) / 2.0, e[0][1], (e[2][2] - e[3][3]) / 2.0, e[2][3],
         2.0 * e[0][2], 2.0 * e[0][3], 2.0 * e[1][2], 2.0 * e[1][3]]
    return c if isinstance(p, list) else np.stack(c, axis=1)


# M = [[p, q, k00/2, k01/2], [q, -p, k10/2, k11/2], [k00/2, k10/2, r, w],
# [k01/2, k11/2, w, -r]]: the coefficient of each flattened entry, and its factor
_M_ENTRIES = np.array([0, 1, 4, 5, 1, 0, 6, 7, 4, 6, 2, 3, 5, 7, 3, 2])
_M_FACTORS = np.array([1.0, 1.0, 0.5, 0.5, 1.0, -1.0, 0.5, 0.5,
                       0.5, 0.5, 1.0, 1.0, 0.5, 0.5, 1.0, -1.0])


def _plane_matrix(coef: np.ndarray) -> np.ndarray:
    """The plane-plane M (N, 4, 4) of coefficient rows (N, 8): each entry
    the bits it has in the projection less the half traces, C-ordered (the
    dual solve's products round by the layout of M)."""
    return (coef.take(_M_ENTRIES, axis=1) * _M_FACTORS).reshape(-1, 4, 4)


# coef @ _GRID_TABLE is the numerator less its constant on the grid's half
# s < pi, row-major in (s, t), which holds the grid's first minimum: the
# mirror (s + pi, t + pi) of a point has its value and comes before it
_GRID_S, _GRID_T = (_GRID_ANGLES[k] for k in np.divmod(np.arange(_GRID * _GRID // 2), _GRID))
_GRID_TABLE = np.stack([f(2.0 * a) for a in (_GRID_S, _GRID_T) for f in (np.cos, np.sin)]
                       + [f(_GRID_S) * g(_GRID_T) for f in (np.cos, np.sin) for g in (np.cos, np.sin)])


def _grid_argmin(coef):
    """Per coefficient row (N, 8), the angles (s, t) of the first _GRID x
    _GRID grid point (row-major) within 1e-14 of the grid minimum, found in
    the half grid s < pi; for one row as a list of floats, as floats (its
    values are the same product, one row of the table)."""
    if isinstance(coef, list):
        i, j = divmod(int(first_min_index(np.array(coef) @ _GRID_TABLE)), _GRID)
        return i * _CELL, j * _CELL
    idx = np.empty(len(coef), dtype=np.intp)
    for lo in range(0, len(coef), _GRID_CHUNK):
        idx[lo:lo + _GRID_CHUNK] = first_min_index(coef[lo:lo + _GRID_CHUNK] @ _GRID_TABLE, axis=1)
    i, j = np.divmod(idx, _GRID)
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


def _newton(c, s: float, t: float):
    """Joint 2-D Newton on the numerator from (s, t).

    Returns the last point and, where Newton converged, the _derivatives
    there, which _certified takes (else None); a step is rejected (None)
    when the Hessian is not positive definite or the step is longer than
    _MAX_STEP, pi/8.
    """
    tol = 1e-15 * sum(map(abs, c))
    for _ in range(_NEWTON_STEPS):
        gs, gt, hss, htt, hst, *_ = d = _derivatives(c, s, t)
        if abs(gs) + abs(gt) <= tol:
            return s, t, d
        det = hss * htt - hst * hst
        if hss <= 0.0 or det <= 0.0:
            return s, t, None
        ds = (hst * gt - htt * gs) / det
        dt = (hst * gs - hss * gt) / det
        if ds * ds + dt * dt > _MAX_STEP * _MAX_STEP:
            return s, t, None
        s, t = s + ds, t + dt
        if abs(ds) + abs(dt) <= 1e-14:
            return s, t, _derivatives(c, s, t)
    return s, t, None


def _newton_rows(c: np.ndarray, s: np.ndarray, t: np.ndarray):
    """_newton on every column of a coefficient table (8, N) at once, with
    its rules and arithmetic: (s, t) arrays and the _derivatives (8, N),
    nan in the columns that did not converge."""
    tol = 1e-15 * sum(map(abs, c))
    s, t = s.copy(), t.copy()
    d = np.full((8, len(s)), np.nan)
    live, stepped = np.arange(len(s)), []
    for _ in range(_NEWTON_STEPS):
        gs, gt, hss, htt, hst, *_ = der = np.array(_derivatives(c[:, live], s[live], t[live]))
        done = np.abs(gs) + np.abs(gt) <= tol[live]
        d[:, live[done]] = der[:, done]
        det = hss * htt - hst * hst
        ok = np.flatnonzero(~done & (hss > 0.0) & (det > 0.0))
        ds = (hst[ok] * gt[ok] - htt[ok] * gs[ok]) / det[ok]
        dt = (hst[ok] * gs[ok] - hss[ok] * gt[ok]) / det[ok]
        step = ds * ds + dt * dt <= _MAX_STEP * _MAX_STEP
        ok, ds, dt = live[ok[step]], ds[step], dt[step]
        s[ok], t[ok] = s[ok] + ds, t[ok] + dt
        small = np.abs(ds) + np.abs(dt) <= 1e-14
        stepped.append(ok[small])
        live = ok[~small]
        if not live.size:
            break
    k = np.concatenate(stepped)
    d[:, k] = _derivatives(c[:, k], s[k], t[k])
    return s, t, d


def _certified(c, d):
    """Whether a stationary point with _derivatives d is the numerator's
    global minimum (a nan column, not converged, is not): the numerator is
    z.M.z in z = (u, v) on |u| = |v| = 1, and the multipliers
    l1 = u.(Mz)_u, l2 = v.(Mz)_v leave M - diag(l1, l1, l2, l2) positive
    semidefinite (weak duality).  That matrix annihilates z; on
    (u_perp, 0), (0, v_perp), (u, -v)/r2 it is half of [[hss, hst, -r2 a],
    [hst, htt, r2 b], [-r2 a, r2 b, -2x]] (r2 = sqrt 2), tested by the Schur
    complement of Newton's Hessian with e = 1e-12/2 of sum|coefficients|
    added to its eigenvalues: a flat valley (singular Hessian) passes, and a
    passing point is within 2 e of the dual bound.  A coefficient row and
    its tuple d, or a table (8, N) and d (8, N)."""
    _, _, hss, htt, hst, x, a, b = d
    e = 0.5e-12 * sum(map(abs, c))
    hss, htt = hss + 2.0 * e, htt + 2.0 * e
    d = hss * htt - hst * hst
    return (hss > 0.0) & (d > 0.0) & ((e - x) * d >= htt * a * a + 2.0 * hst * a * b + hss * b * b)


def _no_convergence(err, flag):
    raise np.linalg.LinAlgError("Eigenvalues did not converge")


# The engine's one entry for real symmetric eigensolves: np.linalg.eigh's
# LAPACK gufunc called directly, the same bits in under half of eigh's time
# on a 3x3 matrix (no wrapper checks, type resolution or result tuple),
# under eigh's errstate, so that where LAPACK fails (an all-nan matrix, for
# one) it raises LinAlgError rather than warn and return nan.  In a numpy
# without that gufunc it is np.linalg.eigh.
try:
    from numpy.linalg._umath_linalg import eigh_lo as _eigh_lo
except ImportError:
    _eigh = np.linalg.eigh
else:
    @np.errstate(call=_no_convergence, invalid="call", over="ignore", divide="ignore", under="ignore")
    def _eigh(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return _eigh_lo(a, signature="d->dd")


# a guard on dual iterations: from any start the test sets need at most 8
_DUAL_STEPS = 60
# _dual_min's D = diag(I_u, 0) by the length nu of u (v has two coordinates)
_DUAL_D = {nu: np.diag(np.arange(nu + 2) < nu) for nu in (2, 3)}


def _dual_min(m: np.ndarray, nu: int, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Global minima of z.M.z over |u| = |v| = 1, z = (u, v) with u the
    first nu coordinates, for symmetric matrices (N, n, n) and feasible
    start points z (N, n): the minimizers and lower bounds within 1e-12 of
    sum|M| of their values.  Each delta bounds from below by phi(delta) =
    delta + 2 lambda_min(M - delta D), D = diag(I_u, 0), and the largest
    bound is the minimum: n >= 3 makes the joint range of z.M.z, |u|^2 and
    |v|^2 convex (B. T. Polyak, JOTA 99, 1998).  delta starts at the start
    point's l1 - l2 (l1 = u.(Mz)_u, l2 = v.(Mz)_v).  Each pass takes one
    _eigh (np.linalg.eigh's gufunc, called directly) of the open rows'
    stack, and a row closes where a point is within the tolerance of phi:
    its start (on the first pass, the certificate of a start already
    optimal), else x with u and v normalized separately, else in the hard
    case (lam0 repeated to half the tolerance) _hard_mixture's.
    An open row steps along the slope g = 1 - 2 |x_u|^2 of the concave phi
    by the shorter of a Newton step on g and the step to where lam0's
    tangent meets another's, or bisects if that crosses half the bracket.
    Each point that moved from its start is polished (_kkt_newton).  A
    row's result is the same bits in any stack.
    """
    dd = _DUAL_D[nu]
    scale = np.abs(m).sum(axis=(1, 2))
    zmz = z * (m @ z[:, :, None])[:, :, 0]
    top = zmz.sum(axis=1)              # the start value, l1 + l2
    delta = 2.0 * zmz[:, :nu].sum(axis=1) - top
    bound = np.empty(len(m))
    start, z = z, z.copy()
    # the open rows: their indices and matrices, start values, tolerances,
    # deltas and brackets [lo, hi] of the maximizing delta
    live, mk, tol, lo, hi = np.arange(len(m)), m, 1e-12 * scale, -4.0 * scale, 4.0 * scale
    for _ in range(_DUAL_STEPS):
        lam, x = _eigh(mk - delta[:, None, None] * dd)
        bound[live] = phi = delta + 2.0 * lam[:, 0]
        stands = top - phi <= tol
        y, done = _unit_within(mk, nu, x[:, :, 0], phi, tol)
        hard = np.flatnonzero(~(stands | done) & (2.0 * (lam[:, 1] - lam[:, 0]) <= tol))
        if hard.size:
            mix = np.array([_hard_mixture(lam[k], x[k], nu, tol[k]) for k in hard])
            y[hard], done[hard] = _unit_within(mk[hard], nu, mix, phi[hard], tol[hard])
        closed = stands | done
        if closed.any():
            done &= ~stands
            z[live[done]] = y[done]
            live, mk, top, tol, delta, lo, hi, lam, x = (
                v[~closed] for v in (live, mk, top, tol, delta, lo, hi, lam, x))
            if not live.size:
                break
        xu = x[:, :nu]
        g0 = (xu[:, :, :1] * xu).sum(axis=1)  # x_0.D.x_j
        gd = (xu * xu).sum(axis=1)            # x_j.D.x_j
        g = 1.0 - 2.0 * g0[:, 0]
        # phi still rises where g > 0: the maximum is above delta
        rise = g > 0.0
        lo, hi = np.where(rise, delta, lo), np.where(rise, hi, delta)
        gaps = np.maximum(lam[:, 1:] - lam[:, :1], 1e-300)
        newton = np.abs(g) / np.maximum(4.0 * (g0[:, 1:] ** 2 / gaps).sum(axis=1), 1e-300)
        sign = np.copysign(1.0, g)
        meet = ((gd[:, 1:] - g0[:, :1]) * sign[:, None] / gaps).max(axis=1)
        stride = np.minimum(newton, 1.0 / np.maximum(meet, 1e-300))
        delta = np.where(stride <= 0.5 * (hi - lo), delta + sign * stride, 0.5 * (lo + hi))
    moved = np.flatnonzero((z != start).any(axis=1))
    if moved.size:
        z[moved] = _kkt_newton(m[moved], z[moved], nu)
    return z, bound


def _unit_within(m: np.ndarray, nu: int, y: np.ndarray, phi: np.ndarray, tol: np.ndarray):
    """Candidate points y (L, n) of open _dual_min rows with u and v
    normalized separately, and whether each is within tol of phi in z.M.z
    (a part of length zero never is), on sums in coordinate order."""
    sq = y * y
    su, sv = np.sqrt(sq[:, :nu].sum(axis=1)), np.sqrt(sq[:, nu:].sum(axis=1))
    y = np.concatenate([y[:, :nu] / np.maximum(su, 1e-300)[:, None],
                        y[:, nu:] / np.maximum(sv, 1e-300)[:, None]], axis=1)
    value = (y * (m * y[:, None]).sum(axis=2)).sum(axis=1)
    return y, (su > 0.0) & (sv > 0.0) & (value - phi <= tol)


def _hard_mixture(lam: np.ndarray, x: np.ndarray, nu: int, tol: float) -> np.ndarray:
    """One row's hard-case candidate, lam0 repeated to half the tolerance
    in the eigenpairs (lam, columns of x) of M - delta D: the mixture of
    its eigenvectors with |u| = |v|, or zero where there is none.  D - I/2
    on the eigenspace has extreme values -a < 0 < b, mixed as
    b^.5 p + a^.5 q."""
    k = np.count_nonzero(2.0 * (lam - lam[0]) <= tol)
    xu = x[:nu, :k]
    val, vec = _eigh((xu[:, :, None] * xu[:, None]).sum(axis=0) - np.eye(k) / 2.0)
    if not val[0] < 0.0 < val[-1]:
        return np.zeros(len(x))
    mix = math.sqrt(val[-1]) * vec[:, 0] + math.sqrt(-val[0]) * vec[:, -1]
    return (x[:, :k] * mix).sum(axis=1)


# plane-plane rows from which Newton and the certificate run on arrays
_BATCH_ROWS = 64


def _plane_plane_min(coef):
    """The numerator's global minimizers z = (cos s, sin s, cos t, sin t)
    (N, 4) for plane-plane coefficient rows (N, 8): grid argmin, joint
    Newton, and the point if _certified proves it global; every other row
    (a rejected step or an unproven point) goes into one _dual_min call on
    its M started there.  Newton and the certificate run per row on floats
    below _BATCH_ROWS rows, on arrays from there on, with the same
    arithmetic; one row given as a list of floats gives its z as one."""
    if isinstance(coef, list):
        s, t, d = _newton(coef, *_grid_argmin(coef))
        z = [math.cos(s), math.sin(s), math.cos(t), math.sin(t)]
        if d is not None and _certified(coef, d):
            return z
        return _dual_min(_plane_matrix(np.array([coef])), 2, np.array([z]))[0][0].tolist()
    s, t = _grid_argmin(coef)
    if len(coef) < _BATCH_ROWS:
        rows = coef.tolist()
        points = [_newton(c, a, b) for c, a, b in zip(rows, s.tolist(), t.tolist())]
        z = np.array([(math.cos(a), math.sin(a), math.cos(b), math.sin(b)) for a, b, _ in points])
        rest = [k for k, (c, (_, _, d)) in enumerate(zip(rows, points))
                if d is None or not _certified(c, d)]
    else:
        table = np.ascontiguousarray(coef.T)
        s, t, d = _newton_rows(table, s, t)
        z = np.stack([np.cos(s), np.sin(s), np.cos(t), np.sin(t)], axis=1)
        rest = np.flatnonzero(~_certified(table, d))
    if len(rest):
        z[rest] = _dual_min(_plane_matrix(coef[rest]), 2, z[rest])[0]
    return z


# One degenerate subsystem d: its direction u runs over the whole sphere and
# the other's v = w0 a + w1 b over its transverse circle.  With Sigma's
# blocks ordered (d, other) and y the coordinates of u in the eigenbasis q of
# A = 2 Sigma_dd, the numerator is z.M.z in z = (y, w) for the projection M
# on q and [a, b], which is [[diag(alpha), B^T], [B, 2 G]]: alpha the
# eigenvalues of A, B = 2 [a, b] C^T q with C the cross block, G the other's
# covariance on [a, b].


# the flat entries of a Sigma with its blocks swapped, one gather for a row or rows
_SWAPPED = np.add.outer(6 * np.r_[3:6, 0:3], np.r_[3:6, 0:3])


def _sphere_circle(sigma, second, e) -> tuple:
    """(u, v) (N, 3) minimizing the numerator, for the numerator matrices
    Sigma (N, 6, 6) of rows with one vanishing mean spin, subsystem 2's
    where ``second`` (N,) is True, and the other subsystem's transverse
    bases e = [a, b] (N, 2, 3) of build_frame.

    Each row starts at the separable point of the lowest eigenvectors of A
    and G, the answer where B vanishes (each entry within _TIE_TOL of
    sum|M|, as for a product with a polar factor): the cross term moves
    z.M.z by at most 2 ||B||, so that point is within 4 ||B|| <= 1e-13 of
    sum|M| of the minimum, and the dual solve would return it unchanged.
    The other rows go to _dual_min.  Signs: w lies on the half-circle of
    angles [0, pi), with (y, w) flipped jointly, and where B vanishes u's
    largest-magnitude component is positive.

    A row's basis q of A is one _eigh (np.linalg.eigh's gufunc without its
    wrapper, whose checks cost more than a 3x3 solve).  One row with e as
    [a, b], lists of floats, and ``second`` a one-entry sequence runs on
    2-D arrays and floats with its row's bits: the B test, the flag and the
    sign rule on Python floats and bools, u and v one row each of floats."""
    if isinstance(e, list):
        s = sigma[0].take(_SWAPPED) if second[0] else sigma[0]
        q = _eigh(s[:3, :3])[1]
        m = _project(s, q.T.tolist(), e)
        r = m.tolist()
        t = 0.5 * np.arctan2(-2.0 * r[3][4], r[4][4] - r[3][3])
        z = [1.0, 0.0, 0.0, float(np.cos(t)), float(np.sin(t))]
        decoupled = max(abs(a) for row in r[3:] for a in row[:3]) <= _TIE_TOL * float(np.abs(m).sum())
        if not decoupled:
            z = _dual_min(m[None], 3, np.array([z]))[0][0].tolist()
        if z[4] < 0.0 or (z[4] == 0.0 and z[3] < 0.0):
            z = [-a for a in z]
        u = (q @ np.array(z)[:3, None])[:, 0].tolist()
        w0, w1 = z[3:]
        v = [w0 * a + w1 * b for a, b in zip(*e)]
        if decoupled and max(u, key=abs) < 0.0:
            u = [-a for a in u]
        return ([v], [u]) if second[0] else ([u], [v])
    # each row's blocks in the order (d, other)
    sigma = np.where(second[:, None, None], sigma.reshape(-1, 36)[:, _SWAPPED], sigma)
    q = _eigh(sigma[:, :3, :3])[1]
    m = _project(sigma, q.swapaxes(1, 2), e)
    # G's lowest eigenvector is w = (cos t, sin t) at 2t = atan2(-2 g01, g11 - g00)
    g = m[:, 3:, 3:]
    t = 0.5 * np.arctan2(-2.0 * g[:, 0, 1], g[:, 1, 1] - g[:, 0, 0])
    z = np.zeros((len(e), 5))
    z[:, 0], z[:, 3], z[:, 4] = 1.0, np.cos(t), np.sin(t)
    decoupled = np.abs(m[:, 3:, :3]).max(axis=(1, 2)) <= _TIE_TOL * np.abs(m).sum(axis=(1, 2))
    rows = np.flatnonzero(~decoupled)
    if rows.size:
        z[rows] = _dual_min(m[rows], 3, z[rows])[0]
    z[(z[:, 4] < 0.0) | ((z[:, 4] == 0.0) & (z[:, 3] < 0.0))] *= -1.0
    u = (q @ z[:, :3, None])[:, :, 0]
    v = z[:, 3:4] * e[:, 0] + z[:, 4:] * e[:, 1]
    lead = u[np.arange(len(u)), np.abs(u).argmax(axis=1)]
    u[decoupled & (lead < 0.0)] *= -1.0
    return np.where(second[:, None], v, u), np.where(second[:, None], u, v)


def _kkt_newton(m: np.ndarray, z: np.ndarray, nu: int) -> np.ndarray:
    """Two Newton steps on the KKT system (M - L) z = 0, |u| = |v| = 1 in
    (z, l1, l2), L = diag(l1 I_u, l2 I_v), from feasible points z (N, n) of
    rows M (N, n, n), u the first nu coordinates (l1 = u.(Mz)_u and l2 =
    v.(Mz)_v), solved by the eigenpairs of its symmetric (n + 2)x(n + 2)
    matrix.  A dual solve's point is within 1e-12 of sum|M| in value, so
    about 1e-6 in position, and each step squares that error.  A row keeps
    a step, with u and v normalized, where it is finite and raises z.M.z by
    no more than _TIE_TOL of sum|M|."""
    n = z.shape[1]
    diag = np.arange(n)
    tie = _TIE_TOL * np.abs(m).sum(axis=(1, 2))
    k = np.zeros((len(z), n + 2, n + 2))
    k[:, :n, :n] = m
    for _ in range(2):
        mz = (m @ z[:, :, None])[:, :, 0]
        lag = np.repeat(np.add.reduceat(z * mz, [0, nu], axis=1), [nu, n - nu], axis=1)
        k[:, diag, diag] = m[:, diag, diag] - lag
        k[:, :nu, n] = k[:, n, :nu] = -z[:, :nu]
        k[:, nu:n, n + 1] = k[:, n + 1, nu:n] = -z[:, nu:]
        lam, vec = _eigh(k)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            coef = ((lag * z - mz)[:, None] @ vec[:, :n])[:, 0] / lam
            step = z + (vec[:, :n] @ coef[:, :, None])[:, :, 0]
            new = np.concatenate([step[:, :nu] / np.linalg.norm(step[:, :nu], axis=1)[:, None],
                                  step[:, nu:] / np.linalg.norm(step[:, nu:], axis=1)[:, None]], axis=1)
            keep = np.einsum("ni,nij,nj->n", new, m, new) <= (z * mz).sum(axis=1) + tie
        z = np.where((keep & np.isfinite(new).all(axis=1))[:, None], new, z)
    return z


def _frame_from_transverse(mean: np.ndarray | None, t) -> Frame:
    """Frame whose n_perp is the transverse direction t (an array or
    Python floats).

    When the mean spin is known its direction becomes the frame's n and the
    triad is completed right-handed; for a degenerate subsystem (mean None)
    the completion around t is build_frame(t)'s n_perp and t x n_perp.
    Built on Python floats but for t.n, whose BLAS dot keeps the frames'
    bits: it is mostly rounding, and _dot3 rounds it otherwise.
    """
    t = _direction(t)
    if mean is None:  # build_frame divides t by its length again
        h = _triad(*_direction(t))[1]
        return Frame._trusted(cross3(t, h), np.array(t), np.array(h))
    n = _direction(mean)
    normal = np.array(n)
    # remove any rounding component of t along n so the triad is exact
    d = float(normal.dot(t))
    t = _direction([a - d * b for a, b in zip(t, n)])
    return Frame._trusted(normal, np.array(t), cross3(n, t))


def _aligned_gauge(mean, mag):
    """MeanSpinAligned's rule, for one mean spin (a 3-vector and its float
    length) or for rows of them ((N, 3) and (N,)): the unit direction, or
    z-hat (where build_frame's gauge is the lab frame) if the mean spin
    vanishes, and whether build_frame_xz's gauge applies, as it does to a
    live direction in the x-z half-plane."""
    live = mag >= DEGENERATE_MEAN_SPIN
    if isinstance(mag, float):
        d = mean / mag if live else _ZHAT
        y, z = d.tolist()[1:]
    else:
        d = np.where(live[:, None], mean / np.where(live, mag, 1.0)[:, None], _ZHAT)
        y, z = d[:, 1], d[:, 2]
    return d, live & _in_xz(y, z)


def _optimized_uv(mean: np.ndarray, sigma: np.ndarray, second):
    """Optimized's directions (u, v), each (N, 3), for the mean spins (N, 6)
    (mean1, mean2 side by side) and numerator matrices Sigma (N, 6, 6) of N
    rows: where both mean spins are nonzero, when ``second`` is None, by
    _plane_plane_min on build_frame's transverse bases; else where one
    vanishes, subsystem 2's where ``second`` (N,) is True, by _sphere_circle.
    squeezing_report passes its one row (``second`` a list of one bool),
    xi_batch each class of its rows; one row, plane-plane or sphere-circle,
    runs on Python floats and 2-D arrays, with the bits of its row, and
    gives u and v as one row each of Python floats."""
    if second is not None:
        if len(mean) == 1:
            w = mean[0].tolist()
            e = list(_triad(*_direction(w[:3] if second[0] else w[3:]))[1:])
        else:
            e = frame_bases(np.where(second[:, None], mean[:, :3], mean[:, 3:]))
        return _sphere_circle(sigma, second, e)
    if len(mean) == 1:
        w = mean[0].tolist()
        (_, a1, b1), (_, a2, b2) = _triad(*_direction(w[:3])), _triad(*_direction(w[3:]))
        p = _project(sigma[0], [a1, b1], [a2, b2]).tolist()
        z = _plane_plane_min(_coefficients(p))
        return ([[z[0] * a + z[1] * b for a, b in zip(a1, b1)]],
                [[z[2] * a + z[3] * b for a, b in zip(a2, b2)]])
    e1, e2 = frame_bases(mean[:, :3]), frame_bases(mean[:, 3:])
    z = _plane_plane_min(_coefficients(_project(sigma, e1, e2)))
    return z[:, :1] * e1[:, 0] + z[:, 1:2] * e1[:, 1], z[:, 2:3] * e2[:, 0] + z[:, 3:] * e2[:, 1]


def squeezing_report(state: CoupledState, policy: FramePolicy | None = None) -> SqueezingReport:
    """Evaluate the coupled squeezing parameter under a frame policy.

    Default policy is Optimized().  When both mean spins vanish the
    denominator is undefined: the report carries xi = nan and valid = False.
    A single degenerate subsystem is flagged but still evaluated (its
    direction search runs over the whole sphere under Optimized, and
    MeanSpinAligned substitutes the lab frame).

    The moments and Optimized's u and v are the bits of the state's row in
    any xi_batch block, on Python floats and 2-D arrays where numpy's cost
    per call would be most of the work.
    """
    if policy is None:
        policy = Optimized()
    mom = Moments(state)
    degenerate = _DEGENERATE[(mom.mag1 < DEGENERATE_MEAN_SPIN) + 2 * (mom.mag2 < DEGENERATE_MEAN_SPIN)]
    valid = len(degenerate) < 2
    if not valid:  # the moments along the lab frame
        frame1 = frame2 = build_frame(_ZHAT)
    elif isinstance(policy, Fixed):
        frame1, frame2 = policy.frame1, policy.frame2
    elif isinstance(policy, MeanSpinAligned):
        frame1, frame2 = ((build_frame_xz if xz else build_frame)(d) for d, xz in
                          (_aligned_gauge(mom.mean1, mom.mag1), _aligned_gauge(mom.mean2, mom.mag2)))
    elif isinstance(policy, Optimized):
        second = [2 in degenerate] if degenerate else None
        u, v = _optimized_uv(mom.gram[:, 0, 1:], mom.sigma, second)
        frame1 = _frame_from_transverse(None if 1 in degenerate else mom.mean1, u[0])
        frame2 = _frame_from_transverse(None if 2 in degenerate else mom.mean2, v[0])
    else:
        raise TypeError(f"unknown frame policy {policy!r}")

    xi, var1, var2, cross = mom.xi_parts(frame1.n_perp, frame2.n_perp)
    # the engine's frames are not checked, so a nan shows here
    if valid and not math.isfinite(xi):
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
        valid=valid,
        degenerate_subsystems=degenerate,
    )


def _aligned_n_perp(mean: np.ndarray, mag: np.ndarray) -> np.ndarray:
    """MeanSpinAligned's n_perp (N, 3) for mean spins (N, 3) of lengths mag."""
    d, xz = _aligned_gauge(mean, mag)
    u = np.empty_like(d)
    for rows, bases in ((xz, frame_bases_xz), (~xz, frame_bases)):
        u[rows] = bases(d[rows])[:, 0]
    return u


# rows per xi_batch block: about 1.8 MB of work space under Optimized
_BLOCK_CELLS = 1024


def _blocks(n: int) -> list[np.ndarray]:
    """The row indices of n rows in xi_batch's blocks: equal blocks of at
    most _BLOCK_CELLS rows, cut as np.array_split cuts them.  The cut bounds
    memory only: a row's xi is the same bits in any block."""
    return np.array_split(np.arange(n), -(-n // _BLOCK_CELLS) or 1)


def xi_batch(c: np.ndarray, policy: FramePolicy | None = None) -> np.ndarray:
    """xi for a stack of normalized amplitude matrices (N, 3, 3) under any
    frame policy (default Optimized()), nan where undefined; equal to
    squeezing_report(CoupledState(c[k]), policy).xi to 1e-12 max(1, |xi|)
    plus a numerator's roundoff, 1e-15 sum|Sigma|, over |<S1>| + |<S2>|
    (the last bits can differ).  Moments and xi are evaluated for all rows
    of a block at once, along the Fixed frames' n_perp, MeanSpinAligned's
    rule on the rows, or the directions of _optimized_uv, whose open
    plane-plane rows share one dual solve and whose rows with one vanishing
    mean spin one _sphere_circle call; rows with two are nan.  No row goes
    through squeezing_report; each numerator is 2 z.Sigma.z at z = (u, v).
    More than _BLOCK_CELLS = 1,024 rows go in the equal blocks of _blocks,
    so under Optimized the traced peak is about 1.8 MB for a full block
    (0.9 MB at 512 rows, 0.4 MB at 128); a row's xi is the same bits in any
    block, alone too.
    """
    if policy is None:
        policy = Optimized()
    if not isinstance(policy, (Fixed, MeanSpinAligned, Optimized)):
        raise TypeError(f"unknown frame policy {policy!r}")
    c = np.asarray(c, dtype=complex).reshape(-1, 3, 3)
    if len(c) > _BLOCK_CELLS:
        return np.concatenate([xi_batch(c[rows], policy) for rows in _blocks(len(c))])
    if not np.all(np.abs(_norms(c.reshape(-1, 9)) - 1.0) <= NORM_TOL):
        raise ValueError("xi_batch requires normalized amplitudes")
    g = moment_tables(c)
    mean, sigma = g[:, 0, 1:], _covariance(g)
    mag1, mag2 = (np.sqrt(_dot3(m, m)) for m in (mean[:, :3].T, mean[:, 3:].T))
    deg1, deg2 = mag1 < DEGENERATE_MEAN_SPIN, mag2 < DEGENERATE_MEAN_SPIN
    xi = np.full(len(c), np.nan)
    # the plane-plane rows, then those with one degenerate subsystem
    plane, sphere = np.flatnonzero(~(deg1 | deg2)), np.flatnonzero(deg1 != deg2)
    for rows, second in ((plane, None), (sphere, deg2[sphere])):
        if not rows.size:
            continue
        if isinstance(policy, Fixed):
            z = np.tile(np.concatenate([policy.frame1.n_perp, policy.frame2.n_perp]), (len(rows), 1))
        elif isinstance(policy, MeanSpinAligned):
            z = np.concatenate([_aligned_n_perp(mean[rows, :3], mag1[rows]),
                                _aligned_n_perp(mean[rows, 3:], mag2[rows])], axis=1)
        else:
            z = np.concatenate(_optimized_uv(mean[rows], sigma[rows], second), axis=1)
        xi[rows] = 2.0 * np.einsum("ni,nij,nj->n", z, sigma[rows], z) / (mag1[rows] + mag2[rows])
    return xi


optimized_xi = xi_batch


# --------------------------------------------------------------------------
# independent oracle
# --------------------------------------------------------------------------

def xi_oracle(state: CoupledState, frame1: Frame, frame2: Frame) -> float:
    """The squeezing parameter from reduced density matrices and one
    transformed amplitude matrix, in plain Python complex arithmetic.

    With A = u.S1 and B = v.S2 for the frames' n_perp directions u and v,
    and C the 3x3 amplitude matrix,

        numerator = 2 |(A (x) 1 + 1 (x) B) psi|^2 - 2 <A>^2 - 2 <B>^2

    which equals 2 Var(A) + 2 Var(B) + 4 <A (x) B> (the cross term raw);
    (A (x) 1 + 1 (x) B) psi is the matrix A C + C B^T.  The mean spins come
    from the entries of rho1 = C C^dagger and rho2 = C^T C^*.  Spin entries
    are written out inline: u.S = ((z, p, 0), (m, 0, p), (0, m, -z)) with
    p, m = (x -/+ i y)/sqrt 2.  No linear-algebra code is shared with the
    engine, whose numerator is a quadratic form in the spin covariance.

    xi is nan where both mean spins are shorter than DEGENERATE_MEAN_SPIN,
    the engine's rule.  A state that is not a CoupledState, or frames that
    are not Frames, raise TypeError.
    """
    if not isinstance(state, CoupledState):
        raise TypeError("xi_oracle takes a CoupledState")
    if not (isinstance(frame1, Frame) and isinstance(frame2, Frame)):
        raise TypeError("xi_oracle takes two Frame objects")
    rows = state.c.tolist()
    cols = list(zip(*rows))
    r = math.sqrt(0.5)

    def mean_spin(c0, c1, c2):
        # <S> from the diagonal of rho and w = <S+>/sqrt 2 off it, the
        # subsystem's index running over c0, c1, c2 (rows of C or of C^T)
        w = sum(a.conjugate() * b + b.conjugate() * c for a, b, c in zip(c0, c1, c2))
        z = sum((a * a.conjugate() - c * c.conjugate()).real for a, c in zip(c0, c2))
        return (2.0 * r * w.real, 2.0 * r * w.imag, z)

    mean1, mean2 = mean_spin(*rows), mean_spin(*cols)
    mag1, mag2 = math.hypot(*mean1), math.hypot(*mean2)
    if max(mag1, mag2) < DEGENERATE_MEAN_SPIN:
        return math.nan

    def spin_along(d, vecs):
        # (d.S) applied to each 3-vector of vecs
        x, y, z = d
        p = complex(r * x, -r * y)
        m = p.conjugate()
        return [(z * a + p * b, m * a + p * c, m * b - z * c) for a, b, c in vecs]

    u, v = frame1.n_perp.tolist(), frame2.n_perp.tolist()
    ac = spin_along(u, cols)  # ac[j][i] = (A C)[i][j]
    cb = spin_along(v, rows)  # cb[i][j] = (C B^T)[i][j]
    norm = sum(abs(ac[j][i] + cb[i][j]) ** 2 for i in range(3) for j in range(3))
    mean_a = u[0] * mean1[0] + u[1] * mean1[1] + u[2] * mean1[2]
    mean_b = v[0] * mean2[0] + v[1] * mean2[1] + v[2] * mean2[2]
    return 2.0 * (norm - mean_a * mean_a - mean_b * mean_b) / (mag1 + mag2)


# --------------------------------------------------------------------------
# single-subsystem criteria
# --------------------------------------------------------------------------

def _min_transverse_variance(s: Spin1State) -> tuple[float, float]:
    """(min in-plane variance, mean-spin length) for one spin-1 state.

    The least eigenvalue of the covariance on the transverse plane, or on
    the whole sphere for zero mean spin.  The moments of s are those of
    subsystem 1 in s (x) |m=+1>.
    """
    moments = Moments(product(s, Spin1State.basis(1)))
    mag = moments.mag1
    # twice the covariance on the whole sphere or on build_frame's plane
    f = np.eye(3) if mag < DEGENERATE_MEAN_SPIN else frame_bases(moments.mean1[None])[0]
    m = _project(moments.sigma, f[None], np.zeros((1, 0, 3)))
    return float(np.linalg.eigvalsh(m[0])[0]) / 2.0, mag


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
# an array, nan there.  Array elements equal the scalar results bit for bit,
# as both go through numpy's array arithmetic: xi_config3 takes scalars as
# one-element arrays, because numpy rounds a product of complex scalars (as
# Python does) otherwise than one of complex arrays.


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
    shape = np.broadcast(c12, c21, c23).shape
    c12, c21, c23 = (np.atleast_1d(np.asarray(c, dtype=complex)) for c in (c12, c21, c23))
    den = _denominator((abs(c12) ** 2 + abs(c21 * c21 - c23 * c23)).reshape(shape),
                       1e-12, "mean-spin lengths vanish")
    num = (
        3.0 * c12 * c12
        + 3.0 * c21 * c21
        + 3.0 * c23 * c23
        - 2.0 * c21 * c23
        + 4.0 * c12 * c21
        - 4.0 * c12 * c23
    ).reshape(shape)
    # part by part: numpy's complex-by-real quotient multiplies by a reciprocal
    re, im = num.real / den, num.imag / den
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
        xi_batch blocks of _blocks.  Product states are broadcast outer
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
        for index in _blocks(math.prod(shape)):
            if self.config is None:
                i, j = np.divmod(index, len(right))
                yield left[i, :, None] * right[j, None, :]
                continue
            cell = [g[k] for g, k in zip(grids, np.unravel_index(index, shape))]
            c = config_matrices(self.config, config_amplitudes(self.config, *cell))
            norms = _norms(c.reshape(-1, 9))
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
