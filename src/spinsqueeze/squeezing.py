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

import functools
import math
from dataclasses import dataclass

import numpy as np

from .spin import SX, SY, SZ, Frame, build_frame, build_frame_xz, cross3, frame_bases
from .states import NORM_TOL, CoupledState, Spin1State, canonical_squeezed, product

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
    """Minimize xi over transverse directions.

    Both mean spins nonzero: the numerator is a trigonometric polynomial in
    the two in-plane angles.  Its minimum on a grid_points x grid_points
    grid (first-minimum tie-break at 1e-14, so equal minima resolve to the
    lexicographically lowest angles) seeds a joint 2-D Newton solve.  A
    step is rejected when the Hessian is not positive definite or the step
    is longer than one grid cell, and that round takes one coordinate-
    descent sweep instead.  The converged point is certified when 256-point
    scans along each angle, the other held fixed, find nothing lower;
    otherwise the search jumps to the lower scan point and polishes again.
    refine_iters caps these rounds.

    A degenerate subsystem: the search runs over its full direction sphere,
    a grid scan followed by coordinate descent with a golden-section line
    search per coordinate, at most refine_iters sweeps.
    """

    grid_points: int = 64
    refine_iters: int = 40

    def __post_init__(self):
        if self.grid_points < 8:
            raise ValueError("grid_points must be >= 8")
        if self.refine_iters < 1:
            raise ValueError("refine_iters must be >= 1")


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
        c = state.c
        r1 = (c @ c.conj().T).reshape(9)
        r2 = (c.T @ c.conj()).reshape(9)
        self.mean1 = (_MEAN_FLAT @ r1).real
        self.mean2 = (_MEAN_FLAT @ r2).real
        self.mag1 = float(np.linalg.norm(self.mean1))
        self.mag2 = float(np.linalg.norm(self.mean2))
        self.mom1 = (_SYM_FLAT @ r1).real.reshape(3, 3)
        self.mom2 = (_SYM_FLAT @ r2).real.reshape(3, 3)
        psi = c.reshape(9)
        big = np.outer(psi, psi.conj()).reshape(81)
        self.cross_mat = (_CROSS_FLAT @ big).real.reshape(3, 3)

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


def moment_tables(c: np.ndarray):
    """The Moments tables for a stack of amplitude matrices (N, 3, 3):
    (mean1, mean2) of shape (N, 3) and (mom1, mom2, cross_mat) of shape
    (N, 3, 3), computed with stacked matrix products."""
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


def _golden_min(f, lo: float, hi: float, tol: float = 1e-12) -> float:
    """Argmin of a unimodal-enough f on [lo, hi] by golden-section search."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    x1 = b - invphi * (b - a)
    x2 = a + invphi * (b - a)
    f1, f2 = f(x1), f(x2)
    while b - a > tol:
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - invphi * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (b - a)
            f2 = f(x2)
    return (a + b) / 2.0


def _first_min_index(values: np.ndarray) -> tuple:
    """Index of the first entry within 1e-14 of the minimum, row-major."""
    flat = values.ravel()
    target = float(flat.min()) + _TIE_TOL
    idx = int(np.argmax(flat <= target))
    return np.unravel_index(idx, values.shape)


def _sphere_dir(theta: np.ndarray, phi: np.ndarray) -> np.ndarray:
    st = np.sin(theta)
    return np.stack([st * np.cos(phi), st * np.sin(phi), np.cos(theta)], axis=-1)


class _PlaneAxis:
    """Transverse circle of one subsystem: d(phi) = cos(phi) a + sin(phi) b."""

    ndim = 1

    def __init__(self, frame: Frame):
        self.a = frame.n_perp
        self.b = frame.n_perp2

    def direction(self, params) -> np.ndarray:
        (phi,) = params
        return math.cos(phi) * self.a + math.sin(phi) * self.b

    def grid(self, n: int) -> list[np.ndarray]:
        return [np.arange(n) * (2.0 * math.pi / n)]

    def directions_grid(self, grids) -> np.ndarray:
        (phi,) = grids
        return np.outer(np.cos(phi), self.a) + np.outer(np.sin(phi), self.b)

    def bracket(self, k: int, center: float, span: float) -> tuple[float, float]:
        return center - span, center + span


class _SphereAxis:
    """Full direction sphere, parametrized (theta, phi)."""

    ndim = 2

    def direction(self, params) -> np.ndarray:
        theta, phi = params
        return _sphere_dir(np.asarray(theta), np.asarray(phi))

    def grid(self, n: int) -> list[np.ndarray]:
        return [np.linspace(0.0, math.pi, n), np.arange(n) * (2.0 * math.pi / n)]

    def directions_grid(self, grids) -> np.ndarray:
        theta, phi = np.meshgrid(grids[0], grids[1], indexing="ij")
        return _sphere_dir(theta, phi).reshape(-1, 3)

    def bracket(self, k: int, center: float, span: float) -> tuple[float, float]:
        if k == 0:  # polar angle stays in [0, pi]
            return max(0.0, center - span), min(math.pi, center + span)
        return center - span, center + span


_SCAN = np.arange(256) * (2.0 * math.pi / 256)
# f(x) = p2 cos2x + q2 sin2x + a cos x + b sin x on the scan is this table
# times (p2, q2, a, b)
_SCAN_HARM = np.stack([np.cos(2.0 * _SCAN), np.sin(2.0 * _SCAN), np.cos(_SCAN), np.sin(_SCAN)],
                      axis=1)
_SCAN_STEP = 2.0 * math.pi / 256

_NEWTON_STEPS = 30
# grid rows evaluated per chunk: bounds the (rows, n, n) value table
_GRID_CHUNK = 8


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


@functools.lru_cache(maxsize=8)
def _grid_harmonics(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Grid angles and their harmonics [cos, sin, cos2, sin2, 1] (n, 5)."""
    ang = np.arange(n) * (2.0 * math.pi / n)
    harm = np.stack([np.cos(ang), np.sin(ang), np.cos(2.0 * ang), np.sin(2.0 * ang),
                     np.ones(n)], axis=1)
    ang.flags.writeable = harm.flags.writeable = False
    return ang, harm


def _grid_argmin(coef: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Per coefficient row, the angles (s, t) of the first n x n grid point
    (row-major) within 1e-14 of the grid minimum."""
    ang, harm = _grid_harmonics(n)
    idx = np.empty(len(coef), dtype=np.intp)
    vals = np.empty((min(len(coef), _GRID_CHUNK), n, n))
    for lo in range(0, len(coef), _GRID_CHUNK):
        c = coef[lo:lo + _GRID_CHUNK]
        # value[i, j] = harm[i] . M . harm[j] with the row's 5x5 matrix M
        m = np.zeros((len(c), 5, 5))
        m[:, :2, :2] = c[:, 4:].reshape(-1, 2, 2)
        m[:, 2:4, 4] = c[:, 0:2]
        m[:, 4, 2:4] = c[:, 2:4]
        flat = np.matmul(harm, m @ harm.T, out=vals[:len(c)]).reshape(len(c), n * n)
        target = flat.min(axis=1, keepdims=True) + _TIE_TOL
        idx[lo:lo + len(c)] = np.argmax(flat <= target, axis=1)
    i, j = np.divmod(idx, n)
    return ang[i], ang[j]


def _section_min(p2, q2, a_, b_) -> tuple[float, float]:
    """(x, f(x)) at the lowest of the 256 scan points of
    f(x) = p2 cos2x + q2 sin2x + a_ cos x + b_ sin x."""
    vals = _SCAN_HARM @ (p2, q2, a_, b_)
    k = vals.argmin()
    return float(_SCAN[k]), float(vals[k])


def _remin(p2, q2, a_, b_) -> float:
    """Global argmin of f(x) = p2 cos2x + q2 sin2x + a_ cos x + b_ sin x:
    dense scan for the basin, then Newton on f' (golden section if the local
    curvature is unusable)."""
    x, _ = _section_min(p2, q2, a_, b_)
    scale = abs(p2) + abs(q2) + abs(a_) + abs(b_) + 1e-300
    for _ in range(30):
        s2, c2 = math.sin(2.0 * x), math.cos(2.0 * x)
        s1, c1 = math.sin(x), math.cos(x)
        d1 = -2.0 * p2 * s2 + 2.0 * q2 * c2 - a_ * s1 + b_ * c1
        d2 = -4.0 * p2 * c2 - 4.0 * q2 * s2 - a_ * c1 - b_ * s1
        if d2 <= 0.0:
            break
        step = d1 / d2
        if abs(step) > _SCAN_STEP:
            break
        x -= step
        if abs(step) <= 1e-14 or abs(d1) <= 1e-15 * scale:
            return x

    def f(y):
        return (p2 * math.cos(2.0 * y) + q2 * math.sin(2.0 * y)
                + a_ * math.cos(y) + b_ * math.sin(y))
    return _golden_min(f, x - _SCAN_STEP, x + _SCAN_STEP, tol=1e-12)


def _scale(c) -> float:
    """Size of a coefficient row: the sum of absolute coefficients."""
    return sum(map(abs, c))


def _newton(c, s: float, t: float, cell: float) -> tuple[float, float, bool]:
    """Joint 2-D Newton on the numerator from (s, t).

    Returns the last point and whether it converged; a step is rejected
    (converged False) when the Hessian is not positive definite or the step
    is longer than one grid cell.
    """
    p, q, r, w, k00, k01, k10, k11 = c
    tol = 1e-15 * _scale(c)
    for _ in range(_NEWTON_STEPS):
        cs, ss, ct, st = math.cos(s), math.sin(s), math.cos(t), math.sin(t)
        c2s, s2s = cs * cs - ss * ss, 2.0 * ss * cs
        c2t, s2t = ct * ct - st * st, 2.0 * st * ct
        ka, kb = k00 * ct + k01 * st, k10 * ct + k11 * st
        kat, kbt = k01 * ct - k00 * st, k11 * ct - k10 * st
        x = cs * ka + ss * kb
        gs = 2.0 * (q * c2s - p * s2s) + cs * kb - ss * ka
        gt = 2.0 * (w * c2t - r * s2t) + cs * kat + ss * kbt
        if abs(gs) + abs(gt) <= tol:
            return s, t, True
        hss = -4.0 * (p * c2s + q * s2s) - x
        htt = -4.0 * (r * c2t + w * s2t) - x
        hst = cs * kbt - ss * kat
        det = hss * htt - hst * hst
        if hss <= 0.0 or det <= 0.0:
            return s, t, False
        ds = (hst * gt - htt * gs) / det
        dt = (hst * gs - hss * gt) / det
        if ds * ds + dt * dt > cell * cell:
            return s, t, False
        s, t = s + ds, t + dt
        if abs(ds) + abs(dt) <= 1e-14:
            return s, t, True
    return s, t, False


def _section_jump(c, s: float, t: float) -> tuple[float, float] | None:
    """The certificate: scan the numerator over s at fixed t, then over t
    at fixed s (256 points each).  Returns a scan point lower than (s, t),
    or None when neither scan finds one."""
    p, q, r, w, k00, k01, k10, k11 = c
    tol = 1e-14 * _scale(c)
    cs, ss, ct, st = math.cos(s), math.sin(s), math.cos(t), math.sin(t)
    ka, kb = k00 * ct + k01 * st, k10 * ct + k11 * st
    x, low = _section_min(p, q, ka, kb)
    if low < p * math.cos(2.0 * s) + q * math.sin(2.0 * s) + ka * cs + kb * ss - tol:
        return x, t
    ka, kb = k00 * cs + k10 * ss, k01 * cs + k11 * ss
    x, low = _section_min(r, w, ka, kb)
    if low < r * math.cos(2.0 * t) + w * math.sin(2.0 * t) + ka * ct + kb * st - tol:
        return s, x
    return None


def _refine(c, s: float, t: float, cell: float, rounds: int) -> tuple[float, float]:
    """Converged minimum of one coefficient row, starting from a grid point.

    Each round polishes by joint Newton and then certifies the point with
    the section scans; a lower scan point starts the next round.  When
    Newton rejects a step the round falls back to one coordinate-descent
    sweep (each angle re-minimized globally) instead.
    """
    p, q, r, w, k00, k01, k10, k11 = c
    for _ in range(rounds):
        s, t, converged = _newton(c, s, t, cell)
        if not converged:
            ct, st = math.cos(t), math.sin(t)
            s = _remin(p, q, k00 * ct + k01 * st, k10 * ct + k11 * st)
            cs, ss = math.cos(s), math.sin(s)
            t = _remin(r, w, k00 * cs + k10 * ss, k01 * cs + k11 * ss)
            continue
        lower = _section_jump(c, s, t)
        if lower is None:
            break
        s, t = lower
    return s, t


def _plane_plane_angles(coef: np.ndarray, policy: Optimized) -> np.ndarray:
    """Minimizing angles (N, 2) for coefficient rows (N, 8): grid argmin,
    then the converged refinement of each row."""
    s0, t0 = _grid_argmin(coef, policy.grid_points)
    cell = 2.0 * math.pi / policy.grid_points
    return np.array([
        _refine(c, s, t, cell, policy.refine_iters)
        for c, s, t in zip(coef.tolist(), s0.tolist(), t0.tolist())
    ]).reshape(-1, 2)


def _optimize_directions(mom: Moments, axis1, axis2, policy: Optimized):
    """Joint minimization of the xi numerator over both direction sets."""
    n = policy.grid_points
    grids1, grids2 = axis1.grid(n), axis2.grid(n)
    dirs1 = axis1.directions_grid(grids1)  # (N1, 3)
    dirs2 = axis2.directions_grid(grids2)  # (N2, 3)

    var1 = np.einsum("ik,kl,il->i", dirs1, mom.mom1, dirs1) - (dirs1 @ mom.mean1) ** 2
    var2 = np.einsum("ik,kl,il->i", dirs2, mom.mom2, dirs2) - (dirs2 @ mom.mean2) ** 2
    cross = dirs1 @ mom.cross_mat @ dirs2.T
    numer = 2.0 * var1[:, None] + 2.0 * var2[None, :] + 4.0 * cross

    shape1 = tuple(len(g) for g in grids1)
    shape2 = tuple(len(g) for g in grids2)
    i, j = _first_min_index(numer.reshape(np.prod(shape1), np.prod(shape2)))
    p1 = [float(g[k]) for g, k in zip(grids1, np.unravel_index(i, shape1))]
    p2 = [float(g[k]) for g, k in zip(grids2, np.unravel_index(j, shape2))]

    def numerator(params1, params2) -> float:
        u = axis1.direction(params1)
        v = axis2.direction(params2)
        return (
            2.0 * (float(u @ mom.mom1 @ u) - float(mom.mean1 @ u) ** 2)
            + 2.0 * (float(v @ mom.mom2 @ v) - float(mom.mean2 @ v) ** 2)
            + 4.0 * float(u @ mom.cross_mat @ v)
        )

    coords = [(1, k) for k in range(axis1.ndim)] + [(2, k) for k in range(axis2.ndim)]
    spans = {1: 2.0 * math.pi / n, 2: 2.0 * math.pi / n}
    best = numerator(p1, p2)
    for _ in range(policy.refine_iters):
        for which, k in coords:
            params = p1 if which == 1 else p2
            axis = axis1 if which == 1 else axis2

            def line(x, _params=params, _k=k, _which=which):
                saved = _params[_k]
                _params[_k] = x
                val = numerator(p1, p2)
                _params[_k] = saved
                return val

            lo, hi = axis.bracket(k, params[k], spans[which])
            params[k] = _golden_min(line, lo, hi)
        improved_to = numerator(p1, p2)
        if best - improved_to < 1e-15:
            best = min(best, improved_to)
            break
        best = improved_to
    return axis1.direction(p1), axis2.direction(p2)


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
    if gauge == "xz":
        return build_frame_xz(direction)
    if gauge == "auto" and abs(direction[1]) <= 1e-9 and direction[2] >= -1e-12:
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
            ((s, t),) = _plane_plane_angles(coef, policy).tolist()
            u = math.cos(s) * a1 + math.sin(s) * b1
            v = math.cos(t) * a2 + math.sin(t) * b2
        else:
            axis1 = _SphereAxis() if 1 in degenerate else _PlaneAxis(build_frame(mom.mean1 / mom.mag1))
            axis2 = _SphereAxis() if 2 in degenerate else _PlaneAxis(build_frame(mom.mean2 / mom.mag2))
            u, v = _optimize_directions(mom, axis1, axis2, policy)
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


def optimized_xi(c: np.ndarray, policy: Optimized | None = None) -> np.ndarray:
    """xi under an Optimized policy for a stack of normalized amplitude
    matrices (N, 3, 3), nan where undefined.

    Equals squeezing_report(CoupledState(c[k]), policy).xi row by row: the
    plane-plane rows share its coefficient, grid and refinement steps, with
    moments, bases and the final xi evaluated for all rows at once; rows
    with a degenerate subsystem go through squeezing_report itself.
    """
    if policy is None:
        policy = Optimized()
    c = np.asarray(c, dtype=complex).reshape(-1, 3, 3)
    if not np.all(np.abs(np.linalg.norm(c.reshape(-1, 9), axis=1) - 1.0) <= NORM_TOL):
        raise ValueError("optimized_xi requires normalized amplitudes")
    mean1, mean2, mom1, mom2, cross_mat = moment_tables(c)
    mag1 = np.linalg.norm(mean1, axis=1)
    mag2 = np.linalg.norm(mean2, axis=1)
    plane = (mag1 >= DEGENERATE_MEAN_SPIN) & (mag2 >= DEGENERATE_MEAN_SPIN)
    xi = np.empty(len(c))
    for k in np.flatnonzero(~plane):
        rep = squeezing_report(CoupledState(c[k]), policy)
        xi[k] = rep.xi if rep.valid else float("nan")
    rows = np.flatnonzero(plane)
    if rows.size:
        e1 = frame_bases(mean1[rows] / mag1[rows, None])
        e2 = frame_bases(mean2[rows] / mag2[rows, None])
        m1, m2, cm = mom1[rows], mom2[rows], cross_mat[rows]
        angles = _plane_plane_angles(_harmonics(m1, m2, cm, e1, e2), policy)
        cs, sn = np.cos(angles), np.sin(angles)
        u = cs[:, :1] * e1[:, 0] + sn[:, :1] * e1[:, 1]
        v = cs[:, 1:] * e2[:, 0] + sn[:, 1:] * e2[:, 1]

        def variance(mom, mean, d):
            # as Moments.variance, including its clamp of roundoff below 0
            var = np.einsum("ni,nij,nj->n", d, mom, d) - np.einsum("ni,ni->n", mean, d) ** 2
            return np.where((var < 0.0) & (var >= -1e-12), 0.0, var)

        numer = (2.0 * variance(m1, mean1[rows], u) + 2.0 * variance(m2, mean2[rows], v)
                 + 4.0 * np.einsum("ni,nij,nj->n", u, cm, v))
        xi[rows] = numer / (mag1[rows] + mag2[rows])
    return xi


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

def _single_moments(s: Spin1State):
    rho = np.outer(s.amps, s.amps.conj())
    mean = np.array([np.trace(rho @ m).real for m in _AXES])
    mom = np.array([[np.trace(rho @ _SYM2[k][l]).real for l in range(3)] for k in range(3)])
    return mean, mom


def _min_transverse_variance(s: Spin1State) -> tuple[float, float]:
    """(min in-plane variance, mean-spin length) for one spin-1 state.

    For zero mean spin the minimum runs over the whole sphere (smallest
    eigenvalue of the second-moment matrix).
    """
    mean, mom = _single_moments(s)
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


FAMILIES = ("product_pair", "coherent_squeezed", "config1", "config2", "config3")


def closed_form_xi(family: str, params: tuple) -> float:
    if family == "product_pair":
        return xi_product_pair(*params)
    if family == "coherent_squeezed":
        return xi_coherent_times_squeezed(*params)
    if family == "config1":
        return xi_config1(*params)
    if family == "config2":
        return xi_config2(*params)
    if family == "config3":
        return xi_config3(*params)
    raise ValueError(f"unknown family {family!r}")


def family_state(family: str, params: tuple) -> CoupledState:
    """The coupled state a closed-form family row refers to."""
    if family == "product_pair":
        t1, t2 = params
        return product(canonical_squeezed(t1), canonical_squeezed(t2))
    if family == "coherent_squeezed":
        (t,) = params
        return product(Spin1State.basis(1), canonical_squeezed(t))
    c = np.zeros((3, 3), dtype=complex)
    if family == "config1":
        c[0, 0], c[1, 1], c[2, 2] = params
    elif family == "config2":
        c[0, 0], c[0, 2], c[1, 1] = params
    elif family == "config3":
        c[0, 1], c[1, 0], c[1, 2] = params
    else:
        raise ValueError(f"unknown family {family!r}")
    return CoupledState.normalized(c)


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
    try:
        closed = closed_form_xi(family, params)
    except ZeroDenominatorError:
        closed = float("nan")
    report = squeezing_report(family_state(family, params), policy)
    engine = report.xi if report.valid else float("nan")
    if math.isnan(closed) or math.isnan(engine):
        return DiscrepancyRecord(family, params, closed, engine, float("nan"), "UNDEFINED")
    diff = abs(closed - engine)
    flag = "MATCH" if diff <= MATCH_TOL else "MISMATCH"
    return DiscrepancyRecord(family, params, closed, engine, diff, flag)


def _family_policy(family: str) -> FramePolicy:
    # The product families use the aligned in-plane frames the closed forms
    # were derived in; the sparse configurations are compared against the
    # strongest (optimized) engine value.
    if family in ("product_pair", "coherent_squeezed"):
        return MeanSpinAligned(gauge="auto")
    return Optimized()


def standard_comparison_grids() -> dict[str, list[tuple]]:
    """Canonical parameter grids for the discrepancy report (deterministic)."""
    grids: dict[str, list[tuple]] = {}
    t = np.linspace(0.1, 3.0, 30)
    grids["product_pair"] = [(float(a), float(b)) for a in t for b in t]
    grids["coherent_squeezed"] = [(float(a),) for a in np.linspace(0.05, 3.1, 100)]
    ab = np.linspace(0.1, 3.0, 15)
    grids["config1"] = [
        tuple(np.array([math.sin(a) * math.cos(b), math.sin(a) * math.sin(b), math.cos(b)]))
        for a in ab
        for b in ab
    ]
    grids["config2"] = grids["config1"]
    ab3 = np.linspace(0.1, 3.0, 12)
    phases = ((0.0, 0.0), (0.7, 1.9))
    grids["config3"] = [
        (
            complex(math.cos(a)),
            math.sin(a) * math.cos(b) * complex(math.cos(p1), math.sin(p1)),
            math.sin(a) * math.sin(b) * complex(math.cos(p2), math.sin(p2)),
        )
        for p1, p2 in phases
        for a in ab3
        for b in ab3
    ]
    return grids


def run_standard_comparisons() -> dict[str, list[DiscrepancyRecord]]:
    """Run the full engine-versus-closed-form comparison over the canonical
    grids; returns records per family."""
    out: dict[str, list[DiscrepancyRecord]] = {}
    for family, grid in standard_comparison_grids().items():
        policy = _family_policy(family)
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
