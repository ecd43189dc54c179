"""Spin-1 operators, two-subsystem embeddings, spin moments, and frames.

Every spin moment of a coupled state is a block of one Gram matrix, that of
the vectors psi, S1k psi and S2l psi (moment_tables).

Basis convention used throughout the package: the three levels of each
spin-1 subsystem are ordered by magnetic quantum number m = +1, 0, -1, so
Sz = diag(1, 0, -1).  In that ordering

          1  | 0  1  0 |            1  | 0 -i  0 |           | 1  0  0 |
    Sx = ----| 1  0  1 |  ,   Sy = ----| i  0 -i |  ,   Sz = | 0  0  0 |
         sq2 | 0  1  0 |           sq2 | 0  i  0 |           | 0  0 -1 |

with sq2 = sqrt(2).  These satisfy [Sx, Sy] = i*Sz and Sx^2+Sy^2+Sz^2 = 2*I.

A coupled state of two such subsystems is a 9-vector indexed row-major:
entry 3*i + j is the amplitude on |m1(i)> x |m2(j)| with the same m ordering
on both factors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import kron

_SQRT2 = np.sqrt(2.0)

SX = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex) / _SQRT2
SY = np.array([[0, -1j, 0], [1j, 0, -1j], [0, 1j, 0]], dtype=complex) / _SQRT2
SZ = np.diag([1.0, 0.0, -1.0]).astype(complex)
IDENTITY3 = np.eye(3, dtype=complex)

# Raising/lowering: S+|m> = sqrt(2)|m+1> for m = 0, -1; S- is the adjoint.
S_PLUS = SX + 1j * SY
S_MINUS = SX - 1j * SY

_UNIT_TOL = 1e-9


def spin1_matrices() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fresh copies of (Sx, Sy, Sz) in the m = +1, 0, -1 ordering."""
    return SX.copy(), SY.copy(), SZ.copy()


def raising_lowering() -> tuple[np.ndarray, np.ndarray]:
    """Fresh copies of (S+, S-)."""
    return S_PLUS.copy(), S_MINUS.copy()


def _dot3(a, b) -> float:
    """a.b of 3-vectors, spelled out so that Python floats and arrays of rows
    round alike; every spin-vector length is the square root of _dot3(v, v)."""
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _direction(v) -> list[float]:
    """A real 3-vector (an array or Python floats) divided by its length,
    as Python floats."""
    a = v.tolist() if isinstance(v, np.ndarray) else v
    r = math.sqrt(_dot3(a, a))
    return [w / r for w in a]


def _unit(v, name: str = "direction") -> list[float]:
    """v as a unit 3-vector of Python floats, as numpy divides the array by
    its length."""
    a = np.asarray(v, dtype=float).reshape(3).tolist()
    n2 = _dot3(a, a)
    # written so that a nan length fails too
    if not abs(n2 - 1.0) <= _UNIT_TOL:
        raise ValueError(f"{name} must be a unit 3-vector, got |v|^2 = {n2}")
    r = math.sqrt(n2)
    return [w / r for w in a]


def spin_component(direction) -> np.ndarray:
    """S . d for a unit direction d; Hermitian with eigenvalues 1, 0, -1."""
    d = np.array(_unit(direction))
    return d[0] * SX + d[1] * SY + d[2] * SZ


def embed(op, subsystem: int) -> np.ndarray:
    """Lift a one-subsystem operator to the 9-dimensional coupled space."""
    if subsystem == 1:
        return kron(op, IDENTITY3)
    if subsystem == 2:
        return kron(IDENTITY3, op)
    raise ValueError(f"subsystem must be 1 or 2, got {subsystem}")


_AXES = (SX, SY, SZ)
# psi's float view (18 reals) @ _GRAM_TABLE is the float views of psi, S1x psi,
# S1y psi, S1z psi, S2x psi, S2y psi and S2z psi side by side: row r holds the
# operators applied to the complex vector whose float view is unit vector r
_GRAM_TABLE = np.concatenate([(np.eye(18).view(complex) @ op.T).view(float) for op in (
    np.eye(9), *(embed(s, 1) for s in _AXES), *(embed(s, 2) for s in _AXES))], axis=1)


def moment_tables(c: np.ndarray) -> np.ndarray:
    """The Gram matrices G (N, 7, 7), G_ij = Re<z_i, z_j>, of the 9-vectors
    z = (psi, S1x psi, S1y psi, S1z psi, S2x psi, S2y psi, S2z psi) of a
    stack of amplitude matrices c (N, 3, 3).  The operators are Hermitian
    and the two subsystems' commute, so G holds every spin moment: the mean
    spins G[:, 0, 1:4] and G[:, 0, 4:], each subsystem's second moments
    Re<(Sk Sl + Sl Sk)/2> G[:, 1:4, 1:4] and G[:, 4:, 4:], and the cross
    matrix <Sk (x) Sl> G[:, 1:4, 4:].  Two real products per row, of the
    same shapes whatever N, so a row's G is the same bits in any stack; one
    row's products are 2-D dots, the same bits without matmul's cost per
    call."""
    x = np.ascontiguousarray(c, dtype=complex).reshape(-1, 1, 9).view(float)
    if len(x) == 1:
        z = x[0].dot(_GRAM_TABLE).reshape(7, 18)
        return z.dot(z.T)[None]
    z = (x @ _GRAM_TABLE).reshape(-1, 7, 18)
    return z @ z.transpose(0, 2, 1)


def mean_spin(state, subsystem: int) -> tuple[np.ndarray, float]:
    """Mean-spin vector (<Sx>, <Sy>, <Sz>) of one subsystem and its length,
    from moment_tables.

    ``state`` may be a CoupledState, a 3x3 amplitude matrix, or a 9-vector;
    an array must pass CoupledState's check (shape, finite, norm 1).
    """
    from .states import CoupledState  # states imports this module

    if subsystem not in (1, 2):
        raise ValueError(f"subsystem must be 1 or 2, got {subsystem}")
    state = state if isinstance(state, CoupledState) else CoupledState(state)
    vec = moment_tables(state.c)[0, 0, 1:].reshape(2, 3)[subsystem - 1]
    v = vec.tolist()
    return vec, math.sqrt(_dot3(v, v))


def cross3(a, b) -> np.ndarray:
    """Cross product of two 3-vectors (np.cross has high overhead here)."""
    return np.array([
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    ])


@dataclass(frozen=True, slots=True)
class Frame:
    """Right-handed orthonormal triad attached to a mean-spin direction.

    ``n`` points along the mean spin; ``n_perp`` is the transverse direction
    the squeezing parameter is evaluated along; ``n_perp2`` completes the
    triad so that n_perp x n_perp2 = n.

    Frame(...) validates its vectors: user frames are checked at the API
    boundary.  The frames the engine builds (build_frame, build_frame_xz and
    the reports' frames) are orthonormal by construction and skip the check.
    """

    n: np.ndarray
    n_perp: np.ndarray
    n_perp2: np.ndarray

    def __post_init__(self):
        names = ("n", "n_perp", "n_perp2")
        for name in names:
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float).reshape(3))
        # checked on Python floats (cheaper than numpy scalars for 3-vectors),
        # each written so that a nan fails it
        n, p, q = (getattr(self, name).tolist() for name in names)
        tol = 1e-12
        for name, v in zip(names, (n, p, q)):
            if not abs(_dot3(v, v) - 1.0) <= tol:
                raise ValueError(f"frame vector {name} is not unit length")
        if not (abs(_dot3(n, p)) <= tol and abs(_dot3(n, q)) <= tol and abs(_dot3(p, q)) <= tol):
            raise ValueError("frame vectors are not mutually orthogonal")
        if not (abs(p[1] * q[2] - p[2] * q[1] - n[0]) <= tol
                and abs(p[2] * q[0] - p[0] * q[2] - n[1]) <= tol
                and abs(p[0] * q[1] - p[1] * q[0] - n[2]) <= tol):
            raise ValueError("frame is not right-handed (n_perp x n_perp2 != n)")

    @classmethod
    def _trusted(cls, n: np.ndarray, n_perp: np.ndarray, n_perp2: np.ndarray) -> "Frame":
        """A frame of float 3-vectors that its builder made orthonormal,
        without __post_init__'s checks."""
        frame = object.__new__(cls)
        object.__setattr__(frame, "n", n)
        object.__setattr__(frame, "n_perp", n_perp)
        object.__setattr__(frame, "n_perp2", n_perp2)
        return frame


def _triad(x, y, z):
    """build_frame's [n, n_perp, n_perp2] for the unit direction (x, y, z),
    as lists of components: Python floats, or arrays of rows with the same
    arithmetic."""
    if isinstance(x, float):
        p = [1.0 - x * x, 0.0 - x * y, 0.0 - x * z] if abs(z) > 1.0 - 1e-9 else [-y, x, 0.0]
        sqrt = math.sqrt
    else:
        pole = np.abs(z) > 1.0 - 1e-9
        p = [np.where(pole, 1.0 - x * x, -y), np.where(pole, 0.0 - x * y, x),
             np.where(pole, 0.0 - x * z, 0.0)]
        sqrt = np.sqrt
    r = sqrt(_dot3(p, p))
    p = [w / r for w in p]
    q = [y * p[2] - z * p[1], z * p[0] - x * p[2], x * p[1] - y * p[0]]
    r = sqrt(_dot3(q, q))
    return [x, y, z], p, [w / r for w in q]


_XZ_ERROR = "build_frame_xz requires a direction in the x-z half-plane with n_z >= 0"


def _in_xz(y, z):
    """Whether a direction with components y and z (Python floats or arrays)
    lies in the x-z half-plane: |n_y| <= 1e-9 and n_z >= -1e-12 (False for
    nan)."""
    return (abs(y) <= 1e-9) & (z >= -1e-12)


def _triad_xz(x, y, z):
    """build_frame_xz's [n, n_perp, n_perp2] for the unit direction (x, y,
    z), as _triad's; ValueError outside the x-z half-plane."""
    one = isinstance(x, float)
    if not (_in_xz(y, z) if one else np.all(_in_xz(y, z))):
        raise ValueError(_XZ_ERROR)
    z = max(z, 0.0) if one else np.maximum(z, 0.0)
    r = (math.sqrt if one else np.sqrt)(_dot3((x, 0.0, z), (x, 0.0, z)))
    x, z = x / r, z / r
    return [x, 0.0, z], [z, 0.0, -x], [0.0, 1.0, 0.0]


def build_frame(n) -> Frame:
    """Deterministic frame for a unit direction n.

    Gauge: n_perp = normalize(z x n), except within 1e-9 of the poles where
    n_perp is x-hat orthogonalized against n exactly; n_perp2 = n x n_perp.
    """
    n, p, q = _triad(*_unit(n))
    return Frame._trusted(np.array(n), np.array(p), np.array(q))


def build_frame_xz(n) -> Frame:
    """Frame for a direction in the x-z half-plane (n_y = 0, n_z >= 0).

    Picks the in-plane transverse direction n_perp = (n_z, 0, -n_x) and
    n_perp2 = y-hat.  For a mean spin at polar angle t this is the frame
    (sin t, 0, cos t), (cos t, 0, -sin t), (0, 1, 0).
    """
    n, p, q = _triad_xz(*_unit(n))
    return Frame._trusted(np.array(n), np.array(p), np.array(q))


def _bases(triad, directions) -> np.ndarray:
    """triad's [n_perp, n_perp2], shape (N, 2, 3), for each row of an (N, 3)
    stack of directions divided by its length: at once for no rows, on
    Python floats for one row, where numpy's cost per call is most of the
    work, else on the rows' component arrays."""
    d = np.asarray(directions, dtype=float).reshape(-1, 3)
    if not len(d):
        return np.empty((0, 2, 3))
    if len(d) == 1:
        return np.array([triad(*_direction(d[0]))[1:]])
    _, p, q = triad(*(d.T / np.sqrt(_dot3(d.T, d.T))))
    out = np.empty((len(d), 6))
    for k, w in enumerate(p + q):
        out[:, k] = w
    return out.reshape(-1, 2, 3)


def frame_bases(directions) -> np.ndarray:
    """build_frame's [n_perp, n_perp2], shape (N, 2, 3), for each row of an
    (N, 3) stack of directions (bit for bit where they are unit vectors:
    _bases divides each by its length), without Frame objects."""
    return _bases(_triad, directions)


def frame_bases_xz(directions) -> np.ndarray:
    """build_frame_xz's [n_perp, n_perp2], shape (N, 2, 3), for each row of
    an (N, 3) stack of unit directions, bit for bit, without Frame objects.
    Raises build_frame_xz's ValueError when a row is outside the half-plane.
    """
    return _bases(_triad_xz, directions)
