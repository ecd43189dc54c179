"""Spin-1 operators, two-subsystem embeddings, mean spins, and frames.

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


def _sumsq(v) -> float:
    # spelled out rather than a dot product so that frame_bases, summing
    # the same products column-wise, rounds identically
    x, y, z = v.tolist()
    return x * x + y * y + z * z


def _unit(v, name: str = "direction") -> np.ndarray:
    a = np.asarray(v, dtype=float).reshape(3)
    n2 = _sumsq(a)
    if abs(n2 - 1.0) > _UNIT_TOL:
        raise ValueError(f"{name} must be a unit 3-vector, got |v|^2 = {n2}")
    return a / np.sqrt(n2)


def spin_component(direction) -> np.ndarray:
    """S . d for a unit direction d; Hermitian with eigenvalues 1, 0, -1."""
    d = _unit(direction)
    return d[0] * SX + d[1] * SY + d[2] * SZ


def embed(op, subsystem: int) -> np.ndarray:
    """Lift a one-subsystem operator to the 9-dimensional coupled space."""
    if subsystem == 1:
        return kron(op, IDENTITY3)
    if subsystem == 2:
        return kron(IDENTITY3, op)
    raise ValueError(f"subsystem must be 1 or 2, got {subsystem}")


def _amplitude_matrix(state) -> np.ndarray:
    c = getattr(state, "c", state)
    c = np.asarray(c, dtype=complex)
    if c.shape == (9,):
        c = c.reshape(3, 3)
    if c.shape != (3, 3):
        raise ValueError(f"expected a 3x3 amplitude matrix or 9-vector, got shape {c.shape}")
    return c


def mean_spin(state, subsystem: int) -> tuple[np.ndarray, float]:
    """Mean-spin vector (<Sx>, <Sy>, <Sz>) of one subsystem and its length.

    ``state`` may be a CoupledState, a 3x3 amplitude matrix, or a 9-vector.
    """
    c = _amplitude_matrix(state)
    if subsystem == 1:
        rho = c @ c.conj().T
    elif subsystem == 2:
        rho = c.T @ c.conj()
    else:
        raise ValueError(f"subsystem must be 1 or 2, got {subsystem}")
    vec = np.array([np.trace(rho @ s).real for s in (SX, SY, SZ)])
    return vec, float(np.linalg.norm(vec))


def cross3(a, b) -> np.ndarray:
    """Cross product of two 3-vectors (np.cross has high overhead here)."""
    return np.array([
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    ])


@dataclass(frozen=True)
class Frame:
    """Right-handed orthonormal triad attached to a mean-spin direction.

    ``n`` points along the mean spin; ``n_perp`` is the transverse direction
    the squeezing parameter is evaluated along; ``n_perp2`` completes the
    triad so that n_perp x n_perp2 = n.
    """

    n: np.ndarray
    n_perp: np.ndarray
    n_perp2: np.ndarray

    def __post_init__(self):
        for name in ("n", "n_perp", "n_perp2"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float).reshape(3))
        tol = 1e-12
        for name in ("n", "n_perp", "n_perp2"):
            v = getattr(self, name)
            if abs(float(v @ v) - 1.0) > tol:
                raise ValueError(f"frame vector {name} is not unit length")
        if (
            abs(float(self.n @ self.n_perp)) > tol
            or abs(float(self.n @ self.n_perp2)) > tol
            or abs(float(self.n_perp @ self.n_perp2)) > tol
        ):
            raise ValueError("frame vectors are not mutually orthogonal")
        if float(np.max(np.abs(cross3(self.n_perp, self.n_perp2) - self.n))) > tol:
            raise ValueError("frame is not right-handed (n_perp x n_perp2 != n)")


def build_frame(n) -> Frame:
    """Deterministic frame for a unit direction n.

    Gauge: n_perp = normalize(z x n), except within 1e-9 of the poles where
    n_perp is x-hat orthogonalized against n exactly; n_perp2 = n x n_perp.
    """
    nn = _unit(n)
    if abs(nn[2]) > 1.0 - 1e-9:
        p = np.array([1.0, 0.0, 0.0]) - nn[0] * nn
    else:
        p = np.array([-nn[1], nn[0], 0.0])
    p = p / math.sqrt(_sumsq(p))
    q = cross3(nn, p)
    q = q / math.sqrt(_sumsq(q))
    return Frame(nn, p, q)


def _sumsq_rows(v: np.ndarray) -> np.ndarray:
    return v[:, 0] * v[:, 0] + v[:, 1] * v[:, 1] + v[:, 2] * v[:, 2]


def frame_bases(directions) -> np.ndarray:
    """build_frame's [n_perp, n_perp2], shape (N, 2, 3), for each row of an
    (N, 3) stack of unit directions, bit for bit, without Frame objects."""
    d = np.asarray(directions, dtype=float).reshape(-1, 3)
    nn = d / np.sqrt(_sumsq_rows(d))[:, None]
    x, y, z = nn[:, 0], nn[:, 1], nn[:, 2]
    pole = (np.abs(z) > 1.0 - 1e-9)[:, None]
    p = np.where(pole, np.array([1.0, 0.0, 0.0]) - x[:, None] * nn,
                 np.stack([-y, x, np.zeros_like(x)], axis=1))
    p = p / np.sqrt(_sumsq_rows(p))[:, None]
    q = np.stack([y * p[:, 2] - z * p[:, 1],
                  z * p[:, 0] - x * p[:, 2],
                  x * p[:, 1] - y * p[:, 0]], axis=1)
    q = q / np.sqrt(_sumsq_rows(q))[:, None]
    return np.stack([p, q], axis=1)


def build_frame_xz(n) -> Frame:
    """Frame for a direction in the x-z half-plane (n_y = 0, n_z >= 0).

    Picks the in-plane transverse direction n_perp = (n_z, 0, -n_x) and
    n_perp2 = y-hat.  For a mean spin at polar angle t this is the frame
    (sin t, 0, cos t), (cos t, 0, -sin t), (0, 1, 0).
    """
    nn = _unit(n)
    if abs(nn[1]) > 1e-9 or nn[2] < -1e-12:
        raise ValueError(
            "build_frame_xz requires a direction in the x-z half-plane with n_z >= 0"
        )
    nn = np.array([nn[0], 0.0, max(nn[2], 0.0)])
    nn = nn / np.linalg.norm(nn)
    p = np.array([nn[2], 0.0, -nn[0]])
    q = np.array([0.0, 1.0, 0.0])
    return Frame(nn, p, q)
