"""State types and constructions for one and two spin-1 subsystems.

Single-subsystem states are 3-vectors of amplitudes over m = +1, 0, -1.
Coupled states are 3x3 amplitude matrices c[i, j] (first index = subsystem 1)
flattened row-major when a 9-vector is needed.

Construction routes provided here:

* ``schwinger``     -- spin-1 state from a symmetrized pair of spinors
* ``majorana``      -- the inverse map, via the roots of a quadratic
* ``canonical_squeezed`` -- the one-parameter squeezed family built from the
                      spinor pair (theta1, theta2) = (0, theta)
* ``product`` / ``schmidt`` -- product states and a separability check
* ``config``        -- three sparse two-subsystem amplitude configurations
* ``solve_z_alignment`` -- closed-form completion of a partial amplitude
                      matrix so both mean spins point along z, plus an
                      independent numeric completion used to audit it
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass

import numpy as np

from .linalg import expectation
from .spin import SX, SY, embed

NORM_TOL = 1e-12

STATE_BASIS_ORDER = "m=+1,0,-1"

# index of magnetic quantum number m in the amplitude arrays
_M_INDEX = {1: 0, 0: 1, -1: 2}


class DegenerateDenominatorError(ValueError):
    """A closed-form completion denominator vanished."""


class StateFormatError(ValueError):
    """A state file failed to parse or violated the state invariants."""


def _normalized(raw, shape, what: str) -> np.ndarray:
    a = np.asarray(raw, dtype=complex).reshape(shape)
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{what} contains non-finite amplitudes")
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(a))
    if not math.isfinite(norm):  # finite amplitudes whose squares overflow
        a = a / np.abs(a).max()
        norm = float(np.linalg.norm(a))
    if norm < NORM_TOL:
        raise ValueError(f"{what} has zero norm")
    return a / norm


@dataclass(frozen=True)
class Spinor:
    """Spin-1/2 direction (theta, phi): amplitudes (cos t/2, e^{i phi} sin t/2)."""

    theta: float
    phi: float

    def __post_init__(self):
        if not 0.0 <= self.theta <= math.pi + 1e-12:
            raise ValueError(f"theta must lie in [0, pi], got {self.theta}")
        object.__setattr__(self, "theta", float(min(self.theta, math.pi)))
        object.__setattr__(self, "phi", float(self.phi) % (2.0 * math.pi))

    def amplitudes(self) -> np.ndarray:
        return np.array(
            [math.cos(self.theta / 2.0), cmath.exp(1j * self.phi) * math.sin(self.theta / 2.0)],
            dtype=complex,
        )

    def direction(self) -> np.ndarray:
        st = math.sin(self.theta)
        return np.array([st * math.cos(self.phi), st * math.sin(self.phi), math.cos(self.theta)])


class Spin1State:
    """Normalized 3-amplitude state of a single spin-1 subsystem."""

    __slots__ = ("amps",)

    def __init__(self, amps):
        a = np.asarray(amps, dtype=complex).reshape(3)
        # written so that a nan norm fails too
        if not abs(float(np.linalg.norm(a)) - 1.0) <= NORM_TOL:
            raise ValueError("Spin1State requires normalized amplitudes")
        self.amps = a

    @classmethod
    def normalized(cls, raw) -> "Spin1State":
        return cls(_normalized(raw, (3,), "spin-1 state"))

    @classmethod
    def basis(cls, m: int) -> "Spin1State":
        a = np.zeros(3, dtype=complex)
        a[_M_INDEX[m]] = 1.0
        return cls(a)

    def __repr__(self):
        return f"Spin1State({np.array2string(self.amps, precision=6)})"


class CoupledState:
    """Normalized pure state of two coupled spin-1 subsystems."""

    __slots__ = ("c",)

    def __init__(self, c):
        a = np.asarray(c, dtype=complex)
        if a.shape == (9,):
            a = a.reshape(3, 3)
        if a.shape != (3, 3):
            raise ValueError(f"expected a 3x3 amplitude matrix, got shape {a.shape}")
        if not abs(float(np.linalg.norm(a)) - 1.0) <= NORM_TOL:
            raise ValueError("CoupledState requires normalized amplitudes")
        self.c = a

    @classmethod
    def normalized(cls, raw) -> "CoupledState":
        a = np.asarray(raw, dtype=complex)
        if a.shape == (9,):
            a = a.reshape(3, 3)
        return cls(_normalized(a, (3, 3), "coupled state"))

    @classmethod
    def basis(cls, m1: int, m2: int) -> "CoupledState":
        a = np.zeros((3, 3), dtype=complex)
        a[_M_INDEX[m1], _M_INDEX[m2]] = 1.0
        return cls(a)

    @property
    def vec(self) -> np.ndarray:
        """Row-major 9-vector (c11, c12, c13, c21, ..., c33)."""
        return self.c.reshape(9)

    def __repr__(self):
        return f"CoupledState({np.array2string(self.c, precision=6)})"


def schwinger(u1: Spinor, u2: Spinor) -> Spin1State:
    """Spin-1 state from the symmetrized pair of spinors u1, u2.

    With u_k = (a_k, b_k) the (unnormalized) triplet amplitudes are
    (sqrt2 a1 a2, a1 b2 + b1 a2, sqrt2 b1 b2); the result is normalized.
    The norm never vanishes: antipodal spinors still give a nonzero m = 0
    component.
    """
    a1, b1 = u1.amplitudes()
    a2, b2 = u2.amplitudes()
    raw = np.array(
        [math.sqrt(2.0) * a1 * a2, a1 * b2 + b1 * a2, math.sqrt(2.0) * b1 * b2],
        dtype=complex,
    )
    return Spin1State.normalized(raw)


def canonical_squeezed(theta: float) -> Spin1State:
    """Squeezed one-parameter family: amplitudes
    (2 cos t/2, sqrt2 sin t/2, 0) / sqrt(3 + cos t); theta in [0, pi].

    Equals schwinger(Spinor(0, 0), Spinor(theta, 0)).  theta = 0 is the
    coherent m = +1 state; the family interpolates toward (0, 1, 0).
    """
    if not 0.0 <= theta <= math.pi + 1e-12:
        raise ValueError(f"theta must lie in [0, pi], got {theta}")
    den = math.sqrt(3.0 + math.cos(theta))
    return Spin1State(
        np.array(
            [2.0 * math.cos(theta / 2.0) / den, math.sqrt(2.0) * math.sin(theta / 2.0) / den, 0.0],
            dtype=complex,
        )
    )


def _spinor_from_root(w) -> Spinor:
    """Back-map a root of the characteristic quadratic to a spinor.

    Roots are w = -b/a for a spinor (a, b), i.e. -w = e^{i phi} tan(theta/2);
    w = None encodes the root at infinity (theta = pi).
    """
    if w is None:
        return Spinor(math.pi, 0.0)
    r = abs(w)
    theta = 2.0 * math.atan(r)
    if r < 1e-15 or abs(theta - math.pi) < 1e-15:
        return Spinor(theta, 0.0)
    return Spinor(theta, cmath.phase(-w) % (2.0 * math.pi))


def majorana(state: Spin1State) -> tuple[Spinor, Spinor]:
    """The two (unordered) spinors whose symmetrization gives ``state``.

    They are the roots of a z^2 + sqrt2 b z + c = 0 for amplitudes
    (a, b, c) over m = +1, 0, -1, mapped back stereographically; a vanishing
    leading coefficient contributes a root at infinity (theta = pi).
    Returned sorted by (theta, phi) for determinism.
    """
    a, b, c = (complex(x) for x in state.amps)
    bq = math.sqrt(2.0) * b
    roots: list[complex | None]
    if abs(a) <= 1e-14:
        if abs(bq) <= 1e-14:
            roots = [None, None]
        else:
            roots = [-c / bq, None]
    else:
        disc = cmath.sqrt(bq * bq - 4.0 * a * c)
        # pick the sign that avoids cancellation in -(b +/- disc)/2
        if abs(bq + disc) >= abs(bq - disc):
            q = -(bq + disc) / 2.0
        else:
            q = -(bq - disc) / 2.0
        if abs(q) <= 1e-300:
            roots = [0.0 + 0.0j, 0.0 + 0.0j]
        else:
            roots = [q / a, c / q]
    spinors = sorted((_spinor_from_root(w) for w in roots), key=lambda s: (s.theta, s.phi))
    return spinors[0], spinors[1]


def product(s1: Spin1State, s2: Spin1State) -> CoupledState:
    """Product state with amplitude matrix outer(s1, s2)."""
    return CoupledState(np.outer(s1.amps, s2.amps))


@dataclass(frozen=True)
class SchmidtInfo:
    singular_values: np.ndarray
    product_flag: bool
    tolerance_used: float


def schmidt(state: CoupledState, tol: float = 1e-10) -> SchmidtInfo:
    """Schmidt coefficients of the amplitude matrix, descending.

    The state is a product iff the second singular value is <= tol, which is
    also equivalent to all nine 2x2 minors of the amplitude matrix vanishing.
    """
    sv = np.linalg.svd(state.c, compute_uv=False)
    return SchmidtInfo(sv, bool(sv[1] <= tol), tol)


def is_oriented(state: CoupledState, q1, q2, tol: float = 1e-10) -> bool:
    """True iff the state is a simultaneous eigenstate of S1.q1 and S2.q2
    with integer eigenvalues in {-1, 0, +1} (residual norm <= tol each)."""
    from .spin import spin_component  # local import keeps module load light

    psi = state.vec
    for q, sub in ((q1, 1), (q2, 2)):
        op = embed(spin_component(q), sub)
        lam = expectation(psi, op).real
        m = round(lam)
        if m not in (-1, 0, 1) or abs(lam - m) > tol:
            return False
        residual = float(np.linalg.norm(op @ psi - m * psi))
        if residual > tol:
            return False
    return True


# (row, column) of the three printed amplitudes of each sparse configuration
_CONFIG_SLOTS = {
    1: ((0, 0), (1, 1), (2, 2)),
    2: ((0, 0), (0, 2), (1, 1)),
    3: ((0, 1), (1, 0), (1, 2)),
}


def config_amplitudes(kind: int, alpha: float, beta: float,
                      phi1: float = 0.0, phi2: float = 0.0) -> tuple:
    """The printed amplitude triple of a sparse configuration:

    kind 1: (c11, c22, c33) = (sin a cos b, sin a sin b, cos b)
    kind 2: (c11, c13, c22) = (sin a cos b, sin a sin b, cos b)
    kind 3: (c12, c21, c23) = (cos a, sin a cos b e^{i phi1}, sin a sin b e^{i phi2})

    Numbers are evaluated with math, and arrays (broadcasting) with numpy
    in the same expressions: each array element is bit for bit the scalar
    result, since numpy's sin and cos round as math's do and a real factor
    times e^{i phi} is one rounded product per part either way.
    """
    xp = np if any(isinstance(x, np.ndarray) for x in (alpha, beta, phi1, phi2)) else math
    sa, ca = xp.sin(alpha), xp.cos(alpha)
    sb, cb = xp.sin(beta), xp.cos(beta)
    if kind in (1, 2):
        return sa * cb, sa * sb, cb
    if kind == 3:
        return (ca + 0j, sa * cb * (xp.cos(phi1) + 1j * xp.sin(phi1)),
                sa * sb * (xp.cos(phi2) + 1j * xp.sin(phi2)))
    raise ValueError(f"kind must be 1, 2 or 3, got {kind}")


def config_matrices(kind: int, amplitudes) -> np.ndarray:
    """The configuration ``kind`` with its three amplitudes (see
    ``config_amplitudes``) in their slots, not normalized: a (3, 3)
    amplitude matrix for numbers, a stack (..., 3, 3) for arrays of one
    shape."""
    c = np.zeros(np.shape(amplitudes[0]) + (3, 3), dtype=complex)
    for (i, j), a in zip(_CONFIG_SLOTS[kind], amplitudes):
        c[..., i, j] = a
    return c


def config(kind: int, alpha: float, beta: float, phi1: float = 0.0, phi2: float = 0.0) -> CoupledState:
    """Sparse two-subsystem configurations, renormalized: the amplitudes
    ``config_amplitudes(kind, alpha, beta, phi1, phi2)`` in their slots.

    All three keep both mean spins on the z axis.  The amplitude triple is
    not unit-normalized as printed, so the state is normalized here; the
    squeezing parameter is invariant under that rescaling.  ValueError when
    all three amplitudes vanish.
    """
    amplitudes = config_amplitudes(kind, alpha, beta, phi1, phi2)
    return CoupledState.normalized(config_matrices(kind, amplitudes))


# --------------------------------------------------------------------------
# z-alignment completion
# --------------------------------------------------------------------------

def transverse_expectations(state: CoupledState) -> np.ndarray:
    """(<Sx x 1>, <1 x Sx>, <Sy x 1>, <1 x Sy>) -- all four vanish exactly
    when both mean spins point along z."""
    psi = state.vec
    return np.array(
        [
            expectation(psi, embed(SX, 1)).real,
            expectation(psi, embed(SX, 2)).real,
            expectation(psi, embed(SY, 1)).real,
            expectation(psi, embed(SY, 2)).real,
        ]
    )


def solve_z_alignment(*, c11, c12, c13, c22, c31, c32, c33) -> tuple[complex, complex]:
    """Closed-form (c23, c21) completing a partial amplitude matrix so that
    both mean-spin vectors point along z.

    This is a literal transcription of the published expressions:

        c23 = { [|c22|^2 - (c11+c13)(c11+c31*)] c12*
              + [|c22|^2 - (c11+c31*)(c31+c33)] c32* }
              / (c11 + c31* - c13 - c33*)
        c21 = [ -(c13* + c33*) c23 - (c12* + c32) c22 ] / (c11 + c31)

    Raises DegenerateDenominatorError when either denominator is below 1e-12.
    Whether the completed state actually satisfies the transverse-expectation
    conditions is checked independently (see ``z_alignment_audit``); the
    transcription is kept verbatim either way.
    """
    c11, c12, c13, c22 = complex(c11), complex(c12), complex(c13), complex(c22)
    c31, c32, c33 = complex(c31), complex(c32), complex(c33)
    den1 = c11 + c31.conjugate() - c13 - c33.conjugate()
    if abs(den1) <= 1e-12:
        raise DegenerateDenominatorError("c11 + c31* - c13 - c33* vanishes")
    den2 = c11 + c31
    if abs(den2) <= 1e-12:
        raise DegenerateDenominatorError("c11 + c31 vanishes")
    mod22 = abs(c22) ** 2
    c23 = (
        (mod22 - (c11 + c13) * (c11 + c31.conjugate())) * c12.conjugate()
        + (mod22 - (c11 + c31.conjugate()) * (c31 + c33)) * c32.conjugate()
    ) / den1
    c21 = (-(c13.conjugate() + c33.conjugate()) * c23 - (c12.conjugate() + c32) * c22) / den2
    return c23, c21


def complete_z_alignment_numeric(*, c11, c12, c13, c22, c31, c32, c33) -> tuple[complex, complex]:
    """Independent numeric completion enforcing the alignment conditions.

    Both mean spins point along z iff

        sum_j c1j* c2j + sum_j c2j* c3j = 0   (subsystem 1)
        sum_i ci1* ci2 + sum_i ci2* ci3 = 0   (subsystem 2)

    These are real-linear in (c21, c23), giving a 4x4 real system solved
    exactly; used as the oracle against the closed-form completion.
    """
    c11, c12, c13, c22 = complex(c11), complex(c12), complex(c13), complex(c22)
    c31, c32, c33 = complex(c31), complex(c32), complex(c33)

    def residual(z: complex, w: complex) -> np.ndarray:
        # z = c21, w = c23
        e1 = (
            c11.conjugate() * z
            + c12.conjugate() * c22
            + c13.conjugate() * w
            + z.conjugate() * c31
            + c22.conjugate() * c32
            + w.conjugate() * c33
        )
        e2 = (
            c11.conjugate() * c12
            + z.conjugate() * c22
            + c31.conjugate() * c32
            + c12.conjugate() * c13
            + c22.conjugate() * w
            + c32.conjugate() * c33
        )
        return np.array([e1.real, e1.imag, e2.real, e2.imag])

    r0 = residual(0j, 0j)
    basis = [(1.0 + 0j, 0j), (1j, 0j), (0j, 1.0 + 0j), (0j, 1j)]
    mat = np.column_stack([residual(z, w) - r0 for z, w in basis])
    try:
        sol = np.linalg.solve(mat, -r0)
    except np.linalg.LinAlgError as exc:
        raise DegenerateDenominatorError(
            "alignment conditions are singular for these amplitudes"
        ) from exc
    c21 = complex(sol[0], sol[1])
    c23 = complex(sol[2], sol[3])
    return c23, c21


def _completed_state(knowns: dict, c23, c21) -> CoupledState:
    c = np.array(
        [
            [knowns["c11"], knowns["c12"], knowns["c13"]],
            [c21, knowns["c22"], c23],
            [knowns["c31"], knowns["c32"], knowns["c33"]],
        ],
        dtype=complex,
    )
    return CoupledState.normalized(c)


@dataclass(frozen=True)
class ZAlignmentRecord:
    inputs: dict
    closed_c23: complex
    closed_c21: complex
    closed_residual: float
    numeric_c23: complex
    numeric_c21: complex
    numeric_residual: float


def z_alignment_audit(
    n_samples: int = 100, seed: int = 20240801, complex_inputs: bool = False
) -> list[ZAlignmentRecord]:
    """Compare the closed-form completion against the numeric oracle on
    random admissible inputs (denominators bounded away from zero).

    Each record carries the reproducer inputs, both completions, and the
    maximum transverse-expectation magnitude of the completed state for each.
    """
    rng = np.random.default_rng(seed)
    records: list[ZAlignmentRecord] = []
    names = ("c11", "c12", "c13", "c22", "c31", "c32", "c33")
    while len(records) < n_samples:
        vals = rng.uniform(-1.0, 1.0, size=7)
        if complex_inputs:
            vals = vals + 1j * rng.uniform(-1.0, 1.0, size=7)
        knowns = dict(zip(names, (complex(v) for v in vals)))
        den1 = knowns["c11"] + knowns["c31"].conjugate() - knowns["c13"] - knowns["c33"].conjugate()
        den2 = knowns["c11"] + knowns["c31"]
        if abs(den1) < 1e-6 or abs(den2) < 1e-6 or abs(knowns["c22"]) < 1e-6:
            continue
        closed_c23, closed_c21 = solve_z_alignment(**knowns)
        numeric_c23, numeric_c21 = complete_z_alignment_numeric(**knowns)
        closed_res = float(
            np.max(np.abs(transverse_expectations(_completed_state(knowns, closed_c23, closed_c21))))
        )
        numeric_res = float(
            np.max(np.abs(transverse_expectations(_completed_state(knowns, numeric_c23, numeric_c21))))
        )
        records.append(
            ZAlignmentRecord(
                inputs=knowns,
                closed_c23=closed_c23,
                closed_c21=closed_c21,
                closed_residual=closed_res,
                numeric_c23=numeric_c23,
                numeric_c21=numeric_c21,
                numeric_residual=numeric_res,
            )
        )
    return records


# --------------------------------------------------------------------------
# state files
# --------------------------------------------------------------------------

def save_state(path, state: CoupledState) -> None:
    """Write a coupled state as JSON: basis_order plus 9 [re, im] pairs
    row-major (subsystem-1 index outer)."""
    amps = [[float(z.real), float(z.imag)] for z in state.vec]
    payload = {"basis_order": STATE_BASIS_ORDER, "amps": amps}
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")


def load_state(path) -> CoupledState:
    """Read a coupled state written by ``save_state``.

    Raises StateFormatError on malformed files; amplitudes are renormalized
    on load (writers always emit normalized amplitudes, so this only absorbs
    round-trip rounding).
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise StateFormatError(f"cannot read state file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise StateFormatError(f"state file is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise StateFormatError("state file must contain a JSON object")
    if payload.get("basis_order") != STATE_BASIS_ORDER:
        raise StateFormatError(f'state file must declare basis_order "{STATE_BASIS_ORDER}"')
    amps = payload.get("amps")
    if not isinstance(amps, list) or len(amps) != 9:
        raise StateFormatError("state file must contain 9 amplitude pairs")
    vec = np.empty(9, dtype=complex)
    for k, pair in enumerate(amps):
        if (
            not isinstance(pair, list)
            or len(pair) != 2
            # bool is an int subclass, but a JSON true is not a number
            or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in pair)
        ):
            raise StateFormatError(f"amplitude {k} must be a [re, im] pair of numbers")
        try:
            vec[k] = complex(pair[0], pair[1])
        except OverflowError:  # an integer beyond the float range
            raise StateFormatError(f"amplitude {k} is too large for a float") from None
    if not np.all(np.isfinite(vec)):
        raise StateFormatError("state file contains non-finite amplitudes")
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(vec))
    if norm < NORM_TOL:
        raise StateFormatError("state file amplitudes have zero norm")
    if norm == math.inf:
        raise StateFormatError("state file amplitudes' norm overflows a float")
    return CoupledState.normalized(vec)
