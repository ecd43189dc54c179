"""Squeezing generation by unitary evolution of coupled spin-1 pairs.

Two generators are provided.  The pair-exchange generator

    A = S1+ S2+ - S1- S2-        (anti-Hermitian, evolves as exp(tau A))

raises or lowers both subsystems together; starting from |1,1> it keeps the
state inside span{c11, c22, c33} and produces squeezing.  The cross-quadratic
Hamiltonian

    H = S1x^2 (x) S2y^2          (Hermitian, evolves as exp(-i tau H))

couples m = +1 to m = -1 within each subsystem and populates c13/c31 when
applied after pair-exchange evolution.  eta and t enter only as the
dimensionless product tau = eta*t, which is what all grids range over.

``trajectory`` evaluates xi along one or more evolution stages;
``two_stage_minimum`` scans a (tau1, tau2) grid for the best squeezing
reachable by pair-exchange followed by the cross-quadratic Hamiltonian.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import check_hermiticity, hermitian_eigh
from .spin import raising_lowering, spin1_matrices, embed
from .states import NORM_TOL, CoupledState, _norms
from .squeezing import FramePolicy, Optimized, first_min_index, xi_batch


@dataclass(frozen=True)
class Generator:
    """A 9x9 evolution generator with its hermiticity tag.

    kind "hermitian" evolves as exp(-i tau m); kind "anti_hermitian" as
    exp(tau m).  The tag is verified at construction.
    """

    matrix: np.ndarray
    kind: str
    label: str

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (9, 9):
            raise ValueError(f"generator must be 9x9, got {m.shape}")
        check_hermiticity(m, self.kind)
        object.__setattr__(self, "matrix", m)


def pair_exchange_generator() -> Generator:
    """A = S1+ S2+ - S1- S2- (anti-Hermitian pair raising/lowering)."""
    sp, sm = raising_lowering()
    a = embed(sp, 1) @ embed(sp, 2) - embed(sm, 1) @ embed(sm, 2)
    return Generator(a, "anti_hermitian", "pair-exchange")


def cross_quadratic_generator() -> Generator:
    """H = S1x^2 (x) S2y^2 (Hermitian cross-quadratic coupling)."""
    sx, sy, _ = spin1_matrices()
    h = embed(sx @ sx, 1) @ embed(sy @ sy, 2)
    return Generator(h, "hermitian", "cross-quadratic")


class Propagator:
    """Evolution operator family U(tau) for one generator.

    The eigendecomposition is taken once; U(tau) for any tau is then a
    rescaling of the eigenvector matrix.  For both kinds U(tau) =
    V exp(-i tau w) V* with w the real spectrum of the associated Hermitian
    matrix (m itself, or i*m for an anti-Hermitian m), so unitarity and the
    semigroup property hold to rounding error.
    """

    __slots__ = ("generator", "_w", "_v")

    def __init__(self, generator: Generator):
        self.generator = generator
        self._w, self._v = hermitian_eigh(generator.matrix, generator.kind)

    def at(self, tau: float) -> np.ndarray:
        phases = np.exp(-1j * tau * self._w)
        return (self._v * phases) @ self._v.conj().T

    def propagate(self, vecs: np.ndarray, taus: np.ndarray) -> np.ndarray:
        """U(tau) psi for every 9-vector psi in vecs (shape (..., 9)) and
        every tau, renormalized: shape (..., len(taus), 9).

        Raises ValueError unless every input and result is normalized to
        NORM_TOL (a non-finite row fails), and when a tau makes a phase non-finite.
        """
        if not np.all(np.abs(_norms(vecs) - 1.0) <= NORM_TOL):
            raise ValueError("propagate requires normalized amplitudes")
        coeffs = np.asarray(vecs, dtype=complex) @ self._v.conj()
        with np.errstate(over="ignore", invalid="ignore"):
            phases = np.exp(-1j * np.multiply.outer(np.asarray(taus, dtype=float), self._w))
        if not np.all(np.isfinite(phases)):
            raise ValueError("tau is not finite, or too large for the generator's spectrum")
        # one einsum without intermediates: memory is the result alone
        amps = np.einsum("ij,tj,...j->...ti", self._v, phases, coeffs)
        amps /= _norms(amps)[..., None]
        if not np.all(np.abs(_norms(amps) - 1.0) <= NORM_TOL):
            raise ValueError("propagated amplitudes are not normalized")
        return amps

    def apply(self, state: CoupledState, tau: float) -> CoupledState:
        return self.apply_grid(state, [tau])[0]

    def apply_grid(self, state: CoupledState, taus: np.ndarray) -> list[CoupledState]:
        return [CoupledState(a.reshape(3, 3)) for a in self.propagate(state.vec, taus)]


def evolve(state: CoupledState, g: Generator, tau: float) -> CoupledState:
    """The state after evolving for dimensionless time tau under g."""
    return Propagator(g).apply(state, tau)


@dataclass(frozen=True)
class Trajectory:
    tau_grid: np.ndarray
    amplitudes: np.ndarray  # (N, 3, 3), per tau
    xi: np.ndarray  # per state, nan where undefined
    policy: FramePolicy
    stage_labels: list[str] = field(default_factory=list)

    @property
    def states(self) -> list[CoupledState]:
        """The state at each tau, built on each access."""
        return [CoupledState(a) for a in self.amplitudes]

    def min_point(self) -> tuple[float, float]:
        """(tau, xi) at the first grid minimum of xi (nan entries skipped)."""
        xs = self.xi
        i = _first_min(xs)
        return float(self.tau_grid[i]), float(xs[i])


def _first_min(xi: np.ndarray) -> int:
    """Flat index of the first grid minimum of xi, nan entries skipped."""
    return int(first_min_index(np.where(np.isnan(xi), np.inf, xi)))


def _check_grid(grid: np.ndarray) -> np.ndarray:
    g = np.asarray(grid, dtype=float)
    if g.ndim != 1 or g.size < 1:
        raise ValueError("tau grid must be a 1-d array")
    if g[0] < 0 or np.any(np.diff(g) <= 0):
        raise ValueError("tau grid must be ascending and start at tau >= 0")
    return g


def trajectory(
    state0: CoupledState,
    stages: list[tuple[Generator, np.ndarray]],
    policy: FramePolicy | None = None,
) -> Trajectory:
    """xi along a piecewise evolution.

    Each stage is (generator, tau grid); stage n+1 starts from the last state
    of stage n and its grid counts time from that point.  The recorded
    tau_grid is cumulative; a stage whose grid starts at 0 contributes no
    duplicate sample for the boundary state.  One xi_batch call evaluates
    all the propagated amplitudes, in its blocks of at most 1,024 rows.
    """
    if policy is None:
        policy = Optimized()
    if not stages:
        raise ValueError("at least one evolution stage is required")
    taus: list[float] = []
    blocks: list[np.ndarray] = []
    labels: list[str] = []
    origin, current = 0.0, state0.vec
    for stage_index, (gen, grid) in enumerate(stages):
        g = _check_grid(grid)
        if stage_index > 0 and g[0] == 0.0:
            g = g[1:]
        if len(g):
            blocks.append(Propagator(gen).propagate(current, g))
            current = blocks[-1][-1]
            taus.extend(origin + t for t in g)
            labels.extend(gen.label for _ in g)
            origin = taus[-1]
    amps = np.concatenate(blocks).reshape(-1, 3, 3)
    xi = xi_batch(amps, policy)
    return Trajectory(np.array(taus), amps, xi, policy, labels)


@dataclass(frozen=True)
class TwoStageScan:
    tau1_grid: np.ndarray
    tau2_grid: np.ndarray
    xi: np.ndarray  # shape (len(tau1_grid), len(tau2_grid))
    min_xi: float
    argmin: tuple[float, float]


def two_stage_minimum(
    state0: CoupledState,
    tau1_grid: np.ndarray,
    tau2_grid: np.ndarray,
    policy: FramePolicy | None = None,
) -> TwoStageScan:
    """Scan xi over pair-exchange time tau1 then cross-quadratic time tau2.

    Returns the full xi surface plus the grid minimum; ties within 1e-14
    resolve to the lexicographically lowest (tau1, tau2).  nan entries
    (undefined xi) are ignored by the minimum.  All cell states come from
    one batched propagation (144 bytes per cell), and one xi_batch call
    evaluates them under any policy (default Optimized()), in its blocks of
    at most 1,024 cells.
    """
    g1 = _check_grid(tau1_grid)
    g2 = _check_grid(tau2_grid)
    prop1, prop2 = Propagator(pair_exchange_generator()), Propagator(cross_quadratic_generator())
    amps = prop2.propagate(prop1.propagate(state0.vec, g1), g2).reshape(-1, 3, 3)
    xi = xi_batch(amps, policy).reshape(g1.size, g2.size)
    i, j = np.unravel_index(_first_min(xi), xi.shape)
    return TwoStageScan(g1, g2, xi, float(xi[i, j]), (float(g1[i]), float(g2[j])))


_BUILTIN_INITIALS = {
    "coherent-11": (1, 1),
    "mixed-10": (1, 0),
}


def builtin_initial(name: str) -> CoupledState:
    """Named initial states for evolution runs: coherent-11 is |1,1> and
    mixed-10 is |1,0>."""
    try:
        m1, m2 = _BUILTIN_INITIALS[name]
    except KeyError:
        raise KeyError(
            f"unknown initial state {name!r}; known: {sorted(_BUILTIN_INITIALS)}"
        ) from None
    return CoupledState.basis(m1, m2)
