"""Shared helpers: seeded random states and frames, rotations, hypothesis profile."""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from spinsqueeze import (
    CoupledState,
    Frame,
    Propagator,
    builtin_initial,
    cross_quadratic_generator,
    matrix_exponential,
    pair_exchange_generator,
    spin_component,
)

settings.register_profile(
    "suite",
    deadline=None,
    derandomize=True,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


def random_coupled(rng) -> CoupledState:
    raw = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    return CoupledState.normalized(raw)


def random_unit(rng) -> np.ndarray:
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)


def random_frame(rng) -> Frame:
    n = random_unit(rng)
    t = rng.standard_normal(3)
    t -= np.dot(t, n) * n
    t /= np.linalg.norm(t)
    return Frame(n, t, np.cross(n, t))


def rotation_matrix(axis: np.ndarray, angle: float) -> np.ndarray:
    """Rodrigues rotation about a unit axis."""
    k = np.asarray(axis, dtype=float)
    kx = np.array([[0.0, -k[2], k[1]], [k[2], 0.0, -k[0]], [-k[1], k[0], 0.0]])
    return np.eye(3) + math.sin(angle) * kx + (1.0 - math.cos(angle)) * (kx @ kx)


def rotate_coupled(state: CoupledState, axis: np.ndarray, angle: float) -> CoupledState:
    """Apply the same SU(2) rotation exp(-i angle axis.S) to both subsystems."""
    u = matrix_exponential(spin_component(axis), scale=-1j * angle, kind="hermitian")
    return CoupledState.normalized(u @ state.c @ u.T)


def rotate_local(state: CoupledState, axis1: np.ndarray, angle1: float, axis2: np.ndarray,
                 angle2: float) -> CoupledState:
    """Apply independent SU(2) rotations exp(-i angle_k axis_k.S) to the two
    subsystems."""
    u1 = matrix_exponential(spin_component(axis1), scale=-1j * angle1, kind="hermitian")
    u2 = matrix_exponential(spin_component(axis2), scale=-1j * angle2, kind="hermitian")
    return CoupledState.normalized(u1 @ state.c @ u2.T)


def two_stage_amplitudes(grid: np.ndarray) -> np.ndarray:
    """Amplitude matrices (len(grid)**2, 3, 3) of the coherent-11 two-stage
    scan over grid x grid, row-major in (tau1, tau2), as two_stage_minimum
    propagates them."""
    stage1 = Propagator(pair_exchange_generator()).propagate(builtin_initial("coherent-11").vec, grid)
    return Propagator(cross_quadratic_generator()).propagate(stage1, grid).reshape(-1, 3, 3)


@pytest.fixture
def rng():
    return np.random.default_rng(20240815)
