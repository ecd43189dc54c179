"""Dense complex linear algebra for 3- and 9-dimensional Hilbert spaces.

Everything operates on plain ``complex128`` numpy arrays.  The matrices
involved are at most 9x9, so the matrix exponential is computed exactly
through a spectral decomposition of the associated Hermitian matrix rather
than a truncated series or Pade approximant; unitarity of the resulting
propagators then holds to machine precision.
"""

from __future__ import annotations

import numpy as np

HERMITIAN_TOL = 1e-12


def as_complex_matrix(m) -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got an array of dimension {a.ndim}")
    return a


def _adjoint_gap(m, sign: float) -> float:
    """max |m - sign m^H| for a square matrix m, inf for a non-square one."""
    a = as_complex_matrix(m)
    return float(np.max(np.abs(a - sign * a.conj().T))) if a.shape[0] == a.shape[1] else np.inf


def is_hermitian(m, tol: float = HERMITIAN_TOL) -> bool:
    return _adjoint_gap(m, 1.0) <= tol


def is_anti_hermitian(m, tol: float = HERMITIAN_TOL) -> bool:
    return _adjoint_gap(m, -1.0) <= tol


_TAG_TESTS = {"hermitian": is_hermitian, "anti_hermitian": is_anti_hermitian}


def check_hermiticity(m, kind: str) -> None:
    """Raise ValueError unless the matrix m is what its hermiticity tag
    ``kind`` ("hermitian" or "anti_hermitian") says."""
    if kind not in _TAG_TESTS:
        raise ValueError(f"unknown kind {kind!r}")
    if not _TAG_TESTS[kind](m):
        raise ValueError(f"matrix violates its {kind} tag")


def kron(a, b) -> np.ndarray:
    """Kronecker product: entry [i*p + k, j*q + l] = a[i, j] * b[k, l]."""
    return np.kron(as_complex_matrix(a), as_complex_matrix(b))


def expectation(state, op) -> complex:
    """<psi|A|psi> for a state vector and an operator of matching dimension.

    The result is returned as a complex number even when A is Hermitian;
    callers that know the operator is Hermitian take the real part.
    """
    psi = np.asarray(state, dtype=complex).ravel()
    a = as_complex_matrix(op)
    if a.shape != (psi.size, psi.size):
        raise ValueError(
            f"operator shape {a.shape} does not match state dimension {psi.size}"
        )
    return complex(psi.conj() @ (a @ psi))


def hermitian_eigh(m, kind: str) -> tuple[np.ndarray, np.ndarray]:
    """eigh of the Hermitian matrix associated with a matrix m of hermiticity
    tag ``kind``: m itself, or i*m for an anti-Hermitian m (whose spectrum
    is then -i times the real eigenvalues)."""
    return np.linalg.eigh(m if kind == "hermitian" else 1j * m)


def matrix_exponential(m, scale, kind: str | None = None) -> np.ndarray:
    """exp(scale * m) for a Hermitian or anti-Hermitian matrix m.

    The exponential is evaluated through the eigendecomposition of the
    associated Hermitian matrix (m itself, or i*m when m is anti-Hermitian),
    so group properties such as exp((a+b)m) = exp(am) exp(bm) and unitarity
    for imaginary spectra hold to rounding error.

    ``kind`` may be "hermitian", "anti_hermitian", or None to autodetect.
    ``scale`` is typically real; complex scales (e.g. -i*tau for a Hermitian
    generator) are accepted and handled exactly the same way.
    """
    a = as_complex_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    if kind is None:
        kind = next((k for k, test in _TAG_TESTS.items() if test(a)), None)
        if kind is None:
            raise ValueError("matrix is neither Hermitian nor anti-Hermitian within tolerance")
    check_hermiticity(a, kind)
    w, v = hermitian_eigh(a, kind)
    eigs = w.astype(complex) if kind == "hermitian" else -1j * w
    return (v * np.exp(scale * eigs)) @ v.conj().T
