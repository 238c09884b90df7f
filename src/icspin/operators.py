"""Angular-momentum operators and tensor-product helpers.

All matrices are dense complex128 numpy arrays. Spin-1/2 operators use the
convention s_z = diag(+1/2, -1/2).
"""
from __future__ import annotations

import numpy as np

TWO_PI = 2.0 * np.pi

E2 = np.eye(2, dtype=complex)

# spin-1/2 (also used for the electron pseudo-qubit spanned by m_S = 0, -1,
# with |0> playing the role of "up")
SX_HALF = np.array([[0.0, 0.5], [0.5, 0.0]], dtype=complex)
SZ_HALF = np.array([[0.5, 0.0], [0.0, -0.5]], dtype=complex)


def kron_all(*ops: np.ndarray) -> np.ndarray:
    """Kronecker product of the given operators, left to right."""
    out = np.asarray(ops[0], dtype=complex)
    for op in ops[1:]:
        out = np.kron(out, op)
    return out


def is_integer(value) -> bool:
    """True for a Python or numpy integer; False for a bool and for anything
    else, a whole float or a digit string included."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def assert_hermitian(h: np.ndarray) -> None:
    """Raise ValueError if `h` deviates from Hermiticity beyond 1e-12 of its
    largest matrix element (or of 1, if that is larger)."""
    scale = max(np.abs(h).max(), 1.0)
    resid = np.abs(h - h.conj().T).max()
    if resid > 1e-12 * scale:
        raise ValueError(f"matrix is not Hermitian: residual {resid:.3e} > 1.0e-12 * {scale:.3e}")
