"""The spin-1/2 algebra and the register's tensor order.

Every 2x2 spin matrix of the package is defined here: the Pauli matrices,
the Hadamard, the projectors and the closed-form rotation, all dense
complex128. Spin-1/2 operators use s_z = diag(+1/2, -1/2) = PAULI_Z / 2;
the electron pseudo-qubit m_S = 0, m_s is one too, |0> playing "up".
`on_register` alone writes the register's order: electron, then carbons
by label. The two input rules of the library live here too, `check_count`
for every count and `check_real` for every real-valued input, each returning
the Python int or float it checked, beside `ConfigError`, the package's one
error type: every refused input raises it.
"""
from __future__ import annotations

import math
from numbers import Real

import numpy as np

TWO_PI = 2.0 * np.pi

E2 = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
HADAMARD_2 = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
PROJ_UP = np.diag([1.0, 0.0]).astype(complex)     # |up><up|: electron |0><0|
PROJ_DOWN = np.diag([0.0, 1.0]).astype(complex)   # |dn><dn|: electron |m_s><m_s|


def rotation(angle: float, axis_phi: float) -> np.ndarray:
    """exp(-i angle (cos phi s_x + sin phi s_y)) in closed form:
    cos(angle/2) E2 - i sin(angle/2) (cos phi sigma_x + sin phi sigma_y).

    axis_phi = 0 is an x rotation, pi/2 a y rotation.
    """
    c, s = np.cos(angle / 2), -1j * np.sin(angle / 2)
    return np.array([[c, s * np.exp(-1j * axis_phi)], [s * np.exp(1j * axis_phi), c]])


def on_register(electron_op: np.ndarray, n_carbons: int, carbons=None) -> np.ndarray:
    """electron_op ⊗ carbon 1 ⊗ ... ⊗ carbon n folded left to right, the
    register's one tensor order: ``carbons`` maps a label to its 2x2 operator,
    every other slot is a real np.eye(2), and the dtype is numpy's promotion."""
    out, carbons = np.array(electron_op), carbons or {}
    for label in range(1, n_carbons + 1):
        out = np.kron(out, carbons.get(label, np.eye(2)))
    return out


class ConfigError(ValueError):
    """A refused input value: a malformed or physically invalid register, sequence, target
    or search setting, a scan input or an amplitude band out of range, a document that
    cannot be read. The package's one error type; the CLI exits 1 on it."""


def check_count(value, where: str, low: int, high: int | None = None, *,
                error: type[Exception] = ConfigError) -> int:
    """The one rule of a count: return ``int(value)``, or raise `error`,
    naming `where`, unless `value` is a Python or numpy integer from `low`
    to `high` (no ceiling for None). A bool, a float (a whole one too), a
    string and None are refused. A code-supplied argument passes
    ``error=ValueError``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < low:
        raise error(f"{where} must be an integer >= {low}, got {value!r}")
    if high is not None and value > high:
        raise error(f"{where} must be at most {high}, got {value}")
    return int(value)


def check_real(value, where: str, low: float = -math.inf, high: float = math.inf,
               ends: str = "[]") -> float:
    """The one range rule of a real-valued input: return ``float(value)``,
    or raise ConfigError, naming `where`, unless `value` is a Python or
    numpy real number, finite, from `low` to `high`, each end closed or open
    as `ends` ("[]", "[)", "(]" or "()") says. A bool, a numpy bool, a
    string, None, NaN and an int past the float range are refused."""
    if isinstance(value, bool) or not isinstance(value, Real):
        raise ConfigError(f"{where} must be a number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:
        raise ConfigError(f"{where} is out of the float range") from None
    if not (math.isfinite(x) and (low < x if ends[0] == "(" else low <= x)
            and (x < high if ends[1] == ")" else x <= high)):
        left, right = "(" if low == -math.inf else ends[0], ")" if high == math.inf else ends[1]
        raise ConfigError(f"{where} must be finite and in {left}{low:g}, {high:g}{right}, "
                          f"got {value}")
    return x


def assert_hermitian(h: np.ndarray) -> None:
    """Raise ValueError if `h` deviates from Hermiticity beyond 1e-12 of its
    largest matrix element (or of 1, if that is larger), or holds NaN."""
    scale = max(np.abs(h).max(), 1.0)
    resid = np.abs(h - h.conj().T).max()
    if not resid <= 1e-12 * scale:   # NaN fails this too
        raise ValueError(f"matrix is not Hermitian: residual {resid:.3e} > 1.0e-12 * {scale:.3e}")
