"""Exact propagators for delays and microwave pulses.

Hamiltonians are stored as H/2pi in MHz, so a duration t in microseconds
propagates as U = exp(-i 2pi H t), evaluated by eigendecomposition. The
drive is resonant with the electron pseudo-qubit transition; a pulse of
amplitude omega1 (MHz) and phase phi adds
omega1 * (cos phi s_x + sin phi s_y) ⊗ E to the free Hamiltonian.
"""
from __future__ import annotations

import numpy as np

from .operators import TWO_PI, assert_hermitian, electron_drive_ops
from .sequence import Delay, Pulse, PulseSequence


def assert_unitary(u: np.ndarray, tol: float = 1e-10) -> None:
    dim = u.shape[0]
    resid = np.abs(u.conj().T @ u - np.eye(dim)).max()
    if resid > tol:
        raise ValueError(f"matrix is not unitary: residual {resid:.3e} > {tol:.1e}")


def expm_hermitian(h: np.ndarray, t: float) -> np.ndarray:
    """exp(-i 2pi h t) for Hermitian h (MHz) and duration t (us)."""
    assert_hermitian(h)
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * TWO_PI * w * t)) @ v.conj().T


def free_propagator(h: np.ndarray, tau: float) -> np.ndarray:
    """Propagator for a delay of tau microseconds under h."""
    if tau < 0:
        raise ValueError("delay must be non-negative")
    return expm_hermitian(h, tau)


def drive_hamiltonian(h: np.ndarray, omega1: float, phi: float) -> np.ndarray:
    """Free Hamiltonian plus the resonant drive term at phase phi."""
    n_carbons = int(np.log2(h.shape[0])) - 1
    sx, sy = electron_drive_ops(n_carbons)
    return omega1 * (np.cos(phi) * sx + np.sin(phi) * sy) + h


def pulse_propagator(h: np.ndarray, omega1: float, phi: float, t: float) -> np.ndarray:
    """Propagator for a pulse of duration t, amplitude omega1, phase phi.

    omega1 = 0 reduces exactly to the free propagator.
    """
    if omega1 < 0:
        raise ValueError("omega1 must be non-negative")
    if t < 0:
        raise ValueError("pulse duration must be non-negative")
    return expm_hermitian(drive_hamiltonian(h, omega1, phi), t)


def segment_propagator(segment, h: np.ndarray, omega1: float) -> np.ndarray:
    if isinstance(segment, Delay):
        return free_propagator(h, segment.tau)
    if isinstance(segment, Pulse):
        return pulse_propagator(h, omega1, segment.phi, segment.t)
    raise TypeError(f"unknown segment type: {type(segment).__name__}")


def sequence_propagator(
    seq: PulseSequence, h: np.ndarray, omega1: float | None = None
) -> np.ndarray:
    """Time-ordered propagator of the whole sequence (first segment acts first).

    `omega1` overrides the sequence amplitude, e.g. for robustness grids.
    """
    amp = seq.omega1 if omega1 is None else omega1
    u = np.eye(h.shape[0], dtype=complex)
    for segment in seq.segments:
        u = segment_propagator(segment, h, amp) @ u
    return u
