"""Exact propagators for delays and microwave pulses.

Hamiltonians are stored as H/2pi in MHz, so a duration t in microseconds
propagates as U = exp(-i 2pi H t). The drive is resonant with the electron
pseudo-qubit transition; a pulse of amplitude omega1 (MHz) and phase phi
adds omega1 * (cos phi s_x + sin phi s_y) ⊗ E to the free Hamiltonian.

Two layers:

* ``expm_hermitian``, ``free_propagator`` and ``pulse_propagator`` are the
  single-segment primitives. They take any Hermitian h and run one
  eigendecomposition per call.
* ``PropagationEngine`` composes whole sequences of delays and pulses over
  an amplitude grid in the eigenbasis of the free Hamiltonian h. Every
  register builder in the package gives a real h that is block-diagonal in
  the electron, and the engine relies on both:

  - Each electron block is diagonalized on its own. The eigenvector matrix
    V = diag(V_0, V_1) is real orthogonal, and the electron z-rotation
    Z(phi) = exp(-i phi s_z) stays diagonal even when eigenvalues of the
    two blocks coincide.
  - A delay tau is the diagonal exp(-i 2pi w tau).
  - A pulse at phase phi is Z(phi) P Z(phi)^dag, where P is the phase-zero
    pulse. The phase-zero drive Hamiltonian at grid point g is real with
    eigenpairs (w_p, V_p), so in the free eigenbasis P = W diag(q) W^T with
    the real mixing matrix W_g = V^T V_p(g) and q = exp(-i 2pi w_p t). The
    drive Hamiltonians of the whole grid go through one batched eigh.

  Delays and the z-rotations around a pulse therefore collect into one
  pending diagonal, and each pulse costs two left-multiplications by a real
  matrix, each run as one real matmul on the float64 view of the complex
  propagator. ``PropagationEngine.propagate`` takes any order of segments;
  the fitness kernel's genome fast path runs on the same precompute.
"""
from __future__ import annotations

import numpy as np

from .operators import TWO_PI, assert_hermitian, electron_drive_ops
from .sequence import Delay, Pulse, PulseSequence

# The engine's one chunking budget: robust_fidelity's grid chunks and the
# fitness kernel's population chunks propagate at most this many entries
# (stack size times d^2) per step. At d = 32 that is a stack of 16
# propagators, 256 kB, which stays in cache.
BATCH_ENTRIES = 2**14


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


def pulse_propagator(h: np.ndarray, omega1: float, phi: float, t: float) -> np.ndarray:
    """Propagator for a pulse of duration t, amplitude omega1, phase phi.

    omega1 = 0 reduces exactly to the free propagator.
    """
    if omega1 < 0:
        raise ValueError("omega1 must be non-negative")
    if t < 0:
        raise ValueError("pulse duration must be non-negative")
    sx, sy = electron_drive_ops(int(np.log2(h.shape[0])) - 1)
    return expm_hermitian(omega1 * (np.cos(phi) * sx + np.sin(phi) * sy) + h, t)


def real_left_mul(a: np.ndarray, u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """a @ u for real a and C-contiguous complex u, as one real matmul,
    optionally into the C-contiguous complex `out`."""
    out = None if out is None else out.view(np.float64)
    return np.matmul(a, u.view(np.float64), out=out).view(np.complex128)


class PropagationEngine:
    """Free eigensystem of h and phase-zero pulse eigensystems on a grid.

    Parameters
    ----------
    h : working-subspace Hamiltonian (MHz); real and block-diagonal in the
        electron
    omega1s : amplitude grid (MHz), finite and non-negative; may be empty
        when only delays are propagated

    Attributes
    ----------
    v, w : real eigenvectors (columns) and eigenvalues of h, block by block
    zhalf : the s_z eigenvalue (+1/2 or -1/2) of each eigenvector
    w_p : (G, d) eigenvalues of the phase-zero drive Hamiltonian per grid point
    mix, mix_t : (G, d, d) real mixing matrices W = V^T V_p and their transposes
    """

    def __init__(self, h, omega1s=()):
        h = np.asarray(h)
        assert_hermitian(h)
        if np.iscomplexobj(h) and np.any(h.imag != 0):
            raise ValueError("the propagation engine needs a real Hamiltonian")
        h = h.real
        half = h.shape[0] // 2
        if np.any(h[:half, half:] != 0) or np.any(h[half:, :half] != 0):
            raise ValueError(
                "the propagation engine needs a Hamiltonian block-diagonal in the electron")
        self.omega1s = np.asarray(omega1s, dtype=float).reshape(-1)
        if not np.isfinite(self.omega1s).all() or np.any(self.omega1s < 0):
            raise ValueError("amplitude grid must be finite and non-negative")

        w_up, v_up = np.linalg.eigh(h[:half, :half])
        w_dn, v_dn = np.linalg.eigh(h[half:, half:])
        self.w = np.concatenate([w_up, w_dn])
        self.v = np.zeros_like(h)
        self.v[:half, :half] = v_up
        self.v[half:, half:] = v_dn
        self.zhalf = np.repeat([0.5, -0.5], half)

        drive = np.zeros_like(h)
        drive[:half, half:] = drive[half:, :half] = 0.5 * np.eye(half)
        self.w_p, v_p = np.linalg.eigh(h + self.omega1s[:, None, None] * drive)
        self.mix = self.v.T @ v_p
        self.mix_t = np.ascontiguousarray(self.mix.transpose(0, 2, 1))

    @property
    def dim(self) -> int:
        return self.w.size

    def to_eigenbasis(self, m: np.ndarray) -> np.ndarray:
        """V^T m V: an operator of the lab basis in the free eigenbasis."""
        return self.v.T @ m @ self.v

    def to_lab(self, u: np.ndarray) -> np.ndarray:
        """V u V^T for one operator or a stack of them."""
        return self.v @ u @ self.v.T

    def propagate(self, segments) -> np.ndarray:
        """Propagators of `segments` at every grid point, in the free eigenbasis.

        The first segment acts first. Any order of delays and pulses is
        accepted, the empty one included. Returns shape (G, d, d).
        """
        pending = np.ones(self.dim, dtype=complex)   # diagonal not yet applied
        u = None                                     # None: nothing but `pending` yet
        for seg in segments:
            if isinstance(seg, Delay):
                pending *= np.exp(-1j * TWO_PI * seg.tau * self.w)
            elif isinstance(seg, Pulse):
                z_dag = np.exp(1j * seg.phi * self.zhalf)
                pending *= z_dag
                if u is None:
                    # The matmuls alternate between two stacks instead of
                    # allocating, and faulting in, a fresh one each.
                    u = self.mix_t * pending
                    spare = np.empty_like(u)
                else:
                    u *= pending[:, None]
                    u, spare = real_left_mul(self.mix_t, u, out=spare), u
                u *= np.exp(-1j * TWO_PI * seg.t * self.w_p)[:, :, None]
                u, spare = real_left_mul(self.mix, u, out=spare), u
                pending = z_dag.conj()
            else:
                raise TypeError(f"unknown segment type: {type(seg).__name__}")
        if u is None:
            return np.broadcast_to(np.diag(pending), (self.omega1s.size,) + (self.dim,) * 2).copy()
        u *= pending[:, None]
        return u


def sequence_propagator(
    seq: PulseSequence, h: np.ndarray, omega1: float | None = None
) -> np.ndarray:
    """Time-ordered propagator of the whole sequence (first segment acts first).

    `omega1` overrides the sequence amplitude, e.g. for robustness grids.
    """
    amp = seq.omega1 if omega1 is None else omega1
    engine = PropagationEngine(h, [amp])
    return engine.to_lab(engine.propagate(seq.segments)[0])
