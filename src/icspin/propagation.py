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

  Any sequence maps to the template genome: delay, then pulse and delay
  n times. A delay and the z-rotations on either side of it merge into one
  row phase, and each pulse costs two left-multiplications by a real
  matrix, each run as one real matmul on the float64 view of the complex
  propagator. ``PropagationEngine.chain`` is that one chain; ``propagate``
  and the fitness kernel, and through it ``robust_fidelity``, all run on it.
"""
from __future__ import annotations

import numpy as np

from .operators import TWO_PI, assert_hermitian, electron_drive_ops
from .sequence import PulseSequence, genome_from_sequence

# The fitness kernel's chunking budget: each chunk of genomes, or of grid
# points of one genome, propagates at most this many entries (stack size
# times d^2) per step. At d = 32 that is a stack of 32 propagators, 512 kB,
# which stays in a core's cache. When the chunks run on several threads,
# every numpy call of the chain releases and retakes the interpreter lock;
# calls on twice the 2**14 entries that suffice for one thread halve those
# hand-overs per genome, and one thread runs as fast on either budget.
BATCH_ENTRIES = 2**15


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


def real_left_mul(a: np.ndarray, u: np.ndarray, out: np.ndarray) -> np.ndarray:
    """a @ u for real a and C-contiguous complex u, as one real matmul into
    the C-contiguous complex `out`."""
    return np.matmul(a, u.view(np.float64), out=out.view(np.float64)).view(np.complex128)


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
    mix : (G, d, d) real mixing matrices W = V^T V_p; the chain reads W^T as
        a transposed view
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

    @property
    def dim(self) -> int:
        return self.w.size

    def to_eigenbasis(self, m: np.ndarray) -> np.ndarray:
        """V^T m V: an operator of the lab basis in the free eigenbasis."""
        return self.v.T @ m @ self.v

    def to_lab(self, u: np.ndarray) -> np.ndarray:
        """V u V^T for one operator or a stack of them."""
        return self.v @ u @ self.v.T

    def chain(self, genomes, dphis, u, spare, grid):
        """Propagators of template genomes on the grid points `grid`, in the
        free eigenbasis, less the row phase of the last delay.

        A genome [tau_0..tau_n, t_1..t_n, phi_1..phi_n] is delay, then pulse
        and delay n times; dphis[:, i] = phi_{i+1} - phi_i, with phi_0 =
        phi_{n+1} = 0. The chain alternates between the C-contiguous
        (P, len(grid), d, d) stacks `u` and `spare` and returns the one
        holding the result (the identity when n = 0) and the (P, d) row
        phase of the last delay.
        """
        n = dphis.shape[1] - 1
        taus = genomes[:, : n + 1]
        ts = genomes[:, n + 1 : 2 * n + 1]
        rows = np.exp(-1j * (TWO_PI * taus[:, :, None] * self.w
                             - dphis[:, :, None] * self.zhalf))               # (P, n+1, d)
        if n == 0:
            u[...] = np.eye(self.dim)
            return u, rows[:, 0]
        mix = self.mix[grid]
        mix_t = mix.transpose(0, 2, 1)
        q = np.exp(-1j * TWO_PI * ts[:, :, None, None] * self.w_p[grid])      # (P, n, G, d)
        np.multiply(q[:, 0, :, :, None], mix_t, out=u)
        u *= rows[:, 0, None, None, :]
        u, spare = real_left_mul(mix, u, out=spare), u
        for i in range(1, n):
            u *= rows[:, i, None, :, None]
            u, spare = real_left_mul(mix_t, u, out=spare), u
            u *= q[:, i, :, :, None]
            u, spare = real_left_mul(mix, u, out=spare), u
        return u, rows[:, n]

    def propagate(self, segments) -> np.ndarray:
        """Propagators of `segments` at every grid point, in the free eigenbasis.

        The first segment acts first. Any order of delays and pulses is
        accepted, the empty one included: the segments run through
        ``chain`` as their template genome (``genome_from_sequence``).
        Returns shape (G, d, d).
        """
        seq = PulseSequence(tuple(segments), 0.0)
        genome = genome_from_sequence(seq)[None]
        dphis = np.diff(genome[:, 2 * seq.n_pulses + 1 :], prepend=0.0, append=0.0)
        u = np.empty((1, self.omega1s.size, self.dim, self.dim), dtype=complex)
        u, last = self.chain(genome, dphis, u, np.empty_like(u), slice(None))
        u *= last[:, None, :, None]
        return u[0]


def sequence_propagator(
    seq: PulseSequence, h: np.ndarray, omega1: float | None = None
) -> np.ndarray:
    """Time-ordered propagator of the whole sequence (first segment acts first).

    `omega1` overrides the sequence amplitude, e.g. for robustness grids.
    """
    amp = seq.omega1 if omega1 is None else omega1
    engine = PropagationEngine(h, [amp])
    return engine.to_lab(engine.propagate(seq.segments)[0])
