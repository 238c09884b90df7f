"""Batched sequence-fidelity kernel for the optimizer hot loop.

Evaluating a genetic-algorithm population means composing thousands of
short delay/pulse propagator chains. The kernel keeps the running
propagator in the eigenbasis of the free Hamiltonian h, where everything
but the pulses is diagonal:

* h is real and block-diagonal in the electron, so each electron block is
  diagonalized on its own. The eigenvector matrix V = diag(V_0, V_1) is
  real orthogonal, and the electron z-rotation Z(phi) = exp(-i phi s_z)
  stays diagonal even when eigenvalues of the two blocks coincide.
* A delay tau is the diagonal exp(-i 2pi w tau).
* A pulse at phase phi is Z(phi) P Z(phi)^dag, where P is the phase-zero
  pulse. The phase-zero drive Hamiltonian at grid point g is real with
  eigenpairs (w_p, V_p), so in the free eigenbasis P = W diag(q) W^T with
  the real mixing matrix W_g = V^T V_p(g) and q = exp(-i 2pi w_p t).

A delay and the z-rotations on either side of it therefore merge into one
row phase, and each pulse costs two left-multiplications by a real
matrix, each run as one real matmul on the float64 view of the complex
propagator. The first pulse acts on a diagonal and needs only one. The
fidelity |Tr(T^dag U)| / d is read off in the same basis with
T~ = V^T T V.
"""
from __future__ import annotations

import numpy as np

from .operators import TWO_PI, assert_hermitian
from .propagation import drive_hamiltonian


def _real_left_mul(a: np.ndarray, u: np.ndarray) -> np.ndarray:
    """a @ u for real a and C-contiguous complex u, as one real matmul."""
    return (a @ u.view(np.float64)).view(np.complex128)


class FitnessKernel:
    """Precomputed batch evaluator: genomes -> per-amplitude fidelities.

    Parameters
    ----------
    h : working-subspace Hamiltonian (MHz); real and block-diagonal in the
        electron, as every register builder in the package produces it
    target : target unitary matrix (or TargetGate)
    omega1s : amplitude grid (MHz)
    n_pulses : number of pulses in the genome template
    """

    def __init__(self, h, target, omega1s, n_pulses):
        self.n_pulses = int(n_pulses)
        if self.n_pulses < 1:
            raise ValueError(f"n_pulses must be >= 1, got {n_pulses}")
        self.omega1s = np.asarray(omega1s, dtype=float).reshape(-1)
        if self.omega1s.size == 0 or not np.isfinite(self.omega1s).all():
            raise ValueError("amplitude grid must be non-empty and finite")
        h = np.asarray(h)
        assert_hermitian(h)
        if np.iscomplexobj(h) and np.any(h.imag != 0):
            raise ValueError("the kernel needs a real Hamiltonian")
        h = h.real
        half = h.shape[0] // 2
        if np.any(h[:half, half:] != 0) or np.any(h[half:, :half] != 0):
            raise ValueError("the kernel needs a Hamiltonian block-diagonal in the electron")

        w_up, v_up = np.linalg.eigh(h[:half, :half])
        w_dn, v_dn = np.linalg.eigh(h[half:, half:])
        self._ws = np.concatenate([w_up, w_dn])
        v = np.zeros_like(h)
        v[:half, :half] = v_up
        v[half:, half:] = v_dn
        self._zhalf = np.repeat([0.5, -0.5], half)

        wp = np.empty((self.omega1s.size, 2 * half))
        mix = np.empty((self.omega1s.size, 2 * half, 2 * half))
        for g, w1 in enumerate(self.omega1s):
            wp[g], vp = np.linalg.eigh(drive_hamiltonian(h, w1, 0.0).real)
            mix[g] = v.T @ vp
        self._wp = wp
        self._mix = mix
        self._mix_t = np.ascontiguousarray(mix.transpose(0, 2, 1))

        u_target = target.matrix if hasattr(target, "matrix") else np.asarray(target)
        self._target_conj = (v.T @ u_target @ v).conj()

    def evaluate(self, genomes) -> np.ndarray:
        """Fidelities of shape (n_genomes, n_grid)."""
        genomes = np.atleast_2d(np.asarray(genomes, dtype=float))
        n = self.n_pulses
        if genomes.shape[1] != 3 * n + 1:
            raise ValueError(f"genomes must have {3 * n + 1} columns, got {genomes.shape[1]}")
        taus = genomes[:, : n + 1]
        ts = genomes[:, n + 1 : 2 * n + 1]
        phis = genomes[:, 2 * n + 1 :]

        # Row phase after delay i: Z(phi_i)^dag exp(-i 2pi w tau_i) Z(phi_{i-1}),
        # with phi_{-1} = phi_n = 0 at the ends of the chain.
        padded = np.pad(phis, ((0, 0), (1, 1)))
        rows = np.exp(-1j * (TWO_PI * taus[:, :, None] * self._ws
                             - np.diff(padded)[:, :, None] * self._zhalf))   # (P, n+1, d)
        q = np.exp(-1j * TWO_PI * ts[:, :, None, None] * self._wp)           # (P, n, G, d)

        u = q[:, 0, :, :, None] * self._mix_t * rows[:, 0, None, None, :]
        u = _real_left_mul(self._mix, u)                                      # (P, G, d, d)
        for i in range(1, n):
            u *= rows[:, i, None, :, None]
            u = _real_left_mul(self._mix_t, u)
            u *= q[:, i, :, :, None]
            u = _real_left_mul(self._mix, u)
        weights = rows[:, n, :, None] * self._target_conj                     # (P, d, d)
        traces = np.einsum("pij,pgij->pg", weights, u)
        return np.abs(traces) / self._ws.size
