"""Batched sequence-fidelity kernel for the optimizer hot loop.

Evaluating a genetic-algorithm population means composing thousands of
short delay/pulse propagator chains of one fixed template: delay, then
pulse and delay n times. The kernel runs that template on the
precompute of ``propagation.PropagationEngine`` (free eigenbasis V, w and
the grid's mixing matrices W), vectorized over a chunk of the population:

* A delay and the z-rotations on either side of it merge into one row
  phase, computed for all genomes of the chunk at once.
* Each pulse is W diag(q) W^T, two left-multiplications by a real matrix,
  each one real matmul on the float64 view of the complex propagator. The
  first pulse acts on a diagonal and needs only one.
* The fidelity |Tr(T^dag U)| / d is read off in the same basis with
  T~ = V^T T V.
* The population runs in chunks under the engine's BATCH_ENTRIES budget,
  through two chunk-sized propagator stacks the kernel keeps, so the chain
  builds no (P, G, d, d) temporaries of the whole population.

``PropagationEngine.propagate`` takes any order of segments and gives the
same propagators up to roundoff.
"""
from __future__ import annotations

import numpy as np

from .fidelity import check_fidelities
from .operators import TWO_PI
from .propagation import BATCH_ENTRIES, PropagationEngine, real_left_mul


class FitnessKernel:
    """Precomputed batch evaluator: genomes -> per-amplitude fidelities.

    Parameters
    ----------
    h : working-subspace Hamiltonian (MHz); real and block-diagonal in the
        electron, as every register builder in the package produces it
    target : target unitary matrix (or TargetGate)
    omega1s : amplitude grid (MHz)
    n_pulses : number of pulses in the genome template

    ``evaluate`` works in two propagator stacks that the kernel keeps, so
    one kernel must not be evaluated from two threads at once.
    """

    def __init__(self, h, target, omega1s, n_pulses):
        self.n_pulses = int(n_pulses)
        if self.n_pulses < 1:
            raise ValueError(f"n_pulses must be >= 1, got {n_pulses}")
        self.omega1s = np.asarray(omega1s, dtype=float).reshape(-1)
        if self.omega1s.size == 0:
            raise ValueError("amplitude grid must be non-empty")
        self.engine = PropagationEngine(h, self.omega1s)
        u_target = target.matrix if hasattr(target, "matrix") else np.asarray(target)
        self._target_conj = self.engine.to_eigenbasis(u_target).conj()
        # The chain of a chunk alternates between two kept propagator stacks:
        # a fresh stack per chunk or call would grow and trim the heap and
        # fault its pages back in each time.
        g, d = self.omega1s.size, self.engine.dim
        self._chunk = max(1, BATCH_ENTRIES // (g * d * d))
        self._stacks = np.empty((2, self._chunk, g, d, d), dtype=complex)

    def evaluate(self, genomes) -> np.ndarray:
        """Fidelities of shape (n_genomes, n_grid).

        The population runs in chunks of at most BATCH_ENTRIES / (G d^2)
        genomes, so the (P, G, d, d) working set stays in cache; a genome
        gets the same row bit for bit alone, in any chunk and in any batch.
        A fidelity that is not finite or exceeds 1 raises RuntimeError.
        """
        genomes = np.atleast_2d(np.asarray(genomes, dtype=float))
        n = self.n_pulses
        if genomes.shape[1] != 3 * n + 1:
            raise ValueError(f"genomes must have {3 * n + 1} columns, got {genomes.shape[1]}")
        # Row phase after delay i: Z(phi_i)^dag exp(-i 2pi w tau_i) Z(phi_{i-1}),
        # with phi_{-1} = phi_n = 0 at the ends of the chain.
        dphis = np.diff(genomes[:, 2 * n + 1 :], prepend=0.0, append=0.0)    # (P, n+1)
        fids = np.empty((len(genomes), self.omega1s.size))
        for start in range(0, len(genomes), self._chunk):
            chunk = slice(start, start + self._chunk)
            fids[chunk] = self._fidelities(genomes[chunk], dphis[chunk])
        check_fidelities(fids)
        return fids

    def _fidelities(self, genomes: np.ndarray, dphis: np.ndarray) -> np.ndarray:
        """Fidelities of one chunk of at most self._chunk genomes, whose
        phase steps between delays are `dphis`."""
        n = self.n_pulses
        taus = genomes[:, : n + 1]
        ts = genomes[:, n + 1 : 2 * n + 1]

        e = self.engine
        rows = np.exp(-1j * (TWO_PI * taus[:, :, None] * e.w
                             - dphis[:, :, None] * e.zhalf))                  # (P, n+1, d)
        q = np.exp(-1j * TWO_PI * ts[:, :, None, None] * e.w_p)              # (P, n, G, d)

        u, spare = self._stacks[:, : len(genomes)]                           # (P, G, d, d)
        np.multiply(q[:, 0, :, :, None], e.mix_t, out=u)
        u *= rows[:, 0, None, None, :]
        u, spare = real_left_mul(e.mix, u, out=spare), u
        for i in range(1, n):
            u *= rows[:, i, None, :, None]
            u, spare = real_left_mul(e.mix_t, u, out=spare), u
            u *= q[:, i, :, :, None]
            u, spare = real_left_mul(e.mix, u, out=spare), u
        weights = rows[:, n, :, None] * self._target_conj                     # (P, d, d)
        traces = np.einsum("pij,pgij->pg", weights, u)
        return np.abs(traces) / e.dim
