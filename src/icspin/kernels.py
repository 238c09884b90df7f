"""Batched sequence-fidelity kernel for the optimizer and robust_fidelity.

Evaluating a genetic-algorithm population means composing thousands of
short delay/pulse propagator chains of one fixed template: delay, then
pulse and delay n times. The kernel runs the template on
``PropagationEngine.chain`` over its amplitude grid:

* The fidelity |Tr(T^dag U)| / d is read off in the free eigenbasis with
  T~ = V^T T V, the row phase of the last delay folded into T~.
* The work runs in chunks under the BATCH_ENTRIES budget: several genomes
  on the whole grid, or one genome on a slice of the grid when its grid
  alone exceeds the budget (16 points at d = 32). Two chunk-sized
  propagator stacks that the kernel keeps hold every chunk, so the chain
  builds no (P, G, d, d) temporaries of the whole population.
"""
from __future__ import annotations

import numpy as np

from .propagation import BATCH_ENTRIES, PropagationEngine

FIDELITY_SLACK = 1e-9   # roundoff allowed above a fidelity of 1


def check_fidelities(fids: np.ndarray) -> None:
    """Raise RuntimeError, an internal invariant violation, if a fidelity
    is not finite or exceeds 1 + FIDELITY_SLACK."""
    bad = ~(fids <= 1.0 + FIDELITY_SLACK)   # NaN compares False
    if bad.any():
        raise RuntimeError(f"fidelity outside [0, 1]: {fids[bad]}")


class FitnessKernel:
    """Precomputed batch evaluator: genomes -> per-amplitude fidelities.

    Parameters
    ----------
    h : working-subspace Hamiltonian (MHz); real and block-diagonal in the
        electron, as every register builder in the package produces it
    target : target unitary matrix (or TargetGate)
    omega1s : amplitude grid (MHz)
    n_pulses : number of pulses in the genome template; 0 is one delay

    ``evaluate`` works in two propagator stacks that the kernel keeps, so
    one kernel must not be evaluated from two threads at once.
    """

    def __init__(self, h, target, omega1s, n_pulses):
        self.n_pulses = int(n_pulses)
        if self.n_pulses < 0:
            raise ValueError(f"n_pulses must be >= 0, got {n_pulses}")
        self.omega1s = np.asarray(omega1s, dtype=float).reshape(-1)
        if self.omega1s.size == 0:
            raise ValueError("amplitude grid must be non-empty")
        self.engine = PropagationEngine(h, self.omega1s)
        u_target = target.matrix if hasattr(target, "matrix") else np.asarray(target)
        g, d = self.omega1s.size, self.engine.dim
        if u_target.shape != (d, d):
            raise ValueError(f"dimension mismatch: {(d, d)} vs {u_target.shape}")
        self._target_conj = self.engine.to_eigenbasis(u_target).conj()
        # Every chunk runs in two kept propagator stacks: a fresh stack per
        # chunk or call would grow and trim the heap and fault its pages
        # back in each time. Grid slices and their stack views are fixed
        # here, so a call pays no set-up per chunk.
        points = min(g, max(1, BATCH_ENTRIES // (d * d)))
        self._chunk = max(1, BATCH_ENTRIES // (points * d * d))
        stacks = np.empty((2, self._chunk, points, d, d), dtype=complex)
        self._grid_chunks = [(slice(s, s + points), stacks[:, :, : min(points, g - s)])
                             for s in range(0, g, points)]

    def evaluate(self, genomes) -> np.ndarray:
        """Fidelities of shape (n_genomes, n_grid).

        Chunks hold at most BATCH_ENTRIES / (G d^2) genomes on the whole
        grid, or one genome on BATCH_ENTRIES / d^2 grid points, so the
        working set stays in cache; a genome gets the same row bit for bit
        alone, in any chunk and in any batch. A fidelity that is not finite
        or exceeds 1 raises RuntimeError.
        """
        genomes = np.atleast_2d(np.asarray(genomes, dtype=float))
        n = self.n_pulses
        if genomes.shape[1] != 3 * n + 1:
            raise ValueError(f"genomes must have {3 * n + 1} columns, got {genomes.shape[1]}")
        dphis = np.diff(genomes[:, 2 * n + 1 :], prepend=0.0, append=0.0)    # (P, n+1)
        fids = np.empty((len(genomes), self.omega1s.size))
        for start in range(0, len(genomes), self._chunk):
            chunk = slice(start, start + self._chunk)
            for grid, stacks in self._grid_chunks:
                u, spare = stacks[:, : len(genomes[chunk])]
                u, last = self.engine.chain(genomes[chunk], dphis[chunk], u, spare, grid)
                weights = last[:, :, None] * self._target_conj                # (P, d, d)
                traces = np.einsum("pij,pgij->pg", weights, u)
                fids[chunk, grid] = np.abs(traces) / self.engine.dim
        check_fidelities(fids)
        return fids
