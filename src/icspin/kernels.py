"""Batched sequence-fidelity kernel for the optimizer and robust_fidelity.

Evaluating a genetic-algorithm population means composing thousands of
short delay/pulse propagator chains of one fixed template: delay, then
pulse and delay n times. The kernel runs the template on
``PropagationEngine.chain`` over its amplitude grid:

* The fidelity |Tr(T^dag U)| / d is read off in the free eigenbasis with
  T~ = V^T T V, the row phase of the last delay folded into T~.
* The work runs in chunks under the BATCH_ENTRIES budget: several genomes
  on the whole grid, or one genome on a slice of the grid when its grid
  alone exceeds the budget (32 points at d = 32). Two propagator stacks
  and the pulse phases, each as deep as the deepest chunk so far, hold
  every chunk, so the chain builds no temporaries of a chunk's size, and
  a call on a few genomes makes stacks of a few genomes.
* A call runs its genome chunks on min(``cpu_workers()``, chunks) threads:
  the calling thread and the threads of an executor that the call opens
  and joins before it returns. Each thread works in two stacks of its own,
  and takes the next chunk not yet taken until none is left, so a thread
  on a busy CPU takes fewer. A chunk's arithmetic does not depend on the
  thread that runs it, so the result is bit for bit the same for any
  number of CPUs. The grid slices of one genome stay on one thread, so a
  single genome (``robust_fidelity``) runs serially, and with one CPU or
  one chunk no thread starts.
"""
from __future__ import annotations

import os
import threading

import numpy as np

from .propagation import engine_for
from .sequence import check_pulses, genome_length
from .targets import TargetGate

FIDELITY_SLACK = 1e-9   # roundoff allowed above a fidelity of 1

# The chunking budget: each chunk of genomes, or of grid points of one
# genome, propagates at most this many entries (stack size times d^2) per
# step. At d = 32 that is a stack of 32 propagators, 512 kB, which stays in
# a core's cache. When the chunks run on several threads, every numpy call
# of the chain releases and retakes the interpreter lock; calls on twice the
# 2**14 entries that suffice for one thread halve those hand-overs per
# genome, and one thread runs as fast on either budget.
BATCH_ENTRIES = 2**15


def cpu_workers() -> int:
    """The CPUs this process may run on: its affinity mask where the
    platform has one, else the machine's CPU count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:   # the platform keeps no affinity mask
        return os.cpu_count() or 1


def _dealer(items):
    """A function that hands out `items` one at a time, to any thread,
    each once, and then None."""
    remaining = iter(items)
    lock = threading.Lock()

    def deal():
        with lock:
            return next(remaining, None)

    return deal


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
    target : the TargetGate
    omega1s : amplitude grid (MHz)
    n_pulses : number of pulses in the genome template, 0 (one delay) to MAX_PULSES

    ``evaluate`` works in propagator stacks and pulse phases that the
    kernel keeps, one set per thread a call has run on, as deep as the
    deepest chunk a call on that thread has needed: a call makes the sets
    it lacks and replaces those too shallow for its chunks. So one kernel
    is not re-entrant: it must not be evaluated from two threads at once.
    Different kernels may be.
    """

    def __init__(self, h, target: TargetGate, omega1s, n_pulses):
        check_pulses(n_pulses, "n_pulses", 0)
        self.n_pulses = int(n_pulses)
        if np.size(omega1s) == 0:
            raise ValueError("amplitude grid must be non-empty")
        self.engine = engine_for(h, omega1s)
        g, d = self.engine.omega1s.size, self.engine.dim
        if target.matrix.shape != (d, d):
            raise ValueError(f"dimension mismatch: {(d, d)} vs {target.matrix.shape}")
        self._target_conj = self.engine.to_eigenbasis(target.matrix).conj()
        self._points = min(g, max(1, BATCH_ENTRIES // (d * d)))
        self._chunk = max(1, BATCH_ENTRIES // (self._points * d * d))
        self._grid_slices = [slice(s, min(s + self._points, g))
                             for s in range(0, g, self._points)]
        # per thread a call has run on: two propagator stacks and the pulse phases
        self._stacks, self._pulses = [], []

    def evaluate(self, genomes) -> np.ndarray:
        """Fidelities of shape (n_genomes, n_grid).

        Chunks hold at most BATCH_ENTRIES / (G d^2) genomes on the whole
        grid, or one genome on BATCH_ENTRIES / d^2 grid points, so the
        working set stays in cache; a genome gets the same row bit for bit
        alone, in any chunk, in any batch and on any number of threads. A
        fidelity that is not finite or exceeds 1 raises RuntimeError, once
        every thread has finished.
        """
        genomes = np.atleast_2d(np.asarray(genomes, dtype=float))
        if genomes.ndim != 2:
            raise ValueError("genomes must be one genome or a 2-D array of them, "
                             f"got shape {genomes.shape}")
        width = genome_length(self.n_pulses)
        if genomes.shape[1] != width:
            raise ValueError(f"genomes must have {width} columns, got {genomes.shape[1]}")
        starts = range(0, len(genomes), self._chunk)
        threads = max(1, min(cpu_workers(), len(starts)))
        d, depth = self.engine.dim, min(self._chunk, len(genomes))   # this call's deepest chunk
        for i in range(threads):   # make the stacks it lacks, replace those too shallow
            if i == len(self._stacks) or self._stacks[i].shape[1] < depth:
                # at i == len(self._stacks) the slice assignments append
                self._stacks[i:i + 1] = [np.empty((2, depth, self._points, d, d), dtype=complex)]
                self._pulses[i:i + 1] = [np.empty((depth, self.n_pulses, self._points, d),
                                                  dtype=complex)]
        fids = np.empty((len(genomes), self.engine.omega1s.size))
        work = (_dealer(starts), genomes, fids)
        if threads == 1:
            self._run_chunks(self._stacks[0], self._pulses[0], *work)
        else:
            # imported here: it loads logging, which no one-thread command needs
            from concurrent.futures import ThreadPoolExecutor
            # leaving the block joins every thread, also when this one raises
            with ThreadPoolExecutor(threads - 1, thread_name_prefix="icspin-kernel") as pool:
                futures = [pool.submit(self._run_chunks, stacks, pulses, *work)
                           for stacks, pulses in zip(self._stacks[1:threads],
                                                     self._pulses[1:threads])]
                self._run_chunks(self._stacks[0], self._pulses[0], *work)
            for future in futures:
                future.result()
        check_fidelities(fids)
        return fids

    def _run_chunks(self, stacks, pulses, deal, genomes, fids):
        """Write the fidelities of the chunks that `deal` hands out into
        `fids`, in the two propagator stacks `stacks` and the pulse phases
        `pulses`."""
        while (start := deal()) is not None:
            chunk = slice(start, start + self._chunk)
            for grid in self._grid_slices:
                p, g = len(genomes[chunk]), grid.stop - grid.start
                u, spare = stacks[:, :p, :g]
                u, last = self.engine.chain(genomes[chunk], u, spare, pulses[:p, :, :g], grid)
                weights = last[:, :, None] * self._target_conj                # (P, d, d)
                traces = np.einsum("pij,pgij->pg", weights, u)
                fids[chunk, grid] = np.abs(traces) / self.engine.dim
