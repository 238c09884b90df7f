"""Batched sequence-fidelity kernel for the optimizer and robust_fidelity.

Evaluating a genetic-algorithm population means composing thousands of
short delay/pulse propagator chains of one fixed template: delay, then
pulse and delay n times. The kernel runs the template on
``PropagationEngine.chain`` over its amplitude grid:

* The fidelity |Tr(T^dag U)| / d is read off in the free eigenbasis with
  T~ = V^T T V, the row phase of the last delay folded into T~.
* The work runs in chunks under the BATCH_ENTRIES budget: several genomes
  on the whole grid, or one genome on a slice of the grid when its grid
  alone exceeds the budget (32 points at d = 32). Two chunk-sized
  propagator stacks hold every chunk, so the chain builds no (P, G, d, d)
  temporaries of the whole population.
* The genome chunks run on every CPU the process may use (``cpu_workers``):
  the calling thread, in the kernel's own stacks, and the threads of a pool
  shared by the process, each in stacks of its own made on its first chunk.
  Every thread takes the next chunk not yet taken until none is left, so a
  thread on a busy CPU takes fewer. A chunk's arithmetic does not depend on
  the thread that runs it, so the result is bit for bit the same for any
  number of CPUs. The grid slices of one genome stay on one thread, so a
  single genome (``robust_fidelity``) runs serially, and with one CPU or
  one chunk no thread starts.
"""
from __future__ import annotations

import os
import threading

import numpy as np

from .propagation import BATCH_ENTRIES, PropagationEngine

FIDELITY_SLACK = 1e-9   # roundoff allowed above a fidelity of 1

# The process's chunk pool as (pid, threads, executor), built on the first
# call that runs on two threads or more; concurrent.futures is imported there
# too, so importing the package starts no thread.
_pool = None
_pool_lock = threading.Lock()


def cpu_workers() -> int:
    """The CPUs this process may run on: its affinity mask where the
    platform has one, else the machine's CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _executor(threads: int):
    """The chunk pool, with at least `threads` threads.

    A pool copied into a child by fork has no threads, and work sent to it
    would never run, so a process whose pid is not the one that built the
    pool builds its own. A replaced pool's idle threads exit once it is
    garbage-collected.
    """
    global _pool
    with _pool_lock:
        if _pool is None or _pool[0] != os.getpid() or _pool[1] < threads:
            from concurrent.futures import ThreadPoolExecutor
            _pool = (os.getpid(), threads,
                     ThreadPoolExecutor(threads, thread_name_prefix="icspin-kernel"))
        return _pool[2]


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
    target : target unitary matrix (or TargetGate)
    omega1s : amplitude grid (MHz)
    n_pulses : number of pulses in the genome template; 0 is one delay

    Attributes
    ----------
    threads_used : the most threads any ``evaluate`` call has run on, 0
        before the first call

    ``evaluate`` works in propagator stacks that the kernel keeps, one pair
    per thread it runs on, so one kernel is not re-entrant: it must not be
    evaluated from two threads at once. Different kernels may be, and they
    share the process's chunk pool.
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
        # back in each time. Grid slices and the calling thread's stack
        # views are fixed here, so a call pays no set-up per chunk.
        self._points = min(g, max(1, BATCH_ENTRIES // (d * d)))
        self._chunk = max(1, BATCH_ENTRIES // (self._points * d * d))
        self._grid_slices = [slice(s, min(s + self._points, g))
                             for s in range(0, g, self._points)]
        self._workspaces = [self._new_workspace()]   # one per thread; None until used
        self.threads_used = 0

    def _new_workspace(self):
        """Two chunk-sized stacks, as (grid slice, stack views) pairs."""
        d = self.engine.dim
        stacks = np.empty((2, self._chunk, self._points, d, d), dtype=complex)
        return [(grid, stacks[:, :, : grid.stop - grid.start]) for grid in self._grid_slices]

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
        n = self.n_pulses
        if genomes.shape[1] != 3 * n + 1:
            raise ValueError(f"genomes must have {3 * n + 1} columns, got {genomes.shape[1]}")
        dphis = np.diff(genomes[:, 2 * n + 1 :], prepend=0.0, append=0.0)    # (P, n+1)
        fids = np.empty((len(genomes), self.omega1s.size))
        starts = range(0, len(genomes), self._chunk)
        threads = max(1, min(cpu_workers(), len(starts)))
        deal = _dealer(starts)
        if threads == 1:
            self._run_chunks(0, deal, genomes, dphis, fids)
        else:
            self._workspaces += [None] * (threads - len(self._workspaces))
            pool = _executor(threads - 1)
            futures = [pool.submit(self._run_chunks, k, deal, genomes, dphis, fids)
                       for k in range(1, threads)]
            try:
                self._run_chunks(0, deal, genomes, dphis, fids)
            finally:
                for future in futures:
                    future.exception()   # waits, and keeps an error of this thread's chunks
            for future in futures:
                future.result()
        self.threads_used = max(self.threads_used, threads)
        check_fidelities(fids)
        return fids

    def _run_chunks(self, thread, deal, genomes, dphis, fids):
        """Write the fidelities of the chunks that `deal` hands out into
        `fids`, in the stacks of `thread`, made on its first chunk."""
        workspace = self._workspaces[thread]
        while (start := deal()) is not None:
            if workspace is None:
                workspace = self._workspaces[thread] = self._new_workspace()
            chunk = slice(start, start + self._chunk)
            for grid, stacks in workspace:
                u, spare = stacks[:, : len(genomes[chunk])]
                u, last = self.engine.chain(genomes[chunk], dphis[chunk], u, spare, grid)
                weights = last[:, :, None] * self._target_conj                # (P, d, d)
                traces = np.einsum("pij,pgij->pg", weights, u)
                fids[chunk, grid] = np.abs(traces) / self.engine.dim
