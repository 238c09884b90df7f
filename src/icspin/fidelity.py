"""Trace fidelity and amplitude-robustness averaging."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import FitnessKernel
from .sequence import PulseSequence, genome_from_sequence
from .targets import TargetGate

DEFAULT_OMEGA1_RANGE = (0.48, 0.52)
DEFAULT_GRID_POINTS = 5


def gate_fidelity(u: np.ndarray, u_target: np.ndarray) -> float:
    """|Tr(U^dag U_T)| / d, invariant under a global phase of either gate."""
    if u.shape != u_target.shape:
        raise ValueError(f"dimension mismatch: {u.shape} vs {u_target.shape}")
    d = u.shape[0]
    return float(abs(np.trace(u.conj().T @ u_target)) / d)


def omega1_grid(omega1_range: tuple[float, float], points: int) -> np.ndarray:
    lo, hi = omega1_range
    if points < 1:
        raise ValueError("grid needs at least one point")
    if points == 1:
        return np.array([(lo + hi) / 2.0])
    return np.linspace(lo, hi, points)


@dataclass(frozen=True)
class RobustnessReport:
    """Per-amplitude fidelities over an omega1 grid, plus mean, band mean
    and min; ``kernel_workers`` is the number of threads that computed them."""

    omega1s: np.ndarray
    fidelities: np.ndarray
    kernel_workers: int = 1

    @property
    def mean(self) -> float:
        return float(self.fidelities.mean())

    @property
    def band_mean(self) -> float:
        """Trapezoid average over the amplitude band the grid spans.

        The equal-weight ``mean`` over-weights the band edges; a one-point
        (or zero-width) grid has no band and gives its plain mean.
        """
        x, f = self.omega1s, self.fidelities
        if x[-1] == x[0]:
            return self.mean
        half_steps = np.diff(x) / 2
        return float((half_steps @ (f[:-1] + f[1:])) / (x[-1] - x[0]))

    @property
    def min(self) -> float:
        return float(self.fidelities.min())


def robust_fidelity(
    seq: PulseSequence,
    target: TargetGate | np.ndarray,
    h: np.ndarray,
    omega1_range: tuple[float, float] = DEFAULT_OMEGA1_RANGE,
    grid_points: int = DEFAULT_GRID_POINTS,
) -> RobustnessReport:
    """Evaluate the sequence against the target across an amplitude grid.

    The sequence runs as its template genome through the fitness kernel,
    which chunks the grid under BATCH_ENTRIES and reads the trace against
    V^T T V in the free eigenbasis. A target of the wrong dimension raises
    ValueError; a fidelity that is not finite or exceeds 1 is an internal
    invariant violation and raises RuntimeError.
    """
    grid = omega1_grid(omega1_range, grid_points)
    kernel = FitnessKernel(h, target, grid, seq.n_pulses)
    fidelities = kernel.evaluate(genome_from_sequence(seq))[0]
    return RobustnessReport(omega1s=grid, fidelities=fidelities,
                            kernel_workers=kernel.threads_used)
