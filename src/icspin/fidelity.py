"""Trace fidelity and amplitude-robustness averaging."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import FitnessKernel
from .operators import ConfigError, check_count, check_real
from .sequence import PulseSequence, genome_from_sequence
from .targets import TargetGate

# At d = 32 a grid point costs about 32 kB in the engine's batched
# eigensystem (96 MB peak at 4096 points), so a band is refused past this
# many points before anything is allocated.
MAX_GRID_POINTS = 2048


def gate_fidelity(u: np.ndarray, u_target: np.ndarray) -> float:
    """|Tr(U^dag U_T)| / d, invariant under a global phase of either gate."""
    if u.shape != u_target.shape:
        raise ValueError(f"dimension mismatch: {u.shape} vs {u_target.shape}")
    d = u.shape[0]
    return float(abs(np.trace(u.conj().T @ u_target)) / d)


@dataclass(frozen=True)
class Band:
    """A band of drive amplitudes in MHz, sampled at `points` amplitudes. Its
    fields are the keys of a GA document's "omega1_grid" object. The one check
    of a band: ConfigError names min_MHz, max_MHz or points for the caller to
    prefix."""

    min_MHz: float = 0.48
    max_MHz: float = 0.52
    points: int = 5

    def __post_init__(self):
        object.__setattr__(self, "min_MHz", check_real(self.min_MHz, "min_MHz", 0.0))
        object.__setattr__(self, "max_MHz", check_real(self.max_MHz, "max_MHz (at least min_MHz)",
                                                       self.min_MHz))
        object.__setattr__(self, "points", check_count(self.points, "points", 1,
                                                       high=MAX_GRID_POINTS))

    def omega1s(self) -> np.ndarray:
        """`points` amplitudes spanning the band, or its centre for one point."""
        if self.points == 1:
            return np.array([(self.min_MHz + self.max_MHz) / 2.0])
        return np.linspace(self.min_MHz, self.max_MHz, self.points)


def equal_weight_score(fidelities: np.ndarray) -> np.ndarray:
    """Each row's equal-weight mean over the grid (the last axis): the GA's fitness."""
    return fidelities.mean(axis=-1)


@dataclass(frozen=True)
class RobustnessReport:
    """Per-amplitude fidelities over an omega1 grid, plus mean, band mean
    and min."""

    omega1s: np.ndarray
    fidelities: np.ndarray

    @property
    def mean(self) -> float:
        return float(equal_weight_score(self.fidelities))

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
    target: TargetGate,
    h: np.ndarray,
    omega1_range: tuple[float, float] = (Band.min_MHz, Band.max_MHz),
    grid_points: int = Band.points,
) -> RobustnessReport:
    """Evaluate the sequence against the target across an amplitude grid.

    The sequence runs as its template genome through the fitness kernel,
    which chunks the grid under BATCH_ENTRIES and reads the trace against
    V^T T V in the free eigenbasis. A band that is no pair of numbers or
    fails ``Band``'s check raises ConfigError; a target of the wrong
    dimension raises ValueError; a fidelity that is not finite or exceeds 1
    is an internal invariant violation and raises RuntimeError.
    """
    try:
        lo, hi = omega1_range
    except (TypeError, ValueError):
        raise ConfigError(f"omega1_range must be a pair (min_MHz, max_MHz), "
                          f"got {omega1_range!r}") from None
    grid = Band(lo, hi, grid_points).omega1s()
    kernel = FitnessKernel(h, target, grid, seq.n_pulses)
    return RobustnessReport(grid, kernel.evaluate(genome_from_sequence(seq))[0])
