"""Trace fidelity and amplitude-robustness averaging."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .propagation import BATCH_ENTRIES, PropagationEngine
from .sequence import PulseSequence
from .targets import TargetGate

DEFAULT_OMEGA1_RANGE = (0.48, 0.52)
DEFAULT_GRID_POINTS = 5
FIDELITY_SLACK = 1e-9   # roundoff allowed above a fidelity of 1


def gate_fidelity(u: np.ndarray, u_target: np.ndarray) -> float:
    """|Tr(U^dag U_T)| / d, invariant under a global phase of either gate."""
    if u.shape != u_target.shape:
        raise ValueError(f"dimension mismatch: {u.shape} vs {u_target.shape}")
    d = u.shape[0]
    return float(abs(np.trace(u.conj().T @ u_target)) / d)


def check_fidelities(fids: np.ndarray) -> None:
    """Raise RuntimeError, an internal invariant violation, if a fidelity
    is not finite or exceeds 1 + FIDELITY_SLACK."""
    bad = ~(fids <= 1.0 + FIDELITY_SLACK)   # NaN compares False
    if bad.any():
        raise RuntimeError(f"fidelity outside [0, 1]: {fids[bad]}")


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
    and min."""

    omega1s: np.ndarray
    fidelities: np.ndarray

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

    Grid points are propagated together by the engine, in chunks of at
    most BATCH_ENTRIES / d^2 points, and the trace is read against V^T T V
    in the free eigenbasis. A fidelity that is not finite or exceeds 1 is
    an internal invariant violation and raises RuntimeError.
    """
    u_target = target.matrix if isinstance(target, TargetGate) else np.asarray(target)
    if u_target.shape != h.shape:
        raise ValueError(f"dimension mismatch: {h.shape} vs {u_target.shape}")
    grid = omega1_grid(omega1_range, grid_points)
    chunk = max(1, BATCH_ENTRIES // h.shape[0] ** 2)
    traces = []
    for start in range(0, grid.size, chunk):
        engine = PropagationEngine(h, grid[start : start + chunk])
        weights = engine.to_eigenbasis(u_target).conj()
        traces.append(np.einsum("ij,gij->g", weights, engine.propagate(seq.segments)))
    fids = np.abs(np.concatenate(traces)) / h.shape[0]
    check_fidelities(fids)
    return RobustnessReport(omega1s=grid, fidelities=fids)
