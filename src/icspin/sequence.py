"""Pulse-sequence data model and JSON serialization.

A sequence alternates free-evolution delays and resonant microwave pulses;
the canonical template with n pulses carries n+1 delays (leading and
trailing included) and maps to the flat genome layout
[tau_1..tau_{n+1}, t_1..t_n, phi_1..phi_n] used by the optimizer.
"""
from __future__ import annotations

from dataclasses import astuple, dataclass
from pathlib import Path

import numpy as np

from .files import check_keys, json_list, json_number, read_json, write_json
from .operators import TWO_PI


# The longest delay or pulse, in us. With every frequency of a system config
# at most 1e6 MHz, the phases 2 pi f t stay near 1e13 rad, far from overflow.
MAX_DURATION_US = 1e6


class SequenceError(ValueError):
    """Raised for malformed sequence documents or parameters."""


@dataclass(frozen=True)
class Delay:
    """Free evolution for tau microseconds."""

    tau: float

    def __post_init__(self):
        if not 0.0 <= self.tau <= MAX_DURATION_US:
            raise SequenceError(f"delay_us must lie in [0, {MAX_DURATION_US:g}], got {self.tau!r}")

    @property
    def duration(self) -> float:
        return self.tau


@dataclass(frozen=True)
class Pulse:
    """Microwave pulse of duration t (us) and phase phi (radians)."""

    t: float
    phi: float

    def __post_init__(self):
        if not 0.0 <= self.t <= MAX_DURATION_US:
            raise SequenceError(f"pulse_us must lie in [0, {MAX_DURATION_US:g}], got {self.t!r}")
        if not 0.0 <= self.phi < TWO_PI:
            raise SequenceError(f"phase_rad must lie in [0, 2pi), got {self.phi!r}")

    @property
    def duration(self) -> float:
        return self.t


@dataclass(frozen=True)
class PulseSequence:
    """Ordered segments plus the nominal Rabi amplitude omega1 (MHz)."""

    segments: tuple
    omega1: float

    def __post_init__(self):
        if not (np.isfinite(self.omega1) and self.omega1 >= 0):
            raise SequenceError(f"omega1 must be finite and >= 0, got {self.omega1}")
        for seg in self.segments:
            if not isinstance(seg, (Delay, Pulse)):
                raise TypeError(f"unknown segment type: {type(seg).__name__}")

    @property
    def duration(self) -> float:
        return float(sum(seg.duration for seg in self.segments))

    @property
    def n_pulses(self) -> int:
        return sum(isinstance(seg, Pulse) for seg in self.segments)


def sequence_from_genome(genome, n_pulses: int, omega1: float) -> PulseSequence:
    """Decode [tau_1..tau_{n+1}, t_1..t_n, phi_1..phi_n] into a sequence."""
    genome = np.asarray(genome, dtype=float)
    if genome.shape != (3 * n_pulses + 1,):
        raise SequenceError(
            f"genome for {n_pulses} pulses needs {3 * n_pulses + 1} entries, "
            f"got {genome.shape}"
        )
    taus = genome[: n_pulses + 1]
    ts = genome[n_pulses + 1 : 2 * n_pulses + 1]
    phis = np.mod(genome[2 * n_pulses + 1 :], TWO_PI)
    segments: list = []
    for i in range(n_pulses):
        segments.append(Delay(float(taus[i])))
        segments.append(Pulse(float(ts[i]), float(phis[i])))
    segments.append(Delay(float(taus[-1])))
    return PulseSequence(tuple(segments), omega1)


def genome_from_sequence(seq: PulseSequence) -> np.ndarray:
    """The template genome of any sequence; the inverse of
    ``sequence_from_genome`` for canonical alternating sequences.

    Adjacent delays add up, and a zero-length delay goes between adjacent
    pulses and at either end.
    """
    taus, ts, phis = [0.0], [], []
    for seg in seq.segments:
        if isinstance(seg, Delay):
            taus[-1] += seg.tau
        else:
            taus.append(0.0)
            ts.append(seg.t)
            phis.append(seg.phi)
    return np.array(taus + ts + phis, dtype=float)


# segment class -> its document keys in field order; only the first is required
_SEGMENT_KEYS = {Delay: ("delay_us",), Pulse: ("pulse_us", "phase_rad")}


def sequence_to_dict(seq: PulseSequence) -> dict:
    segments = [dict(zip(_SEGMENT_KEYS[type(seg)], astuple(seg))) for seg in seq.segments]
    return {"omega1_MHz": seq.omega1, "segments": segments}


def sequence_from_dict(doc: dict) -> PulseSequence:
    """The document ``sequence_to_dict`` writes, phase_rad optional (0 when
    left out); any other key, a misspelt one say, is rejected."""
    check_keys(doc, "sequence document", SequenceError, required=("omega1_MHz", "segments"))
    segments = []
    for i, seg in enumerate(json_list(doc["segments"], "segments", SequenceError)):
        kind = Delay if isinstance(seg, dict) and "delay_us" in seg else Pulse
        keys = _SEGMENT_KEYS[kind]
        check_keys(seg, f"segments[{i}]", SequenceError, required=keys[:1], optional=keys[1:])
        segments.append(kind(*(json_number(seg.get(key, 0.0), f"segments[{i}].{key}",
                                           SequenceError) for key in keys)))
    return PulseSequence(tuple(segments),
                         json_number(doc["omega1_MHz"], "omega1_MHz", SequenceError))


def load_sequence(path: str | Path) -> PulseSequence:
    return sequence_from_dict(read_json(path, SequenceError))


def save_sequence(seq: PulseSequence, path: str | Path) -> None:
    write_json(path, sequence_to_dict(seq))
