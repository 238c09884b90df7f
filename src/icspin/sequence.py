"""Pulse-sequence data model and JSON serialization.

A sequence alternates free-evolution delays and resonant microwave pulses;
the canonical template with n pulses carries n+1 delays (leading and
trailing included) and maps to the flat genome layout
[tau_1..tau_{n+1}, t_1..t_n, phi_1..phi_n] used by the optimizer.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .files import read_json, write_json
from .operators import TWO_PI


class SequenceError(ValueError):
    """Raised for malformed sequence documents or parameters."""


@dataclass(frozen=True)
class Delay:
    """Free evolution for tau microseconds."""

    tau: float

    def __post_init__(self):
        if not np.isfinite(self.tau) or self.tau < 0:
            raise SequenceError(f"delay must be finite and >= 0, got {self.tau}")

    @property
    def duration(self) -> float:
        return self.tau


@dataclass(frozen=True)
class Pulse:
    """Microwave pulse of duration t (us) and phase phi (radians)."""

    t: float
    phi: float

    def __post_init__(self):
        if not np.isfinite(self.t) or self.t < 0:
            raise SequenceError(f"pulse duration must be finite and >= 0, got {self.t}")
        if not 0.0 <= self.phi < TWO_PI:
            raise SequenceError(f"phase must lie in [0, 2pi), got {self.phi}")

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


def sequence_to_dict(seq: PulseSequence) -> dict:
    segments = []
    for seg in seq.segments:
        if isinstance(seg, Delay):
            segments.append({"delay_us": seg.tau})
        else:
            segments.append({"pulse_us": seg.t, "phase_rad": seg.phi})
    return {"omega1_MHz": seq.omega1, "segments": segments}


def _number(value, where: str) -> float:
    """A JSON number as a float; strings, booleans and null are rejected."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SequenceError(f"{where} must be a number, got {value!r}")
    return float(value)


_SEGMENT_KEYS = {"delay_us": {"delay_us"}, "pulse_us": {"pulse_us", "phase_rad"}}


def sequence_from_dict(doc: dict) -> PulseSequence:
    """The document ``sequence_to_dict`` writes, phase_rad optional; any
    other key, a misspelt one say, is rejected."""
    if not isinstance(doc, dict):
        raise SequenceError("sequence document must be a JSON object")
    unknown = doc.keys() - {"omega1_MHz", "segments"}
    if unknown:
        raise SequenceError(f"sequence document has unknown keys: {sorted(unknown)}")
    if "omega1_MHz" not in doc or "segments" not in doc:
        raise SequenceError("sequence document needs omega1_MHz and segments")
    if not isinstance(doc["segments"], list):
        raise SequenceError(f"segments must be a list, got {doc['segments']!r}")
    segments: list = []
    for i, seg in enumerate(doc["segments"]):
        if not isinstance(seg, dict):
            raise SequenceError(f"segments[{i}] must be an object")
        kind = "delay_us" if "delay_us" in seg else "pulse_us"
        if kind not in seg:
            raise SequenceError(f"segments[{i}] needs delay_us or pulse_us")
        unknown = seg.keys() - _SEGMENT_KEYS[kind]
        if unknown:
            raise SequenceError(f"segments[{i}] has unknown keys for a {kind[:-3]}: "
                                f"{sorted(unknown)}")
        if kind == "delay_us":
            segments.append(Delay(_number(seg["delay_us"], f"segments[{i}].delay_us")))
        else:
            segments.append(Pulse(_number(seg["pulse_us"], f"segments[{i}].pulse_us"),
                                  _number(seg.get("phase_rad", 0.0), f"segments[{i}].phase_rad")))
    return PulseSequence(tuple(segments), _number(doc["omega1_MHz"], "omega1_MHz"))


def load_sequence(path: str | Path) -> PulseSequence:
    return sequence_from_dict(read_json(path, SequenceError))


def save_sequence(seq: PulseSequence, path: str | Path) -> None:
    write_json(path, sequence_to_dict(seq))
