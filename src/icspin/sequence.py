"""Pulse-sequence data model and JSON serialization.

A sequence alternates free-evolution delays and resonant microwave pulses;
the canonical template with n pulses carries n+1 delays (leading and
trailing included) and maps to the flat genome layout
[tau_0..tau_n, t_1..t_n, phi_1..phi_n] used by the optimizer.
``genome_length``, ``genome_parts`` and ``genome_durations`` are that
layout's one home: the engine, the kernel and the optimizer read it here.
"""
from __future__ import annotations

from dataclasses import astuple, dataclass
from pathlib import Path

import numpy as np

from .files import check_keys, json_list, read_json, write_json
from .operators import TWO_PI, ConfigError, check_count, check_real


# The longest delay or pulse, in us. With every frequency of a system config
# at most 1e6 MHz, the phases 2 pi f t stay near 1e13 rad, far from overflow.
MAX_DURATION_US = 1e6
# The most segments a sequence document may hold, checked before any is
# built. Verify and the scans work through every segment, and zero-length
# delays pass every duration and step budget, so only a count bounds them.
MAX_SEGMENTS = 2**15
# The most pulses of a kernel's template, so of every sequence it scores and every GA
# genome, checked before either is made: a chain's arrays grow with the pulses.
MAX_PULSES = 64


def check_pulses(n_pulses: int, where: str) -> int:
    return check_count(n_pulses, where, 0, high=MAX_PULSES)


@dataclass(frozen=True)
class Delay:
    """Free evolution for tau microseconds."""

    tau: float

    def __post_init__(self):
        object.__setattr__(self, "tau", check_real(self.tau, "delay_us", 0.0, MAX_DURATION_US))

    @property
    def duration(self) -> float:
        return self.tau


@dataclass(frozen=True)
class Pulse:
    """Microwave pulse of duration t (us) and phase phi (radians)."""

    t: float
    phi: float

    def __post_init__(self):
        object.__setattr__(self, "t", check_real(self.t, "pulse_us", 0.0, MAX_DURATION_US))
        object.__setattr__(self, "phi", check_real(self.phi, "phase_rad", 0.0, TWO_PI, "[)"))

    @property
    def duration(self) -> float:
        return self.t


@dataclass(frozen=True)
class PulseSequence:
    """Ordered segments plus the nominal Rabi amplitude omega1 (MHz)."""

    segments: tuple
    omega1: float

    def __post_init__(self):
        object.__setattr__(self, "omega1", check_real(self.omega1, "omega1_MHz", 0.0))
        for seg in self.segments:
            if not isinstance(seg, (Delay, Pulse)):
                raise TypeError(f"unknown segment type: {type(seg).__name__}")

    @property
    def duration(self) -> float:
        return float(sum(seg.duration for seg in self.segments))

    @property
    def n_pulses(self) -> int:
        return sum(isinstance(seg, Pulse) for seg in self.segments)


def genome_length(n_pulses: int) -> int:
    """Genes of the n-pulse template genome: n + 1 delays, n pulses and n phases."""
    return 3 * n_pulses + 1


def _pulses_of(genomes: np.ndarray) -> int:
    """n of genomes 3n + 1 wide along the last axis."""
    if genomes.ndim == 0 or genomes.shape[-1] % 3 != 1:
        raise ConfigError("a genome needs 3n + 1 entries for n pulses, "
                            f"got shape {genomes.shape}")
    return genomes.shape[-1] // 3


def genome_parts(genomes):
    """Views of the delays tau_0..tau_n, the pulse lengths t_1..t_n and the
    phases phi_1..phi_n of one genome or of an array of them along the last
    axis; a width that is not 3n + 1 raises ConfigError."""
    genomes = np.asarray(genomes)
    n = _pulses_of(genomes)
    return genomes[..., : n + 1], genomes[..., n + 1 : 2 * n + 1], genomes[..., 2 * n + 1 :]


def genome_durations(genomes):
    """The template durations (us): each genome's 2n + 1 delays and pulses
    summed in one reduction along the last axis."""
    genomes = np.asarray(genomes)
    return genomes[..., : 2 * _pulses_of(genomes) + 1].sum(axis=-1)


def sequence_from_genome(genome, omega1: float) -> PulseSequence:
    """Decode [tau_0..tau_n, t_1..t_n, phi_1..phi_n], 3n + 1 genes, into a sequence."""
    genome = np.asarray(genome, dtype=float)
    if genome.ndim != 1:
        raise ConfigError(f"a genome is one row of 3n + 1 entries, got shape {genome.shape}")
    taus, ts, phis = genome_parts(genome)
    segments: list = []
    for tau, t, phi in zip(taus, ts, np.mod(phis, TWO_PI)):
        segments.append(Delay(tau))
        segments.append(Pulse(t, phi))
    segments.append(Delay(taus[-1]))
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
    check_keys(doc, "sequence document", required=("omega1_MHz", "segments"))
    raw = json_list(doc["segments"], "segments")
    check_count(len(raw), "number of segments", 0, high=MAX_SEGMENTS)
    segments = []
    for i, seg in enumerate(raw):
        kind = Delay if isinstance(seg, dict) and "delay_us" in seg else Pulse
        keys = _SEGMENT_KEYS[kind]
        check_keys(seg, f"segments[{i}]", required=keys[:1], optional=keys[1:])
        try:
            segments.append(kind(*(seg.get(key, 0.0) for key in keys)))
        except ConfigError as exc:   # each message starts with its key
            raise ConfigError(f"segments[{i}].{exc}") from exc
    return PulseSequence(tuple(segments), doc["omega1_MHz"])


def load_sequence(path: str | Path) -> PulseSequence:
    return sequence_from_dict(read_json(path))


def save_sequence(seq: PulseSequence, path: str | Path) -> None:
    write_json(path, sequence_to_dict(seq))
