import json

import numpy as np
import pytest

from icspin.sequence import (
    MAX_PULSES,
    Delay,
    Pulse,
    PulseSequence,
    genome_durations,
    genome_from_sequence,
    genome_length,
    genome_parts,
    load_sequence,
    save_sequence,
    sequence_from_dict,
    sequence_from_genome,
    sequence_to_dict,
)
from icspin.operators import ConfigError
from icspin.system import data_path


def test_segment_validation():
    with pytest.raises(ConfigError):
        Delay(-0.1)
    with pytest.raises(ConfigError):
        Pulse(-1.0, 0.0)
    with pytest.raises(ConfigError):
        Pulse(1.0, 7.0)  # phase outside [0, 2pi)


def test_sequence_rejects_unknown_segment():
    with pytest.raises(TypeError, match="segment"):
        PulseSequence((Delay(1.0), "pulse"), omega1=0.5)


def test_duration_sums_segments():
    seq = PulseSequence((Delay(1.0), Pulse(0.5, 0.0), Delay(2.0)), omega1=0.5)
    assert seq.duration == pytest.approx(3.5)
    assert seq.n_pulses == 1


def test_genome_roundtrip():
    genome = np.array([0.1, 0.2, 0.3, 0.4, 1.0, 1.1, 1.2, 0.5, 1.5, 2.5])
    seq = sequence_from_genome(genome, omega1=0.5)
    assert seq.n_pulses == 3
    assert len(seq.segments) == 7
    assert np.allclose(genome_from_sequence(seq), genome)


def test_genome_phase_wrapping():
    genome = np.array([0.0, 0.0, 1.0, -np.pi])
    seq = sequence_from_genome(genome, omega1=0.5)
    assert seq.segments[1].phi == pytest.approx(np.pi)


def test_genome_length_check():
    with pytest.raises(ConfigError, match="entries"):
        sequence_from_genome([0.0, 1.0], omega1=0.5)


def test_genome_must_be_one_row():
    with pytest.raises(ConfigError, match=r"one row .* got shape \(2, 4\)"):
        sequence_from_genome(np.zeros((2, 4)), omega1=0.5)


def test_genome_parts_are_views_of_the_genome():
    """For every pulse count, the parts have n + 1, n and n widths and a
    write through each reaches the genome."""
    for n in range(MAX_PULSES + 1):
        genome = np.zeros(genome_length(n))
        taus, ts, phis = genome_parts(genome)
        assert (taus.size, ts.size, phis.size) == (n + 1, n, n)
        taus[:], ts[:], phis[:] = 1.0, 2.0, 3.0
        assert genome.tolist() == [1.0] * (n + 1) + [2.0] * n + [3.0] * n


@pytest.mark.parametrize("n", [0, 1, 4, MAX_PULSES])
def test_genome_parts_row_by_row(n):
    genomes = np.random.default_rng(n).uniform(0.0, 4.0, size=(5, genome_length(n)))
    batch = genome_parts(genomes)
    for row, genome in enumerate(genomes):
        for part, alone in zip(batch, genome_parts(genome)):
            assert part[row].tolist() == alone.tolist()


@pytest.mark.parametrize("n", [1, 2, 5])
@pytest.mark.parametrize("extra", [0, 2])
def test_genome_width_check(n, extra):
    """Widths 3n and 3n + 2, one genome or a population, are refused."""
    for shape in [(3 * n + extra,), (3, 3 * n + extra)]:
        with pytest.raises(ConfigError, match="entries"):
            genome_parts(np.zeros(shape))
        with pytest.raises(ConfigError, match="entries"):
            genome_durations(np.zeros(shape))


@pytest.mark.parametrize("n", range(1, 9))
def test_genome_durations(n):
    """The one sum over the 2n + 1 delays and pulses, so it ranks as it
    always has, bit for bit; the sequence's own duration agrees."""
    rng = np.random.default_rng(100 + n)
    genomes = rng.uniform(0.0, 4.0, size=(50, genome_length(n)))
    genomes[:, 2 * n + 1 :] = rng.uniform(0.0, 2 * np.pi, size=(50, n))
    durations = genome_durations(genomes)
    summed = genomes[:, : 2 * (genomes.shape[1] // 3) + 1].sum(axis=1)
    assert durations.tobytes() == summed.tobytes()
    for genome, duration in zip(genomes, durations):
        assert genome_durations(genome) == duration
        assert abs(sequence_from_genome(genome, omega1=0.5).duration - duration) <= 1e-12


def test_genome_from_non_template_sequence():
    """Adjacent delays add up; a zero-length delay goes between adjacent
    pulses and at either end."""
    seq = PulseSequence((Pulse(0.5, 0.0), Delay(1.0)), omega1=0.5)
    assert genome_from_sequence(seq).tolist() == [0.0, 1.0, 0.5, 0.0]
    seq = PulseSequence((Delay(0.25), Delay(0.5), Pulse(0.5, 1.0), Pulse(0.75, 2.0)), 0.5)
    assert genome_from_sequence(seq).tolist() == [0.75, 0.0, 0.0, 0.5, 0.75, 1.0, 2.0]
    assert genome_from_sequence(PulseSequence((), 0.5)).tolist() == [0.0]


def test_json_roundtrip(tmp_path):
    seq = sequence_from_genome([0.1, 0.2, 0.9, 1.2], omega1=0.5)
    path = tmp_path / "seq.json"
    save_sequence(seq, path)
    again = load_sequence(path)
    assert again == seq


def test_dict_schema():
    doc = sequence_to_dict(PulseSequence((Delay(1.0), Pulse(0.5, 0.25)), omega1=0.5))
    assert doc == {
        "omega1_MHz": 0.5,
        "segments": [{"delay_us": 1.0}, {"pulse_us": 0.5, "phase_rad": 0.25}],
    }
    assert sequence_from_dict(doc).segments[1].phi == 0.25


def test_malformed_documents_rejected():
    with pytest.raises(ConfigError):
        sequence_from_dict({"segments": []})
    with pytest.raises(ConfigError):
        sequence_from_dict({"omega1_MHz": 0.5, "segments": [{"bogus": 1}]})


@pytest.mark.parametrize("doc, where", [
    ({"omega1_MHz": 0.5, "segments": [{"delay_us": "1.0"}]}, "delay_us"),
    ({"omega1_MHz": 0.5, "segments": [{"pulse_us": True}]}, "pulse_us"),
    ({"omega1_MHz": 0.5, "segments": [{"pulse_us": 1.0, "phase_rad": None}]}, "phase_rad"),
    ({"omega1_MHz": "0.5", "segments": []}, "omega1_MHz"),
    ({"omega1_MHz": 0.5, "segments": {"delay_us": 1.0}}, "segments must be a list"),
    ({"omega1_MHz": float("inf"), "segments": []}, "omega1"),
])
def test_non_numbers_and_non_finite_values_rejected(doc, where):
    with pytest.raises(ConfigError, match=where):
        sequence_from_dict(doc)


def test_bundled_tables_are_verbatim():
    """Bundled sequences carry the published parameters unchanged."""
    doc = json.loads(data_path("sequences/hadamard.json").read_text())
    delays = [s["delay_us"] for s in doc["segments"] if "delay_us" in s]
    pulses = [(s["pulse_us"], s["phase_rad"]) for s in doc["segments"] if "pulse_us" in s]
    assert delays == [0.74, 0.22, 0.43, 0.89]
    assert [p[0] for p in pulses] == [0.23, 1.26, 1.50]
    assert np.allclose([p[1] for p in pulses], [3 * np.pi / 2, 3 * np.pi / 2, np.pi / 2])
    assert doc["omega1_MHz"] == 0.5

    doc = json.loads(data_path("sequences/cnot.json").read_text())
    delays = [s["delay_us"] for s in doc["segments"] if "delay_us" in s]
    pulses = [(s["pulse_us"], s["phase_rad"]) for s in doc["segments"] if "pulse_us" in s]
    assert delays == [3.78, 2.11, 2.15, 0.63]
    assert [p[0] for p in pulses] == [1.88, 3.96, 1.90]
    assert np.allclose([p[1] for p in pulses], [0.0, np.pi / 5, np.pi / 2])


def test_bundled_multiqubit_suite_durations():
    suite = json.loads(data_path("suite_ccrot.json").read_text())
    assert len(suite["cases"]) == 7
    for case in suite["cases"]:
        seq = load_sequence(data_path(case["sequence"]))
        assert seq.n_pulses == 4
        assert seq.duration == pytest.approx(case["reference_duration_us"], abs=0.06)
