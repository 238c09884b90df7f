import json
import re
import sys
import threading
from collections import OrderedDict
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import icspin
from icspin.eigenstructure import carbon_eigenstructure
from icspin.fidelity import gate_fidelity
from icspin import propagation
from icspin.propagation import PropagationEngine, engine_for, sequence_propagator
from icspin.sequence import Delay, Pulse, PulseSequence, sequence_from_genome
from icspin.targets import TargetGate

from oracles import (
    closed_form_free_propagator,
    oracle_sequence_propagator,
    random_unitary,
)

PHASE_MAX = np.nextafter(2 * np.pi, 0.0)


def unitarity_residual(u):
    return np.abs(u.conj().T @ u - np.eye(u.shape[0])).max()


def delay_propagator(h, tau):
    """The engine's propagator of one delay."""
    return sequence_propagator(PulseSequence((Delay(tau),), 0.0), h)


def one_pulse_propagator(h, omega1, phi, t):
    """The engine's propagator of one pulse."""
    return sequence_propagator(PulseSequence((Pulse(t, phi),), omega1), h)


def test_expm_forced_phases(system):
    """One half-period of the bare carbon Zeeman term gives diag phases
    exp(+-i pi/2) in the electron-|0> block."""
    h0 = -system.nu_c * np.diag([0.5, -0.5]).astype(complex)
    u = delay_propagator(h0, 1.0 / (2.0 * system.nu_c))
    assert np.allclose(np.diag(u), [np.exp(1j * np.pi / 2), np.exp(-1j * np.pi / 2)], atol=1e-12)


def test_expm_rejects_non_hermitian():
    with pytest.raises(ValueError, match="Hermitian"):
        engine_for(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_free_propagator_matches_closed_form(system, h_subspace):
    rng = np.random.default_rng(3)
    for tau in rng.uniform(0.0, 20.0, size=24):
        u = delay_propagator(h_subspace, float(tau))
        ref = closed_form_free_propagator(system, float(tau))
        assert np.abs(u - ref).max() < 1e-12


def test_free_propagator_full_period(system, h_subspace):
    """After 1/nu_- the lower-manifold block returns to minus identity
    (half-integer spin)."""
    eig = carbon_eigenstructure(system)
    u = delay_propagator(h_subspace, 1.0 / eig.nu_minus)
    assert np.abs(u[2:, 2:] + np.eye(2)).max() < 1e-10


def test_free_propagator_zero_time(h_subspace):
    assert np.allclose(delay_propagator(h_subspace, 0.0), np.eye(4), atol=1e-15)


def test_composition_law(h_subspace):
    rng = np.random.default_rng(11)
    for _ in range(10):
        a, b = rng.uniform(0, 5, size=2)
        lhs = delay_propagator(h_subspace, a) @ delay_propagator(h_subspace, b)
        rhs = delay_propagator(h_subspace, a + b)
        assert np.abs(lhs - rhs).max() < 1e-10


def test_pulse_with_zero_amplitude_is_free(h_subspace):
    for phi in (0.0, 1.0, 4.0):
        assert np.abs(
            one_pulse_propagator(h_subspace, 0.0, phi, 2.3) - delay_propagator(h_subspace, 2.3)
        ).max() < 1e-12


def test_pulse_pi_rotation_swaps_electron_states():
    """With a vanishing internal Hamiltonian, omega1 * t = 1/2 is a pi
    rotation of the electron pseudo-qubit."""
    h0 = np.zeros((4, 4), dtype=complex)
    u = one_pulse_propagator(h0, 0.5, 0.0, 1.0)
    psi = u @ np.array([1, 0, 0, 0], dtype=complex)
    assert abs(abs(psi[2]) - 1.0) < 1e-12  # |0,up> -> |-1,up> up to phase


def test_pulse_continuity_to_free(h_subspace):
    u_eps = one_pulse_propagator(h_subspace, 1e-6, 0.7, 1.5)
    u_free = delay_propagator(h_subspace, 1.5)
    f = gate_fidelity(u_eps, u_free)
    assert 1.0 - f < 1e-8


def test_propagators_unitary(h_subspace):
    rng = np.random.default_rng(5)
    for _ in range(20):
        u = one_pulse_propagator(
            h_subspace, float(rng.uniform(0, 1)), float(rng.uniform(0, 2 * np.pi)),
            float(rng.uniform(0, 5)),
        )
        assert unitarity_residual(u) < 1e-10


@settings(max_examples=60, deadline=None)
@given(
    tau=st.floats(0, 50, allow_nan=False),
    w1=st.floats(0, 2, allow_nan=False),
    phi=st.floats(0, 2 * np.pi, exclude_max=True, allow_nan=False),
    t=st.floats(0, 10, allow_nan=False),
)
def test_segment_propagators_always_unitary(h_subspace, tau, w1, phi, t):
    assert unitarity_residual(delay_propagator(h_subspace, tau)) < 1e-10
    assert unitarity_residual(one_pulse_propagator(h_subspace, w1, phi, t)) < 1e-10


def test_empty_sequence_is_identity(h_subspace):
    seq = PulseSequence((), omega1=0.5)
    assert np.allclose(sequence_propagator(seq, h_subspace), np.eye(4), atol=1e-15)


def test_sequence_is_time_ordered(h_subspace):
    """The first segment acts first: U = U_pulse @ U_delay for (delay, pulse),
    as the segment-by-segment series oracle composes it."""
    seq = PulseSequence((Delay(1.3), Pulse(0.7, 0.4)), omega1=0.5)
    expected = oracle_sequence_propagator(seq.segments, h_subspace, 0.5)
    assert np.abs(sequence_propagator(seq, h_subspace) - expected).max() < 1e-13


def test_bundled_hadamard_sequence_fidelity(system, h_subspace, hadamard_seq):
    """The bundled 3-pulse carbon-Hadamard sequence evaluates above 0.96 mean
    over the amplitude grid."""
    rep = icspin.robust_fidelity(hadamard_seq, icspin.hadamard_on_carbon(1), h_subspace)
    assert rep.mean >= 0.96
    assert rep.fidelities[2] == pytest.approx(0.9715, abs=2e-4)


def test_bundled_cnot_sequence_fidelity(system, h_subspace, cnot_seq):
    """The bundled CNOT sequence reaches 0.97 at the nominal amplitude. Its
    5-point robust mean computes to 0.9624 (frozen); the published 'above
    0.97' average is not reproducible from the rounded bundled parameters
    (see the acceptance suite)."""
    u = sequence_propagator(cnot_seq, h_subspace)
    f_nominal = gate_fidelity(u, icspin.cnot_on_carbon(1).matrix)
    assert f_nominal >= 0.97
    assert f_nominal == pytest.approx(0.9898, abs=2e-4)
    rep = icspin.robust_fidelity(cnot_seq, icspin.cnot_on_carbon(1), h_subspace)
    assert rep.mean == pytest.approx(0.9624, abs=5e-4)


# ---------------------------------------------------------------------------
# the propagation engine against the series oracle

durations = st.one_of(st.just(0.0), st.floats(0.0, 4.0))
phases = st.one_of(
    st.just(0.0),
    st.floats(0.0, 1e-9),
    st.floats(2 * np.pi - 1e-9, PHASE_MAX),
    st.floats(0.0, PHASE_MAX),
)
segments = st.lists(
    st.one_of(st.builds(Delay, durations), st.builds(Pulse, durations, phases)), max_size=8
)
ODD_SEQUENCES = [
    [],
    [Pulse(1.3, 0.2)],
    [Pulse(0.7, 1e-10), Pulse(1.1, 2 * np.pi - 1e-10), Delay(0.4)],
    [Delay(1.0), Delay(0.0), Delay(2.5)],
    [Delay(0.0), Pulse(0.0, 3.0), Delay(1.2), Pulse(2.0, 5.0), Pulse(0.3, 0.0)],
]


@settings(max_examples=40, deadline=None)
@given(n_carbons=st.integers(1, 4), segs=segments, omega1=st.floats(0.0, 1.0))
@example(n_carbons=4, segs=ODD_SEQUENCES[2], omega1=0.5)
@example(n_carbons=2, segs=ODD_SEQUENCES[4], omega1=0.48)
def test_sequence_propagator_matches_series_oracle(register_hamiltonians, n_carbons, segs,
                                                   omega1):
    """Any order of delays and pulses, zero-length segments and phases at
    the ends of [0, 2pi) included, agrees with segment-wise Taylor series."""
    h = register_hamiltonians[n_carbons]
    u = sequence_propagator(PulseSequence(tuple(segs), omega1), h)
    assert np.abs(u - oracle_sequence_propagator(segs, h, omega1)).max() < 1e-12


@settings(max_examples=30, deadline=None)
@given(
    n_carbons=st.integers(1, 4),
    segs=segments,
    lo=st.floats(0.0, 1.0),
    width=st.floats(0.0, 0.2),
    points=st.integers(1, 4),
    target_seed=st.integers(0, 2**32 - 1),
)
@example(n_carbons=1, segs=ODD_SEQUENCES[0], lo=0.48, width=0.04, points=3, target_seed=0)
@example(n_carbons=3, segs=ODD_SEQUENCES[1], lo=0.48, width=0.04, points=2, target_seed=1)
@example(n_carbons=4, segs=ODD_SEQUENCES[3], lo=0.5, width=0.0, points=1, target_seed=2)
def test_robust_fidelity_matches_series_oracle(register_hamiltonians, n_carbons, segs, lo,
                                               width, points, target_seed):
    h = register_hamiltonians[n_carbons]
    target = random_unitary(np.random.default_rng(target_seed), h.shape[0])
    rep = icspin.robust_fidelity(PulseSequence(tuple(segs), 0.5), TargetGate(target), h,
                                 (lo, lo + width), points)
    for w1, f in zip(rep.omega1s, rep.fidelities):
        u = oracle_sequence_propagator(segs, h, w1)
        assert abs(f - abs(np.trace(target.conj().T @ u)) / h.shape[0]) < 1e-12


@settings(max_examples=30, deadline=None)
@given(
    n_carbons=st.integers(1, 4),
    n_pulses=st.integers(1, 4),
    data=st.data(),
    target_seed=st.integers(0, 2**32 - 1),
)
def test_kernel_matches_robust_fidelity(register_hamiltonians, n_carbons, n_pulses, data,
                                        target_seed):
    """The genome fast path and the per-segment path share one precompute
    and agree to roundoff."""
    h = register_hamiltonians[n_carbons]
    target = TargetGate(random_unitary(np.random.default_rng(target_seed), h.shape[0]))
    genome = np.array(
        data.draw(st.lists(durations, min_size=2 * n_pulses + 1, max_size=2 * n_pulses + 1))
        + data.draw(st.lists(phases, min_size=n_pulses, max_size=n_pulses))
    )
    band = (0.48, 0.52)
    grid = icspin.fidelity.Band(*band, 5).omega1s()
    fast = icspin.FitnessKernel(h, target, grid, n_pulses).evaluate(genome)[0]
    seq = sequence_from_genome(genome, 0.5)
    assert np.abs(fast - icspin.robust_fidelity(seq, target, h, band, 5).fidelities).max() < 1e-13


def test_engine_empty_sequence_is_identity_on_every_grid_point(h_subspace):
    """V I V^T carries roundoff of about 3e-17."""
    for omega1 in (0.48, 0.5, 0.52):
        u = sequence_propagator(PulseSequence((), omega1), h_subspace)
        assert np.allclose(u, np.eye(4), rtol=0.0, atol=1e-15)


def test_engine_without_grid_propagates_delays_only(h_subspace):
    """An engine without a grid has no pulse eigensystems, and its free
    eigensystem gives the delay propagator V exp(-i 2pi w tau) V^T."""
    engine = engine_for(h_subspace)
    assert engine.w_p.shape == (0, 4)
    assert engine.mix.shape == (0, 4, 4)
    u = engine.to_lab(np.diag(np.exp(-2j * np.pi * engine.w)))
    assert np.allclose(u, delay_propagator(h_subspace, 1.0), rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("grid", [[-0.1], [0.5, np.nan], [np.inf], [0.5, 1e308]])
def test_engine_rejects_negative_or_non_finite_grid(h_subspace, grid):
    """At 1e308 MHz the drive's angular frequencies overflow: a ValueError
    too, not the invariant RuntimeError of the NaN fidelities it would give."""
    with pytest.raises(ValueError, match="grid"):
        engine_for(h_subspace, grid)


@pytest.mark.parametrize("shape", [(6, 6), (3, 4), (1, 1)])
def test_engine_refuses_a_hamiltonian_of_the_wrong_size(shape):
    """Only 2^(n+1) levels are an electron and n carbons; any other shape is
    refused by name before the Hermiticity check or numpy sees it."""
    with pytest.raises(ValueError, match=r"propagation engine needs .* 2\^\(n\+1\) levels"
                                         rf".*{re.escape(str(shape))}"):
        PropagationEngine(np.zeros(shape), [0.5])


@pytest.mark.parametrize("d", [2, 32])
def test_engine_builds_at_every_register_size(d):
    engine = PropagationEngine(np.diag(np.arange(float(d))), [0.5])
    assert engine.dim == d and engine.mix.shape == (1, d, d)


def test_sequence_propagator_needs_register_structure(h_subspace):
    h = h_subspace.copy()
    h[0, 2] = h[2, 0] = 1e-3
    with pytest.raises(ValueError, match="block-diagonal"):
        sequence_propagator(PulseSequence((Delay(1.0),), 0.5), h)


@pytest.mark.parametrize("scale", [np.nan, 2.0])
def test_robust_fidelity_out_of_range_is_an_invariant_error(h_subspace, hadamard_seq, scale):
    """A NaN fidelity, or one above 1 (here from a non-unitary target),
    raises instead of being reported as data."""
    target = TargetGate(scale * sequence_propagator(hadamard_seq, h_subspace))
    with pytest.raises(RuntimeError, match="fidelity"):
        icspin.robust_fidelity(hadamard_seq, target, h_subspace)


def test_robust_fidelity_checks_target_dimension(h_subspace, hadamard_seq):
    with pytest.raises(ValueError, match="mismatch"):
        icspin.robust_fidelity(hadamard_seq, TargetGate(np.eye(8)), h_subspace)


def test_robust_fidelity_chunks_cover_the_grid(register_hamiltonians):
    """At d = 32 a 41-point grid is propagated in several chunks; every
    point matches its own one-amplitude propagation."""
    h = register_hamiltonians[4]
    seq = icspin.load_sequence(icspin.data_path("sequences/ccrot_n6_a.json"))
    target = icspin.target_library("ccrot:1,180", n_carbons=4)
    rep = icspin.robust_fidelity(seq, target, h, (0.4, 0.6), 41)
    assert rep.fidelities.shape == (41,)
    for w1, f in zip(rep.omega1s, rep.fidelities):
        u = sequence_propagator(replace(seq, omega1=w1), h)
        assert abs(f - gate_fidelity(u, target.matrix)) < 1e-13


def test_engine_for_hands_back_the_last_engine_for_the_same_values(h_subspace):
    """A copy of h, and a grid given as a list, are the same values."""
    engine = engine_for(h_subspace, [0.48, 0.5, 0.52])
    assert engine_for(h_subspace.copy(), np.array([0.48, 0.5, 0.52])) is engine
    assert engine_for(h_subspace) is not engine


@pytest.mark.parametrize("change", ["h", "grid"])
def test_engine_for_builds_anew_on_a_one_ulp_change(h_subspace, change):
    grid = np.array([0.48, 0.5, 0.52])
    engine = engine_for(h_subspace, grid)
    h = h_subspace.copy()
    if change == "h":
        h[0, 0] = np.nextafter(h[0, 0].real, np.inf)
    else:
        grid[1] = np.nextafter(grid[1], np.inf)
    other = engine_for(h, grid)
    assert other is not engine
    assert engine_for(h, grid) is other


@pytest.mark.parametrize("name", ["omega1s", "v", "w", "zhalf", "w_p", "mix"])
def test_shared_engine_arrays_are_read_only(h_subspace, name):
    grid = np.array([0.48, 0.5, 0.52])
    array = getattr(engine_for(h_subspace, grid), name)
    with pytest.raises(ValueError, match="read-only"):
        array[...] = 0.0
    grid[0] = 0.0   # the engine keeps its own copy of the caller's grid
    assert engine_for(h_subspace, [0.48, 0.5, 0.52]).omega1s[0] == 0.48


def test_the_ccrot_suite_on_four_carbons_builds_one_d32_engine(registers, monkeypatch):
    """The four n6 rows share the register and the 81-point band: one d32
    eigensystem serves them, and their fidelities equal those of engines
    built afresh, bit for bit."""
    suite = json.loads(icspin.data_path("suite_ccrot.json").read_text())
    cases = [case for case in suite["cases"] if len(case["carbon_labels"]) == 4]
    assert [case["name"] for case in cases] == ["n6_a", "n6_b", "n6_c", "n6_d"]

    def verify(case):
        cfg = registers.subset(case["carbon_labels"])
        seq = icspin.load_sequence(icspin.data_path(case["sequence"]))
        target = icspin.target_library(case["target"], n_carbons=cfg.n_carbons)
        h = icspin.multiqubit_hamiltonian(cfg)
        return icspin.robust_fidelity(seq, target, h, (0.48, 0.52), 81).fidelities

    fresh = []
    for case in cases:
        monkeypatch.setattr(propagation, "_engines", OrderedDict())
        fresh.append(verify(case))

    built = []
    original = PropagationEngine.__init__

    def spy(self, *args, **kwargs):
        original(self, *args, **kwargs)
        built.append(self.dim)

    monkeypatch.setattr(PropagationEngine, "__init__", spy)
    monkeypatch.setattr(propagation, "_engines", OrderedDict())
    shared = [verify(case) for case in cases]
    assert built == [32]
    for a, b in zip(fresh, shared):
        assert np.array_equal(a, b)


def _count_builds(monkeypatch) -> list:
    """Spy on ``PropagationEngine.__init__``: the returned list gains each
    built engine's grid size."""
    built = []
    original = PropagationEngine.__init__

    def spy(self, *args, **kwargs):
        original(self, *args, **kwargs)
        built.append(self.omega1s.size)

    monkeypatch.setattr(PropagationEngine, "__init__", spy)
    return built


def test_interleaved_registers_and_bands_build_each_engine_once(register_hamiltonians,
                                                                monkeypatch):
    """Two registers and two bands, visited in turn three times, build four
    engines; what they give equals what fresh engines give, bit for bit."""
    rng = np.random.default_rng(7)
    cases = [(k, band) for _ in range(3) for k in (1, 2) for band in ((0.48, 0.52), (0.4, 0.6))]
    sequences = {k: sequence_from_genome(np.concatenate([rng.uniform(0.1, 2.0, 7),
                                                         rng.uniform(0.0, 6.0, 3)]), 0.5)
                 for k in (1, 2)}

    def fidelities(k, band):
        target = icspin.target_library("cnot", n_carbons=k)
        return icspin.robust_fidelity(sequences[k], target, register_hamiltonians[k],
                                      band, 9).fidelities

    fresh = []
    for k, band in cases:
        monkeypatch.setattr(propagation, "_engines", OrderedDict())
        fresh.append(fidelities(k, band))
    monkeypatch.setattr(propagation, "_engines", OrderedDict())
    built = _count_builds(monkeypatch)
    kept = [fidelities(k, band) for k, band in cases]
    assert built == [9, 9, 9, 9]
    for a, b in zip(fresh, kept):
        assert np.array_equal(a, b)


def test_the_memo_evicts_the_least_recently_used_engine_first(h_subspace, monkeypatch):
    grids = [np.linspace(0.4, 0.6, 5) + shift for shift in (0.0, 0.01, 0.02)]
    first = engine_for(h_subspace, grids[0])
    monkeypatch.setattr(propagation, "ENGINE_MEMO_BYTES", 2 * propagation._nbytes(first))
    second = engine_for(h_subspace, grids[1])
    assert engine_for(h_subspace, grids[0]) is first   # now the second is the oldest
    third = engine_for(h_subspace, grids[2])
    assert list(propagation._engines.values()) == [first, third]
    built = _count_builds(monkeypatch)
    assert engine_for(h_subspace, grids[0]) is first
    assert engine_for(h_subspace, grids[1]) is not second
    assert built == [5]


def test_an_engine_over_the_budget_is_still_kept_until_the_next(h_subspace, monkeypatch):
    monkeypatch.setattr(propagation, "ENGINE_MEMO_BYTES", 1)
    big = engine_for(h_subspace, np.linspace(0.4, 0.6, 64))
    assert propagation._nbytes(big) > 1
    assert engine_for(h_subspace, np.linspace(0.4, 0.6, 64)) is big
    other = engine_for(h_subspace, [0.5])
    assert list(propagation._engines.values()) == [other]
    assert engine_for(h_subspace, np.linspace(0.4, 0.6, 64)) is not big


def test_threads_sharing_the_memo_get_their_own_engines(h_subspace, monkeypatch):
    """Eight threads, switching every microsecond, ask for four bands with
    room for two: each call gets the engine of its band without error, and
    the memo ends within its budget."""
    grids = [np.linspace(0.4, 0.6, 5) + shift for shift in (0.0, 0.01, 0.02, 0.03)]
    monkeypatch.setattr(propagation, "ENGINE_MEMO_BYTES",
                        2 * propagation._nbytes(engine_for(h_subspace, grids[0])))
    wrong, errors = [], []

    def work(offset):
        for i in range(300):
            grid = grids[(i + offset) % 4]
            try:
                engine = engine_for(h_subspace, grid)
            except Exception as exc:   # reported below; a thread's error is lost otherwise
                errors.append(exc)
                continue
            if not np.array_equal(engine.omega1s, grid):
                wrong.append(grid)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == [] and wrong == []
    kept = sum(propagation._nbytes(e) for e in propagation._engines.values())
    assert 1 <= len(propagation._engines) <= 2
    assert kept <= propagation.ENGINE_MEMO_BYTES
