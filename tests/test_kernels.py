import os
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import icspin
from icspin import kernels
from icspin.kernels import FitnessKernel
from icspin.propagation import BATCH_ENTRIES

from oracles import oracle_sequence_propagator, random_unitary

PHASE_MAX = np.nextafter(2 * np.pi, 0.0)


@pytest.fixture(scope="module")
def workspace(system, h_subspace):
    target = icspin.hadamard_on_carbon(1)
    grid = np.linspace(0.48, 0.52, 5)
    return h_subspace, target, grid


def test_kernel_matches_reference_path(workspace, hadamard_seq):
    """The batched kernel agrees with the plain per-sequence evaluation."""
    h, target, grid = workspace
    genome = icspin.genome_from_sequence(hadamard_seq)
    ref = icspin.robust_fidelity(hadamard_seq, target, h).fidelities
    out = FitnessKernel(h, target, grid, n_pulses=3).evaluate(genome)
    assert np.abs(out[0] - ref).max() < 1e-12


durations = st.one_of(st.just(0.0), st.floats(0.0, 4.0))
phases = st.one_of(
    st.just(0.0),
    st.floats(0.0, 1e-9),
    st.floats(2 * np.pi - 1e-9, PHASE_MAX),
    st.floats(0.0, PHASE_MAX),
)


@settings(max_examples=40, deadline=None)
@given(
    n_carbons=st.integers(1, 4),
    n_pulses=st.integers(1, 4),
    data=st.data(),
    grid=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3),
    target_seed=st.integers(0, 2**32 - 1),
)
def test_kernel_matches_taylor_oracle(register_hamiltonians, n_carbons, n_pulses, data,
                                      grid, target_seed):
    """Random canonical genomes, zero-length segments and phases at the ends
    of [0, 2pi) included, agree with segment-wise Taylor propagation."""
    h = register_hamiltonians[n_carbons]
    target = random_unitary(np.random.default_rng(target_seed), h.shape[0])
    genome = np.array(
        data.draw(st.lists(durations, min_size=2 * n_pulses + 1, max_size=2 * n_pulses + 1))
        + data.draw(st.lists(phases, min_size=n_pulses, max_size=n_pulses))
    )
    out = FitnessKernel(h, target, grid, n_pulses).evaluate(genome)[0]
    seq = icspin.sequence_from_genome(genome, n_pulses, 0.5)
    for g, w1 in enumerate(grid):
        u = oracle_sequence_propagator(seq.segments, h, w1)
        ref = abs(np.trace(target.conj().T @ u)) / h.shape[0]
        assert abs(out[g] - ref) < 1e-12


@settings(max_examples=20, deadline=None)
@given(
    n_carbons=st.integers(1, 4),
    tau=durations,
    grid=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3),
    target_seed=st.integers(0, 2**32 - 1),
)
def test_pure_delay_kernel_matches_taylor_oracle(register_hamiltonians, n_carbons, tau, grid,
                                                 target_seed):
    """n_pulses = 0 is one delay, the same on every grid point."""
    h = register_hamiltonians[n_carbons]
    target = random_unitary(np.random.default_rng(target_seed), h.shape[0])
    out = FitnessKernel(h, target, grid, 0).evaluate([tau])[0]
    u = oracle_sequence_propagator([icspin.Delay(tau)], h, 0.5)
    ref = abs(np.trace(target.conj().T @ u)) / h.shape[0]
    assert np.abs(out - ref).max() < 1e-12


@pytest.mark.parametrize("points", [41, 81])
@pytest.mark.parametrize("population", [1, 3])
def test_grid_chunks_match_one_point_evaluations(register_hamiltonians, points, population):
    """At d32 a genome's grid exceeds BATCH_ENTRIES and runs in slices of
    BATCH_ENTRIES / d^2 points, the last one ragged; every point matches
    its own one-point kernel."""
    h = register_hamiltonians[4]
    target = icspin.cc_rotation(4, 1, np.pi)
    grid = np.linspace(0.4, 0.6, points)
    genomes = np.random.default_rng(points + population).uniform(0.0, 4.0, size=(population, 13))
    out = FitnessKernel(h, target, grid, 4).evaluate(genomes)
    for g, w1 in enumerate(grid):
        one = FitnessKernel(h, target, [w1], 4).evaluate(genomes)[:, 0]
        assert np.abs(out[:, g] - one).max() < 1e-13


def test_single_genome_equals_its_batch_row(register_hamiltonians):
    """A genome evaluated alone gives its batch row bit for bit, which the
    GA's fixed-seed reproducibility rests on."""
    rng = np.random.default_rng(4)
    for k, h in register_hamiltonians.items():
        kern = FitnessKernel(h, icspin.cc_rotation(k, 1, np.pi), np.linspace(0.48, 0.52, 5), 4)
        genomes = rng.uniform(0.0, 4.0, size=(17, 13))
        batch = kern.evaluate(genomes)
        for i in (0, 9, 16):
            assert np.array_equal(kern.evaluate(genomes[i]), batch[i : i + 1])


@pytest.mark.parametrize("n_carbons", [3, 4], ids=["d16", "d32"])
def test_chunked_population_matches_single_genome_rows(register_hamiltonians, n_carbons):
    """Populations around the chunk size c, ragged last chunks and the empty
    population give every genome its one-genome row bit for bit."""
    h = register_hamiltonians[n_carbons]
    grid = np.linspace(0.48, 0.52, 5)
    kern = FitnessKernel(h, icspin.cc_rotation(n_carbons, 1, np.pi), grid, 4)
    c = max(1, BATCH_ENTRIES // (grid.size * h.shape[0] ** 2))
    genomes = np.random.default_rng(11).uniform(0.0, 4.0, size=(100, 13))
    singles = np.vstack([kern.evaluate(g) for g in genomes])
    for size in (0, 1, c - 1, c, c + 1, 98, 100):
        out = kern.evaluate(genomes[:size])
        assert out.shape == (size, grid.size)
        assert np.array_equal(out, singles[:size])


@pytest.mark.parametrize("n_carbons", [1, 2, 3, 4], ids=["d4", "d8", "d16", "d32"])
def test_evaluate_is_bit_identical_on_one_or_two_threads(register_hamiltonians, monkeypatch,
                                                         n_carbons):
    """One genome, one chunk of c genomes, c + 1 (a second chunk) and a GA
    generation of 98 give the same fidelities whether the chunks run on the
    calling thread alone or also on the pool."""
    h = register_hamiltonians[n_carbons]
    grid = np.linspace(0.48, 0.52, 5)
    kern = FitnessKernel(h, icspin.cc_rotation(n_carbons, 1, np.pi), grid, 4)
    c = max(1, BATCH_ENTRIES // (grid.size * h.shape[0] ** 2))
    genomes = np.random.default_rng(n_carbons).uniform(0.0, 4.0, size=(max(98, c + 1), 13))
    for size in (1, c, c + 1, 98):
        out = {}
        for workers in (1, 2):
            monkeypatch.setattr(kernels, "cpu_workers", lambda workers=workers: workers)
            out[workers] = kern.evaluate(genomes[:size])
        assert np.array_equal(out[1], out[2]), size
    assert kern.threads_used == 2


def test_one_cpu_starts_no_thread(register_hamiltonians, monkeypatch):
    """With one CPU a population of many chunks runs on the calling thread
    and builds no pool."""
    monkeypatch.setattr(kernels, "cpu_workers", lambda: 1)
    monkeypatch.setattr(kernels, "_pool", None)
    threads = threading.active_count()
    kern = FitnessKernel(register_hamiltonians[4], icspin.cc_rotation(4, 1, np.pi),
                         np.linspace(0.48, 0.52, 5), 4)
    kern.evaluate(np.random.default_rng(1).uniform(0.0, 4.0, size=(100, 13)))
    assert kern.threads_used == 1
    assert kernels._pool is None
    assert threading.active_count() == threads


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_kernel_returns_in_a_forked_child(register_hamiltonians, monkeypatch):
    """A child forked after the pool started inherits a pool with no
    threads; the kernel builds its own there and still returns the parent's
    fidelities."""
    monkeypatch.setattr(kernels, "cpu_workers", lambda: 2)
    kern = FitnessKernel(register_hamiltonians[4], icspin.cc_rotation(4, 1, np.pi),
                         np.linspace(0.48, 0.52, 5), 4)
    two_chunks = 2 * (BATCH_ENTRIES // (5 * 32 * 32))
    genomes = np.random.default_rng(5).uniform(0.0, 4.0, size=(two_chunks, 13))
    expected = kern.evaluate(genomes)
    assert kern.threads_used == 2
    read, write = os.pipe()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)   # fork of a threaded process
        pid = os.fork()
    if pid == 0:   # the child: report through the pipe, never return to pytest
        status = 1
        try:
            os.write(write, kern.evaluate(genomes).tobytes())
            status = 0
        finally:
            os._exit(status)
    os.close(write)
    deadline = time.monotonic() + 60.0
    while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
        time.sleep(0.05)
    if done[0] == 0:
        os.kill(pid, 9)
        os.waitpid(pid, 0)
        os.close(read)
        pytest.fail("the kernel did not return in the forked child within 60 s")
    with os.fdopen(read, "rb") as pipe:
        data = pipe.read()
    assert os.waitstatus_to_exitcode(done[1]) == 0
    assert np.array_equal(np.frombuffer(data).reshape(expected.shape), expected)


def test_evaluate_peak_memory_is_chunk_sized(register_hamiltonians, monkeypatch):
    """A population of 100 at d32 never materializes as (P, G, d, d) arrays,
    each 8 MB. Each thread keeps two chunk-sized stacks (983 kB), the pool
    thread's made on its first chunk, so the count is fixed at two and the
    warm-up makes them; a pass then peaks near 0.8 MB."""
    monkeypatch.setattr(kernels, "cpu_workers", lambda: 2)
    h = register_hamiltonians[4]
    kern = FitnessKernel(h, icspin.cc_rotation(4, 1, np.pi), np.linspace(0.48, 0.52, 5), 4)
    genomes = np.random.default_rng(0).uniform(0.0, 4.0, size=(100, 13))
    kern.evaluate(genomes)
    tracemalloc.start()
    try:
        kern.evaluate(genomes)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_robust_fidelity_peak_memory_is_grid_chunked(register_hamiltonians):
    """robust_fidelity on the 81-point band at d32 holds the engine's
    (81, d, d) mixing matrices and two 16-point stacks, about 2.1 MB; the
    whole grid as two (81, d, d) complex stacks would add 2.6 MB."""
    h = register_hamiltonians[4]
    seq = icspin.load_sequence(icspin.data_path("sequences/ccrot_n6_a.json"))
    target = icspin.cc_rotation(4, 1, np.pi)
    icspin.robust_fidelity(seq, target, h, (0.48, 0.52), 81)
    tracemalloc.start()
    try:
        icspin.robust_fidelity(seq, target, h, (0.48, 0.52), 81)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * 2**20


@pytest.mark.parametrize("scale", [2.0, np.nan])
def test_fidelity_outside_unit_interval_raises(workspace, scale):
    """A target that is not unitary stands in for a broken chain: the empty
    chain scores 2 against 2I, and NaN against a NaN target."""
    h, _, grid = workspace
    kern = FitnessKernel(h, scale * np.eye(h.shape[0]), grid, 1)
    with pytest.raises(RuntimeError, match="outside"):
        kern.evaluate(np.zeros(4))


def test_column_count_validated(workspace):
    h, target, grid = workspace
    kern = FitnessKernel(h, target, grid, 3)
    with pytest.raises(ValueError, match="columns"):
        kern.evaluate(np.zeros((2, 7)))


def test_rejects_complex_hamiltonian(workspace):
    h, target, grid = workspace
    h = h.copy()
    h[0, 1] += 1e-3j
    h[1, 0] -= 1e-3j
    with pytest.raises(ValueError, match="real"):
        FitnessKernel(h, target, grid, 3)


def test_rejects_coupled_electron_blocks(workspace):
    h, target, grid = workspace
    h = h.copy()
    h[0, 2] = h[2, 0] = 1e-3
    with pytest.raises(ValueError, match="block-diagonal"):
        FitnessKernel(h, target, grid, 3)


def test_rejects_no_pulses(workspace):
    h, target, grid = workspace
    with pytest.raises(ValueError, match="n_pulses"):
        FitnessKernel(h, target, grid, -1)


@pytest.mark.parametrize("grid", [[], [0.48, np.nan], [np.inf]])
def test_rejects_empty_or_non_finite_grid(workspace, grid):
    h, target, _ = workspace
    with pytest.raises(ValueError, match="grid"):
        FitnessKernel(h, target, grid, 3)


def test_fidelities_in_unit_interval(workspace):
    h, target, grid = workspace
    rng = np.random.default_rng(3)
    genomes = rng.uniform(0, 5, size=(64, 10))
    out = FitnessKernel(h, target, grid, 3).evaluate(genomes)
    assert out.shape == (64, 5)
    assert np.all(out >= 0.0) and np.all(out <= 1.0 + 1e-12)
