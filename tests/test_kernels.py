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
from icspin.kernels import BATCH_ENTRIES, FitnessKernel
from icspin.propagation import engine_for
from icspin.sequence import sequence_from_genome
from icspin.targets import TargetGate

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
    out = FitnessKernel(h, TargetGate(target), grid, n_pulses).evaluate(genome)[0]
    seq = sequence_from_genome(genome, 0.5)
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
    out = FitnessKernel(h, TargetGate(target), grid, 0).evaluate([tau])[0]
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


def _on_each_run(monkeypatch, kern, note):
    """Call `note` on the thread of each ``_run_chunks`` call of `kern`."""
    run_chunks = kern._run_chunks

    def spy(*args):
        note()
        run_chunks(*args)

    monkeypatch.setattr(kern, "_run_chunks", spy)


@pytest.mark.parametrize("n_carbons", [1, 2, 3, 4], ids=["d4", "d8", "d16", "d32"])
def test_evaluate_is_bit_identical_on_one_or_two_threads(register_hamiltonians, monkeypatch,
                                                         n_carbons):
    """One genome, one chunk of c genomes, c + 1 (a second chunk) and a GA
    generation of 98 give the same fidelities whether the chunks run on the
    calling thread alone or also on a second thread."""
    h = register_hamiltonians[n_carbons]
    grid = np.linspace(0.48, 0.52, 5)
    kern = FitnessKernel(h, icspin.cc_rotation(n_carbons, 1, np.pi), grid, 4)
    on_main_thread = set()
    _on_each_run(monkeypatch, kern,
                 lambda: on_main_thread.add(threading.current_thread() is threading.main_thread()))
    c = max(1, BATCH_ENTRIES // (grid.size * h.shape[0] ** 2))
    genomes = np.random.default_rng(n_carbons).uniform(0.0, 4.0, size=(max(98, c + 1), 13))
    for size in (1, c, c + 1, 98):
        out = {}
        for workers in (1, 2):
            monkeypatch.setattr(kernels, "cpu_workers", lambda workers=workers: workers)
            out[workers] = kern.evaluate(genomes[:size])
        assert np.array_equal(out[1], out[2]), size
    assert on_main_thread == {True, False}


@pytest.mark.parametrize("cpu_count, expected", [(3, 3), (None, 1)])
def test_cpu_workers_without_an_affinity_mask(monkeypatch, cpu_count, expected):
    """Where the platform has no affinity mask the machine's CPU count is
    used, and 1 when that is unknown."""
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
    assert kernels.cpu_workers() == expected


def test_one_cpu_starts_no_thread(register_hamiltonians, monkeypatch):
    """With one CPU a population of many chunks runs on the calling thread,
    and no other thread is alive while it does."""
    monkeypatch.setattr(kernels, "cpu_workers", lambda: 1)
    threads = threading.active_count()
    kern = FitnessKernel(register_hamiltonians[4], icspin.cc_rotation(4, 1, np.pi),
                         np.linspace(0.48, 0.52, 5), 4)
    seen = []
    _on_each_run(monkeypatch, kern, lambda: seen.append(threading.active_count()))
    kern.evaluate(np.random.default_rng(1).uniform(0.0, 4.0, size=(100, 13)))
    assert seen == [threads]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_kernel_returns_in_a_forked_child(register_hamiltonians, monkeypatch):
    """A child forked after the kernel has run on two threads runs on two
    threads again, with an executor of its own call, and returns the
    parent's fidelities."""
    monkeypatch.setattr(kernels, "cpu_workers", lambda: 2)
    kern = FitnessKernel(register_hamiltonians[4], icspin.cc_rotation(4, 1, np.pi),
                         np.linspace(0.48, 0.52, 5), 4)
    two_chunks = 2 * (BATCH_ENTRIES // (5 * 32 * 32))
    genomes = np.random.default_rng(5).uniform(0.0, 4.0, size=(two_chunks, 13))
    expected = kern.evaluate(genomes)
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
    each 8 MB. The kernel keeps two stacks per thread, as deep as the
    deepest chunk so far: here a whole chunk of 6 genomes (983 kB), so the
    count is fixed at two and the warm-up makes them; a pass then peaks
    near 0.7 MB."""
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


def test_kernel_allocates_no_stack_until_its_first_call(register_hamiltonians):
    """Building a d32 kernel on an engine the memo holds traces no
    propagator stack (two would take 983 kB): the first call makes them."""
    h = register_hamiltonians[4]
    grid = np.linspace(0.48, 0.52, 5)
    target = icspin.cc_rotation(4, 1, np.pi)
    engine_for(h, grid)
    tracemalloc.start()
    try:
        FitnessKernel(h, target, grid, 4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.1 * 2**20


def test_two_kernels_on_one_engine_run_at_once(register_hamiltonians, monkeypatch):
    """Two kernels on one engine, each evaluated from its own thread at the
    same time and each on two threads, return their serial rows bit for
    bit, and no stack of one is a stack of the other."""
    monkeypatch.setattr(kernels, "cpu_workers", lambda: 2)
    h = register_hamiltonians[4]
    grid = np.linspace(0.48, 0.52, 5)
    kerns = [FitnessKernel(h, icspin.cc_rotation(4, carbon, np.pi), grid, 4) for carbon in (1, 2)]
    assert kerns[0].engine is kerns[1].engine
    genomes = np.random.default_rng(8).uniform(0.0, 4.0, size=(98, 13))
    expected = [kern.evaluate(genomes) for kern in kerns]
    start = threading.Barrier(2)
    out = [[], []]

    def run(i):
        start.wait()
        for _ in range(3):
            out[i].append(kerns[i].evaluate(genomes))

    threads = [threading.Thread(target=run, args=(i,)) for i in (0, 1)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    for rows, serial in zip(out, expected):
        assert len(rows) == 3 and all(np.array_equal(r, serial) for r in rows)
    assert not any(np.shares_memory(a, b) for a in kerns[0]._stacks for b in kerns[1]._stacks)


def test_stacks_are_as_deep_as_the_call_needs(h_subspace):
    """robust_fidelity of the bundled CNOT on the 81-point band at d4 runs
    one genome, whose two stacks take 41 kB; stacks a whole chunk of 25
    genomes deep would take 1.04 MB. The warm-up call leaves the engine in
    the memo."""
    seq = icspin.load_sequence(icspin.data_path("sequences/cnot.json"))
    target = icspin.cnot_on_carbon(1)
    icspin.robust_fidelity(seq, target, h_subspace, (0.48, 0.52), 81)
    tracemalloc.start()
    try:
        icspin.robust_fidelity(seq, target, h_subspace, (0.48, 0.52), 81)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.2 * 2**20


def test_a_deeper_call_replaces_shallow_stacks_and_rows_stay_bitwise(workspace):
    """A call on more genomes than the kept stacks hold replaces them with
    deeper ones, and a later smaller call keeps those; every row is the one
    the genome gets alone."""
    h, target, grid = workspace
    kern = FitnessKernel(h, target, grid, 2)
    genomes = np.random.default_rng(3).uniform(0.0, 4.0, size=(40, 7))
    alone = np.vstack([kern.evaluate(genome) for genome in genomes])
    assert kern._stacks[0].shape[1] == 1
    assert np.array_equal(kern.evaluate(genomes), alone)
    deepest = min(kern._chunk, len(genomes))
    assert kern._stacks[0].shape[1] == deepest
    assert np.array_equal(kern.evaluate(genomes[:3]), alone[:3])
    assert kern._stacks[0].shape[1] == deepest


def test_robust_fidelity_peak_memory_is_grid_chunked(register_hamiltonians):
    """robust_fidelity on the 81-point band at d32 works in two 32-point
    stacks (1.0 MB) and peaks near 1.4 MB; the warm-up call leaves the
    engine in the memo. Two (81, d, d) complex stacks of the whole grid
    would take 2.7 MB instead."""
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
    kern = FitnessKernel(h, TargetGate(scale * np.eye(h.shape[0])), grid, 1)
    with pytest.raises(RuntimeError, match="outside"):
        kern.evaluate(np.zeros(4))


def test_column_count_validated(workspace):
    h, target, grid = workspace
    kern = FitnessKernel(h, target, grid, 3)
    with pytest.raises(ValueError, match="columns"):
        kern.evaluate(np.zeros((2, 7)))


def test_genome_array_dimensions_validated(workspace):
    h, target, grid = workspace
    kern = FitnessKernel(h, target, grid, 3)
    with pytest.raises(ValueError, match=r"2-D.*\(2, 10, 1\)"):
        kern.evaluate(np.zeros((2, 10, 1)))


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
